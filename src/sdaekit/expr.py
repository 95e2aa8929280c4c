"""Scalar expression DSL used to define every coefficient function.

Expressions are immutable trees over variables ``x1..xn``, ``u1..um`` and
``t``, the seven unary functions ``sin cos tan atan exp log sqrt``, and the
arithmetic operators ``+ - * / ^`` (``^`` is right-associative and binds
tighter than unary minus, so ``-u1^2`` means ``-(u1^2)``).

Three consumers drive the design:

* symbolic differentiation (exact, with conservative constant folding),
* scalar evaluation with strict domain checking (errors name the node),
* compilation to numpy-vectorised code for the integration hot loops.

Each call site that evaluates coefficients per step gets one generated
kernel (:func:`compile_kernel`): a single function from a point array to all
the labelled arrays it needs, written as straight-line numpy code in which
every distinct subtree is computed once.  Sharing never reorders a float
operation, so a kernel's entries equal the per-entry evaluation of
:func:`compile_expr` bit for bit.  A call site that solves for some
variables while holding the others fixed uses the staged form
(:func:`compile_staged`): ``prepare`` computes the nodes of the fixed
variables once, ``finish`` the rest per iterate, with the same bits.  For
one scalar unknown, :func:`compile_newton_step` fuses a whole Newton step
with what follows it: the fixed nodes once, the residual and its
derivative, the update, the residual at the update and further outputs
there, again with the same bits.  Operations on constants alone also run
through numpy, so out-of-domain constants give nan or inf like any other
node.

Every vectorised evaluation in the package goes through these
generators.  The older environment-dict API (:func:`make_env` with
:class:`CompiledVector` / :class:`CompiledMatrix`) is kept public, with the
same signatures and bits, only as a shim for outside callers; nothing in the
package calls it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Union

import numpy as np

from .errors import (
    EvaluationDomainError,
    ExpressionParseError,
    MissingBindingError,
)

__all__ = [
    "Constant",
    "Variable",
    "Unary",
    "Binary",
    "Expression",
    "UNARY_FUNCTIONS",
    "parse",
    "to_text",
    "differentiate",
    "evaluate",
    "free_variables",
    "substitute",
    "add",
    "sub",
    "mul",
    "div",
    "pow_",
    "neg",
    "func",
    "const",
    "var",
    "jacobian",
    "hessian",
    "compile_expr",
    "compile_kernel",
    "compile_staged",
    "compile_newton_step",
    "CompiledVector",
    "CompiledMatrix",
    "make_env",
]

UNARY_FUNCTIONS = ("sin", "cos", "tan", "atan", "exp", "log", "sqrt")

_VAR_RE = re.compile(r"^(?:[xu][1-9][0-9]*|t)$")


@dataclass(frozen=True)
class Constant:
    value: float

    def __str__(self) -> str:
        return to_text(self)


@dataclass(frozen=True)
class Variable:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Unary:
    op: str  # 'neg' or a function name
    child: "Expression"

    def __str__(self) -> str:
        return to_text(self)


@dataclass(frozen=True)
class Binary:
    op: str  # add | sub | mul | div | pow
    left: "Expression"
    right: "Expression"

    def __str__(self) -> str:
        return to_text(self)


Expression = Union[Constant, Variable, Unary, Binary]


# ---------------------------------------------------------------------------
# Smart constructors.  Folding is deliberately conservative: constants are
# combined where the result is finite and multiplicative/additive identities
# removed, nothing else.
# ---------------------------------------------------------------------------


def const(v: float) -> Constant:
    return Constant(float(v))


def var(name: str) -> Variable:
    return Variable(name)


def _cv(e: Expression) -> float | None:
    return e.value if isinstance(e, Constant) else None


def _fold(v: float, op: str, a: Expression, b: Expression) -> Expression:
    """Constant(v), the value of ``a op b``, when it is finite; else the node
    itself.  A fold to inf or nan is not made, as in pow_ and func: nan would
    print as text that does not parse."""
    return Constant(v) if math.isfinite(v) else Binary(op, a, b)


def add(a: Expression, b: Expression) -> Expression:
    ca, cb = _cv(a), _cv(b)
    if ca is not None and cb is not None:
        return _fold(ca + cb, "add", a, b)
    if ca == 0.0:
        return b
    if cb == 0.0:
        return a
    return Binary("add", a, b)


def sub(a: Expression, b: Expression) -> Expression:
    ca, cb = _cv(a), _cv(b)
    if ca is not None and cb is not None:
        return _fold(ca - cb, "sub", a, b)
    if cb == 0.0:
        return a
    if ca == 0.0:
        return neg(b)
    return Binary("sub", a, b)


def mul(a: Expression, b: Expression) -> Expression:
    ca, cb = _cv(a), _cv(b)
    if ca is not None and cb is not None:
        return _fold(ca * cb, "mul", a, b)
    if ca == 0.0 or cb == 0.0:
        return Constant(0.0)
    if ca == 1.0:
        return b
    if cb == 1.0:
        return a
    # fold a constant into a neighbouring constant*expr product, unless the
    # product overflows: 2*(1e308*x1) as inf*x1 would be nan at x1 = 0
    c, prod = (ca, b) if ca is not None else (cb, a)
    if c is not None and isinstance(prod, Binary) and prod.op == "mul":
        for inner, rest in ((prod.left, prod.right), (prod.right, prod.left)):
            if isinstance(inner, Constant) and math.isfinite(c * inner.value):
                return mul(Constant(c * inner.value), rest)
    return Binary("mul", a, b)


def div(a: Expression, b: Expression) -> Expression:
    ca, cb = _cv(a), _cv(b)
    if cb is not None and cb != 0.0:
        if ca is not None:
            return _fold(ca / cb, "div", a, b)
        if cb == 1.0:
            return a
    return Binary("div", a, b)


def pow_(a: Expression, b: Expression) -> Expression:
    ca, cb = _cv(a), _cv(b)
    if cb == 1.0:
        return a
    if cb == 0.0:
        return Constant(1.0)
    if ca is not None and cb is not None:
        try:
            v = _pow_scalar(ca, cb, node=None)
        except EvaluationDomainError:
            return Binary("pow", a, b)
        if math.isfinite(v):
            return Constant(v)
    return Binary("pow", a, b)


def neg(a: Expression) -> Expression:
    ca = _cv(a)
    if ca is not None:
        return Constant(-ca)
    if isinstance(a, Unary) and a.op == "neg":
        return a.child
    return Unary("neg", a)


def func(name: str, child: Expression) -> Expression:
    if name not in UNARY_FUNCTIONS:
        raise ValueError(f"unknown function '{name}'")
    cc = _cv(child)
    if cc is not None:
        try:
            v = _apply_unary(name, cc, node=None)
        except EvaluationDomainError:
            return Unary(name, child)
        if math.isfinite(v):
            return Constant(v)
    return Unary(name, child)


# ---------------------------------------------------------------------------
# Parser.  Grammar (right-associative '^', unary minus below '^'):
#   expr   := term (('+'|'-') term)*
#   term   := factor (('*'|'/') factor)*
#   factor := '-' factor | power
#   power  := atom ('^' factor)?
#   atom   := NUMBER | IDENT '(' expr ')' | IDENT | '(' expr ')'
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                off = len(text) - len(stripped)
                raise ExpressionParseError(
                    f"unexpected character '{text[off]}'", off
                )
            if m.lastgroup is not None:
                self.tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
            pos = m.end()
        self.i = 0

    def _peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.text))

    def _next(self):
        tok = self._peek()
        self.i += 1
        return tok

    def _expect_op(self, symbol: str):
        kind, value, off = self._next()
        if kind != "op" or value != symbol:
            raise ExpressionParseError(f"expected '{symbol}'", off)

    def parse(self) -> Expression:
        e = self.expr()
        kind, value, off = self._peek()
        if kind is not None:
            raise ExpressionParseError(f"unexpected token '{value}'", off)
        return e

    def expr(self) -> Expression:
        e = self.term()
        while True:
            kind, value, _ = self._peek()
            if kind == "op" and value in "+-":
                self.i += 1
                rhs = self.term()
                e = add(e, rhs) if value == "+" else sub(e, rhs)
            else:
                return e

    def term(self) -> Expression:
        e = self.factor()
        while True:
            kind, value, _ = self._peek()
            if kind == "op" and value in "*/":
                self.i += 1
                rhs = self.factor()
                e = mul(e, rhs) if value == "*" else div(e, rhs)
            else:
                return e

    def factor(self) -> Expression:
        kind, value, _ = self._peek()
        if kind == "op" and value == "-":
            self.i += 1
            return neg(self.factor())
        return self.power()

    def power(self) -> Expression:
        base = self.atom()
        kind, value, _ = self._peek()
        if kind == "op" and value == "^":
            self.i += 1
            exponent = self.factor()
            return pow_(base, exponent)
        return base

    def atom(self) -> Expression:
        kind, value, off = self._next()
        if kind == "num":
            return Constant(float(value))
        if kind == "ident":
            nxt_kind, nxt_val, _ = self._peek()
            if nxt_kind == "op" and nxt_val == "(":
                if value not in UNARY_FUNCTIONS:
                    raise ExpressionParseError(f"unknown function '{value}'", off)
                self.i += 1
                inner = self.expr()
                self._expect_op(")")
                return Unary(value, inner)
            if value in UNARY_FUNCTIONS:
                raise ExpressionParseError(f"expected '(' after function '{value}'", off)
            if not _VAR_RE.match(value):
                raise ExpressionParseError(f"unknown variable '{value}'", off)
            return Variable(value)
        if kind == "op" and value == "(":
            inner = self.expr()
            self._expect_op(")")
            return inner
        if kind is None:
            raise ExpressionParseError("unexpected end of input", off)
        raise ExpressionParseError(f"unexpected token '{value}'", off)


def parse(text: str) -> Expression:
    """Parse expression text into an AST. Raises ExpressionParseError with offset."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Printing.  Round-trips through parse() to the identical AST.
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(e: Expression) -> int:
    if isinstance(e, Binary):
        if e.op in ("add", "sub"):
            return _PREC_ADD
        if e.op in ("mul", "div"):
            return _PREC_MUL
        return _PREC_POW
    if isinstance(e, Unary) and e.op == "neg":
        return _PREC_NEG
    if isinstance(e, Constant) and (e.value < 0 or (e.value == 0 and math.copysign(1, e.value) < 0)):
        return _PREC_NEG  # prints with a leading '-'
    return _PREC_ATOM


def _format_number(v: float) -> str:
    if math.isfinite(v) and v == int(v) and abs(v) <= 1e16:
        return "-0" if v == 0 and math.copysign(1.0, v) < 0 else str(int(v))  # int(-0.0) is 0
    if math.isinf(v):
        return "-1e999" if v < 0 else "1e999"  # the literal that parses to inf
    return repr(v)


def to_text(e: Expression) -> str:
    """Render an expression so that parse(to_text(e)) == e."""
    if isinstance(e, Constant):
        return _format_number(e.value)
    if isinstance(e, Variable):
        return e.name
    if isinstance(e, Unary):
        if e.op == "neg":
            inner = to_text(e.child)
            if _prec(e.child) <= _PREC_MUL:
                inner = f"({inner})"
            return f"-{inner}"
        return f"{e.op}({to_text(e.child)})"
    sym = {"add": " + ", "sub": " - ", "mul": "*", "div": "/", "pow": "^"}[e.op]
    lhs, rhs = to_text(e.left), to_text(e.right)
    if e.op in ("add", "sub"):
        if _prec(e.left) < _PREC_ADD:
            lhs = f"({lhs})"
        if _prec(e.right) <= _PREC_ADD:
            rhs = f"({rhs})"
    elif e.op in ("mul", "div"):
        if _prec(e.left) < _PREC_MUL:
            lhs = f"({lhs})"
        if _prec(e.right) <= _PREC_MUL:
            rhs = f"({rhs})"
    else:  # pow: right-associative, binds above unary minus
        if _prec(e.left) <= _PREC_POW:
            lhs = f"({lhs})"
        if _prec(e.right) < _PREC_NEG:
            rhs = f"({rhs})"
    return f"{lhs}{sym}{rhs}"


# ---------------------------------------------------------------------------
# Differentiation.
# ---------------------------------------------------------------------------


def differentiate(e: Expression, name: str) -> Expression:
    """Exact symbolic derivative of e with respect to the named variable."""
    if isinstance(e, Constant):
        return Constant(0.0)
    if isinstance(e, Variable):
        return Constant(1.0 if e.name == name else 0.0)
    if isinstance(e, Unary):
        d = differentiate(e.child, name)
        c = e.child
        if e.op == "neg":
            return neg(d)
        if e.op == "sin":
            return mul(func("cos", c), d)
        if e.op == "cos":
            return neg(mul(func("sin", c), d))
        if e.op == "tan":
            return mul(add(Constant(1.0), pow_(func("tan", c), Constant(2.0))), d)
        if e.op == "atan":
            return div(d, add(Constant(1.0), pow_(c, Constant(2.0))))
        if e.op == "exp":
            return mul(func("exp", c), d)
        if e.op == "log":
            return div(d, c)
        if e.op == "sqrt":
            return div(d, mul(Constant(2.0), func("sqrt", c)))
        raise ValueError(f"unknown unary op '{e.op}'")
    da = differentiate(e.left, name)
    db = differentiate(e.right, name)
    a, b = e.left, e.right
    if e.op == "add":
        return add(da, db)
    if e.op == "sub":
        return sub(da, db)
    if e.op == "mul":
        return add(mul(da, b), mul(a, db))
    if e.op == "div":
        return div(sub(mul(da, b), mul(a, db)), pow_(b, Constant(2.0)))
    if e.op == "pow":
        cb = _cv(b)
        if cb is not None:
            return mul(mul(b, pow_(a, Constant(cb - 1.0))), da)
        if _cv(a) is not None:
            return mul(mul(pow_(a, b), func("log", a)), db)
        return mul(
            pow_(a, b),
            add(mul(db, func("log", a)), mul(b, div(da, a))),
        )
    raise ValueError(f"unknown binary op '{e.op}'")


def jacobian(exprs: Iterable[Expression], names: Iterable[str]) -> list[list[Expression]]:
    names = list(names)
    return [[differentiate(e, nm) for nm in names] for e in exprs]


def hessian(e: Expression, names_a: Iterable[str], names_b: Iterable[str]) -> list[list[Expression]]:
    names_b = list(names_b)
    return [[differentiate(differentiate(e, na), nb) for nb in names_b] for na in names_a]


# ---------------------------------------------------------------------------
# Evaluation (scalar reference path, strict domain checking).
# ---------------------------------------------------------------------------


def _apply_unary(op: str, v: float, node) -> float:
    try:
        if op == "neg":
            return -v
        if op == "sin":
            return math.sin(v)
        if op == "cos":
            return math.cos(v)
        if op == "tan":
            return math.tan(v)
        if op == "atan":
            return math.atan(v)
        if op == "exp":
            return math.exp(v)
        if op == "log":
            if v <= 0.0:
                raise EvaluationDomainError(f"log of non-positive value {v!r}", node)
            return math.log(v)
        if op == "sqrt":
            if v < 0.0:
                raise EvaluationDomainError(f"sqrt of negative value {v!r}", node)
            return math.sqrt(v)
    except OverflowError as exc:
        raise EvaluationDomainError(f"overflow: {exc}", node) from None
    raise ValueError(f"unknown unary op '{op}'")


def _pow_scalar(base: float, exponent: float, node) -> float:
    if base < 0.0 and not float(exponent).is_integer():
        raise EvaluationDomainError(
            f"negative base {base!r} with non-integer exponent {exponent!r}", node
        )
    if base == 0.0 and exponent < 0.0:
        raise EvaluationDomainError("zero base with negative exponent", node)
    try:
        return base ** exponent
    except OverflowError:
        raise EvaluationDomainError("overflow in power", node) from None


def evaluate(e: Expression, bindings: Mapping[str, float]) -> float:
    """Evaluate with every free variable bound; missing bindings are errors."""
    if isinstance(e, Constant):
        return e.value
    if isinstance(e, Variable):
        try:
            return float(bindings[e.name])
        except KeyError:
            raise MissingBindingError(e.name) from None
    if isinstance(e, Unary):
        return _apply_unary(e.op, evaluate(e.child, bindings), e)
    lv = evaluate(e.left, bindings)
    rv = evaluate(e.right, bindings)
    if e.op == "add":
        return lv + rv
    if e.op == "sub":
        return lv - rv
    if e.op == "mul":
        return lv * rv
    if e.op == "div":
        if rv == 0.0:
            raise EvaluationDomainError("division by zero", e)
        return lv / rv
    if e.op == "pow":
        return _pow_scalar(lv, rv, e)
    raise ValueError(f"unknown binary op '{e.op}'")


def free_variables(e: Expression) -> frozenset[str]:
    if isinstance(e, Constant):
        return frozenset()
    if isinstance(e, Variable):
        return frozenset((e.name,))
    if isinstance(e, Unary):
        return free_variables(e.child)
    return free_variables(e.left) | free_variables(e.right)


def substitute(e: Expression, mapping: Mapping[str, Expression]) -> Expression:
    """Replace variables by expressions (used to compose maps symbolically)."""
    if isinstance(e, Constant):
        return e
    if isinstance(e, Variable):
        return mapping.get(e.name, e)
    if isinstance(e, Unary):
        child = substitute(e.child, mapping)
        return neg(child) if e.op == "neg" else func(e.op, child)
    l = substitute(e.left, mapping)
    r = substitute(e.right, mapping)
    return {"add": add, "sub": sub, "mul": mul, "div": div, "pow": pow_}[e.op](l, r)


# ---------------------------------------------------------------------------
# Compilation to numpy callables.  Every expression node becomes one numpy
# operation; out-of-domain inputs produce nan/inf rather than raising, and the
# integrator turns non-finite states into a path status.
#
# compile_expr turns one expression into a function of an environment dict.
# compile_kernel turns labelled output arrays into one function of a point
# array in which each distinct subtree is computed once.  Both print each node
# with _node_code, so a shared subtree is the same float operation on the same
# operands either way and the two agree bit for bit.
# ---------------------------------------------------------------------------

_NP_FUNCS = {
    "sin": "_np.sin",
    "cos": "_np.cos",
    "tan": "_np.tan",
    "atan": "_np.arctan",
    "exp": "_np.exp",
    "log": "_np.log",
    "sqrt": "_np.sqrt",
}

_BINARY_SYMBOLS = {"add": "+", "sub": "-", "mul": "*", "div": "/"}


def _const_code(v: float) -> str:
    if not math.isfinite(v):
        return f"float('{v!r}')"
    text = repr(v)
    # parenthesised so that a negative base stays the base: (-2.0) ** x1
    return f"({text})" if text.startswith("-") else text


def _node_code(e: Unary | Binary, *operands: str, constant: bool = False) -> str:
    """Source of one operation node, given the source of its operands.

    ``constant`` marks a node without variables below it.  Its left operand
    is wrapped in ``_np.float64`` so that the operation follows numpy
    semantics (nan or inf, never an exception or a complex number) like
    every other node; Python float arithmetic would raise on ``0.0 ** -1``
    and turn ``(-2.0) ** 0.5`` complex.
    """
    if isinstance(e, Unary):
        (child,) = operands
        return f"(-{child})" if e.op == "neg" else f"{_NP_FUNCS[e.op]}({child})"
    left, right = operands
    if constant:
        left = f"_np.float64({left})"
    if e.op == "pow":
        cv = _cv(e.right)
        if cv in (3.0, 4.0):
            # libm pow costs up to 20x a multiply when bases straddle 0
            return "(" + " * ".join([left] * int(cv)) + ")"
        if cv is not None and float(cv).is_integer() and abs(cv) < 128:
            right = str(int(cv))
        return f"({left} ** {right})"
    return f"({left} {_BINARY_SYMBOLS[e.op]} {right})"


def _emit(e: Expression) -> tuple[str, bool]:
    """Source of ``e`` and whether it is free of variables."""
    if isinstance(e, Constant):
        return _const_code(e.value), True
    if isinstance(e, Variable):
        return e.name, False
    kids = [_emit(e.child)] if isinstance(e, Unary) else [_emit(e.left), _emit(e.right)]
    constant = all(c for _, c in kids)
    return _node_code(e, *(code for code, _ in kids), constant=constant), constant


def compile_expr(e: Expression) -> Callable[[Mapping[str, np.ndarray]], np.ndarray]:
    """Compile to a function of an environment dict; numpy semantics inside."""
    names = sorted(free_variables(e))
    lines = ["def _compiled(env):"]
    for nm in names:
        lines.append(f"    {nm} = env['{nm}']")
    lines.append(f"    return {_emit(e)[0]}")
    src = "\n".join(lines)
    namespace = {"_np": np}
    exec(compile(src, "<sdae-expr>", "exec"), namespace)
    fn = namespace["_compiled"]
    fn.expression = e
    return fn


# stages of a node in a kernel: no variables, only held-fixed variables, or a
# free variable somewhere below it
_CONST, _FIXED, _FREE = 0, 1, 2


class _SharedEmitter:
    """Prints a DAG of expressions as straight-line code, one line per distinct node.

    Nodes are looked up by ``id`` first, so a subtree reached twice through the
    same object costs one dict probe; distinct objects with equal structure
    meet in ``by_key``, whose keys hold the operator and the operands' source.
    Keying on source rather than on node equality keeps ``0.0`` and ``-0.0``
    apart, which compare equal but print (and multiply) differently.

    Each node also gets a stage: ``_CONST`` without variables, ``_FIXED`` when
    every variable below it is in ``fixed``, ``_FREE`` otherwise.  A staged
    kernel computes the first two stages once and the last per call.

    With ``arrays``, for kernels whose variables are float64 arrays, a
    literal operand of ``+ - * /`` beside a variable operand is printed as
    the name of a read-only 0-d float64 array in ``constants``, which the
    kernel's namespace binds.  Against a float64 array it gives the same
    float64 operation, and numpy applies it without converting a Python
    float on every call.
    """

    def __init__(self, fixed: frozenset[str] = frozenset(), arrays: bool = False):
        self.fixed = fixed
        self.arrays = arrays
        self.nodes: list[tuple[str, str, tuple[str, ...]]] = []  # (name, source, operands)
        self.names: set[str] = set()
        self.stage: dict[str, int] = {}  # source of every leaf and name of every node
        self.by_id: dict[int, str] = {}
        self.by_key: dict[tuple[str, ...], str] = {}
        self.literals: dict[str, float] = {}  # source of every literal -> its value
        self.constants: dict[str, np.ndarray] = {}  # name -> 0-d array
        self.constant_names: dict[str, str] = {}  # literal source -> name

    def _operand(self, kid: str) -> str:
        """``kid``'s source as a binary operand beside a variable one."""
        if not self.arrays or kid not in self.literals:
            return kid
        name = self.constant_names.get(kid)
        if name is None:
            name = self.constant_names[kid] = f"_k{len(self.constants)}"
            value = np.array(self.literals[kid])
            value.flags.writeable = False
            self.constants[name] = value
        return name

    def code(self, e: Expression) -> str:
        hit = self.by_id.get(id(e))
        if hit is not None:
            return hit
        if isinstance(e, Constant):
            out = _const_code(e.value)
            self.stage[out] = _CONST
            self.literals[out] = e.value
        elif isinstance(e, Variable):
            self.names.add(e.name)
            out = e.name
            self.stage[out] = _FIXED if e.name in self.fixed else _FREE
        else:
            kids = (self.code(e.child),) if isinstance(e, Unary) else (self.code(e.left), self.code(e.right))
            key = (e.op, *kids)
            out = self.by_key.get(key)
            if out is None:
                out = f"_t{len(self.by_key)}"
                self.by_key[key] = out
                stage = max(self.stage[k] for k in kids)
                self.stage[out] = stage
                printed = kids
                if stage != _CONST and e.op in _BINARY_SYMBOLS:
                    printed = tuple(self._operand(k) for k in kids)
                self.nodes.append((out, _node_code(e, *printed, constant=stage == _CONST), kids))
        self.by_id[id(e)] = out
        return out


def _nested_shape(value) -> tuple[int, ...]:
    if not isinstance(value, (list, tuple)):
        return ()
    if not value:
        return (0,)
    inner = _nested_shape(value[0])
    if any(_nested_shape(v) != inner for v in value[1:]):
        raise ValueError("kernel outputs must be rectangular nested lists")
    return (len(value),) + inner


def _nested_entries(value, index=()):
    if isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            yield from _nested_entries(v, index + (i,))
    else:
        yield index, value


def _assemble(em: _SharedEmitter, outputs: Mapping[str, object]):
    """Emit every output entry; returns (assignment lines, the source of the
    result dict, entry sources)."""
    assign: list[str] = []
    used: list[str] = []
    for k, (name, value) in enumerate(outputs.items()):
        shape = _nested_shape(value)
        assign.append(f"    _o{k} = _np.empty(batch + {shape!r})")
        for index, e in _nested_entries(value):
            where = ", ".join(["...", *map(str, index)])
            code = em.code(e)
            used.append(code)
            assign.append(f"    _o{k}[{where}] = {code}")
    result = ", ".join(f"{name!r}: _o{k}" for k, name in enumerate(outputs))
    return assign, f"{{{result}}}", used


def _exec(em: _SharedEmitter, lines: list[str], *names: str):
    namespace = {"_np": np, **em.constants}
    exec(compile("\n".join(lines), "<sdae-kernel>", "exec"), namespace)
    return tuple(namespace[nm] for nm in names)


def _generate(header: list[str], outputs: Mapping[str, object], bind, arrays: bool) -> Callable:
    """Compile ``header``, one line per variable from ``bind``, then the outputs."""
    em = _SharedEmitter(arrays=arrays)
    assign, result, _ = _assemble(em, outputs)
    lines = header + [f"    {nm} = {bind(nm)}" for nm in sorted(em.names)]
    lines += [f"    {out} = {src}" for out, src, _ in em.nodes] + assign + [f"    return {result}"]
    return _exec(em, lines, "_kernel")[0]


def _point_binder(labels: tuple[str, ...]):
    column = {lab: i for i, lab in enumerate(labels)}

    def bind(nm: str) -> str:
        if nm not in column:
            raise ValueError(f"kernel references '{nm}', which is not among the labels {labels}")
        return f"points[..., {column[nm]}]"

    return bind


_POINTS_HEADER = "    points = _np.asarray(points, dtype=float)"


def compile_kernel(
    labels: Iterable[str], outputs: Mapping[str, object]
) -> Callable[[np.ndarray], dict[str, np.ndarray]]:
    """Compile labelled output arrays into one numpy function of a point array.

    ``outputs`` maps a name to an expression, a vector (list of expressions),
    a matrix (list of rows) or any deeper rectangular nesting; an empty list
    has shape ``(0,)``.  The returned function takes ``points`` of shape
    ``(..., len(labels))``, column ``i`` holding variable ``labels[i]``, and
    returns a dict mapping each name to an array of shape
    ``points.shape[:-1] + nesting shape``.  Each distinct subtree across all
    outputs is computed once, with the same numpy operation on the same
    operands as :func:`compile_expr`, so every entry equals the per-entry
    evaluation bit for bit.
    """
    labels = tuple(labels)
    header = ["def _kernel(points):", _POINTS_HEADER, "    batch = points.shape[:-1]"]
    return _generate(header, outputs, _point_binder(labels), arrays=True)


def compile_staged(
    labels: Iterable[str], fixed: Iterable[str], outputs: Mapping[str, object]
) -> tuple[Callable[[np.ndarray], tuple], Callable[[tuple, np.ndarray], dict[str, np.ndarray]]]:
    """:func:`compile_kernel` split in two for callers that hold some labels fixed.

    Returns ``(prepare, finish)``.  ``prepare(points)`` computes, once, every
    node whose variables all lie in ``fixed`` and reads only those columns.
    ``finish(prepared, points)`` computes the remaining nodes and returns the
    same dict as the one-piece kernel; it may be called many times with the
    other columns changed, as a Newton solve for the free variables does.
    Both halves print each node as :func:`compile_kernel` does, so
    ``finish(prepare(p), p)`` equals ``compile_kernel(labels, outputs)(p)``
    bit for bit.
    """
    labels = tuple(labels)
    bind = _point_binder(labels)
    em = _SharedEmitter(frozenset(fixed), arrays=True)
    assign, result, entries = _assemble(em, outputs)
    pre = [(out, src, kids) for out, src, kids in em.nodes if em.stage[out] != _FREE]
    post = [(out, src, kids) for out, src, kids in em.nodes if em.stage[out] == _FREE]
    pre_used = {k for _, _, kids in pre for k in kids}
    post_used = {k for _, _, kids in post for k in kids} | set(entries)
    carried = [out for out, _, _ in pre if out in post_used]
    # the trailing comma keeps a single carried value a tuple
    pack = ", ".join(carried) + ("," if len(carried) == 1 else "")

    lines = ["def _prepare(points):", _POINTS_HEADER]
    lines += [f"    {nm} = {bind(nm)}" for nm in sorted(em.names & pre_used)]
    lines += [f"    {out} = {src}" for out, src, _ in pre] + [f"    return ({pack})"]
    lines += ["def _finish(prepared, points):", _POINTS_HEADER, "    batch = points.shape[:-1]"]
    if carried:
        lines.append(f"    {pack} = prepared")
    lines += [f"    {nm} = {bind(nm)}" for nm in sorted(em.names & post_used)]
    lines += [f"    {out} = {src}" for out, src, _ in post] + assign + [f"    return {result}"]
    return _exec(em, lines, "_prepare", "_finish")


def _closure(em: _SharedEmitter, roots: Iterable[str]) -> set[str]:
    """Names of the nodes that the sources ``roots`` read, themselves included."""
    kids = {out: operands for out, _, operands in em.nodes}
    need: set[str] = set()
    stack = list(roots)
    while stack:
        nm = stack.pop()
        if nm in kids and nm not in need:
            need.add(nm)
            stack.extend(kids[nm])
    return need


def compile_newton_step(
    labels: Iterable[str],
    unknown: str,
    residual: Expression,
    derivative: Expression,
    outputs: Mapping[str, object],
) -> Callable[[np.ndarray, np.ndarray], tuple]:
    """One scalar Newton update, its confirming residual and what follows it,
    as one generated numpy function.

    Returns ``step(points, u) -> (res, a, delta, u_new, res_new, after)``.
    ``points`` has shape ``(..., len(labels))`` and supplies every label but
    ``unknown``, whose value is ``u`` of shape ``(..., 1)``.  ``res`` (shape
    ``(..., 1)``) and ``a`` (shape ``(...)``) are ``residual`` and
    ``derivative`` at u, ``delta = res / a[..., None]``, ``u_new = u -
    delta``, ``res_new`` is the residual at u_new and ``after`` the dict
    :func:`compile_kernel` would give for ``outputs`` at the points with u_new.

    The nodes free of ``unknown`` are computed once; the others once at u
    and once at u_new, and at u_new only those the residual and ``outputs``
    read.  Every node is printed as :func:`compile_staged` prints it, and u
    is read from the unknown's column of a (..., N) scratch array, the
    layout of the copy of the points from which a staged Newton solve reads
    it, so each value equals that of ``finish`` at u and at u_new and of
    ``compile_kernel`` at u_new, bit for bit.
    """
    labels = tuple(labels)
    bind = _point_binder(labels)
    bind(unknown)  # refuses an unknown that is not a label
    col = labels.index(unknown)
    em = _SharedEmitter(frozenset(labels) - {unknown}, arrays=True)
    res, jac = em.code(residual), em.code(derivative)
    assign, result, entries = _assemble(em, outputs)
    first = _closure(em, [res, jac])
    second = _closure(em, [res, *entries])

    def nodes(need: set[str], free: bool) -> list[str]:
        return [f"    {out} = {src}" for out, src, _ in em.nodes
                if out in need and (em.stage[out] == _FREE) == free]

    def array(name: str, code: str, column: bool) -> list[str]:
        """``name`` = the value of ``code`` as an array of the batch shape,
        plus a trailing axis of 1 with ``column``: a view of a node's own
        array, or a new array for a constant or a variable (a variable
        views the points or the scratch)."""
        if code not in em.names and em.stage[code] != _CONST:
            return [f"    {name} = {code}{'[..., None]' if column else ''}"]
        if column:
            return [f"    {name} = _np.empty(batch + (1,))", f"    {name}[..., 0] = {code}"]
        return [f"    {name} = _np.empty(batch)", f"    {name}[...] = {code}"]

    lines = ["def _step(points, u):", "    points = _np.asarray(points, dtype=float)",
             "    batch = points.shape[:-1]"]
    lines += [f"    {nm} = {bind(nm)}" for nm in sorted(em.names - {unknown})]
    lines += nodes(first | second, False)
    # u is read from a column of a (..., N) scratch, as a staged solve reads
    # it from its copy of the points; the view follows the write of u_new
    lines += ["    _p = _np.empty(points.shape)", f"    _p[..., {col}:{col + 1}] = u",
              f"    {unknown} = _p[..., {col}]"]
    lines += nodes(first, True)
    lines += array("_res", res, True) + array("_a", jac, False)
    lines += ["    _delta = _res / _a[..., None]", "    _u = u - _delta",
              f"    _p[..., {col}:{col + 1}] = _u"]
    lines += nodes(second, True) + array("_res_new", res, True)
    lines += assign + [f"    return _res, _a, _delta, _u, _res_new, {result}"]
    return _exec(em, lines, "_step")[0]


def _compile_env_kernel(value) -> Callable[[Mapping[str, np.ndarray], tuple[int, ...]], dict[str, np.ndarray]]:
    return _generate(["def _kernel(env, batch):"], {"out": value}, lambda nm: f"env['{nm}']",
                     arrays=False)


class CompiledVector:
    """Vector of expressions evaluated against a shared environment."""

    def __init__(self, exprs: Iterable[Expression]):
        self.exprs = list(exprs)
        self._kernel = _compile_env_kernel(self.exprs)
        self.size = len(self.exprs)

    def __call__(self, env: Mapping[str, np.ndarray], batch_shape: tuple[int, ...]) -> np.ndarray:
        return self._kernel(env, tuple(batch_shape))["out"]


class CompiledMatrix:
    """Matrix of expressions evaluated against a shared environment."""

    def __init__(self, rows: Iterable[Iterable[Expression]]):
        self.exprs = [list(r) for r in rows]
        self.shape = (len(self.exprs), len(self.exprs[0]) if self.exprs else 0)
        self._kernel = _compile_env_kernel(self.exprs)

    def __call__(self, env: Mapping[str, np.ndarray], batch_shape: tuple[int, ...]) -> np.ndarray:
        return self._kernel(env, tuple(batch_shape))["out"]


def make_env(labels: Iterable[str], points: np.ndarray) -> dict[str, np.ndarray]:
    """Build an evaluation environment from coordinate columns.

    ``points`` has shape ``(..., N)`` with one column per label.
    """
    points = np.asarray(points, dtype=float)
    return {lab: points[..., i] for i, lab in enumerate(labels)}
