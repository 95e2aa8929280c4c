"""Expression DSL: parsing, printing, differentiation, evaluation, compilation."""

import copy
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import central_fd, random_points
from sdaekit.errors import (
    EvaluationDomainError,
    ExpressionParseError,
    MissingBindingError,
)
from sdaekit.expr import (
    UNARY_FUNCTIONS,
    Binary,
    Constant,
    Unary,
    Variable,
    compile_expr,
    compile_kernel,
    compile_newton_step,
    compile_staged,
    differentiate,
    evaluate,
    free_variables,
    parse,
    substitute,
    to_text,
)

CONSTRAINT_TEXT = "2*x1 - x1^3 - 0.5*sin(4*x2)"


class TestParse:
    def test_paper_constraint_shape(self):
        e = parse(CONSTRAINT_TEXT)
        assert isinstance(e, Binary) and e.op == "sub"
        assert evaluate(e, {"x1": 0.0, "x2": 0.0}) == 0.0

    def test_single_variable(self):
        assert parse("x1") == Variable("x1")

    def test_unary_minus_binds_below_pow(self):
        e = parse("-(u1)^2")
        assert e == Unary("neg", Binary("pow", Variable("u1"), Constant(2.0)))
        # explicit parens around the negation flip the meaning
        e2 = parse("(-u1)^2")
        assert e2 == Binary("pow", Unary("neg", Variable("u1")), Constant(2.0))

    def test_pow_right_associative(self):
        e = parse("x1^x2^u1")
        assert e == Binary(
            "pow", Variable("x1"), Binary("pow", Variable("x2"), Variable("u1"))
        )

    def test_scientific_numbers(self):
        assert parse("1.5e-3") == Constant(1.5e-3)
        assert parse(".25") == Constant(0.25)

    def test_syntax_error_has_offset(self):
        with pytest.raises(ExpressionParseError) as ei:
            parse("x1 + $")
        assert ei.value.offset == 5

    def test_unknown_function(self):
        with pytest.raises(ExpressionParseError, match="unknown function"):
            parse("sinh(x1)")

    def test_unknown_variable_name(self):
        with pytest.raises(ExpressionParseError, match="unknown variable"):
            parse("x1 + foo")

    def test_missing_close_paren(self):
        with pytest.raises(ExpressionParseError):
            parse("sin(x1")

    def test_trailing_garbage(self):
        with pytest.raises(ExpressionParseError):
            parse("x1 x2")


class TestPrintRoundTrip:
    EXPRS = [
        CONSTRAINT_TEXT,
        "-(u1)^2",
        "(-u1)^2",
        "x1^x2^u1",
        "(x1 + u1)*(x1 - u1)",
        "x1/(x2*u1)",
        "x1 - (x2 - u1)",
        "exp(-x1) + log(x1 + 3)",
        "sqrt(x1^2 + 1)/atan(u1)",
        "tan(x1) - cos(x2)*sin(u1)",
        "2^-x1",
        "-x1^2 - -x2",
    ]

    @pytest.mark.parametrize("text", EXPRS)
    def test_ast_exact_round_trip(self, text):
        e = parse(text)
        assert parse(to_text(e)) == e

    @pytest.mark.parametrize("text", EXPRS)
    def test_value_round_trip(self, text):
        e = parse(text)
        e2 = parse(to_text(e))
        for pt in random_points(e, 100, 0.1, 2.0, seed=7):
            a, b = evaluate(e, pt), evaluate(e2, pt)
            assert a == pytest.approx(b, rel=1e-12)


class TestDifferentiate:
    def test_paper_constraint_dx1(self):
        e = parse(CONSTRAINT_TEXT)
        d = differentiate(e, "x1")
        ref = parse("2 - 3*x1^2")
        for pt in random_points({"x1", "x2"}, 50, -2, 2, seed=1):
            assert evaluate(d, pt) == pytest.approx(evaluate(ref, pt), abs=1e-12)

    def test_paper_constraint_dx2(self):
        e = parse(CONSTRAINT_TEXT)
        d = differentiate(e, "x2")
        ref = parse("-2*cos(4*x2)")
        for pt in random_points({"x1", "x2"}, 50, -2, 2, seed=2):
            assert evaluate(d, pt) == pytest.approx(evaluate(ref, pt), abs=1e-12)

    def test_derivative_wrt_absent_variable(self):
        assert differentiate(parse("x1 + x1^2"), "u1") == Constant(0.0)

    def test_derivative_of_constant(self):
        for c in (0.0, -3.5, 2.0e8):
            for v in ("x1", "u2", "t"):
                assert differentiate(Constant(c), v) == Constant(0.0)

    @pytest.mark.parametrize(
        "text,lo",
        [
            (CONSTRAINT_TEXT, -2.0),
            ("x1 + x1^2 + u1", -2.0),
            ("exp(x1)*sin(x2)", -2.0),
            ("log(x1 + 3)/sqrt(u1 + 3)", -2.0),
            ("atan(x1*x2)", -2.0),
            ("tan(x1/4)", -2.0),
            ("x1^u1", 0.1),  # general power needs a positive base
            ("u1 - x1", -2.0),
            ("(2 - 3*x1^2)*(x1 + x1^2 + u1)", -2.0),
        ],
    )
    def test_against_finite_differences(self, text, lo):
        e = parse(text)
        for name in sorted(free_variables(e)):
            d = differentiate(e, name)
            for pt in random_points(e, 100, lo, 2, seed=11):
                exact = evaluate(d, pt)
                fd = central_fd(e, name, pt)
                assert abs(exact - fd) <= 1e-6 * (1.0 + abs(exact))


class TestEvaluate:
    def test_direct_arithmetic(self):
        assert evaluate(parse("2 - 3*x1^2"), {"x1": -2.0}) == -10.0
        assert evaluate(parse("1/(2 - 3*x1^2)"), {"x1": 1.0}) == -1.0

    def test_missing_binding(self):
        with pytest.raises(MissingBindingError):
            evaluate(parse("x1 + u1"), {"x1": 1.0})

    def test_domain_errors_name_the_node(self):
        with pytest.raises(EvaluationDomainError, match="log"):
            evaluate(parse("log(x1)"), {"x1": -1.0})
        with pytest.raises(EvaluationDomainError, match="division"):
            evaluate(parse("1/x1"), {"x1": 0.0})
        with pytest.raises(EvaluationDomainError, match="sqrt"):
            evaluate(parse("sqrt(x1)"), {"x1": -4.0})
        with pytest.raises(EvaluationDomainError, match="exponent"):
            evaluate(parse("x1^0.5"), {"x1": -2.0})

    def test_integer_exponent_on_negative_base_ok(self):
        assert evaluate(parse("x1^3"), {"x1": -2.0}) == -8.0


class TestFolding:
    def test_zero_and_one_products(self):
        assert differentiate(parse("u1*x1"), "u1") == Variable("x1")
        assert parse("0*sin(x1) + x2") == Variable("x2")
        assert parse("1*x1") == Variable("x1")

    def test_constants_fold(self):
        assert parse("2*3 + 1") == Constant(7.0)
        assert parse("2^3") == Constant(8.0)

    def test_integer_exponents_preserved(self):
        e = parse("x1^3")
        assert e.right == Constant(3.0)
        assert to_text(e) == "x1^3"

    @pytest.mark.parametrize(
        "text, at_zero",
        [
            ("1e999 - 1e999", math.nan),
            ("-1e999 + 1e999", math.nan),
            ("0*1e999", math.nan),
            ("1e999/1e999 + x1", math.nan),
            ("1e308*10 + x1", math.inf),
            ("2*(1e308*x1)", 0.0),
            ("(x1*1e308)*2", 0.0),
        ],
    )
    def test_no_fold_to_inf_or_nan(self, text, at_zero):
        """Constants whose sum, difference, product or quotient is inf or nan
        stay unfolded, as in pow_ and func: the text round-trips through
        parse (nan has no parseable text), and at x1 = 0 the expression has
        the value its text has (inf*x1 would be nan there)."""
        e = parse(text)
        assert parse(to_text(e)) == e
        assert repr(evaluate(e, {"x1": 0.0})) == repr(at_zero)


class TestSubstitute:
    def test_compose(self):
        g = parse("2*x1 - x1^3")
        y = parse("-(0.02)*atan(u1)")
        comp = substitute(g, {"x1": y})
        for pt in random_points({"u1"}, 20, -3, 3, seed=3):
            y_val = evaluate(y, pt)
            assert evaluate(comp, pt) == pytest.approx(
                2 * y_val - y_val**3, rel=1e-14
            )


class TestCompile:
    @pytest.mark.parametrize(
        "text",
        [CONSTRAINT_TEXT, "exp(x1)*atan(u1)", "x1^3 - u1/x2", "sqrt(x1 + 5)"],
    )
    def test_matches_scalar_evaluate(self, text):
        e = parse(text)
        fn = compile_expr(e)
        for pt in random_points(e, 50, 0.5, 2.0, seed=5):
            env = {k: np.float64(v) for k, v in pt.items()}
            assert float(fn(env)) == pytest.approx(evaluate(e, pt), rel=1e-15)

    def test_vectorised_evaluation(self):
        e = parse(CONSTRAINT_TEXT)
        fn = compile_expr(e)
        x1 = np.linspace(-2, 2, 17)
        x2 = np.linspace(-5, 5, 17)
        got = fn({"x1": x1, "x2": x2})
        want = np.array([evaluate(e, {"x1": a, "x2": b}) for a, b in zip(x1, x2)])
        np.testing.assert_array_equal(got, want)

    def test_out_of_domain_yields_nonfinite(self):
        fn = compile_expr(parse("log(x1)"))
        with np.errstate(all="ignore"):
            val = fn({"x1": np.float64(-1.0)})
        assert not np.isfinite(val)

    def test_negative_constant_base_stays_the_base(self):
        e = Binary("pow", Constant(-2.0), Variable("x1"))
        got = compile_expr(e)({"x1": np.array([2.0, 3.0])})
        np.testing.assert_array_equal(got, [4.0, -8.0])

    def test_non_finite_constant_compiles(self):
        e = parse("1e999*x1")
        got = compile_expr(e)({"x1": np.array([2.0])})
        np.testing.assert_array_equal(got, [math.inf])


# ---------------------------------------------------------------------------
# compile_kernel against per-entry compile_expr evaluation
# ---------------------------------------------------------------------------

# numpy < 1.25 has no np.exceptions
ComplexWarning = getattr(np, "exceptions", np).ComplexWarning

KERNEL_LABELS = ("x1", "x2", "u1")
KERNEL_LEAVES = [Variable(nm) for nm in KERNEL_LABELS] + [
    Constant(v) for v in (0.0, -0.0, 1.0, -2.0, 0.5, 3.0, 1e-3)
]


@st.composite
def shared_dags(draw):
    """A vector and a matrix whose entries share subtrees of one random DAG.

    Nodes pick their operands from everything built so far, so subtrees are
    reused by object; deep copies add structurally equal distinct objects, and
    swaps add the mirror image of an earlier operation (b - a beside a - b).
    Operations on constants alone are kept too (the constructors below do not
    fold): they must give nan or inf, never raise or go complex.
    """
    pool = list(KERNEL_LEAVES)

    def pick():
        return pool[draw(st.integers(0, len(pool) - 1))]

    for _ in range(draw(st.integers(1, 30))):
        kind = draw(st.sampled_from(("unary", "binary", "copy", "swap")))
        if kind == "unary":
            node = Unary(draw(st.sampled_from(("neg",) + UNARY_FUNCTIONS)), pick())
        elif kind == "binary":
            op = draw(st.sampled_from(("add", "sub", "mul", "div", "pow")))
            node = Binary(op, pick(), pick())
        elif kind == "copy":
            node = copy.deepcopy(pick())
        else:
            node = pick()
            if isinstance(node, Binary):
                node = Binary(node.op, node.right, node.left)
        pool.append(node)
    vector = [pick() for _ in range(draw(st.integers(1, 4)))]
    matrix = [[pick(), pick()] for _ in range(draw(st.integers(1, 3)))]
    return vector, matrix


def tree_size(e, memo):
    """Nodes of e written out as a tree: what to_text spells out."""
    if id(e) not in memo:
        children = [e.child] if isinstance(e, Unary) else (
            [e.left, e.right] if isinstance(e, Binary) else [])
        memo[id(e)] = 1 + sum(tree_size(c, memo) for c in children)
    return memo[id(e)]


@settings(max_examples=300, deadline=None, database=None)
@given(dag=shared_dags())
def test_print_parse_round_trip_on_random_dags(dag):
    """parse(to_text(e)) == e, to the sign and bits of every constant
    (repr tells -0.0 from 0.0), for e the parse of a random entry's text.

    The entries are built without folding; parsing folds, so only a parsed
    expression can come back from parse unchanged."""
    vector, matrix = dag
    memo = {}
    for entry in [*vector, *(e for row in matrix for e in row)]:
        if tree_size(entry, memo) > 2000:  # the text of a deep DAG grows exponentially
            continue
        e = parse(to_text(entry))
        assert repr(parse(to_text(e))) == repr(e)


def _finite_value(thunk):
    """thunk(), or None where it raises or is not finite."""
    try:
        v = thunk()
    except (EvaluationDomainError, ValueError, ArithmeticError):
        return None
    return v if math.isfinite(v) else None


FD_STEPS = (1e-6, 1.25e-6, 1.5e-6, 2e-6)


@settings(max_examples=200, deadline=None, database=None)
@given(dag=shared_dags(), seed=st.integers(0, 2**32 - 1))
def test_derivatives_match_finite_differences_on_random_dags(dag, seed):
    """The derivative of a random entry by each of its variables agrees with
    central differences at a random point where both are finite.

    The differences are taken at steps h to 2h.  Their truncation error grows
    as the step squared, so their spread bounds it at h, and rounding noise
    shows in it too: near a pole or a cancellation the check loosens instead
    of failing.  The point is drawn uniformly, not by hypothesis, which
    favours zero and equal coordinates, where sqrt(x1^2) has its kink."""
    vector, matrix = dag
    point = random_points(KERNEL_LABELS, 1, -3.0, 3.0, seed)[0]
    memo = {}
    for entry in [*vector, *(e for row in matrix for e in row)]:
        if tree_size(entry, memo) > 60:  # keeps the scalar evaluations cheap
            continue
        for name in sorted(free_variables(entry)):
            exact = _finite_value(lambda: evaluate(differentiate(entry, name), point))
            fds = [_finite_value(lambda: central_fd(entry, name, point, step)) for step in FD_STEPS]
            if exact is None or None in fds:
                continue
            spread = max(fds) - min(fds)
            assert abs(exact - fds[0]) <= 4 * spread + 1e-6 * (1 + abs(exact)), (
                to_text(entry), name, point, exact, fds)


@pytest.mark.parametrize("value, text", [(-0.0, "-0"), (math.inf, "1e999"), (-math.inf, "-1e999")])
def test_signed_zero_and_infinite_constants_print_parseably(value, text):
    for e in (Constant(value), Binary("div", Variable("x1"), Constant(value))):
        assert repr(parse(to_text(e))) == repr(e)
    assert to_text(Constant(value)) == text


kernel_points = st.lists(
    st.lists(
        st.one_of(
            st.floats(-4.0, 4.0),
            st.sampled_from((0.0, -0.0, -1.0, 1e-300)),
        ),
        min_size=3,
        max_size=3,
    ),
    min_size=1,
    max_size=6,
)


def _per_entry(rows, env, batch):
    """The reference: one compile_expr closure per entry, as in the old hot path."""
    rows = np.asarray(rows, dtype=object)
    out = np.empty(batch + rows.shape)
    for index in np.ndindex(rows.shape):
        out[(Ellipsis, *index)] = compile_expr(rows[index])(env)
    return out


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@settings(max_examples=300, deadline=None, database=None)
@given(dag=shared_dags(), points=kernel_points)
def test_kernel_matches_per_entry_evaluation_bitwise(dag, points):
    vector, matrix = dag
    pts = np.array(points, dtype=float)
    env = {nm: pts[..., i] for i, nm in enumerate(KERNEL_LABELS)}
    batch = pts.shape[:-1]
    kernel = compile_kernel(KERNEL_LABELS, {"v": vector, "m": matrix})
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error", ComplexWarning)
        got = kernel(pts)
        want_v = _per_entry(vector, env, batch)
        want_m = _per_entry(matrix, env, batch)
    assert _same_bits(got["v"], want_v)  # nan and inf in the same places, same bits
    assert _same_bits(got["m"], want_m)


@settings(max_examples=200, deadline=None, database=None)
@given(
    dag=shared_dags(),
    points=kernel_points,
    fixed=st.lists(st.sampled_from(KERNEL_LABELS), unique=True),
)
def test_staged_kernel_matches_one_piece_kernel_bitwise(dag, points, fixed):
    vector, matrix = dag
    pts = np.array(points, dtype=float)
    outputs = {"v": vector, "m": matrix}
    prepare, finish = compile_staged(KERNEL_LABELS, fixed, outputs)
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error", ComplexWarning)
        want = compile_kernel(KERNEL_LABELS, outputs)(pts)
        # prepare sees only the fixed columns: the others are garbage there
        garbage = pts.copy()
        for i, nm in enumerate(KERNEL_LABELS):
            if nm not in fixed:
                garbage[..., i] = np.nan
        prepared = prepare(garbage)
        got = finish(prepared, pts)
        again = finish(prepared, pts)  # prepared values are reusable
    for name in outputs:
        assert _same_bits(got[name], want[name])
        assert _same_bits(again[name], want[name])


@settings(max_examples=200, deadline=None, database=None)
@given(dag=shared_dags(), points=kernel_points)
def test_newton_step_matches_the_staged_solve_bitwise(dag, points):
    """Residual, derivative and outputs drawn from one random DAG (so each
    may be a node, a variable, the unknown itself or a constant): the fused
    step's values equal ``finish`` at u and at the update, and the outputs
    ``compile_kernel`` at the updated points."""
    vector, matrix = dag
    residual, derivative = vector[0], matrix[0][0]
    outputs = {"v": vector[1:], "m": matrix}
    pts = np.array(points, dtype=float)
    u = pts[:, 2:].copy()
    step = compile_newton_step(KERNEL_LABELS, "u1", residual, derivative, outputs)
    prepare, finish = compile_staged(KERNEL_LABELS, ("x1", "x2"),
                                     {"res": [residual], "jac": [[derivative]]})
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error", ComplexWarning)
        res, a, delta, u_new, res_new, after = step(pts, u)
        prepared, scratch = prepare(pts), pts.copy()  # the staged solve's copy
        at_u = finish(prepared, scratch)
        want_delta = at_u["res"] / at_u["jac"][:, 0, 0][:, None]
        scratch[:, 2:] = u - want_delta
        at_new = finish(prepared, scratch)
        want_after = compile_kernel(KERNEL_LABELS, outputs)(scratch)
    assert _same_bits(res, at_u["res"]) and _same_bits(a, at_u["jac"][:, 0, 0])
    assert _same_bits(delta, want_delta) and _same_bits(u_new, scratch[:, 2:])
    assert _same_bits(res_new, at_new["res"])
    for name in outputs:
        assert _same_bits(after[name], want_after[name])
    assert _same_bits(pts[:, 2:], u)  # the caller's points are not written


def test_newton_step_computes_the_free_nodes_twice_and_the_rest_once():
    h = parse("(2 - 3*x1^2)*(x1 + u1) + sin(x1)")
    step = compile_newton_step(("x1", "u1"), "u1", h, parse("2 - 3*x1^2"),
                               {"f": [parse("x1 + u1")]})
    source = step.__code__.co_names + step.__code__.co_varnames
    # x1^2, 3*x1^2, 2 - 3*x1^2 and sin(x1) once; x1 + u1, the product and
    # the sum at u and again at the update, under the same three names
    assert sum(nm.startswith("_t") for nm in step.__code__.co_varnames) == 7
    assert "sin" in source
    pts = np.array([[0.5, 2.0], [-0.2, 3.0]])
    res, a, delta, u_new, res_new, after = step(pts, pts[:, 1:])
    np.testing.assert_array_equal(after["f"][:, 0], pts[:, 0] + u_new[:, 0])
    assert np.abs(res_new).max() < 1e-12


def test_staged_kernel_splits_by_fixed_labels():
    prepare, finish = compile_staged(
        ("x1", "u1"), ("x1",), {"h": [parse("(2 - 3*x1^2)*u1 + x1^3")]}
    )
    # x1^2, 3*x1^2, 2 - 3*x1^2 and x1^3 once per prepare; finish receives the
    # two of them it needs and computes the product and the sum
    assert sum(nm.startswith("_t") for nm in prepare.__code__.co_varnames) == 4
    assert sum(nm.startswith("_t") for nm in finish.__code__.co_varnames) == 4
    pts = np.array([[0.5, 2.0], [-1.0, 3.0]])
    got = finish(prepare(pts), pts)["h"]
    np.testing.assert_array_equal(got[:, 0], (2 - 3 * pts[:, 0] ** 2) * pts[:, 1] + pts[:, 0] ** 3)


@pytest.mark.parametrize(
    "text, want",
    [
        ("(-2)^0.5*x1", math.nan),
        ("(-8)^(1/3)*x1", math.nan),
        ("0^(-1)*x1", math.inf),
        ("1/0*x1", math.inf),
        ("(0/0)+x1", math.nan),
    ],
)
def test_constant_only_nodes_follow_numpy(text, want):
    e = parse(text)
    pts = np.array([[2.0], [3.0]])
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error", ComplexWarning)
        kernel = compile_kernel(("x1",), {"v": e})(pts)["v"]
        single = compile_expr(e)({"x1": pts[:, 0]})
    np.testing.assert_array_equal(kernel, [want, want])
    np.testing.assert_array_equal(single, [want, want])


def test_kernels_without_constant_only_nodes_print_plain_operations():
    kernel = compile_kernel(("x1",), {"v": parse("(-2)^x1 + 0.5*x1")})
    assert "float64" not in kernel.__code__.co_names


def test_kernel_computes_each_distinct_subtree_once():
    shared = parse("sin(x1)*exp(u1)")
    twin = parse("sin(x1)*exp(u1)")  # equal structure, distinct objects
    kernel = compile_kernel(("x1", "u1"), {"v": [shared, Binary("add", shared, twin)]})
    code = kernel.__code__
    # one name per distinct operation: sin, exp, mul, add
    assert sum(nm.startswith("_t") for nm in code.co_varnames) == 4


def test_kernel_keeps_signed_zero_constants_apart():
    e_pos = Binary("div", Constant(1.0), Binary("mul", Variable("x1"), Constant(0.0)))
    e_neg = Binary("div", Constant(1.0), Binary("mul", Variable("x1"), Constant(-0.0)))
    with np.errstate(all="ignore"):
        out = compile_kernel(("x1",), {"v": [e_pos, e_neg]})(np.array([[1.0]]))["v"]
    np.testing.assert_array_equal(out, [[math.inf, -math.inf]])


def test_kernel_rejects_unknown_variable():
    with pytest.raises(ValueError, match="u1"):
        compile_kernel(("x1",), {"v": [parse("x1 + u1")]})


def test_expressions_are_immutable():
    e = parse("x1 + 1")
    with pytest.raises(Exception):
        e.left = Constant(5.0)  # frozen dataclass
    assert hash(e) == hash(parse("x1 + 1"))


# ---------------------------------------------------------------------------
# Integer powers 3 and 4 compile to multiply chains, not libm pow
# ---------------------------------------------------------------------------


def _power_kernel(k):
    return compile_kernel(("x1",), {"v": parse(f"x1^{k}")})


@pytest.mark.parametrize("k", [3, 4])
def test_power_chain_is_a_left_to_right_product(k):
    rng = np.random.default_rng(k)
    x = rng.uniform(-3.0, 3.0, 1000)
    chain = x * x * x if k == 3 else x * x * x * x
    assert _same_bits(compile_expr(parse(f"x1^{k}"))({"x1": x}), chain)
    assert _same_bits(_power_kernel(k)(x[:, None])["v"], chain)


@pytest.mark.parametrize("k", [3, 4])
def test_power_chain_within_two_ulp_of_pow(k):
    rng = np.random.default_rng(17)
    x = rng.standard_normal(10**6) * np.exp(rng.uniform(-60.0, 60.0, 10**6))
    got = _power_kernel(k)(x[:, None])["v"]
    want = x**k
    assert np.all(np.isfinite(want))
    ulps = np.abs(got - want) / np.spacing(np.abs(want))
    assert ulps.max() <= 2.0


@pytest.mark.parametrize("k", [3, 4])
def test_power_chain_matches_pow_on_special_values(k):
    x = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 1e200, -1e200, 1e-200, -1e-200])
    with np.errstate(all="ignore"):
        got = _power_kernel(k)(x[:, None])["v"]
        want = x**k
    assert _same_bits(got, want)


def test_other_integer_powers_keep_pow():
    kernel = compile_kernel(("x1",), {"v": [parse("x1^2"), parse("x1^5"), parse("x1^-3")]})
    x = np.array([[-1.7], [0.3]])
    out = kernel(x)["v"]
    assert _same_bits(out, np.stack([x[:, 0] ** 2, x[:, 0] ** 5, x[:, 0] ** -3], axis=-1))
