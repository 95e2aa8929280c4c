"""SDAE problem container, validation, classification and the builtin registry.

A problem couples the state equation

    dx = f(x, u) dt + sigma(x, u) dW_t

with the (possibly noisy) algebraic constraint

    g(x, u) + integral of Gamma(x, u) dW_s = 0.

Problems are autonomous by construction: the literal variable ``t`` is
rejected everywhere.  A non-autonomous system must be suspended by the user
with an extra state whose drift is 1, which keeps the problem file the single
source of truth.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from . import expr
from .errors import (
    DimensionMismatchError,
    MethodPreconditionError,
    ProblemFormatError,
    UnknownBuiltinError,
)
from .expr import Expression, free_variables, parse, to_text

__all__ = [
    "SdaeProblem",
    "ProblemKind",
    "Verdict",
    "Classification",
    "classify",
    "load_problem",
    "load_problem_file",
    "print_problem",
    "builtin",
    "builtin_names",
    "CONSISTENCY_TOL",
    "SINGULAR_TOL",
    "regular",
]

CONSISTENCY_TOL = 1e-8
SINGULAR_TOL = 1e-8


def regular(det):
    """The one singularity rule, elementwise: det is finite and |det| > SINGULAR_TOL."""
    return np.isfinite(det) & (np.abs(det) > SINGULAR_TOL)


class ProblemKind(enum.Enum):
    INDEX1 = "index-1"
    HIGH_INDEX = "high-index"


class Verdict(enum.Enum):
    ILL_POSED = "ill-posed"
    NOT_ILL_POSED_AT_SAMPLES = "not-ill-posed-at-samples"
    INAPPLICABLE = "inapplicable"


@dataclass
class SdaeProblem:
    """An explicit SDAE with fixed dimensions and symbolic coefficients."""

    n: int
    m: int
    p: int
    d: int
    f: list[Expression]  # n drift components in (x, u)
    sigma: list[list[Expression]]  # n x d diffusion matrix
    g: list[Expression]  # p constraint rows
    gamma: list[list[Expression]]  # p x d constraint-noise matrix
    x0: np.ndarray
    u0_guess: np.ndarray
    name: str = ""
    _constraint_kernels: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=float).reshape(-1)
        self.u0_guess = np.asarray(self.u0_guess, dtype=float).reshape(-1)
        self._validate()

    # -- structural checks --------------------------------------------------

    def _validate(self) -> None:
        if min(self.n, self.m, self.p) < 1 or self.d < 0:
            raise DimensionMismatchError(
                f"dimensions must satisfy n,m,p >= 1 and d >= 0; got "
                f"n={self.n} m={self.m} p={self.p} d={self.d}"
            )
        if len(self.f) != self.n:
            raise DimensionMismatchError(
                f"drift has {len(self.f)} rows, state dimension is {self.n}"
            )
        for label, mat, rows in (("diffusion", self.sigma, self.n), ("constraint_noise", self.gamma, self.p)):
            if len(mat) != rows or any(len(r) != self.d for r in mat):
                raise DimensionMismatchError(
                    f"{label} must be {rows}x{self.d}"
                )
        if len(self.g) != self.p:
            raise DimensionMismatchError(
                f"constraint has {len(self.g)} rows, declared p={self.p}"
            )
        if self.x0.shape != (self.n,) or self.u0_guess.shape != (self.m,):
            raise DimensionMismatchError(
                f"initial condition shapes {self.x0.shape}/{self.u0_guess.shape} "
                f"do not match (n={self.n}, m={self.m})"
            )
        if not (np.isfinite(self.x0).all() and np.isfinite(self.u0_guess).all()):
            raise ProblemFormatError(
                f"initial values must be finite; got x = {self.x0}, u = {self.u0_guess}"
            )
        allowed = set(self.x_labels) | set(self.u_labels)
        for where, e in self._all_expressions():
            for nm in free_variables(e):
                if nm == "t":
                    raise ProblemFormatError(
                        f"{where} references 't'; problems must be autonomous. "
                        "Suspend time as an extra state with drift 1 instead."
                    )
                if nm not in allowed:
                    raise ProblemFormatError(
                        f"{where} references '{nm}' outside the declared "
                        f"ranges x1..x{self.n}, u1..u{self.m}"
                    )

    def _all_expressions(self):
        for i, e in enumerate(self.f):
            yield f"drift row {i + 1}", e
        for i, row in enumerate(self.sigma):
            for j, e in enumerate(row):
                yield f"diffusion entry ({i + 1},{j + 1})", e
        for i, e in enumerate(self.g):
            yield f"constraint row {i + 1}", e
        for i, row in enumerate(self.gamma):
            for j, e in enumerate(row):
                yield f"constraint-noise entry ({i + 1},{j + 1})", e

    # -- convenience --------------------------------------------------------

    @property
    def x_labels(self) -> tuple[str, ...]:
        return tuple(f"x{i + 1}" for i in range(self.n))

    @property
    def u_labels(self) -> tuple[str, ...]:
        return tuple(f"u{i + 1}" for i in range(self.m))

    @property
    def labels(self) -> tuple[str, ...]:
        return self.x_labels + self.u_labels

    def init_point(self) -> np.ndarray:
        return np.concatenate([self.x0, self.u0_guess])

    def init_env(self) -> dict[str, float]:
        return dict(zip(self.labels, self.init_point().tolist()))

    def constraint_references_u(self) -> bool:
        u_set = set(self.u_labels)
        rows = list(self.g) + [e for row in self.gamma for e in row]
        return any(free_variables(e) & u_set for e in rows)

    def sigma_references_u(self) -> bool:
        u_set = set(self.u_labels)
        return any(free_variables(e) & u_set for row in self.sigma for e in row)

    def gamma_is_zero(self) -> bool:
        return all(
            isinstance(e, expr.Constant) and e.value == 0.0
            for row in self.gamma
            for e in row
        )

    def constraint_kernel(self, labels: Iterable[str]) -> Callable[[np.ndarray], dict]:
        """g and Gamma as one kernel over points whose columns are ``labels``.

        Built on first use for each label tuple and kept, so evaluating the
        constraint along many paths compiles it once.
        """
        labels = tuple(labels)
        kernel = self._constraint_kernels.get(labels)
        if kernel is None:
            kernel = expr.compile_kernel(labels, {"g": self.g, "gamma": self.gamma})
            self._constraint_kernels[labels] = kernel
        return kernel

    def constraint_values(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        point = np.concatenate([np.atleast_1d(x), np.atleast_1d(u)])
        env = dict(zip(self.labels, point.tolist()))
        return np.array([expr.evaluate(e, env) for e in self.g])

    def require_consistent_init(self) -> None:
        """Refuse an initial point off the constraint: |g(x0, u0)|_inf > CONSISTENCY_TOL."""
        resid = float(np.linalg.norm(self.constraint_values(self.x0, self.u0_guess), ord=np.inf))
        if not resid <= CONSISTENCY_TOL:
            raise MethodPreconditionError(
                f"initial condition violates the constraint: |g(x0, u0)| = "
                f"{resid:.3e} > {CONSISTENCY_TOL:.1e}"
            )


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


@dataclass
class Classification:
    kind: ProblemKind
    unsdae: bool
    ill_posed_verdict: Verdict
    det_dug_at_init: float
    max_tangency_residual: float | None = None
    tangency_argmax: np.ndarray | None = None
    notes: tuple[str, ...] = ()

    def summary(self) -> str:
        parts = [self.kind.value]
        if self.unsdae:
            parts.append("UNSDAE")
        if self.ill_posed_verdict is Verdict.ILL_POSED:
            at = ", ".join(f"{c:g}" for c in self.tangency_argmax)
            parts.append(
                f"ill-posed (max residual {self.max_tangency_residual:.1e} at ({at}))"
            )
        elif self.ill_posed_verdict is Verdict.NOT_ILL_POSED_AT_SAMPLES:
            parts.append("not-ill-posed-at-samples")
        if self.kind is ProblemKind.INDEX1 and np.isfinite(self.det_dug_at_init):
            parts.append(f"det D_u g at init = {self.det_dug_at_init:.6g}")
        return ", ".join(parts)


def _perturbation_directions(dim: int, count: int = 16) -> np.ndarray:
    """Fixed deterministic unit directions for the neighbourhood probe."""
    from .integrator import _mix64  # local import to avoid a cycle at import time

    idx = np.arange(1, count * dim + 1, dtype=np.uint64)
    z = _mix64(np.uint64(0xD1B54A32D192ED03) + idx * np.uint64(0x9E3779B97F4A7C15))
    u = ((z >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    raw = (u.reshape(count, dim) - 0.5) * 2.0
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    return raw / np.where(norms == 0, 1.0, norms)


def classify(pr: SdaeProblem) -> Classification:
    """Sort a problem into the index-1 / high-index / UNSDAE taxonomy."""
    notes: list[str] = []
    if pr.constraint_references_u():
        kind = ProblemKind.INDEX1
        det0 = float("nan")
        if pr.m == pr.p:
            dug = expr.compile_kernel(pr.labels, {"dug": expr.jacobian(pr.g, pr.u_labels)})
            pt = pr.init_point()
            probes = pt + 1e-3 * _perturbation_directions(pr.n + pr.m)
            with np.errstate(all="ignore"):
                det0 = float(np.linalg.det(dug(pt)["dug"]))
                dets = np.linalg.det(dug(probes)["dug"])
            if not regular(det0):
                notes.append("D_u g is numerically singular at the initial point")
            if np.any(np.sign(dets) != np.sign(det0)) or not regular(dets).all():
                notes.append(
                    "det D_u g changes sign or nearly vanishes within radius 1e-3 "
                    "of the initial point; invertibility may not hold in a neighbourhood"
                )
        else:
            notes.append(
                f"constraint references u but m={pr.m} != p={pr.p}; "
                "D_u g is rectangular and the index-1 reduction does not apply"
            )
        return Classification(
            kind=kind,
            unsdae=False,
            ill_posed_verdict=Verdict.INAPPLICABLE,
            det_dug_at_init=det0,
            notes=tuple(notes),
        )

    kind = ProblemKind.HIGH_INDEX
    unsdae = not pr.sigma_references_u()
    verdict = Verdict.INAPPLICABLE
    max_resid = None
    argmax = None
    if unsdae:
        from . import wellposedness

        box = [(x - 1e-3, x + 1e-3) for x in pr.x0]
        report = wellposedness.is_ill_posed(pr, box, grid_per_dim=3)
        verdict = report.verdict
        max_resid = report.max_residual_norm
        argmax = report.argmax_point
    return Classification(
        kind=kind,
        unsdae=unsdae,
        ill_posed_verdict=verdict,
        det_dug_at_init=float("nan"),
        max_tangency_residual=max_resid,
        tangency_argmax=argmax,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# Problem file format
# ---------------------------------------------------------------------------

_SECTIONS = ("dims", "drift", "diffusion", "constraint", "constraint_noise", "initial", "meta")


def load_problem(text: str) -> SdaeProblem:
    """Parse the line-oriented problem file format."""
    sections: dict[str, list[tuple[int, str]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in _SECTIONS:
                raise ProblemFormatError(f"unknown section [{name}]", lineno)
            if name in sections:
                raise ProblemFormatError(f"duplicate section [{name}]", lineno)
            sections[name] = []
            current = name
            continue
        if current is None:
            raise ProblemFormatError("content before any [section] header", lineno)
        sections[current].append((lineno, line))

    for required in _SECTIONS[:-1]:
        if required not in sections:
            raise ProblemFormatError(f"missing section [{required}]")

    dims: dict[str, int] = {}
    for lineno, line in sections["dims"]:
        for token in line.split():
            if "=" not in token:
                raise ProblemFormatError(f"expected key=value, got '{token}'", lineno)
            key, _, value = token.partition("=")
            key = key.strip()
            if key not in ("n", "m", "p", "d"):
                raise ProblemFormatError(f"unknown dimension '{key}'", lineno)
            if key in dims:
                raise ProblemFormatError(f"duplicate dimension '{key}'", lineno)
            try:
                dims[key] = int(value.strip())
            except ValueError:
                raise ProblemFormatError(f"bad integer for {key}: '{value}'", lineno) from None
            least = 0 if key == "d" else 1
            if dims[key] < least:
                raise ProblemFormatError(f"dimension {key}={dims[key]} must be >= {least}", lineno)
    missing = [k for k in ("n", "m", "p", "d") if k not in dims]
    if missing:
        raise ProblemFormatError(f"[dims] is missing {', '.join(missing)}")
    n, m, p, d = dims["n"], dims["m"], dims["p"], dims["d"]

    def parse_line(lineno: int, line: str) -> Expression:
        try:
            return parse(line)
        except Exception as exc:
            raise ProblemFormatError(str(exc), lineno) from None

    def parse_matrix_line(lineno: int, line: str, want: int) -> list[Expression]:
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != want:
            raise ProblemFormatError(
                f"expected {want} comma-separated expressions, got {len(cells)}", lineno
            )
        return [parse_line(lineno, c) for c in cells]

    f = [parse_line(ln, s) for ln, s in sections["drift"]]
    sigma = [parse_matrix_line(ln, s, d) for ln, s in sections["diffusion"]]
    g = [parse_line(ln, s) for ln, s in sections["constraint"]]
    gamma = [parse_matrix_line(ln, s, d) for ln, s in sections["constraint_noise"]]

    x0 = u0 = None
    for lineno, line in sections["initial"]:
        key, eq, value = line.partition("=")
        if not eq:
            raise ProblemFormatError("expected 'x = ...' or 'u = ...'", lineno)
        try:
            values = np.array([float(c) for c in value.split(",")])
        except ValueError:
            raise ProblemFormatError(f"bad real list '{value.strip()}'", lineno) from None
        key = key.strip()
        if key == "x":
            x0 = values
        elif key == "u":
            u0 = values
        else:
            raise ProblemFormatError(f"unknown initial-condition key '{key}'", lineno)
    if x0 is None or u0 is None:
        raise ProblemFormatError("[initial] must define both x= and u=")

    name = ""
    for lineno, line in sections.get("meta", []):
        key, eq, value = line.partition("=")
        if key.strip() == "name" and eq:
            name = value.strip()

    if len(f) != n:
        raise DimensionMismatchError(f"[drift] has {len(f)} rows, expected n={n}")
    if len(sigma) != n:
        raise DimensionMismatchError(f"[diffusion] has {len(sigma)} rows, expected n={n}")
    if len(g) != p:
        raise DimensionMismatchError(f"[constraint] has {len(g)} rows, expected p={p}")
    if len(gamma) != p:
        raise DimensionMismatchError(
            f"[constraint_noise] has {len(gamma)} rows, expected p={p}"
        )
    return SdaeProblem(n=n, m=m, p=p, d=d, f=f, sigma=sigma, g=g, gamma=gamma,
                       x0=x0, u0_guess=u0, name=name)


def load_problem_file(path) -> SdaeProblem:
    """``load_problem`` of a UTF-8 file, which may start with a byte-order
    mark; a file that is not UTF-8 is a ProblemFormatError."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ProblemFormatError(f"not UTF-8 text: byte {exc.start} ({exc.reason})") from None
    return load_problem(text)


def print_problem(pr: SdaeProblem) -> str:
    """Canonical problem-file text; loading it back is equivalent to pr."""
    lines = ["[dims]", f"n={pr.n} m={pr.m} p={pr.p} d={pr.d}", "[drift]"]
    lines.extend(to_text(e) for e in pr.f)
    lines.append("[diffusion]")
    lines.extend(", ".join(to_text(e) for e in row) for row in pr.sigma)
    lines.append("[constraint]")
    lines.extend(to_text(e) for e in pr.g)
    lines.append("[constraint_noise]")
    lines.extend(", ".join(to_text(e) for e in row) for row in pr.gamma)
    lines.append("[initial]")
    lines.append("x = " + ", ".join(repr(float(v)) for v in pr.x0))
    lines.append("u = " + ", ".join(repr(float(v)) for v in pr.u0_guess))
    if pr.name:
        lines.append("[meta]")
        lines.append(f"name = {pr.name}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Builtin registry
# ---------------------------------------------------------------------------


def _paper_example() -> SdaeProblem:
    """Oscillating cubic constraint under uncontrollable additive noise.

    Two states (the second is suspended time), one algebraic variable,
    two-dimensional noise that the algebraic variable cannot reach.
    """
    return SdaeProblem(
        n=2, m=1, p=1, d=2,
        f=[parse("x1 + x1^2 + u1"), parse("1")],
        sigma=[[parse("0.2"), parse("0")], [parse("0"), parse("0")]],
        g=[parse("2*x1 - x1^3 - 0.5*sin(4*x2)")],
        gamma=[[parse("0"), parse("0")]],
        x0=[0.0, 0.0],
        u0_guess=[0.0],
        name="paper-example",
    )


def _cooling() -> SdaeProblem:
    """Heat-regulator model pinned to a set temperature, desk-scale constants."""
    return SdaeProblem(
        n=1, m=1, p=1, d=1,
        f=[parse("-x1 + u1")],
        sigma=[[parse("0.5")]],
        g=[parse("x1 - 1")],
        gamma=[[parse("0")]],
        x0=[1.0],
        u0_guess=[0.0],
        name="cooling",
    )


def _linear_index1() -> SdaeProblem:
    """Index-1 problem whose reduction cancels exactly in the discrete recursion."""
    return SdaeProblem(
        n=1, m=1, p=1, d=1,
        f=[parse("u1")],
        sigma=[[parse("0.3")]],
        g=[parse("u1 - x1")],
        gamma=[[parse("0")]],
        x0=[1.0],
        u0_guess=[1.0],
        name="linear-index1",
    )


def _index2_demo() -> SdaeProblem:
    """High-index problem that one differentiation step turns into index 1."""
    return SdaeProblem(
        n=1, m=2, p=1, d=1,
        f=[parse("u1")],
        sigma=[[parse("u2")]],
        g=[parse("x1")],
        gamma=[[parse("0")]],
        x0=[0.0],
        u0_guess=[0.0, 0.0],
        name="index2-demo",
    )


_BUILTINS: dict[str, Callable[[], SdaeProblem]] = {
    "paper-example": _paper_example,
    "cooling": _cooling,
    "linear-index1": _linear_index1,
    "index2-demo": _index2_demo,
}


def builtin_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILTINS))


def builtin(name: str) -> SdaeProblem:
    """Return a fresh instance of a registered demonstration problem."""
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise UnknownBuiltinError(name, _BUILTINS) from None
    return factory()
