"""Golden sha256 digests of every method's output at small sizes.

Each digest pins the exact bits a method produces for a fixed seed, so a
change that moves any float in a path, a statistic or a CLI output file
fails here.  The digests belong to one tool version (``__version__``) and
were recorded with one numpy version: a deliberate numerics change bumps the
version and records a new entry, and a run under another numpy release is
skipped, because numpy's elementwise functions may round differently there.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pytest

from sdaekit import __version__
from sdaekit.bounded import BoundedMConfig, SolveMode, run_bounded_ensemble, sup_trace
from sdaekit.cli import main
from sdaekit.errors import SpecInvalidError
from sdaekit.expr import parse, to_text
from sdaekit.index1 import build_index1_sde
from sdaekit.index_reduction import compute_index, ito_drift_rows, reduce_once
from sdaekit.integrator import derive_seed
from sdaekit.picard import check_contraction, picard_solve
from sdaekit.problem import SdaeProblem, builtin, builtin_names, classify, load_problem
from sdaekit.stats import run_ensemble
from sdaekit.unit_prob import (
    CharacteristicSpec,
    consistent_init,
    paper_example_spec,
    solve_unit_prob,
    validate_characteristic,
)
from sdaekit.wellposedness import is_ill_posed, tangency_residual

# The 2x2 noisy-constraint index-1 problem (m = 2, Gamma != 0).
INDEX1_2X2 = """\
[dims]
n=2 m=2 p=2 d=2
[drift]
x2 + u1
-x1 + u2
[diffusion]
0.2, 0
0.1, 0.3
[constraint]
u1 + 0.1*u2 - x1 - 0.05*x2^2
u2 - 0.2*x2 + 0.3*sin(x1)
[constraint_noise]
0.05, 0
0, 0.1
[initial]
x = 0.0, 0.0
u = 0.0, 0.0
"""

GOLDEN = {
    "0.1.0": {
        "numpy": "2.4.6",
        "bounded-newton": "4dcb25e7787a235e19caf15c0b43f31319f61f06f59bfe788192753ef40e1ff6",
        "bounded-lemma1": "7d31924a12fb15e6caadf29ded5bbeab739bde04557f5e821d8a14417a57e139",
        "unit-prob": "eaf1dfeb351b3cb3eff4023ef68029eb14e8d7bcce9e087bb963b937892bf12c",
        "index1-2x2": "e0d3b42fe83494a751025c17edcb5e1d526b2bc8365b6a33a2cc7a4fa8a458e0",
        "picard": "a586fc33896691c289c1cb6e30620823086d7194c303f24c4a9026550e2d9213",
        "cli-index1": "e48090c48419bc9dc44338caa9e88eefc79b5458de1f3a2b03d8dc0b16ca5d1a",
        "analysis": "2397411d373e0911b1e415e50bda2c55162cd2dc300ff0f23fac2f61a365522b",
    },
    # index-1 steps for m <= 2 come from the compiled closed form with the
    # cofactor-det guard; no other method's bits moved
    "0.2.0": {
        "numpy": "2.4.6",
        "bounded-newton": "4dcb25e7787a235e19caf15c0b43f31319f61f06f59bfe788192753ef40e1ff6",
        "bounded-lemma1": "7d31924a12fb15e6caadf29ded5bbeab739bde04557f5e821d8a14417a57e139",
        "unit-prob": "eaf1dfeb351b3cb3eff4023ef68029eb14e8d7bcce9e087bb963b937892bf12c",
        "index1-2x2": "bae840aaf81614619b39743a6a6f113b592a713a0a07917b3b5d18ff25053949",
        "picard": "a586fc33896691c289c1cb6e30620823086d7194c303f24c4a9026550e2d9213",
        "cli-index1": "b1f278ff25bd07dd76f33124bc76617bf595ebba2ffb74642d4ffc498880d1af",
        "analysis": "2397411d373e0911b1e415e50bda2c55162cd2dc300ff0f23fac2f61a365522b",
    },
    # noise from the AS241 inverse normal on the 52-bit uniform grid, integer
    # powers 3 and 4 as multiply chains, unit-prob's chi with one shared 0.5
    "0.3.0": {
        "numpy": "2.4.6",
        "bounded-newton": "93485cca3cdbaca32d00b74b7b536d3baee4cd37c2016a5c5ca9f0527f835e61",
        "bounded-lemma1": "485346810c4423e396059e1d6074356879b6e4eb2ef2bf7a647186d643be0314",
        "unit-prob": "a2253724d28fe4ce842f1c54dadb741148e8ec7d2f99736bff77efa6f8c9670e",
        "index1-2x2": "568ed45aaed52681001d58922237bc83c74c9ab3f08f27e729b5d155c37b763b",
        "picard": "bf524b610a5a595c72635199bc84c2bbe0004f6504a3507121541c56191deb0d",
        "cli-index1": "a1f6065b1776892d899b47ca0daf9c7023bc5f068d281a051ed9b6275545816b",
        "analysis": "2397411d373e0911b1e415e50bda2c55162cd2dc300ff0f23fac2f61a365522b",
    },
}

# the digests the 0.1.0 -> 0.2.0 break was allowed to move
BROKEN_IN_0_2_0 = {"index1-2x2", "cli-index1"}

# the 0.2.0 -> 0.3.0 break moves every path; the analysis results draw no
# noise and evaluate no compiled third or fourth power
BROKEN_IN_0_3_0 = {"bounded-newton", "bounded-lemma1", "unit-prob", "index1-2x2", "picard", "cli-index1"}


def _golden(name: str) -> str:
    entry = GOLDEN.get(__version__)
    if entry is None:
        pytest.fail(f"no golden digests recorded for sdaekit {__version__}")
    if entry["numpy"] != np.__version__:
        pytest.skip(
            f"golden digests were recorded with numpy {entry['numpy']}; "
            f"this is numpy {np.__version__}"
        )
    return entry[name]


class _Digest:
    def __init__(self):
        self.h = hashlib.sha256()

    def arrays(self, *values) -> None:
        for v in values:
            a = np.ascontiguousarray(np.asarray(v, dtype=float))
            self.h.update(repr(a.shape).encode())
            self.h.update(a.tobytes())

    def text(self, *values) -> None:
        for v in values:
            self.h.update(str(v).encode() + b"\0")

    def ensemble(self, ens) -> None:
        for p in ens.paths:
            self.arrays(p.states, p.dW)
            self.text(p.status, sorted(p.metadata.items()))

    def hexdigest(self) -> str:
        return self.h.hexdigest()


BOUNDED_BOX = [(-2.0, 2.0), (-5.0, 5.0)]


def digest_bounded(mode: SolveMode) -> str:
    pr = builtin("paper-example")
    cfg = BoundedMConfig(epsilon=0.5, alpha=0.8, box=BOUNDED_BOX, grid_per_dim=21)
    ens = run_bounded_ensemble(pr, cfg, 1e-3, 0.05, 4, 11, mode, chunk=2)
    d = _Digest()
    cfg = ens.meta["config"]
    d.arrays(cfg.J_raw, cfg.J_inflated, cfg.b)
    d.ensemble(ens)
    return d.hexdigest()


def digest_unit_prob() -> str:
    pr = builtin("paper-example")
    spec = paper_example_spec(0.25)
    d = _Digest()
    for seed in (3, 4):
        path = solve_unit_prob(pr, spec, 1e-5, 2e-3, seed)
        d.arrays(path.states, path.dW)
        d.text(path.status, sorted(path.metadata.items()))
    return d.hexdigest()


def digest_index1() -> str:
    pr = load_problem(INDEX1_2X2)
    ens = run_ensemble(build_index1_sde(pr), pr.init_point(), 1e-3, 0.05, 4, 7, chunk=3)
    d = _Digest()
    d.ensemble(ens)
    return d.hexdigest()


def digest_picard() -> str:
    """linear-index1, plus the 2x2 problem, whose Gamma enters the sweep."""
    d = _Digest()
    runs = [(builtin("linear-index1"), derive_seed(9, k)) for k in range(2)]
    runs.append((load_problem(INDEX1_2X2), 9))
    for pr, seed in runs:
        path = picard_solve(pr, 1e-2, 0.5, seed=seed)
        d.arrays(path.states, path.dW, path.metadata["deltas"])
        d.text(path.status, path.metadata["iterations"])
    return d.hexdigest()


def digest_cli_index1(tmp_path: Path) -> str:
    problem = tmp_path / "index1.sdae"
    problem.write_text(INDEX1_2X2, encoding="utf-8")
    out = tmp_path / "run"
    rc = main(["solve", str(problem), "--method", "index1", "--dt", "1e-3",
               "--t-end", "0.02", "--paths", "4", "--save-paths", "2",
               "--seed", "5", "--out", str(out)])
    assert rc == 0
    d = _Digest()
    for f in sorted(p for p in out.rglob("*") if p.is_file()):
        d.text(f.relative_to(out).as_posix())
        d.h.update(f.read_bytes())
    return d.hexdigest()


def digest_analysis() -> str:
    """Classification, the tangency test, the supremum, the contraction
    check, the consistent initial values and the index, at small sizes."""
    d = _Digest()
    for nm in builtin_names():
        cls = classify(builtin(nm))
        d.text(cls.kind, cls.unsdae, cls.ill_posed_verdict, cls.notes)
        d.arrays(cls.det_dug_at_init)
        if cls.max_tangency_residual is not None:
            d.arrays(cls.max_tangency_residual, cls.tangency_argmax)
    cls = classify(load_problem(INDEX1_2X2))
    d.text(cls.notes)
    d.arrays(cls.det_dug_at_init)

    pr = builtin("paper-example")
    rep = is_ill_posed(pr, BOUNDED_BOX, grid_per_dim=7)
    d.arrays(rep.residuals, rep.probes, rep.max_residual_norm, rep.argmax_point)
    d.arrays(tangency_residual(pr, [0.3, -0.7]), tangency_residual(pr, [0.3, -0.7, 0.1]))
    sup = sup_trace(pr, BOUNDED_BOX, grid_per_dim=15)
    d.arrays(sup.raw, sup.inflated, sup.argmax_point)

    for nm, box in (("linear-index1", [(-1.0, 1.0)] * 2),
                    ("paper-example", [(-1.0, 1.0), (-2.0, 2.0), (-1.0, 1.0)])):
        rep = check_contraction(builtin(nm), box, grid_per_dim=5, sample_pairs=200, seed=2)
        d.arrays(rep.M, rep.kf, rep.k_sigma, rep.k_gamma, rep.horizon)
    rep = check_contraction(load_problem(INDEX1_2X2), [(-1.0, 1.0)] * 4,
                            grid_per_dim=3, sample_pairs=200, norm="rowsum")
    d.arrays(rep.M, rep.kf, rep.k_sigma, rep.k_gamma, rep.horizon)

    d.arrays(consistent_init(paper_example_spec(0.25), pr, np.array([0.7])))
    narrow = CharacteristicSpec(y=paper_example_spec(0.25).y, epsilon=0.01)
    with pytest.raises(SpecInvalidError) as band:
        validate_characteristic(pr, narrow, grid_per_dim=11)
    d.text(band.value)
    for nm in ("paper-example", "index2-demo", "cooling"):
        report = compute_index(builtin(nm))
        d.text(report.index, report.diagnosis, report.notes)
        if report.final is not None:
            d.arrays(report.final.u0_guess)
        for step in report.steps:
            d.arrays(step.init_residual)
    return d.hexdigest()


def test_bounded_newton_digest():
    assert digest_bounded(SolveMode.NEWTON_PER_STEP) == _golden("bounded-newton")


def test_bounded_lemma1_digest():
    assert digest_bounded(SolveMode.LEMMA1_REDUCTION) == _golden("bounded-lemma1")


def test_unit_prob_digest():
    assert digest_unit_prob() == _golden("unit-prob")


def test_index1_digest():
    assert digest_index1() == _golden("index1-2x2")


def test_picard_digest():
    assert digest_picard() == _golden("picard")


def test_cli_index1_output_bytes_digest(tmp_path):
    assert digest_cli_index1(tmp_path) == _golden("cli-index1")


def test_analysis_digest():
    assert digest_analysis() == _golden("analysis")


def test_0_2_0_break_moves_only_index1():
    old, new = GOLDEN["0.1.0"], GOLDEN["0.2.0"]
    assert old.keys() == new.keys()
    moved = {k for k in old if old[k] != new[k]}
    assert moved == BROKEN_IN_0_2_0


def test_0_3_0_break_moves_every_path_digest():
    old, new = GOLDEN["0.2.0"], GOLDEN["0.3.0"]
    assert old.keys() == new.keys()
    moved = {k for k in old if old[k] != new[k]}
    assert moved == BROKEN_IN_0_3_0


def test_package_and_pyproject_versions_agree():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == __version__


# ---------------------------------------------------------------------------
# Symbolic rows and Newton-initialised values, pinned exactly
# ---------------------------------------------------------------------------

# Full 2x2 diffusion and an x1*x2 constraint term: every Hessian entry and
# every noise column enters the Ito trace, so its summation order shows.
def _coupled_problem() -> SdaeProblem:
    return SdaeProblem(
        n=2, m=1, p=1, d=2,
        f=[parse("x2 + u1"), parse("-x1")],
        sigma=[[parse("0.2*x1"), parse("0.1")], [parse("0.3"), parse("x2^2")]],
        g=[parse("x1*x2 + sin(x1) - x2^3")],
        gamma=[[parse("0"), parse("0")]],
        x0=[0.0, 0.0], u0_guess=[0.0],
        name="coupled",
    )


ITO_DRIFT_ROWS = {
    "cooling": [
        "-x1 + u1",
    ],
    "index2-demo": [
        "u1",
    ],
    "linear-index1": [
        "-1*u1",
    ],
    "paper-example": [
        "(2 - 3*x1^2)*(x1 + x1^2 + u1) + -(2*cos(4*x2)) + "
        "0.020000000000000004*-(6*x1)",
    ],
    "coupled": [
        "(x2 + cos(x1))*(x2 + u1) + (x1 - 3*x2^2)*-x1 + "
        "0.5*(0.2*x1*-sin(x1)*(0.2*x1) + 0.06*x1 + 0.06*x1 + 0.09*-(6*x2) + "
        "0.010000000000000002*-sin(x1) + 0.1*x2^2 + x2^2*0.1 + "
        "x2^2*-(6*x2)*x2^2)",
    ],
}

REDUCE_ONCE_ROWS = {
    "cooling": [
        "-x1 + u1",
        "0.5",
    ],
    "index2-demo": [
        "u1",
        "u2",
    ],
    "paper-example": [
        "(2 - 3*x1^2)*(x1 + x1^2 + u1) + -(2*cos(4*x2)) + "
        "0.020000000000000004*-(6*x1)",
        "(2 - 3*x1^2)*0.2",
        "0",
    ],
    "coupled": [
        "(x2 + cos(x1))*(x2 + u1) + (x1 - 3*x2^2)*-x1 + "
        "0.5*(0.2*x1*-sin(x1)*(0.2*x1) + 0.06*x1 + 0.06*x1 + 0.09*-(6*x2) + "
        "0.010000000000000002*-sin(x1) + 0.1*x2^2 + x2^2*0.1 + "
        "x2^2*-(6*x2)*x2^2)",
        "(x2 + cos(x1))*(0.2*x1) + (x1 - 3*x2^2)*0.3",
        "(x2 + cos(x1))*0.1 + (x1 - 3*x2^2)*x2^2",
    ],
}


def _pinned_problem(name: str) -> SdaeProblem:
    return _coupled_problem() if name == "coupled" else builtin(name)


@pytest.mark.parametrize("name", ITO_DRIFT_ROWS)
def test_ito_drift_rows_pinned(name):
    assert [to_text(e) for e in ito_drift_rows(_pinned_problem(name))] == ITO_DRIFT_ROWS[name]


@pytest.mark.parametrize("name", ITO_DRIFT_ROWS)
def test_reduce_once_rows_pinned(name):
    pr = _pinned_problem(name)
    if pr.constraint_references_u():
        assert name not in REDUCE_ONCE_ROWS
        return
    assert [to_text(e) for e in reduce_once(pr).constraint_rows] == REDUCE_ONCE_ROWS[name]


def _two_variable_newton_problem() -> SdaeProblem:
    """High-index, m = 2: its reduced constraint needs several 2x2 Newton steps."""
    return SdaeProblem(
        n=1, m=2, p=1, d=1,
        f=[parse("u1 + u1^3 - 0.5")],
        sigma=[[parse("u2 + 0.3*sin(u2) - 0.2")]],
        g=[parse("x1")],
        gamma=[[parse("0")]],
        x0=[0.0], u0_guess=[1.0, 1.0],
    )


def test_compute_index_u0_bits_pinned():
    demo = compute_index(builtin("index2-demo"))
    assert demo.index == 2
    assert demo.final.u0_guess.tobytes().hex() == "00000000000000000000000000000000"
    report = compute_index(_two_variable_newton_problem())
    assert report.index == 2 and not report.notes
    assert report.final.u0_guess.tobytes().hex() == "d6a052af6b20db3ff67338bbd3b5c33f"
