"""CLI subcommands, exit codes, output files, and manifest reruns."""

import errno
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from unittest.mock import patch

import pytest

from helpers import usable_cpus
from sdaekit import cli
from sdaekit.cli import main


@pytest.fixture()
def paper_file(tmp_path):
    assert main(["builtin", "paper-example", "--emit",
                 "--out", str(tmp_path / "paper-example.sdae")]) == 0
    return tmp_path / "paper-example.sdae"


@pytest.fixture()
def linear_file(tmp_path):
    assert main(["builtin", "linear-index1", "--emit",
                 "--out", str(tmp_path / "linear.sdae")]) == 0
    return tmp_path / "linear.sdae"


class TestClassify:
    def test_paper_example(self, paper_file, capsys):
        assert main(["classify", str(paper_file)]) == 0
        out = capsys.readouterr().out
        assert "high-index" in out
        assert "UNSDAE" in out
        assert "ill-posed" in out
        assert "4.0" in out and "e-01" in out  # max residual 4.0e-01 at the origin

    def test_emitted_file_matches_builtin(self, paper_file, capsys):
        main(["classify", str(paper_file)])
        from_file = capsys.readouterr().out
        from sdaekit.problem import builtin, classify

        assert classify(builtin("paper-example")).summary() == from_file.strip()

    def test_missing_file_is_exit_2(self, capsys):
        assert main(["classify", "no-such-file.sdae"]) == 2

    def test_invalid_file_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.sdae"
        bad.write_text("[dims]\nn=1 m=1 p=1 d=1\n")
        assert main(["classify", str(bad)]) == 2


class TestCheck:
    def test_ill_posed_box(self, paper_file, capsys):
        assert main(["check", str(paper_file), "--box", "-2:2,-5:5", "--grid", "21"]) == 0
        assert "ill-posed" in capsys.readouterr().out

    def test_contraction_flag(self, linear_file, capsys):
        rc = main(["check", str(linear_file), "--box=-1:1,-1:1", "--contraction"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "M = " in out and "horizon" in out

    def test_bad_box_usage(self, paper_file):
        assert main(["check", str(paper_file), "--box", "oops"]) == 1

    @pytest.mark.parametrize("flags", [["--grid", "0"], ["--pairs", "0"], ["--box=-1:1"]],
                             ids=" ".join)
    def test_out_of_range_contraction_flag_exit_1(self, linear_file, flags):
        argv = ["check", str(linear_file), "--box=-1:1,-1:1", "--contraction"]
        assert main(argv + flags) == 1

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_out_of_range_tol_exit_1(self, paper_file, capsys, tol):
        # paper-example is ill-posed on this box (max residual 2.0); a nan
        # tolerance used to report it as not ill-posed
        rc = main(["check", str(paper_file), "--box", "-2:2,-5:5", "--grid", "21", "--tol", tol])
        assert rc == 1
        captured = capsys.readouterr()
        assert "--tol" in captured.err
        assert "ill-posed" not in captured.out


    @pytest.mark.parametrize("flags, run", [
        (["--contraction", "--tol", "1e-6"], "contraction"),
        (["--pairs", "50"], "ill-posedness"),
        (["--norm", "rowsum"], "ill-posedness"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
    def test_unread_flag_exit_1(self, linear_file, capsys, flags, run):
        assert main(["check", str(linear_file), "--box=-1:1,-1:1", *flags]) == 1
        captured = capsys.readouterr()
        flag = next(f for f in flags if f != "--contraction")
        assert f"{flag} is not read by the {run} check" in captured.err
        assert captured.out == ""

    def test_read_flags_accepted(self, linear_file, paper_file):
        assert main(["check", str(linear_file), "--box=-1:1,-1:1", "--grid", "3",
                     "--contraction", "--pairs", "50", "--norm", "rowsum"]) == 0
        assert main(["check", str(paper_file), "--box=-2:2,-5:5", "--grid", "3",
                     "--tol", "1e-6"]) == 0


class TestReduce:
    def test_paper_example_rows_printed(self, paper_file, capsys):
        assert main(["reduce", str(paper_file), "--steps", "1"]) == 0
        out = capsys.readouterr().out
        assert "p = 3 rows" in out
        assert "cos(4*x2)" in out
        assert "not determined" in out  # m = 1 != 3

    def test_non_finite_det_is_not_determined(self, tmp_path, capsys):
        sqrt_file = tmp_path / "sqrt.sdae"
        sqrt_file.write_text(
            "[dims]\nn=1 m=2 p=1 d=1\n[drift]\nsqrt(u1)\n[diffusion]\nu2\n"
            "[constraint]\nx1\n[constraint_noise]\n0\n[initial]\nx = 0\nu = 0, 0\n"
        )
        assert main(["reduce", str(sqrt_file)]) == 0
        captured = capsys.readouterr()
        assert "index: not determined - D_u h is square but singular" in captured.out
        assert "index: 2" not in captured.out
        assert "RuntimeWarning" not in captured.err

    def test_index1_input_is_exit_3(self, linear_file):
        assert main(["reduce", str(linear_file), "--steps", "1"]) == 3

    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_out_of_range_steps_exit_1(self, paper_file, capsys, steps):
        assert main(["reduce", str(paper_file), "--steps", steps]) == 1
        captured = capsys.readouterr()
        assert "--steps must be at least 1" in captured.err
        assert captured.out == ""


class TestSolve:
    def test_index1_on_high_index_exit_3(self, paper_file, tmp_path, capsys):
        rc = main(["solve", str(paper_file), "--method", "index1",
                   "--dt", "1e-3", "--t-end", "0.1", "--out", str(tmp_path / "r")])
        assert rc == 3
        assert "D_u g" in capsys.readouterr().err

    def test_bounded_run_writes_outputs(self, paper_file, tmp_path, capsys):
        out_dir = tmp_path / "run1"
        rc = main([
            "solve", str(paper_file), "--method", "bounded",
            "--epsilon", "0.5", "--alpha", "0.8", "--box", "-2:2,-5:5",
            "--dt", "1e-3", "--t-end", "0.2", "--paths", "20", "--seed", "42",
            "--out", str(out_dir),
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "threshold" in text and "10" in text
        assert (out_dir / "manifest.json").is_file()
        assert (out_dir / "report.csv").is_file()
        assert (out_dir / "problem.sdae").is_file()
        assert (out_dir / "paths" / "path_00000.csv").is_file()
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["base_seed"] == 42
        assert "report.csv" in manifest["outputs"]

    def test_rerun_reproduces_bitwise(self, paper_file, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        argv = [
            "solve", str(paper_file), "--method", "bounded",
            "--epsilon", "0.5", "--alpha", "0.8", "--box=-2:2,-5:5",
            "--dt", "1e-3", "--t-end", "0.2", "--paths", "8", "--seed", "7",
            "--out", str(out1),
        ]
        assert main(argv) == 0
        assert main(["rerun", str(out1 / "manifest.json"), "--out", str(out2)]) == 0
        for rel in json.loads((out1 / "manifest.json").read_text())["outputs"]:
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel

    def test_index1_solve_and_rerun(self, linear_file, tmp_path):
        out1 = tmp_path / "x"
        out2 = tmp_path / "y"
        argv = ["solve", str(linear_file), "--method", "index1",
                "--dt", "1e-3", "--t-end", "0.5", "--paths", "4", "--seed", "3",
                "--out", str(out1)]
        assert main(argv) == 0
        assert main(["rerun", str(out1 / "manifest.json"), "--out", str(out2)]) == 0
        for rel in json.loads((out1 / "manifest.json").read_text())["outputs"]:
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel

    @pytest.fixture()
    def index1_run(self, linear_file, tmp_path):
        out = tmp_path / "run"
        assert main(["solve", str(linear_file), "--method", "index1",
                     "--dt", "1e-3", "--t-end", "0.05", "--paths", "2", "--seed", "3",
                     "--out", str(out)]) == 0
        return out

    def test_rerun_refuses_modified_problem_exit_2(self, index1_run, tmp_path, capsys):
        problem = index1_run / "problem.sdae"
        problem.write_text(problem.read_text().replace("0.3", "0.4"))
        rc = main(["rerun", str(index1_run / "manifest.json"), "--out", str(tmp_path / "r")])
        assert rc == 2
        assert "problem_sha256" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_rerun_refuses_other_version_exit_3(self, index1_run, tmp_path, capsys):
        manifest_path = index1_run / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = "0.0.0-other"
        manifest_path.write_text(json.dumps(manifest))
        rc = main(["rerun", str(manifest_path), "--out", str(tmp_path / "r")])
        assert rc == 3
        assert "0.0.0-other" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "drop, named",
        [("grid", "grid"), ("args", "no solve args"), ("base_seed", "base_seed")],
    )
    def test_rerun_refuses_incomplete_manifest_exit_3(self, index1_run, tmp_path, capsys, drop, named):
        manifest_path = index1_run / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        if drop in manifest:
            del manifest[drop]
        else:
            del manifest["args"][drop]
        manifest_path.write_text(json.dumps(manifest))
        rc = main(["rerun", str(manifest_path), "--out", str(tmp_path / "r")])
        assert rc == 3
        assert named in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_manifest_records_no_threads(self, index1_run):
        manifest = json.loads((index1_run / "manifest.json").read_text())
        assert "threads" not in manifest["args"]

    def test_threads_flag_is_gone(self, linear_file, tmp_path):
        rc = main(["solve", str(linear_file), "--method", "index1", "--dt", "1e-3",
                   "--t-end", "0.05", "--threads", "2", "--out", str(tmp_path / "t")])
        assert rc == 1

    def test_rerun_of_manifest_with_threads_key(self, index1_run, tmp_path):
        # manifests written before the flag was removed still carry the key
        manifest_path = index1_run / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["args"]["threads"] = 2
        manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        out = tmp_path / "again"
        assert main(["rerun", str(manifest_path), "--out", str(out)]) == 0
        for rel in manifest["outputs"]:
            assert (out / rel).read_bytes() == (index1_run / rel).read_bytes(), rel

    def test_picard_method(self, tmp_path, capsys):
        # contraction example as a file
        src = tmp_path / "c.sdae"
        src.write_text(
            "[dims]\nn=1 m=1 p=1 d=1\n[drift]\nx1\n[diffusion]\n0.1\n"
            "[constraint]\n0.25*x1 + 0.5*u1\n[constraint_noise]\n0\n"
            "[initial]\nx = 0\nu = 0\n"
        )
        rc = main(["solve", str(src), "--method", "picard", "--dt", "1e-3",
                   "--t-end", "0.3", "--paths", "2", "--seed", "1",
                   "--out", str(tmp_path / "p")])
        assert rc == 0

    def test_picard_path_not_converging_in_a_worker_exits_4(self, linear_file, tmp_path,
                                                             capsys):
        """Only path 3 needs 21 sweeps, and its batch runs in the forked
        worker: its NonConvergenceError comes back with its type and message,
        and the run ends with exit 4, no traceback and no manifest."""
        out = tmp_path / "p"
        with usable_cpus(2), patch.object(os, "fork", wraps=os.fork) as fork:
            rc = main(["solve", str(linear_file), "--method", "picard", "--dt", "1e-2",
                       "--t-end", "0.5", "--iterations", "20", "--paths", "4", "--seed", "10",
                       "--out", str(out)])
        assert rc == 4 and fork.call_count == 1
        err = capsys.readouterr().err
        assert err.startswith("error: iteration did not converge after 20 sweeps")
        assert "Traceback" not in err
        assert not (out / "manifest.json").exists()

    def test_unit_prob_method(self, paper_file, tmp_path):
        from sdaekit.unit_prob import paper_example_spec
        from sdaekit.expr import to_text

        spec = paper_example_spec(0.25)
        y_file = tmp_path / "y.txt"
        y_file.write_text("\n".join(to_text(e) for e in spec.y) + "\n")
        rc = main(["solve", str(paper_file), "--method", "unit-prob",
                   "--epsilon", "0.25", "--y-file", str(y_file),
                   "--dt", "1e-4", "--t-end", "0.05", "--paths", "2", "--seed", "5",
                   "--out", str(tmp_path / "u")])
        assert rc == 0

    @staticmethod
    def _unit_prob_argv(problem, tmp_path, dt):
        from sdaekit.expr import to_text
        from sdaekit.unit_prob import paper_example_spec

        y_file = tmp_path / "y.txt"
        y_file.write_text("\n".join(to_text(e) for e in paper_example_spec(0.25).y) + "\n")
        return ["solve", str(problem), "--method", "unit-prob",
                "--epsilon", "0.25", "--y-file", str(y_file),
                "--dt", dt, "--t-end", "0.02", "--paths", "2", "--seed", "5",
                "--out", str(tmp_path / "u")]

    def test_unit_prob_warns_when_x0_is_off_the_characteristic(self, paper_file, tmp_path):
        # y(u0) = (0, 0) for the arctan characteristic, so x0 = (0.01, 0) is off it
        problem = tmp_path / "off.sdae"
        problem.write_text(paper_file.read_text().replace("x = 0.0, 0.0", "x = 0.01, 0.0"))
        with pytest.warns(UserWarning, match="does not lie on the characteristic"):
            rc = main(self._unit_prob_argv(problem, tmp_path, "1e-4"))
        assert rc == 0

    def test_unit_prob_stiffness_warning(self, paper_file, tmp_path):
        # |B|^2 = 101 at the initial state, so dt = 1e-2 is ten times the budget
        with pytest.warns(UserWarning, match=r"\|B\|\^2 dt = 1\.01 exceeds 0\.1"):
            rc = main(self._unit_prob_argv(paper_file, tmp_path, "1e-2"))
        assert rc == 0

    @pytest.mark.parametrize("flags", [
        ["--dt", "0"],
        ["--dt", "nan"],
        ["--t-end", "-1"],
        ["--paths", "0"],
        ["--save-paths", "-1"],
        ["--epsilon", "0"],
        ["--alpha", "2"],
        ["--alpha", "0"],
        ["--grid", "0"],
        ["--y-grid", "0"],
    ], ids=" ".join)
    def test_out_of_range_flag_exit_1(self, linear_file, tmp_path, capsys, flags):
        argv = ["solve", str(linear_file), "--method", "index1",
                "--dt", "1e-3", "--t-end", "0.05", "--out", str(tmp_path / "o")]
        rc = main(argv + flags)
        assert rc == 1
        assert flags[0] in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("box", ["-2:2", "-2:2,5:-5", "-2:2,-5:inf", "-2:2,-5:5,0:1"])
    def test_bad_bounded_box_exit_1(self, paper_file, tmp_path, box):
        rc = main(["solve", str(paper_file), "--method", "bounded",
                   "--epsilon", "0.5", "--alpha", "0.8", f"--box={box}",
                   "--dt", "1e-3", "--t-end", "0.02", "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_solver_linalg_error_exit_4(self, linear_file, tmp_path, capsys, monkeypatch):
        import numpy as np

        from sdaekit import index1

        def singular(pr):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(index1, "build_index1_sde", singular)
        rc = main(["solve", str(linear_file), "--method", "index1",
                   "--dt", "1e-3", "--t-end", "0.05", "--out", str(tmp_path / "o")])
        assert rc == 4
        assert "Singular matrix" in capsys.readouterr().err

    def test_missing_required_flags_exit_3(self, paper_file, tmp_path):
        rc = main(["solve", str(paper_file), "--method", "bounded",
                   "--dt", "1e-3", "--t-end", "0.1", "--out", str(tmp_path / "z")])
        assert rc == 3

    @pytest.mark.parametrize("flags", [
        ["--b", "nan"],
        ["--b", "0"],
        ["--b", "-1"],
        ["--iterations", "0"],
        ["--tol", "0"],
        ["--tol", "inf"],
    ], ids=" ".join)
    def test_out_of_range_gain_and_picard_flag_exit_1(self, linear_file, tmp_path, capsys, flags):
        argv = ["solve", str(linear_file), "--method", "index1",
                "--dt", "1e-3", "--t-end", "0.05", "--out", str(tmp_path / "o")]
        assert main(argv + flags) == 1
        assert flags[0] in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bounded_gain_too_large_for_dt_exit_3(self, paper_file, tmp_path, capsys):
        # this box and target give b = 275, so b*dt = 2.75 at dt = 1e-2: the
        # step cannot hold lambda, and the run is refused before any output
        out_dir = tmp_path / "o"
        rc = main(["solve", str(paper_file), "--method", "bounded",
                   "--epsilon", "0.1", "--alpha", "0.8", "--box=-2:2,-5:5",
                   "--dt", "1e-2", "--t-end", "0.5", "--paths", "200",
                   "--out", str(out_dir)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "b = 275" in err and "dt = 0.01" in err and "2/b = 0.00727273" in err
        assert not [p for p in out_dir.rglob("*") if p.is_file()]
        assert not out_dir.exists()

    def test_out_below_a_regular_file_exit_1_before_the_solve(self, linear_file, tmp_path, capsys):
        blocker = tmp_path / "f"
        blocker.write_text("kept\n")
        with patch("sdaekit.cli.run_ensemble", side_effect=AssertionError("solve ran")):
            rc = main(["solve", str(linear_file), "--method", "index1", "--dt", "1e-2",
                       "--t-end", "0.1", "--paths", "2", "--out", str(blocker / "sub")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: --out {blocker / 'sub'}: {blocker} is not a directory\n"
        assert blocker.read_text() == "kept\n"

    def test_out_holding_a_regular_file_named_paths_exit_4(self, linear_file, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "paths").write_text("kept\n")
        rc = main(["solve", str(linear_file), "--method", "index1", "--dt", "1e-2",
                   "--t-end", "0.1", "--paths", "2", "--out", str(out)])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "paths" in err and "Traceback" not in err
        assert (out / "paths").read_text() == "kept\n"
        assert not (out / "manifest.json").exists()

    def test_index1_inconsistent_initial_value_exit_3(self, tmp_path, capsys):
        # g = u1 - x1 is 4 at x = 1, u = 5: the index-1 method must refuse it
        problem = tmp_path / "off.sdae"
        problem.write_text(
            "[dims]\nn=1 m=1 p=1 d=1\n[drift]\nu1\n[diffusion]\n0.3\n"
            "[constraint]\nu1 - x1\n[constraint_noise]\n0\n[initial]\nx = 1\nu = 5\n"
        )
        rc = main(["solve", str(problem), "--method", "index1",
                   "--dt", "1e-3", "--t-end", "0.05", "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "initial condition violates the constraint" in capsys.readouterr().err

    def test_nan_initial_value_exit_2(self, tmp_path, capsys):
        problem = tmp_path / "nan.sdae"
        problem.write_text(
            "[dims]\nn=1 m=1 p=1 d=1\n[drift]\nu1\n[diffusion]\n0.3\n"
            "[constraint]\nu1 - x1\n[constraint_noise]\n0\n[initial]\nx = 1\nu = nan\n"
        )
        rc = main(["solve", str(problem), "--method", "index1",
                   "--dt", "1e-3", "--t-end", "0.05", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "finite" in capsys.readouterr().err

    def test_gain_warning_emitted_once(self, paper_file, tmp_path, capsys):
        with pytest.warns(UserWarning) as record:
            rc = main(["solve", str(paper_file), "--method", "bounded",
                       "--epsilon", "0.5", "--alpha", "0.8", "--box", "-2:2,-5:5",
                       "--grid", "21", "--b", "1", "--dt", "1e-3", "--t-end", "0.01",
                       "--out", str(tmp_path / "o")])
        assert rc == 0
        threshold = [w for w in record if "not above the threshold" in str(w.message)]
        assert len(threshold) == 1
        assert not [w for w in record if "on the grid" in str(w.message)]  # b dt is tiny too

    def test_grid_bound_warning_names_the_largest_dt(self, paper_file, tmp_path):
        """b = 11 at J = 4, eps = 0.5, alpha = 0.8 meets the target for dt <= 2/121."""
        with pytest.warns(UserWarning) as record:
            rc = main(["solve", str(paper_file), "--method", "bounded",
                       "--epsilon", "0.5", "--alpha", "0.8", "--box", "-2:2,-5:5",
                       "--b", "11", "--dt", "0.03", "--t-end", "0.06", "--paths", "2",
                       "--out", str(tmp_path / "o")])
        assert rc == 0
        grid = [str(w.message) for w in record if "on the grid" in str(w.message)]
        assert len(grid) == 1 and grid[0].endswith("this gain meets it for dt <= 0.0165289")
        assert not [w for w in record if "not above the threshold" in str(w.message)]


SOLVES = {
    "index1": ["--method", "index1", "--dt", "1e-3", "--t-end", "0.5", "--paths", "4",
               "--seed", "3"],
    "bounded": ["--method", "bounded", "--epsilon", "0.5", "--alpha", "0.8",
                "--box=-2:2,-5:5", "--dt", "1e-3", "--t-end", "0.2", "--paths", "8",
                "--seed", "7"],
    "picard": ["--method", "picard", "--dt", "1e-2", "--t-end", "0.5", "--paths", "4",
               "--seed", "9"],
}


class TestForkedOutputs:
    """The output phase of a solve: the report in this process, the saved
    path CSVs spread over forked workers, the manifest last."""

    @staticmethod
    def outputs(out: Path) -> dict[str, bytes]:
        """The manifest and every output it lists, by name."""
        listed = json.loads((out / "manifest.json").read_text())["outputs"]
        return {rel: (out / rel).read_bytes() for rel in ["manifest.json", *listed]}

    @pytest.mark.parametrize("method", list(SOLVES))
    def test_outputs_byte_identical_at_any_cpu_count(self, method, request, tmp_path):
        problem = request.getfixturevalue("paper_file" if method == "bounded" else "linear_file")
        argv = ["solve", str(problem), *SOLVES[method], "--save-paths", "3"]
        runs = {}
        for cpus in (1, 2):
            out = tmp_path / f"cpus{cpus}"
            with usable_cpus(cpus), patch.object(os, "fork", wraps=os.fork) as fork:
                assert main([*argv, "--out", str(out)]) == 0
            # the integration's W - 1 workers, then the output phase's W - 1
            assert fork.call_count == 2 * (cpus - 1)
            runs[cpus] = self.outputs(out)
        assert list(runs[1]) == ["manifest.json", "problem.sdae", "report.csv",
                                 "paths/path_00000.csv", "paths/path_00001.csv",
                                 "paths/path_00002.csv"]
        assert runs[2] == runs[1]
        with usable_cpus(2):
            assert main(["rerun", str(tmp_path / "cpus2" / "manifest.json"),
                         "--out", str(tmp_path / "again")]) == 0
        assert self.outputs(tmp_path / "again") == runs[1]

    def test_worker_error_is_reraised_and_no_manifest_is_written(self, linear_file, tmp_path,
                                                                 capsys):
        """Saved path 2 is job 3, in the worker; its OSError comes back to
        the solve with its type, after the worker is reaped, and ``main``
        ends with exit 4 and no traceback."""
        write = cli.write_path_csv

        def failing(path, lam, fh):
            if fh.name.endswith("path_00002.csv"):
                raise OSError(errno.ENOSPC, "disk full in the test")
            write(path, lam, fh)

        argv = ["solve", str(linear_file), *SOLVES["index1"], "--save-paths", "3"]
        out = tmp_path / "out"
        args = cli._build_parser().parse_args(
            cli._preprocess_argv([*argv, "--out", str(out)]))
        with usable_cpus(2), patch.object(cli, "write_path_csv", failing), \
                pytest.raises(OSError, match="disk full in the test") as info:
            cli._cmd_solve(args)
        assert info.value.errno == errno.ENOSPC
        assert any("raised in ensemble worker" in note for note in info.value.__notes__)
        assert (out / "report.csv").is_file()
        assert not (out / "manifest.json").exists()

        capsys.readouterr()
        again = tmp_path / "again"
        with usable_cpus(2), patch.object(cli, "write_path_csv", failing):
            assert main([*argv, "--out", str(again)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "disk full in the test" in err
        assert "Traceback" not in err
        assert (again / "report.csv").is_file()
        assert not (again / "manifest.json").exists()

    def test_error_in_this_process_ends_the_workers(self, linear_file, tmp_path, capsys):
        def failing(*args, **kwargs):
            raise ValueError("statistics failed in the test")

        out = tmp_path / "out"
        with usable_cpus(2), patch.object(cli, "violation_stats", failing), \
                patch.object(os, "fork", wraps=os.fork) as fork:
            rc = main(["solve", str(linear_file), *SOLVES["index1"], "--save-paths", "3",
                       "--out", str(out)])
        assert rc == 4 and fork.call_count == 2  # the integration's worker, the outputs'
        assert "statistics failed in the test" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_no_saved_path_forks_nothing(self, linear_file, tmp_path):
        """Only the integration forks: its one worker for 4 paths on 2 CPUs."""
        out = tmp_path / "out"
        with usable_cpus(2), patch.object(os, "fork", wraps=os.fork) as fork:
            assert main(["solve", str(linear_file), *SOLVES["index1"], "--save-paths", "0",
                         "--out", str(out)]) == 0
        assert fork.call_count == 1
        assert json.loads((out / "manifest.json").read_text())["outputs"] == [
            "problem.sdae", "report.csv"]


def test_index1_solve_without_scipy(tmp_path):
    """The package needs no scipy: a solve in a fresh interpreter in which
    every import of scipy fails exits 0 and writes every listed output."""
    src = Path(__file__).resolve().parents[1] / "src"
    problem, out = tmp_path / "linear.sdae", tmp_path / "out"
    script = textwrap.dedent(f"""
        import sys
        sys.modules["scipy"] = None  # import scipy, and any scipy.*, raises ImportError
        sys.path.insert(0, {str(src)!r})
        from sdaekit.cli import main
        assert main(["builtin", "linear-index1", "--emit", "--out", {str(problem)!r}]) == 0
        sys.exit(main(["solve", {str(problem)!r}, "--method", "index1", "--dt", "1e-3",
                       "--t-end", "0.05", "--paths", "3", "--save-paths", "2",
                       "--out", {str(out)!r}]))
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    listed = json.loads((out / "manifest.json").read_text())["outputs"]
    assert listed == ["problem.sdae", "report.csv", "paths/path_00000.csv",
                      "paths/path_00001.csv"]
    assert all((out / rel).is_file() for rel in listed)


class TestVerifyBound:
    def test_verify_after_solve(self, paper_file, tmp_path, capsys):
        out_dir = tmp_path / "run"
        main(["solve", str(paper_file), "--method", "bounded",
              "--epsilon", "0.5", "--alpha", "0.8", "--box=-2:2,-5:5",
              "--dt", "1e-3", "--t-end", "0.2", "--paths", "20", "--seed", "2",
              "--out", str(out_dir)])
        capsys.readouterr()
        rc = main(["verify-bound", str(out_dir), "--epsilon", "0.5", "--alpha", "0.8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "satisfied" in out
        assert (out_dir / "verify_report.csv").is_file()

    def test_new_target_checks_the_stored_run(self, paper_file, tmp_path, capsys):
        # the re-executed run keeps the stored gain (b = 11 at 0.5/0.8), so only
        # the probability columns depend on the new epsilon and alpha
        import numpy as np

        out_dir = tmp_path / "run"
        assert main(["solve", str(paper_file), "--method", "bounded",
                     "--epsilon", "0.5", "--alpha", "0.8", "--box=-2:2,-5:5",
                     "--dt", "1e-3", "--t-end", "0.05", "--paths", "8", "--seed", "2",
                     "--out", str(out_dir)]) == 0
        capsys.readouterr()
        # at 0.3/0.5 the threshold J / (2 eps^2 alpha) is about 44, above the stored gain
        with pytest.warns(UserWarning, match="gain b = 11 is not above the threshold 44"):
            assert main(["verify-bound", str(out_dir), "--epsilon", "0.3", "--alpha", "0.5"]) == 0
        assert "stored gain b = 11, threshold 44" in capsys.readouterr().out
        stored = np.genfromtxt(out_dir / "report.csv", delimiter=",", names=True)
        verified = np.genfromtxt(out_dir / "verify_report.csv", delimiter=",", names=True)
        for column in ("mean_sq_lambda", "bound_curve"):
            np.testing.assert_array_equal(verified[column], stored[column])


    @pytest.fixture()
    def bounded_run(self, paper_file, tmp_path):
        out_dir = tmp_path / "run"
        assert main(["solve", str(paper_file), "--method", "bounded",
                     "--epsilon", "0.5", "--alpha", "0.8", "--box=-2:2,-5:5",
                     "--dt", "1e-3", "--t-end", "0.02", "--paths", "2", "--seed", "2",
                     "--out", str(out_dir)]) == 0
        return out_dir

    def test_refuses_modified_problem_exit_2(self, bounded_run, capsys):
        problem = bounded_run / "problem.sdae"
        problem.write_text(problem.read_text().replace("0.5", "0.25"))
        capsys.readouterr()
        rc = main(["verify-bound", str(bounded_run), "--epsilon", "0.5", "--alpha", "0.8"])
        assert rc == 2
        assert "problem_sha256" in capsys.readouterr().err
        assert not (bounded_run / "verify_report.csv").exists()

    def test_out_of_range_alpha_exit_1(self, bounded_run):
        assert main(["verify-bound", str(bounded_run), "--epsilon", "0.5", "--alpha", "2"]) == 1
        assert not (bounded_run / "verify_report.csv").exists()

    def test_refuses_other_version_exit_3(self, bounded_run, capsys):
        manifest_path = bounded_run / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = "0.0.0-other"
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        rc = main(["verify-bound", str(bounded_run), "--epsilon", "0.5", "--alpha", "0.8"])
        assert rc == 3
        assert "0.0.0-other" in capsys.readouterr().err
        assert not (bounded_run / "verify_report.csv").exists()

    def test_refuses_manifest_missing_keys_exit_3(self, bounded_run, capsys):
        manifest_path = bounded_run / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["args"]["mode"], manifest["args"]["b"]
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        rc = main(["verify-bound", str(bounded_run), "--epsilon", "0.5", "--alpha", "0.8"])
        assert rc == 3
        assert "manifest does not record b, mode" in capsys.readouterr().err
        assert not (bounded_run / "verify_report.csv").exists()


class TestBuiltin:
    def test_unknown_name_exit_2(self, capsys):
        assert main(["builtin", "bogus"]) == 2
        assert "available" in capsys.readouterr().err

    def test_stdout_without_emit(self, capsys):
        assert main(["builtin", "cooling"]) == 0
        assert "[dims]" in capsys.readouterr().out

    def test_out_without_emit_exit_1(self, tmp_path, capsys):
        out = tmp_path / "cooling.sdae"
        assert main(["builtin", "cooling", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "--out is not read by builtin without --emit" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_usage_error_exit_1(self):
        assert main(["solve"]) == 1
        assert main([]) == 1


# a value other than the default for each method flag; the refusal comes
# before the problem or --y-file is read, so none of these need to exist
_NON_DEFAULT = {
    "iterations": "7", "tol": "1e-6",
    "y_file": "y.txt", "y_box": "-1:1", "y_grid": "3",
    "alpha": "0.3", "box": "-1:1", "grid": "5", "b": "5", "mode": "lemma1-reduction",
}


# the flags that one method alone reads; every other solve flag is read by all
_OWN_FLAGS = {
    "index1": (),
    "picard": ("iterations", "tol"),
    "unit-prob": ("y_file", "y_box", "y_grid"),
    "bounded": ("alpha", "box", "grid", "b", "mode"),
}


def _solve_parser():
    import argparse

    from sdaekit.cli import _build_parser

    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices["solve"]


class TestUnreadFlags:
    def test_every_solve_flag_is_recorded_and_has_its_readers(self):
        from sdaekit.cli import _COMMON_FLAGS, _MANIFEST_KEYS, _METHOD_FLAGS

        parser = _solve_parser()
        flags = {a.dest for a in parser._actions if a.option_strings} - {"help", "out"}
        assert flags == set(_MANIFEST_KEYS)
        assert len(_MANIFEST_KEYS) == len(set(_MANIFEST_KEYS)) == 17
        assert set(parser._option_string_actions["--method"].choices) == set(_OWN_FLAGS)
        for dest in flags:
            assert (dest in _COMMON_FLAGS) != (dest in _METHOD_FLAGS), dest
        for dest, (method, default) in _METHOD_FLAGS.items():
            assert dest in _OWN_FLAGS[method], dest
            assert parser.get_default(dest) == default, dest
        assert set(_NON_DEFAULT) == set(_METHOD_FLAGS)

    @pytest.mark.parametrize("method, dest", [
        (method, dest)
        for method, own in _OWN_FLAGS.items()
        for dest in _NON_DEFAULT
        if dest not in own
    ])
    def test_unread_flag_exit_1(self, linear_file, tmp_path, capsys, method, dest):
        flag = "--" + dest.replace("_", "-")
        rc = main(["solve", str(linear_file), "--method", method, "--dt", "1e-3",
                   "--t-end", "0.05", f"{flag}={_NON_DEFAULT[dest]}",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert f"{flag} is not read by --method {method}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_default_values_of_unread_flags_are_accepted(self, linear_file, tmp_path):
        rc = main(["solve", str(linear_file), "--method", "index1", "--dt", "1e-3",
                   "--t-end", "0.01", "--iterations", "100", "--tol", "1e-10",
                   "--grid", "101", "--mode", "newton-per-step", "--y-grid", "101",
                   "--out", str(tmp_path / "o")])
        assert rc == 0

    def test_picard_reads_its_flags(self, tmp_path):
        src = tmp_path / "c.sdae"
        src.write_text(
            "[dims]\nn=1 m=1 p=1 d=1\n[drift]\nx1\n[diffusion]\n0.1\n"
            "[constraint]\n0.25*x1 + 0.5*u1\n[constraint_noise]\n0\n"
            "[initial]\nx = 0\nu = 0\n"
        )
        out = tmp_path / "p"
        assert main(["solve", str(src), "--method", "picard", "--dt", "1e-3",
                     "--t-end", "0.05", "--iterations", "50", "--tol", "1e-9",
                     "--out", str(out)]) == 0
        args = json.loads((out / "manifest.json").read_text())["args"]
        assert (args["iterations"], args["tol"]) == (50, 1e-9)

    def test_unit_prob_reads_its_flags(self, paper_file, tmp_path):
        from sdaekit.expr import to_text
        from sdaekit.unit_prob import paper_example_spec

        y_file = tmp_path / "y.txt"
        y_file.write_text("\n".join(to_text(e) for e in paper_example_spec(0.25).y) + "\n")
        out = tmp_path / "u"
        assert main(["solve", str(paper_file), "--method", "unit-prob", "--epsilon", "0.25",
                     "--y-file", str(y_file), "--y-box=-1:1", "--y-grid", "11",
                     "--dt", "1e-4", "--t-end", "0.01", "--out", str(out)]) == 0
        args = json.loads((out / "manifest.json").read_text())["args"]
        assert (args["y_box"], args["y_grid"]) == ("-1:1", 11)

    def test_bounded_reads_its_flags(self, paper_file, tmp_path):
        out = tmp_path / "b"
        assert main(["solve", str(paper_file), "--method", "bounded", "--epsilon", "0.5",
                     "--alpha", "0.8", "--box=-2:2,-5:5", "--grid", "21", "--b", "12",
                     "--mode", "lemma1-reduction", "--dt", "1e-3", "--t-end", "0.01",
                     "--out", str(out)]) == 0
        args = json.loads((out / "manifest.json").read_text())["args"]
        assert (args["grid"], args["b"], args["mode"]) == (21, 12.0, "lemma1-reduction")

    @pytest.mark.parametrize("method, flags", [
        ("bounded", ["--alpha", "2"]),
        ("bounded", ["--grid", "0"]),
        ("bounded", ["--b", "0"]),
        ("unit-prob", ["--y-grid", "0"]),
        ("picard", ["--iterations", "0"]),
        ("picard", ["--tol", "nan"]),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
    def test_out_of_range_read_flag_exit_1(self, paper_file, tmp_path, capsys, method, flags):
        rc = main(["solve", str(paper_file), "--method", method, "--dt", "1e-3",
                   "--t-end", "0.05", "--epsilon", "0.5", *flags, "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert flags[0] in err and "not read" not in err
        assert not (tmp_path / "o").exists()

    @staticmethod
    def _edit_args(run_dir, **changes):
        manifest_path = run_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["args"].update(changes)
        manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        return manifest_path

    def test_rerun_refuses_a_stored_unread_flag(self, linear_file, tmp_path, capsys):
        run = tmp_path / "run"
        assert main(["solve", str(linear_file), "--method", "index1", "--dt", "1e-3",
                     "--t-end", "0.01", "--out", str(run)]) == 0
        manifest_path = self._edit_args(run, iterations=7)
        capsys.readouterr()
        assert main(["rerun", str(manifest_path), "--out", str(tmp_path / "r")]) == 1
        assert "--iterations is not read by --method index1" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_verify_bound_refuses_a_stored_unread_flag(self, paper_file, tmp_path, capsys):
        run = tmp_path / "run"
        assert main(["solve", str(paper_file), "--method", "bounded", "--epsilon", "0.5",
                     "--alpha", "0.8", "--box=-2:2,-5:5", "--dt", "1e-3", "--t-end", "0.01",
                     "--out", str(run)]) == 0
        self._edit_args(run, y_grid=3)
        capsys.readouterr()
        assert main(["verify-bound", str(run), "--epsilon", "0.5", "--alpha", "0.8"]) == 1
        assert "--y-grid is not read by --method bounded" in capsys.readouterr().err
        assert not (run / "verify_report.csv").exists()
