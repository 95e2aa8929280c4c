"""An ensemble's balanced batches in forked worker processes: the same paths
bit for bit at any batching and worker count, a worker's exception re-raised
with its type, and no process left behind, whatever ends the run."""

import contextlib
import functools
import math
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import in_shared_mapping, usable_cpus
from sdaekit import _workers
from sdaekit.bounded import BoundedMConfig, SolveMode, _stabilised_sde
from sdaekit.index1 import index1_setup
from sdaekit.integrator import AugmentedSde
from sdaekit.problem import builtin
from sdaekit.stats import _batch_edges, run_ensemble
from test_integrator import BATCH_DT, ending_sde, index1_sqrt_problem

MAX_PATHS = 9


@functools.cache
def case(name):
    """(sde, init, dt, T, base_seed) of a property case."""
    if name == "bounded-newton":
        cfg = BoundedMConfig(epsilon=0.5, alpha=0.8, box=[(-2.0, 2.0), (-5.0, 5.0)],
                             b=11.0, J_raw=4.0)
        sde, init = _stabilised_sde(builtin("paper-example"), cfg, SolveMode.NEWTON_PER_STEP)
        return sde, init, 1e-3, 0.05, 11
    if name == "index1":  # paths end singular-reduction
        sde, init = index1_setup(index1_sqrt_problem())
        return sde, init, 1e-3, 0.3, 3
    # ended by guard, nan drift, unconverged and singular projection
    return ending_sde(), np.zeros(4), BATCH_DT, 0.3, 5


@functools.cache
def reference(name):
    """MAX_PATHS paths of a case in one batch in this process."""
    sde, init, dt, T, seed = case(name)
    with usable_cpus(1):
        return run_ensemble(sde, init, dt, T, MAX_PATHS, seed, chunk=MAX_PATHS)


CASES = ("bounded-newton", "index1", "ending")


def test_references_hold_projections_and_truncated_paths():
    assert all("newton_iterations" in p.metadata for p in reference("bounded-newton").paths)
    for name in ("index1", "ending"):
        assert not all(p.status.completed for p in reference(name).paths)
    assert all("newton_iterations" in p.metadata for p in reference("ending").paths)


def batch_of(k, paths, chunk, workers):
    """The batch that holds path k: batch i holds paths [i paths // n,
    (i + 1) paths // n) of n = min(paths, W ceil(ceil(paths / chunk) / W))."""
    n = min(paths, workers * math.ceil(math.ceil(paths / chunk) / workers))
    return next(i for i in range(n) if k < (i + 1) * paths // n)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(CASES),
    paths=st.integers(1, MAX_PATHS),
    chunk=st.integers(1, MAX_PATHS + 1),
    cpus=st.integers(1, 3),
)
def test_paths_bit_identical_for_any_worker_count(name, paths, chunk, cpus):
    sde, init, dt, T, seed = case(name)
    with usable_cpus(cpus):
        ens = run_ensemble(sde, init, dt, T, paths, seed, chunk=chunk)
    workers = min(paths, cpus)
    assert len(ens.paths) == paths
    for k, (p, r) in enumerate(zip(ens.paths, reference(name).paths)):
        assert in_shared_mapping(p.states) == (batch_of(k, paths, chunk, workers) % workers != 0)
        assert p.states.tobytes() == r.states.tobytes()
        assert p.dW.tobytes() == r.dW.tobytes()
        assert p.status == r.status
        assert p.seed == r.seed
        assert p.metadata == r.metadata


@settings(max_examples=300, deadline=None, database=None)
@given(paths=st.integers(1, 2000), chunk=st.integers(1, 600), cpus=st.integers(1, 8))
def test_batch_edges_balanced(paths, chunk, cpus):
    with usable_cpus(cpus):
        workers = _workers.count(paths)
    edges = _batch_edges(paths, chunk, workers)
    n = len(edges) - 1
    sizes = [hi - lo for lo, hi in zip(edges, edges[1:])]
    assert edges[0] == 0 and edges[-1] == paths  # contiguous, every path once
    assert min(sizes) >= 1 and max(sizes) <= chunk
    assert max(sizes) - min(sizes) <= 1
    assert n < -(-paths // chunk) + workers  # at most W - 1 batches past the fewest
    per_process = [len(range(w, n, workers)) for w in range(workers)]
    if n % workers:
        assert n == paths and max(per_process) - min(per_process) == 1
    else:
        assert len(set(per_process)) == 1


def test_batch_edges_examples():
    assert _batch_edges(512, 256, 2) == [0, 256, 512]  # bounded-newton keeps its batches
    assert _batch_edges(512, 512, 2) == [0, 256, 512]
    assert _batch_edges(600, 256, 2) == [0, 150, 300, 450, 600]
    assert _batch_edges(600, 256, 1) == [0, 200, 400, 600]
    assert _batch_edges(3, 1, 2) == [0, 1, 2, 3]


@pytest.mark.parametrize("chunk", [0, -1])
def test_chunk_below_one_refused(chunk):
    with pytest.raises(ValueError, match="chunk must be >= 1"):
        run_ensemble(scalar_sde(lambda x: np.zeros_like(x)), [0.0], 0.1, 0.5, 4, 0, chunk=chunk)


def scalar_sde(drift):
    """dx = drift(x) dt + dW in one dimension."""
    return AugmentedSde(dim=1, d=1, labels=("x1",), drift=drift,
                        diffusion=lambda x: np.ones((len(x), 1, 1)))


def in_worker(action):
    """A drift that runs ``action()`` in a worker process and is 0 in this one."""
    parent = os.getpid()

    def drift(x):
        if os.getpid() != parent:
            action()
        return np.zeros_like(x)

    return drift


def run_two_chunks(drift):
    with usable_cpus(2):
        return run_ensemble(scalar_sde(drift), [0.0], 0.1, 0.5, 4, 0, chunk=2)


class TwoArgError(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def raise_(exc):
    raise exc


class TestWorkerFailure:
    def test_worker_exception_is_reraised_with_its_type(self):
        with pytest.raises(LookupError, match="worker boom") as info:
            run_two_chunks(in_worker(lambda: raise_(LookupError("worker boom"))))
        assert any("raised in ensemble worker" in note for note in info.value.__notes__)

    def test_exception_that_does_not_unpickle_becomes_runtime_error(self):
        with pytest.raises(RuntimeError, match="TwoArgError: 1 and 2"):
            run_two_chunks(in_worker(lambda: raise_(TwoArgError(1, 2))))

    def test_worker_killed_by_a_signal(self):
        kill = in_worker(lambda: os.kill(os.getpid(), signal.SIGKILL))
        with pytest.raises(RuntimeError, match="killed by SIGKILL"):
            run_two_chunks(kill)

    @pytest.mark.parametrize("exc", [ValueError, KeyboardInterrupt])
    def test_parent_failure_terminates_and_reaps_workers(self, exc):
        """This process raises at its first step while its worker sleeps:
        the worker is sent SIGTERM and reaped, not waited for."""
        parent = os.getpid()

        def drift(x):
            if os.getpid() == parent:
                raise exc("parent boom")
            time.sleep(60)
            return np.zeros_like(x)

        t0 = time.monotonic()
        with pytest.raises(exc, match="parent boom"):
            run_two_chunks(drift)
        assert time.monotonic() - t0 < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("fails", [False, True])
    def test_worker_exits_without_cleanup(self, tmp_path, fails):
        """A worker ends through os._exit: it flushes no copy of this
        process's buffered files, whether its jobs succeed or raise."""
        log = tmp_path / "log"
        action = (lambda: raise_(LookupError("boom"))) if fails else (lambda: None)
        with open(log, "w", encoding="utf-8") as fh:
            fh.write("written once\n")  # still in fh's buffer when the worker forks
            with pytest.raises(LookupError) if fails else contextlib.nullcontext():
                run_two_chunks(in_worker(action))
        assert log.read_text(encoding="utf-8") == "written once\n"


class TestWorkerCount:
    def test_count_rule(self):
        with usable_cpus(3):
            assert [_workers.count(jobs) for jobs in (1, 2, 3, 8)] == [1, 2, 3, 3]
        with usable_cpus(1):
            assert _workers.count(8) == 1

    def test_no_fork_while_another_thread_lives(self):
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            ens = run_two_chunks(in_worker(lambda: raise_(LookupError("forked"))))
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert not any(in_shared_mapping(p.states) for p in ens.paths)

    @pytest.mark.parametrize("paths, cpus", [(1, 2), (4, 1)])
    def test_one_path_or_one_cpu_forks_nothing(self, paths, cpus):
        with usable_cpus(cpus):
            ens = run_ensemble(scalar_sde(in_worker(lambda: raise_(LookupError("forked")))),
                               [0.0], 0.1, 0.5, paths, 0, chunk=1)
        assert len(ens.paths) == paths
        assert not any(in_shared_mapping(p.states) for p in ens.paths)

    def test_one_chunk_is_split_over_the_cpus(self):
        with usable_cpus(2):
            ens = run_ensemble(scalar_sde(lambda x: np.zeros_like(x)), [0.0], 0.1, 0.5, 4, 0,
                               chunk=4)
        assert [in_shared_mapping(p.states) for p in ens.paths] == [False, False, True, True]


def _dead(pid: int) -> bool:
    """Whether process pid has exited (gone, or a zombie nobody reaped yet)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="PR_SET_PDEATHSIG is Linux-only")
def test_worker_dies_with_a_killed_parent():
    src = Path(__file__).resolve().parents[1] / "src"
    script = textwrap.dedent(f"""
        import os, sys, time
        sys.path.insert(0, {str(src)!r})
        import numpy as np
        from sdaekit.integrator import AugmentedSde
        from sdaekit.stats import run_ensemble

        os.sched_getaffinity = lambda pid: {{0, 1}}
        parent = os.getpid()

        def drift(x):
            if os.getpid() != parent:
                print(os.getpid(), flush=True)
                time.sleep(60)
            return np.zeros_like(x)

        sde = AugmentedSde(dim=1, d=1, labels=("x1",), drift=drift,
                           diffusion=lambda x: np.ones((len(x), 1, 1)))
        run_ensemble(sde, [0.0], 0.1, 0.5, 2, 0, chunk=1)
    """)
    proc = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE, text=True)
    try:
        worker = int(proc.stdout.readline())
    finally:
        proc.kill()
        proc.wait(timeout=30)
        proc.stdout.close()
    deadline = time.monotonic() + 20
    while not _dead(worker) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _dead(worker)
