"""One seed site: within the package only stats.run_ensemble calls derive_seed,
so every method's per-path seeds are derived in exactly one place.  And the
relation of a derived seed to its base seed's own stream."""

import ast
from pathlib import Path

import numpy as np

import sdaekit
from sdaekit import integrator
from sdaekit.integrator import derive_seed, wiener_increments


def _seed_calls(tree: ast.AST):
    """(enclosing function, line) of every call of derive_seed, by name or attribute."""

    def walk(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            callee = node.func
            name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
            if name == "derive_seed":
                yield func, node.lineno
        for child in ast.iter_child_nodes(node):
            yield from walk(child, func)

    yield from walk(tree, None)


def test_only_run_ensemble_derives_seeds():
    sites = []
    for path in sorted(Path(sdaekit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        sites += [(path.name, func, line) for func, line in _seed_calls(tree)]
    stray = [site for site in sites if site[:2] != ("stats.py", "run_ensemble")]
    assert not stray, f"derive_seed called outside stats.run_ensemble at {stray}"
    assert len(sites) == 1, "stats.run_ensemble no longer calls derive_seed"


def test_scan_sees_a_hand_written_loop():
    tree = ast.parse(
        "def solve(args):\n"
        "    return [integrator.derive_seed(args.seed, k) for k in range(args.paths)]\n"
    )
    assert list(_seed_calls(tree)) == [("solve", 2)]


def test_derived_seed_is_the_raw_word_at_the_next_counter():
    """derive_seed(s, k) is the raw 64-bit word at counter k + 1 of seed s's
    own stream: its top 52 bits give the (k + 1)-th normal that a
    single-path solve draws at seed s.  Harmless for SplitMix64, pinned here
    so that a change to either rule is a deliberate one."""
    steps = 40
    for s in (0, 1, 2024, 2**64 - 1):
        words = np.array([derive_seed(s, k) for k in range(steps)], dtype=np.uint64)
        normals = integrator._ndtri(integrator._uniforms(words))
        assert normals.tobytes() == wiener_increments(s, steps, 1, 1.0)[:, 0].tobytes()
