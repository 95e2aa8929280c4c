"""One seed site: within the package only stats.run_ensemble calls derive_seed,
so every method's per-path seeds are derived in exactly one place."""

import ast
from pathlib import Path

import sdaekit


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
