"""One singularity rule: SINGULAR_TOL is compared only inside problem.regular."""

import ast
from pathlib import Path

import sdaekit

_ORDER = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _tol_comparisons(tree: ast.AST):
    """(enclosing function, line) of every <, <=, >, >= with SINGULAR_TOL in it."""

    def walk(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Compare) and any(isinstance(op, _ORDER) for op in node.ops):
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            if "SINGULAR_TOL" in names:
                yield func, node.lineno
        for child in ast.iter_child_nodes(node):
            yield from walk(child, func)

    yield from walk(tree, None)


def test_singular_tol_is_compared_only_in_regular():
    sites = []
    for path in sorted(Path(sdaekit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        sites += [(path.name, func, line) for func, line in _tol_comparisons(tree)]
    stray = [site for site in sites if site[:2] != ("problem.py", "regular")]
    assert not stray, f"SINGULAR_TOL compared outside problem.regular at {stray}; call regular"
    assert len(sites) == 1, "problem.regular no longer compares SINGULAR_TOL"


def test_scan_sees_a_hand_written_copy():
    tree = ast.parse("def guard(det):\n    return abs(det) <= problem.SINGULAR_TOL\n")
    assert list(_tol_comparisons(tree)) == [("guard", 2)]
