"""Statement coverage of ``src/sdaekit`` over the test suite, stdlib only.

Not a test (pytest does not collect it) and not part of tier-1.  Run from
the repository root:

    PYTHONPATH=src python3 tests/coverage_scan.py                 # the summary
    PYTHONPATH=src python3 tests/coverage_scan.py --list          # every unrun statement
    PYTHONPATH=src python3 tests/coverage_scan.py --function integrator._step_loop \\
        -- tests/test_integrator.py                               # one function, one file

Arguments after ``--`` go to pytest (default: the whole suite, quietly).
The scan pins itself to one CPU, so ensembles run their batches in this
process: a forked worker's hits are lost with it, and what runs only in a
worker (most of ``_workers.py``) shows as unrun.

A ``sys.settrace`` hook records every line run in a file of the package.
The statements are read from each file's syntax tree: a simple statement
counts as run when any of its lines ran, a compound one when a line of its
header did (``def`` and ``class`` with their decorators, an ``if`` or
``while`` with its test, a ``for`` with its target and iterable, a ``with``
with its items).  Docstrings and the statements that compile to no code
(``try``, ``global``, ``nonlocal``) are not counted.  The suite runs about
twice as slowly under the hook.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sdaekit"
_NO_CODE = tuple(getattr(ast, name) for name in ("Try", "TryStar", "Global", "Nonlocal")
                 if hasattr(ast, name))


def _header_end(node: ast.stmt) -> int:
    """The last line of a statement's header: the line before its body for a
    compound statement, its last line for a simple one."""
    if isinstance(node, (ast.If, ast.While)):
        return node.test.end_lineno
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return node.iter.end_lineno
    if isinstance(node, (ast.With, ast.AsyncWith)):
        return node.items[-1].context_expr.end_lineno
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return node.body[0].lineno - 1
    return node.end_lineno


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    body = getattr(parent, "body", None)
    return (isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and body and body[0] is node and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str))


def statements(path: Path) -> list[tuple[str, int, range]]:
    """(enclosing qualified name, first line, lines that count as running it)
    for each counted statement of one source file."""
    found = []

    def walk(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, ast.stmt):
                continue
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if not (isinstance(child, _NO_CODE) or _is_docstring(child, node)):
                decorators = getattr(child, "decorator_list", [])
                first = min([child.lineno] + [d.lineno for d in decorators])
                found.append((inner, first, range(first, _header_end(child) + 1)))
            walk(child, inner)

    walk(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def trace_suite(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """The suite's exit code and the lines it ran in each package file."""
    import pytest

    prefix = str(PACKAGE) + os.sep
    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        lines = hits.setdefault(filename, set())
        lines.add(frame.f_lineno)  # the call line: a function wholly run on one line
        return local

    threading.settrace(global_)
    sys.settrace(global_)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    pytest_args = ["-q", "-p", "no:cacheprovider"]
    if "--" in argv:
        cut = argv.index("--")
        argv, pytest_args = argv[:cut], pytest_args + argv[cut + 1:]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--list", action="store_true", help="print every unrun statement")
    ap.add_argument("--function", default=None,
                    help="report one function, as module.qualname (e.g. integrator._step_loop)")
    args = ap.parse_args(argv)

    os.chdir(ROOT)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    code, hits = trace_suite(pytest_args)

    total = unrun = 0
    per_file = []
    for path in sorted(PACKAGE.glob("*.py")):
        ran = hits.get(str(path), set())
        module = path.stem
        missed = []
        for scope, first, lines in statements(path):
            if args.function is not None:
                name = f"{module}.{scope}"
                if name != args.function and not name.startswith(args.function + "."):
                    continue
            total += 1
            if ran.isdisjoint(lines):
                unrun += 1
                missed.append((first, scope))
        if missed:
            per_file.append((path.name, missed))

    print(f"\npytest exit code {code}")
    what = args.function or "src/sdaekit"
    print(f"{what}: {unrun} of {total} statements never run")
    for name, missed in per_file:
        print(f"  {name}: {len(missed)}")
        if args.list or args.function is not None:
            for first, scope in missed:
                print(f"    {name}:{first}  {scope or '<module>'}")
    return code


if __name__ == "__main__":
    sys.exit(main())
