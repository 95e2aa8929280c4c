"""Print one pass/fail line per acceptance criterion at the end of a run, and
fail a test that leaves a child process running or unreaped."""

import os

import pytest

_ACCEPTANCE_RESULTS: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    _ACCEPTANCE_RESULTS[name] = report.outcome.upper()


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for name in sorted(_ACCEPTANCE_RESULTS):
        outcome = _ACCEPTANCE_RESULTS[name]
        marker = "PASS" if outcome == "PASSED" else outcome
        terminalreporter.write_line(f"  {marker}  {name}")


@pytest.fixture(autouse=True)
def no_child_process_left():
    """After each test this process has no child at all: a worker that was
    leaked, or exited without being reaped, fails the test that made it."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    state = "is still running" if pid == 0 else f"{pid} exited (status {status}) unreaped"
    pytest.fail(f"a child process {state}")
