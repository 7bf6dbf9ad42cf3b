"""Shared pytest plumbing: collect acceptance report lines and echo them
in the terminal summary, so the per-criterion PASS/FAIL lines are visible
even when output capture is on; and fail any test that leaves a worker
process running."""

import multiprocessing

import pytest

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def no_leaked_workers():
    yield
    leaked = multiprocessing.active_children()
    for process in leaked:  # so the next test starts without them
        process.terminate()
        process.join()
    assert leaked == [], f"the test left worker processes running: {leaked}"
