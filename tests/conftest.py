"""Shared pytest plumbing: no test reads a developer's oracle table cache,
and the acceptance criterion lines are echoed in the terminal summary so
they are visible without -s."""

import sys

import pytest


@pytest.fixture(autouse=True, scope="session")
def _no_table_cache():
    # SECANT_CACHE_DIR is the one cache switch; unset before any fixture of
    # a narrower scope builds a table.  A test that exercises the cache
    # sets it to its own temporary directory with monkeypatch.
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("SECANT_CACHE_DIR", raising=False)
        yield


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = (sys.modules.get("test_acceptance")
           or sys.modules.get("tests.test_acceptance"))
    lines = getattr(mod, "CRITERION_LINES", None) if mod else None
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
