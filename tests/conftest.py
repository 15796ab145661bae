"""Shared test plumbing: the acceptance-criteria summary block and a
counter of fixed-base table builds."""

import pytest

ACCEPTANCE_LINES: list[str] = []


@pytest.fixture()
def criterion():
    """Record one pass/fail line for an acceptance criterion.

    Usage: ``criterion(ok, "A3 trapdoor-extraction: 100/100 exact")``.
    The line lands in the terminal summary after the test run and the
    assertion fails the test when ok is false.
    """

    def _record(ok: bool, text: str):
        line = f"[{'PASS' if ok else 'FAIL'}] {text}"
        ACCEPTANCE_LINES.append(line)
        assert ok, line

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture()
def table_builds(monkeypatch):
    """The bases of every secp256k1 fixed-base table built during the test."""
    from emissions_audit import groups

    built = []

    class CountedTable(groups._FixedBaseTable):
        __slots__ = ()

        def __init__(self, point):
            built.append(point)
            super().__init__(point)

    monkeypatch.setattr(groups, "_FixedBaseTable", CountedTable)
    return built
