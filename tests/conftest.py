"""Shared test plumbing: the acceptance-criteria summary block, a
counter of fixed-base table builds and a log of Ed25519 verifies."""

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

        def __init__(self, point, bits):
            built.append(point)
            super().__init__(point, bits)

    monkeypatch.setattr(groups, "_FixedBaseTable", CountedTable)
    return built


@pytest.fixture()
def verified_messages(monkeypatch):
    """The message of every Ed25519 signature measurement checks during the
    test, in order."""
    from emissions_audit import measurement

    real = measurement.Ed25519PublicKey
    messages = []

    class CountingKey:
        def __init__(self, key):
            self.key = key

        @classmethod
        def from_public_bytes(cls, data):
            return cls(real.from_public_bytes(data))

        def verify(self, signature, message):
            messages.append(message)
            self.key.verify(signature, message)

    monkeypatch.setattr(measurement, "Ed25519PublicKey", CountingKey)
    return messages
