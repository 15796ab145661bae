"""Span tracing for the benchmark, patched onto the package from outside.

Each traced call site gets a wrapper that records a span (name, start, end,
parent span, op id).  Where a module imported a name directly (``from
.commitment import commit``), the wrapper goes on that importing module,
because patching the defining module would not reach the copy.  The
package's own source is never edited.

``commitment.commit`` is wrapped only where other modules call it, so the
``commit`` inside ``verify_opening`` counts toward ``verify_opening`` and
not toward ``commitment.commit``.
"""

from __future__ import annotations

import contextlib
import json
import time

AUDIT_STEPS = (
    "step1_setup", "step2_reports", "step3_examine", "step4_publish",
    "step5_reveal", "step6_spot_checks", "step7_sum_check",
)

# (module name, class name or None, attribute, span name).  Sites that a
# later version of the package no longer has are skipped.
SITES = (
    ("groups", "Group", "mul", "groups.mul"),
    ("groups", "Secp256k1Group", "mul", "groups.mul"),
    ("groups", "CurvePoint", "__add__", "groups.point_add"),
    ("groups", "ToyPoint", "__add__", "groups.point_add"),
    ("groups", "Secp256k1Group", "decode_point", "groups.decode_point"),
    ("groups", "ToyGroup", "decode_point", "groups.decode_point"),
    ("groups", "Secp256k1Group", "encode_point", "groups.encode_point"),
    ("groups", "ToyGroup", "encode_point", "groups.encode_point"),
    ("audit", None, "commit", "commitment.commit"),
    ("measurement", None, "commit", "commitment.commit"),
    ("pick", None, "commit", "commitment.commit"),
    ("cli", None, "commit", "commitment.commit"),
    ("audit", None, "verify_opening", "commitment.verify_opening"),
    ("measurement", None, "verify_opening", "commitment.verify_opening"),
    ("pick", None, "verify_opening", "commitment.verify_opening"),
    ("cli", None, "verify_opening", "commitment.verify_opening"),
    ("harness", None, "verify_opening", "commitment.verify_opening"),
    ("commitment", None, "setup", "commitment.setup"),
    ("harness", None, "setup", "commitment.setup"),
    ("pick", None, "setup", "commitment.setup"),
    ("cli", None, "setup", "commitment.setup"),
    ("measurement", None, "verify_reading", "measurement.verify_reading"),
    ("measurement", None, "chain_head", "measurement.chain_head"),
    ("measurement", None, "aggregate", "measurement.aggregate"),
    ("audit", None, "aggregate", "measurement.aggregate"),
    ("measurement", None, "spot_check", "measurement.spot_check"),
    ("audit", None, "spot_check", "measurement.spot_check"),
    *(("audit", "AuditSession", step, f"audit.{step}") for step in AUDIT_STEPS),
    ("pick", None, "run_pick", "pick.run_pick"),
    ("harness", "Transcript", "record", "harness.record"),
    ("harness", None, "routing_violations", "harness.routing_violations"),
    ("cli", None, "cmd_aggregate", "cli.aggregate"),
    ("cli", None, "cmd_verify_sum", "cli.verify_sum"),
)

# Raw spans beyond this many are summarised but not kept, so a long traced
# run of tiny calls cannot grow without bound.
MAX_KEPT_SPANS = 20_000


class Tracer:
    """Records spans while installed; sums them per op and per name."""

    def __init__(self, package, first_id: int = 0):
        self._package = package
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # [span id, name, start ns, child ns]
        self.next_id = first_id
        self.op_id = None
        self.kept: list[tuple] = []  # (id, parent, name, start, end, op)
        self.dropped = 0
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}

    def install(self) -> None:
        for module_name, class_name, attr, span_name in SITES:
            owner = getattr(self._package, module_name)
            if class_name is not None:
                owner = getattr(owner, class_name, None)
            # Only attributes the owner defines itself: patching an
            # inherited one would shadow the base class's wrapper.
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span_name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name):
        stack = self._stack
        clock = time.perf_counter_ns

        # span() inlined: toy-simulate makes some 40 000 traced calls per
        # op, and a generator-based context manager would double the cost.
        def traced(*args, **kwargs):
            span_id = self.next_id
            self.next_id = span_id + 1
            frame = [span_id, name, clock(), 0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._close(frame, end)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, around a block."""
        frame = [self.next_id, name, time.perf_counter_ns(), 0]
        self.next_id += 1
        self._stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self._close(frame, end)

    def _close(self, frame, end) -> None:
        span_id, name, start, child_ns = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total_ns[name] = self.total_ns.get(name, 0) + duration
        self.self_ns[name] = self.self_ns.get(name, 0) + duration - child_ns
        if len(self.kept) < MAX_KEPT_SPANS:
            self.kept.append(
                (span_id, parent[0] if parent else None, name, start, end, self.op_id)
            )
        else:
            self.dropped += 1

    def write(self, fh) -> None:
        """Write the kept spans to an open text file, one JSON line each."""
        for span_id, parent, name, start, end, op in self.kept:
            fh.write(json.dumps({
                "id": span_id, "parent": parent, "name": name,
                "start_ns": start, "end_ns": end, "op": op,
            }) + "\n")
