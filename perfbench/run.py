"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the ops run untraced and the end-to-end metrics are
reported.  With ``--trace 1`` the first half of the time runs untraced and
the second half traced, and the per-layer metrics are reported, together
with the tracing overhead (traced minus untraced median op latency).
Times are rescaled to a fixed reference speed (see ``speed.py``); the raw
wall-clock median is printed as well.  Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

The package is imported from ``src/`` of the checkout this file sits in.
Without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import spans
import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

# Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_PROBES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "firms_per_s": "1/s",
    "trials_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Span name -> the per-layer figures reported for it.  "calls" and the
# times are per op; commitment.setup is per set-up, since no op calls it.
LAYER_SPANS = {
    "groups.mul": ("calls", "self_ms"),
    "groups.point_add": ("calls", "self_ms"),
    "groups.decode_point": ("calls", "self_ms"),
    "groups.encode_point": ("calls", "self_ms"),
    "commitment.commit": ("calls", "ms"),
    "commitment.verify_opening": ("calls", "ms"),
    "commitment.setup": ("ms",),
    "measurement.verify_reading": ("calls", "self_ms"),
    "measurement.chain_head": ("calls", "self_ms"),
    "measurement.aggregate": ("calls", "ms"),
    "measurement.spot_check": ("calls", "ms"),
    **{f"audit.{step}": ("ms",) for step in spans.AUDIT_STEPS},
    "pick.run_pick": ("calls", "ms"),
    "harness.record": ("calls", "self_ms"),
    "harness.routing_violations": ("ms",),
    "cli.aggregate": ("ms",),
    "cli.verify_sum": ("ms",),
}


def tail(latencies: list[float]) -> float:
    """The highest order statistic with at least ten ops above it.

    With ten ops or fewer no such value exists; the lowest is used.
    """
    ordered = sorted(latencies)
    return ordered[max(0, len(ordered) - 11)]


def probe_setup(name: str, seed: int, sizes: dict, work_dir: str) -> list[dict]:
    script = os.path.join(HERE, "setup_probe.py")
    times = []
    for i in range(SETUP_PROBES):
        probe_dir = os.path.join(work_dir, f"probe-{i}")
        os.mkdir(probe_dir)
        done = subprocess.run(
            [sys.executable, script, name, str(seed), json.dumps(sizes), SRC, probe_dir],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        times.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return times


def measure(wl, pkg, spec, state, seed, seconds, sampler, first_op=0, tracer=None):
    """Closed loop: run ops back to back for ``seconds``; at least one.

    Returns each op's latency rescaled to the reference speed, the raw
    wall-clock latencies, and the number of failed ops.
    """
    scaled, raw, failed = [], [], 0
    start = time.perf_counter()
    i = first_op
    while not raw or time.perf_counter() - start < seconds:
        op_seed = workloads.derive(seed, "op", i)
        spent = sampler.spent
        t0 = time.perf_counter()
        try:
            if tracer is None:
                ok = wl.op(pkg, spec, state, op_seed)
            else:
                tracer.op_id = i
                with tracer.span("op"):
                    ok = wl.op(pkg, spec, state, op_seed)
        except Exception:  # a crashing op is a failed op; keep measuring
            traceback.print_exc(file=sys.stderr)
            ok = False
        t1 = time.perf_counter()
        raw.append(t1 - t0 - (sampler.spent - spent))
        scaled.append(raw[-1] * sampler.scale(t0, t1))
        failed += not ok
        i += 1
    return scaled, raw, failed


def run_workload(name, seed, seconds, trace, sizes=None, spec_hook=None):
    """Run one workload in this process; return (result dict, report lines).

    ``sizes`` shrinks the workload (the self-test uses it) and
    ``spec_hook`` may alter the generated spec before use.
    """
    sizes = sizes or {}
    pkg = workloads.load_package(SRC)
    wl = workloads.make(name, **sizes)
    spec = wl.spec(seed)
    if spec_hook is not None:
        spec_hook(spec)
    os.makedirs(WORK, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    try:
        return _run(pkg, wl, name, spec, seed, seconds, trace, sizes, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _run(pkg, wl, name, spec, seed, seconds, trace, sizes, work_dir):
    lines = [f"workload {name}  seed {seed}  seconds {seconds}  trace {trace}"]
    if not trace:
        probes = probe_setup(name, seed, sizes, work_dir)
    with speed.SpeedSampler() as sampler:
        if trace:
            setup_tracer = spans.Tracer(pkg)
            setup_tracer.op_id = "setup"
            setup_tracer.install()
            t0 = time.perf_counter()
            try:
                with setup_tracer.span("setup"):
                    state = wl.setup(pkg, spec, work_dir)
            finally:
                setup_tracer.uninstall()
            setup_scale = sampler.scale(t0, time.perf_counter())
        else:
            state = wl.setup(pkg, spec, work_dir)
        state = wl.prepare(pkg, spec, state, work_dir)

        if trace:
            plain, plain_raw, failed_plain = measure(wl, pkg, spec, state, seed,
                                                     seconds / 2, sampler)
            op_tracer = spans.Tracer(pkg, first_id=setup_tracer.next_id)
            op_tracer.install()
            t0 = time.perf_counter()
            try:
                traced, traced_raw, failed_traced = measure(
                    wl, pkg, spec, state, seed, seconds / 2, sampler,
                    first_op=len(plain), tracer=op_tracer)
            finally:
                op_tracer.uninstall()
            ops_scale = sampler.scale(t0, time.perf_counter())
        else:
            latencies, raw, failed = measure(wl, pkg, spec, state, seed, seconds, sampler)

    if trace:
        latencies, raw = plain + traced, plain_raw + traced_raw
        failed = failed_plain + failed_traced
        metrics = _layer_metrics(setup_tracer, setup_scale, op_tracer, ops_scale, len(traced))
        p50_plain = statistics.median(plain) * 1e3
        metrics["tracing.untraced_op_p50_ms"] = p50_plain
        metrics["tracing.overhead_ms"] = statistics.median(traced) * 1e3 - p50_plain
        units = {m: ("count" if m.endswith(".calls") else "ms") for m in metrics}
        trace_dir = os.path.join(WORK, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(trace_dir, f"{name}-seed{seed}.jsonl")
        with open(trace_path, "w", encoding="utf-8") as fh:
            setup_tracer.write(fh)
            op_tracer.write(fh)
        lines.append(f"ops {len(plain)} untraced + {len(traced)} traced; "
                     f"{len(setup_tracer.kept) + len(op_tracer.kept)} spans kept, "
                     f"{setup_tracer.dropped + op_tracer.dropped} dropped, "
                     f"written to {os.path.relpath(trace_path, ROOT)}")
    else:
        busy = sum(latencies)
        metrics = {
            "setup_s": statistics.median(p["setup_s"] for p in probes),
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_tail_ms": tail(latencies) * 1e3,
            "firms_per_s": spec["n"] * spec["trials_per_op"] * len(latencies) / busy,
            "trials_per_s": spec["trials_per_op"] * len(latencies) / busy,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
        lines.append(f"setup_s from {len(probes)} fresh interpreters; raw wall-clock "
                     f"median {statistics.median(p['raw_s'] for p in probes):.4f} s")

    run_ok = wl.run_ok(spec, state)
    lines.append(f"raw wall-clock op p50 {statistics.median(raw) * 1e3:.4f} ms; "
                 f"reference samples {len(sampler.durations)}, "
                 f"median {statistics.median(sampler.durations) * 1e3:.4f} ms")
    lines.append(f"ops attempted {len(latencies)}, failed {failed}, "
                 f"ops_failed_ratio {failed / len(latencies):.4f}, "
                 f"run-level check {'passed' if run_ok else 'FAILED'}")
    for metric, value in metrics.items():
        lines.append(f"  {metric:<36} {value:14.4f} {units[metric]}")
    result = {
        "correct": failed == 0 and run_ok,
        "attempted": len(latencies),
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    return result, lines


def _layer_metrics(setup_tracer, setup_scale, op_tracer, ops_scale, ops):
    metrics = {}
    for span, kinds in LAYER_SPANS.items():
        if span == "commitment.setup":
            source, per, scale = setup_tracer, 1, setup_scale
        else:
            source, per, scale = op_tracer, ops, ops_scale
        for kind in kinds:
            if kind == "calls":
                value = source.calls.get(span, 0) / per
            else:
                ns = source.self_ns if kind == "self_ms" else source.total_ns
                value = ns.get(span, 0) / per / 1e6 * scale
            metrics[f"{span}.{kind}"] = value
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, lines = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except ImportError as exc:
        print(f"perfbench: cannot load the package: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
