"""Run every workload once untraced and once traced, and print all metrics.

Usage, from the root of a checkout:

    python3 perfbench/report.py [--seed N] [--seconds S] [--out FILE]

Each run is a fresh ``run.py`` process, so the process-wide caches start
empty as in a single run.  The table gives every metric by name with its unit, the number of ops
behind it and ``ops_failed_ratio``.  ``--out`` also writes the results,
with the machine and Python version, as JSON (``baseline.json`` holds the
first such record).
"""

import argparse
import json
import os
import platform
import subprocess
import sys

import run
import workloads


def run_once(name, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=900,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{name} trace {trace} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    results = {}
    for name in workloads.WORKLOADS:
        results[name] = {}
        for trace in (0, 1):
            res = run_once(name, args.seed, args.seconds, trace)
            results[name][f"trace{trace}"] = res
            print(f"{name}  trace {trace}  ops {res['attempted']}  "
                  f"ops_failed_ratio {res['failed'] / res['attempted']:.4f}  "
                  f"correct {res['correct']}", flush=True)
            for metric, v in res["metrics"].items():
                print(f"  {metric:<36} {v['value']:14.4f} {v['unit']}", flush=True)
    if args.out:
        record = {
            "machine": {
                "cpus": os.cpu_count(),
                "system": platform.system(),
                "arch": platform.machine(),
                "python": platform.python_version(),
            },
            "seed": args.seed,
            "seconds": args.seconds,
            "results": results,
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    ok = all(r[t]["correct"] for r in results.values() for t in r)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
