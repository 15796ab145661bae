"""Self-test of the benchmark itself, on tiny inputs (about half a minute).

Usage, from the root of a checkout:  python3 perfbench/selftest.py

Checks that
* an untraced tiny run of every workload reports exactly the end-to-end
  metrics BENCHMARK.json names, with their units, and no failed op;
* a traced tiny run reports exactly the per-layer metrics it names;
* a deliberately corrupted expected answer makes ops fail, so the
  correctness checks can fail;
* in a directory holding only BENCHMARK.json and the benchmark, a run
  exits with a non-zero code and prints no result.
Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import run

TINY = {
    "session-n1000": {"n": 20, "k": 3},
    "integrated-n4": {"n": 2, "k": 1, "readings": 24},
    "toy-simulate": {"trials": 20},
    "cli-n500": {"n": 10, "readings": 4},
}


def corrupt(spec):
    """Make the expected answer wrong, whatever its shape."""
    if isinstance(spec["expected"], int):
        spec["expected"] += 1
    else:
        spec["expected"]["step"] -= 1


def bare_directory_fails() -> bool:
    os.makedirs(run.WORK, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.WORK)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "toy-simulate",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        return done.returncode != 0 and not done.stdout.strip()
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    wanted = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for name, sizes in TINY.items():
        for trace in (0, 1):
            result, lines = run.run_workload(name, 1, 0.5, trace, sizes=sizes)
            print("\n".join(lines))
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{name} trace {trace}: metrics {sorted(got)} "
                                f"do not match BENCHMARK.json")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace {trace}: ops failed on honest inputs")
        result, _ = run.run_workload(name, 1, 0.2, 1, sizes=sizes, spec_hook=corrupt)
        ratio = result["failed"] / result["attempted"]
        print(f"{name}: corrupted expected answer gives ops_failed_ratio {ratio:.2f}")
        if ratio == 0 or result["correct"]:
            problems.append(f"{name}: a corrupted expected answer went unnoticed")
    if not bare_directory_fails():
        problems.append("a run without src/ did not fail cleanly")
    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
