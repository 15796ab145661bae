"""Time one workload's set-up in a fresh interpreter.

Usage: python3 setup_probe.py WORKLOAD SEED SIZES_JSON SRC_DIR WORK_DIR

The secp256k1 fixed-base tables live in a process-wide cache, so only a
new interpreter pays the set-up a user pays.  The inputs are rebuilt
before the clock starts; the package import and the workload's own
set-up calls are timed, with the clock rescaled to the reference speed
as in ``speed``.  Prints ``{"setup_s": ..., "raw_s": ...}``, the rescaled
and the wall-clock set-up time.
"""

import json
import sys
import time

import speed
import workloads


def main(argv):
    name, seed, sizes, src_dir, work_dir = argv
    wl = workloads.make(name, **json.loads(sizes))
    spec = wl.spec(int(seed))
    # Set-up lasts a fraction of a second, so sample the speed more often.
    with speed.SpeedSampler(interval=0.01) as sampler:
        spent = sampler.spent
        start = time.perf_counter()
        pkg = workloads.load_package(src_dir)
        wl.setup(pkg, spec, work_dir)
        end = time.perf_counter()
        raw = end - start - (sampler.spent - spent)
    print(json.dumps({"setup_s": raw * sampler.scale(start, end), "raw_s": raw}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
