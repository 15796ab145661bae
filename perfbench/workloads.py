"""The benchmark's workloads: seeded inputs, program set-up, one op, checks.

Every workload is a closed loop with one client: the next op starts only
after the previous one returned.  Inputs come from the workload seed alone,
and every expected answer is the generator's own sum of the values it
produced, never a number computed by the package under test.

A workload goes through four phases:

* ``spec(seed)`` makes the plain-data inputs and expected answers; it does
  not touch the package, so a fresh interpreter can rebuild them before
  set-up is timed.
* ``setup(pkg, spec, work_dir)`` runs the program's own set-up calls; the
  ``setup_s`` metric times exactly this, plus the package import.
* ``prepare(pkg, spec, state, work_dir)`` turns the inputs into what the
  program consumes (signed ledgers, CLI files); it is not timed.
* ``op(pkg, spec, state, op_seed)`` runs one op and returns whether its
  outputs are correct; ``run_ok(spec, state)`` checks what only the whole
  run can show.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import random
import sys
import types
from datetime import datetime, timedelta, timezone

PACKAGE = "emissions_audit"
MODULES = ("groups", "commitment", "measurement", "audit", "pick", "harness", "cli")

START_HOUR = datetime(2024, 1, 1, tzinfo=timezone.utc)


def load_package(src_dir: str) -> types.SimpleNamespace:
    """Import the package from ``src_dir`` and nowhere else."""
    init = os.path.join(src_dir, PACKAGE, "__init__.py")
    if not os.path.isfile(init):
        raise ImportError(f"no {PACKAGE} package under {src_dir}")
    sys.path.insert(0, src_dir)
    pkg = importlib.import_module(PACKAGE)
    if os.path.realpath(pkg.__file__) != os.path.realpath(init):
        raise ImportError(f"{PACKAGE} was imported from {pkg.__file__}, not {src_dir}")
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
    )


def derive(seed: int, *labels) -> int:
    """Sub-seed for a labelled stream; kept apart from the package's own."""
    material = "|".join(map(str, (seed, *labels))).encode()
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


class Workload:
    """Defaults for the phases a workload does not need."""

    def prepare(self, pkg, spec, state, work_dir):
        return state

    def run_ok(self, spec, state):
        return True


class _SecpSession(Workload):
    """One honest ``harness.run_session`` per op on hash-derived secp256k1."""

    def setup(self, pkg, spec, work_dir):
        return pkg.commitment.setup(pkg.groups.group_by_name("secp256k1"), "hash_derived")

    def op(self, pkg, spec, config, op_seed):
        result = pkg.harness.run_session(config, seed=op_seed, record=True)
        v = result.verdict
        return (
            v.completed
            and v.accepted_m == spec["expected"]
            and len(v.v_list) == spec["k"]
            and result.transcript is not None
        )


class SessionN1000(_SecpSession):
    """Abstract-mode sessions at production size."""

    def __init__(self, n=1000, k=30):
        self.n, self.k = n, k

    def spec(self, seed):
        rng = random.Random(derive(seed, "session-n1000"))
        totals = [rng.randrange(1, 10**9) for _ in range(self.n)]
        return {"n": self.n, "k": self.k, "totals": totals, "expected": sum(totals),
                "trials_per_op": 1}

    def prepare(self, pkg, spec, pp, work_dir):
        firms = [pkg.audit.FirmSpec(firm_id=f"F{i:04d}", true_m=m)
                 for i, m in enumerate(spec["totals"])]
        return pkg.audit.SessionConfig(pp=pp, firms=tuple(firms), k=spec["k"],
                                       data_mode="abstract", pick_mode="env")


class IntegratedN4(_SecpSession):
    """Integrated-mode sessions over signed hourly ledgers."""

    def __init__(self, n=4, k=2, readings=2190):
        self.n, self.k, self.readings = n, k, readings

    def spec(self, seed):
        rng = random.Random(derive(seed, "integrated-n4"))
        values = [[rng.randrange(0, 5000) for _ in range(self.readings)]
                  for _ in range(self.n)]
        return {"n": self.n, "k": self.k, "values": values,
                "key_seed": derive(seed, "integrated-n4", "meter-keys"),
                "expected": sum(map(sum, values)), "trials_per_op": 1}

    def prepare(self, pkg, spec, pp, work_dir):
        ms = pkg.measurement
        key_rng = random.Random(spec["key_seed"])
        firms = []
        for i, values in enumerate(spec["values"]):
            fid = f"F{i + 1}"
            kp = ms.MeterKeypair.generate(key_rng)
            ledger = ms.FirmLedger.empty(fid)
            for h, e in enumerate(values):
                reading = kp.sign_reading(fid, START_HOUR + timedelta(hours=h), e)
                ms.append_reading(ledger, reading, kp.public_bytes)
            firms.append(pkg.audit.FirmSpec(firm_id=fid, ledger=ledger,
                                            meter_pk=kp.public_bytes))
        return pkg.audit.SessionConfig(pp=pp, firms=tuple(firms), k=spec["k"],
                                       data_mode="integrated", pick_mode="env")


class ToySimulate(Workload):
    """Batches of toy-group trials, joint pick, one firm inflating its total."""

    def __init__(self, n=10, k=3, trials=200):
        self.n, self.k, self.trials = n, k, trials

    def spec(self, seed):
        rng = random.Random(derive(seed, "toy-simulate"))
        ids = [f"F{i + 1}" for i in range(self.n)]
        cheat = rng.choice(ids)
        scenario = {
            "group": "toy", "k": self.k, "pick_mode": "joint",
            "firms": [{"id": fid, "m": rng.randrange(0, 10**6)} for fid in ids],
            "adversary": {"corrupted": [cheat],
                          "behaviors": {cheat: {"type": "tamper_report", "delta": 100}}},
            "seed": rng.randrange(1 << 31),
        }
        # The cheat is caught exactly when it is picked, at the spot check.
        return {"n": self.n, "trials_per_op": self.trials, "scenario": scenario,
                "expected": {"step": 6, "role": "firm", "rate": self.k / self.n}}

    def setup(self, pkg, spec, work_dir):
        return {"scenario": pkg.harness.scenario_from_dict(spec["scenario"]),
                "trials": 0, "detected": 0}

    def op(self, pkg, spec, state, op_seed):
        sc = state["scenario"]
        stats = pkg.harness.run_trials(sc.config, sc.adversary, trials=spec["trials_per_op"],
                                       seed=op_seed, structural_checks=True)
        stats.check_invariants()
        state["trials"] += stats.trials
        state["detected"] += stats.total_aborts
        want = spec["expected"]
        return (
            stats.trials == spec["trials_per_op"]
            and set(stats.aborts_by_step) <= {want["step"]}
            and set(stats.aborts_by_culprit_role) <= {want["role"]}
            and stats.completions == stats.accepted_wrong
        )

    def run_ok(self, spec, state):
        """Detection rate within five standard deviations of k/n."""
        p, t = spec["expected"]["rate"], state["trials"]
        return abs(state["detected"] - p * t) <= 5 * math.sqrt(t * p * (1 - p))


def _cli(pkg, argv):
    """Run the CLI in-process; return its exit code and last stdout JSON."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = pkg.cli.main(argv)
    lines = out.getvalue().strip().splitlines()
    try:
        return code, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return code, None


class CliN500(Workload):
    """The country's file-based aggregate plus the public sum check.

    The op reads only report and opening files, so the few readings per
    firm keep input generation short without changing the op.
    """

    def __init__(self, n=500, readings=4):
        self.n, self.readings = n, readings

    def spec(self, seed):
        rng = random.Random(derive(seed, "cli-n500"))
        values = [[rng.randrange(0, 5000) for _ in range(self.readings)]
                  for _ in range(self.n)]
        return {"n": self.n, "values": values, "seed": derive(seed, "cli-n500", "files"),
                "expected": sum(map(sum, values)), "trials_per_op": 1}

    def setup(self, pkg, spec, work_dir):
        pp = os.path.join(work_dir, "pp.json")
        code, _ = _cli(pkg, ["setup", "--group", "secp256k1", "--out", pp])
        if code != 0:
            raise RuntimeError(f"emissions-audit setup exited {code}")
        return pp

    def prepare(self, pkg, spec, pp, work_dir):
        reports, openings = [], []
        for i, values in enumerate(spec["values"]):
            fid = f"F{i:03d}"
            path = os.path.join(work_dir, fid)
            with open(path + ".csv", "w", encoding="utf-8") as fh:
                fh.write("hour,e\n")
                for h, e in enumerate(values):
                    hour = (START_HOUR + timedelta(hours=h)).strftime("%Y-%m-%dT%H:00:00Z")
                    fh.write(f"{hour},{e}\n")
            firm_seed = str(derive(spec["seed"], fid))
            steps = (
                ["ingest", "--firm-id", fid, "--readings", path + ".csv",
                 "--ledger", path + ".ledger", "--meter-key", path + ".key",
                 "--seed", firm_seed],
                ["report", "--pp", pp, "--ledger", path + ".ledger",
                 "--meter-key", path + ".key", "--cycle", "cycle-0", "--seed", firm_seed,
                 "--out", path + ".report", "--opening-out", path + ".opening"],
            )
            for argv in steps:
                code, _ = _cli(pkg, argv)
                if code != 0:
                    raise RuntimeError(f"emissions-audit {argv[0]} exited {code} for {fid}")
            reports += ["--report", path + ".report"]
            openings += ["--opening", path + ".opening"]
        sums = os.path.join(work_dir, "sums.json")
        return {
            "aggregate": ["aggregate", "--pp", pp, *reports, *openings, "--out", sums],
            "verify": ["verify-sum", "--pp", pp, *reports, "--sums", sums],
        }

    def op(self, pkg, spec, argvs, op_seed):
        code_a, out_a = _cli(pkg, argvs["aggregate"])
        code_v, out_v = _cli(pkg, argvs["verify"])
        return all(
            code == 0 and out is not None and out.get("verdict") == "ACCEPT"
            and out.get("m") == spec["expected"]
            for code, out in ((code_a, out_a), (code_v, out_v))
        )


WORKLOADS = {
    "session-n1000": SessionN1000,
    "integrated-n4": IntegratedN4,
    "toy-simulate": ToySimulate,
    "cli-n500": CliN500,
}


def make(name: str, **sizes):
    return WORKLOADS[name](**sizes)
