"""Acceptance suite: the end-to-end guarantees, at pinned tolerances.

Each test checks one headline property and reports exactly one pass/fail
line in the terminal summary.  A1-A3 are exact cryptographic checks, A4-A8
exercise the protocol engine at scale, A9 covers the measurement pipeline.
"""

import dataclasses
import itertools
import random
import time
from collections import Counter
from datetime import timedelta

import pytest

from emissions_audit.audit import (
    COUNTRY_ID,
    FirmSpec,
    SessionConfig,
    VERIFIER_ID,
)
from emissions_audit.commitment import (
    commit,
    extract_trapdoor_from_collision,
    equivocate,
    random_blinding,
    setup,
    verify_opening,
)
from emissions_audit.groups import production_group, toy_group
from emissions_audit.harness import (
    AdversarySpec,
    Deviation,
    derive_seed,
    leakage_violations,
    routing_violations,
    run_pick_trials,
    run_session,
    run_trials,
    subset_chi_square,
)
from emissions_audit.measurement import (
    FirmLedger,
    LedgerEntry,
    MeterKeypair,
    aggregate,
    append_reading,
    parse_hour,
    spot_check,
)
from emissions_audit.pick import (
    COUNTRY,
    PickStrategy,
    VERIFIER,
    run_pick,
)


def _abstract_config(pp, true_ms, k, **kw):
    firms = tuple(FirmSpec(f"F{i + 1}", true_m=m) for i, m in enumerate(true_ms))
    return SessionConfig(pp=pp, firms=firms, k=k, **kw)


# ---------------------------------------------------------------------------
# A1: commitment opening correctness, both groups, 1000 pairs, exact.
# ---------------------------------------------------------------------------


def test_a1_opening_correctness(criterion):
    start = time.perf_counter()
    rng = random.Random(derive_seed(0, "a1"))
    good = 0
    total = 0
    for group in (toy_group(), production_group()):
        pp = setup(group, "hash_derived")
        for _ in range(500):
            m = pp.group.scalar(rng.randrange(pp.q))
            r = random_blinding(pp, rng)
            c = commit(pp, m, r)
            ok = (
                verify_opening(pp, c, m, r)
                and not verify_opening(pp, c, m + pp.group.scalar(1), r)
                and not verify_opening(pp, c, m, r + pp.group.scalar(1))
            )
            good += ok
            total += 1
    elapsed = time.perf_counter() - start
    criterion(
        good == total == 1000 and elapsed < 5.0,
        f"A1 opening-correctness: {good}/1000 exact on toy+secp256k1 "
        f"in {elapsed:.2f}s (budget 5s)",
    )


# ---------------------------------------------------------------------------
# A2: perfect hiding, 10 message pairs, exhaustive blinding multisets.
# ---------------------------------------------------------------------------


def test_a2_exhaustive_hiding(criterion):
    start = time.perf_counter()
    pp = setup(toy_group(), "hash_derived")
    rng = random.Random(derive_seed(0, "a2"))
    identical = 0
    pairs = []
    while len(pairs) < 10:
        m1, m2 = rng.randrange(pp.q), rng.randrange(pp.q)
        if m1 != m2:
            pairs.append((m1, m2))
    for m1, m2 in pairs:
        d1 = sorted(
            commit(pp, pp.group.scalar(m1), pp.group.scalar(r)).value
            for r in range(pp.q)
        )
        d2 = sorted(
            commit(pp, pp.group.scalar(m2), pp.group.scalar(r)).value
            for r in range(pp.q)
        )
        identical += d1 == d2
    elapsed = time.perf_counter() - start
    criterion(
        identical == 10 and elapsed < 10.0,
        f"A2 exhaustive-hiding: {identical}/10 message pairs give identical "
        f"commitment multisets over all blindings in {elapsed:.2f}s (budget 10s)",
    )


# ---------------------------------------------------------------------------
# A3: binding break surrenders the trapdoor, 100 collisions, exact.
# ---------------------------------------------------------------------------


def test_a3_collision_extracts_trapdoor(criterion):
    rng = random.Random(derive_seed(0, "a3"))
    group = toy_group()
    correct = 0
    for _ in range(100):
        pp = setup(group, "trusted", rng)
        m1 = pp.group.scalar(rng.randrange(pp.q))
        r1 = random_blinding(pp, rng)
        m2 = pp.group.scalar(rng.randrange(pp.q))
        while m2 == m1:
            m2 = pp.group.scalar(rng.randrange(pp.q))
        r2 = equivocate(pp, m1, r1, m2)
        extracted = extract_trapdoor_from_collision(pp, m1, r1, m2, r2)
        # Two independent referees: the setup's own trapdoor and an
        # exhaustive discrete-log search for H over the toy group.
        correct += (
            extracted == pp.trapdoor
            and group.brute_force_dlog(pp.h) == extracted.value
        )
    criterion(
        correct == 100,
        f"A3 trapdoor-from-collision: {correct}/100 extracted values match "
        f"the brute-forced dlog of H exactly",
    )


# ---------------------------------------------------------------------------
# A4: detection rate equals the selection probability k/n.
# ---------------------------------------------------------------------------


def test_a4_detection_rate_matches_selection_probability(criterion):
    start = time.perf_counter()
    pp = setup(toy_group(), "hash_derived")
    config = _abstract_config(pp, [100 * (i + 1) for i in range(10)], k=3)
    adversary = AdversarySpec(
        frozenset({"F3"}), {"F3": Deviation(delta=100)}
    )
    stats = run_trials(config, adversary, trials=20000, seed=0,
                       structural_checks=False)
    rate = stats.abort_rate_at(6)

    always = _abstract_config(pp, [100 * (i + 1) for i in range(10)], k=10)
    stats_all = run_trials(always, adversary, trials=1000, seed=1,
                           structural_checks=False)
    rate_all = stats_all.abort_rate_at(6)
    elapsed = time.perf_counter() - start
    criterion(
        0.289 <= rate <= 0.311 and rate_all == 1.0 and elapsed < 120.0,
        f"A4 detection-rate: abort-at-spot-check rate {rate:.4f} in "
        f"[0.289, 0.311] over 20000 trials (k/n=0.3); {rate_all:.1f} at k=n; "
        f"{elapsed:.1f}s (budget 120s)",
    )


# ---------------------------------------------------------------------------
# A5: selection fairness, exhaustively and against biased strategies.
# ---------------------------------------------------------------------------


def test_a5a_exhaustive_coin_enumeration_is_unbiased(criterion):
    pp = setup(toy_group(), "hash_derived")
    roster = [f"F{i}" for i in range(1, 6)]
    subsets = Counter()
    for c1, v1 in itertools.product(range(5), repeat=2):
        for c2, v2 in itertools.product(range(4), repeat=2):
            out = run_pick(
                roster, 2, pp, random.Random(0),
                strategies={
                    COUNTRY: PickStrategy([c1, c2]),
                    VERIFIER: PickStrategy([v1, v2]),
                },
            )
            subsets[frozenset(out.picked)] += 1
    counts = sorted(subsets.values())
    criterion(
        len(subsets) == 10 and set(counts) == {40},
        f"A5a exhaustive-coins: all 400 coin pairs enumerated, every one of "
        f"the 10 subsets picked exactly {counts[0]} times",
    )


@pytest.mark.parametrize(
    "label,strategies",
    [
        ("zero-country", {COUNTRY: PickStrategy("zero")}),
        ("max-verifier", {VERIFIER: PickStrategy("max")}),
        ("rushing-country", {COUNTRY: PickStrategy("peer_seeded")}),
    ],
)
def test_a5b_biased_strategies_cannot_skew_selection(criterion, label, strategies):
    roster = [f"F{i}" for i in range(1, 6)]
    counts = run_pick_trials(roster, 2, trials=100_000,
                             seed=derive_seed(0, "a5b", label),
                             strategies=strategies)
    _, p = subset_chi_square(counts, roster, 2)
    criterion(
        p > 0.001,
        f"A5b pick-bias[{label}]: subset chi-square p={p:.4f} > 0.001 "
        f"over 100000 trials with one honest party",
    )


# ---------------------------------------------------------------------------
# A6: the homomorphic sum check accepts exactly the true aggregates.
# ---------------------------------------------------------------------------


def test_a6_sum_check_sound_and_complete(criterion):
    pp = setup(toy_group(), "hash_derived")
    rng = random.Random(derive_seed(0, "a6"))

    homomorphic_ok = 0
    accept_ok = 0
    sessions = 200
    for i in range(sessions):
        n = rng.randrange(1, 65)
        k = rng.randrange(0, n + 1)
        true_ms = [rng.randrange(10**6) for _ in range(n)]
        config = _abstract_config(pp, true_ms, k=k)
        result = run_session(config, seed=derive_seed(1, "a6", i))
        transcript = result.transcript
        total_c = pp.group.identity
        for ev in transcript.events:
            if ev.kind == "commitment":
                total_c = total_c + pp.group.decode_point(bytes.fromhex(ev.payload["c"]))
        sum_ev = next(ev for ev in transcript.events if ev.kind == "sum")
        m_pub = sum_ev.payload["m"]
        r_pub = pp.group.decode_scalar(bytes.fromhex(sum_ev.payload["r"]))
        homomorphic_ok += verify_opening(
            pp, total_c, pp.group.scalar(m_pub), r_pub
        ) and m_pub == sum(true_ms)
        accept_ok += result.verdict.completed and result.verdict.accepted_m == sum(true_ms)

    perturbed_aborts = 0
    perturbations = 1000
    for i in range(perturbations):
        n = rng.randrange(2, 9)
        true_ms = [1 + rng.randrange(1000) for _ in range(n)]
        config = _abstract_config(pp, true_ms, k=0)
        dm = 1 if i % 2 == 0 else -1
        adversary = AdversarySpec(
            frozenset({COUNTRY_ID}), {COUNTRY_ID: Deviation(dm=dm)}
        )
        result = run_session(config, adversary, seed=derive_seed(2, "a6", i),
                             record=False)
        abort = result.verdict.abort
        perturbed_aborts += abort is not None and abort.step == 7
    criterion(
        homomorphic_ok == sessions and accept_ok == sessions
        and perturbed_aborts == perturbations,
        f"A6 sum-check: {homomorphic_ok}/200 sessions (n<=64) have "
        f"sum(c_i) == commit(sum m, sum r) and accept the true total; "
        f"{perturbed_aborts}/1000 off-by-one publications abort at the sum check",
    )


# ---------------------------------------------------------------------------
# A7: unpicked honest openings stay out of every other view.
# ---------------------------------------------------------------------------


def test_a7_no_leakage_of_unpicked_openings(criterion):
    pp = setup(toy_group(), "hash_derived")
    rng = random.Random(derive_seed(0, "a7"))
    violations = 0
    sessions = 1000
    for i in range(sessions):
        n = rng.randrange(2, 11)
        k = rng.randrange(0, n + 1)
        true_ms = [rng.randrange(1000) for _ in range(n)]
        config = _abstract_config(pp, true_ms, k=k)
        watchers = set()
        if i % 2:
            # Half the runs mark a firm and the verifier as observed
            # coalition members; they still must learn nothing extra.
            watchers = {f"F{rng.randrange(1, n + 1)}", VERIFIER_ID}
        adversary = AdversarySpec(corrupted=frozenset(watchers))
        transcript = run_session(config, adversary,
                                 seed=derive_seed(1, "a7", i)).transcript
        violations += len(routing_violations(transcript))
        violations += len(leakage_violations(transcript))
    criterion(
        violations == 0,
        f"A7 opening-privacy: {violations} leakage/routing violations across "
        f"1000 recorded sessions (firms and verifier views)",
    )


# ---------------------------------------------------------------------------
# A8: a consistent lie survives everything except being picked.
# ---------------------------------------------------------------------------


def test_a8_consistent_misreport_caught_only_by_spot_check(criterion):
    pp = setup(toy_group(), "hash_derived")
    adversary = AdversarySpec(
        frozenset({"F2"}), {"F2": Deviation(delta=50)}
    )
    trials = 300

    unpicked = _abstract_config(pp, [10, 20, 30], k=0)
    stats0 = run_trials(unpicked, adversary, trials=trials, seed=0,
                        structural_checks=False)
    passed = stats0.completions
    wrong = stats0.accepted_wrong

    always = _abstract_config(pp, [10, 20, 30], k=3)
    stats1 = run_trials(always, adversary, trials=trials, seed=1,
                        structural_checks=False)
    caught = stats1.aborts_by_step.get(6, 0)
    criterion(
        passed == trials and wrong == trials and caught == trials,
        f"A8 consistent-lie: {passed}/300 unpicked runs pass the sum check "
        f"(all accepting a wrong total); {caught}/300 picked runs abort at "
        f"the spot check",
    )


# ---------------------------------------------------------------------------
# A9: measurement pipeline, honest at scale and under field tampering.
# ---------------------------------------------------------------------------


def _year_ledger(firm_id, seed):
    kp = MeterKeypair.generate(random.Random(seed))
    rng = random.Random(seed + 1)
    ledger = FirmLedger.empty(firm_id)
    total = 0
    start = parse_hour("2026-01-01T00:00:00Z")
    for i in range(365 * 24):
        e = rng.randrange(2000)
        total += e
        reading = kp.sign_reading(firm_id, start + timedelta(hours=i), e)
        append_reading(ledger, reading, kp.public_bytes)
    return ledger, kp, total


def test_a9_measurement_pipeline(criterion):
    # Honest full-year ledger aggregates exactly.
    ledger, kp, total = _year_ledger("F1", seed=900)
    year_ok = (
        len(ledger.entries) == 8760
        and aggregate(ledger, kp.public_bytes) == total
    )

    # Field-level fuzz on a small ledger: every single-field mutation of
    # one entry must trip the spot check.
    small_kp = MeterKeypair.generate(random.Random(901))
    small = FirmLedger.empty("F2")
    values = [100 + h for h in range(24)]
    for h, e in enumerate(values):
        hour = parse_hour(f"2026-05-01T{h:02d}:00:00Z")
        append_reading(small, small_kp.sign_reading("F2", hour, e),
                       small_kp.public_bytes)
    small_total = aggregate(small, small_kp.public_bytes)
    assert spot_check(small, small_kp.public_bytes, "F2", small_total) == ()

    rng = random.Random(derive_seed(0, "a9"))
    detected = 0
    fuzz_rounds = 500
    for _ in range(fuzz_rounds):
        idx = rng.randrange(len(small.entries))
        entry = small.entries[idx]
        field = rng.choice(["e", "hour", "firm_id", "signature", "chain"])
        reading = entry.reading
        if field == "e":
            reading = dataclasses.replace(reading, e=reading.e + rng.randrange(1, 50))
        elif field == "hour":
            flipped = parse_hour(f"2026-06-{rng.randrange(1, 29):02d}T00:00:00Z")
            reading = dataclasses.replace(reading, hour=flipped)
        elif field == "firm_id":
            reading = dataclasses.replace(reading, firm_id="F2-shadow")
        elif field == "signature":
            sig = bytearray(reading.signature)
            sig[rng.randrange(len(sig))] ^= 1 << rng.randrange(8)
            reading = dataclasses.replace(reading, signature=bytes(sig))
        if field == "chain":
            chain = bytearray(entry.chain)
            chain[rng.randrange(len(chain))] ^= 1 << rng.randrange(8)
            tampered_entry = LedgerEntry(reading, bytes(chain))
        else:
            tampered_entry = LedgerEntry(reading, entry.chain)
        entries = list(small.entries)
        entries[idx] = tampered_entry
        tampered = FirmLedger("F2", entries)
        detected += bool(spot_check(tampered, small_kp.public_bytes, "F2", small_total))
    criterion(
        year_ok and detected == fuzz_rounds,
        f"A9 measurement: 8760-reading year ledger aggregates exactly; "
        f"{detected}/500 single-field tampers detected by the spot check",
    )
