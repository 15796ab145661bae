"""Seven-step session engine: completeness, attribution, privacy, sealing."""

import importlib.util
import math
import random
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest

from emissions_audit.audit import (
    Abort,
    AuditSession,
    ConfigInvalid,
    COUNTRY_ID,
    Behavior,
    ENV_ID,
    FirmSpec,
    ROLE_COUNTRY,
    ROLE_FIRM,
    SealedError,
    SessionConfig,
    Step,
    VERIFIER_ID,
    country_sums,
    env_setup,
    examine,
    sum_check,
    true_total,
)
from emissions_audit.commitment import MAX_EMISSIONS_KG, commit, setup
from emissions_audit.groups import toy_group, production_group
from emissions_audit.measurement import FirmLedger, MeterKeypair, append_reading, parse_hour


@pytest.fixture(scope="module")
def pp():
    return setup(toy_group(), "hash_derived")


def _config(pp, true_ms, k=0, **kw):
    firms = tuple(
        FirmSpec(firm_id=f"F{i + 1}", true_m=m) for i, m in enumerate(true_ms)
    )
    return SessionConfig(pp=pp, firms=firms, k=k, **kw)


def _run(config, seed=0, behaviors=None):
    return AuditSession(config, random.Random(seed), behaviors).run()


# ---------------------------------------------------------------------------
# Configuration validation.
# ---------------------------------------------------------------------------


def test_config_rejects_duplicate_and_reserved_ids(pp):
    with pytest.raises(ConfigInvalid):
        SessionConfig(pp=pp, firms=(FirmSpec("F1", 1), FirmSpec("F1", 2)), k=0)
    with pytest.raises(ConfigInvalid):
        SessionConfig(pp=pp, firms=(FirmSpec(COUNTRY_ID, 1),), k=0)


def test_config_rejects_bad_k_and_values(pp):
    with pytest.raises(ConfigInvalid):
        _config(pp, [1, 2], k=3)
    with pytest.raises(ConfigInvalid):
        _config(pp, [1, 2], k=-1)
    with pytest.raises(ConfigInvalid):
        _config(pp, [MAX_EMISSIONS_KG], k=0)
    with pytest.raises(ConfigInvalid):
        _config(pp, [-5], k=0)
    with pytest.raises(ConfigInvalid):
        _config(pp, [True], k=0)


@pytest.mark.parametrize("pick_mode", ["env", "joint"])
def test_config_rejects_unknown_pick_base_mode_and_fault_policy(pp, pick_mode):
    with pytest.raises(ConfigInvalid, match="^unknown pick base mode 'bogus'$"):
        _config(pp, [1, 2], k=1, pick_mode=pick_mode, pick_base_mode="bogus")
    with pytest.raises(ConfigInvalid, match="^unknown pick fault policy 'bogus'$"):
        _config(pp, [1, 2], k=1, pick_mode=pick_mode, pick_fault_policy="bogus")


def test_config_derives_roster_and_firm_lookup_once(pp):
    config = _config(pp, [5, 6, 7])
    assert config.roster == ("F1", "F2", "F3")
    assert config.roster is config.roster
    assert {fid: spec.true_m for fid, spec in config.firm_by_id.items()} == {
        "F1": 5, "F2": 6, "F3": 7}
    assert config == _config(pp, [5, 6, 7])
    assert "firm_by_id" not in repr(config)


def test_config_integrated_mode_requires_ledger(pp):
    with pytest.raises(ConfigInvalid):
        SessionConfig(
            pp=pp, firms=(FirmSpec("F1", true_m=5),), k=0, data_mode="integrated"
        )


# ---------------------------------------------------------------------------
# Honest completeness.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,k", [(1, 0), (1, 1), (3, 2), (10, 4), (10, 10)])
def test_honest_session_accepts_true_total(pp, n, k):
    rng = random.Random(50 + n)
    true_ms = [rng.randrange(1000) for _ in range(n)]
    config = _config(pp, true_ms, k=k)
    for seed in range(5):
        verdict = _run(config, seed=seed)
        assert verdict.completed, verdict.abort
        assert verdict.accepted_m == sum(true_ms)
        assert verdict.v_list is not None and len(verdict.v_list) == k


def test_empty_session_accepts_zero(pp):
    config = SessionConfig(pp=pp, firms=(), k=0)
    verdict = _run(config)
    assert verdict.completed and verdict.accepted_m == 0


def test_honest_session_on_production_curve():
    pp = setup(production_group(), "hash_derived")
    config = _config(pp, [11, 22, 33], k=1)
    verdict = _run(config, seed=1)
    assert verdict.completed and verdict.accepted_m == 66


def test_large_session_accepts(pp):
    rng = random.Random(51)
    true_ms = [rng.randrange(10**6) for _ in range(64)]
    verdict = _run(_config(pp, true_ms, k=8), seed=2)
    assert verdict.completed and verdict.accepted_m == sum(true_ms)


# ---------------------------------------------------------------------------
# Sealing.
# ---------------------------------------------------------------------------


def test_verification_list_sealed_until_reveal(pp):
    config = _config(pp, [1, 2, 3], k=2)
    assignment = env_setup(config, random.Random(0))
    with pytest.raises(SealedError):
        assignment.verification_list
    revealed = assignment.reveal()
    assert assignment.verification_list == revealed
    assert set(revealed) <= {"F1", "F2", "F3"} and len(revealed) == 2


def test_session_does_not_touch_list_before_step5(pp):
    # The engine itself must not unseal early: drive steps 1-4 and check
    # the assignment is still sealed.
    config = _config(pp, [1, 2], k=1)
    session = AuditSession(config, random.Random(0))
    session.step1_setup()
    session.step2_reports()
    session.step3_examine()
    session.step4_publish()
    with pytest.raises(SealedError):
        session.state.env.verification_list


# ---------------------------------------------------------------------------
# Abort attribution per step.
# ---------------------------------------------------------------------------


class _Liar(Behavior):
    def __init__(self, claim_value):
        self.claim_value = claim_value

    def claim(self, true_m):
        return self.claim_value


class _Mute(Behavior):
    def __init__(self, step):
        self.step = step

    def silent_at(self, step):
        return step >= self.step


class _WrongSummer(Behavior):
    def publish(self, m_sum, r_sum):
        return m_sum + 1, r_sum


def test_silent_firm_aborts_step3_report_missing(pp):
    config = _config(pp, [5, 6], k=0)
    verdict = _run(config, behaviors={"F2": _Mute(2)})
    assert verdict.abort.step == Step.EXAMINE
    assert verdict.abort.culprit_id == "F2"
    assert "missing" in verdict.abort.reason


def test_out_of_range_claim_aborts_step3(pp):
    config = _config(pp, [5, 6], k=0)
    verdict = _run(config, behaviors={"F1": _Liar(MAX_EMISSIONS_KG)})
    assert verdict.abort.step == Step.EXAMINE
    assert verdict.abort.culprit_id == "F1"
    assert "range" in verdict.abort.reason


def test_negative_claim_aborts_step3(pp):
    config = _config(pp, [5, 6], k=0)
    verdict = _run(config, behaviors={"F2": _Liar(-1)})
    assert verdict.abort.step == Step.EXAMINE and verdict.abort.culprit_id == "F2"


def test_tamper_caught_iff_picked(pp):
    # k = n forces the liar onto the list: abort at the spot check.
    config = _config(pp, [5, 6, 7], k=3)
    verdict = _run(config, behaviors={"F2": _Liar(60)})
    assert verdict.abort.step == Step.SPOT_CHECK
    assert verdict.abort.culprit_id == "F2"
    assert verdict.abort.culprit_role == ROLE_FIRM

    # k = 0 never examines the liar: the consistent lie is accepted.
    config0 = _config(pp, [5, 6, 7], k=0)
    verdict0 = _run(config0, behaviors={"F2": _Liar(60)})
    assert verdict0.completed
    assert verdict0.accepted_m == 5 + 60 + 7
    assert verdict0.accepted_m != true_total(config0)


def test_detection_rate_tracks_selection_probability(pp):
    # One liar among 5 with k=2: caught in exactly the fraction of runs
    # whose sealed list includes it (2/5 up to sampling noise).
    config = _config(pp, [5, 6, 7, 8, 9], k=2)
    caught = 0
    trials = 400
    for seed in range(trials):
        verdict = _run(config, seed=seed, behaviors={"F3": _Liar(70)})
        caught += verdict.abort is not None
    assert abs(caught / trials - 0.4) < 5 * math.sqrt(0.4 * 0.6 / trials)


def test_withheld_blinding_aborts_step6(pp):
    config = _config(pp, [5, 6], k=2)
    verdict = _run(config, behaviors={"F1": _Mute(5)})
    assert verdict.abort.step == Step.SPOT_CHECK
    assert verdict.abort.culprit_id == "F1"
    assert "not revealed" in verdict.abort.reason


def test_misreported_sum_aborts_step7(pp):
    config = _config(pp, [5, 6], k=0)
    verdict = _run(config, behaviors={COUNTRY_ID: _WrongSummer()})
    assert verdict.abort.step == Step.SUM_CHECK
    assert verdict.abort.culprit_role == ROLE_COUNTRY
    assert "open" in verdict.abort.reason


def test_published_sum_above_range_bound_aborts_step7(pp):
    class _Wrapper(Behavior):
        def publish(self, m_sum, r_sum):
            # Same residue mod q, absurd integer: caught by the range
            # guard even though the commitment check would pass.
            return m_sum + 2 * (MAX_EMISSIONS_KG - 1) * len(config.firms) * pp.q, r_sum

    config = _config(pp, [5, 6], k=0)
    verdict = _run(config, behaviors={COUNTRY_ID: _Wrapper()})
    assert verdict.abort.step == Step.SUM_CHECK
    assert "range" in verdict.abort.reason


def test_step7_passes_a_total_lowered_by_an_out_of_range_opening():
    """The gap step 7 leaves: a country that passes a colluding firm's
    out-of-range opening publishes a national total lowered by any amount,
    and the sum check accepts it; only examine, the country's own step,
    would have named the firm."""
    pp = setup(production_group(), "hash_derived")
    rng = random.Random(9)
    claims = {"F1": 5_000_000, "F2": 4_000_000, "F3": 6_000_000,
              "F4": 9_000_000 - 20_000_000}  # true totals sum to 24 000 000
    openings = {fid: (m, pp.group.random_scalar(rng)) for fid, m in claims.items()}
    commitments = {fid: commit(pp, pp.group.scalar(m), r) for fid, (m, r) in openings.items()}
    m_pub, r_pub = country_sums(pp, openings.values())
    assert m_pub == 4_000_000
    assert sum_check(pp, 4, commitments.values(), m_pub, r_pub) is None
    assert examine(pp, list(claims), openings, commitments) == Abort(
        3, ROLE_FIRM, "F4", "reported total -11000000 out of range")


def test_silent_country_aborts_with_attribution(pp):
    class _MuteCountry(Behavior):
        def silent_at(self, step):
            return step >= 4

    verdict = _run(_config(pp, [5], k=0), behaviors={COUNTRY_ID: _MuteCountry()})
    assert verdict.abort is not None
    assert verdict.abort.culprit_role == ROLE_COUNTRY
    assert "silent" in verdict.abort.reason


# ---------------------------------------------------------------------------
# Selection by the environment: sealed, uniform.
# ---------------------------------------------------------------------------


def test_env_selection_uniform_over_subsets(pp):
    config = _config(pp, [1, 2, 3, 4, 5], k=2)
    counts = Counter()
    runs = 100_000
    for i in range(runs):
        assignment = env_setup(config, random.Random(i))
        counts[frozenset(assignment.reveal())] += 1
    assert len(counts) == 10
    expected = runs / 10
    sigma = math.sqrt(runs * 0.1 * 0.9)
    for subset, c in counts.items():
        assert abs(c - expected) <= 5 * sigma, (sorted(subset), c)


def test_env_assignment_matches_config_truth(pp):
    config = _config(pp, [7, 8, 9], k=1)
    assignment = env_setup(config, random.Random(3))
    assert assignment.m_assignments == {"F1": 7, "F2": 8, "F3": 9}


# ---------------------------------------------------------------------------
# Joint pick mode inside the session.
# ---------------------------------------------------------------------------


class _Picks(Behavior):
    def __init__(self, strategy):
        self.pick_strategy = strategy


def test_joint_pick_mode_completes(pp):
    config = _config(pp, [5, 6, 7], k=2, pick_mode="joint")
    verdict = _run(config, seed=4)
    assert verdict.completed and len(verdict.v_list) == 2


def test_joint_pick_fault_abort_policy(pp):
    from emissions_audit.pick import PickStrategy

    config = _config(
        pp, [5, 6, 7], k=2, pick_mode="joint", pick_fault_policy="abort"
    )
    verdict = _run(config, seed=5, behaviors={COUNTRY_ID: _Picks(PickStrategy(bad_round=0))})
    assert verdict.abort.step == Step.REVEAL
    assert verdict.abort.culprit_role == ROLE_COUNTRY
    assert "pick fault" in verdict.abort.reason


def test_joint_pick_fault_complete_policy_still_audits(pp):
    from emissions_audit.pick import PickStrategy

    config = _config(pp, [5, 6, 7], k=3, pick_mode="joint")
    verdict = _run(config, seed=6, behaviors={
        "F2": _Liar(60), COUNTRY_ID: _Picks(PickStrategy(bad_round=0))})
    # Country disqualified itself in the pick; the verifier finishes the
    # selection alone and the liar is still caught.
    assert verdict.abort.step == Step.SPOT_CHECK
    assert verdict.abort.culprit_id == "F2"


# ---------------------------------------------------------------------------
# Privacy inside the engine's own message log.
# ---------------------------------------------------------------------------


def test_unpicked_openings_never_reach_the_verifier(pp):
    config = _config(pp, [5, 6, 7, 8], k=2)
    events = []

    def recorder(**kw):
        events.append(kw)

    session = AuditSession(config, random.Random(7), recorder=recorder)
    verdict = session.run()
    assert verdict.completed
    picked = set(verdict.v_list)
    for ev in events:
        if ev["kind"] in ("env_truth", "reveal_opening"):
            assert ev["recipient"] == VERIFIER_ID
            assert ev["payload"]["firm"] in picked
        if ev["kind"] == "report":
            assert ev["recipient"] == COUNTRY_ID


@pytest.mark.parametrize("recorded", [False, True])
def test_an_unrecorded_session_encodes_nothing(pp, recorded):
    """Without a recorder no payload is built: a joint-pick session encodes
    no point or scalar, at step 5 or elsewhere (a recorded one encodes)."""
    config = _config(pp, [5, 6, 7, 8], k=2, pick_mode="joint")
    session = AuditSession(config, random.Random(3),
                           recorder=(lambda **ev: None) if recorded else None)
    group = config.pp.group
    with mock.patch.object(group, "encode_point", wraps=group.encode_point) as point, \
            mock.patch.object(group, "encode_scalar", wraps=group.encode_scalar) as scalar:
        assert session.run().completed
    assert len(session.state.v_list) == 2
    assert (point.call_count + scalar.call_count > 0) == recorded


def _broadcasts(config, seed, behaviors=None, steps=AuditSession._STEP_METHODS):
    """The (kind, payload) of each broadcast a session makes in ``steps``."""
    events = []
    session = AuditSession(config, random.Random(seed), behaviors,
                           recorder=lambda **ev: events.append(ev))
    for name in steps:
        getattr(session, name)()
    return [(ev["kind"], ev["payload"]) for ev in events if ev["channel"] == "broadcast"]


def test_broadcast_log_has_no_private_lanes(pp):
    broadcasts = _broadcasts(_config(pp, [5, 6], k=1), seed=8)
    assert broadcasts
    for kind, payload in broadcasts:
        assert kind not in ("report", "assign_m", "env_truth", "reveal_opening")


class _FixedBlinding(Behavior):
    def __init__(self, value: int):
        self.value = value

    def blinding(self, pp, rng):
        return pp.group.scalar(self.value)


def _broadcast_commitments(pp, true_ms, r_values):
    config = _config(pp, true_ms, k=0)
    behaviors = {
        f"F{i + 1}": _FixedBlinding(r) for i, r in enumerate(r_values)
    }
    broadcasts = _broadcasts(config, 0, behaviors, ("step1_setup", "step2_reports"))
    return tuple(payload["c"] for kind, payload in broadcasts if kind == "commitment")


def test_unpicked_broadcasts_distribution_independent_of_split(pp):
    # Exhaustive over the whole blinding space: two different splits of
    # the same total broadcast exactly the same multiset of commitment
    # pairs, so the public channel carries nothing about individual firms.
    q = pp.q
    multisets = []
    for true_ms in ([10, 90], [40, 60]):
        bag = Counter(
            _broadcast_commitments(pp, true_ms, (r1, r2))
            for r1 in range(q)
            for r2 in range(q)
        )
        multisets.append(bag)
    assert sum(multisets[0].values()) == q * q
    assert multisets[0] == multisets[1]


# ---------------------------------------------------------------------------
# Integrated data mode: ledgers as ground truth.
# ---------------------------------------------------------------------------


def _small_ledger(firm_id, values, seed):
    kp = MeterKeypair.generate(random.Random(seed))
    ledger = FirmLedger.empty(firm_id)
    for h, e in enumerate(values):
        hour = parse_hour(f"2026-03-01T{h:02d}:00:00Z")
        append_reading(ledger, kp.sign_reading(firm_id, hour, e), kp.public_bytes)
    return ledger, kp.public_bytes


def test_integrated_mode_accepts_ledger_totals(pp):
    l1, pk1 = _small_ledger("F1", [5, 10], seed=60)
    l2, pk2 = _small_ledger("F2", [1, 2, 3], seed=61)
    config = SessionConfig(
        pp=pp,
        firms=(
            FirmSpec("F1", ledger=l1, meter_pk=pk1),
            FirmSpec("F2", ledger=l2, meter_pk=pk2),
        ),
        k=2,
        data_mode="integrated",
    )
    verdict = _run(config, seed=9)
    assert verdict.completed and verdict.accepted_m == 21


@pytest.mark.parametrize("data_mode", ["abstract", "integrated"])
def test_config_refuses_a_firm_with_two_truth_sources(pp, data_mode):
    """Neither mode may drop one of two sources without a word."""
    ledger, pk = _small_ledger("F1", [7], seed=63)
    with pytest.raises(ConfigInvalid, match="^firm F1: both true_m and a ledger are set$"):
        SessionConfig(pp=pp, firms=(FirmSpec("F1", true_m=99, ledger=ledger, meter_pk=pk),),
                      k=0, data_mode=data_mode)


def test_integrated_mode_catches_lying_firm(pp):
    l1, pk1 = _small_ledger("F1", [5, 10], seed=62)
    config = SessionConfig(
        pp=pp,
        firms=(FirmSpec("F1", ledger=l1, meter_pk=pk1),),
        k=1,
        data_mode="integrated",
    )
    verdict = _run(config, seed=10, behaviors={"F1": _Liar(16)})
    assert verdict.abort.step == Step.SPOT_CHECK
    assert verdict.abort.culprit_id == "F1"


def test_true_total_matches_both_modes(pp):
    l1, pk1 = _small_ledger("F1", [4, 6], seed=63)
    integrated = SessionConfig(
        pp=pp, firms=(FirmSpec("F1", ledger=l1, meter_pk=pk1),),
        k=0, data_mode="integrated",
    )
    abstract = _config(pp, [10])
    assert true_total(integrated) == true_total(abstract) == 10


def test_integrated_truth_is_computed_once_per_config(pp, monkeypatch):
    import emissions_audit.audit as audit_mod
    import emissions_audit.measurement as measurement_mod
    from emissions_audit.harness import run_trials

    calls = []
    original = measurement_mod.aggregate

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(measurement_mod, "aggregate", counting)
    monkeypatch.setattr(audit_mod, "aggregate", counting)
    firms = []
    for i, values in enumerate(([5, 10], [1, 2, 3], [7])):
        ledger, pk = _small_ledger(f"F{i + 1}", values, seed=70 + i)
        firms.append(FirmSpec(f"F{i + 1}", ledger=ledger, meter_pk=pk))
    config = SessionConfig(pp=pp, firms=tuple(firms), k=2, data_mode="integrated")
    stats = run_trials(config, trials=5, seed=3)
    assert stats.completions == stats.accepted_correct == 5
    assert len(calls) == config.n


def test_integrated_config_rejects_tampered_ledger(pp):
    import dataclasses

    from emissions_audit.measurement import LedgerEntry

    good, pk1 = _small_ledger("F1", [5, 10], seed=80)
    bad, pk2 = _small_ledger("F2", [1, 2, 3], seed=81)
    entry = bad.entries[1]
    bad.entries[1] = LedgerEntry(dataclasses.replace(entry.reading, e=20), entry.chain)
    with pytest.raises(ConfigInvalid, match="firm F2: ledger does not verify: BadSignature"):
        SessionConfig(
            pp=pp,
            firms=(FirmSpec("F1", ledger=good, meter_pk=pk1),
                   FirmSpec("F2", ledger=bad, meter_pk=pk2)),
            k=1, data_mode="integrated",
        )


def test_ledger_appended_after_config_fails_the_spot_check(pp):
    l1, pk1 = _small_ledger("F1", [5, 10], seed=82)
    l2, pk2 = _small_ledger("F2", [1, 2], seed=83)
    config = SessionConfig(
        pp=pp,
        firms=(FirmSpec("F1", ledger=l1, meter_pk=pk1), FirmSpec("F2", ledger=l2, meter_pk=pk2)),
        k=2, data_mode="integrated",
    )
    assert config.truths == {"F1": 15, "F2": 3}
    kp = MeterKeypair.generate(random.Random(82))
    append_reading(l1, kp.sign_reading("F1", parse_hour("2026-03-01T05:00:00Z"), 4), pk1)
    for seed in range(3):
        verdict = _run(config, seed=seed)
        assert not verdict.completed
        assert (verdict.abort.step, verdict.abort.culprit_id, verdict.abort.reason) == (
            Step.SPOT_CHECK, "F1", "ledger check failed: aggregation")


def test_spot_checks_reuse_the_configs_verified_ledgers(pp, monkeypatch, verified_messages):
    """The config's walk is on record for each ledger, so no session's step-6
    walk verifies a signature or hashes a link again."""
    import emissions_audit.measurement as measurement

    l1, pk1 = _small_ledger("F1", [5, 10], seed=84)
    l2, pk2 = _small_ledger("F2", [1, 2, 3], seed=85)
    real_chain_head, hashed = measurement.chain_head, []
    monkeypatch.setattr(measurement, "chain_head",
                        lambda *a: hashed.append(a) or real_chain_head(*a))
    verified_messages.clear()
    config = SessionConfig(
        pp=pp,
        firms=(FirmSpec("F1", ledger=l1, meter_pk=pk1), FirmSpec("F2", ledger=l2, meter_pk=pk2)),
        k=2, data_mode="integrated",
    )
    assert len(verified_messages) == 5
    verified_messages.clear()
    hashed.clear()
    for seed in range(3):
        assert _run(config, seed=seed).completed
    assert verified_messages == []
    assert hashed == []


def test_integrated_config_rejects_another_firms_ledger(pp):
    l1, pk1 = _small_ledger("F1", [5, 10], seed=86)
    l2, pk2 = _small_ledger("F2", [1, 2, 3], seed=87)
    with pytest.raises(ConfigInvalid, match="firm F1: ledger belongs to 'F2'"):
        SessionConfig(
            pp=pp,
            firms=(FirmSpec("F1", ledger=l2, meter_pk=pk2),
                   FirmSpec("F2", ledger=l2, meter_pk=pk2)),
            k=0, data_mode="integrated",
        )
    assert SessionConfig(
        pp=pp, firms=(FirmSpec("F1", ledger=l1, meter_pk=pk1),),
        k=0, data_mode="integrated").truths == {"F1": 15}


# ---------------------------------------------------------------------------
# Step 6 reads only the verifier's inputs.
# ---------------------------------------------------------------------------


class _NoReads:
    """Stands in for the country's lane of reports: any read fails."""

    def _fail(self, *args):
        raise AssertionError("the verifier read the country's reports")

    __getitem__ = __contains__ = __iter__ = __len__ = _fail

    def __getattr__(self, name):
        self._fail()


class _BadBlinding(Behavior):
    def reveal_blinding(self, r):
        return r + type(r)(1, r.q)


def _integrated_case(pp, case):
    """A k = n integrated config and firm behaviors for one step-6 case."""
    import dataclasses

    from emissions_audit.measurement import LedgerEntry

    l1, pk1 = _small_ledger("F1", [5, 10, 20], seed=88)
    l2, pk2 = _small_ledger("F2", [1, 2], seed=89)
    config = SessionConfig(
        pp=pp,
        firms=(FirmSpec("F1", ledger=l1, meter_pk=pk1), FirmSpec("F2", ledger=l2, meter_pk=pk2)),
        k=2, data_mode="integrated",
    )
    behaviors = {}
    if case == "appended":
        kp = MeterKeypair.generate(random.Random(88))
        append_reading(l1, kp.sign_reading("F1", parse_hour("2026-03-01T05:00:00Z"), 4), pk1)
    elif case == "edited":
        entry = l1.entries[1]
        l1.entries[1] = LedgerEntry(dataclasses.replace(entry.reading, e=11), entry.chain)
    elif case == "renamed":
        l2.firm_id = "F9"
    elif case == "tamper":
        behaviors = {"F2": _Liar(4)}
    elif case == "bad-reveal":
        behaviors = {"F1": _BadBlinding()}
    return config, behaviors


def _stepwise(config, behaviors, seed, poison):
    """The abort of the first step that aborts (None if none does) and the published sum."""
    session = AuditSession(config, random.Random(seed), behaviors)
    for name in AuditSession._STEP_METHODS:
        abort = getattr(session, name)()
        if abort is not None:
            break
        if poison and name == "step5_reveal":
            session.state.reports = _NoReads()
    return abort, session.state.published_m


@pytest.mark.parametrize("case", ["honest", "appended", "edited", "renamed", "tamper",
                                  "bad-reveal"])
def test_step6_reads_no_report_of_the_country(pp, case):
    want = {
        "honest": None,
        "appended": "ledger check failed: aggregation",
        "edited": "ledger check failed: aggregation,chain,signature",
        "renamed": "ledger check failed: identity",
        "tamper": "commitment does not open to the true total",
        "bad-reveal": "commitment does not open to the true total",
    }[case]
    for seed in range(3):
        plain = _stepwise(*_integrated_case(pp, case), seed, poison=False)
        poisoned = _stepwise(*_integrated_case(pp, case), seed, poison=True)
        assert poisoned == plain
        abort, _ = plain
        assert (abort and abort.reason) == want
        if abort is not None:
            assert abort.step == Step.SPOT_CHECK


def test_step6_opens_each_picked_commitment_once(pp, monkeypatch):
    import emissions_audit.audit as audit_mod
    import emissions_audit.measurement as measurement_mod

    config, _ = _integrated_case(pp, "honest")
    session = AuditSession(config, random.Random(5))
    for name in AuditSession._STEP_METHODS[:5]:
        getattr(session, name)()
    calls = []
    for module in (audit_mod, measurement_mod):
        original = getattr(module, "verify_opening", None)
        if original is not None:
            monkeypatch.setattr(module, "verify_opening",
                                lambda *a, _f=original: calls.append(a) or _f(*a))
    assert session.step6_spot_checks() is None
    assert len(calls) == len(session.state.v_list) == 2


def test_toy_tamper_by_a_multiple_of_q_passes_step6_in_both_modes(pp):
    """The opening binds the total modulo q only: on the toy group (q = 101)
    a claim off by 101 passes every check, in integrated mode as in abstract
    mode, because step 6 compares the ledger with the truth, not the claim."""
    from emissions_audit.harness import AdversarySpec, Deviation, run_session

    assert pp.q == 101
    config, _ = _integrated_case(pp, "honest")
    abstract = _config(pp, [35, 3], k=2)
    adversary = AdversarySpec(frozenset({"F1"}), {"F1": Deviation(delta=101)})
    for seed in range(3):
        integrated = run_session(config, adversary, seed=seed).verdict
        assert integrated.completed and integrated.accepted_m == 38 + 101
        assert integrated == run_session(abstract, adversary, seed=seed).verdict


def test_secp256k1_tamper_by_101_fails_the_opening():
    from emissions_audit.harness import AdversarySpec, Deviation, run_session

    prod_pp = setup(production_group(), "hash_derived")
    config, _ = _integrated_case(prod_pp, "honest")
    adversary = AdversarySpec(frozenset({"F1"}), {"F1": Deviation(delta=101)})
    verdict = run_session(config, adversary, seed=0).verdict
    assert (verdict.abort.step, verdict.abort.culprit_id, verdict.abort.reason) == (
        Step.SPOT_CHECK, "F1", "commitment does not open to the true total")


def test_benchmark_spans_name_every_step(monkeypatch):
    """perfbench times each step by wrapping the method of that name, and
    skips a name the package lacks, so a renamed step would read 0 ms."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec.loader.exec_module(spans)
    assert spans.AUDIT_STEPS == AuditSession._STEP_METHODS
