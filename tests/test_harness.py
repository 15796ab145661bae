"""Simulation harness: determinism, views, checkers, scenarios, replay."""

import dataclasses
import hashlib
import json
import random
import re
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emissions_audit import commitment, harness
from emissions_audit.audit import (
    AuditSession,
    ConfigInvalid,
    COUNTRY_ID,
    Behavior,
    ENV_ID,
    FirmSpec,
    SessionConfig,
    VERIFIER_ID,
)
from emissions_audit.commitment import MAX_EMISSIONS_KG, setup
from emissions_audit.groups import production_group, toy_group
from emissions_audit.harness import (
    AdversarySpec,
    Deviation,
    HONEST_ADVERSARY,
    Transcript,
    TranscriptFormatError,
    TrialStats,
    UnknownParticipant,
    audit_transcript,
    BUILTIN_SCENARIOS,
    canonical_json,
    chi_square_uniform,
    derive_seed,
    digest_of,
    leakage_violations,
    load_scenario,
    parse_transcript,
    replay_verdict,
    routing_violations,
    run_session,
    run_trials,
    scenario_from_dict,
    MAX_SCENARIO_FIRMS,
    MAX_SCENARIO_TRIALS,
)
from emissions_audit.measurement import FirmLedger, MeterKeypair, append_reading, parse_hour


@pytest.fixture(scope="module")
def pp():
    return setup(toy_group(), "hash_derived")


def _config(pp, true_ms, k=0, **kw):
    firms = tuple(FirmSpec(f"F{i + 1}", true_m=m) for i, m in enumerate(true_ms))
    return SessionConfig(pp=pp, firms=firms, k=k, **kw)


# ---------------------------------------------------------------------------
# Seed derivation and canonical hashing.
# ---------------------------------------------------------------------------


def test_derive_seed_is_stable_and_label_sensitive():
    a = derive_seed(7, "trial", 0)
    assert a == derive_seed(7, "trial", 0)
    assert a != derive_seed(7, "trial", 1)
    assert a != derive_seed(8, "trial", 0)
    assert derive_seed(7, "trial", 10) != derive_seed(7, "trial1", 0)


def test_canonical_json_is_key_order_invariant():
    assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})
    assert digest_of({"x": [1, 2]}) == digest_of({"x": [1, 2]})


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-(1 << 80), max_value=1 << 80)
    | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
def test_canonical_json_is_byte_identical_to_json_dumps(value):
    # Non-ASCII text (escaped as \uXXXX), ints beyond 64 bits, bools and None,
    # at the top level and nested in dicts and lists.
    expected = json.dumps(value, sort_keys=True, separators=(",", ":")).encode()
    assert canonical_json(value) == expected
    assert canonical_json({"k": value, "é": [value]}) == json.dumps(
        {"k": value, "é": [value]}, sort_keys=True, separators=(",", ":")).encode()


def test_canonical_json_errors_are_not_remembered():
    # A payload it cannot encode raises and leaves the next call unaffected.
    payload = {"a": [1, 2]}
    with pytest.raises(TypeError):
        canonical_json({"a": [1, object()]})
    assert canonical_json(payload) == b'{"a":[1,2]}'
    assert canonical_json([payload, payload]) == b'[{"a":[1,2]},{"a":[1,2]}]'


# ---------------------------------------------------------------------------
# Behavior spec validation.
# ---------------------------------------------------------------------------


def _behavior_scenario(behavior: dict, corrupted="F1") -> dict:
    return {"group": "toy", "n": 2, "k": 1,
            "adversary": {"corrupted": [corrupted], "behaviors": {corrupted: behavior}}}


def test_tamper_report_requires_exactly_one_mode():
    for mode in ({"delta": 5}, {"absolute": 5}):
        scenario = scenario_from_dict(_behavior_scenario({"type": "tamper_report", **mode}))
        assert scenario.adversary.behavior_of("F1") == Deviation(**mode)
    for modes in ({}, {"delta": 1, "absolute": 2}):
        with pytest.raises(ConfigInvalid, match="delta/absolute"):
            scenario_from_dict(_behavior_scenario({"type": "tamper_report", **modes}))
    with pytest.raises(ConfigInvalid, match="^a deviation takes at most one of delta/absolute$"):
        Deviation(delta=1, absolute=2)


def test_bias_pick_requires_canned_strategy():
    Deviation(pick="zero")
    with pytest.raises(ConfigInvalid):
        Deviation(pick="clever")


def test_abort_at_validates_step():
    Deviation(silent_from=4)
    with pytest.raises(ConfigInvalid):
        Deviation(silent_from=0)
    with pytest.raises(ConfigInvalid):
        Deviation(silent_from=8)


def test_misreveal_round_must_not_be_negative():
    """A negative round once made a corrupted country or verifier play its
    pick honestly."""
    assert Deviation(misreveal=0).pick_strategy.bad_round == 0
    with pytest.raises(ConfigInvalid, match="^misreveal round must be >= 0, got -1$"):
        Deviation(misreveal=-1)
    with pytest.raises(ConfigInvalid, match="misreveal round must be >= 0"):
        scenario_from_dict(_behavior_scenario({"type": "inconsistent_reveal", "round": -1}, "C"))


@pytest.mark.parametrize("fields, message", [
    ({"delta": 1, "dm": 1}, "delta, dm"),
    ({"absolute": 3, "pick": "zero"}, "absolute, pick"),
    ({"pick": "max", "misreveal": 0, "delta": 2}, "delta, pick"),
], ids=["firm-and-country", "firm-and-picker", "firm-and-picker-with-misreveal"])
def test_a_deviation_no_role_can_play_is_refused(fields, message):
    with pytest.raises(ConfigInvalid, match=f"^no role takes the deviation fields {message}$"):
        Deviation(**fields)


def test_misreport_sum_stays_country_only_at_zero_offsets(pp):
    scenario = scenario_from_dict(_behavior_scenario({"type": "misreport_sum"}, "C"))
    assert scenario.adversary.behavior_of("C") == Deviation(dm=0, dr=0)
    for pid, role in (("F1", "a firm"), ("V", "the verifier")):
        spec = AdversarySpec(frozenset({pid}), {pid: Deviation(dm=0, dr=0)})
        with pytest.raises(ConfigInvalid, match=f"^behavior field 'dm' not valid for {role}$"):
            run_session(scenario.config, spec, seed=0)


def test_adversary_spec_guards():
    with pytest.raises(ConfigInvalid):
        AdversarySpec(corrupted=frozenset({ENV_ID}))  # environment is off-limits
    with pytest.raises(ConfigInvalid):
        AdversarySpec(behaviors={"F1": Deviation(delta=1)})  # not corrupted
    spec = AdversarySpec(corrupted=frozenset({"F1"}))
    assert spec.behavior_of("F1") == Deviation()


# Each catalogue behavior on each role: None if the session runs, else the
# ConfigInvalid message.
_ROLE_MATRIX = {
    Deviation(): (None, None, None),
    Deviation(delta=1): (None, "behavior field 'delta' not valid for the country",
                         "behavior field 'delta' not valid for the verifier"),
    Deviation(dm=1): ("behavior field 'dm' not valid for a firm", None,
                      "behavior field 'dm' not valid for the verifier"),
    Deviation(misreveal=0): (None, None, None),
    Deviation(pick="zero"): ("behavior field 'pick' not valid for a firm", None, None),
    Deviation(silent_from=4): (None, None, None),
    Deviation(pick="zero", misreveal=1): ("behavior field 'pick' not valid for a firm", None, None),
    Deviation(absolute=5, misreveal=0, silent_from=6): (
        None, "behavior field 'absolute' not valid for the country",
        "behavior field 'absolute' not valid for the verifier"),
}


def test_each_catalogue_behavior_runs_or_is_refused_by_role(pp):
    config = _config(pp, [1, 2], k=1, pick_mode="joint")
    for behavior, outcomes in _ROLE_MATRIX.items():
        for pid, refusal in zip(("F1", COUNTRY_ID, VERIFIER_ID), outcomes):
            adversary = AdversarySpec(frozenset({pid}), {pid: behavior})
            if refusal is None:
                assert run_session(config, adversary, seed=0).verdict.status
            else:
                with pytest.raises(ConfigInvalid, match=f"^{refusal}$"):
                    run_session(config, adversary, seed=0)
    with pytest.raises(ConfigInvalid, match="^corrupted id 'F9' is not a session participant$"):
        run_session(config, AdversarySpec(frozenset({"F9"}), {}), seed=0)


def test_two_rushing_pickers_are_refused_before_any_step(pp, monkeypatch):
    """Someone has to commit first, so a joint pick of k > 0 cannot have both
    C and V wait for the peer's commitment; the session says so before step 1."""
    import emissions_audit.audit as audit_mod

    commits = []
    monkeypatch.setattr(audit_mod, "commit_many",
                        lambda *a, _f=audit_mod.commit_many: commits.append(a) or _f(*a))
    both = {pid: Deviation(pick="peer_seeded") for pid in (COUNTRY_ID, VERIFIER_ID)}
    joint = _config(pp, [1, 2], k=1, pick_mode="joint")
    with pytest.raises(ConfigInvalid, match="^behavior field 'pick' is 'peer_seeded' for both "
                                            "the country and the verifier: one of them has "
                                            "to commit first$"):
        run_session(joint, AdversarySpec(frozenset(both), both))
    assert commits == []
    # One rushing party, an env pick, or nothing to pick runs to a verdict.
    one = {COUNTRY_ID: both[COUNTRY_ID]}
    for config, behaviors in ((joint, one), (_config(pp, [1, 2], k=1), both),
                              (_config(pp, [1, 2], k=0, pick_mode="joint"), both)):
        assert run_session(config, AdversarySpec(frozenset(behaviors), behaviors)).verdict.completed


# ---------------------------------------------------------------------------
# Transcript determinism and views.
# ---------------------------------------------------------------------------


def test_transcripts_byte_identical_for_same_seed(pp):
    config = _config(pp, [10, 20, 30], k=2)
    a = run_session(config, seed=123).transcript.to_jsonl()
    b = run_session(config, seed=123).transcript.to_jsonl()
    assert a == b
    c = run_session(config, seed=124).transcript.to_jsonl()
    assert a != c


def _view_of(transcript, participant):
    """Everything the participant received: broadcasts plus its lane."""
    return [ev for _, ev in transcript.seen_by([participant])]


def test_view_filtering(pp):
    config = _config(pp, [10, 20], k=1)
    transcript = run_session(config, seed=1).transcript
    kinds_c = {e.kind for e in _view_of(transcript, COUNTRY_ID)}
    kinds_v = {e.kind for e in _view_of(transcript, VERIFIER_ID)}
    kinds_f1 = {e.kind for e in _view_of(transcript, "F1")}
    assert "report" in kinds_c and "report" not in kinds_v
    assert "commitment" in kinds_v  # broadcasts reach everyone
    for ev in _view_of(transcript, "F1"):
        if ev.kind == "assign_m":
            assert ev.payload["firm"] == "F1"
    assert "assign_m" in kinds_f1
    with pytest.raises(UnknownParticipant):
        _view_of(transcript, "F99")


def test_structural_checkers_clean_on_honest_run(pp):
    config = _config(pp, [10, 20, 30], k=2)
    transcript = run_session(config, seed=2).transcript
    assert routing_violations(transcript) == []
    assert leakage_violations(transcript) == []


def test_checkers_clean_under_observed_corruption(pp):
    config = _config(pp, [10, 20, 30], k=1)
    adversary = AdversarySpec(corrupted=frozenset({"F2", VERIFIER_ID}))
    transcript = run_session(config, adversary, seed=3).transcript
    assert routing_violations(transcript) == []
    assert leakage_violations(transcript) == []


def _clone_with_events(transcript, mutate):
    clone = Transcript(dict(transcript.header))
    for ev in transcript.events:
        kw = dict(step=ev.step, kind=ev.kind, sender=ev.sender,
                  channel=ev.channel, recipient=ev.recipient, payload=ev.payload)
        kw = mutate(kw) or kw
        clone.record(**kw)
    return clone


def test_routing_checker_flags_report_on_broadcast(pp):
    config = _config(pp, [10, 20], k=0)
    honest = run_session(config, seed=4).transcript

    def leak_report(kw):
        if kw["kind"] == "report" and kw["payload"]["firm"] == "F1":
            kw["channel"] = "broadcast"
            kw["recipient"] = None
        return kw

    bad = _clone_with_events(honest, leak_report)
    assert any("report" in v for v in routing_violations(bad))


def test_routing_checker_flags_misrouted_private_lane(pp):
    config = _config(pp, [10, 20], k=0)
    honest = run_session(config, seed=5).transcript

    def misroute(kw):
        if kw["kind"] == "report" and kw["payload"]["firm"] == "F1":
            kw["recipient"] = "F2"
        return kw

    bad = _clone_with_events(honest, misroute)
    assert any("routed to" in v for v in routing_violations(bad))


_ROUTING_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=4),
                           st.sampled_from(["F1", "F2", "F1x", "", 1, 12, 1.5]))
_ROUTING_VALUES = st.recursive(_ROUTING_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from(["F1", "F2", "F1x", "", "\u00e9", 'F"1', 1, 12]),
    st.dictionaries(st.sampled_from(["firm", "a", "f", "fir", "firl", "firm0", "m", "\u00e9"]),
                    _ROUTING_VALUES, max_size=4)), max_size=6))
@example([("F1", {"firm": "F1", "m": 3}), ("F1", {"a": 0, "firm": "F2"}), (1, {"firm": 12}),
          (12, {"firm": 1})])
def test_routing_flags_each_assign_m_not_sent_to_its_payloads_firm(events):
    """assign_m payloads of any shape, keys sorting before "firm" too, and
    recipients 1 and 12: the violations are exactly those of an oracle
    that compares each recipient with its payload's firm."""
    t = Transcript({"roster": ["F1"], "participants": ["F1"], "corrupted": []})
    for recipient, payload in events:
        t.record(step=2, kind="assign_m", sender=ENV_ID, channel="private",
                 recipient=recipient, payload=payload)
    assert routing_violations(t) == [
        f"assign_m at seq {seq} routed to {recipient}, expected {payload.get('firm')}"
        for seq, (recipient, payload) in enumerate(events)
        if recipient != payload.get("firm")]


def _decoded_routing(transcript):
    """The assign_m violations of a check that decodes every payload from
    its encoded bytes, as a transcript read back from its file does; each
    message names the firm as the recorded payload holds it."""
    out = []
    for ev in transcript.events:
        decoded = json.loads(ev.payload_json).get("firm")
        assert decoded == ev.payload.get("firm")
        if ev.recipient != decoded:
            out.append(f"assign_m at seq {ev.seq} routed to {ev.recipient}, "
                       f"expected {ev.payload.get('firm')}")
    return out


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from(["F1", "F2", "F1x", "", "\u00e9", 'F"1', 1]),
    st.dictionaries(st.sampled_from(["firm", "a", "f", "fir", "firl", "firm0", "m", "\u00e9"]),
                    _ROUTING_VALUES, max_size=4)), max_size=6))
@example([("F1", {"firm": "F1", "m": 3}), ("F1", {"a": 0, "firm": "F2"}), (1, {"firm": 12})])
def test_routing_reads_the_firm_as_a_full_decode_does(events):
    """assign_m payloads of any shape, keys sorting before "firm" too, and a
    recipient whose JSON prefixes another value (1 and 12): the violations
    equal those of a check that decodes every payload."""
    t = Transcript({"roster": ["F1"], "participants": ["F1"], "corrupted": []})
    for recipient, payload in events:
        t.record(step=2, kind="assign_m", sender=ENV_ID, channel="private",
                 recipient=recipient, payload=payload)
    assert routing_violations(t) == _decoded_routing(t)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from(["F1", "F2", "F1x", "", 1]),
    st.dictionaries(st.sampled_from(["firm", "a", "m"]), _ROUTING_VALUES, max_size=3)),
    max_size=6))
def test_routing_reads_a_recorded_copy_as_a_full_decode_does(events):
    """Routing a fresh recording reads each assign_m's firm from the copy;
    its violations equal those of a check that decodes every payload."""
    def recorded():
        t = Transcript({"roster": ["F1"], "participants": ["F1"], "corrupted": []})
        for recipient, payload in events:
            t.record(step=2, kind="assign_m", sender=ENV_ID, channel="private",
                     recipient=recipient, payload=payload)
        return t

    assert routing_violations(recorded()) == _decoded_routing(recorded())


def test_leakage_checker_flags_opening_sent_to_peer_firm(pp):
    config = _config(pp, [10, 20], k=1)
    honest = run_session(config, seed=6).transcript
    bad = _clone_with_events(honest, lambda kw: kw)
    # Inject an env_truth for an unpicked firm addressed to the verifier.
    picked = set(next(e for e in honest.events if e.kind == "verification_list").payload["v"])
    unpicked = next(f for f in ("F1", "F2") if f not in picked)
    bad.record(step=5, kind="env_truth", sender=ENV_ID, channel="private",
               recipient=VERIFIER_ID, payload={"firm": unpicked, "m": 10})
    assert any("unpicked" in v for v in leakage_violations(bad))


@pytest.mark.parametrize("checker", [leakage_violations])
def test_view_checkers_report_an_unhashable_corrupted_entry(pp, checker):
    transcript = run_session(_config(pp, [10, 20], k=1), seed=7).transcript
    transcript.header["corrupted"] = ["F1", ["x"]]
    assert checker(transcript) == ["header field 'corrupted' is not a list of strings"]


def test_leakage_checker_flags_plaintext_to_corrupted_firm(pp):
    config = _config(pp, [10, 20], k=0)
    adversary = AdversarySpec(corrupted=frozenset({"F2"}))
    honest = run_session(config, adversary, seed=7).transcript
    bad = _clone_with_events(honest, lambda kw: kw)
    bad.record(step=5, kind="assign_m", sender=ENV_ID, channel="private",
               recipient="F2", payload={"firm": "F1", "m": 10})
    assert "F2 sees assign_m(m) of F1 at seq 10" in leakage_violations(bad)
    # The same injected event also violates routing (wrong recipient).
    assert any("routed to" in v for v in routing_violations(bad))


def test_leakage_checker_flags_an_opening_that_names_no_firm(pp):
    """An env_truth to a corrupted verifier whose firm is the integer 5."""
    adversary = AdversarySpec(corrupted=frozenset({VERIFIER_ID}))
    blob = run_session(_config(pp, [10, 20], k=1), adversary, seed=7).transcript.to_jsonl()
    header, *events, verdict = map(json.loads, blob.splitlines())
    at = events.index(_first(events, "env_truth"))
    events.insert(at, dict(events[at], payload={"firm": 5, "m": 10}))
    bad = _redigested(header, events, verdict)
    assert leakage_violations(bad) == [f"V sees env_truth at seq {at} naming no firm: 5"]
    assert audit_transcript(bad)["violations"] == leakage_violations(bad)


# ---------------------------------------------------------------------------
# Trial statistics.
# ---------------------------------------------------------------------------


def test_run_trials_honest_all_complete(pp):
    config = _config(pp, [10, 20, 30], k=1)
    stats = run_trials(config, trials=50, seed=8)
    assert stats.trials == 50 and stats.completions == 50
    assert stats.detection_rate == 0.0
    assert stats.accepted_correct == 50 and stats.accepted_wrong == 0


def test_run_trials_tamperer_histogram(pp):
    config = _config(pp, [10, 20, 30, 40], k=4)
    adversary = AdversarySpec(
        frozenset({"F2"}), {"F2": Deviation(delta=7)}
    )
    stats = run_trials(config, adversary, trials=30, seed=9)
    assert stats.total_aborts == 30
    assert stats.aborts_by_step[6] == 30
    assert stats.abort_rate_at(6) == 1.0
    assert stats.aborts_by_culprit_role["firm"] == 30


def test_trial_stats_invariants_and_table(pp):
    config = _config(pp, [10, 20], k=0)
    stats = run_trials(config, trials=25, seed=10)
    assert stats.trials == 25 and stats.completions == 25
    stats.check_invariants()
    table = stats.as_dict()
    for key in ("trials", "completions", "abort_step_histogram",
                "abort_culprit_roles", "detection_rate",
                "accepted_correct", "accepted_wrong"):
        assert key in table


def test_chi_square_helper_contrasts_uniform_and_skewed():
    _, p_uniform = chi_square_uniform([100, 101, 99, 100])
    _, p_skewed = chi_square_uniform([400, 0, 0, 0])
    assert p_uniform > 0.5 and p_skewed < 1e-6


# ---------------------------------------------------------------------------
# Scenario parsing.
# ---------------------------------------------------------------------------


def test_builtin_scenarios_all_load():
    for name in BUILTIN_SCENARIOS:
        scenario = load_scenario(name)
        assert scenario.trials >= 1
        assert scenario.config.n >= 1


def test_scenario_from_dict_generates_roster():
    scenario = scenario_from_dict({
        "group": "toy",
        "n": 4,
        "k": 2,
        "adversary": {
            "corrupted": ["F1"],
            "behaviors": {"F1": {"type": "tamper_report", "delta": 3}},
        },
        "trials": 7,
        "seed": 99,
    }, name="inline")
    assert scenario.config.n == 4 and scenario.config.k == 2
    assert scenario.trials == 7
    assert scenario.adversary.behavior_of("F1") == Deviation(delta=3)


def test_scenario_rejects_unknown_behavior_kind():
    with pytest.raises(ConfigInvalid):
        scenario_from_dict({
            "group": "toy", "n": 2, "k": 1,
            "adversary": {"corrupted": ["F1"],
                          "behaviors": {"F1": {"type": "bribe_the_auditor"}}},
        }, name="bad")


@pytest.mark.parametrize("adversary, message", [
    ({"corrupted": "C"}, "adversary field 'corrupted' is not a list of strings"),
    ({"corrupted": "F1"}, "adversary field 'corrupted' is not a list of strings"),
    ({"corrupted": ["F1", 3]}, "adversary field 'corrupted' is not a list of strings"),
    ({"corrupted": ["F1"], "behaviors": [["F1", {"type": "inconsistent_reveal"}]]},
     "adversary field 'behaviors' is not an object"),
    (5, "scenario field 'adversary' is not an object"),
    (["F1"], "scenario field 'adversary' is not an object"),
    ({"behaviors": {"F1": "tamper_report"}}, "adversary behavior 'F1' is not an object"),
], ids=["C", "F1", "non-string", "behaviors-list", "adversary-int", "adversary-list",
        "behavior-string"])
def test_scenario_rejects_a_mistyped_adversary(adversary, message):
    """A string is not split into one-letter ids, nor a list read as a map;
    a field that must be an object and is not is named."""
    with pytest.raises(ConfigInvalid, match=f"^{message}$"):
        scenario_from_dict({"group": "toy", "n": 2, "k": 1, "adversary": adversary})


_MISTYPED_FIELDS = {
    "behavior-type": ({"adversary": {"corrupted": ["C"], "behaviors": {"C": {"type": ["x"]}}}},
                      "field 'type' must be a string, got ['x']"),
    "strategy": ({"adversary": {"corrupted": ["C"], "behaviors": {
        "C": {"type": "bias_pick", "strategy": ["zero"]}}}},
                 "field 'strategy' must be a string, got ['zero']"),
    "group": ({"group": ["toy"]}, "field 'group' must be a string, got ['toy']"),
    "firm-entry": ({"firms": [{"id": "F1", "m": 1}, 5]},
                   "scenario field 'firms' entry 1 is not an object"),
    "firms": ({"firms": 5}, "scenario field 'firms' is not a list"),
    "firm-id": ({"firms": [{"id": ["F1"], "m": 1}]}, "bad firm id ['F1']"),
    "ledger": ({"firms": [{"id": "F1", "ledger": 0, "meter_pk": "00"}]},
               "field 'ledger' must be a string, got 0"),
    "step": ({"adversary": {"corrupted": ["C"], "behaviors": {"C": {"type": "abort_at"}}}},
             "behavior abort_at needs one of step"),
    "cycle-list": ({"cycle_id": ["a"]}, "cycle id must be a non-empty string, got ['a']"),
    "cycle-empty": ({"cycle_id": ""}, "cycle id must be a non-empty string, got ''"),
}


@pytest.mark.parametrize("fields, message", _MISTYPED_FIELDS.values(), ids=_MISTYPED_FIELDS)
def test_scenario_names_a_mistyped_field(fields, message):
    """Each once failed as "bad scenario: unhashable type" or "argument of
    type 'int' is not iterable", or (cycle id) ran."""
    with pytest.raises(ConfigInvalid, match=f"^{re.escape(message)}$"):
        scenario_from_dict({"group": "toy", "n": 2, "k": 1, **fields})


def test_session_config_requires_a_cycle_id_string(pp):
    firms = (FirmSpec("F1", true_m=1),)
    for cycle_id in (["a"], "", None, 7):
        with pytest.raises(ConfigInvalid, match="^cycle id must be a non-empty string"):
            SessionConfig(pp=pp, firms=firms, k=1, cycle_id=cycle_id)
    assert SessionConfig(pp=pp, firms=firms, k=1, cycle_id="2026-Q1").cycle_id == "2026-Q1"


def test_scenario_loads_from_json_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "group": "toy", "n": 3, "k": 1, "trials": 5, "seed": 1,
        "adversary": {"corrupted": [], "behaviors": {}},
    }))
    scenario = load_scenario(str(path))
    assert scenario.config.n == 3 and scenario.trials == 5


def test_scenario_sizes_are_bounded_at_their_named_limits():
    at_limit = scenario_from_dict({"n": MAX_SCENARIO_FIRMS, "k": MAX_SCENARIO_FIRMS,
                                   "trials": MAX_SCENARIO_TRIALS})
    assert at_limit.config.n == MAX_SCENARIO_FIRMS
    assert at_limit.trials == MAX_SCENARIO_TRIALS
    for body in ({"n": MAX_SCENARIO_FIRMS + 1, "k": 1},
                 {"n": 3, "k": MAX_SCENARIO_FIRMS + 1},
                 {"n": 3, "k": 1, "trials": MAX_SCENARIO_TRIALS + 1},
                 {"k": 1, "firms": [{"id": "F1", "m": 1}] * (MAX_SCENARIO_FIRMS + 1)}):
        with pytest.raises(ConfigInvalid):
            scenario_from_dict(body)


def test_unknown_scenario_name_rejected():
    with pytest.raises(ConfigInvalid):
        load_scenario("definitely-not-a-scenario")


# ---------------------------------------------------------------------------
# Transcript parsing, replay, and independent audit.
# ---------------------------------------------------------------------------


def test_transcript_parse_roundtrip(pp):
    config = _config(pp, [10, 20, 30], k=2)
    original = run_session(config, seed=12).transcript
    parsed = parse_transcript(original.to_jsonl())
    assert parsed.to_jsonl() == original.to_jsonl()
    assert parsed.digest() == original.digest()


def test_routing_flags_a_digest_that_is_not_the_payloads(pp):
    """In process and after a parse, an event whose digest was overwritten."""
    transcript = run_session(_config(pp, [10, 20, 30], k=2), seed=12).transcript
    assert routing_violations(transcript) == []
    transcript.events[3].digest = digest_of({"not": "the payload"})
    assert routing_violations(transcript) == ["payload digest mismatch at seq 3"]
    parsed = parse_transcript(transcript.to_jsonl())
    assert routing_violations(parsed) == ["payload digest mismatch at seq 3"]


def test_a_payload_changed_after_record_leaves_the_event_as_recorded():
    transcript = Transcript({"participants": [ENV_ID, "F1"], "roster": ["F1"]})
    payload = {"firm": "F1", "m": 10, "hours": [1, 2]}
    transcript.record(step=1, kind="assign_m", sender=ENV_ID, channel="private",
                      recipient="F1", payload=payload)
    ev = transcript.events[0]
    recorded = (ev.digest, transcript.to_jsonl())
    payload["m"] = 11
    payload["hours"].append(3)
    payload["extra"] = None
    assert ev.payload == {"firm": "F1", "m": 10, "hours": [1, 2]}
    assert (ev.digest, transcript.to_jsonl()) == recorded
    assert routing_violations(transcript) == []


def _payload_edited(blob, kind, field):
    """The JSONL with the first ``kind`` event's payload ``field`` changed and
    its recorded digest left as it was, and that event's seq."""
    lines = [json.loads(line) for line in blob.splitlines()]
    obj = next(obj for obj in lines if obj.get("kind") == kind)
    value = obj["payload"][field]
    obj["payload"][field] = value + 1 if isinstance(value, int) else value[::-1]
    assert obj["payload"][field] != value
    return b"\n".join(canonical_json(obj) for obj in lines) + b"\n", obj["seq"]


@pytest.mark.parametrize("kind, field", [("report", "m"), ("commitment", "c"),
                                         ("pick_reveal", "m")])
def test_routing_flags_a_payload_edited_under_its_recorded_digest(pp, kind, field):
    """A parsed event's digest is the file's: it is rechecked against the
    payload, and an edited payload no longer matches it."""
    config = _config(pp, [10, 20, 30], k=2, pick_mode="joint")
    edited, seq = _payload_edited(run_session(config, seed=3).transcript.to_jsonl(), kind, field)
    assert routing_violations(parse_transcript(edited)) == [
        f"payload digest mismatch at seq {seq}"]


@pytest.fixture(scope="module", params=["toy", "secp256k1"])
def either_pp(request, pp):
    return pp if request.param == "toy" else setup(production_group(), "hash_derived")


def test_a_recorded_digest_is_derived_and_a_parsed_one_given(either_pp):
    transcript = run_session(_config(either_pp, [10, 20, 30], k=2, pick_mode="joint"),
                             seed=3).transcript
    for ev in transcript.events:
        assert ev.digest == hashlib.sha256(ev.payload_json).hexdigest()
    parsed = parse_transcript(transcript.to_jsonl())
    assert [ev.digest for ev in parsed.events] == [ev.digest for ev in transcript.events]
    assert routing_violations(parsed) == []

    other = {"firm": "F1", "m": 11}
    recorded = dataclasses.replace(transcript.events[1], payload=other)
    assert recorded.digest == digest_of(other)
    given = dataclasses.replace(parsed.events[1], payload=other)
    assert given.digest == parsed.events[1].digest != digest_of(other)
    parsed.events[1] = given
    assert routing_violations(parsed) == ["payload digest mismatch at seq 1"]


@pytest.mark.parametrize("name", ["sha256", "canonical_json"])
def test_recording_and_routing_hash_and_encode_no_payload(pp, name):
    """The sha256 and the canonical_json calls of a recorded session and its
    routing check do not grow with the number of events."""
    owner = harness.hashlib if name == "sha256" else harness
    calls = []
    for n in (3, 30):
        config = _config(pp, list(range(n)), k=2, pick_mode="joint")
        with mock.patch.object(owner, name, wraps=getattr(owner, name)) as counted:
            routing_violations(run_session(config, seed=4, record=True).transcript)
        calls.append(counted.call_count)
    assert calls[0] == calls[1]


@pytest.mark.parametrize("first_read", ["payload_json", "digest", "to_jsonl", "routing"])
def test_record_copies_the_payload_before_anything_reads_it(first_read):
    """A payload edited at any depth right after record, before the event is
    read: the event keeps the payload as it was when recorded."""
    def recorded(payload):
        t = Transcript({"participants": [ENV_ID, "F1"], "roster": ["F1"]})
        t.record(step=1, kind="assign_m", sender=ENV_ID, channel="private",
                 recipient="F1", payload=payload)
        return t

    payload = {"firm": "F1", "m": 10, "hours": [1, [2]], "meta": {"a": {"b": 1}}}
    original = canonical_json(payload)
    transcript = recorded(payload)
    payload["m"] = 11
    payload["firm"] = "F2"
    payload["hours"].append(3)
    payload["hours"][1].append(4)
    payload["meta"]["c"] = None
    payload["meta"]["a"]["d"] = 2
    ev = transcript.events[0]
    if first_read == "routing":
        assert routing_violations(transcript) == []
    elif first_read != "payload_json":
        getattr(ev, first_read) if first_read == "digest" else transcript.to_jsonl()
    assert ev.payload_json == original
    assert ev.digest == hashlib.sha256(original).hexdigest()
    assert transcript.to_jsonl() == recorded(json.loads(original)).to_jsonl()
    assert routing_violations(transcript) == []


@pytest.mark.parametrize("payload", [
    {"blob": b"x"}, {"ids": {"F1"}}, {"obj": object()}, {"deep": [{"blob": b"x"}]},
    {1: "a", "b": 2}, {("F1",): 1}, [1, 2], "x", {"a": (1, 2)}, {2: "a", 10: "b"},
])
def test_record_refuses_a_payload_canonical_json_refuses(payload):
    transcript = Transcript({"participants": [ENV_ID], "roster": []})
    with pytest.raises(TypeError):
        transcript.record(step=1, kind="pp", sender=ENV_ID, channel="broadcast",
                          recipient=None, payload=payload)
    assert transcript.events == []


def test_run_trials_records_what_run_session_does(pp, monkeypatch):
    """Each trial's transcript is run_session's under the trial's seed, and
    no two trials' headers share a list or dict."""
    config = _config(pp, [10, 20, 30, 40], k=2, pick_mode="joint")
    adversary = AdversarySpec(corrupted={"F2"}, behaviors={"F2": Deviation(delta=5)})
    captured = []
    check = harness.routing_violations

    def capture(transcript):
        captured.append(transcript)
        return check(transcript)

    monkeypatch.setattr(harness, "routing_violations", capture)
    run_trials(config, adversary, trials=3, seed=9)
    assert len(captured) == 3
    blobs = [t.to_jsonl() for t in captured]
    for i, blob in enumerate(blobs):
        alone = run_session(config, adversary, seed=derive_seed(9, "trial", i)).transcript
        assert blob == alone.to_jsonl()
    captured[0].header["roster"].append("F9")
    for value in captured[1].header.values():
        if isinstance(value, list):
            value.append("F9")
        elif isinstance(value, dict):
            value["extra"] = 1
    assert captured[2].to_jsonl() == blobs[2]
    assert captured[1].header["roster"] == ["F1", "F2", "F3", "F4", "F9"]


_PAYLOADS = st.dictionaries(st.text(), _JSON_VALUES, max_size=5)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.text(), st.none() | st.text(), _PAYLOADS), min_size=1, max_size=4))
def test_recorded_payload_bytes_decode_insert_and_reparse_unchanged(events):
    """Payloads with ints past 2**64, non-ASCII and escaped text, nested
    lists and dicts, null and booleans; senders and recipients too."""
    transcript = Transcript({"participants": ["E"], "roster": [], "note": "é\n"})
    for sender, recipient, payload in events:
        transcript.record(step=1, kind="pp", sender=sender, recipient=recipient,
                          channel="broadcast" if recipient is None else "private",
                          payload=payload)
    transcript.verdict = {"status": "completed"}
    blob = transcript.to_jsonl()
    lines = blob.splitlines()
    assert len(lines) == len(events) + 2
    for ev, (_, _, payload), line in zip(transcript.events, events, lines[1:]):
        assert ev.payload == payload
        assert canonical_json(ev.payload) == canonical_json(payload)  # true stays true
        assert line == canonical_json(ev.to_dict())
    assert parse_transcript(blob).to_jsonl() == blob


def test_parse_rejects_malformed_stream(pp):
    with pytest.raises(TranscriptFormatError):
        parse_transcript(b"not json\n")
    config = _config(pp, [10], k=0)
    blob = run_session(config, seed=13).transcript.to_jsonl()
    no_header = b"\n".join(blob.splitlines()[1:])
    with pytest.raises(TranscriptFormatError):
        parse_transcript(no_header)


@pytest.mark.parametrize("line", [b"[1]", b'{"header": 5}', b'{"header": {}}\n{"verdict": 3}'])
def test_parse_rejects_non_object_lines(line):
    with pytest.raises(TranscriptFormatError):
        parse_transcript(line)


@pytest.mark.parametrize("participants", [None, "E", ["E", 3]])
def test_audit_reports_header_without_participants_list(pp, participants):
    header = {"roster": ["F1"]}
    if participants is not None:
        header["participants"] = participants
    report = audit_transcript(parse_transcript(canonical_json({"header": header})))
    assert not report["ok"] and report["replayed"] is None
    assert report["violations"] == ["header field 'participants' is not a list of strings"]


@pytest.mark.parametrize("missing", ["F9", VERIFIER_ID])
def test_audit_reports_a_viewer_missing_from_participants(pp, missing):
    """A roster firm or the verifier that is not a participant has no view:
    a header violation, not an UnknownParticipant from building views."""
    def edit(lines):
        header = lines[0]["header"]
        if missing == "F9":
            header["roster"].append("F9")
        else:
            header["participants"].remove(VERIFIER_ID)
        header["config_digest"] = harness.config_digest(header)

    transcript = parse_transcript(_edited_lines(pp, edit))
    violation = f"header field 'participants' lacks {missing!r}"
    assert leakage_violations(transcript) == [violation]
    report = audit_transcript(transcript)
    assert not report["ok"] and violation in report["violations"]


def _edited_lines(pp, edit):
    """An engine transcript's JSONL after edit(list of line objects)."""
    blob = run_session(_config(pp, [10, 20, 30], k=2), seed=19).transcript.to_jsonl()
    lines = [json.loads(line) for line in blob.splitlines()]
    edit(lines)
    return b"\n".join(canonical_json(obj) for obj in lines)


@pytest.mark.parametrize("field, value", [
    ("seq", "a"), ("seq", True), ("step", 1.5), ("kind", 3), ("sender", None),
    ("channel", None), ("recipient", 5), ("payload", []), ("digest", None),
])
def test_parse_rejects_mistyped_event_fields(pp, field, value):
    blob = _edited_lines(pp, lambda lines: lines[1].update({field: value}))
    with pytest.raises(TranscriptFormatError, match=repr(field)):
        parse_transcript(blob)


def _set_payload(kind, key, value):
    def edit(lines):
        for obj in lines:
            if obj.get("kind") == kind:
                obj["payload"][key] = value
    return edit


@pytest.mark.parametrize("edit, violation", [
    (lambda lines: lines[0]["header"].update(corrupted=5),
     "header field 'corrupted' is not a list of strings"),
    (lambda lines: lines[-1]["verdict"].update(abort="x"), "recorded abort is not an object"),
    (_set_payload("verification_list", "v", "F1"), "is not a list of firm ids"),
    (_set_payload("env_truth", "firm", []), "do not replay"),
])
def test_audit_reports_malformed_records_without_crashing(pp, edit, violation):
    report = audit_transcript(parse_transcript(_edited_lines(pp, edit)))
    assert not report["ok"]
    assert any(violation in v for v in report["violations"]), report["violations"]


@pytest.mark.parametrize(
    "adversary,expect_step",
    [
        (HONEST_ADVERSARY, None),
        (AdversarySpec(frozenset({"F1"}), {"F1": Deviation(delta=5)}), 6),
        (AdversarySpec(frozenset({COUNTRY_ID}), {COUNTRY_ID: Deviation(dm=1)}), 7),
        (AdversarySpec(frozenset({"F2"}), {"F2": Deviation(misreveal=0)}), 6),
        (AdversarySpec(frozenset({"F2"}), {"F2": Deviation(silent_from=2)}), 3),
    ],
    ids=["honest", "tamper", "misreport-sum", "bad-reveal", "silent-firm"],
)
def test_replay_agrees_with_recorded_verdict(pp, adversary, expect_step):
    config = _config(pp, [10, 20, 30], k=3)
    result = run_session(config, adversary, seed=14)
    transcript = result.transcript
    if expect_step is None:
        assert result.verdict.completed
    else:
        assert result.verdict.abort.step == expect_step
    report = audit_transcript(transcript)
    assert report["ok"], report["violations"]
    replayed = replay_verdict(transcript)
    assert replayed["status"] == ("completed" if expect_step is None else "aborted")


def test_replay_detects_tampered_event_payload(pp):
    config = _config(pp, [10, 20], k=1)
    blob = run_session(config, seed=15).transcript.to_jsonl()
    # Flip a committed sum inside the transcript body.
    tampered = blob.replace(b'"m": 30', b'"m": 31')
    if tampered == blob:
        tampered = blob.replace(b'"m":30', b'"m":31')
    assert tampered != blob
    report = audit_transcript(parse_transcript(tampered))
    assert not report["ok"]


def test_replay_detects_forged_verdict(pp):
    config = _config(pp, [10, 20], k=0)
    adversary = AdversarySpec(frozenset({COUNTRY_ID}), {COUNTRY_ID: Deviation(dm=1)})
    transcript = run_session(config, adversary, seed=16).transcript
    # Forge the verdict line to claim completion; events still show the lie.
    lines = transcript.to_jsonl().splitlines()
    forged_line = json.dumps({
        "verdict": {"status": "completed", "accepted_m": 30,
                    "abort": None, "v_list": []},
    }).encode()
    forged = b"\n".join(lines[:-1] + [forged_line]) + b"\n"
    report = audit_transcript(parse_transcript(forged))
    assert not report["ok"]
    assert report["violations"]


def test_pick_fault_replays_as_behavioral_abort(pp):
    from emissions_audit.pick import COUNTRY as PICK_COUNTRY

    config = _config(pp, [10, 20, 30], k=2, pick_mode="joint",
                     pick_fault_policy="abort")
    adversary = AdversarySpec(
        frozenset({COUNTRY_ID}), {COUNTRY_ID: Deviation(misreveal=0)}
    )
    result = run_session(config, adversary, seed=17)
    assert result.verdict.abort is not None and result.verdict.abort.step == 5
    report = audit_transcript(result.transcript)
    assert report["ok"], report["violations"]


def _joint_events(pp, seed, adversary=HONEST_ADVERSARY, n=5, k=2, **kw):
    """A joint-pick toy session's header, event dicts and verdict line."""
    config = _config(pp, list(range(1, n + 1)), k=k, pick_mode="joint", **kw)
    blob = run_session(config, adversary, seed=seed).transcript.to_jsonl()
    lines = [json.loads(line) for line in blob.splitlines()]
    return lines[0], lines[1:-1], lines[-1]


def _redigested(header, events, verdict):
    """The transcript of the given (possibly edited) event dicts, with seq
    renumbered and every digest recomputed, so only the replay can object."""
    for seq, ev in enumerate(events):
        ev.update(seq=seq, digest=digest_of(ev["payload"]))
    transcript = parse_transcript(b"\n".join(map(canonical_json, [header, *events, verdict])))
    assert routing_violations(transcript) == []
    return transcript


def _first(events, kind):
    return next(ev for ev in events if ev["kind"] == kind)


def _pick_violations(transcript):
    report = audit_transcript(transcript)
    assert not report["ok"]
    return [v for v in report["violations"] if "pick" in v or "do not replay" in v]


def test_audit_refuses_a_fault_against_a_standing_reveal(pp):
    header, events, verdict = _joint_events(pp, seed=3)
    at = events.index(_first(events, "pick_reveal")) + 1
    events.insert(at, dict(events[at - 1], kind="pick_fault",
                           payload={"reason": "reveal does not open the commitment", "round": 0}))
    assert _pick_violations(_redigested(header, events, verdict)) == [
        f"pick does not replay: pick_fault at seq {at} faults the country, whose reveal stands"]


@pytest.mark.parametrize("kind, what", [("pick_commit", "commitment"), ("pick_reveal", "reveal")])
def test_audit_refuses_a_second_pick_message_from_a_party_in_a_round(pp, kind, what):
    """A copy of round 0's first commitment or reveal (the country's), sent
    again after the verifier's round-0 reveal."""
    header, events, verdict = _joint_events(pp, seed=3)
    reveals = [ev for ev in events if ev["kind"] == "pick_reveal"]
    assert reveals[1]["sender"] == VERIFIER_ID and reveals[1]["payload"]["round"] == 0
    at = events.index(reveals[1]) + 1
    events.insert(at, dict(_first(events, kind)))
    assert _pick_violations(_redigested(header, events, verdict)) == [
        f"pick does not replay: {kind} at seq {at} is a second {what} from the country "
        "this round"]


def test_audit_requires_the_fault_of_a_failed_reveal(pp):
    bad_country = AdversarySpec(frozenset({COUNTRY_ID}), {COUNTRY_ID: Deviation(misreveal=0)})
    header, events, verdict = _joint_events(pp, seed=3, adversary=bad_country)
    assert audit_transcript(_redigested(header, events, verdict))["ok"]
    events.remove(_first(events, "pick_fault"))
    assert _pick_violations(_redigested(header, events, verdict)) == [
        "pick does not replay: no pick_fault names the country, whose reveal in round 0 fails"]


def test_audit_checks_the_list_is_the_settled_pick(pp):
    header, events, verdict = _joint_events(pp, seed=3, k=5)
    listed = _first(events, "verification_list")["payload"]
    listed["v"] = listed["v"][1:]
    assert any(v.startswith("pick does not replay: verification list")
               for v in _pick_violations(_redigested(header, events, verdict)))


def test_audit_refuses_a_pick_fault_verdict_the_events_contradict(pp):
    header, events, verdict = _joint_events(pp, seed=3)
    verdict["verdict"].update(status="aborted", accepted_m=None, abort={
        "step": 5, "culprit_role": "country", "culprit": COUNTRY_ID,
        "reason": "pick fault: reveal does not open the commitment"})
    report = audit_transcript(_redigested(header, events, verdict))
    assert not report["ok"] and report["replayed"]["status"] == "completed"
    assert report["violations"] == ["recorded status aborted but replay says completed"]


@pytest.mark.parametrize("abort", [
    {"step": 5, "culprit_role": "verifier", "culprit": VERIFIER_ID, "reason": "went silent"},
    {"step": 5, "culprit_role": "country", "culprit": COUNTRY_ID, "reason": "went silent"},
    {"step": 6, "culprit_role": "firm", "culprit": None, "reason": "ledger check failed: chain"},
], ids=["verifier-silent", "country-silent", "ledger"])
def test_audit_refuses_a_consistent_abort_the_record_does_not_bear_out(pp, abort):
    """Verdict line and closing event agree on an abort that the messages
    refute: the silent party sent its step-5 pick messages, or the abstract
    session forwarded no ledger of the (first picked) failing firm."""
    header, events, verdict = _joint_events(pp, seed=3)
    v_list = verdict["verdict"]["v_list"]
    abort = dict(abort, culprit=abort["culprit"] or v_list[0])
    assert events[-1]["kind"] == "verdict"
    events[-1].update(step=abort["step"], kind="abort", sender=ENV_ID, payload=abort)
    verdict["verdict"] = {"status": "aborted", "accepted_m": None, "abort": abort,
                          "v_list": v_list if abort["step"] > 5 else None}
    report = audit_transcript(_redigested(header, events, verdict))
    assert report["violations"] == [
        "recorded status aborted but replay says completed",
        'the closing event is not the replay\'s verdict from V at step 7: '
        '{"accepted_m":15,"status":"completed"}']


def test_audit_replays_the_first_verification_list(pp):
    """A caught tamperer's joint transcript with a second list that leaves
    it out, and a verdict of completion: the pick replay checks the first
    list, so the verdict replay must read the first list too."""
    tamperer = AdversarySpec(frozenset({"F2"}), {"F2": Deviation(delta=5)})
    header, events, verdict = _joint_events(pp, seed=0, adversary=tamperer, n=4)
    assert verdict["verdict"]["abort"]["culprit"] == "F2"
    assert verdict["verdict"]["v_list"] == ["F2", "F3"]
    m_pub = _first(events, "sum")["payload"]["m"]
    events[-1:] = [dict(_first(events, "verification_list"), payload={"v": ["F3"]}),
                   dict(events[-1], step=7, kind="verdict", sender=VERIFIER_ID,
                        payload={"status": "completed", "accepted_m": m_pub})]
    verdict["verdict"] = {"status": "completed", "accepted_m": m_pub, "v_list": ["F3"]}
    report = audit_transcript(_redigested(header, events, verdict))
    assert report["replayed"]["abort"]["culprit"] == "F2"
    assert report["violations"][0] == "recorded status completed but replay says aborted"


def test_audit_opens_cross_base_reveals_under_the_published_base(pp):
    header, events, verdict = _joint_events(pp, seed=3, pick_base_mode="cross")
    assert audit_transcript(_redigested(header, events, verdict))["ok"]
    base = _first(events, "pick_base")["payload"]
    h = pp.group.decode_point(bytes.fromhex(base["h"]))
    base["h"] = pp.group.encode_point(h + h).hex()
    assert _pick_violations(_redigested(header, events, verdict)) == [
        f"pick does not replay: no pick_fault names the {base['committer']}, "
        "whose reveal in round 0 fails"]


def _base_forgery(which, events, pp):
    """Insert one pick_base event the engine never sends, or move or re-send
    the first one; returns the position of the event to refuse."""
    if which == "late":  # after the last settle, with the shared base itself
        at = 1 + max(i for i, ev in enumerate(events) if ev["kind"] == "pick_settle")
        ev = dict(events[at - 1], kind="pick_base", sender=VERIFIER_ID, payload={
            "committer": "country", "round": -1, "h": pp.group.encode_point(pp.h).hex()})
    else:
        ev = _first(events, "pick_base")
        at = events.index(ev) + 1
        if which == "resent":  # by the environment, for round 7
            ev = dict(ev, sender=ENV_ID, payload=dict(ev["payload"], round=7))
        elif which == "second":
            ev = dict(ev)
        else:
            events.remove(ev)
            if which == "own":  # sent by its committer, not by the peer
                at, ev = at - 1, dict(ev, sender=COUNTRY_ID)
            else:  # after round 0's first commitment
                at = events.index(_first(events, "pick_commit")) + 1
    events.insert(at, ev)
    return at


@pytest.mark.parametrize("which, base, violation", [
    ("resent", "cross", "is for round 7, not -1"),
    ("second", "cross", "publishes a second base for the country"),
    ("own", "cross", "is sent by 'C', not by the peer of 'country'"),
    ("early-round", "cross", "comes after round 0's first commitment"),
    ("late", "shared", "comes after round 0's first commitment"),
], ids=["resent", "second", "own", "early-round", "late"])
def test_audit_requires_each_base_once_from_the_peer_before_round_0(pp, which, base, violation):
    """Every pick_base the engine sends: round -1, one per committer, sent by
    the committer's peer, before round 0's first commitment.  A base equal
    to one already in force changes no reveal, so only this check sees it."""
    header, events, verdict = _joint_events(pp, seed=3, pick_base_mode=base)
    at = _base_forgery(which, events, pp)
    assert _pick_violations(_redigested(header, events, verdict)) == [
        f"pick does not replay: pick_base at seq {at} {violation}"]


@pytest.mark.parametrize("kind, field, value", [
    ("pick_reveal", "r", 5), ("pick_reveal", "m", None), ("pick_commit", "c", "zz"),
    ("pick_settle", "index", "0"), ("pick_base", "committer", ["x"]), ("pick_settle", "round", {}),
    ("pick_settle", "round", True), ("pick_settle", "index", None),
])
def test_malformed_pick_payload_is_a_violation_not_a_crash(pp, kind, field, value):
    """The edit lands on the last event of its kind, which is in round 1 (a
    JSON true there equals 1 in Python)."""
    header, events, verdict = _joint_events(pp, seed=3, pick_base_mode="cross")
    [ev for ev in events if ev["kind"] == kind][-1]["payload"][field] = value
    assert _pick_violations(_redigested(header, events, verdict))


@pytest.mark.parametrize("base", ["shared", "cross"])
@pytest.mark.parametrize("policy", ["complete", "abort"])
def test_engine_pick_transcripts_audit_ok(pp, base, policy):
    config = _config(pp, [1, 2, 3, 4], k=3, pick_mode="joint", pick_base_mode=base,
                     pick_fault_policy=policy)
    behaviors = [{}, {COUNTRY_ID: Deviation(pick="peer_seeded")}, {VERIFIER_ID: Deviation(misreveal=1)},
                 {COUNTRY_ID: Deviation(misreveal=0), VERIFIER_ID: Deviation(pick="max")}]
    for seed in range(3):
        for b in behaviors:
            report = audit_transcript(run_session(config, AdversarySpec(b, b), seed=seed).transcript)
            assert report["ok"], report["violations"]


_SWEEP_PICKS = {
    "env": {},
    "joint-shared-complete": {"pick_mode": "joint"},
    "joint-cross-abort": {"pick_mode": "joint", "pick_base_mode": "cross",
                          "pick_fault_policy": "abort"},
}
_SWEEP_BEHAVIORS = [
    {},
    *({pid: Deviation(silent_from=step)} for pid in (COUNTRY_ID, VERIFIER_ID, "F2") for step in range(1, 8)),
    {COUNTRY_ID: Deviation(pick="zero")}, {VERIFIER_ID: Deviation(pick="max")},
    {COUNTRY_ID: Deviation(pick="peer_seeded")},
    {COUNTRY_ID: Deviation(misreveal=0)}, {VERIFIER_ID: Deviation(misreveal=1)},
    {"F2": Deviation(delta=5)}, {"F2": Deviation(absolute=-1)}, {"F2": Deviation(misreveal=0)},
    {COUNTRY_ID: Deviation(dm=1)}, {COUNTRY_ID: Deviation(dm=-10_000)},
]


def _small_ledger(firm_id, values, seed):
    kp = MeterKeypair.generate(random.Random(seed))
    ledger = FirmLedger.empty(firm_id)
    for h, e in enumerate(values):
        hour = parse_hour(f"2026-03-01T{h:02d}:00:00Z")
        append_reading(ledger, kp.sign_reading(firm_id, hour, e), kp.public_bytes)
    return ledger, kp


def _sweep_sessions(pp, which):
    """(config, adversary) pairs of one part of the replay sweep."""
    if which == "builtin":
        for name in BUILTIN_SCENARIOS:
            scenario = load_scenario(name)
            yield scenario.config, scenario.adversary
    elif which == "integrated":
        # Before and after F1's ledger gains a reading the config never saw.
        (l1, kp1), (l2, kp2) = _small_ledger("F1", [5, 10], 1), _small_ledger("F2", [1, 2], 2)
        config = SessionConfig(pp=pp, k=2, data_mode="integrated", firms=(
            FirmSpec("F1", ledger=l1, meter_pk=kp1.public_bytes),
            FirmSpec("F2", ledger=l2, meter_pk=kp2.public_bytes)))
        yield config, HONEST_ADVERSARY
        yield config, AdversarySpec(frozenset({VERIFIER_ID}), {VERIFIER_ID: Deviation(silent_from=7)})
        append_reading(l1, kp1.sign_reading("F1", parse_hour("2026-03-01T05:00:00Z"), 4),
                       kp1.public_bytes)
        yield config, HONEST_ADVERSARY
    else:
        config = _config(pp, [1, 2, 3, 4], k=3, **_SWEEP_PICKS[which])
        for behaviors in _SWEEP_BEHAVIORS:
            yield config, AdversarySpec(frozenset(behaviors), behaviors)


# The aborts of each part of the sweep that must occur in it: every step a
# silence can stop, the pick fault and the ledger abort.
_SILENCES = {(step, "went silent") for step in (3, 4, 6, 7)}
_SWEEP_MUST_HIT = {
    "builtin": {(4, "went silent")},
    "env": _SILENCES,
    "joint-shared-complete": _SILENCES | {(5, "went silent")},
    "joint-cross-abort": _SILENCES | {(5, "went silent"), (5, "pick fault")},
    "integrated": {(6, "ledger check failed"), (7, "went silent")},
}


@pytest.mark.parametrize("which", _SWEEP_MUST_HIT)
def test_engine_transcripts_replay_to_their_verdict_line(pp, which):
    """The replay of every engine transcript is its verdict line, silence and
    ledger aborts included, and the audit holds."""
    hit = set()
    for config, adversary in _sweep_sessions(pp, which):
        for seed in (1, 2, 3):
            transcript = run_session(config, adversary, seed=seed).transcript
            report = audit_transcript(parse_transcript(transcript.to_jsonl()))
            assert report["ok"], (adversary, seed, report["violations"])
            assert report["replayed"] == report["recorded"] == transcript.verdict
            if "abort" in transcript.verdict:
                abort = transcript.verdict["abort"]
                hit.add((abort["step"], abort["reason"].split(":")[0]))
    assert hit >= _SWEEP_MUST_HIT[which]


def _pick_edit(pp, draw, ev, remaining):
    """Edit pick event ``ev`` so that its round picks another firm, or so that
    a reveal no longer opens its commitment."""
    p, group, l = ev["payload"], pp.group, len(remaining)
    if ev["kind"] == "pick_settle":
        if l == 1 or draw(st.booleans()):
            p["picked"] = draw(st.sampled_from(["ZZZ"] + [f for f in remaining if f != p["picked"]]))
        else:
            p["index"] = draw(st.sampled_from([i for i in range(l) if i != p["index"]]))
            p["picked"] = remaining[p["index"]]
    elif ev["kind"] == "pick_reveal":
        if l > 1 and draw(st.booleans()):
            p["m"] = draw(st.sampled_from([m for m in range(l) if m != p["m"]]))
        else:
            r = group.decode_scalar(bytes.fromhex(p["r"]))
            p["r"] = group.encode_scalar(r + group.scalar(draw(st.integers(1, pp.q - 1)))).hex()
    else:  # pick_commit
        c = group.decode_point(bytes.fromhex(p["c"]))
        p["c"] = group.encode_point(c + pp.g).hex()


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 6), seed=st.integers(0, 2**32), data=st.data(),
       base=st.sampled_from(["shared", "cross"]))
def test_no_edit_that_changes_an_honest_pick_audits_ok(pp, n, seed, base, data):
    k = data.draw(st.integers(1, n))
    header, events, verdict = _joint_events(pp, seed, n=n, k=k, pick_base_mode=base)
    assert audit_transcript(_redigested(header, events, verdict))["ok"]
    editable = [i for i, ev in enumerate(events)
                if ev["kind"] in ("pick_commit", "pick_reveal", "pick_settle")]
    at = data.draw(st.sampled_from(editable))
    settled = [ev["payload"]["picked"] for ev in events[:at] if ev["kind"] == "pick_settle"]
    remaining = [fid for fid in header["header"]["roster"] if fid not in settled]
    _pick_edit(pp, data.draw, events[at], remaining)
    assert not audit_transcript(_redigested(header, events, verdict))["ok"]


def _edited(transcript, edit):
    """Copy of the transcript with edit(event) for each event; None drops it."""
    out = Transcript(transcript.header)
    out.verdict = transcript.verdict
    out.events = [ev for ev in map(edit, transcript.events) if ev is not None]
    return out


@pytest.mark.parametrize("kind, field, value", [
    ("commitment", "c", "02" + "00" * 32),  # x = 0 is not on the curve
    ("commitment", "c", "zz"),
    ("report", "r", "ff" * 32),  # not below the group order
    ("reveal_opening", "r", "00"),  # wrong width
    ("sum", "r", 7),
])
def test_undecodable_payload_is_a_violation_not_a_crash(kind, field, value):
    pp = setup(production_group(), "hash_derived")
    transcript = run_session(_config(pp, [10, 20, 30], k=3), seed=18).transcript
    firm = "F2" if kind != "sum" else None

    def edit(ev):
        if ev.kind == kind and ev.payload.get("firm") == firm:
            return dataclasses.replace(ev, payload=dict(ev.payload, **{field: value}))
        return ev

    tampered = _edited(transcript, edit)
    with pytest.raises((ValueError, TypeError)):
        replay_verdict(tampered)
    report = audit_transcript(tampered)
    assert not report["ok"] and report["replayed"] is None
    assert any("do not replay" in v for v in report["violations"])


# ---------------------------------------------------------------------------
# Batched examination: the culprit is the one the item-by-item loop names.
# ---------------------------------------------------------------------------

EXAMINE_N = 50


@pytest.fixture(scope="module")
def examined_session():
    """An honest secp256k1 roster after step 2, and its recorded transcript."""
    pp = setup(production_group(), "hash_derived")
    config = _config(pp, [1000 + 7 * i for i in range(EXAMINE_N)], k=0)
    session = AuditSession(config, random.Random(5))
    session.step1_setup()
    session.step2_reports()
    transcript = run_session(config, seed=5).transcript
    return session, transcript


def _reference_examine(pp, roster, reports, commitments):
    """The sequential step-3 loop over plain affine arithmetic."""
    for fid in roster:
        if fid not in reports:
            return fid, "report missing"
        m, r = reports[fid]
        if not isinstance(m, int) or m < 0 or m >= MAX_EMISSIONS_KG:
            return fid, f"reported total {m} out of range"
        if pp.group.mul(m, pp.g) + pp.group.mul(r, pp.h) != commitments[fid]:
            return fid, "opening does not match the commitment"
    return None


def _apply(reports, faults):
    """faults: {firm: "opening" | "range" | "negative" | "missing"}."""
    reports = dict(reports)
    for fid, fault in faults.items():
        m, r = reports[fid]
        if fault == "missing":
            del reports[fid]
        else:
            reports[fid] = ({"opening": m + 1, "range": MAX_EMISSIONS_KG, "negative": -1}[fault], r)
    return reports


def _mixed_cases():
    spots = (0, 1, 24, 48, 49)
    for i in spots:
        yield {i: "opening"}
        for j in spots:
            if j != i:
                yield {i: "opening", j: "opening"}
                for other in ("range", "negative", "missing"):
                    yield {i: "opening", j: other}


def test_batched_examine_names_the_sequential_culprit(examined_session, monkeypatch):
    monkeypatch.setattr(commitment, "BATCH_MIN_ITEMS", 2)
    base, transcript = examined_session
    pp, roster = base.config.pp, base.config.roster
    checked = 0
    for positions in _mixed_cases():
        faults = {roster[i]: fault for i, fault in positions.items()}
        reports = _apply(base.state.reports, faults)
        expected = _reference_examine(pp, roster, reports, base.state.commitments)

        session = AuditSession(base.config, random.Random(0))
        session.state = dataclasses.replace(base.state, reports=reports)
        abort = session.step3_examine()
        assert (abort.culprit_id, abort.reason) == expected, positions

        def edit(ev):
            fid = ev.payload.get("firm")
            if ev.kind != "report" or fid not in faults:
                return ev
            if fid not in reports:
                return None
            return dataclasses.replace(ev, payload=dict(ev.payload, m=reports[fid][0]))

        replayed = replay_verdict(_edited(transcript, edit), pp)["abort"]
        assert (replayed["culprit"], replayed["reason"]) == expected, positions
        checked += 1
    assert checked == 5 + 5 * 4 * 4


def _with_true_m(pp, kinds, k):
    """A two-firm toy transcript (totals 1 and 0) whose payloads of the given
    kinds carry "m": true for F1 (or for the sum), digests recomputed."""
    blob = run_session(_config(pp, [1, 0], k=k), seed=21).transcript.to_jsonl()
    lines = [json.loads(line) for line in blob.splitlines()]
    assert lines[-1]["verdict"]["accepted_m"] == 1
    for obj in lines[1:-1]:
        if obj["kind"] in kinds and obj["payload"].get("firm", "F1") == "F1":
            obj["payload"]["m"] = True
            obj["digest"] = harness.digest_of(obj["payload"])
    edited = parse_transcript(b"\n".join(canonical_json(obj) for obj in lines))
    assert routing_violations(edited) == []
    return edited


def test_replay_does_not_take_json_true_for_one(pp):
    """A report and a published sum whose m is JSON true (Python's 1): the
    replay must not accept true as a total."""
    report = audit_transcript(_with_true_m(pp, ("report", "sum"), k=0))
    assert not report["ok"]
    assert report["replayed"]["status"] == "aborted"
    assert report["replayed"]["abort"]["step"] == 3
    assert report["replayed"]["abort"]["culprit"] == "F1"


def test_replay_does_not_take_json_true_as_ground_truth(pp):
    report = audit_transcript(_with_true_m(pp, ("env_truth",), k=2))
    assert not report["ok"] and report["replayed"] is None
    assert any("ground truth of F1 is not an integer" in v for v in report["violations"])


class _ClaimsTrue(Behavior):
    def claim(self, true_m):
        return True


class _PublishesTrue(Behavior):
    def publish(self, m_sum, r_sum):
        return True, r_sum


@pytest.mark.parametrize("culprit, behavior, step, reason", [
    ("F1", _ClaimsTrue(), 3, "reported total True out of range"),
    (COUNTRY_ID, _PublishesTrue(), 7, "published total outside the admissible range"),
], ids=["claim", "publish"])
def test_engine_and_replay_refuse_true_as_a_total(pp, culprit, behavior, step, reason):
    """F1's total is 1, so True would open its commitment and the sum's:
    the engine aborts as the replay does, and the audit of its own
    transcript holds."""
    config = _config(pp, [1, 0], k=2)
    adversary = AdversarySpec(frozenset({culprit}), {culprit: behavior})
    result = run_session(config, adversary, seed=21)
    abort = result.verdict.abort
    assert (abort.step, abort.culprit_id, abort.reason) == (step, culprit, reason)
    report = audit_transcript(result.transcript)
    assert report["ok"], report["violations"]
    replayed = report["replayed"]["abort"]
    assert (replayed["step"], replayed["culprit"], replayed["reason"]) == (step, culprit, reason)


# ---------------------------------------------------------------------------
# Fixed-base tables: built once per parameters, never by the replay.
# ---------------------------------------------------------------------------


def test_two_sessions_on_one_pp_build_two_tables(table_builds):
    prod_pp = setup(production_group(), "hash_derived")
    config = _config(prod_pp, [10, 20, 30], k=2)
    for seed in (1, 2):
        assert run_session(config, seed=seed).verdict.completed
    assert table_builds == [prod_pp.g, prod_pp.h]


@pytest.mark.parametrize("n", [3, 130])
def test_audit_of_secp256k1_transcripts_builds_no_table(table_builds, n):
    """Small rosters replay item by item, large ones by the batch check;
    neither builds a table."""
    prod_pp = setup(production_group(), "hash_derived")
    config = _config(prod_pp, list(range(1, n + 1)), k=2)
    blobs = [run_session(config, adversary, seed=5).transcript.to_jsonl() for adversary in (
        HONEST_ADVERSARY,
        AdversarySpec(frozenset({"F1"}), {"F1": Deviation(delta=5)}),
        AdversarySpec(frozenset({COUNTRY_ID}), {COUNTRY_ID: Deviation(dm=1)}),
    )]
    table_builds.clear()
    for blob in blobs:
        report = audit_transcript(parse_transcript(blob))
        assert report["ok"], report["violations"]
    assert table_builds == []
