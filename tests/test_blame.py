"""Blame soundness under composed deviations: any corrupted set, each party
deviating in any subset of the hooks its role has, and every abort still
names a corrupted party with its role (identifiable abort)."""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from emissions_audit.audit import (
    COUNTRY_ID,
    ROLE_COUNTRY,
    ROLE_FIRM,
    ROLE_VERIFIER,
    VERIFIER_ID,
    ConfigInvalid,
    FirmSpec,
    SessionConfig,
    true_total,
)
from emissions_audit.commitment import MAX_EMISSIONS_KG, setup
from emissions_audit.groups import production_group, toy_group
from emissions_audit.measurement import FirmLedger, MeterKeypair, append_reading, parse_hour
from emissions_audit.harness import (
    AdversarySpec,
    Deviation,
    audit_transcript,
    parse_transcript,
    replay_verdict,
    run_session,
)
from emissions_audit.pick import DRAWS

_TOY_PP = setup(toy_group(), "hash_derived")
_SECP_PP = setup(production_group(), "hash_derived")

_OFFSET = st.integers(-3, 3)


def _ledger_spec(fid: str, seed: int) -> FirmSpec:
    """An integrated-mode firm whose meter signed three hourly readings."""
    rng = random.Random(seed)
    meter, ledger = MeterKeypair.generate(rng), FirmLedger.empty(fid)
    for hour in range(3):
        reading = meter.sign_reading(fid, parse_hour(f"2026-05-01T{hour:02d}:00:00Z"),
                                     rng.randrange(100))
        append_reading(ledger, reading, meter.public_bytes)
    return FirmSpec(fid, ledger=ledger, meter_pk=meter.public_bytes)


# Built once: sessions only read a ledger, and a repeat walk of its
# unchanged entries skips their signature checks.
_LEDGER_FIRMS = tuple(_ledger_spec(f"F{i + 1}", seed=700 + i) for i in range(3))


def _field_values(n: int, k: int) -> dict:
    """Each Deviation field's values for a session of n firms picking k."""
    return {
        "delta": st.integers(-120, 120),
        "absolute": st.sampled_from([-1, 0, 7, MAX_EMISSIONS_KG - 1, MAX_EMISSIONS_KG]),
        "dm": _OFFSET,
        "dr": _OFFSET,
        "misreveal": st.integers(0, max(k, 1)),
        # A scripted draw per round, sometimes outside [0, l).
        "pick": st.sampled_from(DRAWS) | st.tuples(*[st.integers(-1, n)] * k),
        "silent_from": st.integers(1, 7),
    }


_ROLE_FIELDS = {
    ROLE_FIRM: ("delta", "absolute", "misreveal", "silent_from"),
    ROLE_COUNTRY: ("dm", "dr", "misreveal", "pick", "silent_from"),
    ROLE_VERIFIER: ("misreveal", "pick", "silent_from"),
}


@st.composite
def _deviation(draw, role: str, n: int, k: int) -> Deviation:
    """Any subset of the fields valid for the role, with delta and absolute
    never both set."""
    values = _field_values(n, k)
    names = draw(st.lists(st.sampled_from(_ROLE_FIELDS[role]), unique=True))
    if "delta" in names and "absolute" in names:
        names.remove(draw(st.sampled_from(["delta", "absolute"])))
    return Deviation(**{name: draw(values[name]) for name in names})


def _role(pid: str) -> str:
    return {COUNTRY_ID: ROLE_COUNTRY, VERIFIER_ID: ROLE_VERIFIER}.get(pid, ROLE_FIRM)


@st.composite
def _session(draw, pp, max_n: int, data_modes=("abstract",)):
    """A config and an adversary: a corrupted set drawn from the firms, C and
    V, and a composed deviation for each corrupted party.  An integrated
    session takes its firms from ``_LEDGER_FIRMS``."""
    data_mode = draw(st.sampled_from(data_modes))
    if data_mode == "integrated":
        firms = _LEDGER_FIRMS[:draw(st.integers(1, len(_LEDGER_FIRMS)))]
    else:
        firms = tuple(FirmSpec(f"F{i + 1}", true_m=draw(st.integers(0, 300)))
                      for i in range(draw(st.integers(1, max_n))))
    n = len(firms)
    k = draw(st.integers(0, n))
    config = SessionConfig(
        pp=pp, firms=firms, k=k, data_mode=data_mode,
        pick_mode=draw(st.sampled_from(["env", "joint"])),
        pick_base_mode=draw(st.sampled_from(["shared", "cross"])),
        pick_fault_policy=draw(st.sampled_from(["complete", "abort"])))
    corrupted = draw(st.sets(st.sampled_from([*config.roster, COUNTRY_ID, VERIFIER_ID])))
    behaviors = {pid: draw(_deviation(_role(pid), n, k)) for pid in sorted(corrupted)}
    return config, AdversarySpec(frozenset(corrupted), behaviors)


def _claim(adversary, config, fid: str) -> int:
    """The total the firm commits to; an uncorrupted one claims its truth."""
    return adversary.behavior_of(fid).claim(config.truths[fid])


def _check_blame(config, adversary, seed: int):
    """Run the session and check every blame property; return its verdict."""
    try:
        result = run_session(config, adversary, seed=seed)
    except ConfigInvalid as exc:
        # Someone has to commit first: two rushing parties are no adversary,
        # and the session refuses them before step 1.
        assert "one of them has to commit first" in str(exc)
        assert config.pick_mode == "joint" and config.k > 0
        assert all(adversary.behavior_of(pid).pick == "peer_seeded"
                   for pid in (COUNTRY_ID, VERIFIER_ID))
        return None
    verdict, transcript = result.verdict, result.transcript
    if verdict.abort is not None:
        assert verdict.abort.culprit_id in adversary.corrupted, verdict.abort
        assert verdict.abort.culprit_role == _role(verdict.abort.culprit_id), verdict.abort
    if not adversary.corrupted or all(b == Deviation() for b in adversary.behaviors.values()):
        assert verdict.completed and verdict.accepted_m == true_total(config), verdict
    assert replay_verdict(transcript) == transcript.verdict
    report = audit_transcript(transcript)
    assert report["ok"], report["violations"]
    blob = transcript.to_jsonl()
    parsed = parse_transcript(blob)
    assert parsed.to_jsonl() == blob
    assert audit_transcript(parsed) == report
    return verdict


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=_session(_TOY_PP, max_n=5, data_modes=("abstract", "integrated")),
       seed=st.integers(0, 2**32 - 1))
def test_blame_is_sound_under_composed_deviations_on_the_toy_group(case, seed):
    _check_blame(*case, seed)


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=_session(_SECP_PP, max_n=3), seed=st.integers(0, 2**32 - 1))
def test_blame_is_sound_and_the_sum_binds_on_secp256k1(case, seed):
    """On secp256k1 the opening binds the total: a completed session
    accepts the sum of the claims, and every picked firm claimed its truth."""
    config, adversary = case
    verdict = _check_blame(config, adversary, seed)
    if verdict is not None and verdict.completed:
        assert verdict.accepted_m == sum(_claim(adversary, config, fid) for fid in config.roster)
        for fid in verdict.v_list:
            assert _claim(adversary, config, fid) == config.truths[fid]
