"""Joint random selection: the round check, fairness, fault handling."""

import dataclasses
import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emissions_audit.commitment import commit, equivocate, setup, verify_opening
from emissions_audit.groups import toy_group
from emissions_audit.harness import run_pick_trials, subset_chi_square
from emissions_audit.pick import (
    COUNTRY,
    Faulted,
    PickError,
    PickFold,
    PickStrategy,
    VERIFIER,
    _base_params,
    derive_index,
    other,
    round_commit,
    run_pick,
)


_TOY_PP = setup(toy_group(), "hash_derived")


@pytest.fixture(scope="module")
def pp():
    return _TOY_PP


# ---------------------------------------------------------------------------
# Index derivation.
# ---------------------------------------------------------------------------


def test_derive_index_bijection_for_all_small_lengths():
    # For every fixed contribution of one party, the other party's
    # contribution maps onto indices bijectively; no index is favored.
    for l in range(1, 65):
        for m_c in range(l):
            images = {derive_index(m_c, m_v, l) for m_v in range(l)}
            assert images == set(range(l))


def test_derive_index_symmetric_in_contributions():
    for l in (1, 2, 5, 64):
        for m_c in range(l):
            for m_v in range(l):
                assert derive_index(m_c, m_v, l) == derive_index(m_v, m_c, l)


def test_derive_index_rejects_out_of_range():
    with pytest.raises(PickError):
        derive_index(5, 0, 5)
    with pytest.raises(PickError):
        derive_index(0, -1, 5)
    with pytest.raises(PickError):
        derive_index(0, 0, 0)


# ---------------------------------------------------------------------------
# One round: commitment and the reveal check.
# ---------------------------------------------------------------------------


def test_round_commit_draw_is_uniform(pp):
    # 70000 draws over 7 cells; each count within 5 sigma of 10000.
    rng = random.Random(30)
    counts = Counter()
    for _ in range(70000):
        m, _, _ = round_commit(7, pp, rng)
        counts[m] += 1
    sigma = math.sqrt(70000 * (1 / 7) * (6 / 7))
    for m in range(7):
        assert abs(counts[m] - 10000) <= 5 * sigma, (m, counts[m])


def test_round_commit_blinds_with_fresh_randomness(pp):
    rng = random.Random(31)
    seen = set()
    for _ in range(50):
        _, r, c = round_commit(3, pp, rng)
        seen.add((r.value, c.value))
    assert len(seen) > 40  # blinding varies even when the draw repeats


@pytest.mark.parametrize("draw", ["zero", "max", "peer_seeded", (4, 1, 5)])
def test_round_commit_commits_to_the_strategy_draw(pp, draw):
    """A dishonest strategy's draw for the round, committed under the
    returned blinding, which is the party rng's first scalar: no draw of
    these strategies reads the rng."""
    peer = round_commit(7, pp, random.Random(35))[2]
    enc = pp.group.encode_point(peer)
    want = {"zero": 0, "max": 6, "peer_seeded": (enc[0] + 31 * sum(enc) + 2) % 7}
    m, r, c = round_commit(7, pp, random.Random(36), PickStrategy(draw), 2, peer)
    assert m == want.get(draw, 5)
    assert r == pp.group.random_scalar(random.Random(36))
    assert verify_opening(pp, c, pp.group.scalar(m), r)


def _reveal(l, c, m, r, pp):
    """``PickFold.reveal`` of the country's (m, r) against commitment c, in a
    round over l candidates."""
    fold = PickFold(range(l), {COUNTRY: pp, VERIFIER: pp})
    fold.commits[COUNTRY] = c
    return fold.reveal(COUNTRY, m, r)


def test_reveal_faults_are_attributed(pp):
    rng = random.Random(33)
    m, r, c = round_commit(5, pp, rng)
    assert _reveal(5, c, m, r, pp) is None
    # A value that does not open the commitment faults the revealing party.
    assert _reveal(5, c, (m + 1) % 5, r, pp) == "reveal does not open the commitment"
    out = run_pick(list("abcde"), 1, pp, random.Random(33),
                   strategies={COUNTRY: PickStrategy(bad_round=0)}, on_fault="abort")
    assert out.fault.party == COUNTRY
    assert out.fault.reason == "reveal does not open the commitment"


def test_out_of_range_reveal_faults(pp):
    rng = random.Random(34)
    m, r, c = round_commit(3, pp, rng)
    assert _reveal(3, c, 3, r, pp) == "contribution 3 outside [0, 3)"
    assert _reveal(3, c, -1, r, pp) == "contribution -1 outside [0, 3)"
    # JSON true is no draw, although it opens a commitment to 1.
    one = commit(pp, pp.group.scalar(1), r)
    assert _reveal(3, one, 1, r, pp) is None
    assert _reveal(3, one, True, r, pp) == "contribution True outside [0, 3)"


@settings(max_examples=200, deadline=None)
@given(l=st.integers(1, 12), m=st.integers(-3, 15), drawn=st.integers(0, 11),
       blind=st.integers(0, 100), other_blind=st.booleans())
def test_reveal_fault_is_none_exactly_for_an_in_range_opening(l, m, drawn, blind, other_blind):
    pp = _TOY_PP
    c = commit(pp, pp.group.scalar(drawn), pp.group.scalar(blind))
    r = pp.group.scalar(blind + 1 if other_blind else blind)
    opens = verify_opening(pp, c, pp.group.scalar(m), r)
    assert (_reveal(l, c, m, r, pp) is None) == (0 <= m < l and opens)


def _round(pp, revealed=(COUNTRY, VERIFIER), country_m=1):
    """A fold over five candidates where the country committed to 1 and the
    verifier to 3, with the named parties' reveals of ``country_m`` and 3
    in."""
    fold = PickFold("abcde", {COUNTRY: pp, VERIFIER: pp})
    r = pp.group.scalar(7)
    for party, m in ((COUNTRY, 1), (VERIFIER, 3)):
        fold.commits[party] = commit(pp, pp.group.scalar(m), r)
    for party in revealed:
        fold.reveal(party, country_m if party == COUNTRY else 3, r)
    return fold


@pytest.mark.parametrize("play, text", [
    (lambda pp: PickFold(["a", "b", "a"], {}), "duplicate candidates"),
    (lambda pp: PickFold("abc", {}).reveal(VERIFIER, 0, pp.group.scalar(0)),
     "reveals before the verifier committed"),
    (lambda pp: _round(pp).fault(COUNTRY, "reveal does not open the commitment"),
     "faults the country, whose reveal stands"),
    (lambda pp: _round(pp, country_m=2).fault(VERIFIER, "reveal does not open the commitment"),
     "faults the verifier, whose reveal stands"),
    (lambda pp: _round(pp, country_m=2).fault(COUNTRY, "contribution 2 outside [0, 5)"),
     "gives 'contribution 2 outside [0, 5)', the reveal fails with "
     "'reveal does not open the commitment'"),
    (lambda pp: _round(pp).settle(5), "has index 5 outside [0, 5)"),
    (lambda pp: _round(pp).settle(-1), "has index -1 outside [0, 5)"),
    (lambda pp: _round(pp).settle(True), "has index True outside [0, 5)"),
    (lambda pp: _round(pp).settle("4"), "has index '4' outside [0, 5)"),
    (lambda pp: _round(pp, revealed=(VERIFIER,)).settle(4), "settles a round without both reveals"),
    (lambda pp: _round(pp, country_m=2).settle(), "settles a round without both reveals"),
    (lambda pp: _round(pp).settle(0), "has index 0, the reveals give 4"),
    (lambda pp: _round(pp).commit(COUNTRY, pp.g),
     "is a second commitment from the country this round"),
    (lambda pp: _round(pp).reveal(VERIFIER, 3, pp.group.scalar(7)),
     "is a second reveal from the verifier this round"),
    (lambda pp: _round(pp, country_m=2).reveal(COUNTRY, 1, pp.group.scalar(7)),
     "is a second reveal from the country this round"),
], ids=["duplicates", "uncommitted", "fault-standing", "fault-other",
        "fault-reason", "index-high", "index-negative", "index-bool", "index-string",
        "one-reveal", "failed-reveal", "wrong-index", "second-commit", "second-reveal",
        "reveal-after-failed-reveal"])
def test_each_fold_error_names_the_broken_rule(pp, play, text):
    with pytest.raises(PickError) as info:
        play(pp)
    assert str(info.value) == text


def test_fold_settles_the_reveals_index_or_after_a_fault_the_honest_draw(pp):
    fold = _round(pp)
    assert fold.settler == "both"
    assert fold.settle() == 4 and fold.settled == ["e"] and fold.remaining == list("abcd")
    assert fold.commits == {} and fold.stood == {}
    r = pp.group.scalar(9)
    fold.commits = {party: commit(pp, pp.group.scalar(0), r) for party in (COUNTRY, VERIFIER)}
    assert fold.reveal(COUNTRY, 0, r) is None
    assert fold.reveal(VERIFIER, 4, r) == "contribution 4 outside [0, 4)"
    fold.fault(VERIFIER, "contribution 4 outside [0, 4)")
    assert fold.faulted == Faulted(VERIFIER, 1, "contribution 4 outside [0, 4)")
    assert fold.failed is None and fold.settler == COUNTRY
    # The country's standing reveal does not bind its lone draw.
    assert fold.settle(2) == 2 and fold.settled == ["e", "c"]
    assert fold.settle(0) == 0 and fold.remaining == ["b", "d"]


def test_run_pick_rejects_duplicate_candidates_and_bad_k(pp):
    with pytest.raises(PickError, match="duplicate candidates"):
        run_pick(["a", "a"], 1, pp, random.Random(0))
    with pytest.raises(PickError, match="cannot pick 2 of 1"):
        run_pick(["a"], 2, pp, random.Random(0))
    with pytest.raises(PickError, match="cannot pick -1 of 1"):
        run_pick(["a"], -1, pp, random.Random(0))


def test_other_party_mapping():
    assert other(COUNTRY) == VERIFIER and other(VERIFIER) == COUNTRY
    with pytest.raises(PickError):
        other("firm")


# ---------------------------------------------------------------------------
# Full engine: determinism, enumeration, faults, base modes.
# ---------------------------------------------------------------------------


def test_run_pick_deterministic_under_seed(pp):
    a = run_pick(list("abcde"), 2, pp, random.Random(35))
    b = run_pick(list("abcde"), 2, pp, random.Random(35))
    assert a.picked == b.picked
    assert a.fault is None and len(a.picked) == 2
    assert len(set(a.picked)) == 2


def test_run_pick_scripted_outcome(pp):
    strategies = {
        COUNTRY: PickStrategy([2, 1]),
        VERIFIER: PickStrategy([0, 2]),
    }
    out = run_pick(list("abcde"), 2, pp, random.Random(36), strategies=strategies)
    # Round 1: index (2+0)%5=2 picks "c"; remaining a,b,d,e.
    # Round 2: index (1+2)%4=3 picks "e".
    assert out.picked == ("c", "e")


def test_exhaustive_enumeration_counts_every_outcome_equally(pp):
    # All 25*16 scripted coin pairs for picking 2 of 5.  Every ordered
    # outcome appears exactly 400/20 times and every subset 400/10 times.
    ordered = Counter()
    subsets = Counter()
    roster = list("abcde")
    for c1, v1 in itertools.product(range(5), repeat=2):
        for c2, v2 in itertools.product(range(4), repeat=2):
            out = run_pick(
                roster, 2, pp, random.Random(0),
                strategies={
                    COUNTRY: PickStrategy([c1, c2]),
                    VERIFIER: PickStrategy([v1, v2]),
                },
            )
            ordered[out.picked] += 1
            subsets[frozenset(out.picked)] += 1
    assert len(ordered) == 20 and set(ordered.values()) == {20}
    assert len(subsets) == 10 and set(subsets.values()) == {40}


def test_fault_names_cheater_and_honest_party_completes(pp):
    out = run_pick(
        list("abcde"), 3, pp, random.Random(37),
        strategies={VERIFIER: PickStrategy(bad_round=1)},
    )
    assert out.fault is not None and out.fault.party == VERIFIER
    assert out.fault.round_index == 1
    assert out.picked is not None and len(out.picked) == 3


def test_fault_keeps_picks_settled_before_it(pp):
    strategies = {
        COUNTRY: PickStrategy([2, 0, 0]),
        VERIFIER: PickStrategy(bad_round=1),
    }
    honest = run_pick(
        list("abcde"), 1, pp, random.Random(38),
        strategies={COUNTRY: PickStrategy([2])},
    )
    out = run_pick(list("abcde"), 3, pp, random.Random(38), strategies=strategies)
    # Round 0 settled jointly before the round-1 fault; it must be kept.
    assert out.picked[0] == honest.picked[0]
    assert out.fault.round_index == 1


def test_abort_policy_discards_selection(pp):
    out = run_pick(
        list("abcde"), 2, pp, random.Random(39),
        strategies={COUNTRY: PickStrategy(bad_round=0)},
        on_fault="abort",
    )
    assert out.picked is None and out.fault.party == COUNTRY


def test_out_of_range_script_is_faulted_not_crashed(pp):
    out = run_pick(
        list("abc"), 1, pp, random.Random(40),
        strategies={COUNTRY: PickStrategy([7])},
    )
    assert out.fault.party == COUNTRY and out.picked is not None


def test_both_parties_rushing_is_rejected(pp):
    with pytest.raises(PickError):
        run_pick(
            list("abc"), 1, pp, random.Random(41),
            strategies={COUNTRY: PickStrategy("peer_seeded"), VERIFIER: PickStrategy("peer_seeded")},
        )


def test_cross_base_mode_completes_and_transcripts_bases(pp):
    events = []
    out = run_pick(
        list("abcde"), 2, pp, random.Random(42),
        base_mode="cross",
        recorder=lambda kind, rnd, party, payload: events.append((kind, party, payload)),
    )
    assert out.fault is None and len(out.picked) == 2
    bases = [e for e in events if e[0] == "pick_base"]
    assert len(bases) == 2
    committers = {e[2]["committer"] for e in bases}
    assert committers == {COUNTRY, VERIFIER}


@pytest.mark.parametrize("base_mode", ["shared", "cross"])
@pytest.mark.parametrize("on_fault", ["complete", "abort"])
@pytest.mark.parametrize("strategies", [
    {}, {COUNTRY: PickStrategy(bad_round=0)},
    {VERIFIER: PickStrategy(bad_round=1)}, {COUNTRY: PickStrategy("peer_seeded")},
    {VERIFIER: PickStrategy("max")},
], ids=["honest", "country-lies-round0", "verifier-lies-round1", "rushing", "max"])
def test_recorder_does_not_change_the_draws(pp, base_mode, on_fault, strategies):
    # Payloads are built only for a recorder; the rng stream must not notice.
    for seed in range(5):
        def pick(recorder=None):
            return run_pick(list("abcdefg"), 3, pp, random.Random(seed), strategies=strategies,
                            base_mode=base_mode, on_fault=on_fault, recorder=recorder)

        events = []
        recorded = pick(lambda *event: events.append(event))
        silent = pick()
        assert (recorded.picked, recorded.fault) == (silent.picked, silent.fault)
        assert {kind for kind, *_ in events} >= {"pick_commit", "pick_reveal"}


def test_cross_base_mode_catches_cheats_too(pp):
    out = run_pick(
        list("abcde"), 2, pp, random.Random(43),
        strategies={VERIFIER: PickStrategy(bad_round=0)},
        base_mode="cross",
    )
    assert out.fault.party == VERIFIER and out.picked is not None


def test_unknown_base_mode_and_policy(pp):
    with pytest.raises(PickError):
        run_pick(list("ab"), 1, pp, random.Random(44), base_mode="mystery")
    with pytest.raises(PickError):
        run_pick(list("ab"), 1, pp, random.Random(44), on_fault="retry")


# ---------------------------------------------------------------------------
# Fairness: one honest party keeps the selection uniform, whatever the
# other plays.  Chi-square over all subsets at significance 0.001.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n,k,dishonest",
    [
        (5, 2, {COUNTRY: PickStrategy("zero")}),
        (6, 3, {VERIFIER: PickStrategy("max")}),
        (8, 1, {COUNTRY: PickStrategy("peer_seeded")}),
    ],
    ids=["n5k2-zero-country", "n6k3-max-verifier", "n8k1-rushing-country"],
)
def test_selection_uniform_with_one_honest_party(n, k, dishonest):
    roster = [f"F{i}" for i in range(1, n + 1)]
    counts = run_pick_trials(roster, k, trials=100_000, seed=45, strategies=dishonest)
    assert sum(counts.values()) == 100_000
    _, p = subset_chi_square(counts, roster, k)
    assert p > 0.001, f"uniformity rejected at (n={n}, k={k}): p={p}"


def test_honest_strategy_baseline_is_uniform_smoke():
    roster = [f"F{i}" for i in range(1, 6)]
    counts = run_pick_trials(roster, 2, trials=5000, seed=46)
    assert len(counts) == 10  # every subset reachable
    _, p = subset_chi_square(counts, roster, 2)
    assert p > 0.001


# ---------------------------------------------------------------------------
# A verifier that rushes with every trapdoor it could know: the base mode,
# not the commitment alone, is what keeps it from steering the pick.
# ---------------------------------------------------------------------------


def _trapdoor_rushed_pick(roster, k, pp, rng, base_mode, target):
    """A joint pick through PickFold in run_pick's order: both commit, C
    reveals, then V.  Once C has revealed, unless V's own draw already picks
    ``target``, V forges with ``equivocate`` an opening of its commitment
    that does, and reveals it if it opens: only under its base's trapdoor.
    V holds pp's trapdoor under ``shared`` (it ran the trusted setup) and
    under ``cross`` that of the base it published, which C commits under;
    the bases are run_pick's own.  Returns the picked firms and how many of
    V's forgeries opened."""
    group = pp.group
    bases = _base_params(pp, base_mode, rng)
    trapdoor = bases[COUNTRY].trapdoor
    fold, forged = PickFold(roster, bases), 0
    for _ in range(k):
        l = len(fold.remaining)
        openings = {}
        for party in (COUNTRY, VERIFIER):
            openings[party] = m, r = rng.randrange(l), group.random_scalar(rng)
            fold.commit(party, commit(bases[party], group.scalar(m), r))
        m_c, r_c = openings[COUNTRY]
        assert fold.reveal(COUNTRY, m_c, r_c) is None
        m_v, r_v = openings[VERIFIER]
        want = (fold.remaining.index(target) - m_c) % l if target in fold.remaining else m_v
        if want != m_v:
            base = bases[VERIFIER]
            r_want = equivocate(dataclasses.replace(base, trapdoor=trapdoor),
                                group.scalar(m_v), r_v, group.scalar(want))
            if verify_opening(base, fold.commits[VERIFIER], group.scalar(want), r_want):
                assert base.trapdoor == trapdoor
                m_v, r_v, forged = want, r_want, forged + 1
        assert fold.reveal(VERIFIER, m_v, r_v) is None
        fold.settle()
    return tuple(sorted(fold.settled)), forged


def test_trapdoor_rushing_verifier_steers_a_shared_base_pick():
    roster = [f"F{i}" for i in range(1, 6)]
    rng = random.Random(48)
    pp = setup(toy_group(), "trusted", rng)
    counts = Counter()
    for _ in range(500):
        picked, forged = _trapdoor_rushed_pick(roster, 2, pp, rng, "shared", target="F3")
        assert "F3" in picked and forged <= 1
        counts[picked] += 1
    assert subset_chi_square(counts, roster, 2)[1] < 1e-9


def test_trapdoor_rushing_verifier_cannot_steer_a_cross_base_pick():
    """V's forgery would open only where the two trusted setups drew the
    same trapdoor, which on the toy group (q = 101) happens in 1 of 100
    pairs of draws; _base_params redraws V's base then, so none opens."""
    roster = [f"F{i}" for i in range(1, 6)]
    rng = random.Random(49)
    counts, forged = Counter(), 0
    for _ in range(5000):
        picked, opened = _trapdoor_rushed_pick(roster, 2, _TOY_PP, rng, "cross", target="F3")
        counts[picked] += 1
        forged += opened
    assert forged == 0
    _, p = subset_chi_square(counts, roster, 2)
    assert p > 0.001, f"uniformity rejected: p={p}"


def test_strategy_interface_defaults():
    s = PickStrategy()
    assert s.reveal_value(3, 0) == 3
    assert not s.sees_peer_commitment
    rng = random.Random(47)
    assert all(0 <= s.choose(5, 0, rng) < 5 for _ in range(20))
    assert PickStrategy("peer_seeded").sees_peer_commitment
    assert [PickStrategy(d).choose(5, 1, rng) for d in ("zero", "max", (4, 2))] == [0, 4, 2]
    assert PickStrategy(bad_round=1).reveal_value(3, 1) == 4
    with pytest.raises(PickError, match="^unknown pick strategy 'clever'$"):
        PickStrategy("clever")
