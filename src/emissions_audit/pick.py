"""Joint random selection of audit targets by commit-reveal coin tossing.

The reporting authority ("country") and the auditor ("verifier") each
commit to a uniform draw from [0, l), exchange commitments, then exchange
openings.  The picked index is (m_c + m_v) mod l, which is uniform as long
as either party sampled honestly.  Selecting k targets without replacement
runs one such round per target over the shrinking candidate list.

Residues and list positions are both 0-based, so "pick the m-th firm" and
"mod l" compose without an off-by-one seam.  The drawn integer enters the
commitment as the canonical scalar of the same value, which is injective
for every l up to the group order.

Two base arrangements:

* ``shared`` -- both commit under the same public parameters (fine when the
  bases come from a hash-derived setup nobody holds a trapdoor for).
* ``cross`` -- each party publishes its own trusted-setup base and commits
  under the peer's base, so neither can equivocate on its own commitment.

A party that reveals something inconsistent with its commitment, or a value
outside [0, l), is faulted by name and loses its say.  The honest party
then finishes the remaining picks alone with fresh uniform draws (default)
or the whole selection aborts (``on_fault="abort"``).  Picks settled before
the fault are kept.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .commitment import PublicParams, commit, setup, verify_opening
from .groups import Scalar

COUNTRY = "country"
VERIFIER = "verifier"
PARTIES = (COUNTRY, VERIFIER)

COMMITTING = "committing"
REVEALING = "revealing"
SETTLED = "settled"
FAULTED = "faulted"


class PickError(ValueError):
    """Misuse of the pick protocol objects."""


class OutOfPhase(PickError):
    """Round operation invoked in the wrong phase."""


@dataclass(frozen=True)
class Faulted:
    """Verdict against a misbehaving party in one round."""

    party: str
    round_index: int
    reason: str


def other(party: str) -> str:
    if party == COUNTRY:
        return VERIFIER
    if party == VERIFIER:
        return COUNTRY
    raise PickError(f"unknown party {party!r}")


def derive_index(m_c: int, m_v: int, l: int) -> int:
    """The jointly picked 0-based index; both inputs must be in range."""
    if l <= 0:
        raise PickError(f"list length must be positive, got {l}")
    for name, m in ((COUNTRY, m_c), (VERIFIER, m_v)):
        if not isinstance(m, int) or m < 0 or m >= l:
            raise PickError(f"{name} contribution {m!r} outside [0, {l})")
    return (m_c + m_v) % l


# ---------------------------------------------------------------------------
# Phase-gated round primitives.
# ---------------------------------------------------------------------------


@dataclass
class PickRound:
    round_index: int
    l: int
    candidates: tuple[str, ...]
    commitments: dict = field(default_factory=dict)  # party -> commitment point
    reveals: dict = field(default_factory=dict)  # party -> (m, r)
    phase: str = COMMITTING
    fault: Faulted | None = None
    index: int | None = None
    picked: str | None = None


def round_commit(l: int, pp: PublicParams, rng: random.Random):
    """Party-local half of the commit phase: draw, blind, commit.

    Returns (m, r, c) with m uniform over [0, l); the caller keeps (m, r)
    private and sends c to the peer.
    """
    if l <= 0:
        raise PickError(f"list length must be positive, got {l}")
    m = rng.randrange(l)
    r = pp.group.random_scalar(rng)
    c = commit(pp, pp.group.scalar(m), r)
    return m, r, c


def record_commitment(rnd: PickRound, party: str, c) -> str:
    """Register one party's commitment; both present moves to revealing."""
    other(party)  # validates the name
    if rnd.phase != COMMITTING:
        raise OutOfPhase(f"cannot commit in phase {rnd.phase}")
    if party in rnd.commitments:
        raise PickError(f"{party} already committed in round {rnd.round_index}")
    rnd.commitments[party] = c
    if len(rnd.commitments) == 2:
        rnd.phase = REVEALING
    return rnd.phase


def round_reveal_and_check(
    rnd: PickRound, party: str, m: int, r: Scalar, pp: PublicParams
) -> str:
    """Register and verify one party's reveal against its commitment.

    ``pp`` is whatever parameters that party committed under (they differ
    between the parties in cross-base mode).  A reveal out of [0, l) or not
    opening the commitment faults the revealing party; both reveals passing
    settles the round and fixes the index.
    """
    if rnd.phase != REVEALING:
        raise OutOfPhase(f"cannot reveal in phase {rnd.phase}")
    if party in rnd.reveals:
        raise PickError(f"{party} already revealed in round {rnd.round_index}")
    if not isinstance(m, int) or m < 0 or m >= rnd.l:
        rnd.fault = Faulted(party, rnd.round_index, f"contribution {m} outside [0, {rnd.l})")
        rnd.phase = FAULTED
        return rnd.phase
    if not verify_opening(pp, rnd.commitments[party], pp.group.scalar(m), r):
        rnd.fault = Faulted(party, rnd.round_index, "reveal does not open the commitment")
        rnd.phase = FAULTED
        return rnd.phase
    rnd.reveals[party] = (m, r)
    if len(rnd.reveals) == 2:
        rnd.index = derive_index(rnd.reveals[COUNTRY][0], rnd.reveals[VERIFIER][0], rnd.l)
        rnd.phase = SETTLED
    return rnd.phase


@dataclass
class PickSession:
    """Running state of a k-round selection over a candidate roster."""

    remaining: list[str]
    picked: list[str]
    k: int
    rounds: list[PickRound]
    fault: Faulted | None = None

    @classmethod
    def start(cls, roster, k: int) -> "PickSession":
        roster = list(roster)
        if len(set(roster)) != len(roster):
            raise PickError("duplicate candidates")
        if not isinstance(k, int) or k < 0 or k > len(roster):
            raise PickError(f"cannot pick {k} of {len(roster)}")
        return cls(remaining=roster, picked=[], k=k, rounds=[])

    def new_round(self) -> PickRound:
        if len(self.picked) >= self.k:
            raise OutOfPhase("all rounds already settled")
        rnd = PickRound(
            round_index=len(self.rounds),
            l=len(self.remaining),
            candidates=tuple(self.remaining),
        )
        self.rounds.append(rnd)
        return rnd


def settle_round(session: PickSession, index: int) -> str:
    """Move the firm at ``index`` from remaining to picked."""
    if not (0 <= index < len(session.remaining)):
        raise PickError(f"index {index} outside the remaining list")
    firm = session.remaining.pop(index)
    session.picked.append(firm)
    if session.rounds:
        rnd = session.rounds[-1]
        if rnd.picked is None:
            rnd.index = index if rnd.index is None else rnd.index
            rnd.picked = firm
    return firm


# ---------------------------------------------------------------------------
# Strategies: how a party chooses (and possibly misreveals) its draw.
# ---------------------------------------------------------------------------


class PickStrategy:
    """Uniform honest draw; subclasses override to misbehave.

    ``sees_peer_commitment`` marks a rushing party that waits for the
    peer's commitment before choosing; at most one party per round may
    rush.  ``reveal_value`` lets a strategy lie at reveal time: the engine
    commits to the chosen value but transmits whatever this returns.
    """

    sees_peer_commitment = False

    def choose(self, l: int, round_index: int, rng: random.Random, peer_commitment=None) -> int:
        return rng.randrange(l)

    def reveal_value(self, chosen: int, round_index: int) -> int:
        return chosen


class ZeroPick(PickStrategy):
    """Always contributes 0."""

    def choose(self, l, round_index, rng, peer_commitment=None):
        return 0


class MaxPick(PickStrategy):
    """Always contributes l - 1."""

    def choose(self, l, round_index, rng, peer_commitment=None):
        return l - 1


class PeerSeededPick(PickStrategy):
    """Rushing party: derives its draw from the peer's commitment bytes.

    The commitment hides the peer's value, so even this adaptive choice
    cannot bias the sum; it exists to demonstrate exactly that.
    """

    sees_peer_commitment = True

    def choose(self, l, round_index, rng, peer_commitment=None):
        if peer_commitment is None:
            raise PickError("peer commitment not available")
        return (peer_commitment[0] + 31 * sum(peer_commitment) + round_index) % l


class ScriptedPick(PickStrategy):
    """Plays back a fixed list of contributions (tests and enumeration)."""

    def __init__(self, values):
        self.values = list(values)

    def choose(self, l, round_index, rng, peer_commitment=None):
        return self.values[round_index]


class InconsistentRevealPick(PickStrategy):
    """Honest draws, but the reveal in one round contradicts the commitment."""

    def __init__(self, bad_round: int):
        self.bad_round = bad_round

    def reveal_value(self, chosen, round_index):
        return chosen + 1 if round_index == self.bad_round else chosen


CANNED_STRATEGIES = {
    "honest": PickStrategy,
    "zero": ZeroPick,
    "max": MaxPick,
    "peer_seeded": PeerSeededPick,
}


# ---------------------------------------------------------------------------
# Full selection engine.
# ---------------------------------------------------------------------------


@dataclass
class PickOutcome:
    picked: tuple[str, ...] | None
    rounds: list[PickRound]
    fault: Faulted | None

    @property
    def completed_despite_fault(self) -> bool:
        return self.fault is not None and self.picked is not None


def _base_params(pp: PublicParams, base_mode: str, rng: random.Random) -> dict:
    """Which parameters each party commits under, keyed by committer."""
    if base_mode == "shared":
        return {COUNTRY: pp, VERIFIER: pp}
    if base_mode == "cross":
        # Each side runs a trusted setup and publishes its base; the peer
        # commits under it, so the committer never knows the trapdoor of
        # the base binding its own commitment.
        base_by_country = setup(pp.group, "trusted", rng)
        base_by_verifier = setup(pp.group, "trusted", rng)
        return {COUNTRY: base_by_verifier, VERIFIER: base_by_country}
    raise PickError(f"unknown base mode {base_mode!r}")


def run_pick(
    candidates,
    k: int,
    pp: PublicParams,
    rng: random.Random,
    strategies: dict | None = None,
    base_mode: str = "shared",
    on_fault: str = "complete",
    recorder=None,
) -> PickOutcome:
    """Select k candidates without replacement via per-round coin tosses.

    ``strategies`` maps "country"/"verifier" to PickStrategy instances;
    omitted parties play honestly.  ``recorder`` receives
    (kind, round_index, party, payload) callbacks for transcripting; the
    payloads are built only when it is set.
    """
    session = PickSession.start(candidates, k)
    if on_fault not in ("complete", "abort"):
        raise PickError(f"unknown fault policy {on_fault!r}")
    strategies = dict(strategies or {})
    for party in PARTIES:
        strategies.setdefault(party, PickStrategy())
    if k > 0 and session.remaining and all(
        s.sees_peer_commitment for s in strategies.values()
    ):
        raise PickError("both parties cannot wait for the peer's commitment")

    # Independent per-party randomness, both derived from the session rng
    # so the whole selection replays from one seed.
    party_rng = {p: random.Random(rng.getrandbits(64)) for p in PARTIES}
    bases = _base_params(pp, base_mode, rng)

    if base_mode == "cross" and recorder is not None:
        for committer in PARTIES:
            base = bases[committer]
            # The peer published this base; the committer uses it blind.
            recorder("pick_base", -1, other(committer),
                     {"committer": committer, "h": pp.group.encode_point(base.h).hex()})

    fault: Faulted | None = None
    for _ in range(k):
        rnd = session.new_round()
        if fault is not None:
            # Earlier fault: the honest party picks alone, fresh uniform.
            index = party_rng[other(fault.party)].randrange(rnd.l)
            settle_round(session, index)
            if recorder is not None:
                recorder("pick_settle", rnd.round_index, other(fault.party),
                         {"index": index, "picked": rnd.picked})
            continue

        # Commit phase; a rushing party chooses after seeing the peer's
        # commitment, which hides the peer's draw and so changes nothing.
        order = sorted(PARTIES, key=lambda p: strategies[p].sees_peer_commitment)
        chosen: dict[str, int] = {}
        blind: dict[str, Scalar] = {}
        for party in order:
            peer_c = rnd.commitments.get(other(party))
            peer_enc = pp.group.encode_point(peer_c) if peer_c is not None else None
            base = bases[party]
            m = strategies[party].choose(
                rnd.l, rnd.round_index, party_rng[party], peer_commitment=peer_enc
            )
            r = base.group.random_scalar(party_rng[party])
            chosen[party] = m
            blind[party] = r
            record_commitment(rnd, party, commit(base, base.group.scalar(m), r))
            if recorder is not None:
                recorder("pick_commit", rnd.round_index, party,
                         {"c": base.group.encode_point(rnd.commitments[party]).hex()})

        # Reveal phase; each reveal is checked as it lands.
        for party in PARTIES:
            m_rev = strategies[party].reveal_value(chosen[party], rnd.round_index)
            phase = round_reveal_and_check(rnd, party, m_rev, blind[party], bases[party])
            if recorder is not None:
                recorder("pick_reveal", rnd.round_index, party,
                         {"m": m_rev, "r": pp.group.encode_scalar(blind[party]).hex()})
            if phase == FAULTED:
                fault = rnd.fault
                session.fault = fault
                if recorder is not None:
                    recorder("pick_fault", rnd.round_index, fault.party, {"reason": fault.reason})
                break

        if fault is not None:
            if on_fault == "abort":
                return PickOutcome(picked=None, rounds=session.rounds, fault=fault)
            # Disqualified peer: honest party completes this pick alone
            # with a fresh draw; its earlier chosen value is discarded so
            # a fault conditioned on the honest reveal gains nothing.
            index = party_rng[other(fault.party)].randrange(rnd.l)
        else:
            index = rnd.index
        settle_round(session, index)
        if recorder is not None:
            recorder("pick_settle", rnd.round_index,
                     "both" if fault is None else other(fault.party),
                     {"index": index, "picked": rnd.picked})

    return PickOutcome(picked=tuple(session.picked), rounds=session.rounds, fault=fault)

