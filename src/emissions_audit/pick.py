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
the fault are kept.  ``reveal_fault`` is that check, written once: the
selection engine ``run_pick`` and the CLI's ``pick-settle`` both call it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .commitment import PublicParams, commit, is_int, setup, verify_opening
from .groups import Scalar

COUNTRY = "country"
VERIFIER = "verifier"
PARTIES = (COUNTRY, VERIFIER)
BASE_MODES = ("shared", "cross")
FAULT_POLICIES = ("complete", "abort")


class PickError(ValueError):
    """Misuse of the pick protocol functions."""


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
# One round: a party's commitment, and the check of its reveal.
# ---------------------------------------------------------------------------


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


def contribution_fault(l: int, m: int) -> str | None:
    """Why the contribution m is no draw from [0, l), or None; a bool is no
    draw."""
    if not is_int(m) or m < 0 or m >= l:
        return f"contribution {m} outside [0, {l})"
    return None


def reveal_fault(l: int, c, m: int, r: Scalar, pp: PublicParams) -> str | None:
    """Why the reveal (m, r) of commitment ``c`` faults its party in a round
    over l candidates, or None if it stands.

    ``pp`` is whatever parameters that party committed under (they differ
    between the parties in cross-base mode).
    """
    fault = contribution_fault(l, m)
    if fault is None and not verify_opening(pp, c, pp.group.scalar(m), r):
        fault = "reveal does not open the commitment"
    return fault


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
    fault: Faulted | None


def _base_params(pp: PublicParams, base_mode: str, rng: random.Random) -> dict:
    """Which parameters each party commits under, keyed by committer."""
    if base_mode == "shared":
        return {COUNTRY: pp, VERIFIER: pp}
    # Cross: each side runs a trusted setup and publishes its base; the peer
    # commits under it, so the committer never knows the trapdoor of the
    # base binding its own commitment.
    base_by_country = setup(pp.group, "trusted", rng)
    base_by_verifier = setup(pp.group, "trusted", rng)
    return {COUNTRY: base_by_verifier, VERIFIER: base_by_country}


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
    remaining = list(candidates)
    if len(set(remaining)) != len(remaining):
        raise PickError("duplicate candidates")
    if not isinstance(k, int) or k < 0 or k > len(remaining):
        raise PickError(f"cannot pick {k} of {len(remaining)}")
    if base_mode not in BASE_MODES:
        raise PickError(f"unknown base mode {base_mode!r}")
    if on_fault not in FAULT_POLICIES:
        raise PickError(f"unknown fault policy {on_fault!r}")
    strategies = dict(strategies or {})
    for party in PARTIES:
        strategies.setdefault(party, PickStrategy())
    if k > 0 and all(s.sees_peer_commitment for s in strategies.values()):
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

    # A rushing party chooses after seeing the peer's commitment, which
    # hides the peer's draw and so changes nothing.
    order = sorted(PARTIES, key=lambda p: strategies[p].sees_peer_commitment)
    picked: list[str] = []
    fault: Faulted | None = None
    for j in range(k):
        l = len(remaining)
        if fault is None:
            commitments: dict = {}
            blind: dict[str, Scalar] = {}
            chosen: dict[str, int] = {}
            for party in order:
                peer_c = commitments.get(other(party))
                peer_enc = pp.group.encode_point(peer_c) if peer_c is not None else None
                base = bases[party]
                chosen[party] = strategies[party].choose(l, j, party_rng[party],
                                                         peer_commitment=peer_enc)
                blind[party] = base.group.random_scalar(party_rng[party])
                commitments[party] = commit(base, base.group.scalar(chosen[party]), blind[party])
                if recorder is not None:
                    recorder("pick_commit", j, party,
                             {"c": base.group.encode_point(commitments[party]).hex()})

            # Each reveal is checked as it lands.
            revealed: dict[str, int] = {}
            for party in PARTIES:
                m = revealed[party] = strategies[party].reveal_value(chosen[party], j)
                reason = reveal_fault(l, commitments[party], m, blind[party], bases[party])
                if recorder is not None:
                    recorder("pick_reveal", j, party,
                             {"m": m, "r": pp.group.encode_scalar(blind[party]).hex()})
                if reason is not None:
                    fault = Faulted(party, j, reason)
                    if recorder is not None:
                        recorder("pick_fault", j, party, {"reason": reason})
                    if on_fault == "abort":
                        return PickOutcome(picked=None, fault=fault)
                    break
            else:
                index = derive_index(revealed[COUNTRY], revealed[VERIFIER], l)

        if fault is not None:
            # Disqualified peer: the honest party picks alone with a fresh
            # uniform draw, this round and every later one; its earlier
            # chosen value is discarded so a fault conditioned on the honest
            # reveal gains nothing.
            index = party_rng[other(fault.party)].randrange(l)
        picked.append(remaining.pop(index))
        if recorder is not None:
            recorder("pick_settle", j, "both" if fault is None else other(fault.party),
                     {"index": index, "picked": picked[-1]})

    return PickOutcome(picked=tuple(picked), fault=fault)
