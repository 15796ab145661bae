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
the fault are kept.  ``PickFold`` is that round rule, written once for the
engine ``run_pick``, the replay ``harness.pick_violation`` and ``pick-settle``.
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
DRAWS = ("honest", "zero", "max", "peer_seeded")


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
# The round rule.
# ---------------------------------------------------------------------------


class PickFold:
    """A joint pick's round rule and its state: the remaining and settled
    candidates, this round's commitments, the parties that revealed and the
    reveals that stand, a failed reveal awaiting its fault, and the
    disqualifying ``Faulted``.  ``bases`` maps each party to the parameters
    it commits under.  A message that breaks the rule raises PickError.
    """

    def __init__(self, candidates, bases: dict):
        self.remaining = list(candidates)
        if len(set(self.remaining)) != len(self.remaining):
            raise PickError("duplicate candidates")
        self.bases, self.settled, self.commits, self.stood = bases, [], {}, {}
        self.revealed: set[str] = set()
        self.failed: tuple[str, str] | None = None  # (party, reason) awaiting its fault
        self.faulted: Faulted | None = None

    def commit(self, party: str, c) -> None:
        """Take the party's commitment for this round: one per party."""
        if party in self.commits:
            raise PickError(f"is a second commitment from the {party} this round")
        self.commits[party] = c

    def reveal(self, party: str, m: int, r: Scalar) -> str | None:
        """Why the party's reveal (m, r) faults it, or None if it stands: a
        draw from [0, l), never a bool, that opens its commitment.  One
        reveal per party a round."""
        if party not in self.commits:
            raise PickError(f"reveals before the {party} committed")
        if party in self.revealed:
            raise PickError(f"is a second reveal from the {party} this round")
        self.revealed.add(party)
        l, base = len(self.remaining), self.bases[party]
        if not is_int(m) or m < 0 or m >= l:
            self.failed = (party, f"contribution {m} outside [0, {l})")
        elif not verify_opening(base, self.commits[party], base.group.scalar(m), r):
            self.failed = (party, "reveal does not open the commitment")
        else:
            self.stood[party] = m
            return None
        return self.failed[1]

    def fault(self, party: str, reason: str) -> None:
        """Disqualify the party whose reveal just failed with ``reason``."""
        if self.failed is None or self.failed[0] != party:
            raise PickError(f"faults the {party}, whose reveal stands")
        if reason != self.failed[1]:
            raise PickError(f"gives {reason!r}, the reveal fails with {self.failed[1]!r}")
        self.faulted, self.failed = Faulted(party, len(self.settled), reason), None

    @property
    def settler(self) -> str:
        """Who settles the round: "both", or the honest party after a fault."""
        return "both" if self.faulted is None else other(self.faulted.party)

    def settle(self, index: int | None = None) -> int:
        """Settle the round on ``index`` and return it; None takes the
        reveals' (m_c + m_v) mod l.  After a fault, any index in range."""
        l = len(self.remaining)
        if index is not None and (not is_int(index) or not 0 <= index < l):
            raise PickError(f"has index {index!r} outside [0, {l})")
        if self.faulted is None:
            if len(self.stood) != 2:
                raise PickError("settles a round without both reveals")
            want = derive_index(self.stood[COUNTRY], self.stood[VERIFIER], l)
            if index is not None and index != want:
                raise PickError(f"has index {index}, the reveals give {want}")
            index = want
        self.settled.append(self.remaining.pop(index))
        self.commits, self.stood, self.revealed = {}, {}, set()
        return index


# ---------------------------------------------------------------------------
# Strategies: how a party chooses (and possibly misreveals) its draw.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PickStrategy:
    """How a party draws its contribution, and whether it reveals it truly.

    ``draw`` is "honest" (uniform), "zero", "max", "peer_seeded" or a
    sequence of per-round contributions.  A "peer_seeded" party rushes: it
    waits for the peer's commitment and derives its draw from the bytes,
    which hide the peer's value, so even this adaptive choice cannot bias
    the sum; at most one party per round may rush.  In round ``bad_round``
    the engine commits to the drawn value but reveals it plus one.
    """

    draw: str | tuple = "honest"
    bad_round: int | None = None

    def __post_init__(self):
        if isinstance(self.draw, str) and self.draw not in DRAWS:
            raise PickError(f"unknown pick strategy {self.draw!r}")

    @property
    def sees_peer_commitment(self) -> bool:
        return self.draw == "peer_seeded"

    def choose(self, l: int, round_index: int, rng: random.Random, peer_commitment=None) -> int:
        if self.draw == "honest":
            return rng.randrange(l)
        if self.draw == "zero":
            return 0
        if self.draw == "max":
            return l - 1
        if self.draw == "peer_seeded":
            return (peer_commitment[0] + 31 * sum(peer_commitment) + round_index) % l
        return self.draw[round_index]

    def reveal_value(self, chosen: int, round_index: int) -> int:
        return chosen + 1 if round_index == self.bad_round else chosen


_HONEST = PickStrategy()


def round_commit(l: int, pp: PublicParams, rng: random.Random,
                 strategy: PickStrategy = _HONEST, round_index: int = 0,
                 peer_commitment=None):
    """A party's move in the commit phase of round ``round_index``: draw,
    blind, commit, all from the party's ``rng``, the draw first.

    Returns (m, r, c): the strategy's draw m (an honest one is uniform over
    [0, l)), a fresh blinding r and c, the commitment to m under ``pp``.
    A rushing strategy derives m from the encoding of ``peer_commitment``,
    the peer's point.  The caller keeps (m, r) private and sends c.
    """
    if l <= 0:
        raise PickError(f"list length must be positive, got {l}")
    peer = pp.group.encode_point(peer_commitment) if strategy.sees_peer_commitment else None
    m = strategy.choose(l, round_index, rng, peer_commitment=peer)
    r = pp.group.random_scalar(rng)
    return m, r, commit(pp, pp.group.scalar(m), r)


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
    # base binding its own commitment.  Equal bases would share a trapdoor,
    # which on the toy group happens in 1 of 100 pairs: the verifier redraws.
    base_by_country = base_by_verifier = setup(pp.group, "trusted", rng)
    while base_by_verifier.h == base_by_country.h:
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
    (kind, round_index, party, payload) callbacks for transcripting; each
    payload is a fresh dict the recorder may change, built only when it is
    set.
    """
    candidates = list(candidates)
    if not isinstance(k, int) or k < 0 or k > len(candidates):
        raise PickError(f"cannot pick {k} of {len(candidates)}")
    if base_mode not in BASE_MODES:
        raise PickError(f"unknown base mode {base_mode!r}")
    if on_fault not in FAULT_POLICIES:
        raise PickError(f"unknown fault policy {on_fault!r}")
    strategies = dict(strategies or {})
    for party in PARTIES:
        strategies.setdefault(party, _HONEST)
    if k > 0 and all(s.sees_peer_commitment for s in strategies.values()):
        raise PickError("both parties cannot wait for the peer's commitment")

    # Independent per-party randomness, both derived from the session rng
    # so the whole selection replays from one seed.
    party_rng = {p: random.Random(rng.getrandbits(64)) for p in PARTIES}
    fold = PickFold(candidates, _base_params(pp, base_mode, rng))

    if base_mode == "cross" and recorder is not None:
        for committer, base in fold.bases.items():
            # The peer published this base; the committer uses it blind.
            recorder("pick_base", -1, other(committer),
                     {"committer": committer, "h": pp.group.encode_point(base.h).hex()})

    # A rushing party chooses after seeing the peer's commitment, which
    # hides the peer's draw and so changes nothing.
    order = sorted(PARTIES, key=lambda p: strategies[p].sees_peer_commitment)
    for j in range(k):
        l = len(fold.remaining)
        if fold.faulted is None:
            blind, chosen = {}, {}  # party -> its blinding and its chosen draw
            for party in order:
                chosen[party], blind[party], c = round_commit(
                    l, fold.bases[party], party_rng[party], strategies[party], j,
                    fold.commits.get(other(party)))
                fold.commit(party, c)
                if recorder is not None:
                    recorder("pick_commit", j, party, {"c": pp.group.encode_point(c).hex()})

            # Each reveal is checked as it lands.
            for party in PARTIES:
                m = strategies[party].reveal_value(chosen[party], j)
                reason = fold.reveal(party, m, blind[party])
                if recorder is not None:
                    recorder("pick_reveal", j, party,
                             {"m": m, "r": pp.group.encode_scalar(blind[party]).hex()})
                if reason is not None:
                    fold.fault(party, reason)
                    if recorder is not None:
                        recorder("pick_fault", j, party, {"reason": reason})
                    if on_fault == "abort":
                        return PickOutcome(picked=None, fault=fold.faulted)
                    break

        # Disqualified peer: the honest party picks alone with a fresh draw,
        # this round and every later one, so a fault conditioned on the
        # honest reveal gains nothing.
        index = fold.settle(None if fold.faulted is None
                            else party_rng[fold.settler].randrange(l))
        if recorder is not None:
            recorder("pick_settle", j, fold.settler, {"index": index, "picked": fold.settled[-1]})

    return PickOutcome(picked=tuple(fold.settled), fault=fold.faulted)
