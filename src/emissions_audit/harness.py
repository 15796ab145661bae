"""Deterministic simulation fabric for the audit protocol.

Sessions run under a static active adversary: a fixed set of corrupted
participants, each assigned one behavior.  The catalogue is one
``audit.Behavior`` the engine calls directly, ``Deviation``: each field set
turns on one hook, so a party may deviate in several, and a session refuses
it on a role that one of its fields does not suit.  A scenario behavior's
``type`` maps to fields; a test may pass any ``Behavior`` subclass.
The environment is never corruptible.  Every run is a pure function of
(config, adversary, seed) and can record a transcript -- an append-only
event stream with per-event payload digests -- from which any
participant's view is reconstructed by filtering.  Two structural
checkers assert the routing and leakage boundaries on transcripts; the
replayer re-derives the whole verdict line, in the engine's order, and the
joint pick, and the audit takes no recorded abort on trust; TrialStats
aggregates verdicts across seeded trials.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass, field

from . import pick as pick_mod
from .audit import (
    COUNTRY_ID,
    ENV_ID,
    PICK_SENDERS,
    ROLE_COUNTRY,
    ROLE_ENV,
    ROLE_FIRM,
    ROLE_VERIFIER,
    SERVICE_ROLES,
    VERIFIER_ID,
    Abort,
    AuditSession,
    Behavior,
    ConfigInvalid,
    FirmSpec,
    SessionConfig,
    Verdict,
    examine,
    picked_check,
    sum_check,
    true_total,
)
from .commitment import PublicParams, is_int, params_from_dict, params_to_dict, setup
from .groups import group_by_name


def canonical_json(obj) -> bytes:
    """Sorted-key, separator-free JSON."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def digest_of(obj) -> str:
    return hashlib.sha256(canonical_json(obj)).hexdigest()


def derive_seed(seed: int, *labels) -> int:
    """Independent sub-seed for a labelled stream of the given seed."""
    material = "|".join([str(seed), *map(str, labels)]).encode()
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


# ---------------------------------------------------------------------------
# Adversary catalogue: one Deviation, each of whose fields turns on a hook.
# ---------------------------------------------------------------------------

# The roles each role-bound Deviation field suits; the others suit every role.
_ROLES = frozenset({ROLE_FIRM, ROLE_COUNTRY, ROLE_VERIFIER})
_FIELD_ROLES = {
    "delta": {ROLE_FIRM}, "absolute": {ROLE_FIRM}, "dm": {ROLE_COUNTRY}, "dr": {ROLE_COUNTRY},
    "pick": {ROLE_COUNTRY, ROLE_VERIFIER},
}


@dataclass(frozen=True)
class Deviation(Behavior):
    """A corrupted participant's play; each field set turns on one hook, and
    ``Deviation()`` plays honestly, its view counted as adversarial.

    A firm claims its true total plus ``delta``, or ``absolute``; the
    country publishes sums offset by ``dm`` and ``dr``; ``misreveal`` makes
    a firm forward a wrong blinding, and the country or verifier lie in that
    pick round's reveal; ``pick`` is their ``PickStrategy.draw``; the party
    goes silent from step ``silent_from`` on.  ``roles`` are those every set
    field suits, and a deviation that suits none is refused.
    """

    delta: int | None = None
    absolute: int | None = None
    dm: int | None = None
    dr: int | None = None
    misreveal: int | None = None
    pick: str | tuple | None = None
    silent_from: int | None = None

    def __post_init__(self):
        if self.delta is not None and self.absolute is not None:
            raise ConfigInvalid("a deviation takes at most one of delta/absolute")
        if self.misreveal is not None and not (is_int(self.misreveal) and self.misreveal >= 0):
            raise ConfigInvalid(f"misreveal round must be >= 0, got {self.misreveal!r}")
        if self.silent_from is not None and not (is_int(self.silent_from)
                                                 and 1 <= self.silent_from <= 7):
            raise ConfigInvalid(f"silent_from step must be in 1..7, got {self.silent_from!r}")
        bound = [name for name in _FIELD_ROLES if getattr(self, name) is not None]
        roles = frozenset.intersection(_ROLES, *(_FIELD_ROLES[name] for name in bound))
        if not roles:
            raise ConfigInvalid(f"no role takes the deviation fields {', '.join(bound)}")
        object.__setattr__(self, "roles", roles)
        if self.pick is not None or self.misreveal is not None:
            try:
                strategy = pick_mod.PickStrategy(self.pick or "honest", self.misreveal)
            except pick_mod.PickError as exc:
                raise ConfigInvalid(str(exc)) from None
            object.__setattr__(self, "pick_strategy", strategy)

    def claim(self, true_m: int) -> int:
        return true_m + (self.delta or 0) if self.absolute is None else self.absolute

    def reveal_blinding(self, r):
        return r if self.misreveal is None else r + type(r)(1, r.q)

    def publish(self, m_sum, r_sum):
        return m_sum + (self.dm or 0), r_sum + type(r_sum)(self.dr or 0, r_sum.q)

    def silent_at(self, step: int) -> bool:
        return self.silent_from is not None and step >= self.silent_from


_OBSERVED = Deviation()


@dataclass(frozen=True)
class AdversarySpec:
    """Static corruption: fixed participant set, one behavior each."""

    corrupted: frozenset = frozenset()
    behaviors: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "corrupted", frozenset(self.corrupted))
        if ENV_ID in self.corrupted:
            raise ConfigInvalid("the environment cannot be corrupted")
        for pid in self.behaviors:
            if pid not in self.corrupted:
                raise ConfigInvalid(f"behavior assigned to uncorrupted {pid!r}")
        for pid, b in self.behaviors.items():
            if not isinstance(b, Behavior):
                raise ConfigInvalid(f"unknown behavior object for {pid!r}: {b!r}")

    def behavior_of(self, pid: str):
        return self.behaviors.get(pid, _OBSERVED)


HONEST_ADVERSARY = AdversarySpec()

_ROLE_NAMES = {ROLE_FIRM: "a firm", ROLE_COUNTRY: "the country", ROLE_VERIFIER: "the verifier"}


def _wire(config: SessionConfig, adversary: AdversarySpec) -> dict:
    """The engine's behaviors map: each corrupted participant's behavior,
    checked to be valid for that participant's role."""
    behaviors = {}
    for pid in sorted(adversary.corrupted):
        role = ROLE_FIRM if pid in config.firm_by_id else SERVICE_ROLES.get(pid)
        if role is None:
            raise ConfigInvalid(f"corrupted id {pid!r} is not a session participant")
        b = behaviors[pid] = adversary.behavior_of(pid)
        if role not in b.roles:
            what = next((f"field {f!r}" for f, suits in _FIELD_ROLES.items()
                         if role not in suits and getattr(b, f, None) is not None),
                        type(b).__name__)
            raise ConfigInvalid(f"behavior {what} not valid for {_ROLE_NAMES[role]}")
    # run_pick refuses two rushing parties too, but only once step 5 runs.
    strategies = [getattr(behaviors.get(pid), "pick_strategy", None) for pid in SERVICE_ROLES]
    if (config.pick_mode == "joint" and config.k > 0
            and all(s is not None and s.sees_peer_commitment for s in strategies)):
        raise ConfigInvalid("behavior field 'pick' is 'peer_seeded' for both the country and "
                            "the verifier: one of them has to commit first")
    return behaviors


# ---------------------------------------------------------------------------
# Transcripts and views.
# ---------------------------------------------------------------------------


class UnknownParticipant(ValueError):
    """A view was asked for an id that never took part in the session."""


# Payload values ``Transcript.record`` keeps as they are: immutable, and
# encoded later exactly as they would be now.
_JSON_ATOMS = frozenset({str, int, float, bool, type(None)})


def _json_copy(obj):
    """A copy at any depth of a dict or list ``obj``, whose canonical JSON is
    ``obj``'s; ``TypeError`` unless ``obj`` holds only dicts with str keys,
    lists and ``_JSON_ATOMS``."""
    t = type(obj)
    if t is dict:
        out = obj.copy()
        for k, v in out.items():
            if type(k) is not str:
                raise TypeError(k)
            if type(v) not in _JSON_ATOMS:
                out[k] = _json_copy(v)
        return out
    if t is list:
        return [v if type(v) in _JSON_ATOMS else _json_copy(v) for v in obj]
    raise TypeError(obj)


@dataclass(slots=True)
class Event:
    """One recorded message.  ``payload`` is a dict of JSON data that the
    event owns: a recorded event holds the copy ``Transcript.record`` took,
    and a parsed one the dict ``json.loads`` gave.  ``payload_json``, its
    canonical JSON, and ``digest``, their SHA-256, are derived on each read,
    so recording encodes and hashes nothing.  A digest may also be given
    (parsed from a file, or assigned): only a given digest can disagree with
    the payload, so ``routing_violations`` rechecks only those.  Readers
    leave ``payload`` as it is; to change an event's payload, build a new
    event with ``dataclasses.replace``."""

    seq: int
    step: int
    kind: str
    sender: str
    channel: str  # "broadcast" | "private"
    recipient: str | None
    payload: dict
    given_digest: str | None = None

    @property
    def payload_json(self) -> bytes:
        return canonical_json(self.payload)

    @property
    def digest(self) -> str:
        if self.given_digest is not None:
            return self.given_digest
        return hashlib.sha256(self.payload_json).hexdigest()

    @digest.setter
    def digest(self, value: str):
        self.given_digest = value

    def to_dict(self) -> dict:
        """The event's ``transcript/v1`` object."""
        return {name: getattr(self, name) for name in _EVENT_FIELD_TYPES}

    def to_json(self) -> bytes:
        return canonical_json(self.to_dict())


# The fields of a ``transcript/v1`` event line and their JSON types.
_EVENT_FIELD_TYPES = {
    "seq": int, "step": int, "kind": str, "sender": str, "channel": str,
    "recipient": (str, type(None)), "payload": dict, "digest": str,
}


class Transcript:
    """Append-only event log; a participant's view is a filter over it."""

    def __init__(self, header: dict):
        self.header = dict(header)
        self.events: list[Event] = []
        self.verdict: dict | None = None

    def record(self, *, step, kind, sender, channel, recipient, payload):
        """Append an event that holds a copy of ``payload`` at any depth, so
        a later change to it does not reach the event.  The payload must be a
        dict of JSON data: str keys, and dict, list, str, int, float, bool and
        None values, by exact type.  Anything else raises ``TypeError`` and
        appends nothing."""
        if type(payload) is not dict:
            raise TypeError(payload)
        self.events.append(Event(len(self.events), step, kind, sender, channel, recipient,
                                 _json_copy(payload)))

    def seen_by(self, viewers, kinds=None) -> list[tuple[str, Event]]:
        """(viewer, event) for each event (of ``kinds``, if given) in each view,
        grouped per viewer in the order given.  One pass over the events routes
        each to everyone if broadcast, else to its recipient."""
        views = {viewer: [] for viewer in viewers}
        unknown = views.keys() - set(self.header["participants"])
        if unknown:
            raise UnknownParticipant(next(v for v in views if v in unknown))
        for ev in self.events:
            if kinds is not None and ev.kind not in kinds:
                continue
            if ev.channel == "broadcast":
                for view in views.values():
                    view.append(ev)
            elif ev.recipient in views:
                views[ev.recipient].append(ev)
        return [(viewer, ev) for viewer in viewers for ev in views[viewer]]

    def to_jsonl(self) -> bytes:
        lines = [canonical_json({"header": self.header})]
        lines.extend(ev.to_json() for ev in self.events)
        if self.verdict is not None:
            lines.append(canonical_json({"verdict": self.verdict}))
        return b"\n".join(lines) + b"\n"

    def digest(self) -> str:
        return hashlib.sha256(self.to_jsonl()).hexdigest()


def verdict_to_dict(verdict: Verdict) -> dict:
    out = {"status": verdict.status, "accepted_m": verdict.accepted_m,
           "v_list": list(verdict.v_list) if verdict.v_list is not None else None}
    if verdict.abort is not None:
        out["abort"] = verdict.abort.as_dict()
    return out


# ---------------------------------------------------------------------------
# Session and trial runners.
# ---------------------------------------------------------------------------


@dataclass
class SessionResult:
    verdict: Verdict
    transcript: Transcript | None


# The header fields that ``config_digest`` covers.
CONFIG_FIELDS = ("roster", "k", "data_mode", "pick_mode", "cycle_id", "group")


def config_digest(header: dict) -> str:
    return digest_of({name: header.get(name) for name in CONFIG_FIELDS})


def _config_header(config: SessionConfig, adversary: AdversarySpec) -> dict:
    """A transcript header with its ``seed`` left None: every field but the
    seed depends on the config and the adversary alone."""
    structure = dict(zip(CONFIG_FIELDS, (
        list(config.roster), config.k, config.data_mode, config.pick_mode, config.cycle_id,
        config.pp.group.descriptor.name)))
    return {
        "format": "transcript/v1",
        "participants": [ENV_ID, COUNTRY_ID, VERIFIER_ID, *config.roster],
        "corrupted": sorted(adversary.corrupted),
        "seed": None,
        "pp": params_to_dict(config.pp),
        "config_digest": config_digest(structure),
        **structure,
    }


def _run_wired(config: SessionConfig, behaviors: dict, header: dict | None,
               seed: int) -> SessionResult:
    """One session of wired ``behaviors``, recorded under a copy of a
    ``_config_header`` with ``seed`` set, if one is given."""
    transcript = None
    if header is not None:
        header = _json_copy(header)
        header["seed"] = seed
        transcript = Transcript(header)
    session = AuditSession(config, random.Random(seed), behaviors,
                           recorder=transcript.record if transcript is not None else None)
    verdict = session.run()
    if transcript is not None:
        transcript.verdict = verdict_to_dict(verdict)
    return SessionResult(verdict=verdict, transcript=transcript)


def run_session(
    config: SessionConfig,
    adversary: AdversarySpec = HONEST_ADVERSARY,
    seed: int = 0,
    record: bool = True,
) -> SessionResult:
    """One deterministic session under the given adversary and seed."""
    behaviors = _wire(config, adversary)
    header = _config_header(config, adversary) if record else None
    return _run_wired(config, behaviors, header, seed)


@dataclass
class TrialStats:
    """Aggregated verdicts over independent seeded sessions."""

    trials: int = 0
    completions: int = 0
    aborts_by_step: Counter = field(default_factory=Counter)
    aborts_by_culprit_role: Counter = field(default_factory=Counter)
    accepted_correct: int = 0
    accepted_wrong: int = 0
    subset_counts: Counter = field(default_factory=Counter)

    def record(self, verdict: Verdict, true_m: int | None = None):
        self.trials += 1
        if verdict.completed:
            self.completions += 1
            if true_m is not None:
                if verdict.accepted_m == true_m:
                    self.accepted_correct += 1
                else:
                    self.accepted_wrong += 1
        else:
            self.aborts_by_step[verdict.abort.step] += 1
            self.aborts_by_culprit_role[verdict.abort.culprit_role] += 1
        if verdict.v_list is not None:
            self.subset_counts[tuple(sorted(verdict.v_list))] += 1

    @property
    def total_aborts(self) -> int:
        return sum(self.aborts_by_step.values())

    @property
    def detection_rate(self) -> float:
        return self.total_aborts / self.trials if self.trials else 0.0

    def abort_rate_at(self, step: int) -> float:
        return self.aborts_by_step.get(step, 0) / self.trials if self.trials else 0.0

    def check_invariants(self) -> None:
        if self.completions + self.total_aborts != self.trials:
            raise AssertionError("stats do not sum to trials")

    def as_dict(self) -> dict:
        self.check_invariants()
        return {
            "trials": self.trials,
            "completions": self.completions,
            "abort_step_histogram": {str(k): v for k, v in sorted(self.aborts_by_step.items())},
            "abort_culprit_roles": dict(sorted(self.aborts_by_culprit_role.items())),
            "detection_rate": self.detection_rate,
            "accepted_correct": self.accepted_correct,
            "accepted_wrong": self.accepted_wrong,
        }


def run_trials(
    config: SessionConfig,
    adversary: AdversarySpec = HONEST_ADVERSARY,
    trials: int = 1,
    seed: int = 0,
    structural_checks: bool = True,
) -> TrialStats:
    """N independent sessions with derived per-trial seeds.

    The behaviors are wired, and the header's per-config part built, once
    per call; each trial records under a ``_json_copy`` of it with its own
    seed.  With structural_checks on (the default), every trial records a
    transcript and the routing invariant is asserted on it; each event
    holds a copy of its payload as JSON data, which routing reads as it is,
    so neither step encodes or hashes a payload.  In integrated mode the
    trials share the config's ledgers, so their step-6 walks find the
    config's clean walk on record: each compares the entries once, by
    identity, and takes the recorded total, verifying no signature and
    summing no reading.
    """
    if trials < 1:
        raise ConfigInvalid("trials must be >= 1")
    stats = TrialStats()
    truth = true_total(config)
    behaviors = _wire(config, adversary)
    header = _config_header(config, adversary) if structural_checks else None
    for i in range(trials):
        result = _run_wired(config, behaviors, header, derive_seed(seed, "trial", i))
        if structural_checks:
            violations = routing_violations(result.transcript)
            if violations:
                raise AssertionError(f"routing violations in trial {i}: {violations}")
        stats.record(result.verdict, true_m=truth)
    stats.check_invariants()
    return stats


def run_pick_trials(
    roster,
    k: int,
    trials: int,
    seed: int,
    strategies: dict | None = None,
    base_mode: str = "shared",
    group_name: str = "toy",
) -> Counter:
    """Subset frequency table for repeated joint selections."""
    group = group_by_name(group_name)
    pp = setup(group, "hash_derived")
    counts: Counter = Counter()
    for i in range(trials):
        outcome = pick_mod.run_pick(
            roster, k, pp, random.Random(derive_seed(seed, "pick", i)),
            strategies=strategies, base_mode=base_mode,
        )
        counts[tuple(sorted(outcome.picked))] += 1
    return counts


def chi_square_uniform(counts) -> tuple[float, float]:
    """Chi-square statistic and p-value against the uniform expectation."""
    from scipy.stats import chisquare

    observed = list(counts)
    stat, p = chisquare(observed)
    return float(stat), float(p)


def subset_chi_square(counts: Counter, roster, k: int) -> tuple[float, float]:
    """Chi-square over all (n choose k) subsets, zero cells included."""
    from itertools import combinations

    return chi_square_uniform(counts.get(c, 0) for c in combinations(sorted(roster), k))


# ---------------------------------------------------------------------------
# Structural checkers over transcripts.
# ---------------------------------------------------------------------------

# kind -> fixed recipient (None = the firm named in the payload)
PRIVATE_KINDS = {
    "assign_m": None,
    "report": COUNTRY_ID,
    "env_truth": VERIFIER_ID,
    "reveal_opening": VERIFIER_ID,
    "ledger_forward": VERIFIER_ID,
}
PICK_KINDS = ("pick_base", "pick_commit", "pick_reveal", "pick_fault", "pick_settle")
BROADCAST_KINDS = {"pp", "commitment", "sum", "verification_list", "abort", "verdict", *PICK_KINDS}
# kind -> which secret fields of which firm it carries
OPENING_FIELDS = {
    "assign_m": ("m",),
    "report": ("m", "r"),
    "env_truth": ("m",),
    "reveal_opening": ("r",),
}


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def _header_violations(header: dict) -> list[str]:
    """Views are built from these header fields: each a list of strings
    (``corrupted`` may be absent)."""
    return [
        f"header field {name!r} is not a list of strings"
        for name, default in (("participants", None), ("roster", None), ("corrupted", []))
        if not _is_str_list(header.get(name, default))
    ]


def routing_violations(transcript: Transcript) -> list[str]:
    """No private-lane message may be addressed outside its lane, and each
    given digest (parsed or assigned) must be its payload's.  A derived
    digest is its payload's by construction, so it is not rehashed, and
    routing reads only an event's kind, lane, recipient and, for
    ``assign_m``, its payload's ``firm``: a recorded transcript is checked
    without encoding a payload."""
    out = _header_violations(transcript.header)
    last_seq = -1
    last_step = 0
    for ev in transcript.events:
        if ev.seq <= last_seq:
            out.append(f"seq not increasing at {ev.seq}")
        last_seq = ev.seq
        if ev.step < last_step:
            out.append(f"step went backwards at seq {ev.seq}")
        else:
            last_step = ev.step
        if (ev.given_digest is not None
                and ev.given_digest != hashlib.sha256(ev.payload_json).hexdigest()):
            out.append(f"payload digest mismatch at seq {ev.seq}")
        if ev.kind in PRIVATE_KINDS:
            if ev.channel != "private" or ev.recipient is None:
                out.append(f"{ev.kind} at seq {ev.seq} not on a private lane")
                continue
            expected = PRIVATE_KINDS[ev.kind]
            if expected is None:
                expected = ev.payload.get("firm")
            if ev.recipient != expected:
                out.append(
                    f"{ev.kind} at seq {ev.seq} routed to {ev.recipient}, expected {expected}"
                )
        elif ev.kind in BROADCAST_KINDS:
            if ev.channel != "broadcast" or ev.recipient is not None:
                out.append(f"{ev.kind} at seq {ev.seq} should be broadcast")
        else:
            out.append(f"unknown event kind {ev.kind!r} at seq {ev.seq}")
    return out


def _revealed_list(transcript: Transcript) -> tuple[str, ...] | None:
    """The first revealed list; empty if malformed (leakage_violations says so)."""
    for ev in transcript.events:
        if ev.kind == "verification_list":
            v = ev.payload.get("v")
            return tuple(v) if _is_str_list(v) else ()
    return None


def leakage_violations(transcript: Transcript) -> list[str]:
    """No honest unpicked firm's opening may reach firms or the verifier.

    The country legitimately receives every opening at the report step and
    the environment generates the data, so the boundary under test is the
    views of the firms and of the verifier, corrupted or not.  An opening in
    those views whose ``firm`` is not a firm id is a violation too.  A
    header whose views cannot be built, for want of well-typed fields or of
    a viewer among its participants, yields its header violations instead.
    """
    bad_header = _header_violations(transcript.header)
    if bad_header:
        return bad_header
    corrupted = set(transcript.header.get("corrupted", ()))
    roster = transcript.header["roster"]
    participants = set(transcript.header["participants"])
    unknown = [f"header field 'participants' lacks {viewer!r}"
               for viewer in (*roster, VERIFIER_ID) if viewer not in participants]
    if unknown:
        return unknown
    firms = set(roster)
    picked = set(_revealed_list(transcript) or ())
    out = [
        f"verification_list at seq {ev.seq} is not a list of firm ids"
        for ev in transcript.events
        if ev.kind == "verification_list" and not _is_str_list(ev.payload.get("v"))
    ]
    for viewer, ev in transcript.seen_by((*roster, VERIFIER_ID), OPENING_FIELDS):
        fields = OPENING_FIELDS[ev.kind]
        subject = ev.payload.get("firm")
        if not isinstance(subject, str):
            out.append(f"{viewer} sees {ev.kind} at seq {ev.seq} naming no firm: {subject!r}")
            continue
        if subject in corrupted:
            continue
        if viewer in firms and subject != viewer:
            out.append(
                f"{viewer} sees {ev.kind}({','.join(fields)}) of {subject} at seq {ev.seq}"
            )
        if viewer == VERIFIER_ID and subject not in picked:
            out.append(
                f"verifier sees {ev.kind} of unpicked {subject} at seq {ev.seq}"
            )
    return out


# ---------------------------------------------------------------------------
# Scenarios.
# ---------------------------------------------------------------------------


@dataclass
class Scenario:
    name: str
    config: SessionConfig
    adversary: AdversarySpec
    trials: int
    seed: int
    # The bytes of the file the scenario was read from; None for a builtin.
    source: bytes | None = field(default=None, repr=False, compare=False)


def _field(d: dict, key: str, default=None, kind=int):
    """d[key] if it is of ``kind`` (an int is never a bool), default if it is
    absent."""
    value = d.get(key, default)
    if value is not default and not (is_int(value) if kind is int else isinstance(value, kind)):
        raise ConfigInvalid(f"field {key!r} must be {'an integer' if kind is int else 'a string'}, "
                            f"got {value!r}")
    return value


# A scenario file's sizes are bounded before any firm is built: a session
# holds every firm's spec, report and commitment in memory, so "n": 2**64
# would build firms until memory runs out, and a trial count has no other
# limit.  100 000 firms is a hundred times the production-size n = 1000
# session; 10 million trials is 500 times the largest builtin scenario.
MAX_SCENARIO_FIRMS = 100_000
MAX_SCENARIO_TRIALS = 10_000_000


def _size_field(d: dict, key: str, low: int, high: int, default=None) -> int:
    """d[key] (or default, if one is given and the key is absent) as an
    integer in [low, high]."""
    value = d[key] if default is None else d.get(key, default)
    if not is_int(value) or not low <= value <= high:
        raise ConfigInvalid(f"scenario {key!r} must be an integer in [{low}, {high}], "
                            f"got {value!r}")
    return value


# Each scenario behavior type: the (key, Deviation field, default) triples it
# reads.  A key takes a string if its default is one, else an integer; a type
# whose keys all default to None needs one of them.
_BEHAVIOR_FIELDS = {
    "honest_observed": (),
    "tamper_report": (("delta", "delta", None), ("absolute", "absolute", None)),
    "misreport_sum": (("dm", "dm", 0), ("dr", "dr", 0)),
    "inconsistent_reveal": (("round", "misreveal", 0),),
    "bias_pick": (("strategy", "pick", "zero"),),
    "abort_at": (("step", "silent_from", None),),
}


def _deviation(b: dict) -> Deviation:
    """The Deviation a scenario behavior object describes."""
    btype = _field(b, "type", kind=str)
    if btype not in _BEHAVIOR_FIELDS:
        raise ConfigInvalid(f"unknown behavior type {btype!r}")
    triples = _BEHAVIOR_FIELDS[btype]
    fields = {name: _field(b, key, default, str if isinstance(default, str) else int)
              for key, name, default in triples}
    if triples and all(value is None for value in fields.values()):
        raise ConfigInvalid(f"behavior {btype} needs one of {'/'.join(t[0] for t in triples)}")
    return Deviation(**fields)


def scenario_from_dict(data: dict, name: str = "scenario") -> Scenario:
    """Build a runnable scenario from its JSON form.

    Schema: {group, setup_mode?, n | firms: [{id, m} | {id, ledger, meter_pk}],
    k, data_mode?, pick_mode?, adversary: {corrupted, behaviors}, trials?, seed?}.
    """
    try:
        seed = _field(data, "seed", 0)
        k = _size_field(data, "k", 0, MAX_SCENARIO_FIRMS)
        trials = _size_field(data, "trials", 1, MAX_SCENARIO_TRIALS, default=1)
        if "firms" not in data:
            n = _size_field(data, "n", 0, MAX_SCENARIO_FIRMS)
        elif not isinstance(data["firms"], list):
            raise ConfigInvalid("scenario field 'firms' is not a list")
        elif len(data["firms"]) > MAX_SCENARIO_FIRMS:
            raise ConfigInvalid(f"scenario lists more than {MAX_SCENARIO_FIRMS} firms")
        group = group_by_name(_field(data, "group", "toy", str))
        mode = data.get("setup_mode", "hash_derived")
        pp = setup(group, mode, random.Random(derive_seed(seed, "setup")))
        if "firms" in data:
            firms = []
            for i, f in enumerate(data["firms"]):
                if not isinstance(f, dict):
                    raise ConfigInvalid(f"scenario field 'firms' entry {i} is not an object")
                # A firm with both an "m" and a ledger is refused by the config.
                ledger = meter_pk = None
                if "ledger" in f:
                    from .measurement import read_ledger

                    ledger = read_ledger(_field(f, "ledger", kind=str))
                    meter_pk = bytes.fromhex(f["meter_pk"])
                firms.append(FirmSpec(firm_id=f.get("id"), true_m=_field(f, "m"),
                                      ledger=ledger, meter_pk=meter_pk))
            data_mode = data.get(
                "data_mode",
                "integrated" if any(f.ledger is not None for f in firms) else "abstract",
            )
        else:
            firms = [FirmSpec(firm_id=f"F{i + 1}", true_m=100 * (i + 1)) for i in range(n)]
            data_mode = data.get("data_mode", "abstract")
        config = SessionConfig(
            pp=pp,
            firms=tuple(firms),
            k=k,
            cycle_id=data.get("cycle_id", "cycle-0"),
            data_mode=data_mode,
            pick_mode=data.get("pick_mode", "env"),
            pick_base_mode=data.get("pick_base_mode", "shared"),
            pick_fault_policy=data.get("pick_fault_policy", "complete"),
        )
        adv_data = data.get("adversary", {})
        if not isinstance(adv_data, dict):
            raise ConfigInvalid("scenario field 'adversary' is not an object")
        corrupted, behavior_data = adv_data.get("corrupted", []), adv_data.get("behaviors", {})
        if not _is_str_list(corrupted):
            raise ConfigInvalid("adversary field 'corrupted' is not a list of strings")
        if not isinstance(behavior_data, dict):
            raise ConfigInvalid("adversary field 'behaviors' is not an object")
        behaviors = {}
        for pid, b in behavior_data.items():
            if not isinstance(b, dict):
                raise ConfigInvalid(f"adversary behavior {pid!r} is not an object")
            behaviors[pid] = _deviation(b)
        adversary = AdversarySpec(corrupted=frozenset(corrupted), behaviors=behaviors)
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, ConfigInvalid):
            raise
        raise ConfigInvalid(f"bad scenario: {exc}") from None
    return Scenario(
        name=data.get("name", name),
        config=config,
        adversary=adversary,
        trials=trials,
        seed=seed,
    )


BUILTIN_SCENARIOS: dict[str, dict] = {
    "honest": {
        "group": "toy", "n": 5, "k": 2, "trials": 100,
    },
    "one-tamperer-n10-k3": {
        "group": "toy", "n": 10, "k": 3, "trials": 20000,
        "adversary": {
            "corrupted": ["F3"],
            "behaviors": {"F3": {"type": "tamper_report", "delta": 100}},
        },
    },
    "one-tamperer-always-picked": {
        "group": "toy", "n": 10, "k": 10, "trials": 1000,
        "adversary": {
            "corrupted": ["F3"],
            "behaviors": {"F3": {"type": "tamper_report", "delta": 100}},
        },
    },
    "misreport-sum": {
        "group": "toy", "n": 5, "k": 2, "trials": 100,
        "adversary": {
            "corrupted": ["C"],
            "behaviors": {"C": {"type": "misreport_sum", "dm": 1}},
        },
    },
    "inconsistent-reveal": {
        "group": "toy", "n": 5, "k": 5, "trials": 100,
        "adversary": {
            "corrupted": ["F2"],
            "behaviors": {"F2": {"type": "inconsistent_reveal"}},
        },
    },
    "bias-pick-zero": {
        "group": "toy", "n": 5, "k": 2, "pick_mode": "joint", "trials": 1000,
        "adversary": {
            "corrupted": ["C"],
            "behaviors": {"C": {"type": "bias_pick", "strategy": "zero"}},
        },
    },
    "silent-country": {
        "group": "toy", "n": 5, "k": 2, "trials": 100,
        "adversary": {
            "corrupted": ["C"],
            "behaviors": {"C": {"type": "abort_at", "step": 4}},
        },
    },
}


def load_scenario(name_or_path: str) -> Scenario:
    """Resolve a builtin scenario name or a JSON file path."""
    if name_or_path in BUILTIN_SCENARIOS:
        data = dict(BUILTIN_SCENARIOS[name_or_path])
        return scenario_from_dict(data, name=name_or_path)
    try:
        with open(name_or_path, "rb") as fh:
            source = fh.read()
        data = json.loads(source.decode("utf-8"))  # not json.loads(bytes): no BOM, no UTF-16
    except FileNotFoundError:
        raise ConfigInvalid(
            f"unknown scenario {name_or_path!r}; builtins: "
            + ", ".join(sorted(BUILTIN_SCENARIOS))
        ) from None
    except RecursionError:
        raise ConfigInvalid(f"{name_or_path}: JSON nested too deeply") from None
    scenario = scenario_from_dict(data, name=name_or_path)
    scenario.source = source
    return scenario


# ---------------------------------------------------------------------------
# Transcript persistence and independent replay.
# ---------------------------------------------------------------------------


class TranscriptFormatError(ValueError):
    """Transcript file is not a well-formed event stream."""


def parse_transcript(data: bytes) -> Transcript:
    """Rebuild a Transcript object from its JSONL serialization."""
    header = None
    events: list[Event] = []
    verdict = None
    for line_no, raw in enumerate(data.splitlines(), start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            obj = json.loads(raw)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise TranscriptFormatError(f"line {line_no}: {exc}") from None
        if not isinstance(obj, dict):
            raise TranscriptFormatError(f"line {line_no}: not a JSON object")
        if "header" in obj:
            header = obj["header"]
        elif "verdict" in obj:
            verdict = obj["verdict"]
        else:
            bad = sorted(obj.keys() ^ _EVENT_FIELD_TYPES.keys()) or [
                name for name, kind in _EVENT_FIELD_TYPES.items()
                if isinstance(obj[name], bool) or not isinstance(obj[name], kind)]
            if bad:
                raise TranscriptFormatError(f"line {line_no}: bad event fields {bad}")
            given_digest = obj.pop("digest")
            events.append(Event(**obj, given_digest=given_digest))
    if not isinstance(header, dict):
        raise TranscriptFormatError("transcript has no header object")
    if verdict is not None and not isinstance(verdict, dict):
        raise TranscriptFormatError("transcript verdict is not an object")
    t = Transcript(header)
    t.events = events
    t.verdict = verdict
    return t


def replay_verdict(transcript: Transcript, pp: PublicParams | None = None) -> dict:
    """The verdict line (as ``verdict_to_dict`` writes it) that a fresh
    verifier reaches from the recorded messages, under ``pp`` (by default,
    the header's), running the engine's checks in the engine's order.

    Silence and ledger contents leave no message of their own, so at those
    points only the environment's recorded abort is taken, and only where
    the messages bear it out: C or V went silent at step s only if it sent
    no event at step s or later, and a firm's ledger failed only if its
    opening passed and its ``ledger_forward`` is on record.  The culprit's
    role follows from its id.
    """
    header = transcript.header
    if pp is None:
        pp = params_from_dict(header["pp"])
    roster = list(header["roster"])

    commitments, reports, truths, reveals, forwarded = {}, {}, {}, {}, set()
    sums = v_list = pick_fault = None
    claim = (None, None, None)  # (step, culprit, reason) of the environment's abort
    last_step = {}  # sender -> the last step it sent an event at
    for ev in transcript.events:
        p = ev.payload
        last_step[ev.sender] = max(last_step.get(ev.sender, 0), ev.step)
        if ev.kind == "commitment":
            commitments[p["firm"]] = pp.group.decode_point(bytes.fromhex(p["c"]))
        elif ev.kind == "report":
            reports[p["firm"]] = (p["m"], pp.group.decode_scalar(bytes.fromhex(p["r"])))
        elif ev.kind == "sum" and ev.sender == COUNTRY_ID:
            sums = (p["m"], pp.group.decode_scalar(bytes.fromhex(p["r"])))
        elif ev.kind == "verification_list" and v_list is None:
            v_list = tuple(p["v"])  # the first, as the pick replay and leakage check read
        elif ev.kind == "env_truth":
            truths[p["firm"]] = p["m"]
        elif ev.kind == "reveal_opening":
            reveals[p["firm"]] = pp.group.decode_scalar(bytes.fromhex(p["r"]))
        elif ev.kind == "ledger_forward":
            forwarded.add(p["firm"])
        elif ev.kind == "pick_fault":
            pick_fault = (ev.sender, p.get("reason", "pick fault"))
        elif ev.kind == "abort" and ev.sender == ENV_ID:
            claim = (p.get("step"), p.get("culprit"), p.get("reason"))

    def silent(step: int, pid: str) -> Abort | None:
        holds = claim == (step, pid, "went silent") and last_step.get(pid, 0) < step
        return Abort(step, SERVICE_ROLES[pid], pid, "went silent") if holds else None

    def ledger_failed(fid: str) -> Abort | None:
        step, culprit, reason = claim
        holds = ((step, culprit) == (6, fid) and fid in forwarded and isinstance(reason, str)
                 and reason.startswith("ledger check failed: "))
        return Abort(6, ROLE_FIRM, fid, reason) if holds else None

    def checks():
        """Each check's Abort or None, in the engine's order."""
        yield silent(3, COUNTRY_ID)
        yield examine(pp, roster, reports, commitments)
        if sums is None:
            yield Abort(4, ROLE_COUNTRY, COUNTRY_ID, "went silent")
        if header.get("pick_mode") == "joint":
            yield silent(5, VERIFIER_ID)
            yield silent(5, COUNTRY_ID)
            if v_list is None and pick_fault is not None:
                sender, reason = pick_fault
                yield Abort(5, SERVICE_ROLES[sender], sender, f"pick fault: {reason}")
        if v_list is None:
            yield Abort(5, ROLE_ENV, ENV_ID, "verification list missing")
        yield silent(6, VERIFIER_ID)
        for fid in v_list:
            yield picked_check(pp, fid, commitments, reveals, truths)
            yield ledger_failed(fid)
        yield silent(7, VERIFIER_ID)
        yield sum_check(pp, len(roster), (commitments[fid] for fid in roster), *sums)

    abort = next((a for a in checks() if a is not None), None)
    if abort is None:
        return verdict_to_dict(Verdict("completed", sums[0], None, v_list))
    # The engine holds the list from the end of step 5 on.
    return verdict_to_dict(Verdict("aborted", None, abort, v_list if abort.step > 5 else None))


def pick_violation(transcript: Transcript, pp: PublicParams) -> str | None:
    """The first way a joint pick's events break its round rule, or None.
    Under any other pick mode, the first pick event is the violation.

    Plays the events through ``pick.PickFold``, the round rule of the engine
    and of ``pick-settle``, after checking what the fold cannot see: each
    event's round and sender, and that each ``pick_base`` (cross-base mode:
    the base a committer's peer published) is for round -1, is the only one
    for its committer and comes before round 0's first commitment.  The
    settled firms, in roster order, must be the verification list.  A
    malformed payload raises KeyError, TypeError or ValueError.
    """
    header = transcript.header
    events = [ev for ev in transcript.events if ev.kind in PICK_KINDS]
    if header.get("pick_mode") != "joint":
        # The environment's pick sends no pick events.
        return None if not events else (
            f"{events[0].kind} at seq {events[0].seq} under pick mode {header.get('pick_mode')!r}")
    group, roster = pp.group, header["roster"]
    fold = pick_mod.PickFold(roster, dict.fromkeys(pick_mod.PARTIES, pp))
    published = set()  # committers whose peer published a base
    for ev in events:
        p, party, where = ev.payload, SERVICE_ROLES.get(ev.sender), f"{ev.kind} at seq {ev.seq}"
        j = -1 if ev.kind == "pick_base" else len(fold.settled)
        if not is_int(p["round"]) or p["round"] != j:
            return f"{where} is for round {p['round']!r}, not {j}"
        if ev.kind == "pick_base":
            committer = p["committer"]
            if party is None or committer != pick_mod.other(party):
                return f"{where} is sent by {ev.sender!r}, not by the peer of {committer!r}"
            if committer in published:
                return f"{where} publishes a second base for the {committer}"
            if fold.commits or fold.settled:
                return f"{where} comes after round 0's first commitment"
            h = group.decode_point(bytes.fromhex(p["h"]))
            fold.bases[committer] = PublicParams(group, pp.g, h, "trusted")
            published.add(committer)
            continue
        if fold.failed is not None and ev.kind != "pick_fault":
            return f"no pick_fault names the {fold.failed[0]}, whose reveal in round {j} fails"
        try:
            if ev.kind == "pick_settle":
                sender = PICK_SENDERS.get(fold.settler, ENV_ID)
                if ev.sender != sender:
                    return f"{where} is sent by {ev.sender!r}, not {sender!r}"
                if p["index"] is None:  # the fold would settle on the reveals' index
                    return f"{where} has index None outside [0, {len(fold.remaining)})"
                index = fold.settle(p["index"])
                if p["picked"] != (picked := fold.settled[-1]):
                    return f"{where} picks {p['picked']!r}, index {index} names {picked!r}"
            elif party is None:
                return f"{where} is not sent by the country or the verifier"
            elif ev.kind == "pick_commit":
                fold.commit(party, group.decode_point(bytes.fromhex(p["c"])))
            elif ev.kind == "pick_reveal":
                fold.reveal(party, p["m"], group.decode_scalar(bytes.fromhex(p["r"])))
            else:  # pick_fault
                fold.fault(party, p["reason"])
        except pick_mod.PickError as exc:
            return f"{where} {exc}"
    if fold.failed is not None:
        return f"no pick_fault names the {fold.failed[0]}, whose reveal fails"
    v_list = _revealed_list(transcript)
    chosen = set(fold.settled)
    if v_list is not None and (len(fold.settled) != header["k"]
                               or v_list != tuple(f for f in roster if f in chosen)):
        return f"verification list {list(v_list)} is not the settled pick {fold.settled}"
    return None


def audit_transcript(transcript: Transcript) -> dict:
    """Full independent audit: structure, routing, leakage, pick and verdict.

    Returns {ok, violations, replayed, recorded}.  The header's
    ``config_digest`` must be the digest of its ``CONFIG_FIELDS``; nothing
    here authenticates those fields, so compare the digest with the agreed
    configuration out of band.  The recorded verdict line must equal the
    replayed one (``replay_verdict``) field for field, and the closing event
    must agree with it.  Nothing is taken on trust: a silence
    or ledger abort holds only where the messages bear it out.  A payload
    the replay cannot decode is a violation, and ``replayed`` is then None.
    """
    violations = routing_violations(transcript)
    recorded = transcript.verdict
    if _header_violations(transcript.header):
        # Views and the replay are defined over the header's rosters.
        return {"ok": False, "violations": violations, "replayed": None, "recorded": recorded}
    violations.extend(leakage_violations(transcript))
    if transcript.header.get("config_digest") != config_digest(transcript.header):
        violations.append(f"config_digest does not match the header's {', '.join(CONFIG_FIELDS)}")
    try:
        pp = params_from_dict(transcript.header["pp"])
        replayed = replay_verdict(transcript, pp)
        pick = pick_violation(transcript, pp)
        if pick is not None:
            violations.append(f"pick does not replay: {pick}")
    except (KeyError, TypeError, ValueError) as exc:
        replayed = None
        violations.append(f"recorded messages do not replay: {type(exc).__name__}: {exc}")
    if recorded is None:
        violations.append("transcript carries no verdict record")
    if replayed is None:
        return {"ok": False, "violations": violations, "replayed": None, "recorded": recorded}
    if recorded is not None and canonical_json(recorded) != canonical_json(replayed):
        if not isinstance(recorded.get("abort", {}), dict):
            violations.append("recorded abort is not an object")
        elif recorded.get("status") != replayed["status"]:
            violations.append(f"recorded status {recorded.get('status')} but replay says "
                              f"{replayed['status']}")
        else:
            violations.append(f"recorded verdict {recorded} but replay says {replayed}")
    # The closing event: the environment's abort, or the verifier's verdict,
    # as the last event and the only one of either kind.
    abort, accepted_m = replayed.get("abort"), replayed["accepted_m"]
    want = ((abort["step"], "abort", ENV_ID, abort) if abort else
            (7, "verdict", VERIFIER_ID, {"status": "completed", "accepted_m": accepted_m}))
    closing = [ev for ev in transcript.events if ev.kind in ("abort", "verdict")]
    if (canonical_json([(ev.step, ev.kind, ev.sender, ev.payload) for ev in closing])
            != canonical_json([want]) or closing[0] is not transcript.events[-1]):
        violations.append(f"the closing event is not the replay's {want[1]} from {want[2]} "
                          f"at step {want[0]}: {canonical_json(want[3]).decode()}")
    return {
        "ok": not violations,
        "violations": violations,
        "replayed": replayed,
        "recorded": recorded,
    }
