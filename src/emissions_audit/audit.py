"""The seven-step auditing session over firms, country, and verifier.

An environment hands each firm its true emissions total and seals a random
k-subset of firms for later inspection.  Firms broadcast commitments and
privately send openings to the country; the country checks every opening
and publishes aggregate sums; the subset is then revealed and the verifier
rechecks the picked firms from ground truth before checking that the sum of
all broadcast commitments opens to the published totals.

``AuditSession.run`` drives the seven steps in order.  Each step processes
firm messages in roster order and returns the abort of its first failed
check, naming the step and the culprit, or None; ``run`` stops at the
first abort, which the environment announces.  The verdict is a pure
function of (config, behaviors, seed).  The checks of steps 3, 6 and 7
(``examine``, ``picked_check``, ``sum_check``) are module functions that
return an ``Abort`` or None, shared with the transcript replayer and the CLI.
Each reads only what its checker holds: the step-6 check never sees the
country's lane of reports.

Two data modes: *abstract* sessions take each firm's true total straight
from the config; *integrated* sessions derive it from the firm's signed
meter ledger, once, when the config is built, and extend the verifier's
step-6 check with a ledger spot check (``measurement.spot_check``).  The
config's walk records its entry objects and their total; the spot check
compares the ledger with that record once, by identity, and checks in full,
and adds to the recorded total, only entries appended after it (see
``measurement.walk_ledger``).  So a ledger unchanged since the config costs
no Ed25519 verify, no hash and no sum, and one changed within the recorded
entries is walked in full, so the change is caught.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import IntEnum

from . import pick as pick_mod
from .commitment import (
    MAX_EMISSIONS_KG,
    PublicParams,
    commit_many,
    is_int,
    params_to_dict,
    verify_opening,
    verify_openings,
)
from .groups import Scalar
from .measurement import FirmLedger, aggregate, spot_check

ENV_ID = "E"
COUNTRY_ID = "C"
VERIFIER_ID = "V"

ROLE_ENV = "environment"
ROLE_FIRM = "firm"
ROLE_COUNTRY = pick_mod.COUNTRY  # a pick party is named by its role
ROLE_VERIFIER = pick_mod.VERIFIER

# The country's and the verifier's role, which is also its pick party, by id;
# and the sender id of a pick message by pick party (the environment sends
# the rest).
SERVICE_ROLES = {COUNTRY_ID: ROLE_COUNTRY, VERIFIER_ID: ROLE_VERIFIER}
PICK_SENDERS = {role: pid for pid, role in SERVICE_ROLES.items()}


class Step(IntEnum):
    SETUP = 1
    REPORT = 2
    EXAMINE = 3
    PUBLISH = 4
    REVEAL = 5
    SPOT_CHECK = 6
    SUM_CHECK = 7


class ConfigInvalid(ValueError):
    """Session configuration violates its invariants."""


class SealedError(RuntimeError):
    """Verification list accessed before its reveal step."""


@dataclass(frozen=True)
class FirmSpec:
    """One firm in the roster; exactly one ground-truth source is set."""

    firm_id: str
    true_m: int | None = None
    ledger: FirmLedger | None = None
    meter_pk: bytes | None = None


@dataclass
class SessionConfig:
    pp: PublicParams
    firms: tuple[FirmSpec, ...]
    k: int
    cycle_id: str = "cycle-0"
    data_mode: str = "abstract"  # "abstract" | "integrated"
    pick_mode: str = "env"  # "env" | "joint"
    pick_base_mode: str = "shared"
    pick_fault_policy: str = "complete"
    # Derived when the config is built: the firm ids in roster order, each
    # firm's spec by id, and each firm's ground truth (true_m in abstract
    # mode, the verified ledger total in integrated mode).
    roster: tuple[str, ...] = field(init=False, repr=False, compare=False)
    firm_by_id: dict[str, FirmSpec] = field(init=False, repr=False, compare=False)
    truths: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.firms = tuple(self.firms)
        self.roster = ids = tuple(f.firm_id for f in self.firms)
        for fid in ids:
            if not isinstance(fid, str) or not fid or fid in (ENV_ID, COUNTRY_ID, VERIFIER_ID):
                raise ConfigInvalid(f"bad firm id {fid!r}")
        self.firm_by_id = dict(zip(ids, self.firms))
        if len(self.firm_by_id) != len(ids):
            raise ConfigInvalid("duplicate firm ids in roster")
        if not isinstance(self.k, int) or self.k < 0 or self.k > len(ids):
            raise ConfigInvalid(f"k={self.k!r} not in [0, {len(ids)}]")
        if not isinstance(self.cycle_id, str) or not self.cycle_id:
            raise ConfigInvalid(f"cycle id must be a non-empty string, got {self.cycle_id!r}")
        if self.data_mode not in ("abstract", "integrated"):
            raise ConfigInvalid(f"unknown data mode {self.data_mode!r}")
        if self.pick_mode not in ("env", "joint"):
            raise ConfigInvalid(f"unknown pick mode {self.pick_mode!r}")
        if self.pick_base_mode not in pick_mod.BASE_MODES:
            raise ConfigInvalid(f"unknown pick base mode {self.pick_base_mode!r}")
        if self.pick_fault_policy not in pick_mod.FAULT_POLICIES:
            raise ConfigInvalid(f"unknown pick fault policy {self.pick_fault_policy!r}")
        self.truths = {}
        for f in self.firms:
            if f.true_m is not None and f.ledger is not None:
                raise ConfigInvalid(f"firm {f.firm_id}: both true_m and a ledger are set")
            if self.data_mode == "abstract":
                if not is_int(f.true_m):
                    raise ConfigInvalid(f"firm {f.firm_id}: abstract mode needs true_m")
                if f.true_m < 0 or f.true_m >= MAX_EMISSIONS_KG:
                    raise ConfigInvalid(f"firm {f.firm_id}: true_m out of range")
                self.truths[f.firm_id] = f.true_m
            else:
                if f.ledger is None or f.meter_pk is None:
                    raise ConfigInvalid(
                        f"firm {f.firm_id}: integrated mode needs ledger and meter_pk"
                    )
                if f.ledger.firm_id != f.firm_id:
                    raise ConfigInvalid(
                        f"firm {f.firm_id}: ledger belongs to {f.ledger.firm_id!r}")
                try:
                    self.truths[f.firm_id] = aggregate(f.ledger, f.meter_pk)
                except ValueError as exc:
                    raise ConfigInvalid(
                        f"firm {f.firm_id}: ledger does not verify: {exc!r}") from None

    @property
    def n(self) -> int:
        return len(self.firms)


@dataclass(frozen=True)
class Abort:
    step: int
    culprit_role: str
    culprit_id: str
    reason: str

    def as_dict(self) -> dict:
        """The abort as transcripts record it."""
        return {"step": self.step, "culprit_role": self.culprit_role,
                "culprit": self.culprit_id, "reason": self.reason}


def examine(pp: PublicParams, order, reports: dict, commitments: dict) -> Abort | None:
    """Step 3, the country's check of every firm's opening and range.

    ``reports`` maps a firm to its claimed (m, r), ``commitments`` to its
    broadcast point.  The culprit is the first failing firm in ``order``:
    presence and range are scanned first, then the openings before that
    firm are checked as one batch.
    """
    items = []
    failure = None
    for fid in order:
        if fid not in reports or fid not in commitments:
            failure = Abort(3, ROLE_FIRM, fid, "report missing")
            break
        m, r = reports[fid]
        if not is_int(m) or m < 0 or m >= MAX_EMISSIONS_KG:
            failure = Abort(3, ROLE_FIRM, fid, f"reported total {m!r} out of range")
            break
        items.append((commitments[fid], pp.group.scalar(m), r))
    bad = verify_openings(pp, items)
    if bad is not None:
        return Abort(3, ROLE_FIRM, order[bad], "opening does not match the commitment")
    return failure


def country_sums(pp: PublicParams, openings) -> tuple[int, Scalar]:
    """Step 4, the country's move after a clean examine: the integer sum
    of the firms' claims and the scalar sum of their blindings, over
    ``openings`` of (m, r)."""
    m_sum, r_sum = 0, pp.group.scalar(0)
    for m, r in openings:
        m_sum, r_sum = m_sum + m, r_sum + r
    return m_sum, r_sum


def picked_check(pp: PublicParams, fid: str, commitments: dict, reveals: dict,
                 truths: dict, ledger: FirmLedger | None = None,
                 meter_pk: bytes | None = None) -> Abort | None:
    """Step 6 for one picked firm, from what the verifier holds: its
    broadcast commitment opens, under the blinding it revealed, to the
    environment's true total; given the forwarded ``ledger`` and
    ``meter_pk``, the ledger also walks clean and sums to that total.

    The opening binds the integer total only modulo the group order q, so
    it pins the firm's claim to the truth only when q exceeds every
    admissible total (2**40).  That holds for secp256k1; on the toy group
    (q = 101) a claim off by a multiple of q passes here, as it does in
    abstract mode.
    """
    if fid not in commitments:
        return Abort(6, ROLE_FIRM, fid, "no commitment on record")
    if fid not in reveals:
        return Abort(6, ROLE_FIRM, fid, "blinding factor not revealed")
    if fid not in truths:
        return Abort(6, ROLE_ENV, ENV_ID, "ground truth missing")
    if not is_int(truths[fid]):
        raise TypeError(f"ground truth of {fid} is not an integer: {truths[fid]!r}")
    if not verify_opening(pp, commitments[fid], pp.group.scalar(truths[fid]), reveals[fid]):
        return Abort(6, ROLE_FIRM, fid, "commitment does not open to the true total")
    if ledger is not None:
        failures = spot_check(ledger, meter_pk, fid, truths[fid])
        if failures:
            kinds = ",".join(sorted({f.kind for f in failures}))
            return Abort(6, ROLE_FIRM, fid, f"ledger check failed: {kinds}")
    return None


def sum_check(pp: PublicParams, n: int, commitments, m_pub, r_pub) -> Abort | None:
    """Step 7: the sum of the n firms' ``commitments`` opens to the
    published (m_pub, r_pub).

    The opening check works modulo q, so the published integer must also
    sit in the only range n in-range reports can sum to.  Nothing here
    bounds each commitment: a country that passes a colluding firm's
    out-of-range opening at step 3 can lower the published total by any
    amount, and only a spot check of that firm (probability k/n) names it.
    """
    if not is_int(m_pub) or m_pub < 0 or m_pub > n * (MAX_EMISSIONS_KG - 1):
        return Abort(7, ROLE_COUNTRY, COUNTRY_ID, "published total outside the admissible range")
    if not verify_opening(pp, pp.group.sum(commitments), pp.group.scalar(m_pub), r_pub):
        return Abort(7, ROLE_COUNTRY, COUNTRY_ID,
                     "aggregate commitment does not open to the published sums")
    return None


@dataclass(frozen=True)
class Verdict:
    status: str  # "completed" | "aborted"
    accepted_m: int | None
    abort: Abort | None
    v_list: tuple[str, ...] | None

    @property
    def completed(self) -> bool:
        return self.status == "completed"


class EnvAssignment:
    """Environment's private state: truth per firm plus a sealed pick."""

    def __init__(self, m_assignments: dict[str, int], v_list: tuple[str, ...] | None):
        self.m_assignments = dict(m_assignments)
        self._v_list = v_list
        self._revealed = False

    @property
    def verification_list(self) -> tuple[str, ...]:
        if not self._revealed:
            raise SealedError("verification list is sealed until the reveal step")
        return self._v_list

    def reveal(self) -> tuple[str, ...]:
        self._revealed = True
        return self._v_list


def env_setup(config: SessionConfig, rng: random.Random) -> EnvAssignment:
    """Assign ground truth and (env pick mode) seal a uniform k-subset.

    Ground truth is the config's snapshot (in integrated mode, of each
    firm's verified ledger total); the environment is the only party
    trusted to compute it ahead of time.
    """
    if config.pick_mode == "env":
        chosen = set(rng.sample(config.roster, config.k))
        v_list = tuple(fid for fid in config.roster if fid in chosen)
    else:
        v_list = None  # picked jointly at the reveal step
    return EnvAssignment(config.truths, v_list)


# ---------------------------------------------------------------------------
# Participant behaviors.  ``Behavior`` plays the protocol honestly; a session
# takes one behavior per participant, and the harness's adversary catalogue,
# ``Deviation``, subclasses it with one field per hook it can deviate in.
# ---------------------------------------------------------------------------


class Behavior:
    """How one participant plays.  The engine calls a firm's ``claim``,
    ``blinding`` and ``reveal_blinding``, the country's ``publish``, and
    every participant's ``silent_at``; the country's and the verifier's
    ``pick_strategy`` replaces its joint-pick draw (None draws honestly).
    ``roles`` names the roles a behavior may be assigned to."""

    roles = (ROLE_FIRM, ROLE_COUNTRY, ROLE_VERIFIER)
    pick_strategy: pick_mod.PickStrategy | None = None

    def claim(self, true_m: int) -> int:
        """The total the firm actually commits to and reports."""
        return true_m

    def blinding(self, pp: PublicParams, rng: random.Random) -> Scalar:
        return pp.group.random_scalar(rng)

    def reveal_blinding(self, r: Scalar) -> Scalar:
        """What the firm forwards to the verifier when picked."""
        return r

    def publish(self, m_sum: int, r_sum: Scalar) -> tuple[int, Scalar]:
        return m_sum, r_sum

    def silent_at(self, step: int) -> bool:
        return False


_HONEST = Behavior()


@dataclass
class SessionState:
    env: EnvAssignment | None = None
    commitments: dict = field(default_factory=dict)  # firm -> point (broadcast)
    reports: dict = field(default_factory=dict)  # firm -> (claim m, r); country's lane
    published_m: int | None = None
    published_r: Scalar | None = None
    v_list: tuple[str, ...] | None = None
    verifier_truth: dict = field(default_factory=dict)  # firm -> true m (env lane)
    verifier_blindings: dict = field(default_factory=dict)  # firm -> r (firm lane)
    verifier_ledgers: dict = field(default_factory=dict)  # firm -> ledger (integrated)


class AuditSession:
    """One session.  ``run`` drives it: it calls the step methods in order,
    and each returns the ``Abort`` that ends the session, or None.

    ``behaviors`` maps a participant id to its ``Behavior``; everyone it
    leaves out plays honestly.
    """

    def __init__(self, config: SessionConfig, rng: random.Random,
                 behaviors: dict | None = None, recorder=None):
        self.config = config
        self.rng = rng
        self.state = SessionState()
        self.behaviors = dict.fromkeys((COUNTRY_ID, VERIFIER_ID, *config.roster), _HONEST)
        self.behaviors.update(behaviors or {})
        self.recorder = recorder
        self._firm_blindings: dict[str, Scalar] = {}  # each firm's own secret

    # -- plumbing -----------------------------------------------------------

    def _emit(self, step, kind, sender, payload, recipient=None):
        # A payload that takes encoding to build is built only when recording.
        if self.recorder is not None:
            self.recorder(
                step=int(step),
                kind=kind,
                sender=sender,
                channel="broadcast" if recipient is None else "private",
                recipient=recipient,
                payload=payload,
            )

    def _silent(self, step: Step, pid: str) -> Abort | None:
        """The abort naming the country or verifier ``pid`` if its behavior
        is silent at ``step``."""
        step = int(step)
        if self.behaviors[pid].silent_at(step):
            return Abort(step, SERVICE_ROLES[pid], pid, "went silent")
        return None

    def _hex_point(self, p) -> str:
        return self.config.pp.group.encode_point(p).hex()

    def _hex_scalar(self, s: Scalar) -> str:
        return self.config.pp.group.encode_scalar(s).hex()

    # -- protocol steps ------------------------------------------------------

    def step1_setup(self) -> None:
        """Environment broadcasts pp and hands each firm its true total."""
        self.state.env = env_setup(self.config, self.rng)
        if self.recorder is not None:
            self._emit(Step.SETUP, "pp", ENV_ID, params_to_dict(self.config.pp))
        for fid in self.config.roster:
            self._emit(
                Step.SETUP, "assign_m", ENV_ID,
                {"firm": fid, "m": self.state.env.m_assignments[fid]},
                recipient=fid,
            )

    def step2_reports(self) -> None:
        """Each firm broadcasts its commitment and reports the opening.

        Openings are drawn firm by firm in roster order, so the rng stream
        is the same as committing one at a time; the commitments are then
        computed in one batch.
        """
        pp = self.config.pp
        # A silent firm sends nothing; its absence is caught at step 3.
        reporting = [fid for fid in self.config.roster
                     if not self.behaviors[fid].silent_at(2)]
        openings = []
        for fid in reporting:
            behavior = self.behaviors[fid]
            claim = behavior.claim(self.state.env.m_assignments[fid])
            openings.append((claim, behavior.blinding(pp, self.rng)))
        commitments = commit_many(pp, [(pp.group.scalar(m), r) for m, r in openings])
        for fid, (claim, r), c in zip(reporting, openings, commitments):
            self._firm_blindings[fid] = r
            self.state.commitments[fid] = c
            self.state.reports[fid] = (claim, r)
            if self.recorder is not None:
                self._emit(Step.REPORT, "commitment", fid,
                           {"firm": fid, "c": self._hex_point(c)})
                self._emit(Step.REPORT, "report", fid,
                           {"firm": fid, "m": claim, "r": self._hex_scalar(r)},
                           recipient=COUNTRY_ID)

    def step3_examine(self) -> Abort | None:
        """Country checks every firm's opening and range (see ``examine``)."""
        return (self._silent(Step.EXAMINE, COUNTRY_ID)
                or examine(self.config.pp, self.config.roster,
                           self.state.reports, self.state.commitments))

    def step4_publish(self) -> Abort | None:
        """Country broadcasts the integer total and the blinding total."""
        if abort := self._silent(Step.PUBLISH, COUNTRY_ID):
            return abort
        m_pub, r_pub = self.behaviors[COUNTRY_ID].publish(
            *country_sums(self.config.pp, self.state.reports.values()))
        self.state.published_m = m_pub
        self.state.published_r = r_pub
        if self.recorder is not None:
            self._emit(Step.PUBLISH, "sum", COUNTRY_ID,
                       {"m": m_pub, "r": self._hex_scalar(r_pub)})
        return None

    def step5_reveal(self) -> Abort | None:
        """Reveal the verification list; forward truths and blindings to V."""
        if self.config.pick_mode == "env":
            v_list = self.state.env.reveal()
        else:
            if abort := (self._silent(Step.REVEAL, VERIFIER_ID)
                         or self._silent(Step.REVEAL, COUNTRY_ID)):
                return abort
            strategies = {party: s for party, pid in PICK_SENDERS.items()
                          if (s := self.behaviors[pid].pick_strategy) is not None}
            outcome = pick_mod.run_pick(
                self.config.roster,
                self.config.k,
                self.config.pp,
                self.rng,
                strategies=strategies,
                base_mode=self.config.pick_base_mode,
                on_fault=self.config.pick_fault_policy,
                recorder=self._pick_recorder if self.recorder is not None else None,
            )
            if outcome.picked is None:
                fault = outcome.fault
                return Abort(int(Step.REVEAL), fault.party, PICK_SENDERS[fault.party],
                             f"pick fault: {fault.reason}")
            chosen = set(outcome.picked)
            v_list = tuple(fid for fid in self.config.roster if fid in chosen)
        self.state.v_list = v_list
        self._emit(Step.REVEAL, "verification_list", ENV_ID, {"v": list(v_list)})
        for fid in v_list:
            self._emit(Step.REVEAL, "env_truth", ENV_ID,
                       {"firm": fid, "m": self.state.env.m_assignments[fid]},
                       recipient=VERIFIER_ID)
            self.state.verifier_truth[fid] = self.state.env.m_assignments[fid]
            behavior = self.behaviors[fid]
            if fid in self._firm_blindings and not behavior.silent_at(5):
                r_fwd = behavior.reveal_blinding(self._firm_blindings[fid])
                self.state.verifier_blindings[fid] = r_fwd
                if self.recorder is not None:
                    self._emit(Step.REVEAL, "reveal_opening", fid,
                               {"firm": fid, "r": self._hex_scalar(r_fwd)},
                               recipient=VERIFIER_ID)
            if self.config.data_mode == "integrated":
                spec = self.config.firm_by_id[fid]
                self.state.verifier_ledgers[fid] = spec.ledger
                self._emit(Step.REVEAL, "ledger_forward", fid,
                           {"firm": fid, "entries": len(spec.ledger.entries),
                            "head": spec.ledger.head.hex()},
                           recipient=VERIFIER_ID)
        return None

    def _pick_recorder(self, kind, round_index, party, payload):
        sender = PICK_SENDERS.get(party, ENV_ID)
        self._emit(Step.REVEAL, kind, sender, dict(payload, round=round_index))

    def step6_spot_checks(self) -> Abort | None:
        """Verifier rechecks every picked firm against ground truth."""
        if abort := self._silent(Step.SPOT_CHECK, VERIFIER_ID):
            return abort
        state = self.state
        for fid in state.v_list:
            # Ledgers are forwarded in integrated mode only.
            if abort := picked_check(self.config.pp, fid, state.commitments,
                                     state.verifier_blindings, state.verifier_truth,
                                     state.verifier_ledgers.get(fid),
                                     self.config.firm_by_id[fid].meter_pk):
                return abort
        return None

    def step7_sum_check(self) -> Abort | None:
        """Verifier checks the homomorphic aggregate against the sums."""
        commitments = self.state.commitments
        m_pub = self.state.published_m
        abort = self._silent(Step.SUM_CHECK, VERIFIER_ID) or sum_check(
            self.config.pp, self.config.n,
            (commitments[fid] for fid in self.config.roster if fid in commitments),
            m_pub, self.state.published_r)
        if abort is None:
            self._emit(Step.SUM_CHECK, "verdict", VERIFIER_ID,
                       {"status": "completed", "accepted_m": m_pub})
        return abort

    _STEP_METHODS = (
        "step1_setup",
        "step2_reports",
        "step3_examine",
        "step4_publish",
        "step5_reveal",
        "step6_spot_checks",
        "step7_sum_check",
    )

    def run(self) -> Verdict:
        """Run the steps in order up to the first abort; the verdict."""
        for name in self._STEP_METHODS:
            abort = getattr(self, name)()
            if abort is not None:
                # The environment plays referee: it announces the failed execution.
                self._emit(abort.step, "abort", ENV_ID, abort.as_dict())
                return Verdict("aborted", None, abort, self.state.v_list)
        return Verdict("completed", self.state.published_m, None, self.state.v_list)


def true_total(config: SessionConfig) -> int:
    """Ground-truth sum the session should accept when everyone is honest."""
    return sum(config.truths.values())
