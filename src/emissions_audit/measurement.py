"""Signed meter readings, tamper-evident ledgers, and committed reports.

A certified meter signs one reading per hour with Ed25519.  The firm keeps
readings in an append-only ledger whose entries are linked by a SHA-256
hash chain, so any after-the-fact edit breaks every later link.  At the end
of a reporting cycle the firm aggregates the ledger into a total and wraps
it in a commitment.  An auditor handed the ledger rechecks it against the
total the commitment opens to (``spot_check``); opening the commitment is
the auditor's own step (``audit.picked_check``).

Canonical signing bytes for a reading are::

    b"meter-reading/v1\\n" + firm_id + b"\\n" + hour_iso + b"\\n" + str(e)

with ``hour_iso`` like ``2024-06-01T13:00:00Z``.  The chain head over
entries 0..i is ``sha256(head_{i-1} || signing_bytes_i || signature_i)``
with an empty prefix for the first entry.

Each reading keeps its signing bytes, built once when the reading is made.
Each ledger remembers the chain heads that a clean walk under a meter key
ended on, so a later walk of the same entries (the step-6 spot check after
the session config's walk, every trial of a simulation) hashes each chain
link once and verifies only the signatures it has not seen end a clean
walk: a repeat walk of an unchanged ledger costs one SHA-256 per entry.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from datetime import datetime, timezone

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .commitment import MAX_EMISSIONS_KG, PublicParams, check_range, commit, is_int
from .groups import Scalar

SIGNING_CONTEXT = b"meter-reading/v1"

# A single hourly reading must fit in 32 bits; totals go up to 2**40.
MAX_READING_KG = 1 << 32


class BadSignature(ValueError):
    """Reading signature does not verify under the meter's public key."""


class ChainBroken(ValueError):
    """Stored chain head does not match the recomputed one."""


class NonMonotonicHour(ValueError):
    """Reading hour precedes the ledger's latest hour."""


class DuplicateHour(ValueError):
    """Ledger already holds a reading for this hour."""


class LedgerFormatError(ValueError):
    """Ledger file line is not a well-formed entry."""


def parse_hour(text: str) -> datetime:
    """Parse an hour-aligned UTC timestamp; 'Z' and '+00:00' both accepted."""
    raw = text[:-1] + "+00:00" if text.endswith("Z") else text
    try:
        dt = datetime.fromisoformat(raw)
    except ValueError:
        raise ValueError(f"bad timestamp {text!r}") from None
    return normalize_hour(dt)


def normalize_hour(dt: datetime) -> datetime:
    if dt.tzinfo is None:
        raise ValueError("timestamp must carry a timezone")
    dt = dt.astimezone(timezone.utc)
    if dt.minute or dt.second or dt.microsecond:
        raise ValueError(f"timestamp {dt.isoformat()} is not hour-aligned")
    return dt


def hour_iso(dt: datetime) -> str:
    # The same bytes as strftime("%Y-%m-%dT%H:00:00Z"), about half the cost;
    # glibc's %Y does not zero-pad years below 1000, so neither does this.
    return f"{dt.year}-{dt.month:02d}-{dt.day:02d}T{dt.hour:02d}:00:00Z"


def signing_bytes(firm_id: str, hour: datetime, e: int) -> bytes:
    return b"\n".join(
        [SIGNING_CONTEXT, firm_id.encode(), hour_iso(hour).encode(), str(e).encode()]
    )


@dataclass(frozen=True, slots=True)
class MeterReading:
    """One signed hourly reading as emitted by the meter.

    ``message`` holds the reading's signing bytes, built once here; every
    ``dataclasses.replace`` runs ``__post_init__`` again, so it cannot go
    stale."""

    firm_id: str
    hour: datetime
    e: int
    signature: bytes
    message: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.firm_id, str) or not self.firm_id or "\n" in self.firm_id:
            raise ValueError(f"bad firm id {self.firm_id!r}")
        if not is_int(self.e) or self.e < 0 or self.e >= MAX_READING_KG:
            raise ValueError(f"reading {self.e!r} outside [0, 2**32)")
        # Signed bytes print the UTC hour, so the hour is kept in UTC.
        hour = normalize_hour(self.hour)
        object.__setattr__(self, "hour", hour)
        object.__setattr__(self, "message", signing_bytes(self.firm_id, hour, self.e))

    def signing_bytes(self) -> bytes:
        return self.message


@dataclass(frozen=True)
class MeterKeypair:
    private: Ed25519PrivateKey
    public_bytes: bytes

    @classmethod
    def generate(cls, rng: random.Random) -> "MeterKeypair":
        private = Ed25519PrivateKey.from_private_bytes(rng.randbytes(32))
        return cls(private=private, public_bytes=raw_public_bytes(private.public_key()))

    @classmethod
    def from_seed(cls, seed: bytes) -> "MeterKeypair":
        private = Ed25519PrivateKey.from_private_bytes(seed)
        return cls(private=private, public_bytes=raw_public_bytes(private.public_key()))

    def seed_bytes(self) -> bytes:
        from cryptography.hazmat.primitives import serialization

        return self.private.private_bytes(
            serialization.Encoding.Raw,
            serialization.PrivateFormat.Raw,
            serialization.NoEncryption(),
        )

    def sign_reading(self, firm_id: str, hour: datetime, e: int) -> MeterReading:
        hour = normalize_hour(hour)
        sig = self.private.sign(signing_bytes(firm_id, hour, e))
        return MeterReading(firm_id=firm_id, hour=hour, e=e, signature=sig)


def raw_public_bytes(public: Ed25519PublicKey) -> bytes:
    from cryptography.hazmat.primitives import serialization

    return public.public_bytes(
        serialization.Encoding.Raw, serialization.PublicFormat.Raw
    )


def verify_reading(reading: MeterReading, meter_pk: bytes) -> None:
    key = Ed25519PublicKey.from_public_bytes(meter_pk)
    try:
        key.verify(reading.signature, reading.signing_bytes())
    except InvalidSignature:
        raise BadSignature(
            f"signature check failed for {reading.firm_id} at {hour_iso(reading.hour)}"
        ) from None


@dataclass(frozen=True, slots=True)
class LedgerEntry:
    reading: MeterReading
    chain: bytes  # SHA-256 head over all entries up to and including this one


def chain_head(prev: bytes, message: bytes, signature: bytes) -> bytes:
    """Head after one entry whose signing bytes are ``message``."""
    return hashlib.sha256(prev + message + signature).digest()


@dataclass
class FirmLedger:
    """Append-only reading log.  Entries built via append_reading always
    chain correctly; ledgers loaded from disk are claims to be verified.

    ``verified_heads`` holds the ``(meter_pk, head)`` pairs on which a walk
    under a valid key found no failure; only walk_ledger writes it."""

    firm_id: str
    entries: list[LedgerEntry]
    verified_heads: set = field(default_factory=set, init=False, repr=False, compare=False)

    @classmethod
    def empty(cls, firm_id: str) -> "FirmLedger":
        return cls(firm_id=firm_id, entries=[])

    @property
    def head(self) -> bytes:
        return self.entries[-1].chain if self.entries else b""


def append_reading(ledger: FirmLedger, reading: MeterReading, meter_pk: bytes) -> LedgerEntry:
    if reading.firm_id != ledger.firm_id:
        raise ValueError(
            f"reading for {reading.firm_id!r} appended to ledger of {ledger.firm_id!r}"
        )
    verify_reading(reading, meter_pk)
    if ledger.entries:
        last = ledger.entries[-1].reading.hour
        if reading.hour == last:
            raise DuplicateHour(f"already have a reading for {hour_iso(last)}")
        if reading.hour < last:
            raise NonMonotonicHour(
                f"{hour_iso(reading.hour)} precedes latest {hour_iso(last)}"
            )
    chain = chain_head(ledger.head, reading.signing_bytes(), reading.signature)
    entry = LedgerEntry(reading=reading, chain=chain)
    ledger.entries.append(entry)
    return entry


@dataclass(frozen=True)
class CheckFailure:
    kind: str  # "identity" | "signature" | "order" | "chain" | "range" | "aggregation"
    detail: str


def _reject_signature(signature: bytes, message: bytes) -> None:
    raise InvalidSignature


def _verified_prefix(ledger: FirmLedger, key: bytes | None, links: list[bool]) -> int:
    """Length of the longest prefix whose links all recompute and whose last
    stored head a clean walk under ``key`` ended on (0 if none)."""
    heads = ledger.verified_heads
    if not any(pk == key for pk, _ in heads):
        return 0
    prefix = 0
    for i, (entry, linked) in enumerate(zip(ledger.entries, links)):
        if not linked or len(entry.reading.signature) != 64:
            break
        if (key, entry.chain) in heads:
            prefix = i + 1
    return prefix


def walk_ledger(ledger: FirmLedger, meter_pk: bytes):
    """Replay the whole ledger, yielding a CheckFailure per broken invariant:
    per entry its signature (else, if validly signed, its firm id), its hour
    order and its chain link.  The meter key is built once per ledger; if
    ``meter_pk`` is not a 32-byte Ed25519 key, no signature verifies.  Each
    link is hashed once, from the reading's stored signing bytes, and that
    result serves both the prefix search below and the chain check.

    A walk that yields no failure under a valid key records
    ``(meter_pk, head)`` in ``ledger.verified_heads``.  A later walk skips
    the signature checks of the longest prefix whose links all recompute
    and that ends on such a head, so a repeat walk of an unchanged ledger
    costs one SHA-256 per entry.  The trust argument: every link of that
    prefix recomputes to the stored head, and a clean walk under the same
    key ended on that head, so under SHA-256 collision resistance (the
    assumption the chain check already makes) the prefix's signing bytes and
    signatures are byte-identical to ones that verified under this key.  The
    prefix must hold only 64-byte signatures, the only length Ed25519
    accepts; then each link's input splits one way only into previous head,
    signing bytes and signature, and no signature byte can pass for a digit
    of the reading.  Firm id, order and chain checks still run on every
    entry, so the failures are those of a walk with no recorded heads."""
    try:
        verify, key = Ed25519PublicKey.from_public_bytes(meter_pk).verify, meter_pk
    except (TypeError, ValueError):
        verify, key = _reject_signature, None
    entries = ledger.entries
    prevs = [b"", *(entry.chain for entry in entries)]
    links = [chain_head(prev, entry.reading.message, entry.reading.signature) == entry.chain
             for prev, entry in zip(prevs, entries)]
    verified = _verified_prefix(ledger, key, links)
    clean = True
    prev_hour = None
    for i, entry in enumerate(entries):
        reading = entry.reading
        try:
            if i >= verified:
                verify(reading.signature, reading.message)
            kinds = ["identity"] if reading.firm_id != ledger.firm_id else []
        except InvalidSignature:
            kinds = ["signature"]
        if prev_hour is not None and reading.hour <= prev_hour:
            kinds.append("order")
        if not links[i]:
            kinds.append("chain")
        for kind in kinds:
            clean = False
            yield CheckFailure(kind, f"entry {i} ({hour_iso(reading.hour)})")
        prev_hour = reading.hour
    if clean and entries and key is not None:
        ledger.verified_heads.add((key, entries[-1].chain))


_WALK_ERRORS = {"signature": BadSignature, "identity": LedgerFormatError,
                "order": NonMonotonicHour, "chain": ChainBroken}


def verify_ledger(ledger: FirmLedger, meter_pk: bytes) -> None:
    """Replay the whole ledger; raise on the first broken invariant."""
    for failure in walk_ledger(ledger, meter_pk):
        raise _WALK_ERRORS[failure.kind](f"{failure.kind} check failed at {failure.detail}")


def aggregate(ledger: FirmLedger, meter_pk: bytes) -> int:
    """Verified sum of all readings; the total must respect the range bound."""
    verify_ledger(ledger, meter_pk)
    total = sum(entry.reading.e for entry in ledger.entries)
    check_range(total)
    return total


@dataclass(frozen=True)
class FirmReport:
    """What a firm submits for one cycle: a commitment plus its opening."""

    firm_id: str
    cycle_id: str
    total_kg: int
    r: Scalar
    commitment: object


def build_report(
    pp: PublicParams,
    ledger: FirmLedger,
    meter_pk: bytes,
    cycle_id: str,
    rng: random.Random,
) -> FirmReport:
    total = aggregate(ledger, meter_pk)
    r = pp.group.random_scalar(rng)
    c = commit(pp, pp.group.scalar(total), r)
    return FirmReport(
        firm_id=ledger.firm_id, cycle_id=cycle_id, total_kg=total, r=r, commitment=c
    )


def spot_check(ledger: FirmLedger, meter_pk: bytes, firm_id: str,
               total: int) -> tuple[CheckFailure, ...]:
    """Auditor-side recheck of one firm's ledger against the total it should
    sum to: every failure, in order; empty if none.  Never raises.

    The ledger must be ``firm_id``'s and walk clean (every walk_ledger
    failure; signatures that an earlier clean walk under ``meter_pk``
    already verified are not checked again), and its readings must sum to
    ``total`` within the range bound.  The commitment to that total is the
    caller's to open (step 6 opens it first, see ``audit.picked_check``).
    """
    failures: list[CheckFailure] = []
    if ledger.firm_id != firm_id:
        failures.append(
            CheckFailure("identity", f"ledger belongs to {ledger.firm_id!r}")
        )
    failures.extend(walk_ledger(ledger, meter_pk))
    ledger_total = sum(entry.reading.e for entry in ledger.entries)
    if ledger_total >= MAX_EMISSIONS_KG:
        failures.append(CheckFailure("range", f"ledger total {ledger_total}"))
    if ledger_total != total:
        failures.append(
            CheckFailure("aggregation", f"ledger sums to {ledger_total}, expected {total}")
        )
    return tuple(failures)


# ---------------------------------------------------------------------------
# Persistence: one JSON object per line, append-friendly.
# ---------------------------------------------------------------------------


def entry_to_dict(entry: LedgerEntry) -> dict:
    r = entry.reading
    return {
        "firm_id": r.firm_id,
        "hour": hour_iso(r.hour),
        "e": r.e,
        "sig": r.signature.hex(),
        "chain": entry.chain.hex(),
    }


def entry_from_dict(data: dict) -> LedgerEntry:
    try:
        reading = MeterReading(
            firm_id=data["firm_id"],
            hour=parse_hour(data["hour"]),
            e=data["e"],
            signature=bytes.fromhex(data["sig"]),
        )
        chain = bytes.fromhex(data["chain"])
    except (KeyError, TypeError, ValueError) as exc:
        raise LedgerFormatError(f"bad ledger entry: {exc}") from None
    return LedgerEntry(reading=reading, chain=chain)


def write_ledger(ledger: FirmLedger, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for entry in ledger.entries:
            fh.write(json.dumps(entry_to_dict(entry), sort_keys=True) + "\n")


def read_ledger(path) -> FirmLedger:
    """Load a ledger file without judging it; run verify_ledger/spot_check
    afterwards to decide whether to believe it."""
    entries: list[LedgerEntry] = []
    firm_id = None
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:
                raise LedgerFormatError(f"line {line_no}: {exc}") from None
            entry = entry_from_dict(data)
            if firm_id is None:
                firm_id = entry.reading.firm_id
            entries.append(entry)
    if firm_id is None:
        raise LedgerFormatError("ledger file holds no entries")
    return FirmLedger(firm_id=firm_id, entries=entries)


def read_readings_csv(path) -> list[tuple[datetime, int]]:
    """Parse an ``hour,e`` CSV (header optional) into hour/value pairs."""
    import csv

    rows: list[tuple[datetime, int]] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].strip().lower() in ("hour", "timestamp"):
                continue
            if len(row) < 2:
                raise ValueError(f"bad csv row {row!r}")
            rows.append((parse_hour(row[0].strip()), int(row[1].strip())))
    return rows
