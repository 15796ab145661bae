"""Signed meter readings and tamper-evident ledgers.

A certified meter signs one reading per hour with Ed25519.  The firm keeps
readings in an append-only ledger whose entries are linked by a SHA-256
hash chain, so any after-the-fact edit breaks every later link.  At the end
of a reporting cycle the firm takes its verified total from the ledger
(``aggregate``); committing to that total is the firm's step-2 move, made
by the engine (``audit.AuditSession.step2_reports``) and by ``cli report``.
An auditor handed the ledger rechecks it against the total the commitment
opens to (``spot_check``); opening the commitment is the auditor's own step
(``audit.picked_check``).

Canonical signing bytes for a reading are::

    b"meter-reading/v1\\n" + firm_id + b"\\n" + hour_iso + b"\\n" + str(e)

with ``hour_iso`` like ``2024-06-01T13:00:00Z``.  The chain head over
entries 0..i is ``sha256(head_{i-1} || signing_bytes_i || signature_i)``
with an empty prefix for the first entry.

Each reading keeps its signing bytes, built once when the reading is made.
Each ledger remembers its last clean walk: the meter key, the firm id, the
very entry objects walked and the total of their readings.  A later walk
under the same key and firm id (the step-6 spot check after the session
config's walk, every trial of a simulation) that finds those same objects
as a prefix of the ledger checks, and adds to the recorded total, only the
entries after it.  So a repeat walk of an unchanged ledger compares the
entries once, by identity, and verifies no signature, hashes no link and
sums nothing.
"""

from __future__ import annotations

import hashlib
import json
import operator
import random
from dataclasses import dataclass, field
from datetime import datetime, timezone

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .commitment import MAX_EMISSIONS_KG, check_range, is_int

SIGNING_CONTEXT = b"meter-reading/v1"

# A single hourly reading must fit in 32 bits; totals go up to 2**40.
MAX_READING_KG = 1 << 32


class BadSignature(ValueError):
    """Reading signature does not verify under the meter's public key."""


class ChainBroken(ValueError):
    """Stored chain head does not match the recomputed one."""


class NonMonotonicHour(ValueError):
    """Reading hour does not come after the previous entry's hour."""


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
        if not isinstance(self.signature, bytes):
            raise ValueError(f"signature must be bytes, not {type(self.signature).__name__}")
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


@dataclass(frozen=True, slots=True)
class LedgerEntry:
    reading: MeterReading
    chain: bytes  # SHA-256 head over all entries up to and including this one

    def __post_init__(self):
        # A recorded clean walk relies on entries that cannot change: frozen
        # readings of immutable fields, and an immutable chain head.
        if not isinstance(self.reading, MeterReading):
            raise ValueError(f"ledger entry holds {type(self.reading).__name__}, not a reading")
        if not isinstance(self.chain, bytes):
            raise ValueError(f"chain head must be bytes, not {type(self.chain).__name__}")


def chain_head(prev: bytes, message: bytes, signature: bytes) -> bytes:
    """Head after one entry whose signing bytes are ``message``."""
    return hashlib.sha256(prev + message + signature).digest()


@dataclass
class FirmLedger:
    """Append-only reading log.  Entries built via append_reading always
    chain correctly; ledgers loaded from disk are claims to be verified.

    ``clean_walk`` is ``(meter_pk, firm_id, entries, total)`` of the last
    walk under a valid key that found no failure, with the entries as a
    tuple of the very objects walked and ``total`` the sum of their
    readings; only walk_ledger writes it."""

    firm_id: str
    entries: list[LedgerEntry]
    clean_walk: tuple = field(default=(None, None, (), 0), init=False, repr=False,
                              compare=False)

    @classmethod
    def empty(cls, firm_id: str) -> "FirmLedger":
        return cls(firm_id=firm_id, entries=[])

    @property
    def head(self) -> bytes:
        return self.entries[-1].chain if self.entries else b""


@dataclass(frozen=True)
class CheckFailure:
    kind: str  # "identity" | "signature" | "order" | "chain" | "range" | "aggregation"
    detail: str


_WALK_ERRORS = {"signature": BadSignature, "identity": LedgerFormatError,
                "order": NonMonotonicHour, "chain": ChainBroken}


def _raise(failure: CheckFailure):
    raise _WALK_ERRORS[failure.kind](f"{failure.kind} check failed at {failure.detail}")


def _reject_signature(signature: bytes, message: bytes) -> None:
    raise InvalidSignature


def _meter_key(meter_pk: bytes):
    """The verify function and key bytes of ``meter_pk``; if it is not a
    32-byte Ed25519 key, no signature verifies and the key is None."""
    try:
        return Ed25519PublicKey.from_public_bytes(meter_pk).verify, bytes(meter_pk)
    except (TypeError, ValueError):
        return _reject_signature, None


def _entry_failures(verify, firm_id: str, i: int, prev: LedgerEntry | None,
                    entry: LedgerEntry) -> list[CheckFailure]:
    """Entry ``i``'s failures after ``prev`` (None for the first entry): its
    signature (else, if validly signed, its firm id), its hour order and its
    chain link, hashed from the reading's stored signing bytes."""
    reading = entry.reading
    try:
        verify(reading.signature, reading.message)
        kinds = ["identity"] if reading.firm_id != firm_id else []
    except InvalidSignature:
        kinds = ["signature"]
    if prev is not None and reading.hour <= prev.reading.hour:
        kinds.append("order")
    link = chain_head(b"" if prev is None else prev.chain, reading.message, reading.signature)
    if link != entry.chain:
        kinds.append("chain")
    return [CheckFailure(kind, f"entry {i} ({hour_iso(reading.hour)})") for kind in kinds]


def append_reading(ledger: FirmLedger, reading: MeterReading, meter_pk: bytes) -> LedgerEntry:
    """Chain ``reading`` onto the ledger after the checks a walk makes of
    that entry; raise on the first failure, as verify_ledger would."""
    entries = ledger.entries
    entry = LedgerEntry(reading, chain_head(ledger.head, reading.message, reading.signature))
    for failure in _entry_failures(_meter_key(meter_pk)[0], ledger.firm_id, len(entries),
                                   entries[-1] if entries else None, entry):
        _raise(failure)
    entries.append(entry)
    return entry


def walk_ledger(ledger: FirmLedger, meter_pk: bytes):
    """Replay the whole ledger, yielding a CheckFailure per broken invariant:
    per entry its signature (else, if validly signed, its firm id), its hour
    order and its chain link.  The meter key is built once per ledger; if
    ``meter_pk`` is not a 32-byte Ed25519 key, no signature verifies.  The
    generator returns the total of every entry's reading, failed or not.

    A walk that yields no failure under a valid key records
    ``(meter_pk, firm_id, entries, total)`` in ``ledger.clean_walk``.  A
    later walk under the same key and firm id whose ledger starts with the
    very same entry objects (compared by identity, never by ``==``, which a
    subclass could answer falsely) skips every check of those entries and
    starts from their recorded total.  Entries are frozen and their fields
    immutable, and each check of an entry reads only that entry, its
    predecessor, the firm id and the key, so a skipped entry would pass
    again; every other entry is checked in full, so the failures are those
    of a walk with nothing on record.  A ledger changed within the recorded
    entries is walked in full.  Code that changes an entry through
    ``object.__setattr__`` is outside this model."""
    verify, key = _meter_key(meter_pk)
    firm_id, entries = ledger.firm_id, tuple(ledger.entries)
    walked_key, walked_firm, walked, total = ledger.clean_walk
    skip = len(walked)
    if ((walked_key, walked_firm) != (key, firm_id) or len(entries) < skip
            or not all(map(operator.is_, walked, entries))):
        skip = total = 0
    clean = True
    for i in range(skip, len(entries)):
        entry = entries[i]
        for failure in _entry_failures(verify, firm_id, i, entries[i - 1] if i else None,
                                       entry):
            clean = False
            yield failure
        total += entry.reading.e
    if clean and key is not None:
        ledger.clean_walk = (key, firm_id, entries, total)
    return total


def _run_walk(ledger: FirmLedger, meter_pk: bytes, on_failure) -> int:
    """Pass each failure of walk_ledger to ``on_failure``; return its total."""
    walk = walk_ledger(ledger, meter_pk)
    try:
        while True:
            on_failure(next(walk))
    except StopIteration as done:
        return done.value


def verify_ledger(ledger: FirmLedger, meter_pk: bytes) -> int:
    """Replay the whole ledger; raise on the first broken invariant, else
    return the total of its readings."""
    return _run_walk(ledger, meter_pk, _raise)


def aggregate(ledger: FirmLedger, meter_pk: bytes) -> int:
    """Verified sum of all readings, taken from the walk (a repeat walk of
    an unchanged ledger sums nothing); the total must respect the range
    bound."""
    total = verify_ledger(ledger, meter_pk)
    check_range(total)
    return total


def spot_check(ledger: FirmLedger, meter_pk: bytes, firm_id: str,
               total: int) -> tuple[CheckFailure, ...]:
    """Auditor-side recheck of one firm's ledger against the total it should
    sum to: every failure, in order; empty if none.  Never raises.

    The ledger must be ``firm_id``'s and walk clean (every walk_ledger
    failure; entries that an earlier clean walk under ``meter_pk`` passed
    are not checked again), and its readings, summed by that walk from the
    recorded total on, must sum to ``total`` within the range bound.  The
    commitment to that total is the caller's to open (step 6 opens it
    first, see ``audit.picked_check``).
    """
    failures: list[CheckFailure] = []
    if ledger.firm_id != firm_id:
        failures.append(
            CheckFailure("identity", f"ledger belongs to {ledger.firm_id!r}")
        )
    ledger_total = _run_walk(ledger, meter_pk, failures.append)
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
