"""Signed meter readings, hash-chained ledgers, and spot checks."""

import dataclasses
import hashlib
import random
from datetime import datetime, timedelta, timezone

import pytest
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey
from hypothesis import given, settings
from hypothesis import strategies as st

from emissions_audit.commitment import MAX_EMISSIONS_KG, commit, setup, verify_opening
from emissions_audit.groups import toy_group
from emissions_audit.measurement import (
    BadSignature,
    CheckFailure,
    LedgerFormatError,
    parse_hour,
    hour_iso,
    ChainBroken,
    FirmLedger,
    LedgerEntry,
    MAX_READING_KG,
    MeterKeypair,
    MeterReading,
    NonMonotonicHour,
    aggregate,
    append_reading,
    chain_head,
    entry_from_dict,
    entry_to_dict,
    read_ledger,
    read_readings_csv,
    signing_bytes,
    spot_check,
    verify_ledger,
    walk_ledger,
    write_ledger,
)


@pytest.fixture()
def keypair():
    return MeterKeypair.generate(random.Random(20))


def _hours(n, start_day=1):
    return [
        parse_hour(f"2026-02-{start_day + h // 24:02d}T{h % 24:02d}:00:00Z")
        for h in range(n)
    ]


def _ledger(keypair, values, firm_id="F1"):
    ledger = FirmLedger.empty(firm_id)
    for hour, e in zip(_hours(len(values)), values):
        append_reading(ledger, keypair.sign_reading(firm_id, hour, e), keypair.public_bytes)
    return ledger


# ---------------------------------------------------------------------------
# Readings and signatures.
# ---------------------------------------------------------------------------


def test_sign_and_verify_roundtrip(keypair):
    reading = keypair.sign_reading("F1", parse_hour("2026-02-01T00:00:00Z"), 123)
    ledger = FirmLedger.empty("F1")
    append_reading(ledger, reading, keypair.public_bytes)
    verify_ledger(FirmLedger("F1", list(ledger.entries)), keypair.public_bytes)


def test_signature_binds_every_field(keypair):
    import dataclasses

    reading = keypair.sign_reading("F1", parse_hour("2026-02-01T05:00:00Z"), 123)
    for change in (
        {"firm_id": "F2"},
        {"hour": parse_hour("2026-02-01T06:00:00Z")},
        {"e": 124},
    ):
        forged = dataclasses.replace(reading, **change)
        with pytest.raises(BadSignature, match=r"signature check failed at entry 0 \("):
            append_reading(FirmLedger.empty(forged.firm_id), forged, keypair.public_bytes)


def test_signature_rejects_wrong_key(keypair):
    reading = keypair.sign_reading("F1", parse_hour("2026-02-01T00:00:00Z"), 1)
    stranger = MeterKeypair.generate(random.Random(21))
    ledger = FirmLedger.empty("F1")
    with pytest.raises(BadSignature):
        append_reading(ledger, reading, stranger.public_bytes)
    assert ledger.entries == []
    append_reading(ledger, reading, keypair.public_bytes)
    with pytest.raises(BadSignature):
        verify_ledger(ledger, stranger.public_bytes)


def test_keypair_deterministic_from_seed():
    a = MeterKeypair.generate(random.Random(22))
    b = MeterKeypair.from_seed(a.seed_bytes())
    assert a.public_bytes == b.public_bytes
    hour = parse_hour("2026-02-01T00:00:00Z")
    ra = a.sign_reading("F1", hour, 9)
    rb = b.sign_reading("F1", hour, 9)
    assert ra.signature == rb.signature  # pure-deterministic signatures


def test_reading_validation():
    hour = parse_hour("2026-02-01T00:00:00Z")
    with pytest.raises(ValueError):
        parse_hour("2026-02-01T00:30:00Z")  # not hour-aligned
    with pytest.raises(ValueError):
        parse_hour("2026-02-01T00:00:00")  # naive timestamp
    with pytest.raises(ValueError):
        MeterReading("F1", hour, MAX_READING_KG, b"")
    with pytest.raises(ValueError):
        MeterReading("F1", hour, -1, b"")
    with pytest.raises(ValueError):
        MeterReading("F\n1", hour, 1, b"")  # breaks framing


def test_reading_keeps_its_hour_in_utc():
    """A reading built with a local hour signs that instant's UTC hour."""
    local = datetime(2026, 1, 1, 13, tzinfo=timezone(timedelta(hours=5)))
    reading = MeterReading("F1", local, 4, b"")
    assert reading.hour == local and reading.hour.tzinfo == timezone.utc
    assert reading.signing_bytes() == signing_bytes("F1", parse_hour("2026-01-01T08:00:00Z"), 4)


def test_reading_refuses_a_bool_value():
    with pytest.raises(ValueError):
        MeterReading("F1", parse_hour("2026-02-01T00:00:00Z"), True, b"")


def test_signing_bytes_are_injective_across_fields():
    # Newline framing: no two distinct (firm, hour, value) triples collide.
    seen = {}
    for firm in ("F1", "F12"):
        for hour_s in ("2026-02-01T00:00:00Z", "2026-02-01T01:00:00Z"):
            for e in (1, 11, 111):
                hour = parse_hour(hour_s)
                blob = signing_bytes(firm, hour, e)
                assert blob not in seen, (firm, hour, e, seen[blob])
                seen[blob] = (firm, hour, e)


# ---------------------------------------------------------------------------
# Hash chain discipline.
# ---------------------------------------------------------------------------


def test_chain_heads_match_manual_recomputation(keypair):
    ledger = _ledger(keypair, [5, 6, 7])
    prev = b""
    for entry in ledger.entries:
        r = entry.reading
        expected = hashlib.sha256(
            prev + signing_bytes(r.firm_id, r.hour, r.e) + r.signature
        ).digest()
        assert entry.chain == expected
        prev = expected
    assert ledger.head == prev


def test_append_rejects_duplicate_and_backward_hours(keypair):
    ledger = _ledger(keypair, [5, 6])
    dup = keypair.sign_reading("F1", _hours(2)[1], 9)
    with pytest.raises(NonMonotonicHour):
        append_reading(ledger, dup, keypair.public_bytes)
    past = keypair.sign_reading("F1", _hours(1)[0], 9)
    with pytest.raises(NonMonotonicHour):
        append_reading(ledger, past, keypair.public_bytes)


def test_append_rejects_foreign_or_forged_reading(keypair):
    ledger = _ledger(keypair, [5])
    other_key = MeterKeypair.generate(random.Random(23))
    forged = other_key.sign_reading("F1", _hours(2)[1], 9)
    with pytest.raises(BadSignature):
        append_reading(ledger, forged, keypair.public_bytes)
    wrong_firm = keypair.sign_reading("F2", _hours(2)[1], 9)
    with pytest.raises(ValueError):
        append_reading(ledger, wrong_firm, keypair.public_bytes)


@pytest.mark.parametrize("case", ["forged", "foreign-firm", "duplicate", "backward",
                                  "forged-backward"])
def test_append_raises_what_a_walk_of_the_appended_entry_raises(keypair, case):
    """append_reading runs the walk's entry check: the same exception and text
    as verify_ledger on the ledger with that entry chained on, and no entry
    is added."""
    stranger = MeterKeypair.generate(random.Random(23))
    signer, firm_id, hour = {
        "forged": (stranger, "F1", 2), "foreign-firm": (keypair, "F2", 2),
        "duplicate": (keypair, "F1", 1), "backward": (keypair, "F1", 0),
        "forged-backward": (stranger, "F1", 0),
    }[case]
    ledger = _ledger(keypair, [5, 6])
    reading = signer.sign_reading(firm_id, _hours(3)[hour], 9)
    with pytest.raises(ValueError) as appended:
        append_reading(ledger, reading, keypair.public_bytes)
    assert len(ledger.entries) == 2
    ledger.entries.append(LedgerEntry(reading, chain_head(
        ledger.head, reading.signing_bytes(), reading.signature)))
    with pytest.raises(ValueError) as walked:
        verify_ledger(ledger, keypair.public_bytes)
    assert (type(appended.value), str(appended.value)) == (type(walked.value), str(walked.value))
    assert str(walked.value).endswith(f"check failed at entry 2 ({hour_iso(_hours(3)[hour])})")


def test_verify_ledger_catches_spliced_entry(keypair):
    ledger = _ledger(keypair, [5, 6, 7])
    # Splice: drop the middle entry but keep the rest byte-identical.
    spliced = FirmLedger("F1", [ledger.entries[0], ledger.entries[2]])
    with pytest.raises(ChainBroken):
        verify_ledger(spliced, keypair.public_bytes)


def test_verify_ledger_catches_reordering(keypair):
    ledger = _ledger(keypair, [5, 6])
    swapped = FirmLedger("F1", [ledger.entries[1], ledger.entries[0]])
    with pytest.raises((ChainBroken, NonMonotonicHour)):
        verify_ledger(swapped, keypair.public_bytes)


def test_aggregate_is_order_insensitive_in_value(keypair):
    values = [3, 1, 4, 1, 5, 9, 2, 6]
    assert aggregate(_ledger(keypair, values), keypair.public_bytes) == sum(values)
    rng = random.Random(24)
    shuffled = values[:]
    rng.shuffle(shuffled)
    # Different ledger (different hours per value), same total.
    assert aggregate(_ledger(keypair, shuffled), keypair.public_bytes) == sum(values)


# ---------------------------------------------------------------------------
# Reports and spot checks.
# ---------------------------------------------------------------------------


def test_report_commits_to_the_aggregated_ledger_total(keypair):
    """The firm's report: the ledger's verified total, then a commitment to
    it under a fresh blinding, which the spot check accepts."""
    pp = setup(toy_group(), "hash_derived")
    ledger = _ledger(keypair, [10, 20, 30])
    total = aggregate(ledger, keypair.public_bytes)
    r = pp.group.random_scalar(random.Random(25))
    assert total == 60
    assert verify_opening(pp, commit(pp, pp.group.scalar(total), r), pp.group.scalar(60), r)
    assert spot_check(ledger, keypair.public_bytes, "F1", total) == ()


def test_spot_check_names_the_failure_kind(keypair):
    ledger = _ledger(keypair, [10, 20, 30])

    # The expected total disagrees with the ledger.
    assert spot_check(ledger, keypair.public_bytes, "F1", 61) == (
        CheckFailure("aggregation", "ledger sums to 60, expected 61"),)
    # The ledger is another firm's.
    assert [f.kind for f in spot_check(ledger, keypair.public_bytes, "F2", 60)] == ["identity"]

    # Tampered reading value breaks the signature.
    bad_reading = dataclasses.replace(ledger.entries[1].reading, e=999)
    tampered = FirmLedger("F1", [
        ledger.entries[0],
        LedgerEntry(bad_reading, ledger.entries[1].chain),
        ledger.entries[2],
    ])
    kinds = {f.kind for f in spot_check(tampered, keypair.public_bytes, "F1", 60)}
    assert "signature" in kinds

    # Tampered chain head breaks the chain.
    bad_chain = FirmLedger("F1", [
        ledger.entries[0],
        LedgerEntry(ledger.entries[1].reading, b"\x00" * 32),
        ledger.entries[2],
    ])
    kinds = {f.kind for f in spot_check(bad_chain, keypair.public_bytes, "F1", 60)}
    assert "chain" in kinds


def test_spot_check_never_raises_on_garbage(keypair):
    hostile = FirmLedger("F9", [])
    assert [f.kind for f in spot_check(hostile, keypair.public_bytes, "F1", 3)] == [
        "identity", "aggregation"]
    assert [f.kind for f in spot_check(hostile, b"short", "F9", MAX_EMISSIONS_KG)] == [
        "aggregation"]


@pytest.mark.parametrize("meter_pk", [b"short", b"", None, "00" * 32, bytearray(32)],
                         ids=["short", "empty", "none", "str", "bytearray"])
def test_ledger_walk_rejects_a_meter_key_that_is_not_ed25519(keypair, meter_pk):
    # A key that cannot be an Ed25519 key verifies no signature: every entry
    # fails its signature check instead of the walk raising.
    ledger = _ledger(keypair, [1, 2])
    failures = spot_check(ledger, meter_pk, "F1", 3)
    assert [(f.kind, f.detail) for f in failures] == [
        ("signature", "entry 0 (2026-02-01T00:00:00Z)"),
        ("signature", "entry 1 (2026-02-01T01:00:00Z)")]
    with pytest.raises(BadSignature, match="signature check failed at entry 0"):
        verify_ledger(ledger, meter_pk)
    with pytest.raises(BadSignature):
        aggregate(ledger, meter_pk)


def test_spot_check_flags_foreign_entry_signed_by_the_meter(keypair):
    # Validly signed and chained, but for another firm: only the firm id is wrong.
    ledger = _ledger(keypair, [1, 2])
    foreign = keypair.sign_reading("F2", _hours(3)[2], 3)
    ledger.entries.append(LedgerEntry(foreign, chain_head(
        ledger.head, foreign.signing_bytes(), foreign.signature)))
    failures = spot_check(ledger, keypair.public_bytes, "F1", 6)
    assert [(f.kind, f.detail) for f in failures] == [
        ("identity", "entry 2 (2026-02-01T02:00:00Z)")]
    with pytest.raises(LedgerFormatError):
        verify_ledger(ledger, keypair.public_bytes)


def _old_spot_check(ledger, meter_pk, firm_id, claimed):
    """The spot check as written before walk_ledger: three separate passes
    per reading (signature with a fresh key, order, chain), kept here as
    the reference for the shared walker."""
    failures = []
    if ledger.firm_id != firm_id:
        failures.append(CheckFailure("identity", f"ledger belongs to {ledger.firm_id!r}"))
    prev, prev_hour, total = b"", None, 0
    for i, entry in enumerate(ledger.entries):
        reading = entry.reading
        label = f"entry {i} ({hour_iso(reading.hour)})"
        try:
            Ed25519PublicKey.from_public_bytes(meter_pk).verify(
                reading.signature, reading.signing_bytes())
        except InvalidSignature:
            failures.append(CheckFailure("signature", label))
        if prev_hour is not None and reading.hour <= prev_hour:
            failures.append(CheckFailure("order", label))
        expected = hashlib.sha256(prev + reading.signing_bytes() + reading.signature).digest()
        if expected != entry.chain:
            failures.append(CheckFailure("chain", label))
        total += reading.e
        prev, prev_hour = entry.chain, reading.hour
    if total >= MAX_EMISSIONS_KG:
        failures.append(CheckFailure("range", f"ledger total {total}"))
    if total != claimed:
        failures.append(CheckFailure("aggregation", f"ledger sums to {total}, expected {claimed}"))
    return tuple(failures)


_A9_KP = MeterKeypair.generate(random.Random(901))
_A9_LEDGER = FirmLedger.empty("F2")
for _h in range(24):
    append_reading(_A9_LEDGER, _A9_KP.sign_reading(
        "F2", parse_hour(f"2026-05-01T{_h:02d}:00:00Z"), 100 + _h), _A9_KP.public_bytes)
_A9_TOTAL = sum(100 + h for h in range(24))

# A single-field mutation of one entry, as in the A9 acceptance fuzz; a
# drawn list mutates distinct entries.
_A9_MUTATION = st.tuples(
    st.integers(0, 23),
    st.sampled_from(["e", "hour", "firm_id", "signature", "chain"]),
    st.integers(1, 49),  # value offset
    st.integers(1, 28),  # day of the replacement hour
    st.integers(0, 255),  # byte position (mod length) and bit to flip
)


def _mutate(entries, mutation):
    import dataclasses

    idx, field, delta, day, pos = mutation
    entry = entries[idx]
    reading, chain = entry.reading, entry.chain
    if field == "e":
        reading = dataclasses.replace(reading, e=reading.e + delta)
    elif field == "hour":
        reading = dataclasses.replace(reading, hour=parse_hour(f"2026-06-{day:02d}T00:00:00Z"))
    elif field == "firm_id":
        reading = dataclasses.replace(reading, firm_id="F2-shadow")
    elif field == "signature":
        sig = bytearray(reading.signature)
        sig[pos % len(sig)] ^= 1 << (pos % 8)
        reading = dataclasses.replace(reading, signature=bytes(sig))
    else:
        raw = bytearray(chain)
        raw[pos % len(raw)] ^= 1 << (pos % 8)
        chain = bytes(raw)
    entries[idx] = LedgerEntry(reading, chain)


@settings(max_examples=100, deadline=None)
@given(st.lists(_A9_MUTATION, max_size=3, unique_by=lambda m: m[0]))
def test_walker_matches_old_spot_check_on_a9_mutations(mutations):
    entries = list(_A9_LEDGER.entries)
    for mutation in mutations:
        _mutate(entries, mutation)
    tampered = FirmLedger("F2", entries)
    new = spot_check(tampered, _A9_KP.public_bytes, "F2", _A9_TOTAL)
    assert new == _old_spot_check(tampered, _A9_KP.public_bytes, "F2", _A9_TOTAL)
    walked = list(walk_ledger(tampered, _A9_KP.public_bytes))
    assert bool(walked) == bool(mutations)
    if walked:
        with pytest.raises(ValueError):
            aggregate(tampered, _A9_KP.public_bytes)
    else:
        assert aggregate(tampered, _A9_KP.public_bytes) == _A9_TOTAL


# ---------------------------------------------------------------------------
# The last clean walk: repeat walks skip the very entries it passed.
# ---------------------------------------------------------------------------

_B_KP = MeterKeypair.generate(random.Random(903))


def _walked_a9_ledger():
    """A copy of the A9 ledger whose clean walk under the meter key, with
    its total, is on record."""
    ledger = FirmLedger("F2", list(_A9_LEDGER.entries))
    assert spot_check(ledger, _A9_KP.public_bytes, "F2", _A9_TOTAL) == ()
    assert ledger.clean_walk == (_A9_KP.public_bytes, "F2", tuple(ledger.entries), _A9_TOTAL)
    return ledger


def _rechain(entries, start):
    """Recompute the stored heads from entry ``start`` on, as a forger would."""
    prev = entries[start - 1].chain if start else b""
    for i in range(start, len(entries)):
        reading = entries[i].reading
        prev = chain_head(prev, reading.signing_bytes(), reading.signature)
        entries[i] = LedgerEntry(reading, prev)


def _append_forged(entries, e, sign_key, firm_id="F2"):
    """Append a chained reading for the next hour, signed with ``sign_key``."""
    reading = sign_key.sign_reading(firm_id, parse_hour("2026-05-02T00:00:00Z"), e)
    entries.append(LedgerEntry(reading, chain_head(
        entries[-1].chain if entries else b"", reading.signing_bytes(), reading.signature)))


def _outcome(check, ledger, meter_pk):
    """What ``check(ledger, meter_pk)`` returns, or the type and message of
    what it raises."""
    try:
        return check(ledger, meter_pk)
    except ValueError as exc:
        return type(exc), str(exc)


_MEMO_TAMPER = st.one_of(
    st.tuples(st.just("field"), _A9_MUTATION),
    st.tuples(st.just("rechain"), _A9_MUTATION.filter(lambda m: m[1] != "chain")),
    st.tuples(st.just("append"), st.sampled_from(["meter", "stranger", "foreign-firm"])),
    st.tuples(st.just("truncate"), st.integers(0, 23)),
    st.tuples(st.just("copy"), st.integers(0, 23)),
    st.tuples(st.just("swap"), st.tuples(st.integers(0, 23), st.integers(0, 23))),
    st.tuples(st.just("meter_pk"), st.just(None)),
    st.tuples(st.just("firm_id"), st.just(None)),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_MEMO_TAMPER, min_size=1, max_size=3))
def test_walk_with_recorded_heads_matches_a_fresh_walk(tampers):
    ledger = _walked_a9_ledger()
    meter_pk = _A9_KP.public_bytes
    for kind, arg in tampers:
        entries = ledger.entries
        if kind in ("field", "rechain") and arg[0] < len(entries):
            _mutate(entries, arg)
            if kind == "rechain":
                _rechain(entries, arg[0])
        elif kind == "append":
            signer = _B_KP if arg == "stranger" else _A9_KP
            _append_forged(entries, 7, signer, "F9" if arg == "foreign-firm" else "F2")
        elif kind == "truncate":
            del entries[arg:]
        elif kind == "copy" and arg < len(entries):
            # An equal entry, but not the object the clean walk passed.
            entries[arg] = LedgerEntry(dataclasses.replace(entries[arg].reading),
                                       entries[arg].chain)
        elif kind == "swap" and max(arg) < len(entries):
            i, j = arg
            entries[i], entries[j] = entries[j], entries[i]
        elif kind == "meter_pk":
            meter_pk = _B_KP.public_bytes
        elif kind == "firm_id":
            ledger.firm_id = "F2-renamed"
        # After every tamper, and twice: a clean walk on record must not
        # hide a failure from the next walk, nor change the total it sums.
        fresh = FirmLedger(ledger.firm_id, list(ledger.entries))
        want = spot_check(fresh, meter_pk, "F2", _A9_TOTAL)
        for _ in range(2):
            assert spot_check(ledger, meter_pk, "F2", _A9_TOTAL) == want
            for check in (verify_ledger, aggregate):
                assert _outcome(check, ledger, meter_pk) == _outcome(
                    check, FirmLedger(ledger.firm_id, list(ledger.entries)), meter_pk)


def test_heads_recorded_under_one_key_skip_nothing_under_another():
    ledger = _walked_a9_ledger()
    stranger = _B_KP.public_bytes
    failures = spot_check(ledger, stranger, "F2", _A9_TOTAL)
    assert [f.kind for f in failures] == ["signature"] * 24
    assert failures == spot_check(FirmLedger("F2", list(ledger.entries)), stranger, "F2",
                                  _A9_TOTAL)
    # A ledger the stranger signed, walked clean under its key, gains nothing
    # under the meter's key either.
    theirs = FirmLedger("F2", [])
    _append_forged(theirs.entries, 5, _B_KP)
    assert list(walk_ledger(theirs, stranger)) == []
    assert theirs.clean_walk == (stranger, "F2", tuple(theirs.entries), 5)
    assert [f.kind for f in walk_ledger(theirs, _A9_KP.public_bytes)] == ["signature"]
    # The meter's entries under a record the stranger's key made: the record
    # names the stranger's key and other entries, so nothing is skipped.
    meter_entries, ledger.entries = ledger.entries, theirs.entries
    assert list(walk_ledger(ledger, stranger)) == []
    ledger.entries = meter_entries
    assert ledger.clean_walk == (stranger, "F2", tuple(theirs.entries), 5)
    assert spot_check(ledger, stranger, "F2", _A9_TOTAL) == failures


def test_a_clean_walk_on_record_skips_nothing_after_a_rename():
    ledger = _walked_a9_ledger()
    ledger.firm_id = "F2-renamed"
    assert [f.kind for f in walk_ledger(ledger, _A9_KP.public_bytes)] == ["identity"] * 24


def test_a_signature_byte_cannot_pass_for_a_digit_of_the_reading():
    # sha256(prev || "...\n<e>" || sig) is also the link of the reading
    # 10*e + d with signature sig[1:] when sig starts with the digit d.
    # Only 64-byte signatures may be skipped, so that forgery is caught.
    kp = MeterKeypair.generate(random.Random(904))
    ledger = FirmLedger.empty("F1")
    hour = parse_hour("2026-05-01T00:00:00Z")
    e = next(e for e in range(1, 10_000)
             if chr(kp.sign_reading("F1", hour, e).signature[0]).isdigit())
    append_reading(ledger, kp.sign_reading("F1", hour, e), kp.public_bytes)
    assert aggregate(ledger, kp.public_bytes) == e
    entry = ledger.entries[0]
    sig = entry.reading.signature
    shifted = MeterReading("F1", hour, 10 * e + int(chr(sig[0])), sig[1:])
    assert chain_head(b"", shifted.signing_bytes(), shifted.signature) == entry.chain
    ledger.entries[0] = LedgerEntry(shifted, entry.chain)
    assert [f.kind for f in walk_ledger(ledger, kp.public_bytes)] == ["signature"]
    with pytest.raises(BadSignature):
        aggregate(ledger, kp.public_bytes)


def test_repeat_walks_verify_only_signatures_not_yet_on_record(keypair, verified_messages):
    ledger = _ledger(keypair, [3, 1, 4, 1, 5])
    verified_messages.clear()
    assert aggregate(ledger, keypair.public_bytes) == 14
    assert len(verified_messages) == 5
    verified_messages.clear()
    assert aggregate(ledger, keypair.public_bytes) == 14
    assert verified_messages == []
    append_reading(ledger, keypair.sign_reading("F1", _hours(6)[5], 9), keypair.public_bytes)
    verified_messages.clear()
    assert aggregate(ledger, keypair.public_bytes) == 23
    assert verified_messages == [ledger.entries[5].reading.signing_bytes()]
    # A failed walk records nothing, so the bad entry is checked every time.
    ledger.entries.append(LedgerEntry(ledger.entries[5].reading, b"\x00" * 32))
    for _ in range(2):
        verified_messages.clear()
        assert list(walk_ledger(ledger, keypair.public_bytes))
        assert len(verified_messages) == 1
    assert ledger.clean_walk == (keypair.public_bytes, "F1", tuple(ledger.entries[:6]), 23)


def test_recorded_heads_stay_out_of_equality_repr_and_loading(tmp_path, keypair):
    nothing = (None, None, (), 0)
    ledger = _ledger(keypair, [1, 2])
    assert ledger.clean_walk == nothing  # append_reading records nothing
    assert verify_ledger(ledger, keypair.public_bytes) == 3
    assert ledger.clean_walk == (keypair.public_bytes, "F1", tuple(ledger.entries), 3)
    fresh = FirmLedger("F1", list(ledger.entries))
    assert fresh == ledger and repr(fresh) == repr(ledger)
    assert "clean_walk" not in repr(ledger)
    path = tmp_path / "F1.jsonl"
    write_ledger(ledger, path)
    assert read_ledger(path).clean_walk == nothing
    with pytest.raises(TypeError):
        FirmLedger("F1", [], clean_walk=(keypair.public_bytes, "F1", (), 0))


def test_a_repeat_walk_hashes_each_link_once_and_builds_no_signing_bytes(
        keypair, monkeypatch, verified_messages):
    """A repeat walk of an unchanged ledger hashes no link, verifies no
    signature and builds no signing bytes; after one append it checks only
    the new entry."""
    import emissions_audit.measurement as measurement

    ledger = _ledger(keypair, [3, 1, 4, 1, 5, 9, 2])
    assert list(walk_ledger(ledger, keypair.public_bytes)) == []
    built, hashed = [], []
    real_signing_bytes, real_chain_head = measurement.signing_bytes, measurement.chain_head
    monkeypatch.setattr(measurement, "signing_bytes",
                        lambda *a: built.append(a) or real_signing_bytes(*a))
    monkeypatch.setattr(measurement, "chain_head",
                        lambda *a: hashed.append(a) or real_chain_head(*a))
    for _ in range(2):
        hashed.clear()
        verified_messages.clear()
        assert aggregate(ledger, keypair.public_bytes) == 25
        assert hashed == [] and verified_messages == []
    assert built == []
    append_reading(ledger, keypair.sign_reading("F1", _hours(8)[7], 6), keypair.public_bytes)
    hashed.clear()
    verified_messages.clear()
    assert aggregate(ledger, keypair.public_bytes) == 31
    assert len(hashed) == 1 and verified_messages == [ledger.entries[7].reading.message]
    hashed.clear()
    verified_messages.clear()
    assert aggregate(ledger, keypair.public_bytes) == 31
    assert hashed == [] and verified_messages == []


def test_repeat_checks_of_a_walked_ledger_check_and_sum_only_appended_entries(
        keypair, monkeypatch):
    """With a clean walk on record, spot_check and aggregate of the unchanged
    ledger check no entry; after three appends, each checks just those three
    and adds them to the recorded total."""
    import emissions_audit.measurement as measurement

    pk = keypair.public_bytes
    checked, real_entry_failures = [], measurement._entry_failures
    monkeypatch.setattr(measurement, "_entry_failures",
                        lambda *a: checked.append(a[2]) or real_entry_failures(*a))
    hours = _hours(8)
    for check in ("spot_check", "aggregate"):
        ledger = _ledger(keypair, [3, 1, 4, 1, 5])
        assert aggregate(ledger, pk) == 14
        checked.clear()
        for _ in range(2):
            assert spot_check(ledger, pk, "F1", 14) == () and aggregate(ledger, pk) == 14
        assert checked == []
        for hour, e in zip(hours[5:], (9, 2, 6)):
            append_reading(ledger, keypair.sign_reading("F1", hour, e), pk)
        checked.clear()
        if check == "spot_check":
            assert spot_check(ledger, pk, "F1", 14 + 9 + 2 + 6) == ()
        else:
            assert aggregate(ledger, pk) == 14 + 9 + 2 + 6
        assert checked == [5, 6, 7]


class _EqualToAnyEntry(LedgerEntry):
    """An entry that claims to equal every other."""

    def __eq__(self, other):
        return True

    __hash__ = LedgerEntry.__hash__


def test_an_entry_equal_to_a_walked_one_is_still_checked():
    """A recorded walk is matched by identity: an entry whose ``__eq__``
    says it is the walked one, carrying a changed reading, is checked in
    full and its failures are reported."""
    ledger = _walked_a9_ledger()
    old = ledger.entries[5]
    ledger.entries[5] = _EqualToAnyEntry(
        dataclasses.replace(old.reading, e=old.reading.e + 1), old.chain)
    assert tuple(ledger.entries) == ledger.clean_walk[2]  # == would pass it
    failures = spot_check(ledger, _A9_KP.public_bytes, "F2", _A9_TOTAL)
    assert [f.kind for f in failures] == ["signature", "chain", "aggregation"]
    assert failures == spot_check(FirmLedger("F2", list(ledger.entries)),
                                  _A9_KP.public_bytes, "F2", _A9_TOTAL)
    with pytest.raises(BadSignature):
        aggregate(ledger, _A9_KP.public_bytes)


# ---------------------------------------------------------------------------
# Each reading keeps its signing bytes.
# ---------------------------------------------------------------------------

_FIRM_IDS = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"),
                    min_size=1, max_size=12)
_UTC_HOURS = st.datetimes(min_value=datetime(2, 1, 1), max_value=datetime(9998, 12, 31)).map(
    lambda dt: dt.replace(minute=0, second=0, microsecond=0, tzinfo=timezone.utc))
_ZONES = st.integers(-(24 * 60 - 1), 24 * 60 - 1).map(
    lambda minutes: timezone(timedelta(minutes=minutes)))
_VALUES = st.integers(0, MAX_READING_KG - 1)
_SIGNATURES = st.binary(max_size=80)


def _stored_bytes_hold(reading):
    assert reading.hour.tzinfo is timezone.utc
    assert reading.signing_bytes() == reading.message == signing_bytes(
        reading.firm_id, reading.hour, reading.e)


@settings(max_examples=100, deadline=None)
@given(_FIRM_IDS, _UTC_HOURS, _ZONES, _VALUES)
def test_signed_and_loaded_readings_store_their_signing_bytes(firm_id, hour, zone, e):
    local = hour.astimezone(zone)
    reading = _B_KP.sign_reading(firm_id, local, e)
    _stored_bytes_hold(reading)
    Ed25519PublicKey.from_public_bytes(_B_KP.public_bytes).verify(reading.signature,
                                                                  reading.message)
    entry = LedgerEntry(reading, chain_head(b"", reading.message, reading.signature))
    loaded = entry_from_dict({**entry_to_dict(entry), "hour": local.isoformat()})
    _stored_bytes_hold(loaded.reading)
    assert loaded == entry


@settings(max_examples=200, deadline=None)
@given(_FIRM_IDS, _UTC_HOURS, _ZONES, _VALUES, _SIGNATURES, st.data())
def test_built_and_replaced_readings_store_their_signing_bytes(
        firm_id, hour, zone, e, signature, data):
    reading = MeterReading(firm_id, hour.astimezone(zone), e, signature)
    assert reading.hour == hour
    _stored_bytes_hold(reading)
    name, values = data.draw(st.sampled_from([
        ("firm_id", _FIRM_IDS), ("e", _VALUES), ("signature", _SIGNATURES),
        ("hour", st.tuples(_UTC_HOURS, _ZONES).map(lambda hz: hz[0].astimezone(hz[1]))),
    ]))
    replaced = dataclasses.replace(reading, **{name: data.draw(values)})
    _stored_bytes_hold(replaced)
    _stored_bytes_hold(reading)


@pytest.mark.parametrize("field", ["signature", "chain", "reading"])
def test_entries_refuse_mutable_or_foreign_parts(keypair, field):
    """A recorded clean walk trusts its entries not to change, so a reading
    refuses a bytearray signature and an entry a bytearray chain head or a
    reading that is not a MeterReading."""
    entry = _ledger(keypair, [1]).entries[0]
    reading = entry.reading
    with pytest.raises(ValueError, match="not"):
        if field == "signature":
            MeterReading("F1", reading.hour, 1, bytearray(reading.signature))
        elif field == "chain":
            LedgerEntry(reading, bytearray(entry.chain))
        else:
            LedgerEntry(entry, entry.chain)
    with pytest.raises(ValueError):
        dataclasses.replace(reading, signature=bytearray(reading.signature))


def test_stored_bytes_stay_out_of_equality_hash_and_repr(keypair):
    reading = keypair.sign_reading("F1", _hours(1)[0], 5)
    twin = dataclasses.replace(reading)
    object.__setattr__(twin, "message", b"other bytes")
    assert twin == reading and hash(twin) == hash(reading) and repr(twin) == repr(reading)
    assert "message" not in repr(reading)
    with pytest.raises(TypeError):
        MeterReading("F1", _hours(1)[0], 5, reading.signature, message=b"")
    for name in ("e", "hour", "message"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(reading, name, getattr(reading, name))


def test_ledger_file_bytes_are_unchanged_by_stored_signing_bytes(tmp_path):
    # Pinned digest of the ledger-file/v1 bytes of one fixed ledger, taken
    # when readings rebuilt their signing bytes on every call.
    kp = MeterKeypair.generate(random.Random(905))
    ledger = FirmLedger.empty("F-\u00e9")
    start = datetime(2026, 7, 1, 5, 30, tzinfo=timezone(timedelta(hours=5, minutes=30)))
    for h, e in enumerate([0, 7, MAX_READING_KG - 1, 12, 5000]):
        append_reading(ledger, kp.sign_reading("F-\u00e9", start + timedelta(hours=h), e),
                       kp.public_bytes)
    path = tmp_path / "F.jsonl"
    write_ledger(ledger, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "54057225d88d11e85f6823fbd6bbd22dc6df5d2357a8235c62eadc32b6d502fb")


@settings(max_examples=300, deadline=None)
@given(st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59)))
def test_hour_iso_matches_strftime_over_every_year(dt):
    assert hour_iso(dt) == dt.strftime("%Y-%m-%dT%H:00:00Z")


# ---------------------------------------------------------------------------
# File formats.
# ---------------------------------------------------------------------------


def test_entry_dict_roundtrip(keypair):
    ledger = _ledger(keypair, [5, 6])
    for entry in ledger.entries:
        assert entry_from_dict(entry_to_dict(entry)) == entry


def test_ledger_file_roundtrip(tmp_path, keypair):
    ledger = _ledger(keypair, [5, 6, 7])
    path = tmp_path / "ledger.jsonl"
    write_ledger(ledger, str(path))
    restored = read_ledger(str(path))
    assert restored == ledger
    verify_ledger(restored, keypair.public_bytes)


def test_readings_csv_parsing(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("hour,e\n2026-02-01T00:00:00Z,5\n2026-02-01T01:00:00Z,6\n")
    rows = list(read_readings_csv(str(path)))
    assert [(hour_iso(h), e) for h, e in rows] == [
        ("2026-02-01T00:00:00Z", 5),
        ("2026-02-01T01:00:00Z", 6),
    ]


def test_readings_csv_rejects_bad_rows(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("hour,e\n2026-02-01T00:00:00Z,notanumber\n")
    with pytest.raises(ValueError):
        list(read_readings_csv(str(path)))
