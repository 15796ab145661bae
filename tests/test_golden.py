"""Pinned secp256k1 transcripts: digests and verdicts under fixed seeds.

The curve arithmetic may change how a commitment is computed, never which
point comes out, so every transcript byte under a seed must stay the same.
The abstract sessions have n >= BATCH_MIN_ITEMS, so their examine step
takes the batch path.
"""

import random

import pytest

from emissions_audit.audit import FirmSpec, SessionConfig
from emissions_audit.commitment import BATCH_MIN_ITEMS, setup
from emissions_audit.groups import production_group
from emissions_audit.harness import (
    AdversarySpec,
    HONEST_ADVERSARY,
    InconsistentReveal,
    TamperReport,
    run_session,
)
from emissions_audit.measurement import FirmLedger, MeterKeypair, append_reading, parse_hour

N_ABSTRACT = 150


@pytest.fixture(scope="module")
def pp():
    return setup(production_group(), "hash_derived")


def _abstract_config(pp):
    rng = random.Random(2024)
    firms = tuple(
        FirmSpec(f"F{i + 1}", true_m=rng.randrange(1 << 40)) for i in range(N_ABSTRACT)
    )
    return SessionConfig(pp=pp, firms=firms, k=5, pick_mode="env")


def _integrated_config(pp):
    firms = []
    for i in range(2):
        fid = f"F{i + 1}"
        kp = MeterKeypair.generate(random.Random(500 + i))
        ledger = FirmLedger.empty(fid)
        for h in range(24):
            hour = parse_hour(f"2026-03-01T{h:02d}:00:00Z")
            append_reading(ledger, kp.sign_reading(fid, hour, 100 * (i + 1) + h), kp.public_bytes)
        firms.append(FirmSpec(fid, ledger=ledger, meter_pk=kp.public_bytes))
    return SessionConfig(pp=pp, firms=tuple(firms), k=1, data_mode="integrated")


_TAMPER = AdversarySpec(corrupted={"F17"}, behaviors={"F17": TamperReport(delta=3)})
_BAD_REVEAL = AdversarySpec(corrupted={"F17"}, behaviors={"F17": InconsistentReveal()})

GOLDEN = [
    ("abstract", "honest", 1,
     "b057c0fb6d18dcf21eb36f05d9053534e77851d6b2ad498332e635a2fdcd34e3",
     "completed:81789362711466"),
    ("abstract", "honest", 2,
     "c3c63b89102bbfe5f8a6b218716cc993d3a82d9862871139953c3e79f4b775d9",
     "completed:81789362711466"),
    ("abstract", "tamper", 1,
     "daef3ebc6859ae4780dd8a27558bfd2f11dc22abef605e04562cb032ead64e34",
     "aborted:6:F17:commitment does not open to the true total"),
    ("abstract", "tamper", 2,
     "53d26d236f053c2c457dc7ce0330a5fbf60813f8760e59d1e4e2409c4d3a4eca",
     "completed:81789362711469"),
    ("abstract", "bad_reveal", 1,
     "b6190bdade2ca2fd420ea962d1aa66c05012535d6588862af4da1eb35e13e2ce",
     "aborted:6:F17:commitment does not open to the true total"),
    ("abstract", "bad_reveal", 2,
     "728ce5bec17aed32d076cb22e655437c5377ecb9c5453f9ab616a2b663b3d698",
     "completed:81789362711466"),
    ("integrated", "honest", 1,
     "2e3e13b120c904456e02b547a6df3e7b286cc030538597d52e4ce2ca4bad5958",
     "completed:7752"),
    ("integrated", "honest", 2,
     "4fe26b1a5dd2ce7b3b8b1cd7c71fbdfac48d634bb48d906f07aa62a9d25057ee",
     "completed:7752"),
]

_ADVERSARIES = {"honest": HONEST_ADVERSARY, "tamper": _TAMPER, "bad_reveal": _BAD_REVEAL}
_CONFIGS = {"abstract": _abstract_config, "integrated": _integrated_config}


def _verdict_line(verdict) -> str:
    if verdict.abort is None:
        return f"{verdict.status}:{verdict.accepted_m}"
    a = verdict.abort
    return f"{verdict.status}:{a.step}:{a.culprit_id}:{a.reason}"


def test_abstract_sessions_take_the_batch_path():
    assert N_ABSTRACT >= BATCH_MIN_ITEMS


@pytest.mark.parametrize("mode,adversary,seed,digest,verdict", GOLDEN,
                         ids=[f"{m}-{a}-seed{s}" for m, a, s, _, _ in GOLDEN])
def test_secp256k1_transcript_is_pinned(pp, mode, adversary, seed, digest, verdict):
    result = run_session(_CONFIGS[mode](pp), _ADVERSARIES[adversary], seed=seed)
    assert (result.transcript.digest(), _verdict_line(result.verdict)) == (digest, verdict)
