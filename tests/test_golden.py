"""Pinned transcripts and CLI files: digests and verdicts under fixed seeds.

The curve arithmetic may change how a commitment is computed, never which
point comes out, and the transcript encoder may change how bytes are
produced, never which bytes, so every transcript byte under a seed must
stay the same.  The abstract secp256k1 sessions have n >= BATCH_MIN_ITEMS,
so their examine step takes the batch path; the toy-group pins cover every
builtin scenario plus a joint pick that ends in a pick fault.  Every
pinned transcript, read back from its bytes, also passes the independent
audit, whose replay reaches the pinned verdict.  The CLI pins cover the
files that ``report``, ``aggregate`` and ``pick-commit`` write under
``--seed``, byte for byte.
"""

import random

import pytest

from emissions_audit.audit import FirmSpec, SessionConfig
from emissions_audit.commitment import BATCH_MIN_ITEMS, setup
from emissions_audit.groups import production_group
from emissions_audit.harness import (
    AdversarySpec,
    BUILTIN_SCENARIOS,
    HONEST_ADVERSARY,
    Deviation,
    audit_transcript,
    parse_transcript,
    run_session,
    scenario_from_dict,
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


_TAMPER = AdversarySpec(corrupted={"F17"}, behaviors={"F17": Deviation(delta=3)})
_BAD_REVEAL = AdversarySpec(corrupted={"F17"}, behaviors={"F17": Deviation(misreveal=0)})

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


_TOY_SCENARIOS = {
    **BUILTIN_SCENARIOS,
    "pick-fault": {
        "group": "toy", "n": 5, "k": 2, "pick_mode": "joint", "pick_fault_policy": "abort",
        "adversary": {"corrupted": ["V"], "behaviors": {"V": {"type": "inconsistent_reveal"}}},
    },
}

TOY_GOLDEN = [
    ("honest", 1,
     "bb63c9498a8cdb94416afeb4e18a39fab2b431ea86a13404cbe421b94fb034c4",
     "completed:1500"),
    ("honest", 2,
     "344557a8e9778abc7e1ed12aef70cac97b7a3084855db463c3ac595677a69f40",
     "completed:1500"),
    ("one-tamperer-n10-k3", 1,
     "01360d11b06dabfb26872a74e86751455ebcf382191f8246ef4c40e08b1577c4",
     "aborted:6:F3:commitment does not open to the true total"),
    ("one-tamperer-n10-k3", 2,
     "6a36769438569b82610582522b7c4605fac1d0316edf6a78e8165052e08e2230",
     "completed:5600"),
    ("one-tamperer-always-picked", 1,
     "eef58e6b8ad3caa692a09c6cd23ca5739b76c559ecfff803beee4f27fde60493",
     "aborted:6:F3:commitment does not open to the true total"),
    ("one-tamperer-always-picked", 2,
     "768f89d4d1b4d9f291f8ea6e34608c9d8e369b1882b68ef775009e1b670ef68b",
     "aborted:6:F3:commitment does not open to the true total"),
    ("misreport-sum", 1,
     "96473f0ff38eac1c6605090999dc94faf45ba31e34a7e8698234edf9133fd649",
     "aborted:7:C:aggregate commitment does not open to the published sums"),
    ("misreport-sum", 2,
     "834dd2bebc78f608594bda3459f3beb5740d5df7f1fb63b4f7c3f249ea667955",
     "aborted:7:C:aggregate commitment does not open to the published sums"),
    ("inconsistent-reveal", 1,
     "5a8b44e4ec939e62c02509188af873feedadc0d58d356090d903ab72478c60e8",
     "aborted:6:F2:commitment does not open to the true total"),
    ("inconsistent-reveal", 2,
     "091ec042df55ce6909e68dbef8671f2b932d2cfcf672d842e1622bc52926cf6c",
     "aborted:6:F2:commitment does not open to the true total"),
    ("bias-pick-zero", 1,
     "3f9839cacce68433494c28fde7d04dc9d36b5cb6cf53dd72309af520db4ee544",
     "completed:1500"),
    ("bias-pick-zero", 2,
     "d4665262cf120bdd36727a7517e29833e04cd10af25909594ccca7efcd454ad4",
     "completed:1500"),
    ("silent-country", 1,
     "046c8ab800d1be3209fce0f90cb0122f36e3401c953f9c63a206c60725c476bc",
     "aborted:4:C:went silent"),
    ("silent-country", 2,
     "ec149eeb70c9ab36e2f02e7043c55c3110aca7137b87d4570dfdcb6e8f38c651",
     "aborted:4:C:went silent"),
    ("pick-fault", 1,
     "704b63a910daef413da86f47459dfaa6eee4eac0ff306315326ad9c82a8b821a",
     "aborted:5:V:pick fault: contribution 5 outside [0, 5)"),
    ("pick-fault", 2,
     "bf83db7932d3334b6b3a7277498979a31d62daf15f1d537a906295afbe4f0f07",
     "aborted:5:V:pick fault: reveal does not open the commitment"),
]


def test_toy_pins_cover_every_builtin_scenario():
    assert {name for name, _, _, _ in TOY_GOLDEN} == set(_TOY_SCENARIOS)


@pytest.mark.parametrize("name,seed,digest,verdict", TOY_GOLDEN,
                         ids=[f"{n}-seed{s}" for n, s, _, _ in TOY_GOLDEN])
def test_toy_transcript_is_pinned(name, seed, digest, verdict):
    scenario = scenario_from_dict(_TOY_SCENARIOS[name], name=name)
    result = run_session(scenario.config, scenario.adversary, seed=seed)
    assert (result.transcript.digest(), _verdict_line(result.verdict)) == (digest, verdict)


def _replay_line(replayed) -> str:
    if replayed["status"] == "completed":
        return f"completed:{replayed['accepted_m']}"
    a = replayed["abort"]
    return f"aborted:{a['step']}:{a['culprit']}:{a['reason']}"


_REPLAY_PINS = [
    *(pytest.param("secp256k1", (m, a), s, v, id=f"{m}-{a}-seed{s}") for m, a, s, _, v in GOLDEN),
    *(pytest.param("toy", n, s, v, id=f"toy-{n}-seed{s}") for n, s, _, v in TOY_GOLDEN),
]


@pytest.mark.parametrize("group,case,seed,verdict", _REPLAY_PINS)
def test_pinned_transcript_replays_to_its_verdict(pp, group, case, seed, verdict):
    if group == "secp256k1":
        mode, adversary = case
        result = run_session(_CONFIGS[mode](pp), _ADVERSARIES[adversary], seed=seed)
    else:
        scenario = scenario_from_dict(_TOY_SCENARIOS[case], name=case)
        result = run_session(scenario.config, scenario.adversary, seed=seed)
    report = audit_transcript(parse_transcript(result.transcript.to_jsonl()))
    assert report["ok"], report["violations"]
    # The pinned silences and pick faults are recorded as events, so even
    # these behavioral aborts replay to the pinned line.
    assert _replay_line(report["replayed"]) == verdict


# The CLI's files under --seed, from one toy cycle: two firms ingest and
# report, the country aggregates, and each pick party commits.
CLI_GOLDEN = {
    "F1.report.json":
        "1a062305070f3268da822e1ebb89ce37a842fd13f52455a8f5495037f1458a9d",
    "F1.opening.json":
        "16ee3d6a2cdd3b24d2bc725c83988ae382923a9f4c767cdc18a970cc6d2ff40e",
    "F2.report.json":
        "1352cbe029fe6128604cfe23c16e5ec944f5456c102fef0eec4a0dbd53fdafc6",
    "F2.opening.json":
        "9145825253d4f99938c9ddb88f041b42f5739fee1f315a75c0ac9a8fc8017137",
    "sums.json":
        "a6f2f14ad3b1344225d803d196ad545ccce6299e36b60baf742bbbdba3e89704",
    "country.commit.json":
        "8b21b6fb9276b29aa8c8aae42a5b15aa11b0910663691cff3fe95cb65a7162ac",
    "country.state.json":
        "b660ab0ec33f5616106ba86d3f2c494628b3a272c4b0c336e0b0a842c16540ce",
    "verifier.commit.json":
        "be9bd09ca9e0d78b3d82bef07bec4e18fcfcd65c8d0fbde56deb8ed139686621",
    "verifier.state.json":
        "22ac9bd49fa551739d0dcb2cad0078fa204fd05832bd819205dba0d48f27d476",
}


def _cli_cycle(ws):
    from emissions_audit.cli import main

    def cli(*argv):
        assert main([str(a) for a in argv]) == 0

    pp = ws / "pp.json"
    cli("setup", "--group", "toy", "--mode", "hash", "--out", pp)
    aggregate = ["aggregate", "--pp", pp, "--out", ws / "sums.json"]
    for i, base in ((1, 40), (2, 75)):
        fid = f"F{i}"
        csv = ws / f"{fid}.csv"
        csv.write_text("hour,e\n" + "".join(
            f"2026-04-01T{h:02d}:00:00Z,{base + h}\n" for h in range(6)))
        cli("ingest", "--firm-id", fid, "--readings", csv, "--ledger", ws / f"{fid}.jsonl",
            "--meter-key", ws / f"{fid}.key.json", "--seed", 10 + i)
        cli("report", "--pp", pp, "--ledger", ws / f"{fid}.jsonl",
            "--meter-key", ws / f"{fid}.key.json", "--cycle", "cy-1", "--seed", 100 + i,
            "--out", ws / f"{fid}.report.json", "--opening-out", ws / f"{fid}.opening.json")
        aggregate += ["--report", ws / f"{fid}.report.json",
                      "--opening", ws / f"{fid}.opening.json"]
    cli(*aggregate)
    for party, seed in (("country", 21), ("verifier", 22)):
        cli("pick-commit", "--pp", pp, "--party", party, "--l", 7, "--round", 1,
            "--seed", seed, "--state", ws / f"{party}.state.json",
            "--out", ws / f"{party}.commit.json")


def test_cli_files_under_a_seed_are_pinned(tmp_path, capsys):
    import hashlib

    _cli_cycle(tmp_path)
    capsys.readouterr()
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in CLI_GOLDEN} == CLI_GOLDEN
