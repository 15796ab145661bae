"""Command-line workflow: operator pipeline, pick exchange, simulation."""

import argparse
import builtins
import contextlib
import hashlib
import io
import json

import pytest
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st

from emissions_audit import commitment, harness
from emissions_audit.cli import (
    _LIST_FLAGS, _OTHER_FLAGS, _coalesce_list_flags, build_parser, main,
)
from emissions_audit.groups import production_group


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    out = captured.out.strip().splitlines()
    err = captured.err.strip().splitlines()
    last_out = json.loads(out[-1]) if out else None
    last_err = json.loads(err[-1]) if err else None
    return code, last_out, last_err


@pytest.fixture()
def ws(tmp_path):
    return tmp_path


def _write_csv(path, rows):
    lines = ["hour,e"] + [f"{hour},{e}" for hour, e in rows]
    path.write_text("\n".join(lines) + "\n")


def _pipeline(capsys, ws, group="toy"):
    """Full honest run; returns (pp, reports, openings, sums) paths."""
    pp = ws / "pp.json"
    code, _, _ = run_cli(capsys, "setup", "--group", group, "--mode", "hash",
                         "--out", str(pp))
    assert code == 0
    reports, openings = [], []
    for i, base in enumerate((40, 75), start=1):
        csv = ws / f"F{i}.csv"
        _write_csv(csv, [(f"2026-04-01T{h:02d}:00:00Z", base + h) for h in range(6)])
        code, _, _ = run_cli(
            capsys, "ingest", "--firm-id", f"F{i}", "--readings", str(csv),
            "--ledger", str(ws / f"F{i}.jsonl"), "--meter-key",
            str(ws / f"F{i}.key.json"), "--seed", str(10 + i),
        )
        assert code == 0
        rep, op = ws / f"F{i}.report.json", ws / f"F{i}.opening.json"
        code, _, _ = run_cli(
            capsys, "report", "--pp", str(pp), "--ledger", str(ws / f"F{i}.jsonl"),
            "--meter-key", str(ws / f"F{i}.key.json"), "--cycle", "cy-1",
            "--seed", str(100 + i), "--out", str(rep), "--opening-out", str(op),
        )
        assert code == 0
        reports.append(rep)
        openings.append(op)
    sums = ws / "sums.json"
    args = ["aggregate", "--pp", str(pp), "--out", str(sums)]
    for rep in reports:
        args += ["--report", str(rep)]
    for op in openings:
        args += ["--opening", str(op)]
    code, verdict, _ = run_cli(capsys, *args)
    assert code == 0 and verdict["verdict"] == "ACCEPT"
    return pp, reports, openings, sums


# ---------------------------------------------------------------------------
# setup
# ---------------------------------------------------------------------------


def test_setup_trusted_is_byte_deterministic(capsys, ws):
    a, b = ws / "a.json", ws / "b.json"
    assert run_cli(capsys, "setup", "--group", "toy", "--mode", "trusted",
                   "--seed", "7", "--out", str(a))[0] == 0
    assert run_cli(capsys, "setup", "--group", "toy", "--mode", "trusted",
                   "--seed", "7", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_setup_derived_params_survive_reload(capsys, ws):
    from emissions_audit.commitment import params_from_dict

    pp = ws / "pp.json"
    assert run_cli(capsys, "setup", "--group", "prod", "--mode", "hash",
                   "--out", str(pp))[0] == 0
    params = params_from_dict(json.loads(pp.read_text()))
    # Reload validates group membership of both bases.
    assert params.group.descriptor.name == "secp256k1"
    assert not params.h.is_identity()


def test_setup_rejects_unknown_group(capsys, ws):
    code, _, err = run_cli(capsys, "setup", "--group", "curve25519",
                           "--mode", "hash", "--out", str(ws / "x.json"))
    assert code == 2
    assert err["error"] == "ConfigInvalid"


def test_setup_trusted_requires_seed(capsys, ws):
    code, _, err = run_cli(capsys, "setup", "--group", "toy", "--mode", "trusted",
                           "--out", str(ws / "x.json"))
    assert code == 2 and err["error"] == "ConfigInvalid"


# ---------------------------------------------------------------------------
# The five-command honest pipeline and its failure modes.
# ---------------------------------------------------------------------------


def test_honest_pipeline_accepts_true_total(capsys, ws):
    pp, reports, openings, sums = _pipeline(capsys, ws)
    args = ["verify-sum", "--pp", str(pp), "--sums", str(sums)]
    for rep in reports:
        args += ["--report", str(rep)]
    code, verdict, _ = run_cli(capsys, *args)
    assert code == 0
    assert verdict["verdict"] == "ACCEPT"
    truth = sum(40 + h for h in range(6)) + sum(75 + h for h in range(6))
    assert verdict["m"] == truth


def test_report_files_deterministic_under_seed(capsys, ws):
    pp, reports, openings, _ = _pipeline(capsys, ws)
    rep2, op2 = ws / "again.json", ws / "again_open.json"
    code, _, _ = run_cli(
        capsys, "report", "--pp", str(pp), "--ledger", str(ws / "F1.jsonl"),
        "--meter-key", str(ws / "F1.key.json"), "--cycle", "cy-1",
        "--seed", "101", "--out", str(rep2), "--opening-out", str(op2),
    )
    assert code == 0
    assert rep2.read_bytes() == reports[0].read_bytes()
    assert op2.read_bytes() == openings[0].read_bytes()


@pytest.mark.parametrize("pk, code, error", [
    (None, 0, None), ("zz" * 32, 2, "ValueError"), ("00" * 31, 2, "ConfigInvalid"),
], ids=["public-only", "non-hex", "short"])
def test_report_reads_only_the_meter_public_key(capsys, ws, pk, code, error):
    """A key file stripped of its secret gives the same report and opening
    files under a seed; a public key that is not hex, or not 32 bytes, is
    an input error about the key file."""
    pp, reports, openings, _ = _pipeline(capsys, ws)
    key = json.loads((ws / "F1.key.json").read_text())
    del key["sk"]
    if pk is not None:
        key["pk"] = pk
    public = ws / "F1.pub.json"
    public.write_text(json.dumps(key))
    rep2, op2 = ws / "again.json", ws / "again_open.json"
    got, _, err = run_cli(
        capsys, "report", "--pp", str(pp), "--ledger", str(ws / "F1.jsonl"),
        "--meter-key", str(public), "--cycle", "cy-1",
        "--seed", "101", "--out", str(rep2), "--opening-out", str(op2),
    )
    assert got == code
    if code == 0:
        assert rep2.read_bytes() == reports[0].read_bytes()
        assert op2.read_bytes() == openings[0].read_bytes()
    else:
        assert err["error"] == error and not rep2.exists()


def test_tampered_report_byte_is_rejected_with_culprit(capsys, ws):
    pp, reports, openings, sums = _pipeline(capsys, ws)
    data = json.loads(reports[0].read_text())
    raw = bytearray(bytes.fromhex(data["c"]))
    raw[-1] ^= 0x01
    data["c"] = bytes(raw).hex()
    bad = ws / "bad_report.json"
    bad.write_text(json.dumps(data))

    args = ["aggregate", "--pp", str(pp), "--out", str(ws / "s2.json"),
            "--report", str(bad), "--report", str(reports[1]),
            "--opening", str(openings[0]), "--opening", str(openings[1])]
    code, verdict, _ = run_cli(capsys, *args)
    assert code == 1
    assert verdict["verdict"] == "REJECT" and verdict["culprit"] == "F1"

    args = ["verify-sum", "--pp", str(pp), "--sums", str(sums),
            "--report", str(bad), "--report", str(reports[1])]
    code, verdict, _ = run_cli(capsys, *args)
    assert code == 1 and verdict["culprit"] == "F1"


def test_lying_opening_is_rejected_at_examination(capsys, ws):
    pp, reports, openings, _ = _pipeline(capsys, ws)
    lie = json.loads(openings[1].read_text())
    lie["m"] += 3
    bad = ws / "lie.json"
    bad.write_text(json.dumps(lie))
    args = ["aggregate", "--pp", str(pp), "--out", str(ws / "s3.json"),
            "--report", str(reports[0]), "--report", str(reports[1]),
            "--opening", str(openings[0]), "--opening", str(bad)]
    code, verdict, _ = run_cli(capsys, *args)
    assert code == 1
    assert verdict["step"] == 3 and verdict["culprit"] == "F2"


def test_miscounted_sums_rejected_at_final_check(capsys, ws):
    pp, reports, _, sums = _pipeline(capsys, ws)
    cooked = json.loads(sums.read_text())
    cooked["m"] += 1
    bad = ws / "cooked.json"
    bad.write_text(json.dumps(cooked))
    args = ["verify-sum", "--pp", str(pp), "--sums", str(bad)]
    for rep in reports:
        args += ["--report", str(rep)]
    code, verdict, _ = run_cli(capsys, *args)
    assert code == 1
    assert verdict["step"] == 7 and verdict["culprit"] == "country"


def _rewritten(path, out, **changes):
    """Copy of a JSON file with top-level fields replaced; returns the copy."""
    data = json.loads(path.read_text())
    data.update(changes)
    out.write_text(json.dumps(data))
    return out


def _verify_sum_args(pp, reports, sums):
    args = ["verify-sum", "--pp", str(pp), "--sums", str(sums)]
    for rep in reports:
        args += ["--report", str(rep)]
    return args


def _aggregate_args(pp, out, reports, openings):
    args = ["aggregate", "--pp", str(pp), "--out", str(out)]
    for rep in reports:
        args += ["--report", str(rep)]
    for op in openings:
        args += ["--opening", str(op)]
    return args


def _assert_config_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out is None
    assert err["error"] == "ConfigInvalid"


def test_verify_sum_rejects_sums_without_m_as_input_error(capsys, ws):
    pp, reports, _, sums = _pipeline(capsys, ws)
    data = json.loads(sums.read_text())
    del data["m"]
    bad = ws / "no_m.json"
    bad.write_text(json.dumps(data))
    _assert_config_error(capsys, _verify_sum_args(pp, reports, bad))


def test_verify_sum_rejects_non_hex_r_as_input_error(capsys, ws):
    pp, reports, _, sums = _pipeline(capsys, ws)
    bad = _rewritten(sums, ws / "r7.json", r=7)
    _assert_config_error(capsys, _verify_sum_args(pp, reports, bad))


def test_verify_sum_rejects_top_level_list_as_input_error(capsys, ws):
    pp, reports, _, sums = _pipeline(capsys, ws)
    bad = ws / "list.json"
    bad.write_text(json.dumps([json.loads(sums.read_text())]))
    _assert_config_error(capsys, _verify_sum_args(pp, reports, bad))


def test_aggregate_rejects_second_opening_for_same_firm(capsys, ws):
    pp, reports, openings, _ = _pipeline(capsys, ws)
    _assert_config_error(capsys, _aggregate_args(
        pp, ws / "s.json", reports, [openings[0], openings[1], openings[1]]))
    # A forged second opening must not silently replace the first.
    lie = _rewritten(openings[1], ws / "lie.json", m=1)
    _assert_config_error(capsys, _aggregate_args(
        pp, ws / "s.json", reports, [openings[0], openings[1], lie]))


def test_aggregate_rejects_files_from_two_cycles(capsys, ws):
    pp, reports, openings, _ = _pipeline(capsys, ws)
    other_report = _rewritten(reports[1], ws / "r2.json", cycle_id="cy-2")
    other_opening = _rewritten(openings[1], ws / "o2.json", cycle_id="cy-2")
    _assert_config_error(capsys, _aggregate_args(
        pp, ws / "s.json", [reports[0], other_report], [openings[0], other_opening]))
    _assert_config_error(capsys, _aggregate_args(
        pp, ws / "s.json", reports, [openings[0], other_opening]))


def test_verify_sum_rejects_files_from_two_cycles(capsys, ws):
    pp, reports, _, sums = _pipeline(capsys, ws)
    other_report = _rewritten(reports[1], ws / "r2.json", cycle_id="cy-2")
    _assert_config_error(capsys, _verify_sum_args(pp, [reports[0], other_report], sums))
    other_sums = _rewritten(sums, ws / "s2.json", cycle_id="cy-2")
    _assert_config_error(capsys, _verify_sum_args(pp, reports, other_sums))
    _assert_config_error(capsys, _verify_sum_args(pp, [reports[0], reports[0]], sums))


def test_aggregate_reads_each_input_once_and_digests_those_bytes(capsys, ws, monkeypatch):
    pp, reports, openings, _ = _pipeline(capsys, ws)
    sums = ws / "s.json"
    opened = []
    real_open = builtins.open
    monkeypatch.setattr(builtins, "open", lambda file, *a, **kw: opened.append(str(file))
                        or real_open(file, *a, **kw))
    code, verdict, _ = run_cli(capsys, *_aggregate_args(pp, sums, reports, openings))
    monkeypatch.undo()
    assert code == 0 and verdict["verdict"] == "ACCEPT"
    assert sorted(opened) == sorted(map(str, [pp, *reports, *openings, sums]))
    digest = {path: hashlib.sha256(path.read_bytes()).hexdigest() for path in (pp, *reports)}
    assert json.loads(sums.read_text())["provenance"]["inputs"] == {
        "pp": digest[pp], "report_F1": digest[reports[0]], "report_F2": digest[reports[1]]}


@pytest.mark.parametrize("encode", [lambda text: b"\xef\xbb\xbf" + text.encode(),
                                    lambda text: text.encode("utf-16")], ids=["bom", "utf-16"])
def test_report_in_another_encoding_is_an_input_error(capsys, ws, encode):
    """JSON files are UTF-8 without a byte order mark, as json.loads of a
    str reads them; a report with a BOM or in UTF-16 is refused."""
    pp, reports, openings, sums = _pipeline(capsys, ws)
    reports[0].write_bytes(encode(reports[0].read_text()))
    for argv in (_aggregate_args(pp, ws / "s.json", reports, openings),
                 _verify_sum_args(pp, reports, sums)):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out is None
        assert err["error"] in ("JSONDecodeError", "UnicodeDecodeError")


@pytest.mark.parametrize("first, second, culprit, reason", [
    ("opening", "range", "F1", "opening does not match the commitment"),
    ("range", "opening", "F1", f"reported total {1 << 40} out of range"),
    (None, "opening", "F2", "opening does not match the commitment"),
    ("opening", "opening", "F1", "opening does not match the commitment"),
])
def test_aggregate_batch_names_first_failure_in_report_order(
    capsys, ws, monkeypatch, first, second, culprit, reason
):
    monkeypatch.setattr(commitment, "BATCH_MIN_ITEMS", 2)
    pp, reports, openings, _ = _pipeline(capsys, ws, group="secp256k1")
    bad_openings = []
    for i, (path, fault) in enumerate(zip(openings, (first, second))):
        m = json.loads(path.read_text())["m"]
        changes = {"opening": {"m": m + 1}, "range": {"m": 1 << 40}, None: {}}[fault]
        bad_openings.append(_rewritten(path, ws / f"bad{i}.json", **changes))
    code, verdict, _ = run_cli(capsys, *_aggregate_args(pp, ws / "s.json", reports, bad_openings))
    assert code == 1
    assert (verdict["step"], verdict["culprit"], verdict["reason"]) == (3, culprit, reason)


def test_ingest_extends_existing_ledger(capsys, ws):
    csv1, csv2 = ws / "a.csv", ws / "b.csv"
    _write_csv(csv1, [("2026-04-01T00:00:00Z", 5)])
    _write_csv(csv2, [("2026-04-01T01:00:00Z", 6)])
    ledger, key = ws / "l.jsonl", ws / "k.json"
    code, out, _ = run_cli(capsys, "ingest", "--firm-id", "F1", "--readings",
                           str(csv1), "--ledger", str(ledger), "--meter-key",
                           str(key), "--seed", "3")
    assert code == 0 and out["entries"] == 1
    code, out, _ = run_cli(capsys, "ingest", "--firm-id", "F1", "--readings",
                           str(csv2), "--ledger", str(ledger), "--meter-key", str(key))
    assert code == 0 and out["entries"] == 2 and out["added"] == 1


def test_ingest_rejects_foreign_ledger(capsys, ws):
    csv = ws / "a.csv"
    _write_csv(csv, [("2026-04-01T00:00:00Z", 5)])
    ledger, key = ws / "l.jsonl", ws / "k.json"
    run_cli(capsys, "ingest", "--firm-id", "F1", "--readings", str(csv),
            "--ledger", str(ledger), "--meter-key", str(key), "--seed", "3")
    code, _, err = run_cli(capsys, "ingest", "--firm-id", "F2", "--readings",
                           str(csv), "--ledger", str(ledger), "--meter-key", str(key))
    assert code == 2 and err["error"] == "ConfigInvalid"


def test_ingest_detects_ledger_tampering(capsys, ws):
    csv = ws / "a.csv"
    _write_csv(csv, [("2026-04-01T00:00:00Z", 5), ("2026-04-01T01:00:00Z", 6)])
    ledger, key = ws / "l.jsonl", ws / "k.json"
    run_cli(capsys, "ingest", "--firm-id", "F1", "--readings", str(csv),
            "--ledger", str(ledger), "--meter-key", str(key), "--seed", "3")
    lines = ledger.read_text().splitlines()
    entry = json.loads(lines[0])
    entry["e"] = 9999
    lines[0] = json.dumps(entry)
    ledger.write_text("\n".join(lines) + "\n")
    csv2 = ws / "b.csv"
    _write_csv(csv2, [("2026-04-01T02:00:00Z", 7)])
    code, _, err = run_cli(capsys, "ingest", "--firm-id", "F1", "--readings",
                           str(csv2), "--ledger", str(ledger), "--meter-key", str(key))
    assert code == 2
    assert err["error"] in ("BadSignature", "ChainBroken")


def test_ingest_refuses_a_repeated_hour_with_the_walks_error(capsys, ws):
    csv = ws / "a.csv"
    _write_csv(csv, [("2026-04-01T00:00:00Z", 5), ("2026-04-01T00:00:00Z", 6)])
    ledger = ws / "l.jsonl"
    code, out, err = run_cli(capsys, "ingest", "--firm-id", "F1", "--readings", str(csv),
                             "--ledger", str(ledger), "--meter-key", str(ws / "k.json"),
                             "--seed", "3")
    assert code == 2 and out is None and not ledger.exists()
    assert err["error"] == "NonMonotonicHour"
    assert err["message"] == "order check failed at entry 1 (2026-04-01T00:00:00Z)"


@pytest.mark.parametrize("firm_id", [["F1"], {"F1": 1}, 7, None])
def test_report_rejects_ledger_with_non_string_firm_id(capsys, ws, firm_id):
    pp, _, _, _ = _pipeline(capsys, ws)
    ledger = ws / "F1.jsonl"
    lines = ledger.read_text().splitlines()
    lines[0] = json.dumps({**json.loads(lines[0]), "firm_id": firm_id})
    ledger.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(
        capsys, "report", "--pp", str(pp), "--ledger", str(ledger), "--meter-key",
        str(ws / "F1.key.json"), "--cycle", "cy-1", "--out", str(ws / "r.json"),
        "--opening-out", str(ws / "o.json"))
    assert code == 2 and out is None
    assert err["error"] == "LedgerFormatError"


def test_report_provenance_carries_no_seed(capsys, ws):
    _, reports, _, _ = _pipeline(capsys, ws)
    for rep in reports:
        assert "seed" not in json.loads(rep.read_text())["provenance"]


def test_secrets_come_from_the_os_without_seed(capsys, ws):
    pp = ws / "pp.json"
    run_cli(capsys, "setup", "--group", "toy", "--out", str(pp))
    csv = ws / "F1.csv"
    _write_csv(csv, [("2026-04-01T00:00:00Z", 5)])
    keys = set()
    for i in range(2):
        key = ws / f"F1-{i}.key.json"
        code, out, _ = run_cli(capsys, "ingest", "--firm-id", "F1", "--readings", str(csv),
                               "--ledger", str(ws / f"F1-{i}.jsonl"), "--meter-key", str(key))
        assert code == 0
        keys.add(out["meter_pk"])
    assert len(keys) == 2
    blindings, draws = set(), set()
    for i in range(8):
        code, _, _ = run_cli(
            capsys, "report", "--pp", str(pp), "--ledger", str(ws / "F1-0.jsonl"),
            "--meter-key", str(ws / "F1-0.key.json"), "--cycle", "cy-1",
            "--out", str(ws / f"r{i}.json"), "--opening-out", str(ws / f"o{i}.json"))
        assert code == 0
        blindings.add(json.loads((ws / f"o{i}.json").read_text())["r"])
        code, _, _ = run_cli(
            capsys, "pick-commit", "--pp", str(pp), "--party", "country", "--l", "5",
            "--state", str(ws / f"s{i}.json"), "--out", str(ws / f"c{i}.json"))
        assert code == 0
        draws.add(json.loads((ws / f"s{i}.json").read_text())["r"])
    # Eight toy-group blindings (q = 101) from one fixed stream would all match.
    assert len(blindings) > 1 and len(draws) > 1


def _integers_in(path):
    """Every decimal digit run in a file, JSON numbers and hex fragments alike."""
    import re

    return {int(run) for run in re.findall(rb"\d+", path.read_bytes())}


def test_public_files_do_not_yield_the_secrets(capsys, ws):
    """An attacker who tries every integer in a public file as --seed must
    not recover a report's blinding or a pick draw."""
    import random

    from emissions_audit.cli import _load_pp
    from emissions_audit.harness import derive_seed
    from emissions_audit.pick import round_commit

    pp_path, reports, openings, _ = _pipeline(capsys, ws, group="prod")
    pp = _load_pp(str(pp_path))
    for rep, opening in zip(reports, openings):
        public = json.loads(rep.read_text())
        r = json.loads(opening.read_text())["r"]
        for guess in _integers_in(rep) | _integers_in(pp_path):
            for rng in (random.Random(guess), random.Random(
                    derive_seed(guess, "report", public["firm_id"], public["cycle_id"]))):
                assert pp.group.encode_scalar(pp.group.random_scalar(rng)).hex() != r

    msg = ws / "c.commit.json"
    code, _, _ = run_cli(capsys, "pick-commit", "--pp", str(pp_path), "--party", "country",
                         "--l", "5", "--seed", "21", "--state", str(ws / "c.state.json"),
                         "--out", str(msg))
    assert code == 0
    public = json.loads(msg.read_text())
    for guess in _integers_in(msg) | _integers_in(pp_path):
        for rng in (random.Random(guess), random.Random(
                derive_seed(guess, "pick", public["party"], public["round"]))):
            _, _, c = round_commit(public["l"], pp, rng)
            assert pp.group.encode_point(c).hex() != public["c"]


def test_simulate_rejects_scenario_with_tampered_ledger(capsys, ws):
    csv = ws / "F1.csv"
    _write_csv(csv, [(f"2026-04-01T{h:02d}:00:00Z", 10 + h) for h in range(3)])
    ledger = ws / "F1.jsonl"
    code, out, _ = run_cli(capsys, "ingest", "--firm-id", "F1", "--readings", str(csv),
                           "--ledger", str(ledger), "--meter-key", str(ws / "F1.key.json"),
                           "--seed", "3")
    assert code == 0
    ledger.write_text(ledger.read_text().replace('"e": 11', '"e": 12'))
    scenario = ws / "sc.json"
    scenario.write_text(json.dumps({
        "group": "toy", "k": 1, "trials": 2,
        "firms": [{"id": "F1", "ledger": str(ledger), "meter_pk": out["meter_pk"]}],
    }))
    code, _, err = run_cli(capsys, "simulate", "--scenario", str(scenario))
    assert code == 2 and err["error"] == "ConfigInvalid"
    assert err["message"].startswith("firm F1: ledger does not verify")


def test_simulate_rejects_scenario_giving_a_firm_anothers_ledger(capsys, ws):
    firms = []
    for firm_id, seed in (("F1", 4), ("F2", 5)):
        csv = ws / f"{firm_id}.csv"
        _write_csv(csv, [(f"2026-04-01T{h:02d}:00:00Z", seed + h) for h in range(3)])
        code, out, _ = run_cli(capsys, "ingest", "--firm-id", firm_id, "--readings", str(csv),
                               "--ledger", str(ws / f"{firm_id}.jsonl"),
                               "--meter-key", str(ws / f"{firm_id}.key.json"),
                               "--seed", str(seed))
        assert code == 0
        firms.append({"id": firm_id, "ledger": str(ws / "F2.jsonl"), "meter_pk": out["meter_pk"]})
    # F2's ledger and key listed under both firms would count its readings twice.
    firms[0]["meter_pk"] = firms[1]["meter_pk"]
    scenario = ws / "sc.json"
    scenario.write_text(json.dumps({"group": "toy", "k": 0, "trials": 2, "firms": firms}))
    code, out, err = run_cli(capsys, "simulate", "--scenario", str(scenario))
    assert code == 2 and out is None and err["error"] == "ConfigInvalid"
    assert err["message"] == "firm F1: ledger belongs to 'F2'"


def test_simulate_refuses_a_corrupted_string(capsys, ws):
    scenario = ws / "sc.json"
    scenario.write_text(json.dumps({"n": 3, "k": 1, "adversary": {"corrupted": "C"}}))
    code, out, err = run_cli(capsys, "simulate", "--scenario", str(scenario))
    assert code == 2 and out is None and err["error"] == "ConfigInvalid"
    assert err["message"] == "adversary field 'corrupted' is not a list of strings"


@pytest.mark.parametrize("pick_mode", ["env", "joint"])
@pytest.mark.parametrize("field", ["pick_base_mode", "pick_fault_policy"])
def test_simulate_rejects_an_unknown_pick_base_mode_or_fault_policy(capsys, ws, pick_mode, field):
    scenario = ws / "sc.json"
    scenario.write_text(json.dumps({"n": 3, "k": 1, "pick_mode": pick_mode, field: "bogus"}))
    code, out, err = run_cli(capsys, "simulate", "--scenario", str(scenario))
    assert code == 2 and out is None and err["error"] == "ConfigInvalid"


def test_simulate_refuses_two_rushing_pickers_naming_the_pick_fields(capsys, ws):
    rushing = {"type": "bias_pick", "strategy": "peer_seeded"}
    scenario = ws / "sc.json"
    scenario.write_text(json.dumps({"n": 3, "k": 1, "pick_mode": "joint", "adversary": {
        "corrupted": ["C", "V"], "behaviors": {"C": rushing, "V": rushing}}}))
    code, out, err = run_cli(capsys, "simulate", "--scenario", str(scenario))
    assert code == 2 and out is None and err["error"] == "ConfigInvalid"
    assert err["message"] == ("behavior field 'pick' is 'peer_seeded' for both the country and "
                              "the verifier: one of them has to commit first")


@pytest.mark.parametrize("trials", [0, harness.MAX_SCENARIO_TRIALS + 1])
def test_simulate_bounds_the_trials_flag_before_any_trial(capsys, ws, monkeypatch, trials):
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "run_trials", no_trials)
    monkeypatch.setattr(harness, "run_session", no_trials)
    code, out, err = run_cli(capsys, "simulate", "--scenario", "honest", "--trials", str(trials),
                             "--transcript", str(ws / "t.jsonl"))
    assert code == 2 and out is None and err["error"] == "ConfigInvalid"
    assert err["message"] == f"--trials must be in [1, {harness.MAX_SCENARIO_TRIALS}], got {trials}"


def test_simulate_rejects_a_firm_with_both_m_and_a_ledger(capsys, ws):
    csv = ws / "F1.csv"
    _write_csv(csv, [("2026-04-01T00:00:00Z", 7)])
    code, out, _ = run_cli(capsys, "ingest", "--firm-id", "F1", "--readings", str(csv),
                           "--ledger", str(ws / "F1.jsonl"), "--meter-key",
                           str(ws / "F1.key.json"), "--seed", "6")
    assert code == 0
    scenario = ws / "sc.json"
    scenario.write_text(json.dumps({"group": "toy", "k": 0, "firms": [
        {"id": "F1", "m": 99, "ledger": str(ws / "F1.jsonl"), "meter_pk": out["meter_pk"]}]}))
    code, out, err = run_cli(capsys, "simulate", "--scenario", str(scenario))
    assert code == 2 and out is None and err["error"] == "ConfigInvalid"
    assert err["message"] == "firm F1: both true_m and a ledger are set"


# ---------------------------------------------------------------------------
# Two-operator pick over files.
# ---------------------------------------------------------------------------


def _pick_setup(capsys, ws, group="toy"):
    pp = ws / "pp.json"
    run_cli(capsys, "setup", "--group", group, "--mode", "hash", "--out", str(pp))
    for party, seed in (("country", 21), ("verifier", 22)):
        tag = party[0]
        code, _, _ = run_cli(
            capsys, "pick-commit", "--pp", str(pp), "--party", party,
            "--l", "5", "--seed", str(seed),
            "--state", str(ws / f"{tag}.state.json"),
            "--out", str(ws / f"{tag}.commit.json"),
        )
        assert code == 0
    return pp


def _revealed_pair(capsys, ws, group="toy"):
    """Both parties' state and reveal files after a full pick-reveal."""
    pp = _pick_setup(capsys, ws, group)
    for tag, peer in (("c", "v"), ("v", "c")):
        run_cli(capsys, "pick-reveal", "--state", str(ws / f"{tag}.state.json"),
                "--peer-commit", str(ws / f"{peer}.commit.json"),
                "--out", str(ws / f"{tag}.reveal.json"))
    return pp


def test_pick_exchange_settles_identically_for_both(capsys, ws):
    pp = _pick_setup(capsys, ws)
    for tag, peer in (("c", "v"), ("v", "c")):
        code, _, _ = run_cli(
            capsys, "pick-reveal", "--state", str(ws / f"{tag}.state.json"),
            "--peer-commit", str(ws / f"{peer}.commit.json"),
            "--out", str(ws / f"{tag}.reveal.json"),
        )
        assert code == 0
    results = []
    for tag, peer in (("c", "v"), ("v", "c")):
        code, out, _ = run_cli(
            capsys, "pick-settle", "--pp", str(pp),
            "--state", str(ws / f"{tag}.state.json"),
            "--peer-reveal", str(ws / f"{peer}.reveal.json"),
            "--roster", "F1,F2,F3,F4,F5",
        )
        assert code == 0 and out["verdict"] == "SETTLED"
        results.append((out["index"], out["picked"]))
    assert results[0] == results[1]
    assert 0 <= results[0][0] < 5


def test_pick_settle_faults_cheating_reveal(capsys, ws):
    pp = _revealed_pair(capsys, ws)
    cheat = json.loads((ws / "v.reveal.json").read_text())
    cheat["m"] = (cheat["m"] + 1) % cheat["l"]
    (ws / "v.cheat.json").write_text(json.dumps(cheat))
    code, out, _ = run_cli(
        capsys, "pick-settle", "--pp", str(pp),
        "--state", str(ws / "c.state.json"),
        "--peer-reveal", str(ws / "v.cheat.json"),
    )
    assert code == 1
    assert out["verdict"] == "FAULT" and out["party"] == "verifier"


def test_pick_reveal_requires_matching_round_shape(capsys, ws):
    pp = _pick_setup(capsys, ws)
    other = json.loads((ws / "v.commit.json").read_text())
    other["l"] = 6
    (ws / "v.bad.json").write_text(json.dumps(other))
    code, _, err = run_cli(
        capsys, "pick-reveal", "--state", str(ws / "c.state.json"),
        "--peer-commit", str(ws / "v.bad.json"),
        "--out", str(ws / "c.reveal.json"),
    )
    assert code == 2 and err["error"] == "ConfigInvalid"


def test_pick_settle_requires_reveal_first(capsys, ws):
    pp = _pick_setup(capsys, ws)
    # Skip pick-reveal: no peer commitment pinned in the state yet.
    (ws / "v.reveal.json").write_text(json.dumps(
        {"format": "pick-reveal/v1", "party": "verifier", "round": 0,
         "l": 5, "m": 0, "r": "00"}))
    code, _, err = run_cli(
        capsys, "pick-settle", "--pp", str(pp),
        "--state", str(ws / "c.state.json"),
        "--peer-reveal", str(ws / "v.reveal.json"),
    )
    assert code == 2 and err["error"] == "ConfigInvalid"


def test_pick_settle_rejects_swapped_params(capsys, ws):
    _revealed_pair(capsys, ws)
    other_pp = ws / "pp2.json"
    run_cli(capsys, "setup", "--group", "toy", "--mode", "trusted", "--seed", "9",
            "--out", str(other_pp))
    code, _, err = run_cli(
        capsys, "pick-settle", "--pp", str(other_pp),
        "--state", str(ws / "c.state.json"),
        "--peer-reveal", str(ws / "v.reveal.json"),
    )
    assert code == 2 and err["error"] == "ConfigInvalid"


def _without(path, out, field):
    data = json.loads(path.read_text())
    del data[field]
    out.write_text(json.dumps(data))
    return out


@pytest.mark.parametrize("field", ["party", "round", "l", "c"])
def test_pick_reveal_rejects_commit_file_missing_a_field(capsys, ws, field):
    _pick_setup(capsys, ws)
    bad = _without(ws / "v.commit.json", ws / "v.bad.json", field)
    _assert_config_error(capsys, ["pick-reveal", "--state", str(ws / "c.state.json"),
                                  "--peer-commit", str(bad), "--out", str(ws / "c.reveal.json")])


@pytest.mark.parametrize("field", ["party", "round", "l", "m", "r"])
def test_pick_settle_rejects_reveal_file_missing_a_field(capsys, ws, field):
    pp = _revealed_pair(capsys, ws)
    bad = _without(ws / "v.reveal.json", ws / "v.bad.json", field)
    _assert_config_error(capsys, ["pick-settle", "--pp", str(pp), "--state",
                                  str(ws / "c.state.json"), "--peer-reveal", str(bad)])


def test_pick_settle_rejects_reveal_file_with_string_m(capsys, ws):
    pp = _revealed_pair(capsys, ws)
    bad = _rewritten(ws / "v.reveal.json", ws / "v.bad.json", m="1")
    _assert_config_error(capsys, ["pick-settle", "--pp", str(pp), "--state",
                                  str(ws / "c.state.json"), "--peer-reveal", str(bad)])


# ---------------------------------------------------------------------------
# --pp files that are not JSON objects
# ---------------------------------------------------------------------------


PP_SUBCOMMANDS = {
    "report": ["--ledger", "l.jsonl", "--meter-key", "k.json", "--seed", "1",
               "--out", "r.json", "--opening-out", "o.json"],
    "aggregate": ["--report", "r.json", "--opening", "o.json", "--out", "s.json"],
    "verify-sum": ["--report", "r.json", "--sums", "s.json"],
    "pick-commit": ["--party", "country", "--l", "5", "--seed", "1",
                    "--state", "st.json", "--out", "c.json"],
    "pick-settle": ["--state", "st.json", "--peer-reveal", "rv.json"],
}


@pytest.mark.parametrize("command", sorted(PP_SUBCOMMANDS))
@pytest.mark.parametrize("body", ["[1, 2]", '"pp/v1"', "null"])
def test_pp_file_that_is_not_an_object_is_an_input_error(capsys, ws, command, body):
    pp = ws / "pp.json"
    pp.write_text(body)
    argv = [command, "--pp", str(pp)] + [
        str(ws / a) if a.endswith((".json", ".jsonl")) else a
        for a in PP_SUBCOMMANDS[command]
    ]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out is None
    assert err["error"] == "SetupError"


# ---------------------------------------------------------------------------
# JSON nested past the parser's recursion limit
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("command", ["transcript-audit", "verify-sum", "report", "simulate"])
def test_deeply_nested_json_is_an_input_error(capsys, ws, command):
    pp, reports, _, sums = _pipeline(capsys, ws)
    deep = ws / "deep.json"
    deep.write_text("[" * 100_000 + "\n")
    argv = {
        "transcript-audit": ["--transcript", deep],
        "verify-sum": ["--pp", deep, "--report", reports[0], "--sums", sums],
        "report": ["--pp", pp, "--ledger", deep, "--meter-key", ws / "F1.key.json",
                   "--cycle", "cy-1", "--seed", "1", "--out", ws / "r.json",
                   "--opening-out", ws / "o.json"],
        "simulate": ["--scenario", deep, "--trials", "1"],
    }[command]
    assert main([command] + [str(a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err_lines = captured.err.splitlines()
    assert len(err_lines) == 1
    assert set(json.loads(err_lines[0])) == {"error", "message"}


@pytest.mark.parametrize("body", ["[1, 2]", '{"n": 3, "k": 1, "adversary": []}',
                                  '{"n": 3, "k": 1, "adversary": {"behaviors": {"F1": []}}}'])
def test_scenario_file_of_the_wrong_shape_is_an_input_error(capsys, ws, body):
    scenario = ws / "sc.json"
    scenario.write_text(body)
    code, _, err = run_cli(capsys, "simulate", "--scenario", str(scenario))
    assert code == 2 and err["error"] == "ConfigInvalid"


# ---------------------------------------------------------------------------
# simulate and transcript-audit
# ---------------------------------------------------------------------------


def test_simulate_builtin_smoke(capsys, ws):
    stats_file = ws / "stats.json"
    code, table, _ = run_cli(
        capsys, "simulate", "--scenario", "honest", "--trials", "25",
        "--seed", "4", "--out", str(stats_file),
    )
    assert code == 0
    assert table["scenario"] == "honest"
    assert table["trials"] == 25 and table["completions"] == 25
    assert table["detection_rate"] == 0.0
    assert "abort_step_histogram" in table and "chi_square_p" in table
    saved = json.loads(stats_file.read_text())
    assert saved["trials"] == 25 and "provenance" in saved


def test_simulate_detects_tamperer_at_selection_rate(capsys, ws):
    code, table, _ = run_cli(
        capsys, "simulate", "--scenario", "one-tamperer-n10-k3",
        "--trials", "1500", "--seed", "2", "--no-checks",
    )
    assert code == 0
    assert set(table["abort_step_histogram"]) == {"6"}
    assert 0.25 < table["detection_rate"] < 0.35


def test_simulate_scenario_file_and_transcript_audit(capsys, ws):
    scenario = ws / "sc.json"
    scenario.write_text(json.dumps({
        "group": "toy", "n": 3, "k": 1, "trials": 10, "seed": 5,
        "adversary": {"corrupted": [], "behaviors": {}},
    }))
    t = ws / "t.jsonl"
    code, table, _ = run_cli(
        capsys, "simulate", "--scenario", str(scenario), "--transcript", str(t),
    )
    assert code == 0 and table["trials"] == 10
    code, report, _ = run_cli(capsys, "transcript-audit", "--transcript", str(t))
    assert code == 0 and report["ok"] and report["violations"] == []

    blob = t.read_bytes()
    tampered = blob.replace(b'"m":100', b'"m":101', 1)
    assert tampered != blob
    (ws / "t_bad.jsonl").write_bytes(tampered)
    code, report, _ = run_cli(capsys, "transcript-audit",
                              "--transcript", str(ws / "t_bad.jsonl"))
    assert code == 1 and not report["ok"]


@pytest.mark.parametrize("kind, field", [("report", "m"), ("commitment", "c"),
                                         ("pick_reveal", "m")])
def test_transcript_audit_rechecks_a_payload_edited_under_its_digest(capsys, ws, kind, field):
    scenario = ws / "sc.json"
    scenario.write_text(json.dumps({
        "group": "toy", "n": 3, "k": 2, "pick_mode": "joint", "trials": 1, "seed": 5,
        "adversary": {"corrupted": [], "behaviors": {}},
    }))
    t = ws / "t.jsonl"
    code, _, _ = run_cli(capsys, "simulate", "--scenario", str(scenario), "--transcript", str(t))
    assert code == 0
    lines = [json.loads(line) for line in t.read_text().splitlines()]
    edited = next(obj for obj in lines if obj.get("kind") == kind)
    value = edited["payload"][field]
    edited["payload"][field] = value + 1 if isinstance(value, int) else value[::-1]
    assert edited["payload"][field] != value
    t.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
    code, report, _ = run_cli(capsys, "transcript-audit", "--transcript", str(t))
    assert code == 1 and not report["ok"]
    assert f"payload digest mismatch at seq {edited['seq']}" in report["violations"]


def test_simulate_unknown_scenario(capsys, ws):
    code, _, err = run_cli(capsys, "simulate", "--scenario", "mystery-meat")
    assert code == 2 and err["error"] == "ConfigInvalid"


def test_transcript_audit_reports_header_without_participants(capsys, ws):
    t = ws / "t.jsonl"
    t.write_text('{"header": {"roster": ["F1"]}}\n')
    code, report, err = run_cli(capsys, "transcript-audit", "--transcript", str(t))
    assert code == 1 and err is None
    assert not report["ok"] and report["replayed"] is None
    assert report["violations"] == ["header field 'participants' is not a list of strings"]


@pytest.mark.parametrize("missing", ["F9", "V"])
def test_transcript_audit_reports_a_viewer_missing_from_participants(capsys, ws, missing):
    """The honest scenario's header with F9 added to the roster, or V taken
    from the participants, and its config_digest recomputed: a verdict
    (exit 1), not an error."""
    t = ws / "t.jsonl"
    code, _, _ = run_cli(capsys, "simulate", "--scenario", "honest", "--trials", "1",
                         "--seed", "1", "--transcript", str(t))
    assert code == 0
    lines = [json.loads(line) for line in t.read_bytes().splitlines()]
    header = lines[0]["header"]
    if missing == "F9":
        header["roster"].append("F9")
    else:
        header["participants"].remove("V")
    header["config_digest"] = harness.config_digest(header)
    t.write_bytes(b"\n".join(map(harness.canonical_json, lines)) + b"\n")
    code, report, err = run_cli(capsys, "transcript-audit", "--transcript", str(t))
    assert code == 1 and err is None and not report["ok"]
    assert f"header field 'participants' lacks {missing!r}" in report["violations"]


def test_transcript_audit_rejects_malformed_file(capsys, ws):
    bad = ws / "junk.jsonl"
    bad.write_text("this is not a transcript\n")
    code, _, err = run_cli(capsys, "transcript-audit", "--transcript", str(bad))
    assert code == 2 and err["error"] == "TranscriptFormatError"


_TWO_LINE_HEADER = '{"header": {"participants": ["E", "C", "V", "F1"], "roster": ["F1"]}}\n'


def test_transcript_audit_rejects_event_with_string_seq(capsys, ws):
    t = ws / "t.jsonl"
    t.write_text(_TWO_LINE_HEADER + json.dumps({
        "seq": "a", "step": 1, "kind": "pp", "sender": "E", "channel": "broadcast",
        "recipient": None, "payload": {}, "digest": "00"}) + "\n")
    code, _, err = run_cli(capsys, "transcript-audit", "--transcript", str(t))
    assert code == 2 and err["error"] == "TranscriptFormatError"
    assert "'seq'" in err["message"]


def test_transcript_audit_reports_verification_list_without_v(capsys, ws):
    t = ws / "t.jsonl"
    t.write_text(_TWO_LINE_HEADER + json.dumps({
        "seq": 0, "step": 5, "kind": "verification_list", "sender": "E",
        "channel": "broadcast", "recipient": None, "payload": {}, "digest": "00"}) + "\n")
    code, report, err = run_cli(capsys, "transcript-audit", "--transcript", str(t))
    assert code == 1 and err is None and not report["ok"]
    assert "verification_list at seq 0 is not a list of firm ids" in report["violations"]


def _forge_first(blob: bytes, kind: str, edit) -> bytes:
    """blob with edit(payload) applied to its first ``kind`` event, re-digested."""
    lines = [json.loads(line) for line in blob.splitlines()]
    event = next(obj for obj in lines if obj.get("kind") == kind)
    edit(event["payload"])
    event["digest"] = harness.digest_of(event["payload"])
    return b"\n".join(harness.canonical_json(obj) for obj in lines) + b"\n"


@pytest.mark.parametrize("kind, edit, violation", [
    ("pick_settle", lambda p: p.update(index=p["index"] + 1, picked="ZZZ"),
     "pick_settle at seq 21 has index 1, the reveals give 0"),
    ("pick_reveal", lambda p: p.update(m=p["m"] + 1),
     "no pick_fault names the country, whose reveal in round 0 fails"),
], ids=["settle", "reveal"])
def test_transcript_audit_replays_the_recorded_pick(capsys, ws, kind, edit, violation):
    t = ws / "t.jsonl"
    code, _, _ = run_cli(capsys, "simulate", "--scenario", "bias-pick-zero", "--trials", "1",
                         "--seed", "3", "--transcript", str(t))
    assert code == 0
    forged = ws / "forged.jsonl"
    forged.write_bytes(_forge_first(t.read_bytes(), kind, edit))
    code, report, err = run_cli(capsys, "transcript-audit", "--transcript", str(forged))
    assert code == 1 and err is None
    assert report["violations"] == [f"pick does not replay: {violation}"]


@pytest.mark.parametrize("redigest, violations", [
    (False, ["config_digest does not match the header's roster, k, data_mode, pick_mode, "
             "cycle_id, group", "pick does not replay: pick_commit at seq 17 under pick mode "
                                "'env'"]),
    (True, ["pick does not replay: pick_commit at seq 17 under pick mode 'env'"]),
], ids=["stale-digest", "re-digested"])
def test_transcript_audit_checks_the_headers_pick_mode(capsys, ws, redigest, violations):
    """The forged settle above, with the header rewritten to say the
    environment picked: its config_digest no longer matches, and once
    re-digested, its pick events have no place in an env-pick transcript."""
    t = ws / "t.jsonl"
    code, _, _ = run_cli(capsys, "simulate", "--scenario", "bias-pick-zero", "--trials", "1",
                         "--seed", "3", "--transcript", str(t))
    assert code == 0
    lines = [json.loads(line) for line in _forge_first(
        t.read_bytes(), "pick_settle",
        lambda p: p.update(index=p["index"] + 1, picked="ZZZ")).splitlines()]
    header = lines[0]["header"]
    header["pick_mode"] = "env"
    if redigest:
        header["config_digest"] = harness.config_digest(header)
    forged = ws / "forged.jsonl"
    forged.write_bytes(b"\n".join(harness.canonical_json(obj) for obj in lines) + b"\n")
    code, report, err = run_cli(capsys, "transcript-audit", "--transcript", str(forged))
    assert code == 1 and err is None
    assert report["violations"] == violations


@pytest.mark.parametrize("base, violation", [
    ("cross", "is for round 7, not -1"),
    ("shared", "comes after round 0's first commitment"),
], ids=["resent-for-round-7", "after-the-last-settle"])
def test_transcript_audit_refuses_a_pick_base_the_engine_never_sends(capsys, ws, base, violation):
    """A cross-base transcript whose first pick_base is re-sent by the
    environment for round 7, and a shared-base one with a pick_base of the
    shared h after its last settle: neither changes a reveal's base."""
    scenario, t = ws / "scenario.json", ws / "t.jsonl"
    scenario.write_text(json.dumps({"group": "toy", "n": 5, "k": 2, "pick_mode": "joint",
                                    "pick_base_mode": base}))
    code, _, _ = run_cli(capsys, "simulate", "--scenario", str(scenario), "--trials", "1",
                         "--seed", "3", "--transcript", str(t))
    assert code == 0
    lines = [json.loads(line) for line in t.read_bytes().splitlines()]
    kinds = [obj.get("kind") for obj in lines]
    if base == "cross":
        at = kinds.index("pick_base") + 1
        forged = dict(lines[at - 1], sender="E", payload=dict(lines[at - 1]["payload"], round=7))
    else:
        at = len(kinds) - kinds[::-1].index("pick_settle")
        forged = dict(lines[at - 1], kind="pick_base", sender="V", payload={
            "committer": "country", "round": -1, "h": lines[0]["header"]["pp"]["h"]})
    lines.insert(at, dict(forged, digest=harness.digest_of(forged["payload"])))
    for seq, obj in enumerate(lines[1:-1]):
        obj["seq"] = seq
    (ws / "forged.jsonl").write_bytes(b"\n".join(map(harness.canonical_json, lines)) + b"\n")
    code, report, err = run_cli(capsys, "transcript-audit", "--transcript",
                                str(ws / "forged.jsonl"))
    assert code == 1 and err is None
    assert report["violations"] == [f"pick does not replay: pick_base at seq {at - 1} {violation}"]


_SILENT_AT_4 = {"step": 4, "culprit_role": "country", "culprit": "C", "reason": "went silent"}


@pytest.mark.parametrize("where, abort, violation", [
    ("verdict", _SILENT_AT_4, "recorded status aborted but replay says completed"),
    ("verdict", {"step": 6, "culprit_role": "firm", "culprit": "F1",
                 "reason": "ledger check failed: chain"},
     "recorded status aborted but replay says completed"),
    ("closing", _SILENT_AT_4, "the closing event is not the replay's verdict from V at step 7: "
                              '{"accepted_m":1500,"status":"completed"}'),
], ids=["silent-country", "abstract-ledger", "closing-event"])
def test_transcript_audit_takes_no_recorded_abort_on_trust(capsys, ws, where, abort, violation):
    """An honest joint-pick transcript claiming that C went silent at step 4
    (its sum is on record) or that F1's ledger failed (an abstract session
    forwards no ledger): in the verdict line, or as the closing event."""
    scenario = ws / "joint.json"
    scenario.write_text(json.dumps({"group": "toy", "n": 5, "k": 2, "pick_mode": "joint"}))
    t = ws / "t.jsonl"
    code, _, _ = run_cli(capsys, "simulate", "--scenario", str(scenario), "--trials", "1",
                         "--seed", "3", "--transcript", str(t))
    assert code == 0
    lines = [json.loads(line) for line in t.read_bytes().splitlines()]
    if where == "verdict":
        lines[-1]["verdict"].update(status="aborted", accepted_m=None, abort=abort)
    else:
        assert lines[-2]["kind"] == "verdict"
        lines[-2].update(kind="abort", sender="E", payload=abort, digest=harness.digest_of(abort))
    forged = ws / "forged.jsonl"
    forged.write_bytes(b"\n".join(harness.canonical_json(obj) for obj in lines) + b"\n")
    code, report, err = run_cli(capsys, "transcript-audit", "--transcript", str(forged))
    assert code == 1 and err is None
    assert report["violations"] == [violation]


@pytest.fixture(scope="module")
def engine_transcripts():
    """Recorded toy sessions: completed, aborted at the spot check, joint pick."""
    blobs = []
    for name, seed in (("honest", 1), ("one-tamperer-always-picked", 2), ("bias-pick-zero", 3)):
        scenario = harness.load_scenario(name)
        result = harness.run_session(scenario.config, scenario.adversary, seed=seed)
        blobs.append(result.transcript.to_jsonl())
    return blobs


# One byte edit: (operation, position, span, bytes).  A digit or letter
# written over a hex digit or a number keeps the line valid JSON, so the
# audit runs past the parser; structural bytes and raw binary hit the parser.
_BYTE_EDIT = st.tuples(
    st.sampled_from(["set", "set", "delete", "insert"]),
    st.integers(min_value=0, max_value=1 << 20),
    st.integers(min_value=1, max_value=16),
    st.sampled_from([b"0", b"7", b"a", b"F", b"-"])
    | st.sampled_from([b'"', b"{", b"}", b"[", b"]", b",", b":", b"\n", b"null", b"true",
                       b'"F1"', b"1e999", b"\xff"])
    | st.binary(min_size=1, max_size=4),
)


def _mutate(blob: bytes, edits) -> bytes:
    data = bytearray(blob)
    for op, pos, span, chunk in edits:
        i = pos % (len(data) + 1)
        if op == "set":
            data[i:i + len(chunk)] = chunk
        elif op == "delete":
            del data[i:i + span]
        else:
            data[i:i] = chunk
    return bytes(data)


def _exit_contract(argv):
    """Runs the CLI in-process and checks the exit-code contract: 0, 1 or 2;
    exit 2 prints one {"error", "message"} line on stderr and nothing on
    stdout; exits 0 and 1 print one verdict line on stdout and nothing on
    stderr.  Returns the exit code and the verdict (None on exit 2)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    out_lines, err_lines = out.getvalue().splitlines(), err.getvalue().splitlines()
    assert code in (0, 1, 2)
    event(f"{argv[0]} exit {code}")
    if code == 2:
        assert out_lines == [] and len(err_lines) == 1
        assert set(json.loads(err_lines[0])) == {"error", "message"}
        return code, None
    assert err_lines == [] and len(out_lines) == 1
    return code, json.loads(out_lines[0])


@settings(max_examples=300, deadline=None)
@given(which=st.integers(min_value=0, max_value=2),
       edits=st.lists(_BYTE_EDIT, min_size=1, max_size=3))
def test_transcript_audit_exit_contract_on_mutated_transcripts(
        engine_transcripts, tmp_path_factory, which, edits):
    path = tmp_path_factory.getbasetemp() / "mutated.jsonl"
    path.write_bytes(_mutate(engine_transcripts[which], edits))
    code, verdict = _exit_contract(["transcript-audit", "--transcript", path])
    if code != 2:
        assert verdict["ok"] is (code == 0)
        assert code == 0 or verdict["violations"]


@settings(max_examples=60, deadline=None)
@given(which=st.integers(min_value=0, max_value=2), index=st.integers(min_value=0),
       digest=st.text("0123456789abcdef", max_size=64))
def test_transcript_audit_flags_a_wrong_payload_digest(
        engine_transcripts, tmp_path_factory, which, index, digest):
    """One event's digest is replaced, its payload left as recorded: the
    file parses, replays as before, and fails only the digest recheck."""
    lines = engine_transcripts[which].splitlines(keepends=True)
    seq = index % (len(lines) - 2)  # between the header and the verdict line
    event = json.loads(lines[1 + seq])
    assert event["seq"] == seq
    assume(digest != event["digest"])
    event["digest"] = digest
    lines[1 + seq] = harness.canonical_json(event) + b"\n"
    path = tmp_path_factory.getbasetemp() / "wrong-digest.jsonl"
    path.write_bytes(b"".join(lines))
    code, verdict = _exit_contract(["transcript-audit", "--transcript", path])
    assert code == 1
    assert verdict["violations"] == [f"payload digest mismatch at seq {seq}"]
    assert verdict["replayed"] == verdict["recorded"]


@pytest.fixture()
def secp_pipeline(capsys, ws):
    return _pipeline(capsys, ws, group="secp256k1")


_NOT_A_STRING = st.one_of(st.integers(), st.lists(st.integers(), max_size=2),
                         st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(where=st.sampled_from(["type", "strategy", "group", "firm", "cycle_id"]),
       value=_NOT_A_STRING)
def test_simulate_exit_contract_on_mistyped_scenario_fields(ws, where, value):
    """A behavior's type or strategy, the group, a firm entry or the cycle id
    of the wrong JSON type is an input error that names its field."""
    scenario = {"group": "toy", "k": 1, "trials": 1, "firms": [{"id": "F1", "m": 1}],
                "adversary": {"corrupted": ["C"], "behaviors": {"C": {"type": "bias_pick"}}}}
    if where in ("type", "strategy"):
        scenario["adversary"]["behaviors"]["C"][where] = value
    elif where == "firm":
        assume(not isinstance(value, dict))
        scenario["firms"].append(value)
    else:
        scenario[where] = value
    path = ws / "mistyped.json"
    path.write_text(json.dumps(scenario))
    assert _exit_contract(["simulate", "--scenario", path]) == (2, None)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        main(["simulate", "--scenario", str(path)])
    message = json.loads(err.getvalue())["message"]
    assert not message.startswith("bad scenario")
    assert {"firm": "'firms' entry 1", "cycle_id": "cycle id"}.get(where, f"'{where}'") in message


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(which=st.sampled_from(["report", "commitment", "opening", "sums"]),
       edits=st.lists(_BYTE_EDIT, min_size=1, max_size=3))
def test_aggregate_and_verify_sum_exit_contract_on_mutated_files(
        secp_pipeline, ws, which, edits):
    """Byte edits to F1's report, to the commitment bytes inside it (the
    file stays valid), to F1's opening, or to the sums file."""
    pp, reports, openings, sums = secp_pipeline
    bad = ws / f"mutated-{which}.json"
    if which == "commitment":
        data = json.loads(reports[0].read_text())
        c = data["c"]
        data["c"] = _mutate(bytes.fromhex(c), edits).hex()
        changed = data["c"] != c
        bad.write_text(json.dumps(data))
    else:
        original = {"report": reports[0], "opening": openings[0], "sums": sums}[which]
        bad.write_bytes(_mutate(original.read_bytes(), edits))
    report = reports[0] if which in ("opening", "sums") else bad
    opening = bad if which == "opening" else openings[0]
    # A rejection names the firm whose file failed; the sum check may also
    # blame the country.  Files behind an exit 1 parsed, so they name a firm.
    if which != "sums":
        code, verdict = _exit_contract(_aggregate_args(
            pp, ws / "s.json", [report, reports[1]], [opening, openings[1]]))
        if which == "commitment":
            assert code == (1 if changed else 0)
        if code != 2:
            assert verdict["verdict"] == ("ACCEPT" if code == 0 else "REJECT")
            assert code == 0 or verdict["culprit"] == json.loads(bad.read_text())["firm_id"]
    if which != "opening":
        code, verdict = _exit_contract(_verify_sum_args(
            pp, [report, reports[1]], bad if which == "sums" else sums))
        if which == "commitment":
            assert code == (1 if changed else 0)
        if code != 2:
            assert verdict["verdict"] == ("ACCEPT" if code == 0 else "REJECT")
            firm = json.loads(report.read_text())["firm_id"] if code else None
            assert code == 0 or verdict["culprit"] in ("country", firm)


_G_HEX = production_group().encode_point(production_group().generator).hex()
_G = production_group().generator
_G_X, _G_Y = f"{_G.x:064x}", f"{_G.y:064x}"
_NEG_G = -_G  # its y is odd, G's is even
_SECP_P = 2**256 - 2**32 - 977
_X_AT_Y1 = pow(-6 % _SECP_P, (_SECP_P + 2) // 9, _SECP_P)  # x^3 + 7 = 1^2, as p = 7 mod 9


@pytest.mark.parametrize("c", [
    f"02{5:064x}",  # x = 5 is not on the curve
    f"02{2**256 - 2**32 - 977:064x}",  # x = p is not a field element
    "04" + _G_HEX[2:],  # uncompressed prefix
    _G_HEX[:-2],  # 32 bytes
    "not hex",
    f"04{_G_X}{_G.y + 1:064x}",  # (x, y + 1) is not on the curve
    f"06{_G_X}{_G_Y}",  # hybrid prefix, y even
    f"07{_NEG_G.x:064x}{_NEG_G.y:064x}",  # hybrid prefix, y odd
    f"02{_G_X}{_G_Y}",  # compressed prefix at 65 bytes
    f"04{_SECP_P:064x}{_G_Y}",  # x = p is not a field element
    f"04{_X_AT_Y1:064x}{_SECP_P + 1:064x}",  # (x, 1) is on the curve; y = p + 1 is not canonical
])
def test_undecodable_commitment_is_rejected_naming_the_firm(capsys, ws, c):
    pp, reports, openings, sums = _pipeline(capsys, ws, group="secp256k1")
    bad = _rewritten(reports[1], ws / "bad_c.json", c=c)
    code, verdict, err = run_cli(capsys, *_aggregate_args(
        pp, ws / "s2.json", [reports[0], bad], openings))
    assert code == 1 and err is None
    assert verdict == {"verdict": "REJECT", "step": 3, "culprit": "F2",
                       "reason": verdict["reason"]}
    assert verdict["reason"].startswith("malformed commitment")
    code, verdict, err = run_cli(capsys, *_verify_sum_args(pp, [reports[0], bad], sums))
    assert code == 1 and err is None
    assert verdict["verdict"] == "REJECT" and verdict["step"] == 7
    assert verdict["culprit"] == "F2"


@pytest.mark.parametrize("compressed", [(True, True), (True, False), (False, True)],
                         ids=["both", "first", "second"])
def test_compressed_commitments_still_accept(capsys, ws, compressed):
    """`report` writes c uncompressed (65 bytes); a report/v1 file whose c
    is the 33-byte compressed form of the same point, alone or next to an
    uncompressed one, gives the same ACCEPT and the same m."""
    pp, reports, openings, sums = _pipeline(capsys, ws, group="secp256k1")
    group = production_group()
    written = [json.loads(rep.read_text())["c"] for rep in reports]
    assert [len(c) for c in written] == [130, 130]
    mixed = [
        _rewritten(rep, ws / f"compressed-{i}.json",
                   c=group.encode_point(group.decode_point(bytes.fromhex(c))).hex())
        if squeeze else rep
        for i, (rep, c, squeeze) in enumerate(zip(reports, written, compressed))
    ]
    assert [len(json.loads(rep.read_text())["c"]) for rep in mixed] == [
        66 if squeeze else 130 for squeeze in compressed]
    m = json.loads(sums.read_text())["m"]
    code, verdict, _ = run_cli(capsys, *_aggregate_args(pp, ws / "s2.json", mixed, openings))
    assert code == 0 and verdict["verdict"] == "ACCEPT" and verdict["m"] == m
    assert json.loads((ws / "s2.json").read_text())["r"] == json.loads(sums.read_text())["r"]
    for sums_file in (sums, ws / "s2.json"):
        code, verdict, _ = run_cli(capsys, *_verify_sum_args(pp, mixed, sums_file))
        assert code == 0 and verdict == {"verdict": "ACCEPT", "m": m, "n": 2}


# ---------------------------------------------------------------------------
# JSON booleans are not integers
# ---------------------------------------------------------------------------


def test_verify_sum_rejects_boolean_m_as_input_error(capsys, ws):
    pp, reports, _, sums = _pipeline(capsys, ws)
    bad = _rewritten(sums, ws / "true.json", m=True)
    _assert_config_error(capsys, _verify_sum_args(pp, reports, bad))


def test_aggregate_rejects_boolean_m_naming_the_firm(capsys, ws):
    # F1's commitment is to 1, so an opening "m": true (== 1 as a Python
    # int) would open it; it must be rejected as out of range instead.
    pp, reports, openings, _ = _pipeline(capsys, ws)
    params = commitment.params_from_dict(json.loads(pp.read_text()))
    r = params.group.decode_scalar(bytes.fromhex(json.loads(openings[0].read_text())["r"]))
    c = commitment.commit(params, params.group.scalar(1), r)
    report = _rewritten(reports[0], ws / "r1.json", c=params.group.encode_point(c).hex())
    opening = _rewritten(openings[0], ws / "o1.json", m=True)
    code, verdict, _ = run_cli(capsys, *_aggregate_args(
        pp, ws / "s.json", [report, reports[1]], [opening, openings[1]]))
    assert code == 1
    assert verdict == {"verdict": "REJECT", "step": 3, "culprit": "F1",
                       "reason": "reported total True out of range"}


@pytest.mark.parametrize("m, shown", [("12", "'12'"), (1.5, "1.5"), (None, "None")],
                         ids=["string", "float", "null"])
def test_aggregate_shows_a_non_integer_total_as_sent(capsys, ws, m, shown):
    # The JSON string "12" must not read like the integer 12 in the reason.
    pp, reports, openings, _ = _pipeline(capsys, ws)
    opening = _rewritten(openings[0], ws / "o1.json", m=m)
    code, verdict, _ = run_cli(capsys, *_aggregate_args(
        pp, ws / "s.json", reports, [opening, openings[1]]))
    assert code == 1
    assert verdict == {"verdict": "REJECT", "step": 3, "culprit": "F1",
                       "reason": f"reported total {shown} out of range"}


@pytest.mark.parametrize("field", ["round", "l", "m"])
def test_pick_settle_rejects_reveal_file_with_boolean_field(capsys, ws, field):
    pp = _revealed_pair(capsys, ws)
    bad = _rewritten(ws / "v.reveal.json", ws / "v.bad.json", **{field: True})
    _assert_config_error(capsys, ["pick-settle", "--pp", str(pp), "--state",
                                  str(ws / "c.state.json"), "--peer-reveal", str(bad)])


# ---------------------------------------------------------------------------
# --report / --opening: one flag with many paths, or one flag per path
# ---------------------------------------------------------------------------


def test_one_flag_and_repeated_flags_give_identical_output(capsys, ws):
    pp, reports, openings, sums = _pipeline(capsys, ws)
    results = []
    for repeated in (True, False):
        if repeated:
            aggregate = _aggregate_args(pp, sums, reports, openings)
            verify = _verify_sum_args(pp, reports, sums)
        else:
            aggregate = ["aggregate", "--pp", str(pp), "--out", str(sums),
                         "--report", *map(str, reports), "--opening", *map(str, openings)]
            verify = ["verify-sum", "--pp", str(pp), "--sums", str(sums),
                      "--report", *map(str, reports)]
        assert main(aggregate) == 0
        aggregated = capsys.readouterr().out
        sums_bytes = sums.read_bytes()
        assert main(verify) == 0
        results.append((aggregated, sums_bytes, capsys.readouterr().out))
    assert results[0] == results[1]
    # The forms mix: one flag may carry several paths, another only one.
    mixed = ["aggregate", "--pp", str(pp), "--out", str(ws / "mixed.json"),
             "--report", *map(str, reports), "--opening", str(openings[0]),
             "--opening", str(openings[1])]
    assert main(mixed) == 0 and (ws / "mixed.json").read_bytes() == results[0][1]


# ---------------------------------------------------------------------------
# Exit-code contract of report and of the pick exchange on mutated files
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(which=st.sampled_from(["ledger", "meter-key"]),
       edits=st.lists(_BYTE_EDIT, min_size=1, max_size=3))
def test_report_exit_contract_on_mutated_files(capsys, ws, which, edits):
    """report has no verdict to give: it succeeds, or fails with exit 2."""
    if not (ws / "pp.json").exists():
        _pipeline(capsys, ws)
    ledger, key = ws / "F1.jsonl", ws / "F1.key.json"
    bad = ws / f"mutated-{which}"
    bad.write_bytes(_mutate((ledger if which == "ledger" else key).read_bytes(), edits))
    code, _ = _exit_contract([
        "report", "--pp", ws / "pp.json", "--ledger", bad if which == "ledger" else ledger,
        "--meter-key", bad if which == "meter-key" else key, "--cycle", "cy-1",
        "--seed", "1", "--out", ws / "r.json", "--opening-out", ws / "o.json"])
    assert code in (0, 2)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(which=st.sampled_from(["pp", "state", "peer-commit", "settle-state", "peer-reveal"]),
       edits=st.lists(_BYTE_EDIT, min_size=1, max_size=3))
def test_pick_exit_contract_on_mutated_files(capsys, ws, which, edits):
    """pick-commit and pick-reveal give no verdict (exit 0 or 2); pick-settle
    exits 1 only with a FAULT verdict.  Each run reads fresh copies, since
    pick-reveal rewrites its state file."""
    if not (ws / "c.reveal.json").exists():
        _revealed_pair(capsys, ws)
    pp = ws / "pp.json"
    sources = {"pp": pp, "state": ws / "c.state.json", "peer-commit": ws / "v.commit.json",
               "settle-state": ws / "c.state.json", "peer-reveal": ws / "v.reveal.json"}
    files = {}
    for name, path in sources.items():
        files[name] = ws / f"run-{name}.json"
        data = path.read_bytes()
        files[name].write_bytes(_mutate(data, edits) if name == which else data)
    if which == "pp":
        argv = ["pick-commit", "--pp", files["pp"], "--party", "country", "--l", "5",
                "--state", ws / "run-out-state.json", "--out", ws / "run-out.json"]
    elif which in ("state", "peer-commit"):
        argv = ["pick-reveal", "--state", files["state"], "--peer-commit",
                files["peer-commit"], "--out", ws / "run-out.json"]
    else:
        argv = ["pick-settle", "--pp", pp, "--state", files["settle-state"],
                "--peer-reveal", files["peer-reveal"]]
    code, verdict = _exit_contract(argv)
    if argv[0] == "pick-settle" and code != 2:
        assert verdict["verdict"] == ("SETTLED" if code == 0 else "FAULT")
    else:
        assert code in (0, 2)


def test_pick_settle_refuses_a_roster_that_names_a_firm_twice(capsys, ws):
    """Exit 2, as run_pick refuses duplicate candidates."""
    pp = _revealed_pair(capsys, ws)
    code, out, err = run_cli(
        capsys, "pick-settle", "--pp", str(pp), "--state", str(ws / "c.state.json"),
        "--peer-reveal", str(ws / "v.reveal.json"), "--roster", "F1,F2,F3,F4,F1")
    assert code == 2 and out is None
    assert err == {"error": "PickError", "message": "duplicate candidates"}


# ---------------------------------------------------------------------------
# Repeated list flags are merged before argparse sees them
# ---------------------------------------------------------------------------


def _parsed(argv):
    """build_parser().parse_args(argv), or its exit code and its output
    where it exits (help, or a usage error)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            return build_parser().parse_args(argv)
        except SystemExit as exc:
            return ("exit", exc.code, out.getvalue())


_PLAIN = st.sampled_from(["a.json", "b.json", "c", "-"])
_ODD_VALUE = st.sampled_from(["", "x y", "-5", "-x", "--", "--report", "--pp"])
_EXACT_FLAG = st.sampled_from(["--report", "--opening", "--pp", "--out", "--sums"])
_ODD_FLAG = st.sampled_from(["--rep", "--op", "--o", "--reportx", "-h"])
# Blocks the rewrite may not merge: abbreviations, unknown flags, dash
# values, "--" and flags without a value.
_ODD_BLOCK = st.one_of(
    st.tuples(_EXACT_FLAG | _ODD_FLAG, st.lists(_PLAIN | _ODD_VALUE, max_size=3)).map(
        lambda t: [t[0], *t[1]]),
    st.tuples(st.sampled_from(["--report=", "--opening=", "--pp=", "--rep="]),
              _PLAIN | _ODD_VALUE).map(lambda t: [t[0] + t[1]]),
    (_PLAIN | _ODD_VALUE).map(lambda v: [v]),
)


@st.composite
def _list_flag_argv(draw):
    command = draw(st.sampled_from(["aggregate", "verify-sum"]))
    exact = {"aggregate": ["--report", "--opening", "--pp", "--out"],
             "verify-sum": ["--report", "--pp", "--sums"]}[command]
    # An exact flag with plain values: argv made of these alone is merged.
    clean = st.tuples(st.sampled_from(exact), st.lists(_PLAIN, min_size=1, max_size=3)).map(
        lambda t: [t[0], *t[1]])
    if draw(st.booleans()):  # half of the examples mix in odd blocks, "--flag=value" among them
        clean = st.one_of(clean, clean, _ODD_BLOCK)
    blocks = draw(st.lists(clean, max_size=10))
    # Mostly with every required flag given, so that a parse that differs
    # shows as a namespace or an error of its own.
    required = draw(st.sampled_from([[], exact, exact]))
    return [command] + [t for flag in required for t in (flag, "r")] + [
        token for block in blocks for token in block]


@settings(max_examples=300, deadline=None)
@given(argv=_list_flag_argv())
def test_merged_list_flags_parse_like_the_original(argv):
    """Interleaved and mixed flag forms, "-" and dash values, abbreviations,
    unknown flags, "--" and flags without a value: the rewritten argv gives
    an equal namespace, or the same exit code and message."""
    merged = _coalesce_list_flags(argv)
    event("merged" if merged != argv else "unchanged")
    assert _parsed(merged) == _parsed(argv)


def test_repeated_list_flags_become_one_flag_each():
    argv = _aggregate_args("pp.json", "s.json", ["r1", "r2", "r3"], ["o1", "o2", "o3"])
    assert _coalesce_list_flags(argv) == [
        "aggregate", "--pp", "pp.json", "--out", "s.json",
        "--report", "r1", "r2", "r3", "--opening", "o1", "o2", "o3"]
    argv = ["verify-sum", "--report", "r1", "--pp", "p", "--report", "r2", "-", "--sums", "s",
            "--report", "r3"]
    assert _coalesce_list_flags(argv) == ["verify-sum", "--pp", "p", "--sums", "s",
                                          "--report", "r1", "r2", "-", "r3"]
    # The perfbench cli-n500 shape: 500 of each list flag, one flag each after.
    reports = [t for i in range(500) for t in ("--report", f"f{i}.report")]
    openings = [t for i in range(500) for t in ("--opening", f"f{i}.opening")]
    merged = _coalesce_list_flags(["aggregate", "--pp", "pp", *reports, *openings,
                                   "--out", "s"])
    assert merged == ["aggregate", "--pp", "pp", "--out", "s",
                      "--report", *reports[1::2], "--opening", *openings[1::2]]
    # "--flag=value" and "--" are not merged: argparse reads argv as given.
    argv = ["verify-sum", "--report=r1", "--pp", "p", "--report", "r2", "-", "--sums", "s",
            "--report", "r3"]
    assert _coalesce_list_flags(argv) is argv
    assert _parsed(argv).report == ["r1", "r2", "-", "r3"]
    argv = ["verify-sum", "--pp", "p", "--sums", "s", "--report", "r1", "--", "--report"]
    assert _coalesce_list_flags(argv) is argv


def test_list_flag_tables_match_the_parser():
    """A flag missing from _LIST_FLAGS / _OTHER_FLAGS turns the merge off, and
    the subcommand's repeated flags back to a quadratic parse."""
    (subparsers,) = [a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    with_lists = set()
    for command, sp in subparsers.choices.items():
        lists = {s for a in sp._actions if isinstance(a, argparse._ExtendAction)
                 for s in a.option_strings}
        others = {s for a in sp._actions if not isinstance(a, argparse._ExtendAction)
                  for s in a.option_strings}
        if lists:
            with_lists.add(command)
            assert set(_LIST_FLAGS[command]) == lists, command
            assert set(_OTHER_FLAGS[command]) == others, command
    assert with_lists == _LIST_FLAGS.keys() == _OTHER_FLAGS.keys()


# ---------------------------------------------------------------------------
# CLI processes build no fixed-base table
# ---------------------------------------------------------------------------


def test_cli_subcommands_build_no_fixed_base_table(capsys, ws, table_builds):
    """setup, ingest, report, aggregate, verify-sum, the pick exchange and
    transcript-audit on secp256k1 commit and check one at a time; simulate
    runs sessions, whose first batch builds the two tables once."""
    pp, reports, _, sums = _pipeline(capsys, ws, group="secp256k1")
    assert main(_verify_sum_args(pp, reports, sums)) == 0
    _revealed_pair(capsys, ws, group="secp256k1")
    code, out, _ = run_cli(capsys, "pick-settle", "--pp", str(pp), "--state",
                           str(ws / "c.state.json"), "--peer-reveal", str(ws / "v.reveal.json"))
    assert code == 0 and out["verdict"] == "SETTLED"
    assert table_builds == []
    scenario = ws / "sc.json"
    scenario.write_text(json.dumps({"group": "secp256k1", "n": 3, "k": 1, "seed": 5}))
    t = ws / "t.jsonl"
    code, _, _ = run_cli(capsys, "simulate", "--scenario", str(scenario), "--trials", "3",
                         "--transcript", str(t))
    assert code == 0 and len(table_builds) == 2
    table_builds.clear()
    code, report, _ = run_cli(capsys, "transcript-audit", "--transcript", str(t))
    assert code == 0 and report["ok"]
    assert table_builds == []


# ---------------------------------------------------------------------------
# Exit-code contract of ingest and simulate on mutated files
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(which=st.sampled_from(["readings", "meter-key"]),
       edits=st.lists(_BYTE_EDIT, min_size=1, max_size=3))
def test_ingest_exit_contract_on_mutated_files(ws, which, edits):
    """ingest has no verdict to give: it succeeds, or fails with exit 2."""
    csv, key = ws / "F1.csv", ws / "F1.key.json"
    if not key.exists():
        _write_csv(csv, [(f"2026-04-01T{h:02d}:00:00Z", 40 + h) for h in range(4)])
        assert _exit_contract(["ingest", "--firm-id", "F1", "--readings", csv,
                               "--ledger", ws / "F1.jsonl", "--meter-key", key,
                               "--seed", "3"])[0] == 0
    bad = ws / f"mutated-{which}"
    bad.write_bytes(_mutate((csv if which == "readings" else key).read_bytes(), edits))
    ledger = ws / "fuzz.jsonl"
    ledger.unlink(missing_ok=True)
    code, _ = _exit_contract([
        "ingest", "--firm-id", "F1", "--readings", bad if which == "readings" else csv,
        "--ledger", ledger, "--meter-key", bad if which == "meter-key" else key])
    assert code in (0, 2)


_SCENARIOS = [
    {"group": "toy", "n": 4, "k": 2, "pick_mode": "joint", "seed": 5, "trials": 2,
     "adversary": {"corrupted": ["F2", "C"],
                   "behaviors": {"F2": {"type": "tamper_report", "delta": 3},
                                 "C": {"type": "bias_pick", "strategy": "zero"}}}},
    {"group": "toy", "k": 1, "pick_fault_policy": "abort", "trials": 3,
     "firms": [{"id": "F1", "m": 40}, {"id": "F2", "m": 7}],
     "adversary": {"corrupted": ["V"], "behaviors": {"V": {"type": "inconsistent_reveal"}}}},
]


def _leaf_paths(obj, path=()):
    """Paths to every value inside a JSON object, containers included."""
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _leaf_paths(value, path + (key,))


def _replaced(obj, path, value):
    if not path:
        return value
    copy = dict(obj) if isinstance(obj, dict) else list(obj)
    copy[path[0]] = _replaced(obj[path[0]], path[1:], value)
    return copy


# JSON values of every type, the ones Python mistakes for ints among them,
# and an integer past every size bound.
_ODD_JSON = st.sampled_from([1e999, -1e999, 1.5, -1, 0, 2**64, True, False, None, "3", "",
                             [], {}, [1], {"type": "abort_at"}])


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(which=st.integers(min_value=0, max_value=len(_SCENARIOS) - 1),
       edits=st.lists(_BYTE_EDIT, min_size=1, max_size=3),
       value_edit=st.none() | st.tuples(st.integers(min_value=0), _ODD_JSON))
def test_simulate_exit_contract_on_mutated_scenario_files(ws, which, edits, value_edit):
    """simulate prints statistics, not a verdict: exit 0 or 2.  The file
    gets byte edits, or one of its values is replaced by an odd one."""
    data = _SCENARIOS[which]
    if value_edit is None:
        blob = _mutate(json.dumps(data).encode(), edits)
    else:
        paths = list(_leaf_paths(data))
        blob = json.dumps(_replaced(data, paths[value_edit[0] % len(paths)], value_edit[1])).encode()
    scenario = ws / "mutated-scenario.json"
    scenario.write_bytes(blob)
    code, _ = _exit_contract(["simulate", "--scenario", scenario, "--trials", "1"])
    assert code in (0, 2)


@pytest.mark.parametrize("body", [
    '{"n": 1e999, "k": 1}',
    '{"n": 3, "k": 1, "seed": 1e999}',
    '{"k": 1, "firms": [{"id": "F1", "m": 1e999}]}',
    '{"k": 1, "firms": [{"id": 1e999, "m": 5}]}',
    '{"k": 1, "firms": [{"id": 7, "m": 5}]}',
    '{"n": 3, "k": 1, "adversary": {"corrupted": ["F1"],'
    ' "behaviors": {"F1": {"type": "tamper_report", "delta": 1e999}}}}',
    '{"n": 3, "k": 1, "adversary": {"corrupted": ["F1"],'
    ' "behaviors": {"F1": {"type": "tamper_report", "absolute": 2.5}}}}',
    '{"n": 3, "k": 1, "adversary": {"corrupted": ["C"],'
    ' "behaviors": {"C": {"type": "misreport_sum", "dr": 1.5}}}}',
    '{"n": 3, "k": 1, "adversary": {"corrupted": ["C"],'
    ' "behaviors": {"C": {"type": "abort_at", "step": true}}}}',
    '{"n": 3, "k": 1, "pick_mode": "joint", "adversary": {"corrupted": ["V"],'
    ' "behaviors": {"V": {"type": "inconsistent_reveal", "round": "0"}}}}',
])
def test_scenario_file_with_mistyped_numbers_is_an_input_error(capsys, ws, body):
    """Infinite or fractional numbers, JSON booleans and non-string firm ids
    are input errors (exit 2), not tracebacks during the trials."""
    scenario = ws / "sc.json"
    scenario.write_text(body)
    code, _, err = run_cli(capsys, "simulate", "--scenario", str(scenario), "--trials", "1")
    assert code == 2 and err["error"] == "ConfigInvalid"


@pytest.mark.parametrize("field,body", [
    ("trials", '{"group": "toy", "n": 3, "k": 1, "trials": 1e999}'),
    ("trials", '{"n": 3, "k": 1, "trials": 2.5}'),
    ("trials", '{"n": 3, "k": 1, "trials": true}'),
    ("trials", '{"n": 3, "k": 1, "trials": "7"}'),
    ("trials", '{"n": 3, "k": 1, "trials": 0}'),
    ("trials", '{"n": 3, "k": 1, "trials": 10000001}'),
    ("n", '{"n": "3", "k": 1}'),
    ("n", '{"n": 3.0, "k": 1}'),
    ("n", '{"n": -1, "k": 0}'),
    ("n", '{"n": 100001, "k": 1}'),
    ("n", '{"n": 18446744073709551616, "k": 1}'),
    ("k", '{"n": 3, "k": true}'),
    ("k", '{"n": 3, "k": 18446744073709551616}'),
    ("seed", '{"n": 3, "k": 1, "seed": "7"}'),
    ("m", '{"k": 1, "firms": [{"id": "F1", "m": 1.9}]}'),
    ("m", '{"k": 1, "firms": [{"id": "F1", "m": "2"}]}'),
])
def test_scenario_numbers_must_be_bounded_integers(capsys, ws, field, body):
    """Scenario numbers are checked, not coerced with int(), and a size past
    its bound is refused before any firm is built; the message names the
    field.  A command-line --trials does not excuse a bad file value."""
    scenario = ws / "sc.json"
    scenario.write_text(body)
    code, _, err = run_cli(capsys, "simulate", "--scenario", str(scenario), "--trials", "1")
    assert code == 2 and err["error"] == "ConfigInvalid"
    assert repr(field) in err["message"]
