"""Batch command-line front end.

Subcommands cover the full operator workflow: parameter setup, meter-data
ingestion, committed reporting, country-side aggregation, the public sum
check, the two-operator random pick (commit / reveal / settle exchanged as
files, so no shared process state is needed), bulk simulation, and
independent transcript auditing.

Conventions: secrets come from the OS CSPRNG unless ``--seed`` asks for a
deterministic replay; every output file embeds a provenance block with the
SHA-256 of each input file, never a seed; exit code 0 means success/accept,
1 means a protocol-level rejection or fault (verdict JSON on stdout), 2
means an error (JSON with the error class on stderr).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import sys

from . import __version__
from . import harness as hz
from . import measurement as ms
from . import pick as pk
from .audit import ConfigInvalid, country_sums, examine, sum_check
from .commitment import commit, is_int, params_from_dict, params_to_dict, setup
from .groups import GroupError, group_by_name

MODE_ALIASES = {
    "hash": "hash_derived",
    "hash_derived": "hash_derived",
    "trusted": "trusted",
}


def _sha256(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


_READ_FLAGS = os.O_RDONLY | getattr(os, "O_BINARY", 0)
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)


def _read_bytes(path: str) -> bytes:
    """The file's bytes, read to EOF through one descriptor.  Raises the
    OSError that open() would, naming the path (a directory opens, and
    os.read's IsADirectoryError alone does not name it)."""
    fd = os.open(path, _READ_FLAGS)
    try:
        chunks = []
        while chunk := os.read(fd, 1 << 16):
            chunks.append(chunk)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        os.close(fd)
    return b"".join(chunks)


def _file_digest(path: str) -> str:
    return _sha256(_read_bytes(path))


def _provenance(command: str, **digests) -> dict:
    """The provenance block: each input's SHA-256, by input name."""
    return {
        "command": command,
        "inputs": dict(sorted(digests.items())),
        "tool": f"emissions-audit {__version__}",
    }


def _secret_rng(seed: int | None, *labels) -> random.Random:
    """OS randomness, or a replayable stream derived from ``--seed``."""
    if seed is None:
        return random.SystemRandom()
    return random.Random(hz.derive_seed(seed, *labels))


def _write_file(path: str, data: bytes, secret: bool = False, replace: bool = True) -> None:
    """Write ``data`` as the whole file at ``path``.

    A public file (the default) goes to a temporary file beside ``path``,
    which then replaces it, so no reader sees half a file.  A secret is
    owner-only (0600) and fsynced: with ``replace=False`` it is created at
    ``path`` and never replaces a file (FileExistsError names ``path``),
    else it replaces ``path`` through a 0600 temporary file."""
    target = f"{path}.{os.getpid()}-{os.urandom(4).hex()}.tmp" if replace else path
    fd = os.open(target, _WRITE_FLAGS, 0o600 if secret else 0o666)
    try:
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            if secret:
                os.fsync(fd)
        finally:
            os.close(fd)
        if replace:
            os.replace(target, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(target)
        raise


def _write_json(path: str, obj: dict, **kind) -> None:
    """``obj`` as indented JSON, written by _write_file with ``kind``."""
    _write_file(path, (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode(), **kind)


def _read_json(path: str, digests: dict | None = None):
    """The JSON value in the file, read once as bytes and decoded as UTF-8
    (json.loads of the bytes would also take a BOM or UTF-16); ``digests``,
    if given, gets the SHA-256 of those bytes under ``path``."""
    raw = _read_bytes(path)
    if digests is not None:
        digests[path] = _sha256(raw)
    try:
        return json.loads(raw.decode("utf-8"))
    except RecursionError:
        raise ConfigInvalid(f"{path}: JSON nested too deeply") from None


def _read_format(path: str, fmt: str, digests: dict | None = None, **fields) -> dict:
    """A JSON object whose ``format`` field is ``fmt`` and whose named
    fields have the given types (never bool); ConfigInvalid otherwise."""
    data = _read_json(path, digests)
    if not isinstance(data, dict) or data.get("format") != fmt:
        raise ConfigInvalid(f"{path} is not a {fmt} file")
    for name, kind in fields.items():
        value = data.get(name)
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ConfigInvalid(f"{path} lacks a {kind.__name__} field {name!r}")
    return data


# Typed fields of the pick exchange files, beyond their format.
_PICK_ROUND = {"party": str, "round": int, "l": int}
_PICK_COMMIT = {**_PICK_ROUND, "c": str}
_PICK_OPENING = {**_PICK_ROUND, "m": int, "r": str}


def _emit(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True))


def _reject(step: int, culprit: str, reason: str) -> int:
    _emit({"verdict": "REJECT", "step": step, "culprit": culprit, "reason": reason})
    return 1


def _load_pp(path: str, digests: dict | None = None):
    return params_from_dict(_read_json(path, digests))


def _resolve_group(name: str):
    try:
        return group_by_name(name)
    except GroupError:
        raise ConfigInvalid(f"unknown group {name!r}") from None


def _resolve_mode(name: str) -> str:
    try:
        return MODE_ALIASES[name]
    except KeyError:
        raise ConfigInvalid(f"unknown setup mode {name!r}") from None


# ---------------------------------------------------------------------------
# setup / ingest / report / aggregate / verify-sum
# ---------------------------------------------------------------------------


def cmd_setup(args) -> int:
    group = _resolve_group(args.group)
    mode = _resolve_mode(args.mode)
    if mode == "trusted" and args.seed is None:
        raise ConfigInvalid("trusted setup requires --seed")
    rng = random.Random(args.seed) if args.seed is not None else None
    pp = setup(group, mode, rng)
    if args.trapdoor_out:
        if pp.trapdoor is None:
            raise ConfigInvalid("--trapdoor-out only applies to trusted mode")
        _write_json(args.trapdoor_out, {
            "format": "trapdoor/v1",
            "h_scalar": pp.group.encode_scalar(pp.trapdoor).hex(),
        }, secret=True, replace=False)
    envelope = params_to_dict(pp)
    # A trusted-setup seed yields the trapdoor, so it stays out of pp.json.
    envelope["provenance"] = _provenance("setup")
    _write_json(args.out, envelope)
    _emit({"ok": True, "group": pp.group.descriptor.name, "mode": mode, "out": args.out})
    return 0


def _load_meter_key(path: str) -> ms.MeterKeypair:
    data = _read_format(path, "meter-key/v1", sk=str)
    return ms.MeterKeypair.from_seed(bytes.fromhex(data["sk"]))


def cmd_ingest(args) -> int:
    if os.path.exists(args.meter_key):
        kp = _load_meter_key(args.meter_key)
    else:
        kp = ms.MeterKeypair.generate(_secret_rng(args.seed, "meter-key"))
        _write_json(args.meter_key, {
            "format": "meter-key/v1",
            "sk": kp.seed_bytes().hex(),
            "pk": kp.public_bytes.hex(),
        }, secret=True, replace=False)
    if os.path.exists(args.ledger):
        ledger = ms.read_ledger(args.ledger)
        if ledger.firm_id != args.firm_id:
            raise ConfigInvalid(
                f"ledger belongs to {ledger.firm_id!r}, not {args.firm_id!r}"
            )
        ms.verify_ledger(ledger, kp.public_bytes)
    else:
        ledger = ms.FirmLedger.empty(args.firm_id)
    added = 0
    for hour, e in ms.read_readings_csv(args.readings):
        reading = kp.sign_reading(args.firm_id, hour, e)
        ms.append_reading(ledger, reading, kp.public_bytes)
        added += 1
    _write_file(args.ledger, ms.ledger_jsonl(ledger))
    _emit({
        "ok": True,
        "firm_id": args.firm_id,
        "added": added,
        "entries": len(ledger.entries),
        "head": ledger.head.hex(),
        "meter_pk": kp.public_bytes.hex(),
    })
    return 0


def cmd_report(args) -> int:
    digests = {}
    pp = _load_pp(args.pp, digests)
    # The ledger is checked under the meter's public key; the secret is never read.
    meter_pk = bytes.fromhex(_read_format(args.meter_key, "meter-key/v1", pk=str)["pk"])
    if len(meter_pk) != 32:
        raise ConfigInvalid(f"{args.meter_key}: pk is not a 32-byte Ed25519 key")
    ledger = ms.read_ledger(args.ledger)
    rng = _secret_rng(args.seed, "report", ledger.firm_id, args.cycle)
    total = ms.aggregate(ledger, meter_pk)
    r = pp.group.random_scalar(rng)
    c = commit(pp, pp.group.scalar(total), r)
    # The ledger is not JSON: read_ledger reads it, and its digest reads it again.
    prov = _provenance("report", pp=digests[args.pp], ledger=_file_digest(args.ledger))
    # The opening first: a live one is refused before the report it opens
    # is replaced.
    _write_json(args.opening_out, {
        "format": "opening/v1",
        "firm_id": ledger.firm_id,
        "cycle_id": args.cycle,
        "m": total,
        "r": pp.group.encode_scalar(r).hex(),
    }, secret=True, replace=False)
    _write_json(args.out, {
        "format": "report/v1",
        "firm_id": ledger.firm_id,
        "cycle_id": args.cycle,
        # Uncompressed: every reader checks it without a square root.
        "c": pp.group.encode_point(c, compressed=False).hex(),
        "provenance": prov,
    })
    _emit({"ok": True, "firm_id": ledger.firm_id, "out": args.out})
    return 0


class SubmissionInvalid(ValueError):
    """A firm's submitted file fails to decode; attributable to that firm."""

    def __init__(self, firm_id: str, reason: str):
        super().__init__(f"{firm_id}: {reason}")
        self.firm_id = firm_id
        self.reason = reason


def _load_report(pp, path: str, digests: dict | None = None) -> dict:
    data = _read_format(path, "report/v1", digests, firm_id=str, cycle_id=str)
    try:
        data["c_point"] = pp.group.decode_point(bytes.fromhex(data["c"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise SubmissionInvalid(data["firm_id"], f"malformed commitment: {exc}") from exc
    return data


def _load_opening(pp, path: str) -> dict:
    data = _read_format(path, "opening/v1", firm_id=str, cycle_id=str)
    try:
        data["r_scalar"] = pp.group.decode_scalar(bytes.fromhex(data["r"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise SubmissionInvalid(data["firm_id"], f"malformed blinding: {exc}") from exc
    return data


def _by_firm(files: list[dict], what: str) -> dict:
    """Files keyed by firm id; each firm may appear only once."""
    by_firm = {f["firm_id"]: f for f in files}
    if len(by_firm) != len(files):
        raise ConfigInvalid(f"duplicate firm ids among {what}")
    return by_firm


def _single_cycle(files: list[dict]) -> str:
    cycles = sorted({f["cycle_id"] for f in files})
    if len(cycles) != 1:
        raise ConfigInvalid(f"files span cycles {cycles}; use one cycle at a time")
    return cycles[0]


def cmd_aggregate(args) -> int:
    digests = {}  # path -> SHA-256 of the bytes examined
    pp = _load_pp(args.pp, digests)
    try:
        reports = [_load_report(pp, p, digests) for p in args.report]
        opening_files = [_load_opening(pp, p) for p in args.opening]
    except SubmissionInvalid as exc:
        return _reject(3, exc.firm_id, exc.reason)
    cycle = _single_cycle(reports + opening_files)
    ids = list(_by_firm(reports, "reports"))
    openings = _by_firm(opening_files, "openings")
    if set(openings) != set(ids):
        raise ConfigInvalid("openings do not match reports one-to-one")
    # The examination step, in report order.
    abort = examine(pp, ids,
                    {fid: (o.get("m"), o["r_scalar"]) for fid, o in openings.items()},
                    {rep["firm_id"]: rep["c_point"] for rep in reports})
    if abort is not None:
        return _reject(3, abort.culprit_id, abort.reason)
    m_total, r_total = country_sums(pp, ((openings[fid]["m"], openings[fid]["r_scalar"])
                                         for fid in ids))
    prov_inputs = {f"report_{r['firm_id']}": digests[p] for r, p in zip(reports, args.report)}
    _write_json(args.out, {
        "format": "sums/v1",
        "cycle_id": cycle,
        "n": len(reports),
        "m": m_total,
        "r": pp.group.encode_scalar(r_total).hex(),
        "provenance": _provenance("aggregate", pp=digests[args.pp], **prov_inputs),
    })
    _emit({"verdict": "ACCEPT", "m": m_total, "n": len(reports), "out": args.out})
    return 0


def cmd_verify_sum(args) -> int:
    pp = _load_pp(args.pp)
    try:
        reports = [_load_report(pp, p) for p in args.report]
    except SubmissionInvalid as exc:
        return _reject(7, exc.firm_id, exc.reason)
    cycle = _single_cycle(reports)
    _by_firm(reports, "reports")
    sums = _read_format(args.sums, "sums/v1")
    if sums.get("cycle_id") != cycle:
        raise ConfigInvalid(f"{args.sums} is for cycle {sums.get('cycle_id')!r}, "
                            f"the reports for {cycle!r}")
    m = sums.get("m")
    if not is_int(m):
        raise ConfigInvalid(f"{args.sums} has no integer total m")
    try:
        r = pp.group.decode_scalar(bytes.fromhex(sums["r"]))
    except (KeyError, TypeError) as exc:
        raise ConfigInvalid(f"{args.sums} has no hex blinding total r: {exc!r}") from None
    abort = sum_check(pp, len(reports), (rep["c_point"] for rep in reports), m, r)
    if abort is not None:
        return _reject(7, abort.culprit_role, abort.reason)
    _emit({"verdict": "ACCEPT", "m": m, "n": len(reports)})
    return 0


# ---------------------------------------------------------------------------
# Two-operator pick over files.
# ---------------------------------------------------------------------------


def cmd_pick_commit(args) -> int:
    if args.party not in pk.PARTIES:
        raise ConfigInvalid(f"party must be one of {pk.PARTIES}")
    digests = {}
    pp = _load_pp(args.pp, digests)
    m, r, c = pk.round_commit(args.l, pp, _secret_rng(args.seed, "pick", args.party, args.round))
    _write_json(args.state, {
        "format": "pick-state/v1",
        "party": args.party,
        "round": args.round,
        "l": args.l,
        "m": m,
        "r": pp.group.encode_scalar(r).hex(),
        "pp_digest": digests[args.pp],
        "peer_commitment": None,
    }, secret=True, replace=False)
    _write_json(args.out, {
        "format": "pick-commit/v1",
        "party": args.party,
        "round": args.round,
        "l": args.l,
        "c": pp.group.encode_point(c).hex(),
    })
    _emit({"ok": True, "party": args.party, "l": args.l, "out": args.out})
    return 0


def cmd_pick_reveal(args) -> int:
    state = _read_format(args.state, "pick-state/v1", **_PICK_OPENING)
    peer = _read_format(args.peer_commit, "pick-commit/v1", **_PICK_COMMIT)
    if peer["party"] != pk.other(state["party"]):
        raise ConfigInvalid("peer commitment is not from the other party")
    if peer["l"] != state["l"] or peer["round"] != state["round"]:
        raise ConfigInvalid("peer commitment disagrees on round or list length")
    # Reveal only exists once the peer is committed; storing the peer's
    # commitment now pins what the settle step will verify against.
    state["peer_commitment"] = peer["c"]
    _write_json(args.state, state, secret=True)
    _write_json(args.out, {
        "format": "pick-reveal/v1",
        "party": state["party"],
        "round": state["round"],
        "l": state["l"],
        "m": state["m"],
        "r": state["r"],
    })
    _emit({"ok": True, "party": state["party"], "out": args.out})
    return 0


def cmd_pick_settle(args) -> int:
    digests = {}
    pp = _load_pp(args.pp, digests)
    state = _read_format(args.state, "pick-state/v1", **_PICK_OPENING)
    if not isinstance(state.get("peer_commitment"), str):
        raise ConfigInvalid("no peer commitment on record; run pick-reveal first")
    if state.get("pp_digest") != digests[args.pp]:
        raise ConfigInvalid("public parameters differ from the commit step")
    reveal = _read_format(args.peer_reveal, "pick-reveal/v1", **_PICK_OPENING)
    peer_party = pk.other(state["party"])
    if reveal["party"] != peer_party:
        raise ConfigInvalid("peer reveal is not from the other party")
    if reveal["l"] != state["l"] or reveal["round"] != state["round"]:
        raise ConfigInvalid("peer reveal disagrees on round or list length")

    l, own, group = state["l"], state["party"], pp.group
    roster = [x for x in args.roster.split(",") if x] if args.roster else range(l)
    if len(roster) != l:
        raise ConfigInvalid(f"roster has {len(roster)} names but l={l}")
    fold = pk.PickFold(roster, dict.fromkeys(pk.PARTIES, pp))
    own_r = group.decode_scalar(bytes.fromhex(state["r"]))
    fold.commit(peer_party, group.decode_point(bytes.fromhex(state["peer_commitment"])))
    fold.commit(own, commit(pp, group.scalar(state["m"]), own_r))
    # The peer's reveal is checked against the commitment it sent; this
    # party's own opening is recommitted, so only its range can fail.
    for party, m, r in ((peer_party, reveal["m"], group.decode_scalar(bytes.fromhex(reveal["r"]))),
                        (own, state["m"], own_r)):
        if (fault := fold.reveal(party, m, r)) is not None:
            _emit({"verdict": "FAULT", "party": party, "reason": fault})
            return 1
    out = {"verdict": "SETTLED", "index": fold.settle(), "l": l, "round": state["round"]}
    if args.roster:
        out["picked"] = fold.settled[-1]
    _emit(out)
    return 0


# ---------------------------------------------------------------------------
# simulate / transcript-audit
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    scenario = hz.load_scenario(args.scenario)
    trials = args.trials if args.trials is not None else scenario.trials
    if not 1 <= trials <= hz.MAX_SCENARIO_TRIALS:
        raise ConfigInvalid(f"--trials must be in [1, {hz.MAX_SCENARIO_TRIALS}], got {trials}")
    seed = args.seed if args.seed is not None else scenario.seed
    if args.transcript:
        first = hz.run_session(
            scenario.config, scenario.adversary,
            seed=hz.derive_seed(seed, "trial", 0), record=True,
        )
        _write_file(args.transcript, first.transcript.to_jsonl())
    stats = hz.run_trials(
        scenario.config, scenario.adversary, trials=trials, seed=seed,
        structural_checks=not args.no_checks,
    )
    table = {"scenario": scenario.name, **stats.as_dict()}
    n, k = scenario.config.n, scenario.config.k
    from math import comb

    if 0 < k <= n and 2 <= comb(n, k) <= 4096 and stats.subset_counts:
        _, p = hz.subset_chi_square(stats.subset_counts, scenario.config.roster, k)
        table["chi_square_p"] = p
    else:
        table["chi_square_p"] = None
    table["seed"] = seed
    if args.out:
        body = dict(table)
        if scenario.source is not None:
            body["provenance"] = _provenance("simulate", scenario=_sha256(scenario.source))
        else:
            body["provenance"] = _provenance("simulate")
        _write_json(args.out, body)
    _emit(table)
    return 0


def cmd_transcript_audit(args) -> int:
    transcript = hz.parse_transcript(_read_bytes(args.transcript))
    report = hz.audit_transcript(transcript)
    _emit({
        "ok": report["ok"],
        "violations": report["violations"],
        "recorded": report["recorded"],
        "replayed": report["replayed"],
        "digest": transcript.digest(),
    })
    return 0 if report["ok"] else 1


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser.  With ``command`` one of the subcommands, it holds
    that subcommand's parser alone, which parses that subcommand's argv,
    help and usage errors as the full parser does; with anything else (None,
    an option, an unknown name) it holds every subcommand.  The handlers
    are this module's functions as they are at the call."""
    # name: (handler, help, [(flag, add_argument keywords), ...])
    commands = {
        "setup": (cmd_setup, "generate commitment public parameters", [
            ("--group", dict(required=True, help="toy | secp256k1 (aliases: prod)")),
            ("--mode", dict(default="hash", help="hash (derived H) | trusted")),
            ("--seed", dict(type=int, help="required for trusted mode")),
            ("--out", dict(required=True, help="output params file")),
            ("--trapdoor-out", dict(help="write the trusted-setup trapdoor here (testing only)")),
        ]),
        "ingest": (cmd_ingest, "sign readings into a hash-chained ledger", [
            ("--firm-id", dict(required=True)),
            ("--readings", dict(required=True, help="CSV of hour,value rows")),
            ("--ledger", dict(required=True, help="ledger file (extended if present)")),
            ("--meter-key", dict(required=True, help="meter key file (generated if missing)")),
            ("--seed", dict(type=int, help="replay: derive a new key from it")),
        ]),
        "report": (cmd_report, "aggregate a ledger into a committed report", [
            ("--pp", dict(required=True)),
            ("--ledger", dict(required=True)),
            ("--meter-key", dict(required=True,
                                 help="meter key file; only its public key 'pk' is read")),
            ("--cycle", dict(default="cycle-0")),
            ("--seed", dict(type=int, help="replay: derive r from it")),
            ("--out", dict(required=True, help="public report file")),
            ("--opening-out", dict(required=True, help="private opening file")),
        ]),
        "aggregate": (cmd_aggregate, "examine openings and publish sums", [
            ("--pp", dict(required=True)),
            ("--report", dict(action="extend", nargs="+", required=True)),
            ("--opening", dict(action="extend", nargs="+", required=True)),
            ("--out", dict(required=True, help="sums file")),
        ]),
        "verify-sum": (cmd_verify_sum, "check commitments against published sums", [
            ("--pp", dict(required=True)),
            ("--report", dict(action="extend", nargs="+", required=True)),
            ("--sums", dict(required=True)),
        ]),
        "pick-commit": (cmd_pick_commit, "first pick phase: commit to a draw", [
            ("--pp", dict(required=True)),
            ("--party", dict(required=True, help="country | verifier")),
            ("--l", dict(type=int, required=True, help="remaining list length")),
            ("--round", dict(type=int, default=0)),
            ("--seed", dict(type=int, help="replay: derive the draw from it")),
            ("--state", dict(required=True, help="private state file (keep secret)")),
            ("--out", dict(required=True, help="commitment message for the peer")),
        ]),
        "pick-reveal": (cmd_pick_reveal, "second pick phase: open the commitment", [
            ("--state", dict(required=True)),
            ("--peer-commit", dict(required=True, help="peer's commitment message")),
            ("--out", dict(required=True, help="reveal message for the peer")),
        ]),
        "pick-settle": (cmd_pick_settle, "verify the peer's reveal and derive the index", [
            ("--pp", dict(required=True)),
            ("--state", dict(required=True)),
            ("--peer-reveal", dict(required=True)),
            ("--roster", dict(help="comma-separated remaining firms, to name the pick")),
        ]),
        "simulate": (cmd_simulate, "run seeded protocol trials", [
            ("--scenario", dict(required=True, help="builtin "
                                f"({', '.join(sorted(hz.BUILTIN_SCENARIOS))}) or JSON file")),
            ("--trials", dict(type=int)),
            ("--seed", dict(type=int)),
            ("--out", dict(help="stats file")),
            ("--transcript", dict(help="write the first trial's transcript")),
            ("--no-checks", dict(action="store_true",
                                 help="skip per-trial structural checks (bulk statistics)")),
        ]),
        "transcript-audit": (cmd_transcript_audit, "independently re-audit a transcript", [
            ("--transcript", dict(required=True)),
        ]),
    }
    p = argparse.ArgumentParser(
        prog="emissions-audit",
        description="Committed emissions reporting, verifiable aggregation, "
                    "randomized audit selection, and protocol simulation.",
    )
    p.add_argument("--version", action="version", version=__version__)
    if command in commands:
        # The usage line still names every subcommand.
        sub = p.add_subparsers(dest="command", required=True,
                               metavar="{" + ",".join(commands) + "}")
        commands = {command: commands[command]}
    else:
        sub = p.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags) in commands.items():
        sp = sub.add_parser(name, help=help_text)
        for flag, keywords in flags:
            sp.add_argument(flag, **keywords)
        sp.set_defaults(func=func)
    return p


# Each subcommand's list flags (action="extend") and its other flags.
_LIST_FLAGS = {"aggregate": ("--report", "--opening"), "verify-sum": ("--report",)}
_OTHER_FLAGS = {"aggregate": ("-h", "--help", "--pp", "--out"),
                "verify-sum": ("-h", "--help", "--pp", "--sums")}


def _coalesce_list_flags(argv: list[str]) -> list[str]:
    """argv with each list flag's values merged into one flag, after the rest.

    Python 3.11's argparse takes time quadratic in the number of flags, so
    ``--report A --pp P --report B`` becomes ``--pp P --report A B``, which
    parses the same.  Only argv of exact flags and plain values (``-`` too),
    with a value after each list flag, is rewritten; other argv is returned.
    """
    lists = _LIST_FLAGS.get(argv[0]) if argv else None
    if lists is None:
        return argv
    known = {*lists, *_OTHER_FLAGS[argv[0]]}
    groups = [[]]  # the tokens after the subcommand, split before each flag
    for tok in argv[1:]:
        if tok == "-" or not tok.startswith("-"):
            groups[-1].append(tok)
        elif tok in known:
            groups.append([tok])
        else:
            return argv
    out, merged = argv[:1] + groups[0], {}
    for flag, *values in groups[1:]:
        if flag not in lists:
            out += [flag, *values]
        elif values:
            merged.setdefault(flag, []).extend(values)
        else:
            return argv
    return out + [tok for flag, values in merged.items() for tok in (flag, *values)]


def main(argv=None) -> int:
    """Run the subcommand that ``argv`` (default ``sys.argv[1:]``) names,
    parsed by build_parser(argv[0]); return the exit code.  An error from
    the handler (ValueError or OSError) is exit 2, with its class and
    message as JSON on stderr; argparse exits 2 itself on a usage error."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(_coalesce_list_flags(argv))
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
