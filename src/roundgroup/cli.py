"""Command-line front end.

Subcommands: encrypt, validate, scan-blocks, types, goursat, order,
verdict.  Each report (all but encrypt and goursat) is a function
returning its text lines and JSON record (the verdict's rendered from
its `verify.Check` records), its exit code and its timing; one runner,
`run_report`, loads the spec and emits header (seed and caps) and body
as text or JSON, the timing on stderr, so the body is byte-stable.

Exit codes: 0 clean, 2 a certified invariant partition was found,
3 inconclusive verdict, 1 usage or I/O errors.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time

import numpy as np

from . import (__version__, boxtypes, cipher, goursat, groups, perms, verify,
               words)
from .cipher import CipherSpec

TOOL = f"roundgroup {__version__}"


def _yes(ok: bool) -> str:
    return "yes" if ok else "no"


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 with one line, like every other input error;
    argparse's own status 2 is the Imprimitive verdict's exit code."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def _int_from(lo: int):
    """argparse type: an integer no smaller than lo."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < lo:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {lo}, got {text!r}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="roundgroup",
        description="round-function group analysis of a GOST-like "
                    "Feistel cipher")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help, spec=True, seed=True, fmt=True):
        p = sub.add_parser(name, help=help)
        if spec:
            p.add_argument("--spec", required=True,
                           help="cipher spec file (JSON)")
        if seed:
            p.add_argument("--seed", type=_int_from(0), default=0,
                           help="64-bit RNG seed (default 0)")
        if fmt:
            p.add_argument("--format", choices=("text", "json"),
                           default="text")
        return p

    p = add("encrypt", "apply rounds to hex state pairs", seed=False,
            fmt=False)
    p.add_argument("--keys", help="round key file; each line is one hex "
                   "word (keyed round) or four hex words k1 k2 h1 h2 "
                   "(translate-swap-translate round); no file means a "
                   "single plain swap")
    p.add_argument("--input", help="state file, two hex words per line "
                   "(default stdin)")
    p.add_argument("--inverse", action="store_true",
                   help="apply the inverse of the round sequence")

    add("validate", "structural and scope flags")
    add("scan-blocks", "scan all modular subgroups for blocks")
    add("types", "box types of subgroups and their mixing-map images")

    p = add("goursat", "enumerate subgroups of the state translation "
            "group", spec=False, seed=False)
    p.add_argument("--n", type=_int_from(1), required=True, help="word width")
    p.add_argument("--list", action="store_true",
                   help="print every subgroup's row (s, sB, t, tD, z), "
                   "not just the count")

    add("order", "exact order of the generated group")

    p = add("verdict", "run the full verification pipeline")
    p.add_argument("--budget", type=_int_from(0),
                   default=verify.DEFAULT_BUDGET,
                   help="giant-witness trial budget (default %(default)s)")
    return parser


# parsing leaves no state in the parser, so one serves every call
PARSER = build_parser()


# body, record, exit code, and the timing lines for stderr
Report = tuple[list[str], dict, int, list[str]]


def run_report(report, args) -> int:
    """Load the spec, run `report(args, spec)` and emit its body under
    the header; the caps are read from the size-cap table."""
    spec = cipher.load_spec(args.spec)
    body, record, code, timing = report(args, spec)
    caps = {"materialize_log2": words.CAPS["materialize"].bit_length() - 1,
            "chain_degree_log2": words.CAPS["chain-degree"].bit_length() - 1}
    params = {"n": spec.n, "m": spec.m, "delta": spec.delta, "r": spec.r}
    digest = spec.digest()
    lines = [f"tool: {TOOL}",
             f"spec: {args.spec} sha256={digest}",
             "parameters: " + " ".join(f"{k}={v}" for k, v in params.items()),
             f"seed: {args.seed}",
             f"caps: materialize=2^{caps['materialize_log2']} "
             f"chain-degree=2^{caps['chain_degree_log2']}"]
    data = {"tool": TOOL, "seed": args.seed, "caps": caps,
            "spec": {"path": args.spec, "sha256": digest, **params}}
    emit(args, lines + body, {**data, **record})
    for line in timing:
        print(f"timing: {line}", file=sys.stderr)
    return code


def emit(args, text_lines: list[str], data: dict) -> None:
    if args.format == "json":
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# encrypt


def read_words(stream, n: int, what: str, counts: tuple[int, ...],
               need: str) -> list[list[int]]:
    """Hex words of each non-blank line ('#' starts a comment).  A line
    holds one of `counts` words, each in [0, 2**n); errors name the
    line as '<what> line N'."""
    out = []
    for lineno, line in enumerate(stream, 1):
        parts = line.split("#", 1)[0].split()
        if not parts:
            continue
        where = f"{what} line {lineno}"
        if len(parts) not in counts:
            raise ValueError(f"{where}: need {need} hex words")
        try:
            values = [int(p, 16) for p in parts]
        except ValueError:
            raise ValueError(f"{where}: not a hex word") from None
        if any(not 0 <= v < 1 << n for v in values):
            raise ValueError(f"{where}: word out of range")
        out.append(values)
    return out


def open_words(path):
    """A state or key file as UTF-8 text.  A byte that is not UTF-8
    reaches read_words as a lone surrogate, so its line fails the hex
    parse and the error names the line, as it does on stdin."""
    return open(path, encoding="utf-8", errors="surrogateescape")


def _neg(k: tuple[int, int], n: int) -> tuple[int, int]:
    return words.neg_mod(k[0], n), words.neg_mod(k[1], n)


def apply_rounds(spec: CipherSpec, rounds: list[tuple],
                 st: tuple[int, int], inverse: bool) -> tuple[int, int]:
    """Each round (k, h) is rho(k), then sigma, then rho(h)."""
    n = spec.n
    if not inverse:
        for k, h in rounds:
            st = cipher.generalized_round(spec, k, h, st)
        return st
    for k, h in reversed(rounds):
        st = cipher.rho_apply(_neg(h, n), st, n)
        st = cipher.sigma_inverse_apply(spec, st)
        st = cipher.rho_apply(_neg(k, n), st, n)
    return st


def cmd_encrypt(args) -> int:
    spec = cipher.load_spec(args.spec)
    n = spec.n
    rounds = [((0, 0), (0, 0))]
    if args.keys:
        with open_words(args.keys) as fh:
            # a one-word key k is the keyed round rho(0,k) sigma rho(-k,0)
            rounds = [((0, w[0]), (words.neg_mod(w[0], n), 0))
                      if len(w) == 1 else ((w[0], w[1]), (w[2], w[3]))
                      for w in read_words(fh, n, "key", (1, 4),
                                          "one or four")]
    if args.input:
        with open_words(args.input) as fh:
            states = read_words(fh, n, "state", (2,), "two")
    else:
        states = read_words(sys.stdin, n, "state", (2,), "two")
    for st in states:
        out = apply_rounds(spec, rounds, tuple(st), args.inverse)
        print(f"{words.hex_word(out[0], n)} {words.hex_word(out[1], n)}")
    return 0


# ---------------------------------------------------------------------------
# validate


def validate_report(args, spec: CipherSpec) -> Report:
    record = {name: getattr(spec, name) for name in
              ("conforming", "bijective", "theorem_scope", "gost_parameters")}
    lines = ["-- validation --"]
    lines += [f"{name.replace('_', '-')}: {_yes(ok)}"
              for name, ok in record.items()]
    lines += [f"note: {note}" for note in spec.notes]
    record["notes"] = list(spec.notes)
    return lines, {"validation": record}, 0, []


# ---------------------------------------------------------------------------
# scan-blocks


def scan_counters(scan: verify.BlockScanResult) -> str:
    """The scan's deterministic counters, for the stderr timing line."""
    return (f"tested={scan.subgroups_tested} probe_refuted="
            f"{scan.probe_refuted} candidates={len(scan.candidates)} "
            f"certified={len(scan.certified)}")


def scan_blocks_report(args, spec: CipherSpec) -> Report:
    t0 = time.monotonic()
    transitive = verify.transitivity_check(spec)
    scan = verify.block_scan(spec)
    elapsed = time.monotonic() - t0
    primitive = verify.is_primitive(transitive, scan)
    check = verify.scan_check(scan, spec.n)
    record = check.value  # shared with the verdict's block-scan check
    lines = ["-- block scan --",
             f"transitive: {_yes(transitive)} (lemma)",
             f"subgroups tested: {scan.subgroups_tested}",
             f"forced shift: (0, 0x{record['shift_hex']})",
             *(line.lstrip() for line in check.lines[1:])]
    if scan.empty:
        lines.append("result: empty (no invariant subgroup-coset "
                     "partition exists)")
    else:
        lines.append(f"result: {len(scan.certified)} certified of "
                     f"{len(scan.candidates)} candidates")
    if primitive:
        lines.append("primitive: yes")
    return (lines, {"scan": dict(record, transitive=transitive,
                                 primitive=primitive)},
            2 if scan.certified else 0,
            [f"scan {elapsed:.2f}s {scan_counters(scan)}"])


# ---------------------------------------------------------------------------
# types


def types_report(args, spec: CipherSpec) -> Report:
    n, m, delta = spec.n, spec.m, spec.delta
    lines, rows = ["-- box types --"], []
    table = cipher.s_table(spec)
    for q in range(1, n):
        dtype = boxtypes.subgroup_type(q, m, delta)
        image_type = boxtypes.type_of(boxtypes.s_image(table, q), m, delta)
        image = image_type if image_type is not None else "none"
        verdict = "same" if image_type == dtype else "changed"
        rows.append({"q": q, "subgroup": dtype, "image": image,
                     "verdict": verdict})
        lines.append(f"q={q}: D={dtype} DS={image} [{verdict}]")
    tv = [row["q"] for row in rows if row["verdict"] == "same"]
    cv = boxtypes.s_image_coset_violations(table)
    lines.append(f"type violations: {tv or 'none'}")
    lines.append(f"coset violations: {cv or 'none'}")
    return lines, {"types": {"rows": rows, "type_violations": tv,
                             "coset_violations": cv}}, 0, []


# ---------------------------------------------------------------------------
# goursat


def cmd_goursat(args) -> int:
    n = args.n
    words.check_cap("goursat-width", n)
    table = goursat.enumerate_subgroups(n)
    lines = [f"tool: {TOOL}", f"n: {n}", f"subgroups: {len(table)}"]
    data = {"tool": TOOL, "n": n, "count": len(table)}
    if args.list:
        rows = table.tolist()
        lines += [f"  {goursat.describe(row)} size={goursat.size(row, n)}"
                  for row in rows]
        data["triples"] = rows
    emit(args, lines, data)
    return 0


# ---------------------------------------------------------------------------
# order


def order_report(args, spec: CipherSpec) -> Report:
    degree = spec.degree
    words.check_cap("chain-degree", degree)  # before any dense generator
    gens = perms.standard_generators(spec)
    # a certified block system proves the group no giant, so a fill
    # that stops short goes straight to the deterministic route
    chain = groups.schreier_sims(
        gens, np.random.default_rng(args.seed),
        not_giant=lambda: bool(verify.block_scan(spec).certified))
    order = chain.order
    half = math.factorial(degree) // 2
    if order == half:
        identification = "alternating group of the full state set"
    elif order == 2 * half:
        identification = "symmetric group of the full state set"
    else:
        identification = (f"proper subgroup (index {2 * half // order} "
                          f"in the symmetric group)")
    lines = ["-- group order --", f"degree: {degree}", f"order: {order}",
             f"identification: {identification}",
             f"certificate: {chain.certificate}",
             f"base length: {len(chain.base)}"]
    record = {"degree": degree, "order": str(order),
              "certificate": chain.certificate,
              "base_length": len(chain.base),
              "is_alternating": order == half,
              "is_symmetric": order == 2 * half}
    stages = chain.stage_seconds
    return lines, {"order": record}, 0, [
        f"chain {sum(stages.values()):.2f}s levels={len(chain.levels)} "
        f"rows={chain.rows} built={chain.built} "
        f"strong_generators={chain.strong_generators} "
        f"fed={chain.fed} "
        f"schreier_sifted={chain.schreier_sifted} "
        f"gathered={chain.gathered} "
        f"absorbed={chain.absorbed}",
        f"chain-stages fill={stages['fill']:.2f}s "
        f"random={stages['random']:.2f}s "
        f"complete={stages['complete']:.2f}s"]


# ---------------------------------------------------------------------------
# verdict


def peak_rss_mb() -> int:
    """The process's peak resident set so far, in MB (Linux reports
    ru_maxrss in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024


def verdict_report(args, spec: CipherSpec) -> Report:
    """The verdict's header, then each check's lines and record."""
    t0 = time.monotonic()
    v = verify.full_verdict(spec, seed=args.seed, budget=args.budget)
    elapsed = time.monotonic() - t0
    lines = [f"budget: {v.budget}  word-len: {groups.WITNESS_WORD_LEN}",
             "-- checks --"]
    record = {"budget": v.budget, "word_len": groups.WITNESS_WORD_LEN,
              "validation": {"conforming": spec.conforming,
                             "bijective": spec.bijective,
                             "theorem_scope": spec.theorem_scope,
                             "notes": list(spec.notes)},
              "primitive": v.primitive}
    for c in v.checks:
        lines += c.lines
        record[c.key] = c.value
    # trials: the hit's, the whole budget on a miss, none when gated off
    trials = record["witness"]["trials_used"] if record["witness"] else 0
    stages = v.stage_seconds
    return lines, {"verdict": record}, v.exit_code, [
        f"verdict {elapsed:.2f}s {scan_counters(v.scan)}",
        f"verdict-stages scan={stages['scan']:.2f}s "
        f"witness={stages['witness']:.2f}s trials={trials} "
        f"fallbacks={v.fallbacks} peak_rss={peak_rss_mb()}MB"]


# ---------------------------------------------------------------------------


COMMANDS = {"encrypt": cmd_encrypt, "goursat": cmd_goursat}

REPORTS = {
    "validate": validate_report,
    "scan-blocks": scan_blocks_report,
    "types": types_report,
    "order": order_report,
    "verdict": verdict_report,
}


def main(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
        if args.command in REPORTS:
            return run_report(REPORTS[args.command], args)
        return COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
