"""End-to-end checks of the command-line front end."""

import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from roundgroup import (boxtypes, cipher, cli, goursat, groups, perms, verify,
                        words)

import oracles

SPECS = Path(__file__).resolve().parent.parent / "specs"
CONFORMING_N8 = str(SPECS / "conforming_n8.json")
CONFORMING_N4 = str(SPECS / "conforming_n4.json")
IDENTITY_N8 = str(SPECS / "identity_r0_n8.json")
IDENTITY_N4 = str(SPECS / "identity_r0_n4.json")
GOST_FRAME = str(SPECS / "gost_frame_n32.json")


def run(argv, capsys):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_validate_text_report(capsys):
    rc, out, _ = run(["validate", "--spec", CONFORMING_N8], capsys)
    assert rc == 0
    assert "tool: roundgroup" in out
    assert "sha256=" in out
    assert "parameters: n=8 m=2 delta=4 r=3" in out
    assert "seed: 0" in out
    assert "caps:" in out
    assert "conforming: yes" in out
    assert "theorem-scope: yes" in out
    assert "gost-parameters: no" in out


def test_validate_gost_frame_flag(capsys):
    rc, out, _ = run(["validate", "--spec", GOST_FRAME], capsys)
    assert rc == 0
    assert "gost-parameters: yes" in out


SCOPE_KEYS = ("conforming", "bijective", "theorem_scope", "notes")
# (m, delta, r, bijective, seed) and the notes the spec must carry
SCOPE_GRID = [
    ((2, 2, 2, False, 1), ["not a permutation", "delta < 4"]),
    ((2, 3, 0, True, 2), ["rotation extent 0", "delta < 4"]),
    ((1, 4, 1, True, 3), ["m < 2"]),
    ((1, 6, 0, False, 4), ["rotation extent 0", "not a permutation",
                           "m < 2"]),
    ((2, 4, 3, False, 5), ["not a permutation"]),
    ((3, 2, 3, True, 6), ["delta < 4"]),
    ((2, 4, 0, True, 7), ["rotation extent 0"]),
]


def scope_records(path, capsys):
    """The scope flags and notes as validate and as verdict report them."""
    rc, out, _ = run(["validate", "--spec", path, "--format", "json"],
                     capsys)
    assert rc == 0
    shown = json.loads(out)["validation"]
    _, out, _ = run(["verdict", "--spec", path, "--budget", "0",
                     "--format", "json"], capsys)
    judged = json.loads(out)["verdict"]["validation"]
    return ({k: shown[k] for k in SCOPE_KEYS},
            {k: judged[k] for k in SCOPE_KEYS})


@pytest.mark.parametrize("name", sorted(
    p.name for p in SPECS.glob("*.json")
    if cipher.load_spec(p).degree <= words.CAPS["materialize"]))
def test_validate_and_verdict_agree_on_scope_specs(name, capsys):
    shown, judged = scope_records(str(SPECS / name), capsys)
    assert shown == judged


@pytest.mark.parametrize("params,notes", SCOPE_GRID)
def test_validate_and_verdict_agree_on_scope_grid(params, notes, tmp_path,
                                                  capsys):
    m, delta, r, bijective, seed = params
    path = tmp_path / "spec.json"
    cipher.save_spec(cipher.random_spec(m, delta, r,
                                        np.random.default_rng(seed),
                                        bijective), path)
    shown, judged = scope_records(str(path), capsys)
    assert shown == judged
    assert not shown["theorem_scope"]
    assert len(shown["notes"]) == len(notes)
    for note, part in zip(shown["notes"], notes):
        assert part in note


def test_verdict_conforming_alt_certified(capsys):
    rc, out, _ = run(
        ["verdict", "--spec", CONFORMING_N8, "--seed", "20260823"], capsys)
    assert rc == 0
    assert "conclusion: AltCertified" in out
    assert "block-scan: EMPTY 1513 subgroups" in out
    assert "giant-witness: FOUND prime=33391" in out


def test_verdict_identity_imprimitive(capsys):
    rc, out, _ = run(["verdict", "--spec", IDENTITY_N8], capsys)
    assert rc == 2
    assert "conclusion: Imprimitive" in out
    assert "7 certified of 7 candidates" in out
    assert "block (s=4, sB=4, t=4, tD=4, z=1) size=256" in out
    assert "giant-witness: SKIPPED" in out


def test_verdict_json_structure(capsys):
    rc, out, _ = run(
        ["verdict", "--spec", CONFORMING_N8, "--seed", "20260823",
         "--format", "json"], capsys)
    assert rc == 0
    data = json.loads(out)
    assert data["verdict"]["conclusion"] == "AltCertified"
    assert data["verdict"]["witness"]["prime"] == 33391
    assert data["verdict"]["primitive"] is True
    assert data["verdict"]["block_scan"]["candidates"] == []
    assert data["spec"]["n"] == 8
    assert data["seed"] == 20260823


def test_verdict_renders_the_failed_eliminations(tmp_path, capsys):
    """Constant boxes make S constant: the diagonal collision FAILs and
    the wreath check sees no distinct images (values pinned from the
    reports before the check records were introduced)."""
    tables = tuple(tuple(0 for _ in range(4)) for _ in range(4))
    path = tmp_path / "flat.json"
    cipher.save_spec(cipher.CipherSpec(8, 2, 4, 3, tables), path)
    rc, out, _ = run(["verdict", "--spec", str(path)], capsys)
    assert rc == 2
    lines = out.splitlines()
    assert "diagonal-collision: FAIL S(0)=0x00 S(top)=0x00" in lines
    assert ("wreath-top-brick: NOT-EXCLUDED distinct=no "
            "top-brick S(0)=0x0 S(top)=0x0") in lines
    rc, out, _ = run(["verdict", "--spec", str(path), "--format", "json"],
                     capsys)
    assert rc == 2
    data = json.loads(out)["verdict"]
    assert data["diagonal"] == {"passed": False, "s_at_zero_hex": "00",
                                "s_at_top_hex": "00"}
    assert data["wreath"] == {"excluded": False, "distinct_images": False,
                              "top_slice_zero_hex": "0",
                              "top_slice_top_hex": "0"}


def test_verdict_body_byte_stable(capsys):
    argv = ["verdict", "--spec", CONFORMING_N8, "--seed", "20260823"]
    _, first, _ = run(argv, capsys)
    _, second, _ = run(argv, capsys)
    assert first == second


def test_timing_goes_to_stderr_only(capsys):
    for command, timed in (("validate", 0), ("scan-blocks", 1),
                           ("types", 0), ("order", 2), ("verdict", 2)):
        for fmt in ("text", "json"):
            _, out, err = run([command, "--spec", CONFORMING_N4,
                               "--format", fmt], capsys)
            assert "timing" not in out, (command, fmt)
            assert [l.split()[0] for l in err.splitlines()] == \
                ["timing:"] * timed, (command, fmt)


SCAN_COUNTERS = ["tested", "probe_refuted", "candidates", "certified"]


@pytest.mark.parametrize("command,key", [("verdict", "verdict"),
                                         ("scan-blocks", "scan")])
def test_scan_counters_on_stderr_add_up(command, key, capsys):
    for path in (CONFORMING_N4, CONFORMING_N8, IDENTITY_N4, IDENTITY_N8):
        argv = [command, "--spec", path, "--format", "json"]
        _, out, err = run(argv, capsys)
        line = err.splitlines()[0]
        counters = {k: int(v) for k, v in
                    (f.split("=") for f in line.split()[3:])}
        assert list(counters) == SCAN_COUNTERS
        record = json.loads(out)[key]
        scan = record["block_scan"] if command == "verdict" else record
        assert counters["tested"] == scan["subgroups_tested"]
        assert counters["candidates"] == len(scan["candidates"])
        assert counters["certified"] == sum(c["certified"]
                                            for c in scan["candidates"])
        # the probe survivors that are not candidates fail the set
        # equation over the whole subgroup
        spec = cipher.load_spec(path)
        sigma = perms.standard_generators(spec)[2]
        shift = cipher.apply_s(spec, 0)
        whole_set = sum(
            1 for row in oracles.subgroup_rows(spec.n)
            if 1 < goursat.size(row, spec.n) < 4 ** spec.n
            and not oracles.probe_refutes(row, spec.n, sigma, shift)
            and list(row) not in [c["triple"] for c in scan["candidates"]])
        assert counters["probe_refuted"] + whole_set \
            + counters["candidates"] == counters["tested"]
        text = run(argv[:-2], capsys)[1]
        for field in line.split()[3:]:
            assert field not in out and field not in text
        assert "probe_refuted" not in out + text


def test_verdict_stage_timing_on_stderr_only(capsys):
    """The second verdict timing line: the scan's and the witness
    stage's wall seconds, the witness trials the body reports, the
    trials the probes left open and the process's peak RSS."""
    for path, seed, trials in ((CONFORMING_N8, "20260823", 12),
                               (IDENTITY_N8, "0", 0)):
        _, out, err = run(["verdict", "--spec", path, "--seed", seed],
                          capsys)
        head, line = err.splitlines()
        assert head.startswith("timing: verdict ")
        fields = line.split()
        assert fields[:2] == ["timing:", "verdict-stages"]
        assert [f.split("=")[0] for f in fields[2:]] == \
            ["scan", "witness", "trials", "fallbacks", "peak_rss"]
        assert all(f.endswith("s") for f in fields[2:4])
        assert fields[4] == f"trials={trials}"
        # the hit at trial 12 follows 11 misses the probes all decide
        assert fields[5] == "fallbacks=0"
        assert re.fullmatch(r"peak_rss=[1-9][0-9]*MB", fields[6])
        assert "verdict-stages" not in out


def test_verdict_stage_line_counts_fallbacks(tmp_path, capsys):
    """fallbacks= is the number of trials, the hit's included, whose
    word the probes of perms.long_cycle left open, replayed here from
    the seed's draws."""
    spec = cipher.random_spec(2, 2, 1, np.random.default_rng(3))
    path = tmp_path / "spec.json"
    cipher.save_spec(spec, path)
    _, out, err = run(["verdict", "--spec", str(path), "--seed", "1",
                       "--format", "json"], capsys)
    trials = json.loads(out)["verdict"]["witness"]["trials_used"]
    rng = np.random.default_rng(1)
    evaluate = perms.word_evaluator(spec)
    open_words = sum(
        perms.long_cycle(evaluate(
            tuple(rng.integers(0, perms.LETTERS, 32).tolist()))) is None
        for _ in range(trials))
    assert open_words == 1
    assert f" trials={trials} fallbacks={open_words} " in err


def test_scan_and_gated_verdict_build_no_dense_map(monkeypatch, capsys):
    """With perms.word_evaluator, the one dense builder, raising, the
    gated-off verdict on identity boxes prints its pinned body, and
    scan-blocks on both n=8 specs prints the scan of the dense oracle,
    computed beforehand."""
    root = SPECS.parent
    expected = {}
    for name in ("conforming_n8", "identity_r0_n8"):
        spec = cipher.load_spec(SPECS / f"{name}.json")
        reference = oracles.block_scan_reference(
            spec, perms.standard_generators(spec))
        check = verify.scan_check(reference, spec.n)
        candidate_lines = [line.lstrip() for line in check.lines[1:]]
        record = dict(check.value, transitive=True,
                      primitive=not reference.certified)
        expected[name] = (candidate_lines, record,
                          2 if reference.certified else 0)

    def dense(spec):
        raise AssertionError("dense map built")

    monkeypatch.setattr(perms, "word_evaluator", dense)
    monkeypatch.chdir(root)
    for fmt, suffix in (("text", "txt"), ("json", "json")):
        rc, out, _ = run(["verdict", "--spec", "specs/identity_r0_n8.json",
                          "--format", fmt], capsys)
        golden = root / "tests" / "golden" / f"verdict_identity_r0_n8.{suffix}"
        assert (rc, out) == (2, golden.read_text())
    for name, (candidate_lines, record, code) in expected.items():
        argv = ["scan-blocks", "--spec", f"specs/{name}.json"]
        rc, out, _ = run(argv + ["--format", "json"], capsys)
        assert (rc, json.loads(out)["scan"]) == (code, record)
        rc, out, _ = run(argv, capsys)
        lines = out.splitlines()
        start = lines.index("-- block scan --") + 4
        assert lines[start:start + len(candidate_lines)] == candidate_lines


def test_scan_blocks_identity_exit_2(capsys):
    rc, out, _ = run(["scan-blocks", "--spec", IDENTITY_N4], capsys)
    assert rc == 2
    assert "3 certified of 3 candidates" in out


def test_scan_blocks_conforming_primitive(capsys):
    rc, out, _ = run(["scan-blocks", "--spec", CONFORMING_N4], capsys)
    assert rc == 0
    assert "result: empty" in out
    assert "primitive: yes" in out


def drift_spec(seed):
    # seed 89: n=6, r=5, bijective; the scan's one candidate,
    # (2,2,2,2,1), is refuted by the partition check
    rng = np.random.default_rng(seed)
    r = int(rng.integers(0, 6))
    return cipher.random_spec(3, 2, r, rng)


def test_scan_blocks_refuted_candidate_is_primitive(tmp_path, capsys):
    path = tmp_path / "drift.json"
    cipher.save_spec(drift_spec(89), path)
    rc, out, _ = run(["scan-blocks", "--spec", str(path)], capsys)
    assert rc == 0
    assert "sha256=9ec740c9" in out
    assert "refuted-by-partition-check" in out
    assert "result: 0 certified of 1 candidates" in out
    assert "primitive: yes" in out
    rc, out, _ = run(["scan-blocks", "--spec", str(path), "--format",
                      "json"], capsys)
    assert rc == 0
    assert json.loads(out)["scan"]["primitive"] is True


@pytest.mark.parametrize("seed", [80, 81, 89, 91, 93])
def test_scan_blocks_primitive_text_matches_json(seed, tmp_path, capsys):
    # empty scan, certified plus refuted, refuted only, certified only
    path = tmp_path / "spec.json"
    cipher.save_spec(drift_spec(seed), path)
    argv = ["scan-blocks", "--spec", str(path)]
    _, text, _ = run(argv, capsys)
    _, record, _ = run(argv + ["--format", "json"], capsys)
    assert ("primitive: yes" in text) == json.loads(record)["scan"][
        "primitive"]


def test_types_report(capsys):
    rc, out, _ = run(["types", "--spec", CONFORMING_N4], capsys)
    assert rc == 0
    assert "q=1:" in out and "q=3:" in out
    assert "type violations: none" in out
    assert "coset violations: none" in out


def test_types_identity_reports_violations(capsys):
    rc, out, _ = run(["types", "--spec", IDENTITY_N4], capsys)
    assert rc == 0
    assert "type violations: [1, 2, 3]" in out


def test_types_maps_each_image_once_per_check(monkeypatch, capsys):
    # the rows type each image once and the violations are read off
    # them; the coset check maps each image again off the same table:
    # n - 1 types, 2 (n - 1) images and 1 table at n = 8
    calls = Counter()

    def count(owner, attr, name):
        original = getattr(owner, attr)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, attr, counted)

    count(boxtypes, "type_of", "type_of")
    count(boxtypes, "s_image", "s_image")
    count(cipher, "s_table", "s_table")
    count(boxtypes, "s_table", "s_table")
    rc, _, _ = run(["types", "--spec", CONFORMING_N8], capsys)
    assert rc == 0
    assert calls == {"type_of": 7, "s_image": 14, "s_table": 1}


def test_goursat_count_and_check(capsys):
    rc, out, _ = run(["goursat", "--n", "2"], capsys)
    assert rc == 0
    assert "subgroups: 15" in out


def test_goursat_list_json(capsys):
    rc, out, _ = run(["goursat", "--n", "3", "--list", "--format", "json"],
                     capsys)
    assert rc == 0
    data = json.loads(out)
    assert data["count"] == 37
    assert len(data["triples"]) == 37
    assert [0, 0, 0, 0, 1] in data["triples"]


def test_goursat_count_matches_the_closed_form(capsys):
    # (n - k + 1)**2 choices of (s, t) per quotient order 2**k, and
    # max(1, 2**(k - 1)) odd z below 2**k; every width up to the cap
    for n in range(1, 17):
        rc, out, _ = run(["goursat", "--n", str(n), "--format", "json"],
                         capsys)
        want = sum((n - k + 1) ** 2 * max(1, 1 << k >> 1)
                   for k in range(n + 1))
        assert rc == 0
        assert json.loads(out)["count"] == want, n
    assert want == 393179


def test_goursat_needs_width(capsys):
    rc, out, err = run(["goursat"], capsys)
    assert one_line_error(rc, err), err
    assert "required: --n" in err
    assert out == ""


def test_order_small_degree(capsys):
    rc, out, _ = run(["order", "--spec", CONFORMING_N4, "--seed", "7"],
                     capsys)
    assert rc == 0
    assert "identification: alternating group" in out
    assert "certificate: alternating-order-match" in out


CHAIN_COUNTERS = ["levels", "rows", "built", "strong_generators",
                  "schreier_sifted", "gathered", "absorbed"]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_order_chain_counters_on_stderr_only(fmt, capsys):
    argv = ["order", "--spec", IDENTITY_N4, "--seed", "3", "--format", fmt]
    seen = []
    for _ in range(2):
        rc, out, err = run(argv, capsys)
        assert rc == 0
        line, = [l for l in err.splitlines()
                 if l.startswith("timing: chain ")]
        counters = dict(f.split("=") for f in line.split()[3:])
        assert list(counters) == CHAIN_COUNTERS
        for name in CHAIN_COUNTERS:
            assert name not in out
        seen.append((out, counters))
    assert seen[0] == seen[1]
    out, counters = seen[0]
    base_length = (json.loads(out)["order"]["base_length"] if fmt == "json"
                   else int(out.split("base length: ")[1].split()[0]))
    assert int(counters["levels"]) == base_length
    # one inverse row per orbit point of each level, at least two each
    assert int(counters["rows"]) >= 2 * base_length
    # the completion stacks, so builds, every row
    assert counters["built"] == counters["rows"]
    # the deterministic route sifts Schreier generators and absorbs some
    assert int(counters["schreier_sifted"]) > int(counters["absorbed"]) > 0


@pytest.mark.parametrize("spec,seed", [(CONFORMING_N4, "7"),
                                       (IDENTITY_N4, "3")])
def test_order_stage_timing_on_stderr_only(spec, seed, capsys):
    # the stage seconds go to stderr next to the counters line, so
    # stdout repeats byte for byte (the golden test pins its bytes);
    # the identity spec takes the deterministic route, conforming_n4 not
    argv = ["order", "--spec", spec, "--seed", seed]
    rc, out, err = run(argv, capsys)
    assert rc == 0
    line, = [l for l in err.splitlines()
             if l.startswith("timing: chain-stages ")]
    stages = dict(f.split("=") for f in line.split()[2:])
    assert list(stages) == ["fill", "random", "complete"]
    assert all(float(v.removesuffix("s")) >= 0 for v in stages.values())
    assert "timing" not in out
    rc, again, _ = run(argv, capsys)
    assert again == out


def test_order_on_lossy_boxes_is_a_group_order(tmp_path, capsys):
    # the Feistel swap (x1, x2) -> (x2, x1 ^ S(x2)) is a bijection for
    # any S, so lossy boxes still generate a group, and its order is
    # certified like any other
    spec = cipher.random_spec(1, 4, 1, np.random.default_rng(5),
                              bijective=False)
    assert not spec.bijective
    lossy = tmp_path / "lossy.json"
    cipher.save_spec(spec, lossy)
    rc, out, _ = run(["order", "--spec", str(lossy)], capsys)
    assert rc == 0
    assert "identification: alternating group" in out
    assert "certificate: alternating-order-match" in out


def test_order_refuses_large_degree(capsys):
    rc, _, err = run(["order", "--spec", CONFORMING_N8], capsys)
    assert rc == 1
    assert "2^12" in err


def test_max_degree_cap_named_in_error(capsys):
    rc, _, err = run(["verdict", "--spec", GOST_FRAME], capsys)
    assert rc == 1
    assert "exceeds the materialize cap 2^24" in err


def sims_past_chain_cap(monkeypatch):
    # refused before _alphabet inverts a generator
    monkeypatch.setattr(perms, "inverse", None)
    groups.schreier_sims([np.arange(words.CAPS["chain-degree"] + 1)])


def rows_past_transversal_cap(monkeypatch):
    chain = groups.StabilizerChain(1)
    chain._add_rows(words.CAPS["transversal"])
    chain._add_rows(1)


# For each cap: its bound as errors print it, then each way to pass it
# by the least step, with the size the error names.  A way is a command
# line, run on a spec of width n when n is given, or a library call.
CAP_CASES = {
    "width": ("64", [(["validate"], 65, "65")]),
    "table": ("2^24", [(["types"], 25, "2^25")]),
    "materialize": ("2^24", [
        (["scan-blocks"], 13, "2^26"), (["verdict"], 13, "2^26"),
        (lambda mp: perms.word_evaluator(
            cipher.CipherSpec(13, 1, 13, 0, ((0, 1),) * 13)), None, "2^26")]),
    "chain-degree": ("2^12", [(["order"], 7, "2^14"),
                              (sims_past_chain_cap, None, "4097")]),
    "transversal": ("2^26", [(rows_past_transversal_cap, None,
                              str((1 << 26) + 1))]),
    "goursat-width": ("16", [(["goursat", "--n", "17"], None, "17")]),
}


def spec_of_width(tmp_path, n):
    """An identity spec of n one-bit bricks: a small file at any width."""
    path = tmp_path / f"width{n}.json"
    path.write_text(json.dumps({"n": n, "m": 1, "delta": n, "r": 0,
                                "sboxes": [[0, 1]] * n}))
    return str(path)


@pytest.mark.parametrize("cap", sorted(words.CAPS))
def test_each_cap_refuses_the_least_size_past_it(cap, tmp_path, monkeypatch,
                                                 capsys):
    assert sorted(CAP_CASES) == sorted(words.CAPS)
    bound, ways = CAP_CASES[cap]
    words.check_cap(cap, words.CAPS[cap])  # the bound itself passes
    for way, n, size in ways:
        if callable(way):
            with pytest.raises(ValueError) as raised:
                way(monkeypatch)
            message = str(raised.value)
        else:
            argv = way + ["--spec", spec_of_width(tmp_path, n)] if n else way
            rc, out, err = run(argv, capsys)
            assert one_line_error(rc, err) and out == "", err
            message = err
        assert f"size {size} exceeds the {cap} cap {bound}" in message
        assert "\n" not in message.rstrip("\n")


@pytest.mark.parametrize("cap,log2,argv,bound", [
    ("materialize", 14, ["verdict", "--spec", CONFORMING_N8], "2^14"),
    ("chain-degree", 7, ["order", "--spec", CONFORMING_N4], "128")])
def test_a_patched_cap_moves_its_bound_and_its_header(cap, log2, argv, bound,
                                                       monkeypatch, capsys):
    monkeypatch.setitem(words.CAPS, cap, 1 << log2)
    rc, _, err = run(argv, capsys)
    assert one_line_error(rc, err), err
    assert f"exceeds the {cap} cap {bound}" in err
    _, text, _ = run(["validate", "--spec", CONFORMING_N4], capsys)
    assert f" {cap}=2^{log2}" in text
    _, record, _ = run(["validate", "--spec", CONFORMING_N4, "--format",
                        "json"], capsys)
    assert json.loads(record)["caps"][cap.replace("-", "_") + "_log2"] == log2


def test_missing_spec_file_exit_1(capsys):
    rc, _, err = run(["verdict", "--spec", "no/such/file.json"], capsys)
    assert rc == 1
    assert "error:" in err


def test_malformed_spec_positioned_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 8, "m": 2, "delta": 4}')
    rc, _, err = run(["validate", "--spec", str(bad)], capsys)
    assert rc == 1
    assert "error:" in err


def test_encrypt_plain_swap(tmp_path, capsys):
    spec = cipher.load_spec(CONFORMING_N4)
    states = tmp_path / "states.txt"
    states.write_text("3 c\nf 0\n")
    rc, out, _ = run(
        ["encrypt", "--spec", CONFORMING_N4, "--input", str(states)],
        capsys)
    assert rc == 0
    got = [tuple(int(t, 16) for t in line.split())
           for line in out.strip().splitlines()]
    assert got == [cipher.sigma_apply(spec, (3, 12)),
                   cipher.sigma_apply(spec, (15, 0))]


def test_encrypt_round_trip_with_keys(tmp_path, capsys):
    states = tmp_path / "states.txt"
    states.write_text("3 c\nf 0\n1 2\n# comment line\n")
    keys = tmp_path / "keys.txt"
    keys.write_text("5\na\n3 1 2 c\n")
    rc, out, _ = run(
        ["encrypt", "--spec", CONFORMING_N4, "--keys", str(keys),
         "--input", str(states)], capsys)
    assert rc == 0
    middle = tmp_path / "cipher.txt"
    middle.write_text(out)
    rc, out, _ = run(
        ["encrypt", "--spec", CONFORMING_N4, "--keys", str(keys),
         "--input", str(middle), "--inverse"], capsys)
    assert rc == 0
    assert out.strip().splitlines() == ["3 c", "f 0", "1 2"]


def test_encrypt_rejects_bad_line(tmp_path, capsys):
    states = tmp_path / "states.txt"
    states.write_text("3 c q\n")
    rc, _, err = run(
        ["encrypt", "--spec", CONFORMING_N4, "--input", str(states)],
        capsys)
    assert rc == 1
    assert "line 1" in err


def test_encrypt_rejects_out_of_range(tmp_path, capsys):
    states = tmp_path / "states.txt"
    states.write_text("10 0\n")
    rc, _, err = run(
        ["encrypt", "--spec", CONFORMING_N4, "--input", str(states)],
        capsys)
    assert rc == 1
    assert "out of range" in err


def test_verdict_imports_no_scipy():
    # numpy is the only runtime dependency
    code = ("import sys; from roundgroup import cli; "
            f"rc = cli.main(['verdict', '--spec', {CONFORMING_N4!r}]); "
            "print(rc, 'scipy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["0", "False"]


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "roundgroup.cli", "goursat", "--n", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "subgroups: 5" in proc.stdout


@pytest.mark.parametrize("conclusion,code", [
    ("AltCertified", 0), ("TheoremApplies", 0),
    ("Imprimitive", 2), ("Inconclusive", 3)])
def test_exit_code_table(conclusion, code):
    from roundgroup import verify
    assert verify.EXIT_CODES[conclusion] == code


def one_line_error(rc, err):
    return rc == 1 and len(err.splitlines()) == 1 and err.startswith("error:")


@pytest.mark.parametrize("argv,named", [
    (["verdict"], "--spec"),
    (["verdict", "--spec", CONFORMING_N4, "--budget", "x"], "--budget"),
    (["order", "--spec", CONFORMING_N4, "--format", "yaml"], "--format"),
    (["no-such-command"], "no-such-command"),
    ([], "command"),
])
def test_usage_errors_exit_1(argv, named, capsys):
    # argparse's own status 2 would read as an Imprimitive verdict
    rc, out, err = run(argv, capsys)
    assert one_line_error(rc, err), (rc, err)
    assert named in err
    assert out == ""


@pytest.mark.parametrize("sboxes", ["5", "null", "[5, 6]", '"abcd"',
                                    '["0123", "0123"]',
                                    "[[0, true, 2, 3], [0, 1, 2, 3]]",
                                    '[["zz", 2, 3, 0], [0, 1, 2, 3]]'])
def test_malformed_sboxes_exit_1(sboxes, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 4, "m": 2, "delta": 2, "r": 2, "sboxes": %s}'
                   % sboxes)
    rc, _, err = run(["validate", "--spec", str(bad)], capsys)
    assert one_line_error(rc, err), err
    # a bad entry is named by its table, anything else is not a list
    # of tables
    if "true" in sboxes:
        assert "table 0: entry True" in err
    elif "zz" in sboxes:
        assert "table 0: entry 'zz'" in err
    else:
        assert "sboxes a list of tables" in err


@pytest.mark.parametrize("field", ['"n": null', '"r": [1]', '"m": {}',
                                   '"delta": Infinity', '"n": 4.9',
                                   '"n": 4.0', '"delta": "2"', '"m": true',
                                   '"r": false'])
def test_malformed_integer_fields_exit_1(field, tmp_path, capsys):
    # each case spoils one field of a well-formed spec; a float, string
    # or boolean would otherwise load as a nearby spec
    data = {"n": 4, "m": 2, "delta": 2, "r": 2}
    key, value = field.split(": ")
    data[key.strip('"')] = value
    body = ", ".join(f'"{k}": {v}' for k, v in data.items())
    bad = tmp_path / "bad.json"
    bad.write_text('{%s, "sboxes": [[0, 1, 2, 3], [0, 1, 2, 3]]}' % body)
    rc, _, err = run(["validate", "--spec", str(bad)], capsys)
    assert one_line_error(rc, err), err


def encrypt(tmp_path, capsys, states, keys=None):
    # a lone surrogate "\udcff" is written as the byte 0xff, not UTF-8
    path = tmp_path / "states.txt"
    path.write_text(states, errors="surrogateescape")
    argv = ["encrypt", "--spec", CONFORMING_N4, "--input", str(path)]
    if keys is not None:
        key_path = tmp_path / "keys.txt"
        key_path.write_text(keys, errors="surrogateescape")
        argv += ["--keys", str(key_path)]
    return run(argv, capsys)


@pytest.mark.parametrize("states,keys,where", [
    ("-1 0\n", None, "state line 1"),
    ("0 0\n3 -1\n", None, "state line 2"),
    ("0 0\n", "-1\n", "key line 1"),
    ("0 0\n", "1\n1 2 3 -4\n", "key line 2"),
    ("zz 1\n", None, "state line 1"),
    ("0 0\n", "# comment\nzz\n", "key line 2"),
    ("0 0\n", "1 2\n", "key line 1"),
    ("0 0\n\udcff 1\n", None, "state line 2"),
    ("0 0\n", "1\n\udcff\n", "key line 2"),
])
def test_bad_state_and_key_lines_named(states, keys, where, tmp_path,
                                       capsys):
    rc, out, err = encrypt(tmp_path, capsys, states, keys)
    assert one_line_error(rc, err), err
    assert where in err
    assert out == ""


@pytest.mark.parametrize("flag,value", [("--budget", "-5"),
                                        ("--word-len", "-3"),
                                        ("--word-len", "0")])
def test_negative_budget_and_empty_words_rejected(flag, value, capsys):
    rc, out, err = run(["verdict", "--spec", CONFORMING_N4, flag, value],
                       capsys)
    assert one_line_error(rc, err), err
    assert flag in err
    assert out == ""


def test_budget_zero_stays_legal(capsys):
    rc, out, _ = run(["verdict", "--spec", CONFORMING_N4, "--budget", "0"],
                     capsys)
    assert rc == 3  # delta = 2 is outside the theorem's scope
    assert "giant-witness: NONE within budget 0" in out
    assert "conclusion: Inconclusive" in out


def test_verdict_json_tells_a_missed_witness_from_a_skipped_one(capsys):
    # NONE (searched, nothing found) records the budget it spent;
    # SKIPPED (gated off) stays null
    rc, out, _ = run(["verdict", "--spec", CONFORMING_N8, "--budget", "0",
                      "--format", "json"], capsys)
    assert rc == 0  # TheoremApplies
    assert json.loads(out)["verdict"]["witness"] == {"prime": None,
                                                     "trials_used": 0}
    rc, out, _ = run(["verdict", "--spec", IDENTITY_N8, "--format", "json"],
                     capsys)
    assert rc == 2
    assert json.loads(out)["verdict"]["witness"] is None


def test_main_reuses_one_parser(monkeypatch, capsys):
    # every call parses with the parser built at import, and each gets
    # a fresh namespace with its own subcommand's defaults
    def rebuilt():
        raise AssertionError("parser rebuilt per call")

    monkeypatch.setattr(cli, "build_parser", rebuilt)
    rc, out, _ = run(["verdict", "--spec", CONFORMING_N4, "--seed", "5",
                      "--budget", "0"], capsys)
    assert rc == 3 and "seed: 5" in out
    rc, out, _ = run(["validate", "--spec", CONFORMING_N4], capsys)
    assert rc == 0 and "seed: 0" in out


def test_witness_found_on_lossy_boxes(tmp_path, capsys):
    # the gate reads parity and primitivity, not bijectivity; the
    # reported word is replayed on the built generators
    spec = cipher.random_spec(2, 2, 2, np.random.default_rng(5),
                              bijective=False)
    lossy = tmp_path / "lossy.json"
    cipher.save_spec(spec, lossy)
    rc, out, _ = run(["verdict", "--spec", str(lossy)], capsys)
    assert rc == 0
    assert "giant-witness: FOUND" in out
    assert "conclusion: AltCertified" in out
    rc, out, _ = run(["verdict", "--spec", str(lossy), "--format", "json"],
                     capsys)
    witness = oracles.witness_from_record(
        json.loads(out)["verdict"]["witness"])
    assert oracles.witness_replays(perms.standard_generators(spec), witness)


@pytest.mark.parametrize("command", ["validate", "scan-blocks", "types",
                                     "order", "verdict"])
def test_negative_seed_rejected(command, capsys):
    rc, out, err = run([command, "--spec", CONFORMING_N4, "--seed", "-1"],
                       capsys)
    assert one_line_error(rc, err), err
    assert "--seed" in err
    assert out == ""


def test_removed_flags_are_usage_errors(capsys):
    for argv in (["verdict", "--spec", CONFORMING_N4, "--max-degree", "16"],
                 ["verdict", "--spec", CONFORMING_N4, "--word-len", "0"],
                 ["verdict", "--spec", CONFORMING_N4, "--word-len", "-3"],
                 ["encrypt", "--spec", CONFORMING_N4, "--seed", "1"],
                 ["goursat", "--n", "2", "--check"],
                 ["goursat", "--n", "2", "--spec", CONFORMING_N4]):
        rc, _, err = run(argv, capsys)
        assert one_line_error(rc, err), err
        assert "unrecognized arguments" in err
    rc, _, err = run(["selftest"], capsys)
    assert one_line_error(rc, err), err
    assert "invalid choice: 'selftest'" in err
