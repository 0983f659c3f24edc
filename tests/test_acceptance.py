"""Acceptance suite: one test per criterion, one line of output each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per
criterion PASS lines; every expected value here was first computed by
an independent oracle run and then frozen.
"""

import math
import time
from collections import Counter
from pathlib import Path

import numpy as np

from roundgroup import boxtypes, cipher, cli, groups, perms, verify
from roundgroup.cipher import CipherSpec

import oracles

SPECS = Path(__file__).resolve().parent.parent / "specs"

# n=8 conforming grid shared by criteria 2 and 3
SCAN_GRID = [(r, 1000 * r + i) for r in (2, 3, 4, 5, 6) for i in range(10)]

# (rotation, spec seed, expected witness prime) for the pinned
# end-to-end certifications; verdict seed 20260823
PINNED_VERDICTS = [(2, 2000, 64951), (3, 3000, 51347), (4, 4000, 54401)]


def test_ac01_all_round_generators_even():
    frames = {2: (1, 2), 3: (1, 3), 4: (2, 2), 8: (2, 4)}
    t0 = time.monotonic()
    checked = 0
    for n, (m, delta) in sorted(frames.items()):
        for s in range(20):
            rng = np.random.default_rng(110_000 + 97 * n + s)
            r = int(rng.integers(0, n))
            spec = cipher.random_spec(m, delta, r, rng)
            signs = [perms.sign(g)
                     for g in perms.standard_generators(spec)]
            assert signs == [1, 1, 1], (n, s, signs)
            checked += 1
    elapsed = time.monotonic() - t0
    assert checked == 80
    assert elapsed < 10.0, f"parity suite took {elapsed:.1f}s"
    print(f"\nAC1 parity: all generators even on 80 specs, n in "
          f"{{2,3,4,8}} ({elapsed:.1f}s): PASS")


def test_ac02_conforming_n8_scan_always_empty():
    for r, seed in SCAN_GRID:
        spec = cipher.random_spec(2, 4, r, np.random.default_rng(seed))
        t0 = time.monotonic()
        scan = verify.block_scan(spec)
        elapsed = time.monotonic() - t0
        assert elapsed < 300.0, f"scan r={r} seed={seed}: {elapsed:.0f}s"
        assert scan.subgroups_tested == 1513
        assert scan.empty, f"r={r} seed={seed}: {scan.candidates}"
    print("\nAC2 primitivity: block scan empty on 50 conforming "
          "n=8 specs, r in {2..6}: PASS")


def test_ac03_alt_certified_with_large_prime_witness():
    for r, spec_seed, expected_prime in PINNED_VERDICTS:
        spec = cipher.random_spec(2, 4, r,
                                  np.random.default_rng(spec_seed))
        v = verify.full_verdict(spec, seed=20260823, budget=10_000)
        assert v.conclusion == verify.ALT_CERTIFIED, (r, v.conclusion)
        assert v.witness is not None, \
            f"r={r}: no witness in budget is a failure for pinned fixtures"
        assert 32768 < v.witness.prime < 65534
        assert v.witness.prime == expected_prime
        assert v.exit_code == 0
    print("\nAC3 certification: AltCertified with prime-cycle witness "
          "on 3 pinned n=8 instances: PASS")


def test_ac04_identity_r0_blocks_at_every_width():
    for n, m, delta in ((4, 2, 2), (8, 2, 4)):
        spec = CipherSpec(n, m, delta, 0, cipher.identity_sboxes(delta, m))
        scan = verify.block_scan(spec)
        certified = {c.triple for c in scan.certified}
        assert certified == {(q, q, q, q, 1) for q in range(1, n)}, n
        v = verify.full_verdict(spec, seed=4)
        assert v.conclusion == verify.IMPRIMITIVE
        assert v.exit_code == 2
        if n == 4:
            system = oracles.primitivity_by_pairs(
                perms.standard_generators(spec))
            assert system is not None and system.n_blocks > 1
    print("\nAC4 negative control: r=0 identity blocks for every "
          "0<q<n at n in {4,8}, exit 2: PASS")


def _mixed_spec(i: int) -> CipherSpec:
    """Deterministic 50-spec corpus at n=4 covering every combination
    of conforming/non-conforming and bijective/non-bijective.

    Exactly one instance (i=9) is a large degenerate group (r=0 with
    random bijective boxes, order 2^312) to exercise the deterministic
    chain certificate at scale.  Some seed/rotation combinations in the
    degenerate classes produce orders near 2^400..2^700 whose
    deterministic verification costs minutes; the rotations below were
    picked so every other instance certifies in under two seconds while
    the corpus still covers all four flag classes and all three
    certificate kinds.
    """
    rng = np.random.default_rng(150_000 + i)
    k = i % 10
    if k < 3:
        return cipher.random_spec(2, 2, 2, rng)
    if k < 5:
        return cipher.random_spec(1, 4, 1 + i % 3, rng)
    if k == 5:
        return cipher.random_spec(2, 2, 3, rng)
    if k == 6:
        return cipher.random_spec(1, 4, 1, rng, bijective=False)
    if k == 7:
        return cipher.random_spec(2, 2, 3, rng, bijective=False)
    if k == 8:
        if (i // 10) % 2 == 0:
            return cipher.random_spec(1, 4, 0, rng)
        return CipherSpec(4, 2, 2, 0, cipher.identity_sboxes(2, 2))
    if i == 9:
        return cipher.random_spec(2, 2, 0, rng)
    m = 2 if (i // 10) % 2 else 1
    return CipherSpec(4, m, 4 // m, 1 + i % 3,
                      cipher.identity_sboxes(4 // m, m))


# regression pins, not oracle values: the counters of the
# schreier-verified AC5 chains (levels, Schreier generators sifted,
# residues absorbed, transversal rows, strong generators).  A change to
# the chain's kernels or to the completion's schedule that alters any of
# these chains fails here.
AC5_VERIFIED = {6: (13, 1812, 22, 384, 25), 8: (23, 6554, 48, 626, 51),
                9: (80, 40908, 228, 2000, 231),
                18: (23, 6626, 51, 626, 54), 28: (23, 6810, 52, 626, 55),
                36: (7, 1418, 11, 370, 14), 38: (23, 6626, 51, 626, 54),
                46: (14, 1972, 25, 390, 28), 48: (23, 6810, 52, 626, 55)}


def test_ac05_scan_matches_generic_blocks_with_exact_orders():
    certificates = Counter()
    verified = {}
    for i in range(50):
        spec = _mixed_spec(i)
        assert oracles.atkinson_agrees_with_scan(spec), i
        chain = groups.schreier_sims(perms.standard_generators(spec),
                                     np.random.default_rng(160_000 + i))
        assert chain.certificate in ("alternating-order-match",
                                     "symmetric-order-match",
                                     "schreier-verified"), i
        assert chain.order >= 1
        certificates[chain.certificate] += 1
        if chain.certificate == "schreier-verified":
            verified[i] = (len(chain.levels), chain.schreier_sifted,
                           chain.absorbed, chain.rows,
                           chain.strong_generators)
            # every Schreier generator sifted one at a time, by a loop
            # that shares no kernel with the completion; i=9 has too
            # many for that, and test_groups checks its order against
            # the sympy pin instead
            if i != 9:
                checked, failures = oracles.schreier_generator_failures(
                    chain)
                assert checked > 0 and failures == [], i
    assert sum(certificates.values()) == 50
    assert verified == AC5_VERIFIED
    print(f"\nAC5 oracle equivalence: scan vs generic blocks agree on "
          f"50 mixed n=4 specs, exact orders via {dict(certificates)}: "
          f"PASS")


def test_ac06_type_calculus_zero_violations():
    frames = [(4, 2, 2), (6, 2, 3), (8, 2, 4), (9, 3, 3),
              (12, 3, 4), (12, 2, 6)]
    rng = np.random.default_rng(170_000)
    translations = 0
    for n, m, delta in frames:
        for q in range(n + 1):
            members = boxtypes.subgroup_members_array(q, n)
            assert boxtypes.type_of(members, m, delta) == \
                boxtypes.subgroup_type(q, m, delta), (n, q)
            for _ in range(20):
                v = int(rng.integers(0, 1 << n))
                assert oracles.xor_translate_keeps_type(
                    members, v, m, delta), (n, q, v)
                assert oracles.modular_translate_keeps_type(
                    q, v, n, m, delta), (n, q, v)
                translations += 2
    assert translations >= 200 * len(frames)
    # bricklayer behaviour on random S-box sets
    for n, m, delta in frames:
        for s in range(3):
            spec = cipher.random_spec(m, delta, 0,
                                      np.random.default_rng(171_000 + s))
            for q in range(n + 1):
                check = oracles.bricklayer_check(spec, q)
                assert check.type_preserved, (n, q, s)
                assert check.coset_identity is (True if check.whole
                                                else None)
    # mixing-map image checks: clean when conforming, loud at r=0
    for s in range(3):
        spec = cipher.random_spec(2, 4, 3, np.random.default_rng(172_000 + s))
        assert boxtypes.s_image_type_violations(spec) == []
        assert boxtypes.s_image_coset_violations(cipher.s_table(spec)) == []
    ident = CipherSpec(8, 2, 4, 0, cipher.identity_sboxes(4, 2))
    assert len(boxtypes.s_image_type_violations(ident)) > 0
    assert len(boxtypes.s_image_coset_violations(cipher.s_table(ident))) > 0
    print("\nAC6 type calculus: zero violations across 6 frames "
          "(n<=12), controls loud: PASS")


def test_ac07_goursat_enumeration_matches_brute_force():
    for n in (1, 2, 3):
        enumerated = {oracles.member_set(row, n)
                      for row in oracles.subgroup_rows(n)}
        assert enumerated == oracles.brute_force_subgroups(n), n
    assert oracles.count_subgroups(1) == 5
    print("\nAC7 subgroup enumeration: matches brute force for "
          "n in {1,2,3}, count 5 at n=1: PASS")


def test_ac08_case_elimination_arithmetic():
    for n in (2, 3, 4, 5):
        assert not verify.affine_check(n).holds, n
    for n in range(6, 65):
        assert verify.affine_check(n).holds, n
    for n in range(2, 65):
        c = verify.psl_check(n)
        assert c.holds and c.value["gcd"] == 1, n
        assert math.gcd((1 << n) - 1, (1 << n) + 1) == 1
        minus, plus = c.value["factors"]
        assert minus * plus == (1 << (2 * n)) - 1
    corpus = [cipher.load_spec(SPECS / name) for name in
              ("conforming_n8.json", "conforming_n4.json",
               "gost_frame_n32.json")]
    for r, seed in SCAN_GRID:
        corpus.append(cipher.random_spec(2, 4, r,
                                         np.random.default_rng(seed)))
    corpus += [s for s in map(_mixed_spec, range(50))
               if s.conforming and s.bijective]
    assert len(corpus) > 60
    for spec in corpus:
        assert verify.wreath_check(spec).holds, spec.digest()
    print(f"\nAC8 case eliminations: affine 6..64, projective 2..64, "
          f"wreath on {len(corpus)} conforming specs: PASS")


def test_ac09_fold_product_subgroups_normal():
    spec = cipher.load_spec(SPECS / "conforming_n4.json")
    gens = perms.standard_generators(spec)
    for fold in (2, 4, 8):
        sub = oracles.words_of_length(gens, fold)
        assert len(sub) == 3 ** fold
        report = oracles.conjugates_contained(
            sub, gens, 100, np.random.default_rng(180_000 + fold))
        assert report.samples == 100
        assert report.failures == 0, (fold, report.failures)
    print("\nAC9 normality: 100 conjugate samples sift for "
          "N-fold products, N in {2,4,8}: PASS")


def test_ac10_pinned_rerun_byte_identical(capsys):
    for fmt in ("text", "json"):
        argv = ["verdict", "--spec", str(SPECS / "conforming_n8.json"),
                "--seed", "20260823", "--format", fmt]
        rc1 = cli.main(argv)
        first = capsys.readouterr().out
        rc2 = cli.main(argv)
        second = capsys.readouterr().out
        assert rc1 == rc2 == 0
        assert first == second, f"report body differs on rerun ({fmt})"
        assert "20260823" in first
    print("\nAC10 reproducibility: pinned-seed rerun byte-identical "
          "in text and json: PASS")
