"""Verifier pipeline: scan soundness, case eliminations, verdicts."""

import collections
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from roundgroup import cipher, cli, goursat, groups, perms, verify
from roundgroup.cipher import CipherSpec

import oracles

SPECS = Path(__file__).resolve().parent.parent / "specs"


def seeded_spec(n, m, r, seed, bijective=True):
    rng = np.random.default_rng(seed)
    return cipher.random_spec(m, n // m, r, rng, bijective)


def identity_spec(n, m, r=0):
    return CipherSpec(n, m, n // m, r, cipher.identity_sboxes(n // m, m))


def test_parity_check():
    # the lemma's hypothesis n >= 2 holds whatever the boxes
    for bijective in (True, False):
        spec = seeded_spec(4, 2, 2, seed=0, bijective=bijective)
        assert verify.parity_check(spec) is True


def test_transitivity_check():
    for bijective in (True, False):
        spec = seeded_spec(4, 2, 2, seed=0, bijective=bijective)
        assert verify.transitivity_check(spec) is True


def grid_specs():
    """n = 2..8, every m dividing n, every r, with bijective, identity,
    lossy and all-zero boxes; then the shipped specs with n <= 8."""
    rng = np.random.default_rng(408)
    for n in range(2, 9):
        for m in [d for d in range(1, n + 1) if n % d == 0]:
            delta = n // m
            for r in range(n):
                yield cipher.random_spec(m, delta, r, rng)
                yield identity_spec(n, m, r)
                yield cipher.random_spec(m, delta, r, rng, bijective=False)
                yield CipherSpec(n, m, delta, r, ((0,) * (1 << m),) * delta)
    for path in sorted(SPECS.glob("*.json")):
        spec = cipher.load_spec(path)
        if spec.n <= 8:
            yield spec


def test_form_sign_and_translation_orbit_match_dense():
    """The lemmas parity_check and transitivity_check state, against
    the dense cycle count and orbit of the built generators."""
    dense = {}  # generator bytes -> dense sign; shared maps repeat

    def dense_sign(p):
        key = p.tobytes()
        if key not in dense:
            dense[key] = perms.sign(p)
        return dense[key]

    orbits = {}
    specs = list(grid_specs())
    assert len(specs) == 408 + 4
    for spec in specs:
        gens = perms.standard_generators(spec)
        assert verify.parity_check(spec)
        assert [dense_sign(g) for g in gens] == [1, 1, 1]
        key = gens[2].tobytes()
        if key not in orbits:
            orbits[key] = int(groups.orbit_mask(gens, 0).sum())
        assert verify.transitivity_check(spec)
        assert orbits[key] == spec.degree


def holds(verdict):
    """Each check of the verdict by key: does it hold?"""
    return {c.key: c.holds for c in verdict.checks}


def witness_searched(verdict):
    """Did the gate let the witness search run?  The witness check's
    value is None exactly when it did not."""
    witness, = (c for c in verdict.checks if c.key == "witness")
    return witness.value is not None


def test_verdict_takes_the_form_route(monkeypatch, tmp_path, capsys):
    spec = seeded_spec(6, 2, 3, seed=5)
    expected = verify.full_verdict(spec, seed=11)
    assert holds(expected)["parity"] and holds(expected)["transitivity"]
    path = tmp_path / "spec.json"
    cipher.save_spec(spec, path)
    commands = [[cmd, "--spec", str(path)] for cmd in ("verdict",
                                                        "scan-blocks")]
    reports = [(cli.main(argv), capsys.readouterr().out)
               for argv in commands]
    assert [rc for rc, _ in reports] == [0, 0]
    real_sign = perms.sign

    def dense(*args):
        raise AssertionError("dense route taken")

    monkeypatch.setattr(perms, "sign", dense)
    monkeypatch.setattr(groups, "orbit_mask", dense)
    assert verify.full_verdict(spec, seed=11) == expected
    assert [(cli.main(argv), capsys.readouterr().out)
            for argv in commands] == reports
    signs = []

    def counted(p):
        signs.append(p)
        return real_sign(p)

    monkeypatch.setattr(perms, "sign", counted)
    assert cli.main(["order", "--spec", str(SPECS / "conforming_n4.json")]) \
        == 0
    assert len(signs) == 3


def test_scan_empty_on_conforming():
    for seed in range(3):
        spec = seeded_spec(8, 2, 3, seed=seed)
        scan = verify.block_scan(spec)
        assert scan.empty
        assert scan.subgroups_tested == 1513  # 1515 minus trivial and full


def test_scan_identity_control_diagonals():
    for n, m in ((4, 2), (8, 2)):
        spec = identity_spec(n, m)
        scan = verify.block_scan(spec)
        got = sorted(c.triple for c in scan.candidates)
        assert got == [(q, q, q, q, 1) for q in range(1, n)]
        assert all(c.certified for c in scan.candidates)


def test_scan_shift_is_mixed_zero():
    spec = seeded_spec(8, 2, 4, seed=7)
    scan = verify.block_scan(spec)
    assert scan.shift == cipher.apply_s(spec, 0)


def proper_rows(n):
    return [row for row in oracles.subgroup_rows(n)
            if 1 < goursat.size(row, n) < 4 ** n]


def test_certified_candidates_are_real_partitions():
    spec = identity_spec(4, 2)
    gens = perms.standard_generators(spec)
    table = cipher.s_table(spec)
    scan = verify.block_scan(spec)
    certified = {cand.triple for cand in scan.certified}
    assert certified
    for row in proper_rows(spec.n):
        labels = goursat.coset_labels(row, spec.n)
        assert np.array_equal(labels, oracles.coset_labels(row, spec.n))
        want = all(oracles.partition_invariant(labels, g) for g in gens)
        assert verify.partition_invariant(table, row) == want
        if row in certified:
            assert want


def test_partition_invariant_detects_breakage():
    labels = np.array([0, 0, 1, 1])  # the cosets of (Z/2) x 0, n = 1
    keeps = np.array([1, 0, 3, 2])
    breaks = np.array([0, 2, 1, 3])
    assert oracles.partition_invariant(labels, keeps)
    assert not oracles.partition_invariant(labels, breaks)
    row = (0, 0, 1, 1, 1)
    assert oracles.roll_invariant(labels, keeps, row, 1)
    assert not oracles.roll_invariant(labels, breaks, row, 1)
    for row in proper_rows(1):
        labels = goursat.coset_labels(row, 1)
        for perm in itertools.permutations(range(4)):
            perm = np.array(perm)
            assert oracles.roll_invariant(labels, perm, row, 1) == \
                oracles.partition_invariant(labels, perm)


def set_equation_holds(row, n, sigma, shift):
    """sigma(H) == H + (0, shift), compared over every member of H;
    H is the coset of zero under the oracle's labels, so no member
    listing of goursat is read."""
    mask = (1 << n) - 1
    members = np.flatnonzero(oracles.coset_labels(row, n) == 0)
    image = np.sort(sigma[members])
    shifted = np.sort((members & mask)
                      | ((((members >> n) + shift) & mask) << n))
    return bool(np.array_equal(image, shifted))


def test_one_pass_survivor_check_decides_the_set_equation(monkeypatch):
    """With the probe pass switched off every proper subgroup reaches
    the survivor check, which maps one member per coset of K alone
    (verify.block_scan): its candidates must be exactly the subgroups
    whose whole member set satisfies the set equation.  n = 2..5,
    every m and r, identity, bijective and lossy boxes."""
    def no_probe(subgroups, table):
        return np.zeros(len(subgroups), dtype=bool)

    monkeypatch.setattr(verify, "probe_refuted", no_probe)
    rng = np.random.default_rng(1507)
    pairs, outcomes = 0, collections.Counter()
    for n in range(2, 6):
        rows = proper_rows(n)
        for m in [d for d in range(1, n + 1) if n % d == 0]:
            for r in range(n):
                for spec in (identity_spec(n, m, r),
                             cipher.random_spec(m, n // m, r, rng),
                             cipher.random_spec(m, n // m, r, rng,
                                                bijective=False)):
                    sigma = perms.standard_generators(spec)[2]
                    shift = cipher.apply_s(spec, 0)
                    holds = [set_equation_holds(row, n, sigma, shift)
                             for row in rows]
                    scan = verify.block_scan(spec)
                    assert scan.probe_refuted == 0
                    assert [c.triple for c in scan.candidates] == \
                        [row for row, ok in zip(rows, holds) if ok]
                    pairs += len(rows)
                    outcomes.update(holds)
    assert pairs == 8952
    assert outcomes[True] > 0 and outcomes[False] > 0


def partition_invariant_oracle(labels, perm):
    """The sort-based check that the linear partition_invariant replaced."""
    _, rep_idx, inverse = np.unique(labels, return_index=True,
                                    return_inverse=True)
    expected = labels[perm[rep_idx]][inverse]
    return bool(np.array_equal(labels[perm], expected))


@pytest.mark.parametrize("spec", [
    seeded_spec(6, 2, 3, seed=11),                    # conforming
    seeded_spec(6, 3, 3, seed=12),                    # conforming
    identity_spec(4, 2),                              # r = 0, identity boxes
    identity_spec(6, 2),
    seeded_spec(6, 2, 0, seed=13),                    # r = 0, random boxes
    seeded_spec(4, 1, 0, seed=14),
    seeded_spec(6, 2, 1, seed=15),                    # non-conforming r
    seeded_spec(6, 2, 3, seed=16, bijective=False),   # lossy boxes
    seeded_spec(4, 2, 0, seed=17, bijective=False),
], ids=lambda spec: f"n{spec.n}m{spec.m}r{spec.r}"
                    f"{'' if spec.bijective else '-lossy'}")
def test_probe_reject_against_full_set_equation(spec):
    gens = perms.standard_generators(spec)
    sigma = gens[2]
    shift = cipher.apply_s(spec, 0)
    n = spec.n
    rows = proper_rows(n)
    table = np.array(rows, dtype=np.int64)
    by_pass = verify.probe_refuted(table, cipher.s_table(spec)).tolist()
    expected = []
    refuted = 0
    for row, pass_refutes in zip(rows, by_pass):
        holds = set_equation_holds(row, n, sigma, shift)
        assert pass_refutes == oracles.probe_refutes(row, n, sigma, shift)
        if pass_refutes:
            refuted += 1
            assert not holds, goursat.describe(row)
        if holds:
            labels = oracles.coset_labels(row, n)
            expected.append((row, all(
                partition_invariant_oracle(labels, g) for g in gens)))
    assert refuted > 0
    scan = verify.block_scan(spec)
    assert [(c.triple, c.certified) for c in scan.candidates] == expected
    assert scan.probe_refuted == refuted


def swap_cyclic_coset(row, n, labels):
    """The permutation swapping C = <g1> pointwise with C + d, d outside
    H, for g1, g2 = goursat.generators(row, n): it sends each coset of
    <g1> onto a coset of <g1>, so into a coset of H, yet it splits H
    itself whenever g2 is not in <g1>."""
    mask = (1 << n) - 1
    (a1, c1), _ = goursat.generators(row, n)
    i = np.arange(1 << n, dtype=np.int64)
    cyc = np.unique(((i * a1) & mask) | (((i * c1) & mask) << n))
    d = int(np.flatnonzero(labels != labels[0])[0])
    moved = (((cyc & mask) + (d & mask)) & mask) \
        | ((((cyc >> n) + (d >> n)) & mask) << n)
    perm = np.arange(len(labels), dtype=np.int64)
    perm[cyc], perm[moved] = moved, cyc
    return perm


def test_partition_invariant_matches_sort_oracle():
    rng = np.random.default_rng(2024)
    outcomes = set()
    for spec in (identity_spec(3, 1), seeded_spec(3, 1, 1, seed=3),
                 identity_spec(4, 2), seeded_spec(4, 2, 2, seed=4)):
        gens = perms.standard_generators(spec)
        candidates = gens + [rng.permutation(spec.degree) for _ in range(4)]
        n = spec.n
        for row in proper_rows(n):
            labels = goursat.coset_labels(row, n)
            assert np.array_equal(labels, oracles.coset_labels(row, n))
            for perm in candidates + [swap_cyclic_coset(row, n, labels)]:
                want = partition_invariant_oracle(labels, perm)
                assert oracles.partition_invariant(labels, perm) == want
                assert oracles.roll_invariant(labels, perm, row, n) == want
                outcomes.add(want)
    assert outcomes == {True, False}


def test_scan_matches_oracle_scan_on_the_grid():
    specs = list(grid_specs())
    assert len(specs) >= 300
    kinds = set()
    reference = {}  # sigma bytes -> oracle scan; shared maps repeat
    for spec in specs:
        gens = perms.standard_generators(spec)
        scan = verify.block_scan(spec)
        key = gens[2].tobytes()
        if key not in reference:
            reference[key] = oracles.block_scan_reference(spec, gens)
        assert scan == reference[key]
        whole_set = (scan.subgroups_tested - scan.probe_refuted
                     - len(scan.candidates))
        kinds |= {"certified" for c in scan.candidates if c.certified}
        kinds |= {"refuted" for c in scan.candidates if not c.certified}
        kinds |= {"whole-set"} if whole_set else set()
    assert kinds == {"certified", "refuted", "whole-set"}


def test_partition_invariant_matches_roll_oracle_on_every_subgroup():
    """The difference lemma against the dense roll check of the swap
    map, on every proper subgroup rather than the scan's candidates
    alone (a candidate already satisfies the set equation, which hides
    a lemma that skips its membership test or its second generator):
    the grid specs with n <= 4, every table at n = 1 and arbitrary
    2**n tables, lossy and bijective."""
    rng = np.random.default_rng(1507)
    tables = [cipher.s_table(spec) for spec in grid_specs() if spec.n <= 4]
    tables += [np.array(t) for t in itertools.product(range(2), repeat=2)]
    for n in (2, 3, 4):
        tables += [rng.integers(0, 1 << n, 1 << n) for _ in range(6)]
        tables += [rng.permutation(1 << n) for _ in range(6)]
    labels = {}  # row -> oracle coset labels
    outcomes = collections.Counter()
    for table in tables:
        n = len(table).bit_length() - 1
        sigma = oracles.swap_from_table(table)
        for row in proper_rows(n):
            if (row, n) not in labels:
                labels[row, n] = oracles.coset_labels(row, n)
            want = oracles.roll_invariant(labels[row, n], sigma, row, n)
            assert verify.partition_invariant(table, row) == want, \
                (table.tolist(), goursat.describe(row))
            outcomes[want] += 1
    assert outcomes[True] > 0 and outcomes[False] > 0


@pytest.mark.parametrize("n", [4, 6])
def test_scan_certifies_each_candidate_from_the_s_table(n, monkeypatch):
    """Certification reads the one S table of the scan, once per
    candidate, and builds no dense map: the translations keep every
    coset partition and sigma is read in closed form."""
    spec = identity_spec(n, 2)  # r = 0: certified diagonal candidates
    tables, checked = [], []

    def table_spy(spec, real=cipher.s_table):
        tables.append(real(spec))
        return tables[-1]

    def spy(table, row, real=verify.partition_invariant):
        checked.append(table)
        return real(table, row)

    def dense(*args):
        raise AssertionError("dense map built")

    monkeypatch.setattr(cipher, "s_table", table_spy)
    monkeypatch.setattr(verify, "partition_invariant", spy)
    monkeypatch.setattr(perms, "word_evaluator", dense)
    scan = verify.block_scan(spec)
    assert len(tables) == 1
    assert all(table is tables[0] for table in checked)
    assert len(checked) == len(scan.candidates) > 0


def test_scan_agrees_with_generic_blocks_at_degree_256():
    specs = [identity_spec(4, 2), identity_spec(4, 1),
             seeded_spec(4, 2, 2, seed=1), seeded_spec(4, 2, 2, seed=2),
             seeded_spec(4, 1, 1, seed=3),
             seeded_spec(4, 2, 1, seed=4),      # non-conforming rotation
             seeded_spec(4, 2, 2, seed=5, bijective=False)]
    for spec in specs:
        assert oracles.atkinson_agrees_with_scan(spec)


def test_diagonal_check():
    for seed in range(3):
        spec = seeded_spec(8, 2, 3, seed=seed)
        chk = verify.diagonal_check(spec)
        assert chk.holds and chk.value["passed"]
        assert int(chk.value["s_at_zero_hex"], 16) == cipher.apply_s(spec, 0)
        assert int(chk.value["s_at_top_hex"], 16) == cipher.apply_s(spec, 128)
    # identity mixing at n=4: 0 vs the rotated top bit
    ident = identity_spec(4, 2, r=2)
    chk = verify.diagonal_check(ident)
    assert chk.holds and int(chk.value["s_at_zero_hex"], 16) == 0

    # contrived collision: constant boxes make S constant
    tables = tuple(tuple(0 for _ in range(4)) for _ in range(4))
    flat = CipherSpec(8, 2, 4, 3, tables)
    chk = verify.diagonal_check(flat)
    assert not chk.holds
    assert chk.value["s_at_zero_hex"] == chk.value["s_at_top_hex"]


def test_affine_check_bounds():
    assert verify.affine_check(8).holds          # 3 + 2 < 8
    assert verify.affine_check(32).holds         # 5 + 2 < 32
    assert not verify.affine_check(4).holds      # 2 + 2 >= 4
    assert not verify.affine_check(5).holds      # 3 + 2 >= 5
    assert verify.affine_check(6).holds          # 3 + 2 < 6
    for n in range(6, 65):
        assert verify.affine_check(n).holds
    for n in range(2, 6):
        assert not verify.affine_check(n).holds
    with pytest.raises(ValueError):
        verify.affine_check(1)


def test_wreath_check_conforming():
    for n, m, r, seed in ((8, 2, 3, 0), (8, 2, 2, 1), (8, 2, 6, 2),
                          (12, 3, 5, 3), (12, 2, 7, 4)):
        spec = seeded_spec(n, m, r, seed=seed)
        chk = verify.wreath_check(spec).value
        assert chk["distinct_images"] and chk["excluded"]
        assert chk["top_slice_zero_hex"] == chk["top_slice_top_hex"]


def test_wreath_check_identity_minimal_rotation():
    # identity boxes, r = m: zero maps to zero, the top word rotates
    # into the low half; the top bricks of both images are zero
    spec = identity_spec(8, 2, r=2)
    chk = verify.wreath_check(spec)
    assert cipher.apply_s(spec, 0) == 0
    assert cipher.apply_s(spec, 128) == 1 << (7 + 2 - 8)  # top bit rotated
    assert chk.value["distinct_images"]
    assert chk.value["top_slice_zero_hex"] == "0"
    assert chk.value["top_slice_top_hex"] == "0"
    assert chk.holds


def test_wreath_check_r0_not_excluded():
    # without the rotation the top bricks genuinely differ
    for seed in range(3):
        spec = seeded_spec(8, 2, 0, seed=seed)
        chk = verify.wreath_check(spec)
        assert chk.value["distinct_images"]
        assert chk.value["top_slice_zero_hex"] \
            != chk.value["top_slice_top_hex"]
        assert not chk.holds


def test_psl_check():
    chk = verify.psl_check(8)
    assert chk.holds
    assert chk.value["factors"] == [255, 257]
    assert chk.value["gcd"] == 1
    chk2 = verify.psl_check(2)
    assert chk2.holds and chk2.value["factors"] == [3, 5]
    for n in range(2, 65):
        chk = verify.psl_check(n)
        assert chk.holds
        minus, plus = chk.value["factors"]
        assert minus * plus == (1 << (2 * n)) - 1
    with pytest.raises(ValueError):
        verify.psl_check(1)


def test_full_verdict_alt_certified():
    spec = cipher.load_spec("specs/conforming_n8.json")
    v = verify.full_verdict(spec, seed=20260823)
    assert v.conclusion == verify.ALT_CERTIFIED
    assert v.exit_code == 0
    assert holds(v)["parity"] and holds(v)["transitivity"] and v.primitive
    assert v.witness is not None
    assert 32768 < v.witness.prime < 65534
    assert oracles.witness_replays(perms.standard_generators(spec), v.witness)


def refuse(*args):
    raise AssertionError("state array built")


def test_alt_certified_verdict_builds_no_dense_map(monkeypatch):
    # the witness words are evaluated from the S table: no dense
    # generator is built, sigma included, and one word evaluator
    built = []

    def counted(spec, real=perms.word_evaluator):
        built.append(spec)
        return real(spec)

    monkeypatch.setattr(perms, "standard_generators", refuse)
    monkeypatch.setattr(perms, "word_evaluator", counted)
    spec = seeded_spec(6, 2, 3, seed=5)
    v = verify.full_verdict(spec, seed=11)
    assert v.conclusion == verify.ALT_CERTIFIED
    assert built == [spec]


def test_verdict_builds_nothing_for_no_trial(monkeypatch):
    """Budget 0 on a conforming spec (TheoremApplies) and a search gated
    off by certified blocks (identity boxes, r=0: Imprimitive) build
    neither a dense generator nor the word evaluator; past the
    materialize cap the scan still refuses first, with its message."""
    for name in ("standard_generators", "word_evaluator"):
        monkeypatch.setattr(perms, name, refuse)
    v = verify.full_verdict(cipher.load_spec(SPECS / "conforming_n8.json"),
                            seed=3, budget=0)
    assert witness_searched(v) and v.witness is None
    assert v.conclusion == verify.THEOREM_APPLIES
    v = verify.full_verdict(identity_spec(8, 2), seed=1)
    assert not witness_searched(v)
    assert v.conclusion == verify.IMPRIMITIVE
    for budget in (0, 10_000):
        with pytest.raises(ValueError, match=r"^size 2\^28 exceeds the "
                           r"materialize cap 2\^24$"):
            verify.full_verdict(seeded_spec(14, 2, 3, seed=0), seed=1,
                                budget=budget)


def test_full_verdict_imprimitive_control():
    v = verify.full_verdict(identity_spec(8, 2), seed=1)
    assert v.conclusion == verify.IMPRIMITIVE
    assert v.exit_code == 2
    assert len(v.scan.certified) == 7
    assert v.witness is None and not witness_searched(v)


def test_full_verdict_lossy_boxes_alt_certified():
    # parity and primitivity gate the witness search; bijectivity does
    # not, as sigma is a permutation for every S table
    spec = seeded_spec(8, 2, 3, seed=0, bijective=False)
    v = verify.full_verdict(spec, seed=2)
    assert not spec.bijective and v.primitive
    assert witness_searched(v)
    assert v.conclusion == verify.ALT_CERTIFIED
    assert v.exit_code == 0
    assert oracles.witness_replays(perms.standard_generators(spec), v.witness)


def test_full_verdict_theorem_applies_on_budget_zero():
    # no witness search budget: certification falls back to the
    # case-elimination chain, which is in scope at n=8
    spec = cipher.load_spec("specs/conforming_n8.json")
    v = verify.full_verdict(spec, seed=3, budget=0)
    assert v.witness is None and witness_searched(v)
    assert v.conclusion == verify.THEOREM_APPLIES
    assert v.exit_code == 0


def test_refuted_candidate_does_not_gate_the_witness():
    # n=6, r=5, bijective: the scan's one candidate, (2,2,2,2,1), is
    # refuted by the partition check, so the group is primitive
    rng = np.random.default_rng(89)
    r = int(rng.integers(0, 6))
    spec = cipher.random_spec(3, 2, r, rng)
    assert spec.digest().startswith("9ec740c9")
    v = verify.full_verdict(spec, seed=1)
    assert [(c.triple, c.certified)
            for c in v.scan.candidates] == [((2, 2, 2, 2, 1), False)]
    assert v.primitive == verify.is_primitive(holds(v)["transitivity"],
                                              v.scan)
    assert v.primitive and witness_searched(v)
    assert v.conclusion == verify.ALT_CERTIFIED
    assert (v.witness.prime, v.witness.trials_used) == (2531, 8)


def test_full_verdict_deterministic():
    spec = cipher.load_spec("specs/conforming_n4.json")
    v1 = verify.full_verdict(spec, seed=9)
    v2 = verify.full_verdict(spec, seed=9)
    assert v1 == v2


def corpus_specs():
    """Every parameter set with n <= 3: each m dividing n and each r,
    with two bijective draws, identity boxes and one lossy draw."""
    for n in (2, 3):
        for m in [d for d in range(1, n + 1) if n % d == 0]:
            for r in range(n):
                rng = np.random.default_rng(1000 * n + 100 * m + 10 * r)
                yield cipher.random_spec(m, n // m, r, rng)
                yield cipher.random_spec(m, n // m, r, rng)
                yield identity_spec(n, m, r)
                yield cipher.random_spec(m, n // m, r, rng, bijective=False)


def test_verdict_never_contradicts_the_exact_order(tmp_path, capsys):
    """`verdict` against `order` on the corpus.  AltCertified and
    TheoremApplies mean order N!/2, with the witness replayed;
    Imprimitive means a smaller order (so order N!/2 is never
    Imprimitive), each certified partition is a block system by the
    generic oracle, and the verdict is Imprimitive exactly when the
    generic block sweep finds one.  Every lossy spec of order N!/2
    reads AltCertified."""
    path = tmp_path / "spec.json"
    seen = collections.Counter()
    for spec in corpus_specs():
        cipher.save_spec(spec, path)
        reports = {}
        for command, seed in (("verdict", "7"), ("order", "3")):
            cli.main([command, "--spec", str(path), "--seed", seed,
                      "--format", "json"])
            reports[command] = json.loads(capsys.readouterr().out)[command]
        v, chain = reports["verdict"], reports["order"]
        conclusion = v["conclusion"]
        assert chain["certificate"] != "unverified"
        alt = int(chain["order"]) == math.factorial(spec.degree) // 2
        where = f"n={spec.n} m={spec.m} r={spec.r} {spec.sboxes}"
        gens = perms.standard_generators(spec)
        if conclusion in (verify.ALT_CERTIFIED, verify.THEOREM_APPLIES):
            assert alt, where
        if conclusion == verify.ALT_CERTIFIED:
            witness = oracles.witness_from_record(v["witness"])
            assert oracles.witness_replays(gens, witness), where
        if conclusion == verify.IMPRIMITIVE:
            assert not alt, where
            for c in v["block_scan"]["candidates"]:
                if c["certified"]:
                    labels = oracles.coset_labels(c["triple"], spec.n)
                    assert all(oracles.partition_invariant(labels, g)
                               for g in gens), where
        blocks = oracles.primitivity_by_pairs(gens)
        assert (conclusion == verify.IMPRIMITIVE) == (blocks is not None), \
            where
        if alt and not spec.bijective:
            assert conclusion == verify.ALT_CERTIFIED, where
        seen[conclusion, alt, spec.bijective] += 1
    assert sum(seen.values()) == 40
    # every invariant above had cases to act on
    assert seen[verify.ALT_CERTIFIED, True, False] > 0
    assert {(c, alt) for c, alt, _ in seen} == {
        (verify.ALT_CERTIFIED, True), (verify.IMPRIMITIVE, False),
        (verify.INCONCLUSIVE, False)}
