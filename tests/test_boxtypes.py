"""Box-type calculus: classification, translation lemmas, mixing checks."""

import numpy as np
import pytest

from roundgroup import boxtypes, cipher, cli, words

import oracles


def bijective_spec(n, m, delta, r, seed):
    rng = np.random.default_rng(seed)
    return cipher.CipherSpec(n, m, delta, r,
                             cipher.random_sboxes(delta, m, rng))


def random_typed_set(n, m, delta, rng):
    """A random product-of-projections set: typed by construction."""
    picks = []
    for _ in range(delta):
        size = int(rng.integers(1, (1 << m) + 1))
        picks.append(rng.choice(1 << m, size=size, replace=False))
    vals = np.zeros(1, dtype=np.int64)
    for j, p in enumerate(picks):
        vals = (vals[:, None] | (p.astype(np.int64)[None, :] << (j * m))
                ).reshape(-1)
    return vals


def test_worked_example():
    assert str(boxtypes.subgroup_type(3, 2, 4)) == "WRBB"
    members = boxtypes.subgroup_members_array(3, 8)
    assert boxtypes.type_of(members, 2, 4) == boxtypes.subgroup_type(3, 2, 4)


def test_type_of_extremes():
    assert str(boxtypes.type_of([0], 2, 4)) == "WWWW"
    assert str(boxtypes.type_of(np.arange(256), 2, 4)) == "BBBB"
    with pytest.raises(ValueError):
        boxtypes.type_of([], 2, 4)


def test_type_of_untyped_set():
    # {0, 3} at m=1: both bricks project to {0,1} but the product
    # has four elements
    assert boxtypes.type_of([0, 3], 1, 2) is None


def test_subgroup_type_corners():
    assert str(boxtypes.subgroup_type(0, 2, 4)) == "BBBB"
    assert oracles.is_whole(0, 2)
    assert str(boxtypes.subgroup_type(8, 2, 4)) == "WWWW"
    assert str(boxtypes.subgroup_type(6, 4, 4)) == "WRBB"
    assert not oracles.is_whole(6, 4)


def test_subgroup_type_matches_materialized_exhaustive():
    for n, m, delta in ((4, 2, 2), (6, 2, 3), (6, 3, 2), (8, 2, 4),
                        (9, 3, 3), (12, 2, 6), (12, 3, 4), (12, 4, 3)):
        for q in range(n + 1):
            materialized = boxtypes.type_of(
                boxtypes.subgroup_members_array(q, n), m, delta)
            assert materialized == boxtypes.subgroup_type(q, m, delta)
            assert oracles.is_whole(q, m) == \
                (boxtypes.subgroup_type(q, m, delta).count("R") == 0)


def test_box_counting_sanity():
    rng = np.random.default_rng(6)
    for _ in range(30):
        vals = random_typed_set(8, 2, 4, rng)
        tv = boxtypes.type_of(vals, 2, 4)
        assert tv is not None
        sizes = []
        for j in range(4):
            sizes.append(len(np.unique((vals >> (2 * j)) & 3)))
        prod = 1
        for s in sizes:
            prod *= s
        assert prod == len(vals)


def test_xor_translation_preserves_types():
    rng = np.random.default_rng(12)
    for n, m, delta in ((6, 2, 3), (8, 2, 4), (12, 3, 4)):
        for q in range(n + 1):
            members = boxtypes.subgroup_members_array(q, n)
            for _ in range(40):
                v = int(rng.integers(0, 1 << n))
                assert oracles.xor_translate_keeps_type(members, v, m, delta)
        for _ in range(40):
            vals = random_typed_set(n, m, delta, rng)
            v = int(rng.integers(0, 1 << n))
            assert oracles.xor_translate_keeps_type(vals, v, m, delta)


def test_modular_translation_preserves_subgroup_types():
    rng = np.random.default_rng(13)
    for n, m, delta in ((6, 2, 3), (8, 2, 4), (12, 3, 4), (12, 2, 6)):
        for q in range(n + 1):
            assert oracles.modular_translate_keeps_type(q, 0, n, m, delta)
            for _ in range(200):
                v = int(rng.integers(0, 1 << n))
                assert oracles.modular_translate_keeps_type(
                    q, v, n, m, delta)


def test_modular_translation_can_break_nonsubgroup_types():
    # {0, 1} at n=4, m=2 is typed (RW) but not a subgroup; adding 3
    # carries into brick 2, and {3, 4} has no type at all
    arr = np.array([0, 1], dtype=np.int64)
    assert str(boxtypes.type_of(arr, 2, 2)) == "RW"
    assert boxtypes.type_of((arr + 3) & 15, 2, 2) is None
    # the same translation keeps the type of every subgroup
    for q in range(5):
        assert oracles.modular_translate_keeps_type(q, 3, 4, 2, 2)


def test_bricklayer_identity_gamma():
    spec = cipher.CipherSpec(8, 2, 4, 0, cipher.identity_sboxes(4, 2))
    for q in range(9):
        chk = oracles.bricklayer_check(spec, q)
        assert chk.type_preserved
        if chk.whole:
            assert chk.coset_identity


def test_bricklayer_random_bijective():
    for seed in range(50):
        n, m, delta = 8, 2, 4
        spec = bijective_spec(n, m, delta, 0, seed=seed)
        for q in range(n + 1):
            chk = oracles.bricklayer_check(spec, q)
            assert chk.type_preserved
            if chk.whole:
                assert chk.coset_identity
            else:
                assert chk.coset_identity is None
    # a couple of larger frames
    for n, m, delta, seed in ((12, 3, 4, 0), (12, 2, 6, 1)):
        spec = bijective_spec(n, m, delta, 0, seed=seed)
        for q in range(0, n + 1, m):
            assert oracles.bricklayer_check(spec, q).coset_identity


def test_bricklayer_nonbijective_can_fail_coset_identity():
    # constant boxes collapse the image; the lemma's bijectivity
    # hypothesis is necessary
    tables = tuple(tuple(0 for _ in range(4)) for _ in range(4))
    spec = cipher.CipherSpec(8, 2, 4, 0, tables)
    chk = oracles.bricklayer_check(spec, 2)
    assert chk.whole and not chk.coset_identity


def test_mixing_violations_empty_on_conforming_bijective():
    for n, m, delta, r in ((8, 2, 4, 2), (8, 2, 4, 3), (8, 2, 4, 6),
                           (12, 3, 4, 5), (12, 2, 6, 7), (6, 2, 3, 3),
                           (4, 2, 2, 2)):
        for seed in range(3):
            spec = bijective_spec(n, m, delta, r, seed)
            assert spec.conforming
            assert boxtypes.s_image_type_violations(spec) == []
            table = cipher.s_table(spec)
            assert boxtypes.s_image_coset_violations(table) == []


def test_mixing_violations_identity_control():
    spec = cipher.CipherSpec(8, 2, 4, 0, cipher.identity_sboxes(4, 2))
    assert boxtypes.s_image_type_violations(spec) == list(range(1, 8))
    assert boxtypes.s_image_coset_violations(cipher.s_table(spec)) \
        == list(range(1, 8))


def test_mixing_violations_r0_bijective_control():
    # gamma alone preserves every subgroup type, so the type check
    # flags every q; the exact-coset check always flags the whole q's
    for n, m, delta, seeds in ((8, 2, 4, (0, 1, 2)), (12, 3, 4, (0, 1))):
        whole = set(range(m, n, m))
        for seed in seeds:
            spec = bijective_spec(n, m, delta, 0, seed)
            tv = boxtypes.s_image_type_violations(spec)
            table = cipher.s_table(spec)
            cv = set(boxtypes.s_image_coset_violations(table))
            assert tv == list(range(1, n))
            assert whole <= cv


def test_coset_violation_implies_type_violation():
    # exact coset equality forces equal types via translation invariance
    specs = [cipher.CipherSpec(8, 2, 4, 0, cipher.identity_sboxes(4, 2))]
    specs += [bijective_spec(8, 2, 4, 0, seed) for seed in range(5)]
    specs += [bijective_spec(8, 2, 4, 3, seed) for seed in range(3)]
    for spec in specs:
        tv = set(boxtypes.s_image_type_violations(spec))
        cv = set(boxtypes.s_image_coset_violations(cipher.s_table(spec)))
        assert cv <= tv


def types_grid():
    """n = 2..12, every m dividing n, r in {0, m, n-1}, with bijective,
    identity, lossy and all-zero boxes."""
    rng = np.random.default_rng(1507)
    for n in range(2, 13):
        for m in [d for d in range(1, n + 1) if n % d == 0]:
            delta = n // m
            for r in sorted({0, m, n - 1} & set(range(n))):
                yield cipher.random_spec(m, delta, r, rng)
                yield cipher.CipherSpec(n, m, delta, r,
                                        cipher.identity_sboxes(delta, m))
                yield cipher.random_spec(m, delta, r, rng, bijective=False)
                yield cipher.CipherSpec(n, m, delta, r,
                                        ((0,) * (1 << m),) * delta)


def test_types_report_violations_match_library_and_oracle():
    # the report reads its type violations off its rows and its coset
    # violations from the count-and-congruence rule
    specs = list(types_grid())
    assert len(specs) >= 300
    seen_type = seen_coset = 0
    for spec in specs:
        record = cli.types_report(None, spec)[1]["types"]
        tv = boxtypes.s_image_type_violations(spec)
        cv = oracles.s_image_coset_violations_reference(spec)
        assert record["type_violations"] == tv
        assert record["coset_violations"] == cv
        seen_type += bool(tv)
        seen_coset += bool(cv)
    assert seen_type and seen_coset


def kernel_grid():
    """n = 2..16, every m dividing n with delta >= 2, r in {0, m, n-1,
    3n/4}, with bijective, identity, lossy and all-zero boxes."""
    rng = np.random.default_rng(1507)
    for n in range(2, 17):
        for m in [d for d in range(1, n) if n % d == 0]:
            delta = n // m
            for r in sorted({0, m, n - 1, 3 * n // 4}):
                yield cipher.random_spec(m, delta, r, rng)
                yield cipher.CipherSpec(n, m, delta, r,
                                        cipher.identity_sboxes(delta, m))
                yield cipher.random_spec(m, delta, r, rng, bijective=False)
                yield cipher.CipherSpec(n, m, delta, r,
                                        ((0,) * (1 << m),) * delta)


def test_types_kernels_match_sorting_oracles_on_the_grid():
    # the S table as an outer OR of rotated bricks against the
    # per-brick gather rotated at full width, then the presence-mask
    # image and the bincount type against np.unique, for every q
    specs = list(kernel_grid())
    assert len(specs) >= 500
    for spec in specs:
        table = cipher.s_table(spec)
        expected = words.rotate_left(oracles.gamma_table_reference(spec),
                                     spec.r, spec.n)
        assert table.dtype == expected.dtype == np.int64
        assert np.array_equal(table, expected)
        for q in range(spec.n + 1):
            image = boxtypes.s_image(table, q)
            reference = oracles.s_image_reference(table, q)
            assert image.dtype == np.int64
            assert np.array_equal(image, reference)
            assert boxtypes.type_of(image, spec.m, spec.delta) == \
                oracles.type_of_reference(reference, spec.m, spec.delta)


def test_type_of_accepts_any_order_and_duplicates():
    members = boxtypes.subgroup_members_array(3, 8)  # WRBB at m=2
    shuffled = np.random.default_rng(3).permutation(members)
    for values in (members.tolist(), members[::-1], shuffled,
                   np.repeat(members, 2), set(members.tolist())):
        assert str(boxtypes.type_of(values, 2, 4)) == "WRBB"
    # duplicates count once: {0, 3} at m=1 stays untyped however often
    # its words repeat, and a single word is all white
    assert boxtypes.type_of([3, 0, 3, 0], 1, 2) is None
    assert str(boxtypes.type_of(np.array([5, 5]), 2, 2)) == "WW"
    assert str(boxtypes.type_of([9], 2, 4)) == "WWWW"
    assert str(boxtypes.type_of(np.array([9]), 2, 4)) == "WWWW"
