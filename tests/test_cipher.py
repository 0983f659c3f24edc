"""Round maps: bricklayer, Feistel swap, translations, decompositions."""

import json

import numpy as np
import pytest

from roundgroup import cipher, words
from roundgroup.cipher import CipherSpec

import oracles


def identity_spec(n, m, r=0):
    delta = n // m
    return CipherSpec(n, m, delta, r, cipher.identity_sboxes(delta, m))


def seeded_spec(n, m, r, seed, bijective=True):
    delta = n // m
    rng = np.random.default_rng(seed)
    return cipher.random_spec(m, delta, r, rng, bijective)


def test_structural_validation():
    with pytest.raises(ValueError):
        CipherSpec(8, 2, 3, 1, cipher.identity_sboxes(3, 2))
    with pytest.raises(ValueError):
        CipherSpec(8, 2, 4, 8, cipher.identity_sboxes(4, 2))
    with pytest.raises(ValueError):
        CipherSpec(8, 2, 4, 1, (((0, 1, 2),) * 4))
    with pytest.raises(ValueError):
        CipherSpec(8, 2, 4, 1, (((0, 1, 2, 4),) * 4))


def test_gamma_acts_per_brick():
    spec = seeded_spec(8, 2, 3, seed=11)
    x = 0b11_01_10_00
    out = cipher.apply_gamma(spec, x)
    for j in range(4):
        brick_in = (x >> (2 * j)) & 3
        brick_out = (out >> (2 * j)) & 3
        assert brick_out == spec.sboxes[j][brick_in]


def test_s_is_gamma_then_rotate():
    spec = seeded_spec(8, 2, 3, seed=5)
    for x in range(256):
        assert cipher.apply_s(spec, x) == \
            words.rotate_left(cipher.apply_gamma(spec, x), 3, 8)


def test_sigma_identity_mixing_pinned():
    spec = identity_spec(2, 1)
    assert cipher.sigma_apply(spec, (1, 2)) == (2, 3)
    assert cipher.sigma_inverse_apply(spec, (2, 3)) == (1, 2)


def test_sigma_sends_origin_to_mixed_origin():
    for seed in range(5):
        spec = seeded_spec(8, 2, 4, seed=seed)
        assert cipher.sigma_apply(spec, (0, 0)) == (0, cipher.apply_s(spec, 0))


def test_feistel_round_trip_exhaustive_small():
    # holds even for non-bijective tables
    for bij in (True, False):
        for n, m in ((4, 2), (6, 2), (8, 2)):
            spec = seeded_spec(n, m, r=m, seed=n + bij, bijective=bij)
            for idx in range(1 << (2 * n)):
                st = (idx & ((1 << n) - 1), idx >> n)
                assert cipher.sigma_inverse_apply(
                    spec, cipher.sigma_apply(spec, st)) == st


def test_feistel_round_trip_sampled_wide():
    rng = np.random.default_rng(2024)
    for n, m, r in ((16, 4, 7), (32, 4, 11)):
        spec = seeded_spec(n, m, r, seed=n)
        xs = rng.integers(0, 1 << n, size=(100_000, 2))
        for x1, x2 in xs[:: max(1, len(xs) // 100_000)]:
            st = (int(x1), int(x2))
            assert cipher.sigma_inverse_apply(
                spec, cipher.sigma_apply(spec, st)) == st


def test_rho_translation_group():
    n = 3
    assert cipher.rho_apply((1, 7), (7, 1), n) == (0, 0)
    assert cipher.rho_apply((0, 0), (5, 2), n) == (5, 2)
    rng = np.random.default_rng(1)
    for _ in range(30):
        k, h, st = (tuple(int(v) for v in rng.integers(0, 8, 2))
                    for _ in range(3))
        via_two = cipher.rho_apply(h, cipher.rho_apply(k, st, n), n)
        ksum = (words.add_mod(k[0], h[0], n), words.add_mod(k[1], h[1], n))
        assert via_two == cipher.rho_apply(ksum, st, n)
        minus = (words.neg_mod(k[0], n), words.neg_mod(k[1], n))
        assert cipher.rho_apply(minus, cipher.rho_apply(k, st, n), n) == st


def test_gost_round_pinned_and_k0():
    spec = identity_spec(2, 1)
    assert cipher.gost_round(spec, 1, (0, 3)) == (3, 0)
    for st in ((0, 0), (1, 2), (3, 3)):
        assert cipher.gost_round(spec, 0, st) == cipher.sigma_apply(spec, st)


def test_gost_round_decomposition_exhaustive():
    # rho((0,k)) then sigma then rho((-k,0)), all states, all keys
    for n, m in ((4, 2), (6, 3), (8, 2)):
        spec = seeded_spec(n, m, r=m, seed=n)
        for k in range(0, 1 << n, max(1, (1 << n) // 16)):
            mk = words.neg_mod(k, n)
            for idx in range(1 << (2 * n)):
                st = (idx & ((1 << n) - 1), idx >> n)
                via_def = cipher.gost_round(spec, k, st)
                st2 = cipher.rho_apply((0, k), st, n)
                st2 = cipher.sigma_apply(spec, st2)
                st2 = cipher.rho_apply((mk, 0), st2, n)
                assert via_def == st2


def test_generalized_round_identities():
    spec = seeded_spec(8, 2, 5, seed=3)
    n = spec.n
    rng = np.random.default_rng(9)
    for _ in range(60):
        st = (int(rng.integers(0, 256)), int(rng.integers(0, 256)))
        k = (int(rng.integers(0, 256)), int(rng.integers(0, 256)))
        h = (int(rng.integers(0, 256)), int(rng.integers(0, 256)))
        # explicit formula vs composition route
        composed = cipher.rho_apply(
            h, cipher.sigma_apply(spec, cipher.rho_apply(k, st, n)), n)
        assert cipher.generalized_round(spec, k, h, st) == composed
        # k = h = 0 collapses to the plain swap
        assert cipher.generalized_round(spec, (0, 0), (0, 0), st) == \
            cipher.sigma_apply(spec, st)
        # h = 0 then undoing the swap leaves the translation by k
        got = cipher.sigma_inverse_apply(
            spec, cipher.generalized_round(spec, k, (0, 0), st))
        assert got == cipher.rho_apply(k, st, n)
        # every keyed round is an instance
        kk = int(rng.integers(0, 256))
        assert cipher.gost_round(spec, kk, st) == cipher.generalized_round(
            spec, (0, kk), (words.neg_mod(kk, n), 0), st)


def test_spec_scope_flags():
    rng = np.random.default_rng(0)
    real = cipher.random_spec(4, 8, 11, rng)
    assert real.conforming and real.bijective and real.theorem_scope
    assert real.gost_parameters

    ident = identity_spec(8, 2, r=0)
    assert not ident.conforming
    assert ident.bijective
    assert not ident.theorem_scope
    assert any("rotation extent" in note for note in ident.notes)

    broken = CipherSpec(4, 2, 2, 2, ((0, 0, 1, 2), (0, 1, 2, 3)))
    assert not broken.bijective

    small = seeded_spec(4, 2, 2, seed=1)
    assert not small.theorem_scope  # delta = 2


def test_conforming_range_bounds():
    assert CipherSpec(8, 2, 4, 2, cipher.identity_sboxes(4, 2)).conforming
    assert CipherSpec(8, 2, 4, 6, cipher.identity_sboxes(4, 2)).conforming
    assert not CipherSpec(8, 2, 4, 1, cipher.identity_sboxes(4, 2)).conforming
    assert not CipherSpec(8, 2, 4, 7, cipher.identity_sboxes(4, 2)).conforming


def test_spec_io_round_trip(tmp_path):
    spec = seeded_spec(8, 2, 3, seed=42)
    path = tmp_path / "spec.json"
    cipher.save_spec(spec, path)
    assert cipher.load_spec(path) == spec
    assert cipher.load_spec(path).digest() == spec.digest()


def test_spec_io_hex_entries(tmp_path):
    data = {"n": 4, "m": 2, "delta": 2, "r": 2,
            "sboxes": [["0x3", "0x2", 1, 0], [0, 1, 2, 3]]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    spec = cipher.load_spec(path)
    assert spec.sboxes[0] == (3, 2, 1, 0)


def test_spec_io_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    with pytest.raises(ValueError, match="line"):
        cipher.load_spec(path)
    path.write_text(json.dumps({"n": 4, "m": 2, "delta": 2}))
    with pytest.raises(ValueError, match="missing field"):
        cipher.load_spec(path)
    path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(ValueError, match="nested too deeply"):
        cipher.load_spec(path)
    # JSON is UTF-8; a stray byte is named with its file and line
    path.write_bytes(b'{"n": 4,\n "m": 2\xff}')
    with pytest.raises(ValueError,
                       match=r"bad\.json: line 2: byte 0xff is not UTF-8"):
        cipher.load_spec(path)


def test_tables_match_wordwise():
    for seed in range(4):
        spec = seeded_spec(8, 2, 3, seed=seed, bijective=(seed % 2 == 0))
        g = oracles.gamma_table_reference(spec)
        s = cipher.s_table(spec)
        for x in range(256):
            assert g[x] == cipher.apply_gamma(spec, x)
            assert s[x] == cipher.apply_s(spec, x)


def test_swap_matches_wordwise_sigma():
    # the vectorized swap reads sigma in closed form from the S table;
    # every state of lossy and bijective specs goes through both
    for seed in range(4):
        spec = seeded_spec(4, 2, 1 + seed % 3, seed=seed,
                           bijective=(seed % 2 == 0))
        n = spec.n
        states = np.arange(1 << (2 * n))
        left, right = states & ((1 << n) - 1), states >> n
        out1, out2 = cipher.swap(cipher.s_table(spec), left, right)
        for x1, x2, y1, y2 in zip(left.tolist(), right.tolist(),
                                  out1.tolist(), out2.tolist()):
            assert (y1, y2) == cipher.sigma_apply(spec, (x1, x2))
