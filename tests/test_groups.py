"""Orbits, blocks, stabilizer chains, witnesses: correctness against
independent oracles (closure enumeration, cycle arithmetic, sympy)."""

import math

import numpy as np
import pytest

from roundgroup import cipher, groups, perms


def seeded_spec(n, m, r, seed, bijective=True):
    rng = np.random.default_rng(seed)
    return cipher.random_spec(m, n // m, r, rng, bijective)


def identity_spec(n, m, r=0):
    return cipher.CipherSpec(n, m, n // m, r, cipher.identity_sboxes(n // m, m))


def cycle_perm(images):
    return np.array(images, dtype=np.int64)


C4 = cycle_perm([1, 2, 3, 0])
S4_GENS = [cycle_perm([1, 2, 3, 0]), cycle_perm([1, 0, 2, 3])]
A4_GENS = [cycle_perm([1, 2, 0, 3]), cycle_perm([0, 2, 3, 1])]
D4_GENS = [cycle_perm([1, 2, 3, 0]), cycle_perm([3, 2, 1, 0])]


def brute_force_elements(gens, cap=10 ** 6):
    """Independent closure enumeration; returns the set of images-tuples."""
    ident = tuple(range(len(gens[0])))
    seen = {ident}
    frontier = [ident]
    while frontier:
        cur = frontier.pop()
        arr = np.array(cur, dtype=np.int64)
        for g in gens:
            nxt = tuple(g[arr].tolist())
            if nxt not in seen:
                if len(seen) >= cap:
                    raise RuntimeError("cap")
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def test_orbit_and_transitivity():
    two_cycles = cycle_perm([1, 0, 3, 2])
    mask = groups.orbit_mask([two_cycles], 0)
    assert mask.tolist() == [True, True, False, False]
    assert not mask.all()
    assert groups.orbit_mask([C4], 0).all()
    for n in (2, 3, 4):
        spec = seeded_spec(n, max(1, n // 2), r=1, seed=n)
        assert groups.orbit_mask(perms.standard_generators(spec), 0).all()


def test_minimal_blocks_cyclic_four():
    system = groups.minimal_blocks([C4], 0, 2)
    assert system is not None
    assert system.n_blocks == 2 and system.block_size == 2
    assert system.labels.tolist() == [0, 1, 0, 1]
    # adjacent pair forces the trivial partition
    assert groups.minimal_blocks([C4], 0, 1) is None


def test_primitivity_sweep():
    assert groups.primitivity_by_pairs(S4_GENS) is None
    found = groups.primitivity_by_pairs([C4])
    assert found is not None and found.n_blocks == 2


def test_block_labels_are_invariant():
    # every generator must permute the found blocks
    spec = identity_spec(4, 2)
    gens = perms.standard_generators(spec)
    system = groups.primitivity_by_pairs(gens)
    assert system is not None
    labels = system.labels
    for g in gens:
        _, rep_idx, inv = np.unique(labels, return_index=True,
                                    return_inverse=True)
        expected = labels[g[rep_idx]][inv]
        assert np.array_equal(labels[g], expected)


def test_primitivity_conforming_n4():
    spec = seeded_spec(4, 2, 2, seed=5)
    assert groups.primitivity_by_pairs(perms.standard_generators(spec)) is None


def test_sweep_degree_cap():
    with pytest.raises(ValueError, match="cap"):
        groups.primitivity_by_pairs(
            [np.arange(1 << 13, dtype=np.int64)])


def test_chain_known_small_orders():
    rng = np.random.default_rng(0)
    assert groups.schreier_sims([C4], rng).order == 4
    s4 = groups.schreier_sims(S4_GENS, rng)
    assert s4.order == 24
    assert s4.certificate == "symmetric-order-match"
    a4 = groups.schreier_sims(A4_GENS, rng)
    assert a4.order == 12
    assert a4.certificate == "alternating-order-match"
    d4 = groups.schreier_sims(D4_GENS, rng)
    assert d4.order == 8
    assert d4.certificate == "schreier-verified"


def test_chain_trivial_group():
    chain = groups.schreier_sims([np.arange(5, dtype=np.int64)])
    assert chain.order == 1
    assert chain.contains(np.arange(5, dtype=np.int64))
    assert not chain.contains(cycle_perm([1, 0, 2, 3, 4]))


def test_chain_vs_closure_enumeration():
    # translation groups: regular, order = degree
    for n in (2, 3):
        gens = [perms.rho_perm((1, 0), n), perms.rho_perm((0, 1), n)]
        chain = groups.schreier_sims(gens, np.random.default_rng(n))
        elements = brute_force_elements(gens)
        assert chain.order == len(elements) == 1 << (2 * n)
    # a dihedral-ish mix stays enumerable
    chain = groups.schreier_sims(D4_GENS, np.random.default_rng(1))
    assert chain.order == len(brute_force_elements(D4_GENS))


def test_chain_vs_cycle_arithmetic():
    # the group generated by the swap map alone is cyclic: its order
    # is the lcm of the cycle lengths, computable with no group theory
    for seed in range(4):
        spec = seeded_spec(3, 1, 1, seed=seed)
        sigma = perms.sigma_perm(spec)
        expected = math.lcm(*perms.cycle_lengths(sigma).tolist())
        chain = groups.schreier_sims([sigma], np.random.default_rng(seed))
        assert chain.order == expected


def test_chain_vs_sympy_oracle():
    sympy_perms = pytest.importorskip("sympy.combinatorics")
    Permutation = sympy_perms.Permutation
    PermutationGroup = sympy_perms.PermutationGroup
    for seed, r in ((0, 1), (1, 1), (2, 0)):
        spec = seeded_spec(2, 1, r, seed=seed)
        gens = perms.standard_generators(spec)
        ours = groups.schreier_sims(gens, np.random.default_rng(seed)).order
        theirs = PermutationGroup(
            [Permutation(g.tolist()) for g in gens]).order()
        assert ours == theirs


def test_chain_reaches_full_alternating_group():
    spec = seeded_spec(4, 2, 2, seed=5)
    gens = perms.standard_generators(spec)
    chain = groups.schreier_sims(gens, np.random.default_rng(7))
    assert chain.certificate == "alternating-order-match"
    assert chain.order == math.factorial(256) // 2


def test_chain_membership_soundness():
    spec = seeded_spec(4, 2, 2, seed=5)
    gens = perms.standard_generators(spec)
    chain = groups.schreier_sims(gens, np.random.default_rng(7))
    rng = np.random.default_rng(3)
    for _ in range(5):
        w = groups.random_products(
            gens + [perms.inverse(g) for g in gens], rng, 9)
        assert chain.contains(w)
    odd = np.arange(256, dtype=np.int64)
    odd[[0, 1]] = [1, 0]
    assert not chain.contains(odd)


def test_chain_membership_on_imprimitive_group():
    spec = identity_spec(4, 2)
    gens = perms.standard_generators(spec)
    chain = groups.schreier_sims(gens, np.random.default_rng(2))
    assert chain.certificate == "schreier-verified"
    system = groups.primitivity_by_pairs(gens)
    labels = system.labels
    # a cycle crossing the blocks in a non-invariant way is outside
    outsider = np.arange(256, dtype=np.int64)
    a = 0
    b = int(np.nonzero(labels != labels[0])[0][0])
    outsider[[a, b]] = [b, a]
    assert not chain.contains(outsider)
    w = groups.random_products(gens, np.random.default_rng(4), 7)
    assert chain.contains(w)


def test_unverified_membership_guard():
    chain = groups.StabilizerChain(8)
    chain.feed(cycle_perm([1, 0, 2, 3, 4, 5, 6, 7]))
    with pytest.raises(ValueError, match="unverified"):
        chain.contains(np.arange(8, dtype=np.int64))


def test_chain_degree_cap():
    with pytest.raises(ValueError, match="capped"):
        groups.StabilizerChain(1 << 13)


def test_giant_witness_found_and_verified():
    spec = seeded_spec(4, 2, 2, seed=5)
    gens = perms.standard_generators(spec)
    witness = groups.giant_witness(gens, np.random.default_rng(11),
                                   word_len=24, budget=2000)
    assert witness is not None
    degree = 256
    assert degree // 2 < witness.prime < degree - 2
    element = groups.evaluate_witness_word(gens, witness.word)
    powered = perms.power(element, witness.other_lcm)
    lengths = perms.cycle_lengths(powered)
    assert lengths[-1] == witness.prime
    assert (lengths[:-1] == 1).all()
    assert set(witness.word_hex) <= set("0123456789abcdef")


def test_giant_witness_deterministic_under_seed():
    spec = seeded_spec(4, 2, 2, seed=5)
    gens = perms.standard_generators(spec)
    w1 = groups.giant_witness(gens, np.random.default_rng(42), budget=500)
    w2 = groups.giant_witness(gens, np.random.default_rng(42), budget=500)
    assert w1 == w2


def test_giant_witness_none_on_translation_group():
    # every element is a translation; cycle lengths are powers of two,
    # never an odd prime
    gens = [perms.rho_perm((1, 0), 4), perms.rho_perm((0, 1), 4)]
    assert groups.giant_witness(gens, np.random.default_rng(1),
                                budget=60) is None


def test_words_of_length():
    spec = seeded_spec(2, 1, 1, seed=0)
    gens = perms.standard_generators(spec)
    ws = groups.words_of_length(gens, 2)
    assert len(ws) == 9
    assert np.array_equal(ws[0], perms.compose_all([gens[0], gens[0]]))


def test_conjugates_of_nfold_words_sift():
    spec = seeded_spec(2, 1, 1, seed=3)
    gens = perms.standard_generators(spec)
    sub = groups.words_of_length(gens, 2)
    report = groups.conjugates_contained(sub, gens, 50,
                                         np.random.default_rng(9))
    assert report.all_contained


def test_conjugates_detect_non_normal_subgroup():
    # the cyclic group generated by the swap map alone is far from
    # normal: conjugation by a translation escapes it
    spec = seeded_spec(2, 1, 1, seed=3)
    gens = perms.standard_generators(spec)
    report = groups.conjugates_contained([perms.sigma_perm(spec)], gens,
                                         40, np.random.default_rng(8))
    assert report.failures > 0
