"""Orbits, blocks, stabilizer chains, witnesses: correctness against
independent oracles (closure enumeration, cycle arithmetic, sympy)."""

import functools
import json
import math
import traceback
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from roundgroup import cipher, groups, perms, verify, words

import oracles


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
    system = oracles.minimal_blocks([C4], 0, 2)
    assert system is not None
    assert system.n_blocks == 2 and system.block_size == 2
    assert system.labels.tolist() == [0, 1, 0, 1]
    # adjacent pair forces the trivial partition
    assert oracles.minimal_blocks([C4], 0, 1) is None


def test_primitivity_sweep():
    assert oracles.primitivity_by_pairs(S4_GENS) is None
    found = oracles.primitivity_by_pairs([C4])
    assert found is not None and found.n_blocks == 2


def test_block_labels_are_invariant():
    # every generator must permute the found blocks
    spec = identity_spec(4, 2)
    gens = perms.standard_generators(spec)
    system = oracles.primitivity_by_pairs(gens)
    assert system is not None
    labels = system.labels
    for g in gens:
        _, rep_idx, inv = np.unique(labels, return_index=True,
                                    return_inverse=True)
        expected = labels[g[rep_idx]][inv]
        assert np.array_equal(labels[g], expected)


def test_primitivity_conforming_n4():
    spec = seeded_spec(4, 2, 2, seed=5)
    assert oracles.primitivity_by_pairs(perms.standard_generators(spec)) is None


def test_sweep_degree_cap():
    with pytest.raises(ValueError, match="cap"):
        oracles.primitivity_by_pairs(
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
    assert oracles.chain_contains(chain, np.arange(5, dtype=np.int64))
    assert not oracles.chain_contains(chain, cycle_perm([1, 0, 2, 3, 4]))


def test_chain_vs_closure_enumeration():
    # translation groups: regular, order = degree
    for n in (2, 3):
        gens = perms.standard_generators(seeded_spec(n, 1, 1, seed=n))[:2]
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
        sigma = perms.standard_generators(spec)[2]
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
    pool = gens + [perms.inverse(g) for g in gens]
    for _ in range(5):
        w = perms.compose_all([pool[i] for i in
                               rng.integers(0, len(pool), 9)])
        assert oracles.chain_contains(chain, w)
    odd = np.arange(256, dtype=np.int64)
    odd[[0, 1]] = [1, 0]
    assert not oracles.chain_contains(chain, odd)


def test_chain_membership_on_imprimitive_group():
    spec = identity_spec(4, 2)
    gens = perms.standard_generators(spec)
    chain = groups.schreier_sims(gens, np.random.default_rng(2))
    assert chain.certificate == "schreier-verified"
    system = oracles.primitivity_by_pairs(gens)
    labels = system.labels
    # a cycle crossing the blocks in a non-invariant way is outside
    outsider = np.arange(256, dtype=np.int64)
    a = 0
    b = int(np.nonzero(labels != labels[0])[0][0])
    outsider[[a, b]] = [b, a]
    assert not oracles.chain_contains(chain, outsider)
    w = perms.compose_all([gens[i] for i in
                           np.random.default_rng(4).integers(0, len(gens), 7)])
    assert oracles.chain_contains(chain, w)


def test_unverified_membership_guard():
    chain = groups.StabilizerChain(8)
    chain.feed(cycle_perm([1, 0, 2, 3, 4, 5, 6, 7]))
    with pytest.raises(ValueError, match="unverified"):
        oracles.chain_contains(chain, np.arange(8, dtype=np.int64))


def test_giant_witness_found_and_verified():
    spec = seeded_spec(4, 2, 2, seed=5)
    gens = perms.standard_generators(spec)
    witness = groups.giant_witness(perms.word_evaluator(spec), perms.LETTERS,
                                   np.random.default_rng(11), budget=2000)
    assert witness is not None
    degree = 256
    assert degree // 2 < witness.prime < degree - 2
    element = groups.evaluate_witness_word(gens, witness.word)
    powered = perms.power(element, witness.other_lcm)
    lengths = perms.cycle_lengths(powered)
    assert lengths[-1] == witness.prime
    assert (lengths[:-1] == 1).all()
    assert set(witness.word_hex) <= set("0123456789abcdef")


@pytest.mark.parametrize("n,m", [(2, 1), (2, 2), (3, 1), (3, 3), (4, 2),
                                 (6, 2), (6, 3), (8, 2), (8, 4)])
def test_giant_witness_matches_recheck_oracle(n, m):
    # eight seeded searches per frame, 72 specs in all, the fast search
    # evaluating words from the round maps and the oracle composing the
    # dense generators; rotations at n < 8 include non-conforming ones,
    # so some searches exhaust the budget (at n=2 all of them do)
    delta = n // m
    for seed in range(8):
        rng = np.random.default_rng([n, m, seed])
        r = (int(rng.integers(m, (delta - 1) * m + 1)) if n == 8
             else int(rng.integers(1, n)))
        spec = cipher.random_spec(m, delta, r, rng)
        gens = perms.standard_generators(spec)
        fast = groups.giant_witness(perms.word_evaluator(spec), perms.LETTERS,
                                    np.random.default_rng(seed), budget=100)
        ref = oracles.giant_witness_reference(
            gens, np.random.default_rng(seed), budget=100)
        assert fast == ref, (n, m, seed)
        if fast is None:
            continue
        element = groups.evaluate_witness_word(gens, fast.word)
        lengths = perms.cycle_lengths_walk(
            perms.power(element, fast.other_lcm))
        assert lengths == [1] * (len(element) - fast.prime) + [fast.prime]


def test_giant_witness_runs_full_cycle_type_only_on_the_hit(monkeypatch):
    # the seed the CLI tests pin: a hit at trial 12, whose 11 misses are
    # all decided by the probes, so the one full cycle type is the hit's
    calls = []
    plain = perms.cycle_lengths
    monkeypatch.setattr(perms, "cycle_lengths",
                        lambda p: calls.append(len(p)) or plain(p))
    spec = cipher.load_spec(SPECS / "conforming_n8.json")
    counters = {}
    witness = groups.giant_witness(perms.word_evaluator(spec), perms.LETTERS,
                                   np.random.default_rng(20260823),
                                   budget=10_000, counters=counters)
    assert witness.trials_used == 12
    assert calls == [spec.degree]
    assert counters == {"fallbacks": 0}


def test_giant_witness_deterministic_under_seed():
    spec = seeded_spec(4, 2, 2, seed=5)
    evaluate = perms.word_evaluator(spec)
    w1 = groups.giant_witness(evaluate, perms.LETTERS,
                              np.random.default_rng(42), budget=500)
    w2 = groups.giant_witness(evaluate, perms.LETTERS,
                              np.random.default_rng(42), budget=500)
    assert w1 == w2


def test_giant_witness_none_on_translation_group():
    # every element is a translation; cycle lengths are powers of two,
    # never an odd prime
    gens = perms.standard_generators(seeded_spec(4, 2, 2, seed=0))[:2]
    evaluate = functools.partial(groups.evaluate_witness_word, gens)
    assert groups.giant_witness(evaluate, 2 * len(gens),
                                np.random.default_rng(1), budget=60) is None


def test_words_of_length():
    spec = seeded_spec(2, 1, 1, seed=0)
    gens = perms.standard_generators(spec)
    ws = oracles.words_of_length(gens, 2)
    assert len(ws) == 9
    assert np.array_equal(ws[0], perms.compose_all([gens[0], gens[0]]))


def test_conjugates_of_nfold_words_sift():
    spec = seeded_spec(2, 1, 1, seed=3)
    gens = perms.standard_generators(spec)
    sub = oracles.words_of_length(gens, 2)
    report = oracles.conjugates_contained(sub, gens, 50,
                                          np.random.default_rng(9))
    assert report.all_contained


def test_conjugates_detect_non_normal_subgroup():
    # the cyclic group generated by the swap map alone is far from
    # normal: conjugation by a translation escapes it
    spec = seeded_spec(2, 1, 1, seed=3)
    gens = perms.standard_generators(spec)
    report = oracles.conjugates_contained(gens[2:], gens,
                                          40, np.random.default_rng(8))
    assert report.failures > 0


# ---------------------------------------------------------------------------
# sift kernels against their straightforward versions

ROOT = Path(__file__).resolve().parent.parent
SPECS = ROOT / "specs"


class PlainKernels(groups.StabilizerChain):
    """The chain with its kernels written the straightforward way, kept
    as an oracle: every level up to the stall is swept when a generator
    joins it, an orbit is closed with vectorized sweeps, each level
    reduces its rows with take_along_axis, identity rows are dropped
    after every level, and every (generator, orbit chunk) segment of
    Schreier generators is drained on its own, where the chain stacks
    consecutive segments into one group.  The completion's schedule is
    the chain's own: a level yields after each residue it absorbs, so
    the deeper levels are completed first."""

    def _add_generator(self, stall, *residues, floor=0):
        if stall == len(self.levels):
            moved = int(np.nonzero(residues[0] != self._identity)[0][0])
            self.levels.append(groups._Level(moved, self.degree))
            self._add_rows(1)
        for i in range(floor, stall + 1):
            self.levels[i].gens += residues
            self._extend_level(i, *residues)

    def _extend_level(self, i, *new_gens):
        lvl = self.levels[i]

        def absorb(batch_points, gen):
            src = lvl.posidx[batch_points]
            images = gen[batch_points]
            fresh = lvl.posidx[images] < 0
            ginv = self._inverse(gen)
            before = len(lvl.orbit)
            for j, b in zip(src[fresh].tolist(), images[fresh].tolist()):
                if lvl.posidx[b] >= 0:
                    continue
                lvl.posidx[b] = len(lvl.orbit)
                lvl.orbit.append(b)
                lvl.uinv.append(lvl.row(j)[ginv])
                lvl.via.append(ginv)
            self._add_rows(len(lvl.orbit) - before)

        old_len = len(lvl.orbit)
        old_orbit = np.array(lvl.orbit, dtype=np.int64)
        for new_gen in new_gens:
            absorb(old_orbit, new_gen)
        head = old_len
        while head < len(lvl.orbit):
            batch = np.array(lvl.orbit[head:], dtype=np.int64)
            head = len(lvl.orbit)
            for g in lvl.gens:
                absorb(batch, g)

    def _drain(self, rows, start, floor):
        i = start
        rows = rows[(rows != self._identity).any(axis=1)]
        while len(rows):
            if i == len(self.levels):
                j = 0
                break
            lvl = self.levels[i]
            pos = lvl.posidx[rows[:, lvl.point]]
            stalled = np.nonzero(pos < 0)[0]
            if len(stalled):
                j = int(stalled[0])
                break
            rows = np.take_along_axis(lvl.uinvstack()[pos], rows, axis=1)
            rows = rows[(rows != self._identity).any(axis=1)]
            i += 1
        else:
            return None
        self._add_generator(i, np.ascontiguousarray(rows[j]), floor=floor)
        self.absorbed += 1
        keep = np.ones(len(rows), dtype=bool)
        keep[j] = False
        return rows[keep], i

    def _verify_level(self, i, done):
        lvl = self.levels[i]
        done_o, done_g = done
        n_o, n_g = len(lvl.orbit), len(lvl.gens)
        chunk = max(1, (1 << 22) // self.degree)
        for gi in range(n_g):
            g = lvl.gens[gi]
            o_start = 0 if gi >= done_g else done_o
            for lo in range(o_start, n_o, chunk):
                hi = min(lo + chunk, n_o)
                u_rows = g[lvl.ustack()[lo:hi]]
                pos = lvl.posidx[u_rows[:, lvl.point]]
                schreier = np.take_along_axis(lvl.uinvstack()[pos],
                                              u_rows, axis=1)
                self.schreier_sifted += len(schreier)
                rest = (schreier, i + 1)
                while (rest := self._drain(*rest, i + 1)) is not None:
                    yield True


def fixes_earlier_base_points(chain):
    """Every level generator fixes the base points of the levels above."""
    return all((g[chain.base[:k]] == chain.base[:k]).all()
               for k, lvl in enumerate(chain.levels) for g in lvl.gens)


def check_chain_invariants(chain):
    degree = chain.degree
    ident = np.arange(degree, dtype=np.int64)
    assert fixes_earlier_base_points(chain)
    assert chain.rows == sum(len(lvl.orbit) for lvl in chain.levels)
    for k, lvl in enumerate(chain.levels):
        orbit = np.array(lvl.orbit, dtype=np.int64)
        assert len(set(lvl.orbit)) == len(orbit)
        inside = np.zeros(degree, dtype=bool)
        inside[orbit] = True
        for g in lvl.gens:
            assert inside[g[orbit]].all(), (k, "orbit not closed")
        # one inverse row per orbit point, each a permutation sending
        # its point to the base point; forward rows only where derived
        assert len(lvl.uinv) == len(lvl.via) == len(orbit)
        assert 1 <= len(lvl.u) <= len(orbit)
        rows = lvl.uinvstack()
        assert (np.sort(rows, axis=1) == ident).all(), k
        assert (rows[np.arange(len(orbit)), orbit] == lvl.point).all(), k
        for u, uinv in zip(lvl.u, rows):
            assert np.array_equal(uinv[u], ident)
        expected = np.full(degree, -1, dtype=np.int64)
        expected[orbit] = np.arange(len(orbit))
        assert np.array_equal(lvl.posidx, expected), k


def via_labels(chain, lvl):
    """Each orbit point's Schreier vector entry as the index in lvl.gens
    of the generator it inverts (-1 for the base point), as bytes."""
    label = {}
    for k, g in enumerate(lvl.gens):
        label.setdefault(id(chain._inverse(g)), k)
    return np.array([-1] + [label[id(v)] for v in lvl.via[1:]],
                    dtype=np.int64).tobytes()


def chain_snapshot(chain):
    return (chain.base, [lvl.orbit for lvl in chain.levels],
            [lvl.posidx.tobytes() for lvl in chain.levels],
            [via_labels(chain, lvl) for lvl in chain.levels],
            [[g.tobytes() for g in lvl.gens] for lvl in chain.levels],
            chain.order, chain.certificate, chain.schreier_sifted,
            chain.absorbed)


def spec_generators(name):
    return perms.standard_generators(cipher.load_spec(SPECS / f"{name}.json"))


KERNEL_CASES = {
    "conforming_n4": (lambda: spec_generators("conforming_n4"), 7),
    "identity_r0_n4": (lambda: spec_generators("identity_r0_n4"), 0),
    "lossy_n4": (lambda: perms.standard_generators(
        seeded_spec(4, 1, 1, seed=5, bijective=False)), 5),
    "lossy_r0_n4": (lambda: perms.standard_generators(
        seeded_spec(4, 1, 0, seed=6, bijective=False)), 6),
    "conforming_n3": (lambda: perms.standard_generators(
        seeded_spec(3, 1, 1, seed=2)), 2),
    "r0_n3": (lambda: perms.standard_generators(
        seeded_spec(3, 1, 0, seed=3)), 3),
    "nonconforming_n3": (lambda: perms.standard_generators(
        seeded_spec(3, 3, 1, seed=4)), 4),
    "C4": (lambda: [C4], 0),
    "S4": (lambda: S4_GENS, 1),
    "A4": (lambda: A4_GENS, 2),
    "D4": (lambda: D4_GENS, 3),
}


@pytest.fixture
def checked_growth(monkeypatch):
    """After every generator joins the chain, each level it joined keeps
    its orbit closed under the new generator.  Checked as the chain
    grows, because a chain that breaks it can sift forever instead of
    failing."""
    add = groups.StabilizerChain._add_generator

    def checked(self, stall, *residues, floor=0):
        add(self, stall, *residues, floor=floor)
        inside = np.stack([lvl.posidx >= 0
                           for lvl in self.levels[floor:stall + 1]], axis=1)
        for residue in residues:
            assert inside[residue][inside].all(), "orbit left open"

    monkeypatch.setattr(groups.StabilizerChain, "_add_generator", checked)


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_sift_kernels_match_plain_kernels(case, monkeypatch,
                                         checked_growth):
    make_gens, seed = KERNEL_CASES[case]
    gens = make_gens()
    chain = groups.schreier_sims(gens, np.random.default_rng(seed))
    check_chain_invariants(chain)
    monkeypatch.setattr(groups, "StabilizerChain", PlainKernels)
    plain = groups.schreier_sims(gens, np.random.default_rng(seed))
    assert isinstance(plain, PlainKernels)
    check_chain_invariants(plain)
    assert chain_snapshot(chain) == chain_snapshot(plain)


@pytest.mark.parametrize("case", ["identity_r0_n4", "r0_n3"])
def test_each_schreier_generator_is_sifted_once(case, monkeypatch):
    # the completion has one sift path: every batched sift is a _drain,
    # and the fresh groups, those starting at the verified level, hold
    # each counted Schreier generator once
    calls = {"_first_stall": 0, "_drain": 0}
    fresh = []
    first_stall = groups.StabilizerChain._first_stall
    drain = groups.StabilizerChain._drain

    def counted_first_stall(self, rows, level):
        calls["_first_stall"] += 1
        return first_stall(self, rows, level)

    def counted_drain(self, rows, segs, start, floor):
        calls["_drain"] += 1
        if start == floor - 1:
            fresh.append(len(rows))
        return drain(self, rows, segs, start, floor)

    monkeypatch.setattr(groups.StabilizerChain, "_first_stall",
                        counted_first_stall)
    monkeypatch.setattr(groups.StabilizerChain, "_drain", counted_drain)
    make_gens, seed = KERNEL_CASES[case]
    chain = groups.schreier_sims(make_gens(), np.random.default_rng(seed))
    assert chain.certificate == "schreier-verified"
    assert calls["_first_stall"] == calls["_drain"] > 0, calls
    assert sum(fresh) == chain.schreier_sifted > 0


def test_group_split_keeps_the_per_segment_chain(monkeypatch):
    # a group whose lowest stall lies past its first segment is split
    # there, so an earlier segment that fails deeper is drained first.
    # On this lossy n=3 spec that decides which residues join: draining
    # each group by its lowest stall alone builds another chain.
    # PlainKernels drains every segment on its own
    splits = []
    drain = groups.StabilizerChain._drain

    def recording(self, rows, segs, start, floor):
        joined, parts = drain(self, rows, segs, start, floor)
        splits.append(len(parts) == 2)
        return joined, parts

    monkeypatch.setattr(groups.StabilizerChain, "_drain", recording)
    gens = perms.standard_generators(
        seeded_spec(3, 1, 2, seed=2, bijective=False))
    chain = groups.schreier_sims(gens, np.random.default_rng(2))
    assert chain.certificate == "schreier-verified"
    assert any(splits)
    monkeypatch.setattr(groups, "StabilizerChain", PlainKernels)
    plain = groups.schreier_sims(gens, np.random.default_rng(2))
    assert chain_snapshot(chain) == chain_snapshot(plain)


def test_first_stall_matches_scalar_sift(monkeypatch):
    # the batched kernel stops at the lowest stall level over its rows,
    # at the lowest row stalling there; that row's reduced form is its
    # scalar residue, and the batch itself is left as it was.  When no
    # row stalls inside the chain, every reduced row is its scalar sift
    # result: the identity, or the residue fixing the whole base.  The
    # kernel gathers the whole batch at each level above the stall where
    # some row moves, and passes over the others.  Mixed batches hold
    # group elements, identity rows, random permutations and random
    # permutations fixing the whole base; one moving row among identity
    # rows makes levels that only that row moves, and batches that all
    # move base point 0 make levels that every row moves.  The chain is
    # built by PlainKernels, which never calls the kernel, so a faulty
    # kernel fails here instead of building a wrong chain
    monkeypatch.setattr(groups, "StabilizerChain", PlainKernels)
    gens = spec_generators("identity_r0_n4")
    chain = groups.schreier_sims(gens, np.random.default_rng(0))
    assert chain.certificate == "schreier-verified"
    depth, degree = len(chain.levels), chain.degree
    pool = gens + [perms.inverse(g) for g in gens]
    rng = np.random.default_rng(19)
    ident = np.arange(degree, dtype=np.int64)
    free = np.setdiff1d(ident, chain.base)

    def element():
        return perms.compose_all(
            [pool[i] for i in rng.integers(0, len(pool), 8)])

    def fixing_base():
        row = ident.copy()
        row[free] = rng.permutation(free)
        return row

    def moving_base():
        while (row := element())[chain.base[0]] == chain.base[0]:
            pass
        return row

    movers = [element, lambda: rng.permutation(degree), fixing_base]
    makers = movers + [lambda: ident.copy()]

    def mixed():
        kinds = rng.integers(0, len(makers), int(rng.integers(1, 12)))
        return [makers[k]() for k in kinds]

    def one_moving():
        rows = [ident.copy() for _ in range(int(rng.integers(1, 12)))]
        rows[int(rng.integers(len(rows)))] = movers[
            int(rng.integers(len(movers)))]()
        return rows

    def all_moving():
        return [moving_base() for _ in range(int(rng.integers(1, 12)))]

    def moving_levels(row, levels):
        moved = set()
        for k, lvl in enumerate(chain.levels[:levels]):
            j = lvl.posidx.item(row.item(lvl.point))
            if j:
                moved.add(k)
                row = lvl.row(j)[row]
        return moved

    outcomes = set()
    for make in [mixed] * 60 + [one_moving] * 30 + [all_moving] * 20:
        batch = np.stack(make())
        before = batch.copy()
        levels, residues = [], []
        for row in batch:
            residue, level = chain.sift(row)
            levels.append(depth + 1 if residue is None else level)
            residues.append(ident if residue is None else residue)
        lowest = min(levels)
        gathered = chain.gathered
        reduced, i, j = chain._first_stall(batch, 0)
        assert np.array_equal(batch, before)
        assert chain.gathered - gathered == len(batch) * len(
            set().union(*(moving_levels(row, i) for row in batch)))
        if lowest > depth:
            assert (i, j) == (depth, -1)
        else:
            assert (i, j) == (lowest, levels.index(lowest))
        if lowest >= depth:
            assert np.array_equal(reduced, np.stack(residues))
        else:
            assert np.array_equal(reduced[j], residues[j])
        outcomes.add(i + (j < 0))
    # stalls inside the chain, at the bottom, and none (the group is
    # transitive, so no row stalls at level 0)
    assert {depth, depth + 1} < outcomes, outcomes


def test_order_match_chain_is_final(monkeypatch):
    # the fill reaches |Alt(N)|, so the random phase sifts no product;
    # the chain is then final, so no product changes it
    fed = []
    feed = groups.StabilizerChain.feed

    def recording(self, p):
        fed.append(feed(self, p))
        return fed[-1]

    monkeypatch.setattr(groups.StabilizerChain, "feed", recording)
    gens = spec_generators("conforming_n4")
    chain = groups.schreier_sims(gens, np.random.default_rng(7))
    assert chain.certificate == "alternating-order-match"
    assert fed[len(gens):] == []
    before = chain_snapshot(chain)
    pool = gens + [perms.inverse(g) for g in gens]
    rng = np.random.default_rng(8)
    for _ in range(groups.CLEAN_STREAK):
        mix = rng.integers(0, len(pool), groups.MIX_LENGTH)
        assert not chain.feed(perms.compose_all([pool[i] for i in mix]))
    assert chain_snapshot(chain) == before


# giants whose fill is checked against the chain built without it:
# lossy n=2 specs (Alt(16)), n=3 specs (Alt(64)), Sym(4) and Alt(4);
# AC5's order-match specs at degree 256 are checked apart
FILL_GIANTS = {
    "lossy_n2_r0": (lambda: perms.standard_generators(
        seeded_spec(2, 2, 0, seed=0, bijective=False)), 0),
    "lossy_n2_r1": (lambda: perms.standard_generators(
        seeded_spec(2, 2, 1, seed=1, bijective=False)), 1),
    "conforming_n3": KERNEL_CASES["conforming_n3"],
    "m3_n3": (lambda: perms.standard_generators(
        seeded_spec(3, 3, 1, seed=0)), 0),
    "S4": KERNEL_CASES["S4"],
    "A4": KERNEL_CASES["A4"],
}


def check_fill_is_sound(gens, seed, monkeypatch):
    """The chain built with the fill is a valid giant chain: its
    invariants hold, 50 random products sift to the identity, and
    without the fill the chain has the same certificate, order and base
    length."""
    chain = groups.schreier_sims(gens, np.random.default_rng(seed))
    assert chain.certificate in ("alternating-order-match",
                                 "symmetric-order-match")
    check_chain_invariants(chain)
    pool = gens + [perms.inverse(g) for g in gens]
    rng = np.random.default_rng(seed + 1)
    for _ in range(50):
        w = perms.compose_all([pool[i] for i in
                               rng.integers(0, len(pool), groups.MIX_LENGTH)])
        assert oracles.chain_contains(chain, w)
    with monkeypatch.context() as patched:
        patched.setattr(groups.StabilizerChain, "fill",
                        lambda self, rng, giant: None)
        unfilled = groups.schreier_sims(gens, np.random.default_rng(seed))
    assert ((chain.certificate, chain.order, len(chain.base))
            == (unfilled.certificate, unfilled.order, len(unfilled.base)))


@pytest.mark.parametrize("case", sorted(FILL_GIANTS))
def test_fill_is_sound_on_small_giants(case, monkeypatch):
    make_gens, seed = FILL_GIANTS[case]
    check_fill_is_sound(make_gens(), seed, monkeypatch)


def test_fill_is_sound_on_ac5_giants(monkeypatch):
    from test_acceptance import AC5_VERIFIED, _mixed_spec
    giants = [i for i in range(50) if i not in AC5_VERIFIED]
    assert len(giants) == 41
    for i in giants:
        check_fill_is_sound(perms.standard_generators(_mixed_spec(i)),
                            160_000 + i, monkeypatch)


def test_fill_of_unreduced_draws_breaks_the_base_invariant(monkeypatch):
    # a draw joins level k + 1 only once one inverse row has reduced it
    # to fix b_k; a mutant fill joining the random product unreduced
    # leaves level generators that move earlier base points
    make_gens, seed = KERNEL_CASES["conforming_n3"]
    gens = make_gens()

    def unreduced(self, top, k, rng):
        lvl = self.levels[top]
        word = rng.integers(0, len(lvl.gens), groups.FILL_WORD_LENGTH)
        return perms.compose_all([lvl.gens[i] for i in word])

    fixed = []
    for draw in (groups.StabilizerChain._draw, unreduced):
        monkeypatch.setattr(groups.StabilizerChain, "_draw", draw)
        chain = groups.StabilizerChain(len(gens[0]))
        for g in gens:
            chain.feed(g)
        chain.fill(np.random.default_rng(seed),
                   math.factorial(chain.degree) // 2)
        assert len(chain.levels) > 2
        fixed.append(fixes_earlier_base_points(chain))
    assert fixed == [True, False]


def order_256_pool_giants(seed):
    """The giants of perfbench's `order-256` pool for `seed`, each with
    its `--seed`: conforming_n4 with 0, then the 8 seeded conforming
    specs, drawn as perfbench/workloads.py draws them."""
    rng = np.random.default_rng([3, seed])
    giants = [(spec_generators("conforming_n4"), 0)]
    for i in range(8):
        m, delta = (2, 2) if i % 2 else (1, 4)
        r = int(rng.integers(m, (delta - 1) * m + 1))
        spec = cipher.random_spec(m, delta, r, rng)
        giants.append((perms.standard_generators(spec),
                       int(rng.integers(1 << 31))))
    return giants


def escalations(monkeypatch):
    """Record, for each fill draw, whether it came from a level above
    the one it fills from."""
    draw, escalated = groups.StabilizerChain._draw, []

    def recording(self, top, k, rng):
        escalated.append(top < k)
        return draw(self, top, k, rng)

    monkeypatch.setattr(groups.StabilizerChain, "_draw", recording)
    return escalated


def refuse():
    raise AssertionError("not_giant asked after a fill reached the giant "
                         "order")


def test_fill_reaches_the_giant_order_on_the_order_256_pool(monkeypatch):
    # with draws from one level only, 6 of these 9 fills left level 251
    # or 252 short and the rest to the random phase; drawing
    # from further up once a level's own draws are spent completes
    # every one, so no product is fed and not_giant is never asked
    escalated = escalations(monkeypatch)
    short = 0
    for gens, seed in order_256_pool_giants(0):
        escalated.clear()
        chain = groups.schreier_sims(gens, np.random.default_rng(seed),
                                     not_giant=refuse)
        assert chain.certificate == "alternating-order-match"
        assert chain.fed == 0
        assert fixes_earlier_base_points(chain)
        short += any(escalated)
    assert short == 6


def test_fill_of_draws_reduced_at_one_level_breaks_the_base_invariant(
        monkeypatch):
    # a draw from level top < k fixes b_k only once it is reduced at
    # every level from top to k; a mutant reducing it at level k alone
    # joins level k + 1 with generators that move b_top..b_{k-1}
    gens, seed = order_256_pool_giants(0)[1]  # seeded0, short before

    def skipping(self, top, k, rng):
        lvl = self.levels[top]
        word = rng.integers(0, len(lvl.gens), groups.FILL_WORD_LENGTH)
        x = perms.compose_all([lvl.gens[i] for i in word])
        lvl = self.levels[k]
        # x may send b_k to an earlier base point, which level k has no
        # row for: the mutant keeps that draw as it is, where the row's
        # refusal would stop it before the check
        j = lvl.posidx.item(x.item(lvl.point))
        return lvl.row(j)[x] if j > 0 else x

    fixed = []
    for draw in (groups.StabilizerChain._draw, skipping):
        monkeypatch.setattr(groups.StabilizerChain, "_draw", draw)
        escalated = escalations(monkeypatch)
        chain = groups.StabilizerChain(len(gens[0]))
        for g in gens:
            chain.feed(g)
        chain.fill(np.random.default_rng(seed),
                   math.factorial(chain.degree) // 2)
        assert any(escalated)
        fixed.append(fixes_earlier_base_points(chain))
    assert fixed == [True, False]


def ac5_i9_spec():
    """AC5's i=9, the `order-256` pool's slow non-giant."""
    return cipher.random_spec(2, 2, 0, np.random.default_rng(150_009))


def block_scan_answers(spec, asked):
    """`order`'s not_giant callback for spec, recording each answer."""
    def not_giant():
        asked.append(bool(verify.block_scan(spec).certified))
        return asked[-1]
    return not_giant


@pytest.mark.parametrize("name,seed", [("ac5_i9", 160_009),
                                       ("identity_r0_n4", 0)])
def test_certified_blocks_skip_the_random_phase(name, seed):
    # both specs have certified blocks, so a fill that stops short goes
    # straight to the deterministic route; that route reads no rng, so
    # the chain is the one the random phase would have led to
    spec = (ac5_i9_spec() if name == "ac5_i9"
            else cipher.load_spec(SPECS / f"{name}.json"))
    gens = perms.standard_generators(spec)
    asked = []
    skipped = groups.schreier_sims(gens, np.random.default_rng(seed),
                                   not_giant=block_scan_answers(spec, asked))
    sifted = groups.schreier_sims(gens, np.random.default_rng(seed))
    assert asked == [True]
    assert skipped.certificate == sifted.certificate == "schreier-verified"
    assert skipped.fed == 0 < sifted.fed
    assert chain_snapshot(skipped) == chain_snapshot(sifted)


def test_giant_without_the_fill_matches_in_the_random_phase(monkeypatch):
    # not_giant answers False on a giant (no block is certified), so the
    # random phase still runs and reaches |Alt(256)| on its own
    monkeypatch.setattr(groups.StabilizerChain, "fill",
                        lambda self, rng, giant: None)
    spec = cipher.load_spec(SPECS / "conforming_n4.json")
    asked = []
    chain = groups.schreier_sims(perms.standard_generators(spec),
                                 np.random.default_rng(7),
                                 not_giant=block_scan_answers(spec, asked))
    assert asked == [False]
    assert chain.certificate == "alternating-order-match"
    assert chain.fed > 0


def test_level_row_refuses_a_point_outside_its_orbit():
    # a position of -1 would otherwise read the last row
    chain = groups.schreier_sims(S4_GENS, np.random.default_rng(1))
    lvl = chain.levels[-1]
    outside = int(np.nonzero(lvl.posidx < 0)[0][0])
    with pytest.raises(IndexError):
        lvl.row(lvl.posidx.item(outside))


@pytest.mark.parametrize("seed", [0, 7])
def test_fill_leaves_the_random_phase_few_products(seed, monkeypatch):
    # the fill builds conforming_n4's Alt(256) chain level by level, so
    # the random phase after it feeds at most 20 products, and none once
    # the fill reaches |Alt(256)|; without the fill it fed 384 (seed 0)
    # and 378 (seed 7), each sifted through the whole chain
    events, filled = [], []
    fill, feed = groups.StabilizerChain.fill, groups.StabilizerChain.feed

    def recording_fill(self, rng, giant):
        events.append("fill")
        fill(self, rng, giant)
        filled.append(self.order == giant)

    monkeypatch.setattr(groups.StabilizerChain, "fill", recording_fill)
    monkeypatch.setattr(groups.StabilizerChain, "feed",
                        lambda self, p: events.append("feed")
                        or feed(self, p))
    chain = groups.schreier_sims(spec_generators("conforming_n4"),
                                 np.random.default_rng(seed))
    assert chain.certificate == "alternating-order-match"
    assert events.count("fill") == 1
    fed = len(events[events.index("fill") + 1:])
    assert fed <= 20
    assert (fed == 0) == filled[0]


def test_storage_cap_fires_within_one_closure_round(monkeypatch):
    # the cap is charged once per closure round, from inside the
    # closure, so a chain stops at most one orbit's worth of rows past it
    cap_rows = 4000
    monkeypatch.setitem(words.CAPS, "transversal", cap_rows * 256)
    chains = []
    init = groups.StabilizerChain.__init__

    def recording(self, degree):
        init(self, degree)
        chains.append(self)

    monkeypatch.setattr(groups.StabilizerChain, "__init__", recording)
    with pytest.raises(ValueError,
                       match="exceeds the transversal cap 1024000") as raised:
        groups.schreier_sims(spec_generators("conforming_n4"),
                             np.random.default_rng(7))
    assert [entry.name for entry in raised.traceback][-3:] == [
        "_extend_level", "_add_rows", "check_cap"]
    chain, = chains
    over = chain.rows - cap_rows
    assert 0 < over <= max(len(lvl.orbit) for lvl in chain.levels)


class ForwardRows(groups.StabilizerChain):
    """The chain with a forward row stored for every orbit point, kept
    as an oracle: a point b = gen(a) joins one point at a time with
    u_b = gen[u_a], and u_b^-1 comes from scattering the identity.
    The stored forward rows are its own, one list per level."""

    def __init__(self, degree):
        super().__init__(degree)
        self.forward = []

    def _extend_level(self, i, *new_gens):
        lvl = self.levels[i]
        if i == len(self.forward):
            self.forward.append([self._identity])
        forward = self.forward[i]

        def absorb(batch, gen):
            for a in batch:
                b = int(gen[a])
                if lvl.posidx[b] >= 0:
                    continue
                ub = gen[forward[lvl.posidx[a]]]
                lvl.posidx[b] = len(lvl.orbit)
                lvl.orbit.append(b)
                forward.append(ub)
                inv = np.empty_like(ub)
                inv[ub] = self._identity
                lvl.uinv.append(inv)
                lvl.via.append(self._inverse(gen))
                self._add_rows(1)

        head = len(lvl.orbit)
        for new_gen in new_gens:
            absorb(lvl.orbit[:head], new_gen)
        while head < len(lvl.orbit):
            batch = lvl.orbit[head:]
            head = len(lvl.orbit)
            for g in lvl.gens:
                absorb(batch, g)


def test_derived_forward_rows_match_stored_products(monkeypatch):
    # the deterministic route derives every level's forward rows from
    # its inverse rows; they must be the products the old chain stored
    gens = spec_generators("identity_r0_n4")
    chain = groups.schreier_sims(gens, np.random.default_rng(0))
    assert chain.certificate == "schreier-verified"
    monkeypatch.setattr(groups, "StabilizerChain", ForwardRows)
    stored = groups.schreier_sims(gens, np.random.default_rng(0))
    assert isinstance(stored, ForwardRows)
    check_chain_invariants(stored)
    assert chain_snapshot(chain) == chain_snapshot(stored)
    assert len(stored.forward) == len(chain.levels)
    for lvl, ref, forward in zip(chain.levels, stored.levels,
                                 stored.forward):
        assert np.array_equal(lvl.uinvstack(), ref.uinvstack())
        assert np.array_equal(lvl.ustack(), np.stack(forward))


def test_verified_chain_holds_each_row_once():
    # after the completion, every inverse row is a view of the level's
    # stacked rows and the forward rows are one 2-D array
    gens = spec_generators("identity_r0_n4")
    chain = groups.schreier_sims(gens, np.random.default_rng(0))
    assert chain.certificate == "schreier-verified"
    for lvl in chain.levels:
        stack = lvl.uinvstack()
        assert all(np.shares_memory(row, stack) for row in lvl.uinv)
        assert isinstance(lvl.u, np.ndarray) and lvl.u.ndim == 2
        assert lvl.ustack() is lvl.u
        assert len(lvl.u) == len(lvl.uinv)
    # one inverse call on a stack inverts each of its rows
    rows = chain.levels[0].uinvstack()
    assert np.array_equal(perms.inverse(rows),
                          np.stack([perms.inverse(r) for r in rows]))


def test_order_match_chain_holds_inverse_rows_only():
    # sifting reads only inverse rows, so a chain certified by its order
    # derives no forward row, and it builds only the inverse rows its
    # seeding sifts and fill draws read (its fill reaches the match, so
    # nothing is sifted after it): 2,797 of 32,893.  Its build peaks at
    # 10.5 MB under tracemalloc; with every inverse row built it took
    # 74.5 MB, and 144.4 MB with a forward row per orbit point as well
    gens = spec_generators("conforming_n4")
    tracemalloc.start()
    try:
        chain = groups.schreier_sims(gens, np.random.default_rng(7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chain.certificate == "alternating-order-match"
    assert [len(lvl.u) for lvl in chain.levels] == [1] * len(chain.levels)
    assert chain.built < chain.rows / 4
    assert peak < 30e6


def test_rows_built_on_demand_match_the_eager_rows(monkeypatch):
    # each row read from the Schreier tree, last orbit point first so
    # reads walk up paths of unbuilt rows, equals the row the stack
    # builds in orbit order, and both equal the rows PlainKernels
    # gathers as each point joins
    gens = spec_generators("conforming_n4")
    chain = groups.schreier_sims(gens, np.random.default_rng(7))
    assert chain.built < chain.rows
    monkeypatch.setattr(groups, "StabilizerChain", PlainKernels)
    plain = groups.schreier_sims(gens, np.random.default_rng(7))
    assert chain_snapshot(chain) == chain_snapshot(plain)
    for lvl, ref in zip(chain.levels, plain.levels):
        read = [lvl.row(j) for j in reversed(range(len(lvl.orbit)))][::-1]
        stack = lvl.uinvstack()
        assert np.array_equal(stack, ref.uinvstack())
        assert all(np.array_equal(row, stack[j])
                   for j, row in enumerate(read))
        assert all(np.array_equal(lvl.row(j), stack[j])
                   for j in range(len(stack)))
    assert chain.built == chain.rows


def test_verified_chain_residues_own_their_memory():
    # a residue absorbed from a sift batch joins as a copy, so no strong
    # generator keeps its batch alive.  The build peaks at 5.7 MB under
    # tracemalloc, each waiting level holding what is left of one group
    # of segments; with residues held as views of their batches it took
    # 18.3 MB
    gens = spec_generators("identity_r0_n4")
    tracemalloc.start()
    try:
        chain = groups.schreier_sims(gens, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chain.certificate == "schreier-verified"
    assert chain.absorbed > 0
    for lvl in chain.levels:
        for g in lvl.gens:
            assert g.base is None or g.base.size == g.size
    assert peak < 10e6


def test_deterministic_route_vs_sympy_at_degree_64():
    # r=0 keeps these groups small, so sympy answers in milliseconds;
    # the full alternating group of degree 64 would take it many seconds
    sympy_perms = pytest.importorskip("sympy.combinatorics")
    Permutation = sympy_perms.Permutation
    PermutationGroup = sympy_perms.PermutationGroup
    for bijective in (True, False):
        for seed in range(4):
            spec = seeded_spec(3, 1, 0, seed, bijective)
            gens = perms.standard_generators(spec)
            chain = groups.schreier_sims(gens, np.random.default_rng(seed))
            assert chain.certificate == "schreier-verified"
            check_chain_invariants(chain)
            theirs = PermutationGroup(
                [Permutation(g.tolist()) for g in gens]).order()
            assert chain.order == theirs, (bijective, seed)


def test_identity_r0_n4_matches_pinned_order():
    pins = json.loads(
        (ROOT / "perfbench" / "data" / "pinned_orders.json").read_text())
    pin = pins["identity_r0_n4"]
    spec = cipher.load_spec(SPECS / "identity_r0_n4.json")
    assert spec.digest() == pin["spec_sha256"]
    chain = groups.schreier_sims(perms.standard_generators(spec),
                                 np.random.default_rng(0))
    assert chain.certificate == "schreier-verified"
    assert chain.order == int(pin["order"])


@pytest.mark.parametrize("case", ["C4", "D4", "identity_r0_n4",
                                  "lossy_r0_n4", "r0_n3"])
def test_verified_chain_meets_the_strong_generation_criterion(case):
    # every Schreier generator of every level, sifted one at a time by a
    # loop that shares no kernel with the completion
    make_gens, seed = KERNEL_CASES[case]
    chain = groups.schreier_sims(make_gens(), np.random.default_rng(seed))
    assert chain.certificate == "schreier-verified"
    check_chain_invariants(chain)
    checked, failures = oracles.schreier_generator_failures(chain)
    assert checked >= len(chain.levels) and failures == []


def test_completion_stack_stays_flat_on_ac5_i9(monkeypatch):
    # a level waits for the deeper levels as a suspended step, not as a
    # nested call, so the stack depth at every level verification and
    # every absorbing sift stays within a small constant of the others
    # however deeply the absorptions nest.  The spec is AC5's i=9,
    # whose order perfbench pins from sympy
    pin = json.loads((ROOT / "perfbench" / "data" /
                      "pinned_orders.json").read_text())["ac5_i9"]
    spec = cipher.random_spec(2, 2, 0, np.random.default_rng(150_009))
    assert spec.digest() == pin["spec_sha256"]
    depths = {"_verify_level": [], "_drain": []}

    def recording(name):
        method = getattr(groups.StabilizerChain, name)

        def wrapped(self, *args):
            depth = sum(1 for _ in traceback.walk_stack(None))
            depths[name].append(depth)
            return method(self, *args)
        monkeypatch.setattr(groups.StabilizerChain, name, wrapped)

    for name in depths:
        recording(name)
    chain = groups.schreier_sims(perms.standard_generators(spec),
                                 np.random.default_rng(160_009))
    assert chain.certificate == "schreier-verified"
    assert chain.order == int(pin["order"])
    assert len(depths["_verify_level"]) >= len(chain.levels)
    assert len(depths["_drain"]) > chain.absorbed > 100
    seen = depths["_verify_level"] + depths["_drain"]
    assert max(seen) - min(seen) <= 2, (min(seen), max(seen))


def test_former_timeout_matches_sympy_order():
    # lossy (m, r) = (2, 1) at n=4, one of the six slow n=4 specs of
    # ROADMAP item 2: a 140-level degenerate chain.  The order was
    # computed once offline by sympy 1.14 (PermutationGroup.order on the
    # three standard generators, 109 s), which shares no code with groups
    spec = cipher.random_spec(2, 2, 1, np.random.default_rng(4210),
                              bijective=False)
    assert spec.digest() == ("dccd678f82516adb93419456a04dc806"
                             "d3fb8b66dd7e3abe550c161862c0d66f")
    chain = groups.schreier_sims(perms.standard_generators(spec),
                                 np.random.default_rng(3))
    assert chain.certificate == "schreier-verified"
    assert chain.order == int(
        "532788145763339575926469694835555085779523471673988392811414362"
        "49238679252980299988992")
    # the completion's residues join level 1 and deeper, so level 0
    # holds the fed generators alone and every other strong generator
    # is a residue the completion counted once
    assert chain.absorbed == (chain.strong_generators
                              - len(chain.levels[0].gens)) > 0
