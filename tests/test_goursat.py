"""Subgroup enumeration of the product group vs the brute-force lattice."""

import numpy as np
import pytest

from roundgroup import goursat, words

import oracles


def multiples(q, n):
    """The subgroup <2**q> of Z/2**n."""
    return {i << q for i in range(1 << (n - q))}


def test_counts_small():
    assert oracles.count_subgroups(1) == 5
    assert oracles.count_subgroups(2) == 15
    assert oracles.count_subgroups(3) == 37


def test_count_n8_frozen():
    # pinned after the first verified run; also the scan-size bound
    assert oracles.count_subgroups(8) == 1515


def test_enumeration_matches_brute_force():
    for n in (1, 2, 3):
        enumerated = {oracles.member_set(row, n)
                      for row in oracles.subgroup_rows(n)}
        brute = oracles.brute_force_subgroups(n)
        assert enumerated == brute
        # and no two rows alias the same subgroup
        assert len(enumerated) == oracles.count_subgroups(n)


def test_triples_distinct_at_n4():
    rows = oracles.subgroup_rows(4)
    sets = {oracles.member_set(row, 4) for row in rows}
    assert len(sets) == len(rows)


def test_sizes_and_flags():
    for row in oracles.subgroup_rows(3):
        size = goursat.size(row, 3)
        left, right = goursat.member_pairs(row, 3)
        assert len(left) == size
        # each prefix starts the full list; a stop past the end is all
        for stop in range(size + 2):
            part = goursat.member_pairs(row, 3, stop)
            assert len(part[0]) == min(stop, size)
            assert np.array_equal(part[0], left[:stop])
            assert np.array_equal(part[1], right[:stop])


def test_first_members_are_one_per_coset_of_the_scan_subgroup():
    # verify.block_scan decides its set equation on the first
    # 2**(n - min(s, t)) members: they must be one per coset of K = {x
    # in H : x2 = 0, x1 = 0 mod 2**tD}, i.e. have distinct (x2, x1 mod
    # 2**tD), and be exactly |H| / |K| of them
    swapped = 0
    for n in range(1, 6):
        for row in oracles.subgroup_rows(n):
            s, _, t, td, _ = row
            count = 1 << (n - min(s, t))
            left, right = goursat.member_pairs(row, n, count)
            assert len(left) == count, row
            keys = set(zip(right.tolist(), (left & ((1 << td) - 1)).tolist()))
            assert len(keys) == count, row
            kernel = [a for a in range(0, 1 << n, 1 << td)
                      if oracles.contains(row, n, a, 0)]
            assert goursat.size(row, n) == count * len(kernel), row
            swapped += t < s
    assert swapped > 0


def test_members_form_a_subgroup():
    n = 3
    for row in oracles.subgroup_rows(n):
        members = oracles.member_set(row, n)
        assert (0, 0) in members
        for a, c in members:
            for b, d in members:
                s = (words.add_mod(a, b, n), words.add_mod(c, d, n))
                assert s in members


def test_contains_matches_materialized():
    n = 3
    for row in oracles.subgroup_rows(n):
        members = set(zip(*(m.tolist()
                            for m in goursat.member_pairs(row, n))))
        for a in range(8):
            for c in range(8):
                assert oracles.contains(row, n, a, c) == ((a, c) in members)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_vectorized_membership_matches_oracles_on_the_grid(n):
    # every row, swapped (t < s) ones included, every state, and
    # shifts 0, 1 and 2**n - 1; a table and its single rows agree
    mask = (1 << n) - 1
    rows = oracles.subgroup_rows(n)
    assert any(t < s for s, _, t, _, _ in rows)
    table = goursat.enumerate_subgroups(n)
    states = np.arange(1 << (2 * n), dtype=np.int64)
    left, right = states & mask, states >> n
    for shift in sorted({0, 1, mask}):
        inside = goursat.contains(table, left[None, :], right[None, :], n,
                                  shift)
        for row, got in zip(rows, inside):
            want = [oracles.contains(row, n, x & mask,
                                     ((x >> n) - shift) & mask)
                    for x in states.tolist()]
            assert got.tolist() == want, (row, shift)
            assert np.array_equal(
                goursat.contains(row, left, right, n, shift), got)
    # i * g1 + j * g2 over every i, j < 2**n is the whole subgroup:
    # |H| distinct pairs, each in H by the scalar membership oracle
    i, j = (c.ravel() for c in np.indices((1 << n, 1 << n)))
    left, right = goursat.members(table, i, j, n)
    for row, lrow, rrow in zip(rows, left, right):
        pairs = set(zip(lrow.tolist(), rrow.tolist()))
        assert len(pairs) == goursat.size(row, n), row
        assert all(oracles.contains(row, n, a, c) for a, c in pairs), row
        assert pairs == oracles.member_set(row, n), row
        one = goursat.members(row, i, j, n)
        assert np.array_equal(one[0], lrow) and np.array_equal(one[1], rrow)


def test_projections_and_slices():
    # left projection <2**s>, right projection <2**t>,
    # left slice through zero <2**sB>, right slice <2**tD>
    n = 3
    for row in oracles.subgroup_rows(n):
        s, sb, t, td, _ = row
        members = oracles.member_set(row, n)
        lefts = {a for a, _ in members}
        rights = {c for _, c in members}
        assert lefts == multiples(s, n)
        assert rights == multiples(t, n)
        left_kernel = {a for a, c in members if c == 0}
        right_kernel = {c for a, c in members if a == 0}
        assert left_kernel == multiples(sb, n)
        assert right_kernel == multiples(td, n)


def test_coset_labels_quotient():
    rng = np.random.default_rng(4)
    for n in (2, 3):
        degree = 1 << (2 * n)
        mask = (1 << n) - 1
        for row in oracles.subgroup_rows(n):
            labels = goursat.coset_labels(row, n)
            assert len(labels) == degree
            assert len(np.unique(labels)) == degree // goursat.size(row, n)
            members = list(oracles.member_set(row, n))
            # members all share the label of the origin
            for a, c in members:
                assert labels[a | (c << n)] == labels[0]
            # translating by a member never changes the label
            for _ in range(20):
                x1 = int(rng.integers(0, 1 << n))
                x2 = int(rng.integers(0, 1 << n))
                a, c = members[int(rng.integers(0, len(members)))]
                before = labels[x1 | (x2 << n)]
                after = labels[((x1 + a) & mask) | (((x2 + c) & mask) << n)]
                assert before == after


def test_generators_span_the_subgroup():
    # the difference lemma in verify.partition_invariant and the roll
    # check in oracles.roll_invariant rest on this
    for n in range(6):
        mask = (1 << n) - 1
        i = np.arange(1 << n)[:, None]
        j = np.arange(1 << n)[None, :]
        for row in oracles.subgroup_rows(n):
            (a1, c1), (a2, c2) = goursat.generators(row, n)
            span = set(zip(((i * a1 + j * a2) & mask).ravel().tolist(),
                           ((i * c1 + j * c2) & mask).ravel().tolist()))
            left, right = goursat.member_pairs(row, n)
            assert span == set(zip(left.tolist(), right.tolist())), row


def test_enumeration_is_sorted_and_deterministic():
    table = goursat.enumerate_subgroups(4)
    assert table.dtype == np.int64
    rows = table.tolist()
    assert rows == sorted(rows)
    assert np.array_equal(table, goursat.enumerate_subgroups(4))
