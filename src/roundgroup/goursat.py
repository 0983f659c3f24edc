"""All subgroups of Z/2**n x Z/2**n, enumerated without search.

Subgroups of a direct product correspond to quintuples: a subgroup
pair B <= A in the left factor, a pair D <= C in the right factor with
matching quotient order 2**k, and an isomorphism A/B -> C/D.  In the
cyclic 2-group world every subgroup is a power-of-two chain member
<2**s>, and an isomorphism between the two quotients is multiplication
by an odd constant z, distinct exactly for z in 1, 3, ..., 2**k - 1.
A subgroup is a table row (s, sB, t, tD, z): A = <2**s>, B = <2**sB>,
C = <2**t>, D = <2**tD>, with sB - s = tD - t = k.

Every formula below is written once, in oriented coordinates: (u, v)
= (x1, x2) for a state's halves, swapped to (x2, x1) when t < s.
There the subgroup is

    { (i * 2**e, i * z * 2**f + j * 2**g mod 2**n) }

with (e, f, g) = (s, t, tD), or (t, s, sB) when swapped: the graph of
u -> z * 2**(f-e) * u over <2**e>, plus the slice <2**g> in the other
factor.  Its size is 2**(n-e) * 2**(n-g) = 2**(2n - s - tD) either
way.  `_oriented` is the one place that makes this choice.

The enumeration is cross-checked in the tests against a brute-force
closure walk over the whole lattice for n <= 3 (counts 5, 15, 37).
"""

from __future__ import annotations

import numpy as np


def enumerate_subgroups(n: int) -> np.ndarray:
    """Every subgroup exactly once as an int64 row (s, sB, t, tD, z), in
    sorted order: s, then k = sB - s, then t, then odd z < 2**k (z = 1
    when k = 0)."""
    skt = np.indices((n + 1,) * 3, dtype=np.int64).reshape(3, -1)
    s, k, t = skt[:, (skt[0] + skt[1] <= n) & (skt[2] + skt[1] <= n)]
    count = np.maximum(1, (1 << k) >> 1)
    rows = np.repeat(np.stack([s, s + k, t, t + k], axis=1), count, axis=0)
    first = np.repeat(np.cumsum(count) - count, count)
    z = 2 * (np.arange(len(rows)) - first) + 1
    return np.column_stack([rows, z])


def proper_subgroups(n: int) -> np.ndarray:
    """The enumerate_subgroups(n) rows other than the trivial subgroup
    and the whole group: 0 < s + tD < 2n."""
    table = enumerate_subgroups(n)
    index_log2 = table[:, 0] + table[:, 3]
    return table[(index_log2 > 0) & (index_log2 < 2 * n)]


def size(row, n: int) -> int:
    """|H| = 2**(2n - s - tD) for a row (s, sB, t, tD, z)."""
    return 1 << (2 * n - int(row[0]) - int(row[3]))


def describe(row) -> str:
    """The row as the reports print it."""
    s, sb, t, td, z = row
    return f"(s={s}, sB={sb}, t={t}, tD={td}, z={z})"


def _oriented(table):
    """(swap, e, f, g, z) for a row (as scalars) or a table (as columns
    of shape (rows, 1)): swap says t < s, and (e, f, g) = (s, t, tD),
    or (t, s, sB) when swapped; sB - s = tD - t makes that (min(s, t),
    max(s, t), max(sB, tD))."""
    s, sb, t, td, z = table.T[..., None] if np.ndim(table) == 2 else table
    return t < s, np.minimum(s, t), np.maximum(s, t), np.maximum(sb, td), z


def _swapped(swap, x, y):
    """(x, y), exchanged where swap: state halves to oriented
    coordinates and back."""
    return np.where(swap, y, x), np.where(swap, x, y)


def _label(u, v, e, f, g, z, n):
    """The coset label of oriented (u, v): u mod 2**e, and v less
    z * 2**(f - e) * u mod 2**g; zero exactly on the subgroup."""
    return (u & ((1 << e) - 1)) | (((v - u * (z << (f - e)))
                                    & ((1 << g) - 1)) << n)


def members(table: np.ndarray, i, j, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(left, right) halves of the members i*g1 + j*g2, g1 and g2 as in
    generators(), per row of a table (shape (rows, len(i))) or of one
    row (shape of i)."""
    swap, e, f, g, z = _oriented(table)
    mask = (1 << n) - 1
    return _swapped(swap, (i << e) & mask, ((i * z << f) + (j << g)) & mask)


def contains(table: np.ndarray, left, right, n: int,
             shift: int) -> np.ndarray:
    """Per row H of a table (halves broadcast to (rows, k)), or for one
    row: is the state with halves (left, right) in H + (0, shift)?"""
    swap, e, f, g, z = _oriented(table)
    u, v = _swapped(swap, left, (right - shift) & ((1 << n) - 1))
    return _label(u, v, e, f, g, z, n) == 0


def member_pairs(row, n: int,
                 stop: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(left, right) int64 arrays of members 0..stop-1 (all by default).
    Member k is i*g1 + j*g2, inner index j < 2**(n-g), or i < 2**(n-e)
    when t < s (module docstring), so the first 2**(n - min(s, t)) are
    one per coset of the subgroup K of verify.block_scan."""
    swap, e, _, g, _ = _oriented(row)
    whole = size(row, n)
    stop = whole if stop is None else min(stop, whole)
    outer, low = np.divmod(np.arange(stop, dtype=np.int64),
                           1 << (n - (e if swap else g)))
    i, j = (low, outer) if swap else (outer, low)
    return members(row, i, j, n)


def generators(row, n: int) -> tuple[tuple[int, int], ...]:
    """Two members that generate the subgroup, as (left, right) pairs
    of Python ints: g1 = (2**e, z * 2**f) and g2 = (0, 2**g) in
    oriented coordinates."""
    left, right = members(row, np.array([1, 0]), np.array([0, 1]), n)
    return tuple(zip(left.tolist(), right.tolist()))


def coset_labels(row, n: int) -> np.ndarray:
    """A label per state, constant exactly on the cosets of the subgroup.

    Two states differ by a member iff their oriented u parts agree
    modulo 2**e and, after subtracting z * 2**(f - e) * u, their v
    parts agree modulo 2**g (the correction is additive, so it cancels
    in differences).  Computed on the oriented grid, transposed when
    swapped.  This is the O(degree) quotient map of the subgroup.
    """
    swap, e, f, g, z = _oriented(row)
    u = np.arange(1 << n, dtype=np.int64)  # columns of the oriented grid
    grid = _label(u, u[:, None], e, f, g, z, n)  # rows v
    return (grid.T if swap else grid).ravel()
