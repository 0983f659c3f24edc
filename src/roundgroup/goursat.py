"""All subgroups of Z/2**n x Z/2**n, enumerated without search.

Subgroups of a direct product correspond to quintuples: a subgroup
pair B <= A in the left factor, a pair D <= C in the right factor with
matching quotient order 2**k, and an isomorphism A/B -> C/D.  In the
cyclic 2-group world every subgroup is a power-of-two chain member
<2**s>, and an isomorphism between the two quotients is multiplication
by an odd constant z, distinct exactly for z in 1, 3, ..., 2**k - 1.
A triple is recorded as (s, sB, t, tD, z): A = <2**s>, B = <2**sB>,
C = <2**t>, D = <2**tD>, with sB - s = tD - t = k.

The materialized subgroup is
    { (a, phi(a) + d mod 2**n) : a in A, d in D }   when s <= t,
with phi(x) = z * 2**(t-s) * x mod 2**n, and the mirror-image formula
with the roles of the factors swapped when t < s.  Its size is
|A| * |D| either way.

The enumeration is cross-checked in the tests against a brute-force
closure walk over the whole lattice for n <= 3 (counts 5, 15, 37).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, order=True)
class GoursatTriple:
    """One subgroup of Z/2**n x Z/2**n; fields as in the module docstring."""

    n: int
    s: int
    sb: int
    t: int
    td: int
    z: int

    def __post_init__(self) -> None:
        n = self.n
        if not (0 <= self.s <= self.sb <= n and 0 <= self.t <= self.td <= n):
            raise ValueError("subgroup exponents out of range")
        if self.sb - self.s != self.td - self.t:
            raise ValueError("quotient orders differ")
        k = self.sb - self.s
        if k == 0:
            if self.z != 1:
                raise ValueError("trivial quotient needs z = 1")
        elif not (self.z % 2 == 1 and 1 <= self.z < (1 << k)):
            raise ValueError(f"z = {self.z} not an odd residue below 2**{k}")

    @property
    def size(self) -> int:
        return 1 << (2 * self.n - self.s - self.td)

    def to_tuple(self) -> tuple[int, int, int, int, int]:
        return (self.s, self.sb, self.t, self.td, self.z)

    def describe(self) -> str:
        return (f"(s={self.s}, sB={self.sb}, t={self.t}, "
                f"tD={self.td}, z={self.z})")


def subgroup_table(n: int) -> np.ndarray:
    """Every subgroup exactly once as an int64 row (s, sB, t, tD, z), in
    sorted triple order: s, then k = sB - s, then t, then odd z < 2**k
    (z = 1 when k = 0)."""
    skt = np.indices((n + 1,) * 3, dtype=np.int64).reshape(3, -1)
    s, k, t = skt[:, (skt[0] + skt[1] <= n) & (skt[2] + skt[1] <= n)]
    count = np.maximum(1, (1 << k) >> 1)
    rows = np.repeat(np.stack([s, s + k, t, t + k], axis=1), count, axis=0)
    first = np.repeat(np.cumsum(count) - count, count)
    z = 2 * (np.arange(len(rows)) - first) + 1
    return np.column_stack([rows, z])


def enumerate_subgroups(n: int) -> list[GoursatTriple]:
    """Every subgroup exactly once, in sorted triple order."""
    return [GoursatTriple(n, *row) for row in subgroup_table(n).tolist()]


def member_pairs(triple: GoursatTriple, start: int = 0,
                 stop: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(left, right) component arrays of members start..stop-1 (all by
    default), as int64.  Member k is (a, phi(a) + d) for the
    (k // |D|)-th a in A and the (k % |D|)-th d in D when s <= t, and
    the mirror image with C and B when t < s."""
    n = triple.n
    mask = (1 << n) - 1
    s, sb, t, td, z = triple.to_tuple()
    stop = triple.size if stop is None else min(stop, triple.size)
    k = np.arange(start, stop, dtype=np.int64)
    if s <= t:
        inner = n - td  # |D| = 2**inner
        a = (k >> inner) << s
        d = (k & ((1 << inner) - 1)) << td
        return a, (a * (z << (t - s)) + d) & mask
    inner = n - sb  # |B| = 2**inner
    c = (k >> inner) << t
    b = (k & ((1 << inner) - 1)) << sb
    return (c * (z << (s - t)) + b) & mask, c


def generators(triple: GoursatTriple) -> tuple[tuple[int, int], ...]:
    """Two members that generate the subgroup: (2**s, phi(2**s)) and
    (0, 2**tD) when s <= t, the mirror-image pair when t < s."""
    mask = (1 << triple.n) - 1
    s, sb, t, td, z = triple.to_tuple()
    if s <= t:
        return ((1 << s) & mask, (z << t) & mask), (0, (1 << td) & mask)
    return ((z << s) & mask, (1 << t) & mask), ((1 << sb) & mask, 0)


def coset_labels(triple: GoursatTriple) -> np.ndarray:
    """A label per state, constant exactly on the cosets of the subgroup.

    Two states differ by a member iff their left parts agree modulo
    2**s and, after subtracting phi of the left part, their right
    parts agree modulo 2**tD (phi is additive, so the correction
    cancels in differences).  Mirror-image formula when t < s.  This
    is the O(degree) quotient map that block certification rides on.
    """
    n = triple.n
    s, sb, t, td, z = triple.to_tuple()
    x1 = np.arange(1 << n, dtype=np.int64)  # columns of the fibre grid
    x2 = x1[:, None]  # rows
    if s <= t:
        lab1 = x1 & ((1 << s) - 1)
        lab2 = (x2 - x1 * (z << (t - s))) & ((1 << td) - 1)
    else:
        lab1 = x2 & ((1 << t) - 1)
        lab2 = (x1 - x2 * (z << (s - t))) & ((1 << sb) - 1)
    return (lab1 | (lab2 << n)).ravel()
