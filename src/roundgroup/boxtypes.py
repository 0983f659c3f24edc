"""Box types: classifying subsets of the word space brick by brick.

Cut an n-bit word into delta bricks of m bits, low bits first.  For a
set D of words, project onto each brick.  D "has a type" when it is
exactly the product of its brick projections, i.e. |D| equals the
product of the projection sizes.  Each brick of a typed set is then
classed by projection size: White (one value), Black (all 2**m
values), Ruled (strictly between).

The subgroup <2**q> always has a type, and the picture explains the
letters.  Example n=8, m=2, q=3 (brick 1 = low bits, drawn leftmost):

      brick:     1    2    3    4
      bits:    [0,1][2,3][4,5][6,7]
      <2**3>:   00   0*   **   **     ->  (W, R, B, B)

Bits below q are pinned to zero, bits from q upward are free, and when
q falls strictly inside a brick that brick is Ruled (its projection is
a proper subgroup of the brick).  q a multiple of m gives whites then
blacks with no ruled brick: a "whole" subgroup.

The calculus proved about these types elsewhere, and checked by the
tests against reference implementations: xor-translation preserves
types of arbitrary typed sets; modular-translation preserves types of
subgroups (not of arbitrary typed sets: carries can break them); a
bijective bricklayer preserves subgroup types and sends whole
subgroups to an exact modular coset.  What this module computes is the
last step: on conforming bijective parameter sets the full mixing map
always CHANGES the type of every proper nontrivial subgroup, which is
the engine behind the imprimitivity scan coming up empty.
"""

from __future__ import annotations

import math

import numpy as np

from .cipher import CipherSpec, s_table

WHITE = "W"
RULED = "R"
BLACK = "B"


def type_of(values, m: int, delta: int) -> str | None:
    """Type of the set, one class letter per brick, brick 1 (low bits)
    first; None when it has no type.

    values: any iterable of non-negative words, in any order, with
    duplicates allowed; the empty set raises.  A strictly increasing
    array (as `s_image` returns) skips np.unique after one O(k)
    compare; each brick's projection is counted by a 2**m-entry
    bincount, so k words cost O(delta * (k + 2**m)) and no sort."""
    arr = np.asarray(list(values) if not isinstance(
        values, np.ndarray) else values, dtype=np.int64).ravel()
    if arr.size == 0:
        raise ValueError("type of the empty set is undefined")
    if not (arr[1:] > arr[:-1]).all():
        arr = np.unique(arr)
    full = 1 << m
    sizes = [np.count_nonzero(np.bincount((arr >> (j * m)) & (full - 1),
                                          minlength=full))
             for j in range(delta)]
    if math.prod(sizes) != arr.size:
        return None
    return "".join(WHITE if s == 1 else BLACK if s == full else RULED
                   for s in sizes)


def subgroup_type(q: int, m: int, delta: int) -> str:
    """Type of <2**q> from the structure alone: whites below, blacks
    above, one ruled brick when q cuts a brick."""
    if not 0 <= q <= delta * m:
        raise ValueError(f"q = {q} out of range")
    return "".join(WHITE if (j + 1) * m <= q else
                   BLACK if j * m >= q else RULED for j in range(delta))


def subgroup_members_array(q: int, n: int) -> np.ndarray:
    return np.arange(1 << (n - q), dtype=np.int64) << q


def s_image(table: np.ndarray, q: int) -> np.ndarray:
    """The image of <2**q> under the mixing map with this s_table (2**n
    words in [0, 2**n)) as a sorted int64 array of distinct words:
    every 2**q-th entry is marked in a 2**n-entry presence mask and read
    back in order, O(2**n) per q and no sort."""
    present = np.zeros(len(table), dtype=bool)
    present[table[::1 << q]] = True
    return np.flatnonzero(present)


def s_image_type_violations(spec: CipherSpec) -> list[int]:
    """q in (0, n) where the mixing map FAILED to change the type of
    <2**q>: image typed and of the same type.  Expected empty on
    conforming bijective specs; the r=0 controls populate it."""
    table, m, delta = s_table(spec), spec.m, spec.delta
    return [q for q in range(1, spec.n)
            if subgroup_type(q, m, delta)
            == type_of(s_image(table, q), m, delta)]


def s_image_coset_violations(table: np.ndarray) -> list[int]:
    """q in (0, n) where the image of <2**q> under the mixing map with
    this s_table is exactly the modular coset (image of 0) + <2**q>.
    Empty on conforming bijective specs; this set equality is precisely
    what would hand the scan an invariant partition.

    The coset is the set of the 2**(n-q) words congruent to S(0) mod
    2**q, so the image equals it when it has that many words, all of
    them congruent to S(0): no coset to build or sort.  The count is
    needed: an all-zero box maps <2**q> to {S(0)}, congruent but short.
    """
    n = len(table).bit_length() - 1
    images = ((q, s_image(table, q)) for q in range(1, n))
    return [q for q, image in images if image.size == 1 << (n - q)
            and not ((image ^ table[0]) & ((1 << q) - 1)).any()]
