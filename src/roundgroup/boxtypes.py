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

from dataclasses import dataclass

import numpy as np

from .cipher import CipherSpec, s_table

WHITE = "W"
RULED = "R"
BLACK = "B"


@dataclass(frozen=True)
class TypeVector:
    """Per-brick classes of a typed set, brick 1 (low bits) first."""

    boxes: tuple[str, ...]

    def __str__(self) -> str:
        return "".join(self.boxes)


def type_of(values, m: int, delta: int) -> TypeVector | None:
    """TypeVector of the set, or None when it has no type."""
    arr = np.unique(np.asarray(list(values) if not isinstance(
        values, np.ndarray) else values, dtype=np.int64))
    if arr.size == 0:
        raise ValueError("type of the empty set is undefined")
    brick = (1 << m) - 1
    sizes = []
    for j in range(delta):
        sizes.append(len(np.unique((arr >> (j * m)) & brick)))
    prod = 1
    for size in sizes:
        prod *= size
    if prod != arr.size:
        return None
    full = 1 << m
    codes = tuple(WHITE if s == 1 else BLACK if s == full else RULED
                  for s in sizes)
    return TypeVector(codes)


def subgroup_type(q: int, m: int, delta: int) -> TypeVector:
    """Type of <2**q> from the structure alone: whites below, blacks
    above, one ruled brick when q cuts a brick."""
    if not 0 <= q <= delta * m:
        raise ValueError(f"q = {q} out of range")
    codes = []
    for j in range(delta):
        lo, hi = j * m, (j + 1) * m
        if hi <= q:
            codes.append(WHITE)
        elif lo >= q:
            codes.append(BLACK)
        else:
            codes.append(RULED)
    return TypeVector(tuple(codes))


def subgroup_members_array(q: int, n: int) -> np.ndarray:
    return np.arange(1 << (n - q), dtype=np.int64) << q


def s_image(table: np.ndarray, q: int) -> np.ndarray:
    """The image of <2**q> under the mixing map with this s_table (of
    2**n entries), as a sorted set."""
    n = len(table).bit_length() - 1
    return np.unique(table[subgroup_members_array(q, n)])


def s_image_type_violations(spec: CipherSpec) -> list[int]:
    """q in (0, n) where the mixing map FAILED to change the type of
    <2**q>: image typed and of the same type.  Expected empty on
    conforming bijective specs; the r=0 controls populate it."""
    table = s_table(spec)
    out = []
    for q in range(1, spec.n):
        image_type = type_of(s_image(table, q), spec.m, spec.delta)
        if image_type is not None and \
                image_type == subgroup_type(q, spec.m, spec.delta):
            out.append(q)
    return out


def s_image_coset_violations(spec: CipherSpec) -> list[int]:
    """q in (0, n) where the image of <2**q> under the mixing map is
    exactly the modular coset (image of 0) + <2**q>.  Empty on
    conforming bijective specs; this set equality is precisely what
    would hand the scan an invariant partition.

    The coset is the set of the 2**(n-q) words congruent to S(0) mod
    2**q, so the image equals it when it has that many words, all of
    them congruent to S(0): no coset to build or sort.  The count is
    needed: an all-zero box maps <2**q> to {S(0)}, congruent but short.
    """
    n = spec.n
    table = s_table(spec)
    zero_image = int(table[0])
    out = []
    for q in range(1, n):
        image = s_image(table, q)
        low = (1 << q) - 1
        if image.size == 1 << (n - q) and \
                (((image ^ zero_image) & low) == 0).all():
            out.append(q)
    return out
