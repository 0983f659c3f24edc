"""
The subgroup landscape behind the block scan
============================================

The block scan tests every subgroup of the direct product
Z/2^n x Z/2^n.  Goursat's lemma parametrizes them by five integers;
this script counts them and shows the box-type census that the
structural argument runs on.
"""

from roundgroup import boxtypes, goursat

print("subgroups of Z/2^n x Z/2^n by word size:")
for n in range(1, 9):
    print(f"  n={n:2d}: {len(goursat.enumerate_subgroups(n)):5d}")

# each cyclic subgroup 2^q Z / 2^n Z meets the S-box bricks in one of
# three ways per brick: pinned to a single value (W), ranging over the
# whole brick (B), or a proper chunk when q cuts the brick (R)
n, m, delta = 8, 2, 4
print(f"\nbox types of the cyclic subgroups at n={n}, "
      f"bricks of {m} bits:")
for q in range(n + 1):
    kind = boxtypes.subgroup_type(q, m, delta)
    members = boxtypes.subgroup_members_array(q, n)
    assert boxtypes.type_of(members, m, delta) == kind
    print(f"  q={q}: size {1 << (n - q):3d}  type {kind}")
