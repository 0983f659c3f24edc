"""
Why the rotation makes or breaks the group
==========================================

With identity S-boxes and no rotation, the round functions preserve a
coarse partition of the state space and generate a tiny group.  Turning
the rotation back on destroys every candidate block system, and a
large-prime-cycle witness then certifies the alternating group.
"""

import numpy as np

from roundgroup import cipher, goursat, verify
from roundgroup.cipher import CipherSpec

# degenerate instance: 8-bit words, identity boxes, rotation 0
broken = CipherSpec(8, 2, 4, 0, cipher.identity_sboxes(4, 2))
scan = verify.block_scan(broken)
print(f"rotation 0, identity boxes: {len(scan.certified)} certified "
      f"block systems out of {scan.subgroups_tested} candidate subgroups")
for cand in scan.certified:
    print(f"  blocks from subgroup {goursat.describe(cand.triple)}, "
          f"block size {goursat.size(cand.triple, broken.n)}")

v = verify.full_verdict(broken, seed=1)
print(f"verdict: {v.conclusion}")

# same word size, same frame, but a conforming rotation and random
# bijective boxes
healthy = cipher.random_spec(2, 4, 3, np.random.default_rng(20260823))
scan = verify.block_scan(healthy)
print(f"\nrotation 3, random boxes: {len(scan.candidates)} candidates "
      f"out of {scan.subgroups_tested} (empty scan means primitive)")

v = verify.full_verdict(healthy, seed=20260823)
print(f"verdict: {v.conclusion}")
if v.witness is not None:
    print(f"witness: trial {v.witness.trials_used} powered down to a "
          f"bare {v.witness.prime}-cycle on {healthy.degree} points")
