"""Recompute the pinned degenerate group orders with the sympy oracle.

    python3 perfbench/pin_orders.py

Writes perfbench/data/pinned_orders.json.  The orders are those of the
groups generated by rho(1,0), rho(0,1) and sigma for the two
schreier-verified specs of the order-256 workload; sympy's own
Schreier-Sims, not roundgroup's, computes them (about 3 s and 45 s).
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
import sympy  # noqa: E402
from sympy.combinatorics import Permutation, PermutationGroup  # noqa: E402

from roundgroup import cipher, perms  # noqa: E402

SPECS = {
    "identity_r0_n4": lambda: cipher.load_spec(
        HERE.parent / "specs" / "identity_r0_n4.json"),
    "ac5_i9": lambda: cipher.random_spec(
        2, 2, 0, np.random.default_rng(150_009)),
}


def main() -> None:
    out = {}
    for name, make in SPECS.items():
        spec = make()
        t0 = time.perf_counter()
        group = PermutationGroup([Permutation(g.tolist())
                                  for g in perms.standard_generators(spec)])
        order = int(group.order())
        out[name] = {"order": str(order), "bits": order.bit_length(),
                     "spec_sha256": spec.digest(),
                     "oracle": f"sympy {sympy.__version__}"}
        print(f"{name}: {order.bit_length()} bits in "
              f"{time.perf_counter() - t0:.1f}s")
    path = HERE / "data" / "pinned_orders.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
