"""The four workloads: generated inputs, CLI calls and correctness gates.

Each workload turns the benchmark seed into spec files and a list of
items.  An item is one `roundgroup` CLI invocation plus what its report
must say; `gate()` checks one finished item and returns the problems it
found (an empty list means the item passed).  Items are run in order
and the list is cycled, one round at a time, until the run's time is
up.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from roundgroup import cipher, groups, perms
from roundgroup.cipher import CipherSpec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Proper nontrivial subgroups of Z/2**n x Z/2**n that a verdict scans.
# Pinned from the subgroup lattice (n=8 and n=10 match the ROADMAP's
# 1,513 and 6,117), not recomputed by the code under test.
SUBGROUPS_TESTED = {4: 81, 6: 365, 8: 1513, 10: 6117}

PINNED_ORDERS = json.loads((HERE / "data" / "pinned_orders.json").read_text())

ALT_256 = str(math.factorial(256) // 2)
SEEDED_ORDERS = 8


@dataclass
class Item:
    """One CLI call and the facts its report is checked against."""

    label: str
    spec: CipherSpec
    argv: list[str]
    expect: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    n: int
    items: list[Item]
    # items per round; a run only stops at the end of a round
    round_size: int = 1


def _is_prime(x: int) -> bool:
    if x < 2:
        return False
    f = 2
    while f * f <= x:
        if x % f == 0:
            return False
        f += 1
    return True


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([tag, seed])


def _conforming(rng, m: int, delta: int) -> CipherSpec:
    r = int(rng.integers(m, (delta - 1) * m + 1))
    return cipher.random_spec(m, delta, r, rng)


def _item(workdir: Path, label: str, spec: CipherSpec, command: str,
          seed: int | None, **expect) -> Item:
    path = workdir / f"{label}.json"
    cipher.save_spec(spec, path)
    if cipher.load_spec(path) != spec:
        raise RuntimeError(f"{path}: spec did not survive a round trip")
    argv = [command, "--spec", str(path), "--format", "json"]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return Item(label, spec, argv, expect)


# ---------------------------------------------------------------------------
# one function per workload: (seed, workdir, quick) -> Workload


def verdict_alt(seed: int, workdir: Path, quick: bool) -> Workload:
    """Conforming bijective specs; every verdict must be AltCertified."""
    m, delta, count = (2, 2, 1) if quick else (2, 3, 256)
    rng = _rng(seed, 1)
    items = [_item(workdir, f"alt{i}", _conforming(rng, m, delta), "verdict",
                   int(rng.integers(1 << 31)))
             for i in range(count)]
    return Workload("verdict-alt", m * delta, items)


def verdict_blocks(seed: int, workdir: Path, quick: bool) -> Workload:
    """r=0 specs: identity boxes and seeded random bijective boxes
    alternate; every verdict must certify blocks (Imprimitive)."""
    m, delta, count = (2, 2, 1) if quick else (2, 4, 64)
    n = m * delta
    rng = _rng(seed, 2)
    items = []
    for i in range(count):
        identity = i % 2 == 0
        spec = (CipherSpec(n, m, delta, 0, cipher.identity_sboxes(delta, m))
                if identity else cipher.random_spec(m, delta, 0, rng))
        items.append(_item(workdir, f"blocks{i}", spec, "verdict",
                           int(rng.integers(1 << 31)), identity=identity))
    return Workload("verdict-blocks", n, items)


def _pinned(name: str) -> dict:
    pin = PINNED_ORDERS[name]
    return dict(order=pin["order"], certificate="schreier-verified",
                sha256=pin["spec_sha256"])


def order_256(seed: int, workdir: Path, quick: bool) -> Workload:
    """Exact orders at degree 256.  One round is the degenerate AC5
    instance i=9, the shipped specs and SEEDED_ORDERS seeded conforming
    specs; the fixed corpus keeps the command-line seeds its tests use.
    The seeded specs outnumber the rest so that the median item is a
    conforming one on every seed."""
    rng = _rng(seed, 3)
    identity = cipher.load_spec(ROOT / "specs" / "identity_r0_n4.json")
    items = [_item(workdir, "identity_r0_n4", identity, "order", 0,
                   **_pinned("identity_r0_n4"))]
    if not quick:
        shipped = cipher.load_spec(ROOT / "specs" / "conforming_n4.json")
        ac5_i9 = cipher.random_spec(2, 2, 0, np.random.default_rng(150_009))
        alt = dict(order=ALT_256, certificate="alternating-order-match")
        items = [
            _item(workdir, "ac5_i9", ac5_i9, "order", 160_009,
                  **_pinned("ac5_i9")),
            _item(workdir, "conforming_n4", shipped, "order", 0, **alt),
        ] + [
            _item(workdir, f"seeded{i}",
                  _conforming(rng, *((2, 2) if i % 2 else (1, 4))), "order",
                  int(rng.integers(1 << 31)), **alt)
            for i in range(SEEDED_ORDERS)
        ] + items
    return Workload("order-256", 4, items, round_size=len(items))


def types_wide(seed: int, workdir: Path, quick: bool) -> Workload:
    """Conforming specs in two frames: 4-bit bricks (the GOST brick
    width) and 2-bit bricks, alternating."""
    n, count = (8, 1) if quick else (16, 64)
    rng = _rng(seed, 4)
    items = []
    for i in range(count):
        m = 2 if quick or i % 2 else 4
        items.append(_item(workdir, f"types{i}", _conforming(rng, m, n // m),
                           "types", None))
    return Workload("types-wide", n, items)


BY_NAME = {
    "verdict-alt": verdict_alt,
    "verdict-blocks": verdict_blocks,
    "order-256": order_256,
    "types-wide": types_wide,
}


# ---------------------------------------------------------------------------
# gates


def _witness_problems(item: Item, v: dict) -> list[str]:
    w = v["witness"]
    if w is None:
        return ["no giant witness"]
    degree = item.spec.degree
    p = w["prime"]
    out = []
    if not (_is_prime(p) and degree // 2 < p < degree - 2):
        out.append(f"witness length {p} is not a prime in "
                   f"({degree // 2}, {degree - 2})")
    word = tuple(int(ch, 16) for ch in w["word_hex"])
    element = groups.evaluate_witness_word(
        perms.standard_generators(item.spec), word)
    lengths = perms.cycle_lengths_walk(element)
    if lengths.count(p) != 1:
        out.append(f"witness word has {lengths.count(p)} cycles of "
                   f"length {p}, expected exactly one")
    return out


def _verdict_alt_problems(item: Item, rc: int, report: dict) -> list[str]:
    v = report["verdict"]
    out = []
    if rc != 0 or v["conclusion"] != "AltCertified":
        out.append(f"exit {rc}, {v['conclusion']}; expected 0, AltCertified")
    scan = v["block_scan"]
    if scan["candidates"]:
        out.append(f"block scan found {len(scan['candidates'])} candidates")
    expected = SUBGROUPS_TESTED[item.spec.n]
    if scan["subgroups_tested"] != expected:
        out.append(f"scan tested {scan['subgroups_tested']} subgroups, "
                   f"expected {expected}")
    return out + _witness_problems(item, v)


def _verdict_blocks_problems(item: Item, rc: int, report: dict) -> list[str]:
    v = report["verdict"]
    out = []
    if rc != 2 or v["conclusion"] != "Imprimitive":
        out.append(f"exit {rc}, {v['conclusion']}; expected 2, Imprimitive")
    n, m = item.spec.n, item.spec.m
    certified = {tuple(c["triple"]) for c in v["block_scan"]["candidates"]
                 if c["certified"]}
    whole = {(q, q, q, q, 1) for q in range(m, n, m)}
    if not whole <= certified:
        out.append(f"whole-brick blocks {sorted(whole - certified)} "
                   f"not certified")
    if item.expect["identity"]:
        every = {(q, q, q, q, 1) for q in range(1, n)}
        if certified != every:
            out.append(f"identity boxes certified {sorted(certified)}, "
                       f"expected {sorted(every)}")
    return out


def _order_problems(item: Item, rc: int, report: dict) -> list[str]:
    o = report["order"]
    out = []
    if rc != 0:
        out.append(f"exit {rc}, expected 0")
    if o["order"] != item.expect["order"]:
        out.append(f"order {o['order']} differs from the expected "
                   f"{item.expect['order']}")
    sha = item.expect.get("sha256")
    if sha is not None and report["spec"]["sha256"] != sha:
        out.append(f"spec sha256 {report['spec']['sha256']} is not the "
                   f"pinned {sha}")
    if o["certificate"] != item.expect["certificate"]:
        out.append(f"certificate {o['certificate']}, expected "
                   f"{item.expect['certificate']}")
    return out


def _types_problems(item: Item, rc: int, report: dict) -> list[str]:
    t = report["types"]
    out = []
    if rc != 0:
        out.append(f"exit {rc}, expected 0")
    if t["type_violations"] or t["coset_violations"]:
        out.append(f"type violations {t['type_violations']}, coset "
                   f"violations {t['coset_violations']}")
    if len(t["rows"]) != item.spec.n - 1:
        out.append(f"{len(t['rows'])} type rows, expected {item.spec.n - 1}")
    return out


GATES = {
    "verdict-alt": _verdict_alt_problems,
    "verdict-blocks": _verdict_blocks_problems,
    "order-256": _order_problems,
    "types-wide": _types_problems,
}


def gate(workload: str, item: Item, rc: int, stdout: str) -> list[str]:
    """Problems with one finished item; empty when it is correct."""
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return [f"exit {rc} with no JSON report"]
    return GATES[workload](item, rc, report)
