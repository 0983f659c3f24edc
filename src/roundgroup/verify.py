"""The verification pipeline: what group do the round maps generate?

For a parameter set within scope (delta >= 4, m >= 2, conforming
rotation, bijective boxes) the target statement is that the group
generated by all the keyed rounds is the full alternating group on
states.  The pipeline certifies the individual facts on the concrete
parameter set at hand:

* parity: for every S table, lossy or not, all three standard
  generators are even permutations, so the generated group sits inside
  the alternating group.  A unit translation is 2**n cycles of length
  2**n; sigma = swap o phi_S has the sign
  (-1)**(2**(n-1) * (2**n - 1 + z)), z the fibres x2 with S(x2) != 0,
  as swap is 2**(n-1) * (2**n - 1) transpositions and phi_S is
  2**(n-1) on each such fibre.  Both are +1 because n >= 2;
* transitivity: rho(1,0) and rho(0,1) generate the regular group
  Z/2**n x Z/2**n, so the state set is one orbit;
* primitivity: any invariant partition would have to consist of the
  modular cosets of a subgroup of the state group, so scanning every
  Goursat subgroup settles it.  Candidates that pass the necessary
  image-coset equation (tried on probe members of all subgroups in one
  pass first, then on at most 2**n members of each survivor) are
  certified (or refuted) by a difference lemma on the 2**n-entry S
  table (`partition_invariant`); the translations send x + H to
  x + k + H.  The scan builds no state array: sigma is read
  in closed form.
  Primitive means transitive with no certified candidate (`is_primitive`);
  a refuted candidate does not hold back the witness search;
* case eliminations: with primitivity in hand, the remaining
  non-alternating possibilities die on small arithmetic: a diagonal
  collision check, a Sylow-exponent bound for the affine case, a
  top-brick agreement for the product/wreath cases, and a coprime
  factorization for the projective-line case;
* giant certificate: independently of the eliminations, an element
  with a single large prime cycle (found by random word search)
  combined with primitivity forces the alternating group outright
  (Jordan).  Each trial's word is evaluated from the round maps
  (`perms.word_evaluator`: translations as pending offsets, one
  S-table lookup per sigma letter), so a verdict builds no dense
  generator, and a search that runs no trial builds no state array.

The witness search is gated on parity and primitivity alone: sigma is
a permutation for every S table, so a witness certifies the
alternating group on lossy boxes too.  Bijectivity, through the
theorem's scope, gates only TheoremApplies.  The verdict is
deliberately one-sided: without a witness or the whole elimination
chain it is Inconclusive; only an explicitly certified invariant
partition yields Imprimitive.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import cipher, goursat, perms, words
from .cipher import CipherSpec, apply_s
from .groups import GiantWitness, giant_witness


# ---------------------------------------------------------------------------
# individual checks


@dataclass(frozen=True)
class Check:
    """One verdict stage as both reports show it: its JSON key and
    value, its text lines (the first reads `label: STATUS detail`), and
    the fact the verdict's rules read."""

    key: str
    lines: tuple[str, ...]
    value: object
    holds: bool


def _check(key: str, label: str, status: str, detail: str, value,
           holds: bool) -> Check:
    return Check(key, (f"{label}: {status} {detail}",), value, holds)


def _lemma_check(key: str, passed: bool) -> Check:
    return _check(key, key, "PASS" if passed else "FAIL", "(lemma)",
                  {"route": "lemma", "passed": passed}, passed)


def parity_check(spec: CipherSpec) -> bool:
    """The parity lemma (module docstring): the generators are even
    exactly when its hypothesis n >= 2 holds."""
    return spec.n >= 2


def transitivity_check(spec: CipherSpec) -> bool:
    """The translations alone are transitive (module docstring)."""
    return True


@dataclass(frozen=True)
class BlockCandidate:
    """A Goursat subgroup whose image under the swap map equals its
    forced modular coset; certified means its coset partition was
    additionally shown invariant under sigma, hence under every
    generator."""

    triple: tuple[int, int, int, int, int]  # the row (s, sB, t, tD, z)
    certified: bool


@dataclass(frozen=True)
class BlockScanResult:
    subgroups_tested: int
    probe_refuted: int  # refuted by probe members before materializing
    shift: int  # the image of the zero state's right half
    candidates: tuple[BlockCandidate, ...]

    @property
    def certified(self) -> tuple[BlockCandidate, ...]:
        return tuple(c for c in self.candidates if c.certified)

    @property
    def empty(self) -> bool:
        return not self.candidates


def is_primitive(transitive: bool, scan: BlockScanResult) -> bool:
    """Transitive with no certified block candidate: every invariant
    partition is one of the subgroup-coset partitions the scan tests."""
    return transitive and not scan.certified


def partition_invariant(table: np.ndarray, row) -> bool:
    """Does the swap map send every coset of the subgroup H of a goursat
    row (s, sB, t, tD, z) onto a coset, for the S table `table`?  Read
    off the table, no state array.

    sigma maps cosets into cosets iff sigma(x + h) - sigma(x) is in H
    for every x and h in H, and into is onto as sigma is a bijection.
    It is enough that this holds for the generators g1, g2 of
    goursat.generators: the differences telescope, sigma(x + h + g) -
    sigma(x) = (sigma(x + h + g) - sigma(x + h)) + (sigma(x + h) -
    sigma(x)).  For h = (h1, h2),

        sigma(x + h) - sigma(x) = (h2, D_h(x)),
        D_h(x) = ((x1 + h1) ^ S(x2 + h2)) - (x1 ^ S(x2)) mod 2**n.

    Two members of H with first part h2 differ by a member with first
    part 0, and those are 0 x <2**tD> (Goursat), so (h2, D_h(x)) is in
    H for every x iff (h2, D_h(0)) is in H and D_h(x) = D_h(0) mod
    2**tD for every x.  Carries of + and - and the bits of ^ only move
    upward, so D_h mod 2**tD reads x1 mod 2**tD alone: the congruence
    is checked on the 2**n x 2**tD grid of (x2, x1 mod 2**tD), never
    more than 2**(2n) points.
    """
    # a Python int: a numpy low would promote the uint32 grid to int64
    n, low = len(table).bit_length() - 1, (1 << int(row[3])) - 1
    mask = (1 << n) - 1
    # residues mod 2**tD; uint32 wraps mod 2**32, a multiple of 2**tD
    residues = (table & low).astype(np.uint32)
    x1 = np.arange(low + 1, dtype=np.uint32)
    here = residues[:, None] ^ x1  # row x2: x1 ^ S(x2)
    for h1, h2 in goursat.generators(row, n):
        d0 = ((h1 ^ int(table[h2])) - int(table[0])) & mask
        # exact on any row: on scan candidates the set equation implies it
        if not goursat.contains(row, h2, d0, n, 0):
            return False
        diff = np.roll(residues, -h2)[:, None] ^ ((x1 + h1) & low)
        diff -= here
        diff &= low  # D_h(x) mod 2**tD
        if (diff != d0 & low).any():
            return False
    return True


# (i, j) coefficients of the probe members i*g1 + j*g2 of a subgroup
# generated by g1, g2; fixed, so no RNG stream is touched
PROBES = ((1, 0), (0, 1), (1, 1), (3, 5), (5, 3), (7, 11), (11, 7), (13, 1))


def probe_refuted(subgroups: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Per row H of a goursat table: does the swap map (for the
    S table `table`) send a probe member i*g1 + j*g2 of H (g1, g2 as
    in goursat.generators) outside H + (0, S(0))?"""
    n = len(table).bit_length() - 1
    left, right = goursat.members(subgroups, *np.array(PROBES).T, n)
    image = cipher.swap(table, left, right)
    return ~goursat.contains(subgroups, *image, n, int(table[0])).all(axis=1)


def block_scan(spec: CipherSpec) -> BlockScanResult:
    """Test every proper nontrivial Goursat subgroup for blockness.

    A subgroup's cosets can be an invariant partition only if the swap
    map sends the subgroup to its coset through the image of zero (the
    translations already map cosets to cosets).  That set equation,
    sigma(H) = H + (0, S(0)), is the scan filter; `probe_refuted` tries
    it on a few members of every subgroup in one pass.  A survivor is
    decided on one member per coset of K = {x in H : x2 = 0, x1 = 0
    mod 2**tD}, which is H meet (<2**g> x 0), g = max(sB, tD).  For
    (k1, 0) in K, sigma(x + k) - sigma(x) = (0, ((x1 + k1) ^ S(x2)) -
    (x1 ^ S(x2))) is 0 mod 2**tD in its second part, so lies in 0 x
    <2**tD>, inside H.  So sigma(H) lies in H + (0, S(0)) iff the
    |H|/|K| = 2**(n - min(s, t)) members goursat.member_pairs lists
    first do; sigma is a bijection for every S table, so that is the
    set equation, lossy boxes included.  Candidates are certified or
    refuted by `partition_invariant`, all off the 2**n-entry S table
    with sigma in closed form: no state array.  No certified candidate
    plus transitivity proves primitivity.
    """
    n = spec.n
    words.check_cap("materialize", spec.degree)  # the dense maps' scope
    table = cipher.s_table(spec)
    shift = int(table[0])
    subgroups = goursat.proper_subgroups(n)
    refuted = probe_refuted(subgroups, table)
    candidates = []
    for row in map(tuple, subgroups[~refuted].tolist()):
        stop = 1 << (n - min(row[0], row[2]))
        image = cipher.swap(table, *goursat.member_pairs(row, n, stop))
        if goursat.contains(row, *image, n, shift).all():
            candidates.append(BlockCandidate(
                row, partition_invariant(table, row)))
    return BlockScanResult(len(subgroups), int(refuted.sum()), shift,
                           tuple(candidates))


def scan_check(scan: BlockScanResult, n: int) -> Check:
    """The scan's record, its headline and one indented line per
    candidate; it holds when no candidate is certified."""
    lines, candidates = [], []
    for c in scan.candidates:
        size = goursat.size(c.triple, n)
        status = "certified" if c.certified else "refuted-by-partition-check"
        lines.append(f"  block {goursat.describe(c.triple)} size={size} "
                     f"blocks={(1 << (2 * n)) // size} {status}")
        candidates.append({"triple": list(c.triple), "size": size,
                           "certified": c.certified})
    shift = words.hex_word(scan.shift, n)
    if scan.empty:
        head = (f"block-scan: EMPTY {scan.subgroups_tested} subgroups, "
                f"shift (0, 0x{shift})")
    else:
        head = (f"block-scan: {len(scan.certified)} certified of "
                f"{len(scan.candidates)} candidates from "
                f"{scan.subgroups_tested} subgroups")
    return Check("block_scan", (head, *lines),
                 {"subgroups_tested": scan.subgroups_tested,
                  "shift_hex": shift, "candidates": candidates},
                 not scan.certified)


def diagonal_check(spec: CipherSpec) -> Check:
    """The twisted-diagonal block shapes force the mixing map to take
    the same value at zero and at the order-two word; bijectivity says
    it cannot."""
    n = spec.n
    zero, top = (words.hex_word(apply_s(spec, x), n)
                 for x in (0, words.involution(n)))
    passed = zero != top
    return _check("diagonal", "diagonal-collision",
                  "PASS" if passed else "FAIL",
                  f"S(0)=0x{zero} S(top)=0x{top}",
                  {"passed": passed, "s_at_zero_hex": zero,
                   "s_at_top_hex": top}, passed)


def affine_check(n: int) -> Check:
    """An affine-group normal structure would need an element of
    order 2**n, but the 2-Sylow exponent of the affine group over
    GF(2) is too small once n > ceil(log2 n) + 2."""
    words.check_width(n)
    bound = (n - 1).bit_length() + 2
    excluded = bound < n
    return _check("affine", "affine-order-bound",
                  "EXCLUDED" if excluded else "INCONCLUSIVE",
                  f"ceil(log2 n)+2={bound} vs n={n}",
                  {"excluded": excluded, "bound": bound, "n": n}, excluded)


def wreath_check(spec: CipherSpec) -> Check:
    """Both product-action shapes reduce to one of two collisions:
    equal mixing images at zero and the top bit (fact i refutes), or
    images differing exactly by the top bit, which would force their
    top bricks to disagree; for a conforming rotation the top brick
    of the bricklayer output rotates wholly off itself, so the top
    bricks agree (fact ii refutes)."""
    n = spec.n
    zero, top = (apply_s(spec, x) for x in (0, words.involution(n)))
    # the top brick: bits n - m .. n - 1 of each image, in hex
    brick_zero, brick_top = (f"{words.bit_slice(s, n - spec.m, n - 1):x}"
                             for s in (zero, top))
    distinct = zero != top
    excluded = distinct and brick_zero == brick_top
    return _check("wreath", "wreath-top-brick",
                  "EXCLUDED" if excluded else "NOT-EXCLUDED",
                  f"distinct={'yes' if distinct else 'no'} "
                  f"top-brick S(0)=0x{brick_zero} S(top)=0x{brick_top}",
                  {"excluded": excluded, "distinct_images": distinct,
                   "top_slice_zero_hex": brick_zero,
                   "top_slice_top_hex": brick_top}, excluded)


def psl_check(n: int) -> Check:
    """A projective-line action on 2**(2n) points would make
    2**(2n) - 1 a prime power; it splits into two coprime factors
    bigger than one."""
    words.check_width(n)
    minus, plus = (1 << n) - 1, (1 << n) + 1
    gcd = math.gcd(minus, plus)
    excluded = (minus > 1 and plus > 1 and gcd == 1
                and minus * plus == (1 << (2 * n)) - 1)
    return _check("psl", "projective-line",
                  "EXCLUDED" if excluded else "NOT-EXCLUDED",
                  f"{(1 << (2 * n)) - 1} = {minus} * {plus}, gcd {gcd}",
                  {"excluded": excluded, "factors": [minus, plus],
                   "gcd": gcd}, excluded)


def _witness_check(witness: GiantWitness | None, searched: bool,
                  budget: int) -> Check:
    """FOUND with the witness, NONE when the search ran dry, SKIPPED
    when the gate kept it from running."""
    if witness is not None:
        return _check("witness", "giant-witness", "FOUND",
                      f"prime={witness.prime} trials={witness.trials_used} "
                      f"word={witness.word_hex}",
                      {"prime": witness.prime,
                       "trials_used": witness.trials_used,
                       "word_hex": witness.word_hex,
                       "other_lcm": str(witness.other_lcm)}, True)
    if searched:
        return _check("witness", "giant-witness", "NONE",
                      f"within budget {budget}",
                      {"prime": None, "trials_used": budget}, False)
    return _check("witness", "giant-witness", "SKIPPED",
                  "(gated by earlier checks)", None, False)


# ---------------------------------------------------------------------------
# the combined verdict


ALT_CERTIFIED = "AltCertified"
THEOREM_APPLIES = "TheoremApplies"
IMPRIMITIVE = "Imprimitive"
INCONCLUSIVE = "Inconclusive"

EXIT_CODES = {ALT_CERTIFIED: 0, THEOREM_APPLIES: 0,
              IMPRIMITIVE: 2, INCONCLUSIVE: 3}
DEFAULT_BUDGET = 10_000  # giant-witness trials


@dataclass(frozen=True)
class Verdict:
    budget: int
    scan: BlockScanResult
    primitive: bool
    witness: GiantWitness | None
    conclusion: str
    checks: tuple[Check, ...]  # every stage, in report order
    # wall seconds of the block scan and of the witness stage, and the
    # witness trials the probes left open, for the caller's timing
    # line; not part of the verdict's value
    stage_seconds: dict[str, float] = field(compare=False, repr=False)
    fallbacks: int = field(compare=False, repr=False)

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.conclusion]


def full_verdict(spec: CipherSpec, seed: int,
                 budget: int = DEFAULT_BUDGET) -> Verdict:
    """Run the whole pipeline on one spec with one RNG seed."""
    parity = parity_check(spec)
    transitivity = transitivity_check(spec)
    t0 = time.perf_counter()
    scan = block_scan(spec)
    scan_s = time.perf_counter() - t0
    eliminations = (diagonal_check(spec), affine_check(spec.n),
                    wreath_check(spec), psl_check(spec.n))

    primitive = is_primitive(transitivity, scan)
    witness = None
    searched = parity and primitive
    counters = {"fallbacks": 0}
    t0 = time.perf_counter()
    if searched and budget:
        # the only state arrays of a verdict, one per trial: the scan
        # and the word evaluator read the S table
        rng = np.random.default_rng(seed)
        witness = giant_witness(perms.word_evaluator(spec), perms.LETTERS,
                                rng, budget=budget, counters=counters)
    witness_s = time.perf_counter() - t0

    if scan.certified:
        conclusion = IMPRIMITIVE
    elif witness is not None:  # found only past the gate above
        conclusion = ALT_CERTIFIED
    elif (spec.theorem_scope and parity and primitive
            and all(c.holds for c in eliminations)):
        conclusion = THEOREM_APPLIES
    else:
        conclusion = INCONCLUSIVE

    checks = (_lemma_check("parity", parity),
              _lemma_check("transitivity", transitivity),
              scan_check(scan, spec.n), *eliminations,
              _witness_check(witness, searched, budget),
              Check("conclusion", (f"conclusion: {conclusion}",), conclusion,
                    EXIT_CODES[conclusion] == 0))
    return Verdict(budget, scan, primitive, witness, conclusion,
                   checks, {"scan": scan_s, "witness": witness_s},
                   counters["fallbacks"])
