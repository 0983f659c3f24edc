"""Reference implementations the tests check the certifier against.

None of this runs inside a `roundgroup` subcommand.  Each helper is a
slower or more generic route to a fact the certifier reaches its own
way:

* generic minimal block systems by union-find refinement, against the
  Goursat block scan;
* membership in a verified stabilizer chain and a conjugation sampler,
  for sampled evidence of normal subgroups;
* the strong-generation criterion by scalar sifting of every Schreier
  generator, against the completion's batched verification;
* the dense kernels behind `types` by sorting: the mixing-map image
  of <2**q> by np.unique, the type by one np.unique per brick, and the
  S table by a gather per brick over every word and a full-width
  rotation, against the presence mask, the bincount and the outer OR
  of the rotated brick tables;
* the box-type translation lemmas and the bricklayer check, the steps
  of the type calculus before the mixing map, and the mixing map's
  coset equality by sorting the shifted coset, against the
  count-and-congruence rule;
* a brute-force closure walk over the subgroup lattice of
  Z/2**n x Z/2**n for n <= 3, against the Goursat enumeration;
* the giant-witness search that scans every cycle length and rechecks
  the power on a hit, against the search decided by the longest cycle,
  and the replay of a witness word a report names;
* the block scan one subgroup at a time: scalar subgroup membership
  and the scalar probe test built on it, the coset labels from an
  arange over every state, and the generic partition check by class
  representatives on every generator, against the vectorized probe
  pass and the fibre-grid labels; the dense roll check of the swap
  map, built state by state from any S table, against the difference
  lemma that certifies blocks from the S table alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from roundgroup import goursat, perms, words
from roundgroup.boxtypes import (BLACK, RULED, WHITE, subgroup_members_array,
                                 subgroup_type, type_of)
from roundgroup.cipher import CipherSpec, apply_s, s_table
from roundgroup.goursat import enumerate_subgroups, member_pairs, size
from roundgroup.groups import (MIX_LENGTH, GiantWitness, StabilizerChain,
                               _is_prime, evaluate_witness_word,
                               schreier_sims)
from roundgroup.verify import (PROBES, BlockCandidate, BlockScanResult,
                               block_scan)


# ---------------------------------------------------------------------------
# minimal block systems (union-find refinement)


@dataclass(frozen=True)
class BlockSystem:
    """A nontrivial invariant partition; labels[i] = smallest point of
    the block containing i."""

    labels: np.ndarray
    n_blocks: int
    seed_pair: tuple[int, int]

    @property
    def block_size(self) -> int:
        return len(self.labels) // self.n_blocks


def minimal_partition(gens: list[np.ndarray], alpha: int,
                      beta: int) -> np.ndarray:
    """Labels of the finest invariant partition with alpha, beta together.

    Classic union-find refinement: whenever two points
    share a block, their images under every generator must too; merged
    pairs are queued until stable.
    """
    degree = len(gens[0])
    parent = list(range(degree))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    glists = [g.tolist() for g in gens]
    parent[find(beta)] = find(alpha)
    queue = [(alpha, beta)]
    while queue:
        a, b = queue.pop()
        for g in glists:
            ra, rb = find(g[a]), find(g[b])
            if ra != rb:
                parent[rb] = ra
                queue.append((ra, rb))
    roots = np.fromiter((find(i) for i in range(degree)), dtype=np.int64,
                        count=degree)
    # canonical labels: smallest member of each class
    mins = np.full(degree, degree, dtype=np.int64)
    np.minimum.at(mins, roots, np.arange(degree, dtype=np.int64))
    return mins[roots]


def minimal_blocks(gens: list[np.ndarray], alpha: int,
                   beta: int) -> BlockSystem | None:
    """The minimal block system whose block joins alpha and beta, or
    None when that system is the trivial one-block partition."""
    labels = minimal_partition(gens, alpha, beta)
    n_blocks = len(np.unique(labels))
    if n_blocks <= 1:
        return None
    return BlockSystem(labels, n_blocks, (alpha, beta))


def primitivity_by_pairs(gens: list[np.ndarray]) -> BlockSystem | None:
    """None iff primitive: sweeps seed pairs (0, beta) for all beta.

    Requires transitivity (a block system of an intransitive group is
    not meaningful here); held to the chain-degree cap of the size-cap
    table since the sweep is quadratic-ish.
    """
    degree = len(gens[0])
    words.check_cap("chain-degree", degree)
    for beta in range(1, degree):
        system = minimal_blocks(gens, 0, beta)
        if system is not None:
            return system
    return None


def atkinson_agrees_with_scan(spec: CipherSpec) -> bool:
    """At sweep-capped degrees, the generic minimal-block sweep and the
    Goursat scan must return the same primitivity verdict."""
    gens = perms.standard_generators(spec)
    scan = block_scan(spec)
    generic = primitivity_by_pairs(gens)
    return (generic is None) == (len(scan.certified) == 0)


# ---------------------------------------------------------------------------
# chain membership and conjugation sampling (normal-closure evidence)


def chain_contains(chain: StabilizerChain, p: np.ndarray) -> bool:
    """Does p sift to the identity?  Sound only once the chain's order
    is proved exact, so an unverified chain is refused."""
    if chain.certificate == "unverified":
        raise ValueError("membership test on an unverified chain")
    residue, _ = chain.sift(p)
    return residue is None


def schreier_generator_failures(
        chain: StabilizerChain) -> tuple[int, list[tuple[int, int, int]]]:
    """The strong-generation criterion, one element at a time: for every
    level i, orbit point a and level generator g, the Schreier generator
    "u_a then g then u_{g(a)}^-1" must sift to the identity through
    levels i+1.. by scalar sifting.  Reads the chain's orbits, inverse
    transversal rows and generator lists, none of its sift kernels.
    Returns how many Schreier generators were checked and the (level,
    orbit index, generator index) of each one that fails."""
    levels = chain.levels
    where = [{b: k for k, b in enumerate(lvl.orbit)} for lvl in levels]
    rows = [lvl.uinvstack() for lvl in levels]
    identity = np.arange(chain.degree)
    checked, failures = 0, []
    for i, lvl in enumerate(levels):
        for k, (a, uinv_a) in enumerate(zip(lvl.orbit, rows[i])):
            u_a = np.argsort(uinv_a)
            for gi, g in enumerate(lvl.gens):
                s = rows[i][where[i][int(g[a])]][g[u_a]]
                for deeper, at, deeper_rows in zip(levels[i + 1:],
                                                   where[i + 1:],
                                                   rows[i + 1:]):
                    pos = at.get(int(s[deeper.point]))
                    if pos is None:
                        break
                    s = deeper_rows[pos][s]
                checked += 1
                if not np.array_equal(s, identity):
                    failures.append((i, k, gi))
    return checked, failures


@dataclass(frozen=True)
class ConjugacyReport:
    samples: int
    failures: int
    subgroup_order: int
    certificate: str

    @property
    def all_contained(self) -> bool:
        return self.failures == 0


def conjugates_contained(subgroup_gens: list[np.ndarray],
                         ambient_gens: list[np.ndarray],
                         samples: int,
                         rng: np.random.Generator) -> ConjugacyReport:
    """Sift g^-1 w g into a chain for the subgroup, for random subgroup
    words w and random ambient elements g.  Zero failures is sampled
    evidence that the subgroup is normal in the ambient group."""
    chain = schreier_sims(subgroup_gens, rng)
    sub_pool = list(subgroup_gens) + [perms.inverse(g)
                                      for g in subgroup_gens]
    amb_pool = list(ambient_gens) + [perms.inverse(g)
                                     for g in ambient_gens]
    failures = 0
    for _ in range(samples):
        w = perms.compose_all([sub_pool[i] for i in
                               rng.integers(0, len(sub_pool), MIX_LENGTH)])
        g = perms.compose_all([amb_pool[i] for i in
                               rng.integers(0, len(amb_pool), MIX_LENGTH)])
        conj = perms.compose_all([perms.inverse(g), w, g])
        if not chain_contains(chain, conj):
            failures += 1
    return ConjugacyReport(samples, failures, chain.order,
                           chain.certificate)


def words_of_length(gens: list[np.ndarray], length: int) -> list[np.ndarray]:
    """All products of exactly `length` generators (no inverses)."""
    out = [np.arange(len(gens[0]), dtype=np.int64)]
    for _ in range(length):
        out = [g[w] for w in out for g in gens]
    return out


# ---------------------------------------------------------------------------
# the dense kernels behind `types`, by sorting


def gamma_table_reference(spec: CipherSpec) -> np.ndarray:
    """x -> gamma(x) over all 2**n words, one gather per brick."""
    x = np.arange(1 << spec.n, dtype=np.int64)
    out = np.zeros_like(x)
    brick = (1 << spec.m) - 1
    for j in range(spec.delta):
        shift = j * spec.m
        table = np.asarray(spec.sboxes[j], dtype=np.int64)
        out |= table[(x >> shift) & brick] << shift
    return out


def s_image_reference(table: np.ndarray, q: int) -> np.ndarray:
    """The image of <2**q> under the mixing-map table, sorted by
    np.unique."""
    n = len(table).bit_length() - 1
    return np.unique(table[subgroup_members_array(q, n)])


def type_of_reference(values, m: int, delta: int) -> str | None:
    """The type of a set from np.unique of the set and of each brick's
    projection."""
    arr = np.unique(np.asarray(list(values) if not isinstance(
        values, np.ndarray) else values, dtype=np.int64))
    if arr.size == 0:
        raise ValueError("type of the empty set is undefined")
    brick = (1 << m) - 1
    sizes = [len(np.unique((arr >> (j * m)) & brick)) for j in range(delta)]
    if math.prod(sizes) != arr.size:
        return None
    full = 1 << m
    return "".join(WHITE if s == 1 else BLACK if s == full else RULED
                   for s in sizes)


# ---------------------------------------------------------------------------
# the four translation / bricklayer checks


def is_whole(q: int, m: int) -> bool:
    return q % m == 0


def xor_translate_keeps_type(values, v: int, m: int, delta: int) -> bool:
    """Xor by any word leaves the type of any typed set unchanged."""
    before = type_of(values, m, delta)
    if before is None:
        raise ValueError("set has no type; out of scope")
    arr = np.asarray(list(values) if not isinstance(values, np.ndarray)
                     else values, dtype=np.int64)
    after = type_of(arr ^ v, m, delta)
    return after == before


def modular_translate_keeps_type(q: int, v: int, n: int, m: int,
                                 delta: int) -> bool:
    """Adding v mod 2**n to the subgroup <2**q> keeps its type.

    True for subgroups despite carries; arbitrary typed sets can lose
    or change their type under the same translation.
    """
    mask = (1 << n) - 1
    translated = (subgroup_members_array(q, n) + v) & mask
    return type_of(translated, m, delta) == subgroup_type(q, m, delta)


@dataclass(frozen=True)
class BricklayerCheck:
    q: int
    whole: bool
    type_preserved: bool
    coset_identity: bool | None  # whole subgroups only


def bricklayer_check(spec: CipherSpec, q: int) -> BricklayerCheck:
    """The bricklayer against <2**q>: type preservation always, and
    for whole subgroups the exact set identity
    gamma(D) = gamma(0) + D (modular coset of the image of zero)."""
    n, m, delta = spec.n, spec.m, spec.delta
    mask = (1 << n) - 1
    table = gamma_table_reference(spec)
    members = subgroup_members_array(q, n)
    image = np.unique(table[members])
    type_ok = type_of(image, m, delta) == subgroup_type(q, m, delta)
    coset: bool | None = None
    if is_whole(q, m):
        shifted = np.sort((members + int(table[0])) & mask)
        coset = bool(np.array_equal(image, shifted))
    return BricklayerCheck(q, is_whole(q, m), type_ok, coset)


def s_image_coset_violations_reference(spec: CipherSpec) -> list[int]:
    """q in (0, n) where the image of <2**q> under the mixing map equals
    the coset S(0) + <2**q>, both sides materialized and sorted."""
    n = spec.n
    mask = (1 << n) - 1
    table = s_table(spec)
    out = []
    for q in range(1, n):
        members = subgroup_members_array(q, n)
        image = np.unique(table[members])
        shifted = np.sort((members + int(table[0])) & mask)
        if image.size == shifted.size and np.array_equal(image, shifted):
            out.append(q)
    return out


# ---------------------------------------------------------------------------
# independent brute-force route (the enumeration oracle for tiny n)


def subgroup_rows(n: int) -> list[tuple[int, int, int, int, int]]:
    """The goursat rows (s, sB, t, tD, z) as tuples of Python ints."""
    return [tuple(row) for row in enumerate_subgroups(n).tolist()]


def count_subgroups(n: int) -> int:
    return len(enumerate_subgroups(n))


def closure_of(seed: set[tuple[int, int]], n: int) -> frozenset[tuple[int, int]]:
    group = {(0, 0)}
    frontier = list(seed)
    while frontier:
        el = frontier.pop()
        if el in group:
            continue
        group.add(el)
        adds = [(words.add_mod(el[0], o[0], n), words.add_mod(el[1], o[1], n))
                for o in group]
        frontier.extend(a for a in adds if a not in group)
    return frozenset(group)


def brute_force_subgroups(n: int) -> set[frozenset[tuple[int, int]]]:
    """Full subgroup lattice by closure growth; n <= 3 only."""
    if n > 3:
        raise ValueError("brute force oracle limited to n <= 3")
    everything = [(a, c) for a in range(1 << n) for c in range(1 << n)]
    found = {closure_of(set(), n)}
    frontier = [closure_of(set(), n)]
    while frontier:
        base = frontier.pop()
        for el in everything:
            if el in base:
                continue
            grown = closure_of(set(base) | {el}, n)
            if grown not in found:
                found.add(grown)
                frontier.append(grown)
    return found


def member_set(row, n: int) -> frozenset[tuple[int, int]]:
    """The members (a, c), found by asking the scalar `contains` about
    every pair, so no member listing of goursat is read."""
    return frozenset((a, c) for a in range(1 << n) for c in range(1 << n)
                     if contains(row, n, a, c))


# ---------------------------------------------------------------------------
# giant witness by the full cycle type (the recheck route)


def giant_witness_reference(gens: list[np.ndarray], rng: np.random.Generator,
                            word_len: int = 32,
                            budget: int = 10_000) -> GiantWitness | None:
    """A hit is a cycle length occurring once, prime, in
    (degree/2, degree-2); the power by the lcm of the other lengths is
    computed and its cycle type verified before the witness is
    returned."""
    degree = len(gens[0])
    pool = list(gens) + [perms.inverse(g) for g in gens]
    for trial in range(1, budget + 1):
        word = tuple(int(i) for i in rng.integers(0, len(pool), word_len))
        w = perms.compose_all([pool[i] for i in word])
        lengths, counts = np.unique(perms.cycle_lengths(w),
                                    return_counts=True)
        hit = None
        for length, count in zip(lengths.tolist(), counts.tolist()):
            if (count == 1 and degree // 2 < length < degree - 2
                    and _is_prime(length)):
                hit = length
                break
        if hit is None:
            continue
        other = math.lcm(*(l for l in lengths.tolist() if l != hit)) \
            if len(lengths) > 1 else 1
        power = perms.power(w, other)
        plengths = perms.cycle_lengths(power)
        if plengths[-1] != hit or (plengths[:-1] != 1).any():
            continue  # never happens; belt over braces
        return GiantWitness(word, hit, trial, other)
    return None


def witness_from_record(record: dict) -> GiantWitness:
    """The witness a `verdict` JSON record names; each pool index of
    the word is one hex digit."""
    return GiantWitness(tuple(int(c, 16) for c in record["word_hex"]),
                        record["prime"], record["trials_used"],
                        int(record["other_lcm"]))


def witness_replays(gens: list[np.ndarray],
                    witness: GiantWitness) -> bool:
    """Is the witness word's power by other_lcm a bare cycle of the
    prime, with the prime in (degree/2, degree - 2)?"""
    degree = len(gens[0])
    element = evaluate_witness_word(gens, witness.word)
    lengths = perms.cycle_lengths(perms.power(element, witness.other_lcm))
    return bool(lengths[-1] == witness.prime and (lengths[:-1] == 1).all()
                and degree // 2 < witness.prime < degree - 2)


# ---------------------------------------------------------------------------
# the block scan, one subgroup at a time


def contains(row, n: int, a: int, c: int) -> bool:
    """Membership without materializing."""
    mask = (1 << n) - 1
    s, sb, t, td, z = row
    if s <= t:
        if a & ((1 << s) - 1):
            return False
        return ((c - ((a * (z << (t - s))) & mask)) & ((1 << td) - 1)) == 0
    if c & ((1 << t) - 1):
        return False
    return ((a - ((c * (z << (s - t))) & mask)) & ((1 << sb) - 1)) == 0


def probe_refutes(row, n: int, sigma: np.ndarray, shift: int) -> bool:
    """Is some probe member h of the subgroup H sent by the swap map
    outside H + (0, shift)?  Then sigma(H) != H + (0, shift): the
    subgroup fails the set equation and cannot give blocks."""
    mask = (1 << n) - 1
    (a1, c1), (a2, c2) = goursat.generators(row, n)
    for i, j in PROBES:
        h = ((i * a1 + j * a2) & mask) | (((i * c1 + j * c2) & mask) << n)
        image = int(sigma[h])
        if not contains(row, n, image & mask,
                        ((image >> n) - shift) & mask):
            return True
    return False


def coset_labels(row, n: int) -> np.ndarray:
    """A label per state, constant exactly on the cosets of the subgroup.

    Two states differ by a member iff their left parts agree modulo
    2**s and, after subtracting phi of the left part, their right
    parts agree modulo 2**tD (phi is additive, so the correction
    cancels in differences).  Mirror-image formula when t < s.  This
    is the O(degree) quotient map that block certification rides on.
    """
    mask = (1 << n) - 1
    s, sb, t, td, z = row
    idx = np.arange(1 << (2 * n), dtype=np.int64)
    x1 = idx & mask
    x2 = idx >> n
    if s <= t:
        lab1 = x1 & ((1 << s) - 1)
        lab2 = (x2 - (x1 * (z << (t - s)))) & ((1 << td) - 1)
    else:
        lab1 = x2 & ((1 << t) - 1)
        lab2 = (x1 - (x2 * (z << (s - t)))) & ((1 << sb) - 1)
    return lab1 | (lab2 << n)


def partition_invariant(labels: np.ndarray, perm: np.ndarray) -> bool:
    """Does the permutation map label-classes onto label-classes?
    Each state's image must share the label of the image of one fixed
    member of its class (labels are non-negative); O(degree), no sort."""
    rep = np.empty(int(labels.max()) + 1, dtype=np.int64)
    rep[labels] = np.arange(len(labels))
    image = labels[perm]
    return bool(np.array_equal(image, image[rep[labels]]))


def roll_invariant(labels: np.ndarray, perm: np.ndarray, row,
                   n: int) -> bool:
    """The dense check that block certification made before the
    difference lemma: with labels = goursat.coset_labels(row, n), perm
    maps the cosets of H onto cosets iff L = labels[perm] has L(x + h)
    == L(x) for all x and h in H, i.e. (as goursat.generators(row, n)
    generate H) iff L on the fibre grid is unchanged when rolled by
    each generator."""
    image = labels[perm].reshape(1 << n, 1 << n)  # row x2, column x1
    return all(np.array_equal(np.roll(image, (-c, -a), axis=(0, 1)), image)
               for a, c in goursat.generators(row, n))


def swap_from_table(table: np.ndarray) -> np.ndarray:
    """The swap map (x1, x2) -> (x2, x1 ^ S(x2)) for an arbitrary S
    table, one state at a time, as a dense permutation."""
    n = len(table).bit_length() - 1
    mask = (1 << n) - 1
    return np.array([(x >> n) | (((x & mask) ^ int(table[x >> n])) << n)
                     for x in range(1 << (2 * n))], dtype=np.int64)


def block_scan_reference(spec: CipherSpec,
                         gens: list[np.ndarray]) -> BlockScanResult:
    """The block scan with the routines above: subgroups one at a time,
    every generator checked densely."""
    n = spec.n
    sigma = gens[2]
    mask = (1 << n) - 1
    shift = apply_s(spec, 0)
    tested = refuted = 0
    candidates = []
    for row in subgroup_rows(n):
        if not 1 < size(row, n) < 4 ** n:
            continue
        tested += 1
        if probe_refutes(row, n, sigma, shift):
            refuted += 1
            continue
        left, right = member_pairs(row, n)
        image = np.sort(sigma[left | (right << n)])
        shifted = np.sort(left | (((right + shift) & mask) << n))
        if not np.array_equal(image, shifted):
            continue
        labels = coset_labels(row, n)
        certified = all(partition_invariant(labels, g) for g in gens)
        candidates.append(BlockCandidate(row, certified))
    return BlockScanResult(tested, refuted, shift, tuple(candidates))
