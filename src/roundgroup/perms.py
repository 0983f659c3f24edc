"""Dense permutations of the state set, as numpy image arrays.

A permutation of degree N is an int64 array `p` of length N holding a
rearrangement of 0..N-1; p[x] is the image of x.  Composition is in
application order: compose_all([p, q]) applies p first, matching the
postfix convention of the cipher maps.  inverse(p) also takes a 2-D
stack of permutations and inverts every row in one scatter.
cycle_reps(p), the one cycle kernel, labels each point with the least
point of its cycle; sign and cycle_lengths count those labels.
long_cycle(p), all a witness trial needs, is the length of p's one
cycle longer than N/2 (at most one fits) or 0: it measures the cycles
of eight fixed probes by baby step giant step, and returns None, for
the caller to fall back to cycle_lengths, when they neither include
that cycle nor cover N/2.

States (x1, x2) are flattened to indices x1 + 2**n * x2, so the left
word occupies the low bits.  word_evaluator is the one dense form of
the round maps: any word in them is read off the mixing-map table in
O(N) vectorized steps, its swaps by cipher.swap on the halves, and
the generators (standard_generators) are its one-letter words.

The "materialize" cap of the size-cap table (words.CAPS, 2**24
states) bounds dense materialization; callers wanting larger parameter
sets must stay with the wordwise maps in cipher, which are also the
scalar oracle the evaluator is tested against, letter by letter and
round by round.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Sequence

import numpy as np

from .cipher import CipherSpec, s_table, swap
from .words import check_cap


def compose_all(ps) -> np.ndarray:
    ps = list(ps)
    out = ps[0].copy()
    for p in ps[1:]:
        out = p[out]
    return out


def inverse(p: np.ndarray) -> np.ndarray:
    out = np.empty_like(p)
    np.put_along_axis(out, p, np.arange(p.shape[-1], dtype=p.dtype), axis=-1)
    return out


def power(p: np.ndarray, e: int) -> np.ndarray:
    """p**e by binary exponentiation; e may be a huge python int."""
    if e < 0:
        return power(inverse(p), -e)
    out = np.arange(len(p), dtype=np.int64)
    while e:
        if e & 1:
            out = p[out]
        p = p[p]
        e >>= 1
    return out


def cycle_reps(p: np.ndarray) -> np.ndarray:
    """Least point of each point's cycle (of its path, for any map).

    Round k makes m[i] the least of the first 2**k points on i's path.
    These windows tile the path, so a round that changes no label
    (round ceil(log2 L) + 1 at the latest, for a longest path L) shows
    m[i] <= m[p**(2**k)(i)] everywhere: every label is the path
    minimum.  N-point windows cover every path, so ceil(log2 N) rounds
    always suffice."""
    degree = len(p)
    m = np.arange(degree, dtype=p.dtype)
    q = p
    for _ in range((degree - 1).bit_length()):
        ahead = m[q]
        if (ahead >= m).all():
            break
        np.minimum(m, ahead, out=m)
        del ahead
        q = q[q]
    return m


def cycle_lengths(p: np.ndarray) -> np.ndarray:
    """Sorted cycle lengths (with multiplicity), vectorized."""
    counts = np.bincount(cycle_reps(p))
    return np.sort(counts[counts > 0])


def long_cycle(p: np.ndarray) -> int | None:
    """Length of p's one cycle longer than N/2, 0 if there is none, or
    None if the probes leave it open.

    Two such cycles would need more than N points, so there is at most
    one.  Eight probes, the points i*N//8, are measured exactly by baby
    step giant step: with s = floor(bits(N-1) / 2) and m = 2**s, the s
    squarings that give q = p**m also give each probe's baby window
    x, p(x), ..., p**(m-1)(x).  A cycle of length L < m shows x again
    at step L of its window; otherwise the first q**j(x) back in the
    window, at slot i, gives L = j*m - i.  A probe in a measured
    cycle's window is skipped, and so is one whose giant walk meets
    such a window (the walk meets any m consecutive points of its own
    cycle no later than its own window).  A measured cycle longer than
    N/2 is the answer; measured cycles covering at least N/2 points
    leave room for none, so the answer is 0.  When the probes decide
    neither, the exact answer needs the full cycle_lengths, which the
    caller runs (and may reuse)."""
    degree = len(p)
    s = (degree - 1).bit_length() // 2
    step = 1 << s
    windows = (np.arange(8, dtype=p.dtype) * degree // 8)[:, None]
    q = p
    for _ in range(s):
        windows = np.concatenate([windows, q[windows]], axis=1)
        q = q[q]
    giant = q.item
    measured = set()  # the window points of every measured cycle
    covered = 0
    for window in windows:
        x = window.item(0)
        if x in measured:
            continue
        row = window.tolist()
        slot = dict(zip(row, range(step)))
        if len(slot) < step:
            length = row.index(x, 1)
        else:
            j, y = 1, giant(x)
            while y not in measured and y not in slot:
                j, y = j + 1, giant(y)
            if y in measured:
                continue
            length = j * step - slot[y]
        if 2 * length > degree:
            return length
        covered += length
        if 2 * covered >= degree:
            return 0
        measured.update(slot)
    return None


def cycle_lengths_walk(p: np.ndarray) -> list[int]:
    """Cycle lengths by explicit orbit walking.

    Deliberately independent of cycle_reps: the two routes cross-check
    each other in the tests.
    """
    n = len(p)
    images = p.tolist()
    visited = bytearray(n)
    out = []
    for i in range(n):
        if visited[i]:
            continue
        length = 0
        j = i
        while not visited[j]:
            visited[j] = 1
            j = images[j]
            length += 1
        out.append(length)
    out.sort()
    return out


def sign(p: np.ndarray) -> int:
    """+1 for even permutations: parity of (degree - cycle count)."""
    ncycles = np.count_nonzero(cycle_reps(p) == np.arange(len(p)))
    return 1 if (len(p) - ncycles) % 2 == 0 else -1


# ---------------------------------------------------------------------------
# materializing the cipher maps

# The letters of a word in the standard generators, numbered as
# groups._alphabet numbers them: rho(1,0), rho(0,1), sigma, then their
# inverses.  Letter i moves the translation offsets by
# (STEP_1[i], STEP_2[i]); the two swap letters move them by nothing.
SIGMA, SIGMA_INVERSE = 2, 5
STEP_1 = (1, 0, 0, -1, 0, 0)
STEP_2 = (0, 1, 0, 0, -1, 0)
LETTERS = 6

# states carried through a word's swaps at a time, so that the halves
# and their temporaries stay in cache
EVAL_CHUNK = 1 << 16


def word_evaluator(spec: CipherSpec) -> Callable[[Sequence[int]], np.ndarray]:
    """word -> its dense permutation (letters applied first to last),
    equal to applying the scalar maps cipher.rho_apply, sigma_apply and
    sigma_inverse_apply letter by letter, read off 2**n-entry tables
    alone.  It is the one dense form of the round maps.

    A state is held as its halves (L, H) plus pending translation
    offsets (a, b): it is (L + a, H + b) mod 2**n.  A translation letter
    only moves the offsets, so a run of them costs nothing.  sigma sends
    the state to (H, (L + a) ^ S'(H)) with offsets (b, 0), where
    S'(h) = S(h + b); sigma^-1 sends it to ((H + b) ^ S''(L), L) with
    offsets (0, a), where S''(l) = S(l + a).  So either swap is
    cipher.swap on a shifted S table, its outputs exchanged for
    sigma^-1, after a lookup into a shifted identity when the other
    half has an offset; each shifted table is built once per offset.
    (At small degrees a lookup costs less than numpy's add and mask
    with a scalar; at large ones about as much.)
    sigma next to sigma^-1 with no net translation between them
    cancels before anything is computed.  Every state runs the same
    swaps, EVAL_CHUNK states at a time, and the state array is
    assembled once, after the last swap."""
    check_cap("materialize", spec.degree)
    n, degree = spec.n, spec.degree
    mask = (1 << n) - 1
    identity = np.arange(mask + 1, dtype=np.int64)
    shifted_s = _shifts(s_table(spec))
    shifted_low = _shifts(identity)
    shifted_high = _shifts(identity << n)
    # whole fibres of 2**n states, so every chunk has the same low half
    x = np.arange(min(max(EVAL_CHUNK, mask + 1), degree), dtype=np.int64)
    low, high = x & mask, x >> n

    def swaps(word: Sequence[int]):
        """The swap letters left after cancellation, each as (forward,
        its S lookup, the other half's translation lookup or None),
        and the offsets pending at the end."""
        kept = []  # (swap letter, offsets moved since the kept one before)
        a = b = 0
        for letter in word:
            if letter != SIGMA and letter != SIGMA_INVERSE:
                a += STEP_1[letter]
                b += STEP_2[letter]
            elif (kept and kept[-1][0] != letter
                    and not a & mask and not b & mask):
                _, a, b = kept.pop()
            else:
                kept.append((letter, a, b))
                a = b = 0
        steps = []
        pa = pb = 0  # the offsets pending before each kept swap
        for letter, da, db in kept:
            pa, pb = (pa + da) & mask, (pb + db) & mask
            if letter == SIGMA:
                steps.append((True, shifted_s(pb),
                              shifted_low(pa) if pa else None))
                pa, pb = pb, 0
            else:
                steps.append((False, shifted_s(pa),
                              shifted_low(pb) if pb else None))
                pa, pb = 0, pa
        return steps, (pa + a) & mask, (pb + b) & mask

    def evaluate(word: Sequence[int]) -> np.ndarray:
        steps, a, b = swaps(word)
        out = np.empty(degree, dtype=np.int64)
        for start in range(0, degree, len(x)):
            lo, hi = low, high + (start >> n) if start else high
            for forward, s, plus in steps:
                read, other = (hi, lo) if forward else (lo, hi)
                halves = swap(s, other if plus is None else plus[other], read)
                lo, hi = halves if forward else halves[::-1]
            out[start:start + len(x)] = (shifted_high(b)[hi]
                                         | shifted_low(a)[lo])
        return out

    return evaluate


def standard_generators(spec: CipherSpec) -> list[np.ndarray]:
    """The three generators of the round group: rho(1,0), rho(0,1), sigma,
    as the one-letter words 0, 1 and SIGMA of word_evaluator.

    Every generalized round is a product of these with their inverses,
    and conversely, so they generate the whole group under study.
    """
    evaluate = word_evaluator(spec)
    return [evaluate((0,)), evaluate((1,)), evaluate((SIGMA,))]


def _shifts(base: np.ndarray) -> Callable[[int], np.ndarray]:
    """k -> base shifted by k, 0 <= k < len(base): entry h is
    base[(h + k) mod len(base)].  Each shift is built once."""
    return functools.cache(lambda k: np.concatenate((base[k:], base[:k])))
