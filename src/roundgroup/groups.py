"""Permutation-group machinery over dense image arrays: orbits,
stabilizer chains with exactness certificates, and a large-prime-cycle
certificate.

Everything here is generic in the generators; nothing knows about the
cipher.  The stabilizer chain is the only delicate piece, so its
correctness story is spelled out:

* The chain is grown in two Monte Carlo phases.  The fill goes level
  by level from the top: a random product x of level k's generators,
  reduced by the one inverse row of x(b_k), fixes b_0..b_k, and such
  draws join level k + 1 until its orbit has every point not yet in
  the base (random Schreier generators; Seress, *Permutation Group
  Algorithms*, 2003, ch. 4).  Where level k's draws leave level k + 1
  short, x is drawn from a level further up and reduced by one row at
  each level down to k.  The random phase then sifts random products
  of the generators through the whole chain, as it would without the
  fill, and absorbs what they add; it runs only where the fill stops
  short and the caller has not proved the group no giant.  At any
  moment M = prod(basic orbit lengths) is a certified LOWER bound for
  |G|, complete chain or not: every level generator is a word in the
  generators fixing the earlier base points (a fill draw from any
  level included), so the products u_0 u_1 ... u_k of one transversal
  element per level are distinct elements of G (sifting recovers each
  u_i in turn).
* Exactness is then established one of two ways.
  (1) Certificate route: if every generator is even then G lies in the
      alternating group, so M <= |G| <= N!/2; observing M == N!/2
      forces |G| = M, and equality also forces every basic orbit to be
      the full stabilizer orbit, which makes the chain a valid strong
      generating set (membership sifting is then sound).  The same
      argument with N! certifies the symmetric group.
  (2) Deterministic route: otherwise a fresh chain is rebuilt from the
      original generators alone and completed until every Schreier
      generator of every level sifts to the identity (the classical
      strong-generation criterion), which proves M = |G| with no
      randomness in the statement.  The rebuild matters: the random
      phase leaves hundreds of redundant strong generators behind,
      and completion sifts one Schreier generator per (orbit point,
      generator) pair.  A generator joining a level sweeps its orbit
      only when it maps an orbit point outside the orbit.  The
      completion works deepest level first: after each residue found
      at level i it completes the deeper levels that residue made
      stale, then sifts level i's next Schreier generator, so no
      Schreier generator fails merely against an incomplete chain
      below it.  Level i cannot change meanwhile (residues join levels
      i + 1 and deeper), so its orbit, generators and part-reduced
      rows stay valid while it waits as a suspended step of one loop,
      never as a nested call.
  Route (1) is the cheap one: it needs no Schreier generator, so an
  alternating chain costs only its fill, plus a random phase in the
  rare case the fill stops short.  It is still bounded by the size
  caps in words.CAPS: chain degree 4,096 and transversal storage,
  which an alternating group exhausts at degree 1,024.  Route (2) covers the
  degenerate groups where no parity certificate exists.
* Two sift paths.  Scalar `sift` reduces one element per call, as the
  random phase needs.  The completion has one batched kernel,
  `_first_stall`: one flat gather per level of sift depth that moves
  some row, up to the first level where some row stalls.  A row that
  fixes a level's base point would meet the identity row there, so a
  level that moves no row costs one lookup and no gather.  Its one
  caller, `_drain`, sifts each Schreier generator once and absorbs at
  most one residue a call.
* Three shortcuts leave the chain unchanged (same base, orbits in the
  same order, same strong generators in the same order).  The random
  phase ends, or never starts, once the order is the largest the
  generators allow (N!/2 with every generator even, else N!): the
  lower bound above then makes the chain complete, so a further
  product could only sift clean, and none is sifted.  It never starts
  either when the caller proves the group no giant (`schreier_sims`'s
  not_giant): no order match can follow, and route (2)'s rebuild
  reads no rng, so the chain is the one the random phase would have
  led to.  The completion drains a level's Schreier generators in
  groups of consecutive (generator, orbit chunk) segments, split where
  a later segment stalls first, so each segment absorbs what it would
  if drained on its own.
* Storage.  A level keeps a Schreier vector: a point b = gen(a) joins
  labelled gen^-1, the generator's inverse, computed once (by
  `_alphabet` for an original generator) and shared by every level the
  generator joined.  Its inverse transversal row, the only kind of row
  sifting reads, is uinv_a after gen^-1, built with the unbuilt rows
  above it when first read (`_Level.row`): an Alt(256) chain from
  route (1) builds under a quarter of its rows.  The completion stacks
  every row (`_Level.uinvstack`), then holds each once, as a view of
  the stack, and derives forward rows only there (`_Level.ustack`).
  The transversal cap charges every orbit point, built or not.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from . import perms
from .words import check_cap

# random phase of the chain: stop after this many consecutive sifts
# that add nothing; each sifted element is a product of MIX_LENGTH
# pool elements
CLEAN_STREAK = 32
MIX_LENGTH = 16

# the fill (StabilizerChain.fill).  A draw is a product of
# FILL_WORD_LENGTH generators of the level above; a word no longer than
# that level's transversal words (about log2 of its orbit) is often its
# image's own transversal word and reduces to the identity: 6 letters
# stalled Alt(256) fills, 8 to 16 completed them, 12 covers degree
# 4,096.  A giant's level fills in two or three draws, so FILL_TRIES
# only bounds the draws a short level wastes at each level it draws
# from, before the fill goes further up or, after level 0, gives up (8
# to 24 tries filled the same Alt(256) chains)
FILL_WORD_LENGTH = 12
FILL_TRIES = 12

# letters in each random word of the giant-witness search
WITNESS_WORD_LEN = 32


# ---------------------------------------------------------------------------
# orbits


def orbit_mask(gens: list[np.ndarray], start: int) -> np.ndarray:
    """Mask of start's orbit under the permutations gens by frontier
    sweeps: an inverse is a power, so forward closure is the orbit."""
    seen = np.zeros(len(gens[0]), dtype=bool)
    frontier = np.array([start])
    while frontier.size:
        seen[frontier] = True
        images = np.concatenate([g[frontier] for g in gens])
        frontier = np.unique(images[~seen[images]])
    return seen


def _alphabet(gens: list[np.ndarray]) -> list[np.ndarray]:
    """Word letters: gens as int64 (0..k-1), then their inverses (k..2k-1)."""
    letters = [np.asarray(g, dtype=np.int64) for g in gens]
    return letters + [perms.inverse(g) for g in letters]


# ---------------------------------------------------------------------------
# stabilizer chain


class _Level:
    __slots__ = ("point", "gens", "orbit", "posidx", "via", "u", "uinv",
                 "_uinvstack")

    def __init__(self, point: int, degree: int):
        self.point = point
        self.gens: list[np.ndarray] = []
        self.orbit: list[int] = [point]
        self.posidx = np.full(degree, -1, dtype=np.int64)
        self.posidx[point] = 0
        ident = np.arange(degree, dtype=np.int64)
        # via is the Schreier vector: via[j], the inverse of the
        # generator that reached orbit[j], maps it to its parent.  uinv
        # holds one inverse row per orbit point, None until built; u
        # stacks only the forward rows ustack() has derived so far
        self.via: list[np.ndarray | None] = [None]
        self.u = ident[None]
        self.uinv: list[np.ndarray | None] = [ident]
        self._uinvstack: np.ndarray | None = None

    def row(self, j: int) -> np.ndarray:
        """Inverse row j: walk up the Schreier tree to the nearest built
        row, then gather down the path, caching every row it builds.
        A point outside the orbit (position -1) has no row: it is
        refused, not read as the last one."""
        if j < 0:
            raise IndexError(f"no inverse row at position {j}")
        uinv = self.uinv
        path = []
        while uinv[j] is None:
            path.append(j)
            j = self.posidx.item(self.via[j].item(self.orbit[j]))
        row = uinv[j]
        for j in reversed(path):
            row = uinv[j] = row[self.via[j]]
        return row

    def ustack(self) -> np.ndarray:
        """The forward rows, grown by inverting the inverse rows added
        since the last call."""
        if len(self.u) < len(self.uinv):
            fresh = perms.inverse(self.uinvstack()[len(self.u):])
            self.u = np.concatenate([self.u, fresh])
        return self.u

    def uinvstack(self) -> np.ndarray:
        """Every inverse row as one 2-D array, of which uinv then lists
        views.  Only rows added since the last stack can be unbuilt;
        they are built in orbit order, each parent before its
        children."""
        stacked = 0 if self._uinvstack is None else len(self._uinvstack)
        if stacked != len(self.uinv):
            for j in range(stacked, len(self.uinv)):
                self.row(j)
            self._uinvstack = np.stack(self.uinv)
            self.uinv = list(self._uinvstack)
        return self._uinvstack


class StabilizerChain:
    """Base / strong-generator tower; see the module docstring for the
    exactness protocol.  Build with schreier_sims(), not directly."""

    def __init__(self, degree: int):
        self.degree = degree
        self.levels: list[_Level] = []
        self.certificate = "unverified"
        self._identity = np.arange(degree, dtype=np.int64)
        # (generator, inverse) by id, the generator held so its id stays
        # its own: a residue and its inverse serve every level it joined
        self._inverses: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # inverse transversal rows, built or not, summed over the
        # levels, kept as a counter so _add_rows can check the cap as
        # they grow
        self.rows = 0
        # completion counters: Schreier generators sifted, residues
        # absorbed from them, and rows the batched kernel gathered,
        # counted at each level (times the degree: entries gathered)
        self.schreier_sifted = 0
        self.absorbed = 0
        self.gathered = 0
        # products the random phase sifted, set by schreier_sims (the
        # chain they grew may have been rebuilt since)
        self.fed = 0
        # wall seconds schreier_sims spent seeding and filling, in its
        # random phase and in the deterministic completion, for the
        # caller's timing line
        self.stage_seconds = {"fill": 0.0, "random": 0.0, "complete": 0.0}

    # -- bookkeeping

    @property
    def base(self) -> list[int]:
        return [lvl.point for lvl in self.levels]

    @property
    def strong_generators(self) -> int:
        """Distinct arrays in the levels' generator lists."""
        return len({id(g) for lvl in self.levels for g in lvl.gens})

    @property
    def order(self) -> int:
        out = 1
        for lvl in self.levels:
            out *= len(lvl.orbit)
        return out

    @property
    def built(self) -> int:
        """Inverse rows built so far, summed over the levels; `rows`
        counts every orbit point."""
        return sum(row is not None for lvl in self.levels for row in lvl.uinv)

    def _add_rows(self, count: int) -> None:
        self.rows += count
        check_cap("transversal", self.rows * self.degree)

    # -- sifting

    def sift(self, p: np.ndarray) -> tuple[np.ndarray | None, int]:
        """(None, -1) when p reduces to the identity; otherwise the
        residue and the level index where reduction stalled (equal to
        the chain length when the residue fixes the whole base)."""
        r = p
        for i, lvl in enumerate(self.levels):
            j = lvl.posidx.item(r.item(lvl.point))
            if j < 0:
                return r, i
            if j:
                r = lvl.row(j)[r]
        if (r == self._identity).all():
            return None, -1
        return r, len(self.levels)

    # -- growth

    def _inverse(self, gen: np.ndarray) -> np.ndarray:
        if id(gen) not in self._inverses:
            self._inverses[id(gen)] = (gen, perms.inverse(gen))
        return self._inverses[id(gen)][1]

    def _extend_level(self, i: int, *new_gens: np.ndarray) -> None:
        """Close level i's orbit after new_gens joined its generator list.

        First sweep the whole current orbit with each new generator in
        turn, then close over the freshly reached points with all
        generators, one round per frontier.  The walk is scalar, one
        list lookup per image, because a frontier is mostly one to
        three points.  Images and orbit membership are read from plain
        lists, cheaper than lookups in the arrays: each generator's
        images are listed once per call, when the walk first uses it,
        and membership is listed from `posidx`, which is written once,
        for every new point, when the orbit is closed (it has no other
        writer but `_Level`).  A new point records only its Schreier
        vector entry, and its inverse row waits for `_Level.row`.
        Storage is charged once per round, for every new point.
        """
        lvl = self.levels[i]
        orbit, uinv, via = lvl.orbit, lvl.uinv, lvl.via
        inside = (lvl.posidx >= 0).tolist()
        images: dict[int, list[int]] = {}
        start = head = len(orbit)
        batch, sweep = orbit[:head], new_gens
        while batch:
            for gen in sweep:
                image = images.get(id(gen))
                if image is None:
                    image = images[id(gen)] = gen.tolist()
                ginv = None
                for a in batch:
                    b = image[a]
                    if inside[b]:
                        continue
                    if ginv is None:
                        ginv = self._inverse(gen)
                    inside[b] = True
                    orbit.append(b)
                    # u_b = u_a then gen, so u_b^-1 = gen^-1 then u_a^-1,
                    # gathered by row() when first read
                    uinv.append(None)
                    via.append(ginv)
            self._add_rows(len(orbit) - head)
            batch, sweep = orbit[head:], lvl.gens
            head = len(orbit)
        lvl.posidx[orbit[start:]] = np.arange(start, len(orbit))

    def _add_generator(self, stall: int, *residues: np.ndarray,
                       floor: int = 0) -> None:
        if stall == len(self.levels):
            moved = int(np.nonzero(residues[0] != self._identity)[0][0])
            self.levels.append(_Level(moved, self.degree))
            self._add_rows(1)
        # each residue fixes base[0..stall-1], so may join any level's
        # generating set up to and including the stall level.  Fed
        # elements use floor 0; residues discovered while verifying
        # level i are already products of level-(i+1) generators, so
        # joining levels <= i could never grow an orbit and would only
        # bloat the verification work.  Each orbit is closed under its
        # level's old generators; a permutation that maps a finite orbit
        # into itself maps it onto itself, so the orbit can grow only
        # where a residue sends one of its points outside it, and
        # elsewhere the sweep would add nothing.
        for i in range(floor, stall + 1):
            self.levels[i].gens += residues
            inside = self.levels[i].posidx >= 0
            if any((inside & ~inside[r]).any() for r in residues):
                self._extend_level(i, *residues)

    def _draw(self, top: int, k: int, rng: np.random.Generator) -> np.ndarray:
        """A product x of FILL_WORD_LENGTH random generators of level
        top <= k, reduced by one inverse row at each level from top to
        k, so that it fixes b_0..b_k.  Level top's generators fix
        b_0..b_{top-1}; each reduction fixes one more base point, and
        each level it reads holds every point not yet in the base
        (fill() reaches level k only through full levels), so x(b_i)
        always has a row.  A level whose base point x fixes is passed
        over: its row 0 is the identity."""
        lvl = self.levels[top]
        word = rng.integers(0, len(lvl.gens), FILL_WORD_LENGTH)
        x = perms.compose_all([lvl.gens[i] for i in word])
        for lvl in self.levels[top:k + 1]:
            j = lvl.posidx.item(x.item(lvl.point))
            if j:
                x = lvl.row(j)[x]
        return x

    def fill(self, rng: np.random.Generator, giant: int) -> None:
        """Fill the levels below a full level 0 from the top down.

        Level k + 1 is filled from draws of level k (`_draw`), each
        fixing b_0..b_k; identity draws are dropped.  A new level opens
        at the first point the first of two draws moves and closes its
        orbit under both in one pass; later draws join one at a time
        until the orbit has all degree - k - 1 points.  A level that
        seeding left full still takes two draws: its one generator may
        be a single cycle on the orbit, whose powers leave nothing for
        the next level to draw.  The fill stops once the full levels
        reach `giant`, which leaves the random phase nothing to sift.

        When FILL_TRIES draws of level k leave level k + 1 short, the
        draws come from further up: level k - 1, then k - 3, k - 7, ...
        and last level 0, each reduced down to level k and each given
        FILL_TRIES tries.  Level k's generators may generate a proper
        subgroup of the stabilizer that is still transitive on its
        orbit, so the orbit is full but the next level stays short; a
        draw from further up is a random element of a larger
        stabilizer, and its reduction to level k skips that subgroup.
        The fill gives up, and the random phase goes on, only once
        level 0's draws too leave level k + 1 short; a group that is
        no giant always ends there.

        The fill runs only where level 0 is full, since only then can
        the chain be a giant's.  Like every chain it stops at the
        transversal cap, which `_add_rows` checks as the rows grow.
        """
        if len(self.levels[0].orbit) < self.degree:
            return
        k, order = 0, self.degree
        while order < giant:
            want = self.degree - k - 1
            draws, top, step, tries = [], k, 1, 0
            while len(draws) < 2 or len(self.levels[k + 1].orbit) < want:
                if tries == FILL_TRIES:
                    if top == 0:
                        return
                    top, step, tries = max(top - step, 0), 2 * step, 0
                tries += 1
                s = self._draw(top, k, rng)
                if (s == self._identity).all():
                    continue
                draws.append(s)
                if k + 1 < len(self.levels):
                    self._add_generator(k + 1, s, floor=k + 1)
                elif len(draws) == 2:
                    self._add_generator(k + 1, *draws, floor=k + 1)
            order *= want
            k += 1

    def feed(self, p: np.ndarray) -> bool:
        """Sift p; absorb the residue if any.  True when p was new."""
        residue, stall = self.sift(p)
        if residue is None:
            return False
        self._add_generator(stall, residue)
        return True

    # -- deterministic completion (strong-generation criterion)

    def _first_stall(self, rows: np.ndarray,
                     level: int) -> tuple[np.ndarray, int, int]:
        """Reduce a nonempty batch of permutations from `level` down,
        read-only: `rows` is never written to.  Returns (reduced, i, j):
        level i is the first where some row stalls, j the lowest such
        row, and `reduced` holds every row reduced through level i - 1.
        At the bottom i is the chain length and j the first row that is
        not the identity, or -1 when every row sifts to the identity.

        Identity rows meet position 0 at every level, so carrying them
        never changes (i, j).  A row at position 0 fixes the level's base
        point, and inverse row 0 is the identity, so gathering it leaves
        it as it is: a level where every position is 0 (no row moves,
        none stalls) is passed over with no gather.  Any other level
        tests its rows with one reduction: positions are -1 or an orbit
        index, so the first minimum is the first stalled row if any row
        stalls.  Then one flat gather takes every row r to
        uinv[pos[r]][cur[r]], and `gathered` grows by the batch size.
        Gathering the moving rows alone, into a copy of the batch, was
        slower at the batch sizes the completion makes (about 14 rows):
        the extra row indexing cost more than the identity rows it
        skipped."""
        cur = rows
        index, work = np.empty_like(rows), np.empty_like(rows)
        for i, lvl in enumerate(self.levels[level:], level):
            pos = lvl.posidx[cur[:, lvl.point]]
            if not np.count_nonzero(pos):
                continue
            j = int(pos.argmin())
            if pos[j] < 0:
                return cur, i, j
            self.gathered += len(cur)
            pos *= self.degree
            np.add(cur, pos[:, None], out=index)
            lvl.uinvstack().take(index, out=work, mode="clip")
            cur = work
        moved = (cur != self._identity).any(axis=1)
        j = int(moved.argmax())
        return cur, len(self.levels), j if moved[j] else -1

    def _drain(self, rows: np.ndarray, segs: np.ndarray, start: int,
               floor: int) -> tuple[bool, list[tuple[np.ndarray, np.ndarray,
                                                    int]]]:
        """Sift a group of rows from `start`; absorb its first failure
        if that is its first segment's.

        Row r belongs to segment segs[r]; the rows come in segment
        order, and every segment before the group's first sifts to the
        identity.  If the group's lowest stall (level i, row j) lies in
        its first segment, it is that segment's own first failure: it
        joins the chain (at `floor` discipline) as a copy, so no strong
        generator keeps the group alive.  Otherwise a segment before
        j's may still fail below level i, so the group splits there.
        Returns whether a residue joined and the parts left, in the
        order to drain them; each resumes at level i, since its partial
        reduction used only transversal entries that never change, and
        none is left once every row sifts to the identity."""
        rows, i, j = self._first_stall(rows, start)
        if j < 0:
            return False, []
        cut = int(np.searchsorted(segs, segs[j]))
        if cut:
            return False, [(rows[:cut], segs[:cut], i),
                           (rows[cut:], segs[cut:], i)]
        self._add_generator(i, rows[j].copy(), floor=floor)
        self.absorbed += 1
        if len(segs) == 1:
            return True, []
        return True, [(np.delete(rows, j, axis=0), np.delete(segs, j), i)]

    def _verify_level(self, i: int, done: tuple[int, int]) -> Iterator[bool]:
        """Sift level i's Schreier generators not covered by `done`,
        absorbing failures below level i.  Yields after each residue it
        absorbs, so the caller can complete the deeper levels before the
        next Schreier generator is sifted.

        done = (points, gens) verified in an earlier pass; transversals
        of existing orbit points never change, so a pair that sifted to
        the identity once stays reduced and only the new rectangle
        border needs checking.

        The generators come in segments, one per generator and orbit
        chunk, in a fixed order.  A segment holds the rows "u_a then g",
        which reduce to the Schreier generators at level i; no row
        stalls there, since the orbit is closed under lvl.gens.  The
        chain grows as if each segment were drained in turn, its first
        failure absorbed and its other rows sifted on.  Consecutive
        segments are stacked into groups no longer than the longest
        segment, each sifted once by `_drain`, which splits a group
        where a later segment stalls first: a border of many short
        segments costs a few sifts instead of one per segment.  Level i
        itself never changes here (residues join at floor i + 1), so its
        orbit, generators and part-reduced rows stay valid while it
        waits, holding what is left of one group.
        """
        lvl = self.levels[i]
        done_o, done_g = done
        n_o = len(lvl.orbit)
        chunk = min(n_o, max(1, (1 << 22) // self.degree))
        segments = [(g, lo) for gi, g in enumerate(lvl.gens)
                    for lo in range(0 if gi >= done_g else done_o, n_o,
                                    chunk)]
        sizes = [min(chunk, n_o - lo) for _, lo in segments]
        ustack = lvl.ustack()
        k = 0
        while k < len(segments):
            end, total = k + 1, sizes[k]
            while end < len(segments) and total + sizes[end] <= chunk:
                total += sizes[end]
                end += 1
            rows = np.concatenate([g[ustack[lo:lo + chunk]]
                                   for g, lo in segments[k:end]])
            self.schreier_sifted += total
            todo = [(rows, np.repeat(np.arange(k, end), sizes[k:end]), i)]
            k = end
            while todo:
                joined, parts = self._drain(*todo.pop(), i + 1)
                todo += reversed(parts)
                if joined:
                    yield True

    def complete(self) -> None:
        """Add Schreier-generator residues until every level passes.

        On return every Schreier generator of every level sifts to the
        identity through the deeper levels, which is the classical
        criterion for the chain to be strong; M is then exactly |G|.

        The schedule is one loop over the deepest stale level, a level
        whose orbit or generators grew since it last passed.  Verifying
        level i absorbs residues into levels i + 1 and deeper only, so
        after each residue level i waits, unchanged, as a suspended
        _verify_level step while the loop completes the deeper levels;
        each level thus sifts through a complete chain below it, and the
        stack stays flat however deeply the absorptions nest.
        """
        marks: list[tuple[int, int]] = []
        waiting: dict[int, Iterator[bool]] = {}
        while True:
            now = [(len(lvl.orbit), len(lvl.gens)) for lvl in self.levels]
            marks += [(0, 0)] * (len(now) - len(marks))
            stale = [i for i, mark in enumerate(marks) if mark != now[i]]
            if not stale:
                break
            i = stale[-1]
            steps = waiting.pop(i, None) or self._verify_level(i, marks[i])
            if next(steps, False):
                waiting[i] = steps
            else:
                marks[i] = now[i]
        self.certificate = "schreier-verified"


def schreier_sims(gens: list[np.ndarray],
                  rng: np.random.Generator | None = None,
                  not_giant: Callable[[], bool] | None = None
                  ) -> StabilizerChain:
    """Exact-order stabilizer chain for <gens>; see module docstring.

    The returned chain's .certificate names how exactness was proved:
    'alternating-order-match', 'symmetric-order-match', or
    'schreier-verified'.

    not_giant, when given, is asked only if the fill stops short of the
    giant order; True must mean the caller has proved <gens> neither
    alternating nor symmetric (a certified block system, say).  No
    order match can then follow, so the random phase is skipped and
    the chain is rebuilt and completed at once.  The rebuild reads no
    rng, so the chain is the one the random phase would have led to.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    degree = len(gens[0])
    check_cap("chain-degree", degree)
    pool = _alphabet(gens)

    def seeded() -> StabilizerChain:
        # fed the original generators, with the pool's inverses
        chain = StabilizerChain(degree)
        for g, inv in zip(pool[:len(gens)], pool[len(gens):]):
            chain._inverses[id(g)] = (g, inv)
            chain.feed(g)
        return chain

    chain = seeded()
    if not chain.levels:  # trivial group
        chain.certificate = "schreier-verified"
        return chain
    all_even = all(perms.sign(g) == 1 for g in gens)
    half = math.factorial(degree) // 2
    # the largest order <gens> can have; a chain of that order is
    # complete (module docstring), so reaching it, in the fill or by a
    # fed product, ends the random phase with nothing more sifted
    giant = half if all_even else 2 * half
    chain.fill(rng, giant)
    fill_s = time.perf_counter() - t0
    fed = clean = 0
    if chain.order < giant and not_giant is not None and not_giant():
        clean = CLEAN_STREAK  # no product could reach an order match
    while clean < CLEAN_STREAK and chain.order < giant:
        mix = rng.integers(0, len(pool), MIX_LENGTH)
        fed += 1
        if chain.feed(perms.compose_all([pool[i] for i in mix])):
            clean = 0
        else:
            clean += 1
    random_s = time.perf_counter() - t0 - fill_s
    if chain.order == 2 * half:
        chain.certificate = "symmetric-order-match"
    elif all_even and chain.order == half:
        chain.certificate = "alternating-order-match"
    else:
        # no order certificate applies: rebuild lean from the original
        # generators and verify deterministically
        chain = seeded()
        chain.complete()
    chain.fed = fed
    chain.stage_seconds = {
        "fill": fill_s, "random": random_s,
        "complete": time.perf_counter() - t0 - fill_s - random_s}
    return chain


# ---------------------------------------------------------------------------
# large-prime-cycle certificate


@dataclass(frozen=True)
class GiantWitness:
    """A word in the generator pool whose power is a p-cycle.

    For a transitive PRIMITIVE group, a cycle of prime length p with
    p <= degree-3 forces the group to contain the alternating group
    (Jordan's single-cycle criterion); with every generator even the
    group then IS the alternating group.  The witness records the word
    (its letters numbered as in `_alphabet`), the prime, how many
    trials the search used, and the lcm of the other cycle lengths.
    The p-cycle is longer than degree/2, so it is the word's one long
    cycle (two would need more than degree points), the only one a
    trial measures: `perms.long_cycle` takes it from eight fixed probe
    points, with the full cycle type as the exact fallback.  The other
    cycles are shorter, hence coprime to p, so the word's power by
    other_lcm is a bare p-cycle without a recheck.
    """

    word: tuple[int, ...]
    prime: int
    trials_used: int
    other_lcm: int

    @property
    def word_hex(self) -> str:
        return "".join(format(i, "x") for i in self.word)


def _is_prime(x: int) -> bool:
    if x < 2:
        return False
    if x < 4:
        return True
    if x % 2 == 0:
        return False
    f = 3
    while f * f <= x:
        if x % f == 0:
            return False
        f += 2
    return True


def evaluate_witness_word(gens: list[np.ndarray],
                          word: tuple[int, ...]) -> np.ndarray:
    pool = _alphabet(gens)
    return perms.compose_all([pool[i] for i in word])


def giant_witness(evaluate: Callable[[tuple[int, ...]], np.ndarray],
                  letters: int, rng: np.random.Generator, *, budget: int,
                  counters: dict[str, int] | None = None
                  ) -> GiantWitness | None:
    """Search random words for a large-prime-cycle element.

    Each trial draws WITNESS_WORD_LEN letters from range(letters) and
    maps the word to its dense permutation with `evaluate`: any
    generators, as `evaluate_witness_word` over `_alphabet`'s letters,
    or a cipher's round maps read off its S table
    (`perms.word_evaluator`).  A hit is an element whose longest cycle
    has prime length p, degree/2 < p < degree-2.  At most one cycle is
    longer than degree/2 (two would need more than degree points), so
    each trial is decided by that cycle alone: `perms.long_cycle`
    measures it exactly from eight fixed probe points, and when the
    probes leave it open the trial falls back to the full
    `perms.cycle_lengths`; neither draws from rng.  Only a hit needs
    the full cycle type: the other cycles are shorter than p and hence
    coprime to it, and other_lcm is the lcm of their lengths.  The
    number of fallbacks goes to counters["fallbacks"] when counters is
    given.  None means budget exhausted: never evidence of absence.
    """
    fallbacks = 0
    witness = None
    for trial in range(1, budget + 1):
        word = tuple(rng.integers(0, letters, WITNESS_WORD_LEN).tolist())
        w = evaluate(word)
        degree = len(w)
        lengths = None
        p = perms.long_cycle(w)
        if p is None:
            fallbacks += 1
            lengths = perms.cycle_lengths(w)
            p = int(lengths[-1])
        if degree // 2 < p < degree - 2 and _is_prime(p):
            if lengths is None:
                lengths = perms.cycle_lengths(w)
            witness = GiantWitness(word, p, trial,
                                   math.lcm(*lengths[:-1].tolist()))
            break
    if counters is not None:
        counters["fallbacks"] = fallbacks
    return witness
