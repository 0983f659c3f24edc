"""Dense permutation arrays: algebra, cycle labels and orbits, and
the word evaluator against the scalar cipher maps."""

from pathlib import Path

import numpy as np

from roundgroup import cipher, groups, perms
from roundgroup.cipher import CipherSpec

SPECS = Path(__file__).resolve().parent.parent / "specs"


def seeded_spec(n, m, r, seed, bijective=True):
    rng = np.random.default_rng(seed)
    return cipher.random_spec(m, n // m, r, rng, bijective)


def random_perm(n, rng):
    return rng.permutation(n).astype(np.int64)


def is_perm(p):
    return sorted(p.tolist()) == list(range(len(p)))


def state(idx, n):
    """The state (x1, x2) at dense index x1 + 2**n * x2."""
    return idx & ((1 << n) - 1), idx >> n


def index(st, n):
    return st[0] | (st[1] << n)


def scalar_letters(spec):
    """The six letters as the scalar maps of cipher, numbered as perms
    numbers them: rho(1,0), rho(0,1), sigma, then their inverses."""
    n, minus_one = spec.n, (1 << spec.n) - 1
    return [lambda st: cipher.rho_apply((1, 0), st, n),
            lambda st: cipher.rho_apply((0, 1), st, n),
            lambda st: cipher.sigma_apply(spec, st),
            lambda st: cipher.rho_apply((minus_one, 0), st, n),
            lambda st: cipher.rho_apply((0, minus_one), st, n),
            lambda st: cipher.sigma_inverse_apply(spec, st)]


def scalar_table(spec, apply, points=None):
    """The images of a scalar map on states, one state at a time, at
    the given dense indices (every state by default)."""
    points = range(spec.degree) if points is None else points
    return [index(apply(state(idx, spec.n)), spec.n) for idx in points]


def round_word(k, h):
    """rho(k), then sigma, then rho(h), as a word in the letters."""
    return ((0,) * k[0] + (1,) * k[1] + (perms.SIGMA,)
            + (0,) * h[0] + (1,) * h[1])


def test_compose_inverse_power():
    rng = np.random.default_rng(5)
    p = random_perm(40, rng)
    q = random_perm(40, rng)
    x = 17
    assert perms.compose_all([p, q])[x] == q[p[x]]
    assert np.array_equal(perms.compose_all([p, perms.inverse(p)]),
                          np.arange(40))
    assert np.array_equal(perms.power(p, 0), np.arange(40))
    assert np.array_equal(perms.power(p, 5),
                          perms.compose_all([p, p, p, p, p]))
    assert np.array_equal(perms.power(p, -2),
                          perms.inverse(perms.power(p, 2)))


def test_sign_basics():
    ident = np.arange(6)
    assert perms.sign(ident) == 1
    swap = ident.copy()
    swap[[0, 1]] = [1, 0]
    assert perms.sign(swap) == -1
    three = np.array([1, 2, 0, 3])
    assert perms.sign(three) == 1


def test_sign_multiplicative():
    rng = np.random.default_rng(8)
    for _ in range(20):
        p, q = random_perm(30, rng), random_perm(30, rng)
        assert perms.sign(perms.compose_all([p, q])) == \
            perms.sign(p) * perms.sign(q)


def test_cycle_scans_agree():
    rng = np.random.default_rng(11)
    for n in (1, 2, 17, 100, 1024):
        for _ in range(5):
            p = random_perm(n, rng)
            fast = perms.cycle_lengths(p).tolist()
            slow = perms.cycle_lengths_walk(p)
            assert fast == slow
            assert sum(fast) == n


def expected_long_cycle(p):
    longest = perms.cycle_lengths_walk(p)[-1]
    return longest if 2 * longest > len(p) else 0


def from_cycles(degree, cycles):
    p = np.arange(degree, dtype=np.int64)
    for cycle in cycles:
        p[cycle] = np.roll(cycle, -1)
    return p


def counting_cycle_lengths(monkeypatch):
    calls = []
    plain = perms.cycle_lengths

    def counted(p):
        calls.append(len(p))
        return plain(p)

    monkeypatch.setattr(perms, "cycle_lengths", counted)
    return calls


def test_long_cycle_matches_walk_on_random_perms():
    # None leaves the trial to the exact fallback; an answer is exact
    rng = np.random.default_rng(13)
    decided = 0
    for n in (1, 2, 3, 4, 5, 7, 8, 9, 17, 63, 100, 255, 256, 1000, 1024):
        for _ in range(30):
            p = random_perm(n, rng)
            got = perms.long_cycle(p)
            assert got in (None, expected_long_cycle(p)), n
            decided += got is not None
    assert decided >= 0.9 * 15 * 30


def test_long_cycle_on_built_perms(monkeypatch):
    calls = counting_cycle_lengths(monkeypatch)
    for n in (64, 100, 256):
        half = n // 2
        probes = [i * n // 8 for i in range(8)]
        rest = [x for x in range(n) if x not in probes]
        prime = next(q for q in range(n - 3, half, -1)
                     if all(q % f for f in range(2, q)))
        # decided by the probes: no fallback
        cases = [
            (from_cycles(n, [list(range(n))]), n),
            (from_cycles(n, [list(range(prime))]), prime),
            (from_cycles(n, [list(range(half)), list(range(half, n))]), 0),
            (from_cycles(n, [list(range(n - half - 1, n))]), half + 1),
        ]
        for p, expected in cases:
            assert perms.long_cycle(p) == expected == expected_long_cycle(p)
        # the probes decide nothing, leaving the exact answer to the
        # caller's fallback: the identity (8 fixed probes), a long cycle
        # through every point but the probes, a 7-cycle of probes or a
        # 20-cycle through three (1 and 10 steps apart) beside a long
        # cycle, and 2-cycles pairing each probe with its successor (16
        # probed points) beside a long or a short rest; counting a
        # cycle once per probe on it would rule the long cycle out
        shared = [probes[0], probes[1]] + rest[:8] + [probes[2]] + rest[8:17]
        pairs = [[x, x + 1] for x in probes]
        others = [x for x in range(n) if x not in sum(pairs, [])]
        fallbacks = [
            (np.arange(n, dtype=np.int64), 0),
            (from_cycles(n, [rest]), n - 8),
            (from_cycles(n, [probes[:7], rest]), n - 8),
            (from_cycles(n, [shared, rest[17:]]), n - 8 - 17),
            (from_cycles(n, pairs), 0),
            (from_cycles(n, pairs + [others]), n - 16),
            (from_cycles(n, pairs + [others[:half - 16],
                                     others[half - 16:]]), 0),
        ]
        for p, expected in fallbacks:
            assert perms.long_cycle(p) is None
            assert expected == expected_long_cycle(p)
        assert calls == []


def test_cycle_reps_label_cycles():
    p = np.array([1, 0, 3, 4, 2, 5])
    reps = perms.cycle_reps(p)
    assert reps.tolist() == [0, 0, 2, 2, 2, 5]


def letter_specs():
    """Per width n = 2..6: a conforming spec, r = 0, a seeded lossy box
    and an all-zero box."""
    out = []
    for n in range(2, 7):
        m = 2 if n % 2 == 0 and n > 2 else 1
        zero = ((0,) * (1 << m),) * (n // m)
        out += [seeded_spec(n, m, m, n), seeded_spec(n, m, 0, n),
                seeded_spec(n, m, m, n, bijective=False),
                CipherSpec(n, m, n // m, 1, zero)]
    return out


def test_sigma_perm_matches_wordwise():
    # the letters sigma and sigma^-1 on every state
    for spec in letter_specs():
        evaluate = perms.word_evaluator(spec)
        apply = scalar_letters(spec)
        for letter in (perms.SIGMA, perms.SIGMA_INVERSE):
            assert evaluate((letter,)).tolist() == \
                scalar_table(spec, apply[letter]), (spec, letter)


def test_rho_perm_matches_wordwise():
    # the four translation letters on every state, and rho(k) for
    # sampled k written as a word in rho(1,0) and rho(0,1)
    for spec in letter_specs():
        evaluate = perms.word_evaluator(spec)
        apply = scalar_letters(spec)
        for letter in (0, 1, 3, 4):
            assert evaluate((letter,)).tolist() == \
                scalar_table(spec, apply[letter]), (spec, letter)
    n = 4
    evaluate = perms.word_evaluator(seeded_spec(n, 2, 2, seed=2))
    rng = np.random.default_rng(2)
    for _ in range(5):
        k = tuple(rng.integers(0, 16, 2).tolist())
        table = evaluate((0,) * k[0] + (1,) * k[1])
        assert is_perm(table)
        assert table.tolist() == [
            index(cipher.rho_apply(k, state(idx, n), n), n)
            for idx in range(256)]


def test_keyed_round_perms_match_wordwise():
    # rho(k) sigma rho(h) as evaluator words against the scalar rounds;
    # a keyed round is the instance k = (0, key), h = (-key, 0), written
    # here with the inverse letter rho(1,0)^-1 key times
    rng = np.random.default_rng(3)
    for spec in (seeded_spec(4, 2, 3, seed=9), seeded_spec(4, 2, 0, seed=9),
                 seeded_spec(4, 2, 2, seed=9, bijective=False)):
        evaluate = perms.word_evaluator(spec)
        for _ in range(5):
            key = int(rng.integers(0, 16))
            word = (1,) * key + (perms.SIGMA,) + (3,) * key
            assert evaluate(word).tolist() == scalar_table(
                spec, lambda st: cipher.gost_round(spec, key, st))
        for _ in range(5):
            k = tuple(rng.integers(0, 16, 2).tolist())
            h = tuple(rng.integers(0, 16, 2).tolist())
            assert evaluate(round_word(k, h)).tolist() == scalar_table(
                spec, lambda st: cipher.generalized_round(spec, k, h, st))


def test_round_decomposition_as_tables():
    # keyed round = rho((0,k)) sigma rho((-k,0)) as an evaluator word,
    # on sampled states of an n=8 spec
    spec = seeded_spec(8, 2, 4, seed=21)
    evaluate = perms.word_evaluator(spec)
    rng = np.random.default_rng(21)
    for k in (0, 1, 77, 200, 255):
        table = evaluate(round_word((0, k), ((-k) % 256, 0)))
        assert is_perm(table)
        points = rng.integers(0, spec.degree, 500).tolist()
        assert table[points].tolist() == scalar_table(
            spec, lambda st: cipher.gost_round(spec, k, st), points)


def test_standard_generators():
    # the evaluator's letters 0, 1 and sigma
    for spec in letter_specs():
        evaluate = perms.word_evaluator(spec)
        assert [g.tolist() for g in perms.standard_generators(spec)] == [
            evaluate((letter,)).tolist() for letter in (0, 1, perms.SIGMA)]


def test_translation_generator_cycle_structure():
    # each one-sided unit translation is 2^n cycles of length 2^n
    for spec in letter_specs():
        side = 1 << spec.n
        for g in perms.standard_generators(spec)[:2]:
            assert perms.cycle_lengths(g).tolist() == [side] * side


def test_generator_parity_even():
    # translations: 2^n cycles of even length 2^n -> even (n > 1).
    # the swap map: even for any table, bijective or not.
    for spec in letter_specs():
        assert [perms.sign(g) for g in perms.standard_generators(spec)] \
            == [1, 1, 1]


def evaluator_specs():
    """Per width n = 2..8: a conforming spec, r = 0, a rotation outside
    the conforming range (m = n leaves none inside), an all-zero box
    and a seeded lossy box; at n = 7 and 8, where 200 dense words cost
    most (about 1.5 s per n=8 spec), two and one of them."""
    out = []
    for n in range(2, 9):
        m = 2 if n % 2 == 0 and n > 2 else 1
        zero = ((0,) * (1 << m),) * (n // m)
        kinds = {"conforming": seeded_spec(n, m, m, n),
                 "r=0": seeded_spec(n, m, 0, n),
                 "non-conforming": seeded_spec(n, n, 1, n),
                 "zero box": CipherSpec(n, m, n // m, 1, zero),
                 "lossy": seeded_spec(n, m, m, n, bijective=False)}
        keep = {7: ("non-conforming", "zero box"),
                8: ("lossy",)}.get(n, kinds)
        out += [(f"n={n} {kind}", kinds[kind]) for kind in keep]
    return out


def test_word_evaluator_matches_dense_words(monkeypatch):
    """The S-table evaluator equals composing its own one-letter words
    (the standard generators, checked against the scalar maps above)
    on every letter, every letter pair and 200 random 32-letter words;
    so does one run a fibre of 2**n states at a time, on every eighth
    word, as the evaluator runs its chunks past n=8."""
    cases = evaluator_specs()
    assert {(s.conforming, s.bijective, s.r == 0) for _, s in cases} >= {
        (True, True, False), (False, True, True), (False, True, False),
        (True, False, False)}
    letters = range(perms.LETTERS)
    for label, spec in cases:
        gens = perms.standard_generators(spec)
        evaluate = perms.word_evaluator(spec)
        with monkeypatch.context() as patch:
            patch.setattr(perms, "EVAL_CHUNK", 1)
            by_fibre = perms.word_evaluator(spec)
        rng = np.random.default_rng(spec.n)
        words = ([(a,) for a in letters]
                 + [(a, b) for a in letters for b in letters]
                 + [tuple(rng.integers(0, perms.LETTERS, 32).tolist())
                    for _ in range(200)])
        for i, word in enumerate(words):
            dense = groups.evaluate_witness_word(gens, word)
            assert np.array_equal(evaluate(word), dense), (label, word)
            if i % 8 == 0:
                assert np.array_equal(by_fibre(word), dense), (label, word)


# ---------------------------------------------------------------------------
# cycles and orbits: against a forward-closure search and the replaced
# code


def closure(maps, start):
    """Mask of the points reachable from start under maps, by plain
    search."""
    images = [np.asarray(g).tolist() for g in maps]
    seen, todo = [False] * len(images[0]), [start]
    seen[start] = True
    while todo:
        x = todo.pop()
        for g in images:
            y = g[x]
            if not seen[y]:
                seen[y] = True
                todo.append(y)
    return seen


def test_cycle_reps_fuzz_against_closure():
    # one map, lossy ones included: the least point on each point's path
    rng = np.random.default_rng(20261018)
    lossy = 0
    for _ in range(5000):
        degree = int(rng.integers(1, 12))
        p = (rng.permutation(degree) if rng.random() < 0.5
             else rng.integers(0, degree, degree))
        lossy += not is_perm(p)
        assert perms.cycle_reps(p).tolist() == [
            closure([p], i).index(True) for i in range(degree)]
    assert 1500 < lossy < 5000


def test_orbit_mask_fuzz_against_closure():
    rng = np.random.default_rng(20261019)
    for _ in range(5000):
        degree = int(rng.integers(1, 12))
        gens = [rng.permutation(degree)
                for _ in range(int(rng.integers(1, 4)))]
        start = int(rng.integers(0, degree))
        assert groups.orbit_mask(gens, start).tolist() == \
            closure(gens, start)
    # two involutions on a randomly labelled path of 4,096 points: a
    # dihedral orbit that no single generator's powers shorten
    path = rng.permutation(4096)
    gens = []
    for first in (0, 1):
        g = np.arange(4096)
        g[path[first:-1:2]], g[path[first + 1::2]] = \
            path[first + 1::2], path[first:-1:2]
        gens.append(g)
    assert groups.orbit_mask(gens, int(path[1000])).all()


def doubling_reps(p):
    """The replaced cycle_reps: ceil(log2 N) rounds, no early stop."""
    n = len(p)
    m = np.arange(n, dtype=p.dtype)
    q = p.copy()
    span = 1
    while span < n:
        m = np.minimum(m, m[q])
        q = q[q]
        span <<= 1
    return m


def unique_cycle_lengths(p):
    _, counts = np.unique(doubling_reps(p), return_counts=True)
    counts.sort()
    return counts


def unique_sign(p):
    ncycles = len(np.unique(doubling_reps(p)))
    return 1 if (len(p) - ncycles) % 2 == 0 else -1


def oracle_specs():
    specs = [cipher.load_spec(path) for path in sorted(SPECS.glob("*.json"))]
    specs = [s for s in specs if s.n <= 8]
    assert len(specs) == 4
    for seed in range(2):
        specs += [seeded_spec(4, 2, 2, seed),           # conforming
                  seeded_spec(6, 2, 3, seed),
                  seeded_spec(6, 3, 3, seed),
                  seeded_spec(4, 2, 0, seed),           # r = 0
                  seeded_spec(6, 3, 0, seed),
                  seeded_spec(6, 2, 1, seed),           # non-conforming
                  seeded_spec(4, 2, 1, seed),
                  seeded_spec(4, 2, 2, seed, False),    # lossy
                  seeded_spec(6, 2, 3, seed, False)]
    assert {(s.conforming, s.bijective, s.r == 0) for s in specs} >= {
        (True, True, False), (False, True, True), (False, True, False),
        (True, False, False)}
    return specs


def test_components_match_replaced_code_on_specs():
    rng = np.random.default_rng(44)
    for spec in oracle_specs():
        gens = perms.standard_generators(spec)
        words = [groups.evaluate_witness_word(
            gens, tuple(rng.integers(0, 6, 32).tolist())) for _ in range(3)]
        for p in gens + words:
            assert np.array_equal(perms.cycle_reps(p), doubling_reps(p))
            assert perms.sign(p) == unique_sign(p)
            assert np.array_equal(perms.cycle_lengths(p),
                                  unique_cycle_lengths(p))
        for subset in (gens, gens[2:], gens[::2], words[:1], words[1:]):
            for start in (0, int(rng.integers(0, spec.degree))):
                assert groups.orbit_mask(subset, start).tolist() == \
                    closure(subset, start)
