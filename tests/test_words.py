"""Word arithmetic: rotation convention, modular structure, subgroups."""

import numpy as np

from roundgroup import words


def bits(value, width):
    """Bit string of the word, first coordinate = least significant."""
    return tuple(words.bit_slice(value, i, i) for i in range(width))


def multiples(q, width):
    """The subgroup <2**q> of Z/2**width, ascending."""
    return [i << q for i in range(1 << (width - q))]


def test_rotate_convention_pinned():
    # width 4: rotating by 1 moves bit 0 to bit 1, so value 1 -> 2.
    assert words.rotate_left(1, 1, 4) == 2
    # displayed first-coordinate-first, 1000 -> 0100: same statement.
    assert bits(1, 4) == (1, 0, 0, 0)
    assert bits(2, 4) == (0, 1, 0, 0)
    # on every word, rotation is the rightward shift of the bit string
    for x in range(16):
        for r in range(4):
            b = bits(x, 4)
            assert bits(words.rotate_left(x, r, 4), 4) == b[-r:] + b[:-r]


def test_rotate_is_bijective_and_composes():
    n = 6
    for r in range(n):
        images = [words.rotate_left(x, r, n) for x in range(1 << n)]
        assert sorted(images) == list(range(1 << n))
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = int(rng.integers(0, 1 << n))
        a, b = int(rng.integers(0, 8)), int(rng.integers(0, 8))
        two = words.rotate_left(words.rotate_left(x, a, n), b, n)
        assert two == words.rotate_left(x, (a + b) % n, n)
    assert words.rotate_left(5, n, n) == 5


def test_bits_round_trip():
    # single-bit slices reassemble the word; wider slices agree with them
    for x in range(1 << 5):
        assert sum(b << i for i, b in enumerate(bits(x, 5))) == x
        assert words.bit_slice(x, 1, 3) == (x >> 1) & 7


def test_hex_word_pads_to_whole_nibbles():
    # one hex digit per four bits of width, the last one partial
    for n, digits in ((2, 1), (4, 1), (5, 2), (8, 2), (9, 3), (32, 8)):
        assert words.hex_word(0, n) == "0" * digits
        assert words.hex_word(1, n) == "0" * (digits - 1) + "1"
        top = words.hex_word(words.mask(n), n)
        assert len(top) == digits and int(top, 16) == (1 << n) - 1
    assert words.hex_word(0x1a, 8) == "1a"
    assert words.hex_word(0x1a, 9) == "01a"


def test_modular_ops():
    assert words.add_mod(3, 1, 2) == 0
    assert words.neg_mod(0, 4) == 0
    for x in range(16):
        assert words.add_mod(x, words.neg_mod(x, 4), 4) == 0
        assert words.neg_mod(x, 4) == (16 - x) % 16


def test_involution_is_the_unique_order_two_element():
    for n in (2, 3, 4, 6):
        top = words.involution(n)
        assert words.add_mod(top, top, n) == 0
        order_two = [x for x in range(1, 1 << n)
                     if words.add_mod(x, x, n) == 0]
        assert order_two == [top]


def test_top_bit_translation_is_also_xor():
    # adding the order-2 element never carries: x + 2^(n-1) == x ^ 2^(n-1)
    for n in (2, 3, 5, 8):
        top = words.involution(n)
        for x in range(1 << min(n, 8)):
            assert words.add_mod(x, top, n) == x ^ top


def test_subgroup_members_and_closure():
    for n in (2, 3, 4):
        for q in range(n + 1):
            mem = multiples(q, n)
            assert len(mem) == 1 << (n - q)
            memset = set(mem)
            for a in mem:
                assert a % (1 << q) == 0  # low q bits clear
                for b in mem:
                    assert words.add_mod(a, b, n) in memset


def test_every_generated_subgroup_is_a_power_of_two_chain():
    # closure of any subset is the subgroup of the smallest 2-adic level
    n = 6
    rng = np.random.default_rng(3)
    for _ in range(40):
        size = int(rng.integers(1, 5))
        seed = [int(v) for v in rng.integers(1, 1 << n, size)]
        closure = {0}
        frontier = list(seed)
        while frontier:
            x = frontier.pop()
            if x in closure:
                continue
            closure.add(x)
            frontier.extend(words.add_mod(x, y, n) for y in list(closure))
        q = min((x & -x).bit_length() - 1 for x in seed)
        assert closure == set(multiples(q, n))


def test_endo_additive_and_automorphism_iff_odd():
    n = 5
    for z in range(1 << n):
        def endo(x):
            return (z * x) % (1 << n)
        for x in range(0, 1 << n, 3):
            for y in range(0, 1 << n, 5):
                assert endo(words.add_mod(x, y, n)) == \
                    words.add_mod(endo(x), endo(y), n)
        image = {endo(x) for x in range(1 << n)}
        assert (len(image) == 1 << n) == (z % 2 == 1)


def test_every_additive_map_is_a_multiplication():
    # 1 generates Z/2**n, so an additive map is pinned by z = f(1):
    # f(x) = f(x - 1) + f(1) for every x, which unrolls to z * x
    n = 4
    for z in range(1 << n):
        f = [0]
        for x in range(1, 1 << n):
            f.append(words.add_mod(f[-1], z, n))
        assert f == [(z * x) % (1 << n) for x in range(1 << n)]
