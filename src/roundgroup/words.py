"""Fixed-width binary words and the two group structures on them.

Conventions, fixed once and used everywhere in this package:

* A word of width n is an int in [0, 2**n).  Bit i is the coefficient of
  2**i, so bit 0 is the least significant bit and the word read as a
  bit string (a_0, a_1, ..., a_{n-1}) has its first coordinate at the
  low end of the integer.
* "rotation by r" moves bit i to bit (i + r) mod n, i.e. it is a left
  rotate of the integer toward the most significant bit.  On the
  first-coordinate-first string display this is the usual rightward
  circular shift.  Example, n = 4, r = 1: value 1 (string 1000)
  becomes value 2 (string 0100).
* xor is the vector-space addition of GF(2)^n; modular addition is the
  cyclic group Z/2**n.  Both are needed side by side, so xor stays the
  ^ operator and the modular operations get explicit names.

The cyclic group facts used downstream: every subgroup of Z/2**n is
one of the n+1 nested subgroups generated by a power of two, every
endomorphism is multiplication by a constant (a bijection iff the
constant is odd), and the unique element of order 2 is 2**(n-1).
"""

from __future__ import annotations

# Every size cap, by name: the largest size that check_cap lets through.
CAPS = {
    "width": 64,              # bits in a word, for every spec
    "table": 1 << 24,         # words in the S table (cipher.s_table)
    "materialize": 1 << 24,   # states of a dense permutation (perms)
    "chain-degree": 1 << 12,  # degree of a stabilizer chain (groups)
    "transversal": 1 << 26,   # inverse row entries a chain may build, 512 MB
    "goursat-width": 16,      # word width of subgroup enumeration
}


def _size(value: int) -> str:
    k = value.bit_length() - 1
    return f"2^{k}" if value == 1 << k and k > 8 else str(value)


def check_cap(name: str, size: int) -> None:
    """Raise the one-line error naming the cap when size is past it."""
    if size > CAPS[name]:
        raise ValueError(f"size {_size(size)} exceeds the {name} cap "
                         f"{_size(CAPS[name])}")


def check_width(width: int) -> None:
    if width < 2:
        raise ValueError(f"width must be at least 2, got {width}")
    check_cap("width", width)


def mask(width: int) -> int:
    return (1 << width) - 1


def add_mod(a: int, b: int, width: int) -> int:
    """Addition in Z/2**width (the boxed-plus operation)."""
    return (a + b) & mask(width)


def neg_mod(a: int, width: int) -> int:
    """Additive inverse in Z/2**width."""
    return (-a) & mask(width)


def rotate_left(value: int, r: int, width: int) -> int:
    """Rotate bit i to bit (i + r) mod width.

    This is the package's only rotation; see the module docstring for
    why it matches the rightward shift on displayed bit strings.  It
    applies elementwise to an int64 array of words (cipher.s_table).
    """
    r %= width
    m = mask(width)
    return ((value << r) | (value >> (width - r))) & m


def hex_word(value: int, width: int) -> str:
    """The word in hex, zero-padded to the digits of its width."""
    return format(value, f"0{(width + 3) // 4}x")


def involution(width: int) -> int:
    """The unique element of order 2 in Z/2**width: the top bit."""
    return 1 << (width - 1)


def bit_slice(value: int, lo: int, hi: int) -> int:
    """Bits lo..hi of value, inclusive on both ends, as a small int."""
    if not 0 <= lo <= hi:
        raise ValueError(f"bad slice [{lo}, {hi}]")
    return (value >> lo) & ((1 << (hi - lo + 1)) - 1)
