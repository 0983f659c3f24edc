"""Canary for numpy's random stream.

Every seeded choice in roundgroup goes through
`np.random.default_rng(seed)`: `integers` draws the fill's words
(`groups.FILL_WORD_LENGTH` letters), the random phase's products
(`groups.MIX_LENGTH`) and the witness words (`groups.WITNESS_WORD_LEN`),
and `permutation` and `integers` draw the seeded S-boxes
(`cipher.random_sboxes`).  numpy gives no compatibility guarantee for
`Generator`'s bit stream, so an upgrade could change pinned witnesses,
chain counters, spec digests and goldens at once.  These pins fail
first, and say why.
"""

import numpy as np
import pytest

from roundgroup import groups

# (seed, letters, length) -> the first draws of integers(0, letters, length)
WORDS = {
    (0, 6, 12): [5, 3, 3, 1, 1, 0, 0, 0, 1, 4, 3, 5],
    (7, 2, 12): [1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 1],
    (0, 6, 16): [5, 3, 3, 1, 1, 0, 0, 0, 1, 4, 3, 5, 3, 3, 5, 4],
    (7, 6, 16): [5, 3, 4, 5, 3, 4, 5, 1, 0, 1, 1, 5, 5, 0, 2, 4],
    (0, 6, 32): [5, 3, 3, 1, 1, 0, 0, 0, 1, 4, 3, 5, 3, 3, 5, 4,
                 3, 3, 3, 5, 1, 4, 4, 0, 2, 5, 3, 0, 4, 4, 5, 1],
    (7, 6, 32): [5, 3, 4, 5, 3, 4, 5, 1, 0, 1, 1, 5, 5, 0, 2, 4,
                 0, 4, 0, 2, 4, 1, 2, 1, 4, 1, 5, 2, 2, 3, 3, 3],
}

# (seed, m) -> permutation(2**m), one seeded bijective S-box
BOXES = {
    (0, 2): [2, 0, 1, 3],
    (7, 2): [0, 2, 1, 3],
    (0, 3): [2, 4, 3, 6, 5, 0, 1, 7],
    (7, 4): [3, 10, 6, 8, 1, 14, 0, 7, 4, 13, 15, 2, 12, 5, 9, 11],
}

# (seed, m) -> integers(0, 2**m, 2**m), one seeded lossy S-box
LOSSY = {
    (0, 2): [3, 2, 2, 1],
    (5, 4): [10, 12, 0, 12, 7, 8, 10, 4, 15, 0, 4, 6, 9, 6, 2, 0],
}

STREAM_CHANGED = (f"numpy's default_rng stream changed (numpy "
                  f"{np.__version__}): seeded words, S-boxes, witnesses "
                  f"and goldens move with it")


def test_word_lengths_are_the_pinned_ones():
    assert {length for _, _, length in WORDS} == {
        groups.FILL_WORD_LENGTH, groups.MIX_LENGTH, groups.WITNESS_WORD_LEN}


@pytest.mark.parametrize("key", sorted(WORDS))
def test_integer_words_are_pinned(key):
    seed, letters, length = key
    drawn = np.random.default_rng(seed).integers(0, letters, length)
    assert drawn.tolist() == WORDS[key], STREAM_CHANGED


@pytest.mark.parametrize("key", sorted(BOXES))
def test_permutations_are_pinned(key):
    seed, m = key
    drawn = np.random.default_rng(seed).permutation(1 << m)
    assert drawn.tolist() == BOXES[key], STREAM_CHANGED


@pytest.mark.parametrize("key", sorted(LOSSY))
def test_lossy_boxes_are_pinned(key):
    seed, m = key
    drawn = np.random.default_rng(seed).integers(0, 1 << m, 1 << m)
    assert drawn.tolist() == LOSSY[key], STREAM_CHANGED
