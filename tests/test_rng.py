import random

import pytest

from identiscope import _rng


@pytest.mark.parametrize("p", [2, 3, 101, 2**31 - 1, 3037000493])
def test_residue_is_randrange_of_the_seeded_generator(p):
    # The reference is the draw that residue stands for, through Python's
    # own seeding and randrange.
    for i in range(300):
        parts = ("tag", i, i % 7, "x" * (i % 3))
        want = random.Random(_rng._seed_int(parts)).randrange(1, p)
        assert _rng.residue(parts, p) == want
