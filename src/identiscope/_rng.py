"""Deterministic random residues.

Every random draw in the analysis engines is derived from a context tag
(seed, trial, attempt, symbol name, ...) through a keyed hash, never from
Python's process-randomized ``hash``.  This makes reports byte-reproducible
across processes and platforms for a fixed seed.
"""

from __future__ import annotations

from _random import Random
from hashlib import blake2b


def _seed_int(parts) -> int:
    tag = "\x1f".join(map(str, parts)).encode()
    return int.from_bytes(blake2b(tag, digest_size=8).digest(), "big")


def residue(parts, p: int) -> int:
    """Uniform residue in [1, p-1] determined entirely by ``parts``.

    It is ``random.Random(seed).randrange(1, p)``, drawn from the C Mersenne
    Twister under ``random.Random`` by randrange's own rejection loop, which
    skips the Python layers of seeding and of randrange.
    """
    mt = Random(_seed_int(parts))
    n = p - 1
    k = n.bit_length()
    r = mt.getrandbits(k)
    while r >= n:
        r = mt.getrandbits(k)
    return 1 + r
