"""Deterministic random residues.

Every random draw in the analysis engines is derived from a context tag
(seed, trial, attempt, symbol name, ...) by ``drawer``, the one route to a
draw, never from Python's process-randomized ``hash``.  This makes reports
byte-reproducible across processes and platforms for a fixed seed.

A draw is counter-based, as in Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3" (SC 2011): the tag is the counter, one 128-bit blake2b
digest of it is the random word, and no generator is seeded or kept.

``blake2b`` comes from ``_blake2``, CPython's own BLAKE2 module, which is
also what ``hashlib.blake2b`` is: hashlib prefers it to OpenSSL's.  Importing
``hashlib`` would load OpenSSL's libcrypto as well, about 3.5 MB of resident
memory and 3 ms of import that nothing here uses.  ``symexpr`` takes its
content digests from here too.
"""

from __future__ import annotations

from collections.abc import Callable

from _blake2 import blake2b

SEP = "\x1f"  # the unit separator that joins the parts of a tag


def drawer(prefix, p: int) -> Callable[[str], int]:
    """The function of ``tail`` that returns 1 + (the 128-bit blake2b digest
    of the tag ``(*prefix, tail)``, its parts joined by ``SEP``) mod (p - 1):
    a residue in [1, p-1], off uniform by at most (p - 1) / 2^128, below 2^-96
    for every prime up to ``_linalg.MAX_PRIME``.  The prefix is hashed once,
    and each draw hashes its tail on a copy of that state."""
    head = blake2b((SEP.join(map(str, prefix)) + SEP).encode(), digest_size=16)
    q = p - 1

    def draw(tail: str) -> int:
        h = head.copy()
        h.update(tail.encode())
        return 1 + int.from_bytes(h.digest(), "big") % q

    return draw
