import os
import subprocess
import sys
from collections import Counter
from hashlib import blake2b
from pathlib import Path

import pytest

import identiscope
from identiscope import _linalg, _rng


def _draw(parts, p):
    # One draw of the whole tag ``parts``: its last part is the tail.
    return _rng.drawer(parts[:-1], p)(str(parts[-1]))


@pytest.mark.parametrize("p", [2, 3, 101, 2**31 - 1, _linalg.MAX_PRIME])
def test_residue_lies_in_one_to_p_minus_one(p):
    values = {_draw(("tag", i, i % 7, "x" * (i % 3)), p) for i in range(300)}
    assert min(values) >= 1 and max(values) <= p - 1
    if p > 3:
        assert len(values) > 1


@pytest.mark.parametrize("parts, p, value", [
    (("sym", 0, 0, 0, "x"), 2147483647, 1086924927),
    (("ffp-z0", 0, 2147483629, 1, 0, "k1"), 2147483629, 217416230),
    (("transc", 3, 2, 1, "ab" * 16), 101, 47),
])
def test_residue_values_are_fixed(parts, p, value):
    # 1 + (128-bit blake2b of the tag) mod (p - 1): every drawn point of
    # both engines, and so every report, depends on these values.
    assert _draw(parts, p) == value


def test_residue_is_near_uniform_at_a_small_prime():
    # 11,000 draws at p = 11: the chi-square statistic over the 10 values
    # (9 degrees of freedom) stays below its 0.1 % critical value, 27.9.
    n = 11_000
    counts = Counter(_draw(("u", i), 11) for i in range(n))
    assert sorted(counts) == list(range(1, 11))
    expected = n / 10
    assert sum((c - expected) ** 2 / expected for c in counts.values()) < 27.9


def test_residue_depends_on_every_part_of_the_tag():
    base = ("sym", 0, 1, 2, "x")
    p = 2**31 - 1
    v = _draw(base, p)
    for i in range(len(base)):
        changed = base[:i] + (str(base[i]) + "'",) + base[i + 1:]
        assert _draw(changed, p) != v


def _reference_residue(parts, p):
    tag = _rng.SEP.join(map(str, parts)).encode()
    return 1 + int.from_bytes(blake2b(tag, digest_size=16).digest(), "big") % (p - 1)


@pytest.mark.parametrize("p", [101, 2**31 - 1])
def test_drawer_draws_the_residue_of_the_whole_tag(p):
    prefix = ("ffp-u", 3, p, 1, 0)
    draw = _rng.drawer(prefix, p)
    for tail in (("k1",), ("u", 0), ("u", 12), ("",)):
        assert draw(_rng.SEP.join(map(str, tail))) == _reference_residue(prefix + tail, p), tail


def test_importing_the_package_loads_no_openssl():
    # hashlib's blake2b is _blake2's; importing hashlib for it would also
    # map OpenSSL's libcrypto into every process (about 3.5 MB resident).
    code = ("import sys, identiscope, identiscope.bench, identiscope.cli\n"
            "loaded = '_hashlib' in sys.modules\n"
            "import hashlib\n"
            "from identiscope import _rng\n"
            "print(loaded, _rng.blake2b is hashlib.blake2b)")
    env = dict(os.environ)
    src = str(Path(identiscope.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert res.stdout.split() == ["False", "True"]
