"""Residue scan: its frozen expected output, and a proof that the
effective-moduli walk has the image of the full mod-32 walk."""

import inspect
import itertools
import math
import time

from quadtwist.profile_scan import (
    EXPECTED_TAMAGAWA2_PROFILE,
    EXPECTED_TAMAGAWA4_PROFILE,
    EXPECTED_KEY_RANGE,
    FULL_CLASS_COUNT,
    scan_profiles,
)

# Admissible residues mod 32 of each coefficient variable, per valuation
# pattern (1: x1, x6, y odd, 4 | x3, 2 | x4; 2: x1, x4, y odd, 4 | x3, 2 | x6).
_ODD, _EVEN, _FOUR, _ALL = range(1, 32, 2), range(0, 32, 2), range(0, 32, 4), range(32)
ADMISSIBLE = {
    1: {"x1": _ODD, "x2": _ALL, "x3": _FOUR, "x4": _EVEN, "x6": _ODD, "y": _ODD},
    2: {"x1": _ODD, "x2": _ALL, "x3": _FOUR, "x4": _ODD, "x6": _EVEN, "y": _ODD},
}


# The literal full-walk formulas, (key mod 32, disc mod 8, odd part mod 4).
# A formula's parameters are exactly the variables that occur in it.
def _pattern1(x2, x4, x6, y):
    key = (4 + 16 * x2 + 8 * x4 + 4 * x6 - 2 * y - 2 * y * x6 * x6 - 4 * y * x6) % 32
    dres = (x4 * x4 + 4 * x2 - x6) % 8
    return key, dres, y & 3


def _pattern2(x3, x6, y):
    key = (x3 * x3 - 2 * y * x6 * x6 + 4 * x6) % 32
    dres = (x3 - x6 + 1) % 8
    return key, dres, y & 3


FORMULAS = {1: _pattern1, 2: _pattern2}


def test_pure_backend_expected_sets():
    res = scan_profiles()
    assert res.key_range == EXPECTED_KEY_RANGE == frozenset({0, 16})
    assert res.tamagawa2_profile == EXPECTED_TAMAGAWA2_PROFILE == frozenset(
        {(3, 1), (5, 1), (5, 3), (7, 3)}
    )
    assert res.tamagawa4_profile == EXPECTED_TAMAGAWA4_PROFILE == frozenset(
        {(1, 1), (1, 3), (3, 3), (7, 1)}
    )
    assert res.matches_expected()
    assert res.class_count == FULL_CLASS_COUNT == 33_554_432


def test_full_mod32_image_equals_effective_scan():
    """Walk every admissible mod-32 value of each variable occurring in a
    formula.  The variables that do not occur range over nonempty sets, so
    the image of this walk is the image of all FULL_CLASS_COUNT classes."""
    t0 = time.perf_counter()
    image: dict[int, set[tuple[int, int]]] = {}
    for pattern, formula in FORMULAS.items():
        ranges = ADMISSIBLE[pattern]
        walked = list(inspect.signature(formula).parameters)
        omitted = [len(r) for name, r in ranges.items() if name not in walked]
        assert all(omitted)
        count = 0
        for xs in itertools.product(*(ranges[name] for name in walked)):
            key, dres, mres = formula(*xs)
            image.setdefault(key, set()).add((dres, mres))
            count += 1
        assert count * math.prod(omitted) == FULL_CLASS_COUNT // 2
    elapsed = time.perf_counter() - t0

    res = scan_profiles()
    assert frozenset(image) == res.key_range
    assert image[16] == res.tamagawa2_profile
    assert image[0] == res.tamagawa4_profile
    assert elapsed < 1.0, f"full mod-32 walk took {elapsed:.3f}s"


def test_profiles_are_disjoint_and_odd():
    res = scan_profiles()
    assert not res.tamagawa2_profile & res.tamagawa4_profile
    for lam, mu in res.tamagawa2_profile | res.tamagawa4_profile:
        assert lam % 2 == 1 and mu % 2 == 1
