"""Residue scan: its frozen expected output, that its profiles are the
2-adic Hilbert symbol rule of the case table, a proof that the
effective-moduli walk has the image of the full mod-32 walk, and that its
discriminant coordinate is the discriminant mod 8."""

import inspect
import itertools
import math
import time

from quadtwist.arith import fundamental_discriminant, hilbert_symbol_2
from quadtwist.curves import MinimalModelResult, WeierstrassModel, invariants
from quadtwist.profile_scan import (
    EXPECTED_TAMAGAWA2_PROFILE,
    EXPECTED_TAMAGAWA4_PROFILE,
    EXPECTED_KEY_RANGE,
    FULL_CLASS_COUNT,
    scan_profiles,
)
from quadtwist.twistlaws import _two_adic_prediction

from oracles import predict_two_adic

# Admissible residues mod 32 of each coefficient variable, per half of the
# normal form's pattern 1 (a6 odd: x1, x6, y odd, 4 | x3, 2 | x4; a6 even:
# x1, x4, y odd, 4 | x3, 2 | x6).
_ODD, _EVEN, _FOUR, _ALL = range(1, 32, 2), range(0, 32, 2), range(0, 32, 4), range(32)
ADMISSIBLE = {
    "a6 odd": {"x1": _ODD, "x2": _ALL, "x3": _FOUR, "x4": _EVEN, "x6": _ODD, "y": _ODD},
    "a6 even": {"x1": _ODD, "x2": _ALL, "x3": _FOUR, "x4": _ODD, "x6": _EVEN, "y": _ODD},
}


# The literal full-walk formulas, (key mod 32, disc mod 8, odd part mod 4).
# A formula's parameters are exactly the variables that occur in it.
def _a6_odd(x2, x4, x6, y):
    key = (4 + 16 * x2 + 8 * x4 + 4 * x6 - 2 * y - 2 * y * x6 * x6 - 4 * y * x6) % 32
    dres = (x4 * x4 + 4 * x2 - x6) % 8
    return key, dres, y & 3


def _a6_even(x3, x6, y):
    key = (x3 * x3 - 2 * y * x6 * x6 + 4 * x6) % 32
    dres = (x3 - x6 + 1) % 8
    return key, dres, y & 3


FORMULAS = {"a6 odd": _a6_odd, "a6 even": _a6_even}


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
    assert FULL_CLASS_COUNT == 33_554_432


def test_scan_derives_the_hilbert_symbol_rule():
    """The scan's Tamagawa-2 profile is the set of (disc mod 8, m mod 4)
    with (disc, 8m)_2 = -1, the case-3 rule of _two_adic_prediction, and
    its Tamagawa-4 profile is the rest of the eight pairs."""
    res = scan_profiles()
    pairs = set(itertools.product(range(1, 8, 2), (1, 3)))
    minus = {(d, m) for d, m in pairs if hilbert_symbol_2(d, 8 * m) == -1}
    assert res.tamagawa2_profile == minus
    assert res.tamagawa4_profile == pairs - minus


def test_full_mod32_image_equals_effective_scan():
    """Walk every admissible mod-32 value of each variable occurring in a
    formula.  The variables that do not occur range over nonempty sets, so
    the image of this walk is the image of all FULL_CLASS_COUNT classes."""
    t0 = time.perf_counter()
    image: dict[int, set[tuple[int, int]]] = {}
    for half, formula in FORMULAS.items():
        ranges = ADMISSIBLE[half]
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


def test_disc_coordinate_is_the_discriminant_mod_8():
    """Over every class of (a1, ..., a6) mod 8 in the normal form's
    pattern 1 (a1 odd, 4 | a3, a4 + a6 odd), the discriminant mod 8 is the
    scan's disc coordinate of its half.  So the profiles hold the minimal
    model's (disc mod 8, m mod 4), as a [1, r, s, w] change keeps the
    discriminant, and the case-3 rule (disc, 8m)_2 reads only those
    residues.  And the case-1 rule on the normal form, a6 = 1 or 2 mod 4,
    holds exactly when disc = 3 mod 4.

    The case-3 key P mod 32 depends on these residues and on m mod 16
    only, so the library's table equals the normal-form table of the
    oracle on each class, at a D with v2(D) = 2 and at a D with v2(D) = 3
    for each odd m mod 16, exactly when the two agree on every curve."""
    evens = [fundamental_discriminant(d) for d in (12, 8, 24, 40, 56, 328, 88, 104, 120)]
    assert sorted(D.odd_part % 16 for D in evens[1:]) == list(range(1, 16, 2))
    classes = 0
    for a1, a2, a3, a4, a6 in itertools.product(
        range(1, 8, 2), range(8), range(0, 8, 4), range(8), range(8)
    ):
        if (a4 + a6) % 2 == 0:
            continue
        E = WeierstrassModel(a1, a2, a3, a4, a6)
        inv = invariants(E)
        disc = inv.disc % 8
        _, dres, _ = _a6_odd(a2, a4, a6, 1) if a6 % 2 else _a6_even(a3, a6, 1)
        assert disc == dres, E
        assert (a6 % 4 in (1, 2)) == (disc % 4 == 3), E
        mm = MinimalModelResult(E, 1, (), inv, ())  # the table reads only inv
        for D in evens:
            assert _two_adic_prediction(mm, D) == predict_two_adic(mm, D), (E, D.value)
        classes += 1
    assert classes == 2048
