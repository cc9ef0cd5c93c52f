"""Residue enumeration behind the Tamagawa-at-2 dichotomy for eightfold
twists.

A curve good at 2 with c6 odd has a 2-adic normal form with a1 odd,
4 | a3 and a4 + a6 odd.  Over the mod-32 residue classes of its
coefficients, in its two halves (a6 odd, a6 even), the scan computes a
mod-32 key invariant together with the profile of (discriminant mod 8,
odd-twist-part mod 4) pairs on each key fiber.  It walks only the
effective moduli of the three invariants (192 classes) instead of all
33,554,432 admissible classes of (Z/32Z)^6; tests/test_profile_scan.py
proves the two walks have the same image.  The key only takes the values
0 (Tamagawa 4) and 16 (Tamagawa 2), each with a specific 4-element
profile, and the two profiles together hold all eight pairs.  The scan
derives on its own the case-3 rule of twistlaws._two_adic_prediction:
the Tamagawa-2 profile is {(disc mod 8, m mod 4) : (disc, 8m)_2 = -1},
disc the minimal discriminant, m the odd part of D and (,)_2 the 2-adic
Hilbert symbol (Serre, A Course in Arithmetic, Ch. III, Thms 1 and 3).
"""

from __future__ import annotations

from typing import NamedTuple

# Number of admissible residue classes in (Z/32Z)^6 (both halves).
FULL_CLASS_COUNT = 2 * (16 * 32 * 8 * 16 * 16 * 16)

EXPECTED_KEY_RANGE = frozenset({0, 16})
EXPECTED_TAMAGAWA2_PROFILE = frozenset({(3, 1), (5, 1), (5, 3), (7, 3)})
EXPECTED_TAMAGAWA4_PROFILE = frozenset({(1, 1), (1, 3), (3, 3), (7, 1)})


class ProfileScanResult(NamedTuple):
    key_range: frozenset[int]
    tamagawa2_profile: frozenset[tuple[int, int]]
    tamagawa4_profile: frozenset[tuple[int, int]]

    def matches_expected(self) -> bool:
        return (
            self.key_range == EXPECTED_KEY_RANGE
            and self.tamagawa2_profile == EXPECTED_TAMAGAWA2_PROFILE
            and self.tamagawa4_profile == EXPECTED_TAMAGAWA4_PROFILE
        )


def _profiles_pure() -> dict[int, frozenset[tuple[int, int]]]:
    """Effective-moduli enumeration.

    The key and the profile coordinates only depend on: a6 odd --
    x2 mod 2, x4 mod 4, x6 mod 8, y mod 16; a6 even -- x3 mod 8,
    x6 mod 8, y mod 16.  The constrained-but-absent variables (x1, x3;
    resp. x1, x2, x4) range over nonempty residue sets, so dropping them
    does not change the image.
    """
    profile: dict[int, set[tuple[int, int]]] = {}

    def add(key, dres, mres):
        profile.setdefault(key % 32, set()).add((dres % 8, mres % 4))

    # a6 odd: a1, a6, y odd; 4 | a3; 2 | a4
    for x2 in range(2):
        for x4 in range(0, 4, 2):
            for x6 in range(1, 8, 2):
                for y in range(1, 16, 2):
                    key = 4 + 16 * x2 + 8 * x4 + 4 * x6 - 2 * y - 2 * y * x6 * x6 - 4 * y * x6
                    add(key, x4 * x4 + 4 * x2 - x6, y)
    # a6 even: a1, a4, y odd; 4 | a3; 2 | a6
    for x3 in range(0, 8, 4):
        for x6 in range(0, 8, 2):
            for y in range(1, 16, 2):
                key = x3 * x3 - 2 * y * x6 * x6 + 4 * x6
                add(key, x3 - x6 + 1, y)
    return {t: frozenset(s) for t, s in profile.items()}


def scan_profiles() -> ProfileScanResult:
    """Run the enumeration and split the profile by key = 16 (local index
    2 at the prime 2) versus key = 0 (local index 4)."""
    by_key = _profiles_pure()
    return ProfileScanResult(
        key_range=frozenset(by_key),
        tamagawa2_profile=by_key.get(16, frozenset()),
        tamagawa4_profile=by_key.get(0, frozenset()),
    )
