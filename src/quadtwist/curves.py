"""Weierstrass models over Q: invariants, quadratic twists, global
minimal models and the 2-adic normal form used by the twist laws.

Models are integral: coefficient 5-tuples (a1, a2, a3, a4, a6) of plain
ints.  model() is the one gate for outside input; it takes ints and
exact rationals with denominator 1 and raises ValueError for anything
else, and every other builder here works on ints.  A change of variables
of scale u divides c4 by u^4 and c6 by u^6, and the curves with given
invariants (c4, c6) share one reduced global minimal model.  So minimal
models, and the minimal models of twists (the twist by d has invariants
(d^2 c4, d^3 c6)), are computed from (c4, c6) alone; the only coordinate
change the module applies is the integral [1, r, s, w] of rst_transform.
The reduction is handed the primes of the discriminant, so a caller that
knows them (the twist of a curve whose bad primes are known) factors
nothing large.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational
from typing import NamedTuple

from .arith import factorize, valuation


class SingularModelError(ValueError):
    """Raised when a model has discriminant zero."""


class WeierstrassModel(NamedTuple):
    a1: int
    a2: int
    a3: int
    a4: int
    a6: int


def _integer(a) -> int:
    if isinstance(a, Rational) and a.denominator == 1:
        return int(a.numerator)
    raise ValueError(f"coefficient {a!r} is not an integer")


def model(a1, a2, a3, a4, a6) -> WeierstrassModel:
    """The integral model with these coefficients.  Each must be an int or
    an exact rational with denominator 1 (4/2 gives 2); anything else, a
    non-integral rational, a float or a string, raises ValueError."""
    return WeierstrassModel(*map(_integer, (a1, a2, a3, a4, a6)))


class Invariants(NamedTuple):
    b2: int
    b4: int
    b6: int
    b8: int
    c4: int
    c6: int
    disc: int

    @property
    def j(self) -> Fraction:
        return Fraction(self.c4**3) / Fraction(self.disc)


def invariants(E: WeierstrassModel) -> Invariants:
    """Standard b-, c- and discriminant invariants of an integral model,
    as ints; j = c4^3 / disc is a property."""
    a1, a2, a3, a4, a6 = E
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -b2 * b2 * b2 + 36 * b2 * b4 - 216 * b6
    disc = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    if disc == 0:
        raise SingularModelError(f"singular model {tuple(E)}")
    assert c4**3 - c6**2 == 1728 * disc
    return Invariants(b2, b4, b6, b8, c4, c6, disc)


def rst_transform(E: WeierstrassModel, r: int, s: int, w: int) -> WeierstrassModel:
    """The u = 1 change of variables [1, r, s, w] with integers r, s, w;
    it keeps the model integral and preserves the discriminant exactly."""
    a1, a2, a3, a4, a6 = E
    return WeierstrassModel(
        a1 + 2 * s,
        a2 - s * a1 + 3 * r - s * s,
        a3 + r * a1 + 2 * w,
        a4 - s * a3 + 2 * r * a2 - (w + r * s) * a1 + 3 * r * r - 2 * s * w,
        a6 + r * a4 + r * r * a2 + r**3 - w * a3 - w * w - r * w * a1,
    )


def quadratic_twist(E: WeierstrassModel, d: int) -> WeierstrassModel:
    """Integral model of the quadratic twist of E by a nonzero integer d.

    The raw twist has a2, a4, a6 over denominators 4, 2, 4; when any of
    them stays fractional the model is rescaled by [1/2, 0, 0, 0], which
    multiplies each a_i by 2^i.
    """
    if d == 0:
        raise ValueError("twist by 0")
    a1, a2, a3, a4, a6 = E
    n2 = 4 * a2 * d + a1 * a1 * (d - 1)
    n4 = 2 * a4 * d * d + a1 * a3 * (d * d - 1)
    n6 = 4 * a6 * d**3 + a3 * a3 * (d**3 - 1)
    if n2 % 4 == 0 and n4 % 2 == 0 and n6 % 4 == 0:
        return WeierstrassModel(a1, n2 // 4, a3, n4 // 2, n6 // 4)
    return WeierstrassModel(2 * a1, n2, 8 * a3, 8 * n4, 16 * n6)


def kraus_conditions(c4, c6, p: int) -> bool:
    """Existence of an integral model over Z_p with invariants (c4, c6).

    Only p = 2 and p = 3 carry a condition; the discriminant is assumed
    integral by the caller.
    """
    if p == 3:
        return c6 == 0 or valuation(c6, 3) != 2
    if p == 2:
        if c6 % 4 == 3:
            return True
        return c4 % 16 == 0 and c6 % 32 in (0, 8)
    return True


# b2 of a reduced model (a1, a3 in {0,1}, a2 in {-1,0,1}) lies in this set.
_REDUCED_B2 = (-4, -3, 0, 1, 4, 5)


def _model_from_c4c6(C4: int, C6: int) -> tuple[WeierstrassModel, Invariants]:
    """The unique reduced integral model with the given invariants, and
    its invariants.

    The caller guarantees (C4, C6) passes the Kraus conditions and that
    (C4^3 - C6^2)/1728 is a nonzero integer.
    """
    hits = []
    for b2 in _REDUCED_B2:
        if (b2 * b2 - C4) % 24:
            continue
        b4 = (b2 * b2 - C4) // 24
        num = b2**3 - 3 * b2 * C4 - 2 * C6
        if num % 432:
            continue
        b6 = num // 432
        if b6 % 4 not in (0, 1):
            continue
        a1 = b2 % 2
        a3 = b6 % 2
        if (b4 - a1 * a3) % 2:
            continue
        if (b2 * b6 - b4 * b4) % 4:
            continue
        E = WeierstrassModel(a1, (b2 - a1) // 4, a3, (b4 - a1 * a3) // 2, (b6 - a3) // 4)
        inv = invariants(E)
        assert (inv.c4, inv.c6) == (C4, C6)
        hits.append((E, inv))
    assert len(hits) == 1, f"reduced model from (c4, c6) not unique: {hits}"
    return hits[0]


class MinimalModelResult(NamedTuple):
    minimal: WeierstrassModel
    u_value: int  # |u| of the scale from the input invariants
    bad_primes: tuple[int, ...]  # primes of the minimal discriminant
    invariants: Invariants  # of the minimal model


def minimal_from_invariants(c4: int, c6: int, primes) -> MinimalModelResult:
    """Global minimal model of the curves with invariants (c4, c6), by the
    Laska-Kraus-Connell reduction.

    (c4, c6) must be the invariants of some integral model, and primes an
    increasing list of primes containing every prime of its discriminant;
    each exponent is found by dividing the prime out, and a cofactor left
    over (a prime missing from the list) raises ValueError.  Output is the
    reduced form (a1, a3 in {0,1}, a2 in {-1,0,1}), which is unique, the
    scale u with (c4, c6) = (u^4 C4, u^6 C6) for its invariants (C4, C6),
    the primes of the minimal discriminant, and its invariants.
    """
    disc = (c4**3 - c6**2) // 1728
    if disc == 0:
        raise SingularModelError(f"singular invariants ({c4}, {c6})")
    rest = abs(disc)
    u = 1
    bad_primes = []
    for p in primes:
        e = 0
        while rest % p == 0:
            rest //= p
            e += 1
        if e == 0:
            continue
        d = 0  # v_p(u)
        if e >= 12:
            vc4 = valuation(c4, p) if c4 else e  # never binding when c4 = 0
            vc6 = valuation(c6, p) if c6 else e
            d = min(vc4 // 4, vc6 // 6, e // 12)
            if p in (2, 3):
                while d > 0 and not kraus_conditions(c4 // p ** (4 * d), c6 // p ** (6 * d), p):
                    d -= 1
            u *= p**d
        if e > 12 * d:  # p still divides the minimal discriminant
            bad_primes.append(p)
    if rest != 1:
        raise ValueError(f"a prime of the discriminant {disc} is missing: {rest} is left")
    C4, C6 = c4 // u**4, c6 // u**6
    assert kraus_conditions(C4, C6, 2) and kraus_conditions(C4, C6, 3)
    M, inv = _model_from_c4c6(C4, C6)
    return MinimalModelResult(M, u, tuple(bad_primes), inv)


def minimal_model(E: WeierstrassModel) -> MinimalModelResult:
    """Global minimal model of E (integral, as every model is); u_value is
    the scale from E onto it.  It keeps no memo: a caller that reads a
    curve's minimal model more than once holds on to the result (a sweep
    keeps it on the curve's CurveFacts)."""
    inv = invariants(E)
    return minimal_from_invariants(inv.c4, inv.c6, factorize(inv.disc).primes())


# Valuation patterns of the 2-adic normal form for curves with good
# reduction at 2: exactly one of
#   (1) a1 odd, 4 | a3, and (a4 even, a6 odd) or (a4 odd, a6 even);
#   (2) a1, a2 even, a3 odd.
# Pattern (1) forces c6 odd, pattern (2) forces v2(c6) = 3.
#
# The pattern reads a1, a2, a4, a6 mod 2 and a3 mod 4.  The coefficients of
# rst_transform(E, r, s, w) are integer polynomials, so the pattern depends
# on r, s, w mod 4 only, and it is also unchanged by s -> s + 2 and
# w -> w + 2 (tests/test_curves.py walks every case).  The shifts giving a
# pattern are thus a union of classes of (r mod 4, s mod 2, w mod 2), and
# the lexicographically first one lies in the box below.
_NORMAL_FORM_BOX = tuple((r, s, w) for r in range(4) for s in range(2) for w in range(2))


def _pattern_of(E: WeierstrassModel) -> int | None:
    a1, a2, a3, a4, a6 = E
    if a1 % 2 == 1 and a3 % 4 == 0:
        if a4 % 2 == 0 and a6 % 2 == 1:
            return 1
        if a4 % 2 == 1 and a6 % 2 == 0:
            return 1
    if a1 % 2 == 0 and a2 % 2 == 0 and a3 % 2 == 1:
        return 2
    return None


def two_strongly_minimal(mm: MinimalModelResult) -> WeierstrassModel:
    """Normalize the minimal model mm.minimal, which must have good
    reduction at 2, so that its a-invariant 2-adic valuations match one of
    the two patterns above.

    The result is the first match in lexicographic (pattern, r, s, w)
    order over [1, r, s, w] with r, s, w >= 0; at most 32 candidates
    (2 patterns x _NORMAL_FORM_BOX) are tried.
    """
    if mm.invariants.disc % 2 == 0:
        raise ValueError("requires a model with odd discriminant")
    E = mm.minimal
    for want in (1, 2):
        for r, s, w in _NORMAL_FORM_BOX:
            cand = rst_transform(E, r, s, w)
            if _pattern_of(cand) == want:
                c6 = invariants(cand).c6
                assert valuation(c6, 2) == (0 if want == 1 else 3)
                return cand
    raise AssertionError(f"no 2-adic normal form found for {tuple(E)}")


def pattern_of_normal_form(E: WeierstrassModel) -> int:
    p = _pattern_of(E)
    if p is None:
        raise ValueError("model is not in the 2-adic normal form")
    return p
