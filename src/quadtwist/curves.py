"""Weierstrass models over Q: invariants, isomorphisms, quadratic twists,
global minimal models and the 2-adic normal form used by the twist laws.

Models are coefficient 5-tuples (a1, a2, a3, a4, a6) of exact rationals
(plain ints whenever possible).  An isomorphism [u, r, s, w] acts by
x = u^2 x' + r, y = u^3 y' + s u^2 x' + w, so c4' = u^-4 c4,
c6' = u^-6 c6 and disc' = u^-12 disc.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .arith import factorize, valuation


class SingularModelError(ValueError):
    """Raised when a model has discriminant zero."""


def _q(x):
    """Normalize exact rationals: integral Fractions collapse to int."""
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    return int(x)


class WeierstrassModel(NamedTuple):
    a1: int | Fraction
    a2: int | Fraction
    a3: int | Fraction
    a4: int | Fraction
    a6: int | Fraction

    @property
    def is_integral(self) -> bool:
        return all(isinstance(a, int) for a in self)


def model(a1, a2, a3, a4, a6) -> WeierstrassModel:
    return WeierstrassModel(_q(a1), _q(a2), _q(a3), _q(a4), _q(a6))


class Invariants(NamedTuple):
    b2: int | Fraction
    b4: int | Fraction
    b6: int | Fraction
    b8: int | Fraction
    c4: int | Fraction
    c6: int | Fraction
    disc: int | Fraction
    j: Fraction


def invariants(E: WeierstrassModel) -> Invariants:
    """Standard b-, c- and discriminant invariants plus j = c4^3 / disc."""
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
    j = Fraction(c4**3) / Fraction(disc)
    return Invariants(*(map(_q, (b2, b4, b6, b8, c4, c6, disc))), j)


class IsoMap(NamedTuple):
    """Change of variables [u, r, s, w] between Weierstrass models."""

    u: int | Fraction
    r: int | Fraction
    s: int | Fraction
    w: int | Fraction

    @staticmethod
    def identity() -> "IsoMap":
        return IsoMap(1, 0, 0, 0)

    def inverse(self) -> "IsoMap":
        u, r, s, w = (Fraction(t) for t in self)
        return iso(1 / u, -r / u**2, -s / u, (r * s - w) / u**3)

    def compose(self, other: "IsoMap") -> "IsoMap":
        """self followed by other (E -> E' -> E'')."""
        u1, r1, s1, w1 = (Fraction(t) for t in self)
        u2, r2, s2, w2 = (Fraction(t) for t in other)
        return iso(
            u1 * u2,
            r1 + u1**2 * r2,
            s1 + u1 * s2,
            w1 + u1**2 * s1 * r2 + u1**3 * w2,
        )


def iso(u, r, s, w) -> IsoMap:
    if u == 0:
        raise ValueError("iso requires u != 0")
    return IsoMap(_q(u), _q(r), _q(s), _q(w))


def apply_iso(E: WeierstrassModel, phi: IsoMap) -> WeierstrassModel:
    if phi.u == 1 and E.is_integral and all(isinstance(t, int) for t in phi):
        a1, a2, a3, a4, a6 = E
        _, r, s, w = phi
        return WeierstrassModel(
            a1 + 2 * s,
            a2 - s * a1 + 3 * r - s * s,
            a3 + r * a1 + 2 * w,
            a4 - s * a3 + 2 * r * a2 - (w + r * s) * a1 + 3 * r * r - 2 * s * w,
            a6 + r * a4 + r * r * a2 + r**3 - w * a3 - w * w - r * w * a1,
        )
    a1, a2, a3, a4, a6 = (Fraction(a) for a in E)
    u, r, s, w = (Fraction(t) for t in phi)
    if u == 0:
        raise ValueError("iso requires u != 0")
    return model(
        (a1 + 2 * s) / u,
        (a2 - s * a1 + 3 * r - s * s) / u**2,
        (a3 + r * a1 + 2 * w) / u**3,
        (a4 - s * a3 + 2 * r * a2 - (w + r * s) * a1 + 3 * r * r - 2 * s * w) / u**4,
        (a6 + r * a4 + r * r * a2 + r**3 - w * a3 - w * w - r * w * a1) / u**6,
    )


def rst_transform(E: WeierstrassModel, r, s, w) -> WeierstrassModel:
    """u = 1 change of variables; preserves the discriminant exactly."""
    return apply_iso(E, iso(1, r, s, w))


def quadratic_twist_with_scale(E: WeierstrassModel, d: int):
    """Twist of E by a nonzero integer d.

    Returns (model, cleared) where cleared indicates that the raw twist
    model had half-integral coefficients and was rescaled by [1/2,0,0,0]
    (so coefficients a_i picked up a factor 2^i) to restore integrality.
    """
    if d == 0:
        raise ValueError("twist by 0")
    if not E.is_integral:
        raise ValueError("twist requires an integral model")
    a1, a2, a3, a4, a6 = E
    raw = model(
        a1,
        Fraction(4 * a2 * d + a1 * a1 * (d - 1), 4),
        a3,
        Fraction(2 * a4 * d * d + a1 * a3 * (d * d - 1), 2),
        Fraction(4 * a6 * d**3 + a3 * a3 * (d**3 - 1), 4),
    )
    if raw.is_integral:
        return raw, False
    out = apply_iso(raw, iso(Fraction(1, 2), 0, 0, 0))
    assert out.is_integral
    return out, True


def quadratic_twist(E: WeierstrassModel, d: int) -> WeierstrassModel:
    """Integral model of the quadratic twist of E by d."""
    return quadratic_twist_with_scale(E, d)[0]


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


def _model_from_c4c6(C4: int, C6: int) -> WeierstrassModel:
    """The unique reduced integral model with the given invariants.

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
        E = model(a1, (b2 - a1) // 4, a3, (b4 - a1 * a3) // 2, (b6 - a3) // 4)
        inv = invariants(E)
        assert (inv.c4, inv.c6) == (C4, C6)
        hits.append(E)
    assert len(hits) == 1, f"reduced model from (c4, c6) not unique: {hits}"
    return hits[0]


class MinimalModelResult(NamedTuple):
    minimal: WeierstrassModel
    map: IsoMap
    u_value: int
    bad_primes: tuple[int, ...]  # primes of the minimal discriminant


@lru_cache(maxsize=None)
def minimal_model(E: WeierstrassModel) -> MinimalModelResult:
    """Global minimal model via the Laska-Kraus-Connell reduction.

    Output is the reduced form (a1, a3 in {0,1}, a2 in {-1,0,1}), which is
    unique, together with the isomorphism from the input, its scale u and
    the primes of the minimal discriminant.
    """
    if not E.is_integral:
        raise ValueError("minimal_model requires an integral model")
    inv = invariants(E)
    c4, c6, disc = inv.c4, inv.c6, inv.disc
    u = 1
    bad_primes = []
    for p, e in factorize(disc).factors:
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
    C4, C6 = c4 // u**4, c6 // u**6
    assert kraus_conditions(C4, C6, 2) and kraus_conditions(C4, C6, 3)
    minimal = _model_from_c4c6(C4, C6)

    a1, a2, a3, _, _ = (Fraction(a) for a in E)
    b1, b2_, b3, _, _ = (Fraction(a) for a in minimal)
    s = (u * b1 - a1) / 2
    r = (u * u * b2_ - a2 + s * a1 + s * s) / 3
    w = (u**3 * b3 - a3 - r * a1) / 2
    phi = iso(u, r, s, w)
    assert apply_iso(E, phi) == minimal
    return MinimalModelResult(minimal, phi, u, tuple(bad_primes))


# Valuation patterns of the 2-adic normal form for curves with good
# reduction at 2: exactly one of
#   (1) a1 odd, 4 | a3, and (a4 even, a6 odd) or (a4 odd, a6 even);
#   (2) a1, a2 even, a3 odd.
# Pattern (1) forces c6 odd, pattern (2) forces v2(c6) = 3.


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


@lru_cache(maxsize=None)
def two_strongly_minimal(E: WeierstrassModel) -> WeierstrassModel:
    """Normalize a minimal model with good reduction at 2 so that its
    a-invariant 2-adic valuations match one of the two patterns above.

    Bounded deterministic search over [1, r, s, w] with r, s, w mod 16;
    first match in lexicographic (pattern, r, s, w) order wins.
    """
    inv = invariants(E)
    if not E.is_integral or valuation(inv.disc, 2) != 0:
        raise ValueError("requires an integral model with odd discriminant")
    if minimal_model(E).minimal != E:
        raise ValueError("requires a globally minimal model")
    for want in (1, 2):
        for r in range(16):
            for s in range(16):
                for w in range(16):
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
