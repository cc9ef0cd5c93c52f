"""Weierstrass models over Q: invariants, quadratic twists and global
minimal models.

Models are integral: coefficient 5-tuples (a1, a2, a3, a4, a6) of plain
ints.  model() is the one gate for outside input; it takes ints and
exact rationals with denominator 1 and raises ValueError for anything
else, and every other builder here works on ints.  A change of variables
of scale u divides c4 by u^4 and c6 by u^6, and the curves with given
invariants (c4, c6) share one reduced global minimal model.  So minimal
models, and the minimal models of twists (the twist by d has invariants
(d^2 c4, d^3 c6)), are computed from (c4, c6) alone; the only change of
variables the module applies is quadratic_twist's rescaling by
[1/2, 0, 0, 0].  The reduction is handed the primes of the
discriminant, so a caller that knows them (the twist of a curve whose
bad primes are known) factors nothing large; it returns the invariants
and discriminant exponents that Tate's algorithm starts from.
"""

from __future__ import annotations

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


def invariants(E: WeierstrassModel) -> Invariants:
    """Standard b-, c- and discriminant invariants of an integral model,
    as ints."""
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


def _model_from_c4c6(C4: int, C6: int) -> tuple[WeierstrassModel, Invariants]:
    """The unique reduced integral model (a1, a3 in {0, 1}, a2 in
    {-1, 0, 1}) with the given invariants, and its invariants.

    Such a model has b2 = a1 + 4 a2 in {-4, -3, 0, 1, 4, 5}, and on that
    set b2 = b2^3 = -c6 mod 12 (c6 = -b2^3 + 36 b2 b4 - 216 b6), with the
    six values in distinct classes; so b2 = -C6 mod 12, taken in
    [-5, 6], and b4, b6 and the model follow.  The caller guarantees
    (C4, C6) passes the Kraus conditions and that (C4^3 - C6^2)/1728 is
    a nonzero integer.
    """
    b2 = (5 - C6) % 12 - 5
    b4 = (b2 * b2 - C4) // 24
    b6 = (b2**3 - 3 * b2 * C4 - 2 * C6) // 432
    a1, a3 = b2 % 2, b6 % 2
    E = WeierstrassModel(a1, (b2 - a1) // 4, a3, (b4 - a1 * a3) // 2, (b6 - a3) // 4)
    inv = invariants(E)
    assert (inv.c4, inv.c6) == (C4, C6)
    return E, inv


class MinimalModelResult(NamedTuple):
    minimal: WeierstrassModel
    u_value: int  # |u| of the scale from the input invariants
    bad_primes: tuple[int, ...]  # primes of the minimal discriminant
    invariants: Invariants  # of the minimal model
    disc_exponents: tuple[int, ...]  # v_p of the minimal discriminant at each bad prime


def minimal_from_invariants(c4: int, c6: int, primes) -> MinimalModelResult:
    """Global minimal model of the curves with invariants (c4, c6), by the
    Laska-Kraus-Connell reduction.

    (c4, c6) must be the invariants of some integral model, and primes an
    increasing list of primes containing every prime of its discriminant;
    each exponent is found by dividing the prime out, and a cofactor left
    over (a prime missing from the list) raises ValueError.  Output is the
    reduced form (a1, a3 in {0,1}, a2 in {-1,0,1}), which is unique, the
    scale u with (c4, c6) = (u^4 C4, u^6 C6) for its invariants (C4, C6),
    the primes of the minimal discriminant, its invariants, and v_p of
    its discriminant at each of those primes (e - 12 v_p(u)).
    """
    disc = (c4**3 - c6**2) // 1728
    if disc == 0:
        raise SingularModelError(f"singular invariants ({c4}, {c6})")
    rest = abs(disc)
    u = 1
    bad_primes, exponents = [], []
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
            exponents.append(e - 12 * d)
    if rest != 1:
        raise ValueError(f"a prime of the discriminant {disc} is missing: {rest} is left")
    C4, C6 = c4 // u**4, c6 // u**6
    assert kraus_conditions(C4, C6, 2) and kraus_conditions(C4, C6, 3)
    M, inv = _model_from_c4c6(C4, C6)
    return MinimalModelResult(M, u, tuple(bad_primes), inv, tuple(exponents))


def minimal_model(E: WeierstrassModel) -> MinimalModelResult:
    """Global minimal model of E (integral, as every model is); u_value is
    the scale from E onto it.  It keeps no memo: a caller that reads a
    curve's minimal model more than once holds on to the result (a sweep
    keeps it on the curve's CurveFacts)."""
    inv = invariants(E)
    return minimal_from_invariants(inv.c4, inv.c6, factorize(inv.disc).primes())
