"""Local reduction data via Tate's algorithm, at every prime (2 and 3
included), plus the closed-form local computations used by the twist
identities: odd-prime twist Tamagawa numbers by root counting, and, as
properties of a LocalReduction at a multiplicative prime, the parity
invariant c-tilde and the inert base-change Tamagawa number.

The algorithm follows the classical normalization sequence (Silverman,
Advanced Topics in the Arithmetic of Elliptic Curves, IV.9; Cremona,
Algorithms for Modular Elliptic Curves, III).  Every coordinate change
is a closed form: modular inverses at odd p, and at p = 2, 3 the
textbook residues (the singular point from the partial derivatives mod
2, the double root of the cubic mod 3, [1, 0, a2 mod 2, 2 (a6/4 mod 2)]
for the I0* step at 2), with the resulting valuation profile asserted
after every step.  The kernel (_tate) runs on plain ints, on a model
minimal at p, from its invariants and n = v_p of its discriminant; it
carries a1..a6 as locals, applies each [1, r, s, t] change through
_change, computes a b-invariant of a changed model only where a step
reads it, tests thresholds as divisibility by a power of p, and never
rescales.  Its one caller, local_data, starts it from a reduction by
minimal_from_invariants (MinimalModelResult.invariants and
disc_exponents), so the invariants and discriminant exponents of a
curve or twist are computed once, where it is minimized (from one
factorize for a curve, from the curve's exponents plus 6 v_p(D) for a
twist).  tate_local takes any model and minimizes it at p alone.  The
model-object form of the same algorithm, a WeierstrassModel per change
with every invariant recomputed and a rescaling where a model is not
minimal, is the tests' reference; it counts roots on its own.

Tate's I0* step and the odd-prime closed form count the roots mod p of
a cubic, one way per characteristic (count_cubic_roots: the two residues
at 2; Stickelberger, and T^p = T mod f when the discriminant is a
square, at an odd p).  A cubic that is not squarefree mod p has None
for its count: the I0* step reads that as its test for a repeated root,
and the closed form, at a prime of good reduction, never meets it.
twist_prime_tamagawa_odd(mm, l) depends on the curve and l only, not on
the D that l divides.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .arith import is_prime, kronecker, valuation
from .curves import Invariants, MinimalModelResult, WeierstrassModel, invariants
from .curves import minimal_from_invariants, minimal_model

GOOD = "good"
MULT_SPLIT = "multiplicative-split"
MULT_NONSPLIT = "multiplicative-nonsplit"
ADDITIVE = "additive"


class LocalReduction(NamedTuple):
    prime: int
    kodaira: str
    tamagawa: int
    disc_valuation: int
    kind: str
    conductor_exponent: int

    @property
    def split(self) -> bool | None:
        if self.kind.startswith("multiplicative"):
            return self.kind == MULT_SPLIT
        return None

    @property
    def c_tilde(self) -> int:
        """1 if v_p of the minimal discriminant is odd, else 2; p must be a
        prime of multiplicative reduction."""
        return 2 - self.inert_tamagawa % 2

    @property
    def inert_tamagawa(self) -> int:
        """Tamagawa number over a quadratic field in which p stays inert:
        v_p of the minimal discriminant (the reduction becomes split); p
        must be a prime of multiplicative reduction."""
        if self.split is None:
            raise ValueError(f"{self.prime} is not a multiplicative prime")
        return self.disc_valuation


def _quad_has_root(A: int, B: int, C: int, p: int) -> bool:
    """Does A x^2 + B x + C = 0 have a root in F_p?  Requires p not | A."""
    assert A % p != 0
    if p == 2:
        return any((A * x * x + B * x + C) % 2 == 0 for x in (0, 1))
    disc = B * B - 4 * A * C
    return kronecker(disc, p) >= 0


def count_cubic_roots(b: int, c: int, d: int, p: int) -> int | None:
    """Number of roots in F_p of f = T^3 + b T^2 + c T + d when f is
    squarefree mod p; None when p divides the discriminant of f.

    At p = 2 the roots are read off the two residues: f(0) = d and
    f(1) = 1 + b + c + d.  At an odd p, the number of irreducible factors
    of f is odd exactly when its discriminant is a square mod p
    (Stickelberger).  A non-square leaves a linear times an irreducible
    quadratic: one root.  A square leaves three linear factors or one
    irreducible cubic: three roots exactly when T^p = T mod f, else
    none.  T^p mod f is kept as x0 + x1 T + x2 T^2 and reduced with
    T^3 = -b T^2 - c T - d and T^4 = (b^2 - c) T^2 + (bc - d) T + bd.
    """
    b, c, d = b % p, c % p, d % p
    disc = (18 * b * c * d - 4 * b**3 * d + b * b * c * c - 4 * c**3 - 27 * d * d) % p
    if disc == 0:
        return None
    if p == 2:  # Stickelberger needs p odd
        return (d == 0) + ((1 + b + c + d) % 2 == 0)
    if pow(disc, (p - 1) // 2, p) == p - 1:
        return 1
    e2, e1, e0 = (b * b - c) % p, (b * c - d) % p, b * d % p

    # T^p mod f by left-to-right square-and-multiply, from T
    x0, x1, x2 = 0, 1, 0
    for bit in bin(p)[3:]:
        # square: coefficients p0..p4 of (x0 + x1 T + x2 T^2)^2
        p3, p4 = 2 * x1 * x2, x2 * x2
        x0, x1, x2 = (
            (x0 * x0 - d * p3 + e0 * p4) % p,
            (2 * x0 * x1 - c * p3 + e1 * p4) % p,
            (x1 * x1 + 2 * x0 * x2 - b * p3 + e2 * p4) % p,
        )
        if bit == "1":  # multiply by T
            x0, x1, x2 = -d * x2 % p, (x0 - c * x2) % p, (x1 - b * x2) % p
    return 3 if (x0, x1, x2) == (0, 1, 0) else 0


def _change(
    a1: int, a2: int, a3: int, a4: int, a6: int, r: int, s: int, t: int
) -> tuple[int, int, int, int, int]:
    """Coefficients after the change of variables [1, r, s, t], that is
    x = x' + r, y = y' + s x' + t."""
    return (
        a1 + 2 * s,
        a2 - s * a1 + 3 * r - s * s,
        a3 + r * a1 + 2 * t,
        a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t,
        a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1,
    )


def tate_local(E: WeierstrassModel, p: int) -> LocalReduction:
    """Kodaira type, Tamagawa number, minimal discriminant valuation and
    reduction kind of E at p.

    Accepts any model, minimal at p or not (every model is integral): it
    minimizes at p alone, handing minimal_from_invariants the one pair
    (p, v_p(disc)) and factoring nothing, and reads local_data off that
    reduction, or I0 when p does not divide its discriminant.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    inv = invariants(E)
    mm = minimal_from_invariants(inv.c4, inv.c6, [(p, valuation(inv.disc, p))])
    if p not in mm.bad_primes:
        return LocalReduction(p, "I0", 1, 0, GOOD, 0)
    return local_data(mm, [p])[p]


def local_data(mm: MinimalModelResult, primes) -> dict[int, LocalReduction]:
    """Tate's algorithm on mm.minimal at each p of primes, from mm.invariants
    and mm.disc_exponents; a prime outside mm.bad_primes raises ValueError."""
    data = {}
    for p in primes:
        if p not in mm.bad_primes:
            raise ValueError(f"{p} is not a bad prime of {tuple(mm.minimal)}")
        data[p] = _tate(mm.minimal, p, mm.invariants, mm.disc_exponents[mm.bad_primes.index(p)])
    return data


def _tate(E: WeierstrassModel, p: int, inv: Invariants, n: int) -> LocalReduction:
    """Tate's algorithm at p on E, minimal at p, from inv = invariants(E) and
    n = v_p(inv.disc) > 0; a model past the II* test is not minimal: ValueError."""
    p2, p3 = p * p, p**3
    a1, a2, a3, a4, a6 = E
    b2, b4, b6, _, c4, _, _ = inv

    # move the singular point of the reduction to (0, 0): [1, r, 0, t]
    if p == 2:
        # the partials mod 2 are a1 x + a3 and a1 y + x^2 + a4
        if a1 % 2:
            r, t = a3 % 2, (a3 + a4) % 2
        else:  # x = a4; y = y^2 = x^3 + a2 x^2 + a4 x + a6 = x (1 + a2 + a4) + a6
            r = a4 % 2
            t = (r * (1 + a2 + a4) + a6) % 2
    else:
        # the double root r of x^3 + b2/4 x^2 + b4/2 x + b6/4 mod p
        if c4 % p:
            r = (18 * b6 - b2 * b4) * pow(c4, -1, p) % p  # -b2 b4 at p = 3
        elif p == 3:
            r = -b6 % 3  # 3 | b2, b4: the cubic is x^3 + b6
        else:
            r = -b2 * pow(12, -1, p) % p
        t = -(a1 * r + a3) * ((p + 1) // 2) % p
    a1, a2, a3, a4, a6 = _change(a1, a2, a3, a4, a6, r, 0, t)
    assert a3 % p == 0 and a4 % p == 0 and a6 % p == 0

    if c4 % p != 0:
        split = _quad_has_root(1, a1, -a2, p)
        cp = n if split else (2 if n % 2 == 0 else 1)
        kind = MULT_SPLIT if split else MULT_NONSPLIT
        return LocalReduction(p, f"I{n}", cp, n, kind, 1)

    if a6 % p2 != 0:
        return LocalReduction(p, "II", 1, n, ADDITIVE, n)
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    if b8 % p3 != 0:
        return LocalReduction(p, "III", 2, n, ADDITIVE, n - 1)
    if (a3 * a3 + 4 * a6) % p3 != 0:  # b6
        cp = 3 if _quad_has_root(1, a3 // p, -(a6 // p2), p) else 1
        return LocalReduction(p, "IV", cp, n, ADDITIVE, n - 2)

    # arrange p | a1, a2; p^2 | a3, a4; p^3 | a6: [1, 0, s, w]
    if p == 2:
        s, w = a2 % 2, 2 * (a6 // 4 % 2)
    else:
        s, w = -a1 * ((p + 1) // 2) % p, -a3 * ((p2 + 1) // 2) % p2
    a1, a2, a3, a4, a6 = _change(a1, a2, a3, a4, a6, 0, s, w)
    assert a1 % p == 0 and a2 % p == 0
    assert a3 % p2 == 0 and a4 % p2 == 0 and a6 % p3 == 0

    b, c, d = a2 // p % p, a4 // p2 % p, a6 // p3 % p
    roots = count_cubic_roots(b, c, d, p)
    if roots is not None:  # squarefree: I0*
        return LocalReduction(p, "I0*", 1 + roots, n, ADDITIVE, n - 4)

    if (b * b - 3 * c) % p != 0:
        # double root x0 of the cubic: type I_m* chain.  A root of
        # multiplicity two is (9d - bc) / 2(b^2 - 3c); at p = 2 it is
        # the root of the derivative T^2 + c.
        x0 = c if p == 2 else (9 * d - b * c) * pow(2 * (b * b - 3 * c), -1, p) % p
        a1, a2, a3, a4, a6 = _change(a1, a2, a3, a4, a6, p * x0, 0, 0)
        assert a2 % p == 0 and a2 % p2 != 0 and a3 % p2 == 0
        assert a4 % p3 == 0 and a6 % p**4 == 0
        mx, my = p2, p2
        m = 1
        while True:
            a2t, a3t = a2 // p, a3 // my
            a4t, a6t = a4 // (p * mx), a6 // (mx * my)
            if m % 2 == 1:
                if (a3t * a3t + 4 * a6t) % p != 0:
                    cp = 4 if _quad_has_root(1, a3t, -a6t, p) else 2
                    break
                y0 = a6t % 2 if p == 2 else -a3t * ((p + 1) // 2) % p
                a1, a2, a3, a4, a6 = _change(a1, a2, a3, a4, a6, 0, 0, my * y0)
                my *= p
            else:
                if (a4t * a4t - 4 * a2t * a6t) % p != 0:
                    cp = 4 if _quad_has_root(a2t, a4t, a6t, p) else 2
                    break
                x1 = a6t % 2 if p == 2 else -a4t * pow(2 * a2t, -1, p) % p
                a1, a2, a3, a4, a6 = _change(a1, a2, a3, a4, a6, mx * x1, 0, 0)
                mx *= p
            m += 1
            assert m <= n, "runaway I_m* chain"
        return LocalReduction(p, f"I{m}*", cp, n, ADDITIVE, n - 4 - m)

    # triple root of the cubic
    if p == 2:
        x0 = b % 2
    elif p == 3:
        x0 = (-d) % 3
    else:
        x0 = -b * pow(3, -1, p) % p
    a1, a2, a3, a4, a6 = _change(a1, a2, a3, a4, a6, p * x0, 0, 0)
    p4 = p2 * p2
    assert a2 % p2 == 0 and a3 % p2 == 0
    assert a4 % p3 == 0 and a6 % p4 == 0

    a3t, a6t = a3 // p2, a6 // p4
    if (a3t * a3t + 4 * a6t) % p != 0:
        cp = 3 if _quad_has_root(1, a3t, -a6t, p) else 1
        return LocalReduction(p, "IV*", cp, n, ADDITIVE, n - 6)

    y0 = a6t % 2 if p == 2 else -a3t * ((p + 1) // 2) % p
    a1, a2, a3, a4, a6 = _change(a1, a2, a3, a4, a6, 0, 0, p2 * y0)
    assert a3 % p3 == 0 and a6 % (p4 * p) == 0

    if a4 % p4 != 0:
        return LocalReduction(p, "III*", 2, n, ADDITIVE, n - 7)
    if a6 % (p3 * p3) != 0:
        return LocalReduction(p, "II*", 1, n, ADDITIVE, n - 8)

    raise ValueError(f"{tuple(E)} is not minimal at {p}")


def reduction_profile(mm: MinimalModelResult) -> tuple[int, dict[int, LocalReduction]]:
    """Conductor N = prod p^f_p together with per-prime local data,
    computed on the global minimal model mm.minimal at its bad primes."""
    data = local_data(mm, mm.bad_primes)
    return math.prod(p**loc.conductor_exponent for p, loc in data.items()), data


def conductor(E: WeierstrassModel) -> int:
    return reduction_profile(minimal_model(E))[0]


def depressed_cubic_mod(inv: Invariants, l: int) -> tuple[int, int, int]:
    """Coefficients mod an odd prime l of the cubic f with y^2 = f(x),
    obtained by completing the square (disc = 16 disc(f)), from the
    invariants of the model."""
    assert l % 2 == 1
    i2 = (l + 1) // 2
    return (inv.b2 * i2 * i2 % l, inv.b4 * i2 % l, inv.b6 * i2 * i2 % l)


def twist_prime_tamagawa_odd(mm: MinimalModelResult, l: int) -> int:
    """Tamagawa number at an odd prime l of the twist, by any fundamental
    discriminant D divisible by l, of the curve with minimal model mm,
    which must have good reduction at l: 1 + #roots of the depressed
    cubic mod l.  The value does not depend on D."""
    if l == 2 or not is_prime(l):
        raise ValueError("l must be an odd prime")
    if l in mm.bad_primes:
        raise ValueError(f"E must have good reduction at {l}")
    b, c, d = depressed_cubic_mod(mm.invariants, l)
    cp = 1 + count_cubic_roots(b, c, d, l)
    assert cp in (1, 2, 4)
    return cp
