"""Independent oracles used by the test suite.

Nothing here calls into the library's own reduction machinery: point
counts are brute force, factorizations come from sympy, and reduction
types are pinned by counting components through the conductor-degree
relation on curves whose conductor is vouched for by their standard
label.
"""

from __future__ import annotations

from fractions import Fraction

import sympy


def factorint(n: int) -> dict[int, int]:
    return dict(sympy.factorint(n))


def square_class(q) -> int:
    """The squarefree integer s with q = s * (a rational square), q a
    nonzero rational."""
    q = Fraction(q)
    s = -1 if q < 0 else 1
    for p, e in factorint(abs(q.numerator * q.denominator)).items():
        if e % 2:
            s *= p
    return s


def fraction_two_power(q: Fraction) -> int | None:
    """k with q = 2**k, found by halving or doubling q in Fraction."""
    if q <= 0:
        return None
    k = 0
    while q.numerator % 2 == 0:
        q, k = q / 2, k + 1
    while q.denominator % 2 == 0:
        q, k = q * 2, k - 1
    return k if q == 1 else None


def fraction_quantity(u: int, w: int, factors) -> tuple[Fraction, int | None, bool, bool]:
    """(quantity, exponent, is_power_of_two, is_even_exponent) of
    u / 2^w times the factors, as a chain of Fraction products."""
    q = Fraction(u, 2**w)
    for v in factors:
        q *= v
    k = fraction_two_power(q)
    return q, k, k is not None, k is not None and k % 2 == 0


def hostile_semiprime() -> int:
    """p * q for the first two primes p < q above 2**60: far beyond the
    library's trial division and rho."""
    p = sympy.nextprime(2**60)
    return p * sympy.nextprime(p)


# A product of two ~60-bit primes that is 1 mod 4, so only factoring can
# decide whether it is a fundamental discriminant.
HOSTILE_DISCRIMINANT = 1329227995784916032006974696025230729


def fundamental_discriminant_fields(d: int) -> tuple | None:
    """(d, odd part, v2(d), primes of d) when d is 1 or a positive
    fundamental discriminant: d = 1 mod 4 squarefree, or d = 4m with
    m = 2, 3 mod 4 squarefree.  None otherwise."""
    if d == 1:
        return (1, 1, 0, ())
    if d < 1:
        return None
    if d % 4 == 1:
        m = d
    elif d % 4 == 0 and d // 4 % 4 in (2, 3):
        m = d // 4
    else:
        return None
    if any(e > 1 for e in factorint(m).values()):
        return None
    f = factorint(d)
    a = f.get(2, 0)
    return (d, d // 2**a, a, tuple(sorted(f)))


def apply_iso(ai, u, r, s, w) -> tuple[Fraction, ...]:
    """The change of variables [u, r, s, w], x = u^2 x' + r,
    y = u^3 y' + s u^2 x' + w, evaluated in Fraction: it divides c4 by
    u^4 and c6 by u^6."""
    a1, a2, a3, a4, a6 = (Fraction(a) for a in ai)
    u, r, s, w = Fraction(u), Fraction(r), Fraction(s), Fraction(w)
    return (
        (a1 + 2 * s) / u,
        (a2 - s * a1 + 3 * r - s * s) / u**2,
        (a3 + r * a1 + 2 * w) / u**3,
        (a4 - s * a3 + 2 * r * a2 - (w + r * s) * a1 + 3 * r * r - 2 * s * w) / u**4,
        (a6 + r * a4 + r * r * a2 + r**3 - w * a3 - w * w - r * w * a1) / u**6,
    )


def fraction_invariants(ai) -> tuple[Fraction, Fraction, Fraction]:
    """(c4, c6, disc) of a model with rational coefficients: the standard
    b-, c- and discriminant formulas evaluated in Fraction."""
    a1, a2, a3, a4, a6 = (Fraction(a) for a in ai)
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -b2**3 + 36 * b2 * b4 - 216 * b6
    disc = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return c4, c6, disc


def iso_onto(E, M, u) -> tuple[Fraction, Fraction, Fraction]:
    """(r, s, w) such that [u, r, s, w] carries a1, a2, a3 of E to those
    of M.  Solved from the first three coefficients only: the map carries
    E onto M exactly when apply_iso(E, u, r, s, w) == M also holds for a4
    and a6."""
    a1, a2, a3 = (Fraction(a) for a in E[:3])
    b1, b2, b3 = (Fraction(a) for a in M[:3])
    u = Fraction(u)
    s = (u * b1 - a1) / 2
    r = (u * u * b2 - a2 + s * a1 + s * s) / 3
    w = (u**3 * b3 - a3 - r * a1) / 2
    return r, s, w


def quadratic_twist_fraction(ai, d) -> tuple[tuple[Fraction, ...], Fraction]:
    """(integral model of the twist of ai by d, its scale u from the raw
    twist).  The raw twist y^2 + a1 xy + a3 y = x^3 + A2 x^2 + A4 x + A6,
    with invariants (d^2 c4, d^3 c6), is evaluated in Fraction; u = 1 when
    it is integral, else u = 1/2, the rescaling [1/2, 0, 0, 0] that clears
    its denominators."""
    a1, a2, a3, a4, a6 = (Fraction(a) for a in ai)
    raw = (
        a1,
        a2 * d + a1 * a1 * (d - 1) / 4,
        a3,
        a4 * d * d + a1 * a3 * (d * d - 1) / 2,
        a6 * d**3 + a3 * a3 * (d**3 - 1) / 4,
    )
    if all(a.denominator == 1 for a in raw):
        return raw, Fraction(1)
    half = Fraction(1, 2)
    return apply_iso(raw, half, 0, 0, 0), half


def random_reduced_curves(rng, count):
    """Nonsingular reduced models, a1, a3 in {0, 1}, a2 in {-1, 0, 1},
    |a4|, |a6| <= 300, drawn from rng."""
    from quadtwist.curves import SingularModelError, invariants, model

    curves = []
    while len(curves) < count:
        ai = (rng.randint(0, 1), rng.randint(-1, 1), rng.randint(0, 1),
              rng.randint(-300, 300), rng.randint(-300, 300))
        try:
            invariants(model(*ai))
        except SingularModelError:
            continue
        curves.append(model(*ai))
    return curves


def _normal_form_pattern(ai) -> int | None:
    a1, a2, a3, a4, a6 = ai
    if a1 % 2 == 1 and a3 % 4 == 0 and (a4 + a6) % 2 == 1:
        return 1
    if a1 % 2 == 0 and a2 % 2 == 0 and a3 % 2 == 1:
        return 2
    return None


def two_strongly_minimal_brute(E):
    """The 2-adic normal form by the full search over r, s, w mod 16: the
    first shift in lexicographic (pattern, r, s, w) order whose model
    matches pattern 1, else pattern 2.  E is a minimal model with odd
    discriminant.  The shifts use the library's rst_transform, which
    tests check against apply_iso."""
    from quadtwist.curves import rst_transform

    for want in (1, 2):
        for r in range(16):
            for s in range(16):
                for w in range(16):
                    cand = rst_transform(E, r, s, w)
                    if _normal_form_pattern(cand) == want:
                        return cand
    raise AssertionError(f"no 2-adic normal form found for {tuple(E)}")


def vp(n: int, p: int) -> int:
    f = factorint(abs(n))
    return f.get(p, 0)


def count_points(ai, p: int) -> int:
    """Points of the (possibly singular) reduced projective curve mod p,
    the point at infinity included; brute force."""
    a1, a2, a3, a4, a6 = ai
    cnt = 1
    for x in range(p):
        rhs = (x**3 + a2 * x * x + a4 * x + a6) % p
        for y in range(p):
            if (y * y + a1 * x * y + a3 * y - rhs) % p == 0:
                cnt += 1
    return cnt


def trace_of_frobenius(ai, p: int) -> int:
    return p + 1 - count_points(ai, p)


def reduction_kind(ai, p: int, disc: int) -> str:
    """good / multiplicative-split / multiplicative-nonsplit / additive,
    from the point count of a p-minimal model (a_p = 1, -1, 0 at bad
    primes)."""
    if disc % p != 0:
        return "good"
    ap = trace_of_frobenius(ai, p)
    return {1: "multiplicative-split", -1: "multiplicative-nonsplit", 0: "additive"}[ap]


def is_square_mod(a: int, p: int) -> bool:
    a %= p
    return any((x * x - a) % p == 0 for x in range(p))


def count_cubic_roots_brute(b: int, c: int, d: int, p: int) -> int:
    return sum(1 for t in range(p) if (t**3 + b * t * t + c * t + d) % p == 0)


# Components of each Kodaira fiber, for the conductor-degree relation
# f = v(disc) + 1 - components.
COMPONENTS = {
    "I0": 1,
    "II": 1,
    "III": 2,
    "IV": 3,
    "I0*": 5,
    "IV*": 7,
    "III*": 8,
    "II*": 9,
}


def forced_additive_type(v: int, f: int) -> tuple[str, int | None] | None:
    """Kodaira type (and Tamagawa number when it is forced) of an additive
    fiber with disc valuation v and conductor exponent f, whenever the
    component count m = v + 1 - f determines it uniquely."""
    m = v + 1 - f
    if m == 1:
        return "II", 1
    if m == 2:
        return "III", 2
    if m == 3:
        return "IV", None
    if m == 5:
        return "I0*", None
    if m == 8:
        return "III*", 2
    if m == 9:
        return "II*", 1
    return None  # IV*(7) collides with I2*(7); I_m* handled separately


def golden_local_data(label: str, ai, conductor: int):
    """Independently derived (type, tamagawa-or-None, v, kind) per bad
    prime.  Multiplicative entries are complete; additive entries carry a
    Tamagawa number only when the component count forces one."""
    from quadtwist.curves import invariants, model

    disc = int(invariants(model(*ai)).disc)
    table = {}
    for p, v in sorted(factorint(abs(disc)).items()):
        kind = reduction_kind(ai, p, disc)
        if kind == "good":
            continue
        if kind.startswith("multiplicative"):
            c = v if kind.endswith("split") and not kind.endswith("nonsplit") else (
                2 if v % 2 == 0 else 1
            )
            table[p] = (f"I{v}", c, v, kind)
        else:
            f = vp(conductor, p)
            forced = forced_additive_type(v, f)
            if forced is None:
                table[p] = (None, None, v, kind)
            else:
                table[p] = (forced[0], forced[1], v, kind)
    return table
