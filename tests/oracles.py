"""Independent oracles used by the test suite.

The oracles up to the references call nothing of the library's own
reduction machinery: point counts are brute force, factorizations come
from sympy, and reduction types are pinned by counting components
through the conductor-degree relation on curves whose conductor is
vouched for by their standard label.  The three references at the end
do call it.  The Tate reference is Tate's algorithm on model objects,
beside the library's kernel on plain ints.  The admissibility reference
takes N and the local data from the library and checks the twist
hypothesis clause by clause.  The per-instance record reference
evaluates each sweep instance from its setup alone, reading the twists'
Tate data afresh, on the general twist by any nonzero d
(general_twist_minimal, where the library's twist_minimal takes a parsed
D), and states the even-D case table on the 2-adic normal form
(predict_two_adic, on two_strongly_minimal_brute's form), where the
library states it on c6, the discriminant and D.  Two helpers read
sweeps the way the CLI writes them: sweep_report parses the text
write_report writes, and strip_timing drops its wall-clock subtrees.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

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


def j_invariant(ai) -> Fraction:
    """j = c4^3 / disc of a model with rational coefficients."""
    c4, _, disc = fraction_invariants(ai)
    return c4**3 / disc


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


def normal_form_pattern(ai) -> int | None:
    """The pattern of a model in the 2-adic normal form: 1 when a1 is
    odd, 4 | a3 and a4 + a6 is odd; 2 when a1, a2 are even and a3 is odd;
    else None."""
    a1, a2, a3, a4, a6 = ai
    if a1 % 2 == 1 and a3 % 4 == 0 and (a4 + a6) % 2 == 1:
        return 1
    if a1 % 2 == 0 and a2 % 2 == 0 and a3 % 2 == 1:
        return 2
    return None


@lru_cache(maxsize=None)
def two_strongly_minimal_brute(E):
    """The 2-adic normal form by the full search over r, s, w mod 16: the
    first shift in lexicographic (pattern, r, s, w) order whose model
    matches pattern 1, else pattern 2.  E is a minimal model with odd
    discriminant; an even one raises ValueError.  The shifts use
    rst_transform below, which tests check against apply_iso.  Pattern 1
    forces c6 odd and pattern 2 v2(c6) = 3 (tests/test_curves.py)."""
    from quadtwist.curves import invariants

    if invariants(E).disc % 2 == 0:
        raise ValueError("requires a model with odd discriminant")
    for want in (1, 2):
        for r in range(16):
            for s in range(16):
                for w in range(16):
                    cand = rst_transform(E, r, s, w)
                    if normal_form_pattern(cand) == want:
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


def forced_additive_type(v: int, f: int) -> tuple[str, int | None] | None:
    """Kodaira type (and Tamagawa number when it is forced) of an additive
    fiber with disc valuation v and conductor exponent f, whenever the
    component count m = v + 1 - f determines it uniquely: II, III, IV have
    1-3 components and I_n* has n + 5, but IV*, III* and II* (7, 8, 9)
    share their counts with I2*, I3* and I4*."""
    m = v + 1 - f
    if m in (7, 8, 9):
        return None
    if m >= 5:
        return f"I{m - 5}*", None
    return {1: ("II", 1), 2: ("III", 2), 3: ("IV", None)}.get(m)


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


# ---------------------------------------------------------------------------
# the model-object reference for Tate's algorithm
#
# The library's tate_local carries a1..a6 as local ints through every
# coordinate change.  This is the same algorithm, branch for branch, on
# WeierstrassModel values: each change goes through rst_transform and
# each step recomputes the invariants.  It counts roots on its own: the
# cubic's by brute force, the quadratic's by trying both residues at 2
# and by Euler's criterion at an odd p.

from quadtwist.arith import is_prime
from quadtwist.curves import Invariants, WeierstrassModel, invariants
from quadtwist.localred import LocalReduction


def _inv(a: int, p: int) -> int:
    return pow(a % p, -1, p)


def _quad_has_root(A: int, B: int, C: int, p: int) -> bool:
    """Does A x^2 + B x + C = 0 have a root in F_p?  Requires p not | A."""
    assert A % p != 0
    if p == 2:
        return any((A * x * x + B * x + C) % 2 == 0 for x in (0, 1))
    return pow(B * B - 4 * A * C, (p - 1) // 2, p) != p - 1


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


def _vp(n, p: int) -> int:
    """Valuation with v(0) = a large sentinel, for threshold tests."""
    if n == 0:
        return 10**9
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _find_singular_point(E: WeierstrassModel, inv: Invariants, p: int) -> tuple[int, int]:
    """(r, t) mod p moving the singular point of the reduction to (0,0);
    inv are the invariants of E."""
    a1, a2, a3, a4, a6 = E
    if p in (2, 3):
        for r in range(p):
            for t in range(p):
                a3n = a3 + r * a1 + 2 * t
                a4n = a4 + 2 * r * a2 - t * a1 + 3 * r * r
                a6n = a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1
                if a3n % p == 0 and a4n % p == 0 and a6n % p == 0:
                    return r, t
        raise AssertionError(f"no singular point mod {p} for {tuple(E)}")
    if inv.c4 % p == 0:
        r = (-inv.b2 * _inv(12, p)) % p
    else:
        r = ((18 * inv.b6 - inv.b2 * inv.b4) * _inv(inv.c4, p)) % p
    t = (-(a1 * r + a3) * _inv(2, p)) % p
    return r, t


def _normalize_step2(C1: WeierstrassModel, p: int) -> WeierstrassModel:
    """Arrange p | a1, a2; p^2 | a3, a4; p^3 | a6 (all guaranteed to be
    reachable at this stage of the algorithm)."""
    if p == 2:
        for s in range(4):
            for r in (0, 2, 4, 6):
                for w in range(8):
                    C2 = rst_transform(C1, r, s, w)
                    a1, a2, a3, a4, a6 = C2
                    if (
                        a1 % 2 == 0
                        and a2 % 2 == 0
                        and a3 % 4 == 0
                        and a4 % 4 == 0
                        and a6 % 8 == 0
                    ):
                        return C2
        raise AssertionError(f"2-adic normalization failed for {tuple(C1)}")
    s = (-C1.a1 * _inv(2, p)) % p
    C2 = rst_transform(C1, 0, s, 0)
    w = (-C2.a3 * _inv(2, p * p)) % (p * p)
    C3 = rst_transform(C2, 0, 0, w)
    return C3


def reference_tate_local(E: WeierstrassModel, p: int) -> LocalReduction:
    """tate_local as model objects: each coordinate change builds a
    WeierstrassModel through rst_transform, every invariant is recomputed
    by invariants() at each step, and thresholds are valuations."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    C = E
    while True:
        inv = invariants(C)  # raises SingularModelError when disc = 0
        n = _vp(inv.disc, p)
        if n == 0:
            return LocalReduction(p, "I0", 1, 0, "good", 0)

        r, t = _find_singular_point(C, inv, p)
        C1 = rst_transform(C, r, 0, t)
        a1, a2, a3, a4, a6 = C1
        assert a3 % p == 0 and a4 % p == 0 and a6 % p == 0

        if inv.c4 % p != 0:
            split = _quad_has_root(1, a1, -a2, p)
            cp = n if split else (2 if n % 2 == 0 else 1)
            kind = "multiplicative-split" if split else "multiplicative-nonsplit"
            return LocalReduction(p, f"I{n}", cp, n, kind, 1)

        if _vp(a6, p) < 2:
            return LocalReduction(p, "II", 1, n, "additive", n)
        inv1 = invariants(C1)
        if _vp(inv1.b8, p) < 3:
            return LocalReduction(p, "III", 2, n, "additive", n - 1)
        if _vp(inv1.b6, p) < 3:
            cp = 3 if _quad_has_root(1, a3 // p, -(a6 // (p * p)), p) else 1
            return LocalReduction(p, "IV", cp, n, "additive", n - 2)

        C3 = _normalize_step2(C1, p)
        a1, a2, a3, a4, a6 = C3
        assert _vp(a1, p) >= 1 and _vp(a2, p) >= 1
        assert _vp(a3, p) >= 2 and _vp(a4, p) >= 2 and _vp(a6, p) >= 3

        b, c, d = a2 // p, a4 // (p * p), a6 // p**3
        cubic_disc = (
            18 * b * c * d - 4 * b**3 * d + b * b * c * c - 4 * c**3 - 27 * d * d
        )
        if cubic_disc % p != 0:
            cp = 1 + count_cubic_roots_brute(b, c, d, p)
            return LocalReduction(p, "I0*", cp, n, "additive", n - 4)

        if (b * b - 3 * c) % p != 0:
            # double root of the cubic: type I_m* chain
            if p in (2, 3):
                x0 = next(
                    x
                    for x in range(p)
                    if (x**3 + b * x * x + c * x + d) % p == 0
                    and (3 * x * x + 2 * b * x + c) % p == 0
                )
            else:
                x0 = ((9 * d - b * c) * _inv(2 * (b * b - 3 * c), p)) % p
            Cm = rst_transform(C3, p * x0, 0, 0)
            assert _vp(Cm.a2, p) == 1 and _vp(Cm.a3, p) >= 2
            assert _vp(Cm.a4, p) >= 3 and _vp(Cm.a6, p) >= 4
            mx, my = p * p, p * p
            m = 1
            while True:
                a2t, a3t = Cm.a2 // p, Cm.a3 // my
                a4t, a6t = Cm.a4 // (p * mx), Cm.a6 // (mx * my)
                if m % 2 == 1:
                    if (a3t * a3t + 4 * a6t) % p != 0:
                        cp = 4 if _quad_has_root(1, a3t, -a6t, p) else 2
                        break
                    y0 = a6t % 2 if p == 2 else (-a3t * _inv(2, p)) % p
                    Cm = rst_transform(Cm, 0, 0, my * y0)
                    my *= p
                else:
                    if (a4t * a4t - 4 * a2t * a6t) % p != 0:
                        cp = 4 if _quad_has_root(a2t, a4t, a6t, p) else 2
                        break
                    x1 = a6t % 2 if p == 2 else (-a4t * _inv(2 * a2t, p)) % p
                    Cm = rst_transform(Cm, mx * x1, 0, 0)
                    mx *= p
                m += 1
                assert m <= n, "runaway I_m* chain"
            return LocalReduction(p, f"I{m}*", cp, n, "additive", n - 4 - m)

        # triple root of the cubic
        if p == 2:
            x0 = b % 2
        elif p == 3:
            x0 = (-d) % 3
        else:
            x0 = (-b * _inv(3, p)) % p
        C5 = rst_transform(C3, p * x0, 0, 0)
        assert _vp(C5.a2, p) >= 2 and _vp(C5.a3, p) >= 2
        assert _vp(C5.a4, p) >= 3 and _vp(C5.a6, p) >= 4

        a3t, a6t = C5.a3 // (p * p), C5.a6 // p**4
        if (a3t * a3t + 4 * a6t) % p != 0:
            cp = 3 if _quad_has_root(1, a3t, -a6t, p) else 1
            return LocalReduction(p, "IV*", cp, n, "additive", n - 6)

        y0 = a6t % 2 if p == 2 else (-a3t * _inv(2, p)) % p
        C6 = rst_transform(C5, 0, 0, p * p * y0)
        assert _vp(C6.a3, p) >= 3 and _vp(C6.a6, p) >= 5

        if _vp(C6.a4, p) < 4:
            return LocalReduction(p, "III*", 2, n, "additive", n - 7)
        if _vp(C6.a6, p) < 6:
            return LocalReduction(p, "II*", 1, n, "additive", n - 8)

        # non-minimal at p: rescale and restart
        assert _vp(C6.a1, p) >= 1 and _vp(C6.a2, p) >= 2
        C = WeierstrassModel(
            C6.a1 // p,
            C6.a2 // (p * p),
            C6.a3 // p**3,
            C6.a4 // p**4,
            C6.a6 // p**6,
        )


# ---------------------------------------------------------------------------
# the clause-by-clause admissibility reference
#
# The library admits each discriminant by its kronecker symbols at the
# primes of N as it builds the discriminant's row (twist_rows), and
# describes a twist only by its rows (validate_setup returns them).  This
# is the hypothesis as the paper states it, clause by clause, with the
# eight conductor pieces of a character pair, on the reference's own
# TwistSetup; it reads N and the local data from the library, takes its
# signs from kronecker itself, and decides nothing from a row's mask.

from quadtwist.arith import FundamentalDiscriminant, fundamental_discriminant, kronecker
from quadtwist.curves import MinimalModelResult, minimal_model
from quadtwist.localred import reduction_profile
from quadtwist.twistlaws import SetupError, join_rows


# The library keeps no memo of minimal models or Tate results, and the
# reference is asked once per instance: it keeps its own memo of each
# curve's minimal model and profile.
@lru_cache(maxsize=None)
def _minimal_model(E):
    return minimal_model(E)


@lru_cache(maxsize=None)
def _profile(mm: MinimalModelResult):
    return reduction_profile(mm)


class TwistSetup(NamedTuple):
    mm: MinimalModelResult  # minimal_model of the globally minimal curve
    conductor: int
    n_plus: int
    n_minus: int
    discriminants: tuple[FundamentalDiscriminant, ...]  # one or two
    local_data: dict[int, LocalReduction]
    plus_primes: tuple[int, ...]  # the primes of n_plus, increasing
    minus_primes: tuple[int, ...]  # the primes of n_minus, increasing
    signs: dict[int, tuple[int, ...]]  # p | N -> (chi_1(p)[, chi_2(p)])

    @property
    def curve(self) -> WeierstrassModel:
        return self.mm.minimal

    @property
    def is_pair(self) -> bool:
        return len(self.discriminants) == 2

    def chi(self, i: int, l: int) -> int:
        """Character value chi_i(l) = kronecker(D_i, l) at a prime l of N;
        i is 1-based."""
        return self.signs[l][i - 1]


def implied_setup(*rows) -> TwistSetup:
    """The TwistSetup a row, or the join of two rows, stands for."""
    facts = rows[0].facts
    minus = (rows[0] if len(rows) == 1 else join_rows(*rows)).minus.primes
    n_minus = math.prod(minus)
    return TwistSetup(
        facts.mm,
        facts.conductor,
        facts.conductor // n_minus,
        n_minus,
        tuple(r.disc for r in rows),
        facts.local_data,
        tuple(p for p in facts.local_data if p not in minus),
        minus,
        {p: tuple(kronecker(r.disc.value, p) for r in rows) for p in facts.local_data},
    )


def row_pairs(rows, pair_dmax: int):
    """The joins of the coprime pairs D1 < D2 <= pair_dmax of one curve's
    rows, ascending: every pair a sweep writes a record for, each joined
    on its own (the sweep evaluates one join per class pair)."""
    rows = [r for r in rows if r.disc.value <= pair_dmax]
    for i, r1 in enumerate(rows):
        for r2 in rows[i + 1 :]:
            if math.gcd(r1.disc.value, r2.disc.value) == 1:
                yield join_rows(r1, r2)


class Decomposition(NamedTuple):
    n1_plus_I: int
    n1_minus_I: int
    n1_plus_II: int
    n1_minus_II: int
    n2_plus_I: int
    n2_minus_I: int
    n2_plus_II: int
    n2_minus_II: int

    @property
    def n1_plus(self) -> int:
        return self.n1_plus_I * self.n1_plus_II

    @property
    def n1_minus(self) -> int:
        return self.n1_minus_I * self.n1_minus_II

    @property
    def n2_plus(self) -> int:
        return self.n2_plus_I * self.n2_plus_II

    @property
    def n2_minus(self) -> int:
        return self.n2_minus_I * self.n2_minus_II


def canonical_split(local_data: dict[int, LocalReduction], D: int):
    """Split N into (split part, inert part) for the discriminant D,
    mirroring the semistable construction: a prime goes to the inert part
    exactly when kronecker(D, p) = -1."""
    n_plus = n_minus = 1
    for p, loc in sorted(local_data.items()):
        s = kronecker(D, p)
        if s == 0:
            return None, f"gcd(D, N) > 1 at prime {p}"
        e = loc.conductor_exponent
        if s == 1:
            n_plus *= p**e
        else:
            n_minus *= p**e
    return (n_plus, n_minus), None


def reference_setup(
    E: WeierstrassModel,
    d1,
    d2=None,
    n_plus: int | None = None,
    n_minus: int | None = None,
    conductor: int | None = None,
) -> TwistSetup:
    """Check every clause of the twist hypothesis and return the setup.

    With one discriminant this is the split/inert hypothesis for
    (n_plus, n_minus); with a coprime pair (d1, d2) the hypothesis applies
    to their product, and the exact-division condition is enforced at any
    prime of N where either character is -1.  All violations are
    collected into a single SetupError.
    """
    reasons: list[str] = []
    mm = _minimal_model(E)
    if mm.minimal != E:
        reasons.append("curve model is not globally minimal")
    N, local_data = _profile(mm)
    if conductor is not None and conductor != N:
        reasons.append(f"stated conductor {conductor} != computed {N}")

    discs = []
    for d in (d1, d2) if d2 is not None else (d1,):
        try:
            if not isinstance(d, FundamentalDiscriminant):
                d = fundamental_discriminant(int(d))
            discs.append(d)
        except ValueError as exc:  # not fundamental, or above DISCRIMINANT_BOUND
            reasons.append(str(exc))
    if reasons:
        raise SetupError(reasons)
    if len(discs) == 2:
        if math.gcd(discs[0].value, discs[1].value) != 1:
            reasons.append("discriminant pair is not coprime")
        if discs[0].value == discs[1].value == 1:
            reasons.append("discriminant pair must not be (1, 1)")
    D = 1
    for f in discs:
        D *= f.value
    if reasons:
        raise SetupError(reasons)

    if n_plus is None or n_minus is None:
        split, err = canonical_split(local_data, D)
        if err:
            raise SetupError([err])
        n_plus, n_minus = split

    # factorization shape: n_plus, n_minus are never factored; once their
    # product is N, the primes of N dividing each are all of their primes
    plus_primes = tuple(p for p in local_data if n_plus % p == 0)
    minus_primes = tuple(p for p in local_data if n_minus % p == 0)
    signs = {p: tuple(kronecker(f.value, p) for f in discs) for p in local_data}
    setup = TwistSetup(
        mm, N, n_plus, n_minus, tuple(discs), local_data, plus_primes, minus_primes, signs
    )
    if n_plus < 1 or n_minus < 1:
        reasons.append("n_plus and n_minus must be positive")
    if n_plus * n_minus != N:
        reasons.append(f"n_plus * n_minus = {n_plus * n_minus} != N = {N}")
    if math.gcd(n_plus, n_minus) != 1:
        reasons.append("n_plus and n_minus are not coprime")
    if any(n_minus % (q * q) == 0 for q in setup.minus_primes):
        reasons.append(f"n_minus = {n_minus} is not squarefree")
    for q in setup.minus_primes:
        if not local_data[q].kind.startswith("multiplicative"):
            reasons.append(f"prime {q} of n_minus is not multiplicative")

    # split/inert hypothesis on D
    if math.gcd(D, N) != 1:
        reasons.append(f"gcd(D, N) = {math.gcd(D, N)} != 1")
    else:
        for l in setup.plus_primes:
            if kronecker(D, l) != 1:
                reasons.append(f"prime {l} | n_plus does not split (kronecker {kronecker(D, l)})")
        for q in setup.minus_primes:
            if kronecker(D, q) != -1:
                reasons.append(f"prime {q} | n_minus is not inert (kronecker {kronecker(D, q)})")

    # exact-division condition for pairs
    if len(discs) == 2 and math.gcd(D, N) == 1:
        for l, loc in sorted(local_data.items()):
            if -1 in signs[l] and loc.conductor_exponent != 1:
                reasons.append(
                    f"character -1 at prime {l} requires l || N (multiplicative reduction)"
                )

    if reasons:
        raise SetupError(reasons)
    return setup


def decompose(setup: TwistSetup) -> Decomposition:
    """The eight coprime conductor pieces attached to a character pair.

    The coprimality, symmetry and product identities they satisfy all
    follow from the setup hypotheses; they are asserted here rather than
    assumed.
    """
    if not setup.is_pair:
        raise ValueError("decompose requires a two-discriminant setup")
    parts = []
    for i in (1, 2):
        for primes, with_multiplicity in ((setup.plus_primes, True), (setup.minus_primes, False)):
            plus = minus = 1
            for l in primes:
                chi = setup.chi(i, l)
                assert chi != 0
                if chi == 1:
                    plus *= l ** setup.local_data[l].conductor_exponent if with_multiplicity else l
                else:
                    minus *= l
            parts.append((plus, minus))
    (p1I, m1I), (p1II, m1II), (p2I, m2I), (p2II, m2II) = parts
    dec = Decomposition(p1I, m1I, p1II, m1II, p2I, m2I, p2II, m2II)

    pieces = [dec.n1_plus_I, dec.n1_minus_I, dec.n1_plus_II, dec.n1_minus_II]
    for i in range(4):
        for j in range(i + 1, 4):
            assert math.gcd(pieces[i], pieces[j]) == 1
    assert dec.n1_plus_I == dec.n2_plus_I
    assert dec.n1_minus_I == dec.n2_minus_I
    assert dec.n1_plus_II == dec.n2_minus_II
    assert dec.n1_minus_II == dec.n2_plus_II
    assert setup.conductor == dec.n1_plus * dec.n1_minus == dec.n2_plus * dec.n2_minus
    assert setup.n_minus == dec.n1_minus_II * dec.n2_minus_II
    return dec


# ---------------------------------------------------------------------------
# the per-instance record reference
#
# The sweep builds one row per (curve, D) and joins rows into pairs.  This
# is the evaluation the sweep made before rows, one instance at a time
# from its setup: each twist's Tate data is read per instance as
# tate_local(general_twist_minimal(mm, d)[0], l), on the general twist
# below rather than the sweep's twist_minimal, the quantities and the c~
# bookkeeping are Fraction products, the bookkeeping's m_i come from
# decompose, and "equal modulo squares" is decided by sympy square
# classes.  The 2-adic case table is predict_two_adic below, stated on
# the 2-adic normal form.  The other closed forms (c~ and the inert base
# change as read off Tate's algorithm at q, u_D, the odd-prime fast path,
# the symbol) are the library's, as they are the independent side of
# each sweep check.  Each instance reads its curve's minimal_model from
# its setup.

from quadtwist.arith import factorize, fundamental_discriminants
from quadtwist.curves import minimal_from_invariants
from quadtwist.localred import tate_local, twist_prime_tamagawa_odd
from quadtwist.twistlaws import TwoAdicPrediction, symbol_closed_form, u_of_discriminant


def general_twist_minimal(mm: MinimalModelResult, d):
    """(minimal model of the twist of E by d, measured scale u_d), for the
    model E whose minimal_model is mm; d is any nonzero int or a parsed
    FundamentalDiscriminant, and u_d is a Fraction.  The library's
    twist_minimal is this form for a parsed D and mm.u_value = 1.

    The raw twist has invariants (d^2 c4, d^3 c6) and need not be
    integral at 2; its rescaling by [1/2, 0, 0, 0], with invariants
    (2^4 d^2 c4, 2^6 d^3 c6), always is.  u_d is the scale from the raw
    twist onto the global minimal model: the reduction's scale from the
    rescaled invariants, halved.  For d = 1 the twist is E itself, whose
    minimal model mm is.

    E's invariants are (u^4 C4, u^6 C6), for the invariants (C4, C6) of
    its minimal model and the scale u onto it, so the rescaled twist's
    discriminant 2^12 d^6 u^12 disc(E_min) has no primes but 2, those of
    d u and E's bad primes: only d u is factored, and only u when d is
    parsed, whose primes it carries.
    """
    fund = isinstance(d, FundamentalDiscriminant)
    if fund:
        d, d_primes = d.value, d.primes
    if d == 1:
        return mm.minimal, Fraction(mm.u_value)
    u, inv = mm.u_value, mm.invariants
    if not fund:
        d_primes = factorize(abs(d) * u).primes()
    elif u > 1:
        d_primes += factorize(u).primes()
    primes = sorted({2, *mm.bad_primes, *d_primes})
    tw = minimal_from_invariants(
        2**4 * d * d * u**4 * inv.c4, 2**6 * d**3 * u**6 * inv.c6, primes
    )
    return tw.minimal, Fraction(tw.u_value, 2)


def predict_two_adic(mm: MinimalModelResult, D: FundamentalDiscriminant) -> TwoAdicPrediction:
    """The case table's prediction for the twist of mm.minimal, good at
    2, by an even fundamental discriminant D, as stated on the 2-adic
    normal form S = two_strongly_minimal_brute(mm.minimal) and its
    pattern: pattern 2 gives (II*, 1) at v2(D) = 2 (case 1) and (II, 1)
    at v2(D) = 3 (case 2); pattern 1 gives I4* at v2(D) = 2 (case 1),
    with c2 = 2 when S.a6 = 1 or 2 mod 4, else 4, and I8* at v2(D) = 3
    (case 3), with c2 = 2 when the case-3 key P (a polynomial in S's
    coefficients and the odd part m of D) has v2(P) = 4, and 4 when
    v2(P) >= 5.  The residue scan proves v2(P) >= 4; a smaller one
    raises.  The library states the same table on c6, the discriminant
    and D (twistlaws._two_adic_prediction)."""
    S = two_strongly_minimal_brute(mm.minimal)
    a1, a2, a3, a4, a6 = S
    pattern = normal_form_pattern(S)
    if D.two_exponent == 2:
        if pattern == 2:
            return TwoAdicPrediction(1, "II*", 1)
        return TwoAdicPrediction(1, "I4*", 2 if a6 % 4 in (1, 2) else 4)
    if pattern == 2:
        return TwoAdicPrediction(2, "II", 1)
    m = D.odd_part
    if a6 % 2 == 1:
        P = 4 + 16 * a2 + 8 * a4 + 4 * a6 - 2 * m - 2 * m * a6 * a6 - 4 * m * a6
    else:
        P = a3 * a3 - 2 * m * a6 * a6 + 4 * a6
    v = _vp(P, 2)
    if v < 4:
        raise AssertionError(f"v2(P) = {v} below 4 for {tuple(S)}, D = {D.value}")
    return TwoAdicPrediction(3, "I8*", 2 if v == 4 else 4)


# The library keeps no memo of Tate results, and the reference asks for
# the same twist's local data once per instance: it keeps its own memo.
@lru_cache(maxsize=None)
def _twist_local(mm: MinimalModelResult, d: int, l: int):
    return tate_local(general_twist_minimal(mm, d)[0], l)


def _quantity_record(u: int, w: int, factors, components: dict) -> dict:
    q, k, pow2, even = fraction_quantity(u, w, factors)
    return {
        "quantity": str(q),
        "exponent": k,
        "is_power_of_two": pow2,
        "is_even_exponent": even,
        "components": {
            key: {str(p): c for p, c in val.items()} if isinstance(val, dict) else val
            for key, val in components.items()
        },
    }


def reference_single_record(label: str, setup: TwistSetup, mode: str) -> dict:
    """The sweep's record of a single-discriminant instance, timing
    aside."""
    E, mm = setup.curve, setup.mm
    (D,) = setup.discriminants
    checks: dict[str, bool] = {}
    flags: list[str] = []
    rec: dict = {"curve": label, "d": D.value, "n_plus": setup.n_plus, "n_minus": setup.n_minus}
    if mode in ("thm13", "all"):
        u = u_of_discriminant(mm, D)
        w = len(setup.minus_primes)
        c_twist = {l: _twist_local(mm, D.value, l).tamagawa for l in D.primes}
        c_t = {q: tate_local(E, q).c_tilde for q in setup.minus_primes}
        rec["quantity"] = _quantity_record(
            u,
            w,
            (*c_twist.values(), *c_t.values()),
            {"u": u, "omega_n_minus": w, "twist_tamagawa": c_twist, "c_tilde": c_t, "D": D.value},
        )
        checks["quantity_power_of_two"] = rec["quantity"]["is_power_of_two"]
        checks["quantity_even_exponent"] = rec["quantity"]["is_even_exponent"]
    if mode in ("lemmas", "all"):
        disc = mm.invariants.disc
        b = sum(setup.local_data[q].disc_valuation for q in setup.minus_primes)
        symbol = kronecker(disc, D.odd_part)
        checks["symbol_closed_form"] = symbol_closed_form(disc, D, b) == symbol
        odd = [l for l in D.primes if l != 2]
        assert all(disc % l for l in odd), "E must have good reduction at the primes of D"
        prod = math.prod(_twist_local(mm, D.value, l).tamagawa for l in odd)
        k = fraction_two_power(Fraction(prod))
        checks["tamagawa_product_symbol"] = k is not None and (k % 2 == 0) == (symbol == 1)
        u_closed = u_of_discriminant(mm, D)
        u_measured = general_twist_minimal(mm, D.value)[1]
        checks["u_closed_form"] = u_measured == u_closed
        if u_measured not in (1, 2):
            flags.append(f"measured u = {u_measured} outside {{1,2}}")
        rec["u"] = u_closed
        checks["odd_twist_fast_path"] = all(
            twist_prime_tamagawa_odd(mm, l) == _twist_local(mm, D.value, l).tamagawa
            for l in odd
        )
        if D.is_even:
            pred = predict_two_adic(mm, D)
            loc = _twist_local(mm, D.value, 2)
            checks["two_adic_case_table"] = (loc.kodaira, loc.tamagawa) == (
                pred.kodaira,
                pred.tamagawa,
            )
            rec["two_adic_case"] = (
                f"case {pred.case}: predicted ({pred.kodaira}, {pred.tamagawa}), "
                f"tate gives ({loc.kodaira}, {loc.tamagawa})"
            )
    rec["checks"] = checks
    if flags:
        rec["flags"] = flags
    return rec


def reference_pair_record(label: str, setup: TwistSetup, mode: str) -> dict:
    """The sweep's record of a pair instance, timing aside."""
    E, mm = setup.curve, setup.mm
    D1, D2 = setup.discriminants
    d1, d2 = D1.value, D2.value
    checks: dict[str, bool] = {}
    rec: dict = {
        "curve": label,
        "d1": d1,
        "d2": d2,
        "n_plus": setup.n_plus,
        "n_minus": setup.n_minus,
    }
    if mode in ("thm31", "all"):
        u1, u2 = u_of_discriminant(mm, D1), u_of_discriminant(mm, D2)
        w = len(setup.minus_primes)
        c1 = {l: _twist_local(mm, d1, l).tamagawa for l in D1.primes}
        c2 = {l: _twist_local(mm, d2, l).tamagawa for l in D2.primes}
        c_t = {q: tate_local(E, q).c_tilde for q in setup.minus_primes}
        dec = decompose(setup)
        m1 = [p for p in setup.local_data if dec.n1_minus % p == 0]
        m2 = [p for p in setup.local_data if dec.n2_minus % p == 0]
        ratio = Fraction(
            math.prod(tate_local(E, p).c_tilde for p in m1 + m2), math.prod(c_t.values())
        )
        k = fraction_two_power(ratio)
        book = {
            "omega_parity": (len(m1) + len(m2) - w) % 2 == 0,
            "c_tilde_product": k is not None and k % 2 == 0,
        }
        rec["quantity"] = _quantity_record(
            u1 * u2,
            w,
            (*c1.values(), *c2.values(), *c_t.values()),
            {
                "u1": u1,
                "u2": u2,
                "omega_n_minus": w,
                "twist_tamagawa_1": c1,
                "twist_tamagawa_2": c2,
                "c_tilde": c_t,
                "bookkeeping": book,
                "D1": d1,
                "D2": d2,
            },
        )
        checks["quantity_power_of_two"] = rec["quantity"]["is_power_of_two"]
        checks["quantity_even_exponent"] = rec["quantity"]["is_even_exponent"]
        checks["omega_parity"] = book["omega_parity"]
        checks["c_tilde_product"] = book["c_tilde_product"]
    if mode in ("lemmas", "all"):
        base = {
            q: tate_local(E, q).c_tilde * tate_local(E, q).inert_tamagawa
            for q in setup.minus_primes
        }
        checks["tamagawa_transfer_per_prime"] = all(
            base[q] == _twist_local(mm, d1, q).tamagawa * _twist_local(mm, d2, q).tamagawa
            for q in setup.minus_primes
        )
        lhs = math.prod(
            _twist_local(mm, d1, l).tamagawa * _twist_local(mm, d2, l).tamagawa
            for l in setup.local_data
        )
        checks["tamagawa_transfer_product"] = square_class(lhs) == square_class(
            math.prod(base.values())
        )
    rec["checks"] = checks
    return rec


def reference_records(corpus, d_max: int, pair_dmax: int, mode: str = "all") -> list[dict]:
    """Every instance record of a sweep, timing aside, in report order
    (curves by label, pairs before singles, each ascending).  Each
    instance is admitted by reference_setup, clause by clause: every
    single up to d_max, and every pair D1 < D2 up to min(d_max,
    pair_dmax)."""
    fds = list(fundamental_discriminants(d_max))
    pair_fds = [f for f in fds if f.value <= pair_dmax]
    out = []
    for rec in sorted(corpus, key=lambda r: r.label):
        E = minimal_model(rec.curve).minimal
        if mode in ("thm31", "lemmas", "all"):
            for i, f1 in enumerate(pair_fds):
                for f2 in pair_fds[i + 1 :]:
                    try:
                        setup = reference_setup(E, f1, f2)
                    except SetupError:
                        continue
                    out.append(reference_pair_record(rec.label, setup, mode))
        if mode in ("thm13", "lemmas", "all"):
            for f in fds:
                try:
                    setup = reference_setup(E, f)
                except SetupError:
                    continue
                out.append(reference_single_record(rec.label, setup, mode))
    return out


# ---------------------------------------------------------------------------
# Sweep reports as the CLI writes them

import io
import json

from quadtwist.harness import SweepReport, write_report


def sweep_report(corpus, d_max: int, mode: str = "all", **kw) -> dict:
    """The report write_report writes for this sweep, parsed.  kw goes to
    SweepReport (jobs, corpus_name, pair_dmax)."""
    out = io.StringIO()
    write_report(SweepReport(corpus, d_max, mode, **kw), out)
    return json.loads(out.getvalue())


def strip_timing(obj):
    """Report with every 'timing' subtree removed (for determinism tests)."""
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k != "timing"}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj
