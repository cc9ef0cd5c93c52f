"""Local reduction data via Tate's algorithm, at every prime (2 and 3
included), plus the closed-form local computations used by the twist
identities: odd-prime twist Tamagawa numbers by root counting, the parity
invariant c-tilde, and the inert base-change Tamagawa number.

The algorithm follows the classical normalization sequence.  At p = 2, 3
the coordinate changes are found by small exhaustive searches over
residues, with the resulting valuation profile asserted after every step;
at p >= 5 closed forms with modular inverses are used.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .arith import is_prime, kronecker, valuation
from .curves import (
    MinimalModelResult,
    WeierstrassModel,
    invariants,
    minimal_model,
    model,
    rst_transform,
)

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


def _vp(n, p: int) -> int:
    """Valuation with v(0) = a large sentinel, for threshold tests."""
    if n == 0:
        return 10**9
    return valuation(n, p)


def _inv(a: int, p: int) -> int:
    return pow(a % p, -1, p)


def _quad_has_root(A: int, B: int, C: int, p: int) -> bool:
    """Does A x^2 + B x + C = 0 have a root in F_p?  Requires p not | A."""
    assert A % p != 0
    if p == 2:
        return any((A * x * x + B * x + C) % 2 == 0 for x in (0, 1))
    disc = B * B - 4 * A * C
    return kronecker(disc, p) >= 0


def _trim(a: list[int]) -> list[int]:
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def count_cubic_roots(b: int, c: int, d: int, p: int) -> int:
    """Number of distinct roots of T^3 + b T^2 + c T + d in F_p.

    deg gcd(T^p - T, f) over F_p, so any prime is cheap.
    """
    if p < 50:
        return sum(1 for t in range(p) if (t**3 + b * t * t + c * t + d) % p == 0)
    f = [d % p, c % p, b % p, 1]

    def mulmod(g, h):
        prod = [0] * (len(g) + len(h) - 1)
        for i, gi in enumerate(g):
            if gi:
                for j, hj in enumerate(h):
                    prod[i + j] = (prod[i + j] + gi * hj) % p
        for k in range(len(prod) - 1, 2, -1):
            lead = prod[k]
            if lead:
                prod[k] = 0
                prod[k - 1] = (prod[k - 1] - lead * f[2]) % p
                prod[k - 2] = (prod[k - 2] - lead * f[1]) % p
                prod[k - 3] = (prod[k - 3] - lead * f[0]) % p
        return _trim(prod)

    # T^p mod f by square-and-multiply
    result, base = [1], [0, 1]
    e = p
    while e:
        if e & 1:
            result = mulmod(result, base)
        base = mulmod(base, base)
        e >>= 1
    g = result + [0] * (3 - len(result))
    g[1] = (g[1] - 1) % p
    g = _trim(g)

    # gcd(f, g) degree
    u, v = f[:], g
    while v != [0]:
        inv_lead = pow(v[-1], -1, p)
        while u != [0] and len(u) >= len(v):
            coef = u[-1] * inv_lead % p
            shift = len(u) - len(v)
            for i, vi in enumerate(v):
                u[shift + i] = (u[shift + i] - coef * vi) % p
            u = _trim(u)
            if u == [0]:
                break
        u, v = v, u
    return len(u) - 1


def _find_singular_point(E: WeierstrassModel, p: int) -> tuple[int, int]:
    """(r, t) mod p moving the singular point of the reduction to (0,0)."""
    a1, a2, a3, a4, a6 = E
    inv = invariants(E)
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


@lru_cache(maxsize=None)
def tate_local(E: WeierstrassModel, p: int) -> LocalReduction:
    """Kodaira type, Tamagawa number, minimal discriminant valuation and
    reduction kind of E at p.

    Accepts any integral model; re-minimizes at p internally, so the
    reported disc_valuation is that of a p-minimal model.
    """
    if not E.is_integral:
        raise ValueError("tate_local requires an integral model")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    C = E
    while True:
        inv = invariants(C)  # raises SingularModelError when disc = 0
        n = _vp(inv.disc, p)
        if n == 0:
            return LocalReduction(p, "I0", 1, 0, GOOD, 0)

        r, t = _find_singular_point(C, p)
        C1 = rst_transform(C, r, 0, t)
        a1, a2, a3, a4, a6 = C1
        assert a3 % p == 0 and a4 % p == 0 and a6 % p == 0

        if inv.c4 % p != 0:
            split = _quad_has_root(1, a1, -a2, p)
            cp = n if split else (2 if n % 2 == 0 else 1)
            kind = MULT_SPLIT if split else MULT_NONSPLIT
            return LocalReduction(p, f"I{n}", cp, n, kind, 1)

        if _vp(a6, p) < 2:
            return LocalReduction(p, "II", 1, n, ADDITIVE, n)
        if _vp(invariants(C1).b8, p) < 3:
            return LocalReduction(p, "III", 2, n, ADDITIVE, n - 1)
        if _vp(invariants(C1).b6, p) < 3:
            cp = 3 if _quad_has_root(1, a3 // p, -(a6 // (p * p)), p) else 1
            return LocalReduction(p, "IV", cp, n, ADDITIVE, n - 2)

        C3 = _normalize_step2(C1, p)
        a1, a2, a3, a4, a6 = C3
        assert _vp(a1, p) >= 1 and _vp(a2, p) >= 1
        assert _vp(a3, p) >= 2 and _vp(a4, p) >= 2 and _vp(a6, p) >= 3

        b, c, d = a2 // p, a4 // (p * p), a6 // p**3
        cubic_disc = (
            18 * b * c * d - 4 * b**3 * d + b * b * c * c - 4 * c**3 - 27 * d * d
        )
        if cubic_disc % p != 0:
            cp = 1 + count_cubic_roots(b, c, d, p)
            return LocalReduction(p, "I0*", cp, n, ADDITIVE, n - 4)

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
            return LocalReduction(p, f"I{m}*", cp, n, ADDITIVE, n - 4 - m)

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
            return LocalReduction(p, "IV*", cp, n, ADDITIVE, n - 6)

        y0 = a6t % 2 if p == 2 else (-a3t * _inv(2, p)) % p
        C6 = rst_transform(C5, 0, 0, p * p * y0)
        assert _vp(C6.a3, p) >= 3 and _vp(C6.a6, p) >= 5

        if _vp(C6.a4, p) < 4:
            return LocalReduction(p, "III*", 2, n, ADDITIVE, n - 7)
        if _vp(C6.a6, p) < 6:
            return LocalReduction(p, "II*", 1, n, ADDITIVE, n - 8)

        # non-minimal at p: rescale and restart
        assert _vp(C6.a1, p) >= 1 and _vp(C6.a2, p) >= 2
        C = model(
            C6.a1 // p,
            C6.a2 // (p * p),
            C6.a3 // p**3,
            C6.a4 // p**4,
            C6.a6 // p**6,
        )


def reduction_profile(
    E: WeierstrassModel,
) -> tuple[int, MinimalModelResult, dict[int, LocalReduction]]:
    """Conductor N = prod p^f_p together with per-prime local data,
    computed on the global minimal model."""
    mm = minimal_model(E)
    data = {}
    N = 1
    for p in mm.bad_primes:
        loc = tate_local(mm.minimal, p)
        data[p] = loc
        N *= p**loc.conductor_exponent
    return N, mm, data


def conductor(E: WeierstrassModel) -> int:
    return reduction_profile(E)[0]


def depressed_cubic_mod(E: WeierstrassModel, l: int) -> tuple[int, int, int]:
    """Coefficients mod an odd prime l of the cubic f with y^2 = f(x),
    obtained by completing the square (disc = 16 disc(f))."""
    assert l % 2 == 1
    inv = invariants(E)
    i2, i4 = _inv(2, l), _inv(4, l)
    return (inv.b2 * i4 % l, inv.b4 * i2 % l, inv.b6 * i4 % l)


def twist_prime_tamagawa_odd(E: WeierstrassModel, l: int, D: int) -> int:
    """Tamagawa number at an odd prime l | D of the twist of E by D, for E
    with good reduction at l: 1 + #roots of the depressed cubic mod l."""
    if l == 2 or not is_prime(l):
        raise ValueError("l must be an odd prime")
    if D % l != 0:
        raise ValueError("l must divide D")
    Emin = minimal_model(E).minimal
    if valuation(invariants(Emin).disc, l) != 0:
        raise ValueError(f"E must have good reduction at {l}")
    b, c, d = depressed_cubic_mod(Emin, l)
    cp = 1 + count_cubic_roots(b, c, d, l)
    assert cp in (1, 2, 4)
    return cp


def c_tilde(E: WeierstrassModel, q: int) -> int:
    """1 if v_q of the minimal discriminant is odd, else 2; q must be a
    prime of multiplicative reduction."""
    loc = tate_local(E, q)
    if not loc.kind.startswith("multiplicative"):
        raise ValueError(f"{q} is not a multiplicative prime")
    return 2 - (loc.disc_valuation % 2)


def inert_base_change_tamagawa(E: WeierstrassModel, q: int) -> int:
    """Tamagawa number over a quadratic field in which q stays inert:
    equals v_q of the minimal discriminant (reduction becomes split)."""
    loc = tate_local(E, q)
    if not loc.kind.startswith("multiplicative"):
        raise ValueError(f"{q} is not a multiplicative prime")
    return loc.disc_valuation
