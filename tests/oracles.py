"""Independent oracles used by the test suite.

The oracles up to the references call nothing of the library's own
reduction machinery: point counts are brute force, factorizations come
from sympy, and reduction types are pinned by counting components
through the conductor-degree relation on curves whose conductor is
vouched for by their standard label.  The two references at the end do
call it.  The admissibility reference takes N and the local data from
the library and checks the twist hypothesis clause by clause.  The
per-instance record reference evaluates each sweep instance from its
setup alone, reading the twists' Tate data afresh.
"""

from __future__ import annotations

import math
from fractions import Fraction
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
# the clause-by-clause admissibility reference
#
# The library decides admissibility from each discriminant's signs at the
# primes of N (admissible_signs, setup_from_signs), and validate_setup
# builds on them.  This is the hypothesis as the paper states it, clause
# by clause, with the eight conductor pieces of a character pair; it reads
# N and the local data from the library, and decides nothing from the
# sign table.

from quadtwist.arith import kronecker
from quadtwist.curves import WeierstrassModel, minimal_model
from quadtwist.localred import LocalReduction, reduction_profile
from quadtwist.twistlaws import SetupError, TwistSetup, _as_fund


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
    mm = minimal_model(E)
    if mm.minimal != E:
        reasons.append("curve model is not globally minimal")
        E = mm.minimal
    N, local_data = reduction_profile(E)
    if conductor is not None and conductor != N:
        reasons.append(f"stated conductor {conductor} != computed {N}")

    discs = []
    for d in (d1, d2) if d2 is not None else (d1,):
        try:
            discs.append(_as_fund(d))
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
        E, N, n_plus, n_minus, tuple(discs), local_data, plus_primes, minus_primes, signs
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
# tate_local(twist_minimal(E, d)[0], l), the quantities and the c~
# bookkeeping are Fraction products, the bookkeeping's m_i come from
# decompose, and "equal modulo squares" is decided by sympy square
# classes.  The closed forms (c~, the inert base change, u_D, the
# odd-prime fast path, the 2-adic prediction, the symbol) are the
# library's, as they are the independent side of each sweep check.

from quadtwist.arith import fundamental_discriminants
from quadtwist.localred import (
    c_tilde,
    inert_base_change_tamagawa,
    tate_local,
    twist_prime_tamagawa_odd,
)
from quadtwist.twistlaws import (
    predict_two_adic,
    symbol_closed_form,
    twist_minimal,
    u_of_discriminant,
)


def _twist_local(E, d: int, l: int):
    return tate_local(twist_minimal(E, d)[0], l)


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
    E = setup.curve
    (D,) = setup.discriminants
    checks: dict[str, bool] = {}
    flags: list[str] = []
    rec: dict = {"curve": label, "d": D.value, "n_plus": setup.n_plus, "n_minus": setup.n_minus}
    if mode in ("thm13", "all"):
        u = u_of_discriminant(E, D)
        w = len(setup.minus_primes)
        c_twist = {l: _twist_local(E, D.value, l).tamagawa for l in D.primes}
        c_t = {q: c_tilde(E, q) for q in setup.minus_primes}
        rec["quantity"] = _quantity_record(
            u,
            w,
            (*c_twist.values(), *c_t.values()),
            {"u": u, "omega_n_minus": w, "twist_tamagawa": c_twist, "c_tilde": c_t, "D": D.value},
        )
        checks["quantity_power_of_two"] = rec["quantity"]["is_power_of_two"]
        checks["quantity_even_exponent"] = rec["quantity"]["is_even_exponent"]
    if mode in ("lemmas", "all"):
        disc = minimal_model(E).invariants.disc
        b = sum(setup.local_data[q].disc_valuation for q in setup.minus_primes)
        symbol = kronecker(disc, D.odd_part)
        checks["symbol_closed_form"] = symbol_closed_form(disc, D, b) == symbol
        odd = [l for l in D.primes if l != 2]
        assert all(disc % l for l in odd), "E must have good reduction at the primes of D"
        prod = math.prod(_twist_local(E, D.value, l).tamagawa for l in odd)
        k = fraction_two_power(Fraction(prod))
        checks["tamagawa_product_symbol"] = k is not None and (k % 2 == 0) == (symbol == 1)
        u_closed = u_of_discriminant(E, D)
        u_measured = twist_minimal(E, D.value)[1]
        checks["u_closed_form"] = u_measured == u_closed
        if u_measured not in (1, 2):
            flags.append(f"measured u = {u_measured} outside {{1,2}}")
        rec["u"] = u_closed
        checks["odd_twist_fast_path"] = all(
            twist_prime_tamagawa_odd(E, l, D.value) == _twist_local(E, D.value, l).tamagawa
            for l in odd
        )
        if D.is_even:
            pred = predict_two_adic(E, D)
            loc = _twist_local(E, D.value, 2)
            assert pred.tamagawa is not None, "v2(P) below 4"
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
    E = setup.curve
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
        u1, u2 = u_of_discriminant(E, D1), u_of_discriminant(E, D2)
        w = len(setup.minus_primes)
        c1 = {l: _twist_local(E, d1, l).tamagawa for l in D1.primes}
        c2 = {l: _twist_local(E, d2, l).tamagawa for l in D2.primes}
        c_t = {q: c_tilde(E, q) for q in setup.minus_primes}
        dec = decompose(setup)
        m1 = [p for p in setup.local_data if dec.n1_minus % p == 0]
        m2 = [p for p in setup.local_data if dec.n2_minus % p == 0]
        ratio = Fraction(math.prod(c_tilde(E, p) for p in m1 + m2), math.prod(c_t.values()))
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
        base = {q: c_tilde(E, q) * inert_base_change_tamagawa(E, q) for q in setup.minus_primes}
        checks["tamagawa_transfer_per_prime"] = all(
            base[q] == _twist_local(E, d1, q).tamagawa * _twist_local(E, d2, q).tamagawa
            for q in setup.minus_primes
        )
        lhs = math.prod(
            _twist_local(E, d1, l).tamagawa * _twist_local(E, d2, l).tamagawa
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
