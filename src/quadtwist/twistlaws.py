"""The twist-identity layer: setups built from character sign vectors,
which decide admissibility (validate_setup checks user input on top of
them), the period scale u_D, the even-two-power quantities with the
pair's proof bookkeeping, the local product identities, the closed-form
symbol evaluation, the Tamagawa-at-2 case cross-checks, and the
auxiliary-discriminant search.

Each quantity is an integer numerator over 2^w, w = omega(n_minus): it
is accumulated and judged on ints (its 2-adic exponent by a bit test),
and one Fraction is built per reported quantity, for its string.  "Equal
modulo squares" is decided by an integer square root, without factoring.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .arith import (
    FundamentalDiscriminant,
    factorize,
    fundamental_discriminant,
    fundamental_discriminants,
    kronecker,
    valuation,
)
from .curves import (
    WeierstrassModel,
    minimal_from_invariants,
    minimal_model,
    pattern_of_normal_form,
    two_strongly_minimal,
)
from .localred import (
    LocalReduction,
    c_tilde,
    inert_base_change_tamagawa,
    reduction_profile,
    tate_local,
)


class SetupError(ValueError):
    """Invalid twist setup; carries one reason string per violated clause."""

    def __init__(self, reasons: list[str]):
        super().__init__("; ".join(reasons))
        self.reasons = reasons


class TwistSetup(NamedTuple):
    curve: WeierstrassModel  # globally minimal
    conductor: int
    n_plus: int
    n_minus: int
    discriminants: tuple[FundamentalDiscriminant, ...]  # one or two
    local_data: dict[int, LocalReduction]
    plus_primes: tuple[int, ...]  # the primes of n_plus, increasing
    minus_primes: tuple[int, ...]  # the primes of n_minus, increasing
    signs: dict[int, tuple[int, ...]]  # p | N -> (chi_1(p)[, chi_2(p)])

    @property
    def is_pair(self) -> bool:
        return len(self.discriminants) == 2

    @property
    def combined(self) -> FundamentalDiscriminant:
        d = 1
        for f in self.discriminants:
            d *= f.value
        return fundamental_discriminant(d)

    def chi(self, i: int, l: int) -> int:
        """Character value chi_i(l) = kronecker(D_i, l) at a prime l of N;
        i is 1-based."""
        return self.signs[l][i - 1]


class ExponentVerdict(NamedTuple):
    quantity: Fraction
    exponent: int | None  # k with quantity = 2**k, when it is one
    is_power_of_two: bool
    is_even_exponent: bool
    components: dict


class CheckResult(NamedTuple):
    ok: bool
    detail: str

    def __bool__(self) -> bool:  # truthiness = verdict
        return self.ok


def equal_mod_squares(a: Fraction | int, b: Fraction | int) -> bool:
    """Equality in Q*/(Q*)^2 of a = p/q and b = r/s (ints or Fractions):
    a/b = ps/(qr) differs from pqrs by the square (qr)^2, so a and b share
    a class iff pqrs is a positive square."""
    if a == 0 or b == 0:
        raise ValueError("zero has no square class")
    n = a.numerator * a.denominator * b.numerator * b.denominator
    return n > 0 and math.isqrt(n) ** 2 == n


def _exponent(num: int, den: int) -> int | None:
    """k with num / den = 2**k exactly, or None; den > 0."""
    g = math.gcd(num, den)
    num, den = num // g, den // g
    if num <= 0 or num & (num - 1) or den & (den - 1):
        return None
    return num.bit_length() - den.bit_length()


def _verdict(num: int, w: int, components: dict) -> ExponentVerdict:
    """The verdict on num / 2**w, decided on ints; the Fraction is built
    only to report the quantity."""
    k = _exponent(num, 1 << w)
    return ExponentVerdict(
        quantity=Fraction(num, 1 << w),
        exponent=k,
        is_power_of_two=k is not None,
        is_even_exponent=k is not None and k % 2 == 0,
        components=components,
    )


def _as_fund(d) -> FundamentalDiscriminant:
    """The one int-to-FundamentalDiscriminant step; a parsed value passes
    through as it is."""
    if isinstance(d, FundamentalDiscriminant):
        return d
    return fundamental_discriminant(int(d))


# ---------------------------------------------------------------------------
# setup validation


def validate_setup(E: WeierstrassModel, d1, d2=None) -> TwistSetup:
    """Check a twist setup given by a user and return it.

    D is d1, or the product of a coprime pair (d1, d2) other than (1, 1),
    and must be coprime to N.  The setup is the canonical one, built from
    the discriminants' signs at the primes of N (setup_from_signs): once
    gcd(D, N) = 1 every prime of N splits or is inert, so D alone fixes
    (n_plus, n_minus).  A character that is -1 at a prime of N needs that
    prime to divide N exactly.  All violations are collected into a
    single SetupError.
    """
    reasons: list[str] = []
    mm = minimal_model(E)
    if mm.minimal != E:
        reasons.append("curve model is not globally minimal")
        E = mm.minimal
    N, local_data = reduction_profile(E)
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
    g = math.gcd(math.prod(f.value for f in discs), N)
    if not reasons and g != 1:
        reasons.append(f"gcd(D, N) = {g} != 1")
    if reasons:
        raise SetupError(reasons)

    sign_vectors = tuple(tuple(kronecker(f.value, p) for p in local_data) for f in discs)
    setup = setup_from_signs(E, N, local_data, tuple(discs), sign_vectors)
    for l, loc in local_data.items():
        if -1 in setup.signs[l] and loc.conductor_exponent != 1:
            reasons.append(
                f"character -1 at prime {l} requires {l} || N (multiplicative reduction)"
            )
    if reasons:
        raise SetupError(reasons)
    return setup


def admissible_signs(
    local_data: dict[int, LocalReduction], f: FundamentalDiscriminant
) -> tuple[int, ...] | None:
    """The signs kronecker(D, p) at the primes p of N (in local_data
    order) when D is admissible for the canonical split, else None.

    D is admissible exactly when no sign is 0 (gcd(D, N) = 1) and every
    -1 sits at a prime with conductor exponent 1, the multiplicative
    primes that n_minus may hold.  Kronecker is multiplicative in D, and
    the exact-division clause forces both signs +1 at every prime with
    exponent >= 2, so a coprime pair is admissible exactly when both of
    its discriminants are.
    """
    signs = []
    for p, loc in local_data.items():
        s = kronecker(f.value, p)
        if s == 0 or s == -1 and loc.conductor_exponent != 1:
            return None
        signs.append(s)
    return tuple(signs)


def setup_from_signs(
    E: WeierstrassModel,
    N: int,
    local_data: dict[int, LocalReduction],
    discs: tuple[FundamentalDiscriminant, ...],
    sign_vectors: tuple[tuple[int, ...], ...],
) -> TwistSetup:
    """The canonical setup of an admissible discriminant, or of a coprime
    pair of them, from their admissible_signs vectors: a prime of N goes
    to n_minus exactly when the product of its signs is -1.  Nothing is
    validated here."""
    signs = dict(zip(local_data, zip(*sign_vectors)))
    n_plus = n_minus = 1
    plus_primes, minus_primes = [], []
    for p, s in signs.items():
        q = p ** local_data[p].conductor_exponent
        if math.prod(s) == 1:
            n_plus *= q
            plus_primes.append(p)
        else:
            n_minus *= q
            minus_primes.append(p)
    return TwistSetup(
        E, N, n_plus, n_minus, discs, local_data, tuple(plus_primes), tuple(minus_primes), signs
    )


# ---------------------------------------------------------------------------
# twist local data and u_D


@lru_cache(maxsize=None)
def twist_minimal(E: WeierstrassModel, d: int):
    """(minimal model of the twist of E by d, measured scale u_d).

    The raw twist has invariants (d^2 c4, d^3 c6) and need not be
    integral at 2; its rescaling by [1/2, 0, 0, 0], with invariants
    (2^4 d^2 c4, 2^6 d^3 c6), always is.  u_d is the scale from the raw
    twist onto the global minimal model: the reduction's scale from the
    rescaled invariants, halved.  For d = 1 the twist is E itself, whose
    minimal model every sweep already holds.

    E's invariants are (u^4 C4, u^6 C6), for the invariants (C4, C6) of
    its minimal model and the scale u onto it, so the rescaled twist's
    discriminant 2^12 d^6 u^12 disc(E_min) has no primes but 2, those of
    d u and E's bad primes: only d u is factored.
    """
    mm = minimal_model(E)
    if d == 1:
        return mm.minimal, Fraction(mm.u_value)
    u, inv = mm.u_value, mm.invariants
    primes = sorted({2, *mm.bad_primes, *factorize(abs(d) * u).primes()})
    tw = minimal_from_invariants(
        2**4 * d * d * u**4 * inv.c4, 2**6 * d**3 * u**6 * inv.c6, primes
    )
    return tw.minimal, Fraction(tw.u_value, 2)


def u_of_discriminant(E: WeierstrassModel, D) -> int:
    """Closed-form period scale of the twist by a positive fundamental
    discriminant coprime to the conductor: 1 unless v2(D) = 3 and
    v2(c6) = 3, in which case 2.  E is globally minimal; c6 and the
    discriminant are read from its minimal_model entry."""
    D = _as_fund(D)
    if D.two_exponent <= 2:
        return 1
    inv = minimal_model(E).invariants
    if valuation(inv.disc, 2) != 0:
        raise ValueError("even discriminant twist requires good reduction at 2")
    v = valuation(inv.c6, 2) if inv.c6 else 99
    if v == 0:
        return 1
    if v == 3:
        return 2
    raise AssertionError(f"v2(c6) = {v} not in {{0, 3}} for a minimal model good at 2")


def measured_u(E: WeierstrassModel, D) -> Fraction:
    """u extracted from the actual minimization of the twist model."""
    D = _as_fund(D)
    return twist_minimal(E, D.value)[1]


# ---------------------------------------------------------------------------
# the even-two-power quantities


def _twist_tamagawa_at(E: WeierstrassModel, d: int, p: int) -> LocalReduction:
    return tate_local(twist_minimal(E, d)[0], p)


def twist_quantity(setup: TwistSetup) -> ExponentVerdict:
    """u_D / 2^omega(n_minus) * prod_{l | D} c_l(twist) * prod_{q | n_minus}
    c~_{q}(E), as an exact rational, with the evenness verdict."""
    if setup.is_pair:
        raise ValueError("single-discriminant setup required")
    D = setup.discriminants[0]
    E = setup.curve
    u = u_of_discriminant(E, D)
    w = len(setup.minus_primes)
    c_twist = {l: _twist_tamagawa_at(E, D.value, l).tamagawa for l in D.primes}
    c_t = {q: c_tilde(E, q) for q in setup.minus_primes}
    return _verdict(
        u * math.prod(c_twist.values()) * math.prod(c_t.values()),
        w,
        {
            "u": u,
            "omega_n_minus": w,
            "twist_tamagawa": c_twist,
            "c_tilde": c_t,
            "D": D.value,
        },
    )


def pair_twist_quantity(setup: TwistSetup) -> ExponentVerdict:
    """Pair version of the quantity, with the proof bookkeeping checked
    on the side (each verdict in components['bookkeeping']).

    With m_i the primes of N where chi_i = -1: omega(m_1) + omega(m_2) =
    omega(n_minus) mod 2, and the c~ product over m_1 and m_2 equals the
    one over n_minus up to an even power of two.  The conductor pieces'
    own identities (n_minus is m_1 symmetric-difference m_2, each prime
    of m_1 and m_2 divides N exactly) hold by construction of the setup.
    """
    if not setup.is_pair:
        raise ValueError("pair setup required")
    E = setup.curve
    D1, D2 = setup.discriminants
    u1 = u_of_discriminant(E, D1)
    u2 = u_of_discriminant(E, D2)
    w = len(setup.minus_primes)
    c1 = {l: _twist_tamagawa_at(E, D1.value, l).tamagawa for l in D1.primes}
    c2 = {l: _twist_tamagawa_at(E, D2.value, l).tamagawa for l in D2.primes}
    c_t = {q_: c_tilde(E, q_) for q_ in setup.minus_primes}
    num = u1 * u2 * math.prod(c1.values()) * math.prod(c2.values()) * math.prod(c_t.values())

    # proof bookkeeping; c_t already holds c~_q for every q | n_minus
    m1 = [p for p, s in setup.signs.items() if s[0] == -1]
    m2 = [p for p, s in setup.signs.items() if s[1] == -1]
    parity_ok = (len(m1) + len(m2) - w) % 2 == 0
    k = _exponent(math.prod(c_tilde(E, p) for p in m1 + m2), math.prod(c_t.values()))
    product_ok = k is not None and k % 2 == 0

    return _verdict(
        num,
        w,
        {
            "u1": u1,
            "u2": u2,
            "omega_n_minus": w,
            "twist_tamagawa_1": c1,
            "twist_tamagawa_2": c2,
            "c_tilde": c_t,
            "bookkeeping": {"omega_parity": parity_ok, "c_tilde_product": product_ok},
            "D1": D1.value,
            "D2": D2.value,
        },
    )


# ---------------------------------------------------------------------------
# the local identities


def tamagawa_transfer_check(setup: TwistSetup, q: int) -> CheckResult:
    """c~_{q}(E) * c_{q}(E over the inert quadratic field) against
    c_{q}(twist by D1) * c_{q}(twist by D2), at a prime q of n_minus."""
    if not setup.is_pair:
        raise ValueError("pair setup required")
    if setup.n_minus % q != 0:
        raise ValueError(f"{q} does not divide n_minus")
    E = setup.curve
    lhs = c_tilde(E, q) * inert_base_change_tamagawa(E, q)
    d1, d2 = (f.value for f in setup.discriminants)
    rhs = (
        _twist_tamagawa_at(E, d1, q).tamagawa * _twist_tamagawa_at(E, d2, q).tamagawa
    )
    return CheckResult(lhs == rhs, f"q={q}: {lhs} vs {rhs}")


def tamagawa_transfer_product_check(setup: TwistSetup) -> CheckResult:
    """Product over all primes of N of both twists' Tamagawa numbers,
    compared modulo squares with prod c~_{q} * c_{q}(inert base change)."""
    if not setup.is_pair:
        raise ValueError("pair setup required")
    E = setup.curve
    d1, d2 = (f.value for f in setup.discriminants)
    lhs = 1
    for l in sorted(setup.local_data):
        lhs *= _twist_tamagawa_at(E, d1, l).tamagawa
        lhs *= _twist_tamagawa_at(E, d2, l).tamagawa
    rhs = 1
    for q in setup.minus_primes:
        rhs *= c_tilde(E, q) * inert_base_change_tamagawa(E, q)
    ok = equal_mod_squares(lhs, rhs)
    return CheckResult(ok, f"{lhs} vs {rhs} (mod squares)")


def inert_valuation_sum(setup: TwistSetup) -> int:
    """b = sum of v_{q}(min disc) over primes q of n_minus."""
    return sum(setup.local_data[q].disc_valuation for q in setup.minus_primes)


def symbol_closed_form(delta: int, D, b: int) -> int:
    """Closed-form value of the symbol (delta | odd part of D) under the
    split/inert hypothesis, given b = sum of inert-prime valuations."""
    D = _as_fund(D)
    sign = (-1) ** b
    if D.two_exponent == 0:
        return sign
    if D.two_exponent == 2:
        return sign if delta % 4 == 1 else -sign
    if D.two_exponent == 3:
        r8, m4 = delta % 8, D.odd_part % 4
        if r8 == 1 or (r8 == 3 and m4 == 3) or (r8 == 7 and m4 == 1):
            return sign
        if r8 == 5 or (r8 == 3 and m4 == 1) or (r8 == 7 and m4 == 3):
            return -sign
        raise ValueError(f"delta = {delta} must be odd when D is even")
    raise ValueError("invalid discriminant shape")


def tamagawa_symbol_check(E: WeierstrassModel, D) -> CheckResult:
    """With m the odd part of D: prod_{l | m} c_l(twist by D) is a power of
    two, square exactly when kronecker(min disc, m) = 1."""
    D = _as_fund(D)
    m = D.odd_part
    mm = minimal_model(E)
    E, disc = mm.minimal, mm.invariants.disc
    prod = 1
    for l in D.primes:
        if l == 2:
            continue
        if valuation(disc, l) != 0:
            raise ValueError(f"E must have good reduction at {l}")
        prod *= _twist_tamagawa_at(E, D.value, l).tamagawa
    k = _exponent(prod, 1)
    symbol = kronecker(disc, m)
    ok = k is not None and ((k % 2 == 0) == (symbol == 1))
    return CheckResult(ok, f"prod={prod}, symbol={symbol}")


# ---------------------------------------------------------------------------
# Tamagawa-at-2 case cross-checks for even D


class TwoAdicPrediction(NamedTuple):
    case: int  # 1, 2 or 3
    kodaira: str
    tamagawa: int
    pattern: int


def predict_two_adic(E: WeierstrassModel, D) -> TwoAdicPrediction:
    """Predicted Kodaira type and Tamagawa number at 2 of the twist by an
    even fundamental discriminant, from the 2-adic normal form of E."""
    D = _as_fund(D)
    if not D.is_even:
        raise ValueError("even discriminant required")
    S = two_strongly_minimal(minimal_model(E).minimal)
    pat = pattern_of_normal_form(S)
    a1, a2, a3, a4, a6 = S
    if D.two_exponent == 2:
        if pat == 2:
            return TwoAdicPrediction(1, "II*", 1, pat)
        c = 2 if a6 % 4 in (1, 2) else 4
        return TwoAdicPrediction(1, "I4*", c, pat)
    # v2(D) = 3
    if pat == 2:
        return TwoAdicPrediction(2, "II", 1, pat)
    m = D.odd_part
    if a6 % 2 == 1:
        P = 4 + 16 * a2 + 8 * a4 + 4 * a6 - 2 * m - 2 * m * a6 * a6 - 4 * m * a6
    else:
        P = a3 * a3 - 2 * m * a6 * a6 + 4 * a6
    v = valuation(P, 2) if P else 99
    assert v >= 4, f"P-valuation {v} below 4 contradicts the case table"
    return TwoAdicPrediction(3, "I8*", 2 if v == 4 else 4, pat)


def check_two_adic_case(E: WeierstrassModel, D) -> CheckResult:
    """Compare the prediction against a full Tate run at 2 on the twist."""
    D = _as_fund(D)
    pred = predict_two_adic(E, D)
    loc = _twist_tamagawa_at(minimal_model(E).minimal, D.value, 2)
    ok = (loc.kodaira, loc.tamagawa) == (pred.kodaira, pred.tamagawa)
    return CheckResult(
        ok,
        f"case {pred.case}: predicted ({pred.kodaira}, {pred.tamagawa}), "
        f"tate gives ({loc.kodaira}, {loc.tamagawa})",
    )


# ---------------------------------------------------------------------------
# auxiliary discriminant search


def search_discriminant(
    sign_pattern: dict[int, int], coprime_to: int = 1, bound: int = 10**6
) -> FundamentalDiscriminant:
    """Smallest fundamental discriminant D3 > 1 coprime to coprime_to with
    kronecker(D3, p) equal to the required sign at every constrained
    prime.  Raises if the scan bound is exhausted."""
    for f in fundamental_discriminants(bound):
        if f.value == 1 or math.gcd(f.value, coprime_to) != 1:
            continue
        if all(kronecker(f.value, p) == s for p, s in sign_pattern.items()):
            return f
    raise SetupError([f"no discriminant matching {sign_pattern} up to {bound}"])


def find_auxiliary_discriminant(
    setup: TwistSetup, p: int, bound: int = 10**6
) -> FundamentalDiscriminant:
    """Auxiliary character constraint: match chi_1 at every prime of N
    except p, flip it at p; conductor coprime to N * D."""
    if setup.conductor % p != 0:
        raise ValueError(f"{p} does not divide the conductor")
    loc = setup.local_data[p]
    if not loc.kind.startswith("multiplicative"):
        raise ValueError(f"{p} must be a multiplicative prime")
    pattern = {}
    for l in setup.local_data:
        chi1 = setup.chi(1, l)
        pattern[l] = -chi1 if l == p else chi1
    return search_discriminant(pattern, setup.conductor * setup.combined.value, bound)
