"""The twist-identity layer: split/inert hypothesis validation, the
coprime character-pair decomposition of the conductor, the period scale
u_D, the even-two-power quantities, the local product identities, the
closed-form symbol evaluation, the Tamagawa-at-2 case cross-checks, and
the auxiliary-discriminant search.

All quantities are exact rationals; "equal modulo squares" is decided on
squarefree parts.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .arith import (
    FundamentalDiscriminant,
    fundamental_discriminant,
    fundamental_discriminants,
    is_fundamental_discriminant,
    kronecker,
    squarefree_part,
    valuation,
)
from .curves import (
    WeierstrassModel,
    invariants,
    minimal_model,
    pattern_of_normal_form,
    quadratic_twist_with_scale,
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
        """Character value chi_i(l) = kronecker(D_i, l); i is 1-based."""
        return kronecker(self.discriminants[i - 1].value, l)

    def primes_dividing(self, n: int) -> tuple[int, ...]:
        """The primes of N dividing n, increasing."""
        return tuple(p for p in self.local_data if n % p == 0)

    @property
    def plus_primes(self) -> tuple[int, ...]:
        return self.primes_dividing(self.n_plus)

    @property
    def minus_primes(self) -> tuple[int, ...]:
        return self.primes_dividing(self.n_minus)


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
    """Equality in Q*/(Q*)^2 via squarefree parts."""
    qa, qb = Fraction(a), Fraction(b)
    if qa == 0 or qb == 0:
        raise ValueError("zero has no square class")
    ratio = qa / qb
    return squarefree_part(ratio.numerator * ratio.denominator) == 1


def power_of_two_exponent(q: Fraction) -> int | None:
    """k with q = 2**k exactly, or None."""
    if q <= 0:
        return None
    num, den = q.numerator, q.denominator
    if num & (num - 1) or den & (den - 1):
        return None
    return num.bit_length() - den.bit_length()


def _verdict(q: Fraction, components: dict) -> ExponentVerdict:
    k = power_of_two_exponent(q)
    return ExponentVerdict(
        quantity=q,
        exponent=k,
        is_power_of_two=k is not None,
        is_even_exponent=k is not None and k % 2 == 0,
        components=components,
    )


def _as_fund(d) -> FundamentalDiscriminant:
    if isinstance(d, FundamentalDiscriminant):
        return d
    return fundamental_discriminant(int(d))


# ---------------------------------------------------------------------------
# setup validation


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


def validate_setup(
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
    N, _, local_data = reduction_profile(E)
    if conductor is not None and conductor != N:
        reasons.append(f"stated conductor {conductor} != computed {N}")

    discs = []
    for d in (d1, d2) if d2 is not None else (d1,):
        val = d.value if isinstance(d, FundamentalDiscriminant) else int(d)
        if not is_fundamental_discriminant(val):
            reasons.append(f"{val} is not a positive fundamental discriminant")
        else:
            discs.append(fundamental_discriminant(val))
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
    setup = TwistSetup(E, N, n_plus, n_minus, tuple(discs), local_data)
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
            chi1 = kronecker(discs[0].value, l)
            chi2 = kronecker(discs[1].value, l)
            if (chi1 == -1 or chi2 == -1) and loc.conductor_exponent != 1:
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
# twist local data and u_D


@lru_cache(maxsize=None)
def twist_minimal(E: WeierstrassModel, d: int):
    """(minimal model of the twist of E by d, measured scale u_d).

    u_d is the scale of the isomorphism from the raw twist model onto its
    global minimal model, with the integrality-clearing factor divided
    back out.
    """
    T, cleared = quadratic_twist_with_scale(E, d)
    mm = minimal_model(T)
    u = Fraction(mm.u_value, 2) if cleared else Fraction(mm.u_value)
    return mm.minimal, u


def u_of_discriminant(E: WeierstrassModel, D) -> int:
    """Closed-form period scale of the twist by a positive fundamental
    discriminant coprime to the conductor: 1 unless v2(D) = 3 and
    v2(c6) = 3, in which case 2."""
    D = _as_fund(D)
    if D.two_exponent <= 2:
        return 1
    inv = invariants(E)
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
    c~_q(E), as an exact rational, with the evenness verdict."""
    if setup.is_pair:
        raise ValueError("single-discriminant setup required")
    D = setup.discriminants[0]
    E = setup.curve
    u = u_of_discriminant(E, D)
    w = len(setup.minus_primes)
    c_twist = {l: _twist_tamagawa_at(E, D.value, l).tamagawa for l in D.primes}
    c_t = {q: c_tilde(E, q) for q in setup.minus_primes}
    q = Fraction(u, 2**w)
    for v in c_twist.values():
        q *= v
    for v in c_t.values():
        q *= v
    return _verdict(
        q,
        {
            "u": u,
            "omega_n_minus": w,
            "twist_tamagawa": c_twist,
            "c_tilde": c_t,
            "D": D.value,
        },
    )


def pair_twist_quantity(setup: TwistSetup) -> ExponentVerdict:
    """Pair version of the quantity, with the decomposition bookkeeping

    omega(n1_minus) + omega(n2_minus) = omega(n_minus) mod 2, and the
    c~ product identity up to even powers of two, verified on the side
    (failures are reported in components['bookkeeping']).
    """
    if not setup.is_pair:
        raise ValueError("pair setup required")
    E = setup.curve
    D1, D2 = setup.discriminants
    dec = decompose(setup)
    u1 = u_of_discriminant(E, D1)
    u2 = u_of_discriminant(E, D2)
    w = len(setup.minus_primes)
    c1 = {l: _twist_tamagawa_at(E, D1.value, l).tamagawa for l in D1.primes}
    c2 = {l: _twist_tamagawa_at(E, D2.value, l).tamagawa for l in D2.primes}
    c_t = {q_: c_tilde(E, q_) for q_ in setup.minus_primes}
    q = Fraction(u1 * u2, 2**w)
    for v in (*c1.values(), *c2.values(), *c_t.values()):
        q *= v

    # proof bookkeeping
    w1 = len(setup.primes_dividing(dec.n1_minus))
    w2 = len(setup.primes_dividing(dec.n2_minus))
    parity_ok = (w1 + w2 - w) % 2 == 0

    def ctilde_prod(n):
        out = Fraction(1)
        for p in setup.primes_dividing(n):
            out *= c_tilde(E, p)
        return out

    ratio = ctilde_prod(dec.n1_minus) * ctilde_prod(dec.n2_minus) / ctilde_prod(setup.n_minus)
    k = power_of_two_exponent(ratio)
    product_ok = k is not None and k % 2 == 0

    return _verdict(
        q,
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
    """c~_q(E) * c_q(E over the inert quadratic field) against
    c_q(twist by D1) * c_q(twist by D2), at a prime q of n_minus."""
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
    compared modulo squares with prod c~_q * c_q(inert base change)."""
    if not setup.is_pair:
        raise ValueError("pair setup required")
    E = setup.curve
    d1, d2 = (f.value for f in setup.discriminants)
    lhs = Fraction(1)
    for l in sorted(setup.local_data):
        lhs *= _twist_tamagawa_at(E, d1, l).tamagawa
        lhs *= _twist_tamagawa_at(E, d2, l).tamagawa
    rhs = Fraction(1)
    for q in setup.minus_primes:
        rhs *= c_tilde(E, q) * inert_base_change_tamagawa(E, q)
    ok = equal_mod_squares(lhs, rhs)
    return CheckResult(ok, f"{lhs} vs {rhs} (mod squares)")


def inert_valuation_sum(setup: TwistSetup) -> int:
    """b = sum of v_q(min disc) over primes q of n_minus."""
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
    E = minimal_model(E).minimal
    disc = invariants(E).disc
    prod = 1
    for l in D.primes:
        if l == 2:
            continue
        if valuation(disc, l) != 0:
            raise ValueError(f"E must have good reduction at {l}")
        prod *= _twist_tamagawa_at(E, D.value, l).tamagawa
    k = power_of_two_exponent(Fraction(prod))
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
