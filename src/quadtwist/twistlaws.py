"""The twist-identity layer: setups built from character sign vectors,
which decide admissibility (validate_setup checks user input on top of
them), the period scale u_D, twist rows, the even-two-power quantities
with the pair's proof bookkeeping, the local product identities, the
closed-form symbol evaluation, the Tamagawa-at-2 case cross-checks, and
the auxiliary-discriminant search.

Every quantity and check reads twist rows.  A curve's CurveFacts hold
what all its twists share: N, the local data, the minimal discriminant,
and c~_q and the inert base-change c_q at each multiplicative prime q.
A TwistRow holds one admissible discriminant D's facts: its signs at the
primes of N and the primes of its n_minus, u_D by the closed form and as
twist_minimal measures it, and full Tate on the minimal twist at the
primes of D (and of N, when the row joins pairs).  A single reads its
own row.  A pair is a join of two rows: its n_minus is m_1
symmetric-difference m_2, the primes where the rows' signs differ, and
both sides of each transfer identity are products of the D_1 and D_2
factors.  The closed forms (c~, the inert base change, u_D, the
odd-prime fast path, the 2-adic case table, the symbol) stay the
independent side of each comparison against the rows' Tate data.

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
# twist rows


class CurveFacts(NamedTuple):
    """What every twist of one curve shares, computed once per curve."""

    curve: WeierstrassModel  # globally minimal
    conductor: int
    local_data: dict[int, LocalReduction]
    disc: int  # the minimal discriminant
    c_tilde: dict[int, int]  # q -> c~_q(E), at each multiplicative prime q
    inert_tamagawa: dict[int, int]  # q -> c_q(E over a field where q is inert)


class TwistRow(NamedTuple):
    """One admissible discriminant's facts on one curve: its signs, the
    primes of its n_minus, both values of u_D, and full Tate on its
    minimal twist at the primes of D (and of N, when the row joins
    pairs)."""

    facts: CurveFacts
    disc: FundamentalDiscriminant
    signs: tuple[int, ...]  # kronecker(D, p) at the primes of N, in local_data order
    minus_primes: tuple[int, ...]  # the primes of N where the sign is -1
    u: int  # u_of_discriminant, the closed form
    measured_u: Fraction  # the scale twist_minimal measures
    local: dict[int, LocalReduction]  # the minimal twist's local data
    twist_tamagawa: dict[int, int]  # l -> c_l(twist), at the primes of D
    c_tilde_product: int  # prod c~_q(E) over minus_primes
    conductor_tamagawa: int | None  # prod c_l(twist) over the primes of N; None without them


def curve_facts(E: WeierstrassModel) -> CurveFacts:
    """E's conductor, local data and minimal discriminant, and c~_q and
    the inert base-change c_q at each multiplicative prime q; E is
    globally minimal."""
    N, local_data = reduction_profile(E)
    mult = [q for q, loc in local_data.items() if loc.kind.startswith("multiplicative")]
    return CurveFacts(
        E,
        N,
        local_data,
        minimal_model(E).invariants.disc,
        {q: c_tilde(E, q) for q in mult},
        {q: inert_base_change_tamagawa(E, q) for q in mult},
    )


def twist_row(
    facts: CurveFacts, f: FundamentalDiscriminant, signs: tuple[int, ...], at_conductor: bool
) -> TwistRow:
    """The row of an admissible discriminant from its admissible_signs
    vector: one twist_minimal call, and one tate_local call per prime of
    D, and per prime of N when at_conductor."""
    E = facts.curve
    T, u_measured = twist_minimal(E, f.value)
    local = {l: tate_local(T, l) for l in f.primes}
    conductor_tamagawa = None
    if at_conductor:
        local.update((l, tate_local(T, l)) for l in facts.local_data)
        conductor_tamagawa = math.prod(local[l].tamagawa for l in facts.local_data)
    minus = tuple(p for p, s in zip(facts.local_data, signs) if s == -1)
    return TwistRow(
        facts,
        f,
        signs,
        minus,
        u_of_discriminant(E, f),
        u_measured,
        local,
        {l: local[l].tamagawa for l in f.primes},
        math.prod(facts.c_tilde[q] for q in minus),
        conductor_tamagawa,
    )


def setup_rows(setup: TwistSetup) -> tuple[TwistRow, ...]:
    """The rows of a validated setup's discriminants, in order, each with
    its twist's local data at the primes of N."""
    facts = curve_facts(setup.curve)
    sign_vectors = zip(*setup.signs.values())
    return tuple(
        twist_row(facts, f, signs, True) for f, signs in zip(setup.discriminants, sign_vectors)
    )


class TwistPair(NamedTuple):
    """The join of two rows of one curve: the pair's n_minus primes are
    m_1 symmetric-difference m_2, the primes where the rows' signs
    differ."""

    row1: TwistRow
    row2: TwistRow
    minus_primes: tuple[int, ...]  # in local_data order


def join_rows(row1: TwistRow, row2: TwistRow) -> TwistPair:
    """The pair of two rows of one curve, with its n_minus primes."""
    local_data = row1.facts.local_data
    return TwistPair(
        row1, row2, tuple(p for p, s1, s2 in zip(local_data, row1.signs, row2.signs) if s1 != s2)
    )


# ---------------------------------------------------------------------------
# the even-two-power quantities


def twist_quantity(row: TwistRow) -> ExponentVerdict:
    """u_D / 2^omega(n_minus) * prod_{l | D} c_l(twist) * prod_{q | n_minus}
    c~_{q}(E), as an exact rational, with the evenness verdict."""
    w = len(row.minus_primes)
    c_twist = row.twist_tamagawa
    return _verdict(
        row.u * math.prod(c_twist.values()) * row.c_tilde_product,
        w,
        {
            "u": row.u,
            "omega_n_minus": w,
            "twist_tamagawa": dict(c_twist),
            "c_tilde": {q: row.facts.c_tilde[q] for q in row.minus_primes},
            "D": row.disc.value,
        },
    )


def pair_twist_quantity(pair: TwistPair) -> ExponentVerdict:
    """Pair version of the quantity, with the proof bookkeeping checked
    on the side (each verdict in components['bookkeeping']).

    With m_i the primes of N where chi_i = -1 (row i's n_minus):
    omega(m_1) + omega(m_2) = omega(n_minus) mod 2, and the c~ product
    over m_1 and m_2 equals the one over n_minus up to an even power of
    two.  The conductor pieces' own identities (n_minus is m_1
    symmetric-difference m_2, each prime of m_1 and m_2 divides N
    exactly) hold by construction of the rows and their join.
    """
    row1, row2, minus = pair
    w = len(minus)
    c1, c2 = row1.twist_tamagawa, row2.twist_tamagawa
    c_t = {q: row1.facts.c_tilde[q] for q in minus}
    c_t_product = math.prod(c_t.values())
    num = row1.u * row2.u * math.prod(c1.values()) * math.prod(c2.values()) * c_t_product

    parity_ok = (len(row1.minus_primes) + len(row2.minus_primes) - w) % 2 == 0
    k = _exponent(row1.c_tilde_product * row2.c_tilde_product, c_t_product)
    product_ok = k is not None and k % 2 == 0

    return _verdict(
        num,
        w,
        {
            "u1": row1.u,
            "u2": row2.u,
            "omega_n_minus": w,
            "twist_tamagawa_1": dict(c1),
            "twist_tamagawa_2": dict(c2),
            "c_tilde": c_t,
            "bookkeeping": {"omega_parity": parity_ok, "c_tilde_product": product_ok},
            "D1": row1.disc.value,
            "D2": row2.disc.value,
        },
    )


# ---------------------------------------------------------------------------
# the local identities


def tamagawa_transfer_check(pair: TwistPair, q: int) -> CheckResult:
    """c~_{q}(E) * c_{q}(E over the inert quadratic field) against
    c_{q}(twist by D1) * c_{q}(twist by D2), at a prime q of n_minus."""
    if q not in pair.minus_primes:
        raise ValueError(f"{q} does not divide n_minus")
    row1, row2, _ = pair
    facts = row1.facts
    lhs = facts.c_tilde[q] * facts.inert_tamagawa[q]
    rhs = row1.local[q].tamagawa * row2.local[q].tamagawa
    return CheckResult(lhs == rhs, f"q={q}: {lhs} vs {rhs}")


def tamagawa_transfer_product_check(pair: TwistPair) -> CheckResult:
    """Product over all primes of N of both twists' Tamagawa numbers,
    compared modulo squares with prod c~_{q} * c_{q}(inert base change)."""
    row1, row2, minus = pair
    facts = row1.facts
    lhs = row1.conductor_tamagawa * row2.conductor_tamagawa
    rhs = 1
    for q in minus:
        rhs *= facts.c_tilde[q] * facts.inert_tamagawa[q]
    ok = equal_mod_squares(lhs, rhs)
    return CheckResult(ok, f"{lhs} vs {rhs} (mod squares)")


def inert_valuation_sum(row: TwistRow) -> int:
    """b = sum of v_{q}(min disc) over primes q of n_minus."""
    local_data = row.facts.local_data
    return sum(local_data[q].disc_valuation for q in row.minus_primes)


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


def tamagawa_symbol_check(row: TwistRow) -> CheckResult:
    """With m the odd part of D: prod_{l | m} c_l(twist by D) is a power of
    two, square exactly when kronecker(min disc, m) = 1."""
    D = row.disc
    disc = row.facts.disc
    prod = 1
    for l in D.primes:
        if l == 2:
            continue
        if valuation(disc, l) != 0:
            raise ValueError(f"E must have good reduction at {l}")
        prod *= row.local[l].tamagawa
    k = _exponent(prod, 1)
    symbol = kronecker(disc, D.odd_part)
    ok = k is not None and ((k % 2 == 0) == (symbol == 1))
    return CheckResult(ok, f"prod={prod}, symbol={symbol}")


# ---------------------------------------------------------------------------
# Tamagawa-at-2 case cross-checks for even D


class TwoAdicPrediction(NamedTuple):
    case: int  # 1, 2 or 3
    kodaira: str
    tamagawa: int | None  # None when v2(P) < 4: the case table has no entry
    pattern: int
    p_valuation: int | None = None  # v2(P), in case 3 only


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
    c = None if v < 4 else 2 if v == 4 else 4
    return TwoAdicPrediction(3, "I8*", c, pat, v)


def check_two_adic_case(row: TwistRow) -> CheckResult:
    """Compare the prediction against the row's full Tate run at 2 on the
    twist.  A P-valuation below 4 contradicts the case table and fails
    the check."""
    pred = predict_two_adic(row.facts.curve, row.disc)
    loc = row.local[2]
    if pred.tamagawa is None:
        return CheckResult(
            False,
            f"case {pred.case}: P-valuation {pred.p_valuation} below 4 contradicts the "
            f"case table, tate gives ({loc.kodaira}, {loc.tamagawa})",
        )
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
