"""The twist-identity layer: admissibility from character sign vectors
(admissible_signs for the sweep; validate_setup checks user input and
returns the same rows), the period scale u_D, twist rows, the
even-two-power quantities with the pair's proof bookkeeping, the local
product identities, the symbol and Tamagawa-at-2 closed forms (both the
2-adic Hilbert symbol: Serre, A Course in Arithmetic, Ch. III, Thms 1
and 3), and the auxiliary-discriminant search.  It returns ints, bools
and LocalReductions; what a report says, and which checks a mode runs,
is the harness's.

A twist is described by its row alone, and every quantity and check
reads rows.  A curve's CurveFacts hold what all its twists share: its
MinimalModelResult (the minimal discriminant and its invariants, which
the even-D closed forms read), N, the local data, and a table of
n_minus sides built on first use, one MinusSide per set of
multiplicative primes some row or pair has as its n_minus: n_minus,
n_plus, the product of the c~_q, and c~_q times the inert base-change
c_q at each q with their product, all read off the local data, so the
curve's own primes go through Tate's algorithm once.  The functions
that read a fact of the curve take its MinimalModelResult; only
validate_setup, whose curve comes from a user, computes a minimal
model.  A TwistRow holds one admissible D's facts: its signs at the
primes of N, its n_minus side, u_D by the closed form and as
twist_minimal measures it (an int: the scale from the twist's own
invariants (D^2 c4, D^3 c6) onto its minimal model), full Tate on the
minimal twist at the primes of D (and of N, when the row joins pairs),
and its share of every quantity: u_D times the twist's Tamagawa numbers
at the primes of D.  A pair is a join of two rows: its n_minus is m_1
symmetric-difference m_2, the primes where the rows' signs differ, and
both sides of each transfer identity are products of the D_1 and D_2
factors.  The closed forms (c~, the inert base change, u_D, the
odd-prime fast path, the 2-adic case table, the symbol) stay the
independent side of each comparison against the rows' Tate data.  A
check returns its verdict as a bool; the 2-adic case check also
returns the prediction it compared.

Each quantity is an integer numerator over 2^w, w = omega(n_minus),
accumulated from the row and side fragments and judged on ints (its
2-adic exponent by a bit test); no Fraction is built.  A verdict
carries only what the report reads: the numerator, w, the exponent and
the two evenness bits, and for a pair the two bookkeeping bits.  "Equal
modulo squares" is decided by an integer square root, without
factoring.
"""

from __future__ import annotations

import math
from numbers import Rational
from typing import NamedTuple

from .arith import (
    FundamentalDiscriminant,
    fundamental_discriminant,
    fundamental_discriminants,
    hilbert_symbol_2,
    kronecker,
    valuation,
)
from .curves import MinimalModelResult, WeierstrassModel, minimal_from_invariants, minimal_model
from .localred import LocalReduction, local_data, reduction_profile


class SetupError(ValueError):
    """Invalid twist setup; carries one reason string per violated clause."""

    def __init__(self, reasons: list[str]):
        super().__init__("; ".join(reasons))
        self.reasons = reasons


class ExponentVerdict(NamedTuple):
    numerator: int
    w: int  # the quantity is numerator / 2**w
    exponent: int | None  # k with quantity = 2**k, when it is one
    is_power_of_two: bool
    is_even_exponent: bool
    # a pair's proof bookkeeping (pair_twist_quantity); None for a single
    omega_parity: bool | None = None
    c_tilde_product: bool | None = None


def equal_mod_squares(a: Rational, b: Rational) -> bool:
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


def _verdict(num: int, w: int, *bookkeeping: bool) -> ExponentVerdict:
    """The verdict on num / 2**w, decided on ints, with a pair's two
    bookkeeping bits when given."""
    k = _exponent(num, 1 << w)
    return ExponentVerdict(num, w, k, k is not None, k is not None and k % 2 == 0, *bookkeeping)


# ---------------------------------------------------------------------------
# setup validation


def validate_setup(E: WeierstrassModel, d1, d2=None) -> tuple[TwistRow, ...]:
    """Check a twist given by a user and return its rows: one TwistRow per
    discriminant, in order, each with its twist's local data at the
    primes of N.

    D is d1, or the product of a coprime pair (d1, d2) other than (1, 1),
    and must be coprime to N.  Once gcd(D, N) = 1 every prime of N splits
    or is inert, so D alone fixes (n_plus, n_minus): a prime of N is in
    n_minus exactly when the rows' signs there multiply to -1.  A
    character that is -1 at a prime of N needs that prime to divide N
    exactly.  d1 and d2 are ints or parsed FundamentalDiscriminants: this
    is where a user's integers are parsed.  All violations are collected
    into a single SetupError.  User input then reads
    twist_quantity(*validate_setup(E, d)) and
    join_rows(*validate_setup(E, d1, d2)).
    """
    reasons: list[str] = []
    mm = minimal_model(E)
    if mm.minimal != E:
        reasons.append("curve model is not globally minimal")
    facts = curve_facts(mm)
    N, local_data = facts.conductor, facts.local_data
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
    g = math.gcd(math.prod(f.value for f in discs), N)
    if not reasons and g != 1:
        reasons.append(f"gcd(D, N) = {g} != 1")
    if reasons:
        raise SetupError(reasons)

    sign_vectors = [tuple(kronecker(f.value, p) for p in local_data) for f in discs]
    for (l, loc), signs in zip(local_data.items(), zip(*sign_vectors)):
        if -1 in signs and loc.conductor_exponent != 1:
            reasons.append(
                f"character -1 at prime {l} requires {l} || N (multiplicative reduction)"
            )
    if reasons:
        raise SetupError(reasons)
    return tuple(twist_row(facts, f, signs, True) for f, signs in zip(discs, sign_vectors))


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


# ---------------------------------------------------------------------------
# twist local data and u_D


def twist_minimal(mm: MinimalModelResult, D: FundamentalDiscriminant) -> MinimalModelResult:
    """The reduction of the twist of E = mm.minimal by D, whose u_value is
    the scale u_D from the twist's invariants (D^2 c4, D^3 c6) onto its
    minimal model, for (c4, c6) the invariants of E.  D = 1 gives mm, at
    u_value 1, on the same path: no prime rescales a minimal model, and the
    reduced minimal model is unique.

    The pair is always the invariants of an integral model.  For
    D = 1 mod 4 the raw twist is integral (quadratic_twist's first
    branch: D - 1, D^2 - 1 and D^3 - 1 are 0 mod 4, 8 and 4).  For 4 | D,
    (D^2 c4, D^3 c6) = (2^4 (D/4)^2 c4, 2^6 (D/4)^3 c6), the invariants of
    the twist by D/4 rescaled by [1/2, 0, 0, 0].  Its discriminant
    D^6 disc(E) has no primes but D's and E's bad primes, which the
    parsed D and mm carry, so nothing is factored.
    """
    d, inv = D.value, mm.invariants
    return minimal_from_invariants(
        d * d * inv.c4, d**3 * inv.c6, sorted({*mm.bad_primes, *D.primes})
    )


def _c6_two_valuation(mm: MinimalModelResult) -> int:
    """v2(c6) of the minimal model mm.minimal, which must have good
    reduction at 2 (an odd discriminant): 0 when a1 is odd, else 3.  The
    even-D closed forms (u_D and the 2-adic case table) read it.

    On a model good at 2, a1 odd makes b2 and so c6 odd, and a1 even
    forces a3 odd, so v2(b2) >= 2, b6 is odd and v2(c6) = v2(216 b6) = 3.
    So v2(c6) in {0, 3} is an internal invariant, not a reported check:
    only a bug reaches the AssertionError, which stays out of the report
    (a named check would change every report's checks_run)."""
    inv = mm.invariants
    if inv.disc % 2 == 0:
        raise ValueError("even discriminant twist requires good reduction at 2")
    v = valuation(inv.c6, 2) if inv.c6 else 99
    if v not in (0, 3):
        raise AssertionError(f"v2(c6) = {v} not in {{0, 3}} for a minimal model good at 2")
    return v


def u_of_discriminant(mm: MinimalModelResult, D: FundamentalDiscriminant) -> int:
    """Closed-form period scale of the twist of the minimal model
    mm.minimal by a positive fundamental discriminant D coprime to the
    conductor: 1 unless v2(D) = 3 and v2(c6) = 3, in which case 2.  c6
    and the discriminant are read from mm's invariants."""
    if D.two_exponent <= 2:
        return 1
    return 1 if _c6_two_valuation(mm) == 0 else 2


# ---------------------------------------------------------------------------
# twist rows


class CurveFacts(NamedTuple):
    """What every twist of one curve shares, computed once per curve."""

    mm: MinimalModelResult  # minimal_model of the globally minimal curve (u_value 1)
    conductor: int
    local_data: dict[int, LocalReduction]
    minus_sides: dict[int, MinusSide]  # the n_minus table, by mask; see minus_side

    # The table fills as rows and pairs ask for it, so it takes no part
    # in comparisons.
    def __eq__(self, other):
        return isinstance(other, CurveFacts) and self[:-1] == other[:-1]

    def __ne__(self, other):
        return not self == other


class MinusSide(NamedTuple):
    """What one set of n_minus primes fixes on one curve, built once per
    (curve, set) from the curve's local data."""

    mask: int  # bit i set when the i-th prime of N (local_data order) is in the set
    primes: tuple[int, ...]  # in local_data order
    n_minus: int
    n_plus: int
    c_tilde_product: int  # prod c~_q(E) over the set
    transfer: dict[int, int]  # q -> c~_q(E) * c_q(E over a field where q is inert)
    transfer_product: int
    disc_valuation_sum: int  # sum of v_q(min disc) over the set


def curve_facts(mm: MinimalModelResult) -> CurveFacts:
    """The facts of the globally minimal model E = mm.minimal: its
    conductor and local data, with an empty n_minus table.  They keep mm
    with u_value 1, which is minimal_model(E), whatever model mm was
    computed from, so the facts of one curve compare equal."""
    mm = mm._replace(u_value=1)
    N, local_data = reduction_profile(mm)
    return CurveFacts(mm, N, local_data, {})


def minus_side(facts: CurveFacts, mask: int) -> MinusSide:
    """The n_minus side of the primes of N that mask selects: read from
    the curve's table, and built into it on first use.  The table holds
    at most one entry per prime set that the curve's rows and pairs
    have, and each entry reads c~_q and the inert base-change c_q off the
    curve's local data at q (LocalReduction.c_tilde, .inert_tamagawa),
    which raise unless q is multiplicative."""
    side = facts.minus_sides.get(mask)
    if side is None:
        locs = [loc for i, loc in enumerate(facts.local_data.values()) if mask >> i & 1]
        primes = tuple(loc.prime for loc in locs)
        n_minus = math.prod(primes)
        transfer = {loc.prime: loc.c_tilde * loc.inert_tamagawa for loc in locs}
        side = facts.minus_sides[mask] = MinusSide(
            mask,
            primes,
            n_minus,
            facts.conductor // n_minus,
            math.prod(loc.c_tilde for loc in locs),
            transfer,
            math.prod(transfer.values()),
            sum(loc.disc_valuation for loc in locs),
        )
    return side


class TwistRow(NamedTuple):
    """One admissible discriminant's facts on one curve: its signs, its
    n_minus side, both values of u_D, full Tate on its minimal twist at
    the primes of D (and of N, when the row joins pairs), and its
    fragment of every quantity's numerator."""

    facts: CurveFacts
    disc: FundamentalDiscriminant
    signs: tuple[int, ...]  # kronecker(D, p) at the primes of N, in local_data order
    minus: MinusSide  # the primes of N where the sign is -1
    u: int  # u_of_discriminant, the closed form
    measured_u: int  # the scale twist_minimal measures
    local: dict[int, LocalReduction]  # the minimal twist's local data
    share: int  # u * prod c_l(twist) over the primes of D


def twist_row(
    facts: CurveFacts, f: FundamentalDiscriminant, signs: tuple[int, ...], at_conductor: bool
) -> TwistRow:
    """The row of an admissible discriminant from its admissible_signs
    vector: one twist_minimal call, and Tate's algorithm on the minimal
    twist (local_data) at each prime of D, and of N when at_conductor.
    The twist by 1 is the curve itself, whose local data at N the facts hold."""
    tw = twist_minimal(facts.mm, f)
    local = local_data(tw, f.primes)
    if at_conductor:
        local.update(facts.local_data if f.value == 1 else local_data(tw, facts.local_data))
    u = u_of_discriminant(facts.mm, f)
    share = u
    for l in f.primes:
        share *= local[l].tamagawa
    mask = 0
    for i, s in enumerate(signs):
        mask |= (s == -1) << i
    return TwistRow(
        facts,
        f,
        signs,
        minus_side(facts, mask),
        u,
        tw.u_value,
        local,
        share,
    )


class TwistPair(NamedTuple):
    """The join of two rows of one curve: the pair's n_minus primes are
    m_1 symmetric-difference m_2, the primes where the rows' signs
    differ."""

    row1: TwistRow
    row2: TwistRow
    minus: MinusSide  # the primes where the rows' signs differ


def join_rows(row1: TwistRow, row2: TwistRow) -> TwistPair:
    """The pair of two rows of one curve, with its n_minus side from the
    curve's table."""
    return TwistPair(row1, row2, minus_side(row1.facts, row1.minus.mask ^ row2.minus.mask))


# ---------------------------------------------------------------------------
# the even-two-power quantities


def twist_quantity(row: TwistRow) -> ExponentVerdict:
    """u_D / 2^omega(n_minus) * prod_{l | D} c_l(twist) * prod_{q | n_minus}
    c~_{q}(E), as an exact rational, with the evenness verdict."""
    side = row.minus
    return _verdict(row.share * side.c_tilde_product, len(side.primes))


def pair_twist_quantity(pair: TwistPair) -> ExponentVerdict:
    """Pair version of the quantity, with the proof bookkeeping checked
    on the side (the verdict's omega_parity and c_tilde_product bits).

    With m_i the primes of N where chi_i = -1 (row i's n_minus):
    omega(m_1) + omega(m_2) = omega(n_minus) mod 2, and the c~ product
    over m_1 and m_2 equals the one over n_minus up to an even power of
    two.  The conductor pieces' own identities (n_minus is m_1
    symmetric-difference m_2, each prime of m_1 and m_2 divides N
    exactly) hold by construction of the rows and their join.
    """
    row1, row2, side = pair
    w = len(side.primes)
    m1, m2 = row1.minus, row2.minus

    parity_ok = (len(m1.primes) + len(m2.primes) - w) % 2 == 0
    k = _exponent(m1.c_tilde_product * m2.c_tilde_product, side.c_tilde_product)
    product_ok = k is not None and k % 2 == 0

    return _verdict(row1.share * row2.share * side.c_tilde_product, w, parity_ok, product_ok)


# ---------------------------------------------------------------------------
# the local identities


def tamagawa_transfer_check(pair: TwistPair, q: int) -> bool:
    """c~_{q}(E) * c_{q}(E over the inert quadratic field) against
    c_{q}(twist by D1) * c_{q}(twist by D2), at a prime q of n_minus."""
    row1, row2, side = pair
    if q not in side.transfer:
        raise ValueError(f"{q} does not divide n_minus")
    return side.transfer[q] == row1.local[q].tamagawa * row2.local[q].tamagawa


def tamagawa_transfer_product_check(pair: TwistPair) -> bool:
    """Product over all primes of N of both twists' Tamagawa numbers,
    compared modulo squares with prod c~_{q} * c_{q}(inert base change)."""
    row1, row2, side = pair
    lhs = math.prod(row1.local[l].tamagawa * row2.local[l].tamagawa for l in row1.facts.local_data)
    return equal_mod_squares(lhs, side.transfer_product)


def symbol_closed_form(delta: int, D: FundamentalDiscriminant, b: int) -> int:
    """kronecker(delta, m), m the odd part of D, as (-1)^b (delta_0, D)_2
    for delta coprime to D (odd when D is even), delta_0 its odd part and
    b the sum of its valuations at the primes of n_minus.  By the product
    formula for (delta_0, D), kronecker(delta_0, m) is (delta_0, D)_2 times
    kronecker(D, q)^(v_q(delta)) over the odd primes q of delta (D > 0);
    2 | delta only when D = m, and then kronecker(2, m) = kronecker(D, 2)."""
    if D.is_even and delta % 2 == 0:
        raise ValueError(f"delta = {delta} must be odd when D is even")
    return (-1) ** b * hilbert_symbol_2(delta >> valuation(delta, 2), D.value)


def tamagawa_symbol_check(row: TwistRow, symbol: int | None = None) -> bool:
    """With m the odd part of D: prod_{l | m} c_l(twist by D) is a power of
    two, square exactly when kronecker(min disc, m) = 1.  A caller that
    has that symbol already may pass it."""
    D = row.disc
    prod = 1
    for l in D.primes:
        if l == 2:
            continue
        if l in row.facts.mm.bad_primes:
            raise ValueError(f"E must have good reduction at {l}")
        prod *= row.local[l].tamagawa
    k = _exponent(prod, 1)
    if symbol is None:
        symbol = kronecker(row.facts.mm.invariants.disc, D.odd_part)
    return k is not None and (k % 2 == 0) == (symbol == 1)


# ---------------------------------------------------------------------------
# Tamagawa-at-2 case cross-checks for even D


class TwoAdicPrediction(NamedTuple):
    case: int  # 1, 2 or 3
    kodaira: str
    tamagawa: int


def _two_adic_prediction(mm: MinimalModelResult, D: FundamentalDiscriminant) -> TwoAdicPrediction:
    """The case table's prediction for the twist of the minimal model
    mm.minimal, good at 2, by an even fundamental discriminant D, read
    off c6 and the minimal discriminant disc.  c6 even: (II*, 1) when
    v2(D) = 2 (case 1), (II, 1) when v2(D) = 3 (case 2).  c6 odd: I4*
    when v2(D) = 2 (case 1), I8* when v2(D) = 3 (case 3), with c2 = 2
    exactly when (disc, D)_2 = -1, else 4.  The table is stated on the
    2-adic normal form, a [1, r, s, w] change of mm.minimal, which keeps
    c6 and disc."""
    if not D.is_even:
        raise ValueError("even discriminant required")
    case_1 = D.two_exponent == 2
    if _c6_two_valuation(mm) == 3:
        return TwoAdicPrediction(1, "II*", 1) if case_1 else TwoAdicPrediction(2, "II", 1)
    c2 = 2 if hilbert_symbol_2(mm.invariants.disc, D.value) == -1 else 4
    return TwoAdicPrediction(1, "I4*", c2) if case_1 else TwoAdicPrediction(3, "I8*", c2)


def check_two_adic_case(row: TwistRow) -> tuple[bool, TwoAdicPrediction]:
    """Compare the case table's prediction for the row's twist against
    the row's full Tate run at 2 on the twist (row.local[2]): the
    verdict, and the prediction."""
    pred = _two_adic_prediction(row.facts.mm, row.disc)
    loc = row.local[2]
    return (loc.kodaira, loc.tamagawa) == (pred.kodaira, pred.tamagawa), pred


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
    rows: tuple[TwistRow, ...], p: int, bound: int = 10**6
) -> FundamentalDiscriminant:
    """Auxiliary character constraint for the rows validate_setup returns:
    match chi_1 (the first row's signs) at every prime of N except p,
    flip it at p; conductor coprime to N * D, D the product of the rows'
    discriminants.  p must be a multiplicative prime of N."""
    facts = rows[0].facts
    if p not in facts.local_data:
        raise ValueError(f"{p} is not a prime of the conductor N = {facts.conductor}")
    if not facts.local_data[p].kind.startswith("multiplicative"):
        raise ValueError(f"{p} must be a multiplicative prime")
    pattern = {l: -s if l == p else s for l, s in zip(facts.local_data, rows[0].signs)}
    D = math.prod(r.disc.value for r in rows)
    return search_discriminant(pattern, facts.conductor * D, bound)
