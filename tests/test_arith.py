"""Integer-arithmetic primitives against brute-force and sympy oracles."""

import itertools
import math
import random
import time

import pytest
import sympy

from quadtwist.arith import (
    DISCRIMINANT_BOUND,
    Factorization,
    FactorizationError,
    factorize,
    fundamental_discriminant,
    fundamental_discriminants,
    hilbert_symbol_2,
    is_prime,
    kronecker,
    valuation,
)

from oracles import (
    HOSTILE_DISCRIMINANT,
    fundamental_discriminant_fields,
    hostile_semiprime,
    is_square_mod,
)


def test_factorize_unit():
    assert factorize(1) == Factorization(1, 1, ())
    assert factorize(-1) == Factorization(-1, -1, ())


def test_factorize_examples():
    assert factorize(-161051) == Factorization(-161051, -1, ((11, 5),))
    # c6 of the conductor-11 curve [0,-1,1,-10,-20]
    assert factorize(20008).factors == ((2, 3), (41, 1), (61, 1))


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_round_trip():
    rng = random.Random(7)
    small_primes = [2, 3, 5, 7, 11, 13, 101, 1009, 65537, 2**31 - 1]
    for _ in range(200):
        n = rng.choice([1, -1])
        expected = {}
        for p in rng.sample(small_primes, rng.randint(1, 4)):
            e = rng.randint(1, 5)
            expected[p] = expected.get(p, 0) + e
            n *= p**e
        f = factorize(n)
        assert f.value == n
        assert dict(f.factors) == expected


def test_factorize_large_semiprime():
    p, q = 1_000_003, 1_000_033
    f = factorize(p * q)
    assert f.factors == ((p, 1), (q, 1))


def test_factorize_splits_perfect_powers_by_roots(monkeypatch, one_second_deadline):
    # a cofactor that is a perfect power is split by integer roots,
    # without rho: prime powers with prime exponents, and with a
    # composite one (a square of a cube); trial division goes on with a
    # composite root
    def no_rho(n):
        raise AssertionError(f"rho called on {n}")

    monkeypatch.setattr("quadtwist.arith._brent_rho", no_rho)
    p, q = 2**31 - 1, 1_000_003
    for n, want in (
        (p**5, {p: 5}),
        (q**2, {q: 2}),
        (p**3, {p: 3}),
        (-(q**6), {q: 6}),
        ((7 * 11) ** 3, {7: 3, 11: 3}),
        ((1009 * 1013) ** 2, {1009: 2, 1013: 2}),
        (5 * (1009 * q) ** 4, {5: 1, 1009: 4, q: 4}),
    ):
        f = factorize(n)
        assert (f.value, dict(f.factors)) == (n, want)


def test_factorize_stops_trial_division_at_a_prime_power_cofactor():
    # 1000003**2 and (2**31-1)**5 have no prime factor below the trial
    # bound: trial division stops at once, since the cofactor is a perfect
    # power, instead of running all the way to the bound (about 65 ms)
    p, q = 2**31 - 1, 1_000_003
    for n, want in ((q**2, {q: 2}), (p**5, {p: 5})):
        assert dict(factorize(n).factors) == want
        best = min(_seconds(factorize, n) for _ in range(5))
        assert best < 0.005, (n, best)


def _seconds(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def test_factorize_budget_raises_typed_error(one_second_deadline):
    # two ~60-bit primes: beyond rho's budget, so a typed error, not a hang
    with pytest.raises(FactorizationError, match="cannot factor"):
        factorize(hostile_semiprime())
    assert issubclass(FactorizationError, ValueError)


def test_factorize_gives_each_rho_split_its_own_budget():
    # cofactors with several prime factors between 10^6 and 10^9: each rho
    # split has its own budget, where one budget shared by every split
    # ran out on the witness and on three of the five seeded products
    rng = random.Random(5)
    cases = [(317**2 * 963629543**3 * 827732987, {317: 2, 827732987: 1, 963629543: 3})]
    for _ in range(5):
        want = {}
        for _ in range(rng.randint(2, 5)):
            q = sympy.nextprime(rng.randint(10**6, 10**9))
            want[q] = want.get(q, 0) + rng.randint(1, 3)
        cases.append((math.prod(q**e for q, e in want.items()), want))
    for n, want in cases:
        assert dict(factorize(n).factors) == want, n


def test_is_prime_known_values():
    assert is_prime(2) and is_prime(3) and is_prime(2**61 - 1)
    for n in (0, 1, 4, 561, 1105, 25326001, 3215031751):  # Carmichael et al.
        assert not is_prime(n)


def test_valuation_examples():
    assert valuation(8, 2) == 3
    assert valuation(-161051, 11) == 5
    assert valuation(7, 2) == 0


def test_valuation_errors():
    with pytest.raises(ValueError):
        valuation(0, 2)
    with pytest.raises(ValueError):
        valuation(12, 4)


def test_kronecker_examples():
    assert kronecker(5, 1) == 1
    assert kronecker(13, 11) == -1  # squares mod 11 are {1,3,4,5,9}; 13 = 2
    assert kronecker(-161051, 13) == -1


def test_kronecker_rejects_double_zero():
    with pytest.raises(ValueError):
        kronecker(0, 0)


def test_kronecker_two_and_negative_conventions():
    for a in range(-20, 21):
        if a % 2 == 0:
            assert kronecker(a, 2) == 0
        elif a % 8 in (1, 7):
            assert kronecker(a, 2) == 1
        else:
            assert kronecker(a, 2) == -1
    assert kronecker(3, -1) == 1 and kronecker(-3, -1) == -1
    assert kronecker(0, 1) == 1 and kronecker(0, -1) == 1


def test_kronecker_multiplicative():
    rng = random.Random(11)
    for _ in range(1500):
        a, b = rng.randint(-10**4, 10**4), rng.randint(-10**4, 10**4)
        n = rng.randint(-10**4, 10**4)
        if n == 0 and (a == 0 or b == 0 or a * b == 0):
            continue
        assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)
        m = rng.randint(-10**4, 10**4)
        if a == 0 and m * n == 0:
            continue
        assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)


def test_kronecker_is_legendre_for_odd_primes():
    rng = random.Random(13)
    primes = [p for p in range(3, 300) if is_prime(p)]
    for _ in range(300):
        p = rng.choice(primes)
        a = rng.randint(1, 10**4)
        if a % p == 0:
            continue
        assert (kronecker(a, p) == 1) == is_square_mod(a, p)


def test_quadratic_reciprocity():
    rng = random.Random(17)
    checked = 0
    while checked < 1000:
        a = rng.randrange(3, 2001, 2)
        b = rng.randrange(3, 2001, 2)
        if math.gcd(a, b) != 1:
            continue
        sign = -1 if (a % 4 == 3 and b % 4 == 3) else 1
        assert kronecker(a, b) * kronecker(b, a) == sign
        checked += 1


def test_kronecker_against_sympy_jacobi():
    rng = random.Random(19)
    for _ in range(500):
        a = rng.randint(-10**6, 10**6)
        n = rng.randrange(1, 10**6, 2)
        assert kronecker(a, n) == sympy.jacobi_symbol(a, n)


# the 2-adic square classes of Q_2*: 2^e u, e in {0, 1}, u a unit mod 8
SQUARE_CLASSES = [2**e * u for e in (0, 1) for u in (1, 3, 5, 7)]


def _primitive_solution_mod_16(a, b):
    """z^2 = a x^2 + b y^2 has a solution mod 16 with x, y, z not all
    even; for a, b in SQUARE_CLASSES this decides solvability in Q_2
    (mod 8 does not: (2, 6) and (6, 6) have primitive solutions mod 8 but
    none in Q_2)."""
    return any(
        (z * z - a * x * x - b * y * y) % 16 == 0
        for x, y, z in itertools.product(range(16), repeat=3)
        if (x | y | z) & 1
    )


def test_hilbert_symbol_2_is_its_definition():
    for a, b in itertools.product(SQUARE_CLASSES, repeat=2):
        assert (hilbert_symbol_2(a, b) == 1) == _primitive_solution_mod_16(a, b), (a, b)


def test_hilbert_symbol_2_is_symmetric_and_reads_square_classes():
    for a, b in itertools.product(SQUARE_CLASSES, repeat=2):
        h = hilbert_symbol_2(a, b)
        assert hilbert_symbol_2(b, a) == h
        # 4, odd squares, and -7 and -23, which are 1 mod 8 and so squares in Q_2
        for square in (4, 9, 25, 49, 16 * 121, -7, -23):
            assert hilbert_symbol_2(square * a, b) == h, (square, a, b)
    assert hilbert_symbol_2(-1, -1) == -1
    with pytest.raises(ValueError):
        hilbert_symbol_2(0, 3)


def test_fundamental_discriminants():
    values = {f.value for f in fundamental_discriminants(48)}
    assert 13 in values
    assert 8 in values
    assert 12 in values  # 4*3 with 3 = 3 mod 4
    assert 20 not in values  # 4*5 with 5 = 1 mod 4
    assert 1 in values
    assert 9 not in values
    assert 48 not in values
    for d in (0, -4):  # below the enumeration: the parser refuses them
        with pytest.raises(ValueError, match="not a positive fundamental"):
            fundamental_discriminant(d)


def test_fundamental_discriminant_parse():
    assert fundamental_discriminant(13) == (13, 13, 0, (13,))
    assert fundamental_discriminant(8) == (8, 1, 3, (2,))
    assert fundamental_discriminant(12) == (12, 3, 2, (2, 3))
    assert fundamental_discriminant(40) == (40, 5, 3, (2, 5))
    assert fundamental_discriminant(1) == (1, 1, 0, ())
    with pytest.raises(ValueError):
        fundamental_discriminant(20)


def test_fundamental_discriminant_bound(one_second_deadline):
    p = sympy.prevprime(DISCRIMINANT_BOUND)
    while p % 4 != 1:
        p = sympy.prevprime(p)
    assert fundamental_discriminant(p) == (p, p, 0, (p,))  # trial division decides
    with pytest.raises(ValueError, match="exceeds the discriminant bound"):
        fundamental_discriminant(DISCRIMINANT_BOUND + 1)
    with pytest.raises(ValueError, match="exceeds the discriminant bound"):
        fundamental_discriminant(HOSTILE_DISCRIMINANT)  # never factored


def test_is_fundamental_discriminant_bound(one_second_deadline):
    # membership is decided by the parser, so it never factors past the bound
    with pytest.raises(ValueError, match="not a positive fundamental"):
        fundamental_discriminant(DISCRIMINANT_BOUND)  # 2**12 * 5**12, at the bound
    with pytest.raises(ValueError, match="exceeds the discriminant bound"):
        fundamental_discriminant(HOSTILE_DISCRIMINANT)


def test_fundamental_discriminant_primes_match_factorize():
    expected = []
    values = {f.value for f in fundamental_discriminants(20000)}
    for d in range(-8, 20001):
        fields = fundamental_discriminant_fields(d)
        assert (d in values) == (fields is not None), d
        if fields is None:
            with pytest.raises(ValueError, match="not a positive fundamental"):
                fundamental_discriminant(d)
        else:
            assert fundamental_discriminant(d) == fields
            expected.append(fields)
    got = list(fundamental_discriminants(20000))
    assert got == expected
    for f in got:
        assert f.primes == factorize(f.value).primes()
        assert tuple(l for l in f.primes if l != 2) == factorize(f.odd_part).primes()


def test_fundamental_discriminant_enumeration():
    got = [f.value for f in fundamental_discriminants(40)]
    assert got == [1, 5, 8, 12, 13, 17, 21, 24, 28, 29, 33, 37, 40]
    for f in fundamental_discriminants(500):
        assert f.value == 2**f.two_exponent * f.odd_part
        assert f.two_exponent in (0, 2, 3)
