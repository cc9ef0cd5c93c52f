"""Integer-arithmetic primitives against brute-force and sympy oracles."""

import math
import random

import pytest
import sympy

from quadtwist.arith import (
    Factorization,
    factorize,
    fundamental_discriminant,
    fundamental_discriminants,
    is_fundamental_discriminant,
    is_prime,
    kronecker,
    omega,
    squarefree_part,
    valuation,
)

from oracles import is_square_mod


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


def test_omega():
    assert omega(1) == 0
    assert omega(12) == 2
    assert omega(161051) == 1
    with pytest.raises(ValueError):
        omega(0)


def test_squarefree_part():
    assert squarefree_part(8) == 2
    assert squarefree_part(-12) == -3
    assert squarefree_part(1) == 1
    assert squarefree_part(45) == 5


def test_fundamental_discriminants():
    assert is_fundamental_discriminant(13)
    assert is_fundamental_discriminant(8)
    assert is_fundamental_discriminant(12)  # 4*3 with 3 = 3 mod 4
    assert not is_fundamental_discriminant(20)  # 4*5 with 5 = 1 mod 4
    assert is_fundamental_discriminant(1)
    assert not is_fundamental_discriminant(0)
    assert not is_fundamental_discriminant(-4)
    assert not is_fundamental_discriminant(9)
    assert not is_fundamental_discriminant(48)


def test_fundamental_discriminant_parse():
    assert fundamental_discriminant(13) == (13, 13, 0)
    assert fundamental_discriminant(8) == (8, 1, 3)
    assert fundamental_discriminant(12) == (12, 3, 2)
    assert fundamental_discriminant(40) == (40, 5, 3)
    assert fundamental_discriminant(1) == (1, 1, 0)
    with pytest.raises(ValueError):
        fundamental_discriminant(20)


def test_fundamental_discriminant_primes_match_factorize():
    for f in fundamental_discriminants(2000):
        assert f.primes == factorize(f.value).primes()
        assert tuple(l for l in f.primes if l != 2) == factorize(f.odd_part).primes()


def test_fundamental_discriminant_enumeration():
    got = [f.value for f in fundamental_discriminants(40)]
    assert got == [1, 5, 8, 12, 13, 17, 21, 24, 28, 29, 33, 37, 40]
    for f in fundamental_discriminants(500):
        assert f.value == 2**f.two_exponent * f.odd_part
        assert f.two_exponent in (0, 2, 3)
