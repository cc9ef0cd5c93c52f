"""Exact integer arithmetic primitives.

Factorization, p-adic valuations, Kronecker symbols, fundamental
discriminants and the distinct-prime-counting function.  Everything is
arbitrary precision and deterministic; there is no floating point and no
randomness anywhere in this module.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator, NamedTuple

_TRIAL_BOUND = 10**6

# Deterministic Miller-Rabin witness set, valid for n < 3.317e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


class Factorization(NamedTuple):
    """Signed factorization value = sign * prod(p**e), primes increasing."""

    value: int
    sign: int
    factors: tuple[tuple[int, int], ...]

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def exponent(self, p: int) -> int:
        for q, e in self.factors:
            if q == p:
                return e
        return 0


class FundamentalDiscriminant(NamedTuple):
    """Positive fundamental discriminant D = 2**a * m, a in {0, 2, 3}."""

    value: int
    odd_part: int
    two_exponent: int

    @property
    def is_even(self) -> bool:
        return self.two_exponent > 0

    @property
    def primes(self) -> tuple[int, ...]:
        """Primes dividing D, increasing (2 first when D is even)."""
        return factorize(self.value).primes()


def _miller_rabin(n: int, base: int) -> bool:
    if base % n == 0:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(base, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _lucas_strong(n: int) -> bool:
    # Strong Lucas test with Selfridge parameters; n odd, not a square.
    d = 5
    while True:
        if math.gcd(abs(d), n) not in (1, n):
            return False
        if kronecker(d, n) == -1:
            break
        d = -(d + 2) if d > 0 else -(d - 2)
    p, q = 1, (1 - d) // 4
    k, s = n + 1, 0
    while k % 2 == 0:
        k //= 2
        s += 1
    # Lucas sequence by binary ladder on index k.
    u, v, qk = 1, p, q % n
    for bit in bin(k)[3:]:
        u, v = u * v % n, (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u, v = (p * u + v) * ((n + 1) // 2) % n, (d * u + p * v) * ((n + 1) // 2) % n
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        if v == 0:
            return True
        qk = qk * qk % n
    return False


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Deterministic for n < 3.3e24; Baillie-PSW beyond that."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        if n % p == 0:
            return n == p
    if n < _MR_LIMIT:
        return all(_miller_rabin(n, b) for b in _MR_BASES)
    if not _miller_rabin(n, 2):
        return False
    r = math.isqrt(n)
    if r * r == n:
        return False
    return _lucas_strong(n)


def _brent_rho(n: int) -> int:
    # Deterministic Brent cycle-finding; n odd composite > 1.
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")


def factorize(n: int) -> Factorization:
    """Factor a nonzero integer; trial division then Brent rho with
    primality certificates on every reported prime."""
    if n == 0:
        raise ValueError("cannot factor 0")
    sign = 1 if n > 0 else -1
    m = abs(n)
    factors: dict[int, int] = {}
    for p in (2, 3, 5):
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
    d = 7
    while d <= _TRIAL_BOUND and d * d <= m:
        while m % d == 0:
            factors[d] = factors.get(d, 0) + 1
            m //= d
        d += 2
    if m > 1:
        if d * d > m:
            factors[m] = factors.get(m, 0) + 1
        else:
            stack = [m]
            while stack:
                k = stack.pop()
                if is_prime(k):
                    factors[k] = factors.get(k, 0) + 1
                    continue
                g = _brent_rho(k)
                stack.extend((g, k // g))
    items = tuple(sorted(factors.items()))
    assert all(is_prime(p) for p, _ in items)
    check = sign
    for p, e in items:
        check *= p**e
    assert check == n
    return Factorization(n, sign, items)


def valuation(n: int, p: int) -> int:
    """Largest k with p**k dividing n."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), the full extension of the Jacobi symbol to
    all integer n (standard conventions at 2, -1 and 0)."""
    if a == 0 and n == 0:
        raise ValueError("kronecker(0, 0) is undefined")
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -1
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        k = (n & -n).bit_length() - 1
        n >>= k
        if k % 2 == 1 and a % 8 in (3, 5):
            result = -result
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def omega(n: int) -> int:
    """Number of distinct prime divisors of n >= 1."""
    if n < 1:
        raise ValueError("omega requires n >= 1")
    if n == 1:
        return 0
    return len(factorize(n).factors)


def is_squarefree(n: int) -> bool:
    if n == 0:
        return False
    return all(e == 1 for _, e in factorize(abs(n)).factors)


def squarefree_part(n: int) -> int:
    """Squarefree integer s with n = s * (square); sign preserved."""
    if n == 0:
        raise ValueError("squarefree part of 0 is undefined")
    f = factorize(n)
    s = f.sign
    for p, e in f.factors:
        if e % 2:
            s *= p
    return s


def is_fundamental_discriminant(d: int) -> bool:
    """True iff d is 1 or the discriminant of a real quadratic field.

    Only positive values qualify here; d = 1 stands for the trivial
    character.
    """
    if d < 1:
        return False
    if d == 1:
        return True
    if d % 4 == 1:
        return is_squarefree(d)
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and is_squarefree(m)
    return False


def fundamental_discriminant(d: int) -> FundamentalDiscriminant:
    """Parse d as a positive fundamental discriminant 2**a * m."""
    if not is_fundamental_discriminant(d):
        raise ValueError(f"{d} is not a positive fundamental discriminant")
    a = 0 if d % 2 else valuation(d, 2)
    m = d >> a
    assert a in (0, 2, 3) and m % 2 == 1
    if a == 0:
        assert d % 4 == 1 or d == 1
    if a == 2:
        assert m % 4 == 3
    return FundamentalDiscriminant(d, m, a)


def fundamental_discriminants(limit: int) -> Iterator[FundamentalDiscriminant]:
    """All positive fundamental discriminants <= limit, ascending (1 included)."""
    for d in range(1, limit + 1):
        if d % 4 in (1, 0) and is_fundamental_discriminant(d):
            yield fundamental_discriminant(d)
