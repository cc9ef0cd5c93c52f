"""Exact integer arithmetic primitives.

Factorization (whose rho stage has a fixed budget per split, so it never
hangs), p-adic valuations, Kronecker symbols and fundamental
discriminants.  Everything is arbitrary precision and deterministic;
there is no floating point and no randomness anywhere in this module.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterator, NamedTuple

_TRIAL_BOUND = 10**6
_RHO_BUDGET = 1 << 18  # rho squarings per split of a cofactor

# Largest discriminant accepted.  Below it trial division alone decides
# squarefreeness, so parsing a discriminant never reaches rho.
DISCRIMINANT_BOUND = _TRIAL_BOUND**2

# is_prime's memo size: a sweep asks about 98 distinct numbers over the
# shipped corpus at d_max 500, and 357 at d_max 2000.
_IS_PRIME_MEMO = 4096

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


class FundamentalDiscriminant(NamedTuple):
    """Positive fundamental discriminant D = 2**a * m with a in {0, 2, 3}
    and m odd and squarefree, as parsed by fundamental_discriminant.

    The parse factors m once; `primes` holds the primes dividing D,
    increasing (2 first when D is even), so no caller factors D again.
    """

    value: int
    odd_part: int
    two_exponent: int
    primes: tuple[int, ...]

    @property
    def is_even(self) -> bool:
        return self.two_exponent > 0


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


@lru_cache(maxsize=_IS_PRIME_MEMO)
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


class FactorizationError(ValueError):
    """factorize spent its rho budget without splitting a cofactor: the
    number has no prime factor small enough for rho to find in time."""


def _brent_rho(n: int) -> int:
    # Deterministic Brent cycle-finding on an odd composite n > 1, within
    # _RHO_BUDGET squarings: a proper factor of n.
    budget = _RHO_BUDGET
    for c in itertools.count(1):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            budget -= 2 * r  # r squarings ahead, then at most r in blocks
            if budget < 0:
                raise FactorizationError(f"cannot factor {n} within {_RHO_BUDGET} rho squarings")
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


def _iroot(n: int, e: int) -> int:
    """floor(n ** (1/e)) for n >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // e)
    while True:
        y = ((e - 1) * x + n // x ** (e - 1)) // e
        if y >= x:
            return x
        x = y


def _perfect_power(n: int, floor: int) -> tuple[int, int]:
    """(r, e) with n = r**e for a prime e, or (n, 1).  No prime below
    floor divides n, so r >= floor, which bounds e."""
    e = 2
    while floor**e <= n:
        if is_prime(e):
            r = _iroot(n, e)
            if r**e == n:
                return r, e
        e += 1
    return n, 1


def factorize(n: int) -> Factorization:
    """Factor a nonzero integer; trial division then Brent rho with
    primality certificates on every reported prime.  Trial division stops
    as soon as the cofactor is prime, and goes on with the root of a
    cofactor that is a perfect power, so a prime power past the trial
    bound costs a few integer roots.  A cofactor past trial division is
    split by integer roots, then by rho.  Each rho split has a budget of
    _RHO_BUDGET squarings, enough to split off a prime up to about
    10**10; a cofactor with no prime factor rho finds within it raises
    FactorizationError."""
    if n == 0:
        raise ValueError("cannot factor 0")
    sign = 1 if n > 0 else -1
    m = abs(n)
    factors: dict[int, int] = {}
    for p in (2, 3, 5):
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
    # the cofactor is m**power, no prime below d divides m, and m is
    # tested each time it changes
    d, power = 7, 1
    while d <= _TRIAL_BOUND and d * d <= m and not is_prime(m):
        r, e = _perfect_power(m, d)
        if e > 1:
            m, power = r, power * e
            continue
        while d <= _TRIAL_BOUND and d * d <= m and m % d:
            d += 2
        while m % d == 0:
            factors[d] = factors.get(d, 0) + power
            m //= d
    if m > 1:
        if d * d > m or is_prime(m):
            factors[m] = factors.get(m, 0) + power
        else:
            stack = [m]
            while stack:
                k = stack.pop()
                if is_prime(k):
                    factors[k] = factors.get(k, 0) + power
                    continue
                r, e = _perfect_power(k, d)
                if e > 1:
                    stack.extend([r] * e)
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


def _parse_discriminant(d: int) -> FundamentalDiscriminant | None:
    # The one parser: bound, then shape, then one factorization of the odd
    # part, which decides squarefreeness and gives the primes.
    if d > DISCRIMINANT_BOUND:
        raise ValueError(f"{d} exceeds the discriminant bound {DISCRIMINANT_BOUND}")
    if d < 1:
        return None
    a = (d & -d).bit_length() - 1  # v2(d)
    m = d >> a
    if not (a == 0 and m % 4 == 1 or a == 2 and m % 4 == 3 or a == 3):
        return None
    f = factorize(m)
    if any(e > 1 for _, e in f.factors):
        return None
    return FundamentalDiscriminant(d, m, a, (2,) * (a > 0) + f.primes())


def fundamental_discriminant(d: int) -> FundamentalDiscriminant:
    """Parse d as a positive fundamental discriminant 2**a * m, d at most
    DISCRIMINANT_BOUND."""
    f = _parse_discriminant(d)
    if f is None:
        raise ValueError(f"{d} is not a positive fundamental discriminant")
    return f


def fundamental_discriminants(limit: int) -> Iterator[FundamentalDiscriminant]:
    """All positive fundamental discriminants <= limit, ascending (1 included)."""
    for d in range(1, limit + 1):
        f = _parse_discriminant(d)
        if f is not None:
            yield f
