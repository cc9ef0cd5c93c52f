"""Independent oracles used by the test suite.

Nothing here calls into the library's own reduction machinery: point
counts are brute force, factorizations come from sympy, and reduction
types are pinned by counting components through the conductor-degree
relation on curves whose conductor is vouched for by their standard
label.
"""

from __future__ import annotations

import sympy


def factorint(n: int) -> dict[int, int]:
    return dict(sympy.factorint(n))


def hostile_semiprime() -> int:
    """p * q for the first two primes p < q above 2**60: far beyond the
    library's trial division and rho."""
    p = sympy.nextprime(2**60)
    return p * sympy.nextprime(p)


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
    component count m = v + 1 - f determines it uniquely."""
    m = v + 1 - f
    if m == 1:
        return "II", 1
    if m == 2:
        return "III", 2
    if m == 3:
        return "IV", None
    if m == 5:
        return "I0*", None
    if m == 8:
        return "III*", 2
    if m == 9:
        return "II*", 1
    return None  # IV*(7) collides with I2*(7); I_m* handled separately


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
