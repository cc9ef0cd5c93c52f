"""Tate's algorithm against independently derived local data, invariance
properties, and the closed-form local helpers."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
import sympy

from quadtwist.arith import (
    fundamental_discriminant,
    fundamental_discriminants,
    kronecker,
    valuation,
)
from quadtwist.curves import invariants, minimal_model, model
from quadtwist.harness import default_corpus_path, ingest_corpus
from quadtwist.localred import (
    conductor,
    count_cubic_roots,
    depressed_cubic_mod,
    local_data,
    reduction_profile,
    tate_local,
    twist_prime_tamagawa_odd,
)
from quadtwist.twistlaws import twist_minimal

from oracles import apply_iso, count_cubic_roots_brute, golden_local_data, reduction_kind

E11A1 = model(0, -1, 1, -10, -20)


def corpus():
    return ingest_corpus(default_corpus_path())


def test_tate_examples():
    loc = tate_local(E11A1, 11)
    assert (loc.kodaira, loc.tamagawa, loc.disc_valuation, loc.kind) == (
        "I5",
        5,
        5,
        "multiplicative-split",
    )
    loc = tate_local(model(0, 0, 0, -1, 0), 5)
    assert (loc.kodaira, loc.tamagawa, loc.disc_valuation, loc.kind) == ("I0", 1, 0, "good")
    T = twist_minimal(minimal_model(E11A1), fundamental_discriminant(13))[0]
    loc = tate_local(T, 13)
    assert (loc.kodaira, loc.tamagawa, loc.disc_valuation, loc.kind) == (
        "I0*",
        2,
        6,
        "additive",
    )
    assert kronecker(invariants(E11A1).disc, 13) == -1  # forces tamagawa 2


def test_tate_rejects_bad_input():
    with pytest.raises(ValueError):
        tate_local(model(Fraction(1, 2), 0, 0, 0, 1), 2)
    with pytest.raises(ValueError):
        tate_local(E11A1, 12)


def test_local_data_refuses_a_prime_outside_the_bad_primes():
    # local_data reads each prime's exponent off the reduction: a good
    # prime, or a number that is not prime, has none and raises
    mm = minimal_model(E11A1)
    tw = twist_minimal(mm, fundamental_discriminant(13))
    assert local_data(mm, [11]) == {11: tate_local(E11A1, 11)}
    assert local_data(tw, [13, 11]) == {p: tate_local(tw.minimal, p) for p in (13, 11)}
    assert local_data(mm, []) == {}
    for red, primes in ((mm, [2]), (mm, [11, 13]), (mm, [12]), (tw, [2]), (tw, [13, 1])):
        with pytest.raises(ValueError, match="is not a bad prime"):
            local_data(red, primes)


def test_golden_corpus_local_data():
    """Every bad prime of the starter corpus against the oracle table
    (point counts + factorization + conductor-degree forcing)."""
    for rec in corpus():
        table = golden_local_data(rec.label, rec.a_invariants, rec.conductor)
        assert table, rec.label
        for p, (kod, c, v, kind) in table.items():
            loc = tate_local(rec.curve, p)
            assert loc.disc_valuation == v, (rec.label, p)
            assert loc.kind == kind, (rec.label, p)
            if kod is not None:
                assert loc.kodaira == kod, (rec.label, p)
            if c is not None:
                assert loc.tamagawa == c, (rec.label, p)
            # conductor-degree relation against the stated conductor
            assert loc.conductor_exponent == valuation(rec.conductor, p), (rec.label, p)


def test_conductor_of_corpus_is_stated_value():
    for rec in corpus():
        assert conductor(rec.curve) == rec.conductor


def test_qp_invariance_under_unit_isos():
    rng = random.Random(67)
    curves = [rec.curve for rec in corpus()]
    for _ in range(120):
        E = rng.choice(curves)
        _, data = reduction_profile(minimal_model(E))
        p = rng.choice(sorted(data))
        k = rng.choice([u for u in (1, 2, 3, 5, 7) if u % p != 0])
        r, s, w = (rng.randint(-4, 4) for _ in range(3))
        moved = model(*apply_iso(E, Fraction(1, k), r, s, w))
        a, b = tate_local(E, p), tate_local(moved, p)
        assert (a.kodaira, a.tamagawa, a.kind, a.disc_valuation) == (
            b.kodaira,
            b.tamagawa,
            b.kind,
            b.disc_valuation,
        )


def test_tate_internal_minimization():
    blown = model(*apply_iso(E11A1, Fraction(1, 11), 0, 0, 0))
    loc = tate_local(blown, 11)
    assert (loc.kodaira, loc.tamagawa, loc.disc_valuation) == ("I5", 5, 5)


def test_twist_locality_split_primes():
    """kronecker(D, l) = 1 and l coprime to D: the twist has identical
    local data at l."""
    rng = random.Random(71)
    found = 0
    for rec in corpus():
        E = rec.curve
        mm = minimal_model(E)
        N, data = reduction_profile(mm)
        for D in (5, 8, 13, 17):
            if D % 4 not in (0, 1):
                continue
            for l in sorted(data):
                if D % l == 0 or kronecker(D, l) != 1:
                    continue
                T = twist_minimal(mm, fundamental_discriminant(D))[0]
                a, b = tate_local(E, l), tate_local(T, l)
                assert (a.kodaira, a.tamagawa, a.kind) == (b.kodaira, b.tamagawa, b.kind)
                found += 1
    assert found > 10


def test_split_nonsplit_flip():
    """kronecker(D, q) = -1 at a multiplicative q: split flips, the
    discriminant valuation stays."""
    found_split = found_nonsplit = 0
    for rec in corpus():
        mm = minimal_model(rec.curve)
        _, data = reduction_profile(mm)
        for D in (5, 8, 13, 17, 21, 24):
            for q, loc in sorted(data.items()):
                if not loc.kind.startswith("multiplicative"):
                    continue
                if D % q == 0 or kronecker(D, q) != -1:
                    continue
                T = twist_minimal(mm, fundamental_discriminant(D))[0]
                tw = tate_local(T, q)
                assert tw.disc_valuation == loc.disc_valuation
                assert tw.kind.startswith("multiplicative")
                assert tw.split is not loc.split
                if loc.split:
                    found_split += 1
                else:
                    found_nonsplit += 1
    assert found_split > 5 and found_nonsplit > 5


def test_twist_prime_tamagawa_odd_examples_and_dichotomy():
    assert twist_prime_tamagawa_odd(minimal_model(E11A1), 13) == 2
    disc = invariants(E11A1).disc
    # search small inert/split primes for the 1/4 values of the dichotomy
    seen = set()
    for rec in corpus():
        mm = minimal_model(rec.curve)
        d = invariants(rec.curve).disc
        for l in (3, 5, 7, 11, 13, 17, 19, 23):
            if d % l == 0:
                continue
            c = twist_prime_tamagawa_odd(mm, l)
            seen.add(c)
            if kronecker(d, l) == -1:
                assert c == 2
            else:
                assert c in (1, 4)
    assert seen == {1, 2, 4}


def test_twist_prime_fast_path_matches_tate():
    rng = random.Random(73)
    checked = 0
    fundamental = {f.value for f in fundamental_discriminants(8 * 13)}
    for rec in corpus():
        mm = minimal_model(rec.curve)
        d = invariants(rec.curve).disc
        for l in (3, 5, 7, 13):
            if d % l == 0:
                continue
            for D in (l, 8 * l if l % 4 != 3 else 4 * l):
                if D not in fundamental:
                    continue
                T = twist_minimal(mm, fundamental_discriminant(D))[0]
                assert twist_prime_tamagawa_odd(mm, l) == tate_local(T, l).tamagawa
                assert tate_local(T, l).kodaira == "I0*"
                checked += 1
    assert checked > 20


def test_twist_prime_tamagawa_preconditions():
    mm = minimal_model(E11A1)
    with pytest.raises(ValueError):
        twist_prime_tamagawa_odd(mm, 2)
    with pytest.raises(ValueError):
        twist_prime_tamagawa_odd(mm, 15)  # not prime
    with pytest.raises(ValueError):
        twist_prime_tamagawa_odd(mm, 11)  # bad reduction at 11


def test_depressed_cubic_discriminant_identity():
    """disc(E) = 16 disc(f) for the completed-square cubic: check mod l."""
    for rec in corpus():
        E = rec.curve
        disc = invariants(E).disc
        for l in (5, 7, 11, 13, 17):
            b, c, d = depressed_cubic_mod(invariants(E), l)
            df = (
                18 * b * c * d - 4 * b**3 * d + b * b * c * c - 4 * c**3 - 27 * d * d
            )
            assert (16 * df - disc) % l == 0


def test_c_tilde_and_inert_base_change():
    assert tate_local(E11A1, 11).c_tilde == 1  # v = 5 odd
    assert tate_local(E11A1, 11).inert_tamagawa == 5
    for rec in corpus():
        _, data = reduction_profile(minimal_model(rec.curve))
        for q, loc in data.items():
            if not loc.kind.startswith("multiplicative"):
                continue
            ct = tate_local(rec.curve, q).c_tilde
            assert ct == 2 - loc.disc_valuation % 2
            if loc.kind == "multiplicative-nonsplit":
                assert ct == loc.tamagawa
            if loc.kind == "multiplicative-split":
                assert tate_local(rec.curve, q).inert_tamagawa == loc.tamagawa
    with pytest.raises(ValueError):
        tate_local(model(0, 0, 0, -1, 0), 2).c_tilde  # additive at 2


def _cubic_disc_mod(b, c, d, p):
    return (18 * b * c * d - 4 * b**3 * d + b * b * c * c - 4 * c**3 - 27 * d * d) % p


def test_count_cubic_roots_matches_brute_force():
    # every residue triple at the small primes (4,031 triples): a
    # squarefree cubic's count equals brute force, p = 2 by its two
    # residues and the odd ones by Stickelberger and T^p = T mod f; a
    # cubic with a repeated root mod p (p divides its discriminant) has
    # None for its count, at every p
    repeated = 0
    for p in (2, 3, 5, 7, 11, 13):
        for b, c, d in itertools.product(range(p), repeat=3):
            n = count_cubic_roots(b, c, d, p)
            if _cubic_disc_mod(b, c, d, p) == 0:
                assert n is None, (b, c, d, p)
                repeated += 1
                continue
            assert n == count_cubic_roots_brute(b, c, d, p), (b, c, d, p)
    assert repeated > 300
    rng = random.Random(79)
    for _ in range(400):
        p = rng.choice([2, 3, 5, 53, 97, 101, 997])
        b, c, d = (rng.randrange(p) for _ in range(3))
        if _cubic_disc_mod(b, c, d, p) != 0:
            assert count_cubic_roots(b, c, d, p) == count_cubic_roots_brute(b, c, d, p)
    # random primes up to 3,000, coefficients unreduced and negative, and
    # cubics built with forced triple, double and three distinct roots;
    # the first two have None for their count
    counts = Counter()
    for _ in range(150):
        p = sympy.nextprime(rng.randrange(49, 2989))
        r1, r2, r3 = (rng.randrange(p) for _ in range(3))
        shape = rng.choice(("random", "triple", "double", "split"))
        if shape == "triple":
            r2 = r3 = r1
        elif shape == "double":
            r2 = r1
        if shape == "random":
            b, c, d = (rng.randrange(p) for _ in range(3))
        else:
            b, c, d = -(r1 + r2 + r3), r1 * r2 + r1 * r3 + r2 * r3, -r1 * r2 * r3
        b, c, d = (x + p * rng.randint(-5, 5) for x in (b, c, d))
        n = count_cubic_roots(b, c, d, p)
        if _cubic_disc_mod(b, c, d, p) == 0:
            assert n is None, (b, c, d, p)
            counts["repeated"] += 1
            continue
        assert n == count_cubic_roots_brute(b, c, d, p), (b, c, d, p)
        counts[n] += 1
    assert all(counts[n] > 5 for n in (0, 1, 3, "repeated")), counts


@pytest.mark.parametrize("p", [53, 59, 101, 499, 1009])
def test_count_cubic_roots_stickelberger_exit(p):
    # a cubic whose discriminant is a nonzero non-square mod p has one
    # root (Stickelberger); the kernel returns it without T^p mod f.
    # 2,000 seeded triples (about a third of them irreducible, with 0
    # roots), and cubics built from chosen roots with 1 (a root times an
    # irreducible quadratic) and 3 distinct roots; every count is held to
    # brute force.  Cubics with a double root have None for their count.
    rng = random.Random(p)
    cubes = [t**3 % p for t in range(p)]
    squares = [t * t % p for t in range(p)]

    def brute(b, c, d):
        return sum(1 for t in range(p) if (cubes[t] + b * squares[t] + c * t + d) % p == 0)

    def nonsquare():
        while True:
            n = rng.randrange(1, p)
            if pow(n, (p - 1) // 2, p) == p - 1:
                return n

    triples = [tuple(rng.randrange(p) for _ in range(3)) for _ in range(2000)]
    for _ in range(50):
        r1, r2, r3 = rng.sample(range(p), 3)
        triples.append((-(r1 + r2 + r3), r1 * r2 + r1 * r3 + r2 * r3, -r1 * r2 * r3))  # 3
        triples.append((-(2 * r1 + r2), r1 * r1 + 2 * r1 * r2, -r1 * r1 * r2))  # double r1
        n = nonsquare()  # (T - r1)(T^2 - n): one root
        triples.append((-r1, -n, r1 * n))
    counts, exits = Counter(), 0
    for b, c, d in triples:
        disc = _cubic_disc_mod(b, c, d, p)
        n = count_cubic_roots(b, c, d, p)
        if disc == 0:
            assert n is None, (b, c, d, p)
            counts["repeated"] += 1
            continue
        exits += pow(disc, (p - 1) // 2, p) == p - 1
        assert n == brute(b % p, c % p, d % p), (b, c, d, p)
        counts[n] += 1
    assert all(counts[n] >= 20 for n in (0, 1, 3, "repeated")), counts
    assert exits > 500


def test_reduction_kind_against_point_counts():
    """Multiplicative/additive and split/nonsplit as seen by the trace of
    Frobenius on the reduced curve."""
    for rec in corpus():
        E = rec.curve
        disc = invariants(E).disc
        _, data = reduction_profile(minimal_model(E))
        for p, loc in data.items():
            assert loc.kind == reduction_kind(rec.a_invariants, p, int(disc))


def test_additive_types_with_known_conductors():
    """Extra additive coverage at 2 and 3: curves whose labels pin the
    conductor; the type is forced by the component count where noted."""
    cases = [
        # (ainvs, N, {p: (kodaira, tamagawa or None, v)})
        ((0, 0, 1, -30, 63), 27, {3: ("IV", None, 5)}),  # 27a4
        ((0, 0, 0, -11, -14), 32, {2: ("I0*", None, 9)}),  # 32a3
        ((0, 0, 0, -15, 22), 36, {2: ("IV*", None, 8), 3: ("III", 2, 3)}),  # 36a2
        ((0, 0, 0, -1, 0), 32, {2: ("III", 2, 6)}),  # y^2 = x^3 - x
    ]
    for ai, N, table in cases:
        E = model(*ai)
        assert conductor(E) == N
        for p, (kod, c, v) in table.items():
            loc = tate_local(E, p)
            assert (loc.kodaira, loc.disc_valuation) == (kod, v)
            if c is not None:
                assert loc.tamagawa == c
            # conductor-degree consistency
            assert loc.conductor_exponent == valuation(N, p)


def test_nonminimal_rescale_chain():
    """A model blown up at several primes at once re-minimizes inside
    tate_local at each prime independently."""
    blown = model(*apply_iso(E11A1, Fraction(1, 6), 1, 2, 3))
    for p in (2, 3, 11):
        loc = tate_local(blown, p)
        ref = tate_local(E11A1, p)
        assert (loc.kodaira, loc.tamagawa, loc.disc_valuation) == (
            ref.kodaira,
            ref.tamagawa,
            ref.disc_valuation,
        )


def test_i_star_chain_types():
    """Twists by 8m of curves with odd c6 land in I8* at 2; the chain
    bookkeeping must give the index and f = v - 4 - m."""
    found = 0
    for rec in corpus():
        E = rec.curve
        inv = invariants(E)
        if inv.disc % 2 == 0 or valuation(inv.c6, 2) != 0:
            continue
        T = twist_minimal(minimal_model(E), fundamental_discriminant(8))[0]
        loc = tate_local(T, 2)
        assert loc.kodaira == "I8*"
        assert loc.disc_valuation == 18
        assert loc.conductor_exponent == 6  # n - 4 - m with n = 18, m = 8
        found += 1
    assert found >= 3


def test_twist_conductor_identity():
    """N(twist by D) = N * D^2 for fundamental D coprime to N: exercises
    the conductor exponents across every reduction type at once."""
    checked = 0
    for rec in corpus():
        N = rec.conductor
        for D in (5, 8, 12, 13, 17, 21, 24):
            if math.gcd(D, N) != 1:
                continue
            Tmin = twist_minimal(minimal_model(rec.curve), fundamental_discriminant(D))[0]
            assert conductor(Tmin) == N * D * D, (rec.label, D)
            checked += 1
    assert checked > 100


def test_tate_deep_branch_fuzz():
    """Randomized models with engineered 2- and 3-adic depth: every run
    must pass the algorithm's internal valuation assertions and report a
    type consistent with its Tamagawa number."""
    rng = random.Random(97)
    allowed = {
        "II": {1},
        "III": {2},
        "IV": {1, 3},
        "IV*": {1, 3},
        "III*": {2},
        "II*": {1},
        "I0*": {1, 2, 4},
    }
    runs = 0
    for _ in range(600):
        p = rng.choice([2, 2, 3, 3, 5, 7])
        exps = [rng.randint(0, 2) for _ in range(5)]
        ai = [rng.randint(-4, 4) * p**e for e in exps]
        try:
            invariants(model(*ai))
        except Exception:
            continue
        loc = tate_local(model(*ai), p)
        runs += 1
        if loc.kodaira in allowed:
            assert loc.tamagawa in allowed[loc.kodaira], (ai, p, loc)
        elif loc.kodaira.endswith("*"):
            assert loc.tamagawa in (2, 4), (ai, p, loc)
        elif loc.kodaira != "I0":
            n = int(loc.kodaira[1:])
            assert loc.disc_valuation == n
            if loc.kind == "multiplicative-split":
                assert loc.tamagawa == n
            else:
                assert loc.tamagawa == 2 - n % 2
    assert runs > 400
