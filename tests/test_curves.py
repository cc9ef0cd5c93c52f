"""Weierstrass model layer: invariants, twists and minimal models, with
isomorphisms taken from the Fraction oracle, and the oracle's 2-adic
normal form that the even-D case table is stated on."""

import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

import quadtwist
from quadtwist.arith import (
    factorize,
    fundamental_discriminant,
    fundamental_discriminants,
    valuation,
)
from quadtwist.curves import (
    SingularModelError,
    invariants,
    minimal_from_invariants,
    minimal_model,
    model,
    quadratic_twist,
)
from quadtwist.harness import default_corpus_path, ingest_corpus
from quadtwist.twistlaws import twist_minimal

from oracles import (
    apply_iso,
    fraction_invariants,
    general_twist_minimal,
    iso_onto,
    j_invariant,
    normal_form_pattern,
    quadratic_twist_fraction,
    random_reduced_curves,
    rst_transform,
    two_strongly_minimal_brute,
)

E11A1 = model(0, -1, 1, -10, -20)
COVERAGE = os.path.join(os.path.dirname(__file__), "data", "coverage.csv")


def random_model(rng, bound=8):
    while True:
        ai = [rng.randint(-bound, bound) for _ in range(5)]
        try:
            invariants(model(*ai))
        except SingularModelError:
            continue
        return model(*ai)


def random_iso(rng):
    u = Fraction(rng.choice([1, 2, 3, Fraction(1, 2), Fraction(2, 3), -1]))
    r, s, w = (Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2])) for _ in range(3))
    return u, r, s, w


def blow_up(E, u, r, s, w):
    """The integral model [1/u, r, s, w] of E, for an integer u."""
    return model(*apply_iso(E, Fraction(1, u), r, s, w))


def corpus_curves():
    return [rec.curve for rec in ingest_corpus(default_corpus_path())]


def test_invariants_examples():
    E = model(0, 0, 0, -1, 0)
    inv = invariants(E)
    assert (inv.disc, inv.c4, j_invariant(E)) == (64, 48, 1728)
    inv = invariants(E11A1)
    assert (inv.disc, inv.c6) == (-161051, 20008)
    assert invariants(model(1, 0, 0, 0, 2)).b2 == 1


def test_invariants_rejects_singular():
    with pytest.raises(SingularModelError):
        invariants(model(0, 0, 0, 0, 0))
    with pytest.raises(SingularModelError):
        invariants(model(0, 0, 0, -3, 2))  # y^2 = (x-1)^2 (x+2)


def test_invariants_of_integral_model_are_ints():
    rng = random.Random(19)
    for _ in range(200):
        E = random_model(rng)
        inv = invariants(E)
        assert all(type(x) is int for x in inv)
        assert Fraction(inv.c4**3, inv.disc) == j_invariant(E)


def test_model_rejects_non_integral():
    for bad in ((Fraction(1, 2), 0, 0, 0, 1), (0.5, 0, 0, 0, 1), (1, 0, 0, 0, Fraction(7, 3))):
        with pytest.raises(ValueError):
            model(*bad)
    with pytest.raises(ValueError):
        model("3", 0, 0, 0, 1)
    E = model(Fraction(4, 2), 0, 0, 0, 1)
    assert E == model(2, 0, 0, 0, 1) and all(type(a) is int for a in E)
    # the gate is a raise, not an assert that -O strips
    src = os.path.dirname(os.path.dirname(quadtwist.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = (
        "from quadtwist.curves import model\n"
        "try:\n    model(0.5, 0, 0, 0, 1)\nexcept ValueError:\n    print('rejected')\n"
    )
    done = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env={**os.environ, "PYTHONPATH": path}, check=True, capture_output=True, text=True,
        timeout=60,
    )
    assert done.stdout == "rejected\n"


def test_j_of_rational_model():
    rng = random.Random(17)
    for _ in range(100):
        E = random_model(rng)
        c4, c6, disc = fraction_invariants(apply_iso(E, *random_iso(rng)))
        assert c4**3 - c6**2 == 1728 * disc
        assert c4**3 / disc == j_invariant(E)
    blown = apply_iso(E11A1, Fraction(1, 2), Fraction(1, 3), 0, 0)
    with pytest.raises(ValueError):
        model(*blown)
    c4, c6, disc = fraction_invariants(blown)
    assert c4**3 / disc == j_invariant(E11A1) == Fraction(-122023936, 161051)


def test_c_identity_random_sweep():
    rng = random.Random(23)
    for _ in range(1200):
        inv = invariants(random_model(rng))
        assert inv.c4**3 - inv.c6**2 == 1728 * inv.disc


def test_apply_iso_identity_and_scaling():
    # the Fraction oracle that the minimal-model tests compare against
    assert apply_iso(E11A1, 1, 0, 0, 0) == E11A1
    E = model(0, 0, 0, 625, 0)  # twist of y^2 = x^3 + x by 25
    scaled = model(*apply_iso(E, 5, 0, 0, 0))
    assert scaled == model(0, 0, 0, 1, 0)
    assert Fraction(invariants(scaled).disc) == Fraction(invariants(E).disc, 5**12)
    mm = minimal_model(E)
    assert mm.minimal == scaled and mm.u_value == 5


def test_apply_iso_round_trip_and_composition():
    rng = random.Random(29)
    for _ in range(400):
        E = random_model(rng)
        u, r, s, w = random_iso(rng)
        u2, r2, s2, w2 = random_iso(rng)
        moved = apply_iso(E, u, r, s, w)
        inverse = (1 / u, -r / u**2, -s / u, (r * s - w) / u**3)
        assert apply_iso(moved, *inverse) == E
        composed = (u * u2, r + u**2 * r2, s + u * s2, w + u**2 * s * r2 + u**3 * w2)
        assert apply_iso(moved, u2, r2, s2, w2) == apply_iso(E, *composed)
        inv = invariants(E)
        c4, c6, disc = fraction_invariants(moved)
        assert c4 == Fraction(inv.c4) / u**4
        assert c6 == Fraction(inv.c6) / u**6
        assert c4**3 / disc == j_invariant(E)


def test_rst_transform_matches_fraction_formulas():
    rng = random.Random(71)
    for _ in range(500):
        E = random_model(rng, bound=50)
        r, s, w = (rng.randint(-40, 40) for _ in range(3))
        out = rst_transform(E, r, s, w)
        assert all(type(a) is int for a in out)
        assert out == apply_iso(E, 1, r, s, w)
        assert invariants(out).disc == invariants(E).disc


def test_quadratic_twist_examples():
    assert quadratic_twist(model(0, 0, 0, 1, 0), 5) == model(0, 0, 0, 25, 0)
    rng = random.Random(31)
    for _ in range(50):
        E = random_model(rng)
        assert quadratic_twist(E, 1) == E
    # twist by 9 = 3^2 maps back to the trivial twist under [3, 0, 0, 0]
    E9 = quadratic_twist(model(0, 0, 0, 1, 0), 9)
    assert E9 == model(0, 0, 0, 81, 0)
    assert apply_iso(E9, 3, 0, 0, 0) == model(0, 0, 0, 1, 0)
    # 11a1 by 8: the raw twist is half-integral, so [1/2, 0, 0, 0] clears it
    assert quadratic_twist(E11A1, 8) == model(0, -32, 8, -10240, -647184)


def test_quadratic_twist_square_factor_iso():
    # [s, 0, a1(s-1)/2, a3(s^3-1)/2] carries the twist by s^2 f to the twist by f
    rng = random.Random(37)
    for _ in range(60):
        E = random_model(rng)
        a1, _, a3, _, _ = E
        if a1 % 2 or a3 % 2:
            continue  # the displayed iso is integral only for even a1, a3
        s, f = rng.choice([3, 5]), rng.choice([1, 2, -1, 7])
        if quadratic_twist_fraction(E, s * s * f)[1] != 1 or quadratic_twist_fraction(E, f)[1] != 1:
            continue  # a cleared twist has a1, a3 doubled and the iso scaled
        Ed, Ef = quadratic_twist(E, s * s * f), quadratic_twist(E, f)
        assert apply_iso(Ed, s, 0, a1 * (s - 1) // 2, a3 * (s**3 - 1) // 2) == Ef


def test_twist_rejects_zero():
    with pytest.raises(ValueError):
        quadratic_twist(E11A1, 0)


def test_twist_invariant_scaling_and_j():
    rng = random.Random(41)
    for _ in range(300):
        E = random_model(rng)
        d = rng.choice([-7, -3, -1, 2, 3, 5, 8, 12, 13])
        T = quadratic_twist(E, d)
        assert all(type(a) is int for a in T)
        expected, u = quadratic_twist_fraction(E, d)
        assert T == expected
        inv, invt = invariants(E), invariants(T)
        assert invt.disc == d**6 * inv.disc / u**12
        assert j_invariant(T) == j_invariant(E)


def test_double_twist_is_isomorphic():
    rng = random.Random(43)
    for _ in range(100):
        E = random_model(rng)
        d = rng.choice([5, 8, 13, -7, 12])
        back = quadratic_twist(quadratic_twist(E, d), d)
        assert j_invariant(back) == j_invariant(E)
        assert minimal_model(back).minimal == minimal_model(E).minimal


def test_minimal_model_examples():
    mm = minimal_model(E11A1)
    assert mm.minimal == E11A1 and mm.u_value == 1
    # v11 = 5 < 12 and no other prime divides the discriminant: already minimal
    blown = blow_up(E11A1, 2, 0, 0, 0)
    back = minimal_model(blown)
    assert back.minimal == E11A1 and back.u_value == 2
    mm = minimal_model(model(0, 0, 0, 0, 2**6 * 3**6))
    assert mm.minimal == model(0, 0, 0, 0, 1) and mm.u_value == 6


def test_minimal_model_round_trips():
    rng = random.Random(47)
    for _ in range(120):
        E = minimal_model(random_model(rng)).minimal
        u = rng.choice([2, 3, 5, 6])
        r, s, w = rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3)
        blown = blow_up(E, u, r, s, w)
        mm = minimal_model(blown)
        assert mm.minimal == E
        assert mm.u_value == u
        assert apply_iso(blown, u, *iso_onto(blown, E, u)) == E


# negative, square and non-fundamental twisting parameters
EXTRA_D = (-3, -4, -7, -8, 9, 12, 25, 72)


def twist_reference(E, d):
    """The minimal model of the integral twist of E by d, and the scale
    from the raw twist onto it: minimal_model's u times the oracle's
    clearing factor of the raw twist."""
    T, scale = quadratic_twist_fraction(E, d)
    assert quadratic_twist(E, d) == T
    mm = minimal_model(model(*T))
    return mm.minimal, mm.u_value * scale


def test_twist_minimal_matches_minimal_model_of_twist():
    # twist_minimal reduces the invariants of the twist of E's minimal
    # model by a parsed D, and the oracle's general form those of the
    # twist of E by any d, and neither builds a twist model; the reference
    # minimizes the integral twist model and scales u by the oracle's
    # clearing factor of the raw twist
    rng = random.Random(73)
    ds = [f.value for f in fundamental_discriminants(500)]
    cases = [(E, d) for E in corpus_curves() for d in (*ds, *EXTRA_D)]
    cases += [(E, d) for E in random_reduced_curves(rng, 40) for d in (*EXTRA_D, *rng.sample(ds, 10))]
    held = {E: minimal_model(E) for E in {E for E, _ in cases}}
    scales = Counter()
    for E, d in cases:
        if d in ds:
            want = twist_reference(held[E].minimal, d)
            tw = twist_minimal(held[E], fundamental_discriminant(d))
            assert (tw.minimal, tw.u_value) == want, (tuple(E), d)
        else:
            want = twist_reference(E, d)
            assert general_twist_minimal(held[E], d) == want, (tuple(E), d)
        scales[quadratic_twist_fraction(E, d)[1]] += 1
    assert scales[1] > 1000 and scales[Fraction(1, 2)] > 1000  # both raw twist shapes


def test_twist_minimal_by_one_reads_minimal_model(monkeypatch):
    # the twist by 1 is E itself: both forms read it off the held
    # minimal_model(E) and factor nothing, the library's with scale 1 from
    # the minimal model, the oracle's with E's scale u onto it (corpus
    # curves, random reduced curves, and blow-ups whose u is not 1)
    rng = random.Random(83)
    curves = corpus_curves() + random_reduced_curves(rng, 10)
    curves += [blow_up(E, u, 1, 0, -1) for E, u in zip(curves[:6], (2, 3, 6, 2, 3, 6))]
    expected = {E: twist_reference(E, 1) for E in curves}
    held = {E: minimal_model(E) for E in curves}

    def no_factoring(n):
        raise AssertionError(f"factorize({n}) called")

    monkeypatch.setattr("quadtwist.curves.factorize", no_factoring)
    monkeypatch.setattr("oracles.factorize", no_factoring)
    assert {mm[1] for mm in expected.values()} >= {1, 2, 3, 6}
    one = fundamental_discriminant(1)
    for E in curves:
        assert general_twist_minimal(held[E], 1) == expected[E], tuple(E)
        assert general_twist_minimal(held[E], one) == expected[E], tuple(E)
        assert twist_minimal(held[E], one) == held[E]._replace(u_value=1), tuple(E)


def test_twist_minimal_factors_only_small_numbers(monkeypatch):
    # the twist's discriminant 2^12 d^6 disc(E) has no primes but 2, those
    # of d u and E's bad primes: given the held minimal_model(E), the
    # general form factors nothing above 10^6 (corpus curves and blow-ups
    # with u > 1), and only u > 1 for a parsed d, whose primes it carries;
    # the library's form factors nothing, and its scale is measured from
    # E's minimal model, so it is the general one over u
    rng = random.Random(89)
    ds = [f.value for f in fundamental_discriminants(500)]
    corpus = corpus_curves()
    blown = [blow_up(E, u, 1, 0, -1) for E, u in zip(corpus[:6], (2, 3, 6, 2, 3, 6))]
    cases = [(E, d) for E in corpus for d in (*ds, *EXTRA_D)]
    cases += [(E, d) for E in blown for d in (*EXTRA_D, *rng.sample(ds, 10))]
    expected = {(E, d): twist_reference(E, d) for E, d in cases}
    curves = corpus + blown
    held = {E: minimal_model(E) for E in curves}

    factored = []

    def small_only(n):
        if abs(n) > 10**6:
            raise AssertionError(f"factorize({n}) of a large number")
        factored.append(n)
        return factorize(n)

    monkeypatch.setattr("quadtwist.curves.factorize", small_only)
    monkeypatch.setattr("oracles.factorize", small_only)
    assert {mm.u_value for mm in held.values()} >= {1, 2, 3, 6}
    for (E, d), want in expected.items():
        assert general_twist_minimal(held[E], d) == want, (tuple(E), d)
        if d in ds:
            D, u = fundamental_discriminant(d), held[E].u_value
            factored.clear()
            assert general_twist_minimal(held[E], D) == want, (tuple(E), d)
            assert factored == ([u] if u > 1 and d > 1 else []), (tuple(E), d)
            factored.clear()
            tw = twist_minimal(held[E], D)
            assert (tw.minimal, tw.u_value) == (want[0], want[1] / u), (tuple(E), d)
            assert factored == [], (tuple(E), d)


def test_twist_minimal_is_the_general_form_at_scale_one(monkeypatch):
    # for a parsed D the library's twist_minimal is the oracle's general
    # form on E's minimal model (u_value 1), and it measures u as an int,
    # factoring nothing: every fundamental D <= 500 on the shipped and the
    # coverage corpus and on seeded random curves, blow-ups of some of them
    # among them, whose held minimal_model has u_value > 1
    rng = random.Random(101)
    curves = corpus_curves() + [rec.curve for rec in ingest_corpus(COVERAGE)]
    randoms = random_reduced_curves(rng, 200)
    curves += randoms + [blow_up(E, u, 1, 1, 0) for E, u in zip(randoms, (2, 3, 6) * 10)]
    held = [minimal_model(E) for E in curves]
    ds = list(fundamental_discriminants(500))

    def no_factoring(n):
        raise AssertionError(f"factorize({n}) called")

    monkeypatch.setattr("quadtwist.arith.factorize", no_factoring)
    monkeypatch.setattr("quadtwist.curves.factorize", no_factoring)
    monkeypatch.setattr("oracles.factorize", no_factoring)
    assert sum(mm.u_value > 1 for mm in held) >= 30
    for mm in held:
        at_one = mm._replace(u_value=1)
        for D in ds:
            tw = twist_minimal(mm, D)
            T, u = tw.minimal, tw.u_value
            assert type(u) is int, (tuple(mm.minimal), D.value)
            assert (T, u) == general_twist_minimal(at_one, D), (tuple(mm.minimal), D.value)


def test_minimal_from_invariants_needs_every_prime():
    # the primes are divided out, not searched for: a list missing one
    # prime of the discriminant is an error, never a wrong model
    rng = random.Random(97)
    curves = corpus_curves() + random_reduced_curves(rng, 10)
    curves += [blow_up(E, u, 0, 1, 1) for E, u in zip(curves[:4], (2, 3, 6, 5))]
    for E in curves:
        inv = invariants(E)
        primes = factorize(inv.disc).primes()
        mm = minimal_from_invariants(inv.c4, inv.c6, primes)
        assert mm == minimal_model(E)
        assert mm.invariants == invariants(mm.minimal)
        for p in primes:
            with pytest.raises(ValueError, match="missing"):
                minimal_from_invariants(inv.c4, inv.c6, [q for q in primes if q != p])
    with pytest.raises(SingularModelError):
        minimal_from_invariants(0, 0, [2])


def test_iso_onto_carries_each_model_onto_its_minimal_model():
    # the isomorphism behind u_value, which minimal_model does not build:
    # the corpus and its twist models by every fundamental D <= 500 (random
    # blow-ups are in test_minimal_model_round_trips)
    ds = [f.value for f in fundamental_discriminants(500)]
    for E in corpus_curves():
        for T in (E, *(quadratic_twist(E, d) for d in ds)):
            mm = minimal_model(T)
            r, s, w = iso_onto(T, mm.minimal, mm.u_value)
            assert apply_iso(T, mm.u_value, r, s, w) == mm.minimal, (tuple(T), mm)


def test_minimal_model_idempotent_and_valuation_minimal():
    rng = random.Random(53)
    for _ in range(150):
        E = random_model(rng)
        mm = minimal_model(E)
        again = minimal_model(mm.minimal)
        assert again.minimal == mm.minimal and again.u_value == 1
        dE = invariants(E).disc
        dM = invariants(mm.minimal).disc
        assert dE % dM == 0
        assert dE == dM * mm.u_value**12


def test_minimal_model_normalized_form():
    # every reduced (a1, a2, a3) class occurs, so each of the six b2 the
    # mod-12 congruence picks is reached with both a3
    rng = random.Random(59)
    classes = set()
    for _ in range(150):
        m = minimal_model(random_model(rng)).minimal
        classes.add((m.a1, m.a2, m.a3))
    assert classes == {(a1, a2, a3) for a1 in (0, 1) for a2 in (-1, 0, 1) for a3 in (0, 1)}


def test_minimal_model_bad_primes_match_factorize():
    # The shipped corpus and its raw twist models by every fundamental
    # D <= 100; most of those models are not minimal.
    non_minimal = 0
    for rec in ingest_corpus(default_corpus_path()):
        for f in fundamental_discriminants(100):
            mm = minimal_model(quadratic_twist(rec.curve, f.value))
            assert mm.bad_primes == factorize(invariants(mm.minimal).disc).primes()
            non_minimal += mm.u_value != 1
    assert non_minimal > 100


def test_minimal_model_rejects_non_integral():
    with pytest.raises(ValueError):
        minimal_model(model(Fraction(1, 2), 0, 0, 0, 1))


def test_two_strongly_minimal_patterns():
    S = two_strongly_minimal_brute(E11A1)
    # a1 = 0 stays even under any [1,r,s,w], so pattern 1 is unreachable
    assert normal_form_pattern(S) == 2
    assert invariants(S).disc == invariants(E11A1).disc
    assert valuation(invariants(S).c6, 2) == 3

    E = model(1, 0, 0, 4, 1)  # disc = -4225, odd
    assert two_strongly_minimal_brute(E) == E
    assert normal_form_pattern(E) == 1
    assert valuation(invariants(E).c6, 2) == 0


def test_two_strongly_minimal_pattern_exclusive():
    # pattern 1 needs a1 odd, pattern 2 needs a1 even; pattern 1 forces c6
    # odd and pattern 2 v2(c6) = 3, the parity the even-D case table reads
    rng = random.Random(61)
    seen = set()
    for _ in range(200):
        E = random_model(rng)
        if valuation(invariants(E).disc, 2) != 0:
            continue
        Emin = minimal_model(E).minimal
        S = two_strongly_minimal_brute(Emin)
        pat = normal_form_pattern(S)
        seen.add(pat)
        assert invariants(S).disc == invariants(Emin).disc
        assert valuation(invariants(S).c6, 2) == (0 if pat == 1 else 3)
        assert minimal_model(S).u_value == 1  # still integral-minimal
    assert seen == {1, 2}


def test_two_strongly_minimal_preconditions():
    with pytest.raises(ValueError):
        two_strongly_minimal_brute(model(0, 0, 0, -1, 0))  # even discriminant
    # a blow-up's minimal model has the minimal model's normal form
    blown = blow_up(E11A1, 3, 0, 0, 0)
    assert two_strongly_minimal_brute(minimal_model(blown).minimal) == (
        two_strongly_minimal_brute(E11A1)
    )
