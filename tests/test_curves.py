"""Weierstrass model layer: invariants, isomorphisms, twists, minimal
models and the 2-adic normal form."""

import random
from fractions import Fraction

import pytest

from quadtwist.arith import factorize, fundamental_discriminants, valuation
from quadtwist.curves import (
    IsoMap,
    SingularModelError,
    apply_iso,
    invariants,
    iso,
    minimal_model,
    model,
    pattern_of_normal_form,
    quadratic_twist,
    quadratic_twist_with_scale,
    two_strongly_minimal,
)

E11A1 = model(0, -1, 1, -10, -20)


def random_model(rng, bound=8):
    while True:
        ai = [rng.randint(-bound, bound) for _ in range(5)]
        try:
            invariants(model(*ai))
        except SingularModelError:
            continue
        return model(*ai)


def random_iso(rng):
    u = rng.choice([1, 2, 3, Fraction(1, 2), Fraction(2, 3), -1])
    r, s, w = (Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2])) for _ in range(3))
    return iso(u, r, s, w)


def test_invariants_examples():
    inv = invariants(model(0, 0, 0, -1, 0))
    assert (inv.disc, inv.c4, inv.j) == (64, 48, 1728)
    inv = invariants(E11A1)
    assert (inv.disc, inv.c6) == (-161051, 20008)
    assert invariants(model(1, 0, 0, 0, 2)).b2 == 1


def test_invariants_rejects_singular():
    with pytest.raises(SingularModelError):
        invariants(model(0, 0, 0, 0, 0))
    with pytest.raises(SingularModelError):
        invariants(model(0, 0, 0, -3, 2))  # y^2 = (x-1)^2 (x+2)


def test_c_identity_random_sweep():
    rng = random.Random(23)
    for _ in range(1200):
        inv = invariants(random_model(rng))
        assert inv.c4**3 - inv.c6**2 == 1728 * inv.disc


def test_apply_iso_identity_and_scaling():
    assert apply_iso(E11A1, IsoMap.identity()) == E11A1
    E = model(0, 0, 0, 625, 0)  # twist of y^2 = x^3 + x by 25
    scaled = apply_iso(E, iso(5, 0, 0, 0))
    assert scaled == model(0, 0, 0, 1, 0)
    assert Fraction(invariants(scaled).disc) == Fraction(invariants(E).disc, 5**12)


def test_apply_iso_round_trip_and_composition():
    rng = random.Random(29)
    for _ in range(400):
        E = random_model(rng)
        phi = random_iso(rng)
        psi = random_iso(rng)
        assert apply_iso(apply_iso(E, phi), phi.inverse()) == E
        assert apply_iso(apply_iso(E, phi), psi) == apply_iso(E, phi.compose(psi))
        inv, invp = invariants(E), invariants(apply_iso(E, phi))
        u = Fraction(phi.u)
        assert Fraction(invp.c4) == Fraction(inv.c4) / u**4
        assert Fraction(invp.c6) == Fraction(inv.c6) / u**6
        assert invp.j == inv.j


def test_iso_rejects_zero_u():
    with pytest.raises(ValueError):
        iso(0, 1, 1, 1)


def test_quadratic_twist_examples():
    assert quadratic_twist(model(0, 0, 0, 1, 0), 5) == model(0, 0, 0, 25, 0)
    rng = random.Random(31)
    for _ in range(50):
        E = random_model(rng)
        assert quadratic_twist(E, 1) == E
    # twist by 9 = 3^2 maps back to the trivial twist under [3, 0, 0, 0]
    E9 = quadratic_twist(model(0, 0, 0, 1, 0), 9)
    assert E9 == model(0, 0, 0, 81, 0)
    assert apply_iso(E9, iso(3, 0, 0, 0)) == model(0, 0, 0, 1, 0)


def test_quadratic_twist_square_factor_iso():
    # [s, 0, a1(s-1)/2, a3(s^3-1)/2] carries the twist by s^2 f to the twist by f
    rng = random.Random(37)
    for _ in range(60):
        E = random_model(rng)
        a1, _, a3, _, _ = E
        if a1 % 2 or a3 % 2:
            continue  # the displayed iso is integral only for even a1, a3
        s, f = rng.choice([3, 5]), rng.choice([1, 2, -1, 7])
        Ed, cleared_d = quadratic_twist_with_scale(E, s * s * f)
        Ef, cleared_f = quadratic_twist_with_scale(E, f)
        if cleared_d or cleared_f:
            continue
        phi = iso(s, 0, a1 * (s - 1) // 2, a3 * (s**3 - 1) // 2)
        assert apply_iso(Ed, phi) == Ef


def test_twist_rejects_zero():
    with pytest.raises(ValueError):
        quadratic_twist(E11A1, 0)


def test_twist_invariant_scaling_and_j():
    rng = random.Random(41)
    for _ in range(300):
        E = random_model(rng)
        d = rng.choice([-7, -3, -1, 2, 3, 5, 8, 12, 13])
        raw, cleared = quadratic_twist_with_scale(E, d)
        inv, invt = invariants(E), invariants(raw)
        scale = 2**12 if cleared else 1
        assert invt.disc == d**6 * inv.disc * scale
        assert invt.j == inv.j


def test_double_twist_is_isomorphic():
    rng = random.Random(43)
    for _ in range(100):
        E = random_model(rng)
        d = rng.choice([5, 8, 13, -7, 12])
        back = quadratic_twist(quadratic_twist(E, d), d)
        assert invariants(back).j == invariants(E).j
        assert minimal_model(back).minimal == minimal_model(E).minimal


def test_minimal_model_examples():
    mm = minimal_model(E11A1)
    assert mm.minimal == E11A1 and mm.u_value == 1
    # v11 = 5 < 12 and no other prime divides the discriminant: already minimal
    blown = apply_iso(E11A1, iso(Fraction(1, 2), 0, 0, 0))
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
        blown = apply_iso(E, iso(Fraction(1, u), r, s, w))
        assert blown.is_integral
        mm = minimal_model(blown)
        assert mm.minimal == E
        assert mm.u_value == u
        assert apply_iso(blown, mm.map) == E


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
    rng = random.Random(59)
    for _ in range(150):
        m = minimal_model(random_model(rng)).minimal
        assert m.a1 in (0, 1) and m.a3 in (0, 1) and m.a2 in (-1, 0, 1)


def test_minimal_model_bad_primes_match_factorize():
    # The shipped corpus and its raw twist models by every fundamental
    # D <= 100; most of those models are not minimal.
    from quadtwist.harness import default_corpus_path, ingest_corpus

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
    S = two_strongly_minimal(E11A1)
    # a1 = 0 stays even under any [1,r,s,w], so pattern 1 is unreachable
    assert pattern_of_normal_form(S) == 2
    assert invariants(S).disc == invariants(E11A1).disc
    assert valuation(invariants(S).c6, 2) == 3

    E = model(1, 0, 0, 4, 1)  # disc = -4225, odd
    assert two_strongly_minimal(E) == E
    assert pattern_of_normal_form(E) == 1
    assert valuation(invariants(E).c6, 2) == 0


def test_two_strongly_minimal_pattern_exclusive():
    # pattern 1 needs a1 odd, pattern 2 needs a1 even
    rng = random.Random(61)
    seen = set()
    for _ in range(200):
        E = random_model(rng)
        if valuation(invariants(E).disc, 2) != 0:
            continue
        Emin = minimal_model(E).minimal
        S = two_strongly_minimal(Emin)
        pat = pattern_of_normal_form(S)
        seen.add(pat)
        assert invariants(S).disc == invariants(Emin).disc
        assert valuation(invariants(S).c6, 2) == (0 if pat == 1 else 3)
        assert minimal_model(S).minimal == minimal_model(S).minimal  # still integral-minimal
        assert minimal_model(S).u_value == 1
    assert seen == {1, 2}


def test_two_strongly_minimal_preconditions():
    with pytest.raises(ValueError):
        two_strongly_minimal(model(0, 0, 0, -1, 0))  # even discriminant
    blown = apply_iso(E11A1, iso(Fraction(1, 3), 0, 0, 0))
    with pytest.raises(ValueError):
        two_strongly_minimal(blown)  # not minimal
