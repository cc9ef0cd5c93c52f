"""Tate's algorithm on plain ints against its model-object reference.

The kernel (_tate) carries a1..a6 as local ints through every coordinate
change, on a model minimal at p; reference_tate_local (oracles.py) is
the same algorithm on WeierstrassModel values, each change through
rst_transform, each step recomputing the invariants, and a rescaling and
restart where a model is not minimal.  tate_local, which minimizes any
model at p alone (minimal_from_invariants at the one pair (p, v_p(disc)),
no factorization) and hands the reduction to local_data, must agree with
the reference on every key the sweeps ask and on random and engineered
models, non-minimal ones among them, and the inputs together must reach
every branch of the algorithm at 2 and at 3.  local_data, which starts
the kernel from a reduction's invariants and discriminant exponents,
must agree with both at every bad prime of every reduction the sweeps
run it on and of the random models' minimal models; the kernel refuses
a model that is not minimal at p."""

import os
import random

import pytest

from quadtwist.arith import fundamental_discriminants, valuation
from quadtwist.curves import SingularModelError, invariants, minimal_model, model, quadratic_twist
from quadtwist.harness import default_corpus_path, ingest_corpus
from quadtwist.localred import _tate, local_data, tate_local
from quadtwist.twistlaws import twist_minimal, twist_rows

from oracles import factorint, random_reduced_curves, reference_tate_local

COVERAGE = os.path.join(os.path.dirname(__file__), "data", "coverage.csv")


def sweep_reductions(path: str, d_max: int = 500, pair_dmax: int = 100) -> dict:
    """Each reduction a sweep of the corpus runs Tate's algorithm on, with
    the primes it asks there: each curve's minimal model at its bad
    primes, and each row's minimal twist (twist_minimal) at the primes of
    its local data (those of D, and of N up to the pair cap)."""
    discs = list(fundamental_discriminants(d_max))
    asked = {}
    for rec in ingest_corpus(path):
        mm = rec.facts.mm
        asked[mm] = set(mm.bad_primes)
        for row in twist_rows(rec.facts, discs, pair_dmax):
            asked.setdefault(twist_minimal(mm, row.disc), set()).update(row.local)
    return asked


def scaled(E, u: int):
    """The model [1/u, 0, 0, 0] E: each a_i times u^i."""
    return model(*(a * u**i for a, i in zip(E, (1, 2, 3, 4, 6))))


def random_keys(seed: int = 15, count: int = 300) -> set:
    """Seeded random reduced curves at 2, 3, 5, 7 and their bad primes;
    the same curves scaled by u = 1/p at p = 2, 3 (non-minimal there),
    and some by u = 1/4, 1/6, 1/9 at the primes of u; some of their
    twists by non-fundamental d at 2 and 3; and models whose
    coefficients carry engineered powers of p."""
    rng = random.Random(seed)
    keys = set()
    for i, E in enumerate(random_reduced_curves(rng, count)):
        disc = invariants(E).disc
        keys.update((E, p) for p in {2, 3, 5, 7, *factorint(abs(disc))})
        for p in (2, 3):
            keys.add((scaled(E, p), p))
        if i < 40:
            keys.update((scaled(E, u), p) for u in (4, 6, 9) for p in (2, 3) if u % p == 0)
        if i < 20:
            for d in (-3, -4, -8, 9, 12, 18, 36, 72):
                keys.update((quadratic_twist(E, d), p) for p in (2, 3))
    engineered = 0
    while engineered < 2 * count:
        # a_i divisible by up to p^(i + 1): deep additive types
        p = rng.choice([2, 2, 3, 3, 5, 7])
        ai = [rng.randint(-6, 6) * p ** rng.randint(0, i + 1) for i in (1, 2, 3, 4, 6)]
        try:
            invariants(model(*ai))
        except SingularModelError:
            continue
        keys.add((model(*ai), p))
        engineered += 1
    return keys


def _family(kodaira: str) -> str:
    """The branch of the algorithm a Kodaira symbol comes from."""
    if kodaira in ("I0", "I0*", "II", "III", "IV", "IV*", "III*", "II*"):
        return kodaira
    return "Im*" if kodaira.endswith("*") else "Im"


@pytest.fixture(scope="module")
def reductions():
    return {
        "shipped": sweep_reductions(default_corpus_path()),
        "coverage": sweep_reductions(COVERAGE),
    }


@pytest.fixture(scope="module")
def key_sets(reductions):
    """Every (model, prime) a sweep of each corpus asks Tate's algorithm,
    and the random keys."""
    keys = {
        name: {(mm.minimal, p) for mm, primes in asked.items() for p in primes}
        for name, asked in reductions.items()
    }
    keys["random"] = random_keys()
    return keys


def test_kernel_matches_reference(key_sets, monkeypatch):
    # tate_local minimizes at p from v_p of the discriminant alone: with
    # factorize refused (so minimal_model too), it agrees with the
    # reference on every key, the random models non-minimal at 2 and 3
    # (u = 1/p, and u = 1/4, 1/6, 1/9) among them
    def refuse(n):
        raise AssertionError(f"factorize({n}) called")

    monkeypatch.setattr("quadtwist.curves.factorize", refuse)
    monkeypatch.setattr("quadtwist.arith.factorize", refuse)
    assert len(key_sets["shipped"]) == 5320
    for name, keys in key_sets.items():
        for E, p in keys:
            assert tate_local(E, p) == reference_tate_local(E, p), (name, tuple(E), p)


def test_inputs_reach_every_branch_at_2_and_3(key_sets):
    families = {2: set(), 3: set()}
    rescaled = {2: 0, 3: 0}
    singular_point = {2: set(), 3: set()}
    for keys in key_sets.values():
        for E, p in keys:
            if p in families:
                loc = tate_local(E, p)
                families[p].add(_family(loc.kodaira))
                inv = invariants(E)
                # tate_local's minimization at p: a model that is not
                # minimal there
                rescaled[p] += valuation(inv.disc, p) > loc.disc_valuation
                # the first singular-point step's closed form: a1 odd or
                # even at 2, 3 | b2 or not at 3
                if inv.disc % p == 0:
                    singular_point[p].add(E.a1 % 2 if p == 2 else inv.b2 % 3 == 0)
    every = {"I0", "Im", "II", "III", "IV", "I0*", "Im*", "IV*", "III*", "II*"}
    assert families == {2: every, 3: every}
    assert min(rescaled.values()) > 0, rescaled
    assert singular_point == {2: {0, 1}, 3: {False, True}}


@pytest.mark.parametrize("u, p", [(11, 11), (2, 2), (3, 3)])
def test_kernel_refuses_a_model_not_minimal_at_p(u, p):
    # 11a1 scaled by 1/u is not minimal at p: the kernel refuses it, and
    # tate_local minimizes it at p first
    E = scaled(model(0, -1, 1, -10, -20), u)
    inv = invariants(E)
    with pytest.raises(ValueError, match=f"is not minimal at {p}$"):
        _tate(E, p, inv, valuation(inv.disc, p))
    assert tate_local(E, p) == reference_tate_local(E, p)


def test_kernel_errors_match_reference():
    singular = model(0, 0, 0, 0, 0)
    for fn in (tate_local, reference_tate_local):
        with pytest.raises(SingularModelError, match=r"singular model \(0, 0, 0, 0, 0\)"):
            fn(singular, 2)
        with pytest.raises(ValueError, match="12 is not prime"):
            fn(model(0, -1, 1, -10, -20), 12)


def test_local_data_is_tate_local_on_the_minimal_model(reductions, key_sets):
    # local_data starts Tate's algorithm from the reduction's invariants
    # and discriminant exponents, tate_local from its own: at every bad
    # prime both agree with the reference, on every reduction the sweeps
    # run it on (each prime they ask is a bad prime) and on the random
    # models' minimal models
    cases = [*reductions["shipped"].items(), *reductions["coverage"].items()]
    cases += [(minimal_model(E), set()) for E in {E for E, _ in key_sets["random"]}]
    for mm, asked in cases:
        assert asked <= set(mm.bad_primes), tuple(mm.minimal)
        data = local_data(mm, mm.bad_primes)
        assert list(data) == list(mm.bad_primes)
        for p, loc in data.items():
            want = reference_tate_local(mm.minimal, p)
            assert loc == tate_local(mm.minimal, p) == want, (tuple(mm.minimal), p)


def test_disc_exponents_are_the_minimal_discriminant_valuations(key_sets):
    # the exponent the reduction is handed at each bad prime, less
    # 12 v_p(u), is v_p of the minimal discriminant: the random models'
    # minimal models (factorize's exponents; the u = 4, 6, 9 rescalings
    # among them) and the twists of the two corpora by every fundamental
    # D, even up to 500 (u = 2 among them) and odd up to 200 (u = 3
    # among them, where 3 | gcd(D, N)), whose exponents twist_minimal
    # derives as the curve's plus 6 v_l(D)
    held = {minimal_model(E) for E in {E for E, _ in key_sets["random"]}}
    assert {mm.u_value for mm in held} >= {1, 2, 3, 4, 6, 9}
    facts = [rec.facts for path in (default_corpus_path(), COVERAGE) for rec in ingest_corpus(path)]
    evens, odds = set(), set()
    for f in fundamental_discriminants(500):
        if f.is_even or f.value <= 200:
            (evens if f.is_even else odds).update(twist_minimal(c.mm, f) for c in facts)
    assert {tw.u_value for tw in evens} >= {1, 2}
    assert {tw.u_value for tw in odds} >= {1, 3}
    for mm in held | evens | odds:
        disc = mm.invariants.disc
        assert mm.bad_primes == tuple(sorted(factorint(abs(disc)))), tuple(mm.minimal)
        assert mm.disc_exponents == tuple(valuation(disc, p) for p in mm.bad_primes)
