"""The twist-identity layer: setup validation, conductor decomposition,
period scales, the even-two-power quantities and the local identities."""

import random
from fractions import Fraction
from itertools import chain

import pytest

from quadtwist.arith import (
    factorize,
    fundamental_discriminant,
    fundamental_discriminants,
    kronecker,
)
from quadtwist.curves import invariants, minimal_model, model
from quadtwist.harness import (
    default_corpus_path,
    ingest_corpus,
    valid_pair_setups,
    valid_single_setups,
)
from quadtwist.localred import reduction_profile, tate_local
from quadtwist.twistlaws import (
    SetupError,
    check_two_adic_case,
    decompose,
    equal_mod_squares,
    find_auxiliary_discriminant,
    tamagawa_transfer_check,
    tamagawa_transfer_product_check,
    measured_u,
    power_of_two_exponent,
    predict_two_adic,
    symbol_closed_form,
    search_discriminant,
    inert_valuation_sum,
    tamagawa_symbol_check,
    twist_quantity,
    pair_twist_quantity,
    twist_minimal,
    u_of_discriminant,
    validate_setup,
)

from oracles import hostile_semiprime

E11A1 = model(0, -1, 1, -10, -20)
E14A1 = model(1, 0, 1, 4, -6)


def corpus():
    return ingest_corpus(default_corpus_path())


# ---------------------------------------------------------------------------
# setup validation


def test_validate_setup_examples():
    s = validate_setup(E14A1, 17, n_plus=2, n_minus=7)
    assert (s.n_plus, s.n_minus) == (2, 7)
    s = validate_setup(E11A1, 13, n_plus=1, n_minus=11)
    assert (s.n_plus, s.n_minus) == (1, 11)
    with pytest.raises(SetupError) as exc:
        validate_setup(E11A1, 14, n_plus=1, n_minus=11)
    assert "fundamental" in str(exc.value)


def test_validate_setup_canonical_factorization():
    s = validate_setup(E11A1, 13)
    assert (s.n_plus, s.n_minus) == (1, 11)
    s = validate_setup(E11A1, 5)  # 5 is a square mod 11
    assert (s.n_plus, s.n_minus) == (11, 1)


def test_validate_setup_distinct_reasons():
    with pytest.raises(SetupError) as exc:
        validate_setup(E11A1, 13, n_plus=11, n_minus=11)
    msg = str(exc.value)
    assert "coprime" in msg and "11" in msg
    # inert prime with square division: conductor 49 curve, any inert D
    e49 = model(1, -1, 0, -2, -1)
    with pytest.raises(SetupError) as exc:
        validate_setup(e49, 5, n_plus=1, n_minus=49)
    assert "squarefree" in str(exc.value)
    # additive prime cannot be inert even when it exactly appears
    with pytest.raises(SetupError) as exc:
        validate_setup(e49, 5, n_plus=7, n_minus=7)
    assert "multiplicative" in str(exc.value)
    # split/inert mismatches reported per prime
    with pytest.raises(SetupError) as exc:
        validate_setup(E11A1, 5, n_plus=1, n_minus=11)
    assert "inert" in str(exc.value)
    with pytest.raises(SetupError) as exc:
        validate_setup(E11A1, 13, n_plus=11, n_minus=1)
    assert "split" in str(exc.value)
    with pytest.raises(SetupError) as exc:
        validate_setup(E11A1, 33)  # gcd(D, N) = 11
    assert "gcd" in str(exc.value)


def test_validate_setup_hostile_n_minus_fails_fast(one_second_deadline):
    # n_minus is rejected by the product clause; it is never factored
    with pytest.raises(SetupError) as exc:
        validate_setup(E11A1, 13, n_plus=1, n_minus=hostile_semiprime())
    assert "!= N = 11" in str(exc.value)


def test_validate_setup_pair_condition_star():
    # 17a1 has v17(N) = 1; characters of opposite sign at 17 are fine
    e17 = model(1, -1, 1, -1, -14)
    s = validate_setup(e17, 13, 5)
    assert s.is_pair and s.combined.value == 65
    # conductor 49: chi(7) = -1 for either character violates (*)
    e49 = model(1, -1, 0, -2, -1)
    with pytest.raises(SetupError) as exc:
        validate_setup(e49, 5, 8)  # kronecker(5,7) = -1
    assert "||" in str(exc.value) or "multiplicative" in str(exc.value)
    with pytest.raises(SetupError):
        validate_setup(E11A1, 1, 1)


def test_pair_canonical_membership():
    # (11a1, D1=13, D2=5): D = 65 = 10 mod 11 is a nonresidue, so inert
    s = validate_setup(E11A1, 13, 5)
    assert (s.n_plus, s.n_minus) == (1, 11)
    assert kronecker(65, 11) == -1


def test_setup_prime_sets_match_factorize():
    # every admissible single and pair setup of the shipped corpus, D <= 100
    setups = 0
    for rec in corpus():
        E = minimal_model(rec.curve).minimal
        for _, s in chain(valid_single_setups(E, 100), valid_pair_setups(E, 100)):
            assert s.plus_primes == factorize(s.n_plus).primes()
            assert s.minus_primes == factorize(s.n_minus).primes()
            setups += 1
    assert setups > 1000


# ---------------------------------------------------------------------------
# decomposition


def test_decompose_trivial_character():
    s = validate_setup(E11A1, 1, 13)
    dec = decompose(s)
    # chi_1 is trivial: everything lands in the plus pieces of i = 1
    assert dec.n1_minus == 1
    assert dec.n2_minus == s.n_minus == 11
    assert dec.n1_plus_II == s.n_minus


def test_decompose_swap_symmetry():
    s12 = validate_setup(E11A1, 13, 5)
    s21 = validate_setup(E11A1, 5, 13)
    d12, d21 = decompose(s12), decompose(s21)
    assert d12.n1_plus_I == d21.n2_plus_I
    assert d12.n1_minus_I == d21.n2_minus_I
    assert d12.n1_plus_II == d21.n2_plus_II
    assert d12.n1_minus_II == d21.n2_minus_II


def test_decompose_concrete_n14():
    # N = 2*7, chi_1 = (17|.), chi_2 = (5|.): chi_1(2) = +1, chi_1(7) = -1,
    # chi_2(2) = -1, chi_2(7) = -1; D = 85 is split at 7, inert at 2.
    s = validate_setup(E14A1, 17, 5)
    assert (s.n_plus, s.n_minus) == (7, 2)
    dec = decompose(s)
    assert (dec.n1_plus_I, dec.n1_minus_I, dec.n1_plus_II, dec.n1_minus_II) == (1, 7, 2, 1)
    assert (dec.n2_plus_I, dec.n2_minus_I, dec.n2_plus_II, dec.n2_minus_II) == (1, 7, 1, 2)
    assert dec.n1_plus * dec.n1_minus == 14


def test_decompose_sweep_invariants():
    rng = random.Random(83)
    fds = [f.value for f in fundamental_discriminants(60)]
    hits = 0
    for rec in corpus()[:10]:
        E = rec.curve
        for _ in range(40):
            d1, d2 = rng.sample(fds, 2)
            try:
                s = validate_setup(E, d1, d2)
            except SetupError:
                continue
            decompose(s)  # all identities asserted inside
            hits += 1
    assert hits > 30


# ---------------------------------------------------------------------------
# u values


def test_u_of_discriminant_examples():
    assert u_of_discriminant(E11A1, 13) == 1
    assert u_of_discriminant(E11A1, 8) == 2  # v2(c6) = v2(20008) = 3
    for rec in corpus()[:8]:
        assert u_of_discriminant(rec.curve, 5) == 1  # odd D


def test_u_closed_form_matches_measured():
    checked = 0
    for rec in corpus():
        E = rec.curve
        N = rec.conductor
        for f in fundamental_discriminants(60):
            if f.value == 1:
                continue
            import math

            if math.gcd(f.value, N) != 1:
                continue
            if f.is_even and N % 2 == 0:
                continue
            u = u_of_discriminant(E, f)
            assert Fraction(u) == measured_u(E, f)
            assert u in (1, 2)
            checked += 1
    assert checked > 200


def test_u_of_discriminant_precondition():
    e14 = E14A1  # bad reduction at 2
    with pytest.raises(ValueError):
        u_of_discriminant(e14, 8)


# ---------------------------------------------------------------------------
# the quantities


def test_twist_quantity_example_11a1_13():
    v = twist_quantity(validate_setup(E11A1, 13))
    assert v.quantity == 1 and v.exponent == 0 and v.is_even_exponent
    assert v.components["twist_tamagawa"] == {13: 2}
    assert v.components["c_tilde"] == {11: 1}


def test_twist_quantity_trivial_and_empty_products():
    # split-only setups (n_minus = 1) have empty c-tilde products
    e37 = model(0, 0, 1, -1, 0)
    found = 0
    for f in fundamental_discriminants(60):
        if kronecker(f.value, 37) != 1:
            continue
        v = twist_quantity(validate_setup(e37, f, n_plus=37, n_minus=1))
        assert v.is_power_of_two and v.is_even_exponent
        assert v.components["c_tilde"] == {} and v.components["omega_n_minus"] == 0
        found += 1
    assert found > 3


def test_twist_quantity_smallest_even_d():
    # smallest valid 8m for the conductor-11 curve is D = 8 itself
    for d in (8, 24, 40):
        try:
            s = validate_setup(E11A1, d)
        except SetupError:
            continue
        assert d == 8
        v = twist_quantity(s)
        assert v.is_even_exponent
        assert v.components["u"] == 2
        break
    else:
        pytest.fail("no valid 8m discriminant found")


def test_pair_quantity_reduces_to_single_for_trivial_character():
    s_pair = validate_setup(E11A1, 1, 13)
    s_single = validate_setup(E11A1, 13)
    vp, vs = pair_twist_quantity(s_pair), twist_quantity(s_single)
    assert vp.quantity == vs.quantity
    assert vp.is_even_exponent and vs.is_even_exponent


def test_pair_quantity_swap_symmetry():
    v12 = pair_twist_quantity(validate_setup(E11A1, 13, 5))
    v21 = pair_twist_quantity(validate_setup(E11A1, 5, 13))
    assert v12.quantity == v21.quantity
    assert v12.is_even_exponent and v21.is_even_exponent


def test_pair_quantity_concrete_pair():
    v = pair_twist_quantity(validate_setup(E11A1, 13, 5))
    assert v.is_power_of_two and v.is_even_exponent
    book = v.components["bookkeeping"]
    assert book["omega_parity"] and book["c_tilde_product"]


def test_pair_decomposition_yields_valid_single_setups():
    """Each discriminant of an admissible pair satisfies the split/inert
    hypothesis for its own piece (n_i_plus, n_i_minus) of the conductor,
    and its single quantity is itself an even power of two."""
    checked = 0
    for rec in corpus()[:8]:
        for pair in ((13, 5), (5, 13), (17, 8), (1, 13), (8, 21)):
            try:
                s = validate_setup(rec.curve, *pair)
            except SetupError:
                continue
            dec = decompose(s)
            for i, (np_, nm_) in ((1, (dec.n1_plus, dec.n1_minus)), (2, (dec.n2_plus, dec.n2_minus))):
                sub = validate_setup(
                    s.curve, s.discriminants[i - 1], n_plus=np_, n_minus=nm_
                )
                v = twist_quantity(sub)
                assert v.is_power_of_two and v.is_even_exponent, (rec.label, pair, i)
            checked += 1
    assert checked > 5


# ---------------------------------------------------------------------------
# transfer identities


def test_transfer_identity_example():
    s = validate_setup(E11A1, 1, 13)
    res = tamagawa_transfer_check(s, 11)
    assert res.ok and "5 vs 5" in res.detail


def test_transfer_identity_nonsplit_and_even_valuation_cases():
    """The identity at a nonsplit base prime and at an even-valuation
    prime, found by corpus scan."""
    nonsplit = even_v = 0
    for rec in corpus():
        E = rec.curve
        _, _, data = reduction_profile(E)
        for f in fundamental_discriminants(40):
            if f.value == 1:
                continue
            try:
                s = validate_setup(E, 1, f.value)
            except SetupError:
                continue
            if s.n_minus == 1:
                continue
            for q in factorize(s.n_minus).primes():
                res = tamagawa_transfer_check(s, q)
                assert res.ok, (rec.label, f.value, res.detail)
                if data[q].kind == "multiplicative-nonsplit":
                    nonsplit += 1
                if data[q].disc_valuation % 2 == 0:
                    even_v += 1
    assert nonsplit > 10 and even_v > 10


def test_transfer_product_example_and_sweep():
    res = tamagawa_transfer_product_check(validate_setup(E11A1, 1, 13))
    assert res.ok and "5 vs 5" in res.detail
    hits = 0
    for rec in corpus()[:8]:
        for pair in ((1, 13), (5, 13), (13, 5), (1, 8), (5, 8)):
            try:
                s = validate_setup(rec.curve, *pair)
            except SetupError:
                continue
            assert tamagawa_transfer_product_check(s).ok, (rec.label, pair)
            hits += 1
    assert hits > 8


def test_transfer_product_split_primes_contribute_squares():
    """Primes where both characters agree give equal Tamagawa numbers on
    the two twists."""
    s = validate_setup(E14A1, 17, 5)
    for l, loc in s.local_data.items():
        if s.chi(1, l) == s.chi(2, l):
            t1 = tate_local(twist_minimal(s.curve, 17)[0], l).tamagawa
            t2 = tate_local(twist_minimal(s.curve, 5)[0], l).tamagawa
            assert t1 == t2


# ---------------------------------------------------------------------------
# symbol closed form


def test_symbol_closed_form_examples():
    assert symbol_closed_form(-161051, 13, b=5) == -1
    assert symbol_closed_form(7, 12, b=2) == -1  # v2(D) = 2, delta = 3 mod 4, b even
    assert symbol_closed_form(15, fundamental_discriminant(8 * 13), b=2) == 1
    # v2(D) = 3, delta = 7 mod 8, m = 13 = 1 mod 4, b even -> +1


def test_symbol_closed_form_table_v2_3():
    # all (delta mod 8, m mod 4) cells of the v2(D) = 3 table
    cells = {
        (1, 1): 1, (1, 3): 1, (5, 1): -1, (5, 3): -1,
        (3, 3): 1, (3, 1): -1, (7, 1): 1, (7, 3): -1,
    }
    for (r8, m4), sign in cells.items():
        m = 13 if m4 == 1 else 3
        D = fundamental_discriminant(8 * m)
        delta = r8 if r8 % 4 != 0 else r8 + 8
        assert symbol_closed_form(delta, D, b=0) == sign
        assert symbol_closed_form(delta, D, b=1) == -sign


def test_symbol_closed_form_equals_kronecker_on_valid_setups():
    checked = 0
    for rec in corpus():
        E = rec.curve
        disc = invariants(E).disc
        for f in fundamental_discriminants(100):
            try:
                s = validate_setup(E, f)
            except SetupError:
                continue
            assert symbol_closed_form(disc, f, inert_valuation_sum(s)) == kronecker(disc, f.odd_part)
            checked += 1
    assert checked > 300


def test_tamagawa_symbol_examples():
    assert tamagawa_symbol_check(E11A1, 13).ok
    assert tamagawa_symbol_check(E11A1, fundamental_discriminant(1)).ok  # empty product
    # product congruent to 2 mod squares needs opposite symbols at two primes
    found = False
    for rec in corpus():
        disc = invariants(rec.curve).disc
        for f in fundamental_discriminants(300):
            m = f.odd_part
            if m == 1 or f.value != m:
                continue
            fac = factorize(m)
            if len(fac.factors) != 2 or any(e > 1 for _, e in fac.factors):
                continue
            la, lb = fac.primes()
            if disc % la == 0 or disc % lb == 0:
                continue
            if kronecker(disc, la) * kronecker(disc, lb) == -1:
                res = tamagawa_symbol_check(rec.curve, f)
                assert res.ok
                found = True
                break
        if found:
            break
    assert found


# ---------------------------------------------------------------------------
# two-adic case cross-checks


def test_two_adic_cases_cover_all_branches():
    seen = {}
    for rec in corpus():
        E = rec.curve
        if rec.conductor % 2 == 0:
            continue
        for f in fundamental_discriminants(120):
            if not f.is_even:
                continue
            try:
                validate_setup(E, f)
            except SetupError:
                continue
            pred = predict_two_adic(E, f)
            res = check_two_adic_case(E, f)
            assert res.ok, (rec.label, f.value, res.detail)
            seen.setdefault((pred.case, pred.kodaira, pred.tamagawa), 0)
            seen[(pred.case, pred.kodaira, pred.tamagawa)] += 1
    kinds = set(seen)
    assert ("II*", 1) in {(k, c) for _, k, c in kinds}
    assert ("II", 1) in {(k, c) for _, k, c in kinds}
    assert ("I8*", 2) in {(k, c) for _, k, c in kinds}
    assert ("I8*", 4) in {(k, c) for _, k, c in kinds}
    assert any(k == "I4*" for _, k, _ in kinds)


def test_i4_star_tamagawa_dichotomy():
    """v2(D) = 2, pattern-1 curves: c2 = 2 or 4 by a6 mod 4."""
    seen = set()
    for rec in corpus():
        E = rec.curve
        if rec.conductor % 2 == 0:
            continue
        from quadtwist.curves import two_strongly_minimal, pattern_of_normal_form

        S = two_strongly_minimal(E)
        if pattern_of_normal_form(S) != 1:
            continue
        for f in fundamental_discriminants(200):
            if f.two_exponent != 2:
                continue
            try:
                validate_setup(E, f)
            except SetupError:
                continue
            loc = tate_local(twist_minimal(E, f.value)[0], 2)
            assert loc.kodaira == "I4*"
            want = 2 if S.a6 % 4 in (1, 2) else 4
            assert loc.tamagawa == want
            seen.add(want)
    assert seen == {2, 4}


# ---------------------------------------------------------------------------
# auxiliary discriminants


def test_find_auxiliary_discriminant_scan():
    s = validate_setup(E11A1, 1, 13)
    f = find_auxiliary_discriminant(s, 11)
    assert f.value == 8  # 5 splits at 11, 8 is inert; scan is ascending


def test_search_discriminant_two_primes():
    f = search_discriminant({2: 1, 7: -1}, coprime_to=14)
    assert kronecker(f.value, 2) == 1 and kronecker(f.value, 7) == -1
    for g in fundamental_discriminants(f.value - 1):
        if g.value == 1 or g.value % 2 == 0 and 14 % 2 == 0:
            continue
        import math

        if math.gcd(g.value, 14) != 1:
            continue
        assert not (kronecker(g.value, 2) == 1 and kronecker(g.value, 7) == -1)


def test_search_discriminant_bound_exhaustion():
    with pytest.raises(SetupError):
        search_discriminant({11: -1}, bound=1)


# ---------------------------------------------------------------------------
# helpers


def test_equal_mod_squares():
    assert equal_mod_squares(2, 8)
    assert equal_mod_squares(Fraction(5, 4), 5)
    assert not equal_mod_squares(2, 3)
    assert not equal_mod_squares(2, -2)
    with pytest.raises(ValueError):
        equal_mod_squares(0, 1)


def test_power_of_two_exponent():
    assert power_of_two_exponent(Fraction(8)) == 3
    assert power_of_two_exponent(Fraction(1, 4)) == -2
    assert power_of_two_exponent(Fraction(1)) == 0
    assert power_of_two_exponent(Fraction(3)) is None
    assert power_of_two_exponent(Fraction(-2)) is None
