"""The twist-identity layer: setup validation, conductor decomposition,
period scales, twist rows, the even-two-power quantities and the local
identities.

The sign table, validate_setup and the setups the sweep's rows and
their joins imply are held to the clause-by-clause reference in
oracles.py, and the pair bookkeeping to its eight-piece decomposition."""

import math
import os
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import chain

import pytest

from quadtwist.arith import (
    factorize,
    fundamental_discriminant,
    fundamental_discriminants,
    kronecker,
    valuation,
)
from quadtwist.curves import invariants, minimal_model, model
from quadtwist.harness import (
    _format_quantity,
    default_corpus_path,
    ingest_corpus,
)
from quadtwist.localred import ADDITIVE, MULT_NONSPLIT, MULT_SPLIT, reduction_profile, tate_local
import quadtwist.twistlaws as twistlaws
from quadtwist.twistlaws import (
    MinusSide,
    SetupError,
    TwistRow,
    TwoAdicPrediction,
    _exponent,
    _two_adic_prediction,
    _verdict,
    curve_facts,
    check_two_adic_case,
    equal_mod_squares,
    find_auxiliary_discriminant,
    join_rows,
    tamagawa_transfer_check,
    tamagawa_transfer_product_check,
    symbol_closed_form,
    tamagawa_symbol_check,
    twist_quantity,
    pair_twist_quantity,
    twist_minimal,
    twist_rows,
    u_of_discriminant,
    validate_setup,
)

from oracles import (
    decompose,
    fraction_quantity,
    fraction_two_power,
    implied_setup,
    predict_two_adic,
    random_reduced_curves,
    two_strongly_minimal_brute,
    reference_setup,
    row_pairs,
    square_class,
    sweep_report,
)

E11A1 = model(0, -1, 1, -10, -20)
E14A1 = model(1, 0, 1, 4, -6)
EIGHT = fundamental_discriminant(8)


def corpus():
    return ingest_corpus(default_corpus_path())


def single_row(E, d):
    (row,) = validate_setup(E, d)
    return row


def pair_join(E, d1, d2):
    return join_rows(*validate_setup(E, d1, d2))


def setup(E, d1, d2=None):
    """The setup the rows validate_setup returns stand for."""
    return implied_setup(*validate_setup(E, d1, d2))


def quantity(v):
    """The verdict's quantity as a Fraction."""
    return Fraction(v.numerator, 2**v.w)


def sweep_setups(E, singles, pairs):
    """(key, implied setup) for the sweep's single rows and pair joins,
    from the facts of E's minimal model."""
    cap = pairs[-1].value
    rows = twist_rows(curve_facts(minimal_model(E)), singles, cap)
    joined = [
        ((p.row1.disc.value, p.row2.disc.value), implied_setup(p.row1, p.row2))
        for p in row_pairs(rows, cap)
    ]
    return [(r.disc.value, implied_setup(r)) for r in rows], joined


# ---------------------------------------------------------------------------
# setup validation


def test_validate_setup_examples():
    s = setup(E14A1, 17)
    assert (s.n_plus, s.n_minus) == (2, 7)
    s = setup(E11A1, 13)
    assert (s.n_plus, s.n_minus) == (1, 11)


def test_validate_setup_canonical_factorization():
    s = setup(E11A1, 13)
    assert (s.n_plus, s.n_minus) == (1, 11)
    s = setup(E11A1, 5)  # 5 is a square mod 11
    assert (s.n_plus, s.n_minus) == (11, 1)


def test_validate_setup_distinct_reasons():
    with pytest.raises(SetupError) as exc:
        validate_setup(E11A1, 14)
    assert "fundamental" in str(exc.value)
    # a -1 at a prime of N with square division: conductor 49, any inert D
    e49 = model(1, -1, 0, -2, -1)
    with pytest.raises(SetupError) as exc:
        validate_setup(e49, 5)
    assert exc.value.reasons == [
        "character -1 at prime 7 requires 7 || N (multiplicative reduction)"
    ]
    with pytest.raises(SetupError) as exc:
        validate_setup(E11A1, 33)  # gcd(D, N) = 11
    assert exc.value.reasons == ["gcd(D, N) = 11 != 1"]


def test_validate_setup_pair_condition_star():
    # 17a1 has v17(N) = 1; characters of opposite sign at 17 are fine
    e17 = model(1, -1, 1, -1, -14)
    s = setup(e17, 13, 5)
    assert s.is_pair and math.prod(f.value for f in s.discriminants) == 65
    # conductor 49: chi(7) = -1 for either character violates (*)
    e49 = model(1, -1, 0, -2, -1)
    with pytest.raises(SetupError) as exc:
        validate_setup(e49, 5, 8)  # kronecker(5,7) = -1
    assert "||" in str(exc.value) or "multiplicative" in str(exc.value)
    with pytest.raises(SetupError):
        validate_setup(E11A1, 1, 1)


def test_setup_parses_each_discriminant_once(monkeypatch):
    # parsed discriminants carry their primes: validation, the quantities
    # and .primes never factor them again
    f13, f5 = fundamental_discriminant(13), fundamental_discriminant(5)

    def no_factoring(n):
        raise AssertionError(f"factorize({n}) after the parse")

    monkeypatch.setattr("quadtwist.arith.factorize", no_factoring)
    single = validate_setup(E11A1, f13)
    pair = validate_setup(E11A1, f13, f5)
    assert implied_setup(*single).discriminants == (f13,)
    assert implied_setup(*pair).discriminants == (f13, f5)
    assert twist_quantity(*single).is_even_exponent
    assert pair_twist_quantity(join_rows(*pair)).is_even_exponent
    assert (f13.primes, f5.primes) == ((13,), (5,))


def test_pair_canonical_membership():
    # (11a1, D1=13, D2=5): D = 65 = 10 mod 11 is a nonresidue, so inert
    s = setup(E11A1, 13, 5)
    assert (s.n_plus, s.n_minus) == (1, 11)
    assert kronecker(65, 11) == -1


def validated_setups(E, singles, pairs):
    """What the sweep's rows and joins must stand for, by the reference: every
    single, and every pair D1 < D2, put through reference_setup.  Also the
    rejections the sign table decides on other grounds than a 0 sign:
    singles coprime to the N of a minimal E (a -1 at an additive prime),
    and pairs of admissible singles that share a prime."""
    mm = minimal_model(E)
    N = reduction_profile(mm)[0]
    minimal = mm.minimal == E
    ok_singles, additive, non_coprime = [], [], []
    for f in singles:
        try:
            ok_singles.append((f.value, reference_setup(E, f)))
        except SetupError:
            if minimal and math.gcd(f.value, N) == 1:
                additive.append(f.value)
    admissible = {d for d, _ in ok_singles}
    ok_pairs = []
    for i, f1 in enumerate(pairs):
        for f2 in pairs[i + 1 :]:
            try:
                ok_pairs.append(((f1.value, f2.value), reference_setup(E, f1, f2)))
            except SetupError as exc:
                if {f1.value, f2.value} <= admissible:
                    assert exc.reasons == ["discriminant pair is not coprime"]
                    non_coprime.append((f1.value, f2.value))
    return ok_singles, ok_pairs, additive, non_coprime


def test_sign_table_setups_match_validate_setup():
    # the sweep builds rows from each discriminant's sign vector at the
    # primes of N and joins them into pairs; the reference, clause by
    # clause, must give the same (key, setup) lists as the setups they
    # imply, whole TwistSetup included
    fds = list(fundamental_discriminants(500))
    to100 = [f for f in fds if f.value <= 100]
    to60 = [f for f in fds if f.value <= 60]
    rng = random.Random(101)
    cases = [(minimal_model(rec.curve).minimal, fds, to100) for rec in corpus()]
    cases += [
        (minimal_model(E).minimal, to60, to60) for E in random_reduced_curves(rng, 32)
    ]
    additive, non_coprime, setups = [], [], 0
    for E, singles, pairs in cases:
        ok_singles, ok_pairs, rejected, shared = validated_setups(E, singles, pairs)
        assert sweep_setups(E, singles, pairs) == (ok_singles, ok_pairs), tuple(E)
        additive += [(E, d) for d in rejected]
        non_coprime += shared
        setups += len(ok_singles) + len(ok_pairs)
    assert setups > 9000
    # a model that is not minimal: the reference admits nothing on it, and
    # the sweep's rows are those of its minimal model, which its facts hold
    blown = model(0, 0, 0, 0, 46656)
    assert validated_setups(blown, to60, to60)[:2] == ([], [])
    minimal = minimal_model(blown).minimal
    assert minimal != blown
    assert sweep_setups(blown, to60, to60) == validated_setups(minimal, to60, to60)[:2]
    # a -1 at an additive prime, and a pair of admissible singles sharing
    # a prime, are each rejected somewhere
    assert additive and non_coprime
    for E, d in additive:
        local_data = reduction_profile(minimal_model(E))[1]
        assert any(
            kronecker(d, p) == -1 and loc.conductor_exponent > 1 for p, loc in local_data.items()
        )


def test_validate_setup_returns_the_sweep_rows():
    # user input and the sweep build the same rows: on every shipped
    # curve and D <= 100, validate_setup gives the row twist_rows builds,
    # or raises where there is none, and a pair's rows join as row_pairs
    # joins them
    fds = list(fundamental_discriminants(100))
    singles = pairs = 0
    for rec in corpus():
        E = rec.facts.mm.minimal
        rows = {r.disc.value: r for r in twist_rows(rec.facts, fds, 100)}
        for f in fds:
            if f.value in rows:
                assert validate_setup(E, f) == (rows[f.value],), (rec.label, f.value)
                singles += 1
            else:
                with pytest.raises(SetupError):
                    validate_setup(E, f)
        joins = {(p.row1.disc.value, p.row2.disc.value): p for p in row_pairs(rows.values(), 100)}
        for i, f1 in enumerate(fds):
            for f2 in fds[i + 1 :]:
                key = (f1.value, f2.value)
                if key in joins:
                    assert join_rows(*validate_setup(E, f1, f2)) == joins[key], (rec.label, key)
                    pairs += 1
                else:
                    with pytest.raises(SetupError):
                        validate_setup(E, f1, f2)
    assert (singles, pairs) == (517, 4978)  # the acceptance sweep has 4978 pairs


def _setup_or_none(validator, *args, **kwargs):
    try:
        return validator(*args, **kwargs)
    except SetupError:
        return None


def test_validate_setup_matches_reference_on_stated_splits():
    # D alone fixes the split.  Every corpus curve, D <= 100, single and
    # pair: validate_setup derives the setup the reference builds with no
    # stated split, and of each unitary split of N, a split that is not
    # coprime and one whose product is not N, the reference accepts
    # exactly the derived split, with the same setup
    fds = list(fundamental_discriminants(100))
    keys = [(f,) for f in fds]
    keys += [(f1, f2) for i, f1 in enumerate(fds) for f2 in fds[i + 1 :]]
    accepted = stated = 0
    for rec in corpus():
        mm = minimal_model(rec.curve)
        E = mm.minimal
        N, local_data = reduction_profile(mm)
        parts = [p**loc.conductor_exponent for p, loc in local_data.items()]
        splits = []
        for mask in range(1 << len(parts)):
            n_plus = math.prod(q for i, q in enumerate(parts) if mask >> i & 1)
            splits.append((n_plus, N // n_plus))
        p = max(local_data)
        splits.append((p, N // p) if N % (p * p) == 0 else (p, N))  # not coprime
        splits.append((1, 2 * N))  # product 2N
        for key in keys:
            derived = _setup_or_none(setup, E, *key)
            assert derived == _setup_or_none(reference_setup, E, *key), (rec.label, key)
            accepted += derived is not None
            for split in splits:
                n_plus, n_minus = split
                want = _setup_or_none(reference_setup, E, *key, n_plus=n_plus, n_minus=n_minus)
                is_derived = derived is not None and split == (derived.n_plus, derived.n_minus)
                assert want == (derived if is_derived else None), (rec.label, key, split)
                accepted += want is not None
                stated += want is not None
    assert accepted == 2 * stated == 10990  # each accepted key, stated canonically once


def test_setup_prime_sets_match_factorize():
    # every admissible single row and pair join of the shipped corpus, D <= 100
    setups = 0
    fds = list(fundamental_discriminants(100))
    for rec in corpus():
        E = minimal_model(rec.curve).minimal
        for _, s in chain(*sweep_setups(E, fds, fds)):
            assert s.plus_primes == factorize(s.n_plus).primes()
            assert s.minus_primes == factorize(s.n_minus).primes()
            setups += 1
    assert setups > 1000


# ---------------------------------------------------------------------------
# decomposition


def test_decompose_trivial_character():
    s = setup(E11A1, 1, 13)
    dec = decompose(s)
    # chi_1 is trivial: everything lands in the plus pieces of i = 1
    assert dec.n1_minus == 1
    assert dec.n2_minus == s.n_minus == 11
    assert dec.n1_plus_II == s.n_minus


def test_decompose_swap_symmetry():
    s12 = setup(E11A1, 13, 5)
    s21 = setup(E11A1, 5, 13)
    d12, d21 = decompose(s12), decompose(s21)
    assert d12.n1_plus_I == d21.n2_plus_I
    assert d12.n1_minus_I == d21.n2_minus_I
    assert d12.n1_plus_II == d21.n2_plus_II
    assert d12.n1_minus_II == d21.n2_minus_II


def test_decompose_concrete_n14():
    # N = 2*7, chi_1 = (17|.), chi_2 = (5|.): chi_1(2) = +1, chi_1(7) = -1,
    # chi_2(2) = -1, chi_2(7) = -1; D = 85 is split at 7, inert at 2.
    s = setup(E14A1, 17, 5)
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
                s = setup(E, d1, d2)
            except SetupError:
                continue
            decompose(s)  # all identities asserted inside
            hits += 1
    assert hits > 30


# ---------------------------------------------------------------------------
# u values


def test_u_of_discriminant_examples():
    mm = minimal_model(E11A1)
    assert u_of_discriminant(mm, fundamental_discriminant(13)) == 1
    assert u_of_discriminant(mm, EIGHT) == 2  # v2(c6) = v2(20008) = 3
    for rec in corpus()[:8]:
        assert u_of_discriminant(minimal_model(rec.curve), fundamental_discriminant(5)) == 1


def test_minimal_models_good_at_2_have_c6_valuation_0_or_3():
    # u_of_discriminant keeps v2(c6) in {0, 3} as an invariant, not a
    # reported check: it holds for every minimal model good at 2, with c6
    # odd exactly when a1 is.  Walk the shipped and coverage corpora and
    # seeded random reduced curves.
    coverage = os.path.join(os.path.dirname(__file__), "data", "coverage.csv")
    curves = [
        rec.curve for path in (default_corpus_path(), coverage) for rec in ingest_corpus(path)
    ]
    curves += random_reduced_curves(random.Random(20), 2000)
    seen = Counter()  # by the parity of a1
    for E in curves:
        mm = minimal_model(E)
        if mm.invariants.disc % 2 == 0:
            continue
        odd = mm.minimal.a1 % 2
        assert valuation(mm.invariants.c6, 2) == (0 if odd else 3), tuple(E)
        assert u_of_discriminant(mm, EIGHT) == (1 if odd else 2)
        seen[odd] += 1
    assert min(seen[0], seen[1]) > 400


def test_u_closed_form_matches_measured():
    checked = 0
    for rec in corpus():
        mm = minimal_model(rec.curve)
        N = rec.conductor
        for f in fundamental_discriminants(60):
            if f.value == 1:
                continue
            import math

            if math.gcd(f.value, N) != 1:
                continue
            if f.is_even and N % 2 == 0:
                continue
            u = u_of_discriminant(mm, f)
            assert twist_minimal(mm, f)[1] == u
            assert u in (1, 2)
            checked += 1
    assert checked > 200


def test_u_of_discriminant_precondition():
    # both even-D closed forms read v2(c6) through one helper, which needs
    # good reduction at 2; the case table also needs an even D
    mm = minimal_model(E14A1)  # bad reduction at 2
    with pytest.raises(ValueError, match="requires good reduction at 2"):
        u_of_discriminant(mm, EIGHT)
    with pytest.raises(ValueError, match="requires good reduction at 2"):
        _two_adic_prediction(mm, EIGHT)
    with pytest.raises(ValueError, match="even discriminant required"):
        _two_adic_prediction(minimal_model(E11A1), fundamental_discriminant(13))
    # a v2(c6) outside {0, 3} is a bug, raised explicitly (not an assert)
    mm = minimal_model(E11A1)
    bad = mm._replace(invariants=mm.invariants._replace(c6=2))
    for closed_form in (u_of_discriminant, _two_adic_prediction):
        with pytest.raises(AssertionError, match=r"v2\(c6\) = 1 not in"):
            closed_form(bad, EIGHT)


def test_u_of_discriminant_reads_minimal_model(monkeypatch):
    # c6 and the discriminant of E are read off the minimal_model(E) the
    # caller holds: u_D computes no invariants
    mm = minimal_model(E11A1)

    def no_invariants(E):
        raise AssertionError(f"invariants({tuple(E)}) called")

    for name, module in list(sys.modules.items()):
        if name.startswith("quadtwist") and hasattr(module, "invariants"):
            monkeypatch.setattr(module, "invariants", no_invariants)
    assert u_of_discriminant(mm, EIGHT) == 2


# ---------------------------------------------------------------------------
# the quantities


def test_twist_quantity_example_11a1_13():
    row = single_row(E11A1, 13)
    v = twist_quantity(row)
    assert quantity(v) == 1 and v.exponent == 0 and v.is_even_exponent
    # the quantity's factors are the twist's Tamagawa numbers at the
    # primes of D and the curve's c~ at the primes of n_minus
    assert row.local[13].tamagawa == 2 and row.share == row.u * 2 == 2
    assert row.minus.primes == (11,) and row.facts.local_data[11].c_tilde == 1
    assert row.minus.c_tilde_product == 1


def test_twist_quantity_trivial_and_empty_products():
    # split-only setups (n_minus = 1) have empty c-tilde products
    e37 = model(0, 0, 1, -1, 0)
    found = 0
    for f in fundamental_discriminants(60):
        if kronecker(f.value, 37) != 1:
            continue
        rows = validate_setup(e37, f)
        s = implied_setup(*rows)
        assert (s.n_plus, s.n_minus) == (37, 1)
        v = twist_quantity(*rows)
        assert v.is_power_of_two and v.is_even_exponent
        assert rows[0].minus.primes == () and rows[0].minus.c_tilde_product == 1 and v.w == 0
        found += 1
    assert found > 3


def test_twist_quantity_smallest_even_d():
    # smallest valid 8m for the conductor-11 curve is D = 8 itself
    for d in (8, 24, 40):
        try:
            rows = validate_setup(E11A1, d)
        except SetupError:
            continue
        assert d == 8
        v = twist_quantity(*rows)
        assert v.is_even_exponent
        assert rows[0].u == 2
        break
    else:
        pytest.fail("no valid 8m discriminant found")


def test_pair_quantity_reduces_to_single_for_trivial_character():
    vp = pair_twist_quantity(pair_join(E11A1, 1, 13))
    vs = twist_quantity(single_row(E11A1, 13))
    assert quantity(vp) == quantity(vs)
    assert vp.is_even_exponent and vs.is_even_exponent


def test_pair_quantity_swap_symmetry():
    v12 = pair_twist_quantity(pair_join(E11A1, 13, 5))
    v21 = pair_twist_quantity(pair_join(E11A1, 5, 13))
    assert quantity(v12) == quantity(v21)
    assert v12.is_even_exponent and v21.is_even_exponent


def test_pair_quantity_concrete_pair():
    v = pair_twist_quantity(pair_join(E11A1, 13, 5))
    assert v.is_power_of_two and v.is_even_exponent
    assert v.omega_parity and v.c_tilde_product


def test_pair_decomposition_yields_valid_single_setups():
    """Each discriminant of an admissible pair satisfies the split/inert
    hypothesis for its own piece (n_i_plus, n_i_minus) of the conductor,
    and its single quantity is itself an even power of two."""
    checked = 0
    for rec in corpus()[:8]:
        for pair in ((13, 5), (5, 13), (17, 8), (1, 13), (8, 21)):
            try:
                s = setup(rec.curve, *pair)
            except SetupError:
                continue
            dec = decompose(s)
            for i, (np_, nm_) in ((1, (dec.n1_plus, dec.n1_minus)), (2, (dec.n2_plus, dec.n2_minus))):
                sub_rows = validate_setup(s.curve, s.discriminants[i - 1])
                sub = implied_setup(*sub_rows)
                assert (sub.n_plus, sub.n_minus) == (np_, nm_), (rec.label, pair, i)
                v = twist_quantity(*sub_rows)
                assert v.is_power_of_two and v.is_even_exponent, (rec.label, pair, i)
            checked += 1
    assert checked > 5


def test_quantities_match_fraction_ledger():
    """Every corpus single (D <= 500) and pair (D <= 100): the integer
    ledger's quantity, exponent and flags against the Fraction product,
    and the pair's c~ bookkeeping against a Fraction ratio."""
    discs = list(fundamental_discriminants(500))
    singles = pairs = 0
    for rec in corpus():
        E = rec.facts.mm.minimal
        rows = twist_rows(rec.facts, discs, 100)
        for row in rows:
            v = twist_quantity(row)
            factors = [row.local[l].tamagawa for l in row.disc.primes]
            factors += [rec.facts.local_data[q].c_tilde for q in row.minus.primes]
            assert v.w == len(row.minus.primes)
            want = fraction_quantity(row.u, v.w, factors)
            assert (quantity(v), v.exponent, v.is_power_of_two, v.is_even_exponent) == want
            singles += 1
        for pair in row_pairs(rows, 100):
            v = pair_twist_quantity(pair)
            row1, row2, side = pair
            s = implied_setup(row1, row2)
            factors = [r.local[l].tamagawa for r in (row1, row2) for l in r.disc.primes]
            factors += [rec.facts.local_data[q].c_tilde for q in side.primes]
            assert v.w == len(side.primes)
            want = fraction_quantity(row1.u * row2.u, v.w, factors)
            assert (quantity(v), v.exponent, v.is_power_of_two, v.is_even_exponent) == want
            dec = decompose(s)
            ratio = Fraction(1)
            for n, sign in ((dec.n1_minus, 1), (dec.n2_minus, 1), (s.n_minus, -1)):
                for p in s.local_data:
                    if n % p == 0:
                        ratio *= Fraction(tate_local(E, p).c_tilde) ** sign
            k = fraction_two_power(ratio)
            assert v.c_tilde_product == (k is not None and k % 2 == 0)
            pairs += 1
    assert (singles, pairs) == (2594, 4978)  # the acceptance sweep's


def test_verdict_integer_ledger_edge_cases():
    # zero, negative and odd numerators, w = 0, and a grid against the
    # Fraction oracle
    for num, w, k in ((0, 0, None), (0, 3, None), (-4, 1, None), (-1, 0, None),
                      (3, 2, None), (6, 1, None), (1, 0, 0), (8, 0, 3), (4, 0, 2),
                      (2, 3, -2), (1, 3, -3), (16, 2, 2)):
        v = _verdict(num, w)
        assert v.exponent == k, (num, w)
        assert quantity(v) == Fraction(num, 2**w)
    for num in range(-20, 41):
        for w in range(6):
            v = _verdict(num, w)
            want = fraction_quantity(num, w, ())
            assert (quantity(v), v.exponent, v.is_power_of_two, v.is_even_exponent) == want
            # a single's verdict has no bookkeeping; a pair's carries it as given
            assert v.omega_parity is None and v.c_tilde_product is None
            book = _verdict(num, w, True, False)
            assert book[:5] == v[:5] and (book.omega_parity, book.c_tilde_product) == (True, False)


def test_format_quantity_matches_fraction():
    # a reported quantity's string is formatted from its ints, exactly as
    # the Fraction num / 2**w prints; the harness formats it
    for num in range(1, 4097):
        for w in range(7):
            assert _format_quantity(num, w) == str(Fraction(num, 1 << w)), (num, w)


# ---------------------------------------------------------------------------
# transfer identities


def test_transfer_identity_example():
    row1, row2, side = pair = pair_join(E11A1, 1, 13)
    assert tamagawa_transfer_check(pair, 11)
    loc = row1.facts.local_data[11]  # the c~_q * inert c_q side is read off the curve
    twists = row1.local[11].tamagawa * row2.local[11].tamagawa
    assert loc.c_tilde * loc.inert_tamagawa == twists == 5
    with pytest.raises(ValueError):
        tamagawa_transfer_check(pair_join(E11A1, 5, 12), 11)  # 11 splits: n_minus = 1


def test_transfer_identity_nonsplit_and_even_valuation_cases():
    """The identity at a nonsplit base prime and at an even-valuation
    prime, found by corpus scan."""
    nonsplit = even_v = 0
    for rec in corpus():
        E = rec.curve
        _, data = reduction_profile(minimal_model(E))
        for f in fundamental_discriminants(40):
            if f.value == 1:
                continue
            try:
                rows = validate_setup(E, 1, f.value)
            except SetupError:
                continue
            s = implied_setup(*rows)
            if s.n_minus == 1:
                continue
            pair = join_rows(*rows)
            for q in factorize(s.n_minus).primes():
                assert tamagawa_transfer_check(pair, q), (rec.label, f.value, q)
                if data[q].kind == "multiplicative-nonsplit":
                    nonsplit += 1
                if data[q].disc_valuation % 2 == 0:
                    even_v += 1
    assert nonsplit > 10 and even_v > 10


def test_transfer_product_example_and_sweep():
    row1, row2, side = pair = pair_join(E11A1, 1, 13)
    assert tamagawa_transfer_product_check(pair)
    at_n = row1.facts.local_data
    assert math.prod(row1.local[l].tamagawa * row2.local[l].tamagawa for l in at_n) == 5
    assert math.prod(at_n[q].c_tilde * at_n[q].inert_tamagawa for q in side.primes) == 5
    hits = 0
    for rec in corpus()[:8]:
        for pair in ((1, 13), (5, 13), (13, 5), (1, 8), (5, 8)):
            try:
                rows = validate_setup(rec.curve, *pair)
            except SetupError:
                continue
            assert tamagawa_transfer_product_check(join_rows(*rows)), (rec.label, pair)
            hits += 1
    assert hits > 8


def test_transfer_product_split_primes_contribute_squares():
    """Primes where both characters agree give equal Tamagawa numbers on
    the two twists."""
    s = setup(E14A1, 17, 5)
    for l, loc in s.local_data.items():
        if s.chi(1, l) == s.chi(2, l):
            t1 = tate_local(twist_minimal(s.mm, fundamental_discriminant(17))[0], l).tamagawa
            t2 = tate_local(twist_minimal(s.mm, fundamental_discriminant(5))[0], l).tamagawa
            assert t1 == t2


def test_twist_reduction_at_n_is_what_the_hypothesis_fixes():
    # every row with D <= 500 of the shipped and coverage corpora, at pair
    # cap 500, against the reduction the hypothesis fixes at each prime p
    # of N: where kronecker(D, p) = +1, sqrt(D) lies in Q_p and the twist
    # is E over Q_p, so its local data is the curve's; at an n_minus
    # prime the twist keeps I_n, v_p(min disc) and f_p = 1, split and
    # nonsplit swap, and c_p is n when split, else 2 - n mod 2.  The
    # twist's v_p(min disc) at N is derived by twist_minimal, not
    # measured, and this holds it to Tate's algorithm on the curve
    coverage = os.path.join(os.path.dirname(__file__), "data", "coverage.csv")
    discs = list(fundamental_discriminants(500))
    split = additive = inert = 0
    for path in (default_corpus_path(), coverage):
        for rec in ingest_corpus(path):
            for row in twist_rows(rec.facts, discs, 500):
                for p, loc in rec.facts.local_data.items():
                    got, where = row.local[p], (rec.label, row.disc.value, p)
                    sign = kronecker(row.disc.value, p)
                    assert (sign == -1) == (p in row.minus.primes), where
                    if sign == 1:
                        assert got == loc, where
                        split += 1
                        additive += loc.kind == ADDITIVE
                        continue
                    kind = MULT_NONSPLIT if loc.split else MULT_SPLIT
                    n = loc.disc_valuation
                    c = n if kind == MULT_SPLIT else 2 - n % 2
                    assert loc.conductor_exponent == 1, where
                    assert got == loc._replace(kind=kind, tamagawa=c), where
                    inert += 1
    assert (split, additive, inert) == (3647, 816, 3151)


# ---------------------------------------------------------------------------
# symbol closed form


def test_symbol_closed_form_examples():
    assert symbol_closed_form(-161051, fundamental_discriminant(13), b=5) == -1
    # v2(D) = 2, delta = 3 mod 4, b even
    assert symbol_closed_form(7, fundamental_discriminant(12), b=2) == -1
    # v2(D) = 3, delta = 7 mod 8, m = 13 = 1 mod 4, b even -> +1
    assert symbol_closed_form(15, fundamental_discriminant(8 * 13), b=2) == 1


@pytest.mark.parametrize("d", [12, 8 * 13])
def test_symbol_closed_form_rejects_even_delta_with_even_d(d):
    with pytest.raises(ValueError, match="must be odd when D is even"):
        symbol_closed_form(6, fundamental_discriminant(d), 0)


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


def test_symbol_closed_form_is_the_product_formula():
    """Off the corpora too: for every delta coprime to D (odd when D is
    even), with b = 0 the closed form is kronecker(delta, m), m the odd
    part of D, times kronecker(D, q)^(v_q(delta)) over the primes q of
    delta.  An even
    delta with D = 5 mod 8 is where the odd part of delta matters."""
    checked = 0
    for D in fundamental_discriminants(120):
        for delta in chain(range(-150, 0), range(1, 151)):
            if math.gcd(delta, D.value) != 1:
                continue
            signs = math.prod(kronecker(D.value, q) ** e for q, e in factorize(delta).factors)
            assert symbol_closed_form(delta, D, 0) == kronecker(delta, D.odd_part) * signs
            assert symbol_closed_form(delta, D, 1) == -symbol_closed_form(delta, D, 0)
            checked += 1
    assert checked > 5000


def test_symbol_closed_form_equals_kronecker_on_valid_setups():
    checked = 0
    for rec in corpus():
        E = rec.curve
        disc = invariants(E).disc
        for f in fundamental_discriminants(100):
            try:
                rows = validate_setup(E, f)
            except SetupError:
                continue
            (row,) = rows
            b = row.minus.disc_valuation_sum
            assert symbol_closed_form(disc, f, b) == kronecker(disc, f.odd_part)
            checked += 1
    assert checked > 300


def test_tamagawa_symbol_examples():
    # the symbol the caller passes is the one the check reads
    row = single_row(E11A1, 13)
    symbol = kronecker(row.facts.mm.invariants.disc, 13)
    assert tamagawa_symbol_check(row, symbol) and not tamagawa_symbol_check(row, -symbol)
    row = single_row(E11A1, fundamental_discriminant(1))  # empty product, m = 1
    assert tamagawa_symbol_check(row, kronecker(row.facts.mm.invariants.disc, 1))
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
                try:
                    row = single_row(rec.curve, f)
                except SetupError:
                    continue
                assert tamagawa_symbol_check(row, kronecker(disc, m))
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
        mm = minimal_model(E)
        for f in fundamental_discriminants(120):
            if not f.is_even:
                continue
            try:
                row = single_row(E, f)
            except SetupError:
                continue
            pred = predict_two_adic(mm, f)
            ok, got = check_two_adic_case(row)
            assert ok, (rec.label, f.value, got, row.local[2])
            assert got == pred
            seen.setdefault((pred.case, pred.kodaira, pred.tamagawa), 0)
            seen[(pred.case, pred.kodaira, pred.tamagawa)] += 1
    kinds = set(seen)
    assert ("II*", 1) in {(k, c) for _, k, c in kinds}
    assert ("II", 1) in {(k, c) for _, k, c in kinds}
    assert ("I8*", 2) in {(k, c) for _, k, c in kinds}
    assert ("I8*", 4) in {(k, c) for _, k, c in kinds}
    assert any(k == "I4*" for _, k, _ in kinds)


def test_rows_and_sides_hold_numbers_and_the_harness_writes_the_text():
    # a row and a side hold ints, bools and local data, with no text and
    # no str-keyed dict; the 2-adic case check returns its prediction, and
    # the report's sentence is written from it and the row's Tate run at 2
    assert TwistRow._fields == (
        "facts", "disc", "minus", "u", "measured_u", "local", "share",
    )
    assert MinusSide._fields == (
        "mask", "primes", "n_minus", "n_plus", "c_tilde_product", "disc_valuation_sum",
    )
    for name in ("format_quantity", "_int_dict_json"):
        assert not hasattr(twistlaws, name)
    ok, pred = check_two_adic_case(single_row(E11A1, 8))
    assert ok and isinstance(pred, TwoAdicPrediction)
    assert pred == TwoAdicPrediction(2, "II", 1)
    e11 = [rec for rec in corpus() if rec.label == "11a1"]
    (record,) = [i for i in sweep_report(e11, 8, "lemmas")["instances"] if i.get("d") == 8]
    assert record["two_adic_case"] == "case 2: predicted (II, 1), tate gives (II, 1)"


def test_two_adic_case_wrong_prediction_fails_the_check(monkeypatch):
    # a prediction that disagrees with Tate's algorithm fails the check,
    # with both sides in its detail, where an assert would raise, or
    # vanish under python -O; the sweep lists it as a failure witness
    wrong = TwoAdicPrediction(3, "I8*", 2)  # 11a1 at D = 8 has (II, 1)
    monkeypatch.setattr("quadtwist.twistlaws._two_adic_prediction", lambda mm, D: wrong)
    row = single_row(E11A1, 8)
    assert check_two_adic_case(row) == (False, wrong)
    e11 = [rec for rec in corpus() if rec.label == "11a1"]
    report = sweep_report(e11, 8, "lemmas")
    assert report["failures"] == [
        {"curve": "11a1", "d": 8, "failed_checks": ["two_adic_case_table"]}
    ]
    detail = report["instances"][-1]["two_adic_case"]
    assert detail == "case 3: predicted (I8*, 2), tate gives (II, 1)"


def test_two_adic_prediction_matches_normal_form_table():
    # the library reads the case table off the parity of c6 and the
    # Hilbert symbol (disc, D)_2; the oracle states it on the 2-adic
    # normal form (a6 mod 4 and the case-3 key P).  They agree at every
    # even D <= 500 on every curve good at 2 in the shipped and coverage
    # corpora and on seeded random curves, and every row of the table is
    # reached.
    coverage = os.path.join(os.path.dirname(__file__), "data", "coverage.csv")
    curves = [
        rec.curve for path in (default_corpus_path(), coverage) for rec in ingest_corpus(path)
    ]
    curves += random_reduced_curves(random.Random(24), 300)
    evens = [f for f in fundamental_discriminants(500) if f.is_even]
    seen = Counter()
    for E in curves:
        mm = minimal_model(E)
        if mm.invariants.disc % 2 == 0:
            continue
        for f in evens:
            pred = _two_adic_prediction(mm, f)
            assert pred == predict_two_adic(mm, f), (tuple(E), f.value)
            seen[pred] += 1
    assert set(seen) == {
        (1, "II*", 1), (2, "II", 1), (1, "I4*", 2), (1, "I4*", 4), (3, "I8*", 2), (3, "I8*", 4)
    }


def test_i4_star_tamagawa_dichotomy():
    """v2(D) = 2, c6 odd (normal-form pattern 1): the twist has I4*, with
    c2 = 2 exactly when disc = 3 mod 4, which is exactly when the normal
    form's a6 is 1 or 2 mod 4."""
    seen = set()
    for rec in corpus():
        E = rec.curve
        if rec.conductor % 2 == 0:
            continue
        mm = minimal_model(E)
        if mm.invariants.c6 % 2 == 0:
            continue
        S = two_strongly_minimal_brute(mm.minimal)
        for f in fundamental_discriminants(200):
            if f.two_exponent != 2:
                continue
            try:
                validate_setup(E, f)
            except SetupError:
                continue
            loc = tate_local(twist_minimal(mm, f)[0], 2)
            assert loc.kodaira == "I4*"
            want = 2 if mm.invariants.disc % 4 == 3 else 4
            assert loc.tamagawa == want
            assert want == (2 if S.a6 % 4 in (1, 2) else 4)
            seen.add(want)
    assert seen == {2, 4}


# ---------------------------------------------------------------------------
# auxiliary discriminants


def test_find_auxiliary_discriminant_scan():
    f = find_auxiliary_discriminant(validate_setup(E11A1, 1, 13), 11)
    assert f.value == 8  # 5 splits at 11, 8 is inert; scan is ascending


def test_find_auxiliary_discriminant_on_curves_with_several_primes():
    # every shipped curve whose N has at least two primes, every D <= 60
    # that validate_setup accepts and every multiplicative p: D3 matches
    # chi_D (taken from kronecker, not from the row) at every prime of N
    # but p, flips it at p, is coprime to N * D, and is the smallest
    # fundamental discriminant > 1 that does
    cases = 0
    for rec in corpus():
        facts = rec.facts
        N = facts.conductor
        if len(facts.local_data) < 2:
            continue
        for D in fundamental_discriminants(60):
            try:
                rows = validate_setup(facts.mm.minimal, D)
            except SetupError:
                continue
            for p, loc in facts.local_data.items():
                if not loc.kind.startswith("multiplicative"):
                    continue
                want = {l: kronecker(D.value, l) * (-1 if l == p else 1) for l in facts.local_data}

                def qualifies(g):
                    return (
                        g.value > 1
                        and math.gcd(g.value, N * D.value) == 1
                        and all(kronecker(g.value, l) == s for l, s in want.items())
                    )

                f = find_auxiliary_discriminant(rows, p)
                assert qualifies(f), (rec.label, D.value, p, f.value)
                assert not any(qualifies(g) for g in fundamental_discriminants(f.value - 1))
                cases += 1
    assert cases == 262


# ---------------------------------------------------------------------------
# helpers


def test_equal_mod_squares():
    assert equal_mod_squares(2, 8)
    assert equal_mod_squares(Fraction(5, 4), 5)
    assert not equal_mod_squares(2, 3)
    assert not equal_mod_squares(2, -2)
    with pytest.raises(ValueError):
        equal_mod_squares(0, 1)


def test_equal_mod_squares_against_sympy():
    nums = (1, 2, 3, 4, 5, 6, 8, 9, 12, 18, 50, 72, 98)
    dens = (1, 2, 3, 4, 8, 9, 25, 27)
    grid = sorted({Fraction(sign * n, d) for sign in (1, -1) for n in nums for d in dens})
    classes = {q: square_class(q) for q in grid}
    for a in grid:
        for b in grid:
            assert equal_mod_squares(a, b) == (classes[a] == classes[b]), (a, b)
    # int/int pairs
    ints = sorted({sign * n * d for sign in (1, -1) for n in nums for d in (1, 2, 3, 25)})
    classes = {n: square_class(n) for n in ints}
    for a in ints:
        for b in ints:
            assert equal_mod_squares(a, b) == (classes[a] == classes[b]), (a, b)


def test_power_of_two_exponent():
    assert _exponent(8, 1) == 3
    assert _exponent(1, 4) == -2
    assert _exponent(1, 1) == 0
    assert _exponent(3, 1) is None
    assert _exponent(-2, 1) is None
