"""Acceptance criteria, one test per criterion, each printing a PASS line.

Criteria 2-8 share a single full sweep over the shipped corpus (mode
"all", discriminants to 500, pairs to 100) and then assert zero failures
on their own slice of the checks.
"""

import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from quadtwist.arith import kronecker
from quadtwist.profile_scan import scan_profiles
from quadtwist.curves import (
    SingularModelError,
    invariants,
    minimal_model,
    model,
    quadratic_twist,
)
from quadtwist.harness import default_corpus_path, ingest_corpus

from oracles import apply_iso, j_invariant, sweep_report

DMAX = 500


@pytest.fixture(scope="module")
def full_sweep():
    corpus = ingest_corpus(default_corpus_path())
    t0 = time.perf_counter()
    report = sweep_report(corpus, DMAX, "all", corpus_name=default_corpus_path())
    report["_elapsed"] = time.perf_counter() - t0
    # how many instances exercised each named check on the shipped corpus
    quantity = ("quantity_power_of_two", "quantity_even_exponent")
    pair = ("omega_parity", "c_tilde_product", "tamagawa_transfer_per_prime",
            "tamagawa_transfer_product")
    single = ("symbol_closed_form", "tamagawa_product_symbol", "u_closed_form",
              "odd_twist_fast_path")
    counts = report["summary"]["check_counts"]
    assert counts == {
        **dict.fromkeys(quantity, 7572),
        **dict.fromkeys(pair, 4978),
        **dict.fromkeys(single, 2594),
        "two_adic_case_table": 761,
    }
    assert counts == Counter(name for i in report["instances"] for name in i["checks"])
    assert sum(counts.values()) == report["summary"]["checks_run"] == 46193
    return report


def _slice_failures(report, check_names, kind=None):
    """Failed checks, optionally restricted to 'single' or 'pair' instances."""
    bad = []
    for inst in report["instances"]:
        if kind == "single" and "d" not in inst:
            continue
        if kind == "pair" and "d1" not in inst:
            continue
        for name in check_names:
            if name in inst["checks"] and not inst["checks"][name]:
                bad.append((inst["curve"], inst.get("d") or (inst["d1"], inst["d2"]), name))
    return bad


def test_criterion_1_residue_scan():
    t0 = time.perf_counter()
    res = scan_profiles()
    elapsed = time.perf_counter() - t0
    assert res.key_range == frozenset({0, 16})
    assert res.tamagawa2_profile == frozenset({(3, 1), (5, 1), (5, 3), (7, 3)})
    assert res.tamagawa4_profile == frozenset({(1, 1), (1, 3), (3, 3), (7, 1)})
    assert elapsed < 1.0, f"enumeration took {elapsed:.3f}s"
    print(f"\nPASS criterion 1: residue-scan profiles exact ({elapsed:.3f}s)")


def test_criterion_2_single_quantity_sweep():
    corpus = ingest_corpus(default_corpus_path())
    t0 = time.perf_counter()
    report = sweep_report(corpus, DMAX, "thm13")
    elapsed = time.perf_counter() - t0
    n = report["summary"]["instances"]
    assert n > 1000
    bad = _slice_failures(report, ["quantity_power_of_two", "quantity_even_exponent"])
    assert not bad, bad[:5]
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"
    print(f"\nPASS criterion 2: single-twist quantity sweep, {n} instances even ({elapsed:.1f}s)")


def test_criterion_3_pair_quantity_sweep(full_sweep):
    pairs = [i for i in full_sweep["instances"] if "d1" in i]
    assert len(pairs) > 500
    assert full_sweep["pair_dmax"] == 100
    bad = _slice_failures(
        full_sweep,
        ["quantity_power_of_two", "quantity_even_exponent", "omega_parity", "c_tilde_product"],
        kind="pair",
    )
    assert not bad, bad[:5]
    print(f"\nPASS criterion 3: pair quantity sweep, {len(pairs)} pairs even + bookkeeping")


def test_criterion_4_symbol_closed_form(full_sweep):
    singles = [i for i in full_sweep["instances"] if "d" in i]
    assert all("symbol_closed_form" in i["checks"] for i in singles)
    bad = _slice_failures(full_sweep, ["symbol_closed_form"])
    assert not bad, bad[:5]
    print(f"\nPASS criterion 4: closed-form symbol = kronecker on {len(singles)} instances")


def test_criterion_5_tamagawa_product_symbol(full_sweep):
    bad = _slice_failures(full_sweep, ["tamagawa_product_symbol", "odd_twist_fast_path"])
    assert not bad, bad[:5]
    n = sum(1 for i in full_sweep["instances"] if "tamagawa_product_symbol" in i["checks"])
    print(f"\nPASS criterion 5: twist Tamagawa product/symbol + fast path on {n} instances")


def test_criterion_6_u_value(full_sweep):
    bad = _slice_failures(full_sweep, ["u_closed_form"])
    assert not bad, bad[:5]
    assert full_sweep["summary"]["flags"] == []  # every measured u in {1, 2}
    n = sum(1 for i in full_sweep["instances"] if "u_closed_form" in i["checks"])
    print(f"\nPASS criterion 6: period scale closed form on {n} instances, u in {{1,2}}")


def test_criterion_7_transfer_identities(full_sweep):
    bad = _slice_failures(
        full_sweep, ["tamagawa_transfer_per_prime", "tamagawa_transfer_product"]
    )
    assert not bad, bad[:5]
    n = sum(
        1 for i in full_sweep["instances"] if "tamagawa_transfer_product" in i["checks"]
    )
    print(f"\nPASS criterion 7: per-prime and product transfer identities on {n} pairs")


def test_criterion_8_two_adic_cases(full_sweep):
    cases = [i for i in full_sweep["instances"] if "two_adic_case" in i]
    assert len(cases) > 300
    covered = {c["two_adic_case"].split(":")[0] for c in cases}
    assert covered == {"case 1", "case 2", "case 3"}
    bad = _slice_failures(full_sweep, ["two_adic_case_table"])
    assert not bad, bad[:5]
    print(f"\nPASS criterion 8: Kodaira/Tamagawa-at-2 tables on {len(cases)} even instances")


def test_criterion_9_tate_golden():
    from oracles import golden_local_data
    from quadtwist.localred import tate_local

    corpus = ingest_corpus(default_corpus_path())
    checked = 0
    for rec in corpus:
        table = golden_local_data(rec.label, rec.a_invariants, rec.conductor)
        for p, (kod, c, v, kind) in table.items():
            loc = tate_local(rec.curve, p)
            assert (loc.disc_valuation, loc.kind) == (v, kind), (rec.label, p)
            if kod is not None:
                assert loc.kodaira == kod, (rec.label, p)
            if c is not None:
                assert loc.tamagawa == c, (rec.label, p)
            checked += 1
    assert checked >= 25
    print(f"\nPASS criterion 9: golden local data, {checked} (curve, prime) entries")


def test_criterion_10_core_algebra_properties():
    rng = random.Random(12345)
    t0 = time.perf_counter()

    def rand_model():
        while True:
            ai = [rng.randint(-9, 9) for _ in range(5)]
            try:
                invariants(model(*ai))
                return model(*ai)
            except SingularModelError:
                continue

    for _ in range(1000):
        inv = invariants(rand_model())
        assert inv.c4**3 - inv.c6**2 == 1728 * inv.disc

    for _ in range(1000):
        E = rand_model()
        d = rng.choice([-11, -7, -3, -1, 2, 3, 5, 8, 12, 13, 17])
        assert j_invariant(quadratic_twist(E, d)) == j_invariant(E)

    for _ in range(1000):
        # minimal_model undoes an integral blow-up [1/u, r, s, w]
        E = rand_model()
        u = rng.choice([1, 2, 3, 6])
        r, s, w = (rng.randint(-6, 6) for _ in range(3))
        blown = model(*apply_iso(E, Fraction(1, u), r, s, w))
        mm, back = minimal_model(E), minimal_model(blown)
        assert back.minimal == mm.minimal and back.u_value == mm.u_value * u

    for _ in range(1000):
        a, b = rng.randint(-10**4, 10**4), rng.randint(-10**4, 10**4)
        n = rng.randint(-10**4, 10**4)
        if n == 0:
            continue
        assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)

    checked = 0
    while checked < 1000:
        a, b = rng.randrange(3, 3001, 2), rng.randrange(3, 3001, 2)
        if math.gcd(a, b) != 1:
            continue
        sign = -1 if (a % 4 == 3 and b % 4 == 3) else 1
        assert kronecker(a, b) * kronecker(b, a) == sign
        checked += 1

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"property suites took {elapsed:.1f}s"
    print(f"\nPASS criterion 10: 5 randomized property suites x 1000 cases ({elapsed:.1f}s)")
