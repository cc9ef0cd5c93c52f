"""The coverage corpus (tests/data/coverage.csv): additive reduction at 2
(nine Kodaira types) and at 3 (nine: II, III, IV, I0*, I1*, I2*, IV*,
III*, II*) and conductors with three to seven multiplicative primes,
which the shipped corpus never reaches.  Each curve's local data is pinned, held to
the point-count and component-count oracles, and the corpus is swept."""

import os
from collections import Counter

import pytest

from quadtwist.arith import valuation
from quadtwist.curves import minimal_model
from quadtwist.harness import ingest_corpus
from quadtwist.localred import reduction_profile, tate_local

from oracles import golden_local_data, sweep_report

COVERAGE = os.path.join(os.path.dirname(__file__), "data", "coverage.csv")

# (Kodaira type, Tamagawa number, minimal disc valuation) per bad prime
PINNED = {
    "c20": {2: ("IV*", 3, 8), 5: ("I2", 2, 2)},
    "c24": {2: ("I1*", 4, 8), 3: ("I2", 2, 2)},
    "c27": {3: ("IV*", 3, 9)},
    "c30": {2: ("I4", 2, 4), 3: ("I3", 3, 3), 5: ("I1", 1, 1)},
    "c32": {2: ("I3*", 4, 12)},
    "c36": {2: ("IV", 1, 4), 3: ("III*", 2, 9)},
    "c42": {2: ("I8", 8, 8), 3: ("I2", 2, 2), 7: ("I1", 1, 1)},
    "c45": {3: ("I1*", 2, 7), 5: ("I1", 1, 1)},
    "c48": {2: ("I0*", 2, 8), 3: ("I2", 2, 2)},
    "c54": {2: ("I9", 9, 9), 3: ("IV", 3, 5)},
    "c56": {2: ("III*", 2, 10), 7: ("I1", 1, 1)},
    "c63": {3: ("I2*", 2, 8), 7: ("I1", 1, 1)},
    "c66": {2: ("I2", 2, 2), 3: ("I3", 3, 3), 11: ("I1", 1, 1)},
    "c72": {2: ("III", 2, 4), 3: ("I1*", 4, 7)},
    "c84": {2: ("IV", 1, 4), 3: ("I1", 1, 1), 7: ("I2", 2, 2)},
    "c90": {2: ("I2", 2, 2), 3: ("III", 2, 3), 5: ("I3", 3, 3)},
    "c105": {3: ("I1", 1, 1), 5: ("I1", 1, 1), 7: ("I1", 1, 1)},
    "c108": {2: ("IV*", 3, 8), 3: ("II", 1, 3)},
    "c144": {2: ("II", 1, 4), 3: ("I1*", 2, 7)},
    "c200": {2: ("II*", 1, 11), 5: ("II", 1, 2)},
    "c210": {2: ("I12", 12, 12), 3: ("I3", 3, 3), 5: ("I1", 1, 1), 7: ("I1", 1, 1)},
    "c2310": {2: ("I2", 2, 2), 3: ("I2", 2, 2), 5: ("I1", 1, 1), 7: ("I1", 1, 1), 11: ("I1", 1, 1)},
    "c39270": {
        2: ("I2", 2, 2),
        3: ("I1", 1, 1),
        5: ("I2", 2, 2),
        7: ("I2", 2, 2),
        11: ("I1", 1, 1),
        17: ("I1", 1, 1),
    },
    "c3365670": {p: ("I1", 1, 1) for p in (2, 3, 5, 7, 11, 31, 47)},
    "c99": {3: ("I0*", 1, 6), 11: ("I1", 1, 1)},
    "c162": {2: ("I1", 1, 1), 3: ("II*", 1, 12)},
}


@pytest.fixture(scope="module")
def coverage():
    return ingest_corpus(COVERAGE)


def _additive(kodaira: str) -> bool:
    return kodaira.endswith("*") or kodaira in ("II", "III", "IV")


def test_coverage_local_data_pinned(coverage):
    # the pinned table against Tate's algorithm, and every field the
    # oracles decide (kind and v from point counts and factorization; the
    # type and Tamagawa number where the component count forces them)
    assert [rec.label for rec in coverage] == list(PINNED)
    for rec in coverage:
        assert minimal_model(rec.curve).minimal == rec.curve, rec.label
        N, local_data = reduction_profile(minimal_model(rec.curve))
        assert N == rec.conductor and set(local_data) == set(PINNED[rec.label]), rec.label
        golden = golden_local_data(rec.label, rec.a_invariants, rec.conductor)
        assert set(golden) == set(local_data), rec.label
        for p, (kod, c, v) in PINNED[rec.label].items():
            loc = tate_local(rec.curve, p)
            assert (loc.kodaira, loc.tamagawa, loc.disc_valuation) == (kod, c, v), (rec.label, p)
            assert loc.conductor_exponent == valuation(rec.conductor, p), (rec.label, p)
            g_kod, g_c, g_v, g_kind = golden[p]
            assert (g_v, g_kind) == (v, loc.kind), (rec.label, p)
            assert g_kod in (None, kod) and g_c in (None, c), (rec.label, p)
            assert _additive(kod) == (g_kind == "additive"), (rec.label, p)


def test_coverage_reaches_what_acceptance_does_not():
    types = {2: set(), 3: set()}
    for table in PINNED.values():
        for p in types:
            if p in table and _additive(table[p][0]):
                types[p].add(table[p][0])
    assert types[2] == {"II", "III", "IV", "I0*", "I1*", "I3*", "IV*", "III*", "II*"}, types
    assert types[3] == {"II", "III", "IV", "I0*", "I1*", "I2*", "IV*", "III*", "II*"}, types
    multiplicative = {sum(not _additive(k) for k, _, _ in t.values()) for t in PINNED.values()}
    assert multiplicative >= {3, 4, 5, 6, 7}, multiplicative


def test_coverage_sweep(coverage):
    report = sweep_report(coverage, 500, "all", corpus_name=COVERAGE)
    summary = report["summary"]
    assert summary["failures"] == 0, report["failures"][:5]
    assert summary["instances"] == 2030
    omega = Counter(i["quantity"]["components"]["omega_n_minus"] for i in report["instances"])
    assert omega == {0: 629, 1: 678, 2: 385, 3: 219, 4: 86, 5: 23, 6: 8, 7: 2}
