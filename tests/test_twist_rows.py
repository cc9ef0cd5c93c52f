"""The sweep as a join of twist rows, held to the per-instance reference.

Every record the sweep writes must equal the one reference_single_record
or reference_pair_record (oracles.py) builds from the instance's setup
alone, reading each twist's Tate data afresh; and a sweep must minimize
each twist once and run Tate's algorithm once per (twist, prime)."""

import json
import os
import sys
from collections import Counter

import pytest

from quadtwist.arith import fundamental_discriminant
from quadtwist.cli import main
from quadtwist.curves import minimal_model, two_strongly_minimal
from quadtwist.harness import default_corpus_path, ingest_corpus, run_sweep, strip_timing
from quadtwist.localred import tate_local
from quadtwist.twistlaws import twist_minimal

from oracles import reference_records

COVERAGE = os.path.join(os.path.dirname(__file__), "data", "coverage.csv")
THREE = ("11a1", "15a1", "37a1")


def three_curves():
    return [rec for rec in ingest_corpus(default_corpus_path()) if rec.label in THREE]


def clear_memos():
    for memo in (minimal_model, two_strongly_minimal, tate_local, twist_minimal):
        memo.cache_clear()


def test_records_match_reference_on_shipped_corpus():
    corpus = ingest_corpus(default_corpus_path())
    report = strip_timing(run_sweep(corpus, 500, "all"))
    assert report["summary"]["instances"] == 7572
    assert report["instances"] == reference_records(corpus, 500, 100)


@pytest.mark.parametrize("mode", ["thm13", "thm31", "lemmas", "all"])
def test_records_match_reference_on_coverage_corpus(mode):
    corpus = ingest_corpus(COVERAGE)
    report = strip_timing(run_sweep(corpus, 500, mode))
    assert report["summary"]["failures"] == 0
    assert report["instances"] == reference_records(corpus, 500, 100, mode)


def test_records_match_reference_at_pair_dmax_500(tmp_path):
    corpus = tmp_path / "three.csv"
    lines = [ln for ln in open(default_corpus_path(), encoding="utf-8") if ln.startswith(THREE)]
    corpus.write_text("".join(lines), encoding="utf-8")
    out = tmp_path / "report.json"
    args = ["verify", "--corpus", str(corpus), "--dmax", "500", "--pair-dmax", "500"]
    assert main([*args, "--out", str(out)]) == 0
    report = strip_timing(json.loads(out.read_text(encoding="utf-8")))
    assert report["pair_dmax"] == 500
    assert report["summary"]["instances"] == 19993
    assert report["instances"] == reference_records(ingest_corpus(str(corpus)), 500, 500)


def count_calls(monkeypatch, *functions):
    """Count every call of the given functions by their arguments,
    wherever a quadtwist module binds them (the sweep's own modules and
    the library's internal calls alike)."""
    calls = Counter()
    for fn in functions:

        def counted(*args, _fn=fn):
            calls[_fn.__name__, args] += 1
            return _fn(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("quadtwist") and getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counted)
    return calls


@pytest.mark.parametrize("d_max", [60, 200])
def test_sweep_computes_each_twist_once(monkeypatch, d_max):
    # from cold memos: one twist_minimal call per (curve, admissible D),
    # one tate_local call per (twist, prime); the curves' own local data
    # is asked a fixed number of times per curve, whatever d_max is
    corpus = three_curves()
    clear_memos()
    try:
        calls = count_calls(monkeypatch, twist_minimal, tate_local)
        report = run_sweep(corpus, d_max, "all")
        monkeypatch.undo()
        curves = {rec.label: minimal_model(rec.curve).minimal for rec in corpus}
        singles = [(i["curve"], i["d"]) for i in report["instances"] if "d" in i]
        minimized = {args: n for (name, args), n in calls.items() if name == "twist_minimal"}
        assert minimized == {(curves[label], d): 1 for label, d in singles}
        twist_keys = Counter()
        for label, d in singles:
            if d == 1:
                continue  # the twist is the curve itself
            E = curves[label]
            primes = fundamental_discriminant(d).primes
            if d <= report["pair_dmax"]:
                primes += minimal_model(E).bad_primes  # the primes of N
            for l in primes:
                twist_keys[twist_minimal(E, d)[0], l] += 1
        tate_calls = Counter({args: n for (name, args), n in calls.items() if name == "tate_local"})
        own = {key: n for key, n in tate_calls.items() if key[0] in curves.values()}
        assert tate_calls - Counter(own) == twist_keys
        assert set(twist_keys.values()) == {1}
        # E's own primes: its profile, its D = 1 row, c~ and the inert
        # base change at multiplicative primes
        for key, n in own.items():
            loc = tate_local(*key)
            assert n == (4 if loc.kind.startswith("multiplicative") else 2), key
    finally:
        clear_memos()
