"""The sweep as a join of twist rows, held to the per-instance reference.

Every record the sweep writes must equal the one reference_single_record
or reference_pair_record (oracles.py) builds from the instance's setup
alone, reading each twist's Tate data afresh.  From ingest to the report,
a sweep must compute each curve's minimal model once and run Tate's
algorithm once per (curve, prime of N), minimize each twist once, run
Tate's algorithm once per (twist, prime) and evaluate the odd-prime
closed form once per (curve, prime); and the package keeps one memo,
a bounded one."""

import importlib
import io
import json
import os
import pkgutil
import sys
from collections import Counter

import pytest

import quadtwist
from quadtwist.arith import fundamental_discriminant
from quadtwist.cli import main
from quadtwist.curves import minimal_model
from quadtwist.harness import (
    SweepReport,
    default_corpus_path,
    ingest_corpus,
    write_report,
)
from quadtwist.localred import tate_local, twist_prime_tamagawa_odd
from quadtwist.twistlaws import twist_minimal

from oracles import reference_records, strip_timing, sweep_report

COVERAGE = os.path.join(os.path.dirname(__file__), "data", "coverage.csv")
THREE = ("11a1", "15a1", "37a1")


def three_curve_corpus(tmp_path) -> str:
    """A corpus file holding the shipped lines of THREE."""
    path = tmp_path / "three.csv"
    lines = [ln for ln in open(default_corpus_path(), encoding="utf-8") if ln.startswith(THREE)]
    path.write_text("".join(lines), encoding="utf-8")
    return str(path)


def test_records_match_reference_on_shipped_corpus():
    corpus = ingest_corpus(default_corpus_path())
    report = strip_timing(sweep_report(corpus, 500, "all"))
    assert report["summary"]["instances"] == 7572
    assert report["instances"] == reference_records(corpus, 500, 100)


@pytest.mark.parametrize("mode", ["thm13", "thm31", "lemmas", "all"])
def test_records_match_reference_on_coverage_corpus(mode):
    corpus = ingest_corpus(COVERAGE)
    report = strip_timing(sweep_report(corpus, 500, mode))
    assert report["summary"]["failures"] == 0
    assert report["instances"] == reference_records(corpus, 500, 100, mode)


def test_records_match_reference_at_pair_dmax_500(tmp_path):
    corpus = three_curve_corpus(tmp_path)
    out = tmp_path / "report.json"
    args = ["verify", "--corpus", corpus, "--dmax", "500", "--pair-dmax", "500"]
    assert main([*args, "--out", str(out)]) == 0
    report = strip_timing(json.loads(out.read_text(encoding="utf-8")))
    assert report["pair_dmax"] == 500
    assert report["summary"]["instances"] == 19993
    assert report["instances"] == reference_records(ingest_corpus(corpus), 500, 500)


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


def test_ingest_to_report_computes_each_curve_fact_once(monkeypatch):
    # from ingest to the written report of the acceptance sweep: one
    # minimal_model per curve, and one tate_local per (curve, prime of N),
    # which the stated-conductor check and the sweep both read
    calls = count_calls(monkeypatch, minimal_model, tate_local)
    corpus = ingest_corpus(default_corpus_path())
    write_report(SweepReport(corpus, 500, "all"), io.StringIO())
    monkeypatch.undo()
    assert len(corpus) == 22 and all(rec.conductor for rec in corpus)  # all stated
    minimized = Counter({args: n for (name, args), n in calls.items() if name == "minimal_model"})
    assert minimized == Counter((rec.curve,) for rec in corpus)
    curves = [minimal_model(rec.curve) for rec in corpus]
    own = {
        args: n
        for (name, args), n in calls.items()
        if name == "tate_local" and args[0] in {mm.minimal for mm in curves}
    }
    assert own == {(mm.minimal, p): 1 for mm in curves for p in mm.bad_primes}


def test_package_keeps_one_bounded_memo():
    # the only functools cache wrapper in the package is is_prime's, and it
    # has a finite maxsize: no memo grows with the curves a process sees
    for info in pkgutil.iter_modules(quadtwist.__path__):
        importlib.import_module(f"quadtwist.{info.name}")
    memos = {}
    for name, module in list(sys.modules.items()):
        if name != "quadtwist" and not name.startswith("quadtwist."):
            continue
        for obj in vars(module).values():
            members = vars(obj).values() if isinstance(obj, type) else ()
            for fn in (obj, *members):
                fn = getattr(fn, "fget", fn)  # a property's getter
                if hasattr(fn, "cache_parameters"):
                    memos[f"{fn.__module__}.{fn.__qualname__}"] = fn.cache_parameters()
    assert list(memos) == ["quadtwist.arith.is_prime"]
    maxsize = memos["quadtwist.arith.is_prime"]["maxsize"]
    assert maxsize is not None and 0 < maxsize < 10**5


def test_second_sweep_over_the_same_records_writes_the_same_report():
    # a record's facts carry the curve's n_minus table, which the first
    # sweep fills; a second sweep over the same records, in process or
    # with the filled facts pickled to workers, writes the same report
    corpus = ingest_corpus(default_corpus_path())
    assert all(not rec.facts.minus_sides for rec in corpus)

    def report(jobs):
        return strip_timing(sweep_report(corpus, 60, "all", jobs=jobs, corpus_name="x"))

    first = report(1)
    assert all(rec.facts.minus_sides for rec in corpus)
    assert report(1) == first
    assert report(2) == first
    assert first["summary"]["instances"] > 1000


@pytest.mark.parametrize("d_max", [60, 200])
def test_sweep_computes_each_twist_once(monkeypatch, tmp_path, d_max):
    # from ingest on: one twist_minimal call per (curve, admissible D),
    # one tate_local call per (twist, prime); the curves' own local data
    # is computed once per curve and prime, whatever d_max is; the
    # odd-prime closed form once per (curve, odd l | D) over the singles
    path = three_curve_corpus(tmp_path)
    calls = count_calls(monkeypatch, twist_minimal, tate_local, twist_prime_tamagawa_odd)
    corpus = ingest_corpus(path)
    report = sweep_report(corpus, d_max, "all")
    monkeypatch.undo()
    curves = {rec.label: minimal_model(rec.curve) for rec in corpus}
    singles = [(i["curve"], i["d"]) for i in report["instances"] if "d" in i]
    minimized = Counter()
    for (name, args), n in calls.items():
        if name == "twist_minimal":
            mm, f = args
            minimized[mm, f.value] += n  # the sweep passes the parsed D
    assert minimized == {(curves[label], d): 1 for label, d in singles}
    twist_keys = Counter()
    for label, d in singles:
        if d == 1:
            continue  # the twist is the curve itself
        mm = curves[label]
        primes = fundamental_discriminant(d).primes
        if d <= report["pair_dmax"]:
            primes += mm.bad_primes  # the primes of N
        for l in primes:
            twist_keys[twist_minimal(mm, fundamental_discriminant(d))[0], l] += 1
    tate_calls = Counter({args: n for (name, args), n in calls.items() if name == "tate_local"})
    minimal = {mm.minimal for mm in curves.values()}
    own = {key: n for key, n in tate_calls.items() if key[0] in minimal}
    assert tate_calls - Counter(own) == twist_keys
    assert set(twist_keys.values()) == {1}
    # E's own primes: its profile at ingest only; its D = 1 row, c~ and
    # the inert base change read the profile's local data
    assert own == {(mm.minimal, p): 1 for mm in curves.values() for p in mm.bad_primes}
    closed_form = Counter()
    for (name, args), n in calls.items():
        if name == "twist_prime_tamagawa_odd":
            closed_form[args] += n  # (mm, l)
    odd_keys = {
        (curves[label], l)
        for label, d in singles
        for l in fundamental_discriminant(d).primes
        if l != 2
    }
    assert closed_form == Counter(odd_keys)
