"""The sweep as a join of twist rows, held to the per-instance reference.

Every record the sweep writes must equal the one reference_single_record
or reference_pair_record (oracles.py) builds from the instance's setup
alone, reading each twist's Tate data afresh.  From ingest to the report,
a sweep must compute each curve's minimal model once and run Tate's
algorithm once per (curve, prime of N), minimize each twist once, run
Tate's algorithm once per (twist, prime) and evaluate the odd-prime
closed form once per (curve, prime); and the package keeps one memo,
a bounded one.  A pair's checks run once per pair of row classes, and
the class holds every value of a row that they read."""

import importlib
import io
import json
import math
import os
import pkgutil
import sys
from collections import Counter
from itertools import combinations

import pytest

import quadtwist
import quadtwist.harness as harness
import quadtwist.localred as localred
from quadtwist.arith import fundamental_discriminant, fundamental_discriminants
from quadtwist.cli import main
from quadtwist.curves import invariants, minimal_model
from quadtwist.harness import (
    SweepReport,
    _int_dict_json,
    _pair_records,
    _sweep_curve,
    default_corpus_path,
    ingest_corpus,
    write_report,
)
from quadtwist.localred import tate_local, twist_prime_tamagawa_odd
from quadtwist.twistlaws import (
    join_rows,
    minus_side,
    pair_twist_quantity,
    twist_minimal,
    twist_rows,
)

from oracles import (
    reference_pair_record,
    reference_records,
    reference_setup,
    row_pairs,
    strip_timing,
    sweep_report,
)

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
    # minimal_model per curve, and one pass of Tate's algorithm (the
    # kernel localred._tate) per (curve, prime of N), which the
    # stated-conductor check and the sweep both read
    calls = count_calls(monkeypatch, minimal_model, localred._tate)
    corpus = ingest_corpus(default_corpus_path())
    write_report(SweepReport(corpus, 500, "all"), io.StringIO())
    monkeypatch.undo()
    assert len(corpus) == 22 and all(rec.conductor for rec in corpus)  # all stated
    minimized = Counter({args: n for (name, args), n in calls.items() if name == "minimal_model"})
    assert minimized == Counter((rec.curve,) for rec in corpus)
    curves = [minimal_model(rec.curve) for rec in corpus]
    own = Counter()
    for (name, args), n in calls.items():
        if name == "_tate" and args[0] in {mm.minimal for mm in curves}:
            own[args[:2]] += n  # (model, p)
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
    # one pass of Tate's algorithm (the kernel localred._tate) per
    # (twist, prime) and per (curve, prime of N), whatever d_max is; each
    # model's b-invariants and discriminant are computed once, by its
    # reduction, and never inside Tate's algorithm (no tate_local call);
    # the odd-prime closed form once per (curve, odd l | D) over the singles
    path = three_curve_corpus(tmp_path)
    calls = count_calls(
        monkeypatch,
        twist_minimal,
        localred._tate,
        invariants,
        tate_local,
        twist_prime_tamagawa_odd,
    )
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
    twists = {
        (label, d): twist_minimal(curves[label], fundamental_discriminant(d)) for label, d in singles
    }
    twist_keys = Counter()
    for (label, d), tw in twists.items():
        if d == 1:
            continue  # the twist is the curve itself
        primes = fundamental_discriminant(d).primes
        if d <= report["pair_dmax"]:
            primes += curves[label].bad_primes  # the primes of N
        for l in primes:
            twist_keys[tw.minimal, l] += 1
    kernel = Counter()
    for (name, args), n in calls.items():
        if name == "_tate":
            kernel[args[:2]] += n  # (model, p)
    minimal = {mm.minimal for mm in curves.values()}
    own = {key: n for key, n in kernel.items() if key[0] in minimal}
    assert kernel - Counter(own) == twist_keys
    assert set(twist_keys.values()) == {1}
    # E's own primes: its profile at ingest only; its D = 1 row, c~ and
    # the inert base change read the profile's local data
    assert own == {(mm.minimal, p): 1 for mm in curves.values() for p in mm.bad_primes}
    # invariants: of each corpus curve and its minimal model at ingest,
    # and of each twist's minimal model in twist_minimal, the D = 1 twist
    # (the curve's minimal model) among them
    computed = Counter()
    for (name, args), n in calls.items():
        if name == "invariants":
            computed[args[0]] += n
    expected = Counter(rec.curve for rec in corpus)
    expected.update(mm.minimal for mm in curves.values())
    expected.update(tw.minimal for tw in twists.values())
    assert computed == expected
    assert not any(name == "tate_local" for name, _ in calls)
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


# ---------------------------------------------------------------------------
# pairs evaluated once per pair of row classes


def row_class(row) -> tuple:
    """What a pair's checks and verdict read of a row: its n_minus mask,
    its share, and the twist's Tamagawa numbers at the primes of N."""
    tamagawa = tuple(row.local[p].tamagawa for p in row.facts.local_data)
    return row.minus.mask, row.share, tamagawa


def test_pair_checks_run_once_per_class_pair(monkeypatch):
    # the acceptance sweep's 4,978 pairs fall into 501 class pairs, and
    # the pair quantity is evaluated once for each of them
    evaluated = Counter()

    def counted(pair):
        evaluated[pair.row1.facts.mm.minimal, row_class(pair.row1), row_class(pair.row2)] += 1
        return pair_twist_quantity(pair)

    monkeypatch.setattr(harness, "pair_twist_quantity", counted)
    corpus = ingest_corpus(default_corpus_path())
    report = sweep_report(corpus, 500, "all")
    monkeypatch.undo()
    assert sum("d1" in rec for rec in report["instances"]) == 4978
    assert sum(evaluated.values()) == len(evaluated) == 501
    fds = list(fundamental_discriminants(100))
    assert set(evaluated) == {
        (rec.facts.mm.minimal, row_class(pair.row1), row_class(pair.row2))
        for rec in corpus
        for pair in row_pairs(twist_rows(rec.facts, fds, 100), 100)
    }


def eleven_a1_rows():
    """11a1's record and its rows at D = 5, 8 and 13.  The rows at 8 (u = 2,
    c_2 = 1) and 13 (u = 1, c_13 = 2) share a class; 5 is coprime to both."""
    (rec,) = [r for r in ingest_corpus(default_corpus_path()) if r.label == "11a1"]
    discs = [fundamental_discriminant(d) for d in (5, 8, 13)]
    return rec, discs, twist_rows(rec.facts, discs, 100)


def test_rows_of_one_class_write_their_own_pair_records(monkeypatch):
    # (5, 13) reuses the evaluation of (5, 8), and each record still
    # equals the per-instance reference
    rec, discs, (r5, r8, r13) = eleven_a1_rows()
    assert row_class(r8) == row_class(r13)
    assert (r8.u, r8.local[2].tamagawa, r13.u, r13.local[13].tamagawa) == (2, 1, 1, 2)
    calls = []

    def counted(*args):
        calls.append(args)
        return join_rows(*args)

    monkeypatch.setattr(harness, "join_rows", counted)
    chunk = _sweep_curve(rec, discs, 100, "all")
    monkeypatch.undo()
    assert len(calls) == 2  # (5, 8) and (8, 13)
    E = rec.facts.mm.minimal
    assert [json.loads(line) for line in chunk.lines[: chunk.pairs]] == [
        reference_pair_record("11a1", reference_setup(E, f1, f2), "all")
        for f1, f2 in combinations(discs, 2)
    ]


def class_pair_text(line: str) -> dict:
    """A pair record without what the pair's own rows add to it."""
    rec = json.loads(line)
    for key in ("d1", "d2"):
        del rec[key]
    for key in ("D1", "D2", "u1", "u2", "twist_tamagawa_1", "twist_tamagawa_2"):
        del rec["quantity"]["components"][key]
    return rec


@pytest.mark.parametrize("part", ["mask", "share", "tamagawa_at_n"])
def test_pair_class_holds_every_value_a_pair_reads(part):
    # the row at 13 changed in one part of its class only (its data need
    # not stay consistent): each pair's record equals the record of the
    # same pair joined alone, where no evaluation is shared, and the
    # change shows in the text the class pair (5, 13) would share with (5, 8)
    rec, _, (r5, r8, r13) = eleven_a1_rows()
    at_11 = r13.local[11]._replace(tamagawa=2 * r13.local[11].tamagawa)
    changed = {
        "mask": r13._replace(minus=minus_side(rec.facts, 0)),
        "share": r13._replace(share=2 * r13.share),
        "tamagawa_at_n": r13._replace(local={**r13.local, 11: at_11}),
    }[part]
    assert row_class(changed) != row_class(r8)
    rows = [r5, r8, changed]
    texts = {
        r.disc.value: _int_dict_json({l: r.local[l].tamagawa for l in r.disc.primes})
        for r in rows
    }
    lines, _ = _pair_records('"11a1"', rows, texts, True, True)
    alone = [
        _pair_records('"11a1"', pair, texts, True, True)[0][0]
        for pair in combinations(rows, 2)
        if math.gcd(pair[0].disc.value, pair[1].disc.value) == 1
    ]
    assert lines == alone
    assert class_pair_text(alone[1]) != class_pair_text(alone[0])


def test_a_second_sweep_on_fresh_facts_writes_the_same_text():
    # the class-pair evaluations live for one curve's sweep: two sweeps,
    # each over a fresh ingest, write the same bytes before the timing
    def text():
        out = io.StringIO()
        corpus = ingest_corpus(default_corpus_path())
        write_report(SweepReport(corpus, 200, "all", corpus_name="x"), out)
        return out.getvalue().rsplit('"timing"', 1)[0]

    assert text() == text()
