"""Corpus ingestion, sweep orchestration, report determinism and the CLI."""

import json
import math
import os
import subprocess
import sys
from concurrent.futures import Future
from fractions import Fraction

import pytest

import quadtwist
from quadtwist.arith import fundamental_discriminants
from quadtwist.cli import main
from quadtwist.curves import minimal_model, model, two_strongly_minimal
from quadtwist.harness import (
    CorpusError,
    SweepReport,
    default_corpus_path,
    ingest_corpus,
    run_sweep,
    strip_timing,
    twist_rows,
)
from quadtwist.localred import tate_local
from quadtwist.twistlaws import twist_minimal

from oracles import (
    HOSTILE_DISCRIMINANT,
    count_cubic_roots_brute,
    hostile_semiprime,
    two_strongly_minimal_brute,
)


def write(tmp_path, text, name="c.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_ingest_example_line(tmp_path):
    path = write(tmp_path, "# comment\n11a1,0,-1,1,-10,-20,11,0\n")
    recs = ingest_corpus(path)
    assert len(recs) == 1
    rec = recs[0]
    assert rec.label == "11a1"
    assert rec.a_invariants == (0, -1, 1, -10, -20)
    assert rec.conductor == 11 and rec.analytic_rank == 0
    assert rec.source.endswith(":2")


def test_ingest_empty_file(tmp_path):
    assert ingest_corpus(write(tmp_path, "# nothing here\n\n")) == []


def test_ingest_rejects_singular(tmp_path):
    with pytest.raises(CorpusError) as exc:
        ingest_corpus(write(tmp_path, "bad,0,0,0,0,0,1\n"))
    assert "singular" in str(exc.value) and ":1" in str(exc.value)


def test_ingest_rejects_unfactorable_discriminant(tmp_path, one_second_deadline):
    # the line is named at ingest, not left to hang the sweep
    path = write(tmp_path, f"11a1,0,-1,1,-10,-20\nhostile,0,0,0,0,{hostile_semiprime()}\n")
    with pytest.raises(CorpusError) as exc:
        ingest_corpus(path)
    assert str(exc.value).startswith(f"{path}:2: cannot factor ")


def test_ingest_rejects_conductor_mismatch(tmp_path):
    with pytest.raises(CorpusError) as exc:
        ingest_corpus(write(tmp_path, "11a1,0,-1,1,-10,-20,37\n"))
    assert "conductor" in str(exc.value)


def test_ingest_rejects_duplicates_and_bad_fields(tmp_path):
    with pytest.raises(CorpusError) as exc:
        ingest_corpus(write(tmp_path, "a,0,-1,1,0,0\na,0,0,1,-1,0\n"))
    assert "duplicate" in str(exc.value)
    with pytest.raises(CorpusError):
        ingest_corpus(write(tmp_path, "a,0,-1,x,0,0\n"))
    with pytest.raises(CorpusError):
        ingest_corpus(write(tmp_path, "a,0,-1\n"))


def test_shipped_corpus_loads():
    recs = ingest_corpus(default_corpus_path())
    assert len(recs) >= 20
    assert all(rec.conductor is not None and rec.conductor <= 200 for rec in recs)


def test_sweep_membership_11a1_dmax20():
    """Admissible single discriminants for the conductor-11 curve up to
    20: the trivial one, the split 5 and 12, the inert 8, 13 and 17."""
    E = minimal_model(model(0, -1, 1, -10, -20)).minimal
    fds = list(fundamental_discriminants(20))
    got = {}
    for row in twist_rows(E, fds, 20):
        n_minus = math.prod(row.minus_primes)
        got[row.disc.value] = (row.facts.conductor // n_minus, n_minus)
    assert got == {
        1: (11, 1),
        5: (11, 1),
        8: (1, 11),
        12: (11, 1),
        13: (1, 11),
        17: (1, 11),
    }


def test_sweep_dmax_one_is_trivial(tmp_path):
    path = write(tmp_path, "11a1,0,-1,1,-10,-20,11,0\n")
    report = run_sweep(ingest_corpus(path), 1, "thm13")
    # only D = 1 qualifies, and trivially passes
    assert report["summary"]["failures"] == 0
    assert [i["d"] for i in report["instances"]] == [1]


def test_report_deterministic(tmp_path):
    path = write(tmp_path, "11a1,0,-1,1,-10,-20,11,0\n14a1,1,0,1,4,-6,14,0\n")
    corpus = ingest_corpus(path)
    a = strip_timing(run_sweep(corpus, 40, "all", corpus_name="x"))
    b = strip_timing(run_sweep(corpus, 40, "all", corpus_name="x"))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    # with timing retained the only differences live under timing keys
    full = run_sweep(corpus, 40, "all", corpus_name="x")
    assert "wall_seconds" in full["timing"]


def test_report_mode_all_contains_all_checks(tmp_path):
    path = write(tmp_path, "11a1,0,-1,1,-10,-20,11,0\n")
    report = run_sweep(ingest_corpus(path), 20, "all")
    singles = [i for i in report["instances"] if "d" in i]
    pairs = [i for i in report["instances"] if "d1" in i]
    assert singles and pairs
    schecks = set().union(*(i["checks"] for i in singles))
    assert {
        "quantity_power_of_two",
        "quantity_even_exponent",
        "symbol_closed_form",
        "tamagawa_product_symbol",
        "u_closed_form",
        "odd_twist_fast_path",
    } <= schecks
    assert "two_adic_case_table" in schecks  # D = 8 and 12 are in range
    pchecks = set().union(*(i["checks"] for i in pairs))
    assert {
        "quantity_power_of_two",
        "quantity_even_exponent",
        "omega_parity",
        "c_tilde_product",
        "tamagawa_transfer_per_prime",
        "tamagawa_transfer_product",
    } <= pchecks
    assert report["summary"]["failures"] == 0


def test_parallel_jobs_match_serial(tmp_path):
    path = write(tmp_path, "11a1,0,-1,1,-10,-20,11,0\n15a1,1,1,1,-10,-10,15,0\n")
    corpus = ingest_corpus(path)
    serial = strip_timing(run_sweep(corpus, 30, "all", jobs=1, corpus_name="x"))
    parallel = strip_timing(run_sweep(corpus, 30, "all", jobs=2, corpus_name="x"))
    assert serial == parallel


class InlinePool:
    """Stands in for ProcessPoolExecutor: records each pool's max_workers
    and runs every task inline, so no worker process starts."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, cancel_futures=False):
        pass


def test_pool_workers_capped_at_curve_count(tmp_path, monkeypatch, capsys):
    # a fork pool starts all max_workers at the first submit, so --jobs
    # beyond the curve count must not reach the pool
    monkeypatch.setattr("quadtwist.harness.ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(InlinePool, "sizes", [])
    corpus = three_curves()
    serial = strip_timing(run_sweep(corpus, 20, "all", jobs=1))
    assert InlinePool.sizes == []
    assert strip_timing(run_sweep(corpus, 20, "all", jobs=100_000)) == serial
    assert strip_timing(run_sweep(corpus, 20, "all", jobs=2)) == serial
    assert InlinePool.sizes == [3, 2]
    path = write(tmp_path, "11a1,0,-1,1,-10,-20,11,0\n15a1,1,1,1,-10,-10,15,0\n")
    assert main(["verify", "--corpus", path, "--dmax", "20", "--jobs", "100000"]) == 0
    assert InlinePool.sizes == [3, 2, 2]
    one = write(tmp_path, "11a1,0,-1,1,-10,-20,11,0\n", name="one.csv")
    assert main(["verify", "--corpus", one, "--dmax", "20", "--jobs", "100000"]) == 0
    assert InlinePool.sizes == [3, 2, 2]  # one curve runs in process


def three_curves():
    corpus = [
        rec for rec in ingest_corpus(default_corpus_path())
        if rec.label in ("11a1", "15a1", "37a1")
    ]
    assert len(corpus) == 3
    return corpus


def clear_memos():
    for memo in (minimal_model, two_strongly_minimal, tate_local, twist_minimal):
        memo.cache_clear()


def test_sweep_report_same_with_brute_normal_form(monkeypatch):
    # even D up to 60 run check_two_adic_case on the 2-adic normal form of
    # curves with good reduction at 2 (11a1 and 37a1 take pattern 2, 15a1
    # pattern 1); the full 16^3 search must give the same report
    corpus = three_curves()
    fast = strip_timing(run_sweep(corpus, 60, "all", corpus_name="x"))
    monkeypatch.setattr("quadtwist.twistlaws.two_strongly_minimal", two_strongly_minimal_brute)
    brute = strip_timing(run_sweep(corpus, 60, "all", corpus_name="x"))
    assert fast == brute
    assert fast["summary"]["failures"] == 0
    exercised = {i["curve"] for i in fast["instances"] if "two_adic_case_table" in i["checks"]}
    assert exercised == {"11a1", "15a1", "37a1"}


def test_sweep_report_same_with_brute_cubic_roots(monkeypatch):
    # D = 53 sends the twist's I0* fiber at 53 (Tate's algorithm) and the
    # odd-prime fast path through the p >= 50 root-counting kernel; the
    # brute-force count must give the same report
    corpus = three_curves()
    fast = strip_timing(run_sweep(corpus, 60, "all", corpus_name="x"))
    primes = set()

    def brute(b, c, d, p):
        primes.add(p)
        return count_cubic_roots_brute(b, c, d, p)

    monkeypatch.setattr("quadtwist.localred.count_cubic_roots", brute)
    clear_memos()
    try:
        slow = strip_timing(run_sweep(corpus, 60, "all", corpus_name="x"))
    finally:
        clear_memos()
    assert fast == slow
    assert fast["summary"]["failures"] == 0
    assert 53 in primes


def test_sweep_does_no_fraction_arithmetic(monkeypatch):
    # twist quantities and product checks are decided on ints; a sweep
    # from cold memos must not multiply or divide a Fraction
    corpus = three_curves()
    expected = strip_timing(run_sweep(corpus, 60, "all", corpus_name="x"))

    def refuse(*args):
        raise AssertionError("Fraction arithmetic in a sweep")

    for name in ("__mul__", "__rmul__", "__truediv__", "__rtruediv__"):
        monkeypatch.setattr(Fraction, name, refuse)
    clear_memos()
    try:
        got = strip_timing(run_sweep(corpus, 60, "all", corpus_name="x"))
    finally:
        clear_memos()
    assert got == expected


def test_run_sweep_rejects_bad_mode(tmp_path):
    path = write(tmp_path, "11a1,0,-1,1,-10,-20,11,0\n")
    with pytest.raises(ValueError):
        run_sweep(ingest_corpus(path), 10, "everything")


# ---------------------------------------------------------------------------
# CLI


def test_cli_tate_line(capsys):
    assert main(["tate", "--curve", "0,-1,1,-10,-20", "--prime", "11"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "I5 c=5 v=5 split"


def test_cli_usage_errors(capsys):
    assert main(["tate", "--curve", "0,-1,1,-10", "--prime", "11"]) == 2
    capsys.readouterr()
    assert main(["tate", "--curve", "0,-1,1,-10,-20", "--prime", "12"]) == 2
    assert capsys.readouterr().err == "error: 12 is not prime\n"
    assert main(["no-such-command"]) == 2
    assert main(["verify", "--corpus", "/no/such/file.csv"]) == 2


def test_cli_internal_error_exit_code(tmp_path, monkeypatch, capsys):
    def crash(*args, **kwargs):
        raise RuntimeError("simulated crash")

    monkeypatch.setattr("quadtwist.cli.SweepReport", crash)
    corpus = write(tmp_path, "11a1,0,-1,1,-10,-20,11,0\n")
    assert main(["verify", "--corpus", corpus, "--dmax", "5"]) == 3
    assert "internal error: RuntimeError: simulated crash" in capsys.readouterr().err


def test_cli_error_inside_sweep_is_internal(tmp_path, monkeypatch, capsys):
    # a ValueError raised mid-sweep is a fault of the program, not a usage
    # error: exit 3, naming the curve
    def broken(E, D):
        raise ValueError("simulated u failure")

    monkeypatch.setattr("quadtwist.twistlaws.u_of_discriminant", broken)
    corpus = write(tmp_path, "11a1,0,-1,1,-10,-20,11,0\n")
    assert main(["verify", "--corpus", corpus, "--dmax", "5"]) == 3
    err = capsys.readouterr().err
    assert "internal error: SweepError: curve 11a1: ValueError: simulated u failure" in err


def test_cli_ingest_internal_error_exit_code(tmp_path, monkeypatch, capsys):
    # only a singular or unfactorable model is a corpus (usage) error;
    # anything else that goes wrong while ingesting is internal
    def crash(*args, **kwargs):
        raise RuntimeError("simulated minimal_model failure")

    monkeypatch.setattr("quadtwist.harness.minimal_model", crash)
    corpus = write(tmp_path, "11a1,0,-1,1,-10,-20,11,0\n")
    assert main(["verify", "--corpus", corpus, "--dmax", "5"]) == 3
    assert "internal error: RuntimeError" in capsys.readouterr().err


def test_cli_verify_roundtrip(tmp_path, capsys):
    corpus = tmp_path / "c.csv"
    corpus.write_text("11a1,0,-1,1,-10,-20,11,0\n", encoding="utf-8")
    out = tmp_path / "report.json"
    rc = main(
        ["verify", "--corpus", str(corpus), "--dmax", "20", "--mode", "all",
         "--out", str(out)]
    )
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["summary"]["failures"] == 0
    assert report["mode"] == "all" and report["d_max"] == 20
    assert report["pair_dmax"] == 20  # below the cap, pairs go to --dmax
    # byte-identical rerun modulo timing
    out2 = tmp_path / "report2.json"
    main(["verify", "--corpus", str(corpus), "--dmax", "20", "--mode", "all",
          "--out", str(out2)])
    a = strip_timing(json.loads(out.read_text()))
    b = strip_timing(json.loads(out2.read_text()))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


@pytest.mark.parametrize("jobs", [1, 2])
def test_cli_report_file_matches_run_sweep(tmp_path, jobs):
    corpus = write(tmp_path, "15a1,1,1,1,-10,-10,15,0\n11a1,0,-1,1,-10,-20,11,0\n")
    out = tmp_path / "report.json"
    args = ["verify", "--corpus", corpus, "--dmax", "30", "--out", str(out)]
    assert main([*args, "--jobs", str(jobs)]) == 0
    text = out.read_text(encoding="utf-8")
    streamed = json.loads(text)
    collected = run_sweep(ingest_corpus(corpus), 30, "all", jobs=jobs, corpus_name=corpus)
    assert strip_timing(streamed) == strip_timing(collected)
    # report order: curves by label, then pairs before singles, each ascending
    instances = streamed["instances"]
    keys = [(i["curve"], i.get("d", 0), i.get("d1", 0), i.get("d2", 0)) for i in instances]
    assert keys == sorted(keys) and {i["curve"] for i in instances} == {"11a1", "15a1"}
    # one instance per line, and the summary after the instances
    lines = text.splitlines()
    start = lines.index('"instances": [')
    records = [json.loads(ln.rstrip(",")) for ln in lines[start + 1 : lines.index("],")]]
    assert records == instances
    assert text.index('"instances"') < text.index('"summary"')


def test_cli_verify_failed_sweep_keeps_previous_report(tmp_path, monkeypatch, capsys):
    class DiesAfterFirstCurve(SweepReport):
        def __iter__(self):
            for rec in super().__iter__():
                if rec["curve"] != "11a1":
                    raise RuntimeError("sweep died")
                yield rec

    corpus = write(tmp_path, "11a1,0,-1,1,-10,-20,11,0\n15a1,1,1,1,-10,-10,15,0\n")
    out = tmp_path / "report.json"
    out.write_bytes(b"previous report\n")
    monkeypatch.setattr("quadtwist.cli.SweepReport", DiesAfterFirstCurve)
    assert main(["verify", "--corpus", corpus, "--dmax", "20", "--out", str(out)]) == 3
    assert "internal error: RuntimeError: sweep died" in capsys.readouterr().err
    assert out.read_bytes() == b"previous report\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.csv", "report.json"]


def test_cli_verify_under_python_optimize(tmp_path):
    # python -O strips asserts; the acceptance report, and a sweep with
    # pairs past the default cap, must not depend on them
    src = os.path.dirname(os.path.dirname(quadtwist.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    three = write(
        tmp_path,
        "11a1,0,-1,1,-10,-20,11,0\n15a1,1,1,1,-10,-10,15,0\n37a1,0,0,1,-1,0,37,1\n",
    )
    for corpus, pair_dmax in ((default_corpus_path(), 100), (three, 200)):
        out = tmp_path / "report.json"
        subprocess.run(
            [sys.executable, "-O", "-m", "quadtwist.cli", "verify", "--corpus", corpus,
             "--dmax", "500", "--pair-dmax", str(pair_dmax), "--out", str(out)],
            env={**os.environ, "PYTHONPATH": path}, check=True, capture_output=True,
            timeout=120,
        )
        collected = run_sweep(
            ingest_corpus(corpus), 500, "all", corpus_name=corpus, pair_dmax=pair_dmax
        )
        report = strip_timing(json.loads(out.read_text(encoding="utf-8")))
        assert report == strip_timing(collected)
        assert report["pair_dmax"] == pair_dmax


def test_cli_verify_pair_dmax(tmp_path, capsys):
    corpus = write(tmp_path, "11a1,0,-1,1,-10,-20,11,0\n")
    out = tmp_path / "report.json"
    args = ["verify", "--corpus", corpus, "--dmax", "30", "--out", str(out)]
    assert main([*args, "--pair-dmax", "13"]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["pair_dmax"] == 13
    pairs = [(i["d1"], i["d2"]) for i in report["instances"] if "d1" in i]
    assert pairs and max(d2 for _, d2 in pairs) <= 13
    singles = [i["d"] for i in report["instances"] if "d" in i]
    assert max(singles) > 13  # singles still go to --dmax
    collected = run_sweep(ingest_corpus(corpus), 30, "all", corpus_name=corpus, pair_dmax=13)
    assert strip_timing(report) == strip_timing(collected)
    assert main([*args, "--pair-dmax", "1000"]) == 0  # the report records min(--dmax, N)
    assert json.loads(out.read_text(encoding="utf-8"))["pair_dmax"] == 30
    capsys.readouterr()
    for bad in ("0", "-5", "x"):
        assert main([*args, "--pair-dmax", bad]) == 2
        assert "--pair-dmax" in capsys.readouterr().err


def test_cli_verify_without_out_encodes_nothing(tmp_path, monkeypatch, capsys):
    def refuse(self, *args, **kwargs):
        raise RuntimeError("JSON encoded without --out")

    monkeypatch.setattr(json.JSONEncoder, "encode", refuse)
    monkeypatch.setattr(json.JSONEncoder, "iterencode", refuse)
    corpus = write(tmp_path, "11a1,0,-1,1,-10,-20,11,0\n")
    assert main(["verify", "--corpus", corpus, "--dmax", "30"]) == 0
    assert capsys.readouterr().out == "46 instances, 280 checks, 0 failures\n"


def test_cli_verify_progress_one_line_per_curve(tmp_path, capsys):
    corpus = write(
        tmp_path,
        "37a1,0,0,1,-1,0,37,1\n11a1,0,-1,1,-10,-20,11,0\n15a1,1,1,1,-10,-10,15,0\n",
    )
    assert main(["verify", "--corpus", corpus, "--dmax", "20"]) == 0
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert [ln.split(":")[0] for ln in lines] == ["11a1", "15a1", "37a1"]
    assert all(ln.endswith(" s") and " instances, 0 failures, " in ln for ln in lines)
    assert len(captured.out.splitlines()) == 1  # stdout: the summary alone


def test_cli_verify_reports_failed_checks(tmp_path, monkeypatch, capsys):
    # a wrong closed form fails symbol_closed_form on every single instance
    monkeypatch.setattr("quadtwist.harness.symbol_closed_form", lambda disc, D, b: 2)
    corpus = write(tmp_path, "11a1,0,-1,1,-10,-20,11,0\n")
    out = tmp_path / "report.json"
    assert main(["verify", "--corpus", corpus, "--dmax", "13", "--out", str(out)]) == 1
    report = json.loads(out.read_text(encoding="utf-8"))
    singles = [i["d"] for i in report["instances"] if "d" in i]
    assert singles == [1, 5, 8, 12, 13]
    assert report["failures"] == [
        {"curve": "11a1", "d": d, "failed_checks": ["symbol_closed_form"]} for d in singles
    ]
    summary = report["summary"]
    assert summary["failures"] == 5
    assert summary["check_counts"]["symbol_closed_form"] == 5  # failed checks ran too
    assert summary["check_counts"]["quantity_power_of_two"] == summary["instances"]
    captured = capsys.readouterr()
    assert captured.err.startswith(f"11a1: {summary['instances']} instances, 5 failures, ")
    fails = [ln for ln in captured.out.splitlines() if ln.startswith("FAIL: ")]
    assert [json.loads(ln[6:]) for ln in fails] == report["failures"]


def test_cli_enumerate_profiles(capsys):
    assert main(["enumerate-case3"]) == 0
    out = capsys.readouterr().out
    assert "key range: [0, 16]" in out
    assert "matches expected sets: True" in out


def test_cli_minimal_and_twist(capsys):
    assert main(["minimal", "--curve", "0,0,0,0,46656"]) == 0
    assert capsys.readouterr().out.strip() == "0,0,0,0,1 u=6"
    assert main(["twist", "--curve", "0,0,0,1,0", "--d", "5"]) == 0
    out = capsys.readouterr().out
    assert "twist: 0,0,0,25,0" in out


def test_cli_find_aux(capsys):
    rc = main(
        ["find-aux", "--curve", "0,-1,1,-10,-20", "--d1", "1", "--d2", "13",
         "--prime", "11"]
    )
    assert rc == 0
    assert capsys.readouterr().out.strip() == "8"


def test_cli_find_aux_hostile_n_minus(one_second_deadline, capsys):
    # D fixes the split, so a stated one is not an option at all
    args = ["find-aux", "--curve", "0,-1,1,-10,-20", "--d1", "13", "--prime", "11"]
    for option in ("--nminus", "--nplus"):
        assert main([*args, option, str(hostile_semiprime())]) == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err


def test_cli_find_aux_hostile_d1(one_second_deadline, capsys):
    # rejected by size before any attempt to factor it
    rc = main(
        ["find-aux", "--curve", "0,-1,1,-10,-20", "--d1", str(HOSTILE_DISCRIMINANT),
         "--prime", "11"]
    )
    assert rc == 2
    assert "exceeds the discriminant bound 1000000000000" in capsys.readouterr().err


def test_cli_u_of_d_hostile_d(one_second_deadline, capsys):
    rc = main(["u-of-d", "--curve", "0,-1,1,-10,-20", "--d", str(HOSTILE_DISCRIMINANT)])
    assert rc == 2
    assert "exceeds the discriminant bound" in capsys.readouterr().err


def test_cli_verify_hostile_corpus_line(tmp_path, one_second_deadline, capsys):
    # a stated conductor is checked after the model: the same error
    corpus = write(tmp_path, f"hostile,0,0,0,0,{hostile_semiprime()},11\n")
    assert main(["verify", "--corpus", corpus, "--dmax", "5"]) == 2
    assert f"error: {corpus}:1: cannot factor " in capsys.readouterr().err


def test_cli_minimal_hostile_curve(one_second_deadline, capsys):
    assert main(["minimal", "--curve", f"0,0,0,0,{hostile_semiprime()}"]) == 2
    assert capsys.readouterr().err.startswith("error: cannot factor ")
