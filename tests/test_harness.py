"""Corpus ingestion, sweep orchestration, report determinism and the CLI."""

import json
import math
import multiprocessing
import os
import random
import subprocess
import sys
from collections import Counter
from concurrent.futures import Future
from fractions import Fraction

import pytest

import quadtwist
import quadtwist.harness
import quadtwist.twistlaws
from quadtwist.arith import DISCRIMINANT_BOUND, fundamental_discriminants
from quadtwist.cli import main
from quadtwist.curves import minimal_model, model
from quadtwist.localred import LocalReduction
from quadtwist.harness import (
    MODES,
    CorpusError,
    SweepReport,
    default_corpus_path,
    ingest_corpus,
)
from quadtwist.twistlaws import curve_facts, twist_rows

from oracles import (
    HOSTILE_DISCRIMINANT,
    count_cubic_roots_brute,
    hostile_semiprime,
    strip_timing,
    sweep_report,
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
    # a conductor or rank that is not an integer names its line too
    for line in ("11a1,0,-1,1,-10,-20,eleven,0\n", "11a1,0,-1,1,-10,-20,11,x\n"):
        with pytest.raises(CorpusError) as exc:
            ingest_corpus(write(tmp_path, line))
        assert ":1" in str(exc.value), line
    # so does a line that is not UTF-8, after a good one
    path = tmp_path / "bytes.csv"
    path.write_bytes(b"11a1,0,-1,1,-10,-20\n\xff\xfe,0,0,1,-1,0\n")
    with pytest.raises(CorpusError) as exc:
        ingest_corpus(str(path))
    assert str(exc.value).startswith(f"{path}:2: 'utf-8' codec can't decode byte 0xff")
    # a UTF-8 byte-order mark is not part of the first label, so a second
    # line with that label is a duplicate
    path.write_bytes(b"\xef\xbb\xbf11a1,0,-1,1,-10,-20\n")
    assert [rec.label for rec in ingest_corpus(str(path))] == ["11a1"]
    path.write_bytes(b"\xef\xbb\xbf11a1,0,-1,1,-10,-20\n11a1,0,-1,1,-10,-20\n")
    with pytest.raises(CorpusError) as exc:
        ingest_corpus(str(path))
    assert str(exc.value) == f"{path}:2: duplicate label '11a1'"


def test_cli_verify_refuses_non_ascii_and_underscore_integers(tmp_path, capsys):
    # int() reads 1_0 as 10 and an Arabic-Indic zero as 0, so this line
    # would ingest as 11a1; a corpus integer is a sign and ASCII digits
    corpus = write(tmp_path, "c,0,-1,1,-1_0,-2\u0660,11\n")
    assert main(["verify", "--corpus", corpus, "--dmax", "5"]) == 2
    assert capsys.readouterr().err == (
        f"error: {corpus}:1: bad coefficient: invalid literal for int() with base 10: '-1_0'\n"
    )
    bad = ("11a1,0,-1,1,-10,-2\u0660", "11a1,0,-1,1,-10,-20,1_1", "11a1,0,-1,1,-10,-20,11,\u0660")
    for line in bad:
        path = write(tmp_path, line + "\n")
        with pytest.raises(CorpusError) as exc:
            ingest_corpus(path)
        assert str(exc.value).startswith(f"{path}:1: bad "), line
    # a sign, surrounding blanks and leading zeros stay integers
    (rec,) = ingest_corpus(write(tmp_path, "11a1,+0, -1 ,1,-010,-20,0011,-0\n"))
    assert (rec.a_invariants, rec.conductor, rec.analytic_rank) == ((0, -1, 1, -10, -20), 11, 0)


def test_shipped_corpus_loads():
    recs = ingest_corpus(default_corpus_path())
    assert len(recs) >= 20
    assert all(rec.conductor is not None and rec.conductor <= 200 for rec in recs)


def test_sweep_membership_11a1_dmax20():
    """Admissible single discriminants for the conductor-11 curve up to
    20: the trivial one, the split 5 and 12, the inert 8, 13 and 17."""
    facts = curve_facts(minimal_model(model(0, -1, 1, -10, -20)))
    fds = list(fundamental_discriminants(20))
    got = {}
    for row in twist_rows(facts, fds, 20):
        n_minus = math.prod(row.minus.primes)
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
    report = sweep_report(ingest_corpus(path), 1, "thm13")
    # only D = 1 qualifies, and trivially passes
    assert report["summary"]["failures"] == 0
    assert [i["d"] for i in report["instances"]] == [1]


def test_report_deterministic(tmp_path):
    path = write(tmp_path, "11a1,0,-1,1,-10,-20,11,0\n14a1,1,0,1,4,-6,14,0\n")
    corpus = ingest_corpus(path)
    a = strip_timing(sweep_report(corpus, 40, "all", corpus_name="x"))
    b = strip_timing(sweep_report(corpus, 40, "all", corpus_name="x"))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    # with timing retained the only differences live under timing keys
    full = sweep_report(corpus, 40, "all", corpus_name="x")
    assert "wall_seconds" in full["timing"]


def test_report_mode_all_contains_all_checks(tmp_path):
    path = write(tmp_path, "11a1,0,-1,1,-10,-20,11,0\n")
    report = sweep_report(ingest_corpus(path), 20, "all")
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
    serial = strip_timing(sweep_report(corpus, 30, "all", jobs=1, corpus_name="x"))
    parallel = strip_timing(sweep_report(corpus, 30, "all", jobs=2, corpus_name="x"))
    assert serial == parallel


class InlinePool:
    """Stands in for ProcessPoolExecutor: records each pool's max_workers,
    runs its initializer once, as each worker would, and every task
    inline, so no worker process starts."""

    sizes: list[int] = []
    inits: list[tuple] = []  # each pool's initargs
    tasks: list[tuple] = []  # each task's arguments

    def __init__(self, max_workers, initializer=None, initargs=()):
        self.sizes.append(max_workers)
        self.inits.append(initargs)
        if initializer is not None:
            initializer(*initargs)

    def submit(self, fn, *args):
        self.tasks.append(args)
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, cancel_futures=False):
        pass


def test_pool_workers_capped_at_curve_count(tmp_path, monkeypatch, capsys):
    # a fork pool starts all max_workers at the first submit, so --jobs
    # beyond the curve count must not reach the pool.  The sweep imports
    # the pool class when it needs one, so it is patched where it lives.
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
    for name, value in (("sizes", []), ("inits", []), ("tasks", [])):
        monkeypatch.setattr(InlinePool, name, value)
    monkeypatch.setattr("quadtwist.harness._worker_discriminants", [])  # the initializer sets it
    corpus = three_curves()
    serial = strip_timing(sweep_report(corpus, 20, "all", jobs=1))
    assert InlinePool.sizes == []
    assert strip_timing(sweep_report(corpus, 20, "all", jobs=100_000)) == serial
    assert strip_timing(sweep_report(corpus, 20, "all", jobs=2)) == serial
    assert InlinePool.sizes == [3, 2]
    path = write(tmp_path, "11a1,0,-1,1,-10,-20,11,0\n15a1,1,1,1,-10,-10,15,0\n")
    assert main(["verify", "--corpus", path, "--dmax", "20", "--jobs", "100000"]) == 0
    assert InlinePool.sizes == [3, 2, 2]
    one = write(tmp_path, "11a1,0,-1,1,-10,-20,11,0\n", name="one.csv")
    assert main(["verify", "--corpus", one, "--dmax", "20", "--jobs", "100000"]) == 0
    assert InlinePool.sizes == [3, 2, 2]  # one curve runs in process


def test_jobs_send_the_discriminants_once_per_worker(monkeypatch):
    # the pool's initializer hands each worker the parsed discriminants
    # once; a curve's task carries its record and no discriminant list
    for name, value in (("sizes", []), ("inits", []), ("tasks", [])):
        monkeypatch.setattr(InlinePool, name, value)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr("quadtwist.harness._worker_discriminants", [])  # the initializer sets it
    corpus = three_curves()
    serial = strip_timing(sweep_report(corpus, 60, "all", jobs=1))
    assert strip_timing(sweep_report(corpus, 60, "all", jobs=2)) == serial
    assert InlinePool.inits == [(list(fundamental_discriminants(60)),)]
    assert [args[0] for args in InlinePool.tasks] == corpus
    assert not any(isinstance(a, list) for args in InlinePool.tasks for a in args)


def test_serial_sweep_imports_no_process_pool(tmp_path):
    # the pool's modules load only when more than one worker runs: a fresh
    # interpreter that imports the package and runs a --jobs 1 sweep adds
    # nothing from concurrent or multiprocessing to sys.modules, and no
    # Fraction is built, so neither fractions nor decimal loads.  It runs
    # apart because this module imports concurrent.futures itself.
    out = tmp_path / "report.json"
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import quadtwist, quadtwist.cli\n"
        "args = ['verify', '--dmax', '30', '--jobs', '1', '--out', sys.argv[1]]\n"
        "code = quadtwist.cli.main(args)\n"
        "added = sorted({m.split('.')[0] for m in set(sys.modules) - before})\n"
        "print(json.dumps([code, added]))\n"
    )
    src = os.path.dirname(os.path.dirname(quadtwist.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(out)],
        env={**os.environ, "PYTHONPATH": src}, check=True, capture_output=True, text=True,
        timeout=120,
    )
    code, added = json.loads(proc.stdout.splitlines()[-1])  # after verify's own line
    assert code == 0 and out.exists()
    assert "quadtwist" in added
    assert not {"concurrent", "multiprocessing", "fractions", "decimal"} & set(added), added


def three_curves():
    corpus = [
        rec for rec in ingest_corpus(default_corpus_path())
        if rec.label in ("11a1", "15a1", "37a1")
    ]
    assert len(corpus) == 3
    return corpus


def test_sweep_report_same_with_brute_cubic_roots(monkeypatch):
    # Tate's I0* step (an I0* fiber, or None for a repeated root) and
    # the odd-prime fast path count cubic roots, D = 53 among them; the
    # brute-force count must give the same report.  No memo holds a Tate
    # result, so the second sweep counts every root again.
    corpus = three_curves()
    fast = strip_timing(sweep_report(corpus, 60, "all", corpus_name="x"))
    primes, repeated = set(), set()

    def brute(b, c, d, p):
        primes.add(p)
        # a cubic's repeated root lies in F_p, a common root of f and f'
        if any((t**3 + b * t * t + c * t + d) % p == 0 == (3 * t * t + 2 * b * t + c) % p
               for t in range(p)):
            repeated.add(p)
            return None
        return count_cubic_roots_brute(b, c, d, p)

    monkeypatch.setattr("quadtwist.localred.count_cubic_roots", brute)
    slow = strip_timing(sweep_report(corpus, 60, "all", corpus_name="x"))
    assert fast == slow
    assert fast["summary"]["failures"] == 0
    assert 53 in primes
    assert repeated


def test_sweep_does_no_fraction_arithmetic(monkeypatch):
    # twist quantities and product checks are decided on ints, each
    # quantity's string is formatted from ints, and twist_minimal measures
    # u as an int; ingest and a sweep must not multiply or divide a
    # Fraction, nor build one
    expected = strip_timing(sweep_report(three_curves(), 60, "all", corpus_name="x"))

    def refuse(*args):
        raise AssertionError("Fraction arithmetic in a sweep")

    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    for name in ("__mul__", "__rmul__", "__truediv__", "__rtruediv__"):
        monkeypatch.setattr(Fraction, name, refuse)
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    try:
        got = strip_timing(sweep_report(three_curves(), 60, "all", corpus_name="x"))
    finally:
        monkeypatch.undo()
    assert got == expected
    assert built == []


def test_encoder_writes_coverage_records_byte_for_byte(tmp_path, monkeypatch):
    # a record is its JSON line, formatted without the JSON encoder: every
    # line of the coverage sweep in each mode, of the shipped sweep and of
    # a label that needs escaping must be the text json.dumps(record,
    # sort_keys=True) writes, so the report file is unchanged byte for
    # byte; and the summary's check counts, which come from the record
    # kinds, must count the checks the lines hold
    coverage = os.path.join(os.path.dirname(__file__), "data", "coverage.csv")
    label = 'q"uo\\t\u00e9'  # a quote, a backslash and a non-ASCII letter
    odd = write(tmp_path, f"{label},0,-1,1,-10,-20,11,0\n15a1,1,1,1,-10,-10,15,0\n")
    runs = [(coverage, mode) for mode in MODES]
    runs += [(default_corpus_path(), "all"), (odd, "all")]

    def refuse(self, *args, **kwargs):
        raise RuntimeError("a record went through the JSON encoder")

    sweeps = {}
    with monkeypatch.context() as patched:
        patched.setattr(json.JSONEncoder, "encode", refuse)
        patched.setattr(json.JSONEncoder, "iterencode", refuse)
        for path, mode in runs:
            sweep = SweepReport(ingest_corpus(path), 500, mode)
            sweeps[path, mode] = sweep, list(sweep)
    counts = [len(sweeps[coverage, mode][1]) for mode in MODES]
    assert counts == [1077, 953, 2030, 2030]
    assert len(sweeps[default_corpus_path(), "all"][1]) == 7572
    for run, (sweep, lines) in sweeps.items():
        records = [json.loads(line) for line in lines]
        for line, rec in zip(lines, records):
            assert line == json.dumps(rec, sort_keys=True), (run, line)
        held = Counter(name for rec in records for name in rec["checks"])
        assert sweep.check_counts == held, run
        assert (sweep.instances, sweep.checks_run) == (len(lines), held.total()), run
    odd_lines = sweeps[odd, "all"][1]
    labels = [json.loads(line)["curve"] for line in odd_lines]
    assert set(labels) == {label, "15a1"}
    escaped = '"q\\"uo\\\\t\\u00e9"'
    assert sum(f'"curve": {escaped},' in line for line in odd_lines) == labels.count(label) > 0


def test_sweep_report_rejects_bad_mode(tmp_path):
    path = write(tmp_path, "11a1,0,-1,1,-10,-20,11,0\n")
    with pytest.raises(ValueError):
        SweepReport(ingest_corpus(path), 10, "everything")


def test_verify_refuses_dmax_above_the_bound(tmp_path, one_second_deadline, capsys):
    # the sweep would list every fundamental discriminant up to d_max, and
    # none above the bound can be parsed: refused before any sweep or --out
    path = write(tmp_path, "11a1,0,-1,1,-10,-20,11,0\n")
    with pytest.raises(ValueError, match="exceeds the discriminant bound"):
        SweepReport(ingest_corpus(path), DISCRIMINANT_BOUND + 1)
    SweepReport(ingest_corpus(path), DISCRIMINANT_BOUND)  # the bound itself is allowed
    out = tmp_path / "report.json"
    args = ["verify", "--corpus", path, "--dmax", str(DISCRIMINANT_BOUND + 1), "--out", str(out)]
    assert main(args) == 2
    assert "exceeds the discriminant bound" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.csv"]


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
    def broken(mm, D):
        raise ValueError("simulated u failure")

    monkeypatch.setattr("quadtwist.twistlaws.u_of_discriminant", broken)
    corpus = write(tmp_path, "11a1,0,-1,1,-10,-20,11,0\n")
    assert main(["verify", "--corpus", corpus, "--dmax", "5"]) == 3
    err = capsys.readouterr().err
    assert "internal error: SweepError: curve 11a1: ValueError: simulated u failure" in err


def test_cli_jobs_error_keeps_the_previous_report(tmp_path, monkeypatch, capsys):
    # the same fault inside --jobs workers (a fork pool, so each worker
    # inherits the patch): exit 3 naming the first curve, the previous
    # --out report in place, no temporary file left and no worker alive
    def broken(mm, D):
        raise ValueError("simulated u failure")

    monkeypatch.setattr("quadtwist.twistlaws.u_of_discriminant", broken)
    corpus = write(tmp_path, "11a1,0,-1,1,-10,-20,11,0\n15a1,1,1,1,-10,-10,15,0\n")
    out = tmp_path / "report.json"
    out.write_text("previous report\n", encoding="utf-8")
    args = ["verify", "--corpus", corpus, "--dmax", "5", "--jobs", "2", "--out", str(out)]
    assert main(args) == 3
    assert "internal error: SweepError: curve 11a1" in capsys.readouterr().err
    assert out.read_text(encoding="utf-8") == "previous report\n"
    assert list(tmp_path.glob("*.tmp")) == []
    assert multiprocessing.active_children() == []


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
def test_cli_report_file_matches_sweep_report(tmp_path, jobs):
    corpus = write(tmp_path, "15a1,1,1,1,-10,-10,15,0\n11a1,0,-1,1,-10,-20,11,0\n")
    out = tmp_path / "report.json"
    args = ["verify", "--corpus", corpus, "--dmax", "30", "--out", str(out)]
    assert main([*args, "--jobs", str(jobs)]) == 0
    text = out.read_text(encoding="utf-8")
    streamed = json.loads(text)
    collected = sweep_report(ingest_corpus(corpus), 30, "all", jobs=jobs, corpus_name=corpus)
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
            for line in super().__iter__():
                if json.loads(line)["curve"] != "11a1":
                    raise RuntimeError("sweep died")
                yield line

    corpus = write(tmp_path, "11a1,0,-1,1,-10,-20,11,0\n15a1,1,1,1,-10,-10,15,0\n")
    out = tmp_path / "report.json"
    out.write_bytes(b"previous report\n")
    monkeypatch.setattr("quadtwist.cli.SweepReport", DiesAfterFirstCurve)
    assert main(["verify", "--corpus", corpus, "--dmax", "20", "--out", str(out)]) == 3
    assert "internal error: RuntimeError: sweep died" in capsys.readouterr().err
    assert out.read_bytes() == b"previous report\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.csv", "report.json"]


def test_cli_verify_out_in_missing_directory(tmp_path, capsys):
    # the error names the path given, not the temporary file beside it,
    # and no file is left behind
    out = tmp_path / "nodir" / "x.json"
    assert main(["verify", "--dmax", "5", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"
    assert list(tmp_path.iterdir()) == []


def test_cli_verify_out_is_a_directory(tmp_path, capsys):
    # the rename onto a directory fails after the sweep: the error names
    # the directory, not the temporary file, which is removed
    out = tmp_path / "dir"
    out.mkdir()
    assert main(["verify", "--dmax", "5", "--out", str(out)]) == 2
    err = capsys.readouterr().err  # the sweep's progress lines, then the error
    assert err.endswith(f"\nerror: [Errno 21] Is a directory: '{out}'\n")
    assert [p.name for p in tmp_path.iterdir()] == ["dir"]
    assert list(out.iterdir()) == []


def test_cli_verify_under_python_optimize(tmp_path):
    # python -O strips asserts, Tate's internal ones included; the
    # acceptance report, a sweep with pairs past the default cap and the
    # coverage sweep must not depend on them
    src = os.path.dirname(os.path.dirname(quadtwist.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    three = write(
        tmp_path,
        "11a1,0,-1,1,-10,-20,11,0\n15a1,1,1,1,-10,-10,15,0\n37a1,0,0,1,-1,0,37,1\n",
    )
    # the coverage corpus reaches Tate's additive branches at 2 and 3
    coverage = os.path.join(os.path.dirname(__file__), "data", "coverage.csv")
    for corpus, pair_dmax in ((default_corpus_path(), 100), (three, 200), (coverage, 100)):
        out = tmp_path / "report.json"
        subprocess.run(
            [sys.executable, "-O", "-m", "quadtwist.cli", "verify", "--corpus", corpus,
             "--dmax", "500", "--pair-dmax", str(pair_dmax), "--out", str(out)],
            env={**os.environ, "PYTHONPATH": path}, check=True, capture_output=True,
            timeout=120,
        )
        collected = sweep_report(
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
    collected = sweep_report(ingest_corpus(corpus), 30, "all", corpus_name=corpus, pair_dmax=13)
    assert strip_timing(report) == strip_timing(collected)
    assert main([*args, "--pair-dmax", "1000"]) == 0  # the report records min(--dmax, N)
    assert json.loads(out.read_text(encoding="utf-8"))["pair_dmax"] == 30
    capsys.readouterr()
    for flag in ("--pair-dmax", "--dmax", "--jobs"):
        for bad in ("0", "-5", "x"):
            assert main([*args, flag, bad]) == 2, (flag, bad)
            assert flag in capsys.readouterr().err


def test_cli_verify_without_out_encodes_nothing(tmp_path, monkeypatch, capsys):
    def refuse(self, *args, **kwargs):
        raise RuntimeError("JSON encoded without --out")

    monkeypatch.setattr(json.JSONEncoder, "encode", refuse)
    monkeypatch.setattr(json.JSONEncoder, "iterencode", refuse)
    corpus = write(tmp_path, "11a1,0,-1,1,-10,-20,11,0\n")
    assert main(["verify", "--corpus", corpus, "--dmax", "30"]) == 0
    assert capsys.readouterr().out == "46 instances, 280 checks, 0 failures\n"


def test_cli_verify_rejects_a_corpus_with_no_curves(tmp_path, capsys):
    # a sweep over no curve would pass on zero instances: the corpus is
    # refused as input, whatever --jobs is, before --out is opened
    corpus = write(tmp_path, "# nothing here\n\n")
    out = tmp_path / "report.json"
    for jobs in ("1", "2"):
        assert main(["verify", "--corpus", corpus, "--jobs", jobs, "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {corpus}: no curves\n")
    assert [p.name for p in tmp_path.iterdir()] == ["c.csv"]


def test_cli_verify_refuses_a_sweep_with_no_instance(tmp_path, capsys):
    # thm31 at --dmax 1 has no pair D1 < D2 <= 1: a sweep that ran no
    # instance would pass on nothing, so it exits 2, keeps the previous
    # report at --out and leaves no temporary file
    corpus = write(tmp_path, "11a1,0,-1,1,-10,-20,11,0\n14a1,1,0,1,4,-6,14,0\n")
    out = tmp_path / "report.json"
    out.write_text("previous report\n")
    for jobs in ("1", "2"):
        argv = ["verify", "--corpus", corpus, "--mode", "thm31", "--dmax", "1", "--jobs", jobs]
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.endswith("error: no instance to verify\n")
        assert main(argv) == 2
        assert capsys.readouterr().out == ""
    assert out.read_text() == "previous report\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.csv", "report.json"]


def test_cli_verify_flags_a_measured_u_outside_one_two(tmp_path, monkeypatch, capsys):
    # a twist_minimal that measures u = 4 at D = 5 fails u_closed_form and
    # flags the record: the record's line, its failure witness and the
    # summary's flag are the ones the report has always written
    real = quadtwist.twistlaws.twist_minimal

    def four_at_five(mm, d):
        tw = real(mm, d)
        return tw._replace(u_value=4) if d.value == 5 else tw

    monkeypatch.setattr("quadtwist.twistlaws.twist_minimal", four_at_five)
    corpus = write(tmp_path, "11a1,0,-1,1,-10,-20,11,0\n")
    out = tmp_path / "report.json"
    assert main(["verify", "--corpus", corpus, "--dmax", "13", "--out", str(out)]) == 1
    text = out.read_text(encoding="utf-8")
    (line,) = [ln.rstrip(",") for ln in text.splitlines() if ln.startswith("{") and '"d": 5,' in ln]
    flag = "measured u = 4 outside {1,2}"
    assert line == (
        '{"checks": {"odd_twist_fast_path": true, "quantity_even_exponent": true, '
        '"quantity_power_of_two": true, "symbol_closed_form": true, '
        '"tamagawa_product_symbol": true, "u_closed_form": false}, "curve": "11a1", '
        f'"d": 5, "flags": ["{flag}"], "n_minus": 1, "n_plus": 11, "quantity": '
        '{"components": {"D": 5, "c_tilde": {}, "omega_n_minus": 0, '
        '"twist_tamagawa": {"5": 1}, "u": 1}, "exponent": 0, "is_even_exponent": true, '
        '"is_power_of_two": true, "quantity": "1"}, "u": 1}'
    )
    assert list(json.loads(line)) == [
        "checks", "curve", "d", "flags", "n_minus", "n_plus", "quantity", "u"
    ]
    report = json.loads(text)
    assert report["failures"] == [{"curve": "11a1", "d": 5, "failed_checks": ["u_closed_form"]}]
    assert report["summary"]["flags"] == [{"curve": "11a1", "d": 5, "flag": flag}]
    assert (report["summary"]["instances"], report["summary"]["failures"]) == (14, 1)
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "14 instances, 86 checks, 1 failures",
        'FAIL: {"curve": "11a1", "d": 5, "failed_checks": ["u_closed_form"]}',
    ]


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


def _swap_2_4(c: int) -> int:
    return {2: 4, 4: 2}.get(c, c)


# Each row corrupts one input on the independent side of a comparison,
# where the sweep reads it: (owner, name, corruption of the real value,
# the checks that fail).  Together the rows fail every check name but
# omega_parity and c_tilde_product, which no corruption reaches, c~
# itself included (inert_tamagawa x 2 makes every c~ 2).
NEGATIVE_CONTROLS = {
    "clean": (None, None, None, set()),
    "u_times_2": (
        quadtwist.twistlaws, "u_of_discriminant", lambda real: lambda mm, D: 2 * real(mm, D),
        {"quantity_even_exponent", "u_closed_form"},  # a pair's two shares absorb the 4
    ),
    "u_times_3": (
        quadtwist.twistlaws, "u_of_discriminant", lambda real: lambda mm, D: 3 * real(mm, D),
        {"quantity_even_exponent", "quantity_power_of_two", "u_closed_form"},
    ),
    "symbol_negated": (
        quadtwist.harness, "symbol_closed_form", lambda real: lambda *args: -real(*args),
        {"symbol_closed_form"},
    ),
    "symbol_check_given_minus_symbol": (
        quadtwist.harness, "tamagawa_symbol_check",
        lambda real: lambda row, symbol: real(row, -symbol),
        {"tamagawa_product_symbol"},
    ),
    "odd_tamagawa_2_4_swapped": (
        quadtwist.harness, "twist_prime_tamagawa_odd",
        lambda real: lambda mm, l: _swap_2_4(real(mm, l)),
        {"odd_twist_fast_path"},
    ),
    "case_table_c2_2_4_swapped": (
        quadtwist.twistlaws, "_two_adic_prediction",
        lambda real: lambda mm, D: (p := real(mm, D))._replace(tamagawa=_swap_2_4(p.tamagawa)),
        {"two_adic_case_table"},
    ),
    "inert_times_9": (
        LocalReduction, "inert_tamagawa", lambda real: property(lambda loc: 9 * real.fget(loc)),
        {"tamagawa_transfer_per_prime"},  # 9 is a square: the product check passes
    ),
    "inert_times_2": (
        LocalReduction, "inert_tamagawa", lambda real: property(lambda loc: 2 * real.fget(loc)),
        {"quantity_even_exponent", "tamagawa_transfer_per_prime", "tamagawa_transfer_product"},
    ),
}


@pytest.mark.parametrize("row", NEGATIVE_CONTROLS)
def test_negative_control_matrix(row, monkeypatch):
    owner, name, corrupt, failing = NEGATIVE_CONTROLS[row]
    if owner is not None:
        monkeypatch.setattr(owner, name, corrupt(getattr(owner, name)))
    # ingested under the patch: a curve's n_minus table fills from c~
    corpus = ingest_corpus(default_corpus_path())
    report = sweep_report(corpus, 40, corpus_name="x")
    failed = {c for f in report["failures"] for c in f["failed_checks"]}
    assert failed == failing
    # every check the sweep runs fails in some row, but the two no row
    # reaches; they run, and never fail
    reached = set().union(*(checks for *_, checks in NEGATIVE_CONTROLS.values()))
    assert set(report["summary"]["check_counts"]) == reached | {"omega_parity", "c_tilde_product"}
    assert not failed & {"omega_parity", "c_tilde_product"}


def test_package_exports_resolve():
    names = quadtwist.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(quadtwist, name)]
    assert missing == []
    # entry points that only wrapped a field, a property or the case table,
    # the dict-building second report path, its timing filter, the
    # discriminant predicate, the 2-adic normal form (the case table reads
    # c6, the discriminant and D), the int-parsing shim, the literal
    # copies of the residue scan's profile (the case table and
    # enumerate-case3 read the Hilbert symbol), the per-record shims, the
    # sign-vector admissibility and row builder that twistlaws.twist_rows
    # replaced, and the sign-pattern search that n_minus_mask replaced are
    # gone from the package and its modules
    gone = (
        "c_tilde", "inert_base_change_tamagawa", "predict_two_adic", "inert_valuation_sum",
        "run_sweep", "strip_timing", "is_fundamental_discriminant",
        "rst_transform", "two_strongly_minimal", "pattern_of_normal_form", "_as_fund",
        "CheckResult", "EXPECTED_TAMAGAWA2_PROFILE", "run_single_instance", "run_pair_instance",
        "admissible_signs", "twist_row", "search_discriminant", "EXPECTED_KEY_RANGE",
        "EXPECTED_TAMAGAWA4_PROFILE",
    )
    modules = (
        quadtwist.arith, quadtwist.curves, quadtwist.harness, quadtwist.localred,
        quadtwist.profile_scan, quadtwist.twistlaws,
    )
    for name in gone:
        assert name not in names and not hasattr(quadtwist, name)
        assert not any(hasattr(module, name) for module in modules), name
    assert not hasattr(quadtwist.ProfileScanResult, "matches_expected")
    assert "source" not in quadtwist.harness.CurveRecord._fields


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


# The CLI examples README.md documents: each command, its output and its
# exit code.  The README shows an output as "# " comments, on the
# command's line or on the lines after it.
README_CLI_EXAMPLES = (
    ("tate --curve 0,-1,1,-10,-20 --prime 11", "I5 c=5 v=5 split", 0),
    (
        "twist --curve 0,-1,1,-10,-20 --d 8",
        "twist: 0,-32,8,-10240,-647184\nminimal: 0,1,0,-41,-199 u=4",
        0,
    ),
    ("minimal --curve 0,0,0,0,46656", "0,0,0,0,1 u=6", 0),
    ("u-of-d --curve 0,-1,1,-10,-20 --d 8", "u=2 (measured 2)", 0),
    ("u-of-d --curve 0,-1,1,-10,-20 --d 44", "error: gcd(D, N) = 11 != 1", 2),
    ("find-aux --curve 0,-1,1,-10,-20 --d1 1 --d2 13 --prime 11", "8", 0),
    (
        "find-aux --curve 0,-1,1,-10,-20 --d1 5 --prime 11 --bound 3",
        "error: no discriminant matching {11: -1} up to 3",
        2,
    ),
)


def test_readme_cli_examples_match_the_cli(capsys):
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for command, output, code in README_CLI_EXAMPLES:
        at = [i for i, ln in enumerate(lines) if ln.split("#")[0].strip() == f"quadtwist {command}"]
        (i,) = at
        shown = output.splitlines()
        documented = "\n".join(lines[i : i + 1 + len(shown)])
        for line in shown:
            assert f"# {line}" in documented, (command, line)
        if code:
            assert f"(exit {code})" in documented, command
        assert main(command.split()) == code, command
        captured = capsys.readouterr()
        assert (captured.err if code else captured.out) == output + "\n", command


def test_cli_find_aux(capsys):
    rc = main(
        ["find-aux", "--curve", "0,-1,1,-10,-20", "--d1", "1", "--d2", "13",
         "--prime", "11"]
    )
    assert rc == 0
    assert capsys.readouterr().out.strip() == "8"
    # a --prime that is not a prime of N is a usage error, not a KeyError
    for curve, d1, prime, n in (
        ("1,0,1,4,-6", "17", "14", 14),  # 14 | N = 14, but 14 is not a prime
        ("1,0,1,4,-6", "17", "1", 14),
        ("0,-1,1,-10,-20", "13", "5", 11),
    ):
        args = ["find-aux", "--curve", curve, "--d1", d1, "--prime", prime]
        assert main(args) == 2, prime
        err = capsys.readouterr().err
        assert err == f"error: {prime} is not a prime of the conductor N = {n}\n"


def test_cli_u_of_d(capsys):
    assert main(["u-of-d", "--curve", "0,-1,1,-10,-20", "--d", "8"]) == 0
    assert capsys.readouterr().out == "u=2 (measured 2)\n"


def test_cli_u_of_d_needs_d_coprime_to_n(capsys):
    # the closed form assumes gcd(D, N) = 1: y^2 = x^3 + 6^6 (N = 36)
    # at D = 12 has closed form 1 and measured 2
    for curve, d, g in (("0,0,0,0,46656", "12", 12), ("0,-1,1,-10,-20", "44", 11)):
        assert main(["u-of-d", "--curve", curve, "--d", d]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: gcd(D, N) = {g} != 1\n")
    assert main(["u-of-d", "--curve", "0,-1,1,-10,-20", "--d", "13"]) == 0
    assert capsys.readouterr().out == "u=1 (measured 1)\n"


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


FUZZ_CURVES = [(0, -1, 1, -10, -20), (1, 0, 1, 4, -6), (1, 1, 1, -10, -10), (0, 0, 1, -1, 0)]
FUZZ_GARBAGE = ["", "x", "1/2", "0.5", "1e3", " 7 ", "+5", "-0", "1_000", "0x10", "٣", "nan"]


def fuzz_corpus_line(rng) -> str:
    """One random corpus line meant to break ingest or the sweep: a known
    curve blown up by u (far from minimal, so the reduction rescales), or
    random coefficients from 1 to 10^15 in size (rho may spend its
    budget); an odd label, no conductor or a stated one, a rank and a
    surplus field; and sometimes a field replaced by a token int() may or
    may not take."""
    if rng.randrange(4) == 0:
        u = rng.choice((1, 2, 3, 4, 6, 12))
        ai = [a * u**i for a, i in zip(rng.choice(FUZZ_CURVES), (1, 2, 3, 4, 6))]
    else:
        scale = rng.choice((1, 3, 30, 300, 10**4, 10**8, 10**15))
        ai = [rng.randint(-scale, scale) if rng.random() < 0.8 else 0 for _ in range(5)]
    fields = [rng.choice(("c", "", 'q"u\\o', "é", "a,b")), *map(str, ai)]
    extra = rng.randrange(4)
    if extra >= 1:
        fields.append(str(rng.choice((1, 11, 37, rng.randint(-5, 10**6)))))
    if extra >= 2:
        fields.append(str(rng.choice((0, 1, -1))))
    if extra == 3:
        fields.append("1")
    if rng.random() < 0.25:
        fields[rng.randrange(len(fields))] = rng.choice(FUZZ_GARBAGE)
    return ",".join(fields)


def test_cli_verify_survives_fuzzed_corpus_lines(tmp_path, deadline, capsys):
    # seeded random lines, each its own corpus: a sweep passes (0), fails
    # a check (1) or refuses its input (2), and never errs inside (3).
    # Each line gets 5 s, above rho's worst case (about 1.5 s) on a
    # discriminant it cannot split
    rng = random.Random(1)
    codes = Counter()
    for _ in range(80):
        line = fuzz_corpus_line(rng)
        corpus = write(tmp_path, line + "\n")
        with deadline(5.0):
            code = main(["verify", "--corpus", corpus, "--dmax", "40"])
        assert code in (0, 1, 2), (line, capsys.readouterr().err)
        codes[code] += 1
    capsys.readouterr()
    assert codes[0] and codes[2], codes
