"""Corpus ingestion, sweep orchestration, report determinism and the CLI."""

import json

import pytest

from quadtwist.cli import main
from quadtwist.curves import minimal_model, model
from quadtwist.harness import (
    CorpusError,
    default_corpus_path,
    ingest_corpus,
    run_sweep,
    strip_timing,
    valid_single_setups,
)

from oracles import hostile_semiprime


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
    got = {d: (s.n_plus, s.n_minus) for d, s in valid_single_setups(E, 20)}
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
    assert main(["tate", "--curve", "0,-1,1,-10,-20", "--prime", "12"]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["verify", "--corpus", "/no/such/file.csv"]) == 2


def test_cli_internal_error_exit_code(tmp_path, monkeypatch, capsys):
    def crash(*args, **kwargs):
        raise RuntimeError("simulated crash")

    monkeypatch.setattr("quadtwist.cli.run_sweep", crash)
    corpus = write(tmp_path, "11a1,0,-1,1,-10,-20,11,0\n")
    assert main(["verify", "--corpus", corpus, "--dmax", "5"]) == 3
    assert "internal error: RuntimeError: simulated crash" in capsys.readouterr().err


def test_cli_ingest_internal_error_exit_code(tmp_path, monkeypatch, capsys):
    # only a singular model is a corpus (usage) error; anything else that
    # goes wrong while ingesting is internal
    def crash(*args, **kwargs):
        raise RuntimeError("simulated invariants failure")

    monkeypatch.setattr("quadtwist.harness.invariants", crash)
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
    rc = main(
        ["find-aux", "--curve", "0,-1,1,-10,-20", "--d1", "13", "--prime", "11",
         "--nplus", "1", "--nminus", str(hostile_semiprime())]
    )
    assert rc == 2
    assert "!= N = 11" in capsys.readouterr().err
