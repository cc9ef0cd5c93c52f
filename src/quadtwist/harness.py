"""Batch verification harness: corpus ingestion, sweep orchestration over
(curve, discriminant) instances, and machine-readable reporting.

A sweep streams: ``SweepReport`` yields one curve's instance records at a
time, in report order, and folds each into the summary (instance and
check counts, per-check exercise counts, failures, flags) as it passes,
printing one progress line per curve on stderr. ``write_report`` writes
each record to a file as it arrives, one instance per line, so the
report's memory does not grow with the instance count; ``run_sweep``
collects the same records into one dict.

Each curve's facts are computed once per curve, not per instance: its
conductor and local data, and each discriminant's character signs at
the primes of N (the sign table), from which every admissible single
and pair setup is built (validate_setup builds the same setups for user
input; the tests hold both to a clause-by-clause reference). An
exception inside a curve's sweep is raised as a SweepError naming the
curve. With jobs > 1 the curves fan out over at most one worker process
per curve.

Reports are deterministic: instances are enumerated in sorted order and
all wall-clock measurements live under "timing" keys, so two runs over
the same inputs differ at most in those subtrees.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from importlib import resources
from typing import Iterable, Iterator, NamedTuple, Sequence, TextIO

from .arith import FactorizationError, FundamentalDiscriminant, fundamental_discriminants, kronecker
from .curves import SingularModelError, WeierstrassModel, minimal_model, model
from .localred import LocalReduction, reduction_profile, tate_local, twist_prime_tamagawa_odd
from .twistlaws import (
    TwistSetup,
    admissible_signs,
    check_two_adic_case,
    tamagawa_transfer_check,
    tamagawa_transfer_product_check,
    measured_u,
    symbol_closed_form,
    inert_valuation_sum,
    tamagawa_symbol_check,
    twist_quantity,
    pair_twist_quantity,
    setup_from_signs,
    twist_minimal,
    u_of_discriminant,
)

MODES = ("thm13", "thm31", "lemmas", "all")
# Pair instances stop at this discriminant whatever d_max is: their count
# grows quadratically and the identities they exercise are
# discriminant-local.
PAIR_DMAX = 100


class CurveRecord(NamedTuple):
    label: str
    a_invariants: tuple[int, int, int, int, int]
    conductor: int | None
    analytic_rank: int | None
    source: str

    @property
    def curve(self) -> WeierstrassModel:
        return model(*self.a_invariants)


class CorpusError(ValueError):
    pass


class SweepError(RuntimeError):
    """An exception escaped one curve's sweep.  It names the curve, and
    it is not a ValueError: the input was accepted, so the fault is the
    program's, not the user's."""


def default_corpus_path() -> str:
    return str(resources.files("quadtwist").joinpath("data/curves.csv"))


def ingest_corpus(path: str) -> list[CurveRecord]:
    """Parse and validate a curve corpus CSV.

    Line format: label,a1,a2,a3,a4,a6[,conductor[,analytic_rank]].
    Comment lines start with '#'.  Every record is checked nonsingular
    and its discriminant factorable (minimal_model, so no line can hang
    the sweep), duplicate labels are rejected, and a stated conductor must
    match the recomputed one exactly.
    """
    records: list[CurveRecord] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if not 6 <= len(parts) <= 8:
                raise CorpusError(f"{path}:{lineno}: expected 6-8 fields, got {len(parts)}")
            label = parts[0]
            if not label:
                raise CorpusError(f"{path}:{lineno}: empty label")
            if label in seen:
                raise CorpusError(f"{path}:{lineno}: duplicate label {label!r}")
            try:
                ai = tuple(int(p) for p in parts[1:6])
            except ValueError as exc:
                raise CorpusError(f"{path}:{lineno}: bad coefficient: {exc}") from None
            stated_n = int(parts[6]) if len(parts) >= 7 and parts[6] else None
            rank = int(parts[7]) if len(parts) == 8 and parts[7] else None
            if rank is not None and rank < 0:
                raise CorpusError(f"{path}:{lineno}: negative analytic rank")
            E = model(*ai)
            try:
                minimal_model(E)
            except (SingularModelError, FactorizationError) as exc:
                raise CorpusError(f"{path}:{lineno}: {exc}") from None
            if stated_n is not None:
                N, _ = reduction_profile(E)
                if N != stated_n:
                    raise CorpusError(
                        f"{path}:{lineno}: stated conductor {stated_n} != computed {N}"
                    )
            seen.add(label)
            records.append(CurveRecord(label, ai, stated_n, rank, f"{path}:{lineno}"))
    return records


# ---------------------------------------------------------------------------
# instance enumeration


def _sign_table(
    E: WeierstrassModel, discriminants: Iterable[FundamentalDiscriminant]
) -> tuple[int, dict[int, LocalReduction], list]:
    """E's conductor and local data, and (f, signs) for each parsed
    discriminant admissible for E's canonical split, in input order (the
    signs are admissible_signs').  A model that is not globally minimal
    admits none: the twist hypothesis is stated on the minimal model."""
    N, local_data = reduction_profile(E)
    if minimal_model(E).minimal != E:
        return N, local_data, []
    rows = []
    for f in discriminants:
        signs = admissible_signs(local_data, f)
        if signs is not None:
            rows.append((f, signs))
    return N, local_data, rows


def valid_single_setups(
    E: WeierstrassModel, discriminants: Iterable[FundamentalDiscriminant]
) -> Iterable[tuple[int, TwistSetup]]:
    """(D, setup) for every D in the parsed discriminants (ascending)
    admissible for the canonical split/inert factorization of E, each
    setup built from the sign table, as validate_setup builds it."""
    N, local_data, rows = _sign_table(E, discriminants)
    for f, signs in rows:
        yield f.value, setup_from_signs(E, N, local_data, (f,), (signs,))


def valid_pair_setups(
    E: WeierstrassModel, discriminants: Sequence[FundamentalDiscriminant]
) -> Iterable[tuple[tuple[int, int], TwistSetup]]:
    """Unordered coprime admissible pairs (D1 < D2) from the parsed
    discriminants (strictly ascending, so the pair (1, 1) of two trivial
    characters never arises).  A coprime pair is admissible exactly when
    both its discriminants are, so only the admissible singles are
    joined."""
    N, local_data, rows = _sign_table(E, discriminants)
    for i, (f1, s1) in enumerate(rows):
        for f2, s2 in rows[i + 1 :]:
            if math.gcd(f1.value, f2.value) != 1:
                continue
            yield (f1.value, f2.value), setup_from_signs(E, N, local_data, (f1, f2), (s1, s2))


# ---------------------------------------------------------------------------
# per-instance check evaluation


def _verdict_json(v) -> dict:
    comp = {}
    for key, val in v.components.items():
        if isinstance(val, dict):
            comp[key] = {str(k): w for k, w in sorted(val.items())} if val else {}
        else:
            comp[key] = val
    return {
        "quantity": str(v.quantity),
        "exponent": v.exponent,
        "is_power_of_two": v.is_power_of_two,
        "is_even_exponent": v.is_even_exponent,
        "components": comp,
    }


def run_single_instance(label: str, setup: TwistSetup, mode: str) -> dict:
    """Evaluate one (curve, D) instance; returns a JSON-ready record."""
    E = setup.curve
    D = setup.discriminants[0]
    t0 = time.perf_counter()
    checks: dict[str, bool] = {}
    flags: list[str] = []
    rec: dict = {
        "curve": label,
        "d": D.value,
        "n_plus": setup.n_plus,
        "n_minus": setup.n_minus,
    }
    if mode in ("thm13", "all"):
        v = twist_quantity(setup)
        rec["quantity"] = _verdict_json(v)
        checks["quantity_power_of_two"] = v.is_power_of_two
        checks["quantity_even_exponent"] = v.is_even_exponent
    if mode in ("lemmas", "all"):
        disc = minimal_model(E).invariants.disc
        b = inert_valuation_sum(setup)
        sym = symbol_closed_form(disc, D, b)
        checks["symbol_closed_form"] = sym == kronecker(disc, D.odd_part)
        checks["tamagawa_product_symbol"] = bool(tamagawa_symbol_check(E, D))
        u_closed = u_of_discriminant(E, D)
        u_meas = measured_u(E, D)
        checks["u_closed_form"] = u_meas == u_closed
        if u_meas not in (1, 2):
            flags.append(f"measured u = {u_meas} outside {{1,2}}")
        rec["u"] = u_closed
        # odd-prime fast path vs full Tate on the twist
        fast_ok = True
        Tmin = twist_minimal(E, D.value)[0]
        for l in D.primes:
            if l != 2:
                fast_ok &= (
                    twist_prime_tamagawa_odd(E, l, D.value)
                    == tate_local(Tmin, l).tamagawa
                )
        checks["odd_twist_fast_path"] = fast_ok
        if D.is_even:
            case = check_two_adic_case(E, D)
            checks["two_adic_case_table"] = case.ok
            rec["two_adic_case"] = case.detail
    rec["checks"] = checks
    if flags:
        rec["flags"] = flags
    rec["timing"] = {"seconds": round(time.perf_counter() - t0, 6)}
    return rec


def run_pair_instance(label: str, setup: TwistSetup, mode: str) -> dict:
    t0 = time.perf_counter()
    d1, d2 = (f.value for f in setup.discriminants)
    checks: dict[str, bool] = {}
    rec: dict = {
        "curve": label,
        "d1": d1,
        "d2": d2,
        "n_plus": setup.n_plus,
        "n_minus": setup.n_minus,
    }
    if mode in ("thm31", "all"):
        v = pair_twist_quantity(setup)
        rec["quantity"] = _verdict_json(v)
        checks["quantity_power_of_two"] = v.is_power_of_two
        checks["quantity_even_exponent"] = v.is_even_exponent
        book = v.components["bookkeeping"]
        checks["omega_parity"] = book["omega_parity"]
        checks["c_tilde_product"] = book["c_tilde_product"]
    if mode in ("lemmas", "all"):
        transfer_ok = True
        for q in setup.minus_primes:
            transfer_ok &= bool(tamagawa_transfer_check(setup, q))
        checks["tamagawa_transfer_per_prime"] = transfer_ok
        checks["tamagawa_transfer_product"] = bool(tamagawa_transfer_product_check(setup))
    rec["checks"] = checks
    rec["timing"] = {"seconds": round(time.perf_counter() - t0, 6)}
    return rec


def _sweep_curve(args) -> tuple[str, list[dict], float]:
    """One curve's instance records in report order (pairs, then
    singles, each in the ascending order its generator yields), and the
    seconds they took."""
    record, singles, pairs, mode = args
    t0 = time.perf_counter()
    out = []
    try:
        E = minimal_model(record.curve).minimal
        if mode in ("thm31", "lemmas", "all"):
            for _pair, setup in valid_pair_setups(E, pairs):
                out.append(run_pair_instance(record.label, setup, mode))
        if mode in ("thm13", "lemmas", "all"):
            for _d, setup in valid_single_setups(E, singles):
                out.append(run_single_instance(record.label, setup, mode))
    except Exception as exc:
        raise SweepError(f"curve {record.label}: {type(exc).__name__}: {exc}") from exc
    return record.label, out, time.perf_counter() - t0


class SweepReport:
    """One verification sweep, consumed one instance record at a time.

    Iterating runs the sweep and yields every instance record in report
    order (curves by label, then pairs before singles, each ascending),
    one curve's chunk at a time. Each record is folded into the summary
    as it passes, and one progress line per curve goes to stderr.
    ``head`` holds the parameters of the run; ``tail()``, read after the
    iteration, holds the summary, the failures and the timing. Pair
    instances are capped at discriminant PAIR_DMAX regardless of d_max.
    """

    def __init__(
        self,
        corpus: list[CurveRecord],
        d_max: int,
        mode: str = "all",
        jobs: int = 1,
        corpus_name: str = "-",
    ):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        self.corpus = sorted(corpus, key=lambda r: r.label)
        self.jobs = jobs
        self.head = {
            "schema": 1,
            "mode": mode,
            "d_max": d_max,
            "pair_dmax": min(d_max, PAIR_DMAX),
            "corpus": corpus_name,
            "curves": [rec.label for rec in self.corpus],
        }
        self.instances = 0
        self.checks_run = 0
        self.check_counts: Counter[str] = Counter()
        self.failures: list[dict] = []
        self.flags: list[dict] = []
        self.wall_seconds: float | None = None

    def __iter__(self) -> Iterator[dict]:
        t0 = time.perf_counter()
        # every curve sweeps the same discriminants: parse them once
        singles = list(fundamental_discriminants(self.head["d_max"]))
        pairs = [f for f in singles if f.value <= self.head["pair_dmax"]]
        tasks = [(rec, singles, pairs, self.head["mode"]) for rec in self.corpus]
        # a pool forks all its workers at the first submit: no more than
        # there are curves
        workers = min(self.jobs, len(tasks))
        if workers > 1:
            pool = ProcessPoolExecutor(max_workers=workers)
            try:
                futures = [pool.submit(_sweep_curve, task) for task in tasks]
                # results are read in task order, so chunks arrive in label order
                yield from self._fold(f.result() for f in futures)
            finally:
                pool.shutdown(cancel_futures=True)
        else:
            yield from self._fold(map(_sweep_curve, tasks))
        self.wall_seconds = round(time.perf_counter() - t0, 3)

    def _fold(self, chunks) -> Iterator[dict]:
        for label, chunk, seconds in chunks:
            failed_before = len(self.failures)
            for rec in chunk:
                self._add(rec)
                yield rec
            print(
                f"{label}: {len(chunk)} instances, "
                f"{len(self.failures) - failed_before} failures, {seconds:.2f} s",
                file=sys.stderr,
            )

    def _add(self, rec: dict) -> None:
        self.instances += 1
        self.checks_run += len(rec["checks"])
        self.check_counts.update(rec["checks"].keys())
        bad = sorted(name for name, ok in rec["checks"].items() if not ok)
        if bad:
            witness = {k: rec[k] for k in ("curve", "d", "d1", "d2") if k in rec}
            witness["failed_checks"] = bad
            self.failures.append(witness)
        for fl in rec.get("flags", ()):
            self.flags.append({"curve": rec["curve"], "d": rec.get("d"), "flag": fl})

    def tail(self) -> dict:
        return {
            "summary": {
                "instances": self.instances,
                "checks_run": self.checks_run,
                "check_counts": dict(sorted(self.check_counts.items())),
                "failures": len(self.failures),
                "flags": self.flags,
            },
            "failures": self.failures,
            "timing": {"wall_seconds": self.wall_seconds},
        }


def run_sweep(
    corpus: list[CurveRecord],
    d_max: int,
    mode: str = "all",
    jobs: int = 1,
    corpus_name: str = "-",
) -> dict:
    """Run the requested verification passes over every admissible
    instance and return the whole report; aggregates failures instead of
    aborting.

    Pair instances are capped at discriminant PAIR_DMAX regardless of
    d_max; the report records the cap in effect as "pair_dmax"."""
    sweep = SweepReport(corpus, d_max, mode, jobs, corpus_name)
    instances = list(sweep)
    return {**sweep.head, **sweep.tail(), "instances": instances}


# One encoder for every record: without indent, json uses its C encoder.
_ENCODER = json.JSONEncoder(sort_keys=True)


def write_report(sweep: SweepReport, fh: TextIO) -> None:
    """Run the sweep and write its report to fh as one JSON object, each
    instance record on its own line as it arrives; "failures", "summary"
    and "timing" follow the instances."""
    head = _ENCODER.encode(sweep.head)
    fh.write(head[:-1] + ',\n"instances": [')
    sep = "\n"
    for rec in sweep:
        fh.write(sep)
        fh.write(_ENCODER.encode(rec))
        sep = ",\n"
    fh.write("\n],\n" + _ENCODER.encode(sweep.tail())[1:] + "\n")


def strip_timing(obj):
    """Report with every 'timing' subtree removed (for determinism tests)."""
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k != "timing"}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj
