"""Batch verification harness: corpus ingestion, sweep orchestration over
(curve, discriminant) instances, and machine-readable reporting.

Reports are deterministic: instances are enumerated in sorted order and
all wall-clock measurements live under "timing" keys, so two runs over
the same inputs differ at most in those subtrees.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from importlib import resources
from typing import Iterable, NamedTuple

from .arith import fundamental_discriminants, kronecker
from .curves import SingularModelError, WeierstrassModel, invariants, minimal_model, model
from .localred import reduction_profile, tate_local, twist_prime_tamagawa_odd
from .twistlaws import (
    SetupError,
    TwistSetup,
    check_two_adic_case,
    tamagawa_transfer_check,
    tamagawa_transfer_product_check,
    measured_u,
    symbol_closed_form,
    inert_valuation_sum,
    tamagawa_symbol_check,
    twist_quantity,
    pair_twist_quantity,
    twist_minimal,
    u_of_discriminant,
    validate_setup,
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


def default_corpus_path() -> str:
    return str(resources.files("quadtwist").joinpath("data/curves.csv"))


def ingest_corpus(path: str) -> list[CurveRecord]:
    """Parse and validate a curve corpus CSV.

    Line format: label,a1,a2,a3,a4,a6[,conductor[,analytic_rank]].
    Comment lines start with '#'.  Every record is checked nonsingular,
    duplicate labels are rejected, and a stated conductor must match the
    recomputed one exactly.
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
                invariants(E)
            except SingularModelError as exc:
                raise CorpusError(f"{path}:{lineno}: singular curve {ai}: {exc}") from None
            if stated_n is not None:
                N, _, _ = reduction_profile(E)
                if N != stated_n:
                    raise CorpusError(
                        f"{path}:{lineno}: stated conductor {stated_n} != computed {N}"
                    )
            seen.add(label)
            records.append(CurveRecord(label, ai, stated_n, rank, f"{path}:{lineno}"))
    return records


# ---------------------------------------------------------------------------
# instance enumeration


def valid_single_setups(E: WeierstrassModel, d_max: int) -> Iterable[tuple[int, TwistSetup]]:
    """(D, setup) for every positive fundamental discriminant D <= d_max
    admissible for the canonical split/inert factorization of E."""
    for f in fundamental_discriminants(d_max):
        try:
            yield f.value, validate_setup(E, f)
        except SetupError:
            continue


def valid_pair_setups(
    E: WeierstrassModel, d_max: int
) -> Iterable[tuple[tuple[int, int], TwistSetup]]:
    """Unordered coprime admissible pairs (D1 < D2), D2 <= d_max; the
    (1, 1) pair is excluded (the characters must not both be trivial)."""
    fds = [f.value for f in fundamental_discriminants(d_max)]
    for i, d1 in enumerate(fds):
        for d2 in fds[i + 1 :]:
            if math.gcd(d1, d2) != 1:
                continue
            try:
                yield (d1, d2), validate_setup(E, d1, d2)
            except SetupError:
                continue


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
        disc = invariants(E).disc
        b = inert_valuation_sum(setup)
        sym = symbol_closed_form(disc, D, b)
        checks["symbol_closed_form"] = sym == kronecker(disc, D.odd_part)
        checks["tamagawa_product_symbol"] = bool(tamagawa_symbol_check(E, D))
        u_closed = u_of_discriminant(E, D)
        u_meas = measured_u(E, D)
        checks["u_closed_form"] = Fraction(u_closed) == u_meas
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


def _sweep_curve(args) -> list[dict]:
    record, d_max, mode = args
    E = minimal_model(record.curve).minimal
    out = []
    if mode in ("thm13", "lemmas", "all"):
        for _d, setup in valid_single_setups(E, d_max):
            out.append(run_single_instance(record.label, setup, mode))
    if mode in ("thm31", "lemmas", "all"):
        for _pair, setup in valid_pair_setups(E, min(d_max, PAIR_DMAX)):
            out.append(run_pair_instance(record.label, setup, mode))
    return out


def run_sweep(
    corpus: list[CurveRecord],
    d_max: int,
    mode: str = "all",
    jobs: int = 1,
    corpus_name: str = "-",
) -> dict:
    """Run the requested verification passes over every admissible
    instance; aggregates failures instead of aborting.

    Pair instances are capped at discriminant PAIR_DMAX regardless of
    d_max; the report records the cap in effect as "pair_dmax"."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    t0 = time.perf_counter()
    tasks = [(rec, d_max, mode) for rec in sorted(corpus, key=lambda r: r.label)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_curve = list(pool.map(_sweep_curve, tasks))
    else:
        per_curve = [_sweep_curve(t) for t in tasks]
    instances = [rec for chunk in per_curve for rec in chunk]
    instances.sort(key=lambda r: (r["curve"], r.get("d", 0), r.get("d1", 0), r.get("d2", 0)))

    failures = []
    checks_run = 0
    flags = []
    for rec in instances:
        checks_run += len(rec["checks"])
        bad = sorted(name for name, ok in rec["checks"].items() if not ok)
        if bad:
            witness = {k: rec[k] for k in ("curve", "d", "d1", "d2") if k in rec}
            witness["failed_checks"] = bad
            failures.append(witness)
        for fl in rec.get("flags", ()):
            flags.append({"curve": rec["curve"], "d": rec.get("d"), "flag": fl})

    report = {
        "schema": 1,
        "mode": mode,
        "d_max": d_max,
        "pair_dmax": min(d_max, PAIR_DMAX),
        "corpus": corpus_name,
        "curves": [rec.label for rec in sorted(corpus, key=lambda r: r.label)],
        "summary": {
            "instances": len(instances),
            "checks_run": checks_run,
            "failures": len(failures),
            "flags": flags,
        },
        "failures": failures,
        "instances": instances,
        "timing": {"wall_seconds": round(time.perf_counter() - t0, 3)},
    }
    return report


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def strip_timing(obj):
    """Report with every 'timing' subtree removed (for determinism tests)."""
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k != "timing"}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj
