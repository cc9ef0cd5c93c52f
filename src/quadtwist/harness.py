"""Batch verification harness: corpus ingestion, sweep orchestration over
(curve, discriminant) instances, and machine-readable reporting.

Everything a record says is decided here: twistlaws returns ints,
bools and LocalReductions, and one table (_PASSES) says which checks
each mode runs. A record is its JSON line. One writer per record kind
makes them, _single_records for the twists E^D and _pair_records for
the coprime pairs, each holding its own class memo. A writer formats
each line directly, in the bytes json.dumps(record, sort_keys=True)
writes, from ints, bools and text fragments made once per curve: the
escaped label, each row's Tamagawa numbers at the primes of D, and the
text (checks, c~ and verdict) of each class of singles and of pairs.
An even D's 2-adic case sentence is written from the case
table's prediction and the row's Tate run at 2, and the quantity's
string from its ints. No JSON encoder and no Fraction runs per record.

A sweep streams: ``SweepReport`` yields one curve's record lines at a
time, in report order, and folds each chunk into the summary as it
passes: instance and check counts come from the record kinds' check
names, and only a line that fails a check or carries a flag is parsed,
for its failure witness and flags. It prints one progress line per
curve on stderr. ``write_report``, the one report writer, writes each
line to a file as it arrives, between a head and a tail encoded once
each, so the report's memory does not grow with the instance count.

Each curve's and each twist's facts are computed once, not per
instance. ingest_corpus computes each curve's CurveFacts (minimal
model, conductor, local data) and puts them on its CurveRecord. Per
curve the sweep hands those facts and the discriminants to
twistlaws.twist_rows, the builder validate_setup uses too, which admits
each discriminant and builds its TwistRow in one pass: one kronecker
symbol per prime of N, then the twist is minimized once, and Tate's
algorithm runs once per prime on that reduction, from its invariants
and discriminant exponents. The odd-prime closed form for the twist's
Tamagawa number depends on the curve and the prime l, not on D, so it
is evaluated once per (curve, l) and compared with the Tate value of
every row whose D has l. Instances are a join of rows: a single
reads its own row, and a coprime pair D1 < D2 up to the pair cap reads
two, with its n_minus side from the curve's per-set table. A pair's
checks and verdict read each row only through its class (_pair_records),
so they are evaluated once per class pair of the curve, and each pair
writes its own D1, D2, u and Tamagawa texts around them. The tests
hold the records to a per-instance reference that reads each twist's
Tate data afresh from a validated setup. An exception inside a curve's
sweep is raised as a SweepError naming the curve. With jobs > 1 the
curves fan out over at most one worker process per curve, each
receiving the parsed discriminants once, through the pool's initializer,
and per task one curve's record, facts included, and returning its
chunk of lines; the process pool's modules are imported only then, so a
sweep in one process never loads concurrent.futures or multiprocessing.

Reports are deterministic: instances are enumerated in sorted order and
all wall-clock measurements live under "timing" keys (the tail's wall
and per-curve seconds), so two runs over the same inputs differ at most
in those subtrees.
"""

from __future__ import annotations

import json
import math
import re
import sys
import time
from collections import Counter
from importlib import resources
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, NamedTuple, Sequence, TextIO

from .arith import (
    DISCRIMINANT_BOUND,
    FactorizationError,
    FundamentalDiscriminant,
    fundamental_discriminants,
    kronecker,
)
from .curves import SingularModelError, WeierstrassModel, minimal_model, model
from .localred import twist_prime_tamagawa_odd
from .twistlaws import (
    CurveFacts,
    TwistRow,
    check_two_adic_case,
    curve_facts,
    join_rows,
    pair_twist_quantity,
    symbol_closed_form,
    tamagawa_symbol_check,
    tamagawa_transfer_check,
    tamagawa_transfer_product_check,
    twist_quantity,
    twist_rows,
)

# The passes each mode runs: mode -> (single quantity, single lemmas,
# pair quantity, pair lemmas).  thm13 is the single quantity, thm31 the
# pair quantity, lemmas the local identities of both.
_PASSES = {
    "thm13": (True, False, False, False),
    "thm31": (False, False, True, False),
    "lemmas": (False, True, False, True),
    "all": (True, True, True, True),
}
MODES = tuple(_PASSES)
# The default cap on pair discriminants, whatever d_max is: the pair
# count grows quadratically and the identities pairs exercise are
# discriminant-local.
PAIR_DMAX = 100


class CurveRecord(NamedTuple):
    label: str
    a_invariants: tuple[int, int, int, int, int]
    conductor: int | None
    analytic_rank: int | None
    facts: CurveFacts  # of the curve's global minimal model, from ingest_corpus

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


def _corpus_int(field: str) -> int:
    """An optional sign and ASCII digits; int() alone also takes 1_0 and non-ASCII digits."""
    if not re.fullmatch(r"[+-]?[0-9]+", field):
        raise ValueError(f"invalid literal for int() with base 10: {field!r}")
    return int(field)


def ingest_corpus(path: str) -> list[CurveRecord]:
    """Parse and validate a curve corpus CSV.

    Line format: label,a1,a2,a3,a4,a6[,conductor[,analytic_rank]], each
    integer an optional sign and ASCII digits.  Comment lines start with
    '#'.  Each line is decoded as UTF-8 on its own, so an error names the
    line that is not.  Every record is checked nonsingular and its
    discriminant factorable (minimal_model, so no line can hang the
    sweep), duplicate labels are rejected, and a stated conductor must
    match the recomputed one exactly.  Each record carries its curve's
    CurveFacts, computed once here (one minimal_model, one Tate run per
    prime of N) for the conductor check and the sweep.  Their n_minus
    table, read off the local data, fills during a sweep and changes no
    later report.
    """
    records: list[CurveRecord] = []
    seen: set[str] = set()
    with open(path, "rb") as fh:
        data = fh.read().removeprefix(b"\xef\xbb\xbf")  # a UTF-8 byte-order mark
    # bytes.splitlines splits where text mode's universal newlines do
    for lineno, raw in enumerate(data.splitlines(), start=1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise CorpusError(f"{path}:{lineno}: {exc}") from None
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
            ai = tuple(_corpus_int(p) for p in parts[1:6])
        except ValueError as exc:
            raise CorpusError(f"{path}:{lineno}: bad coefficient: {exc}") from None
        try:
            stated_n, rank = (_corpus_int(p) if p else None for p in [*parts[6:], "", ""][:2])
        except ValueError as exc:
            raise CorpusError(f"{path}:{lineno}: bad conductor or rank: {exc}") from None
        if rank is not None and rank < 0:
            raise CorpusError(f"{path}:{lineno}: negative analytic rank")
        try:
            mm = minimal_model(model(*ai))
        except (SingularModelError, FactorizationError) as exc:
            raise CorpusError(f"{path}:{lineno}: {exc}") from None
        facts = curve_facts(mm)
        if stated_n is not None and facts.conductor != stated_n:
            raise CorpusError(
                f"{path}:{lineno}: stated conductor {stated_n} != computed {facts.conductor}"
            )
        seen.add(label)
        records.append(CurveRecord(label, ai, stated_n, rank, facts))
    return records


# ---------------------------------------------------------------------------
# per-instance records
#
# A record is its JSON line, formatted as json.dumps(record, sort_keys=True)
# writes it: keys in sorted order, ", " and ": " separators, strings with
# ASCII escapes (encode_basestring_ascii, the encoder's own function).  The
# text of what many records share is made once per curve: the escaped
# label and each row's Tamagawa numbers at the primes of D in _sweep_curve,
# and a class's text in the writer of its record kind (_single_records,
# _pair_records).

_JSON_BOOL = ("false", "true")  # indexed by a bool; no check name holds "false"

# The checks each record kind runs in its quantity pass and its lemma
# pass; an even D adds two_adic_case_table to a single's lemma checks.
_QUANTITY_CHECKS = ("quantity_power_of_two", "quantity_even_exponent")
_SINGLE_LEMMA_CHECKS = (
    "symbol_closed_form",
    "tamagawa_product_symbol",
    "u_closed_form",
    "odd_twist_fast_path",
)
_PAIR_QUANTITY_CHECKS = (*_QUANTITY_CHECKS, "omega_parity", "c_tilde_product")
_PAIR_LEMMA_CHECKS = ("tamagawa_transfer_per_prime", "tamagawa_transfer_product")


def _check_names(mode: str, pair: bool, even: bool = False) -> tuple[str, ...]:
    """The names of the checks a record runs: a pair's, or a single's
    with an even or odd D, in the given mode."""
    single_quantity, single_lemmas, pair_quantity, pair_lemmas = _PASSES[mode]
    if pair:
        return _PAIR_QUANTITY_CHECKS * pair_quantity + _PAIR_LEMMA_CHECKS * pair_lemmas
    lemmas = _SINGLE_LEMMA_CHECKS + ("two_adic_case_table",) * even
    return _QUANTITY_CHECKS * single_quantity + lemmas * single_lemmas


def _format_quantity(num: int, w: int) -> str:
    """str(Fraction(num, 2**w)) for num > 0, from ints: the common factor
    is 2**t, t = min(w, v2(num))."""
    t = min(w, (num & -num).bit_length() - 1)
    den = 1 << (w - t)
    return str(num >> t) if den == 1 else f"{num >> t}/{den}"


def _int_dict_json(values: dict[int, int]) -> str:
    """The JSON text json.dumps({str(p): c}, sort_keys=True) writes for a
    dict of ints keyed by primes: keys sorted as strings ("13" before
    "5"), which need no escaping."""
    items = sorted((str(p), c) for p, c in values.items())
    return "{" + ", ".join(f'"{k}": {c}' for k, c in items) + "}"


def _verdict_text(v) -> str:
    """The members of a quantity record after its components."""
    exponent = "null" if v.exponent is None else v.exponent
    return (
        f'"exponent": {exponent}, "is_even_exponent": {_JSON_BOOL[v.is_even_exponent]}, '
        f'"is_power_of_two": {_JSON_BOOL[v.is_power_of_two]}, '
        f'"quantity": "{_format_quantity(v.numerator, v.w)}"}}'
    )


def _single_records(
    curve_json: str, facts: CurveFacts, rows: Sequence[TwistRow], tamagawa_json: dict[int, str],
    quantity_pass: bool, lemma_pass: bool,
) -> tuple[list[str], list[int]]:
    """The records of one curve's (curve, D) instances, one per row in
    row order, and the indices of those that fail a check or carry a
    flag.  A single's quantity reads its row only through (share, n_minus
    mask): its checks, c~ and verdict text are made once per such class.
    The lemma pass compares the Tate value at each odd prime l of D with
    the curve's closed form twist_prime_tamagawa_odd(mm, l), which no D
    changes: it is evaluated once per odd prime of the rows' D."""
    odd = {l for row in rows for l in row.disc.primes if l != 2} if lemma_pass else ()
    odd_tamagawa = {l: twist_prime_tamagawa_odd(facts.mm, l) for l in odd}
    quantities = {}  # (share, n_minus mask) -> (checks, components, verdict) text
    disc = facts.mm.invariants.disc
    lines, unclean = [], []  # the records, the indices of those not clean
    for row in rows:
        D = row.disc
        side = row.minus
        checks = []  # the checks' JSON members, in key order
        quantity = lemmas = flags = ""
        if lemma_pass:
            fast = all(odd_tamagawa[l] == row.local[l].tamagawa for l in D.primes if l != 2)
            checks.append(f'"odd_twist_fast_path": {_JSON_BOOL[fast]}')
        if quantity_pass:
            text = quantities.get((row.share, side.mask))
            if text is None:
                v = twist_quantity(row)
                c_tilde = _int_dict_json({q: facts.local_data[q].c_tilde for q in side.primes})
                text = quantities[row.share, side.mask] = (
                    f'"quantity_even_exponent": {_JSON_BOOL[v.is_even_exponent]}, '
                    f'"quantity_power_of_two": {_JSON_BOOL[v.is_power_of_two]}',
                    f'"c_tilde": {c_tilde}, "omega_n_minus": {v.w}',
                    _verdict_text(v),
                )
            quantity_checks, components, verdict = text
            checks.append(quantity_checks)
            quantity = (
                f', "quantity": {{"components": {{"D": {D.value}, {components}, '
                f'"twist_tamagawa": {tamagawa_json[D.value]}, "u": {row.u}}}, {verdict}'
            )
        if lemma_pass:
            symbol = kronecker(disc, D.odd_part)
            sym = symbol_closed_form(disc, D, side.disc_valuation_sum) == symbol
            checks.append(
                f'"symbol_closed_form": {_JSON_BOOL[sym]}, '
                f'"tamagawa_product_symbol": {_JSON_BOOL[tamagawa_symbol_check(row, symbol)]}'
            )
            if D.is_even:
                ok, pred = check_two_adic_case(row)
                loc = row.local[2]
                checks.append(f'"two_adic_case_table": {_JSON_BOOL[ok]}')
                lemmas = (
                    f', "two_adic_case": "case {pred.case}: predicted ({pred.kodaira}, '
                    f'{pred.tamagawa}), tate gives ({loc.kodaira}, {loc.tamagawa})"'
                )
            checks.append(f'"u_closed_form": {_JSON_BOOL[row.measured_u == row.u]}')
            lemmas += f', "u": {row.u}'
            if row.measured_u not in (1, 2):
                flag = encode_basestring_ascii(f"measured u = {row.measured_u} outside {{1,2}}")
                flags = f', "flags": [{flag}]'
        checks_text = ", ".join(checks)
        if flags or "false" in checks_text:
            unclean.append(len(lines))
        lines.append(
            f'{{"checks": {{{checks_text}}}, "curve": {curve_json}, "d": {D.value}{flags}, '
            f'"n_minus": {side.n_minus}, "n_plus": {side.n_plus}{quantity}{lemmas}}}'
        )
    return lines, unclean


def _pair_records(
    curve_json: str, rows: Sequence[TwistRow], tamagawa_json: dict[int, str],
    quantity_pass: bool, lemma_pass: bool,
) -> tuple[list[str], list[int]]:
    """The records of the coprime pairs D1 < D2 of one curve's rows up to
    the pair cap, ascending (a coprime pair is admissible exactly when both
    its discriminants are), and the indices of those failing a check.
    A pair's checks and verdict read a row only through its class: its
    n_minus mask, its share, and the twist's Tamagawa numbers at the
    primes of N.  So they are evaluated once per class pair, from the
    join of its first two rows, and each record adds its own D1, D2, u1,
    u2 and Tamagawa texts to that text."""
    classes: dict[tuple, int] = {}  # a row class -> its number
    cls = []
    for r in rows:
        tamagawa = tuple(r.local[p].tamagawa for p in r.facts.local_data)
        cls.append(classes.setdefault((r.minus.mask, r.share, tamagawa), len(classes)))
    # (class 1, class 2) -> the text before D1 (checks and curve), the
    # n_minus side, the quantity components and verdict, and whether
    # every check passed
    evaluated = {}
    lines, unclean = [], []  # the records, the indices of those failing a check
    for i, row1 in enumerate(rows):
        d1 = row1.disc.value
        for j in range(i + 1, len(rows)):
            row2 = rows[j]
            d2 = row2.disc.value
            if math.gcd(d1, d2) != 1:
                continue
            text = evaluated.get((cls[i], cls[j]))
            if text is None:
                pair = join_rows(row1, row2)
                side = pair.minus
                checks = []  # the checks' JSON members, in key order
                components = verdict = ""
                if quantity_pass:
                    v = pair_twist_quantity(pair)
                    c_tilde = _int_dict_json(
                        {q: row1.facts.local_data[q].c_tilde for q in side.primes}
                    )
                    parity = _JSON_BOOL[v.omega_parity]
                    product = _JSON_BOOL[v.c_tilde_product]
                    checks.append(
                        f'"c_tilde_product": {product}, "omega_parity": {parity}, '
                        f'"quantity_even_exponent": {_JSON_BOOL[v.is_even_exponent]}, '
                        f'"quantity_power_of_two": {_JSON_BOOL[v.is_power_of_two]}'
                    )
                    components = (
                        f'"bookkeeping": {{"c_tilde_product": {product}, '
                        f'"omega_parity": {parity}}}, "c_tilde": {c_tilde}, '
                        f'"omega_n_minus": {v.w}'
                    )
                    verdict = _verdict_text(v)
                if lemma_pass:
                    per_prime = all(tamagawa_transfer_check(pair, q) for q in side.primes)
                    transfer = tamagawa_transfer_product_check(pair)
                    checks.append(
                        f'"tamagawa_transfer_per_prime": {_JSON_BOOL[per_prime]}, '
                        f'"tamagawa_transfer_product": {_JSON_BOOL[transfer]}'
                    )
                checks_text = ", ".join(checks)
                text = evaluated[cls[i], cls[j]] = (
                    f'{{"checks": {{{checks_text}}}, "curve": {curve_json}',
                    f'"n_minus": {side.n_minus}, "n_plus": {side.n_plus}',
                    components,
                    verdict,
                    "false" not in checks_text,
                )
            head, side_text, components, verdict, clean = text
            if not clean:
                unclean.append(len(lines))
            if not quantity_pass:
                lines.append(f'{head}, "d1": {d1}, "d2": {d2}, {side_text}}}')
                continue
            lines.append(
                f'{head}, "d1": {d1}, "d2": {d2}, {side_text}, "quantity": {{"components": {{'
                f'"D1": {d1}, "D2": {d2}, {components}, "twist_tamagawa_1": {tamagawa_json[d1]}, '
                f'"twist_tamagawa_2": {tamagawa_json[d2]}, "u1": {row1.u}, "u2": {row2.u}}}, '
                f'{verdict}}}'
            )
    return lines, unclean


class CurveChunk(NamedTuple):
    """One curve's instance records, as JSON lines in report order (its
    pairs, then its singles, each ascending), with what the summary
    needs of them."""

    label: str
    lines: list[str]
    pairs: int  # the first `pairs` lines are pairs, the rest singles
    even_singles: int  # singles with an even D
    unclean: list[int]  # indices of the lines that fail a check or carry a flag
    seconds: float


def _sweep_curve(
    record: CurveRecord, discriminants: list[FundamentalDiscriminant], pair_dmax: int, mode: str
) -> CurveChunk:
    """One curve's instance records and the seconds they took.  The
    curve's rows are built once from its record's facts, and so is the
    text both record kinds share (the escaped label and each row's
    Tamagawa numbers at the primes of D).  Two writers make the records,
    _pair_records and _single_records, each with its own class memo."""
    single_quantity, single_lemmas, pair_quantity, pair_lemmas = _PASSES[mode]
    facts = record.facts
    t0 = time.perf_counter()
    curve_json = encode_basestring_ascii(record.label)
    even_singles = 0
    pairs_run = pair_quantity or pair_lemmas
    singles_run = single_quantity or single_lemmas
    if not singles_run:
        discriminants = [f for f in discriminants if f.value <= pair_dmax]
    try:
        rows = twist_rows(facts, discriminants, pair_dmax if pairs_run else 0)
        # D -> the row's Tamagawa numbers
        tamagawa_json = {
            row.disc.value: _int_dict_json({l: row.local[l].tamagawa for l in row.disc.primes})
            for row in rows
        }
        pair_rows = [row for row in rows if row.disc.value <= pair_dmax] if pairs_run else []
        lines, unclean = _pair_records(
            curve_json, pair_rows, tamagawa_json, pair_quantity, pair_lemmas
        )
        pairs = len(lines)
        if singles_run:
            single_lines, single_unclean = _single_records(
                curve_json, facts, rows, tamagawa_json, single_quantity, single_lemmas
            )
            lines += single_lines
            unclean += [pairs + i for i in single_unclean]
            even_singles = sum(row.disc.is_even for row in rows)
    except Exception as exc:
        raise SweepError(f"curve {record.label}: {type(exc).__name__}: {exc}") from exc
    return CurveChunk(record.label, lines, pairs, even_singles, unclean, time.perf_counter() - t0)


# A --jobs worker's discriminants, set once by the pool's initializer
_worker_discriminants: list[FundamentalDiscriminant] = []


def _init_worker(discriminants: list[FundamentalDiscriminant]) -> None:
    global _worker_discriminants
    _worker_discriminants = discriminants


def _sweep_in_worker(record: CurveRecord, pair_dmax: int, mode: str) -> CurveChunk:
    return _sweep_curve(record, _worker_discriminants, pair_dmax, mode)


class SweepReport:
    """One verification sweep, consumed one instance record at a time.

    Iterating runs the sweep and yields every instance record, as its
    JSON line, in report order (curves by label, then pairs before
    singles, each ascending), one curve's chunk at a time. Each chunk is
    folded into the summary as it passes: the instance and check counts
    come from the record kinds' check names (_check_names), and only a
    line that fails a check or carries a flag is parsed, for its failure
    witness and its flags. One progress line per curve goes to stderr.
    ``head`` holds the parameters of the run; ``tail()``, read after the
    iteration, holds the summary, the failures and the timing. Pair
    instances are capped at discriminant min(d_max, pair_dmax). A d_max
    above arith.DISCRIMINANT_BOUND or an unknown mode raises ValueError,
    and so does a sweep that ran no instance, after its last curve.
    """

    def __init__(
        self,
        corpus: list[CurveRecord],
        d_max: int,
        mode: str = "all",
        jobs: int = 1,
        corpus_name: str = "-",
        pair_dmax: int = PAIR_DMAX,
    ):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if d_max > DISCRIMINANT_BOUND:  # the sweep would list every D up to it
            raise ValueError(f"d_max {d_max} exceeds the discriminant bound {DISCRIMINANT_BOUND}")
        self.corpus = sorted(corpus, key=lambda r: r.label)
        self.jobs = jobs
        self.head = {
            "schema": 1,
            "mode": mode,
            "d_max": d_max,
            "pair_dmax": min(d_max, pair_dmax),
            "corpus": corpus_name,
            "curves": [rec.label for rec in self.corpus],
        }
        self.instances = 0
        self.checks_run = 0
        self.check_counts: Counter[str] = Counter()
        self.failures: list[dict] = []
        self.flags: list[dict] = []
        self.wall_seconds: float | None = None
        self.curve_seconds: dict[str, float] = {}

    def __iter__(self) -> Iterator[str]:
        t0 = time.perf_counter()
        # every curve sweeps the same discriminants: parse them once
        discs = list(fundamental_discriminants(self.head["d_max"]))
        pair_dmax, mode = self.head["pair_dmax"], self.head["mode"]
        # a pool forks all its workers at the first submit: no more than
        # there are curves
        workers = min(self.jobs, len(self.corpus))
        if workers > 1:
            # imported here: the pool's modules (multiprocessing, pickle,
            # socket, ...) are a third of the package's import time, and a
            # sweep in one process uses none of them
            from concurrent.futures import ProcessPoolExecutor

            # each worker receives the discriminants once, each task a curve
            pool = ProcessPoolExecutor(workers, initializer=_init_worker, initargs=(discs,))
            try:
                futures = [pool.submit(_sweep_in_worker, r, pair_dmax, mode) for r in self.corpus]
                # results are read in task order, so chunks arrive in label order
                yield from self._fold(f.result() for f in futures)
            finally:
                pool.shutdown(cancel_futures=True)
        else:
            yield from self._fold(_sweep_curve(r, discs, pair_dmax, mode) for r in self.corpus)
        if not self.instances:  # no sweep passes on zero instances
            raise ValueError("no instance to verify")
        self.wall_seconds = round(time.perf_counter() - t0, 3)

    def _fold(self, chunks: Iterable[CurveChunk]) -> Iterator[str]:
        mode = self.head["mode"]
        for chunk in chunks:
            singles = len(chunk.lines) - chunk.pairs
            self._count(_check_names(mode, True), chunk.pairs)
            self._count(_check_names(mode, False, True), chunk.even_singles)
            self._count(_check_names(mode, False, False), singles - chunk.even_singles)
            failed_before = len(self.failures)
            for i in chunk.unclean:
                self._add_unclean(json.loads(chunk.lines[i]))
            yield from chunk.lines
            self.curve_seconds[chunk.label] = round(chunk.seconds, 2)
            print(
                f"{chunk.label}: {len(chunk.lines)} instances, "
                f"{len(self.failures) - failed_before} failures, {chunk.seconds:.2f} s",
                file=sys.stderr,
            )

    def _count(self, names: tuple[str, ...], n: int) -> None:
        if n:
            self.instances += n
            self.checks_run += n * len(names)
            for name in names:
                self.check_counts[name] += n

    def _add_unclean(self, rec: dict) -> None:
        checks = rec["checks"]
        if not all(checks.values()):
            witness = {k: rec[k] for k in ("curve", "d", "d1", "d2") if k in rec}
            witness["failed_checks"] = sorted(name for name, ok in checks.items() if not ok)
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
            "timing": {"wall_seconds": self.wall_seconds, "curve_seconds": self.curve_seconds},
        }


def write_report(sweep: SweepReport, fh: TextIO) -> None:
    """Run the sweep and write its report to fh as one JSON object, each
    instance record's line on its own line as it arrives; "failures",
    "summary" and "timing" follow the instances.  Only the head and the
    tail are encoded."""
    head = json.dumps(sweep.head, sort_keys=True)
    fh.write(head[:-1] + ',\n"instances": [')
    sep = "\n"
    for line in sweep:
        fh.write(sep)
        fh.write(line)
        sep = ",\n"
    fh.write("\n],\n" + json.dumps(sweep.tail(), sort_keys=True)[1:] + "\n")
