#!/usr/bin/env python3
"""Benchmark of ``quadtwist verify``, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each sample is one
``quadtwist.cli.main(["verify", ...])`` call in a fresh interpreter
(``--jobs 1``), so every sample pays for filling the per-process memos
as a user does.  Samples run one at a time until ``--seconds`` is spent.

With ``--trace 0`` the last line reports the end-to-end metrics named in
BENCHMARK.json.  With ``--trace 1`` one extra sample runs under the span
tracer (see tracer.py), the last line reports the per-layer metrics and
the lines above it print both sets.  A per-layer value of -1 means not
applicable (function or memo absent, or no samples).  Every sample's
report is checked against the stored reference (see reference.py); the
lines before the last one say what was measured, on what, and what
failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
from workloads import WORKLOADS, write_corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
CORPUS = Path(".perfbench/corpus.csv")
REPORT = Path(".perfbench/report.json")

MIN_SWEEPS = 3  # untraced sweeps per run even if --seconds is short
HARD_LIMIT_S = 160.0  # no sample starts or runs past this


def prepare(workload: str, seed: int | None) -> None:
    WORK.mkdir(exist_ok=True)
    write_corpus(workload, ROOT, seed, ROOT / CORPUS)


def _child(opts: list[str], verify_args: tuple[str, ...], timeout: float) -> dict:
    if timeout <= 0:
        return {"error": "no time left for the sample"}
    result_path = WORK / "sample.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--result", str(result_path), *opts, "--", *verify_args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"sample timed out after {timeout:.0f} s"}
    if proc.returncode != 0 or not result_path.exists():
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"error": f"sample process exited {proc.returncode}: {' | '.join(tail)}"}
    return json.loads(result_path.read_text(encoding="utf-8"))


def run_sample(workload: str, trace: bool, timeout: float) -> dict:
    """One verify sweep over the prepared corpus; adds the parsed report
    (None when none was written)."""
    out = ROOT / REPORT
    out.unlink(missing_ok=True)
    verify_args = (*WORKLOADS[workload], "--corpus", str(CORPUS), "--out", str(REPORT), "--jobs", "1")
    opts = ["--trace", str(WORK / "spans.bin")] if trace else []
    sample = _child(opts, verify_args, timeout)
    if "error" not in sample and sample.get("exit_code") != 0:
        sample["error"] = f"verify exited {sample.get('exit_code')}"
    sample["report"] = json.loads(out.read_text(encoding="utf-8")) if out.exists() else None
    return sample


def import_sample(timeout: float) -> dict:
    return _child(["--import-only"], (), timeout)


class Verdict:
    """Correctness over every sample of a run."""

    def __init__(self, ref: dict):
        self.ref = ref
        self.failed: set[str] = set()
        self.order_ok = True
        self.errors: list[str] = []

    def add(self, sample: dict) -> int:
        """Check one sample; returns its instance count."""
        report = sample.pop("report")
        if sample.get("error"):
            self.errors.append(sample["error"])
        failed, order_ok = reference.check(self.ref, report)
        self.failed |= failed
        self.order_ok &= order_ok
        return report["summary"]["instances"] if report else 0

    @property
    def attempted(self) -> int:
        return len({reference.instance_key(r) for r in self.ref["instances"]} | self.failed)

    @property
    def correct(self) -> bool:
        return not self.failed and self.order_ok and not self.errors


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    hard_stop = start + HARD_LIMIT_S
    budget_end = start + seconds
    prepare(workload, seed)
    verdict = Verdict(reference.load(workload))

    import_sample(hard_stop - time.monotonic())  # compiles the bytecode cache; not timed

    traced = None
    if trace:
        traced = run_sample(workload, True, hard_stop - time.monotonic())
        verdict.add(traced)

    sweeps, walls, setup = [], [], []
    while True:
        now = time.monotonic()
        predicted = statistics.median(walls) if walls else 0.0
        if len(sweeps) >= (1 if trace else MIN_SWEEPS) and now + predicted > budget_end:
            break
        if walls and now + 1.5 * predicted > hard_stop:
            break
        # One import-only interpreter before each sweep spreads the setup_s
        # samples over the whole run, like the sweeps.
        sample = import_sample(hard_stop - now)
        if "import_s" in sample:
            setup.append(sample["import_s"])
        sample = run_sample(workload, False, hard_stop - time.monotonic())
        sample["instances"] = verdict.add(sample)
        walls.append(time.monotonic() - now)
        sweeps.append(sample)
        if "verify_s" not in sample:
            break  # the sweep crashed or hung: more samples only repeat it
    setup += [s["import_s"] for s in sweeps if "import_s" in s]
    return {"sweeps": sweeps, "traced": traced, "setup": setup, "verdict": verdict}


# ---------------------------------------------------------------------------
# metrics


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else -1.0


def end_to_end(m: dict) -> dict[str, float]:
    timed = [s for s in m["sweeps"] if "verify_s" in s]
    verdict = m["verdict"]
    n_ref = len(verdict.ref["instances"])
    return {
        "verify_s": _median([s["verify_s"] for s in timed]),
        "instances_per_s": _median([s["instances"] / s["verify_s"] for s in timed]),
        "setup_s": _median(m["setup"]),
        "peak_rss_mb": _median([s["maxrss_mb"] for s in timed]),
        "passed_fraction": max(0.0, 1.0 - len(verdict.failed) / n_ref),
    }


def per_layer(m: dict, names: list[str]) -> dict[str, float]:
    traced = m["traced"] or {}
    stats = traced.get("trace", {})
    untraced = [s["verify_s"] for s in m["sweeps"] if "verify_s" in s]
    out = {}
    for name in names:
        if name == "trace.overhead_s":
            ok = "verify_s" in traced and untraced
            out[name] = traced["verify_s"] - statistics.median(untraced) if ok else -1.0
            continue
        fn, _, stat = name.rpartition(".")
        out[name] = _layer_stat(stats.get(fn), stat)
    return out


def _layer_stat(entry: dict | None, stat: str) -> float:
    """One statistic of one traced function; -1 when not applicable."""
    if entry is None:
        return -1
    calls = entry["calls"]
    if stat in ("calls", "self_s"):
        return entry[stat]
    if stat == "distinct_ratio":
        return entry["distinct"] / calls if calls and "distinct" in entry else -1
    if stat == "accept_ratio":
        return (calls - entry["raised"]) / calls if calls else -1
    if stat in ("hits", "misses", "size"):
        return entry.get(stat, -1)
    if stat in ("p50_ms", "p99_ms"):
        return entry.get("durations_ms", {}).get(stat[:3], -1)
    raise ValueError(f"unknown per-layer statistic {stat!r}")


# ---------------------------------------------------------------------------
# report


def _revision() -> str:
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def _source_digest() -> str:
    h = hashlib.sha256()
    src = ROOT / "src" / "quadtwist"
    for path in sorted(p for p in src.rglob("*") if p.suffix in (".py", ".csv")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _tail_note(values: list[float]) -> str:
    """The highest nearest-rank percentile with at least ten samples
    beyond it, if the run has one."""
    n = len(values)
    if n < 11:
        return f"n={n}: no percentile has 10 samples beyond it"
    pct = 100 * (n - 10) // n
    rank = max(1, -(-n * pct // 100))
    return f"n={n}: p{pct} = {sorted(values)[rank - 1]:.4f}"


def print_report(args, m: dict) -> None:
    verdict = m["verdict"]
    timed = [s["verify_s"] for s in m["sweeps"] if "verify_s" in s]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"revision {_revision()}  source digest {_source_digest()}")
    print(
        f"python {platform.python_version()} ({sys.executable})  "
        f"nproc {len(os.sched_getaffinity(0))}  machine {platform.machine()}"
    )
    print(f"samples: {len(m['sweeps'])} untraced sweeps, {len(m['setup'])} setup imports"
          f"{', 1 traced sweep' if m['traced'] else ''}")
    print(f"verify_s per sample: {' '.join(f'{t:.3f}' for t in timed)}")
    print(f"verify_s tail: {_tail_note(timed)}")
    print(
        f"correctness: {verdict.attempted} instances, {len(verdict.failed)} failed "
        f"(failed_fraction {len(verdict.failed) / len(verdict.ref['instances']):.6f}), "
        f"order check {'ok' if verdict.order_ok else 'FAILED'}"
    )
    for err in dict.fromkeys(verdict.errors):
        print(f"error: {err}")
    for key in sorted(verdict.failed)[:10]:
        print(f"failed instance: {key}")
    if m["traced"] and "trace" in m["traced"]:
        stats = m["traced"]["trace"]
        print("self time by function (traced sweep):")
        for name, e in sorted(stats.items(), key=lambda kv: -kv[1]["self_s"])[:15]:
            print(f"  {name:45s} {e['self_s']:9.4f} s  {e['calls']:9d} calls")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "quadtwist" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} is not a quadtwist source checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    # On SIGTERM, unwind through subprocess.run, which kills and waits for
    # the running sample before the exception leaves it.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    m = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(args, m)
    values = end_to_end(m)
    printed = spec["end_to_end"]
    if args.trace:
        values.update(per_layer(m, [x["name"] for x in spec["per_layer"]]))
        printed = printed + spec["per_layer"]
    for x in printed:
        print(f"{x['name']} = {values[x['name']]} {x['unit']}")
    section = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {x["name"]: {"value": values[x["name"]], "unit": x["unit"]} for x in section}
    verdict = m["verdict"]
    print(json.dumps({
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": len(verdict.failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
