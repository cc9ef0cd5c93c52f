"""Reference reports and the correctness gate.

A reference is the ``strip_timing`` report of one sweep over the
workload's corpus in canonical line order, taken with this benchmark's
first commit and stored gzipped under ``perfbench/reference/``.  The
seed only permutes corpus lines, so one reference serves every seed.

Regenerate (only when the workload itself changes):

    python3 perfbench/reference.py [WORKLOAD ...]
"""

from __future__ import annotations

import gzip
import json
import sys
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


def load(workload: str) -> dict:
    with gzip.open(reference_path(workload), "rt", encoding="utf-8") as fh:
        return json.load(fh)


def save(workload: str, report: dict) -> None:
    text = json.dumps(strip_timing(report), sort_keys=True, separators=(",", ":"))
    data = gzip.compress(text.encode("utf-8"), compresslevel=9, mtime=0)
    reference_path(workload).write_bytes(data)


def strip_timing(obj):
    """The report with every 'timing' subtree removed, as the harness's
    own strip_timing does."""
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k != "timing"}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


def instance_key(rec: dict) -> str:
    if "d" in rec:
        return f"{rec['curve']}/{rec['d']}"
    return f"{rec['curve']}/{rec['d1']},{rec['d2']}"


def covers(ref, got) -> bool:
    """True when ``got`` holds everything ``ref`` holds, unchanged.

    Dict keys that ``got`` adds are ignored, so fields and checks added
    to the report later do not count as differences."""
    if isinstance(ref, dict):
        return isinstance(got, dict) and all(k in got and covers(v, got[k]) for k, v in ref.items())
    if isinstance(ref, list):
        return (
            isinstance(got, list)
            and len(ref) == len(got)
            and all(covers(a, b) for a, b in zip(ref, got))
        )
    return type(ref) is type(got) and ref == got


def failed_instances(ref: dict, report: dict | None) -> set[str]:
    """Keys of the instances that fail against the reference.

    An instance fails when it is missing, when any of its checks is
    false, or when a check or the quantity the reference holds differs.
    An instance the reference does not have fails too.  Without a report
    every reference instance fails."""
    expected = {instance_key(rec): rec for rec in ref["instances"]}
    if report is None:
        return set(expected)
    failed = set()
    seen = set()
    for rec in report.get("instances", []):
        key = instance_key(rec)
        seen.add(key)
        want = expected.get(key)
        checks = rec.get("checks", {})
        if (
            want is None
            or not all(checks.values())
            or not covers(want["checks"], checks)
            or ("quantity" in want and not covers(want["quantity"], rec.get("quantity")))
        ):
            failed.add(key)
    return failed | (set(expected) - seen)


def check(ref: dict, report: dict | None) -> tuple[set[str], bool]:
    """Failed instance keys, and whether the report holds the reference
    unchanged (the order check; fields the reference lacks, such as
    "timing", are ignored, see ``covers``)."""
    if report is None:
        return failed_instances(ref, None), False
    if covers(ref, report):
        failed = {instance_key(r) for r in report["instances"] if not all(r["checks"].values())}
        return failed, True
    return failed_instances(ref, report), False


def _main(names: list[str]) -> int:
    import run
    from workloads import WORKLOADS

    for name in names or list(WORKLOADS):
        run.prepare(name, seed=None)
        sample = run.run_sample(name, trace=False, timeout=900)
        report = sample.get("report")
        if sample.get("error") or report is None or report["summary"]["failures"]:
            print(f"{name}: not a clean sweep: {sample.get('error')}", file=sys.stderr)
            return 1
        save(name, report)
        print(f"{name}: {len(report['instances'])} instances -> {reference_path(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
