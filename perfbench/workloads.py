"""Benchmark workloads: the corpus each one sweeps and its verify flags.

The seed only ever reaches the corpus file.  It permutes the order of
the corpus lines; the curves themselves, and so the amount of work, are
the same for every seed.  This module does not import quadtwist, so the
program under test never shapes its own input.
"""

from __future__ import annotations

import random
from pathlib import Path

SHIPPED_CORPUS = Path("src/quadtwist/data/curves.csv")

# random_curves: a corpus of curves in reduced form, a1, a3 in {0, 1},
# a2 in {-1, 0, 1}, |a4|, |a6| <= COEFF_BOUND, drawn once from a fixed
# generator seed.  COEFF_BOUND and RANDOM_CURVES set the run length.
# Per-curve sweep cost is heavy-tailed, so a fresh draw per --seed would
# vary the work by more than the verify_s bound (see README.md).
RANDOM_CURVES = 60
COEFF_BOUND = 300
CORPUS_SEED = 0


# verify flags per workload; the corpus comes from corpus_lines().
# BENCHMARK.json lists acceptance and random_curves; singles_deep is for
# runs by hand (see README.md, "Workloads").
WORKLOADS = {
    "acceptance": ("--mode", "all", "--dmax", "500"),
    "singles_deep": ("--mode", "thm13", "--dmax", "2000"),
    "random_curves": ("--mode", "all", "--dmax", "40"),
}


def discriminant(a1: int, a2: int, a3: int, a4: int, a6: int) -> int:
    """Discriminant of y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6."""
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def random_curves(seed: int, count: int, bound: int) -> list[str]:
    """``count`` distinct nonsingular reduced curves as corpus lines
    ``label,a1,a2,a3,a4,a6`` (no conductor is stated)."""
    rng = random.Random(seed)
    seen: set[tuple[int, ...]] = set()
    lines = []
    while len(lines) < count:
        a = (
            rng.randint(0, 1),
            rng.randint(-1, 1),
            rng.randint(0, 1),
            rng.randint(-bound, bound),
            rng.randint(-bound, bound),
        )
        if a in seen or discriminant(*a) == 0:
            continue
        seen.add(a)
        lines.append(f"rc{len(lines):03d}," + ",".join(map(str, a)))
    return lines


def corpus_lines(name: str, root: Path) -> list[str]:
    """The workload's corpus lines in canonical order (comments dropped)."""
    if name == "random_curves":
        return random_curves(CORPUS_SEED, RANDOM_CURVES, COEFF_BOUND)
    text = (root / SHIPPED_CORPUS).read_text(encoding="utf-8")
    return [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]


def write_corpus(name: str, root: Path, seed: int | None, path: Path) -> None:
    """Write the corpus, with its lines permuted by ``seed`` (None keeps
    the canonical order)."""
    lines = corpus_lines(name, root)
    if seed is not None:
        random.Random(seed).shuffle(lines)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
