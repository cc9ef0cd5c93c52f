"""Command-line interface.

Exit codes: 0 success, 1 verification failure(s), 2 usage or input error
(arguments, a bad corpus or one with no curve, a sweep with no instance,
--out path, a curve whose discriminant factorize gives up on), 3
internal error (an unexpected
exception, reported on stderr). An exception inside the sweep reaches
main as a harness.SweepError, so even a ValueError there exits 3. `find-aux` takes
D alone (d1, or a pair d1, d2): D fixes the split (n_plus, n_minus).
Its --prime must be a multiplicative prime of N; any other value exits 2.
It prints the smallest D3 in (1, --bound] coprime to D whose n_minus
mask (twistlaws.n_minus_mask) is D's flipped at --prime; none exits 2.
`u-of-d` takes a D coprime to the conductor N, which its closed form
assumes; any other D exits 2.

`verify` checks pairs of discriminants up to min(--dmax, --pair-dmax),
where --pair-dmax defaults to 100; the report records that cap as
"pair_dmax". --dmax, --pair-dmax and --jobs must each be at least 1,
and --dmax at most the discriminant bound 10^12 (any other value exits
2). It prints one progress line per curve on
stderr and the summary and any FAIL lines on stdout. A sweep in which
no (curve, D) or pair is admissible (thm31 at --dmax 1, say) exits 2.
With --out it streams the JSON report, one instance per line, to a
temporary file beside PATH and renames it onto PATH when the report is
complete, so a failed sweep keeps the previous report; without --out it
encodes no JSON for the instances at all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .arith import fundamental_discriminant, hilbert_symbol_2
from .profile_scan import scan_profiles
from .curves import minimal_model, model, quadratic_twist
from .harness import MODES, PAIR_DMAX, SweepReport, default_corpus_path, ingest_corpus, write_report
from .localred import tate_local
from .twistlaws import (
    curve_facts,
    find_auxiliary_discriminant,
    twist_minimal,
    u_of_discriminant,
    validate_setup,
)

USAGE_ERROR = 2
INTERNAL_ERROR = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default already exits 2
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _curve_arg(text: str):
    parts = text.split(",")
    if len(parts) != 5:
        raise argparse.ArgumentTypeError("expected a1,a2,a3,a4,a6")
    try:
        return model(*(int(p) for p in parts))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="quadtwist", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def add_curve(p):
        p.add_argument("--curve", type=_curve_arg, required=True, metavar="a1,a2,a3,a4,a6")

    p = sub.add_parser("tate", help="local reduction data at a prime")
    add_curve(p)
    p.add_argument("--prime", type=int, required=True)

    p = sub.add_parser("twist", help="quadratic twist and its minimal model")
    add_curve(p)
    p.add_argument("--d", type=int, required=True)

    p = sub.add_parser("minimal", help="global minimal model")
    add_curve(p)

    p = sub.add_parser("u-of-d", help="period scale u of the twist by a fundamental discriminant")
    add_curve(p)
    p.add_argument("--d", type=int, required=True)

    p = sub.add_parser("verify", help="run the batch verification sweep")
    p.add_argument("--corpus", default=None, metavar="PATH")
    p.add_argument("--dmax", type=_positive_int, default=500)
    p.add_argument("--pair-dmax", type=_positive_int, default=PAIR_DMAX, metavar="N")
    p.add_argument("--mode", choices=MODES, default="all")
    p.add_argument("--out", default=None, metavar="PATH")
    p.add_argument("--jobs", type=_positive_int, default=1)

    sub.add_parser("enumerate-case3", help="mod-32 residue enumeration profiles")

    p = sub.add_parser("find-aux", help="smallest auxiliary discriminant flipping one prime")
    add_curve(p)
    p.add_argument("--d1", type=int, required=True)
    p.add_argument("--d2", type=int, default=None)
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--bound", type=int, default=10**6)
    return top


def _cmd_tate(args) -> int:
    loc = tate_local(args.curve, args.prime)
    line = f"{loc.kodaira} c={loc.tamagawa} v={loc.disc_valuation}"
    if loc.split is not None:
        line += " split" if loc.split else " nonsplit"
    else:
        line += f" {loc.kind}"
    print(line)
    return 0


def _cmd_twist(args) -> int:
    T = quadratic_twist(args.curve, args.d)
    mm = minimal_model(T)
    print("twist:", ",".join(map(str, T)))
    print("minimal:", ",".join(map(str, mm.minimal)), f"u={mm.u_value}")
    return 0


def _cmd_minimal(args) -> int:
    mm = minimal_model(args.curve)
    print(",".join(map(str, mm.minimal)), f"u={mm.u_value}")
    return 0


def _cmd_u_of_d(args) -> int:
    facts = curve_facts(minimal_model(args.curve))  # of the minimal model
    D = fundamental_discriminant(args.d)
    g = math.gcd(D.value, facts.conductor)
    if g != 1:  # the closed form assumes D coprime to N
        raise ValueError(f"gcd(D, N) = {g} != 1")
    print(f"u={u_of_discriminant(facts.mm, D)} (measured {twist_minimal(facts.mm, D).u_value})")
    return 0


def _cmd_verify(args) -> int:
    path = args.corpus or default_corpus_path()
    corpus = ingest_corpus(path)
    if not corpus:  # no sweep passes on zero instances
        raise ValueError(f"{path}: no curves")
    sweep = SweepReport(
        corpus,
        args.dmax,
        args.mode,
        jobs=args.jobs,
        corpus_name=path,
        pair_dmax=args.pair_dmax,
    )
    if args.out:
        # stream into a sibling file and rename it over --out only once
        # the report is whole, so a failed sweep keeps the previous report
        tmp = f"{args.out}.{os.getpid()}.tmp"
        try:
            fh = open(tmp, "x", encoding="utf-8")
        except OSError as exc:  # name the path given, not the temporary file
            raise OSError(exc.errno, exc.strerror, args.out) from None
        try:
            with fh:
                write_report(sweep, fh)
            try:
                os.replace(tmp, args.out)
            except OSError as exc:  # name the path given, as above
                raise OSError(exc.errno, exc.strerror, args.out) from None
        except BaseException:
            os.remove(tmp)
            raise
    else:
        for _rec in sweep:  # the summary is folded in as the records pass
            pass
    print(
        f"{sweep.instances} instances, {sweep.checks_run} checks, "
        f"{len(sweep.failures)} failures"
    )
    for fail in sweep.failures:
        print("FAIL:", json.dumps(fail, sort_keys=True))
    return 0 if not sweep.failures else 1


def _cmd_enumerate(args) -> int:
    res = scan_profiles()
    print("key range:", sorted(res.key_range))
    print("tamagawa-2 profile:", sorted(res.tamagawa2_profile))
    print("tamagawa-4 profile:", sorted(res.tamagawa4_profile))
    pairs = {(d, m) for d in range(1, 8, 2) for m in (1, 3)}  # (disc mod 8, m mod 4)
    tamagawa2 = {(d, m) for d, m in pairs if hilbert_symbol_2(d, 8 * m) == -1}  # the case table
    ok = res == ({0, 16}, tamagawa2, pairs - tamagawa2)
    print("matches expected sets:", ok)
    return 0 if ok else 1


def _cmd_find_aux(args) -> int:
    rows = validate_setup(minimal_model(args.curve).minimal, args.d1, args.d2)
    f = find_auxiliary_discriminant(rows, args.prime, bound=args.bound)
    print(f.value)
    return 0


_COMMANDS = {
    "tate": _cmd_tate,
    "twist": _cmd_twist,
    "minimal": _cmd_minimal,
    "u-of-d": _cmd_u_of_d,
    "verify": _cmd_verify,
    "enumerate-case3": _cmd_enumerate,
    "find-aux": _cmd_find_aux,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:  # SetupError, CorpusError, SingularModelError
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
