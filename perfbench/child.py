"""One benchmark sample in a fresh interpreter.

    python3 perfbench/child.py --result PATH [--trace SPANS_PATH] [--import-only] -- VERIFY_ARGS...

Times ``import quadtwist, quadtwist.cli`` (nothing else is imported
before it, so the import pays for everything the package pulls in), then
times one ``quadtwist.cli.main(["verify", ...])`` call and writes a JSON
result to PATH.  With ``--trace`` the public functions are wrapped by
the span tracer first and the per-function statistics are added.

An exception escaping ``main`` is recorded in the result instead of
ending the sample, so the caller can count it as failed instances.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _main(argv: list[str]) -> int:
    sep = argv.index("--")
    opts, verify_args = argv[:sep], argv[sep + 1 :]
    result_path = opts[opts.index("--result") + 1]
    spans_path = opts[opts.index("--trace") + 1] if "--trace" in opts else None

    sys.path.insert(0, os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    import quadtwist  # noqa: F401
    import quadtwist.cli  # noqa: F401

    result = {"import_s": time.perf_counter() - t0}

    import json
    import resource
    import traceback

    if "--import-only" not in opts:
        tracer = None
        if spans_path:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        main = sys.modules["quadtwist.cli"].main  # the tracer's wrapper, if installed
        t1 = time.perf_counter()
        try:
            result["exit_code"] = main(["verify", *verify_args])
        except Exception as exc:
            result["error"] = f"{type(exc).__name__}: {exc}"
            result["traceback"] = traceback.format_exc()
        result["verify_s"] = time.perf_counter() - t1
        if tracer is not None:
            result["trace"] = tracer.stats()
            tracer.dump(spans_path)
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
