"""Span tracer that wraps the public functions of quadtwist from outside.

Every public function defined in one of LAYERS is replaced by a wrapper
that records a span (name, start, end, parent) around each call.  The
wrapper is bound in every ``quadtwist*`` module namespace that holds the
original, because the package imports with ``from .x import f``.  A
generator function gets a span around each ``next()``, so the work done
between two yields is attributed to it.

Spans are kept in flat arrays in memory and written out by ``dump``
when the run ends.  No program code is edited.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array

LAYERS = ("arith", "curves", "localred", "twistlaws", "harness", "cli")

# Functions whose distinct first arguments are counted, for distinct_ratio.
DISTINCT_ARGS = frozenset({"arith.factorize"})

# Functions whose inclusive span durations are kept, for p50_ms / p99_ms.
LATENCY = frozenset({"harness.run_single_instance", "harness.run_pair_instance"})


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.originals: dict[str, object] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.raised: dict[int, int] = {}
        self.distinct: dict[int, set] = {}
        self._stack: list[int] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _exit(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, nid: int, fn):
        enter, exit_, raised = self._enter, self._exit, self.raised
        seen = self.distinct.get(nid)

        if inspect.isgeneratorfunction(fn):

            def wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    idx = enter(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        exit_(idx)
                        return
                    except BaseException:
                        exit_(idx)
                        raised[nid] = raised.get(nid, 0) + 1
                        raise
                    exit_(idx)
                    yield item

        else:

            def wrapper(*args, **kwargs):
                if seen is not None and args:
                    seen.add(args[0])
                idx = enter(nid)
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    exit_(idx)
                    raised[nid] = raised.get(nid, 0) + 1
                    raise
                exit_(idx)
                return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the LAYERS modules (imported)."""
        replacements: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"quadtwist.{layer}")
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                    continue
                name = f"{layer}.{attr}"
                nid = len(self.names)
                self.names.append(name)
                self.originals[name] = obj
                if name in DISTINCT_ARGS:
                    self.distinct[nid] = set()
                replacements[id(obj)] = (obj, self._wrap(nid, obj))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "quadtwist" or modname.startswith("quadtwist.")):
                continue
            for attr, obj in list(vars(mod).items()):
                orig, new = replacements.get(id(obj), (None, None))
                if orig is obj:
                    setattr(mod, attr, new)

    # -- results -----------------------------------------------------------

    def stats(self) -> dict[str, dict]:
        """Per-function calls, self time, counters and memo statistics.  Self time is span time minus the time covered by the
        span's direct children (calls nest, on one thread)."""
        n_names = len(self.names)
        n = len(self.span_start)
        starts, ends, parents, names = self.span_start, self.span_end, self.span_parent, self.span_name
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = [0] * n_names
        self_t = [0.0] * n_names
        latency: dict[int, list[float]] = {
            self.names.index(name): [] for name in LATENCY if name in self.names
        }
        for i in range(n):
            nid = names[i]
            dur = ends[i] - starts[i]
            calls[nid] += 1
            self_t[nid] += dur - child[i]
            if nid in latency:
                latency[nid].append(dur)
        out = {}
        for nid, name in enumerate(self.names):
            entry = {
                "calls": calls[nid],
                "self_s": self_t[nid],
                "raised": self.raised.get(nid, 0),
            }
            if nid in self.distinct:
                entry["distinct"] = len(self.distinct[nid])
            info = getattr(self.originals[name], "cache_info", None)
            if info is not None:
                ci = info()
                entry.update(hits=ci.hits, misses=ci.misses, size=ci.currsize)
            if nid in latency:
                entry["durations_ms"] = _percentiles([d * 1e3 for d in latency[nid]])
            out[name] = entry
        return out

    def dump(self, path) -> None:
        """Write the spans: a JSON header line, then the four raw arrays."""
        with open(path, "wb") as fh:
            header = {
                "names": self.names,
                "spans": len(self.span_start),
                "arrays": ["name:i", "parent:i", "start:d", "end:d"],
            }
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)


def _percentiles(values: list[float]) -> dict:
    """Nearest-rank p50 and p99, with the sample count."""
    values.sort()
    n = len(values)
    if not n:
        return {"n": 0}

    def rank(q: int) -> float:
        return values[max(0, -(-n * q // 100) - 1)]

    return {"n": n, "p50": rank(50), "p99": rank(99)}
