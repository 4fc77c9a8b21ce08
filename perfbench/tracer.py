"""Outside-in tracer for metricval's layer modules.

The tracer wraps every public function and every public method of a public
class defined in the layer modules (corpus, judgments, metrics, correlation,
significance, analysis, report), then rebinds every reference the package
holds to one of those functions: module globals, including names imported
with ``from .x import y``, and module-level dicts such as
``correlation.COEFFICIENTS``.  Each wrapped call records one span (name,
start, end, parent span, and for a few functions a work count).  Spans stay
in memory in flat arrays and are written out once, after the run.

Run ``python3 perfbench/tracer.py SPANS_FILE -- run --config cfg.json`` to
call ``metricval.cli.main(["run", "--config", "cfg.json"])`` traced; the
process exits with the CLI's exit code.  ``Summary`` turns the spans into
per-name call counts, inclusive and self times.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import time
from array import array

LAYERS = ("corpus", "judgments", "metrics", "correlation", "significance", "analysis", "report")


def _pairs(args, kwargs, result):
    n = len(args[0] if args else kwargs["xs"])
    return n * (n - 1) // 2


# Work counts taken from a call's arguments or result, by span name.
COUNTERS = {
    "judgments.load_judgments": lambda args, kwargs, result: len(result),
    "judgments.standardize_judgments": lambda args, kwargs, result: len(result[0]),
    "judgments.segment_da": lambda args, kwargs, result: len(result[0]),
    "correlation.segment_correlation": lambda args, kwargs, result: result[0].n,
    "correlation.kendall_pair_counts": _pairs,
}


class Tracer:
    """Records nested spans of wrapped calls in flat in-memory arrays."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("q")
        self._stack = [-1]

    def reset(self) -> None:
        for arr in (self.name_id, self.parent, self.start, self.end, self.count):
            del arr[:]

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)
        stack = self._stack
        name_ids, parents, starts, ends, counts = (
            self.name_id, self.parent, self.start, self.end, self.count)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            counts.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                counts[idx] = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.span_name = name
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def spans(self) -> dict:
        """The recorded spans as lists, in the form Summary reads."""
        return {
            "names": list(self.names),
            "name_id": self.name_id.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "count": self.count.tolist(),
        }

    def write(self, path: str) -> None:
        """Write the spans: a JSON header line, then the raw arrays."""
        header = {"names": self.names, "spans": len(self.start)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end, self.count):
                arr.tofile(fh)


def read_spans(path: str) -> dict:
    """Inverse of Tracer.write."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        out = {"names": header["names"]}
        for key, code in (("name_id", "i"), ("parent", "i"), ("start", "d"),
                          ("end", "d"), ("count", "q")):
            arr = array(code)
            arr.fromfile(fh, header["spans"])
            out[key] = arr.tolist()
    return out


def install(tracer: Tracer) -> dict:
    """Wrap the layer modules' public callables and rebind every reference.

    Returns original function -> wrapper, so a caller can check coverage.
    """
    import metricval.cli  # noqa: F401  (imports every layer module)

    wrappers = {}
    for layer in LAYERS:
        module = sys.modules[f"metricval.{layer}"]
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                wrappers[value] = tracer.wrap(f"{layer}.{attr}", value)
            elif inspect.isclass(value):
                for method_name, method in list(vars(value).items()):
                    if not method_name.startswith("_") and inspect.isfunction(method):
                        wrapper = tracer.wrap(f"{layer}.{attr}.{method_name}", method)
                        wrappers[method] = wrapper
                        setattr(value, method_name, wrapper)
    for name, module in list(sys.modules.items()):
        if name != "metricval" and not name.startswith("metricval."):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if inspect.isfunction(value) and value in wrappers:
                namespace[attr] = wrappers[value]
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if inspect.isfunction(item) and item in wrappers:
                        value[key] = wrappers[item]
    return wrappers


class Summary:
    """Per-name aggregates over one run's spans."""

    def __init__(self, spans: dict):
        names = spans["names"]
        self.name = [names[i] for i in spans["name_id"]]
        self.parent = spans["parent"]
        self.dur = [e - s for s, e in zip(spans["start"], spans["end"])]
        self.count = spans["count"]
        self.by_name: dict[str, list[int]] = {}
        child = [0.0] * len(self.dur)
        for idx, name in enumerate(self.name):
            self.by_name.setdefault(name, []).append(idx)
            p = self.parent[idx]
            if p >= 0:
                child[p] += self.dur[idx]
        self.self_time = [d - c for d, c in zip(self.dur, child)]

    def _ancestors(self, idx: int):
        p = self.parent[idx]
        while p >= 0:
            yield p
            p = self.parent[p]

    def _spans(self, names, under=None):
        names = set(names)
        for name in sorted(names):
            for idx in self.by_name.get(name, ()):
                ancestors = [self.name[a] for a in self._ancestors(idx)]
                if names.intersection(ancestors):
                    continue
                if under is not None and under not in ancestors:
                    continue
                yield idx

    def calls(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def time(self, *names: str) -> float:
        """Seconds inside any of the named calls, nested ones counted once."""
        return math.fsum(self.dur[i] for i in self._spans(names))

    def layer_time(self, layer: str) -> float:
        """Seconds inside any wrapped call of one layer module."""
        return self.time(*(n for n in self.by_name if n.split(".", 1)[0] == layer))

    def self_seconds(self, name: str) -> float:
        """Seconds inside the named calls but outside any wrapped callee."""
        return math.fsum(self.self_time[i] for i in self.by_name.get(name, ()))

    def total(self, name: str, under: str | None = None) -> int:
        """Sum of the work counts of the named calls, optionally only those
        made (at any depth) inside a call named ``under``."""
        return sum(self.count[i] for i in self._spans([name], under))


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_FILE -- METRICVAL_ARGS...", file=sys.stderr)
        return 1
    tracer = Tracer()
    install(tracer)
    from metricval import cli

    try:
        code = cli.main(argv[2:])
    finally:
        tracer.write(argv[0])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
