#!/usr/bin/env python3
"""Run one `gc` command in-process with the public functions of each layer timed.

    PYTHONPATH=src python3 bench/tracer.py STATS.json SUBCOMMAND ARG...

The layers are the modules cli, theorems, convexity, endo, groups and
scalars.  Every public function and every public method of a public class
defined in a layer is wrapped, and each wrapper is bound wherever a
groupconvex module holds the original, so `from .groups import norm`
references are timed too.  A wrapper adds its call and its self time
(duration minus the time of the wrapped functions it called) to aggregate
counters; only the entry points in SPAN_POINTS also record a span.  Time in
private helpers counts towards the public function that called them.

The command's stdout and exit code are its own, so they can be checked as
for an untraced run.  STATS.json receives, per wrapped function, [calls,
self seconds, calls that raised]; per lru_cache in the layers, [hits,
misses, currsize] at exit; the import time; the time spent in cli.main;
and the spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("cli", "theorems", "convexity", "endo", "groups", "scalars")
SPAN_POINTS = {
    "cli.main",
    "cli.parse_session",
    "theorems.verify",
    "theorems.counterexample_search",
    "convexity.convex_hull",
    "convexity.family_of",
    "convexity.is_family_convex",
    "convexity.is_n_convex",
}
# Private methods timed all the same: constructions of Instance are counted.
EXTRA_METHODS = {("theorems", "Instance", "__init__")}


class Tracer:
    def __init__(self):
        self.functions: dict[str, list] = {}
        self.spans: list[list] = []
        self._child_time = [0.0]
        self._open_spans = [None]

    def wrap(self, key: str, fn):
        stat = self.functions.setdefault(key, [0, 0.0, 0])
        child_time = self._child_time
        clock = time.perf_counter
        spans = self.spans if key in SPAN_POINTS else None
        open_spans = self._open_spans

        def timed(*args, **kwargs):
            child_time.append(0.0)
            if spans is not None:
                span = [key, clock(), None, open_spans[-1]]
                open_spans.append(len(spans))
                spans.append(span)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat[2] += 1
                raise
            finally:
                end = clock()
                elapsed = end - start
                stat[0] += 1
                stat[1] += elapsed - child_time.pop()
                child_time[-1] += elapsed
                if spans is not None:
                    span[2] = end
                    open_spans.pop()

        return functools.update_wrapper(timed, fn)


def install(tracer: Tracer) -> dict:
    """Wrap the layers' public callables; return their lru_caches by name."""
    replacements = {}
    caches = {}
    for layer in LAYERS:
        module = importlib.import_module(f"groupconvex.{layer}")
        for name, obj in list(vars(module).items()):
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            cached = hasattr(obj, "cache_info")
            if cached:
                caches[f"{layer}.{name}"] = obj
            if name.startswith("_"):
                continue
            if inspect.isclass(obj):
                for attr, fn in list(vars(obj).items()):
                    public = not attr.startswith("_") or (layer, name, attr) in EXTRA_METHODS
                    if public and inspect.isfunction(fn):
                        setattr(obj, attr, tracer.wrap(f"{layer}.{name}.{attr}", fn))
            elif cached or inspect.isfunction(obj):
                replacements[id(obj)] = (obj, tracer.wrap(f"{layer}.{name}", obj))
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] != "groupconvex":
            continue
        for attr, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    return caches


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import groupconvex.cli  # noqa: F401  (timed: the import every invocation pays)

    import_s = time.perf_counter() - start
    tracer = Tracer()
    caches = install(tracer)
    cli = sys.modules["groupconvex.cli"]
    code = 1
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    finally:
        main_s = time.perf_counter() - start
        sys.stdout.flush()
        with open(stats_path, "w", encoding="utf-8") as handle:
            json.dump({
                "argv": argv,
                "exit": code,
                "import_s": import_s,
                "main_s": main_s,
                "functions": tracer.functions,
                "caches": {
                    key: [info.hits, info.misses, info.currsize]
                    for key, info in ((k, c.cache_info()) for k, c in caches.items())
                },
                "spans": tracer.spans,
            }, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
