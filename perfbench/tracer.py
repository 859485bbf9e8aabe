"""Traced infkit launcher.

    python3 perfbench/tracer.py SUMMARY.json -- <infkit arguments>

Wraps the public functions of every infkit module (see `layers.py`) in
spans, runs `infkit.cli.main(argv)`, and exits with its return code. Spans
record layer, start, end and parent, per thread, and stay in memory; at exit
the launcher reduces them to per-layer calls and self time and writes
SUMMARY.json once. Self time is a span's duration minus that of its child
spans in the same thread, so the self times of the main thread add up to
the `cli.main` total. `run_corpus` workers are threads of their own: their
spans are roots of those threads, and `cli.run_corpus` keeps the time spent
waiting for them as self time.
"""
from __future__ import annotations

import importlib
import inspect
import json
import sys
import threading
from array import array
from time import perf_counter

import layers


class _ThreadSpans:
    """The spans of one thread, in parallel arrays."""

    def __init__(self) -> None:
        self.layer = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []


class Tracer:
    def __init__(self) -> None:
        self.layer_names: list[str] = []
        self.layer_ids: dict[str, int] = {}
        self.threads: dict[int, _ThreadSpans] = {}
        self.counters = {"consprop.members": 0, "iojson.dumps.bytes": 0,
                         "consprop.oracle.accepted": 0}

    def _layer_id(self, name: str) -> int:
        if name not in self.layer_ids:
            self.layer_ids[name] = len(self.layer_names)
            self.layer_names.append(name)
        return self.layer_ids[name]

    def span(self, layer: str, fn, after=None):
        """fn wrapped in a span of `layer`; `after(result)` runs inside the
        span when fn returns."""
        lid = self._layer_id(layer)
        threads = self.threads
        get_ident = threading.get_ident

        def wrapper(*args, **kwargs):
            t = threads.get(get_ident())
            if t is None:
                t = threads[get_ident()] = _ThreadSpans()
            stack = t.stack
            idx = len(t.start)
            t.layer.append(lid)
            t.parent.append(stack[-1] if stack else -1)
            t.end.append(0.0)
            stack.append(idx)
            t.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result)
                return result
            finally:
                t.end[idx] = perf_counter()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    # -- post hooks -------------------------------------------------------

    def _count_members(self, members) -> None:
        self.counters["consprop.members"] += len(members)

    def _count_bytes(self, text) -> None:
        self.counters["iojson.dumps.bytes"] += len(text)

    def _wrap_oracle(self, cp) -> None:
        """Count the calls and acceptances of the positivity oracle."""
        counters = self.counters

        def accepted(result) -> None:
            if result:
                counters["consprop.oracle.accepted"] += 1

        object.__setattr__(cp, "oracle",
                           self.span("consprop.oracle", cp.oracle, accepted))

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        mods = {name: importlib.import_module(f"infkit.{name}")
                for name in layers.MODULES}
        hooks = {("consprop", "enumerate_members"): self._count_members,
                 ("iojson", "dumps"): self._count_bytes,
                 ("consprop", "cp_from_model"): self._wrap_oracle}
        for mod_name, mod in mods.items():
            for name, fn in list(vars(mod).items()):
                if not inspect.isfunction(fn) or name.startswith("_") \
                        or fn.__module__ != mod.__name__ \
                        or (mod_name, name) in layers.SKIP:
                    continue
                if mod_name == "cli" and name not in layers.CLI_FUNCTIONS:
                    continue
                wrapped = self.span(layers.layer_of(mod_name, name), fn,
                                    hooks.get((mod_name, name)))
                # every infkit module that imported the function
                for other in mods.values():
                    for alias, obj in list(vars(other).items()):
                        if obj is fn:
                            setattr(other, alias, wrapped)
        for (mod_name, cls_name), (layer, methods) in layers.METHODS.items():
            cls = getattr(mods[mod_name], cls_name)
            for meth in methods:
                wrapped = self.span(layer, getattr(cls, meth))
                if meth in layers.DRAINING:
                    wrapped = _draining(wrapped)
                setattr(cls, meth, wrapped)

    # -- summary ----------------------------------------------------------

    def summary(self) -> dict:
        rows: dict[str, dict] = {}
        main_thread = threading.main_thread().ident
        main_self = main_total = 0.0
        for ident, t in self.threads.items():
            n = len(t.start)
            child = [0.0] * n
            for i in range(n):
                if t.parent[i] >= 0:
                    child[t.parent[i]] += t.end[i] - t.start[i]
            for i in range(n):
                d = t.end[i] - t.start[i]
                name = self.layer_names[t.layer[i]]
                row = rows.setdefault(name, {"calls": 0, "self_s": 0.0})
                row["calls"] += 1
                row["self_s"] += d - child[i]
                if ident == main_thread:
                    main_self += d - child[i]
                    if t.parent[i] < 0 and name == "cli.main":
                        main_total += d
        return {"layers": dict(sorted(rows.items())),
                "counters": self.counters,
                "spans": sum(len(t.start) for t in self.threads.values()),
                "threads": len(self.threads),
                "main_total_s": main_total,
                "main_self_sum_s": main_self}


def _draining(wrapped):
    def method(self, items):
        return wrapped(self, list(items))
    method.__wrapped__ = wrapped
    return method


def main() -> int:
    out_path = sys.argv[1]
    if sys.argv[2:3] != ["--"]:
        sys.exit("usage: tracer.py SUMMARY.json -- <infkit arguments>")
    tracer = Tracer()
    tracer.install()
    from infkit import cli
    try:
        return cli.main(sys.argv[3:])
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main())
