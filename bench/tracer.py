"""Spans around qicsim's public functions, recorded from outside the package.

install() wraps every public module-level function, every class validation
(``__post_init__``, recorded under the class name) and every public method of
the traced modules, then rebinds each name wherever a qicsim module holds it,
so calls made through ``from .x import y`` are caught too.  Nothing in src/
is edited.  Spans stay in memory and are written as JSONL by dump().
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import tracemalloc

TRACED_MODULES = ("qudit_algebra", "qudit_info", "gaussian_cv", "lattice_field",
                  "checks", "svg_plot", "cli")

# Spans whose allocation peak is recorded with tracemalloc, on their first
# call in each op only: traced allocations are slow, and at small sizes a
# span called hundreds of times per op would otherwise be timed mostly as
# tracing.
PEAK_SPANS = frozenset({"qudit_info.retrieve_by_swap", "lattice_field.mode_matrix"})


class Tracer:
    """Collects spans (id, parent, op, name, start, end, peak bytes)."""

    def __init__(self):
        self.spans: list = []
        self.op = None
        self._stack: list = []
        self._next_id = 0
        self._patches: list = []
        self._peaked: set = set()

    # ---- recording ----

    def begin(self, name: str) -> list:
        span = [self._next_id, self._stack[-1][0] if self._stack else None,
                self.op, name, time.perf_counter(), None, None]
        self._next_id += 1
        self._stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[5] = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)

    def adopt(self, records: list, parent_id: int) -> None:
        """Merge spans recorded by another process under one of ours.

        Ids are renumbered into this tracer's range; root spans of the other
        process become children of parent_id.
        """
        mapping = {}
        for rec in records:
            mapping[rec["id"]] = self._next_id
            self._next_id += 1
        for rec in records:
            parent = mapping.get(rec["parent"], parent_id)
            self.spans.append([mapping[rec["id"]], parent, self.op, rec["name"],
                               rec["start"], rec["end"], rec.get("peak_bytes")])

    def wrap(self, name: str, fn):
        peak = name in PEAK_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            owns_malloc = (peak and (name, self.op) not in self._peaked
                           and not tracemalloc.is_tracing())
            if owns_malloc:
                self._peaked.add((name, self.op))
                tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                if owns_malloc:
                    span[6] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self.end(span)

        return traced

    # ---- installing wrappers ----

    def install(self) -> None:
        originals = {}
        for short in TRACED_MODULES:
            module = importlib.import_module(f"qicsim.{short}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    originals[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._wrap_class(short, obj)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "qicsim" or mod_name.startswith("qicsim.")):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in originals and originals[id(obj)][0] is obj:
                    self._patch(module, attr, originals[id(obj)][1])

    def _wrap_class(self, short: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj):
                continue
            if attr == "__post_init__":
                self._patch(cls, attr, self.wrap(f"{short}.{cls.__name__}", obj))
            elif not attr.startswith("_"):
                self._patch(cls, attr, self.wrap(f"{short}.{cls.__name__}.{attr}", obj))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ---- output ----

    def records(self) -> list:
        return [{"id": s[0], "parent": s[1], "op": s[2], "name": s[3],
                 "start": s[4], "end": s[5], "peak_bytes": s[6]} for s in self.spans]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records():
                fh.write(json.dumps(rec) + "\n")


def load_records(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_times(records: list) -> dict:
    """span id -> duration minus the time its direct children cover."""
    covered: dict = {}
    for rec in records:
        if rec["parent"] is not None:
            covered[rec["parent"]] = covered.get(rec["parent"], 0.0) \
                + rec["end"] - rec["start"]
    return {rec["id"]: rec["end"] - rec["start"] - covered.get(rec["id"], 0.0)
            for rec in records}


def per_op_summary(records: list, ops) -> dict:
    """Span name -> per-op figures over the given ops.

    Keys: self_s and wall_s (seconds per op), calls (per op), peak_bytes
    (largest recorded peak) and by_op (call count of each op, so a caller
    can confirm that every op made the same calls).
    """
    ops = list(ops)
    wanted = set(ops)
    own = self_times(records)
    out: dict = {}
    for rec in records:
        if rec["op"] not in wanted:
            continue
        entry = out.setdefault(rec["name"], {"self_s": 0.0, "wall_s": 0.0, "calls": 0,
                                             "peak_bytes": 0, "by_op": {}})
        entry["self_s"] += own[rec["id"]]
        entry["wall_s"] += rec["end"] - rec["start"]
        entry["calls"] += 1
        entry["peak_bytes"] = max(entry["peak_bytes"], rec["peak_bytes"] or 0)
        entry["by_op"][rec["op"]] = entry["by_op"].get(rec["op"], 0) + 1
    n = len(ops)
    for entry in out.values():
        entry["self_s"] /= n
        entry["wall_s"] /= n
        entry["calls"] /= n
        entry["by_op"] = [entry["by_op"].get(op, 0) for op in ops]
    return out
