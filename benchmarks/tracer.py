"""In-memory span recorder wrapped around loopnet's public functions.

Nothing here edits loopnet: `Tracer.install` rebinds each wrapped name in
every loaded `loopnet` module (which covers `from .x import y` copies), so
the traced program runs the library's own code between the wrappers.

Spans are `[name, start, end, parent, extra]` lists kept in memory and
written as one JSON file by `dump`.  Worker processes forked by a process
pool start with an empty span list and write their own file when the pool
shuts them down; `merge` folds those files into the main one.

A wrapped name that no longer exists is recorded under `absent` instead of
being counted as zero.
"""

from __future__ import annotations

import functools
import glob
import itertools
import json
import math
import operator
import os
import sys
import time
from multiprocessing import util

# (module, attribute, kind).  kind: "span" records a span per call, "gen"
# a span from the first step of a generator to its end, "count" only counts
# calls, "items" counts the items drawn from the returned iterator.
WRAPPED = (
    ("loopnet.graph_core", "build_circulant", "span"),
    ("loopnet.graph_core", "build_ggpg", "span"),
    ("loopnet.graph_core", "CirculantGraph.neighbors", "count"),
    ("loopnet.graph_core", "GgpgGraph.neighbors", "count"),
    ("loopnet.metrics", "bfs", "span"),
    ("loopnet.metrics", "inner_only_distances", "span"),
    ("loopnet.transforms", "expand", "span"),
    ("loopnet.theorem_lab", "chord_sets", "items"),
    ("loopnet.theorem_lab", "plan_sweep", "span"),
    ("loopnet.theorem_lab", "run_instances", "gen"),
    ("loopnet.theorem_lab", "verify_instance", "span"),
    ("loopnet.theorem_lab", "write_report_csv", "span"),
    ("loopnet.theorem_lab", "write_report_json", "span"),
    ("loopnet.cli", "main", "span"),
)


def _reached(result) -> int:
    """Vertices a BFS reached: the finite entries of its distance tuple."""
    dist = getattr(result, "dist", result)
    return len(dist) - dist.count(math.inf)


# extra value recorded on a span, computed from (args, result)
_EXTRA = {
    "loopnet.metrics.bfs": lambda args, res: _reached(res),
    "loopnet.metrics.inner_only_distances": lambda args, res: _reached(res),
    "loopnet.theorem_lab.plan_sweep": lambda args, res: len(res),
}
WRITERS = ("loopnet.theorem_lab.write_report_csv",
           "loopnet.theorem_lab.write_report_json")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.item_counters: dict[str, list] = {}
        self.absent: list[str] = []
        self.pid = os.getpid()
        self.path: str | None = None

    # --- wrappers ---

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, extra: int = 0) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[4] = extra
        self.stack.pop()

    def _span(self, name, fn):
        extra_of = _EXTRA.get(name)
        writer = name in WRITERS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            start_pos = _tell(args[1]) if writer else 0
            extra = 0
            try:
                result = fn(*args, **kwargs)
                if extra_of is not None:
                    extra = extra_of(args, result)
                elif writer:
                    extra = _tell(args[1]) - start_pos
                return result
            finally:
                self._close(idx, extra)
        return wrapper

    def _gen(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                yield from fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    def _count(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    def _items(self, name, fn):
        counters = self.item_counters.setdefault(name, [])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # zip/map keep the per-item cost in C; the count is read at dump
            tally = itertools.count()
            counters.append(tally)
            return map(operator.itemgetter(0), zip(fn(*args, **kwargs), tally))
        return wrapper

    def install(self) -> None:
        """Wrap every name in WRAPPED; must run before any pool forks."""
        import importlib

        for module_name, attr, kind in WRAPPED:
            owner, _, leaf = attr.rpartition(".")
            try:
                module = importlib.import_module(module_name)
                holder = getattr(module, owner) if owner else module
            except (ImportError, AttributeError):
                holder = None           # the module or class is gone too
            original = getattr(holder, leaf, None)
            name = f"{module_name}.{attr}"
            if original is None:
                self.absent.append(name)
                continue
            wrapped = getattr(self, "_" + kind)(name, original)
            if owner:
                setattr(holder, leaf, wrapped)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "loopnet" and mod is not None:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
        # multiprocessing runs this in each child it forks, after it has
        # cleared the finalizers inherited from the parent
        util.register_after_fork(self, Tracer._after_fork)

    def _after_fork(self) -> None:
        self.spans.clear()
        self.stack.clear()
        for key in self.counts:
            self.counts[key] = 0
        for tallies in self.item_counters.values():
            tallies.clear()
        self.pid = os.getpid()
        if self.path is not None:
            # runs when a pool worker's process function returns
            util.Finalize(None, self.dump, args=(f"{self.path}.worker-{self.pid}",),
                          exitpriority=100)

    # --- output ---

    def snapshot(self) -> dict:
        # next() of a tally is the number of items it has counted
        items = {name: sum(next(t) for t in tallies)
                 for name, tallies in self.item_counters.items()}
        return {"pid": self.pid, "spans": self.spans, "counts": dict(self.counts),
                "items": items, "absent": self.absent}

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.snapshot(), fh)


def _tell(fh) -> int:
    try:
        return fh.tell()
    except (AttributeError, OSError, ValueError):
        return 0


def merge(path: str) -> dict:
    """Fold worker trace files into the main one; return the merged trace."""
    with open(path) as fh:
        main = json.load(fh)
    processes = [main]
    for worker_path in sorted(glob.glob(glob.escape(path) + ".worker-*")):
        with open(worker_path) as fh:
            processes.append(json.load(fh))
        os.remove(worker_path)
    merged = {"absent": main["absent"], "processes": processes}
    with open(path, "w") as fh:
        json.dump(merged, fh)
    return merged


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
