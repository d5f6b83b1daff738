"""Span tracer for the traced benchmark run.

The tracer wraps public functions of the `weylfan` modules from the outside:
the library is not edited.  A traced function is replaced in every `weylfan`
module namespace that binds it (for example `fans` imports `closure_subset`
by name), methods are replaced on their class, and a cached property is
traced through its getter, so only its first access is timed.

Each span records a name, start, end and parent span; spans stay in memory
in flat integer arrays and are written out when the run ends.  Self time is
a span's duration minus the durations of its direct child spans.  Functions
called millions of times (the `linalg` kernels) are counted, not timed,
because a span per call would dominate the run.

Tracing is off outside `section()`, so the benchmark's own output checks
neither add spans nor count calls.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter_ns


def _defining_module(qualname: str):
    module_name, _, attr_path = qualname.partition(":")
    module = importlib.import_module(module_name)
    owner = module
    parts = attr_path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return module, owner, parts[-1]


class Tracer:
    """Spans and counters around calls into the library."""

    def __init__(self) -> None:
        self.active = False
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        # per name: [calls, total ns, self ns]
        self.stats: dict[str, list[int]] = {}
        self.counts: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[list[int]] = []  # [span index, ns covered by children]
        self._patches: list[tuple[object, str, object]] = []
        self.wall_ns = 0  # time spent inside sections
        self.root_ns = 0  # part of it covered by top-level spans

    # -- recording -------------------------------------------------------------

    def _id(self, name: str) -> int:
        got = self._name_id.get(name)
        if got is None:
            got = self._name_id[name] = len(self.names)
            self.names.append(name)
            self.stats[name] = [0, 0, 0]
        return got

    def count(self, name: str, n: int = 1) -> None:
        if self.active:
            self.counts[name] = self.counts.get(name, 0) + n

    @contextmanager
    def section(self):
        """Trace the calls made inside the block; its wall time is recorded."""
        self.active = True
        t0 = perf_counter_ns()
        try:
            yield
        finally:
            self.wall_ns += perf_counter_ns() - t0
            self.active = False

    def span_wrapper(self, name: str, fn, post=None):
        """`fn` recording a span per call; `post(args, result)` runs after success."""
        name_id = self._id(name)
        stat = self.stats[name]
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1][0] if stack else -1)
            starts.append(0)
            ends.append(0)
            frame = [index, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                starts[index] = t0
                ends[index] = t1
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                else:
                    tracer.root_ns += dur
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[1]
            if post is not None:
                post(args, result)
            return result

        return wrapper

    def count_wrapper(self, name: str, fn):
        """`fn` counting its calls while a section is active."""
        counts = self.counts
        counts.setdefault(name, 0)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching --------------------------------------------------------------

    def install(self, qualname: str, name: str, post=None, count_only=False, impl=None) -> None:
        """Trace `module:attr` or `module:Class.attr` under `name`.

        `impl`, when given, is called in place of the original function; it
        must behave the same and may add counts.
        """
        module, owner, attr = _defining_module(qualname)
        raw = owner.__dict__[attr]
        if isinstance(raw, functools.cached_property):
            wrapped = self.span_wrapper(name, raw.func, post)
            self._patches.append((raw, "func", raw.func))
            raw.func = wrapped
            return
        if isinstance(raw, staticmethod):
            wrapped = self.span_wrapper(name, raw.__func__, post)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, staticmethod(wrapped))
            return
        if owner is not module:  # plain method
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, self.span_wrapper(name, raw, post))
            return
        target = impl or raw
        if count_only:
            wrapped = self.count_wrapper(name, target)
        else:
            wrapped = self.span_wrapper(name, target, post)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "weylfan" or mod_name.startswith("weylfan.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is raw:
                    self._patches.append((mod, key, raw))
                    setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """`<name>.calls` and `<name>.self_s` per traced function, plus all counts."""
        out: dict[str, float] = {}
        for name, (calls, _total, self_ns) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_ns / 1e9
        for name, n in self.counts.items():
            out[name] = n
        return out

    def self_sum_ns(self) -> int:
        return sum(st[2] for st in self.stats.values())

    def children_of(self, parent_name: str, child_name: str) -> int:
        """Number of `child_name` spans directly under a `parent_name` span."""
        parent_id = self._name_id.get(parent_name)
        child_id = self._name_id.get(child_name)
        if parent_id is None or child_id is None:
            return 0
        names, parents = self.span_name, self.span_parent
        return sum(
            1
            for i in range(len(names))
            if names[i] == child_id and parents[i] >= 0 and names[parents[i]] == parent_id
        )

    def write(self, path) -> None:
        """Write every span as [name, start_ns, end_ns, parent] (gzip JSON lines)."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"[{self.span_name[i]},{self.span_start[i]},"
                    f"{self.span_end[i]},{self.span_parent[i]}]\n"
                )
