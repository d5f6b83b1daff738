"""Shared pieces of the benchmark: locating the library, statistics, the
pass loop, and turning operation records into the end-to-end metrics."""

from __future__ import annotations

import gc
import os
import resource
import sys
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil
from statistics import fmean
from time import perf_counter, perf_counter_ns

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# Set-up is repeated at least this many times per run, and for at least
# this share of the run's measuring time; setup_s is the median.
SETUP_REPEATS = 5
SETUP_SHARE = 0.1

# Times are reported at a reference machine speed, the speed at which
# `probe_work()` takes REF_PROBE_S; see `SpeedProbe`.  1.2 ms is about what
# the probe takes on an uncontended core of the 2-vCPU host the benchmark
# was built on (its fastest samples there take 1.1-1.3 ms), so the times
# read as the times on such a core.  The probe runs, untimed, between
# operations and between set-ups: once for every PROBE_EVERY_S that has
# passed since it last ran (at most MAX_CATCH_UP times in a row), so its
# samples are spread evenly over the run's time.
REF_PROBE_S = 0.0012
PROBE_EVERY_S = 0.05
MAX_CATCH_UP = 40


class BenchError(Exception):
    """The benchmark cannot run here (for example, the library is missing)."""


def load_library():
    """Import `weylfan` from this checkout's `src/`, never from elsewhere."""
    pkg = os.path.join(SRC, "weylfan", "__init__.py")
    if not os.path.isfile(pkg):
        raise BenchError(f"library source not found at {pkg}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import weylfan
    import weylfan.cli  # noqa: F401  (not imported by the package itself)

    if os.path.abspath(weylfan.__file__) != pkg:
        raise BenchError(f"imported weylfan from {weylfan.__file__}, expected {pkg}")
    return weylfan


def probe_work() -> int:
    """A fixed piece of the kind of work the library does: exact rational
    arithmetic, frozensets and tuples as dict keys, a sort.  The benchmark's
    own code, not the library's."""
    table = {}
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i % 7 + 1, i)
        table[frozenset((i % 17, i % 29, i % 5))] = (acc, i)
    return len(sorted(table.values(), key=lambda entry: entry[1]))


def pin_to_one_cpu() -> None:
    """Keep this process, and the CLI processes it starts, on one CPU.

    Virtual CPUs of a shared host are slowed by other work independently of
    each other; on one CPU the speed probe measures the CPU that runs the
    measured work, including a CLI child, which inherits the affinity.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class SpeedProbe:
    """Samples how fast the machine runs a fixed piece of work during a run.

    The machines this runs on share their cores.  A virtual CPU runs either
    at full speed or, while its core is busy with other work, well below it,
    switching within milliseconds; the share of time spent slow drifts over
    seconds and minutes, and the same work then takes up to 1.6 times as
    long, for the library and the probe alike.  `scale()` brings the run's times
    to the reference speed: REF_PROBE_S over the run's mean probe time, the
    mean of evenly spaced probes being what estimates the share of time spent
    slow.  It is one factor per run (or per set-up phase), so it rescales
    every operation of the run alike and leaves their ratios as measured.
    """

    def __init__(self):
        self.samples_ns: list[int] = []
        self._last = None

    def catch_up(self) -> None:
        """Probe once per PROBE_EVERY_S since the last probe (at least once at first)."""
        now = perf_counter()
        due = 1 if self._last is None else int((now - self._last) / PROBE_EVERY_S)
        for _ in range(min(due, MAX_CATCH_UP)):
            t0 = perf_counter_ns()
            probe_work()
            self.samples_ns.append(perf_counter_ns() - t0)
        if due:
            self._last = perf_counter()

    def mean_s(self) -> float:
        return fmean(self.samples_ns) / 1e9

    def scale(self) -> float:
        return REF_PROBE_S / self.mean_s()


def percentile(values, p: float):
    """Nearest-rank percentile: the smallest value with at least p% at or below it."""
    ordered = sorted(values)
    k = max(1, ceil(p / 100 * len(ordered)))
    return ordered[k - 1]


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


@dataclass
class Op:
    """One user-visible operation: what it was, how long it took, how it ended."""

    kind: str
    large: bool  # belongs to the workload's large-input part
    ns: int
    ident: int  # the same operation has the same ident in every repeat
    outcome: str = "ok"  # "ok", a documented WeylfanError code, or "failed"
    detail: str = ""


@dataclass
class Tally:
    """Operation records of a run, grouped by pass."""

    passes: list[list[Op]] = field(default_factory=list)

    def all_ops(self) -> list[Op]:
        return [op for p in self.passes for op in p]

    def failures(self) -> list[Op]:
        return [op for op in self.all_ops() if op.outcome == "failed"]

    def outcome_shares(self) -> dict[str, float]:
        ops = self.all_ops()
        counts = Counter(op.outcome for op in ops)
        return {k: v / len(ops) for k, v in sorted(counts.items())}


def timed_setups(setup, run_seconds: float):
    """Run `setup()` several times; return (last state, list of seconds, probe).

    The probe covers the set-up phase only, so that set-up times are scaled
    by the machine's speed while they were measured.
    """
    times, state, probe = [], None, SpeedProbe()
    start = perf_counter()
    while len(times) < SETUP_REPEATS or perf_counter() - start < SETUP_SHARE * run_seconds:
        state = None  # free the previous state before building the next
        gc.collect()
        probe.catch_up()
        t0 = perf_counter()
        state = setup()
        times.append(perf_counter() - t0)
    probe.catch_up()
    return state, times, probe


def run_passes(pass_specs, seconds: float, min_passes: int, probe: SpeedProbe) -> Tally:
    """Closed loop with one client: repeat passes over the operations for `seconds`.

    The first `min_passes` passes always run whole; after them, the run
    stops at the first operation that would start after `seconds`, so the
    last pass may be partial and every operation has at least `min_passes`
    samples.
    """
    tally = Tally()
    deadline = perf_counter() + seconds
    while True:
        cut = deadline if len(tally.passes) >= min_passes else None
        tally.passes.append(run_specs(pass_specs(), probe=probe, deadline=cut))
        if perf_counter() >= deadline and len(tally.passes) >= min_passes:
            return tally


def mean_of_repeats(tally: Tally) -> dict[int, tuple[Op, float]]:
    """Each operation (by `ident`) with its mean time in ns over the run.

    Every pass runs the same operations; a pass may repeat an operation
    (same `ident`) to give it more samples.  The mean, because the run's
    times are scaled by its mean probe time (`SpeedProbe`): both grow in
    proportion to the share of time the CPU spent slow.  The median or the
    fastest repeat of an operation shorter than the CPU's fast and slow
    spells jumps between the two speeds as that share crosses a threshold.
    """
    samples: dict[int, list[Op]] = {}
    for op in tally.all_ops():
        samples.setdefault(op.ident, []).append(op)
    return {ident: (ops[0], fmean(op.ns for op in ops)) for ident, ops in samples.items()}


def end_to_end(tally: Tally, setup_s: float, tail_p: float, rss_mb: float, scale: float):
    """The end-to-end metrics shared by every workload; `scale` brings the
    operation times to the reference speed, `setup_s` is already there."""
    per_op = mean_of_repeats(tally).values()
    lat_ms = [ns * scale / 1e6 for _op, ns in per_op]
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ops_per_s": (len(lat_ms) / (sum(lat_ms) / 1e3), "1/s"),
        "op_p50_ms": (percentile(lat_ms, 50), "ms"),
        "op_tail_ms": (percentile(lat_ms, tail_p), "ms"),
        "small_s": (sum(ns for op, ns in per_op if not op.large) * scale / 1e9, "s"),
        "large_s": (sum(ns for op, ns in per_op if op.large) * scale / 1e9, "s"),
    }


@dataclass
class Spec:
    """An operation to run: `call()` is timed, `check(result)` is not.

    `check` returns None when the output is right, else a description.
    `expect` names the documented WeylfanError code the call must raise,
    if any; such an outcome counts as an outcome, not as a failure.
    `expect` may also be a zero-argument function giving the code (or
    None); it is called untimed after the call.
    `before` runs untimed just before the call (for example to clear a cache).
    `outcome` is recorded when the call returns and the check passes; a CLI
    call that prints a documented structured error sets it to the code.
    """

    kind: str
    large: bool
    call: object
    check: object = None
    expect: object = None  # a code, None, or a function giving one
    before: object = None
    outcome: str = "ok"
    ident: int | None = None  # defaults to the position in the pass


def run_specs(specs, section=nullcontext, probe: SpeedProbe | None = None, deadline=None) -> list[Op]:
    """Run operations in order, one at a time, and check each output.

    With `probe`, the machine's speed is sampled, untimed, between calls.
    With `deadline` (a `perf_counter()` value), no call starts after it.
    """
    from weylfan.errors import WeylfanError

    ops = []
    for position, spec in enumerate(specs):
        if deadline is not None and perf_counter() >= deadline:
            break
        ident = position if spec.ident is None else spec.ident
        if spec.before is not None:
            spec.before()
        if probe is not None:
            probe.catch_up()
        error = None
        with section():
            t0 = perf_counter_ns()
            try:
                result = spec.call()
            except Exception as exc:  # any exception is an outcome to classify
                error = exc
            ns = perf_counter_ns() - t0
        expect = spec.expect() if callable(spec.expect) else spec.expect
        if error is not None:
            code = error.code if isinstance(error, WeylfanError) else None
            if code is not None and code == expect:
                ops.append(Op(spec.kind, spec.large, ns, ident, code))
            else:
                ops.append(Op(spec.kind, spec.large, ns, ident, "failed", repr(error)))
            continue
        if expect is not None:
            problem = f"expected {expect}, got a result"
        else:
            problem = spec.check(result) if spec.check is not None else None
        ops.append(
            Op(spec.kind, spec.large, ns, ident, "failed" if problem else spec.outcome, problem or "")
        )
    return ops
