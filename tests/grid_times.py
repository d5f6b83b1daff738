"""Best-of-40 times of the calls of every case of the `fan_build` grid
(`perfbench/fanbuild.GRID`), outside the test suite (pytest collects no
file of this name): `parabolic_fan`, the first read of `Fan.face_order`
and, where the grid validates the case, `Fan.validate()`, then their sums
over the grid, the "grid as sums of per-case minima".

    PYTHONPATH=src python tests/grid_times.py

Each repeat builds the fan with a cold Weyl-group cache, as the benchmark
does, after a garbage collection.  The repeats of a case alternate with
those of the other cases, so that each case meets the host at several
speeds.  Run it with two libraries on PYTHONPATH, one after the other and
more than once, to compare them."""

import gc
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from fanbuild import GRID, parse_J  # noqa: E402
from weylfan.fans import parabolic_fan  # noqa: E402
from weylfan.rootdata import build_root_datum, weyl_enumerate  # noqa: E402

REPEATS = 40
CALLS = ("build", "face order", "validate")


def timed(call) -> tuple[float, object]:
    start = time.perf_counter()
    out = call()
    return time.perf_counter() - start, out


def case_times(datum, J: frozenset, validate: bool) -> list[float]:
    """The seconds of the three calls of one case, the last None if the grid
    does not validate it."""
    gc.collect()
    weyl_enumerate.cache_clear()
    build, fan = timed(lambda: parabolic_fan(datum, J))
    order, _ = timed(lambda: fan.face_order)
    return [build, order, timed(fan.validate)[0] if validate else None]


def main() -> int:
    cases = [(name, J, validate) for name, J, validate, *_rest in GRID]
    datums = {name: build_root_datum(name) for name, _, _ in cases}
    best = [[float("inf")] * 3 for _ in cases]
    for _ in range(REPEATS):
        for low, (name, J, validate) in zip(best, cases):
            for c, t in enumerate(case_times(datums[name], parse_J(J), validate)):
                if t is not None:
                    low[c] = min(low[c], t)

    def row(label: str, seconds: list[float]) -> str:
        cells = (f"{t * 1e3:12.3f}" if t < float("inf") else f"{'-':>12}" for t in seconds)
        return f"{label:<16}" + "".join(cells)

    print(f"{f'ms, best of {REPEATS}':<16}" + "".join(f"{call:>12}" for call in CALLS))
    for (name, J, _), low in zip(cases, best):
        print(row(f"{name} {{{J}}}", low))
    sums = [sum(low[c] for low in best if low[c] < float("inf")) for c in range(3)]
    print(row("sum", sums) + f"   total {sum(sums) * 1e3:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
