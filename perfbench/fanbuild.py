"""fan_build: build, order and validate merged Weyl fans on a fixed grid.

Every case starts with a cold Weyl-group cache, as a user building one fan
would.  A case runs `parabolic_fan`, the first access of `Fan.face_order`
and, except for BC3 with J empty and the rank 4 case (A4), `Fan.validate()`.
An operation is one of these three public calls.  The seed only shuffles
the order of the cases.
"""

from __future__ import annotations

import gc
import random

from common import Spec

# (type, J as labels, validate?, large?, repeats per pass) -- large cases
# feed large_s.  Cases repeat within a pass so that each call's median time
# is taken over several samples; cheap cases repeat more often, since that
# costs little.  BC3 with J empty is built and ordered but not validated:
# its 6 s validation cannot be repeated often enough in a run to give a
# steady time (G2, BC2 and A1xA2 cover validation with J empty).
GRID = [
    ("G2", "", True, False, 3),
    ("G2", "a1", True, False, 3),
    ("BC2", "", True, False, 3),
    ("BC2", "a1", True, False, 3),
    ("A1xA2", "", True, False, 2),
    ("A1xA2", "a2", True, False, 2),
    ("BC3", "", False, False, 1),
    ("BC3", "a1,a2", True, False, 1),
    ("A4", "a1,a2,a3", False, True, 2),
]
SMOKE_GRID = [
    ("A2", "", True, False, 2),
    ("BC2", "a1", True, False, 1),
    ("A1xA2", "a2", False, True, 1),
]
# nearest-rank percentile for op_tail_ms: 25 distinct operations leave 10
# above p60
TAIL_P = 60
MIN_PASSES = 2


def case_key(name: str, J: str) -> str:
    return f"{name}|{J}"


def parse_J(J: str) -> frozenset[int]:
    return frozenset(int(label[1:]) - 1 for label in J.split(",") if label)


class State:
    def __init__(self, lib, grid, expected, weyl_cache):
        self.lib = lib
        self.grid = grid
        self.expected = expected
        self.weyl_cache = weyl_cache  # the unwrapped lru_cache, for cache_clear
        names = dict.fromkeys(name for name, *_rest in grid)
        self.datums = {name: lib.rootdata.build_root_datum(name) for name in names}


def make_setup(lib, seed: int, smoke: bool, expected: dict):
    """A zero-argument set-up function; the seed fixes the case order."""
    grid = list(SMOKE_GRID if smoke else GRID)
    random.Random(seed).shuffle(grid)
    weyl_cache = lib.rootdata.weyl_enumerate
    return lambda: State(lib, grid, expected["fan_build"], weyl_cache)


def _equal(what, got, want):
    return None if got == want else f"{what}: got {got}, expected {want}"


def pass_specs(state: State) -> list[Spec]:
    """Rounds over the grid; a case with n repeats runs in the first n rounds.

    The repeats of a case are spread over the pass rather than run back to
    back, so that they meet the host at different speeds.
    """
    specs = []
    for round_ in range(max(case[4] for case in state.grid)):
        for case, (name, J, validate, large, repeats) in enumerate(state.grid):
            if round_ < repeats:
                specs += _case_specs(state, 3 * case, name, J, validate, large)
    return specs


def _case_specs(state: State, ident: int, name: str, J: str, validate: bool, large: bool):
    """The operations of one case; `ident`, +1, +2 identify its three calls.

    The last call releases the fan, so a pass holds one fan at a time.
    """
    lib = state.lib
    key = case_key(name, J)
    want = state.expected[key]
    datum, subset = state.datums[name], parse_J(J)
    box = {}

    def cold_start():
        # the previous case's fan is gone; collect it now rather than
        # inside this case's timed calls, and start with a cold Weyl cache
        gc.collect()
        state.weyl_cache.cache_clear()

    def build():
        box["fan"] = lib.fans.parabolic_fan(datum, subset)
        return box["fan"]

    specs = [
        Spec(
            f"parabolic_fan {key}",
            large,
            build,
            check=lambda fan: _equal("cones", len(fan), want["cones"]),
            before=cold_start,
            ident=ident,
        ),
        Spec(
            f"face_order {key}",
            large,
            lambda: (box["fan"] if validate else box.pop("fan")).face_order,
            check=lambda pairs: _equal("face pairs", len(pairs), want["face_order"]),
            ident=ident + 1,
        ),
    ]
    if validate:
        specs.append(
            Spec(
                f"validate {key}",
                large,
                lambda: box.pop("fan").validate(),
                check=lambda stats: _equal("validate", stats, want["validate"]),
                ident=ident + 2,
            )
        )
    return specs
