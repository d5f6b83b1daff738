"""cli_calls: a script of `python -m weylfan.cli` calls, one process at a time.

Each call pays interpreter start, import, root-datum build, a cold Weyl
enumeration and JSON serialisation.  A pass runs three variants of each of
the ten subcommands on small types, three calls that must fail with a
structured error, and three heavy calls, in an order fixed by the seed.  Every call's
exit code and the SHA-256 of its stdout must equal the digest recorded for
it (see `record.py`); CLI documents are meant to stay byte-identical.

The traced run calls `weylfan.cli.run` in-process instead, with the Weyl
cache cleared before each call, and measures the import cost separately as
a fresh interpreter importing `weylfan.cli` minus a bare interpreter.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import statistics
import subprocess
import sys
from time import perf_counter

from common import ROOT, SRC, Spec

POLY_A2 = '{"monomials":[{"exp":{"(-a2,1)":2},"logc":"-3/2"},{"exp":{"(-a1-a2,1)":1},"logc":"1"}]}'
POLY_B2 = '{"monomials":[{"exp":{"(-a1,1)":1},"logc":"2"},{"exp":{"(-a1-2a2,1)":1},"logc":"-1/3"}]}'
POLY_G2 = '{"monomials":[{"exp":{"(-a2,1)":1,"(-3a1-2a2,1)":1},"logc":"0"},{"exp":{"(-a1-a2,1)":2},"logc":"1/2"}]}'

# subcommand -> variants on small types; every pass runs each
CHEAP = {
    "rootsys": [["--datum", "A2"], ["--datum", "BC2"], ["--datum", "G2"]],
    "fan": [["--datum", "A2", "--J", "a1"], ["--datum", "BC2"], ["--datum", "G2", "--J", "a2"]],
    "strata": [["--datum", "B3", "--J", "a1,a3"], ["--datum", "A3", "--J", "a2"], ["--datum", "BC2", "--J", "a1"]],
    "cone": [
        ["--datum", "A2", "--J", "a1", "--vector", "1,2"],
        ["--datum", "B2", "--vector", "1/2,-3"],
        ["--datum", "G2", "--J", "a1", "--vector=-1,1"],
    ],
    "limit": [
        ["--datum", "A2", "--J", "a1", "--base", "0,0", "--dir", "1,1"],
        ["--datum", "B2", "--base", "1/2,0", "--dir", "0,1"],
        ["--datum", "G2", "--J", "a2", "--base", "1,-1", "--dir=-1,2"],
    ],
    "seminorm": [
        ["--datum", "A2", "--T", "a1", "--point", "1/2,1/3", "--poly-json", POLY_A2],
        ["--datum", "B2", "--T", "a2", "--point=-1,2/3", "--poly-json", POLY_B2],
        ["--datum", "G2", "--T", "a1", "--point", "1/4,1", "--poly-json", POLY_G2],
    ],
    "special": [
        ["--datum", "A1", "--gamma", "1", "--point", "1/3"],
        ["--datum", "BC1", "--gamma", "1", "--point", "1/4"],
        ["--datum", "A2", "--gamma", "2", "--point", "1/2,1/4"],
    ],
    "embed": [
        ["--datum", "A1", "--gamma", "1", "--e", "6"],
        ["--datum", "BC2", "--gamma", "1", "--e", "2"],
        ["--datum", "G2", "--gamma", "1,3", "--e", "3"],
    ],
    "transitivity": [
        ["--datum", "A2", "--x", "0,0", "--y", "1/3,1/2"],
        ["--datum", "B2", "--x", "1,0", "--y", "0,1/2"],
        ["--datum", "G2", "--x", "0,0", "--y", "1/2,1/3", "--gamma-denominator", "2"],
    ],
    "check": [["--datum", "A2", "--J", "a1"], ["--datum", "B2"], ["--datum", "BC2", "--J", "a1"]],
}
# calls that must print a structured error (exit 2); every pass runs each
ERRORS = [
    ["fan", "--datum", "A2", "--J", "a1,a2"],  # DegenerateJ
    ["cone", "--datum", "A2", "--vector", "1,2,3"],  # ParseError
    ["transitivity", "--datum", "BC2", "--x", "0,0", "--y", "1,1"],  # NonReduced
]
# heavy calls, which feed large_s; every pass runs each
HEAVY = [
    ["rootsys", "--datum", "F4"],
    ["check", "--datum", "B3", "--J", "a2"],
    ["fan", "--datum", "B3"],
]
SMOKE_SCRIPT = ([["rootsys", "--datum", "A2"], ERRORS[0]], [["fan", "--datum", "A2", "--J", "a1"]])

# nearest-rank percentile for op_tail_ms: 36 calls per pass leave 10 above p70
TAIL_P = 70
MIN_PASSES = 2
WARMUP = ["rootsys", "--datum", "A1"]


def all_calls() -> list[list[str]]:
    """Every call the workload can make, for recording digests."""
    calls = [[cmd, *args] for cmd, variants in CHEAP.items() for args in variants]
    return calls + ERRORS + HEAVY + [WARMUP] + SMOKE_SCRIPT[0] + SMOKE_SCRIPT[1]


def call_key(argv: list[str]) -> str:
    return " ".join(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv: list[str], env: dict) -> tuple[int, bytes]:
    """One CLI call in a fresh interpreter; (exit code, stdout)."""
    proc = subprocess.run(
        [sys.executable, "-m", "weylfan.cli", *argv],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        timeout=150,
    )
    return proc.returncode, proc.stdout


def run_inprocess(lib, argv: list[str]) -> tuple[int, bytes]:
    """One CLI call through `weylfan.cli.run` with stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = lib.cli.run(argv)
    return code, buf.getvalue().encode()


def digest(out: bytes) -> str:
    return hashlib.sha256(out).hexdigest()


class State:
    def __init__(self, seed: int, smoke: bool, expected: dict, env: dict):
        rng = random.Random(seed)
        if smoke:
            small, large = SMOKE_SCRIPT
        else:
            small = [[cmd, *args] for cmd, variants in CHEAP.items() for args in variants]
            small += ERRORS
            large = HEAVY
        script = [(argv, False) for argv in small] + [(argv, True) for argv in large]
        rng.shuffle(script)
        self.script = script
        self.expected = expected
        self.env = env


def make_setup(lib, seed: int, smoke: bool, expected: dict):
    """A zero-argument set-up function: one warm-up CLI call plus the script."""
    env = child_env()
    want = expected["cli_calls"][call_key(WARMUP)]

    def setup():
        code, out = run_cli(WARMUP, env)
        if (code, digest(out)) != (want["exit"], want["sha256"]):
            raise RuntimeError("warm-up CLI call printed an unexpected document")
        return State(seed, smoke, expected["cli_calls"], env)

    return setup


def _specs(state: State, runner, before=None) -> list[Spec]:
    specs = []
    for argv, large in state.script:
        want = state.expected[call_key(argv)]

        def check(result, want=want):
            code, out = result
            got = {"exit": code, "sha256": digest(out)}
            if got != {"exit": want["exit"], "sha256": want["sha256"]}:
                return f"got {got}, recorded {want['exit']} {want['sha256'][:12]}"
            return None

        specs.append(
            Spec(
                argv[0],
                large,
                lambda argv=argv: runner(argv),
                check,
                before=before,
                outcome=want.get("code", "ok"),
            )
        )
    return specs


def pass_specs(state: State) -> list[Spec]:
    return _specs(state, lambda argv: run_cli(argv, state.env))


def inprocess_specs(state: State, lib, weyl_cache) -> list[Spec]:
    return _specs(state, lambda argv: run_inprocess(lib, argv), before=weyl_cache.cache_clear)


def import_seconds(repeats: int = 5) -> float:
    """Median fresh-interpreter `import weylfan.cli` minus a bare interpreter."""
    env = child_env()

    def median_run(code: str) -> float:
        times = []
        for _ in range(repeats):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True, timeout=60)
            times.append(perf_counter() - t0)
        return statistics.median(times)

    return median_run("import weylfan.cli") - median_run("pass")
