"""weylfan benchmark: one run of one workload.

    python3 perfbench/run.py --workload fan_build --seed 1 --seconds 36 --trace 0

Run it from the repository root (it finds the library in `src/` beside
`perfbench/` and refuses any other copy).  With `--trace 0` it measures the
end-to-end metrics, with times scaled to a reference machine speed (see
`common.SpeedProbe`); with `--trace 1` it runs a warm-up pass, one pass
untraced, the same pass with spans around the library's public functions
and the pass untraced again, and reports the per-layer metrics and the
tracing overhead.  `--smoke` swaps in tiny inputs for the benchmark's own
tests.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from statistics import median
from time import perf_counter

import clicalls
import fanbuild
import layers
import querymix
from common import (
    OUT_DIR,
    REF_PROBE_S,
    BenchError,
    SpeedProbe,
    Tally,
    end_to_end,
    load_library,
    peak_rss_mb,
    pin_to_one_cpu,
    run_passes,
    run_specs,
    timed_setups,
)
from spans import Tracer

WORKLOADS = {"fan_build": fanbuild, "query_mix": querymix, "cli_calls": clicalls}
EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def untraced(lib, workload: str, seed: int, seconds: float, smoke: bool, expected: dict):
    module = WORKLOADS[workload]
    setup = module.make_setup(lib, seed, smoke, expected)
    start = perf_counter()
    state, setup_times, setup_probe = timed_setups(setup, seconds)
    setup_s = median(setup_times) * setup_probe.scale()
    probe = SpeedProbe()
    remaining = seconds - (perf_counter() - start)
    tally = run_passes(lambda: module.pass_specs(state), remaining, module.MIN_PASSES, probe)
    rss = peak_rss_mb(children=workload == "cli_calls")
    metrics = end_to_end(tally, setup_s, module.TAIL_P, rss, probe.scale())
    for phase, p in (("set-up", setup_probe), ("operations", probe)):
        print(
            f"speed probe, {phase}: mean {p.mean_s() * 1e3:.4f} ms over {len(p.samples_ns)} samples;"
            f" times scaled by {p.scale():.4f} to the reference {REF_PROBE_S * 1e3:g} ms"
        )
    return tally, metrics, state


def traced(lib, workload: str, seed: int, smoke: bool, expected: dict):
    module = WORKLOADS[workload]
    state = module.make_setup(lib, seed, smoke, expected)()
    weyl_cache = lib.rootdata.weyl_enumerate  # unwrapped: the tracer is not installed yet
    if workload == "cli_calls":
        specs = lambda: clicalls.inprocess_specs(state, lib, weyl_cache)  # noqa: E731
    else:
        specs = lambda: module.pass_specs(state)  # noqa: E731
    # a discarded warm-up pass, so that state the library builds on first
    # use is not counted; then untraced passes before and after the traced
    # one, so that a drift in machine speed during the run cancels out of
    # the overhead
    warm_up = run_specs(specs())
    before = run_specs(specs())
    tracer = Tracer()
    layers.install(tracer, weyl_cache)
    try:
        ops = run_specs(specs(), section=tracer.section)
    finally:
        tracer.uninstall()
    after = run_specs(specs())
    tally = Tally([warm_up, before, ops, after])
    run = {
        "import_s": clicalls.import_seconds() if workload == "cli_calls" else 0.0,
        "lowdim_share": state.lowdim_share() if workload == "query_mix" else 0.0,
        "untraced_s": sum(op.ns for op in before + after) / 2e9,
        "traced_s": sum(op.ns for op in ops) / 1e9,
        "outcomes": Tally([ops]).outcome_shares(),
    }
    metrics = layers.per_layer(tracer, run)
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl.gz"))
    return tally, metrics, state


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = parser.parse_args(argv)

    pin_to_one_cpu()
    try:
        lib = load_library()
        with open(EXPECTED) as fh:
            expected = json.load(fh)
    except (BenchError, OSError) as exc:
        print(f"cannot run the benchmark: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        tally, metrics, state = traced(lib, args.workload, args.seed, args.smoke, expected)
    else:
        tally, metrics, state = untraced(
            lib, args.workload, args.seed, args.seconds, args.smoke, expected
        )

    ops = tally.all_ops()
    failures = tally.failures()
    print(
        f"{args.workload} seed {args.seed} trace {args.trace}: {len(tally.passes)} passes, "
        f"{len(ops)} operations, failed_ops_frac {len(failures) / len(ops):.4f}"
    )
    print("outcome shares:", json.dumps(tally.outcome_shares()))
    if args.workload == "query_mix":
        print(f"queries landing on lower-dimensional cones: {state.lowdim_share():.4f}")
    for op in failures[:10]:
        print(f"FAILED {op.kind}: {op.detail}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    if args.trace:
        m = {k: v for k, (v, _u) in metrics.items()}
        # the self times sum to the time under top-level spans, so this adds
        # up by construction; what it shows is the unattributed share
        print(
            f"traced wall {m['trace.wall_s']:.4f} s = self times {m['trace.self_sum_s']:.4f} s"
            f" + unattributed {m['trace.unattributed_s']:.4f} s"
            f" ({m['trace.unattributed_s'] / m['trace.wall_s']:.2%});"
            f" overhead x{m['trace.overhead_ratio']:.3f}"
        )
    result = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
