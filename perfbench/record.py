"""Record the expected outputs the benchmark checks against.

Run from the repository root at the commit whose behaviour is the
reference:

    python3 perfbench/record.py

It rewrites `perfbench/expected.json` with, for every `fan_build` case, the
cone count, the number of face pairs and the `Fan.validate()` summary, and
for every CLI call the workload can make, its exit code, the SHA-256 of its
stdout and the structured error code, if any.  Recording builds every fan
of the grid once, so it takes about a minute.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess

import clicalls
import fanbuild
from common import ROOT, load_library


def main() -> None:
    lib = load_library()
    fans = {}
    for name, J, validate, _large, _repeats in fanbuild.GRID + fanbuild.SMOKE_GRID:
        if fanbuild.case_key(name, J) in fans:  # a smoke case reusing a grid case
            continue
        datum = lib.build_root_datum(name)
        fan = lib.parabolic_fan(datum, fanbuild.parse_J(J))
        fans[fanbuild.case_key(name, J)] = {
            "cones": len(fan),
            "face_order": len(fan.face_order),
            "validate": fan.validate() if validate else None,
        }
        print(name, J or "-", fans[fanbuild.case_key(name, J)], flush=True)

    env = clicalls.child_env()
    calls = {}
    for argv in clicalls.all_calls():
        code, out = clicalls.run_cli(argv, env)
        entry = {"exit": code, "sha256": clicalls.digest(out)}
        if code not in (0, 2):
            raise SystemExit(f"{argv}: exit {code}; the script must hold no usage errors")
        if code == 2:
            entry["code"] = json.loads(out)["code"]
        calls[clicalls.call_key(argv)] = entry
        print(argv[0], code, entry.get("code", ""), flush=True)

    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()
    doc = {
        "recorded_at": {"commit": commit, "python": platform.python_version()},
        "fan_build": fans,
        "cli_calls": calls,
    }
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
