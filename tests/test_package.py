"""The lazy package surface and the modules each CLI subcommand loads."""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import weylfan

SRC = str(Path(__file__).resolve().parents[1] / "src")

EXPORTS = [
    "AffineRootPattern", "Apartment", "CompactifiedPoint", "Cone", "DiagramSubset",
    "ExtensionSpec", "Fan", "LimitProfile", "LogSeminorm", "NoLimit", "ParabolicType",
    "RootDatum", "StratumDescriptor", "ToyGroupDatum", "ValuedPolynomial", "WeylGroup",
    "WeylfanError", "apartment", "build_root_datum", "compactify", "components",
    "cone_of_parabolic", "cones", "dominance_cone", "embed_extension", "enumerate_strata",
    "errors", "essential_projection", "facade_root_system", "fans", "fiber_direction_space",
    "gaussnorm", "is_J_relevant", "is_non_degenerate", "is_special_vertex",
    "is_virtually_special", "limit_of_profile", "limit_of_ray", "linalg", "make_apartment",
    "orthogonal_complement", "parabolic_fan", "parabolics", "project_to_facade",
    "rational_dense_sample", "ray_profile", "rootdata", "special_witness", "theta_boundary",
    "theta_full", "theta_restricted", "transitivity_solve", "weyl_enumerate", "weyl_fan",
]


def run_python(code: str) -> str:
    """Run `code` in a fresh interpreter that imports this checkout's library."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_exports_are_unchanged():
    assert len(EXPORTS) == 54
    assert sorted(weylfan.__all__) == EXPORTS
    assert set(weylfan.__all__) <= set(dir(weylfan))


def test_exports_are_the_defining_module_objects():
    for name in EXPORTS:
        value = getattr(weylfan, name)
        if isinstance(value, ModuleType):
            assert value is sys.modules[f"weylfan.{name}"]
        else:
            assert getattr(sys.modules[value.__module__], name) is value, name


def test_unknown_attribute():
    with pytest.raises(AttributeError, match="module 'weylfan' has no attribute 'no_such_name'"):
        weylfan.no_such_name  # noqa: B018


def test_star_import_in_a_fresh_interpreter():
    out = run_python(
        "import json, sys\n"
        "import weylfan\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('weylfan.'))\n"
        "from weylfan import *\n"
        "print(json.dumps([loaded, sorted(n for n in weylfan.__all__ if n in globals())]))\n"
    )
    loaded, bound = json.loads(out)
    assert loaded == []  # the package imports no submodule by itself
    assert bound == EXPORTS


BASE = {"cli", "errors", "linalg", "rootdata", "serialize"}
APARTMENT = BASE | {"apartment"}
FANS = BASE | {"cones", "fans"}
STRATA = FANS | {"parabolics"}
LIMIT = STRATA | {"compactify"}
POLY = '{"monomials":[{"exp":{"(-a2,1)":2},"logc":"-3/2"}]}'

SUBCOMMANDS = [
    (["rootsys", "--datum", "A2"], BASE),
    (["special", "--datum", "A1", "--point", "1/3"], APARTMENT),
    (["embed", "--datum", "A1", "--e", "6"], APARTMENT),
    (["transitivity", "--datum", "A2", "--x", "0,0", "--y", "1/3,1/2"], APARTMENT),
    (["fan", "--datum", "A2", "--J", "a1"], FANS),
    (["cone", "--datum", "A2", "--vector", "1,2"], FANS),
    (["check", "--datum", "A2"], FANS),
    (["strata", "--datum", "A2", "--J", "a1"], STRATA),
    (["limit", "--datum", "A2", "--base", "0,0", "--dir", "1,1"], LIMIT),
    (
        ["seminorm", "--datum", "A2", "--T", "a1", "--point", "1/2,1/3", "--poly-json", POLY],
        LIMIT | {"gaussnorm"},
    ),
]


@pytest.mark.parametrize("argv,modules", SUBCOMMANDS, ids=[a[0] for a, _ in SUBCOMMANDS])
def test_subcommand_loads_only_its_layers(argv, modules):
    out = run_python(
        "import contextlib, io, json, sys\n"
        "from weylfan.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = run({argv!r})\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('weylfan.'))\n"
        "print(json.dumps([code, loaded]))\n"
    )
    code, loaded = json.loads(out)
    assert code == 0
    assert loaded == sorted(f"weylfan.{m}" for m in modules)
