"""The lazy package surface and the modules each CLI subcommand loads."""

import ast
import json
import os
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from types import ModuleType

import pytest

import weylfan
from weylfan import (
    AffineRootPattern,
    DiagramSubset,
    ExtensionSpec,
    ParabolicType,
    ToyGroupDatum,
    ValuedPolynomial,
    build_root_datum,
    components,
    cone_of_parabolic,
    dominance_cone,
    embed_extension,
    enumerate_strata,
    essential_projection,
    is_J_relevant,
    is_non_degenerate,
    is_virtually_special,
    limit_of_ray,
    make_apartment,
    orthogonal_complement,
    parabolic_fan,
    special_witness,
    theta_restricted,
    transitivity_solve,
    weyl_enumerate,
)
from weylfan._value import replace
from weylfan.apartment import SymbolicEntry, ValueGroup, levi_point_from_pairings
from weylfan.compactify import ray_profile
from weylfan.errors import DegenerateJ, NonRootSystem, TypeMismatch
from weylfan.linalg import NEG_INF

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


BASE = {"_value", "cli", "errors", "linalg", "rootdata", "serialize"}
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
        "heavy = [m for m in ('dataclasses', 'inspect') if m in sys.modules]\n"
        "print(json.dumps([code, loaded, heavy]))\n"
    )
    code, loaded, heavy = json.loads(out)
    assert code == 0
    assert loaded == sorted(f"weylfan.{m}" for m in modules)
    assert heavy == []  # `dataclasses` would also load `inspect`, `ast` and `dis`


def test_library_imports_only_the_standard_library():
    for path in sorted(Path(SRC, "weylfan").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)
                assert name.split(".")[0] != "dataclasses", (path.name, name)  # see `_value`
                # no gc.disable() or gc.freeze(): either is a side effect on
                # the whole calling process, so speed must come from fewer
                # tracked objects
                assert name.split(".")[0] != "gc", (path.name, name)


def test_value_classes_are_immutable_records():
    """Equality and hash read the fields (a cone's not its stored forms),
    between instances of one class; fields cannot be assigned or deleted,
    the repr names them, and `replace` runs the class's checks."""
    a2 = build_root_datum("A2")
    assert ExtensionSpec(2) == ExtensionSpec(2) != ExtensionSpec(3)
    assert hash(ValueGroup("bc", 3)) == hash(ValueGroup("bc", 3))
    assert DiagramSubset(a2, frozenset({0})) != ParabolicType(a2, frozenset({0}))

    chamber = parabolic_fan(a2).cones[-1]
    trimmed = replace(chamber, ins=chamber.ins[1:])
    assert trimmed == chamber and hash(trimmed) == hash(chamber)
    assert trimmed.ins != chamber.ins
    assert replace(chamber, rays=chamber.rays[1:]) != chamber
    with pytest.raises(AttributeError):
        chamber.rays = ()
    with pytest.raises(AttributeError):
        del chamber.rays
    assert chamber.key == (chamber.lineality, chamber.rays)  # a cached_property

    assert repr(ValueGroup("bc", 3)) == "ValueGroup(kind='bc', d=3)"
    assert repr(replace(ExtensionSpec(2), e=5)) == "ExtensionSpec(e=5)"
    with pytest.raises(NonRootSystem, match="^ramification index must be >= 1$"):
        replace(ExtensionSpec(2), e=0)


def _subset_calls():
    """Each exported entry point reading a subset of the A2 basis, with the
    code it raises for an entry that is not an index of a simple root."""
    a2 = build_root_datum("A2")
    fan = parabolic_fan(a2, [1])
    one = a2.simple_reflections[0]
    return {
        "DiagramSubset": (NonRootSystem, lambda s: DiagramSubset(a2, s)),
        "components": (NonRootSystem, lambda s: components(a2, s)),
        "orthogonal_complement": (NonRootSystem, lambda s: orthogonal_complement(a2, s)),
        "subgroup_elements": (NonRootSystem, lambda s: weyl_enumerate(a2).subgroup_elements(s)),
        "parabolic_fan": (DegenerateJ, lambda s: parabolic_fan(a2, s)),
        "enumerate_strata": (DegenerateJ, lambda s: enumerate_strata(a2, s)),
        "is_J_relevant J": (DegenerateJ, lambda s: is_J_relevant(a2, s, [])),
        "is_J_relevant T": (NonRootSystem, lambda s: is_J_relevant(a2, [], s)),
        "cone_of_parabolic": (TypeMismatch, lambda s: cone_of_parabolic(fan, s, one)),
        "ParabolicType": (NonRootSystem, lambda s: ParabolicType(a2, s)),
        "is_non_degenerate": (NonRootSystem, lambda s: is_non_degenerate(a2, s)),
        "dominance_cone": (NonRootSystem, lambda s: dominance_cone(a2, s)),
        "for_parabolic": (NonRootSystem, lambda s: ToyGroupDatum.for_parabolic(a2, s)),
        "essential_projection": (NonRootSystem, lambda s: essential_projection(a2, s, (1, 0))),
    }


def _positive_int_calls():
    """Each exported entry point reading a positive integer, with its message."""
    a1, a2 = build_root_datum("A1"), build_root_datum("A2")
    apt = make_apartment(a1)
    root = ToyGroupDatum.for_parabolic(a2, [0]).psi[0]
    denominator = "^value group denominator must be positive$"
    return {
        "make_apartment": (denominator, lambda n: make_apartment(a1, [n])),
        "AffineRootPattern": (
            denominator,
            lambda n: AffineRootPattern.from_simple_denominators(a1, [n]),
        ),
        "ExtensionSpec": ("^ramification index must be >= 1$", lambda n: ExtensionSpec(n)),
        "embed_extension": (
            "^ramification index must be >= 1$",
            lambda n: embed_extension(apt, ExtensionSpec(n)),
        ),
        "transitivity_solve": (
            denominator,
            lambda n: transitivity_solve(a2, (0, 0), (1, 1), gamma_denominator=n),
        ),
        "for_parabolic": (
            "^multiplicity of .* must be at least 1$",
            lambda n: ToyGroupDatum.for_parabolic(a2, [0], {root: n}),
        ),
        "for_full_cell": (
            "^multiplicity of .* must be at least 1$",
            lambda n: ToyGroupDatum.for_full_cell(a2, {root: n}),
        ),
        "ValueGroup.rescale": (
            "^ramification index must be >= 1$",
            lambda n: apt.pattern.groups[0][1].rescale(n),
        ),
        "AffineRootPattern.rescale": (
            "^ramification index must be >= 1$",
            lambda n: apt.pattern.rescale(n),
        ),
    }


@pytest.mark.parametrize("value", [5, -1, 1.0, True, [0]], ids=repr)
@pytest.mark.parametrize("call", sorted(_subset_calls()))
def test_subsets_of_the_basis_take_only_simple_root_indices(call, value):
    """A subset entry past the rank, negative, a float, a bool or an
    unhashable one is a structured error: it is neither wrapped, coerced
    nor ignored."""
    error, run = _subset_calls()[call]
    with pytest.raises(error):
        run([value])


@pytest.mark.parametrize("value", [0, 1.5, True], ids=repr)
@pytest.mark.parametrize("call", sorted(_positive_int_calls()))
def test_positive_integers_are_ints_of_at_least_one(call, value):
    message, run = _positive_int_calls()[call]
    with pytest.raises(NonRootSystem, match=message):
        run(value)


@pytest.mark.parametrize("value", [5, None], ids=repr)
@pytest.mark.parametrize("call", sorted(_subset_calls()))
def test_a_subset_that_is_not_iterable_is_one_bad_entry(call, value):
    error, run = _subset_calls()[call]
    with pytest.raises(error):
        run(value)


@pytest.mark.parametrize("record", [DiagramSubset, ParabolicType])
def test_subset_records_store_their_indices_as_a_frozenset(record):
    a2 = build_root_datum("A2")
    given, stored = record(a2, [0, 0]), record(a2, frozenset({0}))
    assert type(given.indices) is frozenset
    assert given == stored and hash(given) == hash(stored)
    if record is ParabolicType:
        assert given.levi_roots == stored.levi_roots == ((-1, 0), (1, 0))


def _point_calls():
    """Each exported entry point reading a point, with the point passed on."""
    a2 = build_root_datum("A2")
    fan = parabolic_fan(a2, [0])
    tg = ToyGroupDatum.for_parabolic(a2, [0])
    apt = make_apartment(a2)
    return {
        "cone_containing": fan.cone_containing,
        "limit_of_ray base": lambda p: limit_of_ray(fan, p, (1, 1)),
        "limit_of_ray direction": lambda p: limit_of_ray(fan, (0, 0), p),
        "theta_restricted": lambda p: theta_restricted(tg, p),
        "special_witness": lambda p: special_witness(apt, p),
        "is_virtually_special": lambda p: is_virtually_special(apt, p),
        "transitivity_solve x": lambda p: transitivity_solve(a2, p, (0, 0)),
        "transitivity_solve y": lambda p: transitivity_solve(a2, (0, 0), p),
    }


@pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), float("-inf"), "x", None, "1", True], ids=repr
)
@pytest.mark.parametrize("call", sorted(_point_calls()))
def test_a_coordinate_that_is_not_a_finite_rational_is_named(call, value):
    run = _point_calls()[call]
    with pytest.raises(NonRootSystem, match=f"^coordinate {re.escape(repr(value))} is not a"):
        run((1, value))


@pytest.mark.parametrize("value", [None, 5, "12"], ids=repr)
@pytest.mark.parametrize("call", sorted(_point_calls()))
def test_a_point_that_is_not_iterable_is_named(call, value):
    run = _point_calls()[call]
    with pytest.raises(NonRootSystem, match=f"^{value!r} is not a sequence of coordinates$"):
        run(value)


def _coordinate_calls():
    """The other readers of rational coordinates: explicit roots, Levi
    pairings and symbolic entries, each given the bad entry where a
    coordinate belongs."""
    a2 = build_root_datum("A2")
    return {
        "explicit root": lambda c: build_root_datum([[c], [1], [-1]], basis=[1]),
        "levi pairing": lambda c: levi_point_from_pairings(a2, [0], (c,)),
        "symbolic rational": lambda c: SymbolicEntry(c),
        "symbolic coefficient": lambda c: SymbolicEntry(0, (("s", 1), ("s", c))),
    }


@pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), float("-inf"), "x", None, "1", True], ids=repr
)
@pytest.mark.parametrize("call", sorted(_coordinate_calls()))
def test_roots_and_pairings_name_a_coordinate_that_is_not_a_finite_rational(call, value):
    run = _coordinate_calls()[call]
    with pytest.raises(NonRootSystem, match=f"^coordinate {re.escape(repr(value))} is not a"):
        run(value)


@pytest.mark.parametrize("value", [None, 5, "2"], ids=repr)
def test_roots_and_pairings_that_are_not_iterable_are_named(value):
    a2 = build_root_datum("A2")
    for run in [
        lambda: build_root_datum([value, [1], [-1]], basis=[1]),
        lambda: levi_point_from_pairings(a2, [0], value),
    ]:
        with pytest.raises(NonRootSystem, match=f"^{value!r} is not a sequence of coordinates$"):
            run()


@pytest.mark.parametrize(
    "symbols,message",
    [
        (((1, 1),), "^symbol 1 is not a string$"),
        ((("s", 1), (None, 1)), "^symbol None is not a string$"),
        (5, "^symbols 5 are not"),
        (None, "^symbols None are not"),
        ((("s", 1, 2),), r"^symbols \(\('s', 1, 2\),\) are not \(symbol, coefficient\) pairs$"),
    ],
    ids=repr,
)
def test_symbolic_entries_take_string_symbols_in_pairs(symbols, message):
    with pytest.raises(NonRootSystem, match=message):
        SymbolicEntry(0, symbols)


@pytest.mark.parametrize("value", [None, 5], ids=repr)
def test_a_root_list_that_is_not_iterable_is_named(value):
    with pytest.raises(NonRootSystem, match=f"^{value!r} is not a list of roots$"):
        build_root_datum(value, basis=[0])


@pytest.mark.parametrize(
    "exponent,message",
    [
        (Fraction(3, 2), "are not all ints$"),
        (Fraction(1), "are not all ints$"),
        (1.0, "are not all ints$"),
        (True, "are not all ints$"),
        ("1", "are not all ints$"),
        (-1, "^exponents must be nonnegative$"),  # the message the CLI prints
    ],
    ids=repr,
)
def test_polynomial_exponents_are_ints_of_at_least_zero(exponent, message):
    with pytest.raises(NonRootSystem, match=message):
        ValuedPolynomial.from_terms(2, {(exponent, 0): Fraction(0)})


@pytest.mark.parametrize(
    "call,message",
    [
        (("from_terms", 1, {(0,): True}), "^coefficient log-value True is not an int"),
        (("from_terms", 1, {(0,): "1/2"}), "^coefficient log-value '1/2' is not an int"),
        (("from_terms", 1, {(0,): Decimal("0.5")}), r"^coefficient log-value Decimal\('0.5'\)"),
        (("from_terms", 1, {(0,): None}), "^coefficient log-value None is not an int"),
        (("from_terms", 1, {(0,): 0.5}), "^coefficient log-value 0.5 is not an int"),
        (("from_terms", 1, {(0,): float("inf")}), "^coefficient log-value inf is not an int"),
        (("from_terms", 1, {0: Fraction(0)}), "^exponents 0 are not a tuple of width 1$"),
        (("from_terms", 2, {(0,): Fraction(0)}), r"^exponents \(0,\) are not a tuple of width 2$"),
        (("from_terms", 1, None), "^terms None are not a dict of exponents to log-values$"),
        (("from_terms", 1, [((0,), 1)]), r"^terms \[\(\(0,\), 1\)\] are not a dict"),
        (("coordinate", 2, 5), r"^position 5 is not in range\(2\)$"),
        (("coordinate", 2, -1), r"^position -1 is not in range\(2\)$"),
        (("coordinate", 2, True), r"^position True is not in range\(2\)$"),
        (("coordinate", 2, 1.0), r"^position 1.0 is not in range\(2\)$"),
        (("constant", 1, "0"), "^coefficient log-value '0' is not an int"),
    ],
    ids=repr,
)
def test_polynomials_take_exact_coefficients_and_positions(call, message):
    """Coefficients are ints (not bools), Fractions or -inf, exponent keys
    tuples of the width and positions ints in range(width); anything else
    is NonRootSystem naming it, where it was coerced or a bare error."""
    name, *args = call
    with pytest.raises(NonRootSystem, match=message):
        getattr(ValuedPolynomial, name)(*args)
    poly = ValuedPolynomial.from_terms(2, {(0, 1): 3, (1, 0): Fraction(1, 2), (1, 1): NEG_INF})
    assert poly.terms == (((0, 1), Fraction(3)), ((1, 0), Fraction(1, 2)))


@pytest.mark.parametrize(
    "lookup,message",
    [
        ("position", r"^\(\(5, 5\), 1\) is not a coordinate of the cell$"),
        ("value_of", r"^\(\(1, 0\), 1\) is not a coordinate of the cell$"),
        ("profile", r"^\(5, 5\) is not a root of the profile's datum$"),
        ("profile list", r"^\[1, 0\] is not a root of the profile's datum$"),
        ("apartment", "^denominators 5 are not a sequence$"),
        ("multiplicities", "^multiplicities 5 are not a dict of roots$"),
    ],
    ids=repr,
)
def test_lookups_of_what_is_not_there_name_it(lookup, message):
    """A coordinate, root or argument that is not there raises
    NonRootSystem naming it, not a bare ValueError, KeyError or TypeError."""
    a2 = build_root_datum("A2")
    tg = ToyGroupDatum.for_parabolic(a2, [0])  # (1, 0) lies in the Levi
    call = {
        "position": lambda: tg.position((5, 5), 1),
        "value_of": lambda: theta_restricted(tg, (1, 2)).value_of((1, 0)),
        "profile": lambda: ray_profile(a2, (0, 0), (1, 2)).value((5, 5)),
        "profile list": lambda: ray_profile(a2, (0, 0), (1, 2)).value([1, 0]),
        "apartment": lambda: make_apartment(a2, 5),
        "multiplicities": lambda: ToyGroupDatum.for_parabolic(a2, [0], 5),
    }[lookup]
    with pytest.raises(NonRootSystem, match=message):
        call()


@pytest.mark.parametrize(
    "cell,key",
    [
        ("for_parabolic", (5, 5)),
        ("for_parabolic", (1, 0)),  # a root of A2, but in the Levi of {a1}
        ("for_parabolic", "a1"),
        ("for_full_cell", (5, 5)),
        ("for_full_cell", (2, 0)),
        ("for_full_cell", "a1"),
    ],
    ids=repr,
)
def test_multiplicities_only_of_coordinate_roots(cell, key):
    a2 = build_root_datum("A2")
    make = {
        "for_parabolic": lambda m: ToyGroupDatum.for_parabolic(a2, [0], m),
        "for_full_cell": lambda m: ToyGroupDatum.for_full_cell(a2, m),
    }[cell]
    with pytest.raises(NonRootSystem, match="are not coordinate roots$"):
        make({key: 2})
