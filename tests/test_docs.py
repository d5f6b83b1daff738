"""The prose of the library names what exists: every dotted reference to a
library name in README.md and in the sources resolves."""

from importlib import import_module
from pathlib import Path
import re

import weylfan

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "weylfan").glob("*.py"))

# `fans.standard_type`, `Fan.read_index`, `RootDatum.levi_roots(subset)`
DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\([^`]*\))?`")


def library_names() -> dict:
    """The names a reference may start with: the package, its modules (and
    `la`, the modules' name for `linalg`) and the classes they define."""
    modules = {path.stem: import_module(f"weylfan.{path.stem}") for path in SOURCES}
    del modules["__init__"]
    classes = {
        name: value
        for module in modules.values()
        for name, value in vars(module).items()
        if isinstance(value, type) and value.__module__ == module.__name__
    }
    return {**classes, **modules, "la": modules["linalg"], "weylfan": weylfan}


def has_name(owner, name: str) -> bool:
    """Whether `name` is an attribute of `owner`, or for a class a field it
    annotates or an attribute its `__init__` stores."""
    if hasattr(owner, name):
        return True
    if not isinstance(owner, type):
        return False
    init = vars(owner).get("__init__")
    stored = init.__code__.co_names if hasattr(init, "__code__") else ()
    return name in stored or any(name in vars(k).get("__annotations__", {}) for k in owner.__mro__)


def references() -> list[tuple[str, str]]:
    """(file, reference) for each dotted reference to a library name."""
    names = library_names()
    return [
        (path.name, ref)
        for path in [ROOT / "README.md", *SOURCES]
        for ref in DOTTED.findall(path.read_text())
        if ref.split(".")[0] in names
    ]


def resolves(ref: str, names: dict) -> bool:
    head, *rest = ref.split(".")
    owner = names[head]
    for name in rest:
        if not has_name(owner, name):
            return False
        owner = getattr(owner, name, None)
    return True


def test_dotted_references_resolve():
    names = library_names()
    found = references()
    assert len(found) > 50  # the pattern still finds the references
    assert [(path, ref) for path, ref in found if not resolves(ref, names)] == []


def test_a_stale_reference_is_caught():
    names = library_names()
    for ref in ["fans.standard_type", "parabolics.core_generating_set", "Fan.no_such_field"]:
        assert not resolves(ref, names)
    for ref in ["Fan.read_index", "RootDatum.cartan", "Fan.cones", "la.scaled_inverse"]:
        assert resolves(ref, names)
