"""Exact rational root systems, merged Weyl fans, compactified apartments,
and max-plus Gauss seminorms.

The package exports load on first use (PEP 562): `import weylfan` imports
no submodule, and `weylfan.parabolic_fan` imports `weylfan.fans` (with what
it needs) the first time it is read."""

from importlib import import_module

# export name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "apartment": (
            "AffineRootPattern", "Apartment", "ExtensionSpec", "embed_extension",
            "essential_projection", "is_special_vertex", "is_virtually_special",
            "make_apartment", "rational_dense_sample", "special_witness", "transitivity_solve",
        ),
        "compactify": (
            "CompactifiedPoint", "LimitProfile", "NoLimit", "limit_of_profile",
            "limit_of_ray", "project_to_facade", "ray_profile",
        ),
        "cones": ("Cone",),
        "errors": ("WeylfanError",),
        "fans": ("Fan", "cone_of_parabolic", "parabolic_fan", "weyl_fan"),
        "gaussnorm": (
            "LogSeminorm", "ToyGroupDatum", "ValuedPolynomial", "fiber_direction_space",
            "theta_boundary", "theta_full", "theta_restricted",
        ),
        "parabolics": (
            "ParabolicType", "StratumDescriptor", "dominance_cone", "enumerate_strata",
            "facade_root_system", "is_J_relevant", "is_non_degenerate",
        ),
        "rootdata": (
            "DiagramSubset", "RootDatum", "WeylGroup", "build_root_datum", "components",
            "orthogonal_complement", "weyl_enumerate",
        ),
    }.items()
    for name in names
}
# submodules exported under their own names
_SUBMODULES = frozenset({*_EXPORTS.values(), "linalg"})

__all__ = sorted([*_EXPORTS, *_SUBMODULES])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")  # binds itself on the package
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
