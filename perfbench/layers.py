"""Which library functions the traced run wraps, and the derived counters.

Layers are the `weylfan` modules.  Every function listed in `SPANS` gets
`<name>.calls` and `<name>.self_s`; every function in `COUNTS` gets
`<name>.calls` only.  `install` adds the post-call hooks that feed the
ratios (`hit_ratio`, `true_ratio`, `nolimit_ratio`, ...) and the work counts
(`rootdata.weyl_elements`, `fans.face_pairs`, `gaussnorm.terms_evaluated`).
"""

from __future__ import annotations

from spans import Tracer

SPANS = [
    ("weylfan.rootdata:weyl_enumerate", "rootdata.weyl_enumerate"),
    ("weylfan.rootdata:build_root_datum", "rootdata.build_root_datum"),
    ("weylfan.cones:dual_description", "cones.dual_description"),
    ("weylfan.cones:Cone.from_system", "cones.Cone.from_system"),
    ("weylfan.cones:Cone.transform", "cones.Cone.transform"),
    ("weylfan.cones:closure_subset", "cones.closure_subset"),
    ("weylfan.cones:is_face_closure", "cones.is_face_closure"),
    ("weylfan.cones:is_face_supporting", "cones.is_face_supporting"),
    ("weylfan.cones:Cone.contains", "cones.Cone.contains"),
    ("weylfan.cones:Cone.sign_of", "cones.Cone.sign_of"),
    ("weylfan.fans:parabolic_fan", "fans.parabolic_fan"),
    ("weylfan.fans:Fan.face_order", "fans.Fan.face_order"),
    ("weylfan.fans:Fan.cone_containing", "fans.Fan.cone_containing"),
    ("weylfan.fans:Fan.validate", "fans.Fan.validate"),
    ("weylfan.fans:Fan.transform_index", "fans.Fan.transform_index"),
    ("weylfan.fans:weyl_facet_points", "fans.weyl_facet_points"),
    ("weylfan.parabolics:enumerate_strata", "parabolics.enumerate_strata"),
    ("weylfan.parabolics:is_J_relevant", "parabolics.is_J_relevant"),
    ("weylfan.parabolics:facade_root_system", "parabolics.facade_root_system"),
    ("weylfan.apartment:is_special_vertex", "apartment.is_special_vertex"),
    ("weylfan.apartment:special_witness", "apartment.special_witness"),
    ("weylfan.apartment:transitivity_solve", "apartment.transitivity_solve"),
    ("weylfan.apartment:embed_extension", "apartment.embed_extension"),
    ("weylfan.compactify:limit_of_ray", "compactify.limit_of_ray"),
    ("weylfan.compactify:ray_profile", "compactify.ray_profile"),
    ("weylfan.compactify:limit_of_profile", "compactify.limit_of_profile"),
    ("weylfan.gaussnorm:theta_restricted", "gaussnorm.theta_restricted"),
    ("weylfan.gaussnorm:LogSeminorm.evaluate", "gaussnorm.LogSeminorm.evaluate"),
    ("weylfan.gaussnorm:theta_boundary", "gaussnorm.theta_boundary"),
    ("weylfan.gaussnorm:cell_charts", "gaussnorm.cell_charts"),
    ("weylfan.gaussnorm:boundary_rays_equal", "gaussnorm.boundary_rays_equal"),
    ("weylfan.serialize:dumps", "serialize.dumps"),
    ("weylfan.cli:run", "cli.run"),
]

COUNTS = [
    ("weylfan.linalg:dot", "linalg.dot.calls"),
    ("weylfan.linalg:primitive", "linalg.primitive.calls"),
    ("weylfan.linalg:rref", "linalg.rref.calls"),
    ("weylfan.linalg:kernel_basis", "linalg.kernel_basis.calls"),
    ("weylfan.linalg:solve", "linalg.solve.calls"),
    ("weylfan.linalg:mat_mul", "linalg.mat_mul.calls"),
]

# ratio name -> (numerator, denominator) counters.  orbit_keep_ratio is
# distinct cones / Weyl images computed; the images are the Cone.transform
# calls made directly by parabolic_fan minus one core transform per kept cone.
RATIOS = {
    "rootdata.weyl_enumerate.hit_ratio": ("_weyl.hits", "_weyl.lookups"),
    "cones.closure_subset.true_ratio": ("_closure_subset.true", "cones.closure_subset.calls"),
    "cones.Cone.contains.hit_ratio": ("_contains.true", "cones.Cone.contains.calls"),
    "compactify.limit_of_profile.nolimit_ratio": (
        "_limit_of_profile.nolimit",
        "compactify.limit_of_profile.calls",
    ),
    "fans.orbit_keep_ratio": ("_orbit.kept", "_orbit.images"),
}

EXTRA_COUNTS = [
    "rootdata.weyl_elements",
    "fans.face_pairs",
    "gaussnorm.terms_evaluated",
]

# documented WeylfanError codes whose share of operations is reported
OUTCOMES = ["NonReduced", "ProfileMismatch", "DegenerateJ", "ParseError"]

# metrics about the run rather than one layer
RUN_METRICS = [
    ("cli.import_s", "s"),  # fresh interpreter importing weylfan.cli minus a bare one
    ("gen.lowdim_share", "ratio"),  # queries landing on lower-dimensional cones
    ("trace.wall_s", "s"),  # wall time inside traced operations
    ("trace.self_sum_s", "s"),  # sum of all span self times
    # traced wall time outside every top-level span: the benchmark's own code
    # in the timed calls, plus library time in functions that are not wrapped
    ("trace.unattributed_s", "s"),
    ("trace.untraced_s", "s"),  # the same operations untraced, mean of two passes
    ("trace.overhead_ratio", "ratio"),  # traced / untraced operation time
]


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for _qualname, name in SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for _qualname, name in COUNTS:
        units[name] = "count"
    for name in EXTRA_COUNTS:
        units[name] = "count"
    for name in RATIOS:
        units[name] = "ratio"
    for code in OUTCOMES:
        units[f"outcome.{code}.share"] = "ratio"
    units.update(RUN_METRICS)
    return units


def per_layer(tracer: Tracer, run: dict) -> dict[str, tuple[float, str]]:
    """All per-layer metrics of a traced run.

    `run` holds the run-level values: `import_s`, `lowdim_share`,
    `untraced_s`, `traced_s` and `outcomes` (code -> share).  A function the
    workload never calls reports 0 calls and 0 s; a ratio with nothing to
    divide by reports 0.
    """
    values = tracer.layer_metrics()
    kept = tracer.counts.get("_orbit.kept", 0)
    images = tracer.children_of("fans.parabolic_fan", "cones.Cone.transform") - kept
    raw = {**values, "_orbit.images": images}
    for name, (num, den) in RATIOS.items():
        d = raw.get(den, 0)
        values[name] = raw.get(num, 0) / d if d else 0.0
    for code in OUTCOMES:
        values[f"outcome.{code}.share"] = run["outcomes"].get(code, 0.0)
    values.update(
        {
            "cli.import_s": run["import_s"],
            "gen.lowdim_share": run["lowdim_share"],
            "trace.wall_s": tracer.wall_ns / 1e9,
            "trace.self_sum_s": tracer.self_sum_ns() / 1e9,
            "trace.unattributed_s": (tracer.wall_ns - tracer.root_ns) / 1e9,
            "trace.untraced_s": run["untraced_s"],
            "trace.overhead_ratio": run["traced_s"] / run["untraced_s"],
        }
    )
    return {name: (values.get(name, 0), unit) for name, unit in metric_units().items()}


def install(tracer: Tracer, weyl_enumerate) -> None:
    """Wrap every listed function; `weyl_enumerate` is the unwrapped original."""
    import weylfan.compactify as compactify

    def counted_weyl_enumerate(datum):
        misses = weyl_enumerate.cache_info().misses
        group = weyl_enumerate(datum)
        if weyl_enumerate.cache_info().misses > misses:
            tracer.count("rootdata.weyl_elements", len(group))
        else:
            tracer.count("_weyl.hits")
        tracer.count("_weyl.lookups")
        return group

    def true_post(counter):
        def post(_args, result):
            if result:
                tracer.count(counter)
        return post

    def fan_post(_args, fan):
        tracer.count("_orbit.kept", len(fan))

    def face_order_post(_args, pairs):
        tracer.count("fans.face_pairs", len(pairs))

    def evaluate_post(args, _result):
        tracer.count("gaussnorm.terms_evaluated", len(args[1].terms))

    def limit_post(_args, result):
        if result is compactify.NoLimit:
            tracer.count("_limit_of_profile.nolimit")

    posts = {
        "cones.closure_subset": true_post("_closure_subset.true"),
        "cones.Cone.contains": true_post("_contains.true"),
        "fans.parabolic_fan": fan_post,
        "fans.Fan.face_order": face_order_post,
        "gaussnorm.LogSeminorm.evaluate": evaluate_post,
        "compactify.limit_of_profile": limit_post,
    }
    for qualname, name in SPANS:
        impl = counted_weyl_enumerate if name == "rootdata.weyl_enumerate" else None
        tracer.install(qualname, name, post=posts.get(name), impl=impl)
    for qualname, name in COUNTS:
        tracer.install(qualname, name, count_only=True)

