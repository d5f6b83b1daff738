"""The fan's sign table: cone location, profile matching, boundary
seminorms and the ray-bitset face order, checked against the scan oracles
in `helpers`, plus the checks that guard them."""

from fractions import Fraction as Q
import random
import re

import pytest

from helpers import (
    FAN_CATALOGUE,
    MUTANT_CLASSES,
    RANK4_CATALOGUE,
    built_fan,
    closure_face_order,
    fan_mutants,
    orbit_labels,
    random_rational_vec,
    ray_reflection_moves,
    reference_admissible_index_sets,
    reference_excluding,
    reference_permuted,
    sample_points,
    scan_cone_containing,
    scan_limit_of_profile,
    reference_standard_cone_system,
    schreier_core,
    standard_cone_system,
    standard_type,
    valid_js,
)
from weylfan import cones, fans
from weylfan import linalg as la
from weylfan._value import replace
from weylfan.apartment import (
    essential_projection,
    is_special_vertex,
    is_virtually_special,
    make_apartment,
    rational_dense_sample,
    special_witness,
    transitivity_solve,
    walls_in_box,
)
from weylfan.compactify import (
    NEG_INF,
    POS_INF,
    LimitProfile,
    NoLimit,
    limit_of_profile,
    limit_of_ray,
    orthogonal_reduction,
    project_to_facade,
    ray_profile,
)
from weylfan.cones import Cone, is_face_closure, is_face_supporting
from weylfan.errors import DimensionMismatch, PartitionFailure, WeylfanError
from weylfan.fans import Fan, _dominant_facet_points, parabolic_fan, weyl_fan, weyl_facet_points
from weylfan.gaussnorm import (
    ToyGroupDatum,
    boundary_chart_values,
    cell_charts,
    theta_boundary,
    theta_restricted,
)
from weylfan.rootdata import build_root_datum, reflect_simple, walk_orbits

def _case(name, J):
    labels = ",".join(f"a{i + 1}" for i in sorted(J))
    return pytest.param(name, tuple(sorted(J)), id=f"{name}-{{{labels}}}")


CATALOGUE_FANS = [
    _case(name, J) for name in FAN_CATALOGUE for J in valid_js(build_root_datum(name))
]
RANK4_FANS = [
    _case(name, J) for name in RANK4_CATALOGUE for J in valid_js(build_root_datum(name))
]


def _orbit_firsts(fan) -> list[int]:
    """The first cone of each orbit of the fan's moves, from its walks."""
    return [cones[0] for cones, _ in fans._orbit_walks(fan._moves, range(len(fan)))]


@pytest.mark.parametrize("name,J", RANK4_FANS)
def test_transported_sign_table_matches_direct_build(name, J):
    """`parabolic_fan` carries each sign row along the orbit walk; a fan
    built by hand from the same cones builds every row directly."""
    fan = parabolic_fan(build_root_datum(name), J)
    assert fan._sign_table == Fan(fan.datum, fan.J, fan.cones, fan.cores)._sign_table


@pytest.mark.parametrize("name,J", CATALOGUE_FANS)
def test_cover_check_records_the_scan_oracle_cone_of_each_facet(name, J):
    """The cover check scans the dominant facet points only, so right after
    the build the sign map holds exactly their 2^rank sign vectors; every
    Weyl facet point is then located where the scan oracle finds it."""
    fan = parabolic_fan(build_root_datum(name), J)
    dominant = {fan._signs(p) for p in _dominant_facet_points(fan.datum)}
    assert len(dominant) == 2 ** fan.datum.rank
    assert set(fan._by_sign) == dominant
    for p in weyl_facet_points(fan.datum):
        assert fan.cone_containing(p) == scan_cone_containing(fan, p)


@pytest.mark.parametrize("name,J", RANK4_FANS)
def test_moves_from_the_rows_match_ray_reflection(name, J):
    """The moves table, one permuted sign row and one lookup per cone and
    reflection, names the cone whose rays are the reflected rays."""
    fan = built_fan(name, J)
    assert fan._moves == ray_reflection_moves(fan)


# B4, D5 and B5 with J empty: 1,697, 12,483 and 24,483 cones, so the
# exclusion bitsets run to thousands of binary digits
KERNEL_FANS = RANK4_FANS + [_case("B4", ()), _case("D5", ()), _case("B5", ())]


@pytest.mark.parametrize("name,J", KERNEL_FANS)
def test_exclusion_bitsets_from_byte_columns_match_the_big_int_oracle(name, J):
    fan = built_fan(name, J)
    assert fan._excluding == reference_excluding(fan)


def test_a_fan_with_no_cones_locates_no_point():
    """No sign column to read: every root excludes no cone, and a point
    lies in none."""
    empty = Fan(build_root_datum("A2"), frozenset(), [], {})
    assert empty._excluding == reference_excluding(empty) == ((0, 0, 0),) * 3
    with pytest.raises(PartitionFailure, match="lies in 0 cones"):
        empty.cone_containing((1, 2))


@pytest.mark.parametrize("name,J", KERNEL_FANS)
def test_sign_permutations_match_the_list_reference(name, J):
    """Every pi_k on every row, A1 and BC1 (one root, so a one-index
    getter) included."""
    fan = built_fan(name, J)
    permutations = fans._sign_permutations(fan.datum)
    assert len(permutations) == fan.datum.rank
    for pi, perm in zip(permutations, fan.datum.root_permutations):
        for row in fan._sign_table:
            assert pi(row) == reference_permuted(row, perm)


def test_the_cover_check_scans_only_the_dominant_facet_points(monkeypatch):
    """F4 has 5,089 Weyl facets; the cover check matches the 2^4 dominant
    ones and leaves the rest to the orbit argument."""
    scanned = []
    record = Fan._record
    monkeypatch.setattr(
        Fan,
        "_record",
        lambda fan, signs, hits, point: scanned.append(point()) or record(fan, signs, hits, point),
    )
    fan = parabolic_fan(build_root_datum("F4"), ())
    assert len(fan) == 5089
    assert len(scanned) == 16
    assert scanned == _dominant_facet_points(fan.datum)


@pytest.mark.parametrize("name", RANK4_CATALOGUE + ["B4", "D5"])
def test_dominant_signs_from_root_supports_match_the_dot_products(name):
    """At the dominant facet point of S a positive root has sign 1 when its
    support meets S and 0 otherwise: the sign vectors that the dot products
    give, as ints, in the order of the points."""
    datum = build_root_datum(name)
    want = [Fan(datum, frozenset(), [], {})._signs(p) for p in _dominant_facet_points(datum)]
    got = fans._dominant_signs(datum)
    assert got == want
    assert {type(s) for signs in got for s in signs} == {int}


# J empty and not, with merged cones (mixed signs) holding dominant points
COVER_FANS = [
    _case("B3", ()),
    _case("A3", (0,)),
    _case("G2", ()),
    _case("A1xA2", (1,)),
    _case("BC3", (0, 1)),
]


@pytest.mark.parametrize("name,J", RANK4_FANS)
def test_the_build_records_the_scan_oracle_cone_of_each_dominant_point(name, J):
    """Right after `parabolic_fan` the sign map holds the sign vector of
    each dominant facet point, in the order of the points, with the cone
    that `Cone.contains` finds, and no exclusion bitset is built."""
    fan = parabolic_fan(build_root_datum(name), J)
    points = _dominant_facet_points(fan.datum)
    want = [(fan._signs(p), scan_cone_containing(fan, p)) for p in points]
    assert list(fan._by_sign.items()) == want
    assert "_excluding" not in vars(fan)


@pytest.mark.parametrize("name,J", COVER_FANS)
def test_exclusion_bitsets_are_built_on_the_first_miss(name, J):
    """Neither the build nor `validate` reads the exclusion bitsets, nor a
    point whose sign vector the build recorded; the first other point
    builds them, equal to the big-int oracle."""
    fan = parabolic_fan(build_root_datum(name), J)
    fan.validate()
    Fan(fan.datum, fan.J, fan.cones, fan.cores).validate()
    for p in _dominant_facet_points(fan.datum):
        fan.cone_containing(p)
    assert "_excluding" not in vars(fan)
    regular = _dominant_facet_points(fan.datum)[-1]
    assert fan.cone_containing(la.neg(regular)) == scan_cone_containing(fan, la.neg(regular))
    assert fan._excluding == reference_excluding(fan)


@pytest.mark.parametrize("name,J", COVER_FANS)
def test_the_cover_check_names_the_first_dominant_point_of_a_doubled_cone(name, J):
    """A cone given twice: the cover check fails at the first dominant
    facet point the cone holds, which lies in 2 cones, as a scan finds."""
    fan = built_fan(name, J)
    points = _dominant_facet_points(fan.datum)
    located = [scan_cone_containing(fan, p) for p in points]
    for i in sorted(set(located)):
        twice = Fan(fan.datum, fan.J, list(fan.cones) + [fan.cones[i]], {})
        message = f"point {points[located.index(i)]} lies in 2 cones"
        with pytest.raises(PartitionFailure, match=re.escape(message)):
            fans._check_cover(twice, [])


@pytest.mark.parametrize("name", RANK4_CATALOGUE + ["B4", "D5"])
def test_standard_types_from_bitsets_match_standard_type(name):
    datum = build_root_datum(name)
    for J in valid_js(datum):
        for I, T in fans._admissible_index_sets(datum, J).items():
            assert T == standard_type(datum, J, I), (sorted(J), sorted(I))


@pytest.mark.parametrize("name,J", RANK4_FANS)
def test_orbit_walks_match_the_breadth_first_closure(name, J):
    """One walk per orbit, by first cone in cone order: its cones in the
    order of `walk_orbits`, each met by its letter's move from an earlier
    one, which that move maps back, and every cone in one walk."""
    fan = built_fan(name, J)
    moves, n = fan._moves, fan.datum.rank
    walks = fans._orbit_walks(moves, range(len(fan)))
    labels = orbit_labels(moves)
    assert _orbit_firsts(fan) == [labels.index(c) for c in range(max(labels) + 1)]
    for cones, letters in walks:
        assert cones == list(walk_orbits({cones[0]: cones[0]}, n, lambda i, k: moves[k][i]))
        assert len(letters) == len(cones) and letters[0] == 0
        at = {i: p for p, i in enumerate(cones)}
        for p in range(1, len(cones)):
            k = letters[p]
            came_from = moves[k][cones[p]]
            assert at[came_from] < p and moves[k][came_from] == cones[p]
    assert sorted(i for cones, _ in walks for i in cones) == list(range(len(fan)))


@pytest.mark.parametrize("name", ["G2", "BC3", "F4"])
def test_reflection_images_match_the_simple_reflection(name):
    """The id memos of the build, the first read and `validate`
    (`_id_reflections`) give, per s_k, the id of s_k.p for every ray id
    and of f - f[k] cartan[k] for every form id of a Weyl fan, its rays
    closed under each s_k, and move the rays of each cone onto those of
    its image in `_moves`."""
    fan = built_fan(name)
    fan.cones  # the first read carries every cone's form ids
    cartan = fan.datum.cartan
    points, forms = fans._Numbering(fan._points), fans._Numbering(fan._forms)
    on_points = fans._id_reflections(cartan, points, reflect_simple)
    on_forms = fans._id_reflections(cartan, forms, fans._reflected_form)
    for k, row in enumerate(cartan):
        for r, p in enumerate(fan._points):
            assert points.vectors[on_points[k][r]] == reflect_simple(cartan, p, k)
        for f, form in enumerate(fan._forms):
            assert forms.vectors[on_forms[k][f]] == la.sub(form, la.scale(row, form[k]))
        for i, rays in enumerate(fan._rays):
            assert tuple(sorted(map(on_points[k].__getitem__, rays))) == fan._rays[fan._moves[k][i]]
    assert points.vectors == fan._points


@pytest.mark.parametrize("name,J", RANK4_FANS)
def test_first_cores_from_the_vanishing_roots_match_the_schreier_oracle(name, J):
    """The roots vanishing at the sum of the rays of each orbit's standard
    cone, where `validate` starts its walk, cut out the fixed locus of its
    Schreier generators."""
    fan = built_fan(name, J)
    for i in fan._seeds:
        core = fans._fixed_core(fan, i) or fan.cones[i]  # None: the cone itself
        assert core.key == schreier_core(fan, i).key, i


@pytest.mark.parametrize("name", RANK4_CATALOGUE + ["B4", "D5"])
def test_admissible_index_sets_match_the_components_oracle(name):
    """The walk inside I from I - J covers I exactly when no component of I
    lies in J: the same subsets, in the same order, for every valid J."""
    datum = build_root_datum(name)
    for J in valid_js(datum):
        got = list(fans._admissible_index_sets(datum, J))
        assert got == reference_admissible_index_sets(datum, J)


@pytest.mark.parametrize("name,J", RANK4_FANS)
def test_standard_cones_from_facet_roots_match_the_reference_system(name, J):
    """The W_K-orbits of the simple roots outside T, a subset of the
    reference's Phi+ - Phi_T, cut out the same cone, field by field."""
    datum = build_root_datum(name)
    J = frozenset(J)
    for I in fans._admissible_index_sets(datum, J):
        eqs, ins, T = standard_cone_system(datum, J, I)
        want_eqs, want_ins, want_T = reference_standard_cone_system(datum, J, I)
        assert (eqs, T) == (want_eqs, want_T)
        assert set(ins) <= set(want_ins)
        got = Cone.from_system(datum.rank, eqs, ins)
        want = Cone.from_system(datum.rank, want_eqs, want_ins)
        fields = Cone._fields
        assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields], I


@pytest.mark.parametrize("name", RANK4_CATALOGUE + ["B4", "D5"])
def test_standard_cones_in_closed_form_match_from_system(name):
    """Every standard cone and every core, from the W_K-orbits of the
    adjugate's columns outside I and of the Cartan rows outside T, is the
    cone that `Cone.from_system` makes of the reference system, with
    Phi+ - Phi_T, field by field, for every valid J and admissible I."""
    datum = build_root_datum(name)
    coweights = [la.primitive(w) for w in la.transpose(datum.cartan_adjugate[0])]
    fields = Cone._fields
    for J in valid_js(datum):
        for I in fans._admissible_index_sets(datum, J):
            T = standard_type(datum, J, I)
            for system, (gen, typ) in ((J, (I, T)), (frozenset(), (T, T))):
                got = fans._standard_cone(datum.cartan, coweights, gen, typ)
                eqs, ins, _ = reference_standard_cone_system(datum, system, gen)
                want = Cone.from_system(datum.rank, eqs, ins)
                assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields], (
                    sorted(J),
                    sorted(gen),
                )


@pytest.mark.parametrize("name,J", RANK4_FANS)
def test_parabolic_fan_runs_no_double_description(monkeypatch, name, J):
    """Every standard cone and core is written in closed form, so no build
    calls `cones.dual_description`, whatever J."""
    calls = []
    dual_description = cones.dual_description
    monkeypatch.setattr(
        cones, "dual_description", lambda *args: calls.append(args) or dual_description(*args)
    )
    parabolic_fan(build_root_datum(name), J)
    assert calls == []


def _count_from_system(monkeypatch) -> list:
    """Record every `Cone.from_system` call from now on."""
    calls = []
    from_system = Cone.from_system
    monkeypatch.setattr(
        Cone, "from_system", staticmethod(lambda *args: calls.append(args) or from_system(*args))
    )
    return calls


@pytest.mark.parametrize("name", RANK4_CATALOGUE)
def test_validate_of_a_weyl_fan_solves_no_cone_system(monkeypatch, name):
    """For J empty each orbit's first cone is its own core, so `validate`
    compares each core with its cone and calls no `Cone.from_system`."""
    fan = built_fan(name)
    calls = _count_from_system(monkeypatch)
    fan.validate()
    assert calls == []


def _cut_by_a_mixed_root(fan, i) -> bool:
    """Whether a root of mixed sign on cone i vanishes at the sum of its rays."""
    c = fan.cones[i]
    p = c.relint_point()
    return any(c.sign_of(f) == 2 and la.dot(f, p) == 0 for f in fans._root_forms(fan.datum))


@pytest.mark.parametrize("name,J", [case for case in RANK4_FANS if case.values[1]])
def test_validate_solves_one_cone_system_per_orbit_cut_by_a_mixed_root(monkeypatch, name, J):
    """`validate` calls `Cone.from_system` once for each orbit whose first
    cone has a mixed root vanishing at its ray sum, and not otherwise."""
    fan = built_fan(name, J)
    want = sum(_cut_by_a_mixed_root(fan, i) for i in _orbit_firsts(fan))
    calls = _count_from_system(monkeypatch)
    fan.validate()
    assert len(calls) == want


def test_merged_orbits_are_cut_by_a_mixed_root():
    """The orbits whose cone is larger than its core are the ones that
    `validate` cuts down: in B3 {a2}, those with T not I."""
    fan = built_fan("B3", (1,))
    for i in fan._seeds:
        info = fan.cores[i]
        assert _cut_by_a_mixed_root(fan, i) == (info.type_indices != info.generator_indices), i
        assert (fans._fixed_core(fan, i) is None) == (info.cone == fan.cones[i]), i


@pytest.mark.parametrize("name,J", [_case("B3", ()), _case("B3", (1,)), _case("A1xA2", (1,))])
def test_the_cover_check_gets_one_cone_per_orbit(monkeypatch, name, J):
    """`parabolic_fan` hands the cover check its standard cones, the walk's
    seeds, and `Fan.validate` the first cone of each orbit of the moves."""
    given = []
    check = fans._check_cover
    monkeypatch.setattr(
        fans, "_check_cover", lambda fan, firsts: given.append(list(firsts)) or check(fan, firsts)
    )
    fan = parabolic_fan(build_root_datum(name), J)
    Fan(fan.datum, fan.J, fan.cones, fan.cores).validate()
    built, validated = given
    labels = orbit_labels(ray_reflection_moves(fan))
    assert sorted(built) == [i for i in range(len(fan)) if fan.cores[i].word == ()]
    assert sorted(labels[i] for i in built) == list(range(max(labels) + 1))
    assert validated == [i for i, label in enumerate(labels) if label not in labels[:i]]


def _unglued_fan():
    """A1xA2 with the merged fan of J = {a2} off the wall of a1 and the
    Weyl fan on it: a Weyl invariant partition into cones cut out by root
    signs, but the closure of a merged cone meets the wall in the union of
    two Weyl chambers of A2, which is no fan cone."""
    datum = build_root_datum("A1xA2")
    merged, weyl = parabolic_fan(datum, [1]), weyl_fan(datum)
    a1 = datum.simples[0]
    cones = [c for i, c in enumerate(merged.cones) if merged.root_sign(i, a1) != 0]
    cones += [c for i, c in enumerate(weyl.cones) if weyl.root_sign(i, a1) == 0]
    cones.sort(key=lambda c: (c.dim, c.key))
    cores = {k: weyl.cores[weyl.origin_index] for k in range(len(cones))}
    return Fan(datum, merged.J, cones, cores)


def test_validate_rejects_a_fan_whose_facets_are_not_fan_cones():
    fan = _unglued_fan()
    for p in weyl_facet_points(fan.datum):  # a partition all the same
        scan_cone_containing(fan, p)
    assert fan._moves == ray_reflection_moves(fan)  # and Weyl invariant
    with pytest.raises(PartitionFailure, match="is not the closure of a fan cone"):
        fan.validate()


@pytest.mark.parametrize("name,J", CATALOGUE_FANS + [_case("A4", ()), _case("D4", ())])
def test_face_order_matches_closure_oracle(name, J):
    fan = parabolic_fan(build_root_datum(name), J)
    assert fan.face_order == closure_face_order(fan)


@pytest.mark.parametrize("name,J", CATALOGUE_FANS)
def test_cone_location_matches_scan_oracle(name, J):
    fan = parabolic_fan(build_root_datum(name), J)
    # a fan built directly has no sign map yet, so it locates by mask scans
    fresh = Fan(fan.datum, fan.J, fan.cones, fan.cores)
    for p in sample_points(fan, 300):
        want = scan_cone_containing(fan, p)
        assert fan.cone_containing(p) == want
        assert fresh.cone_containing(p) == want


def _facing(u, w):
    """The form vanishing on the plane vector u that is positive on w."""
    p = (-u[1], u[0])
    return p if la.dot(p, w) > 0 else la.neg(p)


def _split_chamber(order):
    """The A2 Weyl fan with its dominant chamber cut in two along the ray
    through the sum of its rays, which lies on no root hyperplane.  The
    result is still a fan, but not one cut out by root signs.  `order`
    says where the three new cones go."""
    fan = weyl_fan(build_root_datum("A2"))
    chamber = next(
        i for i, c in enumerate(fan.cones) if c.dim == 2 and fan.cores[i].word == ()
    )
    u, w = fan.cones[chamber].rays
    mid = la.add(u, w)
    halves = [
        Cone.from_system(2, [], [_facing(u, mid), _facing(mid, u)]),
        Cone.from_system(2, [], [_facing(mid, w), _facing(w, mid)]),
    ]
    ray = Cone.from_system(2, [_facing(mid, u)], [mid])
    rest = [c for i, c in enumerate(fan.cones) if i != chamber]
    cones = halves + [ray] + rest if order == "halves first" else [ray] + halves + rest
    cores = {k: fan.cores[fan.origin_index] for k in range(len(cones))}
    return Fan(fan.datum, fan.J, cones, cores)


@pytest.mark.parametrize(
    "order,message",
    [("halves first", "is not a root form"), ("ray first", "do not cut out its span")],
)
def test_cover_check_rejects_cones_not_cut_out_by_roots(order, message):
    mutant = _split_chamber(order)
    for p in sample_points(mutant, 100):  # a partition all the same
        scan_cone_containing(mutant, p)
    with pytest.raises(PartitionFailure, match=message):
        mutant.validate()
    with pytest.raises(PartitionFailure, match=message):
        mutant.cone_containing((1, 1))


def test_cone_containing_rejects_points_of_the_wrong_length():
    fan = parabolic_fan(build_root_datum("A2"), [0])
    for bad in [(1, 2, 3), (1,)]:
        with pytest.raises(DimensionMismatch):
            fan.cone_containing(bad)
        with pytest.raises(DimensionMismatch):
            limit_of_ray(fan, (0, 0), bad)
    assert fan.cones[fan.cone_containing((1, 2))].dim == 2


def _a2_point_calls():
    a2 = build_root_datum("A2")
    apt = make_apartment(a2)
    fan = parabolic_fan(a2, [0])
    tg = ToyGroupDatum.for_parabolic(a2, [0])
    one = a2.simple_reflections[0]
    profile = ray_profile(a2, (0, 0), (1, 1))
    return {  # each call gets one point with 1 or 3 coordinates
        "special_witness": lambda: special_witness(apt, (Q(1, 3),)),
        "is_special_vertex": lambda: is_special_vertex(apt, (Q(1, 3), 0, 5)),
        "is_virtually_special": lambda: is_virtually_special(apt, (1,)),
        "walls_in_box": lambda: walls_in_box(apt, (0,), (1, 1)),
        "transitivity_solve": lambda: transitivity_solve(a2, (0,), (Q(1, 2), Q(1, 3))),
        "rational_dense_sample": lambda: rational_dense_sample(apt, [(0, 0), (1,)], 2),
        "essential_projection": lambda: essential_projection(a2, [0], (1,)),
        "theta_restricted": lambda: theta_restricted(tg, (1,)),
        "cell_charts": lambda: cell_charts(tg, (1, 2, 3)),
        "boundary_chart_values": lambda: boundary_chart_values(tg, one, (0,), (1, 1)),
        "limit_of_ray": lambda: limit_of_ray(fan, (1,), (1, 2)),
        "project_to_facade": lambda: project_to_facade(fan, 0, (1,)),
        "ray_profile": lambda: ray_profile(a2, (0, 0), (1,)),
        "limit_of_profile": lambda: limit_of_profile(fan, profile, witness=(1,)),
        "orthogonal_reduction": lambda: orthogonal_reduction(a2, [], (1,)),
        "cone_containing": lambda: fan.cone_containing((1, 2, 3)),
    }


# listed by name, so that collecting the test builds no fan
A2_POINT_CALLS = [
    "boundary_chart_values",
    "cell_charts",
    "cone_containing",
    "essential_projection",
    "is_special_vertex",
    "is_virtually_special",
    "limit_of_profile",
    "limit_of_ray",
    "orthogonal_reduction",
    "project_to_facade",
    "rational_dense_sample",
    "ray_profile",
    "special_witness",
    "theta_restricted",
    "transitivity_solve",
    "walls_in_box",
]


def test_the_point_calls_are_listed_by_name():
    assert A2_POINT_CALLS == sorted(_a2_point_calls())


@pytest.mark.parametrize("call", A2_POINT_CALLS)
def test_points_of_the_wrong_length_are_rejected(call):
    """Every public function taking a point rejects one of the wrong length
    with the same message, instead of cutting it short."""
    with pytest.raises(DimensionMismatch, match=r"^point has [13] coordinates, A2 has rank 2$"):
        _a2_point_calls()[call]()


MUTANT_FANS = [_case("B3", ()), _case("A3", (0,)), _case("G2", ())]


@pytest.mark.parametrize("name,J", MUTANT_FANS)
def test_validate_rejects_a_dropped_facet_form(name, J):
    fan = parabolic_fan(build_root_datum(name), J)
    cones = list(fan.cones)
    chamber = cones[-1]  # cones are ordered by dimension
    cones[-1] = replace(chamber, ins=chamber.ins[1:])
    with pytest.raises(PartitionFailure, match="face condition fails"):
        Fan(fan.datum, fan.J, cones, fan.cores).validate()


@pytest.mark.parametrize("name,J", MUTANT_FANS)
def test_validate_rejects_a_core_replaced_by_the_origin(name, J):
    fan = parabolic_fan(build_root_datum(name), J)
    cores = dict(fan.cores)
    i = len(fan) - 1
    cores[i] = replace(cores[i], cone=fan.cones[fan.origin_index])
    message = f"core of cone {i} is not the stabiliser fixed locus"
    with pytest.raises(PartitionFailure, match=message):
        Fan(fan.datum, fan.J, fan.cones, cores).validate()


@pytest.mark.parametrize("name,J", MUTANT_FANS)
def test_validate_rejects_cores_swapped_within_an_orbit(name, J):
    """Two cones of one orbit, neither its first, trade cores: the first
    core holds, and the walk fails at whichever of the two it meets first."""
    fan = parabolic_fan(build_root_datum(name), J)
    labels = orbit_labels(fan._moves)
    i, j = [k for k, label in enumerate(labels) if label == labels[-1]][-2:]
    assert labels.index(labels[-1]) < i
    cores = dict(fan.cores)
    cores[i], cores[j] = cores[j], cores[i]
    message = f"core of cone ({i}|{j}) is not the stabiliser fixed locus"
    with pytest.raises(PartitionFailure, match=message):
        Fan(fan.datum, fan.J, fan.cones, cores).validate()


def test_validate_rejects_a_merged_cone_as_its_own_core():
    """In B3 {a2}, a cone whose core type T is not I is larger than its
    core; given as its own core, the first or the last cone of its orbit
    fails there."""
    fan = parabolic_fan(build_root_datum("B3"), [1])
    merged = [k for k, info in fan.cores.items() if info.type_indices != info.generator_indices]
    labels = orbit_labels(fan._moves)
    last = merged[-1]
    for i in (labels.index(labels[last]), last):
        cores = dict(fan.cores)
        cores[i] = replace(cores[i], cone=fan.cones[i])
        message = f"core of cone {i} is not the stabiliser fixed locus"
        with pytest.raises(PartitionFailure, match=message):
            Fan(fan.datum, fan.J, fan.cones, cores).validate()


@pytest.mark.parametrize("name,J", CATALOGUE_FANS)
def test_face_order_pairs_pass_both_face_criteria(name, J):
    fan = parabolic_fan(build_root_datum(name), J)
    for f, g in fan.face_order:
        assert is_face_closure(fan.cones[f], fan.cones[g]), (f, g)
        assert is_face_supporting(fan.cones[f], fan.cones[g]), (f, g)


def test_b4_weyl_fan_and_face_order():
    fan = weyl_fan(build_root_datum("B4"))
    assert len(fan) == 1697
    assert len(fan.face_order) == 14305


def _random_value(rng, avoid=None):
    """+inf, -inf or a small rational, of another sign class than `avoid`."""
    choices = [POS_INF, NEG_INF, Q(rng.randint(-6, 6), rng.randint(1, 3))]
    if avoid is not None:
        choices = [v for v in choices if _class(v) != _class(avoid)]
    return rng.choice(choices)


def _class(v):
    return 1 if v == POS_INF else -1 if v == NEG_INF else 0


def _profiles(fan, count, seed):
    """Seeded odd profiles with witnesses: ray profiles into random cones,
    ray profiles with one positive root's value redrawn, on BC types a
    double root 2a given another sign class than a, and random profiles."""
    datum = fan.datum
    rng = random.Random(seed)
    doubles = [
        (a, tuple(2 * c for c in a))
        for a in datum.positive_roots
        if a in datum.multipliable
    ]
    for t in range(count):
        base = random_rational_vec(rng, datum.rank)
        d = la.add(
            rng.choice(fan.cones).relint_point(),
            la.scale(random_rational_vec(rng, datum.rank), rng.choice([0, 0, Q(1, 50)])),
        )
        table = {a: v for a, v in ray_profile(datum, base, d).values if a in datum.positive_roots}
        kind = t % 4
        if kind == 1:
            table[rng.choice(datum.positive_roots)] = _random_value(rng)
        elif kind == 2 and doubles:
            a, two_a = rng.choice(doubles)
            table[two_a] = _random_value(rng, avoid=table[a])
        elif kind == 3:
            table = {a: _random_value(rng) for a in datum.positive_roots}
        witness = base if rng.random() < 0.5 else None
        yield LimitProfile.of(datum, table), witness


def _outcome(match, fan, profile, witness):
    try:
        point = match(fan, profile, witness)
    except WeylfanError as exc:
        return type(exc).__name__, str(exc)
    if point is NoLimit:
        return "NoLimit"
    return point.cone_index, point.base


@pytest.mark.parametrize("name,J", CATALOGUE_FANS)
def test_limit_of_profile_matches_sign_of_oracle(name, J):
    fan = parabolic_fan(build_root_datum(name), J)
    outcomes = set()
    for profile, witness in _profiles(fan, 160, seed=len(fan)):
        want = _outcome(scan_limit_of_profile, fan, profile, witness)
        assert _outcome(limit_of_profile, fan, profile, witness) == want
        outcomes.add(want if isinstance(want, str) else want[0])
    assert len(outcomes) > 2


def _moved_profiles(fan, count, seed):
    """Seeded ray profiles into random cones, most with the finite value of
    one root moved, each with no witness, the ray's base or the base moved
    by a random vector."""
    datum = fan.datum
    rng = random.Random(seed)
    for _ in range(count):
        base = random_rational_vec(rng, datum.rank)
        table = dict(ray_profile(datum, base, rng.choice(fan.cones).relint_point()).values)
        finite = [a for a in datum.positive_roots if not isinstance(table[a], float)]
        if finite and rng.random() < 0.7:
            table[rng.choice(finite)] += Q(rng.choice((-1, 1)), rng.randint(1, 4))
        moved = la.add(base, random_rational_vec(rng, datum.rank, num=2, den=3))
        witness = rng.choice((None, base, moved))
        yield LimitProfile.of(datum, {a: table[a] for a in datum.positive_roots}), witness


@pytest.mark.parametrize("name,J", CATALOGUE_FANS)
def test_limit_of_profile_matches_the_oracle_on_moved_finite_values(name, J):
    """The facade point reduced from any solution of the vanishing roots'
    system rejects exactly the contradictory values and disagreeing
    witnesses that the solve-then-recheck oracle rejects."""
    fan = built_fan(name, J)
    outcomes = set()
    for profile, witness in _moved_profiles(fan, 120, seed=len(fan)):
        want = _outcome(scan_limit_of_profile, fan, profile, witness)
        assert _outcome(limit_of_profile, fan, profile, witness) == want
        rejected = isinstance(want, tuple) and isinstance(want[0], str)
        outcomes.add(want[1] if rejected else "answer")
    assert "answer" in outcomes and len(outcomes) > 1


def _boundary_oracle(tg, point):
    """theta_boundary by `Cone.sign_of`: the values, or ProfileMismatch."""
    datum = tg.datum
    cone = point.fan.cones[point.cone_index]
    values = []
    for a, _ in tg.indexed_roots:
        sign = cone.sign_of(datum.covector(a))
        if sign == 0:
            values.append(datum.pairing(a, point.base))
        elif sign == -1:
            values.append(NEG_INF)
        else:
            return "ProfileMismatch"
    return tuple(values)


@pytest.mark.parametrize("name,J", CATALOGUE_FANS)
def test_theta_boundary_matches_sign_of_oracle(name, J):
    fan = parabolic_fan(build_root_datum(name), J)
    datum = fan.datum
    rng = random.Random(7)
    cells = [ToyGroupDatum.for_full_cell(datum)] + [
        ToyGroupDatum.for_parabolic(datum, T) for T in valid_js(datum)
    ]
    for i, cone in enumerate(fan.cones):
        point = project_to_facade(fan, i, random_rational_vec(rng, datum.rank))
        # the roots bounded above on the cone: a cell with no ProfileMismatch
        bounded = [a for a in datum.roots if cone.sign_of(datum.covector(a)) in (0, -1)]
        bounded_cell = ToyGroupDatum(datum, frozenset(), tuple((a, 1) for a in sorted(bounded)))
        for tg in cells + [bounded_cell]:
            want = _boundary_oracle(tg, point)
            try:
                got = theta_boundary(tg, point).values
            except WeylfanError as exc:
                got = type(exc).__name__
            assert got == want


MUTANT_CORPUS = [
    _case("A2", (0,)), _case("B3", ()), _case("B3", (1,)), _case("G2", ()), _case("BC3", ()),
    _case("F4", (0, 1)),
]


@pytest.mark.parametrize("name,J", MUTANT_CORPUS)
def test_validate_rejects_every_mutant_of_the_corpus(name, J):
    """Every class of `fan_mutants`, on the first and on a later cone of an
    orbit, fails `validate` with its named message; the table move needs
    four open cones and J not empty.  Budget: about 1.5 s for the six fans
    on one core, most of it F4 {a1,a2}'s hand-made fans of 865 cones."""
    fan = parabolic_fan(build_root_datum(name), J)
    made = []
    for label, where, mutant, message in fan_mutants(fan, seed=31):
        with pytest.raises(PartitionFailure, match=message):
            mutant.validate()
        made.append((label, where))
    classes = [c for c in MUTANT_CLASSES if not c.startswith("table")]
    want = [(c, where) for where in ("first", "later") for c in classes]
    want += [("table ray id", "later")] + [("table move", "later")] * (name in ("B3", "F4") and bool(J))
    assert made == want


@pytest.mark.parametrize(
    "name,J,differ", [("B3", (), 84), ("A3", (0,), 20), ("F4", (0, 1), 647)]
)
def test_a_fan_of_canonical_cones_validates_by_arithmetic_where_ids_differ(
    monkeypatch, name, J, differ
):
    """A hand-made fan of each cone's own `Cone.from_system` canonical forms
    (equalities a row basis, facet forms reduced modulo it) is the built
    fan, with other forms on `differ` cones.  `validate` checks the face
    condition by arithmetic on each orbit's first cone and on every cone
    whose form ids are not the moved ones of the cone its walk met it from,
    and passes with the built fan's summary; on the built fan it does so on
    the standard cones only."""
    fan = parabolic_fan(build_root_datum(name), J)
    canonical = [Cone.from_system(fan.datum.rank, c.eqs, c.ins) for c in fan.cones]
    assert [c.rays for c in canonical] == [c.rays for c in fan.cones]
    assert sum((a.eqs, a.ins) != (b.eqs, b.ins) for a, b in zip(canonical, fan.cones)) == differ
    checked = []
    check = fans._check_faces
    monkeypatch.setattr(
        fans, "_check_faces", lambda fan, cones: checked.append(sorted(cones)) or check(fan, cones)
    )
    assert Fan(fan.datum, fan.J, canonical, fan.cores).validate() == fan.validate()
    firsts, unlike, standard = checked
    assert firsts == _orbit_firsts(fan) and unlike and not set(firsts) & set(unlike)
    assert standard == sorted(i for i, info in fan.cores.items() if not info.word)
