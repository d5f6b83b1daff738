from fractions import Fraction as Q
from itertools import product
from operator import attrgetter
import re
import sys

import pytest

from helpers import (
    FAN_CATALOGUE,
    RANK4_CATALOGUE,
    enumerated_parabolic_fan,
    object_walk_fan,
    reference_transform_index,
    sample_points,
    scan_cone_containing,
    sign_vector_cone_count,
    valid_js,
    word_element,
)
from weylfan import cones, fans, linalg as la, rootdata
from weylfan.apartment import AffineRootPattern
from weylfan.compactify import CompactifiedPoint, project_to_facade
from weylfan.cones import Cone, is_face_closure, is_face_supporting
from weylfan.errors import (
    DegenerateJ,
    DimensionMismatch,
    NotEssential,
    PartitionFailure,
    TypeMismatch,
)
from weylfan.fans import (
    CoreInfo,
    Fan,
    cone_of_parabolic,
    parabolic_fan,
    weyl_fan,
    weyl_facet_points,
)
from weylfan.parabolics import facade_root_system
from weylfan.rootdata import WeylElement, build_root_datum, weyl_enumerate

astuple = attrgetter("dim_ambient", "eqs", "ins", "lineality", "rays")  # every field of a cone


@pytest.mark.parametrize(
    "name,count",
    [("A1", 3), ("A2", 13), ("B2", 17), ("BC1", 3), ("BC2", 17), ("A1xA1", 9), ("G2", 25)],
)
def test_weyl_fan_counts_match_sign_vector_oracle(name, count):
    datum = build_root_datum(name)
    fan = weyl_fan(datum)
    assert len(fan) == count
    assert sign_vector_cone_count(datum) == count


def test_weyl_fan_a2_structure():
    fan = weyl_fan(build_root_datum("A2"))
    dims = sorted(c.dim for c in fan.cones)
    assert dims == [0] + [1] * 6 + [2] * 6


def test_fan_fj_a2_structure():
    datum = build_root_datum("A2")
    fan = parabolic_fan(datum, [0])
    cores = fan.cores
    assert len(fan) == 7
    dims = sorted(c.dim for c in fan.cones)
    assert dims == [0, 1, 1, 1, 2, 2, 2]
    # each merged 2-cone swallows two chambers and one wall of the Weyl fan
    wfan = weyl_fan(datum)
    for i, cone in enumerate(fan.cones):
        if cone.dim != 2:
            continue
        inside = [
            j
            for j, wc in enumerate(wfan.cones)
            if cone.contains(wc.relint_point()) and not wc.is_origin
        ]
        got = sorted(wfan.cones[j].dim for j in inside)
        assert got == [1, 2, 2]
    # the three rays have core type {a2}
    for i, cone in enumerate(fan.cones):
        if cone.dim == 1:
            assert cores[i].type_indices == frozenset({1})


def test_fan_fj_empty_equals_weyl_fan():
    datum = build_root_datum("B2")
    lhs = parabolic_fan(datum, ())
    rhs = weyl_fan(datum)
    assert {c.key for c in lhs.cones} == {c.key for c in rhs.cones}


def test_fan_fj_core_example():
    datum = build_root_datum("A2")
    fan = parabolic_fan(datum, [0])
    cores = fan.cores
    # the fundamental merged cone: identity translate of the open standard cone
    idx = [
        i
        for i in range(len(fan))
        if fan.cones[i].dim == 2 and cores[i].word == ()
    ]
    assert len(idx) == 1
    info = cores[idx[0]]
    assert info.type_indices == frozenset({0})
    # its core is the face of the fundamental chamber of type {a1}
    face = Cone.from_system(
        2, [datum.covector(datum.simples[0])], [datum.covector(datum.simples[1])]
    )
    assert info.cone.key == face.key


def test_degenerate_j_rejected():
    with pytest.raises(DegenerateJ):
        parabolic_fan(build_root_datum("A2"), [0, 1])
    with pytest.raises(DegenerateJ):
        parabolic_fan(build_root_datum("A1xA1"), [0])
    with pytest.raises(DegenerateJ):
        parabolic_fan(build_root_datum("A2"), [5])


def test_not_essential_rejected():
    datum = build_root_datum([[1, 0], [-1, 0]], basis=[0])
    with pytest.raises(NotEssential):
        weyl_fan(datum)


@pytest.mark.parametrize("name,J", [("A2", ()), ("A2", (0,)), ("B2", (1,)), ("BC2", (0,)), ("A1xA2", (1,))])
def test_fan_axioms_validate(name, J):
    fan = parabolic_fan(build_root_datum(name), J)
    stats = fan.validate()
    assert stats["cones"] == len(fan)


def _without_cone(fan, drop):
    keep = [i for i in range(len(fan)) if i != drop]
    cores = {k: fan.cores[i] for k, i in enumerate(keep)}
    return Fan(fan.datum, fan.J, [fan.cones[i] for i in keep], cores)


def test_validate_rejects_a_dropped_cone():
    fan = parabolic_fan(build_root_datum("B2"), ())
    fan.validate()
    ray = next(i for i, c in enumerate(fan.cones) if c.dim == 1)
    chamber = next(i for i, c in enumerate(fan.cones) if c.dim == 2)
    with pytest.raises(PartitionFailure, match="no origin cone"):
        _without_cone(fan, fan.origin_index).validate()
    for drop in (ray, chamber):
        with pytest.raises(PartitionFailure, match="not a partition"):
            _without_cone(fan, drop).validate()


def _with_cone_twice(fan, repeat):
    cores = dict(fan.cores)
    cores[len(fan)] = fan.cores[repeat]
    return Fan(fan.datum, fan.J, list(fan.cones) + [fan.cones[repeat]], cores)


@pytest.mark.parametrize("name,J", [("B3", (1,)), ("A4", ())])
def test_validate_rejects_a_dropped_or_repeated_cone_off_the_dominant_chamber(name, J):
    """The cover check scans the dominant facet points only; a cone that
    none of them lies in (its core word is not empty), dropped or given
    twice, leaves a hole or an overlap that the moves table finds."""
    fan = parabolic_fan(build_root_datum(name), J)
    last = {c.dim: i for i, c in enumerate(fan.cones) if fan.cores[i].word}
    assert sorted(last) == list(range(1, fan.datum.rank + 1))
    for i in last.values():
        for mutant in (_without_cone(fan, i), _with_cone_twice(fan, i)):
            with pytest.raises(PartitionFailure, match="not a partition"):
                mutant.validate()


def test_validate_rejects_swapped_cores():
    fan = parabolic_fan(build_root_datum("B2"), ())
    i, j = [k for k, c in enumerate(fan.cones) if c.dim == 2][:2]
    cores = dict(fan.cores)
    cores[i], cores[j] = cores[j], cores[i]
    with pytest.raises(PartitionFailure, match="core of cone"):
        Fan(fan.datum, fan.J, fan.cones, cores).validate()


def test_validate_rejects_a_missing_core():
    fan = parabolic_fan(build_root_datum("A2"), [0])
    with pytest.raises(PartitionFailure, match="cone 0 has no core"):
        Fan(fan.datum, fan.J, fan.cones, {}).validate()
    cores = dict(fan.cores)
    del cores[len(fan) - 1]
    with pytest.raises(PartitionFailure, match=f"cone {len(fan) - 1} has no core"):
        Fan(fan.datum, fan.J, fan.cones, cores).validate()


def test_validate_rejects_a_cone_whose_closure_holds_a_line():
    fan = weyl_fan(build_root_datum("A1xA1"))
    half_plane = Cone.from_system(2, [], [(1, 0)])
    with pytest.raises(PartitionFailure, match="cone closure contains a line"):
        Fan(fan.datum, fan.J, list(fan.cones) + [half_plane], fan.cores).validate()


def test_validate_rejects_a_partition_that_is_not_weyl_invariant():
    """The nine cones cut out by the signs of a1 and a2 alone partition the
    plane, but s_1 maps the chamber where both are positive across a1 + a2."""
    datum = build_root_datum("A2")
    forms = [datum.covector(a) for a in datum.simples]
    cones = [
        Cone.from_system(
            2,
            [f for f, s in zip(forms, signs) if not s],
            [la.scale(f, s) for f, s in zip(forms, signs) if s],
        )
        for signs in product((-1, 0, 1), repeat=2)
    ]
    fan = Fan(datum, frozenset(), cones, {})
    for p in sample_points(fan, 50):
        scan_cone_containing(fan, p)  # a partition
    with pytest.raises(PartitionFailure, match="fan is not Weyl invariant"):
        fan.validate()


def test_partition_on_samples_a2():
    fan = parabolic_fan(build_root_datum("A2"), [0])
    for p in sample_points(fan, 200):
        fan.cone_containing(p)


def test_origin_is_face_of_everything():
    fan = weyl_fan(build_root_datum("B2"))
    o = fan.origin_index
    for g in range(len(fan)):
        assert is_face_closure(fan.cones[o], fan.cones[g])
        assert is_face_closure(fan.cones[g], fan.cones[g])


def test_ray_is_face_of_exactly_two_chambers():
    fan = weyl_fan(build_root_datum("A2"))
    for f, cf in enumerate(fan.cones):
        if cf.dim != 1:
            continue
        cofaces = [
            g
            for g, cg in enumerate(fan.cones)
            if cg.dim == 2 and is_face_closure(cf, cg)
        ]
        assert len(cofaces) == 2


def test_face_criteria_agree_on_all_pairs_a2_fj():
    fan = parabolic_fan(build_root_datum("A2"), [0])
    for f in range(len(fan)):
        for g in range(len(fan)):
            cf, cg = fan.cones[f], fan.cones[g]
            assert is_face_closure(cf, cg) == is_face_supporting(cf, cg)


def test_cone_containing_examples():
    datum = build_root_datum("A2")
    fan = parabolic_fan(datum, [0])
    assert fan.cones[fan.cone_containing(la.zero_vec(2))].is_origin
    # wall direction of a1 with positive a2 pairing lands in the merged cone
    wall = (Q(1), Q(2))
    assert datum.pairing(datum.simples[0], wall) == 0
    wall_idx = fan.cone_containing(wall)
    assert fan.cones[wall_idx].dim == 2
    assert fan.cores[wall_idx].word == ()  # the fundamental merged cone
    wfan = weyl_fan(datum)
    dominant = (Q(2), Q(3))
    assert all(datum.pairing(s, dominant) > 0 for s in datum.simples)
    idx = wfan.cone_containing(dominant)
    assert wfan.cones[idx].dim == 2
    assert wfan.cores[idx].word == ()


def test_cone_of_parabolic():
    datum = build_root_datum("A2")
    weyl = weyl_enumerate(datum)
    fan = parabolic_fan(datum, [0])
    ident = weyl.identity
    s1, s2 = weyl.generators
    base = cone_of_parabolic(fan, [0], ident)
    assert fan.cores[base].word == () and fan.cones[base].dim == 2
    assert cone_of_parabolic(fan, [0], s1) == base
    assert cone_of_parabolic(fan, [0], s2) != base
    with pytest.raises(TypeMismatch):
        cone_of_parabolic(fan, [1], ident)
    wfan = parabolic_fan(datum, ())
    chamber = cone_of_parabolic(wfan, [], ident)
    assert wfan.cones[chamber].dim == 2
    assert wfan.cones[chamber].contains((Q(2), Q(3)))


def test_weyl_invariance_orbit_closure():
    datum = build_root_datum("BC2")
    fan = parabolic_fan(datum, [1])
    weyl = weyl_enumerate(datum)
    for w in weyl:
        for i in range(len(fan)):
            fan.transform_index(w, i)


def test_weyl_words_past_the_rank_are_rejected():
    """A word is read in the fan's own simple reflections, so a letter past
    its rank is an error, not an index past the moves table."""
    fan = parabolic_fan(build_root_datum("A2"), [0])
    for name in ("A3", "B3"):
        w = weyl_enumerate(build_root_datum(name)).elements[-1]
        message = f"^word {re.escape(str(w.word))} has a letter past rank 2$"
        with pytest.raises(DimensionMismatch, match=message):
            fan.transform_index(w, 0)
        with pytest.raises(DimensionMismatch, match=message):
            cone_of_parabolic(fan, [0], w)


@pytest.mark.parametrize(
    "i,error,message",
    [
        (-1, DimensionMismatch, r"^cone index -1 is not in range\(7\)$"),
        (7, DimensionMismatch, r"^cone index 7 is not in range\(7\)$"),
        (99, DimensionMismatch, r"^cone index 99 is not in range\(7\)$"),
        (True, TypeMismatch, r"^cone index True is not an int$"),
        (1.0, TypeMismatch, r"^cone index 1\.0 is not an int$"),
        ("1", TypeMismatch, r"^cone index '1' is not an int$"),
        (None, TypeMismatch, r"^cone index None is not an int$"),
    ],
)
def test_cone_indices_are_read_not_wrapped(i, error, message):
    """A cone index is an int in range(len(fan)), read by `Fan.read_index`:
    a negative one does not count from the end, and a bool or a float is
    no index, for `transform_index` (by the identity or by s_1),
    `project_to_facade`, `facade_root_system`, `root_sign`, `root_signs`
    and the `CompactifiedPoint` constructor alike."""
    datum = build_root_datum("A2")
    fan = parabolic_fan(datum, [0])
    assert len(fan) == 7
    ident, s1 = WeylElement(datum, ()), datum.simple_reflections[0]
    calls = [
        lambda: fan.transform_index(ident, i),
        lambda: fan.transform_index(s1, i),
        lambda: project_to_facade(fan, i, (1, 2)),
        lambda: facade_root_system(datum, fan, i),
        lambda: fan.root_sign(i, (1, 0)),
        lambda: fan.root_signs(i, [(1, 0), (0, -1)]),
        lambda: CompactifiedPoint(fan, i, (0, 0)),
    ]
    for call in calls:
        with pytest.raises(error, match=message):
            call()
    assert [fan.transform_index(ident, j) for j in range(7)] == list(range(7))
    assert project_to_facade(fan, 6, (1, 2)).cone_index == 6
    assert [fan.root_sign(j, (1, 0)) for j in range(7)] == [
        fan.cones[j].sign_of(datum.covector((1, 0))) for j in range(7)
    ]
    for j in range(7):
        signs = [fan.cones[j].sign_of(datum.covector(a)) for a in datum.roots]
        assert fan.root_signs(j, datum.roots) == signs
    assert CompactifiedPoint(fan, 6, (0, 0)).facade_dim == 2 - fan.cones[6].dim


def test_weyl_elements_of_another_datum_are_rejected():
    """A word is read in the fan's own simple reflections, so an element of
    a datum with another Cartan matrix, with letters below the rank, is a
    TypeMismatch, not a cone, even B2's identity, whose point matrix is the
    identity; every element of the fan's own Weyl group maps as the matrix
    oracle does."""
    datum = build_root_datum("A2")
    fan = parabolic_fan(datum, [0])
    b2 = weyl_enumerate(build_root_datum("B2"))
    others = [
        b2.elements[-1],  # word (1, 0, 1, 0)
        weyl_enumerate(build_root_datum("A1")).generators[0],
        b2.identity,
    ]
    for w in others:
        message = f"^Weyl element of word {re.escape(str(w.word))} is not an element of A2$"
        with pytest.raises(TypeMismatch, match=message):
            fan.transform_index(w, 0)
        with pytest.raises(TypeMismatch, match=message):
            cone_of_parabolic(fan, [0], w)
    chamber = fan.cone_containing((1, 1))
    images = []
    for w in weyl_enumerate(datum):
        for i in range(len(fan)):
            assert fan.transform_index(w, i) == reference_transform_index(fan, w, i), (w.word, i)
        images.append(cone_of_parabolic(fan, [0], w))
    assert images == [reference_transform_index(fan, w, chamber) for w in weyl_enumerate(datum)]
    assert images == [6, 6, 5, 5, 4, 4]


def test_strict_convexity():
    for name in ["A2", "B2", "G2", "BC2"]:
        fan = weyl_fan(build_root_datum(name))
        for c in fan.cones:
            assert c.pointed
            for r in c.rays:
                assert not c.closure_contains(la.neg(r))


def test_weyl_facet_points_count():
    datum = build_root_datum("A2")
    assert len(weyl_facet_points(datum)) == 13


@pytest.mark.parametrize(
    "name", ["A1", "A2", "A3", "B2", "B3", "C3", "G2", "BC1", "BC2", "A1xA1", "A1xA2"]
)
def test_weyl_fan_count_orbit_stabiliser_oracle(name):
    """Independent count: facets of type I form one orbit of size |W|/|W_I|."""
    datum = build_root_datum(name)
    weyl = weyl_enumerate(datum)
    total = 0
    for bits in range(1 << datum.rank):
        I = [i for i in range(datum.rank) if bits >> i & 1]
        total += len(weyl) // len(weyl.subgroup_elements(I))
    assert len(weyl_fan(datum)) == total


FAN_CASES = [(name, J) for name in FAN_CATALOGUE for J in valid_js(build_root_datum(name))]
WALK_CASES = FAN_CASES + [("A4", frozenset()), ("D4", frozenset())]


RANK4_CASES = [
    (name, J) for name in RANK4_CATALOGUE for J in valid_js(build_root_datum(name))
]


@pytest.mark.parametrize(
    "name,J", RANK4_CASES, ids=[f"{name}-{sorted(J)}" for name, J in RANK4_CASES]
)
def test_table_walk_matches_the_object_walk(name, J):
    """The integer tables give the object walk's cones and cores, field by
    field, words included, its transported sign rows and, from the walk's
    own lookups, the moves table that its rows give."""
    datum = build_root_datum(name)
    fan, oracle = parabolic_fan(datum, J), object_walk_fan(datum, J)
    assert [astuple(c) for c in fan.cones] == [astuple(c) for c in oracle.cones]
    for i in range(len(fan)):
        got, want = fan.cores[i], oracle.cores[i]
        assert (got.type_indices, got.generator_indices, got.word, astuple(got.cone)) == (
            want.type_indices, want.generator_indices, want.word, astuple(want.cone)
        ), i
        assert (got.cone is fan.cones[i]) == (want.cone is oracle.cones[i]), i
    assert fan._sign_table == oracle._sign_table
    assert vars(fan)["_moves"] == oracle._moves


def test_build_order_and_validate_make_no_cone_but_the_standard_cones(monkeypatch):
    """On F4 with J empty, `parabolic_fan`, `face_order` and `validate()`
    make one `Cone` per standard cone (2^4) and no other, and no
    `CoreInfo`: the walk and every check read the integer tables."""
    made = []
    for cls in (Cone, CoreInfo):

        def counted(self, *args, init=cls.__init__, cls=cls, **kwargs):
            made.append(cls)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    fan = parabolic_fan(build_root_datum("F4"))
    assert (len(fan), len(fan.face_order)) == (5089, 42913)
    assert fan.validate()["cones"] == 5089
    assert made == [Cone] * 16
    monkeypatch.undo()
    assert fan.cores[len(fan) - 1].cone is fan.cones[-1]  # the views, made on first read


def _count_reflections(monkeypatch) -> dict:
    """Record, from now on, the (vector, k) of every call of `reflect_simple`
    and `_reflected_form` in `fans`."""
    calls = {"reflect_simple": [], "_reflected_form": []}
    for name, made in calls.items():
        reflect = getattr(fans, name)
        monkeypatch.setattr(fans, name, lambda *a, f=reflect, made=made: made.append(a[1:]) or f(*a))
    return calls


@pytest.mark.parametrize("name", ["B3", "F4"])
def test_building_and_validating_a_weyl_fan_reflect_no_form(monkeypatch, name):
    """With J empty every standard cone is a face of the dominant chamber,
    written with no reflected form, the build moves ray ids only, and
    `validate` moves no form id of a built fan, so neither calls
    `_reflected_form`."""
    calls = _count_reflections(monkeypatch)
    fan = parabolic_fan(build_root_datum(name), ())
    fan.validate()
    assert calls["reflect_simple"] and not calls["_reflected_form"]


@pytest.mark.parametrize("name,J", [("B3", (1,)), ("F4", (0, 1))])
def test_the_first_read_reflects_each_form_once(monkeypatch, name, J):
    """A built fan holds the form ids of its standard cones only.  The
    first read of `Fan.cones` carries every cone's and core's form ids
    from them, reflecting each distinct form at most once per s_k and no
    point; `validate` before it reflects no form, and reading `Fan.cores`
    after it reflects nothing."""
    calls = _count_reflections(monkeypatch)  # before the build: no memo hides a call
    fan = parabolic_fan(build_root_datum(name), J)
    forms = calls["_reflected_form"]
    forms.clear()
    fan.validate()
    assert not forms
    calls["reflect_simple"].clear()
    cones = fan.cones
    assert forms and len(set(forms)) == len(forms)
    assert not calls["reflect_simple"]
    forms.clear()
    cores = fan.cores
    assert any(info.cone is not cones[i] for i, info in cores.items())
    assert not forms and not calls["reflect_simple"]


@pytest.mark.parametrize(
    "name,J", WALK_CASES, ids=[f"{name}-{sorted(J)}" for name, J in WALK_CASES]
)
def test_orbit_walk_matches_enumerated_fan(name, J):
    """The orbit walk gives the cones and cores, stored forms and words
    included, of applying all of W to every standard cone, and each word
    names the oracle's element, in all three matrices."""
    datum = build_root_datum(name)
    fan = parabolic_fan(datum, J)
    oracle = enumerated_parabolic_fan(datum, J)
    elements = {w.word: w for w in weyl_enumerate(datum)}
    assert [astuple(c) for c in fan.cones] == [astuple(c) for c in oracle.cones]
    for i in range(len(fan)):
        got, want = fan.cores[i], oracle.cores[i]
        assert (got.type_indices, got.generator_indices, got.word, astuple(got.cone)) == (
            want.type_indices, want.generator_indices, want.word, astuple(want.cone)
        ), i
        product, element = word_element(datum, got.word), elements[want.word]
        for field in ("word", "mat_points", "mat_roots", "mat_points_inv"):
            assert getattr(product, field) == getattr(element, field), (i, field)


@pytest.mark.parametrize(
    "name,J", FAN_CASES, ids=[f"{name}-{sorted(J)}" for name, J in FAN_CASES]
)
def test_transform_index_follows_the_moves_of_the_word(name, J):
    """`transform_index` along the moves of a word is the cone whose key is
    the image of the cone's key under the element's point matrix, for every
    element of W and every cone, and `cone_of_parabolic` is that image of
    the cone holding the solution of C.x = (1, ..., 1)."""
    datum = build_root_datum(name)
    fan = parabolic_fan(datum, J)
    chamber = fan.cone_containing(la.solve(la.mat(datum.cartan), (1,) * datum.rank))
    for w in weyl_enumerate(datum):
        for i in range(len(fan)):
            assert fan.transform_index(w, i) == reference_transform_index(fan, w, i), (w.word, i)
        want = reference_transform_index(fan, w, chamber)
        assert cone_of_parabolic(fan, J, w) == want, w.word


def test_parabolic_fan_forms_no_matrix_products(monkeypatch):
    """The orbit walk reflects cones and carries words, so building F4's
    Weyl fan calls `linalg.mat_mul` not once."""
    calls = []
    mat_mul = la.mat_mul
    monkeypatch.setattr(la, "mat_mul", lambda a, b: calls.append(1) or mat_mul(a, b))
    assert len(parabolic_fan(build_root_datum("F4"), ())) == 5089
    assert not calls


def test_parabolic_fan_runs_no_double_description_and_reflects_each_vector_once(monkeypatch):
    """With J empty every standard cone is a face of the dominant chamber,
    built in closed form, so building F4's Weyl fan calls
    `cones.dual_description` not once; and the walk reflects each distinct
    ray once per simple reflection at most, so `rootdata.reflect_simple`
    runs at most 4 times per distinct ray of the fan."""
    datum = build_root_datum("F4")
    calls = {"dual_description": 0, "reflect_simple": 0}
    dual_description, reflect_simple = cones.dual_description, rootdata.reflect_simple

    def counted(name, f):
        def call(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)

        return call

    monkeypatch.setattr(cones, "dual_description", counted("dual_description", dual_description))
    for module in (rootdata, fans):  # `fans` holds the name too
        monkeypatch.setattr(module, "reflect_simple", counted("reflect_simple", reflect_simple))
    fan = parabolic_fan(datum, ())
    rays = {r for c in fan.cones for r in c.rays}
    assert (len(fan), len(rays)) == (5089, 240)
    assert calls["dual_description"] == 0
    assert calls["reflect_simple"] <= 4 * len(rays)


def test_parabolic_fan_forms_no_weyl_elements(monkeypatch):
    """The orbit walk carries words, not Weyl elements, so building F4's
    Weyl fan constructs no `WeylElement`."""
    datum = build_root_datum("F4")
    calls = []
    init = WeylElement.__init__
    monkeypatch.setattr(WeylElement, "__init__", lambda *a: calls.append(a) or init(*a))
    assert len(parabolic_fan(datum, ())) == 5089
    assert not calls


def test_enumerating_weyl_reads_no_matrix_view(monkeypatch):
    """`weyl_enumerate` walks the orbit of rho^vee, keyed by points, so
    enumerating F4's Weyl group reads none of the three matrix views of an
    element and calls `linalg.mat_mul` not once."""
    datum = build_root_datum("F4")
    calls = []
    for view in ("mat_points", "mat_roots", "mat_points_inv"):
        made = getattr(WeylElement, view).func  # the cached_property's function
        monkeypatch.setattr(
            WeylElement, view, property(lambda w, v=view, f=made: calls.append(v) or f(w))
        )
    mat_mul = la.mat_mul
    monkeypatch.setattr(la, "mat_mul", lambda a, b: calls.append("mat_mul") or mat_mul(a, b))
    weyl_enumerate.cache_clear()
    assert len(weyl_enumerate(datum)) == 1152
    assert not calls


def test_validate_forms_no_matrix_products(monkeypatch):
    """`Fan.validate` carries each orbit's first core along the moves by
    reflecting cones, so validating F4's Weyl fan calls `linalg.mat_mul`
    not once."""
    fan = parabolic_fan(build_root_datum("F4"), ())
    calls = []
    mat_mul = la.mat_mul
    monkeypatch.setattr(la, "mat_mul", lambda a, b: calls.append(1) or mat_mul(a, b))
    assert fan.validate()["cones"] == 5089
    assert not calls


def test_ranks_are_tested_only_by_the_sign_rows(monkeypatch):
    """Cones come from ray incidence: building and validating F4's Weyl
    fan tests no rank in `cones`, and in `fans` only in `_sign_row`."""
    callers = []
    rank = la.rank

    def counted(rows):
        callers.append(sys._getframe(1).f_code.co_name)
        return rank(rows)

    monkeypatch.setattr(la, "rank", counted)
    parabolic_fan(build_root_datum("F4"), ()).validate()
    assert set(callers) == {"_sign_row"}


def test_fans_validation_and_patterns_do_not_enumerate_weyl():
    datum = build_root_datum("B3")
    weyl_enumerate.cache_clear()
    parabolic_fan(datum, [1]).validate()
    weyl_fan(datum).validate()
    AffineRootPattern.from_simple_denominators(datum, [1, 1, 2])
    assert weyl_enumerate.cache_info().misses == 0


@pytest.mark.parametrize(
    "name,words",
    [
        ("A2", ["", "12", "21", "1", "2", "", "", "121", "12", "21", "1", "2", ""]),
        ("G2", ["", "12121", "2121", "21212", "1212", "121", "212", "12", "21", "2", "", "1",
                "", "212121", "12121", "21212", "2121", "1212", "121", "212", "12", "21", "2",
                "1", ""]),
    ],
)
def test_core_words_are_pinned(name, words):
    """The printed core words (simple reflections numbered from 1) stay the
    words of the breadth-first closure that visits s_1 before s_2."""
    fan = weyl_fan(build_root_datum(name))
    assert ["".join(str(k + 1) for k in fan.cores[i].word) for i in range(len(fan))] == words
