from fractions import Fraction as Q
from operator import attrgetter
import sys

import pytest

from helpers import (
    FAN_CATALOGUE,
    enumerated_parabolic_fan,
    sample_points,
    sign_vector_cone_count,
    valid_js,
)
from weylfan import linalg as la
from weylfan.apartment import AffineRootPattern
from weylfan.cones import Cone, is_face_closure, is_face_supporting
from weylfan.errors import DegenerateJ, NotEssential, PartitionFailure, TypeMismatch
from weylfan.fans import (
    Fan,
    cone_of_parabolic,
    parabolic_fan,
    weyl_fan,
    weyl_facet_points,
)
from weylfan.rootdata import build_root_datum, weyl_enumerate

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
        if fan.cones[i].dim == 2 and cores[i].weyl.word == ()
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
    last = {c.dim: i for i, c in enumerate(fan.cones) if fan.cores[i].weyl.word}
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
    assert fan.cores[wall_idx].weyl.word == ()  # the fundamental merged cone
    wfan = weyl_fan(datum)
    dominant = (Q(2), Q(3))
    assert all(datum.pairing(s, dominant) > 0 for s in datum.simples)
    idx = wfan.cone_containing(dominant)
    assert wfan.cones[idx].dim == 2
    assert wfan.cores[idx].weyl.word == ()


def test_cone_of_parabolic():
    datum = build_root_datum("A2")
    weyl = weyl_enumerate(datum)
    fan = parabolic_fan(datum, [0])
    ident = weyl.identity
    s1, s2 = weyl.generators
    base = cone_of_parabolic(fan, [0], ident)
    assert fan.cores[base].weyl.word == () and fan.cones[base].dim == 2
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


WALK_CASES = [
    (name, J) for name in FAN_CATALOGUE for J in valid_js(build_root_datum(name))
] + [("A4", frozenset()), ("D4", frozenset())]


@pytest.mark.parametrize(
    "name,J", WALK_CASES, ids=[f"{name}-{sorted(J)}" for name, J in WALK_CASES]
)
def test_orbit_walk_matches_enumerated_fan(name, J):
    """The orbit walk gives the cones and cores, stored forms, words and
    matrices included, of applying all of W to every standard cone."""
    datum = build_root_datum(name)
    fan = parabolic_fan(datum, J)
    oracle = enumerated_parabolic_fan(datum, J)
    assert [astuple(c) for c in fan.cones] == [astuple(c) for c in oracle.cones]
    for i in range(len(fan)):
        got, want = fan.cores[i], oracle.cores[i]
        assert (got.type_indices, got.generator_indices, astuple(got.cone)) == (
            want.type_indices, want.generator_indices, astuple(want.cone)
        ), i
        for field in ("word", "mat_points", "mat_roots", "mat_points_inv"):
            assert getattr(got.weyl, field) == getattr(want.weyl, field), (i, field)


def test_parabolic_fan_forms_no_matrix_products(monkeypatch):
    """The orbit walk moves the Weyl matrices by O(n^2) simple-reflection
    updates, so building F4's Weyl fan calls `linalg.mat_mul` not once."""
    calls = []
    mat_mul = la.mat_mul
    monkeypatch.setattr(la, "mat_mul", lambda a, b: calls.append(1) or mat_mul(a, b))
    assert len(parabolic_fan(build_root_datum("F4"), ())) == 5089
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
    assert ["".join(str(k + 1) for k in fan.cores[i].weyl.word) for i in range(len(fan))] == words
