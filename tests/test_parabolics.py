import pytest

from helpers import is_J_relevant_exhaustive, is_J_relevant_via_perp
from weylfan import linalg as la
from weylfan.cones import Cone
from weylfan.errors import DegenerateJ
from weylfan.fans import parabolic_fan, weyl_fan
from weylfan.parabolics import (
    ParabolicType,
    dominance_cone,
    enumerate_strata,
    facade_root_system,
    is_J_relevant,
    is_non_degenerate,
)
from weylfan.rootdata import build_root_datum, weyl_enumerate

CATALOGUE = ["A1", "A2", "A3", "B2", "B3", "C3", "G2", "BC1", "BC2", "A1xA1", "A1xA2"]


def subsets(n):
    for bits in range(1 << n):
        yield frozenset(i for i in range(n) if bits >> i & 1)


def valid_js(datum):
    for J in subsets(datum.rank):
        if all(not comp <= J for comp in datum.diagram_components):
            yield J


def test_parabolic_type_partition():
    for name in ["A2", "BC2", "G2"]:
        datum = build_root_datum(name)
        for T in subsets(datum.rank):
            ptype = ParabolicType(datum, T)
            ptype.validate()
            levi = set(ptype.levi_roots)
            uni = set(ptype.unipotent_roots)
            assert levi == {tuple(-c for c in a) for a in levi}
            assert len(levi) + 2 * len(uni) == len(datum.roots)


def test_non_degeneracy_examples():
    a2 = build_root_datum("A2")
    assert is_non_degenerate(a2, [0]).value
    assert not is_non_degenerate(a2, [0, 1]).value
    aa = build_root_datum("A1xA1")
    report = is_non_degenerate(aa, [0])
    assert not report.value
    # psi = {-a2} does not span the two-dimensional dual space
    psi = ParabolicType(aa, frozenset({0})).psi
    assert la.rank([aa.covector(a) for a in psi]) == 1


@pytest.mark.parametrize("name", CATALOGUE)
def test_non_degeneracy_three_way_agreement(name):
    datum = build_root_datum(name)
    for T in subsets(datum.rank):
        report = is_non_degenerate(datum, T)
        assert report.value == report.no_component_in_levi
        assert report.value == report.no_component_in_type
        assert report.value == report.psi_spans


def test_dominance_cone_examples():
    a2 = build_root_datum("A2")
    chamber_closure = Cone.from_system(2, [], [a2.covector(s) for s in a2.simples])
    assert dominance_cone(a2, []).key == chamber_closure.key
    fan = parabolic_fan(a2, [0])
    open_cones = [
        i
        for i in range(len(fan))
        if fan.cones[i].dim == 2 and fan.cores[i].weyl.word == ()
    ]
    assert dominance_cone(a2, [0]).key == fan.cones[open_cones[0]].key
    everything = dominance_cone(a2, [0, 1])
    assert everything.dim == 2 and not everything.pointed


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "BC2", "A1xA2"])
def test_dominance_cone_is_union_of_levi_chambers(name):
    datum = build_root_datum(name)
    weyl = weyl_enumerate(datum)
    chamber = Cone.from_system(
        datum.rank, [], [datum.covector(s) for s in datum.simples]
    )
    for T in subsets(datum.rank):
        cone = dominance_cone(datum, T)
        sub = weyl.subgroup_elements(sorted(T))
        # every chamber translate under the Levi subgroup sits inside
        reps = set()
        for w in sub:
            p = la.zero_vec(datum.rank)
            for r in chamber.rays:
                p = la.add(p, w.apply_point(r))
            assert cone.closure_contains(p)
            reps.add(p)
        # and no other chamber representative does
        others = 0
        for w in weyl:
            p = la.zero_vec(datum.rank)
            for r in chamber.rays:
                p = la.add(p, w.apply_point(r))
            if cone.closure_contains(p) and p not in reps:
                others += 1
        assert others == 0


def test_relevance_examples():
    a2 = build_root_datum("A2")
    assert {
        tuple(sorted(T)) for T in subsets(2) if is_J_relevant(a2, [0], T)
    } == {(0,), (1,), (0, 1)}
    for T in subsets(2):
        assert is_J_relevant(a2, [], T)  # J empty: everything is relevant
    with pytest.raises(DegenerateJ):
        is_J_relevant(a2, [0, 1], [0])
    with pytest.raises(DegenerateJ):
        is_J_relevant_via_perp(a2, [0, 1], [0])


@pytest.mark.parametrize(
    "name,J,message",
    [
        ("A2", [5], "subset [5] is not a subset of the basis"),
        ("A1xA1", [0], "J contains the connected component [0] of the basis"),
    ],
)
def test_degenerate_j_message_is_shared(name, J, message):
    datum = build_root_datum(name)
    for call in (
        lambda: parabolic_fan(datum, J),
        lambda: is_J_relevant(datum, J, []),
        lambda: enumerate_strata(datum, J),
    ):
        with pytest.raises(DegenerateJ) as info:
            call()
        assert str(info.value) == message


def test_via_perp_examples():
    a2 = build_root_datum("A2")
    assert not is_J_relevant_via_perp(a2, [0], [])
    assert is_J_relevant_via_perp(a2, [0], [0])


@pytest.mark.parametrize("name", CATALOGUE)
def test_relevance_criteria_agree_everywhere(name):
    datum = build_root_datum(name)
    for J in valid_js(datum):
        for T in subsets(datum.rank):
            a = is_J_relevant(datum, J, T)
            b = is_J_relevant_via_perp(datum, J, T)
            c = is_J_relevant_exhaustive(datum, J, T)
            assert a == b == c, (name, sorted(J), sorted(T))


def test_full_type_always_relevant():
    for name in CATALOGUE:
        datum = build_root_datum(name)
        full = frozenset(range(datum.rank))
        for J in valid_js(datum):
            assert is_J_relevant(datum, J, full)


def test_stratum_counts():
    a2 = build_root_datum("A2")
    assert len(enumerate_strata(a2, [])) == 4
    assert len(enumerate_strata(a2, [0])) == 3
    a1 = build_root_datum("A1")
    assert len(enumerate_strata(a1, [])) == 2


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "B3", "C3", "G2"])
def test_stratum_count_j_empty_is_powerset(name):
    datum = build_root_datum(name)
    assert len(enumerate_strata(datum, [])) == 1 << datum.rank


def test_open_stratum_flag_and_fields():
    a2 = build_root_datum("A2")
    strata = enumerate_strata(a2, [0])
    open_strata = [d for d in strata if d.is_open_stratum]
    assert len(open_strata) == 1
    assert open_strata[0].type_indices == frozenset({0, 1})
    assert open_strata[0].levi_rank == 2
    singles = [d for d in strata if d.type_indices == frozenset({1})]
    assert singles[0].levi_rank == 1
    assert len(singles[0].levi_roots) == 2


@pytest.mark.parametrize("name,J", [("A2", (0,)), ("A2", ()), ("G2", (1,)), ("BC2", (0,)), ("A1", ())])
def test_strata_biject_with_core_orbit_classes(name, J):
    datum = build_root_datum(name)
    fan = parabolic_fan(datum, J)
    core_types = {fan.cores[i].type_indices for i in range(len(fan))}
    strata = enumerate_strata(datum, J)
    assert core_types == {d.type_indices for d in strata}
    pairs = enumerate_strata(datum, J, conjugates=True)
    assert len(pairs) == len(fan)


def test_facade_root_system_examples():
    a2 = build_root_datum("A2")
    fan = parabolic_fan(a2, [0])
    cores = fan.cores
    origin = fan.origin_index
    assert set(facade_root_system(a2, fan, origin)) == set(a2.roots)
    for i, c in enumerate(fan.cones):
        if cores[i].weyl.word:
            continue  # standard cones only; translates are covered below
        got = set(facade_root_system(a2, fan, i))
        T = cores[i].type_indices
        levi = set(ParabolicType(a2, T).levi_roots)
        assert got == levi
    wfan = weyl_fan(a2)
    for i, c in enumerate(wfan.cones):
        if c.dim == 2:
            assert facade_root_system(a2, wfan, i) == ()


@pytest.mark.parametrize("name,J", [("A2", (0,)), ("B2", (0,)), ("B2", (1,)), ("G2", (0,)), ("BC2", (1,)), ("A1xA2", (1,)), ("A1xA2", (2,))])
def test_facade_root_system_is_levi_of_core_type(name, J):
    datum = build_root_datum(name)
    fan = parabolic_fan(datum, J)
    for i in range(len(fan)):
        got = set(facade_root_system(datum, fan, i))
        T = fan.cores[i].type_indices
        w = fan.cores[i].weyl
        levi = {w.apply_root(a) for a in ParabolicType(datum, T).levi_roots}
        assert got == levi
