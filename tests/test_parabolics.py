import pytest

from helpers import (
    RANK4_CATALOGUE,
    built_fan,
    core_generating_set,
    core_generator_roots,
    is_J_relevant_exhaustive,
    is_J_relevant_via_perp,
    reference_is_J_relevant,
    valid_js,
    word_element,
)
from weylfan import linalg as la
from weylfan import parabolics
from weylfan.cones import Cone
from weylfan._value import replace
from weylfan.errors import DegenerateJ, NonRootSystem, TypeMismatch
from weylfan.fans import _admissible_index_sets, parabolic_fan, weyl_fan
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
        if fan.cones[i].dim == 2 and fan.cores[i].word == ()
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


@pytest.mark.parametrize("name", RANK4_CATALOGUE)
def test_relevance_is_the_image_of_the_admissible_map(name):
    """`is_J_relevant`, one walk inside T, holds exactly for the types of
    `fans._admissible_index_sets`, for every valid J and every T."""
    datum = build_root_datum(name)
    for J in valid_js(datum):
        types = set(_admissible_index_sets(datum, J).values())
        for T in subsets(datum.rank):
            assert is_J_relevant(datum, J, T) == (T in types), (sorted(J), sorted(T))


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


def test_enumerate_strata_validates_j_once(monkeypatch):
    calls = []
    real = parabolics.validate_J

    def counting(datum, J):
        calls.append(J)
        return real(datum, J)

    monkeypatch.setattr(parabolics, "validate_J", counting)
    datum = build_root_datum("B3")
    for J in [[], [1], [0, 2]]:
        calls.clear()
        enumerate_strata(datum, J)
        assert len(calls) == 1


def test_via_perp_examples():
    a2 = build_root_datum("A2")
    assert not is_J_relevant_via_perp(a2, [0], [])
    assert is_J_relevant_via_perp(a2, [0], [0])


@pytest.mark.parametrize("name", CATALOGUE)
def test_relevance_criteria_agree_everywhere(name):
    datum = build_root_datum(name)
    for J in valid_js(datum):
        relevant = set()
        for T in subsets(datum.rank):
            a = is_J_relevant(datum, J, T)
            b = is_J_relevant_via_perp(datum, J, T)
            c = is_J_relevant_exhaustive(datum, J, T)
            assert a == b == c, (name, sorted(J), sorted(T))
            if c:
                relevant.add(T)
        strata = enumerate_strata(datum, J)
        assert len(strata) == len(relevant), (name, sorted(J))
        assert {d.type_indices for d in strata} == relevant, (name, sorted(J))
        for d in strata:
            T = d.type_indices
            covs = [datum.covector(a) for a in d.levi_roots]
            assert d.generating_indices == core_generating_set(datum, J, T), (name, sorted(J))
            assert d.levi_rank == (la.rank(covs) if covs else 0), (name, sorted(J))
            assert d.is_open_stratum == (len(T) == datum.rank)


def _outcome(call):
    try:
        return call()
    except (DegenerateJ, NonRootSystem) as err:
        return type(err), str(err)


@pytest.mark.parametrize("name", RANK4_CATALOGUE)
def test_relevance_from_the_admissible_map_matches_the_set_algebra(name):
    """`is_J_relevant` reads the admissible map; on every J and T, valid or
    not, it answers or raises as the set-algebra oracle does."""
    datum = build_root_datum(name)
    n = datum.rank
    bad = [[n], [-1], [True], [0, 1.0]]
    for J in [*subsets(n), *bad]:
        for T in [*subsets(n), *bad]:
            got = _outcome(lambda: is_J_relevant(datum, J, T))
            assert got == _outcome(lambda: reference_is_J_relevant(datum, J, T)), (J, T)


def test_facade_root_systems_take_a_fan_of_their_datum():
    """A fan of a datum with another Cartan matrix or other roots (B3 and
    BC3 share their Cartan matrix) is a TypeMismatch; a datum equal in both
    is accepted under any name."""
    a2, b3, bc3 = (build_root_datum(name) for name in ("A2", "B3", "BC3"))
    pairs = [
        (build_root_datum("B2"), built_fan("A2", (0,))),
        (bc3, built_fan("B3")),
        (b3, built_fan("BC3")),
    ]
    for datum, fan in pairs:
        message = f"^root datum {datum.name} is not the root datum {fan.datum.name}$"
        with pytest.raises(TypeMismatch, match=message):
            facade_root_system(datum, fan, 0)
    fan = built_fan("A2", (0,))
    again = replace(a2, name="A2 again")
    for i in range(len(fan)):
        assert facade_root_system(again, fan, i) == facade_root_system(a2, fan, i)


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


@pytest.mark.parametrize(
    "name,J",
    [("A2", (0,)), ("A2", ()), ("G2", (1,)), ("BC2", (0,)), ("A1", ()),
     ("A4", ()), ("D4", (0, 2, 3)), ("F4", ())],
)
def test_strata_biject_with_core_orbit_classes(name, J):
    fan = built_fan(name, J)
    datum = fan.datum
    core_types = {fan.cores[i].type_indices for i in range(len(fan))}
    strata = enumerate_strata(datum, J)
    assert core_types == {d.type_indices for d in strata}
    # orbit-stabiliser: the standard facet of type T has stabiliser W_T
    weyl = weyl_enumerate(datum)
    orbits = [len(weyl) // len(weyl.subgroup_elements(d.type_indices)) for d in strata]
    assert sum(orbits) == len(fan)


@pytest.mark.parametrize(
    "name,J",
    [
        pytest.param(name, tuple(sorted(J)), id=f"{name}-{sorted(J)}")
        for name in RANK4_CATALOGUE
        for J in valid_js(build_root_datum(name))
    ],
)
def test_facade_root_system_matches_the_core_generator_oracle(name, J):
    """The roots vanishing at a cone's interior point are those vanishing
    on every generator of its stored core."""
    fan = built_fan(name, J)
    for i in range(len(fan)):
        assert facade_root_system(fan.datum, fan, i) == core_generator_roots(fan, i), i


def test_facade_root_system_examples():
    a2 = build_root_datum("A2")
    fan = parabolic_fan(a2, [0])
    cores = fan.cores
    origin = fan.origin_index
    assert set(facade_root_system(a2, fan, origin)) == set(a2.roots)
    for i, c in enumerate(fan.cones):
        if cores[i].word:
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
        w = word_element(datum, fan.cores[i].word)
        levi = {w.apply_root(a) for a in ParabolicType(datum, T).levi_roots}
        assert got == levi
