from decimal import Decimal
from fractions import Fraction as Q
import random
import re

import pytest

from helpers import random_rational_vec
from weylfan import linalg as la
from weylfan.compactify import (
    NEG_INF,
    POS_INF,
    LimitProfile,
    NoLimit,
    limit_of_profile,
    limit_of_ray,
    project_to_facade,
    ray_profile,
)
from weylfan.cones import is_face_closure
from weylfan.errors import InconsistentProfile, NonRootSystem, TypeMismatch
from weylfan.fans import parabolic_fan, weyl_fan
from weylfan.rootdata import build_root_datum


@pytest.fixture(scope="module")
def a2():
    return build_root_datum("A2")


@pytest.fixture(scope="module")
def fan_j1(a2):
    return parabolic_fan(a2, [0])


@pytest.fixture(scope="module")
def wfan(a2):
    return weyl_fan(a2)


def test_interior_projection_is_identity(fan_j1):
    x = (Q(1, 2), Q(-2, 3))
    p = project_to_facade(fan_j1, fan_j1.origin_index, x)
    assert p.base == x
    assert p.is_interior and p.facade_dim == 2


def test_projection_kills_span(fan_j1):
    for c, cone in enumerate(fan_j1.cones):
        x = (Q(1), Q(1, 3))
        p1 = project_to_facade(fan_j1, c, x)
        for s in cone.span_basis:
            p2 = project_to_facade(fan_j1, c, la.add(la.vec(x), s))
            assert p1 == p2
        assert p1.facade_dim == 2 - cone.dim


def test_limit_of_ray_dominant_direction(wfan, a2):
    d = (Q(2), Q(3))
    assert all(a2.pairing(s, d) > 0 for s in a2.simples)
    lim = limit_of_ray(wfan, (Q(1), Q(0)), d)
    assert wfan.cones[lim.cone_index].dim == 2
    assert lim.facade_dim == 0


def test_limit_of_ray_wall_direction_keeps_coordinate(wfan, a2):
    d = (Q(1), Q(2))  # on the wall of a1
    assert a2.pairing(a2.simples[0], d) == 0
    base = (Q(1), Q(0))
    lim = limit_of_ray(wfan, base, d)
    assert wfan.cones[lim.cone_index].dim == 1
    # the retained transverse coordinate remembers the a1 pairing of the base
    assert a2.pairing(a2.simples[0], lim.base) == a2.pairing(a2.simples[0], base)


def test_limit_of_ray_base_shift_invariance(fan_j1):
    d = (Q(1), Q(2))
    c = fan_j1.cone_containing(d)
    span = fan_j1.cones[c].span_basis
    base = (Q(1, 3), Q(2))
    shifted = la.add(la.vec(base), la.add(span[0], span[1] if len(span) > 1 else la.zero_vec(2)))
    assert limit_of_ray(fan_j1, base, d) == limit_of_ray(fan_j1, shifted, d)


def test_zero_direction_rejected(fan_j1):
    with pytest.raises(NonRootSystem):
        limit_of_ray(fan_j1, (Q(0), Q(0)), (Q(0), Q(0)))


def test_profile_oddness_enforced(a2):
    a1r = a2.simples[0]
    with pytest.raises(InconsistentProfile):
        LimitProfile(a2, tuple(sorted({
            **{a: Q(0) for a in a2.roots},
            a1r: Q(1),
        }.items())))


def test_profile_rejects_finite_floats():
    a1 = build_root_datum("A1")
    with pytest.raises(InconsistentProfile, match="finite profile values must be rational"):
        LimitProfile(a1, (((-1,), -0.5), ((1,), 0.5)))
    with pytest.raises(InconsistentProfile, match="finite profile values must be rational"):
        LimitProfile.of(a1, {(1,): 0.5})
    assert limit_of_profile(weyl_fan(a1), LimitProfile.of(a1, {(1,): POS_INF}))


@pytest.mark.parametrize(
    "values",
    [
        {(1,): True},  # a bool is no int here
        {(1,): "1/2"},
        {(1,): None},
        {(1,): 0.5},
        {(1,): float("nan")},
        {(1,): Decimal(1)},
        {(-1,): "1", (1,): "-1"},
    ],
    ids=["bool", "str", "None", "finite-float", "nan", "Decimal", "str-pair"],
)
def test_profile_values_are_ints_fractions_or_infinities(values):
    """Both constructors name the first value that is not an int (a bool is
    not), a Fraction or one of the two float infinities."""
    a1 = build_root_datum("A1")
    value = next(iter(values.values()))
    with pytest.raises(InconsistentProfile, match=re.escape(repr(value))):
        LimitProfile.of(a1, values)
    with pytest.raises(InconsistentProfile, match=re.escape(repr(value))):
        LimitProfile(a1, tuple(values.items()))


def test_profile_values_keep_ints_fractions_and_infinities():
    a1 = build_root_datum("A1")
    assert LimitProfile.of(a1, {(1,): 2}).values == (((-1,), Q(-2)), ((1,), Q(2)))
    assert LimitProfile.of(a1, {(1,): Q(1, 2)}).values == (((-1,), Q(-1, 2)), ((1,), Q(1, 2)))
    assert LimitProfile.of(a1, {(-1,): NEG_INF}).values == (((-1,), NEG_INF), ((1,), POS_INF))
    assert LimitProfile(a1, (((-1,), -1), ((1,), 1))).value((1,)) == 1


@pytest.mark.parametrize("name", ["A2", "C2"])
def test_profiles_of_another_datum_are_rejected(name):
    """A profile is matched only against a fan of its own datum: on the B2
    fan, one of A2 (other roots) and one of C2 (B2's Cartan matrix
    transposed) are TypeMismatch, not a cone or a KeyError."""
    fan = weyl_fan(build_root_datum("B2"))
    profile = ray_profile(build_root_datum(name), (0, 0), (1, 2))
    with pytest.raises(TypeMismatch, match=f"root datum {name} is not the root datum B2"):
        limit_of_profile(fan, profile)


def _pairing_profile(datum, base, direction) -> tuple:
    """`ray_profile` oracle: every root, negative and divisible ones
    included, paired with both points in `Fraction` arithmetic."""
    b, d = datum.point(base), datum.point(direction)
    table = {}
    for a in datum.roots:
        slope = datum.pairing(a, d)
        table[a] = POS_INF if slope > 0 else NEG_INF if slope < 0 else datum.pairing(a, b)
    return tuple(sorted(table.items()))


@pytest.mark.parametrize("name", ["A2", "B3", "G2", "BC2", "BC3", "A1xA2", "F4"])
def test_ray_profiles_from_the_positive_roots_match_pairing_every_root(name):
    """Pairing each positive nondivisible root once, over integers, gives
    every root's value of the pairing oracle, in value and in type, for
    directions on walls and off them and for int and Fraction points."""
    datum = build_root_datum(name)
    rng = random.Random(31)
    for _ in range(40):
        base = random_rational_vec(rng, datum.rank, num=6, den=4)
        d = [rng.choice([0, 0, 1, -1, 2, Q(-1, 3)]) for _ in range(datum.rank)]
        d[rng.randrange(datum.rank)] = 1
        if rng.random() < 0.25:
            base = [int(v) for v in base]
        got = ray_profile(datum, base, d).values
        want = _pairing_profile(datum, base, d)
        assert [(a, type(v), v) for a, v in got] == [(a, type(v), v) for a, v in want]


def test_profile_of_ray_matches_limit_everywhere(a2, fan_j1, wfan):
    rng = random.Random(17)
    for fan in (fan_j1, wfan):
        for _ in range(60):
            d = random_rational_vec(rng, 2, num=5, den=3)
            if all(v == 0 for v in d):
                continue
            base = random_rational_vec(rng, 2, num=5, den=3)
            prof = ray_profile(a2, base, d)
            assert limit_of_profile(fan, prof) == limit_of_ray(fan, base, d)


def test_all_finite_profile_is_interior(a2, fan_j1):
    x = (Q(1, 5), Q(2, 7))
    table = {a: a2.pairing(a, x) for a in a2.roots}
    lim = limit_of_profile(fan_j1, LimitProfile.of(a2, table))
    assert lim.is_interior and lim.base == x


def test_merged_cone_profile_regression(a2, fan_j1):
    """A finite value on the merged root with divergence elsewhere lands in
    the facade of the full merged cone; the transverse value is not
    retained there (the facade is a single point)."""
    a1r, a2r = a2.simples
    s = tuple(x + y for x, y in zip(a1r, a2r))
    prof = LimitProfile.of(a2, {a1r: Q(5), a2r: POS_INF, s: POS_INF})
    lim = limit_of_profile(fan_j1, prof)
    assert fan_j1.cones[lim.cone_index].dim == 2
    assert lim.facade_dim == 0
    assert lim.base == (Q(0), Q(0))
    # consistency: a ray with that profile really converges there
    d_wall = (Q(1), Q(2))
    base = la.mat_vec(la.inverse(la.mat(a2.cartan)), (Q(5), Q(7)))
    assert ray_profile(a2, base, d_wall).value(a1r) == Q(5)
    assert limit_of_ray(fan_j1, base, d_wall) == lim


def test_weyl_fan_mixed_profile_regression(a2, wfan):
    """Divergence +inf on a1, -inf on a2 with a1+a2 finite matches the ray
    on the wall of a1+a2, keeping the finite coordinate."""
    a1r, a2r = a2.simples
    s = tuple(x + y for x, y in zip(a1r, a2r))
    prof = LimitProfile.of(a2, {a1r: POS_INF, a2r: NEG_INF, s: Q(4)})
    lim = limit_of_profile(wfan, prof)
    assert lim is not NoLimit
    cone = wfan.cones[lim.cone_index]
    assert cone.dim == 1
    assert a2.pairing(s, lim.base) == Q(4)


def test_no_limit_for_incoherent_divergence(a2, wfan):
    a1r, a2r = a2.simples
    s = tuple(x + y for x, y in zip(a1r, a2r))
    prof = LimitProfile.of(a2, {a1r: POS_INF, a2r: Q(1), s: Q(2)})
    assert limit_of_profile(wfan, prof) is NoLimit
    assert not NoLimit


def test_inconsistent_finite_values(a2, wfan):
    a1r, a2r = a2.simples
    s = tuple(x + y for x, y in zip(a1r, a2r))
    prof = LimitProfile.of(a2, {a1r: Q(1), a2r: Q(2), s: Q(7)})
    with pytest.raises(InconsistentProfile):
        limit_of_profile(wfan, prof)


def test_witness_must_agree(a2, wfan):
    x = (Q(1), Q(1))
    table = {a: a2.pairing(a, x) for a in a2.roots}
    prof = LimitProfile.of(a2, table)
    assert limit_of_profile(wfan, prof, witness=x).base == x
    with pytest.raises(InconsistentProfile):
        limit_of_profile(wfan, prof, witness=(Q(2), Q(2)))


def test_sequential_consistency_bullets(a2, fan_j1, wfan):
    """For x_n = a + n d and returned limit [base + c]: forms vanishing on
    the span of c are identically zero on x_n - base, and the facet forms
    of c diverge; by conic combination this settles every linear form."""
    rng = random.Random(23)
    for fan in (fan_j1, wfan):
        for _ in range(40):
            d = random_rational_vec(rng, 2, num=5, den=3)
            if all(v == 0 for v in d):
                continue
            a = random_rational_vec(rng, 2, num=5, den=3)
            lim = limit_of_ray(fan, a, d)
            cone = fan.cones[lim.cone_index]
            for e in cone.eqs:  # annihilator basis of the span
                assert la.dot(e, d) == 0
                assert la.dot(e, la.sub(la.vec(a), lim.base)) == 0
            for form in cone.ins:  # facet forms: positive slope, so +inf
                assert la.dot(form, d) > 0


def test_limit_equality_is_transitive(fan_j1):
    base = (Q(0), Q(0))
    l1 = limit_of_ray(fan_j1, base, (Q(2), Q(3)))
    l2 = limit_of_ray(fan_j1, (Q(1), Q(1)), (Q(1), Q(2)))
    l3 = limit_of_ray(fan_j1, (Q(-1), Q(4)), (Q(3), Q(5)))
    assert l1 == l2 and l2 == l3 and l1 == l3
    assert len({l1, l2, l3}) == 1


def test_facade_closure_order(wfan, fan_j1):
    for fan in (wfan, fan_j1):
        order = fan.face_order
        o = fan.origin_index
        assert all((o, g) in order for g in range(len(fan.cones)))
        # maximality of the open facades: nothing above them but themselves
        for g, cone in enumerate(fan.cones):
            if cone.dim == fan.datum.rank:
                assert [f for (f, h) in order if f == g] == [g]
        for f in range(len(fan.cones)):
            for g in range(len(fan.cones)):
                assert ((f, g) in order) == is_face_closure(fan.cones[f], fan.cones[g])


def test_profile_limit_total_over_every_cone():
    """For every cone of several fans, the profile of a generic ray into the
    cone recovers exactly that cone and the reduced base."""
    import random

    from weylfan.fans import parabolic_fan
    from weylfan.rootdata import build_root_datum

    rng = random.Random(31)
    for name, J in [("BC2", (1,)), ("G2", (0,)), ("A2", (0,)), ("B2", ())]:
        datum = build_root_datum(name)
        fan = parabolic_fan(datum, J)
        for idx, cone in enumerate(fan.cones):
            if cone.is_origin:
                continue
            d = cone.relint_point()
            base = random_rational_vec(rng, datum.rank)
            prof = ray_profile(datum, base, d)
            lim = limit_of_profile(fan, prof, witness=base)
            assert lim.cone_index == idx
            assert lim == limit_of_ray(fan, base, d)
