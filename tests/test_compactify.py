from fractions import Fraction as Q
import random

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
from weylfan.errors import InconsistentProfile, NonRootSystem
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
                assert ((f, g) in order) == fan.is_face(f, g)


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
