from fractions import Fraction as Q
import random

import pytest

from helpers import random_rational_vec
from weylfan import linalg as la
from weylfan.compactify import NEG_INF, limit_of_ray, ray_profile
from weylfan.errors import ProfileMismatch
from weylfan.fans import parabolic_fan
from weylfan.gaussnorm import (
    ToyGroupDatum,
    ValuedPolynomial,
    boundary_chart_values,
    boundary_rays_equal,
    cell_charts,
    fiber_direction_space,
    theta_boundary,
    theta_full,
    theta_restricted,
)
from weylfan.parabolics import is_non_degenerate
from weylfan.rootdata import build_root_datum, weyl_enumerate


def rand_poly(rng, width, terms=4, maxexp=3):
    table = {}
    for _ in range(rng.randint(1, terms)):
        exp = tuple(rng.randint(0, maxexp) for _ in range(width))
        table[exp] = Q(rng.randint(-9, 9), rng.randint(1, 4))
    return ValuedPolynomial.from_terms(width, table)


def test_constant_polynomial_is_constant():
    datum = build_root_datum("A2")
    tg = ToyGroupDatum.for_parabolic(datum, [0])
    one = ValuedPolynomial.constant(len(tg.indexed_roots), Q(0))
    for x in [(Q(0), Q(0)), (Q(3), Q(-2)), (Q(1, 7), Q(2, 5))]:
        assert theta_restricted(tg, x).evaluate(one) == 0


def test_unit_monomial_at_origin():
    datum = build_root_datum("A2")
    tg = ToyGroupDatum.for_parabolic(datum, [0])
    xi = ValuedPolynomial.coordinate(len(tg.indexed_roots), 0)
    assert theta_restricted(tg, la.zero_vec(2)).evaluate(xi) == 0


def test_two_term_maximum_a1():
    datum = build_root_datum("A1")
    tg = ToyGroupDatum.for_parabolic(datum, [])
    f = ValuedPolynomial.from_terms(1, {(1,): Q(0), (0,): Q(-1)})
    for t in [Q(5), Q(0), Q(-1), Q(-7, 2)]:
        x = (-t / 2,)  # <-a, x> = t
        assert theta_restricted(tg, x).evaluate(f) == max(t, Q(-1))


def test_zero_polynomial_evaluates_to_minus_infinity():
    datum = build_root_datum("A1")
    tg = ToyGroupDatum.for_parabolic(datum, [])
    zero = ValuedPolynomial.from_terms(1, {})
    assert theta_restricted(tg, (Q(1),)).evaluate(zero) == NEG_INF


@pytest.mark.parametrize("name,T", [("A2", (0,)), ("B2", ()), ("BC2", (0,)), ("G2", (1,)), ("A1xA1", (0,))])
def test_multiplicativity_and_ultrametric(name, T):
    datum = build_root_datum(name)
    tg = ToyGroupDatum.for_parabolic(datum, T)
    width = len(tg.indexed_roots)
    rng = random.Random(hash((name, T)) & 0xFFFF)
    for _ in range(200):
        f, g = rand_poly(rng, width), rand_poly(rng, width)
        x = random_rational_vec(rng, datum.rank)
        sn = theta_restricted(tg, x)
        assert sn.evaluate(f.multiply(g)) == sn.evaluate(f) + sn.evaluate(g)
        s = sn.evaluate(f.add(g))
        m = max(sn.evaluate(f), sn.evaluate(g))
        assert s <= m and s == m  # coefficientwise max realises the bound


def test_coefficient_shift():
    datum = build_root_datum("A2")
    tg = ToyGroupDatum.for_parabolic(datum, [0])
    rng = random.Random(1)
    f = rand_poly(rng, len(tg.indexed_roots))
    x = (Q(1, 3), Q(2, 3))
    sn = theta_restricted(tg, x)
    assert sn.evaluate(f.shift(Q(5, 2))) == sn.evaluate(f) + Q(5, 2)


def test_theta_full_extends_theta_restricted():
    datum = build_root_datum("A2")
    tg_full = ToyGroupDatum.for_full_cell(datum)
    tg_psi = ToyGroupDatum.for_parabolic(datum, [0])
    positions = [tg_full.indexed_roots.index((a, i)) for a, i in tg_psi.indexed_roots]
    rng = random.Random(2)
    for _ in range(50):
        f_small = rand_poly(rng, len(tg_psi.indexed_roots))
        table = {}
        for exp, c in f_small.terms:
            big = [0] * len(tg_full.indexed_roots)
            for pos, e in zip(positions, exp):
                big[pos] = e
            table[tuple(big)] = c
        f_big = ValuedPolynomial.from_terms(len(tg_full.indexed_roots), table)
        assert f_big.support_within(positions)
        x = random_rational_vec(rng, 2)
        assert theta_full(tg_full, x).evaluate(f_big) == theta_restricted(
            tg_psi, x
        ).evaluate(f_small)


def test_theta_full_integral_at_origin():
    datum = build_root_datum("B2")
    tg = ToyGroupDatum.for_full_cell(datum)
    rng = random.Random(3)
    at_o = theta_full(tg, la.zero_vec(2))
    for _ in range(30):
        f = rand_poly(rng, len(tg.indexed_roots))
        bounded = ValuedPolynomial.from_terms(
            f.width, {e: min(c, Q(0)) for e, c in f.terms}
        )
        assert at_o.evaluate(bounded) <= 0


def test_multiplicities_for_divisible_roots():
    datum = build_root_datum("BC1")
    a = datum.simples[0]
    neg = tuple(-c for c in a)
    neg2 = tuple(-2 * c for c in a)
    tg = ToyGroupDatum.for_parabolic(datum, [], {neg: 2, neg2: 1})
    assert tg.indexed_roots == ((neg2, 1), (neg, 1), (neg, 2))
    x = (Q(1, 2),)
    sn = theta_restricted(tg, x)
    assert sn.value_of(neg, 1) == sn.value_of(neg, 2) == datum.pairing(neg, x)
    assert sn.value_of(neg2, 1) == 2 * sn.value_of(neg, 1)


def test_fiber_direction_space_examples():
    a2 = build_root_datum("A2")
    assert fiber_direction_space(ToyGroupDatum.for_parabolic(a2, [0])) == ()
    aa = build_root_datum("A1xA1")
    fib = fiber_direction_space(ToyGroupDatum.for_parabolic(aa, [0]))
    assert len(fib) == 1
    assert aa.pairing(tuple(-c for c in aa.simples[1]), fib[0]) == 0
    full = fiber_direction_space(ToyGroupDatum.for_parabolic(a2, [0, 1]))
    assert len(full) == 2  # psi empty: everything is invisible


@pytest.mark.parametrize("name", ["A2", "B2", "BC2", "A1xA1", "A1xA2"])
def test_separation_iff_fiber(name):
    datum = build_root_datum(name)
    rng = random.Random(hash(name) & 0xFFF)
    n = datum.rank
    for bits in range(1 << n):
        T = frozenset(i for i in range(n) if bits >> i & 1)
        tg = ToyGroupDatum.for_parabolic(datum, T)
        fiber = fiber_direction_space(tg)
        for _ in range(40):
            x = random_rational_vec(rng, n)
            y = random_rational_vec(rng, n)
            diff = la.sub(la.vec(y), la.vec(x))
            in_fiber = la.rank(list(fiber) + [diff]) == la.rank(list(fiber))
            equal = theta_restricted(tg, x) == theta_restricted(tg, y)
            assert equal == in_fiber
        # non-degeneracy is exactly injectivity
        assert (not fiber) == is_non_degenerate(datum, T).value


def test_boundary_interior_profile_matches_theta():
    datum = build_root_datum("A2")
    fan = parabolic_fan(datum, [0])
    tg = ToyGroupDatum.for_parabolic(datum, [0])
    x = (Q(1, 2), Q(3))
    interior = limit_of_ray(fan, x, (Q(1), Q(1)))  # any; replaced below
    from weylfan.compactify import project_to_facade

    interior = project_to_facade(fan, fan.origin_index, x)
    assert theta_boundary(tg, interior) == theta_restricted(tg, x)


def test_boundary_limit_a1_two_term():
    datum = build_root_datum("A1")
    fan = parabolic_fan(datum, ())
    tg = ToyGroupDatum.for_parabolic(datum, [])
    f = ValuedPolynomial.from_terms(1, {(1,): Q(0), (0,): Q(-1)})
    lim = limit_of_ray(fan, (Q(0),), (Q(1),))  # <-a, x_t> -> -inf
    sn = theta_boundary(tg, lim)
    assert sn.evaluate(f) == Q(-1)
    mono = ValuedPolynomial.coordinate(1, 0)
    assert sn.evaluate(mono) == NEG_INF


def test_boundary_profile_mismatch_on_positive_escape():
    datum = build_root_datum("A2")
    fan = parabolic_fan(datum, [0])
    tg = ToyGroupDatum.for_parabolic(datum, [0])
    # a ray escaping against the cell: direction in the opposite chamber
    lim = limit_of_ray(fan, (Q(0), Q(0)), (Q(-2), Q(-3)))
    with pytest.raises(ProfileMismatch):
        theta_boundary(tg, lim)
    prof = ray_profile(datum, (Q(0), Q(0)), (Q(-2), Q(-3)))
    with pytest.raises(ProfileMismatch):
        theta_boundary(tg, prof)


def test_boundary_compatibility_along_cell_rays():
    """theta along a ray into the cell converges coordinatewise to the
    boundary seminorm of the ray's limit."""
    rng = random.Random(9)
    for name, T in [("A2", (0,)), ("G2", (1,)), ("BC2", (0,)), ("A2", ())]:
        datum = build_root_datum(name)
        fan = parabolic_fan(datum, T)
        tg = ToyGroupDatum.for_parabolic(datum, T)
        cone = fan.cones[
            next(
                i
                for i in range(len(fan))
                if fan.cones[i].dim == datum.rank and fan.cores[i].weyl.word == ()
            )
        ]
        trials = 0
        while trials < 25:
            base = random_rational_vec(rng, datum.rank)
            d = random_rational_vec(rng, datum.rank, num=4, den=2)
            if not cone.closure_contains(d) or all(v == 0 for v in d):
                continue
            trials += 1
            lim = limit_of_ray(fan, base, d)
            boundary = theta_boundary(tg, lim)
            for pos, (a, _) in enumerate(tg.indexed_roots):
                slope = datum.pairing(a, d)
                want = NEG_INF if slope < 0 else datum.pairing(a, base)
                assert boundary.values[pos] == want


def test_conjugation_relabel_identities():
    datum = build_root_datum("A2")
    weyl = weyl_enumerate(datum)
    tg = ToyGroupDatum.for_parabolic(datum, [0])
    ident_tg, perm = tg.relabel(weyl.identity)
    assert ident_tg.indexed_roots == tg.indexed_roots
    assert perm == tuple(range(len(perm)))
    rng = random.Random(13)
    s2 = weyl.generators[1]
    moved, perm = tg.relabel(s2)
    for _ in range(50):
        f = rand_poly(rng, len(tg.indexed_roots))
        x = random_rational_vec(rng, 2)
        lhs = theta_restricted(tg, x).evaluate(f)
        rhs = theta_restricted(moved, s2.apply_point(x)).evaluate(f.relabel(perm))
        assert lhs == rhs


def test_conjugation_composition():
    datum = build_root_datum("B2")
    weyl = weyl_enumerate(datum)
    tg = ToyGroupDatum.for_parabolic(datum, [1])
    u, v = weyl.generators
    w = weyl.multiply(u, v)
    once, perm_w = tg.relabel(w)
    mid, perm_v = tg.relabel(v)
    twice, perm_u = mid.relabel(u)
    assert once.indexed_roots == twice.indexed_roots
    composed = tuple(perm_u[perm_v[k]] for k in range(len(perm_v)))
    assert composed == perm_w


def test_cell_charts_and_boundary_values():
    datum = build_root_datum("A2")
    tg = ToyGroupDatum.for_parabolic(datum, [0])
    weyl = weyl_enumerate(datum)
    d = (Q(2), Q(3))
    charts = cell_charts(tg, d)
    assert charts  # the translates of the closed cone cover the space
    vals = boundary_chart_values(tg, charts[0], (Q(0), Q(0)), d)
    assert all(v == NEG_INF or isinstance(v, Q) for v in vals)
    with pytest.raises(ProfileMismatch):
        bad = next(w for w in weyl if w not in charts)
        boundary_chart_values(tg, bad, (Q(0), Q(0)), d)


def test_boundary_rays_equal_simple_cases():
    datum = build_root_datum("A2")
    tg = ToyGroupDatum.for_parabolic(datum, [0])
    r1 = ((Q(0), Q(0)), (Q(2), Q(3)))
    r2 = ((Q(1), Q(1)), (Q(1), Q(2)))  # same open merged cone of directions
    r3 = ((Q(0), Q(0)), (Q(-2), Q(-3)))
    assert boundary_rays_equal(tg, r1, r2)
    assert not boundary_rays_equal(tg, r1, r3)
