"""Property tests over random inputs, run when `hypothesis` is installed."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from fractions import Fraction
from math import gcd

from hypothesis import assume, given, settings, strategies as st

from helpers import RANK3_CATALOGUE, built_fan, valid_js
from weylfan import linalg as la
from weylfan.compactify import NEG_INF, POS_INF, limit_of_profile, limit_of_ray, ray_profile
from weylfan.cones import dual_description
from weylfan.gaussnorm import ToyGroupDatum, boundary_rays_equal
from weylfan.rootdata import build_root_datum, reflect_simple


# an int, a bool or a small Fraction entry
ENTRIES = {
    "int": st.integers(-4, 4),
    "bool": st.booleans(),
    "Fraction": st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4)),
}


@st.composite
def matrices(draw):
    """(rows, ncols): up to 4 rows on 1 to 5 columns, entries all ints,
    all bools, all `Fraction`s or any mix of the three."""
    kind = draw(st.sampled_from(sorted(ENTRIES) + ["mixed"]))
    entry = st.one_of(*ENTRIES.values()) if kind == "mixed" else ENTRIES[kind]
    ncols = draw(st.integers(1, 5))
    row = st.tuples(*[entry] * ncols)
    return draw(st.lists(row, max_size=4)), ncols


def _gauss_jordan(rows, ncols):
    """Reference: the nonzero rows of the reduced row echelon form over
    `Fraction`, with their pivot columns, by plain Gauss-Jordan."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                m[i] = [x - m[i][c] * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m[: len(pivots)], pivots


def _is_primitive_of(p, v) -> bool:
    """Whether p is a tuple of ints (no bool), coprime, and a positive
    multiple of v (zero for v zero)."""
    ints = type(p) is tuple and len(p) == len(v) and all(type(x) is int for x in p)
    if not any(v):
        return ints and not any(p)
    parallel = all(a * y == b * x for a, x in zip(p, v) for b, y in zip(p, v))
    return ints and parallel and la.dot(p, v) > 0 and gcd(*p) == 1


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(matrices())
def test_elimination_kernels_match_plain_gauss_jordan(matrix):
    """`_echelon` gives d > 0 times the reference's reduced rows with its
    pivots, `rank` their number and `row_basis` their primitive multiples;
    `primitive` of each row, given as a list, is its primitive multiple, a
    new tuple of ints, on int, bool and `Fraction` entries alike."""
    rows, ncols = matrix
    want, pivots = _gauss_jordan(rows, ncols)
    m, got_pivots, d = la._echelon(rows)
    assert type(d) is int and d > 0 and got_pivots == pivots
    assert [[Fraction(x, d) for x in row] for row in m] == want
    assert la.rank(rows) == len(pivots)
    basis = la.row_basis(rows)
    assert len(basis) == len(want) and all(map(_is_primitive_of, basis, want))
    for row in rows:
        assert _is_primitive_of(la.primitive(list(row)), row)


@st.composite
def systems(draw):
    """(n, eqs, ineqs): small int forms on n <= 5 coordinates."""
    n = draw(st.integers(1, 5))
    form = st.tuples(*[st.integers(-3, 3)] * n)
    return n, draw(st.lists(form, max_size=2)), draw(st.lists(form, max_size=n + 3))


def _holds(gens, eqs, ineqs):
    """Whether each generator (lineality both ways, then rays) satisfies
    eqs = 0 and ineqs >= 0."""
    lin, rays = gens
    return all(
        all(la.dot(e, v) == 0 for e in eqs) and all(la.dot(a, v) >= 0 for a in ineqs)
        for v in [*lin, *map(la.neg, lin), *rays]
    )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(systems())
def test_double_dual_round_trip(system):
    """The dual of the dual of a closed cone is the cone: the dual cone is
    cut out by its generators (forms vanishing on the lineality and >= 0 on
    the rays), and the cone it describes in turn has the same lineality,
    as many extreme rays and, when pointed, the same primitive rays."""
    n, eqs, ineqs = system
    cone = dual_description(n, eqs, ineqs)
    dual = dual_description(n, *cone)
    twice = dual_description(n, *dual)
    assert _holds(cone, *dual) and _holds(twice, eqs, ineqs)  # each inside the other
    assert la.row_basis(twice[0]) == la.row_basis(cone[0])
    assert len(twice[1]) == len(cone[1])
    if not cone[0]:
        assert twice[1] == cone[1]


def _fan(draw):
    """A `built_fan` of a rank <= 3 type and valid J."""
    datum = build_root_datum(draw(st.sampled_from(RANK3_CATALOGUE)))
    J = draw(st.sampled_from(sorted(map(sorted, valid_js(datum)))))
    return built_fan(datum.name, tuple(J))


def _point(draw, fan):
    """A small integer vector or the relative interior point of a fan cone,
    so that points on walls, where roots vanish, are drawn as often as
    generic ones."""
    if draw(st.booleans()):
        return draw(st.tuples(*[st.integers(-3, 3)] * fan.datum.rank))
    return fan.cones[draw(st.integers(0, len(fan) - 1))].relint_point()


@st.composite
def fan_moves(draw):
    """(fan, x, k): a fan, a point x (see `_point`) and a simple reflection k."""
    fan = _fan(draw)
    x = _point(draw, fan)
    return fan, x, draw(st.integers(0, fan.datum.rank - 1))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(fan_moves())
def test_cone_containing_is_weyl_invariant(move):
    """s_k maps the cone holding x onto the cone holding s_k.x: the cone
    located at the reflected point is the cone's image under the Weyl
    element s_k."""
    fan, x, k = move
    datum = fan.datum
    i = fan.cone_containing(x)
    image = fan.cone_containing(reflect_simple(datum.cartan, x, k))
    assert image == fan.transform_index(datum.simple_reflections[k], i)


@st.composite
def fan_reflections(draw):
    """(fan, k): a fan (see `_fan`) and a simple reflection k."""
    fan = _fan(draw)
    return fan, draw(st.integers(0, fan.datum.rank - 1))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(fan_reflections())
def test_face_order_is_weyl_invariant(move):
    """The face relation is Weyl invariant: s_k maps a face of the closure
    of g onto a face of the closure of its image, and s_k is an
    involution, so (f, g) is a face pair if and only if (moves[k][f],
    moves[k][g]) is."""
    fan, k = move
    move_k = fan._moves[k]
    pairs = set(fan.face_order)
    assert {(move_k[f], move_k[g]) for f, g in pairs} == pairs


@st.composite
def fan_rays(draw):
    """(fan, b, d): a fan, a base point b and a direction d (see `_point`)."""
    fan = _fan(draw)
    return fan, _point(draw, fan), _point(draw, fan)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(fan_rays())
def test_limit_of_ray_is_the_limit_of_its_profile(ray):
    """The ray b + t d converges to the facade point its limit profile
    names: the cone holding d, over the reduced base point."""
    fan, b, d = ray
    assume(any(d))
    assert limit_of_ray(fan, b, d) == limit_of_profile(fan, ray_profile(fan.datum, b, d))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(fan_rays())
def test_a_limit_lies_in_the_facade_of_the_cone_of_its_direction(ray):
    """The ray b + t d converges to a point of the facade of the cone that
    d lies in: the point differs from b by a vector of the cone's span, the
    zero set of its equalities, and is orthogonal to that span under the
    invariant form."""
    fan, b, d = ray
    assume(any(d))
    limit, i = limit_of_ray(fan, b, d), fan.cone_containing(d)
    assert limit.cone_index == i
    cone = fan.cones[i]
    shift = la.sub(fan.datum.point(b), limit.base)
    assert all(la.dot(e, shift) == 0 for e in cone.eqs)
    gram = fan.datum.gram_points
    span = (*cone.lineality, *cone.rays)
    assert all(la.dot(la.mat_vec(gram, g), limit.base) == 0 for g in span)


@st.composite
def datum_rays(draw):
    """(datum, b, d): a rank <= 3 catalogue datum, an integer base point b
    and an integer direction d, on walls as often as the small range gives."""
    datum = build_root_datum(draw(st.sampled_from(RANK3_CATALOGUE)))
    vector = st.tuples(*[st.integers(-3, 3)] * datum.rank)
    return datum, draw(vector), draw(vector)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(datum_rays())
def test_ray_profile_is_odd(ray):
    """<-a, b + t d> = -<a, b + t d>: the profile gives -v to -a whenever
    it gives v to a, with +inf and -inf swapped."""
    datum, b, d = ray
    table = dict(ray_profile(datum, b, d).values)
    assert set(table) == set(datum.roots)
    swapped = {POS_INF: NEG_INF, NEG_INF: POS_INF}
    for a, v in table.items():
        assert table[la.neg(a)] == (swapped[v] if v in swapped else -v), (a, v)


@st.composite
def ray_pairs(draw):
    """(fan, r1, r2): a fan and two rays (b, d), d nonzero (see `_point`).
    Half the time r2 has the limit of r1 by construction: its direction
    is the relative interior point of the cone holding d, and its base is
    b shifted by an integer combination of that cone's rays."""
    fan = _fan(draw)
    b, d = _point(draw, fan), _point(draw, fan)
    assume(any(d))
    if draw(st.booleans()):
        b2, d2 = _point(draw, fan), _point(draw, fan)
        assume(any(d2))
    else:
        cone = fan.cones[fan.cone_containing(d)]
        b2, d2 = b, cone.relint_point()
        for r in cone.rays:
            b2 = la.add(b2, la.scale(r, draw(st.integers(-2, 2))))
    return fan, (b, d), (b2, d2)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(ray_pairs())
def test_limits_are_equal_exactly_when_boundary_seminorms_are(pair):
    """Two rays have one limit in the compactification of J exactly when
    they acquire the same boundary seminorm data of the parabolic type J."""
    fan, r1, r2 = pair
    tg = ToyGroupDatum.for_parabolic(fan.datum, fan.J)
    same_limit = limit_of_ray(fan, *r1) == limit_of_ray(fan, *r2)
    assert same_limit == boundary_rays_equal(tg, r1, r2)
