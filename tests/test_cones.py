from fractions import Fraction as Q
from math import gcd, lcm
import random

import pytest

from weylfan import linalg as la
from weylfan.cones import (
    Cone,
    closure_subset,
    dual_description,
    is_face_closure,
    is_face_supporting,
    open_system_feasible,
)
from weylfan.errors import DimensionMismatch, EmptyCone
from weylfan.fans import Fan, _admissible_index_sets, _facet_cone, _fixed_core, standard_cone_system
from weylfan.rootdata import build_root_datum

from helpers import (
    RANK4_CATALOGUE,
    built_fan,
    random_cone_system,
    reference_dual_description,
    reference_from_system,
    reference_rref,
    valid_js,
)


def V(*xs):
    return tuple(Q(x) for x in xs)


def test_rref_solve_kernel():
    rows = [V(1, 2, 3), V(2, 4, 6), V(0, 1, 1)]
    assert la.rank(rows) == 2
    assert la.kernel_basis(rows, 3)
    sol = la.solve(la.mat([[2, 1], [1, 1]]), V(3, 2))
    assert sol == V(1, 1)
    assert la.det(la.mat([[2, -1], [-1, 2]])) == 3
    inv = la.inverse(la.mat([[2, -1], [-1, 2]]))
    assert la.mat_mul(la.mat([[2, -1], [-1, 2]]), inv) == la.identity(2)


def _no_float(x) -> bool:
    if isinstance(x, (tuple, list)):
        return all(_no_float(y) for y in x)
    return not isinstance(x, float)


def test_linalg_returns_no_float_on_int_input():
    rows = ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
    square = ((2, -1), (-1, 2))
    for result in (
        la.rref(rows),
        la.rref([(3, 6, 1), (1, 5, 7)]),
        la.kernel_basis([(3, 6, 1), (1, 5, 7)], 3),
        la.solve(square, (1, 0)),
        la.solve([(3, 6, 1), (1, 5, 7)], (1, 1)),
        la.inverse(rows),
        la.det(rows),
        la.rank(rows),
        dual_description(3, [(1, 1, 1)], [(2, -1, 0), (0, 3, -1)]),
        dual_description(3, [], [(2, -1, 0), (-1, 2, -1), (0, -1, 2)]),
    ):
        assert _no_float(result), result


def _random_rows(rng, nrows, ncols):
    """Rational rows with repeated, zero and dependent rows, and rows of
    plain ints or of ints mixed with Fractions."""
    rows = []
    for _ in range(nrows):
        roll = rng.random()
        if rows and roll < 0.15:
            rows.append(rng.choice(rows))  # repeated row
        elif roll < 0.25:
            rows.append((Q(0),) * ncols)  # zero row
        elif roll < 0.4 and len(rows) >= 2:
            a, b = rng.sample(rows, 2)  # dependent row
            c = Q(rng.randint(-3, 3), rng.randint(1, 4))
            rows.append(la.add(a, la.scale(b, c)))
        elif roll < 0.55:
            rows.append(tuple(rng.randint(-6, 6) for _ in range(ncols)))  # ints only
        else:
            row = [Q(rng.randint(-5, 5), rng.choice([1, 1, 2, 3, 7])) for _ in range(ncols)]
            if rng.random() < 0.3:  # mixed int and Fraction entries
                row = [int(x) if x.denominator == 1 else x for x in row]
            rows.append(tuple(row))
    return rows


def _reference_kernel(rows, n):
    red, pivots = reference_rref(rows)
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        v = [Q(0)] * n
        v[fc] = Q(1)
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc]
        den = lcm(*(x.denominator for x in v))
        ints = [int(x * den) for x in v]
        g = gcd(*ints)
        basis.append(tuple(x // g for x in ints))
    return basis


def _reference_solve(rows, b):
    n = len(rows[0]) if rows else 0
    red, pivots = reference_rref([tuple(row) + (bi,) for row, bi in zip(rows, b)])
    if n in pivots:
        return None
    x = [Q(0)] * n
    for row, pc in zip(red, pivots):
        x[pc] = row[n]
    return tuple(x)


def _reference_inverse(m):
    """The inverse, or None if m is singular."""
    n = len(m)
    unit = [tuple(Q(int(i == j)) for j in range(n)) for i in range(n)]
    red, pivots = reference_rref([tuple(row) + e for row, e in zip(m, unit)])
    if pivots[:n] != list(range(n)):
        return None
    return tuple(tuple(row[n:]) for row in red)


def _reference_det(m):
    """det by the adjugate: inv[j][i] = (-1)^(i+j) det(m without row i and
    column j) / det m, for an entry of the inverse that is not zero."""
    if not m:
        return Q(1)
    inv = _reference_inverse(m)
    if inv is None:
        return Q(0)
    n = len(m)
    j, i = next((j, i) for j in range(n) for i in range(n) if inv[j][i])
    minor = [row[:j] + row[j + 1 :] for k, row in enumerate(m) if k != i]
    return (-1) ** (i + j) * _reference_det(minor) / inv[j][i]


def _typed(x):
    """x with the type of every container and entry, so == compares both."""
    if isinstance(x, (list, tuple)):
        return type(x), tuple(_typed(y) for y in x)
    return type(x), x


def test_linalg_matches_reference_rref_on_random_rational_matrices():
    """`rref`, `rank`, `kernel_basis`, `solve`, `inverse` and `det` agree in
    value and entry type with answers derived from a Gauss-Jordan
    elimination over Fraction."""
    rng = random.Random(20221018)
    singular = 0
    for trial in range(2000):
        nrows, ncols = rng.randint(0, 6), rng.randint(1, 5)
        rows = _random_rows(rng, nrows, ncols)
        square = _random_rows(rng, ncols, ncols)
        b = tuple(rng.choice([rng.randint(-4, 4), Q(rng.randint(-4, 4), 3)]) for _ in rows)
        red, pivots = reference_rref(rows)
        assert _typed(la.rref(rows)) == _typed((red, pivots)), rows
        assert la.rank(rows) == len(red), rows
        assert _typed(la.kernel_basis(rows, ncols)) == _typed(_reference_kernel(rows, ncols)), rows
        assert _typed(la.solve(rows, b)) == _typed(_reference_solve(rows, b)), (rows, b)
        inv = _reference_inverse(square)
        if inv is None:
            singular += 1
            with pytest.raises(ValueError):
                la.inverse(square)
        else:
            assert _typed(la.inverse(square)) == _typed(inv), square
        assert _typed(la.det(square)) == _typed(_reference_det(square)), square
    assert 200 < singular < 1800  # both branches are well exercised


def test_dual_description_quadrant():
    lin, rays = dual_description(2, [], [V(1, 0), V(0, 1)])
    assert lin == []
    assert sorted(rays) == [V(0, 1), V(1, 0)]


def test_dual_description_halfspace_and_line():
    lin, rays = dual_description(2, [], [V(1, 0)])
    assert len(lin) == 1 and len(rays) == 1
    lin, rays = dual_description(2, [V(1, 0)], [])
    assert len(lin) == 1 and rays == []


def test_dual_description_simplicial_3d():
    forms = [V(1, 0, 0), V(0, 1, 0), V(0, 0, 1), V(1, 1, 1)]
    lin, rays = dual_description(3, [], forms)
    assert lin == []
    assert sorted(rays) == [V(0, 0, 1), V(0, 1, 0), V(1, 0, 0)]


def test_fundamental_chamber_rays_are_coweights():
    for name in ["A2", "B2", "B3", "G2", "BC2"]:
        datum = build_root_datum(name)
        n = datum.rank
        ins = [datum.covector(s) for s in datum.simples]
        cone = Cone.from_system(n, [], ins)
        coweights = sorted(la.primitive(w) for w in datum.fundamental_coweights())
        assert sorted(cone.rays) == coweights


def test_empty_cone_raises():
    with pytest.raises(EmptyCone):
        Cone.from_system(2, [V(1, 0), V(0, 1)], [V(1, 1)])


def test_face_criteria_on_quadrant():
    quadrant = Cone.from_system(2, [], [V(1, 0), V(0, 1)])
    xaxis = Cone.from_system(2, [V(0, 1)], [V(1, 0)])
    origin = Cone.from_system(2, [V(1, 0), V(0, 1)], [])
    opposite = Cone.from_system(2, [V(0, 1)], [V(-1, 0)])
    for f, g, want in [
        (origin, quadrant, True),
        (xaxis, quadrant, True),
        (quadrant, quadrant, True),
        (quadrant, xaxis, False),
        (opposite, quadrant, False),
    ]:
        assert is_face_closure(f, g) is want
        assert is_face_supporting(f, g) is want


def test_interior_ray_rejected_by_supporting_criterion():
    g = Cone.from_system(2, [], [V(0, 1), V(1, -1)])
    interior = Cone.from_system(2, [V(1, -2)], [V(1, 0)])
    assert closure_subset(interior, g)
    assert not is_face_supporting(interior, g)


def test_membership_and_relint():
    cone = Cone.from_system(3, [V(0, 0, 1)], [V(1, 0, 0), V(0, 1, 0)])
    assert cone.dim == 2
    p = cone.relint_point()
    assert cone.contains(p)
    assert not cone.contains(V(1, 0, 1))
    assert cone.closure_contains(V(1, 0, 0))
    assert not cone.contains(V(1, 0, 0))


def test_transform_matches_fresh_construction():
    datum = build_root_datum("B2")
    n = datum.rank
    from weylfan.rootdata import weyl_enumerate

    weyl = weyl_enumerate(datum)
    ins = [datum.covector(s) for s in datum.simples]
    chamber = Cone.from_system(n, [], ins)
    for w in weyl:
        inv = la.inverse(w.mat_points)
        moved = chamber.transform(w.mat_points, inv)
        fresh = Cone.from_system(
            n, [], [datum.covector(w.apply_root(s)) for s in datum.simples]
        )
        assert moved.key == fresh.key


def test_cone_equality_is_equality_of_sets():
    """Cones of the orbit walk store moved forms, not the RREF basis of
    `from_system`; equality and hashing read only the set."""
    fan = built_fan("A3")
    moved = 0
    for c in fan.cones:
        fresh = Cone.from_system(c.dim_ambient, c.eqs, c.ins)
        moved += fresh.eqs != c.eqs
        assert fresh == c and hash(fresh) == hash(c)
    assert moved  # some stored forms differ from the canonical ones
    origins = [Cone.from_system(n, la.identity(n), []) for n in (1, 2)]
    assert origins[0].key == origins[1].key and origins[0] != origins[1]


def test_open_system_feasible():
    assert open_system_feasible(2, [], [V(1, 0), V(-1, 0)]) is None
    p = open_system_feasible(2, [], [V(1, 0), V(0, 1)], [V(1, 1)])
    assert p is not None and p[0] > 0 and p[1] > 0


def test_sign_of():
    cone = Cone.from_system(2, [], [V(0, 1), V(1, 1)])
    assert cone.sign_of(V(0, 1)) == 1
    assert cone.sign_of(V(0, -1)) == -1
    assert cone.sign_of(V(1, 0)) == 2  # mixed on the merged cone
    ray = Cone.from_system(2, [V(1, 0)], [V(0, 1)])
    assert ray.sign_of(V(1, 0)) == 0


def test_double_dual_involution_random_systems():
    """dual(dual(C)) = C for the closed cone of random rational systems."""
    import random

    from weylfan.errors import EmptyCone

    rng = random.Random(99)

    def dd_of_generators(n, lin, rays):
        eqs = list(lin)
        ins = list(rays)
        return dual_description(n, eqs, ins)

    checked = 0
    for n in (2, 3, 4):
        for _ in range(40):
            forms = [
                tuple(Q(rng.randint(-3, 3)) for _ in range(n))
                for _ in range(rng.randint(1, n + 2))
            ]
            forms = [f for f in forms if any(f)]
            if not forms:
                continue
            lin, rays = dual_description(n, [], forms)
            # dual cone: forms nonnegative on all generators, zero on lineality
            dlin, drays = dd_of_generators(n, lin, rays)
            # and back: the double dual must reproduce the closed cone
            ddlin, ddrays = dd_of_generators(n, dlin, drays)
            assert sorted(la.primitive(v) for v in ddlin) == sorted(
                la.primitive(v) for v in lin
            )
            assert sorted(ddrays) == sorted(rays)
            checked += 1
    assert checked > 100


def _canonical(from_system, n, eqs, ins):
    """Every field of the cone, with the type of every entry, or the
    EmptyCone message."""
    try:
        c = from_system(n, eqs, ins)
    except EmptyCone as e:
        return str(e)
    return _typed((c.dim_ambient, c.eqs, c.ins, c.lineality, c.rays))


def test_dual_description_and_from_system_match_their_oracles_on_random_systems():
    """The incidence-based double description and facet test give, field
    by field and entry type by entry type, what the rank-pruning oracles
    give, on random systems with lineality, repeated, scaled and zero
    forms, and empty open cones."""
    rng = random.Random(17)
    empty = combined = 0
    for _ in range(2500):
        n, eqs, ins = random_cone_system(rng)
        got = dual_description(n, eqs, ins)
        assert _typed(got) == _typed(reference_dual_description(n, eqs, ins)), (n, eqs, ins)
        cone = _canonical(Cone.from_system, n, eqs, ins)
        assert cone == _canonical(reference_from_system, n, eqs, ins), (n, eqs, ins)
        empty += isinstance(cone, str)
        combined += len(got[1]) > n - len(eqs)  # more rays than a simplicial cone
    assert 500 < empty < 2000 and combined > 100  # every branch is well exercised


def test_from_system_matches_oracle_on_catalogue_cones(monkeypatch):
    """Every standard cone, `_facet_cone` and `_fixed_core` (of the
    standard cones) of every rank <= 4 catalogue type and valid J is the
    oracle's cone."""
    new = Cone.from_system
    systems = []

    def checked(n, eqs, ins):
        systems.append(n)
        assert _canonical(new, n, eqs, ins) == _canonical(reference_from_system, n, eqs, ins)
        return new(n, eqs, ins)

    monkeypatch.setattr(Cone, "from_system", staticmethod(checked))
    for name in RANK4_CATALOGUE:
        datum = build_root_datum(name)
        for J in valid_js(datum):
            standard = []
            for I in _admissible_index_sets(datum, J):
                eqs, ins, T = standard_cone_system(datum, J, I)
                standard.append(Cone.from_system(datum.rank, eqs, ins))
                _facet_cone(datum, T)
            fan = Fan(datum, J, standard, {})
            for i in range(len(standard)):
                _fixed_core(fan, i)
    assert len(systems) > 1000


@pytest.mark.parametrize(
    "eqs,ins",
    [([], [(1, 0, 0)]), ([(1,)], [(1, 0)]), ([], [(1, 0), (0,)]), ([(0, 1, 2)], [])],
)
def test_forms_of_the_wrong_length_are_rejected(eqs, ins):
    """A form longer or shorter than the ambient dimension is an error, not
    truncated by `zip`."""
    with pytest.raises(DimensionMismatch):
        dual_description(2, eqs, ins)
    with pytest.raises(DimensionMismatch):
        Cone.from_system(2, eqs, ins)
