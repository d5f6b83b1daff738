from fractions import Fraction as Q
from itertools import combinations
import random
import re

import pytest

from helpers import (
    CATALOGUE_NAMES,
    RANK4_CATALOGUE,
    corner_walls_in_box,
    filtered_dense_sample,
    orbit_walk_pattern,
    random_rational_vec,
    reference_det,
    reference_is_virtually_special,
    reference_transitivity_solve,
    simple_root_orbits,
    subsets,
)
from weylfan import linalg as la
from weylfan.apartment import (
    AffineRootPattern,
    ExtensionSpec,
    SymbolicEntry,
    TransitivitySolution,
    ValueGroup,
    _positive_compositions,
    embed_extension,
    essential_projection,
    is_special_vertex,
    is_virtually_special,
    levi_point_from_pairings,
    make_apartment,
    rational_dense_sample,
    special_witness,
    sub_datum,
    transitivity_solve,
    walls_in_box,
)
from weylfan.errors import (
    DimensionMismatch,
    EmptyFacet,
    NonReduced,
    NonRootSystem,
    Unspanned,
    WeylfanError,
)
from weylfan.rootdata import build_root_datum


def coroot_point_with_pairings(datum, pairings):
    sol = la.solve(la.mat(datum.cartan), la.vec(pairings))
    assert sol is not None
    return sol


def test_value_group_shapes():
    g = ValueGroup("lattice", 3)
    assert g.contains(Q(2, 3)) and not g.contains(Q(1, 2))
    assert g.rescale(2).contains(Q(1, 6))
    bc = ValueGroup("bc", 1)
    assert bc.contains(Q(1, 4)) and bc.contains(Q(3, 4))
    assert not bc.contains(Q(1, 2)) and not bc.contains(Q(1))
    assert bc.double_contains(Q(2)) and not bc.double_contains(Q(1, 2))
    assert bc.rescale(3).kind == "bc"
    with pytest.raises(NonRootSystem):
        ValueGroup("weird", 1)


def test_origin_is_special():
    for name in ["A1", "A2", "BC2", "G2"]:
        apt = make_apartment(build_root_datum(name))
        assert is_special_vertex(apt, la.zero_vec(apt.datum.rank))
        assert special_witness(apt, la.zero_vec(apt.datum.rank)) == 1


def test_a1_half_pairing_needs_quadratic_extension():
    apt = make_apartment(build_root_datum("A1"))
    x = coroot_point_with_pairings(apt.datum, [Q(1, 2)])
    assert not is_special_vertex(apt, x)
    assert special_witness(apt, x) == 2
    bigger = embed_extension(apt, ExtensionSpec(2))
    assert is_special_vertex(bigger, x)


def test_a2_third_coroot_coordinate_not_special():
    apt = make_apartment(build_root_datum("A2"))
    x = (Q(1, 3), Q(0))
    assert not is_special_vertex(apt, x)
    # both simple pairings must be integral
    assert apt.datum.pairing(apt.datum.simples[0], x) == Q(2, 3)


def test_witness_lcm_example():
    apt = make_apartment(build_root_datum("A2"))
    x = coroot_point_with_pairings(apt.datum, [Q(1, 2), Q(1, 3)])
    assert special_witness(apt, x) == 6


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "BC1", "BC2", "G2", "A1xA1"])
def test_witness_matches_brute_force(name):
    datum = build_root_datum(name)
    apt = make_apartment(datum)
    rng = random.Random(hash(name) & 0xFFFF)
    for _ in range(100):
        x = random_rational_vec(rng, datum.rank, num=6, den=6)
        e = special_witness(apt, x)
        for trial in range(1, e):
            assert not is_special_vertex(embed_extension(apt, ExtensionSpec(trial)), x)
        assert is_special_vertex(embed_extension(apt, ExtensionSpec(e)), x)


def test_rescaling_monotone():
    datum = build_root_datum("BC2")
    apt = make_apartment(datum)
    rng = random.Random(5)
    for _ in range(30):
        x = random_rational_vec(rng, 2, num=5, den=4)
        e = special_witness(apt, x)
        for k in (2, 3):
            assert is_special_vertex(embed_extension(apt, ExtensionSpec(e * k)), x)


def test_embed_extension_laws():
    datum = build_root_datum("A2")
    apt = make_apartment(datum)
    assert embed_extension(apt, ExtensionSpec(1)).pattern == apt.pattern
    two_three = embed_extension(embed_extension(apt, ExtensionSpec(2)), ExtensionSpec(3))
    six = embed_extension(apt, ExtensionSpec(6))
    assert two_three.pattern == six.pattern
    for (a, g) in six.pattern.groups:
        assert g.d == 6


def test_embed_preserves_special_and_walls():
    rng = random.Random(11)
    for name in ["A2", "B2", "BC2"]:
        datum = build_root_datum(name)
        apt = make_apartment(datum)
        inv_cartan = la.inverse(la.mat(datum.cartan))
        for _ in range(40):
            ints = tuple(Q(rng.randint(-8, 8)) for _ in range(datum.rank))
            x = la.mat_vec(inv_cartan, ints)  # integral pairings: special
            assert is_special_vertex(apt, x)
            for e in (2, 3, 5):
                assert is_special_vertex(embed_extension(apt, ExtensionSpec(e)), x)
        # wall levels of the source occur among the target's
        target = embed_extension(apt, ExtensionSpec(4))
        for a, g in apt.pattern.groups:
            tg = target.pattern.group_of(a)
            step = Q(1, g.wall_denominator())
            for k in range(-4, 5):
                if g.kind == "lattice":
                    assert tg.contains(k * step)
                else:
                    assert tg.contains(k * step) or tg.double_contains(2 * k * step)


def test_bc_pattern_rescale_is_uniform():
    datum = build_root_datum("BC1")
    apt = make_apartment(datum)
    a = datum.simples[0]
    g = apt.pattern.group_of(a)
    assert g.kind == "bc"
    rescaled = apt.pattern.rescale(2).group_of(a)
    assert rescaled.kind == "bc" and rescaled.d == 2


def test_pattern_orbit_consistency():
    datum = build_root_datum("B2")
    with pytest.raises(NonRootSystem):
        # the two simple roots of B2 lie in distinct orbits, so this works
        # only when orbits are respected; mixing denominators inside one
        # orbit must fail on A2 where the simples are conjugate
        AffineRootPattern.from_simple_denominators(build_root_datum("A2"), [1, 2])
    pattern = AffineRootPattern.from_simple_denominators(datum, [2, 3])
    long_root = datum.simples[0]
    short_root = datum.simples[1]
    assert pattern.group_of(long_root).d == 2
    assert pattern.group_of(short_root).d == 3
    with pytest.raises(NonRootSystem, match="^need one denominator per simple root$"):
        make_apartment(datum, [])


def _pattern_or_message(call):
    try:
        return call()
    except NonRootSystem as err:
        return str(err)


@pytest.mark.parametrize("name", CATALOGUE_NAMES)
def test_patterns_from_orbit_classes_match_the_orbit_walks(name):
    """The value groups keyed by diagram component and squared length are
    those of the root orbit walks, or the same error, for denominators all
    one, one per orbit and one per simple root."""
    datum = build_root_datum(name)
    orbits = simple_root_orbits(datum)
    kinds = [
        ([1] * datum.rank, False),
        ([o + 2 for o in orbits], False),
        (list(range(1, datum.rank + 1)), len(set(orbits)) < datum.rank),
    ]
    for denominators, raises in kinds:
        got = _pattern_or_message(
            lambda: AffineRootPattern.from_simple_denominators(datum, denominators)
        )
        assert got == _pattern_or_message(lambda: orbit_walk_pattern(datum, denominators))
        assert isinstance(got, str) == raises, denominators


def test_transitivity_a1_example():
    datum = build_root_datum("A1")
    x = (Q(0),)
    y = (Q(1, 6),)  # pairing <a, y-x> = 1/3
    assert datum.pairing(datum.simples[0], y) == Q(1, 3)
    sol = transitivity_solve(datum, x, y)
    assert sol.N == 3 and sol.cartan_det == 2 and sol.coefficients == (1,)


def test_transitivity_a2_example():
    datum = build_root_datum("A2")
    diff = coroot_point_with_pairings(datum, [Q(1, 3), Q(1, 2)])
    sol = transitivity_solve(datum, la.zero_vec(2), diff)
    assert sol.N == 6 and sol.cartan_det == 3
    # substitute back through the Cartan system
    lhs = la.mat_vec(la.mat(datum.cartan), la.vec(sol.coefficients))
    rhs = [6 * 3 * v for v in (Q(1, 3), Q(1, 2))]
    assert list(lhs) == rhs


def test_transitivity_identity_pair():
    datum = build_root_datum("B2")
    sol = transitivity_solve(datum, (Q(1), Q(2)), (Q(1), Q(2)))
    assert sol.N == 1 and sol.coefficients == (0, 0)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "B3", "C3", "G2", "A1xA1"])
def test_transitivity_substitution_random(name):
    datum = build_root_datum(name)
    rng = random.Random(hash(name) & 0xFFF)
    cartan = la.mat(datum.cartan)
    for _ in range(50):
        x = random_rational_vec(rng, datum.rank, num=6, den=4)
        y = random_rational_vec(rng, datum.rank, num=6, den=4)
        sol = transitivity_solve(datum, x, y)
        diff = la.sub(la.vec(y), la.vec(x))
        recon = tuple(Q(c) * sol.gamma0 / (sol.N * sol.cartan_det) for c in sol.coefficients)
        assert recon == diff
        lhs = la.mat_vec(cartan, la.vec(sol.coefficients))
        for i, s in enumerate(datum.simples):
            assert lhs[i] == sol.N * sol.cartan_det * datum.pairing(s, diff) / sol.gamma0


def test_transitivity_rejects_non_reduced():
    with pytest.raises(NonReduced):
        transitivity_solve(build_root_datum("BC1"), (Q(0),), (Q(1, 2),))


def test_transitivity_rejects_unspanned():
    datum = build_root_datum([[1, 0], [-1, 0]], basis=[0])
    with pytest.raises(Unspanned):
        transitivity_solve(datum, (Q(0),), (Q(1),))


@pytest.mark.parametrize("d", [0, -2])
def test_transitivity_rejects_non_positive_denominator(d):
    with pytest.raises(NonRootSystem, match="^value group denominator must be positive$"):
        transitivity_solve(build_root_datum("A1"), (Q(0),), (Q(1, 6),), gamma_denominator=d)


PRODUCT_TYPES = ["A1xB2", "A2xG2", "B2xC3", "A1xA1xA1", "A1xBC2"]


def _outcome(f, *args):
    try:
        return f(*args)
    except WeylfanError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("name", RANK4_CATALOGUE + PRODUCT_TYPES)
def test_transitivity_matches_the_solve_then_recheck_oracle(name):
    """The closed form adj m equals, field by field and with int fields,
    the integer solution of the Cartan system found by elimination and
    checked against every identity it rests on."""
    datum = build_root_datum(name)
    rng = random.Random(name)
    for _ in range(40):
        x = random_rational_vec(rng, datum.rank, num=6, den=6)
        y = x if rng.random() < 0.1 else random_rational_vec(rng, datum.rank, num=6, den=6)
        d = rng.randint(1, 4)
        got = _outcome(transitivity_solve, datum, x, y, d)
        assert got == _outcome(reference_transitivity_solve, datum, x, y, d)
        if isinstance(got, TransitivitySolution):
            assert all(type(v) is int for v in (got.N, got.cartan_det, *got.coefficients))


@pytest.mark.parametrize("name", RANK4_CATALOGUE + PRODUCT_TYPES + ["B4", "C4", "D5", "A7"])
def test_cartan_det_is_the_determinant(name):
    """`la.scaled_inverse` of the Cartan matrix is (adjugate, det): the
    determinant by cofactors, and C adj = det 1."""
    datum = build_root_datum(name)
    adj, det = la.scaled_inverse(datum.cartan)
    assert det == reference_det(la.mat(datum.cartan)) > 0
    assert la.mat_mul(datum.cartan, adj) == tuple(la.scale(r, det) for r in la.identity(datum.rank))
    if datum.is_reduced():
        origin = la.zero_vec(datum.rank)
        assert transitivity_solve(datum, origin, origin).cartan_det == det


def _symbolic_entry(rng):
    """A rational or a SymbolicEntry whose terms may repeat a symbol, carry
    a zero coefficient, or cancel."""
    rational = Q(rng.randint(-4, 4), rng.randint(1, 3))
    roll = rng.random()
    if roll < 0.25:
        return rational
    if roll < 0.5:  # a symbol and its negative, maybe split over two terms
        c = Q(rng.randint(1, 3), rng.randint(1, 2))
        terms = [("s", c), ("s", -c)] if rng.random() < 0.5 else [("s", c), ("s", -c / 2), ("s", -c / 2)]
    else:
        terms = [
            (rng.choice("st"), Q(rng.choice((-2, -1, 0, 0, 1, 2)), rng.randint(1, 2)))
            for _ in range(rng.randint(1, 3))
        ]
    rng.shuffle(terms)
    return SymbolicEntry(rational, tuple(terms))


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "BC2", "A3", "C3", "A1xA2", "F4"])
def test_virtually_special_matches_the_root_by_root_oracle(name):
    """Merging each coordinate's symbols decides virtual specialness as the
    symbolic pairing with every root does."""
    apt = make_apartment(build_root_datum(name))
    rng = random.Random(name)
    seen = set()
    for _ in range(150):
        x = tuple(_symbolic_entry(rng) for _ in range(apt.datum.rank))
        want = reference_is_virtually_special(apt, x)
        assert is_virtually_special(apt, x) == want, x
        seen.add(want)
    assert seen == {True, False}


@pytest.mark.parametrize("name", ["A2", "B3", "G2", "BC2", "A1xA2", "F4"])
def test_levi_point_round_trips_through_the_levi_pairings(name):
    """The Levi point of given pairings has those pairings in the Levi
    apartment, and the Levi point of a projection projects back."""
    datum = build_root_datum(name)
    rng = random.Random(name)
    for levi in subsets(datum.rank):
        sub = sub_datum(datum, levi)
        for _ in range(5):
            pairings = random_rational_vec(rng, len(levi))
            y = levi_point_from_pairings(datum, levi, pairings)
            assert tuple(sub.pairing(s, y) for s in sub.simples) == pairings
            x = random_rational_vec(rng, datum.rank)
            projected = essential_projection(datum, levi, x)
            y = levi_point_from_pairings(datum, levi, projected)
            assert essential_projection(sub, range(sub.rank), y) == projected


def test_dense_sample_single_vertex():
    apt = make_apartment(build_root_datum("A1"))
    assert rational_dense_sample(apt, [(Q(3),)], 5) == [(Q(3),)]
    # repeated vertices span one point too, and must not search for others
    assert rational_dense_sample(apt, [(0,), (0,)], 2) == [(Q(0),)]
    assert rational_dense_sample(apt, [(Q(1, 2),)] * 3, 4) == [(Q(1, 2),)]


def test_dense_sample_a1_alcove():
    apt = make_apartment(build_root_datum("A1"))
    pts = rational_dense_sample(apt, [(Q(0),), (Q(1),)], 3)
    assert pts[0] == (Q(1, 2),)  # barycenter first
    assert {p[0] for p in pts} == {Q(1, 4), Q(1, 2), Q(3, 4)}
    for p in pts:
        assert Q(0) < p[0] < Q(1)
        assert is_virtually_special(apt, p)


def test_dense_sample_triangle_interior():
    apt = make_apartment(build_root_datum("A2"))
    datum = apt.datum
    verts = [(Q(0), Q(0))]
    cow = datum.fundamental_coweights()
    verts.append(cow[0])
    verts.append(cow[1])
    pts = rational_dense_sample(apt, verts, 12)
    assert len(pts) == 12 and len(set(pts)) == 12
    bary = tuple(sum(v[i] for v in verts) / 3 for i in range(2))
    assert pts[0] == bary
    for p in pts:
        # strictly inside: positive barycentric weights for this simplex
        assert datum.pairing(datum.simples[0], p) > 0 or datum.pairing(datum.simples[1], p) > 0
        assert is_virtually_special(apt, p)


def _a1_power_alcove(n):
    """The 2^n corners of [0, 1/2]^n, the alcove of (A1)^n."""
    return [tuple(Q(bits >> i & 1, 2) for i in range(n)) for bits in range(1 << n)]


def test_dense_samples_without_repeats_match_the_filtered_compositions():
    """On vertex lists without repeats the positive compositions give the
    points of every composition with the zero ones filtered out, in order."""
    a2 = build_root_datum("A2")
    triangle = [(0, 0), *a2.fundamental_coweights()]
    cases = [
        ("A1", [(0,), (1,)], 9),
        ("A2", triangle, 12),
        ("A2", triangle[::-1], 7),
        ("A1xA1xA1", _a1_power_alcove(3), 2),
        ("A3", [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], 15),
        ("G2", [(0, 0), (1, 0), (1, 2)], 8),
    ]
    for name, vertices, count in cases:
        apt = make_apartment(build_root_datum(name))
        want = filtered_dense_sample(apt, vertices, count)
        assert rational_dense_sample(apt, vertices, count) == want, name


def test_dense_samples_of_many_or_repeated_vertices_return():
    """Each point comes from the first positive compositions, and each
    distinct vertex counts once: the 16-vertex alcove of (A1)^4 and a
    segment listed with one end five times return at once."""
    apt = make_apartment(build_root_datum("A1xA1xA1xA1"))
    alcove = _a1_power_alcove(4)
    for count in (2, 20):
        pts = rational_dense_sample(apt, alcove, count)
        assert len(set(pts)) == count and pts[0] == (Q(1, 4),) * 4
        assert all(0 < c < Q(1, 2) for p in pts for c in p)
    apt = make_apartment(build_root_datum("A2"))
    pts = rational_dense_sample(apt, [(0, 0)] + [(1, 0)] * 5, 40)
    assert pts == rational_dense_sample(apt, [(0, 0), (1, 0)], 40)
    assert pts[0] == (Q(1, 2), 0) and len(set(pts)) == 40
    assert all(0 < x < 1 and y == 0 for x, y in pts)


def test_positive_compositions_match_the_cuts_of_the_total():
    """The compositions of t into k positive parts, in lexicographic order,
    are the gaps between 0, the k - 1 cuts of `itertools.combinations` of
    1..t-1, and t."""
    for total in range(1, 14):
        for parts in range(1, 8):
            want = [
                tuple(b - a for a, b in zip((0,) + cuts, cuts + (total,)))
                for cuts in combinations(range(1, total), parts - 1)
            ]
            assert list(_positive_compositions(total, parts)) == want, (total, parts)


def test_dense_sample_of_a_thousand_vertices_does_not_recurse():
    """1,100 distinct vertices i/1100 of an A1 segment: the compositions are
    enumerated with no recursion, so the sample is the barycenter and two
    points from the first compositions of 2^11, not a RecursionError."""
    apt = make_apartment(build_root_datum("A1"))
    pts = rational_dense_sample(apt, [(Q(i, 1100),) for i in range(1100)], 3)
    assert pts == [(Q(1099, 2200),), (Q(823151, 1126400),), (Q(1646301, 2252800),)]


def test_dense_sample_empty_facet():
    apt = make_apartment(build_root_datum("A1"))
    with pytest.raises(EmptyFacet):
        rational_dense_sample(apt, [], 1)


@pytest.mark.parametrize("count", [0, -2, 1.5, True], ids=repr)
def test_dense_sample_count_is_an_int_of_at_least_one(count):
    apt = make_apartment(build_root_datum("A1"))
    with pytest.raises(NonRootSystem, match="^sample count must be >= 1$"):
        rational_dense_sample(apt, [(Q(0),), (Q(1),)], count)


def test_virtually_special_symbolics():
    apt = make_apartment(build_root_datum("A2"))
    assert is_virtually_special(apt, (Q(5, 7), Q(-3, 11)))
    irr = SymbolicEntry.of(0, "sqrt2")
    assert not is_virtually_special(apt, (irr, SymbolicEntry.of(Q(1, 2))))
    # symbolic parts that cancel in every pairing direction do not obstruct
    assert is_virtually_special(apt, (SymbolicEntry.of(Q(1)), SymbolicEntry.of(Q(2))))


@pytest.mark.parametrize("entry", ["1", True, None], ids=repr)
def test_virtually_special_reads_plain_entries_as_coordinates(entry):
    """An entry that is not a SymbolicEntry is read as `datum.point` reads
    a coordinate, so a string, a bool or None is rejected, not converted."""
    apt = make_apartment(build_root_datum("A2"))
    message = f"^coordinate {entry!r} is not a finite rational number$"
    with pytest.raises(NonRootSystem, match=message):
        apt.datum.point([entry, 2])
    for x in ([entry, 2], [2, entry], [entry, SymbolicEntry.of(0, "s")]):
        with pytest.raises(NonRootSystem, match=message):
            is_virtually_special(apt, x)


@pytest.mark.parametrize("value", ["1", True, None, float("nan")], ids=repr)
def test_symbolic_entries_read_their_value_as_a_coordinate(value):
    """`SymbolicEntry.of` reads its value as `datum.point` reads a
    coordinate, with or without a symbol, so `is_virtually_special` is
    never handed a string or a bool disguised as a rational entry."""
    message = f"^coordinate {re.escape(repr(value))} is not a finite rational number$"
    for symbol in (None, "s"):
        with pytest.raises(NonRootSystem, match=message):
            SymbolicEntry.of(value, symbol)
    assert SymbolicEntry.of(Q(1, 2), "s") == SymbolicEntry(Q(1, 2), (("s", 1),))
    assert SymbolicEntry.of(3).rational == 3 and SymbolicEntry.of(3).is_rational
    apt = make_apartment(build_root_datum("A2"))
    with pytest.raises(NonRootSystem, match=message):
        is_virtually_special(apt, [SymbolicEntry.of(value), 2])


def test_symbolic_entries_merge_their_symbols_on_construction():
    """Repeated symbols are merged, zero coefficients dropped and the terms
    sorted, so `plus` gives one entry in either order."""
    cancelled = SymbolicEntry(0, (("s", 1), ("s", -1)))
    assert cancelled.symbols == () and cancelled.is_rational
    mixed = SymbolicEntry(Q(1, 2), (("t", Q(1, 3)), ("s", 0), ("t", Q(2, 3)), ("r", -1)))
    assert mixed.symbols == (("r", -1), ("t", 1))
    zero = SymbolicEntry.of(0)
    for e in (cancelled, mixed, SymbolicEntry(1, (("s", 2), ("s", -1)))):
        assert e.plus(zero) == zero.plus(e) == e
    a = SymbolicEntry(1, (("s", 1), ("t", 2)))
    b = SymbolicEntry(2, (("t", -2), ("s", 1), ("u", 1)))
    assert a.plus(b) == b.plus(a) == SymbolicEntry(3, (("s", 2), ("u", 1)))


def test_essential_projection_examples():
    datum = build_root_datum("A2")
    x = (Q(1, 2), Q(1, 3))
    full = essential_projection(datum, [0, 1], x)
    assert full == tuple(datum.pairing(s, x) for s in datum.simples)
    assert essential_projection(datum, [], x) == ()
    # kernel of the projection to the Levi of type {a1}
    kernel = la.kernel_basis([datum.covector(datum.simples[0])], 2)[0]
    shifted = la.add(la.vec(x), kernel)
    assert essential_projection(datum, [0], x) == essential_projection(datum, [0], shifted)


def test_essential_projection_nested_idempotence():
    datum = build_root_datum("B3")
    rng = random.Random(3)
    for _ in range(20):
        x = random_rational_vec(rng, 3)
        outer = essential_projection(datum, [0, 1], x)
        y = levi_point_from_pairings(datum, [0, 1], outer)
        inner_direct = essential_projection(datum, [0], x)
        sub = sub_datum(datum, [0, 1])
        nested = essential_projection(sub, [0], y)
        assert nested == inner_direct


@pytest.mark.parametrize("levi", [[-1], [5], [0, 2], ["a1"], [True]])
def test_levi_indices_outside_the_basis_are_rejected(levi):
    """A negative index does not wrap to another simple root, and one past
    the rank is a structured error, not a bare IndexError."""
    a2 = build_root_datum("A2")
    with pytest.raises(NonRootSystem, match="are not indices of the 2 simple roots"):
        essential_projection(a2, levi, (1, 0))
    with pytest.raises(NonRootSystem, match="are not indices of the 2 simple roots"):
        sub_datum(a2, levi)
    with pytest.raises(NonRootSystem, match="are not indices of the 2 simple roots"):
        levi_point_from_pairings(a2, levi, (1,) * len(levi))


@pytest.mark.parametrize("levi,pairings", [([0], (1, 2)), ([0, 1], (1,)), ([0], ())])
def test_levi_point_needs_one_pairing_per_levi_simple_root(levi, pairings):
    a2 = build_root_datum("A2")
    message = f"^{len(pairings)} pairings given for the {len(levi)} simple roots"
    with pytest.raises(DimensionMismatch, match=message):
        levi_point_from_pairings(a2, levi, pairings)
    assert levi_point_from_pairings(a2, [0], (1,)) == (Q(1, 2),)


def test_walls_from_box_bounds_match_the_corners():
    """Each root's least and greatest value on a box, read from the bounds
    coordinate by coordinate, give the walls of the 2^n corners, on boxes
    with lo above hi in some coordinates too."""
    rng = random.Random(27)
    cases = [("A1", None), ("A2", [3, 3]), ("B2", [1, 2]), ("G2", None), ("BC1", [2]),
             ("BC2", [1, 3]), ("A3", None), ("B3", [2, 2, 1])]
    crossed = 0
    for name, denominators in cases:
        apt = make_apartment(build_root_datum(name), denominators)
        for _ in range(40):
            lo = random_rational_vec(rng, apt.datum.rank, num=4, den=3)
            hi = random_rational_vec(rng, apt.datum.rank, num=4, den=3)
            crossed += any(a > b for a, b in zip(lo, hi))
            assert walls_in_box(apt, lo, hi) == corner_walls_in_box(apt, lo, hi), (name, lo, hi)
    assert crossed > 100


def test_walls_locally_finite():
    apt = make_apartment(build_root_datum("A2"))
    walls = walls_in_box(apt, (Q(-1), Q(-1)), (Q(1), Q(1)))
    assert 0 < len(walls) < 100
    for a, gamma in walls:
        denom = apt.pattern.group_of(a).wall_denominator()
        assert (gamma * denom).denominator == 1
    bc = make_apartment(build_root_datum("BC1"))
    walls_bc = walls_in_box(bc, (Q(0),), (Q(1),))
    assert len(walls_bc) == 9  # quarter-lattice spacing on <a, x> in [0, 2]
