"""Shared oracles and deterministic sampling for the test suite."""

from fractions import Fraction as Q
from functools import cache
from math import lcm
import random

from weylfan import linalg as la
from weylfan.compactify import (
    NEG_INF,
    POS_INF,
    CompactifiedPoint,
    NoLimit,
    orthogonal_reduction,
)
from weylfan.cones import Cone, _reduce_mod, closure_subset, open_system_feasible
from weylfan.errors import EmptyCone, InconsistentProfile, PartitionFailure
from weylfan.fans import (
    CoreInfo,
    Fan,
    _admissible_index_sets,
    _facet_cone,
    parabolic_fan,
    standard_cone_system,
    validate_J,
    weyl_facet_points,
)
from weylfan.parabolics import core_generating_set
from weylfan.rootdata import (
    build_root_datum,
    components,
    orthogonal_complement,
    reflect_matrix,
    reflect_simple,
    walk_orbits,
    weyl_enumerate,
)


FAN_CATALOGUE = ["A1", "A2", "A3", "B2", "B3", "C3", "G2", "BC1", "BC2", "A1xA1"]
RANK4_CATALOGUE = FAN_CATALOGUE + ["A1xA2", "A4", "D4", "BC3", "F4"]


def subsets(n):
    for bits in range(1 << n):
        yield frozenset(i for i in range(n) if bits >> i & 1)


def valid_js(datum):
    """Every subset J of the basis containing no component of the diagram."""
    for J in subsets(datum.rank):
        if all(not comp <= J for comp in datum.diagram_components):
            yield J


@cache
def built_fan(name: str, J: tuple = ()) -> Fan:
    """`parabolic_fan` of a catalogue type, built once per test run and
    shared, so callers must not change it."""
    return parabolic_fan(build_root_datum(name), J)


def enumerated_parabolic_fan(datum, J) -> Fan:
    """Fan oracle: every element of W, in (length, point matrix) order,
    applied to the standard cone of every admissible I; the first element
    reaching a cone gives its core."""
    J = validate_J(datum, J)
    n = datum.rank
    found = {}
    for I in _admissible_index_sets(datum, J):
        eqs, ins, T = standard_cone_system(datum, J, I)
        base = Cone.from_system(n, eqs, ins)
        base_core = _facet_cone(datum, T)
        for w in weyl_enumerate(datum):
            moved = base.transform(w.mat_points, w.mat_points_inv)
            if moved.key not in found:
                core = base_core.transform(w.mat_points, w.mat_points_inv)
                found[moved.key] = (moved, CoreInfo(T, I, w, core))
    ordered = sorted(found.values(), key=lambda pair: (pair[0].dim, pair[0].key))
    return Fan(datum, J, [c for c, _ in ordered], {i: info for i, (_, info) in enumerate(ordered)})


def ray_reflection_moves(fan: Fan) -> tuple:
    """Moves table oracle: per simple reflection s_k, the index of the cone
    whose ray set is s_k of the rays of cone i (None if there is none)."""
    index = {frozenset(c.rays): i for i, c in enumerate(fan.cones)}
    return tuple(
        tuple(
            index.get(frozenset(reflect_simple(fan.datum.cartan, r, k) for r in c.rays))
            for c in fan.cones
        )
        for k in range(fan.datum.rank)
    )


def schreier_core(fan: Fan, first: int) -> Cone:
    """Core oracle: the core of cone `first` as the fixed locus of the
    Schreier elements u_j^-1 s_k u_i of a walk of its orbit along the
    moves, u_i mapping it to cone i, which generate its setwise stabiliser
    (Schreier's lemma); their rows minus 1 cut the cone down."""
    n = fan.datum.rank
    moves = fan._moves
    reflections = [s.mat_points for s in fan.datum.simple_reflections]
    one = la.identity(n)
    orbit = walk_orbits(  # cone i -> (i, u_i, u_i^-1)
        {first: (first, one, one)},
        n,
        lambda x, k: moves[k][x[0]],
        lambda x, k, j: (
            j,
            reflect_matrix(reflections[k], k, x[1]),
            reflect_matrix(reflections[k], k, x[2], right=True),
        ),
    )
    fix_rows = {}
    for i, u, _ in orbit.values():
        for k, (s, move) in enumerate(zip(reflections, moves)):
            _, uj, uj_inv = orbit[move[i]]
            for row in map(la.sub, la.mat_mul(uj_inv, reflect_matrix(s, k, u)), one):
                if any(row):
                    fix_rows[row] = None
    c = fan.cones[first]
    return Cone.from_system(n, list(c.eqs) + list(fix_rows), list(c.ins))


def core_generator_roots(fan: Fan, i: int) -> tuple:
    """Facade root oracle: the roots whose covectors vanish on every
    generator of the stored core of cone i."""
    core = fan.cores[i].cone
    gens = core.lineality + core.rays
    datum = fan.datum
    return tuple(
        a for a in datum.roots if all(la.dot(datum.covector(a), g) == 0 for g in gens)
    )


def orbit_labels(moves) -> list[int]:
    """Per cone, the number of its orbit under a complete moves table."""
    labels = [None] * len(moves[0])
    count = 0
    for i in range(len(labels)):
        if labels[i] is None:
            labels[i], walk = count, [i]
            for j in walk:
                for move in moves:
                    if labels[move[j]] is None:
                        labels[move[j]] = count
                        walk.append(move[j])
            count += 1
    return labels


def closure_face_order(fan: Fan) -> tuple:
    """Face order oracle: every pair (f, g) with dim f <= dim g whose
    closures nest, by `closure_subset` on all pairs."""
    cones = fan.cones
    return tuple(
        (f, g)
        for f in range(len(cones))
        for g in range(len(cones))
        if cones[f].dim <= cones[g].dim and closure_subset(cones[f], cones[g])
    )


def scan_cone_containing(fan: Fan, v) -> int:
    """Cone location oracle: `Cone.contains` on every cone of the fan, at
    the integer multiple of v by its common denominator (cones are closed
    under positive scaling, and integer dot products are fast)."""
    d = lcm(*(Q(x).denominator for x in v))
    scaled = tuple(int(x * d) for x in v)
    hits = [i for i, c in enumerate(fan.cones) if c.contains(scaled)]
    if len(hits) != 1:
        raise PartitionFailure(f"point {v} lies in {len(hits)} cones")
    return hits[0]


def scan_limit_of_profile(fan: Fan, profile, witness=None):
    """Profile matching oracle: `Cone.sign_of` on every cone and root.

    A cone fits when every root positive on it has the value +inf, every
    root negative on it -inf, and every root vanishing on it a rational
    value; the vanishing roots and transverse orthogonality then pin the
    facade coordinate."""
    datum = fan.datum
    table = dict(profile.values)
    matches = []
    for i, cone in enumerate(fan.cones):
        ok = True
        for a in datum.roots:
            sign = cone.sign_of(datum.covector(a))
            v = table[a]
            if sign == 1 and v != POS_INF:
                ok = False
            elif sign == -1 and v != NEG_INF:
                ok = False
            elif sign == 0 and isinstance(v, float):
                ok = False
            if not ok:
                break
        if ok:
            matches.append(i)
    if not matches:
        return NoLimit
    if len(matches) > 1:
        raise InconsistentProfile(
            f"profile matches {len(matches)} cones; divergence data is ambiguous"
        )
    idx = matches[0]
    cone = fan.cones[idx]

    vanishing = [a for a in datum.roots if cone.sign_of(datum.covector(a)) == 0]
    n = datum.rank
    rows = [datum.covector(a) for a in vanishing]
    rhs = [table[a] for a in vanishing]
    m = datum.gram_points
    for s in cone.span_basis:
        rows.append(la.mat_vec(m, s))
        rhs.append(Q(0))
    if la.rank(rows) != n:
        raise InconsistentProfile(
            "vanishing roots do not determine the facade coordinate"
        )
    base = la.solve(la.mat(rows), la.vec([Q(v) for v in rhs]))
    if base is None:
        raise InconsistentProfile("finite profile values are contradictory")
    for row, want in zip(rows, rhs):
        if la.dot(row, base) != want:
            raise InconsistentProfile("finite profile values are contradictory")
    if witness is not None:
        reduced = orthogonal_reduction(datum, cone.span_basis, la.vec(witness))
        if reduced != base:
            raise InconsistentProfile("witness disagrees with the profile values")
    return CompactifiedPoint(fan, idx, base)


def sign_vector_cone_count(datum) -> int:
    """Independent oracle: count facets of the root hyperplane arrangement
    by enumerating feasible sign vectors over the positive nondivisible
    roots."""
    positives = [datum.covector(a) for a in datum.positive_nondivisible_roots]
    n = datum.rank
    count = 0
    for assignment in _ternary(len(positives)):
        eqs = [f for f, s in zip(positives, assignment) if s == 0]
        strict = [
            la.scale(f, Q(s)) for f, s in zip(positives, assignment) if s != 0
        ]
        if open_system_feasible(n, eqs, strict) is not None:
            count += 1
    return count


def assert_integral_fan(fan: Fan, label: str) -> None:
    """Every entry of the fan's integral data is an int: cone and core
    forms and generators, Weyl matrices, root covectors and the facet
    points of the partition check.  A float here would mean some int/int
    division slipped in, which the seminorm code reads as an infinity."""
    datum = fan.datum

    def ints(vectors, what):
        for v in vectors:
            assert all(type(x) is int for x in v), f"{label}: {what} {v}"

    cones = list(fan.cones) + [core.cone for core in fan.cores.values()]
    for cone in cones:
        for what in ("eqs", "ins", "rays", "lineality"):
            ints(getattr(cone, what), what)
    for w in weyl_enumerate(datum):
        ints(w.mat_points, "mat_points")
        ints(w.mat_roots, "mat_roots")
        ints(w.mat_points_inv, "mat_points_inv")
    ints((datum.covector(a) for a in datum.roots), "covector")
    ints(weyl_facet_points(datum), "facet point")


def _ternary(k):
    if k == 0:
        yield ()
        return
    for rest in _ternary(k - 1):
        for s in (-1, 0, 1):
            yield rest + (s,)


def sample_points(fan: Fan, target: int, seed: int = 2024) -> list:
    """Deterministic rational sample including wall points of the fan."""
    n = fan.datum.rank
    rng = random.Random(seed)
    points = set()
    points.add(la.zero_vec(n))
    for cone in fan.cones:
        for r in cone.rays:
            points.add(r)
            points.add(la.scale(r, Q(3, 2)))
        for i in range(len(cone.rays)):
            for j in range(i + 1, len(cone.rays)):
                points.add(la.add(cone.rays[i], cone.rays[j]))
        p = cone.relint_point()
        points.add(p)
        points.add(la.scale(p, Q(2, 3)))
    spread = max(60, 2 * target)
    while len(points) < target:
        points.add(
            tuple(Q(rng.randint(-spread, spread), rng.randint(1, 16)) for _ in range(n))
        )
    return sorted(points)


def reference_rref(rows) -> tuple[list, list[int]]:
    """Linear algebra oracle: reduced row echelon form by Gauss-Jordan
    elimination over Fraction; returns (nonzero rows, pivot columns)."""
    m = [[Q(x) for x in r] for r in rows]
    if not m:
        return [], []
    pivots = []
    r = 0
    for c in range(len(m[0])):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [tuple(row) for row in m[:r]], pivots


def random_rational_vec(rng: random.Random, n: int, num: int = 9, den: int = 5):
    return tuple(Q(rng.randint(-num, num), rng.randint(1, den)) for _ in range(n))


def is_J_relevant_via_perp(datum, J, T) -> bool:
    """Relevance by the orthogonality criterion: any simple root of J
    orthogonal to every component of T meeting the complement of J must
    already lie in T."""
    T = frozenset(T)
    J = validate_J(datum, J)
    I = core_generating_set(datum, J, T)
    for alpha in J:
        orth = all(
            datum.inner(datum.simples[alpha], datum.simples[i]) == 0 for i in I
        )
        if orth and alpha not in T:
            return False
    return True


def is_J_relevant_exhaustive(datum, J, T) -> bool:
    """Relevance oracle: search all generating subsets I directly."""
    T = frozenset(T)
    J = validate_J(datum, J)
    n = datum.rank
    for bits in range(1 << n):
        I = frozenset(j for j in range(n) if bits & (1 << j))
        if any(comp <= J for comp in components(datum, I)):
            continue
        extra = J & orthogonal_complement(datum, I)
        if not (I & extra) and T == I | extra:
            return True
    return False


def reference_dual_description(n, eqs, ineqs):
    """Double description oracle: the same pass as `cones.dual_description`,
    but it combines every pair of rays across each new inequality and
    prunes each ray by a rank test after every step (a ray is extreme iff
    its tight forms cut out its span plus the lineality)."""
    lineality = la.kernel_basis(list(eqs), n)
    rays = []
    processed = list(eqs)

    def prune(rays_in, lin_dim):
        kept = []
        for r in rays_in:
            tight = [a for a in processed if la.dot(a, r) == 0]
            if n - la.rank(tight) == lin_dim + 1:
                kept.append(r)
        return kept

    for a in ineqs:
        pivot = next((l for l in lineality if la.dot(a, l) != 0), None)
        if pivot is not None:
            if la.dot(a, pivot) < 0:
                pivot = la.neg(pivot)
            pa = la.dot(a, pivot)

            def project(v):
                return la.primitive(la.sub(la.scale(v, pa), la.scale(pivot, la.dot(a, v))))

            lineality = [project(l) for l in lineality if l is not pivot]
            lineality = [l for l in lineality if any(l)]
            rays = [project(r) for r in rays]
            rays = [r for r in rays if any(r)]
            rays.append(la.primitive(pivot))
        else:
            pos = [r for r in rays if la.dot(a, r) > 0]
            zero = [r for r in rays if la.dot(a, r) == 0]
            negs = [r for r in rays if la.dot(a, r) < 0]
            combos = []
            for rp in pos:
                ap = la.dot(a, rp)
                for rn in negs:
                    an = la.dot(a, rn)
                    combo = la.primitive(la.sub(la.scale(rn, ap), la.scale(rp, an)))
                    if not la.is_zero(combo):
                        combos.append(combo)
            rays = pos + zero + combos
        processed.append(a)
        seen = set()
        rays = [r for r in rays if not (r in seen or seen.add(r))]
        rays = prune(rays, len(lineality))

    rays = sorted(set(la.primitive(r) for r in rays))
    return lineality, rays


def reference_from_system(n, eqs, ins) -> Cone:
    """`Cone.from_system` oracle: the equalities from the kernel of the
    generators' span, and each facet form by the rank of the generators it
    vanishes on."""
    eqs = [tuple(e) for e in eqs]
    ins = [tuple(i) for i in ins]
    lin, rays = reference_dual_description(n, eqs, ins)
    gens = rays + lin + [la.neg(l) for l in lin]
    for form in ins:
        if all(la.dot(form, g) <= 0 for g in gens):
            raise EmptyCone(f"form {form} cannot be strictly positive")
    span = list(lin) + list(rays)
    eq_canonical, _ = la.rref(la.kernel_basis(span, n))
    eq_canonical = [la.primitive(e) for e in eq_canonical]
    span_dim = n - len(eq_canonical)
    facet_forms = []
    seen = set()
    for form in ins:
        red = _reduce_mod(form, eq_canonical)
        if la.is_zero(red):
            continue
        red = la.primitive(red)
        if red in seen:
            continue
        tight = [g for g in span if la.dot(form, g) == 0]
        if la.rank(tight) == span_dim - 1:
            seen.add(red)
            facet_forms.append(red)
    return Cone(
        dim_ambient=n,
        eqs=tuple(sorted(eq_canonical)),
        ins=tuple(sorted(facet_forms)),
        lineality=tuple(sorted(la.primitive(l) for l in lin)),
        rays=tuple(sorted(rays)),
    )


def random_cone_system(rng: random.Random) -> tuple:
    """(n, eqs, ins) with n <= 6: int forms, with some repeated, scaled (by
    an int or by 1/2, which gives Fraction entries), negated or zero, so
    that lineality, redundant forms and empty open cones all occur."""
    n = rng.randint(1, 6)

    def fresh():
        return tuple(rng.randint(-3, 3) for _ in range(n))

    eqs = [fresh() for _ in range(rng.choice((0, 0, 0, 1, 1, 2)))]
    ins = []
    for _ in range(rng.randint(0, n + 4)):
        roll = rng.random()
        if ins and roll < 0.1:
            ins.append(rng.choice(ins))
        elif ins and roll < 0.2:
            ins.append(la.scale(rng.choice(ins), rng.choice((2, 3, Q(1, 2)))))
        elif ins and roll < 0.25:
            ins.append(la.neg(rng.choice(ins)))
        elif roll < 0.28:
            ins.append((0,) * n)
        else:
            ins.append(fresh())
    return n, eqs, ins
