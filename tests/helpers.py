"""Shared oracles and deterministic sampling for the test suite."""

from fractions import Fraction as Q
from functools import cache, partial
from math import lcm
import random

from weylfan import linalg as la
from weylfan._value import replace
from weylfan.apartment import (
    AffineRootPattern,
    SymbolicEntry,
    TransitivitySolution,
    ValueGroup,
)
from weylfan.compactify import (
    NEG_INF,
    POS_INF,
    CompactifiedPoint,
    NoLimit,
    orthogonal_reduction,
)
from weylfan.cones import Cone, _canonical_cone, _reduce_mod, closure_subset, open_system_feasible
from weylfan.errors import (
    EmptyCone,
    InconsistentProfile,
    NonReduced,
    NonRootSystem,
    PartitionFailure,
    Unspanned,
)
from weylfan.fans import (
    CoreInfo,
    Fan,
    _Images,
    _admissible_index_sets,
    _orbit_walks,
    _reflected_form,
    _root_forms,
    _sign_permutations,
    _sign_row,
    _standard_cone,
    parabolic_fan,
    validate_J,
    weyl_facet_points,
)
from weylfan.rootdata import (
    RootDatum,
    WeylElement,
    build_root_datum,
    components,
    orthogonal_complement,
    positive_int,
    reflect_simple,
    simple_indices,
    walk_orbits,
    weyl_enumerate,
)


FAN_CATALOGUE = ["A1", "A2", "A3", "B2", "B3", "C3", "G2", "BC1", "BC2", "A1xA1"]
RANK3_CATALOGUE = FAN_CATALOGUE + ["A1xA2", "BC3"]
RANK4_CATALOGUE = FAN_CATALOGUE + ["A1xA2", "A4", "D4", "BC3", "F4"]
CATALOGUE_NAMES = [
    "A1", "A2", "A3", "A4", "A5", "A6", "A7", "B2", "B3", "B4", "B5", "C2", "C3", "C4",
    "D3", "D4", "D5", "G2", "F4", "BC1", "BC2", "BC3", "BC4", "A1xA2", "B3xG2", "C3xBC2",
]


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


def reference_admissible_index_sets(datum, J) -> list[frozenset]:
    """`_admissible_index_sets` oracle: the subsets I, in the order of their
    bitsets, none of whose `components` lie inside J."""
    return [I for I in subsets(datum.rank) if all(not c <= J for c in components(datum, I))]


def standard_type(datum, J, I) -> frozenset:
    """T = I u (J n I-perp), the type of the core of the standard cone of I:
    the `_admissible_index_sets` oracle by set algebra."""
    return I | (J & orthogonal_complement(datum, I))


def core_generating_set(datum, J, T) -> frozenset:
    """The union of the connected components of T meeting the complement of
    J: the inverse of `standard_type` on the J-relevant types (see
    `_admissible_index_sets`)."""
    return frozenset(i for comp in components(datum, T) if not comp <= J for i in comp)


def standard_cone_system(datum, J, I) -> tuple[list, list, frozenset]:
    """Equalities and strict forms of the standard merged cone of subset I:
    the simple roots in I vanish and the W_K-orbits of the simple roots
    outside T = `standard_type`, K = T - I, are positive (see *Standard
    cones* in the `fans` docstring); returns (equalities, strict forms, T)."""
    T = standard_type(datum, J, I)
    eqs = [datum.covector(datum.simples[i]) for i in sorted(I)]
    K = sorted(T - I)
    columns = la.transpose(datum.cartan)
    outside = walk_orbits(
        {a: a for a in (datum.simples[j] for j in range(datum.rank) if j not in T)},
        len(K),
        lambda a, m: reflect_simple(columns, a, K[m]),
    )
    return eqs, [datum.covector(a) for a in outside], T


def reference_standard_cone_system(datum, J, I) -> tuple[list, list, frozenset]:
    """`standard_cone_system` oracle: the simple roots in I vanish and every
    positive root outside the span of T = `standard_type` is positive."""
    T = standard_type(datum, J, I)
    eqs = [datum.covector(datum.simples[i]) for i in sorted(I)]
    levi = set(datum.levi_roots(T))
    ins = [datum.covector(a) for a in datum.positive_roots if a not in levi]
    return eqs, ins, T


def enumerated_parabolic_fan(datum, J) -> Fan:
    """Fan oracle: every element of W, in `weyl_enumerate`'s order, by
    nondecreasing length, applied to the standard cone of every admissible
    I; the first element reaching a cone, the shortest of its coset, gives
    its core and the word stored with it."""
    J = validate_J(datum, J)
    n = datum.rank
    found = {}
    for I in _admissible_index_sets(datum, J):
        eqs, ins, T = reference_standard_cone_system(datum, J, I)
        base = Cone.from_system(n, eqs, ins)
        base_core = Cone.from_system(n, *reference_standard_cone_system(datum, frozenset(), T)[:2])
        for w in weyl_enumerate(datum):
            moved = base.transform(w.mat_points, w.mat_points_inv)
            if moved.key not in found:
                core = base_core.transform(w.mat_points, w.mat_points_inv)
                found[moved.key] = (moved, CoreInfo(T, I, w.word, core))
    ordered = sorted(found.values(), key=lambda pair: (pair[0].dim, pair[0].key))
    return Fan(datum, J, [c for c, _ in ordered], {i: info for i, (_, info) in enumerate(ordered)})


def reflections(cartan) -> tuple[list, list]:
    """Per simple reflection s_k, its images of points, s_k.p, and of
    forms, f.s_k = f - f[k] cartan[k], each computed once per distinct
    vector for the lifetime of the returned `_Images`."""
    letters = range(len(cartan))
    return (
        [_Images(partial(reflect_simple, cartan, k=k)) for k in letters],
        [_Images(partial(_reflected_form, cartan, k=k)) for k in letters],
    )


def reflected_cone(cone: Cone, points, forms) -> Cone:
    """The image of a cone under s_k, given the images under s_k of points
    and of forms (`reflections`), field by field."""
    return Cone(
        cone.dim_ambient,
        tuple(sorted(map(forms.__getitem__, cone.eqs))),
        tuple(sorted(map(forms.__getitem__, cone.ins))),
        tuple(sorted(map(points.__getitem__, cone.lineality))),
        tuple(sorted(map(points.__getitem__, cone.rays))),
    )


def canonical_standard_cone(cartan, coweights, I, T) -> Cone:
    """`fans._standard_cone`, which holds its raw root forms, in the
    canonical form of `Fan.cones`: through `cones._canonical_cone`."""
    c = _standard_cone(cartan, coweights, I, T)
    return _canonical_cone(c.dim_ambient, c.eqs, c.ins, c.lineality, c.rays)


def object_walk_fan(datum, J) -> Fan:
    """`parabolic_fan` oracle: the same standard cones, sign rows and
    breadth-first walk, carrying each cone, its core and its reduced word
    as objects (`reflected_cone`, `CoreInfo`) instead of integer tables;
    a hand-made `Fan` of the cones in (dim, rays) order, holding the
    walk's transported sign rows."""
    J = validate_J(datum, J)
    cartan = datum.cartan
    forms = _root_forms(datum)
    permutations = _sign_permutations(datum)
    points, covectors = reflections(cartan)
    coweights = [la.primitive(w) for w in la.transpose(datum.cartan_adjugate[0])]

    def make(x, k, row):
        cone, info, _ = x
        image = reflected_cone(cone, points[k], covectors[k])
        core = image if info.cone is cone else reflected_cone(info.cone, points[k], covectors[k])
        word = (k,) + info.word
        return image, CoreInfo(info.type_indices, info.generator_indices, word, core), row

    items, at = [], {}
    for I, T in _admissible_index_sets(datum, J).items():
        base = canonical_standard_cone(cartan, coweights, I, T)
        core = base if T == I else canonical_standard_cone(cartan, coweights, T, T)
        row = _sign_row(forms, base, f"the standard cone of {sorted(I)}", at)
        seed = {row: (base, CoreInfo(T, I, (), core), row)}
        items += walk_orbits(seed, datum.rank, lambda x, k: permutations[k](x[2]), make).values()
    ordered = sorted(items, key=lambda x: (-len(x[0].eqs), x[0].rays))
    fan = Fan(datum, J, [x[0] for x in ordered], {i: x[1] for i, x in enumerate(ordered)})
    vars(fan)["_sign_table"] = tuple(x[2] for x in ordered)
    return fan


@cache
def simple_reflection_matrices(datum) -> tuple[list, list]:
    """Per simple reflection s_k, its matrix on coroot coordinates, the
    identity but row k, e_k minus row k of the Cartan matrix (p - <a_k, p>
    a_k^vee), and on root coefficients, the identity but row k, e_k minus
    column k (a - <a, a_k^vee> a_k)."""
    one = la.identity(datum.rank)

    def moving(k, rows):
        return one[:k] + (la.sub(one[k], rows[k]),) + one[k + 1:]

    columns = la.transpose(datum.cartan)
    n = datum.rank
    return [moving(k, datum.cartan) for k in range(n)], [moving(k, columns) for k in range(n)]


@cache
def word_matrices(datum, word: tuple) -> tuple:
    """The point, root and inverse point matrices of s_k1...s_km for a word
    (k1, ..., km), as a `la.mat_mul` fold of the simple reflection matrices,
    the oracle of `WeylElement`'s matrix views.  The fold runs from the
    right and is kept per word, so a word whose suffix (k2, ..., km) was
    folded before costs three products."""
    if not word:
        one = la.identity(datum.rank)
        return one, one, one
    on_points, on_roots = simple_reflection_matrices(datum)
    points, roots, inverse = word_matrices(datum, word[1:])
    k = word[0]
    return (
        la.mat_mul(on_points[k], points),
        la.mat_mul(on_roots[k], roots),
        la.mat_mul(inverse, on_points[k]),
    )


def word_element(datum, word) -> WeylElement:
    """The Weyl element s_k1...s_km of a word (k1, ..., km), its three
    matrix views set to the `word_matrices` fold, not made by the library."""
    w = WeylElement(datum, tuple(word))
    vars(w).update(zip(("mat_points", "mat_roots", "mat_points_inv"), word_matrices(datum, w.word)))
    return w


def reference_excluding(fan: Fan) -> tuple:
    """`Fan._excluding` oracle: the big-int build, which ORs `1 << i` into
    the set of each sign other than mixed, per cone i and root."""
    having = [[0, 0, 0] for _ in fan._root_forms]  # cones with sign 0, 1, -1
    for i, row in enumerate(fan._sign_table):
        for k, sign in enumerate(row):
            if sign != 2:
                having[k][sign] |= 1 << i
    return tuple((p | n, z | n, z | p) for z, p, n in having)


def reference_permuted(row: tuple, perm: tuple) -> tuple:
    """`fans._sign_permutations` oracle: pi_k of a sign row as a list, from
    the signed permutation (p, m) of s_k: root j takes the sign of root
    p[j], negated at j = m unless mixed."""
    p, m = perm
    out = [row[j] for j in p]
    if out[m] != 2:
        out[m] = -out[m]
    return tuple(out)


@cache
def cone_keys(fan: Fan) -> dict:
    """Each cone's `Cone.key` -> its index, once per fan."""
    return {c.key: i for i, c in enumerate(fan.cones)}


def reference_transform_index(fan: Fan, w: WeylElement, i: int) -> int:
    """`Fan.transform_index` oracle: the cone whose key is the key of cone
    i mapped by the point matrix of w."""
    key = tuple(
        tuple(sorted(la.primitive(la.mat_vec(w.mat_points, v)) for v in vs))
        for vs in fan.cones[i].key
    )
    j = cone_keys(fan).get(key)
    if j is None:
        raise PartitionFailure("fan is not Weyl invariant")
    return j


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
    reflections = simple_reflection_matrices(fan.datum)[0]
    one = la.identity(n)
    orbit = walk_orbits(  # cone i -> (i, u_i, u_i^-1)
        {first: (first, one, one)},
        n,
        lambda x, k: moves[k][x[0]],
        lambda x, k, j: (
            j,
            la.mat_mul(reflections[k], x[1]),
            la.mat_mul(x[2], reflections[k]),
        ),
    )
    fix_rows = {}
    for i, u, _ in orbit.values():
        for s, move in zip(reflections, moves):
            _, uj, uj_inv = orbit[move[i]]
            for row in map(la.sub, la.mat_mul(uj_inv, la.mat_mul(s, u)), one):
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


# the classes of `fan_mutants`, in the order it yields them
MUTANT_CLASSES = (
    "dropped cone",
    "doubled cone",
    "dropped facet form",
    "dropped ray",
    "extra ray",
    "missing core",
    "origin as core",
    "cores swapped",
    "image under the wrong s_k",
    "dropped ray of a merged cone",
    "chamber split in two",
    "every cone as its own core",
    "table ray id",
    "table move",
)


def fan_mutants(fan: Fan, seed: int):
    """Mutants of a built fan that `Fan.validate` must reject, each as
    (class, where, mutant, message), message a regex of the
    `PartitionFailure` it raises.  Each hand-made class is made twice, on
    the first cone (in cone order) of the orbit of open cones, "first", and
    on a later cone of it that is not its standard cone, which `seed`
    picks, "later"; a dropped ray is made on the orbit of the last cone
    with as many rays as its dimension instead, as a merged cone with one
    ray less can cut out the same sign row.  That is its own class, made
    where there is a merged cone (more rays than its dimension), on the
    first cone of the orbit of the last one and on its last cone that is
    not a standard cone, each without its first ray that leaves its sign
    row as it is.  A chamber split in two is made on the "first" and
    "later" open cones too; every cone as its own core, once, where some
    core is not its cone (J not empty).  The two table classes mutate
    a fresh build's own tables, which the transport check reads: one ray
    id of the later cone becomes that of a fan ray off its closure; and for
    J not empty, where the open cones' cores are not their cones, two pairs
    of open cones swap their images under one s_k, chosen so that the walks
    from the standard cones and from each orbit's first cone both meet one
    of the four from the wrong cone, and so carry it the wrong core.  A
    class that a fan cannot host is skipped: the "later" ones where the
    orbit has no later cone (A1, BC1), a dropped ray of a merged cone where
    every ray changes its sign row, and a split chamber in rank 1."""
    rng = random.Random(seed)
    datum, J, cones, cores, moves = fan.datum, fan.J, fan.cones, fan.cores, fan._moves
    labels = orbit_labels(moves)
    orbit = [i for i, label in enumerate(labels) if label == labels[-1]]
    points, forms = reflections(datum.cartan)
    walk = _orbit_walks(moves, range(len(fan)))  # from each orbit's first cone
    later = [i for i in orbit[1:] if cores[i].word]
    later = rng.choice(later) if later else None  # A1, BC1: the other open cone is standard
    simplicial = [i for i, c in enumerate(cones) if len(c.rays) == c.dim]
    simplicial = [i for i in simplicial if labels[i] == labels[simplicial[-1]]]
    merged = [i for i, c in enumerate(cones) if len(c.rays) > c.dim]
    if merged:
        merged = [i for i in merged if labels[i] == labels[merged[-1]]]
        merged = {"first": merged[0], "later": [i for i in merged if cores[i].word][-1]}

    def with_cores(changes):
        return Fan(datum, J, cones, {**cores, **changes})

    places = [("first", orbit[0])] + ([] if later is None else [("later", later)])
    for where, i in places:
        cone = cones[i]

        def with_cone(new, i=i):
            return Fan(datum, J, cones[:i] + (new,) + cones[i + 1 :], cores)

        keep = [j for j in range(len(fan)) if j != i]
        dropped = Fan(datum, J, [cones[j] for j in keep], {k: cores[j] for k, j in enumerate(keep)})
        yield "dropped cone", where, dropped, "lies in 0 cones; fan is not a partition$"
        doubled = Fan(datum, J, cones + (cone,), {**cores, len(fan): cores[i]})
        yield "doubled cone", where, doubled, "lies in 2 cones; fan is not a partition$"
        message = rf"^face condition fails for cones \d+ <= {i}$"
        yield "dropped facet form", where, with_cone(replace(cone, ins=cone.ins[1:])), message
        s = simplicial[0 if where == "first" else rng.randrange(1, len(simplicial))]
        message = rf"^roots vanishing on cone {s} do not cut out its span$"
        yield "dropped ray", where, with_cone(replace(cones[s], rays=cones[s].rays[1:]), s), message
        extra = rng.choice(sorted({r for c in cones for r in c.rays} - set(cone.rays)))
        mutant = with_cone(replace(cone, rays=tuple(sorted(cone.rays + (extra,)))))
        yield "extra ray", where, mutant, rf"^facet form .* of cone {i} is not a root form$"
        missing = Fan(datum, J, cones, {j: info for j, info in cores.items() if j != i})
        yield "missing core", where, missing, rf"^cone {i} has no core$"
        origin = replace(cores[i], cone=cones[fan.origin_index])
        message = rf"^core of cone {i} is not the stabiliser fixed locus$"
        yield "origin as core", where, with_cores({i: origin}), message
        j = rng.choice([j for j in orbit[1:] if j != i])
        message = rf"^core of cone ({i}|{j}) is not the stabiliser fixed locus$"
        yield "cores swapped", where, with_cores({i: cores[j], j: cores[i]}), message
        # the first cone by an s_k that moves it, a later one by the wrong
        # s_k from the cone its walk met it from: a cone the fan has already
        cones_met, letters = next(w for w in walk if i in w[0])
        at = cones_met.index(i)
        source = moves[letters[at]][i] if at else i
        m = rng.choice([m for m in range(datum.rank) if moves[m][source] != i])
        image = reflected_cone(cones[source], points[m], forms[m])
        yield "image under the wrong s_k", where, with_cone(image), "lies in 2 cones; fan is not a partition$"
        without = _without_a_ray(fan, merged[where]) if merged else None
        if without is not None:
            k = merged[where]
            message = rf"^facet of cone {k} is not the closure of a fan cone$"
            yield "dropped ray of a merged cone", where, with_cone(without, k), message
        pieces = _halves_and_wall(cone, {la.primitive(f) for f in fan._root_forms})
        if pieces is not None:
            moved = {j + 2 * (j > i): info for j, info in cores.items()}
            moved.update({i + 1: cores[i], i + 2: cores[i]})
            mutant = Fan(datum, J, cones[:i] + pieces + cones[i + 1 :], moved)
            message = rf"^facet form .* of cone {i} is not a root form$"
            yield "chamber split in two", where, mutant, message
    own = [i for i, info in cores.items() if info.cone != cones[i]]
    if own:
        mutant = with_cores({i: replace(info, cone=cones[i]) for i, info in cores.items()})
        message = rf"^core of cone {own[0]} is not the stabiliser fixed locus$"
        yield "every cone as its own core", "every", mutant, message
    if later is not None:
        fresh = parabolic_fan(datum, J)
        rays = list(fresh._rays[later])
        others = sorted({r for c in fresh._rays for r in c} - set(rays))
        rays[rng.randrange(len(rays))] = rng.choice(others)
        fresh._rays[later] = tuple(sorted(rays))
        message = rf"^face condition fails for cones {later} <= {later}$"
        yield "table ray id", "later", fresh, message
    # two pairs a <-> c and e <-> f of open cones swap their partners under s_k
    swaps = [
        (k, a, e)
        for k in range(datum.rank if J else 0)
        for a in orbit
        for e in orbit
        if a < moves[k][a] and a < e < moves[k][e] and moves[k][a] != e
    ]
    rng.shuffle(swaps)
    starts = (range(len(fan)), _standard_cones(fan))
    for k, a, e in swaps:
        c, f = moves[k][a], moves[k][e]
        move = list(moves[k])
        move[a], move[e], move[c], move[f] = e, a, f, c
        table = moves[:k] + (tuple(move),) + moves[k + 1 :]
        if all(_meets(_orbit_walks(table, s), k, (a, c, e, f)) for s in starts):
            fresh = parabolic_fan(datum, J)
            vars(fresh)["_moves"] = table
            message = rf"^core of cone ({a}|{c}|{e}|{f}) is not the stabiliser fixed locus$"
            yield "table move", "later", fresh, message
            return


def _without_a_ray(fan: Fan, i: int) -> Cone | None:
    """Cone i of the fan without its first ray whose removal leaves the
    sign row of the cone as it is; None if there is none.  A removal whose
    row fails the exactness checks changes the row."""
    cone = fan.cones[i]
    for k in range(len(cone.rays)):
        mutant = replace(cone, rays=cone.rays[:k] + cone.rays[k + 1 :])
        try:
            if _sign_row(fan._root_forms, mutant, "", {}) == fan._sign_table[i]:
                return mutant
        except PartitionFailure:
            pass
    return None


def _halves_and_wall(cone: Cone, roots: set) -> tuple | None:
    """A full-dimensional open cone cut in two by a hyperplane through an
    interior point, with a normal form that is no root's, given the
    primitive positive root forms: its two open halves and the open wall
    between them; None in rank 1, where no such hyperplane is found."""
    n = cone.dim_ambient
    q = [sum((k + 1) * r[j] for k, r in enumerate(cone.rays)) for j in range(n)]
    zeros = (0,) * n
    normals = (la.primitive(zeros[:j] + (q[j + 1], -q[j]) + zeros[j + 2 :]) for j in range(n - 1))
    h = next((h for h in normals if any(h) and h not in roots and la.neg(h) not in roots), None)
    if h is None:
        return None
    halves = tuple(Cone.from_system(n, cone.eqs, cone.ins + (f,)) for f in (h, la.neg(h)))
    return halves + (Cone.from_system(n, cone.eqs + (h,), cone.ins),)


def _meets(walks: list, k: int, cones: tuple) -> bool:
    """Whether the walks of `_orbit_walks` meet one of `cones` by s_k."""
    return any(c in cones and m == k for walk in walks for c, m in zip(*walk))


def _standard_cones(fan: Fan) -> list[int]:
    """The cones whose core word is empty: the standard cones of a build."""
    return [i for i, info in fan.cores.items() if not info.word]


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


def reference_inverse(m):
    """The inverse, or None if m is singular."""
    n = len(m)
    unit = [tuple(Q(int(i == j)) for j in range(n)) for i in range(n)]
    red, pivots = reference_rref([tuple(row) + e for row, e in zip(m, unit)])
    if pivots[:n] != list(range(n)):
        return None
    return tuple(tuple(row[n:]) for row in red)


def reference_det(m):
    """det by the adjugate: inv[j][i] = (-1)^(i+j) det(m without row i and
    column j) / det m, for an entry of the inverse that is not zero."""
    if not m:
        return Q(1)
    inv = reference_inverse(m)
    if inv is None:
        return Q(0)
    n = len(m)
    j, i = next((j, i) for j in range(n) for i in range(n) if inv[j][i])
    minor = [row[:j] + row[j + 1 :] for k, row in enumerate(m) if k != i]
    return (-1) ** (i + j) * reference_det(minor) / inv[j][i]


def reference_transitivity_solve(datum, x, y, gamma_denominator=1) -> TransitivitySolution:
    """`transitivity_solve` oracle: the Cartan system solved by elimination,
    with its determinant from `reference_det`, and every identity the
    closed form rests on checked on the answer."""
    positive_int(gamma_denominator, "value group denominator must be positive")
    if not datum.is_reduced():
        raise NonReduced("the Cartan system is set up for reduced root systems")
    if not datum.essential:
        raise Unspanned("the basis does not span the ambient space")
    diff = la.sub(datum.point(y), datum.point(x))
    gamma0 = Q(1, gamma_denominator)
    pairings = [datum.pairing(s, diff) for s in datum.simples]
    N = 1
    for v in pairings:
        N = lcm(N, (v / gamma0).denominator)
    cartan = la.mat(datum.cartan)
    D_frac = reference_det(cartan)
    if D_frac.denominator != 1 or D_frac <= 0:
        raise NonRootSystem("Cartan determinant must be a positive integer")
    D = int(D_frac)
    rhs = [N * D * v / gamma0 for v in pairings]
    for r in rhs:
        if r.denominator != 1 or int(r) % D != 0:
            raise NonRootSystem("right-hand side escaped the determinant lattice")
    sol = la.solve(cartan, la.vec(rhs))
    if sol is None or any(c.denominator != 1 for c in sol):
        raise NonRootSystem("Cartan system has no integral solution")
    n = tuple(int(c) for c in sol)
    translation = tuple(Q(c) * gamma0 / (N * D) for c in n)
    if translation != diff:
        raise NonRootSystem("transitivity solution failed to reproduce y - x")
    return TransitivitySolution(N, n, D, gamma0)


def reference_is_virtually_special(apt, x) -> bool:
    """`is_virtually_special` oracle: the symbolic pairing of every root
    with x, accumulated term by term."""
    entries = [c if isinstance(c, SymbolicEntry) else SymbolicEntry.of(c) for c in x]
    apt.datum.point([e.rational for e in entries])
    for a in apt.datum.roots:
        acc = SymbolicEntry.of(0)
        for coeff, entry in zip(apt.datum.covector(a), entries):
            symbols = tuple((s, v * coeff) for s, v in entry.symbols if v * coeff != 0)
            acc = acc.plus(SymbolicEntry(entry.rational * coeff, symbols))
        if not acc.is_rational:
            return False
    return True


def random_rational_vec(rng: random.Random, n: int, num: int = 9, den: int = 5):
    return tuple(Q(rng.randint(-num, num), rng.randint(1, den)) for _ in range(n))


def reference_is_J_relevant(datum, J, T) -> bool:
    """`is_J_relevant` oracle by set algebra, with its reads of J and T: T
    is relevant exactly when it is the `standard_type` of its own
    `core_generating_set`."""
    J = validate_J(datum, J)
    T = simple_indices(datum, T)
    return T == standard_type(datum, J, core_generating_set(datum, J, T))


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



def coroot_covector(datum, b) -> tuple:
    """Root-system oracle: (<alpha_i, b^vee>)_i = (2 (alpha_i, b) / (b, b))_i
    by the invariant form (`RootDatum.inner`) alone, so that <a, b^vee> is
    linear in a.  It reads (alpha_i, b) off the rows of the Cartan matrix
    and the lengths, so it shares no code with `reflect_simple`, which
    reads the columns."""
    weighted = datum._weighted(b)
    bb = datum.length_sq(b)
    return tuple(la.dot(r, weighted) / bb for r in datum.cartan)


def coroot_pairing(datum, a, b):
    """<a, b^vee> by `coroot_covector`, an int when it is integral."""
    c = la.dot(a, coroot_covector(datum, b))
    return int(c) if c.denominator == 1 else c


def reflect_root(datum, a, b, pairing=coroot_pairing):
    """s_b(a) = a - <a, b^vee> b; NonRootSystem when the pairing is not an
    integer."""
    c = pairing(datum, a, b)
    if c.denominator != 1:
        raise NonRootSystem(f"non-integral Cartan pairing {c} for {a}, {b}")
    return tuple(ai - int(c) * bi for ai, bi in zip(a, b))


def reference_validate(datum) -> None:
    """Validation oracle: the sign checks of `RootDatum.validate`, every
    root reflected in every root by `reflect_root` (O(|roots|^2)), and the
    roots flagged multipliable having their doubles."""
    if len(set(datum.roots)) != len(datum.roots):
        raise NonRootSystem("duplicate roots")
    if (0,) * datum.rank in datum.root_set:
        raise NonRootSystem("zero is not a root")
    covectors = {}  # b -> coroot_covector(datum, b), built once

    def pairing(datum, a, b):
        if b not in covectors:
            covectors[b] = coroot_covector(datum, b)
        return la.dot(a, covectors[b])

    for a in datum.roots:
        if tuple(-c for c in a) not in datum.root_set:
            raise NonRootSystem(f"root set not closed under negation at {a}")
        if not (all(c >= 0 for c in a) or all(c <= 0 for c in a)):
            raise NonRootSystem(f"root {a} has mixed signs over the basis")
        for b in datum.roots:
            if reflect_root(datum, a, b, pairing) not in datum.root_set:
                raise NonRootSystem(f"reflection s_{b} does not preserve roots at {a}")
    for a in datum.multipliable:
        if tuple(2 * c for c in a) not in datum.root_set:
            raise NonRootSystem(f"{a} flagged multipliable but 2a is not a root")


def perturbed_root_datum(rng: random.Random) -> RootDatum:
    """A hand-made `RootDatum`: a catalogue one of rank <= 3 changed once or
    twice, by dropping a root or a +- pair, adding a small vector (maybe
    with its negative) or the doubles of some roots, rescaling a root, or
    changing a simple length, a Cartan entry or the multipliable roots."""
    datum = build_root_datum(rng.choice(RANK3_CATALOGUE))
    n = datum.rank
    roots = list(datum.roots)
    cartan = [list(row) for row in datum.cartan]
    lengths = list(datum.simple_lengths)
    multipliable = set(datum.multipliable)
    for _ in range(rng.choice((1, 1, 2))):
        roll = rng.randrange(8)
        a = rng.choice(roots) if roots else (1,) * n
        if roll == 0:
            drop = {a, tuple(-c for c in a)} if rng.random() < 0.5 else {a}
            roots = [b for b in roots if b not in drop]
        elif roll == 1:
            v = tuple(rng.randint(-3, 3) for _ in range(n))
            roots += [v, tuple(-c for c in v)] if rng.random() < 0.7 else [v]
        elif roll == 2:  # the doubles of every root, or of those of one length
            length = rng.choice([None, *{datum.length_sq(b) for b in datum.roots}])
            roots += [
                tuple(2 * c for c in b)
                for b in datum.roots
                if length is None or datum.length_sq(b) == length
            ]
            multipliable = {b for b in roots if tuple(2 * c for c in b) in roots}
        elif roll == 3:
            m = rng.choice((2, 3, -1))
            pair = (a, tuple(-c for c in a))
            roots = [tuple(m * c for c in b) if b in pair else b for b in roots]
        elif roll == 4:
            i = rng.randrange(n)
            lengths[i] = Q(rng.choice((1, 2, 3, 4, 6, 8, 0, -2)))
        elif roll == 5:
            i, j = rng.randrange(n), rng.randrange(n)
            cartan[i][j] = rng.choice((cartan[i][j] - 1, cartan[i][j] + 1, 0, -1, -2, -3))
        elif roll == 6:
            multipliable = rng.choice((set(), multipliable | {a}))
        else:
            multipliable = {b for b in roots if tuple(2 * c for c in b) in roots}
    return RootDatum(
        name="perturbed",
        rank=n,
        cartan=tuple(map(tuple, cartan)),
        simple_lengths=tuple(lengths),
        roots=tuple(roots),
        multipliable=frozenset(multipliable),
    )


def root_orbit(datum, a) -> dict:
    """The Weyl orbit of root a, walked under the simple reflections."""
    reflect = partial(reflect_simple, la.transpose(datum.cartan))
    return walk_orbits({a: a}, datum.rank, reflect)


def orbit_walk_pattern(datum, denominators) -> AffineRootPattern:
    """`AffineRootPattern.from_simple_denominators` oracle: walk the root
    orbit of each simple root, give each root the denominator of the first
    simple root whose orbit holds it, and require equal denominators inside
    one orbit."""
    if len(denominators) != datum.rank:
        raise NonRootSystem("need one denominator per simple root")
    orbit_of = {}
    for i, s in enumerate(datum.simples):
        for img in root_orbit(datum, s):
            prev = orbit_of.get(img)
            if prev is not None and denominators[prev] != denominators[i]:
                raise NonRootSystem("inconsistent denominators inside one Weyl orbit")
            orbit_of.setdefault(img, i)
    groups = []
    for a in datum.positive_nondivisible_roots:
        kind = "bc" if a in datum.multipliable else "lattice"
        groups.append((a, ValueGroup(kind, denominators[orbit_of[a]])))
    return AffineRootPattern(datum, tuple(sorted(groups)))


def simple_root_orbits(datum) -> list[int]:
    """Per simple root, the number of its Weyl orbit, the orbits numbered
    by their first simple root, by root orbit walks."""
    orbit = {}
    for s in datum.simples:
        if s not in orbit:
            number = len(set(orbit.values()))
            orbit.update(dict.fromkeys(root_orbit(datum, s), number))
    return [orbit[s] for s in datum.simples]


def corner_walls_in_box(apt, lo, hi) -> list:
    """`walls_in_box` oracle: the least and greatest value of each root over
    the 2^n corners of the box, then the wall levels between them."""
    lo, hi = apt.datum.point(lo), apt.datum.point(hi)
    n = apt.datum.rank
    corners = [
        tuple(hi[i] if bits >> i & 1 else lo[i] for i in range(n)) for bits in range(1 << n)
    ]
    out = []
    for a in apt.datum.positive_nondivisible_roots:
        vals = [apt.datum.pairing(a, c) for c in corners]
        step = Q(1, apt.pattern.group_of(a).wall_denominator())
        level = -(-min(vals) // step) * step
        while level <= max(vals):
            out.append((a, -level))
            level += step
    return out


def filtered_dense_sample(apt, facet_vertices, count) -> list:
    """`rational_dense_sample` oracle on vertex lists without repeats: the
    barycenter, then for each dyadic denominator 2, 4, 8, ... every
    composition of it into one part per vertex, in lexicographic order,
    kept when each part is positive and its point is new."""
    vertices = [apt.datum.point(v) for v in facet_vertices]
    k, n = len(vertices), apt.datum.rank

    def combine(weights):
        return tuple(sum(w * v[j] for w, v in zip(weights, vertices)) for j in range(n))

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    out = [combine([Q(1, k)] * k)]
    level = 1
    while True:
        denom = 1 << level
        for combo in filter(all, compositions(denom, k)):
            p = combine([Q(m, denom) for m in combo])
            if len(out) == count:
                return out
            if p not in out:
                out.append(p)
        level += 1
