"""Fans of relatively open cones: the Weyl fan and its merged variants.

A fan here is a finite partition of the ambient space into relatively open
polyhedral cones containing the origin cone, whose boundaries are unions of
fan cones with the closure compatibility condition on faces.

`parabolic_fan(datum, J)` builds the fan whose open cones merge all Weyl
chambers across the walls of the reflection subgroup generated by J.  The
standard cone of index subset I merges the Weyl facets of type between I
and I u (J n I-perp) under that reflection subgroup; its core is the Weyl
facet of type I u (J n I-perp).  For J empty this is exactly the Weyl fan.

*Orbit walk.*  `parabolic_fan` walks each new standard cone's orbit
breadth first under s_1..s_n, carrying the core, the cone's sign row (see
*Sign table*) and the Weyl element u mapping the standard cone there.
s_k is unimodular and moves one coroot coordinate, so rays stay
primitive.  The image under s_k gets s_k.u, with inverse u^-1.s_k.  As a
matrix, s_k is the identity but for row k, so s_k.M is M with row k
replaced by (row k of s_k).M, and M.s_k is M plus the rank-one term
(M e_k)(row k of s_k - e_k).  Both are the full products, entry by entry
and in integers, at O(n^2) instead of O(n^3) (`rootdata.reflect_matrix`).
The stabiliser of the standard cone of I is W_T, T = I u (J n I-perp), so each
cone has one minimal-length u, of length its depth in the walk.  A prefix
of a minimal u is minimal, so `weyl_enumerate`'s closure, breadth first
too, reaches a minimal u only from the u one level up; by induction both
meet the minimal u in the same order, through the same s_k, and give each
the same word (Humphreys, *Reflection Groups and Coxeter Groups*, 1.10).
The orbits share their u, so each s_k.u is formed once per build, keyed
by k and the word of u, which determines it.
A standard cone whose type T is I itself is its own core (the face of
the dominant chamber of type I), as is then every cone of its orbit, so
the walk reflects one cone for both; for J empty that is every cone.

Cone location and the face order use exact integer indices built once per
fan.

*Sign table.*  One table per fan holds the sign of every positive
nondivisible root on every cone: 0 (Z), + (P), - (N) or mixed.  Building
it checks that the roots in Z have rank `len(cone.eqs)` and that every
facet form is, on the span of the cone, a positive multiple of a root in
P or of the negative of a root in N.  Then the roots in Z cut out the
span, and on the span each facet form has the sign of its root, so a
point lies in the cone exactly when its own sign vector agrees with the
cone on Z, P and N: membership depends only on the point's sign vector.
Two cones that pass the checks and have one row are therefore one cone.
Every root is e or 2e times a positive nondivisible root (e = 1 or -1),
so the table gives every root's sign on every cone, and it alone serves
cone location, profile matching (`compactify.limit_of_profile`, by the
sign class of each value: +inf, -inf or rational) and boundary seminorms
(`gaussnorm.theta_boundary`).  One matcher ORs, per root and sign, the
bitset of the cones that sign excludes.  `cone_containing` matches a sign
vector the first time it meets it, requires exactly one hit, and records
sign vector -> cone, so a sign vector met before costs one dictionary
lookup after |positive roots| dot products.

*Sign transport.*  s_k maps alpha_k to -alpha_k and permutes the other
positive roots, so it sends each positive nondivisible root P_j to
e P_p(j) with e = -1 only at alpha_k (`RootDatum.root_permutations`).
Since <P_j, s_k.x> = <s_k.P_j, x>, the sign of P_j on s_k.X is e times
the sign of P_p(j) on X, and a mixed sign stays mixed; call this map of
rows pi_k.  The two checks carry over too: s_k maps the roots in Z of X
onto, up to sign, the roots in Z of s_k.X, keeping their rank, and a
facet form of s_k.X is f.s_k for a facet form f of X, so if f is c P on
the span of X, f.s_k is c e P_p on the span of s_k.X, with the same sign
class.  So `parabolic_fan` builds a row directly, with both checks, only
for each orbit's standard cone, permutes it along the walk, and keys the
walk by the rows: by the paragraph above, equal rows mean equal cones,
and the rows it ends with are distinct and closed under every pi_k.  A
`Fan(...)` made by hand builds every row directly.  Let X be the cone of
row r.  A point y lies in s_k.X when s_k.y lies in X, that is when pi_k
of the sign vector of y agrees with r, that is when the sign vector of y
agrees with pi_k(r), as pi_k is a signed permutation and an involution.
So s_k.X is the set that the row pi_k(r) cuts out, and when a fan cone
has that row it is s_k.X.  The moves table `Fan._moves` holds, per k and
cone i, the index of the cone with row pi_k(row i): the cone s_k maps
cone i to, for one permutation and one dictionary lookup.  Making it
requires the rows distinct and closed under every pi_k.  Two cones with
one row both hold the relative interior point of either, so the fan is
not a partition.  If pi_k(row i) is no row, the cone locating s_k.x, x
inside cone i, is not s_k.(cone i), which is then no fan cone: either
no cone or several hold s_k.x, or one does and the fan is not Weyl
invariant.  `cone_containing` tells these apart.

*Orbit reduction.*  On distinct rows closed under every pi_k, each pi_k
is a bijection of the rows (an involution of a finite set).  The cones
holding a point p are those whose rows agree with its sign vector, so
by the paragraph above the cones holding s_k.p are the images under s_k
of those holding p, as many of them.  Every Weyl facet point is a word
in the s_k applied to a dominant one, and every point has the sign
vector of some Weyl facet, so the partition axiom holds as soon as each
of the 2^n dominant facet points lies in exactly one cone.  These are
the primitive multiples of the sums of fundamental coweights, the
columns of C^-1; in integers, those of the adjugate d.C^-1, d = det C > 0
(`linalg.scaled_inverse`), which differ by the factor d.  Likewise s_k
maps the facets of the closure of cone i onto those of the closure of
its image, and the closure of a fan cone onto the closure of a fan cone,
so the boundary axiom holds for every cone of an orbit when it holds for
one.  The cover check (`_check_cover`) therefore scans the dominant
facet points, which records their sign vectors only, and checks the
facets of one cone per orbit: in `parabolic_fan` the standard cones,
the walk's seeds, and in `Fan.validate` the first cone of each orbit of
the moves table.

*Ray bitsets.*  The rays of the fan are numbered, and a cone is the set
of its ray indices.  The cones of `parabolic_fan` are pointed (the root
system is essential), and for pointed cones (f, g) is a face pair
exactly when the rays of f are rays of g.  If so, the closure of f lies
in that of g.  Conversely, let the closure of f lie in the closure of g
and let r be a ray of f.  By the boundary axiom, applied facet by facet,
every face of a closure is the closure of a fan cone, so r spans a fan
cone.  By the partition and boundary axioms, the closure of g is the
disjoint union of the fan cones that are its faces, and the open ray
through r is one of them, so r is a ray of g.  `parabolic_fan` and
`Fan.validate` check both axioms before the order is read.

*Validation.*  `Fan.validate` checks each axiom once, from integer data.
It may lean on the sign table: every row is built directly, with both
exactness checks, before the moves table is read, and the table checks
that the rows are distinct and closed (see *Sign transport*).  Partition
and boundary: the cover check on one cone per orbit (see *Orbit
reduction*).  Faces: every closure must hold its own rays, and a face of
a pointed cone is the zero set of its tight facet forms.  So with each
facet of g kept as the bitset of the rays of g on which its form
vanishes, (f, g) is a face pair exactly when the AND of the facets of g
that hold the rays of f (all of g if none do) is the rays of f.  This is
the supporting-form criterion with alpha the sum of the tight facet
forms, and it implies cl(f) = span(f) meet cl(g).  Weyl invariance and
cores: a complete moves table is Weyl invariance, since the s_k generate
W.  The core of a cone X is the set of its points that its setwise
stabiliser Stab(X) fixes.  Let X be the first cone of an orbit and p the
sum of its rays; then Stab(X) is W_p, the stabiliser of p.  A g in
Stab(X) permutes the primitive rays of X, as W acts unimodularly on
coroot coordinates, so it fixes p.  A g in W_p maps X to a fan cone (Weyl
invariance) through p, which is X (partition).  W_p is generated by the
reflections it contains, those in the roots vanishing at p (Chevalley's
lemma; Humphreys 1.12), so its fixed points are the zero set of those
roots, and one `Cone.from_system` of the equalities of X, those root
forms and the facet forms of X gives the first core (`_fixed_core`).
Stab(s_k.X) is s_k Stab(X) s_k, so s_k maps the core of X onto the core
of s_k.X: each orbit is walked once along the moves, carrying the key
(lineality and rays) of the first core by `_reflected_key`, with no Weyl
matrix.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Optional, Sequence

from . import linalg as la
from ._value import Value, replace
from .cones import Cone
from .errors import (
    DegenerateJ,
    NotEssential,
    PartitionFailure,
    TypeMismatch,
)
from .linalg import Vec
from .rootdata import (
    Root,
    RootDatum,
    WeylElement,
    basis_subset,
    components,
    listed,
    orthogonal_complement,
    point_orbits,
    reflect_simple,
    walk_orbits,
)


class CoreInfo(Value):
    """Core of a fan cone: a Weyl facet with its standard type and position."""

    type_indices: frozenset[int]  # I u (J n I-perp) for the standard cone
    generator_indices: frozenset[int]  # the subset I generating the cone
    weyl: WeylElement  # translate mapping the standard cone here
    cone: Cone  # the core as a relatively open cone


class Fan:
    """An immutable fan with cores, built from a root datum and a subset J."""

    def __init__(
        self,
        datum: RootDatum,
        J: frozenset[int],
        cones: Sequence[Cone],
        cores: dict[int, CoreInfo],
        sign_table: Optional[Sequence[tuple[int, ...]]] = None,
    ):
        self.datum = datum
        self.J = J
        self.cones = tuple(cones)
        self.cores = cores
        self._index = {c.key: i for i, c in enumerate(self.cones)}
        self._by_sign: dict[tuple[int, ...], int] = {}  # sign vector -> cone
        if sign_table is not None:  # as `parabolic_fan` transports it
            self._sign_table = tuple(sign_table)

    def __len__(self) -> int:
        return len(self.cones)

    @cached_property
    def origin_index(self) -> int:
        for i, c in enumerate(self.cones):
            if c.is_origin:
                return i
        raise PartitionFailure("fan has no origin cone")

    # -- sign table ----------------------------------------------------------

    @cached_property
    def _root_forms(self) -> tuple[Vec, ...]:
        return _root_forms(self.datum)

    def _signs(self, v: Vec) -> tuple[int, ...]:
        """The sign vector of v: 0, 1 or -1 for each root in `_root_forms`."""
        out = []
        for form in self._root_forms:
            d = la.dot(form, v)
            out.append((d > 0) - (d < 0))
        return tuple(out)

    @cached_property
    def _sign_table(self) -> tuple[tuple[int, ...], ...]:
        """Per cone, the sign of each root in `_root_forms` on it: 0, 1, -1,
        or 2 if mixed.  Built after checking that the signs cut each cone
        out (see the module docstring)."""
        at: dict[Vec, tuple] = {}  # generator -> values of the root forms
        return tuple(
            _sign_row(self._root_forms, c, f"cone {i}", at) for i, c in enumerate(self.cones)
        )

    def root_sign(self, i: int, a: Root) -> int:
        """Sign of root a on cone i, as `Cone.sign_of` gives it: 0, 1, -1, or
        2 if mixed."""
        k, e = self.datum.root_slots[a]
        s = self._sign_table[i][k]
        return s if s == 2 else e * s

    @cached_property
    def _excluding(self) -> tuple[tuple[int, int, int], ...]:
        """For root k and a sign s of it at a point, `_excluding[k][s]` is the
        set (a bitset over cone indices) of the cones on which root k has
        another sign, so cannot hold the point; a mixed sign excludes
        nothing.  The tuples are ordered (0, 1, -1) to be indexed by s."""
        having = [[0, 0, 0] for _ in self._root_forms]  # cones with sign 0, 1, -1
        for i, row in enumerate(self._sign_table):
            for k, sign in enumerate(row):
                if sign != 2:
                    having[k][sign] |= 1 << i
        return tuple((p | n, z | n, z | p) for z, p, n in having)

    def matching_cones(self, signs: Iterable[tuple[int, int]]) -> int:
        """The bitset over cone indices of the cones on which, for every pair
        (k, s), root k of `_root_forms` has sign s or a mixed sign."""
        excluding = self._excluding
        misses = 0
        for k, s in signs:
            misses |= excluding[k][s]
        return ~misses & ((1 << len(self.cones)) - 1)

    def _scan(self, v: Vec, signs: tuple[int, ...]) -> int:
        """The one cone whose signs agree with the sign vector of v; records
        it under the sign vector."""
        hits = self.matching_cones(enumerate(signs))
        if hits.bit_count() != 1:
            raise PartitionFailure(
                f"point {v} lies in {hits.bit_count()} cones; fan is not a partition"
            )
        self._by_sign[signs] = hit = hits.bit_length() - 1
        return hit

    def cone_containing(self, v: Vec) -> int:
        """Index of the one cone containing v.  Raises DimensionMismatch when
        v has the wrong length, PartitionFailure unless exactly one cone
        contains v."""
        signs = self._signs(la.primitive(self.datum.point(v)))
        hit = self._by_sign.get(signs)
        return hit if hit is not None else self._scan(v, signs)

    @cached_property
    def _moves(self) -> tuple[tuple[int, ...], ...]:
        """Per simple reflection s_k, the index of every cone's image under
        s_k: the cone whose sign row is the permuted row (see *Sign
        transport* in the module docstring).  Raises PartitionFailure
        unless the rows are distinct and closed under the permutations."""
        rows = self._sign_table
        index = {row: i for i, row in enumerate(rows)}
        for i, row in enumerate(rows):
            if index[row] != i:  # another cone has this row
                self.cone_containing(self.cones[i].relint_point())  # raises
        perms = self.datum.root_permutations
        moves = tuple(tuple(index.get(_permuted(row, p)) for row in rows) for p in perms)
        for k, move in enumerate(moves):
            if None in move:  # s_k of that cone is no fan cone
                x = self.cones[move.index(None)].relint_point()
                self.cone_containing(reflect_simple(self.datum.cartan, x, k))
                raise PartitionFailure("fan is not Weyl invariant")
        return moves

    # -- face order ----------------------------------------------------------

    @cached_property
    def _ray_indices(self) -> tuple[dict[Vec, int], tuple[tuple[int, ...], ...]]:
        """Every ray of the fan numbered, and each cone's rays as indices."""
        number: dict[Vec, int] = {}
        cone_rays = tuple(
            tuple(number.setdefault(r, len(number)) for r in c.rays) for c in self.cones
        )
        return number, cone_rays

    @cached_property
    def face_order(self) -> tuple[tuple[int, int], ...]:
        """All pairs (f, g) with f a face of g, as the facade closure order:
        the rays of f are rays of g (see the module docstring)."""
        number, cone_rays = self._ray_indices
        cones_with = [0] * len(number)  # per ray, a bitset of the cones having it
        for g, rays in enumerate(cone_rays):
            for k in rays:
                cones_with[k] |= 1 << g
        pairs = []
        for f, rays in enumerate(cone_rays):
            above = (1 << len(self.cones)) - 1
            for k in rays:
                above &= cones_with[k]
            while above:
                low = above & -above
                pairs.append((f, low.bit_length() - 1))
                above ^= low
        return tuple(pairs)

    # -- W action ----------------------------------------------------------

    def transform_index(self, w: WeylElement, i: int) -> int:
        """Index of the image of cone i under a Weyl element."""
        j = self._index.get(_image_key(self.cones[i], w.mat_points))
        if j is None:
            raise PartitionFailure("fan is not Weyl invariant")
        return j

    # -- validation ----------------------------------------------------------

    def validate(self) -> dict:
        """Verify the fan axioms exactly; returns a few summary counts.

        Checks strict convexity of closures, the origin cone, partition and
        boundary axioms, the face condition on every face pair, Weyl
        invariance and the cores as stabiliser fixed loci."""
        for c in self.cones:
            if c.lineality:
                raise PartitionFailure(f"cone closure contains a line: {c}")
        _ = self.origin_index  # the zero cone belongs to the fan
        firsts = _orbit_firsts(self._moves)
        _check_cover(self, firsts)
        _check_faces(self)
        _check_cores(self, firsts)
        return {
            "cones": len(self.cones),
            "face_pairs": len(self.face_order),
            "weyl_order": self.datum.weyl_order,
        }


def _root_forms(datum: RootDatum) -> tuple[Vec, ...]:
    """Covectors of the positive nondivisible roots."""
    return tuple(datum.covector(a) for a in datum.positive_nondivisible_roots)


def _sign_row(forms: Sequence[Vec], c: Cone, label: str, at: dict) -> tuple[int, ...]:
    """The direct build of a `_sign_table` row: the sign of each root form on
    the cone c, after the two exactness checks (see the module docstring),
    which name the cone by `label`.  `at` caches the forms' values at each
    generator across calls."""
    span = list(c.rays) + list(c.lineality)
    for g in span:
        if g not in at:
            at[g] = tuple(la.dot(f, g) for f in forms)
    cols = [at[g] for g in span]
    row, zero, signed = [], [], set()
    for k, form in enumerate(forms):
        vals = tuple(col[k] for col in cols)
        on_lin = vals[len(c.rays):]
        if not any(vals):
            sign = 0
            zero.append(form)
        elif not any(on_lin) and all(x >= 0 for x in vals):
            sign = 1
            signed.add(la.primitive(vals))
        elif not any(on_lin) and all(x <= 0 for x in vals):
            sign = -1
            signed.add(la.primitive(la.neg(vals)))
        else:
            sign = 2  # mixed sign on the cone
        row.append(sign)
    if la.rank(zero) != len(c.eqs):
        raise PartitionFailure(f"roots vanishing on {label} do not cut out its span")
    for form in c.ins:
        if la.primitive(tuple(la.dot(form, g) for g in span)) not in signed:
            raise PartitionFailure(f"facet form {form} of {label} is not a root form")
    return tuple(row)


def _permuted(signs: tuple[int, ...], perm: tuple[tuple[int, ...], int]) -> tuple[int, ...]:
    """The signs of the root forms on s_k.X from their signs on X, given the
    signed permutation (p, m) of s_k (`RootDatum.root_permutations`): root
    j has at s_k.x the sign of root p[j] at x, negated for j = m, since
    <P_j, s_k.x> = <s_k.P_j, x>; mixed (2) stays 2."""
    p, m = perm
    out = list(map(signs.__getitem__, p))
    if out[m] != 2:
        out[m] = -out[m]
    return tuple(out)


def _orbit_firsts(moves: Sequence[Sequence[int]]) -> list[int]:
    """The first cone of each orbit of the moves table, in cone order."""
    walked: set[int] = set()
    firsts = []
    for i in range(len(moves[0])):
        if i not in walked:
            firsts.append(i)
            walked.update(walk_orbits({i: i}, len(moves), lambda j, k: moves[k][j]))
    return firsts


def _check_cover(fan: Fan, firsts: Iterable[int]) -> None:
    """Partition and boundary axioms on a fan whose rows are distinct and
    closed under the sign permutations: every dominant facet point lies in
    exactly one cone, and every facet of the closure of each cone in
    `firsts`, one per orbit, is the closure of a fan cone (see *Orbit
    reduction* in the module docstring)."""
    for p in _dominant_facet_points(fan.datum):
        fan._scan(p, fan._signs(p))
    for i in firsts:
        g = fan.cones[i]
        for form in g.ins:
            facet_rays = tuple(sorted(r for r in g.rays if la.dot(form, r) == 0))
            if ((), facet_rays) not in fan._index:
                raise PartitionFailure(
                    f"facet of cone {i} is not the closure of a fan cone"
                )


def _check_faces(fan: Fan) -> None:
    """Face condition on every pair of the face order, by ray incidence."""
    _, cone_rays = fan._ray_indices
    ray_sets, zero_sets = [], []  # per cone: its rays, and each facet's rays
    for i, (c, rays) in enumerate(zip(fan.cones, cone_rays)):
        if not all(c.closure_contains(r) for r in c.rays):
            raise PartitionFailure(f"face condition fails for cones {i} <= {i}")
        ray_sets.append(sum(1 << k for k in rays))
        zero_sets.append(
            [sum(1 << k for k, r in zip(rays, c.rays) if la.dot(form, r) == 0) for form in c.ins]
        )
    for f, g in fan.face_order:
        rays, meet = ray_sets[f], ray_sets[g]
        for zero in zero_sets[g]:
            if zero & rays == rays:
                meet &= zero
        if meet != rays:
            raise PartitionFailure(f"face condition fails for cones {f} <= {g}")


def _fixed_core(fan: Fan, i: int) -> Cone:
    """Cone i cut down by the roots vanishing at the sum p of its rays: the
    fixed locus of its stabiliser W_p in it (see *Validation* in the module
    docstring)."""
    c = fan.cones[i]
    p = c.relint_point()
    fixed = [f for f in fan._root_forms if la.dot(f, p) == 0]
    return Cone.from_system(fan.datum.rank, list(c.eqs) + fixed, list(c.ins))


def _check_cores(fan: Fan, firsts: Iterable[int]) -> None:
    """Cores: every cone has one, the first core of each orbit, from the
    cone in `firsts`, is `_fixed_core`, and each move s_k carries the core
    of cone i to that of its image (see *Validation* in the module
    docstring).  Only the cores' keys are compared, so only they are moved."""
    missing = next((i for i in range(len(fan.cones)) if i not in fan.cores), None)
    if missing is not None:
        raise PartitionFailure(f"cone {missing} has no core")
    n, cartan, moves = fan.datum.rank, fan.datum.cartan, fan._moves
    for first in firsts:
        orbit = walk_orbits(
            {first: (first, _fixed_core(fan, first).key)},
            n,
            lambda x, k: moves[k][x[0]],
            lambda x, k, j: (j, _reflected_key(cartan, x[1], k)),
        )
        for i, key in orbit.values():
            if key != fan.cores[i].cone.key:
                raise PartitionFailure(f"core of cone {i} is not the stabiliser fixed locus")


def _reflected_key(cartan: la.Mat, key: tuple, k: int) -> tuple:
    """The `Cone.key` of the image under s_k of the cone with this key.  s_k
    is unimodular, so it keeps integer generators primitive."""
    return tuple(tuple(sorted(reflect_simple(cartan, v, k) for v in vs)) for vs in key)


def _reflected_cone(cartan: la.Mat, cone: Cone, k: int) -> Cone:
    """The image of a cone under s_k; a form f goes to f.s_k = f - f[k] cartan[k]."""
    lineality, rays = _reflected_key(cartan, cone.key, k)
    eqs, ins = (
        tuple(sorted(la.sub(f, la.scale(cartan[k], f[k])) if f[k] else f for f in fs))
        for fs in (cone.eqs, cone.ins)
    )
    return Cone(cone.dim_ambient, eqs, ins, lineality, rays)


def _image_key(cone: Cone, mat_points: la.Mat) -> tuple:
    """`Cone.key` of the image of a cone under an invertible linear map."""
    return tuple(
        tuple(sorted(la.primitive(la.mat_vec(mat_points, v)) for v in vs)) for vs in cone.key
    )


def weyl_facet_points(datum: RootDatum) -> list[Vec]:
    """One primitive integer relative interior point for every facet of the
    Weyl arrangement: the Weyl orbits of the primitive multiples of the sums
    of fundamental coweights."""
    return sorted(point_orbits(datum.cartan, _dominant_facet_points(datum)))


def _dominant_facet_points(datum: RootDatum) -> list[Vec]:
    """The primitive multiples of the sums of fundamental coweights, one
    per facet of the dominant chamber, from the columns of the adjugate of
    the Cartan matrix, positive multiples of the coweights."""
    n = datum.rank
    adjugate = la.scaled_inverse(datum.cartan)[0]  # coweights as its columns
    subsets = (tuple(bits >> j & 1 for j in range(n)) for bits in range(1 << n))
    return [la.primitive(la.mat_vec(adjugate, e)) for e in subsets]


def _admissible_index_sets(datum: RootDatum, J: frozenset[int]) -> list[frozenset[int]]:
    """Subsets I of the basis none of whose components lie inside J."""
    n = datum.rank
    out = []
    for bits in range(1 << n):
        I = frozenset(j for j in range(n) if bits & (1 << j))
        if all(not comp <= J for comp in components(datum, I)):
            out.append(I)
    return out


def standard_type(datum: RootDatum, J: frozenset[int], I: frozenset[int]) -> frozenset[int]:
    """T = I u (J n I-perp), the type of the core of the standard cone of I."""
    return I | (J & orthogonal_complement(datum, I))


def standard_cone_system(
    datum: RootDatum, J: frozenset[int], I: frozenset[int]
) -> tuple[list[Vec], list[Vec], frozenset[int]]:
    """Equalities and strict forms of the standard merged cone of subset I.

    The cone is cut out by vanishing of the simple roots in I and positivity
    of every positive root outside the span of T = `standard_type`; returns
    (equalities, strict forms, T).
    """
    T = standard_type(datum, J, I)
    eqs = [datum.covector(datum.simples[i]) for i in sorted(I)]
    levi = set(datum.levi_roots(T))
    ins = [datum.covector(a) for a in datum.positive_roots if a not in levi]
    return eqs, ins, T


def _facet_cone(datum: RootDatum, T: frozenset[int]) -> Cone:
    """The face of the fundamental chamber with vanishing type T."""
    n = datum.rank
    eqs = [datum.covector(datum.simples[i]) for i in sorted(T)]
    ins = [datum.covector(datum.simples[i]) for i in range(n) if i not in T]
    return Cone.from_system(n, eqs, ins)


def validate_J(datum: RootDatum, J: Iterable[int]) -> frozenset[int]:
    """J as a frozenset; raises DegenerateJ unless J is a subset of the basis
    containing no connected component of the basis diagram."""
    entries, bad = basis_subset(datum, J)
    if bad:
        raise DegenerateJ(f"subset {listed(entries)} is not a subset of the basis")
    J = frozenset(entries)
    for comp in datum.diagram_components:
        if comp <= J:
            raise DegenerateJ(
                f"J contains the connected component {sorted(comp)} of the basis"
            )
    return J


def parabolic_fan(datum: RootDatum, J: Iterable[int] = ()) -> Fan:
    """The fan of merged Weyl cones attached to a subset J of the basis.

    Raises DegenerateJ when J contains a connected component of the basis
    diagram, and NotEssential when the root system does not span its
    ambient space.
    """
    if not datum.essential:
        raise NotEssential("root system does not span the ambient space")
    J = validate_J(datum, J)

    n = datum.rank
    cartan = datum.cartan
    forms = _root_forms(datum)
    perms = datum.root_permutations
    Item = tuple[Cone, CoreInfo, tuple[int, ...]]  # a cone, its core and its sign row

    products: dict[tuple[int, tuple[int, ...]], WeylElement] = {}  # (k, u.word) -> s_k.u

    def make(x: Item, k: int, row: tuple[int, ...]) -> Item:
        """The image of x under s_k, the core's u becoming s_k.u, formed once
        per build for all the orbits that meet it."""
        cone, info, _ = x
        weyl = products.get((k, info.weyl.word))
        if weyl is None:
            weyl = products[k, info.weyl.word] = info.weyl.left_mul(datum.simple_reflections[k])
        image = _reflected_cone(cartan, cone, k)
        core = image if info.cone is cone else _reflected_cone(cartan, info.cone, k)
        return image, replace(info, weyl=weyl, cone=core), row

    found: dict[tuple[int, ...], Item] = {}  # sign row -> item
    seeds = []  # the standard cones, one per orbit
    for I in _admissible_index_sets(datum, J):
        eqs, ins, T = standard_cone_system(datum, J, I)
        base = Cone.from_system(n, eqs, ins)
        row = _sign_row(forms, base, f"the standard cone of {sorted(I)}", {})
        if row in found:
            continue  # an orbit walked already
        seeds.append(base.key)
        core = base if T == I else _facet_cone(datum, T)
        info = CoreInfo(T, I, WeylElement.identity(n), core)
        found.update(
            walk_orbits({row: (base, info, row)}, n, lambda x, k: _permuted(x[2], perms[k]), make)
        )

    ordered = sorted(found.values(), key=lambda x: (x[0].dim, x[0].key))
    cones = [x[0] for x in ordered]
    cores = {i: x[1] for i, x in enumerate(ordered)}
    fan = Fan(datum, J, cones, cores, [x[2] for x in ordered])
    _check_cover(fan, [fan._index[key] for key in seeds])
    return fan


def weyl_fan(datum: RootDatum) -> Fan:
    """The fan of facets of the root hyperplane arrangement."""
    return parabolic_fan(datum, ())


def cone_of_parabolic(
    fan: Fan, q_type: Iterable[int], w: WeylElement
) -> int:
    """Index of the open cone attached to the Weyl translate w of the
    standard parabolic type, which must be the fan's defining subset: the
    image under w of the cone of the regular dominant point, C.x = (1, ..., 1)."""
    datum = fan.datum
    q, bad = basis_subset(datum, q_type)
    if bad or frozenset(q) != fan.J:
        raise TypeMismatch(f"type {listed(q)} is not the standard type {sorted(fan.J)}")
    regular = la.solve(la.mat(datum.cartan), (1,) * datum.rank)
    return fan.transform_index(w, fan.cone_containing(regular))
