"""Fans of relatively open cones: the Weyl fan and its merged variants.

A fan here is a finite partition of the ambient space into relatively open
polyhedral cones containing the origin cone, whose boundaries are unions of
fan cones with the closure compatibility condition on faces.

`parabolic_fan(datum, J)` builds the fan whose open cones merge all Weyl
chambers across the walls of the reflection subgroup generated by J.  The
standard cone of index subset I merges the Weyl facets of type between I
and I u (J n I-perp) under that reflection subgroup; its core is the Weyl
facet of type I u (J n I-perp).  For J empty this is exactly the Weyl fan.

*Orbit walk.*  `parabolic_fan` walks each standard cone's orbit breadth
first under s_1..s_n, keyed by sign rows (see *Sign table*), adds a cone
at its first lookup in the orbit and keeps every lookup as the moves
table (see *Sign transport*).  So a breadth-first replay of the table
from each standard cone (`_orbit_walks`) meets the cones in the build's
order, each from the same cone by the same letter k, and the reduced
word of the Weyl element u mapping the standard cone there is k and then
the word of that cone, as s_k.u has the word k, u.  s_k is unimodular and
moves one coroot coordinate, so rays stay primitive.  The stabiliser of
the standard cone of I is W_T, T = I u (J n I-perp), so each cone has
one minimal-length u, of length its depth in the walk.
`weyl_enumerate` walks the orbit of the regular rho^vee breadth first
under s_1..s_n too, and gives s_k.w the word k, w, as w.rho^vee
determines w and s_k.(w.rho^vee) = (s_k w).rho^vee.  A prefix v = s_k.u
of a minimal u is minimal, and s_k maps the cone of a minimal v one
level up to that of u only if s_k.v, in u W_T and no longer than u, is
u; so both walks reach each minimal u from the same v through the same
s_k, and by induction meet the minimal u in the same order and give each
the same word (Humphreys, *Reflection Groups and Coxeter Groups*, 1.10).
A word moves cones along the moves table (see *Sign transport*):
s_k1...s_km maps cone i to moves[k1][...moves[km][i]], with no matrix.
A standard cone whose type T is I itself is its own core (the face of
the dominant chamber of type I), as is then every cone of its orbit, so
the walk reflects one cone for both; for J empty that is every cone.
Each standard cone seeds an orbit of its own: W maps cores onto cores,
the core of the standard cone of I is the face of the dominant chamber
of type T, and each W-orbit meets the closed dominant chamber once
(Humphreys 1.12), so one orbit has one T, which determines I as the
union of its components meeting the complement of J.  The admissible I
and their T come from bitsets of the basis (`_admissible_index_sets`,
which gives the argument).

*Tables.*  A fan is held as integer tables.  A build numbers the distinct
rays and forms it meets (`_points`, `_forms`) and keeps per cone the ids
of its rays (`_rays`) and of its core's (`_core_rays`, the cone's own
tuple when T = I), its codimension (`_codims`, its orbit's), its sign
row, per s_k the moves table (see *Orbit walk*), and per standard cone
the ids of its raw root forms (`_cone_forms`; a cone that holds them is
checked by arithmetic, see *Validation*), the Cartan rows in I as
equalities and its facet roots as facet forms (see *Standard cones*),
and, for T not I, those of its core (`_core_forms`).  The walk
moves ray ids through per-s_k dictionaries that reflect an id on its
first lookup (`_id_reflections`), so each distinct ray is reflected once
per s_k and build.  The rays are then ranked by vector and renumbered, so
a sorted tuple of ray ids lists its rays in vector order, and the cone
order, by dimension (its orbit's) and then rays, compares ids; the fan
keeps the renumbered dictionaries (`Fan._ray_images`).
`Fan.cones` and `Fan.cores` are views made on first read, which writes
each standard cone's canonical form and its core's from the raw forms
and rays (`cones._canonical_cone`) and transports them to the other
cones: a replay of each orbit from its standard cone (`_orbit_walks`),
meeting each cone from the cone the build met it from by the same s_k,
carries the canonical form ids and the empty word, s_k moving each id
through per-call `_id_reflections` and putting k in front of the word
(`_carried`).  So each `Cone` (`Fan._cone`, every field sorted by vector)
is its standard cone's image, and a core with T = I is its cone.  No step
of `parabolic_fan`, `face_order` or `validate` makes the views or writes
a standard cone's canonical form.  A hand-made `Fan(...)` keeps the cones
and cores it is given, holds every cone's form ids and, as codimension,
its number of equalities, and numbers its vectors by rank too; a core
with a lineality stores each lineality vector as ~id, so it equals no ray
ids.

*Standard cones.*  `_standard_cone` writes down C_I = {x : alpha_I(x) = 0,
beta(x) > 0 for beta in Phi+ - Phi_T} with no double description; for T =
I it is F_I, the face of type I of the dominant chamber, and each core is
such a face.  Let K = T - I = J n I-perp.  W_K fixes the alpha_I (K is
orthogonal to I) and permutes Phi+ - Phi_T, which holds the facet roots,
the W_K-orbits of the alpha_j, j not in T (s_k, k in K, keeps the
coefficient of alpha_j).  Sort an x with alpha_I(x) = 0 and the facet
roots >= 0 into the closed dominant chamber of K, y = w^-1.x, w in W_K
(Chevalley's lemma; Humphreys 1.12): alpha_I(y) = 0, alpha_k(y) >= 0 for
k in K and alpha_j(y) = (w.alpha_j)(x) >= 0 for j not in T, so y lies in
cl(F_I), where every positive root is >= 0, and so is beta(x) =
(w^-1.beta)(y) for beta in Phi+ - Phi_T; with the facet roots > 0 at x,
each such beta, positive off T, is > 0 at y and at x.  So the alpha_I and
the facet roots cut out C_I, and cl(C_I) = W_K.cl(F_I) is spanned by the
W_K-orbits of the fundamental coweights omega_j, j not in I (x is the sum
of alpha_j(x) omega_j): the generators, walked from the primitive columns
of the adjugate d C^-1 (d = det C > 0, `RootDatum.cartan_adjugate`),
by `reflect_simple`, as the roots by `_reflected_form`, with no memo.  s_k
moves coordinate k only, so each keeps the coordinates off K of its
omega_j, >= 0 and not all 0 (C^-1 is positive on each component, and K
holds none), and their sum is positive on it: cl(C_I) is pointed, and its
extreme rays are the generators whose zero sets (of facet roots) are
maximal (`cones._maximal`).  The smallest face F holding a generator g,
where the roots of its zero set vanish, is spanned by the generators in
it.  If g is not extreme, F holds an extreme ray r, whose zero set holds
that of g and more, as the smallest face holding r is its ray; if g is
extreme, a generator whose zero set holds that of g lies in F, its ray,
so is g.  For K empty the generators are independent, all extreme, and
each alpha_j, j not in I, is a facet root with no pick: its zero set is
every omega_i but omega_j, and no two such sets nest.  The build holds
the cone by these rays, the alpha_I (rows of C) and the facet roots
whose zero sets of rays are maximal, its facet forms
(`cones._facet_forms`, which rejects an empty cone), and
`cones._canonical_cone` writes its canonical form from them on first read
(see *Tables*).

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
(`gaussnorm.theta_boundary`).  One matcher ORs, per root and sign at a
point, the bitset of the cones that sign excludes (`Fan._excluding`).
It is built on the first `cone_containing` miss (or profile match);
neither `parabolic_fan` nor `Fan.validate` needs it (see *Orbit
reduction*).  Each such bitset is read off the root's column of the
table: one byte per cone (-1 as 3), cone 0 last, which one
`bytes.translate` turns into the binary digits 1 where the cone's sign
excludes the point's and 0 elsewhere, and one `int(digits, 2)` into an
integer.  CPython converts
a power-of-two base in time linear in the digits, and such bases are
exempt from its limit on the digits of a str-to-int conversion, so the
build is linear in the cone count, where ORing `1 << i` per cone would
copy a growing integer each time.  `cone_containing` matches a sign
vector the first time it meets it, requires exactly one hit, and records
sign vector -> cone (`Fan._record`, which the cover check shares), so a
sign vector met before costs one dictionary lookup after |positive
roots| dot products.

*Sign transport.*  s_k maps alpha_k to -alpha_k and permutes the other
positive roots, so it sends each positive nondivisible root P_j to
e P_p(j) with e = -1 only at alpha_k (`RootDatum.root_permutations`).
Since <P_j, s_k.x> = <s_k.P_j, x>, the sign of P_j on s_k.X is e times
the sign of P_p(j) on X, and a mixed sign stays mixed; call this map of
rows pi_k (`_sign_permutations`).  The two checks carry over too: s_k
maps the roots in Z of X onto, up to sign, the roots in Z of s_k.X,
keeping their rank, and a facet form of s_k.X is f.s_k for a facet form
f of X, so if f is c P on the span of X, f.s_k is c e P_p on the span
of s_k.X, with the same sign class.  So `parabolic_fan` builds a row
directly, with both checks, only for each orbit's standard cone,
permutes it along the walk, and keys the walk by the rows: by the
paragraph above, equal rows mean equal cones, and the rows it ends with
are distinct and closed under every pi_k.  A `Fan(...)` made by hand
builds every row directly.  Let X be the cone of row r.  A point y lies
in s_k.X when s_k.y lies in X, that is when pi_k of the sign vector of y
agrees with r, that is when the sign vector of y agrees with pi_k(r), as
pi_k is a signed permutation and an involution.
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
holding a point p are those whose rows agree with its sign vector, so by
the paragraph above the cones holding s_k.p are the images under s_k of
those holding p, as many of them.  Every Weyl facet point is a word in
the s_k applied to a dominant one, and every point has the sign vector
of some Weyl facet, so the partition axiom holds as soon as each of the
2^n dominant facet points lies in exactly one cone: the primitive
multiples p_S of the sums over S of the columns of the adjugate d C^-1
(see *Standard cones*).  Their sign vectors need no dot product.  The
column j is d omega_j, and <beta, omega_j> is the coefficient c_j of
alpha_j in beta = sum c_j alpha_j, so <beta, p_S> is a positive multiple
of the sum of the c_j over S.  A positive root has every c_j >= 0
(Humphreys 1.3), so its sign at p_S is 1 when its support meets S and 0
otherwise (`_dominant_signs`).  Such a sign vector has no -1, so a cone
whose row has -1 at some root cannot hold p_S, and the hits among the
other rows, mixed entries included, are all the hits.  Likewise s_k maps
the facets of the closure of cone i onto those of the closure of its
image, and the closure of a fan cone onto the closure of a fan cone, so
the boundary axiom holds for every cone of an orbit when it holds for
one.  The cover check (`_check_cover`) therefore matches only the
dominant sign vectors against the rows with no -1, which records those
sign vectors only; the facets are checked at the cones that hold their
forms (`_check_cones`; see *Validation*), a built fan's standard cones.

*Ray bitsets.*  A cone is the set of its ray ids (see *Tables*).  The
cones of `parabolic_fan` are pointed (see *Standard cones*), and for
pointed cones (f, g) is a face pair exactly when the rays of f are rays
of g.  If so, the closure of f lies in that of g.  Conversely, let the
closure of f lie in the closure of g and let r be a ray of f.  By the
boundary axiom, applied facet by facet, every face of a closure is the
closure of a fan cone, so r spans a fan cone.  By the partition and
boundary axioms, the closure of g is the disjoint union of the fan cones
that are its faces, and the open ray through r is one of them, so r is a
ray of g.  `parabolic_fan` and `Fan.validate` check both axioms before
the order is read.

*Validation.*  `Fan.validate` checks each axiom once, from integer data,
the tables and the sign table as the fan holds them, by one rule: a cone
that holds its forms (`_cone_forms`: a build's standard cones, every cone
of a hand-made `Fan(...)`) is checked by arithmetic, and a cone that holds
none by transport; cores are found at the first cone of each orbit and
transported to the others.  A built fan's raw root forms give every check the data
of the canonical ones: the alpha_I are as many and span the same rows (C
is nonsingular), and on the span each facet root is a positive multiple of
its facet's reduced form, with its zero set and signs at the rays; the
checks read only these and the space the equalities cut out
(`_fixed_core`).  A build runs the cover check and the per-cone pass
below on the immutable tables it gives the fan, which keeps their result
(`Fan._facets`) and the walk's ray memo (`Fan._ray_images`) for
`validate`: the same checks, once per fan.  A hand-made `Fan(...)` runs
them on first read, and builds every row directly, with both exactness
checks; a built one keeps its walk's rows, one built directly per
standard cone and the others transported, which pass both checks by
*Sign transport*.
The moves table checks that the rows are distinct and closed under each
pi_k.  A build's walk closes each orbit's rows under each pi_k, and each
lookup names the cone of the orbit with the row pi_k(row); with the rows
of all orbits distinct, that is the one fan cone with that row, so the
build keeps its lookups as the table.  Otherwise it leaves the table to be
made from the rows (`Fan._moves`), which raises, as `Fan.cones` and
`Fan.cores` then do.  `validate` replays each orbit once (`_orbit_walks`)
from the first of its cones that hold their forms; each other cone Y is
met by some s_k from Z = `moves[k][Y]` (s_k is an involution).  Partition:
the cover check (see *Orbit reduction*).  Boundary and faces at a cone g
that holds its forms, by arithmetic on their values at its rays
(`_check_cones`, then `_check_faces`): every closure must hold its own
rays, so the equalities vanish there and the facet forms are >= 0.  The
rays of g on a facet must be those of a fan cone of dimension dim g - 1
(`_codims`): if g lacks an extreme ray, a facet holding it keeps the rays
of a lower face (B3 {a2}: a merged cone of dimension 3 without one of its
4 rays keeps its sign row and passes the face check).  A face of a pointed
cone is the zero set of its tight facet forms, so with each facet of g
kept as the bitset of the rays of g on which its form vanishes, (f, g) is
a face pair exactly when the AND of the facets of g that hold the rays of
f (all of g if none do) is the rays of f: the supporting-form criterion
with alpha the sum of the tight facet forms, which implies cl(f) = span(f)
meet cl(g).  Boundary and faces at a cone Y that holds none, by transport:
its forms are those of Z moved by s_k (see *Tables*), and its ray ids must
be too, or those forms cut out s_k.Z and not Y.  Then Y is s_k.Z and
<f.s_k, s_k.x> = <f, x>, so the incidence table of Y is that of Z and, by
induction, of a cone that holds its forms.  s_k maps fan cones onto fan
cones (*Orbit reduction*), each with the rays of its closure, so the facet
and face pair checks hold at Y exactly when they hold at Z.  Weyl
invariance and cores: a complete moves table is Weyl invariance, since the
s_k generate W.  The core of a cone X is the set of its points that its
setwise stabiliser Stab(X) fixes.  Let X be a fan cone and p the sum of
its rays; then Stab(X) is W_p, the stabiliser of p.  A g in Stab(X)
permutes the primitive rays of X, as W acts unimodularly on coroot
coordinates, so it fixes p.  A g in W_p maps X to a fan cone (Weyl
invariance) through p, which is X (partition).  W_p is generated by the
reflections it contains, those in the roots vanishing at p (Chevalley's
lemma; Humphreys 1.12), so its fixed points are the zero set of those
roots.  The sign row of X names them: a root of sign 0 vanishes on the
span of X already and one of sign + or - is nonzero at p, so only the
mixed roots that vanish at p cut X down.  If there is none, the core is X;
otherwise the extreme rays of one `dual_description` of the equalities of
X, those root forms and the facet forms of X give it (`_fixed_core`), as
the check compares rays only.  Stab(s_k.X) is s_k
Stab(X) s_k, so s_k maps the core of X onto the core of s_k.X.  So the
core check (`_check_orbits`) compares `_core_rays` at the first cone X of
each walk with the ray ids of `_fixed_core` (pointed, as it lies in the
closure of X), or of X when that is None, and at each other cone Y, held
or not, with those of the core of Z moved by s_k, by the ray memo, which
a build's walk filled with every move of the replay.  `validate` makes
no `Cone`; for J empty no cone has a mixed root, each core is its cone,
and it runs no double description."""

from __future__ import annotations

from functools import cached_property
from itertools import islice
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

from . import linalg as la
from ._value import Value
from .cones import Cone, _canonical_cone, _facet_forms, _maximal, dual_description
from .errors import (
    DegenerateJ,
    DimensionMismatch,
    NotEssential,
    PartitionFailure,
    TypeMismatch,
)
from .linalg import Vec
from .rootdata import (
    Root, RootDatum, WeylElement, basis_subset, bit_indices, diagram_neighbours, listed,
    orthogonal_bits, point_orbits, reached, reflect_simple, walk_orbits,
)


class CoreInfo(Value):
    """Core of a fan cone: a Weyl facet with its standard type and position."""

    type_indices: frozenset[int]  # I u (J n I-perp) for the standard cone
    generator_indices: frozenset[int]  # the subset I generating the cone
    word: tuple[int, ...]  # reduced word of the translate mapping the standard cone here
    cone: Cone  # the core as a relatively open cone


class Fan:
    """An immutable fan with cores, built from a root datum and a subset J,
    and held as integer tables (see *Tables* in the module docstring)."""

    _lineal: Sequence[int] = ()  # the cones whose closures hold a line

    def __init__(
        self, datum: RootDatum, J: frozenset[int], cones: Sequence[Cone], cores: dict[int, CoreInfo]
    ):
        """A fan made by hand: it keeps `cones` and `cores` as its views
        and fills its tables from them, every cone's forms included."""
        self.cones = cones = tuple(cones)
        self.cores = cores
        given = [cores[i].cone if i in cores else None for i in range(len(cones))]
        vectors = {v for c in cones + tuple(filter(None, given)) for v in c.rays + c.lineality}
        points, forms = _Numbering(sorted(vectors)), _Numbering()
        held = {i: _ids_of_forms(forms, c) for i, c in enumerate(cones)}
        rays = [tuple(map(points.__getitem__, c.rays)) for c in cones]
        given = [None if c is None else _core_ids(points, c) for c in given]
        codims = [len(eqs) for eqs, _ in held.values()]
        self._adopt(datum, J, points.vectors, forms.vectors, held, rays, given, codims)
        self._lineal = [i for i, c in enumerate(cones) if c.lineality]

    def _adopt(self, datum, J, points, forms, cone_forms, rays, core_rays, codims) -> None:
        self.datum = datum
        self.J = J
        self._points, self._forms = points, forms  # vectors by id
        self._cone_forms = cone_forms  # cone -> ids of its equalities and facet forms, where held
        self._rays = rays  # per cone, its ray ids
        self._core_rays = core_rays  # per cone, its core's ray ids; None if it has none
        self._codims = codims  # per cone, its codimension: the number of its equalities
        self._by_sign: dict[tuple[int, ...], int] = {}  # sign vector -> cone

    def __len__(self) -> int:
        return len(self._rays)

    def read_index(self, i) -> int:
        """i, a cone index; raises TypeMismatch unless it is an int (a bool
        is not), and DimensionMismatch unless it is in range(len(self))."""
        if type(i) is not int:
            raise TypeMismatch(f"cone index {i!r} is not an int")
        if not 0 <= i < len(self):
            raise DimensionMismatch(f"cone index {i} is not in range({len(self)})")
        return i

    @cached_property
    def cones(self) -> tuple[Cone, ...]:
        """Each cone as a `Cone`, made on first read from its ray ids and the
        form ids of `_carried`: its standard cone's canonical form, written
        then, moved along the walk."""
        return tuple(map(self._cone, self._carried[2], self._rays))

    @cached_property
    def cores(self) -> dict[int, CoreInfo]:
        """Each cone's core, made on first read: its cone when T = I, else
        made from its ray ids and the form ids of `_carried`, with the word
        of `_carried`."""
        cones, rays = self.cones, self._core_rays
        walks, words, forms = self._carried
        out = [None] * len(self)
        for (I, T), (walk, _) in zip(self._standard, walks):
            for i in walk:
                core = cones[i] if T == I else self._cone(forms[i][2:], rays[i])
                out[i] = CoreInfo(T, I, words[i], core)
        return dict(enumerate(out))

    @cached_property
    def _carried(self) -> tuple[list, list, list]:
        """The walks of `_orbit_walks` from the standard cones and, per cone,
        its word and the ids of its canonical forms and, for T not I, of its
        core's: `_canonical_cone` of each standard cone's held root forms,
        carried from there (see *Tables* in the module docstring)."""
        moves, forms = self._moves, _Numbering(self._forms)
        images = [m.__getitem__ for m in _id_reflections(self.datum.cartan, forms, _reflected_form)]
        n, points, vectors = self.datum.rank, self._points, forms.vectors

        def canonical(ids: Sequence[Sequence[int]], rays: Sequence[int]) -> tuple:
            eqs, ins = ([vectors[f] for f in fs] for fs in ids)
            return _ids_of_forms(forms, _canonical_cone(n, eqs, ins, (), [points[r] for r in rays]))

        walks = _orbit_walks(moves, self._cone_forms)
        words, out = [()] * len(self), [None] * len(self)
        for cones, letters in walks:
            first = cones[0]
            out[first] = canonical(self._cone_forms[first], self._rays[first])
            if first in self._core_forms:
                out[first] += canonical(self._core_forms[first], self._core_rays[first])
            for i, k in islice(zip(cones, letters), 1, None):  # met by s_k from moves[k][i]
                j, reflect = moves[k][i], images[k]
                words[i] = (k,) + words[j]
                out[i] = tuple([tuple(map(reflect, ids)) for ids in out[j]])
        self._forms = forms.vectors
        return walks, words, out

    def _ray_sum(self, i: int) -> Vec:
        """The sum of the rays of cone i, as `Cone.relint_point` gives it,
        from the tables: `_moves` needs it, and a built fan's views need
        `_moves`."""
        rays = map(self._points.__getitem__, self._rays[i])
        return tuple(map(sum, zip(*rays))) or la.zero_vec(self.datum.rank)

    def _cone(self, forms: Sequence[Sequence[int]], rays: Sequence[int]) -> Cone:
        """The pointed `Cone` of the ids of its equalities and facet forms
        and its sorted ray ids, every field sorted by vector."""
        form = self._forms.__getitem__
        eqs, ins = tuple(sorted(map(form, forms[0]))), tuple(sorted(map(form, forms[1])))
        return Cone(self.datum.rank, eqs, ins, (), tuple(map(self._points.__getitem__, rays)))

    @cached_property
    def origin_index(self) -> int:
        if self.datum.rank in self._codims:
            return self._codims.index(self.datum.rank)
        raise PartitionFailure("fan has no origin cone")

    @cached_property
    def _ray_ids(self) -> _Numbering:
        """The id of each ray vector, a new vector numbered past the fan's."""
        return _Numbering(self._points)

    @cached_property
    def _ray_images(self) -> list[_Images]:
        """`_id_reflections` of the ray ids; a build fills it with its walk's."""
        return _id_reflections(self.datum.cartan, self._ray_ids, reflect_simple)

    @cached_property
    def _facets(self) -> dict[int, tuple[int, list[int]]]:
        """`_check_cover`, then `_check_cones`, whose result this is: run by
        the build, or on first read."""
        _check_cover(self)
        return _check_cones(self)

    @cached_property
    def _pointed(self) -> dict[tuple[int, ...], int]:
        """The ray ids of every cone, each pointed, -> its codimension:
        `validate` raises on a cone whose closure holds a line before it
        reads them."""
        return dict(zip(self._rays, self._codims))

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

    def root_signs(self, i: int, roots: Iterable[Root]) -> list[int]:
        """The sign of each of `roots` on cone i, as `Cone.sign_of` gives it (0,
        1, -1, or 2 if mixed), from one read of its row; raises as `read_index`."""
        row = self._sign_table[self.read_index(i)]
        signs = ((row[k], e) for k, e in map(self.datum.root_slots.__getitem__, roots))
        return [s if s == 2 else e * s for s, e in signs]

    def root_sign(self, i: int, a: Root) -> int:
        """Sign of root a on cone i, as `root_signs` gives it."""
        return self.root_signs(i, (a,))[0]

    @cached_property
    def _excluding(self) -> tuple[tuple[int, int, int], ...]:
        """For root k and a sign s of it at a point, `_excluding[k][s]` is the
        set (a bitset over cone indices) of the cones on which root k has
        another sign, so cannot hold the point; a mixed sign excludes
        nothing.  The tuples are ordered (0, 1, -1) to be indexed by s, and
        read off byte columns (see *Sign table* in the module docstring)."""
        rows = self._sign_table
        if not rows:
            return ((0, 0, 0),) * len(self._root_forms)
        columns = (bytes(map((3).__and__, column))[::-1] for column in zip(*rows))
        return tuple(tuple(int(column.translate(t), 2) for t in _EXCLUDES) for column in columns)

    def matching_cones(self, signs: Iterable[tuple[int, int]]) -> int:
        """The bitset over cone indices of the cones on which, for every pair
        (k, s), root k of `_root_forms` has sign s or a mixed sign."""
        excluding = self._excluding
        misses = 0
        for k, s in signs:
            misses |= excluding[k][s]
        return ~misses & ((1 << len(self)) - 1)

    def _record(self, signs: tuple[int, ...], hits: int, point: Callable[[], Vec]) -> int:
        """The one cone in `hits`, the bitset of the cones whose rows agree
        with the sign vector `signs` of a point; records it under `signs`.
        Raises PartitionFailure, naming the point that `point()` gives,
        unless there is exactly one."""
        if hits.bit_count() != 1:
            raise PartitionFailure(
                f"point {point()} lies in {hits.bit_count()} cones; fan is not a partition"
            )
        self._by_sign[signs] = hit = hits.bit_length() - 1
        return hit

    def cone_containing(self, v: Vec) -> int:
        """Index of the one cone containing v.  Raises DimensionMismatch when
        v has the wrong length, PartitionFailure unless exactly one cone
        contains v."""
        signs = self._signs(la.primitive(self.datum.point(v)))
        hit = self._by_sign.get(signs)
        if hit is None:
            hit = self._record(signs, self.matching_cones(enumerate(signs)), lambda: v)
        return hit

    @cached_property
    def _moves(self) -> tuple[tuple[int, ...], ...]:
        """Per simple reflection s_k, the index of every cone's image under
        s_k: the cone whose sign row is the permuted row (see *Sign
        transport* in the module docstring).  Raises PartitionFailure
        unless the rows are distinct and closed under the permutations.
        `parabolic_fan` keeps its walk's lookups instead (see *Validation*)."""
        rows = self._sign_table
        index = {row: i for i, row in enumerate(rows)}
        for i, row in enumerate(rows):
            if index[row] != i:  # another cone has this row
                self.cone_containing(self._ray_sum(i))  # raises
        permutations = _sign_permutations(self.datum)
        moves = tuple(tuple(map(index.get, map(pi, rows))) for pi in permutations)
        for k, move in enumerate(moves):
            if None in move:  # s_k of that cone is no fan cone
                x = self._ray_sum(move.index(None))
                self.cone_containing(reflect_simple(self.datum.cartan, x, k))
                raise PartitionFailure("fan is not Weyl invariant")
        return moves

    # -- face order ----------------------------------------------------------

    @cached_property
    def face_order(self) -> tuple[tuple[int, int], ...]:
        """All pairs (f, g) with f a face of g, as the facade closure order:
        the rays of f are rays of g (see the module docstring)."""
        cones_with = [0] * len(self._points)  # per ray, a bitset of the cones having it
        for g, rays in enumerate(self._rays):
            for k in rays:
                cones_with[k] |= 1 << g
        pairs = []
        every = (1 << len(self)) - 1
        for f, rays in enumerate(self._rays):
            above = every
            for k in rays:
                above &= cones_with[k]
            while above:
                low = above & -above
                pairs.append((f, low.bit_length() - 1))
                above ^= low
        return tuple(pairs)

    # -- W action ----------------------------------------------------------

    def transform_index(self, w: WeylElement, i: int) -> int:
        """Index of the image of cone i under a Weyl element, by the moves
        of its word (see *Orbit walk* in the module docstring).  Raises as
        `read_index` does for i, DimensionMismatch when the word has a
        letter past the rank, and TypeMismatch when w is an element of a
        datum with another Cartan matrix."""
        i = self.read_index(i)
        datum = self.datum
        if not set(w.word) <= set(range(datum.rank)):
            raise DimensionMismatch(f"word {w.word} has a letter past rank {datum.rank}")
        if w.datum.cartan != datum.cartan:
            raise TypeMismatch(f"Weyl element of word {w.word} is not an element of {datum.name}")
        for k in reversed(w.word):
            i = self._moves[k][i]
        return i

    # -- validation ----------------------------------------------------------

    def validate(self) -> dict:
        """Verify the fan axioms exactly; returns a few summary counts.

        Checks strict convexity of closures, the origin cone, the partition
        axiom, Weyl invariance, the boundary axiom and the face condition,
        by arithmetic at each cone that holds its forms and by transport at
        the others, and the cores as stabiliser fixed loci, found at the
        first cone of each orbit and transported to the others; a built fan
        keeps its build's cover check, per-cone pass and ray memo (see
        *Validation* in the module docstring)."""
        if self._lineal:
            raise PartitionFailure(f"cone closure contains a line: {self.cones[self._lineal[0]]}")
        _ = self.origin_index  # the zero cone belongs to the fan
        walks = _orbit_walks(self._moves, self._cone_forms)
        _check_faces(self, self._facets)
        _check_orbits(self, walks)
        return {
            "cones": len(self),
            "face_pairs": len(self.face_order),
            "weyl_order": self.datum.weyl_order,
        }


class _Numbering(dict):
    """Distinct vectors numbered from 0, first those given, in order, then
    each new one on its first lookup: `self[v]` is the id of v and
    `vectors[i]` the vector of id i."""

    __slots__ = ("vectors",)

    def __init__(self, vectors: Sequence[Vec] = ()):
        super().__init__(zip(vectors, range(len(vectors))))
        self.vectors = list(vectors)

    def __missing__(self, v: Vec) -> int:
        self[v] = i = len(self.vectors)
        self.vectors.append(v)
        return i


def _ids_of_forms(forms: _Numbering, cone: Cone) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The ids of the equalities and of the facet forms of a cone, sorted."""
    ids = forms.__getitem__
    return tuple(sorted(map(ids, cone.eqs))), tuple(sorted(map(ids, cone.ins)))


def _core_ids(points: _Numbering, core: Cone) -> tuple[int, ...]:
    """The ids of the rays of a given core, then ~id for each vector of its
    lineality basis, so that a core with a lineality equals no ray ids."""
    return tuple(map(points.__getitem__, core.rays)) + tuple(~points[v] for v in core.lineality)


def _root_forms(datum: RootDatum) -> tuple[Vec, ...]:
    """Covectors of the positive nondivisible roots."""
    return tuple(datum.covector(a) for a in datum.positive_nondivisible_roots)


def _sign_row(forms: Sequence[Vec], c: Cone, label: str, at: dict) -> tuple[int, ...]:
    """The direct build of a `_sign_table` row: the sign of each root form on
    the cone c, after the two exactness checks (see the module docstring),
    which name the cone by `label`.  `at` caches the forms' values at each
    generator across calls."""
    span = c.rays + c.lineality
    for g in span:
        if g not in at:
            at[g] = tuple(la.dot(f, g) for f in forms)
    # per form, its values at the rays and then at the lineality basis
    columns = zip(*map(at.__getitem__, span)) if span else [()] * len(forms)
    on_rays = len(c.rays)
    row, zero, signed = [], [], set()
    for form, vals in zip(forms, columns):
        if not any(vals):
            row.append(0)
            zero.append(form)
        elif c.lineality and any(vals[on_rays:]):
            row.append(2)  # mixed: nonzero on the lineality
        elif min(vals) >= 0:
            row.append(1)
            signed.add(la.primitive(vals))
        elif max(vals) <= 0:
            row.append(-1)
            signed.add(la.primitive(la.neg(vals)))
        else:
            row.append(2)  # mixed sign on the rays
    if la.rank(zero) != len(c.eqs):
        raise PartitionFailure(f"roots vanishing on {label} do not cut out its span")
    for form in c.ins:
        if la.primitive(tuple(la.dot(form, g) for g in span)) not in signed:
            raise PartitionFailure(f"facet form {form} of {label} is not a root form")
    return tuple(row)


# a sign (0, 1, 2 for mixed, -1) -> its negation, mixed staying mixed
_NEGATED = (0, -1, 2, 1)

# per sign s of a root at a point, in the order (0, 1, -1): a `bytes.translate`
# table taking a cone's sign byte (0, 1, 2 for mixed, 3 for -1) to the digit 1
# when it excludes s, and to 0 when it is s or mixed
_EXCLUDES = tuple(bytes(b"01"[b not in (s & 3, 2)] for b in range(256)) for s in (0, 1, -1))


def _zeros_and_ones(row: tuple[int, ...]) -> tuple[int, int]:
    """For a sign row with no -1, the bitsets over the roots (root 0 the
    lowest bit) of its entries 0 and of its entries 1: on such bytes the
    `_EXCLUDES` tables of a point's signs 1 and 0 mark exactly those."""
    digits = bytes(row)[::-1]
    return int(digits.translate(_EXCLUDES[1]), 2), int(digits.translate(_EXCLUDES[0]), 2)


def _sign_permutations(datum: RootDatum) -> list[Callable[[tuple], tuple]]:
    """Per s_k, the map pi_k of sign rows: the signs of the root forms on
    s_k.X from their signs on X, by the signed permutation (p, m) of s_k
    (`RootDatum.root_permutations`).  Root j has at s_k.x the sign of root
    p[j] at x, negated for j = m, since <P_j, s_k.x> = <s_k.P_j, x>; mixed
    (2) stays 2.  Each map is one `itemgetter` call on the row extended by
    the negated sign of root p[m], which position m takes."""
    maps = []
    for p, m in datum.root_permutations:
        if len(p) == 1:  # A1, BC1: an itemgetter of one index returns no tuple
            maps.append(lambda row, j=p[0]: (_NEGATED[row[j]],))
        else:
            get = itemgetter(*p[:m], len(p), *p[m + 1 :])
            maps.append(lambda row, get=get, j=p[m]: get(row + (_NEGATED[row[j]],)))
    return maps


def _orbit_walks(moves: Sequence[Sequence[int]], starts: Iterable[int]) -> list[tuple]:
    """The orbit of each cone of `starts` not in an earlier one's, walked
    once breadth first under s_1..s_n as `walk_orbits` walks: its cones in
    the order met, and per cone the letter k of the move s_k that met it
    (0 for the first cone).  Each move is an involution, so cone j was met
    from cone `moves[k][j]`."""
    seen = bytearray(len(moves[0]))
    walks, numbered = [], list(enumerate(moves))
    for first in starts:
        if seen[first]:
            continue
        seen[first] = 1
        cones, letters = [first], [0]
        for i in cones:  # grows while it is walked
            for k, move in numbered:
                j = move[i]
                if not seen[j]:
                    seen[j] = 1
                    cones.append(j)
                    letters.append(k)
        walks.append((cones, letters))
    return walks


def _check_cover(fan: Fan) -> None:
    """Partition axiom on a fan whose rows are distinct and closed under the
    sign permutations: every dominant facet point lies in exactly one cone,
    by sign vectors against the rows with no -1, each kept as the bitsets
    of its roots of sign 0 and 1 (see *Orbit reduction* in the module
    docstring).  A point is made only to name it in an error."""
    datum = fan.datum
    rows = fan._sign_table
    candidates = [(1 << i, *_zeros_and_ones(row)) for i, row in enumerate(rows) if -1 not in row]
    for S, signs in enumerate(_dominant_signs(datum)):
        zeros, ones = _zeros_and_ones(signs)
        hits = sum(bit for bit, z, o in candidates if not (z & ones or o & zeros))
        fan._record(signs, hits, lambda: _dominant_facet_points(datum)[S])


def _check_cones(fan: Fan) -> dict[int, tuple[int, list[int]]]:
    """Face and boundary conditions at each cone that holds its forms, by
    arithmetic on the value of each of its forms at each of its rays: its
    equalities vanish and its facet forms are >= 0 there, and the rays of
    each facet, those on which a facet form vanishes, are those of a fan
    cone of one dimension less (see *Validation* in the module docstring).
    Returns per cone its rays and the rays of each facet, as bitsets."""
    points, forms, pointed, codims = fan._points, fan._forms, fan._pointed, fan._codims
    facets = {}
    for g, (eqs, ins) in fan._cone_forms.items():
        rays = fan._rays[g]
        at = [points[r] for r in rays]
        if any(la.dot(forms[f], p) for f in eqs for p in at):
            raise PartitionFailure(f"face condition fails for cones {g} <= {g}")
        zeros = []
        for f in ins:
            facet = []
            for k, p in zip(rays, at):
                value = la.dot(forms[f], p)
                if value < 0:
                    raise PartitionFailure(f"face condition fails for cones {g} <= {g}")
                if not value:
                    facet.append(k)
            if pointed.get(tuple(sorted(facet))) != codims[g] + 1:
                raise PartitionFailure(f"facet of cone {g} is not the closure of a fan cone")
            zeros.append(sum(1 << k for k in facet))
        facets[g] = sum(1 << k for k in rays), zeros
    return facets


def _check_faces(fan: Fan, facets: dict[int, tuple[int, list[int]]]) -> None:
    """Face condition at the cones of `facets`, by ray incidence: every face
    pair (f, g) with g among them holds, given per g its rays and the rays
    of each facet as bitsets (`_check_cones`)."""
    for f, g in fan.face_order:
        if g in facets:
            rays = sum(1 << k for k in fan._rays[f])
            meet, zeros = facets[g]
            for zero in zeros:
                if zero & rays == rays:
                    meet &= zero
            if meet != rays:
                raise PartitionFailure(f"face condition fails for cones {f} <= {g}")


def _fixed_core(fan: Fan, i: int) -> Optional[list[Vec]]:
    """The extreme rays, sorted, of cone i cut down by the roots vanishing
    at the sum p of its rays: the fixed locus of its stabiliser W_p in it,
    by `dual_description`; None when no root of mixed sign on it vanishes
    at p, as the locus is then cone i itself (see *Validation* in the
    module docstring)."""
    p = fan._ray_sum(i)
    fixed = [
        f for f, sign in zip(fan._root_forms, fan._sign_table[i]) if sign == 2 and not la.dot(f, p)
    ]
    if not fixed:
        return None
    eqs, ins = ([fan._forms[f] for f in ids] for ids in fan._cone_forms[i])
    return dual_description(fan.datum.rank, eqs + fixed, ins)[1]


def _check_orbits(fan: Fan, walks: list) -> None:
    """Cores along the walks of `_orbit_walks`, and faces at the cones that
    hold no forms (see *Validation* in the module docstring): the first
    cone of each walk has the core `_fixed_core` finds, and each other cone
    is compared with the cone it was met from moved by s_k, its core ids
    and then, if it holds no forms, its ray ids."""
    rays, cores, held, moves = fan._rays, fan._core_rays, fan._cone_forms, fan._moves
    if None in cores:
        raise PartitionFailure(f"cone {cores.index(None)} has no core")
    images = fan._ray_images

    def moved(ids: Iterable[int], k: int) -> tuple[int, ...]:
        return tuple(sorted(map(images[k].__getitem__, ids)))

    for cones, letters in walks:
        first = cones[0]
        core = _fixed_core(fan, first)  # None: the core is the cone
        if core is not None:  # a pointed cone, in the closure of the first cone
            core = tuple(sorted(map(fan._ray_ids.__getitem__, core)))
        if (rays[first] if core is None else core) != cores[first]:
            raise PartitionFailure(f"core of cone {first} is not the stabiliser fixed locus")
        for i, k in islice(zip(cones, letters), 1, None):
            j = moves[k][i]  # met by s_k from cone j
            image = moved(rays[j], k)  # also its moved core if cone j is its own core
            if (image if cores[j] == rays[j] else moved(cores[j], k)) != cores[i]:
                raise PartitionFailure(f"core of cone {i} is not the stabiliser fixed locus")
            if i not in held and image != rays[i]:
                raise PartitionFailure(f"face condition fails for cones {i} <= {i}")


class _Images(dict):
    """The images of keys under one map, `image`, each computed on its
    first lookup and kept for the lifetime of the dict."""

    __slots__ = ("image",)

    def __init__(self, image: Callable):
        super().__init__()
        self.image = image

    def __missing__(self, v):
        self[v] = w = self.image(v)
        return w


def _reflected_form(cartan: la.Mat, f: Vec, k: int) -> Vec:
    """f.s_k = f - f[k] cartan[k], as `reflect_simple` gives s_k.p."""
    c = f[k]
    return tuple(a - c * b for a, b in zip(f, cartan[k])) if c else f


def _id_reflections(cartan: la.Mat, numbering: _Numbering, reflect: Callable) -> list[_Images]:
    """Per s_k, the id of `reflect(cartan, v, k)` (`reflect_simple`, or
    `_reflected_form` for forms) for the vector v of each id, computed on
    its first lookup and numbered by `numbering` if new."""
    vectors, letters = numbering.vectors, range(len(cartan))
    return [_Images(lambda i, k=k: numbering[reflect(cartan, vectors[i], k)]) for k in letters]


def weyl_facet_points(datum: RootDatum) -> list[Vec]:
    """One primitive integer relative interior point for every facet of the
    Weyl arrangement: the Weyl orbits of the primitive multiples of the sums
    of fundamental coweights."""
    return sorted(point_orbits(datum.cartan, _dominant_facet_points(datum)))


def _dominant_signs(datum: RootDatum) -> list[tuple[int, ...]]:
    """The sign vectors of the dominant facet points, in the order of
    `_dominant_facet_points`: at the point of S, 1 on the roots whose
    support meets S and 0 on the others (see *Orbit reduction* in the
    module docstring)."""
    roots = datum.positive_nondivisible_roots
    supports = [sum(1 << j for j, c in enumerate(a) if c) for a in roots]
    return [tuple(1 if s & S else 0 for s in supports) for S in range(1 << datum.rank)]


def _dominant_facet_points(datum: RootDatum) -> list[Vec]:
    """The primitive multiples of the sums of fundamental coweights, one
    per facet of the dominant chamber, from the columns of the adjugate of
    the Cartan matrix, positive multiples of the coweights."""
    n = datum.rank
    adjugate = datum.cartan_adjugate[0]  # coweights as its columns
    subsets = (tuple(bits >> j & 1 for j in range(n)) for bits in range(1 << n))
    return [la.primitive(la.mat_vec(adjugate, e)) for e in subsets]


def _admissible_index_sets(
    datum: RootDatum, J: frozenset[int]
) -> dict[frozenset[int], frozenset[int]]:
    """Subsets I of the basis none of whose components lie inside J: those
    that a walk inside I from I - J covers, over bitsets of the basis.  Each
    maps to its standard type T = I u (J n I-perp) (`orthogonal_bits`), and
    I -> T is a bijection onto the J-relevant types: K = J n I-perp is
    orthogonal to I, so T has the components of I, each meeting the
    complement of J, and those of K, inside J: I is the union of the
    components of T meeting the complement of J."""
    n = datum.rank
    near = diagram_neighbours(datum)
    on_J = sum(1 << j for j in J)
    out = {}
    for bits in range(1 << n):
        if reached(near, bits, bits & ~on_J) == bits:
            out[bit_indices(bits, n)] = bit_indices(bits | on_J & orthogonal_bits(near, bits), n)
    return out


def _standard_cone(cartan: la.Mat, coweights: Sequence[Vec], I: frozenset, T: frozenset) -> Cone:
    """The standard cone of I and core type T in closed form, from the
    primitive fundamental `coweights`, held by its root forms: the rows of
    the Cartan matrix in I as equalities and the facet roots whose zero
    sets are maximal as facet forms, neither reduced (see *Standard cones*
    in the module docstring); `_canonical_cone` writes its canonical form."""
    rays = [coweights[j] for j in range(len(cartan)) if j not in I]
    roots = [cartan[j] for j in range(len(cartan)) if j not in T]
    K = sorted(T - I)
    if K:  # otherwise each coweight is extreme and each root a facet root
        rays, roots = (  # their W_K-orbits, each walked as soon as it is made
            list(walk_orbits({v: v for v in vs}, len(K), lambda v, m: reflect(cartan, v, K[m])))
            for vs, reflect in ((rays, reflect_simple), (roots, _reflected_form))
        )
        zeros = [sum(1 << i for i, f in enumerate(roots) if not la.dot(f, g)) for g in rays]
        rays = _maximal(rays, zeros)
        roots = _facet_forms(roots, rays)
    eqs = tuple(cartan[i] for i in sorted(I))
    return Cone(len(cartan), eqs, tuple(roots), (), tuple(rays))


def validate_J(datum: RootDatum, J: Iterable[int]) -> frozenset[int]:
    """J as a frozenset; raises DegenerateJ unless J is a subset of the basis
    containing no connected component of the basis diagram."""
    entries, bad = basis_subset(datum, J)
    if bad:
        raise DegenerateJ(f"subset {listed(entries)} is not a subset of the basis")
    J = frozenset(entries)
    for comp in datum.diagram_components:
        if comp <= J:
            raise DegenerateJ(f"J contains the connected component {sorted(comp)} of the basis")
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

    n, cartan = datum.rank, datum.cartan
    root_forms = _root_forms(datum)
    permutations = _sign_permutations(datum)
    coweights = [la.primitive(w) for w in la.transpose(datum.cartan_adjugate[0])]
    points, forms = _Numbering(), _Numbering()
    on_points = _id_reflections(cartan, points, reflect_simple)

    # per cone in walk order: sign row, ids of rays and core rays, and the
    # codimension of its orbit; per standard cone, the ids of its forms and,
    # for T not I, of its core's; per s_k, each row's image
    rows, rays, cores, codims, cone_forms, core_forms = [], [], [], [], [], {}
    moves: list[list[int]] = [[] for _ in range(n)]
    index: dict[tuple[int, ...], int] = {}  # sign row -> its cone in the latest orbit
    standard, seeds, at = [], [], {}
    for I, T in _admissible_index_sets(datum, J).items():
        base = _standard_cone(cartan, coweights, I, T)
        core = None if T == I else _standard_cone(cartan, coweights, T, T)
        standard.append((I, T))
        start = len(rows)
        seeds.append(start)
        row = _sign_row(root_forms, base, f"the standard cone of {sorted(I)}", at)
        index[row] = start
        rows.append(row)
        cone_forms.append(_ids_of_forms(forms, base))
        rays.append(tuple(map(points.__getitem__, base.rays)))
        cores.append(rays[-1] if core is None else tuple(map(points.__getitem__, core.rays)))
        if core is not None:
            core_forms[start] = _ids_of_forms(forms, core)
        i = start
        while i < len(rows):  # the orbit grows while it is walked
            row = rows[i]
            for k, pi in enumerate(permutations):
                image = pi(row)
                j = index.get(image, -1)
                if j < start:  # new to this orbit
                    index[image] = j = len(rows)
                    rows.append(image)
                    reflect = on_points[k].__getitem__
                    rays.append(tuple(map(reflect, rays[i])))
                    cores.append(rays[-1] if core is None else tuple(map(reflect, cores[i])))
                moves[k].append(j)
            i += 1
        codims += [len(base.eqs)] * (len(rows) - start)

    # rank the rays by vector, so that sorted ids list rays in vector order
    vectors = points.vectors
    by_vector = sorted(range(len(vectors)), key=vectors.__getitem__)
    rank = sorted(range(len(vectors)), key=by_vector.__getitem__)  # the inverse permutation
    for i, (own, core) in enumerate(zip(rays, cores)):
        rays[i] = tuple(sorted(map(rank.__getitem__, own)))
        cores[i] = rays[i] if core is own else tuple(sorted(map(rank.__getitem__, core)))
    order = sorted(range(len(rows)), key=lambda i: (-codims[i], rays[i]))  # (dim, key)
    position = sorted(range(len(rows)), key=order.__getitem__)

    def ordered(column: Sequence) -> list:
        return list(map(column.__getitem__, order))

    fan = Fan.__new__(Fan)
    seeds = map(position.__getitem__, seeds)  # the standard cones
    points, cone_forms = list(map(vectors.__getitem__, by_vector)), dict(zip(seeds, cone_forms))
    rays, cores, codims = ordered(rays), ordered(cores), ordered(codims)
    fan._adopt(datum, J, points, forms.vectors, cone_forms, rays, cores, codims)
    fan._sign_table = tuple(ordered(rows))
    fan._core_forms = {position[i]: ids for i, ids in core_forms.items()}
    fan._standard = standard
    if len(index) == len(rows):  # every row distinct (see *Validation*)
        fan._moves = tuple(tuple(map(position.__getitem__, ordered(move))) for move in moves)
    for memo, done in zip(fan._ray_images, on_points):  # the walk's, by ranked ids
        memo.update(zip(map(rank.__getitem__, done), map(rank.__getitem__, done.values())))
    fan._facets  # the checks that `validate` reads
    return fan


def weyl_fan(datum: RootDatum) -> Fan:
    """The fan of facets of the root hyperplane arrangement."""
    return parabolic_fan(datum, ())


def cone_of_parabolic(fan: Fan, q_type: Iterable[int], w: WeylElement) -> int:
    """Index of the open cone attached to the Weyl translate w of the
    standard parabolic type, which must be the fan's defining subset: the
    image under w of the cone holding rho^vee (`RootDatum.regular_point`,
    on the ray of the fundamental coweights' sum), which `parabolic_fan`
    located."""
    datum = fan.datum
    q, bad = basis_subset(datum, q_type)
    if bad or frozenset(q) != fan.J:
        raise TypeMismatch(f"type {listed(q)} is not the standard type {sorted(fan.J)}")
    return fan.transform_index(w, fan.cone_containing(datum.regular_point))
