"""Relatively open polyhedral cones over the rationals.

A cone is stored by a homogeneous system: linear forms that vanish on it
and linear forms that are strictly positive on it.  A nonempty such set is
exactly the relative interior of the closed cone obtained by relaxing the
strict inequalities, so equality of cones reduces to equality of closures,
decided through canonical generator data (lineality basis plus extreme
rays) computed once by an exact double-description pass.

*Double description.*  `dual_description` adds the inequalities of
{x : eqs x = 0, ineqs x >= 0} one at a time to the space {eqs x = 0},
keeping the lineality L of the cone so far (cut out by eqs and the
processed inequalities) and its extreme rays modulo L, each with its
tight set: the bitset of the processed inequalities that vanish on it
(Motzkin et al., 1953; Fukuda and Prodon, *Double description method
revisited*, 1996).  The next inequality a either meets L or vanishes on
it.

- If a meets L, take a pivot l in L with a.l > 0.  Projecting along l
  onto ker a maps L onto L' = L n ker a, and induces an isomorphism of
  V / L onto ker a / L'.  The cone C n {a >= 0} is the projection of C
  plus the ray of l, so its extreme rays modulo L' are the projections of
  the old rays, still extreme and distinct, and l: no ray is dropped.
  The processed forms vanish on l, so a projected ray keeps its tight set
  and gains a, and l is tight on every earlier inequality and not on a.
- Otherwise C / L is pointed, cut out by the processed forms.  The rays
  with a.r >= 0 stay extreme, and the new extreme rays are the points on
  a = 0 of the 2-faces of C spanned by a ray p with a.p > 0 and a ray n
  with a.n < 0.  The smallest face holding p and n is the set where the
  forms of Z(p) n Z(n) vanish, and its extreme rays are those whose tight
  sets contain Z(p) n Z(n); it is a 2-face exactly when p and n are the
  only ones (the combinatorial adjacency test).  A point of the open
  segment from p to n is tight exactly on Z(p) n Z(n), plus a on the
  combination (a.p) n - (a.n) p.

So each step yields exactly the extreme rays of the new cone, and no
elimination is needed beyond the kernel of eqs that starts the pass.

*Canonical form.*  `_canonical_cone` writes a system given the lineality
and extreme rays of its closure, from `dual_description` or in closed
form (`fans`).  It rejects a system one of whose strict forms vanishes on
every generator of the closed cone (EmptyCone).  Past that check, each
strict form is positive somewhere on the closed cone, and the sum of one
such point per form is positive on all of them, so the closed cone has a
point interior to {eqs x = 0} and spans it.  The forms vanishing on the
cone are then the row space of eqs, and their canonical basis is the
primitive rows of its reduced row echelon form, unique for the subspace.
Every facet of {eqs = 0, ins >= 0} is the zero set of some form in ins,
and every zero set of a form in ins is a proper face, inside some facet.
A face is the lineality plus the rays it holds, so the faces nest as
their ray sets do, and a form is a facet form exactly when its set of
vanishing rays is maximal among those of the forms in ins (`_maximal`).
Forms of one facet agree, on the span, up to a positive factor, so they
reduce modulo the equalities to one primitive form.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from . import linalg as la
from ._value import Value
from .errors import DimensionMismatch, EmptyCone, TypeMismatch
from .linalg import Mat, Vec


def _forms(forms, name: str) -> list[tuple]:
    """`forms` as a list of tuples; raises TypeMismatch, naming `name` or the
    form, if `forms` or one of its forms is not iterable."""
    try:
        forms = list(forms)
    except TypeError:  # None, 5
        raise TypeMismatch(f"{name} {forms!r} is not a sequence of forms") from None
    rows = []
    for form in forms:
        try:
            rows.append(tuple(form))
        except TypeError:
            raise TypeMismatch(f"form {form!r} is not a sequence of entries") from None
    return rows


def dual_description(
    n: int, eqs: Sequence[Vec], ineqs: Sequence[Vec]
) -> tuple[list[Vec], list[Vec]]:
    """Generators (lineality basis, extreme rays) of {x : eqs x = 0, ineqs x >= 0}.

    Rays are primitive and canonical up to order; together with the
    lineality they generate the cone.  Rays are extreme modulo lineality.
    Raises DimensionMismatch unless n is an int >= 1 and every form has n
    entries, and TypeMismatch unless the forms and each form are iterable
    and every entry is an int or a Fraction.
    """
    if type(n) is not int or n < 1:
        raise DimensionMismatch(f"ambient dimension {n!r} is not an int >= 1")
    eqs, ineqs = _forms(eqs, "eqs"), _forms(ineqs, "ineqs")
    for form in (*eqs, *ineqs):
        if len(form) != n:
            raise DimensionMismatch(f"form {form} has {len(form)} entries, not {n}")
        if any(type(c) is not int and type(c) is not Fraction for c in form):
            raise TypeMismatch(f"form {form} has an entry that is not an int or a Fraction")
    lineality = la.kernel_basis(eqs, n)
    rays: list[Vec] = []
    tight: list[int] = []  # per ray, the bitset of the processed ineqs vanishing on it
    for i, a in enumerate(ineqs):
        bit = 1 << i
        pivot = next((l for l in lineality if la.dot(a, l) != 0), None)
        if pivot is not None:
            if la.dot(a, pivot) < 0:
                pivot = la.neg(pivot)
            pa = la.dot(a, pivot)

            def project(v: Vec) -> Vec:
                # pa > 0, so this is the primitive form of v - (a.v / pa) pivot
                return la.primitive(la.sub(la.scale(v, pa), la.scale(pivot, la.dot(a, v))))

            # the pivot projects to zero, the rest of the basis does not
            lineality = [l for l in map(project, lineality) if any(l)]
            rays = [project(r) for r in rays] + [la.primitive(pivot)]
            tight = [t | bit for t in tight] + [bit - 1]
            continue
        vals = [la.dot(a, r) for r in rays]
        pos = [j for j, v in enumerate(vals) if v > 0]
        negs = [j for j, v in enumerate(vals) if v < 0]
        new_rays = [r for r, v in zip(rays, vals) if v >= 0]
        new_tight = [t | bit if v == 0 else t for t, v in zip(tight, vals) if v >= 0]
        for p in pos:
            for q in negs:
                common = tight[p] & tight[q]
                if sum(common & t == common for t in tight) > 2:
                    continue  # a third ray lies on the smallest face of p and q
                ap, aq = vals[p], vals[q]
                new_rays.append(la.primitive(la.sub(la.scale(rays[q], ap), la.scale(rays[p], aq))))
                new_tight.append(common | bit)
        rays, tight = new_rays, new_tight
    return lineality, sorted(rays)


class Cone(Value, uncompared=("eqs", "ins")):
    """A nonempty relatively open polyhedral cone in coroot coordinates.

    Equality and hashing read the ambient dimension and `key` alone, so two
    cones are equal when they are the same set, whatever forms they store."""

    dim_ambient: int
    eqs: tuple[Vec, ...]  # a basis of the forms vanishing on the cone
    ins: tuple[Vec, ...]  # facet forms, strictly positive on the cone
    lineality: tuple[Vec, ...]  # lineality of the closure
    rays: tuple[Vec, ...]  # extreme rays of the closure

    @staticmethod
    def from_system(n: int, eqs: Sequence[Vec], ins: Sequence[Vec]) -> "Cone":
        """Canonicalise {x : eqs x = 0, ins x > 0}; raises EmptyCone if empty,
        and DimensionMismatch or TypeMismatch as `dual_description` does (see
        *Canonical form* in the module docstring)."""
        eqs, ins = _forms(eqs, "eqs"), _forms(ins, "ins")
        return _canonical_cone(n, eqs, ins, *dual_description(n, eqs, ins))

    # -- geometry ------------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.dim_ambient - len(self.eqs)

    @property
    def is_origin(self) -> bool:
        return self.dim == 0

    @property
    def pointed(self) -> bool:
        return not self.lineality

    @property
    def key(self) -> tuple:
        """Canonical identity: lineality plus extreme rays of the closure."""
        return (self.lineality, self.rays)

    @cached_property
    def span_basis(self) -> tuple[Vec, ...]:
        return tuple(la.row_basis((*self.lineality, *self.rays)))

    def contains(self, x: Vec) -> bool:
        """Membership in the relatively open cone."""
        return all(la.dot(e, x) == 0 for e in self.eqs) and all(
            la.dot(i, x) > 0 for i in self.ins
        )

    def closure_contains(self, x: Vec) -> bool:
        return all(la.dot(e, x) == 0 for e in self.eqs) and all(
            la.dot(i, x) >= 0 for i in self.ins
        )

    def relint_point(self) -> Vec:
        return tuple(map(sum, zip(*self.rays))) if self.rays else la.zero_vec(self.dim_ambient)

    def closure_generators(self) -> list[Vec]:
        return list(self.rays) + [v for l in self.lineality for v in (l, la.neg(l))]

    def transform(self, mat_points: Mat, mat_points_inv: Mat) -> "Cone":
        """Image under an invertible linear map given with its inverse."""
        return Cone(
            dim_ambient=self.dim_ambient,
            eqs=tuple(sorted(la.primitive(la.vec_mat(e, mat_points_inv)) for e in self.eqs)),
            ins=tuple(sorted(la.primitive(la.vec_mat(i, mat_points_inv)) for i in self.ins)),
            lineality=tuple(sorted(la.primitive(la.mat_vec(mat_points, l)) for l in self.lineality)),
            rays=tuple(sorted(la.primitive(la.mat_vec(mat_points, r)) for r in self.rays)),
        )

    def sign_of(self, form: Vec) -> int:
        """Constant sign of a linear form on the cone: -1, 0, +1, or 2 if mixed."""
        vals = [la.dot(form, g) for g in self.closure_generators()]
        if all(v == 0 for v in vals):
            return 0
        if all(v >= 0 for v in vals):
            return 1
        if all(v <= 0 for v in vals):
            return -1
        return 2

    def __repr__(self) -> str:  # pragma: no cover
        return f"Cone(dim={self.dim}, rays={len(self.rays)})"


def _canonical_cone(
    n: int, eqs: Sequence[Vec], ins: Sequence[Vec], lineality: Sequence[Vec], rays: Sequence[Vec]
) -> Cone:
    """The canonical form of {x : eqs x = 0, ins x > 0}, given the lineality
    basis and the primitive extreme rays of its closure; raises EmptyCone
    if it is empty (see *Canonical form* in the module docstring)."""
    # per form, the bitset of the rays it vanishes on (it is >= 0 on the cone)
    zeros = [sum(1 << j for j, r in enumerate(rays) if not la.dot(form, r)) for form in ins]
    every = (1 << len(rays)) - 1
    for form, zero in zip(ins, zeros):
        if zero == every:  # zero on the closed cone, so never strictly positive
            raise EmptyCone(f"form {form} cannot be strictly positive")
    eqs = la.row_basis(eqs)
    ins = {la.primitive(_reduce_mod(form, eqs)) for form in _maximal(ins, zeros)}
    return Cone(n, *(tuple(sorted(vs)) for vs in (eqs, ins, lineality, rays)))


def _maximal(items: Sequence, sets: Sequence[int]) -> list:
    """The items whose bitsets, in `sets`, lie inside no other one of them."""
    distinct = set(sets)
    top = {z for z in distinct if not any(z != w and z & w == z for w in distinct)}
    return [x for x, z in zip(items, sets) if z in top]


def _reduce_mod(form: Vec, eq_rref: Sequence[Vec]) -> Vec:
    """Reduce a form modulo the row space of an RREF basis with positive
    pivots; the result is a positive multiple of the rational remainder."""
    out = form
    for row in eq_rref:
        pivot = next((j for j, v in enumerate(row) if v != 0), None)
        if pivot is not None and out[pivot] != 0:
            out = la.sub(la.scale(out, row[pivot]), la.scale(row, out[pivot]))
    return out


def closure_subset(f: Cone, g: Cone) -> bool:
    """Whether the closure of f is contained in the closure of g."""
    return all(g.closure_contains(v) for v in f.closure_generators())


def is_face_closure(f: Cone, g: Cone) -> bool:
    """Face test by closures: f in cl(g) and cl(f) = span(f) meet cl(g)."""
    if not closure_subset(f, g):
        return False
    if f.key == g.key:
        return True
    # the closures nest, so span(f) lies in span(g): f's equalities cut it out
    lin, rays = dual_description(f.dim_ambient, list(f.eqs), list(g.ins))
    return all(f.closure_contains(v) for v in rays + [x for l in lin for x in (l, la.neg(l))])


def is_face_supporting(f: Cone, g: Cone) -> bool:
    """Face test by supporting forms: some form >= 0 on g has cl(f) as zero locus."""
    if not closure_subset(f, g):
        return False
    if f.key == g.key:
        return True
    # forms nonnegative on cl(g) and vanishing on span(f)
    lin, rays = dual_description(f.dim_ambient, list(f.span_basis), g.closure_generators())
    alpha = la.zero_vec(f.dim_ambient)
    for r in rays:
        alpha = la.add(alpha, r)
    exposed = [v for v in g.closure_generators() if la.dot(alpha, v) == 0]
    return set(exposed) == set(f.closure_generators())


def open_system_feasible(
    n: int, eqs: Sequence[Vec], strict: Sequence[Vec], weak: Sequence[Vec] = ()
) -> Optional[Vec]:
    """A point with eqs = 0, strict > 0, weak >= 0, or None if none exists."""
    lin, rays = dual_description(n, list(eqs), list(strict) + list(weak))
    gens = rays + [x for l in lin for x in (l, la.neg(l))]
    # one generator positive per strict form; their sum stays in the closed
    # cone and is strictly positive on every strict form
    acc = la.zero_vec(n)
    for form in strict:
        witness = next((g for g in gens if la.dot(form, g) > 0), None)
        if witness is None:
            return None
        acc = la.add(acc, witness)
    for form in strict:
        if la.dot(form, acc) <= 0:
            return None
    for form in weak:
        if la.dot(form, acc) < 0:
            return None
    return acc
