"""Relatively open polyhedral cones over the rationals.

A cone is stored by a homogeneous system: linear forms that vanish on it
and linear forms that are strictly positive on it.  A nonempty such set is
exactly the relative interior of the closed cone obtained by relaxing the
strict inequalities, so equality of cones reduces to equality of closures,
decided through canonical generator data (lineality basis plus extreme
rays) computed once by an exact double-description pass.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional, Sequence

from . import linalg as la
from ._value import Value
from .errors import EmptyCone
from .linalg import Mat, Vec


def dual_description(
    n: int, eqs: Sequence[Vec], ineqs: Sequence[Vec]
) -> tuple[list[Vec], list[Vec]]:
    """Generators (lineality basis, extreme rays) of {x : eqs x = 0, ineqs x >= 0}.

    Rays are primitive and canonical up to order; together with the
    lineality they generate the cone.  Rays are extreme modulo lineality.
    """
    lineality = la.kernel_basis(list(eqs), n)
    rays: list[Vec] = []
    processed: list[Vec] = list(eqs)

    def prune(rays_in: list[Vec], lin_dim: int) -> list[Vec]:
        # a ray is extreme iff its tight constraints cut its span plus lineality
        kept = []
        for r in rays_in:
            tight = [a for a in processed if la.dot(a, r) == 0]
            nullity = n - la.rank(tight)
            if nullity == lin_dim + 1:
                kept.append(r)
        return kept

    for a in ineqs:
        pivot = next((l for l in lineality if la.dot(a, l) != 0), None)
        if pivot is not None:
            if la.dot(a, pivot) < 0:
                pivot = la.neg(pivot)
            pa = la.dot(a, pivot)

            def project(v: Vec) -> Vec:
                # pa > 0, so this is the primitive form of v - (a.v / pa) pivot
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
        """Canonicalise {x : eqs x = 0, ins x > 0}; raises EmptyCone if empty."""
        eqs = [tuple(e) for e in eqs]
        ins = [tuple(i) for i in ins]
        lin, rays = dual_description(n, eqs, ins)
        gens = rays + lin + [la.neg(l) for l in lin]
        for form in ins:
            if all(la.dot(form, g) <= 0 for g in gens):
                # the form vanishes identically on the closed cone, so the
                # strict system has no solution
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
            # keep only facet forms: tight locus has dimension span_dim - 1
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

    @cached_property
    def key(self) -> tuple:
        """Canonical identity: lineality plus extreme rays of the closure."""
        return (self.lineality, self.rays)

    @cached_property
    def span_basis(self) -> tuple[Vec, ...]:
        basis, _ = la.rref(list(self.lineality) + list(self.rays))
        return tuple(la.primitive(b) for b in basis)

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
        if not self.rays:
            return la.zero_vec(self.dim_ambient)
        acc = self.rays[0]
        for r in self.rays[1:]:
            acc = la.add(acc, r)
        return acc

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
