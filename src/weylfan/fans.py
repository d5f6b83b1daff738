"""Fans of relatively open cones: the Weyl fan and its merged variants.

A fan here is a finite partition of the ambient space into relatively open
polyhedral cones containing the origin cone, whose boundaries are unions of
fan cones with the closure compatibility condition on faces.

`parabolic_fan(datum, J)` builds the fan whose open cones merge all Weyl
chambers across the walls of the reflection subgroup generated by J.  The
standard cone of index subset I merges the Weyl facets of type between I
and I u (J n I-perp) under that reflection subgroup; its core is the Weyl
facet of type I u (J n I-perp).  For J empty this is exactly the Weyl fan.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from . import linalg as la
from .cones import Cone, closure_subset, is_face_closure, is_face_supporting
from .errors import DegenerateJ, NotEssential, PartitionFailure, TypeMismatch
from .linalg import Vec
from .rootdata import (
    RootDatum,
    WeylElement,
    components,
    orthogonal_complement,
    weyl_enumerate,
)


@dataclass(frozen=True)
class CoreInfo:
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
    ):
        self.datum = datum
        self.J = J
        self.cones = tuple(cones)
        self.cores = cores
        self._index = {c.key: i for i, c in enumerate(self.cones)}

    def __len__(self) -> int:
        return len(self.cones)

    @cached_property
    def origin_index(self) -> int:
        for i, c in enumerate(self.cones):
            if c.is_origin:
                return i
        raise PartitionFailure("fan has no origin cone")

    def index_of(self, cone: Cone) -> Optional[int]:
        return self._index.get(cone.key)

    def cone_containing(self, v: Vec) -> int:
        hits = [i for i, c in enumerate(self.cones) if c.contains(v)]
        if len(hits) != 1:
            raise PartitionFailure(
                f"point {v} lies in {len(hits)} cones; fan is not a partition"
            )
        return hits[0]

    def is_face(self, f: int, g: int) -> bool:
        """Whether cone f is a face of cone g (each cone is a face of itself)."""
        return is_face_closure(self.cones[f], self.cones[g])

    @cached_property
    def face_order(self) -> tuple[tuple[int, int], ...]:
        """All pairs (f, g) with f a face of g, as the facade closure order."""
        pairs = []
        for f in range(len(self.cones)):
            for g in range(len(self.cones)):
                cf, cg = self.cones[f], self.cones[g]
                if cf.dim <= cg.dim and closure_subset(cf, cg):
                    pairs.append((f, g))
        return tuple(pairs)

    # -- W action ----------------------------------------------------------

    def transform_index(self, w: WeylElement, i: int) -> int:
        """Index of the image of cone i under a Weyl element."""
        rays = tuple(sorted(la.primitive(w.apply_point(r)) for r in self.cones[i].rays))
        lin = tuple(sorted(la.primitive(w.apply_point(l)) for l in self.cones[i].lineality))
        j = self._index.get((lin, rays))
        if j is None:
            raise PartitionFailure("fan is not Weyl invariant")
        return j

    # -- validation ----------------------------------------------------------

    def validate(self) -> dict:
        """Verify the fan axioms exactly; returns a few summary counts.

        Checks: partition over all Weyl facets, presence of the origin cone,
        boundaries decompose into fan cones, the span-closure condition on
        faces (cross-checked against the supporting-form criterion), strict
        convexity of closures, Weyl invariance, and the fixed-point
        characterisation of cores.
        """
        datum = self.datum
        n = datum.rank
        weyl = weyl_enumerate(datum)

        # strict convexity of every closure
        for c in self.cones:
            if c.lineality:
                raise PartitionFailure(f"cone closure contains a line: {c}")

        # the zero cone belongs to the fan
        _ = self.origin_index

        _check_cover(self)

        # face conditions and criterion agreement on every face pair
        for f, g in self.face_order:
            cf, cg = self.cones[f], self.cones[g]
            if not is_face_closure(cf, cg):
                raise PartitionFailure(
                    f"face condition fails for cones {f} <= {g}"
                )
            if not is_face_supporting(cf, cg):
                raise PartitionFailure(
                    f"supporting-form criterion fails for cones {f} <= {g}"
                )

        # Weyl invariance, collecting each cone's setwise stabiliser
        stabilisers: list[list[WeylElement]] = [[] for _ in self.cones]
        for w in weyl:
            for i in range(len(self.cones)):
                if self.transform_index(w, i) == i:
                    stabilisers[i].append(w)

        # cores: fixed locus of the setwise stabiliser meets the cone in its core
        for i, c in enumerate(self.cones):
            fix_rows = []
            for w in stabilisers[i]:
                for r in range(n):
                    row = tuple(
                        w.mat_points[r][j] - (1 if r == j else 0) for j in range(n)
                    )
                    if not la.is_zero(row):
                        fix_rows.append(la.vec(row))
            core = Cone.from_system(n, list(c.eqs) + fix_rows, list(c.ins))
            if core.key != self.cores[i].cone.key:
                raise PartitionFailure(f"core of cone {i} is not the stabiliser fixed locus")

        return {
            "cones": len(self.cones),
            "face_pairs": len(self.face_order),
            "weyl_order": len(weyl),
        }


def _check_cover(fan: Fan) -> None:
    """Partition and boundary axioms: every Weyl facet lies in exactly one
    cone, and every facet of every closure is the closure of a fan cone."""
    for p in weyl_facet_points(fan.datum):
        fan.cone_containing(p)
    for i, g in enumerate(fan.cones):
        for form in g.ins:
            facet_rays = tuple(sorted(r for r in g.rays if la.dot(form, r) == 0))
            if ((), facet_rays) not in fan._index:
                raise PartitionFailure(
                    f"facet of cone {i} is not the closure of a fan cone"
                )


def weyl_facet_points(datum: RootDatum) -> list[Vec]:
    """One relative interior point for every facet of the Weyl arrangement."""
    weyl = weyl_enumerate(datum)
    coweights = datum.fundamental_coweights()
    n = datum.rank
    points = set()
    for bits in range(1 << n):
        subset = [j for j in range(n) if bits & (1 << j)]
        base = la.zero_vec(n)
        for j in subset:
            base = la.add(base, coweights[j])
        for w in weyl:
            points.add(w.apply_point(base))
    return sorted(points)


def _admissible_index_sets(datum: RootDatum, J: frozenset[int]) -> list[frozenset[int]]:
    """Subsets I of the basis none of whose components lie inside J."""
    n = datum.rank
    out = []
    for bits in range(1 << n):
        I = frozenset(j for j in range(n) if bits & (1 << j))
        if all(not comp <= J for comp in components(datum, I)):
            out.append(I)
    return out


def standard_cone_system(
    datum: RootDatum, J: frozenset[int], I: frozenset[int]
) -> tuple[list[Vec], list[Vec], frozenset[int]]:
    """Equalities and strict forms of the standard merged cone of subset I.

    The cone is cut out by vanishing of the simple roots in I and positivity
    of every positive root outside the span of T = I u (J n I-perp); returns
    (equalities, strict forms, T).
    """
    K = J & orthogonal_complement(datum, I)
    T = I | K
    eqs = [datum.covector(datum.simples[i]) for i in sorted(I)]
    ins = []
    for a in datum.positive_roots:
        support = {i for i, c in enumerate(a) if c}
        if not support <= T:
            ins.append(datum.covector(a))
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
    J = frozenset(J)
    if any(i not in range(datum.rank) for i in J):
        raise DegenerateJ(f"subset {sorted(J)} is not a subset of the basis")
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
    weyl = weyl_enumerate(datum)
    inverses = {w: la.inverse(w.mat_points) for w in weyl}

    found: dict[tuple, tuple[Cone, CoreInfo]] = {}
    for I in _admissible_index_sets(datum, J):
        eqs, ins, T = standard_cone_system(datum, J, I)
        base = Cone.from_system(n, eqs, ins)
        base_core = _facet_cone(datum, T)
        for w in weyl:
            moved = base.transform(w.mat_points, inverses[w])
            if moved.key in found:
                continue
            core = base_core.transform(w.mat_points, inverses[w])
            found[moved.key] = (
                moved,
                CoreInfo(
                    type_indices=T,
                    generator_indices=I,
                    weyl=w,
                    cone=core,
                ),
            )

    ordered = sorted(found.values(), key=lambda pair: (pair[0].dim, pair[0].key))
    cones = [pair[0] for pair in ordered]
    cores = {i: pair[1] for i, pair in enumerate(ordered)}
    fan = Fan(datum, J, cones, cores)
    _check_cover(fan)
    return fan


def weyl_fan(datum: RootDatum) -> Fan:
    """The fan of facets of the root hyperplane arrangement."""
    return parabolic_fan(datum, ())


def cone_of_parabolic(
    fan: Fan, q_type: Iterable[int], w: WeylElement
) -> int:
    """Index of the open cone attached to the Weyl translate w of the
    standard parabolic type; the type must match the fan's defining subset."""
    if frozenset(q_type) != fan.J:
        raise TypeMismatch(
            f"type {sorted(set(q_type))} is not the standard type {sorted(fan.J)}"
        )
    datum = fan.datum
    eqs, ins, _ = standard_cone_system(datum, fan.J, frozenset())
    base = Cone.from_system(datum.rank, eqs, ins)
    inv = la.inverse(w.mat_points)
    return fan._index[base.transform(w.mat_points, inv).key]
