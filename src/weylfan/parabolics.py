"""Standard parabolic types at the level of root combinatorics.

A standard type is a subset T of the basis.  It determines the Levi root
subsystem (roots supported on T), the unipotent weights (positive roots
outside it), the closed dominance cone of the parabolic, relevance with
respect to a merging subset J, and the boundary-stratum classes of the
associated compactified apartment.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

from . import linalg as la
from .cones import Cone
from .errors import InternalDisagreement
from .fans import Fan, validate_J
from .rootdata import Root, RootDatum, components, orthogonal_complement


@dataclass(frozen=True)
class ParabolicType:
    """A standard parabolic type T with its Levi and unipotent root data."""

    datum: RootDatum
    indices: frozenset[int]

    @cached_property
    def levi_roots(self) -> tuple[Root, ...]:
        return tuple(
            a
            for a in self.datum.roots
            if {i for i, c in enumerate(a) if c} <= self.indices
        )

    @cached_property
    def unipotent_roots(self) -> tuple[Root, ...]:
        levi = set(self.levi_roots)
        return tuple(a for a in self.datum.positive_roots if a not in levi)

    @cached_property
    def psi(self) -> tuple[Root, ...]:
        """Opposite unipotent weights: the negatives of the unipotent roots."""
        return tuple(sorted(tuple(-c for c in a) for a in self.unipotent_roots))

    def validate(self) -> None:
        levi = set(self.levi_roots)
        uni = set(self.unipotent_roots)
        neg_uni = {tuple(-c for c in a) for a in uni}
        if levi | uni | neg_uni != set(self.datum.roots):
            raise InternalDisagreement("type does not split the root system")
        for a in uni:
            for b in uni:
                s = tuple(x + y for x, y in zip(a, b))
                if s in self.datum.root_set and s not in uni:
                    raise InternalDisagreement("unipotent weights not closed under addition")


def parabolic_type(datum: RootDatum, indices: Iterable[int]) -> ParabolicType:
    return ParabolicType(datum, frozenset(indices))


class NonDegeneracyReport(NamedTuple):
    value: bool
    no_component_in_levi: bool  # no irreducible factor of the roots inside the Levi
    no_component_in_type: bool  # T contains no connected component of the basis
    psi_spans: bool  # the opposite unipotent weights span the dual space


def is_non_degenerate(datum: RootDatum, T: Iterable[int]) -> NonDegeneracyReport:
    """Three equivalent non-degeneracy conditions, evaluated independently.

    Raises InternalDisagreement if the three computations ever differ.
    """
    tset = frozenset(T)
    ptype = ParabolicType(datum, tset)

    levi = set(ptype.levi_roots)
    cond1 = True
    for comp in datum.diagram_components:
        factor_roots = {
            a for a in datum.roots if {i for i, c in enumerate(a) if c} <= comp
        }
        if factor_roots <= levi:
            cond1 = False
            break

    cond2 = all(not comp <= tset for comp in datum.diagram_components)

    covs = [datum.covector(a) for a in ptype.psi]
    cond3 = bool(covs) and la.rank(covs) == datum.rank

    if not (cond1 == cond2 == cond3):
        raise InternalDisagreement(
            f"non-degeneracy conditions disagree for T={sorted(tset)}: "
            f"{cond1}, {cond2}, {cond3}"
        )
    return NonDegeneracyReport(cond1, cond1, cond2, cond3)


def dominance_cone(datum: RootDatum, T: Iterable[int]) -> Cone:
    """The closed cone of directions pairing nonnegatively with every
    unipotent weight of the standard parabolic of type T.

    Returned as a Cone whose closure is the set in question (the stored
    relatively open cone is its relative interior).  For T the whole basis
    this is the entire space.
    """
    ptype = ParabolicType(datum, frozenset(T))
    forms = [datum.covector(a) for a in ptype.unipotent_roots]
    return Cone.from_system(datum.rank, [], forms)


def core_generating_set(datum: RootDatum, J: frozenset[int], T: frozenset[int]) -> frozenset[int]:
    """Union of the connected components of T meeting the complement of J."""
    return frozenset(
        i for comp in components(datum, T) if not comp <= J for i in comp
    )


def is_J_relevant(datum: RootDatum, J: Iterable[int], T: Iterable[int]) -> bool:
    """Whether T decomposes as I u (J n I-perp) with admissible generator I.

    Decided by reconstructing the candidate generator from the components
    of T meeting the complement of J.
    """
    T = frozenset(T)
    J = validate_J(datum, J)
    I = core_generating_set(datum, J, T)
    if any(comp <= J for comp in components(datum, I)):
        return False
    extra = J & orthogonal_complement(datum, I)
    return T == I | extra and not (I & extra)


@dataclass(frozen=True)
class StratumDescriptor:
    """A boundary-stratum class of the compactified apartment."""

    type_indices: frozenset[int]
    generating_indices: frozenset[int]
    levi_roots: tuple[Root, ...]
    levi_rank: int
    is_open_stratum: bool

    def labels(self, datum: RootDatum) -> list[str]:
        return [datum.labels[i] for i in sorted(self.type_indices)]


def enumerate_strata(
    datum: RootDatum, J: Iterable[int], conjugates: bool = False
):
    """Stratum classes of the compactification for subset J.

    One descriptor per relevant standard type; with `conjugates=True`
    returns (descriptor, weyl element) pairs, one for each Weyl translate
    of the standard core facet, for cross-checks against the fan.
    """
    from .rootdata import weyl_enumerate

    J = validate_J(datum, J)
    n = datum.rank
    out = []
    for bits in range(1 << n):
        T = frozenset(j for j in range(n) if bits & (1 << j))
        if not is_J_relevant(datum, J, T):
            continue
        ptype = ParabolicType(datum, T)
        covs = [datum.covector(a) for a in ptype.levi_roots]
        desc = StratumDescriptor(
            type_indices=T,
            generating_indices=core_generating_set(datum, J, T),
            levi_roots=ptype.levi_roots,
            levi_rank=la.rank(covs) if covs else 0,
            is_open_stratum=T == frozenset(range(n)),
        )
        out.append(desc)
    out.sort(key=lambda d: (len(d.type_indices), sorted(d.type_indices)))
    if not conjugates:
        return out

    weyl = weyl_enumerate(datum)
    pairs = []
    for desc in out:
        seen = set()
        covs = [datum.covector(datum.simples[i]) for i in sorted(desc.type_indices)]
        others = [
            datum.covector(datum.simples[i])
            for i in range(n)
            if i not in desc.type_indices
        ]
        base = Cone.from_system(n, covs, others)
        for w in weyl:
            rays = tuple(sorted(la.primitive(w.apply_point(r)) for r in base.rays))
            if rays not in seen:
                seen.add(rays)
                pairs.append((desc, w))
    return pairs


def facade_root_system(datum: RootDatum, fan: Fan, cone_index: int) -> tuple[Root, ...]:
    """Roots vanishing on the core direction of a fan cone.

    These are the wall directions surviving in the facade of the cone; for
    the standard cone of core type T the result is the Levi subsystem of T.
    """
    span = fan.cores[cone_index].cone.span_basis
    return tuple(
        a
        for a in datum.roots
        if all(la.dot(datum.covector(a), s) == 0 for s in span)
    )
