"""Standard parabolic types at the level of root combinatorics.

A standard type is a subset T of the basis.  It determines the Levi root
subsystem (roots supported on T), the unipotent weights (positive roots
outside it), the closed dominance cone of the parabolic, relevance with
respect to a merging subset J, and the boundary-stratum classes of the
associated compactified apartment.

T is J-relevant when T = I u (J n I-perp) for an admissible I, none of
whose components lies in J: the strata read the map I -> T,
`fans._admissible_index_sets`, whose docstring argues that it is a
bijection, and relevance its inverse, which takes T to the union of its
components meeting the complement of J.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, NamedTuple

from . import linalg as la
from ._value import Value
from .cones import Cone
from .errors import InternalDisagreement
from .fans import Fan, _admissible_index_sets, validate_J
from .rootdata import (
    Root, RootDatum, check_same_roots, diagram_neighbours, orthogonal_bits, reached, simple_indices
)


class ParabolicType(Value):
    """A standard parabolic type T with its Levi and unipotent root data."""

    datum: RootDatum
    indices: frozenset[int]

    def __post_init__(self) -> None:  # stores the indices as a frozenset
        object.__setattr__(self, "indices", simple_indices(self.datum, self.indices))

    @cached_property
    def levi_roots(self) -> tuple[Root, ...]:
        return self.datum.levi_roots(self.indices)

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


class NonDegeneracyReport(NamedTuple):
    value: bool
    no_component_in_levi: bool  # no irreducible factor of the roots inside the Levi
    no_component_in_type: bool  # T contains no connected component of the basis
    psi_spans: bool  # the opposite unipotent weights span the dual space


def is_non_degenerate(datum: RootDatum, T: Iterable[int]) -> NonDegeneracyReport:
    """Three equivalent non-degeneracy conditions, evaluated independently.

    Raises InternalDisagreement if the three computations ever differ.
    """
    ptype = ParabolicType(datum, T)
    tset = ptype.indices

    levi = set(ptype.levi_roots)
    cond1 = not any(set(datum.levi_roots(comp)) <= levi for comp in datum.diagram_components)

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
    ptype = ParabolicType(datum, T)
    forms = [datum.covector(a) for a in ptype.unipotent_roots]
    return Cone.from_system(datum.rank, [], forms)


def is_J_relevant(datum: RootDatum, J: Iterable[int], T: Iterable[int]) -> bool:
    """Whether T is I u (J n I-perp) for an admissible generator I: a type
    of `fans._admissible_index_sets`.  By that bijection (see the module
    docstring) the only candidate I is the union of the components of T
    meeting the complement of J, one walk inside T over bitsets, and T is
    relevant exactly when it is the type of that I: O(n^2) bit operations."""
    J = validate_J(datum, J)
    near = diagram_neighbours(datum)
    on_J = sum(1 << j for j in J)
    t = sum(1 << j for j in simple_indices(datum, T))
    I = reached(near, t, t & ~on_J)
    return (I | on_J & orthogonal_bits(near, I)) == t


class StratumDescriptor(Value):
    """A boundary-stratum class of the compactified apartment."""

    type_indices: frozenset[int]
    generating_indices: frozenset[int]
    levi_roots: tuple[Root, ...]
    levi_rank: int
    is_open_stratum: bool

    def labels(self, datum: RootDatum) -> list[str]:
        return [datum.labels[i] for i in sorted(self.type_indices)]


def enumerate_strata(datum: RootDatum, J: Iterable[int]) -> list[StratumDescriptor]:
    """Stratum classes of the compactification for subset J: one descriptor
    per relevant type T, the image of one admissible I (see the module
    docstring), ordered by |T|, which is the Levi rank, then by T."""
    J = validate_J(datum, J)
    out = []
    for I, T in _admissible_index_sets(datum, J).items():
        out.append(
            StratumDescriptor(
                type_indices=T,
                generating_indices=I,
                levi_roots=datum.levi_roots(T),
                levi_rank=len(T),
                is_open_stratum=len(T) == datum.rank,
            )
        )
    out.sort(key=lambda d: (len(d.type_indices), sorted(d.type_indices)))
    return out


def facade_root_system(datum: RootDatum, fan: Fan, cone_index: int) -> tuple[Root, ...]:
    """Roots vanishing on the core direction of a fan cone.

    These are the wall directions surviving in the facade of the cone; for
    the standard cone of core type T the result is the Levi subsystem of T.
    They are the roots vanishing at the sum of the cone's rays, which lies
    in the core, and each root has one sign on the core, a Weyl facet (see
    *Validation* in the `fans` docstring).  The index is `Fan.read_index`'s;
    TypeMismatch unless the fan is one of `datum` (`check_same_roots`).
    """
    p = fan.cones[fan.read_index(cone_index)].relint_point()
    check_same_roots(fan.datum, datum)
    return tuple(a for a in datum.roots if la.dot(datum.covector(a), p) == 0)
