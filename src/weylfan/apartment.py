"""The affine apartment: wall-level groups, special points, extensions.

Each nondivisible root direction carries a set of wall levels.  Two shapes
occur: a lattice (1/d) Z, and, for multipliable roots, the punctured
quarter lattice (1/(4d)) Z minus (1/(2d)) Z whose missing half comes from
the levels of the doubled root.  Both shapes are stable under the
ramification rescaling by 1/e, which multiplies d by e.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, NamedTuple, Optional, Sequence

from . import linalg as la
from .errors import EmptyFacet, NonReduced, NonRootSystem, Unspanned
from .linalg import Vec
from .rootdata import Root, RootDatum, weyl_enumerate


@dataclass(frozen=True)
class ValueGroup:
    """Wall levels in one root direction.

    kind "lattice": the set (1/d) Z.
    kind "bc": the set (1/(4d)) Z minus (1/(2d)) Z, with the doubled root
    carrying (1/d) Z; the union of the walls both contribute in the
    nondivisible direction is then (1/(4d)) Z.
    """

    kind: str
    d: int

    def __post_init__(self) -> None:
        if self.kind not in ("lattice", "bc"):
            raise NonRootSystem(f"unknown value group kind {self.kind}")
        if self.d < 1:
            raise NonRootSystem("value group denominator must be positive")

    def contains(self, gamma: Fraction) -> bool:
        if self.kind == "lattice":
            return (gamma * self.d).denominator == 1
        quarter = (gamma * 4 * self.d).denominator == 1
        half = (gamma * 2 * self.d).denominator == 1
        return quarter and not half

    def double_contains(self, gamma: Fraction) -> bool:
        """Membership in the level set of the doubled root (bc kind only)."""
        if self.kind != "bc":
            raise NonRootSystem("no doubled root for a lattice value group")
        return (gamma * self.d).denominator == 1

    def wall_denominator(self) -> int:
        """d' such that the union of walls in this direction is (1/d') Z."""
        return self.d if self.kind == "lattice" else 4 * self.d

    def rescale(self, e: int) -> "ValueGroup":
        return ValueGroup(self.kind, self.d * e)

    def describe(self) -> dict:
        if self.kind == "lattice":
            return {"kind": "lattice", "denominator": self.d}
        return {"kind": "bc", "denominator": self.d}


@dataclass(frozen=True)
class ExtensionSpec:
    """A valued field extension seen by the apartment: ramification only."""

    e: int

    def __post_init__(self) -> None:
        if self.e < 1:
            raise NonRootSystem("ramification index must be >= 1")


@dataclass(frozen=True)
class AffineRootPattern:
    """Value groups for every nondivisible root, plus the cumulative scale."""

    datum: RootDatum
    groups: tuple[tuple[Root, ValueGroup], ...]
    scale: int = 1

    @cached_property
    def _by_root(self) -> dict[Root, ValueGroup]:
        return dict(self.groups)

    def group_of(self, a: Root) -> ValueGroup:
        got = self._by_root.get(a)
        if got is None:
            got = self._by_root.get(tuple(-c for c in a))
        if got is None:
            raise NonRootSystem(f"{a} is not a nondivisible root of the pattern")
        return got

    def rescale(self, e: int) -> "AffineRootPattern":
        return AffineRootPattern(
            datum=self.datum,
            groups=tuple((a, g.rescale(e)) for a, g in self.groups),
            scale=self.scale * e,
        )

    @staticmethod
    def uniform(datum: RootDatum, d: int = 1) -> "AffineRootPattern":
        groups = []
        for a in datum.nondivisible_roots:
            if not all(c >= 0 for c in a):
                continue
            kind = "bc" if a in datum.multipliable else "lattice"
            groups.append((a, ValueGroup(kind, d)))
        return AffineRootPattern(datum, tuple(sorted(groups)))

    @staticmethod
    def from_simple_denominators(
        datum: RootDatum, denominators: Sequence[int]
    ) -> "AffineRootPattern":
        """Assign a denominator per Weyl orbit via the simple roots.

        Two simple roots in one orbit must be given equal denominators.
        """
        if len(denominators) != datum.rank:
            raise NonRootSystem("need one denominator per simple root")
        weyl = weyl_enumerate(datum)
        orbit_of: dict[Root, int] = {}
        for i, s in enumerate(datum.simples):
            for w in weyl:
                img = w.apply_root(s)
                prev = orbit_of.get(img)
                if prev is not None and denominators[prev] != denominators[i]:
                    raise NonRootSystem(
                        "inconsistent denominators inside one Weyl orbit"
                    )
                orbit_of.setdefault(img, i)
        groups = []
        for a in datum.nondivisible_roots:
            if not all(c >= 0 for c in a):
                continue
            i = orbit_of.get(a, orbit_of.get(tuple(-c for c in a)))
            if i is None:
                raise NonRootSystem(f"root {a} is not Weyl conjugate to a simple root")
            kind = "bc" if a in datum.multipliable else "lattice"
            groups.append((a, ValueGroup(kind, denominators[i])))
        return AffineRootPattern(datum, tuple(sorted(groups)))


@dataclass(frozen=True)
class Apartment:
    """Affine space over the coroot lattice with an affine root pattern."""

    datum: RootDatum
    pattern: AffineRootPattern
    origin: Vec = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.origin is None:
            object.__setattr__(self, "origin", la.zero_vec(self.datum.rank))

    def relative(self, x: Sequence) -> Vec:
        return la.sub(la.vec(x), self.origin)


def make_apartment(
    datum: RootDatum,
    denominators: Optional[Sequence[int]] = None,
    d: int = 1,
) -> Apartment:
    pattern = (
        AffineRootPattern.from_simple_denominators(datum, denominators)
        if denominators is not None
        else AffineRootPattern.uniform(datum, d)
    )
    return Apartment(datum, pattern)


# -- symbolic coordinates for the virtually-special test ---------------------


@dataclass(frozen=True)
class SymbolicEntry:
    """rational + sum of irrational symbols with rational coefficients."""

    rational: Fraction
    symbols: tuple[tuple[str, Fraction], ...] = ()

    @staticmethod
    def of(value, symbol: Optional[str] = None) -> "SymbolicEntry":
        if symbol is None:
            return SymbolicEntry(Fraction(value))
        return SymbolicEntry(Fraction(value), ((symbol, Fraction(1)),))

    def scaled(self, c: Fraction) -> "SymbolicEntry":
        return SymbolicEntry(
            self.rational * c, tuple((s, v * c) for s, v in self.symbols if v * c != 0)
        )

    def plus(self, other: "SymbolicEntry") -> "SymbolicEntry":
        acc = dict(self.symbols)
        for s, v in other.symbols:
            acc[s] = acc.get(s, Fraction(0)) + v
        return SymbolicEntry(
            self.rational + other.rational,
            tuple(sorted((s, v) for s, v in acc.items() if v != 0)),
        )

    @property
    def is_rational(self) -> bool:
        return not self.symbols


SymbolicPoint = tuple  # alias: a tuple of SymbolicEntry


# -- special points -----------------------------------------------------------


def _positive_nondivisible(datum: RootDatum) -> list[Root]:
    return [a for a in datum.nondivisible_roots if all(c >= 0 for c in a)]


def is_special_vertex(apt: Apartment, x: Sequence) -> bool:
    """Whether x lies on a wall in every nondivisible root direction.

    For a multipliable root the walls of the root and of its double both
    count, which makes the admissible level set the full quarter lattice.
    """
    rel = apt.relative(x)
    for a in _positive_nondivisible(apt.datum):
        v = apt.datum.pairing(a, rel)
        g = apt.pattern.group_of(a)
        if g.kind == "lattice":
            if not g.contains(v):
                return False
        else:
            if not (g.contains(v) or g.double_contains(2 * v)):
                return False
    return True


def is_virtually_special(apt: Apartment, x: Sequence) -> bool:
    """Whether every root pairing at x is rational.

    Accepts plain rational points (always True) and points with marked
    irrational coordinates, for which the symbolic parts must cancel in
    every root direction.
    """
    entries = []
    for c in x:
        entries.append(c if isinstance(c, SymbolicEntry) else SymbolicEntry.of(c))
    rel = [e.plus(SymbolicEntry.of(-o)) for e, o in zip(entries, apt.origin)]
    for a in apt.datum.roots:
        cov = apt.datum.covector(a)
        acc = SymbolicEntry.of(0)
        for coeff, entry in zip(cov, rel):
            acc = acc.plus(entry.scaled(coeff))
        if not acc.is_rational:
            return False
    return True


def special_witness(apt: Apartment, x: Sequence) -> int:
    """Least e >= 1 such that x is special after rescaling the pattern by e."""
    rel = apt.relative(x)
    e = 1
    for a in _positive_nondivisible(apt.datum):
        v = apt.datum.pairing(a, rel)
        g = apt.pattern.group_of(a)
        e = lcm(e, (v * g.wall_denominator()).denominator)
    return e


def embed_extension(apt: Apartment, ext: ExtensionSpec) -> Apartment:
    """Apartment after base change: same points, levels scaled by 1/e."""
    return Apartment(apt.datum, apt.pattern.rescale(ext.e), apt.origin)


def walls_in_box(apt: Apartment, lo: Sequence, hi: Sequence) -> list[tuple[Root, Fraction]]:
    """All walls (root direction, level) meeting a coordinate box, exactly."""
    lo = la.vec(lo)
    hi = la.vec(hi)
    n = apt.datum.rank
    corners = []
    for bits in range(1 << n):
        corners.append(
            tuple(hi[i] if bits >> i & 1 else lo[i] for i in range(n))
        )
    out = []
    for a in _positive_nondivisible(apt.datum):
        vals = [apt.datum.pairing(a, apt.relative(c)) for c in corners]
        vmin, vmax = min(vals), max(vals)
        g = apt.pattern.group_of(a)
        step = Fraction(1, g.wall_denominator())
        k = -(-vmin // step)  # ceil division
        level = k * step
        while level <= vmax:
            out.append((a, -level))
            level += step
    return out


# -- transitivity: the Cartan linear system ----------------------------------


class TransitivitySolution(NamedTuple):
    N: int
    coefficients: tuple[int, ...]
    cartan_det: int
    gamma0: Fraction


def transitivity_solve(
    datum: RootDatum,
    x: Sequence,
    y: Sequence,
    gamma_denominator: int = 1,
) -> TransitivitySolution:
    """Integer translation data moving x to y after a ramified extension.

    Finds the least N with <a, y-x> in (1/N) Gamma' for every simple root,
    then the unique integer solution of the Cartan system
    sum_a' <a, a'^vee> n_a' = N D <a, y-x> / gamma0, with D the Cartan
    determinant and gamma0 the generator of the base level group.  The
    translation by sum n_a' a'^vee * gamma0 / (N D) reproduces y - x.
    """
    if not datum.is_reduced():
        raise NonReduced("the Cartan system is set up for reduced root systems")
    if not datum.essential:
        raise Unspanned("the basis does not span the ambient space")
    diff = la.sub(la.vec(y), la.vec(x))
    gamma0 = Fraction(1, gamma_denominator)
    pairings = [datum.pairing(s, diff) for s in datum.simples]

    N = 1
    for v in pairings:
        N = lcm(N, (v / gamma0).denominator)

    cartan = la.mat(datum.cartan)
    D_frac = la.det(cartan)
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

    # exact substitution check: the translation vector reproduces y - x
    translation = tuple(Fraction(c) * gamma0 / (N * D) for c in n)
    if translation != diff:
        raise NonRootSystem("transitivity solution failed to reproduce y - x")
    return TransitivitySolution(N, n, D, gamma0)


# -- dense rational sampling ---------------------------------------------------


def rational_dense_sample(
    apt: Apartment, facet_vertices: Sequence[Sequence], count: int
) -> list[Vec]:
    """Rational points strictly inside the open polysimplex with the given
    vertices: the barycenter first, then dyadic-weight refinements.

    A single-vertex facet collapses to that vertex.  Every returned point
    is a positive rational convex combination of the vertices, hence
    virtually special.
    """
    vertices = [la.vec(v) for v in facet_vertices]
    if not vertices:
        raise EmptyFacet("facet has no vertices")
    k = len(vertices)
    if k == 1:
        return [vertices[0]]

    def combine(weights: Sequence[Fraction]) -> Vec:
        acc = la.zero_vec(len(vertices[0]))
        for wgt, v in zip(weights, vertices):
            acc = la.add(acc, la.scale(v, wgt))
        return acc

    out: list[Vec] = []
    seen = set()
    bary = combine([Fraction(1, k)] * k)
    out.append(bary)
    seen.add(bary)

    level = 1
    while len(out) < count and level < 40:
        denom = 1 << level
        for combo in _compositions(denom, k):
            if all(m > 0 for m in combo):
                p = combine([Fraction(m, denom) for m in combo])
                if p not in seen:
                    seen.add(p)
                    out.append(p)
                    if len(out) >= count:
                        break
        level += 1
    return out[:count]


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


# -- essentialisation ----------------------------------------------------------


def essential_projection(
    datum: RootDatum, levi_indices: Iterable[int], x: Sequence
) -> tuple[Fraction, ...]:
    """Image of a point in the apartment of the Levi of the given type,
    as the tuple of pairings against the Levi's simple roots.

    Linear and surjective; the kernel is the annihilator of the Levi root
    subsystem, so translating by a direction every Levi root kills leaves
    the image unchanged.
    """
    idx = sorted(set(levi_indices))
    v = la.vec(x)
    return tuple(datum.pairing(datum.simples[i], v) for i in idx)


def sub_datum(datum: RootDatum, levi_indices: Iterable[int]) -> RootDatum:
    """The root datum of the Levi subsystem on a subset of the basis."""
    idx = sorted(set(levi_indices))
    pos = {i: k for k, i in enumerate(idx)}
    cartan = tuple(tuple(datum.cartan[i][j] for j in idx) for i in idx)
    roots = []
    for a in datum.roots:
        support = {i for i, c in enumerate(a) if c}
        if support <= set(idx):
            roots.append(tuple(a[i] for i in idx))
    mult = frozenset(
        tuple(a[i] for i in idx)
        for a in datum.multipliable
        if {i for i, c in enumerate(a) if c} <= set(idx)
    )
    sub = RootDatum(
        name=f"{datum.name}|{','.join(datum.labels[i] for i in idx)}",
        rank=len(idx),
        cartan=cartan,
        simple_lengths=tuple(datum.simple_lengths[i] for i in idx),
        roots=tuple(sorted(roots)),
        multipliable=mult,
    )
    return sub


def levi_point_from_pairings(
    datum: RootDatum, levi_indices: Iterable[int], pairings: Sequence[Fraction]
) -> Vec:
    """Coroot coordinates in the Levi apartment matching given pairings."""
    sub = sub_datum(datum, levi_indices)
    sol = la.solve(la.mat(sub.cartan), la.vec(pairings))
    if sol is None:
        raise NonRootSystem("pairings are not realisable in the Levi apartment")
    return sol
