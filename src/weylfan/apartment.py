"""The affine apartment: wall-level groups, special points, extensions.

Each nondivisible root direction carries a set of wall levels.  Two shapes
occur: a lattice (1/d) Z, and, for multipliable roots, the punctured
quarter lattice (1/(4d)) Z minus (1/(2d)) Z whose missing half comes from
the levels of the doubled root.  Both shapes are stable under the
ramification rescaling by 1/e, which multiplies d by e.

*Closed forms.*  Points are in coroot coordinates, so the pairings of x
with the simple roots are C x for the Cartan matrix C, which is
nonsingular, and every root is an integer combination of simple roots.

- `transitivity_solve`.  Let v = C (y - x), N the least integer with
  m = N v / gamma0 in Z^n, and (adj, D) = `RootDatum.cartan_adjugate`, so
  adj = D C^-1 is an integer matrix and D = det C > 0.  Then n = adj m is
  integral, C n = D m = N D v / gamma0, and n gamma0 / (N D) = C^-1 v =
  y - x: the Cartan system has exactly this solution, and it reproduces
  the translation.
- `is_virtually_special`.  Write each coordinate as a rational plus a
  combination of symbols, and let S_s be the column of coefficients of a
  symbol s.  The symbolic part of the simple-root pairings is C S_s, zero
  exactly when S_s is, and then every root pairing is rational.  So x is
  virtually special exactly when no coordinate has a symbol left, as a
  `SymbolicEntry` keeps one nonzero term per symbol.
- `levi_point_from_pairings`.  A Levi Cartan matrix is a principal
  submatrix of C, itself the Cartan matrix of a root system, so it is
  nonsingular and the pairings always have one solution.
- `AffineRootPattern.from_simple_denominators`.  The W-orbit of a
  nondivisible root is fixed by its diagram component, which W keeps, and
  its squared length: the nondivisible roots of a component form an
  irreducible reduced system (B_n for BC_n), where roots of one length are
  conjugate (Bourbaki, *Lie*, ch. VI, 1.3), and to a simple root.  The
  length is read in integers: for a = sum c_j a_j, (a, a) = sum c_j (a,
  a_j) = sum c_j <a, a_j^vee> |a_j|^2 / 2, and the |a_j|^2 are a positive
  multiple of the primitive integer vector w, so sum c_j <a, a_j^vee> w_j
  is |a|^2 up to one positive factor, with no `Fraction`.
- `walls_in_box`.  A linear form sum c_i x_i on the box of the x_i between
  lo_i and hi_i, in either order, ranges from sum min(c_i lo_i, c_i hi_i)
  to sum max(c_i lo_i, c_i hi_i).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul
from typing import Iterable, NamedTuple, Optional, Sequence

from . import linalg as la
from ._value import Value
from .errors import DimensionMismatch, EmptyFacet, NonReduced, NonRootSystem, Unspanned
from .linalg import Vec
from .rootdata import Root, RootDatum, basis_subset, coordinates, positive_int

_RAMIFICATION = "ramification index must be >= 1"


class ValueGroup(Value):
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
        positive_int(self.d, "value group denominator must be positive")

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
        return ValueGroup(self.kind, self.d * positive_int(e, _RAMIFICATION))

    def describe(self) -> dict:
        return {"kind": self.kind, "denominator": self.d}


class ExtensionSpec(Value):
    """A valued field extension seen by the apartment: ramification only."""

    e: int

    def __post_init__(self) -> None:
        positive_int(self.e, _RAMIFICATION)


class AffineRootPattern(Value):
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
        e = positive_int(e, _RAMIFICATION)
        return AffineRootPattern(
            datum=self.datum,
            groups=tuple((a, g.rescale(e)) for a, g in self.groups),
            scale=self.scale * e,
        )

    @staticmethod
    def from_simple_denominators(
        datum: RootDatum, denominators: Sequence[int]
    ) -> "AffineRootPattern":
        """Assign a denominator per Weyl orbit via the simple roots, each
        orbit read as a diagram component and a squared length (see *Closed
        forms* above).  Two simple roots in one orbit must be given equal
        denominators."""
        if not isinstance(denominators, Sequence):
            raise NonRootSystem(f"denominators {denominators!r} are not a sequence")
        if len(denominators) != datum.rank:
            raise NonRootSystem("need one denominator per simple root")
        component = {i: c for c in datum.diagram_components for i in c}
        roots = datum.positive_nondivisible_roots
        columns = la.transpose(datum.cartan)
        weights = la.primitive(datum.simple_lengths)  # ints in the ratios of the |a_j|^2

        def length(a: Root) -> int:
            """|a|^2 up to one positive factor (see *Closed forms* above)."""
            return sum(c * w * la.dot(a, col) for c, w, col in zip(a, weights, columns))

        # a positive root lies in the component of its largest coefficient
        orbit = {a: (component[a.index(max(a))], length(a)) for a in roots}
        first: dict[tuple, int] = {}  # the first simple root of each orbit
        for i, s in enumerate(datum.simples):
            j = first.setdefault(orbit[s], i)
            if j != i and denominators[j] != denominators[i]:
                raise NonRootSystem("inconsistent denominators inside one Weyl orbit")
        groups = []
        for a in roots:
            kind = "bc" if a in datum.multipliable else "lattice"
            groups.append((a, ValueGroup(kind, denominators[first[orbit[a]]])))
        return AffineRootPattern(datum, tuple(sorted(groups)))


class Apartment(Value):
    """Affine space over the coroot lattice with an affine root pattern."""

    datum: RootDatum
    pattern: AffineRootPattern


def make_apartment(
    datum: RootDatum, denominators: Optional[Sequence[int]] = None
) -> Apartment:
    """The apartment whose wall levels have the given denominator on the
    orbit of each simple root; denominator 1 everywhere when None."""
    if denominators is None:
        denominators = [1] * datum.rank
    return Apartment(datum, AffineRootPattern.from_simple_denominators(datum, denominators))


# -- symbolic coordinates for the virtually-special test ---------------------


class SymbolicEntry(Value):
    """rational + sum of irrational symbols with rational coefficients; the
    terms are kept one per symbol, nonzero and sorted.  The rational part
    and each coefficient are read as `rootdata.coordinates` reads a
    coordinate, and each symbol must be a string, so NonRootSystem
    otherwise."""

    rational: Fraction
    symbols: tuple[tuple[str, Fraction], ...] = ()

    def __post_init__(self) -> None:
        (rational,) = coordinates([self.rational])
        try:
            terms = [(s, v) for s, v in self.symbols]
        except (TypeError, ValueError):  # None, 5, (("s", 1, 2),)
            raise NonRootSystem(
                f"symbols {self.symbols!r} are not (symbol, coefficient) pairs"
            ) from None
        for s, _ in terms:
            if not isinstance(s, str):
                raise NonRootSystem(f"symbol {s!r} is not a string")
        acc: dict[str, Fraction] = {}
        for (s, _), v in zip(terms, coordinates(v for _, v in terms)):
            acc[s] = acc.get(s, 0) + v
        object.__setattr__(self, "rational", rational)
        object.__setattr__(self, "symbols", tuple(sorted((s, v) for s, v in acc.items() if v)))

    @staticmethod
    def of(value, symbol: Optional[str] = None) -> "SymbolicEntry":
        """value, plus symbol if one is given.  value is read as
        `rootdata.coordinates` reads a coordinate, so NonRootSystem unless
        it is a finite rational number."""
        return SymbolicEntry(value, () if symbol is None else ((symbol, 1),))

    def plus(self, other: "SymbolicEntry") -> "SymbolicEntry":
        return SymbolicEntry(self.rational + other.rational, self.symbols + other.symbols)

    @property
    def is_rational(self) -> bool:
        return not self.symbols


SymbolicPoint = tuple  # alias: a tuple of SymbolicEntry


# -- special points -----------------------------------------------------------


def is_special_vertex(apt: Apartment, x: Sequence) -> bool:
    """Whether x lies on a wall in every nondivisible root direction.

    For a multipliable root the walls of the root and of its double both
    count, which makes the admissible level set the full quarter lattice
    (1/(4d)) Z of `wall_denominator`; so x is special exactly when its
    `special_witness` is 1.
    """
    return special_witness(apt, x) == 1


def is_virtually_special(apt: Apartment, x: Sequence) -> bool:
    """Whether every root pairing at x is rational.

    Accepts plain rational points (always True) and points with marked
    irrational coordinates, for which the symbolic parts must cancel in
    every root direction: see *Closed forms* above.
    """
    try:
        if isinstance(x, (str, bytes)):
            raise TypeError
        x = iter(x)
    except TypeError:  # None, 5, "12", as `rootdata.coordinates` rejects them
        raise NonRootSystem(f"{x!r} is not a sequence of coordinates") from None
    entries = [c if isinstance(c, SymbolicEntry) else SymbolicEntry.of(c) for c in x]
    apt.datum.point([e.rational for e in entries])  # rejects a point of the wrong length
    return all(e.is_rational for e in entries)


def special_witness(apt: Apartment, x: Sequence) -> int:
    """Least e >= 1 such that x is special after rescaling the pattern by e."""
    p = apt.datum.point(x)
    e = 1
    for a in apt.datum.positive_nondivisible_roots:
        v = apt.datum.pairing(a, p)
        g = apt.pattern.group_of(a)
        e = lcm(e, (v * g.wall_denominator()).denominator)
    return e


def embed_extension(apt: Apartment, ext: ExtensionSpec) -> Apartment:
    """Apartment after base change: same points, levels scaled by 1/e."""
    return Apartment(apt.datum, apt.pattern.rescale(ext.e))


def walls_in_box(apt: Apartment, lo: Sequence, hi: Sequence) -> list[tuple[Root, Fraction]]:
    """All walls (root direction, level) meeting a coordinate box, exactly,
    from the bounds of each root on the box (see *Closed forms* above)."""
    lo, hi = apt.datum.point(lo), apt.datum.point(hi)
    out = []
    for a in apt.datum.positive_nondivisible_roots:
        ends = [(c * l, c * h) for c, l, h in zip(apt.datum.covector(a), lo, hi)]
        vmin, vmax = sum(map(min, ends)), sum(map(max, ends))
        step = Fraction(1, apt.pattern.group_of(a).wall_denominator())
        level = -(-vmin // step) * step  # the least multiple of step >= vmin
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
    translation by sum n_a' a'^vee * gamma0 / (N D) reproduces y - x; see
    *Closed forms* above.
    """
    positive_int(gamma_denominator, "value group denominator must be positive")
    if not datum.is_reduced():
        raise NonReduced("the Cartan system is set up for reduced root systems")
    if not datum.essential:
        raise Unspanned("the basis does not span the ambient space")
    diff = la.sub(datum.point(y), datum.point(x))
    gamma0 = Fraction(1, gamma_denominator)
    pairings = [datum.pairing(s, diff) / gamma0 for s in datum.simples]
    N = lcm(1, *(v.denominator for v in pairings))
    adj, D = datum.cartan_adjugate
    n = la.mat_vec(adj, [int(N * v) for v in pairings])
    return TransitivitySolution(N, n, D, gamma0)


# -- dense rational sampling ---------------------------------------------------


def rational_dense_sample(
    apt: Apartment, facet_vertices: Sequence[Sequence], count: int
) -> list[Vec]:
    """Rational points strictly inside the open polysimplex with the given
    vertices: the barycenter first, then dyadic-weight refinements.

    Each distinct vertex counts once, so a facet whose vertices are all one
    point collapses to that point.  Every returned point is a positive
    rational convex combination of the vertices, hence virtually special.
    `count` is an int of at least 1.
    """
    positive_int(count, "sample count must be >= 1")
    vertices = list(dict.fromkeys(apt.datum.point(v) for v in facet_vertices))
    if not vertices:
        raise EmptyFacet("facet has no vertices")
    k = len(vertices)
    if k == 1:
        return vertices

    def combine(weights: Sequence[Fraction]) -> Vec:
        return tuple(sum(map(mul, weights, coords)) for coords in zip(*vertices))

    out = dict.fromkeys([combine([Fraction(1, k)] * k)])  # insertion-ordered points
    level = 0
    while len(out) < count and level < 39:
        level += 1
        for parts in _positive_compositions(1 << level, k):
            out.setdefault(combine([Fraction(m, 1 << level) for m in parts]))
            if len(out) == count:
                break
    return list(out)


def _positive_compositions(total: int, parts: int):
    """`total` as `parts` positive summands, one way at a time, in
    lexicographic order, with no recursion: the successor of c raises the
    entry before its last entry j above 1 and moves c_j - 1 to the end."""
    if total < parts:
        return
    c = [1] * parts
    c[-1] = total - parts + 1
    while True:
        yield tuple(c)
        j = parts - 1
        while j and c[j] == 1:
            j -= 1
        if not j:
            return
        c[j - 1] += 1
        c[j], c[-1] = 1, c[j] - 1


# -- essentialisation ----------------------------------------------------------


def validate_levi(datum: RootDatum, levi_indices: Iterable[int]) -> list[int]:
    """The Levi indices sorted, without repeats; raises NonRootSystem unless
    each is an int indexing a simple root (a negative index does not wrap)."""
    idx, bad = basis_subset(datum, levi_indices)
    if bad:
        raise NonRootSystem(f"Levi indices {bad} are not indices of the {datum.rank} simple roots")
    return sorted(idx)


def essential_projection(
    datum: RootDatum, levi_indices: Iterable[int], x: Sequence
) -> tuple[Fraction, ...]:
    """Image of a point in the apartment of the Levi of the given type,
    as the tuple of pairings against the Levi's simple roots.

    Linear and surjective; the kernel is the annihilator of the Levi root
    subsystem, so translating by a direction every Levi root kills leaves
    the image unchanged.
    """
    idx = validate_levi(datum, levi_indices)
    v = datum.point(x)
    return tuple(datum.pairing(datum.simples[i], v) for i in idx)


def sub_datum(datum: RootDatum, levi_indices: Iterable[int]) -> RootDatum:
    """The root datum of the Levi subsystem on a subset of the basis."""
    idx = validate_levi(datum, levi_indices)
    inside = datum.levi_roots(idx)
    return RootDatum(
        name=f"{datum.name}|{','.join(datum.labels[i] for i in idx)}",
        rank=len(idx),
        cartan=tuple(tuple(datum.cartan[i][j] for j in idx) for i in idx),
        simple_lengths=tuple(datum.simple_lengths[i] for i in idx),
        roots=tuple(sorted(tuple(a[i] for i in idx) for a in inside)),
        multipliable=frozenset(tuple(a[i] for i in idx) for a in inside if a in datum.multipliable),
    )


def levi_point_from_pairings(
    datum: RootDatum, levi_indices: Iterable[int], pairings: Sequence[Fraction]
) -> Vec:
    """Coroot coordinates in the Levi apartment matching given pairings, one
    per Levi simple root in increasing order; raises DimensionMismatch for
    any other number of pairings, and NonRootSystem as `coordinates` does."""
    sub = sub_datum(datum, levi_indices)
    pairings = coordinates(pairings)
    if len(pairings) != sub.rank:
        raise DimensionMismatch(
            f"{len(pairings)} pairings given for the {sub.rank} simple roots of {sub.name}"
        )
    return la.solve(sub.cartan, pairings)
