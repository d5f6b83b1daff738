"""Gauss seminorms in exact log form: max-plus evaluation of valued
polynomials in the unipotent coordinates of a parabolic type.

Coordinates are indexed by pairs (root, i) with the root ranging over the
weights of the opposite unipotent group (negatives of the positive roots
outside the Levi) and i below the multiplicity of the root.  The seminorm
of a polynomial at an apartment point is the maximum over monomials of the
coefficient log-value plus the exponent-weighted root pairings; boundary
seminorms replace pairings by limiting values, with minus infinity
absorbing every monomial touching a dead coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence, Union

from . import linalg as la
from .compactify import NEG_INF, POS_INF, CompactifiedPoint, LimitProfile
from .errors import NonRootSystem, ProfileMismatch
from .linalg import Vec
from .parabolics import ParabolicType
from .rootdata import Root, RootDatum, WeylElement

LogValue = Union[Fraction, float]  # a rational or -inf


@dataclass(frozen=True)
class ToyGroupDatum:
    """Coordinate data for the seminorm: indexed roots with multiplicities."""

    datum: RootDatum
    type_indices: frozenset[int]
    indexed_roots: tuple[tuple[Root, int], ...]

    @staticmethod
    def for_parabolic(
        datum: RootDatum,
        T: Iterable[int],
        multiplicities: Optional[dict[Root, int]] = None,
    ) -> "ToyGroupDatum":
        """Coordinates on the opposite unipotent of the standard type T."""
        tset = frozenset(T)
        psi = ParabolicType(datum, tset).psi
        return ToyGroupDatum(datum, tset, _index_roots(psi, multiplicities))

    @staticmethod
    def for_full_cell(
        datum: RootDatum, multiplicities: Optional[dict[Root, int]] = None
    ) -> "ToyGroupDatum":
        """Coordinates indexed by every root, for the big-cell seminorm."""
        return ToyGroupDatum(
            datum, frozenset(), _index_roots(tuple(sorted(datum.roots)), multiplicities)
        )

    @cached_property
    def psi(self) -> tuple[Root, ...]:
        seen = []
        for a, _ in self.indexed_roots:
            if a not in seen:
                seen.append(a)
        return tuple(seen)

    def position(self, a: Root, i: int) -> int:
        return self.indexed_roots.index((a, i))

    def relabel(self, w: WeylElement) -> tuple["ToyGroupDatum", tuple[int, ...]]:
        """Transport the coordinates along a Weyl element.

        Returns the relabeled datum together with the permutation sending
        each old coordinate position to its new position; evaluating the
        original seminorm at x on f equals evaluating the relabeled seminorm
        at w(x) on the relabeled polynomial.
        """
        moved = [(w.apply_root(a), i) for a, i in self.indexed_roots]
        order = sorted(range(len(moved)), key=lambda k: moved[k])
        new_indexed = tuple(moved[k] for k in order)
        perm = [0] * len(moved)
        for new_pos, old_pos in enumerate(order):
            perm[old_pos] = new_pos
        out = ToyGroupDatum(self.datum, self.type_indices, new_indexed)
        return out, tuple(perm)


def _index_roots(
    roots: Sequence[Root], multiplicities: Optional[dict[Root, int]]
) -> tuple[tuple[Root, int], ...]:
    multiplicities = multiplicities or {}
    out = []
    for a in sorted(roots):
        n = multiplicities.get(a, 1)
        if n < 1:
            raise NonRootSystem(f"multiplicity of {a} must be at least 1")
        out.extend((a, i) for i in range(1, n + 1))
    return tuple(out)


@dataclass(frozen=True)
class ValuedPolynomial:
    """Finite sum of monomials with coefficient log-values.

    Terms map exponent tuples (aligned with the coordinate index of a
    ToyGroupDatum) to rational log-values; a zero coefficient is simply
    absent.  Products combine coefficients by max-plus convolution and sums
    take coefficientwise maxima, the ultrametric worst case.
    """

    width: int
    terms: tuple[tuple[tuple[int, ...], Fraction], ...]

    @staticmethod
    def from_terms(width: int, table: dict[tuple[int, ...], LogValue]) -> "ValuedPolynomial":
        clean = {}
        for exp, c in table.items():
            if len(exp) != width:
                raise NonRootSystem("exponent width mismatch")
            if any(e < 0 for e in exp):
                raise NonRootSystem("exponents must be nonnegative")
            if isinstance(c, float):
                if c == NEG_INF:
                    continue
                raise NonRootSystem("coefficient log-values must be rational or -inf")
            clean[tuple(int(e) for e in exp)] = Fraction(c)
        return ValuedPolynomial(width, tuple(sorted(clean.items())))

    @staticmethod
    def constant(width: int, logc: LogValue) -> "ValuedPolynomial":
        return ValuedPolynomial.from_terms(width, {(0,) * width: logc})

    @staticmethod
    def coordinate(width: int, position: int, logc: LogValue = Fraction(0)) -> "ValuedPolynomial":
        exp = tuple(1 if k == position else 0 for k in range(width))
        return ValuedPolynomial.from_terms(width, {exp: logc})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def multiply(self, other: "ValuedPolynomial") -> "ValuedPolynomial":
        if self.width != other.width:
            raise NonRootSystem("polynomial width mismatch")
        acc: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 + c2
                if e not in acc or acc[e] < c:
                    acc[e] = c
        return ValuedPolynomial(self.width, tuple(sorted(acc.items())))

    def add(self, other: "ValuedPolynomial") -> "ValuedPolynomial":
        if self.width != other.width:
            raise NonRootSystem("polynomial width mismatch")
        acc = dict(self.terms)
        for e, c in other.terms:
            if e not in acc or acc[e] < c:
                acc[e] = c
        return ValuedPolynomial(self.width, tuple(sorted(acc.items())))

    def shift(self, logc: Fraction) -> "ValuedPolynomial":
        return ValuedPolynomial(
            self.width, tuple((e, c + logc) for e, c in self.terms)
        )

    def relabel(self, perm: Sequence[int]) -> "ValuedPolynomial":
        out = {}
        for e, c in self.terms:
            moved = [0] * self.width
            for pos, count in enumerate(e):
                moved[perm[pos]] = count
            out[tuple(moved)] = c
        return ValuedPolynomial(self.width, tuple(sorted(out.items())))

    def support_within(self, positions: Iterable[int]) -> bool:
        allowed = set(positions)
        return all(
            all(e == 0 or k in allowed for k, e in enumerate(exp))
            for exp, _ in self.terms
        )


@dataclass(frozen=True)
class LogSeminorm:
    """A Gauss seminorm in log coordinates: one value per indexed root."""

    tg: ToyGroupDatum
    values: tuple[LogValue, ...]

    def value_of(self, a: Root, i: int = 1) -> LogValue:
        return self.values[self.tg.position(a, i)]

    def evaluate(self, f: ValuedPolynomial) -> LogValue:
        """log |f| = max over monomials of logc plus exponent-weighted values."""
        if f.width != len(self.values):
            raise NonRootSystem("polynomial does not match the coordinate index")
        best: LogValue = NEG_INF
        for exp, logc in f.terms:
            acc: LogValue = logc
            for e, v in zip(exp, self.values):
                if e == 0:
                    continue
                if isinstance(v, float):
                    acc = NEG_INF
                    break
                acc += e * v
            if isinstance(acc, float):
                continue
            if isinstance(best, float) or acc > best:
                best = acc
        return best

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LogSeminorm)
            and self.tg.indexed_roots == other.tg.indexed_roots
            and self.values == other.values
        )

    def __hash__(self) -> int:
        return hash((self.tg.indexed_roots, self.values))


def theta_restricted(tg: ToyGroupDatum, x: Sequence) -> LogSeminorm:
    """The Gauss seminorm of an apartment point on the unipotent cell.

    Coordinate (a, i) carries the pairing of the root a against x, so the
    seminorm of a polynomial is the maximum over monomials of the
    coefficient log-value plus the pairing-weighted exponents.
    """
    v = la.vec(x)
    values = tuple(tg.datum.pairing(a, v) for a, _ in tg.indexed_roots)
    return LogSeminorm(tg, values)


def theta_full(tg: ToyGroupDatum, x: Sequence) -> LogSeminorm:
    """The big-cell seminorm over all roots; same rule, larger index."""
    if tg.psi != tuple(sorted(tg.datum.roots)):
        raise NonRootSystem("theta_full expects a full-cell coordinate datum")
    return theta_restricted(tg, x)


def theta_boundary(
    tg: ToyGroupDatum, point: Union[CompactifiedPoint, LimitProfile]
) -> LogSeminorm:
    """Boundary seminorm at a compactified point or a limit profile.

    Coordinates whose root dies along the limit become minus infinity and
    absorb every monomial touching them.  A coordinate escaping to plus
    infinity means the input leaves the closed cell; that is a
    ProfileMismatch.
    """
    values = []
    if isinstance(point, CompactifiedPoint):
        cone = point.fan.cones[point.cone_index]
        for a, _ in tg.indexed_roots:
            sign = cone.sign_of(tg.datum.covector(a))
            if sign == 0:
                values.append(tg.datum.pairing(a, point.base))
            elif sign == -1:
                values.append(NEG_INF)
            else:
                raise ProfileMismatch(
                    f"root {a} is unbounded above on the cone; the point "
                    "lies outside the closed cell"
                )
    else:
        table = dict(point.values)
        for a, _ in tg.indexed_roots:
            v = table[a]
            if v == POS_INF:
                raise ProfileMismatch(f"profile assigns +inf to cell coordinate {a}")
            values.append(v)
    return LogSeminorm(tg, tuple(values))


def fiber_direction_space(tg: ToyGroupDatum) -> tuple[Vec, ...]:
    """Directions invisible to every cell coordinate: the annihilator of
    the indexed roots.  Zero exactly when the type is non-degenerate."""
    covs = [tg.datum.covector(a) for a in tg.psi]
    return tuple(la.kernel_basis(covs, tg.datum.rank))


# -- boundary data of rays, carried into a common coordinate chart -----------


def cell_charts(tg: ToyGroupDatum, direction: Sequence) -> list[WeylElement]:
    """Weyl elements whose inverse carries the ray direction into the closed
    cone where every cell coordinate of the type stays bounded above."""
    from .rootdata import weyl_enumerate

    d = la.vec(direction)
    out = []
    for w in weyl_enumerate(tg.datum):
        winv_d = la.solve(w.mat_points, d)
        if winv_d is None:
            continue
        if all(tg.datum.pairing(a, winv_d) <= 0 for a in tg.psi):
            out.append(w)
    return out


def boundary_chart_values(
    tg: ToyGroupDatum, w: WeylElement, base: Sequence, direction: Sequence
) -> tuple[LogValue, ...]:
    """Limiting coordinate values of the ray in the chart moved by w.

    For each indexed root a the value is the limit of the pairing of w(a)
    against base + t * direction; the chart must make all of these bounded
    above (w taken from cell_charts), so each limit is rational or -inf.
    """
    b = la.vec(base)
    d = la.vec(direction)
    out: list[LogValue] = []
    for a, _ in tg.indexed_roots:
        wa = w.apply_root(a)
        slope = tg.datum.pairing(wa, d)
        if slope > 0:
            raise ProfileMismatch("chart does not bound the ray coordinates")
        out.append(NEG_INF if slope < 0 else tg.datum.pairing(wa, b))
    return tuple(out)


def boundary_rays_equal(
    tg: ToyGroupDatum,
    ray1: tuple[Sequence, Sequence],
    ray2: tuple[Sequence, Sequence],
) -> bool:
    """Whether two rays acquire the same boundary seminorm data.

    The rays are compared inside a common chart: a Weyl translate in which
    both stay inside the closed cell.  Rays without a common chart escape
    to different cells and are never equal; when several common charts
    exist their verdicts agree, which is asserted.
    """
    charts1 = set(cell_charts(tg, ray1[1]))
    charts2 = set(cell_charts(tg, ray2[1]))
    common = sorted(charts1 & charts2, key=lambda w: (w.length, w.mat_points))
    if not common:
        return False
    verdicts = {
        boundary_chart_values(tg, w, *ray1) == boundary_chart_values(tg, w, *ray2)
        for w in common
    }
    if len(verdicts) != 1:
        raise ProfileMismatch("chart verdicts disagree; boundary data is inconsistent")
    return verdicts.pop()
