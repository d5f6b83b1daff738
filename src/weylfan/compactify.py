"""The compactified apartment of a fan: facades, boundary points, limits.

A point of the compactification is a fan cone together with a transverse
coordinate: the base point reduced to the orthogonal complement of the
cone's span under the fixed Weyl-invariant inner product.  Interior points
are the points over the origin cone.  Ray limits and limit profiles are
matched against the fan exactly; a profile whose divergence pattern fits
no cone yields the NoLimit value rather than an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from . import linalg as la
from .errors import InconsistentProfile, NonRootSystem
from .fans import Fan
from .linalg import Vec
from .rootdata import Root, RootDatum

POS_INF = float("inf")
NEG_INF = float("-inf")

ExtendedQ = Union[Fraction, float]  # a rational or an infinity


class _NoLimit:
    """Divergence marker: the profile matches no cone of the fan."""

    _instance: Optional["_NoLimit"] = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NoLimit"

    def __bool__(self) -> bool:
        return False


NoLimit = _NoLimit()


@dataclass(frozen=True)
class CompactifiedPoint:
    """A cone of the fan plus the reduced transverse base coordinate."""

    fan: Fan
    cone_index: int
    base: Vec

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CompactifiedPoint)
            and self.fan.datum == other.fan.datum
            and self.fan.J == other.fan.J
            and self.cone_index == other.cone_index
            and self.base == other.base
        )

    def __hash__(self) -> int:
        return hash((self.fan.J, self.cone_index, self.base))

    @property
    def is_interior(self) -> bool:
        return self.cone_index == self.fan.origin_index

    @property
    def facade_dim(self) -> int:
        return self.fan.datum.rank - self.fan.cones[self.cone_index].dim

    def __repr__(self) -> str:  # pragma: no cover
        return f"CompactifiedPoint(cone={self.cone_index}, base={self.base})"


def orthogonal_reduction(datum: RootDatum, span: Sequence[Vec], x: Vec) -> Vec:
    """x minus its projection onto the span, for the invariant inner product."""
    if not span:
        return x
    m = datum.gram_points
    gram = [[la.dot(la.mat_vec(m, s), t) for t in span] for s in span]
    rhs = [la.dot(la.mat_vec(m, s), x) for s in span]
    coeffs = la.solve(la.mat(gram), la.vec(rhs))
    if coeffs is None:
        raise NonRootSystem("degenerate Gram system in facade reduction")
    proj = la.zero_vec(len(x))
    for c, s in zip(coeffs, span):
        proj = la.add(proj, la.scale(s, c))
    return la.sub(x, proj)


def project_to_facade(fan: Fan, cone_index: int, x: Sequence) -> CompactifiedPoint:
    """The class of x in the facade of the given cone."""
    cone = fan.cones[cone_index]
    base = orthogonal_reduction(fan.datum, cone.span_basis, la.vec(x))
    return CompactifiedPoint(fan, cone_index, base)


def limit_of_ray(fan: Fan, base: Sequence, direction: Sequence) -> CompactifiedPoint:
    """Limit of base + t * direction as t grows, in the compactification.

    The ray converges to the facade of the unique cone containing its
    direction, over the reduced base point.
    """
    d = la.vec(direction)
    if la.is_zero(d):
        raise NonRootSystem("ray direction must be nonzero")
    c = fan.cone_containing(d)
    return project_to_facade(fan, c, base)


@dataclass(frozen=True)
class LimitProfile:
    """Limiting pairing values of a sequence against every root."""

    datum: RootDatum
    values: tuple[tuple[Root, ExtendedQ], ...]

    def __post_init__(self) -> None:
        table = dict(self.values)
        if set(table) != set(self.datum.roots):
            raise InconsistentProfile("profile must assign a value to every root")
        for a, v in table.items():
            w = table[tuple(-c for c in a)]
            if isinstance(v, Fraction) or isinstance(v, int):
                if w != -v:
                    raise InconsistentProfile(f"profile is not odd at {a}")
            elif v == POS_INF and w != NEG_INF:
                raise InconsistentProfile(f"profile is not odd at {a}")
            elif v == NEG_INF and w != POS_INF:
                raise InconsistentProfile(f"profile is not odd at {a}")

    def value(self, a: Root) -> ExtendedQ:
        return dict(self.values)[a]

    @staticmethod
    def of(datum: RootDatum, table: dict[Root, ExtendedQ]) -> "LimitProfile":
        vals = {}
        for a, v in table.items():
            if isinstance(v, float):
                if v not in (POS_INF, NEG_INF):
                    raise InconsistentProfile("finite profile values must be rational")
                vals[a] = v
            else:
                vals[a] = Fraction(v)
        for a in datum.roots:
            if a not in vals:
                neg = tuple(-c for c in a)
                if neg in vals:
                    w = vals[neg]
                    if isinstance(w, float):
                        vals[a] = NEG_INF if w == POS_INF else POS_INF
                    else:
                        vals[a] = -w
        return LimitProfile(datum, tuple(sorted(vals.items())))


def ray_profile(datum: RootDatum, base: Sequence, direction: Sequence) -> LimitProfile:
    """The limit profile of the ray base + t * direction."""
    b = la.vec(base)
    d = la.vec(direction)
    table: dict[Root, ExtendedQ] = {}
    for a in datum.roots:
        slope = datum.pairing(a, d)
        if slope > 0:
            table[a] = POS_INF
        elif slope < 0:
            table[a] = NEG_INF
        else:
            table[a] = datum.pairing(a, b)
    return LimitProfile(datum, tuple(sorted(table.items())))


def limit_of_profile(
    fan: Fan, profile: LimitProfile, witness: Optional[Sequence] = None
) -> Union[CompactifiedPoint, _NoLimit]:
    """Match a limit profile against the fan.

    A cone fits when every root everywhere-positive on it diverges to
    +infinity in the profile, every root everywhere-negative diverges to
    -infinity, and every root vanishing on it has a finite value; roots of
    mixed sign on the cone are unconstrained.  The finite values must then
    be realisable by a transverse base point, which they pin down uniquely.
    """
    datum = fan.datum
    table = dict(profile.values)
    matches = []
    for i, cone in enumerate(fan.cones):
        ok = True
        for a in datum.roots:
            sign = cone.sign_of(datum.covector(a))
            v = table[a]
            if sign == 1 and v != POS_INF:
                ok = False
            elif sign == -1 and v != NEG_INF:
                ok = False
            elif sign == 0 and isinstance(v, float):
                ok = False
            if not ok:
                break
        if ok:
            matches.append(i)
    if not matches:
        return NoLimit
    if len(matches) > 1:
        raise InconsistentProfile(
            f"profile matches {len(matches)} cones; divergence data is ambiguous"
        )
    idx = matches[0]
    cone = fan.cones[idx]

    vanishing = [a for a in datum.roots if cone.sign_of(datum.covector(a)) == 0]
    n = datum.rank
    rows = [datum.covector(a) for a in vanishing]
    rhs = [table[a] for a in vanishing]
    # transverse orthogonality pins the remaining coordinates
    m = datum.gram_points
    for s in cone.span_basis:
        rows.append(la.mat_vec(m, s))
        rhs.append(Fraction(0))
    if la.rank(rows) != n:
        raise InconsistentProfile(
            "vanishing roots do not determine the facade coordinate"
        )
    base = la.solve(la.mat(rows), la.vec([Fraction(v) for v in rhs]))
    if base is None:
        raise InconsistentProfile("finite profile values are contradictory")
    for row, want in zip(rows, rhs):
        if la.dot(row, base) != want:
            raise InconsistentProfile("finite profile values are contradictory")
    if witness is not None:
        reduced = orthogonal_reduction(datum, cone.span_basis, la.vec(witness))
        if reduced != base:
            raise InconsistentProfile("witness disagrees with the profile values")
    return CompactifiedPoint(fan, idx, base)

