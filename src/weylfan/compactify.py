"""The compactified apartment of a fan: facades, boundary points, limits.

A point of the compactification is a fan cone together with a transverse
coordinate: the base point reduced to the orthogonal complement of the
cone's span under the fixed Weyl-invariant inner product.  Interior points
are the points over the origin cone.  Ray limits and limit profiles are
matched against the fan exactly; a profile whose divergence pattern fits
no cone yields the NoLimit value rather than an error.

*Facade points.*  The invariant form is positive definite, so for any
span S the Gram system of a basis of S is nonsingular, and
`orthogonal_reduction` gives the one point of x + S orthogonal to S.  It
is the library's one facade solver.  In `limit_of_profile`, the roots
vanishing on the matched cone cut out the cone's span S: the fan's sign
table checks that they have rank `len(cone.eqs)` (see *Sign table* in
`fans`).  So the points at which those roots take the profile's finite
values are either none, when the values are contradictory, or a
translate x0 + S, and reducing any such x0 gives the one facade point.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Optional, Sequence, Union

from . import linalg as la
from ._value import Value
from .errors import InconsistentProfile, NonRootSystem
from .fans import Fan
from .linalg import NEG_INF, POS_INF, Vec
from .rootdata import Root, RootDatum, check_same_roots

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


class CompactifiedPoint(Value):
    """A cone of the fan plus the reduced transverse base coordinate.
    Raises as `Fan.read_index` does for the cone index."""

    fan: Fan
    cone_index: int
    base: Vec

    def __post_init__(self) -> None:
        self.fan.read_index(self.cone_index)

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


def orthogonal_reduction(datum: RootDatum, span: Sequence[Vec], x: Sequence) -> Vec:
    """x minus its projection onto the span, for the invariant inner product."""
    x = datum.point(x)
    if not span:
        return x
    images = [la.mat_vec(datum.gram_points, s) for s in span]
    gram = [[la.dot(g, t) for t in span] for g in images]
    coeffs = la.solve(gram, [la.dot(g, x) for g in images])
    return la.sub(x, la.vec_mat(coeffs, span))


def project_to_facade(fan: Fan, cone_index: int, x: Sequence) -> CompactifiedPoint:
    """The class of x in the facade of the cone `Fan.read_index` reads."""
    cone = fan.cones[fan.read_index(cone_index)]
    base = orthogonal_reduction(fan.datum, cone.span_basis, x)
    return CompactifiedPoint(fan, cone_index, base)


def limit_of_ray(fan: Fan, base: Sequence, direction: Sequence) -> CompactifiedPoint:
    """Limit of base + t * direction as t grows, in the compactification.

    The ray converges to the facade of the unique cone containing its
    direction, over the reduced base point.
    """
    d = fan.datum.point(direction)
    if la.is_zero(d):
        raise NonRootSystem("ray direction must be nonzero")
    c = fan.cone_containing(d)
    return project_to_facade(fan, c, base)


def _extended(v) -> ExtendedQ:
    """v as a profile value: an int (a bool is not) as a Fraction, and a
    Fraction or an infinity as itself; InconsistentProfile for any other v."""
    if type(v) is int:
        return Fraction(v)
    if not (isinstance(v, Fraction) or isinstance(v, float) and v in (POS_INF, NEG_INF)):
        raise InconsistentProfile(f"finite profile values must be rational, not {v!r}")
    return v


class LimitProfile(Value):
    """Limiting pairing values of a sequence against every root."""

    datum: RootDatum
    values: tuple[tuple[Root, ExtendedQ], ...]

    def __post_init__(self) -> None:
        for _, v in self.values:  # `_extended` names a bad value; most are plain
            if type(v) is not Fraction and not (type(v) is float and v in (POS_INF, NEG_INF)):
                _extended(v)
        table = dict(self.values)
        if set(table) != set(self.datum.roots):
            raise InconsistentProfile("profile must assign a value to every root")
        for a, v in table.items():
            if table[tuple(-c for c in a)] != -v:
                raise InconsistentProfile(f"profile is not odd at {a}")

    def value(self, a: Root) -> ExtendedQ:
        """The value of root a; NonRootSystem, naming a, unless it is a root."""
        try:
            return dict(self.values)[a]
        except (KeyError, TypeError):  # TypeError: an unhashable a
            raise NonRootSystem(f"{a!r} is not a root of the profile's datum") from None

    @staticmethod
    def of(datum: RootDatum, table: dict[Root, ExtendedQ]) -> "LimitProfile":
        vals = {a: _extended(v) for a, v in table.items()}
        for a in datum.roots:
            if a not in vals:
                neg = tuple(-c for c in a)
                if neg in vals:
                    vals[a] = -vals[neg]
        return LimitProfile(datum, tuple(sorted(vals.items())))


def ray_profile(datum: RootDatum, base: Sequence, direction: Sequence) -> LimitProfile:
    """The limit profile of the ray base + t * direction: each root diverges
    with the sign of its pairing with the direction, or keeps its pairing
    with the base where that is 0.  Each positive nondivisible root a is
    paired once with each point, in integers over one common denominator
    per point; a root c a (`RootDatum.root_slots`, c = e or 2e) takes c
    times those values."""
    (b, bs), (d, _) = (_over_denominator(datum.point(x)) for x in (base, direction))
    positive = datum.positive_nondivisible_roots
    covectors = list(map(datum.covector, positive))
    slopes = [la.dot(f, d) for f in covectors]
    values = [None if s else Fraction(la.dot(f, b), bs) for f, s in zip(covectors, slopes)]
    lead = [next(j for j, x in enumerate(a) if x) for a in positive]  # a coordinate of a not 0
    table = []
    for a, (k, _) in datum.root_slots.items():
        slope, value = slopes[k], values[k]
        c = a[lead[k]] // positive[k][lead[k]]
        if slope:
            table.append((a, POS_INF if (slope > 0) == (c > 0) else NEG_INF))
        else:
            table.append((a, value if c == 1 else c * value))
    return LimitProfile(datum, tuple(sorted(table)))


def _over_denominator(x: Vec) -> tuple[tuple[int, ...], int]:
    """A point of Fractions as integers over their least common denominator."""
    den = lcm(*(c.denominator for c in x))
    return tuple(c.numerator * (den // c.denominator) for c in x), den


def limit_of_profile(
    fan: Fan, profile: LimitProfile, witness: Optional[Sequence] = None
) -> Union[CompactifiedPoint, _NoLimit]:
    """Match a limit profile against the fan.

    A cone fits when every root everywhere-positive on it diverges to
    +infinity in the profile, every root everywhere-negative diverges to
    -infinity, and every root vanishing on it has a finite value; roots of
    mixed sign on the cone are unconstrained.  The finite values must then
    be realisable by a transverse base point, which they pin down uniquely
    (see *Facade points* above).  TypeMismatch unless the profile is one of
    the fan's datum (`rootdata.check_same_roots`).
    """
    datum = fan.datum
    check_same_roots(datum, profile.datum)
    table = dict(profile.values)
    signs = []  # root a is e or 2e times root k; +inf, -inf, rational: 1, -1, 0
    for a, v in table.items():
        k, e = datum.root_slots[a]
        signs.append((k, e * ((v == POS_INF) - (v == NEG_INF))))
    hits = fan.matching_cones(signs)
    if not hits:
        return NoLimit
    if hits.bit_count() > 1:
        raise InconsistentProfile(
            f"profile matches {hits.bit_count()} cones; divergence data is ambiguous"
        )
    idx = hits.bit_length() - 1
    cone = fan.cones[idx]

    vanishing = [a for a, s in zip(datum.roots, fan.root_signs(idx, datum.roots)) if s == 0]
    if vanishing:
        x0 = la.solve([datum.covector(a) for a in vanishing], la.vec(table[a] for a in vanishing))
        if x0 is None:
            raise InconsistentProfile("finite profile values are contradictory")
    else:  # the cone spans V, so every point reduces to the origin
        x0 = la.zero_vec(datum.rank)
    base = orthogonal_reduction(datum, cone.span_basis, x0)
    if witness is not None:
        reduced = orthogonal_reduction(datum, cone.span_basis, witness)
        if reduced != base:
            raise InconsistentProfile("witness disagrees with the profile values")
    return CompactifiedPoint(fan, idx, base)

