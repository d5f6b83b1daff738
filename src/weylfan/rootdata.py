"""Finite root systems over the rationals, possibly non-reduced (BC types).

Internal model: the ambient point space V is spanned by the simple coroots,
so a point is a tuple of rationals in coroot coordinates.  A root is stored
as its integer coefficient tuple over the basis; its pairing covector
against coroot coordinates is the corresponding row combination of the
Cartan matrix.  The fixed Weyl-invariant inner product normalises short
simple roots to squared length 2 on each irreducible component.

*Validation.*  `RootDatum.validate` takes time linear in the roots R
(integer tuples over the basis a_1..a_n).  Past the checks of shape (n
rows of n Cartan entries, n squared lengths) and of R itself (no
duplicate, no zero, closed under negation, one sign over the basis),
the Cartan matrix C must have 2 on its diagonal and the squared lengths L
must be positive with C[i][j] L_j = C[j][i] L_i.  Then (a, b) =
sum a_i C[i][j] L_j b_j / 2 is symmetric, and `reflect_simple` on the
columns of C, s_k a = a - <a, a_k^vee> a_k, is the reflection in a_k.
Next each a_k must be a root, each s_k map R into R, and R be the orbits
of the a_k plus twice those of the a_k with 2 a_k a root; this walk stays
in R, so it ends.  Then each b in R is w a_k or 2 w a_k for a word w in
the s_k, and s_b = w s_k w^-1 (Humphreys, *Reflection Groups and Coxeter
Groups*, 1.2) maps R onto R.  Its pairings <a, b^vee> are <w^-1 a,
a_k^vee>, an integer, or half of it, an integer for every a in R exactly
when C[j][k] is even for all j != k.  Conversely, in a root system each
positive root b that is no multiple of a simple root pairs positively
with some a_k, as (b, b) > 0, and s_k b is positive of smaller height; so
b is conjugate to some m a_k, and <a_k, (m a_k)^vee> = 2/m is an integer
only for m = 1, 2 (Humphreys 1.5).  A root a with 2a = w m a_k has m = 2,
as a_k is primitive: the multipliable roots are the orbits of the doubled a_k.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import product
from numbers import Real
from typing import Callable, Iterable, Optional, Sequence

from . import linalg as la
from ._value import Value
from .errors import DimensionMismatch, NonRootSystem, TypeMismatch
from .linalg import Mat, Vec

Root = tuple[int, ...]  # coefficients over the simple basis


def walk_orbits(seeds: dict, moves: int, image: Callable, make: Optional[Callable] = None) -> dict:
    """Breadth-first closure of the items `seeds` (a dict key -> item) under
    `moves` maps, as a dict in discovery order.  `image(x, k)` is the key of
    the image of item x under map k; `make(x, k, key)` builds that image
    (the key itself when `make` is None) once per new key, so a repeated
    image costs one key lookup."""
    found = dict(seeds)
    walk = list(found.values())
    for x in walk:  # grows while it is walked
        for k in range(moves):
            key = image(x, k)
            if key not in found:
                found[key] = y = key if make is None else make(x, k, key)
                walk.append(y)
    return found


def reflect_simple(rows: Sequence[Vec], v: Vec, k: int) -> Vec:
    """The simple reflection s_k, which moves coordinate k only: on coroot
    coordinates of a point with `rows` the Cartan matrix (p - <a_k, p> a_k^vee),
    on the coefficients of a root with `rows` its transpose (a - <a, a_k^vee> a_k)."""
    return v[:k] + (v[k] - la.dot(rows[k], v),) + v[k + 1:]


def point_orbits(cartan: Sequence[Vec], seeds: Iterable[Vec]) -> dict[Vec, Vec]:
    """The points `seeds` (coroot coordinates) closed under the simple reflections."""
    return walk_orbits({p: p for p in seeds}, len(cartan), partial(reflect_simple, cartan))


def _generated_roots(cartan: Sequence[Vec], doubled: Iterable[int]) -> tuple[set, frozenset]:
    """The orbits of the simple roots plus twice those of the `doubled` ones, and the latter."""
    n, simples = len(cartan), la.identity(len(cartan))
    reflect = partial(reflect_simple, la.transpose(cartan))
    multipliable = frozenset(walk_orbits({simples[i]: simples[i] for i in doubled}, n, reflect))
    roots = walk_orbits({s: s for s in simples}, n, reflect)
    return set(roots) | {la.scale(a, 2) for a in multipliable}, multipliable


def _cartan_chain(n: int) -> list[list[int]]:
    c = [[0] * n for _ in range(n)]
    for i in range(n):
        c[i][i] = 2
        if i + 1 < n:
            c[i][i + 1] = -1
            c[i + 1][i] = -1
    return c


def _catalogue_cartan(family: str, n: int) -> tuple[list[list[int]], bool]:
    """Return (cartan, non_reduced); BC_n has the Cartan matrix of B_n."""
    if family == "A" and n >= 1:
        return _cartan_chain(n), False
    if (family == "B" and n >= 2) or (family == "BC" and n >= 1):
        c = _cartan_chain(n)
        if n > 1:
            c[n - 2][n - 1] = -2
        return c, family == "BC"
    if family == "C" and n >= 2:
        c = _cartan_chain(n)
        c[n - 1][n - 2] = -2
        return c, False
    if family == "D" and n >= 3:  # the last node hangs off n - 3, not n - 2
        c = _cartan_chain(n)
        c[n - 2][n - 1] = c[n - 1][n - 2] = 0
        c[n - 3][n - 1] = c[n - 1][n - 3] = -1
        return c, False
    if family == "G" and n == 2:
        return [[2, -1], [-3, 2]], False
    if family == "F" and n == 4:
        c = _cartan_chain(4)
        c[1][2] = -2
        return c, False
    raise NonRootSystem(f"unknown catalogue entry {family}{n}")


def _simple_lengths(cartan: Sequence[Sequence[int]]) -> tuple[Fraction, ...]:
    """The squared lengths of the simple roots, the weights that make the
    Cartan matrix symmetric: cartan[i][j] |a_j|^2 = cartan[j][i] |a_i|^2
    (both are 2 (a_i, a_j)).  Along each edge of the diagram one length fixes
    the other, so they are fixed up to one factor per component, which sets
    the shortest simple root there to 2."""
    n = len(cartan)
    lengths: list = [None] * n

    def across(i: int, j: int, _) -> int:  # the edge i - j fixes |a_j|^2
        lengths[j] = lengths[i] * cartan[j][i] / cartan[i][j]
        return j

    for seed in range(n):
        if lengths[seed] is None:
            lengths[seed] = Fraction(1)
            comp = walk_orbits({seed: seed}, n, lambda i, j: j if cartan[i][j] else i, across)
            shortest = min(lengths[i] for i in comp)
            for i in comp:
                lengths[i] = 2 * lengths[i] / shortest
    return tuple(lengths)


def _parse_catalogue_name(name: str) -> list[tuple[str, int]]:
    factors = []
    for part in name.split("x"):
        part = part.strip()
        fam = "".join(ch for ch in part if ch.isalpha()).upper()
        num = part[len(fam):]
        if not fam or not num.isdigit():
            raise NonRootSystem(f"cannot parse root system name {part!r}")
        factors.append((fam, int(num)))
    return factors


def coordinates(x: Iterable) -> Vec:
    """x as a tuple of Fractions; raises NonRootSystem unless x is an
    iterable of finite rational numbers, naming the first entry that is not.
    `Fraction` reads a string and a bool, but neither is such a number, and
    a string is no sequence of them."""
    try:
        if isinstance(x, (str, bytes)):
            raise TypeError
        entries = iter(x)
    except TypeError:  # None, 5, "12"
        raise NonRootSystem(f"{x!r} is not a sequence of coordinates") from None
    coords = []
    for c in entries:
        try:
            if isinstance(c, (str, bool)):
                raise TypeError
            coords.append(Fraction(c))
        except (TypeError, ValueError, OverflowError):  # None, "1", True, NaN, inf
            raise NonRootSystem(f"coordinate {c!r} is not a finite rational number") from None
    return tuple(coords)


class RootDatum(Value):
    """A root system with basis, Cartan matrix and invariant inner product."""

    name: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    simple_lengths: tuple[Fraction, ...]  # squared lengths of simple roots
    roots: tuple[Root, ...]
    multipliable: frozenset[Root]
    essential: bool = True
    input_rank: Optional[int] = None

    # -- basic structure ---------------------------------------------------

    @cached_property
    def simples(self) -> tuple[Root, ...]:
        return la.identity(self.rank)

    @cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(f"a{i + 1}" for i in range(self.rank))

    @cached_property
    def root_set(self) -> frozenset[Root]:
        return frozenset(self.roots)

    @cached_property
    def positive_roots(self) -> tuple[Root, ...]:
        return tuple(a for a in self.roots if all(c >= 0 for c in a))

    @cached_property
    def nondivisible_roots(self) -> tuple[Root, ...]:
        doubles = {la.scale(a, 2) for a in self.roots}
        return tuple(a for a in self.roots if a not in doubles)

    @cached_property
    def positive_nondivisible_roots(self) -> tuple[Root, ...]:
        return tuple(a for a in self.nondivisible_roots if all(c >= 0 for c in a))

    @cached_property
    def root_permutations(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Per simple reflection s_k, the signed permutation it makes of the
        `positive_nondivisible_roots` P_0, P_1, ..., as (p, m): s_k P_j is
        P_p[j], but for P_m = alpha_k, which goes to -alpha_k.  s_k permutes
        the positive roots other than alpha_k and 2 alpha_k (Humphreys,
        *Reflection Groups and Coxeter Groups*, 1.4), and a linear map keeps
        a root nondivisible, so this holds on BC types too."""
        columns = la.transpose(self.cartan)
        roots = self.positive_nondivisible_roots
        return tuple(
            (
                tuple(self.root_slots[reflect_simple(columns, a, k)][0] for a in roots),
                roots.index(simple),
            )
            for k, simple in enumerate(self.simples)
        )

    @cached_property
    def root_slots(self) -> dict[Root, tuple[int, int]]:
        """Every root b as (k, e): b is e or 2e times the positive
        nondivisible root k, with e = 1 or -1."""
        return {
            b: (k, e)
            for k, a in enumerate(self.positive_nondivisible_roots)
            for e in (1, -1)
            for b in (la.scale(a, e), la.scale(a, 2 * e))
            if b in self.root_set
        }

    def is_reduced(self) -> bool:
        return not self.multipliable

    @cached_property
    def _supports(self) -> tuple[frozenset[int], ...]:
        """Per root of `roots`, the simple roots with a nonzero coefficient."""
        return tuple(frozenset(i for i, c in enumerate(a) if c) for a in self.roots)

    def levi_roots(self, subset: Iterable[int]) -> tuple[Root, ...]:
        """The roots supported on `subset` of the basis, in `roots` order:
        the Levi subsystem of that type."""
        inside = simple_indices(self, subset)
        return tuple(a for a, s in zip(self.roots, self._supports) if s <= inside)

    # -- pairings and inner products ---------------------------------------

    def point(self, x: Sequence) -> Vec:
        """x as a point of the ambient space (rational coroot coordinates);
        raises DimensionMismatch unless it has `rank` coordinates, and
        NonRootSystem as `coordinates` does."""
        coords = coordinates(x)
        if len(coords) != self.rank:
            raise DimensionMismatch(
                f"point has {len(coords)} coordinates, {self.name} has rank {self.rank}"
            )
        return tuple(coords)

    @cached_property
    def gram_points(self) -> Mat:
        """Inner products of the simple coroots (the form on point space V)."""
        return tuple(
            tuple(2 * Fraction(c) / length for c in row)
            for row, length in zip(self.cartan, self.simple_lengths)
        )

    @cached_property
    def _covectors(self) -> dict[Root, Vec]:
        return {a: la.vec_mat(a, self.cartan) for a in self.roots}

    def covector(self, a: Root) -> Vec:
        """The linear form <a, .> on coroot coordinates."""
        cached = self._covectors.get(a)
        return cached if cached is not None else la.vec_mat(a, self.cartan)

    def pairing(self, a: Root, x: Vec) -> Fraction:
        return la.dot(self.covector(a), x)

    def _weighted(self, b: Root) -> Vec:
        """(b_j |alpha_j|^2)_j: (alpha_i, alpha_j) is cartan[i][j] |alpha_j|^2 / 2,
        so (a, b) is covector(a) . _weighted(b) / 2."""
        return tuple(c * l for c, l in zip(b, self.simple_lengths))

    def inner(self, a: Root, b: Root) -> Fraction:
        return la.dot(self.covector(a), self._weighted(b)) / 2

    def length_sq(self, a: Root) -> Fraction:
        return self.inner(a, a)

    @cached_property
    def simple_reflections(self) -> tuple["WeylElement", ...]:
        """The simple reflections s_k as Weyl elements; W is not enumerated."""
        return tuple(WeylElement(self, (k,)) for k in range(self.rank))

    @cached_property
    def weyl_order(self) -> int:
        """|W|, without enumerating W, from a stabiliser chain.  The
        stabiliser of a dominant point is generated by the simple reflections
        fixing it (Humphreys, *Reflection Groups and Coxeter Groups*, 1.12),
        so |W| = |W w_k| |W_{S-k}| for the fundamental coweight w_k; then
        recurse on the Cartan submatrix of S - k.  An end node k of the
        diagram keeps the orbits small: n + 1 points on A_n."""
        order, cartan = 1, self.cartan
        while cartan:
            n = len(cartan)
            k = min(range(n), key=lambda i: sum(map(bool, cartan[i])))  # fewest neighbours
            coweight = la.primitive(tuple(row[k] for row in la.inverse(cartan)))
            order *= len(point_orbits(cartan, [coweight]))
            rest = [i for i in range(n) if i != k]
            cartan = [[cartan[i][j] for j in rest] for i in rest]
        return order

    @cached_property
    def cartan_adjugate(self) -> tuple[Mat, int]:
        """(d C^-1, d), d = det C > 0, for the Cartan matrix C (`la.scaled_inverse`)."""
        return la.scaled_inverse(self.cartan)

    @cached_property
    def regular_point(self) -> Vec:
        """rho^vee = d C^-1 (1, ..., 1): each simple root is d > 0 on it, so it is
        regular dominant, with trivial stabiliser in W (Humphreys 1.12)."""
        return la.mat_vec(self.cartan_adjugate[0], (1,) * self.rank)

    def fundamental_coweights(self) -> tuple[Vec, ...]:
        """Vectors dual to the simple roots: <alpha_i, w_j> = delta_ij."""
        adjugate, d = self.cartan_adjugate
        return tuple(tuple(Fraction(x, d) for x in w) for w in la.transpose(adjugate))

    # -- Dynkin diagram ----------------------------------------------------

    def adjacent(self, i: int, j: int) -> bool:
        return i != j and self.cartan[i][j] != 0

    @cached_property
    def diagram_components(self) -> tuple[frozenset[int], ...]:
        return tuple(components(self, frozenset(range(self.rank))))

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        """Raise NonRootSystem unless this is a root system; see *Validation* above."""
        roots, root_set, simples = self.roots, self.root_set, self.simples
        n, cartan, lengths = self.rank, self.cartan, self.simple_lengths
        if len(cartan) != n or any(len(row) != n for row in cartan):
            raise NonRootSystem(f"Cartan matrix is not {n} rows of {n} entries")
        if len(lengths) != n:
            raise NonRootSystem(f"simple lengths have {len(lengths)} entries, not {n}")
        if len(root_set) != len(roots):
            raise NonRootSystem("duplicate roots")
        if (0,) * n in root_set:
            raise NonRootSystem("zero is not a root")
        for a in roots:
            if len(a) != n:
                raise NonRootSystem(f"root {a} does not have {n} coefficients")
            if la.neg(a) not in root_set:
                raise NonRootSystem(f"root set not closed under negation at {a}")
            if min(a) < 0 < max(a):
                raise NonRootSystem(f"root {a} has mixed signs over the basis")
        for a in self.multipliable:
            if la.scale(a, 2) not in root_set:
                raise NonRootSystem(f"{a} flagged multipliable but 2a is not a root")
        for i in range(n):
            if cartan[i][i] != 2:
                raise NonRootSystem(f"Cartan entry {cartan[i][i]} at a{i + 1}, a{i + 1} is not 2")
            if not lengths[i] > 0:
                raise NonRootSystem(f"squared length {lengths[i]} of a{i + 1} is not positive")
        for i, j in product(range(n), repeat=2):
            if cartan[i][j] * lengths[j] != cartan[j][i] * lengths[i]:
                raise NonRootSystem(f"lengths do not fit the Cartan matrix at a{i + 1}, a{j + 1}")
        for s in simples:
            if s not in root_set:
                raise NonRootSystem(f"simple root {s} is not a root")
        columns = la.transpose(cartan)
        for a in roots:
            for k, s in enumerate(simples):
                if reflect_simple(columns, a, k) not in root_set:
                    raise NonRootSystem(f"reflection s_{s} does not preserve roots at {a}")
        doubled = [k for k, s in enumerate(simples) if la.scale(s, 2) in root_set]
        for j, k in product(range(n), doubled):
            if cartan[j][k] % 2:  # <a_j, (2 a_k)^vee> = cartan[j][k] / 2
                pair = f"{Fraction(cartan[j][k], 2)} for {simples[j]}, {la.scale(simples[k], 2)}"
                raise NonRootSystem(f"non-integral Cartan pairing {pair}")
        generated, multipliable = _generated_roots(cartan, doubled)
        for a in roots:
            if a not in generated:
                raise NonRootSystem(f"root {a} is not conjugate to a simple root or its double")
        if self.multipliable != multipliable:
            diff = listed(self.multipliable ^ multipliable)
            raise NonRootSystem(f"multipliable roots are not the roots a with 2a a root: {diff}")

    def __repr__(self) -> str:  # pragma: no cover
        return f"RootDatum({self.name}, rank={self.rank}, roots={len(self.roots)})"


# -- diagram subsets --------------------------------------------------------


def listed(items: Iterable) -> list:
    """`items` sorted for a message: numbers in order, then the rest by repr."""
    return sorted(items, key=lambda i: (0, i) if isinstance(i, Real) else (1, repr(i)))


def basis_subset(datum: RootDatum, subset: Iterable) -> tuple[list, list]:
    """The entries of `subset`, a hashable one once, and those that are not
    an int in range(rank) `listed` (a bool, a float, a negative number or
    an unhashable entry is not one).  A `subset` that is not iterable is
    read as its one bad entry."""
    try:
        subset = iter(subset)
    except TypeError:
        return [subset], [subset]
    distinct, unhashable = set(), []
    for i in subset:
        try:
            distinct.add(i)
        except TypeError:
            unhashable.append(i)
    entries = [*distinct, *unhashable]
    return entries, listed(i for i in entries if type(i) is not int or not 0 <= i < datum.rank)


def simple_indices(datum: RootDatum, subset: Iterable) -> frozenset[int]:
    """`subset` as a frozenset; NonRootSystem if `basis_subset` reports an entry."""
    entries, bad = basis_subset(datum, subset)
    if bad:
        raise NonRootSystem(f"subset indices out of range: {bad}")
    return frozenset(entries)


def positive_int(n, message: str) -> int:
    """n if it is an int >= 1 (a bool or a float is not), else NonRootSystem(message)."""
    if type(n) is not int or n < 1:
        raise NonRootSystem(message)
    return n


def check_same_roots(datum: RootDatum, other: RootDatum) -> None:
    """TypeMismatch unless `other` has the Cartan matrix and the roots of
    `datum` (B3 and BC3 share a Cartan matrix, not their roots)."""
    if other is not datum and (other.cartan, other.root_set) != (datum.cartan, datum.root_set):
        raise TypeMismatch(f"root datum {other.name} is not the root datum {datum.name}")


def diagram_neighbours(datum: RootDatum) -> list[int]:
    """Per simple root, the bitset of the simple roots joined to it in the
    diagram (a Cartan entry vanishes exactly when its transpose does)."""
    n = datum.rank
    return [sum(1 << j for j in range(n) if datum.adjacent(i, j)) for i in range(n)]


def reached(near: Sequence[int], within: int, start: int) -> int:
    """The bitset of the roots of `within` that a walk inside `within` along
    the diagram (`near`, from `diagram_neighbours`) reaches from `start`."""
    found = todo = start
    while todo:
        step = near[(todo & -todo).bit_length() - 1] & within & ~found
        todo = (todo & (todo - 1)) | step
        found |= step
    return found


def orthogonal_bits(near: Sequence[int], bits: int) -> int:
    """The bitset of the simple roots orthogonal (for the invariant form)
    to all of `bits`: those neither in it nor joined to it in the diagram
    (`near`), as (alpha_j, alpha_i) is cartan[j][i] times |alpha_i|^2 / 2."""
    around = bits
    for i, joined in enumerate(near):
        if bits >> i & 1:
            around |= joined
    return ~around & ((1 << len(near)) - 1)


def bit_indices(bits: int, n: int) -> frozenset[int]:
    """The set of the j < n whose bit is set in `bits`."""
    return frozenset(j for j in range(n) if bits >> j & 1)


def components(datum: RootDatum, subset: Iterable[int]) -> list[frozenset[int]]:
    """Connected components of a subset of the basis in the Dynkin graph,
    each walked from the least root left, so in the order of their least roots."""
    near = diagram_neighbours(datum)
    todo = sum(1 << j for j in simple_indices(datum, subset))
    out = []
    while todo:
        comp = reached(near, todo, todo & -todo)
        todo &= ~comp
        out.append(bit_indices(comp, datum.rank))
    return out


def orthogonal_complement(datum: RootDatum, subset: Iterable[int]) -> frozenset[int]:
    """Simple roots orthogonal (for the invariant form) to all of `subset`."""
    bits = sum(1 << j for j in simple_indices(datum, subset))
    return bit_indices(orthogonal_bits(diagram_neighbours(datum), bits), datum.rank)


class DiagramSubset(Value):
    """A subset of the basis with its induced Dynkin-diagram structure."""

    datum: RootDatum
    indices: frozenset[int]

    def __post_init__(self) -> None:  # stores the indices as a frozenset
        object.__setattr__(self, "indices", simple_indices(self.datum, self.indices))

    @cached_property
    def components(self) -> tuple[frozenset[int], ...]:
        return tuple(components(self.datum, self.indices))

    @cached_property
    def perp(self) -> frozenset[int]:
        return orthogonal_complement(self.datum, self.indices)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.datum.labels[i] for i in sorted(self.indices))


# -- construction -----------------------------------------------------------


def _block_diag(blocks: list[list[list[int]]]) -> list[list[int]]:
    n, out = sum(map(len, blocks)), []
    for b in blocks:
        out += [[0] * len(out) + row + [0] * (n - len(out) - len(b)) for row in b]
    return out


def _build_catalogue(name: str) -> RootDatum:
    cartans, doubled = [], []
    for fam, n in _parse_catalogue_name(name):
        c, non_reduced = _catalogue_cartan(fam, n)
        cartans.append(c)
        if non_reduced:  # the short roots of B_n, the orbit of its last simple root
            doubled.append(sum(map(len, cartans)) - 1)
    cartan = _block_diag(cartans)
    roots, multipliable = _generated_roots(cartan, doubled)
    datum = RootDatum(
        name=name,
        rank=len(cartan),
        cartan=tuple(tuple(r) for r in cartan),
        simple_lengths=_simple_lengths(cartan),
        roots=tuple(sorted(roots)),
        multipliable=multipliable,
    )
    datum.validate()
    return datum


def _build_explicit(raw_roots: Sequence[Sequence], basis: Sequence[int]) -> RootDatum:
    """The datum of rational vectors whose roots numbered `basis` are simple.
    Only the input's shape is checked here: `RootDatum.validate` judges the
    roots over the basis, losing nothing.  Writing over a basis is injective,
    so zero and negatives carry over; a sign-coherent basis is a base.  The
    Euclidean |b_i|^2 make the Cartan matrix symmetric, so `_simple_lengths`
    is them up to one factor per diagram component: on each component the
    datum's form is a positive multiple of the Euclidean one, and components
    are orthogonal in both, so the simple reflections agree.  Closure under
    them puts every root in one component: a component's Weyl group fixes no
    nonzero vector of its span, so it moves a root's part a' there to some
    w a' with a coefficient of the other sign, and w fixes the rest.  So all
    the reflections and pairings agree."""
    try:
        rows = iter(raw_roots)
    except TypeError:  # None, 5
        raise NonRootSystem(f"{raw_roots!r} is not a list of roots") from None
    vectors = [coordinates(r) for r in rows]
    if not vectors:
        raise NonRootSystem("empty root list")
    ambient = len(vectors[0])
    if any(len(v) != ambient for v in vectors):
        raise NonRootSystem("roots of mixed dimension")

    if not isinstance(basis, (list, tuple)):
        raise NonRootSystem(f"basis {basis!r} is not a list of root indices")
    if not basis:
        raise NonRootSystem("basis is empty")
    for i in basis:
        if type(i) is not int or not 0 <= i < len(vectors):
            raise NonRootSystem(f"basis entry {i!r} is not an index into the {len(vectors)} roots")
    basis_vecs = [vectors[i] for i in basis]
    rank = len(basis_vecs)
    if la.rank(basis_vecs) != rank:
        raise NonRootSystem("basis vectors are linearly dependent")

    # coefficients of each root over the basis
    bt = la.transpose(la.mat(basis_vecs))
    root_coeffs = set()
    for v in set(vectors):
        sol = la.solve(bt, v)
        if sol is None or any(c.denominator != 1 for c in sol):
            raise NonRootSystem(f"root {v} is not an integral combination of the basis")
        root_coeffs.add(tuple(int(c) for c in sol))

    cartan = [[2 * la.dot(bi, bj) / la.dot(bj, bj) for bj in basis_vecs] for bi in basis_vecs]
    if any(c.denominator != 1 for row in cartan for c in row):
        raise NonRootSystem("non-integral Cartan pairing in explicit list")
    cartan = tuple(tuple(int(c) for c in r) for r in cartan)
    datum = RootDatum(
        name="explicit",
        rank=rank,
        cartan=cartan,
        simple_lengths=_simple_lengths(cartan),
        roots=tuple(sorted(root_coeffs)),
        multipliable=frozenset(a for a in root_coeffs if la.scale(a, 2) in root_coeffs),
        essential=la.rank(vectors) == ambient,
        input_rank=ambient,
    )
    datum.validate()
    return datum


def build_root_datum(spec, basis: Optional[Sequence[int]] = None) -> RootDatum:
    """Build a root datum from a catalogue name or an explicit root list.

    `spec` is a name like "A2", "BC1", "A1xA1", or a list of rational
    vectors (requires `basis`, the indices of the chosen simple roots).
    """
    if isinstance(spec, str):
        return _build_catalogue(spec)
    if basis is None:
        raise NonRootSystem("explicit root lists require basis indices")
    return _build_explicit(spec, basis)


# -- Weyl group -------------------------------------------------------------


def _word_columns(rows: Sequence[Vec], word: Sequence[int]) -> Mat:
    """The columns of the matrix of s_k1...s_km on the coordinates that
    `reflect_simple` moves with `rows`: the unit vectors, s_km applied first."""
    columns = la.identity(len(rows))
    for k in reversed(word):
        columns = tuple(reflect_simple(rows, v, k) for v in columns)
    return columns


class WeylElement(Value):
    """The element s_k1...s_km of the Weyl group of `datum`, for the word
    (k1, ..., km), acting on points and on roots.  rho^vee is regular
    (`RootDatum.regular_point`), so w.rho^vee (`regular_image`) determines w:
    equality and hash read it and the Cartan matrix, whatever the word.  The
    three integer matrices are views, made from the word on first read
    (`_word_columns`).  Each letter must be an int (a bool is not), so
    TypeMismatch, in range(rank), so DimensionMismatch."""

    datum: RootDatum
    word: tuple[int, ...]

    def __post_init__(self) -> None:  # stores the word as a tuple
        try:
            word = tuple(self.word)
        except TypeError:  # None, 5
            raise TypeMismatch(f"word {self.word!r} is not a sequence of letters") from None
        if not {int}.issuperset(map(type, word)):
            bad = next(k for k in word if type(k) is not int)
            raise TypeMismatch(f"letter {bad!r} of word {word} is not an int")
        if word and (min(word) < 0 or max(word) >= self.datum.rank):
            raise DimensionMismatch(f"word {word} has a letter past rank {self.datum.rank}")
        object.__setattr__(self, "word", word)

    @cached_property
    def regular_image(self) -> Vec:
        """w.rho^vee, rho^vee reflected along the word."""
        p = self.datum.regular_point
        for k in reversed(self.word):
            p = reflect_simple(self.datum.cartan, p, k)
        return p

    @cached_property
    def mat_points(self) -> Mat:  # action on coroot coordinates
        return la.transpose(_word_columns(self.datum.cartan, self.word))

    @cached_property
    def mat_roots(self) -> Mat:  # action on root coefficient vectors
        return la.transpose(_word_columns(la.transpose(self.datum.cartan), self.word))

    @cached_property
    def mat_points_inv(self) -> Mat:  # the inverse element's action on coroot coordinates
        return la.transpose(_word_columns(self.datum.cartan, self.word[::-1]))

    def apply_point(self, x: Vec) -> Vec:
        return la.mat_vec(self.mat_points, x)

    def apply_root(self, a: Root) -> Root:
        return la.mat_vec(self.mat_roots, a)

    @cached_property
    def length(self) -> int:
        """The length of w, whatever the word: the number of positive
        (nondivisible) roots a that w^-1 makes negative (Humphreys 1.6-1.7),
        those negative at w.rho^vee, as <a, w.rho^vee> = <w^-1 a, rho^vee>."""
        p, datum = self.regular_image, self.datum
        return sum(la.dot(datum.covector(a), p) < 0 for a in datum.positive_nondivisible_roots)

    def __hash__(self) -> int:
        return hash((self.datum.cartan, self.regular_image))

    def __eq__(self, other) -> bool:
        same = isinstance(other, WeylElement) and self.datum.cartan == other.datum.cartan
        return same and self.regular_image == other.regular_image


class WeylGroup:
    """The finite reflection group of a root datum, fully enumerated (`_close`):
    breadth first from the identity, so by nondecreasing length."""

    def __init__(self, datum: RootDatum):
        self.datum = datum
        self.generators = datum.simple_reflections
        self.elements = tuple(_close(datum, range(datum.rank)))
        self.identity = self.elements[0]

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def subgroup_elements(self, gen_indices: Iterable[int]) -> list[WeylElement]:
        """The reflection subgroup generated by the given simple reflections."""
        return _close(self.datum, sorted(simple_indices(self.datum, gen_indices)))


def _close(datum: RootDatum, letters: Sequence[int]) -> list[WeylElement]:
    """The subgroup generated by the s_k, k in `letters`, breadth first from
    the identity as the orbit of rho^vee, keyed by the points w.rho^vee (no
    matrix), as s_k.(w.rho^vee) = (s_k w).rho^vee; s_k.w has the word k, w."""

    def make(w: WeylElement, m: int, point: Vec) -> WeylElement:
        sw = WeylElement(datum, (letters[m],) + w.word)
        vars(sw)["regular_image"] = point  # where the cached_property keeps it
        return sw

    def image(w: WeylElement, m: int) -> Vec:
        return reflect_simple(datum.cartan, w.regular_image, letters[m])

    one = WeylElement(datum, ())
    return list(walk_orbits({one.regular_image: one}, len(letters), image, make).values())


@lru_cache(maxsize=None)
def weyl_enumerate(datum: RootDatum) -> WeylGroup:
    """The Weyl group of `datum` (`WeylGroup`), enumerated once per datum."""
    return WeylGroup(datum)
