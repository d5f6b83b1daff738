"""Exact linear algebra over the rationals.

Vectors are tuples, matrices are tuples of row vectors.  Entries are `int`
or `Fraction`: integral data (root covectors, Weyl matrices, cone forms and
rays) stays `int` end to end.  Elimination is fraction-free: `rref`,
`row_basis`, `rank`, `kernel_basis`, `solve`, `scaled_inverse`, `inverse`
and `det` all read one integer Gauss-Jordan pass, `_echelon`, and
`Fraction` appears only in results that need not be integral (echelon
rows, solutions, inverses, determinants).
No `/` is applied to two ints, so no float can arise, and every decision
(rank, kernel, solvability) is an exact sign decision.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Optional, Sequence, Union

Rational = Union[int, Fraction]
Vec = tuple[Rational, ...]
Mat = tuple[Vec, ...]

# The two infinities of the extended rationals (limit values, seminorm
# values, the "inf"/"-inf" of the JSON encoding).  They are floats, compared
# only by equality, and never enter an elimination.
POS_INF = float("inf")
NEG_INF = float("-inf")


def vec(entries: Iterable) -> Vec:
    return tuple(Fraction(e) for e in entries)


def zero_vec(n: int) -> Vec:
    return (0,) * n


def add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def sub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def neg(u: Vec) -> Vec:
    return tuple(-a for a in u)


def scale(u: Vec, c: Rational) -> Vec:
    return tuple(c * a for a in u)


def dot(u: Vec, v: Vec) -> Rational:
    return sum(map(mul, u, v))


def is_zero(u: Vec) -> bool:
    return all(a == 0 for a in u)


def _integral(u: Vec) -> Sequence[int]:
    """u times the lcm of its denominators: ints in the same ratios."""
    if all(type(a) is int for a in u):
        return u
    denom = lcm(*(a.denominator for a in u))
    return [a.numerator * (denom // a.denominator) for a in u]


def primitive(u: Vec) -> tuple[int, ...]:
    """Scale by a positive rational so entries are coprime ints (zero stays zero)."""
    ints = _integral(u)
    g = gcd(*ints)
    if g == 0:
        return (0,) * len(u)
    return tuple(a // g for a in ints) if g != 1 else tuple(ints)


def mat(rows: Iterable[Iterable]) -> Mat:
    return tuple(vec(r) for r in rows)


def identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m)) if m else ()


def mat_vec(m: Mat, v: Vec) -> Vec:
    return tuple(dot(row, v) for row in m)


def vec_mat(v: Vec, m: Mat) -> Vec:
    """Row vector times matrix."""
    return tuple(dot(v, col) for col in zip(*m))


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def _echelon(rows: Sequence[Vec]) -> tuple[list[list[int]], list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968).

    Returns (m, pivots, d, sign): the int rows m are d times the nonzero rows
    of the reduced row echelon form, with d > 0, and for square nonsingular
    rows sign * d is the determinant of the rows after scaling.  A row with
    `Fraction` entries is first scaled by the lcm of its denominators, which
    leaves the echelon form unchanged.  After k pivots every entry is a minor
    of order k or k + 1 of the scaled rows, so each division by the previous
    pivot is exact.
    """
    m = [_integral(r) for r in rows]
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    d = sign = 1
    for c in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
            sign = -sign
        top = m[r]
        pv = top[c]
        for i, row in enumerate(m):
            f = row[c]
            if f and i != r:
                m[i] = [(pv * x - f * y) // d for x, y in zip(row, top)]
            elif not f and pv != d:
                m[i] = [pv * x // d for x in row]
        d = pv
        pivots.append(c)
    m = m[: len(pivots)]
    if d < 0:
        m = [[-x for x in row] for row in m]
        d, sign = -d, -sign
    return m, pivots, d, sign


def rref(rows: Sequence[Vec]) -> tuple[list[Vec], list[int]]:
    """Reduced row echelon form over Fraction; returns (nonzero rows, pivot columns)."""
    m, pivots, d, _ = _echelon(rows)
    return [tuple(Fraction(x, d) for x in row) for row in m], pivots


def row_basis(rows: Sequence[Vec]) -> list[tuple[int, ...]]:
    """The canonical basis of the row space: the primitive int rows of its
    reduced row echelon form, read off `_echelon`'s rows (positive
    multiples of them) with no `Fraction`."""
    return [primitive(row) for row in _echelon(rows)[0]]


def rank(rows: Sequence[Vec]) -> int:
    """Dimension of the row space."""
    return len(_echelon(rows)[1])


def kernel_basis(rows: Sequence[Vec], n: int) -> list[Vec]:
    """Basis of {x : row . x = 0 for all rows}, canonical from RREF."""
    m, pivots, d, _ = _echelon(rows)
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        v = [0] * n
        v[fc] = d
        for row, pc in zip(m, pivots):
            v[pc] = -row[fc]
        basis.append(primitive(v))
    return basis


def solve(a_rows: Sequence[Vec], b: Vec) -> Optional[Vec]:
    """One exact solution of A x = b, or None if inconsistent.

    When the system is underdetermined the free variables are set to zero.
    """
    n = len(a_rows[0]) if a_rows else 0
    m, pivots, d, _ = _echelon([tuple(row) + (bi,) for row, bi in zip(a_rows, b)])
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for row, pc in zip(m, pivots):
        x[pc] = Fraction(row[n], d)
    return tuple(x)


def scaled_inverse(m: Mat) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(d m^-1, d) with d > 0 and d m^-1 in ints: the adjugate of an int
    matrix of positive determinant, read off one integer elimination."""
    n = len(m)
    red, pivots, d, _ = _echelon([tuple(row) + e for row, e in zip(m, identity(n))])
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in red), d


def inverse(m: Mat) -> Mat:
    scaled, d = scaled_inverse(m)
    return tuple(tuple(Fraction(x, d) for x in row) for row in scaled)


def det(m: Mat) -> Fraction:
    red, _, d, sign = _echelon(m)
    if len(red) < len(m):
        return Fraction(0)
    scale = 1  # the product of the row scalings made by _echelon
    for row in m:
        scale *= lcm(*(a.denominator for a in row))
    return Fraction(sign * d, scale)
