"""Exact linear algebra over the rationals.

Vectors are tuples, matrices are tuples of row vectors.  Entries are `int`
or `Fraction`: integral data (root covectors, Weyl matrices, cone forms and
rays) stays `int` end to end, and `Fraction` enters only with user points
and with elimination that needs it.  `/` is only ever applied where one
operand is a `Fraction`, so no float can arise: `rref` lifts its entries to
`Fraction` on entry, and `rank` and `primitive` work fraction-free.  All
decisions (rank, kernel, solvability) are exact sign decisions; no floats.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Optional, Sequence, Union

Rational = Union[int, Fraction]
Vec = tuple[Rational, ...]
Mat = tuple[Vec, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


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


def primitive(u: Vec) -> tuple[int, ...]:
    """Scale by a positive rational so entries are coprime ints (zero stays zero)."""
    ints = u
    if not all(type(a) is int for a in u):
        denom = lcm(*(a.denominator for a in u))
        ints = [a.numerator * (denom // a.denominator) for a in u]
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
    n = len(m[0]) if m else 0
    return tuple(sum(v[i] * m[i][j] for i in range(len(m))) for j in range(n))


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def rref(rows: Sequence[Vec]) -> tuple[list[Vec], list[int]]:
    """Reduced row echelon form over Fraction; returns (nonzero rows, pivot columns)."""
    m = [[Fraction(x) for x in r] for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [tuple(row) for row in m[:r]], pivots


def rank(rows: Sequence[Vec]) -> int:
    """Rank by fraction-free (Bareiss) elimination on the primitive rows."""
    m = [primitive(r) for r in rows]
    m = [r for r in m if any(r)]
    ncols = len(m[0]) if m else 0
    r = 0
    prev = 1
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        top = m[r]
        pv = top[c]
        for i in range(r + 1, len(m)):
            row = m[i]
            f = row[c]
            m[i] = [(pv * x - f * y) // prev for x, y in zip(row, top)]
        prev = pv
        r += 1
        if r == len(m):
            break
    return r


def kernel_basis(rows: Sequence[Vec], n: int) -> list[Vec]:
    """Basis of {x : row . x = 0 for all rows}, canonical from RREF."""
    red, pivots = rref(rows)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * n
        v[fc] = 1
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc]
        basis.append(primitive(tuple(v)))
    return basis


def solve(a_rows: Sequence[Vec], b: Vec) -> Optional[Vec]:
    """One exact solution of A x = b, or None if inconsistent.

    When the system is underdetermined the free variables are set to zero.
    """
    n = len(a_rows[0]) if a_rows else 0
    aug = [tuple(row) + (bi,) for row, bi in zip(a_rows, b)]
    red, pivots = rref(aug)
    if n in pivots:
        return None
    x = [ZERO] * n
    for row, pc in zip(red, pivots):
        x[pc] = row[n]
    return tuple(x)


def inverse(m: Mat) -> Mat:
    n = len(m)
    aug = [tuple(row) + tuple(identity(n)[i]) for i, row in enumerate(m)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in red)


def det(m: Mat) -> Rational:
    n = len(m)
    a = [list(row) for row in m]
    result = ONE
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if a[i][c] != 0), None)
        if pivot_row is None:
            return ZERO
        if pivot_row != c:
            a[c], a[pivot_row] = a[pivot_row], a[c]
            result = -result
        result *= a[c][c]
        inv = ONE / a[c][c]
        for i in range(c + 1, n):
            if a[i][c] != 0:
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return result


def span_rank(vectors: Sequence[Vec]) -> int:
    return rank(list(vectors))

