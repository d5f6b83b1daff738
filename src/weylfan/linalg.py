"""Exact linear algebra over the rationals.

Vectors are tuples of Fraction, matrices are tuples of row vectors.  All
decisions (rank, kernel, solvability) are exact sign decisions; no floats.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Optional, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def vec(entries: Iterable) -> Vec:
    return tuple(Fraction(e) for e in entries)


def zero_vec(n: int) -> Vec:
    return (ZERO,) * n


def add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def sub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def neg(u: Vec) -> Vec:
    return tuple(-a for a in u)


def scale(u: Vec, c: Fraction) -> Vec:
    return tuple(c * a for a in u)


def dot(u: Vec, v: Vec) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), ZERO)


def is_zero(u: Vec) -> bool:
    return all(a == 0 for a in u)


def primitive(u: Vec) -> Vec:
    """Scale by a positive rational so entries are coprime integers."""
    if is_zero(u):
        return u
    denom = 1
    for a in u:
        denom = denom * a.denominator // gcd(denom, a.denominator)
    ints = [int(a * denom) for a in u]
    g = 0
    for a in ints:
        g = gcd(g, abs(a))
    return tuple(Fraction(a // g) for a in ints)


def mat(rows: Iterable[Iterable]) -> Mat:
    return tuple(vec(r) for r in rows)


def identity(n: int) -> Mat:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m)) if m else ()


def mat_vec(m: Mat, v: Vec) -> Vec:
    return tuple(dot(row, v) for row in m)


def vec_mat(v: Vec, m: Mat) -> Vec:
    """Row vector times matrix."""
    n = len(m[0]) if m else 0
    return tuple(sum((v[i] * m[i][j] for i in range(len(m))), ZERO) for j in range(n))


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def rref(rows: Sequence[Vec]) -> tuple[list[Vec], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    m = [list(r) for r in rows]
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
    return len(rref(rows)[0])


def kernel_basis(rows: Sequence[Vec], n: int) -> list[Vec]:
    """Basis of {x : row . x = 0 for all rows}, canonical from RREF."""
    red, pivots = rref(rows)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [ZERO] * n
        v[fc] = ONE
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


def det(m: Mat) -> Fraction:
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

