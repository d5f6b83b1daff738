"""Shared oracles and deterministic sampling for the test suite."""

from fractions import Fraction as Q
import random

from weylfan import linalg as la
from weylfan.cones import open_system_feasible
from weylfan.fans import Fan, validate_J
from weylfan.parabolics import core_generating_set
from weylfan.rootdata import components, orthogonal_complement


def sign_vector_cone_count(datum) -> int:
    """Independent oracle: count facets of the root hyperplane arrangement
    by enumerating feasible sign vectors over the positive nondivisible
    roots."""
    positives = [
        datum.covector(a)
        for a in datum.nondivisible_roots
        if all(c >= 0 for c in a)
    ]
    n = datum.rank
    count = 0
    for assignment in _ternary(len(positives)):
        eqs = [f for f, s in zip(positives, assignment) if s == 0]
        strict = [
            la.scale(f, Q(s)) for f, s in zip(positives, assignment) if s != 0
        ]
        if open_system_feasible(n, eqs, strict) is not None:
            count += 1
    return count


def _ternary(k):
    if k == 0:
        yield ()
        return
    for rest in _ternary(k - 1):
        for s in (-1, 0, 1):
            yield rest + (s,)


def sample_points(fan: Fan, target: int, seed: int = 2024) -> list:
    """Deterministic rational sample including wall points of the fan."""
    n = fan.datum.rank
    rng = random.Random(seed)
    points = set()
    points.add(la.zero_vec(n))
    for cone in fan.cones:
        for r in cone.rays:
            points.add(r)
            points.add(la.scale(r, Q(3, 2)))
        for i in range(len(cone.rays)):
            for j in range(i + 1, len(cone.rays)):
                points.add(la.add(cone.rays[i], cone.rays[j]))
        p = cone.relint_point()
        points.add(p)
        points.add(la.scale(p, Q(2, 3)))
    spread = max(60, 2 * target)
    while len(points) < target:
        points.add(
            tuple(Q(rng.randint(-spread, spread), rng.randint(1, 16)) for _ in range(n))
        )
    return sorted(points)


def random_rational_vec(rng: random.Random, n: int, num: int = 9, den: int = 5):
    return tuple(Q(rng.randint(-num, num), rng.randint(1, den)) for _ in range(n))


def is_J_relevant_via_perp(datum, J, T) -> bool:
    """Relevance by the orthogonality criterion: any simple root of J
    orthogonal to every component of T meeting the complement of J must
    already lie in T."""
    T = frozenset(T)
    J = validate_J(datum, J)
    I = core_generating_set(datum, J, T)
    for alpha in J:
        orth = all(
            datum.inner(datum.simples[alpha], datum.simples[i]) == 0 for i in I
        )
        if orth and alpha not in T:
            return False
    return True


def is_J_relevant_exhaustive(datum, J, T) -> bool:
    """Relevance oracle: search all generating subsets I directly."""
    T = frozenset(T)
    J = validate_J(datum, J)
    n = datum.rank
    for bits in range(1 << n):
        I = frozenset(j for j in range(n) if bits & (1 << j))
        if any(comp <= J for comp in components(datum, I)):
            continue
        extra = J & orthogonal_complement(datum, I)
        if not (I & extra) and T == I | extra:
            return True
    return False
