"""Property tests over random inputs, run when `hypothesis` is installed."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from weylfan import linalg as la
from weylfan.cones import dual_description


@st.composite
def systems(draw):
    """(n, eqs, ineqs): small int forms on n <= 5 coordinates."""
    n = draw(st.integers(1, 5))
    form = st.tuples(*[st.integers(-3, 3)] * n)
    return n, draw(st.lists(form, max_size=2)), draw(st.lists(form, max_size=n + 3))


def _holds(gens, eqs, ineqs):
    """Whether each generator (lineality both ways, then rays) satisfies
    eqs = 0 and ineqs >= 0."""
    lin, rays = gens
    return all(
        all(la.dot(e, v) == 0 for e in eqs) and all(la.dot(a, v) >= 0 for a in ineqs)
        for v in [*lin, *map(la.neg, lin), *rays]
    )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(systems())
def test_double_dual_round_trip(system):
    """The dual of the dual of a closed cone is the cone: the dual cone is
    cut out by its generators (forms vanishing on the lineality and >= 0 on
    the rays), and the cone it describes in turn has the same lineality,
    as many extreme rays and, when pointed, the same primitive rays."""
    n, eqs, ineqs = system
    cone = dual_description(n, eqs, ineqs)
    dual = dual_description(n, *cone)
    twice = dual_description(n, *dual)
    assert _holds(cone, *dual) and _holds(twice, eqs, ineqs)  # each inside the other
    assert la.row_basis(twice[0]) == la.row_basis(cone[0])
    assert len(twice[1]) == len(cone[1])
    if not cone[0]:
        assert twice[1] == cone[1]
