"""Sign-mask cone location and ray-bitset face order, checked against the
scan oracles in `helpers`, plus the checks that guard them."""

import pytest

from helpers import (
    FAN_CATALOGUE,
    closure_face_order,
    sample_points,
    scan_cone_containing,
    valid_js,
)
from weylfan import cones as cones_module
from weylfan import fans as fans_module
from weylfan import linalg as la
from weylfan.compactify import limit_of_ray
from weylfan.cones import Cone
from weylfan.errors import DimensionMismatch, PartitionFailure
from weylfan.fans import Fan, parabolic_fan, weyl_fan
from weylfan.rootdata import build_root_datum

def _case(name, J):
    labels = ",".join(f"a{i + 1}" for i in sorted(J))
    return pytest.param(name, tuple(sorted(J)), id=f"{name}-{{{labels}}}")


CATALOGUE_FANS = [
    _case(name, J) for name in FAN_CATALOGUE for J in valid_js(build_root_datum(name))
]


@pytest.mark.parametrize("name,J", CATALOGUE_FANS + [_case("A4", ()), _case("D4", ())])
def test_face_order_matches_closure_oracle(name, J):
    fan = parabolic_fan(build_root_datum(name), J)
    assert fan.face_order == closure_face_order(fan)


@pytest.mark.parametrize("name,J", CATALOGUE_FANS)
def test_cone_location_matches_scan_oracle(name, J):
    fan = parabolic_fan(build_root_datum(name), J)
    # a fan built directly has no sign map yet, so it locates by mask scans
    fresh = Fan(fan.datum, fan.J, fan.cones, fan.cores)
    for p in sample_points(fan, 300):
        want = scan_cone_containing(fan, p)
        assert fan.cone_containing(p) == want
        assert fresh.cone_containing(p) == want


def _facing(u, w):
    """The form vanishing on the plane vector u that is positive on w."""
    p = (-u[1], u[0])
    return p if la.dot(p, w) > 0 else la.neg(p)


def _split_chamber(order):
    """The A2 Weyl fan with its dominant chamber cut in two along the ray
    through the sum of its rays, which lies on no root hyperplane.  The
    result is still a fan, but not one cut out by root signs.  `order`
    says where the three new cones go."""
    fan = weyl_fan(build_root_datum("A2"))
    chamber = next(
        i for i, c in enumerate(fan.cones) if c.dim == 2 and fan.cores[i].weyl.word == ()
    )
    u, w = fan.cones[chamber].rays
    mid = la.add(u, w)
    halves = [
        Cone.from_system(2, [], [_facing(u, mid), _facing(mid, u)]),
        Cone.from_system(2, [], [_facing(mid, w), _facing(w, mid)]),
    ]
    ray = Cone.from_system(2, [_facing(mid, u)], [mid])
    rest = [c for i, c in enumerate(fan.cones) if i != chamber]
    cones = halves + [ray] + rest if order == "halves first" else [ray] + halves + rest
    cores = {k: fan.cores[fan.origin_index] for k in range(len(cones))}
    return Fan(fan.datum, fan.J, cones, cores)


@pytest.mark.parametrize(
    "order,message",
    [("halves first", "is not a root form"), ("ray first", "do not cut out its span")],
)
def test_cover_check_rejects_cones_not_cut_out_by_roots(order, message):
    mutant = _split_chamber(order)
    for p in sample_points(mutant, 100):  # a partition all the same
        scan_cone_containing(mutant, p)
    with pytest.raises(PartitionFailure, match=message):
        mutant.validate()
    with pytest.raises(PartitionFailure, match=message):
        mutant.cone_containing((1, 1))


def test_cone_containing_rejects_points_of_the_wrong_length():
    fan = parabolic_fan(build_root_datum("A2"), [0])
    for bad in [(1, 2, 3), (1,)]:
        with pytest.raises(DimensionMismatch):
            fan.cone_containing(bad)
        with pytest.raises(DimensionMismatch):
            limit_of_ray(fan, (0, 0), bad)
    assert fan.cones[fan.cone_containing((1, 2))].dim == 2


def test_validate_checks_closure_once_per_face_pair(monkeypatch):
    fan = parabolic_fan(build_root_datum("B3"), [1])
    calls = []
    original = cones_module.closure_subset

    def counted(f, g):
        calls.append((f, g))
        return original(f, g)

    monkeypatch.setattr(cones_module, "closure_subset", counted)
    monkeypatch.setattr(fans_module, "closure_subset", counted)
    stats = fan.validate()
    assert len(calls) == stats["face_pairs"] == len(fan.face_order)


def test_b4_weyl_fan_and_face_order():
    fan = weyl_fan(build_root_datum("B4"))
    assert len(fan) == 1697
    assert len(fan.face_order) == 14305
