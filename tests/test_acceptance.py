"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

from fractions import Fraction as Q
import random

from helpers import (
    FAN_CATALOGUE,
    RANK4_CATALOGUE,
    assert_integral_fan,
    built_fan,
    is_J_relevant_exhaustive,
    is_J_relevant_via_perp,
    random_rational_vec,
    sample_points,
    sign_vector_cone_count,
    subsets,
    valid_js,
    word_element,
)
from weylfan import linalg as la
from weylfan.apartment import (
    ExtensionSpec,
    embed_extension,
    is_special_vertex,
    make_apartment,
    special_witness,
    transitivity_solve,
)
from weylfan.compactify import limit_of_ray
from weylfan.fans import parabolic_fan, weyl_fan
from weylfan.gaussnorm import (
    ToyGroupDatum,
    ValuedPolynomial,
    boundary_chart_values,
    cell_charts,
    fiber_direction_space,
    theta_restricted,
)
from weylfan.parabolics import (
    ParabolicType,
    enumerate_strata,
    facade_root_system,
    is_non_degenerate,
)
from weylfan.rootdata import build_root_datum


def test_criterion_1_fan_counts():
    expected = {"A1": 3, "A2": 13, "B2": 17}
    for name, count in expected.items():
        datum = build_root_datum(name)
        fan = weyl_fan(datum)
        assert len(fan) == count
        assert sign_vector_cone_count(datum) == count
        for p in sample_points(fan, 1000):
            fan.cone_containing(p)
    fj = parabolic_fan(build_root_datum("A2"), [0])
    assert len(fj) == 7
    for p in sample_points(fj, 1000):
        fj.cone_containing(p)
    print("ACCEPTANCE 1 PASS: fan counts A1=3 A2=13 B2=17, F^{a1}(A2)=7, "
          "partition exact on >=1000 samples per fan")


def test_criterion_2_fan_axioms():
    built = []
    for name in FAN_CATALOGUE:
        built.append((f"{name} Weyl fan", weyl_fan(build_root_datum(name))))
    for name, J in [("A2", (0,)), ("A2", (1,)), ("B2", (0,)), ("BC2", (1,)),
                    ("G2", (0,)), ("B3", (1,)), ("B3", (0, 2)), ("C3", (1,)),
                    ("A1xA2", (1,))]:
        built.append((f"{name} J={J}", parabolic_fan(build_root_datum(name), J)))
    for name, J in [("BC3", ()), ("A1xA2", ()), ("A4", (0, 1, 2)), ("D4", (0, 1, 2)),
                    ("A4", ()), ("B4", ()), ("F4", ()), ("A5", ())]:
        built.append((f"{name} J={J}", built_fan(name, J)))
    pair_count = 0
    for label, fan in built:
        stats = fan.validate()
        pair_count += stats["face_pairs"]
        assert_integral_fan(fan, label)
    print(f"ACCEPTANCE 2 PASS: fan axioms and face conditions on "
          f"{len(built)} fans ({pair_count} face pairs)")


def test_criterion_3_non_degeneracy():
    checked = 0
    for name in RANK4_CATALOGUE:
        datum = build_root_datum(name)
        for T in subsets(datum.rank):
            report = is_non_degenerate(datum, T)  # raises on disagreement
            assert report.no_component_in_levi == report.no_component_in_type
            assert report.no_component_in_type == report.psi_spans
            checked += 1
    print(f"ACCEPTANCE 3 PASS: three non-degeneracy conditions agree on "
          f"{checked} (datum, T) pairs")


def test_criterion_4_j_relevance():
    checked = 0
    for name in RANK4_CATALOGUE:
        datum = build_root_datum(name)
        for J in valid_js(datum):
            for T in subsets(datum.rank):
                assert is_J_relevant_exhaustive(datum, J, T) == \
                    is_J_relevant_via_perp(datum, J, T)
                checked += 1
    a2 = build_root_datum("A2")
    assert len(enumerate_strata(a2, [])) == 4
    assert len(enumerate_strata(a2, [0])) == 3
    assert len(enumerate_strata(build_root_datum("A1"), [])) == 2
    print(f"ACCEPTANCE 4 PASS: relevance criteria agree on {checked} triples; "
          "stratum counts A2/empty=4 A2/a1=3 A1/empty=2")


def test_criterion_5_seminorm_laws():
    datums = ["A2", "B2", "BC2", "G2", "A1xA1"]
    rng = random.Random(1234)
    for name in datums:
        datum = build_root_datum(name)
        tg = ToyGroupDatum.for_parabolic(datum, ())
        width = len(tg.indexed_roots)
        for _ in range(500):
            f = _rand_poly(rng, width)
            g = _rand_poly(rng, width)
            x = random_rational_vec(rng, datum.rank)
            sn = theta_restricted(tg, x)
            assert sn.evaluate(f.multiply(g)) == sn.evaluate(f) + sn.evaluate(g)
            assert sn.evaluate(f.add(g)) <= max(sn.evaluate(f), sn.evaluate(g))
    pair_checks = 0
    for name in datums:
        datum = build_root_datum(name)
        for T in subsets(datum.rank):
            tg = ToyGroupDatum.for_parabolic(datum, T)
            fiber = fiber_direction_space(tg)
            base_rank = la.rank(list(fiber))
            for _ in range(100):
                x = random_rational_vec(rng, datum.rank)
                y = random_rational_vec(rng, datum.rank)
                diff = la.sub(la.vec(y), la.vec(x))
                in_fiber = la.rank(list(fiber) + [diff]) == base_rank
                equal = theta_restricted(tg, x) == theta_restricted(tg, y)
                assert equal == in_fiber
                pair_checks += 1
    print(f"ACCEPTANCE 5 PASS: multiplicativity and ultrametric law on 2500 "
          f"polynomial pairs; separation theorem on {pair_checks} point pairs")


def _rand_poly(rng, width):
    table = {}
    for _ in range(rng.randint(1, 4)):
        exp = tuple(rng.randint(0, 3) for _ in range(width))
        table[exp] = Q(rng.randint(-9, 9), rng.randint(1, 4))
    return ValuedPolynomial.from_terms(width, table)


def test_criterion_6_comparison():
    combos = [("A2", ()), ("A2", (0,)), ("G2", ()), ("G2", (1,)),
              ("BC2", ()), ("BC2", (0,))]
    rng = random.Random(77)
    total_pairs = 0
    for name, J in combos:
        datum = build_root_datum(name)
        fan = parabolic_fan(datum, J)
        tg = ToyGroupDatum.for_parabolic(datum, J)
        n = datum.rank

        rays = []
        while len(rays) < 100:
            d = random_rational_vec(rng, n, num=5, den=3)
            if all(v == 0 for v in d):
                continue
            rays.append((random_rational_vec(rng, n, num=5, den=2), d))
        # constructed coincidences: same direction cone, base shifted in span
        for k in range(0, 40, 2):
            base, d = rays[k]
            cone = fan.cones[fan.cone_containing(d)]
            shift = la.zero_vec(n)
            for s in cone.span_basis:
                shift = la.add(shift, la.scale(s, Q(rng.randint(-3, 3))))
            d2 = cone.relint_point() if cone.rays else d
            rays[k + 1] = (la.add(la.vec(base), shift), d2)

        fan_limits = [limit_of_ray(fan, base, d) for base, d in rays]
        chart_sets = [frozenset(cell_charts(tg, d)) for _, d in rays]
        value_cache: dict = {}

        def chart_values(i, w):
            key = (i, w)
            if key not in value_cache:
                value_cache[key] = boundary_chart_values(tg, w, *rays[i])
            return value_cache[key]

        for i in range(len(rays)):
            for j in range(i + 1, len(rays)):
                common = chart_sets[i] & chart_sets[j]
                if not common:
                    seminorm_eq = False
                else:
                    verdicts = {chart_values(i, w) == chart_values(j, w) for w in common}
                    assert len(verdicts) == 1, "chart verdicts disagree"
                    seminorm_eq = verdicts.pop()
                fan_eq = fan_limits[i] == fan_limits[j]
                assert fan_eq == seminorm_eq, (name, J, rays[i], rays[j])
                total_pairs += 1
    print(f"ACCEPTANCE 6 PASS: fan-limit equality matches boundary-seminorm "
          f"equality on {total_pairs} ray pairs, zero mismatches")


def test_criterion_7_functoriality():
    rng = random.Random(4321)
    datums = ["A1", "A2", "B2", "BC1", "BC2", "G2"]

    # value-group rescaling law
    for name in datums:
        datum = build_root_datum(name)
        apt = make_apartment(datum)
        for e in (2, 3, 6):
            scaled = embed_extension(apt, ExtensionSpec(e))
            for a, g in apt.pattern.groups:
                sg = scaled.pattern.group_of(a)
                assert sg.kind == g.kind and sg.d == g.d * e

    # special vertices preserved under extensions
    for name in datums:
        datum = build_root_datum(name)
        apt = make_apartment(datum)
        inv_cartan = la.inverse(la.mat(datum.cartan))
        for _ in range(100):
            ints = tuple(Q(rng.randint(-9, 9)) for _ in range(datum.rank))
            x = la.mat_vec(inv_cartan, ints)
            assert is_special_vertex(apt, x)
            e = rng.randint(1, 6)
            assert is_special_vertex(embed_extension(apt, ExtensionSpec(e)), x)

    # witness against the brute-force oracle
    witness_checks = 0
    for name in datums:
        datum = build_root_datum(name)
        apt = make_apartment(datum)
        for _ in range(40):
            x = random_rational_vec(rng, datum.rank, num=6, den=6)
            brute = 1
            while not is_special_vertex(embed_extension(apt, ExtensionSpec(brute)), x):
                brute += 1
                assert brute <= 10000
            assert brute == special_witness(apt, x)
            witness_checks += 1

    # Cartan system substitution
    reduced = ["A1", "A2", "A3", "B2", "B3", "C3", "G2", "A1xA1"]
    for name in reduced:
        datum = build_root_datum(name)
        cartan = la.mat(datum.cartan)
        for _ in range(50):
            x = random_rational_vec(rng, datum.rank, num=6, den=4)
            y = random_rational_vec(rng, datum.rank, num=6, den=4)
            sol = transitivity_solve(datum, x, y)
            diff = la.sub(la.vec(y), la.vec(x))
            lhs = la.mat_vec(cartan, la.vec(sol.coefficients))
            for i, s in enumerate(datum.simples):
                assert lhs[i] == sol.N * sol.cartan_det * datum.pairing(s, diff)
            recon = tuple(
                Q(c) * sol.gamma0 / (sol.N * sol.cartan_det) for c in sol.coefficients
            )
            assert recon == diff
    print(f"ACCEPTANCE 7 PASS: rescaling law, specials preserved (100/datum), "
          f"{witness_checks} witness oracle checks, Cartan substitution on "
          f"{50 * len(reduced)} pairs")


def test_criterion_8_facade_structure():
    combos = []
    for name in FAN_CATALOGUE:
        datum = build_root_datum(name)
        js = [J for J in valid_js(datum) if len(J) <= 1]
        if datum.rank > 2:
            js = [J for J in js if len(J) <= 1][:3]
        for J in js:
            combos.append((name, J))
    combos += [("A4", frozenset()), ("D4", frozenset()), ("BC3", frozenset()), ("F4", frozenset())]
    cones_checked = 0
    for name, J in combos:
        fan = built_fan(name, tuple(sorted(J)))
        datum = fan.datum
        for i in range(len(fan)):
            info = fan.cores[i]
            # the facade of cone i carries the Weyl translate of its core type's Levi
            got = set(facade_root_system(datum, fan, i))
            levi = ParabolicType(datum, info.type_indices).levi_roots
            u = word_element(datum, info.word)
            assert got == {u.apply_root(a) for a in levi}, (name, J, i)
            cones_checked += 1
    print(f"ACCEPTANCE 8 PASS: facade root system equals the Weyl translate of "
          f"the Levi subsystem of the core type on {cones_checked} cones over "
          f"{len(combos)} fans")


def test_criterion_9_cli_determinism():
    import io
    import json
    from contextlib import redirect_stdout

    from weylfan.cli import run

    def invoke(args):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = run(args)
        return code, buf.getvalue()

    examples = [
        (["fan", "--datum", "A2", "--J", "a1"], lambda p: p["cone_count"] == 7),
        (["strata", "--datum", "A2", "--J", ""], lambda p: p["count"] == 4),
        (["strata", "--datum", "A2", "--J", "a1"], lambda p: p["count"] == 3),
        (["special", "--datum", "A1", "--gamma", "1", "--point", "1/3"],
         lambda p: p == {"special": False, "witness": 3}),
        (["transitivity", "--datum", "A1", "--x", "0", "--y", "1/6"],
         lambda p: p["N"] == 3 and p["n"] == [1]),
        (["rootsys", "--datum", "BC1"],
         lambda p: p["root_count"] == 4 and p["multipliable"] == ["-a1", "a1"]),
        (["limit", "--datum", "A2", "--J", "a1", "--base", "0,0", "--dir", "1,1"],
         lambda p: p["core_type"] == ["a1"]),
        (["check", "--datum", "B2", "--J", "a2"], lambda p: p["ok"] is True),
    ]
    for args, check in examples:
        code, first = invoke(args)
        assert code == 0, args
        _, second = invoke(args)
        assert first == second, f"non-deterministic output for {args}"
        assert check(json.loads(first)), args
    print(f"ACCEPTANCE 9 PASS: {len(examples)} CLI invocations deterministic "
          "and matching the fixed values")
