"""query_mix: point questions against prebuilt fans.

Set-up builds the fans and the seminorm, apartment and polynomial data
beside them; that is what `setup_s` times.  The batch of queries is drawn
from the seed afterwards, on first use, and a pass runs it once, in an
order fixed by the seed.  The batch holds the same number of queries of
each kind on each fan, so seeds differ only in the points drawn; the equal
weighting is a choice, not measured traffic.  Points are rationals made by
the benchmark: half of the points of a kind are generic, half are wall
points built from cone rays (one ray, or a positive sum of several rays of
one cone), so that lower-dimensional cones are hit too.

Every answer is checked by the benchmark's own arithmetic or against a
second library path, outside the timed call; an expected value is computed
on its first check and kept:
- the located cone contains the point (equations and strict forms);
- `limit_of_ray` equals `limit_of_profile(ray_profile(...))`;
- seminorm values are recomputed from `datum.pairing`;
- special-vertex verdicts and witnesses, transitivity translations, strata
  types (the fan's core types) and facade roots are recomputed.
`NonReduced` (transitivity on BC types) and `ProfileMismatch` (a boundary
seminorm outside the closed cell) are documented outcomes, expected exactly
where the benchmark's own computation predicts them.
"""

from __future__ import annotations

import functools
import gc
import random
from fractions import Fraction
from math import lcm

from common import Spec

# (type, J as labels, large?) -- rank 3 fans feed large_s
FANS = [("G2", "", False), ("BC2", "a1", False), ("A3", "", True), ("B3", "a2", True)]
SMOKE_FANS = [("A2", "a1", False), ("A1xA2", "a2", True)]

KINDS = [
    "locate",
    "ray",
    "profile",
    "seminorm",
    "boundary",
    "rays_equal",
    "special",
    "embed",
    "transitivity",
    "strata",
    "facade",
]
# queries of each kind per fan in one batch
PER_KIND = 12
SMOKE_PER_KIND = 2
# nearest-rank percentile for op_tail_ms: a batch of 528 queries leaves 10
# above p98
TAIL_P = 98
MIN_PASSES = 2
NEG_INF = float("-inf")


def parse_J(J: str) -> frozenset[int]:
    return frozenset(int(label[1:]) - 1 for label in J.split(",") if label)


def dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def own_contains(cone, x) -> bool:
    return all(dot(e, x) == 0 for e in cone.eqs) and all(dot(f, x) > 0 for f in cone.ins)


class FanContext:
    """One prebuilt fan with the library data its queries need."""

    def __init__(self, lib, rng: random.Random, name: str, J: str, large: bool):
        self.large = large
        self.datum = datum = lib.rootdata.build_root_datum(name)
        self.J = parse_J(J)
        self.fan = lib.fans.parabolic_fan(datum, self.J)
        self.tg = lib.gaussnorm.ToyGroupDatum.for_parabolic(datum, self.J)
        self.apt = lib.apartment.make_apartment(datum)
        self.coweights = datum.fundamental_coweights()
        width = len(self.tg.indexed_roots)
        table = {}
        for _ in range(4):
            exp = [0] * width
            for pos in rng.sample(range(width), min(width, rng.randint(1, 2))):
                exp[pos] = rng.randint(1, 2)
            table[tuple(exp)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        self.poly = lib.gaussnorm.ValuedPolynomial.from_terms(width, table)

    # the benchmark's own data, derived after set-up

    @functools.cached_property
    def walls(self) -> list:
        return [c for c in self.fan.cones if c.rays]

    @functools.cached_property
    def core_types(self) -> set:
        return {info.type_indices for info in self.fan.cores.values()}

    @functools.cached_property
    def level_roots(self) -> list:
        """Positive nondivisible roots with the wall denominator of their levels."""
        datum = self.datum
        return [
            (a, 4 if a in datum.multipliable else 1)
            for a in datum.nondivisible_roots
            if all(c >= 0 for c in a)
        ]


class Gen:
    """Seeded rational points."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def generic(self, n: int):
        rng = self.rng
        while True:
            x = tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(n))
            if any(x):
                return x

    def rational(self, n: int):
        rng = self.rng
        return tuple(Fraction(rng.randint(-8, 8), rng.choice((1, 2, 3, 4, 6))) for _ in range(n))

    def wall(self, ctx: FanContext):
        """A positive combination of some rays of one cone."""
        rng = self.rng
        cone = rng.choice(ctx.walls)
        rays = rng.sample(cone.rays, rng.randint(1, len(cone.rays)))
        n = ctx.datum.rank
        return tuple(sum((rng.randint(1, 3) * r[i] for r in rays), Fraction(0)) for i in range(n))

    def point(self, ctx: FanContext, wall: bool):
        return self.wall(ctx) if wall else self.generic(ctx.datum.rank)

    def cell_direction(self, ctx: FanContext, dominant: bool):
        """A dominant direction (inside the closed cell), or a generic one."""
        if not dominant:
            return self.generic(ctx.datum.rank)
        rng = self.rng
        while True:
            coeffs = [rng.choice((0, 0, 1, 2, 3)) for _ in ctx.coweights]
            if any(coeffs):
                break
        n = ctx.datum.rank
        return tuple(
            sum((c * w[i] for c, w in zip(coeffs, ctx.coweights)), Fraction(0)) for i in range(n)
        )


def own_seminorm(ctx: FanContext, values) -> object:
    """max over monomials of logc + sum e * value, -inf absorbing."""
    best = NEG_INF
    for exp, logc in ctx.poly.terms:
        acc = logc
        for e, v in zip(exp, values):
            if e:
                if v == NEG_INF:
                    acc = None
                    break
                acc += e * v
        if acc is not None and (best == NEG_INF or acc > best):
            best = acc
    return best


def own_witness(ctx: FanContext, x) -> int:
    """The least e for which x is special after rescaling by e."""
    e = 1
    for a, wall_den in ctx.level_roots:
        e = lcm(e, (ctx.datum.pairing(a, x) * wall_den).denominator)
    return e


def equals(want):
    """A check comparing the result with `want()`."""
    return lambda got: None if got == want() else f"{got} != {want()}"


class State:
    def __init__(self, lib, seed: int, smoke: bool, weyl_cache):
        weyl_cache.cache_clear()  # every set-up pays the Weyl enumeration
        self.rng = random.Random(seed)
        self.lib = lib
        self.per_kind = SMOKE_PER_KIND if smoke else PER_KIND
        self.contexts = [FanContext(lib, self.rng, *spec) for spec in (SMOKE_FANS if smoke else FANS)]
        self.landings: dict[object, bool] = {}  # query key -> landed on a lower-dim cone

    @functools.cached_property
    def specs(self) -> list[Spec]:
        """The batch, drawn on first use; the i-th query of a kind on a fan
        takes a wall point (or a dominant direction) when i is odd (even)."""
        gen = Gen(self.rng)
        specs = [
            getattr(self, f"_{kind}")(ctx, gen, i)
            for ctx in self.contexts
            for kind in KINDS
            for i in range(self.per_kind)
        ]
        self.rng.shuffle(specs)
        return specs

    def lowdim_share(self) -> float:
        marks = list(self.landings.values())
        return sum(marks) / len(marks) if marks else 0.0

    # -- query kinds ---------------------------------------------------------

    def _mark(self, ctx: FanContext, cone_index: int, key) -> None:
        self.landings[key] = ctx.fan.cones[cone_index].dim < ctx.datum.rank

    def _locate(self, ctx, gen, i):
        p, key = gen.point(ctx, wall=i % 2 == 1), object()

        def check(index):
            if not own_contains(ctx.fan.cones[index], p):
                return f"cone {index} does not contain {p}"
            self._mark(ctx, index, key)
            return None

        return Spec("locate", ctx.large, lambda: ctx.fan.cone_containing(p), check)

    def _ray_pair(self, ctx, gen, i):
        return gen.generic(ctx.datum.rank), gen.point(ctx, wall=i % 2 == 1)

    def _ray(self, ctx, gen, i):
        lib, key = self.lib, object()
        b, d = self._ray_pair(ctx, gen, i)

        def check(pt):
            other = lib.compactify.limit_of_profile(ctx.fan, lib.compactify.ray_profile(ctx.datum, b, d))
            return self._limit_problem(ctx, pt, other, d, key)

        return Spec("ray", ctx.large, lambda: lib.compactify.limit_of_ray(ctx.fan, b, d), check)

    def _profile(self, ctx, gen, i):
        lib, key = self.lib, object()
        b, d = self._ray_pair(ctx, gen, i)

        def call():
            return lib.compactify.limit_of_profile(ctx.fan, lib.compactify.ray_profile(ctx.datum, b, d))

        def check(pt):
            if pt is lib.compactify.NoLimit:
                return "a ray profile has no limit"
            return self._limit_problem(ctx, pt, lib.compactify.limit_of_ray(ctx.fan, b, d), d, key)

        return Spec("profile", ctx.large, call, check)

    def _limit_problem(self, ctx, pt, other, d, key):
        if pt != other:
            return f"limit_of_ray and limit_of_profile disagree: {pt!r} vs {other!r}"
        if not own_contains(ctx.fan.cones[pt.cone_index], d):
            return f"limit cone {pt.cone_index} does not contain the direction {d}"
        self._mark(ctx, pt.cone_index, key)
        return None

    def _seminorm(self, ctx, gen, i):
        lib, x = self.lib, gen.point(ctx, wall=i % 2 == 1)

        @functools.cache
        def want():
            return own_seminorm(ctx, [ctx.datum.pairing(a, x) for a, _ in ctx.tg.indexed_roots])

        def call():
            return lib.gaussnorm.theta_restricted(ctx.tg, x).evaluate(ctx.poly)

        return Spec("seminorm", ctx.large, call, equals(want))

    def _boundary(self, ctx, gen, i):
        lib = self.lib
        b, d = gen.generic(ctx.datum.rank), gen.cell_direction(ctx, dominant=i % 2 == 0)

        @functools.cache
        def want():
            """(documented code or None, value): the seminorm of the boundary
            point, or ProfileMismatch when the direction leaves the closed cell."""
            values = []
            for a, _ in ctx.tg.indexed_roots:
                slope = ctx.datum.pairing(a, d)
                if slope > 0:
                    return "ProfileMismatch", None
                values.append(NEG_INF if slope < 0 else ctx.datum.pairing(a, b))
            return None, own_seminorm(ctx, values)

        def call():
            profile = lib.compactify.ray_profile(ctx.datum, b, d)
            return lib.gaussnorm.theta_boundary(ctx.tg, profile).evaluate(ctx.poly)

        return Spec(
            "boundary", ctx.large, call, equals(lambda: want()[1]), expect=lambda: want()[0]
        )

    def _rays_equal(self, ctx, gen, i):
        lib = self.lib
        b, d = gen.generic(ctx.datum.rank), gen.cell_direction(ctx, dominant=i % 2 == 0)
        k = gen.rng.randint(1, 3)
        b2 = tuple(x + k * y for x, y in zip(b, d))

        def call():
            return lib.gaussnorm.boundary_rays_equal(ctx.tg, (b, d), (b2, d))

        # a ray and its translate along itself have the same boundary data
        return Spec("rays_equal", ctx.large, call, lambda got: None if got is True else "rays differ")

    def _special(self, ctx, gen, i):
        lib, x = self.lib, gen.rational(ctx.datum.rank)
        witness = functools.cache(lambda: own_witness(ctx, x))

        def call():
            return (
                lib.apartment.is_special_vertex(ctx.apt, x),
                lib.apartment.special_witness(ctx.apt, x),
            )

        return Spec("special", ctx.large, call, equals(lambda: (witness() == 1, witness())))

    def _embed(self, ctx, gen, i):
        lib, x = self.lib, gen.rational(ctx.datum.rank)
        witness = functools.cache(lambda: own_witness(ctx, x))

        def call():
            e = lib.apartment.special_witness(ctx.apt, x)
            out = lib.apartment.embed_extension(ctx.apt, lib.apartment.ExtensionSpec(e))
            return out.pattern.scale, lib.apartment.is_special_vertex(out, x)

        # rescaled by its witness, the point is special
        return Spec("embed", ctx.large, call, equals(lambda: (witness(), True)))

    def _transitivity(self, ctx, gen, i):
        lib = self.lib
        n = ctx.datum.rank
        x, y = gen.rational(n), gen.rational(n)
        diff = tuple(b - a for a, b in zip(x, y))

        def check(sol):
            step = sol.gamma0 / (sol.N * sol.cartan_det)
            moved = tuple(Fraction(c) * step for c in sol.coefficients)
            return None if moved == diff else f"translation {moved} != {diff}"

        expect = None if ctx.datum.is_reduced() else "NonReduced"
        call = lambda: lib.apartment.transitivity_solve(ctx.datum, x, y)  # noqa: E731
        return Spec("transitivity", ctx.large, call, check, expect=expect)

    def _strata(self, ctx, gen, i):
        lib = self.lib

        def check(strata):
            got = {s.type_indices for s in strata}
            return None if got == ctx.core_types else f"strata types {got} != core types"

        call = lambda: lib.parabolics.enumerate_strata(ctx.datum, ctx.J)  # noqa: E731
        return Spec("strata", ctx.large, call, check)

    def _facade(self, ctx, gen, i):
        lib = self.lib
        index = gen.rng.randrange(len(ctx.fan.cones))

        @functools.cache
        def want():
            core = ctx.fan.cores[index].cone
            gens = list(core.rays) + list(core.lineality)
            return tuple(
                a for a in ctx.datum.roots if all(ctx.datum.pairing(a, g) == 0 for g in gens)
            )

        def call():
            return lib.parabolics.facade_root_system(ctx.datum, ctx.fan, index)

        return Spec("facade", ctx.large, call, equals(want))


def make_setup(lib, seed: int, smoke: bool, expected: dict):
    """A zero-argument set-up function: the fans and their query data."""
    weyl_cache = lib.rootdata.weyl_enumerate
    return lambda: State(lib, seed, smoke, weyl_cache)


def pass_specs(state: State) -> list:
    specs = state.specs  # drawn on the first pass
    gc.collect()  # start every pass from the same heap, outside the timed calls
    return specs
