"""Command-line front end: every subcommand reads flags, prints one JSON
document on stdout, and exits 0 on success, 2 on structured errors, 64 on
usage errors and 70 on an internal fault (a traceback on stderr, nothing on
stdout).  Output is byte-identical across repeated invocations."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

# A process runs one subcommand, so each handler imports the layers it calls
# itself: `rootsys` never loads the fan, limit or seminorm modules.
from .errors import ParseError, WeylfanError
from .rootdata import build_root_datum
from .serialize import (
    dumps,
    fmt_q,
    fmt_vec,
    parse_q,
    parse_root_label,
    parse_subset,
    parse_vec,
    root_label,
    subset_labels,
)

if TYPE_CHECKING:
    from .gaussnorm import ToyGroupDatum, ValuedPolynomial

USAGE_EXIT = 64
ERROR_EXIT = 2
SOFTWARE_EXIT = 70


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(USAGE_EXIT)


def _load_datum(spec: str):
    spec = spec.strip()
    if spec.startswith("{"):
        payload = json.loads(spec)
    elif spec.endswith(".json"):
        payload = json.loads(Path(spec).read_text())
    else:
        return build_root_datum(spec)
    if not isinstance(payload, dict):
        raise ParseError("datum JSON is not an object")
    if "type" in payload:
        if not isinstance(payload["type"], str):
            raise ParseError("datum JSON 'type' must be a catalogue name")
        return build_root_datum(payload["type"])
    for key in ("roots", "basis"):
        if key not in payload:
            raise ParseError(f"datum JSON has neither 'type' nor {key!r}")
    rows = payload["roots"]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ParseError("datum JSON 'roots' is not a list of coordinate lists")
    roots = [[parse_q(str(x)) for x in row] for row in rows]
    if any(isinstance(x, float) for row in roots for x in row):
        raise ParseError("datum JSON 'roots' has an infinite coordinate")
    return build_root_datum(roots, basis=payload["basis"])


def _parse_point(datum, s: str):
    v = parse_vec(s)
    if len(v) != datum.rank:
        raise ParseError(
            f"expected {datum.rank} coordinates for {datum.name}, got {len(v)}"
        )
    return v


def _parabolic_fan(datum, J: str):
    from .fans import parabolic_fan

    return parabolic_fan(datum, parse_subset(datum, J))


def _fan_payload(fan) -> dict:
    datum = fan.datum
    cones = []
    for i, c in enumerate(fan.cones):
        info = fan.cores[i]
        cones.append(
            {
                "index": i,
                "dim": c.dim,
                "eqs": [fmt_vec(e) for e in c.eqs],
                "ins": [fmt_vec(f) for f in c.ins],
                "rays": [fmt_vec(r) for r in c.rays],
                "core": {
                    "type": subset_labels(datum, info.type_indices),
                    "generator": subset_labels(datum, info.generator_indices),
                    "weyl_word": [datum.labels[k] for k in info.word],
                    "rays": [fmt_vec(r) for r in info.cone.rays],
                },
            }
        )
    return {
        "datum": datum.name,
        "J": subset_labels(datum, fan.J),
        "cone_count": len(fan),
        "cones": cones,
        "face_edges": [list(p) for p in fan.face_order],
    }


def _cmd_rootsys(args) -> dict:
    datum = _load_datum(args.datum)
    return {
        "name": datum.name,
        "rank": datum.rank,
        "cartan": [list(r) for r in datum.cartan],
        "roots": [root_label(datum, a) for a in sorted(datum.roots)],
        "root_count": len(datum.roots),
        "positive_roots": [root_label(datum, a) for a in sorted(datum.positive_roots)],
        "multipliable": [root_label(datum, a) for a in sorted(datum.multipliable)],
        "weyl_order": datum.weyl_order,
        "simple_lengths": [fmt_q(d) for d in datum.simple_lengths],
    }


def _cmd_fan(args) -> dict:
    datum = _load_datum(args.datum)
    fan = _parabolic_fan(datum, args.J)
    return _fan_payload(fan)


def _cmd_strata(args) -> dict:
    from .parabolics import enumerate_strata

    datum = _load_datum(args.datum)
    J = parse_subset(datum, args.J)
    strata = enumerate_strata(datum, J)
    return {
        "datum": datum.name,
        "J": subset_labels(datum, J),
        "count": len(strata),
        "strata": [
            {
                "type": subset_labels(datum, d.type_indices),
                "I": subset_labels(datum, d.generating_indices),
                "levi_rank": d.levi_rank,
                "levi_roots": [root_label(datum, a) for a in sorted(d.levi_roots)],
                "open_stratum": d.is_open_stratum,
            }
            for d in strata
        ],
    }


def _cmd_cone(args) -> dict:
    datum = _load_datum(args.datum)
    fan = _parabolic_fan(datum, args.J)
    v = _parse_point(datum, args.vector)
    idx = fan.cone_containing(v)
    info = fan.cores[idx]
    return {
        "index": idx,
        "dim": fan.cones[idx].dim,
        "core_type": subset_labels(datum, info.type_indices),
    }


def _cmd_limit(args) -> dict:
    from .compactify import limit_of_ray
    from .parabolics import facade_root_system

    datum = _load_datum(args.datum)
    fan = _parabolic_fan(datum, args.J)
    point = limit_of_ray(fan, _parse_point(datum, args.base), _parse_point(datum, args.dir))
    info = fan.cores[point.cone_index]
    facade = facade_root_system(datum, fan, point.cone_index)
    return {
        "cone": point.cone_index,
        "cone_dim": fan.cones[point.cone_index].dim,
        "core_type": subset_labels(datum, info.type_indices),
        "facade_coords": fmt_vec(point.base),
        "facade_dim": point.facade_dim,
        "facade_roots": [root_label(datum, a) for a in sorted(facade)],
    }


def _parse_poly(datum, tg: ToyGroupDatum, payload) -> ValuedPolynomial:
    from .gaussnorm import ValuedPolynomial

    width = len(tg.indexed_roots)
    monomials = payload.get("monomials") if isinstance(payload, dict) else None
    if not isinstance(monomials, list):
        raise ParseError("polynomial JSON has no 'monomials' list")
    table = {}
    for mono in monomials:
        if not isinstance(mono, dict) or "logc" not in mono:
            raise ParseError(f"monomial {mono!r} is not an object with a 'logc' field")
        exps = mono.get("exp", {})
        if not isinstance(exps, dict):
            raise ParseError(f"'exp' of monomial {mono!r} is not an object")
        exp = [0] * width
        for key, count in exps.items():
            body = key.strip()
            if body.startswith("(") and body.endswith(")"):
                body = body[1:-1]
            label, _, idx = body.rpartition(",")
            if not label:
                raise ParseError(f"bad exponent key {key!r}")
            try:
                index = int(idx)
            except ValueError:
                raise ParseError(
                    f"index {idx!r} of exponent key {key!r} is not an integer"
                ) from None
            coord = (parse_root_label(datum, label), index)
            if coord not in tg.indexed_roots:
                raise ParseError(f"exponent key {key!r} is not a coordinate of the cell")
            if type(count) is not int:
                raise ParseError(f"exponent {count!r} of key {key!r} is not an integer")
            exp[tg.position(*coord)] += count
        table[tuple(exp)] = parse_q(str(mono["logc"]))
    return ValuedPolynomial.from_terms(width, table)


def _cmd_seminorm(args) -> dict:
    from .gaussnorm import ToyGroupDatum, theta_restricted

    datum = _load_datum(args.datum)
    T = parse_subset(datum, args.T)
    tg = ToyGroupDatum.for_parabolic(datum, T)
    if args.poly:
        payload = json.loads(Path(args.poly).read_text())
    else:
        payload = json.loads(args.poly_json)
    poly = _parse_poly(datum, tg, payload)
    x = _parse_point(datum, args.point)
    sn = theta_restricted(tg, x)
    return {
        "value": fmt_q(sn.evaluate(poly)),
        "coords": {
            f"({root_label(datum, a)},{i})": fmt_q(v)
            for (a, i), v in zip(tg.indexed_roots, sn.values)
        },
    }


def _gamma_denominators(datum, gamma: str) -> list[int]:
    parts = [p.strip() for p in gamma.split(",")] if gamma.strip() else []
    if len(parts) == 1:
        parts = parts * datum.rank
    if len(parts) != datum.rank:
        raise ParseError("need one wall denominator per simple root")
    try:
        return [int(p) for p in parts]
    except ValueError as exc:
        raise ParseError(f"bad wall denominators {gamma!r}") from exc


def _cmd_special(args) -> dict:
    from .apartment import is_special_vertex, make_apartment, special_witness

    datum = _load_datum(args.datum)
    apt = make_apartment(datum, denominators=_gamma_denominators(datum, args.gamma))
    x = _parse_point(datum, args.point)
    return {
        "special": is_special_vertex(apt, x),
        "witness": special_witness(apt, x),
    }


def _cmd_embed(args) -> dict:
    from .apartment import ExtensionSpec, embed_extension, make_apartment

    datum = _load_datum(args.datum)
    apt = make_apartment(datum, denominators=_gamma_denominators(datum, args.gamma))
    out = embed_extension(apt, ExtensionSpec(args.e))
    return {
        "scale": out.pattern.scale,
        "groups": {
            root_label(datum, a): g.describe() for a, g in out.pattern.groups
        },
    }


def _cmd_transitivity(args) -> dict:
    from .apartment import transitivity_solve

    datum = _load_datum(args.datum)
    sol = transitivity_solve(
        datum,
        _parse_point(datum, args.x),
        _parse_point(datum, args.y),
        gamma_denominator=args.gamma_denominator,
    )
    return {
        "N": sol.N,
        "n": list(sol.coefficients),
        "cartan_det": sol.cartan_det,
        "gamma0": fmt_q(sol.gamma0),
    }


def _cmd_check(args) -> dict:
    datum = _load_datum(args.datum)  # `build_root_datum` has validated it
    fan = _parabolic_fan(datum, args.J)
    stats = fan.validate()
    return {"ok": True, "datum": datum.name, "fan": stats}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="weylfan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--datum", required=True, help="catalogue name or JSON")
        p.add_argument("--output", help="also write the JSON document here")

    p = sub.add_parser("rootsys", help="root system data")
    common(p)

    p = sub.add_parser("fan", help="the merged fan for a subset J")
    common(p)
    p.add_argument("--J", default="", help="comma-separated simple roots, e.g. a1,a2")

    p = sub.add_parser("strata", help="boundary-stratum classes")
    common(p)
    p.add_argument("--J", default="")

    p = sub.add_parser("cone", help="locate the fan cone containing a vector")
    common(p)
    p.add_argument("--J", default="")
    p.add_argument("--vector", required=True)

    p = sub.add_parser("limit", help="limit of a ray in the compactified apartment")
    common(p)
    p.add_argument("--J", default="")
    p.add_argument("--base", required=True)
    p.add_argument("--dir", required=True)

    p = sub.add_parser("seminorm", help="evaluate a Gauss seminorm")
    common(p)
    p.add_argument("--T", default="", help="parabolic type")
    p.add_argument("--point", required=True)
    p.add_argument("--poly", help="path to a polynomial JSON file")
    p.add_argument("--poly-json", help="inline polynomial JSON")

    p = sub.add_parser("special", help="special-vertex test and witness")
    common(p)
    p.add_argument("--gamma", default="1", help="wall denominators per simple root")
    p.add_argument("--point", required=True)

    p = sub.add_parser("embed", help="rescale wall levels along an extension")
    common(p)
    p.add_argument("--gamma", default="1")
    p.add_argument("--e", type=int, required=True)

    p = sub.add_parser("transitivity", help="integer Cartan system between points")
    common(p)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--gamma-denominator", type=int, default=1)

    p = sub.add_parser("check", help="run the invariant suite for a datum")
    common(p)
    p.add_argument("--J", default="")
    return parser


_HANDLERS = {
    "rootsys": _cmd_rootsys,
    "fan": _cmd_fan,
    "strata": _cmd_strata,
    "cone": _cmd_cone,
    "limit": _cmd_limit,
    "seminorm": _cmd_seminorm,
    "special": _cmd_special,
    "embed": _cmd_embed,
    "transitivity": _cmd_transitivity,
    "check": _cmd_check,
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    try:
        if args.command == "seminorm" and not (args.poly or args.poly_json):
            raise ParseError("seminorm needs --poly or --poly-json")
        text = dumps(_HANDLERS[args.command](args))
        if args.output:
            Path(args.output).write_text(text)
    except WeylfanError as exc:
        sys.stdout.write(dumps(exc.payload()))
        return ERROR_EXIT
    except (json.JSONDecodeError, OSError, UnicodeDecodeError) as exc:  # unreadable input
        sys.stdout.write(dumps({"code": "ParseError", "message": str(exc)}))
        return ERROR_EXIT
    except Exception:
        import traceback  # here, not at the top: it adds milliseconds to every start-up

        traceback.print_exc()
        return SOFTWARE_EXIT
    sys.stdout.write(text)
    return 0


def main() -> None:  # console entry point
    raise SystemExit(run())


if __name__ == "__main__":
    main()
