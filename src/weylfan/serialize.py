"""Canonical JSON encoding: rationals as reduced "p/q" strings, infinities
as "inf"/"-inf", roots as labels over the simple basis like "-a1-2a2"."""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Sequence, Union

from .errors import ParseError
from .linalg import NEG_INF, POS_INF, Vec
from .rootdata import Root, RootDatum


def fmt_q(x) -> str:
    if isinstance(x, float):
        if x == POS_INF:
            return "inf"
        if x == NEG_INF:
            return "-inf"
        raise ParseError(f"non-rational value {x}")
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def parse_q(s: str) -> Union[Fraction, float]:
    s = s.strip()
    if s == "inf":
        return POS_INF
    if s == "-inf":
        return NEG_INF
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"cannot parse rational {s!r}") from exc


def fmt_vec(v: Sequence) -> list[str]:
    return [fmt_q(x) for x in v]


def parse_vec(s: str) -> Vec:
    if not s.strip():
        raise ParseError("empty vector")
    out = tuple(parse_q(part) for part in s.split(","))
    if any(isinstance(x, float) for x in out):
        raise ParseError(f"vector {s!r} has an infinite coordinate")
    return out


_TERM = re.compile(r"([+-]?)(\d*)a(\d+)")


def root_label(datum: RootDatum, a: Root) -> str:
    parts = []
    for i, c in enumerate(a):
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        parts.append(f"{sign}{'' if mag == 1 else mag}a{i + 1}")
    return "".join(parts) if parts else "0"


def parse_root_label(datum: RootDatum, label: str) -> Root:
    coeffs = [0] * datum.rank
    pos = 0
    compact = label.replace(" ", "")
    for m in _TERM.finditer(compact):
        if m.start() != pos:
            raise ParseError(f"cannot parse root label {label!r}")
        pos = m.end()
        sign = -1 if m.group(1) == "-" else 1
        mag = int(m.group(2)) if m.group(2) else 1
        idx = int(m.group(3)) - 1
        if not 0 <= idx < datum.rank:
            raise ParseError(f"no simple root a{idx + 1} in rank {datum.rank}")
        coeffs[idx] += sign * mag
    if pos != len(compact):
        raise ParseError(f"cannot parse root label {label!r}")
    a = tuple(coeffs)
    if a not in datum.root_set:
        raise ParseError(f"{label!r} is not a root of {datum.name}")
    return a


def parse_subset(datum: RootDatum, s: str) -> frozenset[int]:
    s = s.strip()
    if not s:
        return frozenset()
    out = set()
    for part in s.split(","):
        part = part.strip()
        if not part.startswith("a") or not part[1:].isdigit():
            raise ParseError(f"bad simple-root label {part!r}")
        idx = int(part[1:]) - 1
        if not 0 <= idx < datum.rank:
            raise ParseError(f"no simple root {part!r} in rank {datum.rank}")
        out.add(idx)
    return frozenset(out)


def subset_labels(datum: RootDatum, subset) -> list[str]:
    return [datum.labels[i] for i in sorted(subset)]


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
