"""Text and JSON forms for sequences, integer sets, maps and event logs.

Sequence text: one term per line (decimal integer or `inf`), then a
directive line `#tail constant <v>` | `#tail infinite` | `#tail unknown`.
Set text: one element per line, then `#horizon <K>`.  Lines starting with
`#` that are not directives are comments; blank lines are ignored.  The
JSON forms mirror the same data; numbers that must stay exact travel as
literal strings like `(-1+1*sqrt(5))/2`, never as floats.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from fractions import Fraction
from typing import Any, Optional, Union

from .continuous import LinearMap, MonotoneMap, PiecewiseMap
from .errors import HorizonExceeded, ParseError
from .exact import ExactNumber
from .runner import EventLog
from .sequences import INF, ExtNat, IntSet, NumberSequence, Tail


def _rational_literal(text: Union[str, int], what: str) -> Fraction:
    if isinstance(text, bool):
        raise ParseError(f"{what} must be an exact literal, got {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str):
        raise ParseError(f"{what} must be an exact literal string, got {text!r}")
    v = ExactNumber.parse(text)
    if not v.is_rational:
        raise ParseError(f"{what} must be rational, got {text!r}")
    return v.as_fraction()


# -- sequences ------------------------------------------------------------


def _parse_term(token: str, lineno: int) -> ExtNat:
    if token == "inf":
        return INF
    try:
        v = int(token)
    except ValueError:
        raise ParseError(f"line {lineno}: expected an integer or 'inf', got {token!r}") from None
    if v < 0:
        raise ParseError(f"line {lineno}: sequence values must be >= 0, got {v}")
    return v


def parse_sequence_text(text: str) -> NumberSequence:
    terms: list[ExtNat] = []
    tail: Tail | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#tail"):
            if tail is not None:
                raise ParseError(f"line {lineno}: duplicate #tail directive")
            parts = line.split()
            if len(parts) >= 2 and parts[1] == "constant":
                if len(parts) != 3:
                    raise ParseError(f"line {lineno}: expected '#tail constant <v>'")
                try:
                    v = int(parts[2])
                except ValueError:
                    raise ParseError(f"line {lineno}: bad constant value {parts[2]!r}") from None
                if v < 0:
                    raise ParseError(f"line {lineno}: constant tail value must be >= 0, got {v}")
                tail = Tail.constant(v)
            elif parts[1:] == ["infinite"]:
                tail = Tail.infinite()
            elif parts[1:] == ["unknown"]:
                tail = Tail.unknown()
            else:
                raise ParseError(f"line {lineno}: bad tail directive {line!r}")
            continue
        if line.startswith("#"):
            continue
        if tail is not None:
            raise ParseError(f"line {lineno}: term after the #tail directive")
        terms.append(_parse_term(line, lineno))
    return NumberSequence(terms, tail if tail is not None else Tail.unknown())


def render_sequence_text(s: NumberSequence) -> str:
    lines = ["inf" if v is INF else str(v) for v in s.prefix]
    lines.append(f"#tail {s.tail}")
    return "\n".join(lines) + "\n"


def sequence_to_json(s: NumberSequence) -> dict[str, Any]:
    terms: list[Any] = ["inf" if v is INF else v for v in s.prefix]
    tail: dict[str, Any] = {"kind": s.tail.kind}
    if s.tail.kind == "constant":
        tail["value"] = s.tail.value
    return {"terms": terms, "tail": tail}


def sequence_from_json(obj: Any) -> NumberSequence:
    if not isinstance(obj, dict):
        raise ParseError("sequence JSON must be an object")
    terms_raw = obj.get("terms")
    if not isinstance(terms_raw, list):
        raise ParseError("sequence JSON needs a 'terms' array")
    terms: list[ExtNat] = []
    for i, t in enumerate(terms_raw, start=1):
        if t == "inf":
            terms.append(INF)
        elif isinstance(t, int) and not isinstance(t, bool) and t >= 0:
            terms.append(t)
        else:
            raise ParseError(f"term {i}: expected a non-negative integer or 'inf', got {t!r}")
    tail_raw = obj.get("tail", {"kind": "unknown"})
    if not isinstance(tail_raw, dict) or "kind" not in tail_raw:
        raise ParseError("sequence JSON 'tail' must be an object with a 'kind'")
    kind = tail_raw["kind"]
    if kind == "constant":
        v = tail_raw.get("value")
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise ParseError(f"constant tail needs a non-negative integer 'value', got {v!r}")
        tail = Tail.constant(v)
    elif kind == "infinite":
        tail = Tail.infinite()
    elif kind == "unknown":
        tail = Tail.unknown()
    else:
        raise ParseError(f"unknown tail kind {kind!r}")
    return NumberSequence(terms, tail)


def parse_sequence(text: str) -> NumberSequence:
    """Sequence from either the text or the JSON form, sniffed from the input."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as e:
            raise ParseError(f"bad JSON: {e}") from None
        return sequence_from_json(obj)
    return parse_sequence_text(text)


# -- integer sets ---------------------------------------------------------


def _intset(elements: list[int], horizon: int, lines: Optional[list[int]] = None) -> IntSet:
    """The set, with an element past the file's own horizon reported as bad input."""
    try:
        return IntSet(tuple(elements), horizon)
    except HorizonExceeded:
        # IntSet checked the order first, so the elements are sorted here.
        i = bisect_right(elements, horizon)
        where = f"line {lines[i]}: " if lines else ""
        raise ParseError(f"{where}element {elements[i]} lies beyond the horizon {horizon}") from None


def parse_intset_text(text: str) -> IntSet:
    elements: list[int] = []
    lines: list[int] = []
    horizon: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#horizon"):
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected '#horizon <K>'")
            try:
                horizon = int(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: bad horizon {parts[1]!r}") from None
            continue
        if line.startswith("#"):
            continue
        try:
            elements.append(int(line))
        except ValueError:
            raise ParseError(f"line {lineno}: expected an integer, got {line!r}") from None
        lines.append(lineno)
    if horizon is None:
        horizon = elements[-1] if elements else 0
    return _intset(elements, horizon, lines)


def render_intset_text(s: IntSet) -> str:
    lines = [str(e) for e in s.elements]
    lines.append(f"#horizon {s.horizon}")
    return "\n".join(lines) + "\n"


def intset_to_json(s: IntSet) -> dict[str, Any]:
    return {"elements": list(s.elements), "horizon": s.horizon}


def intset_from_json(obj: Any) -> IntSet:
    if not isinstance(obj, dict):
        raise ParseError("set JSON must be an object")
    elems = obj.get("elements")
    horizon = obj.get("horizon")
    if not isinstance(elems, list) or not all(
        isinstance(e, int) and not isinstance(e, bool) for e in elems
    ):
        raise ParseError("set JSON needs an integer 'elements' array")
    if not isinstance(horizon, int) or isinstance(horizon, bool):
        raise ParseError("set JSON needs an integer 'horizon'")
    return _intset(elems, horizon)


def parse_intset(text: str) -> IntSet:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as e:
            raise ParseError(f"bad JSON: {e}") from None
        return intset_from_json(obj)
    return parse_intset_text(text)


# -- maps -----------------------------------------------------------------


def map_to_json(phi: MonotoneMap) -> dict[str, Any]:
    if isinstance(phi, LinearMap):
        return {"kind": "linear", "lambda": phi.slope.literal()}
    if isinstance(phi, PiecewiseMap):
        anchors = [[i, str(v)] for i, v in enumerate(phi.values, start=1)]
        if phi.limit is None:
            tail: dict[str, Any] = {"kind": "extend"}
        else:
            tail = {"kind": "saturate", "limit": str(phi.limit)}
        return {"kind": "piecewise", "anchors": anchors, "tail": tail}
    raise TypeError(f"no JSON form for {phi!r}")


def map_from_json(obj: Any) -> MonotoneMap:
    if not isinstance(obj, dict):
        raise ParseError("map JSON must be an object")
    kind = obj.get("kind")
    if kind == "linear":
        lam = obj.get("lambda")
        if not isinstance(lam, str):
            raise ParseError("linear map needs a 'lambda' exact literal string")
        return LinearMap(ExactNumber.parse(lam))
    if kind == "piecewise":
        anchors_raw = obj.get("anchors")
        if not isinstance(anchors_raw, list) or not anchors_raw:
            raise ParseError("piecewise map needs a non-empty 'anchors' array")
        values: list[Fraction] = []
        for i, entry in enumerate(anchors_raw, start=1):
            if not isinstance(entry, list) or len(entry) != 2:
                raise ParseError(f"anchor {i}: expected a [t, value] pair")
            t, v = entry
            if t != i:
                raise ParseError(f"anchor {i}: grid points must run 1..N, got t={t!r}")
            values.append(_rational_literal(v, f"anchor {i} value"))
        tail_raw = obj.get("tail", {"kind": "extend"})
        if not isinstance(tail_raw, dict) or "kind" not in tail_raw:
            raise ParseError("map 'tail' must be an object with a 'kind'")
        tkind = tail_raw["kind"]
        if tkind == "extend":
            return PiecewiseMap(values)
        if tkind == "saturate":
            limit = _rational_literal(tail_raw.get("limit"), "saturation limit")
            return PiecewiseMap(values, saturation_limit=limit)
        raise ParseError(f"unknown map tail kind {tkind!r}")
    raise ParseError(f"unknown map kind {kind!r}")


def parse_map(text: str) -> MonotoneMap:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"bad map JSON: {e}") from None
    return map_from_json(obj)


# -- event logs -----------------------------------------------------------


def event_to_json(time: ExactNumber, kind: str, count: int) -> dict[str, Any]:
    return {"t": time.literal(), "kind": kind, "count": count}


def events_to_jsonl(log: EventLog) -> str:
    lines = [json.dumps(event_to_json(e.time, e.kind, e.count)) for e in log.events]
    return "\n".join(lines) + ("\n" if lines else "")
