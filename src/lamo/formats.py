"""Text and JSON forms for sequences, integer sets, maps and event logs.

Both text forms share one grammar: one token per line, then at most one
directive line, after which only comments and blank lines may follow.  A
sequence file holds terms (integers or `inf`) and
`#tail constant <v>` | `#tail infinite` | `#tail unknown` (unknown when
absent); a set file holds elements and `#horizon <K>` (the last element
when absent).  A `#` line is the directive only when its first word is
`#tail` (resp. `#horizon`); every other line starting with `#` is a
comment, and blank lines are ignored.  Every integer, on a data line or
a directive, is ASCII digits after an optional `-`.  The JSON forms mirror
the same data; numbers that must stay exact travel as literal strings like
`(-1+1*sqrt(5))/2`, never as floats.  Text is written by one `%` format, not
one `str()` per term: exact, as terms are `int`s in tuples, `inf` only a
suffix.  The decoders only convert: the rules on terms, tails and elements
belong to `NumberSequence`, `Tail` and `IntSet`, and a value they reject is
reported with its line (text) or its term or element index (JSON).
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from itertools import chain
from operator import countOf
from typing import Any, Callable, Optional, Union

from .continuous import LinearMap, MonotoneMap, PiecewiseMap, _text
from .errors import HorizonExceeded, NotNonDecreasing, NotPositive, NotSorted, ParseError
from .exact import ExactNumber
from .runner import EventColumns, EventLog
from .sequences import INF, IntSet, NumberSequence, Tail, sequence_fault


def _rational_literal(text: Union[str, int], what: str) -> ExactNumber:
    if type(text) is int:
        return ExactNumber(text)
    if not isinstance(text, str):
        raise ParseError(f"{what} must be an exact literal string, got {text!r}")
    v = ExactNumber.parse(text)
    if not v.is_rational:
        raise ParseError(f"{what} must be rational, got {text!r}")
    return v


def _json(text: str, what: str = "JSON") -> Any:
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:  # bad JSON, too many digits, or too deep
        raise ParseError(f"bad {what}: {e}") from None


def _decode(text: str, from_json: Callable[[Any], Any], from_text: Callable[[str], Any]) -> Any:
    """Either form of a file, sniffed from its first non-blank character."""
    if text.lstrip().startswith("{"):
        return from_json(_json(text))
    return from_text(text)


def _plain(text: str) -> bool:  # does int() read only `integer`'s spelling in it?
    return text.isascii() and "_" not in text and "+" not in text


def _plain_head(text: str) -> Optional[str]:
    """The text before its first `#` (all of it without one), if that `#`
    follows a line end and the head holds only ASCII digits, `-`, spaces,
    tabs and line ends; None otherwise."""
    i = text.find("#")
    head = text[:i] if i >= 0 else text
    plain = head.isascii() and not head.encode().translate(None, b"0123456789\n\r\t -")
    return head if plain and (i < 0 or head.endswith("\n")) else None


def _scan(
    text: str, directive: str, inf: bool = False
) -> tuple[list[Any], Callable[[int], int], Optional[list[str]]]:
    """The values of the data lines of a text file, as `_ints` converts
    them, the line number of each, and the arguments of its directive (None
    when it has none).

    `line(i)` is the line of value i, and `line(len(values))` that of the
    directive; only blank and comment lines are recorded.  The head, the
    text before the first `#` if a line end precedes it, is converted as one
    JSON array when one byte pass finds only digits, `-`, spaces, tabs and
    line ends in it: JSON spells an integer as `integer` does, less leading
    zeros, and fails on every line where the two would differ.  A carriage
    return that does not end a line, or a head that is one blank line, would
    add a line that JSON does not see; those texts, texts without a head (a
    leading comment, say), and any JSON failure go line by line.
    """
    head = _plain_head(text)
    try:
        if head is None or "\r" in head and head.count("\r") != head.count("\r\n"):
            raise ValueError
        values: list[Any] = json.loads("[" + head.removesuffix("\n").replace("\n", ",") + "]")
        if not values:
            raise ValueError
    except ValueError:  # also past the interpreter's digit limit
        head, values = "", []  # the whole text goes line by line
    first = len(values)
    tokens: list[str] = []
    skipped: list[int] = []  # how many data lines precede each blank or comment line
    args: Optional[list[str]] = None
    for lineno, raw in enumerate(text[len(head) :].splitlines(), start=first + 1):
        line = raw.strip()
        if line and line[0] != "#":
            if args is not None:
                raise ParseError(f"line {lineno}: {line!r} after the {directive} directive")
            tokens.append(line)
            continue
        # A `#` line is the directive only if its first word is the directive.
        words = line.split()
        if words and words[0] == directive:
            if args is not None:
                raise ParseError(f"line {lineno}: duplicate {directive} directive")
            args = words[1:]
        elif args is None:
            skipped.append(first + len(tokens))
    line_of = lambda i: i + 1 + bisect_right(skipped, i)
    values.extend(_ints(tokens, lambda i: line_of(first + i), inf))
    return values, line_of, args


def integer(token: str) -> int:
    """The token as an int if it is ASCII digits after an optional `-`, the one
    integer spelling of text files and arguments; ValueError otherwise."""
    if not (token.isascii() and token.removeprefix("-").isdigit()):
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


def _ints(tokens: list[Any], line: Callable[[int], int], inf: bool = False) -> list[Any]:
    """The tokens, converted in place to ints, and `inf` to INF when allowed.

    In place, so that each string is freed as its value replaces it.  `int()`
    would also read `1_0`, `+2` and non-ASCII digits; when the joined tokens
    hold none of those, it reads exactly `integer`'s spelling, at less cost.
    """
    read = int if _plain("".join(tokens)) else integer
    try:
        for i, t in enumerate(tokens):
            tokens[i] = INF if inf and t == "inf" else read(t)
    except ValueError:
        # The first token that is no integer; those before it are converted.
        what = "an integer or 'inf'" if inf else "an integer"
        raise ParseError(f"line {line(i)}: expected {what}, got {tokens[i]!r}") from None
    return tokens


# -- sequences ------------------------------------------------------------


def _sequence(
    terms: list[Any], kind: Any, value: Any, line: Optional[Callable[[int], int]] = None
) -> NumberSequence:
    """The sequence, with a term or tail it rejects located by `sequence_fault`,
    a term first: by its line in the text form (`line` from `_scan`), and in
    JSON by its term index, which an order error names itself."""
    tail = None
    try:
        tail = Tail(kind, value)
        return NumberSequence(terms, tail)
    except (ValueError, NotNonDecreasing) as err:
        i, fault = sequence_fault(terms, tail) or (len(terms), err)
    where = f"line {line(i)}: " if line else ""
    if isinstance(fault, NotNonDecreasing):
        raise NotNonDecreasing(f"{where}{fault}")
    if i == len(terms):  # the tail's own fault
        raise ParseError(f"{where}{fault}")
    where = where or f"term {i + 1}: "
    raise ParseError(f"{where}expected a non-negative integer or 'inf', got {terms[i]!r}")


def parse_sequence_text(text: str) -> NumberSequence:
    terms, line, args = _scan(text, "#tail", inf=True)
    kind, value = "unknown", None
    if args is not None:
        n = line(len(terms))
        if not 1 <= len(args) <= 2:
            raise ParseError(f"line {n}: expected '#tail <kind> [<value>]'")
        kind = args[0]
        if len(args) == 2:
            (value,) = _ints(args[1:], lambda _: n)
    return _sequence(terms, kind, value, line)


def render_sequence_text(s: NumberSequence) -> str:
    n = bisect_left(s.prefix, INF)  # the ints, then a run of INF
    return "%d\n" * n % s.prefix[:n] + "inf\n" * (len(s) - n) + f"#tail {s.tail}\n"


def sequence_to_json(s: NumberSequence) -> dict[str, Any]:
    n = bisect_left(s.prefix, INF)
    terms: list[Any] = [*s.prefix[:n], *["inf"] * (len(s) - n)]
    tail: dict[str, Any] = {"kind": s.tail.kind}
    if s.tail.kind == "constant":
        tail["value"] = s.tail.value
    return {"terms": terms, "tail": tail}


def sequence_from_json(obj: Any) -> NumberSequence:
    if not isinstance(obj, dict):
        raise ParseError("sequence JSON must be an object")
    terms = obj.get("terms")
    if not isinstance(terms, list):
        raise ParseError("sequence JSON needs a 'terms' array")
    tail = obj.get("tail", {"kind": "unknown"})
    if not isinstance(tail, dict) or "kind" not in tail:
        raise ParseError("sequence JSON 'tail' must be an object with a 'kind'")
    if countOf(map(type, terms), int) < len(terms):
        # A copy, in which only the terms from the first "inf" on are compared.
        try:
            i = terms.index("inf")
        except ValueError:
            i = len(terms)
        terms = terms[:i] + [INF if t == "inf" else t for t in terms[i:]]
    return _sequence(terms, tail["kind"], tail.get("value"))


def parse_sequence(text: str) -> NumberSequence:
    """Sequence from either the text or the JSON form, sniffed from the input."""
    return _decode(text, sequence_from_json, parse_sequence_text)


# -- integer sets ---------------------------------------------------------


def _intset(
    elements: list[int], horizon: int, line: Optional[Callable[[int], int]] = None
) -> IntSet:
    """The set, with an element it rejects located by its line (text) or its
    index (JSON); an element past the file's own horizon is bad input."""
    try:
        return IntSet(tuple(elements), horizon)
    except HorizonExceeded:
        # IntSet checked the order first, so the elements are sorted here.
        i = bisect_right(elements, horizon)
        where = f"line {line(i)}: " if line else ""
        raise ParseError(f"{where}element {elements[i]} lies beyond the horizon {horizon}") from None
    except (NotPositive, NotSorted) as err:
        # The elements are ints: the first not above the one before it (or 0),
        # if any, else the horizon.
        i = next((i for i, (p, e) in enumerate(zip([0, *elements], elements)) if e <= p), None)
        if i is None:
            raise
        where = f"line {line(i)}" if line else f"element {i + 1}"
        raise type(err)(f"{where}: {err}") from None


def parse_intset_text(text: str) -> IntSet:
    elements, line, args = _scan(text, "#horizon")
    horizon = elements[-1] if elements else 0
    if args is not None:
        n = line(len(elements))
        if len(args) != 1:
            raise ParseError(f"line {n}: expected '#horizon <K>'")
        (horizon,) = _ints(args, lambda _: n)
    return _intset(elements, horizon, line)


def render_intset_text(s: IntSet) -> str:
    return "%d\n" * len(s.elements) % s.elements + f"#horizon {s.horizon}\n"


def intset_to_json(s: IntSet) -> dict[str, Any]:
    return {"elements": list(s.elements), "horizon": s.horizon}


def intset_from_json(obj: Any) -> IntSet:
    if not isinstance(obj, dict):
        raise ParseError("set JSON must be an object")
    elems = obj.get("elements")
    horizon = obj.get("horizon")
    if not isinstance(elems, list) or countOf(map(type, elems), int) != len(elems):
        raise ParseError("set JSON needs an integer 'elements' array")
    if type(horizon) is not int:
        raise ParseError("set JSON needs an integer 'horizon'")
    return _intset(elems, horizon)


def parse_intset(text: str) -> IntSet:
    """Set from either the text or the JSON form, sniffed from the input."""
    return _decode(text, intset_from_json, parse_intset_text)


# -- maps -----------------------------------------------------------------


def map_to_json(phi: MonotoneMap) -> dict[str, Any]:
    if isinstance(phi, LinearMap):
        return {"kind": "linear", "lambda": phi.slope.literal()}
    if isinstance(phi, PiecewiseMap):
        anchors = [[i, _text(*pq)] for i, pq in enumerate(phi._pairs[1:], start=1)]
        if phi._limit is None:
            tail: dict[str, Any] = {"kind": "extend"}
        else:
            tail = {"kind": "saturate", "limit": _text(*phi._limit)}
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
        values: list[ExactNumber] = []
        for i, entry in enumerate(anchors_raw, start=1):
            if not isinstance(entry, list) or len(entry) != 2:
                raise ParseError(f"anchor {i}: expected a [t, value] pair")
            t, v = entry
            if type(t) is not int or t != i:
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
    return map_from_json(_json(text, "map JSON"))


# -- event logs -----------------------------------------------------------


def events_to_jsonl(log: Union[EventLog, EventColumns]) -> str:
    # The line `json.dumps` writes for each event, in one `%` pass, which
    # writes an `ExactNumber` time as its literal: a time literal and an
    # event kind hold no character that JSON escapes.
    kinds = log.kinds
    rows = chain.from_iterable(zip(log.times, kinds, log.counts))
    return '{"t": "%s", "kind": "%s", "count": %d}\n' * len(kinds) % tuple(rows)


def events_to_json(log: Union[EventLog, EventColumns], summary: dict[str, Any]) -> str:
    """`json.dumps({"events": [...], **summary})` for a non-empty summary:
    the JSONL lines, joined by ", "."""
    events = events_to_jsonl(log)[:-1].replace("\n", ", ")
    return f'{{"events": [{events}], {json.dumps(summary)[1:]}'
