"""Independent numeric oracles used to cross-check the exact kernel.

Everything here deliberately shares no algorithm with the package under
test, and imports from it only three error classes: `OutsideImage`, which
marks a point outside a map's image, `ParseError` and `CollisionPresent`.
Still, `bisect_meeting_time`, `meeting_count`, `scan_lattice_avoidance`,
`generic_corollary_sets`, `pointwise_induced_inverse`, `merge_events`,
`merged_groups` and `per_event_simulate` take a map and call its own
`eval`, `inverse_eval` or `level_times`, and work with the `ExactNumber`
values it returns.  The decimal oracles go through the stdlib `decimal`
module at high precision; they are advisory: where they and the exact
route disagree, the exact route is authoritative, and the tests treat any
disagreement as a failure to be investigated rather than auto-resolved.
`bisect_floor` uses integers only and is exact for every input.
`bisect_meeting_time` is the simulator's former meeting solver, kept as
the slow path that the closed-form `level_times` streams are checked
against; it asks the map only for `eval` at integer points.
`meeting_count` is the formula floor(phi(t) + t) for the number of
meetings by time t, which the simulator's counts are checked against.
`scan_grid_witness` is the former window check, which tests every pair of
the window instead of counting.

Three more are the slow paths that the integer-only routes replaced:
`scan_lattice_avoidance` evaluates a map at every point of the window,
`subtract_compare` orders two values by building their difference, and
`generic_corollary_sets` builds the pair of sets term by term through the
map, whatever its shape, taking each floor by `bisect_floor`.
`merge_events` is the simulator's first merge, ordered and grouped on the
bare exact times; `merged_groups` and `grouped_merge_events` are its
second, the prefix-keyed `heapq.merge` and `groupby` that the sorted
passes replaced.  `event_to_json` is an event's JSON object, which the
JSON and JSONL renderers are checked against.  `bisect_invert` is the
former counting inverse, one `bisect_left` per output term.
`pointwise_induced_inverse` is the map route's former inverse, one
`inverse_eval` per index instead of one walk over the crossings.
`scan_parse_text` is the text files' former scanner, which reads every
line on its own, and `regex_plain_head` the former rule for the head that
the scanner reads in one pass: up to the first `#` that starts a line,
checked by a regex.  `check_non_decreasing` is the sequence order rule as the
operations checked it before `NumberSequence` did, and
`scan_complementary` the complementarity check's former loop over the
integers of the window.  `isqrt_multiple_floors` is the former rule for the
floors of n*x, one isqrt per term, which the shift pass of
`multiple_floors` is checked against.  `fraction_level_times` is the
piecewise maps' former crossing walk, `Fraction` arithmetic per piece over
the grid values of `fraction_anchor`, the three-case anchor rule read off
the map's stored `values` and `limit`; the integer walk of
`PiecewiseMap.level_times` is checked against it.

`per_term_sequence_text`, `per_term_intset_text`, `per_term_intset_str` and
`per_term_sequence_json` are the writers that gave each term its own `str()`
or `is inf` test, which the one-pass `%` writers are checked against.
`four_pass_recorded_sets` is the recorded sets as one Python pass over the
events for the collisions, one for each set and one for the horizon.
`per_event_simulate` and `per_event_jsonl` are the simulator's per-event
path that the integer columns replaced: an exact value, a `floor` and a
row per time, and one `literal()` per line.
"""

from __future__ import annotations

import heapq
import itertools
import math
import re
from bisect import bisect_left, bisect_right
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import count, groupby, takewhile
from operator import itemgetter

from lamo.errors import CollisionPresent, OutsideImage, ParseError

DIGITS = 100

# Values this close to an integer make a decimal floor unreliable; the
# inputs generated by the tests stay far away from this band.
GUARD = Decimal(10) ** -40


def decimal_value(a: int, b: int, d: int, c: int, digits: int = DIGITS) -> Decimal:
    """(a + b*sqrt(d))/c evaluated with `digits` significant digits."""
    with localcontext() as ctx:
        ctx.prec = digits
        return (Decimal(a) + Decimal(b) * Decimal(d).sqrt()) / Decimal(c)


def decimal_floor(a: int, b: int, d: int, c: int, digits: int = DIGITS) -> int:
    """Floor via high-precision decimal, guarded against near-integer values."""
    with localcontext() as ctx:
        ctx.prec = digits
        x = (Decimal(a) + Decimal(b) * Decimal(d).sqrt()) / Decimal(c)
        n = int(x.to_integral_value(rounding="ROUND_FLOOR"))
        if abs(x - n) < GUARD and x != n:
            raise AssertionError(f"decimal floor of ({a}+{b}*sqrt({d}))/{c} is too close to call")
        return n


def wythoff_pair(n: int, digits: int = DIGITS) -> tuple[int, int]:
    """(floor(n*phi), floor(n*phi^2)) with phi the golden ratio, via decimal."""
    with localcontext() as ctx:
        ctx.prec = digits
        phi = (1 + Decimal(5).sqrt()) / 2
        lower = int((phi * n).to_integral_value(rounding="ROUND_FLOOR"))
        upper = int((phi * phi * n).to_integral_value(rounding="ROUND_FLOOR"))
        return lower, upper


def counting_inverse(values: list[float], n: int) -> int:
    """|{m : f(m) < n}| by brute enumeration over an explicit finite list."""
    return sum(1 for v in values if v < n)


def bisect_invert(f) -> tuple[list[int], tuple]:
    """The counting inverse of f as (prefix, (tail kind, tail value)), one
    `bisect_left` over the finite terms per output term.

    The prefix runs to the top of the window: the constant tail value, the
    last finite term for an infinite or unknown tail (0 with none).  An
    infinite tail gives a constant tail of the number of finite terms, a
    constant one an infinite tail.
    """
    run = [v for v in f.prefix if v != float("inf")]
    kind = f.tail.kind
    top = f.tail.value if kind == "constant" else (run[-1] if run else 0)
    tail = {"infinite": ("constant", len(run)), "constant": ("infinite", None),
            "unknown": ("unknown", None)}[kind]
    return [bisect_left(run, n) for n in range(1, top + 1)], tail


def check_non_decreasing(prefix, tail) -> bool:
    """True iff the prefix is non-decreasing from 0 on and, for a constant
    tail, ends at most at its value; `tail` is read by its `kind` and
    `value`."""
    prev = 0
    for v in prefix:
        if v < prev:
            return False
        prev = v
    return tail.kind != "constant" or prev <= tail.value


def scan_complementary(A, B, K: int) -> tuple:
    """(kind, witness) of the verdict on A and B over [1, K]: the smallest
    integer in both sets if there is one, else the smallest in neither, by a
    scan over every integer of the window."""
    in_a = set(A.elements)
    in_b = set(B.elements)
    first_gap = None
    for i in range(1, K + 1):
        a = i in in_a
        b = i in in_b
        if a and b:
            return ("overlap", i)
        if not a and not b and first_gap is None:
            first_gap = i
    if first_gap is not None:
        return ("gap", first_gap)
    return ("partition", None)


def scan_grid_witness(f, g, M: int, N: int):
    """First (m, n), m-major, where not exactly one of f(m) < n, g(n) < m holds.

    Reads the sequences only through `value_at` and tests all M*N pairs.
    """
    fv = [f.value_at(m) for m in range(1, M + 1)]
    gv = [g.value_at(n) for n in range(1, N + 1)]
    for m in range(1, M + 1):
        for n in range(1, N + 1):
            first = fv[m - 1] < n
            if first == (gv[n - 1] < m):
                return (m, n, "both" if first else "neither")
    return None


def isqrt_multiple_floors(a: int, b: int, d: int, c: int, K: int) -> list[int]:
    """floor(n*(a + b*sqrt(d))/c) for n = 1, 2, .. up to the last value <= K,
    for a positive value with c >= 1 and d non-square whenever b != 0.

    n*b*sqrt(d) is then irrational, so it lies strictly between s and s+1
    (resp. -(s+1) and -s) for s = isqrt(b*b*d*n*n); and
    floor(y/c) = floor(floor(y)/c) for the integer c >= 1.  For b = 0,
    s = 0 and the term is a*n // c.
    """
    bbd = b * b * d
    if b >= 0:
        terms = ((a * n + math.isqrt(bbd * n * n)) // c for n in count(1))
    else:
        terms = ((a * n - math.isqrt(bbd * n * n) - 1) // c for n in count(1))
    return list(takewhile(K.__ge__, terms))


def fraction_anchor(phi, j: int) -> Fraction:
    """The value at the grid point j >= 0 of a piecewise map, from its stored
    `values` v_1..v_n and `limit`: 0 at j = 0, v_j through n, then the last
    slope extended, or limit - s/(j+1) with s = (limit - v_n)*(n+1)."""
    vals, n = phi.values, len(phi.values)
    if j <= n:
        return vals[j - 1] if j else Fraction(0)
    if phi.limit is None:
        return vals[-1] + (vals[-1] - (vals[-2] if n > 1 else 0)) * (j - n)
    return phi.limit - (phi.limit - vals[-1]) * (n + 1) / (j + 1)


def _fields(x) -> tuple[int, int, int, int]:
    """(a, b, d, c) of an exact value (a + b*sqrt(d))/c: an ExactNumber's
    fields, or an int's or a Fraction's with b = d = 0."""
    if hasattr(x, "d"):
        return x.a, x.b, x.d, x.c
    q = Fraction(x)
    return q.numerator, 0, 0, q.denominator


def fraction_level_times(phi, shift: int, until=None):
    """(k, t_k) for k = 1, 2, .. with phi(t_k) + shift*t_k = k and t_k <= until,
    for a piecewise map, each t_k a Fraction; endless for until None, except
    that the crossings (shift 0) of a bounded image end at its limit.

    On the piece [j-1, j], phi(t) + shift*t runs linearly from lo to hi and
    passes each integer k in (lo, hi] once, at (j-1) + (k - lo)/(hi - lo).
    The piece that holds `until` = (a + b*sqrt(d))/c, rational or not, is cut
    at floor(lo + (until - (j-1))*(hi - lo)), taken by `bisect_floor`.
    """
    a, b, d, c = (0, 0, 0, 1) if until is None else _fields(until)
    last = math.inf if until is None else bisect_floor(a, b, d, c) + 1
    lo = Fraction(0)
    for j in count(1):
        first = math.floor(lo) + 1
        if j > last or shift == 0 and phi.limit is not None and first >= phi.limit:
            return
        hi = fraction_anchor(phi, j) + shift * j
        width = hi - lo
        if j < last:
            top = math.floor(hi)
        else:
            # lo + (until - (j-1))*width = rational + irrational*sqrt(d)
            rational = lo + (Fraction(a, c) - (j - 1)) * width
            irrational = width * Fraction(b, c)
            den = math.lcm(rational.denominator, irrational.denominator)
            top = bisect_floor(int(rational * den), int(irrational * den), d, den)
        for k in range(first, top + 1):
            yield k, (j - 1) + (k - lo) / width
        lo = hi


def _sign_with_root(p: int, q: int, d: int) -> int:
    """Sign of p + q*sqrt(d) for d >= 0, decided by squaring."""
    sp, sq = (p > 0) - (p < 0), (q > 0) - (q < 0)
    if sq == 0 or d == 0:
        return sp
    if sp == 0 or sp == sq:
        return sq
    # Opposite signs: the term with the larger square wins.
    diff = p * p - q * q * d
    return sp if diff > 0 else sq if diff < 0 else 0


def bisect_floor(a: int, b: int, d: int, c: int) -> int:
    """floor((a + b*sqrt(d))/c) for c >= 1 and d >= 0, by bisection on n.

    n <= x holds iff (a - c*n) + b*sqrt(d) >= 0, and |x| <= |a| + |b|*d.
    """
    lo = -(abs(a) + abs(b) * d) - 1  # lo <= x
    hi = abs(a) + abs(b) * d + 1  # x < hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _sign_with_root(a - c * mid, b, d) >= 0:
            lo = mid
        else:
            hi = mid
    return lo


def bisect_meeting_time(phi, k: int):
    """The unique t with phi(t) + t = k, for a map phi with exact `eval`.

    phi(t) + t is continuous, strictly increasing and unbounded, so the
    solution exists for every k >= 1.  The bracketing integer interval is
    found by doubling and bisection on exact values, then the linear piece
    inside it is solved in closed form.
    """

    def total(j: int):
        return phi.eval(j) + j if j else 0

    hi = 1
    while total(hi) < k:
        hi *= 2
    lo = hi // 2  # total(lo) < k <= total(hi), with total(0) = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if total(mid) < k:
            lo = mid
        else:
            hi = mid
    y_lo = phi.eval(lo) if lo else 0
    slope = phi.eval(hi) - y_lo
    # On [lo, hi]: phi(t) + t = y_lo + lo + (t - lo)(slope + 1).
    return lo + (k - (y_lo + lo)) / (slope + 1)


def meeting_count(phi, t) -> int:
    """floor(phi(t) + t), the number of meetings of the two motions by time t."""
    x = phi.eval(t) + t
    return bisect_floor(x.a, x.b, x.d, x.c)


def scan_lattice_avoidance(phi, N: int):
    """The first n in 1..N with phi(n) an integer, or None; evaluates every n."""
    for n in range(1, N + 1):
        if phi.eval(n).is_integer():
            return n
    return None


def subtract_compare(x, y) -> int:
    """Sign of x - y, with x - y built by exact arithmetic and its sign
    decided by squaring."""
    z = x - y
    return _sign_with_root(z.a, z.b, z.d)


def generic_corollary_sets(phi, K: int) -> tuple[list[int], list[int]]:
    """(S_Y, S_X) on [1, K]: floor(phi(n) + n) for n = 1, 2, .., and
    floor(t + n) at each crossing (n, t) of `level_times(0, K)`.

    Both runs increase strictly, so each stops at its first value past K.
    """

    def floor(x) -> int:
        return bisect_floor(x.a, x.b, x.d, x.c)

    s_y = []
    n = 1
    while (v := floor(phi.eval(n) + n)) <= K:
        s_y.append(v)
        n += 1
    s_x = []
    for n, t in phi.level_times(0, K):
        v = floor(t + n)
        if v > K:
            break
        s_x.append(v)
    return s_y, s_x


def pointwise_induced_inverse(phi, n: int):
    """floor(phi^-1(n)) when n is in the image of phi, inf otherwise."""
    try:
        return phi.inverse_eval(n).floor()
    except OutsideImage:
        return float("inf")


def merge_events(phi, T) -> list[tuple]:
    """(time, kind, count) of each event up to the exact time T > 0.

    `heapq.merge` orders the Y crossings at the integers and the two
    `level_times` streams by exact comparison of the bare times, and
    `groupby` gathers equal times into one event, a collision when more
    than one stream meets there.  A count is the number of meetings merged
    so far, a meeting counting itself.
    """
    streams = (
        ((k, "y_crosses_origin") for k in range(1, bisect_floor(T.a, T.b, T.d, T.c) + 1)),
        ((t, "x_crosses_origin") for _, t in phi.level_times(0, T)),
        ((t, "meeting") for _, t in phi.level_times(1, T)),
    )
    events = []
    meetings = 0
    for t, due in groupby(heapq.merge(*streams, key=itemgetter(0)), key=itemgetter(0)):
        kinds = [kind for _, kind in due]
        if "meeting" in kinds:
            meetings += 1
        events.append((t, kinds[0] if len(kinds) == 1 else "collision", meetings))
    return events


def merged_groups(phi, T):
    """(t, kinds) for each distinct time t of an event up to the exact T > 0.

    The simulator's former assembly: the Y crossings, the X crossings and
    the meetings are three generators of items (floor(t*2^32), t, kind),
    `heapq.merge` orders them, and `groupby` gathers the items of one time
    on the pair (floor(t*2^32), t).
    """
    scale = 2**32
    streams = (
        ((k * scale, k, "y_crosses_origin") for k in range(1, bisect_floor(T.a, T.b, T.d, T.c) + 1)),
        ((t.floor(scale), t, "x_crosses_origin") for _, t in phi.level_times(0, T)),
        ((t.floor(scale), t, "meeting") for _, t in phi.level_times(1, T)),
    )
    for (_, t), due in groupby(heapq.merge(*streams), key=itemgetter(0, 1)):
        yield t, [kind for _, _, kind in due]


def grouped_merge_events(phi, T) -> list[tuple]:
    """(time, kind, count) of each event up to T, one per group of
    `merged_groups`: a group of more than one item is a collision, and a
    count is the number of groups so far that hold a meeting."""
    events = []
    meetings = 0
    for t, kinds in merged_groups(phi, T):
        if "meeting" in kinds:
            meetings += 1
        events.append((t, kinds[0] if len(kinds) == 1 else "collision", meetings))
    return events


def per_event_simulate(phi, T) -> list[tuple]:
    """(time, kind, count) of each event up to the exact time T > 0, by the
    simulator's former per-event path.

    Each time is an exact value: the X and meeting times from the map's
    `level_times`, one per time, and the Y crossings as values of T's own
    type.  Each is keyed (floor(t*2^16), t, kind) with one `floor` per time,
    one sort merges the keys, neighbours with equal prefixes have their
    times compared exactly, and each time of the log is one row, at the
    last item of its time: a collision where streams share it.
    """
    scale = 2**16
    n = bisect_floor(T.a, T.b, T.d, T.c)

    def keyed(walk, kind):
        times = [t for _, t in walk]
        return zip([t.floor(scale) for t in times], times, itertools.repeat(kind))

    items = [
        *zip(range(scale, (n + 1) * scale, scale), map(type(T), range(1, n + 1)),
             itertools.repeat("y_crosses_origin")),
        *keyed(phi.level_times(0, T), "x_crosses_origin"),
        *keyed(phi.level_times(1, T), "meeting"),
    ]
    items.sort()
    events, meetings = [], 0
    for i, (key, t, kind) in enumerate(items):
        meetings += kind == "meeting"
        if i > 0 and items[i - 1][0] == key and items[i - 1][1] == t:
            kind = "collision"
        if i + 1 < len(items) and items[i + 1][0] == key and items[i + 1][1] == t:
            continue
        events.append((t, kind, meetings))
    return events


def per_event_jsonl(events) -> str:
    """The JSONL lines of (time, kind, count) rows, one `literal()` each."""
    return "".join(f'{{"t": "{t.literal()}", "kind": "{kind}", "count": {count}}}\n'
                   for t, kind, count in events)


def event_to_json(time, kind: str, count: int) -> dict:
    """The JSON object of one event, for `json.dumps`."""
    return {"t": time.literal(), "kind": kind, "count": count}


def per_term_sequence_text(s) -> str:
    """A sequence's text form, one `str()` or `inf` per term, then its tail line."""
    lines = ["inf" if v is math.inf else str(v) for v in s.prefix]
    lines.append(f"#tail {s.tail}")
    return "\n".join(lines) + "\n"


def per_term_intset_text(s) -> str:
    """A set's text form, one `str()` per element, then its horizon line."""
    lines = [str(e) for e in s.elements]
    lines.append(f"#horizon {s.horizon}")
    return "\n".join(lines) + "\n"


def per_term_intset_str(s) -> str:
    """A set as `{e1, e2, ...} horizon K`, one `str()` per element."""
    inner = ", ".join([str(e) for e in s.elements])
    return f"{{{inner}}} horizon {s.horizon}"


def per_term_sequence_json(s) -> dict:
    """A sequence's JSON object, with an `is inf` test per term."""
    tail = {"kind": s.tail.kind}
    if s.tail.kind == "constant":
        tail["value"] = s.tail.value
    return {"terms": ["inf" if v is math.inf else v for v in s.prefix], "tail": tail}


def four_pass_recorded_sets(log) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """(S_X elements, S_Y elements, horizon) of a collision-free log, in four
    Python passes over its events; CollisionPresent, naming the first
    collision's time, for any other log."""
    bad = [e for e in log.events if e.kind == "collision"]
    if bad:
        raise CollisionPresent(f"meeting at the origin at t={bad[0].time}; recorded sets are void")
    xs = [e.count for e in log.events if e.kind == "x_crosses_origin" and e.count >= 1]
    ys = [e.count for e in log.events if e.kind == "y_crosses_origin" and e.count >= 1]
    crossings = ("x_crosses_origin", "y_crosses_origin")
    horizon = max((e.count for e in log.events if e.kind in crossings), default=0)
    return tuple(xs), tuple(ys), horizon


def scan_parse_text(text: str, directive: str, inf: bool = False):
    """(values, line, args) of a text file, read line by line: its data lines
    converted to ints (and `inf` to math.inf when allowed), `line(i)` the
    line of value i and of the directive at i = len(values), and the
    directive's arguments, None without one.

    A data line is a stripped line that does not start with `#`, and none
    may follow the directive; the directive may appear once.  An integer is
    ASCII digits after an optional `-`.
    """
    tokens = []
    skipped = []  # how many data lines precede each blank or comment line
    args = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and line[0] != "#":
            if args is not None:
                raise ParseError(f"line {lineno}: {line!r} after the {directive} directive")
            tokens.append(line)
            continue
        words = line.split()
        if words and words[0] == directive:
            if args is not None:
                raise ParseError(f"line {lineno}: duplicate {directive} directive")
            args = words[1:]
        elif args is None:
            skipped.append(len(tokens))

    def line_of(i: int) -> int:
        return i + 1 + bisect_right(skipped, i)

    def value(i: int, t: str):
        if inf and t == "inf":
            return math.inf
        try:
            if t.isascii() and t.removeprefix("-").isdigit():
                return int(t)  # ValueError past the interpreter's digit limit
        except ValueError:
            pass
        what = "an integer or 'inf'" if inf else "an integer"
        raise ParseError(f"line {line_of(i)}: expected {what}, got {t!r}")

    return [value(i, t) for i, t in enumerate(tokens)], line_of, args


def regex_plain_head(text: str):
    """The text up to the first `#` that starts a line (all of it without
    one), when it holds only ASCII digits, `-`, spaces, tabs and line ends;
    None otherwise."""
    head = text[: text.find("\n#") + 1 or len(text)]
    return head if re.fullmatch(r"[0-9\n\r\t -]*", head) else None
