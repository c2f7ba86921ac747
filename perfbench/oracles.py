"""Output checkers for the benchmark, one per workload.

Each checker recomputes what a `lamo` call must print from the inputs the
benchmark generated, using integers (and `Fraction`, which is integer
arithmetic) only, and shares no code with the package under test.  A checker
returns the number of output elements it verified (set elements, sequence
terms and trace events); it raises `Mismatch` on the first disagreement.

Quadratic irrationals are carried as tuples (P, Q, D, C) meaning
(P + Q*sqrt(D)) / C with C > 0 and D not a perfect square whenever Q != 0.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_left
from fractions import Fraction


class Mismatch(Exception):
    """The output of an operation disagrees with the checker."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


# -- integer kernel -----------------------------------------------------------


def floor_times(x: tuple[int, int, int, int], n: int) -> int:
    """floor(n * x) for x = (P + Q*sqrt(D)) / C, by math.isqrt."""
    p, q, d, c = x
    if q == 0:
        return (n * p) // c
    r = math.isqrt(n * n * q * q * d)
    s = r if q > 0 else -r - 1  # floor(n*Q*sqrt(D)); D is not a square
    return (n * p + s) // c


def one_plus(lam: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    a, b, d, c = lam
    return (c + a, b, d, c)


def one_plus_inverse(lam: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """1 + 1/lam = (N + c*a - c*b*sqrt(d)) / N with N = a^2 - b^2 d."""
    a, b, d, c = lam
    norm = a * a - b * b * d
    p, q = norm + c * a, -c * b
    if norm < 0:
        norm, p, q = -norm, -p, -q
    return (p, q, d, norm)


def reciprocal_times(x: tuple[int, int, int, int], k: int) -> tuple[int, int, int, int]:
    """k / x as (P, Q, D, C)."""
    p, q, d, c = x
    norm = p * p - q * q * d
    rp, rq = k * c * p, -k * c * q
    if norm < 0:
        norm, rp, rq = -norm, -rp, -rq
    return (rp, rq, d if rq else 0, norm)


def beatty_set(x: tuple[int, int, int, int], limit: int) -> list[int]:
    """{floor(n*x) : n >= 1} on [1, limit], for x > 1."""
    out = []
    n = 1
    while True:
        v = floor_times(x, n)
        if v > limit:
            return out
        out.append(v)
        n += 1


def complement_verdict(a: list[int], b: list[int], k: int) -> tuple[str, int | None]:
    """('partition', None), ('overlap', smallest shared) or ('gap', smallest missing)."""
    shared = set(a).intersection(b)
    if shared:
        return "overlap", min(shared)
    covered = set(a).union(b)
    for i in range(1, k + 1):
        if i not in covered:
            return "gap", i
    return "partition", None


_LIT_INT = re.compile(r"(-?\d+)(?:/(\d+))?")
_LIT_RAD = re.compile(r"(-?)(?:(\d+)\*)?sqrt\((\d+)\)(?:/(\d+))?")
_LIT_FULL = re.compile(r"\((-?\d+)([+-])(\d+)\*sqrt\((\d+)\)\)(?:/(\d+))?")


def parse_literal(text: str) -> tuple[int, int, int, int]:
    """(P, Q, D, C) from the exact literal `lamo` prints."""
    m = _LIT_INT.fullmatch(text)
    if m:
        return (int(m[1]), 0, 0, int(m[2] or 1))
    m = _LIT_RAD.fullmatch(text)
    if m:
        return (0, (-1 if m[1] else 1) * int(m[2] or 1), int(m[3]), int(m[4] or 1))
    m = _LIT_FULL.fullmatch(text)
    if m:
        return (int(m[1]), (-1 if m[2] == "-" else 1) * int(m[3]), int(m[4]), int(m[5] or 1))
    raise Mismatch(f"unparsable literal {text!r}")


def same_value(x: tuple[int, int, int, int], y: tuple[int, int, int, int]) -> bool:
    """Equality of two values whose radicands are squarefree (or absent)."""
    (p1, q1, d1, c1), (p2, q2, d2, c2) = x, y
    if q1 and q2 and d1 != d2:
        return False
    return p1 * c2 == p2 * c1 and q1 * c2 == q2 * c1


# -- text forms ---------------------------------------------------------------


def parse_braced_set(text: str, label: str) -> tuple[list[int], int]:
    """'{1, 3, 4} horizon 7' after the given label."""
    m = re.fullmatch(re.escape(label) + r"\{([\d, ]*)\} horizon (\d+)", text)
    expect(m is not None, f"bad set line {text[:80]!r}")
    body = m[1].strip()
    return ([int(t) for t in body.split(", ")] if body else []), int(m[2])


def parse_json_set(obj: object) -> tuple[list[int], int]:
    expect(isinstance(obj, dict) and set(obj) == {"elements", "horizon"}, "bad set object")
    return list(obj["elements"]), obj["horizon"]


def read_lines(text: str) -> list[str]:
    expect(text.endswith("\n"), "output does not end with a newline")
    return text[:-1].split("\n")


def expect_set(got: tuple[list[int], int], elements: list[int], horizon: int, what: str) -> None:
    expect(got[1] == horizon, f"{what}: horizon {got[1]} != {horizon}")
    expect(got[0] == elements, f"{what}: elements differ")


# -- beatty -------------------------------------------------------------------


def check_beatty(lam: tuple[int, int, int, int], k: int, fmt: str, text: str, code: int) -> int:
    """`lamo beatty lam K`: both Beatty sets, the verdict and lattice avoidance."""
    expect(code == 0, f"exit code {code}")
    a = beatty_set(one_plus(lam), k)
    b = beatty_set(one_plus_inverse(lam), k)
    kind, witness = complement_verdict(a, b, k)
    p, q, _, c = lam
    if q == 0:
        expect(kind == "overlap", f"rational slope gave {kind}")
        step = c // math.gcd(p, c)  # smallest n with lam*n an integer
        violation = step if step <= k else None
    else:
        expect(kind == "partition", f"irrational slope gave {kind}")
        violation = None
    if fmt == "json":
        obj = json.loads(text)
        expect_set(parse_json_set(obj["A"]), a, k, "A")
        expect_set(parse_json_set(obj["B"]), b, k, "B")
        expect((obj["verdict"], obj["witness"]) == (kind, witness), "verdict")
        expect(obj["avoidance"] == {"holds": violation is None, "violation": violation,
                                    "checked_through": k}, "avoidance")
    else:
        lines = read_lines(text)
        expect(len(lines) == 4, "beatty text has 4 lines")
        expect_set(parse_braced_set(lines[0], "A: "), a, k, "A")
        expect_set(parse_braced_set(lines[1], "B: "), b, k, "B")
        shown = kind if witness is None else f"{kind}({witness})"
        expect(lines[2] == f"complementary [1,{k}]: {shown}", "verdict line")
        avoid = f"holds through {k}" if violation is None else f"violation({violation})"
        expect(lines[3] == f"lattice avoidance n<={k}: {avoid}", "avoidance line")
    return len(a) + len(b)


# -- simulate -----------------------------------------------------------------

Y, X, MEET, COLL = "y_crosses_origin", "x_crosses_origin", "meeting", "collision"


def linear_irrational_events(lam: tuple[int, int, int, int], t_max: int):
    """Event log and both Beatty sets for phi(t) = lam*t, lam irrational.

    Meeting k is at k/(1+lam) and the crossing between meetings c and c+1
    records count c, so the log is meeting 1, crossing 1, meeting 2, ...
    with the crossing's kind read off the two Beatty sets.
    """
    r, s = one_plus(lam), one_plus_inverse(lam)
    y_counts = {floor_times(r, n): n for n in range(1, t_max + 1)}
    x_last = floor_times(lam, t_max)
    x_counts = {floor_times(s, j): j for j in range(1, x_last + 1)}
    meetings = floor_times(r, t_max)
    inv_lam = reciprocal_times(lam, 1)
    events = []
    for c in range(1, meetings + 1):
        events.append((reciprocal_times(r, c), MEET, c))
        if c in y_counts:
            events.append(((y_counts[c], 0, 0, 1), Y, c))
        elif c in x_counts:
            j = x_counts[c]
            events.append(((inv_lam[0] * j, inv_lam[1] * j, inv_lam[2], inv_lam[3]), X, c))
    horizon = max(floor_times(r, t_max), floor_times(s, x_last) if x_last else 0)
    return events, beatty_set(s, horizon), beatty_set(r, horizon), horizon


class RationalMap:
    """phi through (0, 0) and the anchors (i, anchor(i)), linear in between."""

    def __init__(self, slope: Fraction | None = None, anchors: list[Fraction] | None = None,
                 limit: Fraction | None = None) -> None:
        self.slope, self.anchors, self.limit = slope, anchors or [], limit

    def at(self, i: int) -> Fraction:
        if self.slope is not None:
            return self.slope * i
        n = len(self.anchors)
        if i == 0:
            return Fraction(0)
        if i <= n:
            return self.anchors[i - 1]
        if self.limit is None:
            last = self.anchors[-1] - (self.anchors[-2] if n > 1 else 0)
            return self.anchors[-1] + last * (i - n)
        scale = (self.limit - self.anchors[-1]) * (n + 1)
        return self.limit - scale / (i + 1)

    def value(self, t: Fraction) -> Fraction:
        i = max(1, math.ceil(t))
        lo, hi = self.at(i - 1), self.at(i)
        return lo + (t - (i - 1)) * (hi - lo)

    def levels(self, plus_t: bool):
        """(k, t) with phi(t) = k, or phi(t) + t = k, for k = 1, 2, ... in order."""
        k, i = 1, 1
        while plus_t or self.limit is None or k < self.limit:
            lo, hi = self.at(i - 1) + plus_t * (i - 1), self.at(i) + plus_t * i
            while k <= hi and (plus_t or self.limit is None or k < self.limit):
                yield k, (i - 1) + (k - lo) / (hi - lo)
                k += 1
            i += 1


def rational_events(phi: RationalMap, t_max: int):
    """Exact event log of the two runners up to t_max, merged by time."""
    stamps: dict[Fraction, list[str]] = {Fraction(n): [Y] for n in range(1, t_max + 1)}
    meeting_no: dict[Fraction, int] = {}
    for kind, plus_t in ((X, False), (MEET, True)):
        for k, t in phi.levels(plus_t):
            if t > t_max:
                break
            stamps.setdefault(t, []).append(kind)
            if kind == MEET:
                meeting_no[t] = k
    events = []
    for t in sorted(stamps):
        kinds = stamps[t]
        count = meeting_no[t] if t in meeting_no else math.floor(phi.value(t) + t)
        kind = COLL if len(kinds) > 1 else kinds[0]
        events.append(((t.numerator, 0, 0, t.denominator), kind, count))
    return events


def rational_sets(phi: RationalMap, events):
    """Recorded (S_X, S_Y) from crossing counts, and the formula sets on that window."""
    rec_x = [c for _, kind, c in events if kind == X and c >= 1]
    rec_y = [c for _, kind, c in events if kind == Y and c >= 1]
    horizon = max([c for _, kind, c in events if kind in (X, Y)], default=0)
    alg_y = []
    n = 1
    while horizon and math.floor(phi.at(n) + n) <= horizon:
        alg_y.append(math.floor(phi.at(n) + n))
        n += 1
    alg_x = []
    for n, t in phi.levels(False) if horizon else ():
        if math.floor(t + n) > horizon:
            break
        alg_x.append(math.floor(t + n))
    return (rec_x, rec_y), (alg_x, alg_y), horizon


def check_simulate(events, sets, fmt: str, text: str, code: int) -> int:
    """`lamo simulate MAP T`: every event, and on success both pairs of sets.

    `sets` is None when the log must contain a collision, else
    ((rec_x, rec_y), (alg_x, alg_y), horizon).
    """
    if fmt == "json":
        obj = json.loads(text)
        got = [(e["t"], e["kind"], e["count"]) for e in obj["events"]]
    else:
        lines = read_lines(text)
        got = [(e["t"], e["kind"], e["count"])
               for e in map(json.loads, (ln for ln in lines if ln.startswith("{")))]
        tail = [line for line in lines if not line.startswith("{")]
    expect(len(got) == len(events), f"{len(got)} events, expected {len(events)}")
    for (t, kind, count), (want_t, want_kind, want_count) in zip(got, events):
        expect(kind == want_kind and count == want_count, f"event {kind} {count} at t={t}")
        expect(same_value(parse_literal(t), want_t), f"event time {t}")
    collisions = [e for e in events if e[1] == COLL]
    if sets is None:
        expect(collisions and code == 4, f"expected a collision, exit {code}")
        t0 = collisions[0][0]
        first = f"{t0[0]}/{t0[3]}" if t0[3] != 1 else f"{t0[0]}"
        if fmt == "json":
            expect(obj["collision_at"] == first, "collision_at")
        else:
            expect(tail == [f"collision at t={first}"], "collision line")
        return len(events)
    (rec_x, rec_y), (alg_x, alg_y), horizon = sets
    expect(not collisions and (rec_x, rec_y) == (alg_x, alg_y) and code == 0,
           f"expected agreement, exit {code}")
    want = [("recorded", "S_X", rec_x), ("recorded", "S_Y", rec_y),
            ("algebraic", "S_X", alg_x), ("algebraic", "S_Y", alg_y)]
    if fmt == "json":
        for group, name, elements in want:
            expect_set(parse_json_set(obj[group][name]), elements, horizon, f"{group} {name}")
        expect(obj["agree"] is True, "agree")
    else:
        expect(len(tail) == 5 and tail[4] == "agree: yes", "simulate summary lines")
        for line, (group, name, elements) in zip(tail, want):
            label = f"{group} {name}"
            expect_set(parse_braced_set(line, f"{label}: "), elements, horizon, label)
    return len(events) + 2 * (len(rec_x) + len(rec_y))


def check_construct_phi(anchors: list[Fraction], limit: Fraction | None, fmt: str,
                        text: str, code: int) -> int:
    """`lamo construct-phi f`: anchors f(n) + 1 - 1/(n+1) and the tail."""
    expect(code == 0, f"exit code {code}")
    obj = json.loads(text)
    expect(obj["kind"] == "piecewise", "map kind")
    got = obj["anchors"]
    expect(len(got) == len(anchors), f"{len(got)} anchors, expected {len(anchors)}")
    for i, ((t, v), want) in enumerate(zip(got, anchors), start=1):
        p, q, _, c = parse_literal(v)
        expect(t == i and q == 0 and Fraction(p, c) == want, f"anchor {i}")
    tail = {"kind": "extend"} if limit is None else {"kind": "saturate", "limit": str(limit)}
    expect(obj["tail"] == tail, "map tail")
    return len(anchors)


# -- windows ------------------------------------------------------------------

INF = "inf"


def tail_text(kind: str, value: int | None) -> str:
    return f"constant {value}" if kind == "constant" else kind


def parse_sequence_output(text: str, fmt: str, header: bool):
    """(terms, tail text, exact-through) from a printed sequence."""
    if fmt == "json":
        obj = json.loads(text)
        tail = obj["tail"]
        return obj["terms"], tail_text(tail["kind"], tail.get("value")), obj.get("exact_through")
    lines = read_lines(text)
    through = None
    if header:
        expect(lines[0].startswith("# exact through: "), "missing exact-through header")
        through = lines[0][len("# exact through: "):]
        through = through if through == "unbounded" else int(through)
        lines = lines[1:]
    expect(lines[-1].startswith("#tail "), "missing #tail line")
    terms = [t if t == INF else int(t) for t in lines[:-1]]
    return terms, lines[-1][len("#tail "):], through


def counting_inverse(values: list[int], tail: str, tail_value: int | None, n: int):
    """g(n) = #{m : f(m) < n}, by bisect over the generated prefix."""
    if tail == "constant" and tail_value < n:
        return INF
    return bisect_left(values, n)


def check_invert(values: list[int], tail: str, tail_value: int | None, limit: int,
                 fmt: str, text: str, code: int) -> int:
    """`lamo invert f --limit L` on a finite, non-decreasing prefix."""
    expect(code == 0, f"exit code {code}")
    top = values[-1]
    through = top if tail == "unknown" else "unbounded"
    shown = min(limit, top) if tail == "unknown" else limit
    full = {"unknown": top, "constant": tail_value, "infinite": top}[tail]
    if shown < full:
        out_tail = "unknown"
    else:
        out_tail = {"unknown": "unknown", "constant": "infinite",
                    "infinite": f"constant {len(values)}"}[tail]
    terms, got_tail, got_through = parse_sequence_output(text, fmt, header=True)
    expect(got_through == through, f"exact through {got_through} != {through}")
    expect(got_tail == out_tail, f"tail {got_tail} != {out_tail}")
    expect(len(terms) == shown, f"{len(terms)} terms, expected {shown}")
    for n, g in enumerate(terms, start=1):
        expect(g == counting_inverse(values, tail, tail_value, n), f"g({n})")
    return shown


def hat_elements(values: list[int], tail: str, tail_value: int | None, k: int) -> list[int]:
    """{n + f(n)} on [1, K]."""
    out = []
    for n, v in enumerate(values, start=1):
        if n + v > k:
            return out
        out.append(n + v)
    if tail == "constant":
        out.extend(n + tail_value for n in range(len(values) + 1, k - tail_value + 1))
    return out


def check_hat(values: list[int], tail: str, tail_value: int | None, k: int,
              fmt: str, text: str, code: int) -> int:
    """`lamo hat f K`: the set n + f(n) on [1, K]."""
    expect(code == 0, f"exit code {code}")
    want = hat_elements(values, tail, tail_value, k)
    if fmt == "json":
        got = parse_json_set(json.loads(text))
    else:
        lines = read_lines(text)
        expect(lines[-1] == f"#horizon {k}", "horizon line")
        got = ([int(t) for t in lines[:-1]], k)
    expect_set(got, want, k, "hat")
    return len(want)


def check_unhat(elements: list[int], complete: bool, fmt: str, text: str, code: int) -> int:
    """`lamo unhat S`: f(n) = s_n - n."""
    expect(code == 0, f"exit code {code}")
    terms, tail, _ = parse_sequence_output(text, fmt, header=False)
    expect(tail == ("infinite" if complete else "unknown"), f"tail {tail}")
    expect(terms == [e - n for n, e in enumerate(elements, start=1)], "unhat terms")
    return len(terms)


def check_classify(tail: str, fmt: str, text: str, code: int) -> int:
    """`lamo classify f`: the class follows from the tail alone."""
    expect(code == 0, f"exit code {code}")
    want = {"constant": "bounded", "infinite": "eventually_infinite",
            "unknown": "all_finite_unbounded_window"}[tail]
    got = json.loads(text)["class"] if fmt == "json" else text
    expect(got == (want if fmt == "json" else want + "\n"), f"class {got!r}")
    return 0


def grid_witness(f: list[int], g: list[int], m_max: int, n_max: int):
    """First (m, n, kind) breaking 'exactly one of f(m) < n, g(n) < m', m-major.

    With g non-decreasing, row m holds iff p = #{n <= N : g(n) < m} equals
    q = min(f(m), N); otherwise the row's first bad column is q+1 ('both')
    when p > q and p+1 ('neither') when p < q.
    """
    g_window = g[:n_max]
    for m in range(1, m_max + 1):
        p = bisect_left(g_window, m)
        q = min(f[m - 1], n_max)
        if p > q:
            return (m, q + 1, "both")
        if p < q:
            return (m, p + 1, "neither")
    return None


def check_check(f: list[int], g: list[int], m_max: int, n_max: int, k: int,
                fmt: str, text: str, code: int) -> int:
    """`lamo check f g M N K`: grid witness, hat-set verdict and exit code."""
    witness = grid_witness(f, g, m_max, n_max)
    kind, at = complement_verdict(hat_elements(f, "unknown", None, k),
                                  hat_elements(g, "unknown", None, k), k)
    ok = witness is None and kind == "partition"
    expect(code == (0 if ok else 1), f"exit code {code}")
    if fmt == "json":
        obj = json.loads(text)
        w = None if witness is None else dict(zip(("m", "n", "kind"), witness))
        expect(obj == {"grid": {"window": [m_max, n_max], "ok": witness is None, "witness": w},
                       "complementary": {"window": k, "verdict": kind, "witness": at},
                       "ok": ok}, "check report")
    else:
        grid = "pass" if witness is None else "fail at m={} n={} ({})".format(*witness)
        verdict = kind if at is None else f"{kind}({at})"
        expect(read_lines(text) == [f"mutual-inverse {m_max}x{n_max}: {grid}",
                                    f"complementary [1,{k}]: {verdict}"], "check report")
    return 0
