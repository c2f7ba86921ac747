"""Seeded inputs for the three workloads, as one pass of `lamo` operations.

A pass has a fixed shape: the same operation classes, sizes and formats in
the same proportions for every seed.  The seed only draws the values
inside each slot (slopes, radicands, sequence increments, mutation sites),
so runs with different seeds measure the same mix of work and their
percentiles line up.  Slots are listed so that the 90th percentile of a
pass's operation times falls inside one class (see each workload below), not on
the boundary between two.

Each operation carries its own checker from `oracles`; expected results
that are costly to derive are computed here, once, outside any timing.
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracles

FORMATS = ("text", "json")


@dataclass
class Op:
    """One `lamo` call: argv without `--output`, and the check of its output."""

    cls: str
    args: list[str]
    check: Callable[[str, int], int]  # (output text, exit code) -> elements verified


def _literal(a: int, b: int, d: int, c: int) -> str:
    if b == 0:
        return f"{a}/{c}"
    num = f"({a}+{b}*sqrt({d}))" if a else f"{b}*sqrt({d})"
    return num if c == 1 else f"{num}/{c}"


def _squarefree(d: int) -> bool:
    p = 2
    while p * p <= d:
        if d % (p * p) == 0:
            return False
        p += 1
    return True


SMALL_RADICANDS = [d for d in range(2, 31) if _squarefree(d) and math.isqrt(d) ** 2 != d]


# Bands of slope values.  Each slope slot of a pass names its band, so the
# cost of a slot, which grows with the slope, hardly depends on the seed.
BANDS = ((0.45, 0.5), (0.7, 0.75), (1.0, 1.08), (1.5, 1.6), (2.4, 2.55))


def _small_irrational(rng: random.Random, band: tuple[float, float]) -> tuple[int, int, int, int]:
    """(a + b*sqrt(d))/c inside `band`, with a squarefree radicand d <= 30."""
    lo, hi = band
    while True:
        d = rng.choice(SMALL_RADICANDS)
        b, c = rng.randint(1, 3), rng.randint(1, 6)
        a = rng.randint(-math.isqrt(b * b * d), 4)
        value = (a + b * math.sqrt(d)) / c  # only steers the draw; values stay exact
        if lo <= value <= hi and math.gcd(math.gcd(a, b), c) == 1:
            return (a, b, d, c)


def _large_radicand(rng: random.Random, magnitude: int) -> tuple[int, int, int, int]:
    """sqrt(d)/m near 1, with d squarefree in [magnitude, 1.05 * magnitude]."""
    while True:
        d = rng.randint(magnitude, magnitude + magnitude // 20)
        if _squarefree(d):
            return (0, 1, d, math.isqrt(d) + rng.randint(-3, 3))


def _rational(rng: random.Random, bound: int, band=(0, math.inf)) -> tuple[int, int, int, int]:
    """p/q in lowest terms, p and q at most `bound`, its value inside `band`."""
    while True:
        p, q = rng.randint(1, bound), rng.randint(1, bound)
        if p != q and math.gcd(p, q) == 1 and band[0] <= p / q <= band[1]:
            return (p, 0, 0, q)


# -- beatty ---------------------------------------------------------------------


def beatty(rng: random.Random, work: Path) -> list[Op]:
    """20 calls of `lamo beatty lambda K`, K in [1000, 3000].

    14 small-radicand slopes (partition), 2 rationals (overlap) and 4 large
    radicands: one near 10^4 at K=3000, two near 10^5 at K=2000 and one near
    10^6 at K=1000.  Sorted by cost, ranks 8-13 are six alike slots (K=2000,
    one slope band), where p50 falls, and the large radicands are the top
    four, with p90 between the two alike 10^5 slots.
    """
    small = [(1000, 0), (1000, 1), (1000, 2), (1500, 3), (1500, 4)] + [(2000, 2)] * 6
    small += [(2500, 0), (3000, 1), (3000, 3)]
    slots = [("small", param) for param in small]
    slots += [("rational", 1000), ("rational", 3000)]
    slots += [("large", (10_000, 3000)), ("large", (100_000, 2000)),
              ("large", (100_000, 2000)), ("large", (1_000_000, 1000))]
    ops = []
    for i, (cls, param) in enumerate(slots):
        if cls == "small":
            lam, k = _small_irrational(rng, BANDS[param[1]]), param[0]
        elif cls == "rational":
            lam, k = _rational(rng, 12), param
        else:
            lam, k = _large_radicand(rng, param[0]), param[1]
        fmt = FORMATS[i % 2]
        ops.append(Op(cls, ["beatty", _literal(*lam), str(k), "--format", fmt],
                      lambda text, code, lam=lam, k=k, fmt=fmt:
                      oracles.check_beatty(lam, k, fmt, text, code)))
    return ops


# -- simulate -------------------------------------------------------------------


def _map_json(anchors: list[Fraction], limit: Fraction | None) -> str:
    obj = {"kind": "piecewise",
           "anchors": [[i, str(v)] for i, v in enumerate(anchors, start=1)],
           "tail": {"kind": "extend"} if limit is None else {"kind": "saturate",
                                                              "limit": str(limit)}}
    return json.dumps(obj)


def _phi_input(rng: random.Random, n: int, saturate: bool):
    """A sequence f of n terms with its tail line, and the anchors and limit of
    its map: f(n) + 1 - 1/(n+1), saturating toward v + 1 after a constant tail v."""
    f = _increasing(rng, n, (0, 1, 1, 2, 3))
    anchors = [Fraction(x + 1) - Fraction(1, i + 1) for i, x in enumerate(f, start=1)]
    if not saturate:
        return f, "#tail unknown", anchors, None
    v = f[-1] + rng.randint(0, 1)
    if f[-1] != v:
        anchors.append(Fraction(v + 1) - Fraction(1, n + 2))
    return f, f"#tail constant {v}", anchors, Fraction(v + 1)


def simulate(rng: random.Random, work: Path) -> list[Op]:
    """22 operations: 14 linear irrational maps, 2 rational slopes (collision),
    3 piecewise maps made like `construct_phi` output and the 3
    `lamo construct-phi` calls that describe them.

    T runs from 50 to 150.  Sorted by cost, six alike linear slots (T=100,
    one slope band) hold the middle ranks, where p50 falls, and four alike
    linear slots (T=150, the top band) are the slowest, holding p90.
    """
    ops = []
    linear = [(50, 0), (50, 1), (50, 2), (125, 3)] + [(100, 2)] * 6 + [(150, 4)] * 4
    for i, (t_max, band) in enumerate(linear):
        lam = _small_irrational(rng, BANDS[band])
        events, s_x, s_y, horizon = oracles.linear_irrational_events(lam, t_max)
        sets = ((s_x, s_y), (s_x, s_y), horizon)
        ops.append(_simulate_op("linear", json.dumps({"kind": "linear", "lambda": _literal(*lam)}),
                                t_max, events, sets, FORMATS[i % 2]))
    for i, t_max in enumerate((60, 120)):
        p, _, _, q = _rational(rng, 9, (0.75, 1.35))
        phi = oracles.RationalMap(slope=Fraction(p, q))
        ops.append(_simulate_op("rational", json.dumps({"kind": "linear", "lambda": f"{p}/{q}"}),
                                t_max, oracles.rational_events(phi, t_max), None, FORMATS[i % 2]))
    # An extending map with n anchors first takes an integer value at an
    # integer time at t = 2n, so T < 2n keeps it free of collisions.
    for i, (n, saturate, t_max) in enumerate(((40, True, 100), (30, True, 150), (60, False, 100))):
        f, tail, anchors, limit = _phi_input(rng, n, saturate)
        path = work / f"phi-{i}.txt"
        path.write_text("\n".join(map(str, f)) + f"\n{tail}\n")
        fmt = FORMATS[i % 2]
        ops.append(Op("construct_phi", ["construct-phi", str(path), "--format", fmt],
                      lambda text, code, anchors=anchors, limit=limit, fmt=fmt:
                      oracles.check_construct_phi(anchors, limit, fmt, text, code)))
        phi = oracles.RationalMap(anchors=anchors, limit=limit)
        events = oracles.rational_events(phi, t_max)
        if any(kind == oracles.COLL for _, kind, _ in events):
            raise AssertionError("piecewise map generator produced a collision")
        map_path = work / f"map-{i}.json"
        map_path.write_text(_map_json(anchors, limit))
        ops.append(_simulate_op("piecewise", str(map_path), t_max, events,
                                oracles.rational_sets(phi, events), FORMATS[i % 2]))
    rng.shuffle(ops)
    return ops


def _simulate_op(cls: str, phi: str, t_max: int, events, sets, fmt: str) -> Op:
    return Op(cls, ["simulate", phi, str(t_max), "--format", fmt],
              lambda text, code: oracles.check_simulate(events, sets, fmt, text, code))


# -- windows --------------------------------------------------------------------


def _increasing(rng: random.Random, n: int, steps: tuple[int, ...]) -> list[int]:
    """n non-decreasing values starting at 1, each step drawn from `steps`."""
    out, v = [], 1
    for _ in range(n):
        out.append(v)
        v += rng.choice(steps)
    return out


def _write_sequence(path: Path, values: list[int], tail: str, as_json: bool = False) -> str:
    """A sequence file; `tail` is the text of its #tail line, e.g. 'constant 7'."""
    if as_json:
        kind, _, v = tail.partition(" ")
        obj = {"terms": values, "tail": {"kind": kind, **({"value": int(v)} if v else {})}}
        path.write_text(json.dumps(obj))
    else:
        path.write_text("\n".join(map(str, values)) + f"\n#tail {tail}\n")
    return str(path)


def windows(rng: random.Random, work: Path) -> list[Op]:
    """22 operations on pure-integer files of 10^4 to 2*10^5 terms.

    16 emit calls (invert --limit, hat, unhat, classify), one invert of
    2*10^5 terms and 5 verify calls (`check` on three true inverse pairs,
    1800x1800, and two mutated ones, 1500x1500).  Sorted by cost, ranks 9-14
    are six alike `invert --limit 5000` calls on 2*10^4 terms, where p50
    falls, and the three true pairs hold ranks 19-21, where p90 falls.
    """
    steps = (0, 1, 1, 2, 2, 3)
    ops: list[Op] = []
    emits = [("classify", 10_000, "constant", "json"), ("classify", 10_000, "infinite", "text"),
             ("classify", 20_000, "unknown", "json"), ("classify", 50_000, "infinite", "json"),
             ("unhat", 10_000, "unknown", "text"), ("unhat", 10_000, "infinite", "json"),
             ("hat", 10_000, "unknown", "text"), ("hat", 10_000, "constant", "json")]
    emits += [("invert", 20_000, "unknown", "text")] * 6
    emits += [("invert", 50_000, "constant", "json"), ("unhat", 50_000, "infinite", "text")]
    for i, (kind, n, tail, fmt) in enumerate(emits):
        f = _increasing(rng, n, steps)
        v = f[-1] + rng.randint(0, 50) if tail == "constant" else None
        if kind == "unhat":  # a set file: the hat set of f; `infinite` means --complete
            complete = tail == "infinite"
            s = [m + x for m, x in enumerate(f, start=1)]
            path = work / f"s-{i}.txt"
            if fmt == "json":
                path.write_text(json.dumps({"elements": s, "horizon": s[-1]}))
            else:
                path.write_text("\n".join(map(str, s)) + f"\n#horizon {s[-1]}\n")
            ops.append(Op("emit", ["unhat", str(path), "--format", fmt] + ["--complete"] * complete,
                          lambda text, code, s=s, complete=complete, fmt=fmt:
                          oracles.check_unhat(s, complete, fmt, text, code)))
            continue
        path = _write_sequence(work / f"f-{i}.{fmt}", f, oracles.tail_text(tail, v), fmt == "json")
        if kind == "classify":
            ops.append(Op("emit", ["classify", path, "--format", fmt],
                          lambda text, code, tail=tail, fmt=fmt:
                          oracles.check_classify(tail, fmt, text, code)))
        elif kind == "hat":
            k = n + f[-1] if tail == "unknown" else n + v + 1_000
            ops.append(Op("emit", ["hat", path, str(k), "--format", fmt],
                          lambda text, code, f=f, tail=tail, v=v, k=k, fmt=fmt:
                          oracles.check_hat(f, tail, v, k, fmt, text, code)))
        else:
            limit = 5_000 if tail == "unknown" else v + 100
            ops.append(Op("emit", ["invert", path, "--limit", str(limit), "--format", fmt],
                          lambda text, code, f=f, tail=tail, v=v, limit=limit, fmt=fmt:
                          oracles.check_invert(f, tail, v, limit, fmt, text, code)))

    big = _increasing(rng, 200_000, steps)
    path = _write_sequence(work / "f-big.txt", big, "unknown")
    ops.append(Op("emit_big", ["invert", path, "--limit", "20000"],
                  lambda text, code: oracles.check_invert(big, "unknown", None, 20_000, "text",
                                                          text, code)))

    for i, (grid, mutate) in enumerate(((1500, "f"), (1500, "g"), (1800, None), (1800, None),
                                        (1800, None))):
        f = _increasing(rng, 20_000, steps)
        g = [bisect_left(f, n) for n in range(1, f[-1] + 1)]
        site = int(0.6 * grid)
        if mutate == "f":
            f = _bump(f, site)
        elif mutate == "g":
            g = _bump(g, f[site])
        f_path = _write_sequence(work / f"pair-{i}-f.txt", f, "unknown")
        g_path = _write_sequence(work / f"pair-{i}-g.txt", g, "unknown")
        k = 2 * grid
        fmt = FORMATS[i % 2]
        ops.append(Op("verify", ["check", f_path, g_path, str(grid), str(grid), str(k),
                                 "--format", fmt],
                      lambda text, code, f=f, g=g, grid=grid, k=k, fmt=fmt:
                      oracles.check_check(f, g, grid, grid, k, fmt, text, code)))
    rng.shuffle(ops)
    return ops


def _bump(values: list[int], start: int) -> list[int]:
    """Add 1 to the first value at or after `start` that stays below its successor."""
    i = start
    while values[i] + 1 > values[i + 1]:
        i += 1
    out = list(values)
    out[i] += 1
    return out


WORKLOADS = {"beatty": beatty, "simulate": simulate, "windows": windows}


def build(name: str, seed: int, work: Path) -> list[Op]:
    """One pass of the named workload, its input files written under `work`."""
    work.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), work)
