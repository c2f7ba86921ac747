"""Shared random generators for property and acceptance tests."""

from __future__ import annotations

import random
from fractions import Fraction

from lamo import INF, NumberSequence, Tail
from lamo.continuous import PiecewiseMap, lattice_avoidance


def random_sequence(
    rng: random.Random,
    max_len: int = 50,
    max_val: int = 100,
    kinds: tuple[str, ...] = ("constant", "infinite"),
) -> NumberSequence:
    """A valid non-decreasing sequence with the requested tail kinds."""
    kind = rng.choice(kinds)
    n = rng.randint(1 if kind == "unknown" else 0, max_len)
    vals: list[float] = sorted(rng.randint(0, max_val) for _ in range(n))
    if kind == "constant":
        lo = int(vals[-1]) if vals else 0
        return NumberSequence(vals, Tail.constant(rng.randint(lo, max(lo, max_val))))
    if kind == "infinite":
        vals.extend([INF] * rng.randint(0, 3))
        return NumberSequence(vals, Tail.infinite())
    return NumberSequence(vals, Tail.unknown())


def mutate_pair(
    f: NumberSequence, g: NumberSequence, rng: random.Random
) -> tuple[NumberSequence, NumberSequence]:
    """Bump one value of the pair by +1, keeping both sequences valid.

    Preference order: g's constant tail value, then g's last prefix entry
    (legal before an infinite tail), then f's constant tail value for the
    degenerate all-zero / all-infinite pair.
    """
    if g.tail.kind == "constant":
        assert g.tail.value is not None
        return f, NumberSequence(g.prefix, Tail.constant(g.tail.value + 1))
    if g.prefix and g.prefix[-1] is not INF:
        bumped = list(g.prefix)
        bumped[-1] = int(bumped[-1]) + 1
        return f, NumberSequence(bumped, g.tail)
    assert f.tail.kind == "constant" and f.tail.value is not None
    return NumberSequence(f.prefix, Tail.constant(f.tail.value + 1)), g


def random_rational_map(
    rng: random.Random, max_anchors: int = 6, integer_free_through: int = 0
) -> PiecewiseMap:
    """A piecewise map with anchors f(n) + 1 - 1/(n+1) for random f.

    Saturating tails never take integer values anywhere.  Extending tails
    can, so when `integer_free_through` is positive any extending variant
    that hits an integer within that range is replaced by the saturating
    one, keeping the map usable as a collision-free simulation subject.
    """
    n = rng.randint(1, max_anchors)
    vals = sorted(rng.randint(0, 8) for _ in range(n))
    anchors = [Fraction(v + 1) - Fraction(1, i + 2) for i, v in enumerate(vals)]
    saturating = PiecewiseMap(anchors, saturation_limit=vals[-1] + 1)
    if rng.random() < 0.5:
        return saturating
    extending = PiecewiseMap(anchors)
    if integer_free_through and not lattice_avoidance(extending, integer_free_through).holds:
        return saturating
    return extending
