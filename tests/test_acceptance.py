"""Acceptance gate: the end-to-end checks the package must pass, with budgets.

Each check prints one line (run with `pytest -s` to see them all):

    acceptance 3 (grid + mutation): PASS (1.84s, budget 10s)

A check fails either on a broken property or on blowing its time budget.
Randomness is seeded so failures reproduce.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from functools import cmp_to_key

from lamo import (
    INF,
    ExactNumber,
    LinearMap,
    beatty_pair,
    check_complementary,
    construct_phi,
    corollary_sets,
    grid_witness,
    hat,
    induced_inverse,
    invert,
    lattice_avoidance,
    recorded_sets,
    simulate,
)

from gen import mutate_pair, random_rational_map, random_sequence
from oracles import decimal_floor, meeting_count, wythoff_pair

SEED = 20260814

ROOT2 = ExactNumber(0, 1, 2)
GOLDEN_SLOPE = ExactNumber(-1, 1, 5, 2)


class gate:
    """Times a block, prints one verdict line, enforces the budget."""

    def __init__(self, number: int, label: str, budget: float):
        self.name = f"acceptance {number} ({label})"
        self.budget = budget

    def __enter__(self) -> "gate":
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        dt = time.perf_counter() - self.t0
        verdict = "PASS" if exc_type is None and dt < self.budget else "FAIL"
        print(f"{self.name}: {verdict} ({dt:.2f}s, budget {self.budget:g}s)")
        if exc_type is None and dt >= self.budget:
            raise AssertionError(f"{self.name} exceeded its {self.budget:g}s budget: {dt:.2f}s")
        return False


def determined_sequences(count: int):
    """The shared corpus for checks 1-3: fully determined tails only."""
    rng = random.Random(SEED)
    return [random_sequence(rng, kinds=("constant", "infinite")) for _ in range(count)]


def constant_tail_maps(count: int):
    """The shared corpus for checks 6-7: finite sequences plus their maps."""
    rng = random.Random(SEED + 6)
    fs = [random_sequence(rng, kinds=("constant",)) for _ in range(count)]
    return [(f, construct_phi(f)) for f in fs]


def test_1_involution():
    with gate(1, "involution", 5.0):
        for f in determined_sequences(200):
            assert invert(invert(f)) == f, f"double inverse drifted for {f}"


def test_2_partition_forward():
    with gate(2, "hat sets partition", 5.0):
        for f in determined_sequences(200):
            verdict = check_complementary(hat(f, 200), hat(invert(f), 200), 200)
            assert verdict.ok, f"{verdict} for {f}"


def test_3_grid_and_mutation():
    with gate(3, "grid + mutation", 10.0):
        rng = random.Random(SEED + 3)
        pairs = [(f, invert(f)) for f in determined_sequences(200)[:50]]
        for f, g in pairs:
            assert grid_witness(f, g, 100, 100) is None, f"clean pair flagged: {f}"
        for f, g in pairs:
            fm, gm = mutate_pair(f, g, rng)
            witness = grid_witness(fm, gm, 100, 100)
            verdict = check_complementary(hat(fm, 200), hat(gm, 200), 200)
            assert witness is not None or not verdict.ok, (
                f"mutation slipped through both checks: {fm} / {gm}"
            )
            if witness is None:
                assert verdict.witness is not None


def test_4_rational_slope_failure():
    with gate(4, "slope 2/3 failure pair", 1.0):
        lam = Fraction(2, 3)
        avoid = lattice_avoidance(LinearMap(lam), 12)
        assert not avoid.holds and avoid.violation == 3, str(avoid)
        a, b = beatty_pair(lam, 12)
        verdict = check_complementary(a, b, 12)
        assert verdict.kind == "overlap" and verdict.witness == 5, str(verdict)


def test_5_irrational_slope_success():
    with gate(5, "irrational slopes partition", 2.0):
        for lam in (ROOT2, GOLDEN_SLOPE):
            assert lattice_avoidance(LinearMap(lam), 500).holds
            a, b = beatty_pair(lam, 500)
            assert check_complementary(a, b, 500).ok

        lower, upper = beatty_pair(GOLDEN_SLOPE, 500)
        got = list(zip(lower.elements[:25], upper.elements[:25]))
        expected = [wythoff_pair(n) for n in range(1, 26)]
        assert got == expected, f"golden pair drifted from the oracle: {got} != {expected}"


def test_6_induced_inverse_matches_counting():
    with gate(6, "map route inverse agrees", 5.0):
        for f, phi in constant_tail_maps(100):
            g = invert(f)
            bound = f.tail.value
            assert bound is not None
            h = induced_inverse(phi, bound + 5)
            for n in range(1, bound + 6):
                assert h.value_at(n) == g.value_at(n), (
                    f"route split at n={n} for {f}"
                )


def test_7_map_postconditions():
    with gate(7, "map floors and monotonicity", 5.0):
        rng = random.Random(SEED + 7)
        for f, phi in constant_tail_maps(100):
            for n in range(1, len(f.prefix) + 11):
                value = phi.eval(n)
                assert not value.is_integer()
                assert value.floor() == f.value_at(n)
            for _ in range(10):
                t1 = Fraction(rng.randint(1, 4000), rng.randint(1, 80))
                t2 = Fraction(rng.randint(1, 4000), rng.randint(1, 80))
                if t1 == t2:
                    continue
                lo, hi = min(t1, t2), max(t1, t2)
                assert phi.eval(lo) < phi.eval(hi), f"not strict on ({lo}, {hi})"


def test_8_simulator_against_set_formulas():
    with gate(8, "simulator oracle", 10.0):
        rng = random.Random(SEED + 8)
        maps = [random_rational_map(rng, integer_free_through=50) for _ in range(20)]
        maps.extend([LinearMap(ROOT2), LinearMap(GOLDEN_SLOPE)])
        for phi in maps:
            assert lattice_avoidance(phi, 50).holds
            log = simulate(phi, 50)
            for e in log.events:
                assert e.count == meeting_count(phi, e.time), e
            s_x, s_y = recorded_sets(log)
            c_y, c_x = corollary_sets(phi, s_x.horizon)
            assert s_x == c_x and s_y == c_y

        collision = simulate(LinearMap(1), 2).collisions()
        assert collision and collision[0].time == 1


def test_9_kernel_floor_and_order():
    with gate(9, "exact kernel vs decimal oracle", 2.0):
        rng = random.Random(SEED + 9)
        radicands = (2, 3, 5, 6, 7, 8, 10, 11, 12, 13)

        def draw(d: int) -> ExactNumber:
            return ExactNumber(
                rng.randint(-(10**6), 10**6),
                rng.randint(-(10**6), 10**6),
                d,
                rng.randint(1, 1000),
            )

        for _ in range(1000):
            d = rng.choice(radicands)
            a = rng.randint(-(10**6), 10**6)
            b = rng.randint(-(10**6), 10**6)
            c = rng.randint(1, 1000)
            x = ExactNumber(a, b, d, c)
            n = x.floor()
            assert n == decimal_floor(a, b, d, c)
            assert x.compare(n) >= 0 and x.compare(n + 1) < 0

        for _ in range(1000):
            d = rng.choice(radicands)
            triple = sorted((draw(d) for _ in range(3)), key=cmp_to_key(ExactNumber.compare))
            x, y, z = triple
            assert x.compare(y) <= 0 and y.compare(z) <= 0 and x.compare(z) <= 0
            assert x.compare(y) == -y.compare(x)
