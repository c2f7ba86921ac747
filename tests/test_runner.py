import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lamo import (
    CollisionPresent,
    LinearMap,
    NumberSequence,
    Tail,
    construct_phi,
    corollary_sets,
    meeting_count,
    meeting_time,
    recorded_sets,
    simulate,
)
from lamo.errors import NonPositiveTime, NotPositive
from lamo.exact import ExactNumber
from lamo.runner import COLLISION, MEETING, X_CROSSING, Y_CROSSING

from gen import random_rational_map

GOLDEN = ExactNumber(-1, 1, 5, 2)
SQRT2 = ExactNumber.sqrt(2)
SAT3 = construct_phi(NumberSequence((1, 1, 2), Tail.constant(2)))

map_seeds = st.integers(0, 2**32)


class TestMeetingTime:
    def test_golden_first_meeting(self):
        # (1+lambda) t = 1 with lambda the golden slope gives t = lambda
        assert meeting_time(LinearMap(GOLDEN), 1) == GOLDEN

    def test_sat3_meetings(self):
        assert meeting_time(SAT3, 1) == Fraction(2, 5)
        assert meeting_time(SAT3, 4) == Fraction(54, 25)

    def test_exactness(self):
        phi = LinearMap(SQRT2)
        for k in (1, 2, 7, 40):
            t = meeting_time(phi, k)
            assert phi.eval(t) + t == ExactNumber(k)

    def test_index_validation(self):
        with pytest.raises(NotPositive):
            meeting_time(SAT3, 0)


class TestSimulate:
    def test_collision_for_unit_slope(self):
        log = simulate(LinearMap(1), 2)
        cols = log.collisions()
        assert cols and cols[0].time == ExactNumber(1)
        with pytest.raises(CollisionPresent):
            recorded_sets(log)

    def test_sat3_is_collision_free(self):
        log = simulate(SAT3, 3)
        assert not log.collisions()

    def test_sqrt2_matches_algebraic_sets(self):
        phi = LinearMap(SQRT2)
        s_x, s_y = recorded_sets(simulate(phi, 10))
        assert s_x.elements[:5] == (1, 3, 5, 6, 8)
        assert s_y.elements[:5] == (2, 4, 7, 9, 12)
        alg_y, alg_x = corollary_sets(phi, s_x.horizon)
        assert (s_x, s_y) == (alg_x, alg_y)

    def test_empty_log(self):
        log = simulate(LinearMap(SQRT2), Fraction(1, 3))
        assert len(log) == 0
        s_x, s_y = recorded_sets(log)
        assert s_x.elements == () and s_y.elements == () and s_x.horizon == 0

    def test_horizon_must_be_positive(self):
        with pytest.raises(NonPositiveTime):
            simulate(SAT3, 0)

    def test_times_strictly_increase(self):
        log = simulate(SAT3, 8)
        ts = [e.time for e in log.events]
        assert all(a < b for a, b in zip(ts, ts[1:]))

    @given(map_seeds)
    @settings(max_examples=25, deadline=None)
    def test_counts_equal_meeting_count(self, seed):
        phi = random_rational_map(random.Random(seed), integer_free_through=13)
        log = simulate(phi, 12)
        for e in log.events:
            assert e.count == meeting_count(phi, e.time)

    @given(map_seeds)
    @settings(max_examples=25, deadline=None)
    def test_alternation(self, seed):
        phi = random_rational_map(random.Random(seed), integer_free_through=13)
        kinds = [e.kind for e in simulate(phi, 12).events]
        assert COLLISION not in kinds
        meet_at = [i for i, k in enumerate(kinds) if k == MEETING]
        for a, b in zip(meet_at, meet_at[1:]):
            between = [k for k in kinds[a + 1 : b] if k in (X_CROSSING, Y_CROSSING)]
            assert len(between) == 1

    @given(map_seeds)
    @settings(max_examples=25, deadline=None)
    def test_recorded_sets_match_algebraic(self, seed):
        phi = random_rational_map(random.Random(seed), integer_free_through=13)
        s_x, s_y = recorded_sets(simulate(phi, 12))
        if s_x.horizon == 0:
            return
        alg_y, alg_x = corollary_sets(phi, s_x.horizon)
        assert (s_x, s_y) == (alg_x, alg_y)

    def test_crossing_counts_enumerate_without_gaps(self):
        log = simulate(LinearMap(GOLDEN), 20)
        counts = sorted(
            e.count for e in log.events if e.kind in (X_CROSSING, Y_CROSSING) and e.count >= 1
        )
        assert counts == list(range(1, len(counts) + 1))
