import contextlib
import io
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from lamo import (
    CollisionPresent,
    IntSet,
    LinearMap,
    NumberSequence,
    Tail,
    construct_phi,
    corollary_sets,
    hat,
    hat_horizon,
    invert,
    recorded_sets,
    simulate,
)
from lamo import cli, continuous, runner
from lamo.continuous import PiecewiseMap
from lamo.errors import NonPositiveTime, OutsideImage
from lamo.exact import ExactNumber
from lamo.formats import events_to_jsonl, map_to_json
from lamo.runner import COLLISION, MEETING, X_CROSSING, Y_CROSSING, Event, EventLog

from gen import random_rational_map, random_sequence
from oracles import (
    bisect_meeting_time,
    four_pass_recorded_sets,
    fraction_level_times,
    grouped_merge_events,
    meeting_count,
    merge_events,
    merged_groups,
    per_event_jsonl,
    per_event_simulate,
)

GOLDEN = ExactNumber(-1, 1, 5, 2)
SQRT2 = ExactNumber(0, 1, 2)
SAT3 = construct_phi(NumberSequence((1, 1, 2), Tail.constant(2)))

map_seeds = st.integers(0, 2**32)


def meetings(phi, T):
    return dict(phi.level_times(1, T))


def oracle_meetings(phi, T):
    """[(k, t_k)] for every meeting t_k <= T, by the bisection oracle."""
    out = []
    for k in itertools.count(1):
        t = bisect_meeting_time(phi, k)
        if t > T:
            return out
        out.append((k, t))


def oracle_crossings(phi, T):
    """[(j, phi^-1(j))] for every integer j in the image crossed by time T."""
    out = []
    for j in itertools.count(1):
        try:
            t = phi.inverse_eval(j)
        except OutsideImage:
            return out
        if t > T:
            return out
        out.append((j, t))


@st.composite
def quadratic_slopes(draw):
    """A positive (a + b*sqrt(d))/c with small integer fields."""
    d = draw(st.integers(2, 50))
    a, b = draw(st.integers(-6, 6)), draw(st.integers(-4, 4))
    x = ExactNumber(a, b, d, draw(st.integers(1, 5)))
    assume(x.sign() > 0)
    return x


horizons = st.fractions(min_value=Fraction(1, 3), max_value=25, max_denominator=7)
# (a + sqrt(d))/c, irrational for a non-square d.
irrational_horizons = st.builds(
    lambda a, d, c: ExactNumber(a, 1, d, c),
    st.integers(0, 20), st.integers(2, 300), st.integers(1, 3),
).filter(lambda x: not x.is_rational)
rational_maps = map_seeds.map(lambda s: random_rational_map(random.Random(s)))


class TestMeetingTime:
    def test_golden_first_meeting(self):
        # (1+lambda) t = 1 with lambda the golden slope gives t = lambda
        assert next(LinearMap(GOLDEN).level_times(1, 1)) == (1, GOLDEN)

    def test_sat3_meetings(self):
        ts = meetings(SAT3, 3)
        assert ts[1] == Fraction(2, 5)
        assert ts[4] == Fraction(54, 25)

    def test_exactness(self):
        phi = LinearMap(SQRT2)
        ts = meetings(phi, 40)
        for k in (1, 2, 7, 40):
            assert phi.eval(ts[k]) + ts[k] == ExactNumber(k)


class TestLevelTimes:
    @given(map_seeds, horizons)
    @settings(max_examples=60, deadline=None)
    def test_piecewise_against_oracles(self, seed, T):
        phi = random_rational_map(random.Random(seed))
        assert list(phi.level_times(1, T)) == oracle_meetings(phi, T)
        assert list(phi.level_times(0, T)) == oracle_crossings(phi, T)

    @given(quadratic_slopes(), horizons)
    @settings(max_examples=60, deadline=None)
    def test_linear_against_oracles(self, slope, T):
        phi = LinearMap(slope)
        assert list(phi.level_times(1, T)) == oracle_meetings(phi, T)
        assert list(phi.level_times(0, T)) == oracle_crossings(phi, T)

    @given(st.one_of(rational_maps, quadratic_slopes().map(LinearMap)), horizons,
           st.sampled_from((0, 1)))
    @settings(max_examples=120, deadline=None)
    def test_unbounded_walk_extends_bounded(self, phi, T, shift):
        bounded = list(phi.level_times(shift, T))
        walk = phi.level_times(shift)
        assert list(itertools.islice(walk, len(bounded))) == bounded
        # Only the crossings of a bounded image end; what follows lies past T.
        assert all(t > T for _, t in itertools.islice(walk, 1))

    @given(rational_maps, st.sampled_from((0, 1)),
           st.one_of(st.integers(1, 30), horizons, irrational_horizons))
    @example(SAT3, 0, ExactNumber(0, 1, 50))
    @example(SAT3, 1, ExactNumber(0, 1, 50))
    @example(PiecewiseMap([1], saturation_limit=1000), 0, 2100)
    @example(PiecewiseMap([1], saturation_limit=1000), 1, 2100)
    @settings(max_examples=150, deadline=None)
    def test_integer_walk_equals_fraction_walk(self, phi, shift, T):
        assert list(phi.level_times(shift, T)) == list(fraction_level_times(phi, shift, T))
        # A prefix of the unbounded walk; the crossings of a bounded image end in it.
        walk, unbounded = phi.level_times(shift), fraction_level_times(phi, shift)
        assert list(itertools.islice(walk, 60)) == list(itertools.islice(unbounded, 60))

    def test_unbounded_crossings_end_below_a_fractional_limit(self):
        phi = PiecewiseMap([Fraction(1, 2)], saturation_limit=Fraction(5, 2))
        assert [k for k, _ in phi.level_times(0)] == [1, 2]

    def test_meeting_exactly_at_horizon_is_kept(self):
        phi = LinearMap(SQRT2)
        T = 3 / (1 + SQRT2)
        assert list(phi.level_times(1, T)) == oracle_meetings(phi, T)
        assert list(phi.level_times(1, T))[-1] == (3, T)
        last = simulate(phi, T).events[-1]
        assert (last.time, last.kind, last.count) == (T, MEETING, 3)

    @pytest.mark.parametrize("phi", [SAT3, random_rational_map(random.Random(7))])
    def test_piecewise_irrational_horizon(self, phi):
        T = ExactNumber(0, 1, 50)
        assert list(phi.level_times(1, T)) == oracle_meetings(phi, T)
        assert list(phi.level_times(0, T)) == oracle_crossings(phi, T)

    def test_saturating_large_scale(self):
        # limit - 1998/(t+1): the crossing of level 999 needs t >= 1997.
        phi = PiecewiseMap([1], saturation_limit=1000)
        T = 2100
        crossings = list(phi.level_times(0, T))
        assert crossings == oracle_crossings(phi, T)
        assert [k for k, _ in crossings] == list(range(1, 1000))
        # A far horizon still ends the crossings at the image, not at T.
        assert list(phi.level_times(0, 10**9)) == crossings
        # The meetings go on past the limit, one per unit of phi(t) + t.
        met = list(phi.level_times(1, T))
        assert [k for k, _ in met] == list(range(1, meeting_count(phi, T) + 1))
        assert len(met) == T + 999
        # The oracle bisects for each meeting, so it checks a sample and the end.
        for k, t in met[::25] + met[-1:]:
            assert bisect_meeting_time(phi, k) == t
        assert bisect_meeting_time(phi, len(met) + 1) > T


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

    def test_independent_of_beatty_floors(self, monkeypatch):
        # The recorded sets check the map route, so simulate must not take it.
        phi = LinearMap(SQRT2)
        expected = recorded_sets(simulate(phi, 40))

        def unavailable(self, K):
            raise AssertionError("simulate read the Beatty floors")

        monkeypatch.setattr(ExactNumber, "multiple_floors", unavailable)
        monkeypatch.setattr(continuous, "corollary_sets", unavailable)
        assert recorded_sets(simulate(phi, 40)) == expected

    def test_empty_log(self):
        log = simulate(LinearMap(SQRT2), Fraction(1, 3))
        assert log.events == ()
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


class TestThreeRoutes:
    """The counting inverse, the map formulas and the simulator give one pair of sets."""

    @given(map_seeds, st.integers(1, 80))
    @settings(max_examples=60, deadline=None)
    def test_routes_agree(self, seed, T):
        f = random_sequence(random.Random(seed), kinds=("constant", "unknown"))
        if f.tail.kind == "unknown":
            # An all-zero prefix has no inverse window.
            assume(f.prefix[-1] > 0)
            # Past the prefix the extended map may take an integer value at
            # an integer time, a meeting at the origin.
            T = min(T, len(f))
        g, phi = invert(f), construct_phi(f)
        rec_x, rec_y = recorded_sets(simulate(phi, T))
        K = min(hat_horizon(f), hat_horizon(g), rec_x.horizon)
        if K < 1:
            return
        alg_y, alg_x = corollary_sets(phi, K)

        def window(s):
            return IntSet(tuple(e for e in s.elements if e <= K), K)

        assert hat(f, K) == alg_y == window(rec_y)
        assert hat(g, K) == alg_x == window(rec_x)


def logged(phi, T):
    """The event log of `simulate` as (time, kind, count) triples."""
    log = simulate(phi, T)
    assert log.horizon_time == T
    return [(e.time, e.kind, e.count) for e in log.events]


# Positive slopes p/q whose crossings and meetings often share a time.
rational_slopes = st.builds(
    lambda p, q: ExactNumber(p, 0, 0, q), st.integers(1, 12), st.integers(1, 6)
)
exact_horizons = horizons.map(ExactNumber.from_fraction)


class TestMergeOracle:
    """The prefix-keyed merge against the merge on bare exact times."""

    @given(st.one_of(quadratic_slopes(), rational_slopes), exact_horizons)
    @settings(max_examples=80, deadline=None)
    def test_linear_maps(self, slope, T):
        phi = LinearMap(slope)
        assert logged(phi, T) == merge_events(phi, T)

    @given(map_seeds, exact_horizons)
    @settings(max_examples=60, deadline=None)
    def test_piecewise_maps(self, seed, T):
        phi = random_rational_map(random.Random(seed))
        assert logged(phi, T) == merge_events(phi, T)

    def test_rational_slopes_collide(self):
        phi = LinearMap(Fraction(3, 2))
        events = logged(phi, ExactNumber(6))
        assert events == merge_events(phi, ExactNumber(6))
        assert [t for t, kind, _ in events if kind == COLLISION] == [2, 4, 6]

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_near_ties_at_one_and_two(self, delta):
        # slope sqrt(10^(2e) + delta)/10^e = 1 + O(10^-2e): the X crossing at
        # 1/slope and the meetings 2/(1+slope), 4/(1+slope) lie within
        # 1/_SCALE of the Y crossings at t = 1 and t = 2 without meeting them.
        # For e = 10 they are about 10^-20 away; for e = 4 about 10^-8, more
        # than 2^-32 but less than the 2^-16 of the keys.
        scale = runner._SCALE
        for e in (10, 4):
            phi = LinearMap(ExactNumber(0, 1, 10 ** (2 * e) + delta, 10**e))
            T = ExactNumber(3)
            events = logged(phi, T)
            assert events == merge_events(phi, T)
            assert COLLISION not in {kind for _, kind, _ in events}
            for n in (1, 2):
                near = [(t, kind) for t, kind, _ in events if abs(t - n) < Fraction(1, scale)]
                assert sorted(kind for _, kind in near) == [MEETING, X_CROSSING, Y_CROSSING]
                # Below the slope 1 all three share the prefix floor(t*scale) = n*scale,
                # so the exact comparison orders them.
                assert len({t.floor(scale) for t, _ in near}) == (1 if delta < 0 else 2)
            s_x, s_y = recorded_sets(simulate(phi, T))
            alg_y, alg_x = corollary_sets(phi, s_x.horizon)
            assert (s_x, s_y) == (alg_x, alg_y)


@st.composite
def simulated_cases(draw):
    """(phi, T): a linear or piecewise map, and a rational horizon or an
    irrational one (a + sqrt(d))/c over the map's own radicand."""
    phi = draw(st.one_of(
        st.one_of(quadratic_slopes(), rational_slopes).map(LinearMap),
        rational_maps,
    ))
    d = getattr(phi, "slope", ExactNumber(0)).d or draw(st.integers(2, 300))
    irrational = st.builds(
        lambda a, c: ExactNumber(a, 1, d, c), st.integers(0, 6), st.integers(1, 3)
    ).filter(lambda x: not x.is_rational and x < 30)
    return phi, draw(st.one_of(exact_horizons, irrational))


class TestGroupedMergeOracle:
    """The sorted passes against the keyed heapq.merge and groupby they replaced.

    `merged_groups` keys on floor(t*2^32) and `simulate` on floor(t*2^16), so
    the near-ties of the slopes sqrt(10^8 +- 1)/10^4 share a key only in the
    latter: the examples compare the two scales.
    """

    @given(simulated_cases())
    @example((LinearMap(Fraction(3, 2)), ExactNumber(6)))
    @example((LinearMap(ExactNumber(0, 1, 10**20 - 1, 10**10)), ExactNumber(3)))
    @example((LinearMap(ExactNumber(0, 1, 10**8 - 1, 10**4)), ExactNumber(3)))
    @example((LinearMap(ExactNumber(0, 1, 10**8 + 1, 10**4)), ExactNumber(3)))
    @settings(max_examples=150, deadline=None)
    def test_simulate_equals_grouped_merge(self, case):
        phi, T = case
        assert logged(phi, T) == grouped_merge_events(phi, T)

    @given(simulated_cases())
    @example((LinearMap(Fraction(3, 2)), ExactNumber(6)))
    @settings(max_examples=100, deadline=None)
    def test_collision_holds_one_item_per_stream(self, case):
        phi, T = case
        # Any two of t, phi(t) and phi(t) + t being integers forces the third.
        for _, kinds in merged_groups(phi, T):
            if len(kinds) > 1:
                assert sorted(kinds) == [MEETING, X_CROSSING, Y_CROSSING]


def read_sets(read, log):
    """(S_X elements, S_Y elements, horizon) by `read`, or its collision message."""
    try:
        return read(log)
    except CollisionPresent as e:
        return str(e)


def passes(log):
    s_x, s_y = recorded_sets(log)
    assert s_x.horizon == s_y.horizon
    return s_x.elements, s_y.elements, s_x.horizon


class TestRecordedSetsOracle:
    """The C-level passes of `recorded_sets` against its four Python passes."""

    @given(simulated_cases())
    @example((LinearMap(Fraction(3, 2)), ExactNumber(6)))
    @example((LinearMap(1), ExactNumber(2)))
    @example((LinearMap(SQRT2), ExactNumber.from_fraction(Fraction(1, 3))))
    @example((SAT3, ExactNumber(9)))
    @settings(max_examples=150, deadline=None)
    def test_same_as_four_passes(self, case):
        log = simulate(*case)
        assert read_sets(passes, log) == read_sets(four_pass_recorded_sets, log)

    @given(map_seeds, exact_horizons)
    @settings(max_examples=60, deadline=None)
    def test_both_piecewise_tails(self, seed, T):
        values = random_rational_map(random.Random(seed)).values
        limit = math.floor(values[-1]) + 1
        for phi in (PiecewiseMap(values), PiecewiseMap(values, saturation_limit=limit)):
            log = simulate(phi, T)
            assert read_sets(passes, log) == read_sets(four_pass_recorded_sets, log)

    @given(st.lists(st.sampled_from([X_CROSSING, Y_CROSSING, COLLISION, None]), max_size=12))
    @example([X_CROSSING, Y_CROSSING])
    @example([COLLISION, Y_CROSSING])
    def test_any_log(self, crossings):
        # Logs that `simulate` does not make: a crossing before the first
        # meeting, at count 0, and collisions anywhere.  Between meetings c
        # and c + 1 lies at most one crossing, which records c.
        rows = []
        for c, kind in enumerate(crossings):
            rows += [(kind, c)] * (kind is not None) + [(MEETING, c + 1)]
        events = tuple(Event(ExactNumber(t), *row) for t, row in enumerate(rows, start=1))
        log = EventLog(events, ExactNumber(len(rows) + 1))
        assert read_sets(passes, log) == read_sets(four_pass_recorded_sets, log)

    def test_a_collision_is_named_once_found(self):
        log = simulate(LinearMap(Fraction(3, 2)), 6)
        assert read_sets(passes, log) == "meeting at the origin at t=2; recorded sets are void"


def cli_output(*argv):
    """What `lamo` writes to stdout for argv."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(list(argv))
    return out.getvalue()


# Slopes sqrt(d)/2^32 near 1, with a radicand past 2^64.
big_radicands = st.builds(
    lambda d, b: ExactNumber(0, b, d, 2**32), st.integers(2**64, 2**66), st.integers(1, 3)
).filter(lambda x: not x.is_rational)
# The slopes of `test_near_ties_at_one_and_two`: below the slope 1, three
# items share a key at t = 1 and at t = 2.
near_ties = st.sampled_from([
    ExactNumber(0, 1, 10 ** (2 * e) + delta, 10**e) for e in (10, 4) for delta in (-1, 1)
])


@st.composite
def per_event_cases(draw):
    """(phi, T): the cases of `simulated_cases`, slopes with a radicand past
    2^64, and the near ties at one and two."""
    return draw(st.one_of(
        simulated_cases(),
        st.tuples(big_radicands.map(LinearMap), exact_horizons),
        st.tuples(near_ties.map(LinearMap), st.just(ExactNumber(3))),
    ))


class TestPerEventOracle:
    """The event columns against the per-event path they replaced, byte for
    byte: the library's log and JSONL, and `lamo simulate` in text and JSON."""

    @given(per_event_cases())
    @example((LinearMap(GOLDEN + 1), ExactNumber(2)))  # the meeting step (3-sqrt(5))/2
    @example((LinearMap(SQRT2), ExactNumber(10)))  # X crossings sqrt(2)/2, a pure surd
    @example((LinearMap(Fraction(3, 2)), ExactNumber(6)))  # collisions at 2, 4 and 6
    @example((LinearMap(ExactNumber(0, 1, 10**8 - 1, 10**4)), ExactNumber(3)))
    # Steps of about 5*10^-6, below 2^-16: runs of X crossings share a key.
    @example((LinearMap(ExactNumber(200000, 1, 3)), ExactNumber.from_fraction(Fraction(1, 500))))
    @settings(max_examples=150, deadline=None)
    def test_same_bytes(self, case):
        phi, T = case
        events = per_event_simulate(phi, T)
        lines = per_event_jsonl(events)
        assert logged(phi, T) == events
        assert events_to_jsonl(simulate(phi, T)) == lines
        argv = ("simulate", json.dumps(map_to_json(phi)), T.literal())
        text = cli_output(*argv)
        assert text.startswith(lines) and not text[len(lines):].startswith('{"t"')
        out = cli_output(*argv, "--format", "json")
        summary = json.loads(out)
        del summary["events"]
        events_json = lines[:-1].replace("\n", ", ")
        assert out == f'{{"events": [{events_json}], {json.dumps(summary)[1:]}\n'

    def test_a_run_of_three_shares_a_key(self):
        phi, T = LinearMap(ExactNumber(0, 1, 10**8 - 1, 10**4)), ExactNumber(3)
        keys = [t.floor(runner._SCALE) for t, _, _ in per_event_simulate(phi, T)]
        assert max(map(keys.count, keys)) >= 3
