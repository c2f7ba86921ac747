import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from lamo import (
    INF,
    LinearMap,
    NumberSequence,
    PiecewiseMap,
    Tail,
    beatty_pair,
    check_complementary,
    construct_phi,
    corollary_sets,
    induced_inverse,
    invert,
    lattice_avoidance,
)
from lamo.errors import (
    EmptyWindow,
    InfiniteValue,
    NonPositiveSlope,
    NonPositiveTime,
    NotNonDecreasing,
    NotPositive,
    NotSorted,
    OutsideImage,
    UnsupportedPoint,
)
from lamo.exact import ExactNumber
from lamo.formats import map_to_json

from gen import random_rational_map, random_sequence
from oracles import (
    fraction_anchor,
    generic_corollary_sets,
    meeting_count,
    pointwise_induced_inverse,
    scan_lattice_avoidance,
    wythoff_pair,
)

GOLDEN = ExactNumber(-1, 1, 5, 2)
SQRT2 = ExactNumber(0, 1, 2)
SAT3 = construct_phi(NumberSequence((1, 1, 2), Tail.constant(2)))

@st.composite
def linear_slopes(draw, max_q=600):
    """A positive exact slope: quadratic with either sign of a and b and a
    radicand up to 10**6, one with a square factor m*m, or a rational p/q."""
    kind = draw(st.sampled_from(("quadratic", "square_factor", "rational")))
    if kind == "rational":
        return ExactNumber(draw(st.integers(1, 3 * max_q)), 0, 0, draw(st.integers(1, max_q)))
    b = draw(st.integers(-60, 60).filter(bool))
    if kind == "quadratic":
        d = draw(st.integers(2, 10**6))
    else:
        d = draw(st.integers(2, 1000)) ** 2 * draw(st.integers(2, 1000))
    # |b|*sqrt(d) exceeds r, so a >= -r keeps b > 0 positive and a > r keeps
    # b < 0 positive, while a < 0 stays possible for b > 0.
    r = math.isqrt(b * b * d)
    a = draw(st.integers(-r, 60) if b > 0 else st.integers(r + 1, r + 60))
    x = ExactNumber(a, b, d, draw(st.integers(1, 60)))
    assume(x.sign() > 0)
    return x


times = st.fractions(min_value=Fraction(1, 200), max_value=60, max_denominator=200)
map_seeds = st.integers(0, 2**32)
gaps = st.fractions(min_value=Fraction(1, 50), max_value=5, max_denominator=50)


@st.composite
def saturating_tail_points(draw):
    """A saturating map and a point w strictly between its last anchor and its limit."""
    anchors = list(itertools.accumulate(draw(st.lists(gaps, min_size=1, max_size=6))))
    limit = anchors[-1] + draw(gaps)
    eps = Fraction(1, 10**6)
    r = draw(st.fractions(min_value=eps, max_value=1 - eps, max_denominator=10**6))
    return PiecewiseMap(anchors, saturation_limit=limit), anchors[-1] + r * (limit - anchors[-1])


class TestEval:
    def test_linear_scalar_multiple(self):
        assert LinearMap(GOLDEN).eval(4) == ExactNumber(-4, 4, 5, 2)

    def test_anchor_hit(self):
        assert SAT3.eval(2) == Fraction(5, 3)

    def test_segment_interpolation(self):
        assert SAT3.eval(Fraction(30, 13)) == ExactNumber(2)

    def test_origin_segment(self):
        assert SAT3.eval(Fraction(1, 3)) == Fraction(1, 2)

    def test_saturating_tail_values(self):
        # limit - 1/(t+1) at integer grid points past the anchors
        assert SAT3.eval(10) == Fraction(3) - Fraction(1, 11)
        assert SAT3.eval(100) < ExactNumber(3)

    def test_time_must_be_positive(self):
        with pytest.raises(NonPositiveTime):
            SAT3.eval(0)
        with pytest.raises(NonPositiveTime):
            LinearMap(SQRT2).eval(ExactNumber(-1))

    def test_irrational_point_on_piecewise(self):
        with pytest.raises(UnsupportedPoint):
            SAT3.eval(SQRT2)

    def test_extend_tail(self):
        phi = PiecewiseMap([Fraction(3, 2), Fraction(14, 3), Fraction(39, 4)])
        assert phi.eval(5) == Fraction(39, 4) + 2 * (Fraction(39, 4) - Fraction(14, 3))

    @given(st.lists(gaps, min_size=1, max_size=6), st.one_of(st.none(), gaps))
    @settings(max_examples=200)
    def test_integer_anchors_match_the_fraction_rule(self, steps, past):
        # An extending map when past is None, else one saturating past the last anchor.
        anchors = list(itertools.accumulate(steps))
        phi = PiecewiseMap(anchors, None if past is None else anchors[-1] + past)
        for j in range(3 * len(anchors) + 3):
            p, q = phi._pair(j)
            assert q > 0 and Fraction(p, q) == fraction_anchor(phi, j)


class TestInverseEval:
    def test_linear_golden(self):
        assert LinearMap(GOLDEN).inverse_eval(1) == ExactNumber(1, 1, 5, 2)

    def test_piecewise_segment(self):
        assert SAT3.inverse_eval(2) == Fraction(30, 13)

    def test_saturation_limit_outside(self):
        with pytest.raises(OutsideImage):
            SAT3.inverse_eval(3)
        with pytest.raises(OutsideImage):
            SAT3.inverse_eval(0)

    def test_saturating_tail_inversion(self):
        t = SAT3.inverse_eval(Fraction(3) - Fraction(1, 11))
        assert t == ExactNumber(10)

    @given(map_seeds, times)
    @settings(max_examples=80)
    def test_round_trip_piecewise(self, seed, t):
        phi = random_rational_map(random.Random(seed))
        assert phi.inverse_eval(phi.eval(t)) == ExactNumber.from_fraction(t)

    @given(saturating_tail_points())
    @settings(max_examples=200)
    def test_round_trip_saturating_tail(self, case):
        phi, w = case
        assert phi.eval(phi.inverse_eval(w)) == w

    def test_round_trip_linear_quadratic_time(self):
        phi = LinearMap(SQRT2)
        for t in (ExactNumber(1, 2, 2, 3), ExactNumber(5, 1, 2, 7)):
            assert phi.inverse_eval(phi.eval(t)) == t

    @given(map_seeds, times, times)
    @settings(max_examples=80)
    def test_strictly_monotone(self, seed, t1, t2):
        if t1 == t2:
            return
        lo, hi = sorted((t1, t2))
        phi = random_rational_map(random.Random(seed))
        assert phi.eval(lo) < phi.eval(hi)


class TestMeetingCount:
    def test_examples(self):
        assert meeting_count(LinearMap(GOLDEN), 4) == 6
        assert meeting_count(LinearMap(1), 1) == 2
        assert meeting_count(LinearMap(SQRT2), 1) == 2


class TestLatticeAvoidance:
    def test_rational_violation(self):
        assert lattice_avoidance(LinearMap(Fraction(2, 3)), 10).violation == 3
        assert lattice_avoidance(LinearMap(1), 3).violation == 1

    def test_irrational_holds(self):
        assert lattice_avoidance(LinearMap(SQRT2), 1000).holds

    def test_constructed_map_holds(self):
        f = NumberSequence((0, 3, 3, 7), Tail.unknown())
        assert lattice_avoidance(construct_phi(f), len(f.prefix)).holds

    @given(linear_slopes(max_q=400), st.integers(1, 300))
    @settings(max_examples=200)
    def test_linear_matches_scan(self, lam, N):
        # Rational denominators run past N, so both q <= N and q > N occur.
        av = lattice_avoidance(LinearMap(lam), N)
        assert av.checked_through == N
        assert av.violation == scan_lattice_avoidance(LinearMap(lam), N)

    @given(map_seeds, st.integers(1, 40))
    @settings(max_examples=60)
    def test_piecewise_matches_scan(self, seed, N):
        phi = random_rational_map(random.Random(seed))
        assert lattice_avoidance(phi, N).violation == scan_lattice_avoidance(phi, N)


class TestCorollarySets:
    def test_rational_failure_case(self):
        s_y, s_x = corollary_sets(LinearMap(Fraction(2, 3)), 12)
        assert s_y.elements == (1, 3, 5, 6, 8, 10, 11)
        assert s_x.elements == (2, 5, 7, 10, 12)
        assert check_complementary(s_y, s_x, 12).kind == "overlap"

    def test_golden_partition(self):
        s_y, s_x = corollary_sets(LinearMap(GOLDEN), 16)
        assert s_y.elements == (1, 3, 4, 6, 8, 9, 11, 12, 14, 16)
        assert s_x.elements == (2, 5, 7, 10, 13, 15)

    def test_sat3_sets_match_hat_sets(self):
        f = NumberSequence((1, 1, 2), Tail.constant(2))
        s_y, s_x = corollary_sets(construct_phi(f), 6)
        assert s_y.elements == (2, 3, 5, 6)
        assert s_x.elements == (1, 4)

    @given(map_seeds, st.integers(1, 40))
    @settings(max_examples=60)
    def test_avoidance_implies_partition(self, seed, K):
        phi = random_rational_map(random.Random(seed), integer_free_through=K + 1)
        if not lattice_avoidance(phi, K + 1).holds:
            return
        s_y, s_x = corollary_sets(phi, K)
        assert check_complementary(s_y, s_x, K).ok

    @given(linear_slopes(), st.integers(1, 300))
    @settings(max_examples=150)
    def test_linear_matches_generic_route(self, lam, K):
        s_y, s_x = corollary_sets(LinearMap(lam), K)
        assert (s_y.horizon, s_x.horizon) == (K, K)
        assert (list(s_y.elements), list(s_x.elements)) == generic_corollary_sets(LinearMap(lam), K)

    @given(map_seeds, st.integers(1, 40))
    @settings(max_examples=60)
    def test_piecewise_matches_generic_route(self, seed, K):
        phi = random_rational_map(random.Random(seed))
        s_y, s_x = corollary_sets(phi, K)
        assert (list(s_y.elements), list(s_x.elements)) == generic_corollary_sets(phi, K)

    def test_square_factor_slope_gives_same_sets(self):
        assert corollary_sets(LinearMap(ExactNumber(0, 1, 8)), 500) == corollary_sets(
            LinearMap(ExactNumber(0, 2, 2)), 500
        )

    def test_violation_breaks_partition_nearby(self):
        phi = LinearMap(Fraction(2, 3))
        av = lattice_avoidance(phi, 10)
        assert not av.holds
        s_y, s_x = corollary_sets(phi, 12)
        assert not check_complementary(s_y, s_x, 12).ok


class TestConstructPhi:
    def test_sat3_anchors(self):
        assert SAT3.values == (Fraction(3, 2), Fraction(5, 3), Fraction(11, 4))
        assert SAT3.limit == 3

    def test_all_zero_map(self):
        phi = construct_phi(NumberSequence((0,), Tail.constant(0)))
        assert phi.eval(1) == Fraction(1, 2)
        assert phi.limit == 1
        assert induced_inverse(phi, 1).value_at(1) is INF

    def test_unknown_tail_anchors(self):
        phi = construct_phi(NumberSequence((1, 4, 9), Tail.unknown()))
        assert phi.values == (Fraction(3, 2), Fraction(14, 3), Fraction(39, 4))
        assert phi.limit is None

    def test_joining_anchor_when_tail_exceeds_prefix(self):
        phi = construct_phi(NumberSequence((0,), Tail.constant(5)))
        assert phi.values == (Fraction(1, 2), Fraction(6) - Fraction(1, 3))
        assert phi.limit == 6
        # every later integer still lands in (5, 6)
        for n in (3, 4, 10):
            assert phi.eval(n).floor() == 5

    def test_empty_constant_tail(self):
        phi = construct_phi(NumberSequence((), Tail.constant(2)))
        for n in (1, 2, 9):
            assert phi.eval(n).floor() == 2

    def test_rejects_infinite_values(self):
        with pytest.raises(InfiniteValue):
            construct_phi(NumberSequence((0, INF), Tail.infinite()))
        with pytest.raises(InfiniteValue):
            construct_phi(NumberSequence((0, INF), Tail.unknown()))

    def test_rejects_decreasing(self):
        with pytest.raises(NotNonDecreasing):
            construct_phi(NumberSequence((2, 1), Tail.unknown()))

    def test_rejects_empty_unknown(self):
        with pytest.raises(EmptyWindow):
            construct_phi(NumberSequence((), Tail.unknown()))

    @given(st.integers(0, 2**32))
    @settings(max_examples=60)
    def test_postconditions(self, seed):
        rng = random.Random(seed)
        f = random_sequence(rng, max_len=10, max_val=15, kinds=("constant", "unknown"))
        if not f.prefix and f.tail.kind == "unknown":
            return
        phi = construct_phi(f)
        horizon = len(f.prefix) if f.tail.kind == "unknown" else len(f.prefix) + 5
        anchors = [phi.eval(n) for n in range(1, max(horizon, 1) + 1)]
        for n, y in enumerate(anchors, start=1):
            assert not y.is_integer()
            if n <= horizon:
                assert y.floor() == f.value_at(n)
        assert all(a < b for a, b in zip(anchors, anchors[1:]))


class TestInducedInverse:
    def test_sat3_values(self):
        assert induced_inverse(SAT3, 1) == NumberSequence((0,), Tail.unknown())
        assert induced_inverse(SAT3, 2) == NumberSequence((0, 2), Tail.unknown())
        # 3 is the limit of SAT3's image, so the walk ends inside the window.
        assert induced_inverse(SAT3, 3) == NumberSequence((0, 2), Tail.infinite())

    @given(st.one_of(map_seeds.map(lambda s: random_rational_map(random.Random(s))),
                     linear_slopes(max_q=30).map(LinearMap)), st.integers(1, 60))
    @settings(max_examples=160)
    def test_matches_pointwise_oracle(self, phi, K):
        # A saturating map stays below 10, so K often passes its image.
        h = induced_inverse(phi, K)
        assert [h.value_at(n) for n in range(1, K + 1)] == [
            pointwise_induced_inverse(phi, n) for n in range(1, K + 1)
        ]

    @given(st.integers(0, 2**32))
    @settings(max_examples=60)
    def test_map_route_matches_counting_route(self, seed):
        rng = random.Random(seed)
        f = random_sequence(rng, max_len=10, max_val=12, kinds=("constant",))
        phi = construct_phi(f)
        g = invert(f)
        assert f.tail.value is not None
        h = induced_inverse(phi, f.tail.value + 2)
        for n in range(1, f.tail.value + 3):
            assert h.value_at(n) == g.value_at(n)


class TestBeatty:
    def test_golden_wythoff(self):
        a, b = beatty_pair(GOLDEN, 16)
        assert a.elements == (1, 3, 4, 6, 8, 9, 11, 12, 14, 16)
        assert b.elements == (2, 5, 7, 10, 13, 15)

    def test_wythoff_against_decimal_oracle(self):
        a, b = beatty_pair(GOLDEN, 200)
        lowers = [wythoff_pair(n)[0] for n in range(1, 30)]
        uppers = [wythoff_pair(n)[1] for n in range(1, 20)]
        assert list(a.elements[:29]) == lowers
        assert list(b.elements[:19]) == uppers

    def test_rational_slope_coincides(self):
        a, b = beatty_pair(1, 6)
        assert a.elements == (2, 4, 6) and b.elements == (2, 4, 6)

    def test_sqrt2_pair(self):
        a, b = beatty_pair(SQRT2, 13)
        assert a.elements == (2, 4, 7, 9, 12)
        assert b.elements == (1, 3, 5, 6, 8, 10, 11, 13)

    def test_slope_must_be_positive(self):
        with pytest.raises(NonPositiveSlope):
            beatty_pair(ExactNumber(-1), 5)
        with pytest.raises(NonPositiveSlope):
            LinearMap(0)

    @pytest.mark.parametrize(
        "lam", [GOLDEN, ExactNumber(0, 1, 8), ExactNumber(2, 0, 0, 3), ExactNumber(1, 2, 7, 3)]
    )
    def test_constructions_do_not_grow_with_K(self, lam, monkeypatch):
        # The pair is read off integer floors: no ExactNumber per term.
        built = 0
        init = ExactNumber.__init__

        def counting_init(self, *args, **kwargs):
            nonlocal built
            built += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(ExactNumber, "__init__", counting_init)
        per_K = []
        for K in (100, 10_000):
            built = 0
            beatty_pair(lam, K)
            per_K.append(built)
        assert per_K[0] == per_K[1]

    @pytest.mark.parametrize("lam", [GOLDEN, SQRT2, ExactNumber(2, 0, 0, 3), ExactNumber(7)])
    def test_reciprocal_density_identity(self, lam):
        # 1/(1+lam) + 1/(1+1/lam) = 1, exactly
        r = ExactNumber(1) + lam
        s = ExactNumber(1) + lam.reciprocal()
        assert r.reciprocal() + s.reciprocal() == ExactNumber(1)


class TestMapValidation:
    def test_anchor_ordering_enforced(self):
        with pytest.raises(NotSorted):
            PiecewiseMap([Fraction(2), Fraction(1)])
        with pytest.raises(NotSorted):
            PiecewiseMap([Fraction(2)], saturation_limit=Fraction(3, 2))

    def test_anchors_must_be_positive(self):
        with pytest.raises(Exception):
            PiecewiseMap([Fraction(-1), Fraction(1)])

    def test_needs_an_anchor(self):
        with pytest.raises(EmptyWindow):
            PiecewiseMap([])

    @pytest.mark.parametrize("bad", [0.5, "1/2", True])
    def test_anchor_must_be_exact(self, bad):
        with pytest.raises(TypeError, match="expected an exact numeric value"):
            PiecewiseMap([bad, Fraction(2)])

    @pytest.mark.parametrize("bad", [3.5, "7/2", True])
    def test_limit_must_be_exact(self, bad):
        with pytest.raises(TypeError, match="expected an exact numeric value"):
            PiecewiseMap([Fraction(1), Fraction(2)], saturation_limit=bad)

    def test_rational_exact_numbers_accepted(self):
        phi = PiecewiseMap([ExactNumber(3, 0, 0, 2)], saturation_limit=ExactNumber(2))
        assert phi.values == (Fraction(3, 2),) and phi.limit == Fraction(2)
        assert phi.eval(1) == Fraction(3, 2)

    def test_irrational_anchor_rejected(self):
        with pytest.raises(UnsupportedPoint, match="anchor value must be rational"):
            PiecewiseMap([SQRT2])

    @pytest.mark.parametrize("anchors, limit, error, message", [
        ([2, 1], None, NotSorted, "anchor values must be strictly increasing: 1 after 2"),
        ([Fraction(3, 2)] * 2, None, NotSorted, "anchor values must be strictly increasing: 3/2 after 3/2"),
        ([ExactNumber(5, 0, 0, 3)] * 2, None, NotSorted,
         "anchor values must be strictly increasing: 5/3 after 5/3"),
        ([1, 2], 2, NotSorted, "saturation limit 2 must exceed the last anchor 2"),
        ([1, 2], Fraction(3, 2), NotSorted, "saturation limit 3/2 must exceed the last anchor 2"),
        ([2, 1], True, NotSorted, "anchor values must be strictly increasing: 1 after 2"),
        ([0, 1], None, NotPositive, "anchor values must be positive, got 0"),
        ([1, Fraction(-3, 4)], None, NotPositive, "anchor values must be positive, got -3/4"),
        ([SQRT2], None, UnsupportedPoint, "anchor value must be rational for a piecewise map, got sqrt(2)"),
        ([1], SQRT2, UnsupportedPoint, "saturation limit must be rational for a piecewise map, got sqrt(2)"),
        ([], SQRT2, EmptyWindow, "a piecewise map needs at least one anchor"),
    ])
    def test_bad_anchor_class_and_message(self, anchors, limit, error, message):
        with pytest.raises(error) as e:
            PiecewiseMap(anchors, saturation_limit=limit)
        assert type(e.value) is error and str(e.value) == message

    @pytest.mark.parametrize("point, error, message", [
        (Fraction(-1, 3), NonPositiveTime, "time must be positive, got -1/3"),
        (SQRT2, UnsupportedPoint, "evaluation point must be rational for a piecewise map, got sqrt(2)"),
    ])
    def test_bad_evaluation_point(self, point, error, message):
        with pytest.raises(error) as e:
            PiecewiseMap([Fraction(3, 2), 2], saturation_limit=3).eval(point)
        assert type(e.value) is error and str(e.value) == message

    @pytest.mark.parametrize("point, message", [
        (0, "0 is outside the image: not positive"),
        (3, "3 is outside the open image (0, 3)"),
        (Fraction(7, 2), "7/2 is outside the open image (0, 3)"),
    ])
    def test_outside_image_message(self, point, message):
        with pytest.raises(OutsideImage) as e:
            PiecewiseMap([Fraction(3, 2), 2], saturation_limit=3).inverse_eval(point)
        assert str(e.value) == message

    @given(st.lists(gaps, min_size=1, max_size=6), st.one_of(st.none(), gaps), st.booleans())
    @settings(max_examples=100)
    def test_same_map_from_ints_fractions_and_exact_numbers(self, steps, past, whole):
        # With `whole`, every gap is rounded up, so the ints form holds only ints.
        steps = [Fraction(math.ceil(g)) for g in steps] if whole else steps
        anchors = list(itertools.accumulate(steps))
        limit = None if past is None else anchors[-1] + (math.ceil(past) if whole else past)
        forms = [lambda v: v, lambda v: ExactNumber(v.numerator, 0, 0, v.denominator),
                 lambda v: v.numerator if v.denominator == 1 else v]
        maps = [PiecewiseMap(list(map(form, anchors)), None if limit is None else form(limit))
                for form in forms]
        for phi in maps:
            assert phi._pairs == maps[0]._pairs and repr(phi) == repr(maps[0])
            assert phi.values == tuple(anchors) and all(type(v) is Fraction for v in phi.values)
            assert phi.limit == limit and type(phi.limit) is (type(None) if limit is None else Fraction)
            assert map_to_json(phi) == map_to_json(maps[0])
