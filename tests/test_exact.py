import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from lamo.errors import IncompatibleRadicands, ParseError, ZeroDenominator
from lamo.exact import ExactNumber, floors

from oracles import bisect_floor, decimal_floor, isqrt_multiple_floors, subtract_compare

GOLDEN = ExactNumber(-1, 1, 5, 2)
SQRT2 = ExactNumber(0, 1, 2)

small_int = st.integers(min_value=-10**6, max_value=10**6)
radicand = st.sampled_from([2, 3, 5, 7])
coeffs = st.tuples(small_int, small_int, st.integers(min_value=1, max_value=1000))


def quad(a, b, d, c):
    return ExactNumber(a, b, d, c if c != 0 else 1)


# Radicands m*m*k up to 10**12 with a square factor m*m.
square_root = st.integers(min_value=2, max_value=1000)
small_d = st.integers(min_value=1, max_value=10**6)

quadratics = st.builds(
    quad,
    small_int,
    small_int,
    radicand,
    st.integers(min_value=1, max_value=1000),
)


class TestNormalization:
    def test_denominator_sign_flips(self):
        x = ExactNumber(1, 1, 5, -2)
        assert (x.a, x.b, x.c, x.d) == (-1, -1, 2, 5)

    def test_gcd_reduction(self):
        x = ExactNumber(10, 10, 5, 2)
        assert (x.a, x.b, x.c, x.d) == (5, 5, 1, 5)

    def test_perfect_square_folds_to_rational(self):
        x = ExactNumber(1, 3, 9, 2)
        assert x.is_rational and x.as_fraction() == Fraction(10, 2)

    def test_zero_coefficient_clears_radicand(self):
        assert ExactNumber(3, 0, 7, 1).d == 0

    def test_square_factor_extraction(self):
        x = ExactNumber(0, 1, 8, 1)
        assert x == ExactNumber(0, 2, 2, 1) and hash(x) == hash(ExactNumber(0, 2, 2, 1))
        assert x.literal() == "sqrt(8)"

    def test_d_zero_clears_b(self):
        assert ExactNumber(3, 5, 0, 1) == ExactNumber(3)

    def test_normalization_idempotent(self):
        x = ExactNumber(6, 4, 12, 10)
        y = ExactNumber(x.a, x.b, x.d, x.c)
        assert (x.a, x.b, x.c, x.d) == (y.a, y.b, y.c, y.d)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDenominator):
            ExactNumber(1, 0, 0, 0)

    def test_negative_radicand_rejected(self):
        with pytest.raises(ValueError):
            ExactNumber(0, 1, -2, 1)


class TestArithmetic:
    def test_add_doubles_golden(self):
        s = GOLDEN + GOLDEN
        assert (s.a, s.b, s.c, s.d) == (-1, 1, 1, 5)

    def test_add_identity(self):
        assert ExactNumber(0) + SQRT2 == SQRT2

    def test_add_mixed_rational(self):
        s = ExactNumber(3, 0, 0, 2) + SQRT2
        assert (s.a, s.b, s.c, s.d) == (3, 2, 2, 2)
        assert s.floor() == decimal_floor(3, 2, 2, 2)

    def test_add_incompatible_radicands(self):
        with pytest.raises(IncompatibleRadicands):
            SQRT2 + ExactNumber(0, 1, 3)

    def test_mul_rational_examples(self):
        assert GOLDEN * Fraction(2, 1) == ExactNumber(-1, 1, 5, 1)
        assert SQRT2 * Fraction(0, 1) == ExactNumber(0)
        x = ExactNumber(1, 1, 5, 2) * Fraction(10, 1)
        assert (x.a, x.b, x.c, x.d) == (5, 5, 1, 5)
        assert Fraction(2, 1) * GOLDEN == ExactNumber(-1, 1, 5, 1)
        assert 3 * SQRT2 == ExactNumber(0, 3, 2, 1)

    def test_mul_rational_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            GOLDEN * ExactNumber(1, 0, 0, 0)

    def test_division_round_trip(self):
        assert (GOLDEN / GOLDEN) == ExactNumber(1)
        assert (ExactNumber(1) / GOLDEN) == ExactNumber(1, 1, 5, 2)

    def test_reciprocal_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            ExactNumber(0).reciprocal()

    def test_golden_satisfies_its_polynomial(self):
        # x^2 + x - 1 = 0 for x = (-1+sqrt(5))/2
        assert GOLDEN * GOLDEN + GOLDEN - 1 == ExactNumber(0)


class TestCompare:
    def test_sqrt2_less_than_three_halves(self):
        assert SQRT2.compare(ExactNumber(3, 0, 0, 2)) < 0

    def test_reflexive_equal(self):
        assert GOLDEN.compare(GOLDEN) == 0

    def test_golden_greater_than_eight_fifths(self):
        assert ExactNumber(1, 1, 5, 2).compare(ExactNumber(8, 0, 0, 5)) > 0

    def test_opposite_sign_branches(self):
        assert ExactNumber(-3, 1, 5, 1).sign() < 0
        assert ExactNumber(-2, 1, 5, 1).sign() > 0
        assert ExactNumber(3, -1, 5, 1).sign() > 0
        assert ExactNumber(2, -1, 5, 1).sign() < 0

    def test_ordering_operators(self):
        assert SQRT2 < ExactNumber(3, 0, 0, 2) <= ExactNumber(2) > GOLDEN

    def test_compare_across_radicands_raises(self):
        with pytest.raises(IncompatibleRadicands):
            SQRT2 < ExactNumber(0, 1, 3)

    def test_equality_across_radicands_is_false(self):
        assert SQRT2 != ExactNumber(0, 1, 3)

    @given(radicand, coeffs, coeffs, coeffs)
    def test_transitivity(self, d, p, q, r):
        x, y, z = (ExactNumber(a, b, d, c) for a, b, c in (p, q, r))
        if x <= y and y <= z:
            assert x <= z

    @given(radicand, coeffs, coeffs)
    def test_antisymmetry(self, d, p, q):
        x, y = (ExactNumber(a, b, d, c) for a, b, c in (p, q))
        if x <= y and y <= x:
            assert x == y


@st.composite
def comparable_pairs(draw):
    """(x, y) on one radicand up to 10**6 or on d and m*m*d, with y possibly
    rational, an int or a Fraction."""
    d = draw(st.integers(2, 10**6))
    x = ExactNumber(draw(small_int), draw(small_int), d, draw(st.integers(1, 1000)))
    kind = draw(st.sampled_from(("same", "square_factor", "rational", "int", "fraction")))
    if kind == "int":
        y = draw(small_int)
    elif kind == "fraction":
        y = Fraction(draw(small_int), draw(st.integers(1, 1000)))
    else:
        m = draw(st.integers(2, 1000)) if kind == "square_factor" else 1
        b = 0 if kind == "rational" else draw(small_int)
        y = ExactNumber(draw(small_int), b, m * m * d, draw(st.integers(1, 1000)))
    return (x, y) if draw(st.booleans()) else (y, x)


class TestCompareOracle:
    @given(comparable_pairs())
    def test_matches_subtraction(self, pair):
        x, y = pair
        sign = subtract_compare(x, y)
        if isinstance(x, ExactNumber):
            assert x.compare(y) == sign
        if isinstance(y, ExactNumber):
            assert y.compare(x) == -sign
        assert (x == y) == (sign == 0) and (y == x) == (sign == 0)
        assert (x < y) == (sign < 0) and (y < x) == (sign > 0)

    def test_near_ties(self):
        # 1393/985 < sqrt(2) < 3363/2378, each within 10**-6 of sqrt(2).
        assert SQRT2.compare(Fraction(1393, 985)) == 1
        assert SQRT2.compare(Fraction(3363, 2378)) == -1
        assert ExactNumber(0, 1, 8).compare(ExactNumber(0, 2, 2)) == 0

    @given(st.integers(2, 10**6), st.integers(2, 10**6), small_int, small_int)
    def test_incompatible_radicands(self, d1, d2, b1, b2):
        s = math.isqrt(d1 * d2)
        x, y = ExactNumber(0, b1 or 1, d1), ExactNumber(0, b2 or 1, d2)
        if s * s == d1 * d2 or x.is_rational or y.is_rational:
            return
        with pytest.raises(IncompatibleRadicands):
            x.compare(y)
        with pytest.raises(IncompatibleRadicands):
            x < y
        assert x != y and not (x == y)


class TestFloor:
    def test_contract_examples(self):
        assert ExactNumber(1, 1, 5, 2).floor() == 1
        assert ExactNumber(7).floor() == 7
        assert ExactNumber(10, 10, 5, 2).floor() == 16

    def test_negative_values(self):
        assert ExactNumber(-1, 0, 0, 2).floor() == -1
        assert (-SQRT2).floor() == -2
        assert ExactNumber(1, -1, 5, 2).floor() == -1

    @given(quadratics)
    def test_floor_postcondition(self, x):
        n = x.floor()
        assert ExactNumber(n) <= x < ExactNumber(n + 1)

    def test_oracle_agreement(self):
        rng = random.Random(20260814)
        for _ in range(300):
            a = rng.randint(-10**6, 10**6)
            b = rng.randint(-10**6, 10**6)
            c = rng.randint(1, 1000)
            d = rng.choice([2, 3, 5, 7])
            x = ExactNumber(a, b, d, c)
            assert x.floor() == decimal_floor(a, b, d, c)

    @given(
        st.integers(-(10**12), 10**12),
        st.integers(-(10**6), 10**6),
        st.one_of(st.integers(0, 10**12), st.builds(lambda m, k: m * m * k, square_root, small_d)),
        st.integers(1, 10**6),
    )
    def test_bisection_oracle_agreement(self, a, b, d, c):
        assert ExactNumber(a, b, d, c).floor() == bisect_floor(a, b, d, c)


    @given(
        coeffs,
        st.one_of(st.integers(0, 10**6), st.integers(10**20 - 1, 10**20 + 1), st.integers(0, 10**20)),
        st.one_of(st.just(1), st.just(2**32), st.integers(1, 2**40)),
    )
    @example((3, -7, 1), 10**20 - 1, 2**32)
    @example((0, 1, 10**10), 10**20 + 1, 2**32)
    @example((0, 1, 1), 2, -1)  # floor(-sqrt(2)) = -2
    @example((3, -1, 2), 5, -3)  # floor(-3*(3 - sqrt(5))/2) = -2
    @example((3, -1, 2), 5, 0)
    def test_scaled_floor(self, abc, d, scale):
        a, b, c = abc
        assert ExactNumber(a, b, d, c).floor(scale) == bisect_floor(a * scale, b * scale, d, c)


@st.composite
def floor_columns(draw):
    """A column (A, B, d, C) of values over one radicand, maybe empty, whose B
    is all positive, all negative or all zero; d is 0, non-square below
    10**6, or non-square past 2**64."""
    d = draw(st.one_of(st.just(0), st.integers(2, 10**6), st.integers(2**64, 2**80)))
    if d and math.isqrt(d) ** 2 == d:
        d += 1
    n, sign = draw(st.integers(0, 6)), draw(st.sampled_from((1, -1, 0)))
    column = st.lists(st.integers(1, 10**6), min_size=n, max_size=n)
    A = draw(st.lists(st.integers(-(10**12), 10**12), min_size=n, max_size=n))
    return A, [sign * b for b in draw(column)], d, draw(column)


class TestFloors:
    @given(
        floor_columns(),
        st.one_of(st.sampled_from((1, 2**16)), st.integers(-3, 3), st.integers(-(2**40), 2**40)),
    )
    @example(([0], [1], 2, [1]), -1)  # floor(-sqrt(2)) = -2
    @example(([3], [-1], 5, [2]), -3)  # floor(-3*(3 - sqrt(5))/2) = -2
    @example(([3, 0], [-1, -4], 5, [2, 7]), -1)
    @example(([3, 0], [-1, -4], 5, [2, 7]), 0)
    @example(([1, -5], [2, 3], 99999999999999999999, [10**10, 3]), 0)
    def test_matches_bisection(self, column, scale):
        A, B, d, C = column
        assert floors(A, B, d, C, scale) == [
            bisect_floor(a * scale, b * scale, d, c) for a, b, c in zip(A, B, C)
        ]


@st.composite
def beatty_slopes(draw):
    """A positive (a + b*sqrt(d))/c of size about 1/8 to 64, with radicands
    up to 10**20 and either sign of a and b."""
    d = draw(st.one_of(st.integers(0, 10**6), st.integers(0, 10**20)))
    a, b = draw(st.integers(-(10**4), 10**4)), draw(st.integers(-1000, 1000))
    size = abs(a) + abs(b) * (math.isqrt(d) + 1)
    x = ExactNumber(a, b, d, max(1, size * draw(st.integers(1, 8)) // draw(st.integers(1, 64))))
    x = -x if x.sign() < 0 else x
    assume(x > Fraction(1, 8))
    return x


class TestMultipleFloors:
    @given(beatty_slopes(), st.integers(-3, 2000))
    @settings(deadline=None)
    @example(ExactNumber(1, 0, 0, 3), 0)  # K <= 0
    @example(ExactNumber(1, 0, 0, 3), -2)
    @example(ExactNumber(10), 5)  # x > K+1: N = 0
    @example(ExactNumber(4, 0, 0, 3), 7)  # 6 * 4/3 = K+1 is cut
    @example(ExactNumber(3, -1, 7, 2), 60)  # x < 1: repeated terms
    @example(ExactNumber(7, -2, 3, 1), 1000)  # b < 0
    @example(ExactNumber(0, 1, 8), 1000)
    @example(ExactNumber(0, 1, 99999999999999999999, 10**10), 20000)
    @example(GOLDEN + 1, 10**5)
    def test_matches_isqrt_rule(self, x, K):
        assert x.multiple_floors(K) == isqrt_multiple_floors(x.a, x.b, x.d, x.c, K)


class TestInternalConstructor:
    @given(coeffs, st.integers(0, 10**6))
    def test_matches_public_constructor(self, abc, d):
        a, b, c = abc
        r = math.isqrt(d)
        if r * r == d:
            d = r * r + 1 if r else 2  # the internal constructor takes no square radicand
        x, y = ExactNumber._new(a, b, d, c), ExactNumber(a, b, d, c)
        assert (x.a, x.b, x.d, x.c) == (y.a, y.b, y.d, y.c)
        assert hash(x) == hash(y) and x == y

    @given(coeffs, coeffs, radicand)
    def test_arithmetic_matches_public_constructor(self, abc1, abc2, d):
        # Each result is the public constructor's normal form of the field formula.
        def fields(v):
            return (v.a, v.b, v.d, v.c)

        x, y = ExactNumber(*abc1[:2], d, abc1[2]), ExactNumber(*abc2[:2], d, abc2[2])
        a1, b1, _, c1 = fields(x)
        a2, b2, _, c2 = fields(y)
        add = ExactNumber(a1 * c2 + a2 * c1, b1 * c2 + b2 * c1, d, c1 * c2)
        mul = ExactNumber(a1 * a2 + b1 * b2 * d, a1 * b2 + b1 * a2, d, c1 * c2)
        assert fields(x + y) == fields(add) and fields(x * y) == fields(mul)
        assert fields(-x) == fields(ExactNumber(-a1, -b1, x.d, c1))
        if x:
            norm = a1 * a1 - b1 * b1 * x.d
            assert fields(x.reciprocal()) == fields(ExactNumber(c1 * a1, -c1 * b1, x.d, norm))


class TestPredicates:
    def test_is_integer_examples(self):
        assert ExactNumber(6, 0, 0, 3).is_integer()
        assert not SQRT2.is_integer()
        assert not ExactNumber(4, 0, 0, 3).is_integer()

    def test_bool_and_abs(self):
        assert not ExactNumber(0)
        assert abs(ExactNumber(-3, 0, 0, 2)) == Fraction(3, 2)


class TestParse:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("7", ExactNumber(7)),
            ("-12", ExactNumber(-12)),
            ("3/2", ExactNumber(3, 0, 0, 2)),
            ("-3/2", ExactNumber(-3, 0, 0, 2)),
            ("sqrt(5)", ExactNumber(0, 1, 5)),
            ("-sqrt(2)", -SQRT2),
            ("2*sqrt(3)", ExactNumber(0, 2, 3, 1)),
            ("sqrt(2)/2", ExactNumber(0, 1, 2, 2)),
            ("(-1+1*sqrt(5))/2", GOLDEN),
            ("(-1+sqrt(5))/2", GOLDEN),
            ("(1-1*sqrt(5))/2", ExactNumber(1, -1, 5, 2)),
            ("(3+2*sqrt(2))/2", ExactNumber(3, 2, 2, 2)),
            ("1+1*sqrt(5)", ExactNumber(1, 1, 5, 1)),
            ("(−1+1*sqrt(5))/2", GOLDEN),
            ("( -1 + sqrt(5) ) / 2", GOLDEN),
            (" 3/2 ", ExactNumber(3, 0, 0, 2)),
            ("\t3 /\t2\n", ExactNumber(3, 0, 0, 2)),
            ("2 * sqrt (3)", ExactNumber(0, 2, 3, 1)),
            ("+1+sqrt(2)", ExactNumber(1, 1, 2, 1)),
            ("(1-sqrt(5))", ExactNumber(1, -1, 5, 1)),
            ("sqrt(5)/-2", ExactNumber(0, -1, 5, 2)),
            ("3/-2", ExactNumber(-3, 0, 0, 2)),
        ],
    )
    def test_parse_literals(self, text, value):
        assert ExactNumber.parse(text) == value

    @given(quadratics)
    @example(-SQRT2)
    @example(ExactNumber(0, -1, 5, 3))
    def test_literal_round_trip(self, x):
        assert ExactNumber.parse(x.literal()) == x

    @pytest.mark.parametrize(
        "bad",
        ["", "1.5", "sqrt(-2)", "1//2", "one", "(1+)/2", "0.25",
         "1 2", "1\t2", "sq rt(2)", "sqrt(1 0)", "2 sqrt(3)", "３", "sqrt(２)", "1/٣",
         "1_0", "1+sqrt(5)/2", "(sqrt(5))/2", "(3)/2", "1++sqrt(2)", "-(1+sqrt(5))/2",
         "(1+sqrt(5)", "1+sqrt(5))", "12sqrt(3)"],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ParseError):
            ExactNumber.parse(bad)

    def test_hash_consistent_with_eq(self):
        assert hash(ExactNumber(2, 2, 5, 2)) == hash(ExactNumber(1, 1, 5, 1))


class TestExactValues:
    """An exact value is an ExactNumber, a Fraction, or an object of type exactly int."""

    class Sub(int):
        pass

    @pytest.mark.parametrize("x", [7, Fraction(3, 2), GOLDEN])
    def test_coerce_accepts(self, x):
        assert ExactNumber.coerce(x) == x

    @pytest.mark.parametrize("x", [True, Sub(3), 1.5, "1", None])
    def test_coerce_rejects(self, x):
        with pytest.raises(TypeError, match="expected an exact numeric value"):
            ExactNumber.coerce(x)
        assert ExactNumber._coerce(x) is None

    @pytest.mark.parametrize("fields", [(True,), (1, True, 2, 1), (Sub(1),), (1, 0, 0, 2.0)])
    def test_fields_must_be_ints(self, fields):
        with pytest.raises(TypeError, match="must be an int"):
            ExactNumber(*fields)

    @pytest.mark.parametrize(
        "op", [operator.add, operator.sub, operator.mul, operator.truediv, operator.lt]
    )
    @pytest.mark.parametrize("other", [1.5, True])
    def test_operators_reject_non_exact(self, op, other):
        with pytest.raises(TypeError):
            op(SQRT2, other)
        with pytest.raises(TypeError):
            op(other, SQRT2)


class TestValueSemantics:
    def test_square_factor_beyond_old_trial_bound(self):
        x, y = ExactNumber(0, 1, 2 * 10007**2), ExactNumber(0, 10007, 2)
        assert x == y and y == x
        assert x.compare(y) == 0 and y.compare(x) == 0
        assert (x - y).is_zero and (y - x).is_zero
        assert hash(x) == hash(y)

    def test_rational_hashes_like_int_and_fraction(self):
        assert hash(ExactNumber(3)) == hash(3)
        assert {ExactNumber(3): 1}.get(3) == 1
        assert hash(ExactNumber(3, 0, 0, 2)) == hash(Fraction(3, 2))

    @given(small_int, small_int, st.sampled_from([2, 3, 5, 7, 10]),
           st.integers(min_value=2, max_value=10**6), st.integers(min_value=1, max_value=1000))
    def test_rescaled_radicand_is_same_value(self, a, b, d, m, c):
        # (a + b*sqrt(m*m*d))/c and (a + b*m*sqrt(d))/c are one real.
        x, y = ExactNumber(a, b, m * m * d, c), ExactNumber(a, b * m, d, c)
        assert x == y and hash(x) == hash(y)
        assert (x - y).is_zero and (y - x).is_zero
        assert x * x == y * y and x * ExactNumber(0, 1, d) == y * ExactNumber(0, 1, d)
        assert x.floor() == y.floor()
