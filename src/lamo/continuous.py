"""Exactly representable strictly increasing maps and the sets they induce.

Two map shapes cover everything downstream: a linear map t -> lambda*t with
an exact (possibly quadratic-irrational) slope, and a piecewise-linear map
through rational anchor values at t = 1..N with a linear run from the
origin, continued past N either by extending the last slope or by a
saturating piecewise-linear approach to a finite limit.  Both shapes answer
eval and floor queries exactly and walk their level crossings in closed
form; the inverse is read off that walk, phi^-1(n) being the crossing of
level n.

`construct_phi` builds, for a finite-valued non-decreasing sequence f, a
map with floor(phi(n)) = f(n) whose values at integers are never integers;
`corollary_sets` produces the pair {floor(phi(n)+n)} and
{floor(n+phi^-1(n)) : n in Im(phi)} on a window; `beatty_pair` is the
linear special case.

A linear map takes integer-only routes.  Its pair is Beatty's,
{floor(n*(1+lambda))} and {floor(n*(1+1/lambda))}, read off
`ExactNumber.multiple_floors` with one shift per term; its lattice
avoidance is decided in closed form, since lambda*n is an integer only for
a rational lambda = p/q in lowest terms and then first at n = q.  A
piecewise map reads S_Y off its anchors, phi(n) + n = anchor(n) + n, and
S_X off its crossing times; its level times take one Fraction step per
piece and integer arithmetic per time.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from itertools import count, islice, takewhile
from typing import Iterator, NamedTuple, Optional, Sequence

from .errors import (
    EmptyWindow,
    InfiniteValue,
    NonPositiveSlope,
    NonPositiveTime,
    NotPositive,
    NotSorted,
    OutsideImage,
    UnsupportedPoint,
)
from .exact import Coercible as Timelike, ExactNumber
from .sequences import (
    IntSet,
    NumberSequence,
    Tail,
    require_bound,
)


LevelTimes = Iterator[tuple[int, ExactNumber]]


def _fraction(x: Timelike, what: str) -> Fraction:
    """x as a Fraction; UnsupportedPoint when it is irrational."""
    if isinstance(x, Fraction):
        return x
    e = ExactNumber.coerce(x)
    if not e.is_rational:
        raise UnsupportedPoint(f"{what} must be rational for a piecewise map, got {e}")
    return e.as_fraction()


class MonotoneMap:
    """Strictly increasing continuous map on (0, oo) with exact queries."""

    def level_times(self, shift: int, until: Optional[Timelike] = None) -> LevelTimes:
        """(k, t_k) for k = 1, 2, .. with phi(t_k) + shift*t_k = k and t_k <= until,
        lazily; with until None the stream has no bound and may be endless.

        Shift 0 gives the origin crossings of phi, ending where a bounded
        open image ends; shift 1 gives the meetings of phi(t) and t.
        """
        raise NotImplementedError


class LinearMap(MonotoneMap):
    """t -> slope * t with an exact positive slope."""

    __slots__ = ("slope",)

    def __init__(self, slope: Timelike) -> None:
        s = ExactNumber.coerce(slope)
        if s.sign() <= 0:
            raise NonPositiveSlope(f"slope must be positive, got {s}")
        self.slope = s

    def eval(self, t: Timelike) -> ExactNumber:
        e = ExactNumber.coerce(t)
        if e.sign() <= 0:
            raise NonPositiveTime(f"time must be positive, got {e}")
        return self.slope * e

    def inverse_eval(self, y: Timelike) -> ExactNumber:
        e = ExactNumber.coerce(y)
        if e.sign() <= 0:
            raise OutsideImage(f"{e} is outside the image (0, oo)")
        return e / self.slope

    def level_times(self, shift: int, until: Optional[Timelike] = None) -> LevelTimes:
        rate = self.slope + shift
        step = rate.reciprocal()
        a, b, d, c = step.a, step.b, step.d, step.c
        # k/rate <= until iff k <= floor(rate*until), so one floor bounds the stream.
        ks = count(1) if until is None else range(1, (rate * ExactNumber.coerce(until)).floor() + 1)
        for k in ks:
            yield k, ExactNumber._new(a * k, b * k, d, c)

    def __repr__(self) -> str:
        return f"LinearMap({self.slope!r})"


class PiecewiseMap(MonotoneMap):
    """Linear between integer anchors t = 0, 1, .., with anchor(0) = 0.

    `anchor_values[i]` is the value at t = i+1.  Past the last stored
    anchor the map either keeps the final slope forever (unbounded image)
    or follows saturating anchors limit - s/(t+1) chosen to join the last
    stored anchor continuously, giving the open image (0, limit).
    """

    __slots__ = ("values", "limit", "_scale")

    def __init__(
        self,
        anchor_values: Sequence[Timelike],
        saturation_limit: Optional[Timelike] = None,
    ) -> None:
        vals = tuple(_fraction(v, "anchor value") for v in anchor_values)
        if not vals:
            raise EmptyWindow("a piecewise map needs at least one anchor")
        prev = Fraction(0)
        for v in vals:
            if v <= prev:
                if v <= 0:
                    raise NotPositive(f"anchor values must be positive, got {v}")
                raise NotSorted(f"anchor values must be strictly increasing: {v} after {prev}")
            prev = v
        self.values = vals
        if saturation_limit is None:
            self.limit = None
            self._scale = None
        else:
            lim = _fraction(saturation_limit, "saturation limit")
            if lim <= vals[-1]:
                raise NotSorted(f"saturation limit {lim} must exceed the last anchor {vals[-1]}")
            self.limit = lim
            # limit - scale/(t+1) passes through the last stored anchor.
            self._scale = (lim - vals[-1]) * (len(vals) + 1)

    def _last_slope(self) -> Fraction:
        if len(self.values) == 1:
            return self.values[0]
        return self.values[-1] - self.values[-2]

    def anchor(self, j: int) -> Fraction:
        """Value at integer grid point j >= 0 (the t=0 anchor is the limit 0)."""
        if j < 0:
            raise NonPositiveTime(f"grid point must be >= 0, got {j}")
        if j == 0:
            return Fraction(0)
        n = len(self.values)
        if j <= n:
            return self.values[j - 1]
        if self.limit is None:
            return self.values[-1] + self._last_slope() * (j - n)
        assert self._scale is not None
        return self.limit - Fraction(self._scale, j + 1)

    def eval(self, t: Timelike) -> ExactNumber:
        x = _fraction(t, "evaluation point")
        if x <= 0:
            raise NonPositiveTime(f"time must be positive, got {x}")
        j = max(1, math.ceil(x))
        lo = self.anchor(j - 1)
        hi = self.anchor(j)
        return ExactNumber.from_fraction(lo + (x - (j - 1)) * (hi - lo))

    def inverse_eval(self, y: Timelike) -> ExactNumber:
        w = _fraction(y, "image point")
        if w <= 0:
            raise OutsideImage(f"{w} is outside the image: not positive")
        if self.limit is not None and w >= self.limit:
            raise OutsideImage(f"{w} is outside the open image (0, {self.limit})")
        n = len(self.values)
        if w > self.values[-1]:
            if self.limit is None:
                t = n + (w - self.values[-1]) / self._last_slope()
                return ExactNumber.from_fraction(t)
            assert self._scale is not None
            # Smallest grid point j with anchor(j) >= w, then invert the
            # linear run into it: limit - scale/(j+1) >= w iff
            # j >= scale/(limit - w) - 1, so j > n since anchor(n) < w.
            j = math.ceil(self._scale / (self.limit - w) - 1)
        else:
            j = bisect_left(self.values, w) + 1
        lo = self.anchor(j - 1)
        hi = self.anchor(j)
        t = (j - 1) + (w - lo) / (hi - lo)
        return ExactNumber.from_fraction(t)

    def level_times(self, shift: int, until: Optional[Timelike] = None) -> LevelTimes:
        # On the piece [j-1, j], phi(t) + shift*t runs linearly from lo to hi
        # and passes each integer k in (lo, hi] once.
        end = None if until is None else ExactNumber.coerce(until)
        last = math.inf if end is None else end.floor() + 1  # the piece holding `until`
        lo = Fraction(0)
        for j in count(1):
            first = math.floor(lo) + 1
            if j > last or shift == 0 and self.limit is not None and first >= self.limit:
                return
            hi = self.anchor(j) + shift * j
            width = hi - lo
            top = math.floor(hi) if j < last else (lo + (end - (j - 1)) * width).floor()
            # t = (j-1) + (k - lo)/width = ((j-1)*w + (k*ld - ln)*wd)/w with
            # lo = ln/ld, width = wn/wd and w = ld*wn > 0.
            ln, ld, wd = lo.numerator, lo.denominator, width.denominator
            w = ld * width.numerator
            for k in range(first, top + 1):
                yield k, ExactNumber._new((j - 1) * w + (k * ld - ln) * wd, 0, 0, w)
            lo = hi

    def __repr__(self) -> str:
        tail = f", saturation_limit={self.limit!r}" if self.limit is not None else ""
        return f"PiecewiseMap({list(self.values)!r}{tail})"


class Avoidance(NamedTuple):
    """Result of scanning phi(n) for integer values on 1..N."""

    checked_through: int
    violation: Optional[int] = None

    @property
    def holds(self) -> bool:
        return self.violation is None

    def __str__(self) -> str:
        if self.holds:
            return f"holds through {self.checked_through}"
        return f"violation({self.violation})"


def lattice_avoidance(phi: MonotoneMap, N: int) -> Avoidance:
    """The first n in 1..N with phi(n) exactly a positive integer, if any."""
    require_bound(N, "scan bound")
    if isinstance(phi, LinearMap):
        # p*n/q with gcd(p, q) = 1 is an integer iff q divides n.
        q = phi.slope.c
        return Avoidance(N, q) if phi.slope.is_rational and q <= N else Avoidance(N)
    for n in range(1, N + 1):
        # At an integer n, phi(n) is the anchor.
        if phi.anchor(n).denominator == 1:
            return Avoidance(N, n)
    return Avoidance(N)


def corollary_sets(phi: MonotoneMap, K: int) -> tuple[IntSet, IntSet]:
    """Window [1, K] of S_Y = {floor(phi(n)+n)} and S_X = {floor(n+phi^-1(n))}.

    S_X ranges over integers n inside the open image of phi, whose
    preimages are the crossing times `level_times(0, K)`: n + phi^-1(n) <= K
    needs phi^-1(n) < K.  Both generators are strictly increasing, so
    enumeration stops at the first value beyond K and the horizons are
    exactly K.
    """
    require_bound(K, "window bound")
    if isinstance(phi, LinearMap):
        # phi(n) + n = n*(1+lambda), and the crossing n/lambda gives n*(1+1/lambda).
        lam = phi.slope
        s_y = (lam + 1).multiple_floors(K)
        s_x = (lam.reciprocal() + 1).multiple_floors(K)
    else:
        # phi(n) is the anchor at n, and floor(t + n) = floor(t) + n.
        s_y = list(takewhile(K.__ge__, (math.floor(phi.anchor(n)) + n for n in count(1))))
        s_x = list(takewhile(K.__ge__, (t.floor() + n for n, t in phi.level_times(0, K))))
    return IntSet(tuple(s_y), K), IntSet(tuple(s_x), K)


def construct_phi(f: NumberSequence) -> PiecewiseMap:
    """A strictly increasing map with floor(phi(n)) = f(n) and no integer values.

    Anchors are f(n) + 1 - 1/(n+1): the fractional parts increase strictly
    with n, so the map increases strictly even where f is constant, and
    phi(n) is never an integer.  A constant tail v appends, if needed, the
    anchor for index N+1 and then saturates toward v + 1, placing every
    integer > v outside the image; an unknown tail extends the last slope,
    with the floor guarantee holding through the prefix length.  f is
    non-decreasing, as every `NumberSequence` is, so only an inf value is
    refused, and it shows in the tail: an inf term makes the tail infinite.
    """
    if f.tail.kind == "infinite":
        raise InfiniteValue("map construction needs all values finite")

    def anchor_at(n: int, value: int) -> Fraction:
        return Fraction(value + 1) - Fraction(1, n + 1)

    anchors = [anchor_at(n, int(v)) for n, v in enumerate(f.prefix, start=1)]

    if f.tail.kind == "constant":
        v = f.tail.value
        assert v is not None
        N = len(f.prefix)
        if N == 0 or f.prefix[-1] != v:
            # Joining anchor for index N+1; after it the saturating
            # continuation reproduces v + 1 - 1/(n+1) at every later n.
            anchors.append(anchor_at(N + 1, v))
        return PiecewiseMap(anchors, saturation_limit=v + 1)

    if not anchors:
        raise EmptyWindow("cannot build a map from an empty prefix with unknown tail")
    return PiecewiseMap(anchors)


def induced_inverse(phi: MonotoneMap, K: int) -> NumberSequence:
    """Window [1, K] of g(n) = floor(phi^-1(n)), INF for n outside the image.

    phi^-1(n) is the crossing of level n, so one walk of `level_times(0)`
    gives the window.  The tail is infinite when a bounded image ends the
    walk inside the window, and unknown otherwise.
    """
    require_bound(K, "window bound")
    g = [t.floor() for _, t in islice(phi.level_times(0), K)]
    return NumberSequence(g, Tail.infinite() if len(g) < K else Tail.unknown())


def beatty_pair(lam: Timelike, K: int) -> tuple[IntSet, IntSet]:
    """Window [1, K] of {floor((1+lam)n)} and {floor((1+1/lam)n)}.

    No irrationality condition is imposed: rational slopes are legal and
    simply produce a pair that fails complementarity, which is the
    interesting failure case.
    """
    return corollary_sets(LinearMap(lam), K)
