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
S_X off its crossing times.  It keeps each anchor, and its limit, as an
integer pair (p, q) in lowest terms, stored up to the last given anchor and
given by one formula past it, so every query takes integer arithmetic only;
a Fraction is built only where `values` and `limit` hand one out.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import chain, count, islice, repeat, starmap, takewhile
from operator import add, floordiv
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
from .exact import Coercible, ExactNumber
from .sequences import (
    IntSet,
    NumberSequence,
    Tail,
    require_bound,
)


LevelTimes = Iterator[tuple[int, ExactNumber]]


def _ratio(x: Coercible, what: str) -> tuple[int, int]:
    """(p, q) with x = p/q in lowest terms, q >= 1; UnsupportedPoint if x is irrational."""
    e = ExactNumber.coerce(x)
    if e.b:
        raise UnsupportedPoint(f"{what} must be rational for a piecewise map, got {e}")
    return e.a, e.c


def _text(p: int, q: int) -> str:
    """p/q in lowest terms, written as str(Fraction(p, q)) is."""
    return f"{p}/{q}" if q != 1 else str(p)


class MonotoneMap:
    """Strictly increasing continuous map on (0, oo) with exact queries."""

    def level_times(self, shift: int, until: Optional[Coercible] = None) -> LevelTimes:
        """(k, t_k) for k = 1, 2, .. with phi(t_k) + shift*t_k = k and t_k <= until,
        lazily; with until None the stream has no bound and may be endless.

        Shift 0 gives the origin crossings of phi, ending where a bounded
        open image ends; shift 1 gives the meetings of phi(t) and t.  The
        times are those of `level_fields`, one `ExactNumber` each.
        """
        runs = self.level_fields(shift, until)
        return enumerate(chain.from_iterable(
            map(ExactNumber._new, A, B, repeat(d), C) for A, B, d, C in runs), 1)

    def level_fields(self, shift: int, until: Optional[Coercible] = None) -> Iterator[tuple]:
        """The times of `level_times` in runs (A, B, d, C) of integer fields, not
        reduced: (A[i] + B[i]*sqrt(d))/C[i]; a run is endless only where it is."""
        raise NotImplementedError


class LinearMap(MonotoneMap):
    """t -> slope * t with an exact positive slope."""

    __slots__ = ("slope",)

    def __init__(self, slope: Coercible) -> None:
        s = ExactNumber.coerce(slope)
        if s.sign() <= 0:
            raise NonPositiveSlope(f"slope must be positive, got {s}")
        self.slope = s

    def eval(self, t: Coercible) -> ExactNumber:
        e = ExactNumber.coerce(t)
        if e.sign() <= 0:
            raise NonPositiveTime(f"time must be positive, got {e}")
        return self.slope * e

    def inverse_eval(self, y: Coercible) -> ExactNumber:
        e = ExactNumber.coerce(y)
        if e.sign() <= 0:
            raise OutsideImage(f"{e} is outside the image (0, oo)")
        return e / self.slope

    def level_fields(self, shift: int, until: Optional[Coercible] = None) -> Iterator[tuple]:
        # One run: t_k = k*step.  k/rate <= until iff k <= floor(rate*until).
        rate = self.slope + shift
        step = rate.reciprocal()
        a, b, d, c = step.a, step.b, step.d, step.c
        n = None if until is None else max(0, (rate * ExactNumber.coerce(until)).floor())
        yield islice(count(a, a), n), islice(count(b, b), n), d, islice(repeat(c), n)

    def __repr__(self) -> str:
        return f"LinearMap({self.slope!r})"


class PiecewiseMap(MonotoneMap):
    """Linear between integer anchors t = 0, 1, .., with anchor(0) = 0.

    `anchor_values[i]` is the value at t = i+1.  Past the last stored
    anchor the map either keeps the final slope forever (unbounded image)
    or follows saturating anchors limit - s/(t+1) chosen to join the last
    stored anchor continuously, giving the open image (0, limit).
    """

    __slots__ = ("_pairs", "_limit", "_tail")

    def __init__(self, anchor_values: Sequence[Coercible],
                 saturation_limit: Optional[Coercible] = None) -> None:
        self._setup([_ratio(v, "anchor value") for v in anchor_values], saturation_limit)

    def _setup(self, pairs: list[tuple[int, int]], saturation_limit: Optional[Coercible]) -> PiecewiseMap:
        """Set up from the anchors p/q as pairs (p, q) in lowest terms, as `construct_phi` writes them."""
        if not pairs:
            raise EmptyWindow("a piecewise map needs at least one anchor")
        b, e = 0, 1
        for p, q in pairs:
            if p * e <= b * q:
                if p <= 0:
                    raise NotPositive(f"anchor values must be positive, got {_text(p, q)}")
                raise NotSorted(f"anchor values must be strictly increasing: {_text(p, q)} "
                                f"after {_text(b, e)}")
            b, e = p, q
        self._pairs = ((0, 1), *pairs)
        n, (a, d), (b, e) = len(pairs), pairs[-1], self._pairs[-2]
        self._limit = None if saturation_limit is None else _ratio(saturation_limit, "saturation limit")
        # Past n, anchor(j) = (u*j + v)/(x*j + y) for the ints _tail = (u, v, x, y).
        if self._limit is None:
            u = a * e - b * d  # a/d + s*(j - n) over d*e, for the last slope s = u/(d*e)
            self._tail = (u, a * e - u * n, 0, d * e)
        else:
            ln, lq = self._limit
            if ln * d <= a * lq:
                raise NotSorted(f"saturation limit {_text(ln, lq)} must exceed the last anchor {_text(a, d)}")
            # ln/lq - scale/(j+1) = (L*(j+1) - S)/(D*(j+1)) over D = d*lq, where
            # S = (L - a*lq)*(n+1) makes scale = S/D = (ln/lq - a/d)*(n+1) join anchor n.
            L, D = ln * d, lq * d
            self._tail = (L, L - (L - a * lq) * (n + 1), D, D)
        return self

    @property
    def values(self) -> tuple:
        from fractions import Fraction
        return tuple(starmap(Fraction, self._pairs[1:]))

    @property
    def limit(self):
        from fractions import Fraction
        return self._limit and Fraction(*self._limit)

    def _pair(self, j: int) -> tuple[int, int]:
        """(p, q) with anchor(j) = p/q and q > 0, for j >= 0; not in lowest terms."""
        if j < len(self._pairs):
            return self._pairs[j]
        u, v, x, y = self._tail
        return u * j + v, x * j + y

    def eval(self, t: Coercible) -> ExactNumber:
        p, q = _ratio(t, "evaluation point")
        if p <= 0:
            raise NonPositiveTime(f"time must be positive, got {_text(p, q)}")
        j = max(1, -(-p // q))
        (ln, ld), (hn, hd) = self._pair(j - 1), self._pair(j)
        # lo + (t - (j-1))*(hi - lo), for lo = ln/ld and hi = hn/hd, over ld*hd*q.
        return ExactNumber(ln * hd * q + (p - (j - 1) * q) * (hn * ld - ln * hd), 0, 0, ld * hd * q)

    def inverse_eval(self, y: Coercible) -> ExactNumber:
        p, q = _ratio(y, "image point")
        if p <= 0:
            raise OutsideImage(f"{_text(p, q)} is outside the image: not positive")
        if self._limit and p * self._limit[1] >= self._limit[0] * q:
            raise OutsideImage(f"{_text(p, q)} is outside the open image (0, {_text(*self._limit)})")
        a, d = self._pairs[-1]
        if p * d > a * q:
            # The smallest grid point j with anchor(j) >= w = p/q, then the linear run
            # into it: (u*j + v)/(x*j + y) >= w iff j*(u*q - p*x) >= p*y - v*q, and
            # u*q - p*x > 0 below the limit u/x; j > n since anchor(n) < w.
            u, v, x, y = self._tail
            j = -((v * q - p * y) // (u * q - p * x))
        else:  # the first anchor at least w, by the sign of anchor - w
            j = bisect_left(self._pairs, 0, key=lambda r: r[0] * q - p * r[1])
        (ln, ld), (hn, hd) = self._pair(j - 1), self._pair(j)
        # (j-1) + (w - lo)/(hi - lo), over q*W for the piece's width W/(ld*hd).
        W = hn * ld - ln * hd
        return ExactNumber((j - 1) * q * W + (p * ld - ln * q) * hd, 0, 0, q * W)

    def level_fields(self, shift: int, until: Optional[Coercible] = None) -> Iterator[tuple]:
        # On the piece [j-1, j], phi(t) + shift*t runs linearly from lo = ln/ld
        # to hi = hn/hd, width w/(ld*hd), and passes each integer k in (lo, hi]
        # once, at t = (j-1) + (k - lo)*ld*hd/w = ((j-1)*w + (k*ld - ln)*hd)/w:
        # one run per piece, its numerators a range of step ld*hd over w.
        end = None if until is None else ExactNumber.coerce(until)
        last = math.inf if end is None else end.floor() + 1  # the piece holding `until`
        # The crossings of a bounded image end at its limit u/x; x = 0 for an unbounded one.
        u, _, x, _ = self._tail
        ln, ld = 0, 1
        for j in count(1):
            first = ln // ld + 1
            if j > last or shift == 0 and first * x >= u:
                return
            hn, hd = self._pair(j)
            hn += shift * j * hd
            w = hn * ld - ln * hd
            # On the last piece, floor(lo + (end - (j-1))*w/(ld*hd)).
            top = hn // hd if j < last else (ln * hd - (j - 1) * w + end.floor(w)) // (ld * hd)
            m, step = max(0, top + 1 - first), ld * hd
            base = (j - 1) * w + first * step - ln * hd
            yield range(base, base + m * step, step), repeat(0, m), 0, repeat(w, m)
            ln, ld = hn, hd

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
        # At an integer n, phi(n) is the anchor p/q; q > 0, so it is an integer iff q divides p.
        p, q = phi._pair(n)
        if p % q == 0:
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
        # phi(n) is the anchor p/q at n, a crossing time is p/w, and
        # floor(t + n) = floor(t) + n.
        floors = starmap(floordiv, map(phi._pair, count(1)))
        s_y = list(takewhile(K.__ge__, map(add, floors, count(1))))
        floors = chain.from_iterable(map(floordiv, p, w) for p, _, _, w in phi.level_fields(0, K))
        s_x = list(takewhile(K.__ge__, map(add, floors, count(1))))
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

    def anchor_at(n: int, value: int) -> tuple[int, int]:
        return (value + 1) * (n + 1) - 1, n + 1  # value + 1 - 1/(n+1), in lowest terms

    anchors = [anchor_at(n, v) for n, v in enumerate(f.prefix, start=1)]

    if f.tail.kind == "constant":
        v = f.tail.value
        assert v is not None
        N = len(f.prefix)
        if N == 0 or f.prefix[-1] != v:
            # Joining anchor for index N+1; after it the saturating
            # continuation reproduces v + 1 - 1/(n+1) at every later n.
            anchors.append(anchor_at(N + 1, v))
        return object.__new__(PiecewiseMap)._setup(anchors, v + 1)

    if not anchors:
        raise EmptyWindow("cannot build a map from an empty prefix with unknown tail")
    return object.__new__(PiecewiseMap)._setup(anchors, None)


def induced_inverse(phi: MonotoneMap, K: int) -> NumberSequence:
    """Window [1, K] of g(n) = floor(phi^-1(n)), INF for n outside the image.

    phi^-1(n) is the crossing of level n, so one walk of `level_times(0)`
    gives the window.  The tail is infinite when a bounded image ends the
    walk inside the window, and unknown otherwise.
    """
    require_bound(K, "window bound")
    g = [t.floor() for _, t in islice(phi.level_times(0), K)]
    return NumberSequence(g, Tail.infinite() if len(g) < K else Tail.unknown())


def beatty_pair(lam: Coercible, K: int) -> tuple[IntSet, IntSet]:
    """Window [1, K] of {floor((1+lam)n)} and {floor((1+1/lam)n)}.

    No irrationality condition is imposed: rational slopes are legal and
    simply produce a pair that fails complementarity, which is the
    interesting failure case.
    """
    return corollary_sets(LinearMap(lam), K)
