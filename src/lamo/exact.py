"""Exact arithmetic on rationals and single-radicand quadratic irrationals.

A value denotes the real (a + b*sqrt(d)) / c with arbitrary-precision
integers, normalized so that c >= 1, gcd(a, b, c) = 1, d = 0 whenever the
value is rational, and d is not a perfect square otherwise.  The radicand is
kept as written, square factors included: sqrt(8) stays sqrt(8).

One radicand rule decides how irrationals meet: radicands d1 and d2 are
compatible iff d1*d2 is a perfect square s*s, and then
sqrt(d2) = s*sqrt(d1)/d1, so arithmetic and comparison rescale the operand
with the larger radicand onto the smaller one.  Incompatible irrationals are
never equal; combining or ordering them raises IncompatibleRadicands rather
than approximating.  Equal values hash equal whatever their representation,
and rationals hash like the equal int or Fraction.  Every comparison, sign
and floor is decided by integer arithmetic alone; no floating point is
consulted anywhere.

Two routes build no intermediate values.  `compare` takes the sign of the
numerator of x - y, (a1*c2 - a2*c1) + (b1*c2 - b2*c1)*sqrt(d), straight from
the fields, with the same sign rule as `sign`.  `floors` reads floor(scale*x)
for a column of values off the scaled fields, one isqrt each; `floor(scale)`
is its one-value call.  `multiple_floors` takes k = floor(n*x) for all
n <= N = floor((K+1)/x) in one shift pass.
For u = n*a - (k+1)*c and v = n*b, u*u - v*v*d is a non-zero integer and
|u - v*sqrt(d)| <= c + 2*n*|b|*sqrt(d), so n*x lies at least
1/(c*(c + 2*n*|b|*sqrt(d))) below k + 1.  With the smallest m such that
2^m > N*c*(c + 2*N*|b|*(isqrt(d) + 1)), and p = floor(x*2^m) + 1,
n*x < n*p/2^m <= n*x + n/2^m < k + 1, so k = (n*p) >> m: no isqrt and no
ExactNumber per term.

Results whose fields are already in range go through the internal
constructor `ExactNumber._new(a, b, d, c)`: it takes c >= 1 and a radicand
known to be non-square whenever b != 0, keeps the gcd reduction, and skips the
type checks and the perfect-square test of `ExactNumber(...)`.  Arithmetic
and the closed-form level times build through it.  `==` is `compare`'s
verdict, so sqrt(8) == 2*sqrt(2); values over incompatible radicands are
unequal.

An exact value is an ExactNumber, a Fraction or an int of type exactly `int`
(never a bool); `ExactNumber.coerce` converts one or raises TypeError.
"""

from __future__ import annotations

import math
import re
import sys
from bisect import bisect_right
from functools import total_ordering
from itertools import repeat
from operator import eq, floordiv, getitem, mod
from typing import Sequence, Union

from .errors import IncompatibleRadicands, ParseError, ZeroDenominator

Coercible = Union[int, "Fraction", "ExactNumber"]

def _sign(n: int) -> int:
    return (n > 0) - (n < 0)


def _numerator_sign(a: int, b: int, d: int) -> int:
    """Sign of a + b*sqrt(d), for d non-square whenever b != 0."""
    if b == 0:
        return _sign(a)
    if a == 0:
        return _sign(b)
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # Opposite signs: compare a*a against b*b*d after isolating the radical.
    k = a * a - b * b * d
    return _sign(k) if a > 0 else -_sign(k)


_SPLIT_RE = re.compile(r"\w\s+\w")
_RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:/([+-]?[0-9]+))?")
# "b*sqrt(d)", "a±b*sqrt(d)" or "(a±b*sqrt(d))", each with an optional "/c";
# `parse` refuses "(" without a, and a "/c" after a bare "a±b*sqrt(d)".
_RADICAL_RE = re.compile(
    r"(\()?(?:([+-]?[0-9]+)(?=[+-]))?([+-]?)(?:([0-9]+)\*)?sqrt\(([0-9]+)\)(?(1)\))(?:/([+-]?[0-9]+))?"
)


def _literal_templates(a: int, b: int, d: int) -> tuple[str, str]:
    """The `%` templates that write the literal of (a + b*sqrt(d))/c, in lowest
    terms, for c > 1 and for c = 1: from (a, c) for a rational (b = 0), and
    from (a, b, c) otherwise.  A "%.0s" takes its argument and writes nothing."""
    if not b:
        return "%d/%d", "%d%.0s"
    if a:
        body = f"(%d%+d*sqrt({d}))"
    elif b in (1, -1):
        body = f"%.0s{'-' if b < 0 else ''}%.0ssqrt({d})"
    else:
        body = f"%.0s%d*sqrt({d})"
    return body + "/%d", body + "%.0s"


def literals(A: Sequence[int], B: Sequence[int], d: int, C: Sequence[int]) -> list[str]:
    """The literal of each (A[i] + B[i]*sqrt(d))/C[i], C[i] >= 1, where A[i]
    and B[i] are each zero for every i or for none, as along one stream of
    level times: after the gcd, all but pure surds share one template pair."""
    a, b = (A[0], B[0]) if A else (0, 0)
    fields = [A, B, C] if b else [A, C]
    G = list(map(math.gcd, *fields))
    fields = [list(map(floordiv, X, G)) for X in fields]
    if b and not a:  # a pure surd, whose template turns on B[i] = +-1 too
        pairs = map(_literal_templates, fields[0], fields[1], repeat(d))
    else:
        pairs = repeat(_literal_templates(a, b, d))
    return list(map(mod, map(getitem, pairs, map(eq, fields[-1], repeat(1))), zip(*fields)))


def floors(A: Sequence[int], B: Sequence[int], d: int, C: Sequence[int], scale: int = 1) -> list[int]:
    """floor(scale*(A[i] + B[i]*sqrt(d))/C[i]) for each i, C[i] >= 1, where
    B[i]*scale keeps one sign s and each B[i]*sqrt(d) is zero or irrational:
    floor(s*sqrt(y)) is s*isqrt(y) - (s < 0) for a non-square y."""
    if not (d and B):
        return list(map(floordiv, map(scale.__mul__, A), C))
    s = _sign(B[0] * scale)
    q, e = d * scale * scale, -(s < 0)
    return [(a * scale + s * math.isqrt(b * b * q) + e) // c for a, b, c in zip(A, B, C)]


@total_ordering
class ExactNumber:
    """An exact real of the form (a + b*sqrt(d)) / c."""

    __slots__ = ("_a", "_b", "_c", "_d")

    def __init__(self, a: int, b: int = 0, d: int = 0, c: int = 1) -> None:
        for name, v in (("a", a), ("b", b), ("d", d), ("c", c)):
            if type(v) is not int:
                raise TypeError(f"field {name} must be an int, got {v!r}")
        if c == 0:
            raise ZeroDenominator("denominator c must be non-zero")
        if d < 0:
            raise ValueError("radicand d must be non-negative")
        if c < 0:
            a, b, c = -a, -b, -c
        if b == 0:
            d = 0
        elif d == 0:
            b = 0
        else:
            r = math.isqrt(d)
            if r * r == d:
                a, b, d = a + b * r, 0, 0
        g = math.gcd(math.gcd(abs(a), abs(b)), c)
        if g > 1:
            a, b, c = a // g, b // g, c // g
        self._a = a
        self._b = b
        self._c = c
        self._d = d

    @classmethod
    def _new(cls, a: int, b: int, d: int, c: int) -> ExactNumber:
        """(a + b*sqrt(d))/c for ints with c >= 1 and d non-square whenever b != 0.

        The caller vouches for the field types, the sign of c and the
        radicand; only the gcd reduction is done here.
        """
        g = math.gcd(a, b, c)
        if g > 1:
            a, b, c = a // g, b // g, c // g
        x = object.__new__(cls)
        x._a = a
        x._b = b
        x._c = c
        x._d = d if b else 0
        return x

    # -- field access ---------------------------------------------------

    @property
    def a(self) -> int:
        return self._a

    @property
    def b(self) -> int:
        return self._b

    @property
    def c(self) -> int:
        return self._c

    @property
    def d(self) -> int:
        return self._d

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_fraction(cls, q: Fraction) -> ExactNumber:
        return cls(q.numerator, 0, 0, q.denominator)

    @staticmethod
    def _coerce(x: object) -> ExactNumber | None:
        """`coerce` for the operators: None where `coerce` raises."""
        if isinstance(x, ExactNumber):
            return x
        if type(x) is int:
            return ExactNumber(x)
        # A Fraction exists only once `fractions` is loaded, which `coerce` never does.
        if isinstance(x, getattr(sys.modules.get("fractions"), "Fraction", ())):
            return ExactNumber.from_fraction(x)
        return None

    @staticmethod
    def coerce(x: object) -> ExactNumber:
        """x as an ExactNumber; TypeError when x is no exact value."""
        e = ExactNumber._coerce(x)
        if e is None:
            raise TypeError(f"expected an exact numeric value, got {x!r}")
        return e

    # -- predicates -----------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self._b == 0

    @property
    def is_zero(self) -> bool:
        return self._a == 0 and self._b == 0

    def is_integer(self) -> bool:
        """True iff the denoted real is an integer."""
        return self._b == 0 and self._a % self._c == 0

    def as_fraction(self) -> Fraction:
        if self._b != 0:
            raise ValueError(f"{self} is irrational")
        from fractions import Fraction
        return Fraction(self._a, self._c)

    # -- ordering -------------------------------------------------------

    def sign(self) -> int:
        # c > 0 never changes the sign of the numerator.
        return _numerator_sign(self._a, self._b, self._d)

    def compare(self, other: Coercible) -> int:
        """Exact three-way comparison: -1, 0 or 1."""
        o = other if isinstance(other, ExactNumber) else self._coerce(other)
        if o is None:
            raise TypeError(f"cannot compare ExactNumber with {other!r}")
        x, y, d = self._merged_radicand(o)
        # x - y has the numerator below over x.c*y.c > 0.
        return _numerator_sign(x._a * y._c - y._a * x._c, x._b * y._c - y._b * x._c, d)

    def __eq__(self, other: object) -> bool:
        o = other if isinstance(other, ExactNumber) else self._coerce(other)  # type: ignore
        if o is None:
            return NotImplemented
        try:
            return self.compare(o) == 0
        except IncompatibleRadicands:
            # sqrt(d1*d2) is irrational, so the two reals cannot be equal.
            return False

    def __lt__(self, other: Coercible) -> bool:
        o = other if isinstance(other, ExactNumber) else self._coerce(other)
        if o is None:
            return NotImplemented
        return self.compare(o) < 0

    def __hash__(self) -> int:
        # The rational part a/c, and the sign and square b*b*d/(c*c) of the
        # irrational part, do not depend on how the value is written.
        from fractions import Fraction
        a, b, c, d = self._a, self._b, self._c, self._d
        if b == 0:
            return hash(Fraction(a, c))
        return hash((Fraction(a, c), _sign(b), Fraction(b * b * d, c * c)))

    # -- arithmetic -----------------------------------------------------

    def _merged_radicand(self, other: ExactNumber) -> tuple[ExactNumber, ExactNumber, int]:
        """(x, y, d): self and other, both written over the one radicand d."""
        d1, d2 = self._d, other._d
        if self._b == 0 or other._b == 0 or d1 == d2:
            return self, other, d1 or d2
        s = math.isqrt(d1 * d2)
        if s * s != d1 * d2:
            raise IncompatibleRadicands(f"cannot combine sqrt({d1}) with sqrt({d2})")
        # sqrt(d2) = s*sqrt(d1)/d1: rescale the larger radicand onto the smaller.
        if d1 < d2:
            return self, ExactNumber._new(other._a * d1, other._b * s, d1, other._c * d1), d1
        return ExactNumber._new(self._a * d2, self._b * s, d2, self._c * d2), other, d2

    def __add__(self, other: Coercible) -> ExactNumber:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        x, y, d = self._merged_radicand(o)
        return ExactNumber._new(
            x._a * y._c + y._a * x._c, x._b * y._c + y._b * x._c, d, x._c * y._c
        )

    __radd__ = __add__

    def __neg__(self) -> ExactNumber:
        return ExactNumber._new(-self._a, -self._b, self._d, self._c)

    def __sub__(self, other: Coercible) -> ExactNumber:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.__add__(-o)

    def __rsub__(self, other: Coercible) -> ExactNumber:
        return (-self).__add__(other)

    def __mul__(self, other: Coercible) -> ExactNumber:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        x, y, d = self._merged_radicand(o)
        return ExactNumber._new(
            x._a * y._a + x._b * y._b * d, x._a * y._b + x._b * y._a, d, x._c * y._c
        )

    __rmul__ = __mul__

    def reciprocal(self) -> ExactNumber:
        if self.is_zero:
            raise ZeroDivisionError("reciprocal of zero")
        # 1 / ((a + b*sqrt(d))/c) = c*(a - b*sqrt(d)) / (a*a - b*b*d); the
        # conjugate norm is non-zero because d is non-square whenever b != 0.
        norm = self._a * self._a - self._b * self._b * self._d
        c = -self._c if norm < 0 else self._c
        return ExactNumber._new(c * self._a, -c * self._b, self._d, abs(norm))

    def __truediv__(self, other: Coercible) -> ExactNumber:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.__mul__(o.reciprocal())

    def __rtruediv__(self, other: Coercible) -> ExactNumber:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__mul__(self.reciprocal())

    def __abs__(self) -> ExactNumber:
        return -self if self.sign() < 0 else self

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- floor ----------------------------------------------------------

    def floor(self, scale: int = 1) -> int:
        """The unique integer n with n <= scale*x < n+1, for an int scale."""
        return floors((self._a,), (self._b,), self._d, (self._c,), scale)[0]

    def multiple_floors(self, K: int) -> list[int]:
        """[floor(x), floor(2x), ..] up to the last value <= K, for x > 0.

        Term n is (n*p) >> m (module docstring).  A rational x can reach K+1
        exactly at n = N = floor((K+1)/x); that term is cut.
        """
        if self.sign() <= 0:
            raise ValueError(f"multiple floors need a positive value, got {self}")
        N = self.reciprocal().floor(K + 1)
        if N < 1:
            return []
        c = self._c
        m = (N * c * (c + 2 * N * abs(self._b) * (math.isqrt(self._d) + 1))).bit_length()
        p = self.floor(1 << m) + 1
        out = [v >> m for v in range(p, (N + 1) * p, p)]
        del out[bisect_right(out, K):]
        return out

    # -- text form --------------------------------------------------------

    def literal(self) -> str:
        """Canonical literal, parseable by :meth:`parse`."""
        a, b, c = self._a, self._b, self._c
        return _literal_templates(a, b, self._d)[c == 1] % ((a, b, c) if b else (a, c))

    @classmethod
    def parse(cls, text: str) -> ExactNumber:
        """Parse a literal such as ``7``, ``3/2``, ``sqrt(5)`` or
        ``( -1 + sqrt(5) ) / 2``.  Whitespace, spaces and tabs alike, may
        separate tokens but never splits a number or a name (``1 2`` and
        ``sq rt(2)`` are rejected).  Digits are ASCII ``0-9``; decimal
        literals are rejected."""
        if _SPLIT_RE.search(text):
            raise ParseError(f"whitespace between two digits or letters: {text!r}")
        s = "".join(text.replace("−", "-").split())
        if not s:
            raise ParseError("empty numeric literal")
        if "." in s:
            raise ParseError(f"decimal literals are not accepted: {text!r}")
        try:
            m = _RATIONAL_RE.fullmatch(s)
            if m:
                return cls(int(m[1]), 0, 0, int(m[2] or 1))
            m = _RADICAL_RE.fullmatch(s)
            if m:
                paren, a, sgn, coef, rad, den = m.groups()
                if a if paren else not (a and den):
                    b = (-1 if sgn == "-" else 1) * int(coef or 1)
                    return cls(int(a or 0), b, int(rad), int(den or 1))
        except ValueError as e:
            # int() refuses more digits than the interpreter's string limit.
            raise ParseError(f"cannot parse exact literal: {e}") from None
        raise ParseError(f"cannot parse exact literal: {text!r}")

    def __str__(self) -> str:
        return self.literal()

    def __repr__(self) -> str:
        return f"ExactNumber({self._a}, {self._b}, {self._d}, {self._c})"
