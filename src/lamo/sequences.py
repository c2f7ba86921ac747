"""Non-decreasing sequences over the extended naturals and their inverses.

A sequence is stored as a finite prefix (1-indexed) plus a tail descriptor
saying what happens after the prefix: nothing known, constant forever, or
infinite forever.  Every operation states the exact window on which its
answer is a theorem about the full infinite object; outside that window it
raises instead of guessing.

The central operation is `invert`, the counting inverse
g(n) = |{m : f(m) < n}|, together with the hat map n -> n + f(n) and the
complementarity check on the induced integer sets.  The window check
`grid_witness` rests on the same count: by the Lambek-Moser theorem,
exactly one of f(m) < n, g(n) < m holds for every pair iff g is the
counting inverse of f, so each row compares f(m) with a count of g.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import chain, count, repeat
from operator import attrgetter, countOf, eq, is_, mul, sub
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .errors import (
    EmptyWindow,
    HorizonExceeded,
    NotNonDecreasing,
    NotPositive,
    NotSorted,
)

INF = math.inf

# A sequence value: a non-negative int, or INF.
ExtNat = Union[int, float]


def is_extnat(v: object) -> bool:
    return v is INF or (type(v) is int and v >= 0)


def require_bound(v: object, what: str, least: int = 1) -> None:
    """NotPositive unless v is an int (of type exactly `int`, so never a bool)
    >= least: 1 for a window bound or an index, 0 for a horizon."""
    if type(v) is not int or v < least:
        kind = "a positive" if least else "a non-negative"
        raise NotPositive(f"{what} must be {kind} integer, got {v!r}")


class _Record:
    """An immutable value whose fields are its `__slots__` (two or more), set once by the
    constructor: equal and hashed by class and field values; its repr names each field."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._values = property(attrgetter(*cls.__slots__))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return self.__class__, self._values

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"field {name!r} is read-only")

    __delattr__ = __setattr__


class Tail(_Record):
    """What a sequence does beyond its stored prefix."""

    __slots__ = ("kind", "value")  # "unknown" | "constant" | "infinite"; an int for "constant"

    def __init__(self, kind: str, value: Optional[int] = None) -> None:
        if kind not in ("unknown", "constant", "infinite"):
            raise ValueError(f"unknown tail kind {kind!r}")
        if kind == "constant":
            if type(value) is not int or value < 0:
                raise ValueError(f"constant tail needs a non-negative integer value, got {value!r}")
        elif value is not None:
            raise ValueError(f"{kind} tail carries no value, got {value!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "value", value)

    @classmethod
    def unknown(cls) -> Tail:
        return cls("unknown")

    @classmethod
    def constant(cls, v: int) -> Tail:
        return cls("constant", v)

    @classmethod
    def infinite(cls) -> Tail:
        return cls("infinite")

    def __str__(self) -> str:
        if self.kind == "constant":
            return f"constant {self.value}"
        return self.kind


def sequence_fault(entries: Sequence, tail: Optional[Tail]) -> Optional[tuple[int, Exception]]:
    """Where and why `NumberSequence` rejects entries and tail, located once
    its check has failed: (i, error) for the first entry i that is no ExtNat,
    else the first below the one before it, else (len(entries), error) for a
    last entry above a constant tail; None for none (of the entries alone
    when `tail` is None)."""
    for i, v in enumerate(entries):
        if not is_extnat(v):
            return i, ValueError(f"sequence entry must be a non-negative int or inf: {v!r}")
    for i, (u, v) in enumerate(zip(entries, entries[1:]), start=1):
        if v < u:
            return i, NotNonDecreasing(f"term {i + 1} ({v}) is below term {i} ({u})")
    if tail is not None and tail.kind == "constant":
        n, c = len(entries), tail.value
        if n and entries[-1] > c:
            return n, NotNonDecreasing(f"term {n} ({entries[-1]}) exceeds the constant tail {c}")
    return None


class NumberSequence:
    """Finite prefix of a non-decreasing sequence over ExtNat, plus a tail descriptor.

    Construction enforces the type's one rule, which every operation then
    trusts: each entry is a non-negative int or inf, at least the one before
    it, and at most a constant tail.  An unknown tail after a prefix ending
    in inf is recorded as infinite, since that inf forces every later value.
    Equality is semantic: two values compare equal when they denote the same
    total function, e.g. a prefix ending in the constant-tail value equals
    the shorter prefix.
    """

    __slots__ = ("_prefix", "_tail")

    def __init__(self, prefix: Iterable[ExtNat], tail: Tail) -> None:
        entries = tuple(prefix)
        if not isinstance(tail, Tail):
            raise TypeError("tail must be a Tail")
        # Each entry of type exactly `int` or INF, in C-level passes: count the `int` entries,
        # then, if that falls short, INF in the rest, as INF (the largest) ends a valid prefix.
        n = len(entries)
        ints = countOf(map(type, entries), int)
        if ints < n and countOf(map(is_, entries[ints:], repeat(INF)), True) < n - ints:
            raise sequence_fault(entries, tail)[1]
        # Then each at least the one before it, from 0 on, so none is negative.
        last: ExtNat = 0
        for v in entries:
            if v < last:
                raise sequence_fault(entries, tail)[1]
            last = v
        if tail.kind == "constant" and last > tail.value:
            raise sequence_fault(entries, tail)[1]
        if tail.kind == "unknown" and last is INF:
            tail = Tail.infinite()
        self._prefix = entries
        self._tail = tail

    @property
    def prefix(self) -> tuple[ExtNat, ...]:
        return self._prefix

    @property
    def tail(self) -> Tail:
        return self._tail

    def __len__(self) -> int:
        return len(self._prefix)

    # -- semantics --------------------------------------------------------

    def determined_horizon(self) -> ExtNat:
        """Largest index n for which value_at(n) is answerable (INF if all)."""
        return len(self._prefix) if self._tail.kind == "unknown" else INF

    def value_at(self, n: int) -> ExtNat:
        """f(n) for 1-indexed n, or HorizonExceeded past the known window."""
        require_bound(n, "sequence index")
        if n <= len(self._prefix):
            return self._prefix[n - 1]
        t = self._tail
        if t.kind == "constant":
            return t.value  # type: ignore[return-value]
        if t.kind == "infinite":
            return INF
        raise HorizonExceeded(f"value at index {n} is outside the known prefix of length {len(self._prefix)}")

    def values(self, n: int) -> tuple[ExtNat, ...]:
        """(f(1), .., f(n)) for an int n >= 0; HorizonExceeded as `value_at`."""
        head = self._prefix[:n]
        if n > len(head):
            head += (self.value_at(len(head) + 1),) * (n - len(head))
        return head

    def window(self, n: Optional[int]) -> NumberSequence:
        """The first n terms (all if n is None), or as many as are known; the
        tail stays unless a known term is cut off, and is unknown if one is."""
        if n is None:
            return self
        require_bound(n, "sequence window", least=0)
        k = len(self._prefix)
        shown = n if self.determined_horizon() is INF else min(n, k)
        if shown == k:
            return self
        return NumberSequence(self.values(shown), self._tail if shown > k else Tail.unknown())

    def _canonical(self) -> tuple[tuple[ExtNat, ...], Tail]:
        # The prefix without its last run, which a constant or infinite tail repeats.
        t, p = self._tail, self._prefix
        if t.kind != "unknown":
            p = p[: bisect_left(p, INF if t.kind == "infinite" else t.value)]
        return p, t

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NumberSequence):
            return NotImplemented
        return self._canonical() == other._canonical()

    def __hash__(self) -> int:
        return hash(self._canonical())

    def __repr__(self) -> str:
        return f"NumberSequence({self._prefix!r}, {self._tail!r})"


class IntSet(_Record):
    """Strictly increasing positive integers with a membership horizon.

    `horizon` = K means membership of every integer in [1, K] is fully
    determined by `elements`; nothing is claimed beyond K.
    """

    __slots__ = ("elements", "horizon")

    def __init__(self, elements: Iterable[int], horizon: int) -> None:
        object.__setattr__(self, "elements", tuple(elements))
        prev = 0
        for e in self.elements:
            if type(e) is not int or e <= prev:  # from prev = 0, also every int below 1
                if type(e) is not int or e < 1:
                    raise NotPositive(f"set element must be a positive integer: {e!r}")
                raise NotSorted(f"set elements must be strictly increasing: {e} after {prev}")
            prev = e
        require_bound(horizon, "horizon", least=0)
        if prev > horizon:
            raise HorizonExceeded(f"element {prev} lies beyond the horizon {horizon}")
        object.__setattr__(self, "horizon", horizon)

    def __str__(self) -> str:
        return f"{{{(', %d' * len(self.elements) % self.elements)[2:]}}} horizon {self.horizon}"


class Verdict(NamedTuple):
    """Outcome of a complementarity check on [1, K]."""

    kind: str  # "partition" | "overlap" | "gap"
    witness: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.kind == "partition"

    def __str__(self) -> str:
        if self.kind == "partition":
            return "partition"
        return f"{self.kind}({self.witness})"


def inverse_horizon(f: NumberSequence) -> ExtNat:
    """Largest n for which g(n) of `invert(f)` is answerable (INF if all)."""
    if f.tail.kind != "unknown":
        return INF
    return f.prefix[-1] if f.prefix else 0


def invert(f: NumberSequence, upto: Optional[int] = None) -> NumberSequence:
    """Counting inverse g(n) = |{m : f(m) < n}|, or its `window(upto)`.

    g is built run by run, with no search per term: g(n) = i exactly for
    f(i) < n <= f(i+1) (reading f(0) as 0), so the value i repeats
    f(i+1) - f(i) times, and the last finite index N holds from f(N) + 1 to
    the top of the window.

    The output encodes its own exactness window: a constant input tail
    yields a fully determined g (infinite tail), an infinite input tail
    yields a fully determined g (constant tail), and an unknown input tail
    yields g known exactly for n up to the last prefix value.  A window
    builds only its terms, since g(n) for n <= upto counts only f(m) < upto.
    """
    # The INF entries, if any, end the prefix.
    run = f.prefix[: bisect_left(f.prefix, INF)]
    t = f.tail
    if t.kind == "infinite":
        top, tail = (run[-1] if run else 0), Tail.constant(len(run))
    elif t.kind == "constant":
        top, tail = t.value, Tail.infinite()
    elif not run:
        raise EmptyWindow("cannot invert an empty prefix with unknown tail")
    elif run[-1] == 0:
        raise EmptyWindow("inverse of an all-zero known prefix has an empty exact window")
    else:
        # Unknown tail: exact exactly for n <= f(N).
        top, tail = run[-1], Tail.unknown()
    pad = ()
    if upto is not None:
        require_bound(upto, "inverse window", least=0)
        if upto < top:
            run, top, tail = run[: bisect_left(run, upto)], upto, Tail.unknown()
        elif tail.kind != "unknown":  # the window goes on with the tail's value
            pad = (INF if tail.kind == "infinite" else len(run),) * (upto - top)
    # The run of i is the tuple (i,) times f(i+1) - f(i), over the bounds
    # f(0) = 0, f(1), .., f(N), top.
    bounds = (0, *run, top)
    runs = map(mul, zip(range(len(run) + 1)), map(sub, bounds[1:], bounds))
    return NumberSequence(chain(chain.from_iterable(runs), pad), tail)


def grid_witness(
    f: NumberSequence, g: NumberSequence, M: int, N: int
) -> Optional[tuple[int, int, str]]:
    """First (m, n) in the M x N window violating the exactly-one condition.

    Returns None when every pair satisfies exactly one of f(m) < n,
    g(n) < m; otherwise (m, n, "both" | "neither"), the first in m-major
    order.  g is non-decreasing, so in row m the n with g(n) < m are
    1..p for p = #{n <= N : g(n) < m}, and the n with f(m) < n are q+1..N
    for q = min(f(m), N).  The row is clean iff p == q; otherwise both
    hold first at n = q+1 (p > q) or neither at n = p+1 (p < q).
    """
    require_bound(M, "window dimension M")
    require_bound(N, "window dimension N")
    fv, gv = f.values(M), g.values(N)
    for m, fm in enumerate(fv, start=1):
        p, q = bisect_left(gv, m), min(fm, N)
        if p != q:
            return (m, q + 1, "both") if p > q else (m, p + 1, "neither")
    return None


def hat_horizon(f: NumberSequence) -> ExtNat:
    """Largest K for which hat(f, K) is answerable: N + f(N) for a prefix of
    length N, the prefix's horizon plus the inverse's (INF if all)."""
    n = f.determined_horizon()
    return n if n is INF else n + inverse_horizon(f)


def hat(f: NumberSequence, K: int) -> IntSet:
    """The set {n + f(n) : f(n) finite} restricted to [1, K].

    Strict monotonicity of n + f(n) makes the elements distinct.  For an
    unknown tail the request must satisfy K <= N + f(N), since indices past
    the prefix could contribute values as small as N + 1 + f(N).
    """
    require_bound(K, "hat window bound")
    if K > hat_horizon(f):
        raise HorizonExceeded(
            f"hat window {K} exceeds the guaranteed horizon {hat_horizon(f)}"
        )
    run = f.prefix[: bisect_left(f.prefix, INF)]
    # n + f(n) increases strictly, so only n <= K can give n + f(n) <= K.
    elems = [n + v for n, v in enumerate(run[:K], start=1)]
    del elems[bisect_right(elems, K):]
    if f.tail.kind == "constant":
        elems.extend(range(len(f.prefix) + 1 + f.tail.value, K + 1))
    return IntSet(tuple(elems), K)


def from_set(S: IntSet, complete: bool) -> NumberSequence:
    """Sequence f with hat(f) = S, via f(n) = s_n - n.

    `complete` asserts S lists every element of the underlying set, making
    f eventually infinite; otherwise S is a window in [1, horizon] and the
    tail is unknown.
    """
    vals = [e - n for n, e in enumerate(S.elements, start=1)]
    if complete:
        return NumberSequence(vals, Tail.infinite())
    return NumberSequence(vals, Tail.unknown())


def check_complementary(A: IntSet, B: IntSet, K: int) -> Verdict:
    """Do A and B tile [1, K] with no overlap and no gap?

    On failure the witness is the smallest doubly covered integer when an
    overlap exists anywhere in the window, and the smallest uncovered
    integer otherwise: an overlap is where the two generated streams
    actually collide, so it outranks a skipped value in the report.
    """
    require_bound(K, "window bound")
    if A.horizon < K or B.horizon < K:
        raise HorizonExceeded(
            f"window {K} exceeds a set horizon ({A.horizon}, {B.horizon})"
        )
    a = A.elements[: bisect_right(A.elements, K)]
    b = B.elements[: bisect_right(B.elements, K)]
    overlap = min(set(a).intersection(b), default=None)
    if overlap is not None:
        return Verdict("overlap", overlap)
    if len(a) + len(b) == K:  # disjoint in [1, K], they fill it
        return Verdict("partition")
    # Disjoint and each increasing from 1 on, the merged elements equal
    # 1, 2, .. up to their first gap and differ from there: count the equal.
    return Verdict("gap", countOf(map(eq, sorted(a + b), count(1)), True) + 1)


def classify(f: NumberSequence) -> str:
    """Coarse shape of the sequence, as far as the tail makes decidable.

    "bounded" and "eventually_infinite" are statements about the full
    sequence; "all_finite_unbounded_window" only reports what the known
    prefix shows and claims nothing beyond it.
    """
    t = f.tail
    if t.kind == "constant":
        return "bounded"
    if t.kind == "infinite":
        return "eventually_infinite"
    return "all_finite_unbounded_window"
