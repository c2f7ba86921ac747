"""Event-level simulation of two opposite runners on the unit circle.

Runner Y moves as t, runner X as phi(t), in opposite directions, both
starting at the origin point.  Y passes the origin at integer times, X
whenever phi(t) is a positive integer, and the pair meet whenever
phi(t) + t is a positive integer.  The Y stream is the integers up to the
horizon; the X and meeting streams are the level times of phi(t) + shift*t
for shift 0 and 1, which `MonotoneMap.level_fields` gives in closed form as
integer columns, time i being (A[i] + B[i]*sqrt(d))/C[i].

`event_columns`, the one core, merges the streams in C-level passes over
those columns.  Each time is keyed floor(t*2^16) by `exact.floors`, one call
per stream; one stable sort by key merges the three ascending streams; the
counts are the running sums of the meeting flags; and each time becomes one
event, stamped with the number of meetings up to it, a meeting counting
itself.  The key is monotone in t, so keys order as times do, and only a run
of items that share a key, of any length, is ordered by building an
`ExactNumber` per item; equal times there mark a time shared by streams.
The event times are written per stream as the caller asks: literals for
`lamo simulate`, an `ExactNumber` each only for the library's `simulate`.
The keys are one floor per time, not the shift pass of `multiple_floors`,
which yields the map route's Beatty sets that the simulator is there to
check; at 2^16 a time with small fields keeps its square root in one word.

A time shared by streams is a meeting exactly at the origin, recorded as
a single collision event that voids any partition claim for the log.  Any
two of t, phi(t) and phi(t) + t being integers forces the third, so a
collision holds one item of each stream, one meeting among them.  The
counts come from the merge alone, never from the formula floor(phi(t) + t)
or the set formulas in `continuous`, so the routes stay independent: they
are compared against each other in the tests, not derived from one another.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate, chain, compress, count, groupby, islice, repeat, starmap
from operator import eq, itemgetter, not_
from typing import Any, Callable, Iterable, NamedTuple, Union

from .errors import CollisionPresent, NonPositiveTime
from .exact import Coercible, ExactNumber, floors
from .continuous import LinearMap, MonotoneMap
from .sequences import IntSet

Y_CROSSING = "y_crosses_origin"
X_CROSSING = "x_crosses_origin"
MEETING = "meeting"
COLLISION = "collision"

# Times are merged on floor(t * 2^16) first, and their exact values compared
# only where those keys tie; see the module docstring.
_SCALE = 2**16


class Event(NamedTuple):
    time: ExactNumber
    kind: str
    count: int


class EventLog(NamedTuple):
    events: tuple[Event, ...]
    horizon_time: ExactNumber

    def collisions(self) -> tuple[Event, ...]:
        return tuple(e for e in self.events if e.kind == COLLISION)

    # The columns of an `EventColumns`, which `recorded_sets` and `formats` read.
    times = property(lambda self: list(map(itemgetter(0), self.events)))
    kinds = property(lambda self: list(map(itemgetter(1), self.events)))
    counts = property(lambda self: list(map(itemgetter(2), self.events)))


class EventColumns(NamedTuple):
    times: list[Any]  # as the caller of `event_columns` writes them
    kinds: list[str]
    counts: list[int]


def _stream(runs: Iterable[tuple]) -> tuple:
    """The runs of `level_fields` joined into one stream (A, B, d, C)."""
    runs = list(runs)
    A, B, C = ([*chain.from_iterable(run[i] for run in runs)] for i in (0, 1, 3))
    return A, B, runs[0][2] if runs else 0, C


def _time_at(streams: Iterable[tuple], p: int) -> ExactNumber:
    """The time with index p in the streams laid end to end."""
    for A, B, d, C in streams:
        if p < len(A):
            return ExactNumber._new(A[p], B[p], d, C[p])
        p -= len(A)


def event_columns(phi: MonotoneMap, T: Coercible, write: Callable[..., Iterable]) -> EventColumns:
    """The events of both crossings and all meetings up to time T, each time
    written as write(A, B, d, C) writes the times of its stream, in order."""
    horizon = ExactNumber.coerce(T)
    if horizon.sign() <= 0:
        raise NonPositiveTime(f"simulation horizon must be positive, got {horizon}")
    # Y moves as t: its crossings are the level times of the identity map.
    maps = ((phi, 1), (phi, 0), (LinearMap(1), 0))
    streams = [_stream(m.level_fields(shift, horizon)) for m, shift in maps]
    keys = list(chain.from_iterable(floors(*stream, _SCALE) for stream in streams))
    # Stable: the items of one key stay in stream order, then in time order.
    order = sorted(range(len(keys)), key=keys.__getitem__)
    keys = list(map(keys.__getitem__, order))
    # shared[i]: items i and i+1 are at one time; only equal keys can be.
    shared = list(map(eq, keys, islice(keys, 1, None)))
    # Items lo..hi-1 share a key where lo..hi-2 is a run of consecutive
    # indices i in `shared`, which keep the difference i - (their place).
    runs = groupby(compress(count(), shared), lambda i, place=count(): i - next(place))
    for _, (lo, *rest) in runs:
        hi = lo + 2 + len(rest)
        exact, order[lo:hi] = zip(*sorted((_time_at(streams, p), p) for p in order[lo:hi]))
        shared[lo:hi - 1] = map(eq, exact, exact[1:])
    meets, xs, ys = (len(A) for A, _, _, _ in streams)
    kinds = [MEETING] * meets + [X_CROSSING] * xs + [Y_CROSSING] * ys
    kinds = list(map(kinds.__getitem__, order))
    counts = list(accumulate(map(eq, kinds, repeat(MEETING)), initial=0))
    for i in compress(count(1), shared):
        kinds[i] = COLLISION
    # One event per time, at the last of its items.
    last = list(chain(map(not_, shared), (True,)))
    written = list(chain.from_iterable(starmap(write, streams)))
    return EventColumns(list(map(written.__getitem__, compress(order, last))),
                        list(compress(kinds, last)), list(compress(islice(counts, 1, None), last)))


def simulate(phi: MonotoneMap, T: Coercible) -> EventLog:
    """Exact event log of both crossings and all meetings up to time T."""
    horizon = ExactNumber.coerce(T)
    log = event_columns(phi, horizon, lambda A, B, d, C: map(ExactNumber._new, A, B, repeat(d), C))
    return EventLog(tuple(map(tuple.__new__, repeat(Event), zip(*log))), horizon)


def recorded_sets(log: Union[EventLog, EventColumns]) -> tuple[IntSet, IntSet]:
    """(S_X, S_Y): the positive meeting counts written down at each crossing.

    The membership of a count c is settled by the single crossing that
    falls between meeting c and meeting c+1, so the horizon is the largest
    count any crossing in the log recorded.

    The log's counts must never fall from one event to the next, as in
    every log `simulate` makes: the counts below 1 are then a prefix, and
    each set's last element is its largest.  A log whose counts fall gives
    other sets and horizon.
    """
    kinds, counts = log.kinds, log.counts
    if COLLISION in kinds:
        t = log.times[kinds.index(COLLISION)]
        raise CollisionPresent(f"meeting at the origin at t={t}; recorded sets are void")
    i = bisect_left(counts, 1)  # counts never fall, so those below 1 are a prefix
    xs = tuple(compress(counts[i:], map(eq, kinds[i:], repeat(X_CROSSING))))
    ys = tuple(compress(counts[i:], map(eq, kinds[i:], repeat(Y_CROSSING))))
    horizon = max(xs[-1:] + ys[-1:], default=0)
    return IntSet(xs, horizon), IntSet(ys, horizon)
