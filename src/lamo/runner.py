"""Event-level simulation of two opposite runners on the unit circle.

Runner Y moves as t, runner X as phi(t), in opposite directions, both
starting at the origin point.  Y passes the origin at integer times, X
whenever phi(t) is a positive integer, and the pair meet whenever
phi(t) + t is a positive integer.  The Y stream is the integers up to the
horizon; the X and meeting streams are the level times of phi(t) + shift*t
for shift 0 and 1, which `MonotoneMap.level_times` yields in closed form
(k/(lambda+shift) for a linear map, one solve per linear piece for a
piecewise map).

The log is built in C-level passes.  Each time t is keyed
(floor(t*2^16), t, kind), with the integer prefix from the kernel's floor
rule; one `list.sort` merges the three ascending runs; neighbouring items
with equal prefixes, and only those, have their times compared exactly,
and equal times mark a time shared by streams; the counts are the running
sums of the meeting flags; and each time becomes one `Event`, stamped with
the number of meetings up to it, a meeting counting itself.  The prefix is
monotone in t, so the keys order exactly as the times do, and only times
within 2^-16 of each other reach the exact comparison.  At 2^16 the
`isqrt` inside the floor of a time with small fields takes an argument
below 2^64, the one-word case of `math.isqrt`; at 2^32 it went past.  The
prefixes are taken one floor per time, not by the shift pass of
`ExactNumber.multiple_floors`: that pass yields the map route's Beatty
sets, which the simulator is there to check.

A time shared by streams is a meeting exactly at the origin, recorded as
a single collision event that voids any partition claim for the log.  Any
two of t, phi(t) and phi(t) + t being integers forces the third, so a
collision holds one item of each stream, one meeting among them.

The counts come from the merge alone, never from the formula
floor(phi(t) + t) or the set formulas in `continuous`, so the routes stay
independent: they are compared against each other in the tests, not
derived from one another.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import eq, itemgetter, not_
from typing import Iterable, NamedTuple

from .errors import CollisionPresent, NonPositiveTime
from .exact import Coercible, ExactNumber
from .continuous import MonotoneMap
from .sequences import IntSet

Y_CROSSING = "y_crosses_origin"
X_CROSSING = "x_crosses_origin"
MEETING = "meeting"
COLLISION = "collision"

# Times are merged on floor(t * 2^16) first, and their exact values compared
# only where those prefixes tie; see the module docstring.
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


def _keyed(walk: Iterable[tuple[int, ExactNumber]], kind: str) -> Iterable[tuple]:
    times = list(map(itemgetter(1), walk))
    return zip(map(ExactNumber.floor, times, repeat(_SCALE)), times, repeat(kind))


def simulate(phi: MonotoneMap, T: Coercible) -> EventLog:
    """Exact event log of both crossings and all meetings up to time T."""
    horizon = ExactNumber.coerce(T)
    if horizon.sign() <= 0:
        raise NonPositiveTime(f"simulation horizon must be positive, got {horizon}")
    n = horizon.floor()
    ys = map(ExactNumber._new, range(1, n + 1), repeat(0), repeat(0), repeat(1))
    items = [
        *zip(range(_SCALE, (n + 1) * _SCALE, _SCALE), ys, repeat(Y_CROSSING)),
        *_keyed(phi.level_times(0, horizon), X_CROSSING),
        *_keyed(phi.level_times(1, horizon), MEETING),
    ]
    items.sort()
    # shared[i]: items i and i+1 are at one time; only equal prefixes can be.
    keys = list(map(itemgetter(0), items))
    shared = list(map(eq, keys, islice(keys, 1, None)))
    for i in compress(count(), shared):
        shared[i] = items[i][1] == items[i + 1][1]
    kinds = list(map(itemgetter(2), items))
    counts = list(accumulate(map(eq, kinds, repeat(MEETING)), initial=0))
    for i in compress(count(1), shared):
        kinds[i] = COLLISION
    # One event per time, at the last of its items.
    last = chain(map(not_, shared), (True,))
    rows = compress(zip(map(itemgetter(1), items), kinds, islice(counts, 1, None)), last)
    return EventLog(tuple(map(tuple.__new__, repeat(Event), rows)), horizon)


def recorded_sets(log: EventLog) -> tuple[IntSet, IntSet]:
    """(S_X, S_Y): the positive meeting counts written down at each crossing.

    The membership of a count c is settled by the single crossing that
    falls between meeting c and meeting c+1, so the horizon is the largest
    count any crossing in the log recorded.

    The log's counts must never fall from one event to the next, as in
    every log `simulate` makes: the counts below 1 are then a prefix, and
    each set's last element is its largest.  A log whose counts fall gives
    other sets and horizon.
    """
    kinds = list(map(itemgetter(1), log.events))
    if COLLISION in kinds:
        raise CollisionPresent(f"meeting at the origin at t={log.collisions()[0].time}; recorded sets are void")
    counts = list(map(itemgetter(2), log.events))
    i = bisect_left(counts, 1)  # counts never fall, so those below 1 are a prefix
    xs = tuple(compress(counts[i:], map(eq, kinds[i:], repeat(X_CROSSING))))
    ys = tuple(compress(counts[i:], map(eq, kinds[i:], repeat(Y_CROSSING))))
    horizon = max(xs[-1:] + ys[-1:], default=0)
    return IntSet(xs, horizon), IntSet(ys, horizon)
