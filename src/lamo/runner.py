"""Event-level simulation of two opposite runners on the unit circle.

Runner Y moves as t, runner X as phi(t), in opposite directions, both
starting at the origin point.  Y passes the origin at integer times, X
whenever phi(t) is a positive integer, and the pair meet whenever
phi(t) + t is a positive integer.  The Y stream is the integers up to the
horizon; the X and meeting streams are the level times of phi(t) + shift*t
for shift 0 and 1, which `MonotoneMap.level_times` yields in closed form
(k/(lambda+shift) for a linear map, one solve per linear piece for a
piecewise map).  `heapq.merge` puts the three streams in exact time order,
`itertools.groupby` gathers equal times, and each event is stamped with the
number of meetings merged so far, a meeting counting itself.  A time shared
by more than one stream is a meeting exactly at the origin and is recorded
as a single collision event, which voids any partition claim for the log.

Both the merge and the grouping key each time t by the pair
(floor(t*2^32), t), with the integer prefix from the kernel's floor rule.
The prefix is monotone in t, so the pairs order exactly as the times do:
an integer comparison decides every two times that differ by 2^-32 or
more, and only times that share a prefix reach the exact comparison of
the second field.  Equal times share their prefix, so grouping by the pair
still gathers exactly the equal times, and collisions are found as before.
The merge compares whole (prefix, t, kind) items; two of them agree in
prefix and time only at a collision, where the kind breaks the tie inside
a group that becomes one event anyway.

The counts come from the merge alone, never from the formula
floor(phi(t) + t) or the set formulas in `continuous`, so the routes stay
independent: they are compared against each other in the tests, not
derived from one another.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple

from .errors import CollisionPresent, NonPositiveTime
from .exact import ExactNumber
from .continuous import MonotoneMap, Timelike
from .sequences import IntSet

Y_CROSSING = "y_crosses_origin"
X_CROSSING = "x_crosses_origin"
MEETING = "meeting"
COLLISION = "collision"

# Times are merged on floor(t * 2^32) first; see the module docstring.
_SCALE = 2**32


class Event(NamedTuple):
    time: ExactNumber
    kind: str
    count: int


@dataclass(frozen=True)
class EventLog:
    events: tuple[Event, ...]
    horizon_time: ExactNumber

    def collisions(self) -> tuple[Event, ...]:
        return tuple(e for e in self.events if e.kind == COLLISION)


def simulate(phi: MonotoneMap, T: Timelike) -> EventLog:
    """Exact event log of both crossings and all meetings up to time T."""
    horizon = ExactNumber.coerce(T)
    if horizon.sign() <= 0:
        raise NonPositiveTime(f"simulation horizon must be positive, got {horizon}")
    streams = (
        ((k * _SCALE, ExactNumber._new(k, 0, 0, 1), Y_CROSSING)
         for k in range(1, horizon.floor() + 1)),
        ((t.floor(_SCALE), t, X_CROSSING) for _, t in phi.level_times(0, horizon)),
        ((t.floor(_SCALE), t, MEETING) for _, t in phi.level_times(1, horizon)),
    )
    events: list[Event] = []
    meetings = 0
    for (_, t), due in groupby(heapq.merge(*streams), key=itemgetter(0, 1)):
        kinds = [kind for _, _, kind in due]
        if MEETING in kinds:
            meetings += 1
        # Coincidence of streams means a meeting at the origin itself.
        events.append(Event(t, kinds[0] if len(kinds) == 1 else COLLISION, meetings))
    return EventLog(tuple(events), horizon)


def recorded_sets(log: EventLog) -> tuple[IntSet, IntSet]:
    """(S_X, S_Y): the positive meeting counts written down at each crossing.

    The membership of a count c is settled by the single crossing that
    falls between meeting c and meeting c+1, so the horizon is the largest
    count any crossing in the log recorded.
    """
    bad = log.collisions()
    if bad:
        raise CollisionPresent(f"meeting at the origin at t={bad[0].time}; recorded sets are void")
    xs = [e.count for e in log.events if e.kind == X_CROSSING and e.count >= 1]
    ys = [e.count for e in log.events if e.kind == Y_CROSSING and e.count >= 1]
    horizon = max((e.count for e in log.events if e.kind in (X_CROSSING, Y_CROSSING)), default=0)
    return IntSet(tuple(xs), horizon), IntSet(tuple(ys), horizon)
