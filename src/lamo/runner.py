"""Event-level simulation of two opposite runners on the unit circle.

Runner Y moves as t, runner X as phi(t), in opposite directions, both
starting at the origin point.  Y passes the origin at integer times, X
whenever phi(t) is a positive integer, and the pair meet whenever
phi(t) + t is a positive integer.  The simulator produces these three
event streams in closed form, merges them in exact time order, and stamps
each event with the number of meetings merged so far, a meeting counting
itself.  A time shared by more than one stream is a meeting exactly at the
origin and is recorded as a single collision event, which voids any
partition claim for the log.

The counts come from the merge alone and never from the set formulas in
`continuous` (such as `meeting_count`), so the two routes stay independent:
they are compared against each other in the tests, not derived from one
another.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CollisionPresent, NonPositiveTime, NotPositive
from .exact import ExactNumber
from .continuous import MonotoneMap, Timelike, _exact
from .sequences import IntSet

Y_CROSSING = "y_crosses_origin"
X_CROSSING = "x_crosses_origin"
MEETING = "meeting"
COLLISION = "collision"


@dataclass(frozen=True)
class Event:
    time: ExactNumber
    kind: str
    count: int

    def __str__(self) -> str:
        return f"t={self.time} {self.kind} count={self.count}"


@dataclass(frozen=True)
class EventLog:
    events: tuple[Event, ...]
    horizon_time: ExactNumber

    def collisions(self) -> tuple[Event, ...]:
        return tuple(e for e in self.events if e.kind == COLLISION)

    def __len__(self) -> int:
        return len(self.events)


def meeting_time(phi: MonotoneMap, k: int) -> ExactNumber:
    """The unique t with phi(t) + t = k.

    phi(t) + t is continuous, strictly increasing and unbounded, so the
    solution exists for every k >= 1.  The bracketing integer interval is
    found by doubling and bisection on exact values, then the linear piece
    inside it is solved in closed form.
    """
    if not isinstance(k, int) or k < 1:
        raise NotPositive(f"meeting index must be a positive integer, got {k!r}")

    def total(j: int) -> ExactNumber:
        if j == 0:
            return ExactNumber(0)
        return phi.eval(j) + j

    hi = 1
    while total(hi).compare(k) < 0:
        hi *= 2
    lo = hi // 2  # total(lo) < k <= total(hi), with total(0) = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if total(mid).compare(k) < 0:
            lo = mid
        else:
            hi = mid
    y_lo = phi.eval(lo) if lo > 0 else ExactNumber(0)
    slope = phi.eval(hi) - y_lo
    # On [lo, hi]: phi(t) + t = y_lo + lo + (t - lo)(slope + 1).
    return lo + (k - (y_lo + lo)) / (slope + 1)


def simulate(phi: MonotoneMap, T: Timelike) -> EventLog:
    """Exact event log of both crossings and all meetings up to time T."""
    horizon = _exact(T)
    if horizon.sign() <= 0:
        raise NonPositiveTime(f"simulation horizon must be positive, got {horizon}")

    y_times: list[ExactNumber] = [ExactNumber(t) for t in range(1, horizon.floor() + 1)]

    x_times: list[ExactNumber] = []
    j = 1
    while phi.image_contains(j):
        t = phi.inverse_eval(j)
        if t.compare(horizon) > 0:
            break
        x_times.append(t)
        j += 1

    meet_times: list[ExactNumber] = []
    k = 1
    while True:
        t = meeting_time(phi, k)
        if t.compare(horizon) > 0:
            break
        meet_times.append(t)
        k += 1

    events: list[Event] = []
    iy = ix = im = 0
    while iy < len(y_times) or ix < len(x_times) or im < len(meet_times):
        heads: list[tuple[str, ExactNumber]] = []
        if iy < len(y_times):
            heads.append((Y_CROSSING, y_times[iy]))
        if ix < len(x_times):
            heads.append((X_CROSSING, x_times[ix]))
        if im < len(meet_times):
            heads.append((MEETING, meet_times[im]))
        t_min = heads[0][1]
        for _, t in heads[1:]:
            if t.compare(t_min) < 0:
                t_min = t
        due = [kind for kind, t in heads if t.compare(t_min) == 0]
        count = im + 1 if MEETING in due else im
        if len(due) > 1:
            # Coincidence of streams means a meeting at the origin itself.
            events.append(Event(t_min, COLLISION, count))
        else:
            events.append(Event(t_min, due[0], count))
        if Y_CROSSING in due:
            iy += 1
        if X_CROSSING in due:
            ix += 1
        if MEETING in due:
            im += 1
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
    horizon = 0
    for e in log.events:
        if e.kind in (X_CROSSING, Y_CROSSING) and e.count > horizon:
            horizon = e.count
    return IntSet(tuple(xs), horizon), IntSet(tuple(ys), horizon)
