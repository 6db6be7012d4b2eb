"""Causal events, observer chains, projections, and interval quantification.

Everything here runs in exact rational arithmetic so invariance claims are
equality assertions rather than tolerance checks. Events carry construction
coordinates (t, x), but every operation consumes only the causal order
predicate and chain membership.

Light-cone components are p = t + x and q = t - x; e1 precedes e2 exactly
when both components are non-decreasing. A chain with parameter k and tick s
places its element i at origin + (i*k*s, i*s/k) in (p, q), which is a
straight worldline with velocity beta = (k^2 - 1) / (k^2 + 1) whose
consecutive elements are one proper tick s apart. Element i carries the
numeric label i * s; interval components are label differences, so finer
chains quantify the same interval consistently.

Boost convention (fixed by exact-arithmetic verification in the test suite):
``boost_frame(k)`` rescales (dp, dq) -> (k*dp, dq/k), a boost toward +x with
beta = (k^2 - 1)/(k^2 + 1) and gamma = (k^2 + 1)/(2k), under which
(dt', dx') = (gamma*(dt + beta*dx), gamma*(dx + beta*dt)). The same numbers
arise from actual projections onto a synchronized chain pair built with
chain parameter 1/k.
"""
from __future__ import annotations

from fractions import Fraction
from math import ceil
from typing import TYPE_CHECKING, Iterable, Sequence

from ._record import Record, set_field
from .errors import (BoundExceeded, NonPositiveBoost, NotQuantifiable,
                     NotSynchronized)

# only causal_grid_poset builds a Poset, so it imports ordinal.poset itself
if TYPE_CHECKING:
    from .poset import Poset

Rational = Fraction | int | str


def _frac(value: Rational) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


class Event(Record):
    """A point of the causal order; coordinates are scaffolding, not claims."""

    __slots__ = ("t", "x")

    def __init__(self, t: Fraction, x: Fraction):
        set_field(self, "t", _frac(t))
        set_field(self, "x", _frac(x))

    @property
    def p(self) -> Fraction:
        return self.t + self.x

    @property
    def q(self) -> Fraction:
        return self.t - self.x


def causal_leq(e1: Event, e2: Event) -> bool:
    """e1 can inform e2: the time gap covers the spatial separation."""
    return e2.t - e1.t >= abs(e2.x - e1.x)


class ObserverChain(Record):
    """Arithmetic sequence of events used as a measuring chain.

    ``index_range`` is inclusive; projections never extrapolate beyond it.
    """

    __slots__ = ("origin", "k", "tick", "index_range", "label")

    def __init__(self, origin: Event, k: Fraction = Fraction(1),
                 tick: Fraction = Fraction(1),
                 index_range: tuple[int, int] = (0, 100), label: str = ""):
        set_field(self, "origin", origin)
        set_field(self, "k", _frac(k))
        set_field(self, "tick", _frac(tick))
        set_field(self, "index_range", index_range)
        set_field(self, "label", label)
        if self.k <= 0:
            raise ValueError("chain parameter k must be positive")
        if self.tick <= 0:
            raise ValueError("tick must be positive")
        lo, hi = index_range
        if lo > hi:
            raise ValueError("index range is empty")

    @property
    def beta(self) -> Fraction:
        return (self.k ** 2 - 1) / (self.k ** 2 + 1)

    @property
    def gamma(self) -> Fraction:
        return (self.k ** 2 + 1) / (2 * self.k)

    @property
    def p_step(self) -> Fraction:
        return self.k * self.tick

    @property
    def q_step(self) -> Fraction:
        return self.tick / self.k

    def event(self, i: int) -> Event:
        lo, hi = self.index_range
        if not lo <= i <= hi:
            raise ValueError(f"index {i} outside declared range {self.index_range}")
        p = self.origin.p + i * self.p_step
        q = self.origin.q + i * self.q_step
        return Event((p + q) / 2, (p - q) / 2)

    def label_of(self, i: int) -> Fraction:
        """Numeric label carried by element i (proper time along the chain)."""
        return i * self.tick

    def _name(self) -> str:
        return self.label or f"chain(k={self.k}, origin=({self.origin.t},{self.origin.x}))"


def project(e: Event, c: ObserverChain) -> int:
    """Index of the least chain element that includes e.

    In the sub-poset of e plus the chain, that element covers e. Raises
    NotQuantifiable when no element within the declared range works.
    """
    need_p = ceil((e.p - c.origin.p) / c.p_step)
    need_q = ceil((e.q - c.origin.q) / c.q_step)
    lo, hi = c.index_range
    i = max(need_p, need_q, lo)
    if i > hi:
        raise NotQuantifiable(
            f"event (t={e.t}, x={e.x}) is not quantifiable by {c._name()} "
            f"within indices {c.index_range}")
    return i


def coordinatize(e: Event, chains: Sequence[ObserverChain]) -> tuple[int, ...]:
    """Projections of e onto each chain, in chain order."""
    return tuple(project(e, c) for c in chains)


def check_synchronized(p: ObserverChain, q: ObserverChain,
                       index_range: tuple[int, int]) -> bool:
    """Do successive elements of each chain project onto successive elements
    of the other, across the given index window? A constant offset is fine.

    An empty window (``hi < lo``), or one of one index, compares no step and
    would pass vacuously, so it raises ValueError instead."""
    lo, hi = index_range
    if hi < lo:
        raise ValueError(f"empty index window [{lo}, {hi}]")
    if hi == lo:
        raise ValueError(f"index window [{lo}, {hi}] holds one index, so it "
                         "compares no step")
    for a, b in ((p, q), (q, p)):
        start = project(a.event(lo), b)
        if any(project(a.event(i), b) != start + (i - lo) for i in range(lo + 1, hi + 1)):
            return False
    return True


class IntervalPair(Record):
    """(dp, dq) quantification of an interval between two events."""

    __slots__ = ("dp", "dq")

    def __init__(self, dp: Fraction, dq: Fraction):
        set_field(self, "dp", _frac(dp))
        set_field(self, "dq", _frac(dq))

    @property
    def dt(self) -> Fraction:
        return (self.dp + self.dq) / 2

    @property
    def dx(self) -> Fraction:
        return (self.dp - self.dq) / 2

    @property
    def ds2(self) -> Fraction:
        return self.dp * self.dq

    def to_dict(self) -> dict:
        return {"dp": str(self.dp), "dq": str(self.dq), "dt": str(self.dt),
                "dx": str(self.dx), "ds2": str(self.ds2)}


def _last_inside(a: ObserverChain, b: ObserverChain) -> int:
    """The last index of a whose element projects inside b's declared range.

    project raises exactly when e.p or e.q lies past the p or q of b's last
    element; along a, both grow linearly with the index.
    """
    last = b.index_range[1]
    return min((b.origin.p + last * b.p_step - a.origin.p) // a.p_step,
               (b.origin.q + last * b.q_step - a.origin.q) // a.q_step)


def _sync_window(indices: Iterable[int], p: ObserverChain,
                 q: ObserverChain) -> tuple[int, int]:
    """The index window around the events over which p and q must agree.

    It ends where an element of either chain would project past the other
    chain's range; a window past that end takes the last two indices that
    project inside. A window of one index would pass vacuously, so it takes
    the index below it. If the chains have no two such indices, that raises
    NotSynchronized.
    """
    lo, hi = min(indices), max(indices)
    first = max(p.index_range[0], q.index_range[0])
    # a window of one index is widened by one step above it
    lo, hi = max(lo, first), min(max(hi, lo + 1), p.index_range[1], q.index_range[1])
    if hi < lo:
        raise NotSynchronized(
            "chains share no index window around the events, so "
            "synchronization cannot be verified")
    hi = min(hi, _last_inside(p, q), _last_inside(q, p))
    lo = min(lo, hi - 1)
    if lo < first:
        raise NotSynchronized(
            "chains project into each other's ranges on fewer than two "
            "indices, so synchronization cannot be verified")
    return lo, hi


def interval_pair(e1: Event, e2: Event, p: ObserverChain, q: ObserverChain,
                  check_sync: bool = True) -> IntervalPair:
    """Quantify the interval e1 -> e2 by projection-label differences.

    The chains must be synchronized over the window the events span;
    pass ``check_sync=False`` only to demonstrate what goes wrong without it.
    """
    i1, i2 = project(e1, p), project(e2, p)
    j1, j2 = project(e1, q), project(e2, q)
    if check_sync:
        window = _sync_window((i1, i2, j1, j2), p, q)
        if not check_synchronized(p, q, window):
            raise NotSynchronized(
                f"{p._name()} and {q._name()} are not synchronized over "
                f"indices {window}")
    return IntervalPair(p.label_of(i2) - p.label_of(i1),
                        q.label_of(j2) - q.label_of(j1))


class Boost(Record):
    """Multiplicative rescaling of light-cone components between frames."""

    __slots__ = ("k",)

    def __init__(self, k: Fraction):
        set_field(self, "k", _frac(k))
        if self.k <= 0:
            raise NonPositiveBoost(f"boost factor must be positive, got {self.k}")

    def apply(self, ip: IntervalPair) -> IntervalPair:
        return IntervalPair(self.k * ip.dp, ip.dq / self.k)


def boost_frame(k: Rational) -> Boost:
    return Boost(_frac(k))


def _require_grid_size(n: int) -> None:
    if not 1 <= n <= 64:
        raise BoundExceeded(f"grid size {n} outside 1..64")


def causal_grid(n: int) -> list[Event]:
    """Events at every integer (t, x) with 0 <= t, x < n."""
    _require_grid_size(n)
    return [Event(Fraction(t), Fraction(x)) for t in range(n) for x in range(n)]


def grid_event_id(e: Event) -> str:
    return f"({e.t},{e.x})"


def causal_grid_poset(n: int) -> Poset:
    """The causal order on causal_grid(n) as an explicit poset.

    Covers step one unit of time and at most one unit of space. Element ids
    are grid_event_id's ``(t,x)``, written from the integers without
    building the Events; (t, x) is event t * n + x.
    """
    from .poset import _assemble, _ranked

    _require_grid_size(n)
    ids, rank = _ranked([f"({t},{x})" for t in range(n) for x in range(n)])
    size = n * n
    return _assemble(ids, sorted([rank[i] * size + rank[i + n + dx]
                                  for i in range(size - n)
                                  for dx in (-1, 0, 1) if 0 <= i % n + dx < n]))
