"""Discrete-event simulation engine.

The engine is a priority queue of timestamped callbacks with a simulated
clock measured in float seconds.  Every component of the reproduced system
(cloud providers, replicas, load balancers, autoscalers, clients) schedules
work on a shared :class:`SimulationEngine` instead of touching wall-clock
time, which makes multi-hour paper experiments run in milliseconds and makes
every run exactly reproducible.

Two scheduling styles are supported:

* one-shot callbacks via :meth:`SimulationEngine.call_at` /
  :meth:`SimulationEngine.call_after`, and
* recurring timers via :meth:`SimulationEngine.call_every`, used for
  control loops such as the service controller's reconciliation tick.

Events scheduled for the same timestamp fire in scheduling order (FIFO),
which keeps control-loop interleavings deterministic.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.telemetry.events import EventBus

__all__ = ["EventHandle", "SimulationEngine", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised on invalid engine usage (e.g. scheduling in the past)."""


class _ScheduledEvent:
    """Internal event record.

    The heap holds ``(time, seq, event)`` tuples, so heap comparisons
    run on the float and the int in C and never reach the record;
    ``seq`` is unique, which keeps simultaneous events in scheduling
    order.  ``scheduled_at`` is the simulated time :meth:`call_at` ran.

    The record participates in the engine's live pending-event count:
    cancellation decrements the counter exactly once (and only while the
    entry is still queued), so :attr:`SimulationEngine.pending_events`
    never has to walk the heap.
    """

    __slots__ = ("time", "callback", "scheduled_at", "cancelled", "popped", "engine")

    def __init__(
        self,
        time: float,
        callback: Callable[[], None],
        scheduled_at: float,
        engine: SimulationEngine,
    ) -> None:
        self.time = time
        self.callback = callback
        self.scheduled_at = scheduled_at
        self.cancelled = False
        #: Set once the entry has left the heap (fired or skipped).
        self.popped = False
        self.engine = engine

    def cancel(self) -> None:
        if not self.cancelled:
            self.cancelled = True
            if not self.popped:
                self.engine._pending -= 1


class EventHandle:
    """Handle to a scheduled event, allowing cancellation.

    Cancellation is lazy: the heap entry stays in the queue but is skipped
    when popped.
    """

    def __init__(self, event: _ScheduledEvent) -> None:
        self._event = event

    @property
    def time(self) -> float:
        """Simulated time at which the event fires (or would have fired)."""
        return self._event.time

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called."""
        return self._event.cancelled

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        self._event.cancel()


class SimulationEngine:
    """A deterministic discrete-event loop with a float-seconds clock."""

    def __init__(
        self,
        start_time: float = 0.0,
        *,
        telemetry: Optional[EventBus] = None,
    ) -> None:
        self._now = float(start_time)
        self._queue: list[tuple[float, int, _ScheduledEvent]] = []
        self._seq = itertools.count()
        self._running = False
        self._events_processed = 0
        self._pending = 0
        # No event has run yet: nothing scheduled counts as fired.
        self._scheduled_at = -math.inf
        if telemetry is None:
            # Local import: telemetry depends on sim.metrics, so a
            # module-level import would be circular.
            from repro.telemetry.events import NULL_BUS

            telemetry = NULL_BUS
        #: Telemetry bus shared by every component scheduling on this
        #: engine.  Disabled (the shared null bus) unless a configured
        #: :class:`~repro.telemetry.events.EventBus` is passed in —
        #: publishers guard with ``if engine.telemetry.enabled``.
        self.telemetry = telemetry

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of callbacks executed so far."""
        return self._events_processed

    @property
    def current_scheduled_at(self) -> float:
        """Simulated time at which the running event was scheduled.

        Events at one timestamp fire in scheduling order, so an event
        scheduled strictly before this time and due at :attr:`now` has
        already fired.  After :meth:`run_until` returns, every event due
        at or before :attr:`now` has fired and this is ``inf``.
        """
        return self._scheduled_at

    @property
    def pending_events(self) -> int:
        """Number of queued, not-cancelled events.

        Maintained as a live counter (incremented on schedule,
        decremented on cancel or execution) so controller-loop
        assertions cost O(1) instead of walking the heap.
        """
        return self._pending

    def call_at(self, time: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to run at absolute simulated ``time``.

        Raises :class:`SimulationError` if ``time`` is in the past.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time:.3f}, now is t={self._now:.3f}"
            )
        event = _ScheduledEvent(float(time), callback, self._now, self)
        heapq.heappush(self._queue, (event.time, next(self._seq), event))
        self._pending += 1
        return EventHandle(event)

    def call_after(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.call_at(self._now + delay, callback)

    def call_every(
        self,
        interval: float,
        callback: Callable[[], None],
        *,
        start_delay: Optional[float] = None,
    ) -> EventHandle:
        """Schedule ``callback`` every ``interval`` seconds.

        The returned handle cancels the *whole* recurring timer.  The first
        invocation happens after ``start_delay`` (default: ``interval``).
        """
        if interval <= 0:
            raise SimulationError(f"non-positive interval {interval!r}")
        first_delay = interval if start_delay is None else start_delay
        # The recurring timer is implemented by re-scheduling from inside
        # the tick.  A shared cell lets the caller's handle cancel the
        # currently queued tick, whichever one that is.
        cell: dict[str, _ScheduledEvent] = {}

        def tick() -> None:
            callback()
            if not cell["event"].cancelled:
                cell["event"] = self.call_after(interval, tick)._event

        cell["event"] = self.call_after(first_delay, tick)._event

        class _RecurringHandle(EventHandle):
            def __init__(self) -> None:  # noqa: D401 - thin shim
                pass

            @property
            def time(self) -> float:
                return cell["event"].time

            @property
            def cancelled(self) -> bool:
                return cell["event"].cancelled

            def cancel(self) -> None:
                cell["event"].cancel()

        return _RecurringHandle()

    def step(self) -> bool:
        """Execute the next pending event.

        Returns ``False`` when the queue is empty.  Cancelled events are
        skipped without advancing the clock.
        """
        while self._queue:
            event = heapq.heappop(self._queue)[2]
            event.popped = True
            if event.cancelled:
                continue  # counter already adjusted at cancel time
            self._pending -= 1
            self._now = event.time
            self._scheduled_at = event.scheduled_at
            self._events_processed += 1
            event.callback()
            return True
        return False

    def run_until(self, end_time: float) -> None:
        """Run events until the clock would pass ``end_time``.

        The clock is left exactly at ``end_time`` so that metrics windows
        line up across runs; events scheduled at exactly ``end_time`` are
        executed.
        """
        if end_time < self._now:
            raise SimulationError(
                f"end_time {end_time:.3f} is before now {self._now:.3f}"
            )
        queue = self._queue
        pop = heapq.heappop
        self._running = True
        try:
            while queue:
                if queue[0][0] > end_time:
                    break
                event = pop(queue)[2]
                event.popped = True
                if event.cancelled:
                    continue  # counter already adjusted at cancel time
                self._pending -= 1
                self._now = event.time
                self._scheduled_at = event.scheduled_at
                self._events_processed += 1
                event.callback()
        finally:
            self._running = False
        self._now = end_time
        self._scheduled_at = math.inf

    def run(self) -> None:
        """Run until the event queue drains completely."""
        while self.step():
            pass
