"""Request spans: per-request latency legs through the serving stack.

A :class:`RequestSpan` partitions one request's client-observed latency
into four legs that sum (up to float rounding) to the end-to-end number
the client records::

    queue   = exec_start  - arrival      (client retries + server queue)
    prefill = first_token - exec_start   (server-side TTFT minus queueing)
    decode  = finish      - first_token  (token generation)
    wan     = rtt                        (client <-> serving region)

``exec_start`` is stamped by the inference server when the request
leaves the FIFO queue and enters a batching slot; on a retry (replica
preempted mid-request) the marks reset, so the legs describe the
attempt that actually completed while ``queue`` absorbs all of the lost
time — matching the paper's accounting, where preemption-induced retry
time stays inside the end-to-end latency.

The :class:`SpanRecorder` owns the open spans and emits one
:class:`~repro.telemetry.events.RequestSpanEvent` per finished request
onto the telemetry bus; :class:`~repro.telemetry.metrics.MetricsSink`
aggregates the legs of completed requests from there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.telemetry.events import NULL_BUS, EventBus, RequestSpanEvent

__all__ = ["RequestSpan", "SpanRecorder"]


@dataclass
class RequestSpan:
    """Mutable in-flight record of one request's journey."""

    request_id: int
    arrival: float
    replica_id: int = -1
    zone: str = ""
    exec_start: Optional[float] = None
    first_token: Optional[float] = None
    retries: int = 0
    status: str = "open"  # open | ok | failed
    finish: Optional[float] = None
    wan: float = 0.0
    legs: dict[str, float] = field(default_factory=dict)
    #: Batch occupancy when the request entered its slot (0 = never ran).
    batch_size: int = 0
    #: Server FIFO depth observed at submission time.
    queue_depth: int = 0

    # -- marks, stamped as the request moves through the stack ---------
    def note_attempt(self, replica_id: int, zone: str) -> None:
        """The balancer routed (or re-routed) this request."""
        self.replica_id = replica_id
        self.zone = zone

    def note_queue_depth(self, depth: int) -> None:
        """The inference server accepted the request behind ``depth``
        already-queued requests."""
        self.queue_depth = depth

    def mark_exec_start(self, time: float, batch: int = 0) -> None:
        """The inference server moved the request into a batching slot;
        ``batch`` is the occupancy including this request."""
        self.exec_start = time
        self.batch_size = batch

    def mark_first_token(self, time: float) -> None:
        """Server-side first token (prefill done) for the current attempt."""
        if self.status == "open":
            self.first_token = time

    def note_abort(self) -> None:
        """The serving replica died; the client will retry."""
        self.retries += 1
        self.exec_start = None
        self.first_token = None
        self.batch_size = 0

    # -- finalisation ---------------------------------------------------
    def _finalize(self, finish: float, wan: float, status: str) -> None:
        self.status = status
        self.finish = finish
        self.wan = wan
        # Defensive clamps: a span failed before reaching a stage has
        # that stage's mark missing; collapse the absent legs to zero so
        # the sum identity still holds.
        exec_start = self.exec_start if self.exec_start is not None else finish
        exec_start = min(exec_start, finish)
        first = self.first_token if self.first_token is not None else exec_start
        first = min(max(first, exec_start), finish)
        self.legs = {
            "queue": exec_start - self.arrival,
            "prefill": first - exec_start,
            "decode": finish - first,
            "wan": wan,
        }

    @property
    def total(self) -> float:
        """End-to-end client latency: the sum of the four legs."""
        if not self.legs:
            raise ValueError(f"span {self.request_id} not finalised")
        return sum(self.legs.values())

    def to_event(self) -> RequestSpanEvent:
        return RequestSpanEvent(
            time=(self.finish or self.arrival) + self.wan,
            request_id=self.request_id,
            status=self.status,
            queue=self.legs["queue"],
            prefill=self.legs["prefill"],
            decode=self.legs["decode"],
            wan=self.wan,
            total=self.total,
            retries=self.retries,
            replica_id=self.replica_id,
            zone=self.zone,
            batch_size=self.batch_size,
            queue_depth=self.queue_depth,
        )


class SpanRecorder:
    """Tracks open spans and publishes each finished one as an event."""

    def __init__(self, bus: Optional[EventBus] = None) -> None:
        self.bus = bus if bus is not None else NULL_BUS
        self._open: dict[int, RequestSpan] = {}

    def open(self, request_id: int, arrival: float) -> RequestSpan:
        span = RequestSpan(request_id=request_id, arrival=arrival)
        self._open[request_id] = span
        return span

    def get(self, request_id: int) -> Optional[RequestSpan]:
        return self._open.get(request_id)

    @property
    def open_count(self) -> int:
        return len(self._open)

    def complete(self, request_id: int, finish: float, wan: float) -> Optional[RequestSpan]:
        """Close a span successfully; ``finish`` is the *server-side*
        completion time, ``wan`` the return-trip the client adds."""
        span = self._open.pop(request_id, None)
        if span is None:
            return None
        span._finalize(finish, wan, "ok")
        if self.bus.enabled:
            self.bus.emit(span.to_event())
        return span

    def fail(self, request_id: int, now: float) -> Optional[RequestSpan]:
        """Close a span as failed (deadline passed or late completion)."""
        span = self._open.pop(request_id, None)
        if span is None:
            return None
        span._finalize(now, 0.0, "failed")
        if self.bus.enabled:
            self.bus.emit(span.to_event())
        return span
