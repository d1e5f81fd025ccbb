"""Outside-in tracer for the benchmark's traced run.

The tracer never edits ``repro``: it swaps public functions (and the
engine's callback registration) for thin wrappers at each layer
boundary, runs one workload call, and puts the originals back.  Each
wrapper opens a span — name, start, end, parent span and, where the
arguments carry one, the simulated request id — on an in-memory stack.
Aggregates (count, inclusive time, self time) are kept for every span;
the raw span records are kept up to a cap and written out at the end.

Self time is a span's duration minus the time its child spans cover,
so ``sim.self_s`` is the engine's dispatch and heap time outside the
callbacks it fires, and ``client.self_s`` is client code outside the
controller, balancer and inference calls it makes.  The tracer's own
per-event bookkeeping also runs outside the callback spans; it is
measured on no-op callbacks (:func:`event_overhead`), taken out of
``sim.self_s`` and reported as ``trace.event_overhead_s``.

Every scheduled callback is wrapped at ``SimulationEngine.call_at`` and
keyed by the layer that owns it (the module and qualified name of the
function behind the callback), which gives ``sim.events.<kind>``.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Optional

#: Raw span records kept in memory; spans past the cap still count in
#: the aggregates (a 2 h comparison opens several million spans).
MAX_SPANS = 200_000

#: Event kinds, in report order.  ``client_retry`` is the fixed-interval
#: retry poll a request makes while no replica is ready.
EVENT_KINDS = ("client_retry", "client", "inference", "controller", "cloud", "chaos", "other")

_RETRY_QUALNAME = "ServiceClient._retry_later"
_TICK_QUALNAME = "SimulationEngine.call_every.<locals>.tick"


def _module_kind(module: str, qualname: str) -> str:
    if module == "repro.serving.client":
        return "client_retry" if qualname.startswith(_RETRY_QUALNAME) else "client"
    if module in ("repro.serving.inference", "repro.serving.replica"):
        return "inference"
    if module.startswith("repro.serving."):
        return "controller"
    if module.startswith("repro.cloud."):
        return "cloud"
    if module.startswith("repro.chaos."):
        return "chaos"
    return "other"


def _target(callback: Callable[..., Any]) -> Any:
    """The plain function behind a callback (bound method, partial or
    the engine's recurring-timer closure)."""
    while True:
        if isinstance(callback, functools.partial):
            callback = callback.func
            continue
        func = getattr(callback, "__func__", callback)
        code = getattr(func, "__code__", None)
        if code is not None and func.__qualname__ == _TICK_QUALNAME:
            callback = func.__closure__[code.co_freevars.index("callback")].cell_contents
            continue
        return func


def _request_getter(func: Any) -> Optional[Callable[[Any], Optional[int]]]:
    """How to read the simulated request id off a client callback: the
    closure cell or default argument holding the ``Request``."""
    code = func.__code__
    if "request" in code.co_freevars:
        index = code.co_freevars.index("request")
        return lambda cb: getattr(cb.__closure__[index].cell_contents, "request_id", None)
    if func.__defaults__ and code.co_varnames[:1] == ("r",):
        return lambda cb: getattr(cb.__defaults__[0], "request_id", None)
    return None


class Tracer:
    """Span stack, aggregates and the patches that feed them."""

    def __init__(self) -> None:
        #: name -> [count, inclusive seconds, self seconds]
        self.stats: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, int] = defaultdict(int)
        #: Inclusive durations of individual sweep cells.
        self.cell_seconds: list[float] = []
        #: Instances handed out by ``SimCloud.request_instance``.
        self.instances: list[Any] = []
        #: Capacity brokers seen at ``CapacityBroker.request``.
        self.brokers: dict[int, Any] = {}
        #: (span id, name, start, end, parent span id, request id)
        self.spans: list[tuple[int, str, float, float, int, Optional[int]]] = []
        self.dropped = 0
        self._stack: list[list[Any]] = []
        self._next_id = 0
        self._patches: list[tuple[Any, str, Any]] = []
        self._kinds: dict[Any, tuple[str, str, Any]] = {}
        self._event_kind: Optional[str] = None

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def call(
        self,
        name: str,
        fn: Callable[..., Any],
        args: tuple[Any, ...],
        kwargs: dict[str, Any],
        request_id: Optional[int] = None,
    ) -> Any:
        stack = self._stack
        if stack and stack[-1][0] == name:
            # super() chains and recursion count as one call.
            return fn(*args, **kwargs)
        span_id = self._next_id
        self._next_id = span_id + 1
        frame = [name, 0.0, 0.0, span_id]
        stack.append(frame)
        frame[1] = start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            entry = self.stats[name]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - frame[2]
            parent = -1
            if stack:
                stack[-1][2] += duration
                parent = stack[-1][3]
            if len(self.spans) < MAX_SPANS:
                self.spans.append((span_id, name, start, end, parent, request_id))
            else:
                self.dropped += 1

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _patch(self, owner: Any, attr: str, wrapper: Callable[..., Any]) -> None:
        original = owner.__dict__[attr]
        functools.update_wrapper(wrapper, original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        request_arg: Optional[int] = None,
        on_result: Optional[Callable[[tuple[Any, ...], Any], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` (a function in a class or module
        namespace) with a spanned wrapper."""
        original = owner.__dict__[attr]
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            rid = None
            if request_arg is not None and len(args) > request_arg:
                rid = getattr(args[request_arg], "request_id", None)
            result = tracer.call(name, original, args, kwargs, rid)
            if on_result is not None:
                on_result(args, result)
            return result

        self._patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Engine events
    # ------------------------------------------------------------------
    def _classify(self, callback: Callable[..., Any]) -> tuple[str, str, Any]:
        func = _target(callback)
        key = getattr(func, "__code__", func)
        known = self._kinds.get(key)
        if known is None:
            module = getattr(func, "__module__", "") or ""
            qualname = getattr(func, "__qualname__", "") or ""
            kind = _module_kind(module, qualname)
            if qualname == "ServiceController._tick":
                name = "controller.tick"
            else:
                name = f"event.{kind}"
            getter = None
            if kind in ("client", "client_retry") and hasattr(func, "__code__"):
                getter = _request_getter(func)
            known = self._kinds[key] = (kind, name, getter)
        return known

    def _traced_callback(self, callback: Callable[[], None]) -> Callable[[], None]:
        kind, name, getter = self._classify(callback)
        tracer = self

        def traced() -> None:
            tracer.counters["sim.events." + kind] += 1
            outer = tracer._event_kind
            tracer._event_kind = kind
            try:
                tracer.call(name, callback, (), {}, getter(callback) if getter else None)
            finally:
                tracer._event_kind = outer

        return traced

    # ------------------------------------------------------------------
    # Install
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap the layer boundaries of every harness the workloads use."""
        from repro.chaos import harness, overlay
        from repro.cloud.billing import BillingMeter
        from repro.cloud.provider import SimCloud
        from repro.control.broker import CapacityBroker, SharedBillingMeter
        from repro.experiments import fastpath, hetero
        from repro.experiments.replay import TraceReplayer
        from repro.experiments.results import ReplayCache
        from repro.serving.controller import ServiceController
        from repro.serving.inference import InferenceServer
        from repro.serving.load_balancer import LoadBalancer
        from repro.serving.policy import ServingPolicy
        from repro.serving.replica import Replica
        from repro.sim.engine import SimulationEngine

        tracer = self
        counters = self.counters

        # -- sim: callback registration and the run loop ---------------
        call_at = SimulationEngine.__dict__["call_at"]

        def traced_call_at(engine: Any, when: float, callback: Callable[[], None]) -> Any:
            return call_at(engine, when, tracer._traced_callback(callback))

        self._patch(SimulationEngine, "call_at", traced_call_at)

        run_until = SimulationEngine.__dict__["run_until"]

        def traced_run_until(engine: Any, end_time: float) -> None:
            before = engine.events_processed
            try:
                tracer.call("sim.run", run_until, (engine, end_time), {})
            finally:
                counters["sim.events"] += engine.events_processed - before

        self._patch(SimulationEngine, "run_until", traced_run_until)

        # -- serving: controller, balancer, replica/inference ----------
        def note_route(args: tuple[Any, ...], replica: Any) -> None:
            counters["controller.routes"] += 1
            if replica is None:
                counters["controller.routes_empty"] += 1
            if tracer._event_kind == "client_retry" and replica is not None:
                counters["client.retry_hits"] += 1

        self.wrap(ServiceController, "route", "controller.route", request_arg=1,
                  on_result=note_route)
        self.wrap(ServiceController, "ready_replicas", "controller.ready_replicas")
        for cls in _subclasses(LoadBalancer):
            if "pick" in cls.__dict__:
                self.wrap(cls, "pick", "balancer.pick", request_arg=2)

        handle = Replica.__dict__["handle"]

        def client_callback(callback: Any) -> Any:
            if callback is None or _target(callback).__module__ != "repro.serving.client":
                return callback

            def traced(*args: Any) -> Any:
                return tracer.call("client.callback", callback, args, {})

            return traced

        def traced_handle(replica: Any, request: Any, on_complete: Any, on_abort: Any,
                          on_first_token: Any = None, **kwargs: Any) -> bool:
            accepted = tracer.call(
                "inference.handle",
                handle,
                (replica, request, client_callback(on_complete), client_callback(on_abort),
                 client_callback(on_first_token)),
                kwargs,
                request.request_id,
            )
            counters["inference.handles"] += 1
            if not accepted:
                counters["inference.sheds"] += 1
            return accepted

        self._patch(Replica, "handle", traced_handle)
        self.wrap(InferenceServer, "_drain", "inference.drain")

        # -- core: policy decisions -------------------------------------
        for cls in _subclasses(ServingPolicy):
            if "target_mix" in cls.__dict__:
                self.wrap(cls, "target_mix", "policy.target_mix")
            if "select_spot_zone" in cls.__dict__:
                self.wrap(cls, "select_spot_zone", "policy.select_zone")

        # -- cloud and control -----------------------------------------
        self.wrap(SimCloud, "request_instance", "cloud.request_instance",
                  on_result=lambda args, instance: tracer.instances.append(instance))
        self.wrap(BillingMeter, "breakdown", "cloud.billing")
        self.wrap(SharedBillingMeter, "tenant_breakdown", "cloud.billing")
        self.wrap(CapacityBroker, "request", "broker.request",
                  on_result=lambda args, _: tracer.brokers.setdefault(id(args[0]), args[0]))

        # -- experiments and chaos -------------------------------------
        self.wrap(TraceReplayer, "run", "replay.run")
        self.wrap(fastpath, "run_fastpath", "fastpath.run")

        def note_cache(args: tuple[Any, ...], hit: Any) -> None:
            if hit is not None:
                counters["cache.hits"] += 1

        self.wrap(ReplayCache, "get", "cache.get", on_result=note_cache)
        self.wrap(overlay, "compile_scenario", "chaos.compile")
        self.wrap(harness, "compile_scenario", "chaos.compile")
        self.wrap(harness, "score_run", "chaos.score")
        for module in (harness, hetero):
            self._wrap_sweep(module)

    def _wrap_sweep(self, module: Any) -> None:
        grid_sweep = module.__dict__["grid_sweep"]
        tracer = self

        def traced_grid_sweep(run: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
            def cell(**params: Any) -> Any:
                start = time.perf_counter()
                try:
                    return tracer.call("sweep.cell", run, (), params)
                finally:
                    tracer.cell_seconds.append(time.perf_counter() - start)

            return grid_sweep(cell, *args, **kwargs)

        self._patch(module, "grid_sweep", traced_grid_sweep)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def total(self, name: str) -> float:
        return float(self.stats[name][1]) if name in self.stats else 0.0

    def self_time(self, *names: str) -> float:
        return float(sum(self.stats[n][2] for n in names if n in self.stats))

    def count(self, name: str) -> int:
        return int(self.stats[name][0]) if name in self.stats else 0

    def check(self) -> list[str]:
        """Self-consistency of the trace: every fired event was seen by
        exactly one callback wrapper, and every span closed."""
        problems = []
        by_kind = sum(self.counters["sim.events." + k] for k in EVENT_KINDS)
        if by_kind != self.counters["sim.events"]:
            problems.append(
                f"tracer saw {by_kind} callbacks but the engines fired "
                f"{self.counters['sim.events']} events"
            )
        if self._stack:
            problems.append(f"{len(self._stack)} spans left open")
        return problems

    def write(self, path: Path) -> None:
        """Spans as JSON lines: id, name, start, end, parent, request."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write(json.dumps({"spans": len(self.spans), "dropped": self.dropped}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def event_overhead(batch: int = 20_000, repeats: int = 7) -> float:
    """Host seconds the tracer adds to one fired event outside the span
    of its callback: the counter, the event-kind swap and the span
    bookkeeping in :meth:`Tracer.call`.  That time falls in the engine's
    self time, so ``sim.self_s`` has it taken out.

    Fires ``batch`` wrapped no-op callbacks under a parent span, takes
    the parent's self time less the same number of bare calls, and
    returns the median over ``repeats`` batches, per event.
    """

    def noop() -> None:
        pass

    def fire(callback: Callable[[], None]) -> None:
        for _ in range(batch):
            callback()

    samples = []
    for _ in range(repeats):
        tracer = Tracer()
        tracer.call("parent", fire, (tracer._traced_callback(noop),), {})
        start = time.perf_counter()
        fire(noop)
        bare = time.perf_counter() - start
        samples.append((tracer.self_time("parent") - bare) / batch)
    return max(statistics.median(samples), 0.0)


def _subclasses(cls: type) -> list[type]:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: Tracer, *, requests: int, steps: int, per_event_s: float
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced call, by name, as (value, unit).

    ``requests`` is the number of simulated requests the call served and
    ``steps`` its trace steps summed over operations.  ``per_event_s``
    is the tracer's own cost per fired event (:func:`event_overhead`).
    A layer the workload never reaches reports zero work.
    """
    c = tracer.counters
    events = c["sim.events"]
    tracer_s = min(events * per_event_s, tracer.self_time("sim.run"))
    instances = tracer.instances
    brokers = list(tracer.brokers.values())
    admitted = sum(sum(b.admitted.values()) for b in brokers)
    rejected = sum(sum(b.rejected.values()) for b in brokers)
    policy_calls = tracer.count("policy.target_mix") + tracer.count("policy.select_zone")
    cells = sorted(tracer.cell_seconds)
    metrics: dict[str, tuple[float, str]] = {
        "sim.events": (events, "count"),
        "sim.events_per_request": (_ratio(events, requests), "events/req"),
    }
    for kind in EVENT_KINDS:
        metrics[f"sim.events.{kind}"] = (c["sim.events." + kind], "count")
    metrics.update({
        "sim.self_s": (tracer.self_time("sim.run") - tracer_s, "s"),
        "trace.event_overhead_s": (tracer_s, "s"),
        "client.route_attempts_per_request": (_ratio(c["controller.routes"], requests),
                                              "routes/req"),
        "client.retry_hit_ratio": (_ratio(c["client.retry_hits"], c["sim.events.client_retry"]),
                                   "ratio"),
        "client.self_s": (tracer.self_time("event.client", "event.client_retry",
                                           "client.callback"), "s"),
        "controller.route_s": (tracer.total("controller.route"), "s"),
        "controller.ready_replicas_s": (tracer.total("controller.ready_replicas"), "s"),
        "controller.route_empty_ratio": (_ratio(c["controller.routes_empty"],
                                                c["controller.routes"]), "ratio"),
        "controller.ticks": (tracer.count("controller.tick"), "count"),
        "controller.tick_s": (tracer.total("controller.tick"), "s"),
        "balancer.picks": (tracer.count("balancer.pick"), "count"),
        "balancer.pick_s": (tracer.total("balancer.pick"), "s"),
        "inference.handle_s": (tracer.total("inference.handle"), "s"),
        "inference.drain_s": (tracer.total("inference.drain"), "s"),
        "inference.shed_ratio": (_ratio(c["inference.sheds"], c["inference.handles"]), "ratio"),
        "policy.target_mix_calls": (tracer.count("policy.target_mix"), "count"),
        "policy.target_mix_s": (tracer.total("policy.target_mix"), "s"),
        "policy.select_zone_calls": (tracer.count("policy.select_zone"), "count"),
        "policy.select_zone_s": (tracer.total("policy.select_zone"), "s"),
        "policy.calls_per_step": (_ratio(policy_calls, steps), "calls/step"),
        "cloud.request_instance_calls": (tracer.count("cloud.request_instance"), "count"),
        "cloud.request_instance_s": (tracer.total("cloud.request_instance"), "s"),
        "cloud.launch_ready_ratio": (
            _ratio(sum(1 for i in instances if i.ready_at is not None), len(instances)), "ratio"),
        "cloud.billing_s": (tracer.total("cloud.billing"), "s"),
        "broker.requests": (tracer.count("broker.request"), "count"),
        "broker.request_s": (tracer.total("broker.request"), "s"),
        "broker.admit_ratio": (_ratio(admitted, admitted + rejected), "ratio"),
        "broker.evictions": (sum(sum(b.evictions_won.values()) for b in brokers), "count"),
        "replay.run_s": (tracer.total("replay.run"), "s"),
        "fastpath.run_s": (tracer.total("fastpath.run"), "s"),
        "replay.discrete_s": (tracer.total("replay.run") - tracer.total("fastpath.run"), "s"),
        "sweep.cell_s_p50": (statistics.median(cells) if cells else 0.0, "s"),
        "sweep.cell_s_max": (cells[-1] if cells else 0.0, "s"),
        "cache.hits": (c["cache.hits"], "count"),
        "chaos.compile_s": (tracer.total("chaos.compile"), "s"),
        "chaos.score_s": (tracer.total("chaos.score"), "s"),
    })
    return metrics
