"""A lightweight metrics registry: counters, timers, histograms, sinks.

One process-global :class:`MetricsRegistry` (reachable via
:func:`get_registry`) collects everything the training loops and the
profiler report.  With no sinks attached — the default — emitting an
event is a single empty-list iteration, so instrumented code pays
effectively nothing until someone asks for the data.

Telemetry can be switched off entirely with :func:`set_telemetry`; the
emit path then returns immediately.

Thread safety: instruments are written concurrently by HTTP handler
threads, the serve dispatcher and worker-heartbeat daemons, so the
registry owns a single internal :func:`threading.RLock` shared by
every instrument it creates (one lock, one hierarchy level — there is
nothing to order against, so no deadlock surface).  ``snapshot()``
holds that lock across the whole walk, making the result a *consistent
cut*: counters incremented together are never torn across the
snapshot.  The lock is an RLock so instruments can be read while the
registry-level snapshot holds it.  Standalone instruments (constructed
directly, as tests do) get a private lock and stay safe in isolation.
Sink ``emit``/``flush`` calls happen *outside* the lock — sinks do IO,
and blocking under a lock is exactly what lint rule REPRO009 polices —
so sinks guard their own buffers.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from .records import TrainRecord
from .sinks import MetricSink

__all__ = [
    "Counter", "Timer", "Histogram", "MetricsRegistry",
    "get_registry", "set_registry", "using_registry",
    "telemetry_enabled", "set_telemetry",
    "emit_train_record",
]

_TELEMETRY_ENABLED = True


def telemetry_enabled() -> bool:
    """Whether step-level telemetry emission is currently on."""
    return _TELEMETRY_ENABLED


def set_telemetry(enabled: bool) -> bool:
    """Globally enable/disable telemetry emission; returns previous state."""
    global _TELEMETRY_ENABLED
    previous = _TELEMETRY_ENABLED
    _TELEMETRY_ENABLED = bool(enabled)
    return previous


class Counter:  # thread-shared
    """A monotonically increasing scalar (safe to ``inc`` from any thread)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: Any = None) -> None:
        self.name = name
        self._lock = lock if lock is not None else threading.RLock()
        self.value = 0.0  # guarded-by: _lock

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {"kind": "metric", "metric": "counter", "name": self.name,
                    "value": self.value}


class _Reservoir:
    """Ring buffer of the most recent observations, for percentiles.

    Serving SLOs are stated in tail latency (p50/p99), which the O(1)
    count/mean/min/max summaries cannot answer.  A bounded ring of the
    last ``capacity`` samples keeps memory constant on long runs while
    the percentile reflects *recent* behaviour — exactly what a load
    gate or a ``/v1/metrics`` scrape wants.

    Not synchronized itself: the owning instrument's lock guards every
    ``add``/``percentile`` call (standalone use stays single-threaded).
    """

    __slots__ = ("capacity", "_samples", "_cursor")

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError("reservoir capacity must be positive")
        self.capacity = capacity
        self._samples: list[float] = []
        self._cursor = 0

    def __len__(self) -> int:
        return len(self._samples)

    def add(self, value: float) -> None:
        if len(self._samples) < self.capacity:
            self._samples.append(value)
        else:
            self._samples[self._cursor] = value
            self._cursor = (self._cursor + 1) % self.capacity

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile (``q`` in [0, 100]) of the window."""
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        rank = int(q / 100.0 * len(ordered) + 0.5)
        return ordered[min(len(ordered) - 1, max(0, rank - 1))]


class Timer:  # thread-shared
    """Accumulates durations; use :meth:`time` as a context manager.

    The time source is injectable (same pattern as
    ``ReplicatedFrontend``'s clock), so tests measure deterministic fake
    seconds instead of sleeping.  A bounded :class:`_Reservoir` of
    recent observations backs :meth:`percentile` (tail-latency SLOs).
    """

    __slots__ = ("name", "count", "total_seconds", "min_seconds",
                 "max_seconds", "clock", "_reservoir", "_lock")

    def __init__(self, name: str,
                 clock: Callable[[], float] = time.perf_counter,
                 lock: Any = None) -> None:
        self.name = name
        self.clock = clock
        self._lock = lock if lock is not None else threading.RLock()
        self.count = 0              # guarded-by: _lock
        self.total_seconds = 0.0    # guarded-by: _lock
        self.min_seconds = float("inf")   # guarded-by: _lock
        self.max_seconds = 0.0      # guarded-by: _lock
        self._reservoir = _Reservoir()

    def observe(self, seconds: float) -> None:
        with self._lock:
            self.count += 1
            self.total_seconds += seconds
            self.min_seconds = min(self.min_seconds, seconds)
            self.max_seconds = max(self.max_seconds, seconds)
            self._reservoir.add(seconds)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile of recent observations (seconds)."""
        with self._lock:
            return self._reservoir.percentile(q)

    @contextmanager
    def time(self) -> Iterator[None]:
        start = self.clock()
        try:
            yield
        finally:
            self.observe(self.clock() - start)

    @property
    def mean_seconds(self) -> float:
        with self._lock:
            return self.total_seconds / self.count if self.count else 0.0

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {"kind": "metric", "metric": "timer", "name": self.name,
                    "count": self.count, "total_seconds": self.total_seconds,
                    "mean_seconds": self.mean_seconds,
                    "min_seconds": (0.0 if self.count == 0
                                    else self.min_seconds),
                    "max_seconds": self.max_seconds,
                    "p50_seconds": self.percentile(50.0),
                    "p99_seconds": self.percentile(99.0)}


class Histogram:  # thread-shared
    """Streaming summary of observed values (count/mean/min/max/p50/p99).

    Totals stay O(1); percentiles come from a bounded ring of recent
    samples (:class:`_Reservoir`), so long runs stay cheap while tail
    behaviour — queue depth spikes, wave-size skew — remains visible.
    """

    __slots__ = ("name", "count", "total", "min_value", "max_value",
                 "_reservoir", "_lock")

    def __init__(self, name: str, lock: Any = None) -> None:
        self.name = name
        self._lock = lock if lock is not None else threading.RLock()
        self.count = 0              # guarded-by: _lock
        self.total = 0.0            # guarded-by: _lock
        self.min_value = float("inf")     # guarded-by: _lock
        self.max_value = float("-inf")    # guarded-by: _lock
        self._reservoir = _Reservoir()

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            self.min_value = min(self.min_value, value)
            self.max_value = max(self.max_value, value)
            self._reservoir.add(value)

    @property
    def mean(self) -> float:
        with self._lock:
            return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile of recent observations."""
        with self._lock:
            return self._reservoir.percentile(q)

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            empty = self.count == 0
            return {"kind": "metric", "metric": "histogram",
                    "name": self.name,
                    "count": self.count, "mean": self.mean,
                    "min": 0.0 if empty else self.min_value,
                    "max": 0.0 if empty else self.max_value,
                    "p50": self.percentile(50.0),
                    "p99": self.percentile(99.0)}


class MetricsRegistry:  # thread-shared
    """Named counters/timers/histograms plus a fan-out list of sinks.

    One internal RLock guards the instrument tables, the sink list and
    — because instruments share it — every instrument's fields, so
    :meth:`snapshot` is a consistent cut across the whole registry.
    """

    def __init__(self, sinks: list[MetricSink] | None = None) -> None:
        self._lock = threading.RLock()
        self._counters: dict[str, Counter] = {}      # guarded-by: _lock
        self._timers: dict[str, Timer] = {}          # guarded-by: _lock
        self._histograms: dict[str, Histogram] = {}  # guarded-by: _lock
        self._sinks: list[MetricSink] = list(sinks or [])  # guarded-by: _lock

    # ------------------------------------------------------------------
    # Instrument access (get-or-create)
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter(
                    name, lock=self._lock)
            return instrument

    def timer(self, name: str,
              clock: Callable[[], float] | None = None) -> Timer:
        """Get-or-create; ``clock`` (first caller wins) overrides the
        time source for deterministic tests."""
        with self._lock:
            instrument = self._timers.get(name)
            if instrument is None:
                instrument = self._timers[name] = (
                    Timer(name, lock=self._lock) if clock is None
                    else Timer(name, clock, lock=self._lock))
            return instrument

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram(
                    name, lock=self._lock)
            return instrument

    # ------------------------------------------------------------------
    # Sinks and events
    # ------------------------------------------------------------------
    @property
    def sinks(self) -> tuple[MetricSink, ...]:
        with self._lock:
            return tuple(self._sinks)

    def add_sink(self, sink: MetricSink) -> MetricSink:
        with self._lock:
            self._sinks.append(sink)
        return sink

    def remove_sink(self, sink: MetricSink) -> None:
        with self._lock:
            if sink in self._sinks:
                self._sinks.remove(sink)

    @contextmanager
    def sink_attached(self, sink: MetricSink) -> Iterator[MetricSink]:
        """Attach ``sink`` for the duration of a ``with`` block, then close."""
        self.add_sink(sink)
        try:
            yield sink
        finally:
            self.remove_sink(sink)
            sink.close()

    def emit(self, event: dict[str, Any]) -> None:
        """Forward one event to every attached sink (no-op when disabled).

        The sink list is copied under the lock but ``sink.emit`` runs
        outside it: sinks do IO, and the instrumented hot paths must
        never wait on a JSONL flush.
        """
        # The unlocked emptiness probe is deliberate: a sink attached
        # mid-probe just catches the next event, exactly as if it had
        # been attached a moment later.
        if not _TELEMETRY_ENABLED or not self._sinks:  # race-ok: probe
            return
        with self._lock:
            sinks = tuple(self._sinks)
        for sink in sinks:
            sink.emit(event)

    def flush(self) -> None:
        with self._lock:
            sinks = tuple(self._sinks)
        for sink in sinks:
            sink.flush()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def snapshot(self) -> list[dict[str, Any]]:
        """One ``metric`` event per instrument — a consistent cut.

        The registry lock is held across the whole walk (instruments
        share it), so values incremented together under the shared
        lock never appear torn between snapshot entries.
        """
        with self._lock:
            instruments = (list(self._counters.values())
                           + list(self._timers.values())
                           + list(self._histograms.values()))
            return [instrument.snapshot() for instrument in instruments]

    def emit_snapshot(self) -> None:
        """Push the current snapshot through the sinks."""
        for event in self.snapshot():
            self.emit(event)

    def reset(self) -> None:
        """Drop all instruments (sinks stay attached)."""
        with self._lock:
            self._counters.clear()
            self._timers.clear()
            self._histograms.clear()


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global registry every training loop reports to."""
    return _REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the global registry; returns the previous one."""
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry
    return previous


@contextmanager
def using_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Temporarily swap in ``registry`` (tests, isolated runs)."""
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)


def emit_train_record(record: TrainRecord, source: str,
                      registry: MetricsRegistry | None = None) -> None:
    """Emit one ``train_step`` event and roll it into standard instruments.

    Parameters
    ----------
    record:
        The step record produced by a training loop.
    source:
        Which loop: ``"pretrain"``, ``"finetune"``, ...
    registry:
        Defaults to the global registry.
    """
    if not _TELEMETRY_ENABLED:
        return
    registry = registry or _REGISTRY
    registry.counter(f"{source}.steps").inc()
    if record.tokens:
        registry.counter(f"{source}.tokens").inc(record.tokens)
    if record.wall_time > 0.0:
        registry.timer(f"{source}.step_seconds").observe(record.wall_time)
    registry.histogram(f"{source}.loss").observe(record.loss)
    if registry.sinks:
        event = {"kind": "train_step", "source": source}
        event.update(record.to_dict())
        registry.emit(event)
