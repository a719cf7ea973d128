"""Counter / gauge / histogram registry for engine internals.

PASTRAMI's observation (PAPERS.md) — packet-processing performance
numbers are dominated by measurement *instability* — applies to the
toolkit's own runtime: a single wall-time number per invocation hides
queue waits, stragglers and retry storms.  This registry gives the
engine cheap, always-on distributions instead:

* **counters** — monotonic event counts (``pool.tasks_submitted``,
  ``pool.task_failures``, ``sim.runs``);
* **gauges** — last-write-wins levels (``pool.workers``);
* **histograms** — ns-resolution timing distributions with **fixed log2
  buckets**: an observation ``v`` lands in bucket ``v.bit_length()``
  (bucket 0 holds ``v <= 0``), so bucket ``k`` spans ``[2^(k-1), 2^k)``
  ns.  Bucket edges are value-independent, which makes merging across
  processes a plain vector add — the property the worker-telemetry
  round-trip (:mod:`repro.obs.worker`) relies on.

Everything is thread-safe behind one registry lock.  Recording is a few
dict operations at *task* granularity (never per packet), so the
registry stays on even when span tracing is disabled — that is what
keeps ``pool.task_failures`` visible on untraced runs.

Worker processes accumulate into their own registry copy;
:meth:`Registry.drain_deltas` / :meth:`Registry.merge_deltas` ship the
deltas back piggybacked on task results with no double counting.
"""

from __future__ import annotations

import threading

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "REGISTRY",
    "counter",
    "gauge",
    "histogram",
    "histogram_quantile",
    "N_HIST_BUCKETS",
]

#: log2 buckets cover [1 ns, 2^63 ns); bucket 0 catches non-positive
#: observations, the last bucket is open-ended.
N_HIST_BUCKETS = 64


def bucket_index(value: int) -> int:
    """The fixed log2 bucket of an observation (ns)."""
    v = int(value)
    if v <= 0:
        return 0
    return min(v.bit_length(), N_HIST_BUCKETS - 1)


def bucket_bounds(index: int) -> tuple[int, int]:
    """The ``[lo, hi)`` ns range of bucket ``index``."""
    if index <= 0:
        return (0, 1)
    return (1 << (index - 1), 1 << index)


class Counter:
    """A monotonic event counter."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self._value = 0
        self._lock = lock

    def add(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters are monotonic; use a gauge for levels")
        with self._lock:
            self._value += int(n)

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A last-write-wins level."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self._value = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-log2-bucket timing histogram (ns resolution)."""

    __slots__ = ("name", "_lock", "counts", "count", "total", "min", "max")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self._lock = lock
        self.counts = [0] * N_HIST_BUCKETS
        self.count = 0
        self.total = 0
        self.min: int | None = None
        self.max: int | None = None

    def observe(self, value_ns: int) -> None:
        v = int(value_ns)
        with self._lock:
            self.counts[bucket_index(v)] += 1
            self.count += 1
            self.total += v
            self.min = v if self.min is None else min(self.min, v)
            self.max = v if self.max is None else max(self.max, v)

    @property
    def mean(self) -> float:
        with self._lock:
            return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "counts": list(self.counts),
                "count": self.count,
                "total": self.total,
                "min": self.min,
                "max": self.max,
            }


class Registry:
    """The named metric namespace of one process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- handles ---------------------------------------------------------
    def counter(self, name: str) -> Counter:
        with self._lock:
            c = self._counters.get(name)
            if c is None:
                c = self._counters[name] = Counter(name, self._lock)
        return c

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            g = self._gauges.get(name)
            if g is None:
                g = self._gauges[name] = Gauge(name, self._lock)
        return g

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            h = self._histograms.get(name)
            if h is None:
                h = self._histograms[name] = Histogram(name, self._lock)
        return h

    # -- snapshots -------------------------------------------------------
    def snapshot(self) -> dict:
        """Everything, as plain data (for exporters and tests)."""
        with self._lock:
            return {
                "counters": {n: c._value for n, c in self._counters.items()},
                "gauges": {n: g._value for n, g in self._gauges.items()},
                "histograms": {
                    n: {
                        "counts": list(h.counts),
                        "count": h.count,
                        "total": h.total,
                        "min": h.min,
                        "max": h.max,
                    }
                    for n, h in self._histograms.items()
                },
            }

    # -- worker shipping -------------------------------------------------
    def drain_deltas(self) -> dict:
        """Return counter/histogram contents and zero them (worker side).

        Gauges are process-local levels and do not travel.  The returned
        dict is plain data (picklable) shaped for :meth:`merge_deltas`.
        """
        with self._lock:
            counters = {}
            for n, c in self._counters.items():
                if c._value:
                    counters[n] = c._value
                    c._value = 0
            hists = {}
            for n, h in self._histograms.items():
                if h.count:
                    hists[n] = {
                        "counts": list(h.counts),
                        "count": h.count,
                        "total": h.total,
                        "min": h.min,
                        "max": h.max,
                    }
                    h.counts = [0] * N_HIST_BUCKETS
                    h.count = 0
                    h.total = 0
                    h.min = None
                    h.max = None
        return {"counters": counters, "histograms": hists}

    def merge_deltas(self, deltas: dict) -> None:
        """Fold a worker's drained deltas into this registry (parent side)."""
        for name, n in deltas.get("counters", {}).items():
            self.counter(name).add(n)
        for name, snap in deltas.get("histograms", {}).items():
            h = self.histogram(name)
            with self._lock:
                for i, c in enumerate(snap["counts"]):
                    h.counts[i] += c
                h.count += snap["count"]
                h.total += snap["total"]
                if snap["min"] is not None:
                    h.min = snap["min"] if h.min is None else min(h.min, snap["min"])
                if snap["max"] is not None:
                    h.max = snap["max"] if h.max is None else max(h.max, snap["max"])

    def reset(self) -> None:
        """Drop every metric (tests)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


def histogram_quantile(snap: dict, q: float) -> float:
    """Estimate the ``q``-quantile (0..1) of a histogram snapshot.

    ``snap`` is the plain-data form (:meth:`Histogram.snapshot` or one
    entry of :meth:`Registry.snapshot`).  The rank is located by walking
    the cumulative log2 bucket counts, then interpolated linearly inside
    the bucket's ``[lo, hi)`` range — the standard Prometheus estimate,
    so a p99 from ``--stats`` matches what a scrape-side
    ``histogram_quantile()`` would report.  The result is clamped to the
    exact observed ``[min, max]``, which also makes single-observation
    histograms report the observation itself rather than a bucket edge.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    total = snap["count"]
    if not total:
        return 0.0
    rank = q * total
    cum = 0.0
    value = float(snap["max"] if snap["max"] is not None else 0)
    for i, c in enumerate(snap["counts"]):
        if not c:
            continue
        if cum + c >= rank:
            lo, hi = bucket_bounds(i)
            value = lo + (hi - lo) * max(0.0, rank - cum) / c
            break
        cum += c
    if snap["min"] is not None:
        value = max(value, float(snap["min"]))
    if snap["max"] is not None:
        value = min(value, float(snap["max"]))
    return value


#: The process-global registry all engine instrumentation writes to.
REGISTRY = Registry()


def counter(name: str) -> Counter:
    """Shorthand for ``REGISTRY.counter(name)``."""
    return REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    """Shorthand for ``REGISTRY.gauge(name)``."""
    return REGISTRY.gauge(name)


def histogram(name: str) -> Histogram:
    """Shorthand for ``REGISTRY.histogram(name)``."""
    return REGISTRY.histogram(name)
