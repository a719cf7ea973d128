"""Streaming κ: the full metric vector — **including O** — over a live stream.

The LCS behind the ordering metric is a global property of the whole
permutation: no chunk-local bound survives a single far-moved packet.
This module streams every component anyway in the one regime online
monitoring needs: a **known baseline** (the recorded trial A every repeat
is compared against) and a run B arriving chunk by chunk.

Two comparators, two memory stories:

:class:`StreamKappa` — *exact*, O(|A| + common-so-far) state.
    At every chunk boundary :meth:`StreamKappa.result` equals
    ``compare_trials(A, B_prefix).metrics`` **bit for bit** — every float
    of U, O, L, I and κ, for any chunking of the same packets.  Three
    constructions make that possible:

    * **Incremental matching.**  Matching keys are ``(tag, occurrence)``
      (:mod:`repro.core.matching`); with A fixed, a B packet's key is
      final the moment it arrives.  Chunks go through the batch matcher's
      :class:`~repro.core.matching.BaselineIndex` into one A-length inverse
      map kept across chunks (a slot already claimed marks a repeated tag),
      so the map after any prefix is the batch map of that prefix.
    * **Streaming O via positions, not ranks.**  The batch metric runs the
      canonical patience LIS over *A-side ranks in B order*; ranks of
      earlier packets shift as later matches arrive, so ranks don't
      stream.  A-side *positions* do: the map position → rank over the
      final common set is a strictly increasing bijection, and patience
      state (pile indices, tie-breaks, predecessor links) depends only on
      the relative order of distinct values.  The patience kernel
      :func:`~repro.core.ordering.patience_fill` resumes from a live
      :class:`~repro.core.ordering.PileState` and leaves exactly the state
      of the element-at-a-time loop, so each chunk's matched positions are
      simply fed to it where the previous chunk stopped: the state after
      any chunking *is* the state of one serial pass over the prefix
      (indices and links, element for element) — the serial loop, resumed.
    * **Batch-identical reductions.**  Per-packet Δl/Δg are computed with
      the identical elementwise operations, stored, reordered to A order
      at :meth:`~StreamKappa.result`, and fed to the *same* reduction
      functions (:func:`~repro.core.latency.latency_from_deltas`,
      :func:`~repro.core.iat.iat_from_deltas`,
      :func:`~repro.core.ordering.edit_script_from_keep`) the batch path
      runs — same floats in, same operation order, same floats out.

    The per-session state is honestly linear in the prefix: a global LIS
    needs its predecessor links.  Exactness costs O(session); boundedness
    is the monitor's job.

:class:`KappaMonitor` — *bounded*, O(window) state per session.
    Tracks N concurrent sessions; each session's baseline and run streams
    are cut into tumbling windows on their own relative timelines, a
    window closing when **both** streams have passed its end.  Each closed
    window gets a window-local :class:`~repro.core.kappa.MetricVector`
    (full Section-3 metrics of the window's packets, window-local
    normalizers — a *diagnostic* series, like :mod:`repro.core.windows`,
    not a decomposition of the whole-session κ), buffers are dropped at
    close, and the windowed κ history (a bounded ring) runs through
    :func:`repro.analysis.changepoints.detect_series_steps` to flag live
    degradations.  Window membership depends only on timestamps, so the
    per-window series is invariant to chunking too.

Both are instrumented with :mod:`repro.obs` spans and counters, wired to
``repro monitor`` in the CLI, and benchmarked by
``benchmarks/bench_streaming_kappa.py`` (throughput and peak per-session
bytes vs. session length).  See ``docs/streaming.md`` for the design
notes and the exactness argument in full.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.kappa import MetricVector
from ..core.matching import BaselineIndex, Matching, match_trials
from ..core.iat import iat_from_deltas, iat_from_matching
from ..core.latency import latency_from_deltas, latency_from_matching
from ..core.ordering import (
    PileState,
    edit_script_from_keep,
    edit_script_from_matching,
    lis_indices_from_state,
    ordering_from_matching,
    patience_fill,
)
from ..core.trial import Trial, as_tags
from ..core.uniqueness import uniqueness_from_matching
from ..core.windows import WindowedDeviation, deviation_from_deltas
from ..obs import metrics
from ..obs.trace import span
from .changepoints import detect_series_steps

__all__ = [
    "StreamKappa",
    "KappaMonitor",
    "WindowReport",
    "DegradationEvent",
]


class _Grow:
    """Append-only typed buffer with amortized-doubling capacity."""

    __slots__ = ("_buf", "_n")

    def __init__(self, dtype) -> None:
        self._buf = np.empty(16, dtype=dtype)
        self._n = 0

    def extend(self, values: np.ndarray) -> None:
        need = self._n + values.shape[0]
        if need > self._buf.shape[0]:
            buf = np.empty(max(need, 2 * self._buf.shape[0]), dtype=self._buf.dtype)
            buf[: self._n] = self._buf[: self._n]
            self._buf = buf
        self._buf[self._n : need] = values
        self._n = need

    def view(self) -> np.ndarray:
        return self._buf[: self._n]

    @property
    def nbytes(self) -> int:
        return int(self._buf.nbytes)


class StreamKappa:
    """Exact incremental Section-3 comparison against a known baseline.

    Feed the run's packets in arrival order via :meth:`update` (any chunk
    sizes); :meth:`result` at any chunk boundary returns the metric vector
    ``compare_trials(baseline, B_prefix).metrics`` would — bit-identical,
    including the global-LCS ordering metric O, which streams through the
    serial patience loop resumed chunk by chunk (module docstring has the
    argument).

    State grows as O(|baseline| + common packets seen): the global LIS
    keeps predecessor links per common packet.  For bounded-memory
    monitoring of long sessions use :class:`KappaMonitor`.
    """

    def __init__(self, baseline: Trial, *, run_label: str = "stream") -> None:
        self._a = baseline
        self.run_label = run_label

        self._index = BaselineIndex.of(baseline)
        # A position -> run position of its match, -1 while unmatched;
        # per-tag run counts only when A repeats tags.
        self._inv = np.full(len(baseline), -1, dtype=np.intp)
        self._seen = (
            np.zeros(len(baseline), dtype=np.int64)
            if self._index.has_duplicates
            else None
        )

        # Per-baseline-packet series the delta math reads (precomputed with
        # the same elementwise ops the batch path uses).
        self._rel_a = baseline.relative_times_ns()
        self._iats_a = baseline.iats_ns()

        # Run-side running state.
        self._n_b = 0
        self._first_b: float | None = None
        self._last_b = 0.0
        self._pos_a = _Grow(np.intp)
        self._dl = _Grow(np.float64)
        self._dg = _Grow(np.float64)
        # Patience piles over matched A-positions in arrival order, with a
        # predecessor link per common packet.
        self._piles = PileState(np.int64)

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def update(self, tags, times_ns) -> None:
        """Consume one chunk of the run's packets, in arrival order.

        Chunk boundaries are invisible to the final metrics: any split of
        the same packet stream yields identical state (the property suite
        pins this bit-for-bit).  Raises ``ValueError`` on misshapen chunks
        or timestamps that go backwards (within the chunk or across the
        stream) — a trial is a sequence in arrival order.
        """
        tags = as_tags(tags)
        times = np.ascontiguousarray(times_ns, dtype=np.float64)
        if tags.ndim != 1 or times.ndim != 1 or tags.shape[0] != times.shape[0]:
            raise ValueError("tags and times_ns must be equal-length 1-D arrays")
        n = int(tags.shape[0])
        if n == 0:
            return
        if not np.all(np.isfinite(times)):
            raise ValueError("times_ns must be finite")
        if np.any(np.diff(times) < 0) or (
            self._n_b > 0 and times[0] < self._last_b
        ):
            raise ValueError(
                "times_ns must be non-decreasing across the stream: a trial "
                "is the sequence of packets in arrival order"
            )

        with span("analysis.stream.update", n=n):
            if self._first_b is None:
                self._first_b = float(times[0])
                prev_t = float(times[0])
            else:
                prev_t = self._last_b
            # Gap vs. the previous packet of the *full* stream — one packet
            # of carry; the paper's base case zeroes the very first gap.
            g_b = np.diff(times, prepend=prev_t)
            if self._n_b == 0:
                g_b[0] = 0.0

            matched = self._match_chunk(tags, times, g_b)

            self._last_b = float(times[-1])
            self._n_b += n
            metrics.counter("stream.chunks").add(1)
            metrics.counter("stream.packets").add(n)
            metrics.counter("stream.matched").add(matched)

    def _match_chunk(self, tags, times, g_b) -> int:
        """Resolve one chunk's matches and fold them into all running state."""
        pos_a_new, jb = self._index.claim(tags, self._inv, self._n_b, self._seen)
        n_new = int(pos_a_new.shape[0])
        if n_new == 0:
            return 0

        # Per-packet deltas, elementwise-identical to the batch path.
        dl_new = (times[jb] - self._first_b) - self._rel_a[pos_a_new]
        dg_new = g_b[jb] - self._iats_a[pos_a_new]

        # Streaming O: resume the patience sort on the chunk's matched
        # A-positions, new elements indexed after the prefix.
        patience_fill(pos_a_new, self._piles)

        self._pos_a.extend(pos_a_new)
        self._dl.extend(dl_new)
        self._dg.extend(dg_new)
        return n_new

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def matching(self) -> Matching:
        """The exact batch :class:`~repro.core.matching.Matching` of the prefix."""
        return Matching.from_inverse(self._inv, self._pos_a.view(), self._n_b)

    def _in_a_order(self, m: Matching, values: np.ndarray) -> np.ndarray:
        """Per-match ``values`` (arrival order) re-listed in A order."""
        out = np.empty_like(values)
        out[m.a_ranks_in_b_order()] = values
        return out

    def result(self) -> MetricVector:
        """The metric vector of ``(baseline, stream prefix)`` — batch-exact.

        Equals ``compare_trials(baseline, prefix).metrics`` bit for bit at
        every chunk boundary: the matching, the canonical LIS keep-mask
        (walked out of the live patience state) and the Δl/Δg arrays are
        reassembled in A order and pushed through the *same* reduction
        functions the batch path runs.
        """
        with span("analysis.stream.result", n_common=self._pos_a._n):
            m = self.matching()
            n_c = m.n_common
            u = uniqueness_from_matching(m)

            keep = np.zeros(n_c, dtype=bool)
            keep[lis_indices_from_state(self._piles)] = True
            script = edit_script_from_keep(m, m.a_ranks_in_b_order(), keep)
            o = ordering_from_matching(m, script)

            if n_c == 0:
                lat = iat = 0.0
            else:
                span_ns = max(
                    self._last_b - self._a.start_ns,
                    self._a.end_ns - self._first_b,
                    self._a.duration_ns,
                    self._last_b - self._first_b,
                )
                dl, dg = (self._in_a_order(m, g.view()) for g in (self._dl, self._dg))
                lat = latency_from_deltas(dl, n_c, span_ns)
                denom = (self._last_b - self._first_b) + (
                    self._a.end_ns - self._a.start_ns
                )
                iat = iat_from_deltas(dg, n_c, denom)
            return MetricVector(u, o, lat, iat)

    def windowed(self, window_ns: float) -> WindowedDeviation:
        """Per-window |Δl|/|Δg| deviation series over the prefix, batch-exact.

        Runs the same aggregation as
        :func:`repro.core.windows.windowed_deviation` on the accumulated
        deltas, so the series equals the batch one on the same prefix.
        """
        if self._a.is_empty:
            raise ValueError("baseline trial is empty")
        m = self.matching()
        return deviation_from_deltas(
            self._rel_a,
            m.idx_a,
            np.abs(self._in_a_order(m, self._dl.view())),
            np.abs(self._in_a_order(m, self._dg.view())),
            window_ns,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_packets(self) -> int:
        """Run packets consumed so far."""
        return self._n_b

    @property
    def n_common(self) -> int:
        """Common packets matched so far (``|A ∩ B_prefix|``)."""
        return self._pos_a._n

    @property
    def state_bytes(self) -> int:
        """Bytes of live mutable state (excluding the baseline arrays).

        Every buffer counts its allocated capacity, the pile state's tails
        and predecessor links included.
        """
        return int(
            self._inv.nbytes
            + (0 if self._seen is None else self._seen.nbytes)
            + self._pos_a.nbytes
            + self._dl.nbytes
            + self._dg.nbytes
            + self._piles.nbytes
        )

    @property
    def peak_bytes(self) -> int:
        """High-water mark of :attr:`state_bytes` over the stream so far.

        Every buffer only grows, so this is the current size.
        """
        return self.state_bytes


# ----------------------------------------------------------------------
# Bounded multi-session monitoring
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class WindowReport:
    """One closed monitoring window of one session.

    ``vector`` holds the window-local Section-3 metrics (window-local
    normalizers — a diagnostic series, not a decomposition of the
    whole-session κ; see the module docstring).
    """

    session: str
    index: int
    start_ns: float
    window_ns: float
    n_baseline: int
    n_run: int
    vector: MetricVector

    @property
    def kappa(self) -> float:
        """Equation 5 of this window's local vector."""
        return self.vector.kappa()


@dataclass(frozen=True)
class DegradationEvent:
    """A flagged downward step in a session's windowed κ series."""

    session: str
    window: int
    kappa_step: float
    kappa_before: float
    kappa_after: float


def _window_vector(a: Trial, b: Trial) -> MetricVector:
    """Window-local metric vector (full Section-3 math on the window's packets)."""
    m = match_trials(a, b)
    script = edit_script_from_matching(m)
    return MetricVector(
        uniqueness_from_matching(m),
        ordering_from_matching(m, script),
        latency_from_matching(a, b, m),
        iat_from_matching(a, b, m),
    )


class _Session:
    """One monitored session: per-window buffers plus a bounded κ ring."""

    __slots__ = (
        "epoch_a", "epoch_b", "rel_last_a", "rel_last_b", "buffers",
        "next_close", "kappas", "ring_start", "flagged", "peak", "done",
    )

    def __init__(self) -> None:
        self.epoch_a: float | None = None
        self.epoch_b: float | None = None
        self.rel_last_a = -1.0
        self.rel_last_b = -1.0
        # window index -> [tags_a chunks, times_a chunks, tags_b, times_b]
        self.buffers: dict[int, list[list[np.ndarray]]] = {}
        self.next_close = 0
        self.kappas: list[float] = []
        self.ring_start = 0
        self.flagged: set[int] = set()
        self.peak = 0
        self.done = False

    def bytes_now(self) -> int:
        total = 8 * len(self.kappas)
        for parts in self.buffers.values():
            for chunks in parts:
                total += sum(c.nbytes for c in chunks)
        return total


class KappaMonitor:
    """Live windowed κ for many concurrent sessions, with bounded state.

    Each *session* is one (baseline, run) stream pair, fed incrementally
    via :meth:`feed_baseline` / :meth:`feed_run` (any chunk sizes; the
    per-window series is chunking-invariant).  Both streams are cut into
    tumbling ``window_ns`` windows on their own relative timelines; a
    window closes — returning a :class:`WindowReport` — once both streams
    have moved past its end, and its buffers are freed immediately, so
    per-session memory is O(open windows · window packets), not
    O(session length).  The windowed κ history (bounded ring of
    ``history`` values) is scanned after every close by
    :func:`~repro.analysis.changepoints.detect_series_steps`; downward
    steps of at least ``min_kappa_step`` raise :class:`DegradationEvent`
    entries in :attr:`degraded`.

    Windows are matched locally: a packet pair straddling a window
    boundary counts as missing on both sides of it.  That is the price of
    bounded memory, and why the series is a monitoring diagnostic — exact
    whole-session metrics come from :class:`StreamKappa`.
    """

    def __init__(
        self,
        window_ns: float,
        *,
        min_kappa_step: float = 0.02,
        z_threshold: float = 6.0,
        history: int = 128,
        min_windows: int = 8,
        max_open_windows: int = 64,
    ) -> None:
        if window_ns <= 0:
            raise ValueError("window_ns must be positive")
        if min_kappa_step <= 0 or z_threshold <= 0:
            raise ValueError("thresholds must be positive")
        if history < min_windows or min_windows < 4:
            raise ValueError("need history >= min_windows >= 4")
        if max_open_windows < 1:
            raise ValueError("max_open_windows must be >= 1")
        self.window_ns = float(window_ns)
        self.min_kappa_step = float(min_kappa_step)
        self.z_threshold = float(z_threshold)
        self.history = int(history)
        self.min_windows = int(min_windows)
        self.max_open_windows = int(max_open_windows)
        #: session -> degradation events, in detection order.
        self.degraded: dict[str, list[DegradationEvent]] = {}
        self._sessions: dict[str, _Session] = {}

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------
    def feed_baseline(self, session: str, tags, times_ns) -> list[WindowReport]:
        """Feed one chunk of a session's baseline stream; return closed windows."""
        return self._feed(session, "a", tags, times_ns)

    def feed_run(self, session: str, tags, times_ns) -> list[WindowReport]:
        """Feed one chunk of a session's run stream; return closed windows."""
        return self._feed(session, "b", tags, times_ns)

    def _feed(self, session: str, side: str, tags, times_ns) -> list[WindowReport]:
        tags = as_tags(tags)
        times = np.ascontiguousarray(times_ns, dtype=np.float64)
        if tags.ndim != 1 or times.ndim != 1 or tags.shape[0] != times.shape[0]:
            raise ValueError("tags and times_ns must be equal-length 1-D arrays")
        s = self._sessions.get(session)
        if s is None:
            s = self._sessions[session] = _Session()
            metrics.gauge("monitor.sessions").set(len(self._sessions))
        if s.done:
            raise ValueError(f"session {session!r} is already finished")
        if tags.shape[0] == 0:
            return []

        epoch = s.epoch_a if side == "a" else s.epoch_b
        rel_last = s.rel_last_a if side == "a" else s.rel_last_b
        if epoch is None:
            epoch = float(times[0])
        rel = times - epoch
        if np.any(np.diff(rel) < 0) or rel[0] < max(rel_last, 0.0):
            raise ValueError("times_ns must be non-decreasing across the stream")

        # Group the chunk's packets by window; buffered slices are copies,
        # so the caller's (possibly huge) chunk array is never pinned.
        win = (rel / self.window_ns).astype(np.int64)
        cuts = np.flatnonzero(np.diff(win)) + 1
        off = 0 if side == "a" else 2
        for seg_tags, seg_times, w in zip(
            np.split(tags, cuts), np.split(times, cuts), win[np.r_[0, cuts]]
        ):
            parts = s.buffers.get(int(w))
            if parts is None:
                parts = s.buffers[int(w)] = [[], [], [], []]
            parts[off].append(seg_tags.copy())
            parts[off + 1].append(seg_times.copy())

        if side == "a":
            s.epoch_a, s.rel_last_a = epoch, float(rel[-1])
        else:
            s.epoch_b, s.rel_last_b = epoch, float(rel[-1])
        metrics.counter("monitor.packets").add(int(tags.shape[0]))

        reports = self._close_ready(session, s)
        open_hi = max(s.buffers, default=s.next_close)
        if open_hi - s.next_close + 1 > self.max_open_windows:
            raise RuntimeError(
                f"session {session!r} holds {open_hi - s.next_close + 1} open "
                f"windows (> {self.max_open_windows}): one stream is lagging "
                "too far behind for bounded-memory monitoring"
            )
        cur = s.bytes_now()
        if cur > s.peak:
            s.peak = cur
        return reports

    def _close_ready(self, session: str, s: _Session) -> list[WindowReport]:
        """Close every window both streams have fully passed."""
        reports = []
        if s.epoch_a is None or s.epoch_b is None:
            return reports
        ready = min(s.rel_last_a, s.rel_last_b)
        while (s.next_close + 1) * self.window_ns <= ready:
            reports.append(self._close(session, s, s.next_close))
            s.next_close += 1
        return reports

    def _close(self, session: str, s: _Session, w: int) -> WindowReport:
        parts = s.buffers.pop(w, None) or [[], [], [], []]
        empty_t = np.empty(0, dtype=np.int64)
        empty_ns = np.empty(0, dtype=np.float64)
        tags_a = np.concatenate(parts[0]) if parts[0] else empty_t
        times_a = np.concatenate(parts[1]) if parts[1] else empty_ns
        tags_b = np.concatenate(parts[2]) if parts[2] else empty_t
        times_b = np.concatenate(parts[3]) if parts[3] else empty_ns
        with span("analysis.monitor.window", session=session, window=w):
            vec = _window_vector(Trial(tags_a, times_a), Trial(tags_b, times_b))
        kappa = vec.kappa()
        # Publish the freshest windowed κ to the live observation channel
        # (/metrics, counter tracks) — one labeled gauge per session.
        # Observation only: nothing here feeds back into any metric.
        from ..obs.live import LIVE_GAUGES

        LIVE_GAUGES.set("monitor.window_kappa", {"session": session}, kappa)
        LIVE_GAUGES.set(
            "monitor.window_index", {"session": session}, float(w)
        )
        s.kappas.append(kappa)
        drop = len(s.kappas) - self.history
        if drop > 0:
            del s.kappas[:drop]
            s.ring_start += drop
        metrics.counter("monitor.windows").add(1)
        self._detect(session, s)
        return WindowReport(
            session=session,
            index=w,
            start_ns=w * self.window_ns,
            window_ns=self.window_ns,
            n_baseline=int(tags_a.shape[0]),
            n_run=int(tags_b.shape[0]),
            vector=vec,
        )

    def _detect(self, session: str, s: _Session) -> None:
        """Scan the κ ring for fresh downward steps; record new events."""
        if len(s.kappas) < self.min_windows:
            return
        steps = detect_series_steps(
            np.asarray(s.kappas),
            min_step=self.min_kappa_step,
            z_threshold=self.z_threshold,
        )
        for step in steps:
            g = s.ring_start + step.index
            if step.step_ns >= 0 or g in s.flagged:
                continue
            s.flagged.add(g)
            self.degraded.setdefault(session, []).append(
                DegradationEvent(
                    session=session,
                    window=g,
                    kappa_step=step.step_ns,
                    kappa_before=step.mean_before_ns,
                    kappa_after=step.mean_after_ns,
                )
            )
            metrics.counter("monitor.degradations").add(1)

    # ------------------------------------------------------------------
    # End of stream and introspection
    # ------------------------------------------------------------------
    def finish(self, session: str) -> list[WindowReport]:
        """Declare a session's streams ended; close and return all open windows."""
        s = self._sessions.get(session)
        if s is None:
            raise KeyError(f"unknown session {session!r}")
        reports = []
        if not s.done:
            last = max(s.buffers, default=s.next_close - 1)
            while s.next_close <= last:
                reports.append(self._close(session, s, s.next_close))
                s.next_close += 1
            s.done = True
            cur = s.bytes_now()
            if cur > s.peak:
                s.peak = cur
        return reports

    @property
    def sessions(self) -> list[str]:
        """Session names seen so far, in first-feed order."""
        return list(self._sessions)

    def kappa_history(self, session: str) -> np.ndarray:
        """The retained windowed κ ring of a session (most recent windows)."""
        return np.asarray(self._sessions[session].kappas, dtype=np.float64)

    def window_count(self, session: str) -> int:
        """Number of windows closed for a session so far."""
        return self._sessions[session].next_close

    def peak_bytes(self, session: str) -> int:
        """High-water mark of a session's buffered state, in bytes."""
        return self._sessions[session].peak
