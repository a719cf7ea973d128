"""Throughput, completeness and memory of the trace sink (repro.obs.sink).

The sink writes each span synchronously on the offering thread.  Three
claims, measured at two trace lengths (the longer 10× the shorter):

* **Complete** — every offered span is written: ``events_written == n``
  and ``dropped == 0`` at both lengths, with spans offered back to back
  (a far denser stream than any traced command produces).
* **Per-span cost** — spans/second through :meth:`SpanSink.offer_span`
  to a real file, encode + write + flush included.  It must not degrade
  with trace length: the sink is O(1) per span.
* **Bounded memory** — the tracemalloc peak while streaming the long
  trace is at most 2× the peak of the short one: the writer holds no
  spans, so its memory does not grow with the trace.

The spans come from a fixed pool of 1,024 records offered in turn, so
the bench itself holds no per-span memory and the timing covers the
sink alone.  The memory pass runs separately from the timed pass, since
tracemalloc slows every allocation.

Results go to ``benchmarks/out/obs_sink.{txt,json}``.

``REPRO_BENCH_SMOKE=1`` (CI) shrinks the traces and additionally gates
long-trace throughput within 10× of short-trace throughput.
"""

import os
import time
import tracemalloc

from repro.obs import trace
from repro.obs.sink import SpanSink

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
N_SHORT = 20_000 if SMOKE else 200_000
N_LONG = 10 * N_SHORT
POOL = 1024


def _span_pool():
    pid = os.getpid()
    return [
        trace.SpanRecord(
            "analysis.pair", 1_000_000 + i * 1_000, 700, 500, pid, 1, {"i": i}
        )
        for i in range(POOL)
    ]


def _stream(path, spans, n, *, trace_memory=False):
    """Offer ``n`` spans to a fresh sink; (sink, offer_s, close_s, peak_bytes)."""
    sink = SpanSink(path)
    sink.offer_span(spans[0])  # first-sight pid bookkeeping, first sample
    if trace_memory:
        tracemalloc.start()
    t0 = time.perf_counter()
    for i in range(1, n):
        sink.offer_span(spans[i % POOL])
    offer_s = time.perf_counter() - t0
    peak = 0
    if trace_memory:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    t1 = time.perf_counter()
    sink.close()
    return sink, offer_s, time.perf_counter() - t1, peak


def test_sink_throughput_and_flat_memory(
    tmp_path, emit, emit_json, bench_params
):
    bench_params(n_short=N_SHORT, n_long=N_LONG)
    spans = _span_pool()
    rows = []
    per_stage = {}
    results = {}
    wall_s = 0.0
    for label, n in (("short", N_SHORT), ("long", N_LONG)):
        path = tmp_path / f"{label}.json"
        sink, offer_s, close_s, _ = _stream(path, spans, n)
        _, mem_offer_s, _, peak = _stream(path, spans, n, trace_memory=True)
        wall_s += offer_s + close_s + mem_offer_s
        results[label] = (sink, offer_s, peak, n)
        per_stage[f"offer_{label}"] = offer_s
        per_stage[f"close_{label}"] = close_s
        rows.append(
            f"{label:>6s}: {n:>9d} spans  "
            f"{offer_s / (n - 1) * 1e6:6.2f} us/span  "
            f"tracemalloc peak {peak / 1024:7.1f} KiB  "
            f"dropped {sink.dropped}  written {sink.events_written}"
        )

    # The completeness gate: every span written, nothing dropped.
    for sink, _, _, n in results.values():
        assert sink.events_written == n
        assert sink.dropped == 0

    # The bounded-memory gate: a 10x longer trace, no more than 2x memory.
    peak_short = results["short"][2]
    peak_long = results["long"][2]
    assert peak_long <= 2 * peak_short, (
        f"sink memory grew with trace length: peak {peak_long} B on the "
        f"long trace vs {peak_short} B on the short one"
    )

    # Throughput must not degrade super-linearly with trace length.
    rate_short = (N_SHORT - 1) / results["short"][1]
    rate_long = (N_LONG - 1) / results["long"][1]
    rows.append(
        f"  rate: short {rate_short / 1e3:.1f} long {rate_long / 1e3:.1f} "
        f"kspan/s (ratio {rate_short / rate_long:.2f}x)"
    )
    if SMOKE:
        assert rate_long * 10 > rate_short, (
            "offer path got 10x slower on a 10x longer trace — the sink "
            "is no longer O(1) per span"
        )

    text = "== trace sink (synchronous writer) ==\n" + "\n".join(rows) + "\n"
    emit("obs_sink", text)
    emit_json(
        "obs_sink",
        {
            "n_short": N_SHORT,
            "n_long": N_LONG,
            "us_per_span_short": results["short"][1] / (N_SHORT - 1) * 1e6,
            "us_per_span_long": results["long"][1] / (N_LONG - 1) * 1e6,
            "tracemalloc_peak_short": peak_short,
            "tracemalloc_peak_long": peak_long,
            "dropped_long": results["long"][0].dropped,
        },
        wall_s,
        per_stage,
    )
