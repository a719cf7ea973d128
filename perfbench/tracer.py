"""Per-layer attribution, timed from outside the program.

The traced run wraps the public entry point of each layer with a timing
wrapper, keeps every span in memory, and afterwards turns the spans into
self time per layer (a span's duration minus the part its child spans
cover).  Nothing inside ``repro`` is edited: a wrapper replaces the
function or method where the program looks it up, and :meth:`Tracer.uninstall`
puts every original back.

A module-level function is replaced in *every* loaded ``repro`` module
that holds it under that name (``fifo_tail_drop`` is called through the
name ``repro.net.sriov`` imported, ``patience_fill`` through
``repro.core.ordering`` and ``repro.parallel.ordershard``).  A method is
replaced on its class and on every subclass that overrides it.  Every
target's module is imported first.  A target that no longer exists is
skipped and listed in :attr:`Tracer.missing`, so
a refactor that moves a layer shows up as a zero and a note, never as a
crash.

Counters (packets through the tail-drop queue, drops, stalls, patience
elements, bytes stored) are taken by hooks that run outside the layer's
span.  Their time is recorded as ``trace.bookkeeping`` spans, so it is
charged to the tracer, never to the layer that called the wrapped
function.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
from dataclasses import dataclass
from time import perf_counter_ns

import numpy as np

__all__ = ["LAYERS", "Layer", "Tracer", "layer_metric_names"]

BOOKKEEPING = "trace.bookkeeping"
_INT64_MIN = np.iinfo(np.int64).min


@dataclass(frozen=True)
class Layer:
    """One layer metric and the entry points whose time it collects.

    ``targets`` are ``("func", module, name)`` or
    ``("method", module, class, name)`` tuples.
    """

    name: str
    targets: tuple[tuple[str, ...], ...]


def _func(module: str, name: str) -> tuple[str, ...]:
    return ("func", module, name)


def _method(module: str, cls: str, name: str) -> tuple[str, ...]:
    return ("method", module, cls, name)


#: Every layer the traced run attributes time to, in report order.
LAYERS: tuple[Layer, ...] = (
    Layer("net.tail_drop_ms", (_func("repro.net.queueing", "fifo_tail_drop"),)),
    Layer("net.sharedport_ms", (_method("repro.net.sriov", "SharedPort", "traverse"),)),
    Layer("generators.tcpnoise_ms", (
        _method("repro.generators.tcpnoise", "TCPNoiseGenerator", "generate"),)),
    Layer("replay.record_ms", (_method("repro.replay.choir", "ChoirNode", "record"),)),
    Layer("replay.replay_ms", (_method("repro.replay.choir", "ChoirNode", "replay"),)),
    Layer("net.switch_ms", (_method("repro.net.switch", "SwitchModel", "forward_merged"),)),
    Layer("net.link_ms", (_method("repro.net.link", "Link", "traverse"),)),
    Layer("generators.cbr_ms", (_method("repro.generators.cbr", "CBRGenerator", "generate"),)),
    Layer("timing.ptp_ms", (_method("repro.timing.ptp", "PTPDomain", "synchronize_all"),)),
    Layer("timing.stamp_ms", (_method("repro.timing.hwstamp", "RxTimestamper", "stamp"),)),
    Layer("timing.clock_steps_ms", (
        _method("repro.testbeds.profiles", "ClockStepModel", "apply"),)),
    Layer("core.match_ms", (_func("repro.core.matching", "match_trials"),)),
    Layer("core.edit_script_ms", (_func("repro.core.ordering", "edit_script"),)),
    Layer("core.patience_ms", (_func("repro.core.ordering", "patience_fill"),)),
    Layer("core.fused_ms", (_func("repro.core.fusedpass", "fused_timings"),)),
    Layer("core.uniqueness_ms", (
        _func("repro.core.uniqueness", "uniqueness_from_matching"),)),
    Layer("core.compare_ms", (_func("repro.core.report", "compare_trials"),)),
    Layer("core.trial_ms", (_method("repro.core.trial", "Trial", "__post_init__"),)),
    Layer("analysis.stream_update_ms", (
        _method("repro.analysis.streamkappa", "StreamKappa", "update"),)),
    Layer("analysis.stream_merge_ms", (
        _func("repro.parallel.ordershard", "merge_block_inplace"),)),
    Layer("analysis.stream_result_ms", (
        _method("repro.analysis.streamkappa", "StreamKappa", "result"),)),
    Layer("sweep.store_get_ms", (_method("repro.sweep.store", "ArtifactStore", "get"),)),
    Layer("sweep.store_put_ms", (_method("repro.sweep.store", "ArtifactStore", "put"),)),
    Layer("sweep.decode_ms", (
        _func("repro.analysis.capture", "read_capture"),
        _func("repro.sweep.codec", "series_report_from_dict"),
    )),
    Layer("sweep.encode_ms", (
        _func("repro.analysis.capture", "write_capture"),
        _func("repro.sweep.codec", "series_report_to_dict"),
    )),
    Layer("sweep.digest_ms", (_func("repro.sweep.store", "_sha256"),)),
)

#: Counters the hooks take, with their report unit.  Per-op counts are
#: divided by the traced op count; the two ratios are taken as shares.
COUNTERS = {
    "net.dropped": "count",
    "replay.stalls": "count",
    "core.patience_elems": "count",
    "sweep.store_bytes": "count",
}
#: Metrics derived from the spans and counters, with their unit.
DERIVED = {
    "net.tail_drop_ns_per_pkt": "ns",
    "core.patience_slow_frac": "ratio",
    "op.uncovered_ms": "ms",
    "op.covered_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


def layer_metric_names() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    names = {layer.name: "ms" for layer in LAYERS}
    names.update(COUNTERS)
    names.update(DERIVED)
    return names


# -- counter hooks ----------------------------------------------------------
# A hook is (pre, post): pre(args) runs before the call and returns state;
# post(tracer, state, args, result) runs after it.  Both are bookkeeping.

def _tail_drop_post(tracer, state, args, kwargs, result):
    tracer.count("net.tail_drop_pkts", len(args[0]))


def _sharedport_post(tracer, state, args, kwargs, result):
    tracer.count("net.dropped", result.n_dropped)


def _replay_post(tracer, state, args, kwargs, result):
    tracer.count("replay.stalls", result.n_stalls)


def _patience_pre(args, kwargs):
    tails_vals = args[1]
    return tails_vals[-1] if len(tails_vals) else None


def _patience_post(tracer, start, args, kwargs, result):
    values = np.asarray(args[0], dtype=np.int64)
    if values.size == 0:
        return
    running = np.maximum.accumulate(values)
    before = np.empty_like(running)
    before[0] = _INT64_MIN if start is None else start
    before[1:] = running[:-1]
    if start is not None:
        np.maximum(before, start, out=before)
    tracer.count("core.patience_elems", values.size)
    tracer.count("core.patience_slow", int(np.count_nonzero(values <= before)))


def _put_post(tracer, state, args, kwargs, result):
    store, digest = args[0], args[1]
    if result:
        entry = store.entry_dir(digest)
        tracer.count(
            "sweep.store_bytes", sum(p.stat().st_size for p in entry.iterdir())
        )


_HOOKS = {
    "net.tail_drop_ms": (None, _tail_drop_post),
    "net.sharedport_ms": (None, _sharedport_post),
    "replay.replay_ms": (None, _replay_post),
    "core.patience_ms": (_patience_pre, _patience_post),
    "sweep.store_put_ms": (None, _put_post),
}


# -- the tracer ---------------------------------------------------------------

class Tracer:
    """Install timing wrappers, record spans in memory, report self time."""

    def __init__(self) -> None:
        #: (op, parent span, name, start ns, end ns); ``None`` while open.
        self.spans: list = []
        #: Start and end of each traced op, indexed by op number.
        self.ops: list[tuple[int, int]] = []
        self.counters: dict[str, float] = {}
        #: Targets that could not be resolved, as dotted names.
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []
        #: id(wrapper) -> (wrapper, original); holding the wrapper keeps
        #: its id from being reused while the mapping is alive.
        self._originals: dict[int, tuple[object, object]] = {}

    # -- op boundaries --------------------------------------------------------
    def begin_op(self) -> None:
        self._op = len(self.ops)
        self.ops.append((perf_counter_ns(), 0))

    def end_op(self) -> None:
        start, _ = self.ops[self._op]
        self.ops[self._op] = (start, perf_counter_ns())
        self._op = -1

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    # -- wrapping ---------------------------------------------------------------
    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        pre, post = _HOOKS.get(name, (None, None))
        tracer = self

        def bookkeeping(parent: int, t0: int) -> None:
            spans.append((tracer._op, parent, BOOKKEEPING, t0, perf_counter_ns()))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            state = None
            if pre is not None:
                tb = perf_counter_ns()
                state = pre(args, kwargs)
                bookkeeping(parent, tb)
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans[sid] = (tracer._op, parent, name, t0, t1)
            if post is not None:
                tb = perf_counter_ns()
                post(tracer, state, args, kwargs, result)
                bookkeeping(parent, tb)
            return result

        self._originals[id(wrapper)] = (wrapper, fn)
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Replace every layer entry point with its timing wrapper."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.missing = []
        # Load every target's module first (a workload need not have), so
        # that each module is present before any name is replaced.
        for layer in LAYERS:
            for target in layer.targets:
                with contextlib.suppress(ImportError):
                    importlib.import_module(target[1])
        for layer in LAYERS:
            for target in layer.targets:
                if not self._install_target(layer.name, target):
                    self.missing.append(".".join(target[1:]))

    def _install_target(self, name: str, target: tuple[str, ...]) -> bool:
        module = sys.modules.get(target[1])
        if target[0] == "method":
            cls = getattr(module, target[2], None)
            if not isinstance(cls, type):
                return False
            owners = [cls, *_subclasses(cls)]
            found = False
            for owner in owners:
                if target[3] in owner.__dict__:
                    fn = owner.__dict__[target[3]]
                    self._set(owner, target[3], self._wrap(name, fn))
                    found = True
            return found
        fn = getattr(module, target[2], None)
        if not callable(fn):
            return False
        wrapper = self._wrap(name, fn)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro") and (
                mod.__dict__.get(target[2]) is fn
            ):
                self._set(mod, target[2], wrapper)
        return True

    def uninstall(self) -> None:
        """Put every original back, in reverse order of installation."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        # A repro module first imported while the wrappers were live bound
        # a wrapper by name; point it back at the original as well.
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(mod.__dict__.items()):
                pair = self._originals.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(mod, attr, pair[1])

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reporting --------------------------------------------------------------
    def report(self, untraced_s: float, traced_s: float) -> dict[str, float]:
        """Per-layer metrics: self time per traced op, counters, coverage.

        ``untraced_s``/``traced_s`` are the busy seconds of the same items
        run without and with the wrappers; their ratio is the overhead.
        """
        n_ops = max(len(self.ops), 1)
        durations = [0] * len(self.spans)
        child = [0] * len(self.spans)
        for i, (_op, parent, _name, t0, t1) in enumerate(self.spans):
            durations[i] = t1 - t0
            if parent >= 0:
                child[parent] += t1 - t0
        self_ns: dict[str, int] = {}
        root_layer_ns = 0
        root_bookkeeping_ns = 0
        for i, (op, parent, name, _t0, _t1) in enumerate(self.spans):
            self_ns[name] = self_ns.get(name, 0) + durations[i] - child[i]
            if parent < 0 and op >= 0:
                if name == BOOKKEEPING:
                    root_bookkeeping_ns += durations[i]
                else:
                    root_layer_ns += durations[i]
        op_ns = sum(t1 - t0 for t0, t1 in self.ops)
        work_ns = op_ns - root_bookkeeping_ns

        out: dict[str, float] = {}
        for layer in LAYERS:
            out[layer.name] = self_ns.get(layer.name, 0) / 1e6 / n_ops
        for name in COUNTERS:
            out[name] = self.counters.get(name, 0) / n_ops
        pkts = self.counters.get("net.tail_drop_pkts", 0)
        out["net.tail_drop_ns_per_pkt"] = (
            self_ns.get("net.tail_drop_ms", 0) / pkts if pkts else 0.0
        )
        elems = self.counters.get("core.patience_elems", 0)
        out["core.patience_slow_frac"] = (
            self.counters.get("core.patience_slow", 0) / elems if elems else 0.0
        )
        out["op.uncovered_ms"] = (work_ns - root_layer_ns) / 1e6 / n_ops
        out["op.covered_frac"] = root_layer_ns / work_ns if work_ns > 0 else 0.0
        out["trace.overhead_frac"] = traced_s / untraced_s - 1.0 if untraced_s > 0 else 0.0
        return out


def _subclasses(cls: type) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out
