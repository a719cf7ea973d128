"""Differential: streaming κ versus the batch analysis path, bit for bit.

Every case asserts ``StreamKappa.result() == compare_trials(...).metrics``
with dataclass equality — raw float comparison on all four components and
on κ itself, no tolerance.  The grid crosses:

* **profiles**: quiet (aligned, light jitter), reordered (jitter large
  enough to permute arrivals), droppy (drops plus non-baseline extras) —
  the three regimes of the paper's Section-3 comparisons;
* **adversarial permutations**: the :data:`~tests.ordering_corpus.CORPUS`
  sequences re-expressed as trial pairs, so the patience loop's worst
  cases flow through the full metric stack;
* **chunk sizes**: 1 and 13 always, 4096/65536 when the stream is long
  enough (the CI matrix feeds those via ``REPRO_STREAM_CHUNK``).

One case round-trips through ``save_series``/``analyze_directory`` so the
reference really is the batch *analysis* pipeline, files and all.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.analysis import analyze_directory, save_series
from repro.analysis.streamkappa import StreamKappa
from repro.core import Trial, compare_trials

from .conftest import make_trial, suite_rng
from .ordering_corpus import CORPUS


def _chunk_sizes(n: int) -> list[int]:
    sizes = {1, 13, 4096, 65536}
    raw = os.environ.get("REPRO_STREAM_CHUNK", "")
    if raw.strip():
        sizes.add(int(raw))
    return sorted(s for s in sizes if s <= n) or [max(n, 1)]


def _stream(baseline: Trial, run: Trial, chunk: int) -> StreamKappa:
    sk = StreamKappa(baseline)
    for lo in range(0, len(run), chunk):
        sk.update(run.tags[lo : lo + chunk], run.times_ns[lo : lo + chunk])
    return sk


def _assert_differential(a: Trial, b: Trial, context: object = "") -> None:
    want = compare_trials(a, b).metrics
    for chunk in _chunk_sizes(len(b)):
        got = _stream(a, b, chunk).result()
        assert got.u == want.u, (context, chunk, "U")
        assert got.o == want.o, (context, chunk, "O")
        assert got.l == want.l, (context, chunk, "L")
        assert got.i == want.i, (context, chunk, "I")
        assert got.kappa() == want.kappa(), (context, chunk, "kappa")
        assert got == want, (context, chunk)


def profile_pair(profile: str, n: int, salt: int) -> tuple[Trial, Trial]:
    """A (baseline, run) pair in one of the paper's three regimes."""
    rng = suite_rng(salt)
    tags = rng.integers(0, max(3, n // 4), size=n).astype(np.int64)
    gap = 500.0
    times = np.cumsum(rng.exponential(gap, size=n))
    a = make_trial(times, tags, label="A")
    if profile == "quiet":
        # Same packets, same order: jitter far below the smallest gap.
        bt = times + rng.uniform(0.0, 1e-3, size=n)
        return a, make_trial(bt, tags, label="B")
    if profile == "reordered":
        # Jitter of several mean gaps permutes arrivals but drops nothing.
        bt = times + rng.normal(0.0, 4 * gap, size=n)
        return a, Trial.from_arrival_events(tags, bt, label="B")
    if profile == "droppy":
        keep = rng.random(n) > rng.uniform(0.005, 0.1)
        bt = times[keep] + rng.normal(0.0, 2 * gap, size=int(keep.sum()))
        extra_n = max(2, n // 25)
        extra = rng.integers(1 << 20, (1 << 20) + 16, size=extra_n).astype(np.int64)
        extra_t = rng.uniform(times[0], times[-1], size=extra_n)
        return a, Trial.from_arrival_events(
            np.concatenate([tags[keep], extra]),
            np.concatenate([bt, extra_t]),
            label="B",
        )
    raise AssertionError(profile)


class TestProfileGrid:
    @pytest.mark.parametrize("profile", ["quiet", "reordered", "droppy"])
    @pytest.mark.parametrize("n,salt", [(120, 201), (400, 202)])
    def test_profile_times_chunks(self, profile, n, salt):
        a, b = profile_pair(profile, n, salt)
        _assert_differential(a, b, (profile, n))

    def test_large_stream_covers_big_chunks(self):
        """One pair long enough that 4096 enters the chunk grid unfiltered."""
        a, b = profile_pair("droppy", 5000, 203)
        assert 4096 in _chunk_sizes(len(b))
        _assert_differential(a, b, "droppy-5000")


class TestAdversarialPermutations:
    """The ordering corpus as trial pairs: B arrives in the permutation's
    order, so the matched A-positions in B order *are* the corpus sequence
    and the streaming O resumes the patience loop on exactly its worst
    cases."""

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_corpus_sequence_end_to_end(self, name):
        seq = CORPUS[name]
        n = seq.shape[0]
        rng = suite_rng(211)
        a = make_trial(np.cumsum(rng.exponential(200.0, size=n)), label="A")
        # B presents tag `seq[i]` as its i-th arrival; tags duplicated in
        # the corpus stream stress the occurrence matcher on top.
        bt = np.cumsum(rng.exponential(200.0, size=n))
        b = make_trial(bt, seq, label="B")
        _assert_differential(a, b, name)

    @pytest.mark.parametrize("name", ["block-rotation", "far-moved-packet"])
    def test_corpus_with_drops_on_top(self, name):
        seq = CORPUS[name]
        n = seq.shape[0]
        rng = suite_rng(212)
        a = make_trial(np.cumsum(rng.exponential(150.0, size=n)), label="A")
        keep = rng.random(n) > 0.07
        bt = np.cumsum(rng.exponential(150.0, size=int(keep.sum())))
        b = make_trial(bt, seq[keep], label="B")
        _assert_differential(a, b, (name, "droppy"))


class TestDegenerateShapes:
    def test_identical_trials(self):
        a, _ = profile_pair("quiet", 80, 221)
        _assert_differential(a, a.relabel("B"), "identical")

    def test_empty_run(self):
        a, _ = profile_pair("quiet", 40, 222)
        b = Trial(np.empty(0, dtype=np.int64), np.empty(0), label="B")
        _assert_differential(a, b, "empty-run")

    def test_empty_baseline(self):
        _, b = profile_pair("quiet", 40, 223)
        a = Trial(np.empty(0, dtype=np.int64), np.empty(0), label="A")
        _assert_differential(a, b, "empty-baseline")

    def test_disjoint_tag_sets(self):
        rng = suite_rng(224)
        a = make_trial(np.cumsum(rng.exponential(100.0, size=30)), label="A")
        b = make_trial(
            np.cumsum(rng.exponential(100.0, size=30)),
            np.arange(1000, 1030),
            label="B",
        )
        _assert_differential(a, b, "disjoint")

    def test_single_packet(self):
        a = make_trial([0.0], [7], label="A")
        b = make_trial([3.0], [7], label="B")
        _assert_differential(a, b, "single")


class TestAgainstAnalysisPipeline:
    """The reference is the full batch pipeline: captures written to disk,
    reloaded, and analyzed by ``analyze_directory``."""

    def test_streaming_equals_analyzed_directory(self, tmp_path):
        a, b1 = profile_pair("reordered", 200, 231)
        _, b2 = profile_pair("droppy", 200, 232)
        b2 = Trial(b2.tags, b2.times_ns, label="C")
        save_series([a, b1, b2], tmp_path / "series")
        report = analyze_directory(tmp_path / "series")
        assert len(report.pairs) == 2
        for pair, run in zip(report.pairs, (b1, b2)):
            got = _stream(a, run, 13).result()
            assert got == pair.metrics, pair.run_label
            assert got.kappa() == pair.kappa
