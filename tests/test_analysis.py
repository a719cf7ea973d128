"""Unit tests for the offline analysis pipeline."""

import json

import numpy as np
import pytest

from repro.analysis import (
    CaptureFormatError,
    TrailerError,
    analyze_directory,
    format_si,
    join_tags,
    load_series,
    read_capture,
    render_histogram,
    render_metric_rows,
    render_report,
    render_series_table,
    render_table1,
    render_table2,
    save_series,
    split_tags,
    tag_to_trailer,
    trailer_to_tag,
    write_capture,
)
from repro.core import DeltaHistogram, compare_series

from .conftest import comb_trial, make_trial


class TestCaptureFormat:
    def test_roundtrip(self, tmp_path):
        t = make_trial(np.arange(100) * 7.5, label="B")
        t2 = read_capture(write_capture(t, tmp_path / "x.cho"))
        assert t2.label == "B"
        np.testing.assert_array_equal(t2.tags, t.tags)
        np.testing.assert_allclose(t2.times_ns, t.times_ns)

    def test_roundtrip_no_mmap(self, tmp_path):
        """The read copies the file whole: rewriting it cannot reach the trial."""
        t = comb_trial(50, label="A")
        p = write_capture(t, tmp_path / "x.cho")
        t2 = read_capture(p)
        write_capture(comb_trial(50, gap_ns=3.0, label="A"), p)
        assert t2 == t

    def test_sidecar_meta(self, tmp_path):
        """meta travels in the capture's header; no sidecar file is written."""
        t = make_trial([0.0], label="A")
        t.meta["environment"] = "env-7"
        t.meta["nested"] = {"k": [1, 2]}
        t2 = read_capture(write_capture(t, tmp_path / "x.cho"))
        assert t2.meta == {"environment": "env-7", "nested": {"k": [1, 2]}}
        assert [p.name for p in tmp_path.iterdir()] == ["x.cho"]

    def test_header_holds_whole_label_and_count(self, tmp_path):
        t = comb_trial(10, label="fabric-shared-run-B-é")
        p = write_capture(t, tmp_path / "x.cho")
        header = json.loads(p.read_bytes().split(b"\n")[1])
        assert header["kind"] == "capture"
        assert header["runs"] == [
            {"label": "fabric-shared-run-B-é", "meta": {}, "n": 10}
        ]
        assert read_capture(p).label == "fabric-shared-run-B-é"

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.cho"
        p.write_bytes(b"NOPE" + b"\0" * 100)
        with pytest.raises(CaptureFormatError, match="not a trial file"):
            read_capture(p)

    def test_cho1_capture_names_the_way_to_recreate_it(self, tmp_path):
        p = tmp_path / "old.cho"
        p.write_bytes(b"CHO1" + b"\0" * 28 + b"\0" * 16)
        with pytest.raises(CaptureFormatError, match="repro simulate -o") as ei:
            read_capture(p)
        assert ei.value.reason == "cho1"

    def test_store_entry_is_not_a_capture(self, tmp_path):
        from repro.core.trialfile import write_trials

        p = tmp_path / "entry.bin"
        with open(p, "wb") as f:
            write_trials(f, {"schema": 2, "digest": "0" * 64}, [comb_trial(4)])
        with pytest.raises(CaptureFormatError, match="kind") as ei:
            read_capture(p)
        assert ei.value.reason == "not-a-capture"

    def test_truncated_header(self, tmp_path):
        p = write_capture(comb_trial(10), tmp_path / "x.cho")
        p.write_bytes(p.read_bytes()[:40])
        with pytest.raises(CaptureFormatError, match="truncated"):
            read_capture(p)

    def test_truncated_payload(self, tmp_path):
        t = comb_trial(100)
        p = write_capture(t, tmp_path / "x.cho")
        raw = p.read_bytes()
        p.write_bytes(raw[: len(raw) - 64])
        with pytest.raises(CaptureFormatError, match="payload") as ei:
            read_capture(p)
        assert ei.value.reason == "payload-checksum"

    def test_empty_trial(self, tmp_path):
        t = make_trial([])
        t2 = read_capture(write_capture(t, tmp_path / "e.cho"))
        assert len(t2) == 0


class TestSeriesIO:
    def test_save_load_series(self, tmp_path):
        trials = [comb_trial(20, label=l) for l in "ABC"]
        save_series(trials, tmp_path / "series")
        back = load_series(tmp_path / "series")
        assert [t.label for t in back] == ["A", "B", "C"]
        # A shorter series saved over it replaces it whole.
        save_series(trials[:2], tmp_path / "series")
        assert [t.label for t in load_series(tmp_path / "series")] == ["A", "B"]

    def test_load_missing_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_series(tmp_path / "nothing")

    def test_analyze_directory(self, tmp_path):
        trials = [comb_trial(50, label=l) for l in "AB"]
        save_series(trials, tmp_path / "s")
        rep = analyze_directory(tmp_path / "s", environment="env")
        assert rep.environment == "env"
        assert rep.pairs[0].kappa == 1.0


class TestTagging:
    def test_split_join_roundtrip(self, rng):
        rids = rng.integers(0, 100, 50)
        seqs = rng.integers(0, 2**40, 50)
        tags = join_tags(rids, seqs)
        r2, s2 = split_tags(tags)
        np.testing.assert_array_equal(r2, rids)
        np.testing.assert_array_equal(s2, seqs)

    def test_join_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            join_tags(np.array([1 << 15]), np.array([0]))
        with pytest.raises(ValueError):
            join_tags(np.array([0]), np.array([1 << 48]))

    def test_trailer_roundtrip(self):
        tag = int(join_tags(np.array([3]), np.array([123456]))[0])
        assert trailer_to_tag(tag_to_trailer(tag)) == tag

    def test_trailer_is_16_bytes(self):
        assert len(tag_to_trailer(42)) == 16

    def test_corrupted_trailer_rejected(self):
        raw = bytearray(tag_to_trailer(42))
        raw[0] ^= 0xFF  # flip bits in the tag body
        with pytest.raises(TrailerError, match="checksum"):
            trailer_to_tag(bytes(raw))

    def test_wrong_length_rejected(self):
        with pytest.raises(TrailerError, match="16 bytes"):
            trailer_to_tag(b"short")


class TestRenderers:
    def test_format_si(self):
        assert format_si(0) == "0"
        assert format_si(5.0) == "5ns"
        assert format_si(-1500.0) == "-1.5us"
        assert format_si(2.5e6) == "2.5ms"
        assert format_si(3e9) == "3s"

    def test_render_histogram_nonempty(self, rng):
        h = DeltaHistogram.from_deltas(rng.normal(0, 100, 500), label="B")
        out = render_histogram(h, title="test:")
        assert "test:" in out
        assert "%" in out

    def test_render_histogram_empty(self):
        h = DeltaHistogram.from_deltas(np.array([]), label="B")
        assert "no packets" in render_histogram(h)

    def test_series_table_requires_shared_bins(self, rng):
        from repro.core import SymlogBins

        h1 = DeltaHistogram.from_deltas(rng.normal(0, 10, 50), SymlogBins())
        h2 = DeltaHistogram.from_deltas(
            rng.normal(0, 10, 50), SymlogBins(linthresh=5.0)
        )
        with pytest.raises(ValueError, match="share bin edges"):
            render_series_table([h1, h2])

    def test_series_table_output(self, rng):
        h = DeltaHistogram.from_deltas(rng.normal(0, 10, 50), label="B")
        out = render_series_table([h])
        assert "delta" in out and "B" in out

    def test_render_metric_rows(self):
        out = render_metric_rows([{"a": 1.0, "b": "x"}, {"a": 2.5e-7, "b": "y"}])
        assert "a" in out and "x" in out and "2.5" in out

    def test_render_report_and_tables(self):
        trials = [comb_trial(30, label=l) for l in "ABC"]
        rep = compare_series(trials, environment="env")
        text = render_report(rep)
        assert "env" in text and "per-run metrics" in text
        assert "Table 1" in render_table1(rep)
        assert "Table 2" in render_table2([rep])
