"""Unit tests for pcap interoperability."""

import struct

import numpy as np
import pytest

from repro.analysis import MIN_FRAME_BYTES, CaptureFormatError, read_pcap, write_pcap
from repro.analysis.pcap import _frame_template, _ipv4_checksum
from repro.core import uniqueness_variation

from .conftest import comb_trial, make_trial


class TestFrameSynthesis:
    def test_template_is_valid_ipv4(self):
        f = _frame_template(1400)
        assert f.shape == (1400,)
        assert tuple(f[12:14]) == (0x08, 0x00)  # EtherType IPv4
        assert f[14] == 0x45
        ip_len = (int(f[16]) << 8) | int(f[17])
        assert ip_len == 1400 - 14
        # Checksum verifies: recompute over header with checksum zeroed.
        hdr = f[14:34].copy()
        stored = (int(hdr[10]) << 8) | int(hdr[11])
        hdr[10] = hdr[11] = 0
        assert _ipv4_checksum(hdr) == stored

    def test_rejects_too_small_frames(self):
        with pytest.raises(ValueError, match="frame_bytes"):
            _frame_template(MIN_FRAME_BYTES - 1)


class TestRoundtrip:
    def test_roundtrip_preserves_trial(self, tmp_path):
        t = comb_trial(500, gap_ns=284.0, label="A")
        p = write_pcap(t, tmp_path / "a.pcap")
        result = read_pcap(p, label="A")
        assert result.n_frames == 500
        assert result.n_corrupted == 0
        np.testing.assert_array_equal(result.trial.tags, t.tags)
        np.testing.assert_allclose(result.trial.times_ns, t.times_ns, atol=1.0)

    def test_roundtrip_metrics_identity(self, tmp_path):
        t = comb_trial(200, label="A")
        back = read_pcap(write_pcap(t, tmp_path / "a.pcap")).trial
        assert uniqueness_variation(t, back) == 0.0

    def test_negative_times_rejected(self, tmp_path):
        t = make_trial([-5.0, 10.0])
        with pytest.raises(ValueError, match="unsigned"):
            write_pcap(t, tmp_path / "x.pcap")

    def test_empty_trial(self, tmp_path):
        t = make_trial([])
        result = read_pcap(write_pcap(t, tmp_path / "e.pcap"))
        assert result.n_frames == 0
        assert len(result.trial) == 0

    def test_large_timestamps_roundtrip(self, tmp_path):
        # Multi-second epochs exercise the sec/nsec split.
        t = make_trial([3.5e9, 3.5e9 + 284.0, 7.2e9])
        back = read_pcap(write_pcap(t, tmp_path / "x.pcap")).trial
        np.testing.assert_allclose(back.times_ns, t.times_ns, atol=1.0)


class TestCorruption:
    def test_corrupted_trailer_counted_and_excluded(self, tmp_path):
        t = comb_trial(50, label="A")
        p = write_pcap(t, tmp_path / "a.pcap", frame_bytes=128)
        raw = bytearray(p.read_bytes())
        # Flip a byte inside the 10th packet's trailer.
        rec_len = 16 + 128
        off = 24 + 9 * rec_len + rec_len - 8
        raw[off] ^= 0xFF
        p.write_bytes(bytes(raw))
        result = read_pcap(p)
        assert result.n_corrupted == 1
        assert len(result.trial) == 49
        # The corrupted packet is "missing": U sees it (Section 3).
        assert uniqueness_variation(t, result.trial) == pytest.approx(1 / 99)

    def test_unknown_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.pcap"
        p.write_bytes(struct.pack("<IHHiIII", 0xDEADBEEF, 2, 4, 0, 0, 65535, 1))
        with pytest.raises(ValueError, match="magic"):
            read_pcap(p)

    def test_truncated_record_rejected(self, tmp_path):
        t = comb_trial(5)
        p = write_pcap(t, tmp_path / "x.pcap", frame_bytes=64)
        raw = p.read_bytes()
        p.write_bytes(raw[:-10])
        with pytest.raises(ValueError, match="truncated"):
            read_pcap(p)

    def test_every_truncation_is_a_prefix_or_a_format_error(self, tmp_path):
        """A cut inside a record is a CaptureFormatError; at a boundary, a prefix."""
        t = comb_trial(4)
        p = write_pcap(t, tmp_path / "x.pcap", frame_bytes=64)
        raw = p.read_bytes()
        for cut in range(len(raw)):
            p.write_bytes(raw[:cut])
            if cut >= 24 and (cut - 24) % (16 + 64) == 0:
                n = (cut - 24) // (16 + 64)
                assert np.array_equal(read_pcap(p).trial.tags, t.tags[:n])
                continue
            with pytest.raises(CaptureFormatError):
                read_pcap(p)

    def test_foreign_short_frames_counted(self, tmp_path):
        p = tmp_path / "mixed.pcap"
        header = struct.pack("<IHHiIII", 0xA1B23C4D, 2, 4, 0, 0, 65535, 1)
        # One 8-byte frame: too short for a trailer.
        rec = struct.pack("<IIII", 0, 100, 8, 8) + b"\0" * 8
        p.write_bytes(header + rec)
        result = read_pcap(p)
        assert result.n_foreign == 1
        assert len(result.trial) == 0

    def test_microsecond_magic_accepted(self, tmp_path):
        """Legacy µs-resolution captures parse with scaled timestamps."""
        t = make_trial([0.0, 2000.0])  # 2 µs apart
        p = write_pcap(t, tmp_path / "x.pcap", frame_bytes=64)
        raw = bytearray(p.read_bytes())
        # Rewrite magic to µs and timestamps from ns to µs fields.
        struct.pack_into("<I", raw, 0, 0xA1B2C3D4)
        rec_len = 16 + 64
        for i in range(2):
            off = 24 + i * rec_len
            sec, nsec, incl, orig = struct.unpack_from("<IIII", raw, off)
            struct.pack_into("<IIII", raw, off, sec, nsec // 1000, incl, orig)
        p.write_bytes(bytes(raw))
        back = read_pcap(p).trial
        np.testing.assert_allclose(back.times_ns, [0.0, 2000.0], atol=1000.0)
