"""Unit tests for pcapng interoperability."""

import struct

import numpy as np
import pytest

from repro.analysis import CaptureFormatError
from repro.analysis.pcapng import (
    _BYTE_ORDER_MAGIC,
    _EPB_TYPE,
    _SHB_TYPE,
    read_pcapng,
    write_pcapng,
)
from repro.core import uniqueness_variation

from .conftest import comb_trial, make_trial


class TestRoundtrip:
    def test_roundtrip(self, tmp_path):
        t = comb_trial(300, gap_ns=284.0, label="A")
        result = read_pcapng(write_pcapng(t, tmp_path / "a.pcapng"), label="A")
        assert result.n_frames == 300
        assert result.n_corrupted == 0
        np.testing.assert_array_equal(result.trial.tags, t.tags)
        np.testing.assert_allclose(result.trial.times_ns, t.times_ns, atol=1.0)

    def test_roundtrip_metric_identity(self, tmp_path):
        t = comb_trial(100, label="A")
        back = read_pcapng(write_pcapng(t, tmp_path / "a.pcapng")).trial
        assert uniqueness_variation(t, back) == 0.0

    def test_empty(self, tmp_path):
        result = read_pcapng(write_pcapng(make_trial([]), tmp_path / "e.pcapng"))
        assert result.n_frames == 0
        assert len(result.trial) == 0

    def test_64bit_timestamps(self, tmp_path):
        """Epoch-scale ns timestamps exercise the hi/lo split."""
        t = make_trial([1.7e18, 1.7e18 + 284.0])
        back = read_pcapng(write_pcapng(t, tmp_path / "x.pcapng")).trial
        np.testing.assert_allclose(back.times_ns, t.times_ns, rtol=1e-12)

    def test_negative_times_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unsigned"):
            write_pcapng(make_trial([-1.0]), tmp_path / "x.pcapng")


class TestRobustness:
    def test_not_pcapng_rejected(self, tmp_path):
        p = tmp_path / "bad"
        p.write_bytes(b"\0" * 64)
        with pytest.raises(ValueError, match="not a pcapng"):
            read_pcapng(p)

    def test_unknown_blocks_skipped(self, tmp_path):
        t = comb_trial(5, label="A")
        p = write_pcapng(t, tmp_path / "x.pcapng", frame_bytes=128)
        raw = p.read_bytes()
        # Append a Name Resolution Block (type 4), empty body.
        nrb = struct.pack("<II", 4, 16) + b"\0\0\0\0" + struct.pack("<I", 16)
        p.write_bytes(raw + nrb)
        result = read_pcapng(p)
        assert result.n_skipped_blocks == 1
        assert len(result.trial) == 5

    def test_corrupted_trailer_counted(self, tmp_path):
        t = comb_trial(10, label="A")
        p = write_pcapng(t, tmp_path / "x.pcapng", frame_bytes=128)
        raw = bytearray(p.read_bytes())
        # Corrupt the LAST frame's trailer: it sits right before the
        # final 4-byte trailing length of the last EPB.
        raw[-12] ^= 0xFF
        p.write_bytes(bytes(raw))
        result = read_pcapng(p)
        assert result.n_corrupted == 1
        assert len(result.trial) == 9

    def test_malformed_block_rejected(self, tmp_path):
        t = comb_trial(2)
        p = write_pcapng(t, tmp_path / "x.pcapng")
        raw = bytearray(p.read_bytes())
        struct.pack_into("<I", raw, 4, 7)  # SHB length not multiple of 4
        p.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="malformed"):
            read_pcapng(p)

    def test_every_truncation_is_a_prefix_or_a_format_error(self, tmp_path):
        """A cut inside a block is a CaptureFormatError; between blocks, a prefix."""
        t = comb_trial(3)
        p = write_pcapng(t, tmp_path / "x.pcapng", frame_bytes=64)
        raw = p.read_bytes()
        boundaries, off = set(), 0
        while off < len(raw):
            boundaries.add(off)
            off += struct.unpack_from("<I", raw, off + 4)[0]
        for cut in range(len(raw)):
            p.write_bytes(raw[:cut])
            if cut in boundaries and cut >= 28:  # past the section header
                got = read_pcapng(p).trial
                assert np.array_equal(got.tags, t.tags[: len(got)])
            else:
                with pytest.raises(CaptureFormatError):
                    read_pcapng(p)

    def test_undefined_interface_rejected(self, tmp_path):
        # Hand-build: SHB then an EPB referencing interface 0 with no IDB.
        shb = struct.pack("<II", _SHB_TYPE, 28) + struct.pack(
            "<IHHq", _BYTE_ORDER_MAGIC, 1, 0, -1
        ) + struct.pack("<I", 28)
        epb_body = struct.pack("<IIIII", 0, 0, 0, 4, 4) + b"\0\0\0\0"
        epb = struct.pack("<II", _EPB_TYPE, 12 + len(epb_body)) + epb_body + struct.pack(
            "<I", 12 + len(epb_body)
        )
        p = tmp_path / "x.pcapng"
        p.write_bytes(shb + epb)
        with pytest.raises(ValueError, match="undefined interface"):
            read_pcapng(p)

    def test_microsecond_interface_rescaled(self, tmp_path):
        """An IDB without if_tsresol defaults to µs; timestamps rescale."""
        t = make_trial([0.0, 2000.0])  # 2 µs apart
        p = write_pcapng(t, tmp_path / "x.pcapng", frame_bytes=128)
        raw = bytearray(p.read_bytes())
        # Patch the if_tsresol option payload (10^-9 -> 10^-6): the option
        # sits in the IDB right after SHB(28 bytes) + IDB header/fixed.
        idb_off = 28
        # body starts at idb_off+8; options at +8 within body.
        opt_off = idb_off + 8 + 8
        code, olen = struct.unpack_from("<HH", raw, opt_off)
        assert code == 9 and olen == 1
        raw[opt_off + 4] = 6  # 10^-6
        # Rewrite EPB timestamps from ns to µs units.
        off = idb_off + struct.unpack_from("<I", raw, idb_off + 4)[0]
        while off + 12 <= len(raw):
            btype, blen = struct.unpack_from("<II", raw, off)
            if btype == _EPB_TYPE:
                hi, lo = struct.unpack_from("<II", raw, off + 12)
                ts = ((hi << 32) | lo) // 1000
                struct.pack_into("<II", raw, off + 12,
                                 (ts >> 32) & 0xFFFFFFFF, ts & 0xFFFFFFFF)
            off += blen
        p.write_bytes(bytes(raw))
        back = read_pcapng(p).trial
        np.testing.assert_allclose(back.times_ns, [0.0, 2000.0], atol=1000.0)
