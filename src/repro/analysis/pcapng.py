"""pcapng (next-generation capture) interoperability.

Modern capture tools (wireshark/dumpcap, recent tcpdump) emit pcapng by
default, so the reproduction reads and writes it alongside classic pcap
(:mod:`repro.analysis.pcap`).  The implemented subset is the one real
captures of this kind use:

* one **Section Header Block** (little-endian, version 1.0);
* one **Interface Description Block** (Ethernet) carrying the
  ``if_tsresol`` option set to nanoseconds;
* one **Enhanced Packet Block** per packet.

Reading tolerates what the wild produces: unknown block types are
skipped, microsecond interfaces are rescaled, multiple interfaces are
accepted (timestamp resolution resolved per interface), and the Choir
trailer validation from the classic-pcap reader applies unchanged —
corrupted trailers count toward ``U``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..core.trial import Trial
from .capture import CaptureFormatError
from .pcap import _frame_template
from .tagging import TrailerError, tag_to_trailer, trailer_to_tag

__all__ = ["write_pcapng", "read_pcapng", "PcapngReadResult"]

_SHB_TYPE = 0x0A0D0D0A
_IDB_TYPE = 0x00000001
_EPB_TYPE = 0x00000006
_BYTE_ORDER_MAGIC = 0x1A2B3C4D
_LINKTYPE_ETHERNET = 1
_TRAILER = 16


def _pad4(n: int) -> int:
    return (4 - n % 4) % 4


def _option(code: int, payload: bytes) -> bytes:
    return struct.pack("<HH", code, len(payload)) + payload + b"\0" * _pad4(len(payload))


def _block(block_type: int, body: bytes) -> bytes:
    total = 12 + len(body)
    return struct.pack("<II", block_type, total) + body + struct.pack("<I", total)


def write_pcapng(
    trial: Trial,
    path: str | Path,
    *,
    frame_bytes: int = 1400,
    snaplen: int = 65535,
) -> Path:
    """Export a trial as a nanosecond-resolution pcapng file.

    Frame synthesis matches the classic-pcap writer (valid Ethernet/IPv4/
    UDP with the Choir trailer last).
    """
    path = Path(path)
    if len(trial) and float(trial.times_ns[0]) < 0:
        raise ValueError("pcapng timestamps are unsigned; shift the trial to >= 0")

    # SHB: magic, version 1.0, section length unknown (-1).
    shb_body = struct.pack("<IHHq", _BYTE_ORDER_MAGIC, 1, 0, -1)
    # IDB: linktype, reserved, snaplen, if_tsresol=9 (1e-9), opt_endofopt.
    idb_body = (
        struct.pack("<HHI", _LINKTYPE_ETHERNET, 0, snaplen)
        + _option(9, bytes([9]))  # if_tsresol: 10^-9
        + _option(0, b"")
    )

    template = _frame_template(frame_bytes)
    parts = [_block(_SHB_TYPE, shb_body), _block(_IDB_TYPE, idb_body)]
    frame = bytearray(template.tobytes())
    for tag, t in zip(trial.tags.tolist(), trial.times_ns.tolist()):
        frame[-_TRAILER:] = tag_to_trailer(int(tag))
        ts = int(round(t))
        body = (
            struct.pack(
                "<IIIII",
                0,  # interface id
                (ts >> 32) & 0xFFFFFFFF,
                ts & 0xFFFFFFFF,
                frame_bytes,
                frame_bytes,
            )
            + bytes(frame)
            + b"\0" * _pad4(frame_bytes)
        )
        parts.append(_block(_EPB_TYPE, body))
    path.write_bytes(b"".join(parts))
    return path


@dataclass(frozen=True)
class PcapngReadResult:
    """A parsed pcapng capture with corruption accounting."""

    trial: Trial
    n_frames: int
    n_corrupted: int
    n_foreign: int
    n_skipped_blocks: int


def _tsresol_scale_ns(opt_payload: bytes) -> float:
    """ns per timestamp unit from an if_tsresol option value."""
    if not opt_payload:
        return 1_000.0  # default pcapng resolution: microseconds
    v = opt_payload[0]
    if v & 0x80:
        return 1e9 / (2 ** (v & 0x7F))
    return 1e9 / (10**v)


def read_pcapng(path: str | Path, *, label: str = "") -> PcapngReadResult:
    """Parse a pcapng file back into a trial via the Choir trailers."""
    raw = Path(path).read_bytes()
    if len(raw) < 28 or struct.unpack_from("<I", raw, 0)[0] != _SHB_TYPE:
        raise CaptureFormatError(f"{path}: not a pcapng file", "bad-magic")
    magic = struct.unpack_from("<I", raw, 8)[0]
    if magic != _BYTE_ORDER_MAGIC:
        raise CaptureFormatError(
            f"{path}: unsupported byte order {magic:#x}", "byte-order"
        )

    iface_scale: list[float] = []
    tags: list[int] = []
    times: list[float] = []
    n_frames = n_corrupted = n_foreign = n_skipped = 0

    off = 0
    total = len(raw)
    while off < total:
        # A block header cut short reads as length 0 and fails the check.
        btype, blen = struct.unpack_from("<II", raw, off) if off + 12 <= total else (0, 0)
        if blen < 12 or blen % 4 or off + blen > total:
            raise CaptureFormatError(
                f"{path}: truncated or malformed block at byte {off}", "malformed-block"
            )
        body = raw[off + 8 : off + blen - 4]
        off += blen

        if btype == _SHB_TYPE:
            continue
        if btype == _IDB_TYPE:
            scale = 1_000.0  # default microseconds
            # Walk options after the 8-byte fixed part.
            o = 8
            while o + 4 <= len(body):
                code, olen = struct.unpack_from("<HH", body, o)
                payload = body[o + 4 : o + 4 + olen]
                o += 4 + olen + _pad4(olen)
                if code == 0:
                    break
                if code == 9:
                    scale = _tsresol_scale_ns(payload)
            iface_scale.append(scale)
            continue
        if btype != _EPB_TYPE:
            n_skipped += 1
            continue

        if len(body) < 20:
            raise CaptureFormatError(f"{path}: short packet block", "malformed-block")
        iface, ts_hi, ts_lo, captured, _orig = struct.unpack_from("<IIIII", body, 0)
        if iface >= len(iface_scale):
            raise CaptureFormatError(
                f"{path}: EPB references undefined interface {iface}",
                "undefined-interface",
            )
        frame = body[20 : 20 + captured]
        n_frames += 1
        if captured < _TRAILER:
            n_foreign += 1
            continue
        try:
            tag = trailer_to_tag(frame[-_TRAILER:])
        except TrailerError:
            n_corrupted += 1
            continue
        tags.append(tag)
        times.append(((ts_hi << 32) | ts_lo) * iface_scale[iface])

    trial = Trial.from_arrival_events(
        np.asarray(tags, dtype=np.int64),
        np.asarray(times, dtype=np.float64),
        label=label,
    )
    return PcapngReadResult(
        trial=trial,
        n_frames=n_frames,
        n_corrupted=n_corrupted,
        n_foreign=n_foreign,
        n_skipped_blocks=n_skipped,
    )
