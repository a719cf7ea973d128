"""Classic-pcap interoperability.

The paper's pipeline stores packet captures (via ``dpdkcap``) and
analyzes them offline; downstream users will want to feed *real* captures
into the metrics or inspect simulated trials in standard tools.  This
module round-trips :class:`~repro.core.trial.Trial` objects through the
classic pcap format (nanosecond-resolution magic ``0xA1B23C4D``,
link-type Ethernet):

* **export** — each packet becomes a well-formed Ethernet/IPv4/UDP frame
  of the configured size, padded, ending in the 16-byte Choir trailer
  (:mod:`repro.analysis.tagging`); IPv4 header checksums are computed so
  the frames pass standard-tool validation;
* **import** — frames are parsed back by trailer; packets whose trailer
  fails validation are *excluded and counted* — exactly how a corrupted
  packet becomes "missing" for the U metric (Section 3).  The trailer
  guards only the tag: a damaged timestamp reads back as another time.
  A file that is not a well-formed pcap raises
  :class:`~repro.analysis.capture.CaptureFormatError`.

The writer is vectorized over fixed-size frames (the evaluation's
workloads are fixed-size); the reader walks the records one at a time in
Python (one ``struct.unpack_from`` and one trailer check per frame), for
records of any size.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..core.trial import Trial
from .capture import CaptureFormatError
from .tagging import TrailerError, tag_to_trailer, trailer_to_tag

__all__ = ["write_pcap", "read_pcap", "PcapReadResult", "MIN_FRAME_BYTES"]

#: Nanosecond-resolution pcap magic.
_MAGIC_NS = 0xA1B23C4D
#: Microsecond-resolution magic (accepted on read).
_MAGIC_US = 0xA1B2C3D4
_GLOBAL = struct.Struct("<IHHiIII")
_LINKTYPE_ETHERNET = 1

_ETH_HDR = 14
_IP_HDR = 20
_UDP_HDR = 8
_TRAILER = 16
#: Smallest frame that can carry the headers plus the Choir trailer.
MIN_FRAME_BYTES = _ETH_HDR + _IP_HDR + _UDP_HDR + _TRAILER


def _ipv4_checksum(header: np.ndarray) -> int:
    """RFC 791 header checksum of a 20-byte header (checksum field zeroed)."""
    words = header.reshape(-1, 2)
    total = int((words[:, 0].astype(np.uint32) << 8).sum() + words[:, 1].sum())
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def _frame_template(frame_bytes: int) -> np.ndarray:
    """A valid Ethernet/IPv4/UDP frame skeleton of ``frame_bytes``."""
    if frame_bytes < MIN_FRAME_BYTES:
        raise ValueError(
            f"frame_bytes must be >= {MIN_FRAME_BYTES} to carry the trailer"
        )
    f = np.zeros(frame_bytes, dtype=np.uint8)
    # Ethernet: locally administered MACs, EtherType IPv4.
    f[0:6] = (0x02, 0xC4, 0x01, 0x12, 0x50, 0x01)   # dst
    f[6:12] = (0x02, 0xC4, 0x01, 0x12, 0x50, 0x02)  # src
    f[12:14] = (0x08, 0x00)
    # IPv4.
    ip_len = frame_bytes - _ETH_HDR
    ip = f[_ETH_HDR : _ETH_HDR + _IP_HDR]
    ip[0] = 0x45            # version 4, IHL 5
    ip[2] = (ip_len >> 8) & 0xFF
    ip[3] = ip_len & 0xFF
    ip[8] = 64              # TTL
    ip[9] = 17              # UDP
    ip[12:16] = (10, 0, 0, 1)
    ip[16:20] = (10, 0, 0, 2)
    csum = _ipv4_checksum(ip)
    ip[10] = (csum >> 8) & 0xFF
    ip[11] = csum & 0xFF
    # UDP.
    udp_len = ip_len - _IP_HDR
    udp = f[_ETH_HDR + _IP_HDR : _ETH_HDR + _IP_HDR + _UDP_HDR]
    udp[0:2] = (0x13, 0x37)  # src port 4919
    udp[2:4] = (0x13, 0x38)
    udp[4] = (udp_len >> 8) & 0xFF
    udp[5] = udp_len & 0xFF
    # checksum 0: legal for IPv4 UDP.
    return f


def write_pcap(
    trial: Trial,
    path: str | Path,
    *,
    frame_bytes: int = 1400,
    snaplen: int = 65535,
) -> Path:
    """Export a trial as a nanosecond-resolution pcap file.

    Every packet becomes a ``frame_bytes`` Ethernet/IPv4/UDP frame whose
    last 16 bytes are the Choir trailer for its tag.  Timestamps must be
    non-negative (pcap stores unsigned epoch offsets); shift the trial
    first if needed.
    """
    path = Path(path)
    n = len(trial)
    if n and float(trial.times_ns[0]) < 0:
        raise ValueError("pcap timestamps are unsigned; shift the trial to >= 0")

    header = _GLOBAL.pack(_MAGIC_NS, 2, 4, 0, 0, snaplen, _LINKTYPE_ETHERNET)
    template = _frame_template(frame_bytes)

    rec_len = 16 + frame_bytes
    records = np.zeros((n, rec_len), dtype=np.uint8)
    records[:, 16:] = template

    times = trial.times_ns
    ts_sec = (times // 1e9).astype(np.uint32)
    ts_nsec = (times - ts_sec.astype(np.float64) * 1e9).astype(np.uint32)
    hdr_view = records[:, :16].view(np.uint32).reshape(n, 4)
    hdr_view[:, 0] = ts_sec
    hdr_view[:, 1] = ts_nsec
    hdr_view[:, 2] = frame_bytes  # incl_len
    hdr_view[:, 3] = frame_bytes  # orig_len

    # Per-packet trailer: CRC forces a Python loop, but only over tags.
    trailer_off = rec_len - _TRAILER
    trailers = b"".join(tag_to_trailer(int(t)) for t in trial.tags)
    records[:, trailer_off:] = np.frombuffer(trailers, dtype=np.uint8).reshape(
        n, _TRAILER
    )

    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(records.tobytes())
    return path


@dataclass(frozen=True)
class PcapReadResult:
    """A parsed capture: the valid packets plus corruption accounting."""

    trial: Trial
    n_frames: int
    n_corrupted: int
    n_foreign: int  # frames too short to carry a trailer at all


def read_pcap(path: str | Path, *, label: str = "") -> PcapReadResult:
    """Parse a pcap back into a trial via the Choir trailers.

    Frames with an invalid trailer are counted as corrupted (they will
    surface as missing packets in ``U``); frames too short for a trailer
    are counted as foreign and likewise excluded.
    """
    raw = Path(path).read_bytes()
    if len(raw) < _GLOBAL.size:
        raise CaptureFormatError(f"{path}: not a pcap (too short)", "too-short")
    magic, _, _, _, _, _, linktype = _GLOBAL.unpack_from(raw, 0)
    if magic == _MAGIC_NS:
        ts_scale = 1.0
    elif magic == _MAGIC_US:
        ts_scale = 1e3
    else:
        raise CaptureFormatError(f"{path}: unknown pcap magic {magic:#x}", "bad-magic")
    if linktype != _LINKTYPE_ETHERNET:
        raise CaptureFormatError(f"{path}: unsupported linktype {linktype}", "linktype")

    tags: list[int] = []
    times: list[float] = []
    n_frames = n_corrupted = n_foreign = 0
    off = _GLOBAL.size
    total = len(raw)
    while off < total:
        if off + 16 > total:
            raise CaptureFormatError(f"{path}: truncated record at {off}", "truncated")
        ts_sec, ts_sub, incl, _orig = struct.unpack_from("<IIII", raw, off)
        off += 16
        if off + incl > total:
            raise CaptureFormatError(f"{path}: truncated record at {off}", "truncated")
        frame = raw[off : off + incl]
        off += incl
        n_frames += 1
        if incl < _TRAILER:
            n_foreign += 1
            continue
        try:
            tag = trailer_to_tag(frame[-_TRAILER:])
        except TrailerError:
            n_corrupted += 1
            continue
        tags.append(tag)
        times.append(ts_sec * 1e9 + ts_sub * ts_scale)

    trial = Trial.from_arrival_events(
        np.asarray(tags, dtype=np.int64),
        np.asarray(times, dtype=np.float64),
        label=label,
    )
    return PcapReadResult(
        trial=trial,
        n_frames=n_frames,
        n_corrupted=n_corrupted,
        n_foreign=n_foreign,
    )
