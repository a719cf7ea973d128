"""The one on-disk container for trial series: store entries and captures.

Layout: a line holding the sha256 hex digest of every byte after it; a
JSON header line, space-padded so the arrays start 8-byte aligned, that
holds the caller's fields, then ``runs`` (per run its whole ``label``,
its ``meta`` and its packet count ``n``), then ``report_len``, the byte
length of the tail; per run its ``<i8`` tags then its ``<f8`` times; then
the tail (the store keeps its encoded report there).

:func:`read_trials` checks the checksum before it parses anything, so a
flipped byte anywhere, header included, or a cut file never decodes as a
different trial: every failure is a :class:`TrialFileError`.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .trial import Trial

__all__ = ["TrialFileError", "write_trials", "read_trials"]

#: Length of the leading checksum line: 64 hex digits and a newline.
_SUM_LEN = 65


class TrialFileError(ValueError):
    """A trial file that does not decode; ``reason`` names the failed check."""

    def __init__(self, message: str, reason: str) -> None:
        super().__init__(message)
        self.reason = reason

    def __reduce__(self):
        # Pickled with its reason, so it crosses a process pool intact.
        return type(self), (str(self), self.reason)


def _sha256(*parts) -> str:
    """sha256 hex digest of the concatenated buffers, without joining them."""
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(part)
    return hasher.hexdigest()


def write_trials(f, fields: dict, trials, tail: bytes = b"") -> None:
    """Write one trial file to the binary file ``f``, hashed from memory."""
    header = json.dumps(
        {
            **fields,
            "runs": [{"label": t.label, "meta": t.meta, "n": len(t)} for t in trials],
            "report_len": len(tail),
        },
        separators=(",", ":"),
        default=str,
    ).encode()
    pad = -(_SUM_LEN + len(header) + 1) % 8
    parts = [header + b" " * pad + b"\n"]
    for t in trials:
        parts += (np.asarray(t.tags, "<i8"), np.asarray(t.times_ns, "<f8"))
    parts.append(tail)
    f.write(_sha256(*parts).encode() + b"\n")
    f.writelines(parts)


def read_trials(data: bytes, expect: dict | None = None) -> tuple:
    """Verify and decode one trial file: ``(header, trials, tail)``.

    ``expect`` maps a header field to ``(value, reason)``; a field that
    differs raises with that reason before any array is decoded.  The
    trials are views of ``data``.
    """
    if data[_SUM_LEN - 1:_SUM_LEN] != b"\n":
        raise TrialFileError("no checksum line: truncated or not a trial file",
                             "entry-unreadable")
    # Verify every byte after the checksum line before parsing any.
    if data[:_SUM_LEN - 1] != _sha256(memoryview(data)[_SUM_LEN:]).encode():
        raise TrialFileError("payload checksum mismatch: truncated or corrupted",
                             "payload-checksum")
    try:
        return _decode(data, expect or {})
    except TrialFileError:
        raise
    except Exception as exc:
        raise TrialFileError(f"undecodable: {exc!r}", "payload-decode") from exc


def _decode(data: bytes, expect: dict) -> tuple:
    end = data.find(b"\n", _SUM_LEN)
    header = json.loads(data[_SUM_LEN:end])
    for field, (value, reason) in expect.items():
        if header.get(field) != value:
            raise TrialFileError(f"header {field} is {header.get(field)!r}", reason)
    off = end + 1
    size = off + 16 * sum(r["n"] for r in header["runs"]) + header["report_len"]
    if size != len(data):
        raise TrialFileError(f"{len(data)} bytes, header says {size}", "payload-missing")
    trials = []
    for r in header["runs"]:
        n = r["n"]
        tags = np.frombuffer(data, "<i8", n, off)
        times = np.frombuffer(data, "<f8", n, off + 8 * n)
        trials.append(Trial(tags, times, label=r["label"], meta=r["meta"]))
        off += 16 * n
    return header, trials, data[off:]
