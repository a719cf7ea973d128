"""Capture files: one simulated run on disk, as the paper's artifact keeps.

A capture is a one-trial file of :mod:`repro.core.trialfile`, the
checksummed container the artifact store writes too; its header's
``kind`` is ``"capture"`` and it holds the run's whole label and
``meta``.  Writer and reader round-trip :class:`~repro.core.trial.Trial`
objects exactly.  The reader verifies every byte before it decodes any,
so a damaged capture, a store entry or a capture of the old ``CHO1``
layout raises :class:`CaptureFormatError`, never loads as another trial.
"""

from __future__ import annotations

from pathlib import Path

from ..core.trial import Trial
from ..core.trialfile import TrialFileError, read_trials, write_trials

__all__ = ["write_capture", "read_capture", "CaptureFormatError"]

#: The header's file kind, so a store entry is never read as a capture.
_KIND = "capture"


class CaptureFormatError(TrialFileError):
    """Raised when a capture file (or a pcap/pcapng) is malformed."""


def write_capture(trial: Trial, path: str | Path) -> Path:
    """Write a trial to ``path``; returns the path written."""
    path = Path(path)
    with open(path, "wb") as f:
        write_trials(f, {"kind": _KIND}, [trial])
    return path


def read_capture(path: str | Path) -> Trial:
    """Load and verify a capture written by :func:`write_capture`."""
    data = Path(path).read_bytes()
    if data[:4] == b"CHO1":
        raise CaptureFormatError(
            f"{path}: a CHO1 capture, a layout no longer read; "
            "re-create it with `repro simulate -o`",
            "cho1",
        )
    try:
        _, trials, _ = read_trials(data, expect={"kind": (_KIND, "not-a-capture")})
    except TrialFileError as exc:
        raise CaptureFormatError(f"{path}: {exc}", exc.reason) from None
    if len(trials) != 1:
        raise CaptureFormatError(f"{path}: {len(trials)} runs", "payload-decode")
    return trials[0]
