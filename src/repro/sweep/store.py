"""The persistent, content-addressed artifact store behind ``repro sweep``.

``run_series`` memoization (:mod:`repro.experiments.runner`) dies with the
process; every new invocation of a Table-2 / figure / validation driver
re-simulates series it has produced a thousand times before.  This module
makes those results durable: a **digest-keyed** store mapping the full
content of a work unit — environment profile × seed scheme × series
length × analysis code version — to its simulated :class:`Trial` series
and (optionally) its Section-3 :class:`RunSeriesReport`.

Digest scheme
-------------
The key document (:func:`digest_key_doc`) contains **only values that
determine the simulated bits**:

* the canonical profile JSON (:func:`repro.testbeds.canonical_profile_json`)
  — duration scale is inside it, because ``at_duration`` rewrites the
  profile;
* the series seed and series index (the
  :func:`repro.testbeds.base.series_seed_plan` inputs) and ``n_runs``;
* ``ANALYSIS_VERSION`` — bumped when the metric code changes output —
  and the store schema version.

It deliberately excludes job counts, pool start methods, host facts and
wall-clock anything: the engine's differential suites prove output is
invariant under all of them, so a series simulated at ``jobs=4`` under
``spawn`` must hit the cache entry written at ``jobs=1`` under
``forkserver`` (the same rule the in-process ``run_series`` cache
follows; pinned by ``tests/test_sweep_differential.py``).

Store layout (under ``<root>/v<schema>/``)::

    <digest[:2]>/<digest>/
        entry.bin       # the whole entry, one file

``entry.bin`` has three parts:

1. a line holding the sha256 hex digest of every byte after it;
2. a JSON header line (space-padded so the arrays below are 8-byte
   aligned): schema, digest, key doc, per run its label, ``meta`` and
   packet count, and the report's byte length;
3. per run its int64 tags then its float64 times (little-endian), then
   the codec-encoded report JSON, if any.

Write discipline: ``put`` hashes the entry's pieces from memory (no
joined buffer, no read-back), writes them into one file under
``<root>/tmp/``, fsyncs that one file and publishes it in one atomic
step: ``os.link`` for a fresh entry (it fails if one is already there),
``os.replace`` when a full entry upgrades a trials-only one.  Readers
can never observe a half-written entry, and a trials-only ``put`` never
downgrades a full one.  Losing a publish race to a concurrent writer is
harmless (both writers derived identical content from the same digest)
and is counted, not raised.

Read discipline: ``get`` reads the file once and checks the checksum
before it parses anything — header included, so a flipped label or key
byte is caught too.  Every failure — truncation, bit flips, stale
schema, a short payload — degrades to a counted cache miss
(``sweep.store.corrupt``): the damaged entry is quarantined (removed) so
the caller recomputes and rewrites.  Corruption is **never** an
exception and can never yield a silently wrong κ; the fault-injection
suite (``tests/test_sweep_store_faults.py``) drives every one of these
paths.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..core.report import RunSeriesReport
from ..core.trial import Trial
from ..obs import metrics
from ..obs.trace import span
from ..testbeds.profiles import EnvironmentProfile
from ..testbeds.serialization import canonical_profile_json
from .codec import series_report_from_dict

__all__ = [
    "ArtifactStore",
    "StoredEntry",
    "StoreStats",
    "compute_digest",
    "digest_key_doc",
    "STORE_SCHEMA_VERSION",
    "ANALYSIS_VERSION",
]

#: On-disk layout version; entries of any other version are recomputed.
STORE_SCHEMA_VERSION = 2

#: Version of the analysis code whose outputs the store caches.  Bump
#: whenever a change legitimately alters simulated trials or Section-3
#: metric bits — stale entries then miss instead of resurrecting old
#: results.
ANALYSIS_VERSION = 1


def digest_key_doc(
    profile: EnvironmentProfile,
    seed: int,
    n_runs: int,
    series_index: int = 0,
) -> dict:
    """The canonical key document a work unit digests to.

    Raises ``ValueError`` for profiles that cannot be canonicalized
    (custom ``workload`` objects) — such units are not cacheable.
    """
    return {
        "schema": STORE_SCHEMA_VERSION,
        "analysis": ANALYSIS_VERSION,
        "profile": canonical_profile_json(profile),
        "seed": int(seed),
        "series_index": int(series_index),
        "n_runs": int(n_runs),
    }


def compute_digest(
    profile: EnvironmentProfile,
    seed: int,
    n_runs: int,
    series_index: int = 0,
) -> str:
    """sha256 hex digest of the canonical key document."""
    doc = digest_key_doc(profile, seed, n_runs, series_index)
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class StoredEntry:
    """One artifact loaded (and verified) from the store."""

    digest: str
    trials: tuple[Trial, ...]
    report: RunSeriesReport | None
    key: dict


@dataclass
class StoreStats:
    """Per-instance operation tallies (the global registry twin)."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupt: int = 0
    races: int = 0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "corrupt": self.corrupt,
            "races": self.races,
        }


def _sha256(*parts) -> str:
    """sha256 hex digest of the concatenated buffers, without joining them."""
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(part)
    return hasher.hexdigest()


#: The one file an entry is, inside its ``entry_dir``.
ENTRY_FILE = "entry.bin"
#: Length of the leading checksum line: 64 hex digits and a newline.
_SUM_LEN = 65


class ArtifactStore:
    """Digest-keyed persistent cache of trial series and their reports."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.stats = StoreStats()

    # -- paths ------------------------------------------------------------
    def entry_dir(self, digest: str) -> Path:
        """Where an entry for ``digest`` lives (existing or not)."""
        return self.root / f"v{STORE_SCHEMA_VERSION}" / digest[:2] / digest

    # -- read side ---------------------------------------------------------
    def get(self, digest: str) -> StoredEntry | None:
        """The verified entry for ``digest``, or ``None`` (counted miss).

        Any integrity failure quarantines the entry and reports a miss;
        this method never raises for on-disk damage.
        """
        with span("sweep.store.get", digest=digest[:12]):
            entry = self._load_verified(digest)
        if entry is None:
            self.stats.misses += 1
            metrics.counter("sweep.store.misses").add()
        else:
            self.stats.hits += 1
            metrics.counter("sweep.store.hits").add()
        return entry

    def _load_verified(self, digest: str) -> StoredEntry | None:
        try:
            data = (self.entry_dir(digest) / ENTRY_FILE).read_bytes()
        except FileNotFoundError:
            return None
        except OSError:
            return self._quarantine(digest, "entry-unreadable")
        if data[_SUM_LEN - 1:_SUM_LEN] != b"\n":
            return self._quarantine(digest, "entry-unreadable")
        # Verify every byte after the checksum line before parsing any.
        if data[:_SUM_LEN - 1] != _sha256(memoryview(data)[_SUM_LEN:]).encode():
            return self._quarantine(digest, "payload-checksum")
        end = data.find(b"\n", _SUM_LEN)
        try:
            header = json.loads(data[_SUM_LEN:end])
            if header["schema"] != STORE_SCHEMA_VERSION:
                return self._quarantine(digest, "stale-schema")
            if header["digest"] != digest:
                return self._quarantine(digest, "digest-mismatch")
            runs, report_len = header["runs"], header["report_len"]
            off = end + 1
            if off + 16 * sum(r["n"] for r in runs) + report_len != len(data):
                return self._quarantine(digest, "payload-missing")
            trials = []
            for r in runs:
                n = r["n"]
                tags = np.frombuffer(data, "<i8", n, off)
                times = np.frombuffer(data, "<f8", n, off + 8 * n)
                trials.append(Trial(tags, times, label=r["label"], meta=r["meta"]))
                off += 16 * n
            report = None
            if report_len:
                report = series_report_from_dict(json.loads(data[off:]))
            return StoredEntry(digest, tuple(trials), report, header["key"])
        except Exception:
            return self._quarantine(digest, "payload-decode")

    def _quarantine(self, digest: str, reason: str) -> None:
        """Count and remove a damaged entry so the caller rewrites it."""
        self.stats.corrupt += 1
        metrics.counter("sweep.store.corrupt").add()
        metrics.counter(f"sweep.store.corrupt.{reason}").add()
        shutil.rmtree(self.entry_dir(digest), ignore_errors=True)
        return None

    # -- write side --------------------------------------------------------
    def put(
        self,
        digest: str,
        trials: list[Trial] | tuple[Trial, ...],
        report_doc: dict | None = None,
        key: dict | None = None,
    ) -> bool:
        """Atomically publish an entry; ``True`` if this call wrote it.

        ``report_doc`` is the codec-encoded report
        (:func:`repro.sweep.codec.series_report_to_dict`).  The entry's
        pieces are hashed from memory, written into one file under
        ``<root>/tmp``, fsynced and published in one step.  Losing the
        publish race to a concurrent writer of the same digest returns
        ``False`` (their content is identical by construction) and is
        counted in ``sweep.store.races``; so is a trials-only ``put``
        over a published entry, which never downgrades it.
        """
        if not trials:
            raise ValueError("an entry needs at least one trial")
        with span("sweep.store.put", digest=digest[:12], n_trials=len(trials)):
            report = b""
            if report_doc is not None:
                report = json.dumps(report_doc, separators=(",", ":")).encode()
            header = json.dumps(
                {
                    "schema": STORE_SCHEMA_VERSION,
                    "digest": digest,
                    "key": dict(key or {}),
                    "runs": [
                        {"label": t.label, "meta": t.meta, "n": len(t)}
                        for t in trials
                    ],
                    "report_len": len(report),
                },
                separators=(",", ":"),
                default=str,
            ).encode()
            # Pad the header line so every array starts 8-byte aligned.
            pad = -(_SUM_LEN + len(header) + 1) % 8
            parts = [header + b" " * pad + b"\n"]
            for t in trials:
                parts += (np.asarray(t.tags, "<i8"), np.asarray(t.times_ns, "<f8"))
            parts.append(report)

            tmp_root = self.root / "tmp"
            tmp_root.mkdir(parents=True, exist_ok=True)
            tmp = tmp_root / f"{digest}.{os.getpid()}-{os.urandom(4).hex()}"
            try:
                with open(tmp, "xb") as f:
                    f.write(_sha256(*parts).encode() + b"\n")
                    f.writelines(parts)
                    f.flush()
                    os.fsync(f.fileno())
                return self._publish(digest, tmp, with_report=bool(report))
            finally:
                tmp.unlink(missing_ok=True)

    def _publish(self, digest: str, tmp: Path, with_report: bool) -> bool:
        """Move the fsynced ``tmp`` into place; ``False`` if not published."""
        final = self.entry_dir(digest) / ENTRY_FILE
        try:
            final.parent.mkdir(parents=True, exist_ok=True)
            try:
                os.link(tmp, final)  # fails if the entry already exists
            except FileExistsError:
                # Ours replaces the published entry only when strictly
                # richer: we carry the analysis, it is trials-only (the
                # runner-write / sweep-upgrade shape).  Otherwise a
                # concurrent writer beat us to identical content.
                if not with_report or self._has_report(final):
                    raise
                os.replace(tmp, final)
        except OSError:
            self.stats.races += 1
            metrics.counter("sweep.store.races").add()
            return False
        self.stats.writes += 1
        metrics.counter("sweep.store.writes").add()
        return True

    @staticmethod
    def _has_report(path: Path) -> bool:
        """Whether a published entry already carries its analysis."""
        try:
            with open(path, "rb") as f:
                f.readline()  # the checksum line
                return json.loads(f.readline())["report_len"] > 0
        except (OSError, ValueError, KeyError, TypeError):
            return False  # damaged or half-gone: let the writer replace it
