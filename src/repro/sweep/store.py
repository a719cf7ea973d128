"""The persistent, content-addressed artifact store behind ``repro sweep``.

``run_series`` memoization (:mod:`repro.experiments.runner`) dies with the
process; every new invocation of a Table-2 / figure / validation driver
re-simulates series it has produced a thousand times before.  This module
makes those results durable: a **digest-keyed** store mapping the full
content of a work unit — environment profile × seed scheme × series
length × analysis code version — to its simulated :class:`Trial` series
and its Section-3 :class:`RunSeriesReport`.  The report codec
(:mod:`repro.sweep.codec`) lives behind this module: ``put`` takes a
report and encodes it, ``get`` decodes it, and no caller sees the JSON.

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

Store layout: ``<root>/v<schema>/<digest[:2]>/<digest>/entry.bin``, one
trial file (:mod:`repro.core.trialfile`, the container captures use too)
whose header leads with the schema, digest and key doc and whose tail is
the codec-encoded report JSON.

``put`` has the container hash the entry from memory and write it into
one file under ``<root>/tmp/``, fsyncs it and publishes it with
``os.link``, which fails if the entry already exists: readers never see
a half-written entry, and a lost publish race (identical content by
construction) is counted, not raised.  ``get`` reads the file once and
the container verifies the checksum before it parses anything, header
included.  Every failure — truncation, bit flips, stale schema, a short
payload, a report that does not decode — degrades to a counted cache
miss (``sweep.store.corrupt``, plus a per-reason sub-counter) and
quarantines (removes) the entry so the caller rewrites it whole.
Corruption is **never** an exception and never a silently wrong κ;
``tests/test_sweep_store_faults.py`` drives every one of these paths.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

from ..core.report import RunSeriesReport
from ..core.trial import Trial
from ..core.trialfile import TrialFileError, read_trials, write_trials
# Re-exported: the container hashes through this one function, and
# perfbench times every store checksum (``sweep.digest_ms``) by this name.
from ..core.trialfile import _sha256  # noqa: F401
from ..obs import metrics
from ..obs.trace import span
from ..testbeds.profiles import EnvironmentProfile
from ..testbeds.serialization import canonical_profile_json
from .codec import series_report_from_dict, series_report_to_dict

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
    report: RunSeriesReport
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


#: The one file an entry is, inside its ``entry_dir``.
ENTRY_FILE = "entry.bin"


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
        try:
            header, trials, tail = read_trials(
                data,
                expect={
                    "schema": (STORE_SCHEMA_VERSION, "stale-schema"),
                    "digest": (digest, "digest-mismatch"),
                },
            )
            report = series_report_from_dict(json.loads(tail))
            return StoredEntry(digest, tuple(trials), report, header["key"])
        except TrialFileError as exc:
            return self._quarantine(digest, exc.reason)
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
        report: RunSeriesReport,
        key: dict | None = None,
    ) -> bool:
        """Atomically publish an entry; ``True`` if this call wrote it.

        ``report`` is encoded with :func:`repro.sweep.codec.series_report_to_dict`.
        The container hashes the entry's pieces from memory and writes
        them into one file under ``<root>/tmp``, which is fsynced and
        published in one step.  Losing the publish race to a concurrent
        writer of the same digest returns ``False`` (their content is
        identical by construction) and is counted in ``sweep.store.races``.
        """
        if not trials:
            raise ValueError("an entry needs at least one trial")
        if not isinstance(report, RunSeriesReport):
            raise TypeError("an entry needs its RunSeriesReport")
        with span("sweep.store.put", digest=digest[:12], n_trials=len(trials)):
            encoded = json.dumps(
                series_report_to_dict(report), separators=(",", ":")
            ).encode()
            fields = {
                "schema": STORE_SCHEMA_VERSION,
                "digest": digest,
                "key": dict(key or {}),
            }
            tmp_root = self.root / "tmp"
            tmp_root.mkdir(parents=True, exist_ok=True)
            tmp = tmp_root / f"{digest}.{os.getpid()}-{os.urandom(4).hex()}"
            try:
                with open(tmp, "xb") as f:
                    write_trials(f, fields, trials, encoded)
                    f.flush()
                    os.fsync(f.fileno())
                return self._publish(digest, tmp)
            finally:
                tmp.unlink(missing_ok=True)

    def _publish(self, digest: str, tmp: Path) -> bool:
        """Link the fsynced ``tmp`` into place; ``False`` if one was there."""
        final = self.entry_dir(digest) / ENTRY_FILE
        try:
            final.parent.mkdir(parents=True, exist_ok=True)
            os.link(tmp, final)  # fails if the entry already exists
        except OSError:
            self.stats.races += 1
            metrics.counter("sweep.store.races").add()
            return False
        self.stats.writes += 1
        metrics.counter("sweep.store.writes").add()
        return True
