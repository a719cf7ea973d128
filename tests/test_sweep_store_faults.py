"""Fault injection: store damage degrades to a counted recompute, always.

The :class:`repro.sweep.ArtifactStore` read path promises that **no**
on-disk damage — truncation, bit flips, stale schema versions, vanished
payloads, mangled metadata — ever raises, and none of it can ever leak a
silently wrong κ: every integrity failure quarantines the entry, counts
``sweep.store.corrupt`` (plus a per-reason sub-counter), and reports a
miss so the sweep recomputes and rewrites.  Each test here injects one
fault class into a published entry, re-runs the sweep, and asserts the
trifecta: no exception, the corruption counted, and the merged
``sweep.json`` byte-identical to the undamaged cold run.  An entry is
one file (checksum line, JSON header line, arrays, report), so each
fault is an offset inside that file; faults that must get past the
checksum to reach a later check are re-stamped with a valid one.

Concurrent writers are the last fault class: racing ``put`` calls for
one digest must elect exactly one publisher (identical content by
construction), count the losers, and leave a verifiable entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading

import numpy as np
import pytest

from repro.core.trial import Trial
from repro.obs import metrics
from repro.parallel import shutdown_pool
from repro.sweep import (
    ArtifactStore,
    STORE_SCHEMA_VERSION,
    plan_unit,
    run_sweep,
    write_sweep_report,
)
from repro.sweep.codec import series_report_to_dict
from repro.sweep.store import ENTRY_FILE
from repro.testbeds import local_dual_replayer

SEED = 11
N_RUNS = 2


def _plan():
    return [
        plan_unit(
            "reordered-dual", local_dual_replayer().at_duration(3e6), SEED, N_RUNS
        )
    ]


@pytest.fixture(scope="module", autouse=True)
def _teardown_pool():
    yield
    shutdown_pool()


@pytest.fixture()
def seeded_store(tmp_path):
    """A store holding one full (trials + report) entry, plus cold bytes."""
    plan = _plan()
    store = ArtifactStore(tmp_path / "store")
    cold = run_sweep(plan, store, jobs=1)
    report_path, _ = write_sweep_report(cold, tmp_path / "cold")
    return store, plan, report_path.read_bytes()


def _counter(name: str) -> int:
    return metrics.REGISTRY.snapshot()["counters"].get(name, 0)


def _flip_byte(path, offset: int = -1, mask: int = 0xFF) -> None:
    data = bytearray(path.read_bytes())
    data[offset] ^= mask
    path.write_bytes(bytes(data))


def _entry_file(store, digest):
    return store.entry_dir(digest) / ENTRY_FILE


#: The header line starts after the checksum line (64 hex digits + newline).
HEAD = 65


def _layout(path):
    """(bytes, parsed header, offset of run 0's tags)."""
    data = path.read_bytes()
    end = data.index(b"\n", HEAD)
    return data, json.loads(data[HEAD:end]), end + 1


def _restamp(path, body: bytes) -> None:
    """Write ``body`` behind a valid checksum line: damage past the sum."""
    path.write_bytes(hashlib.sha256(body).hexdigest().encode() + b"\n" + body)


def assert_degrades_to_recompute(store_root, plan, cold_bytes, tmp_path, reason):
    """The shared acceptance: counted miss, recompute, identical bytes."""
    corrupt_before = _counter("sweep.store.corrupt")
    reason_before = _counter(f"sweep.store.corrupt.{reason}")

    store = ArtifactStore(store_root)
    result = run_sweep(plan, store, jobs=1)  # must not raise

    assert result.outcomes == ("miss",)
    assert store.stats.corrupt == 1
    assert _counter("sweep.store.corrupt") == corrupt_before + 1
    assert _counter(f"sweep.store.corrupt.{reason}") == reason_before + 1

    report_path, _ = write_sweep_report(result, tmp_path / "recovered")
    assert report_path.read_bytes() == cold_bytes  # never a wrong κ

    # The entry was rewritten and is wholly valid again.
    fresh = ArtifactStore(store_root)
    entry = fresh.get(plan[0].digest)
    assert entry is not None and entry.report is not None
    assert fresh.stats.corrupt == 0


class TestStoreFaultInjection:
    def test_truncated_capture_payload(self, seeded_store, tmp_path):
        store, plan, cold_bytes = seeded_store
        path = _entry_file(store, plan[0].digest)
        data, header, run0 = _layout(path)
        path.write_bytes(data[: run0 + 8 * header["runs"][0]["n"]])
        assert_degrades_to_recompute(
            store.root, plan, cold_bytes, tmp_path, "payload-checksum"
        )

    def test_bitflipped_capture_payload(self, seeded_store, tmp_path):
        store, plan, cold_bytes = seeded_store
        path = _entry_file(store, plan[0].digest)
        _, header, run0 = _layout(path)
        n0, n1 = (r["n"] for r in header["runs"][:2])
        # The last byte of run 1's timestamps.
        _flip_byte(path, offset=run0 + 16 * (n0 + n1) - 1)
        assert_degrades_to_recompute(
            store.root, plan, cold_bytes, tmp_path, "payload-checksum"
        )

    def test_bitflipped_report(self, seeded_store, tmp_path):
        store, plan, cold_bytes = seeded_store
        path = _entry_file(store, plan[0].digest)
        data, header, _ = _layout(path)
        _flip_byte(path, offset=len(data) - header["report_len"] + 40)
        assert_degrades_to_recompute(
            store.root, plan, cold_bytes, tmp_path, "payload-checksum"
        )

    @pytest.mark.parametrize(
        "needle", [b'"label":"A"', b'"series_index"'], ids=["label", "key"]
    )
    def test_bitflipped_header(self, seeded_store, tmp_path, needle):
        """One bit of a label or of the key doc: still valid JSON, caught."""
        store, plan, cold_bytes = seeded_store
        path = _entry_file(store, plan[0].digest)
        data = path.read_bytes()
        # 'A' -> '@', 's' -> 'r': the header still parses after the flip.
        _flip_byte(path, offset=data.index(needle) + len(needle) - 2, mask=0x01)
        assert_degrades_to_recompute(
            store.root, plan, cold_bytes, tmp_path, "payload-checksum"
        )

    def test_stale_schema_version(self, seeded_store, tmp_path):
        store, plan, cold_bytes = seeded_store
        path = _entry_file(store, plan[0].digest)
        data, header, run0 = _layout(path)
        assert header["schema"] == STORE_SCHEMA_VERSION
        header["schema"] = 999
        _restamp(path, json.dumps(header).encode() + b"\n" + data[run0:])
        assert_degrades_to_recompute(
            store.root, plan, cold_bytes, tmp_path, "stale-schema"
        )

    def test_missing_payload_file(self, seeded_store, tmp_path):
        """An entry cut back to its header, checksummed as if whole."""
        store, plan, cold_bytes = seeded_store
        path = _entry_file(store, plan[0].digest)
        data, _, run0 = _layout(path)
        _restamp(path, data[HEAD:run0])
        assert_degrades_to_recompute(
            store.root, plan, cold_bytes, tmp_path, "payload-missing"
        )

    def test_garbage_entry_metadata(self, seeded_store, tmp_path):
        store, plan, cold_bytes = seeded_store
        _entry_file(store, plan[0].digest).write_text("not json at all{{{")
        assert_degrades_to_recompute(
            store.root, plan, cold_bytes, tmp_path, "entry-unreadable"
        )

    def test_digest_directory_mismatch(self, seeded_store, tmp_path):
        """An entry renamed under the wrong digest can never be served."""
        import shutil

        store, plan, cold_bytes = seeded_store
        wrong = "0" * 64
        src = store.entry_dir(plan[0].digest)
        dst = store.entry_dir(wrong)
        dst.parent.mkdir(parents=True, exist_ok=True)
        shutil.copytree(src, dst)
        probe = ArtifactStore(store.root)
        assert probe.get(wrong) is None
        assert probe.stats.corrupt == 1
        assert not dst.exists()  # quarantined
        # ...and the legitimate entry is untouched.
        assert probe.get(plan[0].digest) is not None


class TestConcurrentWriters:
    def test_racing_puts_elect_one_writer(self, seeded_store, tmp_path):
        """N threads racing ``put`` for one digest: one write, N-1 races."""
        store, plan, cold_bytes = seeded_store
        digest = plan[0].digest
        entry = store.get(digest)
        assert entry is not None

        report_doc = series_report_to_dict(entry.report)
        target = ArtifactStore(tmp_path / "race-store")
        n_writers = 6
        errors = []
        barrier = threading.Barrier(n_writers)

        def race():
            try:
                barrier.wait()
                target.put(digest, entry.trials, report_doc, key=entry.key)
            except BaseException as e:  # pragma: no cover - the assertion
                errors.append(e)

        threads = [threading.Thread(target=race) for _ in range(n_writers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert errors == []
        assert target.stats.writes + target.stats.races == n_writers
        assert target.stats.writes >= 1
        # Whatever was published verifies cleanly and decodes the same κ.
        probe = ArtifactStore(tmp_path / "race-store")
        got = probe.get(digest)
        assert got is not None and got.report is not None
        assert probe.stats.corrupt == 0
        assert got.report.mean_row() == entry.report.mean_row()
        # No staging debris survives the race.
        assert list((tmp_path / "race-store" / "tmp").iterdir()) == []

    def test_sweep_over_raced_store_stays_byte_identical(
        self, seeded_store, tmp_path
    ):
        store, plan, cold_bytes = seeded_store
        result = run_sweep(plan, ArtifactStore(store.root), jobs=1)
        assert result.outcomes == ("hit",)
        report_path, _ = write_sweep_report(result, tmp_path / "warm")
        assert report_path.read_bytes() == cold_bytes


class TestOneFileEntry:
    def test_entry_is_one_file_written_with_one_fsync(
        self, seeded_store, tmp_path, monkeypatch
    ):
        store, plan, _ = seeded_store
        entry = store.get(plan[0].digest)
        fsyncs = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: fsyncs.append(real_fsync(fd)))
        target = ArtifactStore(tmp_path / "fresh")
        assert target.put(
            entry.digest, entry.trials, series_report_to_dict(entry.report),
            key=entry.key,
        )
        assert len(fsyncs) == 1
        assert [p.name for p in target.entry_dir(entry.digest).iterdir()] == [
            ENTRY_FILE
        ]
        assert list((tmp_path / "fresh" / "tmp").iterdir()) == []

    def test_trials_only_put_never_downgrades(self, seeded_store):
        store, plan, _ = seeded_store
        digest = plan[0].digest
        entry = store.get(digest)
        before = _entry_file(store, digest).read_bytes()
        races = store.stats.races
        assert store.put(digest, entry.trials, key=entry.key) is False
        assert store.stats.races == races + 1
        assert _entry_file(store, digest).read_bytes() == before
        again = store.get(digest)
        assert again is not None and again.report is not None
        assert again.report.mean_row() == entry.report.mean_row()

    def test_long_label_and_meta_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        trials = [
            Trial(
                rng.permutation(50) - 25,
                np.cumsum(rng.random(50)) * 1e3,
                label="a-label-well-past-twelve-bytes-é",
                meta={"environment": "x", "rate": 0.1, "nested": {"k": [1, 2]}},
            ),
            Trial(np.arange(3), np.array([0.0, 0.5, 7.25]), label="", meta={}),
        ]
        store = ArtifactStore(tmp_path / "store")
        digest = "ab" * 32
        assert store.put(digest, trials, key={"k": 1})
        got = ArtifactStore(tmp_path / "store").get(digest)
        assert got is not None and got.report is None and got.key == {"k": 1}
        assert len(got.trials) == len(trials)
        for want, have in zip(trials, got.trials):
            assert have == want  # label, tags and times, exactly
            assert have.meta == want.meta
            assert have.tags.dtype == np.int64 and have.times_ns.dtype == np.float64
