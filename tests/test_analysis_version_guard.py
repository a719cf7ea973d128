"""The ANALYSIS_VERSION bump guard, exercised end to end.

``scripts/check_analysis_version.py`` is the repo check CI runs so that
metric-bearing source (``src/repro/core/``, ``src/repro/analysis/``) and
the simulator behind the cached trials (``replay/``, ``net/``,
``generators/``, ``timing/``, ``testbeds/``) cannot change without bumping
the store's cache-invalidation version — the failure it prevents is a
persistent store silently resurrecting results computed by old code.  This suite drives the script as a
subprocess against both the real repository (the committed manifest must
be in sync) and a sandbox repo skeleton covering every verdict:
in-sync, changed-without-bump, bumped-but-stale-manifest, and the
``--update`` / ``--allow-same-version`` re-record paths.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "scripts" / "check_analysis_version.py"


def run_guard(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args],
        capture_output=True,
        text=True,
    )


def make_sandbox(root: Path, *, version: int = 1) -> None:
    """A minimal repo skeleton with one guarded file per guarded dir."""
    for rel, body in {
        "src/repro/core/kappa.py": "def kappa():\n    return 1.0\n",
        "src/repro/analysis/stats.py": "def mean(v):\n    return sum(v) / len(v)\n",
        "src/repro/replay/burst.py": "MAX_BURST = 64\n",
        "src/repro/net/link.py": "RATE = 1e10\n",
        "src/repro/generators/cbr.py": "GAP = 284.0\n",
        "src/repro/timing/tsc.py": "HZ = 2e9\n",
        "src/repro/testbeds/base.py": "RUNS = 5\n",
        "src/repro/sweep/store.py": f"ANALYSIS_VERSION = {version}\n",
    }.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(body)


def set_version(root: Path, version: int) -> None:
    (root / "src/repro/sweep/store.py").write_text(
        f"ANALYSIS_VERSION = {version}\n"
    )


@pytest.fixture
def sandbox(tmp_path) -> Path:
    make_sandbox(tmp_path)
    proc = run_guard("--root", str(tmp_path), "--update", "--allow-same-version")
    assert proc.returncode == 0, proc.stderr
    return tmp_path


class TestRealRepository:
    def test_committed_manifest_in_sync(self):
        """The real tree passes — i.e. nobody merged a metric change
        without recording it (this is the exact invocation CI runs)."""
        proc = run_guard("--root", str(REPO_ROOT))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "OK" in proc.stdout

    def test_manifest_names_the_metric_modules(self):
        manifest = json.loads(
            (REPO_ROOT / "scripts/analysis_version_manifest.json").read_text()
        )
        files = manifest["files"]
        assert "src/repro/core/kappa.py" in files
        assert "src/repro/analysis/stats.py" in files
        assert "src/repro/analysis/stability.py" in files
        assert "src/repro/replay/burst.py" in files
        assert "src/repro/testbeds/base.py" in files
        assert all(len(digest) == 64 for digest in files.values())
        from repro.sweep.store import ANALYSIS_VERSION

        assert manifest["analysis_version"] == ANALYSIS_VERSION


class TestSandboxVerdicts:
    def test_in_sync_passes(self, sandbox):
        proc = run_guard("--root", str(sandbox))
        assert proc.returncode == 0

    def test_change_without_bump_fails(self, sandbox):
        (sandbox / "src/repro/core/kappa.py").write_text(
            "def kappa():\n    return 0.5\n"
        )
        proc = run_guard("--root", str(sandbox))
        assert proc.returncode == 1
        assert "changed: src/repro/core/kappa.py" in proc.stderr
        assert "Bump ANALYSIS_VERSION" in proc.stderr

    def test_simulator_change_without_bump_fails(self, sandbox):
        """The store caches simulated trials, so the simulator is guarded."""
        (sandbox / "src/repro/replay/burst.py").write_text("MAX_BURST = 32\n")
        proc = run_guard("--root", str(sandbox))
        assert proc.returncode == 1
        assert "changed: src/repro/replay/burst.py" in proc.stderr
        assert "Bump ANALYSIS_VERSION" in proc.stderr

    def test_new_guarded_file_counts_as_change(self, sandbox):
        (sandbox / "src/repro/analysis/extra.py").write_text("X = 1\n")
        proc = run_guard("--root", str(sandbox))
        assert proc.returncode == 1
        assert "changed: src/repro/analysis/extra.py" in proc.stderr

    def test_bump_alone_is_a_stale_manifest(self, sandbox):
        """Bumping the version without re-recording still fails: the
        manifest must be regenerated so the next change diffs cleanly."""
        (sandbox / "src/repro/core/kappa.py").write_text("K = 2\n")
        set_version(sandbox, 2)
        proc = run_guard("--root", str(sandbox))
        assert proc.returncode == 1
        assert "--update" in proc.stderr

    def test_bump_then_update_passes(self, sandbox):
        (sandbox / "src/repro/core/kappa.py").write_text("K = 2\n")
        set_version(sandbox, 2)
        proc = run_guard("--root", str(sandbox), "--update")
        assert proc.returncode == 0, proc.stderr
        proc = run_guard("--root", str(sandbox))
        assert proc.returncode == 0
        manifest = json.loads(
            (sandbox / "scripts/analysis_version_manifest.json").read_text()
        )
        assert manifest["analysis_version"] == 2

    def test_update_refuses_same_version_after_change(self, sandbox):
        (sandbox / "src/repro/core/kappa.py").write_text("K = 3\n")
        proc = run_guard("--root", str(sandbox), "--update")
        assert proc.returncode == 1
        assert "refusing" in proc.stderr
        # The escape hatch for bit-neutral changes:
        proc = run_guard(
            "--root", str(sandbox), "--update", "--allow-same-version"
        )
        assert proc.returncode == 0
        assert run_guard("--root", str(sandbox)).returncode == 0

    def test_missing_manifest_is_an_explicit_error(self, tmp_path):
        make_sandbox(tmp_path)
        proc = run_guard("--root", str(tmp_path))
        assert proc.returncode != 0
        assert "missing" in proc.stderr

    def test_nonsense_root_rejected(self, tmp_path):
        proc = run_guard("--root", str(tmp_path / "nowhere"))
        assert proc.returncode == 2
