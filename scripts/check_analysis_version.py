#!/usr/bin/env python
"""Guard: metric and simulator source cannot change without an ANALYSIS_VERSION bump.

The artifact store (:mod:`repro.sweep.store`) keys cached trial series
and Section-3 reports by ``ANALYSIS_VERSION``.  If the code that
produces those bits changes but the version does not, every existing
store resurrects stale results — silently, because the digest still
matches.  This script makes that failure mode a CI error:

* a manifest (``scripts/analysis_version_manifest.json``) records the
  sha256 of every ``*.py`` file under the metric code
  (``src/repro/core/``, ``src/repro/analysis/``) and the simulator whose
  trials the store caches (``replay/``, ``net/``, ``generators/``,
  ``timing/``, ``testbeds/``) alongside the ``ANALYSIS_VERSION`` they
  were recorded at;
* ``check`` (the default) fails when the working tree disagrees with
  the manifest — naming the changed files and whether the version was
  bumped;
* ``--update`` re-records the manifest, refusing to do so after a
  content change unless ``ANALYSIS_VERSION`` was bumped (or
  ``--allow-same-version`` is given for changes argued not to alter any
  stored bit — docstrings, comments, new code behind new entry points).

Workflow when touching metric or simulator code::

    1. edit a file under one of GUARDED_DIRS
    2. bump ANALYSIS_VERSION in src/repro/sweep/store.py
       (or decide the change is bit-neutral)
    3. python scripts/check_analysis_version.py --update
       [--allow-same-version]
    4. commit the manifest with the change

Exit codes: 0 in sync, 1 violation, 2 usage/environment error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from pathlib import Path

#: Directories whose ``*.py`` files determine stored bits: the metric
#: code, and the simulator that produces the cached trial series.
GUARDED_DIRS = (
    "src/repro/core",
    "src/repro/analysis",
    "src/repro/replay",
    "src/repro/net",
    "src/repro/generators",
    "src/repro/timing",
    "src/repro/testbeds",
)
#: Where ``ANALYSIS_VERSION`` is declared.
VERSION_FILE = "src/repro/sweep/store.py"
#: The recorded state this script checks against.
MANIFEST = "scripts/analysis_version_manifest.json"

_VERSION_RE = re.compile(r"^ANALYSIS_VERSION\s*=\s*(\d+)\s*$", re.MULTILINE)


def read_analysis_version(root: Path) -> int:
    """Parse ``ANALYSIS_VERSION`` out of the store module's source."""
    source = (root / VERSION_FILE).read_text()
    match = _VERSION_RE.search(source)
    if match is None:
        raise SystemExit(
            f"error: no 'ANALYSIS_VERSION = <int>' line in {VERSION_FILE}"
        )
    return int(match.group(1))


def hash_guarded_files(root: Path) -> dict[str, str]:
    """sha256 per guarded file, keyed by posix-style repo-relative path."""
    hashes: dict[str, str] = {}
    for dirname in GUARDED_DIRS:
        base = root / dirname
        if not base.is_dir():
            raise SystemExit(f"error: guarded directory {dirname} not found")
        for path in sorted(base.rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            hashes[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


def load_manifest(root: Path) -> dict:
    path = root / MANIFEST
    if not path.is_file():
        raise SystemExit(
            f"error: {MANIFEST} missing; create it with --update "
            "--allow-same-version"
        )
    return json.loads(path.read_text())


def diff_files(recorded: dict[str, str], current: dict[str, str]) -> list[str]:
    """Changed, added, or removed guarded files (sorted)."""
    changed = {
        rel for rel in set(recorded) | set(current)
        if recorded.get(rel) != current.get(rel)
    }
    return sorted(changed)


def check(root: Path) -> int:
    manifest = load_manifest(root)
    version = read_analysis_version(root)
    changed = diff_files(manifest.get("files", {}), hash_guarded_files(root))
    recorded_version = manifest.get("analysis_version")

    if not changed and version == recorded_version:
        print(
            f"analysis version guard: OK ({len(manifest['files'])} files "
            f"in sync at ANALYSIS_VERSION={version})"
        )
        return 0

    print("analysis version guard: FAIL", file=sys.stderr)
    for rel in changed:
        print(f"  changed: {rel}", file=sys.stderr)
    if changed and version == recorded_version:
        print(
            f"\nMetric or simulator files changed but ANALYSIS_VERSION is still "
            f"{version}: persistent stores would resurrect stale results.\n"
            f"Bump ANALYSIS_VERSION in {VERSION_FILE}, then run\n"
            f"  python scripts/check_analysis_version.py --update\n"
            f"(or --update --allow-same-version if no stored bit changes).",
            file=sys.stderr,
        )
    else:
        print(
            f"\nManifest is stale (recorded ANALYSIS_VERSION="
            f"{recorded_version}, source says {version}).  Re-record with\n"
            f"  python scripts/check_analysis_version.py --update",
            file=sys.stderr,
        )
    return 1


def update(root: Path, *, allow_same_version: bool) -> int:
    version = read_analysis_version(root)
    current = hash_guarded_files(root)
    path = root / MANIFEST
    if path.is_file():
        manifest = json.loads(path.read_text())
        changed = diff_files(manifest.get("files", {}), current)
        if (
            changed
            and version <= manifest.get("analysis_version", 0)
            and not allow_same_version
        ):
            print(
                f"refusing to re-record {len(changed)} changed files at the "
                f"same ANALYSIS_VERSION={version}; bump it in {VERSION_FILE} "
                "first, or pass --allow-same-version for a change that "
                "provably alters no stored bit.",
                file=sys.stderr,
            )
            return 1
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"analysis_version": version, "files": current}
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    print(
        f"recorded {len(current)} files at ANALYSIS_VERSION={version} "
        f"into {MANIFEST}"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", type=Path, default=Path(__file__).resolve().parent.parent,
        help="repository root (default: this script's grandparent)",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="re-record the manifest instead of checking it",
    )
    parser.add_argument(
        "--allow-same-version", action="store_true",
        help="with --update: permit re-recording changed files without a "
        "version bump (bit-neutral changes only)",
    )
    args = parser.parse_args(argv)
    root = args.root.resolve()
    if not (root / VERSION_FILE).is_file():
        print(f"error: {root} does not look like the repo root", file=sys.stderr)
        return 2
    if args.update:
        return update(root, allow_same_version=args.allow_same_version)
    return check(root)


if __name__ == "__main__":
    sys.exit(main())
