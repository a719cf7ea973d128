"""API-surface integrity: every exported name exists and imports cleanly."""

import importlib
import json
import subprocess
import sys

import pytest

SUBPACKAGES = [
    "repro",
    "repro.core",
    "repro.net",
    "repro.timing",
    "repro.replay",
    "repro.generators",
    "repro.testbeds",
    "repro.analysis",
    "repro.experiments",
    "repro.parallel",
    "repro.viz",
]


class TestExports:
    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_all_entries_resolve(self, name):
        mod = importlib.import_module(name)
        assert hasattr(mod, "__all__"), f"{name} has no __all__"
        missing = [n for n in mod.__all__ if not hasattr(mod, n)]
        assert not missing, f"{name}.__all__ lists missing names: {missing}"

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_docstrings_present(self, name):
        mod = importlib.import_module(name)
        assert mod.__doc__ and len(mod.__doc__.strip()) > 20

    def test_lazy_subpackages_resolve(self):
        import repro

        for sub in ("net", "timing", "replay", "generators", "testbeds",
                    "analysis", "experiments", "parallel", "viz"):
            assert getattr(repro, sub) is importlib.import_module(f"repro.{sub}")

    def test_unknown_attribute_raises(self):
        import repro

        with pytest.raises(AttributeError):
            repro.nonexistent_subpackage

    def test_version(self):
        import repro

        assert repro.__version__.count(".") == 2

    def test_public_callables_have_docstrings(self):
        """Every public function/class in __all__ carries a docstring."""
        undocumented = []
        for name in SUBPACKAGES[1:]:
            mod = importlib.import_module(name)
            for export in mod.__all__:
                obj = getattr(mod, export)
                if callable(obj) and not (obj.__doc__ or "").strip():
                    undocumented.append(f"{name}.{export}")
        assert not undocumented, undocumented

    def test_cli_module_importable(self):
        from repro.cli import build_parser

        parser = build_parser()
        assert parser.prog == "repro"


def loaded_modules(imports: list[str]) -> set[str]:
    """``sys.modules`` of a fresh interpreter after importing ``imports``."""
    code = "".join(f"import {name}\n" for name in imports)
    code += "import json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def within(modules: set[str], roots: tuple[str, ...]) -> list[str]:
    """The modules that are one of ``roots`` or inside one of them."""
    prefixes = tuple(f"{root}." for root in roots)
    return sorted(m for m in modules if m in roots or m.startswith(prefixes))


class TestImportWeight:
    def test_sweep_coordinator_loads_no_experiments_or_analysis(self):
        """A sweep unit needs testbeds, core and the store: every forkserver
        worker preloads the coordinator, so it must stay this light."""
        mods = loaded_modules(["repro.sweep.coordinator"])
        assert not within(mods, ("repro.experiments", "repro.analysis", "networkx"))

    def test_help_and_usage_errors_load_no_numpy(self):
        """``repro --help`` and argparse usage errors exit before anything
        that needs numpy is imported."""
        code = (
            "import sys\n"
            "from repro.cli import main\n"
            "for argv in (['--help'], ['stability', '--jobs', '0']):\n"
            "    try:\n"
            "        main(argv)\n"
            "    except SystemExit:\n"
            "        pass\n"
            "print('numpy' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    def test_no_package_loads_networkx_or_scipy(self):
        mods = loaded_modules(SUBPACKAGES + ["repro.cli", "repro.sweep"])
        assert not within(mods, ("networkx", "scipy"))
