"""The public API surface: imports, exports, and version."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackages_importable(self):
        for pkg in (
            "repro.tech",
            "repro.circuits",
            "repro.leakage",
            "repro.power",
            "repro.cache",
            "repro.cpu",
            "repro.leakctl",
            "repro.workloads",
            "repro.experiments",
            "repro.cli",
        ):
            assert importlib.import_module(pkg) is not None

    def test_subpackage_alls_resolve(self):
        for pkg_name in (
            "repro.tech",
            "repro.circuits",
            "repro.leakage",
            "repro.power",
            "repro.cache",
            "repro.cpu",
            "repro.leakctl",
            "repro.workloads",
            "repro.experiments",
        ):
            pkg = importlib.import_module(pkg_name)
            for name in getattr(pkg, "__all__", []):
                assert hasattr(pkg, name), f"{pkg_name}.{name}"

    def test_quickstart_snippet_from_readme(self):
        """The README's quickstart must keep working."""
        from repro import (
            HotLeakage,
            L1D_GEOMETRY,
        )

        hot = HotLeakage("70nm", vdd=0.9, temp_c=110)
        dcache = hot.cache_model(L1D_GEOMETRY)
        assert dcache.total_power_all_active() > 0
        assert 0 < dcache.gated_fraction < dcache.drowsy_fraction < 1

    def test_paper_constants_exposed(self):
        assert repro.PAPER_L2_LATENCIES == (5, 8, 11, 17)
        assert repro.PAPER_MACHINE.ruu_size == 80
        assert len(repro.BENCHMARK_NAMES) == 11

    def test_examples_are_importable(self):
        """Examples must at least parse and define main()."""
        import pathlib
        import ast

        examples = pathlib.Path(__file__).parent.parent / "examples"
        files = sorted(examples.glob("*.py"))
        assert len(files) >= 3
        for path in files:
            tree = ast.parse(path.read_text())
            names = {
                node.name
                for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef)
            }
            assert "main" in names, path.name


class TestScipyStaysUnloaded:
    """The figure path never loads scipy: not at import, not in a cold
    leakage reduction.  Only the ``fsolve`` polish of non-chain cells
    (which no figure point reaches) and the tests import it."""

    def test_import_and_cold_reduction_leave_scipy_unloaded(self):
        script = textwrap.dedent(
            """
            import sys

            import repro
            import repro.cli
            from repro.experiments.runner import _leakage_model_cached

            model = _leakage_model_cached(110.0)
            for value in (
                model.edge_logic_power,
                model.cell_power,
                model.drowsy_fraction,
                model.gated_fraction,
            ):
                assert value > 0.0, value
            loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
            print(",".join(loaded))
            """
        )
        src = Path(repro.__file__).resolve().parent.parent
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert out.stdout.strip() == ""
