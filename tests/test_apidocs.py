"""Tests for repro.tools.apidocs (API-reference generation)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.tools import apidocs

_SRC = Path(repro.__file__).resolve().parent.parent


class TestModuleWalk:
    def test_covers_every_subpackage(self):
        names = list(apidocs.iter_module_names())
        for expected in ("repro", "repro.core.flops",
                         "repro.hardware.gemm", "repro.sim.executor",
                         "repro.models.zoo", "repro.experiments.registry"):
            assert expected in names

    def test_sorted(self):
        names = list(apidocs.iter_module_names())
        assert names == sorted(names)


class TestRendering:
    def test_module_section_contains_members(self):
        section = apidocs.render_module("repro.core.algebra")
        assert "## `repro.core.algebra`" in section
        assert "edge_complexity" in section
        assert "Equation 6" in section

    def test_classes_marked(self):
        section = apidocs.render_module("repro.core.hyperparams")
        assert "### class `ModelConfig`" in section

    def test_full_reference_renders(self):
        text = apidocs.render_reference()
        assert "# repro API reference" in text
        assert "## `repro.sim.engine`" in text
        assert "run_schedule" in text

    def test_write_reference(self, tmp_path):
        target = apidocs.write_reference(tmp_path / "docs" / "API.md")
        assert target.exists()
        assert "repro API reference" in target.read_text()

    def test_reference_holds_no_checkout_path(self):
        # A default argument that is a module renders with its file path,
        # so the reference would differ between two clones.
        section = apidocs.render_module("repro.tools.apidocs")
        assert "iter_module_names(package=None)" in section
        assert "<module" not in section
        assert str(_SRC) not in section


class TestCommandLine:
    def test_help_prints_usage_and_writes_nothing(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(_SRC), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-m", "repro.tools.apidocs", "--help"],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
        assert done.returncode == 0
        assert done.stdout.startswith("usage:")
        assert list(tmp_path.iterdir()) == []

    def test_writes_the_given_path(self, tmp_path, capsys):
        apidocs.main([str(tmp_path / "API.md")])
        assert "repro API reference" in (tmp_path / "API.md").read_text()
        assert "wrote" in capsys.readouterr().out
