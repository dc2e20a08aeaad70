"""The package imports numpy only: scipy loads on a lookup of a traced solver name."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import densecap.densecoding as dc
import densecap.separable as sep

SRC = Path(__file__).resolve().parent.parent / "src"

CLI_RUN = """
import sys
import densecap
import densecap.cli
densecap.cli.main(["verify", "--state", "werner:0.75"])
densecap.cli.main(["capacity", "--state", "werner:0.75", "--mode", "cgdc-opt"])
densecap.optimize_cgdc(densecap.werner(0.75))
assert "scipy" not in sys.modules, sorted(name for name in sys.modules if name.startswith("scipy"))
"""


def test_cli_runs_without_importing_scipy():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", CLI_RUN], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert '"c_sdc"' in proc.stdout and '"capacity_bits"' in proc.stdout


def test_solver_names_resolve_to_scipy_without_binding():
    optimize = pytest.importorskip("scipy.optimize")
    for module, name in ((sep, "minimize"), (sep, "brentq"), (dc, "minimize")):
        before = dict(vars(module))
        assert getattr(module, name) is getattr(optimize, name)
        assert vars(module) == before
    for module, name in ((sep, "newton"), (dc, "brentq"), (dc, "no_such_name")):
        with pytest.raises(AttributeError, match=name):
            getattr(module, name)
