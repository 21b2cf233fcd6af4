"""Import contract: importing curvedwork loads numpy and the standard library only,
and scipy and hashlib load in the calls that need them.  Each check runs in a fresh
interpreter, since this test process may have loaded scipy already."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import curvedwork

SRC = Path(curvedwork.__file__).resolve().parents[1]

README_NEWTONIAN = {
    "scenario": "newtonian",
    "beta": 1.0,
    "system": {"kind": "two_level", "eps": 1.0, "mass": 1.0},
    "geometry": {"g": 0.1},
    "position": [0.5, 0.0, 0.0],
    "momentum": [0.0, 0.0, 0.0],
    "duration": 1.0,
    "steps": 50,
}

README_DESITTER = {
    "scenario": "desitter",
    "beta": 1.0,
    "system": {"kind": "oscillator", "mass": 1.0, "omega0": 1.0, "dim": 40},
    "geometry": {"hubble": 0.01},
    "duration": 5.0,
    "steps": 100,
}


# the console-script configs of the custom two_level and matrix runs: one constant
# uniform-gravity row of g = 0.1 held over [0, 1]
CI_TABLES = {"tau": [0.0, 1.0], "accel": [[0.1, 0.0, 0.0]] * 2,
             **{key: np.zeros((2,) + (3,) * n).tolist()
                for key, n in (("riemann_titj", 2), ("riemann_tjik", 3), ("riemann_ikjl", 4))}}
CI_CUSTOM = {"scenario": "custom", "beta": 1.0, "system": {"kind": "two_level", "eps": 1.0},
             "geometry": {"frame_tables": CI_TABLES}, "position": [0.5, 0.0, 0.0],
             "duration": 1.0, "steps": 50}
CI_MATRIX = {**CI_CUSTOM, "system": {"kind": "matrix", "entries": [
    [1.0, 0.2, 0.0], [0.2, 0.5, 0.1], [0.0, 0.1, -0.3]]}}


def fresh_run(tmp_path, argv=None):
    """Exit code of cli.main(argv) (None: import only) and the scipy modules then loaded."""
    script = "\n".join([
        "import io, json, sys, contextlib",
        "from curvedwork import cli",
        f"argv = {argv!r}",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    rc = None if argv is None else cli.main(argv)",
        "print(json.dumps([rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))",
    ])
    return fresh_python(tmp_path, script)


def fresh_python(tmp_path, script):
    """What `script`, run in a fresh interpreter that finds these sources, prints as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    return json.loads(done.stdout)


def test_import_loads_no_scipy(tmp_path):
    assert fresh_run(tmp_path) == [None, []]


def test_import_adds_no_hashlib(tmp_path):
    # numpy 1.x loads hashlib itself (numpy.random imports secrets), so compare with numpy alone
    script = ("import json, sys, numpy; before = 'hashlib' in sys.modules; import curvedwork.cli; "
              "print(json.dumps([before, 'hashlib' in sys.modules]))")
    before, after = fresh_python(tmp_path, script)
    assert after == before


@pytest.mark.parametrize("cfg", [README_NEWTONIAN, CI_CUSTOM, CI_MATRIX],
                         ids=["newtonian", "custom_two_level", "custom_matrix"])
def test_rescaled_run_loads_no_scipy(tmp_path, cfg):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    argv = [cfg["scenario"], "--config", str(config), "--out", str(tmp_path / "out")]
    assert fresh_run(tmp_path, argv) == [0, []]


def test_verify_fast_loads_no_quadrature(tmp_path):
    rc, modules = fresh_run(tmp_path, ["verify", "--level", "fast"])
    assert rc == 0
    assert "scipy.linalg" in modules  # the parity-sector solves of A4, A5 and A8
    assert "scipy.integrate" not in modules


def test_desitter_run_loads_no_quadrature(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(README_DESITTER))
    rc, modules = fresh_run(tmp_path, ["desitter", "--config", str(config),
                                       "--out", str(tmp_path / "out")])
    assert rc == 0
    assert "scipy.linalg" in modules  # the parity-sector solves
    assert "scipy.integrate" not in modules  # the first-order amplitude is closed-form


def test_verify_imports_sector_solver_before_first_criterion(tmp_path):
    # the one-time scipy.linalg import is not charged to the first criterion that solves
    script = "\n".join([
        "import json, sys",
        "from curvedwork import verify",
        "probe = lambda level: [verify.CriterionResult('probe', 'scipy.linalg' in sys.modules)]",
        "verify.CRITERIA[:] = [probe]",
        "print(json.dumps(verify.run_verification('fast')['criteria'][0]['passed']))",
    ])
    assert fresh_python(tmp_path, script) is True
