"""Import contract: curvedwork runs on numpy and the standard library only.  No run
loads scipy, importing curvedwork adds no hashlib, a scenario run hashes its config
without loading OpenSSL, and only a run that samples loads numpy.random.  Each check runs
in a fresh interpreter, since this test process may have loaded scipy and OpenSSL
already."""

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


SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def fresh_run(tmp_path, argv=None, loaded=SCIPY_MODULES):
    """Exit code of cli.main(argv) (None: import only) and the value of the expression
    `loaded` afterwards: by default, the scipy modules then loaded.  `loaded` may read
    `with_numpy`, the modules loaded once numpy alone is imported."""
    script = "\n".join([
        "import io, json, sys, contextlib, numpy",
        "with_numpy = set(sys.modules)",
        "from curvedwork import cli",
        f"argv = {argv!r}",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    rc = None if argv is None else cli.main(argv)",
        f"print(json.dumps([rc, {loaded}]))",
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


def test_verify_fast_loads_no_scipy(tmp_path):
    assert fresh_run(tmp_path, ["verify", "--level", "fast"]) == [0, []]


# the console-script config of the custom oscillator run: a linear R_txtx history
CI_OSCILLATOR = {"scenario": "custom", "beta": 2.0,
                 "system": {"kind": "oscillator", "mass": 1.0, "omega0": 1.0, "dim": 20},
                 "geometry": {"frame_tables": {
                     "tau": [0.0, 5.0], "accel": np.zeros((2, 3)).tolist(),
                     "riemann_titj": [(-1e-4 * np.eye(3)).tolist(), (-4e-4 * np.eye(3)).tolist()],
                     **{key: np.zeros((2,) + (3,) * n).tolist()
                        for key, n in (("riemann_tjik", 3), ("riemann_ikjl", 4))}}},
                 "duration": 5.0, "steps": 100}


@pytest.mark.parametrize("cfg", [README_DESITTER, CI_OSCILLATOR],
                         ids=["desitter", "custom_oscillator"])
def test_oscillator_run_loads_no_scipy(tmp_path, cfg):
    # the parity-sector solves are numpy's, and the first-order amplitude is closed-form
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    argv = [cfg["scenario"], "--config", str(config), "--out", str(tmp_path / "out")]
    assert fresh_run(tmp_path, argv) == [0, []]


@pytest.mark.parametrize("cfg", [README_NEWTONIAN, CI_OSCILLATOR],
                         ids=["newtonian", "custom_oscillator"])
def test_scenario_run_loads_no_openssl(tmp_path, cfg):
    # config_sha256 is CPython's built-in SHA-256; hashlib would load libcrypto (≈3.6 MB).
    # Measured against numpy alone: numpy 1.x loads it on import (numpy.random imports
    # secrets and hmac), and so does a run with samples on any numpy
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    argv = [cfg["scenario"], "--config", str(config), "--out", str(tmp_path / "out")]
    added = "'_hashlib' in set(sys.modules) - with_numpy"
    assert fresh_run(tmp_path, argv, loaded=added) == [0, False]


@pytest.mark.parametrize("level", ["fast", "full"])
def test_verify_loads_no_numpy_random(tmp_path, level):
    # A1's ensemble and A6's driven path come from the stdlib random: numpy.random costs
    # ≈6 MB, mostly OpenSSL (numpy.random.bit_generator imports secrets). Measured
    # against numpy alone, which on numpy 1.x imports numpy.random itself
    added = "sorted({'numpy.random', '_hashlib'} & (set(sys.modules) - with_numpy))"
    argv = ["verify", "--level", level, "--out", str(tmp_path / "out")]
    assert fresh_run(tmp_path, argv, loaded=added) == [0, []]


def test_one_outcome_sampled_run_loads_no_numpy_random(tmp_path):
    # at the origin z stays 1, so every work is 0 and the estimate needs no draw
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**README_NEWTONIAN, "position": [0.0, 0.0, 0.0],
                                  "samples": 100, "seed": 5}))
    argv = ["newtonian", "--config", str(config), "--out", str(tmp_path / "out")]
    added = "'numpy.random' in set(sys.modules) - with_numpy"
    assert fresh_run(tmp_path, argv, loaded=added) == [0, False]
    assert (tmp_path / "out" / "forward.csv").read_text().splitlines() == [
        "work,probability", "0.0,1.0"]
