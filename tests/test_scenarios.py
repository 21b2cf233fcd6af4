"""Config handling, scenario runners, sampling, CSV/JSON emission, CLI."""

import contextlib
import copy
import csv
import functools
import hashlib
import importlib
import io
import json
import math
import operator
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvedwork
from curvedwork import quantum, scenarios
from curvedwork.cli import main as cli_main
from curvedwork.errors import ConfigError, ConvergenceError, InputError
from curvedwork.frame import FrameData, FramePoint, time_dilation
from curvedwork.quantum import (AffinePath, EnergyBasis, energy_basis, propagator,
                                qho_hamiltonian, thermal_state, x_squared_matrix)
from curvedwork.scenarios import (
    RunArtifacts,
    ScenarioConfig,
    run_scenario,
    sample_work,
)
from curvedwork.tpm import WorkDistribution, dissipated_work_thermal, entropy_production_two_level


SRC = Path(curvedwork.__file__).resolve().parents[1]


def canonical_json(cfg):
    """The config with defaults filled in, keys sorted and no spaces."""
    return json.dumps(vars(cfg), sort_keys=True, separators=(",", ":"))


def config_sha256(cfg):
    return hashlib.sha256(canonical_json(cfg).encode()).hexdigest()


def newtonian_config(**overrides):
    data = {
        "scenario": "newtonian",
        "beta": 1.0,
        "system": {"kind": "two_level", "eps": 1.0, "mass": 1.0},
        "geometry": {"g": 0.1},
        "position": [0.5, 0.0, 0.0],
        "momentum": [0.0, 0.0, 0.0],
        "duration": 1.0,
        "steps": 50,
    }
    data.update(overrides)
    return ScenarioConfig.from_dict(data)


def desitter_config(**overrides):
    data = {
        "scenario": "desitter",
        "beta": 1.0,
        "system": {"kind": "oscillator", "mass": 1.0, "omega0": 1.0, "dim": 40},
        "geometry": {"hubble": 0.01},
        "duration": 5.0,
        "steps": 100,
    }
    data.update(overrides)
    return ScenarioConfig.from_dict(data)


def uniform_gravity_tables(g=0.1, n=5):
    taus = np.linspace(0.0, 1.0, n)
    return {
        "tau": taus.tolist(),
        "accel": [[g, 0.0, 0.0]] * n,
        "riemann_titj": np.zeros((n, 3, 3)).tolist(),
        "riemann_tjik": np.zeros((n, 3, 3, 3)).tolist(),
        "riemann_ikjl": np.zeros((n, 3, 3, 3, 3)).tolist(),
    }


def random_symmetric(seed, dim):
    m = np.random.default_rng(seed).normal(size=(dim, dim))
    return 0.5 * (m + m.T)


def desitter_tables(hubble, n=5):
    taus = np.linspace(0.0, 1.0, n)
    eye = np.eye(3)
    titj = -(hubble**2) * eye
    ikjl = hubble**2 * (
        np.einsum("ij,kl->ikjl", eye, eye) - np.einsum("il,kj->ikjl", eye, eye)
    )
    return {
        "tau": taus.tolist(),
        "accel": np.zeros((n, 3)).tolist(),
        "riemann_titj": [titj.tolist()] * n,
        "riemann_tjik": np.zeros((n, 3, 3, 3)).tolist(),
        "riemann_ikjl": [ikjl.tolist()] * n,
    }


def ci_configs():
    """The CI console step's configs by name, defaults filled in; its newtonian and desitter
    configs are also the README examples."""
    custom = {**vars(newtonian_config()), "scenario": "custom",
              "system": {"kind": "two_level", "eps": 1.0},
              "geometry": {"frame_tables": uniform_gravity_tables(n=2)}}
    entries = [[1.0, 0.2, 0.0], [0.2, 0.5, 0.1], [0.0, 0.1, -0.3]]
    frw = {**uniform_gravity_tables(g=0.0, n=2), "tau": [0.0, 5.0],
           "riemann_titj": [(-1e-4 * np.eye(3)).tolist(), (-4e-4 * np.eye(3)).tolist()]}
    return {
        "ci-newtonian": vars(newtonian_config()), "ci-desitter": vars(desitter_config()),
        "ci-custom": custom,
        "ci-matrix": {**custom, "system": {"kind": "matrix", "entries": entries}},
        "ci-oscillator": {**vars(desitter_config()), "scenario": "custom", "beta": 2.0,
                          "system": {"kind": "oscillator", "mass": 1.0, "omega0": 1.0, "dim": 20},
                          "geometry": {"frame_tables": frw}},
    }


def shipped_configs(monkeypatch):
    """The CI configs and the benchmark's full-size configs, by name."""
    monkeypatch.syspath_prepend(str(SRC.parent / "benchmarks"))
    workloads = importlib.import_module("workloads")
    fixed = workloads.fixed_configs("full")
    return {
        **ci_configs(),
        "oscillator_d120.desitter": fixed["oscillator_d120.desitter"],
        "oscillator_d120.custom": fixed["oscillator_d120.custom"],
        "tables_two_level": fixed["tables_two_level.custom"],
        "tpm_wide_d200": workloads._rescaling_config(
            {"kind": "matrix", "entries": workloads.random_symmetric(1, 200).tolist()},
            workloads.accelerated_desitter_tables(8, 1.0), 20),
    }


# (CI config, a scoped field it does not read, a value other than the field's default, the run)
UNREAD_FIELDS = [
    *[("ci-desitter", key, value, "desitter scenario") for key, value in [
        ("position", [0.1, 0.0, 0.0]), ("momentum", [0.1, 0.0, 0.0]),
        ("zfactor_grid", [0.9, 1.1]), ("tolerances", {"frame_symmetry": 1e-6})]],
    *[("ci-oscillator", key, value, "custom scenario's oscillator system") for key, value in [
        ("position", [0.1, 0.0, 0.0]), ("momentum", [0.1, 0.0, 0.0]),
        ("zfactor_grid", [0.9, 1.1])]],
    ("ci-custom", "zfactor_grid", [0.9, 1.1], "custom scenario's two_level system"),
    ("ci-matrix", "zfactor_grid", [0.9, 1.1], "custom scenario's matrix system"),
    ("ci-newtonian", "curve_points", 20, "newtonian scenario"),
    ("ci-newtonian", "tolerances", {"frame_symmetry": 1e-6}, "newtonian scenario"),
]


# the rows of ci_error_cases() whose prefix is the whole stderr line
WHOLE_LINE_CASES = {
    *(f"{name}-with-{key}" for name, key, _, _ in UNREAD_FIELDS), "missing-keys",
    "output-path-key", "momentum-1e200-newtonian", "momentum-1e200-custom", "far-position",
    "guard-accel-row", "guard-accel", "guard-titj", "accel-overflow", "mass-overflow",
    "omega0-overflow", "matrix-span-overflow", "mass-underflow", "scaled-levels-overflow",
    "radius-overflow"}


def ci_error_cases():
    """The error-line cases of Tier-1 and of the CI console step, name -> (config, exit code,
    the prefix of the one stderr line).  Each run ends in that code and one stderr line: the
    prefix itself for the names in WHOLE_LINE_CASES, a line that starts with it for the rest."""
    ci = ci_configs()
    n, d, c, o = ci["ci-newtonian"], ci["ci-desitter"], ci["ci-custom"], ci["ci-oscillator"]
    tables = c["geometry"]["frame_tables"]
    wide = [[1.0, 1.7e308, 0.0], [1.7e308, 0.5, 0.1], [0.0, 0.1, -0.3]]
    ikjl = np.zeros((2, 3, 3, 3, 3))
    ikjl[0, 0, 0, 1, 1] = 1.7e308  # doubles past the float range in r + swapaxes(r)
    guard = {**c, "curve_points": 2}
    # fields that are malformed, out of scope or out of bounds in the newtonian config
    malformed = {
        "beta-string": {"beta": "1.0"}, "beta-bool": {"beta": True},
        "system-list": {"system": [1]}, "position-scalar": {"position": 3},
        "momentum-2-vector": {"momentum": [0.0, 0.0]}, "samples-float": {"samples": 2.5},
        "steps-float": {"steps": 1.5}, "steps-bool": {"steps": True},
        "duration-infinite": {"duration": math.inf}, "merge_tol-zero": {"merge_tol": 0.0},
        "seed-negative": {"seed": -1}, "zfactor_grid-string": {"zfactor_grid": [0.9, "1.1"]},
        "tolerance-null": {"tolerances": {"frame_symmetry": None}},
        "tolerance-unknown": {"tolerances": {"symmetry": 1e-9}},
        "g-nan": {"geometry": {"g": math.nan}},
        "eps-bool": {"system": {"kind": "two_level", "eps": True}},
        "dim-float": {"system": {"kind": "oscillator", "mass": 1.0, "omega0": 1.0, "dim": 40.0}},
        "entries-ragged": {"system": {"kind": "matrix", "entries": [[1.0], [0.0, 1.0]]}},
        "entries-overflow": {"system": {"kind": "matrix", "entries": [[1.0, 2 * 10 ** 400],
                                                                     [0, 1]]}},
        "table-string": {"scenario": "custom", "geometry": {"frame_tables": {
            **tables, "tau": [0.0, "1.0"]}}},
        "table-bool": {"scenario": "custom", "geometry": {"frame_tables": {
            **tables, "accel": [[0.1, 0.0, 0.0], [0.1, 0.0, False]]}}},
        "steps-above-bound": {"steps": 10 ** 6 + 1},
        "samples-above-bound": {"samples": 10 ** 7 + 1},
        "curve_points-above-bound": {"curve_points": 10 ** 5 + 1},
        "dim-above-bound": {"scenario": "desitter", "geometry": {"hubble": 0.01}, "system": {
            "kind": "oscillator", "mass": 1.0, "omega0": 1.0, "dim": 2049}},
        "scenario-system-mismatch": {"system": {"kind": "oscillator", "mass": 1.0,
                                                "omega0": 1.0}},
        "geometry-key-missing": {"geometry": {}},
        "desitter-with-g": {"scenario": "desitter", "geometry": {"hubble": 0.01, "g": 0.1},
                            "system": {"kind": "oscillator", "mass": 1.0, "omega0": 1.0}},
        "newtonian-with-hubble": {"geometry": {"g": 0.1, "hubble": 0.01}},
        "custom-with-g": {"scenario": "custom", "geometry": {"frame_tables": tables, "g": 0.1}},
        "table-ends-before-duration": {"scenario": "custom", "duration": 10.0,
                                       "geometry": {"frame_tables": uniform_gravity_tables()}},
        "table-one-row": {"scenario": "custom",
                          "geometry": {"frame_tables": uniform_gravity_tables(n=1)}},
        "seed-without-samples": {"seed": 3},
        "zfactor_grid-empty": {"zfactor_grid": []},
    }
    return {
        **{name: ({**n, **overrides}, 1, "error:") for name, overrides in malformed.items()},
        **{f"{name}-with-{key}": ({**ci[name], key: value}, 1,
                                 f"error: config keys ['{key}'] do not apply to the {run}")
            for name, key, value, run in UNREAD_FIELDS},
        "missing-keys": ({"scenario": "newtonian"}, 1,
            "error: scenario, beta, system and geometry are required"),
        "output-path-key": ({**n, "output_path": "results"}, 1,
            "error: unknown config keys ['output_path']"),
        # z_T = 1 - 40^2/2 + 0.05 = -799, so e^(-beta delta_F) = Z_T / Z_0 is near e^799
        "momentum40": ({**n, "momentum": [40, 0, 0]}, 2,
            "numeric error: e^(-beta delta_F) overflows"),
        # 2 mass^2 underflows to 0, so p^2 / (2 mass^2) is inf after tau = 0
        "mass-underflow": ({**n, "system": {**n["system"], "mass": 5e-324},
                            "momentum": [0.0, 1e150, 0.0]}, 1,
            "error: non-finite time-dilation factor on the trajectory"),
        # z eps = -5e299 * 1e300 overflows in the final basis
        "scaled-levels-overflow": ({**n, "system": {**n["system"], "eps": 1e300},
                                    "momentum": [0.0, 1e150, 0.0]}, 1,
            "error: scaled levels z E overflow the float range"),
        # the radius hypot(0.5, 1.7e308, 1.7e308) overflows
        "radius-overflow": ({**c, "position": [0.5, 1.7e308, 1.7e308]}, 1,
            "error: |R| r^2 = nan at r = inf exceeds expansion bound"),
        # p.p overflows, so z is -inf everywhere after tau = 0
        **{f"momentum-1e200-{run['scenario']}": ({**run, "momentum": [1e200, 0.0, 0.0]}, 1,
            "error: non-finite time-dilation factor on the trajectory") for run in (n, c)},
        "omega0-1e300": ({**d, "system": {**d["system"], "omega0": 1e300}}, 1,
            "error: omega0 1e+300 is too large"),
        # z beta eps = 0.5 * 5e-324 rounds to 0, and the closed form takes log(1 - e^0)
        "eps-underflow": ({**n, "system": {**n["system"], "eps": 5e-324}}, 1,
            "error: zfactor and zfactor * beta_eps must be positive"),
        # z beta eps = 1.075 * 1.7e308 overflows: the closed form read log(1 - e^-inf) = 0
        "eps-overflow": ({**n, "system": {**n["system"], "eps": 1.7e308}}, 1,
            "error: zfactor and zfactor * beta_eps must be positive and finite, got zfactor 1.075"),
        # <n|x^2|m> = band / (2 mass omega0) overflows at omega0 = 5e-324
        "omega0-tiny": ({**o, "system": {**o["system"], "omega0": 5e-324}}, 1,
            "error: <n|x^2|m> overflows the float range"),
        # the top level (n + 1/2) omega0 = 19.5 * 1.7e308 of a custom oscillator overflows
        "omega0-overflow": ({**o, "system": {**o["system"], "omega0": 1.7e308}}, 1,
            "error: levels (n + 1/2) omega overflow the float range at omega 1.7e+308"),
        # the levels span 3.4e308, past the float range: the works E_T - E_0 are inf
        "matrix-span-overflow": ({**ci["ci-matrix"], "system": {"kind": "matrix",
                                                                "entries": wide}}, 1,
            "error: non-finite work or probability values"),
        # r^2 = 1e600 overflows, so |R| r^2 on zero curvature is 0 * inf: no trusted region
        "far-position": ({**ci["ci-matrix"], "position": [0.5, 1e300, 0]}, 1,
            "error: |R| r^2 = nan at r = 1e+300 exceeds expansion bound"),
        # the accel row at tau = 0.5 takes |a.x| past 0.1 only between the two curve points
        "guard-accel-row": ({**guard, "position": [0.4, 0.0, 0.0], "geometry": {"frame_tables": {
            **uniform_gravity_tables(n=3), "accel": [[0.0] * 3, [1.0, 0.0, 0.0], [0.0] * 3]}}},
            1, "error: |a.x| = 0.2 exceeds expansion bound"),
        # |a.x| and |R| r^2 pass 0.1 only between the step midpoints; 0.75 (1 - tau) tau^2
        # peaks at tau = 2/3, inside the one segment
        "guard-accel": ({**guard, "position": [0.5, 0.0, 0.0], "steps": 2, "geometry": {
            "frame_tables": {**tables, "accel": [[0.9, 0.0, 0.0], [0.0, 0.0, 0.0]]}}}, 1,
            "error: |a.x| = 0.113 exceeds expansion bound"),
        "guard-titj": ({**guard, "position": [1.0, 0.0, 0.0], "steps": 3, "geometry": {
            "frame_tables": {**tables, "accel": np.zeros((2, 3)).tolist(), "riemann_titj": [
                np.diag([0.75, 0.0, 0.0]).tolist(), np.zeros((3, 3)).tolist()]}}}, 1,
            "error: |R| r^2 = 0.111 at r = 0.667 exceeds expansion bound"),
        # a.x_end = -1.7e308 * 1.7e308 overflows in the straight-line guard
        "accel-overflow": ({**n, "geometry": {"g": -1.7e308}, "position": [1.7e308, 0, 0]}, 1,
            "error: |a.x| = inf exceeds expansion bound"),
        # (tau1 - tau0) ||h0|| = 1.7e308 * 39.5 overflows
        "duration-overflow": ({**d, "duration": 1.7e308}, 1,
            "error: non-finite path coefficient at a midpoint, or phase"),
        # (mass H^2 / 2)^2 = (5e295)^2 overflows in the closed-form transition probability
        "mass-overflow": ({**d, "system": {**d["system"], "mass": 1e300}}, 1,
            "error: (mass H^2 / 2)^2 overflows the float range at mass 1e+300"),
        "ikjl-overflow": ({**c, "geometry": {"frame_tables": {**tables,
                                                              "riemann_ikjl": ikjl.tolist()}}},
            1, "error: frame tables violate Riemann symmetries: "
               "{'ikjl_antisymmetric_first_pair': inf"),
        # <e^(-beta W)> leaves e^(-beta delta_F) by more than 1e-10: at 2^64, an integer past
        # int64 that runs as its float, and at 1e19 with hubble 0.3
        "beta-2e64": ({**d, "beta": 2 ** 64}, 2, "numeric error: Jarzynski relation broken"),
        "beta-1e19": ({**d, "beta": 1e19, "geometry": {"hubble": 0.3}}, 2,
            "numeric error: Jarzynski relation broken: <e^(-beta W)> = 0.99889"),
        # beta (E_n - E_0) and beta E_0 overflow in the Gibbs weights, and beta (W - delta_F)
        # in the Crooks drift: an overflowing exponent weighs 0, and the emptied levels
        # break the Jarzynski relation
        "beta-overflow": ({**d, "beta": 1.7e308}, 2, "numeric error: Jarzynski relation broken"),
        "truncation": ({**d, "beta": 0.05, "geometry": {"hubble": 0.9},
                        "system": {**d["system"], "dim": 4}}, 2,
            "numeric error: top-two-level population"),
    }


# the extreme-value sweep: each field of SWEEP_FIELDS that a CI config has, the paths of
# the entries it sets (a matrix's symmetric pair both), set in turn to each extreme value
EXTREME_VALUES = [0.0, 5e-324, 1e-300, -1e-300, 1e-8, 1e8, 1e150, 1e300, 1.7e308, -1.7e308]
SWEEP_FIELDS = {
    **{key: [tuple(key.split("."))] for key in (
        "beta", "duration", "merge_tol", "system.mass", "system.omega0", "system.eps",
        "geometry.g", "geometry.hubble")},
    "position[0]": [("position", 0)], "momentum[0]": [("momentum", 0)],
    "entries[0][1]": [("system", "entries", 0, 1), ("system", "entries", 1, 0)],
    "accel[0][0]": [("geometry", "frame_tables", "accel", 0, 0)],
    "riemann_titj[0][0][0]": [("geometry", "frame_tables", "riemann_titj", 0, 0, 0)],
}


def extreme_value_runs(config):
    """(field, value, config) for each extreme value set in each sweep field of `config`."""
    def has(path):
        try:
            functools.reduce(operator.getitem, path, config)
        except (KeyError, IndexError, TypeError):
            return False
        return True

    for field, paths in SWEEP_FIELDS.items():
        for value in EXTREME_VALUES if all(map(has, paths)) else ():
            data = json.loads(json.dumps(config))
            for path in paths:
                functools.reduce(operator.getitem, path[:-1], data)[path[-1]] = value
            yield field, value, data


# the config fuzz: one or two fields of a CI config, at any depth, a whole table or entry
# included, set to an extreme or an ill-typed value
FUZZ_VALUES = [*EXTREME_VALUES, math.inf, -math.inf, math.nan, -1, 2, 2 ** 64, 10 ** 400,
               True, None, "1.0", [], [1.0], {}]
FUZZ_BASES = json.dumps(ci_configs())


@st.composite
def fuzzed_configs(draw):
    """(a CI config's scenario, that config with one or two fields set to a value of
    FUZZ_VALUES): each field is reached from the top, stopping at a dict or list or going
    on into it."""
    bases = json.loads(FUZZ_BASES)
    data = bases[draw(st.sampled_from(sorted(bases)))]
    scenario = data["scenario"]
    for _ in range(draw(st.integers(1, 2))):
        node = data
        while True:
            key = draw(st.sampled_from(list(node) if isinstance(node, dict)
                                       else range(len(node))))
            if not (isinstance(node[key], (dict, list)) and node[key]) or draw(st.booleans()):
                node[key] = copy.deepcopy(draw(st.sampled_from(FUZZ_VALUES)))
                break
            node = node[key]
    return scenario, data


class TestScenarioConfig:
    def test_round_trip_is_identity(self):
        cfg = newtonian_config(seed=7, samples=100)
        again = ScenarioConfig.from_dict(json.loads(json.dumps(vars(cfg))))
        assert again == cfg

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            newtonian_config(frobnicate=1)

    @pytest.mark.parametrize("name", [
        "ci-newtonian", "ci-desitter", "ci-custom", "ci-oscillator", "ci-matrix",
        "oscillator_d120.desitter", "oscillator_d120.custom", "tables_two_level", "tpm_wide_d200"])
    def test_shipped_config_round_trips(self, monkeypatch, name):
        # a scoped field at its default is accepted on any run, so vars() reads back
        cfg = ScenarioConfig.from_dict(shipped_configs(monkeypatch)[name])
        assert ScenarioConfig.from_dict(json.loads(json.dumps(vars(cfg)))) == cfg

    def test_unknown_system_key_rejected(self):
        with pytest.raises(ConfigError):
            newtonian_config(system={"kind": "two_level", "eps": 1.0, "oops": 2})

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            newtonian_config(beta=-1.0)
        with pytest.raises(ConfigError):
            newtonian_config(steps=0)
        with pytest.raises(ConfigError):
            newtonian_config(duration=0.0)
        with pytest.raises(ConfigError):
            desitter_config(system={"kind": "oscillator", "mass": 1.0, "omega0": 1.0, "dim": 1})
        # values that JSON cannot encode, the config hash being a JSON dump; np.float64 is a
        # float, so it is one that JSON can
        for bad in ({"position": np.array([0.5, 0.0, 0.0])}, {"beta": np.int64(1)},
                    {"beta": np.float32(1.0)}, {"steps": np.int64(50)}):
            with pytest.raises(ConfigError):
                newtonian_config(**bad)
        with pytest.raises(ConfigError):
            desitter_config(position=np.zeros(3))
        assert run_scenario(newtonian_config(beta=np.float64(2.0))).report.beta == 2.0

    def test_scenario_scope_rejected_at_construction(self):
        oscillator = {"kind": "oscillator", "mass": 1.0, "omega0": 1.0}
        base = {"beta": 1.0, "system": {"kind": "two_level", "eps": 1.0}}
        cases = [
            ({**base, "scenario": "newtonian", "system": oscillator, "geometry": {"g": 0.1}},
             "the newtonian scenario runs a two_level system"),
            ({**base, "scenario": "desitter", "geometry": {"hubble": 0.01}},
             "the desitter scenario runs an oscillator system"),
            ({**base, "scenario": "desitter", "geometry": {"hubble": 0.01},
              "system": {"kind": "matrix", "entries": [[1.0]]}},
             "the desitter scenario runs an oscillator system"),
            ({**base, "scenario": "newtonian", "geometry": {}}, "newtonian geometry needs 'g'"),
            ({**base, "scenario": "desitter", "system": oscillator, "geometry": {"g": 0.1}},
             "desitter geometry needs 'hubble'"),
            ({**base, "scenario": "custom", "geometry": {"hubble": 0.01}},
             "custom geometry needs 'frame_tables'"),
            ({**base, "scenario": "desitter", "system": oscillator,
              "geometry": {"hubble": 0.01, "g": 0.1}},
             r"geometry keys \['g'\] do not apply to the desitter scenario"),
            ({**base, "scenario": "newtonian", "geometry": {"g": 0.1, "hubble": 0.01}},
             r"geometry keys \['hubble'\] do not apply to the newtonian scenario"),
            ({**base, "scenario": "custom",
              "geometry": {"frame_tables": uniform_gravity_tables(), "g": 0.1}},
             r"geometry keys \['g'\] do not apply to the custom scenario"),
            *[({**ci_configs()[name], key: value},
               rf"^config keys \['{key}'\] do not apply to the {run}$")
              for name, key, value, run in UNREAD_FIELDS],
            ({**ci_configs()["ci-newtonian"], "seed": 3}, "^seed applies only with samples$"),
        ]
        for data, message in cases:
            with pytest.raises(ConfigError, match=message):
                ScenarioConfig.from_dict(data)


class TestRunNewtonian:
    def test_at_origin_no_entropy(self):
        art = run_scenario(newtonian_config(position=[0.0, 0.0, 0.0]))
        assert art.metadata["newtonian"]["zfactor"] == 1.0
        assert art.report.entropy_production == pytest.approx(0.0, abs=1e-14)
        assert art.report.dissipated_work == pytest.approx(0.0, abs=1e-14)

    def test_redshift_case_positive_entropy(self):
        # gx > 0 at rest: Z > 1, the closed-form entropy production is positive
        art = run_scenario(newtonian_config())
        meta = art.metadata["newtonian"]
        assert meta["zfactor"] > 1.0
        assert meta["entropy_closed_form"] > 0.0
        assert art.report.crooks_max_residual < 1e-10

    def test_kinetic_case_negative_entropy(self):
        art = run_scenario(
            newtonian_config(position=[0.0, 0.0, 0.0], momentum=[0.3, 0.0, 0.0])
        )
        meta = art.metadata["newtonian"]
        assert meta["zfactor"] < 1.0
        assert meta["entropy_closed_form"] < 0.0

    def test_zfactor_conventions_reported(self):
        art = run_scenario(newtonian_config())
        meta = art.metadata["newtonian"]
        assert meta["zfactor"] == pytest.approx(1.05)
        assert meta["zfactor_doubled_convention"] == pytest.approx(1.10)

    def test_entropy_curve_matches_closed_form(self):
        art = run_scenario(newtonian_config(zfactor_grid=[0.8, 1.0, 1.2]))
        assert list(art.curves) == ["zfactor", "entropy_closed_form", "entropy_thermal_oracle"]
        np.testing.assert_array_equal(art.curves["zfactor"], [0.8, 1.0, 1.2])
        expected = [entropy_production_two_level(z, 1.0) for z in (0.8, 1.0, 1.2)]
        np.testing.assert_allclose(art.curves["entropy_closed_form"], expected, atol=1e-14)

    @pytest.mark.parametrize("overrides", [
        {},
        {"beta": 0.7, "system": {"kind": "two_level", "eps": 1.3},
         "zfactor_grid": [0.3, 1.0, 2.5]},
    ], ids=["default_grid", "custom_grid"])
    def test_entropy_oracle_curve_equals_one_call_per_grid_point(self, overrides):
        cfg = newtonian_config(position=[0.0, 0.0, 0.0], **overrides)
        art = run_scenario(cfg)
        b0 = EnergyBasis(np.array([0.0, cfg.system["eps"]]), np.eye(2))
        expected = [cfg.beta * dissipated_work_thermal(b0, b0.scaled(z), cfg.beta)[1]
                    for z in art.curves["zfactor"]]
        assert art.curves["zfactor"].size == (3 if overrides else 41)
        np.testing.assert_array_equal(art.curves["entropy_thermal_oracle"], expected)

    def test_oscillator_system_rejected(self):
        with pytest.raises(ConfigError):
            run_scenario(
                newtonian_config(system={"kind": "oscillator", "mass": 1.0, "omega0": 1.0,
                                         "dim": 4})
            )


class TestRunDesitter:
    def test_report_consistency(self):
        art = run_scenario(desitter_config())
        assert art.report.delta_F == 0.0
        assert art.report.crooks_max_residual < 1e-8
        assert abs(art.report.jarzynski_lhs - 1.0) < 1e-10
        assert art.metadata["oscillator"]["truncation_leakage"] < 1e-8

    def test_only_even_transitions_visible(self):
        art = run_scenario(desitter_config())
        # ground-state-dominated thermal start: support is spaced by 2 omega0
        gaps = np.diff(art.forward.works[art.forward.probs > 1e-12])
        assert np.all(np.abs(np.round(gaps / 2.0) * 2.0 - gaps) < 1e-9)

    def test_transition_curves_agree_at_peaks(self):
        art = run_scenario(desitter_config(duration=10.0, curve_points=50))
        assert list(art.curves) == ["t", "p20_exact", "p20_perturbative", "p20_formula"]
        formula, exact, pert = (art.curves[k] for k in ("p20_formula", "p20_exact",
                                                         "p20_perturbative"))
        mask = formula >= 0.5 * formula.max()
        assert np.max(np.abs(exact[mask] - formula[mask]) / formula[mask]) < 0.05
        np.testing.assert_allclose(pert[mask], formula[mask], rtol=1e-9)

    def test_effective_frequency_diagnostic(self):
        art = run_scenario(desitter_config(geometry={"hubble": 0.3}))
        eff = art.metadata["effective_frequency"]
        assert eff["expected"] == pytest.approx(math.sqrt(1 - 0.09))
        assert eff["max_spacing_deviation"] < 1e-10

    def test_planck_scale_ratio_reported(self):
        art = run_scenario(
            desitter_config(
                geometry={"hubble": 1e-61},
                system={"kind": "oscillator", "mass": 1.0, "omega0": 1e-30, "dim": 40},
                beta=1e31,
            )
        )
        assert art.metadata["hubble_ratio"] == pytest.approx(1e-31, rel=1e-12)

    def test_inverted_oscillator_rejected(self):
        with pytest.raises(ConfigError):
            run_scenario(desitter_config(geometry={"hubble": 2.0}))

    def test_exact_curve_is_the_evolution_entry(self):
        mass, omega0, hubble, dim = 1.0, 1.0, 0.3, 40
        art = run_scenario(desitter_config(
            geometry={"hubble": hubble},
            system={"kind": "oscillator", "mass": mass, "omega0": omega0, "dim": dim}))
        h = (qho_hamiltonian(mass, omega0, dim).entries
             - 0.5 * mass * hubble ** 2 * x_squared_matrix(mass, omega0, dim).entries)
        w, v = np.linalg.eigh(h)
        expected = [abs(((v * np.exp(-1j * w * t)) @ v.conj().T)[2, 0]) ** 2
                    for t in art.curves["t"]]
        np.testing.assert_allclose(art.curves["p20_exact"], expected, rtol=1e-12, atol=1e-30)

    def test_truncation_guard_reads_the_level_below_the_top(self):
        # at beta 30 the top level holds 1.7e-14, under LEAKAGE_LIMIT, and the level below
        # it 4.8e-3: a guard on the top level alone would let this run pass
        mass, omega0, dim, hubble = 1.0, 1.0, 4, 0.9
        cfg = desitter_config(system={"kind": "oscillator", "mass": mass, "omega0": omega0,
                                      "dim": dim}, geometry={"hubble": hubble}, beta=30.0)
        h0 = qho_hamiltonian(mass, omega0, dim)
        path = AffinePath(h0, x_squared_matrix(mass, omega0, dim),
                          lambda tau: -0.5 * mass * hubble ** 2)
        u = propagator(path, 0.0, cfg.duration, cfg.steps).entries
        evolved = np.diag(u @ thermal_state(energy_basis(h0), cfg.beta) @ u.conj().T).real
        assert evolved[-1] < scenarios.LEAKAGE_LIMIT < evolved[-2]
        with pytest.raises(ConvergenceError, match="top-two-level population 0.00478 "):
            run_scenario(cfg)

    def test_truncation_guard_trips(self):
        cfg = desitter_config(
            system={"kind": "oscillator", "mass": 1.0, "omega0": 1.0, "dim": 4},
            geometry={"hubble": 0.9},
            beta=0.05,
        )
        with pytest.raises(ConvergenceError, match="raise dim"):
            run_scenario(cfg)


class TestRunCustom:
    def test_reproduces_newtonian(self):
        base = dict(beta=1.0, position=[0.5, 0.0, 0.0], momentum=[0.0, 0.0, 0.0],
                    duration=1.0, steps=200)
        art_n = run_scenario(newtonian_config(**base))
        art_c = run_scenario(
            ScenarioConfig.from_dict({
                "scenario": "custom",
                "system": {"kind": "two_level", "eps": 1.0, "mass": 1.0},
                "geometry": {"frame_tables": uniform_gravity_tables(g=0.1)},
                **base,
            })
        )
        # both runners make the one rescaling quench on the same frame
        assert art_c.report == art_n.report

    def test_reproduces_desitter(self):
        hubble = 0.01
        base = dict(beta=1.0, duration=1.0, steps=100)
        art_d = run_scenario(desitter_config(geometry={"hubble": hubble}, **base))
        art_c = run_scenario(
            ScenarioConfig.from_dict({
                "scenario": "custom",
                "system": {"kind": "oscillator", "mass": 1.0, "omega0": 1.0, "dim": 40},
                "geometry": {"frame_tables": desitter_tables(hubble)},
                **base,
            })
        )
        assert art_c.report.mean_work == pytest.approx(art_d.report.mean_work, abs=1e-12)
        assert art_c.report.entropy_production == pytest.approx(
            art_d.report.entropy_production, abs=1e-12
        )

    def test_matrix_system(self):
        h = [[0.0, 0.3], [0.3, 1.0]]
        art = run_scenario(
            ScenarioConfig.from_dict({
                "scenario": "custom",
                "beta": 1.0,
                "system": {"kind": "matrix", "entries": h, "mass": 1.0},
                "geometry": {"frame_tables": uniform_gravity_tables(g=0.05)},
                "position": [0.4, 0.0, 0.0],
                "duration": 1.0,
                "steps": 100,
            })
        )
        assert art.report.crooks_max_residual < 1e-8

    @pytest.mark.parametrize("h", [
        pytest.param(random_symmetric(12, 12), id="random-dim12"),
        pytest.param(np.diag([0.0, 1.0, 1.0, 2.0]), id="degenerate-dim4")])
    def test_matrix_run_is_a_quench(self, h):
        # each outcome keeps its level n, with work (z_T - z_0) E_n
        beta, g, x, p = 0.7, 0.05, 0.4, 0.1
        art = run_scenario(ScenarioConfig.from_dict({
            "scenario": "custom", "beta": beta,
            "system": {"kind": "matrix", "entries": h.tolist()},
            "geometry": {"frame_tables": uniform_gravity_tables(g=g)},
            "position": [x, 0.0, 0.0], "momentum": [p, 0.0, 0.0], "duration": 1.0, "steps": 20,
        }))
        assert art.forward.works.size <= len(h) and art.reverse.works.size <= len(h)
        e, z0, zt = np.linalg.eigvalsh(h), 1.0, 1.0 - p * p / 2.0 + g * x
        gibbs = np.exp(-beta * z0 * e) / np.sum(np.exp(-beta * z0 * e))
        expected = {
            "delta_F": -math.log(np.sum(np.exp(-beta * zt * e))
                                 / np.sum(np.exp(-beta * z0 * e))) / beta,
            "mean_work": gibbs @ ((zt - z0) * e),
            "jarzynski_lhs": gibbs @ np.exp(-beta * (zt - z0) * e),
        }
        for key, value in expected.items():
            assert getattr(art.report, key) == pytest.approx(value, rel=1e-12, abs=0)

    def test_matrix_run_with_negative_final_zfactor(self):
        # z_T = 1 - 2^2/2 + 0.1 * 0.5 = -0.95 reverses the level order at the end
        tables = uniform_gravity_tables(g=0.1, n=2)
        art = run_scenario(ScenarioConfig.from_dict({
            "scenario": "custom", "beta": 1.0,
            "system": {"kind": "matrix", "entries": [[1.0, 0.2, 0.0], [0.2, 0.5, 0.1],
                                                     [0.0, 0.1, -0.3]]},
            "geometry": {"frame_tables": tables},
            "position": [0.5, 0.0, 0.0], "momentum": [2.0, 0.0, 0.0], "duration": 1.0,
            "steps": 50,
        }))
        assert art.metadata["custom"]["zfactor_final"] == pytest.approx(-0.95, abs=1e-15)
        assert art.report.crooks_max_residual < 1e-8

    @pytest.mark.parametrize("name", ["ci-newtonian", "ci-custom", "ci-matrix",
                                      "tables_two_level", "tpm_wide_d200"])
    def test_rescaled_run_does_not_read_steps(self, tmp_path, monkeypatch, name):
        points = []
        monkeypatch.setattr(scenarios, "time_dilation", lambda frame, point, *args: (
            points.append(np.size(point.tau)) or time_dilation(frame, point, *args)))
        config = shipped_configs(monkeypatch)[name]
        for steps in (1, 2000):
            run_scenario(ScenarioConfig.from_dict({**config, "steps": steps})).write(
                tmp_path / str(steps))
        # z is one call per run on the reported times only: the two ends, or the curve points
        reported = 2 if config["scenario"] == "newtonian" else ScenarioConfig.curve_points
        assert points == [reported, reported]
        for table in ("forward", "reverse", "curves"):
            assert ((tmp_path / "1" / f"{table}.csv").read_bytes()
                    == (tmp_path / "2000" / f"{table}.csv").read_bytes())

    def test_rescaled_curve_memory_is_bounded(self, tmp_path, monkeypatch):
        config = ScenarioConfig.from_dict({**shipped_configs(monkeypatch)["tables_two_level"],
                                           "curve_points": scenarios.MAX_CURVE_POINTS})
        tracemalloc.start()
        try:
            art = run_scenario(config)
            art.write(tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6
        # z at the curve points, taken Z_CHUNK at a time, equals one call on the whole stack
        times = art.curves["t"]
        frac = times[:, None] / config.duration
        whole = time_dilation(scenarios._frame(config),
                              FramePoint(tau=times, x=frac * np.asarray(config.position)),
                              frac * np.asarray(config.momentum), 1.0)
        assert times.size > scenarios.Z_CHUNK
        np.testing.assert_array_equal(art.curves["zfactor"], whole)

    @pytest.mark.parametrize("name", ["ci-oscillator", "ci-desitter"])
    def test_oscillator_curve_memory_is_bounded(self, tmp_path, name):
        config = ScenarioConfig.from_dict({**ci_configs()[name],
                                           "curve_points": scenarios.MAX_CURVE_POINTS})
        tracemalloc.start()
        try:
            art = run_scenario(config)
            art.write(tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6
        times = art.curves["t"]
        if name == "ci-oscillator":  # the curvature column equals one at() read of every time
            np.testing.assert_array_equal(art.curves["curvature_tt"],
                                          scenarios._frame(config).at(times)[1][:, 0, 0])
        else:  # P(2 <- 0), taken Z_CHUNK times at a time, equals one call on every time
            path = scenarios._oscillator_protocol(config, scenarios._frame(config))[0]
            whole = energy_basis(path(0.0)).amplitudes(2, 0, times)
            assert times.size > scenarios.Z_CHUNK
            np.testing.assert_array_equal(art.curves["p20_exact"], np.abs(whole) ** 2)

    @pytest.mark.parametrize("name", ["oscillator_d120.custom", "oscillator_d120.desitter"])
    def test_oscillator_reads_the_r_txtx_column(self, monkeypatch, name):
        # f = (m/2) R_txtx and the curvature_tt curve read the one column of the frame's rows,
        # no FrameData.at call, and equal the at() reads bitwise, outside the rows too
        config = ScenarioConfig.from_dict(shipped_configs(monkeypatch)[name])
        at_calls, paths = [], []
        at, propagate = FrameData.at, scenarios.propagator
        monkeypatch.setattr(FrameData, "at", lambda frame, tau: at_calls.append(tau)
                            or at(frame, tau))
        monkeypatch.setattr(scenarios, "propagator", lambda path, *args: paths.append(path)
                            or propagate(path, *args))
        art = run_scenario(config)
        monkeypatch.undo()
        assert at_calls == [] and len(paths) == 1
        frame, mass = scenarios._frame(config), config.system["mass"]
        dt = config.duration / config.steps
        mids = (np.arange(config.steps) + 0.5) * dt
        probes = np.concatenate((mids, frame.tau, frame.tau[[0, -1]] + [-1.5, 1.5], [-0.1]))
        np.testing.assert_array_equal(
            np.asarray(paths[0].f(probes), dtype=float).view(np.int64),
            (0.5 * mass * frame.at(probes)[1][..., 0, 0]).view(np.int64))
        if config.scenario == "custom":  # de Sitter writes transition curves instead
            np.testing.assert_array_equal(
                art.curves["curvature_tt"].view(np.int64),
                frame.at(art.curves["t"])[1][..., 0, 0].view(np.int64))

    def test_empty_tables_rejected(self):
        tables = uniform_gravity_tables()
        tables["tau"] = []
        tables["accel"] = []
        tables["riemann_titj"] = []
        tables["riemann_tjik"] = []
        tables["riemann_ikjl"] = []
        with pytest.raises(InputError):
            run_scenario(
                ScenarioConfig.from_dict({
                    "scenario": "custom",
                    "beta": 1.0,
                    "system": {"kind": "two_level", "eps": 1.0},
                    "geometry": {"frame_tables": tables},
                })
            )

    def test_symmetry_violation_named(self):
        tables = uniform_gravity_tables()
        bad = np.zeros((5, 3, 3))
        bad[:, 0, 1] = 1e-3
        tables["riemann_titj"] = bad.tolist()
        with pytest.raises(InputError, match="titj_symmetric"):
            run_scenario(
                ScenarioConfig.from_dict({
                    "scenario": "custom",
                    "beta": 1.0,
                    "system": {"kind": "two_level", "eps": 1.0},
                    "geometry": {"frame_tables": tables},
                })
            )


class TestSampleWork:
    def test_single_point_exact(self):
        dist = WorkDistribution(np.array([0.3]), np.array([1.0]), merge_tol=1e-12)
        est, se = sample_work(dist, 2.0, 10, seed=0)
        assert est == math.exp(-0.6)
        assert se == 0.0

    def test_two_point_within_four_sigma(self):
        dist = WorkDistribution(np.array([0.0, 1.0]), np.array([0.6, 0.4]), merge_tol=1e-12)
        beta = 1.0
        exact = 0.6 + 0.4 * math.exp(-1.0)
        est, se = sample_work(dist, beta, 100_000, seed=42)
        assert abs(est - exact) < 4 * se

    def test_deterministic_under_seed(self):
        dist = WorkDistribution(np.array([0.0, 1.0]), np.array([0.5, 0.5]), merge_tol=1e-12)
        assert sample_work(dist, 1.0, 1000, seed=9) == sample_work(dist, 1.0, 1000, seed=9)


class TestArtifactsEmission:
    def test_files_and_formats(self, tmp_path):
        art = run_scenario(newtonian_config(samples=500, seed=3))
        art.write(tmp_path)
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {"report.json", "forward.csv", "reverse.csv", "curves.csv"}
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["metadata"]["config_sha256"] == config_sha256(
            newtonian_config(samples=500, seed=3))
        assert "sampling" in payload["metadata"]
        with open(tmp_path / "forward.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["work", "probability"]
        total = sum(float(r[1]) for r in rows[1:])
        assert total == pytest.approx(1.0, abs=1e-10)
        for prob in (float(r[1]) for r in rows[1:]):
            assert 0.0 <= prob <= 1.0
        with open(tmp_path / "curves.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert header == list(art.curves) and header[0] == "zfactor"


class TestConfigHash:
    def custom_oscillator(self, tables):
        return ScenarioConfig.from_dict({
            "scenario": "custom",
            "beta": 1.0,
            "system": {"kind": "oscillator", "mass": 1.0, "omega0": 1.0, "dim": 30},
            "geometry": {"frame_tables": tables},
            "duration": 1.0,
            "steps": 20,
        })

    def test_one_table_entry_changes_the_hash(self):
        tables = desitter_tables(0.01, n=8)
        before = config_sha256(self.custom_oscillator(tables))
        tables["tau"][3] += 1e-9
        assert config_sha256(self.custom_oscillator(tables)) != before

    def test_rereading_the_canonical_json_keeps_the_hash(self):
        cfg = self.custom_oscillator(desitter_tables(0.01, n=8))
        again = ScenarioConfig.from_dict(json.loads(canonical_json(cfg)))
        assert again == cfg
        assert config_sha256(again) == config_sha256(cfg)

    def test_custom_oscillator_report_is_small(self, tmp_path):
        # 64 table rows echoed into report.json made it over 300 kB
        cfg = self.custom_oscillator(desitter_tables(0.01, n=64))
        run_scenario(cfg).write(tmp_path)
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["metadata"]["config_sha256"] == config_sha256(cfg)
        assert (tmp_path / "report.json").stat().st_size < 4096

    def test_hashlib_fallback_gives_the_same_digest(self, monkeypatch):
        # an interpreter built without CPython's own SHA-256 module hashes through hashlib
        cfg = self.custom_oscillator(desitter_tables(0.01, n=8))
        built_in = scenarios._base_metadata(cfg)
        monkeypatch.setitem(sys.modules, "_sha2", None)
        monkeypatch.setitem(sys.modules, "_sha256", None)
        assert scenarios._base_metadata(cfg) == built_in
        assert built_in["config_sha256"] == config_sha256(cfg)


class TestCli:
    def write_config(self, tmp_path, cfg):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(vars(cfg)))
        return path

    def test_newtonian_subcommand(self, tmp_path, capsys):
        path = self.write_config(tmp_path, newtonian_config())
        out = tmp_path / "out"
        rc = cli_main(["newtonian", "--config", str(path), "--out", str(out)])
        assert rc == 0
        assert (out / "report.json").exists()
        assert "entropy production" in capsys.readouterr().out

    def test_scenario_mismatch_is_config_error(self, tmp_path, capsys):
        path = self.write_config(tmp_path, newtonian_config())
        rc = cli_main(["desitter", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_point_outside_expansion_bound_exit_code(self, tmp_path, capsys):
        # g x = 5e5 is far outside the |a.x| < 0.1 bound of the time-dilation expansion
        path = self.write_config(tmp_path, newtonian_config(geometry={"g": 1e6}))
        rc = cli_main(["newtonian", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "expansion bound" in err[0]
        assert not (tmp_path / "o").exists()

    @staticmethod
    def stderr_of(tmp_path, capsys, data):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        rc = cli_main([data["scenario"], "--config", str(path), "--out", str(tmp_path / "o")])
        return rc, capsys.readouterr().err.strip().splitlines()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("name, data, code, prefix", [
        pytest.param(name, *row, id=name) for name, row in ci_error_cases().items()])
    def test_error_case_is_one_line(self, tmp_path, capsys, name, data, code, prefix):
        rc, err = self.stderr_of(tmp_path, capsys, data)
        assert rc == code and len(err) == 1, err
        if name in WHOLE_LINE_CASES:
            assert err == [prefix]
        else:
            assert err[0].startswith(prefix), err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("name", list(ci_configs()))
    def test_extreme_values_end_in_one_line_or_none(self, tmp_path, capsys, name):
        # exit 0 with an empty stderr, or exit 1 or 2 with one typed line, and no exception
        escapes = []
        for field, value, data in extreme_value_runs(ci_configs()[name]):
            try:
                rc, err = self.stderr_of(tmp_path, capsys, data)
            except Exception as exc:  # a RuntimeWarning under the filter too
                capsys.readouterr()
                escapes.append((field, value, repr(exc)))
                continue
            typed = len(err) == 1 and err[0].startswith(("error:", "numeric error:"))
            if not (rc == 0 and err == [] or rc in (1, 2) and typed):
                escapes.append((field, value, rc, err))
        assert escapes == []

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=800, deadline=None, derandomize=True)
    @given(fuzzed_configs())
    def test_fuzzed_configs_end_in_one_line_or_none(self, run):
        # exit 0 with an empty stderr, or exit 1 or 2 with one typed line; an exception,
        # a RuntimeWarning under the filter included, fails the example
        scenario, data = run
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(data))
            rc = cli_main([scenario, "--config", str(path), "--out", str(Path(tmp) / "o")])
        lines = err.getvalue().splitlines()
        if rc == 0:
            assert lines == []
        else:
            assert rc in (1, 2) and len(lines) == 1, (rc, lines)
            assert lines[0].startswith(("error:", "numeric error:")), lines

    def test_sweep_covers_every_field(self):
        fields = {field for config in ci_configs().values()
                  for field, _, _ in extreme_value_runs(config)}
        assert fields == SWEEP_FIELDS.keys()
        assert sum(1 for config in ci_configs().values() for _ in extreme_value_runs(config)) == 410

    def test_whole_line_cases_are_rows(self):
        assert WHOLE_LINE_CASES <= ci_error_cases().keys()

    @pytest.mark.parametrize("scenario", ["newtonian", "custom"])
    def test_non_finite_zfactor_with_warnings_as_errors(self, tmp_path, scenario):
        # as the CI console-script step runs: a RuntimeWarning would end in a traceback
        data, _, line = ci_error_cases()[f"momentum-1e200-{scenario}"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning", "PYTHONPATH": pythonpath}
        done = subprocess.run([sys.executable, "-m", "curvedwork.cli", scenario, "--config",
                               str(path), "--out", str(tmp_path / "o")],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 1
        assert done.stderr.splitlines() == [line]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("run, key", [("ci-newtonian", "duration"), ("ci-desitter", "beta")])
    def test_integer_past_int64_runs_as_its_float(self, tmp_path, capsys, run, key):
        # an int past 2^63 made object arrays: a ZeroDivisionError in the straight-line guard
        # (duration) or a TypeError in jarzynski_average (beta); at beta 2^64 <e^(-beta W)>
        # is 1.1e-9 off e^(-beta delta_F), so the int and the float end in one numeric error
        outputs = []
        for value in (2 ** 64, float(2 ** 64)):
            data = {**ci_configs()[run], key: value}
            rc, err = self.stderr_of(tmp_path, capsys, data)
            if key == "beta":
                assert rc == 2 and len(err) == 1, err
                assert err[0].startswith("numeric error: Jarzynski relation broken")
                outputs.append(err)
                continue
            assert rc == 0 and err == [], err
            payload = json.loads((tmp_path / "o" / "report.json").read_text())
            # the config hash keeps the value as written
            assert payload["metadata"].pop("config_sha256") == config_sha256(
                ScenarioConfig.from_dict(data))
            payload["report"].pop("beta")
            outputs.append([payload] + [(tmp_path / "o" / f"{table}.csv").read_bytes()
                                        for table in ("forward", "reverse", "curves")])
        assert outputs[0] == outputs[1]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_table_taus_spanning_the_float_range_run(self, tmp_path, capsys):
        # the strictly-increasing check on the table taus took their difference, which
        # overflowed: a RuntimeWarning escaped
        data = ci_configs()["ci-matrix"]
        tables = {**data["geometry"]["frame_tables"], "tau": [-1.7e308, 1.7e308]}
        rc, err = self.stderr_of(tmp_path, capsys, {**data, "geometry": {"frame_tables": tables}})
        assert rc == 0 and err == [], err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_broken_jarzynski_relation_is_one_numeric_error_line(self, tmp_path, capsys):
        # at beta 1e19 <e^(-beta W)> read 0.998893 against e^(-beta delta_F) = 1, and the run
        # wrote that report with an entropy production of 2.2e16
        data, _, prefix = ci_error_cases()["beta-1e19"]
        rc, err = self.stderr_of(tmp_path, capsys, data)
        assert rc == 2 and len(err) == 1 and err[0].startswith(prefix), err
        assert not (tmp_path / "o").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["verify", "desitter"])
    @pytest.mark.parametrize("target", ["file", "file/sub"])
    def test_unwritable_out_is_one_error_line(self, tmp_path, capsys, command, target):
        # --out names an existing file, or a directory inside one
        (tmp_path / "file").write_text("")
        args = (["verify", "--level", "fast"] if command == "verify" else
                ["desitter", "--config", str(self.write_config(tmp_path, desitter_config()))])
        out = tmp_path / target
        rc = cli_main([*args, "--out", str(out)])
        err = capsys.readouterr().err.strip().splitlines()
        assert rc == 1 and len(err) == 1, err
        assert err[0].startswith(f"error: cannot write outputs to {out}: ")
        assert (tmp_path / "file").read_text() == ""

    def test_non_unitary_propagator_is_one_numeric_error_line(self, tmp_path, capsys,
                                                              monkeypatch):
        # a faulty solver is a program fault (exit 2), not bad input (exit 1)
        monkeypatch.setattr(quantum, "_block_product",
                            lambda h0, x, values, dt: 1.01 * np.eye(x.shape[-1]))
        path = self.write_config(tmp_path, desitter_config())
        rc = cli_main(["desitter", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("numeric error:"), err
        assert "not unitary" in err[0]

    def test_verify_fast(self, tmp_path, capsys):
        rc = cli_main(["verify", "--level", "fast", "--out", str(tmp_path)])
        assert rc == 0
        summary = json.loads((tmp_path / "verification.json").read_text())
        assert summary["passed"]
        runtimes = {c["name"]: c["runtime"] for c in summary["criteria"]}
        assert all(rt >= 0 for rt in runtimes.values())
        assert runtimes["A2"] == 0.0
        out = capsys.readouterr().out
        assert "A1: PASS" in out


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # at dim 200 the complex eigensolver's rounding followed the thread count; a real
    # matrix is stored as float and takes the real solver, whose rounding does not
    data = {**ci_configs()["ci-matrix"],
            "system": {"kind": "matrix", "entries": random_symmetric(1, 200).tolist()}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": pythonpath, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads}
        out = tmp_path / f"threads-{threads}"
        done = subprocess.run([sys.executable, "-m", "curvedwork.cli", "custom", "--config",
                               str(path), "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append([(out / name).read_bytes()
                        for name in ("report.json", "forward.csv", "reverse.csv")])
    assert outputs[0] == outputs[1]
