"""Config handling, scenario runners, sampling, CSV/JSON emission, CLI."""

import csv
import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import curvedwork
from curvedwork import quantum, scenarios
from curvedwork.cli import main as cli_main
from curvedwork.errors import ConfigError, ConvergenceError, InputError
from curvedwork.frame import FrameData, FramePoint, time_dilation
from curvedwork.quantum import EnergyBasis, qho_hamiltonian, x_squared_matrix
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
            whole = path.spectrum(path.f(0.0)).amplitudes(2, 0, times)
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

    def test_bad_config_exit_code(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{\"scenario\": \"newtonian\"}")
        rc = cli_main(["newtonian", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_point_outside_expansion_bound_exit_code(self, tmp_path, capsys):
        # g x = 5e5 is far outside the |a.x| < 0.1 bound of the time-dilation expansion
        path = self.write_config(tmp_path, newtonian_config(geometry={"g": 1e6}))
        rc = cli_main(["newtonian", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "expansion bound" in err[0]
        assert not (tmp_path / "o").exists()

    def test_expansion_guard_sees_a_row_between_the_curve_points(self, tmp_path, capsys):
        # the accel row at tau = 0.5 takes |a.x| past 0.1 only between the endpoints,
        # which are the two curve points
        tables = uniform_gravity_tables(n=3)
        tables["accel"] = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "scenario": "custom", "beta": 1.0, "system": {"kind": "two_level", "eps": 1.0},
            "geometry": {"frame_tables": tables}, "position": [0.4, 0.0, 0.0],
            "duration": 1.0, "steps": 10, "curve_points": 2}))
        rc = cli_main(["custom", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "expansion bound" in err[0]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("rows, position, steps, expected", [
        pytest.param({"accel": [[0.9, 0.0, 0.0], [0.0, 0.0, 0.0]]}, 0.5, 2,
                     "|a.x| = 0.113", id="accel"),
        # 0.75 (1 - tau) tau^2 peaks at tau = 2/3, inside the one segment
        pytest.param({"riemann_titj": [np.diag([0.75, 0.0, 0.0]).tolist(),
                                       np.zeros((3, 3)).tolist()]}, 1.0, 3,
                     "|R| r^2 = 0.111 at r = 0.667", id="titj"),
    ])
    def test_expansion_guard_is_exact_between_the_step_midpoints(self, tmp_path, capsys, rows,
                                                                position, steps, expected):
        # neither figure passes 0.1 at the ends or at any step midpoint
        tables = {**uniform_gravity_tables(g=0.0, n=2), **rows}
        rc, err = self.stderr_of(tmp_path, capsys, {
            "scenario": "custom", "beta": 1.0, "system": {"kind": "two_level", "eps": 1.0},
            "geometry": {"frame_tables": tables}, "position": [position, 0.0, 0.0],
            "duration": 1.0, "steps": steps, "curve_points": 2})
        assert rc == 1 and err == [f"error: {expected} exceeds expansion bound"]

    @staticmethod
    def overflowing_momentum_config(tmp_path, scenario):
        # p.p overflows, so z is -inf everywhere after tau = 0
        data = {**vars(newtonian_config()), "momentum": [1e200, 0.0, 0.0]}
        if scenario == "custom":
            data.update(scenario="custom",
                        geometry={"frame_tables": uniform_gravity_tables(n=2)})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        return path

    @pytest.mark.parametrize("scenario", ["newtonian", "custom"])
    def test_non_finite_zfactor_exit_code(self, tmp_path, capsys, scenario):
        path = self.overflowing_momentum_config(tmp_path, scenario)
        rc = cli_main([scenario, "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: non-finite time-dilation factor on the trajectory"]

    @pytest.mark.parametrize("scenario", ["newtonian", "custom"])
    def test_non_finite_zfactor_with_warnings_as_errors(self, tmp_path, scenario):
        # as the CI console-script step runs: a RuntimeWarning would end in a traceback
        path = self.overflowing_momentum_config(tmp_path, scenario)
        pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning", "PYTHONPATH": pythonpath}
        done = subprocess.run([sys.executable, "-m", "curvedwork.cli", scenario, "--config",
                               str(path), "--out", str(tmp_path / "o")],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 1
        assert done.stderr.splitlines() == [
            "error: non-finite time-dilation factor on the trajectory"]

    @staticmethod
    def stderr_of(tmp_path, capsys, data):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        rc = cli_main([data["scenario"], "--config", str(path), "--out", str(tmp_path / "o")])
        return rc, capsys.readouterr().err.strip().splitlines()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_free_energy_ratio_overflow_is_one_numeric_error_line(self, tmp_path, capsys):
        # z_T = 1 - 40^2/2 + 0.05 = -799, so e^(-beta delta_F) = Z_T / Z_0 is near e^799
        rc, err = self.stderr_of(tmp_path, capsys,
                                 {**vars(newtonian_config()), "momentum": [40, 0, 0]})
        assert rc == 2 and len(err) == 1, err
        assert err[0].startswith("numeric error: e^(-beta delta_F) overflows")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_omega0_whose_square_overflows_is_one_error_line(self, tmp_path, capsys):
        system = {"kind": "oscillator", "mass": 1.0, "omega0": 1e300, "dim": 40}
        rc, err = self.stderr_of(tmp_path, capsys, {**vars(desitter_config()), "system": system})
        assert rc == 1 and len(err) == 1, err
        assert err[0].startswith("error: omega0 1e+300 is too large")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_eps_whose_entropy_product_underflows_is_one_error_line(self, tmp_path, capsys):
        # z beta eps = 0.5 * 5e-324 rounds to 0, and the closed form takes log(1 - e^0)
        system = {"kind": "two_level", "eps": 5e-324, "mass": 1.0}
        rc, err = self.stderr_of(tmp_path, capsys, {**vars(newtonian_config()), "system": system})
        assert rc == 1 and len(err) == 1, err
        assert err[0].startswith("error: zfactor and zfactor * beta_eps must be positive")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_omega0_whose_x_squared_overflows_is_one_error_line(self, tmp_path, capsys):
        # <n|x^2|m> = band / (2 mass omega0) overflows at omega0 = 5e-324
        tables = desitter_tables(0.0, n=2)
        tables["tau"] = [0.0, 5.0]
        data = {**vars(desitter_config()), "scenario": "custom",
                "system": {"kind": "oscillator", "mass": 1.0, "omega0": 5e-324, "dim": 20},
                "geometry": {"frame_tables": tables}}
        rc, err = self.stderr_of(tmp_path, capsys, data)
        assert rc == 1 and len(err) == 1, err
        assert err[0].startswith("error: <n|x^2|m> overflows the float range")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_position_whose_r_squared_overflows_is_one_error_line(self, tmp_path, capsys):
        # r^2 = 1e600 overflows, so |R| r^2 on zero curvature is 0 * inf: no trusted region
        data = {**vars(newtonian_config()), "scenario": "custom",
                "system": {"kind": "matrix", "entries": random_symmetric(3, 3).tolist()},
                "geometry": {"frame_tables": uniform_gravity_tables(n=2)},
                "position": [0.5, 1e300, 0.0]}
        rc, err = self.stderr_of(tmp_path, capsys, data)
        assert rc == 1 and len(err) == 1, err
        assert err[0].startswith("error: |R| r^2 = nan at r = 1e+300 exceeds expansion bound")

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
    def test_broken_jarzynski_relation_is_one_numeric_error_line(self, tmp_path, capsys):
        # at beta 1e19 <e^(-beta W)> read 0.998893 against e^(-beta delta_F) = 1, and the run
        # wrote that report with an entropy production of 2.2e16
        data = {**ci_configs()["ci-desitter"], "beta": 1e19, "geometry": {"hubble": 0.3}}
        rc, err = self.stderr_of(tmp_path, capsys, data)
        assert rc == 2 and len(err) == 1, err
        assert err[0].startswith("numeric error: Jarzynski relation broken: "
                                 "<e^(-beta W)> = 0.99889")
        assert not (tmp_path / "o").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_propagation_past_the_float_range_is_one_error_line(self, tmp_path, capsys):
        # (tau1 - tau0) ||h0|| = 1.7e308 * 39.5 overflows, as w t would in the parity collapse
        rc, err = self.stderr_of(tmp_path, capsys, {**vars(desitter_config()), "duration": 1.7e308})
        assert rc == 1 and len(err) == 1, err
        assert err[0].startswith("error: non-finite path coefficient at a midpoint, or phase")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_eps_whose_entropy_product_overflows_is_one_error_line(self, tmp_path, capsys):
        # z beta eps = 1.075 * 1.7e308 overflows: the closed form read log(1 - e^-inf) = 0 and
        # reported 8.5e306 against the oracle's 0
        system = {"kind": "two_level", "eps": 1.7e308, "mass": 1.0}
        rc, err = self.stderr_of(tmp_path, capsys, {**vars(newtonian_config()), "system": system})
        assert rc == 1 and len(err) == 1, err
        assert err[0].startswith("error: zfactor and zfactor * beta_eps must be positive and "
                                 "finite, got zfactor 1.075")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_mass_whose_formula_prefactor_overflows_is_one_error_line(self, tmp_path, capsys):
        # (mass H^2 / 2)^2 = (5e295)^2 overflows in the closed-form transition probability
        system = {"kind": "oscillator", "mass": 1e300, "omega0": 1.0, "dim": 40}
        rc, err = self.stderr_of(tmp_path, capsys, {**vars(desitter_config()), "system": system})
        assert rc == 1 and len(err) == 1, err
        assert err == ["error: (mass H^2 / 2)^2 overflows the float range at mass 1e+300"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_symmetry_defect_past_the_float_range_is_one_error_line(self, tmp_path, capsys):
        # R_ikjl[0][0][0][1][1] = 1.7e308 doubles past the float range in r + swapaxes(r)
        ikjl = np.zeros((2, 3, 3, 3, 3))
        ikjl[0, 0, 0, 1, 1] = 1.7e308
        tables = {**uniform_gravity_tables(n=2), "riemann_ikjl": ikjl.tolist()}
        rc, err = self.stderr_of(tmp_path, capsys, {**ci_configs()["ci-custom"],
                                                    "geometry": {"frame_tables": tables}})
        assert rc == 1 and len(err) == 1, err
        assert err[0].startswith("error: frame tables violate Riemann symmetries: "
                                 "{'ikjl_antisymmetric_first_pair': inf")

    def test_output_path_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**vars(newtonian_config()), "output_path": "results"}))
        rc = cli_main(["newtonian", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: unknown config keys ['output_path']"]

    @pytest.mark.parametrize("overrides", [
        pytest.param({"beta": "1.0"}, id="beta-string"),
        pytest.param({"beta": True}, id="beta-bool"),
        pytest.param({"system": [1]}, id="system-list"),
        pytest.param({"position": 3}, id="position-scalar"),
        pytest.param({"momentum": [0.0, 0.0]}, id="momentum-2-vector"),
        pytest.param({"samples": 2.5}, id="samples-float"),
        pytest.param({"steps": 1.5}, id="steps-float"),
        pytest.param({"steps": True}, id="steps-bool"),
        pytest.param({"duration": math.inf}, id="duration-infinite"),
        pytest.param({"merge_tol": 0.0}, id="merge_tol-zero"),
        pytest.param({"seed": -1}, id="seed-negative"),
        pytest.param({"zfactor_grid": [0.9, "1.1"]}, id="zfactor_grid-string"),
        pytest.param({"tolerances": {"frame_symmetry": None}}, id="tolerance-null"),
        pytest.param({"tolerances": {"symmetry": 1e-9}}, id="tolerance-unknown"),
        pytest.param({"geometry": {"g": math.nan}}, id="g-nan"),
        pytest.param({"system": {"kind": "two_level", "eps": True}}, id="eps-bool"),
        pytest.param({"system": {"kind": "oscillator", "mass": 1.0, "omega0": 1.0, "dim": 40.0}},
                     id="dim-float"),
        pytest.param({"system": {"kind": "matrix", "entries": [[1.0], [0.0, 1.0]]}},
                     id="entries-ragged"),
        pytest.param({"system": {"kind": "matrix", "entries": [[1.0, 2 * 10 ** 400], [0, 1]]}},
                     id="entries-overflow"),
        pytest.param({"scenario": "custom", "geometry": {"frame_tables": {
            **uniform_gravity_tables(n=2), "tau": [0.0, "1.0"]}}}, id="table-string"),
        pytest.param({"scenario": "custom", "geometry": {"frame_tables": {
            **uniform_gravity_tables(n=2), "accel": [[0.1, 0.0, 0.0], [0.1, 0.0, False]]}}},
            id="table-bool"),
        pytest.param({"steps": 10 ** 6 + 1}, id="steps-above-bound"),
        pytest.param({"samples": 10 ** 7 + 1}, id="samples-above-bound"),
        pytest.param({"curve_points": 10 ** 5 + 1}, id="curve_points-above-bound"),
        pytest.param({"scenario": "desitter", "geometry": {"hubble": 0.01}, "system": {
            "kind": "oscillator", "mass": 1.0, "omega0": 1.0, "dim": 2049}}, id="dim-above-bound"),
        pytest.param({"system": {"kind": "oscillator", "mass": 1.0, "omega0": 1.0}},
                     id="scenario-system-mismatch"),
        pytest.param({"geometry": {}}, id="geometry-key-missing"),
        pytest.param({"scenario": "desitter", "geometry": {"hubble": 0.01, "g": 0.1},
                      "system": {"kind": "oscillator", "mass": 1.0, "omega0": 1.0}},
                     id="desitter-with-g"),
        pytest.param({"geometry": {"g": 0.1, "hubble": 0.01}}, id="newtonian-with-hubble"),
        pytest.param({"scenario": "custom",
                      "geometry": {"frame_tables": uniform_gravity_tables(n=2), "g": 0.1}},
                     id="custom-with-g"),
        pytest.param({"scenario": "custom", "duration": 10.0,
                      "geometry": {"frame_tables": uniform_gravity_tables()}},
                     id="table-ends-before-duration"),
        pytest.param({"scenario": "custom",
                      "geometry": {"frame_tables": uniform_gravity_tables(n=1)}}, id="table-one-row"),
        *[pytest.param({**ci_configs()[name], key: value}, id=f"{name}-with-{key}")
          for name, key, value, _ in UNREAD_FIELDS],
        pytest.param({"seed": 3}, id="seed-without-samples"),
        pytest.param({"zfactor_grid": []}, id="zfactor_grid-empty"),
    ])
    def test_malformed_field_is_one_error_line(self, tmp_path, capsys, overrides):
        data = {**vars(newtonian_config()), **overrides}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        rc = cli_main([data["scenario"], "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

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

    def test_convergence_error_exit_code(self, tmp_path):
        cfg = desitter_config(
            system={"kind": "oscillator", "mass": 1.0, "omega0": 1.0, "dim": 4},
            geometry={"hubble": 0.9},
            beta=0.05,
        )
        path = self.write_config(tmp_path, cfg)
        rc = cli_main(["desitter", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2

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
