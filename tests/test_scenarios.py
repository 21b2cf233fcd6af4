"""Config handling, scenario runners, sampling, CSV/JSON emission, CLI."""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import curvedwork
from curvedwork import quantum
from curvedwork.cli import main as cli_main
from curvedwork.errors import ConfigError, ConvergenceError, InputError
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


class TestScenarioConfig:
    def test_round_trip_is_identity(self):
        cfg = newtonian_config(seed=7, samples=100)
        again = ScenarioConfig.from_dict(json.loads(json.dumps(vars(cfg))))
        assert again == cfg

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            newtonian_config(frobnicate=1)

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

    def test_expansion_guard_samples_the_step_midpoints(self, tmp_path, capsys):
        # the accel row at tau = 0.5 takes |a.x| past 0.1 only between the endpoints and
        # the two curve points: the guard sees it at the midpoint tau = 0.45 of 10 steps
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
    ])
    def test_malformed_field_is_one_error_line(self, tmp_path, capsys, overrides):
        data = {**vars(newtonian_config()), **overrides}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        rc = cli_main([data["scenario"], "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

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
        monkeypatch.setattr(quantum, "_parity_product",
                            lambda path, values, dt: 1.01 * np.eye(path.h0.dim))
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
