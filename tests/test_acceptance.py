"""End-to-end acceptance run: every verification criterion at full strength.

The full verification suite runs once; each test then checks one criterion at
its stated tolerance and prints a single pass/fail line. Documented findings
(expected analytic discrepancies, not failures) are printed alongside.
"""

import json

import pytest

from curvedwork.errors import InputError
from curvedwork.verify import run_verification


@pytest.fixture(scope="module")
def summary():
    return run_verification(level="full")


@pytest.fixture(scope="module")
def by_name(summary):
    return {c["name"]: c for c in summary["criteria"]}


def _check(by_name, name):
    crit = by_name[name]
    status = "PASS" if crit["passed"] else "FAIL"
    print(f"{name}: {status} ({crit['runtime']:.2f}s)")
    for finding in crit["findings"]:
        print(f"  finding: {finding}")
    assert crit["passed"], f"{name} failed: {crit['details']}"
    return crit


class TestAcceptance:
    def test_A1_crooks_relation(self, by_name):
        crit = _check(by_name, "A1")
        assert crit["details"]["max_crooks_residual"] < 1e-8

    def test_A2_jarzynski_equality(self, by_name):
        crit = _check(by_name, "A2")
        assert crit["details"]["max_jarzynski_deviation"] < 1e-10

    def test_A3_entropy_production_sign(self, by_name):
        crit = _check(by_name, "A3")
        assert crit["details"]["zero_at_unit_zfactor"]
        assert crit["details"]["sign_matches_zfactor"]
        # the closed-form/oracle mismatch is expected and must be surfaced
        assert crit["findings"]

    def test_A4_spectral_rescaling(self, by_name):
        crit = _check(by_name, "A4")
        assert crit["details"]["max_spacing_deviation"] < 1e-10

    def test_A5_transition_probability(self, by_name):
        crit = _check(by_name, "A5")
        assert crit["details"]["max_peak_relative_error"] < 0.05
        assert crit["details"]["max_parity_vs_dense_deviation"] < 1e-12

    def test_A6_propagator_convergence(self, by_name):
        crit = _check(by_name, "A6")
        assert abs(crit["details"]["mean_order"] - 2.0) <= 0.2
        assert abs(crit["details"]["banded_mean_order"] - 2.0) <= 0.2
        assert max(crit["details"]["unitarity_defects"].values()) < 1e-9

    def test_A7_metric_and_redshift(self, by_name):
        crit = _check(by_name, "A7")
        assert crit["details"]["flat_minkowski_exact"]
        assert crit["details"]["desitter_gtt_deviation"] < 1e-14
        assert crit["details"]["redshift_convergence_order"] >= 2.0

    def test_A8_scale_separation(self, by_name):
        crit = _check(by_name, "A8")
        assert crit["details"]["planck_ratio"] == pytest.approx(1e-31, rel=1e-12)
        assert abs(crit["details"]["prefactor_exponent"] - 4.0) <= 0.01

    def test_suite_passes_overall(self, summary):
        assert summary["passed"]
        assert summary["level"] == "full"

    def test_summary_is_plain_json(self, summary):
        def walk(value):
            if isinstance(value, dict):
                assert all(type(key) is str for key in value)
                value = list(value.values())
            if isinstance(value, list):
                for item in value:
                    walk(item)
            else:  # no numpy scalar, which subclasses float or passes for a bool
                assert type(value) in (bool, int, float, str, type(None)), (type(value), value)

        walk(summary)
        assert json.loads(json.dumps(summary)) == summary


def test_unknown_level_is_an_input_error():
    with pytest.raises(InputError, match="'medium'"):
        run_verification("medium")


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
