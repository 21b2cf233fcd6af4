"""End-to-end acceptance run: every verification criterion at full strength.

The full verification suite runs once; each test then checks one criterion at
its stated tolerance and prints a single pass/fail line. Documented findings
(expected analytic discrepancies, not failures) are printed alongside.  A1's
stacked ensemble is also checked against the same protocols run one path at a
time.
"""

import json
import math
import random
from functools import cached_property

import numpy as np
import pytest

from curvedwork import verify
from curvedwork.errors import InputError
from curvedwork.quantum import (AffinePath, EnergyBasis, HermitianOperator, UnitaryOperator,
                                energy_basis, propagator)
from curvedwork.tpm import (crooks_check, delta_F, forward_distribution, jarzynski_average,
                            reverse_distribution)
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
        assert crit["details"]["max_mean_work_deviation"] < 1e-10

    def test_A2_jarzynski_equality(self, by_name):
        crit = _check(by_name, "A2")
        assert crit["details"]["max_jarzynski_deviation"] < 1e-10

    def test_A3_entropy_production_sign(self, by_name):
        crit = _check(by_name, "A3")
        assert crit["details"]["zero_at_unit_zfactor"]
        assert crit["details"]["sign_matches_zfactor"]
        # the mismatch of the closed form with the TPM figure is expected and must be surfaced
        assert crit["findings"]
        assert crit["details"]["max_formula_vs_tpm_mismatch"] > 1e-10

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

    def test_A11_quench_entropy_is_the_relative_entropy(self, by_name):
        crit = _check(by_name, "A11")
        assert crit["details"]["max_relative_entropy_deviation"] < 1e-12

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


def single_path_ensemble(n_protocols=200, seed=7):
    """A1's ensemble, drawn as the criterion draws it, a dimension's stacks at a time, and
    propagated with one propagator and two energy_basis calls per protocol: the two
    figures and each protocol's forward distribution, in dimension-major order."""
    rng = random.Random(seed)
    max_crooks = max_jarzynski = 0.0
    forward = []
    for k, dim in enumerate((2, 4, 8)):
        count = len(range(k, n_protocols, 3))
        betas = 0.1 + 4.9 * verify._uniform(rng, (count,))
        a_stack, b_stack = (verify._random_symmetric(rng, (count, dim, dim)) for _ in range(2))
        for beta, a, b in zip(betas.tolist(), a_stack, b_stack):
            path = AffinePath(HermitianOperator(a), HermitianOperator(b), np.sin)
            u = propagator(path, 0.0, 1.0, 40)
            b0, bt = energy_basis(path(0.0)), energy_basis(path(1.0))
            fwd = forward_distribution(b0, bt, u, beta)
            forward.append(fwd)
            df = delta_F(b0, bt, beta)
            max_crooks = max(max_crooks, crooks_check(fwd, reverse_distribution(b0, bt, u, beta),
                                                      beta, df))
            max_jarzynski = max(max_jarzynski,
                                abs(jarzynski_average(fwd, beta) - math.exp(-beta * df)))
    return max_crooks, max_jarzynski, forward


def test_uniform_draws_lie_in_the_unit_interval():
    u = verify._uniform(random.Random(3), (5, 4, 4))
    assert u.shape == (5, 4, 4) and u.dtype == np.float64
    assert u.min() >= 0.0 and u.max() < 1.0


def test_random_symmetric_is_symmetric_and_seeded():
    m = verify._random_symmetric(random.Random(3), (7, 5, 5))
    np.testing.assert_array_equal(m, np.swapaxes(m, -1, -2))
    np.testing.assert_array_equal(m, verify._random_symmetric(random.Random(3), (7, 5, 5)))
    assert not np.array_equal(m, verify._random_symmetric(random.Random(4), (7, 5, 5)))


def test_random_symmetric_entries_have_variance_scale_squared():
    # the diagonal keeps the drawn entries; an off-diagonal entry averages two of them
    scale = 0.3
    m = verify._random_symmetric(random.Random(5), (2000, 8, 8), scale=scale)
    upper = np.triu_indices(8, 1)
    assert np.var(np.diagonal(m, axis1=-2, axis2=-1)) == pytest.approx(scale ** 2, rel=0.03)
    assert np.var(m[:, upper[0], upper[1]]) == pytest.approx(scale ** 2 / 2, rel=0.03)


def test_A1_propagates_one_stack_per_dimension(monkeypatch):
    results = {}

    def recorded(name, function):
        def call(*args, **kwargs):
            results.setdefault(name, []).append(function(*args, **kwargs))
            return results[name][-1]
        return call

    readers = ("propagator", "forward_distribution", "reverse_distribution", "delta_F",
               "crooks_check", "jarzynski_average", "mean_work")
    for name in readers:
        monkeypatch.setattr(verify, name, recorded(name, getattr(verify, name)))
    a1, a2 = verify.criterion_crooks_jarzynski("full")
    assert {name: len(made) for name, made in results.items()} == dict.fromkeys(readers, 3)
    max_crooks, max_jarzynski, single = single_path_ensemble()
    assert a1.details["max_crooks_residual"] == pytest.approx(max_crooks, abs=1e-12)
    assert a2.details["max_jarzynski_deviation"] == pytest.approx(max_jarzynski, abs=1e-12)
    # the relations hold in any orthonormal endpoint bases, so the figures alone cannot
    # see a protocol paired with another's slice; its distribution can
    forward = [dist for stack in results["forward_distribution"] for dist in stack]
    assert len(forward) == len(single) == 200
    for stacked, alone in zip(forward, single):
        np.testing.assert_array_equal(stacked.works, alone.works)
        np.testing.assert_allclose(stacked.probs, alone.probs, rtol=0, atol=1e-12)


def test_A1_checks_unitarity_once_per_stacked_propagator(monkeypatch):
    evaluations = []
    defect = UnitaryOperator.unitarity_defect
    counted = cached_property(lambda u: evaluations.append(u) or defect.func(u))
    counted.__set_name__(UnitaryOperator, "unitarity_defect")
    monkeypatch.setattr(UnitaryOperator, "unitarity_defect", counted)
    verify.criterion_crooks_jarzynski("full")
    assert len(evaluations) == 3


def test_A1_fails_on_bases_that_do_not_diagonalise_the_endpoints(monkeypatch):
    # protocol k's eigenvalues with protocol k-1's eigenvectors: the TPM relations still
    # hold, and only the mean work against the traces sees it
    def rolled(op):
        basis = energy_basis(op)
        return EnergyBasis(basis.eigenvalues, np.roll(basis.eigenvectors, 1, axis=0))

    monkeypatch.setattr(verify, "energy_basis", rolled)
    a1, a2 = verify.criterion_crooks_jarzynski("full")
    assert a1.details["max_crooks_residual"] < 1e-8 and a2.passed
    assert a1.details["max_mean_work_deviation"] > 1e-10
    assert not a1.passed


def test_A11_fails_on_a_shifted_mean_work(monkeypatch):
    mean_work = verify.mean_work
    monkeypatch.setattr(verify, "mean_work", lambda fwd: mean_work(fwd) + 1e-9)
    a3, a11 = verify.criterion_entropy_two_level("full")
    assert a3.passed and not a11.passed
    assert a11.details["max_relative_entropy_deviation"] > 1e-10


def test_unknown_level_is_an_input_error():
    with pytest.raises(InputError, match="'medium'"):
        run_verification("medium")


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
