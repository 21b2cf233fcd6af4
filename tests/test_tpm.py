"""Two-point-measurement protocol: distributions, Crooks/Jarzynski, entropy."""

import math
from dataclasses import asdict

import numpy as np
import pytest

from curvedwork import verify
from curvedwork.errors import InputError, NumericError
from curvedwork.quantum import (
    AffinePath,
    EnergyBasis,
    HermitianOperator,
    UnitaryOperator,
    energy_basis,
    propagator,
    qho_hamiltonian,
    two_level_hamiltonian,
)
from curvedwork.tpm import (
    ProtocolReport,
    WorkDistribution,
    crooks_check,
    delta_F,
    entropy_production_two_level,
    forward_distribution,
    jarzynski_average,
    mean_work,
    reverse_distribution,
)
from curvedwork.verify import criterion_entropy_two_level


def random_protocol(rng, dim, duration=1.0, steps=40, scale=0.4):
    a = scale * rng.normal(size=(dim, dim))
    b = scale * rng.normal(size=(dim, dim))
    path = AffinePath(HermitianOperator(0.5 * (a + a.T)), HermitianOperator(0.5 * (b + b.T)),
                      np.sin)
    return path(0.0), path(duration), propagator(path, 0.0, duration, steps)


def two_level_shift(zfactor, eps=1.0):
    """Energy bases of the two-level h0 and of zfactor h0."""
    h0 = two_level_hamiltonian(eps)
    return energy_basis(h0), energy_basis(HermitianOperator(zfactor * h0.entries))


def two_level_basis(eps=1.0):
    return energy_basis(two_level_hamiltonian(eps))


class TestDeltaF:
    def test_equal_hamiltonians(self):
        h = two_level_basis()
        assert delta_F(h, h, 2.0) == 0.0

    def test_two_level_closed_form(self):
        beta, eps, zf = 1.3, 0.9, 1.4
        h0, ht = two_level_shift(zf, eps)
        expected = -(1 / beta) * math.log(
            (1 + math.exp(-zf * beta * eps)) / (1 + math.exp(-beta * eps))
        )
        assert delta_F(h0, ht, beta) == pytest.approx(expected, abs=1e-14)

    def test_oscillator_truncation_stable(self):
        beta, omega0, omega_eff = 0.9, 1.0, 0.8
        vals = [
            delta_F(energy_basis(qho_hamiltonian(1.0, omega0, dim)),
                    energy_basis(qho_hamiltonian(1.0, omega_eff, dim)), beta)
            for dim in (40, 80)
        ]
        assert abs(vals[0] - vals[1]) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(InputError, match="dimension mismatch: h_init 2, h_final 3"):
            delta_F(two_level_basis(), energy_basis(qho_hamiltonian(1.0, 1.0, 3)), 1.0)


class TestForwardDistribution:
    def test_identity_protocol_single_point(self):
        h = two_level_basis()
        dist = forward_distribution(h, h, UnitaryOperator(np.eye(2)), 1.0)
        np.testing.assert_array_equal(dist.works, [0.0])
        np.testing.assert_allclose(dist.probs, [1.0])

    def test_two_level_shift(self):
        beta, eps, zf = 1.0, 1.0, 1.3
        h0, ht = two_level_shift(zf, eps)
        dist = forward_distribution(h0, ht, UnitaryOperator(np.eye(2)), beta)
        p1 = math.exp(-beta * eps) / (1 + math.exp(-beta * eps))
        np.testing.assert_allclose(dist.works, [0.0, (zf - 1) * eps], atol=1e-14)
        np.testing.assert_allclose(dist.probs, [1 - p1, p1], atol=1e-14)

    def test_random_protocol_normalized(self):
        rng = np.random.default_rng(17)
        h0, ht, u = random_protocol(rng, 4)
        dist = forward_distribution(energy_basis(h0), energy_basis(ht), u, 0.8)
        assert abs(np.sum(dist.probs) - 1.0) < 1e-12


class TestReverseDistribution:
    def test_identity_protocol(self):
        h = two_level_basis()
        dist = reverse_distribution(h, h, UnitaryOperator(np.eye(2)), 1.0)
        np.testing.assert_array_equal(dist.works, [0.0])
        np.testing.assert_allclose(dist.probs, [1.0])

    def test_microreversibility_identity(self):
        # |<l0|U~|kT>|^2 = |<kT|U|l0>|^2 for conjugation time reversal on real paths
        rng = np.random.default_rng(23)
        for dim in (2, 4, 6):
            h0, ht, u = random_protocol(rng, dim)
            b0, bt = energy_basis(h0), energy_basis(ht)
            amp_f = np.abs(bt.eigenvectors.conj().T @ u.entries @ b0.eigenvectors) ** 2
            amp_r = np.abs(b0.eigenvectors.conj().T @ u.entries.T @ bt.eigenvectors) ** 2
            assert np.max(np.abs(amp_r - amp_f.T)) < 1e-12

    def test_two_level_gibbs_weights_at_final(self):
        beta, eps, zf = 0.7, 1.0, 1.2
        h0, ht = two_level_shift(zf, eps)
        dist = reverse_distribution(h0, ht, UnitaryOperator(np.eye(2)), beta)
        q1 = math.exp(-beta * zf * eps) / (1 + math.exp(-beta * zf * eps))
        np.testing.assert_allclose(dist.works, [-(zf - 1) * eps, 0.0], atol=1e-14)
        np.testing.assert_allclose(dist.probs, [q1, 1 - q1], atol=1e-14)

    def test_complex_hamiltonian_rejected(self):
        m = np.array([[0.0, 1j], [-1j, 1.0]])
        h = energy_basis(HermitianOperator(m))
        with pytest.raises(InputError, match="time-reversal"):
            reverse_distribution(h, h, UnitaryOperator(np.eye(2)), 1.0)


def two_level_stack():
    """Three two-level protocols as a (3, 2) stack: endpoint bases and propagators."""
    rng = np.random.default_rng(29)
    ends = [random_protocol(rng, 2) for _ in range(3)]
    b0, bt = (energy_basis(HermitianOperator(np.array([e[i].entries for e in ends])))
              for i in (0, 1))
    return b0, bt, UnitaryOperator(np.array([e[2].entries for e in ends]))


class TestStacks:
    def test_stacked_readers_return_one_result_per_protocol(self):
        b0, bt, u = two_level_stack()
        beta = np.array([0.5, 1.0, 2.0])
        for fn in (forward_distribution, reverse_distribution):
            dists = fn(b0, bt, u, beta)
            assert isinstance(dists, WorkDistribution) and len(dists) == 3
            assert dists.stack_shape == (3,)
        assert delta_F(b0, bt, beta).shape == (3,)
        # a single basis broadcasts against a stack of propagators and of betas
        one = EnergyBasis(b0.eigenvalues[0], b0.eigenvectors[0])
        assert len(forward_distribution(one, one, u, 1.0)) == 3
        assert delta_F(one, one, beta).tolist() == [0.0, 0.0, 0.0]

    def test_amplitudes_read_a_single_basis(self):
        b0, _, _ = two_level_stack()
        with pytest.raises(InputError, match="reads a single basis"):
            b0.amplitudes(1, 0, [0.0, 1.0])

    @pytest.mark.parametrize("mismatch", ["bases", "u", "beta"])
    def test_stacks_that_do_not_broadcast_are_input_errors(self, mismatch):
        b0, bt, u = two_level_stack()
        beta = 1.0
        if mismatch == "bases":
            bt = EnergyBasis(bt.eigenvalues[:2], bt.eigenvectors[:2])
        elif mismatch == "u":
            u = UnitaryOperator(u.entries[:2])
        else:
            beta = np.array([0.5, 1.0])
        readers = [lambda: forward_distribution(b0, bt, u, beta),
                   lambda: reverse_distribution(b0, bt, u, beta)]
        if mismatch != "u":
            readers += [lambda: delta_F(b0, bt, beta)]
        for reader in readers:
            with pytest.raises(InputError, match="do not broadcast") as err:
                reader()
            assert "\n" not in str(err.value)
        if mismatch == "beta":
            with pytest.raises(InputError, match="do not broadcast"):
                b0.gibbs(beta)

    @pytest.mark.parametrize("reader", [
        lambda b0, bt: forward_distribution(b0, bt, UnitaryOperator(np.eye(2)), 1.0),
        lambda b0, bt: reverse_distribution(b0, bt, UnitaryOperator(np.eye(2)), 1.0),
        lambda b0, bt: delta_F(b0, bt, 1.0)],
        ids=["forward", "reverse", "delta_F"])
    def test_endpoints_that_are_not_bases_are_input_errors(self, reader):
        # each endpoint is diagonalised once, by its caller: a Hamiltonian is refused
        h = two_level_hamiltonian(1.0)
        for ends in ((h, two_level_basis()), (two_level_basis(), h), (h, h)):
            with pytest.raises(InputError, match="made by energy_basis, got .*HermitianOperator"):
                reader(*ends)

    def test_stacked_complex_eigenvectors_rejected_by_reverse(self):
        b0, bt, u = two_level_stack()
        bt = EnergyBasis(bt.eigenvalues, bt.eigenvectors * np.array([1.0, 1.0, 1j])[:, None, None])
        with pytest.raises(InputError, match="complex eigenvectors") as err:
            reverse_distribution(b0, bt, u, 1.0)
        assert "\n" not in str(err.value)


class TestCrooks:
    def test_identity_protocol_zero_residual(self):
        h = two_level_basis()
        fwd = forward_distribution(h, h, UnitaryOperator(np.eye(2)), 1.0)
        rev = reverse_distribution(h, h, UnitaryOperator(np.eye(2)), 1.0)
        assert crooks_check(fwd, rev, 1.0, 0.0) == 0.0

    def test_two_level_shift_residual(self):
        beta, zf = 1.1, 1.25
        h0, ht = two_level_shift(zf)
        fwd = forward_distribution(h0, ht, UnitaryOperator(np.eye(2)), beta)
        rev = reverse_distribution(h0, ht, UnitaryOperator(np.eye(2)), beta)
        assert crooks_check(fwd, rev, beta, delta_F(h0, ht, beta)) < 1e-10

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_random_protocols(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(5):
            beta = float(rng.uniform(0.1, 5.0))
            h0, ht, u = random_protocol(rng, dim)
            h0, ht = energy_basis(h0), energy_basis(ht)
            fwd = forward_distribution(h0, ht, u, beta)
            rev = reverse_distribution(h0, ht, u, beta)
            assert crooks_check(fwd, rev, beta, delta_F(h0, ht, beta)) < 1e-8

    def test_no_matchable_support(self):
        fwd = WorkDistribution(np.array([1.0]), np.array([1.0]), merge_tol=1e-12)
        rev = WorkDistribution(np.array([5.0]), np.array([1.0]), merge_tol=1e-12)
        with pytest.raises(NumericError):
            crooks_check(fwd, rev, 1.0, 0.0)
        # in a stack, the row without a match is named; the other row matches
        fwd = WorkDistribution.from_raw([[1.0], [1.0]], [[1.0], [1.0]], 1e-12)
        rev = WorkDistribution.from_raw([[-1.0], [5.0]], [[1.0], [1.0]], 1e-12)
        with pytest.raises(NumericError, match="^row 1: no matchable support points"):
            crooks_check(fwd, rev, 1.0, 0.0)
        assert crooks_check(fwd[0], rev[0], 1.0, 0.0) == 1.0


class TestJarzynskiAndMoments:
    def test_identity_protocol(self):
        h = two_level_basis()
        fwd = forward_distribution(h, h, UnitaryOperator(np.eye(2)), 1.0)
        assert jarzynski_average(fwd, 1.0) == 1.0
        assert mean_work(fwd) == 0.0

    def test_partition_ratio_identity(self):
        rng = np.random.default_rng(29)
        for dim in (2, 4, 8):
            beta = float(rng.uniform(0.2, 3.0))
            h0, ht, u = random_protocol(rng, dim)
            h0, ht = energy_basis(h0), energy_basis(ht)
            fwd = forward_distribution(h0, ht, u, beta)
            zratio = math.exp(-beta * delta_F(h0, ht, beta))
            assert abs(jarzynski_average(fwd, beta) - zratio) < 1e-10

    def test_two_level_partition_ratio(self):
        beta, zf = 1.0, 1.2
        h0, ht = two_level_shift(zf)
        fwd = forward_distribution(h0, ht, UnitaryOperator(np.eye(2)), beta)
        expected = (1 + math.exp(-1.2)) / (1 + math.exp(-1.0))
        assert jarzynski_average(fwd, beta) == pytest.approx(expected, abs=1e-14)

    def test_two_level_mean_work(self):
        beta, eps, zf = 1.0, 1.0, 1.4
        h0, ht = two_level_shift(zf, eps)
        fwd = forward_distribution(h0, ht, UnitaryOperator(np.eye(2)), beta)
        p1 = math.exp(-beta * eps) / (1 + math.exp(-beta * eps))
        assert mean_work(fwd) == pytest.approx((zf - 1) * eps * p1, abs=1e-14)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_average_beyond_the_float_range_is_a_numeric_error(self):
        stack = WorkDistribution.from_raw([[0.0, 1.0], [-800.0, 0.0]], [[0.5, 0.5]] * 2, 1e-9)
        with pytest.raises(NumericError, match="overflows"):
            jarzynski_average(stack, 1.0)
        assert jarzynski_average(stack[0], 1.0) == 0.5 + 0.5 * math.exp(-1.0)

    def test_mean_work_linear_in_mixture(self):
        d1 = WorkDistribution(np.array([0.0, 1.0]), np.array([0.5, 0.5]), merge_tol=1e-12)
        d2 = WorkDistribution(np.array([-1.0, 2.0]), np.array([0.25, 0.75]), merge_tol=1e-12)
        lam = 0.3
        mix = WorkDistribution.from_raw(
            np.concatenate([d1.works, d2.works]),
            np.concatenate([lam * d1.probs, (1 - lam) * d2.probs]),
            merge_tol=1e-12,
        )
        assert mean_work(mix) == pytest.approx(
            lam * mean_work(d1) + (1 - lam) * mean_work(d2), abs=1e-15
        )


class TestDissipatedWork:
    def test_rescaled_basis_matches_rescaled_hamiltonian(self):
        # EnergyBasis.scaled(z) is the basis of z h for every real z; z < 0 reverses the levels
        m = np.random.default_rng(4).normal(size=(5, 5))
        for h in (two_level_hamiltonian(1.0), HermitianOperator(0.5 * (m + m.T))):
            b = energy_basis(h)
            for z in (-1.3, -0.5, 0.0, 0.5, 1.0, 1.5):
                bz = b.scaled(z)
                hz = HermitianOperator(z * h.entries)
                v = bz.eigenvectors
                np.testing.assert_allclose(v.conj().T @ hz.entries @ v, np.diag(bz.eigenvalues),
                                           rtol=0, atol=1e-12)
                for beta in (0.1, 1.0, 10.0):
                    np.testing.assert_allclose(delta_F(b, bz, beta),
                                               delta_F(b, energy_basis(hz), beta),
                                               rtol=1e-12, atol=1e-12)

    def test_a3_diagonalises_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(verify, "energy_basis", lambda h: calls.append(h) or energy_basis(h))
        a3, a11 = criterion_entropy_two_level()
        assert a3.passed and a11.passed and len(calls) == 1

    def test_a3_stacked_quench_matches_one_call_per_grid_point(self):
        # A3 and A11 read one stacked quench; here each grid point is its own protocol, and
        # its entropy production is set against D(p || q) summed over the two levels
        b_ref = energy_basis(two_level_hamiltonian(1.0))
        identity = UnitaryOperator(np.eye(2))
        mismatch = deviation = 0.0
        for z in np.linspace(0.5, 1.5, 21):
            for c in np.linspace(0.1, 10.0, 21):
                z, c = float(z), float(c)
                bz = b_ref.scaled(z)
                sigma = c * (mean_work(forward_distribution(b_ref, bz, identity, c))
                             - delta_F(b_ref, bz, c))
                mismatch = max(mismatch, abs(entropy_production_two_level(z, c) - sigma))
                p = np.array([1.0, math.exp(-c)]) / (1.0 + math.exp(-c))
                q = np.array([1.0, math.exp(-z * c)]) / (1.0 + math.exp(-z * c))
                deviation = max(deviation, abs(sigma - float(np.sum(p * np.log(p / q)))))
        a3, a11 = criterion_entropy_two_level()
        assert a3.details["max_formula_vs_tpm_mismatch"] == pytest.approx(mismatch, abs=1e-12)
        assert deviation < 1e-12 and a11.details["max_relative_entropy_deviation"] < 1e-12


class TestEntropyProductionTwoLevel:
    def test_unit_zfactor_is_exactly_zero(self):
        for c in (0.1, 1.0, 10.0):
            assert entropy_production_two_level(1.0, c) == 0.0

    def test_sign_matches_zfactor(self):
        for zf in np.linspace(0.5, 1.5, 11):
            for c in np.linspace(0.1, 10.0, 11):
                if math.isclose(zf, 1.0):
                    continue
                sigma = entropy_production_two_level(float(zf), float(c))
                assert np.sign(sigma) == np.sign(zf - 1.0)


class TestWorkDistribution:
    def test_merge_preserves_total_probability_and_mean(self):
        works = np.array([0.0, 1e-12, 1.0, 1.0 + 5e-10, 2.0])
        probs = np.array([0.1, 0.2, 0.3, 0.2, 0.2])
        dist = WorkDistribution.from_raw(works, probs, merge_tol=1e-9)
        assert dist.works.size == 3
        assert np.sum(dist.probs) == pytest.approx(1.0, abs=1e-14)
        assert mean_work(dist) == pytest.approx(np.sum(works * probs), abs=1e-14)

    def test_invalid_normalization_rejected(self):
        with pytest.raises(InputError):
            WorkDistribution(np.array([0.0]), np.array([0.5]), merge_tol=1e-12)

    @pytest.mark.parametrize("works, probs, message", [
        ([0.0, math.nan], [0.5, 0.5], "work values must be finite"),
        ([0.0, 1.0], [math.nan, math.nan], "probabilities must be finite"),
        ([0.0, math.inf], [0.5, 0.5], "work values must be finite"),
        ([-math.inf, 0.0], [0.5, 0.5], "work values must be finite"),
        ([math.nan], [1.0], "work values must be finite"),
        ([0.0, math.nan, 1.0], [0.25, 0.5, 0.25], "work values must be finite"),
        ([0.0, 1.0], [math.inf, -math.inf], "probabilities must be finite"),
    ], ids=["nan_work", "nan_probs", "inf_work", "neg_inf_work", "single_nan_work",
            "inner_nan_work", "inf_probs_before_any_sum"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_values_rejected(self, works, probs, message):
        # finiteness is checked first: a sum over [inf, -inf] would warn before the error
        with pytest.raises(InputError, match=message):
            WorkDistribution(np.array(works), np.array(probs), merge_tol=1e-9)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_gap_past_the_float_range_is_a_gap(self):
        # 1.7e308 - (-1.7e308) overflows to inf, which is above any merge_tol
        dist = WorkDistribution(np.array([-1.7e308, 1.7e308]), np.array([0.5, 0.5]), 1e-9)
        assert dist.works.tolist() == [-1.7e308, 1.7e308]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_from_raw_keeps_points_a_gap_past_the_float_range_apart(self):
        dist = WorkDistribution.from_raw([1.7e308, -1.7e308], [0.25, 0.75], merge_tol=1e-9)
        assert dist.works.tolist() == [-1.7e308, 1.7e308]
        assert dist.probs.tolist() == [0.75, 0.25]

    @pytest.mark.parametrize("works, probs", [
        ([0.0, 1.0], [math.nan, 1.0]),
        ([0.0, math.inf], [0.5, 0.5]),
        ([0.0, math.nan], [1.0, 0.0]),
    ], ids=["nan_prob", "inf_work", "nan_work_at_zero_prob"])
    def test_from_raw_rejects_non_finite_outcomes(self, works, probs):
        # a NaN probability is not > 0, so without the check it would be dropped silently
        with pytest.raises(InputError, match="non-finite"):
            WorkDistribution.from_raw(works, probs, merge_tol=1e-9)

    def test_stack_with_one_bad_row_rejected(self):
        with pytest.raises(InputError, match="row 1: probabilities sum to 1.1"):
            WorkDistribution(np.array([0.0, 1.0, 0.0, 1.0]), np.array([0.5, 0.5, 0.5, 0.6]),
                             np.array([1e-9, 1e-9]), np.array([0, 2, 4]))

    def test_stack_length_and_rows(self):
        works = np.array([[0.0, 1.0, 1.0 + 1e-12], [2.0, 2.0, 3.0], [5.0, 6.0, 7.0]])
        probs = np.array([[0.5, 0.25, 0.25], [0.2, 0.2, 0.6], [0.0, 1.0, 0.0]])
        stack = WorkDistribution.from_raw(works, probs, np.array([1e-9, 1e-9, 1e-9]))
        assert len(stack) == 3 and stack.stack_shape == (3,)
        assert stack.bounds.tolist() == [0, 2, 4, 5]
        for k, row in enumerate(stack):
            one = WorkDistribution.from_raw(works[k], probs[k], 1e-9)
            np.testing.assert_array_equal(row.works, one.works)
            np.testing.assert_array_equal(row.probs, one.probs)
            assert row.merge_tol == one.merge_tol and row.stack_shape == ()
        assert stack[-1].works.tolist() == [6.0]
        with pytest.raises(IndexError):
            stack[3]
        with pytest.raises(TypeError):
            len(stack[0])

    def test_stacked_merge_rejects_one_non_finite_row(self):
        works = np.array([[0.0, 1.0], [0.0, 1.0]])
        probs = np.array([[0.5, 0.5], [0.5, math.nan]])
        with pytest.raises(InputError, match="non-finite"):
            WorkDistribution.from_raw(works, probs, np.array([1e-9, 1e-9]))


class TestProtocolReport:
    def test_derived_fields_are_their_formulas(self):
        inputs = {"beta": 2.0, "delta_F": 0.5, "mean_work": 0.7,
                  "jarzynski_lhs": math.exp(-1.0), "jarzynski_rhs": math.exp(-1.0),
                  "crooks_max_residual": 0.0}
        report = ProtocolReport(**inputs)
        assert report.dissipated_work == 0.7 - 0.5
        assert report.entropy_production == 2.0 * (0.7 - 0.5)
        # report.json keeps its key order, the derived fields last
        assert list(asdict(report)) == [*inputs, "entropy_production", "dissipated_work"]
        for derived in ("entropy_production", "dissipated_work"):
            with pytest.raises(TypeError):
                ProtocolReport(**inputs, **{derived: 0.2})
