"""Operators, thermal states, propagation, perturbation theory."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from curvedwork import quantum
from curvedwork.errors import InputError, NumericError
from curvedwork.quantum import (
    AffinePath,
    EnergyBasis,
    HermitianOperator,
    UnitaryOperator,
    energy_basis,
    perturbative_amplitude,
    propagator,
    qho_hamiltonian,
    thermal_state,
    transition_probability_formula,
    two_level_hamiltonian,
    x_squared_element,
    x_squared_matrix,
)


def ladder_x_squared(mass, omega, dim):
    """Oracle: x^2 built from explicit ladder operators on a padded space."""
    big = dim + 2
    a = np.diag(np.sqrt(np.arange(1, big)), k=1)
    x = (a + a.T) / math.sqrt(2 * mass * omega)
    return (x @ x)[:dim, :dim]


class TestOperators:
    def test_two_level(self):
        h = two_level_hamiltonian(1.3)
        np.testing.assert_array_equal(h.entries, np.diag([0.0, 1.3]))
        with pytest.raises(InputError):
            two_level_hamiltonian(-1.0)

    def test_qho_spectrum(self):
        h = qho_hamiltonian(1.0, 1.0, 2)
        np.testing.assert_array_equal(np.diag(h.entries).real, [0.5, 1.5])
        h = qho_hamiltonian(2.0, 0.7, 12)
        spacings = np.diff(np.diag(h.entries).real)
        np.testing.assert_allclose(spacings, 0.7, atol=1e-15)
        with pytest.raises(InputError):
            qho_hamiltonian(1.0, 1.0, 1)

    def test_qho_partition_function_limit(self):
        # truncated trace approaches the geometric-series value 1/(2 sinh(bw/2))
        beta, omega = 1.0, 1.0
        h = qho_hamiltonian(1.0, omega, 60)
        z = np.sum(np.exp(-beta * np.diag(h.entries).real))
        assert z == pytest.approx(1.0 / (2 * math.sinh(beta * omega / 2)), rel=1e-12)

    def test_x_squared_elements(self):
        mass, omega = 1.7, 0.9
        h = x_squared_matrix(mass, omega, 8)
        assert h.entries[0, 0].real == pytest.approx(1 / (2 * mass * omega))
        assert h.entries[2, 0].real == pytest.approx(math.sqrt(2) / (2 * mass * omega))

    def test_x_squared_matches_ladder_oracle(self):
        mass, omega, dim = 1.3, 0.8, 15
        oracle = ladder_x_squared(mass, omega, dim)
        built = x_squared_matrix(mass, omega, dim).entries.real
        # the top two rows/columns of the truncated product differ by cutoff effects
        inner = slice(0, dim - 2)
        assert np.max(np.abs(built[inner, inner] - oracle[inner, inner])) < 1e-13

    def test_hermiticity_enforced(self):
        with pytest.raises(InputError):
            HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_unitarity_enforced(self):
        with pytest.raises(InputError):
            UnitaryOperator(np.array([[1.0, 0.0], [0.0, 2.0]]))

    def test_stacks_checked_per_matrix(self):
        # one bad member of a stack is enough, whatever its place
        unitary = np.stack([np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2)])
        assert UnitaryOperator(unitary).dim == 2
        unitary[2, 1, 1] = 2.0
        with pytest.raises(InputError, match="not unitary"):
            UnitaryOperator(unitary)
        hermitian = np.zeros((2, 3, 4, 4))
        assert HermitianOperator(hermitian).dim == 4
        hermitian[1, 2, 0, 3] = 1.0
        with pytest.raises(InputError, match="not Hermitian"):
            HermitianOperator(hermitian)
        with pytest.raises(InputError, match="square"):
            HermitianOperator(np.zeros((3, 2, 4)))

    def test_stacked_energy_basis_ascending_per_basis(self):
        v = np.broadcast_to(np.eye(2), (2, 2, 2))
        assert EnergyBasis(np.array([[0.0, 1.0], [-3.0, -2.0]]), v).dim == 2
        with pytest.raises(InputError, match="ascending"):
            EnergyBasis(np.array([[0.0, 1.0], [1.0, 0.0]]), v)

    @pytest.mark.parametrize("shapes", [((3, 2), (4, 2, 2)), ((3, 2), (2, 2)), ((3,), (2, 2)),
                                        ((), (1, 1))])
    def test_energy_basis_eigenvectors_fit_the_eigenvalues(self, shapes):
        w, v = shapes
        with pytest.raises(InputError, match="do not fit"):
            EnergyBasis(np.zeros(w), np.zeros(v))


class TestThermalState:
    def test_two_level_populations(self):
        state = thermal_state(two_level_hamiltonian(1.0), 1.0)
        pops = np.diag(state.density).real
        expected = np.array([1.0, math.exp(-1.0)])
        expected /= expected.sum()
        np.testing.assert_allclose(pops, expected, atol=1e-4)
        assert pops[0] == pytest.approx(0.7311, abs=1e-4)

    def test_ground_state_limit(self):
        state = thermal_state(two_level_hamiltonian(1.0), 500.0)
        np.testing.assert_allclose(np.diag(state.density).real, [1.0, 0.0], atol=1e-12)

    def test_commutes_with_hamiltonian(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        h = HermitianOperator(0.5 * (m + m.conj().T))
        rho = thermal_state(h, 0.7).density
        comm = rho @ h.entries - h.entries @ rho
        assert np.max(np.abs(comm)) < 1e-12

    def test_log_partition(self):
        beta, eps = 0.8, 1.4
        state = thermal_state(two_level_hamiltonian(eps), beta)
        assert state.log_partition == pytest.approx(math.log(1 + math.exp(-beta * eps)))

    def test_invalid_beta(self):
        with pytest.raises(InputError):
            thermal_state(two_level_hamiltonian(1.0), 0.0)

    def test_log_partition_takes_math_log_in_a_stack(self):
        # numpy's array log differs from math.log by an ulp on a few of these inputs, and
        # ln Z must keep the single-basis arithmetic: stacked rows equal single calls
        rng = np.random.default_rng(6)
        w = np.sort(rng.normal(scale=3.0, size=(20000, 3)), axis=-1)
        beta = rng.uniform(0.1, 5.0, size=20000)
        stack = EnergyBasis(w, np.broadcast_to(np.eye(3), (20000, 3, 3)))
        boltz = np.exp(-beta[:, None] * (w - w[:, :1]))
        expected = [math.log(z) - b * s for z, b, s in zip(np.sum(boltz, axis=-1).tolist(),
                                                            beta.tolist(), w[:, 0].tolist())]
        assert stack.gibbs(beta)[1].tolist() == expected
        assert thermal_state(stack, beta).log_partition.tolist() == expected
        single = EnergyBasis(w[0], np.eye(3))
        assert single.gibbs(float(beta[0]))[1] == expected[0]


class TestEnergyBasis:
    def test_reconstruction(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(6, 6))
        h = HermitianOperator((0.5 * (m + m.T)).astype(complex))
        basis = energy_basis(h)
        recon = basis.eigenvectors @ np.diag(basis.eigenvalues) @ basis.eigenvectors.conj().T
        assert np.max(np.abs(recon - h.entries)) < 1e-10

    @pytest.mark.parametrize("n", [2, np.array([0, 3, 1]), slice(1, None, 2)],
                             ids=["scalar", "indices", "slice"])
    def test_amplitudes_match_dense_evolution(self, n):
        times = np.linspace(0.0, 3.0, 7)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            basis = energy_basis(HermitianOperator(0.5 * (m + m.conj().T)))
            w, v = basis.eigenvalues, basis.eigenvectors
            dense = np.array([(v * np.exp(-1j * w * t)) @ v.conj().T for t in times])
            np.testing.assert_allclose(basis.amplitudes(n, 4, times),
                                       np.moveaxis(dense[:, n, 4], 0, -1), rtol=0, atol=1e-13)


def constant_path(h):
    """H(tau) = h along the whole path."""
    return AffinePath(h, HermitianOperator(np.zeros_like(h.entries)), lambda tau: 0.0)


class TestPropagator:
    def test_constant_hamiltonian(self):
        rng = np.random.default_rng(4)
        m = rng.normal(size=(4, 4))
        h = HermitianOperator((0.5 * (m + m.T)).astype(complex))
        u = propagator(constant_path(h), 0.0, 1.7, 13)
        w, v = np.linalg.eigh(h.entries)
        expected = (v * np.exp(-1j * w * 1.7)) @ v.conj().T
        assert np.max(np.abs(u.entries - expected)) < 1e-12

    def test_zero_hamiltonian_gives_identity(self):
        u = propagator(constant_path(HermitianOperator(np.zeros((3, 3)))), 0.0, 2.0, 5)
        np.testing.assert_allclose(u.entries, np.eye(3), atol=1e-15)

    def test_unitarity(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(8, 8))
        b = rng.normal(size=(8, 8))
        path = AffinePath(HermitianOperator(0.5 * (a + a.T)), HermitianOperator(0.5 * (b + b.T)),
                          np.cos)
        u = propagator(path, 0.0, 5.0, 300)
        assert u.unitarity_defect < 1e-9

    def test_second_order_self_convergence(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(5, 5))
        b = rng.normal(size=(5, 5))
        path = AffinePath(HermitianOperator(0.5 * (a + a.T)), HermitianOperator(0.5 * (b + b.T)),
                          lambda tau: np.sin(3 * tau))
        ref = propagator(path, 0.0, 2.0, 4096).entries
        errs = [
            np.max(np.abs(propagator(path, 0.0, 2.0, steps).entries - ref))
            for steps in (32, 64, 128)
        ]
        ratios = [errs[0] / errs[1], errs[1] / errs[2]]
        for ratio in ratios:
            assert ratio == pytest.approx(4.0, abs=0.8)

    @pytest.mark.parametrize("banded", [True, False], ids=["parity", "dense"])
    def test_f_is_called_once_on_the_midpoints(self, banded):
        calls = []

        def f(tau):
            calls.append(tau)
            return np.sin(tau)

        # x on diagonals +-1 couples the parities, so the path takes the dense route
        x = x_squared_matrix(1.0, 1.0, 6) if banded else HermitianOperator(
            np.diag(np.ones(5), 1) + np.diag(np.ones(5), -1))
        propagator(AffinePath(qho_hamiltonian(1.0, 1.0, 6), x, f), 0.2, 1.4, 12)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], 0.2 + (np.arange(12) + 0.5) * ((1.4 - 0.2) / 12))

    @pytest.mark.parametrize("wrap", [np.asarray, HermitianOperator], ids=["ndarray", "operator"])
    def test_opaque_callable_rejected(self, wrap):
        h = qho_hamiltonian(1.0, 1.0, 3).entries
        with pytest.raises(InputError, match="AffinePath"):
            propagator(lambda tau: wrap(math.cos(tau) * h), 0.0, 1.0, 10)

    def test_static_operator_rejected(self):
        with pytest.raises(InputError, match="AffinePath"):
            propagator(qho_hamiltonian(1.0, 1.0, 3), 0.0, 1.0, 10)

    @pytest.mark.parametrize("stack", [(), (4,)], ids=["single", "stacked"])
    def test_non_unitary_result_is_a_numeric_error(self, stack, monkeypatch):
        # the path is checked input, so a product that is not unitary is a program fault
        monkeypatch.setattr(quantum, "_dense_product", lambda path, values, dt: np.broadcast_to(
            1.01 * np.eye(path.h0.dim), path.h0.entries.shape))
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(2, *stack, 3, 3))
        path = AffinePath(HermitianOperator(a + np.swapaxes(a, -1, -2)),
                          HermitianOperator(b + np.swapaxes(b, -1, -2)), np.sin)
        with pytest.raises(NumericError, match="not unitary"):
            propagator(path, 0.0, 1.0, 4)

    def test_invalid_interval(self):
        with pytest.raises(InputError):
            propagator(constant_path(HermitianOperator(np.zeros((2, 2)))), 1.0, 0.0, 5)

    @pytest.mark.parametrize("tau0, tau1, steps, f, match", [
        (0.0, math.inf, 5, 0.5, "tau1"), (-math.inf, 1.0, 5, 0.5, "tau1"),
        (0.0, math.nan, 5, 0.5, "tau1"), (0.0, 1.0, 2.5, 0.5, "steps"),
        (0.0, 1.0, 3.0, 0.5, "steps"), (0.0, 1.0, True, 0.5, "steps"),
        (0.0, 1.0, 5, 0.5 + 0.1j, "coefficient f"), (0.0, 1.0, 5, np.ones(3), "coefficient f"),
    ], ids=["tau1-inf", "tau0-minus-inf", "tau1-nan", "steps-fraction", "steps-float",
            "steps-bool", "f-complex", "f-not-per-midpoint"])
    def test_bad_bounds_or_steps_are_input_errors(self, tau0, tau1, steps, f, match):
        path = AffinePath(qho_hamiltonian(1.0, 1.0, 4), x_squared_matrix(1.0, 1.0, 4),
                          lambda tau: f)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match=match):
                propagator(path, tau0, tau1, steps)


class TestPerturbativeAmplitude:
    def test_zero_curvature(self):
        assert perturbative_amplitude(1.0, 1.0, [0.0], [0.0], 2, 0, 3.0) == 0.0

    @pytest.mark.parametrize("n", [1, 3, 5, 7])
    def test_selection_rule(self, n):
        assert perturbative_amplitude(1.0, 1.0, [0.0], [-0.01], n, 0, 2.0) == 0.0

    def test_desitter_closed_form(self):
        mass, omega0, hubble = 1.0, 1.0, 0.05
        for t in (0.7, 2.0, 6.5):
            c2 = perturbative_amplitude(mass, omega0, [0.0], [-hubble**2], 2, 0, t)
            expected = hubble**4 / (8 * omega0**4) * math.sin(omega0 * t) ** 2
            assert abs(c2) ** 2 == pytest.approx(expected, rel=1e-9)

    def test_matches_formula(self):
        mass, omega0, hubble = 1.3, 0.8, 0.03
        for t in np.linspace(0.3, 9.0, 7):
            c2 = perturbative_amplitude(mass, omega0, [0.0], [-hubble**2], 2, 0, float(t))
            formula = transition_probability_formula(mass, omega0, hubble, 2, 0, float(t))
            assert abs(c2) ** 2 == pytest.approx(formula, abs=1e-12)


def power_law_history(rows=64, duration=5.0):
    """R_txtx = -addot/a sampled at `rows` knots for the FRW scale factor a(t) = (1 + t/2)^(1/2)."""
    knots = np.linspace(0.0, duration, rows)
    return knots, (1.0 / 16.0) / (1.0 + 0.5 * knots) ** 2


def quad_amplitude(mass, omega0, knots, values, n, m, tau):
    """The amplitude by adaptive quadrature of np.interp's history, with the knots as break points."""
    integrate = pytest.importorskip("scipy.integrate")
    freq = (n - m) * omega0
    points = [k for k in knots if 0.0 < k < tau]
    with warnings.catch_warnings():  # epsrel 1e-13 sits at roundoff; the 1e-12 checks bound it
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        parts = [integrate.quad(lambda t: np.interp(t, knots, values) * trig(freq * t), 0.0, tau,
                                points=points or None, epsabs=0.0, epsrel=1e-13, limit=1000)[0]
                 for trig in (math.cos, math.sin)]
    return -0.5j * mass * x_squared_element(mass, omega0, n, m) * (parts[0] + 1j * parts[1])


def exact_weights(theta):
    """I0 and I1 by their Taylor series summed in exact rational arithmetic, for |theta| < 1."""
    z = Fraction(theta)
    sums = []
    for weight in (lambda k: Fraction(1, math.factorial(k + 1)),
                   lambda k: Fraction(k + 1, math.factorial(k + 2))):
        terms = [weight(k) * z ** k for k in range(40)]
        re = sum(t * (-1) ** (k // 2) for k, t in enumerate(terms) if k % 2 == 0)
        im = sum(t * (-1) ** (k // 2) for k, t in enumerate(terms) if k % 2 == 1)
        sums.append(complex(float(re), float(im)))
    return sums


class TestExactAmplitude:
    @pytest.mark.parametrize("n, m", [(2, 0), (4, 2), (3, 1), (2, 2)])
    def test_matches_quadrature_on_a_power_law_table(self, n, m):
        knots, values = power_law_history()
        for tau in np.linspace(0.1, 5.0, 50):
            got = perturbative_amplitude(1.0, 1.0, knots, values, n, m, float(tau))
            want = quad_amplitude(1.0, 1.0, knots, values, n, m, float(tau))
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_history_held_constant_outside_the_knots(self):
        # knots at 1 and 2 only: R = 3 on [0, 1], linear to 5 on [1, 2], then 5 again
        knots, values = [1.0, 2.0], [3.0, 5.0]
        for tau in (0.5, 1.5, 3.0):
            got = perturbative_amplitude(1.0, 1.0, knots, values, 2, 0, tau)
            want = quad_amplitude(1.0, 1.0, knots, values, 2, 0, tau)
            assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("side", [-1e-9, 1e-9])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_weights_on_both_sides_of_the_series_switch(self, side, sign):
        theta = sign * quantum.SERIES_SWITCH * (1.0 + side)
        got = quantum._segment_weights(np.array([theta]))
        for g, want in zip(got, exact_weights(theta)):
            assert abs(g[0] - want) <= 1e-15 * abs(want)

    @pytest.mark.parametrize("seed", range(6))
    def test_array_tau_equals_the_scalar_calls(self, seed):
        rng = np.random.default_rng(seed)
        knots = np.cumsum(rng.uniform(0.05, 1.0, rng.integers(2, 12))) - rng.uniform(0.0, 0.5)
        values = rng.normal(scale=0.01, size=knots.size)
        n, m = [(2, 0), (4, 2), (0, 2), (3, 3)][seed % 4]
        # tau = 0, the knots inside (0, last], points past the last knot, in shuffled order
        taus = np.concatenate(([0.0], knots[knots > 0], knots[-1] + rng.uniform(0.0, 2.0, 3),
                               rng.uniform(0.0, knots[-1], 20)))
        taus = taus[rng.permutation(taus.size)]
        curve = perturbative_amplitude(1.3, 0.9, knots, values, n, m, taus)
        scalar = [perturbative_amplitude(1.3, 0.9, knots, values, n, m, float(t)) for t in taus]
        assert curve.shape == taus.shape and all(type(c) is complex for c in scalar)
        assert np.max(np.abs(curve - scalar)) <= 1e-15 * np.max(np.abs(scalar))
        grid = curve.reshape(-1)[:24].reshape(2, 3, 4)
        assert np.array_equal(
            perturbative_amplitude(1.3, 0.9, knots, values, n, m, taus[:24].reshape(2, 3, 4)),
            grid)
        zero_d = perturbative_amplitude(1.3, 0.9, knots, values, n, m, np.array(taus[1]))
        assert type(zero_d) is complex and zero_d == scalar[1]

    @pytest.mark.parametrize("bad", [math.nan, -1e-3, math.inf])
    def test_bad_tau_in_an_array_rejected(self, bad):
        with pytest.raises(InputError):
            perturbative_amplitude(1.0, 1.0, [0.0, 2.0], [-0.01, 0.02], 2, 0,
                                   np.array([0.0, 1.0, bad, 3.0]))

    @pytest.mark.parametrize("knots, values", [
        ([], []),
        ([0.0, 1.0], [1.0]),
        ([[0.0, 1.0]], [[1.0, 2.0]]),
        ([0.0, 0.0], [1.0, 2.0]),
        ([1.0, 0.0], [1.0, 2.0]),
        ([0.0, 1.0], [1.0, math.nan]),
        ([0.0, math.inf], [1.0, 2.0]),
        (["a"], [1.0]),
        ([0.0, 1.0], [1.0, [2.0]]),
    ])
    def test_malformed_history_rejected(self, knots, values):
        with pytest.raises(InputError):
            perturbative_amplitude(1.0, 1.0, knots, values, 2, 0, 1.0)

    @pytest.mark.parametrize("tau", [-1.0, math.nan, math.inf])
    def test_bad_tau_rejected(self, tau):
        with pytest.raises(InputError):
            perturbative_amplitude(1.0, 1.0, [0.0], [-0.01], 2, 0, tau)


class TestTransitionProbabilityFormula:
    def test_odd_transitions_vanish(self):
        assert transition_probability_formula(1.0, 1.0, 0.01, 3, 0, 1.0) == 0.0

    def test_diagonal_rejected(self):
        with pytest.raises(InputError):
            transition_probability_formula(1.0, 1.0, 0.01, 2, 2, 1.0)

    def test_tiny_hubble_ratio_prefactor(self):
        # probability scale is (H/omega0)^4 at the peak
        ratio = 1e-3
        p = transition_probability_formula(1.0, 1.0, ratio, 2, 0, math.pi / 2)
        assert p == pytest.approx(ratio**4 / 8.0, rel=1e-12)

    def test_array_call_equals_scalar_calls(self):
        # the de Sitter curve's grid, whose first point t = 0 gives sin 0 = 0 exactly
        times = np.linspace(0.0, 10.0, 50)
        curve = transition_probability_formula(1.3, 0.8, 0.03, 2, 0, times)
        scalars = [transition_probability_formula(1.3, 0.8, 0.03, 2, 0, float(t)) for t in times]
        assert type(scalars[0]) is float and scalars[0] == 0.0
        assert curve.shape == times.shape and curve.tolist() == scalars


class TestEffectiveFrequency:
    @pytest.mark.parametrize("hubble", [0.1, 0.45])
    def test_spacings_match_closed_form(self, hubble):
        mass, omega0, dim = 1.0, 1.0, 40
        heff = HermitianOperator(
            qho_hamiltonian(mass, omega0, dim).entries
            - 0.5 * mass * hubble**2 * x_squared_matrix(mass, omega0, dim).entries
        )
        evals = np.linalg.eigvalsh(heff.entries)
        expected = math.sqrt(omega0**2 - hubble**2)
        assert np.max(np.abs(np.diff(evals)[: dim // 2] - expected)) < 1e-10 * omega0
