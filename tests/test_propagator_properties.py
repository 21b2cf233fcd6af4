"""Property tests of the propagator: unitarity of every solver the path shape selects,
the node rule of the parity-sector product, the Taylor step factors of the dense
product, parity selection in the curvature-driven oscillator, and stacks of paths
against their single paths."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvedwork import quantum
from curvedwork.errors import InputError
from curvedwork.quantum import (
    AffinePath,
    HermitianOperator,
    energy_basis,
    propagator,
    qho_hamiltonian,
    x_squared_matrix,
)
from curvedwork.tpm import forward_distribution

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


def unitarity_defect(u):
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


def hermitian(rng, dim, complex_entries):
    m = rng.normal(size=(dim, dim))
    if complex_entries:
        m = m + 1j * rng.normal(size=(dim, dim))
    return HermitianOperator(0.5 * (m + m.conj().T))


def banded(rng, dim):
    """Real diagonal h0 and real symmetric x on diagonals 0 and +-2."""
    off = rng.normal(size=max(dim - 2, 0))
    x = np.diag(rng.normal(size=dim)) + np.diag(off, 2) + np.diag(off, -2)
    return HermitianOperator(np.diag(np.sort(rng.uniform(0.0, 4.0, dim)))), HermitianOperator(x)


def drive(amplitude, rate, phase):
    return lambda tau: amplitude * np.sin(rate * tau + phase)


KINDS = ("scaled", "banded", "banded_constant", "non_banded")


@st.composite
def protocols(draw):
    """A path of one kind with its time window and step count."""
    kind = draw(st.sampled_from(KINDS))
    dim = draw(st.integers(2, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    f = drive(draw(st.floats(0.0, 5.0)), draw(st.floats(0.0, 10.0)), draw(st.floats(0.0, 6.3)))
    if kind == "scaled":
        h = hermitian(rng, dim, draw(st.booleans()))
        path = AffinePath(HermitianOperator(np.zeros_like(h.entries)), h, f)
    elif kind.startswith("banded"):
        h0, x = banded(rng, dim)
        value = f(1.0)
        path = AffinePath(h0, x, (lambda tau: value) if kind == "banded_constant" else f)
        assert path.sectors is not None
    else:
        path = AffinePath(hermitian(rng, dim, True), hermitian(rng, dim, True), f)
    tau0 = draw(st.floats(-3.0, 3.0))
    duration = draw(st.floats(0.01, 20.0))
    return path, tau0, tau0 + duration, draw(st.integers(1, 200))


@PROPERTY_SETTINGS
@given(protocols())
def test_every_propagator_kind_is_unitary(protocol):
    u = propagator(*protocol)
    assert unitarity_defect(u.entries) < 1e-12


def per_step_product(path, tau0, tau1, steps):
    """The midpoint product with one dense exp(-i H dt) factor per step."""
    dt = (tau1 - tau0) / steps
    u = np.eye(path.h0.dim, dtype=complex)
    for j in range(steps):
        w, v = np.linalg.eigh(path(tau0 + (j + 0.5) * dt).entries)
        u = ((v * np.exp(-1j * w * dt)) @ v.conj().T) @ u
    return u


@st.composite
def ramps(draw, wide):
    """A banded path whose f is a linear ramp, with a window and step count on one side of
    the node rule: a wide ramp in few steps needs as many nodes as steps, a narrow one fewer."""
    dim = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # |x| entries in [0.5, 2], so every sector's ||x||_inf lies in [0.5, 6]
    entries = rng.uniform(0.5, 2.0, (2, dim)) * rng.choice([-1.0, 1.0], (2, dim))
    x = np.diag(entries[0]) + np.diag(entries[1, 2:], 2) + np.diag(entries[1, 2:], -2)
    h0 = np.diag(np.sort(rng.uniform(0.0, 4.0, dim)))
    slope = draw(st.floats(5.0, 20.0) if wide else st.floats(0.01, 1.0))
    slope *= draw(st.sampled_from([-1.0, 1.0]))
    offset = draw(st.floats(-1.0, 1.0))
    path = AffinePath(HermitianOperator(h0), HermitianOperator(x),
                      lambda tau: offset + slope * tau)
    steps = draw(st.integers(2, 4) if wide else st.integers(30, 80))
    return path, draw(st.floats(1.0, 3.0)), steps


@pytest.mark.parametrize("wide", [False, True], ids=["chebyshev_nodes", "midpoint_nodes"])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_node_rule_and_accuracy_on_random_banded_ramps(wide, data):
    path, duration, steps = data.draw(ramps(wide))
    solves = []
    sector_eigh = quantum._sector_eigh
    quantum._sector_eigh = lambda sector, values: (solves.append(np.size(values))
                                                   or sector_eigh(sector, values))
    try:
        u = propagator(path, 0.0, duration, steps).entries
    finally:
        quantum._sector_eigh = sector_eigh
    # per sector the least m with 2 (rho/2)^m / m! <= NODE_TOL, at most the step count
    dt = duration / steps
    spread = dt * abs(path.f((steps - 0.5) * dt) - path.f(0.5 * dt)) / 2
    expected = []
    for _, _, x in path.sectors:
        rho, m = spread * np.max(np.sum(np.abs(x), axis=1)), 1
        while 2 * (rho / 2) ** m / math.factorial(m) > quantum.NODE_TOL and m < steps:
            m += 1
        expected.append(m)
    assert solves == expected
    assert all((m == steps) if wide else (m < steps) for m in expected)
    np.testing.assert_allclose(u, per_step_product(path, 0.0, duration, steps),
                               rtol=0, atol=1e-12)
    assert unitarity_defect(u) < 1e-12


@PROPERTY_SETTINGS
@given(
    dim=st.integers(2, 40),
    mass=st.floats(0.2, 5.0),
    omega=st.floats(0.2, 5.0),
    amplitude=st.floats(-0.5, 0.5),
    rate=st.sampled_from([0.0, 0.3, 2.0]),
    steps=st.integers(1, 100),
    beta=st.floats(0.05, 5.0),
)
def test_oscillator_parity_selection(dim, mass, omega, amplitude, rate, steps, beta):
    """Tidal driving couples n to n +- 2 only: no amplitude and no work outcome crosses parity."""
    h0 = qho_hamiltonian(mass, omega, dim)
    # f stays above -mass omega^2 / 2, so the driven oscillator never inverts
    f = drive(0.4 * mass * omega ** 2 * amplitude, rate, 1.0)
    u = propagator(AffinePath(h0, x_squared_matrix(mass, omega, dim), f), 0.0, 3.0, steps)
    parity = np.arange(dim) % 2
    assert np.all(u.entries[parity[:, None] != parity[None, :]] == 0.0)
    basis = energy_basis(h0)
    quanta = forward_distribution(basis, basis, u, beta).works / omega
    assert np.all(np.abs(quanta - np.round(quanta)) < 1e-6)
    assert np.all(np.round(quanta) % 2 == 0)


@st.composite
def stacks(draw):
    """A stack of 1-5 paths of one dim (1-8) that share f, real-symmetric or complex-Hermitian,
    with a time window and step count (1-50)."""
    size, dim = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    complex_entries = draw(st.booleans())
    h0, x = ([hermitian(rng, dim, complex_entries).entries for _ in range(size)]
             for _ in range(2))
    f = drive(draw(st.floats(0.0, 5.0)), draw(st.floats(0.0, 10.0)), draw(st.floats(0.0, 6.3)))
    path = AffinePath(HermitianOperator(np.array(h0)), HermitianOperator(np.array(x)), f)
    tau0 = draw(st.floats(-3.0, 3.0))
    return path, tau0, tau0 + draw(st.floats(0.01, 5.0)), draw(st.integers(1, 50))


def members(path):
    """The single paths of a stack of shape (n,)."""
    return [AffinePath(HermitianOperator(a), HermitianOperator(b), path.f)
            for a, b in zip(path.h0.entries, path.x.entries)]


@PROPERTY_SETTINGS
@given(stacks())
def test_stacked_propagator_matches_each_single_path(protocol):
    path, tau0, tau1, steps = protocol
    assert path.sectors is None
    u = propagator(path, tau0, tau1, steps)
    assert u.entries.shape == path.h0.entries.shape and u.dim == path.h0.dim
    assert u.unitarity_defect < 1e-12
    for k, single in enumerate(members(path)):
        np.testing.assert_allclose(u.entries[k], propagator(single, tau0, tau1, steps).entries,
                                   rtol=0, atol=1e-13)


@PROPERTY_SETTINGS
@given(stacks(), st.floats(-3.0, 3.0))
def test_stacked_energy_basis_equals_each_single_basis(protocol, tau):
    path = protocol[0]
    basis = energy_basis(path(tau))
    assert basis.dim == path.h0.dim
    for k, single in enumerate(members(path)):
        alone = energy_basis(single(tau))
        np.testing.assert_array_equal(basis.eigenvalues[k], alone.eigenvalues)
        np.testing.assert_array_equal(basis.eigenvectors[k], alone.eigenvectors)


@PROPERTY_SETTINGS
@given(stacks(), st.data())
def test_stack_with_one_non_hermitian_member_is_an_input_error(protocol, data):
    path, tau0, tau1, steps = protocol
    bad = data.draw(st.integers(0, path.h0.entries.shape[0] - 1))
    h0 = path.h0.entries.copy()
    h0[bad, 0, -1] += 1e-6j if h0.shape[-1] == 1 else 1e-6
    with pytest.raises(InputError, match="not Hermitian"):
        HermitianOperator(h0)
    # x within tolerance, but a large f amplifies one member's deviation past it
    x = path.x.entries.copy()
    x[bad, 0, -1] += 2e-13j if x.shape[-1] == 1 else 2e-13
    amplified = AffinePath(path.h0, HermitianOperator(x), lambda tau: 100.0)
    with pytest.raises(InputError, match="not Hermitian"):
        propagator(amplified, tau0, tau1, steps)


@PROPERTY_SETTINGS
@given(stacks(), st.integers(1, 300))
def test_stacked_taylor_calls_follow_the_whole_stack_bound(protocol, entries):
    path, tau0, tau1, steps = protocol
    calls, eigh_calls = [], []
    taylor_factors, eigh = quantum._taylor_factors, np.linalg.eigh
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quantum, "DENSE_BATCH_ENTRIES", entries)
        mp.setattr(quantum, "_taylor_factors",
                   lambda stack, dt: calls.append(stack) or taylor_factors(stack, dt))
        mp.setattr(np.linalg, "eigh", lambda m: eigh_calls.append(m.shape) or eigh(m))
        u = propagator(path, tau0, tau1, steps)
    per_call = max(1, entries // path.h0.entries.size)
    assert len(calls) == -(-steps // per_call)
    assert all(stack.shape[1:] == path.h0.entries.shape for stack in calls)
    assert sum(stack.shape[0] for stack in calls) == steps
    assert eigh_calls == []
    # a real path's stacks are real, so their polynomials run in real arithmetic
    real = not (np.any(path.h0.entries.imag) or np.any(path.x.entries.imag))
    assert all(np.iscomplexobj(stack) != real for stack in calls)
    assert u.unitarity_defect < 1e-12


@st.composite
def hermitian_stacks(draw):
    """A stack of 1-3 Hermitian matrices of one dim (1-40), real or complex, and a step dt
    that brings the stack's largest ||H dt||_inf to r in [0, 200]; at r = 0 the stack is zero."""
    size, dim = draw(st.integers(1, 3)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = rng.normal(size=(size, dim, dim))
    if draw(st.booleans()):
        m = m + 1j * rng.normal(size=(size, dim, dim))
    h = 0.5 * (m + np.swapaxes(m.conj(), -1, -2))
    r = draw(st.floats(0.0, 200.0))
    if r == 0.0:
        return np.zeros_like(h), draw(st.floats(0.01, 10.0))
    return h, r / float(np.max(np.sum(np.abs(h), axis=-1)))


@PROPERTY_SETTINGS
@given(hermitian_stacks())
def test_taylor_factors_match_eigh_factors(sample):
    h, dt = sample
    norms = []
    taylor_terms = quantum._taylor_terms
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quantum, "_taylor_terms", lambda norm: norms.append(norm) or taylor_terms(norm))
        u = quantum._taylor_factors(h, dt)
    r = float(np.max(np.sum(np.abs(h * dt), axis=-1)))
    assert norms == [r]
    assert u.shape == h.shape and np.iscomplexobj(u)
    # both are exact to a few r eps; at r = 200 the eigh factor itself is off by up to
    # 1.7e-13 from a 40-digit exponential, so the bound grows past 1e-13 beyond r = 50
    np.testing.assert_allclose(u, quantum._exp_factor(*np.linalg.eigh(h), dt),
                               rtol=0, atol=max(1e-13, 2e-15 * r))
    if not np.iscomplexobj(h):
        # the same operations in real and in complex arithmetic up to the squarings,
        # and the same complex squarings after them, each of which doubles a gap
        halvings = taylor_terms(r)[0]
        np.testing.assert_allclose(quantum._taylor_factors(h.astype(complex), dt), u,
                                   rtol=0, atol=1e-15 * 2 ** halvings)


@PROPERTY_SETTINGS
@given(st.floats(0.0, 1e4))
def test_taylor_terms_are_the_fewest_within_node_tol(norm):
    halvings, m = quantum._taylor_terms(norm)
    r = norm / 2 ** halvings
    assert r <= 0.5 and (halvings == 0 or 2 * r > 0.5)
    assert math.exp(r) * r ** (m + 1) / math.factorial(m + 1) <= quantum.NODE_TOL
    assert math.exp(r) * r ** m / math.factorial(m) > quantum.NODE_TOL
