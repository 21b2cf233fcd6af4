"""Property tests of the propagator: unitarity of every path shape, the node rule of the
block product on parity blocks and on stacks, the one block of a path with odd-distance
entries or of a stack against per-step eigendecompositions, parity selection in the
curvature-driven oscillator, and stacks of paths against their single paths."""

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
        assert len(path.blocks) == 2
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
    block_eigh = quantum._block_eigh
    quantum._block_eigh = lambda h0, x, values: (solves.append(np.size(values))
                                                 or block_eigh(h0, x, values))
    try:
        u = propagator(path, 0.0, duration, steps).entries
    finally:
        quantum._block_eigh = block_eigh
    # per block the least m with 2 (rho/2)^m / m! <= NODE_TOL, at most the step count
    dt = duration / steps
    spread = dt * abs(path.f((steps - 0.5) * dt) - path.f(0.5 * dt)) / 2
    expected = []
    for _, _, x in path.blocks:
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
    assert len(path.blocks) == 1
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
    h0 = path.h0.entries.astype(complex)
    h0[bad, 0, -1] += 1e-6j if h0.shape[-1] == 1 else 1e-6
    with pytest.raises(InputError, match="not Hermitian"):
        HermitianOperator(h0)
    # x within tolerance, but a large f amplifies one member's deviation past it
    x = path.x.entries.astype(complex)
    x[bad, 0, -1] += 2e-13j if x.shape[-1] == 1 else 2e-13
    amplified = AffinePath(path.h0, HermitianOperator(x), lambda tau: 100.0)
    with pytest.raises(InputError, match="not Hermitian"):
        propagator(amplified, tau0, tau1, steps)


def node_count(rho, run):
    """The least m with 2 (rho/2)^m / m! <= NODE_TOL, at most the run's length."""
    m = 1
    while 2 * (rho / 2) ** m / math.factorial(m) > quantum.NODE_TOL and m < run:
        m += 1
    return m


@PROPERTY_SETTINGS
@given(stacks(), st.integers(1, 2000))
def test_stacked_node_solves_are_one_eigh_call_per_run(protocol, entries):
    # NODE_ENTRIES cuts the steps into runs; each run solves its m nodes in one call on the
    # (m, n, d, d) stack, or the whole stack once where f is equal over the run
    path, tau0, tau1, steps = protocol
    calls, eigh = [], np.linalg.eigh
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quantum, "NODE_ENTRIES", entries)
        mp.setattr(np.linalg, "eigh", lambda m: calls.append(m.shape) or eigh(m))
        u = propagator(path, tau0, tau1, steps)
    shape, dt = path.x.entries.shape, (tau1 - tau0) / steps
    values = np.broadcast_to(path.f(tau0 + (np.arange(steps) + 0.5) * dt), steps)
    run = max(1, min(entries // path.x.entries.size, math.isqrt(entries)))
    norm = float(np.max(np.sum(np.abs(path.x.entries), axis=-1)))
    expected = []
    for start in range(0, steps, run):
        lo, hi = float(values[start:start + run].min()), float(values[start:start + run].max())
        size = values[start:start + run].size
        expected.append(shape if lo == hi else (node_count(dt * (hi - lo) / 2 * norm, size),
                                                *shape))
    assert calls == expected
    assert u.unitarity_defect < 1e-12


@st.composite
def scaled_paths(draw):
    """A non-banded real path, a complex Hermitian path or a stack of 1-3 paths of either
    kind, of dim 2-40, with a window and 1-30 steps, scaled so that the largest
    r = ||H_j dt||_inf over the midpoint Hamiltonians H_j is a draw in [0.01, 200]."""
    kind = draw(st.sampled_from(["real", "complex", "stack"]))
    dim = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    complex_entries = kind == "complex" or (kind == "stack" and draw(st.booleans()))
    stack = (draw(st.integers(1, 3)),) if kind == "stack" else ()
    h0, x = (np.reshape([hermitian(rng, dim, complex_entries).entries
                         for _ in range(math.prod(stack))], (*stack, dim, dim))
             for _ in range(2))
    f = drive(draw(st.floats(0.0, 5.0)), draw(st.floats(0.0, 10.0)), draw(st.floats(0.0, 6.3)))
    tau0 = draw(st.floats(-3.0, 3.0))
    tau1, steps = tau0 + draw(st.floats(0.01, 5.0)), draw(st.integers(1, 30))
    dt = (tau1 - tau0) / steps
    values = np.broadcast_to(f(tau0 + (np.arange(steps) + 0.5) * dt), steps)
    r0 = max(float(np.max(np.sum(np.abs((h0 + v * x) * dt), axis=-1))) for v in values)
    scale = draw(st.floats(0.01, 200.0)) / r0
    path = AffinePath(HermitianOperator(scale * h0), HermitianOperator(scale * x), f)
    assert len(path.blocks) == 1
    return path, tau0, tau1, steps


@PROPERTY_SETTINGS
@given(scaled_paths())
def test_one_block_matches_per_step_eigh_factors(protocol):
    path, tau0, tau1, steps = protocol
    u = propagator(path, tau0, tau1, steps).entries
    dt = (tau1 - tau0) / steps
    expected = np.broadcast_to(np.eye(path.h0.dim, dtype=complex), u.shape)
    for v in np.broadcast_to(path.f(tau0 + (np.arange(steps) + 0.5) * dt), steps):
        h = path.h0.entries + v * path.x.entries
        expected = quantum._exp_factor(*np.linalg.eigh(h), dt) @ expected
    np.testing.assert_allclose(u, expected, rtol=0, atol=1e-12)
