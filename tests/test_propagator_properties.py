"""Property tests of the propagator: unitarity of every solver the path shape selects,
and parity selection in the curvature-driven oscillator."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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
    return lambda tau: amplitude * math.sin(rate * tau + phase)


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
