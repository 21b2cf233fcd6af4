"""Structured Hamiltonian paths: their block split, and the propagator against a plain
per-step loop."""

import math

import numpy as np
import pytest

from curvedwork import quantum
from curvedwork.errors import InputError, NumericError
from curvedwork.spacetimes import desitter_frame
from curvedwork.quantum import (
    AffinePath,
    HermitianOperator,
    energy_basis,
    propagator,
    qho_hamiltonian,
    x_squared_matrix,
)

DIMS = (2, 3, 7, 40)
STEPS = (1, 50)


def reference_loop(path, tau0, tau1, steps):
    """The midpoint product one dense eigendecomposition per step."""
    dt = (tau1 - tau0) / steps
    u = np.eye(path.h0.dim, dtype=complex)
    for j in range(steps):
        w, v = np.linalg.eigh(path(tau0 + (j + 0.5) * dt).entries)
        u = ((v * np.exp(-1j * w * dt)) @ v.conj().T) @ u
    return u


def banded_path(seed, dim, f):
    """Random real diagonal h0 and real symmetric x on diagonals 0 and +-2."""
    rng = np.random.default_rng(seed)
    h0 = np.diag(np.sort(rng.uniform(0.0, 3.0, dim)))
    x = np.diag(rng.normal(size=dim))
    off = rng.normal(size=max(dim - 2, 0))
    x += np.diag(off, 2) + np.diag(off, -2)
    return AffinePath(HermitianOperator(h0), HermitianOperator(x), f)


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianOperator(0.25 * (m + m.conj().T))


def rescaled(h, z):
    """The rescaled system z(tau) h as a path with h0 = 0."""
    return AffinePath(HermitianOperator(np.zeros_like(h.entries)), h, z)


def real_non_banded_path(seed, dim):
    """Real symmetric h0 and x with a (0, 1) coupling, which no parity block holds."""
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(2, dim, dim))
    b[0, 1] += 1.0
    return AffinePath(HermitianOperator(0.5 * (a + a.T)), HermitianOperator(0.5 * (b + b.T)),
                      smooth)


def stack_of_one(path):
    """`path` as a stack of one path, shape (1, d, d)."""
    return AffinePath(*(HermitianOperator(m.entries[None]) for m in (path.h0, path.x)), path.f)


def smooth(tau):
    return 0.4 + 0.3 * np.sin(1.7 * tau) - 0.2 * np.cos(0.6 * tau)


def unitarity_defect(u):
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("steps", STEPS)
class TestAgainstReferenceLoop:
    def test_affine_banded(self, dim, steps):
        path = banded_path(dim + steps, dim, smooth)
        assert len(path.blocks) == 2
        u = propagator(path, 0.2, 2.7, steps).entries
        np.testing.assert_allclose(u, reference_loop(path, 0.2, 2.7, steps), rtol=0, atol=1e-12)
        assert unitarity_defect(u) < 1e-12

    def test_affine_constant_f_collapses(self, dim, steps):
        path = banded_path(7 * dim + steps, dim, lambda tau: -0.35)
        u = propagator(path, 0.0, 3.0, steps).entries
        np.testing.assert_allclose(u, reference_loop(path, 0.0, 3.0, steps), rtol=0, atol=1e-11)
        assert unitarity_defect(u) < 1e-12

    def test_scaled(self, dim, steps):
        rng = np.random.default_rng(3 * dim + steps)
        path = rescaled(random_hermitian(rng, dim), lambda tau: 1.0 + 0.3 * np.sin(2.0 * tau))
        u = propagator(path, 0.0, 2.0, steps).entries
        np.testing.assert_allclose(u, reference_loop(path, 0.0, 2.0, steps), rtol=0, atol=1e-12)
        assert unitarity_defect(u) < 1e-12

    def test_real_non_banded(self, dim, steps):
        path = real_non_banded_path(13 * dim + steps, dim)
        assert len(path.blocks) == 1
        u = propagator(path, 0.0, 2.0, steps).entries
        np.testing.assert_allclose(u, reference_loop(path, 0.0, 2.0, steps), rtol=0, atol=1e-12)
        assert unitarity_defect(u) < 1e-12


class TestBlocks:
    def test_odd_distance_x_is_one_block(self):
        path = banded_path(1, 7, smooth)
        x = path.x.entries.copy()
        x[0, 1] = x[1, 0] = 0.1
        path = AffinePath(path.h0, HermitianOperator(x), smooth)
        assert len(path.blocks) == 1
        np.testing.assert_allclose(propagator(path, 0.0, 1.0, 20).entries,
                                   reference_loop(path, 0.0, 1.0, 20), rtol=0, atol=1e-14)

    def test_even_distance_entries_split_into_real_blocks(self):
        # h0 off its diagonal and x at distance 4: parity still never mixes
        path = banded_path(3, 7, smooth)
        h0, x = path.h0.entries.copy(), path.x.entries.copy()
        h0[1, 3] = h0[3, 1] = 0.2
        x[0, 4] = x[4, 0] = -0.3
        path = AffinePath(HermitianOperator(h0), HermitianOperator(x), smooth)
        assert [idx.tolist() for idx, _, _ in path.blocks] == [[0, 2, 4, 6], [1, 3, 5]]
        assert not any(np.iscomplexobj(a) or np.iscomplexobj(b) for _, a, b in path.blocks)
        np.testing.assert_allclose(propagator(path, 0.0, 1.0, 20).entries,
                                   reference_loop(path, 0.0, 1.0, 20), rtol=0, atol=1e-12)

    def test_complex_h0_splits_into_two_complex_blocks(self):
        path = banded_path(2, 7, smooth)
        h0 = path.h0.entries.astype(complex)
        h0[0, 2], h0[2, 0] = 0.1j, -0.1j
        path = AffinePath(HermitianOperator(h0), path.x, smooth)
        assert [np.iscomplexobj(a) for _, a, _ in path.blocks] == [True, True]
        np.testing.assert_allclose(propagator(path, 0.0, 1.0, 20).entries,
                                   reference_loop(path, 0.0, 1.0, 20), rtol=0, atol=1e-14)

    def test_complex_h0_with_real_x_is_one_complex_block(self):
        # numpy promotes h0 + f x to complex: the real x needs no cast of its own
        x = real_non_banded_path(4, 6).x
        path = AffinePath(random_hermitian(np.random.default_rng(4), 6), x, smooth)
        assert x.entries.dtype == np.float64
        [(_, h0, x_block)] = path.blocks
        assert np.iscomplexobj(h0) and not np.iscomplexobj(x_block)
        np.testing.assert_allclose(propagator(path, 0.0, 1.0, 20).entries,
                                   reference_loop(path, 0.0, 1.0, 20), rtol=0, atol=1e-13)

    def test_stack_of_a_banded_path_is_one_block(self):
        path = banded_path(4, 7, smooth)
        stack = stack_of_one(path)
        assert len(stack.blocks) == 1 and stack.blocks[0][1].shape == (1, 7, 7)
        np.testing.assert_allclose(propagator(stack, 0.0, 1.0, 20).entries[0],
                                   propagator(path, 0.0, 1.0, 20).entries, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("stack", [False, True], ids=["dense", "stack"])
    def test_one_block_basis_equals_eigh(self, stack):
        # a matrix whose parities couple, or a stack, is one block: one eigh call, bit for bit
        rng = np.random.default_rng(4)
        entries = random_hermitian(rng, 4).entries + 0.5 * random_hermitian(rng, 4).entries
        if stack:
            entries = np.stack([entries, banded_path(5, 4, smooth).h0.entries])
        h = HermitianOperator(entries)
        assert len(quantum._blocks(h.entries)) == 1
        basis = energy_basis(h)
        w, v = np.linalg.eigh(h.entries)
        np.testing.assert_array_equal(basis.eigenvalues, w)
        np.testing.assert_array_equal(basis.eigenvectors, v)
        if not stack:
            times = np.array([0.0, 0.4, 1.3])
            for m in range(4):
                expected = [((v * np.exp(-1j * w * t)) @ v.conj().T)[:, m] for t in times]
                np.testing.assert_allclose(basis.amplitudes(slice(None), m, times),
                                           np.transpose(expected), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("blocks, wrong", [(1, 0), (2, 0), (2, 1)],
                             ids=["one-block", "even-block", "odd-block"])
    def test_energy_basis_checks_each_solve(self, monkeypatch, blocks, wrong):
        # eigenvector columns reversed against their eigenvalues in solve `wrong`, a wrong basis
        rng = np.random.default_rng(4)
        path = (banded_path(6, 5, smooth) if blocks == 2 else
                AffinePath(random_hermitian(rng, 4), random_hermitian(rng, 4), smooth))
        assert len(path.blocks) == blocks
        eigh, solves = np.linalg.eigh, []

        def reversed_eigh(m):
            w, v = eigh(m)
            solves.append(m.shape)
            return (w, v[..., ::-1]) if len(solves) == wrong + 1 else (w, v)

        monkeypatch.setattr(np.linalg, "eigh", reversed_eigh)
        with pytest.raises(NumericError, match="eigendecomposition reconstruction error"):
            energy_basis(path(0.5))
        assert len(solves) == wrong + 1

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InputError, match="dimension mismatch"):
            AffinePath(qho_hamiltonian(1.0, 1.0, 4), x_squared_matrix(1.0, 1.0, 5), smooth)

    def test_stack_shape_mismatch_rejected(self):
        with pytest.raises(InputError, match="dimension mismatch"):
            AffinePath(HermitianOperator(np.zeros((3, 2, 2))),
                       HermitianOperator(np.zeros((2, 2, 2))), smooth)


class TestParitySelection:
    @pytest.mark.parametrize("f", [smooth, lambda tau: -0.01], ids=["driven", "constant"])
    def test_cross_parity_entries_exactly_zero(self, f):
        dim = 40
        path = AffinePath(qho_hamiltonian(1.0, 1.0, dim), x_squared_matrix(1.0, 1.0, dim), f)
        u = propagator(path, 0.0, 5.0, 50).entries
        parity = np.arange(dim) % 2
        assert np.all(u[parity[:, None] != parity[None, :]] == 0.0)
        assert unitarity_defect(u) < 1e-12

    def test_parity_basis_matches_dense_eigenvalues_and_evolution(self):
        path = banded_path(5, 9, smooth)
        h = HermitianOperator(path.h0.entries + 0.7 * path.x.entries)
        basis = energy_basis(h)
        w, v = np.linalg.eigh(h.entries)
        np.testing.assert_allclose(basis.eigenvalues, w, atol=1e-13)
        times = np.array([0.0, 0.4, 1.3])
        for m in range(9):
            expected = [((v * np.exp(-1j * w * t)) @ v.conj().T)[:, m] for t in times]
            np.testing.assert_allclose(basis.amplitudes(slice(None), m, times),
                                       np.transpose(expected), rtol=0, atol=1e-13)

    def test_parity_basis_is_its_blocks_solved_one_at_a_time(self):
        # per-block eigenpairs bit for bit, merged ascending, each eigenvector exactly zero
        # on the other parity
        path = banded_path(7, 9, smooth)
        h = HermitianOperator(path.h0.entries + 0.7 * path.x.entries)
        basis = energy_basis(h)
        [(even, a), (odd, b)] = quantum._blocks(h.entries)
        (wa, va), (wb, vb) = np.linalg.eigh(a), np.linalg.eigh(b)
        order = np.argsort(np.concatenate((wa, wb)), kind="stable")
        assert np.all(np.diff(basis.eigenvalues) >= 0)
        np.testing.assert_array_equal(basis.eigenvalues, np.concatenate((wa, wb))[order])
        vectors = basis.eigenvectors
        in_even = order < wa.size
        assert np.all(vectors[np.ix_(odd, in_even)] == 0)
        assert np.all(vectors[np.ix_(even, ~in_even)] == 0)
        np.testing.assert_array_equal(vectors[np.ix_(even, in_even)], va)
        np.testing.assert_array_equal(vectors[np.ix_(odd, ~in_even)], vb)


def test_catalog_desitter_collapses_to_one_solve_per_sector(monkeypatch):
    # at 500 steps the dense product's own rounding drifts 1.1e-12 from the collapse
    hubble, dim, duration, steps = 0.3, 40, 5.0, 100
    frame = desitter_frame(hubble)
    path = AffinePath(qho_hamiltonian(1.0, 1.0, dim), x_squared_matrix(1.0, 1.0, dim),
                      lambda tau: 0.5 * frame.at(tau)[1][..., 0, 0])
    solves = count_node_solves(monkeypatch)
    u = propagator(path, 0.0, duration, steps).entries
    assert sum(solves) == 2
    np.testing.assert_allclose(u, reference_loop(path, 0.0, duration, steps), rtol=0, atol=1e-12)


def per_step_block_loop(path, tau0, tau1, steps):
    """The midpoint product with one exp(-i H dt) factor per block and step."""
    dt = (tau1 - tau0) / steps
    u = np.zeros((path.h0.dim, path.h0.dim), dtype=complex)
    for idx, h0, x in path.blocks:
        block = np.eye(idx.size, dtype=complex)
        for j in range(steps):
            w, v = quantum._block_eigh(h0, x, path.f(tau0 + (j + 0.5) * dt))
            block = quantum._exp_factor(w, v, dt) @ block
        u[np.ix_(idx, idx)] = block
    return u


def count_node_solves(monkeypatch):
    """Patch quantum._block_eigh to record the number of f values each call solves at."""
    solves = []
    block_eigh = quantum._block_eigh
    monkeypatch.setattr(quantum, "_block_eigh",
                        lambda h0, x, values: solves.append(np.size(values))
                        or block_eigh(h0, x, values))
    return solves


def bound_node_count(path, tau0, tau1, steps):
    """Node solves the interpolation bound asks for: per block the least m with
    2 (rho/2)^m / m! <= NODE_TOL, rho = dt ||x_block||_inf (max f - min f)/2, at most steps."""
    dt = (tau1 - tau0) / steps
    values = [path.f(tau0 + (j + 0.5) * dt) for j in range(steps)]
    total = 0
    for _, _, x in path.blocks:
        rho = dt * (max(values) - min(values)) / 2 * np.max(np.sum(np.abs(x), axis=1))
        m = 1
        while 2 * (rho / 2) ** m / math.factorial(m) > quantum.NODE_TOL and m < steps:
            m += 1
        total += m
    return total


# A block forms its run's node count m of step factors per product.  347 is prime, so no
# batch divides it and the last one is a part batch.
@pytest.mark.parametrize("dim", (2, 3, 7, 12, 40, 120))
@pytest.mark.parametrize("steps", (2, 3, 50, 347, 500))
def test_chained_eigenbasis_product_matches_per_step_factors(dim, steps, monkeypatch):
    path = banded_path(11 * dim + steps, dim, smooth)
    solves = count_node_solves(monkeypatch)
    u = propagator(path, 0.3, 3.1, steps).entries
    assert sum(solves) == bound_node_count(path, 0.3, 3.1, steps)
    if steps == 500:
        assert sum(solves) < steps
    monkeypatch.undo()
    np.testing.assert_allclose(u, per_step_block_loop(path, 0.3, 3.1, steps), rtol=0, atol=1e-13)
    parity = np.arange(dim) % 2
    assert np.all(u[parity[:, None] != parity[None, :]] == 0.0)
    assert unitarity_defect(u) < 1e-12


def test_wide_f_range_takes_the_midpoints_as_nodes(monkeypatch):
    # f sweeps [-40, 40] in 3 steps: the bound asks for more nodes than there are steps
    dim, steps = 40, 3
    path = banded_path(8, dim, lambda tau: 40.0 * np.sin(tau))
    assert bound_node_count(path, 0.0, 3.0, steps) == 2 * steps
    solves = count_node_solves(monkeypatch)
    u = propagator(path, 0.0, 3.0, steps).entries
    assert solves == [steps, steps]
    monkeypatch.undo()
    np.testing.assert_allclose(u, per_step_block_loop(path, 0.0, 3.0, steps), rtol=0, atol=1e-13)
    assert unitarity_defect(u) < 1e-12


@pytest.mark.parametrize("node_entries", [112, 16], ids=["runs_of_7", "runs_of_1"])
def test_runs_bounded_by_node_entries_match_per_step_factors(node_entries, monkeypatch):
    # f is constant until tau = 1 and then varies, so some runs are one solve each
    monkeypatch.setattr(quantum, "NODE_ENTRIES", node_entries)
    path = banded_path(9, 7, lambda tau: np.where(tau < 1.0, 0.3, 0.3 + np.sin(tau - 1.0)))
    solves = count_node_solves(monkeypatch)
    u = propagator(path, 0.0, 3.0, 50).entries
    # runs of min(NODE_ENTRIES // n**2, isqrt(NODE_ENTRIES)) steps: at 112, 7 steps for the
    # 4-index block and 10 for the 3-index one; at 16, one step each
    assert 1 in solves and max(solves) <= (10 if node_entries == 112 else 1)
    monkeypatch.undo()
    np.testing.assert_allclose(u, per_step_block_loop(path, 0.0, 3.0, 50), rtol=0, atol=1e-13)
    assert unitarity_defect(u) < 1e-12


def test_factor_batches_across_a_node_entries_run_match_per_step_factors(monkeypatch):
    # runs of NODE_ENTRIES // 60^2 = 291 steps on the 60-index blocks: 347 steps take a
    # run of 291 and one of 56, each in batches of its own node count
    monkeypatch.setattr(quantum, "NODE_ENTRIES", 2 ** 20)
    path = banded_path(7, 120, smooth)
    solves = count_node_solves(monkeypatch)
    u = propagator(path, 0.3, 3.1, 347).entries
    assert len(solves) == 4 and all(1 < m < 56 for m in solves)
    monkeypatch.undo()
    np.testing.assert_allclose(u, per_step_block_loop(path, 0.3, 3.1, 347), rtol=0, atol=1e-13)
    assert unitarity_defect(u) < 1e-12


class TestNonFiniteCoefficient:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_affine(self, bad):
        path = banded_path(6, 7, lambda tau: np.where(tau > 0.5, bad, 0.1))
        with pytest.raises(InputError, match="non-finite"):
            propagator(path, 0.0, 1.0, 10)

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_scaled(self, bad):
        path = rescaled(qho_hamiltonian(1.0, 1.0, 3), lambda tau: np.where(tau > 0.5, bad, 1.0))
        with pytest.raises(InputError, match="non-finite"):
            propagator(path, 0.0, 1.0, 10)


def dense_path(dim, seed):
    """H(tau) = a + sin(1.3 tau) b with complex Hermitian a, b."""
    rng = np.random.default_rng(seed)
    return AffinePath(random_hermitian(rng, dim), random_hermitian(rng, dim),
                      lambda tau: np.sin(1.3 * tau))


@pytest.mark.parametrize("dim", (2, 6, 40))
@pytest.mark.parametrize("steps", (1, 40))
@pytest.mark.parametrize("per_batch", [None, 3], ids=["default_batch", "three_per_batch"])
def test_batched_dense_product_matches_reference_loop(dim, steps, per_batch, monkeypatch):
    if per_batch is not None:
        monkeypatch.setattr(quantum, "NODE_ENTRIES", per_batch * dim * dim)
    path = dense_path(dim, 10 * dim + steps)
    u = propagator(path, 0.1, 2.3, steps).entries
    np.testing.assert_allclose(u, reference_loop(path, 0.1, 2.3, steps), rtol=0, atol=1e-14)


@pytest.mark.parametrize("kind, blocks", [
    ("zero_h0", [4, 3]), ("banded", [4, 3]), ("dense", [7]), ("complex", [7])],
    ids=["zero_h0", "banded", "dense", "complex"])
def test_solver_follows_structure(kind, blocks, monkeypatch):
    # a real path with no odd-distance entry is its even and odd blocks, any other one block
    dim = 7
    path = {"zero_h0": rescaled(banded_path(1, dim, smooth).x, smooth),
            "banded": banded_path(2, dim, smooth),
            "dense": real_non_banded_path(3, dim),
            "complex": dense_path(dim, 4)}[kind]
    taken = []
    block_product = quantum._block_product
    monkeypatch.setattr(quantum, "_block_product", lambda h0, x, values, dt: taken.append(
        (x.shape[-1], np.iscomplexobj(x))) or block_product(h0, x, values, dt))
    u = propagator(path, 0.0, 1.5, 30).entries
    assert taken == [(n, kind == "complex") for n in blocks]
    np.testing.assert_allclose(u, reference_loop(path, 0.0, 1.5, 30), rtol=0, atol=1e-12)


STEPS_IN_BATCHES_OF_TWO = 9
BAD_STEPS = (0, 1, 2, 5, 8)


@pytest.fixture
def two_per_batch(monkeypatch):
    """Two 3x3 step factors per product, so a bad step can sit anywhere in a batch."""
    monkeypatch.setattr(quantum, "NODE_ENTRIES", 2 * 3 * 3)


@pytest.mark.usefixtures("two_per_batch")
@pytest.mark.parametrize("bad_step", BAD_STEPS)
class TestBadMidpointAtAnyBatchPosition:
    def run(self, path):
        propagator(path, 0.0, 1.0, STEPS_IN_BATCHES_OF_TWO)

    def is_bad(self, bad_step):
        """Whether tau is the midpoint of step `bad_step` of the run over [0, 1]."""
        dt = 1.0 / STEPS_IN_BATCHES_OF_TWO
        return lambda tau: np.round(tau / dt - 0.5) == bad_step

    def test_non_hermitian_affine_midpoint(self, bad_step):
        # x is Hermitian within tolerance, but a large f amplifies its deviation past it
        is_bad = self.is_bad(bad_step)
        rng = np.random.default_rng(bad_step)
        x = random_hermitian(rng, 3).entries.copy()
        x[0, 1] += 5e-13
        path = AffinePath(random_hermitian(rng, 3), HermitianOperator(x),
                          lambda tau: np.where(is_bad(tau), 100.0, 0.5))
        assert len(path.blocks) == 1
        with pytest.raises(InputError, match="not Hermitian"):
            self.run(path)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_affine_coefficient(self, bad_step, bad):
        is_bad = self.is_bad(bad_step)
        rng = np.random.default_rng(bad_step)
        path = AffinePath(random_hermitian(rng, 3), random_hermitian(rng, 3),
                          lambda tau: np.where(is_bad(tau), bad, 0.5))
        with pytest.raises(InputError, match="non-finite"):
            self.run(path)

    @pytest.mark.parametrize("kind", ["zero_h0", "banded"])
    def test_non_finite_coefficient_on_structured_paths(self, bad_step, kind):
        # f is checked once at the midpoints, before any solver is chosen
        is_bad = self.is_bad(bad_step)

        def f(tau):
            return np.where(is_bad(tau), math.nan, 0.5)

        banded = banded_path(bad_step, 3, f)
        path = rescaled(banded.x, f) if kind == "zero_h0" else banded
        with pytest.raises(InputError, match="non-finite"):
            self.run(path)
