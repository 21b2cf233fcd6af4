"""Property tests of the TPM engine: the vectorised merge and Crooks matching against
plain per-point loops, and the fluctuation relations on degenerate spectra."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvedwork.errors import NumericError
from curvedwork.quantum import (AffinePath, EnergyBasis, HermitianOperator, UnitaryOperator,
                                energy_basis, propagator)
from curvedwork.tpm import (
    P_FLOOR,
    WorkDistribution,
    crooks_check,
    delta_F,
    forward_distribution,
    jarzynski_average,
    mean_work,
    reverse_distribution,
)

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


def merge_loop(works, probs, merge_tol):
    """from_raw's merge as a scan: extend a group while each gap is within merge_tol."""
    works = np.asarray(works, dtype=float).ravel()
    probs = np.asarray(probs, dtype=float).ravel()
    keep = probs > 0.0
    works, probs = works[keep], probs[keep]
    order = np.argsort(works, kind="stable")
    works, probs = works[order], probs[order]
    out_w, out_p = [], []
    i = 0
    while i < works.size:
        j = i + 1
        while j < works.size and works[j] - works[j - 1] <= merge_tol:
            j += 1
        p = float(np.sum(probs[i:j]))
        out_w.append(float(np.sum(works[i:j] * probs[i:j]) / p))
        out_p.append(p)
        i = j
    return np.array(out_w), np.array(out_p)


def crooks_loop(fwd, rev, beta, delta_f, p_floor=P_FLOOR):
    """crooks_check one forward point at a time, nearest of three by a strict < scan."""
    residual, matched = 0.0, 0
    for w, p in zip(fwd.works, fwd.probs):
        if p <= p_floor:
            continue
        idx = np.searchsorted(rev.works, -w)
        best, dist = None, math.inf
        for k in (idx - 1, idx, idx + 1):
            if 0 <= k < rev.works.size and abs(rev.works[k] + w) < dist:
                best, dist = k, abs(rev.works[k] + w)
        if best is None or dist > rev.merge_tol or rev.probs[best] <= p_floor:
            continue
        matched += 1
        residual = max(residual, abs(math.log(p / rev.probs[best]) - beta * (w - delta_f)))
    if matched == 0:
        raise NumericError("no matchable support points")
    return residual


@st.composite
def raw_outcomes(draw):
    """Raw (works, probs, merge_tol) with chains of near-duplicates and exact zeros.

    Each chain steps by at most 0.99 merge_tol, so a chain can span more than
    merge_tol and still be one group.
    """
    merge_tol = draw(st.sampled_from([1e-12, 1e-9, 1e-3]))
    works, weights = [], []
    for _ in range(draw(st.integers(1, 10))):
        w = draw(st.floats(-50.0, 50.0))
        for _ in range(draw(st.integers(1, 6))):
            works.append(w)
            weights.append(draw(st.one_of(st.just(0.0), st.floats(1e-6, 1.0))))
            w += draw(st.floats(0.0, 0.99)) * merge_tol
    weights[draw(st.integers(0, len(weights) - 1))] = 1.0  # some support
    probs = np.array(weights) / np.sum(weights)
    return np.array(works), probs, merge_tol


class TestMergeMatchesLoop:
    @PROPERTY_SETTINGS
    @given(raw_outcomes())
    def test_same_groups_and_values(self, raw):
        works, probs, merge_tol = raw
        dist = WorkDistribution.from_raw(works, probs, merge_tol)
        ref_w, ref_p = merge_loop(works, probs, merge_tol)
        assert dist.works.size == ref_w.size
        np.testing.assert_allclose(dist.probs, ref_p, rtol=1e-14, atol=0)
        np.testing.assert_allclose(dist.works, ref_w, rtol=0,
                                   atol=1e-14 * float(np.max(np.abs(works))))

    @PROPERTY_SETTINGS
    @given(raw_outcomes())
    def test_total_probability_and_mean_preserved(self, raw):
        # relative to the scale of the works, since the mean itself may cancel to ~0
        works, probs, merge_tol = raw
        dist = WorkDistribution.from_raw(works, probs, merge_tol)
        assert abs(float(np.sum(dist.probs)) - float(np.sum(probs))) <= 1e-14
        scale = float(np.sum(np.abs(works) * probs))
        mean = float(np.sum(dist.works * dist.probs))
        assert abs(mean - float(np.sum(works * probs))) <= 1e-14 * scale

    def test_groups_just_over_merge_tol_apart_stay_apart(self):
        # (w p) / p rounds 9.031250000001 down by one ulp, to within 1e-12 of 9.03125
        works = [9.03125, 9.031250000001]
        assert works[1] - works[0] > 1e-12 and (works[1] * 0.89) / 0.89 - works[0] <= 1e-12
        dist = WorkDistribution.from_raw(works, [0.11, 0.89], merge_tol=1e-12)
        np.testing.assert_array_equal(dist.works, works)

    def test_a_chain_wider_than_merge_tol_is_one_group(self):
        dist = WorkDistribution.from_raw([0.0, 0.6, 1.2, 5.0], [0.25] * 4, merge_tol=1.0)
        np.testing.assert_array_equal(dist.works, [0.6, 5.0])
        np.testing.assert_array_equal(dist.probs, [0.75, 0.25])


@st.composite
def distribution_pairs(draw):
    """Forward and reverse distributions whose supports mirror each other in part.

    Each forward point -W gets a reverse point at -W, just inside or just
    outside merge_tol of it, or none; some probabilities fall below P_FLOOR.
    """
    merge_tol = 1e-6
    grid = draw(st.lists(st.integers(-40, 40), min_size=1, max_size=8, unique=True))
    fwd_w = 0.5 * np.array(grid, dtype=float)
    fwd_p = np.array([draw(st.sampled_from([1e-14, 1e-3, 0.2, 1.0])) for _ in grid])
    rev_w, rev_p = [], []
    for w in fwd_w:
        offset = draw(st.sampled_from([None, 0.0, 0.5, -0.9, 3.0, -3.0]))
        if offset is not None:
            rev_w.append(-w + offset * merge_tol)
            rev_p.append(draw(st.sampled_from([1e-14, 1e-3, 0.2, 1.0])))
    rev_w += draw(st.lists(st.floats(-25.0, 25.0), max_size=3))
    rev_p += [0.5] * (len(rev_w) - len(rev_p))
    if not rev_w:
        rev_w, rev_p = [100.0], [1.0]
    fwd = WorkDistribution.from_raw(fwd_w, fwd_p / np.sum(fwd_p), merge_tol)
    rev_p = np.array(rev_p)
    rev = WorkDistribution.from_raw(rev_w, rev_p / np.sum(rev_p), merge_tol)
    return fwd, rev, draw(st.floats(0.1, 5.0)), draw(st.floats(-2.0, 2.0))


class TestCrooksMatchesLoop:
    @PROPERTY_SETTINGS
    @given(distribution_pairs())
    def test_same_residual_or_same_error(self, pair):
        fwd, rev, beta, delta_f = pair
        try:
            expected = crooks_loop(fwd, rev, beta, delta_f)
        except NumericError:
            with pytest.raises(NumericError, match="no matchable support points"):
                crooks_check(fwd, rev, beta, delta_f)
            return
        got = crooks_check(fwd, rev, beta, delta_f)
        assert got == pytest.approx(expected, rel=1e-14, abs=1e-14)

    def test_nothing_matches(self):
        fwd = WorkDistribution(np.array([1.0]), np.array([1.0]), 1e-9)
        rev = WorkDistribution(np.array([5.0]), np.array([1.0]), 1e-9)
        with pytest.raises(NumericError, match="no matchable support points"):
            crooks_check(fwd, rev, 1.0, 0.0)

    def test_matches_below_p_floor_are_skipped(self):
        fwd = WorkDistribution(np.array([-1.0, 1.0]), np.array([1.0 - 1e-13, 1e-13]), 1e-9)
        rev = WorkDistribution(np.array([-1.0, 1.0]), np.array([0.5, 0.5]), 1e-9)
        assert crooks_check(fwd, rev, 1.0, 0.0) == pytest.approx(abs(math.log(2.0) + 1.0))


@st.composite
def degenerate_protocols(draw, dim=None):
    """Real-symmetric endpoints with exactly repeated levels, and a propagator between them.

    h_init repeats a random block along the diagonal, twice or three times unless `dim`
    fixes the size; h_final is a permuted diagonal drawn from a few values.  The
    propagator follows h_init + sin(tau) c.
    """
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    if dim is None:
        block = draw(st.integers(1, 4))
        copies = draw(st.integers(2, 3))
    else:
        block = draw(st.sampled_from([b for b in range(1, dim + 1) if dim % b == 0]))
        copies = dim // block
    m = rng.normal(scale=0.3, size=(block, block))
    h_init = np.kron(np.eye(copies), 0.5 * (m + m.T))
    dim = block * copies
    levels = rng.choice(rng.normal(scale=0.5, size=2), size=dim)
    h_final = np.diag(levels)[np.ix_(*2 * [rng.permutation(dim)])]
    c = rng.normal(scale=0.3, size=(dim, dim))
    path = AffinePath(HermitianOperator(h_init), HermitianOperator(0.5 * (c + c.T)), np.sin)
    u = propagator(path, 0.0, 1.0, 20)
    beta = draw(st.floats(0.1, 5.0))
    return HermitianOperator(h_init), HermitianOperator(h_final), u, beta


class TestFluctuationRelationsOnDegenerateSpectra:
    @PROPERTY_SETTINGS
    @given(degenerate_protocols())
    def test_crooks_and_jarzynski(self, protocol):
        h0, ht, u, beta = protocol
        h0, ht = energy_basis(h0), energy_basis(ht)
        fwd = forward_distribution(h0, ht, u, beta)
        rev = reverse_distribution(h0, ht, u, beta)
        df = delta_F(h0, ht, beta)
        assert crooks_check(fwd, rev, beta, df) < 1e-8
        assert abs(jarzynski_average(fwd, beta) - math.exp(-beta * df)) < 1e-10


@st.composite
def protocol_stacks(draw):
    """1-5 protocols of one dim in 1-8 as stacked endpoint bases, propagators and a beta
    that is a scalar or one per row.

    A row is a degenerate_protocols draw, a flat row whose outcomes all merge into one
    (h_init = h_final = c I), or a diagonal row under U = I, whose off-diagonal outcomes
    have exactly zero probability; so rows differ in support size.
    """
    dim = draw(st.integers(1, 8))
    rows = []
    for kind in draw(st.lists(st.sampled_from(["degenerate", "flat", "diagonal"]),
                              min_size=1, max_size=5)):
        beta = draw(st.floats(0.1, 5.0))
        if kind == "degenerate":
            h_init, h_final, u, beta = draw(degenerate_protocols(dim))
            rows.append((h_init.entries, h_final.entries, u.entries, beta))
        elif kind == "flat":
            c = draw(st.floats(-2.0, 2.0))
            rows.append((c * np.eye(dim), c * np.eye(dim), np.eye(dim), beta))
        else:
            levels = draw(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0]), min_size=dim,
                                   max_size=dim))
            rows.append((np.diag(levels), np.diag(levels[::-1]), np.eye(dim), beta))
    h_init, h_final, u, betas = (np.array(column) for column in zip(*rows))
    beta = betas if draw(st.booleans()) else float(betas[0])
    return (energy_basis(HermitianOperator(h_init)), energy_basis(HermitianOperator(h_final)),
            UnitaryOperator(u), beta)


def stack_row(stack, k):
    """Row k of a protocol_stacks draw, as the single-protocol arguments."""
    b0, bt, u, beta = stack
    return (EnergyBasis(b0.eigenvalues[k], b0.eigenvectors[k]),
            EnergyBasis(bt.eigenvalues[k], bt.eigenvectors[k]),
            UnitaryOperator(u.entries[k]), beta if np.ndim(beta) == 0 else float(beta[k]))


class TestStackEqualsProtocolsOneAtATime:
    @PROPERTY_SETTINGS
    @given(protocol_stacks())
    def test_rows_equal_single_calls(self, stack):
        b0, bt, u, beta = stack
        rows = [stack_row(stack, k) for k in range(u.entries.shape[0])]
        for fn in (forward_distribution, reverse_distribution):
            stacked = fn(b0, bt, u, beta)
            assert len(stacked) == len(rows)
            for dist, row in zip(stacked, rows):
                one = fn(*row)
                np.testing.assert_array_equal(dist.works, one.works)
                np.testing.assert_array_equal(dist.probs, one.probs)
                assert dist.merge_tol == one.merge_tol
        assert delta_F(b0, bt, beta).tolist() == [delta_F(*row[:2], row[3]) for row in rows]
        # the readers: Crooks exactly per row; the segment sums exactly as single calls and
        # within rounding of np.sum's pairwise order
        fwd, rev = (fn(b0, bt, u, beta) for fn in (forward_distribution, reverse_distribution))
        df = delta_F(b0, bt, beta)
        crooks = crooks_check(fwd, rev, beta, df)
        average, mean = jarzynski_average(fwd, beta), mean_work(fwd)
        assert crooks.shape == average.shape == mean.shape == (len(rows),)
        for k, row in enumerate(rows):
            one, one_beta = forward_distribution(*row), row[3]
            one_df = delta_F(*row[:2], one_beta)
            assert crooks[k] == crooks_check(one, reverse_distribution(*row), one_beta, one_df)
            assert average[k] == jarzynski_average(one, one_beta)
            assert mean[k] == mean_work(one)
            assert average[k] == pytest.approx(
                np.sum(one.probs * np.exp(-one_beta * one.works)), rel=1e-14, abs=1e-14)
            assert mean[k] == pytest.approx(np.sum(one.works * one.probs), rel=0, abs=1e-14)

    def test_row_kinds_give_single_outcomes_zeros_and_different_supports(self):
        dim, levels = 3, [-1.0, 0.5, 2.0]
        rng = np.random.default_rng(5)
        m, c = (0.5 * (a + a.T) for a in rng.normal(scale=0.3, size=(2, dim, dim)))
        path = AffinePath(HermitianOperator(m), HermitianOperator(c), np.sin)
        rows = [(m, np.diag(levels), propagator(path, 0.0, 1.0, 20).entries),
                (0.7 * np.eye(dim), 0.7 * np.eye(dim), np.eye(dim)),
                (np.diag(levels), np.diag(levels[::-1]), np.eye(dim))]
        h_init, h_final, u = (np.array(column) for column in zip(*rows))
        stack = (energy_basis(HermitianOperator(h_init)),
                 energy_basis(HermitianOperator(h_final)), UnitaryOperator(u),
                 np.array([0.5, 1.0, 2.0]))
        fwd = forward_distribution(*stack)
        assert [d.works.size for d in fwd] == [9, 1, 3]  # 6 outcomes of the last row are 0
        for k, dist in enumerate(fwd):
            one = forward_distribution(*stack_row(stack, k))
            np.testing.assert_array_equal(dist.works, one.works)
            np.testing.assert_array_equal(dist.probs, one.probs)
