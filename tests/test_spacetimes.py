"""Catalog frames."""

import itertools

import numpy as np
import pytest

from curvedwork.errors import InputError
from curvedwork.frame import FramePoint, metric_components, redshift_weakfield, validate_frame
from curvedwork.spacetimes import desitter_frame, flat_frame, uniform_gravity_frame


class TestCatalogFrames:
    def test_flat_frame_zero_everywhere(self):
        frame = flat_frame()
        assert np.all(frame.at(2.0)[0] == 0)
        assert np.all(frame.at(-1.0)[3] == 0)
        assert redshift_weakfield(frame, FramePoint(tau=0.0, x=np.array([0.1, 0.2, 0.0]))) == 1.0

    def test_uniform_gravity_zero_g_is_flat(self):
        frame = uniform_gravity_frame(0.0)
        assert np.all(frame.at(0.0)[0] == 0)
        m = metric_components(frame, FramePoint(tau=0.0, x=np.array([0.3, 0.0, 0.0])))
        assert m.g_tt == -1.0

    def test_desitter_curvature_components(self):
        hubble = 0.35
        frame = desitter_frame(hubble)
        pair = np.zeros((3, 3, 3, 3))
        for i, k, j, l in itertools.product(range(3), repeat=4):
            pair[i, k, j, l] = (i == j) * (k == l) - (i == l) * (k == j)
        for tau in (0.0, 1.2):
            _, r_titj, _, r_ikjl = frame.at(tau)
            np.testing.assert_allclose(r_titj, -(hubble**2) * np.eye(3), atol=1e-15)
            # R_ikjl = H^2 (d_ij d_kl - d_il d_kj), indexed [i, k, j, l]
            np.testing.assert_allclose(r_ikjl, hubble**2 * pair, atol=1e-15)
        assert np.trace(frame.at(0.0)[1]) == pytest.approx(-3 * hubble**2)

    @pytest.mark.parametrize("hubble", [0.01, 0.123, 0.3])
    def test_desitter_curvature_exact_at_every_tau(self, hubble):
        # the propagator's constant-f collapse needs one exact value along the run
        frame = desitter_frame(hubble)
        taus = (np.arange(500) + 0.5) * 0.01
        assert {frame.at(t)[1][0, 0] for t in taus} == {-(hubble * hubble)}
        assert {frame.at(t)[3][0, 1, 0, 1] for t in taus} == {hubble * hubble}

    def test_desitter_requires_positive_hubble(self):
        with pytest.raises(InputError):
            desitter_frame(0.0)

    def test_hubble_to_zero_limit_is_flat(self):
        frame = desitter_frame(1e-9)
        assert np.max(np.abs(frame.at(0.0)[1])) < 1e-17
        assert np.max(np.abs(frame.at(0.0)[3])) < 1e-17

    def test_catalog_frames_pass_validation(self):
        for frame in (flat_frame(), uniform_gravity_frame(0.2), desitter_frame(0.5)):
            assert frame.tau.shape == (1,)
            assert max(validate_frame(frame).values()) == 0.0
