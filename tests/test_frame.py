"""Fermi-frame geometry: frame tables, metric expansion, redshift, time dilation."""

import dataclasses
import math

import numpy as np
import pytest

from curvedwork import frame as frame_module
from curvedwork.errors import DomainError, GeometryError, InputError
from curvedwork.frame import (
    FrameData,
    FramePoint,
    metric_components,
    redshift_exact,
    redshift_weakfield,
    time_dilation,
    validate_frame,
)
from curvedwork.spacetimes import desitter_frame, flat_frame, uniform_gravity_frame


def point(x, tau=0.0):
    return FramePoint(tau=tau, x=np.asarray(x, dtype=float))


def one_row(**rows):
    """A one-row frame: the given rows, zeros elsewhere."""
    zeros = {"accel": np.zeros(3), "riemann_titj": np.zeros((3, 3)),
             "riemann_tjik": np.zeros((3, 3, 3)), "riemann_ikjl": np.zeros((3, 3, 3, 3))}
    return FrameData(tau=[0.0], **{k: [rows.get(k, v)] for k, v in zeros.items()})


class TestFrameData:
    @pytest.mark.parametrize("rows", [1, 2, 9])
    def test_at_matches_np_interp(self, rows):
        rng = np.random.default_rng(rows)
        taus = np.sort(rng.uniform(-1.0, 2.0, rows))
        tables = [rng.normal(size=(rows, *(3,) * k)) for k in (1, 2, 3, 4)]
        frame = FrameData(taus, *tables)
        probes = [*taus, *rng.uniform(-1.5, 2.5, 40), -math.inf, math.inf]
        for tau in probes:
            for got, table in zip(frame.at(tau), tables):
                flat = table.reshape(rows, -1)
                expected = [np.interp(tau, taus, flat[:, k]) for k in range(flat.shape[1])]
                np.testing.assert_array_equal(got.ravel(), expected)
        # the frame holds read-only copies: neither its caller nor a reader can change it
        expected = tables[1][0, 0, 0]
        tables[1][0, 0, 0] = 98.0
        with pytest.raises(ValueError):
            frame.at(taus[0])[1][0, 0] = 99.0
        assert frame.at(taus[0])[1][0, 0] == expected

    @pytest.mark.parametrize("case", ["empty", "not_increasing", "row_shape", "nan_entry",
                                      "at_nan"])
    def test_malformed_frame_rejected(self, case):
        zeros = [np.zeros((2, *(3,) * k)) for k in (1, 2, 3, 4)]
        with pytest.raises(InputError):
            if case == "empty":
                FrameData([], *(z[:0] for z in zeros))
            elif case == "not_increasing":
                FrameData([1.0, 1.0], *zeros)
            elif case == "row_shape":
                FrameData([0.0, 1.0], zeros[0], zeros[1], zeros[2], np.zeros((2, 3, 3, 3)))
            elif case == "nan_entry":
                FrameData([0.0, 1.0], zeros[0], np.full((2, 3, 3), np.nan), *zeros[2:])
            else:
                FrameData([0.0, 1.0], *zeros).at(math.nan)


class TestMetricComponents:
    def test_flat_frame_is_exact_minkowski(self):
        m = metric_components(flat_frame(), point([0.3, -0.2, 0.1]))
        assert m.g_tt == -1.0
        assert np.all(m.g_ti == 0.0)
        assert np.array_equal(m.g_ij, np.eye(3))

    def test_uniform_gravity_gtt(self):
        g = 0.04
        m = metric_components(uniform_gravity_frame(g), point([0.5, 0.0, 0.0]))
        assert m.g_tt == pytest.approx(-((1 + g * 0.5) ** 2), abs=1e-15)
        # agrees with the weak-field form -(1 + 2gx) at linear order
        assert abs(m.g_tt - (-(1 + 2 * g * 0.5))) < 2 * (g * 0.5) ** 2

    def test_desitter_gtt(self):
        hubble = 0.25
        for r in (0.2, 0.7):
            m = metric_components(desitter_frame(hubble), point([0.0, r, 0.0], tau=1.3))
            assert m.g_tt == pytest.approx(-(1 - hubble**2 * r**2), abs=1e-14)

    def test_desitter_spatial_block(self):
        hubble = 0.3
        x = np.array([0.3, -0.2, 0.4])
        m = metric_components(desitter_frame(hubble), point(x))
        r2 = x @ x
        expected = np.eye(3) - hubble**2 * (r2 * np.eye(3) - np.outer(x, x)) / 3.0
        np.testing.assert_allclose(m.g_ij, expected, atol=1e-14)

    def test_expansion_bound_enforced(self):
        frame = uniform_gravity_frame(1.0)
        with pytest.raises(DomainError):
            metric_components(frame, point([0.5, 0.0, 0.0]))  # |a.x| = 0.5 > 0.1

    def test_nonfinite_tensor_rejected(self):
        with pytest.raises(InputError):
            one_row(accel=np.array([np.nan, 0.0, 0.0]))

    def test_degenerate_spatial_block_rejected(self, monkeypatch):
        # large curvature drives g_ij out of positive definiteness; the expansion
        # bound is raised so that the positive-definiteness check is what fires
        monkeypatch.setattr(frame_module, "VALIDITY_BOUND", 10.0)
        frame = one_row(riemann_ikjl=desitter_frame(2.0).riemann_ikjl[0])
        with pytest.raises(GeometryError):
            metric_components(frame, point([1.0, 1.0, 0.0]))


class TestRedshift:
    def test_flat(self):
        m = metric_components(flat_frame(), point([0.1, 0.2, 0.3]))
        assert redshift_exact(m) == 1.0
        assert redshift_weakfield(flat_frame(), point([0.1, 0.2, 0.3])) == 1.0

    def test_uniform_gravity(self):
        g, x = 0.06, 0.8
        frame = uniform_gravity_frame(g)
        m = metric_components(frame, point([x, 0.0, 0.0]))
        assert redshift_exact(m) == pytest.approx(1 + g * x, abs=1e-14)
        assert redshift_weakfield(frame, point([x, 0.0, 0.0])) == pytest.approx(
            1 + g * x, abs=1e-15
        )

    def test_desitter(self):
        hubble, r = 0.3, 0.6
        m = metric_components(desitter_frame(hubble), point([r, 0.0, 0.0]))
        assert redshift_exact(m) == pytest.approx(math.sqrt(1 - hubble**2 * r**2), abs=1e-14)

    def test_weakfield_convergence_order(self):
        # frame with both acceleration and curvature; the difference between
        # the exact and expanded redshift must vanish at least quadratically
        ds = desitter_frame(0.4)
        frame = dataclasses.replace(ds, accel=[[0.2, 0.1, 0.0]])
        direction = np.array([0.6, -0.5, 0.4])
        direction /= np.linalg.norm(direction)
        radii = 0.2 * 0.5 ** np.arange(6)
        diffs = [
            abs(
                redshift_exact(metric_components(frame, point(r * direction)))
                - redshift_weakfield(frame, point(r * direction))
            )
            for r in radii
        ]
        slope = np.polyfit(np.log(radii), np.log(diffs), 1)[0]
        assert slope >= 2.0


class TestTimeDilation:
    def test_flat_at_rest(self):
        assert time_dilation(flat_frame(), point([0.0, 0.0, 0.0]), [0, 0, 0], 1.0) == 1.0

    def test_flat_kinetic_only(self):
        p = np.array([0.02, -0.01, 0.03])
        mass = 2.5
        z = time_dilation(flat_frame(), point([0.4, 0.0, 0.0]), p, mass)
        assert z == 1.0 - (p @ p) / (2 * mass**2)

    def test_uniform_gravity_at_rest(self):
        g, x = 0.08, 0.9
        z = time_dilation(uniform_gravity_frame(g), point([x, 0.0, 0.0]), [0, 0, 0], 1.0)
        assert z == pytest.approx(1 + g * x, abs=1e-15)

    def test_linearity_in_each_term(self):
        # closed form vs finite-difference slopes in a.x, the tidal term and p^2
        hubble = 0.2
        ds = desitter_frame(hubble)
        mass = 1.5

        def make(accel_x):
            return dataclasses.replace(ds, accel=[[accel_x, 0.0, 0.0]])

        x = np.array([0.3, 0.0, 0.0])
        h = 1e-6
        da = (
            time_dilation(make(0.1 + h), point(x), [0, 0, 0], mass)
            - time_dilation(make(0.1 - h), point(x), [0, 0, 0], mass)
        ) / (2 * h)
        assert da == pytest.approx(x[0], rel=1e-8)
        p = 0.05
        dp2 = (
            time_dilation(make(0.1), point(x), [p + h, 0, 0], mass)
            - time_dilation(make(0.1), point(x), [p - h, 0, 0], mass)
        ) / (2 * h)
        assert dp2 == pytest.approx(-p / mass**2, rel=1e-6)

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(InputError):
            time_dilation(flat_frame(), point([0, 0, 0]), [0, 0, 0], 0.0)
        with pytest.raises(InputError):
            time_dilation(flat_frame(), point([0, 0, 0]), [0, 0, 0], -1.0)

    def test_validity_bound_enforced(self):
        # the same guard as metric_components and redshift_weakfield
        with pytest.raises(DomainError, match=r"\|a\.x\|"):
            time_dilation(uniform_gravity_frame(1e6), point([0.5, 0.0, 0.0]), [0, 0, 0], 1.0)
        with pytest.raises(DomainError, match=r"\|R\| r\^2"):
            time_dilation(desitter_frame(1.0), point([0.0, 0.5, 0.0]), [0, 0, 0], 1.0)


ENTRY_POINTS = {
    "metric_components": lambda frame, pt, p, mass: metric_components(frame, pt),
    "redshift_weakfield": lambda frame, pt, p, mass: redshift_weakfield(frame, pt),
    "time_dilation": time_dilation,
}
ORIGIN, REST = [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]
NON_FINITE_CASES = [
    *[pytest.param(entry, [bad, 0.0, 0.0], REST, 1.0, id=f"{entry}-x_{bad}")
      for entry in ENTRY_POINTS for bad in (math.nan, math.inf)],
    *[pytest.param("time_dilation", ORIGIN, [0.0, bad, 0.0], 1.0, id=f"time_dilation-p_{bad}")
      for bad in (math.nan, -math.inf)],
    *[pytest.param("time_dilation", ORIGIN, REST, bad, id=f"time_dilation-mass_{bad}")
      for bad in (math.nan, math.inf)],
]


@pytest.mark.parametrize("entry, x, p, mass", NON_FINITE_CASES)
def test_non_finite_point_momentum_or_mass_rejected(entry, x, p, mass):
    with pytest.raises(InputError, match="finite"):
        ENTRY_POINTS[entry](flat_frame(), FramePoint(tau=0.0, x=x), p, mass)


class TestValidateFrame:
    def test_flat_frame_passes_exactly(self):
        result = validate_frame(flat_frame())
        assert result.passed
        assert max(result.violations.values()) == 0.0

    def test_desitter_frame_passes(self):
        result = validate_frame(desitter_frame(0.5))
        assert result.passed

    def test_asymmetric_titj_reported(self):
        bad = np.zeros((3, 3))
        bad[0, 1] = 1e-3
        result = validate_frame(one_row(riemann_titj=bad))
        assert not result.passed
        assert result.violations["titj_symmetric"] == pytest.approx(1e-3)
