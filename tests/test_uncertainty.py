"""Normalized uncertainty metric tests."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aerosurvey import estimator, uncertainty
from aerosurvey.channel import ChannelParams, Transmitter
from aerosurvey.spatial import GridSpec
import oracles

# Probabilities on both sides of the degenerate cases: exactly 0 or 1, or inside (0, 1).
probabilities = st.one_of(
    st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
)


def make_params(**kw):
    defaults = dict(
        transmitters=(Transmitter(position=(15.0, 15.0, 10.0), power_dbm=10.0),),
        shadow_var=9.0,
        fading_var=0.0,
        noise_var=0.25,
    )
    defaults.update(kw)
    return ChannelParams(**defaults)


class TestPowerUncertainty:
    def test_fresh_prior_is_all_ones(self):
        g = GridSpec(rows=4, cols=4, spacing=10.0, altitude=20.0)
        p = make_params()
        u = uncertainty.power_uncertainty(estimator.SurveyPosterior.from_grid(g, p).var, p)
        np.testing.assert_allclose(u, 1.0)

    def test_half_variance_gives_half(self):
        p = make_params()
        u = uncertainty.power_uncertainty(np.array([4.5]), p)
        assert u[0] == pytest.approx(0.5)

    def test_conditioned_coordinate_near_zero(self):
        g = GridSpec(rows=4, cols=4, spacing=10.0, altitude=20.0)
        p = make_params(noise_var=1e-9)
        posterior = estimator.SurveyPosterior.from_grid(g, p)
        from aerosurvey import channel, spatial

        posterior.condition(channel.interpolation_taps(g, spatial.grid_points(g)[5]), [-60.0])
        u = uncertainty.power_uncertainty(posterior.var, p)
        assert u[5] == pytest.approx(0.0, abs=1e-6)

    def test_zero_prior_variance_gives_zeros(self):
        # A map known exactly has nothing uncertain, whatever ``var`` holds.
        p = make_params(shadow_var=0.0, fading_var=0.0)
        u = uncertainty.power_uncertainty(np.array([0.0, 2.0, 0.0]), p)
        np.testing.assert_array_equal(u, np.zeros(3))


class TestServiceUncertainty:
    def test_half_probability_is_one_bit(self):
        u = uncertainty.service_uncertainty(np.array([0.5]))
        assert u[0] == pytest.approx(1.0)

    def test_certain_points_are_zero(self):
        u = uncertainty.service_uncertainty(np.array([0.0, 1.0]))
        np.testing.assert_array_equal(u, [0.0, 0.0])

    def test_certain_points_are_positive_zero(self):
        # Written maps print these cells as 0, never -0.
        assert not np.signbit(uncertainty.service_uncertainty([0.0, 1.0])).any()

    def test_quarter_probability(self):
        u = uncertainty.service_uncertainty(np.array([0.25]))
        assert u[0] == pytest.approx(0.8112781244591328, rel=1e-12)

    def test_rejects_out_of_range(self):
        for bad in (1.2, -0.1, np.nan, np.inf, -np.inf):
            for p in ([bad], [0.5, bad, 0.25]):
                with pytest.raises(ValueError):
                    uncertainty.service_uncertainty(np.array(p))

    def test_empty_gives_empty(self):
        u = uncertainty.service_uncertainty(np.array([]))
        assert isinstance(u, np.ndarray) and u.shape == (0,)

    @given(
        p=arrays(float, st.tuples(st.integers(1, 3), st.integers(1, 30)), elements=probabilities),
        mode=st.sampled_from(["max", "mean"]),
    )
    def test_matches_oracle_through_the_totals(self, p, mode):
        # Equal by value: the oracle's certain points are -0.0, these +0.0.
        got = uncertainty.service_uncertainty(p)
        want = oracles.service_uncertainty(p)
        np.testing.assert_array_equal(got, want)
        got_total = uncertainty.total_uncertainty(uncertainty.aggregate(got, mode))
        assert got_total == oracles.total_uncertainty(uncertainty.aggregate(want, mode))

    @given(
        p=arrays(
            float,
            st.integers(1, 30),
            elements=st.floats(0.0, 1.0),
        )
    )
    def test_symmetric_and_bounded(self, p):
        a = uncertainty.service_uncertainty(p)
        b = uncertainty.service_uncertainty(1.0 - p)
        np.testing.assert_allclose(a, b, atol=1e-12)
        assert np.all(a >= 0.0) and np.all(a <= 1.0)


class TestAggregate:
    def test_single_field_identity(self):
        f = np.array([0.2, 0.7])
        for field in (f, f[None]):
            got = uncertainty.aggregate(field, "max")
            np.testing.assert_array_equal(got, f)

    def test_max_elementwise(self):
        f = np.array([[0.2, 0.9], [0.5, 0.1]])
        got = uncertainty.aggregate(f, "max")
        np.testing.assert_allclose(got, [0.5, 0.9])

    def test_mean_elementwise(self):
        f = np.array([[0.2, 0.9], [0.5, 0.1]])
        got = uncertainty.aggregate(f, "mean")
        np.testing.assert_allclose(got, [0.35, 0.5])

    def test_rejects_empty_field(self):
        with pytest.raises(ValueError):
            uncertainty.aggregate(np.empty((0, 3)), "max")

    def test_stacked_field_equals_its_rows(self):
        # Row-by-row reductions are the reference for the stacked (K, N) field.
        values = np.array([[0.2, 0.9, 0.4], [0.5, 0.1, 0.4], [0.3, 0.3, 0.8]])
        got_max = uncertainty.aggregate(values, "max")
        got_mean = uncertainty.aggregate(values, "mean")
        np.testing.assert_array_equal(got_max, np.maximum(np.maximum(values[0], values[1]), values[2]))
        np.testing.assert_allclose(got_mean, (values[0] + values[1] + values[2]) / 3, rtol=0, atol=1e-15)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            uncertainty.aggregate(np.array([0.2]), "median")

    @given(
        vals=st.lists(
            st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)),
            min_size=2,
            max_size=5,
        )
    )
    def test_max_dominates_mean(self, vals):
        field = np.array(vals)
        hi = uncertainty.aggregate(field, "max")
        avg = uncertainty.aggregate(field, "mean")
        assert np.all(hi >= avg - 1e-12)


class TestTotalUncertainty:
    def test_all_ones(self):
        assert uncertainty.total_uncertainty(np.ones(5)) == 1.0

    def test_all_zeros(self):
        assert uncertainty.total_uncertainty(np.zeros(5)) == 0.0

    def test_known_mean(self):
        f = np.array([1.0, 0.0, 0.5, 0.5])
        assert uncertainty.total_uncertainty(f) == pytest.approx(0.5)

    def test_rejects_empty_field(self):
        with pytest.raises(ValueError):
            uncertainty.total_uncertainty(np.array([]))

    @given(
        field=arrays(
            float, st.tuples(st.integers(1, 3), st.integers(1, 200)), elements=st.floats(0.0, 1.0)
        )
    )
    def test_matches_oracle(self, field):
        for f in (field, field[0]):
            got = uncertainty.total_uncertainty(f)
            assert type(got) is float and got == oracles.total_uncertainty(f)

    def test_monotone_in_components(self):
        base = np.array([0.1, 0.4, 0.7])
        lo = uncertainty.total_uncertainty(base)
        raised = base.copy()
        raised[1] += 0.2
        hi = uncertainty.total_uncertainty(raised)
        assert hi > lo


class TestRingStructure:
    def test_prior_service_uncertainty_peaks_near_threshold_contour(self):
        # single transmitter in the middle of the survey area: the most
        # uncertain service points should hug the circle where the
        # deterministic power crosses the service threshold
        g = GridSpec(rows=30, cols=25, spacing=10.0, altitude=20.0)
        tx = Transmitter(position=(120.0, 145.0, 10.0), power_dbm=10.0)
        p = make_params(transmitters=(tx,), noise_var=0.0)
        r_min = -65.0
        posterior = estimator.SurveyPosterior.from_grid(g, p)
        probs = estimator.service_probability(posterior.means[0], posterior.var, r_min)
        u = uncertainty.service_uncertainty(probs)
        j = int(np.argmax(u))
        from aerosurvey import spatial
        from aerosurvey.channel import base_powers

        pt = spatial.index_to_point(g, j)
        # walk the grid for the smallest |base - r_min|; argmax must be within
        # one spacing of that level set
        pts = spatial.grid_points(g)
        gaps = np.array(
            [abs(base_powers(q, tx, p, g.altitude)[0] - r_min) for q in pts]
        )
        best_gap = float(gaps.min())
        assert abs(base_powers(pt, tx, p, g.altitude)[0] - r_min) <= best_gap + 1e-9 or (
            np.linalg.norm(pt - pts[int(np.argmin(gaps))]) <= g.spacing + 1e-9
        )
