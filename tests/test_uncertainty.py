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
        aggregate = np.max if mode == "max" else np.mean
        assert oracles.total_uncertainty(aggregate(got, axis=0)) == oracles.total_uncertainty(aggregate(want, axis=0))

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


# Three points against r_min = -65 dBm at unit variance: a mean on the
# threshold gives p = 1/2, one bit, and a mean 100 dB away p = 0 or 1, none.
_THREE_POINTS = np.array([[-65.0, -165.0, 35.0], [35.0, -65.0, 35.0]])


class TestAggregate:
    # The aggregation rule, which only service_uncertainty_field applies.
    def test_single_field_identity(self):
        means, var = np.array([[-66.0, -60.0, -70.0]]), np.array([4.0, 1.0, 9.0])
        one = uncertainty.service_uncertainty(estimator.service_probability(means[0], var, -65.0))
        for mode in ("max", "mean"):
            np.testing.assert_array_equal(uncertainty.service_uncertainty_field(means, var, -65.0, mode), one)

    def test_max_elementwise(self):
        got = uncertainty.service_uncertainty_field(_THREE_POINTS, np.ones(3), -65.0, "max")
        np.testing.assert_allclose(got, [1.0, 1.0, 0.0])

    def test_mean_elementwise(self):
        got = uncertainty.service_uncertainty_field(_THREE_POINTS, np.ones(3), -65.0, "mean")
        np.testing.assert_allclose(got, [0.5, 0.5, 0.0])

    @given(
        means=arrays(
            float, st.tuples(st.integers(1, 3), st.integers(1, 3), st.just(20)), elements=st.floats(-120.0, 0.0)
        ),
        var=arrays(float, st.just(20), elements=st.floats(0.0, 100.0)),
        mode=st.sampled_from(["max", "mean"]),
    )
    def test_stacked_field_equals_its_rows(self, means, var, mode):
        # Each stack of a (B, K, N) block gets the field a call on it alone gives.
        block_var = np.repeat(var[None], len(means), axis=0)
        got = uncertainty.service_uncertainty_field(means, block_var, -65.0, mode)
        assert got.shape == (len(means), 20)
        for b, stack in enumerate(means):
            np.testing.assert_array_equal(got[b], uncertainty.service_uncertainty_field(stack, var, -65.0, mode))

    @given(
        means=arrays(float, st.tuples(st.integers(2, 5), st.just(3)), elements=st.floats(-120.0, 0.0)),
        var=arrays(float, st.just(3), elements=st.floats(0.0, 100.0)),
    )
    def test_max_dominates_mean(self, means, var):
        hi = uncertainty.service_uncertainty_field(means, var, -65.0, "max")
        avg = uncertainty.service_uncertainty_field(means, var, -65.0, "mean")
        assert np.all(hi >= avg - 1e-12)


class TestTotalUncertainty:
    # A map's total uncertainty is its field's mean over the grid. The survey
    # sums it in its metric pass; this is the reference its loop oracle logs.
    def test_all_ones(self):
        assert oracles.total_uncertainty(np.ones(5)) == 1.0

    def test_all_zeros(self):
        assert oracles.total_uncertainty(np.zeros(5)) == 0.0

    def test_known_mean(self):
        f = np.array([1.0, 0.0, 0.5, 0.5])
        assert oracles.total_uncertainty(f) == pytest.approx(0.5)

    def test_rejects_empty_field(self):
        with pytest.raises(ValueError):
            oracles.total_uncertainty(np.array([]))

    def test_monotone_in_components(self):
        base = np.array([0.1, 0.4, 0.7])
        lo = oracles.total_uncertainty(base)
        raised = base.copy()
        raised[1] += 0.2
        hi = oracles.total_uncertainty(raised)
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
