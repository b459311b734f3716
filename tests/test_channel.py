"""Radio environment model tests: pathloss, shadowing statistics, sampling."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aerosurvey import channel, spatial
from aerosurvey.channel import ChannelParams, GroundTruth, Transmitter
from aerosurvey.spatial import GridSpec
import oracles
from oracles import catmull_rom_power


def make_params(**kw):
    defaults = dict(
        transmitters=(Transmitter(position=(0.0, 0.0, 10.0), power_dbm=10.0),),
        frequency=2.4e9,
        pathloss_exponent=2.0,
        shadow_var=9.0,
        shadow_mean=0.0,
        corr_distance=50.0,
        fading_var=0.0,
        noise_var=0.0,
    )
    defaults.update(kw)
    return ChannelParams(**defaults)


class TestShadowCov:
    def test_zero_distance_gives_variance(self):
        assert channel.shadow_cov(0.0, make_params()) == 9.0

    def test_half_at_correlation_distance(self):
        assert channel.shadow_cov(50.0, make_params()) == pytest.approx(4.5)

    def test_quarter_at_twice_correlation_distance(self):
        assert channel.shadow_cov(100.0, make_params()) == pytest.approx(2.25)

    def test_ten_meter_value(self):
        assert channel.shadow_cov(10.0, make_params()) == pytest.approx(
            7.834955069665117, rel=1e-12
        )

    def test_vectorized(self):
        out = channel.shadow_cov(np.array([0.0, 50.0, 100.0]), make_params())
        np.testing.assert_allclose(out, [9.0, 4.5, 2.25])

    def test_rejects_negative_distance(self):
        with pytest.raises(ValueError):
            channel.shadow_cov(-1.0, make_params())

    @given(
        d=st.floats(0.0, 500.0),
        var=st.floats(0.01, 25.0),
        corr=st.floats(1.0, 200.0),
    )
    def test_positive_and_bounded_by_variance(self, d, var, corr):
        p = make_params(shadow_var=var, corr_distance=corr)
        v = channel.shadow_cov(d, p)
        assert 0.0 < v <= var


def base_power(point, tx, params, altitude):
    return float(channel.base_powers(point, tx, params, altitude)[0])


class TestBasePower:
    def test_one_meter_reference(self):
        # 10 dBm transmit power, free-space-like exponent 2 at 2.4 GHz
        tx = Transmitter(position=(0.0, 0.0, 10.0), power_dbm=10.0)
        got = base_power((0.0, 1.0), tx, make_params(), altitude=10.0)
        assert got == pytest.approx(-30.0520, abs=5e-4)

    def test_ten_meters_is_20db_down(self):
        tx = Transmitter(position=(0.0, 0.0, 10.0), power_dbm=10.0)
        got = base_power((0.0, 10.0), tx, make_params(), altitude=10.0)
        assert got == pytest.approx(-50.0520, abs=5e-4)

    def test_shadow_mean_shifts_additively(self):
        tx = Transmitter(position=(0.0, 0.0, 10.0), power_dbm=10.0)
        a = base_power((0.0, 7.0), tx, make_params(), 10.0)
        b = base_power((0.0, 7.0), tx, make_params(shadow_mean=3.0), 10.0)
        assert b == pytest.approx(a - 3.0, abs=1e-12)

    def test_distance_uses_altitude_difference(self):
        tx = Transmitter(position=(0.0, 0.0, 10.0), power_dbm=10.0)
        p = make_params()
        # horizontal 30 m, vertical 50-10=40 m: 3D distance 50 m
        at_50 = base_power((30.0, 0.0), tx, p, altitude=50.0)
        direct = base_power((0.0, 50.0), tx, p, altitude=10.0)
        assert at_50 == pytest.approx(direct, abs=1e-12)

    def test_zero_distance_rejected(self):
        tx = Transmitter(position=(5.0, 5.0, 20.0), power_dbm=10.0)
        with pytest.raises(ValueError):
            base_power((5.0, 5.0), tx, make_params(), altitude=20.0)

    def test_grid_field_matches_pointwise(self):
        g = GridSpec(rows=4, cols=5, spacing=10.0, altitude=20.0)
        tx = Transmitter(position=(10.0, 10.0, 10.0), power_dbm=10.0)
        p = make_params(transmitters=(tx,))
        field = channel.grid_base_powers(g, p, tx)
        assert field.shape == (20,)
        pts = spatial.grid_points(g)
        for i in (0, 7, 19):
            assert field[i] == pytest.approx(
                base_power(pts[i], tx, p, g.altitude), abs=1e-12
            )


class TestCovarianceMatrix:
    def test_symmetric_and_factorizable(self):
        g = GridSpec(rows=5, cols=4, spacing=10.0)
        cov = channel.grid_prior(g, 9.0, 50.0).cov
        np.testing.assert_array_equal(cov, cov.T)
        jittered = cov + 1e-9 * 9.0 * np.eye(cov.shape[0])
        np.linalg.cholesky(jittered)

    def test_diagonal_is_variance(self):
        g = GridSpec(rows=3, cols=3, spacing=10.0)
        cov = channel.grid_prior(g, 9.0, 50.0).cov
        np.testing.assert_allclose(np.diag(cov), 9.0)

    def test_cross_cov_matches_matrix_at_grid_points(self):
        g = GridSpec(rows=3, cols=3, spacing=10.0)
        pts = spatial.grid_points(g)
        cov = channel.grid_prior(g, 9.0, 50.0).cov
        cross = channel.shadow_cov(oracles.pairwise_distances(pts[4], pts), make_params())
        np.testing.assert_allclose(cross[0], cov[4])

    @given(rows=st.integers(2, 6), cols=st.integers(2, 6), spacing=st.floats(1.0, 30.0))
    @settings(max_examples=30, deadline=None)
    def test_always_psd_after_jitter(self, rows, cols, spacing):
        g = GridSpec(rows=rows, cols=cols, spacing=spacing)
        cov = oracles.shadow_cov_matrix(spatial.grid_points(g), make_params())
        jittered = cov + 1e-9 * 9.0 * np.eye(cov.shape[0])
        np.linalg.cholesky(jittered)


class TestGridPrior:
    def test_distances_match_the_definition(self):
        a = np.array([[0.0, 0.0], [3.0, 4.0], [-1.5, 2.0]])
        b = np.array([[3.0, 0.0], [0.0, -4.0]])
        want = np.array([[np.sqrt(np.sum((p - q) ** 2)) for q in b] for p in a])
        np.testing.assert_array_equal(oracles.pairwise_distances(a, b), want)

    def test_factor_reproduces_jittered_covariance(self):
        g = GridSpec(rows=4, cols=5, spacing=10.0)
        prior = channel.grid_prior(g, 9.0, 50.0)
        want = oracles.shadow_cov_matrix(spatial.grid_points(g), make_params())
        np.testing.assert_array_equal(prior.cov, want)
        want += channel.COV_JITTER * 9.0 * np.eye(g.num_points)
        np.testing.assert_allclose(prior.factor @ prior.factor.T, want, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(np.triu(prior.factor, 1), 0.0)
        assert not prior.cov.flags.writeable and not prior.factor.flags.writeable

    def test_zero_prior_has_no_factor(self):
        prior = channel.grid_prior(GridSpec(rows=2, cols=2, spacing=10.0), 0.0, 50.0)
        assert prior.factor is None
        np.testing.assert_array_equal(prior.cov, 0.0)

    @pytest.mark.parametrize(
        "rows, cols, spacing",
        [
            (30, 25, 10.0),
            (60, 50, 10.0),
            (10, 10, 10.0),
            (5, 3, 7.0),
            (1, 1, 10.0),
            (1, 7, 10.0),
            (4, 1, 10.0),
        ],
    )
    def test_table_build_equals_dense_oracle(self, rows, cols, spacing):
        # Integer grid coordinates: table offsets and pairwise differences are
        # the same floats, so the two builds agree to the bit.
        g = GridSpec(rows=rows, cols=cols, spacing=spacing)
        prior = channel.grid_prior(g, 9.0, 50.0)
        cov, factor = oracles.dense_grid_prior(g, 9.0, 50.0)
        np.testing.assert_array_equal(prior.cov, cov)
        np.testing.assert_array_equal(prior.factor, factor)
        channel.grid_prior.cache_clear()

    @given(
        rows=st.integers(1, 8),
        cols=st.integers(1, 8),
        spacing=st.floats(0.1, 40.0).filter(lambda v: v != int(v)),
        ox=st.floats(-1e3, 1e3).filter(lambda v: v != int(v)),
        oy=st.floats(-1e3, 1e3).filter(lambda v: v != int(v)),
    )
    @settings(max_examples=60, deadline=None)
    def test_table_build_is_symmetric_and_near_dense_oracle(self, rows, cols, spacing, ox, oy):
        # Off-integer coordinates: pairwise differences of node coordinates may
        # round differently from offset times spacing, by a last bit.
        g = GridSpec(rows=rows, cols=cols, spacing=spacing, origin=(ox, oy))
        prior = channel.grid_prior(g, 9.0, 50.0)
        cov, _ = oracles.dense_grid_prior(g, 9.0, 50.0)
        np.testing.assert_array_equal(prior.cov, prior.cov.T)
        np.testing.assert_allclose(prior.cov, cov, rtol=1e-13, atol=0.0)

    def test_cold_build_holds_no_extra_dense_temporaries(self):
        # The build keeps two N x N doubles, cov and the factor. The finite
        # check reads the kernel table, so no N x N boolean joins them.
        g = GridSpec(rows=60, cols=50, spacing=10.0)
        n = g.num_points
        channel.grid_prior.cache_clear()
        tracemalloc.start()
        try:
            channel.grid_prior(g, 9.0, 50.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            channel.grid_prior.cache_clear()
        assert peak < 2.05 * n * n * 8, f"peak {peak / 2**20:.1f} MiB"

    def test_non_finite_prior_rejected(self):
        # An infinite table, and a finite table whose jittered diagonal overflows.
        g = GridSpec(rows=3, cols=4, spacing=10.0)
        for shadow_var in (np.inf, np.finfo(float).max):
            with pytest.raises(ValueError):
                channel.grid_prior(g, shadow_var, 50.0)

    def test_ground_truth_and_estimator_share_one_factorisation(self):
        from aerosurvey import estimator

        g = GridSpec(rows=5, cols=3, spacing=7.0)
        p = make_params(corr_distance=41.0)
        channel.grid_prior.cache_clear()
        channel.sample_ground_truth(g, p, 0)
        estimator.SurveyPosterior.from_grid(g, p)
        info = channel.grid_prior.cache_info()
        assert (info.misses, info.currsize) == (1, 1)

    def test_cache_is_bounded(self):
        g = GridSpec(rows=2, cols=2, spacing=10.0)
        for corr in range(1, 20):
            channel.grid_prior(g, 9.0, float(corr))
        assert channel.grid_prior.cache_info().currsize <= 4


class TestSampleGroundTruth:
    def test_noiseless_equals_base(self):
        g = GridSpec(rows=4, cols=4, spacing=10.0, altitude=20.0)
        tx = Transmitter((15.0, 15.0, 10.0), 10.0)
        p = make_params(transmitters=(tx,), shadow_var=0.0, fading_var=0.0)
        gt = channel.sample_ground_truth(g, p, np.random.default_rng(0))
        np.testing.assert_array_equal(gt.powers[0], channel.grid_base_powers(g, p, tx))

    def test_same_seed_reproduces(self):
        g = GridSpec(rows=4, cols=4, spacing=10.0, altitude=20.0)
        p = make_params(transmitters=(Transmitter((15.0, 15.0, 10.0), 10.0),))
        a = channel.sample_ground_truth(g, p, np.random.default_rng(42))
        b = channel.sample_ground_truth(g, p, np.random.default_rng(42))
        np.testing.assert_array_equal(a.powers, b.powers)

    def test_empirical_shadowing_mean(self):
        g = GridSpec(rows=3, cols=3, spacing=10.0, altitude=20.0)
        tx = Transmitter((100.0, 100.0, 10.0), 10.0)
        p = make_params(transmitters=(tx,))
        base = channel.grid_base_powers(g, p, tx)
        rng = np.random.default_rng(7)
        runs = 2000
        acc = np.zeros(g.num_points)
        for _ in range(runs):
            gt = channel.sample_ground_truth(g, p, rng)
            acc += gt.powers[0] - base
        mean = acc / runs
        # sample mean of a zero-mean field: bound 3*sigma/sqrt(runs)
        bound = 3.0 * 3.0 / np.sqrt(runs)
        assert np.max(np.abs(mean)) < bound

    def test_empirical_shadowing_covariance_at_10m(self):
        g = GridSpec(rows=6, cols=5, spacing=10.0, altitude=20.0)
        tx = Transmitter((1000.0, 1000.0, 10.0), 10.0)
        p = make_params(transmitters=(tx,))
        base = channel.grid_base_powers(g, p, tx)
        rng = np.random.default_rng(11)
        runs = 2000
        draws = np.empty((runs, g.num_points))
        for i in range(runs):
            draws[i] = channel.sample_ground_truth(g, p, rng).powers[0] - base
        # neighboring points 10 m apart
        sample_cov = float(np.mean(draws[:, 0] * draws[:, 1]))
        expected = 9.0 * 2.0 ** (-10.0 / 50.0)
        assert expected == pytest.approx(7.834955069665117, rel=1e-12)
        se = np.sqrt((81.0 + expected**2) / runs)
        assert abs(sample_cov - expected) < 3.0 * se


class TestInterpolationTaps:
    def test_weights_sum_to_one(self):
        g = GridSpec(rows=5, cols=7, spacing=3.0, origin=(1.0, -2.0))
        rng = np.random.default_rng(8)
        for _ in range(500):
            point = (rng.uniform(1.0, 19.0), rng.uniform(-2.0, 10.0))
            index, weights = channel.interpolation_taps(g, point)
            assert index.shape == weights.shape == (16,)
            assert np.all((0 <= index) & (index < g.num_points))
            assert abs(weights.sum() - 1.0) <= 1e-15

    def test_unit_vector_on_nodes(self):
        g = GridSpec(rows=4, cols=3, spacing=10.0)
        for i, point in enumerate(spatial.grid_points(g)):
            index, weights = channel.interpolation_taps(g, point)
            assert np.count_nonzero(weights == 1.0) == 1
            assert np.count_nonzero(weights == 0.0) == 15
            assert index[weights == 1.0][0] == i

    @pytest.mark.parametrize(
        "grid",
        [
            GridSpec(rows=30, cols=25, spacing=10.0),
            GridSpec(rows=10, cols=10, spacing=3.0, origin=(1.5, -2.25)),
            GridSpec(rows=1, cols=7, spacing=10.0),
            GridSpec(rows=4, cols=1, spacing=10.0),
        ],
    )
    def test_matches_numpy_reference_exactly(self, grid):
        # Random points, every node, the corners, and points 1e-10 outside the
        # rectangle that the bounds tolerance still accepts.
        xmin, ymin, xmax, ymax = grid.bounds()
        rng = np.random.default_rng(11)
        points = [tuple(p) for p in rng.uniform((xmin, ymin), (xmax, ymax), size=(500, 2))]
        points += [tuple(p) for p in spatial.grid_points(grid)]
        edges_x = (xmin, xmax, xmin - 1e-10, xmax + 1e-10)
        edges_y = (ymin, ymax, ymin - 1e-10, ymax + 1e-10)
        points += [(x, y) for x in edges_x for y in edges_y]
        for point in points:
            index, weights = channel.interpolation_taps(grid, point)
            want_index, want_weights = oracles.interpolation_taps(grid, point)
            assert index.dtype == want_index.dtype and weights.dtype == want_weights.dtype
            np.testing.assert_array_equal(index, want_index)
            np.testing.assert_array_equal(weights, want_weights)

    def test_outside_bounds_rejected(self):
        g = GridSpec(rows=3, cols=3, spacing=10.0)
        for point in ((-5.0, 0.0), (0.0, 20.1), (float("nan"), 5.0)):
            with pytest.raises(ValueError):
                channel.interpolation_taps(g, point)


class TestTruePower:
    def test_exact_at_grid_points(self):
        g = GridSpec(rows=5, cols=6, spacing=10.0, altitude=20.0)
        p = make_params(transmitters=(Transmitter((25.0, 25.0, 10.0), 10.0),))
        gt = channel.sample_ground_truth(g, p, np.random.default_rng(3))
        pts = spatial.grid_points(g)
        for i in range(g.num_points):
            got = channel.true_power(gt, pts[i])
            assert got[0] == pytest.approx(gt.powers[0, i], abs=1e-9)

    def test_constant_field_reproduced(self):
        g = GridSpec(rows=4, cols=4, spacing=10.0)
        gt = GroundTruth(grid=g, powers=np.full((1, 16), 7.0))
        for x, y in [(5.0, 5.0), (12.3, 17.9), (0.0, 30.0), (29.9, 0.1)]:
            assert channel.true_power(gt, (x, y))[0] == pytest.approx(7.0, abs=1e-12)

    def test_linear_field_midpoint_is_mean(self):
        g = GridSpec(rows=4, cols=4, spacing=10.0)
        pts = spatial.grid_points(g)
        vals = 0.5 * pts[:, 0] + 2.0  # linear in x only
        gt = GroundTruth(grid=g, powers=vals[None, :])
        got = channel.true_power(gt, (15.0, 10.0))[0]
        assert got == pytest.approx(0.5 * 15.0 + 2.0, abs=1e-9)

    def test_matches_separable_horner_reference(self):
        g = GridSpec(rows=5, cols=6, spacing=10.0, altitude=20.0, origin=(-3.0, 4.0))
        p = make_params(
            transmitters=(
                Transmitter((25.0, 25.0, 10.0), 10.0),
                Transmitter((5.0, 40.0, 10.0), 7.0),
            ),
            fading_var=1.5,
        )
        gt = channel.sample_ground_truth(g, p, np.random.default_rng(4))
        rng = np.random.default_rng(5)
        points = [(rng.uniform(-3.0, 47.0), rng.uniform(4.0, 44.0)) for _ in range(200)]
        points += [(-3.0, 4.0), (47.0, 44.0), (47.0, 10.0), (20.0, 44.0)]
        for point in points:
            want = catmull_rom_power(g, gt.powers, point)
            np.testing.assert_allclose(channel.true_power(gt, point), want, rtol=0, atol=1e-12)

    def test_outside_bounds_rejected(self):
        g = GridSpec(rows=3, cols=3, spacing=10.0)
        gt = GroundTruth(grid=g, powers=np.zeros((1, 9)))
        with pytest.raises(ValueError):
            channel.true_power(gt, (-5.0, 0.0))


class TestTakeMeasurement:
    def test_noiseless_measurement_is_exact(self):
        g = GridSpec(rows=4, cols=4, spacing=10.0, altitude=20.0)
        p = make_params(
            transmitters=(Transmitter((15.0, 15.0, 10.0), 10.0),), noise_var=0.0
        )
        gt = channel.sample_ground_truth(g, p, np.random.default_rng(0))
        m = channel.take_measurement(gt, (12.0, 8.0), p, np.random.default_rng(1))
        np.testing.assert_allclose(m.rss, channel.true_power(gt, (12.0, 8.0)))

    def test_seeded_noise_reproducible(self):
        g = GridSpec(rows=3, cols=3, spacing=10.0, altitude=20.0)
        p = make_params(
            transmitters=(Transmitter((15.0, 15.0, 10.0), 10.0),), noise_var=0.25
        )
        gt = channel.sample_ground_truth(g, p, np.random.default_rng(0))
        a = channel.take_measurement(gt, (5.0, 5.0), p, np.random.default_rng(9))
        b = channel.take_measurement(gt, (5.0, 5.0), p, np.random.default_rng(9))
        assert a.rss == b.rss

    def test_given_taps_change_nothing(self):
        g = GridSpec(rows=4, cols=4, spacing=10.0, altitude=20.0)
        p = make_params(
            transmitters=(Transmitter((15.0, 15.0, 10.0), 10.0), Transmitter((2.0, 28.0, 10.0), 8.0)),
            noise_var=0.25,
        )
        gt = channel.sample_ground_truth(g, p, np.random.default_rng(0))
        point = (12.5, 8.25)
        taps = channel.interpolation_taps(g, point)
        a = channel.take_measurement(gt, point, p, np.random.default_rng(9))
        b = channel.take_measurement(gt, point, p, np.random.default_rng(9), taps=taps)
        assert a == b

    def test_noise_variance_statistics(self):
        g = GridSpec(rows=3, cols=3, spacing=10.0, altitude=20.0)
        p = make_params(
            transmitters=(Transmitter((15.0, 15.0, 10.0), 10.0),), noise_var=4.0
        )
        gt = channel.sample_ground_truth(g, p, np.random.default_rng(0))
        rng = np.random.default_rng(21)
        n = 10_000
        vals = np.array(
            [channel.take_measurement(gt, (5.0, 5.0), p, rng).rss[0] for _ in range(n)]
        )
        sample_var = float(np.var(vals))
        # variance of the variance estimator for a normal sample: 2 var^2 / n
        se = np.sqrt(2.0 * 16.0 / n)
        assert abs(sample_var - 4.0) < 3.0 * se


class TestDrawTransmitters:
    def test_positions_inside_bounds_at_height(self):
        g = GridSpec(rows=5, cols=7, spacing=10.0)
        txs = channel.draw_transmitters(g, 4, 10.0, 13.0, np.random.default_rng(5))
        assert len(txs) == 4
        xmin, ymin, xmax, ymax = g.bounds()
        for tx in txs:
            x, y, z = tx.position
            assert xmin <= x <= xmax and ymin <= y <= ymax
            assert z == 10.0
            assert tx.power_dbm == 13.0

    def test_seeded_reproducible(self):
        g = GridSpec(rows=5, cols=7, spacing=10.0)
        a = channel.draw_transmitters(g, 2, 10.0, 10.0, np.random.default_rng(5))
        b = channel.draw_transmitters(g, 2, 10.0, 10.0, np.random.default_rng(5))
        assert a == b


class TestChannelParamsValidation:
    def test_rejects_negative_variances(self):
        with pytest.raises(ValueError):
            make_params(shadow_var=-1.0)
        with pytest.raises(ValueError):
            make_params(fading_var=-0.1)
        with pytest.raises(ValueError):
            make_params(noise_var=-0.1)

    def test_rejects_bad_frequency_and_exponent(self):
        with pytest.raises(ValueError):
            make_params(frequency=0.0)
        with pytest.raises(ValueError):
            make_params(pathloss_exponent=0.0)
        with pytest.raises(ValueError):
            make_params(corr_distance=0.0)
