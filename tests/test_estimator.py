"""Bayesian map estimator tests: prior, per-sample update, batch oracle, service."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aerosurvey import channel, estimator, spatial
from aerosurvey.channel import ChannelParams, Transmitter
from aerosurvey.harness import SurveyConfig, run_survey
from aerosurvey.planner import PlannerKind
from aerosurvey.spatial import GridSpec
import oracles
from oracles import PosteriorState, batch_posterior, init_posterior, online_update


def make_params(**kw):
    defaults = dict(
        transmitters=(Transmitter(position=(15.0, 15.0, 10.0), power_dbm=10.0),),
        shadow_var=9.0,
        corr_distance=50.0,
        fading_var=0.0,
        noise_var=0.25,
    )
    defaults.update(kw)
    return ChannelParams(**defaults)


def small_grid(**kw):
    defaults = dict(rows=4, cols=4, spacing=10.0, altitude=20.0)
    defaults.update(kw)
    return GridSpec(**defaults)


class TestInitPosterior:
    def test_prior_variance_on_diagonal(self):
        state = init_posterior(small_grid(), make_params(), 0)
        np.testing.assert_allclose(np.diag(state.cov), 9.0)

    def test_prior_mean_near_transmitter(self):
        # grid point 1 m horizontal from the transmitter at matching height
        g = GridSpec(rows=2, cols=2, spacing=1.0, altitude=10.0)
        p = make_params(transmitters=(Transmitter((0.0, -1.0, 10.0), 10.0),))
        state = init_posterior(g, p, 0)
        assert state.mean[0] == pytest.approx(-30.0520, abs=5e-4)

    def test_zero_variances_give_zero_cov(self):
        p = make_params(shadow_var=0.0, fading_var=0.0)
        state = init_posterior(small_grid(), p, 0)
        np.testing.assert_array_equal(state.cov, 0.0)

    def test_fading_adds_to_diagonal_only(self):
        p = make_params(fading_var=2.0)
        state = init_posterior(small_grid(), p, 0)
        np.testing.assert_allclose(np.diag(state.cov), 11.0)
        off = state.cov - np.diag(np.diag(state.cov))
        base = init_posterior(small_grid(), make_params(), 0)
        base_off = base.cov - np.diag(np.diag(base.cov))
        np.testing.assert_allclose(off, base_off)

    def test_copies_are_independent(self):
        g, p = small_grid(), make_params()
        a = init_posterior(g, p, 0)
        a.mean[0] = 1e9
        b = init_posterior(g, p, 0)
        assert b.mean[0] != 1e9


def noise_floor(params):
    """The observation noise variance the survey posterior uses."""
    largest = params.shadow_var + params.fading_var
    return max(params.noise_var, estimator.VAR_FLOOR, estimator.RELATIVE_VAR_FLOOR * largest)


def forms(grid, params):
    """A fresh survey posterior and one re-based onto an owned prior before any measurement."""
    low_rank = estimator.SurveyPosterior.from_grid(grid, params)
    dense = estimator.SurveyPosterior.from_grid(grid, params)
    dense.covariance()
    return low_rank, dense


class TestObservationCoefficients:
    def test_on_grid_point_gives_unit_weights(self):
        g, p = small_grid(), make_params()
        pts = spatial.grid_points(g)
        index, weights = channel.interpolation_taps(g, pts[5])
        dense = np.zeros(g.num_points)
        np.add.at(dense, index, weights)
        expected = np.zeros(g.num_points)
        expected[5] = 1.0
        np.testing.assert_array_equal(dense, expected)
        assert estimator.SurveyPosterior.from_grid(g, p).noise_var == pytest.approx(0.25, abs=1e-12)

    def test_point_outside_grid_rejected(self):
        g = small_grid()
        for point in ((30.0 + 20.0, 15.0), (-0.5, 0.0), (float("nan"), 3.0)):
            with pytest.raises(ValueError):
                channel.interpolation_taps(g, point)

    def test_noiseless_measurement_is_the_tap_combination(self):
        g = small_grid()
        p = make_params(
            transmitters=(
                Transmitter((15.0, 15.0, 10.0), 10.0),
                Transmitter((2.0, 28.0, 10.0), 8.0),
            ),
            fading_var=1.5,
            noise_var=0.0,
        )
        gt = channel.sample_ground_truth(g, p, np.random.default_rng(6))
        rng = np.random.default_rng(7)
        for _ in range(50):
            point = (float(rng.uniform(0.0, 30.0)), float(rng.uniform(0.0, 30.0)))
            index, weights = taps = channel.interpolation_taps(g, point)
            m = channel.take_measurement(gt, point, p, rng, taps)
            assert m.rss == tuple(gt.powers[:, index] @ weights)

    def test_on_grid_with_fading_still_snaps(self):
        g = small_grid()
        p = make_params(fading_var=2.0)
        pts = spatial.grid_points(g)
        index, weights = channel.interpolation_taps(g, pts[3])
        assert index[weights == 1.0].tolist() == [3]
        np.testing.assert_array_equal(weights[weights != 1.0], 0.0)
        assert estimator.SurveyPosterior.from_grid(g, p).noise_var == pytest.approx(0.25, abs=1e-12)

    def test_noise_floor_applied(self):
        g, p = small_grid(), make_params(noise_var=0.0)
        assert estimator.SurveyPosterior.from_grid(g, p).noise_var >= estimator.VAR_FLOOR
        prior = init_posterior(g, p, 0)
        post = estimator.SurveyPosterior(prior.cov, 0.0, prior.mean[None], 0.0)
        assert post.noise_var >= estimator.VAR_FLOOR

    def test_noise_floor_scales_with_a_large_prior(self):
        # At the default 9 dB^2 the absolute floor holds; past 1000 dB^2 of
        # prior variance the floor is relative to it.
        g = small_grid()
        for shadow_var, fading_var, want in ((9.0, 0.0, 1e-9), (1e3, 0.0, 1e-9), (1e8, 0.0, 1e-4), (1e8, 1e8, 2e-4)):
            p = make_params(noise_var=0.0, shadow_var=shadow_var, fading_var=fading_var)
            assert estimator.SurveyPosterior.from_grid(g, p).noise_var == pytest.approx(want, rel=1e-12)
        p = make_params(noise_var=0.5, shadow_var=1e8)
        assert estimator.SurveyPosterior.from_grid(g, p).noise_var == 0.5

    @pytest.mark.parametrize("planner", ["min_cost", "random"])
    def test_noise_free_surveys_finish_at_any_shadowing_scale(self, planner):
        # Near-exact repeated observations round the innovation variance
        # below zero when the floor is small against the prior variance.
        g = GridSpec(rows=3, cols=3, spacing=10.0, altitude=20.0)
        for exponent in (6, 8, 10, 50, 100, 200, 300):
            for seed in range(3):
                params = ChannelParams(transmitters=(), shadow_var=10.0**exponent, noise_var=0.0)
                cfg = SurveyConfig(grid=g, channel=params, planner=PlannerKind(planner), max_measurements=60, seed=seed)
                rec = run_survey(cfg)
                assert len(rec.measurements) == 61
                rows = [(m.total_unc_power, m.total_unc_service, m.service_error_rate) for m in rec.metrics]
                assert np.isfinite(rows).all(), (exponent, seed)
                assert np.isfinite(rec.posterior.means).all() and np.isfinite(rec.posterior.var).all()


class TestConditionInPlace:
    def two_tx(self):
        return make_params(
            transmitters=(
                Transmitter((15.0, 15.0, 10.0), 10.0),
                Transmitter((35.0, 5.0, 10.0), 12.0),
            )
        )

    def test_dense_states_share_one_covariance(self):
        # One covariance serves every transmitter: it starts at the prior,
        # and later calls return the same array.
        g, p = small_grid(), self.two_tx()
        post = estimator.SurveyPosterior.from_grid(g, p)
        cov = post.covariance()
        assert post.covariance() is cov
        for k in range(2):
            prior = init_posterior(g, p, k)
            np.testing.assert_array_equal(post.means[k], prior.mean)
            np.testing.assert_array_equal(cov, prior.cov)

    def test_rejects_without_modifying(self):
        g, p = small_grid(), self.two_tx()
        off_grid = channel.interpolation_taps(g, (7.0, 3.0))
        nan_weights = (off_grid[0], np.full(16, np.nan))
        bad_calls = [
            (off_grid, [-50.0, float("nan")]),
            (nan_weights, [-50.0, -50.0]),
            (off_grid, [-50.0]),
        ]
        # Fresh, then with U full before and after a re-base: a rejected
        # call does not re-base either. The prior is read whole through its
        # rows: from the kernel table before the first re-base, from the
        # owned array after it.
        post = estimator.SurveyPosterior.from_grid(g, p)
        fold = estimator.fold_rank(g.num_points)
        every = np.arange(g.num_points)
        for steps in (0, fold, fold):
            for _ in range(steps):
                post.condition(off_grid, [-50.0, -55.0])
            means, var, rank = post.means.copy(), post.var.copy(), post.rank
            prior, prior_cov, fading_var = post.prior_cov, post.prior_cov[every], post.fading_var
            for taps, values in bad_calls:
                with pytest.raises(ValueError):
                    post.condition(taps, values)
            np.testing.assert_array_equal(post.means, means)
            np.testing.assert_array_equal(post.var, var)
            assert post.rank == rank
            assert post.prior_cov is prior
            np.testing.assert_array_equal(post.prior_cov[every], prior_cov)
            assert post.fading_var == fading_var

    def test_rejects_malformed_priors(self):
        prior = init_posterior(small_grid(), make_params(), 0)
        bad = [
            (prior.cov, 0.0, prior.mean, 0.25),  # one row of means, not (K, N)
            (prior.cov, 0.0, np.empty((0, 16)), 0.25),
            (prior.cov[:8, :8], 0.0, prior.mean[None], 0.25),
            (prior.cov, -1.0, prior.mean[None], 0.25),
            (prior.cov, 0.0, prior.mean[None], float("nan")),
        ]
        for args in bad:
            with pytest.raises(ValueError):
                estimator.SurveyPosterior(*args)


class TestSurveyPosterior:
    def two_tx(self, **kw):
        return make_params(
            transmitters=(
                Transmitter((15.0, 15.0, 10.0), 10.0),
                Transmitter((35.0, 45.0, 10.0), 12.0),
            ),
            **kw,
        )

    def measurements(self, g, p, count, seed):
        """Simulated measurements at uniform positions: (position, values) pairs."""
        rng = np.random.default_rng(seed)
        gt = channel.sample_ground_truth(g, p, rng)
        xmin, ymin, xmax, ymax = g.bounds()
        points = rng.uniform((xmin, ymin), (xmax, ymax), size=(count, 2))
        return [
            (point, channel.take_measurement(gt, point, p, rng, channel.interpolation_taps(g, point)).rss)
            for point in points
        ]

    def test_matches_dense_oracle_around_the_fold(self):
        # Just before the first re-base, with U full, just after it, and just
        # after the second and third (r > N); the oracle is the explicit
        # rank-one formula on a dense copy. Noise-free measurements at the
        # 1e-9 noise floor are ill-conditioned when their count is near N:
        # from about 32 to 54 here, rounding alone moves the means by up to
        # 5e-7 between exact update orders, so the noise-free case goes from
        # the first re-base straight to the third.
        g = small_grid(rows=6, cols=6)
        fold = estimator.fold_rank(g.num_points)
        cases = (
            (0.25, 0.0, (fold - 1, fold, fold + 1, 2 * fold + 1, 3 * fold + 1)),
            (0.0, 1.5, (fold - 1, fold, fold + 1, 3 * fold + 1)),
        )
        for noise_var, fading_var, counts in cases:
            p = self.two_tx(noise_var=noise_var, fading_var=fading_var)
            shared = channel.grid_prior(g, p.shadow_var, p.corr_distance)
            for count in counts:
                post = estimator.SurveyPosterior.from_grid(g, p)
                dense = [init_posterior(g, p, k) for k in range(2)]
                for point, values in self.measurements(g, p, count, seed=count):
                    taps = channel.interpolation_taps(g, point)
                    post.condition(taps, values)
                    dense = [online_update(s, taps, y, noise_floor(p)) for s, y in zip(dense, values)]
                assert post.rank == count
                assert (post.prior_cov is shared) == (count <= fold)
                np.testing.assert_allclose(post.var, np.diagonal(dense[0].cov), rtol=0, atol=1e-10)
                cov = post.covariance()
                assert np.array_equal(cov, cov.T)
                for k in range(2):
                    np.testing.assert_allclose(post.means[k], dense[k].mean, rtol=0, atol=1e-10)
                    np.testing.assert_allclose(cov, dense[k].cov, rtol=0, atol=1e-10)

    def test_variance_never_increases(self):
        # Noise-free measurements drive variances to the clamp at zero.
        g = small_grid(rows=6, cols=6)
        p = self.two_tx(noise_var=0.0, fading_var=1.5)
        post = estimator.SurveyPosterior.from_grid(g, p)
        for point, values in self.measurements(g, p, 2 * estimator.fold_rank(g.num_points), seed=3):
            before = post.var.copy()
            post.condition(channel.interpolation_taps(g, point), values)
            assert np.all(post.var <= before)
            assert np.all(post.var >= 0.0)
        assert post.rank > estimator.fold_rank(g.num_points)
        np.testing.assert_array_equal(post.var, np.diagonal(post.covariance()))

        # Exact observations of distinct nodes, below the noise floor a
        # survey uses, round some variances below zero; the clamp holds them
        # at zero, before and after a re-base.
        post = estimator.SurveyPosterior.from_grid(g, p)
        post.noise_var = 0.0
        for point in spatial.grid_points(g)[:24]:
            before = post.var.copy()
            post.condition(channel.interpolation_taps(g, point), [-60.0, -61.0])
            assert np.all(post.var <= before)
            assert np.all(post.var >= 0.0)
        assert post.rank > estimator.fold_rank(g.num_points)

    def test_row_cache_follows_the_taps_and_the_re_base(self, monkeypatch):
        # Taps A, B, A, A: three gathers from the kernel table, each the
        # prior's rows at those taps. After a re-base the rows come from the
        # owned dense prior, whatever the last taps were.
        g, p = small_grid(rows=6, cols=6), self.two_tx(fading_var=1.5)
        post = estimator.SurveyPosterior.from_grid(g, p)
        prior = post.prior_cov
        dense = prior.dense()
        a = channel.interpolation_taps(g, (7.0, 3.0))
        b = channel.interpolation_taps(g, (31.0, 44.0))
        gathers = []
        real = channel.GridPrior.__getitem__

        def counted(self, index):
            gathers.append(tuple(index))
            return real(self, index)

        monkeypatch.setattr(channel.GridPrior, "__getitem__", counted)
        for taps, count in ((a, 1), (b, 2), (a, 3), (a, 3)):
            post.condition(taps, [-50.0, -55.0])
            assert len(gathers) == count
            np.testing.assert_array_equal(post._block, dense[taps[0]])
        assert gathers == [tuple(a[0]), tuple(b[0]), tuple(a[0])]
        while post.rank < estimator.fold_rank(g.num_points):
            post.condition(a, [-50.0, -55.0])
        assert post.prior_cov is prior
        post.condition(a, [-50.0, -55.0])
        assert isinstance(post.prior_cov, np.ndarray) and len(gathers) == 3
        rebased = post.prior_cov.copy()
        assert not np.array_equal(rebased[a[0]], dense[a[0]])
        np.testing.assert_array_equal(post._block, rebased[a[0]])
        post.condition(b, [-50.0, -55.0])
        np.testing.assert_array_equal(post._block, rebased[b[0]])

    def test_shares_the_cached_prior(self):
        g, p = small_grid(), self.two_tx(fading_var=2.0)
        a, b = estimator.SurveyPosterior.from_grid(g, p), estimator.SurveyPosterior.from_grid(g, p)
        assert a.prior_cov is b.prior_cov
        assert a.prior_cov is channel.grid_prior(g, p.shadow_var, p.corr_distance)
        a.condition(channel.interpolation_taps(g, (7.0, 3.0)), [-50.0, -55.0])
        np.testing.assert_array_equal(b.var, 11.0)
        np.testing.assert_array_equal(b.means, np.vstack([init_posterior(g, p, k).mean for k in range(2)]))


class TestOnlineUpdate:
    def test_exact_observation_pins_coordinate(self):
        g, p = small_grid(), make_params(noise_var=1e-9)
        pts = spatial.grid_points(g)
        taps = channel.interpolation_taps(g, pts[5])
        y = -47.3
        for post in forms(g, p):
            post.condition(taps, [y])
            assert post.means[0, 5] == pytest.approx(y, abs=1e-6)
            assert post.var[5] == pytest.approx(0.0, abs=1e-6)
            assert post.covariance()[5, 5] == pytest.approx(0.0, abs=1e-6)

    def test_input_state_left_unchanged(self):
        # The dense oracle returns a new state and leaves its input alone.
        g, p = small_grid(), make_params()
        state = init_posterior(g, p, 0)
        mean, cov = state.mean.copy(), state.cov.copy()
        for point in ((10.0, 20.0), (7.0, 3.0)):  # on a node, then off-grid
            taps = channel.interpolation_taps(g, point)
            new = online_update(state, taps, -50.0, noise_floor(p))
            assert new.mean is not state.mean and new.cov is not state.cov
            assert np.array_equal(state.mean, mean)
            assert np.array_equal(state.cov, cov)
            assert not np.array_equal(new.cov, cov)

    def test_zero_weights_leave_state_unchanged(self):
        g = small_grid()
        p = make_params(fading_var=2.0, noise_var=0.25)
        prior = init_posterior(g, p, 0)
        index, _ = channel.interpolation_taps(g, (7.0, 3.0))
        for post in forms(g, p):
            post.condition((index, np.zeros(16)), [-50.0])
            np.testing.assert_array_equal(post.means[0], prior.mean)
            np.testing.assert_array_equal(post.covariance(), prior.cov)

    def test_covariance_stays_symmetric_psd_diagonal(self):
        g, p = small_grid(), make_params()
        pts = spatial.grid_points(g)
        for post in forms(g, p):
            rng = np.random.default_rng(0)
            for _ in range(30):
                point = pts[rng.integers(0, g.num_points)]
                post.condition(channel.interpolation_taps(g, point), [float(rng.normal(-60, 3))])
                assert np.min(post.var) >= 0.0
                prior_cov = post.prior_cov[np.arange(g.num_points)]
                assert np.array_equal(prior_cov, prior_cov.T)
            cov = post.covariance()
            assert np.max(np.abs(cov - cov.T)) < 1e-12
            assert np.min(np.diag(cov)) >= 0.0

    def test_monotone_trace(self):
        # The trace is the sum of the shared variances in either form.
        g, p = small_grid(), make_params()
        for post in forms(g, p):
            rng = np.random.default_rng(3)
            prev = float(np.sum(post.var))
            for _ in range(25):
                point = (
                    float(rng.uniform(0, 30)),
                    float(rng.uniform(0, 30)),
                )
                post.condition(channel.interpolation_taps(g, point), [float(rng.normal(-60, 3))])
                cur = float(np.sum(post.var))
                assert cur <= prev + 1e-9
                prev = cur
            assert float(np.trace(post.covariance())) == pytest.approx(prev, abs=1e-12)

    def test_diagonal_never_exceeds_prior(self):
        g, p = small_grid(), make_params(fading_var=1.5)
        cap = 9.0 + 1.5 + 1e-9
        for post in forms(g, p):
            rng = np.random.default_rng(5)
            for _ in range(20):
                point = (float(rng.uniform(0, 30)), float(rng.uniform(0, 30)))
                post.condition(channel.interpolation_taps(g, point), [float(rng.normal(-60, 3))])
                assert np.max(post.var) <= cap
            assert np.max(np.diag(post.covariance())) <= cap


def meas(loc, y):
    return channel.Measurement(position=(float(loc[0]), float(loc[1])), rss=(y,))


class TestBatchPosterior:
    def test_no_measurements_returns_prior(self):
        g, p = small_grid(), make_params()
        got = batch_posterior(g, p, 0, [])
        want = init_posterior(g, p, 0)
        np.testing.assert_array_equal(got.mean, want.mean)
        np.testing.assert_array_equal(got.cov, want.cov)

    def test_single_noiseless_grid_measurement_pins_variance(self):
        g = small_grid()
        p = make_params(noise_var=0.0, fading_var=0.0)
        pts = spatial.grid_points(g)
        got = batch_posterior(g, p, 0, [meas(pts[5], -50.0)])
        assert got.cov[5, 5] < 1e-6

    def test_measurement_outside_grid_rejected(self):
        g, p = small_grid(), make_params()
        inside = meas((7.0, 3.0), -50.0)
        for point in ((1000.0, 1000.0), (-0.5, 10.0)):
            with pytest.raises(ValueError):
                batch_posterior(g, p, 0, [inside, meas(point, -10.0)])

    def test_order_invariance(self):
        g, p = small_grid(), make_params()
        pts = spatial.grid_points(g)
        ms = [
            meas(pts[2], -55.0),
            meas((7.5, 12.5), -52.0),
            meas(pts[9], -60.0),
            meas((22.0, 3.0), -48.0),
        ]
        a = batch_posterior(g, p, 0, ms)
        b = batch_posterior(g, p, 0, [ms[i] for i in (2, 0, 3, 1)])
        np.testing.assert_allclose(a.mean, b.mean, atol=1e-9)
        np.testing.assert_allclose(a.cov, b.cov, atol=1e-9)

    def test_nonfinite_measurement_rejected(self):
        g, p = small_grid(), make_params()
        with pytest.raises(ValueError):
            batch_posterior(g, p, 0, [meas((0.0, 0.0), float("nan"))])


class TestOnlineMatchesBatch:
    def _run(self, seed, n_meas, noise_var, rows=6, cols=6, n_off_grid=0, fading_var=0.0):
        g = GridSpec(rows=rows, cols=cols, spacing=10.0, altitude=20.0)
        p = make_params(
            transmitters=(Transmitter((25.0, 25.0, 10.0), 10.0),),
            noise_var=noise_var,
            fading_var=fading_var,
        )
        rng = np.random.default_rng(seed)
        pts = spatial.grid_points(g)
        idx = rng.integers(0, g.num_points, size=n_meas)
        xmin, ymin, xmax, ymax = g.bounds()
        off_grid = rng.uniform((xmin, ymin), (xmax, ymax), size=(n_off_grid, 2))
        ms = [meas(q, float(rng.normal(-60.0, 3.0))) for q in [*pts[idx], *off_grid]]
        post = estimator.SurveyPosterior.from_grid(g, p)
        for m in ms:
            post.condition(channel.interpolation_taps(g, m.position), m.rss)
        ref = batch_posterior(g, p, 0, ms)
        return PosteriorState(mean=post.means[0], cov=post.covariance()), ref

    def _assert_agree(self, state, ref):
        scale_m = max(1.0, float(np.max(np.abs(ref.mean))))
        scale_c = max(1.0, float(np.max(np.abs(ref.cov))))
        assert np.max(np.abs(state.mean - ref.mean)) / scale_m < 1e-6
        assert np.max(np.abs(state.cov - ref.cov)) / scale_c < 1e-6

    def test_grid_point_sequences_agree_with_batch(self):
        self._assert_agree(*self._run(seed=4, n_meas=25, noise_var=0.25))

    def test_off_grid_sequences_with_fading_agree_with_batch(self):
        self._assert_agree(
            *self._run(seed=5, n_meas=10, noise_var=0.25, n_off_grid=30, fading_var=1.5)
        )

    @given(seed=st.integers(0, 50))
    @settings(max_examples=12)
    def test_agreement_across_seeds(self, seed):
        self._assert_agree(
            *self._run(seed=seed, n_meas=6, noise_var=0.5, rows=4, cols=4, n_off_grid=6)
        )


class TestServiceProbability:
    def test_mean_at_threshold_gives_half(self):
        p = estimator.service_probability(np.array([-65.0]), np.array([4.0]), -65.0)
        assert p[0] == pytest.approx(0.5)

    def test_three_sigma_above(self):
        p = estimator.service_probability(np.array([-65.0 + 6.0]), np.array([4.0]), -65.0)
        assert p[0] == pytest.approx(0.9986501019683699, rel=1e-12)

    def test_degenerate_variance_is_indicator(self):
        p = estimator.service_probability(np.array([-70.0, -60.0]), np.zeros(2), -65.0)
        np.testing.assert_array_equal(p, [0.0, 1.0])

    def test_monotone_in_mean_and_threshold(self):
        var = np.array([4.0])
        base, up = np.array([-65.0]), np.array([-63.0])
        assert estimator.service_probability(up, var, -65.0)[0] > (
            estimator.service_probability(base, var, -65.0)[0]
        )
        assert estimator.service_probability(base, var, -60.0)[0] < (
            estimator.service_probability(base, var, -65.0)[0]
        )

    def test_stacked_means_match_one_row_at_a_time(self):
        rng = np.random.default_rng(8)
        means = rng.normal(-65.0, 4.0, size=(3, 20))
        var = rng.uniform(0.0, 9.0, size=20)
        var[:4] = 0.0
        got = estimator.service_probability(means, var, -65.0)
        for row, mean in zip(got, means):
            np.testing.assert_array_equal(row, estimator.service_probability(mean, var, -65.0))

    @given(
        mean=st.floats(-90.0, -30.0),
        var=st.floats(0.0, 25.0),
        r_min=st.floats(-80.0, -40.0),
    )
    def test_always_in_unit_interval(self, mean, var, r_min):
        p = estimator.service_probability(np.array([mean]), np.array([var]), r_min)
        assert 0.0 <= p[0] <= 1.0

    @given(
        means=arrays(float, (2, 12), elements=st.floats(-90.0, -30.0)),
        var=arrays(float, 12, elements=st.floats(-1.0, 25.0)),
        zeros=arrays(bool, 12),
        r_min=st.floats(-80.0, -40.0),
    )
    def test_matches_oracle(self, means, var, zeros, r_min):
        # Variances without zeros, and with zeros (and negatives, floored at zero).
        var = np.where(zeros, 0.0, var)
        for mean in (means, means[0]):
            np.testing.assert_array_equal(
                estimator.service_probability(mean, var, r_min),
                oracles.service_probability(mean, var, r_min),
            )


class TestRankOneIdentity:
    def test_gain_form_equals_explicit_form(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            n = 50
            m = rng.normal(size=(n, n))
            cov = m @ m.T + n * np.eye(n)
            a = rng.normal(size=n)
            var = float(rng.uniform(0.1, 2.0))
            ca = cov @ a
            denom = var + float(a @ ca)
            gain = ca / denom
            via_gain = cov - np.outer(gain, ca)
            explicit = cov - np.outer(ca, ca) / denom
            assert np.max(np.abs(via_gain - explicit)) < 1e-10
