"""Survey execution and Monte Carlo aggregation tests."""

import os
import tracemalloc
from dataclasses import astuple, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aerosurvey import channel, estimator, harness, uncertainty
from aerosurvey.channel import ChannelParams, Transmitter
from aerosurvey.harness import SurveyConfig, monte_carlo, run_survey
from aerosurvey.planner import PlannerKind
from aerosurvey.spatial import GridSpec, Waypoint
import oracles
from oracles import init_posterior, online_update, sample_path

ALL_PLANNERS = [
    PlannerKind.MIN_COST,
    PlannerKind.GRID,
    PlannerKind.SPIRAL,
    PlannerKind.RANDOM,
]


def make_config(**kw):
    grid_kw = dict(rows=8, cols=8, spacing=10.0, altitude=20.0)
    for key in ("rows", "cols", "spacing", "altitude"):
        if key in kw:
            grid_kw[key] = kw.pop(key)
    chan_kw = dict(transmitters=(), shadow_var=9.0, noise_var=0.25)
    for key in ("transmitters", "shadow_var", "fading_var", "noise_var", "corr_distance"):
        if key in kw:
            chan_kw[key] = kw.pop(key)
    defaults = dict(
        grid=GridSpec(**grid_kw),
        channel=ChannelParams(**chan_kw),
        num_transmitters=2,
        max_measurements=25,
        seed=0,
    )
    defaults.update(kw)
    return SurveyConfig(**defaults)


# Episodes a min_cost or random survey flies before its idle guard fails it.
_EPISODES = harness.MAX_IDLE_EPISODES + 1


# Means on a quarter-dB lattice around -65 dBm hit the threshold exactly and
# tie in |mean - r_min|, between transmitters and across the threshold; the
# wide floats reach the saturated tails of the normal CDF.
_lattice_means = st.one_of(st.integers(-80, 80).map(lambda i: -65.0 + i / 4), st.floats(-200.0, 80.0))


def service_error_rate(means, served, r_min: float) -> float:
    """The error rate ``run_survey`` logs for one (K, N) stack: its error count over N."""
    return harness._service_errors(means, served, r_min).tolist() / served.size


class TestServiceErrorRate:
    def _served(self, powers, r_min=-65.0):
        """True service mask: any transmitter clears the threshold."""
        return np.any(powers >= r_min, axis=0)

    def test_perfect_estimate_gives_zero(self):
        powers = np.array([[-60.0, -70.0, -50.0, -80.0]])
        assert service_error_rate(powers, self._served(powers), -65.0) == 0.0

    def test_inverted_estimate_gives_one(self):
        served = self._served(np.array([[-60.0, -70.0, -50.0, -80.0]]))
        means = np.array([[-70.0, -60.0, -80.0, -50.0]])
        assert service_error_rate(means, served, -65.0) == 1.0

    def test_half_wrong(self):
        served = self._served(np.array([[-60.0, -70.0, -50.0, -80.0]]))
        means = np.array([[-60.0, -80.0, -70.0, -50.0]])
        assert service_error_rate(means, served, -65.0) == 0.5

    def test_any_transmitter_serves(self):
        served = self._served(np.array([[-80.0, -80.0], [-50.0, -80.0]]))
        means = np.array([[-90.0, -70.0], [-55.0, -75.0]])
        assert service_error_rate(means, served, -65.0) == 0.0

    @given(
        means=arrays(float, st.tuples(st.integers(1, 3), st.just(40)), elements=_lattice_means),
        var=arrays(float, 40, elements=st.one_of(st.just(0.0), st.floats(1e-12, 400.0))),
        served=arrays(bool, 40),
    )
    def test_matches_oracle(self, means, var, served):
        # The threshold rule exactly, for a stack and for each stack of a
        # block; and the probability rule (p >= 1/2 on the posterior) away
        # from 0 < |z| < 1e-15, where the normal CDF rounds to 1/2.
        stacks = (means, means[:, ::-1])
        got = service_error_rate(means, served, -65.0)
        assert type(got) is float and got == oracles.service_error_rate(means, served, -65.0)
        counts = harness._service_errors(np.stack(stacks), served, -65.0).tolist()
        assert [count / 40 for count in counts] == [oracles.service_error_rate(m, served, -65.0) for m in stacks]
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.abs(means + 65.0) / np.sqrt(var)
        clear = ~((z > 0) & (z < 1e-15)).any(axis=0)
        by_prob = np.any(oracles.service_probability(means, var, -65.0) >= 0.5, axis=0)
        np.testing.assert_array_equal(by_prob[clear], np.any(means >= -65.0, axis=0)[clear])


class TestServiceUncertaintyField:
    @given(
        means=arrays(float, st.tuples(st.integers(1, 3), st.just(30)), elements=_lattice_means),
        var=arrays(float, 30, elements=st.one_of(st.just(0.0), st.floats(1e-6, 400.0))),
        aggregation=st.sampled_from(["max", "mean"]),
    )
    def test_matches_per_transmitter_oracle(self, means, var, aggregation):
        # The oracle evaluates every transmitter; the slack covers the
        # rounding of 1 - p where the CDF saturates toward 1.
        got = uncertainty.service_uncertainty_field(means, var, -65.0, aggregation)
        per_tx = oracles.service_uncertainty(oracles.service_probability(means, var, -65.0))
        want = per_tx.max(axis=0) if aggregation == "max" else per_tx.mean(axis=0)
        assert got.shape == (30,) and not np.signbit(got).any()
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)

    def test_max_evaluates_the_mean_nearest_the_threshold(self, monkeypatch):
        # Ties in |mean - r_min| go to the first transmitter; zero variance
        # gives the indicator of the chosen mean, whose entropy is 0.
        seen = []
        real = estimator.service_probability

        def spy(mean, var, r_min):
            seen.append(np.array(mean))
            return real(mean, var, r_min)

        monkeypatch.setattr(estimator, "service_probability", spy)
        means = np.array([[-60.0, -70.0, -66.0, -64.0], [-66.0, -60.0, -64.0, -90.0]])
        field = uncertainty.service_uncertainty_field(means, np.array([4.0, 4.0, 0.0, 1.0]), -65.0, "max")
        np.testing.assert_array_equal(seen[0], [-66.0, -70.0, -66.0, -64.0])
        assert len(seen) == 1 and field[2] == 0.0

    def test_rejects_unknown_aggregation(self):
        with pytest.raises(ValueError, match="median"):
            uncertainty.service_uncertainty_field(np.zeros((2, 3)), np.ones(3), -65.0, "median")


class TestRunSurvey:
    def test_metrics_length_and_time_index(self):
        rec = run_survey(make_config(max_measurements=25))
        assert len(rec.metrics) == 26
        assert [r.t for r in rec.metrics] == list(range(26))
        assert len(rec.measurements) == 26

    def test_zero_budget_keeps_only_start(self):
        rec = run_survey(make_config(max_measurements=0))
        assert len(rec.measurements) == 1
        assert rec.measurements[0].position == (0.0, 0.0)
        assert rec.metrics[0].meters == 0.0

    def test_meters_accumulate_by_spacing(self):
        for kind in ALL_PLANNERS:
            rec = run_survey(make_config(planner=kind, max_measurements=20))
            for row in rec.metrics:
                assert row.meters == pytest.approx(row.t * 5.0, abs=1e-6)

    def test_start_measurement_taken_before_motion(self):
        rec = run_survey(make_config(start_position=Waypoint(30.0, 40.0)))
        assert rec.measurements[0].position == (30.0, 40.0)

    def test_same_seed_reproduces_record(self):
        a = run_survey(make_config(seed=9))
        b = run_survey(make_config(seed=9))
        assert [m.rss for m in a.measurements] == [m.rss for m in b.measurements]
        assert [m.position for m in a.measurements] == [
            m.position for m in b.measurements
        ]
        np.testing.assert_array_equal(a.ground_truth.powers, b.ground_truth.powers)
        assert a.metrics == b.metrics

    def test_run_id_changes_realization(self):
        a = run_survey(make_config(seed=9), run_id=0)
        b = run_survey(make_config(seed=9), run_id=1)
        assert not np.array_equal(a.ground_truth.powers, b.ground_truth.powers)

    def test_transmitters_drawn_when_unspecified(self):
        rec = run_survey(make_config())
        assert rec.params.num_transmitters == 2
        xmin, ymin, xmax, ymax = rec.config.grid.bounds()
        for tx in rec.params.transmitters:
            assert xmin <= tx.position[0] <= xmax
            assert ymin <= tx.position[1] <= ymax
            assert tx.position[2] == 10.0

    def test_fixed_transmitters_respected(self):
        tx = Transmitter((35.0, 35.0, 10.0), 10.0)
        rec = run_survey(make_config(transmitters=(tx,), num_transmitters=1))
        assert rec.params.transmitters == (tx,)

    def test_monotone_power_uncertainty(self):
        for kind in ALL_PLANNERS:
            rec = run_survey(make_config(planner=kind, seed=4))
            vals = [r.total_unc_power for r in rec.metrics]
            for a, b in zip(vals[:-1], vals[1:]):
                assert b <= a + 1e-9

    def test_shared_covariance_matches_per_transmitter_oracle(self):
        # Fold the recorded measurements into each transmitter on its own,
        # through dense copying updates; the survey's one shared low-rank
        # covariance and its per-transmitter means must agree. 31 measurements
        # stay below the re-base at 32, which the estimator tests cover.
        for kind in ALL_PLANNERS:
            cfg = make_config(planner=kind, seed=7, noise_var=0.25, max_measurements=30)
            rec = run_survey(cfg)
            shared = channel.grid_prior(cfg.grid, cfg.channel.shadow_var, cfg.channel.corr_distance)
            assert rec.posterior.prior_cov is shared
            assert rec.posterior.means.shape == (2, cfg.grid.num_points)
            cov = rec.posterior.covariance()
            noise_var = max(rec.params.noise_var, estimator.VAR_FLOOR)
            for k, mean in enumerate(rec.posterior.means):
                state = init_posterior(cfg.grid, rec.params, k)
                for m in rec.measurements:
                    taps = channel.interpolation_taps(cfg.grid, m.position)
                    state = online_update(state, taps, m.rss[k], noise_var)
                np.testing.assert_allclose(mean, state.mean, rtol=0, atol=1e-10)
                np.testing.assert_allclose(cov, state.cov, rtol=0, atol=1e-10)

    def test_posterior_diag_capped_by_prior(self):
        rec = run_survey(make_config(seed=2))
        assert np.max(np.diag(rec.posterior.covariance())) <= 9.0 + 1e-9

    def test_exhaustive_noiseless_survey_resolves_map(self):
        # no fading, no sensor noise: sweeping every grid point pins the field
        cfg = make_config(
            rows=5,
            cols=5,
            noise_var=0.0,
            planner=PlannerKind.GRID,
            max_measurements=60,
            measurement_spacing=10.0,
            num_transmitters=1,
        )
        rec = run_survey(cfg)
        assert rec.metrics[-1].total_unc_power < 0.01

    def test_snapshot_at_zero_is_prior(self):
        cfg = make_config(num_transmitters=1)
        rec = run_survey(cfg, snapshots=(0, 5))
        assert set(rec.snapshots) == {0, 5}
        snap = rec.snapshots[0]
        # before any measurement the power uncertainty is the prior: all ones
        np.testing.assert_allclose(snap.power_unc, 1.0)
        prior = init_posterior(cfg.grid, rec.params, 0)
        np.testing.assert_allclose(snap.posterior_means[0], prior.mean)

    def test_snapshot_excludes_current_measurement(self):
        rec = run_survey(make_config(num_transmitters=1), snapshots=(3,))
        snap = rec.snapshots[3]
        # state captured before measurement 3: uncertainty must match the
        # metrics row of measurement 2, not 3
        u2 = rec.metrics[2].total_unc_power
        u3 = rec.metrics[3].total_unc_power
        got = float(np.mean(snap.power_unc))
        assert got == pytest.approx(u2, abs=1e-12)
        assert got != pytest.approx(u3, abs=1e-12)

    def test_threshold_stop(self):
        cfg = make_config(
            max_measurements=500,
            uncertainty_threshold=0.45,
            target="service",
        )
        rec = run_survey(cfg)
        assert len(rec.metrics) < 501
        assert rec.metrics[-1].total_unc_service <= 0.45
        for row in rec.metrics[:-1]:
            assert row.total_unc_service > 0.45

    def test_single_point_grid_measures_in_place(self):
        cfg = make_config(
            rows=1,
            cols=1,
            max_measurements=4,
            num_transmitters=1,
            transmitters=(Transmitter((0.0, 1.0, 10.0), 10.0),),
        )
        rec = run_survey(cfg)
        assert len(rec.measurements) == 5
        assert all(m.position == (0.0, 0.0) for m in rec.measurements)

    def test_every_planner_runs_on_line_grid(self):
        # On a line the min-cost walk has only the two in-bounds moves.
        cases = [(1, 10, (0.0, 0.0)), (10, 1, (0.0, 0.0)), (1, 2, (0.0, 0.0)), (1, 2, (3.0, 0.0))]
        for rows, cols, start in cases:
            for kind in ALL_PLANNERS:
                cfg = make_config(
                    rows=rows,
                    cols=cols,
                    planner=kind,
                    max_measurements=20,
                    start_position=Waypoint(*start),
                )
                rec = run_survey(cfg)
                assert len(rec.metrics) == 21
                for x, y in (m.position for m in rec.measurements):
                    assert cfg.grid.contains(x, y) and (x == 0.0 if cols == 1 else y == 0.0)

    def test_positions_follow_the_shared_path_sampler(self):
        # The survey samples its flight with the same sampler as the oracle,
        # so re-sampling the recorded polyline reproduces every position up to
        # the last corner exactly. The final segment ends at the last sample
        # itself, a rounded point, so re-sampling it may move its samples by
        # up to the sampler's 1e-9 m tolerance.
        for seed in range(10):
            for kind in ALL_PLANNERS:
                rec = run_survey(make_config(planner=kind, seed=seed, max_measurements=60))
                got = np.array([m.position for m in rec.measurements])
                want = sample_path(rec.waypoints, rec.config.measurement_spacing)
                head = len(sample_path(rec.waypoints[:-1], rec.config.measurement_spacing))
                where = f"{kind} seed {seed}"
                assert got.shape == want.shape, where
                np.testing.assert_array_equal(got[:head], want[:head], err_msg=where)
                np.testing.assert_allclose(got[head:], want[head:], rtol=0, atol=1e-9, err_msg=where)

    def test_one_power_field_per_measurement(self, monkeypatch):
        # All transmitters share one covariance, so one power field serves
        # them all: the metric pass evaluates one row of N variances per
        # measurement, however its blocks split the survey.
        calls = []
        real = harness.unc.power_uncertainty

        def counted(state, params):
            calls.append(np.shape(state))
            return real(state, params)

        monkeypatch.setattr(harness.unc, "power_uncertainty", counted)
        cfg = make_config(num_transmitters=3, max_measurements=10, planner=PlannerKind.GRID)
        rec = run_survey(cfg)
        assert all(len(shape) == 2 and shape[1] == cfg.grid.num_points for shape in calls), calls
        assert sum(shape[0] for shape in calls) == len(rec.measurements)

    def test_fields_computed_once_per_posterior(self, monkeypatch):
        # Each measurement's fields are evaluated once, as one row of a block
        # pass, which feeds both the metrics and the next plan; only snapshots
        # compute them again, and only snapshots evaluate the (K, N) service
        # probabilities their files hold. Under max aggregation a block row is
        # N values, under mean K rows of N. A pass runs when its block is full,
        # when the planner asks for its field, or at the end, never more often.
        # The planner picks one destination per route.
        calls = {"service_probability": [], "service_uncertainty": [], "pick_destination": [], "min_cost_route": []}

        def counting(module, name):
            real = getattr(module, name)

            def wrapped(*args, **kwargs):
                calls[name].append(np.shape(args[0]))
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapped)

        counting(estimator, "service_probability")
        counting(harness.unc, "service_uncertainty")
        counting(harness.planner, "pick_destination")
        counting(harness.planner, "min_cost_route")
        for aggregation, field_shape in (("max", (100,)), ("mean", (3, 100))):
            for found in calls.values():
                found.clear()
            cfg = make_config(rows=10, cols=10, seed=11, max_measurements=300, num_transmitters=3, aggregation=aggregation)
            rec = run_survey(cfg, snapshots=(0, 7, 100))
            measured, files = len(rec.measurements), len(rec.snapshots)
            assert files == 3
            # A snapshot evaluates one field_shape; a block pass, (rows, *field_shape).
            entropy = calls["service_uncertainty"]
            blocks = [shape for shape in entropy if shape != field_shape]
            assert all(shape[1:] == field_shape for shape in blocks), (aggregation, blocks)
            assert sum(1 if shape == field_shape else shape[0] for shape in entropy) == measured + files
            assert len(entropy) - len(blocks) == files
            capacity = max(1, harness.BLOCK_VALUES // cfg.grid.num_points)
            assert 1 < len(blocks) <= len(calls["pick_destination"]) + -(-measured // capacity) + 1
            # (K, N) probabilities: each snapshot's file, and under mean its field too.
            probs = calls["service_probability"]
            assert probs.count((3, 100)) == files * (1 if aggregation == "max" else 2), aggregation
            assert sorted(shape for shape in probs if shape != (3, 100) and shape != (100,)) == sorted(blocks)
            assert len(calls["min_cost_route"]) > 0
            assert len(calls["pick_destination"]) == len(calls["min_cost_route"])

    def test_interpolation_taps_computed_once_per_measurement(self, monkeypatch):
        calls = []
        real = channel.interpolation_taps

        def counted(grid, point):
            calls.append(point)
            return real(grid, point)

        monkeypatch.setattr(channel, "interpolation_taps", counted)
        for kind in ALL_PLANNERS:
            calls.clear()
            rec = run_survey(make_config(planner=kind, max_measurements=20))
            assert len(calls) == len(rec.measurements), kind

    def test_large_survey_allocates_no_dense_covariance(self):
        # 20 measurements on a 60 x 50 grid stay far below the re-base, and
        # the prior is read from its kernel table, so the survey, the prior's
        # cold build included, holds no N x N array: U's reserved N/2 rows
        # are the largest allocation.
        cfg = make_config(rows=60, cols=50, max_measurements=19)
        n = cfg.grid.num_points
        channel.grid_prior.cache_clear()
        try:
            tracemalloc.start()
            rec = run_survey(cfg)
            _, peak = tracemalloc.get_traced_memory()
            post = rec.posterior
            assert len(rec.measurements) == 20 and post.rank == 20
            assert post.prior_cov is channel.grid_prior(cfg.grid, cfg.channel.shadow_var, cfg.channel.corr_distance)
            assert post.prior_cov.table.size < n * n
            held = [v for v in vars(post).values() if isinstance(v, np.ndarray)]
            assert all(a.size < n * n for a in held), [a.shape for a in held]
            assert peak < 0.6 * n * n * 8, f"peak {peak / 2**20:.0f} MiB"
        finally:
            tracemalloc.stop()
            channel.grid_prior.cache_clear()

    def test_rebasing_survey_peaks_at_one_fold(self):
        # 901 measurements on a 30 x 30 grid re-base the posterior twice. The
        # first re-base builds the dense prior from the kernel table while U
        # is full; later ones run in place. So the peak, the prior's cold
        # build included, is U plus one N x N array, plus the survey's
        # record, fields and temporaries: well under the quarter of a dense
        # copy allowed here, which one N x N temporary would exceed.
        cfg = make_config(rows=30, cols=30, max_measurements=900)
        n = cfg.grid.num_points
        channel.grid_prior.cache_clear()
        try:
            tracemalloc.start()
            rec = run_survey(cfg)
            _, peak = tracemalloc.get_traced_memory()
            assert rec.posterior.rank > 2 * estimator.fold_rank(n)
            one_fold = (estimator.fold_rank(n) + n) * n * 8
            assert peak < one_fold + n * n * 8 // 4, f"peak {peak / 2**20:.2f} MiB"
        finally:
            tracemalloc.stop()
            channel.grid_prior.cache_clear()

    def test_stalled_planner_stops(self, monkeypatch):
        # A planner that keeps the drone where it is never moves or measures.
        monkeypatch.setattr(harness.planner, "random_route", lambda grid, rng: [Waypoint(0.0, 0.0)])
        with pytest.raises(RuntimeError, match="no measurement in 10000"):
            run_survey(make_config(planner=PlannerKind.RANDOM))

    def test_sweep_spacing_limit(self):
        # On a 2 x 2 grid of 10 m both sweeps fly three 10 m edges per
        # episode, and every episode after the first flies a 10 m return leg
        # to the sweep's start first. So the survey still measures at the end
        # of its 10,001st episode; beyond that, give or take one part in a
        # million, the config is rejected before anything flies.
        reach = _EPISODES * 30.0 + (_EPISODES - 1) * 10.0
        limit = reach * (1.0 + 1e-6) + 1e-6
        for kind in (PlannerKind.GRID, PlannerKind.SPIRAL):
            cfg = make_config(rows=2, cols=2, spacing=10.0, planner=kind, max_measurements=1)
            rec = run_survey(replace(cfg, measurement_spacing=reach))
            assert len(rec.measurements) == 2, kind
            assert rec.metrics[-1].meters == reach
            replace(cfg, measurement_spacing=limit)
            with pytest.raises(ValueError, match="measurement_spacing"):
                replace(cfg, measurement_spacing=np.nextafter(limit, np.inf))
            # Runs that never fly are not limited.
            replace(cfg, measurement_spacing=1e12, max_measurements=0)
            make_config(rows=1, cols=1, planner=kind, measurement_spacing=1e12)

    @pytest.mark.parametrize(
        "kind, rows, cols, start, reach",
        [
            # 10,001 random episodes fly at most 10,001 grid diagonals.
            (PlannerKind.RANDOM, 2, 3, (3.0, 4.0), _EPISODES * float(np.hypot(20.0, 10.0))),
            (PlannerKind.RANDOM, 1, 4, (3.0, 0.0), _EPISODES * 30.0),
            # 10,001 min_cost episodes fly at most the hop from the start to
            # its nearest node plus 10,001 paths of N - 1 king moves; a line
            # has no diagonal moves.
            (PlannerKind.MIN_COST, 2, 3, (3.0, 4.0), 5.0 + _EPISODES * 5 * float(np.hypot(10.0, 10.0))),
            (PlannerKind.MIN_COST, 1, 4, (3.0, 0.0), 3.0 + _EPISODES * 3 * 10.0),
            (PlannerKind.MIN_COST, 4, 1, (0.0, 3.0), 3.0 + _EPISODES * 3 * 10.0),
        ],
    )
    def test_planned_spacing_limit(self, kind, rows, cols, start, reach):
        # A spacing beyond the reach, give or take one part in a million, is
        # rejected before anything flies: the survey could never take a
        # second measurement.
        cfg = make_config(
            rows=rows, cols=cols, spacing=10.0, planner=kind, max_measurements=1, start_position=Waypoint(*start)
        )
        limit = reach * (1.0 + 1e-6) + 1e-6
        replace(cfg, measurement_spacing=limit)
        with pytest.raises(ValueError, match="second measurement"):
            replace(cfg, measurement_spacing=np.nextafter(limit, np.inf))
        # Runs that never fly are not limited; runs that a threshold may stop
        # before they fly are.
        replace(cfg, measurement_spacing=1e12, max_measurements=0)
        with pytest.raises(ValueError, match="second measurement"):
            replace(cfg, measurement_spacing=1e12, uncertainty_threshold=0.5)
        make_config(rows=1, cols=1, planner=kind, measurement_spacing=1e12)

    def test_long_planned_spacing_within_reach_runs(self):
        # Far longer than any one route, yet reached within the idle guard.
        for kind in (PlannerKind.RANDOM, PlannerKind.MIN_COST):
            cfg = make_config(rows=3, cols=3, planner=kind, max_measurements=2, measurement_spacing=500.0)
            rec = run_survey(cfg)
            assert [row.meters for row in rec.metrics] == pytest.approx([0.0, 500.0, 1000.0])

    def test_prior_means_and_truth_from_the_link_budgets(self):
        # The run's prior means are the link budgets, and its truth is link
        # budget - shadowing + fading, bit for bit, drawn from the run's stream.
        cfg = make_config(num_transmitters=3, fading_var=1.5, max_measurements=0, seed=4)
        rec = run_survey(cfg, run_id=2, snapshots=(0,))
        grid, params = cfg.grid, rec.params
        base = np.vstack([channel.grid_base_powers(grid, params, tx) for tx in params.transmitters])
        assert rec.snapshots[0].posterior_means.tobytes() == base.tobytes()
        rng = np.random.default_rng([4, 2])
        assert channel.draw_transmitters(grid, 3, cfg.tx_height, cfg.tx_power_dbm, rng) == params.transmitters
        shadow = oracles.shadowing(grid, params, rng)
        for k in range(3):
            fading = np.sqrt(1.5) * rng.standard_normal(grid.num_points)
            assert rec.ground_truth.powers[k].tobytes() == (base[k] - shadow[k] + fading).tobytes()

    def test_waypoints_form_connected_polyline(self):
        rec = run_survey(make_config(seed=6))
        assert len(rec.waypoints) >= 2
        first = rec.waypoints[0]
        assert (first.x, first.y) == (0.0, 0.0)

    def test_all_planners_produce_full_runs(self):
        for kind in ALL_PLANNERS:
            rec = run_survey(make_config(planner=kind, max_measurements=15))
            assert len(rec.metrics) == 16, kind

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            make_config(max_measurements=None)
        with pytest.raises(ValueError):
            make_config(max_measurements=2.5)
        with pytest.raises(ValueError, match="uncertainty_threshold"):
            make_config(uncertainty_threshold=0.0)
        with pytest.raises(ValueError, match="uncertainty_threshold"):
            make_config(uncertainty_threshold=1.01)
        with pytest.raises(ValueError):
            make_config(measurement_spacing=0.0)
        with pytest.raises(ValueError, match="measurement_spacing"):
            make_config(measurement_spacing=float("inf"))
        with pytest.raises(ValueError):
            make_config(start_position=Waypoint(-5.0, 0.0))
        with pytest.raises(ValueError):
            make_config(aggregation="median")
        with pytest.raises(ValueError):
            make_config(target="coverage")
        with pytest.raises(ValueError, match="tx_height"):
            make_config(tx_height=-5.0)
        with pytest.raises(ValueError, match="tx_height"):
            replace(make_config(), tx_height=-5.0)
        # Integer fields take ints only: no floats, no bools.
        cfg = make_config()
        for name in ("rows", "cols"):
            for value in (4.0, True):
                shape = {"rows": 4, "cols": 4, name: value}
                with pytest.raises(ValueError, match=f"{name} must be an integer"):
                    replace(cfg, grid=GridSpec(spacing=10.0, **shape))
        for name in ("num_transmitters", "seed"):
            for value in (2.0, 1.5, True):
                with pytest.raises(ValueError, match=f"{name} must be an integer"):
                    replace(cfg, **{name: value})
        on_node = (Transmitter((10.0, 10.0, 10.0), 10.0),)
        with pytest.raises(ValueError, match="coincides with the transmitter"):
            make_config(rows=5, cols=5, altitude=10.0, transmitters=on_node)
        # Above the survey altitude, or between nodes, a transmitter is fine.
        make_config(rows=5, cols=5, altitude=20.0, transmitters=on_node)
        make_config(rows=5, cols=5, altitude=10.0, transmitters=(Transmitter((15.0, 10.0, 10.0), 10.0),))
        # A one-point grid draws every transmitter onto its point, so the drawn
        # transmitters need another height than the grid's.
        with pytest.raises(ValueError, match="one-point grid"):
            make_config(rows=1, cols=1, altitude=10.0, tx_height=10.0)
        make_config(rows=1, cols=1, altitude=10.0, tx_height=10.0, transmitters=(Transmitter((3.0, 0.0, 10.0), 10.0),))


def _bits(values) -> bytes:
    """The bytes of a float array, so that -0.0 differs from 0.0 and nan equals itself."""
    return np.asarray(values, dtype=float).tobytes()


# Surveys checked against the loop oracle: past the re-base at N / 2 = 50
# measurements, three transmitters on a line, a one-point grid, a threshold
# stop, and a spacing longer than any one route, all with measurement noise.
_ORACLE_SURVEYS = {
    "rebase": dict(rows=10, cols=10, max_measurements=80),
    "line": dict(rows=1, cols=12, num_transmitters=3, max_measurements=100),
    "point": dict(rows=1, cols=1, max_measurements=20),
    "threshold": dict(uncertainty_threshold=0.2, max_measurements=400),
    "long_spacing": dict(rows=3, cols=3, max_measurements=5, measurement_spacing=500.0),
}


# Surveys whose records must not depend on how the metric pass splits them
# into blocks: each planner kind that plans differently, a threshold stop,
# three transmitters under mean aggregation with fading, the power target,
# and a one-point grid.
_BLOCK_SURVEYS = {
    "min_cost": dict(max_measurements=60),
    "grid": dict(planner=PlannerKind.GRID, max_measurements=60),
    "random": dict(planner=PlannerKind.RANDOM, max_measurements=60),
    "threshold": dict(uncertainty_threshold=0.2, max_measurements=400),
    "mean_three": dict(num_transmitters=3, aggregation="mean", fading_var=1.0, max_measurements=60),
    "power": dict(target="power", max_measurements=60),
    "point": dict(rows=1, cols=1, max_measurements=20),
}


class TestFlightAndFilter:
    @pytest.mark.parametrize("kind", ALL_PLANNERS)
    @pytest.mark.parametrize("survey", list(_ORACLE_SURVEYS))
    def test_matches_loop_oracle(self, survey, kind):
        cfg = make_config(planner=kind, **_ORACLE_SURVEYS[survey])
        wanted = (0, 3, 5, 60)
        got = run_survey(cfg, snapshots=wanted)
        want = oracles.survey_oracle(cfg, snapshots=wanted)
        assert _bits([m.position + m.rss for m in got.measurements]) == _bits(
            [m.position + m.rss for m in want.measurements]
        )
        assert _bits([astuple(row) for row in got.metrics]) == _bits([astuple(row) for row in want.metrics])
        assert got.waypoints == want.waypoints
        assert _bits(got.posterior.means) == _bits(want.posterior.means)
        assert got.snapshots.keys() == want.snapshots.keys()
        for t, snap in got.snapshots.items():
            for name in ("posterior_means", "service_prob", "power_unc", "service_unc"):
                assert _bits(getattr(snap, name)) == _bits(getattr(want.snapshots[t], name)), (t, name)
        if survey == "threshold" and kind is not PlannerKind.RANDOM:
            # Random routes stay above the threshold within the budget.
            assert len(got.metrics) < cfg.max_measurements + 1

    @pytest.mark.parametrize("survey", list(_BLOCK_SURVEYS))
    def test_block_capacity_leaves_the_record_unchanged(self, survey, monkeypatch):
        # The metric pass evaluates up to max(1, BLOCK_VALUES // N) measurements
        # at once. A block of one row is a pass per measurement, and one of
        # more rows than the survey has passes only when the planner asks for
        # its field and at the end. Every capacity gives the per-step oracle's
        # record to the bit; a threshold survey passes after every measurement.
        cfg = make_config(**_BLOCK_SURVEYS[survey])
        n, measured = cfg.grid.num_points, cfg.max_measurements + 1
        wanted = (0, 3, 17, 40)
        want = oracles.survey_oracle(cfg, snapshots=wanted)
        shapes = []
        real = harness.unc.power_uncertainty

        def counted(var, params):
            shapes.append(np.shape(var))
            return real(var, params)

        monkeypatch.setattr(harness.unc, "power_uncertainty", counted)
        for capacity in (1, 2, max(1, harness.BLOCK_VALUES // n), measured + 1):
            monkeypatch.setattr(harness, "BLOCK_VALUES", capacity * n)
            shapes.clear()
            got = run_survey(cfg, snapshots=wanted)
            where = (survey, capacity)
            assert _bits([astuple(row) for row in got.metrics]) == _bits([astuple(row) for row in want.metrics]), where
            assert got.waypoints == want.waypoints, where
            assert _bits([m.position + m.rss for m in got.measurements]) == _bits(
                [m.position + m.rss for m in want.measurements]
            ), where
            assert got.snapshots.keys() == want.snapshots.keys(), where
            for t, snap in got.snapshots.items():
                for name in ("posterior_means", "service_prob", "power_unc", "service_unc"):
                    assert _bits(getattr(snap, name)) == _bits(getattr(want.snapshots[t], name)), (where, t, name)
            # Snapshots evaluate one (N,) field each; a pass, (rows, N).
            rows = [shape[0] for shape in shapes if len(shape) == 2]
            assert len(shapes) - len(rows) == len(got.snapshots), where
            assert sum(rows) == len(got.measurements), where
            assert max(rows) <= (1 if cfg.uncertainty_threshold is not None else capacity), where

    # No shrinking: when the reach is wrong, each example tried flies up to
    # 10,001 idle episodes, and shrinking took minutes to report a failure.
    @settings(max_examples=8, phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(
        shape=st.tuples(st.integers(1, 3), st.integers(1, 3)).filter(lambda s: s[0] * s[1] > 1),
        kind=st.sampled_from(ALL_PLANNERS),
        start=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        threshold=st.sampled_from([None, 0.5]),
    )
    def test_configs_past_the_reach_are_rejected_and_would_idle(self, shape, kind, start, threshold):
        # A spacing just past what 10,001 episodes can fly is rejected up
        # front, with or without a threshold; built anyway, the survey never
        # takes its second measurement and its idle guard fails it.
        rows, cols = shape
        grid = GridSpec(rows=rows, cols=cols, spacing=10.0, altitude=20.0)
        here = Waypoint(start[0] * (cols - 1) * 10.0, start[1] * (rows - 1) * 10.0)
        reach = harness._idle_reach(grid, kind, here)
        past = dict(
            rows=rows,
            cols=cols,
            planner=kind,
            start_position=here,
            max_measurements=1,
            measurement_spacing=np.nextafter(reach * (1.0 + 1e-6) + 1e-6, np.inf),
        )
        with pytest.raises(ValueError, match="second measurement"):
            make_config(uncertainty_threshold=threshold, **past)
        with mock.patch.object(harness, "_idle_reach", return_value=np.inf):
            cfg = make_config(**past)
        with pytest.raises(RuntimeError, match="no measurement in 10000"):
            run_survey(cfg)


class TestEqualTimeFairness:
    def test_meters_at_fixed_t_identical_across_planners(self):
        recs = {
            kind: run_survey(make_config(planner=kind, max_measurements=30))
            for kind in ALL_PLANNERS
        }
        for t in (5, 15, 30):
            meters = {k: recs[k].metrics[t].meters for k in recs}
            values = set(round(v, 9) for v in meters.values())
            assert len(values) == 1, meters


class TestMonteCarlo:
    def test_threshold_config_rejected_before_running(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("run_survey must not be called")

        monkeypatch.setattr(harness, "run_survey", fail)
        with pytest.raises(ValueError, match="uncertainty_threshold"):
            monte_carlo(make_config(uncertainty_threshold=0.45), 2)

    def test_single_run_matches_survey(self):
        cfg = make_config(max_measurements=10)
        mc = monte_carlo(cfg, 1)
        rec = run_survey(cfg, run_id=0)
        np.testing.assert_allclose(
            mc.mean_total_unc_service,
            [r.total_unc_service for r in rec.metrics],
            atol=1e-12,
        )
        np.testing.assert_array_equal(mc.std_total_unc_service, 0.0)
        np.testing.assert_array_equal(mc.std_meters, 0.0)

    def test_metric_arrays_have_aligned_length(self):
        cfg = make_config(max_measurements=12)
        mc = monte_carlo(cfg, 4)
        assert len(mc.t) == 13
        for arr in (
            mc.mean_meters,
            mc.std_meters,
            mc.mean_total_unc_power,
            mc.std_total_unc_power,
            mc.mean_total_unc_service,
            mc.std_total_unc_service,
            mc.mean_service_error_rate,
            mc.std_service_error_rate,
        ):
            assert len(arr) == 13

    def test_population_std(self):
        cfg = make_config(max_measurements=6)
        mc = monte_carlo(cfg, 3)
        runs = [run_survey(cfg, run_id=i) for i in range(3)]
        vals = np.array([[r.total_unc_service for r in rec.metrics] for rec in runs])
        np.testing.assert_allclose(mc.mean_total_unc_service, vals.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(
            mc.std_total_unc_service, vals.std(axis=0, ddof=0), atol=1e-12
        )

    def test_metrics_equal_in_every_run_have_zero_std(self):
        # A sweep flies the same path, so its power uncertainty does not
        # depend on the run. The mean of three equal floats need not equal
        # them, so a deviation about the mean could read 1.1e-16.
        mc = monte_carlo(make_config(planner=PlannerKind.GRID, max_measurements=25), 3)
        assert not mc.std_total_unc_power.any()
        assert not mc.std_meters.any()

    def test_rejects_more_than_one_worker(self):
        with pytest.raises(ValueError, match="workers"):
            monte_carlo(make_config(max_measurements=2), 2, workers=2)

    def test_serial_runs_share_one_factorisation(self):
        # A cold Monte Carlo builds the 1600-point grid prior and the square
        # root of its circulant embedding once for all runs.
        channel.grid_prior.cache_clear()
        channel.circulant_root.cache_clear()
        cfg = make_config(rows=40, cols=40, max_measurements=2)
        monte_carlo(cfg, 3)
        for cached in (channel.grid_prior, channel.circulant_root):
            info = cached.cache_info()
            assert (info.misses, info.currsize) == (1, 1), cached

    def test_finished_runs_are_not_kept(self):
        # Each run's record, ground truth included, is freed when the run
        # ends: ten runs peak no higher than two, give or take one ground truth.
        cfg = make_config(rows=40, cols=40, max_measurements=2)
        monte_carlo(cfg, 1)  # warm the grid prior and other caches
        ground_truth_bytes = run_survey(cfg).ground_truth.powers.nbytes
        peaks = {}
        for runs in (2, 10):
            tracemalloc.start()
            try:
                monte_carlo(cfg, runs)
                peaks[runs] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[10] < peaks[2] + ground_truth_bytes, peaks

    def test_planner_identity_recorded(self):
        cfg = make_config(max_measurements=5, planner=PlannerKind.SPIRAL)
        mc = monte_carlo(cfg, 2)
        assert mc.planner is PlannerKind.SPIRAL
        assert mc.runs == 2

    def test_rejects_nonpositive_runs(self):
        with pytest.raises(ValueError):
            monte_carlo(make_config(), 0)

    def test_common_random_numbers_share_environments(self):
        # two planners under the same seed must see identical ground truths
        # per run id, so planner comparisons are paired
        cfg_a = make_config(planner=PlannerKind.GRID, max_measurements=5, seed=11)
        cfg_b = make_config(planner=PlannerKind.SPIRAL, max_measurements=5, seed=11)
        rec_a = run_survey(cfg_a, run_id=3)
        rec_b = run_survey(cfg_b, run_id=3)
        np.testing.assert_array_equal(
            rec_a.ground_truth.powers, rec_b.ground_truth.powers
        )
