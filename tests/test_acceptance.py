"""End-to-end acceptance checks for the survey engine.

Each test prints one PASS/FAIL line so the suite doubles as a checklist:

1. the survey posterior matches the batch posterior on random on-node and
   off-grid measurements, with and without fading
2. the survey posterior's one update, before and after a re-base, equals
   the explicit rank-one formula
3. sampled shadowing reproduces its covariance function statistically
4. total power uncertainty never increases during a survey
5. prior service uncertainty concentrates on rings around the transmitters
6. the uncertainty-driven planner beats the baselines in Monte Carlo
7. min-cost routes are optimal against exhaustive path enumeration
8. repeated Monte Carlo invocations produce byte-identical CSVs, and the
   statistics do not depend on the order the runs execute in
"""

import json
import os
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from aerosurvey import channel, cli, estimator, planner, spatial
from aerosurvey.channel import ChannelParams, Transmitter
from aerosurvey.cli import default_config
from aerosurvey.harness import monte_carlo, run_survey
from aerosurvey.planner import PlannerKind
from aerosurvey.spatial import GridSpec, Waypoint
from oracles import batch_posterior, enumerate_best_cost, route_cost, shadow_cov_matrix


@contextmanager
def report(name):
    """Print one PASS/FAIL line, followed by any details the check appended."""
    details = []
    try:
        yield details
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL", *details)
        raise
    print(f"ACCEPTANCE {name}: PASS", *details)


def test_01_online_matches_batch_posterior():
    with report("1 online/batch equivalence"):
        grid = GridSpec(rows=10, cols=10, spacing=10.0, altitude=20.0)
        params = ChannelParams(
            transmitters=(
                Transmitter((35.0, 25.0, 10.0), 10.0),
                Transmitter((75.0, 65.0, 10.0), 10.0),
            ),
            shadow_var=9.0,
            corr_distance=50.0,
            fading_var=0.0,
            noise_var=0.25,
        )
        rng = np.random.default_rng(123)
        pts = spatial.grid_points(grid)
        xmin, ymin, xmax, ymax = grid.bounds()
        start = time.perf_counter()
        for fading_var in (0.0, 1.5):
            for tx in range(2):
                # 20 measurements on random nodes, 20 uniform over the rectangle
                positions = [
                    *pts[rng.integers(0, grid.num_points, size=20)],
                    *rng.uniform((xmin, ymin), (xmax, ymax), size=(20, 2)),
                ]
                ms = [
                    channel.Measurement(
                        position=(float(x), float(y)),
                        rss=(float(rng.normal(-60.0, 3.0)),),
                    )
                    for x, y in positions
                ]
                single = replace(
                    params, transmitters=(params.transmitters[tx],), fading_var=fading_var
                )
                posterior = estimator.SurveyPosterior.from_grid(grid, single)
                for m in ms:
                    posterior.condition(channel.interpolation_taps(grid, m.position), m.rss)
                ref = batch_posterior(grid, single, 0, ms)
                rel_mean = np.max(np.abs(posterior.means[0] - ref.mean)) / np.max(np.abs(ref.mean))
                rel_cov = np.max(np.abs(posterior.covariance() - ref.cov)) / np.max(np.abs(ref.cov))
                assert rel_mean < 1e-6, f"mean relative error {rel_mean:.2e}"
                assert rel_cov < 1e-6, f"covariance relative error {rel_cov:.2e}"
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_02_gain_form_equals_explicit_rank_one_update():
    with report("2 rank-one update identity"):
        rng = np.random.default_rng(2024)
        n = 50
        for _ in range(100):
            m = rng.normal(size=(n, n))
            cov = m @ m.T + n * np.eye(n)
            mean = rng.normal(size=n)
            a = rng.normal(size=n)
            var = float(rng.uniform(0.1, 2.0))
            y = float(rng.normal())
            ca = cov @ a
            denom = var + float(a @ ca)
            explicit_cov = cov - np.outer(ca, ca) / denom
            explicit_mean = mean + ca * (y - float(a @ mean)) / denom
            # Before and after a re-base: a fresh posterior conditions on the
            # given prior; one re-based by covariance() on its own copy.
            for rebased in (False, True):
                got = estimator.SurveyPosterior(cov, 0.0, mean[None], var)
                if rebased:
                    got.covariance()
                got.condition((np.arange(n), a), [y])
                assert np.max(np.abs(got.covariance() - explicit_cov)) < 1e-10
                assert np.max(np.abs(got.means[0] - explicit_mean)) < 1e-10


def test_03_sampled_shadowing_matches_covariance_function():
    with report("3 shadowing statistics"):
        start = time.perf_counter()
        grid = GridSpec(rows=6, cols=5, spacing=10.0, altitude=20.0)
        tx = Transmitter((1e6, 1e6, 10.0), 10.0)
        params = ChannelParams(transmitters=(tx,), shadow_var=9.0, corr_distance=50.0)
        pts = spatial.grid_points(grid)
        expected = shadow_cov_matrix(pts, params)
        base = channel.grid_base_powers(grid, params, tx)
        runs = 2000
        rng = np.random.default_rng(0)
        draws = np.empty((runs, grid.num_points))
        for i in range(runs):
            draws[i] = base - channel.sample_ground_truth(grid, params, rng).powers[0]
        sample = draws.T @ draws / runs
        diag = np.diag(expected)
        se = np.sqrt((np.outer(diag, diag) + expected**2) / runs)
        worst = float(np.max(np.abs(sample - expected) / se))
        assert worst < 3.0, f"worst covariance entry at {worst:.2f} standard errors"
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_04_total_power_uncertainty_never_increases():
    with report("4 monotone uncertainty"):
        grid = GridSpec(rows=8, cols=8, spacing=10.0, altitude=20.0)
        for kind in (PlannerKind.MIN_COST, PlannerKind.GRID, PlannerKind.SPIRAL, PlannerKind.RANDOM):
            for seed in (0, 1, 2):
                cfg = cli.default_config(
                    {
                        "rows": 8,
                        "cols": 8,
                        "max_measurements": 40,
                        "noise_var": 0.25,
                        "planner": kind.value,
                        "seed": seed,
                    }
                )
                rec = run_survey(cfg)
                vals = [r.total_unc_power for r in rec.metrics]
                for a, b in zip(vals[:-1], vals[1:]):
                    assert b <= a + 1e-9, (kind, seed)
                assert np.max(np.diag(rec.posterior.covariance())) <= 9.0 + 1e-9

        # per-update variance cap with fading in the prior
        params = ChannelParams(
            transmitters=(Transmitter((35.0, 35.0, 10.0), 10.0),),
            shadow_var=9.0,
            fading_var=1.5,
            noise_var=0.25,
        )
        posterior = estimator.SurveyPosterior.from_grid(grid, params)
        rng = np.random.default_rng(7)
        cap = 9.0 + 1.5 + 1e-9
        for _ in range(40):  # past the re-base at 32
            point = (float(rng.uniform(0, 70)), float(rng.uniform(0, 70)))
            posterior.condition(channel.interpolation_taps(grid, point), [float(rng.normal(-60, 3))])
            assert np.max(posterior.var) <= cap


def test_05_prior_service_uncertainty_rings_hug_threshold_contours():
    with report("5 service uncertainty rings"):
        cfg = default_config()
        rec = run_survey(cfg, snapshots=(0,))
        snap = rec.snapshots[0]
        grid, params = cfg.grid, rec.params

        # planar radius where the deterministic link budget crosses r_min
        def ring_radius(tx):
            d3 = (channel.SPEED_OF_LIGHT / (4.0 * np.pi * params.frequency)) * 10.0 ** (
                (tx.power_dbm - params.shadow_mean - cfg.r_min)
                / (10.0 * params.pathloss_exponent)
            )
            dz = grid.altitude - tx.position[2]
            gap = d3 * d3 - dz * dz
            return float(np.sqrt(gap)) if gap > 0 else 0.0

        radii = [ring_radius(tx) for tx in params.transmitters]
        pts = spatial.grid_points(grid)
        top = np.argsort(snap.service_unc)[::-1][: grid.num_points // 10]
        for j in top:
            x, y = pts[j]
            planar, rho = min(
                (
                    (float(np.hypot(x - tx.position[0], y - tx.position[1])), r)
                    for tx, r in zip(params.transmitters, radii)
                ),
                key=lambda d: d[0],
            )
            assert abs(planar - rho) <= grid.spacing, (
                f"point {j} at ({x}, {y}) is {abs(planar - rho):.1f} m off its ring"
            )


def test_06_uncertainty_planner_beats_baselines_in_monte_carlo():
    with report("6 planner benchmark") as details:
        start = time.perf_counter()
        cfg = default_config()
        results = {
            kind: monte_carlo(replace(cfg, planner=kind), 50)
            for kind in (
                PlannerKind.MIN_COST,
                PlannerKind.RANDOM,
                PlannerKind.GRID,
                PlannerKind.SPIRAL,
            )
        }
        mc = results[PlannerKind.MIN_COST]
        rnd = results[PlannerKind.RANDOM]
        # min_cost's lead over each baseline on both metrics, at each checked time
        for kind, times in (
            (PlannerKind.RANDOM, (100, 200, 300)),
            (PlannerKind.GRID, (100,)),
            (PlannerKind.SPIRAL, (100,)),
        ):
            other = results[kind]
            for t in times:
                unc = other.mean_total_unc_service[t] - mc.mean_total_unc_service[t]
                err = other.mean_service_error_rate[t] - mc.mean_service_error_rate[t]
                details.append(
                    f"[{kind.value} t={t}: uncertainty {unc:+.3f}, error rate {err:+.3f}]"
                )
        for t in (100, 200, 300):
            assert mc.mean_total_unc_service[t] < rnd.mean_total_unc_service[t], t
            assert mc.mean_service_error_rate[t] < rnd.mean_service_error_rate[t], t
        for kind in (PlannerKind.GRID, PlannerKind.SPIRAL):
            other = results[kind]
            assert mc.mean_total_unc_service[100] < other.mean_total_unc_service[100], kind
            assert mc.mean_service_error_rate[100] < other.mean_service_error_rate[100], kind
        elapsed = time.perf_counter() - start
        assert elapsed < 600.0, f"took {elapsed:.0f}s"


def test_07_min_cost_routes_match_exhaustive_enumeration():
    with report("7 shortest-path oracle"):
        rng = np.random.default_rng(99)
        cases = [(3, 3)] * 50 + [(3, 4)] * 50
        for rows, cols in cases:
            grid = GridSpec(rows=rows, cols=cols, spacing=10.0)
            n = grid.num_points
            u = rng.uniform(0.0, 1.0, n)
            if rng.uniform() < 0.3:
                u[rng.integers(0, n, size=n // 2)] = 0.0  # flat patches too
            src, dst = rng.choice(n, size=2, replace=False)
            pos = spatial.index_to_point(grid, int(src))
            route = planner.min_cost_route(
                grid, u, Waypoint(float(pos[0]), float(pos[1])), int(dst)
            )
            got = route_cost(grid, u, route)
            best = enumerate_best_cost(grid, u, int(src), int(dst))
            assert got == pytest.approx(best, rel=1e-9, abs=1e-12)


def test_08_monte_carlo_outputs_are_byte_identical(tmp_path):
    with report("8 output determinism"):
        config = {
            "rows": 8,
            "cols": 8,
            "max_measurements": 30,
            "noise_var": 0.25,
            "seed": 3,
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        args = [
            "montecarlo",
            "--config",
            str(cfg_path),
            "--runs",
            "3",
            "--planners",
            "min_cost,random",
        ]
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert cli.main(args + ["--out-dir", out_a]) == 0
        assert cli.main(args + ["--out-dir", out_b]) == 0
        names = sorted(os.listdir(out_a))
        assert names == sorted(os.listdir(out_b))
        assert names == ["montecarlo_min_cost.csv", "montecarlo_random.csv"]
        for name in names:
            with open(os.path.join(out_a, name), "rb") as fa:
                a = fa.read()
            with open(os.path.join(out_b, name), "rb") as fb:
                b = fb.read()
            assert a == b, f"{name} differs between invocations"
        # Each run depends only on (seed, run id): computing the runs in
        # reverse order and stacking them in run order gives the same bits.
        for name in ("min_cost", "random"):
            cfg = replace(default_config(config), planner=name)
            result = monte_carlo(cfg, 3)
            reverse = {k: run_survey(cfg, run_id=k).metrics for k in (2, 1, 0)}
            for metric in ("meters", "total_unc_power", "total_unc_service", "service_error_rate"):
                data = np.array([[getattr(row, metric) for row in reverse[k]] for k in range(3)])
                assert np.array_equal(getattr(result, f"mean_{metric}"), data.mean(axis=0)), metric
                std = (data - data[0]).std(axis=0)
                assert np.array_equal(getattr(result, f"std_{metric}"), std), metric
