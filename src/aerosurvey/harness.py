"""Survey execution and Monte Carlo benchmarking.

A survey flies a continuous polyline assembled from planner episodes, takes a
measurement every fixed number of meters along it (the sampling phase carries
across route joints, so every planner pays the same travel distance per
measurement), conditions one posterior for all transmitters online (see
:class:`aerosurvey.estimator.SurveyPosterior`), and logs metrics after each
measurement.
Monte Carlo repeats the survey over independent environment realizations and
aggregates the metric curves per measurement index.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import channel, estimator, planner, spatial
from . import uncertainty as unc

__all__ = [
    "SurveyConfig",
    "MetricsRow",
    "Snapshot",
    "SurveyRecord",
    "MonteCarloResult",
    "service_error_rate",
    "run_survey",
    "monte_carlo",
]


@dataclass(frozen=True)
class SurveyConfig:
    """Everything needed to reproduce one survey run."""

    grid: spatial.GridSpec
    channel: channel.ChannelParams  # empty transmitters -> drawn per run
    num_transmitters: int = 2
    tx_height: float = 10.0
    tx_power_dbm: float = 10.0
    r_min: float = -65.0
    measurement_spacing: float = 5.0
    planner: planner.PlannerKind = planner.PlannerKind.MIN_COST
    aggregation: str = "max"
    target: str = "service"
    max_measurements: int = 300
    uncertainty_threshold: float | None = None  # optional early stop, in (0, 1]
    start_position: spatial.Waypoint = spatial.Waypoint(0.0, 0.0)
    seed: int = 0

    def __post_init__(self) -> None:
        # The one place survey settings are type- and range-checked; GridSpec,
        # ChannelParams and Transmitter check their own fields.
        for name in ("num_transmitters", "max_measurements", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer")
        if not self.channel.transmitters and self.num_transmitters < 1:
            raise ValueError("num_transmitters must be at least 1")
        if not self.tx_height >= 0:
            raise ValueError("tx_height must be nonnegative")
        if not 0 < self.measurement_spacing < np.inf:
            raise ValueError("measurement_spacing must be positive and finite")
        if self.max_measurements < 0:
            raise ValueError("max_measurements must be a nonnegative integer")
        threshold = self.uncertainty_threshold
        if threshold is not None and not 0.0 < threshold <= 1.0:
            raise ValueError("uncertainty_threshold must lie in (0, 1]")
        if self.aggregation not in ("max", "mean"):
            raise ValueError(f"unknown aggregation: {self.aggregation!r}; expected 'max' or 'mean'")
        if self.target not in ("power", "service"):
            raise ValueError(f"unknown target: {self.target!r}; expected 'power' or 'service'")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        # The longest link: the grid diagonal plus the height offset to a drawn transmitter.
        xmin, ymin, xmax, ymax = self.grid.bounds()
        dz = 0.0 if self.channel.transmitters else self.grid.altitude - self.tx_height
        if not np.isfinite((xmax - xmin) * (xmax - xmin) + (ymax - ymin) * (ymax - ymin) + dz * dz):
            raise ValueError("squared link distances overflow: shrink the grid or altitude - tx_height")
        if not self.grid.contains(self.start_position.x, self.start_position.y):
            raise ValueError("start_position lies outside the grid rectangle")
        try:
            kind = planner.PlannerKind(self.planner)
        except (ValueError, TypeError):
            names = [k.value for k in planner.PlannerKind]
            raise ValueError(f"unknown planner: {self.planner!r}; expected one of {names}") from None
        object.__setattr__(self, "planner", kind)
        for tx in self.channel.transmitters:
            channel.grid_base_powers(self.grid, self.channel, tx)  # raises if one sits on a grid point
        if self.channel.shadow_var > 0:
            # Raises if corr_distance is too long for the grid spacing; the
            # ground truth then reuses the cached embedding.
            channel.circulant_root(self.grid, self.channel.corr_distance)


@dataclass(frozen=True)
class MetricsRow:
    """Metrics logged after incorporating measurement ``t``."""

    run_id: int
    t: int
    meters: float
    total_unc_power: float
    total_unc_service: float
    service_error_rate: float


@dataclass
class Snapshot:
    """Grid fields captured just before measurement ``t`` was incorporated."""

    t: int
    posterior_means: np.ndarray  # (K, N) dBm
    service_prob: np.ndarray  # (K, N)
    power_unc: np.ndarray  # (N,) aggregated
    service_unc: np.ndarray  # (N,) aggregated


@dataclass
class SurveyRecord:
    """Full trace of one survey run.

    ``posterior`` is the final posterior of every transmitter; its
    ``covariance()`` returns the shared dense N x N covariance.
    """

    config: SurveyConfig
    params: channel.ChannelParams
    ground_truth: channel.GroundTruth
    measurements: list[channel.Measurement]
    waypoints: list[spatial.Waypoint]
    metrics: list[MetricsRow]
    posterior: estimator.SurveyPosterior
    snapshots: dict[int, Snapshot] = field(default_factory=dict)


def service_error_rate(probabilities, served) -> float:
    """Fraction of grid points whose thresholded service estimate disagrees with truth.

    ``served`` is the true service mask, one boolean per grid point. With
    several transmitters a point counts as served when any transmitter
    serves it, on both the estimated map (probability >= 1/2) and the true map.
    """
    p = np.atleast_2d(np.asarray(probabilities, dtype=float))
    truth = np.asarray(served, dtype=bool)
    if p.shape[1] != truth.shape[0]:
        raise ValueError("probability vector length does not match the grid")
    wrong = (p >= 0.5).any(axis=0) != truth
    return float(np.count_nonzero(wrong) / wrong.size)


def run_survey(config: SurveyConfig, run_id: int = 0, snapshots=()) -> SurveyRecord:
    """Run one survey to its stop criterion.

    Deterministic given ``(config.seed, run_id)``. ``snapshots`` lists
    measurement indices whose pre-update posterior fields should be captured;
    index 0 therefore captures the prior.
    """
    rng = np.random.default_rng([config.seed, run_id])
    grid = config.grid
    if config.channel.transmitters:
        params = config.channel
    else:
        txs = channel.draw_transmitters(
            grid, config.num_transmitters, config.tx_height, config.tx_power_dbm, rng
        )
        params = replace(config.channel, transmitters=txs)
    gt = channel.sample_ground_truth(grid, params, rng)
    posterior = estimator.SurveyPosterior.from_grid(grid, params)
    served = np.any(gt.powers >= config.r_min, axis=0)
    wanted = set(int(s) for s in snapshots)
    record = SurveyRecord(
        config=config,
        params=params,
        ground_truth=gt,
        measurements=[],
        waypoints=[config.start_position],
        metrics=[],
        posterior=posterior,
        snapshots={},
    )

    def fields():
        """Service probabilities (K, N) and the power and service uncertainty fields (N,)."""
        probs = estimator.service_probability(posterior.means, posterior.var, config.r_min)
        power_unc = unc.power_uncertainty(posterior.var, params)
        service_unc = unc.aggregate(unc.service_uncertainty(probs), config.aggregation)
        return probs, power_unc, service_unc

    def capture(t: int) -> None:
        probs, power_unc, service_unc = fields()
        record.snapshots[t] = Snapshot(
            t=t,
            posterior_means=posterior.means.copy(),
            service_prob=probs,
            power_unc=power_unc,
            service_unc=service_unc,
        )

    target_unc = None  # the planner's field, from the latest posterior

    def measure_at(point, t: int, meters: float) -> bool:
        """Snapshot, measure, update, log; returns True when the run should stop."""
        nonlocal target_unc
        if t in wanted:
            capture(t)
        taps = channel.interpolation_taps(grid, point)
        m = channel.take_measurement(gt, point, params, rng, taps=taps)
        posterior.condition(taps, m.rss)
        probs, power_unc, service_unc = fields()
        target_unc = power_unc if config.target == "power" else service_unc
        power_total = unc.total_uncertainty(power_unc)
        service_total = unc.total_uncertainty(service_unc)
        record.measurements.append(m)
        record.metrics.append(
            MetricsRow(
                run_id=run_id,
                t=t,
                meters=meters,
                total_unc_power=power_total,
                total_unc_service=service_total,
                service_error_rate=service_error_rate(probs, served),
            )
        )
        if t >= config.max_measurements:
            return True
        if config.uncertainty_threshold is not None:
            target_total = power_total if config.target == "power" else service_total
            if target_total <= config.uncertainty_threshold:
                return True
        return False

    pos = np.array([config.start_position.x, config.start_position.y])
    t = 0
    stop = measure_at(pos, t, 0.0)

    if grid.num_points == 1:
        # Nowhere to fly; keep sampling in place until the budget runs out.
        while not stop:
            t += 1
            stop = measure_at(pos, t, 0.0)
        return record

    sweep: list[spatial.Waypoint] | None = None
    if config.planner in (planner.PlannerKind.GRID, planner.PlannerKind.SPIRAL):
        sweep = (
            planner.grid_route(grid)
            if config.planner is planner.PlannerKind.GRID
            else planner.spiral_route(grid)
        )

    def plan_episode() -> list[spatial.Waypoint]:
        here = spatial.Waypoint(float(pos[0]), float(pos[1]))
        if sweep is not None:
            route = sweep
        elif config.planner is planner.PlannerKind.RANDOM:
            route = planner.random_route(grid, rng)
        else:
            current_idx = spatial.point_to_index(grid, pos)
            dest = planner.pick_destination(target_unc, grid, exclude=current_idx)
            route = planner.min_cost_route(grid, target_unc, here, dest)
        if (route[0].x, route[0].y) != (here.x, here.y):
            route = [here] + route
        return route

    sampler = spatial.PathSampler(config.measurement_spacing)
    idle = 0  # consecutive episodes that took no measurement
    while not stop:
        route = plan_episode()
        coords = spatial.as_coords(route)
        t_start = t
        for a, b, corner in zip(coords[:-1], coords[1:], route[1:]):
            for point, meters in sampler.segment(a, b):
                t += 1
                stop = measure_at(point, t, meters)
                if stop:
                    # The run ends here; close the polyline at the last sample.
                    record.waypoints.append(spatial.Waypoint(float(point[0]), float(point[1])))
                    break
            if stop:
                break
            if not np.array_equal(a, b):
                record.waypoints.append(corner)
        if stop:
            break
        idle = idle + 1 if t == t_start else 0
        if idle > 10_000:
            raise RuntimeError("no measurement in 10000 consecutive planner episodes")
        pos = coords[-1]

    return record


@dataclass
class MonteCarloResult:
    """Per-measurement-index metric statistics over independent runs."""

    planner: planner.PlannerKind
    runs: int
    t: np.ndarray
    mean_meters: np.ndarray
    std_meters: np.ndarray
    mean_total_unc_power: np.ndarray
    std_total_unc_power: np.ndarray
    mean_total_unc_service: np.ndarray
    std_total_unc_service: np.ndarray
    mean_service_error_rate: np.ndarray
    std_service_error_rate: np.ndarray


_MC_METRICS = ("meters", "total_unc_power", "total_unc_service", "service_error_rate")


def monte_carlo(config: SurveyConfig, runs: int, workers: int = 1) -> MonteCarloResult:
    """Aggregate survey metrics over ``runs`` independent environment realizations.

    Runs execute one after another. Run ``k`` draws its transmitters and
    shadowing from a stream derived from ``(config.seed, k)``, so results do
    not depend on the order the runs execute in.
    Every run takes ``config.max_measurements + 1`` measurements, so a config
    with an ``uncertainty_threshold``, whose runs could stop at different
    times, is rejected.
    """
    # ``workers`` is accepted only because bench/tests/test_bench.py passes workers=1.
    if workers != 1:
        raise ValueError("monte_carlo runs serially; workers must be 1")
    if runs < 1:
        raise ValueError("need at least one run")
    if config.uncertainty_threshold is not None:
        raise ValueError("monte_carlo needs fixed-length runs; unset uncertainty_threshold")

    def metric_curves(k: int) -> list[list[float]]:
        # Only the curves are kept, so a finished run's record is freed.
        rows = run_survey(config, run_id=k).metrics
        return [[getattr(row, name) for row in rows] for name in _MC_METRICS]

    curves = [metric_curves(k) for k in range(runs)]

    out = {"t": np.arange(config.max_measurements + 1)}
    for i, name in enumerate(_MC_METRICS):
        data = np.array([run[i] for run in curves])
        out[f"mean_{name}"] = data.mean(axis=0)
        out[f"std_{name}"] = data.std(axis=0)
    return MonteCarloResult(planner=config.planner, runs=runs, **out)
