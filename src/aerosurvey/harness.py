"""Survey execution and Monte Carlo benchmarking.

A survey is a flight and a filter. The flight is a continuous polyline
assembled from planner episodes, sampled every fixed number of meters along
it (the sampling phase carries across route joints, so every planner pays the
same travel distance per measurement). The filter takes a measurement at each
sample, conditions one posterior for all transmitters online (see
:class:`aerosurvey.estimator.SurveyPosterior`), logs metrics and decides
whether to stop; the flight plans its next episode from the latest posterior.
Monte Carlo repeats the survey over independent environment realizations and
aggregates the metric curves per measurement index.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import channel, estimator, planner, spatial
from . import uncertainty as unc

__all__ = [
    "MAX_IDLE_EPISODES",
    "SurveyConfig",
    "MetricsRow",
    "Snapshot",
    "SurveyRecord",
    "MonteCarloResult",
    "service_error_rate",
    "service_uncertainty_field",
    "run_survey",
    "monte_carlo",
]

# A survey's flight fails once its planner has flown this many episodes in a
# row without taking a measurement. A config whose spacing exceeds what one
# more than this many episodes can fly (see ``_idle_reach``) is rejected up
# front instead, so only a planner that stalls can meet this at run time.
MAX_IDLE_EPISODES = 10_000


def _sweep_route(grid: spatial.GridSpec, kind: planner.PlannerKind) -> list[spatial.Waypoint] | None:
    """The fixed route every episode of a grid or spiral sweep flies; None for other planners."""
    if kind is planner.PlannerKind.GRID:
        return planner.grid_route(grid)
    if kind is planner.PlannerKind.SPIRAL:
        return planner.spiral_route(grid)
    return None


def _idle_reach(grid: spatial.GridSpec, kind: planner.PlannerKind, start: spatial.Waypoint) -> float:
    """How far, at most, the first ``MAX_IDLE_EPISODES + 1`` episodes fly from ``start``.

    Every episode of a grid or spiral sweep flies the whole sweep, so for
    them the reach is exact: the hop from the start to the sweep's first
    waypoint, k sweep lengths, and k - 1 return legs from the sweep's end to
    its start. A random episode flies straight to a grid point, so at most the
    grid diagonal. A min_cost episode flies to the grid point nearest its
    start, then along a simple king-move path: at most N - 1 moves, none
    longer than the longest step between neighbouring node coordinates along
    each axis. Every episode after the first starts on a grid point.
    """
    episodes = MAX_IDLE_EPISODES + 1
    here = np.array([start.x, start.y])
    sweep = _sweep_route(grid, kind)
    if sweep is not None:
        coords = spatial.as_coords(sweep)
        length = float(np.hypot(*np.diff(coords, axis=0).T).sum())
        hop = float(np.hypot(*(coords[0] - here)))
        back = float(np.hypot(*(coords[0] - coords[-1])))
        return hop + episodes * length + (episodes - 1) * back
    if kind is planner.PlannerKind.RANDOM:
        xmin, ymin, xmax, ymax = grid.bounds()
        return episodes * float(np.hypot(xmax - xmin, ymax - ymin))
    ox, oy = grid.origin
    dx = np.diff(ox + np.arange(grid.cols) * grid.spacing).max(initial=0.0)
    dy = np.diff(oy + np.arange(grid.rows) * grid.spacing).max(initial=0.0)
    hop = float(np.hypot(*(spatial.index_to_point(grid, spatial.point_to_index(grid, here)) - here)))
    return hop + episodes * (grid.num_points - 1) * float(np.hypot(dx, dy))


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
        if self.grid.num_points > 1 and self.max_measurements > 0:
            # A threshold might stop the survey before it flies, but a config
            # that could not go on if it did not is rejected all the same. The
            # slack covers the path sampler's 1e-9 m tolerance, a start up to
            # 1e-9 m outside the grid, and rounding in the lengths flown.
            reach = _idle_reach(self.grid, kind, self.start_position)
            if self.measurement_spacing > reach * (1.0 + 1e-6) + 1e-6:
                raise ValueError(
                    f"measurement_spacing {self.measurement_spacing:g} m exceeds the {reach:g} m that "
                    f"{MAX_IDLE_EPISODES + 1} {kind.value} episodes can fly: the survey would never "
                    "take a second measurement"
                )
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

    ``waypoints`` is the polyline flown: the start position, every route
    corner passed, and, if the run flew, the last sample, where it stopped.
    ``posterior`` is the final posterior of every transmitter; its
    ``covariance()`` returns the shared dense N x N covariance as of the call.
    That array is the posterior's own re-based prior, which a later re-base
    overwrites, so copy it to keep it.
    """

    config: SurveyConfig
    params: channel.ChannelParams
    ground_truth: channel.GroundTruth
    measurements: list[channel.Measurement]
    waypoints: list[spatial.Waypoint]
    metrics: list[MetricsRow]
    posterior: estimator.SurveyPosterior
    snapshots: dict[int, Snapshot] = field(default_factory=dict)


def _rows(means) -> np.ndarray:
    """``means`` as a 2-D float array: a (K, N) stack as it is, one row of N as (1, N)."""
    m = np.asarray(means, dtype=float)
    return m if m.ndim == 2 else np.atleast_2d(m)


def service_error_rate(means, served, r_min: float) -> float:
    """Fraction of grid points whose thresholded service estimate disagrees with truth.

    ``means`` holds one row of N posterior means per transmitter (or one
    transmitter's N means) and ``served`` is the true service mask, one
    boolean per grid point. A point counts as served when any transmitter
    serves it: on the estimated map when its posterior mean clears
    ``r_min`` (a service probability of at least 1/2 at any variance, up to
    the rounding of the normal CDF within about 1e-16 of the threshold), and
    on the true map when its true power does.
    """
    m = _rows(means)
    truth = np.asarray(served, dtype=bool)
    if m.shape[1] != truth.shape[0]:
        raise ValueError("mean vector length does not match the grid")
    # What ndarray.any(axis=0) runs, without its Python wrapper.
    wrong = np.logical_or.reduce(m >= r_min, axis=0) != truth
    return float(np.count_nonzero(wrong) / wrong.size)


def service_uncertainty_field(means, var, r_min: float, aggregation: str) -> np.ndarray:
    """Service uncertainty per grid point, aggregated over transmitters.

    ``means`` is the (K, N) stack of posterior means and ``var`` the N
    variances they share. Under ``mean`` aggregation the K per-transmitter
    entropies are averaged. Under ``max`` only one transmitter per point is
    evaluated: with a shared variance, a point's entropy is even in
    ``mean - r_min`` and falls as it moves away from zero, so the largest is
    that of the mean nearest ``r_min`` (the first such transmitter on ties).
    """
    means = _rows(means)
    if aggregation != "max":
        probs = estimator.service_probability(means, var, r_min)
        return unc.aggregate(unc.service_uncertainty(probs), aggregation)
    # A running argmin over the K rows: argmin(axis=0) across the rows of a
    # C-order array costs several times as much. The last row needs no
    # running minimum after it.
    dist = np.abs(means - r_min)
    nearest, best = means[0], dist[0]
    last = len(means) - 1
    for k in range(1, last + 1):
        nearest = np.where(dist[k] < best, means[k], nearest)
        if k < last:
            best = np.minimum(dist[k], best)
    return unc.service_uncertainty(estimator.service_probability(nearest, var, r_min))


def _fields(posterior: estimator.SurveyPosterior, params: channel.ChannelParams, config: SurveyConfig):
    """The power and service uncertainty fields (N,) of the current posterior."""
    power_unc = unc.power_uncertainty(posterior.var, params)
    service_unc = service_uncertainty_field(posterior.means, posterior.var, config.r_min, config.aggregation)
    return power_unc, service_unc


def _flight(config: SurveyConfig, rng: np.random.Generator, waypoints: list[spatial.Waypoint], target):
    """Yield the survey's samples as ``(point, meters)``, without end.

    The first is the start position at 0 m; a one-point grid has nowhere to
    fly, so its flight yields the start forever. Otherwise the flight plans
    one episode at a time, once the one before is flown out: a sweep flies its
    fixed route, ``random`` draws a grid point from ``rng`` (after the noise
    of the sample before it), and ``min_cost`` routes over ``target()``, the
    planner's field of the latest posterior. Each corner flown is appended to
    ``waypoints``. After ``MAX_IDLE_EPISODES`` episodes in a row without a
    sample, the next one without a sample raises RuntimeError.
    """
    grid = config.grid
    pos = (float(config.start_position.x), float(config.start_position.y))
    yield pos, 0.0
    while grid.num_points == 1:
        yield pos, 0.0
    sweep = _sweep_route(grid, config.planner)
    sampler = spatial.PathSampler(config.measurement_spacing)
    idle = 0  # consecutive episodes that took no measurement
    while True:
        here = spatial.Waypoint(*pos)
        if sweep is not None:
            route = sweep
        elif config.planner is planner.PlannerKind.RANDOM:
            route = planner.random_route(grid, rng)
        else:
            field = target()
            dest = planner.pick_destination(field, grid, exclude=spatial.point_to_index(grid, pos))
            route = planner.min_cost_route(grid, field, here, dest)
        if (route[0].x, route[0].y) != pos:
            route = [here] + route
        corners = [(float(w.x), float(w.y)) for w in route]
        idle += 1
        for a, b, corner in zip(corners, corners[1:], route[1:]):
            for sample in sampler.segment(a, b):
                idle = 0
                yield sample
            if a != b:
                waypoints.append(corner)
        if idle > MAX_IDLE_EPISODES:
            raise RuntimeError(f"no measurement in {MAX_IDLE_EPISODES} consecutive planner episodes")
        pos = corners[-1]


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
    threshold = config.uncertainty_threshold
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
    target_unc = None  # the planner's field, from the latest posterior
    flight = _flight(config, rng, record.waypoints, lambda: target_unc)
    for t, (point, meters) in enumerate(flight):
        if t in wanted:
            power_unc, service_unc = _fields(posterior, params, config)
            record.snapshots[t] = Snapshot(
                t=t,
                posterior_means=posterior.means.copy(),
                service_prob=estimator.service_probability(posterior.means, posterior.var, config.r_min),
                power_unc=power_unc,
                service_unc=service_unc,
            )
        taps = channel.interpolation_taps(grid, point)
        m = channel.take_measurement(gt, point, params, rng, taps=taps)
        posterior.condition(taps, m.rss)
        power_unc, service_unc = _fields(posterior, params, config)
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
                service_error_rate=service_error_rate(posterior.means, served, config.r_min),
            )
        )
        if config.target == "power":
            target_unc, target_total = power_unc, power_total
        else:
            target_unc, target_total = service_unc, service_total
        if t >= config.max_measurements or (threshold is not None and target_total <= threshold):
            if meters:
                # The run ends here; if it flew, close the polyline at the last sample.
                record.waypoints.append(spatial.Waypoint(*point))
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
        # Deviations from the first run: a metric equal in every run gets exactly 0.
        out[f"std_{name}"] = (data - data[0]).std(axis=0)
    return MonteCarloResult(planner=config.planner, runs=runs, **out)
