"""Survey execution and Monte Carlo benchmarking.

A survey is a flight and a filter. The flight is a continuous polyline
assembled from planner episodes, sampled every fixed number of meters along
it (the sampling phase carries across route joints, so every planner pays the
same travel distance per measurement). The filter takes a measurement at each
sample, conditions one posterior for all transmitters online (see
:class:`aerosurvey.estimator.SurveyPosterior`), logs metrics and decides
whether to stop; the flight plans its next episode from the latest posterior.
The metrics are evaluated in blocks of measurements, one numpy pass per block
rather than per measurement: a block is evaluated when it is full, when the
planner needs the latest field, and when the run stops, and every row gets the
metrics that evaluating its posterior alone would give, to the bit.
Monte Carlo repeats the survey over independent environment realizations and
aggregates the metric curves per measurement index.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

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
    "run_survey",
    "monte_carlo",
]

# A survey's flight fails once its planner has flown this many episodes in a
# row without taking a measurement. A config whose spacing exceeds one fewer
# than this many of the grid's shortest steps is rejected up front instead
# (see ``SurveyConfig``), so only a planner that stalls can meet this at run
# time.
MAX_IDLE_EPISODES = 10_000

# The metric pass of a survey on N grid points evaluates up to
# max(1, BLOCK_VALUES // N) measurements at once. Each of its some 60 numpy
# calls costs about 1 µs besides its element work, so a block pays that cost
# once for all its rows. Its (B, N) temporaries hold at most this many values
# (32 KiB), and its (B, K, N) ones K times as many: 64 KiB for two
# transmitters, half of glibc's 128 KiB threshold for serving an allocation
# by mmap. Measured in same-process pairs against one pass per measurement
# (2 vCPUs, one OpenBLAS thread, 12 pairs per budget): a 10x10 survey of 2,001
# measurements ran 20-26 % faster at every budget from 1,024 to 16,384 values;
# four default 30x25 surveys ran 1, 7, 13, 17 and 24 % faster at 1,024, 2,048,
# 4,096, 8,192 and 16,384; a 60x50 survey of 21 measurements (blocks of one
# to five rows) stayed within 3 % either way. This is the largest power of two
# whose temporaries stay at half the threshold for two transmitters.
BLOCK_VALUES = 4096


def _sweep_route(grid: spatial.GridSpec, kind: planner.PlannerKind) -> list[spatial.Waypoint] | None:
    """The fixed route every episode of a grid or spiral sweep flies; None for other planners."""
    if kind is planner.PlannerKind.GRID:
        return planner.grid_route(grid)
    if kind is planner.PlannerKind.SPIRAL:
        return planner.spiral_route(grid)
    return None


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
        if self.grid.num_points == 1 and not self.channel.transmitters and dz * dz == 0.0:
            raise ValueError(
                "on a one-point grid every drawn transmitter sits on the grid point: "
                "tx_height must differ from altitude"
            )
        if not self.grid.contains(self.start_position.x, self.start_position.y):
            raise ValueError("start_position lies outside the grid rectangle")
        try:
            kind = planner.PlannerKind(self.planner)
        except (ValueError, TypeError):
            names = [k.value for k in planner.PlannerKind]
            raise ValueError(f"unknown planner: {self.planner!r}; expected one of {names}") from None
        object.__setattr__(self, "planner", kind)
        if self.grid.num_points > 1 and self.max_measurements > 0:
            # Every planner episode ends on a grid node other than the one it
            # started on, so each episode after the first flies at least the
            # shortest step between two nodes. The MAX_IDLE_EPISODES + 1
            # episodes the idle guard lets fly cover MAX_IDLE_EPISODES steps,
            # one more than the limit, to spare for rounding in the lengths
            # flown. A threshold might stop the survey before it flies, but
            # the config is held to the rule all the same.
            points = spatial.grid_points(self.grid)
            cols = self.grid.cols
            step = float(np.concatenate([np.diff(points[:cols, 0]), np.diff(points[::cols, 1])]).min())
            if self.measurement_spacing > (MAX_IDLE_EPISODES - 1) * step:
                raise ValueError(
                    f"measurement_spacing {self.measurement_spacing:g} m exceeds {MAX_IDLE_EPISODES - 1} "
                    f"grid steps of {step:g} m: the survey might never take a second measurement"
                )
        for tx in self.channel.transmitters:
            channel.grid_base_powers(self.grid, self.channel, tx)  # raises if one sits on a grid point
        if self.channel.shadow_var > 0:
            # Raises if corr_distance is too long for the grid spacing; the
            # ground truth then reuses the cached embedding.
            channel.circulant_root(self.grid, self.channel.corr_distance)


class MetricsRow(NamedTuple):
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


def _service_errors(means, served, r_min: float):
    """How many grid points' thresholded service estimate disagrees with truth.

    ``means`` is a (K, N) stack of posterior means, which gives one count,
    or a (B, K, N) block of them, which gives one per stack, a (B,) array;
    ``served`` is the true service mask, one boolean per grid point. A point
    counts as served when any transmitter serves it: on the estimated map
    when its posterior mean clears ``r_min`` (a service probability of at
    least 1/2 at any variance, up to the rounding of the normal CDF within
    about 1e-16 of the threshold), and on the true map when its true power
    does.
    """
    # What ndarray.any(axis=-2) runs, without its Python wrapper. Along an
    # axis, add.reduce counts in a fraction of count_nonzero's call cost.
    wrong = np.logical_or.reduce(means >= r_min, axis=-2) != served
    return np.add.reduce(wrong, axis=-1, dtype=np.intp)


def _fields(means, var, params: channel.ChannelParams, config: SurveyConfig):
    """The power and service uncertainty fields of posterior ``means`` and ``var``.

    (K, N) means with their N variances give two (N,) fields; a (B, K, N)
    block with (B, N) variances gives two (B, N) fields.
    """
    power_unc = unc.power_uncertainty(var, params)
    service_unc = unc.service_uncertainty_field(means, var, config.r_min, config.aggregation)
    return power_unc, service_unc


def _flight(config: SurveyConfig, rng: np.random.Generator, waypoints: list[spatial.Waypoint], target):
    """Yield the survey's samples as ``(point, meters)``, without end.

    The first is the start position at 0 m; a one-point grid has nowhere to
    fly, so its flight yields the start forever. Otherwise the flight plans
    one episode at a time, once the one before is flown out: a sweep flies its
    fixed route, ``random`` draws a grid point other than the one it is on
    from ``rng`` (after the noise of the sample before it), and ``min_cost``
    routes over ``target()``, the planner's field of the latest posterior.
    Each corner flown is appended to ``waypoints``. After
    ``MAX_IDLE_EPISODES`` episodes in a row without a sample, the next one
    without a sample raises RuntimeError.
    """
    grid = config.grid
    pos = config.start_position
    yield pos, 0.0
    while grid.num_points == 1:
        yield pos, 0.0
    sweep = _sweep_route(grid, config.planner)
    sampler = spatial.PathSampler(config.measurement_spacing)
    idle = 0  # consecutive episodes that took no measurement
    while True:
        if sweep is not None:
            route = sweep
        elif config.planner is planner.PlannerKind.RANDOM:
            route = planner.random_route(grid, rng, pos)
        else:
            field = target()
            dest = planner.pick_destination(field, grid, exclude=spatial.point_to_index(grid, pos))
            route = planner.min_cost_route(grid, field, pos, dest)
        if route[0] != pos:
            route = [pos, *route]
        idle += 1
        for a, b in zip(route, route[1:]):
            for sample in sampler.segment(a, b):
                idle = 0
                yield sample
            if a != b:
                waypoints.append(b)
        if idle > MAX_IDLE_EPISODES:
            raise RuntimeError(f"no measurement in {MAX_IDLE_EPISODES} consecutive planner episodes")
        pos = route[-1]


def run_survey(config: SurveyConfig, run_id: int = 0, snapshots=()) -> SurveyRecord:
    """Run one survey to its stop criterion.

    Deterministic given ``(config.seed, run_id)``. ``snapshots`` lists
    measurement indices whose pre-update posterior fields should be captured;
    index 0 therefore captures the prior.

    The filter conditions the posterior on each measurement at once, but
    logs its metrics in blocks: it copies the means and variances into the
    next row of a block of ``max(1, BLOCK_VALUES // N)`` rows, and one metric
    pass evaluates every filled row together. The pass runs when the block is
    full, when the planner asks for its field (once per ``min_cost``
    episode), and when the run stops. A threshold needs every measurement's
    total, so a survey with an ``uncertainty_threshold`` evaluates each
    measurement on its own. Each row gives the same metrics, to the bit, as
    a pass on that posterior alone.
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
    n = grid.num_points
    capacity = 1 if threshold is not None else max(1, BLOCK_VALUES // n)
    block_means = np.empty((capacity, *posterior.means.shape))
    block_var = np.empty((capacity, n))
    pending = []  # (t, meters) of the measurements whose metrics are not yet logged
    target_unc = target_total = None  # the planner's field and its total, of the latest posterior

    def evaluate() -> None:
        """Log the metrics of every pending measurement, in one pass over its rows."""
        nonlocal target_unc, target_total
        means, var = block_means[: len(pending)], block_var[: len(pending)]
        power_unc, service_unc = _fields(means, var, params, config)
        # Each total is its row's mean over the grid, to the bit: summed along
        # the last axis, each row is summed pairwise on its own, as
        # ndarray.mean sums one field, and a float or an integer count divided
        # by n in Python rounds as numpy's division does.
        power_sums = np.add.reduce(power_unc, axis=-1).tolist()
        service_sums = np.add.reduce(service_unc, axis=-1).tolist()
        errors = _service_errors(means, served, config.r_min).tolist()
        record.metrics.extend(
            MetricsRow(run_id, t, meters, power / n, service / n, error / n)
            for (t, meters), power, service, error in zip(pending, power_sums, service_sums, errors)
        )
        pending.clear()
        if config.target == "power":
            target_unc, target_total = power_unc[-1], power_sums[-1] / n
        else:
            target_unc, target_total = service_unc[-1], service_sums[-1] / n

    def target() -> np.ndarray:
        if pending:
            evaluate()
        return target_unc

    flight = _flight(config, rng, record.waypoints, target)
    for t, (point, meters) in enumerate(flight):
        if t in wanted:
            power_unc, service_unc = _fields(posterior.means, posterior.var, params, config)
            record.snapshots[t] = Snapshot(
                t=t,
                posterior_means=posterior.means.copy(),
                service_prob=estimator.service_probability(posterior.means, posterior.var, config.r_min),
                power_unc=power_unc,
                service_unc=service_unc,
            )
        taps = channel.interpolation_taps(grid, point)
        m = channel.take_measurement(gt, point, params, rng, taps)
        posterior.condition(taps, m.rss)
        record.measurements.append(m)
        block_means[len(pending)] = posterior.means
        block_var[len(pending)] = posterior.var
        pending.append((t, meters))
        last = t >= config.max_measurements
        if last or len(pending) == capacity:
            evaluate()
            last = last or (threshold is not None and target_total <= threshold)
        if last:
            if meters:
                # The run ends here; if it flew, close the polyline at the last sample.
                record.waypoints.append(spatial.Waypoint(*point))
            return record


@dataclass
class MonteCarloResult:
    """Per-measurement-index metric statistics over independent runs.

    A dataclass, not a named tuple like MetricsRow:
    bench/tests/test_bench.py assigns to a copy's fields.
    """

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

    # A (runs, T, 4) array of each row's metrics after run_id and t; only the
    # rows are kept, so a finished run's record is freed.
    data = np.array([[row[2:] for row in run_survey(config, run_id=k).metrics] for k in range(runs)])
    stats = []
    for metric in np.moveaxis(data, -1, 0):
        # Deviations from the first run: a metric equal in every run gets exactly 0.
        stats += [metric.mean(axis=0), (metric - metric[0]).std(axis=0)]
    return MonteCarloResult(config.planner, runs, np.arange(config.max_measurements + 1), *stats)
