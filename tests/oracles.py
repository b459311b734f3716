"""Reference computations shared by the test modules."""

import heapq
import math
from array import array
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np
import scipy.linalg
from scipy.signal import convolve2d
from scipy.special import ndtr, xlogy

from aerosurvey import channel, estimator, harness, planner, spatial
from aerosurvey import uncertainty as unc
from aerosurvey.channel import ChannelParams, Measurement
from aerosurvey.spatial import GridSpec, Waypoint, point_to_index


def pairwise_distances(points_a, points_b) -> np.ndarray:
    """Planar distances between two point sets, shape (len(a), len(b))."""
    a = np.asarray(points_a, dtype=float).reshape(-1, 2)
    b = np.asarray(points_b, dtype=float).reshape(-1, 2)
    dx = a[:, 0, None] - b[None, :, 0]
    dy = a[:, 1, None] - b[None, :, 1]
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def shadow_cov_matrix(points, params: ChannelParams) -> np.ndarray:
    """Shadowing covariance matrix of an (M, 2) point set."""
    return channel.shadow_cov(pairwise_distances(points, points), params)


def shadowing(grid: GridSpec, params: ChannelParams, gen: np.random.Generator) -> np.ndarray:
    """Reference for ``channel._shadowing``: the whole torus ``fft2``, cut to the grid's corner.

    Draws the same normals in the same order, two transmitters per complex
    field, and returns the (K, N) shadowing fields.
    """
    root = channel.circulant_root(grid, params.corr_distance)
    count = params.num_transmitters
    fields = []
    for _ in range(0, count, 2):
        z = gen.standard_normal(2 * root.size).view(np.complex128).reshape(root.shape) * root
        draw = np.fft.fft2(z)[: grid.rows, : grid.cols]
        fields += [draw.real, draw.imag]
    scale = np.sqrt(params.shadow_var / root.size)
    return (np.array(fields[:count]) * scale).reshape(count, grid.num_points)


def dense_grid_prior(grid: GridSpec, shadow_var: float, corr_distance: float) -> np.ndarray:
    """Dense reference for :meth:`aerosurvey.channel.GridPrior.dense`.

    The covariance comes from the pairwise distances of every grid point pair.
    """
    kernel = ChannelParams((), shadow_var=shadow_var, corr_distance=corr_distance)
    return shadow_cov_matrix(spatial.grid_points(grid), kernel)


@dataclass
class PosteriorState:
    """Dense Gaussian posterior over the grid powers of one transmitter."""

    mean: np.ndarray  # (N,) dBm
    cov: np.ndarray  # (N, N) dB^2


def init_posterior(grid: GridSpec, params: ChannelParams, tx: int) -> PosteriorState:
    """Dense prior over grid powers for transmitter ``tx`` before any measurement."""
    if not 0 <= tx < params.num_transmitters:
        raise IndexError(f"transmitter index {tx} out of range [0, {params.num_transmitters})")
    cov = channel.grid_prior(grid, params.shadow_var, params.corr_distance).dense()
    cov[np.diag_indices_from(cov)] += params.fading_var
    mean = channel.grid_base_powers(grid, params, params.transmitters[tx])
    return PosteriorState(mean=mean, cov=cov)


def online_update(state: PosteriorState, taps, y: float, noise_var: float) -> PosteriorState:
    """Explicit rank-one update of a dense posterior on one measurement ``y``.

    The measurement is ``a @ powers`` plus noise of variance ``noise_var``,
    where ``a`` scatters the ``(index, weights)`` taps onto the grid. Returns
    ``cov - outer(ca, ca) / denom`` with its diagonal clamped at zero and
    ``mean + ca (y - a @ mean) / denom``, for ``ca = cov @ a`` and
    ``denom = noise_var + a @ ca``; ``state`` is left unchanged.
    """
    index, weights = taps
    a = np.zeros(state.mean.shape[0])
    np.add.at(a, index, weights)
    ca = state.cov @ a
    denom = noise_var + float(a @ ca)
    cov = state.cov - np.outer(ca, ca) / denom
    np.fill_diagonal(cov, np.maximum(np.diagonal(cov), 0.0))
    mean = state.mean + ca * (float(y) - float(a @ state.mean)) / denom
    return PosteriorState(mean=mean, cov=cov)


# Relative diagonal jitter on the measurement Gram matrix: repeated
# noise-free measurements make it singular.
GRAM_JITTER = 1e-9


def batch_posterior(
    grid: GridSpec, params: ChannelParams, tx: int, measurements: Sequence[Measurement]
) -> PosteriorState:
    """Posterior over grid powers from all measurements at once.

    Stacks the observation models of every measurement into one dense
    observation matrix ``H`` and conditions the prior on the full measurement
    vector, with sensor noise as the only white term. With no measurements
    this is the prior itself.
    """
    prior = init_posterior(grid, params, tx)
    if len(measurements) == 0:
        return prior
    values = np.array([m.rss[tx] for m in measurements], dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("measurements must be finite")
    # h[i] @ powers is measurement i's noise-free value; repeated taps add up.
    h = np.zeros((len(measurements), grid.num_points))
    for row, m in zip(h, measurements):
        index, weights = channel.interpolation_taps(grid, m.position)
        np.add.at(row, index, weights)
    cross = prior.cov @ h.T
    gram = h @ cross
    gram[np.diag_indices_from(gram)] += params.noise_var + GRAM_JITTER * params.shadow_var
    try:
        cho = scipy.linalg.cho_factor(gram, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise scipy.linalg.LinAlgError("measurement Gram matrix is singular") from exc
    mean = prior.mean + cross @ scipy.linalg.cho_solve(cho, values - h @ prior.mean)
    cov = prior.cov - cross @ scipy.linalg.cho_solve(cho, cross.T)
    cov = 0.5 * (cov + cov.T)
    np.fill_diagonal(cov, np.maximum(np.diagonal(cov), 0.0))
    return PosteriorState(mean=mean, cov=cov)


def box_filter(field) -> np.ndarray:
    """3x3 box sum of a 2-D field with zero fill outside it, by ``convolve2d``."""
    return convolve2d(field, np.ones((3, 3)), mode="same", boundary="fill", fillvalue=0.0)


def king_neighbors(grid: GridSpec, i: int) -> list[int]:
    """Grid indices at Chebyshev distance 1 from index ``i``, in index order."""
    ri, ci = divmod(i, grid.cols)
    return [
        j
        for j in range(grid.num_points)
        if max(abs(j // grid.cols - ri), abs(j % grid.cols - ci)) == 1
    ]


def edge_cost(u, grid: GridSpec, i: int, j: int) -> float:
    """Reciprocal of the trapezoidal uncertainty integral along edge (i, j), floored."""
    ri, ci = divmod(i, grid.cols)
    rj, cj = divmod(j, grid.cols)
    length = grid.spacing * float(np.hypot(ri - rj, ci - cj))
    return 1.0 / max(length * 0.5 * (u[i] + u[j]), planner.EDGE_FLOOR)


def enumerate_best_cost(grid: GridSpec, u, src: int, dst: int) -> float:
    """Minimum edge-cost sum over every simple king-move walk from src to dst.

    Exhaustive branch-and-bound search; only for grids of a dozen or so points.
    """
    vals = np.asarray(u, dtype=float)
    best = float("inf")

    def visit(node, seen, cost):
        nonlocal best
        if cost >= best:
            return
        if node == dst:
            best = cost
            return
        for nxt in king_neighbors(grid, node):
            if nxt not in seen:
                visit(nxt, seen | {nxt}, cost + edge_cost(vals, grid, node, nxt))

    visit(src, {src}, 0.0)
    return best


def dijkstra(grid: GridSpec, u: list[float], src: int, dst: int) -> list[int]:
    """Route oracle for ``planner._dijkstra``: Dijkstra on the grid itself.

    Grid indices of the cheapest king-move walk from ``src`` to ``dst``. It
    builds the eight moves on every call and checks each move against the
    grid's bounds. Equal costs pop the lowest index first, which fixes the
    route among ties.
    """
    rows, cols = grid.rows, grid.cols
    moves = [
        (dr, dc, dr * cols + dc, grid.spacing * float(np.hypot(dr, dc)) * 0.5)
        for dr, dc in ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))
    ]
    n = rows * cols
    dist = array("d", [math.inf]) * n
    dist[src] = 0.0
    prev = array("q", [0]) * n
    done = bytearray(n)
    heap = [(0.0, src)]
    while True:
        d, node = heapq.heappop(heap)
        if done[node]:
            continue
        if node == dst:
            path = [dst]
            while path[-1] != src:
                path.append(prev[path[-1]])
            return path[::-1]
        done[node] = 1
        r, c = divmod(node, cols)
        for dr, dc, step, half in moves:
            if not (0 <= r + dr < rows and 0 <= c + dc < cols):
                continue
            nb = node + step
            if done[nb]:
                continue
            nd = d + 1.0 / max(half * (u[node] + u[nb]), planner.EDGE_FLOOR)
            if nd < dist[nb]:
                dist[nb] = nd
                prev[nb] = node
                heapq.heappush(heap, (nd, nb))


def route_cost(grid: GridSpec, u, waypoints: list[Waypoint]) -> float:
    """Total reciprocal-integral cost of a grid-point waypoint sequence."""
    vals = np.asarray(u, dtype=float)
    total = 0.0
    for a, b in zip(waypoints[:-1], waypoints[1:]):
        i = point_to_index(grid, (a.x, a.y))
        j = point_to_index(grid, (b.x, b.y))
        total += edge_cost(vals, grid, i, j)
    return total


def _catmull_rom_1d(p0, p1, p2, p3, u: float):
    cubic = 3.0 * (p1 - p2) + p3 - p0
    quadratic = 2.0 * p0 - 5.0 * p1 + 4.0 * p2 - p3
    return 0.5 * (2.0 * p1 + u * ((p2 - p0) + u * (quadratic + u * cubic)))


def catmull_rom_power(grid: GridSpec, powers, point) -> np.ndarray:
    """Separable Horner-form Catmull-Rom interpolation of each grid field at one point.

    Border cells are replicated outward; one value per row of ``powers``.
    """
    x, y = float(point[0]), float(point[1])
    fx = float(np.clip((x - grid.origin[0]) / grid.spacing, 0.0, grid.cols - 1))
    fy = float(np.clip((y - grid.origin[1]) / grid.spacing, 0.0, grid.rows - 1))
    c0 = min(int(np.floor(fx)), grid.cols - 1)
    r0 = min(int(np.floor(fy)), grid.rows - 1)
    cs = np.clip(np.arange(c0 - 1, c0 + 3), 0, grid.cols - 1)
    rs = np.clip(np.arange(r0 - 1, r0 + 3), 0, grid.rows - 1)
    out = []
    for field in np.asarray(powers, dtype=float).reshape(-1, grid.rows, grid.cols):
        patch = field[np.ix_(rs, cs)]
        rowvals = _catmull_rom_1d(patch[:, 0], patch[:, 1], patch[:, 2], patch[:, 3], fx - c0)
        out.append(_catmull_rom_1d(rowvals[0], rowvals[1], rowvals[2], rowvals[3], fy - r0))
    return np.array(out)


def interpolation_taps(grid: GridSpec, point) -> tuple[np.ndarray, np.ndarray]:
    """NumPy reference for :func:`aerosurvey.channel.interpolation_taps`.

    The same border clamping and Catmull-Rom weights, written with array
    operations on the 4-node neighbourhoods and one ``np.outer``.
    """
    x, y = float(point[0]), float(point[1])
    if not grid.contains(x, y):
        raise ValueError(f"point ({x}, {y}) lies outside the grid rectangle")
    fx = float(np.clip((x - grid.origin[0]) / grid.spacing, 0.0, grid.cols - 1))
    fy = float(np.clip((y - grid.origin[1]) / grid.spacing, 0.0, grid.rows - 1))
    c0 = min(int(np.floor(fx)), grid.cols - 1)
    r0 = min(int(np.floor(fy)), grid.rows - 1)
    cs = np.clip(np.arange(c0 - 1, c0 + 3), 0, grid.cols - 1)
    rs = np.clip(np.arange(r0 - 1, r0 + 3), 0, grid.rows - 1)

    def weights(u: float) -> np.ndarray:
        return 0.5 * np.array(
            [
                u * (-1.0 + u * (2.0 - u)),
                2.0 + u * u * (3.0 * u - 5.0),
                u * (1.0 + u * (4.0 - 3.0 * u)),
                u * u * (u - 1.0),
            ]
        )

    index = (rs[:, None] * grid.cols + cs).ravel()
    return index, np.outer(weights(fy - r0), weights(fx - c0)).ravel()


def sample_path(waypoints: Iterable[Waypoint] | np.ndarray, delta: float) -> np.ndarray:
    """Points every ``delta`` meters of arc length along a polyline.

    The first sample sits on the first waypoint and the rest follow
    :class:`aerosurvey.spatial.PathSampler`. The final waypoint is included
    only when the total length is a multiple of ``delta``, up to 1e-9 m of
    rounding.
    """
    sampler = spatial.PathSampler(delta)
    if isinstance(waypoints, np.ndarray):
        pts = np.asarray(waypoints, dtype=float).reshape(-1, 2)
    else:
        rows = [(w.x, w.y) if isinstance(w, Waypoint) else (w[0], w[1]) for w in waypoints]
        pts = np.array(rows, dtype=float).reshape(-1, 2)
    if pts.shape[0] == 0:
        raise ValueError("need at least one waypoint")
    samples = [pts[0]]
    for a, b in zip(pts[:-1], pts[1:]):
        samples.extend(point for point, _ in sampler.segment(a, b))
    return np.asarray(samples)


def service_probability(mean, var, r_min: float) -> np.ndarray:
    """Readable reference for :func:`aerosurvey.estimator.service_probability`."""
    mean = np.asarray(mean, dtype=float)
    std = np.sqrt(np.maximum(var, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (mean - r_min) / std
    p = ndtr(z)
    degenerate = std == 0.0
    if np.any(degenerate):
        p = np.where(degenerate, (mean >= r_min).astype(float), p)
    return p


def service_uncertainty(probabilities) -> np.ndarray:
    """Readable reference for :func:`aerosurvey.uncertainty.service_uncertainty`.

    A certain point gives -0.0 here, where the package gives +0.0.
    """
    p = np.asarray(probabilities, dtype=float)
    if np.any((p < 0.0) | (p > 1.0)) or not np.all(np.isfinite(p)):
        raise ValueError("probabilities must lie in [0, 1]")
    ent = -(xlogy(p, p) + xlogy(1.0 - p, 1.0 - p)) / np.log(2.0)
    return np.clip(ent, 0.0, 1.0)


def total_uncertainty(field) -> float:
    """Spatial mean of an uncertainty field: the total a survey logs."""
    vals = np.asarray(field, dtype=float)
    if vals.size == 0:
        raise ValueError("empty uncertainty field")
    return float(vals.mean())


def service_error_rate(means, served, r_min: float) -> float:
    """Fraction of grid points whose thresholded service estimate disagrees with truth.

    A point is estimated served when some transmitter's posterior mean clears
    ``r_min``. This is the rate a survey logs.
    """
    m = np.atleast_2d(np.asarray(means, dtype=float))
    truth = np.asarray(served, dtype=bool)
    if m.shape[1] != truth.shape[0]:
        raise ValueError("mean vector length does not match the grid")
    estimated = np.any(m >= r_min, axis=0)
    return float(np.mean(estimated != truth))


def survey_oracle(config: harness.SurveyConfig, run_id: int = 0, snapshots=()) -> harness.SurveyRecord:
    """Reference for :func:`aerosurvey.harness.run_survey`: one loop over planner episodes.

    Plans each episode, flies it segment by segment and measures at every
    sample, with the flight and the filter interleaved in one function. It
    calls the package's channel, estimator, planner and uncertainty functions
    in the same order as ``run_survey`` and takes its totals and error rates
    from :func:`total_uncertainty` and :func:`service_error_rate`, one
    measurement at a time, so its record matches bit for bit.
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
    record = harness.SurveyRecord(
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
        """The power and service uncertainty fields (N,) of the current posterior."""
        power_unc = unc.power_uncertainty(posterior.var, params)
        service_unc = unc.service_uncertainty_field(
            posterior.means, posterior.var, config.r_min, config.aggregation
        )
        return power_unc, service_unc

    def capture(t: int) -> None:
        power_unc, service_unc = fields()
        record.snapshots[t] = harness.Snapshot(
            t=t,
            posterior_means=posterior.means.copy(),
            service_prob=estimator.service_probability(posterior.means, posterior.var, config.r_min),
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
        power_unc, service_unc = fields()
        target_unc = power_unc if config.target == "power" else service_unc
        power_total = total_uncertainty(power_unc)
        service_total = total_uncertainty(service_unc)
        record.measurements.append(m)
        record.metrics.append(
            harness.MetricsRow(
                run_id=run_id,
                t=t,
                meters=meters,
                total_unc_power=power_total,
                total_unc_service=service_total,
                service_error_rate=service_error_rate(posterior.means, served, config.r_min),
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

    sweep = harness._sweep_route(grid, config.planner)

    def plan_episode() -> list[spatial.Waypoint]:
        here = spatial.Waypoint(float(pos[0]), float(pos[1]))
        if sweep is not None:
            route = sweep
        elif config.planner is planner.PlannerKind.RANDOM:
            # One draw, which may be the point the drone is on: the episode
            # then flies nowhere, and the next one draws again.
            route = [spatial.index_to_point(grid, int(rng.integers(grid.num_points)))]
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
        coords = np.array(route, dtype=float)
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
        if idle > harness.MAX_IDLE_EPISODES:
            raise RuntimeError(f"no measurement in {harness.MAX_IDLE_EPISODES} consecutive planner episodes")
        pos = coords[-1]

    return record
