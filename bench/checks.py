"""Output checks for the benchmark workloads.

Every check is derived from a property the survey method must have or from a
closed form computed here, apart from the program; none compares against a
stored copy of earlier output. Each function returns ``None`` when the output
passes and a one-line reason when it does not.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

# Tolerance for values the program computes in floating point (metres, dB,
# normalised uncertainty). The acceptance tests use the same 1e-9 for the
# monotone power uncertainty.
FLOAT_TOL = 1e-9

METRICS_HEADER = "run,t,meters,total_unc_power,total_unc_service,service_error_rate"
TRAJECTORY_HEADER = "t,x,y"


@dataclass
class SurveyData:
    """One survey's inputs and outputs, as plain arrays."""

    rows: int
    cols: int
    spacing: float
    origin: tuple[float, float]
    start: tuple[float, float]
    measurement_spacing: float
    max_measurements: int
    shadow_var: float
    corr_distance: float
    fading_var: float
    noise_var: float
    planner: str
    t: np.ndarray
    meters: np.ndarray
    total_unc_power: np.ndarray
    total_unc_service: np.ndarray
    service_error_rate: np.ndarray
    positions: np.ndarray  # (M, 2)
    rss: np.ndarray | None = None  # (M, K) dBm
    truth: np.ndarray | None = None  # (K, N) dBm on the grid
    position_tol: float = FLOAT_TOL  # looser when positions come from CSV text


def _setup(config, params) -> dict:
    grid = config.grid
    return dict(
        rows=grid.rows,
        cols=grid.cols,
        spacing=grid.spacing,
        origin=tuple(grid.origin),
        start=(config.start_position.x, config.start_position.y),
        measurement_spacing=config.measurement_spacing,
        max_measurements=config.max_measurements,
        shadow_var=params.shadow_var,
        corr_distance=params.corr_distance,
        fading_var=params.fading_var,
        noise_var=params.noise_var,
        planner=getattr(config.planner, "value", str(config.planner)),
    )


def from_record(light) -> SurveyData:
    """SurveyData from the light record a run_survey probe keeps."""
    config, params, truth, measurements, metrics = light

    def col(name):
        return np.array([getattr(r, name) for r in metrics], dtype=float)

    return SurveyData(
        **_setup(config, params),
        t=col("t"),
        meters=col("meters"),
        total_unc_power=col("total_unc_power"),
        total_unc_service=col("total_unc_service"),
        service_error_rate=col("service_error_rate"),
        positions=np.array([m.position for m in measurements], dtype=float).reshape(-1, 2),
        rss=np.array([m.rss for m in measurements], dtype=float),
        truth=np.asarray(truth, dtype=float),
    )


# -- survey checks ------------------------------------------------------------


def row_count(d: SurveyData):
    want = d.max_measurements + 1
    if len(d.t) != want:
        return f"{len(d.t)} metric rows, want max_measurements + 1 = {want}"
    if not np.array_equal(d.t, np.arange(want)):
        return "t column is not 0, 1, ..., max_measurements"
    if len(d.positions) != want:
        return f"{len(d.positions)} measurement positions, want {want}"
    return None


def meters_column(d: SurveyData):
    want = d.t * d.measurement_spacing
    bad = np.abs(d.meters - want) > FLOAT_TOL * np.maximum(1.0, want)
    if np.any(bad):
        t = int(np.argmax(bad))
        return f"meters[{t}] = {d.meters[t]!r}, want t * spacing = {want[t]!r}"
    return None


def step_lengths(d: SurveyData):
    pos = d.positions
    if len(pos) == 0 or not np.allclose(pos[0], d.start, rtol=0.0, atol=d.position_tol):
        return "first measurement is not at the start position"
    steps = np.hypot(*(np.diff(pos, axis=0).T)) if len(pos) > 1 else np.zeros(0)
    limit = d.measurement_spacing * (1 + FLOAT_TOL) + 2 * d.position_tol
    if np.any(steps > limit):
        t = int(np.argmax(steps > limit))
        return f"step {t} -> {t + 1} is {steps[t]!r} m, longer than the spacing"
    x0, y0 = d.origin
    x1, y1 = x0 + (d.cols - 1) * d.spacing, y0 + (d.rows - 1) * d.spacing
    tol = d.position_tol
    inside = (
        (pos[:, 0] >= x0 - tol) & (pos[:, 0] <= x1 + tol) & (pos[:, 1] >= y0 - tol) & (pos[:, 1] <= y1 + tol)
    )
    if not np.all(inside):
        t = int(np.argmin(inside))
        return f"measurement {t} at {tuple(pos[t])} lies outside the grid"
    return None


def power_monotone(d: SurveyData):
    rise = np.diff(d.total_unc_power)
    if np.any(rise > FLOAT_TOL):
        t = int(np.argmax(rise > FLOAT_TOL))
        return f"total_unc_power rises from t={t} to t={t + 1} by {rise[t]!r}"
    return None


def unit_interval(d: SurveyData):
    for name in ("total_unc_power", "total_unc_service", "service_error_rate"):
        v = getattr(d, name)
        if not np.all(np.isfinite(v)) or np.any((v < 0.0) | (v > 1.0)):
            return f"{name} leaves [0, 1]"
    return None


def node_index(d: SurveyData, tol: float = FLOAT_TOL) -> np.ndarray:
    """Grid index of each measurement position that sits on a node, else -1."""
    fx = (d.positions[:, 0] - d.origin[0]) / d.spacing
    fy = (d.positions[:, 1] - d.origin[1]) / d.spacing
    cx, cy = np.rint(fx), np.rint(fy)
    on = (np.abs(fx - cx) * d.spacing <= tol) & (np.abs(fy - cy) * d.spacing <= tol)
    on &= (cx >= 0) & (cx < d.cols) & (cy >= 0) & (cy < d.rows)
    return np.where(on, cy * d.cols + cx, -1).astype(int)


def on_node_truth(d: SurveyData):
    """With noise 0 a measurement exactly on a node reads the true value there.

    The boustrophedon sweep flies along grid lines whose lengths are whole
    multiples of the grid spacing, so with spacing = 2 x measurement spacing
    exactly the even-indexed measurements land on nodes.
    """
    if d.noise_var != 0.0 or d.fading_var != 0.0:
        return "on-node check needs noise_var = fading_var = 0"
    idx = node_index(d)
    hits = np.flatnonzero(idx >= 0)
    if len(hits) == 0:
        return "no measurement on a grid node (the start node should be one)"
    gap = np.abs(d.rss[hits] - d.truth[:, idx[hits]].T)
    if np.any(gap > FLOAT_TOL):
        i = hits[int(np.argmax(gap.max(axis=1)))]
        return f"measurement {i} on node {idx[i]} differs from the truth by {gap.max()!r} dB"
    if d.planner == "grid" and d.spacing == 2 * d.measurement_spacing:
        want = d.max_measurements // 2 + 1
        if len(hits) != want:
            return f"grid sweep put {len(hits)} measurements on nodes, want {want}"
    return None


def t0_power_closed_form(d: SurveyData) -> float:
    """Total power uncertainty after one observation at the start node.

    Prior variance sigma^2 per node, correlation rho_i = 2^(-d_i / corr)
    with the start; conditioning on one noisy observation leaves
    1 - sigma^2 rho_i^2 / (sigma^2 + noise_var) of the prior at node i.
    """
    xs = d.origin[0] + np.arange(d.cols) * d.spacing
    ys = d.origin[1] + np.arange(d.rows) * d.spacing
    xx, yy = np.meshgrid(xs, ys)
    dist = np.hypot(xx.ravel() - d.start[0], yy.ravel() - d.start[1])
    rho = np.exp2(-dist / d.corr_distance)
    s2 = d.shadow_var
    return float(1.0 - np.mean(s2 * rho**2 / (s2 + d.noise_var)))


def t0_power(d: SurveyData):
    if d.fading_var != 0.0:
        return "closed form assumes fading_var = 0"
    want = t0_power_closed_form(d)
    got = float(d.total_unc_power[0])
    if abs(got - want) > FLOAT_TOL:
        return f"t=0 total_unc_power {got!r}, closed form {want!r}"
    return None


SURVEY_CHECKS = (
    ("row_count", row_count),
    ("meters_column", meters_column),
    ("step_lengths", step_lengths),
    ("power_monotone", power_monotone),
    ("unit_interval", unit_interval),
    ("t0_power", t0_power),
)
NOISELESS_CHECKS = SURVEY_CHECKS + (("on_node_truth", on_node_truth),)


def run_checks(table, d: SurveyData, prefix: str = "") -> list[tuple[str, str | None]]:
    out = []
    for name, fn in table:
        try:
            reason = fn(d)
        except Exception as exc:  # noqa: BLE001 - a crashing check is a failed check
            reason = f"check raised {type(exc).__name__}: {exc}"
        out.append((prefix + name, reason))
    return out


# -- Monte Carlo checks -----------------------------------------------------


def mc_row_count(result, max_measurements: int):
    if len(result.t) != max_measurements + 1:
        return f"{len(result.t)} aggregated rows, want {max_measurements + 1}"
    return None


def mc_std_meters(result):
    std = np.asarray(result.std_meters, dtype=float)
    scale = np.maximum(1.0, np.asarray(result.mean_meters, dtype=float))
    if np.any(std > FLOAT_TOL * scale):
        return f"std_meters reaches {std.max()!r}; every run flies the same arc length per index"
    return None


def mc_t0_row(result) -> list[float]:
    """The t = 0 aggregate row, which common random numbers fix per run index."""
    names = (
        "mean_meters",
        "std_meters",
        "mean_total_unc_power",
        "std_total_unc_power",
        "mean_total_unc_service",
        "std_total_unc_service",
        "mean_service_error_rate",
        "std_service_error_rate",
    )
    return [float(getattr(result, n)[0]) for n in names]


def paired_t0(rows: dict[str, list[float]]):
    """The t = 0 rows of all planners agree: run k sees the same world at t = 0."""
    if len(rows) < 2:
        return "need the t = 0 rows of at least two planners"
    names = sorted(rows)
    ref = np.asarray(rows[names[0]], dtype=float)
    for name in names[1:]:
        row = np.asarray(rows[name], dtype=float)
        if row.shape != ref.shape or np.any(np.abs(row - ref) > 1e-12 * np.maximum(1.0, np.abs(ref))):
            return f"t = 0 row of {name} differs from {names[0]}"
    return None


# -- CLI output checks --------------------------------------------------------


def read_csv_matrix(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        rows = [line for line in fh.read().splitlines() if line and not line.startswith("#")]
    return np.array([[float(v) for v in line.split(",")] for line in rows], dtype=float)


def read_table(path: str) -> dict[str, np.ndarray]:
    """Columns of a CSV file with a header row, by header name."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        body = [[float(v) for v in row] for row in reader if row]
    arr = np.array(body, dtype=float).reshape(-1, len(header))
    return {h: arr[:, i] for i, h in enumerate(header)}


def cli_headers(outdir: str):
    for name, want in (("metrics.csv", METRICS_HEADER), ("trajectory.csv", TRAJECTORY_HEADER)):
        path = os.path.join(outdir, name)
        if not os.path.exists(path):
            return f"{name} missing"
        with open(path, encoding="utf-8") as fh:
            first = fh.readline().rstrip("\n")
        if first != want:
            return f"{name} header {first!r}, documented {want!r}"
    return None


def snapshot_files(snapshots, num_tx: int) -> list[str]:
    """File names `survey --snapshots` documents for every snapshot index."""
    names = []
    for t in snapshots:
        tag = f"snapshot_t{t:04d}"
        stems = [f"{tag}_{kind}_tx{k}" for k in range(num_tx) for kind in ("true_power", "posterior_mean", "service_prob")]
        stems.append(f"{tag}_uncertainty")
        names += [s + ext for s in stems for ext in (".csv", ".pgm")]
    return names


def cli_files(outdir: str, snapshots, num_tx: int):
    missing = [n for n in snapshot_files(snapshots, num_tx) if not os.path.exists(os.path.join(outdir, n))]
    if missing:
        return f"{len(missing)} snapshot files missing, first {missing[0]}"
    return None


def half_ulp_6g(values: np.ndarray) -> np.ndarray:
    """Half a unit in the last place of values printed with ``%.6g``."""
    mag = np.abs(values)
    exp = np.floor(np.log10(np.where(mag > 0, mag, 1.0)))
    return np.where(mag > 0, 0.5 * 10.0 ** (exp - 5), 0.0)


def binary_entropy(p: np.ndarray) -> np.ndarray:
    p = np.clip(p, 0.0, 1.0)
    out = np.zeros_like(p)
    for q in (p, 1.0 - p):
        nz = q > 0
        out[nz] -= q[nz] * np.log2(q[nz])
    return out


def entropy_bounds(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Range of binary entropy over the interval each 6-digit p may stand for."""
    h = half_ulp_6g(p)
    lo_p, hi_p = np.clip(p - h, 0.0, 1.0), np.clip(p + h, 0.0, 1.0)
    ends = np.stack([binary_entropy(lo_p), binary_entropy(hi_p)])
    lo = ends.min(axis=0)
    hi = np.where((lo_p <= 0.5) & (hi_p >= 0.5), 1.0, ends.max(axis=0))
    return lo, hi


def snapshot_entropy(unc: np.ndarray, probs: list[np.ndarray]):
    """The uncertainty map is the max over transmitters of the binary entropy."""
    bounds = [entropy_bounds(p) for p in probs]
    lo = np.max([b[0] for b in bounds], axis=0)
    hi = np.max([b[1] for b in bounds], axis=0)
    slack = half_ulp_6g(unc) + FLOAT_TOL
    bad = (unc < lo - slack) | (unc > hi + slack)
    if np.any(bad):
        i = np.unravel_index(int(np.argmax(bad)), unc.shape)
        return f"uncertainty {unc[i]!r} at {i} outside max entropy range [{lo[i]!r}, {hi[i]!r}]"
    return None


def snapshot_mean(unc: np.ndarray, total_unc_service: float):
    """The grid mean of the map equals the preceding metrics row's total."""
    gap = abs(float(unc.mean()) - total_unc_service)
    slack = float(half_ulp_6g(unc).mean()) + 5e-10 * abs(total_unc_service) + FLOAT_TOL
    if gap > slack:
        return f"grid mean {unc.mean()!r} vs total_unc_service {total_unc_service!r}"
    return None


def cli_snapshots(outdir: str, snapshots, num_tx: int, metrics: dict[str, np.ndarray]):
    """Entropy and grid-mean checks over every snapshot; returns two reasons."""
    entropy_reason = mean_reason = None
    for t in snapshots:
        tag = os.path.join(outdir, f"snapshot_t{t:04d}")
        unc = read_csv_matrix(f"{tag}_uncertainty.csv")
        probs = [read_csv_matrix(f"{tag}_service_prob_tx{k}.csv") for k in range(num_tx)]
        entropy_reason = entropy_reason or _tagged(t, snapshot_entropy(unc, probs))
        if t > 0:
            prev = np.flatnonzero(metrics["t"] == t - 1)
            if len(prev) != 1:
                mean_reason = mean_reason or f"t={t}: no metrics row for t={t - 1}"
            else:
                total = float(metrics["total_unc_service"][prev[0]])
                mean_reason = mean_reason or _tagged(t, snapshot_mean(unc, total))
    return entropy_reason, mean_reason


def _tagged(t: int, reason):
    return None if reason is None else f"snapshot t={t}: {reason}"


def from_cli_output(outdir: str, config) -> SurveyData:
    """SurveyData read back from metrics.csv and trajectory.csv."""
    m = read_table(os.path.join(outdir, "metrics.csv"))
    tr = read_table(os.path.join(outdir, "trajectory.csv"))
    grid = config.grid
    x1, y1 = grid.origin[0] + grid.cols * grid.spacing, grid.origin[1] + grid.rows * grid.spacing
    coord_scale = max(abs(grid.origin[0]), abs(grid.origin[1]), abs(x1), abs(y1), 1.0)
    return SurveyData(
        **_setup(config, config.channel),
        t=m["t"],
        meters=m["meters"],
        total_unc_power=m["total_unc_power"],
        total_unc_service=m["total_unc_service"],
        service_error_rate=m["service_error_rate"],
        positions=np.column_stack([tr["x"], tr["y"]]),
        # %.10g keeps 10 significant digits of each coordinate.
        position_tol=FLOAT_TOL + 0.5 * 10.0 ** (math.floor(math.log10(coord_scale)) - 9),
    )
