"""Command-line front end: JSON configs, survey and Monte Carlo commands, file outputs."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from typing import Any

import numpy as np

from .channel import ChannelParams, Transmitter
from .harness import MonteCarloResult, SurveyConfig, SurveyRecord, monte_carlo, run_survey
from .spatial import GridSpec, Waypoint

__all__ = ["ConfigError", "load_config", "default_config", "write_grid", "main"]


class ConfigError(Exception):
    """Invalid or unreadable survey configuration."""


_DEFAULTS: dict[str, Any] = {
    "rows": 30,
    "cols": 25,
    "spacing": 10.0,
    "altitude": 20.0,
    "origin": [0.0, 0.0],
    "transmitters": None,
    "num_transmitters": 2,
    "tx_height": 10.0,
    "tx_power_dbm": 10.0,
    "frequency": 2.4e9,
    "pathloss_exponent": 2.0,
    "shadow_var": 9.0,
    "shadow_mean": 0.0,
    "corr_distance": 50.0,
    "fading_var": 0.0,
    "noise_var": 0.0,
    "r_min": -65.0,
    "measurement_spacing": 5.0,
    "planner": "min_cost",
    "aggregation": "max",
    "target": "service",
    "max_measurements": 300,
    "uncertainty_threshold": None,
    "start_position": [0.0, 0.0],
    "seed": 0,
}


def _fail(key: str, why: str):
    raise ConfigError(f"invalid value for '{key}': {why}")


def _as_number(key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(key, "expected a number")
    # Python's json reads NaN and Infinity, which JSON itself does not allow.
    if not -sys.float_info.max <= value <= sys.float_info.max:
        _fail(key, "expected a finite number")
    return float(value)


def _as_point(key: str, value) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        _fail(key, "expected [x, y]")
    return (_as_number(key, value[0]), _as_number(key, value[1]))


def _parse_transmitters(raw, default_power: float) -> tuple[Transmitter, ...]:
    if not isinstance(raw, list) or not raw:
        _fail("transmitters", "expected a non-empty list of transmitter objects")
    txs = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            _fail("transmitters", f"entry {i} is not an object")
        unknown = set(entry) - {"position", "power_dbm"}
        if unknown:
            _fail("transmitters", f"entry {i} has unknown keys: {sorted(unknown)}")
        pos = entry.get("position")
        if not isinstance(pos, list) or len(pos) != 3:
            _fail("transmitters", f"entry {i} needs a 3-element position")
        position = tuple(_as_number("transmitters", v) for v in pos)
        power = _as_number("transmitters", entry.get("power_dbm", default_power))
        txs.append(Transmitter(position=position, power_dbm=power))
    return tuple(txs)


def default_config(overrides: dict[str, Any] | None = None) -> SurveyConfig:
    """Build a SurveyConfig from defaults plus config-file style overrides.

    This converts JSON values to the types the dataclasses take; every range,
    choice and integer check lives in ``GridSpec``, ``ChannelParams`` and
    ``SurveyConfig``, whose errors become ``ConfigError``.
    """
    merged = dict(_DEFAULTS)
    if overrides:
        unknown = set(overrides) - set(_DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config key: '{sorted(unknown)[0]}'")
        merged.update(overrides)

    def number(key: str) -> float:
        return _as_number(key, merged[key])

    threshold = merged["uncertainty_threshold"]
    tx_power = number("tx_power_dbm")
    try:
        grid = GridSpec(
            rows=merged["rows"],
            cols=merged["cols"],
            spacing=number("spacing"),
            origin=_as_point("origin", merged["origin"]),
            altitude=number("altitude"),
        )
        params = ChannelParams(
            transmitters=(
                ()
                if merged["transmitters"] is None
                else _parse_transmitters(merged["transmitters"], tx_power)
            ),
            frequency=number("frequency"),
            pathloss_exponent=number("pathloss_exponent"),
            shadow_var=number("shadow_var"),
            shadow_mean=number("shadow_mean"),
            corr_distance=number("corr_distance"),
            fading_var=number("fading_var"),
            noise_var=number("noise_var"),
        )
        return SurveyConfig(
            grid=grid,
            channel=params,
            num_transmitters=merged["num_transmitters"],
            tx_height=number("tx_height"),
            tx_power_dbm=tx_power,
            r_min=number("r_min"),
            measurement_spacing=number("measurement_spacing"),
            planner=merged["planner"],
            aggregation=merged["aggregation"],
            target=merged["target"],
            max_measurements=merged["max_measurements"],
            uncertainty_threshold=(
                None if threshold is None else _as_number("uncertainty_threshold", threshold)
            ),
            start_position=Waypoint(*_as_point("start_position", merged["start_position"])),
            seed=merged["seed"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _read_json(path: str) -> dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc.strerror}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return raw


def load_config(path: str) -> SurveyConfig:
    """Load a survey configuration from a JSON file; unknown keys are rejected."""
    return default_config(_read_json(path))


def _atomic_write(path: str, text: str) -> None:
    """Write via a temp file in the same directory plus rename.

    The temp file is created with mode 0o666, which the kernel masks with the
    umask exactly as for a plain ``open``; ``tempfile.mkstemp`` would give
    every output mode 0o600 whatever the umask.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp_{os.urandom(8).hex()}.part")
    # O_BINARY (Windows only) keeps the newlines as written, as mkstemp does.
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    fd = os.open(tmp, flags, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(v: float) -> str:
    return f"{float(v):.10g}"


def write_grid(values, grid: GridSpec, path: str, fmt: str = "csv", comment: str | None = None) -> None:
    """Write a length-N grid field as a rows x cols CSV matrix or a plain PGM image.

    CSV keeps 6 significant digits, row 0 first. PGM linearly rescales to
    0..255; a constant field maps to all zeros.
    """
    vals = np.asarray(values, dtype=float).ravel()
    if vals.size != grid.num_points:
        raise ValueError("value count does not match the grid")
    matrix = vals.reshape(grid.rows, grid.cols)
    if fmt == "csv":
        lines = []
        if comment:
            lines.append(f"# {comment}")
        for row in matrix:
            lines.append(",".join(f"{v:.6g}" for v in row))
        _atomic_write(path, "\n".join(lines) + "\n")
    elif fmt == "pgm":
        lo, hi = float(vals.min()), float(vals.max())
        if hi > lo:
            pixels = np.rint((matrix - lo) / (hi - lo) * 255.0).astype(int)
        else:
            pixels = np.zeros_like(matrix, dtype=int)
        lines = ["P2"]
        if comment:
            lines.append(f"# {comment}")
        lines.append(f"{grid.cols} {grid.rows}")
        lines.append("255")
        for row in pixels:
            lines.append(" ".join(str(int(v)) for v in row))
        _atomic_write(path, "\n".join(lines) + "\n")
    else:
        raise ValueError(f"unknown grid format: {fmt!r}")


def _write_metrics(record: SurveyRecord, path: str) -> None:
    lines = ["run,t,meters,total_unc_power,total_unc_service,service_error_rate"]
    for r in record.metrics:
        lines.append(
            f"{r.run_id},{r.t},{_fmt(r.meters)},{_fmt(r.total_unc_power)},"
            f"{_fmt(r.total_unc_service)},{_fmt(r.service_error_rate)}"
        )
    _atomic_write(path, "\n".join(lines) + "\n")


def _write_trajectory(record: SurveyRecord, path: str) -> None:
    lines = ["t,x,y"]
    for t, m in enumerate(record.measurements):
        lines.append(f"{t},{_fmt(m.position[0])},{_fmt(m.position[1])}")
    _atomic_write(path, "\n".join(lines) + "\n")


def _write_montecarlo(result: MonteCarloResult, path: str) -> None:
    header = (
        "t,mean_meters,std_meters,mean_total_unc_power,std_total_unc_power,"
        "mean_total_unc_service,std_total_unc_service,"
        "mean_service_error_rate,std_service_error_rate"
    )
    lines = [header]
    for i, t in enumerate(result.t):
        lines.append(
            ",".join(
                [str(int(t))]
                + [
                    _fmt(arr[i])
                    for arr in (
                        result.mean_meters,
                        result.std_meters,
                        result.mean_total_unc_power,
                        result.std_total_unc_power,
                        result.mean_total_unc_service,
                        result.std_total_unc_service,
                        result.mean_service_error_rate,
                        result.std_service_error_rate,
                    )
                ]
            )
        )
    _atomic_write(path, "\n".join(lines) + "\n")


def _parse_snapshots(raw: str | None, max_measurements: int) -> tuple[int, ...]:
    if not raw:
        return ()
    try:
        values = tuple(int(part) for part in raw.split(",") if part.strip() != "")
    except ValueError:
        raise ConfigError(f"invalid --snapshots list: {raw!r}") from None
    if any(v < 0 for v in values):
        raise ConfigError("snapshot indices must be nonnegative")
    if values and max(values) > max_measurements:
        raise ConfigError(
            f"snapshot index {max(values)} exceeds max_measurements ({max_measurements})"
        )
    return values


def _with_planner(cfg: SurveyConfig, name: str) -> SurveyConfig:
    try:
        return replace(cfg, planner=name)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _load_for(ns: argparse.Namespace) -> SurveyConfig:
    """The config file (or the defaults) with --seed and --planner merged in, validated once."""
    raw = _read_json(ns.config) if ns.config else {}
    if ns.seed is not None:
        raw["seed"] = ns.seed
    if getattr(ns, "planner", None) is not None:
        raw["planner"] = ns.planner
    return default_config(raw)


def cmd_survey(ns: argparse.Namespace) -> int:
    cfg = _load_for(ns)
    snapshots = _parse_snapshots(ns.snapshots, cfg.max_measurements)
    record = run_survey(cfg, snapshots=snapshots)
    outdir = ns.out_dir
    os.makedirs(outdir, exist_ok=True)
    _write_metrics(record, os.path.join(outdir, "metrics.csv"))
    _write_trajectory(record, os.path.join(outdir, "trajectory.csv"))
    grid = cfg.grid
    for t, snap in sorted(record.snapshots.items()):
        tag = f"snapshot_t{t:04d}"
        for k in range(record.params.num_transmitters):
            pairs = [
                (f"true_power_tx{k}", record.ground_truth.powers[k], "true power map (dBm)"),
                (f"posterior_mean_tx{k}", snap.posterior_means[k], "posterior mean power (dBm)"),
                (f"service_prob_tx{k}", snap.service_prob[k], "service probability"),
            ]
            for name, vals, comment in pairs:
                base = os.path.join(outdir, f"{tag}_{name}")
                write_grid(vals, grid, base + ".csv", "csv", comment)
                write_grid(vals, grid, base + ".pgm", "pgm", comment)
        target_unc = snap.power_unc if cfg.target == "power" else snap.service_unc
        base = os.path.join(outdir, f"{tag}_uncertainty")
        write_grid(target_unc, grid, base + ".csv", "csv", f"{cfg.target} uncertainty (normalized)")
        write_grid(target_unc, grid, base + ".pgm", "pgm", f"{cfg.target} uncertainty (normalized)")
    last = record.metrics[-1]
    print(
        f"survey: planner={cfg.planner.value} measurements={len(record.measurements)} "
        f"meters={last.meters:.1f} unc_power={last.total_unc_power:.4f} "
        f"unc_service={last.total_unc_service:.4f} service_err={last.service_error_rate:.4f}"
    )
    return 0


def cmd_montecarlo(ns: argparse.Namespace) -> int:
    cfg = _load_for(ns)
    if ns.runs < 1:
        raise ConfigError("--runs must be at least 1")
    if ns.planners:
        names = [p.strip() for p in ns.planners.split(",") if p.strip()]
        if not names:
            raise ConfigError("--planners must name at least one planner")
    else:
        names = [cfg.planner.value]
    if cfg.uncertainty_threshold is not None:
        _fail("uncertainty_threshold", "montecarlo needs fixed-length runs; remove the threshold")
    configs = [_with_planner(cfg, name) for name in names]
    os.makedirs(ns.out_dir, exist_ok=True)
    for run_cfg in configs:
        result = monte_carlo(run_cfg, ns.runs)
        name = run_cfg.planner.value
        _write_montecarlo(result, os.path.join(ns.out_dir, f"montecarlo_{name}.csv"))
        final = result.mean_total_unc_service[-1]
        print(f"montecarlo: planner={name} runs={ns.runs} final_unc_service={final:.4f}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aerosurvey",
        description="Simulate autonomous aerial spectrum surveys over shadowed radio environments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    survey = sub.add_parser("survey", help="run a single survey and write metrics, maps, trajectory")
    survey.add_argument("--config", help="JSON config file (defaults apply when omitted)")
    survey.add_argument("--seed", type=int, default=None, help="override the config seed")
    survey.add_argument("--planner", default=None, help="override the config planner")
    survey.add_argument("--out-dir", default="out", help="output directory (created if needed)")
    survey.add_argument(
        "--snapshots",
        default=None,
        help="comma-separated measurement indices to dump grid maps for (state before that measurement)",
    )
    survey.set_defaults(func=cmd_survey)

    mc = sub.add_parser("montecarlo", help="aggregate survey metrics over many runs")
    mc.add_argument("--config", help="JSON config file (defaults apply when omitted)")
    mc.add_argument("--runs", type=int, default=50, help="number of Monte Carlo runs")
    mc.add_argument("--planners", default=None, help="comma-separated planners (default: config planner)")
    mc.add_argument("--seed", type=int, default=None, help="override the config seed")
    mc.add_argument("--out-dir", default="out", help="output directory (created if needed)")
    mc.set_defaults(func=cmd_montecarlo)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
