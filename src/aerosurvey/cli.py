"""Command-line front end: JSON configs, survey and Monte Carlo commands, file outputs."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from typing import Any, get_type_hints

import numpy as np

from .channel import ChannelParams, Transmitter
from .harness import MonteCarloResult, SurveyConfig, monte_carlo, run_survey
from .spatial import GridSpec, Waypoint

__all__ = ["ConfigError", "default_config", "write_grid", "main"]


class ConfigError(Exception):
    """Invalid or unreadable survey configuration."""


# The default scenario's grid. GridSpec has no default shape or spacing, and
# its altitude defaults to ground level; every other key left out of a config
# takes the default of the dataclass field it names.
_GRID_DEFAULTS = {"rows": 30, "cols": 25, "spacing": 10.0, "altitude": 20.0}


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


# How a JSON value becomes a field of each type. The transmitters are read in
# ``default_config``; fields of other types (int, str, PlannerKind) take the
# JSON value as it is, and their dataclass checks it.
_FROM_JSON = {
    float: _as_number,
    float | None: lambda key, value: None if value is None else _as_number(key, value),
    tuple[float, float]: _as_point,
    Waypoint: lambda key, value: Waypoint(*_as_point(key, value)),
}

# Each config key is a field of one of these dataclasses, built and checked in
# this order (SurveyConfig's grid and channel fields hold the other two), and
# maps to its converter.
_SECTIONS = {
    cls: {
        name: _FROM_JSON.get(hint, lambda key, value: value)
        for name, hint in get_type_hints(cls).items()
        if name not in ("grid", "channel")
    }
    for cls in (GridSpec, ChannelParams, SurveyConfig)
}
_KEYS = frozenset().union(*_SECTIONS.values())


def default_config(overrides: dict[str, Any] | None = None) -> SurveyConfig:
    """Build a SurveyConfig from config-file style overrides.

    A key left out takes the default of the dataclass field it names, except
    the grid's ``rows``, ``cols``, ``spacing`` and ``altitude``, which take
    the default scenario's 30 x 25 grid at 10 m spacing and 20 m altitude.
    This converts JSON values to the types the dataclasses take; every range,
    choice and integer check lives in ``GridSpec``, ``ChannelParams`` and
    ``SurveyConfig``, whose errors become ``ConfigError``.
    """
    given = {**_GRID_DEFAULTS, **(overrides or {})}
    unknown = set(given) - _KEYS
    if unknown:
        raise ConfigError(f"unknown config key: '{sorted(unknown)[0]}'")
    # Read before any other value: transmitters without a power of their own take it.
    tx_power = _as_number("tx_power_dbm", given.get("tx_power_dbm", SurveyConfig.tx_power_dbm))
    raw_transmitters = given.pop("transmitters", None)  # null, like no key: drawn per run

    def section(cls) -> dict[str, Any]:
        return {name: convert(name, given[name]) for name, convert in _SECTIONS[cls].items() if name in given}

    try:
        grid = GridSpec(**section(GridSpec))
        if raw_transmitters is not None:
            given["transmitters"] = _parse_transmitters(raw_transmitters, tx_power)
        params = ChannelParams(**section(ChannelParams))
        return SurveyConfig(grid=grid, channel=params, **section(SurveyConfig))
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


def write_grid(values, grid: GridSpec, path: str, fmt: str = "csv", comment: str | None = None) -> None:
    """Write a length-N grid field as a rows x cols CSV matrix or a plain PGM image.

    CSV keeps 6 significant digits, row 0 first. PGM linearly rescales to
    0..255; a constant field maps to all zeros.
    """
    vals = np.asarray(values, dtype=float).ravel()
    if vals.size != grid.num_points:
        raise ValueError("value count does not match the grid")
    matrix = vals.reshape(grid.rows, grid.cols)
    # Rows are formatted from Python floats and ints, which format as numpy
    # scalars do (np.float64 formats through float.__format__) but faster.
    if fmt == "csv":
        lines = []
        if comment:
            lines.append(f"# {comment}")
        for row in matrix.tolist():
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
        for row in pixels.tolist():
            lines.append(" ".join(map(str, row)))
        _atomic_write(path, "\n".join(lines) + "\n")
    else:
        raise ValueError(f"unknown grid format: {fmt!r}")


def _write_table(path: str, header: str, row_format: str, rows) -> None:
    """Write a CSV file: ``header``, then ``row_format`` filled in with each row.

    The row formats print counters as integers and other numbers with 10
    significant digits.
    """
    lines = [header]
    lines.extend(row_format.format(*row) for row in rows)
    _atomic_write(path, "\n".join(lines) + "\n")


_MC_COLUMNS = tuple(f.name for f in fields(MonteCarloResult)[2:])  # t, then each statistic


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


def _raw_config(ns: argparse.Namespace) -> dict[str, Any]:
    """The config file's object (empty without --config) with --seed and --planner merged in."""
    raw = _read_json(ns.config) if ns.config else {}
    if ns.seed is not None:
        raw["seed"] = ns.seed
    if getattr(ns, "planner", None) is not None:
        raw["planner"] = ns.planner
    return raw


def cmd_survey(ns: argparse.Namespace) -> int:
    cfg = default_config(_raw_config(ns))
    snapshots = _parse_snapshots(ns.snapshots, cfg.max_measurements)
    record = run_survey(cfg, snapshots=snapshots)
    outdir = ns.out_dir
    os.makedirs(outdir, exist_ok=True)
    _write_table(
        os.path.join(outdir, "metrics.csv"),
        "run,t,meters,total_unc_power,total_unc_service,service_error_rate",
        "{},{}" + ",{:.10g}" * 4,
        record.metrics,
    )
    _write_table(
        os.path.join(outdir, "trajectory.csv"),
        "t,x,y",
        "{},{:.10g},{:.10g}",
        ((t, *m.position) for t, m in enumerate(record.measurements)),
    )
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
    raw = _raw_config(ns)
    cfg = default_config(raw)
    if ns.runs < 1:
        raise ConfigError("--runs must be at least 1")
    if ns.planners:
        # A planner named twice runs once; the first naming sets the order.
        names = list(dict.fromkeys(p.strip() for p in ns.planners.split(",") if p.strip()))
        if not names:
            raise ConfigError("--planners must name at least one planner")
    else:
        names = [cfg.planner.value]
    if cfg.uncertainty_threshold is not None:
        _fail("uncertainty_threshold", "montecarlo needs fixed-length runs; remove the threshold")
    configs = [default_config({**raw, "planner": name}) for name in names]
    os.makedirs(ns.out_dir, exist_ok=True)
    for run_cfg in configs:
        result = monte_carlo(run_cfg, ns.runs)
        name = run_cfg.planner.value
        _write_table(
            os.path.join(ns.out_dir, f"montecarlo_{name}.csv"),
            ",".join(_MC_COLUMNS),
            "{}" + ",{:.10g}" * (len(_MC_COLUMNS) - 1),
            zip(*(getattr(result, column).tolist() for column in _MC_COLUMNS)),
        )
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
