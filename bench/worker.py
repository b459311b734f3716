"""Fork server that runs each benchmark unit in a fresh process.

Usage: python3 bench/worker.py   (unit specs on standard input, one JSON per line)

The server imports the package from the checkout's ``src/`` once and never
calls into it. For each spec it forks a child, so every unit starts with the
package imported and all of its caches cold, without paying the import
again. The child runs the unit and writes its result JSON; the server then
answers with one line: the child's exit code and peak resident set.

A spec names the unit kind (``survey``, ``montecarlo`` or ``cli``), the
config overrides, whether to trace, and where to write the result. The timed
section starts just before the workload call and ends when it returns.
Output checks run after it, outside the timing.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from probes import Probes  # noqa: E402

MODULES = ("channel", "estimator", "uncertainty", "planner", "spatial", "harness", "cli")


def import_package():
    """Import aerosurvey from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import importlib

    pkg = importlib.import_module("aerosurvey")
    if not Path(pkg.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"aerosurvey imported from {pkg.__file__}, not from {src}")
    return {name: importlib.import_module(f"aerosurvey.{name}") for name in MODULES}


def survey_checks(light, prefix: str = ""):
    if light is None:
        return [(prefix + "record", "run_survey returned no usable record")]
    d = checks.from_record(light)
    table = checks.NOISELESS_CHECKS if d.noise_var == 0.0 else checks.SURVEY_CHECKS
    return checks.run_checks(table, d, prefix)


def run_unit(spec: dict, mods: dict) -> dict:
    harness, cli = mods["harness"], mods["cli"]
    probes = Probes("aerosurvey", traced=bool(spec["trace"]))
    probes.install()
    config = cli.default_config(spec["config"])
    kind = spec["kind"]
    argv = None
    if kind == "cli":
        outdir = spec["outdir"]
        os.makedirs(outdir, exist_ok=True)
        config_path = os.path.join(outdir, "config.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(spec["config"], fh)
        argv = ["survey", "--config", config_path, "--out-dir", outdir]
        argv += ["--snapshots", ",".join(str(t) for t in spec["snapshots"])]

    out: dict = {"error": None}
    value = None
    start = time.perf_counter()
    try:
        if kind == "survey":
            value = harness.run_survey(config)
        elif kind == "montecarlo":
            value = harness.monte_carlo(config, spec["runs"])
        else:
            value = cli.main(argv)
    except Exception:  # noqa: BLE001 - reported as a failed operation
        out["error"] = traceback.format_exc()
    end = time.perf_counter()
    if kind == "survey":
        value = None  # drop the posteriors; the probe kept what the checks read

    out["wall_s"] = end - start
    out["setup_s"] = None if probes.first_measurement is None else probes.first_measurement - start
    surveys = []
    for s in probes.surveys:
        if s.end is None:
            continue
        cycles = [1e3 * (b - a) for a, b in zip(s.stamps[:-1], s.stamps[1:])]
        surveys.append({"duration_s": s.end - s.start, "cycles_ms": cycles})
    out["surveys"] = surveys
    out["measurements"] = sum(len(s.stamps) for s in probes.surveys)

    found = [("completed", None if out["error"] is None else out["error"].strip().splitlines()[-1])]
    if out["error"] is None:
        if kind == "survey":
            found += survey_checks(probes.surveys[0].record if probes.surveys else None)
        elif kind == "montecarlo":
            found += montecarlo_checks(probes, value, spec, out)
        else:
            found += cli_checks(value, config, spec)
    out["checks"] = found

    if probes.traced:
        out["layers"] = probes.layer_totals()
        out["absent"] = probes.absent
        out["coeff_calls"] = probes.coeff_calls
        out["coeff_repeats"] = probes.coeff_repeats
        out["bytes_written"] = probes.bytes_written
        if spec.get("spans"):
            probes.write_spans(spec["spans"])
    return out


def montecarlo_checks(probes, result, spec: dict, out: dict):
    runs = spec["runs"]
    traces = [s for s in probes.surveys if s.record is not None]
    found = [("survey_count", None if len(traces) == runs else f"{len(traces)} surveys, want {runs}")]
    by_run = sorted(traces, key=lambda s: s.record[4][0].run_id if s.record[4] else -1)
    for k in range(runs):
        light = by_run[k].record if k < len(by_run) else None
        found += survey_checks(light, prefix=f"run{k}.")
    found.append(("mc_row_count", checks.mc_row_count(result, spec["config"]["max_measurements"])))
    found.append(("mc_std_meters", checks.mc_std_meters(result)))
    if by_run:
        want = checks.t0_power_closed_form(checks.from_record(by_run[0].record))
        got = float(result.mean_total_unc_power[0])
        reason = None if abs(got - want) <= checks.FLOAT_TOL else f"t=0 mean power {got!r}, closed form {want!r}"
    else:
        reason = "no survey to derive the closed form from"
    found.append(("mc_t0_power", reason))
    out["t0_row"] = checks.mc_t0_row(result)
    return found


def cli_checks(code, config, spec: dict):
    outdir = spec["outdir"]
    num_tx = config.num_transmitters if not config.channel.transmitters else len(config.channel.transmitters)
    found = [("exit_code", None if code == 0 else f"exit code {code}")]
    found.append(("csv_headers", checks.cli_headers(outdir)))
    found.append(("snapshot_files", checks.cli_files(outdir, spec["snapshots"], num_tx)))
    try:
        d = checks.from_cli_output(outdir, config)
    except (OSError, ValueError, KeyError, StopIteration) as exc:
        reason = f"cannot read metrics.csv/trajectory.csv: {exc}"
        found += [(name, reason) for name, _ in checks.SURVEY_CHECKS]
        found += [("snapshot_entropy", reason), ("snapshot_mean", reason)]
        return found
    found += checks.run_checks(checks.SURVEY_CHECKS, d)
    try:
        metrics = {"t": d.t, "total_unc_service": d.total_unc_service}
        entropy, mean = checks.cli_snapshots(outdir, spec["snapshots"], num_tx, metrics)
    except (OSError, ValueError) as exc:
        entropy = mean = f"cannot read snapshot files: {exc}"
    found += [("snapshot_entropy", entropy), ("snapshot_mean", mean)]
    return found


def run_child(spec: dict, mods: dict) -> None:
    """Body of a forked child: never returns."""
    code = 1
    try:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)  # the CLI prints a summary; keep the reply channel clean
        result = run_unit(spec, mods)
        with open(spec["result"], "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        code = 0
    except BaseException:  # noqa: BLE001 - reported through the exit code
        traceback.print_exc()
    finally:
        sys.stderr.flush()
        os._exit(code)


def main() -> int:
    mods = import_package()
    reply = sys.stdout
    reply.write(json.dumps({"ready": True}) + "\n")
    reply.flush()
    for line in sys.stdin:
        spec = json.loads(line)
        pid = os.fork()
        if pid == 0:
            run_child(spec, mods)
        _, status, usage = os.wait4(pid, 0)
        reply.write(json.dumps({"exit": os.waitstatus_to_exitcode(status), "maxrss_kib": usage.ru_maxrss}) + "\n")
        reply.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
