"""Tests of the benchmark itself: every output check rejects corrupted output.

Run from the root of a checkout:

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import probes  # noqa: E402
import run as bench_run  # noqa: E402
from aerosurvey import cli, harness  # noqa: E402


def _survey(planner: str, noise_var: float = 0.0) -> checks.SurveyData:
    cfg = cli.default_config(
        {"rows": 8, "cols": 8, "max_measurements": 40, "planner": planner, "noise_var": noise_var, "seed": 3}
    )
    rec = harness.run_survey(cfg)
    light = (rec.config, rec.params, rec.ground_truth.powers, rec.measurements, rec.metrics)
    return checks.from_record(light)


@pytest.fixture(scope="module")
def grid_survey() -> checks.SurveyData:
    return _survey("grid")


@pytest.fixture(scope="module")
def min_cost_survey() -> checks.SurveyData:
    return _survey("min_cost")


def _fails(fn, d) -> bool:
    return fn(d) is not None


def test_genuine_surveys_pass_every_check(grid_survey, min_cost_survey):
    for d in (grid_survey, min_cost_survey):
        assert [r for _, r in checks.run_checks(checks.NOISELESS_CHECKS, d) if r] == []


def test_grid_sweep_lands_on_even_measurements(grid_survey):
    idx = checks.node_index(grid_survey)
    assert np.array_equal(np.flatnonzero(idx >= 0), np.arange(0, 41, 2))


def test_row_count_rejects_a_missing_row(grid_survey):
    d = copy.deepcopy(grid_survey)
    d.t, d.meters = d.t[:-1], d.meters[:-1]
    assert _fails(checks.row_count, d)


def test_meters_rejects_a_shifted_column(grid_survey):
    d = copy.deepcopy(grid_survey)
    d.meters = d.meters + d.measurement_spacing
    assert _fails(checks.meters_column, d)


def test_steps_reject_a_long_jump(min_cost_survey):
    d = copy.deepcopy(min_cost_survey)
    d.positions[10] += np.array([3.0, 3.0])
    assert _fails(checks.step_lengths, d)


def test_steps_reject_a_position_outside_the_grid(grid_survey):
    d = copy.deepcopy(grid_survey)
    d.positions = d.positions - np.array([2.0, 0.0])  # same steps, shifted off the grid
    d.start = (-2.0, 0.0)
    assert _fails(checks.step_lengths, d)


def test_monotone_rejects_a_rising_power_row(min_cost_survey):
    d = copy.deepcopy(min_cost_survey)
    d.total_unc_power[20] = d.total_unc_power[19] + 1e-6
    assert _fails(checks.power_monotone, d)


@pytest.mark.parametrize("column", ["total_unc_power", "total_unc_service", "service_error_rate"])
def test_unit_interval_rejects_values_outside(min_cost_survey, column):
    d = copy.deepcopy(min_cost_survey)
    getattr(d, column)[5] = 1.0 + 1e-6
    assert _fails(checks.unit_interval, d)
    getattr(d, column)[5] = -1e-6
    assert _fails(checks.unit_interval, d)


def test_on_node_rejects_a_reading_off_the_truth(grid_survey):
    d = copy.deepcopy(grid_survey)
    d.rss[4, 1] += 1e-6
    assert _fails(checks.on_node_truth, d)


def test_on_node_rejects_a_sweep_that_misses_nodes(grid_survey):
    d = copy.deepcopy(grid_survey)
    d.positions[2] += np.array([0.0, 1e-3])
    assert _fails(checks.on_node_truth, d)


def test_t0_closed_form_matches_and_rejects(min_cost_survey):
    assert abs(checks.t0_power_closed_form(min_cost_survey) - min_cost_survey.total_unc_power[0]) < 1e-10
    d = copy.deepcopy(min_cost_survey)
    d.total_unc_power[0] -= 1e-6
    assert _fails(checks.t0_power, d)


def test_t0_closed_form_with_noise():
    d = _survey("spiral", noise_var=0.25)
    assert checks.t0_power(d) is None
    d.noise_var = 0.0  # the closed form must see the noise to agree
    assert checks.t0_power(d) is not None


def test_paired_t0_rejects_one_planner_off():
    rows = {"a": [0.0, 0.0, 0.9, 0.01], "b": [0.0, 0.0, 0.9, 0.01]}
    assert checks.paired_t0(rows) is None
    rows["b"] = [0.0, 0.0, 0.9 + 1e-9, 0.01]
    assert checks.paired_t0(rows) is not None


def test_montecarlo_checks_reject_spread_meters_and_short_horizon():
    cfg = cli.default_config({"rows": 6, "cols": 6, "max_measurements": 12, "seed": 2})
    result = harness.monte_carlo(cfg, 2, workers=1)
    assert checks.mc_std_meters(result) is None
    assert checks.mc_row_count(result, 12) is None
    bad = copy.deepcopy(result)
    bad.std_meters = bad.std_meters.copy()
    bad.std_meters[3] = 1e-3
    assert checks.mc_std_meters(bad) is not None
    assert checks.mc_row_count(result, 13) is not None


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("cli")
    overrides = {"rows": 6, "cols": 6, "noise_var": 0.25, "max_measurements": 60, "seed": 4}
    cfg_path = outdir / "config.json"
    cfg_path.write_text(json.dumps(overrides))
    snaps = (0, 20, 40, 60)
    argv = ["survey", "--config", str(cfg_path), "--out-dir", str(outdir / "out"), "--snapshots", "0,20,40,60"]
    assert cli.main(argv) == 0
    return outdir / "out", cli.default_config(overrides), snaps


def _copy_out(cli_run, tmp_path) -> Path:
    src, _, _ = cli_run
    dst = tmp_path / "out"
    shutil.copytree(src, dst)
    return dst


def _snapshot_reasons(outdir, cfg, snaps):
    d = checks.from_cli_output(str(outdir), cfg)
    return checks.cli_snapshots(str(outdir), snaps, 2, {"t": d.t, "total_unc_service": d.total_unc_service})


def test_genuine_cli_output_passes(cli_run):
    outdir, cfg, snaps = cli_run
    assert checks.cli_headers(str(outdir)) is None
    assert checks.cli_files(str(outdir), snaps, 2) is None
    d = checks.from_cli_output(str(outdir), cfg)
    assert [r for _, r in checks.run_checks(checks.SURVEY_CHECKS, d) if r] == []
    assert _snapshot_reasons(outdir, cfg, snaps) == (None, None)


def test_cli_header_check_rejects_a_renamed_column(cli_run, tmp_path):
    out = _copy_out(cli_run, tmp_path)
    text = (out / "metrics.csv").read_text().replace("total_unc_power", "unc_power", 1)
    (out / "metrics.csv").write_text(text)
    assert checks.cli_headers(str(out)) is not None


def test_cli_file_check_rejects_a_missing_snapshot_file(cli_run, tmp_path):
    out = _copy_out(cli_run, tmp_path)
    os.unlink(out / "snapshot_t0040_service_prob_tx1.pgm")
    assert checks.cli_files(str(out), cli_run[2], 2) is not None


def test_cli_meters_check_reads_the_csv(cli_run, tmp_path):
    out = _copy_out(cli_run, tmp_path)
    lines = (out / "metrics.csv").read_text().splitlines()
    run, t, meters, *rest = lines[5].split(",")
    lines[5] = ",".join([run, t, str(float(meters) + 5.0), *rest])
    (out / "metrics.csv").write_text("\n".join(lines) + "\n")
    assert checks.meters_column(checks.from_cli_output(str(out), cli_run[1])) is not None


def _edit_matrix(path: Path, r: int, c: int, value: str) -> None:
    lines = path.read_text().splitlines()
    body = [i for i, line in enumerate(lines) if not line.startswith("#")]
    cells = lines[body[r]].split(",")
    cells[c] = value
    lines[body[r]] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_entropy_check_rejects_an_edited_uncertainty_cell(cli_run, tmp_path):
    out = _copy_out(cli_run, tmp_path)
    path = out / "snapshot_t0020_uncertainty.csv"
    unc = checks.read_csv_matrix(str(path))
    r, c = np.unravel_index(int(np.argmax(unc)), unc.shape)
    assert unc[r, c] > 0.1
    _edit_matrix(path, int(r), int(c), f"{unc[r, c] * 0.99:.6g}")
    entropy, _ = _snapshot_reasons(out, cli_run[1], cli_run[2])
    assert entropy is not None


def test_entropy_check_rejects_an_edited_probability(cli_run, tmp_path):
    out = _copy_out(cli_run, tmp_path)
    path = out / "snapshot_t0000_service_prob_tx0.csv"
    probs = checks.read_csv_matrix(str(path))
    other = checks.read_csv_matrix(str(out / "snapshot_t0000_service_prob_tx1.csv"))
    # pick the cell where transmitter 0 sets the max by the widest margin,
    # then make transmitter 0 certain there
    margin = checks.binary_entropy(probs) - checks.binary_entropy(other)
    r, c = np.unravel_index(int(np.argmax(margin)), margin.shape)
    assert margin[r, c] > 0.1
    _edit_matrix(path, int(r), int(c), "1")
    entropy, _ = _snapshot_reasons(out, cli_run[1], cli_run[2])
    assert entropy is not None


def test_mean_check_rejects_a_shifted_total(cli_run, tmp_path):
    out = _copy_out(cli_run, tmp_path)
    lines = (out / "metrics.csv").read_text().splitlines()
    cells = lines[1 + 39].split(",")  # the row t = 39 precedes snapshot 40
    assert cells[1] == "39"
    cells[4] = f"{float(cells[4]) + 1e-4:.10g}"
    lines[1 + 39] = ",".join(cells)
    (out / "metrics.csv").write_text("\n".join(lines) + "\n")
    _, mean = _snapshot_reasons(out, cli_run[1], cli_run[2])
    assert mean is not None


# -- probes -------------------------------------------------------------------


def _fake_package(name: str) -> types.ModuleType:
    pkg = types.ModuleType(name)
    calls = []

    def take_measurement(x):
        calls.append(x)
        return x

    channel = types.ModuleType(f"{name}.channel")
    channel.take_measurement = take_measurement
    harness = types.ModuleType(f"{name}.harness")
    harness.take_copy = take_measurement  # a `from .channel import take_measurement` binding
    sys.modules[name] = pkg
    sys.modules[f"{name}.channel"] = channel
    sys.modules[f"{name}.harness"] = harness
    return pkg


def test_probes_replace_every_binding_and_report_absent_functions():
    _fake_package("fakepkg")
    try:
        p = probes.Probes("fakepkg", traced=True)
        p.install()
        channel, harness = sys.modules["fakepkg.channel"], sys.modules["fakepkg.harness"]
        assert channel.take_measurement is harness.take_copy
        assert channel.take_measurement(3) == 3
        assert harness.take_copy(4) == 4
        assert p.layer_totals()["channel.take_measurement"]["calls"] == 2
        assert len(p.absent) == len(probes.TRACED) - 1
    finally:
        for mod in ("fakepkg", "fakepkg.channel", "fakepkg.harness"):
            sys.modules.pop(mod, None)


def test_self_time_merges_overlapping_children():
    p = probes.Probes("nothing", traced=True)
    p.spans = [
        (1, "outer", 0.0, 10.0, None, None),
        (2, "child", 1.0, 4.0, 1, None),
        (3, "child", 2.0, 6.0, 1, None),  # overlaps the first child (pool worker)
        (4, "child", 8.0, 12.0, 1, None),  # runs past the parent's end
    ]
    totals = p.layer_totals()
    assert totals["outer"]["self_s"] == pytest.approx(10.0 - 5.0 - 2.0)
    assert totals["child"]["calls"] == 3


def test_percentile_interpolates():
    assert bench_run.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
    assert bench_run.percentile([0.0, 10.0], 99) == pytest.approx(9.9)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "survey_default", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
