"""CLI tests: config loading, file outputs, determinism, exit codes."""

import json
import os
import re
import stat
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import aerosurvey
from aerosurvey import cli
from aerosurvey.channel import ChannelParams
from aerosurvey.cli import ConfigError, default_config, main, write_grid
from aerosurvey.harness import SurveyConfig
from aerosurvey.planner import PlannerKind
from aerosurvey.spatial import GridSpec, Waypoint

# A config key is a field of GridSpec, ChannelParams or SurveyConfig, other
# than SurveyConfig's own grid and channel.
CONFIG_KEYS = {
    f.name for cls in (GridSpec, ChannelParams, SurveyConfig) for f in fields(cls)
} - {"grid", "channel"}


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def config_from_file(path):
    """The config the CLI builds from the file at ``path``, with no --seed or --planner."""
    return default_config(cli._read_json(path))


class TestConfigLoading:
    def test_empty_object_gives_default_scenario(self, tmp_path):
        cfg = config_from_file(write_config(tmp_path, {}))
        assert cfg.grid.rows == 30
        assert cfg.grid.cols == 25
        assert cfg.grid.spacing == 10.0
        assert cfg.grid.altitude == 20.0
        assert cfg.channel.frequency == 2.4e9
        assert cfg.channel.shadow_var == 9.0
        assert cfg.channel.corr_distance == 50.0
        assert cfg.channel.fading_var == 0.0
        assert cfg.channel.noise_var == 0.0
        assert cfg.num_transmitters == 2
        assert cfg.tx_power_dbm == 10.0
        assert cfg.r_min == -65.0
        assert cfg.measurement_spacing == 5.0
        assert cfg.planner is PlannerKind.MIN_COST
        assert cfg.aggregation == "max"
        assert cfg.target == "service"
        assert cfg.max_measurements == 300
        assert cfg.seed == 0

    def test_defaults_are_the_dataclass_defaults_on_the_default_grid(self):
        grid = GridSpec(rows=30, cols=25, spacing=10.0, altitude=20.0)
        assert default_config({}) == SurveyConfig(grid=grid, channel=ChannelParams())
        assert default_config() == default_config({})

    def test_every_key_set_to_its_default_gives_the_defaults(self):
        cfg = default_config({})
        values = {**vars(cfg.grid), **vars(cfg.channel), **vars(cfg)}

        def as_json(value):
            if isinstance(value, PlannerKind):
                return value.value
            if isinstance(value, Waypoint):
                return [value.x, value.y]
            if value == ():
                return None  # no explicit transmitters
            return list(value) if isinstance(value, tuple) else value

        assert default_config({key: as_json(values[key]) for key in CONFIG_KEYS}) == cfg

    def test_readme_table_lists_every_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
        first_cells = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `")]
        assert {key for cell in first_cells for key in re.findall(r"`(\w+)`", cell)} == CONFIG_KEYS

    def test_unknown_key_rejected_by_name(self, tmp_path):
        path = write_config(tmp_path, {"speeed": 4.0})
        with pytest.raises(ConfigError, match="speeed"):
            config_from_file(path)

    def test_negative_spacing_names_field(self, tmp_path):
        path = write_config(tmp_path, {"spacing": -1})
        with pytest.raises(ConfigError, match="spacing"):
            config_from_file(path)

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\n  'single': 1\n}")
        with pytest.raises(ConfigError, match="line 2"):
            config_from_file(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            config_from_file("/nonexistent/config.json")

    def test_non_object_root_rejected(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="object"):
            config_from_file(str(path))

    def test_explicit_transmitters(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "transmitters": [
                    {"position": [10.0, 20.0, 10.0], "power_dbm": 12.0},
                    {"position": [200.0, 100.0, 10.0]},
                ]
            },
        )
        cfg = config_from_file(path)
        assert cfg.channel.num_transmitters == 2
        assert cfg.channel.transmitters[0].power_dbm == 12.0
        # unset power falls back to the scenario transmit power
        assert cfg.channel.transmitters[1].power_dbm == 10.0

    def test_bad_transmitter_entry(self, tmp_path):
        path = write_config(tmp_path, {"transmitters": [{"position": [1, 2]}]})
        with pytest.raises(ConfigError, match="transmitters"):
            config_from_file(path)

    def test_stop_criterion_required(self, tmp_path):
        path = write_config(
            tmp_path, {"max_measurements": None, "uncertainty_threshold": None}
        )
        with pytest.raises(ConfigError):
            config_from_file(path)

    @pytest.mark.parametrize("threshold", [0.0, -1.0, 1.5, float("nan")])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        with pytest.raises(ConfigError, match="uncertainty_threshold"):
            default_config({"max_measurements": 10, "uncertainty_threshold": threshold})

    # One bad value per config key; each must be rejected naming the key.
    BAD_VALUES = [
        ("rows", 0),
        ("rows", 2.0),
        ("cols", 0),
        ("cols", True),
        ("spacing", -1.0),
        ("spacing", 0),
        ("altitude", -0.5),
        ("origin", [0.0]),
        ("origin", ["a", 0.0]),
        ("transmitters", []),
        ("transmitters", [{"position": [1.0, 2.0, "z"]}]),
        ("num_transmitters", 0),
        ("num_transmitters", 1.5),
        ("tx_height", -5.0),
        ("tx_power_dbm", "loud"),
        ("frequency", 0.0),
        ("pathloss_exponent", -2.0),
        ("shadow_var", -1.0),
        ("shadow_mean", None),
        ("corr_distance", 0.0),
        ("fading_var", -0.1),
        ("noise_var", float("nan")),
        ("r_min", "low"),
        ("measurement_spacing", 0.0),
        ("planner", "zigzag"),
        ("planner", 3),
        ("aggregation", "median"),
        ("target", "coverage"),
        ("max_measurements", -1),
        ("max_measurements", 2.5),
        ("uncertainty_threshold", 2.0),
        ("uncertainty_threshold", "low"),
        ("start_position", [-5.0, 0.0]),
        ("start_position", [0.0, 0.0, 0.0]),
        ("seed", -1),
        ("seed", 2**64),
        ("seed", 1.0),
    ]

    def test_default_config_override_validation(self):
        for key, value in self.BAD_VALUES:
            with pytest.raises(ConfigError, match=key):
                default_config({key: value})

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400])
    def test_non_finite_numbers_rejected(self, tmp_path, text):
        path = tmp_path / "config.json"
        path.write_text('{"max_measurements": 5, "measurement_spacing": %s}' % text)
        with pytest.raises(ConfigError, match="measurement_spacing"):
            config_from_file(str(path))

    def test_largest_finite_numbers_accepted(self):
        for value in (sys.float_info.max, -sys.float_info.max):
            assert default_config({"r_min": value}).r_min == value

    def test_every_key_has_a_bad_value(self):
        assert {key for key, _ in self.BAD_VALUES} == CONFIG_KEYS

    def test_removed_speed_key_is_unknown(self):
        with pytest.raises(ConfigError, match="unknown config key: 'speed'"):
            default_config({"speed": 5.0})


class TestWriteGrid:
    def test_csv_layout_and_digits(self, tmp_path):
        g = GridSpec(rows=2, cols=2, spacing=10.0)
        path = str(tmp_path / "field.csv")
        write_grid(np.array([0.0, 1.0, 2.0, 3.0]), g, path, "csv")
        lines = Path(path).read_text().strip().splitlines()
        assert lines == ["0,1", "2,3"]

    def test_csv_roundtrip_six_significant_digits(self, tmp_path):
        g = GridSpec(rows=3, cols=4, spacing=10.0)
        vals = np.random.default_rng(0).normal(-60.0, 10.0, 12)
        path = str(tmp_path / "field.csv")
        write_grid(vals, g, path, "csv")
        back = np.loadtxt(path, delimiter=",").ravel()
        np.testing.assert_allclose(back, vals, rtol=1e-5)

    def test_csv_comment_header(self, tmp_path):
        g = GridSpec(rows=1, cols=2, spacing=10.0)
        path = str(tmp_path / "field.csv")
        write_grid(np.array([1.0, 2.0]), g, path, "csv", comment="power map (dBm)")
        first = Path(path).read_text().splitlines()[0]
        assert first.startswith("# ")

    def test_pgm_header_and_scaling(self, tmp_path):
        g = GridSpec(rows=2, cols=3, spacing=10.0)
        path = str(tmp_path / "field.pgm")
        write_grid(np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0]), g, path, "pgm")
        lines = Path(path).read_text().split("\n")
        assert lines[0] == "P2"
        assert lines[1] == "3 2"
        assert lines[2] == "255"
        pixels = [int(v) for row in lines[3:5] for v in row.split()]
        assert pixels[0] == 0 and pixels[-1] == 255

    def test_constant_field_pgm_is_zeros(self, tmp_path):
        g = GridSpec(rows=2, cols=2, spacing=10.0)
        path = str(tmp_path / "const.pgm")
        write_grid(np.full(4, 7.0), g, path, "pgm")
        body = Path(path).read_text().split("\n")[3:]
        vals = [int(v) for row in body for v in row.split()]
        assert vals == [0, 0, 0, 0]

    def test_length_mismatch_rejected(self, tmp_path):
        g = GridSpec(rows=2, cols=2, spacing=10.0)
        with pytest.raises(ValueError):
            write_grid(np.zeros(3), g, str(tmp_path / "x.csv"), "csv")

    def test_unknown_format_rejected(self, tmp_path):
        g = GridSpec(rows=2, cols=2, spacing=10.0)
        with pytest.raises(ValueError):
            write_grid(np.zeros(4), g, str(tmp_path / "x.bmp"), "bmp")

    def test_no_partial_files_left_behind(self, tmp_path):
        g = GridSpec(rows=2, cols=2, spacing=10.0)
        path = str(tmp_path / "a.csv")
        write_grid(np.zeros(4), g, path, "csv")
        leftovers = [f for f in os.listdir(tmp_path) if f.endswith(".part")]
        assert leftovers == []


SMALL = {
    "rows": 6,
    "cols": 6,
    "max_measurements": 12,
    "noise_var": 0.25,
}


class TestSurveyCommand:
    def test_writes_metrics_trajectory_and_exits_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL)
        out = str(tmp_path / "out")
        code = main(["survey", "--config", cfg, "--out-dir", out])
        assert code == 0
        header = Path(out, "metrics.csv").read_text().splitlines()[0]
        assert header == "run,t,meters,total_unc_power,total_unc_service,service_error_rate"
        tra = Path(out, "trajectory.csv").read_text().strip().splitlines()
        assert tra[0] == "t,x,y"
        assert len(tra) == 14  # header + 13 measurements

    def test_snapshot_zero_writes_grid_maps(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        out = str(tmp_path / "out")
        code = main(
            ["survey", "--config", cfg, "--out-dir", out, "--snapshots", "0"]
        )
        assert code == 0
        names = sorted(os.listdir(out))
        assert "snapshot_t0000_uncertainty.csv" in names
        assert "snapshot_t0000_uncertainty.pgm" in names
        assert "snapshot_t0000_true_power_tx0.csv" in names
        assert "snapshot_t0000_posterior_mean_tx1.pgm" in names
        assert "snapshot_t0000_service_prob_tx0.csv" in names

    def test_uncertainty_maps_print_no_negative_zero(self, tmp_path):
        # By measurement 10 this survey is certain of some points' service.
        cfg = write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        assert main(["survey", "--config", cfg, "--out-dir", str(out), "--snapshots", "10,12"]) == 0
        for t in (10, 12):
            text = (out / f"snapshot_t{t:04d}_uncertainty.csv").read_text()
            cells = [c for line in text.splitlines()[1:] for c in line.split(",")]
            assert "0" in cells and "-0" not in cells

    def test_snapshot_past_budget_exits_one_before_writing(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"rows": 6, "cols": 6, "max_measurements": 10})
        out = tmp_path / "out"
        code = main(["survey", "--config", cfg, "--out-dir", str(out), "--snapshots", "0,50"])
        assert code == 1
        assert "max_measurements" in capsys.readouterr().err
        assert not out.exists()

    def test_snapshot_at_budget_is_written(self, tmp_path):
        cfg = write_config(tmp_path, {"rows": 6, "cols": 6, "max_measurements": 10})
        out = tmp_path / "out"
        assert main(["survey", "--config", cfg, "--out-dir", str(out), "--snapshots", "0,10"]) == 0
        names = os.listdir(out)
        assert "snapshot_t0000_uncertainty.csv" in names
        assert "snapshot_t0010_uncertainty.csv" in names

    def test_missing_config_file_exits_one(self, tmp_path, capsys):
        code = main(
            ["survey", "--config", "/no/such/file.json", "--out-dir", str(tmp_path)]
        )
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_unknown_config_key_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"bogus": 1})
        code = main(["survey", "--config", cfg, "--out-dir", str(tmp_path / "o")])
        assert code == 1
        assert "bogus" in capsys.readouterr().err

    def test_runtime_failure_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL)
        blocker = tmp_path / "blocked"
        blocker.write_text("i am a file")
        code = main(["survey", "--config", cfg, "--out-dir", str(blocker)])
        assert code == 2

    @pytest.mark.parametrize("threshold", [0.0, -1.0])
    def test_threshold_only_config_exits_one(self, tmp_path, threshold):
        # No budget and a threshold the survey cannot reach: rejected up front,
        # in a subprocess so that a regression times out instead of hanging.
        cfg = write_config(
            tmp_path,
            {
                "rows": 6,
                "cols": 6,
                "max_measurements": None,
                "uncertainty_threshold": threshold,
                "noise_var": 4.0,
            },
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(aerosurvey.__file__)))
        argv = [sys.executable, "-m", "aerosurvey.cli", "survey", "--config", cfg]
        proc = subprocess.run(
            argv + ["--out-dir", str(tmp_path / "o")],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 1
        assert "max_measurements" in proc.stderr
        assert not os.path.exists(tmp_path / "o")

    def test_threshold_run_that_never_measures_exits_one(self, tmp_path, capsys):
        # A threshold might stop a survey at its first measurement, but this
        # one's lies below what one measurement leaves, so the survey would fly
        # and a spacing longer than any flight would never yield a sample. Such
        # a config is rejected before the survey flies, like one without a
        # threshold, instead of failing after 10,000 idle episodes.
        cfg = write_config(
            tmp_path,
            {
                "rows": 4,
                "cols": 4,
                "measurement_spacing": 1e12,
                "max_measurements": 1,
                "planner": "random",
                "target": "power",
                "uncertainty_threshold": 0.01,
            },
        )
        code = main(["survey", "--config", cfg, "--out-dir", str(tmp_path / "o")])
        assert code == 1
        assert "second measurement" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "o")

    def test_sweep_within_reach_measures_twice(self, tmp_path):
        # Every episode flies at least one 10 m grid step, so the 10,001
        # episodes the idle guard allows reach a spacing of 9,999 steps.
        cfg = write_config(
            tmp_path,
            {"rows": 2, "cols": 2, "planner": "grid", "measurement_spacing": 99990, "max_measurements": 1},
        )
        out = tmp_path / "o"
        assert main(["survey", "--config", cfg, "--out-dir", str(out)]) == 0
        assert len((out / "metrics.csv").read_text().strip().splitlines()) == 1 + 2

    @pytest.mark.parametrize("shape", [(1, 2), (2, 2)])
    def test_random_within_reach_measures_twice(self, tmp_path, shape):
        # A random episode never draws the node it is on, so each flies at
        # least one step, and 90,000 m lies within 9,999 of them.
        rows, cols = shape
        cfg = write_config(
            tmp_path,
            {"rows": rows, "cols": cols, "planner": "random", "measurement_spacing": 90000, "max_measurements": 1},
        )
        out = tmp_path / "o"
        assert main(["survey", "--config", cfg, "--out-dir", str(out)]) == 0
        assert len((out / "metrics.csv").read_text().strip().splitlines()) == 1 + 2

    @pytest.mark.parametrize("planner", ["grid", "spiral"])
    def test_sweep_that_never_measures_exits_one(self, tmp_path, capsys, planner):
        # A spacing beyond 9,999 grid steps is rejected before the survey flies.
        cfg = write_config(
            tmp_path,
            {"rows": 4, "cols": 4, "measurement_spacing": 1e12, "max_measurements": 1, "planner": planner},
        )
        code = main(["survey", "--config", cfg, "--out-dir", str(tmp_path / "o")])
        assert code == 1
        assert "measurement_spacing" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "o")

    @pytest.mark.parametrize("planner", ["min_cost", "random"])
    def test_planned_run_that_never_measures_exits_one(self, tmp_path, capsys, planner):
        # A spacing beyond 9,999 grid steps is rejected before the survey
        # flies: far beyond, and at 300,000 m on a 2 x 2 grid, where a
        # min_cost survey could fly 10,001 episodes without measuring again.
        for rows, spacing in ((4, 1e12), (2, 300000)):
            cfg = write_config(
                tmp_path,
                {"rows": rows, "cols": rows, "measurement_spacing": spacing, "max_measurements": 1, "planner": planner},
            )
            code = main(["survey", "--config", cfg, "--out-dir", str(tmp_path / "o")])
            assert code == 1
            assert "second measurement" in capsys.readouterr().err
            assert not os.path.exists(tmp_path / "o")

    def test_min_cost_on_line_grid_runs(self, tmp_path):
        for rows, cols in ((1, 10), (10, 1)):
            line = {"rows": rows, "cols": cols, "max_measurements": 20, "planner": "min_cost"}
            cfg = write_config(tmp_path, line)
            out = tmp_path / f"o{rows}x{cols}"
            assert main(["survey", "--config", cfg, "--out-dir", str(out)]) == 0
            metrics = (out / "metrics.csv").read_text().strip().splitlines()
            assert len(metrics) == 1 + 21
            trajectory = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
            assert len(trajectory) == 21
            across = trajectory[:, 1] if cols == 1 else trajectory[:, 2]
            along = trajectory[:, 2] if cols == 1 else trajectory[:, 1]
            np.testing.assert_array_equal(across, 0.0)
            assert np.all((0.0 <= along) & (along <= 90.0))

    def test_transmitter_on_a_grid_node_exits_one(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"rows": 5, "cols": 5, "altitude": 10, "transmitters": [{"position": [10, 10, 10]}]},
        )
        for command in (["survey"], ["montecarlo", "--runs", "2"]):
            out = tmp_path / command[0]
            assert main(command + ["--config", cfg, "--out-dir", str(out)]) == 1
            assert "coincides with the transmitter" in capsys.readouterr().err
            assert not out.exists()

    def test_transmitters_drawn_onto_a_one_point_grid_exit_one(self, tmp_path, capsys):
        # Every transmitter drawn over a one-point grid lands on its point, at
        # zero link distance when tx_height equals the altitude.
        cfg = write_config(tmp_path, {"rows": 1, "cols": 1, "altitude": 10, "tx_height": 10, "max_measurements": 3})
        for command in (["survey"], ["montecarlo", "--runs", "2"]):
            out = tmp_path / command[0]
            assert main(command + ["--config", cfg, "--out-dir", str(out)]) == 1
            assert "one-point grid" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize(
        "extra", [{"spacing": 1e200}, {"spacing": 1e308}, {"tx_height": 1e200}, {"altitude": 1e200}]
    )
    def test_overflowing_link_distances_exit_one(self, tmp_path, capsys, extra):
        # The grid diagonal or the altitude offset to a drawn transmitter
        # squares past the largest float: rejected before any run starts.
        cfg = write_config(tmp_path, dict({"rows": 3, "cols": 3, "max_measurements": 3}, **extra))
        out = tmp_path / "o"
        assert main(["survey", "--config", cfg, "--out-dir", str(out)]) == 1
        assert "squared link distances overflow" in capsys.readouterr().err
        assert not out.exists()

    def test_too_long_correlation_exits_one(self, tmp_path, capsys):
        # Drawing this shadowing exactly would need a circulant torus of more
        # than 2**24 points: rejected before any run starts.
        cfg = write_config(tmp_path, {"rows": 6, "cols": 5, "corr_distance": 2000, "max_measurements": 3})
        out = tmp_path / "o"
        assert main(["survey", "--config", cfg, "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert "corr_distance 2000 m" in err and "spacing 10 m" in err
        assert not out.exists()

    def test_shadow_variance_at_the_float_limit_exits_one(self, tmp_path, capsys):
        # The estimator's update would overflow; rejected before any run starts.
        cfg = write_config(tmp_path, {"rows": 3, "cols": 3, "shadow_var": 1.7976931348623157e308})
        out = tmp_path / "o"
        assert main(["survey", "--config", cfg, "--out-dir", str(out)]) == 1
        assert "shadow_var" in capsys.readouterr().err
        assert not out.exists()

    def test_noise_free_survey_with_large_shadowing_exits_zero(self, tmp_path):
        # The noise floor grows with the prior variance, so near-exact
        # repeated observations keep a positive innovation variance.
        cfg = write_config(tmp_path, {"shadow_var": 1e8, "rows": 3, "cols": 3, "max_measurements": 60})
        out = tmp_path / "o"
        assert main(["survey", "--config", cfg, "--out-dir", str(out)]) == 0
        rows = (out / "metrics.csv").read_text().splitlines()
        assert len(rows) == 62 and "nan" not in "".join(rows[1:]).lower()

    def test_too_long_correlation_without_shadowing_runs(self, tmp_path):
        config = {"rows": 6, "cols": 5, "corr_distance": 2000, "shadow_var": 0, "max_measurements": 3}
        cfg = write_config(tmp_path, config)
        assert main(["survey", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 0

    def test_large_but_finite_link_distances_run(self, tmp_path):
        cfg = write_config(tmp_path, {"rows": 3, "cols": 3, "max_measurements": 3, "spacing": 1e150})
        assert main(["survey", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 0

    def test_overflowing_explicit_transmitter_exits_one(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"rows": 3, "cols": 3, "max_measurements": 3, "transmitters": [{"position": [0, 0, 1e200]}]},
        )
        assert main(["survey", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 1
        assert "overflow" in capsys.readouterr().err

    def test_planner_override_applies_before_validation(self, tmp_path):
        # The file's own seed is invalid, but the command line replaces it
        # before the config is checked.
        cfg = write_config(tmp_path, dict(SMALL, seed=-1))
        assert main(["survey", "--config", cfg, "--out-dir", str(tmp_path / "bad")]) == 1
        assert main(["survey", "--config", cfg, "--out-dir", str(tmp_path / "o"), "--seed", "3"]) == 0

    def test_bad_seed_override_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL)
        assert main(["survey", "--config", cfg, "--out-dir", str(tmp_path / "o"), "--seed", "-1"]) == 1
        assert "seed" in capsys.readouterr().err

    def test_seed_and_planner_overrides(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        assert main(["survey", "--config", cfg, "--out-dir", out_a, "--seed", "5"]) == 0
        assert (
            main(
                [
                    "survey",
                    "--config",
                    cfg,
                    "--out-dir",
                    out_b,
                    "--seed",
                    "5",
                    "--planner",
                    "spiral",
                ]
            )
            == 0
        )
        a = Path(out_a, "trajectory.csv").read_text()
        b = Path(out_b, "trajectory.csv").read_text()
        assert a != b

    def test_bad_planner_override_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL)
        code = main(
            [
                "survey",
                "--config",
                cfg,
                "--out-dir",
                str(tmp_path / "o"),
                "--planner",
                "zigzag",
            ]
        )
        assert code == 1


class TestMonteCarloCommand:
    def test_one_csv_per_planner(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        out = str(tmp_path / "mc")
        code = main(
            [
                "montecarlo",
                "--config",
                cfg,
                "--runs",
                "2",
                "--planners",
                "min_cost,grid,spiral,random",
                "--out-dir",
                out,
            ]
        )
        assert code == 0
        names = sorted(os.listdir(out))
        assert names == [
            "montecarlo_grid.csv",
            "montecarlo_min_cost.csv",
            "montecarlo_random.csv",
            "montecarlo_spiral.csv",
        ]

    def test_header_layout(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        out = str(tmp_path / "mc")
        main(
            ["montecarlo", "--config", cfg, "--runs", "2", "--planners", "grid", "--out-dir", out]
        )
        header = Path(out, "montecarlo_grid.csv").read_text().splitlines()[0]
        assert header == (
            "t,mean_meters,std_meters,mean_total_unc_power,std_total_unc_power,"
            "mean_total_unc_service,std_total_unc_service,"
            "mean_service_error_rate,std_service_error_rate"
        )

    def test_single_run_has_zero_std(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        out = str(tmp_path / "mc")
        main(
            ["montecarlo", "--config", cfg, "--runs", "1", "--planners", "grid", "--out-dir", out]
        )
        rows = np.loadtxt(
            os.path.join(out, "montecarlo_grid.csv"), delimiter=",", skiprows=1
        )
        # std columns: 2, 4, 6, 8
        np.testing.assert_array_equal(rows[:, [2, 4, 6, 8]], 0.0)

    def test_identical_invocations_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        args = ["montecarlo", "--config", cfg, "--runs", "3", "--planners", "min_cost,random"]
        assert main(args + ["--out-dir", out_a]) == 0
        assert main(args + ["--out-dir", out_b]) == 0
        for name in ("montecarlo_min_cost.csv", "montecarlo_random.csv"):
            a = Path(out_a, name).read_bytes()
            b = Path(out_b, name).read_bytes()
            assert a == b

    def test_bad_runs_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL)
        code = main(
            ["montecarlo", "--config", cfg, "--runs", "0", "--out-dir", str(tmp_path / "o")]
        )
        assert code == 1

    def test_threshold_config_exits_one_before_running(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(SMALL, uncertainty_threshold=0.5))
        out = tmp_path / "mc"
        code = main(["montecarlo", "--config", cfg, "--runs", "2", "--out-dir", str(out)])
        assert code == 1
        assert "uncertainty_threshold" in capsys.readouterr().err
        assert not out.exists()

    def test_min_cost_in_planner_list_on_line_grid_runs(self, tmp_path):
        line = {"rows": 1, "cols": 10, "max_measurements": 5, "planner": "grid"}
        cfg = write_config(tmp_path, line)
        out = tmp_path / "mc"
        argv = ["montecarlo", "--config", cfg, "--runs", "1", "--planners", "grid,min_cost"]
        assert main(argv + ["--out-dir", str(out)]) == 0
        for name in ("grid", "min_cost"):
            rows = (out / f"montecarlo_{name}.csv").read_text().strip().splitlines()
            assert len(rows) == 1 + 6

    def test_unknown_planner_in_list_exits_one_before_running(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL)
        out = tmp_path / "mc"
        argv = ["montecarlo", "--config", cfg, "--runs", "1", "--planners", "grid,zigzag"]
        assert main(argv + ["--out-dir", str(out)]) == 1
        assert "zigzag" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_planner_runs_once(self, tmp_path, capsys, monkeypatch):
        # A planner named twice runs once, in the order first named.
        calls = []
        real = cli.monte_carlo

        def spy(config, runs):
            calls.append(config.planner)
            return real(config, runs)

        monkeypatch.setattr(cli, "monte_carlo", spy)
        cfg = write_config(tmp_path, {"rows": 4, "cols": 4, "max_measurements": 10})
        out = tmp_path / "mc"
        argv = ["montecarlo", "--config", cfg, "--runs", "2", "--planners", "grid,grid", "--out-dir", str(out)]
        assert main(argv) == 0
        printed = capsys.readouterr().out.splitlines()
        assert [line.split()[:2] for line in printed] == [["montecarlo:", "planner=grid"]]
        assert calls == [PlannerKind.GRID]
        assert os.listdir(out) == ["montecarlo_grid.csv"]
        calls.clear()
        argv[-3] = "random,grid,random"
        assert main(argv) == 0
        assert calls == [PlannerKind.RANDOM, PlannerKind.GRID]

    def test_defaults_to_config_planner(self, tmp_path):
        cfg = write_config(tmp_path, dict(SMALL, planner="spiral"))
        out = str(tmp_path / "mc")
        code = main(["montecarlo", "--config", cfg, "--runs", "1", "--out-dir", out])
        assert code == 0
        assert os.listdir(out) == ["montecarlo_spiral.csv"]


class TestOutputFileModes:
    @pytest.fixture(params=[0o022, 0o077], ids=["umask022", "umask077"])
    def umask(self, request):
        old = os.umask(request.param)
        try:
            yield request.param
        finally:
            os.umask(old)

    def test_every_output_file_takes_the_umask(self, tmp_path, umask):
        cfg = write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        assert main(["survey", "--config", cfg, "--out-dir", str(out), "--snapshots", "0,12"]) == 0
        argv = ["montecarlo", "--config", cfg, "--runs", "1", "--planners", "grid,random"]
        assert main(argv + ["--out-dir", str(out)]) == 0
        modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()}
        assert {"metrics.csv", "trajectory.csv", "montecarlo_grid.csv"} <= modes.keys()
        assert any(name.endswith(".pgm") for name in modes)
        assert set(modes.values()) == {0o666 & ~umask}
