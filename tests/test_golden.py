"""Golden output corpus: the CLI's output files for a fixed matrix of runs, by digest.

``tests/golden/manifest.json`` holds, per run of :data:`MATRIX` and per output
file, the file's SHA-256 plus a short digest of each of its lines and each of
its columns, so a mismatch names the file, the first line and the first
column that moved. It also records the numpy and scipy versions that wrote
it; under other versions the comparison is skipped, since their rounding may
differ.

Some runs print other digits under other CPU kernels (other OpenBLAS
kernels, or numpy without its AVX-512 paths): ulp-level differences that
noise-free sweeps amplify (ROADMAP item 5). Those runs carry the
``cpu_kernel_dependent`` mark. CI runs the other runs a second time under
``OPENBLAS_CORETYPE=Haswell NPY_DISABLE_CPU_FEATURES=X86_V4`` to show that
they do not depend on the kernel; the Monte Carlo run is one of them, as a
metric equal in every run has a standard deviation of exactly 0.

A change that moves numbers on purpose regenerates the manifest and lists the
moved files and cells in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from aerosurvey import cli

MANIFEST = Path(__file__).resolve().parent / "golden" / "manifest.json"

_NOISY = {"noise_var": 0.25}

# name -> CLI arguments after the subcommand's --config and --out-dir, and the config.
MATRIX: dict[str, tuple[list[str], dict]] = {
    "min_cost_noisy": (["survey", "--snapshots", "0,200"], {**_NOISY, "max_measurements": 200}),
    "random_noisy": (["survey", "--snapshots", "0,200"], {**_NOISY, "planner": "random", "max_measurements": 200}),
    "grid_noise_free": (["survey", "--snapshots", "0,300"], {"planner": "grid"}),
    "spiral_noise_free": (["survey", "--snapshots", "0,300"], {"planner": "spiral"}),
    "one_transmitter": (
        ["survey", "--snapshots", "0,120"],
        {**_NOISY, "rows": 10, "cols": 10, "num_transmitters": 1, "max_measurements": 120},
    ),
    "three_transmitters_mean_fading": (
        ["survey", "--snapshots", "0,60"],
        {
            **_NOISY,
            "rows": 12,
            "cols": 9,
            "num_transmitters": 3,
            "aggregation": "mean",
            "fading_var": 1.5,
            "max_measurements": 60,
        },
    ),
    "three_transmitters_power_target": (
        ["survey", "--snapshots", "60"],
        {**_NOISY, "rows": 12, "cols": 9, "num_transmitters": 3, "target": "power", "max_measurements": 60},
    ),
    "line_1x12": (
        ["survey", "--snapshots", "0,100"],
        {**_NOISY, "rows": 1, "cols": 12, "num_transmitters": 3, "max_measurements": 100},
    ),
    "line_12x1_grid": (
        ["survey", "--snapshots", "0,100"],
        {"rows": 12, "cols": 1, "num_transmitters": 3, "planner": "grid", "max_measurements": 100},
    ),
    "cli_small": (
        ["survey", "--snapshots", "0,1000,2000"],
        {**_NOISY, "rows": 10, "cols": 10, "max_measurements": 2000},
    ),
    "montecarlo_3_runs": (
        ["montecarlo", "--runs", "3", "--planners", "min_cost,grid,spiral,random"],
        {**_NOISY, "max_measurements": 100},
    ),
}


def _short(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:4]


def digest(text: str) -> dict[str, str]:
    """SHA-256 of a text file, and 4-hex digests of each line and each column.

    Columns are the comma- or space-separated fields of the lines, the j-th
    column holding every line's j-th field (lines with fewer fields have
    none).
    """
    lines = text.splitlines()
    fields = [re.split(r"[ ,]", line) for line in lines]
    width = max((len(f) for f in fields), default=0)
    columns = ["\n".join(f[j] for f in fields if len(f) > j) for j in range(width)]
    return {
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "lines": " ".join(_short(line) for line in lines),
        "columns": " ".join(_short(col) for col in columns),
    }


# Runs whose printed digits move with the CPU kernel, measured on a machine
# with AVX-512 against OPENBLAS_CORETYPE=Haswell or Sandybridge and
# NPY_DISABLE_CPU_FEATURES=X86_V4.
KERNEL_DEPENDENT = {"grid_noise_free", "spiral_noise_free", "line_12x1_grid"}


def generate(root: Path, name: str) -> dict[str, dict[str, str]]:
    """Run ``name`` of the matrix under ``root`` and digest each output file."""
    args, config = MATRIX[name]
    run_dir = root / name
    run_dir.mkdir(parents=True)
    config_path = root / f"{name}.json"
    config_path.write_text(json.dumps(config))
    code = cli.main([args[0], "--config", str(config_path), "--out-dir", str(run_dir), *args[1:]])
    assert code == 0, f"{name} exited {code}"
    return {p.name: digest(p.read_text()) for p in sorted(run_dir.iterdir())}


def versions() -> dict[str, str]:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def _first_difference(got: str, want: str) -> int | None:
    """1-based position of the first differing digest of two space-joined lists."""
    got_items, want_items = got.split(), want.split()
    for i, (a, b) in enumerate(zip(got_items, want_items)):
        if a != b:
            return i + 1
    return None if len(got_items) == len(want_items) else min(len(got_items), len(want_items)) + 1


def mismatches(got: dict, want: dict) -> list[str]:
    """One line per output file that is missing, extra or differs, naming line and column."""
    found = []
    for run in sorted(set(got) | set(want)):
        files_got, files_want = got.get(run, {}), want.get(run, {})
        for name in sorted(set(files_got) | set(files_want)):
            where = f"{run}/{name}"
            if name not in files_got:
                found.append(f"{where}: not written")
            elif name not in files_want:
                found.append(f"{where}: written, but not in the manifest")
            elif files_got[name]["sha256"] != files_want[name]["sha256"]:
                a, b = files_got[name], files_want[name]
                line = _first_difference(a["lines"], b["lines"])
                column = _first_difference(a["columns"], b["columns"])
                found.append(f"{where}: differs, first at line {line}, column {column}")
    return found


def test_manifest_lists_the_matrix():
    assert sorted(json.loads(MANIFEST.read_text())["runs"]) == sorted(MATRIX)
    assert KERNEL_DEPENDENT <= set(MATRIX)


@pytest.mark.parametrize(
    "name",
    [pytest.param(n, marks=pytest.mark.cpu_kernel_dependent) if n in KERNEL_DEPENDENT else n for n in MATRIX],
)
def test_outputs_match_the_golden_corpus(tmp_path, name):
    manifest = json.loads(MANIFEST.read_text())
    if manifest["versions"] != versions():
        pytest.skip(f"the corpus was written with {manifest['versions']}, this is {versions()}")
    found = mismatches({name: generate(tmp_path, name)}, {name: manifest["runs"][name]})
    assert not found, "\n".join(found)


def test_mismatch_report_names_line_and_column():
    want = {"run": {"a.csv": digest("x,y\n1,2\n3,4\n"), "b.csv": digest("1\n")}}
    got = {"run": {"a.csv": digest("x,y\n1,2\n3,5\n"), "c.csv": digest("1\n")}}
    assert mismatches(got, want) == [
        "run/a.csv: differs, first at line 3, column 2",
        "run/b.csv: not written",
        "run/c.csv: written, but not in the manifest",
    ]
    assert mismatches(want, want) == []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        runs = {name: generate(Path(tmp), name) for name in MATRIX}
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps({"versions": versions(), "runs": runs}, indent=1, sort_keys=True) + "\n")
    files = sum(len(v) for v in runs.values())
    print(f"wrote {MANIFEST}: {files} files in {len(runs)} runs", file=sys.stderr)
