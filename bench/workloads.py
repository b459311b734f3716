"""Workload definitions: what one round of each workload runs.

A round is a fixed list of units; each unit runs in a fresh Python process
with the package imported and its caches cold. Every round of a run repeats
the same units on the same inputs, which depend only on ``--seed``.
"""

from __future__ import annotations

PLANNERS = ("min_cost", "grid", "spiral", "random")

# survey_cli_small: 2000 measurements, a snapshot every 100 of them.
CLI_MEASUREMENTS = 2000
CLI_SNAPSHOTS = tuple(range(0, CLI_MEASUREMENTS + 1, 100))

# montecarlo_paired: paired runs per planner, each this many measurements.
MC_RUNS = 4
MC_MEASUREMENTS = 100

# survey_large: measurements per survey on the 60 x 50 grid.
LARGE_MEASUREMENTS = 20


def _survey_default(seed: int) -> list[dict]:
    return [{"kind": "survey", "config": {"seed": seed, "planner": p}} for p in PLANNERS]


def _montecarlo_paired(seed: int) -> list[dict]:
    return [
        {
            "kind": "montecarlo",
            "config": {"seed": seed, "planner": p, "max_measurements": MC_MEASUREMENTS},
            "runs": MC_RUNS,
        }
        for p in PLANNERS
    ]


def _survey_large(seed: int) -> list[dict]:
    config = {
        "rows": 60,
        "cols": 50,
        "seed": seed,
        "planner": "min_cost",
        "max_measurements": LARGE_MEASUREMENTS,
    }
    return [{"kind": "survey", "config": config}]


def _survey_cli_small(seed: int) -> list[dict]:
    config = {
        "rows": 10,
        "cols": 10,
        "noise_var": 0.25,
        "max_measurements": CLI_MEASUREMENTS,
        "seed": seed,
    }
    return [{"kind": "cli", "config": config, "snapshots": list(CLI_SNAPSHOTS)}]


# Environment defaults for the unit processes of a workload; a variable the
# caller sets explicitly wins. With OpenBLAS's default thread count the Monte
# Carlo pool threads and the BLAS threads oversubscribe the cores, and each
# process lands at random in one of two modes (first measurement after ~0.2 s
# or ~1.2 s); no run-level median of that is steady. With one BLAS thread per
# pool worker the pool is steady and still runs its threads side by side.
ENV = {"montecarlo_paired": {"OPENBLAS_NUM_THREADS": "1"}}

WORKLOADS = {
    "survey_default": _survey_default,
    "montecarlo_paired": _montecarlo_paired,
    "survey_large": _survey_large,
    "survey_cli_small": _survey_cli_small,
}


def round_units(workload: str, seed: int) -> list[dict]:
    """The units of one round of ``workload`` for ``seed``."""
    return WORKLOADS[workload](seed)
