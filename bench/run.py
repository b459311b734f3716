"""Survey benchmark: run one workload for a fixed time and print its metrics.

Usage (from the root of a checkout):

    python3 bench/run.py --workload survey_default --seed 1 --seconds 20 --trace 0

Each round of the workload runs its units one after another, each in a fresh
process forked from a server (bench/worker.py) that imported the package
from ``src/`` once. Rounds repeat until ``--seconds`` have passed. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. A traced run pairs every traced unit with an
untraced one on the same inputs, so it can report the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from probes import TRACED  # noqa: E402
from workloads import ENV, WORKLOADS, round_units  # noqa: E402

OUT_DIR = ROOT / ".bench_out"
# On a small VM, the first second or so of two-thread BLAS work after an idle
# spell ran up to ten times slower (a 0.12 s set-up took 1.1 s). Each run
# therefore starts with this much unmeasured BLAS work on all cores.
WARMUP_S = 1.5
WARMUP = (
    "import time, numpy as np\n"
    "a = np.random.default_rng(0).standard_normal((400, 400))\n"
    "end = time.perf_counter() + float(__import__('sys').argv[1])\n"
    "while time.perf_counter() < end:\n"
    "    a = np.tanh(a @ a.T)\n"
)
# Every run must end within 180 s; stop starting work well before that.
HARD_LIMIT_S = 165.0


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] of ``values``."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class UnitServer:
    """The fork server (bench/worker.py) that runs each unit in a fresh process."""

    def __init__(self, env: dict[str, str]) -> None:
        """``env`` holds workload defaults; the caller's environment overrides them."""
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")],
            cwd=ROOT,
            env={**env, **os.environ},
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        self.peak_rss_kib = 0

    def _reply(self, deadline: float) -> dict | None:
        ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
        line = self.proc.stdout.readline() if ready else ""
        return json.loads(line) if line else None

    def wait_ready(self, deadline: float) -> bool:
        reply = self._reply(deadline)
        return bool(reply and reply.get("ready"))

    def alive(self) -> bool:
        return self.proc.poll() is None

    def run(self, spec: dict, deadline: float) -> dict:
        """Run one unit and return its result, or a failed result."""
        if not self.alive():
            return _failed("the unit server has stopped")
        try:
            self.proc.stdin.write(json.dumps(spec) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            return _failed("the unit server has stopped")
        reply = self._reply(deadline)
        if reply is None:
            self.close(kill=True)
            return _failed("unit timed out or the unit server stopped")
        self.peak_rss_kib = max(self.peak_rss_kib, reply["maxrss_kib"])
        if reply["exit"] != 0 or not os.path.exists(spec["result"]):
            return _failed(f"unit process exited with code {reply['exit']}")
        with open(spec["result"], encoding="utf-8") as fh:
            return json.load(fh)

    def close(self, kill: bool = False) -> None:
        if kill and self.alive():
            os.killpg(self.proc.pid, signal.SIGKILL)
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        self.proc.stdout.close()


def _failed(reason: str) -> dict:
    return {"error": reason, "checks": [("completed", reason)]}


def run_round(
    server: UnitServer, workload: str, seed: int, traced: bool, work: Path, deadline: float, index: int
) -> list[dict]:
    results = []
    units = round_units(workload, seed)
    for u, unit in enumerate(units):
        unit_dir = work / f"unit{u}"
        shutil.rmtree(unit_dir, ignore_errors=True)
        unit_dir.mkdir(parents=True)
        spec = dict(unit, trace=traced, result=str(unit_dir / "result.json"), outdir=str(unit_dir / "out"))
        if traced:
            spec["spans"] = str(OUT_DIR / "spans" / workload / f"round{index}-unit{u}.jsonl")
        result = server.run(spec, deadline)
        result["unit"] = u
        results.append(result)
    mc = [r for r, unit in zip(results, units) if unit["kind"] == "montecarlo"]
    if len(mc) > 1:
        # Run k of every planner shares one random stream, so the t = 0 rows agree.
        rows = {str(r["unit"]): r["t0_row"] for r in mc if "t0_row" in r}
        reason = checks.paired_t0(rows) if len(rows) == len(mc) else f"{len(mc) - len(rows)} units gave no t = 0 row"
        results.append({"checks": [("paired_t0_rows", reason)]})
    return results


def end_to_end(rounds: list[list[dict]], peak_rss_kib: int) -> tuple[dict, dict]:
    """End-to-end metrics, and figures printed only for reading.

    Rates and cycle percentiles are medians over rounds. The p99 cycle time
    is not a metric: over ten runs of 20 s on a shared 2-vCPU VM its spread
    reached 0.42, above any usable bound.
    """
    units = [u for r in rounds for u in r]
    setups = [u["setup_s"] for u in units if u.get("setup_s") is not None]
    surveys = [s for u in units for s in u.get("surveys", ())]
    per_round = []
    for r in rounds:
        cycles = [c for u in r for s in u.get("surveys", ()) for c in s["cycles_ms"]]
        wall = sum(u.get("wall_s", 0.0) for u in r)
        if cycles and wall > 0:
            rate = sum(u.get("measurements", 0) for u in r) / wall
            per_round.append((rate, percentile(cycles, 50), percentile(cycles, 99)))
    if not (setups and surveys and per_round):
        return {}, {}
    rate, p50, p99 = (statistics.median(col) for col in zip(*per_round))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "measurements_per_s": (rate, "1/s"),
        "survey_s": (statistics.median(s["duration_s"] for s in surveys), "s"),
        "cycle_ms_p50": (p50, "ms"),
        "peak_rss_mb": (peak_rss_kib / 1024.0, "MB"),
    }
    return metrics, {"cycle_ms_p99": (p99, "ms")}


def per_layer(traced: list[dict], plain: list[dict], rounds: int) -> dict[str, tuple[float, str]]:
    """Per-round layer totals from the traced units, plus the tracing overhead."""
    out: dict[str, tuple[float, str]] = {}
    totals: dict[str, dict[str, float]] = {}
    for u in traced:
        for name, row in u.get("layers", {}).items():
            acc = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += row[key]
    for mod, fn in TRACED:
        name = f"{mod}.{fn}"
        row = totals.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        out[f"{name}.calls"] = (row["calls"] / rounds, "count")
        out[f"{name}.total_s"] = (row["total_s"] / rounds, "s")
        out[f"{name}.ms_per_call"] = (1e3 * row["total_s"] / row["calls"] if row["calls"] else 0.0, "ms")
        out[f"{name}.self_s"] = (row["self_s"] / rounds, "s")
    calls = sum(u.get("coeff_calls", 0) for u in traced)
    repeats = sum(u.get("coeff_repeats", 0) for u in traced)
    out["estimator.observation_coefficients.repeat_ratio"] = (repeats / calls if calls else 0.0, "ratio")
    out["cli.write_grid.bytes"] = (sum(u.get("bytes_written", 0) for u in traced) / rounds, "B")
    wall_traced = sum(u.get("wall_s", 0.0) for u in traced)
    wall_plain = sum(u.get("wall_s", 0.0) for u in plain)
    out["trace.overhead_s"] = ((wall_traced - wall_plain) / rounds, "s")
    out["trace.overhead_pct"] = (100.0 * (wall_traced / wall_plain - 1.0) if wall_plain else 0.0, "%")
    absent = sorted({name for u in traced for name in u.get("absent", ())})
    out["trace.absent_functions"] = (len(absent), "count")
    for name in absent:
        print(f"absent: {name} (not found in the package; reported as 0)", file=sys.stderr)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "aerosurvey" / "__init__.py").is_file():
        print(f"error: no aerosurvey sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print("error: --seed must fit in an unsigned 64-bit integer", file=sys.stderr)
        return 2

    deadline = time.monotonic() + HARD_LIMIT_S
    if args.trace:
        spans = OUT_DIR / "spans" / args.workload
        shutil.rmtree(spans, ignore_errors=True)
        spans.mkdir(parents=True)
    server = UnitServer(ENV.get(args.workload, {}))
    work = OUT_DIR / f"{args.workload}-{os.getpid()}"
    plain: list[list[dict]] = []
    traced: list[list[dict]] = []
    rounds = 0
    try:
        if not server.wait_ready(deadline):
            print("error: the unit server could not import the package", file=sys.stderr)
            return 2
        subprocess.run([sys.executable, "-c", WARMUP, str(WARMUP_S)], cwd=ROOT, check=True, timeout=60)
        start = time.monotonic()
        while True:
            plain.append(run_round(server, args.workload, args.seed, False, work, deadline, rounds))
            if args.trace:
                traced.append(run_round(server, args.workload, args.seed, True, work, deadline, rounds))
            rounds += 1
            if time.monotonic() - start >= args.seconds or time.monotonic() >= deadline or not server.alive():
                break
    finally:
        server.close()
        shutil.rmtree(work, ignore_errors=True)

    found = [(name, reason) for r in plain + traced for u in r for name, reason in u.get("checks", ())]
    failed = [(name, reason) for name, reason in found if reason is not None]
    for name, reason in failed:
        print(f"check failed: {name}: {reason}", file=sys.stderr)
    info: dict[str, tuple[float, str]] = {}
    if args.trace:
        metrics = per_layer([u for r in traced for u in r], [u for r in plain for u in r], rounds)
    else:
        metrics, info = end_to_end(plain, server.peak_rss_kib)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}", file=sys.stderr)
    for name, (value, unit) in info.items():
        print(f"{name} = {value:.6g} {unit} (for reading; not a metric)", file=sys.stderr)
    print(f"rounds = {rounds}, checks attempted = {len(found)}, failed = {len(failed)}", file=sys.stderr)
    result = {
        "correct": not failed and bool(metrics),
        "attempted": max(len(found), 1),
        "failed": len(failed) if found else 1,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
