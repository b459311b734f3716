"""Timing probes installed from outside the program.

The probes replace module attributes of the ``aerosurvey`` package with thin
wrappers; nothing under ``src/`` knows about them. Every binding of a wrapped
function is replaced, including copies made by ``from .x import f``, so calls
through any module reach the wrapper.

Untraced mode wraps only ``channel.take_measurement`` (one timestamp per
measurement) and ``harness.run_survey`` (one start and end per survey). Traced
mode wraps every function in :data:`TRACED` and keeps one span per call in
memory: name, start, end, parent span and survey id.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time

# (module, function) pairs timed in the traced run.
TRACED = (
    ("channel", "sample_ground_truth"),
    ("channel", "take_measurement"),
    ("estimator", "init_posterior"),
    ("estimator", "observation_coefficients"),
    ("estimator", "online_update"),
    ("estimator", "service_probability"),
    ("uncertainty", "power_uncertainty"),
    ("uncertainty", "service_uncertainty"),
    ("uncertainty", "aggregate"),
    ("uncertainty", "total_uncertainty"),
    ("planner", "pick_destination"),
    ("planner", "min_cost_route"),
    ("planner", "random_route"),
    ("spatial", "build_motion_graph"),
    ("harness", "run_survey"),
    ("harness", "monte_carlo"),
    ("harness", "service_error_rate"),
    ("cli", "write_grid"),
)

MEASURE = ("channel", "take_measurement")
SURVEY = ("harness", "run_survey")
COEFFS = ("estimator", "observation_coefficients")
WRITE = ("cli", "write_grid")


def _arg(args, kwargs, index, name):
    """Positional-or-keyword argument of a wrapped call, or None if absent."""
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


class SurveyTrace:
    """What one ``run_survey`` call leaves behind for the output checks."""

    __slots__ = ("start", "end", "stamps", "record")

    def __init__(self, start: float) -> None:
        self.start = start
        self.end = None
        self.stamps: list[float] = []  # one per take_measurement call
        self.record = None  # (config, params, gt powers, measurements, metrics)


class Probes:
    """Installs the wrappers and collects timestamps and spans."""

    def __init__(self, package: str, traced: bool) -> None:
        self.package = package
        self.traced = traced
        self.lock = threading.Lock()
        self.local = threading.local()
        self.main_thread = threading.get_ident()
        self.main_stack: list[tuple[int, int | None]] = []
        self.surveys: list[SurveyTrace] = []
        self.spans: list[tuple[int, str, float, float, int | None, int | None]] = []
        self.absent: list[str] = []
        self.first_measurement: float | None = None
        self.seen_positions: set[tuple[float, float]] = set()
        self.coeff_calls = 0
        self.coeff_repeats = 0
        self.bytes_written = 0
        self._next_id = 0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        targets = TRACED if self.traced else (MEASURE, SURVEY)
        modules = [m for n, m in list(sys.modules.items()) if n == self.package or n.startswith(self.package + ".")]
        for mod_name, fn_name in targets:
            owner = sys.modules.get(f"{self.package}.{mod_name}")
            original = getattr(owner, fn_name, None) if owner is not None else None
            if not callable(original):
                self.absent.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self._wrap((mod_name, fn_name), original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    # -- span bookkeeping ----------------------------------------------------

    def _stack(self) -> list[tuple[int, int | None]]:
        if threading.get_ident() == self.main_thread:
            return self.main_stack
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def _new_id(self) -> int:
        with self.lock:
            self._next_id += 1
            return self._next_id

    def _current_survey(self) -> SurveyTrace | None:
        return getattr(self.local, "survey", None)

    def _wrap(self, key: tuple[str, str], fn):
        name = ".".join(key)
        probes = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = probes._stack()
            # A pool worker's first span is caused by the span open on the
            # main thread (monte_carlo), which owns the pool.
            outer = stack[-1:] or [(top[0], None) for top in probes.main_stack[-1:]]
            parent, survey_id = outer[0] if outer else (None, None)
            span_id = probes._new_id()
            outer_survey = probes._current_survey()
            trace = None
            if key == SURVEY:
                survey_id = span_id
                trace = SurveyTrace(time.perf_counter())
                probes.local.survey = trace
                with probes.lock:
                    probes.surveys.append(trace)
            elif key == MEASURE:
                now = time.perf_counter()
                if outer_survey is not None:
                    outer_survey.stamps.append(now)
                with probes.lock:
                    if probes.first_measurement is None or now < probes.first_measurement:
                        probes.first_measurement = now
            elif key == COEFFS:
                probes._count_position(_arg(args, kwargs, 3, "position"))
            stack.append((span_id, survey_id))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if probes.traced:
                    probes.spans.append((span_id, name, start, end, parent, survey_id))
                if trace is not None:
                    trace.end = end
                    probes.local.survey = outer_survey
            if trace is not None:
                trace.record = _light_record(result)
            elif key == WRITE:
                probes._count_bytes(_arg(args, kwargs, 2, "path"))
            return result

        return wrapper

    def _count_position(self, position) -> None:
        try:
            key = (float(position[0]), float(position[1]))
        except (TypeError, IndexError, ValueError):
            return
        with self.lock:
            self.coeff_calls += 1
            if key in self.seen_positions:
                self.coeff_repeats += 1
            else:
                self.seen_positions.add(key)

    def _count_bytes(self, path) -> None:
        try:
            size = os.path.getsize(path)
        except (OSError, TypeError):
            return
        with self.lock:
            self.bytes_written += size

    # -- summaries -------------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per wrapped function: calls, total seconds and self seconds.

        Self time is a span's duration minus the part of it that its child
        spans cover; overlapping children (pool workers) are merged first.
        """
        children: dict[int, list[tuple[float, float]]] = {}
        for _sid, _name, start, end, parent, _survey in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        totals: dict[str, dict[str, float]] = {}
        for sid, name, start, end, _parent, _survey in self.spans:
            covered = _covered(children.get(sid, ()), start, end)
            row = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - covered
        return totals

    def write_spans(self, path: str) -> None:
        import json

        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, survey in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "name": name, "start": start, "end": end, "parent": parent, "survey": survey}
                    )
                    + "\n"
                )


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _light_record(record):
    """The parts of a SurveyRecord the checks read, without the posteriors."""
    try:
        return (
            record.config,
            record.params,
            record.ground_truth.powers,
            record.measurements,
            record.metrics,
        )
    except AttributeError:
        return None
