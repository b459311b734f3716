"""Autonomous aerial spectrum surveying: simulation, estimation, planning, benchmarking."""

from .channel import ChannelParams, GroundTruth, Measurement, Transmitter
from .harness import MonteCarloResult, SurveyConfig, SurveyRecord, monte_carlo, run_survey
from .planner import PlannerKind
from .spatial import GridSpec, Waypoint

__version__ = "0.1.0"

__all__ = [
    "ChannelParams",
    "GridSpec",
    "GroundTruth",
    "Measurement",
    "MonteCarloResult",
    "PlannerKind",
    "SurveyConfig",
    "SurveyRecord",
    "Transmitter",
    "Waypoint",
    "monte_carlo",
    "run_survey",
    "__version__",
]
