"""Normalized per-point map uncertainty and multi-transmitter aggregation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from .channel import ChannelParams

__all__ = [
    "UncertaintyField",
    "power_uncertainty",
    "service_uncertainty",
    "aggregate",
    "total_uncertainty",
]

_LN2 = np.log(2.0)


@dataclass(frozen=True)
class UncertaintyField:
    """Per-grid-point uncertainty in [0, 1]; ``kind`` is 'power' or 'service'.

    ``values`` holds one value per grid point, or one row of them per
    transmitter.
    """

    values: np.ndarray
    kind: str


def power_uncertainty(var, params: ChannelParams) -> UncertaintyField:
    """Posterior variances ``var`` normalized by the prior variance, per grid point."""
    prior = params.shadow_var + params.fading_var
    if prior <= 0:
        raise ValueError("prior variance is zero; power uncertainty is undefined")
    vals = np.clip(np.asarray(var, dtype=float) / prior, 0.0, 1.0)
    return UncertaintyField(values=vals, kind="power")


def service_uncertainty(probabilities) -> UncertaintyField:
    """Binary entropy (bits) of the service probabilities, with 0*log(0) = 0.

    Element-wise, so a (K, N) stack of per-transmitter probabilities gives a
    (K, N) field.
    """
    p = np.asarray(probabilities, dtype=float)
    if np.any((p < 0.0) | (p > 1.0)) or not np.all(np.isfinite(p)):
        raise ValueError("probabilities must lie in [0, 1]")
    ent = -(xlogy(p, p) + xlogy(1.0 - p, 1.0 - p)) / _LN2
    return UncertaintyField(values=np.clip(ent, 0.0, 1.0), kind="service")


def aggregate(field: UncertaintyField, mode: str = "max") -> UncertaintyField:
    """Combine a field's per-transmitter rows point-wise with ``max`` or ``mean``.

    Every row of ``field`` is one transmitter; a 1-D field is one transmitter.
    """
    stacked = np.atleast_2d(field.values)
    if stacked.shape[0] == 0:
        raise ValueError("nothing to aggregate")
    if mode == "max":
        vals = stacked.max(axis=0)
    elif mode == "mean":
        vals = stacked.mean(axis=0)
    else:
        raise ValueError(f"unknown aggregation mode: {mode!r}")
    return UncertaintyField(values=vals, kind=field.kind)


def total_uncertainty(field: UncertaintyField | np.ndarray) -> float:
    """Spatial mean of an uncertainty field."""
    vals = np.asarray(getattr(field, "values", field), dtype=float)
    if vals.size == 0:
        raise ValueError("empty uncertainty field")
    return float(vals.mean())
