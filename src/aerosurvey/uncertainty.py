"""Normalized per-point map uncertainty and multi-transmitter aggregation.

Every field is a plain array in [0, 1]: one value per grid point, or one row
of them per transmitter.
"""

from __future__ import annotations

import numpy as np
from scipy.special import xlogy

from .channel import ChannelParams

__all__ = [
    "power_uncertainty",
    "service_uncertainty",
    "aggregate",
    "total_uncertainty",
]

_LN2 = np.log(2.0)


def power_uncertainty(var, params: ChannelParams) -> np.ndarray:
    """Posterior variances ``var`` normalized by the prior variance, per grid point.

    A zero prior variance means the map is known exactly, so nothing is
    uncertain and the field is all zeros.
    """
    var = np.asarray(var, dtype=float)
    prior = params.shadow_var + params.fading_var
    if prior <= 0:
        return np.zeros(var.shape)
    return np.minimum(np.maximum(var / prior, 0.0), 1.0)


def service_uncertainty(probabilities) -> np.ndarray:
    """Binary entropy (bits) of the service probabilities, with 0*log(0) = 0.

    Element-wise, so a (K, N) stack of per-transmitter probabilities gives a
    (K, N) field.
    """
    p = np.asarray(probabilities, dtype=float)
    # NaN and infinities fail these comparisons too. The ufunc reductions are
    # what ndarray.min and max run, without their Python wrappers.
    if p.size and not (np.minimum.reduce(p, axis=None) >= 0.0 and np.maximum.reduce(p, axis=None) <= 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    q = 1.0 - p
    ent = xlogy(p, p) + xlogy(q, q)
    ent /= -_LN2
    # A certain point gives -0.0 here; the lower clip makes it +0.0.
    return np.minimum(np.maximum(ent, 0.0), 1.0)


def aggregate(field, mode: str = "max") -> np.ndarray:
    """Combine a field's per-transmitter rows point-wise with ``max`` or ``mean``.

    Every row of ``field`` is one transmitter; a 1-D field is one transmitter.
    """
    stacked = np.atleast_2d(np.asarray(field, dtype=float))
    if stacked.shape[0] == 0:
        raise ValueError("nothing to aggregate")
    if mode == "max":
        return stacked.max(axis=0)
    if mode == "mean":
        return stacked.mean(axis=0)
    raise ValueError(f"unknown aggregation mode: {mode!r}")


def total_uncertainty(field) -> float:
    """Spatial mean of an uncertainty field."""
    vals = np.asarray(field, dtype=float)
    if vals.size == 0:
        raise ValueError("empty uncertainty field")
    # The sum ndarray.mean takes, without its Python wrapper.
    return float(np.add.reduce(vals, axis=None) / vals.size)
