"""Analytic mean and variance of a surrogate via exact basis integrals.

Each hierarchical basis function integrates over [0, 1]^d to a product of
per-level 1-D weights (1 for the constant level, 1/4 for the boundary
half-hats, 2**(1-i) for full hats), which `_weights` gives for a whole array
of levels at once.  The mean is therefore the dot product of the w surpluses
with these weights; the mean square uses the v surpluses, which track the
squared output through the same hierarchy.  All operations here are
read-only over a finished model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SurrogateModel, split_codes
from .errors import EmptyModelError

__all__ = ["MomentEstimate", "moments"]

# relative slack allowed before a negative variance is treated as an error
_VARIANCE_TOL = 1e-12


@dataclass(frozen=True)
class MomentEstimate:
    """Mean, mean square and variance extracted from a surrogate."""

    mean: float
    mean_square: float
    variance: float


def _weights(levels: np.ndarray) -> np.ndarray:
    """Integral over [0, 1] of the 1-D basis at each level >= 1, elementwise."""
    return np.where(levels == 2, 0.25, np.ldexp(1.0, 1 - levels))


def moments(m: SurrogateModel) -> MomentEstimate:
    """Analytic moments of the surrogate under i.i.d. uniform inputs.

    Variance is the mean square minus the squared mean; a tiny negative value
    from rounding (within 1e-12 of the mean square) is clamped to zero, while
    anything more negative signals a corrupted model and raises.
    """
    if len(m) == 0:
        raise EmptyModelError("cannot take moments of an empty model")
    levels, _ = split_codes(m.codes)
    weights = np.prod(_weights(levels), axis=1)  # each node's basis integral, exact
    mean = float(m.w @ weights)
    mean_square = float(m.v @ weights)
    variance = mean_square - mean * mean
    if variance < 0.0:
        if variance >= -_VARIANCE_TOL * abs(mean_square):
            variance = 0.0
        else:
            raise ValueError(
                f"variance {variance} negative beyond rounding tolerance"
            )
    return MomentEstimate(mean=mean, mean_square=mean_square, variance=variance)
