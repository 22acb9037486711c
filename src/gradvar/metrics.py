"""Error and smoothness metrics for reconstructed fields."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import ScalarField
from .smoothing import discrete_gradient, total_variation


@dataclass(frozen=True)
class Metrics:
    """RMSE and max error against a truth field, plus a smoothness proxy."""

    rmse: float
    max_abs_error: float
    tv_gradient: float

    def __post_init__(self):
        for name in ("rmse", "max_abs_error", "tv_gradient"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.rmse > self.max_abs_error * (1 + 1e-12):
            raise ValueError("rmse cannot exceed max_abs_error")


def compute_metrics(field: ScalarField, truth: ScalarField) -> Metrics:
    """Compare a field against ground truth on the same domain.

    tv_gradient is the total variation of the finite-difference gradient
    on a :func:`build_grid` domain at least 2 wide and 2 high; on other
    domains, or on a one-wide grid, the gradient stencil is undefined, so
    the field's own total variation substitutes.
    """
    if field.domain.vertex_count != truth.domain.vertex_count:
        raise ValueError("field and truth have different vertex counts")
    err = field.values - truth.values
    rmse = float(np.sqrt(np.mean(np.square(err))))
    max_abs = float(np.abs(err).max())
    return Metrics(rmse=rmse, max_abs_error=max_abs,
                   tv_gradient=_tv_gradient(field))


def _tv_gradient(field: ScalarField) -> float:
    """The smoothness proxy: TV of the gradient, or of the field itself
    where its domain has no grid or a grid side is 1 (no gradient stencil)."""
    grid = field.domain.grid
    if grid is not None and grid.width >= 2 and grid.height >= 2:
        return total_variation(discrete_gradient(field, grid))
    return total_variation(field)
