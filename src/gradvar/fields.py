"""Per-vertex scalar data bound to a domain."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import Domain, _freeze


@dataclass(frozen=True)
class ScalarField:
    """One finite float per vertex of ``domain``.

    Construction rejects NaN/inf and length mismatches; the array is
    frozen so fields can be shared without defensive copies.
    """

    domain: Domain
    values: np.ndarray

    def __post_init__(self):
        v = _freeze(self, "values", np.float64)
        if v.shape != (self.domain.vertex_count,):
            raise ValueError("field length must equal the domain vertex count")
        if not np.isfinite(v).all():
            raise ValueError("field values must all be finite")
