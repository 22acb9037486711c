"""Pointwise scattered-data fitters used for comparison runs.

Moving least squares fits a low-degree polynomial around each query with
distance-decaying weights; Shepard interpolation is the inverse-distance
weighted average.  Both operate on raw planar coordinates, independent
of any graph structure, and can be evaluated over a whole domain that
carries vertex coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .domain import Domain
from .fields import ScalarField


@dataclass(frozen=True)
class SamplePoints:
    """Scattered (x, y, value) samples with unique coordinates.

    Use from_points for ingest: points sharing bit-identical coordinates
    are merged into one sample carrying their mean value.
    """

    xy: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        xy = np.asarray(self.xy, dtype=np.float64)
        vals = np.asarray(self.values, dtype=np.float64)
        if xy.ndim != 2 or xy.shape[1] != 2 or vals.shape != (xy.shape[0],):
            raise ValueError("xy must be (n, 2) with one value per point")
        if xy.shape[0] == 0:
            raise ValueError("sample set must be nonempty")
        if not (np.isfinite(xy).all() and np.isfinite(vals).all()):
            raise ValueError("sample coordinates and values must be finite")
        if len(np.unique(xy, axis=0)) != len(xy):
            raise ValueError("duplicate coordinates; merge via from_points")
        xy = np.array(xy)
        vals = np.array(vals)
        xy.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "xy", xy)
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_points(cls, points) -> "SamplePoints":
        pts = np.asarray(list(points), dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] == 0:
            raise ValueError("points must be a nonempty list of (x, y, value)")
        uniq, inverse = np.unique(pts[:, :2], axis=0, return_inverse=True)
        sums = np.bincount(inverse, weights=pts[:, 2], minlength=len(uniq))
        counts = np.bincount(inverse, minlength=len(uniq))
        return cls(xy=uniq, values=sums / counts)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class GaussianWeight:
    """theta(s) = exp(-(s / scale)^2); strictly decreasing, scale > 0.

    scale=inf gives the constant weight 1 (plain least squares).  MLS uses
    relative weights exp(log_weight(s) - max log_weight), so each query's
    nearest sample weighs 1 and far queries do not underflow to zero total
    weight; the fit is unchanged, since scaling every weight by one factor
    leaves the weighted least-squares solution as it is.
    """

    scale: float = 1.0

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError("scale must be positive")

    def __call__(self, dist: np.ndarray) -> np.ndarray:
        return np.exp(self.log_weight(dist))

    def log_weight(self, dist: np.ndarray) -> np.ndarray:
        """-(s / scale)^2; -inf only where that overflows, s > ~1.3e154 * scale."""
        d = np.asarray(dist, dtype=np.float64)
        if math.isinf(self.scale):
            return np.zeros_like(d)
        with np.errstate(over="ignore"):
            return -np.square(d / self.scale)


@dataclass(frozen=True)
class InversePowerWeight:
    """theta(d) = 1 / (d + epsilon)^power; epsilon regularizes d = 0."""

    power: float
    epsilon: float = 0.0

    def __post_init__(self):
        if not self.power > 0:
            raise ValueError("power must be positive")
        if not self.epsilon >= 0:
            raise ValueError("epsilon must be nonnegative")

    def __call__(self, dist: np.ndarray) -> np.ndarray:
        base = np.asarray(dist, dtype=np.float64) + self.epsilon
        with np.errstate(divide="ignore"):
            return base ** -self.power


@dataclass(frozen=True)
class MlsConfig:
    """Degree (0, 1 or 2) and weight function for moving least squares.

    weight maps an array of distances elementwise to nonnegative weights
    of the same shape.  A weight that also has a ``log_weight`` method
    (as GaussianWeight does) is used through it, relative to each query's
    largest weight, so it cannot underflow to zero total weight.
    """

    degree: int = 1
    weight: object = GaussianWeight()

    def __post_init__(self):
        if self.degree not in (0, 1, 2):
            raise ValueError("degree must be 0, 1 or 2")
        if not callable(self.weight):
            raise ValueError("weight must be callable on distance arrays")


@dataclass(frozen=True)
class ShepardConfig:
    power: float = 2.0

    def __post_init__(self):
        if not self.power > 0:
            raise ValueError("power must be positive")


class MlsResult(NamedTuple):
    """Fitted value plus rank diagnostics.

    fallback is True when the weighted system did not determine all
    basis coefficients (rank < basis size); the undetermined directions
    are dropped (minimum-norm solution), which reduces the effective
    fitted degree along them.
    """

    value: float
    fallback: bool
    rank: int
    basis_size: int


def _basis(u: np.ndarray, degree: int) -> np.ndarray:
    """Polynomial basis columns evaluated at centered points u (..., 2)."""
    x, y = u[..., 0], u[..., 1]
    cols = [np.ones_like(x)]
    if degree >= 1:
        cols += [x, y]
    if degree >= 2:
        cols += [x ** 2, x * y, y ** 2]
    return np.stack(cols, axis=-1)


def _basis_size(degree: int) -> int:
    return (degree + 1) * (degree + 2) // 2


# Queries per chunk are _CHUNK_CELLS // k, so each (chunk, k) temporary holds
# about 2**14 floats and the (chunk, k, m) design matrix under 0.8 MB.
_CHUNK_CELLS = 2 ** 14


class _RowError(ValueError):
    """A query the fit cannot serve; ``row`` is its index in the chunk."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


def _query_rows(query) -> np.ndarray:
    q = np.asarray(query, dtype=np.float64)
    if q.shape != (2,):
        raise ValueError("query must be an (x, y) pair")
    return q[None, :]


def _distances(q: np.ndarray, xy: np.ndarray) -> np.ndarray:
    """(chunk, k) Euclidean distances from each query to each sample."""
    return np.hypot(xy[:, 0] - q[:, 0, None], xy[:, 1] - q[:, 1, None])


def _mls_rows(q: np.ndarray, samples: SamplePoints,
              config: MlsConfig) -> tuple[np.ndarray, np.ndarray]:
    """MLS values and ranks at a chunk of queries q (chunk, 2).

    Raises _RowError naming the lowest query whose weights are negative
    or sum to zero.
    """
    xy, vals = samples.xy, samples.values
    k = len(vals)
    dist = _distances(q, xy)
    log_weight = getattr(config.weight, "log_weight", None)
    with np.errstate(invalid="ignore"):
        if log_weight is not None:
            # Relative weights: each query's nearest sample weighs 1, also
            # where its log weight overflowed (farther ones are then 0).
            lw = log_weight(dist)
            top = lw.max(axis=1, keepdims=True)
            w = np.where(np.isneginf(top), dist == dist.min(axis=1, keepdims=True),
                         np.exp(lw - top))
        else:
            w = np.asarray(config.weight(dist), dtype=np.float64)
        negative = (w < 0).any(axis=1)
        inf = np.isinf(w)
        dominated = inf.any(axis=1)
        # Infinite weights dominate: those sites weigh 1, every other site 0.
        w = np.where(dominated[:, None], inf, w)
        total = w.sum(axis=1)
        failed = negative | ~(total > 0)
    if failed.any():
        row = int(np.argmax(failed))
        raise _RowError(row, "weights must be nonnegative" if negative[row] else
                        "zero total weight at query; widen the weight function")

    centroid = (w @ xy) / total[:, None]
    offset = xy[None, :, :] - centroid[:, None, :]
    with np.errstate(over="ignore"):  # zero-weight samples add 0, even at inf
        sq = np.where(w > 0, np.square(offset).sum(axis=2), 0.0)
    spread = np.sqrt(np.einsum("ck,ck->c", w, sq) / total)
    scale = np.where(spread > 0, spread, 1.0)
    root_w = np.sqrt(w)
    a = _basis(offset / scale[:, None, None], config.degree) * root_w[:, :, None]
    b = vals * root_w
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    # lstsq's rcond=None rule, with k the rows left after dominance.
    k_rows = np.where(dominated, inf.sum(axis=1), k)
    m = a.shape[2]
    keep = s > (np.finfo(np.float64).eps * np.maximum(k_rows, m) * s[:, 0])[:, None]
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
    coef = np.einsum("crm,cr->cm", vh, np.einsum("ckr,ck->cr", u, b) * inv)
    uq = (q - centroid) / scale[:, None]
    value = np.einsum("cm,cm->c", _basis(uq, config.degree), coef)
    return value, keep.sum(axis=1)


def _shepard_rows(q: np.ndarray, samples: SamplePoints,
                  power: float) -> np.ndarray:
    """Shepard values at a chunk of queries q (chunk, 2)."""
    vals = samples.values
    dist = _distances(q, samples.xy)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        w = dist ** -power
        total = w.sum(axis=1)
        out = (w @ vals) / total
    # All weights underflowed; the nearest site dominates in the limit.
    gone = total == 0.0
    out[gone] = vals[np.argmin(dist[gone], axis=1)]
    # d^power underflowed; those sites dominate every finite weight.
    inf = np.isinf(w)
    dominated = inf.any(axis=1)
    out[dominated] = (inf[dominated] @ vals) / inf[dominated].sum(axis=1)
    # A query exactly at a site returns that site's value.
    hit = dist == 0.0
    on_site = hit.any(axis=1)
    out[on_site] = vals[np.argmax(hit[on_site], axis=1)]
    return out


def mls_fit(query, samples: SamplePoints, config: MlsConfig) -> MlsResult:
    """Weighted least-squares polynomial fit around one query point.

    Minimizes sum_i (p(x_i) - f_i)^2 * theta(||query - x_i||) over
    polynomials p of the configured degree and evaluates p at the query.
    The system is solved in a basis centered on the weighted centroid
    and isotropically scaled, which keeps the fit translation-equivariant
    and makes rank detection scale-free.  The solve takes the SVD of the
    weighted design matrix (never of the normal matrix, which would square
    its condition number); rank counts the singular values above
    eps * max(k, m) * s_max for k samples and m basis columns, the rule of
    ``np.linalg.lstsq(rcond=None)``, and the coefficients are the
    minimum-norm solution.  With every sample weight infinite-dominated
    (e.g. zero-distance under an epsilon-free inverse power weight), the
    fit restricts to those dominating samples.
    """
    value, rank = _mls_rows(_query_rows(query), samples, config)
    size = _basis_size(config.degree)
    return MlsResult(value=float(value[0]), fallback=bool(rank[0] < size),
                     rank=int(rank[0]), basis_size=size)


def shepard(query, samples: SamplePoints, power: float = 2.0) -> float:
    """Inverse-distance weighted average of the sample values.

    Weights are 1 / d^power; a query exactly at a sample site returns
    that site's value.  Always lands inside [min, max] of the values
    (convex combination).
    """
    if not power > 0:
        raise ValueError("power must be positive")
    return float(_shepard_rows(_query_rows(query), samples, power)[0])


class DomainFit(NamedTuple):
    """A field evaluated vertex-by-vertex plus where MLS degraded."""

    field: ScalarField
    fallback_vertices: tuple[int, ...]


def evaluate_on_domain(config, samples: SamplePoints, domain: Domain) -> DomainFit:
    """Apply a pointwise method at every vertex coordinate of a domain.

    config is an MlsConfig or ShepardConfig.  Vertices are evaluated in
    chunks of max(1, 2**14 // k) queries for k samples, so each chunk's
    temporaries stay near 2**14 floats per array (the MLS design matrix
    holds up to six times that, under 1 MB) whatever the domain size.
    MLS rank fallbacks are collected per vertex; a hard failure (such as
    zero total weight) aborts with the lowest offending vertex named.
    """
    if domain.coords is None:
        raise ValueError("domain has no vertex coordinates")
    if not isinstance(config, (MlsConfig, ShepardConfig)):
        raise TypeError("config must be an MlsConfig or ShepardConfig")
    n = domain.vertex_count
    step = max(1, _CHUNK_CELLS // len(samples))
    out = np.empty(n, dtype=np.float64)
    fallbacks = [np.empty(0, dtype=np.int64)]
    for start in range(0, n, step):
        q = domain.coords[start:start + step]
        if isinstance(config, ShepardConfig):
            out[start:start + step] = _shepard_rows(q, samples, config.power)
            continue
        try:
            value, rank = _mls_rows(q, samples, config)
        except _RowError as exc:
            raise ValueError(f"MLS failed at vertex {start + exc.row}: {exc}") from exc
        out[start:start + step] = value
        fallbacks.append(start + np.nonzero(rank < _basis_size(config.degree))[0])
    return DomainFit(field=ScalarField(domain=domain, values=out),
                     fallback_vertices=tuple(np.concatenate(fallbacks).tolist()))
