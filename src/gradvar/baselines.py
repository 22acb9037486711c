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

from .domain import Domain, _freeze, _mean_by_key
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
        xy = _freeze(self, "xy", np.float64)
        vals = _freeze(self, "values", np.float64)
        if xy.ndim != 2 or xy.shape[1] != 2 or vals.shape != (xy.shape[0],):
            raise ValueError("xy must be (n, 2) with one value per point")
        if xy.shape[0] == 0:
            raise ValueError("sample set must be nonempty")
        if not (np.isfinite(xy).all() and np.isfinite(vals).all()):
            raise ValueError("sample coordinates and values must be finite")
        if len(np.unique(xy, axis=0)) != len(xy):
            raise ValueError("duplicate coordinates; merge via from_points")

    @classmethod
    def from_points(cls, points) -> "SamplePoints":
        pts = np.asarray(list(points), dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] == 0:
            raise ValueError("points must be a nonempty list of (x, y, value)")
        return cls(*_mean_by_key(pts[:, :2], pts[:, 2]))

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
        if not 0 < self.power < math.inf:
            raise ValueError("power must be positive and finite")
        if not 0 <= self.epsilon < math.inf:
            raise ValueError("epsilon must be nonnegative and finite")

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
        if not 0 < self.power < math.inf:
            raise ValueError("power must be positive and finite")


class MlsResult(NamedTuple):
    value: float


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


def _mls_system(q: np.ndarray, samples: SamplePoints, config: MlsConfig):
    """The weighted MLS systems at a chunk of queries q (chunk, 2).

    Returns the design matrices a (chunk, k, m), right-hand sides b
    (chunk, k), the rows left after dominance, and each query's centroid
    and scale.  Raises _RowError naming the lowest query whose weights are
    negative or sum to zero.
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
        # dx^2 + dy^2 as one add has the bits of a sum over the last axis, which
        # numpy reduces about ten times slower on an axis this short.
        sq = np.square(offset)
        sq = np.where(w > 0, sq[:, :, 0] + sq[:, :, 1], 0.0)
    spread = np.sqrt(np.einsum("ck,ck->c", w, sq) / total)
    scale = np.where(spread > 0, spread, 1.0)
    root_w = np.sqrt(w)
    # A zero-weight sample's basis is taken at a zero of its offset's sign, not
    # at the offset, whose square may overflow; its row is the same signed 0s.
    scaled = np.divide(offset, scale[:, None, None], out=np.copysign(0.0, offset),
                       where=(w > 0)[:, :, None])
    a = _basis(scaled, config.degree) * root_w[:, :, None]
    k_rows = np.where(dominated, inf.sum(axis=1), k)
    return a, vals * root_w, k_rows, centroid, scale


# cond(a)^2 = lambda_max(G) / lambda_min(G) for the Gram matrix G = a^T a, and
# each diagonal entry of G lies in [lambda_min, lambda_max].  So a row with
# max diag(G) >= _COND_SQ * min diag(G) has cond(a) >= 50 with no eigen solve,
# and a row with lambda_min * _COND_SQ > lambda_max has cond(a) < 50.  The
# normal equations' forward error grows as cond(a)^2 * eps (Higham, Accuracy
# and Stability of Numerical Algorithms, 2nd ed., 2002, sec. 20.4), so it is
# below about 2500 eps on those rows.  Rounding in G moves its eigenvalues by
# about k * m * eps * lambda_max, far inside that margin.  A certified row has
# full rank under lstsq's rule too, s_min > eps * max(k, m) * s_max, for any
# k below 1 / (50 eps), about 9e13, so rank decisions do not change.
_COND_SQ = 50.0 ** 2


def _where(mask: np.ndarray):
    """An index of mask's rows: a full slice, which copies nothing, when
    every row is in it."""
    return slice(None) if mask.all() else mask


def _svd_solve(a: np.ndarray, b: np.ndarray,
               k_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-norm least-squares coefficients and ranks through the SVD of
    a, with lstsq's rcond=None rule for k_rows rows and m columns."""
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    m = a.shape[2]
    keep = s > (np.finfo(np.float64).eps * np.maximum(k_rows, m) * s[:, 0])[:, None]
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
    coef = np.einsum("crm,cr->cm", vh, np.einsum("ckr,ck->cr", u, b) * inv)
    return coef, keep.sum(axis=1)


def _solve(a: np.ndarray, b: np.ndarray,
           k_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares coefficients and ranks of a chunk of systems a x = b:
    rows certified cond(a) < 50 by the normal equations, the rest by the SVD."""
    # diag(G) is the squared column norms of a.  It is taken before G, whose
    # batched matmul costs far more per row on small systems, so a chunk the
    # diagonal test refuses whole builds no G.  It is laid out (m, chunk), as
    # numpy reduces a short contiguous axis many times slower.  A NaN compares
    # false, so a row whose G is not finite is refused too.
    m = a.shape[2]
    diag = np.einsum("ckm,ckm->mc", a, a, out=np.empty((m, len(a))))
    certified = diag.max(axis=0) < _COND_SQ * diag.min(axis=0)
    if certified.any():
        rows = _where(certified)
        part = a[rows]
        gram = part.transpose(0, 2, 1) @ part
        lam = np.linalg.eigvalsh(gram)
        kept = lam[:, 0] * _COND_SQ > lam[:, -1]
        certified[rows] = kept
        gram = gram[_where(kept)]
    coef = np.empty((len(a), m))
    rank = np.full(len(a), m)
    if certified.any():
        rows = _where(certified)
        rhs = b[rows][:, None, :] @ a[rows]
        coef[rows] = np.linalg.solve(gram, rhs.transpose(0, 2, 1))[:, :, 0]
    if not certified.all():
        rows = _where(~certified)
        coef[rows], rank[rows] = _svd_solve(a[rows], b[rows], k_rows[rows])
    return coef, rank


def _mls_rows(q: np.ndarray, samples: SamplePoints,
              config: MlsConfig) -> tuple[np.ndarray, np.ndarray]:
    """MLS values and ranks at a chunk of queries q (chunk, 2).

    Raises _RowError naming the lowest query whose weights are negative
    or sum to zero.
    """
    a, b, k_rows, centroid, scale = _mls_system(q, samples, config)
    coef, rank = _solve(a, b, k_rows)
    uq = (q - centroid) / scale[:, None]
    with np.errstate(over="ignore"):  # far queries; inf * 0 terms are dropped
        bq = _basis(uq, config.degree)
    bq[np.isinf(bq) & (coef == 0)] = 0.0
    return np.einsum("cm,cm->c", bq, coef), rank


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
    and makes rank detection scale-free.  A system whose weighted design
    matrix a is certified cond(a) < 50, by the eigenvalues of a^T a, is
    solved by the normal equations a^T a c = a^T b, whose forward error
    grows as cond(a)^2 * eps and so stays below about 2500 eps.  Any other
    system is solved through the SVD of a: rank counts the singular values
    above eps * max(k, m) * s_max for k samples and m basis columns, the
    rule of ``np.linalg.lstsq(rcond=None)``, and the coefficients are the
    minimum-norm solution.  A certified system has full rank under that
    rule too, so rank decisions are lstsq's.  With every sample weight
    infinite-dominated (e.g. zero-distance under an epsilon-free inverse
    power weight), the fit restricts to those dominating samples.
    """
    value, _ = _mls_rows(_query_rows(query), samples, config)
    return MlsResult(value=float(value[0]))


def shepard(query, samples: SamplePoints, power: float = 2.0) -> float:
    """Inverse-distance weighted average of the sample values.

    Weights are 1 / d^power; a query exactly at a sample site returns
    that site's value.  Always lands inside [min, max] of the values
    (convex combination).
    """
    power = ShepardConfig(power=power).power
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
