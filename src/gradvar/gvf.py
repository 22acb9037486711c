"""Level-set interpolation on graph domains.

A level field assigns every vertex one of n ordered level indices so that
adjacent vertices differ by at most one index (a discrete 1-Lipschitz
function into a chain).  Given guiding vertices with prescribed indices,
such an assignment interpolating them exists iff every guiding pair
(x, i), (y, j) satisfies d(x, y) >= |i - j| with d the hop distance;
a pair in different components counts as the worst violation.
This module quantizes real samples into indices, decides existence, and
constructs an extension via distance envelopes.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .domain import (_INF, UNREACHABLE, Domain, _count, _edge_jumps, _freeze,
                     _ids, _one_component, _pair_distances, min_offset_sweep)
from .fields import ScalarField


@dataclass(frozen=True)
class LevelTable:
    """Uniformly spaced level values: level(i) = base + (i - 1) * delta."""

    base: float
    delta: float
    count: int

    def __post_init__(self):
        if not (np.isfinite(self.base) and np.isfinite(self.delta)):
            raise ValueError("base and delta must be finite")
        if not self.delta > 0:
            raise ValueError("delta must be positive")
        object.__setattr__(self, "count", _count(self.count, "count"))


@dataclass(frozen=True)
class GuidingSet:
    """Guiding vertices with their level indices and original raw values.

    Stored as parallel arrays sorted by vertex id.  Indices are validated
    to be >= 1 here; the upper bound depends on a level table and is
    checked by the operations that receive one.
    """

    vertices: np.ndarray
    indices: np.ndarray
    raw_values: np.ndarray

    def __post_init__(self):
        v = _freeze(self, "vertices", np.int64, "guiding vertex ids")
        i = _freeze(self, "indices", np.int64, "guiding level indices")
        r = _freeze(self, "raw_values", np.float64)
        if v.size == 0:
            raise ValueError("guiding set must be nonempty")
        if not (v.shape == i.shape == r.shape and v.ndim == 1):
            raise ValueError("vertices, indices and raw_values must be parallel 1-d arrays")
        if (np.diff(v) <= 0).any():
            raise ValueError("guiding vertices must be sorted and unique")
        if (v < 0).any():
            raise ValueError("guiding vertex ids must be nonnegative")
        if (i < 1).any():
            raise ValueError("guiding level indices must be >= 1")
        if not np.isfinite(r).all():
            raise ValueError("guiding raw values must be finite")

    def __len__(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class LevelField:
    """A gradually varied index assignment over a whole domain.

    Construction verifies the defining property (adjacent indices differ
    by at most 1) and the index range, so holding a LevelField is proof
    of validity.  The check reads each edge's jump (shifted slices on a
    grid); only a violation scans the directed pairs, to name the first
    bad edge.
    """

    domain: Domain
    idx: np.ndarray
    table: LevelTable

    def __post_init__(self):
        a = _freeze(self, "idx", np.int64, "level indices")
        if a.shape != (self.domain.vertex_count,):
            raise ValueError("index array length must equal the domain vertex count")
        if (a < 1).any() or (a > self.table.count).any():
            raise ValueError(f"level indices must lie in 1..{self.table.count}")
        if any((jump > 1).any() for jump in _edge_jumps(self.domain, a)):
            src, dst = self.domain.directed_pairs()
            bad = np.nonzero(np.abs(a[src] - a[dst]) > 1)[0][0]
            raise ValueError(
                f"not gradually varied: indices jump by more than 1 across "
                f"edge ({int(src[bad])}, {int(dst[bad])})")


@dataclass(frozen=True)
class EnvelopePair:
    """Tightest per-vertex level bounds consistent with all guiding points.

    Both bounds are 1-Lipschitz across edges; an interpolating extension
    exists iff lower <= upper everywhere and the guiding vertices share
    one component, the verdict of :func:`check_feasibility`.
    """

    lower: np.ndarray
    upper: np.ndarray
    _connected: bool = field(default=True, repr=False)

    def __post_init__(self):
        lo = _freeze(self, "lower", np.int64)
        hi = _freeze(self, "upper", np.int64)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lower and upper must be parallel 1-d arrays")

    @property
    def feasible(self) -> bool:
        return self._connected and bool((self.lower <= self.upper).all())


class Witness(NamedTuple):
    """A guiding pair violating d(x, y) >= |i - j|, or an unreachable pair."""

    vertex_a: int
    vertex_b: int
    distance: int           # hop count, or UNREACHABLE
    index_gap: int | None   # |i - j|; None when indices are not yet assigned

    def describe(self) -> str:
        d = "unreachable" if self.distance == UNREACHABLE else str(self.distance)
        gap = "?" if self.index_gap is None else str(self.index_gap)
        return (f"vertices {self.vertex_a} and {self.vertex_b}: "
                f"distance {d}, index gap {gap}")


class FeasibilityCheck(NamedTuple):
    feasible: bool
    witness: Witness | None


class InfeasibleError(ValueError):
    """No gradually varied extension exists for the given guiding data."""

    def __init__(self, witness: Witness, message: str | None = None):
        self.witness = witness
        super().__init__(message or f"infeasible guiding data: {witness.describe()}")


def _sample_arrays(domain: Domain, samples: Mapping[int, float],
                   kind: str = "sample") -> tuple[np.ndarray, np.ndarray]:
    """Validated (vertices, values) arrays of a vertex -> value map, by vertex."""
    verts = _ids(list(samples), f"{kind} vertex ids", domain.vertex_count)
    if verts.size == 0:
        raise ValueError(f"{kind} set must be nonempty")
    order = np.argsort(verts)
    vals = np.array(list(samples.values()), dtype=np.float64)[order]
    if not np.isfinite(vals).all():
        raise ValueError(f"{kind} values must be finite")
    return verts[order], vals


# lipschitz_delta's spacing for all-equal samples, relative to max(1, |value|).
_ZERO_RANGE_FLOOR = 1e-9
# Relative width of the band around a half level that quantize treats as the
# tie itself: a few ulps, above the rounding error of (v - base) / delta;
# quantize caps it at a quarter level, which it reaches near 2**47 levels.
_TIE_REL = 8 * np.finfo(np.float64).eps


def lipschitz_delta(domain: Domain, samples: Mapping[int, float]) -> float:
    """Smallest level spacing that keeps the quantized samples feasible.

    Returns max over sample pairs of |v(x) - v(y)| / d(x, y): quantizing
    with any delta >= this value yields indices whose gaps never exceed
    the hop distance.  All-equal values would give 0, which is replaced
    by ``1e-9 * max(1, |value|)`` so one level suffices.
    Samples in different components raise InfeasibleError at the first
    UNREACHABLE pair.  Hop distances come from the domain's
    :func:`~gradvar.domain._pair_distances`, kept for a later check.
    """
    verts, vals = _sample_arrays(domain, samples)
    pairs = _pair_distances(domain, verts)
    iu = np.triu_indices(len(verts), k=1)
    d = pairs[iu]
    split = np.flatnonzero(d == UNREACHABLE)
    if split.size:
        a, b = int(verts[iu[0][split[0]]]), int(verts[iu[1][split[0]]])
        raise InfeasibleError(Witness(a, b, UNREACHABLE, None),
                              f"sample vertices {a} and {b} lie in different components")
    star = float((np.abs(vals[iu[0]] - vals[iu[1]]) / d).max(initial=0.0))
    floor = _ZERO_RANGE_FLOOR * max(1.0, float(np.abs(vals).max()))
    return star if star > 0 else floor


def quantize(domain: Domain, samples: Mapping[int, float],
             delta: float) -> tuple[LevelTable, GuidingSet]:
    """Snap raw sample values onto a uniform level table.

    base is the minimum sample value and n = floor((max - min) / delta) + 1.
    Each sample maps to the nearest of those n levels, ties resolved
    toward the lower index.  A value within a few ulps of a half level
    counts as a tie, so float error in (v - base) / delta cannot split two
    samples whose gap is a whole number of levels (as the lipschitz_delta
    spacing makes it for the steepest pair) by one level too many.  Note
    the top level sits below the maximum sample whenever (max - min) /
    delta is fractional, so quantization error is < delta there and
    <= delta/2 everywhere else while (max - min) / delta is below 2**52;
    from 2**52 on, t - 1/2 itself rounds, and a sample may land one level low.
    Raw values are preserved in the returned guiding set.  (max - min) /
    delta must be below 2**53: past that a float no longer resolves one
    level, and indices would near the sweep sentinel 2**60.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    verts, vals = _sample_arrays(domain, samples)
    base = float(vals.min())
    span = (float(vals.max()) - base) / delta
    if not span < 2.0 ** 53:
        raise ValueError(f"delta {delta!r} is too small for the sample range: "
                         f"(max - min) / delta must be below 2**53")
    count = max(1, int(np.floor(span)) + 1)
    t = (vals - base) / delta
    # Nearest level with halves rounding down: k = ceil(t - 1/2), where a t
    # within float error of a half level counts as that half.
    tie = np.minimum(_TIE_REL * np.maximum(t, 1.0), 0.25)
    k = np.ceil(t - 0.5 - tie).astype(np.int64)
    k = np.clip(k, 0, count - 1)
    table = LevelTable(base=base, delta=float(delta), count=count)
    guiding = GuidingSet(vertices=verts, indices=k + 1, raw_values=vals)
    return table, guiding


def check_feasibility(domain: Domain, guiding: GuidingSet) -> FeasibilityCheck:
    """Decide existence of a gradually varied extension by the pairwise test.

    Feasible iff d(x, y) >= |i - j| for every guiding pair.  On failure
    the witness is the first pair in row-major order with maximal violation
    |i - j| - d, where a pair in different components (d UNREACHABLE) is
    the worst of all: reachability is transitive, so it names the first
    guiding vertex and the first one outside its component.  d comes from
    :func:`~gradvar.domain._pair_distances`, the matrix a preceding
    :func:`lipschitz_delta` on these vertices left, if it ran.
    """
    verts = _ids(guiding.vertices, "guiding vertex ids", domain.vertex_count)
    pairs = _pair_distances(domain, verts)
    iu = np.triu_indices(len(verts), k=1)
    d = pairs[iu]
    gap = np.abs(guiding.indices[iu[0]] - guiding.indices[iu[1]])
    violation = np.where(d == UNREACHABLE, np.iinfo(np.int64).max, gap - d)
    if not (violation > 0).any():
        return FeasibilityCheck(True, None)
    worst = int(np.argmax(violation))
    a, b = int(iu[0][worst]), int(iu[1][worst])
    return FeasibilityCheck(False, Witness(
        int(verts[a]), int(verts[b]), int(d[worst]), int(gap[worst])))


def envelopes(domain: Domain, guiding: GuidingSet, n: int) -> EnvelopePair:
    """Per-vertex tightest level bounds induced by the guiding points.

    U(p) = min(n, min_j (i_j + d(p, x_j))) and
    L(p) = max(1, max_j (i_j - d(p, x_j))), each one
    :func:`min_offset_sweep`: a closed-form distance transform on a grid,
    a multi-source sweep elsewhere.  Guiding points that cannot reach p do
    not bound it there, but still make the pair infeasible, as in
    :func:`check_feasibility`; :func:`~gradvar.domain._one_component` gives
    that verdict, from a kept pair matrix or one sweep (none on grids).
    Clamping to [1, n] cannot break feasibility: guiding indices lie in
    [1, n], so U >= 1 and L <= n hold before clamping, and clamping only
    moves a bound toward the valid band without crossing the other bound.
    An ``n`` past 2**60, the sweeps' value for unreached vertices, counts as 2**60.
    """
    n = min(_count(n, "level count"), _INF)
    verts = _ids(guiding.vertices, "guiding vertex ids", domain.vertex_count)
    if (guiding.indices > n).any():
        raise ValueError(f"guiding index exceeds level count {n}")
    upper = np.minimum(min_offset_sweep(domain, verts, guiding.indices), n)
    lower = np.maximum(-min_offset_sweep(domain, verts, -guiding.indices), 1)
    return EnvelopePair(lower=lower, upper=upper,
                        _connected=_one_component(domain, verts))


_POLICIES = ("midpoint", "lower", "upper")


def gvf_extend(domain: Domain, guiding: GuidingSet, table: LevelTable,
               policy: str = "midpoint") -> LevelField:
    """Construct a gradually varied extension of the guiding indices.

    Decides feasibility from the envelopes; only on failure does it run
    :func:`check_feasibility`, to raise InfeasibleError with its witness.
    Each vertex gets a value inside its envelope interval:
    floor((L + U) / 2) for the midpoint policy, or the L / U bound itself.
    All three selectors are 1-Lipschitz, so the result is gradually
    varied by construction; at guiding vertices L = U = the guiding
    index, so interpolation is exact.
    """
    if policy not in _POLICIES:
        raise ValueError(f"policy must be one of {_POLICIES}")
    env = envelopes(domain, guiding, table.count)
    if not env.feasible:
        raise InfeasibleError(check_feasibility(domain, guiding).witness)
    if policy == "midpoint":
        idx = (env.lower + env.upper) // 2
    elif policy == "lower":
        idx = env.lower
    else:
        idx = env.upper
    return LevelField(domain=domain, idx=idx, table=table)


def to_scalar(field: LevelField) -> ScalarField:
    """Map level indices back to real values through the level table."""
    values = field.table.base + (field.idx - 1).astype(np.float64) * field.table.delta
    return ScalarField(domain=field.domain, values=values)


class GvfFit(NamedTuple):
    field: LevelField
    guiding: GuidingSet
    delta: float


def fit_gvf(domain: Domain, samples: Mapping[int, float],
            delta: float | None = None, policy: str = "midpoint") -> GvfFit:
    """End-to-end pipeline: choose delta, quantize, check, extend.

    With delta=None the spacing is lipschitz_delta(samples), which makes
    the quantized guiding set automatically feasible.  A user-supplied
    delta may produce index gaps larger than distances; that surfaces as
    InfeasibleError carrying the witness pair.
    """
    if delta is None:
        delta = lipschitz_delta(domain, samples)
    table, guiding = quantize(domain, samples, delta)
    field = gvf_extend(domain, guiding, table, policy=policy)
    return GvfFit(field=field, guiding=guiding, delta=float(delta))
