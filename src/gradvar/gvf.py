"""Level-set interpolation on graph domains.

A level field assigns every vertex one of n ordered level indices so that
adjacent vertices differ by at most one index (a discrete 1-Lipschitz
function into a chain).  Given guiding vertices with prescribed indices,
such an assignment interpolating them exists iff every guiding pair
(x, i), (y, j) satisfies d(x, y) >= |i - j| with d the hop distance;
guiding vertices in different components count as infeasible.
This module quantizes real samples into indices, decides existence, and
constructs an extension via distance envelopes.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .domain import UNREACHABLE, Domain, bfs_distances, min_offset_sweep
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
        if self.count < 1:
            raise ValueError("count must be a positive integer")


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
        v = np.asarray(self.vertices, dtype=np.int64)
        i = np.asarray(self.indices, dtype=np.int64)
        r = np.asarray(self.raw_values, dtype=np.float64)
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
        for arr in (v, i, r):
            arr.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "indices", i)
        object.__setattr__(self, "raw_values", r)

    @classmethod
    def from_maps(cls, entries: Mapping[int, int],
                  raw_values: Mapping[int, float]) -> "GuidingSet":
        if set(entries) != set(raw_values):
            raise ValueError("entries and raw_values must cover the same vertices")
        verts = sorted(entries)
        return cls(vertices=np.array(verts, dtype=np.int64),
                   indices=np.array([entries[v] for v in verts], dtype=np.int64),
                   raw_values=np.array([raw_values[v] for v in verts], dtype=np.float64))

    def __len__(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class LevelField:
    """A gradually varied index assignment over a whole domain.

    Construction verifies the defining property (adjacent indices differ
    by at most 1) and the index range, so holding a LevelField is proof
    of validity.
    """

    domain: Domain
    idx: np.ndarray
    table: LevelTable

    def __post_init__(self):
        a = np.asarray(self.idx, dtype=np.int64)
        if a.shape != (self.domain.vertex_count,):
            raise ValueError("index array length must equal the domain vertex count")
        if (a < 1).any() or (a > self.table.count).any():
            raise ValueError(f"level indices must lie in 1..{self.table.count}")
        src, dst = self.domain.directed_pairs()
        if src.size and (np.abs(a[src] - a[dst]) > 1).any():
            bad = np.nonzero(np.abs(a[src] - a[dst]) > 1)[0][0]
            raise ValueError(
                f"not gradually varied: indices jump by more than 1 across "
                f"edge ({int(src[bad])}, {int(dst[bad])})")
        a = np.array(a)
        a.setflags(write=False)
        object.__setattr__(self, "idx", a)


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
        lo = np.asarray(self.lower, dtype=np.int64)
        hi = np.asarray(self.upper, dtype=np.int64)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lower and upper must be parallel 1-d arrays")
        for arr in (lo, hi):
            arr.setflags(write=False)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

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


def _pair_distances(domain: Domain, vertices: np.ndarray) -> np.ndarray:
    """Hop distances between the listed vertices, UNREACHABLE off-component.

    On a :func:`build_grid` domain the hop metric has a closed form on
    (row, col): Manhattan distance for four-connectivity, Chebyshev for
    eight, in O(k^2) with no sweep.  Other domains run one BFS per vertex.
    """
    grid = domain._grid
    if grid is not None:
        rows, cols = np.divmod(vertices, grid.width)
        dr = np.abs(rows[:, None] - rows[None, :])
        dc = np.abs(cols[:, None] - cols[None, :])
        return dr + dc if grid.connectivity == "four" else np.maximum(dr, dc)
    k = len(vertices)
    out = np.zeros((k, k), dtype=np.int64)
    for row, v in enumerate(vertices):
        out[row] = bfs_distances(domain, [int(v)]).dist[vertices]
    return out


def _sample_arrays(domain: Domain, samples: Mapping[int, float],
                   kind: str = "sample") -> tuple[np.ndarray, np.ndarray]:
    """Validated (vertices, values) arrays of a vertex -> value map, by vertex."""
    verts = np.array(sorted(samples), dtype=np.int64)
    if verts.size == 0:
        raise ValueError(f"{kind} set must be nonempty")
    if (verts < 0).any() or (verts >= domain.vertex_count).any():
        raise ValueError(f"{kind} vertex id out of range")
    vals = np.array([samples[int(v)] for v in verts], dtype=np.float64)
    if not np.isfinite(vals).all():
        raise ValueError(f"{kind} values must be finite")
    return verts, vals


def _component_witness(domain: Domain, verts: np.ndarray,
                       indices: np.ndarray | None = None) -> Witness | None:
    """None if all ``verts`` share a component, else the UNREACHABLE witness
    (first vertex, first one outside its component), the first such pair in
    row-major order.  A :func:`build_grid` domain is connected: no sweep.
    """
    if domain._grid is not None or len(verts) < 2:
        return None
    outside = np.nonzero(~bfs_distances(domain, [int(verts[0])]).reachable[verts])[0]
    if outside.size == 0:
        return None
    b = int(outside[0])
    gap = None if indices is None else int(abs(indices[b] - indices[0]))
    return Witness(int(verts[0]), int(verts[b]), UNREACHABLE, gap)


def lipschitz_delta(domain: Domain, samples: Mapping[int, float],
                    zero_range_floor: float = 1e-9) -> float:
    """Smallest level spacing that keeps the quantized samples feasible.

    Returns max over sample pairs of |v(x) - v(y)| / d(x, y): quantizing
    with any delta >= this value yields indices whose gaps never exceed
    the hop distance.  All-equal values would give 0, which is replaced
    by ``zero_range_floor * max(1, |value|)`` so one level suffices.
    Samples in different components raise InfeasibleError.  Hop distances
    come from the grid metric on :func:`build_grid` domains, else BFS.
    """
    verts, vals = _sample_arrays(domain, samples)
    split = _component_witness(domain, verts)
    if split is not None:
        raise InfeasibleError(
            split, f"sample vertices {split.vertex_a} and {split.vertex_b} "
                   f"lie in different components")
    if verts.size == 1:
        return zero_range_floor * max(1.0, abs(float(vals[0])))
    iu = np.triu_indices(len(verts), k=1)
    d = _pair_distances(domain, verts)[iu]
    gaps = np.abs(vals[iu[0]] - vals[iu[1]])
    star = float((gaps / d).max())
    if star == 0.0:
        return zero_range_floor * max(1.0, float(np.abs(vals).max()))
    return star


# Relative width of the band around a half level that quantize treats as the
# tie itself: a few ulps, above the rounding error of (v - base) / delta.
_TIE_REL = 8 * np.finfo(np.float64).eps


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
    <= delta/2 everywhere else.  Raw values are preserved in the returned
    guiding set.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    verts, vals = _sample_arrays(domain, samples)
    base = float(vals.min())
    count = max(1, int(np.floor((float(vals.max()) - base) / delta)) + 1)
    t = (vals - base) / delta
    # Nearest level with halves rounding down: k = ceil(t - 1/2), where a t
    # within float error of a half level counts as that half.
    k = np.ceil(t - 0.5 - _TIE_REL * np.maximum(t, 1.0)).astype(np.int64)
    k = np.clip(k, 0, count - 1)
    table = LevelTable(base=base, delta=float(delta), count=count)
    guiding = GuidingSet(vertices=verts, indices=k + 1, raw_values=vals)
    return table, guiding


def check_feasibility(domain: Domain, guiding: GuidingSet) -> FeasibilityCheck:
    """Decide existence of a gradually varied extension by the pairwise test.

    Feasible iff d(x, y) >= |i - j| for every guiding pair.  On failure
    the witness is a pair with maximal violation |i - j| - d; guiding
    vertices in different components yield an UNREACHABLE witness instead.
    On :func:`build_grid` domains d is the closed-form grid metric,
    elsewhere one BFS per guiding vertex.  :func:`envelopes` agrees.
    """
    verts = guiding.vertices
    if (verts >= domain.vertex_count).any():
        raise ValueError("guiding vertex id out of range")
    split = _component_witness(domain, verts, guiding.indices)
    if split is not None:
        return FeasibilityCheck(False, split)
    if len(verts) == 1:
        return FeasibilityCheck(True, None)
    iu = np.triu_indices(len(verts), k=1)
    d = _pair_distances(domain, verts)[iu]
    gap = np.abs(guiding.indices[iu[0]] - guiding.indices[iu[1]])
    violation = gap - d
    worst = int(np.argmax(violation))
    if violation[worst] > 0:
        a, b = int(iu[0][worst]), int(iu[1][worst])
        return FeasibilityCheck(False, Witness(
            int(verts[a]), int(verts[b]), int(d[worst]), int(gap[worst])))
    return FeasibilityCheck(True, None)


def envelopes(domain: Domain, guiding: GuidingSet, n: int) -> EnvelopePair:
    """Per-vertex tightest level bounds induced by the guiding points.

    U(p) = min(n, min_j (i_j + d(p, x_j))) and
    L(p) = max(1, max_j (i_j - d(p, x_j))), each via one multi-source
    sweep.  Guiding points that cannot reach p do not bound it there, but
    still make the pair infeasible, as in :func:`check_feasibility`.
    Clamping to [1, n] cannot break feasibility: guiding indices lie in
    [1, n], so U >= 1 and L <= n hold before clamping, and clamping only
    moves a bound toward the valid band without crossing the other bound.
    """
    if n < 1:
        raise ValueError("level count must be positive")
    verts = guiding.vertices
    if (verts >= domain.vertex_count).any():
        raise ValueError("guiding vertex id out of range")
    if (guiding.indices > n).any():
        raise ValueError(f"guiding index exceeds level count {n}")
    upper_raw = min_offset_sweep(domain, verts, guiding.indices)
    lower_raw = -min_offset_sweep(domain, verts, -guiding.indices)
    upper = np.minimum(upper_raw, n)
    lower = np.maximum(lower_raw, 1)
    return EnvelopePair(lower=lower, upper=upper,
                        _connected=_component_witness(domain, verts) is None)


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
