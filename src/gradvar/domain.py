"""Graph domains for scattered-data interpolation.

Every fitting routine in this package runs on a finite undirected graph:
a regular grid, an arbitrary edge-list graph, or the vertex/edge graph of
a triangle/quad mesh.  Distances are hop counts (unweighted BFS); the
physical grid spacing only enters derivative stencils and rendering.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

#: Marker for vertices no source can reach in a :class:`DistanceField`.
UNREACHABLE = -1

# Internal sentinel for the sweep engine; large but far from int64 overflow.
_INF = np.int64(1) << 60


class Domain:
    """Immutable undirected graph over dense vertex ids ``0..vertex_count-1``.

    Adjacency is stored compressed and sorted per vertex.  Symmetry,
    neighbor dedup and loop-freedom are enforced at construction, so the
    rest of the package can rely on them.  Instances never mutate after
    construction; all exposed arrays are read-only views.  ``_grid`` is the
    :class:`GridSpec` of a domain made by :func:`build_grid` and ``None`` on
    every other domain; it lets grid-only code use the raster layout.
    """

    __slots__ = ("vertex_count", "coords", "_offsets", "_dir_src", "_dir_dst",
                 "_grid")

    def __init__(self, vertex_count: int, edges=(), coords=None):
        if vertex_count < 1:
            raise ValueError("vertex_count must be a positive integer")
        self.vertex_count = int(vertex_count)

        e = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                       dtype=np.int64)
        if e.size == 0:
            e = e.reshape(0, 2)
        if e.ndim != 2 or e.shape[1] != 2:
            raise ValueError("edges must be pairs of vertex ids")
        if e.size and ((e < 0).any() or (e >= self.vertex_count).any()):
            bad = e[((e < 0) | (e >= self.vertex_count)).any(axis=1)][0]
            raise ValueError(f"edge {tuple(bad)} references a vertex id out of range")
        if e.size and (e[:, 0] == e[:, 1]).any():
            v = int(e[e[:, 0] == e[:, 1]][0, 0])
            raise ValueError(f"self-loop at vertex {v} is not allowed")

        # Symmetrize, dedup, and sort by (source, target) on the 1-d key
        # source * n + target, which orders the same way and sorts far faster
        # than rows.  A plain sort, not np.unique: numpy 2 dedups integers in
        # a hash table first, which is slower here and fragments the heap.
        n = self.vertex_count
        src, dst = e[:, 0], e[:, 1]
        key = np.concatenate([src * n + dst, dst * n + src])
        key.sort()
        first = np.ones(key.size, dtype=bool)
        np.not_equal(key[1:], key[:-1], out=first[1:])
        self._dir_src, self._dir_dst = np.divmod(key[first], n)
        counts = np.bincount(self._dir_src, minlength=n)
        self._offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        self._grid = None

        if coords is None:
            self.coords = None
        else:
            c = np.asarray(coords, dtype=np.float64)
            if c.shape != (self.vertex_count, 2):
                raise ValueError("coords must be one (x, y) pair per vertex")
            c = np.array(c)
            c.setflags(write=False)
            self.coords = c
        for arr in (self._offsets, self._dir_src, self._dir_dst):
            arr.setflags(write=False)

    # -- queries ---------------------------------------------------------

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor ids of ``v`` (read-only view)."""
        return self._dir_dst[self._offsets[v]:self._offsets[v + 1]]

    def degree(self, v: int) -> int:
        return int(self._offsets[v + 1] - self._offsets[v])

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self._offsets)

    @property
    def edge_count(self) -> int:
        return len(self._dir_dst) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each undirected edge once, as (a, b) with a < b."""
        mask = self._dir_src < self._dir_dst
        for a, b in zip(self._dir_src[mask], self._dir_dst[mask]):
            yield int(a), int(b)

    def edge_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(src, dst) arrays with each undirected edge listed once, src < dst."""
        mask = self._dir_src < self._dir_dst
        return self._dir_src[mask], self._dir_dst[mask]

    def directed_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(src, dst) arrays with both orientations of every edge."""
        return self._dir_src, self._dir_dst

    def adjacency_lists(self) -> list[list[int]]:
        return [self.neighbors(v).tolist() for v in range(self.vertex_count)]

    def __repr__(self) -> str:
        return f"Domain(vertices={self.vertex_count}, edges={self.edge_count})"


@dataclass(frozen=True)
class GridSpec:
    """A width x height raster of vertices in row-major order.

    ``connectivity`` is "four" (the default; axis neighbors only) or
    "eight" (diagonals too).  ``spacing`` is the physical distance between
    axis-aligned neighbors and feeds derivative stencils and rendering
    only; graph distance stays the hop count either way.
    """

    width: int
    height: int
    connectivity: str = "four"
    spacing: float = 1.0

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("grid width and height must be positive")
        if self.connectivity not in ("four", "eight"):
            raise ValueError("connectivity must be 'four' or 'eight'")
        if not self.spacing > 0:
            raise ValueError("spacing must be positive")

    @property
    def vertex_count(self) -> int:
        return self.width * self.height

    def vertex(self, row: int, col: int) -> int:
        return row * self.width + col

    def row_col(self, v: int) -> tuple[int, int]:
        return divmod(v, self.width)

    def coords_array(self) -> np.ndarray:
        cols = np.tile(np.arange(self.width), self.height)
        rows = np.repeat(np.arange(self.height), self.width)
        return np.stack([cols * self.spacing, rows * self.spacing], axis=1)


@dataclass(frozen=True)
class DistanceField:
    """Hop counts from a source set; ``UNREACHABLE`` where no source reaches."""

    sources: tuple[int, ...]
    dist: np.ndarray

    @property
    def reachable(self) -> np.ndarray:
        return self.dist != UNREACHABLE


def build_grid(spec: GridSpec) -> Domain:
    """Materialize a grid domain with row-major ids and embedded coords.

    The domain records ``spec``, so pair distances on it take the closed
    form (Manhattan for four-, Chebyshev for eight-connectivity).
    """
    w, h = spec.width, spec.height
    idx = np.arange(w * h, dtype=np.int64).reshape(h, w)
    parts = [
        np.stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()], axis=1),
        np.stack([idx[:-1, :].ravel(), idx[1:, :].ravel()], axis=1),
    ]
    if spec.connectivity == "eight":
        parts.append(np.stack([idx[:-1, :-1].ravel(), idx[1:, 1:].ravel()], axis=1))
        parts.append(np.stack([idx[:-1, 1:].ravel(), idx[1:, :-1].ravel()], axis=1))
    edges = np.vstack([p for p in parts if p.size]) if any(p.size for p in parts) \
        else np.empty((0, 2), dtype=np.int64)
    domain = Domain(w * h, edges, coords=spec.coords_array())
    domain._grid = spec
    return domain


def build_graph(edges: Iterable[tuple[int, int]], vertex_count: int,
                coords=None) -> Domain:
    """Build a domain from an explicit undirected edge list.

    Reversed duplicates collapse to one edge; self-loops and out-of-range
    ids raise ``ValueError``.
    """
    return Domain(vertex_count, edges, coords=coords)


def load_mesh(path) -> Domain:
    """Parse a minimal OBJ subset into the mesh's vertex/edge graph.

    Recognized records: ``v x y z`` and ``f i j k [l]`` with 1-based
    indices; ``#`` starts a comment.  Faces must be triangles or quads and
    contribute their boundary edges.  Vertex coords keep the first two
    coordinates (x, y).  A malformed ``v``/``f`` line raises ``ValueError``
    naming the line number; other record types are ignored.
    """
    verts: list[tuple[float, float]] = []
    corners: list[int] = []      # every face's 1-based indices, in file order
    sizes: list[int] = []        # 3 or 4 corners per face
    face_lines: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            kind = tokens[0]
            if kind == "v":
                if len(tokens) != 4:
                    raise ValueError(
                        f"{path}: line {lineno}: vertex record needs 3 coordinates")
                try:
                    x, y, _z = (float(t) for t in tokens[1:])
                except ValueError:
                    raise ValueError(
                        f"{path}: line {lineno}: non-numeric vertex coordinate") from None
                verts.append((x, y))
            elif kind == "f":
                if len(tokens) not in (4, 5):
                    raise ValueError(
                        f"{path}: line {lineno}: faces must be triangles or quads")
                try:
                    ids = [int(t.split("/", 1)[0]) for t in tokens[1:]]
                except ValueError:
                    raise ValueError(
                        f"{path}: line {lineno}: non-integer face index") from None
                corners.extend(ids)
                sizes.append(len(ids))
                face_lines.append(lineno)
            # Anything else (vn, vt, o, g, ...) is outside the subset; skip.
    if not verts:
        raise ValueError(f"{path}: no vertices found")
    n = len(verts)
    ids = np.asarray(corners, dtype=np.int64)
    size = np.asarray(sizes, dtype=np.int64)
    face = np.repeat(np.arange(len(size)), size)
    bad = (ids < 1) | (ids > n)
    if bad.any():
        lineno = face_lines[int(face[np.argmax(bad)])]
        raise ValueError(f"{path}: line {lineno}: face index out of range")
    # Each corner joins the next one of its face; the last closes the cycle.
    first = np.cumsum(size) - size
    nxt = np.arange(len(ids)) + 1
    closing = nxt == (first + size)[face]
    nxt[closing] = first[face[closing]]
    edges = np.stack([ids - 1, ids[nxt] - 1], axis=1)
    return Domain(n, edges, coords=np.asarray(verts, dtype=np.float64))


def _gather_neighbors(offsets: np.ndarray, targets: np.ndarray,
                      frontier: np.ndarray) -> np.ndarray:
    """Concatenate the neighbor lists of every frontier vertex."""
    starts = offsets[frontier]
    counts = offsets[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=targets.dtype)
    shift = np.cumsum(counts) - counts
    idx = np.repeat(starts - shift, counts) + np.arange(total)
    return targets[idx]


def min_offset_sweep(domain: Domain, seed_vertices: np.ndarray,
                     seed_values: np.ndarray) -> np.ndarray:
    """Per-vertex minimum over seeds of ``seed_value + hops``.

    Runs a unit-weight Dijkstra sweep finalizing whole levels at once;
    deterministic and single-threaded.  Vertices no seed reaches keep the
    internal ``_INF`` sentinel (callers clamp or translate it).
    """
    n = domain.vertex_count
    offsets, targets = domain._offsets, domain._dir_dst
    dist = np.full(n, _INF, dtype=np.int64)
    np.minimum.at(dist, seed_vertices, np.asarray(seed_values, dtype=np.int64))
    finalized = np.zeros(n, dtype=bool)
    while True:
        open_mask = ~finalized
        if not open_mask.any():
            break
        level = dist[open_mask].min()
        if level >= _INF:
            break
        frontier = np.nonzero(open_mask & (dist == level))[0]
        finalized[frontier] = True
        neigh = _gather_neighbors(offsets, targets, frontier)
        if neigh.size:
            relax = neigh[dist[neigh] > level + 1]
            dist[relax] = level + 1
    return dist


def bfs_distances(domain: Domain, sources) -> DistanceField:
    """Exact multi-source shortest hop counts.

    ``dist`` is 0 on every source, grows by at most 1 across any edge, and
    is ``UNREACHABLE`` on vertices in components without a source.
    """
    src = np.asarray(sorted(set(int(s) for s in sources)), dtype=np.int64)
    if src.size == 0:
        raise ValueError("source set must be nonempty")
    if (src < 0).any() or (src >= domain.vertex_count).any():
        raise ValueError("source vertex id out of range")
    dist = min_offset_sweep(domain, src, np.zeros(len(src), dtype=np.int64))
    dist = np.where(dist >= _INF, np.int64(UNREACHABLE), dist)
    dist.setflags(write=False)
    return DistanceField(sources=tuple(int(s) for s in src), dist=dist)
