"""Graph domains for scattered-data interpolation.

Every fitting routine in this package runs on a finite undirected graph:
a regular grid, an arbitrary edge-list graph, or the vertex/edge graph of
a triangle/quad mesh.  Distances are hop counts (unweighted BFS); the
physical grid spacing only enters derivative stencils and rendering.
"""

from __future__ import annotations

import io
import warnings
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

#: Marker for vertices no source can reach in :func:`bfs_distances`.
UNREACHABLE = -1

# Internal sentinel for the sweep engine; large but far from int64 overflow.
_INF = 1 << 60


def _ids(values, what: str, count: int | None = None) -> np.ndarray:
    """``values`` as int64: an integer array is not copied; anything else must
    be finite whole numbers ("<what> must be whole numbers"), clipped to
    +-_INF, so that an id too large for int64, or for a float, stays out of
    range.  Given ``count``, the first id outside 0..count-1 raises
    "<what, singular> <that id as given> out of range"."""
    a = np.asarray(values)
    if a.dtype.kind in "iu":
        ids = a.astype(np.int64, copy=False)
    else:   # objects are Python ints past int64: clip them, or float() may overflow
        f = np.asarray([min(max(x, -_INF), _INF) if isinstance(x, int) else x
                        for x in a.flat] if a.dtype == object else a,
                       dtype=np.float64).reshape(a.shape)
        if not (np.isfinite(f).all() and (f == np.trunc(f)).all()):
            raise ValueError(f"{what} must be whole numbers")
        ids = np.clip(f, -_INF, _INF).astype(np.int64)
    if count is not None:
        bad = (ids < 0) | (ids >= count)
        if bad.any():
            shown = repr(a.ravel().tolist()[int(np.argmax(bad))]).removesuffix(".0")
            raise ValueError(f"{what.removesuffix('s')} {shown} out of range")
    return ids


def _count(value, what: str, floor: int = 1) -> int:
    """``value`` as an int, if it is a whole number >= ``floor`` (whole floats
    such as 3.0 included), else ValueError "<what> must be a positive integer"
    ("an integer >= <floor>" for a floor other than 1)."""
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        value = int(value)
    if not (isinstance(value, (int, np.integer)) and value >= floor):
        kind = "a positive integer" if floor == 1 else f"an integer >= {floor}"
        raise ValueError(f"{what} must be {kind}")
    return int(value)


def _freeze(obj, name: str, dtype, what: str = "") -> np.ndarray:
    """Replace ``obj.<name>`` by a read-only ``dtype`` copy and return it; an
    int64 field must pass :func:`_ids`, named ``what`` or else ``name``."""
    value = getattr(obj, name)
    a = np.array(_ids(value, what or name) if dtype is np.int64 else value, dtype=dtype)
    a.setflags(write=False)
    object.__setattr__(obj, name, a)
    return a


class Domain:
    """Immutable undirected graph over dense vertex ids ``0..vertex_count-1``.

    Adjacency is stored compressed and sorted per vertex.  Symmetry,
    neighbor dedup and loop-freedom are enforced at construction, so the
    rest of the package can rely on them.  Instances never mutate after
    construction; all exposed arrays are read-only views.  ``grid`` is the
    :class:`GridSpec` of a domain made by :func:`build_grid` and ``None`` on
    every other domain; renders, gradients and sample snapping read the
    raster layout from it.  ``_pair_memo`` holds the last pair-distance
    matrix the level-set code computed, as read-only (vertices, matrix), so
    that a check at the auto delta runs its sweeps once and the component
    rule reads its row 0; it is a cache, not part of the graph.
    """

    __slots__ = ("vertex_count", "coords", "_offsets", "_dir_src", "_dir_dst",
                 "grid", "_pair_memo")

    def __init__(self, vertex_count: int, edges=(), coords=None):
        n = self.vertex_count = _count(vertex_count, "vertex_count")
        if n * n >= 1 << 63:   # the int64 edge keys below reach n * n
            raise ValueError(f"vertex_count {n} is too large; at most 3037000499")

        e = _ids(edges if isinstance(edges, np.ndarray) else list(edges),
                 "edge vertex ids")
        if e.size == 0:
            e = e.reshape(0, 2)
        if e.ndim != 2 or e.shape[1] != 2:
            raise ValueError("edges must be pairs of vertex ids")
        if e.size and ((e < 0).any() or (e >= n).any()):
            bad = e[((e < 0) | (e >= n)).any(axis=1)][0].tolist()
            raise ValueError(f"edge {tuple(bad)} references a vertex id out of range")
        if e.size and (e[:, 0] == e[:, 1]).any():
            v = int(e[e[:, 0] == e[:, 1]][0, 0])
            raise ValueError(f"self-loop at vertex {v} is not allowed")

        # Symmetrize, dedup, and sort by (source, target) on the 1-d key
        # source * n + target, which orders the same way and sorts far faster
        # than rows.  A plain sort, not np.unique: numpy 2 dedups integers in
        # a hash table first, which is slower here and fragments the heap.
        src, dst = e[:, 0], e[:, 1]
        key = np.concatenate([src * n + dst, dst * n + src])
        key.sort()
        first = np.ones(key.size, dtype=bool)
        np.not_equal(key[1:], key[:-1], out=first[1:])
        self._dir_src, self._dir_dst = np.divmod(key[first], n)
        counts = np.bincount(self._dir_src, minlength=n)
        self._offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        self.grid = None
        self._pair_memo = None

        self.coords = coords
        if coords is not None and _freeze(self, "coords", np.float64).shape != (n, 2):
            raise ValueError("coords must be one (x, y) pair per vertex")
        for arr in (self._offsets, self._dir_src, self._dir_dst):
            arr.setflags(write=False)

    # -- queries ---------------------------------------------------------

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor ids of ``v`` (read-only view)."""
        return self._dir_dst[self._offsets[v]:self._offsets[v + 1]]

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self._offsets)

    @property
    def edge_count(self) -> int:
        return len(self._dir_dst) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each undirected edge once, as (a, b) with a < b."""
        src, dst = self.edge_pairs()
        yield from zip(src.tolist(), dst.tolist())

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
        for name in ("width", "height"):
            object.__setattr__(self, name, _count(getattr(self, name), f"grid {name}"))
        if self.connectivity not in ("four", "eight"):
            raise ValueError("connectivity must be 'four' or 'eight'")
        if not 0 < self.spacing < np.inf:
            raise ValueError("spacing must be positive and finite")


def build_grid(spec: GridSpec) -> Domain:
    """Materialize a grid domain with row-major ids and embedded coords.

    The domain records ``spec`` as its ``grid``, so pair distances on it
    take the closed form (Manhattan for four-, Chebyshev for
    eight-connectivity).
    """
    w, h = spec.width, spec.height
    idx = np.arange(w * h, dtype=np.int64).reshape(h, w)
    # (x, y) is (column, row) times the spacing.
    coords = np.stack(np.divmod(idx.ravel(), w)[::-1], axis=1) * spec.spacing
    parts = [
        np.stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()], axis=1),
        np.stack([idx[:-1, :].ravel(), idx[1:, :].ravel()], axis=1),
    ]
    if spec.connectivity == "eight":
        parts.append(np.stack([idx[:-1, :-1].ravel(), idx[1:, 1:].ravel()], axis=1))
        parts.append(np.stack([idx[:-1, 1:].ravel(), idx[1:, :-1].ravel()], axis=1))
    domain = Domain(w * h, np.vstack(parts), coords=coords)
    domain.grid = spec
    return domain


def build_graph(edges: Iterable[tuple[int, int]], vertex_count: int,
                coords=None) -> Domain:
    """Build a domain from an explicit undirected edge list.

    Reversed duplicates collapse to one edge; self-loops and out-of-range
    ids raise ``ValueError``.
    """
    return Domain(vertex_count, edges, coords=coords)


def _records(path, sep=None) -> Iterator[tuple[int, list[str]]]:
    """Yield (file line number, fields) for each non-blank line of a text file,
    after dropping any ``#`` comment; fields split on whitespace, or on ``sep``."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.partition("#")[0].strip()
            if line:
                yield lineno, line.split(sep)


def _record_line(path, n: int, kind: str | None = None) -> int:
    """File line of the ``n``-th record (from 0) of :func:`_records`, counting
    only records whose first field is ``kind`` if given; readers call it
    once a check on their parsed arrays fails, to name the bad line."""
    return [lineno for lineno, fields in _records(path)
            if kind is None or fields[0] == kind][n]


# The bytes a token of a plain file may hold: printable ASCII but for the
# space, the comment mark and the face-corner slash.
_PLAIN = bytes(range(0x21, 0x7F)).translate(None, b"#/")


def _loadtxt(src, dtype, delimiter=None) -> np.ndarray | None:
    """The rows of ``src`` (lines, no comments) in the structured ``dtype``,
    by numpy's C text reader; None if it raises or warns: on a field that
    does not parse, a wrong column count, no rows, or an integer read
    through a float (a deprecation on numpy 1.x)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.loadtxt(src, dtype=dtype, delimiter=delimiter,
                              comments=None, ndmin=1)
        except (ValueError, Warning):
            return None


def _mesh_records(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(vertex x, y, z rows, 1-based face corners, corners per face) of an OBJ
    file, read line by line; a malformed record raises naming its line."""
    verts: list[tuple[float, float, float]] = []
    corners: list[int] = []      # every face's 1-based indices, in file order
    sizes: list[int] = []        # 3 or 4 corners per face
    for lineno, tokens in _records(path):
        kind = tokens[0]
        if kind == "v":
            if len(tokens) != 4:
                raise ValueError(
                    f"{path}: line {lineno}: vertex record needs 3 coordinates")
            try:
                verts.append(tuple(float(t) for t in tokens[1:]))
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: non-numeric vertex coordinate") from None
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
        # Anything else (vn, vt, o, g, ...) is outside the subset; skip.
    if not verts:
        raise ValueError(f"{path}: no vertices found")
    return (np.array(verts, dtype=np.float64), _ids(corners, "face indices"),
            np.array(sizes, dtype=np.int64))


def _mesh_bulk(path) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """What :func:`_mesh_records` returns, read as whole arrays, for a plain
    OBJ file of ``v`` lines and then ``f`` lines of one width; else None.
    The kind column is 2 bytes wide, so that ``vn``, ``fo`` or any longer
    kind differs from a bare ``v`` or ``f``."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data.translate(None, _PLAIN + b" \t\n"):
        return None
    cut = data.find(b"\nf") + 1
    head, tail = io.BytesIO(data[:cut]), io.BytesIO(data[cut:])
    del data
    verts = _loadtxt(head, [("kind", "S2"), ("xyz", "f8", 3)])
    width = len(tail.readline().split()) - 1
    if verts is None or (verts["kind"] != b"v").any() or width not in (3, 4):
        return None
    tail.seek(0)
    faces = _loadtxt(tail, [("kind", "S2"), ("ids", "i8", width)])
    if faces is None or (faces["kind"] != b"f").any():
        return None
    return verts["xyz"].copy(), faces["ids"].ravel(), np.full(len(faces), width)


def load_mesh(path) -> Domain:
    """Parse a minimal OBJ subset into the mesh's vertex/edge graph.

    Recognized records: ``v x y z`` and ``f i j k [l]`` with 1-based
    indices; ``#`` starts a comment.  Faces must be triangles or quads and
    contribute their boundary edges; a corner index out of range, or one a
    face repeats, is an error, as is a coordinate that is not finite.
    Vertex coords keep the first two coordinates (x, y).  A malformed
    ``v``/``f`` line raises ``ValueError`` naming the line number; other
    record types are ignored.  A plain file is read as whole arrays; any
    other is read line by line, with the same result.
    """
    xyz, ids, size = _mesh_bulk(path) or _mesh_records(path)
    finite = np.isfinite(xyz).all(axis=1)
    if not finite.all():
        lineno = _record_line(path, int(np.argmin(finite)), "v")
        raise ValueError(f"{path}: line {lineno}: non-finite vertex coordinate")
    n = len(xyz)
    face = np.repeat(np.arange(len(size)), size)
    # Each corner joins the next one of its face; the last closes the cycle.
    first = np.cumsum(size) - size
    nxt = np.arange(len(ids)) + 1
    closing = nxt == (first + size)[face]
    nxt[closing] = first[face[closing]]
    # ids[nxt[nxt]] is a quad's opposite corner and a triangle's previous one.
    out_of_range = (ids < 1) | (ids > n)
    bad = out_of_range | (ids == ids[nxt]) | (ids == ids[nxt[nxt]])
    if bad.any():
        corner = int(np.argmax(bad))
        lineno = _record_line(path, int(face[corner]), "f")
        what = "index out of range" if out_of_range[corner] else "repeats a corner"
        raise ValueError(f"{path}: line {lineno}: face {what}")
    edges = np.stack([ids - 1, ids[nxt] - 1], axis=1)
    return Domain(n, edges, coords=xyz[:, :2])


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


def _multi_source_hops(domain: Domain, vertices: np.ndarray) -> np.ndarray:
    """Hop distances among ``vertices``: entry (r, c) is d(vertices[r],
    vertices[c]), ``UNREACHABLE`` across components.

    A multi-source BFS (MS-BFS; Then et al., VLDB 2014) runs each block of
    up to 64 sources as one sweep.  Every vertex holds a uint64 word whose
    bit s is set once source s has reached it.  Each level ORs the frontier
    words of every vertex's neighbors, keeps the bits the vertex has not
    seen, and records the level at which each listed vertex first gains
    each bit.  A block stops when every listed vertex holds every bit, or
    when the frontier is empty.

    The pull reads a padded neighbor table (ELL; Bell & Garland, SC 2009):
    slot j of vertex v holds v's j-th neighbor or the sentinel n, whose word
    is always 0.  The width is the largest degree capped at twice the mean,
    and neighbors past it form a tail that ORs in by ``reduceat``.
    """
    n, k = domain.vertex_count, len(vertices)
    out = np.full((k, k), UNREACHABLE, dtype=np.int64)
    offsets, targets = domain._offsets, domain._dir_dst
    degrees = domain.degrees
    width = int(min(degrees.max(), 2 * -(-len(targets) // n)))
    slot = np.arange(len(targets)) - np.repeat(offsets[:-1], degrees)
    table = np.full((width, n), n, dtype=np.intp)
    head = slot < width
    table[slot[head], domain._dir_src[head]] = targets[head]
    # reduceat over the vertices with tail edges only: no empty segments.
    excess = np.maximum(degrees - width, 0)
    owners = np.nonzero(excess)[0]
    starts = np.cumsum(excess[owners]) - excess[owners]
    tail = targets[~head]
    one = np.uint64(1)
    frontier = np.zeros(n + 1, dtype=np.uint64)   # word n: the sentinel
    live = frontier[:n]
    for lo in range(0, k, 64):
        # uint64 shift counts: numpy 2 turns uint64 << int64 into float64.
        shifts = np.arange(min(64, k - lo), dtype=np.uint64)
        bits = one << shifts
        full = np.bitwise_or.reduce(bits)
        seen = np.zeros(n, dtype=np.uint64)
        np.bitwise_or.at(seen, vertices[lo:lo + 64], bits)
        live[:], level = seen, 0
        while True:
            gained = live[vertices]
            rows, cols = np.nonzero((gained[:, None] >> shifts) & one)
            out[rows, lo + cols] = level
            if (seen[vertices] == full).all():
                break
            pulled = np.bitwise_or.reduce(np.take(frontier, table), axis=0)
            if owners.size:
                pulled[owners] |= np.bitwise_or.reduceat(
                    np.take(frontier, tail), starts)
            np.bitwise_and(pulled, ~seen, out=live)
            if not live.any():
                break
            seen |= live
            level += 1
    return out


def bfs_distances(domain: Domain, sources) -> np.ndarray:
    """Exact multi-source shortest hop counts, one per vertex, read-only.

    The count is 0 on every source, grows by at most 1 across any edge, and
    is ``UNREACHABLE`` on vertices in components without a source.
    """
    src = _ids(sources if isinstance(sources, np.ndarray) else list(sources),
               "source vertex ids", domain.vertex_count)
    if src.size == 0:
        raise ValueError("source set must be nonempty")
    dist = min_offset_sweep(domain, src, np.zeros(len(src), dtype=np.int64))
    dist = np.where(dist >= _INF, np.int64(UNREACHABLE), dist)
    dist.setflags(write=False)
    return dist
