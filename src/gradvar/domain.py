"""Graph domains for scattered-data interpolation.

Every fitting routine in this package runs on a finite undirected graph:
a regular grid, an arbitrary edge-list graph, or the vertex/edge graph of
a triangle/quad mesh.  Distances are hop counts: in closed form on a grid
(distance transforms), by unweighted BFS sweeps elsewhere; the physical
grid spacing only enters derivative stencils and rendering.
"""

from __future__ import annotations

import io
import warnings
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

#: Marker for vertices no source can reach in :func:`bfs_distances`.
UNREACHABLE = -1

# Internal sentinel of min_offset_sweep, on grids and elsewhere; large but
# far from int64 overflow.
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


def _mean_by_key(keys: np.ndarray, values: np.ndarray):
    """(the distinct keys, or rows of a 2-d ``keys``, in sorted order; the
    mean of ``values`` over each, as sum / count)."""
    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    sums = np.bincount(inverse, weights=values, minlength=len(uniq))
    return uniq, sums / np.bincount(inverse, minlength=len(uniq))


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
    rest of the package can rely on them; on a grid the adjacency and
    ``coords`` are instead built on first read, from ``grid``, and equal
    what construction from the grid's edges gives.
    Instances never change after construction (a grid's first read fills a
    cache once); all exposed arrays are read-only views.  ``grid`` is the
    :class:`GridSpec` of a domain made by :func:`build_grid` and ``None`` on
    every other domain; distance transforms, neighbor sums, edge checks,
    renders, gradients and sample snapping read the raster layout from it,
    so a grid fit never builds the adjacency.  ``_pair_memo`` holds the last
    matrix :func:`_pair_distances` computed, as read-only (vertices,
    matrix), so that a check at the auto delta runs its sweeps once and
    :func:`_one_component` reads its verdict from row 0; it is a cache, not
    the graph, and only this module reads or writes it.
    """

    __slots__ = ("vertex_count", "coords", "_offsets", "_dir_src", "_dir_dst",
                 "grid", "_pair_memo")

    def __init__(self, vertex_count: int, edges=(), coords=None):
        n = self._start(vertex_count, None)

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

        self.coords = coords
        if coords is not None and _freeze(self, "coords", np.float64).shape != (n, 2):
            raise ValueError("coords must be one (x, y) pair per vertex")
        if coords is not None and not np.isfinite(self.coords).all():
            raise ValueError("vertex coordinates must be finite")
        for arr in (self._offsets, self._dir_src, self._dir_dst):
            arr.setflags(write=False)

    def _start(self, vertex_count, grid: GridSpec | None) -> int:
        """Set the vertex count, ``grid`` and an empty memo; return the count."""
        n = self.vertex_count = _count(vertex_count, "vertex_count")
        if n * n >= 1 << 63:   # the int64 edge keys of __init__ reach n * n
            raise ValueError(f"vertex_count {n} is too large; at most 3037000499")
        self.grid, self._pair_memo = grid, None
        return n

    def __getattr__(self, name: str):
        # Reached only when a slot is unset: on a grid, the adjacency or
        # coords before their first read.
        if (name not in ("coords", "_offsets", "_dir_src", "_dir_dst")
                or self.grid is None):
            raise AttributeError(f"'Domain' object has no attribute {name!r}")
        grid = self.grid
        if name == "coords":   # (column, row) times the spacing
            col_row = np.divmod(np.arange(self.vertex_count), grid.width)[::-1]
            self.coords = np.stack(col_row, axis=1) * float(grid.spacing)
            self.coords.setflags(write=False)
        else:
            self._offsets, self._dir_src, self._dir_dst = _grid_adjacency(grid)
        return getattr(self, name)

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
        keep = np.flatnonzero(self._dir_src < self._dir_dst)
        return self._dir_src[keep], self._dir_dst[keep]

    def directed_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(src, dst) arrays with both orientations of every edge."""
        return self._dir_src, self._dir_dst

    def adjacency_lists(self) -> list[list[int]]:
        """Neighbor lists as plain ints: the oracle input of gates C2 and C6."""
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
    """A grid domain with row-major ids and (column, row) * spacing coords.

    The domain records ``spec`` as its ``grid``, so pair distances on it
    take the closed form (Manhattan for four-, Chebyshev for
    eight-connectivity), and it builds its adjacency and coords from
    ``spec`` on first read, not here.
    """
    w, h = spec.width, spec.height
    domain = Domain.__new__(Domain)
    domain._start(w * h, spec)
    # Domain's rule on coords, judged on the largest: (max(w, h) - 1) * spacing.
    if not np.isfinite((max(w, h) - 1) * float(spec.spacing)):
        raise ValueError("vertex coordinates must be finite")
    return domain


def _grid_steps(grid: GridSpec) -> list[tuple[tuple, tuple]]:
    """Index pairs (a, b) into a (height, width) raster, one per forward
    neighbor step (right, down, and on eight-connected grids both down
    diagonals), such that z[a][r, c] and z[b][r, c] are neighbors; together
    they hold every edge once."""
    h, w = grid.height, grid.width
    steps = ((0, 1), (1, 0), (1, 1), (1, -1))[:4 if grid.connectivity == "eight" else 2]
    return [(np.s_[:h - dr, max(-dc, 0):w - max(dc, 0)],
             np.s_[dr:, max(dc, 0):w - max(-dc, 0)]) for dr, dc in steps]


def _grid_adjacency(spec: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(offsets, sources, targets) of the grid, read-only, as Domain builds
    them from its edges, but without a sort: each vertex's neighbor slots,
    in ascending id order, masked at the borders and compressed."""
    w, h = spec.width, spec.height
    steps = ([(-1, 0), (0, -1), (0, 1), (1, 0)] if spec.connectivity == "four" else
             [(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if dy or dx])
    inside = np.pad(np.ones((h, w), dtype=bool), 1)
    present = np.stack([inside[1 + dy:h + 1 + dy, 1 + dx:w + 1 + dx]
                        for dy, dx in steps], axis=2)
    # Rows (columns) within one step of each row (column), its own included.
    rows, cols = (1 + (np.arange(m) > 0) + (np.arange(m) < m - 1) for m in (h, w))
    degrees = ((rows[:, None] - 1) + (cols - 1) if len(steps) == 4
               else rows[:, None] * cols - 1).ravel()
    offsets = np.concatenate([[0], np.cumsum(degrees)]).astype(np.int64)
    src = np.repeat(np.arange(w * h, dtype=np.int64), degrees)
    step_ids = np.array([dy * w + dx for dy, dx in steps], dtype=np.int64)
    dst = np.broadcast_to(step_ids, present.shape)[present]
    dst += src
    for a in (offsets, src, dst):
        a.setflags(write=False)
    return offsets, src, dst


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


def _fields(path, lineno: int, tokens: list[str], sizes, converters,
            count_error: str, parse_error: str) -> list:
    """``tokens``, if their count is in ``sizes``, each converted by the
    converter at its place; else ValueError "<path>: line <lineno>:
    <count_error>", or "... <parse_error>" if a converter raises one."""
    if len(tokens) not in sizes:
        raise ValueError(f"{path}: line {lineno}: {count_error}")
    try:
        return [convert(token) for convert, token in zip(converters, tokens)]
    except ValueError:
        raise ValueError(f"{path}: line {lineno}: {parse_error}") from None


def _line_error(path, n: int, message: str, kind: str | None = None) -> ValueError:
    """ValueError "<path>: line <L>: <message>", L the file line of the
    ``n``-th record (from 0) of :func:`_records`, counting only records whose
    first field is ``kind`` if given; readers raise it once a check on their
    parsed arrays fails, to name the bad line."""
    lineno = [lineno for lineno, fields in _records(path)
              if kind is None or fields[0] == kind][n]
    return ValueError(f"{path}: line {lineno}: {message}")


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
    file, read line by line; each ``v`` and ``f`` record converts through
    :func:`_fields`, so a malformed one raises naming its line."""
    verts: list[list[float]] = []
    corners: list[int] = []      # every face's 1-based indices, in file order
    sizes: list[int] = []        # 3 or 4 corners per face
    face_ids = (lambda t: int(t.split("/", 1)[0]),) * 4   # "i", "i/j" or "i/j/k"
    for lineno, tokens in _records(path):
        if tokens[0] == "v":
            verts.append(_fields(path, lineno, tokens[1:], (3,), (float,) * 3,
                                 "vertex record needs 3 coordinates",
                                 "non-numeric vertex coordinate"))
        elif tokens[0] == "f":
            ids = _fields(path, lineno, tokens[1:], (3, 4), face_ids,
                          "faces must be triangles or quads", "non-integer face index")
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
        raise _line_error(path, int(np.argmin(finite)),
                          "non-finite vertex coordinate", "v")
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
        what = "index out of range" if out_of_range[corner] else "repeats a corner"
        raise _line_error(path, int(face[corner]), f"face {what}", "f")
    edges = np.stack([ids - 1, ids[nxt] - 1], axis=1)
    return Domain(n, edges, coords=xyz[:, :2])


def _edge_jumps(domain: Domain, values: np.ndarray) -> Iterator[np.ndarray]:
    """|values[a] - values[b]| over every edge (a, b): on a grid one array per
    neighbor step, of shifted slices; elsewhere one array in edge_pairs order."""
    if domain.grid is None:
        src, dst = domain.edge_pairs()
        yield np.abs(values[src] - values[dst])
        return
    z = values.reshape(domain.grid.height, domain.grid.width)
    for a, b in _grid_steps(domain.grid):
        jump = z[a] - z[b]
        yield np.abs(jump, out=jump)


def _line_transform(a: np.ndarray) -> np.ndarray:
    """min over j of a[..., j] + |i - j|, at each i of the last axis: one
    forward and one backward running minimum."""
    ramp = np.arange(a.shape[-1])
    a = np.minimum.accumulate(a - ramp, axis=-1) + 2 * ramp
    return np.minimum.accumulate(a[..., ::-1], axis=-1)[..., ::-1] - ramp


def _grid_transform(grid: GridSpec, seed_vertices, seed_values) -> np.ndarray:
    """:func:`min_offset_sweep` on a grid, as a distance transform of the
    sampled seed values in closed form (Felzenszwalb & Huttenlocher,
    "Distance Transforms of Sampled Functions", Theory of Computing 2012).

    Four-connected (L1): the 1-d transform along the rows, then the columns.
    Eight-connected (Chebyshev): the lines of the shorter axis take their
    1-d transform, then a scan down and a scan up sets each line to the
    1-d transform of its minimum with the previous line's three-neighbor
    minimum + 1.  Every vertex starts at ``_INF`` or below and is its own
    candidate, so a minimum of ``_INF`` or more comes out as ``_INF``, as
    the sweep leaves it.
    """
    h, w = grid.height, grid.width
    dist = np.full(h * w, _INF, dtype=np.int64)
    np.minimum.at(dist, seed_vertices, np.asarray(seed_values, dtype=np.int64))
    dist = dist.reshape(h, w)
    if grid.connectivity == "four":
        return _line_transform(_line_transform(dist).T).T.ravel()
    # Chebyshev distance is symmetric, so scan the lines of the shorter axis,
    # padded with _INF at both ends.
    d = np.full((min(h, w), max(h, w) + 2), _INF, dtype=np.int64)
    d[:, 1:-1] = _line_transform(dist.T if h > w else dist)
    for lines in (range(1, len(d)), range(len(d) - 2, -1, -1)):
        for r in lines:
            p = d[r - lines.step]
            near = np.minimum(np.minimum(p[:-2], p[1:-1]), p[2:]) + 1
            d[r, 1:-1] = _line_transform(np.minimum(d[r, 1:-1], near))
    return (d[:, 1:-1].T if h > w else d[:, 1:-1]).ravel()


def min_offset_sweep(domain: Domain, seed_vertices: np.ndarray,
                     seed_values: np.ndarray) -> np.ndarray:
    """Per-vertex minimum over seeds of ``seed_value + hops``.

    On a :func:`build_grid` domain this is a distance transform in closed
    form, see :func:`_grid_transform`; elsewhere a unit-weight Dijkstra
    sweep finalizing whole levels at once.  Both are deterministic and
    single-threaded.  Vertices no seed reaches keep the internal ``_INF``
    sentinel (callers clamp or translate it), and so does a vertex whose
    minimum is ``_INF`` or more.
    """
    if domain.grid is not None:
        return _grid_transform(domain.grid, seed_vertices, seed_values)
    n = domain.vertex_count
    offsets, targets = domain._offsets, domain._dir_dst
    dist = np.full(n, _INF, dtype=np.int64)
    np.minimum.at(dist, seed_vertices, np.asarray(seed_values, dtype=np.int64))
    finalized = np.zeros(n, dtype=bool)
    while True:
        open_mask = ~finalized
        level = dist[open_mask].min(initial=_INF)
        if level >= _INF:
            break
        frontier = np.nonzero(open_mask & (dist == level))[0]
        finalized[frontier] = True
        # The frontier's neighbor lists, concatenated.
        starts = offsets[frontier]
        counts = offsets[frontier + 1] - starts
        shift = np.cumsum(counts) - counts
        neigh = targets[np.repeat(starts - shift, counts) + np.arange(int(counts.sum()))]
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


def _pair_distances(domain: Domain, vertices: np.ndarray) -> np.ndarray:
    """Hop distances between the listed vertices, UNREACHABLE off-component:
    on a :func:`build_grid` domain in closed form on (row, col), Manhattan
    for four-connectivity and Chebyshev for eight, with no sweep; elsewhere
    by :func:`_multi_source_hops`.  The domain keeps the last matrix,
    read-only, so a second call with the same vertices computes nothing."""
    memo = domain._pair_memo
    if memo is not None and np.array_equal(memo[0], vertices):
        return memo[1]
    grid = domain.grid
    if grid is not None:
        rows, cols = np.divmod(vertices, grid.width)
        dr = np.abs(rows[:, None] - rows[None, :])
        dc = np.abs(cols[:, None] - cols[None, :])
        out = dr + dc if grid.connectivity == "four" else np.maximum(dr, dc)
    else:
        out = _multi_source_hops(domain, vertices)
    key = np.array(vertices, dtype=np.int64)
    for arr in (key, out):
        arr.setflags(write=False)
    domain._pair_memo = (key, out)
    return out


def bfs_distances(domain: Domain, sources) -> np.ndarray:
    """Exact multi-source shortest hop counts, one per vertex, read-only.

    The count is 0 on every source, grows by at most 1 across any edge, and
    is ``UNREACHABLE`` on vertices in components without a source.  It is
    :func:`min_offset_sweep` from zero offsets: a distance transform on a
    grid, a level sweep elsewhere.
    """
    src = _ids(sources if isinstance(sources, np.ndarray) else list(sources),
               "source vertex ids", domain.vertex_count)
    if src.size == 0:
        raise ValueError("source set must be nonempty")
    dist = min_offset_sweep(domain, src, np.zeros(len(src), dtype=np.int64))
    dist = np.where(dist >= _INF, np.int64(UNREACHABLE), dist)
    dist.setflags(write=False)
    return dist


def _one_component(domain: Domain, verts: np.ndarray) -> bool:
    """Whether ``verts`` share a component: always on a :func:`build_grid`
    domain; elsewhere from row 0 of the matrix :func:`_pair_distances` kept
    for these vertices, else from one :func:`bfs_distances` sweep."""
    if domain.grid is not None or len(verts) < 2:
        return True
    memo = domain._pair_memo
    kept = memo is not None and np.array_equal(memo[0], verts)
    row = memo[1][0] if kept else bfs_distances(domain, [int(verts[0])])[verts]
    return bool((row != UNREACHABLE).all())
