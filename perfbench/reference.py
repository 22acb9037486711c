"""Reference computations for checking gradvar's outputs.

This module shares no code with gradvar and never imports it.  Every
quantity the benchmark checks is recomputed here from the inputs the
benchmark generated:

- hop distances: closed form on grids (Manhattan for 4-connectivity,
  Chebyshev for 8), and a frontier BFS over the faces of an OBJ mesh;
- the Lipschitz level spacing, the documented quantization, the pairwise
  feasibility test and the distance envelopes L and U;
- the Dirichlet-Laplacian solve by a sparse direct factorization (scipy is
  used here only, never by the program);
- Shepard interpolation, vectorized, and weighted least squares per vertex;
- the documented Taylor-blend smoothing steps;
- parsers for PPM, PGM, OBJ and the field/sample CSV files.

Small-graph tests against brute force live in ``test_reference.py``.
"""

from __future__ import annotations

import math

import numpy as np

UNREACHABLE = -1


# -- graphs ------------------------------------------------------------------

def grid_edges(width: int, height: int, eight: bool) -> np.ndarray:
    """Undirected edges (a < b) of a row-major width x height grid."""
    ids = np.arange(width * height).reshape(height, width)
    pairs = [(ids[:, :-1], ids[:, 1:]), (ids[:-1, :], ids[1:, :])]
    if eight:
        pairs += [(ids[:-1, :-1], ids[1:, 1:]), (ids[:-1, 1:], ids[1:, :-1])]
    e = np.concatenate([np.stack([a.ravel(), b.ravel()], axis=1) for a, b in pairs])
    return np.sort(e, axis=1)


def face_edges(faces) -> np.ndarray:
    """Unique undirected edges (a < b) on the boundary cycles of the faces."""
    out = set()
    for face in faces:
        for a, b in zip(face, face[1:] + face[:1]):
            out.add((min(a, b), max(a, b)))
    return np.array(sorted(out), dtype=np.int64).reshape(-1, 2)


def neighbor_table(n: int, edges: np.ndarray) -> np.ndarray:
    """(n, max_degree) neighbor ids, padded with -1."""
    both = np.concatenate([edges, edges[:, ::-1]])
    both = both[np.lexsort((both[:, 1], both[:, 0]))]
    deg = np.bincount(both[:, 0], minlength=n)
    table = np.full((n, max(int(deg.max()) if n else 0, 1)), -1, dtype=np.int64)
    start = np.concatenate([[0], np.cumsum(deg)[:-1]])
    slot = np.arange(len(both)) - np.repeat(start, deg)
    table[both[:, 0], slot] = both[:, 1]
    return table


def grid_distances(width: int, eight: bool, sources, targets) -> np.ndarray:
    """(len(sources), len(targets)) hop distances on a grid, in closed form."""
    s = np.asarray(sources, dtype=np.int64)[:, None]
    t = np.asarray(targets, dtype=np.int64)[None, :]
    dr = np.abs(s // width - t // width)
    dc = np.abs(s % width - t % width)
    return np.maximum(dr, dc) if eight else dr + dc


def bfs(table: np.ndarray, source: int) -> np.ndarray:
    """Hop distances from one vertex by frontier expansion; -1 if unreachable."""
    dist = np.full(len(table), UNREACHABLE, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        nxt = table[frontier].ravel()
        nxt = np.unique(nxt[nxt >= 0])
        nxt = nxt[dist[nxt] == UNREACHABLE]
        dist[nxt] = level
        frontier = nxt
    return dist


def bfs_rows(table: np.ndarray, sources) -> np.ndarray:
    """(len(sources), n) hop distances, one BFS per source."""
    return np.stack([bfs(table, int(s)) for s in sources])


# -- level extension -----------------------------------------------------------

def lipschitz_spacing(values, pair_dist: np.ndarray) -> float:
    """max over sample pairs of |v_a - v_b| / d(a, b); pairs must be reachable."""
    v = np.asarray(values, dtype=np.float64)
    best = 0.0
    for a in range(len(v)):
        d = pair_dist[a, a + 1:]
        if (d == UNREACHABLE).any():
            raise ValueError("samples lie in different components")
        if d.size:
            best = max(best, float((np.abs(v[a] - v[a + 1:]) / d).max()))
    return best


def level_count(values, delta: float) -> int:
    """n = floor((max - min) / delta) + 1 levels starting at min."""
    v = np.asarray(values, dtype=np.float64)
    return max(1, int(math.floor((float(v.max()) - float(v.min())) / delta)) + 1)


def quantize(values, delta: float) -> np.ndarray:
    """1-based index of the nearest level base + (i - 1) delta, ties to lower."""
    v = np.asarray(values, dtype=np.float64)
    t = (v - v.min()) / delta
    k = np.ceil(t - 0.5).astype(np.int64)
    return np.clip(k, 0, level_count(v, delta) - 1) + 1


def pairwise_violations(indices, pair_dist: np.ndarray):
    """Upper-triangle pairs with their index gap minus hop distance."""
    i = np.asarray(indices, dtype=np.int64)
    a, b = np.triu_indices(len(i), k=1)
    gap = np.abs(i[a] - i[b])
    return a, b, gap - pair_dist[a, b]


def envelopes(indices, dist_rows: np.ndarray, n: int):
    """L = max(1, max_j(i_j - d_j)), U = min(n, min_j(i_j + d_j)) per vertex."""
    i = np.asarray(indices, dtype=np.int64)[:, None]
    far = dist_rows == UNREACHABLE
    upper = np.where(far, np.iinfo(np.int64).max, i + dist_rows).min(axis=0)
    lower = np.where(far, np.iinfo(np.int64).min, i - dist_rows).max(axis=0)
    return np.maximum(lower, 1), np.minimum(upper, n)


def auto_delta(values, pair_dist: np.ndarray) -> float:
    """The Lipschitz spacing, or 1e-9 * max(1, max|v|) when all values are equal."""
    v = np.asarray(values, dtype=np.float64)
    return lipschitz_spacing(v, pair_dist) or 1e-9 * max(1.0, float(np.abs(v).max()))


def gvf_field(values, dist_rows: np.ndarray, pair_dist: np.ndarray):
    """Auto-delta midpoint extension: (values per vertex, delta, indices)."""
    v = np.asarray(values, dtype=np.float64)
    delta = auto_delta(v, pair_dist)
    idx = quantize(v, delta)
    lo, hi = envelopes(idx, dist_rows, level_count(v, delta))
    mid = (lo + hi) // 2
    return v.min() + (mid - 1) * delta, delta, mid


# -- smoothing -----------------------------------------------------------------

def dirichlet_harmonic(n: int, edges: np.ndarray, fixed, fixed_values) -> np.ndarray:
    """Discrete harmonic field with the fixed values, by a sparse direct solve."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spl

    both = np.concatenate([edges, edges[:, ::-1]])
    adj = sp.csr_matrix((np.ones(len(both)), (both[:, 0], both[:, 1])), shape=(n, n))
    lap = (sp.diags(np.asarray(adj.sum(axis=1)).ravel()) - adj).tocsr()
    fixed = np.asarray(fixed, dtype=np.int64)
    free = np.setdiff1d(np.arange(n), fixed)
    out = np.empty(n)
    out[fixed] = fixed_values
    rhs = -(lap[free][:, fixed] @ np.asarray(fixed_values, dtype=np.float64))
    out[free] = spl.spsolve(lap[free][:, free].tocsc(), rhs)
    return out


def grid_gradient(z: np.ndarray, h: float):
    """(d/dx, d/dy) of a (rows, cols) array: central inside, one-sided at borders."""
    def along(a):
        g = np.empty_like(a)
        g[1:-1] = (a[2:] - a[:-2]) / (2.0 * h)
        g[0] = (a[1] - a[0]) / h
        g[-1] = (a[-1] - a[-2]) / h
        return g
    return along(z.T).T, along(z)


def taylor_blend(table: np.ndarray, xy: np.ndarray, values, gx, gy,
                 sample_verts, sample_vals, sweeps: int) -> np.ndarray:
    """Repeated neighbor means of first-order Taylor predictions, samples pinned."""
    valid = table >= 0
    nb = np.where(valid, table, 0)
    dx = xy[:, 0][:, None] - xy[nb, 0]
    dy = xy[:, 1][:, None] - xy[nb, 1]
    slope = np.where(valid, gx[nb] * dx + gy[nb] * dy, 0.0)
    deg = valid.sum(axis=1)
    out = np.array(values, dtype=np.float64)
    for _ in range(sweeps):
        out = (np.where(valid, out[nb], 0.0) + slope).sum(axis=1) / deg
        out[sample_verts] = sample_vals
    return out


def smooth_reconstruct(width: int, height: int, table: np.ndarray, xy: np.ndarray,
                       sample_verts, sample_vals, dist_rows, pair_dist,
                       order: int, sweeps: int) -> np.ndarray:
    """The documented smoothing rounds on a unit-spacing grid."""
    sv = np.asarray(sample_verts, dtype=np.int64)
    vals = np.asarray(sample_vals, dtype=np.float64)
    values, _, _ = gvf_field(vals, dist_rows, pair_dist)
    values[sv] = vals
    for _ in range(order):
        gx, gy = grid_gradient(values.reshape(height, width), 1.0)
        gx_fit, _, _ = gvf_field(gx.ravel()[sv], dist_rows, pair_dist)
        gy_fit, _, _ = gvf_field(gy.ravel()[sv], dist_rows, pair_dist)
        values = taylor_blend(table, xy, values, gx_fit, gy_fit, sv, vals, sweeps)
    return values


# -- pointwise baselines ---------------------------------------------------------

def shepard(queries: np.ndarray, xy: np.ndarray, values, power: float) -> np.ndarray:
    """Inverse-distance weighted averages; exact at sample sites."""
    v = np.asarray(values, dtype=np.float64)
    d = np.hypot(queries[:, None, 0] - xy[None, :, 0],
                 queries[:, None, 1] - xy[None, :, 1])
    hit = d == 0.0
    with np.errstate(divide="ignore"):
        w = np.where(hit, 0.0, d ** -power)
    out = (w @ v) / w.sum(axis=1)
    rows = hit.any(axis=1)
    out[rows] = v[hit[rows].argmax(axis=1)]
    return out


def _monomials(u: np.ndarray, w: np.ndarray | None, degree: int) -> list:
    cols = [np.ones_like(u)]
    if degree >= 1:
        cols.append(u)
        if w is not None:
            cols.append(w)
    if degree >= 2:
        cols.append(u * u)
        if w is not None:
            cols += [u * w, w * w]
    return cols


def weighted_least_squares(queries: np.ndarray, xy: np.ndarray, values,
                           degree: int, scale: float):
    """Per-query Gaussian-weighted polynomial fits, evaluated at the query.

    Returns (fitted values, full_rank flags).  When every sample lies on one
    row (one y value) the polynomial space in y is undetermined; the fit
    then uses the x monomials alone, which is what dropping the
    undetermined directions in a centroid-centred basis amounts to, and
    the flag is False.  Otherwise the fit is the unique weighted
    least-squares polynomial, computed in a basis centred on the query so
    that its value there is the constant coefficient.
    """
    v = np.asarray(values, dtype=np.float64)
    one_row = degree > 0 and np.ptp(xy[:, 1]) == 0.0
    ux = (xy[None, :, 0] - queries[:, None, 0]) / scale
    uy = (xy[None, :, 1] - queries[:, None, 1]) / scale
    wt = np.exp(-(np.square(ux) + np.square(uy)))
    basis = np.stack(_monomials(ux, None if one_row else uy, degree), axis=2)
    normal = np.einsum("qk,qki,qkj->qij", wt, basis, basis)
    rhs = np.einsum("qk,qki,k->qi", wt, basis, v)
    out = np.linalg.solve(normal, rhs[..., None])[:, 0, 0]
    return out, np.full(len(queries), not one_row)


# -- file formats ----------------------------------------------------------------

def _pnm_header(data: bytes, magic: bytes):
    """(width, height, maxval, comments, pixel offset) of a binary PNM."""
    if data[:2] != magic:
        raise ValueError(f"expected {magic!r} magic")
    fields: list[int] = []
    comments: list[str] = []
    pos = 2
    while len(fields) < 3:
        while data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            end = data.index(b"\n", pos)
            comments.append(data[pos + 1:end].decode("ascii").strip())
            pos = end + 1
            continue
        end = pos
        while not data[end:end + 1].isspace():
            end += 1
        fields.append(int(data[pos:end]))
        pos = end
    return fields[0], fields[1], fields[2], comments, pos + 1


def parse_ppm(data: bytes) -> np.ndarray:
    """(height, width, 3) uint8 pixels of a P6 file."""
    w, h, maxval, _, off = _pnm_header(data, b"P6")
    if maxval != 255 or len(data) - off != w * h * 3:
        raise ValueError("P6 body does not match its header")
    return np.frombuffer(data[off:], dtype=np.uint8).reshape(h, w, 3)


def parse_pgm16(data: bytes):
    """((height, width) uint16 pixels, header comments) of a 16-bit P5 file."""
    w, h, maxval, comments, off = _pnm_header(data, b"P5")
    if maxval != 65535 or len(data) - off != w * h * 2:
        raise ValueError("16-bit P5 body does not match its header")
    return np.frombuffer(data[off:], dtype=">u2").reshape(h, w).astype(np.int64), comments


def parse_obj(text: str):
    """(vertices as an (n, 3) array, faces as lists of 0-based ids)."""
    verts, faces = [], []
    for line in text.splitlines():
        tok = line.split("#", 1)[0].split()
        if not tok:
            continue
        if tok[0] == "v":
            verts.append([float(t) for t in tok[1:4]])
        elif tok[0] == "f":
            faces.append([int(t.split("/")[0]) - 1 for t in tok[1:]])
    return np.array(verts, dtype=np.float64).reshape(-1, 3), faces


def parse_csv(text: str):
    """(header fields, float rows) of a small comma-separated file."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    header = [h.strip() for h in lines[0].split(",")]
    rows = np.array([[float(p) for p in ln.split(",")] for ln in lines[1:]])
    return header, rows.reshape(-1, len(header))
