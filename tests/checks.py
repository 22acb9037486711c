"""Independent verification helpers for the test suite.

Everything here deliberately avoids the library's own graph and sweep
code: adjacency comes in as plain lists, traversal is a hand-rolled
queue BFS, and extension existence is decided by brute-force enumeration
over all assignments.  Tests compare library outputs against these.
``component_graph`` makes random test domains with ``build_graph``; the
oracles take their adjacency as plain lists.
"""

import importlib.util
import sys
from collections import deque
from pathlib import Path

import numpy as np
import pytest

from gradvar import GuidingSet, build_graph

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name: str):
    """``perfbench/<name>.py`` loaded by path, unchanged, with ``perfbench/``
    on ``sys.path`` while it loads so that its own ``import reference``
    resolves."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        spec = importlib.util.spec_from_file_location(
            f"perfbench_{name}", PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        # dataclasses look their module up in sys.modules while it loads.
        mp.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
    return module


def gradual_variation_ok(adjacency: list[list[int]], idx) -> bool:
    """Pure-python check that adjacent indices differ by at most 1."""
    for a, neigh in enumerate(adjacency):
        for b in neigh:
            if abs(int(idx[a]) - int(idx[b])) > 1:
                return False
    return True


def guiding_set(indices: dict, raw_values: dict) -> GuidingSet:
    """A GuidingSet from vertex -> level index and vertex -> raw value maps."""
    assert set(indices) == set(raw_values)
    verts = sorted(indices)
    return GuidingSet(vertices=np.array(verts, dtype=np.int64),
                      indices=np.array([indices[v] for v in verts], dtype=np.int64),
                      raw_values=np.array([raw_values[v] for v in verts],
                                          dtype=np.float64))


def python_bfs(adjacency: list[list[int]], sources) -> list[int]:
    """Queue-based multi-source BFS; -1 where unreachable."""
    dist = [-1] * len(adjacency)
    q = deque()
    for s in sources:
        if dist[s] == -1:
            dist[s] = 0
            q.append(s)
    while q:
        v = q.popleft()
        for w in adjacency[v]:
            if dist[w] == -1:
                dist[w] = dist[v] + 1
                q.append(w)
    return dist


def oracle_grid_transform(width: int, height: int, connectivity: str,
                          seeds, values) -> list[int]:
    """min over seeds of (value + grid distance) at every row-major vertex,
    by brute force over all seeds in Python ints: the distance is Manhattan
    on (row, column) for "four", Chebyshev for "eight"."""
    out = []
    for v in range(width * height):
        r, c = divmod(v, width)
        best = None
        for s, value in zip(seeds, values):
            dr, dc = abs(r - s // width), abs(c - s % width)
            cand = int(value) + (dr + dc if connectivity == "four" else max(dr, dc))
            best = cand if best is None else min(best, cand)
        out.append(best)
    return out


def component_graph(rng, sizes):
    """A random edge-list graph of connected pieces of the given sizes.

    Each piece is a random tree plus a few chords, vertex ids shuffled;
    returns the domain and its adjacency lists.
    """
    total = int(sum(sizes))
    perm = rng.permutation(total)
    edges, start = [], 0
    for size in sizes:
        ids = perm[start:start + size]
        for k in range(1, size):
            edges.append((ids[k], ids[rng.integers(0, k)]))
        for _ in range(int(rng.integers(0, size))):
            a, b = rng.choice(ids, size=2)
            if a != b:
                edges.append((a, b))
        start += size
    domain = build_graph(np.array(edges, dtype=np.int64).reshape(-1, 2), total)
    return domain, domain.adjacency_lists()


def oracle_dirichlet(adjacency: list[list[int]], fixed: dict) -> np.ndarray:
    """The discrete harmonic field with Dirichlet data ``fixed``.

    Every free vertex equals the mean of its neighbors: a dense
    ``np.linalg.solve`` of the free block of the graph Laplacian.  Every
    component must hold a fixed vertex, or that block is singular.
    """
    x = np.zeros(len(adjacency))
    free = [v for v in range(len(adjacency)) if v not in fixed]
    pos = {v: i for i, v in enumerate(free)}
    a = np.zeros((len(free), len(free)))
    b = np.zeros(len(free))
    for v in free:
        a[pos[v], pos[v]] = len(adjacency[v])
        for w in adjacency[v]:
            if w in pos:
                a[pos[v], pos[w]] -= 1.0
            else:
                b[pos[v]] += fixed[w]
    for v, value in fixed.items():
        x[v] = value
    if free:
        x[free] = np.linalg.solve(a, b)
    return x


def all_assignments(vertex_count: int, n: int) -> np.ndarray:
    """Every level assignment as an (n**V, V) array of indices in 1..n."""
    total = n ** vertex_count
    grids = np.unravel_index(np.arange(total), (n,) * vertex_count)
    return np.stack(grids, axis=1).astype(np.int64) + 1


def valid_assignment_mask(assignments: np.ndarray, edges) -> np.ndarray:
    """Rows whose indices never jump by more than 1 across any edge."""
    ok = np.ones(len(assignments), dtype=bool)
    for a, b in edges:
        ok &= np.abs(assignments[:, a] - assignments[:, b]) <= 1
    return ok


def oracle_extension_exists(valid_assignments: np.ndarray, verts,
                            indices) -> bool:
    """Is any gradually varied assignment matching the guiding data?

    Decides existence by membership in the pre-enumerated valid set,
    with no reference to distances or the pairwise condition.
    """
    if len(valid_assignments) == 0:
        return False
    mask = np.ones(len(valid_assignments), dtype=bool)
    for v, i in zip(verts, indices):
        mask &= valid_assignments[:, v] == i
    return bool(mask.any())


def oracle_mls(query, xy, vals, degree, weight):
    """Per-query weighted least squares through ``np.linalg.lstsq``.

    Returns (value, rank, basis size) for one query.  Raises ValueError
    on negative weights or zero total weight; infinite weights restrict
    the fit to the dominating sites.
    """
    q = np.asarray(query, dtype=np.float64)
    dist = np.hypot(xy[:, 0] - q[0], xy[:, 1] - q[1])
    w = np.asarray(weight(dist), dtype=np.float64)
    if (w < 0).any():
        raise ValueError("weights must be nonnegative")
    if np.isinf(w).any():
        keep = np.isinf(w)
        xy, vals = xy[keep], vals[keep]
        w = np.ones(keep.sum())
    total = w.sum()
    if not total > 0:
        raise ValueError("zero total weight at query")

    def basis(u):
        cols = [np.ones(len(u))]
        if degree >= 1:
            cols += [u[:, 0], u[:, 1]]
        if degree >= 2:
            cols += [u[:, 0] ** 2, u[:, 0] * u[:, 1], u[:, 1] ** 2]
        return np.stack(cols, axis=1)

    centroid = (w @ xy) / total
    spread = float(np.sqrt((w @ np.square(xy - centroid).sum(axis=1)) / total))
    scale = spread if spread > 0 else 1.0
    a = basis((xy - centroid) / scale) * np.sqrt(w)[:, None]
    coef, _, rank, _ = np.linalg.lstsq(a, vals * np.sqrt(w), rcond=None)
    value = float(basis(((q - centroid) / scale)[None, :])[0] @ coef)
    return value, int(rank), len(coef)


def oracle_shepard(query, xy, vals, power):
    """Scalar inverse-distance weighting with the site/overflow/underflow rules."""
    q = np.asarray(query, dtype=np.float64)
    dist = np.hypot(xy[:, 0] - q[0], xy[:, 1] - q[1])
    hit = dist == 0.0
    if hit.any():
        return float(vals[np.nonzero(hit)[0][0]])
    with np.errstate(over="ignore"):
        w = dist ** -power
    if np.isinf(w).any():
        return float(vals[np.isinf(w)].mean())
    total = w.sum()
    if total == 0.0:
        return float(vals[int(np.argmin(dist))])
    return float((w @ vals) / total)


def oracle_heightmesh_text(z: np.ndarray, width: int, height: int,
                           spacing) -> str:
    """OBJ text of a height mesh, one f-string per vertex and per face."""
    lines = []
    for r in range(height):
        for c in range(width):
            lines.append(f"v {c * spacing!r} {r * spacing!r} {float(z[r, c])!r}")
    for r in range(height - 1):
        for c in range(width - 1):
            v00 = r * width + c + 1
            v10 = v00 + 1
            v01 = v00 + width
            v11 = v01 + 1
            lines.append(f"f {v00} {v10} {v11}")
            lines.append(f"f {v00} {v11} {v01}")
    return "\n".join(lines) + "\n"
