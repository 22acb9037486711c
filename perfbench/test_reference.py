"""Tests of the benchmark's reference computations against brute force.

Run with ``python3 -m pytest perfbench/test_reference.py -q``.  Everything
is checked on tiny graphs with hand-rolled loops: queue BFS, enumeration of
every level assignment, dense solves and per-point fits.
"""

import os
import sys
from collections import deque
from itertools import product

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference as ref  # noqa: E402


def adjacency(n, edges):
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[int(a)].append(int(b))
        adj[int(b)].append(int(a))
    return adj


def queue_bfs(adj, source):
    dist = [-1] * len(adj)
    dist[source] = 0
    q = deque([source])
    while q:
        v = q.popleft()
        for w in adj[v]:
            if dist[w] == -1:
                dist[w] = dist[v] + 1
                q.append(w)
    return dist


def valid_assignments(n_vertices, edges, levels):
    """Every assignment in 1..levels whose indices step by at most 1 per edge."""
    rows = [a for a in product(range(1, levels + 1), repeat=n_vertices)
            if all(abs(a[x] - a[y]) <= 1 for x, y in edges)]
    return np.array(rows, dtype=np.int64).reshape(-1, n_vertices)


TINY_GRIDS = [(3, 2, False), (3, 3, False), (4, 3, True), (3, 3, True)]
PATH5 = (5, np.array([[0, 1], [1, 2], [2, 3], [3, 4]]))
CYCLE5 = (5, np.array([[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]]))


@pytest.mark.parametrize("width,height,eight", TINY_GRIDS)
def test_grid_closed_form_matches_queue_bfs(width, height, eight):
    n = width * height
    edges = ref.grid_edges(width, height, eight)
    adj = adjacency(n, edges)
    got = ref.grid_distances(width, eight, np.arange(n), np.arange(n))
    want = np.array([queue_bfs(adj, s) for s in range(n)])
    assert np.array_equal(got, want)


def test_grid_edges_count():
    assert len(ref.grid_edges(4, 3, False)) == 3 * 3 + 4 * 2
    assert len(ref.grid_edges(4, 3, True)) == 3 * 3 + 4 * 2 + 2 * 3 * 2


def test_mesh_bfs_matches_queue_bfs():
    # Two quads split on opposite diagonals, plus an isolated triangle.
    faces = [[0, 1, 4], [0, 4, 3], [1, 2, 4], [2, 5, 4], [6, 7, 8]]
    edges = ref.face_edges(faces)
    assert len(edges) == len({tuple(e) for e in edges.tolist()}) == 12
    n = 9
    table = ref.neighbor_table(n, edges)
    adj = adjacency(n, edges)
    for v in range(n):
        assert sorted(x for x in table[v] if x >= 0) == sorted(adj[v])
    got = ref.bfs_rows(table, range(n))
    assert np.array_equal(got, np.array([queue_bfs(adj, s) for s in range(n)]))
    assert got[0, 7] == ref.UNREACHABLE


def test_quantize_is_nearest_level_ties_down():
    rng = np.random.default_rng(0)
    for _ in range(200):
        values = rng.uniform(-2, 2, size=6)
        delta = rng.uniform(0.1, 1.0)
        levels = values.min() + delta * np.arange(ref.level_count(values, delta))
        got = ref.quantize(values, delta)
        for v, i in zip(values, got):
            dist = np.abs(levels - v)
            assert i == 1 + int(np.flatnonzero(dist == dist.min())[0])
    # An exact half step rounds toward the lower index.
    assert list(ref.quantize([0.0, 0.5, 1.0], 1.0)) == [1, 1, 2]


def test_lipschitz_spacing_is_max_pair_slope():
    n, edges = PATH5
    adj = adjacency(n, edges)
    dist = np.array([queue_bfs(adj, s) for s in range(n)])
    rng = np.random.default_rng(1)
    for _ in range(50):
        verts = np.sort(rng.choice(n, size=3, replace=False))
        vals = rng.uniform(-1, 1, size=3)
        want = max(abs(vals[a] - vals[b]) / dist[verts[a], verts[b]]
                   for a in range(3) for b in range(a + 1, 3))
        got = ref.lipschitz_spacing(vals, dist[np.ix_(verts, verts)])
        assert got == want
        _, _, viol = ref.pairwise_violations(ref.quantize(vals, got),
                                             dist[np.ix_(verts, verts)])
        assert viol.max() <= 0


@pytest.mark.parametrize("graph", [PATH5, CYCLE5, (6, ref.grid_edges(3, 2, False))])
def test_pairwise_test_and_envelopes_match_enumeration(graph):
    n, edges = graph
    levels = 3
    valid = valid_assignments(n, edges.tolist(), levels)
    adj = adjacency(n, edges)
    dist = np.array([queue_bfs(adj, s) for s in range(n)])
    rng = np.random.default_rng(2)
    for _ in range(60):
        verts = np.sort(rng.choice(n, size=2 + rng.integers(2), replace=False))
        idx = rng.integers(1, levels + 1, size=len(verts))
        match = valid[(valid[:, verts] == idx).all(axis=1)]
        _, _, viol = ref.pairwise_violations(idx, dist[np.ix_(verts, verts)])
        assert (viol.max() <= 0) == (len(match) > 0)
        if len(match):
            lo, hi = ref.envelopes(idx, dist[verts], levels)
            assert np.array_equal(lo, match.min(axis=0))
            assert np.array_equal(hi, match.max(axis=0))


def test_gvf_field_is_gradually_varied_and_interpolates():
    width = 5
    edges = ref.grid_edges(width, width, False)
    verts = np.array([0, 7, 13, 24])
    vals = np.array([0.3, -0.4, 1.1, 0.2])
    rows = ref.grid_distances(width, False, verts, np.arange(width * width))
    values, delta, idx = ref.gvf_field(vals, rows, rows[:, verts])
    assert (np.abs(idx[edges[:, 0]] - idx[edges[:, 1]]) <= 1).all()
    assert np.array_equal(idx[verts], ref.quantize(vals, delta))
    assert (np.abs(values[verts] - vals) <= delta).all()


def test_dirichlet_harmonic_is_harmonic_and_keeps_fixed_values():
    n, edges = 6, ref.grid_edges(3, 2, False)
    adj = adjacency(n, edges)
    fixed, fixed_values = np.array([0, 5]), np.array([1.0, -2.0])
    got = ref.dirichlet_harmonic(n, edges, fixed, fixed_values)
    assert np.array_equal(got[fixed], fixed_values)
    for v in set(range(n)) - set(fixed.tolist()):
        assert got[v] == pytest.approx(np.mean([got[w] for w in adj[v]]), abs=1e-12)


def test_grid_gradient_matches_numpy_gradient():
    z = np.random.default_rng(3).random((4, 6))
    gx, gy = ref.grid_gradient(z, 1.0)
    want_y, want_x = np.gradient(z, 1.0)
    assert np.allclose(gx, want_x, atol=1e-15) and np.allclose(gy, want_y, atol=1e-15)


def test_taylor_blend_matches_neighbor_loop():
    width = 4
    n = width * 3
    edges = ref.grid_edges(width, 3, False)
    adj = adjacency(n, edges)
    xy = np.stack([np.arange(n) % width, np.arange(n) // width], axis=1).astype(float)
    rng = np.random.default_rng(4)
    values, gx, gy = rng.random(n), rng.random(n), rng.random(n)
    pins, pin_vals = np.array([1, 10]), np.array([0.5, -0.5])
    want = values.copy()
    for _ in range(3):
        new = np.array([np.mean([want[q] + gx[q] * (xy[p, 0] - xy[q, 0])
                                 + gy[q] * (xy[p, 1] - xy[q, 1]) for q in adj[p]])
                        for p in range(n)])
        new[pins] = pin_vals
        want = new
    got = ref.taylor_blend(ref.neighbor_table(n, edges), xy, values, gx, gy, pins,
                           pin_vals, 3)
    assert np.allclose(got, want, atol=1e-14)


def test_shepard_matches_pointwise_loop():
    rng = np.random.default_rng(5)
    xy = rng.uniform(0, 5, size=(7, 2))
    vals = rng.uniform(-1, 1, size=7)
    queries = np.vstack([rng.uniform(0, 5, size=(20, 2)), xy[3:4]])
    got = ref.shepard(queries, xy, vals, 2.0)
    for q, g in zip(queries, got):
        d = np.hypot(*(xy - q).T)
        want = vals[d == 0][0] if (d == 0).any() else (d ** -2.0) @ vals / (d ** -2.0).sum()
        assert g == pytest.approx(want, abs=1e-14)


def test_weighted_least_squares_matches_lstsq_and_reproduces_polynomials():
    rng = np.random.default_rng(6)
    xy = rng.uniform(0, 10, size=(12, 2))
    queries = rng.uniform(0, 10, size=(9, 2))
    quad = 1 + 0.5 * xy[:, 0] - xy[:, 1] + 0.1 * xy[:, 0] * xy[:, 1] - 0.2 * xy[:, 1] ** 2
    got, full = ref.weighted_least_squares(queries, xy, quad, 2, 4.0)
    want = (1 + 0.5 * queries[:, 0] - queries[:, 1] + 0.1 * queries[:, 0] * queries[:, 1]
            - 0.2 * queries[:, 1] ** 2)
    assert full.all() and np.allclose(got, want, atol=1e-9)
    vals = rng.uniform(-1, 1, size=12)
    got, _ = ref.weighted_least_squares(queries, xy, vals, 1, 4.0)
    for q, g in zip(queries, got):
        w = np.sqrt(np.exp(-np.sum((xy - q) ** 2, axis=1) / 16.0))
        a = np.column_stack([np.ones(12), xy]) * w[:, None]
        coef = np.linalg.lstsq(a, vals * w, rcond=None)[0]
        assert g == pytest.approx(coef @ [1, q[0], q[1]], abs=1e-10)


def test_weighted_least_squares_on_one_row_fits_along_x():
    xs = np.array([0.0, 1.5, 3.0, 4.0, 6.5, 8.0])
    xy = np.column_stack([xs, np.full(6, 2.0)])
    vals = np.sin(xs)
    queries = np.array([[1.0, 0.0], [5.0, 2.0], [7.0, 6.0]])
    got, full = ref.weighted_least_squares(queries, xy, vals, 2, 3.0)
    assert not full.any()
    for q, g in zip(queries, got):
        w = np.exp(-np.sum((xy - q) ** 2, axis=1) / 9.0)
        coef = np.polyfit(xs, vals, 2, w=np.sqrt(w))
        assert g == pytest.approx(np.polyval(coef, q[0]), abs=1e-10)


def test_parsers():
    pix, comments = ref.parse_pgm16(b"P5\n# range 0.5 2.0\n2 1\n65535\n\x00\x01\xff\xff")
    assert comments == ["range 0.5 2.0"] and pix.tolist() == [[1, 65535]]
    rgb = ref.parse_ppm(b"P6 1 2 255\n\x01\x02\x03\x04\x05\x06")
    assert rgb.shape == (2, 1, 3) and rgb[1, 0].tolist() == [4, 5, 6]
    verts, faces = ref.parse_obj("# mesh\nv 0 0 1.5\nv 1 0 0\nv 0 1 0\nf 1 2/5 3\n")
    assert verts[0].tolist() == [0, 0, 1.5] and faces == [[0, 1, 2]]
    header, rows = ref.parse_csv("vertex,value\n0,1.5\n\n1,-2\n")
    assert header == ["vertex", "value"] and rows.tolist() == [[0, 1.5], [1, -2]]
    with pytest.raises(ValueError):
        ref.parse_ppm(b"P5 1 1 255\n\x00")
