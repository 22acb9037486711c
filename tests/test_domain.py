import numpy as np
import pytest
from hypothesis import given, strategies as st

from gradvar import (UNREACHABLE, Domain, GridSpec, bfs_distances, build_graph,
                     build_grid, load_mesh)

from checks import python_bfs


def path_domain(n):
    return build_graph([(i, i + 1) for i in range(n - 1)], n)


class TestDomain:
    def test_symmetrize_and_dedup(self):
        d = build_graph([(0, 1), (1, 0), (1, 2), (1, 2)], 3)
        assert d.edge_count == 2
        assert d.neighbors(1).tolist() == [0, 2]

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            build_graph([(2, 2)], 3)

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            build_graph([(0, 3)], 3)
        with pytest.raises(ValueError):
            build_graph([(-1, 0)], 3)

    def test_empty_graph(self):
        d = Domain(4)
        assert d.edge_count == 0
        assert d.degree(0) == 0

    def test_edges_iterates_each_once(self):
        d = build_graph([(0, 1), (1, 2), (0, 2)], 3)
        assert sorted(d.edges()) == [(0, 1), (0, 2), (1, 2)]

    def test_degrees(self):
        d = path_domain(4)
        assert d.degrees.tolist() == [1, 2, 2, 1]

    def test_arrays_read_only(self):
        d = build_grid(GridSpec(3, 3))
        with pytest.raises(ValueError):
            d.neighbors(0)[0] = 7
        with pytest.raises(ValueError):
            d.coords[0, 0] = 1.0

    def test_coords_shape_validated(self):
        with pytest.raises(ValueError, match="coords"):
            Domain(3, [(0, 1)], coords=[[0.0, 0.0]])


def expected_layout(n, edges):
    """Offsets, sources and targets from a plain sorted set of both orientations."""
    pairs = sorted({(a, b) for a, b in edges} | {(b, a) for a, b in edges})
    offsets = [0] * (n + 1)
    for a, _ in pairs:
        offsets[a + 1] += 1
    for v in range(n):
        offsets[v + 1] += offsets[v]
    return offsets, [a for a, _ in pairs], [b for _, b in pairs]


@st.composite
def edge_lists(draw):
    """Random simple-graph edges listed with duplicates and reversals."""
    n = draw(st.integers(1, 12))
    if n == 1:
        return n, []
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1])
    edges = draw(st.lists(pairs, max_size=30))
    repeats = draw(st.lists(st.sampled_from(edges), max_size=10)) if edges else []
    return n, edges + [(b, a) for a, b in repeats] + repeats


class TestDomainLayout:
    @given(edge_lists())
    def test_matches_sorted_set_of_both_orientations(self, case):
        n, edges = case
        d = Domain(n, edges)
        offsets, src, dst = expected_layout(n, edges)
        assert d._offsets.tolist() == offsets
        assert d._dir_src.tolist() == src
        assert d._dir_dst.tolist() == dst
        for arr in (d._offsets, d._dir_src, d._dir_dst):
            assert arr.dtype == np.int64
            with pytest.raises(ValueError):
                arr[...] = 0

    def test_duplicates_reversals_and_isolated_vertices(self):
        d = Domain(6, [(3, 1), (1, 3), (1, 3), (0, 1), (4, 1)])
        assert d._offsets.tolist() == [0, 1, 4, 4, 5, 6, 6]
        assert d._dir_src.tolist() == [0, 1, 1, 1, 3, 4]
        assert d._dir_dst.tolist() == [1, 0, 3, 4, 1, 1]
        assert d.degree(2) == 0 and d.degree(5) == 0

    @pytest.mark.parametrize("edges", [(), [], np.empty((0, 2), dtype=np.int64)])
    def test_empty_edge_list(self, edges):
        d = Domain(3, edges)
        assert d._offsets.tolist() == [0, 0, 0, 0]
        assert d._dir_src.size == 0 and d._dir_dst.size == 0
        assert list(d.edges()) == []

    def test_only_build_grid_records_its_grid(self, tmp_path):
        g = GridSpec(3, 2, connectivity="eight")
        assert build_grid(g)._grid == g
        mesh = tmp_path / "m.obj"
        mesh.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
        for d in (Domain(3, [(0, 1)]), build_graph([(0, 1)], 2), load_mesh(mesh)):
            assert d._grid is None


class TestGridSpec:
    def test_vertex_layout_row_major(self):
        g = GridSpec(4, 3)
        assert g.vertex(0, 0) == 0
        assert g.vertex(1, 2) == 6
        assert g.row_col(6) == (1, 2)
        assert g.vertex_count == 12

    def test_coords_scale_with_spacing(self):
        g = GridSpec(3, 2, spacing=0.5)
        c = g.coords_array()
        assert c[g.vertex(1, 2)].tolist() == [1.0, 0.5]

    @pytest.mark.parametrize("kwargs", [
        dict(width=0, height=3), dict(width=3, height=0),
        dict(width=3, height=3, connectivity="six"),
        dict(width=3, height=3, spacing=0.0),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            GridSpec(**kwargs)


class TestBuildGrid:
    def test_four_connected_counts(self):
        d = build_grid(GridSpec(5, 4))
        # horizontal (w-1)*h + vertical w*(h-1)
        assert d.edge_count == 4 * 4 + 5 * 3

    def test_eight_connected_counts(self):
        d = build_grid(GridSpec(5, 4, connectivity="eight"))
        assert d.edge_count == 4 * 4 + 5 * 3 + 2 * 4 * 3

    def test_neighborhoods(self):
        g = GridSpec(3, 3)
        d = build_grid(g)
        assert d.neighbors(g.vertex(0, 0)).tolist() == [1, 3]
        assert sorted(d.neighbors(g.vertex(1, 1)).tolist()) == [1, 3, 5, 7]
        d8 = build_grid(GridSpec(3, 3, connectivity="eight"))
        assert len(d8.neighbors(g.vertex(1, 1))) == 8
        assert len(d8.neighbors(g.vertex(0, 0))) == 3

    def test_single_vertex_grid(self):
        d = build_grid(GridSpec(1, 1))
        assert d.vertex_count == 1
        assert d.edge_count == 0

    def test_coords_attached(self):
        d = build_grid(GridSpec(2, 2, spacing=2.0))
        assert d.coords[3].tolist() == [2.0, 2.0]


class TestBfs:
    def test_single_source_path(self):
        d = path_domain(6)
        f = bfs_distances(d, [0])
        assert f.dist.tolist() == [0, 1, 2, 3, 4, 5]

    def test_multi_source_takes_min(self):
        d = path_domain(6)
        f = bfs_distances(d, [0, 5])
        assert f.dist.tolist() == [0, 1, 2, 2, 1, 0]

    def test_unreachable_marker(self):
        d = build_graph([(0, 1)], 4)
        f = bfs_distances(d, [0])
        assert f.dist[1] == 1
        assert f.dist[2] == UNREACHABLE and f.dist[3] == UNREACHABLE
        assert f.reachable.tolist() == [True, True, False, False]

    def test_empty_sources_rejected(self):
        with pytest.raises(ValueError):
            bfs_distances(path_domain(3), [])

    def test_grid_distance_is_manhattan_on_four_connected(self):
        g = GridSpec(7, 5)
        d = build_grid(g)
        f = bfs_distances(d, [g.vertex(2, 3)])
        for v in range(d.vertex_count):
            r, c = g.row_col(v)
            assert f.dist[v] == abs(r - 2) + abs(c - 3)

    @given(st.data())
    def test_matches_pure_python_bfs(self, data):
        n = data.draw(st.integers(2, 12), label="n")
        edges = data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            .filter(lambda e: e[0] != e[1]), max_size=20), label="edges")
        sources = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                     max_size=3, unique=True), label="sources")
        d = build_graph(edges, n)
        got = bfs_distances(d, sources).dist.tolist()
        want = python_bfs(d.adjacency_lists(), sorted(set(sources)))
        assert got == want

    @given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 1000))
    def test_distance_is_one_lipschitz_across_edges(self, w, h, pick):
        d = build_grid(GridSpec(w, h))
        f = bfs_distances(d, [pick % d.vertex_count])
        for a, b in d.edges():
            assert abs(f.dist[a] - f.dist[b]) <= 1


class TestLoadMesh:
    def test_minimal_obj(self, tmp_path):
        p = tmp_path / "m.obj"
        p.write_text(
            "# header comment\n"
            "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0.5\n"
            "vn 0 0 1\n"          # ignored record
            "f 1 2 3\n"
            "f 1/1 3/2 4/3\n"     # slash syntax
        )
        d = load_mesh(p)
        assert d.vertex_count == 4
        assert sorted(d.edges()) == [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]
        assert d.coords[3].tolist() == [0.0, 1.0]

    def test_quad_face(self, tmp_path):
        p = tmp_path / "q.obj"
        p.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
        d = load_mesh(p)
        assert sorted(d.edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]

    @pytest.mark.parametrize("body,match", [
        ("v 0 0\nf 1 1 1\n", "line 1"),
        ("v 0 0 0\nv 1 0 0\nv 1 1 0\nf 1 2 9\n", "line 4"),
        ("v 0 0 0\nf 1 2\n", "line 2"),
        ("v a b c\n", "line 1"),
        ("f 1 2 3\n", "no vertices"),
    ])
    def test_malformed(self, tmp_path, body, match):
        p = tmp_path / "bad.obj"
        p.write_text(body)
        with pytest.raises(ValueError, match=match):
            load_mesh(p)


    def test_mixed_faces_match_tuple_edge_list(self, tmp_path):
        # The parent layout: one (a, b) tuple per face side, in file order.
        rng = np.random.default_rng(5)
        n = 40
        faces = [list(rng.choice(n, size=int(rng.integers(3, 5)), replace=False) + 1)
                 for _ in range(60)]
        p = tmp_path / "mixed.obj"
        p.write_text("".join(f"v {i} {i * i % 7} 0\n" for i in range(n))
                     + "".join("f " + " ".join(f"{i}/{i}" for i in f) + "\n"
                               for f in faces))
        edges = [(a - 1, b - 1) for f in faces for a, b in zip(f, f[1:] + f[:1])]
        want = Domain(n, edges)
        got = load_mesh(p)
        assert {len(f) for f in faces} == {3, 4}
        for attr in ("_offsets", "_dir_src", "_dir_dst"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr)), attr

    def test_out_of_range_names_first_bad_face(self, tmp_path):
        p = tmp_path / "bad.obj"
        p.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\n"
                     "f 1 2 3\nf 1 2 3 0\nf 9 2 3\n")
        with pytest.raises(ValueError, match="line 6: face index out of range"):
            load_mesh(p)
