import numpy as np
import pytest
from hypothesis import given, strategies as st

from gradvar import (UNREACHABLE, Domain, GridSpec, bfs_distances, build_graph,
                     build_grid, load_mesh)
from gradvar.domain import _INF, min_offset_sweep

from checks import oracle_grid_transform, python_bfs


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
        with pytest.raises(ValueError) as exc:
            build_graph([(0, 1), (1, 7)], 3)
        assert str(exc.value) == "edge (1, 7) references a vertex id out of range"
        with pytest.raises(ValueError):
            build_graph([(-1, 0)], 3)

    def test_edges_must_be_pairs(self):
        with pytest.raises(ValueError, match="edges must be pairs of vertex ids"):
            Domain(3, [(0, 1, 2)])

    def test_coords_must_be_finite(self):
        # The rule load_mesh applies to OBJ vertices, on every domain.
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="vertex coordinates must be finite"):
                build_graph([(0, 1)], 2, coords=[[0.0, 0.0], [bad, 1.0]])
        with pytest.raises(ValueError, match="vertex coordinates must be finite"):
            build_grid(GridSpec(4, 4, spacing=1e308))

    def test_empty_graph(self):
        d = Domain(4)
        assert d.edge_count == 0
        assert d.degrees[0] == 0

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

    @pytest.mark.parametrize("count, edges, message", [
        (3, [(0.5, 1.7)], "edge vertex ids must be whole numbers"),
        (3, np.array([[0.0, 1.0], [1.0, 2.5]]), "edge vertex ids must be whole"),
        (3, [(0, float("inf"))], "edge vertex ids must be whole"),
        (2.5, [], "vertex_count must be a positive integer"),
        (float("nan"), [], "vertex_count must be a positive integer"),
        (float("inf"), [], "vertex_count must be a positive integer"),
    ])
    def test_ids_and_count_must_be_whole(self, count, edges, message):
        with pytest.raises(ValueError, match=message):
            Domain(count, edges)

    def test_whole_floats_and_huge_ids(self):
        d = build_graph(np.array([[0.0, 1.0], [2.0, 1.0]]), 3.0)
        assert (d.vertex_count, sorted(d.edges())) == (3, [(0, 1), (1, 2)])
        # Past int64: the range check names it, instead of a wrapped id.
        with pytest.raises(ValueError, match="out of range"):
            build_graph([(0, 2 ** 70)], 3)


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
        assert d.degrees[2] == 0 and d.degrees[5] == 0

    @pytest.mark.parametrize("edges", [(), [], np.empty((0, 2), dtype=np.int64)])
    def test_empty_edge_list(self, edges):
        d = Domain(3, edges)
        assert d._offsets.tolist() == [0, 0, 0, 0]
        assert d._dir_src.size == 0 and d._dir_dst.size == 0
        assert list(d.edges()) == []

    def test_only_build_grid_records_its_grid(self, tmp_path):
        g = GridSpec(3, 2, connectivity="eight")
        assert build_grid(g).grid == g
        mesh = tmp_path / "m.obj"
        mesh.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
        for d in (Domain(3, [(0, 1)]), build_graph([(0, 1)], 2), load_mesh(mesh)):
            assert d.grid is None


def grid_edges(w, h, conn):
    """Every edge of a w x h grid, by a plain scan of each vertex's forward steps."""
    steps = [(0, 1), (1, 0)] + ([(1, 1), (1, -1)] if conn == "eight" else [])
    return [(r * w + c, (r + dy) * w + c + dx)
            for r in range(h) for c in range(w) for dy, dx in steps
            if 0 <= r + dy < h and 0 <= c + dx < w]


class TestLazyGrid:
    """A grid's adjacency and coords, built on first read, against a Domain
    built from the grid's edge list."""

    @pytest.mark.parametrize("w,h", [(1, 1), (1, 6), (6, 1), (2, 2), (2, 5),
                                     (7, 3), (5, 9), (16, 16)])
    @pytest.mark.parametrize("conn", ["four", "eight"])
    def test_matches_domain_from_edges(self, w, h, conn):
        spacing = 0.3
        got = build_grid(GridSpec(w, h, conn, spacing))
        want = Domain(w * h, grid_edges(w, h, conn),
                      coords=[[c * spacing, r * spacing]
                              for r in range(h) for c in range(w)])
        for attr in ("_offsets", "_dir_src", "_dir_dst", "coords"):
            a, b = getattr(got, attr), getattr(want, attr)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), attr
            assert a.tobytes() == b.tobytes(), attr
            assert not a.flags.writeable, attr
            assert getattr(got, attr) is a, attr   # built once, then kept
        assert got.edge_count == want.edge_count
        assert got.adjacency_lists() == want.adjacency_lists()
        for v in (0, w * h // 2, w * h - 1):
            assert got.neighbors(v).tolist() == want.neighbors(v).tolist()
        for name in ("edge_pairs", "directed_pairs"):
            for a, b in zip(getattr(got, name)(), getattr(want, name)()):
                assert a.dtype == b.dtype and a.tolist() == b.tolist(), name

    @pytest.mark.parametrize("first", ["coords", "_dir_dst"])
    def test_either_read_first(self, first):
        d = build_grid(GridSpec(3, 2, "eight"))
        getattr(d, first)
        assert d.neighbors(4).tolist() == [0, 1, 2, 3, 5]
        assert d.coords[4].tolist() == [1.0, 1.0]

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError, match="no attribute 'edge_list'"):
            build_grid(GridSpec(2, 2)).edge_list


class TestGridSpec:
    def test_vertex_layout_row_major(self):
        d = build_grid(GridSpec(4, 3))
        c = d.coords
        assert c[0].tolist() == [0.0, 0.0]
        assert c[6].tolist() == [2.0, 1.0]
        assert c[:4, 1].tolist() == [0.0] * 4
        assert d.vertex_count == 12

    def test_coords_scale_with_spacing(self):
        c = build_grid(GridSpec(3, 2, spacing=0.5)).coords
        assert c[1 * 3 + 2].tolist() == [1.0, 0.5]

    @pytest.mark.parametrize("kwargs", [
        dict(width=0, height=3), dict(width=3, height=0),
        dict(width=3, height=3, connectivity="six"),
        dict(width=3, height=3, spacing=0.0),
        dict(width=3, height=3, spacing=float("inf")),
        dict(width=3, height=3, spacing=float("nan")),
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
        d = build_grid(GridSpec(3, 3))
        assert d.neighbors(0).tolist() == [1, 3]
        assert sorted(d.neighbors(4).tolist()) == [1, 3, 5, 7]
        d8 = build_grid(GridSpec(3, 3, connectivity="eight"))
        assert len(d8.neighbors(4)) == 8
        assert len(d8.neighbors(0)) == 3

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
        dist = bfs_distances(d, [0])
        assert dist.tolist() == [0, 1, 2, 3, 4, 5]

    def test_multi_source_takes_min(self):
        d = path_domain(6)
        dist = bfs_distances(d, [0, 5])
        assert dist.tolist() == [0, 1, 2, 2, 1, 0]

    def test_unreachable_marker(self):
        d = build_graph([(0, 1)], 4)
        dist = bfs_distances(d, [0])
        assert dist[1] == 1
        assert dist[2] == UNREACHABLE and dist[3] == UNREACHABLE
        assert (dist != UNREACHABLE).tolist() == [True, True, False, False]

    def test_empty_sources_rejected(self):
        with pytest.raises(ValueError):
            bfs_distances(path_domain(3), [])

    @pytest.mark.parametrize("sources", [[0.9], np.array([2.0, 0.5]), [float("nan")]])
    def test_sources_must_be_whole_numbers(self, sources):
        with pytest.raises(ValueError, match="source vertex ids must be whole numbers"):
            bfs_distances(path_domain(3), sources)

    @pytest.mark.parametrize("sources", [{0, 2}, (2.0, 0.0), np.array([0, 2], np.int32)])
    def test_any_iterable_of_whole_sources(self, sources):
        assert bfs_distances(path_domain(3), sources).tolist() == [0, 1, 0]

    def test_grid_distance_is_manhattan_on_four_connected(self):
        g = GridSpec(7, 5)
        d = build_grid(g)
        dist = bfs_distances(d, [2 * 7 + 3])
        for v in range(d.vertex_count):
            r, c = divmod(v, 7)
            assert dist[v] == abs(r - 2) + abs(c - 3)

    @given(st.data())
    def test_matches_pure_python_bfs(self, data):
        n = data.draw(st.integers(2, 12), label="n")
        edges = data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            .filter(lambda e: e[0] != e[1]), max_size=20), label="edges")
        sources = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                     max_size=3, unique=True), label="sources")
        d = build_graph(edges, n)
        got = bfs_distances(d, sources).tolist()
        want = python_bfs(d.adjacency_lists(), sorted(set(sources)))
        assert got == want

    @given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 1000))
    def test_distance_is_one_lipschitz_across_edges(self, w, h, pick):
        d = build_grid(GridSpec(w, h))
        dist = bfs_distances(d, [pick % d.vertex_count])
        for a, b in d.edges():
            assert abs(dist[a] - dist[b]) <= 1


def seed_case(kind, w, h):
    """(seed vertices, seed values) of a named layout on a w x h grid."""
    last, mid = w * h - 1, (h // 2) * w + w // 2
    if kind == "corners":
        return [0, w - 1, last - w + 1, last], [3, -2, 0, 5]
    if kind == "edges":   # the middle of each side
        return [w // 2, (h // 2) * w, (h // 2) * w + w - 1, last - w // 2], [4, 1, 6, 2]
    if kind == "duplicates":
        return [mid, mid, 0, mid], [4, 1, 9, 7]
    if kind == "single":
        return [mid], [7]
    if kind == "negative":
        return [0, mid, last], [-40, -3, -17]
    # At the sweep sentinel and past it, and just below it, as its neighbors reach it.
    return [0, mid, last], [_INF, _INF + 3, _INF - 2]


class TestGridTransform:
    """On a grid, min_offset_sweep is a closed-form distance transform; it must
    equal a brute-force minimum over seeds and the level sweep on the same
    graph given as an edge list."""

    @pytest.mark.parametrize("w,h", [(1, 1), (1, 7), (7, 1), (2, 2), (5, 3),
                                     (3, 8), (9, 9), (16, 5)])
    @pytest.mark.parametrize("conn", ["four", "eight"])
    @pytest.mark.parametrize("kind", ["corners", "edges", "duplicates", "single",
                                      "negative", "sentinel"])
    def test_matches_oracle_and_sweep(self, w, h, conn, kind):
        seeds, values = seed_case(kind, w, h)
        seeds = np.array(seeds, dtype=np.int64)
        values = np.array(values, dtype=np.int64)
        grid = build_grid(GridSpec(w, h, conn))
        graph = Domain(w * h, grid_edges(w, h, conn))
        assert graph.grid is None
        got = min_offset_sweep(grid, seeds, values)
        assert got.dtype == np.int64 and got.shape == (w * h,)
        want = [min(v, _INF) for v in oracle_grid_transform(w, h, conn, seeds, values)]
        assert got.tolist() == want
        assert min_offset_sweep(graph, seeds, values).tolist() == want

    @pytest.mark.parametrize("conn", ["four", "eight"])
    def test_random_seeds_match_sweep(self, conn):
        rng = np.random.default_rng(len(conn))
        for _ in range(40):
            w, h = (int(x) for x in rng.integers(1, 24, size=2))
            k = int(rng.integers(1, min(w * h, 30) + 1))
            seeds = rng.integers(0, w * h, size=k)
            values = rng.integers(-40, 40, size=k)
            graph = Domain(w * h, grid_edges(w, h, conn))
            got = min_offset_sweep(build_grid(GridSpec(w, h, conn)), seeds, values)
            assert got.tolist() == min_offset_sweep(graph, seeds, values).tolist()
            assert got.tolist() == oracle_grid_transform(w, h, conn, seeds, values)


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
        ("v 0 0 0\nv 1 0 0\nv 1 1 0\nf 1 1 2\n", "line 4: face repeats a corner"),
        ("v 0 0 0\nv 1 0 0\nv 1 1 0\nf 1 2 3 1\n", "line 4: face repeats a corner"),
        ("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 1 4\n",
         "line 5: face repeats a corner"),
        ("v 0 0 0\nv 1 0 0\nv 1 1 0\nf 1 2 99999999999999999999\n",
         "line 4: face index out of range"),
        # Past the float range as well as int64.
        pytest.param("v 0 0 0\nv 1 0 0\nv 1 1 0\nf 1 2 1" + "0" * 400 + "\n",
                     "line 4: face index out of range", id="face-index-401-digits"),
    ])
    def test_malformed(self, tmp_path, body, match):
        p = tmp_path / "bad.obj"
        p.write_text(body)
        with pytest.raises(ValueError, match=match):
            load_mesh(p)


    @pytest.mark.parametrize("body,line", [
        ("v 0 0 0\nv nan 0 0\nv 1 1 0\nf 1 2 3\n", 2),
        ("v 0 0 0\nv 1e400 0 0\nv 1 1 0\nf 1 2 3\n", 2),
        ("v 0 0 0\nv 1 0 0\nv 1 1 -inf\nf 1 2 3\n", 3),
        ("# c\nv 0 0 0\nvn 0 0 1\n\nv 1 -1E999 0 # x\nv 1 1 0\nf 1 2 3\n", 5),
    ], ids=["nan", "past-float", "z", "behind-comments"])
    def test_non_finite_coordinate_names_line(self, tmp_path, body, line):
        p = tmp_path / "m.obj"
        p.write_text(body)
        with pytest.raises(ValueError) as exc:
            load_mesh(p)
        assert str(exc.value) == f"{p}: line {line}: non-finite vertex coordinate"

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
