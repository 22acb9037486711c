import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gradvar import (Domain, GridSpec, LevelField, LevelTable, SamplePoints,
                     ScalarField, build_graph, build_grid, fit_gvf, load_mesh,
                     read_edge_list, read_field_csv, read_samples_csv,
                     render_heatmap, render_heightmesh, render_pgm16,
                     sample_coords, snap_to_vertices, write_level_csv,
                     to_scalar, write_metrics_json, write_scalar_csv)
from gradvar.domain import _mesh_bulk
from gradvar.fileio import _distinct_cells, _field_bulk, atomic_write_text

from checks import load_perfbench, oracle_heightmesh_text

# The benchmark's own PNM parsers, which share no code with gradvar.
REFERENCE = load_perfbench("reference")


def field_on(grid, values):
    return ScalarField(domain=build_grid(grid), values=values)


def read_ppm(path):
    return REFERENCE.parse_ppm(path.read_bytes())


def read_pgm16(path):
    """Pixels mapped back to values through the `# range lo hi` comment,
    and that (lo, hi) pair."""
    pix, comments = REFERENCE.parse_pgm16(path.read_bytes())
    (lo, hi), = [tuple(map(float, c.split()[1:])) for c in comments
                 if c.startswith("range ")]
    return lo + pix / 65535 * (hi - lo), (lo, hi)


class TestHeatmap:
    def test_two_pixel_extremes(self, tmp_path):
        grid = GridSpec(2, 1)
        p = tmp_path / "a.ppm"
        render_heatmap(field_on(grid, [0.0, 1.0]), p)
        data = p.read_bytes()
        assert data == b"P6\n2 1\n255\n" + bytes([0, 0, 255, 255, 0, 0])

    def test_midpoint_is_purple(self, tmp_path):
        grid = GridSpec(3, 1)
        p = tmp_path / "a.ppm"
        render_heatmap(field_on(grid, [0.0, 0.5, 1.0]), p)
        rgb = read_ppm(p)
        assert rgb[0, 1].tolist() == [128, 0, 128]

    def test_constant_field_mid_gray(self, tmp_path):
        grid = GridSpec(3, 2)
        p = tmp_path / "a.ppm"
        render_heatmap(field_on(grid, np.full(6, 4.25)), p)
        assert (read_ppm(p) == 128).all()

    def test_row_major_layout(self, tmp_path):
        grid = GridSpec(2, 2)
        p = tmp_path / "a.ppm"
        render_heatmap(field_on(grid, [0.0, 0.0, 0.0, 1.0]), p)
        rgb = read_ppm(p)
        assert rgb[1, 1].tolist() == [255, 0, 0]
        assert rgb[0, 0].tolist() == [0, 0, 255]

    def test_field_grid_mismatch(self, tmp_path):
        # A 32-vertex path has as many vertices as an 8x4 grid, but no layout.
        for d in (build_graph([(0, 1)], 2),
                  build_graph([(i, i + 1) for i in range(31)], 32)):
            f = ScalarField(domain=d, values=np.arange(float(d.vertex_count)))
            for render in (render_heatmap, render_pgm16, render_heightmesh):
                with pytest.raises(ValueError,
                                   match="rendering needs a grid domain"):
                    render(f, tmp_path / "a.out")
        assert not list(tmp_path.iterdir())

    def test_deterministic_bytes(self, tmp_path):
        grid = GridSpec(5, 4)
        rng = np.random.default_rng(3)
        f = field_on(grid, rng.uniform(-2, 2, 20))
        render_heatmap(f, tmp_path / "a.ppm")
        render_heatmap(f, tmp_path / "b.ppm")
        assert (tmp_path / "a.ppm").read_bytes() == (tmp_path / "b.ppm").read_bytes()


class TestPgm16:
    def test_round_trip_within_quantum(self, tmp_path):
        grid = GridSpec(8, 5)
        rng = np.random.default_rng(11)
        vals = rng.uniform(-3.7, 9.2, 40)
        p = tmp_path / "h.pgm"
        render_pgm16(field_on(grid, vals), p)
        back, (lo, hi) = read_pgm16(p)
        assert lo == vals.min() and hi == vals.max()
        quantum = (hi - lo) / 65535
        assert np.abs(back.ravel() - vals).max() <= quantum / 2 + 1e-12

    def test_constant_round_trips_exactly(self, tmp_path):
        grid = GridSpec(3, 3)
        p = tmp_path / "h.pgm"
        render_pgm16(field_on(grid, np.full(9, -1.5)), p)
        back, rng_ = read_pgm16(p)
        assert (back == -1.5).all() and rng_ == (-1.5, -1.5)

    def test_big_endian_sixteen_bit(self, tmp_path):
        grid = GridSpec(2, 1)
        p = tmp_path / "h.pgm"
        render_pgm16(field_on(grid, [0.0, 1.0]), p)
        data = p.read_bytes()
        assert b"65535" in data
        assert data.endswith(bytes([0, 0, 255, 255]))


class TestHeightmesh:
    def test_two_by_two_layout(self, tmp_path):
        grid = GridSpec(2, 2)
        p = tmp_path / "m.obj"
        render_heightmesh(field_on(grid, [0.0, 1.0, 2.0, 3.0]), p)
        lines = p.read_text().splitlines()
        assert lines[:4] == ["v 0.0 0.0 0.0", "v 1.0 0.0 1.0",
                             "v 0.0 1.0 2.0", "v 1.0 1.0 3.0"]
        assert lines[4:] == ["f 1 2 4", "f 1 4 3"]

    def test_counts_follow_grid_size(self, tmp_path):
        grid = GridSpec(4, 3)
        p = tmp_path / "m.obj"
        render_heightmesh(field_on(grid, np.arange(12.0)), p)
        lines = p.read_text().splitlines()
        assert sum(ln.startswith("v ") for ln in lines) == 12
        assert sum(ln.startswith("f ") for ln in lines) == 2 * 3 * 2

    def test_output_loads_as_mesh_domain(self, tmp_path):
        grid = GridSpec(3, 2, spacing=0.5)
        p = tmp_path / "m.obj"
        render_heightmesh(field_on(grid, np.arange(6.0)), p)
        d = load_mesh(p)
        assert isinstance(d, Domain)
        assert d.vertex_count == 6
        # grid edges plus one diagonal per cell
        assert d.edge_count == 7 + 2
        assert d.coords[4].tolist() == [0.5, 0.5]


    @pytest.mark.parametrize("width,height,spacing", [
        (5, 4, 0.3), (7, 6, 2), (1, 6, 1.0), (6, 1, 0.25), (1, 1, 1.5)])
    def test_bytes_match_per_element_loop(self, tmp_path, width, height,
                                          spacing):
        grid = GridSpec(width, height, spacing=spacing)
        values = np.random.default_rng(width * height).normal(
            0, 1e3, size=width * height) / 7
        values[0] = -0.0
        p = tmp_path / "m.obj"
        render_heightmesh(field_on(grid, values), p)
        want = tmp_path / "want.obj"
        atomic_write_text(want, oracle_heightmesh_text(
            values.reshape(height, width), width, height, spacing))
        assert p.read_bytes() == want.read_bytes()

    def _assert_oracle_bytes(self, tmp_path, grid, values):
        p, want = tmp_path / "m.obj", tmp_path / "want.obj"
        render_heightmesh(field_on(grid, values), p)
        atomic_write_text(want, oracle_heightmesh_text(
            np.asarray(values).reshape(grid.height, grid.width),
            grid.width, grid.height, grid.spacing))
        assert p.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("grid", [
        GridSpec(24, 17), GridSpec(24, 17, "eight", spacing=0.5),
        GridSpec(1, 120), GridSpec(120, 1, spacing=0.5)], ids=str)
    def test_gvf_level_fields_match_per_vertex_loop(self, tmp_path, grid):
        d = build_grid(grid)
        rng = np.random.default_rng(grid.width * grid.height)
        verts = rng.choice(d.vertex_count, size=5, replace=False)
        fit = fit_gvf(d, {int(v): float(rng.uniform(-3, 3)) for v in verts})
        values = to_scalar(fit.field).values
        assert 4 * len(np.unique(values)) <= len(values)
        self._assert_oracle_bytes(tmp_path, grid, values)

    def test_signed_zero_levels_keep_their_own_repr(self, tmp_path):
        # 0.0 and -0.0 compare equal but print apart.
        grid = GridSpec(12, 9, spacing=0.5)
        levels = np.array([-0.0, 0.0, 0.1 + 0.2, -1.5, 5e-324, 1e300])
        idx = np.random.default_rng(5).integers(0, len(levels), size=108)
        self._assert_oracle_bytes(tmp_path, grid, levels[idx])
        text = (tmp_path / "m.obj").read_text()
        assert " -0.0\n" in text and " 0.0\n" in text

    @pytest.mark.parametrize("values", ["random", "levels", "mixed"])
    @pytest.mark.parametrize("grid", [
        GridSpec(300, 230, spacing=0.3), GridSpec(2000, 70), GridSpec(70000, 2)],
        ids=str)
    def test_row_blocks_match_per_vertex_loop(self, tmp_path, grid, values):
        # The OBJ goes out in blocks of 2**16 // width rows (one row when the
        # width is larger), each with its own distinct heights: 300 x 230 is
        # blocks of 218 rows and a partial one, 2000 x 70 three blocks,
        # 70000 x 2 two blocks of one row.  "mixed" has mostly distinct
        # heights in the first block and few in the rest.
        n = grid.width * grid.height
        rng = np.random.default_rng(n)
        z = rng.normal(0, 1e3, size=n) / 7
        if values != "random":
            levels = np.array([-0.0, 0.0, 0.1 + 0.2, -1.5, 5e-324, 1e300])
            start = max(1, (1 << 16) // grid.width) * grid.width if values == "mixed" else 0
            z[start:] = levels[rng.integers(0, len(levels), size=n - start)]
        self._assert_oracle_bytes(tmp_path, grid, z)

    @pytest.mark.parametrize("extra", [-1, 0, 1], ids=["below", "at", "above"])
    @pytest.mark.parametrize("shape", [(8, 5), (1, 40), (40, 1)], ids=str)
    def test_distinct_count_around_the_cutoff(self, tmp_path, shape, extra):
        grid = GridSpec(*shape)
        n = grid.width * grid.height
        levels = np.random.default_rng(n).normal(0, 1e3, size=n // 4 + extra) / 7
        values = levels[np.arange(n) % len(levels)]
        self._assert_oracle_bytes(tmp_path, grid, values)


class TestDistinctCells:
    """fileio._distinct_cells formats once per distinct key up to a quarter
    of the rows distinct, else once per row, with the same strings either way."""

    @pytest.mark.parametrize("distinct,calls", [(1, 1), (24, 24), (25, 25),
                                                (26, 100), (100, 100)])
    def test_cutoff(self, distinct, calls):
        keys = np.arange(100) % distinct
        seen = []

        def fmt(k, v):
            seen.append(k)
            return f"{k}:{v!r}"

        got = _distinct_cells(fmt, keys, keys, keys * 0.5)
        assert got == [f"{k}:{k * 0.5!r}" for k in keys.tolist()]
        assert len(seen) == calls


class TestSamplesCsv:
    def test_xy_flavor(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("# comment\nx,y,value\n0.0,0.0,1.5\n2.0,1.0,-3.0\n")
        assert read_samples_csv(p).tolist() == [[0.0, 0.0, 1.5], [2.0, 1.0, -3.0]]

    def test_vertex_flavor(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("vertex,value\n3,0.25\n0,9.0\n")
        assert read_samples_csv(p).tolist() == [[3.0, 0.25], [0.0, 9.0]]

    @pytest.mark.parametrize("body,msg", [
        ("a,b\n1,2\n", "header"),
        ("x,y,value\n1,2\n", "line 2"),
        ("x,y,value\n1,2,zebra\n", "line 2"),
        ("vertex,value\n1.5,2\n", "integers"),
        ("vertex,value\n", "no sample rows"),
        ("", "empty"),
        ("x,y,value\n0,0,nan\n", "finite"),
    ])
    def test_malformed_inputs(self, tmp_path, body, msg):
        p = tmp_path / "s.csv"
        p.write_text(body)
        with pytest.raises(ValueError, match=msg):
            read_samples_csv(p)

    def test_error_names_the_file_line(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("# made by hand\n\nx,y,value\n0,0,1.0\n1,1\n")
        with pytest.raises(ValueError, match="line 5: expected 3 columns"):
            read_samples_csv(p)

    def test_inline_comments_dropped(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("vertex,value  # header\n3,0.25 # first\n#\n0,9.0\n")
        assert read_samples_csv(p).tolist() == [[3.0, 0.25], [0.0, 9.0]]


class TestSnapping:
    def test_nearest_vertex_with_ties_up(self):
        grid = GridSpec(4, 4, spacing=1.0)
        d = build_grid(grid)
        rows = np.array([[0.4, 0.0, 1.0], [0.5, 0.0, 2.0], [2.6, 3.4, 3.0]])
        out = snap_to_vertices(rows, d)
        assert out == {0: 1.0, 1: 2.0, 3 * 4 + 3: 3.0}

    def test_out_of_bounds_clips_to_border(self):
        grid = GridSpec(3, 3)
        d = build_grid(grid)
        rows = np.array([[-50.0, -50.0, 1.0], [50.0, 50.0, 2.0]])
        out = snap_to_vertices(rows, d)
        assert out == {0: 1.0, 8: 2.0}

    def test_collisions_merge_by_mean_with_warning(self):
        grid = GridSpec(3, 3)
        d = build_grid(grid)
        rows = np.array([[1.0, 1.0, 2.0], [1.1, 0.9, 6.0]])
        with pytest.warns(UserWarning, match="merged"):
            out = snap_to_vertices(rows, d)
        assert out == {4: 4.0}

    def test_three_rows_merge_by_sum_over_count(self):
        grid = GridSpec(3, 3)
        d = build_grid(grid)
        rows = np.array(
            [[1.0, 1.0, 1.0], [0.0, 0.0, 7.0], [1.1, 0.9, 2.0], [0.9, 1.1, 4.0]])
        with pytest.warns(UserWarning, match="^2 sample row"):
            out = snap_to_vertices(rows, d)
        assert list(out) == [0, 4]
        assert out == {4: (1.0 + 2.0 + 4.0) / 3, 0: 7.0}

    def test_snapping_merges_as_pointwise_methods_do(self):
        # A running mean gives 0.2 here and sum / count 0.20000000000000004;
        # gvf and MLS must fit the same merged value from one file.
        d = build_grid(GridSpec(3, 3))
        rows = np.array([[5.0, 0.1], [5.0, 0.2], [5.0, 0.3]])
        with pytest.warns(UserWarning, match="^2 sample row"):
            out = snap_to_vertices(rows, d)
        points = SamplePoints.from_points(sample_coords(rows, d))
        assert out == {5: points.values[0]} == {5: (0.1 + 0.2 + 0.3) / 3}

    def test_spacing_scales_snap(self):
        grid = GridSpec(3, 3, spacing=2.0)
        d = build_grid(grid)
        rows = np.array([[3.2, 0.0, 5.0]])
        assert snap_to_vertices(rows, d) == {2: 5.0}

    def test_vertex_rows_on_plain_graph(self):
        d = build_graph([(0, 1), (1, 2)], 3)
        rows = np.array([[2.0, 7.0]])
        assert snap_to_vertices(rows, d) == {2: 7.0}

    def test_vertex_id_out_of_range(self):
        d = build_grid(GridSpec(3, 3))
        # An id past int64 is named as read, not as a wrapped cast, and a
        # negative id does not count from the end.
        for row, shown in ([9.0, "9"], [-1.0, "-1"], [1e30, "1e+30"]):
            rows = np.array([[row, 1.0]])
            for resolve in (snap_to_vertices, sample_coords):
                with pytest.raises(ValueError) as exc:
                    resolve(rows, d)
                assert str(exc.value) == f"sample vertex id {shown} out of range"

    @pytest.mark.parametrize("shape", [(1, 4), (2,), (3, 1)])
    def test_rows_of_other_shapes_rejected(self, shape):
        # A 4-column row once read as a vertex row valued by its last column.
        rows = np.array([1.0, 0.0, 0.0, 5.0])[:int(np.prod(shape))].reshape(shape)
        d = build_grid(GridSpec(3, 3))
        for resolve in (snap_to_vertices, sample_coords):
            with pytest.raises(ValueError) as exc:
                resolve(rows, d)
            assert str(exc.value) == ("sample rows must have shape (n, 2) or (n, 3), "
                                      f"got {shape}")

    def test_xy_without_grid_rejected(self):
        d = build_graph([(0, 1)], 2)
        rows = np.array([[0.0, 0.0, 1.0]])
        with pytest.raises(ValueError, match="grid"):
            snap_to_vertices(rows, d)


class TestSampleCoords:
    def test_xy_passes_through(self):
        d = build_grid(GridSpec(2, 2))
        rows = np.array([[0.3, 0.4, 1.0]])
        assert sample_coords(rows, d).tolist() == [[0.3, 0.4, 1.0]]

    def test_vertex_resolves_coordinates(self):
        d = build_grid(GridSpec(3, 2, spacing=0.5))
        rows = np.array([[4.0, 9.0]])
        assert sample_coords(rows, d).tolist() == [[0.5, 0.5, 9.0]]

    def test_vertex_without_coords_rejected(self):
        d = build_graph([(0, 1)], 2)
        rows = np.array([[0.0, 1.0]])
        with pytest.raises(ValueError, match="coordinates"):
            sample_coords(rows, d)


class TestFieldCsv:
    def test_level_round_trip_bit_identical(self, tmp_path):
        d = build_graph([(0, 1), (1, 2)], 3)
        table = LevelTable(base=0.1, delta=0.2, count=3)
        field = LevelField(domain=d, idx=[1, 2, 3], table=table)
        p = tmp_path / "f.csv"
        write_level_csv(p, field)
        back = read_field_csv(p)
        assert back.indices.tolist() == [1, 2, 3]
        expect = np.array([0.1 + (i - 1) * 0.2 for i in (1, 2, 3)])
        assert back.values.tobytes() == expect.tobytes()

    def test_scalar_round_trip_awkward_floats(self, tmp_path):
        vals = np.array([0.1 + 0.2, 1e-17, -3.333333333333333e5, 2.0 / 3.0])
        p = tmp_path / "f.csv"
        write_scalar_csv(p, vals)
        back = read_field_csv(p)
        assert back.indices is None
        assert back.values.tobytes() == vals.tobytes()

    def test_rewrite_is_byte_identical(self, tmp_path):
        vals = np.random.default_rng(0).normal(size=17)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_scalar_csv(a, vals)
        write_scalar_csv(b, vals)
        assert a.read_bytes() == b.read_bytes()

    def test_level_csv_matches_row_formula(self, tmp_path):
        # The bytes of the per-row formula base + (i - 1) * delta, by repr,
        # with the first and last level in use, on a one-level table too.
        rng = np.random.default_rng(3)
        d = build_graph([], 50)
        for base, delta, count in [(0.1, 0.2, 40), (-3.7, 1e-3, 40), (1e5, 0.3, 40),
                                   (-0.0, 0.25, 40), (-0.0, 0.7, 1), (2.5, 1e-3, 1)]:
            idx = rng.integers(1, count + 1, size=50)
            idx[[7, 31]] = 1, count
            table = LevelTable(base=base, delta=delta, count=count)
            p = tmp_path / "f.csv"
            write_level_csv(p, LevelField(domain=d, idx=idx, table=table))
            rows = [f"{v},{i},{base + (i - 1) * delta!r}"
                    for v, i in enumerate(idx.tolist())]
            assert p.read_text() == "\n".join(["vertex,index,value", *rows]) + "\n"

    @pytest.mark.parametrize("width,height", [(300, 230), (70000, 2), (256, 256)],
                             ids=["two-blocks", "three-blocks", "one-full-block"])
    def test_multi_block_csvs_match_row_formula(self, tmp_path, width, height):
        # The writers go out in blocks of 2**16 rows; 256 x 256 is one full
        # block.  70000 levels in a row make the first blocks mostly
        # distinct, and 300 x 230 has a few hundred levels per block.
        d = build_grid(GridSpec(width, height))
        r, c = np.divmod(np.arange(width * height), width)
        idx = r + c + 1
        base, delta = -0.3, 0.1
        table = LevelTable(base=base, delta=delta, count=int(idx.max()))
        p = tmp_path / "f.csv"
        write_level_csv(p, LevelField(domain=d, idx=idx, table=table))
        rows = [f"{v},{i},{base + (i - 1) * delta!r}" for v, i in enumerate(idx.tolist())]
        assert p.read_bytes() == ("\n".join(["vertex,index,value", *rows]) + "\n").encode()
        vals = np.random.default_rng(width).normal(size=width * height)
        vals[::7] = -0.0
        write_scalar_csv(p, vals)
        rows = [f"{v},{x!r}" for v, x in enumerate(vals.tolist())]
        assert p.read_bytes() == ("\n".join(["vertex,value", *rows]) + "\n").encode()

    def test_field_csvs_of_a_large_grid_are_streamed(self, tmp_path):
        # Whole, the text of a 1024 x 1024 field takes well over 100 MB to
        # build; in blocks of 2**16 rows each writer stays under 32 MB.
        side = 1024
        r, c = np.divmod(np.arange(side * side), side)
        field = LevelField(domain=build_grid(GridSpec(side, side)), idx=(r + c) // 8 + 1,
                           table=LevelTable(base=0.5, delta=0.25, count=256))
        values = np.random.default_rng(1).normal(size=side * side)
        for write in (lambda p: write_level_csv(p, field),
                      lambda p: write_scalar_csv(p, values)):
            tracemalloc.start()
            try:
                write(tmp_path / "f.csv")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 32 << 20

    def test_comment_lines_accepted(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("# exported by hand\nvertex,value\n# first\n0,1.5\n\n"
                     "1,2.5  # tail\n")
        back = read_field_csv(p)
        assert back.values.tolist() == [1.5, 2.5]

    @pytest.mark.parametrize("rows,match", [
        ("2,0.4\n1,0.2\n0,0.0\n", "line 2: expected vertex 0, got 2"),
        ("0,0.0\n1,0.2\n1,0.2\n2,0.4\n", "line 4: expected vertex 2, got 1"),
        ("0,0.0\n2,0.4\n", "line 3: expected vertex 1, got 2"),
        ("1,0.2\n", "line 2: expected vertex 0, got 1"),
    ], ids=["reversed", "repeated", "gap", "from-one"])
    def test_vertices_must_run_in_order(self, tmp_path, rows, match):
        p = tmp_path / "f.csv"
        p.write_text("vertex,value\n" + rows)
        with pytest.raises(ValueError, match=match):
            read_field_csv(p)

    @pytest.mark.parametrize("body,line", [
        ("vertex,value\n0,1.0\n1,x\n", 3),
        ("vertex,index,value\n0,1,0.0\n# note\n1,two,0.5\n", 4),
        ("vertex,value\nzero,1.0\n", 2),
    ], ids=["value", "index", "vertex"])
    def test_non_numeric_entry_names_file_and_line(self, tmp_path, body, line):
        p = tmp_path / "f.csv"
        p.write_text(body)
        with pytest.raises(ValueError) as exc:
            read_field_csv(p)
        assert str(exc.value) == f"{p}: line {line}: non-numeric entry"

    @pytest.mark.parametrize("body,line", [
        ("vertex,value\n0,1.0\n1,nan\n", 3),
        ("vertex,index,value\n0,1,0.0\n# note\n\n1,2,-inf\n2,2,inf\n", 5),
        ("vertex,value\n0,Infinity\n", 2),
    ], ids=["nan", "minus-inf-after-comment", "infinity"])
    def test_non_finite_value_names_file_and_line(self, tmp_path, body, line):
        p = tmp_path / "f.csv"
        p.write_text(body)
        with pytest.raises(ValueError) as exc:
            read_field_csv(p)
        assert str(exc.value) == f"{p}: line {line}: non-finite value"

    def test_malformed_field_csv(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("vertex,index,value\n0,1\n")
        with pytest.raises(ValueError, match="line 2"):
            read_field_csv(p)
        p.write_text("wrong,header\n")
        with pytest.raises(ValueError, match="header"):
            read_field_csv(p)

    def test_level_index_past_int64_reads_as_2_pow_60(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text(f"vertex,index,value\n0,{10 ** 20},1.0\n1,{-10 ** 400},1.0\n")
        assert read_field_csv(p).indices.tolist() == [2 ** 60, -2 ** 60]


class TestMetricsJson:
    def test_schema_tag_and_sorted_keys(self, tmp_path):
        p = tmp_path / "m.json"
        write_metrics_json(p, {"rmse": 0.5, "count": 3})
        text = p.read_text()
        data = json.loads(text)
        assert data == {"schema": 1, "rmse": 0.5, "count": 3}
        assert text.index('"count"') < text.index('"rmse"') < text.index('"schema"')

    def test_payload_not_mutated(self, tmp_path):
        payload = {"a": 1}
        write_metrics_json(tmp_path / "m.json", payload)
        assert payload == {"a": 1}


class TestEdgeList:
    def test_parse_with_comments(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("# graph\nvertices 4\n0 1\n1 2  # chain\n\n2 3\n")
        count, edges = read_edge_list(p)
        assert count == 4
        assert edges.tolist() == [[0, 1], [1, 2], [2, 3]]

    def test_edge_only_errors(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 1\n")
        with pytest.raises(ValueError, match="vertices N"):
            read_edge_list(p)
        p.write_text("vertices 3\n0 1 2\n")
        with pytest.raises(ValueError, match="line 2"):
            read_edge_list(p)
        p.write_text("vertices 3\n0 x\n")
        with pytest.raises(ValueError, match="non-integer"):
            read_edge_list(p)
        p.write_text("# nothing\n")
        with pytest.raises(ValueError, match="missing"):
            read_edge_list(p)
        for count in ("0", "-2", "x"):
            p.write_text(f"# c\nvertices {count}\n")
            with pytest.raises(ValueError, match="line 2: bad vertex count"):
                read_edge_list(p)

    def test_isolated_vertices_allowed(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("vertices 5\n")
        count, edges = read_edge_list(p)
        assert count == 5 and edges.shape == (0, 2)

    def test_ids_past_int64_read_as_2_pow_60(self, tmp_path):
        # In range of their count, but no Domain holds that many vertices.
        p = tmp_path / "g.txt"
        p.write_text(f"vertices {10 ** 20}\n0 {10 ** 20 - 1}\n")
        count, edges = read_edge_list(p)
        assert (count, edges.tolist()) == (10 ** 20, [[0, 2 ** 60]])
        with pytest.raises(ValueError, match="vertex_count 10{20} is too large"):
            build_graph(edges, count)


class TestAtomicWrites:
    def test_no_temp_files_left_behind(self, tmp_path):
        write_scalar_csv(tmp_path / "f.csv", np.arange(3.0))
        assert sorted(os.listdir(tmp_path)) == ["f.csv"]

    def test_failed_write_removes_its_temp_file(self, tmp_path):
        (tmp_path / "taken").mkdir()
        with pytest.raises(OSError):
            atomic_write_text(tmp_path / "taken", "x")
        assert sorted(os.listdir(tmp_path)) == ["taken"]

    def test_overwrite_replaces_contents(self, tmp_path):
        p = tmp_path / "f.csv"
        write_scalar_csv(p, np.array([1.0]))
        write_scalar_csv(p, np.array([2.0]))
        assert read_field_csv(p).values.tolist() == [2.0]


class TestLineNumbers:
    """The readers drop # comments anywhere and name the file's own line;
    TestSamplesCsv covers the sample CSV."""

    @pytest.mark.parametrize("reader,body,match", [
        (read_field_csv,
         "# c\nvertex,value # h\n\n0,1.0\n1\n", "line 5: wrong column count"),
        (read_edge_list,
         "# c\nvertices 3 # n\n\n0 1\n0 1 2\n", "line 5: expected 'a b'"),
        (load_mesh,
         "# c\nv 0 0 0 # one\n\nv 1 0 0\nf 1 2\n", "line 5: faces must be"),
        (read_edge_list, "# c\nvertices 3 # n\n\n0 1\n1 1\n",
         "line 5: edge 1 1 must join two distinct vertex ids in 0..2"),
        (read_edge_list, "vertices 3\n# c\n0 1\n\n2 3\n",
         "line 5: edge 2 3 must join two distinct vertex ids in 0..2"),
        (read_edge_list, "vertices 3\n0 -1\n", "line 2: edge 0 -1 must join"),
        (read_edge_list, "vertices 3\n0 99999999999999999999\n",
         "line 2: edge 0 99999999999999999999 must join"),
        (load_mesh, "# c\nv 0 0 0\nv 1 0 0 # b\n\nv 1 1 0\nf 1 2 3\n"
                    "# d\nvn 0 0 1\nf 3 2 3\n", "line 9: face repeats a corner"),
    ], ids=["field", "edges", "mesh", "edges-self-loop", "edges-id-past-end",
            "edges-negative-id", "edges-id-past-int64", "mesh-repeated-corner"])
    def test_comments_and_blanks_keep_line_numbers(self, tmp_path, reader,
                                                   body, match):
        p = tmp_path / "in.txt"
        p.write_text(body)
        with pytest.raises(ValueError, match=match):
            reader(p)


TRI = "v 0 0 0\nv 1 0 0\nv 0 1 0\n"
# Each row: a reader, a file, and the whole message it must raise after the
# file's path.  A check on the parsed arrays runs after either read path, so
# it has two rows: a plain file, which the whole-array reader takes, and a
# commented one, which only the line reader takes.
READER_MESSAGES = {
    "mesh-coordinate-count": (load_mesh, "v 0 0\n",
                              "line 1: vertex record needs 3 coordinates"),
    "mesh-coordinate": (load_mesh, "v 0 0 x\n", "line 1: non-numeric vertex coordinate"),
    "mesh-face-size": (load_mesh, TRI + "f 1 2\n",
                       "line 4: faces must be triangles or quads"),
    "mesh-face-index": (load_mesh, TRI + "f 1 2 x\n", "line 4: non-integer face index"),
    "mesh-no-vertices": (load_mesh, "# c\nvn 0 0 1\n", "no vertices found"),
    "mesh-finite-plain": (load_mesh, "v 0 0 0\nv nan 0 0\nv 0 1 0\nf 1 2 3\n",
                          "line 2: non-finite vertex coordinate"),
    "mesh-finite-commented": (load_mesh, "# c\nv 0 0 0\n\nv 0 inf 0 # b\nv 0 1 0\n",
                              "line 4: non-finite vertex coordinate"),
    "mesh-range-plain": (load_mesh, TRI + "f 1 2 4\n", "line 4: face index out of range"),
    "mesh-range-commented": (load_mesh, TRI + "# c\nf 1 2 3\n\nf 1 2 0 # d\n",
                             "line 7: face index out of range"),
    "mesh-corner-plain": (load_mesh, TRI + "f 1 2 2\n", "line 4: face repeats a corner"),
    "mesh-corner-commented": (load_mesh, TRI + "f 1 2 3 # a\n\nf 3 2 3\n",
                              "line 6: face repeats a corner"),
    "edges-empty": (read_edge_list, "", "missing 'vertices N' line"),
    "edges-comments-only": (read_edge_list, "# c\n\n", "missing 'vertices N' line"),
    "edges-first": (read_edge_list, "0 1\n", "line 1: expected 'vertices N' first"),
    "edges-first-width": (read_edge_list, "# c\nvertices 3 4\n",
                          "line 2: expected 'vertices N' first"),
    "edges-count": (read_edge_list, "vertices x\n",
                    "line 1: bad vertex count 'x'; need a positive integer"),
    "edges-count-zero": (read_edge_list, "Vertices 0\n",
                         "line 1: bad vertex count '0'; need a positive integer"),
    "edges-width": (read_edge_list, "vertices 3\n0 1 2\n", "line 2: expected 'a b'"),
    "edges-id": (read_edge_list, "vertices 3\n0 x\n", "line 2: non-integer vertex id"),
    "edges-self-loop": (read_edge_list, "vertices 3\n1 1\n",
                        "line 2: edge 1 1 must join two distinct vertex ids in 0..2"),
    "samples-empty": (read_samples_csv, "", "empty sample file"),
    "samples-header": (read_samples_csv, "# c\na,b\n1,2\n",
                       "line 2: header must be 'x,y,value' or 'vertex,value', got 'a,b'"),
    "samples-width-xy": (read_samples_csv, "x,y,value\n1,2\n", "line 2: expected 3 columns"),
    "samples-width-vertex": (read_samples_csv, "vertex,value\n1\n",
                             "line 2: expected 2 columns"),
    "samples-entry": (read_samples_csv, "x,y,value\n1,2,zebra\n",
                      "line 2: non-numeric entry"),
    "samples-no-rows": (read_samples_csv, "vertex,value\n# c\n", "no sample rows"),
    "samples-whole-ids": (read_samples_csv, "vertex,value\n0,1\n# c\n1.5,2\n",
                          "line 4: vertex ids must be integers"),
    "samples-finite": (read_samples_csv, "x,y,value\n0,0,1\n\n0,0,nan\n",
                       "line 4: samples must be finite"),
    "field-empty": (read_field_csv, "", "empty field file"),
    "field-header": (read_field_csv, "vertex,val\n0,1\n", "line 1: header must be "
                     "'vertex,index,value' or 'vertex,value', got 'vertex,val'"),
    "field-width": (read_field_csv, "vertex,value\n0,1.0\n1\n", "line 3: wrong column count"),
    "field-entry": (read_field_csv, "vertex,index,value\n0,1,x\n",
                    "line 2: non-numeric entry"),
    "field-order": (read_field_csv, "vertex,value\n0,1.0\n2,1.0\n",
                    "line 3: expected vertex 1, got 2"),
    "field-finite-plain": (read_field_csv, "vertex,value\n0,1.0\n1,nan\n",
                           "line 3: non-finite value"),
    "field-finite-commented": (read_field_csv, "# c\nvertex,index,value\n0,1,1.0 # a\n"
                               "\n1,2,inf\n", "line 5: non-finite value"),
}
BULK = {load_mesh: _mesh_bulk, read_field_csv: _field_bulk}


@pytest.mark.parametrize("name", READER_MESSAGES)
def test_reader_messages_in_full(tmp_path, name):
    reader, body, message = READER_MESSAGES[name]
    p = tmp_path / "in.txt"
    p.write_text(body)
    if name.endswith(("-plain", "-commented")):
        assert (BULK[reader](p) is None) == name.endswith("-commented")
    with pytest.raises(ValueError) as exc:
        reader(p)
    assert str(exc.value) == f"{p}: {message}"


# Generated reader input: integers of any size, floats, junk tokens, face
# corners written i/j, # comments and blank lines.
INT = st.one_of(st.integers(-2, 8), st.integers(-10 ** 401, 10 ** 401)).map(str)
NUMBER = st.one_of(INT, st.floats().map(repr),
                   st.sampled_from(["x", "1_0", "1e400", "0x10", "", "-"]))
CORNER = st.one_of(INT, st.lists(INT, min_size=2, max_size=3).map("/".join), NUMBER)


def _joined(token, sep, lo, hi, lead=""):
    return st.lists(token, min_size=lo, max_size=hi).map(lambda t: lead + sep.join(t))


READER_LINES = {
    load_mesh: (st.just("v 0 0 0"), st.one_of(
        _joined(NUMBER, " ", 3, 3, "v "), _joined(CORNER, " ", 3, 4, "f "),
        _joined(NUMBER, " ", 1, 3))),
    read_edge_list: (NUMBER.map("vertices {}".format), _joined(NUMBER, " ", 1, 3)),
    read_samples_csv: (st.sampled_from(["x,y,value", "vertex,value", "a,b"]),
                       _joined(NUMBER, ",", 1, 3)),
    # Field rows lead with their own record number, so most reach the values.
    read_field_csv: (st.sampled_from(["vertex,value", "vertex,index,value"]),
                     _joined(NUMBER, ",", 1, 2, ",")),
}


@pytest.mark.parametrize("reader", READER_LINES, ids=lambda r: r.__name__)
@settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_readers_raise_only_value_errors(tmp_path, reader, data):
    head, line = READER_LINES[reader]
    lines = [data.draw(head)]
    for n, row in enumerate(data.draw(st.lists(line, max_size=6))):
        if reader is read_field_csv:
            row = f"{n}{row}"
        lines += [row + data.draw(st.sampled_from(["", " # c"])),
                  *data.draw(st.lists(st.sampled_from(["", "# c"]), max_size=1))]
    p = tmp_path / "in.txt"
    p.write_text("\n".join(lines) + "\n")
    try:
        reader(p)
    except ValueError:
        pass
