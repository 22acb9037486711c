"""The whole-array readers of OBJ meshes and field CSVs against their line
readers: same arrays or the same error on any file, the fast path taken on
the files this package writes, and no higher memory peak."""

import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradvar import (GridSpec, LevelField, LevelTable, ScalarField, build_grid,
                     load_mesh, read_field_csv, render_heightmesh, write_level_csv,
                     write_scalar_csv)
from gradvar import domain, fileio

# Tokens float() or int() read in a way worth pinning: underscores, signs,
# leading zeros, non-finite values, overflow past float and int64, non-ASCII
# digits, and junk.
ODD = st.sampled_from([
    "1_0", "+3", "007", "-0", "nan", "-inf", "1e400", "-1e400", "1e5_0", "0x10",
    "x", "", "-", "1/2", "2//3", str(2 ** 63), str(-2 ** 63 - 1), "9" * 30,
    "\u0663", "\uff15", "1.5\xa0"])
# What a change to a written file may put between tokens, around a line or
# at its end: tabs, form feeds, other whitespace str.split() knows, a
# carriage return; and whole lines, blank or not.
SPACE = st.sampled_from(["\t", "  ", " \t ", "\x0c", "\x0b", "\x1c", "\xa0", "\u3000"])
PAD = st.sampled_from([" ", "\t", "\x0c ", "\u2003"])
EOL = st.sampled_from(["\r\n", "\r", "\n\n", "\n \n"])
EXTRA = st.sampled_from(["", "   ", "\t", "# note", "vn 0 0 1", "o part", "v", "0,1"])


@st.composite
def _changed(draw, lines, sep, seps, odd):
    """``lines`` (lists of tokens) written one per line with ``sep``, after
    up to three drawn changes: a token from ``odd``, a separator from
    ``seps``, leading or trailing space, another line end, an extra line,
    a token more or less, or two lines swapped."""
    rows = [[list(tokens), sep, "", "", "\n"] for tokens in lines]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 1, 2, 3]))):
        row = draw(st.sampled_from(rows))
        change = draw(st.integers(0, 7))
        if change == 0:
            if row[0]:
                row[0][draw(st.integers(0, len(row[0]) - 1))] = draw(odd)
        elif change == 1:
            row[1] = draw(seps)
        elif change in (2, 3):
            row[change] = draw(PAD)
        elif change == 4:
            row[4] = draw(EOL)
        elif change == 5:
            row[4] += draw(EXTRA) + "\n"
        elif change == 6:
            row[0] = row[0][:-1] if draw(st.booleans()) else [*row[0], draw(odd)]
        else:
            i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
            rows[i], rows[j] = rows[j], rows[i]
    return "".join(lead + sep.join(tokens) + trail + eol
                   for tokens, sep, lead, trail, eol in rows).encode("utf-8")


@st.composite
def obj_files(draw) -> bytes:
    nv = draw(st.integers(1, 6))
    coord = st.one_of(st.floats(-1e3, 1e3).map(repr), st.integers(-9, 9).map(str))
    lines = [["v", *draw(st.lists(coord, min_size=3, max_size=3))] for _ in range(nv)]
    width = draw(st.sampled_from([3, 3, 4]))
    lines += [["f", *draw(st.lists(st.integers(1, nv).map(str), min_size=width,
                                   max_size=width))]
              for _ in range(draw(st.integers(0, 6)))]
    odd = st.one_of(ODD, st.integers().map(str), st.integers(-1, nv + 1).map(str),
                    st.integers(1, nv).map(lambda i: f"{i}/{i}"))
    return draw(_changed(lines, " ", SPACE, odd))


@st.composite
def field_files(draw) -> bytes:
    header = draw(st.sampled_from(["vertex,value"] * 4 + ["vertex,index,value"] * 4
                                  + ["Vertex, Value", " vertex,value", "vertex,value,",
                                     "x,y,value"]))
    value = st.floats(-1e3, 1e3).map(repr)
    index = [st.integers(1, 5).map(str)] if "index" in header.lower() else []
    lines = [[header], *([str(v), *[draw(s) for s in index], draw(value)]
                         for v in range(draw(st.integers(1, 6))))]
    odd = st.one_of(ODD, st.integers(-1, 7).map(str), value)
    return draw(_changed(lines, ",", st.sampled_from([",,", " ,", ", ", ",\t"]), odd))


def _outcome(read, path):
    """The arrays ``read`` returns, as bytes, or its ValueError message."""
    try:
        got = read(path)
    except ValueError as exc:
        return str(exc)
    if isinstance(got, fileio.FieldCsv):
        return [None if a is None else a.tobytes() for a in got]
    return [a.tobytes() for a in (got.coords, got._offsets, got._dir_dst)]


def _by_lines(read, path):
    """``read(path)`` with its whole-array reader turned off."""
    with mock.patch.object(domain, "_mesh_bulk", lambda path: None), \
            mock.patch.object(fileio, "_field_bulk", lambda path: None):
        return _outcome(read, path)


READERS = {"mesh": (load_mesh, domain._mesh_bulk, domain._mesh_records),
           "field": (read_field_csv, fileio._field_bulk, fileio._field_records)}


def _assert_paths_agree(reader, path):
    """Bulk and line reader parse to bit-equal arrays, if the bulk one takes
    the file, and the public reader gives the same arrays or message with
    its bulk path on and off."""
    read, bulk, lines = READERS[reader]
    parsed = bulk(path)
    if parsed is not None:
        want = lines(path)
        assert [None if a is None else a.tobytes() for a in parsed] == \
               [None if a is None else a.tobytes() for a in want]
    assert _outcome(read, path) == _by_lines(read, path)


@pytest.mark.parametrize("reader,files", [("mesh", obj_files()),
                                          ("field", field_files())])
@settings(max_examples=400)
@given(data=st.data())
def test_bulk_reader_matches_line_reader(tmp_path_factory, reader, files, data):
    path = tmp_path_factory.mktemp("bulk") / "in.txt"
    path.write_bytes(data.draw(files))
    _assert_paths_agree(reader, path)


@pytest.mark.parametrize("reader,body", [
    ("field", "vertex,value\n0,,1.5\n"),
    ("field", "vertex,index,value\n0,1,,1.5\n1,,2,2.5\n"),
    ("field", "vertex,value\n0,1.5,\n1,2.5\n"),
    ("field", "vertex,value\n0,1.5\n1,2.5,2\n3.5\n"),
    ("field", "vertex,value\n0,1.5\n\n2,2.5\n"),
    ("field", "vertex,value\r\n0,1.5\r\n"),
    ("mesh", "v 0 0 0\nv 1 0\n0\nv 0 1 0\nf 1 2 3\n"),
    ("mesh", "v 0 0 0\nv 1 0 0\nf 1 2 3\nv 0 1 0\nf 1 2 3\n"),
    ("mesh", "v 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 0 1\nf 1 2 3\n"),
    ("mesh", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf 1 2 3 1\n"),
    ("mesh", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n  f 3 2 1\n"),
    ("mesh", "v 0 0 0\r\nv 1 0 0\r\nv 0 1 0\r\nf 1 2 3\r\n"),
    # Where numpy's parsers and Python's int() and float() could disagree.
    ("field", "vertex,value\n0,1.5\n1.0,2.5\n"),
    ("field", "vertex,value\n0,1.5\n1e0,2.5\n"),
    ("field", "vertex,index,value\n0,1.0,1.5\n"),
    ("field", "vertex,index,value\n0,1e0,1.5\n"),
    ("mesh", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1.0 2 3\n"),
    ("mesh", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 1e0\n"),
    ("field", "vertex,index,value\n0,1_0,1.5\n"),
    ("field", "vertex,value\n0,1_0\n"),
    ("mesh", "v 0 0 0\nv 1_0 0 0\nv 0 1 0\nf 1 2 3\n"),
    ("field", "vertex,index,value\n0,0x10,1.5\n"),
    ("field", "vertex,value\n0,0x10\n"),
    ("field", "vertex,index,value\n0,1,1.5\n1,99999999999999999999,2.5\n"),
    ("field", "vertex,value\n0,1.5\n1,nan\n"),
    ("field", "vertex,value\n0,-inf\n"),
    ("field", "vertex,index,value\n0,1,1e400\n"),
    ("mesh", "v 0 0 0\nvn 0 0 1\nv 1 0 0\nv 0 1 0\nf 1 2 3\n"),
    ("field", "vertex,value\r\n0,1.5\n1,2.5\n"),
    ("field", "vertex,value\n0,1.5\n \t \n"),
    ("mesh", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n  \n"),
], ids=["empty-field", "empty-fields-indexed", "trailing-comma", "rows-2-3-1",
        "gap", "crlf", "coordinate-on-next-line", "vertex-after-face", "vn-record",
        "mixed-widths", "indented-face", "mesh-crlf",
        "vertex-1.0", "vertex-1e0", "index-1.0", "index-1e0", "corner-1.0",
        "corner-1e0", "index-underscore", "value-underscore",
        "coordinate-underscore", "index-hex", "value-hex", "index-20-digits",
        "value-nan", "value-minus-inf", "value-1e400", "vn-between-vertices",
        "header-crlf", "field-trailing-blank", "mesh-trailing-blank"])
def test_bulk_reader_matches_line_reader_on_edge_cases(tmp_path, reader, body):
    path = tmp_path / "in.txt"
    path.write_bytes(body.encode())
    _assert_paths_agree(reader, path)


@pytest.mark.parametrize("action", ["error", "always"])
@pytest.mark.parametrize("reader,body,want", [
    ("field", "vertex,value\n", [b"", None]),
    ("field", "vertex,index,value\n\n", [b"", b""]),
    ("mesh", "v 0 0 0\nv 1 0 0\n",
     [np.array([[0.0, 0.0], [1.0, 0.0]]).tobytes(), bytes(24), b""]),
], ids=["header-only", "blank-body", "vertices-only"])
def test_no_warning_escapes_a_reader(tmp_path, reader, body, want, action):
    # numpy's reader warns on an input with no rows; these files have none
    # past the header or before the first face.
    path = tmp_path / "in.txt"
    path.write_bytes(body.encode())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        assert _outcome(READERS[reader][0], path) == want
    assert not caught


def test_an_integer_read_through_a_float_takes_the_line_reader(tmp_path, monkeypatch):
    # numpy 1.x reads "1.0" into an int64 column with a DeprecationWarning
    # where numpy 2 raises; either way the line reader names the line.
    def numpy1_loadtxt(src, dtype, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning, stacklevel=2)
        return np.array([(0, 1.5), (1, 2.5)], dtype=dtype)

    monkeypatch.setattr(np, "loadtxt", numpy1_loadtxt)
    path = tmp_path / "in.csv"
    path.write_text("vertex,value\n0,1.5\n1.0,2.5\n")
    with pytest.raises(ValueError, match="line 3: non-numeric entry"):
        read_field_csv(path)


def _no_line_reader(*_):
    raise AssertionError("the line reader ran")


@pytest.fixture
def bulk_only(monkeypatch):
    monkeypatch.setattr(domain, "_mesh_records", _no_line_reader)
    monkeypatch.setattr(fileio, "_field_records", _no_line_reader)


def test_written_files_take_the_fast_path(tmp_path, bulk_only):
    grid = build_grid(GridSpec(6, 4, spacing=0.5))
    values = np.linspace(-1.0, 2.0, grid.vertex_count)
    render_heightmesh(ScalarField(domain=grid, values=values), tmp_path / "h.obj")
    mesh = load_mesh(tmp_path / "h.obj")
    assert np.array_equal(mesh.coords, grid.coords)
    assert mesh.edge_count == grid.edge_count + 15   # one diagonal per cell

    write_scalar_csv(tmp_path / "s.csv", values)
    assert read_field_csv(tmp_path / "s.csv").values.tobytes() == values.tobytes()

    idx = np.arange(grid.vertex_count) % 6 + np.arange(grid.vertex_count) // 6 + 1
    table = LevelTable(base=-0.25, delta=0.1, count=9)
    write_level_csv(tmp_path / "l.csv", LevelField(domain=grid, idx=idx, table=table))
    back = read_field_csv(tmp_path / "l.csv")
    assert back.indices.tolist() == idx.tolist()
    assert back.values.tolist() == (-0.25 + (idx - 1) * 0.1).tolist()


@pytest.mark.parametrize("faces,edges", [
    ("f 1 2 3\nf 2 4 3\n", 5),
    ("f 1 2 4 3\n", 4),
], ids=["triangles", "quad"])
def test_plain_obj_takes_the_fast_path(tmp_path, bulk_only, faces, edges):
    p = tmp_path / "m.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0.5\n" + faces)
    d = load_mesh(p)
    assert d.vertex_count == 4 and d.edge_count == edges
    assert d.coords.tolist() == [[0, 0], [1, 0], [0, 1], [1, 1]]


def _peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bulk_mesh_read_peaks_no_higher_than_the_line_reader(tmp_path):
    # A jittered 96 x 96 lattice, two triangles per cell, as the writers
    # of large meshes lay it out: every v line, then every f line.
    side = 96
    rng = np.random.default_rng(7)
    r, c = np.divmod(np.arange(side * side), side)
    xy = np.column_stack([c, r]) + rng.uniform(-0.3, 0.3, size=(side * side, 2))
    a = (np.arange(side - 1)[:, None] * side + np.arange(side - 1) + 1).ravel()
    tris = np.column_stack([a, a + 1, a + side + 1, a, a + side + 1, a + side])
    p = tmp_path / "m.obj"
    p.write_text("".join(f"v {x!r} {y!r} 0.0\n" for x, y in xy.tolist())
                 + "".join(f"f {i} {j} {k}\n" for i, j, k in tris.reshape(-1, 3).tolist()))
    assert domain._mesh_bulk(p) is not None
    assert _peak(lambda: domain._mesh_bulk(p)) <= _peak(lambda: domain._mesh_records(p))
    whole = _peak(lambda: load_mesh(p))
    with mock.patch.object(domain, "_mesh_bulk", lambda path: None):
        assert whole <= _peak(lambda: load_mesh(p))


def test_bulk_field_read_peaks_no_higher_than_the_line_reader(tmp_path):
    grid = build_grid(GridSpec(128, 128))
    idx = np.arange(grid.vertex_count) % 128 // 4 + 1
    table = LevelTable(base=-1.5, delta=0.1, count=32)
    p = tmp_path / "l.csv"
    write_level_csv(p, LevelField(domain=grid, idx=idx, table=table))
    assert fileio._field_bulk(p) is not None
    whole = _peak(lambda: read_field_csv(p))
    with mock.patch.object(fileio, "_field_bulk", lambda path: None):
        assert whole <= _peak(lambda: read_field_csv(p))
