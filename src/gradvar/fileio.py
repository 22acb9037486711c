"""File formats: sample CSV ingest, field CSV export, metrics JSON.

All writes go through an atomic temp-file-then-rename so readers never
observe partial files.  Floats are serialized with repr, whose shortest
round-trip guarantee makes every CSV re-import bit-identical.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from typing import NamedTuple

import numpy as np

from .domain import (Domain, _count, _fields, _ids, _line_error, _loadtxt,
                     _mean_by_key, _records)
from .gvf import LevelField, to_scalar


def atomic_write_bytes(path, data: bytes) -> None:
    _atomic_write_chunks(path, (data,))


def _atomic_write_chunks(path, chunks) -> None:
    """Write the bytes ``chunks`` in turn to a temp file beside ``path``,
    then rename it over ``path``; on any error the temp file goes."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-",
                               suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def _csv_records(path, what: str, headers: tuple[str, ...]):
    """(header, records after it) of a CSV whose header is one of ``headers``,
    matched case-blind and with spaces around fields dropped."""
    records = _records(path, ",")
    lineno, header = next(records, (0, None))
    if header is None:
        raise ValueError(f"{path}: empty {what} file")
    names = ",".join(h.strip().lower() for h in header)
    if names not in headers:
        raise ValueError(f"{path}: line {lineno}: header must be "
                         f"{' or '.join(map(repr, headers))}, got {','.join(header)!r}")
    return names, records


def read_samples_csv(path) -> np.ndarray:
    """The float rows of a sample CSV: shape (n, 3) for an `x,y,value` file,
    (n, 2) for a `vertex,value` file.  A malformed row, a vertex id that is
    not whole or a value that is not finite raises naming its file line."""
    names, records = _csv_records(path, "sample", ("x,y,value", "vertex,value"))
    ncol = names.count(",") + 1
    rows = [_fields(path, lineno, parts, (ncol,), (float,) * ncol,
                    f"expected {ncol} columns", "non-numeric entry")
            for lineno, parts in records]
    if not rows:
        raise ValueError(f"{path}: no sample rows")
    arr = np.asarray(rows, dtype=np.float64)
    whole = (arr[:, 0] == np.rint(arr[:, 0])) | (ncol == 3)   # x,y rows hold no id
    if not whole.all():
        raise _line_error(path, int(np.argmin(whole)) + 1, "vertex ids must be integers")
    finite = np.isfinite(arr).all(axis=1)
    if not finite.all():
        raise _line_error(path, int(np.argmin(finite)) + 1, "samples must be finite")
    return arr


def _sample_columns(rows: np.ndarray) -> int:
    """2 or 3, the column count of sample rows as :func:`read_samples_csv`
    returns them; any other shape raises ValueError."""
    if rows.ndim != 2 or rows.shape[1] not in (2, 3):
        raise ValueError(f"sample rows must have shape (n, 2) or (n, 3), "
                         f"got {rows.shape}")
    return rows.shape[1]


def snap_to_vertices(rows: np.ndarray, domain: Domain) -> dict[int, float]:
    """Resolve sample rows, as :func:`read_samples_csv` returns them, to a
    vertex -> value map.

    (x, y, value) rows snap to the nearest vertex of the domain's grid (ties
    toward the larger row/column), so they need a :func:`build_grid`
    domain; rows landing on the same vertex merge by mean (sum / count, as
    :meth:`SamplePoints.from_points` merges) with a warning.
    (vertex, value) rows resolve directly on any domain.  The map's keys run
    in vertex order.
    """
    grid = domain.grid
    if _sample_columns(rows) == 3:
        if grid is None:
            raise ValueError("x,y,value samples need a grid domain to snap to")
        col, row = np.clip(np.floor(rows[:, :2] / grid.spacing + 0.5), 0,
                           (grid.width - 1, grid.height - 1)).astype(np.int64).T
        verts = row * grid.width + col
    else:
        verts = _ids(rows[:, 0], "sample vertex ids", domain.vertex_count)
    merged, means = _mean_by_key(verts, rows[:, -1])
    if len(merged) < len(verts):
        warnings.warn(
            f"{len(verts) - len(merged)} sample row(s) landed on already-occupied "
            f"vertices; merged by mean", stacklevel=2)
    return dict(zip(merged.tolist(), means.tolist()))


def sample_coords(rows: np.ndarray, domain: Domain) -> np.ndarray:
    """(x, y, value) rows for pointwise methods, from sample rows of either
    shape :func:`read_samples_csv` returns."""
    if _sample_columns(rows) == 3:
        return np.array(rows)
    if domain.coords is None:
        raise ValueError("vertex,value samples on a domain without coordinates "
                         "cannot feed coordinate-based methods")
    verts = _ids(rows[:, 0], "sample vertex ids", domain.vertex_count)
    return np.column_stack([domain.coords[verts], rows[:, 1]])


def _write_field_csv(path, header: str, count: int, lines) -> None:
    """The header line, then ``lines(lo, hi)``, the lines of vertices lo..hi-1,
    for each block of 2**16 vertices in turn, so a large field's text is
    never held whole."""
    def chunks():
        yield f"{header}\n".encode()
        for lo in range(0, count, 1 << 16):
            yield "".join(lines(lo, min(lo + (1 << 16), count))).encode()
    _atomic_write_chunks(path, chunks())


def _distinct_cells(fmt, keys: np.ndarray, *columns: np.ndarray) -> list[str]:
    """fmt(*row) for each row of ``columns``.  Rows with equal ``keys`` format
    alike, so when at most a quarter of the keys are distinct, fmt runs once
    per distinct key and the strings are gathered per row."""
    ordered = np.sort(keys)   # not np.unique, whose hash dedup is far slower
    distinct = ordered[np.append(True, ordered[1:] != ordered[:-1])]
    if 4 * len(distinct) > len(keys):   # mostly distinct: the gather costs more
        return list(map(fmt, *(c.tolist() for c in columns)))
    inverse = np.searchsorted(distinct, keys)
    rows = np.empty(len(distinct), dtype=np.int64)
    rows[inverse] = np.arange(len(keys))   # some row that holds each key
    cells = list(map(fmt, *(c[rows].tolist() for c in columns)))
    return np.array(cells, dtype=object)[inverse].tolist()


def write_level_csv(path, field: LevelField) -> None:
    """Export a level field as `vertex,index,value` rows.

    A level field holds one value per level, so each block's `index,value`
    cells are formatted (by repr) once per level and gathered per vertex,
    see :func:`_distinct_cells`.
    """
    idx, values = field.idx, to_scalar(field).values
    _write_field_csv(path, "vertex,index,value", len(idx), lambda lo, hi: [
        f"{v},{c}\n" for v, c in enumerate(_distinct_cells(
            "{},{!r}".format, idx[lo:hi], idx[lo:hi], values[lo:hi]), lo)])


def write_scalar_csv(path, values: np.ndarray) -> None:
    """Export per-vertex values as `vertex,value` rows."""
    values = np.asarray(values, dtype=np.float64)
    _write_field_csv(path, "vertex,value", len(values), lambda lo, hi: [
        f"{v},{x!r}\n" for v, x in enumerate(values[lo:hi].tolist(), lo)])


class FieldCsv(NamedTuple):
    """A field CSV's values in vertex order, and its level indices if any."""

    values: np.ndarray
    indices: np.ndarray | None


def _field_records(path) -> tuple[np.ndarray, np.ndarray | None]:
    """(values, level indices or None) of a field CSV, read line by line; each
    row converts through :func:`_fields`, and a malformed row, or one whose
    vertex breaks the order 0..N-1, raises naming its line."""
    names, records = _csv_records(path, "field",
                                  ("vertex,index,value", "vertex,value"))
    width = names.count(",") + 1
    converters = (int, int, float)[3 - width:]
    rows = []
    for lineno, parts in records:
        row = _fields(path, lineno, parts, (width,), converters,
                      "wrong column count", "non-numeric entry")
        if row[0] != len(rows):
            raise ValueError(f"{path}: line {lineno}: expected vertex "
                             f"{len(rows)}, got {row[0]}")
        rows.append(row)
    return (np.array([row[-1] for row in rows], dtype=np.float64),
            _ids([row[1] for row in rows], "level indices") if width == 3 else None)


def _field_bulk(path) -> tuple[np.ndarray, np.ndarray | None] | None:
    """What :func:`_field_records` returns, read as whole arrays, for a plain
    field CSV: an exact header, rows of its width that numpy parses, and the
    vertices 0..N-1 in order; else None."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if header not in ("vertex,value\n", "vertex,index,value\n"):
            return None
        rows = _loadtxt(fh, [(name, "f8" if name == "value" else "i8")
                             for name in header.rstrip().split(",")], ",")
    if rows is None or (rows["vertex"] != np.arange(len(rows))).any():
        return None
    return rows["value"].copy(), rows["index"].copy() if "index" in header else None


def read_field_csv(path) -> FieldCsv:
    """Re-import a field CSV written by this package, losslessly.

    Its vertex column must run 0..N-1 in order; the first row that breaks
    this, or holds a non-numeric or non-finite entry, raises naming its
    file line.  A level index past int64 reads as +-2**60, past every level.
    A plain file is read as whole arrays; any other is read line by line,
    with the same result.
    """
    values, indices = _field_bulk(path) or _field_records(path)
    finite = np.isfinite(values)
    if not finite.all():
        raise _line_error(path, int(np.argmin(finite)) + 1, "non-finite value")
    return FieldCsv(values=values, indices=indices)


def write_metrics_json(path, payload: dict) -> None:
    """Write a metrics dict as versioned JSON (schema: 1), atomically."""
    body = dict(payload)
    body["schema"] = 1
    atomic_write_text(path, json.dumps(body, indent=2, sort_keys=True) + "\n")


def read_edge_list(path) -> tuple[int, np.ndarray]:
    """Parse a plain-text graph: `vertices N` (N >= 1) as the first record,
    then one `a b` edge per line that joins two distinct ids in 0..N-1; each
    record converts through :func:`_fields`, so a malformed one raises
    naming its line."""
    records = _records(path)
    lineno, tokens = next(records, (0, None))
    if tokens is None:
        raise ValueError(f"{path}: missing 'vertices N' line")
    named = tokens[0].lower() == "vertices"   # else no token count will do
    _, count = _fields(path, lineno, tokens, (2,) if named else (),
                       (str, lambda t: _count(int(t), "vertex count")),
                       "expected 'vertices N' first",
                       f"bad vertex count {tokens[-1]!r}; need a positive integer")
    edges = []
    for lineno, tokens in records:
        a, b = _fields(path, lineno, tokens, (2,), (int, int),
                       "expected 'a b'", "non-integer vertex id")
        if a == b or not (0 <= a < count and 0 <= b < count):
            raise ValueError(f"{path}: line {lineno}: edge {a} {b} must join "
                             f"two distinct vertex ids in 0..{count - 1}")
        edges.append((a, b))
    # An id past int64 (its count is too) clips to 2**60, which no Domain holds.
    return count, _ids(edges, "edge vertex ids").reshape(-1, 2)
