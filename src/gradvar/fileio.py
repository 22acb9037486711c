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

from .domain import Domain, _ids, _loadtxt, _mean_by_key, _record_line, _records
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


class ParsedSamples(NamedTuple):
    """Raw rows from a sample CSV before any snapping.

    kind is "xy" for an `x,y,value` file (rows are (x, y, value)) or
    "vertex" for a `vertex,value` file (rows are (vertex, value)).
    """

    kind: str
    rows: np.ndarray


def _csv_records(path, what: str, headers: tuple[str, ...]):
    """(header, records after it) of a CSV whose header is one of ``headers``,
    matched case-blind and with spaces around fields dropped."""
    records = _records(path, ",")
    _, header = next(records, (0, None))
    if header is None:
        raise ValueError(f"{path}: empty {what} file")
    names = ",".join(h.strip().lower() for h in header)
    if names not in headers:
        raise ValueError(f"{path}: header must be "
                         f"{' or '.join(map(repr, headers))}, got {','.join(header)!r}")
    return names, records


def read_samples_csv(path) -> ParsedSamples:
    """Parse a sample CSV; the header line selects the flavor."""
    names, records = _csv_records(path, "sample", ("x,y,value", "vertex,value"))
    kind, ncol = ("xy", 3) if names == "x,y,value" else ("vertex", 2)
    rows = []
    for lineno, parts in records:
        if len(parts) != ncol:
            raise ValueError(f"{path}: line {lineno}: expected {ncol} columns")
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: non-numeric entry") from None
    if not rows:
        raise ValueError(f"{path}: no sample rows")
    arr = np.asarray(rows, dtype=np.float64)
    if kind == "vertex" and not (arr[:, 0] == np.rint(arr[:, 0])).all():
        raise ValueError(f"{path}: vertex ids must be integers")
    if not np.isfinite(arr).all():
        raise ValueError(f"{path}: samples must be finite")
    return ParsedSamples(kind=kind, rows=arr)


def snap_to_vertices(parsed: ParsedSamples, domain: Domain) -> dict[int, float]:
    """Resolve parsed samples to a vertex -> value map.

    `x,y,value` rows snap to the nearest vertex of the domain's grid (ties
    toward the larger row/column), so they need a :func:`build_grid`
    domain; rows landing on the same vertex merge by mean (sum / count, as
    :meth:`SamplePoints.from_points` merges) with a warning.
    `vertex,value` rows resolve directly on any domain.  The map's keys run
    in vertex order.
    """
    grid = domain.grid
    if parsed.kind == "xy":
        if grid is None:
            raise ValueError("x,y,value samples need a grid domain to snap to")
        cols = np.clip(np.floor(parsed.rows[:, 0] / grid.spacing + 0.5),
                       0, grid.width - 1).astype(np.int64)
        rows_ = np.clip(np.floor(parsed.rows[:, 1] / grid.spacing + 0.5),
                        0, grid.height - 1).astype(np.int64)
        verts = rows_ * grid.width + cols
        values = parsed.rows[:, 2]
    else:
        verts = _ids(parsed.rows[:, 0], "sample vertex ids", domain.vertex_count)
        values = parsed.rows[:, 1]
    merged, means = _mean_by_key(verts, values)
    if len(merged) < len(verts):
        warnings.warn(
            f"{len(verts) - len(merged)} sample row(s) landed on already-occupied "
            f"vertices; merged by mean", stacklevel=2)
    return dict(zip(merged.tolist(), means.tolist()))


def sample_coords(parsed: ParsedSamples, domain: Domain) -> np.ndarray:
    """(x, y, value) rows for pointwise methods, from either CSV flavor."""
    if parsed.kind == "xy":
        return np.array(parsed.rows)
    if domain.coords is None:
        raise ValueError("vertex,value samples on a domain without coordinates "
                         "cannot feed coordinate-based methods")
    verts = _ids(parsed.rows[:, 0], "sample vertex ids", domain.vertex_count)
    return np.column_stack([domain.coords[verts], parsed.rows[:, 1]])


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
    """(values, level indices or None) of a field CSV, read line by line; a
    malformed row, or one whose vertex breaks the order 0..N-1, raises
    naming its line."""
    names, records = _csv_records(path, "field",
                                  ("vertex,index,value", "vertex,value"))
    with_index = names == "vertex,index,value"
    idxs, vals = [], []
    for lineno, parts in records:
        if len(parts) != (3 if with_index else 2):
            raise ValueError(f"{path}: line {lineno}: wrong column count")
        try:
            vertex = int(parts[0])
            if with_index:
                idxs.append(int(parts[1]))
            vals.append(float(parts[-1]))
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: non-numeric entry") from None
        if vertex != len(vals) - 1:
            raise ValueError(f"{path}: line {lineno}: expected vertex "
                             f"{len(vals) - 1}, got {vertex}")
    return (np.array(vals, dtype=np.float64),
            _ids(idxs, "level indices") if with_index else None)


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
        lineno = _record_line(path, int(np.argmin(finite)) + 1)
        raise ValueError(f"{path}: line {lineno}: non-finite value")
    return FieldCsv(values=values, indices=indices)


def write_metrics_json(path, payload: dict) -> None:
    """Write a metrics dict as versioned JSON (schema: 1), atomically."""
    body = dict(payload)
    body["schema"] = 1
    atomic_write_text(path, json.dumps(body, indent=2, sort_keys=True) + "\n")


def read_edge_list(path) -> tuple[int, np.ndarray]:
    """Parse a plain-text graph: `vertices N` (N >= 1), then one `a b` edge
    per line that joins two distinct ids in 0..N-1."""
    count = None
    edges = []
    for lineno, tokens in _records(path):
        if count is None:
            if len(tokens) == 2 and tokens[0].lower() == "vertices":
                try:
                    count = int(tokens[1])
                except ValueError:
                    count = 0
                if count < 1:
                    raise ValueError(f"{path}: line {lineno}: bad vertex count"
                                     f" {tokens[1]!r}; need a positive integer")
                continue
            raise ValueError(
                f"{path}: line {lineno}: expected 'vertices N' first")
        if len(tokens) != 2:
            raise ValueError(f"{path}: line {lineno}: expected 'a b'")
        try:
            a, b = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ValueError(
                f"{path}: line {lineno}: non-integer vertex id") from None
        if a == b or not (0 <= a < count and 0 <= b < count):
            raise ValueError(f"{path}: line {lineno}: edge {a} {b} must join "
                             f"two distinct vertex ids in 0..{count - 1}")
        edges.append((a, b))
    if count is None:
        raise ValueError(f"{path}: missing 'vertices N' line")
    # An id past int64 (its count is too) clips to 2**60, which no Domain holds.
    return count, _ids(edges, "edge vertex ids").reshape(-1, 2)
