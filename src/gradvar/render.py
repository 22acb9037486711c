"""Image and mesh exports for grid fields.

Formats are deliberately minimal and dependency-free: binary PPM (P6)
heatmaps, 16-bit binary PGM (P5) height images that round-trip through
a range comment in the header, and OBJ height meshes.
"""

from __future__ import annotations

import numpy as np

from .domain import GridSpec
from .fields import ScalarField
from .fileio import atomic_write_bytes, atomic_write_text


def _grid_values(field: ScalarField, grid: GridSpec) -> np.ndarray:
    if field.domain.vertex_count != grid.vertex_count:
        raise ValueError("field length does not match the grid; "
                         "rendering needs a grid domain")
    return field.values.reshape(grid.height, grid.width)


def render_heatmap(field: ScalarField, grid: GridSpec, path) -> None:
    """Write a binary PPM with a linear blue-to-red map over [min, max].

    The lowest value renders pure blue (0, 0, 255), the highest pure red
    (255, 0, 0); a constant field renders mid-gray.
    """
    z = _grid_values(field, grid)
    lo, hi = float(z.min()), float(z.max())
    if hi == lo:
        rgb = np.full((grid.height, grid.width, 3), 128, dtype=np.uint8)
    else:
        t = (z - lo) / (hi - lo)
        rgb = np.empty((grid.height, grid.width, 3), dtype=np.uint8)
        rgb[..., 0] = np.rint(255 * t).astype(np.uint8)
        rgb[..., 1] = 0
        rgb[..., 2] = np.rint(255 * (1 - t)).astype(np.uint8)
    header = f"P6\n{grid.width} {grid.height}\n255\n".encode("ascii")
    atomic_write_bytes(path, header + rgb.tobytes())


def render_pgm16(field: ScalarField, grid: GridSpec, path) -> None:
    """Write a 16-bit binary PGM with the value range kept in a comment.

    Pixels are round(65535 * (v - min) / (max - min)), big-endian.  The
    `# range <min> <max>` comment lets read_pgm16 map pixels back to
    values, so a round-trip recovers the field within (max-min)/65535.
    """
    z = _grid_values(field, grid)
    lo, hi = float(z.min()), float(z.max())
    if hi == lo:
        pix = np.zeros((grid.height, grid.width), dtype=">u2")
    else:
        t = (z - lo) / (hi - lo)
        pix = np.rint(65535 * t).astype(">u2")
    header = (f"P5\n# range {lo!r} {hi!r}\n"
              f"{grid.width} {grid.height}\n65535\n").encode("ascii")
    atomic_write_bytes(path, header + pix.tobytes())


def _read_pnm_header(data: bytes, magic: bytes):
    """Parse a PNM header, honoring # comments; returns tokens and offset."""
    if not data.startswith(magic):
        raise ValueError(f"not a {magic.decode()} file")
    tokens: list[bytes] = []
    comments: list[bytes] = []
    pos = 2
    while len(tokens) < 3:
        if pos >= len(data):
            raise ValueError("truncated header")
        ch = data[pos:pos + 1]
        if ch == b"#":
            end = data.index(b"\n", pos)
            comments.append(data[pos + 1:end].strip())
            pos = end + 1
        elif ch.isspace():
            pos += 1
        else:
            end = pos
            while end < len(data) and not data[end:end + 1].isspace():
                end += 1
            tokens.append(data[pos:end])
            pos = end
    return [int(t) for t in tokens], comments, pos + 1


def read_ppm(path) -> np.ndarray:
    """Read a binary P6 PPM into an (height, width, 3) uint8 array."""
    with open(path, "rb") as fh:
        data = fh.read()
    (width, height, maxval), _, off = _read_pnm_header(data, b"P6")
    if maxval != 255:
        raise ValueError("only 8-bit PPM supported")
    return np.frombuffer(data, dtype=np.uint8, count=width * height * 3,
                         offset=off).reshape(height, width, 3)


def read_pgm16(path) -> tuple[np.ndarray, tuple[float, float]]:
    """Read a render_pgm16 file back into values.

    Returns the (height, width) float array reconstructed through the
    range comment, plus the (min, max) pair itself.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    (width, height, maxval), comments, off = _read_pnm_header(data, b"P5")
    if maxval != 65535:
        raise ValueError("expected a 16-bit PGM")
    rng = None
    for c in comments:
        parts = c.split()
        if len(parts) == 3 and parts[0] == b"range":
            rng = (float(parts[1]), float(parts[2]))
    if rng is None:
        raise ValueError("missing range comment; cannot map pixels to values")
    pix = np.frombuffer(data, dtype=">u2", count=width * height,
                        offset=off).reshape(height, width)
    lo, hi = rng
    values = lo + (pix.astype(np.float64) / 65535.0) * (hi - lo)
    return values, rng


def render_heightmesh(field: ScalarField, grid: GridSpec, path) -> None:
    """Write an OBJ surface with one vertex per grid point.

    Vertices sit at (x, y, value); each grid cell becomes two triangles,
    so a WxH grid yields W*H vertices and 2(W-1)(H-1) faces.
    """
    z = _grid_values(field, grid)
    xs = [repr(c * grid.spacing) for c in range(grid.width)]
    rows = []
    for r, zrow in enumerate(z.tolist()):
        y = repr(r * grid.spacing)
        rows.append("".join([f"v {x} {y} {v!r}\n" for x, v in zip(xs, zrow)]))
    # Per cell: (v00, v10, v11) and (v00, v11, v01), 1-based row-major ids;
    # one %-format pass per row of cells keeps the int objects few.
    v00 = (np.arange(grid.height - 1)[:, None] * grid.width
           + np.arange(grid.width - 1)[None, :] + 1)
    v01 = v00 + grid.width
    faces = np.stack([v00, v00 + 1, v01 + 1, v00, v01 + 1, v01], axis=2)
    template = "f %d %d %d\n" * (2 * (grid.width - 1))
    rows.extend(template % tuple(cells.tolist()) for cells in
                faces.reshape(grid.height - 1, 6 * (grid.width - 1)))
    atomic_write_text(path, "".join(rows))
