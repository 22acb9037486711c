"""Image and mesh exports for grid fields.

Formats are deliberately minimal and dependency-free: binary PPM (P6)
heatmaps, 16-bit binary PGM (P5) height images whose header comment
records the value range, and OBJ height meshes.
"""

from __future__ import annotations

import numpy as np

from .fields import ScalarField
from .fileio import _atomic_write_chunks, _distinct_cells, atomic_write_bytes


def _grid_values(field: ScalarField):
    """The field's grid and its values as a height x width array."""
    grid = field.domain.grid
    if grid is None:
        raise ValueError("rendering needs a grid domain")
    return grid, field.values.reshape(grid.height, grid.width)


def render_heatmap(field: ScalarField, path) -> None:
    """Write a binary PPM with a linear blue-to-red map over [min, max].

    The lowest value renders pure blue (0, 0, 255), the highest pure red
    (255, 0, 0); a constant field renders mid-gray.
    """
    grid, z = _grid_values(field)
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


def render_pgm16(field: ScalarField, path) -> None:
    """Write a 16-bit binary PGM with the value range kept in a comment.

    Pixels are round(65535 * (v - min) / (max - min)), big-endian.  The
    `# range <min> <max>` comment records the value range, so a reader can
    map pixels back to values within (max-min)/65535.
    """
    grid, z = _grid_values(field)
    lo, hi = float(z.min()), float(z.max())
    t = (z - lo) / (hi - lo) if hi > lo else np.zeros_like(z)
    pix = np.rint(65535 * t).astype(">u2")
    header = (f"P5\n# range {lo!r} {hi!r}\n"
              f"{grid.width} {grid.height}\n65535\n").encode("ascii")
    atomic_write_bytes(path, header + pix.tobytes())


def render_heightmesh(field: ScalarField, path) -> None:
    """Write an OBJ surface with one vertex per grid point.

    Vertices sit at (x, y, value); each grid cell becomes two triangles,
    so a WxH grid yields W*H vertices and 2(W-1)(H-1) faces.  Floats go
    by repr; a level field's few distinct heights are formatted once per bit
    pattern (-0.0 apart from 0.0) and gathered, see :func:`_distinct_cells`.
    The text goes out in blocks of about 2**16 vertices' rows, so a large
    grid's OBJ is never held whole.
    """
    grid = _grid_values(field)[0]
    w, h = grid.width, grid.height
    block = max(1, (1 << 16) // w)   # rows per chunk
    xs = [f"v {c * grid.spacing!r} " for c in range(w)]
    # Per cell: (v00, v10, v11) and (v00, v11, v01), 1-based row-major ids;
    # one %-format pass per row of cells keeps the int objects few.
    template = "f %d %d %d\n" * (2 * (w - 1))

    def chunks():
        for lo in range(0, h, block):
            values = field.values[lo * w:(lo + block) * w]
            zs = _distinct_cells(repr, values.view(np.int64), values)
            rows = []
            for r in range(lo, min(lo + block, h)):
                y, row = f"{r * grid.spacing!r} ", zs[(r - lo) * w:(r - lo + 1) * w]
                rows.append("".join([f"{x}{y}{z}\n" for x, z in zip(xs, row)]))
            yield "".join(rows).encode()
        for lo in range(0, h - 1, block):
            v00 = (np.arange(lo, min(lo + block, h - 1))[:, None] * w
                   + np.arange(w - 1)[None, :] + 1)
            v01 = v00 + w
            faces = np.stack([v00, v00 + 1, v01 + 1, v00, v01 + 1, v01], axis=2)
            yield "".join([template % tuple(cells.tolist())
                           for cells in faces.reshape(len(v00), -1)]).encode()

    _atomic_write_chunks(path, chunks())
