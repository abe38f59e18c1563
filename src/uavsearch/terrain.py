"""Elevation grids, bilinear terrain queries and line-of-sight tests.

Grids are regular, axis-aligned and cell-centered: the value stored for
cell (row, col) is the ground elevation at that cell's center point.
Internally row 0 is the southernmost row (y grows with the row index);
the ASCII grid file format stores the top row first and is flipped on
load. Queries interpolate bilinearly between the four surrounding cell
centers, so only points in the grid's cell-center hull can be queried:
the hull is half a cell smaller than the file's outer footprint on each
side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .domain import GridSpec, _bilinear_point, _bilinear_support, _blend
from .errors import TerrainError

# Header keys of the ASCII grid format, in the order they must appear.
_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")


@dataclass(frozen=True)
class TerrainGrid(GridSpec):
    """A cell-centered elevation grid: a GridSpec with an elevation per cell.

    elevations has shape (nrows, ncols) with row 0 at the south edge.
    Cells equal to nodata are carried through loading but any query
    whose bilinear support touches one raises TerrainError, as does a
    query outside the cell-center hull (in_hull); the inherited contains
    tests the outer rectangle, half a cell wider on each side.
    min_elevation is the lowest valid elevation (inf when no cell is
    valid) and has_nodata whether any cell holds nodata, both derived
    once at construction. The grid is frozen and keeps a read-only copy
    of elevations, so the derived fields cannot go stale.
    """

    nodata: float
    elevations: np.ndarray
    min_elevation: float = field(init=False, repr=False, compare=False)
    has_nodata: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.ncols < 2 or self.nrows < 2:
            raise TerrainError("terrain grid needs at least 2x2 cells")
        if not self.cell_size > 0:
            raise TerrainError("terrain cell size must be positive")
        super().__post_init__()
        elevations = np.array(self.elevations, dtype=float)
        elevations.flags.writeable = False
        if elevations.shape != self.shape:
            raise TerrainError(
                f"elevation array shape {elevations.shape} does not match "
                f"nrows={self.nrows}, ncols={self.ncols}"
            )
        data = elevations[elevations != self.nodata]
        if data.size and not np.all(np.isfinite(data)):
            raise TerrainError("elevation grid contains non-finite values")
        object.__setattr__(self, "elevations", elevations)
        object.__setattr__(self, "min_elevation", float(data.min()) if data.size else math.inf)
        object.__setattr__(self, "has_nodata", data.size < elevations.size)


def load_terrain(path) -> TerrainGrid:
    """Parse an ASCII elevation grid file.

    The file starts with six 'key value' header lines (ncols, nrows,
    xllcorner, yllcorner, cellsize, NODATA_value, in that order, keys
    case-insensitive) followed by nrows rows of ncols elevations, top
    row first. Raises TerrainError with the offending line number on
    malformed input.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()

    header: dict[str, float] = {}
    for lineno, key in enumerate(_HEADER_KEYS, start=1):
        if lineno > len(lines):
            raise TerrainError(f"line {lineno}: missing header line '{key}'")
        parts = lines[lineno - 1].split()
        if len(parts) != 2 or parts[0].lower() != key:
            raise TerrainError(
                f"line {lineno}: expected header '{key} <value>', got {lines[lineno - 1]!r}"
            )
        try:
            header[key] = float(parts[1])
        except ValueError:
            raise TerrainError(f"line {lineno}: cannot parse value for '{key}'") from None

    ncols = int(header["ncols"])
    nrows = int(header["nrows"])
    if ncols != header["ncols"] or nrows != header["nrows"]:
        raise TerrainError("ncols and nrows must be integers")

    rows: list[np.ndarray] = []
    body = lines[len(_HEADER_KEYS):]
    for i, line in enumerate(body):
        lineno = len(_HEADER_KEYS) + i + 1
        if not line.strip():
            if any(l.strip() for l in body[i + 1:]):
                raise TerrainError(f"line {lineno}: blank line inside data block")
            break
        if len(rows) == nrows:
            raise TerrainError(f"line {lineno}: more data rows than nrows={nrows}")
        try:
            row = np.array(line.split(), dtype=float)
        except ValueError:
            raise TerrainError(f"line {lineno}: cannot parse elevation row") from None
        if row.size != ncols:
            raise TerrainError(
                f"line {lineno}: expected {ncols} values, got {row.size}"
            )
        rows.append(row)
    if len(rows) != nrows:
        raise TerrainError(f"expected {nrows} data rows, found {len(rows)}")

    # File stores the top (northernmost) row first; flip to row 0 = south.
    elevations = np.flipud(np.vstack(rows))
    return TerrainGrid(
        ncols=ncols,
        nrows=nrows,
        x_origin=header["xllcorner"],
        y_origin=header["yllcorner"],
        cell_size=header["cellsize"],
        nodata=header["nodata_value"],
        elevations=elevations,
    )


def save_terrain(grid: TerrainGrid, path, fmt: str = "%.2f") -> None:
    """Write a TerrainGrid in the ASCII format accepted by load_terrain."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"ncols {grid.ncols}\n")
        fh.write(f"nrows {grid.nrows}\n")
        fh.write(f"xllcorner {grid.x_origin:.6g}\n")
        fh.write(f"yllcorner {grid.y_origin:.6g}\n")
        fh.write(f"cellsize {grid.cell_size:.6g}\n")
        fh.write(f"NODATA_value {grid.nodata:.6g}\n")
        for row in np.flipud(grid.elevations):
            fh.write(" ".join(fmt % v for v in row))
            fh.write("\n")


def first_nodata_under(grid: TerrainGrid, rect) -> tuple[int, int] | None:
    """(row, col) of the first nodata cell that supports a query inside
    rect (xmin, xmax, ymin, ymax), or None when there is none."""
    j0, j1, i0, i1, _, _ = _bilinear_support(grid, np.array(rect[:2]), np.array(rect[2:]))
    bad = np.argwhere(grid.elevations[j0[0]:j1[1] + 1, i0[0]:i1[1] + 1] == grid.nodata)
    return (int(bad[0][0] + j0[0]), int(bad[0][1] + i0[0])) if bad.size else None


def _check_inside(grid: TerrainGrid, x: np.ndarray, y: np.ndarray) -> None:
    inside = grid.in_hull(x, y)
    if not np.all(inside):
        bad = np.argwhere(~inside)[0]
        raise TerrainError(
            f"query point ({x[tuple(bad)]:g}, {y[tuple(bad)]:g}) outside terrain extent "
            f"{grid.hull}"
        )


def _interpolate(grid: TerrainGrid, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Bilinear ground at points already checked to lie inside the hull."""
    j0, j1, i0, i1, tx, ty = _bilinear_support(grid, x, y)
    e = grid.elevations
    corners = (e[j0, i0], e[j0, i1], e[j1, i0], e[j1, i1])
    if grid.has_nodata and any(np.any(z == grid.nodata) for z in corners):
        raise TerrainError("query point supported by a nodata cell")
    return _blend(*corners, tx, ty)


def elevation_at(grid: TerrainGrid, x, y):
    """Bilinear ground elevation at (x, y). Accepts scalars or arrays.

    Raises TerrainError if any query point falls outside the cell-center
    hull or if any of the four supporting cells holds the nodata value.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    scalar = x.ndim == 0 and y.ndim == 0
    x, y = np.broadcast_arrays(np.atleast_1d(x), np.atleast_1d(y))
    _check_inside(grid, x, y)
    z = _interpolate(grid, x, y)
    return float(z[0]) if scalar else z


def ground_at(grid: TerrainGrid, x: float, y: float) -> float:
    """elevation_at of one point the caller knows to lie inside the
    cell-center hull, in plain floats: the same support and blend, so
    the same float, without numpy's per-call overhead. A nodata corner
    still raises TerrainError."""
    j0, j1, i0, i1, tx, ty = _bilinear_point(grid, x, y)
    e = grid.elevations
    corners = (e.item(j0, i0), e.item(j0, i1), e.item(j1, i0), e.item(j1, i1))
    if grid.has_nodata and grid.nodata in corners:
        raise TerrainError("query point supported by a nodata cell")
    return _blend(*corners, tx, ty)


def ground_under(grid: TerrainGrid, cells: GridSpec) -> np.ndarray:
    """elevation_at at every cell center of cells, shape cells.shape.

    The centers form a rectangle, so checking the hull at its corners
    checks them all. A row of centers broadcasts against a column, with
    elevation_at's arithmetic per element, in bands of about 2048 cells
    so that the temporaries stay small.
    """
    xs, ys = cells.x_centers, cells.y_centers
    _check_inside(grid, xs[[0, -1, 0, -1]], ys[[0, 0, -1, -1]])
    ground = np.empty(cells.shape)
    band = max(1, 2048 // cells.ncols)
    for row in range(0, cells.nrows, band):
        ground[row:row + band] = _interpolate(grid, xs[None, :], ys[row:row + band, None])
    return ground


def clear_rays(grid: TerrainGrid, origin, targets) -> np.ndarray:
    """Line-of-sight verdicts from one 3D origin to each row of an (m, 3)
    target array, as a boolean array of length m.

    With step half the grid cell size, each ray gets its own
    n = ceil(length / step) and is sampled at t = j / n for 0 < j < n,
    so its samples are spaced at most step apart and lie strictly
    between the endpoints: a target lying on the ground does not occlude
    itself and the origin is never tested, and a ray shorter than step
    is always clear. A sample passes when its height is >= the interpolated
    ground elevation, with elevation_at's arithmetic. The hull is
    checked on the endpoints only: it is convex, so every sample of a
    ray whose endpoints lie inside it lies inside too.
    """
    step = 0.5 * grid.cell_size
    p0 = np.asarray(origin, dtype=float)
    points = np.asarray(targets, dtype=float).reshape(-1, 3)
    ends = np.concatenate([points[:, :2], p0[None, :2]])
    _check_inside(grid, ends[:, 0], ends[:, 1])
    delta = points - p0
    # np.linalg.norm(delta, axis=1), without its dispatch
    n = np.maximum(1, np.ceil(np.sqrt(np.add.reduce(delta * delta, axis=1)) / step).astype(int))
    counts = n - 1
    ray = np.repeat(np.arange(n.size), counts)
    first = np.cumsum(counts) - counts  # index of each ray's first sample
    t = (np.arange(ray.size) - first[ray] + 1) / n[ray]
    samples = p0 + t[:, None] * delta[ray]
    passed = samples[:, 2] >= _interpolate(grid, samples[:, 0], samples[:, 1])
    clear = np.ones(n.size, dtype=bool)
    clear[ray[~passed]] = False
    return clear


def line_of_sight(grid: TerrainGrid, p_from, p_to) -> bool:
    """True when the straight segment from p_from to p_to clears the terrain.

    The one-ray case of clear_rays, with both points 3D. The verdict is
    symmetric in the two endpoints.
    """
    return bool(clear_rays(grid, p_from, [p_to])[0])

