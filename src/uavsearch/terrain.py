"""Elevation grids, bilinear terrain queries and line-of-sight tests.

Grids are regular, axis-aligned and cell-centered: the value stored for
cell (row, col) is the ground elevation at that cell's center point.
Internally row 0 is the southernmost row (y grows with the row index);
the ASCII grid file format stores the top row first and is flipped on
load. Queries interpolate bilinearly between the four surrounding cell
centers, so the queryable extent is the hull of the center points, half
a cell smaller than the file's outer footprint on each side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import TerrainError

# Header keys of the ASCII grid format, in the order they must appear.
_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")


@dataclass
class TerrainGrid:
    """A cell-centered elevation grid.

    elevations has shape (nrows, ncols) with row 0 at the south edge.
    Cells equal to nodata are carried through loading but any query
    whose bilinear support touches one raises TerrainError.
    min_elevation is the lowest valid elevation (inf when no cell is
    valid), taken once at construction.
    """

    ncols: int
    nrows: int
    xllcorner: float
    yllcorner: float
    cell_size: float
    nodata: float
    elevations: np.ndarray
    min_elevation: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.ncols < 2 or self.nrows < 2:
            raise TerrainError("terrain grid needs at least 2x2 cells")
        if not self.cell_size > 0:
            raise TerrainError("terrain cell size must be positive")
        self.elevations = np.asarray(self.elevations, dtype=float)
        if self.elevations.shape != (self.nrows, self.ncols):
            raise TerrainError(
                f"elevation array shape {self.elevations.shape} does not match "
                f"nrows={self.nrows}, ncols={self.ncols}"
            )
        data = self.elevations[self.elevations != self.nodata]
        if data.size and not np.all(np.isfinite(data)):
            raise TerrainError("elevation grid contains non-finite values")
        self.min_elevation = float(data.min()) if data.size else math.inf

    @property
    def x_centers(self) -> np.ndarray:
        return self.xllcorner + (np.arange(self.ncols) + 0.5) * self.cell_size

    @property
    def y_centers(self) -> np.ndarray:
        return self.yllcorner + (np.arange(self.nrows) + 0.5) * self.cell_size

    @property
    def extent(self) -> tuple[float, float, float, float]:
        """Queryable extent (xmin, xmax, ymin, ymax): the cell-center hull."""
        half = 0.5 * self.cell_size
        return (
            self.xllcorner + half,
            self.xllcorner + (self.ncols - 0.5) * self.cell_size,
            self.yllcorner + half,
            self.yllcorner + (self.nrows - 0.5) * self.cell_size,
        )

    def contains(self, x, y) -> np.ndarray:
        xmin, xmax, ymin, ymax = self.extent
        return (np.asarray(x) >= xmin) & (np.asarray(x) <= xmax) \
            & (np.asarray(y) >= ymin) & (np.asarray(y) <= ymax)

    def describe(self) -> str:
        zmin = float(np.min(self.elevations))
        zmax = float(np.max(self.elevations))
        return (
            f"{self.ncols}x{self.nrows} cells at {self.cell_size:g} m, "
            f"lower-left corner ({self.xllcorner:g}, {self.yllcorner:g}), "
            f"elevation {zmin:g}..{zmax:g} m, nodata {self.nodata:g}"
        )


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
            row = np.array([float(tok) for tok in line.split()], dtype=float)
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
        xllcorner=header["xllcorner"],
        yllcorner=header["yllcorner"],
        cell_size=header["cellsize"],
        nodata=header["nodata_value"],
        elevations=elevations,
    )


def save_terrain(grid: TerrainGrid, path, fmt: str = "%.2f") -> None:
    """Write a TerrainGrid in the ASCII format accepted by load_terrain."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"ncols {grid.ncols}\n")
        fh.write(f"nrows {grid.nrows}\n")
        fh.write(f"xllcorner {grid.xllcorner:.6g}\n")
        fh.write(f"yllcorner {grid.yllcorner:.6g}\n")
        fh.write(f"cellsize {grid.cell_size:.6g}\n")
        fh.write(f"NODATA_value {grid.nodata:.6g}\n")
        for row in np.flipud(grid.elevations):
            fh.write(" ".join(fmt % v for v in row))
            fh.write("\n")


def _support_corner(grid: TerrainGrid, x, y):
    """Lower-left supporting cell (i0, j0) of bilinear queries at (x, y),
    with the fractional cell coordinates (fx, fy)."""
    fx = (x - (grid.xllcorner + 0.5 * grid.cell_size)) / grid.cell_size
    fy = (y - (grid.yllcorner + 0.5 * grid.cell_size)) / grid.cell_size
    i0 = np.clip(np.floor(fx).astype(int), 0, grid.ncols - 2)
    j0 = np.clip(np.floor(fy).astype(int), 0, grid.nrows - 2)
    return i0, j0, fx, fy


def first_nodata_under(grid: TerrainGrid, rect) -> tuple[int, int] | None:
    """(row, col) of the first nodata cell that supports a query inside
    rect (xmin, xmax, ymin, ymax), or None when there is none."""
    (c0, c1), (r0, r1), _, _ = _support_corner(grid, np.array(rect[:2]), np.array(rect[2:]))
    bad = np.argwhere(grid.elevations[r0:r1 + 2, c0:c1 + 2] == grid.nodata)
    return (int(bad[0][0]) + r0, int(bad[0][1]) + c0) if bad.size else None


def elevation_at(grid: TerrainGrid, x, y):
    """Bilinear ground elevation at (x, y). Accepts scalars or arrays.

    Raises TerrainError if any query point falls outside the cell-center
    hull or if any of the four supporting cells holds the nodata value.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    scalar = x.ndim == 0 and y.ndim == 0
    x, y = np.broadcast_arrays(np.atleast_1d(x), np.atleast_1d(y))

    inside = grid.contains(x, y)
    if not np.all(inside):
        bad = np.argwhere(~inside)[0]
        raise TerrainError(
            f"query point ({x[tuple(bad)]:g}, {y[tuple(bad)]:g}) outside terrain extent "
            f"{grid.extent}"
        )

    i0, j0, fx, fy = _support_corner(grid, x, y)
    tx = fx - i0
    ty = fy - j0

    z00 = grid.elevations[j0, i0]
    z10 = grid.elevations[j0, i0 + 1]
    z01 = grid.elevations[j0 + 1, i0]
    z11 = grid.elevations[j0 + 1, i0 + 1]
    support = np.stack([z00, z10, z01, z11])
    if np.any(support == grid.nodata):
        raise TerrainError("query point supported by a nodata cell")

    z = (
        z00 * (1 - tx) * (1 - ty)
        + z10 * tx * (1 - ty)
        + z01 * (1 - tx) * ty
        + z11 * tx * ty
    )
    return float(z[0]) if scalar else z.reshape(np.broadcast(x, y).shape)


def relative_height(grid: TerrainGrid, position) -> float:
    """Height of a 3D position above the terrain directly below it."""
    x, y, z = position
    return float(z) - elevation_at(grid, float(x), float(y))


def line_of_sight(grid: TerrainGrid, p_from, p_to, step: float | None = None) -> bool:
    """True when the straight segment from p_from to p_to clears the terrain.

    Both points are 3D. Sample points are spaced at most `step` apart
    (default: half the grid cell size) and strictly between the
    endpoints, so a target lying on the ground does not occlude itself
    and the camera's own position is never tested. A sample passes when
    its height is >= the interpolated ground elevation. The verdict is
    symmetric in the two endpoints.
    """
    if step is None:
        step = 0.5 * grid.cell_size
    if not step > 0:
        raise TerrainError("line-of-sight step must be positive")
    p0 = np.asarray(p_from, dtype=float)
    p1 = np.asarray(p_to, dtype=float)
    dist = float(np.linalg.norm(p1 - p0))
    n = max(1, math.ceil(dist / step))
    if n == 1:
        return True
    t = np.arange(1, n) / n
    xs = p0[0] + t * (p1[0] - p0[0])
    ys = p0[1] + t * (p1[1] - p0[1])
    zs = p0[2] + t * (p1[2] - p0[2])
    ground = elevation_at(grid, xs, ys)
    return bool(np.all(zs >= ground))


@dataclass(frozen=True)
class HomePoint:
    """Launch point used to anchor flights and convert heights.

    ground_elevation is the interpolated terrain height at (x, y), so
    absolute altitude = ground_elevation + height above ground.
    """

    x: float
    y: float
    ground_elevation: float

    @classmethod
    def from_terrain(cls, grid: TerrainGrid, x: float, y: float) -> "HomePoint":
        return cls(x=x, y=y, ground_elevation=elevation_at(grid, x, y))
