"""Search zones, the flight domain and the initial probability density.

A mission defines one or more polygonal search zones, each with the
number of people it is assigned. The flight domain is the axis-aligned
bounding rectangle of all zones grown by a safety offset, discretized
into a regular cell grid. The initial density spreads each zone's share
of the total probability mass uniformly over the cells whose centers
fall inside that zone, using the discretized zone area so the density
integrates to exactly one over the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import UavSearchError


class DomainError(UavSearchError):
    """Invalid zone geometry or density construction input."""


@dataclass(frozen=True)
class GridSpec:
    """Regular cell grid: origin is the outer corner of cell (0, 0).

    Cell (row, col) has its center at origin + (col + 0.5, row + 0.5) * cell_size,
    row 0 being the southernmost row. Value arrays over this grid use
    shape (nrows, ncols). x_centers and y_centers, the read-only
    cell-center coordinates along each axis, are derived once at
    construction.
    """

    x_origin: float
    y_origin: float
    cell_size: float
    ncols: int
    nrows: int
    x_centers: np.ndarray = field(init=False, repr=False, compare=False)
    y_centers: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.cell_size > 0:
            raise DomainError("grid cell size must be positive")
        if self.ncols < 1 or self.nrows < 1:
            raise DomainError("grid must have at least one cell per axis")
        for name, origin, count in (("x_centers", self.x_origin, self.ncols),
                                    ("y_centers", self.y_origin, self.nrows)):
            centers = origin + (np.arange(count) + 0.5) * self.cell_size
            centers.flags.writeable = False
            object.__setattr__(self, name, centers)

    @property
    def cell_area(self) -> float:
        return self.cell_size * self.cell_size

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def width(self) -> float:
        return self.ncols * self.cell_size

    @property
    def height(self) -> float:
        return self.nrows * self.cell_size

    @property
    def rect(self) -> tuple[float, float, float, float]:
        """Outer rectangle (xmin, xmax, ymin, ymax) covered by the grid."""
        return (
            self.x_origin,
            self.x_origin + self.width,
            self.y_origin,
            self.y_origin + self.height,
        )

    def contains(self, x, y) -> np.ndarray:
        xmin, xmax, ymin, ymax = self.rect
        return (np.asarray(x) >= xmin) & (np.asarray(x) <= xmax) \
            & (np.asarray(y) >= ymin) & (np.asarray(y) <= ymax)

    def cell_index(self, x: float, y: float) -> tuple[int, int]:
        """(row, col) of the cell containing (x, y); points on the outer
        east/north edge map to the last cell."""
        if not bool(self.contains(x, y)):
            raise DomainError(f"point ({x:g}, {y:g}) outside grid rectangle {self.rect}")
        col = min(int((x - self.x_origin) / self.cell_size), self.ncols - 1)
        row = min(int((y - self.y_origin) / self.cell_size), self.nrows - 1)
        return row, col

    def window(self, x: float, y: float, reach: float) -> tuple[slice, slice]:
        """Row and column slices of the cells whose centers lie within
        reach of (x, y) along each axis."""
        xs, ys = self.x_centers, self.y_centers
        return (slice(int(np.searchsorted(ys, y - reach, side="left")),
                      int(np.searchsorted(ys, y + reach, side="right"))),
                slice(int(np.searchsorted(xs, x - reach, side="left")),
                      int(np.searchsorted(xs, x + reach, side="right"))))

    def center_mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """Cell-center coordinate arrays of shape (nrows, ncols)."""
        return np.meshgrid(self.x_centers, self.y_centers)


def polygon_area(vertices: np.ndarray) -> float:
    """Unsigned shoelace area of a simple polygon."""
    v = np.asarray(vertices, dtype=float)
    x, y = v[:, 0], v[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def _segments_cross(a0, a1, b0, b1) -> bool:
    """Proper intersection test for two segments (shared endpoints ignored)."""
    def orient(p, q, r):
        return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

    d1 = orient(b0, b1, a0)
    d2 = orient(b0, b1, a1)
    d3 = orient(a0, a1, b0)
    d4 = orient(a0, a1, b1)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


@dataclass(frozen=True)
class Zone:
    """A simple (non self-intersecting) search polygon with its people count."""

    zone_id: str
    polygon: np.ndarray
    person_count: int
    area: float = field(init=False)

    def __post_init__(self) -> None:
        poly = np.asarray(self.polygon, dtype=float)
        if poly.ndim != 2 or poly.shape[1] != 2 or poly.shape[0] < 3:
            raise DomainError(f"zone {self.zone_id!r}: polygon needs at least 3 vertices")
        area = polygon_area(poly)
        if not area > 0:
            raise DomainError(f"zone {self.zone_id!r}: polygon area is zero")
        n = poly.shape[0]
        for i in range(n):
            for j in range(i + 1, n):
                # skip edges sharing a vertex (adjacent, and the closing pair)
                if abs(i - j) in (1, n - 1):
                    continue
                if _segments_cross(poly[i], poly[(i + 1) % n], poly[j], poly[(j + 1) % n]):
                    raise DomainError(f"zone {self.zone_id!r}: polygon self-intersects")
        if self.person_count < 0:
            raise DomainError(f"zone {self.zone_id!r}: person_count must be >= 0")
        object.__setattr__(self, "polygon", poly)
        object.__setattr__(self, "area", area)


def points_in_polygon(polygon: np.ndarray, x, y, eps: float = 1e-9) -> np.ndarray:
    """Vectorized even-odd point-in-polygon test, boundary inclusive.

    Points within eps (absolute, in coordinate units) of an edge count
    as inside. x and y may be any matching-shape arrays, or scalars for
    a single bool.
    """
    poly = np.asarray(polygon, dtype=float)
    if poly.ndim != 2 or poly.shape[1] != 2 or poly.shape[0] < 3:
        raise DomainError("polygon needs at least 3 vertices")
    if not polygon_area(poly) > 0:
        raise DomainError("degenerate polygon (zero area)")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    shape = np.broadcast(x, y).shape
    px = np.ravel(np.broadcast_to(x, shape)).astype(float)
    py = np.ravel(np.broadcast_to(y, shape)).astype(float)

    inside = np.zeros(px.shape, dtype=bool)
    boundary = np.zeros(px.shape, dtype=bool)
    n = poly.shape[0]
    for k in range(n):
        x1, y1 = poly[k]
        x2, y2 = poly[(k + 1) % n]
        # distance from point to the segment, for the boundary test
        dx, dy = x2 - x1, y2 - y1
        seg2 = dx * dx + dy * dy
        t = np.clip(((px - x1) * dx + (py - y1) * dy) / seg2, 0.0, 1.0)
        d2 = (px - (x1 + t * dx)) ** 2 + (py - (y1 + t * dy)) ** 2
        boundary |= d2 <= eps * eps
        # half-open crossing rule: count edges as [y1, y2)
        crosses = (y1 > py) != (y2 > py)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_cross = x1 + (py - y1) / (y2 - y1) * dx
        inside ^= crosses & (px < np.where(crosses, x_cross, np.inf))
    result = inside | boundary
    return result.reshape(shape) if shape else bool(result[0])


@dataclass(frozen=True)
class SearchDomain:
    """The rectangle the UAV may fly over, with its discretization grid."""

    zones: tuple[Zone, ...]
    offset: float
    boundary: np.ndarray  # 4x2 rectangle corners, counter-clockwise
    grid: GridSpec

    @property
    def center(self) -> tuple[float, float]:
        xmin, xmax, ymin, ymax = self.grid.rect
        return (0.5 * (xmin + xmax), 0.5 * (ymin + ymax))


def build_flight_domain(zones, offset: float, cell_size: float = 10.0) -> SearchDomain:
    """Axis-aligned bounding rectangle of all zones grown by offset.

    The grid origin is the rectangle's lower-left corner; column and
    row counts are rounded up so the grid covers the rectangle, and the
    domain boundary is taken as the (possibly slightly larger) grid
    rectangle itself. Every zone keeps at least `offset` clearance to
    the boundary.
    """
    zones = tuple(zones)
    if not zones:
        raise DomainError("at least one zone is required")
    if offset < 0:
        raise DomainError("domain offset must be >= 0")
    allv = np.vstack([z.polygon for z in zones])
    xmin, ymin = allv.min(axis=0) - offset
    xmax, ymax = allv.max(axis=0) + offset
    ncols = max(1, math.ceil((xmax - xmin) / cell_size - 1e-9))
    nrows = max(1, math.ceil((ymax - ymin) / cell_size - 1e-9))
    grid = GridSpec(x_origin=xmin, y_origin=ymin, cell_size=cell_size,
                    ncols=ncols, nrows=nrows)
    gx0, gx1, gy0, gy1 = grid.rect
    boundary = np.array([[gx0, gy0], [gx1, gy0], [gx1, gy1], [gx0, gy1]])
    return SearchDomain(zones=zones, offset=offset, boundary=boundary, grid=grid)


@dataclass
class DensityGrid:
    """A nonnegative per-cell density over a GridSpec (units 1/m^2)."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise DomainError(
                f"density shape {self.values.shape} does not match grid {self.grid.shape}"
            )
        if np.any(self.values < 0) or not np.all(np.isfinite(self.values)):
            raise DomainError("density values must be finite and >= 0")

    def integral(self) -> float:
        return float(self.values.sum() * self.grid.cell_area)


def zone_membership(zones, grid: GridSpec) -> np.ndarray:
    """Integer zone index per cell (-1 outside all zones).

    Raises DomainError if any cell center lies inside two zones, which
    means the zone polygons overlap.
    """
    xs, ys = grid.center_mesh()
    owner = np.full(grid.shape, -1, dtype=int)
    for zi, zone in enumerate(zones):
        mask = points_in_polygon(zone.polygon, xs, ys)
        clash = mask & (owner >= 0)
        if np.any(clash):
            r, c = np.argwhere(clash)[0]
            other = zones[owner[r, c]].zone_id
            raise DomainError(
                f"zones {other!r} and {zone.zone_id!r} overlap at cell ({r}, {c})"
            )
        owner[mask] = zi
    return owner


def build_initial_density(zones, grid: GridSpec, total_people: int) -> DensityGrid:
    """Initial probability density of an undetected person per cell.

    Each zone receives person_count / total_people of the mass, spread
    uniformly over the cells whose centers fall inside its polygon. The
    discretized zone area (cell count times cell area) is used as the
    denominator, so the returned density integrates to exactly one.
    """
    zones = tuple(zones)
    if total_people != sum(z.person_count for z in zones):
        raise DomainError(
            f"total_people={total_people} does not match the zone sum "
            f"{sum(z.person_count for z in zones)}"
        )
    if total_people <= 0:
        raise DomainError("total_people must be positive")
    owner = zone_membership(zones, grid)
    values = np.zeros(grid.shape, dtype=float)
    for zi, zone in enumerate(zones):
        cells = owner == zi
        n = int(cells.sum())
        if n == 0:
            raise DomainError(
                f"zone {zone.zone_id!r} covers no cell centers at "
                f"cell_size={grid.cell_size:g}"
            )
        share = zone.person_count / total_people
        values[cells] = share / (n * grid.cell_area)
    return DensityGrid(grid=grid, values=values)


def _bilinear_support(grid: GridSpec, x, y):
    """Corner indices (j0, j1, i0, i1) and weights (tx, ty), as 1-d arrays,
    of bilinear interpolation at clamped query points.

    Clamps are np.minimum of np.maximum, which np.clip equals, without
    its call overhead on the scalar and small queries of every step.
    """
    x0 = grid.x_origin + 0.5 * grid.cell_size
    y0 = grid.y_origin + 0.5 * grid.cell_size
    xs = np.minimum(np.maximum(np.atleast_1d(np.asarray(x, dtype=float)), x0),
                    grid.x_origin + (grid.ncols - 0.5) * grid.cell_size)
    ys = np.minimum(np.maximum(np.atleast_1d(np.asarray(y, dtype=float)), y0),
                    grid.y_origin + (grid.nrows - 0.5) * grid.cell_size)
    fx = (xs - x0) / grid.cell_size
    fy = (ys - y0) / grid.cell_size
    i0 = np.minimum(np.maximum(np.floor(fx).astype(int), 0), max(grid.ncols - 2, 0))
    j0 = np.minimum(np.maximum(np.floor(fy).astype(int), 0), max(grid.nrows - 2, 0))
    i1 = np.minimum(i0 + 1, grid.ncols - 1)
    j1 = np.minimum(j0 + 1, grid.nrows - 1)
    tx = np.minimum(np.maximum(fx - i0, 0.0), 1.0)
    ty = np.minimum(np.maximum(fy - j0, 0.0), 1.0)
    return j0, j1, i0, i1, tx, ty


def _bilinear_point(grid: GridSpec, x: float, y: float):
    """_bilinear_support of one point in plain Python numbers: the same
    clamps and the same arithmetic, so the same indices and weights,
    without numpy's per-call overhead on the scalar queries of every
    step."""
    h = float(grid.cell_size)
    x0 = float(grid.x_origin) + 0.5 * h
    y0 = float(grid.y_origin) + 0.5 * h
    fx = (min(max(x, x0), float(grid.x_origin) + (grid.ncols - 0.5) * h) - x0) / h
    fy = (min(max(y, y0), float(grid.y_origin) + (grid.nrows - 0.5) * h) - y0) / h
    i0 = min(max(math.floor(fx), 0), max(grid.ncols - 2, 0))
    j0 = min(max(math.floor(fy), 0), max(grid.nrows - 2, 0))
    return (j0, min(j0 + 1, grid.nrows - 1), i0, min(i0 + 1, grid.ncols - 1),
            min(max(fx - i0, 0.0), 1.0), min(max(fy - j0, 0.0), 1.0))


def _blend(v00, v10, v01, v11, tx, ty):
    """Bilinear blend of the corner values at (j0, i0), (j0, i1), (j1, i0), (j1, i1)."""
    return (
        v00 * (1 - tx) * (1 - ty)
        + v10 * tx * (1 - ty)
        + v01 * (1 - tx) * ty
        + v11 * tx * ty
    )


def bilinear_on_grid(grid: GridSpec, values: np.ndarray, x, y):
    """Bilinear interpolation of a cell-centered value array.

    Query points are clamped to the cell-center hull, which extends the
    field as constant over the outer half-cell ring of the grid
    rectangle.
    """
    j0, j1, i0, i1, tx, ty = _bilinear_support(grid, x, y)
    v = _blend(values[j0, i0], values[j0, i1], values[j1, i0], values[j1, i1], tx, ty)
    return float(v[0]) if np.ndim(x) == 0 and np.ndim(y) == 0 else v


def gradient_on_grid(grid: GridSpec, values: np.ndarray, x: float, y: float,
                     ) -> tuple[float, float]:
    """bilinear_on_grid of np.gradient(values, grid.cell_size) at one point.

    The differences are taken only at the four corner nodes the
    interpolation reads: central inside the grid, one-sided on its
    edges, with np.gradient's arithmetic in plain floats, so the result
    is bit-identical to interpolating the full-grid gradient. An axis of
    one cell has zero derivative.
    """
    j0, j1, i0, i1, tx, ty = _bilinear_point(grid, x, y)
    h = grid.cell_size
    last_col, last_row = grid.ncols - 1, grid.nrows - 1
    gx, gy = [], []
    for row, col in ((j0, i0), (j0, i1), (j1, i0), (j1, i1)):
        lo, hi = max(col - 1, 0), min(col + 1, last_col)
        gx.append((values.item(row, hi) - values.item(row, lo)) / (max(hi - lo, 1) * h))
        lo, hi = max(row - 1, 0), min(row + 1, last_row)
        gy.append((values.item(hi, col) - values.item(lo, col)) / (max(hi - lo, 1) * h))
    return _blend(*gx, tx, ty), _blend(*gy, tx, ty)
