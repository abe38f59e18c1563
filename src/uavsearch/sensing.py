"""Camera geometry, ground sampling distance and the detection-rate model.

The camera hangs on a gimbal that keeps it pointing straight down, so
only the vehicle yaw rotates the image footprint. Camera-frame
coordinates of a ground point p for a camera at X with yaw psi are

    R.xy = Rot(-psi) @ (p - X.xy),    R.z = ground(p) - X.z

which puts R.z below zero for any point under the camera and aligns the
camera x axis (the long image side) with the vehicle's forward
direction.

The instantaneous detection rate of a ground point combines a base rate,
the detector recall at the ground sampling distance for the height above
that point, and a cosine falloff with the off-nadir angle. Points
outside the rectangular field-of-view frustum or hidden behind terrain
rate zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from . import terrain as terrain_mod
from .domain import GridSpec
from .errors import UavSearchError
from .terrain import TerrainGrid


class SensingError(UavSearchError):
    """Invalid camera, recall table or sensing parameter input."""


@dataclass(frozen=True)
class CameraModel:
    """Rectangular field-of-view camera.

    fov_short_deg spans the short image side (y_image pixels, the camera y
    axis) and fov_long_deg the long side (x_image pixels, camera x axis).
    The assignment matches the image aspect ratio for all built-in
    presets; a profile with the opposite convention can simply swap the
    two angles in its configuration.
    """

    name: str
    fov_short_deg: float
    fov_long_deg: float
    x_image: int
    y_image: int

    def __post_init__(self) -> None:
        for label, fov in (("fov_short", self.fov_short_deg), ("fov_long", self.fov_long_deg)):
            if not 0 < fov < 180:
                raise SensingError(f"camera {self.name!r}: {label} must be in (0, 180) deg")
        if self.x_image <= 0 or self.y_image <= 0:
            raise SensingError(f"camera {self.name!r}: image size must be positive")

    @property
    def half_tan_x(self) -> float:
        """tan of the half-angle across the long (x) image side."""
        return math.tan(math.radians(self.fov_long_deg) / 2)

    @property
    def half_tan_y(self) -> float:
        """tan of the half-angle across the short (y) image side."""
        return math.tan(math.radians(self.fov_short_deg) / 2)


CAMERA_PRESETS: dict[str, CameraModel] = {
    "X5S": CameraModel("X5S", fov_short_deg=39.2, fov_long_deg=64.7,
                       x_image=5280, y_image=2970),
    "Z30": CameraModel("Z30", fov_short_deg=33.9, fov_long_deg=56.9,
                       x_image=1920, y_image=1080),
    "MavicBuiltin": CameraModel("MavicBuiltin", fov_short_deg=57.58, fov_long_deg=72.5,
                                x_image=4056, y_image=3040),
}


def gsd(camera: CameraModel, height: float) -> tuple[float, float]:
    """Ground sampling distance (horizontal, vertical) in cm/px.

    height is the vertical distance between the camera and the ground
    point being imaged. The footprint side length is 2 h tan(fov/2);
    dividing by the pixel count across that side and converting to
    centimeters gives cm of ground per pixel.
    """
    if not height > 0:
        raise SensingError(f"gsd needs a positive height, got {height:g}")
    horizontal = 100.0 * (2.0 * height * camera.half_tan_x) / camera.x_image
    vertical = 100.0 * (2.0 * height * camera.half_tan_y) / camera.y_image
    return horizontal, vertical


@dataclass(frozen=True)
class RecallTable:
    """Detector recall per ground-sampling-distance bin.

    Bins are half-open [low, high) in cm/px, contiguous, ascending and
    uniformly bin_width wide. Recall values are kept exactly as
    measured; they need not be monotone. edges (the bin edges) and
    recalls are read-only arrays derived once at construction.
    """

    bins: tuple[tuple[float, float, float], ...]
    bin_width: float = 0.5
    edges: np.ndarray = field(init=False, repr=False, compare=False)
    recalls: np.ndarray = field(init=False, repr=False, compare=False)
    # recall per searchsorted(edges, gsd, side="right"): the lowest bin's
    # below the lowest edge, bin i's at i + 1, zero at or above the top edge
    _by_edge_index: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.bins:
            raise SensingError("recall table needs at least one bin")
        prev_high = None
        for low, high, recall in self.bins:
            if not high > low:
                raise SensingError(f"recall bin [{low:g}, {high:g}) is empty")
            if abs((high - low) - self.bin_width) > 1e-9:
                raise SensingError(
                    f"recall bin [{low:g}, {high:g}) is not {self.bin_width:g} wide"
                )
            if prev_high is not None and abs(low - prev_high) > 1e-9:
                raise SensingError(f"recall bins not contiguous at {low:g}")
            if not 0.0 <= recall <= 1.0:
                raise SensingError(f"recall {recall:g} outside [0, 1]")
            prev_high = high
        recalls = [b[2] for b in self.bins]
        for name, values in (("edges", [self.bins[0][0]] + [b[1] for b in self.bins]),
                             ("recalls", recalls),
                             ("_by_edge_index", recalls[:1] + recalls + [0.0])):
            array = np.array(values, dtype=float)
            array.flags.writeable = False
            object.__setattr__(self, name, array)


def recall_lookup(table: RecallTable, gsd_value):
    """Recall for a ground sampling distance (cm/px); array friendly.

    Values below the lowest bin clamp to the lowest bin's recall (the
    detector only gets better with finer resolution); values at or above
    the top edge return 0 (no supporting measurements).
    """
    g = np.asarray(gsd_value, dtype=float)
    out = table._by_edge_index[np.searchsorted(table.edges, g, side="right")]
    return float(out) if g.ndim == 0 else out


def load_recall_table(path) -> RecallTable:
    """Read a recall table from text: one 'gsd_low gsd_high recall' per line.

    Blank lines and lines starting with '#' are ignored.
    """
    bins: list[tuple[float, float, float]] = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) != 3:
                raise SensingError(f"{path}: line {lineno}: expected 3 columns")
            try:
                low, high, recall = (float(p) for p in parts)
            except ValueError:
                raise SensingError(f"{path}: line {lineno}: cannot parse numbers") from None
            bins.append((low, high, recall))
    if not bins:
        raise SensingError(f"{path}: no recall bins found")
    width = bins[0][1] - bins[0][0]
    return RecallTable(bins=tuple(bins), bin_width=width)


def default_recall_table() -> RecallTable:
    """The packaged person-detector recall table (0.5 cm/px bins)."""
    ref = resources.files("uavsearch").joinpath("data/recall_default.txt")
    with resources.as_file(ref) as path:
        return load_recall_table(path)


@dataclass(frozen=True)
class SensingParams:
    """Detection-rate model knobs.

    rate_scale is the peak instantaneous detection rate in 1/s (perfect
    recall, straight down). falloff_exponent shapes the cos^k off-nadir
    attenuation.
    """

    rate_scale: float = 0.05
    falloff_exponent: float = 2.0

    def __post_init__(self) -> None:
        if self.rate_scale < 0:
            raise SensingError("rate_scale must be >= 0")
        if self.falloff_exponent < 0:
            raise SensingError("falloff_exponent must be >= 0")


@dataclass(frozen=True)
class CameraPose:
    """Camera position and vehicle yaw. The gimbal keeps the optical
    axis pointing straight down regardless of yaw."""

    x: float
    y: float
    z: float
    yaw: float


def to_camera_frame(pose: CameraPose, point_xy, grid: TerrainGrid) -> np.ndarray:
    """Camera-frame coordinates of the terrain point at (x, y).

    Returns [R.x, R.y, R.z] with R.z = ground elevation minus camera
    altitude (negative when the point lies below the camera) and R.xy
    the yaw-unrotated horizontal offset.
    """
    px, py = float(point_xy[0]), float(point_xy[1])
    ground = terrain_mod.elevation_at(grid, px, py)
    c, s = math.cos(pose.yaw), math.sin(pose.yaw)
    dx, dy = px - pose.x, py - pose.y
    return np.array([c * dx + s * dy, -s * dx + c * dy, ground - pose.z])


def in_fov(camera: CameraModel, r: np.ndarray) -> bool:
    """Whether a camera-frame point falls inside the view frustum.

    Only points below the camera qualify; the test compares against the
    frustum's rectangular cross-section at the point's depth, boundary
    inclusive.
    """
    if r[2] >= 0:
        return False
    depth = -r[2]
    return bool(abs(r[0]) <= depth * camera.half_tan_x
                and abs(r[1]) <= depth * camera.half_tan_y)


def detection_rate(pose: CameraPose, point_xy, camera: CameraModel,
                   grid: TerrainGrid, table: RecallTable,
                   params: SensingParams) -> float:
    """Instantaneous detection rate (1/s) of the ground point at (x, y).

    Zero when the point is outside the view frustum or occluded by
    terrain. Otherwise rate_scale * recall(gsd at the height above the
    point) * cos(off-nadir)^falloff_exponent.
    """
    r = to_camera_frame(pose, point_xy, grid)
    if not in_fov(camera, r):
        return 0.0
    ground = r[2] + pose.z
    if not terrain_mod.line_of_sight(grid, (pose.x, pose.y, pose.z),
                                     (float(point_xy[0]), float(point_xy[1]), ground)):
        return 0.0
    height = -r[2]
    horizontal_gsd, _ = gsd(camera, height)
    recall = recall_lookup(table, horizontal_gsd)
    cos_off = height / float(np.linalg.norm(r))
    return params.rate_scale * recall * cos_off ** params.falloff_exponent


def detection_rate_footprint(pose: CameraPose, camera: CameraModel,
                             grid: TerrainGrid, table: RecallTable,
                             params: SensingParams, cells: GridSpec,
                             ground: np.ndarray,
                             ) -> tuple[slice, slice, np.ndarray]:
    """Detection rate over the cells a pose can possibly see.

    ground is the terrain elevation under every cell center of cells
    (terrain.ground_under(grid, cells)), resolved once by the caller:
    the footprint slices it and the 1-d cell centers instead of
    querying the terrain every step. Returns (row_slice, col_slice,
    rates) where rates covers the cell block selected by the slices on
    the given grid. Cells outside the frustum or without line of sight
    rate zero. Agrees with detection_rate evaluated per cell center.
    """
    # Bound the footprint by the deepest possible view ray.
    max_depth = pose.z - grid.min_elevation
    if max_depth <= 0:
        return slice(0, 0), slice(0, 0), np.zeros((0, 0))
    reach = math.hypot(max_depth * camera.half_tan_x, max_depth * camera.half_tan_y)
    row_slice, col_slice = cells.window(pose.x, pose.y, reach)
    block_ground = ground[row_slice, col_slice]
    rates = np.zeros(block_ground.shape, dtype=float)
    if rates.size == 0:
        return row_slice, col_slice, rates

    xs = cells.x_centers[col_slice]
    ys = cells.y_centers[row_slice]
    cos_yaw, sin_yaw = math.cos(pose.yaw), math.sin(pose.yaw)
    dx = (xs - pose.x)[None, :]
    dy = (ys - pose.y)[:, None]
    rx = cos_yaw * dx + sin_yaw * dy
    ry = -sin_yaw * dx + cos_yaw * dy
    rz = block_ground - pose.z
    depth = -rz
    visible = (depth > 0) \
        & (np.abs(rx) <= depth * camera.half_tan_x) \
        & (np.abs(ry) <= depth * camera.half_tan_y)
    if not np.any(visible):
        return row_slice, col_slice, rates

    rows, cols = np.nonzero(visible)
    horizontal_gsd, _ = gsd(camera, 1.0)
    gsd_values = horizontal_gsd * depth[rows, cols]
    recalls = recall_lookup(table, gsd_values)
    norms = np.sqrt(rx[rows, cols] ** 2 + ry[rows, cols] ** 2 + rz[rows, cols] ** 2)
    cos_off = depth[rows, cols] / norms
    values = params.rate_scale * recalls * cos_off ** params.falloff_exponent
    targets = np.stack([xs[cols], ys[rows], block_ground[rows, cols]], axis=1)
    clear = terrain_mod.clear_rays(grid, (pose.x, pose.y, pose.z), targets)
    rates[rows[clear], cols[clear]] = values[clear]
    return row_slice, col_slice, rates
