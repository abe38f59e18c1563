"""Generate the shipped terrain raster and mission scenario files.

Everything here is deterministic (fixed hill parameters, no RNG), so
rerunning the script reproduces the committed assets byte for byte.
Zone polygons are scaled about their centroid to the published survey
areas, with one final vertex nudge to land the shoelace area on the
target to floating-point accuracy.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "scenarios"

CELL = 10.0
NCOLS, NROWS = 320, 135
XLL, YLL = -50.0, -50.0

HILLS = (
    # (x, y, amplitude, sigma_x, sigma_y)
    (800.0, 700.0, 70.0, 500.0, 260.0),
    (1800.0, 350.0, 55.0, 300.0, 300.0),
    (2500.0, 900.0, 85.0, 350.0, 280.0),
    (350.0, 300.0, 40.0, 220.0, 220.0),
    (1400.0, 900.0, -30.0, 300.0, 300.0),
    (2200.0, 150.0, 35.0, 260.0, 240.0),
)
BASE = 150.0
TILT = 0.008  # gentle west-east rise


def terrain_height(x, y):
    z = BASE + TILT * x
    for hx, hy, amp, sx, sy in HILLS:
        z = z + amp * np.exp(-(((x - hx) / sx) ** 2 + ((y - hy) / sy) ** 2))
    return z


def write_terrain(path: Path) -> None:
    xs = XLL + (np.arange(NCOLS) + 0.5) * CELL
    ys = YLL + (np.arange(NROWS) + 0.5) * CELL
    grid = terrain_height(xs[None, :], ys[:, None])
    rows = np.flipud(np.round(grid, 1))  # file stores the north row first
    lines = [
        f"ncols {NCOLS}",
        f"nrows {NROWS}",
        f"xllcorner {XLL:.1f}",
        f"yllcorner {YLL:.1f}",
        f"cellsize {CELL:.1f}",
        f"nodata_value -9999.0",
    ]
    lines.extend(" ".join(f"{v:.1f}" for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")
    print(f"terrain: {NCOLS}x{NROWS} cells, "
          f"z in [{grid.min():.1f}, {grid.max():.1f}] m -> {path}")


def shoelace(points: list[tuple[float, float]]) -> float:
    area = 0.0
    n = len(points)
    for i in range(n):
        x0, y0 = points[i]
        x1, y1 = points[(i + 1) % n]
        area += x0 * y1 - x1 * y0
    return 0.5 * area


def scale_to_area(points, target: float) -> list[tuple[float, float]]:
    """Scale about the centroid to the target area, round to cm, then
    nudge one vertex x to cancel the rounding residue exactly."""
    area = shoelace(points)
    if area < 0:
        points = points[::-1]
        area = -area
    factor = math.sqrt(target / area)
    cx = sum(p[0] for p in points) / len(points)
    cy = sum(p[1] for p in points) / len(points)
    scaled = [(round(cx + (x - cx) * factor, 2), round(cy + (y - cy) * factor, 2))
              for x, y in points]
    residue = target - shoelace(scaled)
    n = len(scaled)
    spans = [scaled[(k + 1) % n][1] - scaled[(k - 1) % n][1] for k in range(n)]
    k = max(range(n), key=lambda i: abs(spans[i]))
    x, y = scaled[k]
    scaled[k] = (x + 2.0 * residue / spans[k], y)
    assert abs(shoelace(scaled) - target) < 1e-6, shoelace(scaled)
    return scaled


ZONES = {
    "A": dict(
        person_count=25,
        target_area=432734.0,
        base=[(300, 300), (950, 250), (1050, 700), (800, 1000), (420, 950), (250, 600)],
    ),
    "B": dict(
        person_count=27,
        target_area=470233.0,
        base=[(1200, 350), (1900, 280), (2050, 750), (1650, 1000), (1250, 850)],
    ),
    "C": dict(
        person_count=26,
        target_area=613709.0,
        base=[(2150, 300), (2900, 350), (3000, 800), (2700, 1050), (2250, 950), (2100, 600)],
    ),
}

COMMON = dict(
    terrain="terrain.asc",
    cell_size=20.0,
    offset=75.0,
    seed=17,
    hedac=dict(diffusion=50000.0, damping=1.0),
)

MISSIONS = {
    "mission1": dict(
        zones=("A", "B", "C"),
        monte_carlo=dict(targets=2000, seed=310),
        flights=[
            dict(uav="M210", camera="X5S", min_altitude=35.0, goal_altitude=55.0,
                 duration_s=1380, start=[380.0, 380.0]),
            dict(uav="M210", camera="X5S", min_altitude=55.0, goal_altitude=75.0,
                 duration_s=1380, start=None),
            dict(uav="M210", camera="Z30", min_altitude=35.0, goal_altitude=75.0,
                 duration_s=1320, start=None),
        ],
    ),
    "mission2": dict(
        zones=("B", "C"),
        monte_carlo=dict(targets=2000, seed=311),
        flights=[
            dict(uav="Mavic2ED", camera="MavicBuiltin", min_altitude=35.0,
                 goal_altitude=55.0, duration_s=900, start=[1320.0, 430.0]),
        ],
    ),
    "mission3": dict(
        zones=("A",),
        monte_carlo=dict(targets=2000, seed=312),
        flights=[
            dict(uav="M210", camera="X5S", min_altitude=35.0, goal_altitude=55.0,
                 duration_s=1500, start=[380.0, 380.0]),
        ],
    ),
}


def main() -> None:
    OUT.mkdir(exist_ok=True)
    write_terrain(OUT / "terrain.asc")
    polygons = {}
    for zone_id, spec in ZONES.items():
        pts = scale_to_area([(float(x), float(y)) for x, y in spec["base"]],
                            spec["target_area"])
        polygons[zone_id] = pts
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        print(f"zone {zone_id}: area {shoelace(pts):.3f} m^2, "
              f"bbox [{min(xs):.0f}, {max(xs):.0f}] x [{min(ys):.0f}, {max(ys):.0f}]")
    for name, spec in MISSIONS.items():
        doc = dict(
            mission_id=name,
            **COMMON,
            monte_carlo=spec["monte_carlo"],
            zones=[dict(id=z, person_count=ZONES[z]["person_count"],
                        polygon=[[x, y] for x, y in polygons[z]])
                   for z in spec["zones"]],
            flights=spec["flights"],
        )
        path = OUT / f"{name}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
