"""Terrain raster basics: elevation lookups and line-of-sight checks.

Loads the packaged terrain, samples a few points, and tests whether a
ridge blocks the view between two hovering positions.
"""

from pathlib import Path

import numpy as np

from uavsearch import elevation_at, line_of_sight, load_terrain

terrain = load_terrain(Path(__file__).resolve().parents[1] / "scenarios" / "terrain.asc")
print(f"grid: {terrain.ncols} x {terrain.nrows} cells of {terrain.cell_size:g} m")
xmin, xmax, ymin, ymax = terrain.hull
print(f"extent: x [{xmin:g}, {xmax:g}], y [{ymin:g}, {ymax:g}]")
print(f"elevation range: {terrain.elevations.min():.1f} to "
      f"{terrain.elevations.max():.1f} m")

# single point and vectorized queries use the same bilinear surface
print("\nelevation at (800, 600):", round(float(elevation_at(terrain, 800.0, 600.0)), 2))
xs = np.linspace(xmin + 1, xmax - 1, 5)
ys = np.full_like(xs, 600.0)
print("profile along y=600:", np.round(elevation_at(terrain, xs, ys), 1))

# height of a hovering vehicle above the ground directly below it
x, y, z = 800.0, 600.0, 55.0 + float(elevation_at(terrain, 800.0, 600.0))
print("\nclearance at 55 m goal altitude:", round(z - float(elevation_at(terrain, x, y)), 2))

# a viewpoint high above sees across the valley; a low one does not
peak_xy = np.unravel_index(terrain.elevations.argmax(), terrain.elevations.shape)
px = xmin + (peak_xy[1] + 0.5) * terrain.cell_size
py = ymin + (peak_xy[0] + 0.5) * terrain.cell_size
target = (px, py, float(elevation_at(terrain, px, py)))
for height in (20.0, 200.0):
    eye = (xmin + 200.0, ymin + 200.0,
           float(elevation_at(terrain, xmin + 200.0, ymin + 200.0)) + height)
    clear = line_of_sight(terrain, eye, target)
    print(f"view from {height:g} m above the corner to the highest cell: "
          f"{'clear' if clear else 'blocked'}")
