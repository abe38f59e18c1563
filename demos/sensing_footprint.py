"""Camera sensing: ground sampling distance, recall, detection rates.

Shows how image resolution degrades with flight height, how that maps
to detection recall, and what the instantaneous detection-rate
footprint of a nadir camera looks like over flat ground.
"""

import numpy as np

from uavsearch import (CAMERA_PRESETS, CameraPose, DensityGrid, GridSpec,
                       SensingParams, TerrainGrid, default_recall_table,
                       detection_rate, detection_rate_footprint, gsd,
                       ground_under, recall_lookup)

table = default_recall_table()
print("height ->  gsd (cm/px) and recall, per camera")
for name, camera in sorted(CAMERA_PRESETS.items()):
    row = [name.ljust(12)]
    for height in (25.0, 55.0, 100.0, 200.0):
        along, across = gsd(camera, height)
        mean_gsd = (along + across) / 2.0
        row.append(f"{height:>4.0f} m: {mean_gsd:5.2f} / {recall_lookup(table, mean_gsd):.3f}")
    print("  ".join(row))

# flat world for the footprint plot
cell = 5.0
n = 60
terrain = TerrainGrid(ncols=n, nrows=n, x_origin=0.0, y_origin=0.0,
                      cell_size=cell, nodata=-9999.0, elevations=np.zeros((n, n)))
grid = GridSpec(x_origin=0.0, y_origin=0.0, cell_size=cell, ncols=n, nrows=n)
density = DensityGrid(grid=grid, values=np.full(grid.shape, 1.0))

camera = CAMERA_PRESETS["X5S"]
pose = CameraPose(x=150.0, y=150.0, z=55.0, yaw=np.deg2rad(30.0))
params = SensingParams()

nadir = detection_rate(pose, (pose.x, pose.y), camera, terrain, table, params)
print(f"\nX5S at 55 m, yaw 30 degrees: nadir rate {nadir:.5f} 1/s")

rows, cols, rates = detection_rate_footprint(pose, camera, terrain, table,
                                             params, grid, ground_under(terrain, grid))
print(f"footprint covers {rates.size} cells "
      f"({rates.size * grid.cell_area:.0f} m^2)")
print(f"rate falls from {rates.max():.5f} at the center "
      f"to {rates.min():.5f} at the frustum edge")

# a rough ASCII picture of the footprint (rows north-up)
field = np.zeros(grid.shape)
field[rows, cols] = rates
shades = " .:-=+*#"
for r in range(n - 1, -1, -1):
    line = field[r]
    if not line.any():
        continue
    print("".join(shades[int(v / rates.max() * (len(shades) - 1))] for v in line))
