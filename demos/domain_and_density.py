"""From search zones to a flight domain and an initial target density.

Two polygonal zones with person counts become a padded rectangular
grid; each zone spreads its share of the probability mass uniformly
over its own cells, so the density integrates to one.
"""

import numpy as np

from uavsearch import (Zone, build_flight_domain, build_initial_density,
                       zone_membership)

zones = (
    Zone("meadow", [[300.0, 300.0], [900.0, 280.0], [1000.0, 700.0],
                    [800.0, 980.0], [420.0, 930.0], [260.0, 600.0]], 25),
    Zone("orchard", [[1190.0, 340.0], [1900.0, 270.0], [2050.0, 750.0],
                     [1650.0, 1000.0], [1240.0, 850.0]], 27),
)

grid = build_flight_domain(zones, offset=75.0, cell_size=20.0)
print(f"flight domain: {grid.ncols} x {grid.nrows} cells of {grid.cell_size:g} m,")
print(f"  origin ({grid.x_origin:g}, {grid.y_origin:g}), "
      f"area {grid.width * grid.height / 1e6:.2f} km^2")

membership = zone_membership(zones, grid)
for index, zone in enumerate(zones):
    cells = int(np.sum(membership == index))
    print(f"  zone {zone.zone_id}: {cells} cells, {zone.person_count} persons")

density = build_initial_density(zones, grid)
mass = density.values.sum() * grid.cell_area
print(f"\ndensity integrates to {mass:.12f}")
print(f"peak cell probability density: {density.values.max():.3e} per m^2")

# the zone with more persons holds proportionally more mass
total = sum(z.person_count for z in zones)
for index, zone in enumerate(zones):
    share = density.values[membership == index].sum() * grid.cell_area
    print(f"  mass in {zone.zone_id}: {share:.4f} "
          f"(expected {zone.person_count / total:.4f})")
