"""The attraction field that steers the search.

A screened-Poisson solve turns the undetected-target density into a
smooth potential; vehicles climb its gradient. Partially covering one
zone shifts the gradient toward what is still unseen.
"""

import numpy as np

from uavsearch import (DensityGrid, FieldState, GridSpec, HedacParams, PotentialSolver,
                       steering_gradient)

grid = GridSpec(x_origin=0.0, y_origin=0.0, cell_size=10.0, ncols=40, nrows=30)

# two blobs of probability mass, the right one three times heavier
values = np.zeros(grid.shape)
values[8:14, 5:11] = 1.0
values[16:24, 28:36] = 3.0
values /= values.sum() * grid.cell_area
density = DensityGrid(grid=grid, values=values)

state = FieldState.from_density(density)
solver = PotentialSolver(grid, HedacParams(diffusion=3000.0, damping=1.0))
solver.refresh(state)

print(f"potential range: {state.potential.min():.3e} to {state.potential.max():.3e}")
peak = np.unravel_index(state.potential.argmax(), grid.shape)
print(f"potential peaks at cell (row {peak[0]}, col {peak[1]}), "
      f"inside the heavier blob")

for x, y in ((200.0, 150.0), (60.0, 60.0), (350.0, 250.0)):
    direction = steering_gradient(state, (x, y))
    heading = np.degrees(np.arctan2(direction[1], direction[0]))
    print(f"steering at ({x:g}, {y:g}): heading {heading:6.1f} degrees")

# sweep coverage over the heavy blob and watch the field flip
state.coverage[16:24, 28:36] = 6.0
np.multiply(state.initial.values, np.exp(-state.coverage), out=state.undetected)
solver.refresh(state)
direction = steering_gradient(state, (200.0, 150.0))
heading = np.degrees(np.arctan2(direction[1], direction[0]))
print(f"\nafter covering the heavy blob, steering at (200, 150) "
      f"points {heading:.1f} degrees, toward the remaining mass")
