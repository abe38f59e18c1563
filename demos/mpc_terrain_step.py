"""Receding-horizon altitude control in front of rising terrain.

The planner optimizes speed and climb over a short horizon while
keeping a clearance floor over the terrain it is about to overfly.
Far from the ridge it cruises; as the slope enters the horizon it
schedules the climb, and close in it climbs immediately.
"""

import numpy as np

from uavsearch import (UAV_PRESETS, MpcConfig, Planner, TerrainGrid, UavState,
                       evaluate_plan, mpc_plan)

cell = 10.0
n = 80
elev = np.zeros((n, n))
elev[:, 45:] = 60.0          # a 60 m step ridge east of x = 450
terrain = TerrainGrid(ncols=n, nrows=n, x_origin=0.0, y_origin=0.0,
                      cell_size=cell, nodata=-9999.0, elevations=elev)

# 35 m hard clearance floor, 55 m goal height above the ground; the
# altitude references may look anywhere on the terrain
planner = Planner(UAV_PRESETS["M210"], MpcConfig(), min_clearance=35.0, goal_clearance=55.0,
                  bounds=terrain.hull)

for x in (100.0, 330.0, 390.0):
    state = UavState(x=x, y=400.0, z=55.0, heading=0.0, v_h=10.0, v_z=0.0, t=0.0)
    plan = mpc_plan(state, state.heading, terrain, planner)
    cost, feasible = evaluate_plan(plan, state, state.heading, terrain, planner)
    profile = "  ".join(f"({c.v_h:4.1f},{c.v_z:5.2f})" for c in plan)
    print(f"at x={x:3.0f} (ridge {450 - x:3.0f} m ahead), cost {cost:8.3f}:")
    print(f"  planned (v_h, v_z) per 3 s step: {profile}")

# over flat ground the same planner simply cruises at the goal height
state = UavState(x=100.0, y=400.0, z=55.0, heading=np.pi, v_h=10.0, v_z=0.0, t=0.0)
plan = mpc_plan(state, state.heading, terrain, planner)
print(f"\nheading away from the ridge: v_h={plan[0].v_h:.2f}, "
      f"v_z={plan[0].v_z:.2f} (cruise)")
