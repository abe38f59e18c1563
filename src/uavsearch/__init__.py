"""Terrain-aware probabilistic search: mission simulation and evaluation.

The package simulates UAV search missions over real terrain: a
potential field steers the vehicle toward unsearched probability mass,
a short-horizon planner picks speed and climb rate against the terrain
profile, and a calibrated camera model accumulates coverage that feeds
a running prediction of search accomplishment. Monte Carlo target
simulation validates the prediction, and a tiling/recall toolkit
handles the detector-side evaluation.
"""

from .control import (UAV_PRESETS, ControlInput, MpcConfig, Planner, UavLimits,
                      UavState, evaluate_plan, kinematic_step, mpc_plan,
                      ramp_displacement, ramp_toward, turn_rate_toward,
                      validate_control, wrap_angle)
from .domain import (DensityGrid, DomainError, GridSpec, Zone,
                     bilinear_on_grid, build_flight_domain, build_initial_density,
                     points_in_polygon, polygon_area, zone_membership)
from .errors import (ControlLimitError, MissionError, MpcInfeasibleError,
                     ScenarioError, SolverError, TerrainError, TilingError,
                     UavSearchError)
from .hedac import (FieldState, HedacParams, PotentialSolver, accomplishment,
                    accumulate_coverage, neumann_laplacian, steering_gradient)
from .exports import (export_mission, export_validation, mission_summary,
                      write_grid_pgm, write_timing)
from .mission import (NO_FLY_FLOOR, FlightConfig, FlightLog, MissionConfig,
                      MissionReport, MonteCarloConfig, SyntheticTarget, TargetTracker,
                      ValidationReport, binomial_band, monte_carlo_validate,
                      run_flight, run_mission)
from .scenario import apply_override, load_scenario, parse_scenario
from .sensing import (CAMERA_PRESETS, CameraModel, CameraPose, RecallTable,
                      SensingParams, default_recall_table, detection_rate,
                      detection_rate_footprint, gsd, in_fov, load_recall_table,
                      recall_lookup, to_camera_frame)
from .terrain import (TerrainGrid, clear_rays, elevation_at, ground_at, ground_under,
                      line_of_sight, load_terrain, save_terrain)
from .tiling import (BinRecall, BoxLabel, Detection, ImageMeta, TileRect,
                     TilingPlan, axis_offsets, gsd_bin, iou, match_detections,
                     plan_tiles, recall_per_bin, remap_labels, tile_name)

__version__ = "0.1.0"

__all__ = [
    "UAV_PRESETS", "ControlInput", "MpcConfig", "Planner", "UavLimits",
    "UavState", "evaluate_plan", "kinematic_step", "mpc_plan",
    "ramp_displacement", "ramp_toward",
    "turn_rate_toward", "validate_control", "wrap_angle",
    "DensityGrid", "DomainError", "GridSpec", "Zone", "bilinear_on_grid",
    "build_flight_domain", "build_initial_density",
    "points_in_polygon", "polygon_area", "zone_membership",
    "ControlLimitError", "MissionError", "MpcInfeasibleError", "ScenarioError",
    "SolverError", "TerrainError", "TilingError", "UavSearchError",
    "FieldState", "HedacParams", "PotentialSolver", "accomplishment",
    "accumulate_coverage", "neumann_laplacian", "steering_gradient",
    "NO_FLY_FLOOR", "FlightConfig", "FlightLog", "MissionConfig",
    "MissionReport", "MonteCarloConfig", "SyntheticTarget", "TargetTracker",
    "ValidationReport", "binomial_band", "monte_carlo_validate",
    "run_flight", "run_mission",
    "export_mission", "export_validation", "mission_summary",
    "write_grid_pgm", "write_timing",
    "apply_override", "load_scenario", "parse_scenario",
    "CAMERA_PRESETS", "CameraModel", "CameraPose", "RecallTable",
    "SensingParams", "default_recall_table", "detection_rate",
    "detection_rate_footprint", "gsd", "in_fov",
    "load_recall_table", "recall_lookup", "to_camera_frame",
    "TerrainGrid", "clear_rays", "elevation_at", "ground_at",
    "ground_under", "line_of_sight", "load_terrain", "save_terrain",
    "BinRecall", "BoxLabel", "Detection", "ImageMeta", "TileRect",
    "TilingPlan", "axis_offsets", "gsd_bin", "iou", "match_detections",
    "plan_tiles", "recall_per_bin", "remap_labels", "tile_name",
    "__version__",
]
