"""Mission and flight simulation plus Monte Carlo validation.

A mission is a sequence of flights over one search domain. The field
state (coverage, undetected density) persists across the flights of a
mission, so later flights keep refining what earlier ones achieved.

The loop runs three nested cadences:

* kinematics advance every 0.5 s,
* sensing, accomplishment, the potential solve and the heading update
  run every 1 s (coverage uses the rectangle rule with the pose at the
  start of each one-second interval),
* the speed/incline planner replans every horizon/steps seconds (3 s
  for the built-in vehicles).

Each flight starts either at an explicit start point (spawned at goal
clearance above the ground, heading toward the domain center, at rest)
or, with start = None, continues seamlessly from where the previous
flight ended. Seamless continuation makes mission results invariant to
splitting a flight in two at a replan boundary.

Monte Carlo validation draws synthetic targets from the initial density
(rejection sampling), gives each an independent exponential detection
threshold, and marks a target detected once the accumulated coverage of
its cell crosses the threshold. Detection times interpolate linearly
inside the one-second sensing interval, which is exact because coverage
is piecewise linear in time. All randomness comes from the counter-based
Philox generator keyed by (seed, target index), so runs are reproducible
and independent of target count or evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field, replace

import numpy as np

from .control import (ControlInput, MpcConfig, Planner, UavLimits, UavState,
                      kinematic_step, mpc_plan, ramp_toward, turn_rate_toward,
                      wrap_angle)
from .domain import DensityGrid, GridSpec, Zone, build_flight_domain, build_initial_density
from .errors import MissionError, MpcInfeasibleError
from .hedac import FieldState, HedacParams, PotentialSolver, accomplishment, accumulate_coverage, steering_gradient
from .sensing import CameraModel, CameraPose, RecallTable, SensingParams, default_recall_table
from .terrain import TerrainGrid, elevation_at, first_nodata_under, ground_at, ground_under

SENSE_DT = 1.0       # seconds between sensing / field / heading updates
KINEMATIC_DT = 0.5   # seconds between kinematic integration steps
NO_FLY_FLOOR = 35.0  # hard minimum clearance above terrain, meters
_FLAG_EPS = 1e-9


@dataclass(frozen=True)
class FlightConfig:
    """One flight of a mission: its vehicle and camera, already resolved
    from their preset names.

    min_altitude and goal_altitude are heights above ground in meters,
    with 35 <= min_altitude <= goal_altitude; the planner keeps
    min_altitude as its hard floor. duration_s is at least 1. start is an
    (x, y) launch point or None to continue from the previous flight.
    """

    uav: UavLimits
    camera: CameraModel
    min_altitude: float
    goal_altitude: float
    duration_s: int
    start: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.duration_s < 1:
            raise MissionError("duration_s must be >= 1 second")
        if not NO_FLY_FLOOR <= self.min_altitude <= self.goal_altitude:
            raise MissionError(
                f"altitudes must satisfy {NO_FLY_FLOOR:g} <= min <= goal, got "
                f"min={self.min_altitude:g}, goal={self.goal_altitude:g}")


@dataclass(frozen=True)
class MonteCarloConfig:
    """Synthetic targets of a validation: how many, and the Philox key
    they are drawn from."""

    targets: int = 2000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.targets < 1:
            raise MissionError("targets must be >= 1")
        if not 0 <= self.seed < 2 ** 63:
            raise MissionError("seed must be in [0, 2^63)")


@dataclass(frozen=True)
class FlightSetup:
    """A flight's resolved pieces. planner.limits is its vehicle and
    planner.bounds the box its positions are clamped to; replan is its
    replan period in sensing steps; start is its spawn state, or None to
    continue from the previous flight's end state."""

    planner: Planner
    replan: int
    start: UavState | None


@dataclass(frozen=True)
class MissionConfig:
    """Everything needed to run a mission, checked and resolved once at
    construction by prepare_environment, so a bad input in any flight
    fails before any flight starts.

    The derived fields are what every run reads: grid is the flight
    domain, density its initial density, solver its potential solver,
    setups each flight's FlightSetup, and ground the read-only terrain
    elevation under the domain's cell centers.
    """

    mission_id: str
    terrain: TerrainGrid
    zones: tuple[Zone, ...]
    flights: tuple[FlightConfig, ...]
    offset: float = 75.0
    cell_size: float = 10.0
    hedac: HedacParams = HedacParams()
    sensing: SensingParams = SensingParams()
    recall: RecallTable = dataclass_field(default_factory=default_recall_table)
    mpc: MpcConfig = MpcConfig()
    monte_carlo: MonteCarloConfig = MonteCarloConfig()
    grid: GridSpec = dataclass_field(init=False, repr=False, compare=False)
    density: DensityGrid = dataclass_field(init=False, repr=False, compare=False)
    solver: PotentialSolver = dataclass_field(init=False, repr=False, compare=False)
    setups: tuple[FlightSetup, ...] = dataclass_field(init=False, repr=False, compare=False)
    ground: np.ndarray = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.flights and self.flights[0].start is None:
            raise MissionError(
                "flights.0.start: the first flight has no previous flight to continue from")
        prepare_environment(self)

    @property
    def uavs(self) -> dict[str, UavLimits]:
        """The vehicle each flight flies, by name."""
        return {f.uav.name: f.uav for f in self.flights}


@dataclass
class FlightLog:
    """Per-flight trajectory samples, one row every 0.5 s."""

    flight_index: int
    uav: str
    camera: str
    columns = ("t", "x", "y", "z", "heading", "v_h", "v_z",
               "speed", "incline", "turn_rate", "accomplishment",
               "floor_ok", "velocity_ok", "acceleration_ok")
    rows: list[tuple] = dataclass_field(default_factory=list)

    def as_arrays(self) -> dict[str, np.ndarray]:
        data = np.array(self.rows, dtype=float)
        return {name: data[:, i] for i, name in enumerate(self.columns)}

    def violation_counts(self) -> dict[str, int]:
        arrays = self.as_arrays()
        return {
            "floor": int(np.sum(arrays["floor_ok"] == 0.0)),
            "velocity": int(np.sum(arrays["velocity_ok"] == 0.0)),
            "acceleration": int(np.sum(arrays["acceleration_ok"] == 0.0)),
        }


@dataclass
class MissionReport:
    mission_id: str
    logs: list[FlightLog]
    times: np.ndarray            # 1 s grid over the whole mission
    eta: np.ndarray              # accomplishment at each time
    field: FieldState
    density: DensityGrid
    clamp_events: int
    violations: dict[str, int]

    @property
    def final_eta(self) -> float:
        return float(self.eta[-1])


@dataclass(frozen=True)
class SyntheticTarget:
    """A sampled target with its exponential detection threshold."""

    x: float
    y: float
    row: int
    col: int
    threshold: float
    detect_time: float | None = None


@dataclass
class ValidationReport:
    mission: MissionReport
    targets: list[SyntheticTarget]
    predicted: np.ndarray
    empirical: np.ndarray
    band_low: np.ndarray
    band_high: np.ndarray
    within_band: bool
    target_count: int
    seed: int

    @property
    def times(self) -> np.ndarray:
        return self.mission.times


def _spawn_state(flight: FlightConfig, terrain: TerrainGrid, grid: GridSpec,
                 index: int) -> UavState:
    """At rest at goal clearance above the start, heading to the domain center."""
    x, y = float(flight.start[0]), float(flight.start[1])
    if not bool(grid.contains(x, y)):
        gx0, gx1, gy0, gy1 = grid.rect
        raise MissionError(f"flights.{index}.start: ({x:g}, {y:g}) outside the flight "
                           f"domain ({gx0:g}, {gy0:g})..({gx1:g}, {gy1:g})")
    cx, cy = grid.center
    heading = math.atan2(cy - y, cx - x) if (cx, cy) != (x, y) else 0.0
    return UavState(x=x, y=y, z=elevation_at(terrain, x, y) + flight.goal_altitude,
                    heading=wrap_angle(heading), v_h=0.0, v_z=0.0, t=0.0)


def _replan_period(limits: UavLimits, where: str) -> int:
    period = limits.mpc_horizon_s / limits.mpc_steps
    rounded = round(period)
    if abs(period - rounded) > 1e-9 or rounded < 1 \
            or abs(rounded / SENSE_DT - round(rounded / SENSE_DT)) > 1e-9:
        raise MissionError(
            f"{where}: replan period {period:g} s must be a whole multiple of {SENSE_DT:g} s")
    return int(rounded)


def prepare_environment(config: MissionConfig) -> None:
    """Check the mission inputs that need the built flight domain, each
    error naming its scenario key, and store config's derived fields.
    MissionConfig.__post_init__ calls it once per config.

    Each flight's positions, and so its planner's altitude references,
    stay inside the cell-center hull of the domain, which lies on the
    terrain with no nodata under it.
    """
    grid = build_flight_domain(config.zones, config.offset, config.cell_size)
    xmin, xmax, ymin, ymax = config.terrain.hull
    gx0, gx1, gy0, gy1 = grid.rect
    if gx0 < xmin or gx1 > xmax or gy0 < ymin or gy1 > ymax:
        raise MissionError(
            "terrain: does not cover the flight domain: domain rectangle "
            f"({gx0:g}, {gy0:g})..({gx1:g}, {gy1:g}) vs terrain extent "
            f"({xmin:g}, {ymin:g})..({xmax:g}, {ymax:g})"
        )
    nodata = first_nodata_under(config.terrain, grid.rect)
    if nodata is not None:
        row, col = nodata
        raise MissionError(
            f"terrain: cell (row {row}, col {col}) at ({config.terrain.x_centers[col]:g}, "
            f"{config.terrain.y_centers[row]:g}) is nodata under the flight domain "
            f"({gx0:g}, {gy0:g})..({gx1:g}, {gy1:g})")
    density = build_initial_density(config.zones, grid)

    setups = []
    for idx, flight in enumerate(config.flights):
        start = None if flight.start is None else _spawn_state(
            flight, config.terrain, grid, idx)
        where = f"flights.{idx}.uav: vehicle {flight.uav.name!r}"
        replan = _replan_period(flight.uav, where)
        try:
            planner = Planner(flight.uav, config.mpc, flight.min_altitude,
                              flight.goal_altitude, grid.hull)
        except MpcInfeasibleError as exc:
            raise MpcInfeasibleError(f"{where}: {exc}") from exc
        setups.append(FlightSetup(planner=planner, replan=replan, start=start))
    ground = ground_under(config.terrain, grid)
    ground.flags.writeable = False
    for name, value in (("grid", grid), ("density", density),
                        ("solver", PotentialSolver(grid, config.hedac)),
                        ("setups", tuple(setups)), ("ground", ground)):
        object.__setattr__(config, name, value)


def run_flight(field_state: FieldState, config: MissionConfig, index: int,
               carried: UavState | None = None, base_time: float = 0.0,
               observer=None) -> tuple[UavState, FlightLog, list[float], int]:
    """Run flight index of config, mutating the shared field state.

    Returns (final vehicle state, log, accomplishment after each 1 s
    sensing step, boundary clamp count). observer, if given, is called
    as observer(mission_time, field_state) after every sensing update.
    The potential is solved exactly from the field state at every step,
    so the vehicle state and the field state are all that connected
    flights carry over.
    """
    flight, setup = config.flights[index], config.setups[index]
    planner = setup.planner
    limits = planner.limits
    terrain = config.terrain
    xmin, xmax, ymin, ymax = planner.bounds

    state = setup.start if setup.start is not None else replace(carried, t=0.0)
    log = FlightLog(flight_index=index, uav=flight.uav.name, camera=flight.camera.name)
    eta_now = accomplishment(field_state)
    etas: list[float] = []
    clamp_events = 0
    substeps = int(round(SENSE_DT / KINEMATIC_DT))
    target_v_h, target_v_z = state.v_h, state.v_z
    omega = 0.0

    # Poses stay inside planner.bounds, which prepare_environment proved
    # to lie on the terrain without nodata under it.
    def log_row(s: UavState, prev: UavState | None) -> None:
        ground = ground_at(terrain, s.x, s.y)
        if s.z < ground:
            raise MissionError(
                f"flight {index}: vehicle below ground at mission time "
                f"{base_time + s.t:g} s, pose ({s.x:.2f}, {s.y:.2f}, {s.z:.2f}, "
                f"heading {s.heading:.4f}): terrain {ground:.2f}")
        speed = math.hypot(s.v_h, s.v_z)
        incline = math.atan2(s.v_z, s.v_h) if speed > 0 else 0.0
        floor_ok = s.z >= ground + NO_FLY_FLOOR - _FLAG_EPS
        velocity_ok = (limits.v_h_min - _FLAG_EPS <= s.v_h <= limits.v_h_max + _FLAG_EPS
                       and limits.v_z_min - _FLAG_EPS <= s.v_z <= limits.v_z_max + _FLAG_EPS)
        if prev is None:
            acceleration_ok = True
        else:
            ah = (s.v_h - prev.v_h) / KINEMATIC_DT
            av = (s.v_z - prev.v_z) / KINEMATIC_DT
            acceleration_ok = (limits.a_h_min - _FLAG_EPS <= ah <= limits.a_h_max + _FLAG_EPS
                               and limits.a_v_min - _FLAG_EPS <= av <= limits.a_v_max + _FLAG_EPS)
        log.rows.append((s.t, s.x, s.y, s.z, s.heading, s.v_h, s.v_z,
                         speed, incline, omega, eta_now,
                         float(floor_ok), float(velocity_ok), float(acceleration_ok)))

    log_row(state, None)
    for k in range(flight.duration_s):
        pose = CameraPose(x=state.x, y=state.y, z=state.z, yaw=state.heading)
        accumulate_coverage(field_state, pose, flight.camera, terrain,
                            config.recall, config.sensing, SENSE_DT, config.ground)
        eta_now = accomplishment(field_state)
        etas.append(eta_now)
        if observer is not None:
            observer(base_time + k + 1, field_state)
        config.solver.refresh(field_state)
        direction = steering_gradient(field_state, (state.x, state.y))
        omega = 0.0 if direction is None else turn_rate_toward(
            state.heading, direction, limits.yaw_rate_max, SENSE_DT)
        if k % setup.replan == 0:
            plan = mpc_plan(state, state.heading, terrain, planner)
            target_v_h, target_v_z = plan[0].v_h, plan[0].v_z
        for _ in range(substeps):
            prev = state
            v_h = ramp_toward(state.v_h, target_v_h, limits.a_h_min,
                              limits.a_h_max, KINEMATIC_DT)
            v_z = ramp_toward(state.v_z, target_v_z, limits.a_v_min,
                              limits.a_v_max, KINEMATIC_DT)
            control = ControlInput(speed=math.hypot(v_h, v_z),
                                   incline=math.atan2(v_z, v_h) if (v_h, v_z) != (0.0, 0.0) else 0.0,
                                   turn_rate=omega)
            state = kinematic_step(state, control, limits, KINEMATIC_DT)
            clamped_x = min(max(state.x, xmin), xmax)
            clamped_y = min(max(state.y, ymin), ymax)
            if (clamped_x, clamped_y) != (state.x, state.y):
                clamp_events += 1
                state = replace(state, x=clamped_x, y=clamped_y)
            log_row(state, prev)
    return state, log, etas, clamp_events


def run_mission(config: MissionConfig, observer=None) -> MissionReport:
    """Run all flights of a mission over one shared field state."""
    field_state = FieldState.from_density(config.density)
    logs: list[FlightLog] = []
    eta = [accomplishment(field_state)]
    clamp_total = 0
    violations = {"floor": 0, "velocity": 0, "acceleration": 0}
    carried: UavState | None = None
    base_time = 0.0
    for index, flight in enumerate(config.flights):
        carried, log, etas, clamps = run_flight(
            field_state, config, index, carried, base_time, observer)
        logs.append(log)
        eta.extend(etas)
        clamp_total += clamps
        for key, count in log.violation_counts().items():
            violations[key] += count
        base_time += flight.duration_s
    return MissionReport(mission_id=config.mission_id, logs=logs,
                         times=np.arange(len(eta), dtype=float), eta=np.array(eta),
                         field=field_state, density=config.density, clamp_events=clamp_total,
                         violations=violations)


class TargetTracker:
    """Synthetic targets with exponential thresholds, fed by the observer hook.

    Each target gets its own Philox substream keyed by (seed, index):
    first the rejection-sampling draws for its position (x, y and the
    acceptance variable, repeated until accepted), then its threshold.
    Detection times interpolate linearly inside the sensing interval in
    which the cell's coverage crosses the threshold.
    """

    MAX_REJECTION_DRAWS = 100_000

    def __init__(self, density: DensityGrid, monte_carlo: MonteCarloConfig):
        count, seed = monte_carlo.targets, monte_carlo.seed
        peak = float(density.values.max())
        if peak <= 0:
            raise MissionError("initial density is identically zero")
        xmin, xmax, ymin, ymax = density.grid.rect
        xs = np.empty(count)
        ys = np.empty(count)
        rows = np.empty(count, dtype=int)
        cols = np.empty(count, dtype=int)
        thresholds = np.empty(count)
        for j in range(count):
            gen = np.random.Generator(
                np.random.Philox(key=np.array([seed, j], dtype=np.uint64)))
            for _ in range(self.MAX_REJECTION_DRAWS):
                x = gen.uniform(xmin, xmax)
                y = gen.uniform(ymin, ymax)
                row, col = density.grid.cell_index(x, y)
                if gen.uniform(0.0, 1.0) * peak < density.values[row, col]:
                    break
            else:
                raise MissionError("rejection sampling failed to place a target")
            xs[j], ys[j], rows[j], cols[j] = x, y, row, col
            thresholds[j] = gen.standard_exponential()
        self.xs, self.ys = xs, ys
        self.rows, self.cols = rows, cols
        self.thresholds = thresholds
        self.detect_times = np.full(count, np.nan)
        self._prev = np.zeros(count)

    def __call__(self, t: float, field_state: FieldState) -> None:
        coverage = field_state.coverage[self.rows, self.cols]
        pending = np.isnan(self.detect_times)
        crossed = pending & (coverage >= self.thresholds)
        if np.any(crossed):
            gained = coverage[crossed] - self._prev[crossed]
            fraction = (self.thresholds[crossed] - self._prev[crossed]) / gained
            self.detect_times[crossed] = t - SENSE_DT + fraction * SENSE_DT
        self._prev = coverage.copy()

    def targets(self) -> list[SyntheticTarget]:
        out = []
        for j in range(self.xs.size):
            dt = self.detect_times[j]
            out.append(SyntheticTarget(
                x=float(self.xs[j]), y=float(self.ys[j]),
                row=int(self.rows[j]), col=int(self.cols[j]),
                threshold=float(self.thresholds[j]),
                detect_time=None if math.isnan(dt) else float(dt)))
        return out

    def detected_fraction(self, times: np.ndarray) -> np.ndarray:
        detected = self.detect_times[:, None] <= times[None, :]
        detected &= ~np.isnan(self.detect_times)[:, None]
        return detected.mean(axis=0)


def binomial_band(predicted: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Three-sigma binomial band around a predicted fraction."""
    sigma = np.sqrt(np.clip(predicted * (1.0 - predicted), 0.0, None) / count)
    return predicted - 3.0 * sigma, predicted + 3.0 * sigma


def monte_carlo_validate(config: MissionConfig, targets: int | None = None,
                         seed: int | None = None) -> ValidationReport:
    """Run a mission while tracking synthetic targets and compare the
    empirical detected fraction with the predicted accomplishment.
    targets and seed, when given, replace those of config.monte_carlo."""
    monte_carlo = config.monte_carlo
    monte_carlo = replace(monte_carlo,
                          targets=monte_carlo.targets if targets is None else targets,
                          seed=monte_carlo.seed if seed is None else seed)
    tracker = TargetTracker(config.density, monte_carlo)
    report = run_mission(config, observer=tracker)
    empirical = tracker.detected_fraction(report.times)
    band_low, band_high = binomial_band(report.eta, monte_carlo.targets)
    within = bool(np.all((empirical >= band_low - 1e-12)
                         & (empirical <= band_high + 1e-12)))
    return ValidationReport(mission=report, targets=tracker.targets(),
                            predicted=report.eta, empirical=empirical,
                            band_low=band_low, band_high=band_high,
                            within_band=within, target_count=monte_carlo.targets,
                            seed=monte_carlo.seed)
