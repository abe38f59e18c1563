"""Vehicle kinematics, heading steering and the altitude/velocity planner.

The control input is (speed, incline, turn_rate): horizontal speed is
speed * cos(incline), climb rate speed * sin(incline), and the heading
rotates at turn_rate. Position integrates with the post-update heading,
i.e. the heading advances first and the step is flown along the new
heading.

The planner picks a sequence of (speed, incline) pairs over a short
horizon by exhaustive dynamic programming on a discretized control
lattice. Headings are not planner decision variables: the plan assumes
the current heading, frozen for the horizon, and the heading controller
owns the actual turn. Terrain enters twice:

* the altitude reference tracks goal clearance above the ground expected
  under the vehicle, sampled along the frozen heading at the progress of
  the current horizontal speed, and
* the hard floor for each stage uses the maximum ground elevation inside
  the disc the vehicle could reach by that stage at full speed in any
  direction. The disc makes the floor safe against the heading
  controller turning between replans, at the price of climbing early
  near steep ground.

Altitude inside the planner lives on a small lattice (per-step climb
snapped to a bucket), which keeps the dynamic program exact on its own
model; a clearance margin of one pull-up distance plus one bucket
absorbs both the snap error and the dip of a ramped vertical-speed
reversal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import terrain as terrain_mod
from .errors import ControlLimitError, MpcInfeasibleError
from .terrain import TerrainGrid

_EPS = 1e-9


def wrap_angle(a: float) -> float:
    """Wrap to (-pi, pi]; +pi is kept positive so that an exact
    half-turn resolves counter-clockwise."""
    return math.atan2(math.sin(a), math.cos(a))


@dataclass(frozen=True)
class UavLimits:
    """Vehicle performance envelope (angles in degrees, SI otherwise)."""

    name: str
    incline_min_deg: float
    incline_max_deg: float
    v_h_min: float
    v_h_max: float
    v_z_min: float
    v_z_max: float
    a_h_min: float
    a_h_max: float
    a_v_min: float
    a_v_max: float
    yaw_rate_max_deg: float
    mpc_steps: int
    mpc_horizon_s: float

    def __post_init__(self) -> None:
        pairs = [
            ("incline", self.incline_min_deg, self.incline_max_deg),
            ("v_h", self.v_h_min, self.v_h_max),
            ("v_z", self.v_z_min, self.v_z_max),
            ("a_h", self.a_h_min, self.a_h_max),
            ("a_v", self.a_v_min, self.a_v_max),
        ]
        for label, lo, hi in pairs:
            if lo > hi:
                raise ControlLimitError(f"{self.name}: {label} bounds inverted")
        if self.v_h_min < 0:
            raise ControlLimitError(f"{self.name}: v_h_min must be >= 0")
        if not self.yaw_rate_max_deg > 0:
            raise ControlLimitError(f"{self.name}: yaw_rate_max must be positive")
        if self.mpc_steps < 1 or not self.mpc_horizon_s > 0:
            raise ControlLimitError(f"{self.name}: bad planner horizon")

    @property
    def yaw_rate_max(self) -> float:
        return math.radians(self.yaw_rate_max_deg)

    @property
    def incline_min(self) -> float:
        return math.radians(self.incline_min_deg)

    @property
    def incline_max(self) -> float:
        return math.radians(self.incline_max_deg)


UAV_PRESETS: dict[str, UavLimits] = {
    "M210": UavLimits(
        name="M210",
        incline_min_deg=-90.0, incline_max_deg=90.0,
        v_h_min=0.0, v_h_max=10.0,
        v_z_min=-3.0, v_z_max=5.0,
        a_h_min=-3.6, a_h_max=2.0,
        a_v_min=-2.0, a_v_max=2.8,
        yaw_rate_max_deg=120.0,
        mpc_steps=5, mpc_horizon_s=15.0,
    ),
    "Mavic2ED": UavLimits(
        name="Mavic2ED",
        incline_min_deg=-90.0, incline_max_deg=90.0,
        v_h_min=0.0, v_h_max=8.0,
        v_z_min=-2.0, v_z_max=3.0,
        a_h_min=-3.6, a_h_max=2.0,
        a_v_min=-2.0, a_v_max=2.8,
        yaw_rate_max_deg=30.0,
        mpc_steps=5, mpc_horizon_s=15.0,
    ),
}


@dataclass(frozen=True)
class UavState:
    """Vehicle state: position, heading (rad, east = 0, counter-clockwise
    positive) and the current horizontal/vertical speeds."""

    x: float
    y: float
    z: float
    heading: float
    v_h: float = 0.0
    v_z: float = 0.0
    t: float = 0.0


@dataclass(frozen=True)
class ControlInput:
    """Speed intensity (m/s), incline angle (rad) and turn rate (rad/s)."""

    speed: float
    incline: float
    turn_rate: float = 0.0

    @property
    def v_h(self) -> float:
        return self.speed * math.cos(self.incline)

    @property
    def v_z(self) -> float:
        return self.speed * math.sin(self.incline)


def validate_control(control: ControlInput, limits: UavLimits) -> tuple[float, float]:
    """Raise ControlLimitError naming the first violated bound, if any;
    otherwise return the control's (v_h, v_z)."""
    if control.speed < -_EPS:
        raise ControlLimitError("speed must be >= 0")
    v_h, v_z = control.v_h, control.v_z
    if not control.incline >= limits.incline_min - _EPS:
        bound = "incline_min"
    elif not control.incline <= limits.incline_max + _EPS:
        bound = "incline_max"
    elif not v_h >= limits.v_h_min - _EPS:
        bound = "v_h_min"
    elif not v_h <= limits.v_h_max + _EPS:
        bound = "v_h_max"
    elif not v_z >= limits.v_z_min - _EPS:
        bound = "v_z_min"
    elif not v_z <= limits.v_z_max + _EPS:
        bound = "v_z_max"
    elif not abs(control.turn_rate) <= limits.yaw_rate_max + _EPS:
        bound = "yaw_rate_max"
    else:
        return v_h, v_z
    raise ControlLimitError(
        f"{limits.name}: control violates {bound} "
        f"(speed={control.speed:g}, incline={math.degrees(control.incline):g} deg, "
        f"turn_rate={math.degrees(control.turn_rate):g} deg/s)"
    )


def turn_rate_toward(heading: float, desired_dir, yaw_rate_max: float,
                     dt: float) -> float:
    """The turn rate that rotates the heading toward a desired unit
    direction over dt, with the turn capped at yaw_rate_max * dt. An
    exact 180-degree disagreement turns counter-clockwise."""
    target = math.atan2(float(desired_dir[1]), float(desired_dir[0]))
    delta = wrap_angle(target - heading)
    cap = yaw_rate_max * dt
    if delta > cap:
        delta = cap
    elif delta < -cap:
        delta = -cap
    new_heading = wrap_angle(heading + delta)
    return wrap_angle(new_heading - heading) / dt


def kinematic_step(state: UavState, control: ControlInput, limits: UavLimits,
                   dt: float) -> UavState:
    """Advance the state by dt under a constant control input.

    The heading advances by turn_rate * dt first and the position then
    moves along the post-update heading.
    """
    v_h, v_z = validate_control(control, limits)
    heading = wrap_angle(state.heading + control.turn_rate * dt)
    return UavState(
        x=state.x + v_h * math.cos(heading) * dt,
        y=state.y + v_h * math.sin(heading) * dt,
        z=state.z + v_z * dt,
        heading=heading,
        v_h=v_h,
        v_z=v_z,
        t=state.t + dt,
    )


def ramp_toward(current: float, target: float, rate_min: float, rate_max: float,
                dt: float) -> float:
    """Move a velocity toward a target under asymmetric rate bounds."""
    step = target - current
    return current + min(max(step, rate_min * dt), rate_max * dt)


def ramp_displacement(current: float, target: float, rate_min: float,
                      rate_max: float, dt: float) -> float:
    """Displacement over dt while a velocity ramps toward a target.

    The velocity moves at the applicable rate bound until it reaches the
    target, then holds. Discrete ramp_toward execution brackets this
    continuous value on the safe side for both climbs and descents.
    """
    step = target - current
    rate = rate_max if step > 0 else rate_min
    if step == 0.0 or rate == 0.0:
        return current * dt
    t_reach = step / rate
    if t_reach >= dt:
        return current * dt + 0.5 * rate * dt * dt
    return current * t_reach + 0.5 * step * t_reach + target * (dt - t_reach)


@dataclass(frozen=True)
class MpcConfig:
    """Planner configuration that a scenario's mpc section can set: the
    cost weights, the control lattice and the altitude bucket. The
    clearances come from each flight and are given to the Planner.
    """

    speed_weight: float = 1.0
    altitude_weight: float = 0.05
    speed_levels: int = 11
    incline_levels: int = 11
    altitude_bucket: float = 1.0

    def __post_init__(self) -> None:
        if self.speed_levels < 2 or self.incline_levels < 2:
            raise MpcInfeasibleError("control lattice needs at least 2 levels per axis")
        if not self.altitude_bucket > 0:
            raise MpcInfeasibleError("altitude_bucket must be positive")
        if self.speed_weight < 0 or self.altitude_weight < 0:
            raise MpcInfeasibleError("planner weights must be >= 0")


class Planner:
    """What the planner needs that depends only on the vehicle limits,
    the planner configuration and the flight's clearances, built once
    per flight. min_clearance is the hard terrain floor (m above
    ground), goal_clearance the tracked height above ground. bounds
    (xmin, xmax, ymin, ymax) is the box the altitude references are
    clamped to: the region the vehicle can reach.

    speeds, inclines, v_h and v_z are the control lattice in speed-major
    order: speeds span [0, v_h_max], inclines the vehicle's incline
    range, and points outside the velocity envelope are dropped.
    allowed[prev, next] holds where accel_ok admits next after prev; its
    distinct columns are pred_sets, and pred_sets[:, set_of] == allowed.
    Controls whose rows of pred_sets are equal belong to the same sets
    and form one membership atom: a stage reduces each atom with one
    np.minimum.reduceat over the controls sorted by atom, then each set
    over its atoms (with the default lattice, 21 atoms for 78 controls
    on the M210, 7 for 66 on the Mavic2ED). Altitude lives on n_buckets
    buckets, half either side of the start; dz_buckets is each
    control's climb per stage in buckets, so after stage i only buckets
    half + i * [min dz, max dz] can be reached. The flat int32 gather
    index reads, for each control and bucket, its set's stage minimum
    at the bucket before the climb, or an inf column when that bucket
    lies off the lattice. margin, one pull-up distance plus one bucket,
    is added to the terrain floor.
    """

    def __init__(self, limits: UavLimits, config: MpcConfig, min_clearance: float,
                 goal_clearance: float, bounds: tuple[float, float, float, float]):
        if not 0 <= min_clearance <= goal_clearance:
            raise MpcInfeasibleError("clearances must satisfy 0 <= min <= goal")
        self.limits = limits
        self.config = config
        self.min_clearance = min_clearance
        self.goal_clearance = goal_clearance
        self.bounds = bounds
        steps = limits.mpc_steps
        self.dt = dt = limits.mpc_horizon_s / steps
        self._dv_h = (limits.a_h_min * dt - _EPS, limits.a_h_max * dt + _EPS)
        self._dv_z = (limits.a_v_min * dt - _EPS, limits.a_v_max * dt + _EPS)

        speeds = np.linspace(0.0, limits.v_h_max, config.speed_levels)
        inclines = np.linspace(limits.incline_min, limits.incline_max,
                               config.incline_levels)
        sp, inc = np.meshgrid(speeds, inclines, indexing="ij")
        sp = sp.ravel()
        inc = inc.ravel()
        v_h = sp * np.cos(inc)
        v_z = sp * np.sin(inc)
        ok = (
            (v_h >= limits.v_h_min - _EPS) & (v_h <= limits.v_h_max + _EPS)
            & (v_z >= limits.v_z_min - _EPS) & (v_z <= limits.v_z_max + _EPS)
        )
        if not np.any(ok):
            raise MpcInfeasibleError("control lattice has no point inside the velocity bounds")
        self.speeds, self.inclines, self.v_h, self.v_z = sp[ok], inc[ok], v_h[ok], v_z[ok]
        self.speed_term = config.speed_weight * self.v_h

        self.allowed = self.accel_ok(self.v_h[None, :] - self.v_h[:, None],
                                     self.v_z[None, :] - self.v_z[:, None])
        sets: dict[bytes, int] = {}
        self.set_of = np.array([sets.setdefault(column.tobytes(), len(sets))
                                for column in self.allowed.T])
        self.pred_sets = self.allowed[:, np.unique(self.set_of, return_index=True)[1]]
        atoms: dict[bytes, int] = {}
        atom_of = np.array([atoms.setdefault(row.tobytes(), len(atoms))
                            for row in self.pred_sets])
        self._atom_order = np.argsort(atom_of, kind="stable")
        self._atom_starts = np.flatnonzero(np.diff(atom_of[self._atom_order], prepend=-1))
        # [set, atom, 1] mask of one stage's set reduction
        self._atom_in_set = self.pred_sets[self._atom_order[self._atom_starts]].T[:, :, None]

        bucket = config.altitude_bucket
        self.dz_buckets = np.rint(self.v_z * dt / bucket).astype(int)
        self._dz_range = (int(self.dz_buckets.min()), int(self.dz_buckets.max()))
        self.half = steps * int(np.max(np.abs(self.dz_buckets)))
        self.n_buckets = n = 2 * self.half + 1
        self.z_offsets = (np.arange(n) - self.half) * bucket
        self.first_bucket = self.half + self.dz_buckets
        src = np.arange(n) - self.dz_buckets[:, None]
        self._gather = (self.set_of[:, None] * (n + 1)
                        + np.where((src >= 0) & (src < n), src, n)).astype(np.int32)

        pull_up = 0.0
        if limits.a_v_max > 0 and limits.v_z_min < 0:
            pull_up = limits.v_z_min ** 2 / (2.0 * limits.a_v_max)
        self.margin = pull_up + bucket
        self._disc_reach = np.arange(1, steps + 1) * dt * limits.v_h_max
        self._max_climb = np.arange(steps) * limits.v_z_max * dt

    def accel_ok(self, dv_h, dv_z):
        """Whether a stage's velocity change keeps to the acceleration bounds."""
        return ((dv_h >= self._dv_h[0]) & (dv_h <= self._dv_h[1])
                & (dv_z >= self._dv_z[0]) & (dv_z <= self._dv_z[1]))

    def stages(self, state: UavState, heading: float, grid: TerrainGrid):
        """The stage model of one replan, shared by mpc_plan and
        evaluate_plan: (ramp_dz, floors, refs).

        * ramp_dz is the exact ramped first-stage climb of each lattice
          v_z;
        * floors[i] bounds the ground under any path reachable by stage
          i+1 at full speed (disc lookahead, truncated at the terrain
          extent, nodata cells skipped) plus min clearance and the
          safety margin, capped at the altitude reachable by that stage;
        * refs[i] is goal clearance above the ground expected at the
          current speed along the frozen heading, clamped to bounds.
        """
        limits, dt = self.limits, self.dt
        steps = limits.mpc_steps
        xmin, xmax, ymin, ymax = self.bounds

        # Window of terrain cells around the vehicle, as wide as the last disc.
        radii = self._disc_reach + 0.75 * grid.cell_size
        rows, cols = grid.window(state.x, state.y, radii[-1])
        block = grid.elevations[rows, cols]
        dist = np.hypot(grid.x_centers[cols] - state.x, (grid.y_centers[rows] - state.y)[:, None])
        if grid.has_nodata:
            # Nodata cells may lie outside the flight domain; they bound nothing.
            dist[block == grid.nodata] = np.inf
        # Each cell raises the floor of the first disc that holds it and,
        # through the running maximum, of every later one.
        first_disc = np.searchsorted(radii, dist.ravel())
        held = first_disc < steps
        highest = np.full(steps, -np.inf)
        np.maximum.at(highest, first_disc[held], block.ravel()[held])
        highest = np.maximum.accumulate(highest)
        if highest[0] == -np.inf:
            highest[highest == -np.inf] = terrain_mod.elevation_at(grid, state.x, state.y)
        floors = highest + self.min_clearance + self.margin

        v_nominal = min(max(state.v_h, 0.0), limits.v_h_max)
        cos_h, sin_h = math.cos(heading), math.sin(heading)
        refs = [terrain_mod.ground_at(
                    grid, min(max(state.x + cos_h * k * dt * v_nominal, xmin), xmax),
                    min(max(state.y + sin_h * k * dt * v_nominal, ymin), ymax))
                + self.goal_clearance for k in range(1, steps + 1)]

        # The executed first step must clear its floor with the velocity
        # still ramping, so stage 1 is gated on the exact ramped
        # displacement: ramp_displacement of each lattice v_z, in its
        # expression order.
        step = self.v_z - state.v_z
        rate = np.where(step > 0, limits.a_v_max, limits.a_v_min)
        t_reach = np.divide(step, rate, out=np.zeros_like(step), where=rate != 0.0)
        ramp_dz = np.where(
            (step == 0.0) | (rate == 0.0), state.v_z * dt,
            np.where(t_reach >= dt, state.v_z * dt + 0.5 * rate * dt * dt,
                     state.v_z * t_reach + 0.5 * step * t_reach + self.v_z * (dt - t_reach)))
        # A start below a floor cannot be fixed within one stage; cap each
        # floor at the best altitude reachable by then, which turns the
        # constraint into max-rate climb recovery until compliance returns.
        reachable = state.z + float(ramp_dz.max()) + self._max_climb
        return ramp_dz, np.minimum(floors, reachable), refs


def mpc_plan(state: UavState, heading: float, grid: TerrainGrid,
             planner: Planner) -> list[ControlInput]:
    """Plan speed/incline controls for the horizon; execute only the first.

    Minimizes sum_i [ -speed_weight * v_h_i
                      + altitude_weight * (z_i - reference_i)^2 ]
    subject to the velocity envelope, per-step acceleration bounds and
    the stage floors, by exact dynamic programming over the control
    lattice and the altitude buckets. Each stage works only on the
    bucket band the previous stages can reach: it takes the minimum of
    each membership atom, then of each predecessor set over its atoms,
    and reads it back per control and bucket through the gather index,
    which shifts it by the control's climb. Buckets below the stage
    floor and outside the band stay inf, as they would in a full-width
    stage, and min is exact, so every stage value is the same float as
    a reduction over all controls and buckets. The plan is walked back
    through the stored stage values; ties go to the first minimum in
    lattice order, control-major then bucket. Raises
    MpcInfeasibleError naming the binding constraint when no sequence
    survives.
    """
    ramp_dz, floors, refs = planner.stages(state, heading, grid)
    p = planner
    weight = p.config.altitude_weight
    z_values = state.z + p.z_offsets
    n = p.n_buckets

    first_ok = p.accel_ok(p.v_h - state.v_h, p.v_z - state.v_z)
    if not np.any(first_ok):
        raise MpcInfeasibleError(
            "no lattice control satisfies the acceleration bounds from "
            f"(v_h={state.v_h:g}, v_z={state.v_z:g}) within {p.dt:g} s"
        )

    # weight * (z - ref)^2 of every stage and bucket
    altitude_cost = weight * (z_values - np.array(refs)[:, None]) ** 2

    # Stage 1: each control lands in exactly one bucket. Stage values are
    # kept as (buckets lo.., [control, bucket - lo]) over the band the
    # stage can reach; outside it every value would be inf.
    ok = (first_ok & (state.z + ramp_dz >= floors[0] - _EPS)
          & (z_values[p.first_bucket] >= floors[0] - _EPS))
    landing = p.first_bucket[ok]
    if landing.size == 0:
        raise MpcInfeasibleError(
            f"no feasible first step: altitude {state.z:.2f} m against the "
            f"stage-1 terrain floor {floors[0]:.2f} m under the climb and "
            "acceleration limits"
        )
    lo, hi = int(landing.min()), int(landing.max()) + 1
    value = np.full((p.speeds.size, hi - lo), np.inf)
    value[ok, landing - lo] = -p.speed_term[ok] + altitude_cost[0, landing]

    # Stages 2..N: the band moves by each control's climb and starts at
    # the first bucket on or above the stage floor.
    values = [(lo, value)]
    dz_min, dz_max = p._dz_range
    n_sets, n_atoms = p._atom_in_set.shape[:2]
    for i in range(1, p.limits.mpc_steps):
        by_atom = np.minimum.reduceat(value[p._atom_order], p._atom_starts, axis=0)
        best_of_set = np.full((n_sets, n + 1), np.inf)
        best_of_set[:, lo:hi] = np.min(
            np.broadcast_to(by_atom, (n_sets, n_atoms, hi - lo)), axis=1,
            where=p._atom_in_set, initial=np.inf)
        lo = max(lo + dz_min, int(np.searchsorted(z_values, floors[i] - _EPS)))
        hi = max(lo, hi + dz_max)
        value = ((best_of_set.ravel()[p._gather[:, lo:hi]] - p.speed_term[:, None])
                 + altitude_cost[i, lo:hi])
        values.append((lo, value))
        if not np.isfinite(value).any():
            raise MpcInfeasibleError(
                f"no feasible plan at stage {i + 1}: terrain floor "
                f"{floors[i]:.2f} m cannot be reached within the climb limits"
            )

    k, b = divmod(int(np.argmin(value)), hi - lo)
    b += lo
    sequence = [k]
    for lo, previous in reversed(values[:-1]):
        b -= p.dz_buckets[k]
        k = int(np.argmin(np.where(p.allowed[:, k], previous[:, b - lo], np.inf)))
        sequence.append(k)
    sequence.reverse()
    return [ControlInput(speed=float(p.speeds[k]), incline=float(p.inclines[k]),
                         turn_rate=0.0) for k in sequence]


def evaluate_plan(controls, state: UavState, heading: float, grid: TerrainGrid,
                  planner: Planner) -> tuple[float, bool]:
    """(cost, feasible) of a control sequence under the planner's model.

    Takes its stage floors, references and acceleration test from the
    same planner as mpc_plan, but walks the controls one by one with
    scalar snapped altitude steps, so exhaustive search over the lattice
    with this evaluator is an independent oracle for the planner's
    optimum.
    """
    limits, config, dt = planner.limits, planner.config, planner.dt
    steps = limits.mpc_steps
    if len(controls) != steps:
        raise MpcInfeasibleError(f"plan must have {steps} controls")
    _, floors, refs = planner.stages(state, heading, grid)
    bucket = config.altitude_bucket

    z = state.z
    prev_vh, prev_vz = state.v_h, state.v_z
    cost = 0.0
    for i, control in enumerate(controls):
        validate_control(control, limits)
        vh, vz = control.v_h, control.v_z
        if not planner.accel_ok(vh - prev_vh, vz - prev_vz):
            return math.inf, False
        if i == 0:
            ramped = state.z + ramp_displacement(
                state.v_z, vz, limits.a_v_min, limits.a_v_max, dt)
            if ramped < floors[0] - _EPS:
                return math.inf, False
        z = z + round(vz * dt / bucket) * bucket
        if z < floors[i] - _EPS:
            return math.inf, False
        cost += (-config.speed_weight * vh
                 + config.altitude_weight * (z - refs[i]) ** 2)
        prev_vh, prev_vz = vh, vz
    return cost, True
