import itertools
import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from uavsearch import (UAV_PRESETS, ControlInput, ControlLimitError, MpcConfig,
                       MpcInfeasibleError, Planner, TerrainError, TerrainGrid, UavLimits,
                       UavState, elevation_at, evaluate_plan, kinematic_step, mpc_plan,
                       ramp_displacement, ramp_toward, turn_rate_toward,
                       validate_control, wrap_angle)

M210 = UAV_PRESETS["M210"]
MAVIC = UAV_PRESETS["Mavic2ED"]


def flat_terrain(value=0.0, ncols=80, nrows=80, cell=10.0, x0=-200.0, y0=-200.0):
    return TerrainGrid(ncols=ncols, nrows=nrows, x_origin=x0, y_origin=y0,
                       cell_size=cell, nodata=-9999.0,
                       elevations=np.full((nrows, ncols), value))


FLAT = flat_terrain().hull  # the planner box of every flat-terrain test


def test_wrap_angle():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-0.1) == pytest.approx(-0.1)
    assert wrap_angle(2 * math.pi + 0.4) == pytest.approx(0.4)
    assert abs(wrap_angle(math.pi)) == pytest.approx(math.pi)
    for a in np.linspace(-20, 20, 401):
        w = wrap_angle(float(a))
        assert -math.pi <= w <= math.pi
        assert math.cos(w) == pytest.approx(math.cos(a), abs=1e-12)
        assert math.sin(w) == pytest.approx(math.sin(a), abs=1e-12)


def test_preset_envelopes():
    assert M210.v_h_max == 10.0 and M210.v_z_max == 5.0 and M210.v_z_min == -3.0
    assert M210.yaw_rate_max == pytest.approx(math.radians(120.0))
    assert MAVIC.v_h_max == 8.0 and MAVIC.v_z_max == 3.0 and MAVIC.v_z_min == -2.0
    assert MAVIC.yaw_rate_max_deg == 30.0
    for limits in UAV_PRESETS.values():
        assert limits.a_h_min == -3.6 and limits.a_h_max == 2.0
        assert limits.a_v_min == -2.0 and limits.a_v_max == 2.8
        assert limits.mpc_steps == 5 and limits.mpc_horizon_s == 15.0


def test_limits_validation():
    with pytest.raises(ControlLimitError):
        replace(M210, v_h_min=5.0, v_h_max=2.0)
    with pytest.raises(ControlLimitError):
        replace(M210, v_h_min=-1.0)
    with pytest.raises(ControlLimitError):
        replace(M210, yaw_rate_max_deg=0.0)
    with pytest.raises(ControlLimitError):
        replace(M210, mpc_steps=0)


def test_control_input_velocities():
    c = ControlInput(speed=5.0, incline=0.2, turn_rate=0.1)
    assert c.v_h == pytest.approx(5.0 * math.cos(0.2))
    assert c.v_z == pytest.approx(5.0 * math.sin(0.2))
    level = ControlInput(speed=7.0, incline=0.0)
    assert level.v_h == 7.0 and level.v_z == 0.0


@pytest.mark.parametrize("control, limits, bound", [
    (ControlInput(-1.0, 0.0), M210, "speed"),
    (ControlInput(5.0, 2.0), M210, "incline_max"),
    (ControlInput(5.0, -2.0), M210, "incline_min"),
    (ControlInput(10.0, math.radians(40.0)), M210, "v_z_max"),
    (ControlInput(10.0, math.radians(-40.0)), M210, "v_z_min"),
    (ControlInput(10.0, 0.0), MAVIC, "v_h_max"),
    (ControlInput(5.0, 0.0, turn_rate=3.0), M210, "yaw_rate_max"),
])
def test_validate_control_names_bound(control, limits, bound):
    with pytest.raises(ControlLimitError) as err:
        validate_control(control, limits)
    assert bound in str(err.value)


def test_turn_rate_toward_caps_at_yaw_rate():
    yaw_rate = math.radians(120.0)
    # large disagreement: turn capped at yaw_rate
    assert turn_rate_toward(0.0, (0.0, 1.0), yaw_rate, 0.5) == pytest.approx(yaw_rate)
    # from any heading, the turn reaches the target or takes the full
    # cap toward it
    yaw_rate = math.radians(90.0)
    for heading in (-2.0, 0.0, 1.3):
        for target in (-3.0, -0.5, 0.9, 2.8):
            rate = turn_rate_toward(heading, (math.cos(target), math.sin(target)),
                                    yaw_rate, 0.5)
            assert abs(rate) <= yaw_rate + 1e-12
            gap = wrap_angle(target - heading)
            want = gap if abs(gap) <= 0.5 * yaw_rate else math.copysign(0.5 * yaw_rate, gap)
            assert rate * 0.5 == pytest.approx(want, abs=1e-12)


def test_turn_rate_toward_reaches_target():
    yaw_rate = math.radians(120.0)
    # small disagreement: reach the target exactly within dt
    rate = turn_rate_toward(0.2, (math.cos(0.4), math.sin(0.4)), yaw_rate, 0.5)
    assert 0.2 + rate * 0.5 == pytest.approx(0.4)
    # negative direction turns clockwise
    rate = turn_rate_toward(0.0, (math.cos(-0.3), math.sin(-0.3)), yaw_rate, 0.5)
    assert rate * 0.5 == pytest.approx(-0.3)


def test_turn_rate_toward_180_degree_tie_turns_ccw():
    yaw_rate = math.radians(120.0)
    rate = turn_rate_toward(0.0, (-1.0, 0.0), yaw_rate, 0.5)
    assert rate == pytest.approx(yaw_rate)  # positive = counter-clockwise
    rate = turn_rate_toward(1.0, (math.cos(1.0 + math.pi), math.sin(1.0 + math.pi)),
                            yaw_rate, 0.5)
    assert rate == pytest.approx(yaw_rate)


def test_kinematic_step_analytic():
    state = UavState(x=10.0, y=-5.0, z=100.0, heading=0.0, v_h=4.0, v_z=0.0, t=3.0)
    control = ControlInput(speed=5.0, incline=0.2, turn_rate=0.3)
    nxt = kinematic_step(state, control, M210, dt=0.5)
    heading = 0.15
    v_h = 5.0 * math.cos(0.2)
    assert nxt.heading == pytest.approx(heading)
    assert nxt.x == pytest.approx(10.0 + v_h * math.cos(heading) * 0.5)
    assert nxt.y == pytest.approx(-5.0 + v_h * math.sin(heading) * 0.5)
    assert nxt.z == pytest.approx(100.0 + 5.0 * math.sin(0.2) * 0.5)
    assert nxt.v_h == pytest.approx(v_h)
    assert nxt.t == 3.5
    with pytest.raises(ControlLimitError):
        kinematic_step(state, ControlInput(speed=50.0, incline=0.0), M210, 0.5)


def test_ramp_toward_clips_and_lands():
    # climb limited by rate_max
    assert ramp_toward(0.0, 5.0, -2.0, 2.8, 1.0) == pytest.approx(2.8)
    # descent limited by rate_min
    assert ramp_toward(2.0, -4.0, -2.0, 2.8, 1.0) == pytest.approx(0.0)
    # in reach: land exactly
    assert ramp_toward(1.0, 1.5, -2.0, 2.8, 1.0) == 1.5
    assert ramp_toward(1.0, 1.0, -2.0, 2.8, 0.5) == 1.0


@pytest.mark.parametrize("v0, target, dt", [
    (0.0, 5.0, 3.0), (0.0, 5.0, 1.0), (-3.0, 5.0, 3.0), (2.0, -1.0, 2.0),
    (4.0, 4.0, 2.0), (1.0, -3.0, 0.5), (-2.0, -2.0, 1.5),
])
def test_ramp_displacement_matches_fine_integration(v0, target, dt):
    rate_min, rate_max = -2.0, 2.8
    fine = 1e-4
    v = v0
    travelled = 0.0
    steps = int(round(dt / fine))
    for _ in range(steps):
        v_next = ramp_toward(v, target, rate_min, rate_max, fine)
        travelled += 0.5 * (v + v_next) * fine
        v = v_next
    got = ramp_displacement(v0, target, rate_min, rate_max, dt)
    assert got == pytest.approx(travelled, abs=1e-6)


def test_ramp_displacement_zero_rate_holds_current():
    assert ramp_displacement(2.0, 0.0, 0.0, 3.0, 4.0) == pytest.approx(8.0)


def test_control_lattice_prunes_envelope():
    config = MpcConfig()
    planner = Planner(M210, config, 35.0, 55.0, FLAT)
    speeds, inclines, v_h, v_z = planner.speeds, planner.inclines, planner.v_h, planner.v_z
    assert np.all(v_h >= -1e-9) and np.all(v_h <= 10.0 + 1e-9)
    assert np.all(v_z >= -3.0 - 1e-9) and np.all(v_z <= 5.0 + 1e-9)
    # full speed, level flight survives; full speed straight up does not
    assert any(s == 10.0 and i == 0.0 for s, i in zip(speeds, inclines))
    assert not any(s == 10.0 and abs(i) == pytest.approx(math.pi / 2)
                   for s, i in zip(speeds, inclines))
    # deterministic ordering
    again = Planner(M210, config, 35.0, 55.0, FLAT)
    for a, b in zip((speeds, inclines, v_h, v_z),
                    (again.speeds, again.inclines, again.v_h, again.v_z)):
        np.testing.assert_array_equal(a, b)


def test_clearance_margin():
    config = MpcConfig(altitude_bucket=1.0)
    assert Planner(M210, config, 35.0, 55.0, FLAT).margin \
        == pytest.approx(3.0 ** 2 / (2.0 * 2.8) + 1.0)
    assert Planner(MAVIC, config, 35.0, 55.0, FLAT).margin \
        == pytest.approx(2.0 ** 2 / (2.0 * 2.8) + 1.0)


def test_mpc_config_validation():
    with pytest.raises(MpcInfeasibleError):
        Planner(M210, MpcConfig(), 50.0, 40.0, FLAT)
    with pytest.raises(MpcInfeasibleError):
        Planner(M210, MpcConfig(), -1.0, 40.0, FLAT)
    with pytest.raises(MpcInfeasibleError):
        MpcConfig(speed_levels=1)
    with pytest.raises(MpcInfeasibleError):
        MpcConfig(altitude_bucket=0.0)
    with pytest.raises(MpcInfeasibleError):
        MpcConfig(speed_weight=-1.0)


def test_mpc_flat_terrain_cruises_at_goal():
    grid = flat_terrain(100.0)
    config = MpcConfig()
    state = UavState(x=0.0, y=0.0, z=155.0, heading=0.0, v_h=10.0, v_z=0.0)
    plan = mpc_plan(state, 0.0, grid, Planner(M210, config, 35.0, 55.0, FLAT))
    assert len(plan) == M210.mpc_steps
    for control in plan:
        validate_control(control, M210)
        assert control.turn_rate == 0.0
        assert control.v_h == pytest.approx(10.0)
        assert control.v_z == pytest.approx(0.0, abs=1e-12)


def test_mpc_climbs_before_a_wall():
    grid = flat_terrain(0.0)
    elev = grid.elevations.copy()
    elev[:, 22:] = 40.0  # ground step 25 m ahead, inside the first disc
    wall = TerrainGrid(ncols=80, nrows=80, x_origin=-200.0, y_origin=-200.0,
                       cell_size=10.0, nodata=-9999.0, elevations=elev)
    config = MpcConfig()
    state = UavState(x=0.0, y=0.0, z=55.0, heading=0.0, v_h=10.0, v_z=0.0)
    plan = mpc_plan(state, 0.0, wall, Planner(M210, config, 35.0, 55.0, FLAT))
    # the raised floor is unreachable within one stage, so recovery
    # climbs at the steepest rate the control lattice offers
    v_z = Planner(M210, config, 35.0, 55.0, FLAT).v_z
    assert plan[0].v_z == pytest.approx(float(v_z.max()))
    assert plan[0].v_z == pytest.approx(5.0)  # the vertical-climb lattice point


def test_mpc_recovers_from_below_floor_at_max_climb():
    grid = flat_terrain(100.0)
    config = MpcConfig()
    state = UavState(x=0.0, y=0.0, z=110.0, heading=0.0, v_h=0.0, v_z=0.0)
    plan = mpc_plan(state, 0.0, grid, Planner(M210, config, 35.0, 55.0, FLAT))
    v_z = Planner(M210, MpcConfig(), 35.0, 55.0, FLAT).v_z
    assert plan[0].v_z == pytest.approx(float(v_z.max()))
    cost, feasible = evaluate_plan(plan, state, 0.0, grid, Planner(M210, config, 35.0, 55.0, FLAT))
    assert feasible


def test_mpc_ties_go_to_the_first_lattice_point():
    # Without a speed reward every hover plan at goal clearance costs
    # nothing; the planner keeps the first minimum in lattice order.
    grid = flat_terrain(100.0)
    state = UavState(x=0.0, y=0.0, z=155.0, heading=0.0, v_h=0.0, v_z=0.0)
    plan = mpc_plan(state, 0.0, grid, Planner(M210, MpcConfig(speed_weight=0.0), 35.0, 55.0, FLAT))
    assert plan == [ControlInput(speed=0.0, incline=M210.incline_min)] * 5


def test_mpc_floors_skip_nodata_cells():
    # A nodata cell, here a large sentinel at (405, 405), lies inside
    # the stage-5 disc and off the reference line. Nodata may lie
    # outside the flight domain, so it must not raise a floor: the plan
    # equals the one over clean terrain.
    grid = flat_terrain(100.0)
    elev = grid.elevations.copy()
    elev[60, 60] = 9999.0
    holed = replace(grid, nodata=9999.0, elevations=elev)
    config = MpcConfig()
    state = UavState(x=300.0, y=300.0, z=155.0, heading=0.0, v_h=10.0, v_z=0.0)
    plan = mpc_plan(state, 0.0, holed, Planner(M210, config, 35.0, 55.0, FLAT))
    assert plan == mpc_plan(state, 0.0, grid, Planner(M210, config, 35.0, 55.0, FLAT))
    assert plan[0].v_h == pytest.approx(10.0)
    assert plan[0].v_z == pytest.approx(0.0, abs=1e-12)


def test_mpc_infeasible_velocity_state():
    grid = flat_terrain(0.0)
    state = UavState(x=0.0, y=0.0, z=55.0, heading=0.0, v_h=50.0, v_z=0.0)
    with pytest.raises(MpcInfeasibleError) as err:
        mpc_plan(state, 0.0, grid, Planner(M210, MpcConfig(), 35.0, 55.0, FLAT))
    assert "acceleration" in str(err.value)


def test_mpc_deterministic():
    grid = flat_terrain(0.0)
    state = UavState(x=5.0, y=-3.0, z=60.0, heading=0.7, v_h=6.0, v_z=1.0)
    config = MpcConfig()
    a = mpc_plan(state, 0.7, grid, Planner(M210, config, 35.0, 55.0, FLAT))
    b = mpc_plan(state, 0.7, grid, Planner(M210, config, 35.0, 55.0, FLAT))
    assert a == b


# Reduced lattice for the exhaustive oracle: 3 speeds x 5 inclines over
# 3 stages keeps full enumeration tractable.
ORACLE_LIMITS = UavLimits(
    name="probe",
    incline_min_deg=-90.0, incline_max_deg=90.0,
    v_h_min=0.0, v_h_max=6.0,
    v_z_min=-2.0, v_z_max=2.5,
    a_h_min=-3.0, a_h_max=2.0,
    a_v_min=-2.0, a_v_max=2.0,
    yaw_rate_max_deg=60.0,
    mpc_steps=3, mpc_horizon_s=9.0,
)
# variant whose acceleration window cannot span the speed range in one step
TIGHT_LIMITS = replace(ORACLE_LIMITS, name="probe_tight",
                       a_h_min=-1.2, a_h_max=1.0, a_v_min=-1.0, a_v_max=1.0)
ORACLE_CONFIG = MpcConfig(speed_levels=3, incline_levels=5, altitude_bucket=2.0)
ORACLE_CLEARANCES = (20.0, 40.0)  # min, goal


def brute_force_plan(state, heading, grid, limits, config):
    planner = Planner(limits, config, *ORACLE_CLEARANCES, HILLY)
    unique = {}
    for s, i in zip(planner.speeds, planner.inclines):
        key = (round(s * math.cos(i), 12), round(s * math.sin(i), 12))
        unique.setdefault(key, ControlInput(speed=float(s), incline=float(i)))
    controls = list(unique.values())
    best_cost, best_seq = math.inf, None
    for seq in itertools.product(controls, repeat=limits.mpc_steps):
        cost, ok = evaluate_plan(list(seq), state, heading, grid, planner)
        if ok and cost < best_cost - 1e-12:
            best_cost, best_seq = cost, seq
    return best_cost, best_seq


def hilly_terrain(rng):
    ncols = nrows = 60
    cell = 10.0
    X, Y = np.meshgrid((np.arange(ncols) + 0.5) * cell,
                       (np.arange(nrows) + 0.5) * cell)
    elev = np.zeros_like(X)
    for _ in range(4):
        cx, cy = rng.uniform(100, 500, 2)
        width = rng.uniform(40, 120)
        height = rng.uniform(-20, 35)
        elev += height * np.exp(-(((X - cx) ** 2 + (Y - cy) ** 2) / width ** 2))
    return TerrainGrid(ncols=ncols, nrows=nrows, x_origin=0.0, y_origin=0.0,
                       cell_size=cell, nodata=-9999.0, elevations=elev)


HILLY = hilly_terrain(np.random.default_rng(0)).hull  # the same for every rng


# variant with skewed acceleration bounds: its predecessor sets are not
# nested and its membership atoms differ from its sets
SKEW_LIMITS = replace(ORACLE_LIMITS, name="probe_skew",
                      a_h_min=-1.5, a_h_max=1.0, a_v_min=-0.9, a_v_max=0.8)
SKEW_CONFIG = MpcConfig(speed_levels=4, incline_levels=5, altitude_bucket=1.0)


def random_lattice(seed):
    rng = np.random.default_rng(seed)
    return MpcConfig(speed_levels=int(rng.integers(2, 5)),
                     incline_levels=int(rng.integers(3, 6)),
                     altitude_bucket=float(rng.uniform(0.6, 3.0)))


@pytest.mark.parametrize("limits, config", [
    (ORACLE_LIMITS, ORACLE_CONFIG), (TIGHT_LIMITS, ORACLE_CONFIG),
    (SKEW_LIMITS, SKEW_CONFIG), (ORACLE_LIMITS, random_lattice(1)),
    (TIGHT_LIMITS, random_lattice(2)), (SKEW_LIMITS, random_lattice(3)),
], ids=["wide-accel", "tight-accel", "skew-accel", "wide-random-lattice",
        "tight-random-lattice", "skew-random-lattice"])
def test_mpc_matches_exhaustive_search(limits, config):
    rng = np.random.default_rng(77)
    planner = Planner(limits, config, *ORACLE_CLEARANCES, HILLY)
    if limits is SKEW_LIMITS and config is SKEW_CONFIG:
        sets = planner.pred_sets
        assert len({row.tobytes() for row in sets}) != sets.shape[1]
        assert any(not np.all(sets[:, a] <= sets[:, b]) and not np.all(sets[:, b] <= sets[:, a])
                   for a in range(sets.shape[1]) for b in range(a))
    from uavsearch import elevation_at
    planned = 0
    for _ in range(10):
        grid = hilly_terrain(rng)
        x = float(rng.uniform(180, 420))
        y = float(rng.uniform(180, 420))
        ground = elevation_at(grid, x, y)
        state = UavState(
            x=x, y=y, z=float(ground + rng.uniform(25, 90)),
            heading=float(rng.uniform(-math.pi, math.pi)),
            v_h=float(rng.uniform(0.0, limits.v_h_max)),
            v_z=float(rng.uniform(limits.v_z_min, limits.v_z_max)),
        )
        want_cost, want_seq = brute_force_plan(
            state, state.heading, grid, limits, config)
        try:
            plan = mpc_plan(state, state.heading, grid, planner)
        except MpcInfeasibleError:
            assert want_seq is None
            continue
        got_cost, feasible = evaluate_plan(
            plan, state, state.heading, grid, planner)
        assert feasible
        assert want_seq is not None
        assert got_cost == pytest.approx(want_cost, abs=1e-9)
        planned += 1
    assert planned >= 7  # the sweep must mostly produce real plans


def reference_stages(planner, state, heading, grid):
    """The stage model the direct way: a meshgrid of the window, one
    masked maximum per disc, ramp_displacement per lattice v_z and
    elevation_at at the clipped reference points."""
    limits, dt = planner.limits, planner.dt
    steps = limits.mpc_steps
    radii = np.arange(1, steps + 1) * dt * limits.v_h_max + 0.75 * grid.cell_size
    rows, cols = grid.window(state.x, state.y, radii[-1])
    block = grid.elevations[rows, cols]
    bx, by = np.meshgrid(grid.x_centers[cols], grid.y_centers[rows])
    dist = np.where(block == grid.nodata, np.inf, np.hypot(bx - state.x, by - state.y))
    floors = []
    for radius in radii:
        nearby = block[dist <= radius]
        top = float(nearby.max()) if nearby.size else elevation_at(grid, state.x, state.y)
        floors.append(top + planner.min_clearance + planner.margin)
    ramp = np.array([ramp_displacement(state.v_z, float(v), limits.a_v_min,
                                       limits.a_v_max, dt) for v in planner.v_z])
    reachable = state.z + float(ramp.max()) + np.arange(steps) * limits.v_z_max * dt
    xmin, xmax, ymin, ymax = grid.hull
    v_nominal = min(max(state.v_h, 0.0), limits.v_h_max)
    k = np.arange(1, steps + 1)
    px = np.clip(state.x + math.cos(heading) * k * dt * v_nominal, xmin, xmax)
    py = np.clip(state.y + math.sin(heading) * k * dt * v_nominal, ymin, ymax)
    refs = elevation_at(grid, px, py) + planner.goal_clearance
    return ramp, np.minimum(floors, reachable), refs


def test_stage_model_matches_reference():
    # ramp_dz, the one-pass floors and the plain-float references equal
    # the direct computation bit for bit, over random states (some with
    # v_z on a lattice value) on terrain with and without nodata cells,
    # and for a vehicle whose climb rate bound is zero
    rng = np.random.default_rng(404)
    still = replace(MAVIC, name="still", a_v_max=0.0)
    raised = 0
    for limits in (M210, MAVIC, still):
        planner = Planner(limits, MpcConfig(), 35.0, 55.0, HILLY)
        for n in range(700):
            if n % 50 == 0:
                grid = hilly_terrain(rng)
                if n % 100 == 50:
                    # a high sentinel, so that a nodata cell left in a
                    # disc would raise its floor
                    elev = grid.elevations.copy()
                    elev[rng.integers(0, 60, 25), rng.integers(0, 60, 25)] = 9999.0
                    grid = replace(grid, nodata=9999.0, elevations=elev)
            v_z = (float(rng.choice(planner.v_z)) if n % 3 == 0
                   else float(rng.uniform(limits.v_z_min, limits.v_z_max)))
            state = UavState(x=float(rng.uniform(30, 570)), y=float(rng.uniform(30, 570)),
                             z=float(rng.uniform(0, 150)),
                             heading=float(rng.uniform(-math.pi, math.pi)),
                             v_h=float(rng.uniform(-1.0, limits.v_h_max + 1.0)), v_z=v_z)
            outcomes = []
            for stages in (planner.stages, partial(reference_stages, planner)):
                try:
                    outcomes.append(stages(state, state.heading, grid))
                except TerrainError as exc:
                    outcomes.append(str(exc))
            if isinstance(outcomes[1], str):
                assert outcomes[0] == outcomes[1]
                raised += 1
                continue
            for got, want in zip(*outcomes):
                np.testing.assert_array_equal(got, want)
    assert 0 < raised < 300  # nodata near some states, not most


@pytest.mark.parametrize("limits", [M210, MAVIC, ORACLE_LIMITS],
                         ids=["M210", "Mavic2ED", "oracle"])
def test_predecessor_sets_rebuild_allowed(limits):
    planner = Planner(limits, MpcConfig(), 35.0, 55.0, HILLY)
    np.testing.assert_array_equal(planner.pred_sets[:, planner.set_of], planner.allowed)
    # the sets are distinct, so each stage reduces once per set
    assert len({column.tobytes() for column in planner.pred_sets.T}) \
        == planner.pred_sets.shape[1]


def test_planner_reuse_matches_fresh_planner():
    rng = np.random.default_rng(31)
    config = MpcConfig()
    planners = {limits.name: Planner(limits, config, 20.0, 40.0, HILLY)
                for limits in (M210, MAVIC)}
    from uavsearch import elevation_at
    for n in range(50):
        limits = (M210, MAVIC)[n % 2]
        grid = hilly_terrain(rng)
        x, y = (float(v) for v in rng.uniform(180, 420, 2))
        state = UavState(
            x=x, y=y, z=float(elevation_at(grid, x, y) + rng.uniform(15, 90)),
            heading=float(rng.uniform(-math.pi, math.pi)),
            v_h=float(rng.uniform(0.0, limits.v_h_max)),
            v_z=float(rng.uniform(limits.v_z_min, limits.v_z_max)),
        )
        outcomes = []
        for planner in (planners[limits.name], Planner(limits, config, 20.0, 40.0, HILLY)):
            try:
                outcomes.append(mpc_plan(state, state.heading, grid, planner))
            except MpcInfeasibleError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]


def test_evaluate_plan_rejects_wrong_length_and_limit_breaks():
    grid = flat_terrain(0.0)
    state = UavState(x=0.0, y=0.0, z=60.0, heading=0.0, v_h=0.0, v_z=0.0)
    with pytest.raises(MpcInfeasibleError):
        evaluate_plan([ControlInput(5.0, 0.0)], state, 0.0, grid,
                      Planner(M210, MpcConfig(), 35.0, 55.0, FLAT))
    # jumping to full speed from rest overruns a_h_max * dt = 6 m/s:
    # the sequence evaluates infeasible instead of raising
    hard = [ControlInput(10.0, 0.0)] + [ControlInput(0.0, 0.0)] * 4
    cost, ok = evaluate_plan(hard, state, 0.0, grid, Planner(M210, MpcConfig(), 35.0, 55.0, FLAT))
    assert not ok and cost == math.inf
