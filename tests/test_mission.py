import math
from dataclasses import replace

import numpy as np
import pytest

import uavsearch.mission as mission
from uavsearch import (CAMERA_PRESETS, UAV_PRESETS, CameraPose, DensityGrid, FieldState,
                       FlightConfig, GridSpec, HedacParams, MissionConfig, MissionError,
                       MonteCarloConfig, MpcInfeasibleError, TargetTracker, TerrainGrid,
                       UavState, Zone, binomial_band, detection_rate_footprint, elevation_at,
                       load_scenario, monte_carlo_validate, run_flight, run_mission)

NCOLS = NROWS = 42
CELL = 10.0
X0 = Y0 = -70.0
# an M210 whose 14 s horizon over 5 steps replans every 2.8 s
WEIRD = replace(UAV_PRESETS["M210"], name="Weird", mpc_horizon_s=14.0)


def tiny_terrain():
    X, Y = np.meshgrid(X0 + (np.arange(NCOLS) + 0.5) * CELL,
                       Y0 + (np.arange(NROWS) + 0.5) * CELL)
    elev = 8.0 + 8.0 * np.sin(X / 60.0) * np.cos(Y / 45.0)
    return TerrainGrid(ncols=NCOLS, nrows=NROWS, x_origin=X0, y_origin=Y0,
                       cell_size=CELL, nodata=-9999.0, elevations=elev)


def tiny_zone():
    poly = np.array([[0.0, 0.0], [200.0, 0.0], [200.0, 200.0], [0.0, 200.0]])
    return Zone("square", poly, 12)


def tiny_config(flights, mission_id="tiny", **kwargs):
    defaults = dict(
        mission_id=mission_id,
        terrain=tiny_terrain(),
        zones=(tiny_zone(),),
        flights=tuple(flights),
        offset=50.0,
        cell_size=10.0,
        hedac=HedacParams(diffusion=2000.0, damping=1.0),
        monte_carlo=MonteCarloConfig(targets=300, seed=71),
    )
    defaults.update(kwargs)
    return MissionConfig(**defaults)


def one_flight(duration=20, start=(10.0, 10.0), **kwargs):
    base = dict(uav=UAV_PRESETS["M210"], camera=CAMERA_PRESETS["X5S"], min_altitude=35.0,
                goal_altitude=55.0, duration_s=duration, start=start)
    base.update(kwargs)
    return FlightConfig(**base)


def test_prepare_environment_validation():
    # preset names and the first start fail at load
    # (test_scenario_cli); a domain larger than the terrain needs the
    # built domain, so prepare_environment checks it when the config is
    # built, naming the scenario key
    with pytest.raises(MissionError) as err:
        tiny_config([one_flight()], offset=500.0)
    assert err.traceback[-1].name == "prepare_environment"
    assert str(err.value) == (
        "terrain: does not cover the flight domain: domain rectangle (-500, -500)..(700, 700) "
        "vs terrain extent (-65, -65)..(345, 345)")


def terrain_with_nodata(x, y):
    """tiny_terrain with the cell containing (x, y) set to nodata."""
    terrain = tiny_terrain()
    elev = terrain.elevations.copy()
    elev[int((y - Y0) // CELL), int((x - X0) // CELL)] = terrain.nodata
    return replace(terrain, elevations=elev)


def test_nodata_outside_the_domain_changes_nothing():
    # the domain spans -50..250 m; the corner cell at (335, 335) lies
    # beyond it and must not widen the footprint blocks or move the path
    clean = tiny_config([one_flight(duration=12)])
    holed = tiny_config([one_flight(duration=12)], terrain=terrain_with_nodata(335.0, 335.0))
    want, got = run_mission(clean), run_mission(holed)
    assert got.logs[0].rows == want.logs[0].rows
    np.testing.assert_array_equal(got.eta, want.eta)
    camera = clean.flights[0].camera
    for t, x, y, z, heading, *_ in want.logs[0].rows[::4]:
        pose = CameraPose(x=x, y=y, z=z, yaw=heading)
        a = detection_rate_footprint(pose, camera, clean.terrain, clean.recall,
                                     clean.sensing, clean.grid, clean.ground)
        b = detection_rate_footprint(pose, camera, holed.terrain, clean.recall,
                                     clean.sensing, holed.grid, holed.ground)
        assert (b[0], b[1]) == (a[0], a[1]), t
        np.testing.assert_array_equal(b[2], a[2])


def test_nodata_under_the_domain_fails_at_load():
    with pytest.raises(MissionError) as err:
        tiny_config([one_flight()], terrain=terrain_with_nodata(100.0, 100.0))
    assert str(err.value) == ("terrain: cell (row 17, col 17) at (105, 105) is nodata "
                              "under the flight domain (-50, -50)..(250, 250)")


def test_planner_references_stay_inside_the_domain():
    # nodata 10-30 m east of the domain (x = 250) lies where the vehicle
    # cannot go, so its altitude references must not look there either:
    # the flight is the one over clean terrain
    terrain = tiny_terrain()
    elev = terrain.elevations.copy()
    elev[:, 33:35] = terrain.nodata  # cell centers x = 265 and 275
    flights = [one_flight(duration=120, start=(200.0, 100.0))]
    clean = tiny_config(flights)
    holed = tiny_config(flights, terrain=replace(terrain, elevations=elev))
    assert clean.setups[0].planner.bounds == (-45.0, 245.0, -45.0, 245.0)
    want, got = run_mission(clean), run_mission(holed)
    assert got.logs[0].rows == want.logs[0].rows
    np.testing.assert_array_equal(got.eta, want.eta)


def test_custom_presets_resolved():
    # names resolve at load (test_scenario_cli); each planner is built
    # on the vehicle its flight carries
    slow = replace(UAV_PRESETS["M210"], name="Slow", v_h_max=4.0)
    config = tiny_config([one_flight(uav=slow),
                          one_flight(start=None, min_altitude=40.0)])
    first, second = config.setups
    assert first.planner.limits is slow
    assert second.planner.limits is UAV_PRESETS["M210"]
    assert first.planner.min_clearance == 35.0
    assert second.planner.min_clearance == 40.0
    assert second.planner.goal_clearance == 55.0
    assert first.planner.config is second.planner.config is config.mpc
    assert first.replan == second.replan == 3
    assert config.uavs == {"Slow": slow, "M210": UAV_PRESETS["M210"]}


def test_initial_state_and_start_checks():
    config = tiny_config([one_flight(start=(10.0, 10.0)), one_flight(start=None)])
    state = config.setups[0].start
    ground = elevation_at(config.terrain, 10.0, 10.0)
    assert state.z == pytest.approx(ground + 55.0)
    cx, cy = config.grid.center
    assert state.heading == pytest.approx(math.atan2(cy - 10.0, cx - 10.0))
    assert state.v_h == 0.0 and state.v_z == 0.0 and state.t == 0.0
    assert config.setups[1].start is None  # continues from flight 0
    with pytest.raises(MissionError) as err:
        tiny_config([one_flight(start=(9e9, 0.0))])
    assert str(err.value) == ("flights.0.start: (9e+09, 0) outside the flight domain "
                              "(-50, -50)..(250, 250)")


def test_replan_period_must_align_with_sensing():
    with pytest.raises(MissionError) as err:
        tiny_config([one_flight(duration=2, uav=WEIRD)])
    assert str(err.value) == (
        "flights.0.uav: vehicle 'Weird': replan period 2.8 s must be a whole multiple of 1 s")


@pytest.mark.parametrize("last, message", [
    (dict(start=(9e3, 10.0)),
     "flights.2.start: (9000, 10) outside the flight domain (-50, -50)..(250, 250)"),
    (dict(uav=WEIRD, start=None),
     "flights.2.uav: vehicle 'Weird': replan period 2.8 s must be a whole multiple of 1 s"),
], ids=["start-outside", "horizon-14s"])
def test_bad_last_flight_fails_before_the_first_step(last, message):
    # the config of a mission whose last flight is bad cannot be built,
    # so no flight of it can start
    with pytest.raises(MissionError) as err:
        tiny_config([one_flight(duration=5), one_flight(duration=5, start=None),
                     one_flight(duration=5, **last)])
    assert str(err.value) == message


def test_lattice_error_names_the_flight():
    # level flight only, but every allowed climb rate is positive
    stuck = replace(UAV_PRESETS["M210"], name="Stuck", incline_min_deg=0.0,
                    incline_max_deg=0.0, v_z_min=1.0)
    with pytest.raises(MpcInfeasibleError) as err:
        tiny_config([one_flight(), one_flight(uav=stuck, start=None)])
    assert str(err.value) == ("flights.1.uav: vehicle 'Stuck': control lattice has no point "
                              "inside the velocity bounds")


def test_run_mission_log_grid_and_flags():
    duration = 20
    report = run_mission(tiny_config([one_flight(duration=duration)]))
    assert len(report.logs) == 1
    log = report.logs[0]
    arrays = log.as_arrays()
    assert len(log.rows) == 1 + 2 * duration
    np.testing.assert_allclose(arrays["t"], np.arange(2 * duration + 1) * 0.5)
    assert report.times[0] == 0.0 and report.times[-1] == duration
    assert report.times.size == duration + 1
    assert report.eta[0] == pytest.approx(0.0, abs=1e-12)
    assert np.all(np.diff(report.eta) >= 0)
    assert report.final_eta > 0.0
    assert report.violations == {"floor": 0, "velocity": 0, "acceleration": 0}
    # logged speeds stay inside the M210 envelope
    assert arrays["v_h"].max() <= 10.0 + 1e-9
    assert arrays["v_z"].min() >= -3.0 - 1e-9 and arrays["v_z"].max() <= 5.0 + 1e-9
    # eta column carries the latest 1 s accomplishment value
    assert arrays["accomplishment"][-1] == pytest.approx(report.final_eta)


def test_connected_flights_carry_state():
    config = tiny_config([one_flight(duration=10),
                          one_flight(duration=10, start=None)])
    report = run_mission(config)
    first = report.logs[0].as_arrays()
    second = report.logs[1].as_arrays()
    for key in ("x", "y", "z", "heading", "v_h", "v_z"):
        assert second[key][0] == pytest.approx(first[key][-1], abs=1e-12), key
    assert second["t"][0] == 0.0  # per-flight clock restarts
    assert report.times[-1] == 20.0


def test_ground_cached_once_per_mission():
    config = tiny_config([one_flight()])
    xs, ys = config.grid.center_mesh()
    np.testing.assert_array_equal(config.ground, elevation_at(config.terrain, xs, ys))
    assert not config.ground.flags.writeable  # every run of config reads it


def test_below_ground_error_names_flight_time_and_pose():
    # a carried state under the terrain fails on its first log row, at
    # the mission time the flight starts
    config = tiny_config([one_flight(duration=4), one_flight(duration=4, start=None)])
    ground = elevation_at(config.terrain, 40.0, 60.0)
    carried = UavState(x=40.0, y=60.0, z=ground - 2.0, heading=0.5)
    with pytest.raises(MissionError) as err:
        run_flight(FieldState.from_density(config.density), config, 1, carried, base_time=4.0)
    assert str(err.value) == (
        f"flight 1: vehicle below ground at mission time 4 s, pose "
        f"(40.00, 60.00, {ground - 2.0:.2f}, heading 0.5000): terrain {ground:.2f}")


def test_split_flight_matches_single_flight():
    # one 12 s flight vs 6 + 6 with carried state; the split lands on a
    # replanning boundary and each flight solves the potential exactly
    # from the carried field, so the two runs are bit-for-bit the same
    # trajectory
    whole = run_mission(tiny_config([one_flight(duration=12)]))
    split = run_mission(tiny_config([one_flight(duration=6),
                                     one_flight(duration=6, start=None)]))
    np.testing.assert_array_equal(whole.times, split.times)
    np.testing.assert_array_equal(split.eta, whole.eta)
    end_whole = whole.logs[0].as_arrays()
    end_split = split.logs[1].as_arrays()
    for key in ("x", "y", "z", "heading", "v_h", "v_z"):
        assert end_split[key][-1] == end_whole[key][-1], key


def test_target_tracker_support_and_reproducibility():
    density = tiny_config([one_flight()]).density
    tracker = TargetTracker(density, MonteCarloConfig(targets=200, seed=17))
    again = TargetTracker(density, MonteCarloConfig(targets=200, seed=17))
    other = TargetTracker(density, MonteCarloConfig(targets=200, seed=18))
    np.testing.assert_array_equal(tracker.xs, again.xs)
    np.testing.assert_array_equal(tracker.thresholds, again.thresholds)
    assert not np.array_equal(tracker.xs, other.xs)
    # every target sits in a cell with positive initial density
    assert np.all(density.values[tracker.rows, tracker.cols] > 0)
    assert np.all(tracker.thresholds > 0)
    assert np.all(np.isnan(tracker.detect_times))


def test_target_tracker_prefix_stable():
    # per-target substreams: extending the population keeps the prefix
    density = tiny_config([one_flight()]).density
    small = TargetTracker(density, MonteCarloConfig(targets=40, seed=23))
    large = TargetTracker(density, MonteCarloConfig(targets=120, seed=23))
    np.testing.assert_array_equal(large.xs[:40], small.xs)
    np.testing.assert_array_equal(large.ys[:40], small.ys)
    np.testing.assert_array_equal(large.thresholds[:40], small.thresholds)


def test_target_positions_follow_density_ratio():
    grid = GridSpec(x_origin=0.0, y_origin=0.0, cell_size=10.0, ncols=2, nrows=1)
    density = DensityGrid(grid=grid, values=np.array([[1.0, 2.0]]) / 300.0)
    tracker = TargetTracker(density, MonteCarloConfig(targets=4000, seed=3))
    right = float(np.mean(tracker.cols == 1))
    assert abs(right - 2.0 / 3.0) < 0.025  # ~3 sigma for 4000 draws


def test_tracker_interpolates_crossing_time():
    density = tiny_config([one_flight()]).density
    tracker = TargetTracker(density, MonteCarloConfig(targets=3, seed=1))
    tracker.rows[:] = 5
    tracker.cols[:] = 7
    tracker.thresholds[:] = [1.0, 0.2, 10.0]
    tracker.detect_times[:] = np.nan
    tracker._prev[:] = 0.0
    field = FieldState.from_density(density)
    field.coverage[5, 7] = 0.4
    tracker(1.0, field)   # below thresholds 1.0 and 10.0; crosses 0.2
    field.coverage[5, 7] = 1.6
    tracker(2.0, field)   # crosses 1.0 between t=1 and t=2
    assert tracker.detect_times[1] == pytest.approx(0.0 + 0.2 / 0.4 * 1.0)
    assert tracker.detect_times[0] == pytest.approx(1.0 + (1.0 - 0.4) / 1.2)
    assert np.isnan(tracker.detect_times[2])
    frac = tracker.detected_fraction(np.array([0.4, 0.5, 1.0, 1.5, 2.0]))
    np.testing.assert_allclose(frac, [0.0, 1 / 3, 1 / 3, 2 / 3, 2 / 3])


def test_binomial_band():
    p = np.array([0.0, 0.25, 1.0])
    low, high = binomial_band(p, 100)
    sigma = math.sqrt(0.25 * 0.75 / 100)
    assert low[1] == pytest.approx(0.25 - 3 * sigma)
    assert high[1] == pytest.approx(0.25 + 3 * sigma)
    assert low[0] == 0.0 and high[0] == 0.0
    assert low[2] == 1.0 and high[2] == 1.0


def test_monte_carlo_validate_tiny():
    config = tiny_config([one_flight(duration=25)])
    report = monte_carlo_validate(config)
    assert report.target_count == 300
    assert report.seed == 71
    assert len(report.targets) == 300
    np.testing.assert_array_equal(report.predicted, report.mission.eta)
    assert report.empirical.shape == report.predicted.shape
    assert np.all((report.empirical >= 0) & (report.empirical <= 1))
    assert np.all(np.diff(report.empirical) >= 0)
    manual = bool(np.all((report.empirical >= report.band_low - 1e-12)
                         & (report.empirical <= report.band_high + 1e-12)))
    assert report.within_band == manual
    # detected targets carry a detect time inside the mission window
    for target in report.targets:
        if target.detect_time is not None:
            assert 0.0 <= target.detect_time <= 25.0


def test_monte_carlo_seed_priority():
    config = tiny_config([one_flight(duration=2)])
    assert monte_carlo_validate(config, targets=50).seed == 71
    assert monte_carlo_validate(config, targets=50, seed=9).seed == 9
    assert MonteCarloConfig().seed == 0


def test_monte_carlo_validate_prepares_once(monkeypatch, scenario_dir):
    # loading a scenario prepares its mission once, through the module
    # global that the benchmark's tracer wraps; validating it prepares
    # nothing more, so the tracker samples the density the mission flies
    prepare = mission.prepare_environment
    calls = []

    def counted(config):
        calls.append(config.mission_id)
        prepare(config)

    monkeypatch.setattr(mission, "prepare_environment", counted)
    config = load_scenario(scenario_dir / "mission3.json",
                           overrides=["flights.0.duration_s=3"])
    assert calls == ["mission3"]
    report = monte_carlo_validate(config, targets=20)
    assert calls == ["mission3"]
    np.testing.assert_array_equal(report.predicted, run_mission(config).eta)


def test_tracker_input_validation():
    # the target count and seed are checked when their config is built
    with pytest.raises(MissionError) as err:
        MonteCarloConfig(targets=0, seed=1)
    assert "targets must be >= 1" in str(err.value)
    for seed in (-1, 2 ** 63):
        with pytest.raises(MissionError) as err:
            MonteCarloConfig(targets=10, seed=seed)
        assert "seed must be in [0, 2^63)" in str(err.value)
    MonteCarloConfig(targets=1, seed=2 ** 63 - 1)
    zero = DensityGrid(
        grid=GridSpec(x_origin=0, y_origin=0, cell_size=10, ncols=2, nrows=2),
        values=np.zeros((2, 2)))
    with pytest.raises(MissionError):
        TargetTracker(zero, MonteCarloConfig(targets=10, seed=1))


@pytest.mark.parametrize("kwargs, fragment", [
    (dict(duration=0), "duration_s must be >= 1 second"),
    (dict(min_altitude=30.0), "altitudes must satisfy 35 <= min <= goal, got min=30, goal=55"),
    (dict(min_altitude=80.0, goal_altitude=60.0), "altitudes must satisfy 35 <= min <= goal"),
], ids=["zero-duration", "min-below-35", "min-above-goal"])
def test_flight_config_validation(kwargs, fragment):
    with pytest.raises(MissionError) as err:
        one_flight(**kwargs)
    assert fragment in str(err.value)
