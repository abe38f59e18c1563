import math
from dataclasses import replace

import numpy as np
import pytest

from uavsearch import (UAV_PRESETS, CameraPose, DensityGrid, FieldState,
                       FlightConfig, GridSpec, HedacParams, MissionConfig, MissionError,
                       MonteCarloConfig, TargetTracker, TerrainGrid, Zone,
                       binomial_band, build_initial_density,
                       detection_rate_footprint, elevation_at,
                       monte_carlo_validate, prepare_environment, run_mission)

NCOLS = NROWS = 42
CELL = 10.0
X0 = Y0 = -70.0


def tiny_terrain():
    X, Y = np.meshgrid(X0 + (np.arange(NCOLS) + 0.5) * CELL,
                       Y0 + (np.arange(NROWS) + 0.5) * CELL)
    elev = 8.0 + 8.0 * np.sin(X / 60.0) * np.cos(Y / 45.0)
    return TerrainGrid(ncols=NCOLS, nrows=NROWS, xllcorner=X0, yllcorner=Y0,
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
        seed=5,
        monte_carlo=MonteCarloConfig(targets=300, seed=71),
    )
    defaults.update(kwargs)
    return MissionConfig(**defaults)


def one_flight(duration=20, start=(10.0, 10.0), **kwargs):
    base = dict(uav="M210", camera="X5S", min_altitude=35.0,
                goal_altitude=55.0, duration_s=duration, start=start)
    base.update(kwargs)
    return FlightConfig(**base)


def test_prepare_environment_validation():
    with pytest.raises(MissionError) as err:
        prepare_environment(tiny_config([one_flight(uav="NoSuchUav")]))
    assert "unknown vehicle" in str(err.value)
    with pytest.raises(MissionError):
        prepare_environment(tiny_config([one_flight(camera="NoSuchCam")]))
    with pytest.raises(MissionError) as err:
        prepare_environment(tiny_config([one_flight(min_altitude=30.0)]))
    assert "35 <= min <= goal" in str(err.value)
    with pytest.raises(MissionError):
        prepare_environment(tiny_config([one_flight(min_altitude=80.0,
                                                    goal_altitude=60.0)]))
    # domain larger than the terrain
    with pytest.raises(MissionError) as err:
        prepare_environment(tiny_config([one_flight()], offset=500.0))
    assert "terrain does not cover" in str(err.value)
    with pytest.raises(MissionError) as err:
        prepare_environment(tiny_config([one_flight(zone_ids=("nope",))]))
    assert "zone subset" in str(err.value)


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
    env = prepare_environment(clean)
    camera = env.cameras["X5S"]
    for t, x, y, z, heading, *_ in want.logs[0].rows[::4]:
        pose = CameraPose(x=x, y=y, z=z, yaw=heading)
        a = detection_rate_footprint(pose, camera, clean.terrain, env.recall,
                                     clean.sensing, env.domain.grid)
        b = detection_rate_footprint(pose, camera, holed.terrain, env.recall,
                                     clean.sensing, env.domain.grid)
        assert (b[0], b[1]) == (a[0], a[1]), t
        np.testing.assert_array_equal(b[2], a[2])


def test_nodata_under_the_domain_fails_at_load():
    config = tiny_config([one_flight()], terrain=terrain_with_nodata(100.0, 100.0))
    with pytest.raises(MissionError) as err:
        prepare_environment(config)
    assert "terrain cell (row 17, col 17) at (105, 105) is nodata" in str(err.value)
    with pytest.raises(MissionError):
        run_mission(config)


def test_custom_presets_resolved():
    slow = replace(UAV_PRESETS["M210"], name="Slow", v_h_max=4.0)
    config = tiny_config([one_flight(uav="Slow")], uavs={"Slow": slow})
    env = prepare_environment(config)
    assert env.uavs["Slow"].v_h_max == 4.0
    assert "M210" in env.uavs  # presets remain available


def test_initial_state_and_start_checks():
    config = tiny_config([one_flight(start=(10.0, 10.0))])
    env = prepare_environment(config)
    from uavsearch.mission import _initial_state
    state = _initial_state(env, config.flights[0], None, 0)
    ground = elevation_at(env.terrain, 10.0, 10.0)
    assert state.z == pytest.approx(ground + 55.0)
    cx, cy = env.domain.center
    assert state.heading == pytest.approx(math.atan2(cy - 10.0, cx - 10.0))
    assert state.v_h == 0.0 and state.v_z == 0.0 and state.t == 0.0
    with pytest.raises(MissionError) as err:
        _initial_state(env, replace(config.flights[0], start=None), None, 0)
    assert "no previous flight" in str(err.value)
    with pytest.raises(MissionError):
        _initial_state(env, replace(config.flights[0], start=(9e9, 0.0)), None, 0)


def test_replan_period_must_align_with_sensing():
    weird = replace(UAV_PRESETS["M210"], name="Weird", mpc_horizon_s=14.0)
    config = tiny_config([one_flight(duration=2, uav="Weird")],
                         uavs={"Weird": weird})
    with pytest.raises(MissionError) as err:
        run_mission(config)
    assert "replan period" in str(err.value)


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
    config = tiny_config([one_flight()])
    env = prepare_environment(config)
    tracker = TargetTracker(env.density, count=200, seed=17)
    again = TargetTracker(env.density, count=200, seed=17)
    other = TargetTracker(env.density, count=200, seed=18)
    np.testing.assert_array_equal(tracker.xs, again.xs)
    np.testing.assert_array_equal(tracker.thresholds, again.thresholds)
    assert not np.array_equal(tracker.xs, other.xs)
    # every target sits in a cell with positive initial density
    assert np.all(env.density.values[tracker.rows, tracker.cols] > 0)
    assert np.all(tracker.thresholds > 0)
    assert np.all(np.isnan(tracker.detect_times))


def test_target_tracker_prefix_stable():
    # per-target substreams: extending the population keeps the prefix
    env = prepare_environment(tiny_config([one_flight()]))
    small = TargetTracker(env.density, count=40, seed=23)
    large = TargetTracker(env.density, count=120, seed=23)
    np.testing.assert_array_equal(large.xs[:40], small.xs)
    np.testing.assert_array_equal(large.ys[:40], small.ys)
    np.testing.assert_array_equal(large.thresholds[:40], small.thresholds)


def test_target_positions_follow_density_ratio():
    grid = GridSpec(x_origin=0.0, y_origin=0.0, cell_size=10.0, ncols=2, nrows=1)
    density = DensityGrid(grid=grid, values=np.array([[1.0, 2.0]]) / 300.0)
    tracker = TargetTracker(density, count=4000, seed=3)
    right = float(np.mean(tracker.cols == 1))
    assert abs(right - 2.0 / 3.0) < 0.025  # ~3 sigma for 4000 draws


def test_tracker_interpolates_crossing_time():
    env = prepare_environment(tiny_config([one_flight()]))
    tracker = TargetTracker(env.density, count=3, seed=1)
    tracker.rows[:] = 5
    tracker.cols[:] = 7
    tracker.thresholds[:] = [1.0, 0.2, 10.0]
    tracker.detect_times[:] = np.nan
    tracker._prev[:] = 0.0
    field = FieldState.from_density(env.density)
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
    bare = tiny_config([one_flight(duration=2)],
                       monte_carlo=MonteCarloConfig(targets=50, seed=None))
    assert monte_carlo_validate(bare, targets=50).seed == 5  # mission seed


def test_tracker_input_validation():
    env = prepare_environment(tiny_config([one_flight()]))
    with pytest.raises(MissionError):
        TargetTracker(env.density, count=0, seed=1)
    with pytest.raises(MissionError):
        TargetTracker(env.density, count=10, seed=-1)
    zero = DensityGrid(
        grid=GridSpec(x_origin=0, y_origin=0, cell_size=10, ncols=2, nrows=2),
        values=np.zeros((2, 2)))
    with pytest.raises(MissionError):
        TargetTracker(zero, count=10, seed=1)
