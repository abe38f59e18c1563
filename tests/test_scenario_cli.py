import copy
import json
from dataclasses import replace

import numpy as np
import pytest

from uavsearch import (CAMERA_PRESETS, UAV_PRESETS, CameraModel, ScenarioError,
                       apply_override, default_recall_table, load_recall_table,
                       load_scenario, recall_lookup, save_terrain)
import uavsearch.mission as mission
from uavsearch.cli import main

from test_mission import terrain_with_nodata, tiny_terrain

BASE_SCENARIO = {
    "mission_id": "clitiny",
    "terrain": "terrain.asc",
    "cell_size": 10.0,
    "offset": 50.0,
    "hedac": {"diffusion": 2000.0, "damping": 1.0},
    "zones": [{"id": "square", "person_count": 12,
               "polygon": [[0, 0], [200, 0], [200, 200], [0, 200]]}],
    "flights": [{"uav": "M210", "camera": "X5S", "min_altitude": 35,
                 "goal_altitude": 55, "duration_s": 12, "start": [10, 10]}],
    "monte_carlo": {"targets": 300, "seed": 71},
}


@pytest.fixture
def scenario_file(tmp_path):
    save_terrain(tiny_terrain(), tmp_path / "terrain.asc")

    def write(mutate=None, name="scenario.json"):
        data = copy.deepcopy(BASE_SCENARIO)
        if mutate:
            mutate(data)
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return path

    return write


def test_load_scenario_round_trip(scenario_file):
    config = load_scenario(scenario_file())
    assert config.mission_id == "clitiny"
    assert config.cell_size == 10.0 and config.offset == 50.0
    assert config.hedac.diffusion == 2000.0
    assert config.zones[0].zone_id == "square"
    assert config.zones[0].person_count == 12
    assert config.flights[0].uav is UAV_PRESETS["M210"]
    assert config.flights[0].camera is CAMERA_PRESETS["X5S"]
    assert config.flights[0].start == (10.0, 10.0)
    assert config.monte_carlo.targets == 300
    assert config.terrain.ncols == tiny_terrain().ncols
    assert config.uavs == {"M210": UAV_PRESETS["M210"]}  # the vehicles flown
    assert config.recall == default_recall_table()


def test_terrain_path_relative_to_scenario(scenario_file, tmp_path, monkeypatch):
    path = scenario_file()
    monkeypatch.chdir(tmp_path.parent)  # cwd is not the scenario directory
    config = load_scenario(path)
    assert config.terrain.cell_size == 10.0


@pytest.mark.parametrize("mutate, fragment", [
    (lambda d: d.update(bogus=1), "scenario.bogus"),
    (lambda d: d["hedac"].update(alpha=2), "hedac.alpha"),
    (lambda d: d["zones"][0].update(colour="red"), "zones.0.colour"),
    (lambda d: d["flights"][0].update(pilot="ann"), "flights.0.pilot"),
    (lambda d: d.pop("mission_id"), "scenario.mission_id: required"),
    (lambda d: d.update(zones=[]), "at least one zone"),
    (lambda d: d.update(flights=[]), "at least one flight"),
    (lambda d: d.update(cell_size="large"), "expected a number"),
    (lambda d: d["flights"][0].update(duration_s=9.5), "expected an integer"),
    (lambda d: d["hedac"].update(diffusion=True), "expected a number"),
    (lambda d: d["flights"][0].update(duration_s=0), "must be >= 1"),
    (lambda d: d["zones"][0].update(polygon=[[0, 0], [1, 0]]), "zones.0"),
    (lambda d: d.update(zones=BASE_SCENARIO["zones"] * 2), "duplicate zone ids"),
    (lambda d: d.update(offset=-1), "offset"),
    (lambda d: d.update(seed=-3), "unknown key(s): scenario.seed"),
    (lambda d: d["monte_carlo"].update(seed=None), "monte_carlo.seed: expected an integer"),
    (lambda d: d["hedac"].update(solver_tolerance=1e-6), "hedac.solver_tolerance"),
    (lambda d: d["hedac"].update(max_iterations=5000), "hedac.max_iterations"),
    (lambda d: d.update(mpc={"clearance_margin": 7.0}), "mpc.clearance_margin"),
    (lambda d: d["monte_carlo"].update(seed=-3), "monte_carlo: seed must be in [0, 2^63)"),
    (lambda d: d["monte_carlo"].update(targets=0), "monte_carlo: targets must be >= 1"),
    (lambda d: d["flights"][0].update(min_altitude=30), "flights.0: altitudes must satisfy"),
    (lambda d: d.update(mpc={"min_clearance": 40.0}), "unknown key(s): mpc.min_clearance"),
    (lambda d: d.update(uavs={"M210": {"name": "Other"}}), "unknown key(s): uavs.M210.name"),
    (lambda d: d["flights"].append(dict(d["flights"][0], camera="NoSuchCam", start=None)),
     "flights.1.camera: unknown camera preset 'NoSuchCam'"),
], ids=["root-key", "hedac-key", "zone-key", "flight-key", "missing-id",
        "no-zones", "no-flights", "string-number", "float-duration",
        "bool-number", "zero-duration", "two-vertices", "dup-zones",
        "neg-offset", "neg-seed", "null-seed", "retired-solver-tolerance",
        "retired-max-iterations", "retired-clearance-margin", "neg-mc-seed",
        "zero-targets", "low-min-altitude", "flight-owned-min-clearance",
        "preset-name-key", "last-flight-camera"])
def test_scenario_rejects_bad_documents(scenario_file, mutate, fragment):
    path = scenario_file(mutate)
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert fragment in str(err.value)


def test_scenario_not_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert "not valid JSON" in str(err.value)
    with pytest.raises(ScenarioError) as err:
        load_scenario(tmp_path / "missing.json")
    assert "cannot read" in str(err.value)


def test_apply_override_value_parsing():
    data = {"a": {"b": 1}, "arr": [10, 20, 30]}
    apply_override(data, "a.b=2.5")
    assert data["a"]["b"] == 2.5
    apply_override(data, "a.flag=true")
    assert data["a"]["flag"] is True
    apply_override(data, "a.nothing=null")
    assert data["a"]["nothing"] is None
    apply_override(data, 'a.name="quoted"')
    assert data["a"]["name"] == "quoted"
    apply_override(data, "a.word=plain text")
    assert data["a"]["word"] == "plain text"
    apply_override(data, "a.list=[1, 2]")
    assert data["a"]["list"] == [1, 2]
    apply_override(data, "arr.1=99")
    assert data["arr"] == [10, 99, 30]
    apply_override(data, "fresh.key=1")  # creates intermediate object
    assert data["fresh"] == {"key": 1}


@pytest.mark.parametrize("assignment, fragment", [
    ("no_equals", "not of the form"),
    ("=5", "empty key"),
    ("arr.9=1", "out of range"),
    ("arr.x=1", "array index expected"),
    ("a.b.c=1", "not a container"),
    ("arr.0.z=1", "not a container"),
])
def test_apply_override_errors(assignment, fragment):
    data = {"a": {"b": 1}, "arr": [10]}
    with pytest.raises(ScenarioError) as err:
        apply_override(data, assignment)
    assert fragment in str(err.value)


def test_load_scenario_with_overrides(scenario_file):
    config = load_scenario(scenario_file(), overrides=[
        "flights.0.duration_s=4",
        "hedac.diffusion=5000",
        "mission_id=renamed",
    ])
    assert config.flights[0].duration_s == 4
    assert config.hedac.diffusion == 5000.0
    assert config.mission_id == "renamed"


def test_uav_and_camera_sections(scenario_file):
    def mutate(d):
        d["uavs"] = {"M210": {"v_h_max": 8.0},
                     "Kite": {"incline_min_deg": -20.0, "incline_max_deg": 20.0,
                              "v_h_min": 1.0, "v_h_max": 6.0,
                              "v_z_min": -2.0, "v_z_max": 2.0,
                              "a_h_min": -2.0, "a_h_max": 2.0,
                              "a_v_min": -1.0, "a_v_max": 1.0,
                              "yaw_rate_max_deg": 60.0,
                              "mpc_steps": 5, "mpc_horizon_s": 15.0}}
        d["cameras"] = {"X5S": {"x_image": 1000}}
        d["flights"].append(dict(d["flights"][0], uav="Kite", start=None))
    config = load_scenario(scenario_file(mutate))
    assert config.uavs["M210"].v_h_max == 8.0
    assert config.uavs["M210"].v_z_max == 5.0  # untouched preset field
    kite = config.flights[1].uav
    assert (kite.name, kite.mpc_steps, kite.v_h_min) == ("Kite", 5, 1.0)
    assert config.uavs["Kite"] is kite
    assert config.flights[0].camera.x_image == 1000
    assert config.flights[0].camera.fov_short_deg > 0


def test_flights_carry_their_presets(scenario_file):
    # a partially overridden vehicle and a new camera become the flight's
    # objects; a flight naming untouched presets holds the built-in ones
    def mutate(d):
        d["uavs"] = {"M210": {"v_h_max": 4.0}}
        d["cameras"] = {"Wide": {"fov_short_deg": 50.0, "fov_long_deg": 70.0,
                                 "x_image": 1000, "y_image": 800}}
        d["flights"][0]["camera"] = "Wide"
        d["flights"].append(dict(d["flights"][0], uav="Mavic2ED", camera="Z30", start=None))
    first, second = load_scenario(scenario_file(mutate)).flights
    assert first.uav == replace(UAV_PRESETS["M210"], v_h_max=4.0)
    assert first.camera == CameraModel("Wide", fov_short_deg=50.0, fov_long_deg=70.0,
                                       x_image=1000, y_image=800)
    assert second.uav is UAV_PRESETS["Mavic2ED"]
    assert second.camera is CAMERA_PRESETS["Z30"]


@pytest.mark.parametrize("section, name, fields, noun", [
    ("uavs", "Kite", {"v_h_max": 6.0}, "vehicle"),
    ("cameras", "Pinhole", {"x_image": 640}, "camera"),
], ids=["uav", "camera"])
def test_new_uav_must_be_complete(scenario_file, section, name, fields, noun):
    path = scenario_file(lambda d: d.update({section: {name: fields}}))
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert f"{section}.{name}: new {noun} must define" in str(err.value)


def test_recall_table_from_file(scenario_file, tmp_path):
    table = tmp_path / "recall.csv"
    table.write_text("gsd_low,gsd_high,total,detected,recall\n"
                     "0.5,3.5,,,0.9\n3.5,6.5,10,1,0.1\n")
    config = load_scenario(scenario_file(lambda d: d.update(recall_table="recall.csv")))
    assert recall_lookup(config.recall, 1.0) == 0.9
    assert recall_lookup(config.recall, 4.0) == 0.1


def _short_terrain_row(tmp_path):
    lines = (tmp_path / "terrain.asc").read_text().splitlines()
    lines[8] = lines[8].rsplit(" ", 1)[0]
    (tmp_path / "short.asc").write_text("\n".join(lines) + "\n")
    return "short.asc"


def _binary_file(tmp_path):
    (tmp_path / "binary.csv").write_bytes(b"\xff\xfe")
    return "binary.csv"


@pytest.mark.parametrize("key, make, message", [
    ("terrain", _short_terrain_row, "short.asc: line 9: expected 42 values, got 41"),
    ("terrain", lambda tmp_path: "nope.asc", "nope.asc: No such file or directory"),
    ("recall_table", lambda tmp_path: "nope.csv", "nope.csv: No such file or directory"),
    ("recall_table", lambda tmp_path: "terrain.asc",
     "terrain.asc: line 1: expected the header gsd_low,gsd_high,total,detected,recall, "
     "then one bin per line"),
    ("recall_table", _binary_file, "binary.csv: 'ascii' codec can't decode byte 0xff "
     "in position 0: ordinal not in range(128)"),
], ids=["terrain-short-row", "terrain-missing", "recall-missing", "recall-not-csv",
        "recall-binary"])
def test_input_file_errors_name_key_and_file(scenario_file, tmp_path, capsys, key, make, message):
    path = scenario_file(lambda d: d.update({key: make(tmp_path)}))
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert str(err.value) == f"{key}: {tmp_path}/{message}"
    assert main(["simulate", str(path), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == f"uavsearch: error: {key}: {tmp_path}/{message}\n"


# CLI


def _read_all(out_dir, skip=("timing.txt",)):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
            if p.name not in skip}


def test_cli_simulate_writes_artifacts(scenario_file, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", str(scenario_file()), "--out", str(out)]) == 0
    names = {p.name for p in out.iterdir()}
    assert names == {"flight_0_log.csv", "accomplishment.csv", "coverage.pgm",
                     "coverage.json", "undetected.pgm", "undetected.json",
                     "summary.json", "timing.txt"}
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mission_id"] == "clitiny"
    assert summary["violations"] == {"acceleration": 0, "floor": 0, "velocity": 0}
    log_lines = (out / "flight_0_log.csv").read_text().splitlines()
    assert log_lines[0].startswith("t,x,y,z,")
    assert len(log_lines) == 1 + 1 + 24  # header + rows at 0.5 s over 12 s
    text = capsys.readouterr().out
    assert "accomplishment" in text and "12 s" in text


def test_cli_simulate_rerun_is_byte_identical(scenario_file, tmp_path):
    path = scenario_file()
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", str(path), "--out", str(out1)]) == 0
    assert main(["simulate", str(path), "--out", str(out2)]) == 0
    assert _read_all(out1) == _read_all(out2)
    assert (out1 / "timing.txt").exists()


def test_cli_simulate_set_overrides(scenario_file, tmp_path, capsys):
    out = tmp_path / "short"
    code = main(["simulate", str(scenario_file()), "--out", str(out),
                 "--set", "flights.0.duration_s=6"])
    assert code == 0
    assert "6 s" in capsys.readouterr().out


def test_cli_validate(scenario_file, tmp_path, capsys):
    out = tmp_path / "val"
    code = main(["validate", str(scenario_file()), "--out", str(out),
                 "--targets", "300", "--seed", "71"])
    assert code == 0
    names = {p.name for p in out.iterdir()}
    assert {"validation.csv", "targets.csv", "summary.json"} <= names
    summary = json.loads((out / "summary.json").read_text())
    assert summary["validation"]["targets"] == 300
    assert summary["validation"]["seed"] == 71
    assert summary["validation"]["within_band"] is True
    targets_lines = (out / "targets.csv").read_text().splitlines()
    assert len(targets_lines) == 1 + 300
    assert "inside the three-sigma band" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["simulate", "no_such_scenario.json"],
    ["validate", "no_such_scenario.json"],
])
def test_cli_missing_scenario_is_input_error(argv, capsys):
    assert main(argv) == 2
    assert "uavsearch: error:" in capsys.readouterr().err


def test_cli_bad_override_is_input_error(scenario_file, capsys):
    code = main(["simulate", str(scenario_file()), "--set", "flights.9.uav=M210"])
    assert code == 2
    assert "out of range" in capsys.readouterr().err


@pytest.mark.parametrize("assignment, message", [
    ("flights.0.uav=NoSuch", "flights.0.uav: unknown vehicle preset 'NoSuch'"),
    ("flights.0.camera=NoCam", "flights.0.camera: unknown camera preset 'NoCam'"),
    ('flights.0.zones=["square"]', "unknown key(s): flights.0.zones"),
    ("flights.0.start=null",
     "flights.0.start: the first flight has no previous flight to continue from"),
], ids=["uav", "camera", "zones", "start"])
def test_cli_bad_flight_input_exits_two(scenario_file, tmp_path, capsys, assignment, message):
    # names, keys and the first start are load checks: input errors
    out = tmp_path / "run"
    assert main(["simulate", str(scenario_file()), "--out", str(out), "--set", assignment]) == 2
    assert capsys.readouterr().err == f"uavsearch: error: {message}\n"
    assert not out.exists()


def test_cli_validate_flag_checks(scenario_file, capsys):
    # --targets and --seed are monte_carlo overrides, checked at load
    assert main(["validate", str(scenario_file()), "--targets", "0"]) == 2
    assert "monte_carlo: targets must be >= 1" in capsys.readouterr().err
    assert main(["validate", str(scenario_file()), "--seed", "-1"]) == 2
    assert "monte_carlo: seed must be in [0, 2^63)" in capsys.readouterr().err
    assert main(["validate", str(scenario_file()), "--set", "monte_carlo.seed=-3"]) == 2
    assert "monte_carlo: seed must be in [0, 2^63)" in capsys.readouterr().err


def test_cli_runtime_error_exit(scenario_file, tmp_path, capsys, monkeypatch):
    # a bad value fails at load with exit 2 (the flight-domain checks
    # too, test_cli_flight_domain_checks_exit_two) ...
    path = scenario_file(lambda d: d["flights"][0].update(min_altitude=30))
    assert main(["simulate", str(path), "--out", str(tmp_path / "x")]) == 2
    assert "flights.0: altitudes must satisfy 35 <= min <= goal" in capsys.readouterr().err
    # ... and only a failure during a flight exits 1: here the vehicle
    # drops below ground on its first kinematic step
    step = mission.kinematic_step
    monkeypatch.setattr(mission, "kinematic_step",
                        lambda *args: replace(step(*args), z=-100.0))
    assert main(["simulate", str(scenario_file()), "--out", str(tmp_path / "y")]) == 1
    assert capsys.readouterr().err.startswith(
        "uavsearch: error: flight 0: vehicle below ground at mission time 0.5 s")


def _holed_terrain(d, tmp_path):
    save_terrain(terrain_with_nodata(100.0, 100.0), tmp_path / "holed.asc")
    d["terrain"] = "holed.asc"


@pytest.mark.parametrize("mutate, message", [
    (lambda d, tmp_path: d.update(offset=500.0),
     "terrain: does not cover the flight domain: domain rectangle (-500, -500)..(700, 700) "
     "vs terrain extent (-65, -65)..(345, 345)"),
    (_holed_terrain, "terrain: cell (row 17, col 17) at (105, 105) is nodata under the "
                     "flight domain (-50, -50)..(250, 250)"),
    (lambda d, tmp_path: d["flights"].append(dict(d["flights"][0], start=[5000, 10])),
     "flights.1.start: (5000, 10) outside the flight domain (-50, -50)..(250, 250)"),
    (lambda d, tmp_path: d.update(uavs={"M210": {"mpc_horizon_s": 14.0}}),
     "flights.0.uav: vehicle 'M210': replan period 2.8 s must be a whole multiple of 1 s"),
    (lambda d, tmp_path: d.update(uavs={"M210": {"incline_min_deg": 0.0, "incline_max_deg": 0.0,
                                                 "v_z_min": 1.0}}),
     "flights.0.uav: vehicle 'M210': control lattice has no point inside the velocity bounds"),
], ids=["terrain-cover", "terrain-nodata", "start-outside", "replan-period", "lattice"])
def test_cli_flight_domain_checks_exit_two(scenario_file, tmp_path, capsys, mutate, message):
    # the checks that need the built flight domain run at load too
    path = scenario_file(lambda d: mutate(d, tmp_path))
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert str(err.value) == message
    out = tmp_path / "run"
    assert main(["simulate", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"uavsearch: error: {message}\n"
    assert not out.exists()


def test_cli_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["simulate"])  # missing positional
    assert err.value.code == 2
    capsys.readouterr()


def test_cli_tile_stdout(capsys):
    assert main(["tile", "--width", "5280", "--height", "2970",
                 "--image-id", "dji"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "name,row,col,x0,y0,width,height"
    assert len(lines) == 1 + 91
    assert lines[1].startswith("dji_r0_c0,0,0,0,0,512,512")
    last = lines[-1].split(",")
    assert last[0] == "dji_r6_c12"
    assert int(last[3]) + 512 == 5280 and int(last[4]) + 512 == 2970


def test_cli_tile_with_labels(tmp_path, capsys):
    labels = tmp_path / "labels.txt"
    # one person-sized box near the image corner, one mid-image
    labels.write_text("0 0.02 0.03 0.01 0.02\n1 0.5 0.5 0.01 0.01\n")
    out = tmp_path / "tiles"
    code = main(["tile", "--width", "5280", "--height", "2970",
                 "--image-id", "dji", "--labels", str(labels),
                 "--out", str(out)])
    assert code == 0
    plan_lines = (out / "plan.csv").read_text().splitlines()
    assert len(plan_lines) == 1 + 91
    tile_files = sorted(p.name for p in out.glob("dji_r*_c*.txt"))
    assert len(tile_files) == 91
    corner = (out / "dji_r0_c0.txt").read_text().splitlines()
    assert len(corner) == 1 and corner[0].startswith("0 ")
    assert "91 total" in capsys.readouterr().out


def test_cli_tile_errors(tmp_path, capsys):
    assert main(["tile", "--width", "300", "--height", "300",
                 "--overlap", "512"]) == 2
    assert main(["tile", "--width", "5280", "--height", "2970",
                 "--labels", "nope.txt", "--out", str(tmp_path / "t")]) == 2
    assert main(["tile", "--width", "5280", "--height", "2970",
                 "--labels", "nope.txt"]) == 2  # --labels without --out
    capsys.readouterr()


def _write_recall_inputs(tmp_path):
    (tmp_path / "truth").mkdir()
    (tmp_path / "det").mkdir()
    images = tmp_path / "images.csv"
    images.write_text("image_id,gsd\nimg1,1.0\nimg2,2.7\n")
    (tmp_path / "truth" / "img1.txt").write_text(
        "0 0.3 0.3 0.1 0.1\n0 0.7 0.7 0.1 0.1\n")
    (tmp_path / "truth" / "img2.txt").write_text("0 0.5 0.5 0.2 0.2\n")
    (tmp_path / "det" / "img1.txt").write_text(
        "0 0.3 0.3 0.1 0.1 0.9\n0 0.7 0.7 0.1 0.1 0.8\n")
    # img2 has no detection file: counts as zero detections
    return images


def test_cli_recall(tmp_path, capsys):
    images = _write_recall_inputs(tmp_path)
    code = main(["recall", "--images", str(images),
                 "--truth", str(tmp_path / "truth"),
                 "--detections", str(tmp_path / "det")])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "gsd_low,gsd_high,total,detected,recall"
    assert "1.0,1.5,2,2,1.0" in lines
    assert "2.5,3.0,1,0,0.0" in lines


def test_cli_recall_out_file(tmp_path, capsys):
    images = _write_recall_inputs(tmp_path)
    out = tmp_path / "bins.csv"
    code = main(["recall", "--images", str(images),
                 "--truth", str(tmp_path / "truth"),
                 "--detections", str(tmp_path / "det"),
                 "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith("gsd_low,gsd_high,total,detected,recall")
    capsys.readouterr()


def _write_binned_inputs(tmp_path, gsds):
    # one image per GSD, image i with i + 2 boxes of which the first i + 1
    # are detected, so every bin has its own recall
    for sub in ("truth", "det"):
        (tmp_path / sub).mkdir()
    rows = ["image_id,gsd"]
    for i, gsd_value in enumerate(gsds):
        boxes = [f"0 {0.1 + 0.1 * k:.1f} 0.5 0.05 0.05" for k in range(i + 2)]
        (tmp_path / "truth" / f"img{i}.txt").write_text("".join(b + "\n" for b in boxes))
        (tmp_path / "det" / f"img{i}.txt").write_text(
            "".join(b + " 0.9\n" for b in boxes[:i + 1]))
        rows.append(f"img{i},{gsd_value!r}")
    (tmp_path / "images.csv").write_text("\n".join(rows) + "\n")
    return ["recall", "--images", str(tmp_path / "images.csv"),
            "--truth", str(tmp_path / "truth"), "--detections", str(tmp_path / "det")]


@pytest.mark.parametrize("bin_width, gsds, edges", [
    ("0.5", [0.6, 1.1, 1.6], [0.5, 1.0, 1.5, 2.0]),
    ("0.25", [0.3, 0.6, 0.8], [0.25, 0.5, 0.75, 1.0]),
], ids=["width-0.5", "width-0.25"])
def test_cli_recall_table_round_trip(scenario_file, tmp_path, capsys, bin_width, gsds, edges):
    # what recall writes is a recall_table as written: exact edges, and
    # each bin's recall is its detected / total
    out = tmp_path / "bins.csv"
    assert main([*_write_binned_inputs(tmp_path, gsds), "--bin-width", bin_width,
                 "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [float(r[0]) for r in rows] + [float(rows[-1][1])] == edges
    table = load_recall_table(out)
    assert table.edges.tolist() == edges
    for low, high, total, detected, _ in rows:
        assert recall_lookup(table, (float(low) + float(high)) / 2) == int(detected) / int(total)
    run = tmp_path / "run"
    assert main(["simulate", str(scenario_file()), "--out", str(run),
                 "--set", f"recall_table={out}"]) == 0
    capsys.readouterr()


def test_cli_recall_table_with_a_gap_exits_two(scenario_file, tmp_path, capsys):
    out = tmp_path / "bins.csv"
    assert main([*_write_binned_inputs(tmp_path, [0.6, 1.6]), "--out", str(out)]) == 0
    assert main(["simulate", str(scenario_file()), "--out", str(tmp_path / "run"),
                 "--set", f"recall_table={out}"]) == 2
    assert capsys.readouterr().err.endswith(
        f"recall_table: {out}: line 3: no recall bin covers [1.0, 1.5)\n")


@pytest.mark.parametrize("width", ["inf", "nan"])
def test_cli_recall_non_finite_bin_width_exits_two(tmp_path, capsys, width):
    out = tmp_path / "bins.csv"
    assert main([*_write_binned_inputs(tmp_path, [0.6]), "--bin-width", width,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"uavsearch: error: bin width must be finite and positive, got {width}\n")
    assert not out.exists()


def test_cli_recall_input_errors(tmp_path, capsys):
    images = _write_recall_inputs(tmp_path)
    (tmp_path / "truth" / "img2.txt").unlink()
    assert main(["recall", "--images", str(images),
                 "--truth", str(tmp_path / "truth"),
                 "--detections", str(tmp_path / "det")]) == 2
    assert "missing ground truth" in capsys.readouterr().err

    (tmp_path / "truth" / "img2.txt").write_text("0 0.5 0.5 0.2 0.2\n")
    (tmp_path / "det" / "img2.txt").write_text("0 0.5 0.5 0.2\n")  # 4 fields
    assert main(["recall", "--images", str(images),
                 "--truth", str(tmp_path / "truth"),
                 "--detections", str(tmp_path / "det")]) == 2
    assert "expected 6 fields" in capsys.readouterr().err

    images.write_text("image_id,gsd\nimg1\n")
    assert main(["recall", "--images", str(images),
                 "--truth", str(tmp_path / "truth"),
                 "--detections", str(tmp_path / "det")]) == 2
    assert "expected image_id,gsd" in capsys.readouterr().err
