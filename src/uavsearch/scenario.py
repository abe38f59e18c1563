"""Scenario files: JSON descriptions of missions.

A scenario bundles everything a mission run needs: the terrain raster
path, search zones with person counts, the flight plan, and optional
parameter sections. Unknown keys anywhere are rejected with their
dotted path so typos surface immediately instead of silently falling
back to defaults. The keys of the sections uavs, cameras, hedac,
sensing, mpc and monte_carlo are the number fields of their config
dataclasses, and each dataclass checks its own values; this module
only adds the dotted path to its errors. A flight's uav and camera
names resolve here, against the built-in presets overlaid by the uavs
and cameras sections, so the flights carry vehicle and camera objects.

Command-line style overrides use dotted paths into the raw document,
applied before validation, e.g.

    hedac.diffusion=20000
    flights.0.duration_s=600
    monte_carlo.seed=7

Values are parsed as JSON when possible (numbers, booleans, null,
quoted strings, arrays) and fall back to plain strings.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, fields
from pathlib import Path

from .control import MpcConfig, UAV_PRESETS, UavLimits
from .domain import Zone
from .errors import ScenarioError, UavSearchError
from .hedac import HedacParams
from .mission import FlightConfig, MissionConfig, MonteCarloConfig
from .sensing import CAMERA_PRESETS, CameraModel, SensingParams, load_recall_table
from .terrain import load_terrain

_REQUIRED = object()
# JSON kind of each field annotation a config section may carry
_KINDS = {"float": float, "int": int}


def _type_name(kind) -> str:
    return {float: "number", int: "integer", str: "string",
            bool: "boolean", list: "array", dict: "object"}[kind]


def _check_type(value, kind, path: str):
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ScenarioError(f"{path}: expected a number, got {value!r}")
        value = float(value)
        if not math.isfinite(value):
            raise ScenarioError(f"{path}: number must be finite")
        return value
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ScenarioError(f"{path}: expected an integer, got {value!r}")
        return value
    if not isinstance(value, kind):
        raise ScenarioError(f"{path}: expected {_type_name(kind)}, got {value!r}")
    return value


def _get(data: dict, key: str, kind, path: str, default=_REQUIRED):
    if key not in data:
        if default is _REQUIRED:
            raise ScenarioError(f"{path}.{key}: required key is missing")
        return default
    return _check_type(data[key], kind, f"{path}.{key}")


def _reject_unknown(data: dict, allowed, path: str) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        keys = ", ".join(f"{path}.{k}" for k in unknown)
        raise ScenarioError(f"unknown key(s): {keys}")


def _parse_zone(data, index: int) -> Zone:
    path = f"zones.{index}"
    _check_type(data, dict, path)
    _reject_unknown(data, ("id", "person_count", "polygon"), path)
    zone_id = _get(data, "id", str, path)
    count = _get(data, "person_count", int, path)
    polygon = _get(data, "polygon", list, path)
    vertices = []
    for i, pair in enumerate(polygon):
        _check_type(pair, list, f"{path}.polygon.{i}")
        if len(pair) != 2:
            raise ScenarioError(f"{path}.polygon.{i}: expected [x, y]")
        vertices.append((
            _check_type(pair[0], float, f"{path}.polygon.{i}.0"),
            _check_type(pair[1], float, f"{path}.polygon.{i}.1"),
        ))
    try:
        return Zone(zone_id=zone_id, polygon=tuple(vertices), person_count=count)
    except UavSearchError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _preset(data: dict, key: str, presets: dict, noun: str, path: str):
    name = _get(data, key, str, path)
    if name not in presets:
        raise ScenarioError(f"{path}.{key}: unknown {noun} preset {name!r}")
    return presets[name]


def _parse_flight(data, index: int, vehicles: dict, cameras: dict) -> FlightConfig:
    """Parse a flight, resolving its uav and camera names in vehicles and cameras."""
    path = f"flights.{index}"
    _check_type(data, dict, path)
    _reject_unknown(data, ("uav", "camera", "min_altitude", "goal_altitude",
                           "duration_s", "start", "zones"), path)
    start = data.get("start")
    if start is not None:
        _check_type(start, list, f"{path}.start")
        if len(start) != 2:
            raise ScenarioError(f"{path}.start: expected [x, y] or null")
        start = (_check_type(start[0], float, f"{path}.start.0"),
                 _check_type(start[1], float, f"{path}.start.1"))
    zone_ids = data.get("zones")
    if zone_ids is not None:
        _check_type(zone_ids, list, f"{path}.zones")
        zone_ids = tuple(_check_type(z, str, f"{path}.zones.{i}")
                         for i, z in enumerate(zone_ids))
    values = dict(
        uav=_preset(data, "uav", vehicles, "vehicle", path),
        camera=_preset(data, "camera", cameras, "camera", path),
        min_altitude=_get(data, "min_altitude", float, path),
        goal_altitude=_get(data, "goal_altitude", float, path),
        duration_s=_get(data, "duration_s", int, path),
    )
    try:
        return FlightConfig(start=start, zone_ids=zone_ids, **values)
    except UavSearchError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _build(cls, data, path: str, base=None, noun: str = "section", **fixed):
    """Build the config dataclass cls from the JSON object data.

    Its keys are the fields of cls not given in fixed, each a number of
    the field's annotated kind. A key left out comes from base, if
    given, or else from the field's default; a field with neither must
    be given, as for a new noun. Errors of cls are reported under path.
    """
    _check_type(data, dict, path)
    spec = {f.name: f for f in fields(cls) if f.name not in fixed}
    _reject_unknown(data, spec, path)
    values = {key: _check_type(data[key], _KINDS[f.type], f"{path}.{key}")
              for key, f in spec.items() if key in data}
    if base is not None:
        values = {key: values.get(key, getattr(base, key)) for key in spec}
    missing = [key for key, f in spec.items() if key not in values and f.default is MISSING]
    if missing:
        raise ScenarioError(f"{path}: new {noun} must define {', '.join(sorted(missing))}")
    try:
        return cls(**fixed, **values)
    except UavSearchError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _parse_presets(data, path: str, presets: dict, cls, noun: str) -> dict:
    """Parse a section of named presets, each named by its key: a known
    name overrides some fields of the built-in preset, a new name must
    define every field."""
    _check_type(data, dict, path)
    return {name: _build(cls, given, f"{path}.{name}", presets.get(name), noun, name=name)
            for name, given in data.items()}


def parse_scenario(data: dict, base_dir: Path | str = ".") -> MissionConfig:
    """Validate a scenario document and build the mission configuration."""
    base_dir = Path(base_dir)
    _check_type(data, dict, "scenario")
    _reject_unknown(data, ("mission_id", "terrain", "cell_size", "offset",
                           "hedac", "sensing", "recall_table", "mpc", "zones",
                           "uavs", "cameras", "flights", "monte_carlo"), "scenario")
    mission_id = _get(data, "mission_id", str, "scenario")
    terrain_path = Path(_get(data, "terrain", str, "scenario"))
    if not terrain_path.is_absolute():
        terrain_path = base_dir / terrain_path
    terrain = load_terrain(terrain_path)

    zones_data = _get(data, "zones", list, "scenario")
    if not zones_data:
        raise ScenarioError("scenario.zones: at least one zone is required")
    zones = tuple(_parse_zone(z, i) for i, z in enumerate(zones_data))
    ids = [z.zone_id for z in zones]
    if len(set(ids)) != len(ids):
        raise ScenarioError("scenario.zones: duplicate zone ids")

    uavs = (_parse_presets(data["uavs"], "uavs", UAV_PRESETS, UavLimits, "vehicle")
            if "uavs" in data else None)
    vehicles = {**UAV_PRESETS, **(uavs or {})}
    cameras = {**CAMERA_PRESETS, **_parse_presets(data.get("cameras", {}), "cameras",
                                                  CAMERA_PRESETS, CameraModel, "camera")}
    flights_data = _get(data, "flights", list, "scenario")
    if not flights_data:
        raise ScenarioError("scenario.flights: at least one flight is required")
    flights = tuple(_parse_flight(f, i, vehicles, cameras) for i, f in enumerate(flights_data))

    hedac = _build(HedacParams, data.get("hedac", {}), "hedac")
    sensing = _build(SensingParams, data.get("sensing", {}), "sensing")
    mpc = _build(MpcConfig, data.get("mpc", {}), "mpc")
    monte_carlo = _build(MonteCarloConfig, data.get("monte_carlo", {}), "monte_carlo")

    recall = None
    if "recall_table" in data:
        recall_path = Path(_check_type(data["recall_table"], str, "recall_table"))
        if not recall_path.is_absolute():
            recall_path = base_dir / recall_path
        recall = load_recall_table(recall_path)

    cell_size = _get(data, "cell_size", float, "scenario", 10.0)
    offset = _get(data, "offset", float, "scenario", 75.0)
    if cell_size <= 0:
        raise ScenarioError("scenario.cell_size: must be positive")
    if offset < 0:
        raise ScenarioError("scenario.offset: must be >= 0")

    try:
        return MissionConfig(
            mission_id=mission_id, terrain=terrain, zones=zones, flights=flights,
            offset=offset, cell_size=cell_size, hedac=hedac, sensing=sensing,
            recall=recall, mpc=mpc, uavs=uavs, monte_carlo=monte_carlo)
    except UavSearchError as exc:
        raise ScenarioError(str(exc)) from exc


def apply_override(data: dict, assignment: str) -> None:
    """Apply one key=value override onto the raw scenario document.

    The key is a dotted path; numeric components index into arrays. The
    value is parsed as JSON when possible, otherwise taken as a string.
    New keys may be created at the final level of an existing object
    (validation decides later whether they are allowed).
    """
    if "=" not in assignment:
        raise ScenarioError(f"override {assignment!r} is not of the form key=value")
    dotted, _, text = assignment.partition("=")
    dotted = dotted.strip()
    if not dotted:
        raise ScenarioError(f"override {assignment!r} has an empty key")
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        value = text
    parts = dotted.split(".")
    node = data
    walked = []
    for part in parts[:-1]:
        walked.append(part)
        where = ".".join(walked)
        if isinstance(node, list):
            try:
                index = int(part)
            except ValueError:
                raise ScenarioError(f"override {dotted!r}: {where} indexes an array, "
                                    f"expected a number") from None
            if not 0 <= index < len(node):
                raise ScenarioError(f"override {dotted!r}: index {where} out of range")
            node = node[index]
        elif isinstance(node, dict):
            if part not in node:
                node[part] = {}
            node = node[part]
        else:
            raise ScenarioError(f"override {dotted!r}: {where} is not a container")
    last = parts[-1]
    if isinstance(node, list):
        try:
            index = int(last)
        except ValueError:
            raise ScenarioError(f"override {dotted!r}: array index expected") from None
        if not 0 <= index < len(node):
            raise ScenarioError(f"override {dotted!r}: index out of range")
        node[index] = value
    elif isinstance(node, dict):
        node[last] = value
    else:
        raise ScenarioError(f"override {dotted!r}: target is not a container")


def load_scenario(path: Path | str, overrides: list[str] | None = None) -> MissionConfig:
    """Read, override and validate a scenario file."""
    path = Path(path)
    try:
        raw = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario {path} is not valid JSON: {exc}") from exc
    for assignment in overrides or []:
        apply_override(data, assignment)
    return parse_scenario(data, base_dir=path.parent)
