"""Scenario files: validation, world construction, deterministic hashing.

A scenario is a JSON document describing the room map, the robot start
pose, camera and detector parameters, the search regions with their bottle
placement candidates, static furniture and distractor objects, and the user
profile.  Validation errors carry a JSON path (``$.rois[2].pose``) so bad
files are easy to fix.  The scenario hash covers the canonical JSON body
and the raw map bytes, so any change to either shows up in session logs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import cached_property
from pathlib import Path

from . import navigation, usersim, world
from .geometry import CameraIntrinsics
from .orchestrator import AssistLevel, OrchestratorConfig
from .world import (
    BoxShape,
    CylinderShape,
    DetectorModel,
    ObjectKind,
    OccupancyGrid,
    RegionOfInterest,
    RobotState,
    Scene,
    SceneObject,
    standard_camera_mount,
)


class ScenarioInvalid(ValueError):
    """The scenario file violates the schema; the message carries a JSON path."""


def _expect(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise ScenarioInvalid(f"{path}: {message}")


def _get(obj: dict, key: str, path: str, required: bool = True, default=None):
    if key not in obj:
        _expect(not required, f"{path}.{key}", "missing required key")
        return default
    return obj[key]


def _num(value, path: str, lo: float | None = None, hi: float | None = None) -> float:
    _expect(isinstance(value, (int, float)) and not isinstance(value, bool), path, "expected a number")
    try:
        v = float(value)
    except OverflowError:  # an integer beyond the float range
        v = math.inf
    _expect(math.isfinite(v), path, "expected a finite number")
    if lo is not None:
        _expect(v >= lo, path, f"must be >= {lo}")
    if hi is not None:
        _expect(v <= hi, path, f"must be <= {hi}")
    return v


def _vec(value, path: str, n: int, lo: float | None = None) -> tuple[float, ...]:
    _expect(isinstance(value, list) and len(value) == n, path, f"expected {n} numbers")
    return tuple(_num(v, f"{path}[{i}]", lo) for i, v in enumerate(value))


def _str(value, path: str) -> str:
    _expect(isinstance(value, str) and value != "", path, "expected a non-empty string")
    return value


def _known(obj: dict, path: str, names: list[str]) -> None:
    """Reject the first key of ``obj`` that is not in ``names``."""
    for name in obj:
        _expect(name in names, f"{path}.{name}", f"unknown key; known: {names}")


def _section(raw: dict, key: str, cls, parent: str = "$"):
    """Load the numeric object ``raw[key]`` at JSON path ``parent`` into the dataclass ``cls``.

    Each field's default and its ``lo``/``hi`` bounds (field metadata) come
    from ``cls``; a missing key takes the default, and the section itself
    may be omitted when every field has one.  ``int`` fields truncate the
    validated number.  A field whose default factory is a dataclass is a
    nested section.  Unknown keys are rejected.
    """
    path = f"{parent}.{key}"
    specs = fields(cls)
    required = any(f.default is MISSING and f.default_factory is MISSING for f in specs)
    obj = _get(raw, key, parent, required=required, default={})
    _expect(isinstance(obj, dict), path, "expected an object")
    _known(obj, path, [f.name for f in specs])
    values = {}
    for f in specs:
        if is_dataclass(f.default_factory):
            values[f.name] = _section(obj, f.name, f.default_factory, path)
        elif f.name in obj or f.default is MISSING:
            v = _num(_get(obj, f.name, path), f"{path}.{f.name}", f.metadata.get("lo"), f.metadata.get("hi"))
            values[f.name] = int(v) if f.type in (int, "int") else v
    try:
        return cls(**values)
    except ValueError as exc:
        raise ScenarioInvalid(f"{path}: {exc}") from exc


_OBJECT_KINDS = {
    "water_bottle": ObjectKind.WATER_BOTTLE,
    "distractor": ObjectKind.DISTRACTOR,
    "support": ObjectKind.SUPPORT,
}


def _shape(value, path: str):
    _expect(isinstance(value, dict), path, "expected an object")
    kind = _str(_get(value, "type", path), f"{path}.type")
    if kind == "box":
        _known(value, path, ["type", "size"])
        return BoxShape(size=_vec(_get(value, "size", path), f"{path}.size", 3, lo=1e-6))
    if kind == "cylinder":
        _known(value, path, ["type", "radius", "height"])
        return CylinderShape(
            radius=_num(_get(value, "radius", path), f"{path}.radius", lo=1e-6),
            height=_num(_get(value, "height", path), f"{path}.height", lo=1e-6),
        )
    raise ScenarioInvalid(f"{path}.type: unknown shape type {kind!r}")


@dataclass(frozen=True)
class SessionParams:
    """Session timing and the orchestrator's escalation budget.

    Field metadata ``lo``/``hi`` are the scenario loader's bounds, here and
    in the parameter dataclasses below.
    """

    timeout_s: float = field(default=20.0, metadata={"lo": 1.0})
    escalation_threshold: int = field(default=2, metadata={"lo": 1})
    max_repeats: int = field(default=2, metadata={"lo": 0})
    min_standoff: float = field(default=0.6, metadata={"lo": 0.0})
    frame_time_s: float = field(default=0.6, metadata={"lo": 0.0})
    dt: float = field(default=0.1, metadata={"lo": 1e-3})
    time_cap_s: float = field(default=600.0, metadata={"lo": 10.0})
    hint_interval_s: float = field(default=30.0, metadata={"lo": 1.0})
    gesture_time_s: float = field(default=2.0, metadata={"lo": 0.0})


@dataclass(frozen=True)
class NoiseParams:
    depth_sigma: float = field(default=0.0, metadata={"lo": 0.0})
    pose_sigma: float = field(default=0.0, metadata={"lo": 0.0})


@dataclass(frozen=True)
class CameraParams:
    """Camera mount on the robot base: offsets (m) and tilt (degrees)."""

    forward: float = 0.05
    height: float = field(default=1.15, metadata={"lo": 0.1})
    pitch_deg: float = 0.0


@dataclass(frozen=True)
class RobotParams:
    """Robot start pose in the world frame (heading in degrees) and its camera."""

    x: float
    y: float
    heading_deg: float = 0.0
    camera: CameraParams = field(default_factory=CameraParams)


@dataclass(frozen=True)
class BottleParams:
    """Cylinder size of the pill bottle (m)."""

    radius: float = field(default=0.035, metadata={"lo": 1e-3})
    height: float = field(default=0.12, metadata={"lo": 1e-3})


def stamp_footprints(grid: OccupancyGrid, objects: list[SceneObject]) -> OccupancyGrid:
    """Occupancy grid for planning: the map plus furniture footprints.

    The render grid keeps only walls (so full-height wall boxes never hide
    tabletop objects); planning and collision instead use this grid, where
    every support's footprint is stamped Occupied.  A cell is stamped when
    its center lies inside the footprint.
    """
    cells = grid.cells.copy()
    res = grid.resolution
    for obj in objects:
        if obj.kind is not ObjectKind.SUPPORT:
            continue
        lo, hi = obj.aabb()
        i0 = max(0, math.ceil(lo[0] / res - 0.5))
        i1 = min(grid.width - 1, math.floor(hi[0] / res - 0.5))
        j0 = max(0, math.ceil(lo[1] / res - 0.5))
        j1 = min(grid.height - 1, math.floor(hi[1] / res - 0.5))
        if i0 <= i1 and j0 <= j1:
            cells[j0 : j1 + 1, i0 : i1 + 1] = world.CellState.OCCUPIED
    return OccupancyGrid(cells=cells, resolution=res)


@dataclass
class Scenario:
    """A validated scenario plus the raw bytes that define its hash."""

    name: str
    grid: OccupancyGrid
    nav_grid: OccupancyGrid
    rois: list[RegionOfInterest]
    bottle_candidates: list[tuple[float, float, float]]
    bottle: BottleParams
    objects: list[SceneObject]
    profile: usersim.UserProfile
    robot: RobotParams
    intrinsics: CameraIntrinsics
    detector: DetectorModel
    nav: navigation.NavParams
    session: SessionParams
    noise: NoiseParams
    scenario_hash: str
    # build_scene's scenes by bottle placement, each built on first use.
    scenes: dict[int, Scene] = field(default_factory=dict, init=False, compare=False, repr=False)

    # ----- builders -------------------------------------------------------

    @cached_property
    def costmap(self) -> navigation.Costmap:
        """The planning costmap, built on first use; it also memoizes driven legs."""
        return navigation.build_costmap(self.nav_grid, self.nav)

    def robot_state(self) -> RobotState:
        """The robot at its start pose; degrees become radians here."""
        r, cam = self.robot, self.robot.camera
        mount = standard_camera_mount((cam.forward, 0.0, cam.height), math.radians(cam.pitch_deg))
        return RobotState(x=r.x, y=r.y, heading=math.radians(r.heading_deg), camera_mount=mount)

    def build_scene(self, bottle_roi_index: int) -> Scene:
        """World with the pill bottle placed at the given region's candidate spot;
        one shared scene per spot, so episodes share its walls and frame memo."""
        if bottle_roi_index not in self.scenes:
            bottle = SceneObject(
                kind=ObjectKind.PILL_BOTTLE,
                position=self.bottle_candidates[bottle_roi_index],
                shape=CylinderShape(radius=self.bottle.radius, height=self.bottle.height),
            )
            self.scenes[bottle_roi_index] = Scene(grid=self.grid, objects=(bottle, *self.objects))
        return self.scenes[bottle_roi_index]

    def orchestrator_config(self, condition: str) -> OrchestratorConfig:
        return OrchestratorConfig(
            condition=condition,
            start_level=AssistLevel.L3 if condition == "B" else AssistLevel.L1,
            escalation_threshold=self.session.escalation_threshold,
            max_repeats=self.session.max_repeats,
            min_standoff=self.session.min_standoff,
            roi_ids=tuple(r.id for r in self.rois),
            roi_labels=tuple(r.label for r in self.rois),
        )


def _hash_bytes(scenario_json: bytes, map_bytes: bytes) -> str:
    digest = hashlib.sha256()
    digest.update(scenario_json)
    digest.update(b"\x00")
    digest.update(map_bytes)
    return digest.hexdigest()


_TOP_LEVEL_KEYS = [
    "name", "map", "profile", "robot", "intrinsics", "detector", "rois",
    "bottle_candidates", "bottle", "objects", "nav", "session", "noise",
]


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate a scenario file; the map path resolves next to it."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioInvalid(f"$: cannot read {path} ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioInvalid(f"$: not valid JSON ({exc})") from exc
    except RecursionError as exc:
        raise ScenarioInvalid("$: JSON nested too deeply") from exc
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise ScenarioInvalid("$: integer too long to parse") from exc
    _expect(isinstance(raw, dict), "$", "top level must be a JSON object")
    _known(raw, "$", _TOP_LEVEL_KEYS)

    name = _str(_get(raw, "name", "$"), "$.name")
    map_rel = _str(_get(raw, "map", "$"), "$.map")
    map_path = path.parent / map_rel
    _expect(map_path.is_file(), "$.map", f"map file not found: {map_path}")
    map_bytes = map_path.read_bytes()
    try:
        grid = OccupancyGrid.from_ascii(map_bytes.decode("ascii"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ScenarioInvalid(f"$.map: {exc}") from exc

    profile_key = _str(_get(raw, "profile", "$"), "$.profile")
    _expect(
        profile_key in usersim.PROFILE_PRESETS,
        "$.profile",
        f"unknown profile {profile_key!r}; known: {sorted(usersim.PROFILE_PRESETS)}",
    )
    profile = usersim.PROFILE_PRESETS[profile_key]

    robot = _section(raw, "robot", RobotParams)
    _expect(
        grid.state_at(robot.x, robot.y) == world.CellState.FREE,
        "$.robot",
        f"start ({robot.x}, {robot.y}) is not in free space",
    )

    intrinsics = _section(raw, "intrinsics", CameraIntrinsics)
    detector = _section(raw, "detector", DetectorModel)

    rois_raw = _get(raw, "rois", "$")
    _expect(isinstance(rois_raw, list) and len(rois_raw) >= 1, "$.rois", "expected a non-empty array")
    rois: list[RegionOfInterest] = []
    seen_ids: set[str] = set()
    for i, r in enumerate(rois_raw):
        p = f"$.rois[{i}]"
        _expect(isinstance(r, dict), p, "expected an object")
        _known(r, p, ["id", "label", "pose"])
        rid = _str(_get(r, "id", p), f"{p}.id")
        _expect(rid not in seen_ids, f"{p}.id", f"duplicate id {rid!r}")
        seen_ids.add(rid)
        label = _str(_get(r, "label", p), f"{p}.label")
        pose = _vec(_get(r, "pose", p), f"{p}.pose", 3)
        _expect(
            grid.state_at(pose[0], pose[1]) == world.CellState.FREE,
            f"{p}.pose",
            f"approach pose ({pose[0]}, {pose[1]}) is not in free space",
        )
        rois.append(
            RegionOfInterest(id=rid, pose=(pose[0], pose[1], math.radians(pose[2])), label=label)
        )

    cand_raw = _get(raw, "bottle_candidates", "$")
    _expect(
        isinstance(cand_raw, list) and len(cand_raw) == len(rois),
        "$.bottle_candidates",
        f"expected one [x, y, z] entry per region ({len(rois)})",
    )
    candidates = [_vec(c, f"$.bottle_candidates[{i}]", 3) for i, c in enumerate(cand_raw)]

    bottle = _section(raw, "bottle", BottleParams)

    objects_raw = _get(raw, "objects", "$", required=False, default=[])
    _expect(isinstance(objects_raw, list), "$.objects", "expected an array")
    objects: list[SceneObject] = []
    for i, o in enumerate(objects_raw):
        p = f"$.objects[{i}]"
        _expect(isinstance(o, dict), p, "expected an object")
        _known(o, p, ["kind", "name", "position", "shape"])
        kind_key = _str(_get(o, "kind", p), f"{p}.kind")
        _expect(kind_key in _OBJECT_KINDS, f"{p}.kind", f"unknown kind {kind_key!r}; known: {sorted(_OBJECT_KINDS)}")
        objects.append(
            SceneObject(
                kind=_OBJECT_KINDS[kind_key],
                position=_vec(_get(o, "position", p), f"{p}.position", 3),
                shape=_shape(_get(o, "shape", p), f"{p}.shape"),
            )
        )

    nav = _section(raw, "nav", navigation.NavParams)
    session = _section(raw, "session", SessionParams)
    noise = _section(raw, "noise", NoiseParams)

    nav_grid = stamp_footprints(grid, objects)
    _expect(
        nav_grid.state_at(robot.x, robot.y) == world.CellState.FREE,
        "$.robot",
        f"start ({robot.x}, {robot.y}) collides with furniture",
    )
    for i, roi in enumerate(rois):
        _expect(
            nav_grid.state_at(roi.pose[0], roi.pose[1]) == world.CellState.FREE,
            f"$.rois[{i}].pose",
            "approach pose collides with furniture",
        )

    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return Scenario(
        name=name,
        grid=grid,
        nav_grid=nav_grid,
        rois=rois,
        bottle_candidates=candidates,
        bottle=bottle,
        objects=objects,
        profile=profile,
        robot=robot,
        intrinsics=intrinsics,
        detector=detector,
        nav=nav,
        session=session,
        noise=noise,
        scenario_hash=_hash_bytes(canonical, map_bytes),
    )
