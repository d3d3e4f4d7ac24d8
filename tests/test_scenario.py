import json
import math
import shutil
from pathlib import Path

import pytest

from aansim import scenario as sc
from aansim.episode import run_episode
from aansim.navigation import NavParams
from aansim.session import validate_log
from aansim.world import CellState, CylinderShape, DetectorModel

from conftest import SCENARIO_PATH

MAP_PATH = SCENARIO_PATH.parent / "lab.map"


@pytest.fixture()
def workdir(tmp_path):
    shutil.copy(MAP_PATH, tmp_path / "lab.map")
    return tmp_path


def base_doc():
    return json.loads(SCENARIO_PATH.read_text())


def write_doc(workdir: Path, doc: dict) -> Path:
    path = workdir / "case.json"
    path.write_text(json.dumps(doc))
    return path


def load_errors(workdir, doc):
    with pytest.raises(sc.ScenarioInvalid) as exc:
        sc.load_scenario(write_doc(workdir, doc))
    return str(exc.value)


def test_reference_scenario_loads(lab_scenario):
    assert lab_scenario.name == "lab_study"
    assert len(lab_scenario.rois) == 3
    assert len(lab_scenario.bottle_candidates) == 3
    assert lab_scenario.profile.name == "misplaces"
    assert lab_scenario.grid.resolution == 0.1
    assert lab_scenario.session.timeout_s == 20.0
    assert lab_scenario.robot.camera == sc.CameraParams(forward=0.05, height=1.15, pitch_deg=-10.0)


def test_roi_headings_converted_to_radians(lab_scenario):
    assert lab_scenario.rois[0].pose[2] == pytest.approx(math.pi / 2)
    assert lab_scenario.rois[2].pose[2] == pytest.approx(-math.pi / 2)


def test_missing_field_error_names_json_path(workdir):
    doc = base_doc()
    del doc["robot"]["x"]
    assert load_errors(workdir, doc) == "$.robot.x: missing required key"


def test_bad_type_error_names_json_path(workdir):
    doc = base_doc()
    doc["detector"]["true_positive_rate"] = "very high"
    msg = load_errors(workdir, doc)
    assert "$.detector.true_positive_rate" in msg


def test_bad_roi_pose_error_names_indexed_path(workdir):
    doc = base_doc()
    doc["rois"][1]["pose"] = [1.0, 2.0]
    msg = load_errors(workdir, doc)
    assert "$.rois[1].pose" in msg


def test_unknown_object_kind_rejected(workdir):
    doc = base_doc()
    doc["objects"][0]["kind"] = "hologram"
    msg = load_errors(workdir, doc)
    assert "$.objects[0].kind" in msg
    assert "hologram" in msg


def test_unknown_profile_rejected(workdir):
    doc = base_doc()
    doc["profile"] = "superhuman"
    msg = load_errors(workdir, doc)
    assert "$.profile" in msg


def test_candidate_count_must_match_rois(workdir):
    doc = base_doc()
    doc["bottle_candidates"] = doc["bottle_candidates"][:2]
    msg = load_errors(workdir, doc)
    assert "$.bottle_candidates" in msg


def test_robot_start_must_be_free_of_furniture(workdir):
    doc = base_doc()
    doc["robot"]["x"], doc["robot"]["y"] = 1.5, 4.5  # inside the couch
    msg = load_errors(workdir, doc)
    assert "$.robot" in msg


def test_missing_map_file_reported(workdir):
    doc = base_doc()
    doc["map"] = "nowhere.map"
    msg = load_errors(workdir, doc)
    assert "nowhere.map" in msg


@pytest.mark.parametrize("resolution", ["nan", "inf"])
def test_non_finite_map_resolution_reported(workdir, resolution):
    map_path = workdir / "lab.map"
    lines = map_path.read_text().splitlines()
    assert lines[0] == "100 80 0.1"
    lines[0] = f"100 80 {resolution}"
    map_path.write_text("\n".join(lines) + "\n")
    msg = load_errors(workdir, base_doc())
    assert msg == f"$.map: resolution must be positive and finite, got {resolution}"


REQUIRED_KEYS = ("name", "map", "profile", "robot", "intrinsics", "rois", "bottle_candidates")


def minimal_doc():
    """lab_study reduced to its required keys: no furniture, no optional section."""
    doc = {key: base_doc()[key] for key in REQUIRED_KEYS}
    doc["robot"] = {"x": doc["robot"]["x"], "y": doc["robot"]["y"]}
    return doc


def test_minimal_scenario_takes_dataclass_defaults(workdir):
    scenario = sc.load_scenario(write_doc(workdir, minimal_doc()))
    assert scenario.session == sc.SessionParams()
    assert scenario.noise == sc.NoiseParams()
    assert scenario.detector == DetectorModel()
    assert scenario.nav == NavParams()
    assert isinstance(scenario.session.max_repeats, int)
    # Without robot.camera and bottle, their defaults reach the built world.
    assert scenario.robot == sc.RobotParams(x=1.0, y=1.0)
    mount = scenario.robot_state().camera_mount
    assert mount.translation.tolist() == [0.05, 0.0, 1.15]
    assert mount.rotation @ [0.0, 0.0, 1.0] == pytest.approx([1.0, 0.0, 0.0])  # level
    scene = scenario.build_scene(0)
    assert scene.objects[scene.pill_bottle_index].shape == CylinderShape(radius=0.035, height=0.12)
    for condition in ("A", "B"):
        log = run_episode(scenario, condition, 0).log
        validate_log(log)
        assert log.meta["scenario_hash"] == scenario.scenario_hash


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("session", "time_cap_s", 5.0, "$.session.time_cap_s: must be >= 10.0"),
        ("detector", "true_positive_rate", 1.5, "$.detector.true_positive_rate: must be <= 1.0"),
        ("intrinsics", "fx", 0.0, "$.intrinsics.fx: must be >= 1e-06"),
        ("nav", "inflation_radius", -0.1, "$.nav.inflation_radius: must be >= 0.0"),
        ("noise", "depth_sigma", -0.001, "$.noise.depth_sigma: must be >= 0.0"),
        ("robot.camera", "height", 0.05, "$.robot.camera.height: must be >= 0.1"),
        ("bottle", "radius", 1e-4, "$.bottle.radius: must be >= 0.001"),
        ("robot", "x", math.nan, "$.robot.x: expected a finite number"),
        ("robot.camera", "pitch_deg", math.nan, "$.robot.camera.pitch_deg: expected a finite number"),
        ("session", "time_cap_s", math.inf, "$.session.time_cap_s: expected a finite number"),
        ("objects.0.shape", "size", [-0.5, 0.5, 0.5], "$.objects[0].shape.size[0]: must be >= 1e-06"),
        # A JSON integer too large for a float.
        pytest.param(
            "session", "time_cap_s", 10**400, "$.session.time_cap_s: expected a finite number",
            id="session-time_cap_s-int_overflow",
        ),
    ],
)
def test_out_of_bounds_value_names_json_path(workdir, section, key, value, message):
    doc = base_doc()
    obj = doc
    for name in section.split("."):
        obj = obj[int(name) if isinstance(obj, list) else name]
    obj[key] = value
    assert load_errors(workdir, doc) == message


@pytest.mark.parametrize(
    "section, key",
    [
        ("session", "time_cap"),
        ("detector", "tpr"),
        ("intrinsics", "f"),
        ("nav", "inflation"),
        ("noise", "depth"),
    ],
)
def test_unknown_section_key_rejected(workdir, section, key):
    doc = base_doc()
    doc[section][key] = 60
    assert load_errors(workdir, doc).startswith(f"$.{section}.{key}: unknown key")


UNKNOWN_KEY_CASES = [
    # (keys down to the object, misspelt key, reported JSON path)
    (("robot", "camera"), "pitch", "$.robot.camera.pitch"),
    (("bottle",), "radius_m", "$.bottle.radius_m"),
    ((), "time_cap_s", "$.time_cap_s"),
    (("robot",), "heading", "$.robot.heading"),
    (("rois", 1), "heading_deg", "$.rois[1].heading_deg"),
    (("objects", 2), "size", "$.objects[2].size"),
    (("objects", 5, "shape"), "size", "$.objects[5].shape.size"),
]


@pytest.mark.parametrize(
    "parents, key, path", UNKNOWN_KEY_CASES, ids=[case[2] for case in UNKNOWN_KEY_CASES]
)
def test_unknown_key_rejected_outside_sections(workdir, parents, key, path):
    doc = base_doc()
    obj = doc
    for parent in parents:
        obj = obj[parent]
    obj[key] = 1.0
    assert load_errors(workdir, doc).startswith(f"{path}: unknown key; known: [")


def test_int_fields_truncate_validated_numbers(workdir):
    doc = base_doc()
    doc["session"]["max_repeats"] = 3.0
    scenario = sc.load_scenario(write_doc(workdir, doc))
    assert scenario.session.max_repeats == 3
    assert isinstance(scenario.session.max_repeats, int)


def test_dataclass_guard_error_names_section(workdir):
    doc = base_doc()
    doc["intrinsics"]["cx"] = 200.0  # passes its own bounds, but lies outside the image
    assert load_errors(workdir, doc) == "$.intrinsics: cx=200.0 outside [0, 160)"


# ---------------------------------------------------------------------------
# Scenario hash


def test_hash_is_stable_across_loads(workdir):
    doc = base_doc()
    a = sc.load_scenario(write_doc(workdir, doc)).scenario_hash
    b = sc.load_scenario(write_doc(workdir, doc)).scenario_hash
    assert a == b
    assert len(a) == 64 and int(a, 16) >= 0


def test_hash_changes_with_json_content(workdir):
    doc = base_doc()
    a = sc.load_scenario(write_doc(workdir, doc)).scenario_hash
    doc["detector"]["true_positive_rate"] = 0.96
    b = sc.load_scenario(write_doc(workdir, doc)).scenario_hash
    assert a != b


def test_hash_changes_with_map_bytes(workdir):
    doc = base_doc()
    a = sc.load_scenario(write_doc(workdir, doc)).scenario_hash
    map_path = workdir / "lab.map"
    text = map_path.read_text().splitlines()
    # Flip one interior free cell to unknown: legal map, different bytes.
    row = list(text[40])
    assert row[50] == "."
    row[50] = "?"
    text[40] = "".join(row)
    map_path.write_text("\n".join(text) + "\n")
    b = sc.load_scenario(write_doc(workdir, doc)).scenario_hash
    assert a != b


def test_hash_ignores_json_whitespace(workdir):
    doc = base_doc()
    a = sc.load_scenario(write_doc(workdir, doc)).scenario_hash
    pretty = workdir / "pretty.json"
    pretty.write_text(json.dumps(doc, indent=4))
    b = sc.load_scenario(pretty).scenario_hash
    assert a == b


# ---------------------------------------------------------------------------
# Navigation grid stamping


def test_nav_grid_stamps_furniture_footprints(lab_scenario):
    grid = lab_scenario.grid
    nav = lab_scenario.nav_grid
    # The couch is invisible to the render grid but lethal for planning.
    assert grid.state_at(1.5, 4.5) is CellState.FREE
    assert nav.state_at(1.5, 4.5) is CellState.OCCUPIED
    # Cells outside every footprint are identical in both grids.
    assert nav.state_at(5.0, 1.0) is grid.state_at(5.0, 1.0) is CellState.FREE
    assert nav.state_at(0.05, 0.05) is CellState.OCCUPIED  # wall preserved


def test_nav_grid_footprint_uses_cell_centers():
    from aansim.world import BoxShape, ObjectKind, OccupancyGrid, SceneObject
    import numpy as np

    grid = OccupancyGrid(cells=np.zeros((10, 10), dtype=np.uint8), resolution=0.1)
    table = SceneObject(
        kind=ObjectKind.SUPPORT,
        position=(0.5, 0.5, 0.2),
        shape=BoxShape(size=(0.4, 0.2, 0.4)),
    )
    nav = sc.stamp_footprints(grid, [table])
    # Footprint x in [0.3, 0.7], y in [0.4, 0.6]: centers 0.35..0.65 x 0.45..0.55.
    occupied = {(i, j) for j in range(10) for i in range(10) if nav.cells[j, i]}
    assert occupied == {(i, j) for i in range(3, 7) for j in range(4, 6)}
    # The original grid is untouched.
    assert not grid.cells.any()


def test_build_scene_places_bottle_at_candidate(lab_scenario):
    scene = lab_scenario.build_scene(1)
    bottle = scene.objects[scene.pill_bottle_index]
    assert bottle.position == tuple(lab_scenario.bottle_candidates[1])
    # The bottle comes first, then the scenario's furniture and distractors.
    assert scene.objects == (bottle, *lab_scenario.objects)


def test_orchestrator_config_levels_per_condition(lab_scenario):
    from aansim.orchestrator import AssistLevel

    a = lab_scenario.orchestrator_config("A")
    b = lab_scenario.orchestrator_config("B")
    assert a.passive and not b.passive
    assert b.start_level is AssistLevel.L3
    assert a.roi_ids == b.roi_ids == tuple(r.id for r in lab_scenario.rois)
