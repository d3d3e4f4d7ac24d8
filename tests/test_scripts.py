"""Smoke tests for the scripts under ``scripts/``: they run to completion on
logs the simulator produces and describe every event and action they meet."""

import importlib.util
import json
import shutil

import pytest

from conftest import SCENARIO_PATH

_SPEC = importlib.util.spec_from_file_location(
    "show_episode", SCENARIO_PATH.parent.parent / "scripts" / "show_episode.py"
)
show_episode = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(show_episode)


@pytest.mark.parametrize("condition, seed", [("A", 0), ("A", 1), ("B", 0), ("B", 1)])
def test_show_episode_runs_on_lab_study(capsys, condition, seed):
    assert show_episode.main(["--scenario", str(SCENARIO_PATH), "--condition", condition,
                              "--seed", str(seed)]) == 0
    out = capsys.readouterr().out
    assert f"condition {condition} | seed {seed}" in out
    if (condition, seed) == ("B", 1):
        assert "nothing at kitchen_counter" in out  # the search logged a miss


def test_show_episode_describes_rotate_base(tmp_path, capsys):
    # Camera turned to look backwards and approach poses reversed: the bottle
    # is found behind the robot, so pointing at it needs a base rotation.
    doc = json.loads(SCENARIO_PATH.read_text())
    doc["robot"]["camera"]["pitch_deg"] = 170.0
    for roi in doc["rois"]:
        roi["pose"][2] += 180.0
    shutil.copy(SCENARIO_PATH.parent / doc["map"], tmp_path / doc["map"])
    scenario = tmp_path / "reversed.json"
    scenario.write_text(json.dumps(doc))
    assert show_episode.main(["--scenario", str(scenario), "--condition", "B", "--seed", "0"]) == 0
    assert "rotate base by" in capsys.readouterr().out
