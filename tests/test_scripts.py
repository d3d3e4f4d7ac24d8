"""Smoke tests for the scripts under ``scripts/``: they run to completion on
logs the simulator produces and describe every event and action they meet."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest

from conftest import SCENARIO_PATH


def _load_script(name):
    spec = importlib.util.spec_from_file_location(
        name, SCENARIO_PATH.parent.parent / "scripts" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


show_episode = _load_script("show_episode")


@pytest.mark.parametrize("condition, seed", [("A", 0), ("A", 1), ("B", 0), ("B", 1)])
def test_show_episode_runs_on_lab_study(capsys, condition, seed):
    assert show_episode.main(["--scenario", str(SCENARIO_PATH), "--condition", condition,
                              "--seed", str(seed)]) == 0
    out = capsys.readouterr().out
    bottle = {0: "kitchen_counter", 1: "hall_shelf"}[seed]
    assert f"condition {condition} | seed {seed} | bottle at {bottle}" in out
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


@pytest.mark.parametrize(
    "script, argv, message",
    [
        (show_episode, ["--seed", "-1"], "argument --seed: must be an integer >= 0, got -1"),
    ],
    ids=["show_episode_seed_-1"],
)
def test_scripts_reject_bad_seeds(capsys, script, argv, message):
    with pytest.raises(SystemExit):
        script.main(["--scenario", str(SCENARIO_PATH), *argv])
    assert message in capsys.readouterr().err


def test_show_episode_bad_scenario_is_one_error_line(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert show_episode.main(["--scenario", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("scenario error: ") and err.count("\n") == 1


def test_show_episode_to_a_closed_pipe_exits_quietly():
    # `show_episode.py | head -3`, made deterministic: the reader end of the
    # pipe is closed before the script writes its first line.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ)
    src = str(SCENARIO_PATH.parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    try:
        proc = subprocess.run(
            [sys.executable, str(SCENARIO_PATH.parent.parent / "scripts" / "show_episode.py"),
             "--scenario", str(SCENARIO_PATH), "--seed", "0"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, "")
