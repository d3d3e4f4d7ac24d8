from pathlib import Path

import pytest

from aansim.scenario import Scenario, load_scenario
from aansim.world import standard_camera_mount

SCENARIO_PATH = Path(__file__).resolve().parent.parent / "scenarios" / "lab_study.json"
# The test robots' camera mount: level, 1 m above the base origin.
CAMERA_MOUNT = standard_camera_mount((0.0, 0.0, 1.0), 0.0)


@pytest.fixture(scope="session")
def lab_scenario() -> Scenario:
    return load_scenario(SCENARIO_PATH)
