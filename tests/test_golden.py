"""Golden log lock: the canonical log bytes of a fixed seed set.

``tests/golden/lab_study.json`` holds the SHA-256 of the ``write_log`` bytes
for seeds 0-11 under conditions A and B.  A change that only makes the
simulator faster or smaller must leave every hash as it is; see the README
for when a behaviour change may regenerate the file.
"""

import hashlib
import json
from pathlib import Path

import pytest

from aansim.episode import run_episode
from aansim.session import write_log

GOLDEN = json.loads((Path(__file__).parent / "golden" / "lab_study.json").read_text())


def test_golden_covers_both_conditions_on_twelve_seeds():
    assert GOLDEN["scenario"] == "scenarios/lab_study.json"
    assert sorted(GOLDEN["sha256"]) == sorted(
        f"{cond}/{seed}" for cond in ("A", "B") for seed in range(12)
    )


@pytest.mark.parametrize("key", sorted(GOLDEN["sha256"]))
def test_log_bytes_match_golden(lab_scenario, tmp_path, key):
    cond, seed = key.split("/")
    path = tmp_path / "episode.jsonl"
    write_log(run_episode(lab_scenario, cond, int(seed)).log, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN["sha256"][key]
