"""Golden log lock: the canonical log bytes of a fixed seed set.

``tests/golden/lab_study.json`` holds the SHA-256 of the ``write_log`` bytes
for seeds 0-11 under conditions A and B.  A change that only makes the
simulator faster or smaller must leave every hash as it is; see the README
for when a behaviour change may regenerate the file, which

    python tests/test_golden.py --write

does with the same replay code as the test.
"""

import argparse
import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from aansim.episode import run_episode
from aansim.scenario import load_scenario
from aansim.session import write_log

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = ROOT / "tests" / "golden" / "lab_study.json"
SCENARIO = "scenarios/lab_study.json"
KEYS = [f"{cond}/{seed}" for cond in ("A", "B") for seed in range(12)]


def log_sha256(scenario, key: str, path: Path) -> str:
    """Replay one golden key ("B/7"), write its log to ``path`` and hash the bytes."""
    cond, seed = key.split("/")
    write_log(run_episode(scenario, cond, int(seed)).log, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_both_conditions_on_twelve_seeds(golden):
    assert golden["scenario"] == SCENARIO
    assert sorted(golden["sha256"]) == sorted(KEYS)


@pytest.mark.parametrize("key", sorted(KEYS))
def test_log_bytes_match_golden(lab_scenario, tmp_path, golden, key):
    assert log_sha256(lab_scenario, key, tmp_path / "episode.jsonl") == golden["sha256"][key]


def write_golden() -> None:
    scenario = load_scenario(ROOT / SCENARIO)
    with tempfile.TemporaryDirectory() as tmp:
        sha256 = {key: log_sha256(scenario, key, Path(tmp) / "episode.jsonl") for key in KEYS}
    text = json.dumps({"scenario": SCENARIO, "sha256": sha256}, indent=2) + "\n"
    GOLDEN_PATH.write_text(text, encoding="utf-8")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help=f"regenerate {GOLDEN_PATH.relative_to(ROOT)}")
    if not parser.parse_args().write:
        parser.error("nothing to do; pass --write to regenerate the golden file")
    write_golden()
