"""Golden locks: the canonical log bytes of a fixed seed set, and the
policy's exact outputs on random event walks.

``tests/golden/lab_study.json`` holds the SHA-256 of the ``write_log`` bytes
for seeds 0-11 under conditions A and B, and under ``STUDY_KEY`` one SHA-256
of the bytes of seeds 0-299 under A, then B.  ``tests/golden/witnesses.json``
does the same for seeds 0-3 on six edited copies of lab_study (``WITNESSES``)
that take the paths those seeds never take: a search that finds nothing, an
unreachable search location, the time cap, noisy legs, a recovery spin and a
user who times out and denies.  Every replayed log is also read back, checked by
``oracles.audit_log`` against the policy that wrote it, and printed by
``aansim show``.
``tests/golden/orchestrator_walks.json`` holds, per orchestrator config, the
SHA-256 of the ``harness.random_walk`` traces for seeds 0-39.  A change that only makes the simulator faster or smaller must
leave every hash as it is; see the README for when a behaviour change may
regenerate the files, which

    PYTHONPATH=src python tests/test_golden.py --write

does with the same replay code as the tests; it then prints, per file, the
keys whose hash changed, or "unchanged".
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import shutil
import tempfile
from pathlib import Path

import pytest

import harness
from aansim import cli
from aansim.episode import run_episode
from aansim.orchestrator import AssistLevel
from aansim.scenario import load_scenario
from aansim.session import read_log, write_log
from oracles import audit_log

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = ROOT / "tests" / "golden" / "lab_study.json"
WALKS_PATH = ROOT / "tests" / "golden" / "orchestrator_walks.json"
WITNESS_PATH = ROOT / "tests" / "golden" / "witnesses.json"
SCENARIO = "scenarios/lab_study.json"
KEYS = [f"{cond}/{seed}" for cond in ("A", "B") for seed in range(12)]
STUDY_KEY, STUDY_SEEDS = "A+B/0-299", range(300)
WITNESS_KEYS = [f"{cond}/{seed}" for cond in ("A", "B") for seed in range(4)]
# Bottle at kitchen_counter, hall_shelf and side_table under B, plus one A key.
FRESH_KEYS = ["B/0", "B/1", "B/4", "A/0"]
WALK_SEEDS = range(40)
# Condition × start level × escalation_threshold × max_repeats: 72 configs.
WALK_CONFIGS = {
    f"{cond}/L{level}/esc{esc}/rep{rep}": dict(
        condition=cond, start_level=AssistLevel(level), escalation_threshold=esc, max_repeats=rep
    )
    for cond, level, esc, rep in itertools.product("AB", (1, 2, 3), (1, 2, 3), range(4))
}


def _support(name: str, x: float, y: float, size: list[float]) -> dict:
    shape = {"type": "box", "size": size}
    return {"kind": "support", "name": name, "position": [x, y, 0.5], "shape": shape}


def _box_in_hall_shelf(doc: dict) -> None:
    doc["objects"] += [
        _support("box_north", 8.2, 4.6, [1.0, 0.2, 1.0]),
        _support("box_south", 8.2, 3.4, [1.0, 0.2, 1.0]),
        _support("box_west", 7.6, 4.0, [0.2, 1.4, 1.0]),
        _support("box_east", 8.8, 4.0, [0.2, 1.4, 1.0]),
    ]


# Witness copies of lab_study: each edit, and a text that some condition-B
# log of the copy must contain, so the copy keeps taking its path.
WITNESSES = {
    # Nothing is ever detected, so every search aborts on its last miss.
    "blind_detector": (
        lambda doc: doc["detector"].update(true_positive_rate=0.0, false_positive_rate=0.0),
        '"reason":"medicine bottle not found at any known location"',
    ),
    # Supports box in the hall_shelf approach pose, so that search location is unreachable.
    "boxed_in_hall_shelf": (_box_in_hall_shelf, '"kind":"roi_unreachable"'),
    # A 60 s cap, which a guided session overshoots today.
    "time_cap_60": (lambda doc: doc["session"].update(time_cap_s=60.0), '"note":"time_cap_reached"'),
    # Pose noise, so every leg is driven rather than replayed.
    "pose_noise": (lambda doc: doc["noise"].update(pose_sigma=0.02), '"kind":"found"'),
    # Pose noise large enough that some dynamic window is all blocked, so the robot spins.
    "recovery_spin": (lambda doc: doc["noise"].update(pose_sigma=0.1), '"note":"recovery_spin"'),
    # A user who times out, denies and needs prompts repeated.
    "needs_step_by_step": (
        lambda doc: doc.update(profile="needs_step_by_step"),
        '"kind":"timeout"',
    ),
}


def write_witness(name: str, directory: Path) -> Path:
    """Write the witness copy ``name`` of lab_study, with its map, into ``directory``."""
    doc = json.loads((ROOT / SCENARIO).read_text(encoding="utf-8"))
    WITNESSES[name][0](doc)
    shutil.copyfile(ROOT / "scenarios" / doc["map"], directory / doc["map"])
    path = directory / f"{name}.json"
    path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    return path


def log_sha256(scenario, key: str, path: Path) -> str:
    """Replay one golden key ("B/7"), write its log to ``path``, audit the log
    read back, show it, and hash the bytes."""
    cond, seed = key.split("/")
    write_log(run_episode(scenario, cond, int(seed)).log, path)
    log = read_log(path)
    audit_log(log, scenario)
    shown = io.StringIO()
    with contextlib.redirect_stdout(shown):
        assert cli.main(["show", str(path)]) == cli.EXIT_OK
    assert shown.getvalue().splitlines()[0].endswith(f" | bottle at {log.meta['bottle_roi']}")
    return hashlib.sha256(path.read_bytes()).hexdigest()


def study_sha256(scenario, path: Path) -> str:
    """Hash the log bytes of ``STUDY_SEEDS`` under A, then under B, each
    written to ``path`` in turn."""
    digest = hashlib.sha256()
    for cond in ("A", "B"):
        for seed in STUDY_SEEDS:
            write_log(run_episode(scenario, cond, seed).log, path)
            digest.update(path.read_bytes())
    return digest.hexdigest()


def walks_sha256(key: str) -> str:
    """Hash the random-walk traces of one walk config over ``WALK_SEEDS``.

    Each step contributes one canonical JSON line: the event, its actions,
    the described state, every counter ``describe`` leaves out and the event
    time.
    """
    config = harness.guided_config(**WALK_CONFIGS[key])
    digest = hashlib.sha256()
    for seed in WALK_SEEDS:
        _, trace = harness.random_walk(seed, config)
        for event, _, after, actions in trace:
            row = [
                event.describe(),
                [a.describe() for a in actions],
                after.describe(),
                after.repeat_count,
                after.failure_count,
                after.refusal_count,
                after.roi_index,
                after.hint_index,
                event.t,
            ]
            digest.update(json.dumps(row, sort_keys=True, separators=(",", ":")).encode() + b"\n")
    return digest.hexdigest()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_both_conditions_on_twelve_seeds(golden):
    assert golden["scenario"] == SCENARIO
    assert sorted(golden["sha256"]) == sorted([*KEYS, STUDY_KEY])


@pytest.mark.parametrize("key", sorted(KEYS))
def test_log_bytes_match_golden(lab_scenario, tmp_path, golden, key):
    assert log_sha256(lab_scenario, key, tmp_path / "episode.jsonl") == golden["sha256"][key]


def test_study_log_bytes_match_golden(lab_scenario, tmp_path, golden):
    """Seeds past the twelve replayed above, where a change may first show."""
    assert study_sha256(lab_scenario, tmp_path / "episode.jsonl") == golden["sha256"][STUDY_KEY]


def test_log_bytes_do_not_depend_on_episode_order(tmp_path, golden):
    """A loaded scenario's leg memo carries nothing else between episodes.

    Every key replays in reverse order on one freshly loaded scenario; then
    one key per bottle spot, and one condition-A key, each on its own.
    """
    path = tmp_path / "episode.jsonl"
    scenario = load_scenario(ROOT / SCENARIO)
    reverse = {key: log_sha256(scenario, key, path) for key in reversed(KEYS)}
    assert reverse == {key: golden["sha256"][key] for key in KEYS}
    alone = {key: log_sha256(load_scenario(ROOT / SCENARIO), key, path) for key in FRESH_KEYS}
    assert alone == {key: golden["sha256"][key] for key in FRESH_KEYS}


def witness_sha256(name: str, directory: Path) -> dict[str, str]:
    """Replay every witness key on the copy ``name`` and hash each log.

    Some condition-B log must carry the copy's marker, so a copy that stops
    taking its path fails here instead of being locked.  The A and B logs of
    each seed must hide the bottle at the same ``bottle_roi``: the placement
    stream does not depend on the condition, so the study pairs like with like.
    """
    scenario = load_scenario(write_witness(name, directory))
    path = directory / "episode.jsonl"
    marker = WITNESSES[name][1]
    sha256, marked, bottle_rois = {}, False, {}
    for key in WITNESS_KEYS:
        sha256[key] = log_sha256(scenario, key, path)
        text = path.read_text(encoding="utf-8")
        marked |= key.startswith("B/") and marker in text
        seed = key.split("/")[1]
        bottle_rois.setdefault(seed, set()).add(json.loads(text.partition("\n")[0])["bottle_roi"])
    assert marked, f"no condition-B log of {name} contains {marker}"
    unpaired = {seed: rois for seed, rois in bottle_rois.items() if len(rois) > 1}
    assert not unpaired, f"A and B logs of {name} hide the bottle apart: {unpaired}"
    return sha256


def test_witnesses_cover_every_copy():
    witnesses = json.loads(WITNESS_PATH.read_text())
    assert witnesses["scenario"] == SCENARIO
    assert sorted(witnesses["sha256"]) == sorted(WITNESSES)
    assert all(sorted(keys) == sorted(WITNESS_KEYS) for keys in witnesses["sha256"].values())


@pytest.mark.parametrize("name", sorted(WITNESSES))
def test_witness_log_bytes_match_golden(tmp_path, name):
    golden = json.loads(WITNESS_PATH.read_text())["sha256"][name]
    assert witness_sha256(name, tmp_path) == golden


def test_orchestrator_walks_match_golden():
    walks = json.loads(WALKS_PATH.read_text())
    assert walks["seeds"] == len(WALK_SEEDS)
    assert sorted(walks["sha256"]) == sorted(WALK_CONFIGS)
    mismatched = [key for key in WALK_CONFIGS if walks_sha256(key) != walks["sha256"][key]]
    assert mismatched == []


def _flat(sha256: dict) -> dict[str, str]:
    """Hashes by key, with a witness copy's keys prefixed by its name."""
    flat = {}
    for key, value in sha256.items():
        if isinstance(value, dict):
            flat.update({f"{key} {k}": v for k, v in value.items()})
        else:
            flat[key] = value
    return flat


def write_json(path: Path, doc: dict) -> None:
    """Write one golden file and print the keys whose hash it changed."""
    old = _flat(json.loads(path.read_text())["sha256"]) if path.exists() else {}
    new = _flat(doc["sha256"])
    changed = [key for key in sorted(old.keys() | new.keys()) if old.get(key) != new.get(key)]
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    summary = f"{len(changed)} changed: {', '.join(changed)}" if changed else "unchanged"
    print(f"{path.name}: {summary}")


def write_golden() -> None:
    scenario = load_scenario(ROOT / SCENARIO)
    with tempfile.TemporaryDirectory() as tmp:
        sha256 = {key: log_sha256(scenario, key, Path(tmp) / "episode.jsonl") for key in KEYS}
        sha256[STUDY_KEY] = study_sha256(scenario, Path(tmp) / "episode.jsonl")
    write_json(GOLDEN_PATH, {"scenario": SCENARIO, "sha256": sha256})
    walks = {key: walks_sha256(key) for key in WALK_CONFIGS}
    write_json(WALKS_PATH, {"seeds": len(WALK_SEEDS), "sha256": walks})
    with tempfile.TemporaryDirectory() as tmp:
        sha256 = {name: witness_sha256(name, Path(tmp)) for name in WITNESSES}
    write_json(WITNESS_PATH, {"scenario": SCENARIO, "sha256": sha256})


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="regenerate the golden files")
    if not parser.parse_args().write:
        parser.error("nothing to do; pass --write to regenerate the golden files")
    write_golden()
