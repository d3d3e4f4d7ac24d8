"""Line reach: every line of ``src/aansim`` runs from the shipped entry
points, or the function that holds it is allowlisted with a reason.

A fresh interpreter, so that module-level lines count, traces with
``sys.settrace`` the ``aansim`` command lines of a study on lab_study
(``batch``, ``report`` with and without questionnaires, ``show`` and
``run``), ``batch`` on each witness copy of ``test_golden``, and a fixed list
of bad-input command lines from ``test_episode_cli``, each of which must exit
1 with one line on stderr.  A line that ``co_lines()`` of a compiled module
lists and no run reaches is charged to the innermost function that holds it,
``module.qualname`` (``module.<module>`` for module-level code).  Such a
function must be in ``ALLOWED`` with its reason, and every entry of
``ALLOWED`` must still have such a line, so the list can only shrink.
Run as a script, it prints each function's unreached lines.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from test_golden import WITNESSES, write_witness

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "aansim"
LAB_STUDY = ROOT / "scenarios" / "lab_study.json"

# Functions with lines that no traced command line reaches, and why each stays.
_LADDER = "the L1/L2 ladder, refusals and off-script replies, which no episode reaches yet"
_LOADER = "a bad scenario value that the loader hands on to this check"
_BAD_SCENARIO = "a scenario or map that the loader rejects; test_scenario checks it"
_SPIN = "a failed replan after the recovery spin, and tick caps: no witness drive has either"
_MOTION = "reposition and rotate_base, which a large min_standoff and a reversed camera reach"
_LOST = "a detection whose frame does not localize: no witness frame fails"
_OFF_MAP = "a point off the map: a rejected start or approach pose, or a drive off the map edge"
ALLOWED: dict[str, str] = {
    "cli.<module>": "python -m aansim.cli, which test_show_to_a_closed_pipe_exits_quietly runs",
    "cli._describe_action": _MOTION + ", and a hand-edited log's unknown action kind",
    "cli.main": "a closed stdout pipe, which test_show_to_a_closed_pipe_exits_quietly closes",
    "episode._Engine.visit": _LOST,
    "geometry.CameraIntrinsics.__post_init__": _LOADER,
    "geometry.RigidTransform.apply": _MOTION + ": a single 3-vector",
    "geometry.extract_foreground": "the center fallback and an empty box: no traced frame has either",
    "geometry.normalize_angle": "an angle that math.remainder maps to exactly -pi",
    "geometry.pointing_angles": "a target at the arm origin",
    "navigation.<module>": "the TYPE_CHECKING import of Scenario",
    "navigation._drive": _SPIN,
    "navigation.dwa_step": "a near score tie, which takes libm's bearing, and an exact one, "
                           "which the tie-break sort settles: no traced tick has either",
    "navigation.plan_global": "LethalEndpoint, NoPath and a start in the goal's cell",
    "orchestrator.Action.reposition": _MOTION,
    "orchestrator.Action.rotate_base": _MOTION,
    "orchestrator._escalate_or_abort": _LADDER,
    "orchestrator._passive_step": _LADDER,
    "orchestrator._register_refusal": _LADDER,
    "orchestrator._repeat": _LADDER,
    "orchestrator.gesture_actions": _MOTION + ", and a target at the arm origin",
    "orchestrator.interpret": _LADDER,
    "orchestrator.prompt_for": _LADDER,
    "orchestrator.step": _LADDER,
    "scenario._get": "an omitted optional key: lab_study and its copies set every one",
    "scenario._section": _LOADER,
    "scenario._shape": _BAD_SCENARIO,
    "scenario.load_scenario": _BAD_SCENARIO,
    "session.SessionLog.end_time": "perfbench reads it; no command line does",
    "session.validate_log": "a hand-edited log; test_session and test_episode_cli check each error",
    "usersim.gaze_stream": "an injected run that starts in the stream's last sample",
    "usersim.respond": _LADDER,
    "world.OccupancyGrid.__post_init__": _LOADER,
    "world.OccupancyGrid.from_ascii": _BAD_SCENARIO,
    "world.OccupancyGrid.state_at": _OFF_MAP,
    "world.OccupancyGrid.world_to_cell": _OFF_MAP,
    "world._perturb_box": "box_noise_sigma 0, which no witness sets",
    "world.detect": "a false positive on a distractor, and a detection box that leaves the "
                    "kept rectangle, which renders only itself: no traced frame draws either",
    "world.step_kinematics": "a collision, which no traced drive has",
}


def code_lines(source: str, filename: str) -> dict[int, str]:
    """Each line with bytecode, mapped to the qualname of the innermost code
    object that holds it."""
    owner: dict[int, str] = {}
    stack = [compile(source, filename, "exec")]
    while stack:  # parents before their nested code objects, which win
        code = stack.pop()
        for _, _, line in code.co_lines():
            if line:
                owner[line] = code.co_qualname
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return owner


def unreached(sources: dict[str, str], reached: dict[str, set[int]]) -> dict[str, list[int]]:
    """``module.qualname`` -> the lines of it that no run reached, for the
    modules in ``sources`` (module name -> source)."""
    missed: dict[str, list[int]] = {}
    for module, source in sources.items():
        lines = reached.get(module, set())
        for line, qualname in sorted(code_lines(source, module).items()):
            if line not in lines:
                missed.setdefault(f"{module}.{qualname}", []).append(line)
    return missed


def reach_problems(missed: dict[str, list[int]], allowed: dict[str, str]) -> list[str]:
    """One message per function with unreached lines that ``allowed`` does not
    name, and per entry of ``allowed`` with no unreached line left."""
    problems = [
        f"{name}: lines {lines} run only from tests; reach them or delete them"
        for name, lines in missed.items()
        if name not in allowed
    ]
    problems += [
        f"{name}: every line now runs; drop its ALLOWED entry"
        for name in allowed
        if name not in missed
    ]
    return problems


def test_unreached_line_and_stale_entry_are_caught():
    source = (
        "def f(x):\n"
        "    if x:\n"
        "        return 1\n"
        "    return 2\n"
        "\n"
        "\n"
        "def g():\n"
        "    return 3\n"
    )
    # f ran once with a true x; g never ran but is allowlisted; h is gone.
    missed = unreached({"a": source}, {"a": {1, 2, 3, 7}})
    assert missed == {"a.f": [4], "a.g": [8]}
    assert reach_problems(missed, {"a.g": "kept on purpose", "a.h": "gone"}) == [
        "a.f: lines [4] run only from tests; reach them or delete them",
        "a.h: every line now runs; drop its ALLOWED entry",
    ]


# Runs the command lines read as JSON from stdin under a line tracer of the
# package directory argv[1]; prints the reached lines per file, then the
# exit code and stderr of each command line.
_DRIVER = """
import contextlib, io, json, sys

package = sys.argv[1]
reached, tracers = {}, {}

def tracer_for(filename):
    add = reached.setdefault(filename, set()).add

    def trace_lines(frame, event, arg):
        if event == "line":
            add(frame.f_lineno)
        return trace_lines

    return trace_lines

def trace_calls(frame, event, arg):
    filename = frame.f_code.co_filename
    try:
        return tracers[filename]
    except KeyError:
        tracer = tracers[filename] = tracer_for(filename) if filename.startswith(package) else None
        return tracer

commands = json.load(sys.stdin)
sys.settrace(trace_calls)
from aansim import cli

results = []
for argv in commands:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        results.append((cli.main(argv), err.getvalue()))
sys.settrace(None)
print(json.dumps({"reached": {f: sorted(s) for f, s in reached.items()}, "results": results}))
"""


def trace_commands(commands: list[list[str]]) -> tuple[dict[str, set[int]], list]:
    """Reached lines per package module, and (exit code, stderr) per command line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _DRIVER, str(PACKAGE) + os.sep],
        input=json.dumps(commands), capture_output=True, text=True, env=env, check=True,
    )
    out = json.loads(proc.stdout)
    reached = {Path(f).stem: set(lines) for f, lines in out["reached"].items()}
    return reached, out["results"]


def _log(seed: str = "3", t: str = "1.0", scenario_hash: str = "h") -> str:
    """A two-line log: the meta line and one note at time ``t``."""
    return (
        f'{{"format":"aansim-log/1","condition":"A","seed":{seed},'
        f'"scenario_hash":"{scenario_hash}","profile":"p"}}\n'
        f'{{"kind":"note","note":"hello","t":{t}}}\n'
    )


def _lab_copy(**session) -> str:
    """lab_study with ``session`` values replaced, reading the lab_study map."""
    doc = json.loads(LAB_STUDY.read_text(encoding="utf-8"))
    doc["map"] = str(LAB_STUDY.parent / doc["map"])
    doc["session"].update(session)
    return json.dumps(doc)


# Bad-input command lines as in test_episode_cli: the files each one reads,
# written to a directory of its own, and its arguments.  "{d}" stands for
# that directory, "{lab}" for lab_study and "{study}" for the study logs.
_RUN = ["run", "--condition", "A", "--scenario"]
_REPORT = ["report", "--logs", "{d}"]
_USABILITY = ["report", "--logs", "{study}", "--usability", "{d}/u.csv"]
BAD_INPUTS = {
    "usage_seed_-1": ({}, ["run", "--scenario", "{lab}", "--condition", "A", "--seed", "-1"]),
    "scenario_missing": ({}, [*_RUN, "{d}/s.json"]),
    "scenario_not_json": ({"s.json": "{not json"}, [*_RUN, "{d}/s.json"]),
    "scenario_deeply_nested": ({"s.json": '{"a":' * 200_000}, [*_RUN, "{d}/s.json"]),
    "scenario_too_many_digits": (
        {"s.json": '{"session": {"timeout_s": 1' + "0" * 5000 + "}}"}, [*_RUN, "{d}/s.json"]
    ),
    "scenario_huge_timeout": ({"s.json": _lab_copy(timeout_s=10**400)}, [*_RUN, "{d}/s.json"]),
    "run_out_is_a_file": ({"taken": ""}, ["run", "--scenario", "{lab}", "--condition", "A",
                                          "--out", "{d}/taken"]),
    "report_empty_dir": ({}, _REPORT),
    "report_string_seed": ({"bad.jsonl": _log(seed='"x"')}, _REPORT),
    "report_huge_int_time": ({"bad.jsonl": _log(t="1" + "0" * 400)}, _REPORT),
    "report_two_scenarios": ({"a.jsonl": _log(), "b.jsonl": _log(scenario_hash="g")}, _REPORT),
    "report_repeated_key": ({"a.jsonl": _log(), "b.jsonl": _log()}, _REPORT),
    "report_tlx_unknown_condition": (
        {"tlx.csv": "participant,condition,mental,physical,temporal,performance,effort,"
                    "frustration\np1,B ,2,2,2,2,2,2\n"},
        ["report", "--logs", "{study}", "--tlx", "{d}/tlx.csv"],
    ),
    "report_tlx_out_of_range": (
        {"tlx.csv": "participant,condition,mental,physical,temporal,performance,effort,"
                    "frustration\np1,A,11,2,2,2,2,2\n"},
        ["report", "--logs", "{study}", "--tlx", "{d}/tlx.csv"],
    ),
    "report_tlx_repeated_row": (
        {"tlx.csv": "participant,condition,mental,physical,temporal,performance,effort,"
                    "frustration\np1,A,2,2,2,2,2,2\np1,A,9,9,9,9,9,9\n"},
        ["report", "--logs", "{study}", "--tlx", "{d}/tlx.csv"],
    ),
    "report_tlx_padded_participant": (
        {"tlx.csv": "participant,condition,mental,physical,temporal,performance,effort,"
                    "frustration\np1,A,2,2,2,2,2,2\np1 ,A,9,9,9,9,9,9\n"},
        ["report", "--logs", "{study}", "--tlx", "{d}/tlx.csv"],
    ),
    "report_usability_empty_participant": (
        {"u.csv": "participant,condition,q1,q2,q3,q4,q5\n,B,4,2,4,2,4\n"}, _USABILITY
    ),
    "report_usability_no_header": ({"u.csv": ""}, _USABILITY),
    "report_usability_missing_columns": ({"u.csv": "participant,condition,q1\n"}, _USABILITY),
    "report_out_in_missing_dir": ({}, ["report", "--logs", "{study}", "--out", "{d}/no/r.txt"]),
    "show_missing": ({}, ["show", "{d}/missing.jsonl"]),
    "show_not_utf8": ({"bad.jsonl": b'{"name": "caf\xe9"}'}, ["show", "{d}/bad.jsonl"]),
    "show_empty": ({"bad.jsonl": ""}, ["show", "{d}/bad.jsonl"]),
    "show_not_json": ({"bad.jsonl": "{"}, ["show", "{d}/bad.jsonl"]),
    "show_deeply_nested": ({"bad.jsonl": "[" * 200_000}, ["show", "{d}/bad.jsonl"]),
    "show_too_many_digits": ({"bad.jsonl": "1" + "0" * 5000}, ["show", "{d}/bad.jsonl"]),
    "show_event_without_kind": (
        {"bad.jsonl": _log().replace('"note":"hello"', '"event":{},"actions":[],"state":{}')
                             .replace('"kind":"note"', '"kind":"event"')},
        ["show", "{d}/bad.jsonl"],
    ),
}

TLX_CSV = (
    "participant,condition,mental,physical,temporal,performance,effort,frustration\n"
    "p1,A,2,3,2,4,2,1\np2,A,5,5,6,4,5,6\np3,B,2,2,2,2,2,2\n"
)
USABILITY_CSV = (
    "participant,condition,q1,q2,q3,q4,q5\n"
    "p1,A,5,2,5,2,5\np2,A,3,3,4,4,3\np3,A,2,4,1,4,3\np4,B,4,2,4,2,4\np5,B,4,2,4,2,4\n"
)


def shipped_commands(tmp_path: Path) -> tuple[list[list[str]], int]:
    """The command lines to trace, with the files they read written under
    ``tmp_path``: the good ones, then one per ``BAD_INPUTS`` case; and the
    number of good ones."""
    study, witnesses, run = tmp_path / "study", tmp_path / "witnesses", tmp_path / "run"
    witnesses.mkdir()
    (tmp_path / "tlx.csv").write_text(TLX_CSV)
    (tmp_path / "usability.csv").write_text(USABILITY_CSV)
    (tmp_path / "header_only.csv").write_text(USABILITY_CSV.partition("\n")[0] + "\n")
    commands = [
        ["batch", "--scenario", str(LAB_STUDY), "--out", str(study)],
        ["report", "--logs", str(study)],
        ["report", "--logs", str(study), "--tlx", str(tmp_path / "tlx.csv"),
         "--usability", str(tmp_path / "usability.csv"), "--out", str(tmp_path / "report.txt")],
        # Seed 1 of condition B logs a miss and a timeout.
        ["show", str(study / "lab_study_B_seed0001.jsonl")],
        ["run", "--scenario", str(LAB_STUDY), "--condition", "B", "--out", str(run)],
        ["report", "--logs", str(run), "--usability", str(tmp_path / "header_only.csv")],
    ]
    for name in WITNESSES:
        scenario = write_witness(name, witnesses)
        commands.append(
            ["batch", "--scenario", str(scenario), "--seeds", "4", "--out", str(tmp_path / name)]
        )
    n_good = len(commands)
    for name, (files, argv) in BAD_INPUTS.items():
        directory = tmp_path / "bad" / name
        directory.mkdir(parents=True)
        for filename, contents in files.items():
            path = directory / filename
            path.write_bytes(contents) if isinstance(contents, bytes) else path.write_text(contents)
        commands.append([a.format(d=directory, lab=LAB_STUDY, study=study) for a in argv])
    return commands, n_good


def package_sources() -> dict[str, str]:
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}


def test_every_line_runs_from_a_shipped_command_line(tmp_path):
    commands, n_good = shipped_commands(tmp_path)
    reached, results = trace_commands(commands)
    assert [rc for rc, _ in results[:n_good]] == [0] * n_good
    one_error_line = {
        name: rc == 1 and err.count("\n") == 1
        for name, (rc, err) in zip(BAD_INPUTS, results[n_good:])
    }
    assert one_error_line == dict.fromkeys(BAD_INPUTS, True)
    assert reach_problems(unreached(package_sources(), reached), ALLOWED) == []
    assert all(reason.strip() for reason in ALLOWED.values())


if __name__ == "__main__":
    # Print the lines of each function that no traced command line reaches,
    # then what the test would report: PYTHONPATH=src python tests/test_reach.py
    with tempfile.TemporaryDirectory() as tmp:
        reached, _ = trace_commands(shipped_commands(Path(tmp))[0])
    missed = unreached(package_sources(), reached)
    for name, lines in missed.items():
        print(f"{name}: {lines}")
    for problem in reach_problems(missed, ALLOWED):
        print(f"problem: {problem}")
