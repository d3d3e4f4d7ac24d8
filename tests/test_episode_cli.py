import csv
import hashlib
import json
import math
import os
import shlex
import shutil
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from aansim import cli, episode, usersim
from aansim import metrics as m
from aansim.episode import run_episode
from aansim.orchestrator import MOTION_ACTION_KINDS, Action, ActionKind
from aansim.scenario import load_scenario
from aansim.session import read_log, validate_log
from oracles import audit_log, max_offtask_gap

from conftest import SCENARIO_PATH

MOTION_KIND_VALUES = {k.value for k in MOTION_ACTION_KINDS}


def log_digest(log) -> str:
    payload = json.dumps(
        {"meta": log.meta, "records": log.records}, sort_keys=True
    ).encode()
    return hashlib.sha256(payload).hexdigest()


# ---------------------------------------------------------------------------
# Episodes


@pytest.fixture
def gaze_streams(monkeypatch):
    """Each episode's gaze-code array, captured from ``usersim.gaze_stream``."""
    streams = []
    real = usersim.gaze_stream

    def captured(*args):
        codes, inserted = real(*args)
        streams.append(codes)
        return codes, inserted

    monkeypatch.setattr(usersim, "gaze_stream", captured)
    return streams


def test_guided_episode_completes_and_validates(lab_scenario):
    result = run_episode(lab_scenario, "B", 0)
    validate_log(result.log)
    sm = m.session_metrics(result.log)
    assert sm.completed
    assert not sm.censored
    assert sm.time_to_locate_s < 120.0
    assert sm.interaction_rounds >= 5  # one verbal confirm per guidance step
    kinds = [r["event"]["kind"] for r in result.log.records if r["kind"] == "event"]
    assert "schedule_due" in kinds
    assert "found" in kinds or "user_action" in kinds


def test_passive_episode_never_commands_motion(lab_scenario):
    result = run_episode(lab_scenario, "A", 0)
    validate_log(result.log)
    for record in result.log.records:
        if record["kind"] != "event":
            continue
        for action in record["actions"]:
            assert action["kind"] not in MOTION_KIND_VALUES
    sm = m.session_metrics(result.log)
    assert sm.interaction_rounds <= 4  # occasional hints, no step dialogue


def test_passive_hints_follow_session_hint_interval(tmp_path):
    doc = json.loads(SCENARIO_PATH.read_text())
    doc["session"]["hint_interval_s"] = 12
    shutil.copy(SCENARIO_PATH.parent / "lab.map", tmp_path / "lab.map")
    path = tmp_path / "hints12.json"
    path.write_text(json.dumps(doc))
    log = run_episode(load_scenario(path), "A", 0).log
    hints = [
        r["t"] for r in log.records
        if r["kind"] == "event" and r["event"]["kind"] == "record_pressed"
    ]
    assert hints[0] == 12.0


def test_episode_is_deterministic_per_key(lab_scenario, gaze_streams):
    for condition in ("A", "B"):
        a = run_episode(lab_scenario, condition, 7)
        b = run_episode(lab_scenario, condition, 7)
        assert log_digest(a.log) == log_digest(b.log)
        assert len(gaze_streams) == 2
        assert np.array_equal(gaze_streams.pop(), gaze_streams.pop())
    assert log_digest(run_episode(lab_scenario, "B", 8).log) != log_digest(
        run_episode(lab_scenario, "B", 7).log
    )


def test_paired_conditions_share_bottle_placement(lab_scenario):
    for seed in range(6):
        a = run_episode(lab_scenario, "A", seed)
        b = run_episode(lab_scenario, "B", seed)
        assert a.log.meta["bottle_roi"] == b.log.meta["bottle_roi"]


def test_episode_meta_carries_reproduction_key(lab_scenario):
    result = run_episode(lab_scenario, "B", 3)
    meta = result.log.meta
    assert meta["seed"] == 3
    assert meta["condition"] == "B"
    assert meta["scenario_hash"] == lab_scenario.scenario_hash
    assert meta["profile"] == "misplaces"


def test_episode_gaze_stream_present_with_confusion_accounting(lab_scenario, gaze_streams):
    # Seed 1 logs no confusion event; seed 7 logs one.
    for seed, n_events in ((1, 0), (7, 1)):
        result = run_episode(lab_scenario, "A", seed)
        (codes,) = gaze_streams
        gaze_streams.clear()
        assert codes.size, "episodes must carry a gaze stream"
        (summary,) = [r for r in result.log.records if r.get("note") == "gaze_summary"]
        # 180 samples per simulated second, up to the summary's time stamp.
        assert len(codes) == summary["data"]["n_samples"] == math.ceil(summary["t"] * 180)
        # The detected events must be exactly what the brute-force reference
        # finds given the codes and the action times the engine actually logged.
        action_times = [
            r["t"] for r in result.log.records if r["kind"] == "event" and r["actions"]
        ]
        expected = max_offtask_gap(
            [k / 180.0 for k in range(len(codes))], codes.tolist(), action_times, 3.0
        )
        assert summary["data"]["confusion_events"] == [
            [round(a, 6), round(b, 6)] for a, b in expected
        ]
        assert len(expected) == n_events


def _navigating_rois(log) -> list[str]:
    return [r["data"]["roi"] for r in log.records if r.get("note") == "navigating"]


def test_engine_visits_the_roi_each_navigate_to_names(lab_scenario, monkeypatch):
    """The search goes where the policy's ``navigate_to`` says, not where the
    engine would work out from the policy's state."""
    ids = [roi.id for roi in lab_scenario.rois]
    rewrite = dict(zip(ids, reversed(ids)))
    real_step = episode.orchestrator_step

    def reversed_step(state, event, config):
        state, actions = real_step(state, event, config)
        return state, [
            Action.navigate_to(rewrite[a.payload["roi"]]) if a.kind is ActionKind.NAVIGATE_TO else a
            for a in actions
        ]

    monkeypatch.setattr(episode, "orchestrator_step", reversed_step)
    # Unpatched, seed 1 misses at kitchen_counter, then finds the bottle at hall_shelf.
    log = run_episode(lab_scenario, "B", 1).log
    directed = [
        a["roi"]
        for r in log.records if r["kind"] == "event"
        for a in r["actions"] if a["kind"] == "navigate_to"
    ]
    assert directed == [rewrite["kitchen_counter"], rewrite["hall_shelf"]]
    assert _navigating_rois(log) == directed


def test_audit_log_rejects_a_visit_the_policy_did_not_direct(lab_scenario, monkeypatch):
    real_visit = episode._Engine.visit
    rois = lab_scenario.rois
    monkeypatch.setattr(
        episode._Engine, "visit", lambda engine, roi: real_visit(engine, rois[-1 - rois.index(roi)])
    )
    log = run_episode(lab_scenario, "B", 1).log
    with pytest.raises(AssertionError, match="visits side_table; the policy directed kitchen_counter"):
        audit_log(log, lab_scenario)


# ---------------------------------------------------------------------------
# CLI


def test_cli_run_writes_log_and_reports_status(tmp_path, capsys):
    rc = cli.main(
        [
            "run",
            "--scenario",
            str(SCENARIO_PATH),
            "--condition",
            "B",
            "--seed",
            "0",
            "--out",
            str(tmp_path),
        ]
    )
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    assert "completed" in out
    log_path = tmp_path / "lab_study_B_seed0000.jsonl"
    assert log_path.exists()
    validate_log(read_log(log_path))


def test_cli_run_bad_scenario_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = cli.main(
        ["run", "--scenario", str(bad), "--condition", "A", "--seed", "1",
         "--out", str(tmp_path)]
    )
    err = capsys.readouterr().err
    assert rc == cli.EXIT_ERROR
    assert "scenario error" in err


@pytest.mark.parametrize("command", ["run", "batch"])
@pytest.mark.parametrize(
    "contents, error",
    [
        (None, "$: cannot read {}"),
        (b'{"name": "caf\xe9"}', "$: cannot read {}"),
        (b'{"a":' * 200_000, "$: JSON nested too deeply"),
        (b'{"session": {"timeout_s": 1' + b"0" * 5000 + b"}}", "$: integer too long to parse"),
    ],
    ids=["missing", "not_utf8", "deeply_nested", "too_many_digits"],
)
def test_cli_unreadable_scenario_is_one_error_line(tmp_path, capsys, command, contents, error):
    path = tmp_path / "scenario.json"
    if contents is not None:
        path.write_bytes(contents)
    args = ["--scenario", str(path), "--out", str(tmp_path / "out")]
    if command == "run":
        args += ["--condition", "A"]
    rc = cli.main([command, *args])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_ERROR
    assert err.startswith(f"scenario error: {error.format(path)}") and err.count("\n") == 1


def test_cli_run_incomplete_session_exits_two(tmp_path, capsys):
    doc = json.loads(SCENARIO_PATH.read_text())
    doc["session"]["time_cap_s"] = 10.0  # smallest legal cap; nothing finishes this fast
    shutil.copy(SCENARIO_PATH.parent / "lab.map", tmp_path / "lab.map")
    capped = tmp_path / "capped.json"
    capped.write_text(json.dumps(doc))
    rc = cli.main(
        ["run", "--scenario", str(capped), "--condition", "A", "--seed", "0",
         "--out", str(tmp_path)]
    )
    out = capsys.readouterr().out
    assert rc == cli.EXIT_INCOMPLETE
    assert "not completed" in out


def test_cli_batch_then_report_round_trip(tmp_path, capsys):
    out_dir = tmp_path / "batch"
    rc = cli.main(
        ["batch", "--scenario", str(SCENARIO_PATH), "--seeds", "2",
         "--out", str(out_dir)]
    )
    assert rc == cli.EXIT_OK
    batch_out = capsys.readouterr().out
    assert "time to locate (s) median" in batch_out
    logs = sorted(p.name for p in out_dir.glob("*.jsonl"))
    assert logs == [
        "lab_study_A_seed0000.jsonl",
        "lab_study_A_seed0001.jsonl",
        "lab_study_B_seed0000.jsonl",
        "lab_study_B_seed0001.jsonl",
    ]
    with open(out_dir / "summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert {r["condition"] for r in rows} == {"A", "B"}

    rc = cli.main(["report", "--logs", str(out_dir)])
    assert rc == cli.EXIT_OK
    report_out = capsys.readouterr().out
    assert "completion rate" in report_out


def test_cli_report_rejects_tampered_log(tmp_path, capsys):
    out_dir = tmp_path / "one"
    assert (
        cli.main(
            ["run", "--scenario", str(SCENARIO_PATH), "--condition", "B",
             "--seed", "0", "--out", str(out_dir)]
        )
        == cli.EXIT_OK
    )
    capsys.readouterr()
    log_path = next(out_dir.glob("*.jsonl"))
    lines = log_path.read_text().splitlines()
    record = json.loads(lines[2])
    record["t"] = -50.0  # break time monotonicity
    lines[2] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    log_path.write_text("\n".join(lines) + "\n")
    rc = cli.main(["report", "--logs", str(out_dir)])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_ERROR
    assert "invalid log" in err


@pytest.mark.parametrize(
    "data",
    [{"n_samples": 1}, {"confusion_events": 2}, None],
    ids=["missing_events", "events_not_a_list", "no_data"],
)
def test_cli_report_rejects_a_gaze_summary_without_an_event_list(tmp_path, capsys, data):
    _run_a(SCENARIO_PATH, 0, tmp_path)
    capsys.readouterr()
    log_path = tmp_path / "lab_study_A_seed0000.jsonl"
    lines = log_path.read_text().splitlines()
    record = json.loads(lines[-1])
    assert record["note"] == "gaze_summary"
    if data is None:
        del record["data"]
    else:
        record["data"] = data
    lines[-1] = json.dumps(record)
    log_path.write_text("\n".join(lines) + "\n")
    rc = cli.main(["report", "--logs", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_ERROR
    assert err.startswith(f"invalid log {log_path}: ") and err.count("\n") == 1
    assert "gaze_summary needs a 'data.confusion_events' list" in err


@pytest.mark.parametrize(
    "condition, meta_seed, t, message",
    [
        ('"A"', '"x"', "1.0", "'seed' must be an integer"),
        ('"A"', "3", "NaN", "'t' must be a finite number"),
        ("5", "3", "1.0", "'condition' must be one of ('A', 'B'), got 5"),
        ('"A"', "3", "1" + "0" * 400, "'t' must be a finite number"),
        ('"A"', "3", "1" + "0" * 5000, "line 2: integer too long to parse"),
    ],
    ids=["string_seed", "nan_time", "int_condition", "huge_int_time", "too_many_digits"],
)
def test_cli_report_rejects_bad_seed_or_time(tmp_path, capsys, condition, meta_seed, t, message):
    # A string seed once crashed session_metrics; a NaN time printed nan times;
    # an integer condition headed its own report column beside A and B; an
    # integer time past the float range, or past the interpreter's digit
    # limit for parsing, ended in a traceback.
    (tmp_path / "bad.jsonl").write_text(
        f'{{"format":"aansim-log/1","condition":{condition},"seed":{meta_seed},'
        f'"scenario_hash":"h","profile":"p"}}\n'
        f'{{"kind":"note","note":"hello","t":{t}}}\n'
    )
    rc = cli.main(["report", "--logs", str(tmp_path)])
    assert rc == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("invalid log ") and err.count("\n") == 1
    assert message in err


def test_cli_report_with_questionnaires(tmp_path, capsys):
    out_dir = tmp_path / "logs"
    cli.main(
        ["run", "--scenario", str(SCENARIO_PATH), "--condition", "B", "--seed", "0",
         "--out", str(out_dir)]
    )
    capsys.readouterr()
    tlx = tmp_path / "tlx.csv"
    tlx.write_text(
        "participant,condition,mental,physical,temporal,performance,effort,frustration\n"
        "p1,B,2,2,2,2,2,2\n"
    )
    usab = tmp_path / "usab.csv"
    # Condition A's items after reversing q2 and q4: (5,4,5,4,5), (3,3,4,2,3),
    # (2,2,1,2,3).  Item variances sum to 62/9 and the totals' variance is
    # 258/9, so alpha = 5/4 * (1 - 62/258) = 0.9496.
    usab.write_text(
        "participant,condition,q1,q2,q3,q4,q5\np1,B,5,1,4,2,4\n"
        "p2,A,5,2,5,2,5\np3,A,3,3,4,4,3\np4,A,2,4,1,4,3\n"
    )
    out_file = tmp_path / "report.txt"
    rc = cli.main(
        ["report", "--logs", str(out_dir), "--tlx", str(tlx),
         "--usability", str(usab), "--out", str(out_file)]
    )
    assert rc == cli.EXIT_OK
    text = out_file.read_text()
    assert "workload (B): mean 11.11" in text
    assert "usability (B): mean 85.00" in text
    alpha = Fraction(5, 4) * (1 - Fraction(62, 258))
    assert "usability (A): mean 55.00, " in text
    assert f"alpha {float(alpha):.2f} (n=3)" in text
    assert "alpha - (n=1)" in text  # one respondent: no alpha


def test_cli_report_header_only_questionnaire_adds_no_lines(tmp_path, capsys):
    out_dir = tmp_path / "logs"
    cli.main(
        ["run", "--scenario", str(SCENARIO_PATH), "--condition", "A", "--seed", "0",
         "--out", str(out_dir)]
    )
    capsys.readouterr()
    assert cli.main(["report", "--logs", str(out_dir)]) == cli.EXIT_OK
    plain = capsys.readouterr().out
    usab = tmp_path / "usab.csv"
    usab.write_text("participant,condition,q1,q2,q3,q4,q5\n")
    assert cli.main(["report", "--logs", str(out_dir), "--usability", str(usab)]) == cli.EXIT_OK
    assert capsys.readouterr().out == plain


def test_cli_report_empty_dir_errors(tmp_path, capsys):
    rc = cli.main(["report", "--logs", str(tmp_path)])
    assert rc == cli.EXIT_ERROR
    assert "no .jsonl logs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, csv_text, message",
    [
        ("--tlx",
         "participant,condition,mental,physical,temporal,performance,effort,frustration\n"
         "p1,A,11,2,2,2,2,2\n",
         "row 2: workload item 'mental' must be in [1, 10]"),
        ("--usability", "participant,condition,score\np1,A,4\n", "missing columns"),
        ("--usability", "participant,condition,q1,q2,q3,q4,q5\np1,A,4\n", "row 2: "),
        ("--usability", None, "No such file"),
    ],
    ids=["tlx_out_of_range", "usability_missing_columns", "usability_short_row", "missing_file"],
)
def test_cli_report_rejects_bad_questionnaire(tmp_path, capsys, flag, csv_text, message):
    out_dir = tmp_path / "logs"
    cli.main(
        ["run", "--scenario", str(SCENARIO_PATH), "--condition", "A", "--seed", "0",
         "--out", str(out_dir)]
    )
    capsys.readouterr()
    path = tmp_path / "answers.csv"
    if csv_text is not None:
        path.write_text(csv_text)
    rc = cli.main(["report", "--logs", str(out_dir), flag, str(path)])
    assert rc == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("questionnaire error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "--condition", "A", "--seed", "-1"], "argument --seed: must be an integer >= 0"),
        (["batch", "--seeds", "0"], "argument --seeds: must be an integer >= 1"),
        (["batch", "--seeds", "-3"], "argument --seeds: must be an integer >= 1"),
        (["batch", "--seed-start", "-1"], "argument --seed-start: must be an integer >= 0"),
        (["batch", "--seeds", "x"], "argument --seeds: invalid int value: 'x'"),
        (["run", "--condition", "C"], "argument --condition: invalid choice: 'C'"),
    ],
    ids=["run_seed_-1", "batch_seeds_0", "batch_seeds_-3", "batch_seed_start_-1",
         "batch_seeds_x", "run_condition_C"],
)
def test_cli_usage_error_is_one_line_and_exit_one(tmp_path, capsys, argv, message):
    out_dir = tmp_path / "out"
    command, *rest = argv
    rc = cli.main([command, "--scenario", str(SCENARIO_PATH), "--out", str(out_dir), *rest])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_ERROR
    assert err.startswith(f"aansim {command}: error: ") and err.count("\n") == 1
    assert message in err
    assert not out_dir.exists()


def test_cli_help_exits_zero(capsys):
    assert cli.main(["run", "--help"]) == cli.EXIT_OK
    assert "--scenario" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv", [["run", "--condition", "A"], ["batch", "--seeds", "1"]], ids=["run", "batch"]
)
def test_cli_run_out_is_a_file_is_one_error_line(tmp_path, capsys, argv):
    taken = tmp_path / "taken"
    taken.write_text("")
    rc = cli.main([*argv, "--scenario", str(SCENARIO_PATH), "--out", str(taken)])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_ERROR
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(taken) in err


def test_cli_report_out_in_missing_dir_is_one_error_line(tmp_path, capsys):
    out_dir = tmp_path / "logs"
    cli.main(
        ["run", "--scenario", str(SCENARIO_PATH), "--condition", "A", "--seed", "0",
         "--out", str(out_dir)]
    )
    capsys.readouterr()
    target = tmp_path / "missing" / "r.txt"
    rc = cli.main(["report", "--logs", str(out_dir), "--out", str(target)])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_ERROR
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(target) in err


def _run_a(scenario, seed, out_dir):
    argv = ["run", "--scenario", str(scenario), "--condition", "A", "--seed", str(seed)]
    assert cli.main(argv + ["--out", str(out_dir)]) == cli.EXIT_OK


def test_cli_report_refuses_logs_of_two_scenarios(tmp_path, capsys):
    # A renamed copy of lab_study has another name, so another scenario hash.
    doc = json.loads(SCENARIO_PATH.read_text())
    doc["name"] = "lab_copy"
    shutil.copy(SCENARIO_PATH.parent / doc["map"], tmp_path / doc["map"])
    copy = tmp_path / "lab_copy.json"
    copy.write_text(json.dumps(doc))
    out_dir = tmp_path / "logs"
    _run_a(SCENARIO_PATH, 0, out_dir)
    _run_a(copy, 0, out_dir)
    capsys.readouterr()
    rc = cli.main(["report", "--logs", str(out_dir)])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_ERROR and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "lab_study_A_seed0000.jsonl" in captured.err and "different scenarios" in captured.err


def test_cli_report_refuses_a_repeated_condition_and_seed(tmp_path, capsys):
    out_dir = tmp_path / "logs"
    _run_a(SCENARIO_PATH, 0, out_dir)
    _run_a(SCENARIO_PATH, 1, out_dir)
    log = out_dir / "lab_study_A_seed0000.jsonl"
    shutil.copy(log, out_dir / "again.jsonl")
    capsys.readouterr()
    rc = cli.main(["report", "--logs", str(out_dir)])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_ERROR and captured.out == ""
    assert captured.err == f"error: {log} repeats condition A seed 0 of {out_dir / 'again.jsonl'}\n"


# ---------------------------------------------------------------------------
# aansim show


@pytest.fixture(scope="module")
def run_logs(tmp_path_factory):
    """The logs of lab_study A and B at seeds 0 and 1, written by ``aansim run``."""
    out_dir = tmp_path_factory.mktemp("run_logs")
    for condition in ("A", "B"):
        for seed in (0, 1):
            argv = ["run", "--scenario", str(SCENARIO_PATH), "--condition", condition,
                    "--seed", str(seed), "--out", str(out_dir)]
            assert cli.main(argv) == cli.EXIT_OK
    return out_dir


@pytest.mark.parametrize("condition, seed", [("A", 0), ("A", 1), ("B", 0), ("B", 1)])
def test_show_prints_a_run_log(run_logs, capsys, condition, seed):
    capsys.readouterr()
    assert cli.main(["show", str(run_logs / f"lab_study_{condition}_seed{seed:04d}.jsonl")]) == 0
    out = capsys.readouterr().out
    bottle = {0: "kitchen_counter", 1: "hall_shelf"}[seed]
    assert out.startswith(f"lab_study | condition {condition} | seed {seed} | bottle at {bottle}\n")
    if (condition, seed) == ("B", 1):
        assert "nothing at kitchen_counter" in out  # the search logged a miss


def test_show_describes_rotate_base(tmp_path, capsys):
    # Camera turned to look backwards and approach poses reversed: the bottle
    # is found behind the robot, so pointing at it needs a base rotation.
    doc = json.loads(SCENARIO_PATH.read_text())
    doc["robot"]["camera"]["pitch_deg"] = 170.0
    for roi in doc["rois"]:
        roi["pose"][2] += 180.0
    shutil.copy(SCENARIO_PATH.parent / doc["map"], tmp_path / doc["map"])
    scenario = tmp_path / "reversed.json"
    scenario.write_text(json.dumps(doc))
    cli.main(["run", "--scenario", str(scenario), "--condition", "B", "--seed", "0",
              "--out", str(tmp_path)])
    capsys.readouterr()
    assert cli.main(["show", str(tmp_path / "lab_study_B_seed0000.jsonl")]) == 0
    assert "rotate base by" in capsys.readouterr().out


def _first_action(record, kind):
    return next((a for a in record.get("actions", []) if a.get("kind") == kind), None)


@pytest.mark.parametrize(
    "match, edit, message",
    [
        (lambda r: r["kind"] == "event", lambda r: r["event"].pop("kind"), "missing key 'kind'"),
        (lambda r: _first_action(r, "speak"), lambda r: _first_action(r, "speak").pop("text"),
         "missing key 'text'"),
        (lambda r: _first_action(r, "align_gaze"),
         lambda r: _first_action(r, "align_gaze")["target"].pop(),
         "not enough values to unpack (expected 3, got 2)"),
    ],
    ids=["event_without_kind", "speak_without_text", "two_number_target"],
)
def test_show_rejects_a_valid_log_it_cannot_describe(run_logs, tmp_path, capsys,
                                                     match, edit, message):
    lines = (run_logs / "lab_study_B_seed0000.jsonl").read_text().splitlines()
    index = next(i for i, line in enumerate(lines[1:]) if match(json.loads(line)))
    record = json.loads(lines[index + 1])
    edit(record)
    lines[index + 1] = json.dumps(record)
    path = tmp_path / "edited.jsonl"
    path.write_text("\n".join(lines) + "\n")
    validate_log(read_log(path))  # the schema allows the edit; only show needs the field
    capsys.readouterr()
    assert cli.main(["show", str(path)]) == cli.EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"invalid log {path}: record {index}: cannot describe it: {message}\n"


@pytest.mark.parametrize("name", ["missing.jsonl", "."], ids=["missing", "directory"])
def test_show_unreadable_path_is_one_error_line(tmp_path, capsys, name):
    assert cli.main(["show", str(tmp_path / name)]) == cli.EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "contents, message",
    [
        ("", "empty log file"),
        ("[" * 200_000, "line 1: JSON nested too deeply"),
        ("1" + "0" * 5000, "line 1: integer too long to parse"),
    ],
    ids=["empty", "deeply_nested", "too_many_digits"],
)
def test_show_unparsable_log_names_its_path_once(tmp_path, capsys, contents, message):
    path = tmp_path / "bad.jsonl"
    path.write_text(contents)
    assert cli.main(["show", str(path)]) == cli.EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"invalid log {path}: {message}\n"


def test_show_to_a_closed_pipe_exits_quietly(run_logs):
    # `aansim show LOG | head -3`, made deterministic: the reader end of the
    # pipe is closed before the command writes its first line.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ)
    src = str(SCENARIO_PATH.parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "aansim.cli", "show",
             str(run_logs / "lab_study_B_seed0000.jsonl")],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_readme_aansim_commands_parse():
    commands, in_block = [], False
    for line in (SCENARIO_PATH.parent.parent / "README.md").read_text().splitlines():
        if line.startswith("```"):
            in_block = not in_block
        elif in_block and line.startswith("aansim "):
            commands.append(line)
    assert len(commands) >= 3
    parser = cli.build_parser()
    for line in commands:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")
