import json

import pytest

from aansim import session as sess
from aansim.session import LogInvalid, SessionLog


def make_log():
    log = SessionLog(
        meta={
            "format": sess.LOG_FORMAT,
            "condition": "B",
            "seed": 12,
            "scenario_hash": "abc123",
            "profile": "misplaces",
        }
    )
    log.add_event(
        0.0,
        {"kind": "schedule_due"},
        [{"kind": "speak", "text": "Time to take your medicine, follow me!"}],
        {"phase": "reminding", "assist_level": 3},
    )
    log.add_note(0.5, "planner", waypoints=4, cost=1.25)
    log.add_event(
        5.0,
        {"kind": "start_navigation_pressed"},
        [{"kind": "navigate_to", "roi": "kitchen_counter"}],
        {"phase": "navigating", "assist_level": 3},
    )
    return log


def test_round_trip_preserves_everything(tmp_path):
    log = make_log()
    path = tmp_path / "run.jsonl"
    sess.write_log(log, path)
    back = sess.read_log(path)
    assert back.meta == log.meta
    assert back.records == log.records
    sess.validate_log(back)


def test_log_lines_are_canonical_json(tmp_path):
    log = make_log()
    path = tmp_path / "run.jsonl"
    sess.write_log(log, path)
    raw = path.read_text()
    assert raw.endswith("\n")
    lines = raw.splitlines()
    assert len(lines) == 1 + len(log.records)
    for line in lines:
        obj = json.loads(line)
        assert json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False) == line


def test_end_time_tracks_last_record():
    log = make_log()
    assert log.end_time == 5.0


def test_validate_rejects_missing_meta_key():
    log = make_log()
    del log.meta["scenario_hash"]
    with pytest.raises(LogInvalid) as exc:
        sess.validate_log(log)
    assert "scenario_hash" in str(exc.value)


@pytest.mark.parametrize("seed", ["x", 12.0, True])
def test_validate_rejects_seed_that_is_not_an_int(seed):
    log = make_log()
    log.meta["seed"] = seed
    with pytest.raises(LogInvalid) as exc:
        sess.validate_log(log)
    assert "'seed' must be an integer" in str(exc.value)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("condition", 5, "'condition' must be one of ('A', 'B'), got 5"),
        ("condition", "C", "'condition' must be one of ('A', 'B'), got 'C'"),
        ("profile", 5, "'profile' must be a non-empty string, got 5"),
        ("profile", "", "'profile' must be a non-empty string, got ''"),
        ("profile", None, "'profile' must be a non-empty string, got None"),
    ],
)
def test_validate_rejects_unknown_condition_or_empty_profile(key, value, message):
    log = make_log()
    log.meta[key] = value
    with pytest.raises(LogInvalid) as exc:
        sess.validate_log(log)
    assert message in str(exc.value)


def test_validate_rejects_wrong_format_tag():
    log = make_log()
    log.meta["format"] = "something-else/9"
    with pytest.raises(LogInvalid):
        sess.validate_log(log)


def test_validate_rejects_nonmonotone_time():
    log = make_log()
    log.add_event(4.0, {"kind": "timeout"}, [], {"phase": "navigating", "assist_level": 3})
    with pytest.raises(LogInvalid) as exc:
        sess.validate_log(log)
    assert "record 3" in str(exc.value)


def test_validate_names_offending_record():
    log = make_log()
    log.records[1] = {"t": 0.5, "kind": "note"}  # drop the required text field
    with pytest.raises(LogInvalid) as exc:
        sess.validate_log(log)
    assert "record 1" in str(exc.value)


@pytest.mark.parametrize("t", [float("nan"), float("inf"), True, "1.0"])
def test_validate_rejects_time_that_is_not_a_finite_number(t):
    log = make_log()
    log.records.append({"t": t, "kind": "note", "note": "late"})
    with pytest.raises(LogInvalid) as exc:
        sess.validate_log(log)
    assert "record 3: 't' must be a finite number" in str(exc.value)


def test_validate_rejects_unknown_record_kind():
    log = make_log()
    log.records.append({"t": 9.0, "kind": "telemetry"})
    with pytest.raises(LogInvalid):
        sess.validate_log(log)


def test_read_rejects_truncated_file(tmp_path):
    log = make_log()
    path = tmp_path / "run.jsonl"
    sess.write_log(log, path)
    raw = path.read_text().splitlines()
    path.write_text("\n".join(raw)[: -10] + "\n")
    with pytest.raises(LogInvalid):
        sess.read_log(path)


def test_read_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(LogInvalid):
        sess.read_log(path)


def test_read_numbers_the_bad_line_as_the_file_does(tmp_path):
    # Each line is parsed on its own, so the decoder alone would say line 1;
    # the blank second line still counts.
    log = make_log()
    path = tmp_path / "run.jsonl"
    sess.write_log(log, path)
    meta, first, *_ = path.read_text().splitlines()
    path.write_text(f"{meta}\n\n{first}\n{{not json\n")
    with pytest.raises(LogInvalid) as exc:
        sess.read_log(path)
    assert str(exc.value) == "line 4: not valid JSON"


def test_read_splits_records_only_at_newlines(tmp_path):
    # write_log keeps U+2028 raw (ensure_ascii=False); str.splitlines cuts there.
    log = make_log()
    log.add_note(9.0, "line\u2028separator")
    path = tmp_path / "run.jsonl"
    sess.write_log(log, path)
    assert sess.read_log(path).records == log.records


@pytest.mark.parametrize(
    "field, value",
    [("event", 1), ("state", []), ("actions", ["speak"])],
)
def test_validate_rejects_event_parts_that_are_not_objects(field, value):
    # {"t":0,"kind":"event","event":1,"actions":[],"state":{}} once passed and
    # then crashed session_metrics.
    log = make_log()
    record = {"t": 9.0, "kind": "event", "event": {}, "actions": [], "state": {}}
    record[field] = value
    log.records.append(record)
    with pytest.raises(LogInvalid) as exc:
        sess.validate_log(log)
    assert "record 3" in str(exc.value)


def test_read_rejects_non_utf8_file(tmp_path):
    path = tmp_path / "latin1.jsonl"
    path.write_bytes(b'{"format": "caf\xe9"}\n')
    with pytest.raises(LogInvalid) as exc:
        sess.read_log(path)
    assert "UTF-8" in str(exc.value)
