"""Canonical, replay-stable session logs.

A session log is one JSON object per line: the first line is episode
metadata, each following line is a timestamped record (an orchestrator
event with the actions and state it produced, or a free-form simulator
note).  Serialization is canonical — sorted keys, fixed separators, no
wall-clock stamps — so identical (scenario, condition, seed) runs produce
byte-identical files.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

LOG_FORMAT = "aansim-log/1"
CONDITIONS = ("A", "B")  # hands-off hints, full guidance

_META_REQUIRED = ("format", "condition", "seed", "scenario_hash", "profile")
_RECORD_REQUIRED = ("t", "kind")
_RECORD_KINDS = ("event", "note")


class LogInvalid(ValueError):
    """A session log violates the record schema; the message pinpoints where."""


@dataclass
class SessionLog:
    meta: dict
    records: list[dict] = field(default_factory=list)

    def add_event(
        self,
        t: float,
        event: dict,
        actions: list[dict],
        state: dict,
    ) -> None:
        self.records.append(
            {
                "t": float(t),
                "kind": "event",
                "event": event,
                "actions": actions,
                "state": state,
            }
        )

    def add_note(self, t: float, text: str, **data) -> None:
        record = {"t": float(t), "kind": "note", "note": text}
        if data:
            record["data"] = data
        self.records.append(record)

    @property
    def end_time(self) -> float:
        return self.records[-1]["t"] if self.records else 0.0


def _dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def write_log(log: SessionLog, path: str | Path) -> None:
    lines = [_dumps(log.meta)]
    lines.extend(_dumps(r) for r in log.records)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_log(path: str | Path) -> SessionLog:
    """Parse a log file.  ``LogInvalid`` numbers lines as the file does, blank
    ones included, and leaves naming the path to the caller."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise LogInvalid(f"not UTF-8 text at byte {exc.start}") from exc
    objects = []
    for number, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            objects.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise LogInvalid(f"line {number}: not valid JSON") from exc
        except RecursionError as exc:
            raise LogInvalid(f"line {number}: JSON nested too deeply") from exc
        except ValueError as exc:  # an integer past the interpreter's digit limit
            raise LogInvalid(f"line {number}: integer too long to parse") from exc
    if not objects:
        raise LogInvalid("empty log file")
    return SessionLog(meta=objects[0], records=objects[1:])


def validate_log(log: SessionLog) -> None:
    """Check structural invariants; raises LogInvalid naming the bad record."""
    if not isinstance(log.meta, dict):
        raise LogInvalid("meta line must be a JSON object")
    for key in _META_REQUIRED:
        if key not in log.meta:
            raise LogInvalid(f"meta: missing key {key!r}")
    if log.meta["format"] != LOG_FORMAT:
        raise LogInvalid(
            f"meta: unsupported format {log.meta['format']!r}, expected {LOG_FORMAT!r}"
        )
    seed = log.meta["seed"]
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise LogInvalid(f"meta: 'seed' must be an integer, got {seed!r}")
    condition, profile = log.meta["condition"], log.meta["profile"]
    if condition not in CONDITIONS:
        raise LogInvalid(f"meta: 'condition' must be one of {CONDITIONS}, got {condition!r}")
    if not isinstance(profile, str) or not profile:
        raise LogInvalid(f"meta: 'profile' must be a non-empty string, got {profile!r}")
    prev_t = -float("inf")
    for i, record in enumerate(log.records):
        where = f"record {i}"
        if not isinstance(record, dict):
            raise LogInvalid(f"{where}: must be a JSON object")
        for key in _RECORD_REQUIRED:
            if key not in record:
                raise LogInvalid(f"{where}: missing key {key!r}")
        t = record["t"]
        # Also false for NaN, infinities and integers beyond the float range.
        within = isinstance(t, (int, float)) and abs(t) <= sys.float_info.max
        if not within or isinstance(t, bool):
            raise LogInvalid(f"{where}: 't' must be a finite number, got {t!r}")
        if t < prev_t - 1e-9:
            raise LogInvalid(f"{where}: time {t} runs backward (previous {prev_t})")
        prev_t = max(prev_t, float(t))
        kind = record["kind"]
        if kind not in _RECORD_KINDS:
            raise LogInvalid(f"{where}: unknown kind {kind!r}")
        if kind == "event":
            for key in ("event", "actions", "state"):
                if key not in record:
                    raise LogInvalid(f"{where}: event records need key {key!r}")
            if not isinstance(record["actions"], list):
                raise LogInvalid(f"{where}: 'actions' must be a list")
            for key in ("event", "state"):
                if not isinstance(record[key], dict):
                    raise LogInvalid(f"{where}: {key!r} must be a JSON object")
            if not all(isinstance(a, dict) for a in record["actions"]):
                raise LogInvalid(f"{where}: each action must be a JSON object")
        elif "note" not in record:
            raise LogInvalid(f"{where}: note records need key 'note'")
        elif record["note"] == "gaze_summary":  # the report counts its confusion events
            data = record.get("data")
            if not isinstance(data, dict) or not isinstance(data.get("confusion_events"), list):
                raise LogInvalid(f"{where}: gaze_summary needs a 'data.confusion_events' list")
