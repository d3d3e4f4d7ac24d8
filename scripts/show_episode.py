#!/usr/bin/env python3
"""Replay one episode and print it as a human-readable transcript.

Every logged event becomes one line: what happened, what the robot said or
did in response, and the orchestrator phase afterwards.  Useful for eyeballing
a seed before including it in a study batch.

Usage:
    python3 scripts/show_episode.py --condition B --seed 0
"""

from __future__ import annotations

import argparse
import sys

from aansim import cli, metrics
from aansim.episode import run_episode
from aansim.scenario import load_scenario


def _describe_action(action: dict) -> str:
    kind = action["kind"]
    if kind == "speak":
        return f'say "{action["text"]}"'
    if kind == "navigate_to":
        return f"navigate to {action['roi']}"
    if kind == "gesture":
        return f"gesture:{action['gesture']}"
    if kind == "align_gaze":
        x, y, z = action["target"]
        return f"look at ({x:.2f}, {y:.2f}, {z:.2f})"
    if kind == "reposition":
        return f"back up {action['back_up']:.1f}m"
    if kind == "rotate_base":
        return f"rotate base by {action['angle']:.2f}rad"
    return kind


def _describe_event(event: dict) -> str:
    kind = event["kind"]
    if kind == "record_pressed":
        return f'user says "{event["transcript"]}"'
    if kind == "user_action":
        return f"user {event['action'].replace('_', ' ')}"
    if kind == "timeout":
        return "silence (timeout)"
    if kind == "found":
        return f"bottle spotted at {event['roi']}"
    if kind == "miss":
        return f"nothing at {event['roi']}"
    return kind.replace("_", " ")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", default="scenarios/lab_study.json")
    parser.add_argument("--condition", default="B", choices=cli.CONDITIONS)
    parser.add_argument("--seed", type=cli.nonnegative_int, default=0)
    return cli.guarded(_show, parser.parse_args(argv))


def _show(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    result = run_episode(scenario, args.condition, args.seed)
    print(
        f"{scenario.name} | condition {args.condition} | seed {args.seed} | "
        f"bottle at {result.log.meta['bottle_roi']}"
    )
    print("-" * 72)
    for record in result.log.records:
        t = record["t"]
        if record["kind"] == "note":
            data = record.get("data", {})
            if record["note"] == "gaze_summary":
                detail = (
                    f"{data['n_samples']} gaze samples, "
                    f"{len(data['confusion_events'])} confusion events"
                )
            else:
                detail = ", ".join(f"{k}={v}" for k, v in data.items())
            print(f"[{t:7.1f}s] ({record['note']}) {detail}")
            continue
        line = _describe_event(record["event"])
        acts = "; ".join(_describe_action(a) for a in record["actions"])
        phase = record["state"]["phase"]
        if acts:
            print(f"[{t:7.1f}s] {line} -> robot: {acts}  [{phase}]")
        else:
            print(f"[{t:7.1f}s] {line}  [{phase}]")
    print("-" * 72)
    sm = metrics.session_metrics(result.log)
    status = "completed" if sm.completed else "not completed"
    locate = "censored" if sm.censored else f"{sm.time_to_locate_s:.1f}s"
    print(
        f"{status}; time to locate {locate}; {sm.interaction_rounds} interaction "
        f"rounds; {sm.confusion_events} confusion events"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
