#!/usr/bin/env python3
"""Run the paired two-condition study and print a directional analysis.

For every seed the same misplacement draw is replayed under condition A
(hands-off hints) and condition B (full guidance), so each pair differs only
in the robot's behavior.  The script writes one log per session plus
summary.csv and report.txt, then prints paired statistics: medians, per-pair
sign agreement, completion rates, and confusion-event counts.

Usage:
    python3 scripts/run_study.py --scenario scenarios/lab_study.json \
        --seeds 30 --out runs/study
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path

from aansim import cli, metrics
from aansim.scenario import load_scenario


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", default="scenarios/lab_study.json")
    parser.add_argument("--seeds", type=cli.positive_int, default=30, help="number of paired seeds")
    parser.add_argument("--seed-start", type=cli.nonnegative_int, default=0)
    parser.add_argument("--out", default="runs/study", help="output directory")
    return cli.guarded(_study, parser.parse_args(argv))


def _study(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    out_dir = Path(args.out)
    sessions, confusion_counts, report = cli.run_batch(
        scenario, range(args.seed_start, args.seed_start + args.seeds), out_dir
    )
    pairs: dict[int, dict[str, metrics.SessionMetrics]] = {}
    confusion: dict[str, list[int]] = {c: [] for c in cli.CONDITIONS}
    for sm, count in zip(sessions, confusion_counts):
        pairs.setdefault(sm.seed, {})[sm.condition] = sm
        confusion[sm.condition].append(count)
    for pair in pairs.values():
        a, b = pair["A"], pair["B"]
        print(
            f"seed {a.seed:3d}: locate {a.time_to_locate_s:6.1f}s -> "
            f"{b.time_to_locate_s:6.1f}s   rounds {a.interaction_rounds} -> "
            f"{b.interaction_rounds}"
        )

    print()
    print(report, end="")
    print()
    print("paired analysis")
    print("---------------")
    faster = sum(1 for p in pairs.values() if p["B"].time_to_locate_s < p["A"].time_to_locate_s)
    chattier = sum(
        1 for p in pairs.values() if p["B"].interaction_rounds > p["A"].interaction_rounds
    )
    n = len(pairs)
    for cond in cli.CONDITIONS:
        mine = [s for s in sessions if s.condition == cond]
        med_t = statistics.median(s.time_to_locate_s for s in mine)
        med_r = statistics.median(s.interaction_rounds for s in mine)
        done = sum(1 for s in mine if s.completed)
        med_c = statistics.median(confusion[cond])
        print(
            f"condition {cond}: median locate {med_t:6.1f}s, median rounds "
            f"{med_r:.1f}, completed {done}/{len(mine)}, median confusion "
            f"events {med_c:.1f}"
        )
    print(f"guidance located the bottle faster in {faster}/{n} pairs")
    print(f"guidance used more interaction rounds in {chattier}/{n} pairs")
    print(f"\nlogs and tables -> {out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
