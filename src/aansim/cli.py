"""Command-line front end: run one episode, run paired batches, report on
saved logs, or show one saved log as a readable transcript.

Exit codes: 0 when the session completed (Done), 2 when it ended without
completion (Aborted or time cap), 1 for usage, scenario, log, questionnaire
or output errors.  Each error prints one line to stderr; ``main`` turns a
usage error, a ``ScenarioInvalid`` and an ``OSError`` (say, an unwritable
``--out`` or a missing log) into exit 1.  A closed stdout pipe exits 0.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from . import metrics as metrics_mod
from .episode import run_episode
from .scenario import ScenarioInvalid, load_scenario
from .session import CONDITIONS, LogInvalid, SessionLog, read_log, validate_log, write_log

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCOMPLETE = 2


def _int_at_least(lo: int):
    """An argparse type: an integer no smaller than ``lo``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be an integer >= {lo}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value: 'x'"
    return parse


nonnegative_int = _int_at_least(0)  # --seed, --seed-start
positive_int = _int_at_least(1)  # --seeds


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # a usage error: one line, then exit 1
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _log_name(scenario_name: str, condition: str, seed: int) -> str:
    return f"{scenario_name}_{condition}_seed{seed:04d}.jsonl"


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    result = run_episode(scenario, args.condition, args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / _log_name(scenario.name, args.condition, args.seed)
    write_log(result.log, log_path)
    m = metrics_mod.session_metrics(result.log)
    print(f"{scenario.name} condition {args.condition} seed {args.seed}: "
          f"{_outcome(m)}; log {log_path}")
    return EXIT_OK if m.completed else EXIT_INCOMPLETE


def _outcome(m: metrics_mod.SessionMetrics) -> str:
    status = "completed" if m.completed else "not completed"
    locate = "censored" if m.censored else f"{m.time_to_locate_s:.1f}s"
    return (f"{status}; time to locate {locate}; {m.interaction_rounds} interaction rounds; "
            f"{m.confusion_events} confusion events")


def _cmd_batch(args: argparse.Namespace) -> int:
    """Run conditions A and B for every seed; write each log, summary.csv and report.txt."""
    scenario = load_scenario(args.scenario)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    sessions = []
    for seed in range(args.seed_start, args.seed_start + args.seeds):
        for condition in CONDITIONS:
            result = run_episode(scenario, condition, seed)
            write_log(result.log, out_dir / _log_name(scenario.name, condition, seed))
            sessions.append(metrics_mod.session_metrics(result.log))
    metrics_mod.write_summary_csv(sessions, out_dir / "summary.csv")
    report = metrics_mod.render_report(sessions)
    (out_dir / "report.txt").write_text(report, encoding="utf-8")
    print(report, end="")
    print(f"\n{len(sessions)} sessions -> {out_dir}/summary.csv, {out_dir}/report.txt")
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    log_paths = sorted(Path(args.logs).glob("*.jsonl"))
    if not log_paths:
        print(f"no .jsonl logs under {args.logs}", file=sys.stderr)
        return EXIT_ERROR
    sessions = []
    key_log: dict[tuple[str, int], Path] = {}  # the log of each (condition, seed)
    for path in log_paths:
        try:
            log = read_log(path)
            validate_log(log)
        except LogInvalid as exc:
            print(f"invalid log {path}: {exc}", file=sys.stderr)
            return EXIT_ERROR
        if not key_log:
            scenario_hash = log.meta["scenario_hash"]  # every log must share the first's
        elif log.meta["scenario_hash"] != scenario_hash:
            print(f"error: {path} and {log_paths[0]} come from different scenarios; "
                  "report one scenario's logs at a time", file=sys.stderr)
            return EXIT_ERROR
        key = (log.meta["condition"], log.meta["seed"])
        if key in key_log:
            print(f"error: {path} repeats condition {key[0]} seed {key[1]} of {key_log[key]}",
                  file=sys.stderr)
            return EXIT_ERROR
        key_log[key] = path
        sessions.append(metrics_mod.session_metrics(log))

    questionnaires: dict[metrics_mod.Questionnaire, dict[str, list[tuple[float, ...]]]] = {}
    try:
        for spec, path in ((metrics_mod.TLX, args.tlx), (metrics_mod.USABILITY, args.usability)):
            if path:
                rows = questionnaires[spec] = {}
                for _participant, condition, values in spec.load(path):
                    rows.setdefault(condition, []).append(values)
    except (ValueError, OSError) as exc:
        print(f"questionnaire error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    report = metrics_mod.render_report(sessions, questionnaires)
    if args.out:
        Path(args.out).write_text(report, encoding="utf-8")
        print(f"report -> {args.out}")
    else:
        print(report, end="")
    return EXIT_OK


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


def _describe_record(record: dict) -> str:
    stamp = f"[{record['t']:7.1f}s]"
    if record["kind"] == "note":
        data = record.get("data", {})
        if record["note"] == "gaze_summary":
            detail = (f"{data['n_samples']} gaze samples, "
                      f"{len(data['confusion_events'])} confusion events")
        else:
            detail = ", ".join(f"{k}={v}" for k, v in data.items())
        return f"{stamp} ({record['note']}) {detail}"
    line = _describe_event(record["event"])
    acts = "; ".join(_describe_action(a) for a in record["actions"])
    robot = f" -> robot: {acts}" if acts else ""
    return f"{stamp} {line}{robot}  [{record['state']['phase']}]"


def _transcript(log: SessionLog) -> list[str]:
    """The log as readable lines: a header from its meta, one line per record
    and the outcome.  ``LogInvalid`` names a field that a line needs but lacks."""
    where, meta, rule = "meta", log.meta, "-" * 72
    try:
        lines = [f"{meta['scenario']} | condition {meta['condition']} | seed {meta['seed']} | "
                 f"bottle at {meta['bottle_roi']}", rule]
        for i, record in enumerate(log.records):
            where = f"record {i}"
            lines.append(_describe_record(record))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise LogInvalid(f"{where}: cannot describe it: {detail}") from exc
    return lines + [rule, _outcome(metrics_mod.session_metrics(log))]


def _cmd_show(args: argparse.Namespace) -> int:
    try:
        log = read_log(args.log)
        validate_log(log)
        lines = _transcript(log)
    except LogInvalid as exc:
        print(f"invalid log {args.log}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print("\n".join(lines))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="aansim",
        description="Deterministic desk-scale simulator for assist-as-needed "
        "medication guidance studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a single episode and write its log")
    p_run.add_argument("--scenario", required=True, help="scenario JSON file")
    p_run.add_argument("--condition", required=True, choices=CONDITIONS)
    p_run.add_argument("--seed", type=nonnegative_int, default=0)
    p_run.add_argument("--out", default="runs", help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_batch = sub.add_parser(
        "batch", help="run paired A/B episodes over a seed range and summarize"
    )
    p_batch.add_argument("--scenario", required=True)
    p_batch.add_argument("--seeds", type=positive_int, default=30, help="number of paired seeds")
    p_batch.add_argument("--seed-start", type=nonnegative_int, default=0)
    p_batch.add_argument("--out", default="runs")
    p_batch.set_defaults(func=_cmd_batch)

    p_report = sub.add_parser(
        "report", help="validate saved logs and render the condition comparison"
    )
    p_report.add_argument("--logs", required=True, help="directory of .jsonl logs")
    p_report.add_argument("--tlx", help="workload questionnaire CSV")
    p_report.add_argument("--usability", help="usability questionnaire CSV")
    p_report.add_argument("--out", help="write the report here instead of stdout")
    p_report.set_defaults(func=_cmd_report)

    p_show = sub.add_parser("show", help="print one saved log as a readable transcript")
    p_show.add_argument("log", help="a .jsonl session log")
    p_show.set_defaults(func=_cmd_show)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # a usage error or --help
        return exc.code
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except ScenarioInvalid as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
    except BrokenPipeError:
        # Point stdout at devnull so the flush at exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
    return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
