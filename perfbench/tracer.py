"""Span tracing of aansim's public functions, installed from outside the package.

The tracer replaces a module attribute (the name a caller looks up at call
time) with a wrapper that records one span per call: name, start, end, the
enclosing span and the episode it ran in.  Counts come only from the wrapped
call's arguments, return value or raised exception, so nothing inside the
simulator changes.  Spans stay in memory and are written out once at the end.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class Tracer:
    """In-memory span registry; spans are [name, start, end, parent, episode]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._episode: int | None = None
        self._episodes = 0

    def wrap(self, fn, name: str, observe=None, starts_episode: bool = False):
        def traced(*args, **kwargs):
            outer_episode = self._episode
            if starts_episode:
                self._episode = self._episodes
                self._episodes += 1
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self._episode]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            result = exc = None
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as raised:
                exc = raised
                raise
            finally:
                span[2] = perf_counter()
                self._stack.pop()
                self._episode = outer_episode
                if observe is not None:
                    observe(self.counts, args, result, exc)
            return result

        return traced

    @contextmanager
    def installed(self, targets):
        """Patch every (owner, attribute) in ``targets`` for the block's duration."""
        saved = []
        try:
            for owner, attr, name, observe, starts_episode in targets:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, observe, starts_episode))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, and self seconds."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        totals: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            t = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["s"] += end - start
            t["self_s"] += end - start - child_s[i]
        return totals

    def write(self, path: Path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        columns = {
            "name": [s[0] for s in self.spans],
            "start_s": [round(s[1] - t0, 9) for s in self.spans],
            "end_s": [round(s[2] - t0, 9) for s in self.spans],
            "parent": [s[3] for s in self.spans],
            "episode": [s[4] for s in self.spans],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(columns, separators=(",", ":")), encoding="utf-8")


def targets(sim) -> list[tuple]:
    """Wrap points: the module attribute each caller resolves at call time.

    ``sim`` holds the imported aansim modules.  Callers that imported a name
    directly (``episode`` takes ``orchestrator.step`` as ``orchestrator_step``;
    ``cli`` takes ``run_episode``, ``load_scenario`` and the session functions)
    are patched under that name.
    """

    def raised(kind, key):
        def observe(counts, args, result, exc):
            if isinstance(exc, kind):
                counts[key] += 1

        return observe

    def navigate(counts, args, result, exc):
        if result is not None and result.arrived:
            counts["navigate_to.arrived"] += 1

    def detect(counts, args, result, exc):
        if exc is not None:
            return
        if result is None:
            counts["detect.none"] += 1
        elif result.true_kind is sim.world.ObjectKind.PILL_BOTTLE:
            counts["detect.tp"] += 1
        else:
            counts["detect.fp"] += 1

    def kinematics(counts, args, result, exc):
        if result is not None and result[1]:
            counts["step_kinematics.collisions"] += 1

    def localize(counts, args, result, exc):
        if isinstance(exc, sim.geometry.GeometryError):
            counts["localize_target.errors"] += 1
        elif result is not None and result.mask.center_fallback:
            counts["localize_target.center_fallback"] += 1

    def gaze(counts, args, result, exc):
        if result is not None:
            counts["gaze_stream.sim_s"] += args[0].duration_s
            counts["gaze_stream.samples"] += len(result[0])
            counts["gaze_stream.injected_runs"] += len(result[1])

    def confusion(counts, args, result, exc):
        if result is not None:
            counts["detect_confusion.events"] += len(result)

    def respond(counts, args, result, exc):
        if result is not None and result.silent:
            counts["respond.silent"] += 1

    def write_log(counts, args, result, exc):
        if exc is None:
            counts["session.log_records"] += len(args[0].records)
            counts["session.log_bytes"] += Path(args[1]).stat().st_size

    def episode(counts, args, result, exc):
        if result is not None:
            counts["episode.sim_s"] += result.log.end_time

    nav, world, cli = sim.navigation, sim.world, sim.cli
    return [
        (nav, "dwa_step", "navigation.dwa_step", raised(nav.AllBlocked, "dwa_step.all_blocked"), False),
        (nav, "plan_global", "navigation.plan_global", raised(nav.NavigationError, "plan_global.no_path"), False),
        (nav, "build_costmap", "navigation.build_costmap", None, False),
        (nav, "navigate_to", "navigation.navigate_to", navigate, False),
        (world, "render_depth_ids", "world.render_depth_ids", None, False),
        (world, "detect", "world.detect", detect, False),
        (world, "step_kinematics", "world.step_kinematics", kinematics, False),
        (sim.geometry, "localize_target", "geometry.localize_target", localize, False),
        (sim.episode, "orchestrator_step", "orchestrator.step", None, False),
        (sim.usersim, "gaze_stream", "usersim.gaze_stream", gaze, False),
        (sim.usersim, "detect_confusion", "usersim.detect_confusion", confusion, False),
        (sim.usersim, "respond", "usersim.respond", respond, False),
        (cli, "write_log", "session.write_log", write_log, False),
        (cli, "read_log", "session.read_log", None, False),
        (cli, "validate_log", "session.validate_log", None, False),
        (sim.metrics, "session_metrics", "metrics.session_metrics", None, False),
        (sim.metrics, "render_report", "metrics.render_report", None, False),
        (sim.scenario, "load_scenario", "scenario.load_scenario", None, False),
        (cli, "load_scenario", "scenario.load_scenario", None, False),
        (sim.seeding, "stream", "seeding.stream", None, False),
        (sim.episode, "run_episode", "episode.run_episode", episode, True),
        (cli, "run_episode", "episode.run_episode", episode, True),
        (cli, "_cmd_batch", "cli.batch", None, False),
    ]


def layer_metrics(tracer: Tracer, overhead_pct: float) -> dict[str, float]:
    """Per-layer values by metric name, from the spans and counts of one traced pass."""
    totals = tracer.layer_totals()
    counts = tracer.counts

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def mean_ms(name, key="s"):
        t = totals.get(name)
        return 1e3 * t[key] / t["calls"] if t else 0.0

    def per_sim_s(name):
        sim_s = counts["gaze_stream.sim_s"]
        return 1e3 * totals[name]["s"] / sim_s if name in totals and sim_s else 0.0

    nav_calls = calls("navigation.navigate_to")
    return {
        "navigation.dwa_step.ms": mean_ms("navigation.dwa_step"),
        "navigation.dwa_step.calls": calls("navigation.dwa_step"),
        "navigation.dwa_step.all_blocked": counts["dwa_step.all_blocked"],
        "navigation.plan_global.ms": mean_ms("navigation.plan_global"),
        "navigation.plan_global.calls": calls("navigation.plan_global"),
        "navigation.plan_global.no_path": counts["plan_global.no_path"],
        "navigation.build_costmap.ms": mean_ms("navigation.build_costmap"),
        "navigation.navigate_to.self_ms": mean_ms("navigation.navigate_to", "self_s"),
        "navigation.navigate_to.arrived_ratio": (
            counts["navigate_to.arrived"] / nav_calls if nav_calls else 0.0
        ),
        "world.render_depth_ids.ms": mean_ms("world.render_depth_ids"),
        "world.render_depth_ids.calls": calls("world.render_depth_ids"),
        "world.detect.self_ms": mean_ms("world.detect", "self_s"),
        "world.detect.tp": counts["detect.tp"],
        "world.detect.fp": counts["detect.fp"],
        "world.detect.none": counts["detect.none"],
        "world.step_kinematics.ms": mean_ms("world.step_kinematics"),
        "world.step_kinematics.calls": calls("world.step_kinematics"),
        "world.step_kinematics.collisions": counts["step_kinematics.collisions"],
        "geometry.localize_target.ms": mean_ms("geometry.localize_target"),
        "geometry.localize_target.center_fallback": counts["localize_target.center_fallback"],
        "geometry.localize_target.errors": counts["localize_target.errors"],
        "orchestrator.step.ms": mean_ms("orchestrator.step"),
        "orchestrator.step.calls": calls("orchestrator.step"),
        "usersim.gaze_stream.ms_per_sim_s": per_sim_s("usersim.gaze_stream"),
        "usersim.gaze_stream.samples": counts["gaze_stream.samples"],
        "usersim.gaze_stream.injected_runs": counts["gaze_stream.injected_runs"],
        "usersim.detect_confusion.ms_per_sim_s": per_sim_s("usersim.detect_confusion"),
        "usersim.detect_confusion.events": counts["detect_confusion.events"],
        "usersim.respond.calls": calls("usersim.respond"),
        "usersim.respond.silent": counts["respond.silent"],
        "session.write_log.ms": mean_ms("session.write_log"),
        "session.read_log.ms": mean_ms("session.read_log"),
        "session.validate_log.ms": mean_ms("session.validate_log"),
        "session.log_records": counts["session.log_records"],
        "session.log_bytes": counts["session.log_bytes"],
        "metrics.session_metrics.ms": mean_ms("metrics.session_metrics"),
        "metrics.render_report.ms": mean_ms("metrics.render_report"),
        "scenario.load_scenario.ms": mean_ms("scenario.load_scenario"),
        "seeding.stream.calls": calls("seeding.stream"),
        "episode.run_episode.self_ms": mean_ms("episode.run_episode", "self_s"),
        "episode.sim_s": counts["episode.sim_s"],
        "cli.batch.self_ms": mean_ms("cli.batch", "self_s"),
        "trace.overhead_pct": overhead_pct,
    }


def fingerprint(tracer: Tracer) -> dict[str, float]:
    """Exact counts of one traced pass: call counts per layer plus observed counts."""
    out = {f"{name}.calls": t["calls"] for name, t in sorted(tracer.layer_totals().items())}
    out.update(sorted(tracer.counts.items()))
    return out
