"""End-to-end episode engine.

``run_episode`` plays one medication-assistance session to completion: it
places the bottle, builds the world, and pumps events between the user
model, the navigation stack, and the guidance orchestrator on a shared
simulated clock.  ``_Engine.apply`` alone reads the actions the policy
emits and carries them out; the search visits only the location the last
``navigate_to`` names.  Everything stochastic draws from named per-seed
streams, so a (scenario, condition, seed) triple replays byte-identically.
The result carries the canonical session log; the confusion events detected
in the synthesized gaze stream are in its ``gaze_summary`` note.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import navigation, seeding, usersim
from .orchestrator import (
    ActionKind,
    AssistEvent,
    GuidanceStep,
    OrchestratorConfig,
    OrchestratorState,
    Phase,
    initial_state,
    step as orchestrator_step,
)
from .scenario import Scenario
from .session import LOG_FORMAT, SessionLog
from .usersim import GazeTimeline, GazeWindow, Prompt
from .world import RegionOfInterest

_ATTENTION_SPAN_S = 4.0
_BOTTLE_SPAN_S = 8.0
_ACTION_TO_CONFIRM_S = 1.0


@dataclass
class EpisodeResult:
    log: SessionLog


@dataclass
class _Engine:
    """Mutable episode context shared by the pump loops."""

    scenario: Scenario
    config: OrchestratorConfig
    state: OrchestratorState
    clock: navigation.Clock
    log: SessionLog
    windows: list[GazeWindow] = field(default_factory=list)
    action_times: list[float] = field(default_factory=list)
    directed: RegionOfInterest | None = None  # the last navigate_to's ROI until _search visits it

    def apply(self, event: AssistEvent) -> None:
        """Step the policy on ``event``, log the record and carry out its actions."""
        self.state, actions = orchestrator_step(self.state, event, self.config)
        self.log.add_event(
            event.t,
            event=event.describe(),
            actions=[a.describe() for a in actions],
            state=self.state.describe(),
        )
        if actions:
            self.action_times.append(event.t)
        spoke = False
        for action in actions:
            if action.kind is ActionKind.SPEAK and not spoke:
                spoke = True
                self.windows.append(GazeWindow("attention", event.t, event.t + _ATTENTION_SPAN_S))
            elif action.kind is ActionKind.NAVIGATE_TO:
                self.directed = next(r for r in self.scenario.rois if r.id == action.payload["roi"])
            elif action.kind is ActionKind.ALIGN_GAZE:
                # Gaze alignment plus the deictic gesture take real time.
                self.clock.advance(self.scenario.session.gesture_time_s)
                self.windows.append(GazeWindow("bottle", event.t, event.t + _BOTTLE_SPAN_S))

    def advance_to(self, t: float) -> None:
        self.clock.advance(t - self.clock.t)


def _run_passive(engine: _Engine, user_rng) -> None:
    """Condition A: the user searches alone, asking for hints now and then."""
    profile = engine.scenario.profile
    cap = engine.scenario.session.time_cap_s
    hint_interval = engine.scenario.session.hint_interval_s
    engine.apply(AssistEvent.schedule_due(engine.clock.t))
    search_s = usersim.search_behavior(profile, user_rng, guided=False)
    search_end = min(search_s, cap)

    t_hint = hint_interval
    while t_hint < search_end:
        engine.advance_to(t_hint)
        engine.apply(
            AssistEvent.record_pressed(engine.clock.t, "where is my medicine?")
        )
        window_start = t_hint + _ATTENTION_SPAN_S + 1.0
        window_end = min(t_hint + hint_interval - 1.0, search_end)
        if window_end - window_start > 8.0:
            engine.windows.append(
                GazeWindow("confusion_candidate", window_start, window_end)
            )
        t_hint += hint_interval

    if search_s > cap:
        # The bottle was never found inside the session window.
        engine.advance_to(cap)
        engine.log.add_note(engine.clock.t, "time_cap_reached", cap_s=cap)
        return
    engine.advance_to(search_end)
    engine.apply(
        AssistEvent.user_action(engine.clock.t, usersim.UserActionKind.LOOKS_AT_BOTTLE)
    )
    engine.windows.append(
        GazeWindow("bottle", engine.clock.t, engine.clock.t + _BOTTLE_SPAN_S)
    )
    engine.clock.advance(2.0)
    engine.apply(
        AssistEvent.user_action(engine.clock.t, usersim.UserActionKind.OPENS_BOTTLE)
    )


def _search(engine: _Engine, nav_session: navigation.NavSession) -> None:
    """Visit each location a ``navigate_to`` directs; the policy ends the
    search on a find, or with an abort after the last location."""
    while engine.state.phase in (Phase.NAVIGATING, Phase.SCANNING):
        roi, engine.directed = engine.directed, None
        engine.apply(navigation.visit_roi(nav_session, roi))


def _run_guided(
    engine: _Engine, seed: int, condition: str, user_rng, bottle_index: int
) -> None:
    """Condition B: reminder, search, then step-by-step guidance."""
    sc = engine.scenario
    profile = sc.profile
    timeout = sc.session.timeout_s
    cap = sc.session.time_cap_s

    nav_session = navigation.NavSession(
        scenario=sc,
        scene=sc.build_scene(bottle_index),
        robot=sc.robot_state(),
        clock=engine.clock,
        detector_rng=seeding.stream(seed, condition, "detector"),
        depth_noise_rng=seeding.stream(seed, condition, "depth_noise"),
        pose_noise_rng=seeding.stream(seed, condition, "pose_noise"),
        log=engine.log,
    )

    engine.apply(AssistEvent.schedule_due(engine.clock.t))

    while not engine.state.terminal and engine.clock.t < cap:
        phase = engine.state.phase
        if phase in (Phase.NAVIGATING, Phase.SCANNING):
            _search(engine, nav_session)
            continue
        level = int(engine.state.assist_level)
        # Each reply adds one to exactly one of the two counts, or moves the
        # policy to a new phase, step or level, which resets both.
        attempt = engine.state.repeat_count + engine.state.failure_count
        if phase is Phase.REMINDING:
            prompt = Prompt(level, attempt=attempt)
        else:
            # A guided IDLE always leaves on SCHEDULE_DUE, so no other phase is live here.
            assert phase in (Phase.STEP_GUIDANCE, Phase.AWAITING_FINAL_CONFIRM), phase
            prompt = Prompt(level, step=engine.state.step, attempt=attempt)

        reply = usersim.respond(profile, prompt, user_rng)
        if reply.silent:
            t0 = engine.clock.t
            engine.windows.append(
                GazeWindow("confusion_candidate", t0 + 2.0, t0 + timeout - 1.0)
            )
            engine.clock.advance(timeout)
            engine.apply(AssistEvent.timeout(engine.clock.t, phase))
        elif reply.pressed_start:
            engine.clock.advance(reply.latency_s)
            engine.apply(AssistEvent.start_navigation(engine.clock.t))
        elif reply.action is None:
            engine.clock.advance(reply.latency_s)
            engine.apply(
                AssistEvent.record_pressed(engine.clock.t, reply.transcript or "")
            )
        else:
            locating = prompt.step is GuidanceStep.LOCATE_BOTTLE
            latency = reply.latency_s
            if locating:
                latency = usersim.search_behavior(profile, user_rng, guided=True)
            engine.clock.advance(latency)
            engine.apply(AssistEvent.user_action(engine.clock.t, reply.action))
            if locating:
                engine.windows.append(
                    GazeWindow("bottle", engine.clock.t, engine.clock.t + _BOTTLE_SPAN_S)
                )
            engine.clock.advance(_ACTION_TO_CONFIRM_S)
            engine.apply(
                AssistEvent.record_pressed(engine.clock.t, reply.transcript or "")
            )

    if not engine.state.terminal:
        engine.log.add_note(engine.clock.t, "time_cap_reached", cap_s=cap)


def run_episode(scenario: Scenario, condition: str, seed: int) -> EpisodeResult:
    """Simulate one full session under one condition, A or B, with one seed."""
    placement_rng = seeding.stream(seed, None, "placement")
    bottle_index = usersim.choose_bottle_roi(
        len(scenario.rois), scenario.profile, placement_rng
    )

    config = scenario.orchestrator_config(condition)
    log = SessionLog(
        meta={
            "format": LOG_FORMAT,
            "scenario": scenario.name,
            "scenario_hash": scenario.scenario_hash,
            "condition": condition,
            "seed": int(seed),
            "profile": scenario.profile.name,
            "bottle_roi": scenario.rois[bottle_index].id,
        }
    )
    engine = _Engine(
        scenario=scenario,
        config=config,
        state=initial_state(config),
        clock=navigation.Clock(0.0),
        log=log,
    )
    user_rng = seeding.stream(seed, condition, "user")

    if condition == "A":
        _run_passive(engine, user_rng)
    else:
        _run_guided(engine, seed, condition, user_rng, bottle_index)

    duration = engine.clock.t + 1.0
    gaze_rng = seeding.stream(seed, condition, "gaze")
    codes, inserted = usersim.gaze_stream(
        GazeTimeline(duration_s=duration, windows=tuple(engine.windows)),
        scenario.profile,
        gaze_rng,
    )
    confusion = usersim.detect_confusion(codes, engine.action_times)
    log.add_note(
        duration,
        "gaze_summary",
        n_samples=len(codes),
        inserted_runs=[[round(a, 6), round(b, 6)] for a, b in inserted],
        confusion_events=[[round(e.t_start, 6), round(e.t_end, 6)] for e in confusion],
    )
    return EpisodeResult(log=log)
