"""End-to-end episode engine.

``run_episode`` plays one medication-assistance session to completion: it
places the bottle, builds the world, and pumps events between the user
model, the navigation stack, and the guidance orchestrator on one simulated
clock, which only ``_Engine.advance`` moves.  ``_Engine.apply`` alone reads
the actions the policy emits and carries them out; the search visits only
the location the last ``navigate_to`` names.  Everything stochastic draws
from named per-seed streams, so a (scenario, condition, seed) triple
replays byte-identically.
The result carries the canonical session log; the confusion events detected
in the synthesized gaze stream are in its ``gaze_summary`` note.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import geometry, navigation, seeding, usersim, world
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
from .world import RegionOfInterest, RobotState, Scene

_ATTENTION_SPAN_S = 4.0
_BOTTLE_SPAN_S = 8.0
_ACTION_TO_CONFIRM_S = 1.0


@dataclass
class EpisodeResult:
    log: SessionLog


@dataclass
class _Engine:
    """Mutable episode context shared by the pump loops: the clock ``t``,
    the policy state and log, and under condition B the scene, the robot and
    its three noise streams (None under A, which never moves the robot)."""

    scenario: Scenario  # its costmap is also the collision grid
    config: OrchestratorConfig
    state: OrchestratorState
    log: SessionLog
    t: float = field(default=0.0, init=False)
    windows: list[GazeWindow] = field(default_factory=list)
    action_times: list[float] = field(default_factory=list)
    directed: RegionOfInterest | None = None  # the last navigate_to's ROI until _search visits it
    scene: Scene | None = None
    robot: RobotState | None = None
    detector_rng: np.random.Generator | None = None
    depth_noise_rng: np.random.Generator | None = None
    pose_noise_rng: np.random.Generator | None = None

    def advance(self, dt: float) -> None:
        self.t += dt

    def advance_to(self, t: float) -> None:
        self.advance(t - self.t)

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
                self.advance(self.scenario.session.gesture_time_s)
                self.windows.append(GazeWindow("bottle", event.t, event.t + _BOTTLE_SPAN_S))

    def drive(self, goal_pose: tuple[float, float, float]) -> navigation.NavResult:
        """Drive the robot to a goal pose (see ``navigation.navigate_to``) and
        return the leg: the clock advances by ``dt`` once per tick, each
        ``recovery_spin`` note lands at the tick it was recorded at, and the
        robot takes the leg's end pose and velocities."""
        leg = navigation.navigate_to(self.scenario, self.robot, goal_pose, self.pose_noise_rng)
        dt = self.scenario.session.dt
        for tick in range(leg.ticks):
            if tick in leg.spins:
                self.log.add_note(self.t, "recovery_spin")
            self.advance(dt)
        x, y, heading, v, omega = leg.end
        self.robot = replace(self.robot, x=x, y=y, heading=heading, v=v, omega=omega)
        return leg

    def visit(self, roi: RegionOfInterest) -> AssistEvent:
        """Drive to one search location, sweep the head, and report the outcome.

        The head visits each ``world.PAN_SCHEDULE`` angle at most once, on a
        copy of the robot (whose own pan stays as it is), until the detector
        fires; each frame first advances the clock by ``frame_time_s``.  A
        fire is localized from the depth of its box's pixels, the only ones
        localization reads, with depth noise added.  Returns a
        roi_unreachable, miss or found event at the clock's time; a found
        event carries the bottle as a base-frame (3,) point.
        """
        self.log.add_note(self.t, "navigating", roi=roi.id)
        nav = self.drive(roi.pose)
        if not nav.arrived:
            self.log.add_note(self.t, "unreachable", roi=roi.id, reason=nav.reason)
            return AssistEvent.roi_unreachable(self.t, roi.id)
        self.log.add_note(self.t, "scanning", roi=roi.id)
        sc = self.scenario
        # Noise-free poses repeat across episodes; noisy ones almost never do.
        frames = self.scene.frames if sc.noise.pose_sigma <= 0.0 else {}
        for pan in world.PAN_SCHEDULE:
            self.advance(sc.session.frame_time_s)
            view = replace(self.robot, head_pan=pan)
            det = world.detect(
                self.scene, view, sc.detector, sc.intrinsics, self.detector_rng, frames
            )
            if det is None:
                continue
            shape = (sc.intrinsics.height, sc.intrinsics.width)
            depth = world.add_depth_noise(
                det.depth, det.box, shape, sc.noise.depth_sigma, self.depth_noise_rng
            )
            base_from_camera = view.base_from_camera()
            try:
                est = geometry.localize_target(depth, det.box, sc.intrinsics, base_from_camera)
            except geometry.GeometryError:
                break  # a failed localization on the detection frame counts as a miss
            return AssistEvent.found(self.t, roi.id, est.target_base)
        return AssistEvent.miss(self.t, roi.id)


def _run_passive(engine: _Engine, user_rng) -> None:
    """Condition A: the user searches alone, asking for hints now and then."""
    profile = engine.scenario.profile
    cap = engine.scenario.session.time_cap_s
    hint_interval = engine.scenario.session.hint_interval_s
    engine.apply(AssistEvent.schedule_due(engine.t))
    search_s = usersim.search_behavior(profile, user_rng, guided=False)
    search_end = min(search_s, cap)

    t_hint = hint_interval
    while t_hint < search_end:
        engine.advance_to(t_hint)
        engine.apply(
            AssistEvent.record_pressed(engine.t, "where is my medicine?")
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
        engine.log.add_note(engine.t, "time_cap_reached", cap_s=cap)
        return
    engine.advance_to(search_end)
    engine.apply(
        AssistEvent.user_action(engine.t, usersim.UserActionKind.LOOKS_AT_BOTTLE)
    )
    engine.windows.append(GazeWindow("bottle", engine.t, engine.t + _BOTTLE_SPAN_S))
    engine.advance(2.0)
    engine.apply(
        AssistEvent.user_action(engine.t, usersim.UserActionKind.OPENS_BOTTLE)
    )


def _search(engine: _Engine) -> None:
    """Visit each location a ``navigate_to`` directs; the policy ends the
    search on a find, or with an abort after the last location."""
    while engine.state.phase in (Phase.NAVIGATING, Phase.SCANNING):
        roi, engine.directed = engine.directed, None
        engine.apply(engine.visit(roi))


def _run_guided(
    engine: _Engine, seed: int, condition: str, user_rng, bottle_index: int
) -> None:
    """Condition B: reminder, search, then step-by-step guidance."""
    sc = engine.scenario
    profile = sc.profile
    timeout = sc.session.timeout_s
    cap = sc.session.time_cap_s

    engine.scene = sc.build_scene(bottle_index)
    engine.robot = sc.robot_state()
    engine.detector_rng = seeding.stream(seed, condition, "detector")
    engine.depth_noise_rng = seeding.stream(seed, condition, "depth_noise")
    engine.pose_noise_rng = seeding.stream(seed, condition, "pose_noise")

    engine.apply(AssistEvent.schedule_due(engine.t))

    while not engine.state.terminal and engine.t < cap:
        phase = engine.state.phase
        if phase in (Phase.NAVIGATING, Phase.SCANNING):
            _search(engine)
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
            t0 = engine.t
            engine.windows.append(
                GazeWindow("confusion_candidate", t0 + 2.0, t0 + timeout - 1.0)
            )
            engine.advance(timeout)
            engine.apply(AssistEvent.timeout(engine.t, phase))
        elif reply.pressed_start:
            engine.advance(reply.latency_s)
            engine.apply(AssistEvent.start_navigation(engine.t))
        elif reply.action is None:
            engine.advance(reply.latency_s)
            engine.apply(AssistEvent.record_pressed(engine.t, reply.transcript or ""))
        else:
            locating = prompt.step is GuidanceStep.LOCATE_BOTTLE
            latency = reply.latency_s
            if locating:
                latency = usersim.search_behavior(profile, user_rng, guided=True)
            engine.advance(latency)
            engine.apply(AssistEvent.user_action(engine.t, reply.action))
            if locating:
                engine.windows.append(GazeWindow("bottle", engine.t, engine.t + _BOTTLE_SPAN_S))
            engine.advance(_ACTION_TO_CONFIRM_S)
            engine.apply(AssistEvent.record_pressed(engine.t, reply.transcript or ""))

    if not engine.state.terminal:
        engine.log.add_note(engine.t, "time_cap_reached", cap_s=cap)


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
        log=log,
    )
    user_rng = seeding.stream(seed, condition, "user")

    if condition == "A":
        _run_passive(engine, user_rng)
    else:
        _run_guided(engine, seed, condition, user_rng, bottle_index)

    duration = engine.t + 1.0
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
