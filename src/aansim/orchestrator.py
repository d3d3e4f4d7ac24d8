"""Event-driven guidance orchestrator with graduated assist levels.

The orchestrator is a pure transition function: ``step(state, event,
config)`` returns the next state plus the actions (speech, gestures, motion
directives, caregiver notification) the robot should perform.  Level 1 is a
verbal reminder, level 2 adds gestural cues, level 3 adds navigation to the
medication site and deictic pointing at the found bottle.  Escalation is
monotone, one level at a time, driven by consecutive failures (timeouts or
refusals to comply); guidance steps advance in a fixed order and the session
ends Done only after the final intake confirmation.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from enum import Enum, IntEnum

import numpy as np

from .geometry import RigidTransform, ZeroDirection, pointing_angles


class AssistLevel(IntEnum):
    L1 = 1  # verbal reminder only
    L2 = 2  # verbal + gestural cues
    L3 = 3  # full multimodal: navigation, pointing, step-by-step guidance


class GuidanceStep(Enum):
    LOCATE_BOTTLE = "locate_bottle"
    OPEN_BOTTLE = "open_bottle"
    TAKE_PILLS = "take_pills"
    DRINK_WATER = "drink_water"
    CONFIRM_INTAKE = "confirm_intake"


STEP_ORDER = (
    GuidanceStep.LOCATE_BOTTLE,
    GuidanceStep.OPEN_BOTTLE,
    GuidanceStep.TAKE_PILLS,
    GuidanceStep.DRINK_WATER,
    GuidanceStep.CONFIRM_INTAKE,
)


class Phase(Enum):
    IDLE = "idle"
    REMINDING = "reminding"
    NAVIGATING = "navigating"
    SCANNING = "scanning"
    STEP_GUIDANCE = "step_guidance"
    AWAITING_FINAL_CONFIRM = "awaiting_final_confirm"
    DONE = "done"
    ABORTED = "aborted"

TERMINAL_PHASES = (Phase.DONE, Phase.ABORTED)


class IntentKind(Enum):
    CONFIRM = "confirm"
    DENY = "deny"
    REPEAT_REQUEST = "repeat_request"
    HELP_REQUEST = "help_request"
    REFUSAL = "refusal"
    UNKNOWN = "unknown"


class UserActionKind(Enum):
    LOOKS_AT_BOTTLE = "looks_at_bottle"
    OPENS_BOTTLE = "opens_bottle"
    TAKES_PILLS = "takes_pills"
    DRINKS_WATER = "drinks_water"
    CONFIRMS_INTAKE = "confirms_intake"


EXPECTED_ACTION = {
    GuidanceStep.LOCATE_BOTTLE: UserActionKind.LOOKS_AT_BOTTLE,
    GuidanceStep.OPEN_BOTTLE: UserActionKind.OPENS_BOTTLE,
    GuidanceStep.TAKE_PILLS: UserActionKind.TAKES_PILLS,
    GuidanceStep.DRINK_WATER: UserActionKind.DRINKS_WATER,
    GuidanceStep.CONFIRM_INTAKE: UserActionKind.CONFIRMS_INTAKE,
}


class EventKind(Enum):
    SCHEDULE_DUE = "schedule_due"
    START_NAVIGATION_PRESSED = "start_navigation_pressed"
    RECORD_PRESSED = "record_pressed"
    TIMEOUT = "timeout"
    FOUND = "found"
    MISS = "miss"
    ROI_UNREACHABLE = "roi_unreachable"
    USER_ACTION = "user_action"


@dataclass(frozen=True)
class AssistEvent:
    """Timestamped input to the orchestrator."""

    kind: EventKind
    t: float
    transcript: str | None = None
    roi: str | None = None
    target: np.ndarray | None = None  # base-frame bottle point on FOUND events
    action: UserActionKind | None = None
    timeout_phase: Phase | None = None

    @classmethod
    def schedule_due(cls, t: float) -> "AssistEvent":
        return cls(EventKind.SCHEDULE_DUE, t)

    @classmethod
    def start_navigation(cls, t: float) -> "AssistEvent":
        return cls(EventKind.START_NAVIGATION_PRESSED, t)

    @classmethod
    def record_pressed(cls, t: float, transcript: str) -> "AssistEvent":
        return cls(EventKind.RECORD_PRESSED, t, transcript=transcript)

    @classmethod
    def timeout(cls, t: float, phase: Phase) -> "AssistEvent":
        return cls(EventKind.TIMEOUT, t, timeout_phase=phase)

    @classmethod
    def found(cls, t: float, roi: str, target: np.ndarray) -> "AssistEvent":
        return cls(EventKind.FOUND, t, roi=roi, target=target)

    @classmethod
    def miss(cls, t: float, roi: str) -> "AssistEvent":
        return cls(EventKind.MISS, t, roi=roi)

    @classmethod
    def roi_unreachable(cls, t: float, roi: str) -> "AssistEvent":
        return cls(EventKind.ROI_UNREACHABLE, t, roi=roi)

    @classmethod
    def user_action(cls, t: float, action: UserActionKind) -> "AssistEvent":
        return cls(EventKind.USER_ACTION, t, action=action)

    def describe(self) -> dict:
        out: dict = {"kind": self.kind.value}
        if self.transcript is not None:
            out["transcript"] = self.transcript
        if self.roi is not None:
            out["roi"] = self.roi
        if self.action is not None:
            out["action"] = self.action.value
        if self.timeout_phase is not None:
            out["timeout_phase"] = self.timeout_phase.value
        return out


class ActionKind(Enum):
    SPEAK = "speak"
    GESTURE = "gesture"
    ALIGN_GAZE = "align_gaze"
    NAVIGATE_TO = "navigate_to"
    REPOSITION = "reposition"
    ROTATE_BASE = "rotate_base"
    NOTIFY_CAREGIVER = "notify_caregiver"


# Action kinds that move the base or the arm; Condition A must emit none.
MOTION_ACTION_KINDS = (
    ActionKind.GESTURE,
    ActionKind.ALIGN_GAZE,
    ActionKind.NAVIGATE_TO,
    ActionKind.REPOSITION,
    ActionKind.ROTATE_BASE,
)


@dataclass(frozen=True)
class Action:
    """A robot output directive with a JSON-friendly payload."""

    kind: ActionKind
    payload: dict

    @classmethod
    def speak(cls, text: str) -> "Action":
        return cls(ActionKind.SPEAK, {"text": text})

    @classmethod
    def gesture_beckon(cls) -> "Action":
        return cls(ActionKind.GESTURE, {"gesture": "beckon"})

    @classmethod
    def gesture_point(cls, yaw: float, pitch: float, origin, direction) -> "Action":
        return cls(
            ActionKind.GESTURE,
            {
                "gesture": "point",
                "yaw": float(yaw),
                "pitch": float(pitch),
                "origin": [float(c) for c in origin],
                "direction": [float(c) for c in direction],
            },
        )

    @classmethod
    def align_gaze(cls, target) -> "Action":
        return cls(ActionKind.ALIGN_GAZE, {"target": [float(c) for c in target]})

    @classmethod
    def navigate_to(cls, roi: str) -> "Action":
        return cls(ActionKind.NAVIGATE_TO, {"roi": roi})

    @classmethod
    def reposition(cls, distance: float) -> "Action":
        return cls(ActionKind.REPOSITION, {"back_up": float(distance)})

    @classmethod
    def rotate_base(cls, angle: float) -> "Action":
        return cls(ActionKind.ROTATE_BASE, {"angle": float(angle)})

    @classmethod
    def notify_caregiver(cls, reason: str) -> "Action":
        return cls(ActionKind.NOTIFY_CAREGIVER, {"reason": reason})

    def describe(self) -> dict:
        return {"kind": self.kind.value, **self.payload}


REMINDER_TEXT = {
    AssistLevel.L1: "It's time to take your medicine.",
    AssistLevel.L2: "It's time to take your medicine. Please come, I can help you.",
    AssistLevel.L3: "Time to take your medicine, follow me!",
}

_STEP_PROMPTS: dict[GuidanceStep, tuple[str, str]] = {
    GuidanceStep.LOCATE_BOTTLE: (
        "Your medicine bottle is right there. Can you see it?",
        "Look where I am pointing. The medicine bottle is just ahead of you.",
    ),
    GuidanceStep.OPEN_BOTTLE: (
        "Open the bottle.",
        "Please twist the cap to open your medicine bottle.",
    ),
    GuidanceStep.TAKE_PILLS: (
        "Take the prescribed number of pills.",
        "Take out exactly the number of pills your doctor prescribed.",
    ),
    GuidanceStep.DRINK_WATER: (
        "Drink water.",
        "Please drink some water to help swallow the pills.",
    ),
    GuidanceStep.CONFIRM_INTAKE: (
        "Please confirm: did you take your medicine?",
        "Tell me once you have taken your medicine.",
    ),
}

_LOCATE_PROMPT_UNGUIDED = "Please go to where you keep your medicine and find the bottle."


def prompt_for(step: GuidanceStep, level: AssistLevel, rephrase: bool = False) -> str:
    """Prompt text for a step; the locate step differs when no pointing happened."""
    if step is GuidanceStep.LOCATE_BOTTLE and level < AssistLevel.L3:
        return _LOCATE_PROMPT_UNGUIDED
    first, second = _STEP_PROMPTS[step]
    return second if rephrase else first


@dataclass(frozen=True)
class OrchestratorConfig:
    """Tunables for the guidance policy; ``Scenario.orchestrator_config``
    fills them from the scenario."""

    condition: str  # "A": passive hint-giver; "B": guided
    start_level: AssistLevel
    escalation_threshold: int
    max_repeats: int
    min_standoff: float
    roi_ids: tuple[str, ...]
    roi_labels: tuple[str, ...]

    @property
    def passive(self) -> bool:
        return self.condition == "A"


@dataclass(frozen=True)
class OrchestratorState:
    """Immutable machine state; ``step`` returns updated copies."""

    phase: Phase
    assist_level: AssistLevel
    step: GuidanceStep | None = None
    repeat_count: int = 0
    failure_count: int = 0
    refusal_count: int = 0
    roi_index: int = 0
    hint_index: int = 0

    @property
    def terminal(self) -> bool:
        return self.phase in TERMINAL_PHASES

    def describe(self) -> dict:
        out = {
            "phase": self.phase.value,
            "assist_level": int(self.assist_level),
        }
        if self.step is not None:
            out["step"] = self.step.value
        return out


def initial_state(config: OrchestratorConfig) -> OrchestratorState:
    return OrchestratorState(phase=Phase.IDLE, assist_level=config.start_level)


# ---------------------------------------------------------------------------
# Intent interpretation


_INTENT_RULES: tuple[tuple[IntentKind, tuple[str, ...]], ...] = (
    (
        IntentKind.REFUSAL,
        (
            "refuse", "won't", "will not", "leave me alone", "go away",
            "stop it", "no more", "not taking", "never",
        ),
    ),
    (
        IntentKind.REPEAT_REQUEST,
        (
            "repeat", "again", "say that", "pardon", "what did you say",
            "didn't hear", "once more", "come again",
        ),
    ),
    (
        IntentKind.HELP_REQUEST,
        (
            "help", "where", "how", "can't", "cannot", "unable", "stuck",
            "lost", "confused", "show me", "which",
        ),
    ),
    (
        IntentKind.DENY,
        ("no", "not yet", "haven't", "didn't", "nope", "not done"),
    ),
    (
        IntentKind.CONFIRM,
        (
            "yes", "yeah", "yep", "ok", "okay", "done", "took", "taken",
            "finished", "got it", "opened", "swallowed", "drank", "see it",
            "i see", "found", "sure", "alright", "all right", "ready", "coming",
        ),
    ),
)


def interpret(transcript: str) -> IntentKind:
    """Rule-based intent stub: keyword classes checked in precedence order
    Refusal > RepeatRequest > HelpRequest > Deny > Confirm, with empty or
    unmatched transcripts mapping to Unknown."""
    # Punctuation must not glue to keywords ("done!" is still a confirm);
    # apostrophes stay because several keywords carry contractions.  Every
    # keyword begins and ends with a letter or digit, so a match between the
    # spaces of the padded text is a whole-word match.
    words = re.sub(r"[^a-z0-9']+", " ", transcript.lower()).split()
    padded = f" {' '.join(words)} "
    for intent, keywords in _INTENT_RULES:
        if any(f" {kw} " in padded for kw in keywords):
            return intent
    return IntentKind.UNKNOWN


# ---------------------------------------------------------------------------
# Deictic gesture assembly

# Base-frame origin of the pointing arm (m).
ARM_ORIGIN = (0.0, 0.0, 0.8)


def gesture_actions(target_base, config: OrchestratorConfig) -> list[Action]:
    """Pointing action sequence for a base-frame target.

    Prepends a Reposition when the target is closer than the minimum
    standoff, and a base rotation when the target is behind the robot so the
    executed pointing yaw satisfies |yaw| <= 90 deg.  A target at the arm
    origin gets gaze alignment only.
    """
    target = np.asarray(target_base, dtype=np.float64).reshape(3)
    origin = np.asarray(ARM_ORIGIN, dtype=np.float64)
    actions: list[Action] = []
    try:
        cmd = pointing_angles(target, origin)
    except ZeroDirection:
        return [Action.align_gaze(target)]

    standoff = math.hypot(target[0], target[1])
    if standoff < config.min_standoff:
        actions.append(Action.reposition(config.min_standoff - standoff))
    if abs(cmd.yaw) > math.pi / 2.0:
        actions.append(Action.rotate_base(cmd.yaw))
        rotated = RigidTransform.from_yaw(-cmd.yaw).apply(target)
        cmd = pointing_angles(rotated, origin)
    actions.append(Action.align_gaze(target))
    actions.append(Action.gesture_point(cmd.yaw, cmd.pitch, origin, cmd.direction))
    return actions


# ---------------------------------------------------------------------------
# Transition function


def _reminder_actions(level: AssistLevel) -> list[Action]:
    actions = [Action.speak(REMINDER_TEXT[level])]
    if level >= AssistLevel.L2:
        actions.append(Action.gesture_beckon())
    return actions


def _again(state: OrchestratorState) -> str:
    """What a repeat says: the reminder, or the current step's rephrased prompt."""
    if state.phase is Phase.REMINDING:
        return REMINDER_TEXT[state.assist_level]
    return prompt_for(state.step, state.assist_level, rephrase=True)


def _start_navigation(
    state: OrchestratorState,
    config: OrchestratorConfig,
    text: str = "Looking for your medicine bottle.",
) -> tuple[OrchestratorState, list[Action]]:
    nxt = replace(state, phase=Phase.NAVIGATING, roi_index=0, repeat_count=0, failure_count=0)
    return nxt, [Action.speak(text), Action.navigate_to(config.roi_ids[0])]


def _enter_step(
    state: OrchestratorState, step: GuidanceStep
) -> tuple[OrchestratorState, list[Action]]:
    final = step is GuidanceStep.CONFIRM_INTAKE
    phase = Phase.AWAITING_FINAL_CONFIRM if final else Phase.STEP_GUIDANCE
    nxt = replace(state, phase=phase, step=step, repeat_count=0, failure_count=0)
    return nxt, [Action.speak(prompt_for(step, state.assist_level))]


def _abort(
    state: OrchestratorState, reason: str, text: str
) -> tuple[OrchestratorState, list[Action]]:
    nxt = replace(state, phase=Phase.ABORTED)
    return nxt, [Action.speak(text), Action.notify_caregiver(reason)]


def _escalate_or_abort(
    state: OrchestratorState, config: OrchestratorConfig
) -> tuple[OrchestratorState, list[Action]]:
    """One-level escalation after repeated failure; abort at the top level."""
    if state.assist_level >= AssistLevel.L3:
        return _abort(
            state,
            "assistance exhausted at the highest level",
            "I will ask your caregiver to help you.",
        )
    level = AssistLevel(int(state.assist_level) + 1)
    esc = replace(state, assist_level=level, failure_count=0, repeat_count=0)
    if state.phase is not Phase.REMINDING:
        # Step guidance: re-deliver the current prompt with the richer level.
        return esc, [Action.speak(_again(esc))]
    if level is AssistLevel.L3:
        return _start_navigation(esc, config, _again(esc))
    return esc, _reminder_actions(level)


def _register_failure(
    state: OrchestratorState, config: OrchestratorConfig
) -> tuple[OrchestratorState, list[Action]]:
    bumped = replace(state, failure_count=state.failure_count + 1)
    if bumped.failure_count >= config.escalation_threshold:
        return _escalate_or_abort(bumped, config)
    return bumped, [Action.speak(_again(bumped))]


def _register_refusal(state: OrchestratorState) -> tuple[OrchestratorState, list[Action]]:
    bumped = replace(state, refusal_count=state.refusal_count + 1)
    if bumped.refusal_count >= 2:
        return _abort(
            bumped,
            "user refused assistance twice",
            "All right, I will leave you be and let your caregiver know.",
        )
    return bumped, [
        Action.speak("I understand. Your medicine is important; I will stay close if you change your mind.")
    ]


def _repeat(
    state: OrchestratorState, config: OrchestratorConfig, text: str
) -> tuple[OrchestratorState, list[Action]] | None:
    """Spend one repeat of the budget on saying ``text``; None once it is spent."""
    if state.repeat_count < config.max_repeats:
        return replace(state, repeat_count=state.repeat_count + 1), [Action.speak(text)]
    return None


def _passive_step(
    state: OrchestratorState,
    event: AssistEvent,
    intent: IntentKind | None,
    config: OrchestratorConfig,
) -> tuple[OrchestratorState, list[Action]]:
    """Condition A: answer location questions, otherwise stay out of the way."""
    labels = config.roi_labels
    if intent is IntentKind.REPEAT_REQUEST and state.hint_index > 0:
        label = labels[(state.hint_index - 1) % len(labels)]
        return state, [Action.speak(f"I said: it might be {label}.")]
    if intent is not None:
        nxt = replace(state, hint_index=state.hint_index + 1)
        return nxt, [Action.speak(f"You could check {labels[state.hint_index % len(labels)]}.")]
    if event.kind is EventKind.USER_ACTION and event.action is UserActionKind.OPENS_BOTTLE:
        return replace(state, phase=Phase.DONE), [Action.speak("You found your medicine, great.")]
    return state, []


def step(
    state: OrchestratorState, event: AssistEvent, config: OrchestratorConfig
) -> tuple[OrchestratorState, list[Action]]:
    """Apply one event; returns the successor state and the robot actions.

    Unknown or phase-inconsistent events are ignored: the state is returned
    as it is, and no action follows.
    """
    if state.terminal:
        return state, []

    kind, phase = event.kind, state.phase
    intent = interpret(event.transcript or "") if kind is EventKind.RECORD_PRESSED else None
    if intent is IntentKind.REFUSAL and (config.passive or phase is not Phase.IDLE):
        return _register_refusal(state)
    if config.passive:
        return _passive_step(state, event, intent, config)

    if phase is Phase.IDLE:
        if kind is EventKind.SCHEDULE_DUE:
            nxt = replace(state, phase=Phase.REMINDING, repeat_count=0, failure_count=0)
            return nxt, _reminder_actions(state.assist_level)
    elif phase in (Phase.NAVIGATING, Phase.SCANNING):
        if kind is EventKind.MISS or kind is EventKind.ROI_UNREACHABLE:
            next_index = state.roi_index + 1
            if next_index < len(config.roi_ids):
                nxt = replace(state, phase=Phase.SCANNING, roi_index=next_index)
                return nxt, [Action.navigate_to(config.roi_ids[next_index])]
            text = "I could not find your medicine. I will ask your caregiver."
            return _abort(state, "medicine bottle not found at any known location", text)
        if kind is EventKind.FOUND:
            actions = [Action.speak("I found your medicine bottle!")]
            actions.extend(gesture_actions(event.target, config))
            nxt, prompt = _enter_step(state, GuidanceStep.LOCATE_BOTTLE)
            return nxt, actions + prompt
        # Chatter while searching spends the repeat budget, then goes unanswered.
        follow = "Please follow me while I look for your medicine."
        if intent is not None and (said := _repeat(state, config, follow)):
            return said
    else:
        # Reminding and the two step phases share one dispatch, first by event
        # kind and then by intent, because they share the escalation ladder:
        # failures climb it, repeats rephrase at the current level, and a
        # confirm moves on.
        reminding = phase is Phase.REMINDING
        if kind is EventKind.START_NAVIGATION_PRESSED:
            if reminding and state.assist_level is AssistLevel.L3:
                return _start_navigation(state, config)
        elif kind is EventKind.TIMEOUT:
            if event.timeout_phase in (None, phase):
                if reminding:
                    return _register_failure(state, config)
                return _repeat(state, config, _again(state)) or _escalate_or_abort(state, config)
        elif kind is EventKind.USER_ACTION:
            # The expected action is physical progress; the verbal confirm follows.
            if not reminding and event.action is not EXPECTED_ACTION[state.step]:
                return _register_failure(state, config)
        elif intent is IntentKind.CONFIRM:
            if reminding and state.assist_level is AssistLevel.L3:
                return _start_navigation(state, config)
            if reminding:
                return _enter_step(state, GuidanceStep.LOCATE_BOTTLE)
            if state.step is GuidanceStep.CONFIRM_INTAKE:
                done = replace(state, phase=Phase.DONE)
                return done, [Action.speak("Well done! You have taken your medicine.")]
            return _enter_step(state, STEP_ORDER[STEP_ORDER.index(state.step) + 1])
        elif intent is IntentKind.DENY:
            return _register_failure(state, config)
        elif intent is not None:
            # Repeat, help and unknown replies are rephrased while repeats
            # last; anything but a plain request is steered back first.
            text = _again(state)
            if reminding and intent is not IntentKind.REPEAT_REQUEST:
                text = "I am here to help you take your medicine. " + text
            elif intent not in (IntentKind.REPEAT_REQUEST, IntentKind.HELP_REQUEST):
                text = "Let's focus on your medicine. " + text
            return _repeat(state, config, text) or _register_failure(state, config)
    return state, []
