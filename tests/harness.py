"""Structured random event walks for exercising the assistance policy.

The walk feeds the policy only event sequences a real session could produce
(per-phase menus) but with adversarial randomness in ordering, wording, and
timing.  Invariant checks over whole traces live here too so the module
tests and the acceptance suite share one definition.
"""

import numpy as np

from aansim import orchestrator as orc
from aansim.scenario import SessionParams

ROI_IDS = ("roi_a", "roi_b", "roi_c")
ROI_LABELS = ("on the kitchen counter", "on the hall shelf", "on the side table")

_TRANSCRIPTS = {
    "confirm": ["yes", "okay, done", "yeah sure", "all right, took them"],
    "deny": ["no", "not yet", "haven't managed"],
    "repeat": ["say that again", "pardon?", "come again"],
    "help": ["help me", "where is it", "I can't open this"],
    "refuse": ["leave me alone", "go away", "I refuse"],
    "offtopic": ["lovely weather today", "what time is lunch", "turn on the tv"],
    "unknown": ["blorp", "mmm hmm hmm", "qwzx"],
}


def guided_config(**over) -> orc.OrchestratorConfig:
    session = SessionParams()
    defaults = dict(
        condition="B",
        start_level=orc.AssistLevel.L1,
        escalation_threshold=session.escalation_threshold,
        max_repeats=session.max_repeats,
        min_standoff=session.min_standoff,
        roi_ids=ROI_IDS,
        roi_labels=ROI_LABELS,
    )
    defaults.update(over)
    return orc.OrchestratorConfig(**defaults)


def passive_config(**over) -> orc.OrchestratorConfig:
    over.setdefault("condition", "A")
    return guided_config(**over)


def _fake_target(rng) -> np.ndarray:
    vec = rng.uniform(-2.0, 2.0, size=3)
    vec[2] = rng.uniform(0.0, 1.5)
    return vec


def _say(rng, pool: str, t: float) -> orc.AssistEvent:
    lines = _TRANSCRIPTS[pool]
    return orc.AssistEvent.record_pressed(t, lines[int(rng.integers(len(lines)))])


def _wrong_action(t: float, expected=None) -> orc.AssistEvent:
    """The first user action that is not ``expected``."""
    return orc.AssistEvent.user_action(t, next(a for a in orc.UserActionKind if a is not expected))


def _pick(rng, table):
    """table: list of (probability, thunk); probabilities sum to 1."""
    r = float(rng.random())
    acc = 0.0
    for p, thunk in table:
        acc += p
        if r < acc:
            return thunk()
    return table[-1][1]()


def next_event(rng, state: orc.OrchestratorState, config: orc.OrchestratorConfig, t: float):
    phase = state.phase
    if config.passive:
        return _pick(rng, [
            (0.40, lambda: _say(rng, "help", t)),
            (0.10, lambda: _say(rng, "repeat", t)),
            (0.15, lambda: _wrong_action(t, orc.UserActionKind.OPENS_BOTTLE)),
            (0.25, lambda: orc.AssistEvent.user_action(t, orc.UserActionKind.OPENS_BOTTLE)),
            (0.10, lambda: _say(rng, "refuse", t)),
        ])
    if phase is orc.Phase.IDLE:
        return orc.AssistEvent.schedule_due(t)
    if phase is orc.Phase.REMINDING:
        return _pick(rng, [
            (0.45, lambda: orc.AssistEvent.timeout(t, orc.Phase.REMINDING)),
            (0.12, lambda: _say(rng, "confirm", t)),
            (0.08, lambda: _say(rng, "deny", t)),
            (0.07, lambda: _say(rng, "repeat", t)),
            (0.05, lambda: _say(rng, "help", t)),
            (0.05, lambda: _say(rng, "refuse", t)),
            (0.05, lambda: _say(rng, "offtopic", t)),
            (0.05, lambda: _say(rng, "unknown", t)),
            (0.05, lambda: orc.AssistEvent.start_navigation(t)),
            (0.03, lambda: _wrong_action(t)),
        ])
    if phase in (orc.Phase.NAVIGATING, orc.Phase.SCANNING):
        roi = config.roi_ids[state.roi_index]
        return _pick(rng, [
            (0.30, lambda: orc.AssistEvent.miss(t, roi)),
            (0.10, lambda: orc.AssistEvent.roi_unreachable(t, roi)),
            (0.30, lambda: orc.AssistEvent.found(t, roi, _fake_target(rng))),
            (0.15, lambda: _say(rng, "unknown", t)),
            (0.05, lambda: _say(rng, "refuse", t)),
            (0.10, lambda: _wrong_action(t)),
        ])
    # Step guidance / final confirmation.
    expected = orc.EXPECTED_ACTION[state.step]
    return _pick(rng, [
        (0.40, lambda: orc.AssistEvent.timeout(t, phase)),
        (0.18, lambda: _say(rng, "confirm", t)),
        (0.08, lambda: _say(rng, "deny", t)),
        (0.06, lambda: _say(rng, "repeat", t)),
        (0.05, lambda: _say(rng, "help", t)),
        (0.04, lambda: _say(rng, "refuse", t)),
        (0.05, lambda: _say(rng, "offtopic", t)),
        (0.04, lambda: _say(rng, "unknown", t)),
        (0.05, lambda: orc.AssistEvent.user_action(t, expected)),
        (0.05, lambda: _wrong_action(t, expected)),
    ])


def random_walk(seed: int, config: orc.OrchestratorConfig, max_events: int = 600):
    """Run one random session; returns (final_state, trace).

    trace entries: (event, state_before, state_after, actions).
    """
    rng = np.random.default_rng(seed)
    state = orc.initial_state(config)
    t = 0.0
    trace = []
    for _ in range(max_events):
        if state.terminal:
            break
        t += float(rng.uniform(0.5, 5.0))
        event = next_event(rng, state, config, t)
        before = state
        state, actions = orc.step(state, event, config)
        trace.append((event, before, state, actions))
    return state, trace


def check_invariants(trace, config: orc.OrchestratorConfig) -> None:
    """Assert the safety properties every guided trace must satisfy."""
    for event, before, after, actions in trace:
        # Assistance only ratchets up, one level at a time.
        assert after.assist_level >= before.assist_level
        assert int(after.assist_level) - int(before.assist_level) <= 1
        # Steps advance forward only, one at a time.
        if before.step is not None and after.step is not None:
            i0 = orc.STEP_ORDER.index(before.step)
            i1 = orc.STEP_ORDER.index(after.step)
            assert i1 >= i0
            assert i1 - i0 <= 1
        # Completion only follows the explicit final confirmation.
        if after.phase is orc.Phase.DONE and before.phase is not orc.Phase.DONE:
            assert before.phase is orc.Phase.AWAITING_FINAL_CONFIRM
            assert event.kind is orc.EventKind.RECORD_PRESSED
        # Aborts always hand over to the caregiver.
        if after.phase is orc.Phase.ABORTED and before.phase is not orc.Phase.ABORTED:
            assert any(a.kind is orc.ActionKind.NOTIFY_CAREGIVER for a in actions)
        # Budgets stay bounded in live states.
        if not after.terminal:
            assert after.failure_count < config.escalation_threshold
            assert after.repeat_count <= config.max_repeats
            assert after.refusal_count < 2
        # The level cannot move except through escalation phases.
        if after.assist_level > before.assist_level:
            assert before.phase in (
                orc.Phase.REMINDING,
                orc.Phase.STEP_GUIDANCE,
                orc.Phase.AWAITING_FINAL_CONFIRM,
            )


def motion_actions(trace):
    return [
        a
        for _, _, _, actions in trace
        for a in actions
        if a.kind in orc.MOTION_ACTION_KINDS
    ]
