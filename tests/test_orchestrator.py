import math

import numpy as np
import pytest

from aansim import orchestrator as orc
from aansim.orchestrator import (
    ActionKind,
    AssistEvent,
    AssistLevel,
    GuidanceStep,
    IntentKind,
    Phase,
    UserActionKind,
)

from harness import (
    check_invariants,
    guided_config,
    motion_actions,
    passive_config,
    random_walk,
)


def kinds(actions):
    return [a.kind for a in actions]


def advance(state, config, *events):
    actions = None
    for ev in events:
        state, actions = orc.step(state, ev, config)
    return state, actions


# ---------------------------------------------------------------------------
# Escalation ladder


def test_schedule_due_starts_verbal_reminder():
    config = guided_config()
    state = orc.initial_state(config)
    state, actions = orc.step(state, AssistEvent.schedule_due(0.0), config)
    assert state.phase is Phase.REMINDING
    assert state.assist_level is AssistLevel.L1
    assert kinds(actions) == [ActionKind.SPEAK]
    assert actions[0].payload["text"] == orc.REMINDER_TEXT[AssistLevel.L1]


def test_two_timeouts_escalate_to_gesture_level():
    config = guided_config()  # escalation_threshold = 2
    state = orc.initial_state(config)
    state, _ = orc.step(state, AssistEvent.schedule_due(0.0), config)
    state, actions = orc.step(state, AssistEvent.timeout(20.0, Phase.REMINDING), config)
    assert state.assist_level is AssistLevel.L1  # first failure only repeats
    assert kinds(actions) == [ActionKind.SPEAK]
    state, actions = orc.step(state, AssistEvent.timeout(40.0, Phase.REMINDING), config)
    assert state.assist_level is AssistLevel.L2
    assert state.phase is Phase.REMINDING
    assert kinds(actions) == [ActionKind.SPEAK, ActionKind.GESTURE]
    assert actions[0].payload["text"] == orc.REMINDER_TEXT[AssistLevel.L2]
    assert state.failure_count == 0  # reset on escalation


def test_escalation_to_l3_starts_the_search():
    config = guided_config()
    state = orc.initial_state(config)
    state, _ = orc.step(state, AssistEvent.schedule_due(0.0), config)
    state, _ = advance(
        state,
        config,
        AssistEvent.timeout(20.0, Phase.REMINDING),
        AssistEvent.timeout(40.0, Phase.REMINDING),
        AssistEvent.timeout(60.0, Phase.REMINDING),
    )
    state, actions = orc.step(state, AssistEvent.timeout(80.0, Phase.REMINDING), config)
    assert state.assist_level is AssistLevel.L3
    assert state.phase is Phase.NAVIGATING
    assert state.roi_index == 0
    assert kinds(actions) == [ActionKind.SPEAK, ActionKind.NAVIGATE_TO]
    assert actions[0].payload["text"] == "Time to take your medicine, follow me!"
    assert actions[1].payload["roi"] == "roi_a"


def test_condition_b_reminds_at_l3_and_waits_for_start():
    config = guided_config(start_level=AssistLevel.L3)
    state = orc.initial_state(config)
    state, actions = orc.step(state, AssistEvent.schedule_due(0.0), config)
    assert state.phase is Phase.REMINDING
    assert actions[0].payload["text"] == "Time to take your medicine, follow me!"
    assert ActionKind.GESTURE in kinds(actions)
    state, actions = orc.step(state, AssistEvent.start_navigation(3.0), config)
    assert state.phase is Phase.NAVIGATING
    assert kinds(actions) == [ActionKind.SPEAK, ActionKind.NAVIGATE_TO]


def test_start_navigation_below_l3_is_invalid():
    config = guided_config()
    state = orc.initial_state(config)
    state, _ = orc.step(state, AssistEvent.schedule_due(0.0), config)
    nxt, actions = orc.step(state, AssistEvent.start_navigation(1.0), config)
    assert nxt.phase is Phase.REMINDING and actions == []
    # Ignored: the state is returned as it is.
    assert nxt is state
    again, actions = orc.step(nxt, AssistEvent.start_navigation(2.0), config)
    assert again is state and actions == []


def test_l3_abort_notifies_caregiver():
    config = guided_config(start_level=AssistLevel.L3)
    state = orc.initial_state(config)
    state, _ = orc.step(state, AssistEvent.schedule_due(0.0), config)
    state, _ = orc.step(state, AssistEvent.timeout(20.0, Phase.REMINDING), config)
    state, actions = orc.step(state, AssistEvent.timeout(40.0, Phase.REMINDING), config)
    assert state.phase is Phase.ABORTED
    assert kinds(actions) == [ActionKind.SPEAK, ActionKind.NOTIFY_CAREGIVER]


# ---------------------------------------------------------------------------
# Search phase


def _navigating_state(config):
    state = orc.initial_state(config)
    state, _ = orc.step(state, AssistEvent.schedule_due(0.0), config)
    state, _ = orc.step(state, AssistEvent.start_navigation(2.0), config)
    assert state.phase is Phase.NAVIGATING
    return state


def test_miss_moves_to_next_roi():
    config = guided_config(start_level=AssistLevel.L3)
    state = _navigating_state(config)
    state, actions = orc.step(state, AssistEvent.miss(30.0, "roi_a"), config)
    assert state.phase is Phase.SCANNING
    assert state.roi_index == 1
    assert kinds(actions) == [ActionKind.NAVIGATE_TO]
    assert actions[0].payload["roi"] == "roi_b"


def test_unreachable_roi_is_skipped_like_a_miss():
    config = guided_config(start_level=AssistLevel.L3)
    state = _navigating_state(config)
    state, actions = orc.step(state, AssistEvent.roi_unreachable(30.0, "roi_a"), config)
    assert state.roi_index == 1
    assert actions[0].payload["roi"] == "roi_b"


def test_exhausted_search_aborts_with_notification():
    """A miss or an unreachable visit at the last ROI ends the search: the
    policy hands over to the caregiver and directs no further visit."""
    config = guided_config(start_level=AssistLevel.L3)
    searched = advance(
        _navigating_state(config),
        config,
        AssistEvent.miss(30.0, "roi_a"),
        AssistEvent.miss(60.0, "roi_b"),
    )[0]
    for last in (AssistEvent.miss(90.0, "roi_c"), AssistEvent.roi_unreachable(90.0, "roi_c")):
        state, actions = orc.step(searched, last, config)
        assert state.phase is Phase.ABORTED
        assert kinds(actions) == [ActionKind.SPEAK, ActionKind.NOTIFY_CAREGIVER]
        assert actions[-1].payload["reason"] == "medicine bottle not found at any known location"


def test_found_points_at_the_bottle_and_prompts():
    config = guided_config(start_level=AssistLevel.L3)
    state = _navigating_state(config)
    target = np.array([1.2, 0.4, 0.85])
    state, actions = orc.step(state, AssistEvent.found(40.0, "roi_a", target), config)
    assert state.phase is Phase.STEP_GUIDANCE
    assert state.step is GuidanceStep.LOCATE_BOTTLE
    ks = kinds(actions)
    assert ks[0] is ActionKind.SPEAK
    assert ActionKind.ALIGN_GAZE in ks
    assert ActionKind.GESTURE in ks
    assert ks[-1] is ActionKind.SPEAK  # the locate prompt
    point = next(a for a in actions if a.kind is ActionKind.GESTURE)
    expect_yaw = math.atan2(0.4, 1.2)
    assert point.payload["yaw"] == pytest.approx(expect_yaw, abs=1e-12)


def test_chatter_during_search_is_budgeted():
    config = guided_config(start_level=AssistLevel.L3)
    state = _navigating_state(config)
    for k in range(config.max_repeats):
        state, actions = orc.step(
            state, AssistEvent.record_pressed(30.0 + k, "blorp"), config
        )
        assert kinds(actions) == [ActionKind.SPEAK]
    state, actions = orc.step(state, AssistEvent.record_pressed(40.0, "blorp"), config)
    assert actions == []  # budget spent: the search continues silently
    assert state.phase is Phase.NAVIGATING


# ---------------------------------------------------------------------------
# Step guidance


def _guidance_state(config):
    state = _navigating_state(config)
    target = np.array([1.0, 0.0, 0.8])
    state, _ = orc.step(state, AssistEvent.found(40.0, "roi_a", target), config)
    return state


def test_confirms_walk_through_all_steps_to_done():
    config = guided_config(start_level=AssistLevel.L3)
    state = _guidance_state(config)
    t = 50.0
    seen = [state.step]
    while state.phase in (Phase.STEP_GUIDANCE, Phase.AWAITING_FINAL_CONFIRM):
        state, actions = orc.step(state, AssistEvent.record_pressed(t, "yes, done"), config)
        t += 5.0
        if state.step not in seen:
            seen.append(state.step)
    assert state.phase is Phase.DONE
    assert seen == list(orc.STEP_ORDER)
    assert actions[0].payload["text"] == "Well done! You have taken your medicine."


def test_final_step_awaits_explicit_confirmation():
    config = guided_config(start_level=AssistLevel.L3)
    state = _guidance_state(config)
    for _ in range(4):
        state, _ = orc.step(state, AssistEvent.record_pressed(50.0, "yes"), config)
    assert state.phase is Phase.AWAITING_FINAL_CONFIRM
    assert state.step is GuidanceStep.CONFIRM_INTAKE
    # The matching physical action alone does not finish the session.
    state, actions = orc.step(
        state, AssistEvent.user_action(60.0, UserActionKind.CONFIRMS_INTAKE), config
    )
    assert state.phase is Phase.AWAITING_FINAL_CONFIRM
    state, _ = orc.step(state, AssistEvent.record_pressed(61.0, "yes I took them"), config)
    assert state.phase is Phase.DONE


def test_step_timeouts_spend_repeats_then_escalate():
    config = guided_config(start_level=AssistLevel.L1)
    state = orc.initial_state(config)
    state, _ = orc.step(state, AssistEvent.schedule_due(0.0), config)
    state, _ = orc.step(state, AssistEvent.record_pressed(1.0, "okay"), config)
    assert state.phase is Phase.STEP_GUIDANCE and state.assist_level is AssistLevel.L1
    t = 10.0
    for k in range(config.max_repeats):
        state, actions = orc.step(state, AssistEvent.timeout(t, Phase.STEP_GUIDANCE), config)
        t += 20.0
        assert state.assist_level is AssistLevel.L1
        assert kinds(actions) == [ActionKind.SPEAK]
    state, actions = orc.step(state, AssistEvent.timeout(t, Phase.STEP_GUIDANCE), config)
    assert state.assist_level is AssistLevel.L2
    assert state.repeat_count == 0 and state.failure_count == 0


def test_wrong_user_action_counts_as_failure():
    config = guided_config(start_level=AssistLevel.L3)
    state, _ = orc.step(_guidance_state(config), AssistEvent.record_pressed(45.0, "yes"), config)
    assert state.step is GuidanceStep.OPEN_BOTTLE
    before = state.failure_count
    state, _ = orc.step(
        state, AssistEvent.user_action(50.0, UserActionKind.DRINKS_WATER), config
    )
    assert state.step is GuidanceStep.OPEN_BOTTLE
    assert state.failure_count == before + 1


def test_two_refusals_abort_the_session():
    config = guided_config()
    state = orc.initial_state(config)
    state, _ = orc.step(state, AssistEvent.schedule_due(0.0), config)
    state, actions = orc.step(state, AssistEvent.record_pressed(5.0, "go away"), config)
    assert state.phase is Phase.REMINDING  # one refusal: stand down politely
    assert kinds(actions) == [ActionKind.SPEAK]
    state, actions = orc.step(
        state, AssistEvent.record_pressed(9.0, "leave me alone"), config
    )
    assert state.phase is Phase.ABORTED
    assert actions[-1].kind is ActionKind.NOTIFY_CAREGIVER


def test_terminal_states_absorb_events():
    config = guided_config(start_level=AssistLevel.L3, roi_ids=("roi_a",), roi_labels=("here",))
    state = _navigating_state(config)
    state, _ = orc.step(state, AssistEvent.miss(50.0, "roi_a"), config)
    assert state.terminal
    nxt, actions = orc.step(state, AssistEvent.schedule_due(60.0), config)
    assert nxt.phase is state.phase and actions == []
    # Ignored: the state is returned as it is.
    assert nxt is state
    again, actions = orc.step(nxt, AssistEvent.schedule_due(70.0), config)
    assert again is state and actions == []


# ---------------------------------------------------------------------------
# Intent interpretation


@pytest.mark.parametrize(
    "text,intent",
    [
        ("Yes", IntentKind.CONFIRM),
        ("okay, done!", IntentKind.CONFIRM),
        ("all right", IntentKind.CONFIRM),
        ("no", IntentKind.DENY),
        ("not yet", IntentKind.DENY),
        ("could you say that again", IntentKind.REPEAT_REQUEST),
        ("help me find it", IntentKind.HELP_REQUEST),
        ("where is my medicine", IntentKind.HELP_REQUEST),
        ("leave me alone", IntentKind.REFUSAL),
        ("nice weather today", IntentKind.UNKNOWN),
        ("blorp", IntentKind.UNKNOWN),
        ("", IntentKind.UNKNOWN),
        ("   ", IntentKind.UNKNOWN),
    ],
)
def test_interpret_keyword_classes(text, intent):
    assert orc.interpret(text) is intent


def test_interpret_precedence_refusal_beats_confirm():
    assert orc.interpret("yes yes, but leave me alone") is IntentKind.REFUSAL


def test_interpret_precedence_repeat_beats_deny():
    assert orc.interpret("no, say that again") is IntentKind.REPEAT_REQUEST


def test_interpret_requires_word_boundaries():
    # "know" contains "no"; must not read as a denial.
    assert orc.interpret("know") is IntentKind.UNKNOWN


# ---------------------------------------------------------------------------
# Pointing action synthesis


def test_gesture_actions_close_target_repositions_first():
    config = guided_config()
    actions = orc.gesture_actions(np.array([0.3, 0.0, 0.9]), config)
    ks = kinds(actions)
    assert ks[0] is ActionKind.REPOSITION
    assert actions[0].payload["back_up"] == pytest.approx(0.6 - 0.3)
    assert ActionKind.GESTURE in ks


def test_gesture_actions_behind_target_rotates_base():
    config = guided_config()
    actions = orc.gesture_actions(np.array([-1.0, 0.2, 0.9]), config)
    ks = kinds(actions)
    assert ks[0] is ActionKind.ROTATE_BASE
    # After the rotation the pointing yaw must be within the comfort cone.
    point = next(a for a in actions if a.kind is ActionKind.GESTURE)
    assert abs(point.payload["yaw"]) <= math.pi / 2 + 1e-9


def test_gesture_actions_degenerate_direction_only_aligns_gaze():
    config = guided_config()
    actions = orc.gesture_actions(np.array(orc.ARM_ORIGIN), config)
    assert kinds(actions) == [ActionKind.ALIGN_GAZE]


@pytest.mark.parametrize(
    "target",
    [(2.0, 0.3, 0.9), (0.3, 0.0, 0.9), (-1.0, 0.2, 0.9), orc.ARM_ORIGIN],
    ids=["ahead", "close", "behind", "arm_origin"],
)
def test_every_pointing_path_aligns_gaze_once(target):
    # The episode spends the gesture time once per align_gaze.
    actions = orc.gesture_actions(np.array(target), guided_config())
    assert kinds(actions).count(ActionKind.ALIGN_GAZE) == 1


# ---------------------------------------------------------------------------
# Condition A (passive answers only)


def test_passive_gives_location_hints_in_roi_order():
    config = passive_config()
    state = orc.initial_state(config)
    state, actions = orc.step(
        state, AssistEvent.record_pressed(5.0, "where is my medicine?"), config
    )
    assert kinds(actions) == [ActionKind.SPEAK]
    assert "on the kitchen counter" in actions[0].payload["text"]
    state, actions = orc.step(
        state, AssistEvent.record_pressed(40.0, "where could it be?"), config
    )
    assert "on the hall shelf" in actions[0].payload["text"]
    # A repeat request re-issues the previous hint instead of advancing.
    state, actions = orc.step(
        state, AssistEvent.record_pressed(45.0, "say that again"), config
    )
    assert "on the hall shelf" in actions[0].payload["text"]
    assert state.hint_index == 2


def test_passive_completes_when_bottle_opened():
    config = passive_config()
    state = orc.initial_state(config)
    state, _ = orc.step(
        state, AssistEvent.user_action(10.0, UserActionKind.LOOKS_AT_BOTTLE), config
    )
    assert not state.terminal
    state, actions = orc.step(
        state, AssistEvent.user_action(12.0, UserActionKind.OPENS_BOTTLE), config
    )
    assert state.phase is Phase.DONE
    assert kinds(actions) == [ActionKind.SPEAK]


def test_passive_never_moves():
    for seed in range(60):
        final, trace = random_walk(seed, passive_config())
        assert motion_actions(trace) == []
        assert final.terminal


# ---------------------------------------------------------------------------
# Property walk


def test_random_walks_satisfy_invariants():
    done = aborted = 0
    for seed in range(1000):
        final, trace = random_walk(seed, guided_config())
        assert final.terminal, f"walk {seed} did not terminate"
        check_invariants(trace, guided_config())
        if final.phase is Phase.DONE:
            done += 1
        else:
            aborted += 1
    # The menu must visit both outcomes often enough to mean something: 10%
    # each.  The menu gives 116 done walks, so the count is off its bound.
    assert done >= 100
    assert aborted >= 100


def test_random_walks_condition_b_invariants():
    for seed in range(100):
        config = guided_config(start_level=AssistLevel.L3)
        final, trace = random_walk(seed, config)
        assert final.terminal
        check_invariants(trace, config)
