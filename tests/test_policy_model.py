"""Exhaustive check of the guidance policy over every state it can reach.

``orchestrator.step`` is a pure function over a small state, so for each
config below a breadth-first search enumerates every state reachable from
``initial_state`` under ``INPUTS`` and checks each edge it takes:

- the assist level never drops and rises one level at a time;
- guidance steps only move to the next one in ``STEP_ORDER``;
- condition A emits no ``MOTION_ACTION_KINDS``;
- terminal states absorb every input;
- every entry to ``aborted`` notifies the caregiver;
- ``done`` is entered only from ``awaiting_final_confirm`` on a confirm, or
  on condition A's ``opens_bottle``;
- every reachable state can reach a terminal state.

Condition A's ``hint_index`` grows with every question; only whether it is
above 0 and its value modulo the label count matter, so states are compared
with it folded into 0 .. len(labels).  Every other field stays bounded.
"""

import itertools
from collections import deque
from dataclasses import replace

import numpy as np
import pytest

import harness
from aansim import orchestrator as orc
from aansim.orchestrator import (
    STEP_ORDER,
    AssistEvent,
    AssistLevel,
    EventKind,
    IntentKind,
    Phase,
    UserActionKind,
)

# One transcript per intent class.
TRANSCRIPTS = {
    IntentKind.CONFIRM: "yes",
    IntentKind.DENY: "no",
    IntentKind.REPEAT_REQUEST: "say that again",
    IntentKind.HELP_REQUEST: "help me",
    IntentKind.REFUSAL: "leave me alone",
    IntentKind.UNKNOWN: "blorp",
}
# FOUND targets in the base frame: ahead, inside the 0.6 m standoff, behind
# the robot, and at the arm origin.
TARGETS = ([1.2, 0.4, 0.85], [0.2, 0.1, 0.8], [-1.0, 0.3, 0.8], list(orc.ARM_ORIGIN))
INPUTS = (
    AssistEvent.schedule_due(0.0),
    AssistEvent.start_navigation(0.0),
    *(AssistEvent.record_pressed(0.0, text) for text in TRANSCRIPTS.values()),
    *(AssistEvent.timeout(0.0, phase) for phase in (*Phase, None)),
    *(AssistEvent.found(0.0, "roi", np.array(target)) for target in TARGETS),
    AssistEvent.miss(0.0, "roi"),
    AssistEvent.roi_unreachable(0.0, "roi"),
    *(AssistEvent.user_action(0.0, action) for action in UserActionKind),
)
# Condition × start level × escalation_threshold × max_repeats × ROI count: 72 configs.
CONFIGS = {
    f"{cond}/L{level}/esc{esc}/rep{rep}/rois{n}": dict(
        condition=cond,
        start_level=AssistLevel(level),
        escalation_threshold=esc,
        max_repeats=rep,
        roi_ids=harness.ROI_IDS[:n],
        roi_labels=harness.ROI_LABELS[:n],
    )
    for cond, level, esc, rep, n in itertools.product("AB", (1, 2, 3), (1, 2, 3), (0, 2), (1, 3))
}
# A config has a few hundred states; more means some field grows without bound.
MAX_STATES = 5_000


def canonical(state: orc.OrchestratorState, config: orc.OrchestratorConfig):
    h, n = state.hint_index, len(config.roi_labels)
    return state if h <= n else replace(state, hint_index=(h - 1) % n + 1)


def check_edge(before, event, after, actions, config) -> None:
    assert after.assist_level >= before.assist_level, "the level drops"
    assert after.assist_level - before.assist_level <= 1, "the level skips one"
    if after.step is not None:
        i0 = -1 if before.step is None else STEP_ORDER.index(before.step)
        assert STEP_ORDER.index(after.step) - i0 in (0, 1), "a step is skipped or goes back"
    if config.passive:
        assert not [a for a in actions if a.kind in orc.MOTION_ACTION_KINDS], "A moves"
    if before.terminal:
        assert (after, actions) == (before, []), "a terminal state moves"
    if after.phase is Phase.ABORTED and before.phase is not Phase.ABORTED:
        assert any(a.kind is orc.ActionKind.NOTIFY_CAREGIVER for a in actions), "silent abort"
    if after.phase is Phase.DONE and before.phase is not Phase.DONE:
        confirmed = (
            before.phase is Phase.AWAITING_FINAL_CONFIRM
            and event.kind is EventKind.RECORD_PRESSED
            and orc.interpret(event.transcript) is IntentKind.CONFIRM
        )
        opened = config.passive and event.action is UserActionKind.OPENS_BOTTLE
        assert confirmed or opened, "done without the final confirm"


def explore(config: orc.OrchestratorConfig) -> dict:
    """Every reachable canonical state, mapped to the states it steps to."""
    start = canonical(orc.initial_state(config), config)
    graph, queue = {start: set()}, deque([start])
    while queue:
        state = queue.popleft()
        for event in INPUTS:
            after, actions = orc.step(state, event, config)
            try:
                check_edge(state, event, after, actions, config)
            except AssertionError as exc:
                raise AssertionError(f"{state} on {event.describe()}: {exc}") from None
            after = canonical(after, config)
            graph[state].add(after)
            if after not in graph:
                graph[after] = set()
                queue.append(after)
        assert len(graph) <= MAX_STATES, f"over {MAX_STATES} states"
    return graph


def test_inputs_cover_every_intent_and_event_kind():
    assert set(TRANSCRIPTS) == set(IntentKind)
    assert all(orc.interpret(text) is intent for intent, text in TRANSCRIPTS.items())
    assert {event.kind for event in INPUTS} == set(EventKind)


@pytest.mark.parametrize("key", CONFIGS)
def test_every_reachable_state_is_safe_and_can_terminate(key):
    config = harness.guided_config(**CONFIGS[key])
    graph = explore(config)
    predecessors = {state: [] for state in graph}
    for state, successors in graph.items():
        for after in successors:
            predecessors[after].append(state)
    ends = deque(state for state in graph if state.terminal)
    can_end = set(ends)
    while ends:
        for before in predecessors[ends.popleft()]:
            if before not in can_end:
                can_end.add(before)
                ends.append(before)
    stuck = [state for state in graph if state not in can_end]
    assert stuck == [], f"{len(stuck)} of {len(graph)} states cannot terminate, e.g. {stuck[0]}"
