"""Discrete-event model of the assisted user, plus synthetic gaze streams.

User profiles capture how often a simulated participant ignores reminders,
how far the bottle drifts from its usual spot, and how much they struggle
with individual guidance steps.  Responses are drawn from dedicated RNG
streams so episodes replay bit-for-bit.  Gaze is emitted as a 180 Hz
stream of area-of-interest codes (a ``uint8`` array whose sample k sits at
t = k / 180); sustained off-task runs that contain no robot action are
flagged as confusion events.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .orchestrator import EXPECTED_ACTION, GuidanceStep, UserActionKind

GAZE_SAMPLE_RATE_HZ = 180.0
DEFAULT_CONFUSION_THRESHOLD_S = 3.0

# Reply latency (s): normal with this mean and spread, floored at 0.5 s.
LATENCY_MEAN_S = 4.0
LATENCY_SD_S = 1.5
# Unaided search time (s) for a bottle that never drifts, and its spread.
BASE_SEARCH_S = 42.0
SEARCH_SD_S = 8.0


class Aoi(IntEnum):
    """Area of interest a gaze sample lands on; the value is its stream code."""

    BOTTLE = 0
    ROBOT = 1
    ELSEWHERE = 2


@dataclass(frozen=True)
class ConfusionEvent:
    """A maximal off-task gaze run long enough to signal the user is lost."""

    t_start: float
    t_end: float


@dataclass(frozen=True)
class UserProfile:
    """Behavioral parameters of a simulated participant, one of ``PROFILE_PRESETS``."""

    name: str
    p_forget: float = 0.1  # chance of not answering a reminder
    p_misplace: float = 0.1  # bottle drift: placement odds and search slowdown
    p_struggle: float = 0.1  # chance of failing a guidance step attempt


PROFILE_PRESETS: dict[str, UserProfile] = {
    "healthy": UserProfile("healthy", p_forget=0.05, p_misplace=0.10, p_struggle=0.05),
    "forgets": UserProfile("forgets", p_forget=0.60, p_misplace=0.20, p_struggle=0.10),
    "misplaces": UserProfile(
        "misplaces", p_forget=0.15, p_misplace=0.60, p_struggle=0.15
    ),
    "needs_step_by_step": UserProfile(
        "needs_step_by_step", p_forget=0.40, p_misplace=0.30, p_struggle=0.50
    ),
}


@dataclass(frozen=True)
class Prompt:
    """What the robot just asked of the user: a reminder when ``step`` is
    None, else the guidance step."""

    level: int = 1
    step: GuidanceStep | None = None
    attempt: int = 0  # how many times this ask has already been made


@dataclass(frozen=True)
class UserReply:
    """A (possibly silent) user reaction to a prompt.

    ``latency_s`` is None for silence; callers translate silence into an
    orchestrator timeout.
    """

    latency_s: float | None = None
    transcript: str | None = None
    action: UserActionKind | None = None
    pressed_start: bool = False

    @property
    def silent(self) -> bool:
        return self.latency_s is None


_REMINDER_OK = ("okay", "yes, coming", "all right", "okay, I'm ready")
_STEP_OK: dict[GuidanceStep, tuple[str, ...]] = {
    GuidanceStep.LOCATE_BOTTLE: ("yes, I see it", "I can see it, yes", "found it, yes"),
    GuidanceStep.OPEN_BOTTLE: ("okay, opened it", "it's open, done", "done"),
    GuidanceStep.TAKE_PILLS: ("done, took them", "I took the pills, yes", "okay, done"),
    GuidanceStep.DRINK_WATER: ("done", "okay, drank it", "yes, done"),
    GuidanceStep.CONFIRM_INTAKE: ("yes, I took my medicine", "yes, all done", "yes"),
}
_STEP_DENY = ("not yet", "no, not yet", "no")


def _latency(rng: np.random.Generator) -> float:
    return max(0.5, LATENCY_MEAN_S + LATENCY_SD_S * rng.standard_normal())


def _pick(options: tuple[str, ...], rng: np.random.Generator) -> str:
    return options[int(rng.integers(0, len(options)))]


def respond(profile: UserProfile, prompt: Prompt, rng: np.random.Generator) -> UserReply:
    """Draw the user's reaction to a robot prompt.

    Re-asks get easier to land: the odds of silence or struggling decay with
    each attempt, which mirrors how persistent prompting eventually gets
    through and keeps simulated sessions from stalling forever.
    """
    if prompt.step is None:
        p_silent = profile.p_forget * (0.5 ** prompt.attempt)
        if rng.random() < p_silent:
            return UserReply()
        latency = _latency(rng)
        if prompt.level >= 3:
            return UserReply(latency_s=latency, pressed_start=True)
        return UserReply(latency_s=latency, transcript=_pick(_REMINDER_OK, rng))
    p_fail = profile.p_struggle * (0.6 ** prompt.attempt)
    if rng.random() < p_fail:
        if rng.random() < 0.5:
            return UserReply(latency_s=_latency(rng), transcript=_pick(_STEP_DENY, rng))
        return UserReply()
    return UserReply(
        latency_s=_latency(rng),
        transcript=_pick(_STEP_OK[prompt.step], rng),
        action=EXPECTED_ACTION[prompt.step],
    )


def search_behavior(profile: UserProfile, rng: np.random.Generator, guided: bool) -> float:
    """Seconds the user needs to find the bottle.

    Guided search (the robot is pointing at the bottle) is a quick glance;
    unaided search scales with how far the bottle tends to drift from its
    usual spot.
    """
    if guided:
        return max(1.0, 4.0 + 1.0 * rng.standard_normal())
    slowdown = 1.0 + 2.0 * profile.p_misplace
    return max(5.0, BASE_SEARCH_S * slowdown + SEARCH_SD_S * rng.standard_normal())


def choose_bottle_roi(n_rois: int, profile: UserProfile, rng: np.random.Generator) -> int:
    """Index of the region the bottle actually sits in (0 = usual spot) of
    ``n_rois`` >= 1 regions."""
    if n_rois == 1 or rng.random() >= profile.p_misplace:
        return 0
    return int(rng.integers(1, n_rois))


# ---------------------------------------------------------------------------
# Gaze streams


@dataclass(frozen=True)
class GazeWindow:
    """A span of the episode that biases where the user looks.

    kind:
      * "attention": user is engaging with the robot (reminders, prompts)
      * "bottle": user is looking toward or handling the bottle
      * "confusion_candidate": struggle or timeout span where a sustained
        off-task run may be injected
    """

    kind: str
    t_start: float
    t_end: float


@dataclass(frozen=True)
class GazeTimeline:
    duration_s: float
    windows: tuple[GazeWindow, ...] = ()


_BASELINE_WEIGHTS = {Aoi.ELSEWHERE: 0.55, Aoi.BOTTLE: 0.25, Aoi.ROBOT: 0.20}
_ATTENTION_WEIGHTS = {Aoi.ROBOT: 0.70, Aoi.BOTTLE: 0.10, Aoi.ELSEWHERE: 0.20}
_BOTTLE_WEIGHTS = {Aoi.BOTTLE: 0.70, Aoi.ROBOT: 0.10, Aoi.ELSEWHERE: 0.20}
_MIN_BLOCK_S = 0.4
_MAX_BLOCK_S = 1.8  # keeps natural off-task runs well under the threshold
# No fixation block holds more samples than this (nor fewer than 72).
_MAX_BLOCK_N = round(_MAX_BLOCK_S * GAZE_SAMPLE_RATE_HZ)
# Weight-table row of a window kind that biases gaze; row 0 is the baseline.
_WINDOW_ROW = {"attention": 1, "bottle": 2}


def _aoi_cdfs() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """AOI codes, running weight sums and totals of each weight table, indexed
    [row, forbid] where forbid 1 leaves ELSEWHERE out.  Sums run in table
    order, as a scalar draw adds them; the codes are padded with the last AOI
    and the sums with +inf, so a draw never runs off the end."""
    codes = np.zeros((3, 2, len(Aoi)), dtype=np.uint8)
    sums = np.full((3, 2, len(Aoi)), math.inf)
    totals = np.zeros((3, 2))
    for row, weights in enumerate((_BASELINE_WEIGHTS, _ATTENTION_WEIGHTS, _BOTTLE_WEIGHTS)):
        for forbid in (0, 1):
            items = [(a, w) for a, w in weights.items() if not (forbid and a is Aoi.ELSEWHERE)]
            acc = list(itertools.accumulate(w for _, w in items))
            codes[row, forbid] = [a for a, _ in items] + [items[-1][0]] * (len(Aoi) - len(items))
            sums[row, forbid, : len(acc)] = acc
            totals[row, forbid] = acc[-1]
    return codes, sums, totals


_AOI_CODES, _AOI_SUMS, _AOI_TOTALS = _aoi_cdfs()


def gaze_stream(
    timeline: GazeTimeline,
    profile: UserProfile,
    rng: np.random.Generator,
) -> tuple[np.ndarray, list[tuple[float, float]]]:
    """Synthesize a fixed-rate gaze stream for one episode.

    Returns a ``uint8`` array of ``Aoi`` codes, one per sample, where sample
    k sits at t = k / GAZE_SAMPLE_RATE_HZ for k = 0 .. ceil(duration * rate)
    - 1, so every full second holds exactly ``rate`` samples.  The duration
    must be positive.  Fixation
    blocks alternate between areas of interest with durations short enough
    that organic off-task runs never cross the confusion threshold;
    confusion is injected only inside candidate windows (with probability
    equal to the profile's struggle rate) as a contiguous off-task run
    slightly longer than the threshold.  Also returns the injected run
    spans.
    """
    rate = GAZE_SAMPLE_RATE_HZ
    n = int(math.ceil(timeline.duration_s * rate))

    # Fixation blocks: each takes two draws, its AOI and its duration.  A
    # chunk draws ceil(left / _MAX_BLOCK_N) blocks at once: all of them are
    # needed, so the generator ends where one draw per AOI and per duration
    # would leave it.
    aoi_draws, counts = [], []
    k = 0
    while k < n:
        draws = rng.random(2 * math.ceil((n - k) / _MAX_BLOCK_N))
        aoi_draws.append(draws[0::2])
        counts.append(np.round((_MIN_BLOCK_S + (_MAX_BLOCK_S - _MIN_BLOCK_S) * draws[1::2]) * rate))
        k += int(counts[-1].sum())
    count = np.concatenate(counts)
    # A block's AOI is weighted by the first attention or bottle window that
    # holds its start time (summed block by block from 0, as a clock would),
    # and never repeats ELSEWHERE, so natural runs stay below one block length.
    t = np.cumsum(np.concatenate(([0.0], count[:-1] / rate)))
    windows = [w for w in timeline.windows if w.kind in _WINDOW_ROW]
    # Start times rise, so the blocks a window holds are one slice of them.
    spans = np.searchsorted(t, [(w.t_start, w.t_end) for w in windows]).tolist()
    row = np.zeros(len(count), dtype=np.intp)
    for w, (i0, i1) in reversed(list(zip(windows, spans))):  # so the first window wins
        row[i0:i1] = _WINDOW_ROW[w.kind]
    r = np.concatenate(aoi_draws)[:, None] * _AOI_TOTALS[row]  # (blocks, forbid)
    pick = _AOI_CODES[row[:, None], (0, 1), (r[..., None] > _AOI_SUMS[row]).sum(-1)]
    aois: list[int] = []
    prev, elsewhere = None, int(Aoi.ELSEWHERE)
    for free, forbidden in pick.tolist():
        prev = forbidden if prev == elsewhere else free
        aois.append(prev)
    codes = np.repeat(np.array(aois, dtype=np.uint8), count.astype(np.intp))[:n]

    # Inject sustained off-task runs inside candidate windows.
    inserted: list[tuple[float, float]] = []
    for window in timeline.windows:
        if window.kind != "confusion_candidate":
            continue
        if rng.random() >= profile.p_struggle:
            continue
        run_s = DEFAULT_CONFUSION_THRESHOLD_S + 1.0 + rng.uniform(0.0, 1.0)
        start_t = window.t_start + rng.uniform(
            0.0, max(0.0, (window.t_end - window.t_start) - run_s)
        )
        k0 = int(math.ceil(start_t * rate))
        k1 = min(n - 1, k0 + int(round(run_s * rate)) - 1)
        if k1 - k0 < 1:
            continue
        codes[k0 : k1 + 1] = Aoi.ELSEWHERE
        inserted.append((k0 / rate, k1 / rate))
    return codes, inserted


def detect_confusion(
    codes: np.ndarray,
    action_times: list[float] | tuple[float, ...] = (),
    threshold_s: float = DEFAULT_CONFUSION_THRESHOLD_S,
) -> list[ConfusionEvent]:
    """Find maximal off-task runs in a gaze code stream spanning at least the threshold.

    ``codes`` is a stream as ``gaze_stream`` returns it: sample k sits at
    t = k / GAZE_SAMPLE_RATE_HZ.  A run is confusion only if no robot action
    timestamp falls inside its closed time span; an action mid-run means the
    user was plausibly reacting to the robot rather than lost.
    """
    off = codes == Aoi.ELSEWHERE
    edges = np.flatnonzero(np.diff(off, prepend=False, append=False))
    t0 = edges[0::2] / GAZE_SAMPLE_RATE_HZ
    t1 = (edges[1::2] - 1) / GAZE_SAMPLE_RATE_HZ
    events: list[ConfusionEvent] = []
    for a, b in zip(t0.tolist(), t1.tolist()):
        if b - a >= threshold_s and not any(a <= t <= b for t in action_times):
            events.append(ConfusionEvent(a, b))
    return events
