import math

import numpy as np
import pytest

from aansim import seeding
from aansim import usersim as us
from aansim.episode import run_episode
from aansim.orchestrator import GuidanceStep, interpret, IntentKind

from oracles import gaze_stream_reference


def profile(**over):
    base = dict(name="t", p_forget=0.1, p_misplace=0.1, p_struggle=0.1)
    base.update(over)
    return us.UserProfile(**base)


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# Profiles


def test_profile_presets_exist_and_validate():
    for name, p in us.PROFILE_PRESETS.items():
        assert p.name == name
        assert 0.0 <= p.p_forget <= 1.0
        assert 0.0 <= p.p_misplace <= 1.0
        assert 0.0 <= p.p_struggle <= 1.0


# ---------------------------------------------------------------------------
# Prompt responses


def test_reminder_reply_is_deterministic_per_seed():
    p = us.PROFILE_PRESETS["misplaces"]
    prompt = us.Prompt(level=3)
    a = [us.respond(p, prompt, rng(7)) for _ in range(5)]
    b = [us.respond(p, prompt, rng(7)) for _ in range(5)]
    assert a == b


def test_reminder_at_l3_presses_start():
    p = profile(p_forget=0.0)
    reply = us.respond(p, us.Prompt(level=3), rng(1))
    assert reply.pressed_start
    assert reply.latency_s >= 0.5


def test_reminder_below_l3_confirms_verbally():
    p = profile(p_forget=0.0)
    reply = us.respond(p, us.Prompt(level=1), rng(1))
    assert not reply.pressed_start
    assert interpret(reply.transcript) is IntentKind.CONFIRM


def test_forgetting_decays_with_repeated_attempts():
    # P(silence) = p_forget * 0.5^attempt: strictly fewer silences at
    # higher attempt numbers over an identical seed sweep.
    p = profile(p_forget=0.8)
    silents = []
    for attempt in (0, 2):
        n = sum(
            us.respond(p, us.Prompt(level=1, attempt=attempt), rng(s)).silent
            for s in range(400)
        )
        silents.append(n)
    assert silents[0] > silents[1]
    assert silents[1] > 0  # decayed, not eliminated


def test_step_reply_matches_expected_action():
    p = profile(p_struggle=0.0)
    for step in GuidanceStep:
        prompt = us.Prompt(level=3, step=step)
        reply = us.respond(p, prompt, rng(3))
        assert reply.action is not None
        assert reply.transcript is not None
        assert interpret(reply.transcript) is IntentKind.CONFIRM


def test_struggling_user_denies_or_goes_silent():
    p = profile(p_struggle=1.0)
    prompt = us.Prompt(level=1, step=GuidanceStep.OPEN_BOTTLE)
    denies = silences = 0
    for s in range(200):
        reply = us.respond(p, prompt, rng(s))
        if reply.silent:
            silences += 1
        else:
            assert reply.action is None
            assert interpret(reply.transcript) is IntentKind.DENY
            denies += 1
    assert denies > 50 and silences > 50


def test_latency_floor_is_half_second():
    # The floor sits 2.33 sd below the mean, so about 1% of draws land on it.
    gen = rng(3)
    latencies = [us._latency(gen) for _ in range(5000)]
    assert min(latencies) == 0.5
    assert 10 < latencies.count(0.5) < 100


def test_canned_replies_read_as_their_intent():
    confirms = list(us._REMINDER_OK) + [t for ts in us._STEP_OK.values() for t in ts]
    assert all(interpret(t) is IntentKind.CONFIRM for t in confirms)
    assert all(interpret(t) is IntentKind.DENY for t in us._STEP_DENY)


# ---------------------------------------------------------------------------
# Search behavior and bottle placement


def test_search_time_guided_vs_unaided():
    p = us.PROFILE_PRESETS["misplaces"]
    g = [us.search_behavior(p, rng(s), guided=True) for s in range(200)]
    u = [us.search_behavior(p, rng(s), guided=False) for s in range(200)]
    assert all(x >= 1.0 for x in g)
    assert all(x >= 5.0 for x in u)
    assert np.mean(g) < np.mean(u)


def test_unaided_search_grows_with_misplacement():
    tidy = profile(p_misplace=0.0)
    messy = profile(p_misplace=0.9)
    t = np.mean([us.search_behavior(tidy, rng(s), guided=False) for s in range(300)])
    m = np.mean([us.search_behavior(messy, rng(s), guided=False) for s in range(300)])
    assert m > t


def test_choose_bottle_roi_bounds_and_bias():
    p = profile(p_misplace=0.3)
    picks = [us.choose_bottle_roi(3, p, rng(s)) for s in range(600)]
    assert set(picks) <= {0, 1, 2}
    frac_home = picks.count(0) / len(picks)
    assert 0.6 < frac_home < 0.8  # 1 - p_misplace = 0.7
    assert us.choose_bottle_roi(1, profile(p_misplace=1.0), rng(0)) == 0


# ---------------------------------------------------------------------------
# Gaze stream generation


def test_gaze_stream_exact_sample_rate():
    timeline = us.GazeTimeline(duration_s=1.0)
    codes, _ = us.gaze_stream(timeline, profile(), rng(0))
    assert codes.dtype == np.uint8
    assert len(codes) == 180  # sample k sits at k / 180 s
    assert set(codes.tolist()) <= {int(a) for a in us.Aoi}
    codes10, _ = us.gaze_stream(us.GazeTimeline(duration_s=10.0), profile(), rng(0))
    assert len(codes10) == 1800


def test_gaze_stream_natural_runs_stay_below_threshold():
    # Without confusion-candidate windows no off-task run may reach the
    # detection threshold, whatever the profile.
    p = profile(p_struggle=1.0)
    timeline = us.GazeTimeline(duration_s=60.0)
    codes, inserted = us.gaze_stream(timeline, p, rng(11))
    assert inserted == []
    events = us.detect_confusion(codes, (), threshold_s=3.0)
    assert events == []


def test_gaze_stream_inserts_detectable_confusion_runs():
    p = profile(p_struggle=1.0)
    windows = (
        us.GazeWindow("confusion_candidate", 5.0, 25.0),
        us.GazeWindow("confusion_candidate", 30.0, 50.0),
    )
    timeline = us.GazeTimeline(duration_s=60.0, windows=windows)
    codes, inserted = us.gaze_stream(timeline, p, rng(4))
    assert len(inserted) == 2
    events = us.detect_confusion(codes, (), threshold_s=3.0)
    assert len(events) >= 2
    for t0, t1 in inserted:
        # The maximal detected run contains the injected span (it may extend
        # into adjoining natural off-task fixations).
        assert any(e.t_start <= t0 and e.t_end >= t1 for e in events)
        assert t1 - t0 >= 3.0  # injected runs are genuinely super-threshold


def test_gaze_stream_insertion_probability_follows_struggle():
    windows = (us.GazeWindow("confusion_candidate", 2.0, 20.0),)
    timeline = us.GazeTimeline(duration_s=25.0, windows=windows)
    never, _ = us.gaze_stream(timeline, profile(p_struggle=0.0), rng(5))
    assert us.detect_confusion(never, (), 3.0) == []
    hits = 0
    for s in range(60):
        _, ins = us.gaze_stream(timeline, profile(p_struggle=0.5), rng(s))
        hits += bool(ins)
    assert 15 <= hits <= 45  # ~30 expected


def test_gaze_stream_is_deterministic():
    windows = (us.GazeWindow("confusion_candidate", 2.0, 12.0),)
    timeline = us.GazeTimeline(duration_s=15.0, windows=windows)
    a, ia = us.gaze_stream(timeline, profile(p_struggle=0.7), rng(9))
    b, ib = us.gaze_stream(timeline, profile(p_struggle=0.7), rng(9))
    assert ia == ib
    assert np.array_equal(a, b)


@pytest.fixture(scope="module")
def lab_timelines(lab_scenario):
    """The gaze timeline and profile of lab_study seeds 0-99 under A and B,
    captured from ``run_episode``."""
    captured = []
    real = us.gaze_stream

    def capture(timeline, user, gaze_rng):
        captured.append((timeline, user))
        return real(timeline, user, gaze_rng)

    us.gaze_stream = capture
    try:
        for seed in range(100):
            for condition in ("A", "B"):
                run_episode(lab_scenario, condition, seed)
    finally:
        us.gaze_stream = real
    return captured


def assert_matches_reference(timeline, user, seed):
    """Codes, injected runs and the generator's next draw equal the per-block oracle's."""
    ours, ref = seeding.stream(seed, "A", "gaze"), seeding.stream(seed, "A", "gaze")
    codes, inserted = us.gaze_stream(timeline, user, ours)
    ref_codes, ref_inserted = gaze_stream_reference(timeline, user, ref)
    assert codes.dtype == ref_codes.dtype
    assert codes.tobytes() == ref_codes.tobytes()
    assert inserted == ref_inserted
    assert ours.random() == ref.random()  # both consumed the same number of draws


def test_gaze_stream_matches_reference_on_lab_study(lab_timelines):
    assert len(lab_timelines) == 200
    for seed, (timeline, user) in enumerate(lab_timelines):
        assert_matches_reference(timeline, user, seed)


def _ends_on_block_boundary(seed: int) -> float:
    """A duration whose last sample closes a fixation block of the stream ``seed``."""
    draws = seeding.stream(seed, "A", "gaze").random(40)
    durations = us._MIN_BLOCK_S + (us._MAX_BLOCK_S - us._MIN_BLOCK_S) * draws[1::2]
    counts = np.round(durations * us.GAZE_SAMPLE_RATE_HZ)
    for n in np.cumsum(counts).astype(int).tolist():
        duration = n / us.GAZE_SAMPLE_RATE_HZ
        if math.ceil(duration * us.GAZE_SAMPLE_RATE_HZ) == n:
            return duration
    raise AssertionError("no block boundary is an exact sample count")


def _w(kind, t0, t1):
    return us.GazeWindow(kind, t0, t1)


EDGE_TIMELINES = {
    "one_sample": us.GazeTimeline(0.001),
    "ends_on_block_boundary": None,  # per seed, from _ends_on_block_boundary
    "attention_then_bottle": us.GazeTimeline(
        20.0, (_w("attention", 1.0, 9.0), _w("bottle", 5.0, 14.0))),
    "bottle_then_attention": us.GazeTimeline(
        20.0, (_w("bottle", 1.0, 9.0), _w("attention", 5.0, 14.0))),
    "window_past_duration": us.GazeTimeline(
        10.0, (_w("bottle", 12.0, 20.0), _w("confusion_candidate", 11.0, 19.0))),
    "zero_width_window": us.GazeTimeline(
        10.0, (_w("attention", 3.0, 3.0), _w("bottle", 0.0, 0.0))),
    "confusion_at_end": us.GazeTimeline(
        12.0, (_w("confusion_candidate", 6.0, 12.0), _w("confusion_candidate", 11.99, 12.0))),
    "long_mixed": us.GazeTimeline(400.0, (
        _w("attention", 0.0, 30.0), _w("confusion_candidate", 20.0, 60.0),
        _w("bottle", 25.0, 90.0), _w("attention", 80.0, 81.0), _w("bottle", 200.0, 399.5))),
}


@pytest.mark.parametrize("p_struggle", [0.0, 1.0])
@pytest.mark.parametrize("case", sorted(EDGE_TIMELINES))
def test_gaze_stream_matches_reference_on_edge_cases(case, p_struggle):
    user = profile(p_struggle=p_struggle)
    for seed in range(25):
        timeline = EDGE_TIMELINES[case] or us.GazeTimeline(_ends_on_block_boundary(seed))
        assert_matches_reference(timeline, user, seed)


def test_batched_uniform_map_equals_generator_uniform():
    # gaze_stream draws block durations in bulk as lo + (hi - lo) * random();
    # a numpy build whose Generator.uniform rounds differently would change
    # every log, so it must fail here first.
    lo, hi = us._MIN_BLOCK_S, us._MAX_BLOCK_S
    d = seeding.stream(7, "A", "gaze").random(2_000_000)
    assert np.array_equal(lo + (hi - lo) * d, seeding.stream(7, "A", "gaze").uniform(lo, hi, d.size))
    # Scalar calls interleaved with random(), as one draw per block pair each.
    # (1M scalar pairs take seconds; the element routine is the one checked above.)
    rng = seeding.stream(7, "A", "gaze")
    interleaved = [(rng.random(), rng.uniform(lo, hi))[1] for _ in range(100_000)]
    assert np.array_equal(np.array(interleaved), lo + (hi - lo) * d[1:200_000:2])


# ---------------------------------------------------------------------------
# Confusion detection vs brute-force oracle


def _stream_from(segments):
    """Code stream of (aoi, sample count) segments; sample k sits at k / 180 s."""
    return np.concatenate([np.full(n, aoi, dtype=np.uint8) for aoi, n in segments])


def test_confusion_requires_full_threshold_span():
    # On the k / 180 grid a run from k = 0 to k = 540 spans exactly 3.0 s;
    # one sample fewer falls just short.
    codes = _stream_from([(us.Aoi.ELSEWHERE, 540), (us.Aoi.BOTTLE, 10)])
    assert us.detect_confusion(codes, (), 3.0) == []
    codes = _stream_from([(us.Aoi.ELSEWHERE, 541), (us.Aoi.BOTTLE, 10)])
    events = us.detect_confusion(codes, (), 3.0)
    assert len(events) == 1
    assert events[0].t_end - events[0].t_start == 3.0


def test_confusion_suppressed_by_action_inside_closed_interval():
    dt = 1.0 / 180.0
    n = int(4.0 / dt) + 1
    codes = _stream_from([(us.Aoi.ROBOT, 10), (us.Aoi.ELSEWHERE, n), (us.Aoi.ROBOT, 5)])
    run_start = 10 / 180.0
    run_end = (10 + n - 1) / 180.0
    assert us.detect_confusion(codes, (run_start + 1.0,), 3.0) == []
    # Actions exactly on the closed endpoints also suppress.
    assert us.detect_confusion(codes, (run_start,), 3.0) == []
    assert us.detect_confusion(codes, (run_end,), 3.0) == []
    # An action just outside does not.
    assert len(us.detect_confusion(codes, (run_end + dt / 2,), 3.0)) == 1


def test_confusion_maximal_runs_not_split():
    # One long run must yield one event, not several overlapping ones.
    n = 1800
    codes = _stream_from([(us.Aoi.ELSEWHERE, n)])
    events = us.detect_confusion(codes, (), 3.0)
    assert len(events) == 1
    assert events[0].t_start == 0.0
    assert events[0].t_end == (n - 1) / 180.0
