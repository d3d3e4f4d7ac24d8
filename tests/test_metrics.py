import csv
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from aansim import metrics as m
from aansim.session import SessionLog


# ---------------------------------------------------------------------------
# Workload score


def test_raw_tlx_uniform_two_maps_to_eleven_point_one():
    score = m.TLX.score((2, 2, 2, 2, 2, 2))
    assert score == pytest.approx(100.0 / 9.0, abs=1e-12)
    assert round(score, 2) == 11.11


def test_raw_tlx_uniform_two_point_five():
    score = m.TLX.score((2.5, 2.5, 2.5, 2.5, 2.5, 2.5))
    assert score == pytest.approx(150.0 / 9.0, abs=1e-12)
    assert round(score, 2) == 16.67


def test_raw_tlx_mean_of_two_raters():
    a = m.TLX.score((2, 2, 2, 2, 2, 2))
    b = m.TLX.score((2.5, 2.5, 2.5, 2.5, 2.5, 2.5))
    assert (a + b) / 2.0 == pytest.approx(125.0 / 9.0, abs=1e-12)
    assert round((a + b) / 2.0, 2) == 13.89


def test_raw_tlx_anchors_and_mixed_items():
    assert m.TLX.score((1, 1, 1, 1, 1, 1)) == 0.0
    assert m.TLX.score((10, 10, 10, 10, 10, 10)) == 100.0
    # Independent fraction arithmetic for a mixed response.
    vals = (1, 3, 5, 7, 9, 10)
    want = sum(Fraction(v - 1, 9) * 100 for v in vals) / 6
    assert m.TLX.score(vals) == pytest.approx(float(want), abs=1e-12)


@pytest.mark.parametrize("bad", [0, 0.99, 10.01, 11, -3])
def test_raw_tlx_rejects_out_of_scale(bad):
    with pytest.raises(m.OutOfRange):
        m.TLX.adjusted((2, 2, bad, 2, 2, 2))


# ---------------------------------------------------------------------------
# Usability composite


def test_usability_perfect_response_is_not_100_with_reverse_items():
    # q2/q4 are negatively phrased: all-5 scores 5,1,5,1,5 after reversal.
    score = m.USABILITY.score((5, 5, 5, 5, 5))
    want = (100.0 + 0.0 + 100.0 + 0.0 + 100.0) / 5.0
    assert score == pytest.approx(want, abs=1e-12)


def test_usability_best_possible_pattern():
    assert m.USABILITY.score((5, 1, 5, 1, 5)) == 100.0
    assert m.USABILITY.score((1, 5, 1, 5, 1)) == 0.0


def test_usability_integer_fixture_scores_85():
    score = m.USABILITY.score((5, 1, 4, 2, 4))
    # adjusted: 5, 5, 4, 4, 4 -> item scores 100, 100, 75, 75, 75
    assert score == 85.0
    mixed = m.USABILITY.score((5, 1, 5, 2, 4.5))
    # adjusted: 5, 5, 5, 4, 4.5 -> mean 4.7 -> (3.7/4)*100 = 92.5
    assert mixed == pytest.approx(92.5, abs=1e-12)


def test_usability_adjusted_mean_41_over_9_maps_to_800_over_9():
    # An adjusted item mean of 41/9 on the 1..5 scale rescales to
    # ((41/9 - 1) / 4) * 100 = 800/9 ~ 88.89.
    v, r = 41.0 / 9.0, 6.0 - 41.0 / 9.0
    score = m.USABILITY.score((v, r, v, r, v))
    assert score == pytest.approx(800.0 / 9.0, abs=1e-9)
    assert round(score, 2) == 88.89


def test_usability_adjusted_items_reverse_q2_q4():
    assert m.USABILITY.adjusted((3, 2, 3, 4, 3)) == (3, 4, 3, 2, 3)


@pytest.mark.parametrize("bad", [0, 0.5, 5.5, 6])
def test_usability_rejects_out_of_scale(bad):
    with pytest.raises(m.OutOfRange):
        m.USABILITY.adjusted((3, bad, 3, 3, 3))


# ---------------------------------------------------------------------------
# Internal consistency (Cronbach's alpha)


def test_cronbach_alpha_exact_hand_computed_fixture():
    # items as columns; population variances: 8/3, 2/3, 2/3; total 32/3.
    data = [[2, 3, 4], [4, 4, 5], [6, 5, 6]]
    want = Fraction(3, 2) * (1 - Fraction(8, 3) / Fraction(32, 3) - Fraction(2, 3) / Fraction(32, 3) * 2)
    assert float(want) == 0.9375
    assert m.cronbach_alpha(data) == pytest.approx(0.9375, abs=1e-12)


def test_cronbach_alpha_duplicated_item_is_exactly_one():
    data = [[1, 1], [2, 2], [3, 3]]
    assert m.cronbach_alpha(data) == pytest.approx(1.0, abs=1e-12)


def test_cronbach_alpha_independent_noise_is_low():
    rng = np.random.default_rng(0)
    data = rng.normal(size=(500, 4))
    alpha = m.cronbach_alpha(data)
    assert abs(alpha) < 0.2


def test_cronbach_alpha_reverse_coding_restores_consistency():
    rng = np.random.default_rng(1)
    latent = rng.normal(size=400)
    pos = latent + 0.1 * rng.normal(size=400)
    neg = 6.0 - (latent + 0.1 * rng.normal(size=400))  # reversed on a 1..5-style scale
    raw = np.column_stack([pos, neg])
    flipped = m.cronbach_alpha(np.column_stack([pos, 6.0 - neg]))
    assert m.cronbach_alpha(raw) < 0.0 < flipped
    assert flipped > 0.9


def test_cronbach_alpha_degenerate_inputs_raise():
    with pytest.raises(m.DegenerateData):
        m.cronbach_alpha([[1, 2]])  # single respondent
    with pytest.raises(m.DegenerateData):
        m.cronbach_alpha([[2, 2], [2, 2], [2, 2]])  # zero total variance


# ---------------------------------------------------------------------------
# Distribution summaries


def test_summarize_location_and_median_interval():
    vals = [3.0, 4.5, 1.0, 7.25, 5.5, 2.0, 6.75]
    s = m.summarize(vals)
    assert s.n == 7
    assert s.mean == pytest.approx(np.mean(vals), abs=1e-12)
    assert s.median == pytest.approx(np.median(vals), abs=1e-12)
    assert s.q1 == pytest.approx(np.percentile(vals, 25), abs=1e-12)
    assert s.q3 == pytest.approx(np.percentile(vals, 75), abs=1e-12)
    # P(Bin(7, 1/2) <= 0) = 1/128 <= 0.025 < P(<= 1) = 8/128, so k = 1.
    assert s.ci95 == (1.0, 7.25)


@pytest.mark.parametrize(
    "vals, ci",
    [
        # n = 6: P(Bin <= 0) = 1/64 <= 0.025 < 7/64, so k = 1: the extremes.
        ([5.0, -1.0, 2.5, 9.0, 0.0, 4.0], (-1.0, 9.0)),
        # n = 10: P(Bin <= 1) = 11/1024 <= 0.025 < P(<= 2) = 56/1024, so k = 2:
        # x_(2) and x_(9), whatever the input order.
        ([10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0], (2.0, 9.0)),
        # n = 30: P(Bin <= 9) = 22,964,087 / 2^30 = 0.0214 <= 0.025 and
        # P(<= 10) = 53,009,102 / 2^30 = 0.0494, so k = 10: x_(10) and x_(21).
        ([float(x * x) for x in range(30, 0, -1)], (100.0, 441.0)),
        # Ties and a count that is 0 in 28 of 30 sessions stay in the data's range.
        ([0.0] * 28 + [1.0, 2.0], (0.0, 0.0)),
    ],
    ids=["n6", "n10", "n30", "n30_mostly_zero"],
)
def test_summarize_median_interval_by_hand(vals, ci):
    assert m.summarize(vals).ci95 == ci


def test_median_interval_rank_matches_scipy_binom():
    # k is the largest index with P(Bin(n, 1/2) <= k - 1) <= 0.025; on the
    # values 1..n the interval is (k, n + 1 - k).
    for n in range(1, 201):
        want = 0
        while want < n and stats.binom.cdf(want, n, 0.5) <= 0.025:
            want += 1
        ci = m.summarize(range(1, n + 1)).ci95
        assert ci == ((want, n + 1 - want) if want else None), n


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_summarize_five_or_fewer_values_have_no_interval(n):
    # P(Bin(5, 1/2) <= 0) = 1/32 > 0.025: no order statistic reaches 95%.
    assert m.summarize(np.arange(float(n))).ci95 is None


def test_summarize_single_value_has_no_interval():
    s = m.summarize([4.0])
    assert s.n == 1
    assert s.mean == 4.0 and s.median == 4.0
    assert s.ci95 is None


# ---------------------------------------------------------------------------
# Session metrics extraction


def _mk_log(condition="B", seed=3, events=()):
    log = SessionLog(
        meta={
            "format": "aansim-log/1",
            "condition": condition,
            "seed": seed,
            "scenario_hash": "x" * 8,
            "profile": "misplaces",
        }
    )
    for t, event, actions, state in events:
        log.add_event(t, event, actions, state)
    return log


def _ev(kind, **extra):
    out = {"kind": kind}
    out.update(extra)
    return out


def test_session_metrics_guided_locate_time_and_rounds():
    speak = [{"kind": "speak", "text": "hi"}]
    log = _mk_log(
        events=[
            (5.0, _ev("schedule_due"), speak, {"phase": "reminding", "assist_level": 3}),
            (9.0, _ev("record_pressed", transcript="ok"), speak, {"phase": "reminding", "assist_level": 3}),
            (12.0, _ev("start_navigation_pressed"), speak, {"phase": "navigating", "assist_level": 3}),
            (35.3, _ev("found", roi="roi_a"), speak, {"phase": "step_guidance", "assist_level": 3}),
            (40.0, _ev("record_pressed", transcript="yes"), speak, {"phase": "step_guidance", "assist_level": 3}),
            (70.0, _ev("record_pressed", transcript="yes"), speak, {"phase": "done", "assist_level": 3}),
        ]
    )
    sm = m.session_metrics(log)
    assert sm.condition == "B" and sm.seed == 3
    assert sm.time_to_locate_s == pytest.approx(35.3 - 5.0)
    assert not sm.censored
    assert sm.interaction_rounds == 3  # the three answered record/press rounds
    assert sm.completed
    assert sm.confusion_events == 0  # a log without a gaze summary still scores


def test_session_metrics_passive_locate_via_user_action():
    speak = [{"kind": "speak", "text": "hint"}]
    log = _mk_log(
        condition="A",
        events=[
            (2.0, _ev("schedule_due"), [], {"phase": "idle", "assist_level": 1}),
            (30.0, _ev("record_pressed", transcript="where"), speak, {"phase": "idle", "assist_level": 1}),
            (94.0, _ev("user_action", action="looks_at_bottle"), [], {"phase": "idle", "assist_level": 1}),
            (96.0, _ev("user_action", action="opens_bottle"), speak, {"phase": "done", "assist_level": 1}),
        ]
    )
    sm = m.session_metrics(log)
    assert sm.time_to_locate_s == pytest.approx(92.0)
    assert sm.interaction_rounds == 1
    assert sm.completed and not sm.censored


def test_session_metrics_censored_when_never_located():
    log = _mk_log(
        events=[
            (1.0, _ev("schedule_due"), [], {"phase": "reminding", "assist_level": 1}),
            (600.0, _ev("miss", roi="side_table"), [], {"phase": "aborted", "assist_level": 3}),
        ]
    )
    log.add_note(
        601.0, "gaze_summary", n_samples=0, inserted_runs=[],
        confusion_events=[[10.0, 25.5], [300.0, 330.0]],
    )
    sm = m.session_metrics(log)
    assert sm.confusion_events == 2
    assert sm.censored
    # Censored sessions carry the session's end as a lower bound on the time;
    # the gaze summary stamped after it does not count.
    assert sm.time_to_locate_s == pytest.approx(599.0)
    assert not sm.completed


def test_aggregate_groups_by_condition():
    sessions = [
        m.SessionMetrics("A", 0, 90.0, False, 3, True, 0),
        m.SessionMetrics("A", 1, 100.0, False, 2, True, 0),
        m.SessionMetrics("B", 0, 30.0, False, 5, True, 0),
        m.SessionMetrics("B", 1, 28.0, False, 6, True, 0),
    ]
    agg = m.aggregate(sessions)
    assert set(agg) == {"A", "B"}
    assert agg["A"]["time_to_locate_s"].n == 2
    assert agg["B"]["time_to_locate_s"].mean == pytest.approx(29.0)
    assert agg["B"]["interaction_rounds"].median == pytest.approx(5.5)
    assert agg["A"]["completed"].mean == 1.0


def test_paired_signs_count_only_pairs_censoring_leaves_ordered():
    def s(condition, seed, t, censored, rounds):
        return m.SessionMetrics(condition, seed, t, censored, rounds, True, 0)

    sessions = [
        s("A", 0, 90.0, False, 2), s("B", 0, 30.0, False, 5),  # B faster, observed
        s("A", 1, 60.0, True, 3), s("B", 1, 40.0, False, 3),  # B before A's censoring
        s("A", 2, 60.0, True, 2), s("B", 2, 70.0, False, 4),  # B after A's censoring: hidden
        s("A", 3, 60.0, True, 2), s("B", 3, 60.0, False, 4),  # tie with a censored A: B first
        s("A", 4, 20.0, False, 4), s("B", 4, 50.0, True, 5),  # A observed first, B censored
        s("A", 5, 60.0, True, 2), s("B", 5, 60.0, True, 6),  # both censored: hidden
        s("A", 6, 45.0, False, 3), s("B", 6, 45.0, False, 2),  # an observed tie: not faster
        s("A", 7, 80.0, False, 2),  # no B session: not a pair
        s("B", 8, 25.0, False, 5),  # no A session: not a pair
    ]
    signs = m.paired_signs(sessions)
    assert signs == m.PairedSigns(pairs=7, decided=5, b_faster=3, b_more_rounds=5)
    text = m.render_report(sessions)
    assert "B located faster in 3 of 5 decided pairs (2 hidden by censoring)" in text
    assert "B used more interaction rounds in 5 of 7 pairs" in text


# ---------------------------------------------------------------------------
# Questionnaire CSV loaders


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def test_load_tlx_csv_round_trip(tmp_path):
    path = tmp_path / "tlx.csv"
    _write_csv(
        path,
        ["participant", "condition", *m.TLX.items],
        [["p1", "A", 2, 2, 2, 2, 2, 2], ["p2", "B", 2.5, 2.5, 2.5, 2.5, 2.5, 2.5]],
    )
    rows = m.TLX.load(path)
    assert [(p, c) for p, c, _ in rows] == [("p1", "A"), ("p2", "B")]
    assert m.TLX.score(rows[0][2]) == pytest.approx(100.0 / 9.0)
    assert m.TLX.score(rows[1][2]) == pytest.approx(150.0 / 9.0)


def test_load_tlx_csv_names_bad_row(tmp_path):
    path = tmp_path / "tlx.csv"
    _write_csv(
        path,
        ["participant", "condition", *m.TLX.items],
        [["p1", "A", 2, 2, 2, 2, 2, 2], ["p2", "B", 99, 2, 2, 2, 2, 2]],
    )
    with pytest.raises(m.OutOfRange) as exc:
        m.TLX.load(path)
    # 1-based file row numbering (the header is row 1).
    assert "row 3" in str(exc.value)
    assert "tlx.csv" in str(exc.value)


@pytest.mark.parametrize("condition", ["a", "B ", ""])
def test_load_tlx_csv_rejects_unknown_condition(tmp_path, condition):
    path = tmp_path / "tlx.csv"
    _write_csv(
        path,
        ["participant", "condition", *m.TLX.items],
        [["p1", "A", 2, 2, 2, 2, 2, 2], ["p2", condition, 2, 2, 2, 2, 2, 2]],
    )
    with pytest.raises(ValueError) as exc:
        m.TLX.load(path)
    assert str(exc.value) == f"{path}: row 3: condition must be one of ('A', 'B'), got {condition!r}"


def test_load_tlx_csv_rejects_repeated_participant_and_condition(tmp_path):
    path = tmp_path / "tlx.csv"
    _write_csv(
        path,
        ["participant", "condition", *m.TLX.items],
        [["p1", "A", 2, 2, 2, 2, 2, 2], ["p1", "B", 2, 2, 2, 2, 2, 2], ["p1", "A", 9, 9, 9, 9, 9, 9]],
    )
    with pytest.raises(ValueError) as exc:
        m.TLX.load(path)
    assert str(exc.value) == f"{path}: row 4: repeats participant 'p1' condition A of row 2"


def test_load_usability_csv_rejects_empty_participant(tmp_path):
    # A padded cell is rejected too: "p1 " would count as a second respondent beside "p1".
    path = tmp_path / "usability.csv"
    for participant in ("", " ", "p1 "):
        _write_csv(
            path,
            ["participant", "condition", *m.USABILITY.items],
            [["p1", "B", 4, 2, 4, 2, 4], [participant, "B", 4, 2, 4, 2, 4]],
        )
        with pytest.raises(ValueError) as exc:
            m.USABILITY.load(path)
        assert str(exc.value) == f"{path}: row 3: participant {participant!r} is empty or padded"


def test_load_tlx_csv_missing_column(tmp_path):
    path = tmp_path / "tlx.csv"
    _write_csv(path, ["participant", "condition", "mental"], [["p1", "A", 2]])
    with pytest.raises(ValueError) as exc:
        m.TLX.load(path)
    assert "physical" in str(exc.value)


def test_load_usability_csv_round_trip(tmp_path):
    path = tmp_path / "usab.csv"
    _write_csv(
        path,
        ["participant", "condition", *m.USABILITY.items],
        [["p1", "B", 5, 1, 4, 2, 4]],
    )
    rows = m.USABILITY.load(path)
    assert m.USABILITY.score(rows[0][2]) == 85.0


# ---------------------------------------------------------------------------
# Report rendering


def test_write_summary_csv_and_render_report(tmp_path):
    sessions = [
        m.SessionMetrics("A", 0, 91.8, False, 3, True, 0),
        m.SessionMetrics("A", 1, 92.0, False, 3, True, 0),
        m.SessionMetrics("B", 0, 29.7, False, 5, True, 0),
        m.SessionMetrics("B", 1, 30.1, False, 6, True, 0),
    ]
    out = tmp_path / "summary.csv"
    m.write_summary_csv(sessions, out)
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert {r["condition"] for r in rows} == {"A", "B"}
    text = m.render_report(
        sessions,
        {m.TLX: {"A": [(2,) * 6], "B": [(2.5,) * 6]}, m.USABILITY: {"B": [(5, 1, 4, 2, 4)]}},
    )
    assert "time to locate (s) median" in text
    assert "interaction rounds median" in text
    assert "confusion events median" in text
    assert "completion rate" in text
    assert "B located faster in 2 of 2 decided pairs (0 hidden by censoring)" in text
    assert "11.11" in text
    assert "16.67" in text
    assert "85.00" in text
