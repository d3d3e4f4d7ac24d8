"""Outcome metrics: workload and usability scoring, reliability, aggregation.

A ``Questionnaire`` scores each item on 1..scale_max, recodes reverse-coded
items as scale_max + 1 - x, rescales to 0..100 as (x - 1) / (scale_max - 1)
* 100 and averages: ``TLX`` is the unweighted six-item workload scheme on
1..10, ``USABILITY`` five items on 1..5 with q2 and q4 reverse-coded.
Internal consistency is Cronbach's alpha with population (ddof=0)
variances.  Session-level outcomes (time to locate the bottle, interaction
rounds, completion, confusion events) are extracted from session logs, then
aggregated per condition with mean, median, quartiles and a distribution-free
confidence interval for the median, and compared seed by seed over the seeds
run under both conditions.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .session import CONDITIONS, SessionLog


class OutOfRange(ValueError):
    """A questionnaire item is outside its scale."""


class DegenerateData(ValueError):
    """Not enough variation or data to compute a statistic."""


def cronbach_alpha(item_scores) -> float:
    """Cronbach's alpha over a (respondents x items) score matrix.

    Uses population variances; reverse-code items first (as
    ``Questionnaire.adjusted`` does).  Every questionnaire has at least two
    items.  Raises DegenerateData for fewer than two respondents or zero
    total variance.
    """
    scores = np.asarray(item_scores, dtype=np.float64)
    n, k = scores.shape
    if n < 2:
        raise DegenerateData(f"alpha needs at least 2 respondents, got {n}")
    item_var = scores.var(axis=0, ddof=0)
    total_var = scores.sum(axis=1).var(ddof=0)
    if total_var <= 0.0:
        raise DegenerateData("total score variance is zero")
    return float(k / (k - 1.0) * (1.0 - item_var.sum() / total_var))


# ---------------------------------------------------------------------------
# Session-level outcomes


@dataclass(frozen=True)
class SessionMetrics:
    condition: str
    seed: int
    time_to_locate_s: float
    censored: bool  # bottle never located; time is the session's last record
    interaction_rounds: int
    completed: bool
    confusion_events: int  # from the gaze_summary note; 0 when a log has none


def session_metrics(log: SessionLog) -> SessionMetrics:
    """Extract outcome measures from one session log.

    Time to locate runs from the first ``schedule_due`` event (or 0) to the
    first find: guided sessions locate when the robot's search reports a find,
    passive sessions when the user first looks at or opens the bottle.  A
    session that never locates is censored at its last record; the gaze
    summary, stamped after the session ends, does not count.
    """
    t0 = located = None
    end = 0.0
    rounds = confusion = 0
    completed = False
    for record in log.records:
        if record.get("note") == "gaze_summary":
            confusion = len(record["data"]["confusion_events"])
            continue
        end = float(record["t"])
        if record["kind"] != "event":
            continue
        event = record["event"]
        kind = event.get("kind")
        if kind == "schedule_due" and t0 is None:
            t0 = end
        found = kind == "found" or (
            kind == "user_action" and event.get("action") in ("looks_at_bottle", "opens_bottle")
        )
        if found and located is None:
            located = end
        if kind == "record_pressed" and any(a.get("kind") == "speak" for a in record["actions"]):
            rounds += 1
        if record["state"].get("phase") == "done":
            completed = True
    censored = located is None
    return SessionMetrics(
        condition=str(log.meta["condition"]),
        seed=int(log.meta["seed"]),
        time_to_locate_s=(end if censored else located) - (t0 or 0.0),
        censored=censored,
        interaction_rounds=rounds,
        completed=completed,
        confusion_events=confusion,
    )


# ---------------------------------------------------------------------------
# Aggregation


@dataclass(frozen=True)
class Summary:
    """Location and spread of one measure within one condition."""

    n: int
    mean: float
    median: float
    q1: float
    q3: float
    ci95: tuple[float, float] | None  # the median's; None when n <= 5


def summarize(values) -> Summary:
    """Mean, median, quartiles and the distribution-free 95% interval for the
    median (Conover 1999): order statistics [x_(k), x_(n+1-k)], with k the
    largest index where P(Bin(n, 1/2) <= k - 1) <= 0.025, exact in integers."""
    xs = np.asarray(list(values), dtype=np.float64)
    n = int(xs.size)  # every group summarized holds at least one value
    k = tail = 0
    while 40 * (tail + math.comb(n, k)) <= 2**n:
        tail += math.comb(n, k)
        k += 1
    q1, q3 = (float(q) for q in np.percentile(xs, [25.0, 75.0]))
    return Summary(
        n=n, mean=float(xs.mean()), median=float(np.median(xs)), q1=q1, q3=q3,
        ci95=tuple(np.sort(xs)[[k - 1, n - k]].tolist()) if k else None,
    )


def aggregate(sessions: list[SessionMetrics]) -> dict[str, dict[str, Summary]]:
    """Per-condition summaries keyed as result[condition][measure]."""
    by_condition: dict[str, list[SessionMetrics]] = {}
    for s in sessions:
        by_condition.setdefault(s.condition, []).append(s)
    out: dict[str, dict[str, Summary]] = {}
    for condition, group in sorted(by_condition.items()):
        out[condition] = {
            "time_to_locate_s": summarize(s.time_to_locate_s for s in group),
            "interaction_rounds": summarize(float(s.interaction_rounds) for s in group),
            "completed": summarize(1.0 if s.completed else 0.0 for s in group),
            "confusion_events": summarize(float(s.confusion_events) for s in group),
        }
    return out


@dataclass(frozen=True)
class PairedSigns:
    """Sign counts over the seeds run under both conditions (a seed fixes the
    bottle's placement for A and B alike)."""

    pairs: int
    decided: int  # pairs whose faster condition censoring does not hide
    b_faster: int  # decided pairs where B located the bottle first
    b_more_rounds: int  # pairs where B used more interaction rounds


def paired_signs(sessions: list[SessionMetrics]) -> PairedSigns:
    """Count B-versus-A signs seed by seed.

    A censored time is only a lower bound, so a pair's order is known only
    when its lower time is uncensored (at a tie, when either is): B is faster
    when its time is lower, or equal to a censored A.
    """
    by_seed: dict[int, dict[str, SessionMetrics]] = {}
    for s in sessions:
        by_seed.setdefault(s.seed, {})[s.condition] = s
    pairs = [(p["A"], p["B"]) for p in by_seed.values() if len(p) == 2]
    decided = b_faster = 0
    for a, b in pairs:
        ka, kb = (a.time_to_locate_s, a.censored), (b.time_to_locate_s, b.censored)
        if not min(ka, kb)[1]:
            decided += 1
            b_faster += kb < ka
    b_more_rounds = sum(b.interaction_rounds > a.interaction_rounds for a, b in pairs)
    return PairedSigns(len(pairs), decided, b_faster, b_more_rounds)


# ---------------------------------------------------------------------------
# Questionnaires


@dataclass(frozen=True)
class Questionnaire:
    """One questionnaire's items, its 1..``scale_max`` scale and its reverse-coded items."""

    name: str
    items: tuple[str, ...]
    scale_max: int
    reversed_items: tuple[str, ...] = ()

    def adjusted(self, values) -> tuple[float, ...]:
        """Item values in ``items`` order, range-checked, with the reversed ones recoded."""
        out = []
        for item, v in zip(self.items, values, strict=True):
            if not 1.0 <= v <= self.scale_max:
                raise OutOfRange(
                    f"{self.name} item {item!r} must be in [1, {self.scale_max}], got {v}"
                )
            out.append(self.scale_max + 1 - v if item in self.reversed_items else v)
        return tuple(out)

    def score(self, values) -> float:
        """Score on 0..100: mean of (adjusted item - 1) / (scale_max - 1) * 100."""
        top = self.scale_max - 1
        return float(np.mean([(v - 1.0) / top * 100.0 for v in self.adjusted(values)]))

    def load(self, path: str | Path) -> list[tuple[str, str, tuple[float, ...]]]:
        """Rows of (participant, condition, item values) from a questionnaire CSV."""
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise ValueError(f"{path}: missing header row")
            required = ("participant", "condition", *self.items)
            missing = [c for c in required if c not in reader.fieldnames]
            if missing:
                raise ValueError(f"{path}: missing columns {missing}")
            rows = list(reader)
        out = []
        first_row: dict[tuple[str, str], int] = {}  # the row of each (participant, condition)
        for i, row in enumerate(rows):
            if row["condition"] not in CONDITIONS:
                raise ValueError(f"{path}: row {i + 2}: condition must be one of {CONDITIONS}, "
                                 f"got {row['condition']!r}")
            key = (row["participant"], row["condition"])
            if not key[0] or key[0] != key[0].strip():
                raise ValueError(f"{path}: row {i + 2}: participant {key[0]!r} is empty or padded")
            if key in first_row:
                raise ValueError(f"{path}: row {i + 2}: repeats participant {key[0]!r} "
                                 f"condition {key[1]} of row {first_row[key]}")
            first_row[key] = i + 2
            try:
                values = tuple(float(row[k]) for k in self.items)
                self.adjusted(values)
            except (TypeError, ValueError) as exc:  # TypeError: a short row's missing cell
                raise OutOfRange(f"{path}: row {i + 2}: {exc}") from exc
            out.append((row["participant"], row["condition"], values))
        return out


TLX = Questionnaire(
    "workload", ("mental", "physical", "temporal", "performance", "effort", "frustration"), 10
)
USABILITY = Questionnaire("usability", ("q1", "q2", "q3", "q4", "q5"), 5, ("q2", "q4"))


# ---------------------------------------------------------------------------
# Reporting


def write_summary_csv(sessions: list[SessionMetrics], path: str | Path) -> None:
    """One row per session, in (condition, seed) order."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["condition", "seed", "time_to_locate_s", "censored", "interaction_rounds", "completed"]
        )
        for s in sorted(sessions, key=lambda s: (s.condition, s.seed)):
            writer.writerow(
                [
                    s.condition,
                    s.seed,
                    f"{s.time_to_locate_s:.3f}",
                    int(s.censored),
                    s.interaction_rounds,
                    int(s.completed),
                ]
            )


def _fmt_ci(ci: tuple[float, float] | None) -> str:
    if ci is None:
        return "-"
    return f"[{ci[0]:.2f}, {ci[1]:.2f}]"


def render_report(
    sessions: list[SessionMetrics],
    questionnaires: dict[Questionnaire, dict[str, list[tuple[float, ...]]]] | None = None,
) -> str:
    """Plain-text condition comparison table, the paired sign counts, then each
    questionnaire's scores and alpha by condition (from its rows of item values)."""
    agg = aggregate(sessions)
    lines: list[str] = []
    header = f"{'measure':<28}" + "".join(f"{c:>26}" for c in agg)
    lines.append(header)
    lines.append("-" * len(header))

    def row(label: str, cell) -> None:
        line = f"{label:<28}"
        for col, c in enumerate(agg, 1):  # a cell ends at its column's edge after a long label
            line += cell(c).rjust(28 + 26 * col - len(line))
        lines.append(line)

    row("sessions", lambda c: str(agg[c]["time_to_locate_s"].n))
    for measure, label in (
        ("time_to_locate_s", "time to locate (s)"),
        ("interaction_rounds", "interaction rounds"),
        ("confusion_events", "confusion events"),
    ):
        row(f"{label} mean", lambda c, m=measure: f"{agg[c][m].mean:.2f}")
        row(f"{label} median", lambda c, m=measure: f"{agg[c][m].median:.2f}")
        row(
            f"{label} IQR",
            lambda c, m=measure: f"{agg[c][m].q1:.2f}..{agg[c][m].q3:.2f}",
        )
        row(f"{label} median 95% CI", lambda c, m=measure: _fmt_ci(agg[c][m].ci95))
    row("completion rate", lambda c: f"{agg[c]['completed'].mean:.2f}")

    signs = paired_signs(sessions)
    if signs.pairs:
        lines.append("")
        lines.append(
            f"B located faster in {signs.b_faster} of {signs.decided} decided pairs "
            f"({signs.pairs - signs.decided} hidden by censoring)"
        )
        lines.append(
            f"B used more interaction rounds in {signs.b_more_rounds} of {signs.pairs} pairs"
        )

    for spec, rows in (questionnaires or {}).items():
        if not rows:
            continue
        lines.append("")
        for condition in sorted(rows):
            s = summarize(spec.score(v) for v in rows[condition])
            try:
                alpha = f"{cronbach_alpha([spec.adjusted(v) for v in rows[condition]]):.2f}"
            except DegenerateData:
                alpha = "-"
            lines.append(
                f"{spec.name} ({condition}): mean {s.mean:.2f}, median {s.median:.2f}, "
                f"IQR {s.q1:.2f}..{s.q3:.2f}, median 95% CI {_fmt_ci(s.ci95)}, "
                f"alpha {alpha} (n={s.n})"
            )
    return "\n".join(lines) + "\n"
