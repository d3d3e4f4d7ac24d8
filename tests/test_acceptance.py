"""Acceptance suite: one test per shipping criterion.

Each test below is a release gate checked at a stated tolerance and, where it
matters, a runtime budget.  ``pytest -v`` prints one PASSED/FAILED line per
criterion; each test additionally prints an explicit ``ACCEPT`` summary line
with its measured runtime.
"""

import hashlib
import math
import statistics
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import ndimage

from aansim import geometry
from aansim import metrics as m
from aansim import navigation as nav
from aansim import usersim as us
from aansim.episode import run_episode
from aansim.geometry import CameraIntrinsics
from aansim.orchestrator import MOTION_ACTION_KINDS, AssistLevel
from aansim.session import validate_log, write_log
from aansim.usersim import GazeTimeline
from aansim.world import OccupancyGrid, RobotState

from conftest import CAMERA_MOUNT
from harness import (
    check_invariants,
    guided_config,
    motion_actions,
    passive_config,
    random_walk,
)
from oracles import OracleBlocked, dijkstra_costs, dwa_reference, max_offtask_gap, project

INTR = CameraIntrinsics(fx=130.0, fy=130.0, cx=79.5, cy=59.5, width=160, height=120)

MOTION_KIND_VALUES = {k.value for k in MOTION_ACTION_KINDS}


@contextmanager
def criterion(name: str, budget_s: float | None = None):
    """Time one acceptance criterion and print its summary line."""
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    if budget_s is not None:
        assert elapsed < budget_s, f"{name} took {elapsed:.2f}s (budget {budget_s}s)"
    print(f"ACCEPT {name}: PASS ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 1. Questionnaire formula fidelity


def test_criterion_1_questionnaire_formula_fidelity():
    with criterion("questionnaire formula fidelity", budget_s=1.0):
        flat_2 = m.TLX.score((2.0, 2.0, 2.0, 2.0, 2.0, 2.0))
        flat_25 = m.TLX.score((2.5, 2.5, 2.5, 2.5, 2.5, 2.5))
        assert round(flat_2, 2) == 11.11
        assert round(flat_25, 2) == 16.67
        assert round((flat_2 + flat_25) / 2.0, 2) == 13.89

        # Five items whose reverse-coded mean is 41/9 must score 88.89.
        v = 41.0 / 9.0
        r = 6.0 - v
        score = m.USABILITY.score((v, r, v, r, v))
        assert round(score, 2) == 88.89


# ---------------------------------------------------------------------------
# 2. Geometry oracles


def test_criterion_2_geometry_oracles():
    with criterion("geometry oracles", budget_s=5.0):
        # Pixel -> point -> pixel round trip on 10^4 random samples.
        rng = np.random.default_rng(42)
        n = 10_000
        us_px = rng.uniform(0.0, INTR.width - 1e-9, n)
        vs_px = rng.uniform(0.0, INTR.height - 1e-9, n)
        zs = rng.uniform(0.05, 9.5, n)
        pts = geometry.backproject_pixels(np.column_stack([us_px, vs_px]), zs, INTR)
        for k in range(n):
            u, v = project(pts[k], INTR)
            assert abs(u - us_px[k]) <= 1e-9 * max(1.0, abs(us_px[k]))
            assert abs(v - vs_px[k]) <= 1e-9 * max(1.0, abs(vs_px[k]))
            assert pts[k, 2] == zs[k]

        # Pointing angles reconstruct the direction ray.
        pt_rng = np.random.default_rng(11)
        for _ in range(200):
            origin = pt_rng.uniform(-2.0, 2.0, 3)
            target = origin + pt_rng.uniform(-3.0, 3.0, 3)
            if np.linalg.norm(target - origin) < 1e-6:
                continue
            cmd = geometry.pointing_angles(target, origin)
            rebuilt = np.array(
                [
                    math.cos(cmd.pitch) * math.cos(cmd.yaw),
                    math.cos(cmd.pitch) * math.sin(cmd.yaw),
                    math.sin(cmd.pitch),
                ]
            )
            assert np.abs(rebuilt - cmd.direction).max() <= 1e-9
            d = target - origin
            assert abs(cmd.yaw - math.atan2(d[1], d[0])) <= 1e-9
            assert abs(cmd.pitch - math.atan2(d[2], math.hypot(d[0], d[1]))) <= 1e-9


# ---------------------------------------------------------------------------
# 3. Planning oracles


def _random_grid(rng, w=20, h=20, p=0.3, resolution=0.1):
    cells = (rng.random((h, w)) < p).astype(np.uint8)
    return OccupancyGrid(cells=cells, resolution=resolution)


def test_criterion_3_planning_oracles():
    with criterion("planning oracles", budget_s=30.0):
        # Global planner cost equals a pure-Python Dijkstra, bitwise, on 100
        # random 20x20 grids at 30% obstacle density.
        rng = np.random.default_rng(2024)
        compared = 0
        for _ in range(100):
            grid = _random_grid(rng, 20, 20, p=0.3)
            cm = nav.build_costmap(grid, nav.NavParams(inflation_radius=0.25, cost_decay=1.0))
            free = np.argwhere(cm.cost < 253.0)
            if len(free) < 2:
                continue
            j0, i0 = free[rng.integers(len(free))]
            s_cell = (int(i0), int(j0))
            dist = dijkstra_costs(cm, s_cell)
            reachable = [c for c in dist if c != s_cell]
            if not reachable:
                continue
            target = reachable[int(rng.integers(len(reachable)))]
            plan = nav.plan_global(cm, cm.cell_center(*s_cell), cm.cell_center(*target))
            assert plan.cost == dist[target]  # bitwise equality
            compared += 1
        assert compared >= 50

        # Local planner choice equals the exhaustive scalar reference on 50
        # random states.
        agreements = blocked = 0
        dwa_rng = np.random.default_rng(99)
        for _ in range(50):
            grid = _random_grid(dwa_rng, 30, 30, p=0.06)
            cm = nav.build_costmap(grid, nav.NavParams(inflation_radius=0.25, cost_decay=1.0))
            free = np.argwhere(cm.cost < 253.0)
            j, i = free[dwa_rng.integers(len(free))]
            x, y = cm.cell_center(int(i), int(j))
            robot = RobotState(
                x=x,
                y=y,
                heading=float(dwa_rng.uniform(-math.pi, math.pi)),
                v=float(dwa_rng.uniform(0.0, 0.35)),
                omega=float(dwa_rng.uniform(-1.0, 1.0)),
                camera_mount=CAMERA_MOUNT,
            )
            wps = dwa_rng.uniform(0.2, 2.8, size=(int(dwa_rng.integers(2, 12)), 2))
            path = nav.GlobalPath(waypoints=wps, cost=0.0)
            try:
                expected = dwa_reference(robot, path, cm, dt=0.1)
            except OracleBlocked:
                with pytest.raises(nav.AllBlocked):
                    nav.dwa_step(robot, path, cm, 0.1)
                blocked += 1
                continue
            assert nav.dwa_step(robot, path, cm, 0.1) == expected
            agreements += 1
        assert agreements >= 25

        # Inflation cost never increases with distance from the nearest
        # lethal cell, across 50 random maps.
        mono_rng = np.random.default_rng(7)
        checked = 0
        while checked < 50:
            grid = _random_grid(mono_rng, 25, 25, p=0.2)
            lethal = grid.cells != 0
            if not lethal.any() or lethal.all():
                continue
            cm = nav.build_costmap(grid, nav.NavParams(inflation_radius=0.6, cost_decay=1.0))
            dist = ndimage.distance_transform_edt(~lethal, sampling=grid.resolution)
            d = dist[~lethal]
            c = cm.cost[~lethal]
            order = np.argsort(d, kind="stable")
            assert (np.diff(c[order]) <= 1e-9).all()
            checked += 1


# ---------------------------------------------------------------------------
# 4. Orchestrator safety properties


def test_criterion_4_orchestrator_properties(lab_scenario):
    with criterion("orchestrator safety properties"):
        # 500 random event sequences across the three session shapes.
        for seed in range(300):
            final, trace = random_walk(seed, guided_config())
            assert final.terminal, f"guided walk {seed} did not terminate"
            check_invariants(trace, guided_config())
        for seed in range(100):
            config = guided_config(start_level=AssistLevel.L3)
            final, trace = random_walk(seed, config)
            assert final.terminal, f"escalated walk {seed} did not terminate"
            check_invariants(trace, config)
        # Hands-off sessions complete directly when the user succeeds, so the
        # guided completion invariant does not apply; they must still
        # terminate, never move the base, and never escalate assistance.
        for seed in range(100):
            final, trace = random_walk(seed, passive_config())
            assert final.terminal, f"hands-off walk {seed} did not terminate"
            assert motion_actions(trace) == []
            for _, before, after, _ in trace:
                assert after.assist_level == before.assist_level

        # Full hands-off episodes never emit gesture or navigation actions,
        # and their records run forward in time.
        for seed in range(3):
            result = run_episode(lab_scenario, "A", seed)
            validate_log(result.log)
            for record in result.log.records:
                if record["kind"] != "event":
                    continue
                kinds = {a["kind"] for a in record["actions"]}
                assert not (kinds & MOTION_KIND_VALUES)


# ---------------------------------------------------------------------------
# 5. Directional study effects


def test_criterion_5_directional_study_effects(lab_scenario):
    with criterion("directional study effects", budget_s=120.0):
        assert lab_scenario.profile.name == "misplaces"
        times = {"A": [], "B": []}
        rounds = {"A": [], "B": []}
        sessions = []
        n_pairs = 30
        for seed in range(n_pairs):
            for cond in ("A", "B"):
                sm = m.session_metrics(run_episode(lab_scenario, cond, seed).log)
                assert sm.completed
                times[cond].append(sm.time_to_locate_s)
                rounds[cond].append(sm.interaction_rounds)
                sessions.append(sm)
        med_t = {c: statistics.median(times[c]) for c in ("A", "B")}
        med_r = {c: statistics.median(rounds[c]) for c in ("A", "B")}
        signs = m.paired_signs(sessions)
        faster, more_rounds = signs.b_faster, signs.b_more_rounds
        assert signs.pairs == n_pairs
        # Guidance must find the bottle faster but spend more exchanges.
        assert med_t["B"] < med_t["A"], med_t
        assert med_r["B"] > med_r["A"], med_r
        assert faster >= 28, f"B faster in only {faster}/{n_pairs} pairs"
        assert more_rounds >= 28, f"B chattier in only {more_rounds}/{n_pairs} pairs"
        print(
            f"  time-to-locate median {med_t['A']:.1f}s -> {med_t['B']:.1f}s; "
            f"rounds median {med_r['A']:.1f} -> {med_r['B']:.1f}; "
            f"sign agreement {faster}/{n_pairs} and {more_rounds}/{n_pairs}"
        )


# ---------------------------------------------------------------------------
# 6. Byte-identical determinism


def test_criterion_6_byte_identical_determinism(lab_scenario, tmp_path):
    with criterion("byte-identical determinism"):
        for cond, seed in (("B", 4), ("A", 11)):
            paths = []
            for tag in ("first", "second"):
                log = run_episode(lab_scenario, cond, seed).log
                path = tmp_path / f"{cond}{seed}_{tag}.jsonl"
                write_log(log, path)
                paths.append(path)
            blobs = [p.read_bytes() for p in paths]
            assert blobs[0] == blobs[1]
            digest = hashlib.sha256(blobs[0]).hexdigest()
            print(f"  {cond} seed {seed}: sha256 {digest[:16]}…")


# ---------------------------------------------------------------------------
# 7. Confusion detection vs brute-force oracle


def test_criterion_7_confusion_oracle_and_sample_rate(lab_scenario):
    with criterion("confusion detection vs brute-force oracle"):
        for seed in range(200):
            r = np.random.default_rng(10_000 + seed)
            dt = 1.0 / 180.0
            n = int(r.integers(50, 2500))
            codes = r.choice(
                [us.Aoi.BOTTLE, us.Aoi.ROBOT, us.Aoi.ELSEWHERE],
                size=n,
                p=[0.15, 0.15, 0.7],
            ).astype(np.uint8)
            stretch = int(r.integers(1, 900))
            codes[: min(stretch, n)] = us.Aoi.ELSEWHERE
            action_times = sorted(
                float(r.uniform(0, n * dt)) for _ in range(int(r.integers(0, 4)))
            )
            threshold = float(r.uniform(0.5, 4.0))
            got = us.detect_confusion(codes, tuple(action_times), threshold)
            want = max_offtask_gap(
                [k / 180.0 for k in range(n)], codes.tolist(), action_times, threshold
            )
            assert [(e.t_start, e.t_end) for e in got] == want

        # A one-second stream holds exactly 180 samples on the k/180 grid;
        # the oracle comparison above pins the detector's times to k / 180.
        codes, _ = us.gaze_stream(
            GazeTimeline(duration_s=1.0, windows=()),
            lab_scenario.profile,
            np.random.default_rng(0),
        )
        assert len(codes) == 180


# ---------------------------------------------------------------------------
# 8. Internal-consistency coefficient


def test_criterion_8_internal_consistency_alpha():
    with criterion("internal-consistency coefficient"):
        data = [[2.0, 3.0, 4.0], [4.0, 4.0, 5.0], [6.0, 5.0, 6.0]]
        assert abs(m.cronbach_alpha(data) - 0.9375) <= 1e-9
        duplicated = [[2.0, 2.0], [3.0, 3.0], [5.0, 5.0]]
        assert m.cronbach_alpha(duplicated) == pytest.approx(1.0, abs=1e-12)
