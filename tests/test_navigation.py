import itertools
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from aansim import episode, geometry
from aansim import navigation as nav
from aansim import world
from aansim.geometry import CameraIntrinsics
from aansim.orchestrator import AssistEvent, EventKind, initial_state
from aansim.scenario import NoiseParams
from aansim.session import SessionLog
from aansim.world import CellState, OccupancyGrid, RobotState

from conftest import CAMERA_MOUNT
from oracles import (
    OracleBlocked,
    costmap_reference,
    dijkstra_costs,
    dwa_reference,
    path_cost_recomputed,
)


def grid_from(rows, resolution=0.1):
    text = f"{len(rows[0])} {len(rows)} {resolution}\n" + "\n".join(rows)
    return OccupancyGrid.from_ascii(text)


def open_grid(w, h, resolution=0.1):
    rows = ["#" * w] + ["#" + "." * (w - 2) + "#" for _ in range(h - 2)] + ["#" * w]
    return grid_from(rows, resolution)


def random_grid(rng, w=20, h=20, p=0.3, resolution=0.1):
    cells = (rng.random((h, w)) < p).astype(np.uint8)
    return OccupancyGrid(cells=cells, resolution=resolution)


def path_cells(cm, plan):
    """The cell of each waypoint of a plan, start to goal."""
    return [cm.world_to_cell(x, y) for x, y in plan.waypoints]


# ---------------------------------------------------------------------------
# Costmap


def test_costmap_exact_exponential_ring():
    # Single lethal cell on a coarse grid: costs must follow
    # 254 * exp(-(d - robot_radius)) exactly, clipped to [1, 253].
    cells = np.zeros((9, 9), dtype=np.uint8)
    cells[4, 4] = CellState.OCCUPIED
    grid = OccupancyGrid(cells=cells, resolution=1.0)
    cm = nav.build_costmap(grid, nav.NavParams(inflation_radius=3.0, cost_decay=1.0, robot_radius=0.2))
    assert cm.cost[4, 4] == 255.0
    expect_d1 = min(253.0, max(1.0, 254.0 * math.exp(-(1.0 - 0.2))))
    expect_d2 = 254.0 * math.exp(-(2.0 - 0.2))
    expect_d3 = 254.0 * math.exp(-(3.0 - 0.2))
    assert cm.cost[4, 5] == pytest.approx(expect_d1, rel=1e-14)
    assert cm.cost[4, 6] == pytest.approx(expect_d2, rel=1e-14)
    assert cm.cost[4, 7] == pytest.approx(expect_d3, rel=1e-14)
    assert cm.cost[4, 5] > cm.cost[4, 6] > cm.cost[4, 7] > 0.0
    # sqrt(2) away
    expect_diag = 254.0 * math.exp(-(math.sqrt(2.0) - 0.2))
    assert cm.cost[5, 5] == pytest.approx(expect_diag, rel=1e-14)
    # Beyond the inflation radius the field is exactly zero.
    assert cm.cost[4, 8] == 0.0
    assert cm.cost[0, 0] == 0.0


def test_costmap_unknown_cells_are_lethal():
    grid = grid_from(["...", ".?.", "..."], resolution=1.0)
    cm = nav.build_costmap(grid, nav.NavParams(inflation_radius=0.0))
    assert cm.cost[1, 1] == 255.0
    assert not cm.traversable(1, 1)
    assert cm.traversable(0, 0)


def test_costmap_inflated_band_clipped_to_1_253():
    rng = np.random.default_rng(1)
    grid = random_grid(rng, 30, 30, p=0.25)
    cm = nav.build_costmap(grid, nav.NavParams(inflation_radius=0.45, cost_decay=1.0, robot_radius=0.2))
    lethal = cm.cost == 255.0
    band = (cm.cost > 0.0) & ~lethal
    assert band.any()
    assert cm.cost[band].min() >= 1.0
    assert cm.cost[band].max() <= 253.0


def assert_costmap_bits(grid, params):
    got = nav.build_costmap(grid, params).cost
    assert got.tobytes() == costmap_reference(grid, params).tobytes(), (grid.cells.shape, params)


def test_costmap_equals_edt_reference_on_random_grids():
    # Non-square maps, lethal cells on the border, radii from 0 to 48 cells.
    rng = np.random.default_rng(25)
    for _ in range(600):
        h, w = (int(n) for n in rng.integers(5, 61, size=2))
        grid = random_grid(rng, w, h, p=rng.uniform(0.005, 0.3), resolution=rng.uniform(0.025, 0.2))
        params = nav.NavParams(
            inflation_radius=rng.uniform(0.0, 1.2),
            cost_decay=rng.uniform(0.0, 3.0),
            robot_radius=rng.uniform(0.0, 0.4),
        )
        assert_costmap_bits(grid, params)


def test_costmap_equals_edt_reference_on_lab_map(lab_scenario):
    assert lab_scenario.costmap.cost.tobytes() == (
        costmap_reference(lab_scenario.nav_grid, lab_scenario.nav).tobytes()
    )


@pytest.mark.parametrize("resolution", [0.1, 0.09])
def test_costmap_pythagorean_ties_match_edt(resolution):
    # Lethal cells 5 cells from one free cell along an axis and at (3, 4):
    # the same distance, but at 0.09 m (3r)^2 + (4r)^2 rounds one ulp above
    # (5r)^2, so which of the two wins shows in the bits.
    r = resolution
    assert (math.sqrt((3 * r) * (3 * r) + (4 * r) * (4 * r)) != 5 * r) == (r == 0.09)
    for axis, diagonal in (((5, 0), (3, 4)), ((0, 5), (4, 3)), ((-5, 0), (-3, 4)),
                           ((0, -5), (4, -3)), ((5, 0), (-3, -4)), ((0, 5), (-4, 3))):
        cells = np.zeros((13, 15), dtype=np.uint8)
        for di, dj in (axis, diagonal):
            cells[6 + di, 7 + dj] = CellState.OCCUPIED
        grid = OccupancyGrid(cells=cells, resolution=resolution)
        for radius in (5 * resolution, 5.5 * resolution, 0.8):
            assert_costmap_bits(grid, nav.NavParams(inflation_radius=radius))


@pytest.mark.parametrize(
    "resolution, radius_cells",
    [(0.05, 0), (0.05, 0.5), (0.05, 0.999), (0.05, 1), (0.05, 1.5), (0.03, 11)],
)
def test_costmap_small_radii_match_edt(resolution, radius_cells):
    # Radius 0, below one cell and just past it; and 11 cells of 0.03 m,
    # where radius / resolution rounds to 10.999999999999998.  Lethal cells
    # on the border leave free cells up to 24 cells from them.
    cells = np.zeros((15, 25), dtype=np.uint8)
    cells[7, 0] = CellState.OCCUPIED
    cells[14, 24] = CellState.UNKNOWN
    grid = OccupancyGrid(cells=cells, resolution=resolution)
    assert_costmap_bits(grid, nav.NavParams(inflation_radius=radius_cells * resolution))


def test_costmap_off_map_cost_is_lethal():
    # A wall-free 1 x 1 m map: every cell costs 0, so only the edge can block.
    cm = nav.build_costmap(grid_from(["." * 10] * 10), nav.NavParams(inflation_radius=0.0))
    assert not cm.cost.any()
    assert (cm.edged[-1] == nav.LETHAL_COST).all() and (cm.edged[:, -1] == nav.LETHAL_COST).all()
    with pytest.raises(nav.LethalEndpoint):
        nav.plan_global(cm, (0.5, 0.5), (-5.0, 0.5))
    # Every arc from an edge at full speed, heading off the map, leaves it:
    # east and north past the last cell, west and south below the first.
    path = nav.GlobalPath(waypoints=np.array([[0.5, 0.5]]), cost=0.0)
    for x, y, heading in ((0.95, 0.5, 0.0), (0.5, 0.95, math.pi / 2),
                          (0.05, 0.5, math.pi), (0.5, 0.05, -math.pi / 2)):
        robot = RobotState(x=x, y=y, heading=heading, v=0.5, camera_mount=CAMERA_MOUNT)
        with pytest.raises(nav.AllBlocked):
            nav.dwa_step(robot, path, cm, 0.1)


# ---------------------------------------------------------------------------
# Global planner vs Dijkstra oracle


def test_astar_equals_dijkstra_on_fixed_grid():
    grid = grid_from(
        [
            "..........",
            ".########.",
            "........#.",
            ".######.#.",
            ".#......#.",
            ".#.######.",
            ".#........",
            ".########.",
            "..........",
        ],
        resolution=0.5,
    )
    cm = nav.build_costmap(grid, nav.NavParams(inflation_radius=0.75, cost_decay=1.0))
    start, goal = (0.25, 0.25), (4.75, 4.25)
    s_cell = cm.world_to_cell(*start)
    g_cell = cm.world_to_cell(*goal)
    if not (cm.traversable(*s_cell) and cm.traversable(*g_cell)):
        pytest.skip("fixture endpoints inflated shut")
    plan = nav.plan_global(cm, start, goal)
    dist = dijkstra_costs(cm, s_cell)
    assert plan.cost == dist[g_cell]  # bitwise
    assert plan.cost == path_cost_recomputed(cm, path_cells(cm, plan))


def test_astar_equals_dijkstra_on_random_grids():
    rng = np.random.default_rng(2024)
    compared = 0
    unreachable = 0
    for _ in range(60):
        grid = random_grid(rng, 20, 20, p=0.3)
        cm = nav.build_costmap(grid, nav.NavParams(inflation_radius=0.25, cost_decay=1.0))
        free = np.argwhere(cm.cost < 253.0)
        if len(free) < 2:
            continue
        j0, i0 = free[rng.integers(len(free))]
        s_cell = (int(i0), int(j0))
        start = cm.cell_center(*s_cell)
        dist = dijkstra_costs(cm, s_cell)
        reachable = [c for c in dist if c != s_cell]
        if reachable:
            target = reachable[int(rng.integers(len(reachable)))]
            goal = cm.cell_center(*target)
            plan = nav.plan_global(cm, start, goal)
            assert plan.cost == dist[target]  # bitwise equality
            cells = path_cells(cm, plan)
            assert plan.cost == path_cost_recomputed(cm, cells)
            assert cells[0] == s_cell
            assert cells[-1] == target
            for (a, b), (c, d) in zip(cells, cells[1:]):
                assert max(abs(a - c), abs(b - d)) == 1
                assert cm.traversable(c, d)
            compared += 1
        cut_off = [
            (int(i), int(j)) for j, i in free if (int(i), int(j)) not in dist
        ]
        if cut_off:
            target = cut_off[int(rng.integers(len(cut_off)))]
            with pytest.raises(nav.NoPath):
                nav.plan_global(cm, start, cm.cell_center(*target))
            unreachable += 1
    assert compared >= 30  # the sweep must really exercise the planner
    assert unreachable >= 5


def test_astar_straight_line_cost_on_empty_map():
    cells = np.zeros((10, 10), dtype=np.uint8)
    cm = nav.build_costmap(OccupancyGrid(cells=cells, resolution=0.1), nav.NavParams(inflation_radius=0.0))
    plan = nav.plan_global(cm, (0.05, 0.05), (0.95, 0.05))
    assert plan.cost == pytest.approx(9 * 0.1, abs=1e-12)
    assert len(path_cells(cm, plan)) == 10
    diag = nav.plan_global(cm, (0.05, 0.05), (0.95, 0.95))
    assert diag.cost == pytest.approx(9 * 0.1 * math.sqrt(2.0), abs=1e-12)
    # Along the last column and the last row, the neighbours past the map's
    # width and height are the costmap's lethal edge.
    for start, goal in (((0.95, 0.05), (0.95, 0.95)), ((0.05, 0.95), (0.95, 0.95))):
        edge = nav.plan_global(cm, start, goal)
        expect = dijkstra_costs(cm, cm.world_to_cell(*start))[cm.world_to_cell(*goal)]
        assert edge.cost == expect
        assert len(path_cells(cm, edge)) == 10


def test_astar_prefers_longer_low_cost_route():
    # A corridor straight through an inflated gap vs a clear detour: the
    # planner must weigh cell costs, not just distance.
    rows = [
        ".........",
        ".........",
        ".........",
        "####.####",
        ".........",
        ".........",
        ".........",
    ]
    grid = grid_from(rows, resolution=1.0)
    cm = nav.build_costmap(grid, nav.NavParams(inflation_radius=2.0, cost_decay=1.0, robot_radius=0.2))
    start, goal = (4.5, 0.5), (4.5, 6.5)
    plan = nav.plan_global(cm, start, goal)
    dist = dijkstra_costs(cm, cm.world_to_cell(*start))
    assert plan.cost == dist[cm.world_to_cell(*goal)]
    assert plan.cost > 6.0  # strictly worse than free-space distance


def test_astar_trivial_same_cell():
    cm = nav.build_costmap(open_grid(10, 10), nav.NavParams(inflation_radius=0.0))
    plan = nav.plan_global(cm, (0.52, 0.53), (0.55, 0.58))
    assert plan.cost == 0.0
    assert path_cells(cm, plan) == [cm.world_to_cell(0.52, 0.53)]


def test_astar_lethal_endpoints_raise():
    grid = open_grid(10, 10)
    cm = nav.build_costmap(grid, nav.NavParams(inflation_radius=0.0))
    with pytest.raises(nav.LethalEndpoint):
        nav.plan_global(cm, (0.05, 0.05), (0.5, 0.5))  # start inside wall
    with pytest.raises(nav.LethalEndpoint):
        nav.plan_global(cm, (0.5, 0.5), (0.05, 0.05))  # goal inside wall
    with pytest.raises(nav.LethalEndpoint):
        nav.plan_global(cm, (-1.0, 0.5), (0.5, 0.5))  # off the map


def test_astar_no_path_through_solid_wall():
    rows = [
        "#########",
        "#...#...#",
        "#...#...#",
        "#...#...#",
        "#########",
    ]
    cm = nav.build_costmap(grid_from(rows, resolution=0.5), nav.NavParams(inflation_radius=0.0))
    with pytest.raises(nav.NoPath):
        nav.plan_global(cm, (0.75, 1.25), (3.75, 1.25))


# ---------------------------------------------------------------------------
# Dynamic-window step vs scalar oracle


def _random_dwa_case(rng):
    grid = random_grid(rng, 30, 30, p=0.06, resolution=0.1)
    cm = nav.build_costmap(grid, nav.NavParams(inflation_radius=0.25, cost_decay=1.0))
    free = np.argwhere(cm.cost < 253.0)
    j, i = free[rng.integers(len(free))]
    x, y = cm.cell_center(int(i), int(j))
    robot = RobotState(
        x=x,
        y=y,
        heading=float(rng.uniform(-math.pi, math.pi)),
        v=float(rng.uniform(0.0, 0.35)),
        omega=float(rng.uniform(-1.0, 1.0)),
        camera_mount=CAMERA_MOUNT,
    )
    n_wp = int(rng.integers(2, 12))
    wps = rng.uniform(0.2, 2.8, size=(n_wp, 2))
    path = nav.GlobalPath(waypoints=wps, cost=0.0)
    return robot, path, cm


def test_dwa_matches_scalar_oracle_on_random_states():
    rng = np.random.default_rng(99)
    agreements = 0
    blocked = 0
    for k in range(40):
        robot, path, cm = _random_dwa_case(rng)
        if k >= 25:
            # At rest the window is symmetric about omega = 0: the middle
            # column is a straight line and every +omega ties a -omega on |omega|.
            robot = replace(robot, v=0.0, omega=0.0)
        try:
            expected = dwa_reference(robot, path, cm, dt=0.1)
        except OracleBlocked:
            with pytest.raises(nav.AllBlocked):
                nav.dwa_step(robot, path, cm, 0.1)
            blocked += 1
            continue
        got = nav.dwa_step(robot, path, cm, 0.1)
        assert got == expected  # bitwise equality on (v, omega)
        agreements += 1
    assert agreements >= 24


@pytest.mark.parametrize(
    "heading, lookahead",
    [(0.0, (4.0, 3.0)), (0.0, (1.0, 3.0)), (math.pi / 2, (2.0, 1.5)), (math.pi, (4.0, 3.0)),
     (3 * math.pi + 0.4, (4.0, 3.0)), (-4 * math.pi, (1.0, 3.0)), (7.5, (2.0, 1.5))],
)
def test_dwa_at_rest_on_open_floor_matches_oracle(heading, lookahead):
    # On open floor with the path dead ahead or dead behind, mirrored +/-omega
    # arcs can score exactly alike; the lower index wins the remaining tie.
    # At rest the window's middle omega is exactly 0.0, a straight column;
    # past 3 pi the bearing error takes _wrap's scalar remainder.
    assert 0.0 in nav._window(nav._W_STEPS, -0.1, 0.1)
    cm = nav.build_costmap(open_grid(60, 60), nav.NavParams(inflation_radius=0.3, cost_decay=1.0))
    robot = RobotState(x=2.0, y=3.0, heading=heading, v=0.0, omega=0.0, camera_mount=CAMERA_MOUNT)
    path = nav.GlobalPath(waypoints=np.array([[2.0, 3.0], lookahead]), cost=0.0)
    assert nav.dwa_step(robot, path, cm, 0.1) == dwa_reference(robot, path, cm, dt=0.1)


@pytest.fixture
def free_boxes(monkeypatch):
    """Each ``Costmap.cost_free`` call's cell box and answer, in order."""
    calls = []

    def counted(self, lo, hi, real=nav.Costmap.cost_free):
        calls.append((lo, hi, real(self, lo, hi)))
        return calls[-1][2]

    monkeypatch.setattr(nav.Costmap, "cost_free", counted)
    return calls


def test_dwa_sample_box_boundaries_match_oracle(free_boxes):
    # The rollouts' cell box, read off an open map, places one lethal cell
    # just clear of the box, on its far column or in its corner, and the
    # map's last column on the box's last column or one column inside it.
    robot = RobotState(x=1.05, y=1.05, heading=0.3, v=0.3, omega=0.4, camera_mount=CAMERA_MOUNT)
    path = nav.GlobalPath(waypoints=np.array([[1.05, 1.05], [3.0, 2.0]]), cost=0.0)
    params = nav.NavParams(inflation_radius=0.0)
    nav.dwa_step(robot, path, nav.build_costmap(open_grid(60, 60), params), 0.1)
    [((i0, j0), (i1, j1), free)] = free_boxes
    assert free and i1 - i0 >= 3 and j1 - j0 >= 3

    def case(cells, walls=()):
        for i, j in walls:
            cells[j, i] = CellState.OCCUPIED
        return nav.build_costmap(OccupancyGrid(cells=cells, resolution=0.1), params)

    open_cells = open_grid(60, 60).cells
    cases = {
        "clear": (case(open_cells.copy(), [(i1 + 1, j1), (i0 - 1, j0), (i1, j1 + 1)]), True),
        "far column": (case(open_cells.copy(), [(i1, (j0 + j1) // 2)]), False),
        "corner": (case(open_cells.copy(), [(i1, j1)]), False),
        "on the edge": (case(np.zeros((60, i1 + 1), dtype=np.uint8)), True),
        "past the edge": (case(np.zeros((60, i1), dtype=np.uint8)), None),
    }
    for name, (cm, skips) in cases.items():
        free_boxes.clear()
        try:
            expected = dwa_reference(robot, path, cm, dt=0.1)
        except OracleBlocked:
            expected = None
        if expected is None:
            with pytest.raises(nav.AllBlocked):
                nav.dwa_step(robot, path, cm, 0.1)
        else:
            assert nav.dwa_step(robot, path, cm, 0.1) == expected, name
        # True: only the endpoints are rolled out.  None: the box runs off
        # the map, so the costs are gathered unasked.
        assert [free for _, _, free in free_boxes] == ([] if skips is None else [skips]), name


@pytest.fixture
def gathered(monkeypatch):
    """Each tick's sample box, the two corners dwa_step hands
    ``world_to_cell``, and a copy of its rollout's sample positions, with
    every box made to gather costs, so that every sample is rolled out."""
    corners, samples = [], []

    def to_cell(self, x, y, real=nav.Costmap.world_to_cell):
        corners.append((x, y))
        return real(self, x, y)

    def rollout(*args, real=nav._rollout):
        out = real(*args)
        samples.append(out.copy())
        return out

    monkeypatch.setattr(nav.Costmap, "world_to_cell", to_cell)
    monkeypatch.setattr(nav.Costmap, "cost_free", lambda self, lo, hi: False)
    monkeypatch.setattr(nav, "_rollout", rollout)

    def box_and_samples(robot, path, cm, dt=0.1):
        corners.clear()
        samples.clear()
        try:
            nav.dwa_step(robot, path, cm, dt)
        except nav.AllBlocked:
            pass
        [xy] = samples
        return corners, xy.reshape(2, -1)

    return box_and_samples


def _omega_with_column_at(target):
    """A robot omega whose dt = 0.1 window has a turning column (|omega| at
    least 1e-12) within 1e-16 of ``target``, and that column's index."""
    for k in range(-50, 50):
        omega = target + k * 1e-18
        ws = nav._window(nav._W_STEPS, omega - 0.1, omega + 0.1)
        hits = np.flatnonzero((np.abs(ws) >= 1e-12) & (np.abs(ws - target) <= 1e-16))
        if len(hits):
            return omega, int(hits[0])
    raise AssertionError(target)


def test_dwa_every_sample_lies_in_the_grown_sector_box(gathered, lab_ticks):
    # Every rollout sample's position lies between the box's corners, so its
    # cell lies in the box's cells at any resolution.  The widening is what
    # holds it on a column just past 1e-12 at a large heading: there the
    # computed chord is longer than v T by over 1e-4 m near theta0 = 10 and
    # by over 2 cm near theta0 = 1e3.
    rng = np.random.default_rng(35)
    cm = nav.build_costmap(open_grid(60, 60), nav.NavParams(inflation_radius=0.3))
    near = [_omega_with_column_at(sign * 1.0000001e-12) for sign in (1.0, -1.0)]
    # A window wholly past 1e-12 whose near end is just past it.
    past = next(w for w in 0.1 + 1e-12 + np.arange(-20, 20) * 2**-56
                if 1e-12 <= float(w) - 0.1 <= 1.0001e-12)
    cases = []
    for k in range(240):
        robot, path, small = _random_dwa_case(rng)
        heading = (robot.heading, float(rng.uniform(-1e3, 1e3)),
                   float(rng.integers(-636, 637)) * math.pi / 2)[k % 3]
        v = (0.0, robot.v, 0.5, float(rng.uniform(0.45, 0.5)), -0.3)[k % 5]  # -0.3: reversing
        omega = (0.0, robot.omega, float(rng.choice([-1, 1]) * rng.uniform(0.1, 1.0)),
                 near[0][0], near[1][0], float(past))[k % 6]
        robot = replace(robot, heading=heading, v=v, omega=omega)
        cases.append((robot, path, small if k % 2 else cm))
    cases += [args[:3] for args in lab_ticks]
    for robot, path, grid in cases:
        ((x_lo, y_lo), (x_hi, y_hi)), (x, y) = gathered(robot, path, grid)
        assert x_lo <= x.min() and x.max() <= x_hi and y_lo <= y.min() and y.max() <= y_hi
    assert all(abs(k - 10) <= 1 for _, k in near)  # the columns next to the middle one


def _window_shape(robot, dt=0.1):
    """How the robot's omega window meets |omega| < 1e-12, the straight
    columns, and the window's straight-column mask."""
    w_lo = max(-nav.DWA_OMEGA_MAX, robot.omega - nav.DWA_ACCEL_OMEGA * dt)
    w_hi = min(nav.DWA_OMEGA_MAX, robot.omega + nav.DWA_ACCEL_OMEGA * dt)
    ws = nav._window(nav._W_STEPS, w_lo, w_hi)
    straight = np.abs(ws) < 1e-12
    if min(w_lo, w_hi) >= 1e-12 or max(w_lo, w_hi) <= -1e-12:
        assert not straight.any()
        return "wholly turning", straight
    if (ws == 0.0).any():
        return "zero column", straight
    if 0.0 < abs(w_lo) < 1e-12:
        return "an end inside 1e-12", straight
    return ("near-zero column" if straight.any() else "no straight column"), straight


def test_dwa_matches_oracle_on_every_window_shape_bearing_and_tie(monkeypatch):
    # Omega windows wholly past 1e-12 on either side, windows that straddle
    # 0 with an exactly-zero column, a column inside 1e-12 but not 0, or
    # neither, and windows with an end inside 1e-12 of 0; headings up to 3
    # turns out, so that the bearing error passes pi and 3 pi; and, at rest
    # on open floor with the path dead ahead or behind, mirrored arcs that
    # tie.  Every rollout gets the window's straight columns, or None for none.
    # np.arctan2 is made to err by up to _ATAN2_GAP, the most its guard below
    # allows: ties it breaks must still send the tick to libm's bearing.
    errors, ties, masks, libm_calls = [], [], [], [0]

    def rollout(vs, radius, tau, arc, straight, *rest, real=nav._rollout):
        masks.append(straight)
        return real(vs, radius, tau, arc, straight, *rest)

    def wrap(err, real=nav._wrap):
        errors.append(float(np.abs(err).max()))
        return real(err)

    def lexsort(keys, real=np.lexsort):
        ties.append(len(keys[0]))
        return real(keys)

    def atan2(y, x, real=math.atan2):
        libm_calls[0] += 1
        return real(y, x)

    noise = np.random.default_rng(5)

    def arctan2(y, x, real=np.arctan2):
        return real(y, x) + noise.uniform(-0.99, 0.99, np.shape(y)) * nav._ATAN2_GAP

    monkeypatch.setattr(nav, "_wrap", wrap)
    monkeypatch.setattr(np, "lexsort", lexsort)
    monkeypatch.setattr(math, "atan2", atan2)
    monkeypatch.setattr(np, "arctan2", arctan2)
    monkeypatch.setattr(nav, "_rollout", rollout)
    rng = np.random.default_rng(2024)
    shapes, libm_ties = Counter(), 0
    open_cm = nav.build_costmap(open_grid(60, 60), nav.NavParams(inflation_radius=0.3))
    for k in range(105):
        robot, path, cm = _random_dwa_case(rng)
        omega = (rng.uniform(0.1, 1.0), -rng.uniform(0.1, 1.0), 0.0, rng.uniform(-0.1, 0.1),
                 1e-13, -3e-13, 0.1 + 5e-13)[k % 7]
        turns = 2.0 * math.pi * int(rng.integers(-3, 4))
        robot = replace(robot, omega=float(omega), heading=robot.heading + turns)
        if k % 5 == 4:
            x, y = (float(c) for c in rng.uniform(1.5, 4.5, size=2))
            ahead = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.7, 1.2))
            robot = RobotState(x=x, y=y, heading=0.0, camera_mount=CAMERA_MOUNT)
            path, cm = nav.GlobalPath(np.array([[x, y], [x + ahead, y]]), cost=0.0), open_cm
        shape, straight = _window_shape(robot)
        shapes[shape] += 1
        masks.clear()
        try:
            expected = dwa_reference(robot, path, cm, dt=0.1)
        except OracleBlocked:
            with pytest.raises(nav.AllBlocked):
                nav.dwa_step(robot, path, cm, 0.1)
            continue
        libm_calls[0], tied = 0, len(ties)
        assert nav.dwa_step(robot, path, cm, 0.1) == expected, k
        if len(ties) > tied:  # an exact tie: every bearing came from libm
            assert libm_calls[0] == nav.DWA_N_V * nav.DWA_N_OMEGA, k
            libm_ties += 1
        assert masks and all(np.array_equal(straight, np.zeros_like(straight) if mask is None
                                            else mask) for mask in masks), k
    assert set(shapes) == {"wholly turning", "zero column", "near-zero column",
                           "no straight column", "an end inside 1e-12"}
    assert min(shapes.values()) >= 9
    assert max(errors) > 3 * math.pi and sum(e >= math.pi for e in errors) >= 30
    assert len(ties) >= 5 and min(ties) >= 2, ties
    assert libm_ties == len(ties)


def test_np_arctan2_stays_within_the_bearing_gap_of_libm():
    # dwa_step scores with np.arctan2's bearing and keeps the pick only where
    # any bearing within _ATAN2_GAP of libm's atan2 gives the same one; a
    # numpy release that parts the two by more fails here, not in a golden log.
    rng = np.random.default_rng(1)
    n = 500_000
    near = rng.uniform(-8.0, 8.0, size=(2, n))  # endpoint-to-lookahead offsets
    wide = 10.0 ** rng.uniform(-300.0, 12.0, size=(2, n)) * rng.choice([-1.0, 1.0], (2, n))
    special = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-315, 2.2250738585072014e-308,
               1e-300, -1e-300, 1.0, -1.0, math.pi, 1e12, -1e12]
    y, x = np.hstack([near, wide, np.array(list(itertools.product(special, repeat=2))).T])
    libm = np.fromiter(map(math.atan2, y.tolist(), x.tolist()), np.float64, len(y))
    assert np.abs(np.arctan2(y, x) - libm).max() <= nav._ATAN2_GAP


@pytest.fixture(scope="module")
def lab_ticks(lab_scenario):
    """The arguments of every dwa_step tick of the three legs a cold
    lab_study batch drives: from the start pose to each search location."""
    ticks, real = [], nav.dwa_step

    def recorded(*args):
        ticks.append(args)
        return real(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nav, "dwa_step", recorded)
        robot = lab_scenario.robot_state()
        for roi in lab_scenario.rois:
            leg = nav._drive(lab_scenario, robot, roi.pose, np.random.default_rng(2))
            assert leg.arrived
            x, y, heading, v, omega = leg.end
            robot = replace(robot, x=x, y=y, heading=heading, v=v, omega=omega)
    assert len(ticks) > 500
    return ticks


def test_dwa_matches_oracle_on_a_cold_lab_studys_ticks(free_boxes, lab_ticks):
    for args in lab_ticks:  # the scalar oracle takes about 10 ms a tick
        assert nav.dwa_step(*args) == dwa_reference(*args)
    # Both the endpoint-only ticks and the ticks that gather costs.
    assert {free for *_, free in free_boxes} == {True, False}


def test_dwa_open_space_drives_at_goal():
    grid = open_grid(60, 60)
    cm = nav.build_costmap(grid, nav.NavParams(inflation_radius=0.3, cost_decay=1.0))
    robot = RobotState(x=1.5, y=3.0, heading=0.0, v=0.5, omega=0.0, camera_mount=CAMERA_MOUNT)
    path = nav.GlobalPath(
        waypoints=np.array([[1.5, 3.0], [2.5, 3.0], [4.0, 3.0]]), cost=0.0
    )
    v, w = nav.dwa_step(robot, path, cm, 0.1)
    assert w == 0.0  # goal dead ahead: zero turn wins the tie-break
    assert v == 0.5  # already at v_max; velocity term keeps it there


def test_dwa_turns_toward_offset_goal():
    grid = open_grid(60, 60)
    cm = nav.build_costmap(grid, nav.NavParams(inflation_radius=0.3, cost_decay=1.0))
    robot = RobotState(x=3.0, y=3.0, heading=0.0, v=0.2, omega=0.0, camera_mount=CAMERA_MOUNT)
    path = nav.GlobalPath(
        waypoints=np.array([[3.0, 3.0], [3.0, 4.5]]), cost=0.0
    )
    v, w = nav.dwa_step(robot, path, cm, 0.1)
    assert w > 0.0  # goal is to the left (+y)


def test_dwa_all_blocked_in_tight_pocket():
    cells = np.ones((7, 7), dtype=np.uint8)
    cells[3, 3] = 0
    grid = OccupancyGrid(cells=cells, resolution=0.1)
    cm = nav.build_costmap(grid, nav.NavParams(inflation_radius=0.0))
    # Braking for one tick leaves at least 0.25 m/s: the robot cannot stand still.
    robot = RobotState(x=0.35, y=0.35, heading=0.0, v=0.3, omega=0.0, camera_mount=CAMERA_MOUNT)
    path = nav.GlobalPath(waypoints=np.array([[0.65, 0.35]]), cost=0.0)
    with pytest.raises(nav.AllBlocked):
        nav.dwa_step(robot, path, cm, 0.1)


def test_window_matches_linspace_bitwise():
    rng = np.random.default_rng(27)
    tiny = np.nextafter(0.0, 1.0)
    bounds = [(0.0, 0.0), (0.3, 0.3), (-1.0, -1.0), (0.0, tiny), (-tiny, tiny), (0.0, 30 * tiny),
              (5 * tiny, 2 * tiny), (1e-310, 3e-310), (0.0, 0.5), (-0.1, 0.1), (-1.0, 1.0)]
    bounds += [tuple(rng.uniform(-2.0, 2.0, size=2)) for _ in range(300)]
    scales = 10.0 ** rng.integers(-320, 3, size=300)
    bounds += [tuple(rng.uniform(-1.0, 1.0, size=2) * scale) for scale in scales]
    for lo, hi in bounds:
        for steps in (nav._V_STEPS, nav._W_STEPS, np.arange(2.0), np.arange(3.0)):
            got = nav._window(steps, float(lo), float(hi))
            assert got.tobytes() == np.linspace(lo, hi, len(steps)).tobytes(), (lo, hi, len(steps))


def test_wrap_matches_remainder_bitwise():
    pi = math.pi
    edges = [0.0, -0.0, 1e3, -1e3, 2 * pi + pi, -(2 * pi + pi)]
    for a in (pi, 3 * pi, 4 * pi):
        edges += [a, -a, math.nextafter(a, 0.0), math.nextafter(a, math.inf),
                  -math.nextafter(a, 0.0), -math.nextafter(a, math.inf)]
    err = np.concatenate([np.random.default_rng(27).uniform(-12.0, 12.0, size=1_000_000), edges])
    expected = np.array([math.remainder(e, 2.0 * pi) for e in err.tolist()])
    assert nav._wrap(err).tobytes() == expected.tobytes()


def test_lookahead_point_selection():
    wps = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [1.5, 0.0], [2.0, 0.0]])
    path = nav.GlobalPath(waypoints=wps, cost=0.0)
    assert nav.lookahead_point(path, 0.1, 0.0, 0.6) == (1.0, 0.0)
    # Past everything: clamps to the final waypoint.
    assert nav.lookahead_point(path, 2.4, 0.0, 0.6) == (2.0, 0.0)
    # Nearest selection starts mid-path, never looks backward.
    assert nav.lookahead_point(path, 1.05, 0.1, 0.6) == (2.0, 0.0)


# ---------------------------------------------------------------------------
# navigate_to


def _scenario(lab_scenario, grid, inflation=0.3, pose_sigma=0.0, **over):
    """lab_study on ``grid``, which is also its planning grid, without depth noise.

    Each call builds a new scenario, so each gets its own costmap and leg memo.
    """
    return replace(
        lab_scenario,
        grid=grid,
        nav_grid=grid,
        nav=nav.NavParams(inflation_radius=inflation),
        noise=NoiseParams(pose_sigma=pose_sigma),
        **over,
    )


def _engine(scenario, robot, t=0.0, **over):
    """A condition-B episode engine on ``scenario`` at clock ``t``, with an
    empty scene unless ``over`` gives one."""
    config = scenario.orchestrator_config("B")
    defaults = dict(
        scene=world.Scene(grid=scenario.grid, objects=[]),
        robot=robot,
        detector_rng=np.random.default_rng(0),
        depth_noise_rng=np.random.default_rng(1),
        pose_noise_rng=np.random.default_rng(2),
    )
    defaults.update(over)
    engine = episode._Engine(
        scenario=scenario, config=config, state=initial_state(config), log=SessionLog(meta={}),
        **defaults,
    )
    engine.advance(t)
    return engine


def test_navigate_to_arrives_within_tolerances(monkeypatch, lab_scenario):
    real_step = world.step_kinematics
    hits = []

    def step_kinematics(*args):
        moved, hit = real_step(*args)
        hits.append(hit)
        return moved, hit

    monkeypatch.setattr(world, "step_kinematics", step_kinematics)
    grid = open_grid(80, 60)  # 8 x 6 m room
    robot = RobotState(x=1.0, y=1.0, heading=0.0, camera_mount=CAMERA_MOUNT)
    engine = _engine(_scenario(lab_scenario, grid), robot)
    goal = (5.0, 4.0, math.pi / 2)
    res = engine.drive(goal)
    assert res.arrived, res.reason
    assert math.hypot(engine.robot.x - 5.0, engine.robot.y - 4.0) <= 0.3
    from aansim.geometry import normalize_angle

    assert abs(normalize_angle(math.pi / 2 - engine.robot.heading)) <= math.radians(15.0) + 1e-9
    assert hits and not any(hits)
    # The clock advances one dt per kinematics step.
    assert res.ticks == len(hits)
    assert engine.t == pytest.approx(len(hits) * 0.1)


def test_navigate_to_reports_unreachable_goal(lab_scenario):
    rows = [
        "#########",
        "#...#...#",
        "#...#...#",
        "#...#...#",
        "#########",
    ]
    grid = grid_from(rows, resolution=0.5)
    robot = RobotState(x=1.0, y=1.25, heading=0.0, camera_mount=CAMERA_MOUNT)
    engine = _engine(_scenario(lab_scenario, grid, inflation=0.0), robot)
    res = engine.drive((3.75, 1.25, 0.0))
    assert not res.arrived
    assert res.reason.startswith("no_path")
    assert engine.t == 0.0


def test_navigate_to_is_deterministic(lab_scenario):
    grid = open_grid(80, 60)

    def run():
        robot = RobotState(x=1.0, y=1.0, heading=0.0, camera_mount=CAMERA_MOUNT)
        engine = _engine(_scenario(lab_scenario, grid), robot)
        res = engine.drive((6.0, 4.5, 0.0))
        return (res.arrived, engine.t, engine.robot.x, engine.robot.y, engine.robot.heading)

    assert run() == run()


# ---------------------------------------------------------------------------
# navigate_to's leg memo: a warm call looks up a leg driven on the same
# scenario's costmap; the engine's replay of it must equal a cold drive on a
# fresh scenario bit for bit.


@pytest.fixture
def drive_calls(monkeypatch):
    """Calls to dwa_step, plan_global and step_kinematics, by name."""
    calls = Counter()
    for owner, name in ((nav, "dwa_step"), (nav, "plan_global"), (world, "step_kinematics")):

        def counted(*args, _real=getattr(owner, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(owner, name, counted)
    return calls


def _outcome(engine, result):
    """Everything a drive leaves behind, with floats as exact hex strings."""
    r = engine.robot
    floats = (engine.t, r.x, r.y, r.heading, r.v, r.omega, r.head_pan)
    return result, [f.hex() for f in floats], engine.log.records


def _cold_and_warm(drive_calls, lab_scenario, grid, robot, goal, inflation=0.3, pose_sigma=0.0):
    """A cold drive at clock 7.3, and a warm one at 7.3 whose leg was driven
    at clock 0: ``(cold, cold_outcome, warm, warm_outcome)``.  Each engine
    gets a fresh scenario (the warm one shares the first drive's) and a fresh
    ``pose_noise_rng`` with seed 5; ``drive_calls`` ends holding the warm
    drive's counts."""

    def engine(scenario=None, t=0.0):
        scenario = scenario or _scenario(lab_scenario, grid, inflation, pose_sigma=pose_sigma)
        return _engine(scenario, robot, t, pose_noise_rng=np.random.default_rng(5))

    cold = engine(t=7.3)
    cold_outcome = _outcome(cold, cold.drive(goal))
    primer = engine()
    primer.drive(goal)
    warm = engine(primer.scenario, 7.3)
    drive_calls.clear()
    return cold, cold_outcome, warm, _outcome(warm, warm.drive(goal))


def test_warm_leg_replays_cold_drive_at_a_later_clock(drive_calls, lab_scenario):
    start = RobotState(x=1.0, y=1.0, heading=0.0, camera_mount=CAMERA_MOUNT)
    _, cold_outcome, warm, warm_outcome = _cold_and_warm(
        drive_calls, lab_scenario, open_grid(80, 60), start, (5.0, 4.0, math.pi / 2)
    )
    assert drive_calls == Counter()
    assert warm_outcome == cold_outcome
    assert (cold_outcome[0].arrived, cold_outcome[0].reason) == (True, "arrived")
    assert len(warm.scenario.costmap.legs) == 1


def test_legs_are_keyed_by_goal_and_start_velocity(lab_scenario):
    grid = open_grid(80, 60)
    start = RobotState(x=1.0, y=1.0, heading=0.0, camera_mount=CAMERA_MOUNT)
    cases = [
        (start, (5.0, 4.0, math.pi / 2)),
        (start, (2.0, 4.0, 0.0)),
        (replace(start, v=0.2), (5.0, 4.0, math.pi / 2)),
    ]
    shared = _scenario(lab_scenario, grid)
    for robot, goal in cases:
        cold, warm = _engine(_scenario(lab_scenario, grid), robot), _engine(shared, robot)
        assert _outcome(warm, warm.drive(goal)) == _outcome(cold, cold.drive(goal))
    assert len(shared.costmap.legs) == 3


def test_warm_leg_replays_recovery_spin_note_at_its_tick(drive_calls, lab_scenario):
    # Moving at 0.3 m/s, 0.4 m from a wall: every dynamic-window arc collides
    # on the first tick, so the robot spins, replans and drives back west.
    start = RobotState(x=1.5, y=1.0, heading=0.0, v=0.3, camera_mount=CAMERA_MOUNT)
    _, cold_outcome, warm, warm_outcome = _cold_and_warm(
        drive_calls, lab_scenario, open_grid(20, 20), start, (0.5, 1.0, math.pi), inflation=0.0
    )
    assert drive_calls == Counter()
    assert warm_outcome == cold_outcome
    (leg,) = warm.scenario.costmap.legs.values()
    assert leg.spins == (0,) and leg.ticks > 20
    assert [(r["t"], r["note"]) for r in warm.log.records] == [(7.3, "recovery_spin")]


def test_warm_no_path_leg_leaves_the_clock(drive_calls, lab_scenario):
    rows = ["#########", "#...#...#", "#...#...#", "#...#...#", "#########"]
    start = RobotState(x=1.0, y=1.25, heading=0.0, camera_mount=CAMERA_MOUNT)
    _, cold_outcome, _, warm_outcome = _cold_and_warm(
        drive_calls, lab_scenario, grid_from(rows, resolution=0.5), start, (3.75, 1.25, 0.0),
        inflation=0.0,
    )
    assert drive_calls == Counter()
    assert warm_outcome == cold_outcome
    result, floats, _ = cold_outcome
    assert result.reason.startswith("no_path") and floats[0] == (7.3).hex()


def test_noisy_legs_are_driven_every_time(drive_calls, lab_scenario):
    start = RobotState(x=1.0, y=1.0, heading=0.0, camera_mount=CAMERA_MOUNT)
    cold, cold_outcome, warm, warm_outcome = _cold_and_warm(
        drive_calls, lab_scenario, open_grid(80, 60), start, (5.0, 4.0, math.pi / 2),
        pose_sigma=0.02,
    )
    assert drive_calls["dwa_step"] > 0 and warm.scenario.costmap.legs == {}
    assert warm_outcome == cold_outcome
    assert warm.pose_noise_rng.bit_generator.state == cold.pose_noise_rng.bit_generator.state


# ---------------------------------------------------------------------------
# The engine's visit to one search location

BOTTLE = (7.0, 3.0, 0.9)
SEARCH_ROIS = [
    # roi_a looks at the south wall; only roi_b faces the bottle, 1 m ahead.
    world.RegionOfInterest("roi_a", (2.0, 1.5, -math.pi / 2), "by the south wall"),
    world.RegionOfInterest("roi_b", (6.0, 3.0, 0.0), "by the east shelf"),
]


def _search_engine(lab_scenario, with_bottle, pose_sigma=0.0):
    objects = []
    if with_bottle:
        objects.append(
            world.SceneObject(
                kind=world.ObjectKind.PILL_BOTTLE,
                position=BOTTLE,
                shape=world.CylinderShape(radius=0.04, height=0.16),
            )
        )
    grid = open_grid(80, 60)
    robot = RobotState(x=1.0, y=3.0, heading=0.0, camera_mount=CAMERA_MOUNT)
    scenario = _scenario(
        lab_scenario,
        grid,
        pose_sigma=pose_sigma,
        intrinsics=CameraIntrinsics(fx=130.0, fy=130.0, cx=79.5, cy=59.5, width=160, height=120),
        detector=world.DetectorModel(
            true_positive_rate=1.0, false_positive_rate=0.0, box_noise_sigma=0.0, max_range=4.0
        ),
    )
    return _engine(scenario, robot, scene=world.Scene(grid=grid, objects=objects))


def _visit_all(engine):
    """The event of a visit to each search location in turn, each checked against the clock."""
    events = []
    for roi in SEARCH_ROIS:
        event = engine.visit(roi)
        assert isinstance(event, AssistEvent)
        assert event.t == engine.t
        events.append(event)
    return events


def test_visit_roi_misses_then_finds_the_bottle(lab_scenario):
    engine = _search_engine(lab_scenario, with_bottle=True)
    miss, found = _visit_all(engine)
    assert miss == AssistEvent.miss(miss.t, "roi_a")
    assert (found.kind, found.roi) == (EventKind.FOUND, "roi_b")
    assert found.t > miss.t
    target = found.target
    assert isinstance(target, np.ndarray)
    assert target.dtype == np.float64 and target.shape == (3,)
    # The base-frame point lies on the bottle, seen from where the robot stopped.
    x, y, _ = engine.robot.world_from_base().apply(target)
    assert math.hypot(x - BOTTLE[0], y - BOTTLE[1]) < 0.1
    # Progress notes go to the episode log, stamped with the clock.
    notes = [(r["t"], r["note"], r["data"]["roi"]) for r in engine.log.records]
    assert [n[1:] for n in notes] == [
        ("navigating", "roi_a"), ("scanning", "roi_a"), ("navigating", "roi_b"), ("scanning", "roi_b"),
    ]
    assert notes[0][0] == 0.0 and notes[2][0] == miss.t


def test_visit_roi_misses_without_a_bottle(lab_scenario):
    engine = _search_engine(lab_scenario, with_bottle=False)
    events = _visit_all(engine)
    assert [(e.kind, e.roi) for e in events] == [(EventKind.MISS, "roi_a"), (EventKind.MISS, "roi_b")]
    # The scans sweep a copy of the robot; its own head pan is never moved.
    assert engine.robot.head_pan == 0.0


def test_noisy_scans_leave_the_frame_memo_empty(lab_scenario):
    noisy = _search_engine(lab_scenario, with_bottle=True, pose_sigma=0.02)
    _visit_all(noisy)
    assert noisy.scene.frames == {}
    # The same visits without pose noise fill it, one entry per rendered frame.
    clean = _search_engine(lab_scenario, with_bottle=True)
    _visit_all(clean)
    assert len(clean.scene.frames) == 6  # five pans at roi_a, then a hit on the first pan at roi_b



def test_visit_roi_blind_sweep_takes_five_frames_and_leaves_the_pan(monkeypatch, lab_scenario):
    engine = _search_engine(lab_scenario, with_bottle=True)
    sc = engine.scenario
    engine.scenario = replace(sc, detector=replace(sc.detector, true_positive_rate=0.0))
    engine.robot.head_pan = 0.123
    views = []
    real = world.detect

    def seen(scene, robot, *rest):
        views.append((robot.head_pan, engine.robot.head_pan, engine.t))
        return real(scene, robot, *rest)

    monkeypatch.setattr(world, "detect", seen)
    event = engine.visit(SEARCH_ROIS[1])
    assert event == AssistEvent.miss(event.t, "roi_b")
    (t_scan,) = [r["t"] for r in engine.log.records if r["note"] == "scanning"]
    # Each frame advances the clock by one frame_time before it is taken.
    t = t_scan
    for pan, robot_pan, t_frame in views:
        t += engine.scenario.session.frame_time_s
        assert t_frame == t
    assert event.t == t
    # -30..30 deg in 15 deg steps, each from a copy: the robot's pan never moves.
    assert [pan for pan, _, _ in views] == list(world.PAN_SCHEDULE)
    assert [robot_pan for _, robot_pan, _ in views] == [0.123] * 5
    assert engine.robot.head_pan == 0.123


def test_visit_roi_localizes_a_first_pan_hit_from_that_view(lab_scenario):
    engine = _search_engine(lab_scenario, with_bottle=True)
    sc = engine.scenario
    found = engine.visit(SEARCH_ROIS[1])
    assert found.kind is EventKind.FOUND
    (t_scan,) = [r["t"] for r in engine.log.records if r["note"] == "scanning"]
    assert found.t == t_scan + sc.session.frame_time_s  # one frame: the first pan fired
    # The same frame, detected and localized again from the -30 deg view.
    view = replace(engine.robot, head_pan=world.PAN_SCHEDULE[0])
    det = world.detect(engine.scene, view, sc.detector, sc.intrinsics, np.random.default_rng(0), {})
    assert det is not None and det.true_kind is world.ObjectKind.PILL_BOTTLE
    est = geometry.localize_target(det.depth, det.box, sc.intrinsics, view.base_from_camera())
    assert np.array_equal(found.target, est.target_base)
    assert engine.robot.head_pan == 0.0
