import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from aansim import geometry
from aansim import navigation as nav
from aansim import world
from aansim.geometry import CameraIntrinsics
from aansim.orchestrator import AssistEvent, EventKind
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
def rollouts(monkeypatch):
    """Each ``navigation._rollout`` call's arguments and a copy of its result, in order."""
    calls = []

    def recorded(*args, real=nav._rollout):
        out = real(*args)
        calls.append((args, out.copy()))
        return out

    monkeypatch.setattr(nav, "_rollout", recorded)
    return calls


def test_dwa_sample_box_from_two_rows_equals_the_all_sample_box(rollouts):
    # The first rollout is the slowest and fastest rows at every time, the
    # second has every row; together they give every sample.
    rng = np.random.default_rng(33)
    straight = 0
    for k in range(60):
        robot, path, cm = _random_dwa_case(rng)
        if k % 3 == 0:
            robot = replace(robot, v=0.0, omega=0.0)  # a window with an exactly-zero omega
        rollouts.clear()
        try:
            nav.dwa_step(robot, path, cm, 0.1)
        except nav.AllBlocked:
            pass
        (edge_args, edges), ((origin, vs, radius, *_), _) = rollouts[:2]
        every = nav._rollout(origin, vs, radius, *edge_args[3:]).reshape(2, -1)
        edges = edges.reshape(2, -1)
        assert edges.min(axis=1).tobytes() == every.min(axis=1).tobytes()
        assert edges.max(axis=1).tobytes() == every.max(axis=1).tobytes()
        straight += bool(edge_args[5].any())
    assert straight >= 20


def test_dwa_matches_oracle_on_a_cold_lab_studys_ticks(monkeypatch, free_boxes, lab_scenario):
    # The three legs a cold lab_study batch drives: from the start pose to
    # each search location in turn.
    ticks, real = [], nav.dwa_step

    def recorded(*args):
        ticks.append(args)
        return real(*args)

    monkeypatch.setattr(nav, "dwa_step", recorded)
    session = _session(lab_scenario, lab_scenario.robot_state())
    for roi in lab_scenario.rois:
        leg = nav._drive(session, roi.pose)
        assert leg.arrived
        x, y, heading, v, omega = leg.end
        session.robot = replace(session.robot, x=x, y=y, heading=heading, v=v, omega=omega)
    assert len(ticks) > 500
    free_boxes.clear()
    for args in ticks[::3]:  # the scalar oracle takes about 8 ms a tick
        assert real(*args) == dwa_reference(*args)
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


def _session(scenario, robot, **over):
    defaults = dict(
        scenario=scenario,
        scene=world.Scene(grid=scenario.grid, objects=[]),
        robot=robot,
        clock=nav.Clock(),
        detector_rng=np.random.default_rng(0),
        depth_noise_rng=np.random.default_rng(1),
        pose_noise_rng=np.random.default_rng(2),
        log=SessionLog(meta={}),
    )
    defaults.update(over)
    return nav.NavSession(**defaults)


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
    session = _session(_scenario(lab_scenario, grid), robot)
    goal = (5.0, 4.0, math.pi / 2)
    res = nav.navigate_to(session, goal)
    assert res.arrived, res.reason
    assert math.hypot(session.robot.x - 5.0, session.robot.y - 4.0) <= 0.3
    from aansim.geometry import normalize_angle

    assert abs(normalize_angle(math.pi / 2 - session.robot.heading)) <= math.radians(15.0) + 1e-9
    assert hits and not any(hits)
    # The clock advances one dt per kinematics step.
    assert session.clock.t == pytest.approx(len(hits) * 0.1)


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
    session = _session(_scenario(lab_scenario, grid, inflation=0.0), robot)
    res = nav.navigate_to(session, (3.75, 1.25, 0.0))
    assert not res.arrived
    assert res.reason.startswith("no_path")
    assert session.clock.t == 0.0


def test_navigate_to_is_deterministic(lab_scenario):
    grid = open_grid(80, 60)

    def run():
        robot = RobotState(x=1.0, y=1.0, heading=0.0, camera_mount=CAMERA_MOUNT)
        session = _session(_scenario(lab_scenario, grid), robot)
        res = nav.navigate_to(session, (6.0, 4.5, 0.0))
        return (res.arrived, session.clock.t, session.robot.x, session.robot.y, session.robot.heading)

    assert run() == run()


# ---------------------------------------------------------------------------
# navigate_to's leg memo: a warm call replays a leg driven on the same
# scenario's costmap; its effect must equal a cold drive on a fresh scenario
# bit for bit.


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


def _outcome(session, result):
    """Everything navigate_to leaves behind, with floats as exact hex strings."""
    r = session.robot
    floats = (session.clock.t, r.x, r.y, r.heading, r.v, r.omega, r.head_pan)
    return result, [f.hex() for f in floats], session.log.records


def _cold_and_warm(drive_calls, lab_scenario, grid, robot, goal, inflation=0.3, pose_sigma=0.0):
    """A cold drive at clock 7.3, and a warm call at 7.3 whose leg was driven
    at clock 0: ``(cold, cold_outcome, warm, warm_outcome)``.  Each session
    gets a fresh scenario (the warm one shares the first drive's) and a fresh
    ``pose_noise_rng`` with seed 5; ``drive_calls`` ends holding the warm
    call's counts."""

    def session(scenario=None, **more):
        scenario = scenario or _scenario(lab_scenario, grid, inflation, pose_sigma=pose_sigma)
        return _session(scenario, robot, pose_noise_rng=np.random.default_rng(5), **more)

    cold = session(clock=nav.Clock(7.3))
    cold_outcome = _outcome(cold, nav.navigate_to(cold, goal))
    primer = session()
    nav.navigate_to(primer, goal)
    warm = session(scenario=primer.scenario, clock=nav.Clock(7.3))
    drive_calls.clear()
    return cold, cold_outcome, warm, _outcome(warm, nav.navigate_to(warm, goal))


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
        cold, warm = _session(_scenario(lab_scenario, grid), robot), _session(shared, robot)
        assert _outcome(warm, nav.navigate_to(warm, goal)) == _outcome(cold, nav.navigate_to(cold, goal))
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
# visit_roi

BOTTLE = (7.0, 3.0, 0.9)
SEARCH_ROIS = [
    # roi_a looks at the south wall; only roi_b faces the bottle, 1 m ahead.
    world.RegionOfInterest("roi_a", (2.0, 1.5, -math.pi / 2), "by the south wall"),
    world.RegionOfInterest("roi_b", (6.0, 3.0, 0.0), "by the east shelf"),
]


def _search_session(lab_scenario, with_bottle, pose_sigma=0.0):
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
    return _session(scenario, robot, scene=world.Scene(grid=grid, objects=objects))


def _visit_all(session):
    """The event of a visit to each search location in turn, each checked against the clock."""
    events = []
    for roi in SEARCH_ROIS:
        event = nav.visit_roi(session, roi)
        assert isinstance(event, AssistEvent)
        assert event.t == session.clock.t
        events.append(event)
    return events


def test_visit_roi_misses_then_finds_the_bottle(lab_scenario):
    session = _search_session(lab_scenario, with_bottle=True)
    miss, found = _visit_all(session)
    assert miss == AssistEvent.miss(miss.t, "roi_a")
    assert (found.kind, found.roi) == (EventKind.FOUND, "roi_b")
    assert found.t > miss.t
    target = found.target
    assert isinstance(target, np.ndarray)
    assert target.dtype == np.float64 and target.shape == (3,)
    # The base-frame point lies on the bottle, seen from where the robot stopped.
    x, y, _ = session.robot.world_from_base().apply(target)
    assert math.hypot(x - BOTTLE[0], y - BOTTLE[1]) < 0.1
    # Progress notes go to the session log, stamped with the clock.
    notes = [(r["t"], r["note"], r["data"]["roi"]) for r in session.log.records]
    assert [n[1:] for n in notes] == [
        ("navigating", "roi_a"), ("scanning", "roi_a"), ("navigating", "roi_b"), ("scanning", "roi_b"),
    ]
    assert notes[0][0] == 0.0 and notes[2][0] == miss.t


def test_visit_roi_misses_without_a_bottle(lab_scenario):
    session = _search_session(lab_scenario, with_bottle=False)
    events = _visit_all(session)
    assert [(e.kind, e.roi) for e in events] == [(EventKind.MISS, "roi_a"), (EventKind.MISS, "roi_b")]
    # The scans sweep a copy of the robot; its own head pan is never moved.
    assert session.robot.head_pan == 0.0


def test_noisy_scans_leave_the_frame_memo_empty(lab_scenario):
    noisy = _search_session(lab_scenario, with_bottle=True, pose_sigma=0.02)
    _visit_all(noisy)
    assert noisy.scene.frames == {}
    # The same visits without pose noise fill it, one entry per rendered frame.
    clean = _search_session(lab_scenario, with_bottle=True)
    _visit_all(clean)
    assert len(clean.scene.frames) == 6  # five pans at roi_a, then a hit on the first pan at roi_b



def test_visit_roi_blind_sweep_takes_five_frames_and_leaves_the_pan(monkeypatch, lab_scenario):
    session = _search_session(lab_scenario, with_bottle=True)
    sc = session.scenario
    session.scenario = replace(sc, detector=replace(sc.detector, true_positive_rate=0.0))
    session.robot.head_pan = 0.123
    views = []
    real = world.detect

    def seen(scene, robot, *rest):
        views.append((robot.head_pan, session.robot.head_pan, session.clock.t))
        return real(scene, robot, *rest)

    monkeypatch.setattr(world, "detect", seen)
    event = nav.visit_roi(session, SEARCH_ROIS[1])
    assert event == AssistEvent.miss(event.t, "roi_b")
    (t_scan,) = [r["t"] for r in session.log.records if r["note"] == "scanning"]
    # Each frame advances the clock by one frame_time before it is taken.
    t = t_scan
    for pan, robot_pan, t_frame in views:
        t += session.scenario.session.frame_time_s
        assert t_frame == t
    assert event.t == t
    # -30..30 deg in 15 deg steps, each from a copy: the robot's pan never moves.
    assert [pan for pan, _, _ in views] == list(world.PAN_SCHEDULE)
    assert [robot_pan for _, robot_pan, _ in views] == [0.123] * 5
    assert session.robot.head_pan == 0.123


def test_visit_roi_localizes_a_first_pan_hit_from_that_view(lab_scenario):
    session = _search_session(lab_scenario, with_bottle=True)
    sc = session.scenario
    found = nav.visit_roi(session, SEARCH_ROIS[1])
    assert found.kind is EventKind.FOUND
    (t_scan,) = [r["t"] for r in session.log.records if r["note"] == "scanning"]
    assert found.t == t_scan + sc.session.frame_time_s  # one frame: the first pan fired
    # The same frame, detected and localized again from the -30 deg view.
    view = replace(session.robot, head_pan=world.PAN_SCHEDULE[0])
    det = world.detect(session.scene, view, sc.detector, sc.intrinsics, np.random.default_rng(0), {})
    assert det is not None and det.true_kind is world.ObjectKind.PILL_BOTTLE
    est = geometry.localize_target(det.depth, det.box, sc.intrinsics, view.base_from_camera())
    assert np.array_equal(found.target, est.target_base)
    assert session.robot.head_pan == 0.0
