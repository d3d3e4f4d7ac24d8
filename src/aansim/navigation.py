"""Navigation stack: layered costmap, A* global planning over an inflated
grid, a dynamic-window local planner whose settings are the ``DWA_*``
constants, and the visit to one search location.

Costs live in [0, 255] with 255 for lethal (Occupied or Unknown) cells.
Inflated cells carry 254 * exp(-decay * (d - robot_radius)) clipped to
[1, 253], where d is the Euclidean distance to the nearest lethal cell, so
cells closer than the robot radius saturate at 253 and are treated as
untraversable along with lethal cells.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from . import geometry, world
from .orchestrator import AssistEvent
from .session import SessionLog
from .world import (
    CellState,
    DetectionResult,
    OccupancyGrid,
    RegionOfInterest,
    RobotState,
    Scene,
)

if TYPE_CHECKING:
    from .scenario import Scenario

LETHAL_COST = 255.0
# Cells at or above this cost are untraversable (inscribed or lethal).
INSCRIBED_COST = 253.0
# navigate_to arrives within this distance (m) and heading error (rad).
ARRIVAL_POS_TOL = 0.3
ARRIVAL_ANG_TOL = math.radians(15.0)
# Seconds spent spinning in place after the first AllBlocked.
RECOVERY_SPIN_TIME = 2.0


class NavigationError(Exception):
    """Base class for planner failures."""


class NoPath(NavigationError):
    """A* exhausted the open set without reaching the goal."""


class LethalEndpoint(NavigationError):
    """Start or goal lies on an untraversable cell or off the map."""


class AllBlocked(NavigationError):
    """Every sampled dynamic-window arc collides; recovery required."""


@dataclass
class Costmap(OccupancyGrid):
    """Float cost grid over the cells and geometry of an occupancy grid.

    ``edged`` holds one more row and column, both LETHAL_COST, past the
    map's last ones; ``cost`` is the map's part of it.  ``costed`` is the
    integral image of ``cost > 0``, one row and column of zeros first.
    """

    edged: np.ndarray = field(kw_only=True)
    costed: np.ndarray = field(kw_only=True, repr=False)
    # navigate_to's noise-free legs, keyed by start state and goal pose.
    legs: dict = field(default_factory=dict, compare=False, repr=False, kw_only=True)

    @property
    def cost(self) -> np.ndarray:
        return self.edged[:-1, :-1]

    def traversable(self, i: int, j: int) -> bool:
        return self.cost[j, i] < INSCRIBED_COST

    def cost_free(self, lo: tuple[int, int], hi: tuple[int, int]) -> bool:
        """Whether every cell (i, j) from ``lo`` to ``hi``, both on the map, costs 0."""
        (i0, j0), (i1, j1), s = lo, hi, self.costed
        return s[j1 + 1, i1 + 1] - s[j0, i1 + 1] - s[j1 + 1, i0] + s[j0, i0] == 0


@dataclass(frozen=True)
class NavParams:
    """Costmap inflation parameters.

    Field metadata ``lo``/``hi`` are the scenario loader's bounds.
    """

    inflation_radius: float = field(default=0.45, metadata={"lo": 0.0})
    cost_decay: float = field(default=1.0, metadata={"lo": 0.0})
    robot_radius: float = field(default=0.2, metadata={"lo": 0.0})


def build_costmap(grid: OccupancyGrid, params: NavParams) -> Costmap:
    """Inflate lethal cells into a smooth cost field.

    Occupied and Unknown cells are lethal (255).  Within the inflation
    radius, cost decays exponentially with the Euclidean distance to the
    nearest lethal cell; beyond it, cost is 0.
    """
    lethal = (grid.cells == CellState.OCCUPIED) | (grid.cells == CellState.UNKNOWN)
    edged = np.full((grid.height + 1, grid.width + 1), LETHAL_COST)
    cost = edged[:-1, :-1]
    cost[~lethal] = 0.0
    if params.inflation_radius > 0.0 and lethal.any():
        # Only distances within the radius reach the costmap, so the distance
        # is the least d over the cell offsets (di, dj) within it that land on
        # a lethal cell, summed as an exact EDT sums it: the same bits there.
        r, h, w = grid.resolution, *lethal.shape
        reach = min(int(params.inflation_radius / r) + 1, max(h, w))  # no farther than the map
        lethal_at = np.pad(np.where(lethal, 0.0, np.inf), reach, constant_values=np.inf)
        dist = np.full(lethal.shape, np.inf)
        for di in range(-reach, reach + 1):
            for dj in range(-reach, reach + 1):
                d = math.sqrt((di * r) * (di * r) + (dj * r) * (dj * r))
                if d <= params.inflation_radius:
                    shifted = lethal_at[reach + di : reach + di + h, reach + dj : reach + dj + w]
                    np.minimum(dist, shifted + d, out=dist)
        band = ~lethal & (dist <= params.inflation_radius)
        inflated = 254.0 * np.exp(-params.cost_decay * (dist[band] - params.robot_radius))
        cost[band] = np.clip(inflated, 1.0, 253.0)
    costed = np.zeros_like(edged, dtype=np.intp)
    np.cumsum(np.cumsum(cost > 0.0, axis=0), axis=1, out=costed[1:, 1:])
    return Costmap(grid.cells, grid.resolution, edged=edged, costed=costed)


@dataclass
class GlobalPath:
    """A* result: cell-center waypoints from start to goal."""

    waypoints: np.ndarray  # (N, 2) world coordinates
    cost: float


_MOVES = [
    (1, 0, 1.0),
    (-1, 0, 1.0),
    (0, 1, 1.0),
    (0, -1, 1.0),
    (1, 1, math.sqrt(2.0)),
    (1, -1, math.sqrt(2.0)),
    (-1, 1, math.sqrt(2.0)),
    (-1, -1, math.sqrt(2.0)),
]

# Shrink the heuristic by a hair so float rounding can never make it
# inadmissible against float-accumulated path costs.
_HEURISTIC_SHRINK = 1.0 - 1e-12


def plan_global(
    costmap: Costmap, start: tuple[float, float], goal: tuple[float, float]
) -> GlobalPath:
    """8-connected A* over the costmap.

    Edge weight is the Euclidean step length times (1 + cost(target)/128);
    the heuristic is the Euclidean distance, so returned costs are minimal.
    Stale heap entries are skipped and better g-values re-queued, making the
    returned cost bit-identical to a Dijkstra relaxation fixpoint.
    """
    start_cell = costmap.world_to_cell(*start)
    goal_cell = costmap.world_to_cell(*goal)
    if start_cell is None or goal_cell is None:
        raise LethalEndpoint(f"start {start} or goal {goal} outside the map")
    if not costmap.traversable(*start_cell):
        raise LethalEndpoint(f"start {start} lies on an untraversable cell")
    if not costmap.traversable(*goal_cell):
        raise LethalEndpoint(f"goal {goal} lies on an untraversable cell")

    if start_cell == goal_cell:
        return GlobalPath(waypoints=np.array([costmap.cell_center(*start_cell)]), cost=0.0)

    # An off-map neighbour (index -1, width or height) is on edged's lethal edge.
    res, rows = costmap.resolution, costmap.edged.tolist()

    def heuristic(cell: tuple[int, int]) -> float:
        return (
            math.hypot(cell[0] - goal_cell[0], cell[1] - goal_cell[1])
            * res
            * _HEURISTIC_SHRINK
        )

    g: dict[tuple[int, int], float] = {start_cell: 0.0}
    parent: dict[tuple[int, int], tuple[int, int]] = {}
    counter = 0
    heap: list[tuple[float, int, float, tuple[int, int]]] = [
        (heuristic(start_cell), counter, 0.0, start_cell)
    ]
    while heap:
        _, _, g_pop, cell = heapq.heappop(heap)
        if g_pop != g.get(cell):
            continue  # stale entry
        if cell == goal_cell:
            cells = [cell]
            while cells[-1] != start_cell:
                cells.append(parent[cells[-1]])
            cells.reverse()
            waypoints = np.array([costmap.cell_center(i, j) for i, j in cells])
            return GlobalPath(waypoints=waypoints, cost=g_pop)
        i, j = cell
        for di, dj, step in _MOVES:
            ni, nj = i + di, j + dj
            c = rows[nj][ni]
            if c >= INSCRIBED_COST:
                continue
            g_new = g[cell] + step * res * (1.0 + c / 128.0)
            nxt = (ni, nj)
            if g_new < g.get(nxt, math.inf):
                g[nxt] = g_new
                parent[nxt] = cell
                counter += 1
                heapq.heappush(heap, (g_new + heuristic(nxt), counter, g_new, nxt))
    raise NoPath(f"no traversable path from {start} to {goal}")


# Dynamic-window local planner.  Commands stay in v in [0, DWA_V_MAX] m/s and
# omega in [-DWA_OMEGA_MAX, DWA_OMEGA_MAX] rad/s, and change at most at the
# DWA_ACCEL_* rates (m/s^2, rad/s^2).  The window is a DWA_N_V x DWA_N_OMEGA
# lattice, rolled out for DWA_HORIZON s and scored with the three weights
# against the path point DWA_LOOKAHEAD m ahead.
DWA_V_MAX = 0.5
DWA_OMEGA_MAX = 1.0
DWA_ACCEL_V = 0.5
DWA_ACCEL_OMEGA = 1.0
DWA_N_V = 11
DWA_N_OMEGA = 21
DWA_HORIZON = 2.0
DWA_HEADING_WEIGHT = 0.8
DWA_CLEARANCE_WEIGHT = 0.1
DWA_VELOCITY_WEIGHT = 0.1
DWA_LOOKAHEAD = 0.6


def lookahead_point(path: GlobalPath, x: float, y: float, dist: float) -> tuple[float, float]:
    """First waypoint at least ``dist`` ahead of the nearest one to (x, y)."""
    wps = path.waypoints
    deltas = wps - (x, y)
    nearest = int(np.argmin(np.einsum("ij,ij->i", deltas, deltas)))
    for k, (dx, dy) in enumerate(deltas[nearest:].tolist(), nearest):
        if math.hypot(dx, dy) >= dist:
            return tuple(wps[k].tolist())
    return tuple(wps[-1].tolist())


_V_STEPS = np.arange(DWA_N_V, dtype=np.float64)
_W_STEPS = np.arange(DWA_N_OMEGA, dtype=np.float64)
_WEIGHTS = (DWA_HEADING_WEIGHT, DWA_CLEARANCE_WEIGHT, DWA_VELOCITY_WEIGHT)


def _window(steps: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """``np.linspace(lo, hi, len(steps))`` for ``steps = arange(len(steps))``, bit for bit."""
    div = len(steps) - 1
    delta = hi - lo
    step = delta / div
    y = steps / div * delta if step == 0 else steps * step  # numpy's subnormal-delta order
    y += lo
    y[-1] = hi
    return y


def _wrap(err: np.ndarray) -> np.ndarray:
    """``math.remainder(e, 2*pi)`` for each e of ``err``, bit for bit.

    One shift by 2*pi toward zero is exact for pi <= |e| <= 4*pi (Sterbenz),
    and it is the remainder wherever it lands strictly inside (-pi, pi); ties
    and |e| > 3*pi, which land outside, take the scalar remainder.
    """
    two_pi = 2.0 * math.pi
    r = np.where(np.abs(err) > math.pi, err - np.copysign(two_pi, err), err)
    far = np.abs(r) >= math.pi
    if far.any():
        r[far] = [math.remainder(e, two_pi) for e in err[far].tolist()]
    return r


def _rollout(origin, vs, radius, tau, arc, straight, heading_cs) -> np.ndarray:
    """Positions (2, K, len(vs), n_omega) at the K times ``tau`` of the arcs
    at speeds ``vs``, with ``radius`` = v / omega, (len(vs), n_omega), and
    turn terms ``arc`` = (sin(theta) - sin(theta0), cos(theta0) - cos(theta)),
    (2, K, n_omega).  ``straight`` columns run along ``heading_cs``."""
    xy = radius * arc[:, :, None, :]
    xy += origin
    if straight.any():
        xy[..., straight] = origin + (tau[:, None] * vs)[..., None] * heading_cs
    return xy


def dwa_step(
    robot: RobotState,
    path: GlobalPath,
    costmap: Costmap,
    dt: float,
) -> tuple[float, float]:
    """Pick the best admissible (v, omega) from the dynamic window.

    Candidates are a DWA_N_V x DWA_N_OMEGA lattice over the reachable window,
    enumerated v-major (all omegas for the lowest v first).  Each is rolled
    out with exact arcs for the horizon in substeps of ``dt``; arcs touching
    untraversable cells (or leaving the map) are discarded.  Survivors are
    scored with heading (endpoint bearing error to the lookahead point,
    wrapped with IEEE remainder), clearance (worst (254 - cost) / 254 along
    the arc), and velocity terms, each min-max normalized over the
    admissible set, weighted and summed.  Exact score ties fall to lower
    |omega|, then lower v, then earlier enumeration.

    Rollouts are laid out K-major, (2, K, n_v, n_omega) for x and y, so one
    division and one floor find every cell and the worst cost of each arc is
    a reduction over the leading axis.  The heading theta0 + omega * tau does
    not depend on v, so its sine and cosine are taken once on (K, n_omega).
    Floored cells are clamped to [-1, width] x [-1, height], which index
    ``Costmap.edged``'s lethal last row and column, so an off-map sample
    costs 255.  At a fixed tau and omega, each rounded step of a sample's x
    and y is monotone in v, and so are division and floor, so every sample's
    cell lies in the box from the cell of the least x and y of the slowest
    and fastest rows to that of the greatest.  If that box is on the map and
    ``Costmap.cost_free``, every worst cost is 0 and only the endpoints are
    rolled out.  The endpoint is the last rollout row, the same arithmetic
    as ``world.unicycle_arc`` at the horizon.  Its bearing stays scalar libm
    ``atan2``, which ``np.arctan2`` differs from in the last bit on some
    inputs, and ``_wrap`` gives the IEEE remainder's bits.  The terms are
    scored on the (n_v, n_omega) grid, normalized over its admissible cells.
    Every value is the same IEEE expression as the scalar rollout's, up to
    the order of commutative operands.

    Raises AllBlocked when every candidate collides.
    """
    v_lo = max(0.0, robot.v - DWA_ACCEL_V * dt)
    v_hi = min(DWA_V_MAX, robot.v + DWA_ACCEL_V * dt)
    w_lo = max(-DWA_OMEGA_MAX, robot.omega - DWA_ACCEL_OMEGA * dt)
    w_hi = min(DWA_OMEGA_MAX, robot.omega + DWA_ACCEL_OMEGA * dt)
    vs = _window(_V_STEPS, v_lo, v_hi)
    ws = _window(_W_STEPS, w_lo, w_hi)
    n_steps = max(1, int(round(DWA_HORIZON / dt)))
    tau = dt * np.arange(1, n_steps + 1)

    theta0, c0, s0 = robot.heading, math.cos(robot.heading), math.sin(robot.heading)
    theta = tau[:, None] * ws + theta0  # (K, n_omega), shared across v
    straight = np.abs(ws) < 1e-12
    radius = vs[:, None] / np.where(straight, np.inf, ws)  # (n_v, n_omega)
    arc = np.array([np.sin(theta) - s0, c0 - np.cos(theta)])
    origin, heading_cs = np.array([[robot.x, robot.y], [c0, s0]])[:, :, None, None, None]
    edges = _rollout(origin, vs[::DWA_N_V - 1], radius[::DWA_N_V - 1], tau, arc, straight,
                     heading_cs).reshape(2, -1)  # the slowest and fastest rows
    lo = costmap.world_to_cell(*edges.min(axis=1).tolist())
    hi = costmap.world_to_cell(*edges.max(axis=1).tolist())
    if lo is not None and hi is not None and costmap.cost_free(lo, hi):
        # Every arc is admissible, with clearance 1: only the endpoints count.
        end = _rollout(origin, vs, radius, tau[-1:], arc[:, -1:], straight, heading_cs)[:, 0]
        admissible = clearance = None
    else:
        xy = _rollout(origin, vs, radius, tau, arc, straight, heading_cs)
        end = xy[:, -1].copy()  # (2, n_v, n_omega) endpoints
        cell = np.floor(np.divide(xy, costmap.resolution, out=xy), out=xy)
        # Against a full bound array: numpy's max and min run several times
        # faster on two arrays than on an array and a scalar.
        bound = np.full(cell.shape, -1.0)
        np.maximum(cell, bound, out=cell)
        bound[0], bound[1] = costmap.width, costmap.height
        np.minimum(cell, bound, out=cell)
        flat = (cell[1] * (costmap.width + 1) + cell[0]).astype(np.intp)
        worst = np.maximum.reduce(costmap.edged.take(flat), axis=0)
        admissible = worst < INSCRIBED_COST
        if not admissible.any():
            raise AllBlocked("every dynamic-window arc collides")
        # Rounding is monotone, so the worst cost gives the worst clearance exactly.
        clearance = (254.0 - worst) / 254.0

    lx, ly = lookahead_point(path, robot.x, robot.y, DWA_LOOKAHEAD)
    dy, dx = (ly - end[1]).ravel().tolist(), (lx - end[0]).ravel().tolist()
    bearing = np.fromiter(map(math.atan2, dy, dx), np.float64, len(dx)).reshape(radius.shape)
    # A straight arc keeps theta0 exactly, as unicycle_arc does for tiny omega.
    end_heading = np.where(straight, theta0, theta[-1])
    heading = math.pi - np.abs(_wrap(bearing - end_heading))
    # Each term is min-max normalized over the admissible cells, weighted and
    # summed in order.  A term that is constant there (span 0), such as a
    # cost-free tick's clearance, adds only zeros, so it is left out.
    score = np.zeros(radius.shape)
    masked = admissible is not None and not admissible.all()
    for weight, term in zip(_WEIGHTS, (heading, clearance, vs[:, None])):
        if term is None:
            continue
        seen = np.broadcast_to(term, score.shape)[admissible] if masked else term
        least = seen.min()
        span = seen.max() - least
        if span > 0.0:
            score += weight * ((term - least) / span)
    if masked:
        score[~admissible] = -np.inf
    top = np.flatnonzero(score == score.max())  # v-major, the enumeration order
    iv, iw = np.divmod(top, DWA_N_OMEGA)
    best = np.lexsort((top, vs[iv], np.abs(ws[iw])))[0]
    return (float(vs[iv[best]]), float(ws[iw[best]]))


class Clock:
    """Simulated time accumulator shared by the navigation and episode loops."""

    def __init__(self, t: float = 0.0) -> None:
        self.t = float(t)

    def advance(self, dt: float) -> None:
        self.t += dt


@dataclass(frozen=True)
class NavResult:
    """One drive: whether it arrived and why it stopped, its clock ticks,
    the tick of each recovery spin and the end (x, y, heading, v, omega)."""

    arrived: bool
    reason: str
    ticks: int
    spins: tuple[int, ...]
    end: tuple[float, float, float, float, float]


@dataclass
class NavSession:
    """One episode's navigation state; every setting is read from ``scenario``."""

    scenario: Scenario  # its costmap is also the collision grid
    scene: Scene
    robot: RobotState
    clock: Clock
    detector_rng: np.random.Generator
    depth_noise_rng: np.random.Generator
    pose_noise_rng: np.random.Generator
    log: SessionLog  # the episode's log; progress notes go here

    def note(self, kind: str, **payload) -> None:
        self.log.add_note(self.clock.t, kind, **payload)


def _observed_pose(session: NavSession, robot: RobotState) -> RobotState:
    """Robot state as the planner sees it (optionally noise-injected)."""
    sigma = session.scenario.noise.pose_sigma
    if sigma <= 0.0:
        return robot
    noise = session.pose_noise_rng.normal(0.0, sigma, size=3)
    return replace(
        robot,
        x=robot.x + noise[0],
        y=robot.y + noise[1],
        heading=robot.heading + noise[2],
    )


def _drive(session: NavSession, goal_pose: tuple[float, float, float]) -> NavResult:
    """Drive a local copy of the robot to a goal pose; the clock and log stay as they are.

    DWA to the position, then rotate to the heading.  On AllBlocked the
    robot spins in place for the recovery time and replans once; a second
    AllBlocked (or a failed replan) abandons the goal.  Every tick is one
    scenario ``dt`` of simulated time.
    """
    gx, gy, gh = goal_pose
    dt, costmap = session.scenario.session.dt, session.scenario.costmap
    robot = session.robot
    ticks = 0
    spins: list[int] = []

    def leg(arrived: bool, reason: str) -> NavResult:
        end = (robot.x, robot.y, robot.heading, robot.v, robot.omega)
        return NavResult(arrived, reason, ticks, tuple(spins), end)

    try:
        path = plan_global(costmap, (robot.x, robot.y), (gx, gy))
    except NavigationError as exc:
        return leg(False, f"no_path: {exc}")

    travel = path.cost / DWA_V_MAX + 4.0 * math.pi / DWA_OMEGA_MAX
    max_ticks = int(math.ceil(4.0 * travel / dt)) + 200

    while ticks < max_ticks:
        if math.hypot(robot.x - gx, robot.y - gy) <= ARRIVAL_POS_TOL:
            break
        try:
            cmd = dwa_step(_observed_pose(session, robot), path, costmap, dt)
        except AllBlocked:
            if spins:
                return leg(False, "all_blocked")
            spins.append(ticks)
            for _ in range(int(round(RECOVERY_SPIN_TIME / dt))):
                robot, _ = world.step_kinematics(robot, (0.0, DWA_OMEGA_MAX), dt, costmap)
                ticks += 1
            try:
                path = plan_global(costmap, (robot.x, robot.y), (gx, gy))
            except NavigationError:
                return leg(False, "all_blocked")
            continue
        robot, _ = world.step_kinematics(robot, cmd, dt, costmap)
        ticks += 1
    else:
        return leg(False, "tick_cap")

    # Align to the approach heading with bounded rotation commands.
    while ticks < max_ticks:
        err = geometry.normalize_angle(gh - robot.heading)
        if abs(err) <= ARRIVAL_ANG_TOL:
            return leg(True, "arrived")
        omega = max(-DWA_OMEGA_MAX, min(DWA_OMEGA_MAX, err / dt))
        robot, _ = world.step_kinematics(robot, (0.0, omega), dt, costmap)
        ticks += 1
    return leg(False, "tick_cap")


def navigate_to(session: NavSession, goal_pose: tuple[float, float, float]) -> NavResult:
    """Drive to a goal pose (see ``_drive``), replay the leg on the session and return it.

    A noise-free leg is driven once per costmap and start state, then
    replayed: the clock advances by ``dt`` once per tick, each
    ``recovery_spin`` note lands at the tick it was recorded at, and the
    robot takes the leg's end pose and velocities.  A noisy leg draws from
    ``pose_noise_rng``, so it is driven every time.
    """
    sc, robot = session.scenario, session.robot
    key = (robot.x, robot.y, robot.heading, robot.v, robot.omega, goal_pose)
    legs = sc.costmap.legs if sc.noise.pose_sigma <= 0.0 else {}
    if key not in legs:
        legs[key] = _drive(session, goal_pose)
    leg = legs[key]
    dt = sc.session.dt
    for tick in range(leg.ticks):
        if tick in leg.spins:
            session.note("recovery_spin")
        session.clock.advance(dt)
    x, y, heading, v, omega = leg.end
    session.robot = replace(robot, x=x, y=y, heading=heading, v=v, omega=omega)
    return leg


def _localize(
    session: NavSession, det: DetectionResult, base_from_camera: geometry.RigidTransform
) -> np.ndarray | None:
    """Base-frame pointing target from the frame that produced a detection;
    depth noise goes only on the detection box, the pixels localization reads."""
    sc = session.scenario
    depth = world.add_depth_noise(det.depth, det.box, sc.noise.depth_sigma, session.depth_noise_rng)
    try:
        est = geometry.localize_target(depth, det.box, sc.intrinsics, base_from_camera)
    except geometry.GeometryError:
        return None
    return est.target_base


def visit_roi(session: NavSession, roi: RegionOfInterest) -> AssistEvent:
    """Drive to one search location, sweep the head, and report the outcome.

    The head visits each ``world.PAN_SCHEDULE`` angle at most once, on a
    copy of the robot (whose own pan stays as it is), until the detector
    fires; each frame first advances the shared clock by ``frame_time_s``.
    Returns a roi_unreachable, miss or found event at the clock's time; a
    found event carries the bottle as a base-frame (3,) point.
    """
    session.note("navigating", roi=roi.id)
    nav = navigate_to(session, roi.pose)
    if not nav.arrived:
        session.note("unreachable", roi=roi.id, reason=nav.reason)
        return AssistEvent.roi_unreachable(session.clock.t, roi.id)
    session.note("scanning", roi=roi.id)
    sc = session.scenario
    # Noise-free poses repeat across episodes; noisy ones almost never do.
    frames = session.scene.frames if sc.noise.pose_sigma <= 0.0 else {}
    for pan in world.PAN_SCHEDULE:
        session.clock.advance(sc.session.frame_time_s)
        view = replace(session.robot, head_pan=pan)
        det = world.detect(
            session.scene, view, sc.detector, sc.intrinsics, session.detector_rng, frames
        )
        if det is not None:
            # A failed localization on the detection frame counts as a miss.
            target = _localize(session, det, view.base_from_camera())
            if target is not None:
                return AssistEvent.found(session.clock.t, roi.id, target)
            break
    return AssistEvent.miss(session.clock.t, roi.id)
