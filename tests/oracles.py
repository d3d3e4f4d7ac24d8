"""Independent reference implementations used only by the test suite.

These mirror the documented planner contracts with deliberately different
code: plain-Python Dijkstra for global path costs, and a scalar dynamic-window
scorer.  They share only input data (costmaps, parameter dataclasses and the
planner's ``DWA_*`` constants) with the library, never its planning code.
``render_reference`` keeps the straightforward (N, 3) ray caster that the
library's per-axis renderer must match bit for bit, over the walls of
``merge_occupied_rects_reference``, the cell-by-cell wall merge that the
library's run scan must match box for box, and ``project`` is the pinhole
projection that back-projection must invert.
``costmap_reference`` and ``foreground_reference`` keep the scipy.ndimage
costmap (a Euclidean distance transform) and foreground labeling that the
library's windowed distance and flood fill must match bit for bit; scipy is
a test-only dependency.
``grid_from_ascii_reference`` parses a map one character at a time, which
the library's table lookup must match cell for cell and error for
error.  ``gaze_stream_reference`` draws the gaze stream one fixation block at a
time, two scalar draws per block, which the library's chunked draw must
match bit for bit.  ``audit_log`` replays a session log through the pure
policy and checks that the episode carried out what it directed.
"""

import heapq
import math

import numpy as np
from scipy import ndimage

from aansim import navigation as nav
from aansim import usersim, world
from aansim.geometry import DEFAULT_BAND_HALFWIDTH, GeometryError
from aansim.navigation import Costmap, GlobalPath, lookahead_point
from aansim.orchestrator import (
    MOTION_ACTION_KINDS,
    AssistEvent,
    EventKind,
    Phase,
    UserActionKind,
    initial_state,
    step,
)
from aansim.usersim import Aoi

_SQRT2 = math.sqrt(2.0)
_MOVES = [
    (1, 0, 1.0),
    (-1, 0, 1.0),
    (0, 1, 1.0),
    (0, -1, 1.0),
    (1, 1, _SQRT2),
    (1, -1, _SQRT2),
    (-1, 1, _SQRT2),
    (-1, -1, _SQRT2),
]


def dijkstra_costs(costmap: Costmap, start_cell: tuple[int, int]) -> dict[tuple[int, int], float]:
    """Exact single-source shortest-path costs over the 8-connected costmap.

    Edge weight: step_length * resolution * (1 + cost(target) / 128), the
    same arithmetic expression the planner documents, evaluated in the same
    order so reachable costs agree bit for bit.
    """
    res = costmap.resolution
    cost = costmap.cost
    dist: dict[tuple[int, int], float] = {start_cell: 0.0}
    heap: list[tuple[float, tuple[int, int]]] = [(0.0, start_cell)]
    while heap:
        d, cell = heapq.heappop(heap)
        if d > dist.get(cell, math.inf):
            continue
        i, j = cell
        for di, dj, step in _MOVES:
            ni, nj = i + di, j + dj
            if not (0 <= ni < costmap.width and 0 <= nj < costmap.height):
                continue
            c = cost[nj, ni]
            if c >= 253.0:
                continue
            nd = d + step * res * (1.0 + c / 128.0)
            if nd < dist.get((ni, nj), math.inf):
                dist[(ni, nj)] = nd
                heapq.heappush(heap, (nd, (ni, nj)))
    return dist


def path_cost_recomputed(costmap: Costmap, cells: list[tuple[int, int]]) -> float:
    """Re-accumulate a returned path's cost edge by edge, start to goal."""
    res = costmap.resolution
    total = 0.0
    for (i0, j0), (i1, j1) in zip(cells, cells[1:]):
        di, dj = i1 - i0, j1 - j0
        step = 1.0 if di == 0 or dj == 0 else _SQRT2
        c = costmap.cost[j1, i1]
        total = total + step * res * (1.0 + c / 128.0)
    return total


class OracleBlocked(Exception):
    pass


def dwa_reference(
    robot: world.RobotState,
    path: GlobalPath,
    costmap: Costmap,
    dt: float,
) -> tuple[float, float]:
    """Scalar re-implementation of the documented dynamic-window step, with
    the planner's own ``DWA_*`` settings."""
    v_lo = max(0.0, robot.v - nav.DWA_ACCEL_V * dt)
    v_hi = min(nav.DWA_V_MAX, robot.v + nav.DWA_ACCEL_V * dt)
    w_lo = max(-nav.DWA_OMEGA_MAX, robot.omega - nav.DWA_ACCEL_OMEGA * dt)
    w_hi = min(nav.DWA_OMEGA_MAX, robot.omega + nav.DWA_ACCEL_OMEGA * dt)
    vs = np.linspace(v_lo, v_hi, nav.DWA_N_V)
    ws = np.linspace(w_lo, w_hi, nav.DWA_N_OMEGA)

    n_steps = max(1, int(round(nav.DWA_HORIZON / dt)))
    taus = [dt * k for k in range(1, n_steps + 1)]
    t_end = taus[-1]
    theta0 = robot.heading
    sin0, cos0 = math.sin(theta0), math.cos(theta0)
    res = costmap.resolution

    candidates = []  # (v, w, raw_heading, raw_clearance)
    lx, ly = lookahead_point(path, robot.x, robot.y, nav.DWA_LOOKAHEAD)
    for v in vs:  # v-major enumeration, as documented
        v = float(v)
        for w in ws:
            w = float(w)
            clearance = math.inf
            collided = False
            for t in taus:
                if abs(w) < 1e-12:
                    px = robot.x + v * t * cos0
                    py = robot.y + v * t * sin0
                else:
                    r = v / w
                    th = theta0 + w * t
                    px = robot.x + r * (math.sin(th) - sin0)
                    py = robot.y - r * (math.cos(th) - cos0)
                ci = math.floor(px / res)
                cj = math.floor(py / res)
                if 0 <= ci < costmap.width and 0 <= cj < costmap.height:
                    c = float(costmap.cost[cj, ci])
                else:
                    c = 255.0
                if c >= 253.0:
                    collided = True
                    break
                clearance = min(clearance, (254.0 - c) / 254.0)
            if collided:
                continue
            ex, ey, eth = world.unicycle_arc(robot.x, robot.y, theta0, v, w, t_end)
            bearing = math.atan2(ly - ey, lx - ex)
            heading = math.pi - abs(math.remainder(bearing - eth, 2.0 * math.pi))
            candidates.append((v, w, heading, clearance))

    if not candidates:
        raise OracleBlocked()

    def norm(values: list[float]) -> list[float]:
        lo, hi = min(values), max(values)
        if hi > lo:
            return [(x - lo) / (hi - lo) for x in values]
        return [0.0] * len(values)

    h_n = norm([c[2] for c in candidates])
    c_n = norm([c[3] for c in candidates])
    v_n = norm([c[0] for c in candidates])
    best = None
    best_score = None
    for k, (v, w, _, _) in enumerate(candidates):
        score = nav.DWA_HEADING_WEIGHT * h_n[k] + nav.DWA_CLEARANCE_WEIGHT * c_n[k] + (
            nav.DWA_VELOCITY_WEIGHT * v_n[k]
        )
        if best is None or score > best_score:
            best, best_score = (v, w), score
        elif score == best_score:
            bv, bw = best
            if abs(w) < abs(bw) or (abs(w) == abs(bw) and v < bv):
                best = (v, w)
    return best


def max_offtask_gap(
    times: list[float], aois: list[int], action_times: list[float], threshold: float
) -> list[tuple[float, float]]:
    """Quadratic-time reference for confusion detection.

    For every pair of sample indices, check whether the whole closed range is
    off-task, spans at least the threshold, and contains no action time; keep
    the maximal such runs.  ``aois`` holds one ``Aoi`` code per sample.
    """
    n = len(times)
    runs = []
    i = 0
    while i < n:
        if aois[i] != Aoi.ELSEWHERE:
            i += 1
            continue
        j = i
        while j + 1 < n and aois[j + 1] == Aoi.ELSEWHERE:
            j += 1
        runs.append((times[i], times[j]))
        i = j + 1
    out = []
    for t0, t1 in runs:
        if t1 - t0 < threshold:
            continue
        if any(t0 <= a <= t1 for a in action_times):
            continue
        out.append((t0, t1))
    return out


def _weights_at_reference(t: float, timeline) -> dict:
    """The weight table of the first attention or bottle window holding ``t``."""
    for window in timeline.windows:
        if window.t_start <= t < window.t_end:
            if window.kind == "attention":
                return usersim._ATTENTION_WEIGHTS
            if window.kind == "bottle":
                return usersim._BOTTLE_WEIGHTS
    return usersim._BASELINE_WEIGHTS


def _draw_aoi_reference(weights: dict, forbid, rng) -> Aoi:
    items = [(a, w) for a, w in weights.items() if a is not forbid]
    total = sum(w for _, w in items)
    r = rng.random() * total
    acc = 0.0
    for aoi, w in items:
        acc += w
        if r <= acc:
            return aoi
    return items[-1][0]


def gaze_stream_reference(timeline, profile, rng) -> tuple[np.ndarray, list[tuple[float, float]]]:
    """``usersim.gaze_stream`` drawn one fixation block at a time: one
    ``rng.random()`` for the block's AOI and one ``rng.uniform`` for its
    duration, with the window scan and the forbid-``ELSEWHERE`` rule applied
    per block.  The confusion-injection tail is a copy of the library's."""
    rate = usersim.GAZE_SAMPLE_RATE_HZ
    if timeline.duration_s <= 0:
        return np.empty(0, dtype=np.uint8), []
    n = int(math.ceil(timeline.duration_s * rate))
    codes = np.empty(n, dtype=np.uint8)

    k = 0
    prev = None
    t_block = 0.0
    while k < n:
        forbid = Aoi.ELSEWHERE if prev is Aoi.ELSEWHERE else None
        aoi = _draw_aoi_reference(_weights_at_reference(t_block, timeline), forbid, rng)
        dur = rng.uniform(usersim._MIN_BLOCK_S, usersim._MAX_BLOCK_S)
        count = max(1, int(round(dur * rate)))
        codes[k : k + count] = aoi
        k += count
        prev = aoi
        t_block += count / rate

    inserted: list[tuple[float, float]] = []
    for window in timeline.windows:
        if window.kind != "confusion_candidate":
            continue
        if rng.random() >= profile.p_struggle:
            continue
        run_s = usersim.DEFAULT_CONFUSION_THRESHOLD_S + 1.0 + rng.uniform(0.0, 1.0)
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


# ---------------------------------------------------------------------------
# Depth rendering reference: every ray carries its own copy of the camera
# origin in an (N, 3) array, and nan slabs are patched with nan_to_num.

_RAY_EPS = 1e-9


def _ray_box_reference(origins, dirs, lo, hi) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (lo - origins) / dirs
        t2 = (hi - origins) / dirs
    # d == 0 inside the slab gives 0/0 = nan; the axis then never constrains.
    t_low = np.nan_to_num(np.minimum(t1, t2), nan=-np.inf)
    t_high = np.nan_to_num(np.maximum(t1, t2), nan=np.inf)
    t_near = t_low.max(axis=1)
    t_far = t_high.min(axis=1)
    hit = (t_far >= t_near) & (t_far > _RAY_EPS) & (t_near > _RAY_EPS)
    return np.where(hit, t_near, np.inf)


def _ray_cylinder_reference(origins, dirs, center, radius, z0, z1) -> np.ndarray:
    ox = origins[:, 0] - center[0]
    oy = origins[:, 1] - center[1]
    dx, dy, dz = dirs[:, 0], dirs[:, 1], dirs[:, 2]
    a = dx * dx + dy * dy
    b = 2.0 * (ox * dx + oy * dy)
    c = ox * ox + oy * oy - radius * radius
    disc = b * b - 4.0 * a * c
    with np.errstate(divide="ignore", invalid="ignore"):
        sqrt_disc = np.sqrt(np.maximum(disc, 0.0))
        s_lat = (-b - sqrt_disc) / (2.0 * a)
    z_at = origins[:, 2] + s_lat * dz
    lat_ok = (disc >= 0.0) & (a > 1e-30) & (s_lat > _RAY_EPS) & (z_at >= z0) & (z_at <= z1)
    best = np.where(lat_ok, s_lat, np.inf)
    for z_cap in (z0, z1):
        with np.errstate(divide="ignore", invalid="ignore"):
            s_cap = (z_cap - origins[:, 2]) / dz
        px = origins[:, 0] + s_cap * dirs[:, 0] - center[0]
        py = origins[:, 1] + s_cap * dirs[:, 1] - center[1]
        cap_ok = (
            np.isfinite(s_cap)
            & (s_cap > _RAY_EPS)
            & (px * px + py * py <= radius * radius)
        )
        best = np.minimum(best, np.where(cap_ok, s_cap, np.inf))
    return best


def grid_from_ascii_reference(text: str) -> world.OccupancyGrid:
    """The ASCII map format parsed one character at a time, with the errors
    ``OccupancyGrid.from_ascii`` must raise, in its order."""
    codes = {".": world.CellState.FREE, "#": world.CellState.OCCUPIED, "?": world.CellState.UNKNOWN}
    lines = [ln for ln in text.splitlines() if ln.strip() != ""]
    if not lines:
        raise ValueError("empty map text")
    header = lines[0].split()
    if len(header) != 3:
        raise ValueError(f"map header must be 'W H RESOLUTION', got {lines[0]!r}")
    width, height, resolution = int(header[0]), int(header[1]), float(header[2])
    if width < 1 or height < 1:
        raise ValueError(f"map must be at least 1x1 cells, got {width}x{height}")
    rows = lines[1:]
    if len(rows) != height:
        raise ValueError(f"map declares {height} rows but has {len(rows)}")
    cells = np.zeros((height, width), dtype=np.uint8)
    for j, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"map row {j} has {len(row)} cells, expected {width}")
        for i, ch in enumerate(row):
            if ch not in codes:
                raise ValueError(f"map row {j} col {i}: unknown cell char {ch!r}")
            cells[j, i] = codes[ch]
    return world.OccupancyGrid(cells=cells, resolution=resolution)


def merge_occupied_rects_reference(grid) -> list[tuple[np.ndarray, np.ndarray]]:
    """Wall boxes as ``world._merge_occupied_rects`` must return them, in its
    order: row runs found cell by cell, then stacked greedily."""
    occupied = grid.cells == world.CellState.OCCUPIED
    res, width = grid.resolution, grid.width
    open_runs: dict[tuple[int, int], tuple[int, int]] = {}  # (i0, i1) -> (j0, j1)
    rects: list[tuple[int, int, int, int]] = []
    for j in range(grid.height):
        row_runs = []
        i = 0
        while i < width:
            if occupied[j, i]:
                i0 = i
                while i < width and occupied[j, i]:
                    i += 1
                row_runs.append((i0, i - 1))
            else:
                i += 1
        next_open: dict[tuple[int, int], tuple[int, int]] = {}
        for run in row_runs:
            if run in open_runs and open_runs[run][1] == j - 1:
                next_open[run] = (open_runs[run][0], j)
            else:
                next_open[run] = (j, j)
        for run, span in open_runs.items():
            if run not in next_open:
                rects.append((run[0], run[1], span[0], span[1]))
        open_runs = next_open
    for run, span in open_runs.items():
        rects.append((run[0], run[1], span[0], span[1]))

    out = []
    for i0, i1, j0, j1 in rects:
        lo = np.array([i0 * res, j0 * res, 0.0])
        hi = np.array([(i1 + 1) * res, (j1 + 1) * res, world.WALL_HEIGHT])
        out.append((lo, hi))
    return out


def render_reference(scene, robot, intrinsics, max_range=10.0):
    """Depth and instance ids, ray-cast with one (N, 3) origin row per pixel."""
    h, w = intrinsics.height, intrinsics.width
    us, vs = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    dirs_cam = np.stack(
        [
            (us - intrinsics.cx) / intrinsics.fx,
            (vs - intrinsics.cy) / intrinsics.fy,
            np.ones_like(us),
        ],
        axis=-1,
    ).reshape(-1, 3)
    cam_pose = robot.world_from_camera()
    dirs = dirs_cam @ cam_pose.rotation.T
    origins = np.broadcast_to(cam_pose.translation, dirs.shape)

    best = np.full(dirs.shape[0], np.inf)
    ids = np.full(dirs.shape[0], world.NO_HIT, dtype=np.int32)
    for idx, obj in enumerate(scene.objects):
        if isinstance(obj.shape, world.BoxShape):
            lo, hi = obj.aabb()
            s = _ray_box_reference(origins, dirs, lo, hi)
        else:
            cx, cy, cz = obj.position
            s = _ray_cylinder_reference(
                origins, dirs, (cx, cy), obj.shape.radius, cz, cz + obj.shape.height
            )
        closer = s < best
        best = np.where(closer, s, best)
        ids = np.where(closer, idx, ids)
    for lo, hi in merge_occupied_rects_reference(scene.grid):
        s = _ray_box_reference(origins, dirs, lo, hi)
        closer = s < best
        best = np.where(closer, s, best)
        ids = np.where(closer, world.WALL_HIT, ids)

    out_of_range = ~np.isfinite(best) | (best > max_range)
    depth = np.where(out_of_range, 0.0, best)
    ids = np.where(out_of_range, world.NO_HIT, ids)
    return depth.reshape(h, w), ids.reshape(h, w)


def costmap_reference(grid, params) -> np.ndarray:
    """The cost grid from scipy's exact distance transform over the whole map."""
    lethal = (grid.cells == world.CellState.OCCUPIED) | (grid.cells == world.CellState.UNKNOWN)
    cost = np.where(lethal, nav.LETHAL_COST, 0.0)
    if params.inflation_radius > 0.0 and lethal.any():
        dist = ndimage.distance_transform_edt(~lethal, sampling=grid.resolution)
        band = ~lethal & (dist <= params.inflation_radius)
        inflated = 254.0 * np.exp(-params.cost_decay * (dist - params.robot_radius))
        cost[band] = np.clip(inflated[band], 1.0, 253.0)
    return cost


def foreground_reference(depth, box) -> tuple[list[list[int]], bool]:
    """(u, v) pixels, sorted, and fallback flag of the box's foreground, from
    ``ndimage.label``: the center's 4-connected component, else the largest,
    the lowest label winning a tie."""
    c = box.clipped(depth.shape[1], depth.shape[0])
    sub = depth[c.v_min : c.v_max + 1, c.u_min : c.u_max + 1]
    z_m = np.sort(sub[sub > 0.0])[(np.count_nonzero(sub > 0.0) - 1) // 2]
    retained = (sub > 0.0) & (np.abs(sub - z_m) <= DEFAULT_BAND_HALFWIDTH)
    labels, n = ndimage.label(retained, structure=[[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    cu, cv = c.center
    label = labels[cv - c.v_min, cu - c.u_min]
    fallback = bool(label == 0)
    if fallback:
        sizes = ndimage.sum_labels(retained, labels, index=np.arange(1, n + 1))
        label = int(np.argmax(sizes)) + 1
    pixels = np.argwhere(labels.T == label) + (c.u_min, c.v_min)
    return pixels.tolist(), fallback


class BehindCamera(GeometryError):
    """Projection was asked for a point with Z <= 0."""


def project(point, intrinsics) -> tuple[float, float]:
    """Project a camera-frame point to (possibly sub-pixel) image coordinates.

    Raises BehindCamera for points with Z <= 0.  The result may fall outside
    the image bounds.
    """
    x, y, z = (float(c) for c in np.asarray(point, dtype=np.float64).reshape(3))
    if z <= 0.0:
        raise BehindCamera(f"point with Z={z} cannot be projected")
    return (intrinsics.fx * x / z + intrinsics.cx, intrinsics.fy * y / z + intrinsics.cy)


# ---------------------------------------------------------------------------
# Session log audit: the log against the pure policy that wrote it.

_VISIT_OUTCOMES = (EventKind.MISS, EventKind.FOUND, EventKind.ROI_UNREACHABLE)
_MOTION_KIND_VALUES = {k.value for k in MOTION_ACTION_KINDS}


def _rebuild_event(record: dict) -> AssistEvent:
    """The orchestrator event an event record describes.

    A FOUND event's target is the record's ``align_gaze`` target, which every
    pointing path emits; JSON round-trips its floats exactly.
    """
    ev = record["event"]
    gaze = [a["target"] for a in record["actions"] if a["kind"] == "align_gaze"]
    return AssistEvent(
        kind=EventKind(ev["kind"]),
        t=record["t"],
        transcript=ev.get("transcript"),
        roi=ev.get("roi"),
        target=np.array(gaze[0]) if gaze else None,
        action=UserActionKind(ev["action"]) if "action" in ev else None,
        timeout_phase=Phase(ev["timeout_phase"]) if "timeout_phase" in ev else None,
    )


def audit_log(log, scenario) -> None:
    """Assert that ``log`` is what the policy and the search it directs produce.

    Every event record replays through ``orchestrator.step`` from the
    condition's initial state, and its actions and described state come out
    as logged.  Each ``navigating`` note names the ROI of the ``navigate_to``
    before it, and the miss, found or unreachable event that ends the visit
    names that ROI too, and condition A emits no motion action.
    """
    config = scenario.orchestrator_config(log.meta["condition"])
    state = initial_state(config)
    directed = visiting = None
    for i, record in enumerate(log.records):
        where = f"record {i} (t={record['t']})"
        if record["kind"] == "note":
            if record["note"] == "navigating":
                roi = record["data"]["roi"]
                assert roi == directed, f"{where}: visits {roi}; the policy directed {directed}"
                directed, visiting = None, roi
            continue
        event = _rebuild_event(record)
        assert event.describe() == record["event"], f"{where}: event does not round-trip"
        if event.kind in _VISIT_OUTCOMES:
            assert event.roi == visiting, f"{where}: {event.roi} ends a visit of {visiting}"
            visiting = None
        state, actions = step(state, event, config)
        assert [a.describe() for a in actions] == record["actions"], f"{where}: actions"
        assert state.describe() == record["state"], f"{where}: state"
        for action in record["actions"]:
            if action["kind"] == "navigate_to":
                directed = action["roi"]
            assert not (config.passive and action["kind"] in _MOTION_KIND_VALUES), (
                f"{where}: condition A emits {action['kind']}"
            )
