"""Simulated tabletop world: occupancy grid, scene objects, depth-camera
rendering, a parametric object detector, and unicycle base kinematics.

World frame: X/Y in the floor plane, Z up, units meters.  Grid cells are
squares of side ``resolution``; cell (i, j) covers x in [i*res, (i+1)*res)
and y likewise with j.  The first data row of the ASCII map format is row
j = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from functools import lru_cache

import numpy as np

from .geometry import BoundingBox, CameraIntrinsics, RigidTransform

# Occupied grid cells block camera rays up to this height (meters).
WALL_HEIGHT = 2.0

# Visible pixels an object needs before the detector can fire on it.
MIN_PIXEL_AREA = 25

# Minimum ray parameter considered a hit, to avoid self-intersections.
_RAY_EPS = 1e-9


class CellState(IntEnum):
    FREE = 0
    OCCUPIED = 1
    UNKNOWN = 2


# Cell state by character code; _NO_CELL, the last entry, for every other
# code, and a code past the table clips to it.
_NO_CELL = 255
_CELL_OF_CODE = np.full(_NO_CELL + 1, _NO_CELL, dtype=np.uint8)
_CELL_OF_CODE[[ord("."), ord("#"), ord("?")]] = (CellState.FREE, CellState.OCCUPIED,
                                                 CellState.UNKNOWN)


@dataclass
class OccupancyGrid:
    """2-D occupancy grid; ``cells`` is a uint8 ``CellState`` array of shape (height, width)."""

    cells: np.ndarray
    resolution: float

    def __post_init__(self) -> None:
        if not 0.0 < self.resolution < math.inf:
            raise ValueError(f"resolution must be positive and finite, got {self.resolution}")

    @property
    def height(self) -> int:
        return int(self.cells.shape[0])

    @property
    def width(self) -> int:
        return int(self.cells.shape[1])

    def world_to_cell(self, x: float, y: float) -> tuple[int, int] | None:
        """Cell (i, j) containing the world point, or None outside the map."""
        i = math.floor(x / self.resolution)
        j = math.floor(y / self.resolution)
        if 0 <= i < self.width and 0 <= j < self.height:
            return (i, j)
        return None

    def cell_center(self, i: int, j: int) -> tuple[float, float]:
        return ((i + 0.5) * self.resolution, (j + 0.5) * self.resolution)

    def state_at(self, x: float, y: float) -> CellState | None:
        cell = self.world_to_cell(x, y)
        if cell is None:
            return None
        return CellState(int(self.cells[cell[1], cell[0]]))

    @classmethod
    def from_ascii(cls, text: str) -> "OccupancyGrid":
        """Parse the ASCII map format.

        First line: ``WIDTH HEIGHT RESOLUTION``; then HEIGHT rows of WIDTH
        characters from {#, ., ?} for Occupied, Free, Unknown, row j = 0
        first.
        """
        lines = [ln for ln in text.splitlines() if ln.strip() != ""]
        if not lines:
            raise ValueError("empty map text")
        header = lines[0].split()
        if len(header) != 3:
            raise ValueError(f"map header must be 'W H RESOLUTION', got {lines[0]!r}")
        width, height = int(header[0]), int(header[1])
        resolution = float(header[2])
        if width < 1 or height < 1:
            raise ValueError(f"map must be at least 1x1 cells, got {width}x{height}")
        rows = lines[1:]
        if len(rows) != height:
            raise ValueError(f"map declares {height} rows but has {len(rows)}")
        # Rows are checked in order: the first ragged row, unless a row
        # before it holds an unknown char, whose first one is reported.
        ragged = next((j for j, row in enumerate(rows) if len(row) != width), height)
        text = "".join(rows[:ragged]).encode("utf-32-le", "surrogatepass")
        codes = np.frombuffer(text, dtype="<u4").reshape(ragged, width)
        cells = _CELL_OF_CODE[np.minimum(codes, _NO_CELL)]
        unknown = np.flatnonzero(cells == _NO_CELL)
        if len(unknown):
            j, i = divmod(int(unknown[0]), width)
            raise ValueError(f"map row {j} col {i}: unknown cell char {rows[j][i]!r}")
        if ragged < height:
            raise ValueError(f"map row {ragged} has {len(rows[ragged])} cells, expected {width}")
        return cls(cells=cells, resolution=resolution)


@dataclass(frozen=True)
class RegionOfInterest:
    """Named approach pose the robot visits while searching."""

    id: str
    pose: tuple[float, float, float]  # x, y, heading (radians)
    label: str


class ObjectKind(Enum):
    PILL_BOTTLE = "pill_bottle"
    WATER_BOTTLE = "water_bottle"
    DISTRACTOR = "distractor"
    SUPPORT = "support"  # furniture: occludes and carries objects, never detected


@dataclass(frozen=True)
class BoxShape:
    """Axis-aligned box; ``size`` = (dx, dy, dz), position = geometric center."""

    size: tuple[float, float, float]


@dataclass(frozen=True)
class CylinderShape:
    """Vertical cylinder; position = center of the base circle."""

    radius: float
    height: float


@dataclass(frozen=True)
class SceneObject:
    kind: ObjectKind
    position: tuple[float, float, float]
    shape: BoxShape | CylinderShape

    def aabb(self) -> tuple[np.ndarray, np.ndarray]:
        """World-frame axis-aligned bounds (min_corner, max_corner)."""
        p = np.asarray(self.position, dtype=np.float64)
        if isinstance(self.shape, BoxShape):
            half = np.asarray(self.shape.size, dtype=np.float64) / 2.0
            return p - half, p + half
        r, h = self.shape.radius, self.shape.height
        lo = p + np.array([-r, -r, 0.0])
        hi = p + np.array([r, r, h])
        return lo, hi


@dataclass
class Scene:
    """Static episode world: a grid plus the objects standing in it, and
    ``frames``, the detector-frame memo that ``episode._Engine.visit`` hands ``detect``."""

    grid: OccupancyGrid
    objects: tuple[SceneObject, ...]
    primitives: tuple[np.ndarray, list[tuple]] = field(init=False, compare=False, repr=False)
    pill_bottle_index: int | None = field(init=False, repr=False)
    # Mask over the primitives of the objects whose boxes the detector reads:
    # the pill bottle and the distractors.
    detectable: np.ndarray = field(init=False, compare=False, repr=False)
    frames: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        self.objects = tuple(self.objects)
        self.primitives = _primitives(self.objects, _merge_occupied_rects(self.grid))
        self.pill_bottle_index = next(
            (i for i, obj in enumerate(self.objects) if obj.kind is ObjectKind.PILL_BOTTLE), None
        )
        self.detectable = np.zeros(len(self.primitives[1]), dtype=bool)
        for i, obj in enumerate(self.objects):
            self.detectable[i] = i == self.pill_bottle_index or obj.kind is ObjectKind.DISTRACTOR


def _merge_occupied_rects(grid: OccupancyGrid) -> list[tuple[np.ndarray, np.ndarray]]:
    """Greedy merge of occupied cells into world-frame AABBs (walls).

    Row runs of occupied cells are merged, then runs with identical column
    spans on consecutive rows are stacked, so typical wall layouts collapse
    into a handful of boxes and rendering stays cheap.  Boxes come in the
    order their stacks end, by last row, then left to right.
    """
    occupied = np.pad(grid.cells == CellState.OCCUPIED, ((0, 0), (1, 1)))
    steps = np.diff(occupied.view(np.int8), axis=1)  # 1 where a run starts, -1 past its end
    rows, starts = np.nonzero(steps == 1)
    row_runs: list[list[tuple[int, int]]] = [[] for _ in range(grid.height)]
    for j, i0, i1 in zip(rows.tolist(), starts.tolist(), np.nonzero(steps == -1)[1].tolist()):
        row_runs[j].append((i0, i1 - 1))
    open_runs: dict[tuple[int, int], int] = {}  # (i0, i1) -> first row of its stack
    rects: list[tuple[int, int, int, int]] = []
    for j, runs in enumerate(row_runs):
        next_open = {run: open_runs.get(run, j) for run in runs}
        rects += [(*run, j0, j - 1) for run, j0 in open_runs.items() if run not in next_open]
        open_runs = next_open
    rects += [(*run, j0, grid.height - 1) for run, j0 in open_runs.items()]

    res = grid.resolution
    lo = [np.array([i0 * res, j0 * res, 0.0]) for i0, _, j0, _ in rects]
    hi = [np.array([(i1 + 1) * res, (j1 + 1) * res, WALL_HEIGHT]) for _, i1, _, j1 in rects]
    return list(zip(lo, hi))


@dataclass
class RobotState:
    """Base pose, commanded velocities, head pan, and the camera mount."""

    x: float
    y: float
    heading: float
    v: float = 0.0
    omega: float = 0.0
    head_pan: float = 0.0
    camera_mount: RigidTransform = field(kw_only=True)

    def world_from_base(self) -> RigidTransform:
        return RigidTransform.from_yaw(self.heading, (self.x, self.y, 0.0))

    def base_from_camera(self) -> RigidTransform:
        """Camera extrinsics including the current head pan.

        The pan joint rotates the mount about the base Z axis, which is a
        fair desk-scale approximation of a head-mounted camera.
        """
        pan = RigidTransform.from_yaw(self.head_pan)
        return pan.compose(self.camera_mount)

    def world_from_camera(self) -> RigidTransform:
        return self.world_from_base().compose(self.base_from_camera())


def standard_camera_mount(xyz: tuple[float, float, float], pitch: float) -> RigidTransform:
    """base<-camera transform for a forward-looking camera.

    Camera axes map to the base frame as X_cam -> -Y_base, Y_cam -> -Z_base,
    Z_cam -> +X_base; ``pitch`` tilts the optical axis down (negative) or up
    (positive) about the camera X axis.
    """
    base_from_cam = np.array(
        [
            [0.0, 0.0, 1.0],
            [-1.0, 0.0, 0.0],
            [0.0, -1.0, 0.0],
        ]
    )
    c, s = math.cos(pitch), math.sin(pitch)
    # Rotation about the camera X axis; positive pitch raises the optical axis.
    tilt = np.array([[1.0, 0.0, 0.0], [0.0, c, s], [0.0, -s, c]])
    return RigidTransform(base_from_cam @ tilt, np.asarray(xyz, dtype=np.float64))


@dataclass(frozen=True)
class DetectorModel:
    """Parametric single-class detector for the pill bottle.

    Field metadata ``lo``/``hi`` are the scenario loader's bounds.
    """

    true_positive_rate: float = field(default=0.9, metadata={"lo": 0.0, "hi": 1.0})
    false_positive_rate: float = field(default=0.02, metadata={"lo": 0.0, "hi": 1.0})
    box_noise_sigma: float = field(default=1.0, metadata={"lo": 0.0})
    max_range: float = field(default=4.0, metadata={"lo": 0.1})


@dataclass(frozen=True)
class DetectionResult:
    """A detector hit on what the detector takes for the pill bottle.

    ``true_kind`` is the ground truth, for evaluation.  ``depth`` is the
    noise-free depth of ``box``'s pixels, of shape (v_max - v_min + 1,
    u_max - u_min + 1) and read-only; the perception pipeline localizes on
    it, and no whole frame is rendered for it.  ``box`` lies in the frame.
    """

    box: BoundingBox
    true_kind: ObjectKind
    depth: np.ndarray = field(compare=False, repr=False)


# Ray ids for non-object hits in the instance buffer.
NO_HIT = -1
WALL_HIT = -2


def _ray_box(origin, dirs, lo, hi) -> np.ndarray:
    """Slab-method ray/AABB intersection; returns hit parameter or inf.

    ``origin`` is the (3,) point every ray leaves from and ``dirs`` is (3, N),
    one row per axis.  A zero direction component with the origin on that
    slab plane gives 0/0 = nan for the axis; np.minimum/np.maximum keep the
    nan and fmax/fmin then skip it, so the axis never constrains.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (lo - origin)[:, None] / dirs
        t2 = (hi - origin)[:, None] / dirs
    t_near = np.fmax.reduce(np.minimum(t1, t2))
    t_far = np.fmin.reduce(np.maximum(t1, t2))
    hit = (t_far >= t_near) & (t_far > _RAY_EPS) & (t_near > _RAY_EPS)
    return np.where(hit, t_near, np.inf)


def _ray_cylinder(origin, dirs, center, radius, z0, z1) -> np.ndarray:
    """Ray/vertical-cylinder intersection (lateral surface and caps)."""
    ox = origin[0] - center[0]
    oy = origin[1] - center[1]
    dx, dy, dz = dirs
    a = dx * dx + dy * dy
    b = 2.0 * (ox * dx + oy * dy)
    c = ox * ox + oy * oy - radius * radius
    disc = b * b - 4.0 * a * c
    with np.errstate(divide="ignore", invalid="ignore"):
        sqrt_disc = np.sqrt(np.maximum(disc, 0.0))
        s_lat = (-b - sqrt_disc) / (2.0 * a)
    z_at = origin[2] + s_lat * dz
    lat_ok = (disc >= 0.0) & (a > 1e-30) & (s_lat > _RAY_EPS) & (z_at >= z0) & (z_at <= z1)
    best = np.where(lat_ok, s_lat, np.inf)
    for z_cap in (z0, z1):
        with np.errstate(divide="ignore", invalid="ignore"):
            s_cap = (z_cap - origin[2]) / dz
        px = origin[0] + s_cap * dx - center[0]
        py = origin[1] + s_cap * dy - center[1]
        cap_ok = (
            np.isfinite(s_cap)
            & (s_cap > _RAY_EPS)
            & (px * px + py * py <= radius * radius)
        )
        best = np.minimum(best, np.where(cap_ok, s_cap, np.inf))
    return best


@lru_cache(maxsize=8)
def _camera_rays(intrinsics: CameraIntrinsics) -> np.ndarray:
    """Camera-frame pixel rays (N, 3), scaled so the ray parameter is camera Z."""
    h, w = intrinsics.height, intrinsics.width
    us, vs = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    rays = np.stack(
        [
            (us - intrinsics.cx) / intrinsics.fx,
            (vs - intrinsics.cy) / intrinsics.fy,
            np.ones_like(us),
        ],
        axis=-1,
    ).reshape(-1, 3)
    rays.flags.writeable = False
    return rays


# Corner k of an AABB takes the max bound on axis a when bit a of k is set;
# the 12 edges join the corners that differ in one bit.
_CORNER_BITS = np.array([[(k >> a) & 1 for a in range(3)] for k in range(8)], dtype=bool)
_EDGES = np.array([(k, k | 1 << a) for k in range(8) for a in range(3) if not k >> a & 1]).T
_CULL_MARGIN = 1e-6  # camera-Z slack (m) of the range cull, far above any hit's rounding
_CLIP_Z = _RAY_EPS / 2.0  # camera-Z clip plane: a hit's ray parameter, its Z, exceeds _RAY_EPS


def _primitives(objects, wall_rects) -> tuple[np.ndarray, list[tuple]]:
    """Objects', then walls' AABB corners (P, 8, 3) and (cast, args, hit id)."""
    casts = []
    for idx, obj in enumerate(objects):
        if isinstance(obj.shape, BoxShape):
            casts.append((_ray_box, obj.aabb(), idx))
        else:
            (cx, cy, cz), r, h = obj.position, obj.shape.radius, obj.shape.height
            casts.append((_ray_cylinder, ((cx, cy), r, cz, cz + h), idx))
    casts += [(_ray_box, rect, WALL_HIT) for rect in wall_rects]
    bounds = np.array([obj.aabb() for obj in objects] + wall_rects).reshape(-1, 2, 1, 3)
    return np.where(_CORNER_BITS, bounds[:, 1], bounds[:, 0]), casts


def render_depth_ids(
    scene: Scene,
    robot: RobotState,
    intrinsics: CameraIntrinsics,
    max_range: float,
    box: BoundingBox | None = None,
) -> tuple[np.ndarray | None, np.ndarray | None, BoundingBox | None]:
    """Noise-free depth and per-pixel instance ids of one pixel rectangle,
    by analytic ray casting, and the rectangle.

    The rectangle is ``box``, a pixel box in the frame, or else the one
    spanned by the cast windows of the detectable objects in view
    (``Scene.detectable``); with none in view nothing is cast and all three
    are None.  Depth and ids are read-only.  Depth is the camera-frame Z of
    the nearest hit (object or 2 m tall grid wall); pixels with no hit
    within ``max_range`` hold 0.  Ids are object indices, WALL_HIT for grid
    walls, NO_HIT otherwise.

    The camera-frame rays are cached per intrinsics.  Each render rotates
    the rows it casts into the world with one (N, 3) matrix product, then
    casts them in a per-axis (3, N) layout against the single camera origin.
    Every slab and cylinder term is the same IEEE expression as with one
    origin row per pixel, so depth and ids are bit-equal to that formulation.

    Each of ``scene.primitives`` is cast only at the rays of its window in
    the rectangle.  The window is the pixel rectangle that its AABB, clipped
    to camera Z >= ``_CLIP_Z``, spans: the corners in front of that plane
    and the points where the AABB's edges cross it, widened by one pixel
    (Sutherland & Hodgman 1974).  An AABB wholly behind the plane or past
    ``max_range`` in camera Z is not cast at all.  Every hit lies past
    ``_RAY_EPS`` in camera Z, so no other ray can hit the primitive: any
    rectangle's depth and ids are the whole frame's, and the default one
    holds every pixel of a detectable object.
    """
    cam_pose = robot.world_from_camera()
    rot, origin = cam_pose.rotation, cam_pose.translation
    h, w = intrinsics.height, intrinsics.width

    corners, casts = scene.primitives
    cam = (corners - origin) @ rot  # camera-frame corners, (P, 8, 3)
    a, b = cam[:, _EDGES[0]], cam[:, _EDGES[1]]  # the edges' ends, (P, 12, 3)
    crosses = (a[..., 2] < _CLIP_Z) != (b[..., 2] < _CLIP_Z)
    with np.errstate(divide="ignore", invalid="ignore"):
        cut = a + (_CLIP_Z - a[..., 2:]) / (b[..., 2:] - a[..., 2:]) * (b - a)
        cut[..., 2] = _CLIP_Z
        points = np.concatenate([cam, cut], axis=1)
        ratio = points[..., :2] / points[..., 2:]  # X/Z and Y/Z, as in the pixel rays
    shown = np.concatenate([cam[..., 2] >= _CLIP_Z, crosses], axis=1)[..., None]
    pix = (intrinsics.cx, intrinsics.cy) + (intrinsics.fx, intrinsics.fy) * ratio
    lo = np.clip(np.ceil(np.where(shown, pix, np.inf).min(axis=1)) - 1, 0, (w, h)).astype(int)
    hi = np.clip(np.floor(np.where(shown, pix, -np.inf).max(axis=1)) + 2, 0, (w, h)).astype(int)
    cull = (cam[..., 2].min(axis=1) <= max_range + _CULL_MARGIN) & (lo < hi).all(1)
    if box is None:
        detectable = cull & scene.detectable
        if not detectable.any():
            return None, None, None
        (u0, v0), (u1, v1) = lo[detectable].min(axis=0), hi[detectable].max(axis=0)
        box = BoundingBox(int(u0), int(v0), int(u1) - 1, int(v1) - 1)
    # Windows in the rectangle's pixels from here on.
    corner = (box.u_min, box.v_min)
    lo = np.maximum(lo, corner) - corner
    hi = np.minimum(hi, (box.u_max + 1, box.v_max + 1)) - corner
    cull &= (lo < hi).all(1)

    best = np.full((box.v_max - box.v_min + 1, box.u_max - box.u_min + 1), np.inf)
    ids = np.full(best.shape, NO_HIT, dtype=np.int32)
    order = np.flatnonzero(cull)
    if len(order):
        # Only the rows some window covers are rotated, each whole, so the bits
        # are the full frame's: row r of dirs is rectangle row top + r.
        top, bottom = lo[order, 1].min(), hi[order, 1].max()
        rays = _camera_rays(intrinsics)[(box.v_min + top) * w : (box.v_min + bottom) * w]
        dirs = np.ascontiguousarray((rays @ rot.T).T).reshape(3, -1, w)[..., box.u_min :]
    for k in order:
        cast, args, hit_id = casts[k]
        (u0, v0), (u1, v1) = lo[k], hi[k]
        best_win, ids_win = best[v0:v1, u0:u1], ids[v0:v1, u0:u1]
        s = cast(origin, dirs[:, v0 - top : v1 - top, u0:u1].reshape(3, -1), *args)
        s = s.reshape(best_win.shape)
        closer = s < best_win
        best_win[closer] = s[closer]
        ids_win[closer] = hit_id

    out_of_range = ~np.isfinite(best) | (best > max_range)
    depth = np.where(out_of_range, 0.0, best)
    ids[out_of_range] = NO_HIT
    depth.flags.writeable = ids.flags.writeable = False
    return depth, ids, box


def add_depth_noise(
    depth: np.ndarray, box: BoundingBox, shape: tuple, sigma: float, rng: np.random.Generator
) -> np.ndarray:
    """``depth``, the noise-free depth of ``box``'s pixels in a frame of
    ``shape``, plus additive Gaussian noise, clamped at 1e-3 m on valid
    pixels; invalid (0) pixels stay 0.  A whole frame of standard normals is
    drawn, so ``rng`` moves on as for a noisy frame, and only the box's are
    scaled by ``sigma``: ``rng.normal(0, sigma)`` is 0 + sigma * z, the
    same bits."""
    if sigma > 0.0:
        z = rng.standard_normal(shape)[box.v_min : box.v_max + 1, box.u_min : box.u_max + 1]
        depth = np.where(depth > 0.0, np.maximum(depth + sigma * z, 1e-3), 0.0)
    return depth


def _visible_pixel_box(
    ids: np.ndarray, index: int, rect: BoundingBox
) -> tuple[int, BoundingBox | None]:
    """``index``'s pixel count and frame box in ``ids``, pixel rectangle ``rect``'s ids."""
    shown = ids == index
    area = np.count_nonzero(shown)
    if area == 0:
        return 0, None
    vs, us = np.flatnonzero(shown.any(axis=1)), np.flatnonzero(shown.any(axis=0))
    u0, v0 = rect.u_min, rect.v_min
    return area, BoundingBox(u0 + int(us[0]), v0 + int(vs[0]), u0 + int(us[-1]), v0 + int(vs[-1]))


def _perturb_box(
    box: BoundingBox, sigma: float, width: int, height: int, rng: np.random.Generator
) -> BoundingBox:
    if sigma <= 0.0:
        return box
    noise = rng.normal(0.0, sigma, size=4)
    u0 = int(round(box.u_min + noise[0]))
    v0 = int(round(box.v_min + noise[1]))
    u1 = int(round(box.u_max + noise[2]))
    v1 = int(round(box.v_max + noise[3]))
    u0, u1 = sorted((u0, u1))
    v0, v1 = sorted((v0, v1))
    return BoundingBox(u0, v0, u1, v1).clipped(width, height)


def _frame_boxes(
    scene: Scene, ids: np.ndarray, rect: BoundingBox
) -> tuple[BoundingBox | None, BoundingBox | None]:
    """The bottle's frame box if it shows ``MIN_PIXEL_AREA`` pixels in ``ids``,
    pixel rectangle ``rect``'s ids; the largest such distractor's."""
    bottle_box = None
    if scene.pill_bottle_index is not None:
        area, box = _visible_pixel_box(ids, scene.pill_bottle_index, rect)
        if area >= MIN_PIXEL_AREA:
            bottle_box = box
    best_area, best_box = 0, None
    for idx, obj in enumerate(scene.objects):
        if obj.kind is not ObjectKind.DISTRACTOR:
            continue
        area, box = _visible_pixel_box(ids, idx, rect)
        if area >= MIN_PIXEL_AREA and area > best_area:
            best_area, best_box = area, box
    return bottle_box, best_box


def detect(
    scene: Scene,
    robot: RobotState,
    model: DetectorModel,
    intrinsics: CameraIntrinsics,
    rng: np.random.Generator,
    frames: dict,
) -> DetectionResult | None:
    """One detector frame from the robot's current camera pose.

    If the pill bottle is visible (nearest-hit pixel count at or above
    ``MIN_PIXEL_AREA``), a true positive fires with probability
    ``true_positive_rate`` and returns the bottle's visible-pixel box
    perturbed by ``box_noise_sigma``.  Otherwise a visible distractor may
    yield a false positive with probability ``false_positive_rate``.  Draw
    order is fixed (the true-positive roll, then the false-positive roll,
    then the box noise), so a seeded rng reproduces results exactly.

    ``frames`` memoizes each camera pose's boxes, keyed by value on
    everything the render reads, so a pose seen before is not rendered
    again.  The boxes come from a render of the rectangle where a
    detectable object can land; a frame that shows a box also keeps that
    render's rectangle and read-only depth.  A fire returns the detection
    box's slice of that depth, unless the box leaves the rectangle: then
    only the box is rendered, and not kept.  Either way the box's depth is
    the full frame's, bit for bit.
    """
    mount, view = robot.camera_mount, (scene, robot, intrinsics, model.max_range)
    pose = np.array([robot.x, robot.y, robot.heading, robot.head_pan, model.max_range])
    key = (pose.tobytes(), mount.rotation.tobytes(), mount.translation.tobytes(), intrinsics)
    if key not in frames:
        depth, ids, rect = render_depth_ids(*view)
        boxes = (None, None) if rect is None else _frame_boxes(scene, ids, rect)
        frames[key] = (*boxes, None if boxes == (None, None) else (rect, depth))
    bottle_box, distractor_box, kept = frames[key]
    if bottle_box is not None and rng.random() < model.true_positive_rate:
        kind, box = ObjectKind.PILL_BOTTLE, bottle_box
    elif distractor_box is not None and rng.random() < model.false_positive_rate:
        kind, box = ObjectKind.DISTRACTOR, distractor_box
    else:
        return None
    box = _perturb_box(box, model.box_noise_sigma, intrinsics.width, intrinsics.height, rng)
    # The box lies in the frame: _perturb_box clips it, and a visible box is in it.
    rect, depth = kept
    if not (rect.u_min <= box.u_min and box.u_max <= rect.u_max
            and rect.v_min <= box.v_min and box.v_max <= rect.v_max):
        depth, _, rect = render_depth_ids(*view, box)  # the box leaves the kept rectangle
    depth = depth[box.v_min - rect.v_min : box.v_max + 1 - rect.v_min,
                  box.u_min - rect.u_min : box.u_max + 1 - rect.u_min]
    return DetectionResult(box=box, true_kind=kind, depth=depth)


# episode._Engine.visit's head sweep, low to high: -30..30 deg in 15 deg steps.
PAN_SCHEDULE = tuple(math.radians(-30.0) + k * math.radians(15.0) for k in range(5))


def unicycle_arc(
    x: float, y: float, heading: float, v: float, omega: float, t: float
) -> tuple[float, float, float]:
    """Exact constant-twist (arc) integration of the unicycle model."""
    if abs(omega) < 1e-12:
        return (x + v * t * math.cos(heading), y + v * t * math.sin(heading), heading)
    radius = v / omega
    new_heading = heading + omega * t
    return (
        x + radius * (math.sin(new_heading) - math.sin(heading)),
        y - radius * (math.cos(new_heading) - math.cos(heading)),
        new_heading,
    )


def step_kinematics(
    robot: RobotState,
    cmd: tuple[float, float],
    dt: float,
    grid: OccupancyGrid,
) -> tuple[RobotState, bool]:
    """Advance the base by (v, omega) for dt seconds with exact arcs.

    The swept arc is sampled at half-cell spatial resolution (and at most
    0.1 rad of turn per sample); if a sample lands in an Occupied cell or
    off the map, motion stops at the last free sample, velocities drop to
    zero, and the collision flag is returned True.
    """
    v, omega = cmd
    arc_len = abs(v) * dt
    n = max(
        1,
        math.ceil(arc_len / (0.5 * grid.resolution)),
        math.ceil(abs(omega) * dt / 0.1),
    )
    last_free = (robot.x, robot.y, robot.heading)
    for k in range(1, n + 1):
        px, py, ph = unicycle_arc(robot.x, robot.y, robot.heading, v, omega, dt * k / n)
        state = grid.state_at(px, py)
        if state is None or state is CellState.OCCUPIED:
            collided = RobotState(*last_free, 0.0, 0.0, robot.head_pan,
                                  camera_mount=robot.camera_mount)
            return collided, True
        last_free = (px, py, ph)
    moved = RobotState(*last_free, v, omega, robot.head_pan, camera_mount=robot.camera_mount)
    return moved, False
