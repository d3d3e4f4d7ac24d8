import math
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from aansim import world
from aansim.geometry import BoundingBox, CameraIntrinsics
from aansim.world import (
    BoxShape,
    CellState,
    CylinderShape,
    DetectorModel,
    ObjectKind,
    OccupancyGrid,
    RobotState,
    Scene,
    SceneObject,
    standard_camera_mount,
)

from conftest import CAMERA_MOUNT
from oracles import grid_from_ascii_reference, merge_occupied_rects_reference, render_reference

SCENARIO_PATH = Path(__file__).resolve().parent.parent / "scenarios" / "lab_study.json"
LAB_MAP = SCENARIO_PATH.parent / "lab.map"
INTR = CameraIntrinsics(fx=130.0, fy=130.0, cx=79.5, cy=59.5, width=160, height=120)


def grid_from(rows: list[str], resolution: float = 0.1) -> OccupancyGrid:
    text = f"{len(rows[0])} {len(rows)} {resolution}\n" + "\n".join(rows)
    return OccupancyGrid.from_ascii(text)


# ---------------------------------------------------------------------------
# Occupancy grid


def test_grid_ascii_round_trip():
    rows = ["#####", "#..?#", "#.#.#", "#####"]
    g = grid_from(rows)
    assert g.width == 5 and g.height == 4 and g.resolution == 0.1
    codes = {"#": CellState.OCCUPIED, ".": CellState.FREE, "?": CellState.UNKNOWN}
    assert g.cells.tolist() == [[codes[ch] for ch in row] for row in rows]
    assert g.state_at(0.15, 0.15) == CellState.FREE
    assert g.state_at(0.35, 0.15) == CellState.UNKNOWN
    assert g.state_at(0.25, 0.25) == CellState.OCCUPIED


def test_grid_cell_indexing_floor_semantics():
    g = grid_from(["...", "..."], resolution=0.5)
    assert g.world_to_cell(0.0, 0.0) == (0, 0)
    assert g.world_to_cell(0.4999, 0.0) == (0, 0)
    assert g.world_to_cell(0.5, 0.0) == (1, 0)
    assert g.world_to_cell(1.49, 0.99) == (2, 1)
    assert g.world_to_cell(-0.01, 0.0) is None
    assert g.world_to_cell(1.5, 0.0) is None
    assert g.cell_center(0, 0) == (0.25, 0.25)


@pytest.mark.parametrize(
    "text",
    [
        "bad header\n..",
        "2 2 0.1\n..\n.",  # ragged
        "2 2 0.1\n..\nxy",  # bad char
        "2 3 0.1\n..\n..",  # row count mismatch
    ],
)
def test_grid_ascii_rejects_malformed(text):
    with pytest.raises(ValueError):
        OccupancyGrid.from_ascii(text)


def _parsed(parse, text):
    """A parse's cells and resolution, or its error line."""
    try:
        grid = parse(text)
    except ValueError as exc:
        return str(exc)
    return grid.cells.dtype, grid.cells.shape, grid.cells.tobytes(), grid.resolution


def test_grid_ascii_parse_matches_the_char_scan():
    texts = [LAB_MAP.read_text()]
    rng = np.random.default_rng(33)
    for _ in range(40):
        w, h = (int(n) for n in rng.integers(1, 40, size=2))
        rows = ["".join(rng.choice(list("#.?"), size=w)) for _ in range(h)]
        texts.append(f"{w} {h} 0.1\n" + "\n".join(rows))
    rows = ["#.?#", "....", "?##."]

    def edited(j, row):
        return "4 3 0.05\n" + "\n".join(rows[:j] + [row] + rows[j + 1 :])

    bad = [edited(0, "x.?#"), edited(2, "?##\u00e9"), edited(1, "..\u2603."), edited(1, ". .."),
           edited(2, "?#\x00."), edited(0, "#.\udcff#"), edited(1, "..."), edited(2, "?##.."),
           edited(0, "#.x#") + "\n..", "4 4 0.1\n#.?#\n..x.\n...\n....",
           "4 4 0.1\n#.?#\n...\n..x.\n...."]
    for text in texts + bad:
        want = _parsed(grid_from_ascii_reference, text)
        assert _parsed(OccupancyGrid.from_ascii, text) == want
    errors = [_parsed(OccupancyGrid.from_ascii, text) for text in bad]
    assert errors[:3] == ["map row 0 col 0: unknown cell char 'x'",
                          "map row 2 col 3: unknown cell char 'é'",
                          "map row 1 col 2: unknown cell char '☃'"]
    assert errors[6:] == ["map row 1 has 3 cells, expected 4",
                          "map row 2 has 5 cells, expected 4",
                          "map declares 3 rows but has 4",
                          "map row 1 col 2: unknown cell char 'x'",
                          "map row 1 has 3 cells, expected 4"]


def _random_cells(rng, w, h, p):
    """A random grid of free, occupied and unknown cells, occupied with probability p."""
    cells = np.where(rng.random((h, w)) < p, CellState.OCCUPIED, CellState.FREE)
    cells[rng.random((h, w)) < 0.05] = CellState.UNKNOWN
    resolution = float(rng.choice([0.05, 0.1, 0.3]))
    return OccupancyGrid(cells=cells.astype(np.uint8), resolution=resolution)


def _assert_same_rects(got, want):
    assert len(got) == len(want)
    for (lo, hi), (want_lo, want_hi) in zip(got, want):
        assert lo.tobytes() == want_lo.tobytes() and hi.tobytes() == want_hi.tobytes()


def test_merge_occupied_rects_matches_the_cell_scan(lab_scenario):
    # Same boxes in the same order: the order breaks the renderer's depth ties.
    for grid in (lab_scenario.grid, lab_scenario.nav_grid):
        got = world._merge_occupied_rects(grid)
        _assert_same_rects(got, merge_occupied_rects_reference(grid))
        assert 0 < len(got) < (grid.cells == CellState.OCCUPIED).sum()
    rng = np.random.default_rng(32)
    for k in range(60):
        w, h = (int(n) for n in rng.integers(1, 30, size=2))
        grid = _random_cells(rng, w, h, p=(0.1, 0.5, 0.9, 1.0)[k % 4])
        _assert_same_rects(world._merge_occupied_rects(grid), merge_occupied_rects_reference(grid))


# ---------------------------------------------------------------------------
# Depth rendering oracles


def _open_room(size_cells=60, resolution=0.1):
    rows = ["#" * size_cells]
    for _ in range(size_cells - 2):
        rows.append("#" + "." * (size_cells - 2) + "#")
    rows.append("#" * size_cells)
    return grid_from(rows, resolution)


def _robot_at(x, y, heading, pitch=0.0, height=1.0):
    return RobotState(
        x=x, y=y, heading=heading,
        camera_mount=standard_camera_mount((0.0, 0.0, height), pitch),
    )


def test_render_wall_depth_equals_axis_distance():
    # Robot looks straight at the east wall; for a wall perpendicular to the
    # optical axis every wall pixel has the same axial depth.
    g = _open_room()
    scene = Scene(grid=g, objects=[])
    robot = _robot_at(2.0, 3.0, 0.0)
    depth, ids = world.render_depth_ids(scene, robot, INTR, max_range=10.0)
    # Wall inner face at x = 5.9; camera at x = 2.0.
    wall_pixels = ids == world.WALL_HIT
    assert wall_pixels.any()
    d = depth[wall_pixels]
    assert np.allclose(d, 3.9, atol=1e-9)


def test_render_cylinder_center_pixel_depth():
    g = _open_room()
    bottle = SceneObject(
        kind=ObjectKind.PILL_BOTTLE,
        position=(4.0, 3.0, 0.8),
        shape=CylinderShape(radius=0.05, height=0.4),
    )
    scene = Scene(grid=g, objects=[bottle])
    robot = _robot_at(2.0, 3.0, 0.0, height=1.0)
    depth, ids = world.render_depth_ids(scene, robot, INTR, max_range=10.0)
    # Near-principal pixel; the lateral surface sits at z in [0.8, 1.2].
    u, v = 79, 59
    assert ids[v, u] == 0
    # Closed-form ray/circle intersection for this pixel.  With heading 0 the
    # pixel ray is (1, -a, -b) in world axes for camera-plane offsets (a, b),
    # parameterized so the parameter equals camera-frame depth.
    a = (u - INTR.cx) / INTR.fx
    qa = 1.0 + a * a
    qb = -2.0 * 2.0  # axis 2 m ahead, zero lateral offset
    qc = 4.0 - 0.05**2
    expected = (-qb - math.sqrt(qb * qb - 4.0 * qa * qc)) / (2.0 * qa)
    assert expected == pytest.approx(1.95, abs=1e-3)  # sanity: near axis dist - r
    assert depth[v, u] == pytest.approx(expected, abs=1e-9)


def test_render_box_depth_and_occlusion():
    g = _open_room()
    slab = SceneObject(
        kind=ObjectKind.SUPPORT,
        position=(3.5, 3.0, 1.0),  # front face at x=3.3
        shape=BoxShape(size=(0.4, 2.0, 2.0)),
    )
    behind = SceneObject(
        kind=ObjectKind.DISTRACTOR,
        position=(4.5, 3.0, 1.0),
        shape=CylinderShape(radius=0.1, height=0.5),
    )
    scene = Scene(grid=g, objects=[slab, behind])
    robot = _robot_at(2.0, 3.0, 0.0)
    depth, ids = world.render_depth_ids(scene, robot, INTR, max_range=10.0)
    u, v = 79, 59
    assert ids[v, u] == 0  # slab, not the cylinder behind it
    assert depth[v, u] == pytest.approx(1.3, abs=1e-6)
    assert not (ids == 1).any()  # fully occluded


def test_render_respects_max_range():
    g = _open_room()
    scene = Scene(grid=g, objects=[])
    robot = _robot_at(2.0, 3.0, 0.0)
    depth, ids = world.render_depth_ids(scene, robot, INTR, max_range=2.0)
    assert (ids == world.NO_HIT).all()
    assert (depth == 0.0).all()


def test_render_depth_noise_is_seeded_and_clamped():
    g = _open_room()
    scene = Scene(grid=g, objects=[])
    robot = _robot_at(2.0, 3.0, 0.0)
    clean, _ = world.render_depth_ids(scene, robot, INTR, 10.0)
    clean[50:60, 150:] = 0.0  # invalid pixels inside the box
    box = BoundingBox(140, 40, 170, 70)  # runs off the frame's right edge
    rng = np.random.default_rng(5)
    d1 = world.add_depth_noise(clean, box, 0.01, rng)
    d2 = world.add_depth_noise(clean, box, 0.01, np.random.default_rng(5))
    assert np.array_equal(d1, d2)
    # Inside the box, the bits of a whole noisy frame; outside it, the render.
    full_rng = np.random.default_rng(5)
    full = np.where(clean > 0, np.maximum(clean + full_rng.normal(0.0, 0.01, clean.shape), 1e-3), 0)
    inside = np.zeros(clean.shape, dtype=bool)
    inside[40:71, 140:] = True
    assert np.array_equal(d1[inside].view(np.uint64), full[inside].view(np.uint64))
    assert np.array_equal(d1[~inside], clean[~inside])
    assert not np.array_equal(d1[inside], clean[inside])
    assert rng.random() == full_rng.random()  # the stream moved on a whole frame
    valid = d1 > 0
    assert valid.any()
    assert np.array_equal(valid, clean > 0)
    assert d1[valid].min() >= 1e-3
    assert world.add_depth_noise(clean, box, 0.0, np.random.default_rng(5)) is clean


def _assert_bitwise_equal(got, want):
    (d_got, ids_got), (d_want, ids_want) = got, want
    assert d_got.dtype == d_want.dtype and ids_got.dtype == ids_want.dtype
    assert np.array_equal(d_got.view(np.uint64), d_want.view(np.uint64))
    assert np.array_equal(ids_got, ids_want)


def test_render_matches_reference_on_random_lab_poses(lab_scenario):
    # Half-resolution camera keeps the (N, 3) reference affordable.
    intr = CameraIntrinsics(fx=65.0, fy=65.0, cx=39.5, cy=29.5, width=80, height=60)
    rng = np.random.default_rng(2024)
    grid = lab_scenario.grid
    free = np.argwhere(grid.cells == CellState.FREE)
    scenes = [lab_scenario.build_scene(k) for k in range(len(lab_scenario.bottle_candidates))]
    hits = set()
    for k in range(200):
        j, i = free[rng.integers(len(free))]
        x, y = grid.cell_center(int(i), int(j))
        robot = replace(
            lab_scenario.robot_state(),
            x=x + float(rng.uniform(-0.04, 0.04)),
            y=y + float(rng.uniform(-0.04, 0.04)),
            heading=float(rng.uniform(-math.pi, math.pi)),
            head_pan=float(rng.uniform(-0.6, 0.6)),
        )
        scene = scenes[k % len(scenes)]
        for max_range in (3.5, 10.0):
            got = world.render_depth_ids(scene, robot, intr, max_range)
            _assert_bitwise_equal(got, render_reference(scene, robot, intr, max_range))
            hits.update(np.unique(got[1]).tolist())
    # The poses see objects, walls, and empty range alike.
    assert {world.NO_HIT, world.WALL_HIT, 0} <= hits


def test_render_zero_direction_on_slab_plane_matches_reference():
    # Integer principal point: the centre pixel's ray is exactly +X in the
    # world, so its y and z components are 0.  The camera origin lies on the
    # box's y = 3.0 and z = 1.0 faces, which makes those slab terms 0/0.
    intr = CameraIntrinsics(fx=130.0, fy=130.0, cx=80.0, cy=60.0, width=160, height=120)
    box = SceneObject(
        kind=ObjectKind.SUPPORT,
        position=(4.0, 3.25, 1.25),
        shape=BoxShape(size=(0.5, 0.5, 0.5)),
    )
    scene = Scene(grid=_open_room(), objects=[box])
    robot = _robot_at(2.0, 3.0, 0.0, height=1.0)
    cam = robot.world_from_camera()
    ray = cam.rotation @ np.array([0.0, 0.0, 1.0])
    lo, _ = box.aabb()
    assert ray[1] == 0.0 and ray[2] == 0.0
    assert cam.translation[1] == lo[1] and cam.translation[2] == lo[2]
    for max_range in (1.0, 10.0):
        got = world.render_depth_ids(scene, robot, intr, max_range)
        _assert_bitwise_equal(got, render_reference(scene, robot, intr, max_range))
    depth, ids = world.render_depth_ids(scene, robot, intr, 10.0)
    assert ids[60, 80] == 0
    assert depth[60, 80] == 1.75


# ---------------------------------------------------------------------------
# Render culling: each primitive is cast only on the pixels its AABB can reach


def _box(lo, hi, kind=ObjectKind.SUPPORT):
    lo, hi = np.array(lo), np.array(hi)
    return SceneObject(kind=kind, position=tuple((lo + hi) / 2.0), shape=BoxShape(tuple(hi - lo)))


def _render_matches_reference(objects, robot, max_range=10.0):
    scene = Scene(grid=_open_room(), objects=objects)
    got = world.render_depth_ids(scene, robot, INTR, max_range)
    _assert_bitwise_equal(got, render_reference(scene, robot, INTR, max_range))
    return got


def test_render_window_keeps_a_hit_that_rounds_past_the_projected_corner():
    # A box corner on the ray of pixel (80, 120), 1.5 m out: the ray hits the
    # box, yet the corner projects to u = 119.99999999999997.  The one-pixel
    # widening keeps column 120 in the box's window.
    robot = _robot_at(2.0, 3.0, -0.5)
    cam = robot.world_from_camera()
    ray = cam.rotation @ np.array([(120 - INTR.cx) / INTR.fx, (80 - INTR.cy) / INTR.fy, 1.0])
    corner = cam.translation + 1.5 * ray
    centre = corner + np.where(cam.rotation[:, 0] > 0, -0.15, 0.15)
    box = SceneObject(ObjectKind.SUPPORT, tuple(centre.tolist()), BoxShape((0.3, 0.3, 0.3)))
    lo, hi = box.aabb()
    corners = (np.where(world._CORNER_BITS, hi, lo) - cam.translation) @ cam.rotation
    assert (INTR.cx + INTR.fx * corners[:, 0] / corners[:, 2]).max() < 120.0
    _, ids = _render_matches_reference([box], robot)
    assert ids[80, 120] == 0 and not (ids[:, 121:] == 0).any()


@pytest.fixture
def rays_cast(monkeypatch):
    """Rays cast per primitive, keyed by its first cast bound (a box's lo corner
    or a cylinder's centre).  Scenes built after the patch cast through it."""
    rays = {}
    for name in ("_ray_box", "_ray_cylinder"):

        def counted(origin, dirs, first, *rest, real=getattr(world, name)):
            key = tuple(np.asarray(first).tolist())
            rays[key] = rays.get(key, 0) + dirs.shape[1]
            return real(origin, dirs, first, *rest)

        monkeypatch.setattr(world, name, counted)
    return rays


# The camera sits at (2, 3, 1) looking along +x: the image's left edge is at
# +y and its top at +z.  Image half-extents at 1 m are 0.615 m and 0.458 m.
_CULLED = {
    "behind": _box((1.0, 2.8, 0.8), (1.5, 3.2, 1.2)),
    "left": _box((2.9, 3.8, 0.9), (3.1, 4.0, 1.1)),
    "right": _box((2.9, 2.0, 0.9), (3.1, 2.2, 1.1)),
    "above": _box((2.9, 2.9, 1.7), (3.1, 3.1, 1.9)),
    "below": _box((2.9, 2.9, 0.1), (3.1, 3.1, 0.3)),
}


@pytest.mark.parametrize("where", sorted(_CULLED))
def test_render_culls_a_primitive_outside_the_frustum(rays_cast, where):
    culled = _CULLED[where]
    seen = SceneObject(ObjectKind.DISTRACTOR, (4.0, 3.0, 0.8), CylinderShape(0.1, 0.4))
    _, ids = _render_matches_reference([culled, seen], _robot_at(2.0, 3.0, 0.0))
    assert not (ids == 0).any() and (ids == 1).any()
    assert tuple(culled.aabb()[0].tolist()) not in rays_cast


def test_render_culls_a_primitive_beyond_max_range(rays_cast):
    near = _box((2.9, 2.9, 0.5), (3.1, 3.1, 0.7))
    far = _box((3.9, 2.8, 0.8), (4.3, 3.2, 1.2))  # camera Z 1.9 or more
    robot = _robot_at(2.0, 3.0, 0.0)
    _, ids = _render_matches_reference([near, far], robot, max_range=10.0)
    assert (ids == 1).any()
    rays_cast.clear()
    _, ids = _render_matches_reference([near, far], robot, max_range=1.85)
    assert (ids == 0).any() and not (ids == 1).any()
    assert tuple(far.aabb()[0].tolist()) not in rays_cast


def test_render_casts_few_rays_at_a_small_far_primitive(rays_cast):
    bottle = SceneObject(ObjectKind.PILL_BOTTLE, (5.0, 3.0, 0.9), CylinderShape(0.05, 0.2))
    _, ids = _render_matches_reference([bottle], _robot_at(2.0, 3.0, 0.0))
    assert (ids == 0).any()
    assert 0 < rays_cast[(5.0, 3.0)] < INTR.width * INTR.height


def test_render_clips_a_box_straddling_the_camera_plane(rays_cast):
    # The robot stands against a desk that reaches past the camera on both sides.
    desk = _box((1.7, 2.4, 0.0), (2.5, 3.6, 0.9))
    shelf = _box((1.9, 3.3, 0.0), (2.6, 3.5, 1.6))  # beside the camera, higher than it
    _, ids = _render_matches_reference([desk, shelf], _robot_at(2.0, 3.0, 0.0))
    assert (ids == 0).any() and (ids == 1).any()
    assert (ids[-1] == 0).any() and (ids[:, 0] == 1).any()  # both run off the image
    # Clipped at the camera plane, each spans only a band of the image.
    assert 0 < rays_cast[tuple(desk.aabb()[0].tolist())] < INTR.width * INTR.height // 2
    assert 0 < rays_cast[tuple(shelf.aabb()[0].tolist())] < INTR.width * INTR.height // 4


def _straddles(scene, robot):
    """Whether some primitive's AABB has corners on both sides of the camera plane."""
    cam = robot.world_from_camera()
    z = ((scene.primitives[0] - cam.translation) @ cam.rotation)[..., 2]
    return bool(((z.min(axis=1) < 0.0) & (z.max(axis=1) > 0.0)).any())


def _backed_against(grid, objects, mount):
    """Robots in the free cells beside walls, and beside each support's sides,
    heading along the wall or side both ways."""
    robots = []
    free = grid.cells == CellState.FREE
    occupied = grid.cells == CellState.OCCUPIED
    for di, dj, headings in ((1, 0, (0.5, -0.5)), (0, 1, (0.0, 1.0))):
        # Free cells whose neighbour at (+di, +dj) is a wall, every 23rd one.
        beside = free[: free.shape[0] - dj, : free.shape[1] - di] & occupied[dj:, di:]
        for j, i in np.argwhere(beside)[::23].tolist():
            x, y = grid.cell_center(i, j)
            robots += [RobotState(x, y, h * math.pi, camera_mount=mount) for h in headings]
    for obj in objects:
        if obj.kind is ObjectKind.SUPPORT:
            (x0, y0, _), (x1, y1, _) = obj.aabb()
            cx, cy = (x0 + x1) / 2.0, (y0 + y1) / 2.0
            for x, y, h in ((x0 - 0.1, cy, 0.5), (x1 + 0.1, cy, -0.5), (cx, y0 - 0.1, 1.0),
                            (cx, y1 + 0.1, 0.0)):
                robots.append(RobotState(x, y, h * math.pi, camera_mount=mount))
    return robots


def test_render_matches_reference_backed_against_lab_walls_and_supports(lab_scenario, rays_cast):
    scene = lab_scenario.build_scene(0)
    robots = _backed_against(scene.grid, scene.objects, lab_scenario.robot_state().camera_mount)
    assert len(robots) >= 30
    for k, robot in enumerate(robots):
        assert _straddles(scene, robot)
        max_range = (lab_scenario.detector.max_range, 10.0)[k % 2]
        got = world.render_depth_ids(scene, robot, INTR, max_range)
        _assert_bitwise_equal(got, render_reference(scene, robot, INTR, max_range))
    # Scenes cast through the patch only once built after it: count a fresh one.
    rays_cast.clear()
    scene = Scene(grid=scene.grid, objects=scene.objects)
    for robot in robots:
        world.render_depth_ids(scene, robot, INTR, 10.0)
    assert sum(rays_cast.values()) < len(robots) * INTR.width * INTR.height


def test_box_only_frames_give_the_full_frames_boxes(lab_scenario):
    # Every lab search pose at every pan, and the wall-backed poses whose
    # boxes straddle the camera plane, at every bottle placement.
    sc, intr, max_range = lab_scenario, lab_scenario.intrinsics, lab_scenario.detector.max_range
    start = sc.robot_state()
    shown = Counter()
    for k in range(len(sc.bottle_candidates)):
        scene = sc.build_scene(k)
        robots = [replace(start, x=x, y=y, heading=heading, head_pan=pan)
                  for x, y, heading in (roi.pose for roi in sc.rois) for pan in world.PAN_SCHEDULE]
        robots += _backed_against(scene.grid, scene.objects, start.camera_mount)
        for robot in robots:
            _, full = world.render_depth_ids(scene, robot, intr, max_range)
            _, part = world.render_depth_ids(scene, robot, intr, max_range, scene.detectable)
            for index in np.flatnonzero(scene.detectable):
                assert np.array_equal(part == index, full == index)
                vs, us = np.nonzero(full == index)
                want = (0, None)
                if len(us):
                    want = (len(us), BoundingBox(us.min(), vs.min(), us.max(), vs.max()))
                assert world._visible_pixel_box(part, index) == want
            boxes = world._frame_boxes(scene, part)
            assert boxes == world._frame_boxes(scene, full)
            shown[tuple(box is not None for box in boxes)] += 1
    assert shown[(True, False)] and shown[(False, True)] and shown[(False, False)]


def test_a_frame_without_a_detectable_object_casts_no_ray(lab_scenario, rays_cast, monkeypatch):
    formed = []

    def camera_rays(intrinsics, real=world._camera_rays):
        formed.append(intrinsics)
        return real(intrinsics)

    monkeypatch.setattr(world, "_camera_rays", camera_rays)
    # Built after the patch, so it casts through it.  At the start pose the
    # robot faces a wall; every detectable object is out of view or range.
    sc = lab_scenario
    scene = Scene(grid=sc.grid, objects=sc.build_scene(0).objects)
    robot, frames = sc.robot_state(), {}
    model = replace(sc.detector, true_positive_rate=1.0, false_positive_rate=1.0)
    assert world.detect(scene, robot, model, sc.intrinsics, np.random.default_rng(0), frames) is None
    assert list(frames.values()) == [(None, None, None)]
    assert rays_cast == {} and formed == []
    _, ids = world.render_depth_ids(scene, robot, sc.intrinsics, model.max_range)
    assert (ids == world.WALL_HIT).any() and sum(rays_cast.values()) > 0 and formed


# A level camera at (x0, 3, 1) looking along +x has camera Z = x - x0
# exactly; pitched, Z = 0 exactly on the line x = x0, z = 1.  Dyadic bounds
# keep each AABB's corners exact.  A face in a plane of constant Z makes
# edges with equal end Z, whose crossing terms are x/0 or, in the clip plane
# itself, 0/0: they must stay out of the rectangle.  Seen from its own corner,
# or as a slab 1e-9 m thick, a box shows no hit.
_EPS = world._CLIP_Z
_SLAB = SceneObject(ObjectKind.SUPPORT, (2 * _EPS, 3.5, 0.75), BoxShape((2 * _EPS, 0.5, 0.5)))
_ON_THE_PLANE = {
    "face": (2.0, 0.0, 0.0, _box((2.0, 2.5, 0.5), (3.0, 3.5, 0.875)), True),
    "edge below": (2.0, -0.3, 0.0, _box((2.0, 3.25, 0.5), (2.5, 3.75, 1.0)), True),
    "edge above": (2.0, 0.3, 0.0, _box((2.0, 2.25, 1.0), (2.5, 2.75, 1.5)), True),
    "corner at the camera": (2.0, 0.0, 2.0, _box((2.0, 3.0, 1.0), (2.5, 3.5, 1.5)), False),
    "face in the clip plane": (0.0, 0.0, 0.0, _SLAB, False),
}


@pytest.mark.parametrize("where", sorted(_ON_THE_PLANE))
def test_render_matches_reference_with_a_box_on_the_camera_plane(where):
    x, pitch, heading, box, seen = _ON_THE_PLANE[where]
    robot = _robot_at(x, 3.0, heading, pitch=pitch)
    cam = robot.world_from_camera()
    z = ((np.where(world._CORNER_BITS, *box.aabb()[::-1]) - cam.translation) @ cam.rotation)[:, 2]
    assert np.isin(z, (0.0, _EPS)).any()
    _, ids = _render_matches_reference([box], robot)
    assert (ids == 0).any() == seen


def test_render_keeps_a_box_a_hair_in_front_of_the_camera():
    # A 1.6 cm stick end-on, 1.6 cm ahead: its near face spans most of the image.
    stick = _box((2.015625, 2.9921875, 0.9921875), (2.125, 3.0078125, 1.0078125))
    _, ids = _render_matches_reference([stick], _robot_at(2.0, 3.0, 0.0))
    assert ids[60, 20] == 0 and ids[10, 80] == 0 and ids[60, 5] != 0


def test_render_clips_a_window_at_the_image_border(rays_cast):
    corner = _box((2.9, 3.4, 1.3), (3.2, 3.8, 1.6))  # off the top-left corner
    wide = _box((3.5, 1.0, 0.2), (3.7, 5.0, 0.4))  # wider than the image
    _, ids = _render_matches_reference([corner, wide], _robot_at(2.0, 3.0, 0.0))
    assert ids[0, 0] == 0 and (ids == 0).sum() < ids.size // 4
    assert (ids[:, 0] == 1).any() and (ids[:, -1] == 1).any()
    assert 0 < rays_cast[tuple(corner.aabb()[0].tolist())] < ids.size // 4
    assert 0 < rays_cast[tuple(wide.aabb()[0].tolist())] < ids.size // 2


@pytest.mark.parametrize("offset", [-1e-9, 0.0, 1e-9])
def test_render_box_edge_within_one_pixel_of_a_ray(offset):
    # The near face's -y edge, the box's rightmost point in the image, lies on
    # (or a hair beside) the rays of column 100.
    edge = 3.0 - (100 - INTR.cx) / INTR.fx + offset
    box = _box((3.0, edge, 0.5), (3.4, edge + 0.3, 1.5))
    lo, _ = box.aabb()
    assert abs(INTR.cx + INTR.fx * (3.0 - lo[1]) / (lo[0] - 2.0) - 100.0) < 1e-6
    _, ids = _render_matches_reference([box], _robot_at(2.0, 3.0, 0.0))
    assert (ids[:, 99] == 0).any() and not (ids[:, 101] == 0).any()


# ---------------------------------------------------------------------------
# Detector


def _bottle_scene(bottle_x=3.0):
    g = _open_room()
    bottle = SceneObject(
        kind=ObjectKind.PILL_BOTTLE,
        position=(bottle_x, 3.0, 0.9),
        shape=CylinderShape(radius=0.04, height=0.16),
    )
    cup = SceneObject(
        kind=ObjectKind.DISTRACTOR,
        position=(3.0, 2.4, 0.9),
        shape=CylinderShape(radius=0.05, height=0.12),
    )
    return Scene(grid=g, objects=[bottle, cup])


def test_detect_true_positive_with_certain_detector():
    scene = _bottle_scene()
    robot = _robot_at(2.0, 3.0, 0.0)
    model = DetectorModel(true_positive_rate=1.0, false_positive_rate=0.0,
                          box_noise_sigma=0.0, max_range=4.0)
    det = world.detect(scene, robot, model, INTR, np.random.default_rng(0), {})
    assert det is not None
    assert det.true_kind is ObjectKind.PILL_BOTTLE
    # With zero box noise the box must cover the principal pixel region.
    assert det.box.u_min <= 80 <= det.box.u_max


def test_detect_miss_when_bottle_absent_and_fp_zero():
    scene = _bottle_scene()
    scene = Scene(grid=scene.grid, objects=scene.objects[1:])  # drop bottle
    robot = _robot_at(2.0, 3.0, 0.0)
    model = DetectorModel(true_positive_rate=1.0, false_positive_rate=0.0,
                          box_noise_sigma=0.0, max_range=4.0)
    assert world.detect(scene, robot, model, INTR, np.random.default_rng(0), {}) is None


def test_detect_false_positive_claims_bottle_on_distractor():
    scene = _bottle_scene()
    scene = Scene(grid=scene.grid, objects=scene.objects[1:])  # only the cup
    robot = _robot_at(2.0, 2.4, 0.0)  # face the cup
    model = DetectorModel(true_positive_rate=1.0, false_positive_rate=1.0,
                          box_noise_sigma=0.0, max_range=4.0)
    det = world.detect(scene, robot, model, INTR, np.random.default_rng(0), {})
    assert det is not None
    assert det.true_kind is ObjectKind.DISTRACTOR


def test_detect_supports_are_never_candidates():
    g = _open_room()
    table = SceneObject(
        kind=ObjectKind.SUPPORT,
        position=(3.0, 3.0, 0.4),
        shape=BoxShape(size=(1.0, 1.0, 0.8)),
    )
    scene = Scene(grid=g, objects=[table])
    robot = _robot_at(1.5, 3.0, 0.0)
    model = DetectorModel(true_positive_rate=1.0, false_positive_rate=1.0,
                          box_noise_sigma=0.0, max_range=5.0)
    assert world.detect(scene, robot, model, INTR, np.random.default_rng(1), {}) is None


def test_detect_is_deterministic_per_rng_state():
    scene = _bottle_scene()
    robot = _robot_at(2.0, 3.0, 0.0)
    model = DetectorModel(true_positive_rate=0.6, false_positive_rate=0.1,
                          box_noise_sigma=1.0, max_range=4.0)
    outcomes = []
    for _ in range(2):
        rng = np.random.default_rng(42)
        outcomes.append([world.detect(scene, robot, model, INTR, rng, {}) for _ in range(10)])
    for a, b in zip(*outcomes):
        assert (a is None) == (b is None)
        if a is not None:
            assert (a.box, a.true_kind) == (b.box, b.true_kind)


# ---------------------------------------------------------------------------
# Detector-frame memo


@pytest.fixture
def renders(monkeypatch):
    """Counts world.render_depth_ids calls; detect looks it up on the module."""
    calls = []
    real = world.render_depth_ids

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(world, "render_depth_ids", counted)
    return calls


def _same_detection(a, b):
    assert (a is None) == (b is None)
    if a is not None:
        assert (a.box, a.true_kind) == (b.box, b.true_kind)
        assert a.depth.tobytes() == b.depth.tobytes()


def test_warm_frames_equal_cold_renders_at_every_lab_roi():
    from aansim.scenario import load_scenario

    warm_sc = load_scenario(SCENARIO_PATH)
    cold_sc = load_scenario(SCENARIO_PATH)
    # Fires on every frame that shows the bottle or a distractor, with box noise.
    model = replace(warm_sc.detector, true_positive_rate=1.0, false_positive_rate=1.0)
    blind = replace(model, true_positive_rate=0.0, false_positive_rate=0.0)
    intr = warm_sc.intrinsics
    kinds = []
    for k in range(len(warm_sc.bottle_candidates)):
        warm, cold = warm_sc.build_scene(k), cold_sc.build_scene(k)
        for roi in warm_sc.rois:
            x, y, heading = roi.pose
            for pan in world.PAN_SCHEDULE:
                robot = replace(warm_sc.robot_state(), x=x, y=y, heading=heading, head_pan=pan)
                # A memo entry that has never fired, then its first fire, then a kept depth.
                rng = np.random.default_rng(0)
                assert world.detect(warm, robot, blind, intr, rng, warm.frames) is None
                for _ in range(2):
                    rng_warm, rng_cold = np.random.default_rng(k), np.random.default_rng(k)
                    got = world.detect(warm, robot, model, intr, rng_warm, warm.frames)
                    want = world.detect(cold, robot, model, intr, rng_cold, {})
                    _same_detection(got, want)
                    assert rng_warm.bit_generator.state == rng_cold.bit_generator.state
                kinds.append(None if got is None else got.true_kind)
    assert cold.frames == {}
    assert {None, ObjectKind.PILL_BOTTLE} <= set(kinds)


def test_frames_are_keyed_by_mount_value_not_identity(renders):
    scene = _bottle_scene()
    model = DetectorModel(true_positive_rate=0.0, false_positive_rate=0.0,
                          box_noise_sigma=0.0, max_range=4.0)
    frames = {}
    for robot in (_robot_at(2.0, 3.0, 0.0), _robot_at(2.0, 3.0, 0.0)):
        assert world.detect(scene, robot, model, INTR, np.random.default_rng(0), frames) is None
    assert len(frames) == 1 and len(renders) == 1
    tilted = _robot_at(2.0, 3.0, 0.0, pitch=math.radians(-10.0))
    world.detect(scene, tilted, model, INTR, np.random.default_rng(0), frames)
    assert len(frames) == 2 and len(renders) == 2


def test_warm_frame_renders_on_first_fire_then_keeps_its_depth(renders):
    scene = _bottle_scene()
    robot = _robot_at(2.0, 3.0, 0.0)
    blind = DetectorModel(true_positive_rate=0.0, false_positive_rate=0.0,
                          box_noise_sigma=0.0, max_range=4.0)
    model = replace(blind, true_positive_rate=1.0)
    frames = {}
    assert world.detect(scene, robot, blind, INTR, np.random.default_rng(0), frames) is None
    [(bottle_box, _, depth)] = frames.values()
    assert bottle_box is not None and depth is None  # a frame that never fired keeps no depth
    first = world.detect(scene, robot, model, INTR, np.random.default_rng(0), frames)
    assert len(renders) == 2
    again = world.detect(scene, robot, model, INTR, np.random.default_rng(0), frames)
    assert len(renders) == 2
    assert again.depth is first.depth is list(frames.values())[0][2]
    assert not first.depth.flags.writeable
    _same_detection(first, world.detect(scene, robot, model, INTR, np.random.default_rng(0), {}))


def test_a_fired_frame_keeps_the_reference_depth(lab_scenario, renders):
    sc = lab_scenario
    scene = Scene(grid=sc.grid, objects=sc.build_scene(0).objects)
    x, y, heading = sc.rois[0].pose
    model = replace(sc.detector, true_positive_rate=1.0)
    frames, fired = {}, []
    for pan in world.PAN_SCHEDULE:
        robot = replace(sc.robot_state(), x=x, y=y, heading=heading, head_pan=pan)
        det = world.detect(scene, robot, model, sc.intrinsics, np.random.default_rng(0), frames)
        if det is not None:
            fired.append((robot, det))
    assert fired and len(renders) == len(frames) + len(fired)
    for robot, det in fired:
        assert det.true_kind is ObjectKind.PILL_BOTTLE
        want, _ = render_reference(scene, robot, sc.intrinsics, model.max_range)
        assert det.depth.tobytes() == want.tobytes()


def test_default_pan_schedule_values():
    sched = world.PAN_SCHEDULE
    assert [round(math.degrees(p)) for p in sched] == [-30, -15, 0, 15, 30]


# ---------------------------------------------------------------------------
# Kinematics


def test_unicycle_arc_against_fine_euler():
    x, y, h, v, w, t = 0.3, -0.2, 0.7, 0.4, 0.9, 1.7
    n = 200_000
    ex, ey, eh = x, y, h
    dt = t / n
    for _ in range(n):
        ex += v * math.cos(eh) * dt
        ey += v * math.sin(eh) * dt
        eh += w * dt
    ax, ay, ah = world.unicycle_arc(x, y, h, v, w, t)
    assert ax == pytest.approx(ex, abs=1e-5)
    assert ay == pytest.approx(ey, abs=1e-5)
    assert ah == pytest.approx(eh, abs=1e-9)


def test_unicycle_arc_full_circle_returns_home():
    x, y, h = world.unicycle_arc(1.0, 2.0, 0.5, 0.8, 0.8, 2.0 * math.pi / 0.8)
    assert x == pytest.approx(1.0, abs=1e-9)
    assert y == pytest.approx(2.0, abs=1e-9)
    assert h == pytest.approx(0.5 + 2.0 * math.pi)


def test_unicycle_arc_straight_line():
    x, y, h = world.unicycle_arc(0.0, 0.0, math.pi / 2, 1.0, 0.0, 2.5)
    assert x == pytest.approx(0.0, abs=1e-12)
    assert y == pytest.approx(2.5)
    assert h == math.pi / 2


def test_step_kinematics_stops_at_wall():
    g = _open_room()
    robot = RobotState(x=5.5, y=3.0, heading=0.0, camera_mount=CAMERA_MOUNT)  # wall face at x=5.9
    moved, hit = world.step_kinematics(robot, (2.0, 0.0), 1.0, g)
    assert hit
    assert moved.v == 0.0 and moved.omega == 0.0
    assert moved.x < 5.9
    assert moved.x > 5.5  # it did advance up to the wall


def test_step_kinematics_free_motion_matches_arc():
    g = _open_room()
    robot = RobotState(x=3.0, y=3.0, heading=0.3, camera_mount=CAMERA_MOUNT)
    moved, hit = world.step_kinematics(robot, (0.4, 0.5), 0.1, g)
    assert not hit
    ex, ey, eh = world.unicycle_arc(3.0, 3.0, 0.3, 0.4, 0.5, 0.1)
    assert moved.x == pytest.approx(ex, abs=1e-12)
    assert moved.y == pytest.approx(ey, abs=1e-12)
    assert moved.heading == pytest.approx(eh, abs=1e-12)
