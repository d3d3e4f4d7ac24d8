import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from aansim import geometry, world
from aansim.geometry import (
    BoundingBox,
    CameraIntrinsics,
    EmptyBox,
    RigidTransform,
    ZeroDirection,
)

from oracles import BehindCamera, foreground_reference, project

INTR = CameraIntrinsics(fx=130.0, fy=130.0, cx=79.5, cy=59.5, width=160, height=120)


# ---------------------------------------------------------------------------
# Back-projection / projection


def test_backproject_known_point():
    [(x, y, z)] = geometry.backproject_pixels(np.array([[100, 70]]), np.array([2.0]), INTR)
    assert x == pytest.approx((100 - 79.5) * 2.0 / 130.0, abs=1e-15)
    assert y == pytest.approx((70 - 59.5) * 2.0 / 130.0, abs=1e-15)
    assert z == 2.0


def test_project_rejects_points_behind_camera():
    with pytest.raises(BehindCamera):
        project((0.1, 0.1, 0.0), INTR)
    with pytest.raises(BehindCamera):
        project((0.1, 0.1, -2.0), INTR)


def test_project_backproject_round_trip_bulk():
    rng = np.random.default_rng(20240811)
    n = 10_000
    us = rng.integers(0, INTR.width, n)
    vs = rng.integers(0, INTR.height, n)
    zs = rng.uniform(0.05, 10.0, n)
    pts = geometry.backproject_pixels(np.column_stack([us, vs]), zs, INTR)
    for k in range(n):
        u, v = project(pts[k], INTR)
        assert abs(u - us[k]) <= 1e-9
        assert abs(v - vs[k]) <= 1e-9


@given(
    u=st.integers(0, 159),
    v=st.integers(0, 119),
    z=st.floats(1e-3, 50.0, allow_nan=False),
)
def test_round_trip_property(u, v, z):
    [point] = geometry.backproject_pixels(np.array([[u, v]]), np.array([z]), INTR)
    uu, vv = project(point, INTR)
    assert math.isclose(uu, u, abs_tol=1e-9)
    assert math.isclose(vv, v, abs_tol=1e-9)


# ---------------------------------------------------------------------------
# Foreground extraction


def _depth_with_blob(background=3.0, blob=1.0):
    d = np.full((40, 50), background)
    d[15:25, 20:30] = blob  # 10x10 blob
    return d


def _pixel_set(mask):
    return set(map(tuple, mask.pixels.tolist()))


def test_extract_foreground_band_and_component():
    depth = _depth_with_blob()
    box = BoundingBox(19, 14, 30, 25)  # blob-dominant, with a background rim
    mask = geometry.extract_foreground(depth, box)
    assert _pixel_set(mask) == {(u, v) for v in range(15, 25) for u in range(20, 30)}
    assert mask.pixels.tolist() == sorted(mask.pixels.tolist())  # by u, then v
    assert not mask.center_fallback


def test_extract_foreground_lower_median():
    # Even count of valid pixels: the lower of the two middle values is used.
    # The band around the lower median (2.0) keeps only pixel u = 1, the box
    # center; the upper median (3.0) would keep u = 2 and need the fallback.
    d = np.zeros((1, 4))
    d[0] = [1.0, 2.0, 3.0, 4.0]
    mask = geometry.extract_foreground(d, BoundingBox(0, 0, 3, 0))
    assert _pixel_set(mask) == {(1, 0)}
    assert not mask.center_fallback


def test_extract_foreground_center_fallback():
    # Center pixel is invalid (0), so the largest in-band component wins.
    d = _depth_with_blob()
    d[19:21, 24:26] = 0.0  # punch out the box center
    box = BoundingBox(20, 15, 29, 24)  # centered on the blob
    mask = geometry.extract_foreground(d, box)
    assert mask.center_fallback
    assert len(mask.pixels) == 100 - 4


def test_extract_foreground_center_component_wins():
    d = np.zeros((21, 41))  # invalid background
    d[8:13, 16:25] = 1.0  # center blob, contains box center (20, 10)
    d[1:20, 30:40] = 1.1  # bigger blob in the same band
    box = BoundingBox(0, 0, 40, 20)
    mask = geometry.extract_foreground(d, box)
    assert not mask.center_fallback
    assert _pixel_set(mask) == {(u, v) for v in range(8, 13) for u in range(16, 25)}


def test_extract_foreground_empty_box():
    with pytest.raises(EmptyBox):
        geometry.extract_foreground(np.zeros((10, 10)), BoundingBox(2, 2, 7, 7))


def test_foreground_connectivity_is_4_not_8():
    # Two diagonal pixels must land in different components.
    d = np.zeros((5, 5))
    d[2, 2] = 1.0
    d[3, 3] = 1.0
    mask = geometry.extract_foreground(d, BoundingBox(0, 0, 4, 4))
    assert _pixel_set(mask) == {(2, 2)}


def test_extract_foreground_matches_label_reference():
    # Random masks of 1-40 px a side, fill 0.2-0.9, in-band and out-of-band
    # depths, and boxes that may reach past the image edge.
    rng = np.random.default_rng(25)
    fallbacks = 0
    for _ in range(3000):
        h, w = (int(n) for n in rng.integers(1, 41, size=2))
        fill = rng.uniform(0.2, 0.9)
        d = np.where(rng.random((h, w)) < fill, rng.choice([1.0, 1.1, 1.4], size=(h, w)), 0.0)
        if not d.any():
            continue
        u0, u1 = sorted(int(u) for u in rng.integers(-3, w + 3, size=2))
        v0, v1 = sorted(int(v) for v in rng.integers(-3, h + 3, size=2))
        box = BoundingBox(u0, v0, u1, v1)
        c = box.clipped(w, h)
        if not d[c.v_min : c.v_max + 1, c.u_min : c.u_max + 1].any():
            continue
        mask = geometry.extract_foreground(d, box)
        pixels, fallback = foreground_reference(d, box)
        assert (mask.pixels.tolist(), mask.center_fallback) == (pixels, fallback)
        fallbacks += fallback
    assert fallbacks > 300


def test_extract_foreground_fallback_tie_takes_the_first_in_row_major_order():
    # Two 2-pixel components and an empty center (3, 1): the one whose first
    # pixel comes first row by row wins, though its column is the larger.
    d = np.zeros((3, 7))
    d[0, 5:7] = 1.0
    d[1, 0:2] = 1.0
    box = BoundingBox(0, 0, 6, 2)
    mask = geometry.extract_foreground(d, box)
    assert mask.center_fallback
    assert mask.pixels.tolist() == [[5, 0], [6, 0]]
    assert foreground_reference(d, box) == ([[5, 0], [6, 0]], True)


# ---------------------------------------------------------------------------
# Rigid transforms


@given(
    yaw1=st.floats(-math.pi, math.pi),
    yaw2=st.floats(-math.pi, math.pi),
    tx=st.floats(-5, 5),
    ty=st.floats(-5, 5),
    pitch=st.floats(-math.pi / 2, math.pi / 2),
)
def test_compose_inverse_round_trip(yaw1, yaw2, tx, ty, pitch):
    a = RigidTransform.from_yaw(yaw1, (tx, ty, 0.3))
    b = RigidTransform.from_yaw(yaw2, (0.1, -0.2, 0.0))
    ab = a.compose(b)
    pts = np.array([[0.3, -0.7, 1.1], [0.0, 0.0, 0.0]])
    direct = ab.apply(pts)
    nested = a.apply(b.apply(pts))
    assert np.allclose(direct, nested, atol=1e-12)
    back = (direct - ab.translation) @ ab.rotation  # R^T (p - t), row-wise
    assert np.allclose(back, pts, atol=1e-9)
    # Every transform is built like a head-sweep camera pose: a proper
    # rotation in float64 arrays of the shapes world.detect's memo keys on.
    cam = ab.compose(world.standard_camera_mount((0.1, 0.0, 1.2), pitch))
    for t in (a, b, ab, cam):
        assert t.rotation.dtype == t.translation.dtype == np.float64
        assert t.rotation.shape == (3, 3) and t.translation.shape == (3,)
        assert np.abs(t.rotation.T @ t.rotation - np.eye(3)).max() <= 1e-9
        assert abs(np.linalg.det(t.rotation) - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# Angles and pointing


def test_normalize_angle_range_and_values():
    assert geometry.normalize_angle(0.0) == 0.0
    assert geometry.normalize_angle(math.pi) == pytest.approx(math.pi)
    assert geometry.normalize_angle(-math.pi) == pytest.approx(math.pi)
    assert geometry.normalize_angle(3 * math.pi) == pytest.approx(math.pi)
    assert geometry.normalize_angle(2 * math.pi) == pytest.approx(0.0, abs=1e-12)


@given(st.floats(-100.0, 100.0))
def test_normalize_angle_property(angle):
    w = geometry.normalize_angle(angle)
    assert -math.pi < w <= math.pi
    # Equivalent modulo 2*pi.
    assert math.isclose(math.cos(w), math.cos(angle), abs_tol=1e-9)
    assert math.isclose(math.sin(w), math.sin(angle), abs_tol=1e-9)


def test_pointing_angles_oracle_values():
    cmd = geometry.pointing_angles((1.0, 1.0, 0.8 + math.sqrt(2.0)), (0.0, 0.0, 0.8))
    assert cmd.yaw == pytest.approx(math.pi / 4, abs=1e-9)
    assert cmd.pitch == pytest.approx(math.pi / 4, abs=1e-9)

    cmd = geometry.pointing_angles((0.0, -2.0, 0.8), (0.0, 0.0, 0.8))
    assert cmd.yaw == pytest.approx(-math.pi / 2, abs=1e-9)
    assert cmd.pitch == pytest.approx(0.0, abs=1e-9)


@given(
    dx=st.floats(-3, 3),
    dy=st.floats(-3, 3),
    dz=st.floats(-2, 2),
)
@example(dx=-1.0, dy=-2.220446049250313e-16, dz=0.0)  # atan2 gives -pi here
def test_pointing_angles_match_direct_formula(dx, dy, dz):
    origin = np.array([0.2, -0.1, 0.8])
    target = origin + np.array([dx, dy, dz])
    ex, ey, ez = target - origin  # effective delta after float rounding
    norm = math.sqrt(ex * ex + ey * ey + ez * ez)
    if norm < 1e-6:
        return
    cmd = geometry.pointing_angles(target, origin)
    # yaw is wrapped to (-pi, pi], so atan2's -pi comes back as pi.
    assert -math.pi < cmd.yaw <= math.pi
    assert math.remainder(cmd.yaw - math.atan2(ey, ex), 2.0 * math.pi) == pytest.approx(
        0.0, abs=1e-9
    )
    assert cmd.pitch == pytest.approx(math.atan2(ez, math.hypot(ex, ey)), abs=1e-9)
    assert np.allclose(cmd.direction * norm, [ex, ey, ez], atol=1e-9)


def test_pointing_angles_zero_direction():
    with pytest.raises(ZeroDirection):
        geometry.pointing_angles((0.0, 0.0, 0.8), (0.0, 0.0, 0.8))


# ---------------------------------------------------------------------------
# Full localization pipeline


def test_localize_target_synthetic_wall_patch():
    # A flat wall 2 m ahead filling the box; camera level with the base.
    depth = np.full((120, 160), 2.0)
    box = BoundingBox(60, 40, 100, 80)
    base_from_cam = RigidTransform(
        np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]]),
        np.array([0.0, 0.0, 1.0]),
    )
    est = geometry.localize_target(depth, box, INTR, base_from_cam)
    # Target: straight ahead 2 m, about camera height.
    assert est.target_base[0] == pytest.approx(2.0, abs=1e-6)
    assert abs(est.target_base[1]) < 0.05
    assert not est.mask.center_fallback
