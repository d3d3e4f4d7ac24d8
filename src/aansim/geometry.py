"""Camera geometry: depth back-projection, foreground masks and deictic
pointing angles.

Conventions used throughout the package:

* Pixel coordinates are (u, v) with u the column index (rightward) and v the
  row index (downward).  A depth image is a float64 array of shape
  (height, width), indexed ``depth[v, u]``.
* The camera frame is right-handed with X right, Y down, Z along the optical
  axis.  A depth value is the Z coordinate of the nearest surface in meters;
  0 marks an invalid pixel (no return).
* The robot base frame is right-handed with X forward, Y left, Z up.
* Angles are radians everywhere inside the package; degrees appear only at
  the CLI and config boundary.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

logger = logging.getLogger(__name__)

# Length below which a pointing direction counts as zero.
ZERO_DIRECTION_TOL = 1e-9

# Half-width of the depth band kept around the median box depth when
# extracting a foreground mask, in meters.  Chosen to span a hand-held bottle
# while rejecting shelf/wall returns behind it.
DEFAULT_BAND_HALFWIDTH = 0.15


class GeometryError(Exception):
    """Base class for geometry failures."""


class EmptyBox(GeometryError):
    """A bounding box contains no valid depth pixels."""


class ZeroDirection(GeometryError):
    """A pointing direction of (near-)zero length was requested."""


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics. Focal lengths and principal point in pixels.

    Field metadata ``lo``/``hi`` are the scenario loader's bounds.
    """

    fx: float = field(metadata={"lo": 1e-6})
    fy: float = field(metadata={"lo": 1e-6})
    cx: float
    cy: float
    width: int = field(metadata={"lo": 1})
    height: int = field(metadata={"lo": 1})

    def __post_init__(self) -> None:
        if not (0.0 <= self.cx < self.width):
            raise ValueError(f"cx={self.cx} outside [0, {self.width})")
        if not (0.0 <= self.cy < self.height):
            raise ValueError(f"cy={self.cy} outside [0, {self.height})")


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned pixel box with inclusive bounds."""

    u_min: int
    v_min: int
    u_max: int
    v_max: int

    @property
    def center(self) -> tuple[int, int]:
        """Integer center pixel (u, v)."""
        return ((self.u_min + self.u_max) // 2, (self.v_min + self.v_max) // 2)

    def clipped(self, width: int, height: int) -> "BoundingBox":
        return BoundingBox(
            max(0, min(self.u_min, width - 1)),
            max(0, min(self.v_min, height - 1)),
            max(0, min(self.u_max, width - 1)),
            max(0, min(self.v_max, height - 1)),
        )


@dataclass
class ForegroundMask:
    """Connected pixels kept by depth-band foreground extraction.

    ``pixels`` is an (N, 2) int array of (u, v), sorted by u, then v.
    ``center_fallback`` is flagged when the box center pixel did not land in
    the retained component and the largest component was used instead.
    """

    pixels: np.ndarray
    center_fallback: bool = False


@dataclass(frozen=True)
class RigidTransform:
    """Rigid transform p_out = R @ p_in + t, from a float64 (3, 3) rotation R
    and a float64 (3,) t, taken as given: ``from_yaw``, ``compose`` and
    ``world.standard_camera_mount`` build each R from single-angle rotations."""

    rotation: np.ndarray
    translation: np.ndarray

    @classmethod
    def from_yaw(cls, yaw: float, translation=(0.0, 0.0, 0.0)) -> "RigidTransform":
        """Rotation about +Z by ``yaw`` plus a translation."""
        c, s = math.cos(yaw), math.sin(yaw)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        return cls(rot, np.asarray(translation, dtype=np.float64))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform an (N, 3) array or a single 3-vector."""
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 1:
            return self.rotation @ pts + self.translation
        return pts @ self.rotation.T + self.translation

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """Transform equal to applying ``other`` first, then ``self``."""
        return RigidTransform(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )


@dataclass(frozen=True)
class PointingCommand:
    """Deictic pointing: yaw/pitch of the arm ray toward a target.

    yaw is measured in the horizontal plane from +X (atan2 range, normalized
    to (-pi, pi]); pitch is the elevation from the horizontal plane, in
    [-pi/2, pi/2].  ``direction`` is the unit vector toward the target.
    """

    yaw: float
    pitch: float
    direction: np.ndarray


def backproject_pixels(
    pixels: np.ndarray, depths: np.ndarray, intrinsics: CameraIntrinsics
) -> np.ndarray:
    """Back-project an (N, 2) array of (u, v) pixels at ``depths`` into the camera frame.

    X = (u - cx) * z / fx, Y = (v - cy) * z / fy, Z = z.  Every z is positive,
    as at the pixels of a foreground mask.
    """
    pix = np.asarray(pixels, dtype=np.float64).reshape(-1, 2)
    z = np.asarray(depths, dtype=np.float64).reshape(-1)
    x = (pix[:, 0] - intrinsics.cx) * z / intrinsics.fx
    y = (pix[:, 1] - intrinsics.cy) * z / intrinsics.fy
    return np.column_stack([x, y, z])


def _component(left: set, seed: int, step: int) -> list[int]:
    """Remove from ``left`` and return the pixels 4-connected to ``seed``, as
    flat indices v * step + u whose rows end in a column that ``left`` lacks."""
    left.remove(seed)
    out = [seed]
    for p in out:  # also visits the pixels appended on the way
        for q in (p - 1, p + 1, p - step, p + step):
            if q in left:
                left.remove(q)
                out.append(q)
    return out


def extract_foreground(depth: np.ndarray, box: BoundingBox) -> ForegroundMask:
    """Segment the foreground object inside a detection box, from ``depth``,
    the depth of the box's pixels (``depth[0, 0]`` is pixel (u_min, v_min)).

    Takes the (lower) median depth z_m of the valid pixels in the box, keeps
    pixels with |depth - z_m| <= DEFAULT_BAND_HALFWIDTH, and returns the
    4-connected component containing the box center.  If the center pixel is
    not part of the retained set, falls back to the largest component and
    logs a warning.

    Raises EmptyBox when the box holds no valid depth pixels.
    """
    valid = depth > 0.0
    if not valid.any():
        raise EmptyBox(f"no valid depth pixels inside {box}")

    vals = np.sort(depth[valid], kind="stable")
    z_m = float(vals[(len(vals) - 1) // 2])  # lower median, no interpolation

    retained = valid & (np.abs(depth - z_m) <= DEFAULT_BAND_HALFWIDTH)
    # Flat row-major indices, so min() is the first; the median pixel is one.
    step = retained.shape[1] + 1
    vs, us = np.nonzero(retained)
    left = set((vs * step + us).tolist())
    cu, cv = box.center
    center = (cv - box.v_min) * step + cu - box.u_min
    center_fallback = center not in left
    if center_fallback:
        # Raster order of first pixels, as labels number them; max keeps the first tie.
        components = []
        while left:
            components.append(_component(left, min(left), step))
        pixels = max(components, key=len)
        logger.warning(
            "foreground extraction: box center (%d, %d) missed the depth band; "
            "falling back to largest component (%d px)",
            cu, cv, len(pixels),
        )
    else:
        pixels = _component(left, center, step)

    mask = np.zeros((retained.shape[0], step), dtype=bool)
    mask.flat[pixels] = True
    return ForegroundMask(
        pixels=np.argwhere(mask.T) + (box.u_min, box.v_min),
        center_fallback=center_fallback,
    )


def normalize_angle(angle: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    wrapped = math.remainder(angle, 2.0 * math.pi)
    if wrapped <= -math.pi:
        wrapped += 2.0 * math.pi
    return wrapped


def pointing_angles(target, arm_origin) -> PointingCommand:
    """Yaw and pitch of the ray from ``arm_origin`` to ``target``.

    yaw = atan2(dy, dx), pitch = atan2(dz, hypot(dx, dy)), both from the
    direction vector d = target - arm_origin in the same frame.

    Raises ZeroDirection when |d| < 1e-9.
    """
    origin = np.asarray(arm_origin, dtype=np.float64).reshape(3)
    tgt = np.asarray(target, dtype=np.float64).reshape(3)
    d = tgt - origin
    norm = float(np.linalg.norm(d))
    if norm < ZERO_DIRECTION_TOL:
        raise ZeroDirection(f"pointing target coincides with arm origin: |d|={norm}")
    yaw = normalize_angle(math.atan2(d[1], d[0]))
    pitch = math.atan2(d[2], math.hypot(d[0], d[1]))
    return PointingCommand(yaw=yaw, pitch=pitch, direction=d / norm)


@dataclass
class TargetEstimate:
    """Output of the detection-to-pointing localization pipeline."""

    target_base: np.ndarray
    mask: ForegroundMask


def localize_target(
    depth: np.ndarray,
    box: BoundingBox,
    intrinsics: CameraIntrinsics,
    base_from_camera: RigidTransform,
) -> TargetEstimate:
    """Full pipeline from a detection box and the depth of its pixels, as
    ``extract_foreground`` takes them, to a base-frame pointing target.

    Extracts the foreground mask, back-projects it, transforms the cloud to
    the base frame, and returns its centroid as the pointing target.
    """
    mask = extract_foreground(depth, box)
    pix = mask.pixels
    depths = depth[pix[:, 1] - box.v_min, pix[:, 0] - box.u_min]
    cloud = base_from_camera.apply(backproject_pixels(pix, depths, intrinsics))
    return TargetEstimate(target_base=cloud.mean(axis=0), mask=mask)
