"""Hole localization from masked depth points over synthetic scenes.

A parameterized mask oracle stands in for a segmentation network: it samples
the rim of a chosen hole, filters by visibility, and corrupts the points
with seeded noise and dropout. The geometric back half is real: plane fit,
in-plane algebraic circle fit with one Gauss-Newton refinement, and a
detection-range sweep harness.

Conventions: mask points live in the camera frame (+z forward); plane
normals are oriented toward the camera (n . centroid <= 0) and the plane is
{x : n . x + d = 0}, so d is the positive offset for a plane in front of
the camera.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .se3 import Pose, from_rotation_vector, quat_matrix_wxyz, quat_mul_wxyz
from .trajectory import ParseError, _brief_repr, json_floats, json_pose, pose_json, require_keys

__all__ = [
    "HoleSpec",
    "BarScene",
    "CameraModel",
    "MaskSample",
    "HoleEstimate",
    "NotDetectable",
    "check_visible",
    "synthesize_mask",
    "fit_plane",
    "fit_circle3d",
    "hole_in_world",
    "detection_range_sweep",
]

_TOP_FACE_TOL = 1e-9
_LENS = ("fx", "fy", "cx", "cy")  # CameraModel's float intrinsics


class NotDetectable(RuntimeError):
    """The requested hole cannot be seen from the camera."""


@dataclass(frozen=True)
class HoleSpec:
    """One candidate hole: center offset in the bar frame, radius, and the
    outward axis of the bore."""

    offset: np.ndarray
    radius: float
    axis: np.ndarray

    def __post_init__(self) -> None:
        off = np.array(self.offset, dtype=float).reshape(3)
        ax = np.array(self.axis, dtype=float).reshape(3)
        n = float(np.linalg.norm(ax))
        if n < 1e-12:
            raise ValueError("hole axis must be nonzero")
        ax = ax / n
        if self.radius <= 0:
            raise ValueError("hole radius must be positive")
        off.flags.writeable = False
        ax.flags.writeable = False
        object.__setattr__(self, "offset", off)
        object.__setattr__(self, "axis", ax)


@dataclass(frozen=True)
class BarScene:
    """A bar with through-holes on its top face, posed in the world."""

    bar: Pose
    dims: np.ndarray
    holes: tuple[HoleSpec, ...]

    def __post_init__(self) -> None:
        dims = np.array(self.dims, dtype=float).reshape(3)
        if np.any(dims <= 0):
            raise ValueError("bar dimensions must be positive")
        dims.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        holes = tuple(self.holes)
        if not holes:
            raise ValueError("scene needs at least one hole")
        half = dims / 2.0
        for i, h in enumerate(holes):
            if abs(h.offset[2] - half[2]) > _TOP_FACE_TOL:
                raise ValueError(f"hole {i} center is not on the bar top face")
            if abs(h.offset[0]) > half[0] or abs(h.offset[1]) > half[1]:
                raise ValueError(f"hole {i} center is outside the bar footprint")
        object.__setattr__(self, "holes", holes)

    def hole_center_world(self, hole_id: int) -> np.ndarray:
        return self.bar.transform_point(self.holes[hole_id].offset)

    def hole_axis_world(self, hole_id: int) -> np.ndarray:
        return self.bar.transform_direction(self.holes[hole_id].axis)

    def yawed(self, yaw: float) -> "BarScene":
        """The same bar spun by yaw about the world vertical through its
        center (the stationary-gripper placement degree of freedom)."""
        spin = from_rotation_vector([0.0, 0.0, yaw])
        return BarScene(
            Pose(self.bar.position, quat_mul_wxyz(spin, self.bar.orientation)),
            self.dims,
            self.holes,
        )


@dataclass(frozen=True)
class CameraModel:
    """Ideal pinhole camera, +z forward, pixels (u, v) with u along +x."""

    pose: Pose
    fx: float = 615.0
    fy: float = 615.0
    cx: float = 320.0
    cy: float = 240.0
    width: int = 640
    height: int = 480

    def __post_init__(self) -> None:
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("resolution must be positive")

    def world_to_camera(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float).reshape(-1, 3)
        inv = self.pose.inverse()
        return pts @ quat_matrix_wxyz(inv.orientation).T + inv.position

    def visible(self, points_cam: np.ndarray) -> np.ndarray:
        """Boolean mask: in front of the camera and inside the image."""
        pts = np.asarray(points_cam, dtype=float).reshape(-1, 3)
        z = pts[:, 2]
        ok = z > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            u = self.fx * pts[:, 0] / z + self.cx
            v = self.fy * pts[:, 1] / z + self.cy
        ok &= (u >= 0) & (u < self.width) & (v >= 0) & (v < self.height)
        return ok


def _orthobasis(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    e = np.zeros(3)
    e[int(np.argmin(np.abs(n)))] = 1.0
    u = np.cross(n, e)
    u = u / np.linalg.norm(u)
    return u, np.cross(n, u)


@dataclass(frozen=True)
class MaskSample:
    """Depth points attributed to one hole's rim, camera frame."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.array(self.points, dtype=float).reshape(-1, 3)
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)


@dataclass(frozen=True)
class HoleEstimate:
    """Fitted hole: center and axis in the camera frame, radius, and the
    rms 3-D distance of the points from the fitted circle."""

    center: np.ndarray
    axis: np.ndarray
    radius: float
    rms: float

    def __post_init__(self) -> None:
        c = np.array(self.center, dtype=float).reshape(3)
        a = np.array(self.axis, dtype=float).reshape(3)
        n = float(np.linalg.norm(a))
        if abs(n - 1.0) > 1e-9:
            raise ValueError("axis must be unit-norm")
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.rms < 0:
            raise ValueError("rms must be >= 0")
        c.flags.writeable = False
        a.flags.writeable = False
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "axis", a)


def check_visible(scene: BarScene, cam: CameraModel, hole_id: int) -> None:
    """Raise NotDetectable unless the hole's center lies in the camera
    frustum and its rim faces the camera."""
    center_w = scene.hole_center_world(hole_id)
    center_cam = cam.world_to_camera(center_w)[0]
    if not bool(cam.visible(center_cam[None, :])[0]):
        raise NotDetectable(f"hole {hole_id} not detectable: center outside frustum")
    if float(np.dot(scene.hole_axis_world(hole_id), cam.pose.position - center_w)) <= 0:
        raise NotDetectable(f"hole {hole_id} not detectable: back-facing")


def _check_corruption(noise_sigma: float, dropout: float) -> None:
    """The mask corruption rule: a noise sigma of at least 0 and a dropout
    in [0, 1), nan rejected in both."""
    if not noise_sigma >= 0:
        raise ValueError("noise sigma must be >= 0")
    if not 0 <= dropout < 1:
        raise ValueError("dropout must be in [0, 1)")


def synthesize_mask(
    scene: BarScene,
    cam: CameraModel,
    hole_id: int,
    noise_sigma: float = 0.0,
    dropout: float = 0.0,
    seed: int = 0,
    n_points: int = 200,
) -> MaskSample:
    """Oracle mask for one hole: rim points in the camera frame.

    Pipeline order is fixed: sample the true rim, drop invisible points,
    add seeded Gaussian noise, then apply dropout (keeping
    round(n * (1 - dropout)) points).
    """
    if not 0 <= hole_id < len(scene.holes):
        raise ValueError(f"hole id {_brief_repr(hole_id)} out of range")
    _check_corruption(noise_sigma, dropout)
    if n_points < 3:
        raise ValueError("need at least 3 rim points")

    check_visible(scene, cam, hole_id)
    center_w = scene.hole_center_world(hole_id)
    axis_w = scene.hole_axis_world(hole_id)
    u, v = _orthobasis(axis_w)
    ang = 2.0 * math.pi * np.arange(n_points) / n_points
    radius = scene.holes[hole_id].radius
    rim_w = center_w + radius * (np.outer(np.cos(ang), u) + np.outer(np.sin(ang), v))
    pts = cam.world_to_camera(rim_w)
    pts = pts[cam.visible(pts)]

    rng = np.random.default_rng(seed)
    if noise_sigma > 0 and len(pts):
        pts = pts + rng.normal(scale=noise_sigma, size=pts.shape)
    if dropout > 0 and len(pts):
        keep = int(round(len(pts) * (1.0 - dropout)))
        idx = np.sort(rng.choice(len(pts), size=keep, replace=False))
        pts = pts[idx]
    return MaskSample(pts)


def fit_plane(points: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Least-squares plane (normal, offset, rms) with the normal oriented
    toward the camera at the origin; the plane is {x : n . x + d = 0}."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if len(pts) < 3:
        raise ValueError("need at least 3 points to fit a plane")
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    cov = centered.T @ centered
    evals, evecs = np.linalg.eigh(cov)
    if evals[1] <= 1e-12 * max(evals[2], 1e-300):
        raise ValueError("degenerate plane fit: points are collinear")
    normal = evecs[:, 0]
    if float(np.dot(normal, centroid)) > 0:
        normal = -normal
    d = -float(np.dot(normal, centroid))
    rms = float(np.sqrt(np.mean((centered @ normal) ** 2)))
    return normal, d, rms


def _kasa_circle(xi: np.ndarray, eta: np.ndarray) -> tuple[float, float, float]:
    a = np.column_stack([xi, eta, np.ones_like(xi)])
    b = xi * xi + eta * eta
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    cx, cy = sol[0] / 2.0, sol[1] / 2.0
    r2 = sol[2] + cx * cx + cy * cy
    return cx, cy, math.sqrt(max(r2, 0.0))


def _arc_coverage(xi: np.ndarray, eta: np.ndarray, cx: float, cy: float) -> float:
    ang = np.sort(np.arctan2(eta - cy, xi - cx))
    gaps = np.diff(ang)
    wrap = ang[0] + 2.0 * math.pi - ang[-1]
    return 2.0 * math.pi - max(float(gaps.max(initial=0.0)), wrap)


def fit_circle3d(sample: MaskSample) -> HoleEstimate:
    """Plane fit, in-plane Kasa circle fit, one Gauss-Newton refinement."""
    pts = sample.points
    if len(pts) < 3:
        raise ValueError("need at least 3 points to fit a circle")
    normal, d, _ = fit_plane(pts)
    centroid = pts.mean(axis=0)
    u, v = _orthobasis(normal)
    rel = pts - centroid
    xi = rel @ u
    eta = rel @ v
    cx, cy, radius = _kasa_circle(xi, eta)

    coverage = _arc_coverage(xi, eta, cx, cy)
    if coverage < math.pi / 2.0:
        raise ValueError(
            f"arc coverage {math.degrees(coverage):.1f} deg is below the 90 deg minimum"
        )

    dx = xi - cx
    dy = eta - cy
    rho = np.sqrt(dx * dx + dy * dy)
    rho = np.maximum(rho, 1e-300)
    jac = np.column_stack([-dx / rho, -dy / rho, -np.ones_like(rho)])
    res = rho - radius
    step, *_ = np.linalg.lstsq(jac, -res, rcond=None)
    cx, cy, radius = cx + step[0], cy + step[1], radius + step[2]

    center = centroid + cx * u + cy * v
    dx = xi - cx
    dy = eta - cy
    rho = np.sqrt(dx * dx + dy * dy)
    w = pts @ normal + d
    rms = float(np.sqrt(np.mean((rho - radius) ** 2 + w * w)))
    return HoleEstimate(center=center, axis=normal, radius=float(radius), rms=rms)


def hole_in_world(est: HoleEstimate, cam: CameraModel) -> HoleEstimate:
    """A camera-frame fit carried into the world frame by the camera pose."""
    center, axis = cam.pose.transform_point(est.center), cam.pose.transform_direction(est.axis)
    return HoleEstimate(center, axis, est.radius, est.rms)


def detection_range_sweep(
    scene: BarScene,
    cam: CameraModel,
    yaw_start: float,
    yaw_stop: float,
    step: float,
    tolerance: float = 1e-3,
    noise_sigma: float = 0.0,
    dropout: float = 0.0,
    seed: int = 0,
) -> tuple[tuple[tuple[float, int, bool, float, float], ...], dict[int, tuple[tuple[float, float], ...]]]:
    """Evaluate detectability on a yaw grid and return (rows, per-hole
    maximal contiguous detectable intervals). A row is one (yaw, hole)
    evaluation: ``(yaw, hole_id, detected, center_err_m, radius_err_m)``.

    Each (yaw, hole) cell gets its own sub-seed, so results are independent
    of evaluation order.
    """
    if seed < 0:
        raise ValueError(f"seed must be at least 0, got {_brief_repr(seed)}")
    if step <= 0:
        raise ValueError("step must be positive")
    _check_corruption(noise_sigma, dropout)
    if yaw_stop < yaw_start:
        raise ValueError("empty yaw range")
    count = int(math.floor((yaw_stop - yaw_start) / step + 1e-9)) + 1
    yaws = yaw_start + step * np.arange(count)

    rows = []
    detected_grid = np.zeros((count, len(scene.holes)), dtype=bool)
    for i, yaw in enumerate(yaws):
        turned = scene.yawed(float(yaw))
        for j in range(len(scene.holes)):
            sub_seed = seed * 1000003 + i * len(scene.holes) + j
            center_err = math.nan
            radius_err = math.nan
            detected = False
            try:
                mask = synthesize_mask(turned, cam, j, noise_sigma, dropout, sub_seed)
                est = fit_circle3d(mask)
            except (NotDetectable, ValueError):
                pass
            else:
                center = hole_in_world(est, cam).center
                center_err = float(np.linalg.norm(center - turned.hole_center_world(j)))
                radius_err = abs(est.radius - turned.holes[j].radius)
                detected = center_err <= tolerance
            detected_grid[i, j] = detected
            rows.append((float(yaw), j, detected, center_err, radius_err))

    intervals: dict[int, tuple[tuple[float, float], ...]] = {}
    for j in range(len(scene.holes)):
        spans: list[tuple[float, float]] = []
        run_start = None
        for i in range(count):
            if detected_grid[i, j] and run_start is None:
                run_start = yaws[i]
            elif not detected_grid[i, j] and run_start is not None:
                spans.append((float(run_start), float(yaws[i - 1])))
                run_start = None
        if run_start is not None:
            spans.append((float(run_start), float(yaws[-1])))
        intervals[j] = tuple(spans)
    return tuple(rows), intervals


def scene_to_dict(scene: BarScene, cam: CameraModel) -> dict:
    return {
        "bar": {
            **pose_json(scene.bar),
            "dims": scene.dims.tolist(),
            "holes": [
                {"offset": h.offset.tolist(), "radius": float(h.radius), "axis": h.axis.tolist()}
                for h in scene.holes
            ],
        },
        "camera": {
            **pose_json(cam.pose),
            **{key: float(getattr(cam, key)) for key in _LENS},
            "width": int(cam.width),
            "height": int(cam.height),
        },
    }


def scene_from_dict(data: dict, path: str = "<scene>") -> tuple[BarScene, CameraModel]:
    """The scene and camera a parsed JSON document describes; a malformed
    one is a ParseError naming the offending key."""
    try:
        require_keys(data, ("bar", "camera"), "scene")
        bar = require_keys(data["bar"], ("position", "orientation", "dims", "holes"), "scene.bar")
        if not isinstance(bar["holes"], list):
            raise ValueError("scene.bar.holes must be a list")
        holes = []
        for k, h in enumerate(bar["holes"]):
            where = f"scene.bar.holes[{k}]"
            require_keys(h, ("offset", "radius", "axis"), where)
            offset, axis = json_floats(h, "offset", (3,), where), json_floats(h, "axis", (3,), where)
            holes.append(HoleSpec(offset, json_floats(h, "radius", (), where), axis))
        scene = BarScene(json_pose(bar, "scene.bar"), json_floats(bar, "dims", (3,), "scene.bar"), tuple(holes))
        camera_keys = ("position", "orientation", *_LENS, "width", "height")
        c = require_keys(data["camera"], camera_keys, "scene.camera")
        for key in ("width", "height"):
            if isinstance(c[key], bool) or not isinstance(c[key], int):
                raise ValueError(f"scene.camera.{key} must be an integer")
        lens = {key: json_floats(c, key, (), "scene.camera") for key in _LENS}
        cam = CameraModel(json_pose(c, "scene.camera"), **lens, width=c["width"], height=c["height"])
    except ValueError as exc:
        raise ParseError(path, 0, "scene", str(exc)) from None
    return scene, cam
