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

import json
import math
from dataclasses import dataclass

import numpy as np

from .se3 import Pose, UnitQuaternion, from_rotation_vector, quat_mul

__all__ = [
    "HoleSpec",
    "BarScene",
    "CameraModel",
    "MaskSample",
    "HoleEstimate",
    "SweepRow",
    "NotDetectable",
    "check_visible",
    "synthesize_mask",
    "fit_plane",
    "fit_circle3d",
    "detection_range_sweep",
    "save_scene",
    "load_scene",
]

_TOP_FACE_TOL = 1e-9


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
            Pose(self.bar.position, quat_mul(spin, self.bar.orientation)),
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
        return pts @ inv.orientation.as_matrix().T + inv.position

    def camera_to_world(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float).reshape(-1, 3)
        return pts @ self.pose.orientation.as_matrix().T + self.pose.position

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
    hole_id: int
    noise_sigma: float
    dropout: float

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
        raise ValueError(f"hole id {hole_id} out of range")
    if noise_sigma < 0:
        raise ValueError("noise sigma must be >= 0")
    if not 0 <= dropout < 1:
        raise ValueError("dropout must be in [0, 1)")
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
    return MaskSample(points=pts, hole_id=hole_id, noise_sigma=noise_sigma, dropout=dropout)


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


@dataclass(frozen=True)
class SweepRow:
    """One (yaw, hole) evaluation in a detection-range sweep."""

    yaw: float
    hole_id: int
    detected: bool
    center_err_m: float
    radius_err_m: float


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
) -> tuple[tuple[SweepRow, ...], dict[int, tuple[tuple[float, float], ...]]]:
    """Evaluate detectability on a yaw grid and return (rows, per-hole
    maximal contiguous detectable intervals).

    Each (yaw, hole) cell gets its own sub-seed, so results are independent
    of evaluation order.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if yaw_stop < yaw_start:
        raise ValueError("empty yaw range")
    count = int(math.floor((yaw_stop - yaw_start) / step + 1e-9)) + 1
    yaws = yaw_start + step * np.arange(count)

    rows: list[SweepRow] = []
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
                center_world = cam.camera_to_world(est.center)[0]
                center_err = float(np.linalg.norm(center_world - turned.hole_center_world(j)))
                radius_err = abs(est.radius - turned.holes[j].radius)
                detected = center_err <= tolerance
            detected_grid[i, j] = detected
            rows.append(SweepRow(float(yaw), j, detected, center_err, radius_err))

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


def _require_keys(obj: dict, allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ValueError(f"unknown key '{sorted(unknown)[0]}' in {where}")
    missing = allowed - set(obj)
    if missing:
        raise ValueError(f"missing key '{sorted(missing)[0]}' in {where}")


def scene_to_dict(scene: BarScene, cam: CameraModel) -> dict:
    return {
        "bar": {
            "position": [float(x) for x in scene.bar.position],
            "orientation": [float(x) for x in scene.bar.orientation.as_array()],
            "dims": [float(x) for x in scene.dims],
            "holes": [
                {
                    "offset": [float(x) for x in h.offset],
                    "radius": float(h.radius),
                    "axis": [float(x) for x in h.axis],
                }
                for h in scene.holes
            ],
        },
        "camera": {
            "position": [float(x) for x in cam.pose.position],
            "orientation": [float(x) for x in cam.pose.orientation.as_array()],
            "fx": float(cam.fx),
            "fy": float(cam.fy),
            "cx": float(cam.cx),
            "cy": float(cam.cy),
            "width": int(cam.width),
            "height": int(cam.height),
        },
    }


def scene_from_dict(data: dict) -> tuple[BarScene, CameraModel]:
    _require_keys(data, {"bar", "camera"}, "scene")
    bar = data["bar"]
    _require_keys(bar, {"position", "orientation", "dims", "holes"}, "scene.bar")
    holes = []
    for k, h in enumerate(bar["holes"]):
        _require_keys(h, {"offset", "radius", "axis"}, f"scene.bar.holes[{k}]")
        holes.append(HoleSpec(h["offset"], h["radius"], h["axis"]))
    scene = BarScene(
        Pose(bar["position"], UnitQuaternion.from_array(bar["orientation"])),
        bar["dims"],
        tuple(holes),
    )
    c = data["camera"]
    _require_keys(c, {"position", "orientation", "fx", "fy", "cx", "cy", "width", "height"}, "scene.camera")
    cam = CameraModel(
        Pose(c["position"], UnitQuaternion.from_array(c["orientation"])),
        fx=float(c["fx"]),
        fy=float(c["fy"]),
        cx=float(c["cx"]),
        cy=float(c["cy"]),
        width=int(c["width"]),
        height=int(c["height"]),
    )
    return scene, cam


def save_scene(path, scene: BarScene, cam: CameraModel) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(scene_to_dict(scene, cam), fh, indent=2)
        fh.write("\n")


def load_scene(path) -> tuple[BarScene, CameraModel]:
    with open(path, "r", encoding="ascii") as fh:
        return scene_from_dict(json.load(fh))
