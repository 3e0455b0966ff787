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

from .se3 import Pose, _cross, from_rotation_vector, quat_matrix_wxyz, quat_mul_wxyz
from .trajectory import ParseError, _at_least, _brief_repr, _check_seed, _finite, _positive, json_floats, json_pose
from .trajectory import pose_json, require_keys

__all__ = [
    "HoleSpec",
    "BarScene",
    "CameraModel",
    "default_bar_scene",
    "default_camera",
    "MaskSample",
    "HoleEstimate",
    "NotDetectable",
    "check_visible",
    "MAX_MASK_POINTS",
    "MAX_NOISE_SIGMA",
    "synthesize_mask",
    "fit_circle3d",
    "locate_hole",
    "hole_errors",
    "MAX_SWEEP_YAWS",
    "sweep_yaw_count",
    "detection_range_sweep",
]

_TOP_FACE_TOL = 1e-9
MAX_MASK_POINTS = 100_000  # rim points one mask may sample
# m of rim point noise: thrice the default camera's height above the bar and
# 250 radii of its holes, so no mask that noisy places a hole; the fit's sums
# of squares stay far from overflow, which starts near 1e150 m
MAX_NOISE_SIGMA = 1.0
# yaws in a sweep grid, each of which runs every hole (10k yaws is a 0.016 deg
# step over the default 160 deg)
MAX_SWEEP_YAWS = 10_000
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
        _finite("hole offset", tuple(off.tolist()))
        _finite("hole axis", tuple(ax.tolist()))
        n = math.hypot(*ax.tolist())  # scaled, so an axis near the float range does not overflow
        if n < 1e-12:
            raise ValueError("hole axis must be nonzero")
        ax = ax / n
        _positive("hole radius", self.radius)
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
        if not np.all(dims > 0):  # NaN fails too
            raise ValueError("bar dimensions must be positive")
        _finite("bar dimensions", tuple(dims.tolist()))
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
        center (the stationary-gripper placement degree of freedom). A yaw
        of a full turn or more is first reduced into [-pi, pi]; a non-finite
        one is left to :func:`from_rotation_vector` to reject."""
        if 2.0 * math.pi <= abs(yaw) < math.inf:
            yaw = math.remainder(yaw, 2.0 * math.pi)
        spin = from_rotation_vector([0.0, 0.0, yaw])
        return BarScene(
            Pose(self.bar.position, quat_mul_wxyz(spin, self.bar.orientation)),
            self.dims,
            self.holes,
        )


@dataclass(frozen=True)
class CameraModel:
    """Ideal pinhole camera, +z forward, pixels (u, v) with u along +x. Its
    world-to-camera transform is built once, from the pose it is made with,
    so a pose whose inverse is not finite (a position near the float range)
    is refused when the camera is made."""

    pose: Pose
    fx: float = 615.0
    fy: float = 615.0
    cx: float = 320.0
    cy: float = 240.0
    width: int = 640
    height: int = 480

    def __post_init__(self) -> None:
        _positive("focal length fx", self.fx)
        _positive("focal length fy", self.fy)
        _finite("cx", self.cx)
        _finite("cy", self.cy)
        _positive("width", self.width)
        _positive("height", self.height)
        # the transposed rotation and the offset of the inverse pose
        try:
            inv = self.pose.inverse()
        except ValueError as exc:
            raise ValueError(f"camera pose has no finite inverse: {exc}") from None
        object.__setattr__(self, "_to_camera", (quat_matrix_wxyz(inv.orientation).T, inv.position))

    def world_to_camera(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float).reshape(-1, 3)
        rot_t, offset = self._to_camera
        return pts @ rot_t + offset

    def visible(self, points_cam: np.ndarray) -> np.ndarray:
        """Boolean mask: in front of the camera and inside the image."""
        pts = np.asarray(points_cam, dtype=float).reshape(-1, 3)
        z = pts[:, 2]
        ok = z > 0
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # inf is outside the image
            u = self.fx * pts[:, 0] / z + self.cx
            v = self.fy * pts[:, 1] / z + self.cy
        ok &= (u >= 0) & (u < self.width) & (v >= 0) & (v < self.height)
        return ok

    def _sees(self, x: float, y: float, z: float) -> bool:
        """:meth:`visible` of one camera-frame point, on Python floats. The
        lens values become floats as numpy converts them, and the float
        operations are the same, so the answer is the same."""
        lens = (self.fx, self.fy, self.cx, self.cy, self.width, self.height)
        fx, fy, cx, cy, width, height = (float(c) for c in lens)
        if not z > 0:
            return False
        u = fx * x / z + cx
        v = fy * y / z + cy
        return 0 <= u < width and 0 <= v < height


def default_bar_scene() -> BarScene:
    """Desk scene: a 0.30 x 0.05 x 0.02 m bar lying flat with three 4 mm
    holes along its top face, outer ones 0.10 m off center."""
    holes = tuple(
        HoleSpec(offset=[x, 0.0, 0.01], radius=0.004, axis=[0.0, 0.0, 1.0])
        for x in (-0.10, 0.0, 0.10)
    )
    return BarScene(
        bar=Pose([0.0, 0.0, 0.05]),
        dims=[0.30, 0.05, 0.02],
        holes=holes,
    )


def default_camera() -> CameraModel:
    """Overhead camera 0.30 m up, looking straight down (180 deg about x),
    VGA with the usual RGB-D intrinsics."""
    return CameraModel(pose=Pose([0.0, 0.0, 0.30], (0.0, 1.0, 0.0, 0.0)))


def _orthobasis(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    nt = n.tolist()
    e = [0.0, 0.0, 0.0]
    e[int(np.argmin(np.abs(n)))] = 1.0
    u = np.array(_cross(nt, e))
    u = u / np.linalg.norm(u)
    return u, np.array(_cross(nt, u.tolist()))


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
        _finite("center", tuple(c.tolist()))
        n = float(np.linalg.norm(a))
        if not abs(n - 1.0) <= 1e-9:  # NaN fails too
            raise ValueError("axis must be unit-norm")
        _positive("radius", self.radius)
        _at_least("rms", self.rms, 0)
        c.flags.writeable = False
        a.flags.writeable = False
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "axis", a)


def check_visible(scene: BarScene, cam: CameraModel, hole_id: int) -> None:
    """Raise NotDetectable unless the hole's center lies in the camera
    frustum and its rim faces the camera."""
    center_w = scene.hole_center_world(hole_id)
    if not cam._sees(*cam.world_to_camera(center_w)[0].tolist()):
        raise NotDetectable(f"hole {hole_id} not detectable: center outside frustum")
    if float(np.dot(scene.hole_axis_world(hole_id), cam.pose.position - center_w)) <= 0:
        raise NotDetectable(f"hole {hole_id} not detectable: back-facing")


def _check_hole_id(scene: BarScene, hole_id: int) -> None:
    """The hole id rule: an index into the scene's holes."""
    if not 0 <= hole_id < len(scene.holes):
        raise ValueError(f"hole id {_brief_repr(hole_id)} outside the scene's holes 0..{len(scene.holes) - 1}")


def _check_corruption(noise_sigma: float, dropout: float) -> None:
    """The mask corruption rule: a noise sigma in [0, MAX_NOISE_SIGMA] and a
    dropout in [0, 1), NaN and infinity rejected in both."""
    _at_least("noise_sigma", noise_sigma, 0)
    if not noise_sigma <= MAX_NOISE_SIGMA:
        raise ValueError(f"noise_sigma must be at most {MAX_NOISE_SIGMA}, got {noise_sigma!r}")
    _at_least("dropout", dropout, 0)
    if not dropout < 1:
        raise ValueError(f"dropout must be below 1, got {dropout!r}")


def _check_mask_points(n_points: int, *, name: str = "n_points") -> None:
    """The rim point count rule, 3 to MAX_MASK_POINTS, naming the count ``name``."""
    _at_least(name, n_points, 3, MAX_MASK_POINTS)


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
    _check_hole_id(scene, hole_id)
    _check_corruption(noise_sigma, dropout)
    _check_seed(seed)
    _check_mask_points(n_points)

    check_visible(scene, cam, hole_id)
    center_w = scene.hole_center_world(hole_id)
    axis_w = scene.hole_axis_world(hole_id)
    u, v = _orthobasis(axis_w)
    ang = 2.0 * math.pi * np.arange(n_points) / n_points
    radius = scene.holes[hole_id].radius
    rim_w = center_w + radius * (np.cos(ang)[:, None] * u + np.sin(ang)[:, None] * v)
    pts = cam.world_to_camera(rim_w)
    seen = cam.visible(pts)
    if not seen.all():
        pts = pts[seen]

    rng = np.random.default_rng(seed)
    if noise_sigma > 0 and len(pts):
        pts = pts + rng.normal(scale=noise_sigma, size=pts.shape)
    if dropout > 0 and len(pts):
        keep = int(round(len(pts) * (1.0 - dropout)))
        idx = np.sort(rng.choice(len(pts), size=keep, replace=False))
        pts = pts[idx]
    return MaskSample(pts)


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
    """Least-squares plane through the centroid, its normal the axis,
    oriented toward the camera at the origin; in-plane Kasa circle fit; one
    Gauss-Newton refinement. Fewer than 3 points, collinear points or an arc
    under 90 deg are refused."""
    pts = sample.points
    if len(pts) < 3:
        raise ValueError("need at least 3 points to fit a circle")
    centroid = pts.mean(axis=0)
    rel = pts - centroid
    evals, evecs = np.linalg.eigh(rel.T @ rel)
    if evals[1] <= 1e-12 * max(evals[2], 1e-300):
        raise ValueError("degenerate plane fit: points are collinear")
    normal = evecs[:, 0]
    if float(np.dot(normal, centroid)) > 0:
        normal = -normal
    d = -float(np.dot(normal, centroid))
    u, v = _orthobasis(normal)
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


def locate_hole(scene: BarScene, cam: CameraModel, hole_id: int, noise_sigma: float = 0.0, dropout: float = 0.0,
                seed: int = 0, n_points: int = 200) -> HoleEstimate:
    """The world-frame fit of one hole: its seeded :func:`synthesize_mask`,
    fitted by :func:`fit_circle3d` and carried into the world by the camera
    pose. A hole out of view, or a fit that is refused, raises NotDetectable
    with its message; an argument out of range stays a ValueError."""
    mask = synthesize_mask(scene, cam, hole_id, noise_sigma, dropout, seed, n_points)
    try:
        est = fit_circle3d(mask)
    except ValueError as exc:
        raise NotDetectable(str(exc)) from None
    return HoleEstimate(cam.pose.transform_point(est.center), cam.pose.transform_direction(est.axis),
                        est.radius, est.rms)


def hole_errors(est: HoleEstimate, scene: BarScene, hole_id: int) -> tuple[float, float, float]:
    """How far a world-frame fit lies from the scene's true hole: the center
    distance (m), the tilt between the axes (rad) and the radius error (m)."""
    center_err = float(np.linalg.norm(est.center - scene.hole_center_world(hole_id)))
    tilt = math.acos(float(np.clip(est.axis @ scene.hole_axis_world(hole_id), -1.0, 1.0)))
    return center_err, tilt, abs(est.radius - scene.holes[hole_id].radius)


def sweep_yaw_count(yaw_start: float, yaw_stop: float, step: float, step_name: str = "step", *,
                    start_name: str = "yaw_start", stop_name: str = "yaw_stop") -> int:
    """Yaws on the grid ``yaw_start + i * step`` up to ``yaw_stop``, counted
    in float arithmetic and refused past MAX_SWEEP_YAWS before any exists;
    the ``*_name`` arguments name the step and the range ends in the errors."""
    if not all(math.isfinite(v) for v in (yaw_start, yaw_stop, step)):
        raise ValueError(f"yaw range must be finite, got start {yaw_start!r}, stop {yaw_stop!r}, step {step!r}")
    if step <= 0:
        raise ValueError(f"{step_name} must be positive")
    if yaw_stop < yaw_start:
        raise ValueError(f"{stop_name} must be at least {start_name}")
    span = (yaw_stop - yaw_start) / step + 1e-9
    if not span < MAX_SWEEP_YAWS:
        raise ValueError(f"sweep grid of {span + 1:.6g} yaws exceeds {MAX_SWEEP_YAWS}; raise {step_name}")
    return int(span) + 1


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
    _check_seed(seed)
    _check_corruption(noise_sigma, dropout)
    _positive("tolerance", tolerance)
    count = sweep_yaw_count(yaw_start, yaw_stop, step)
    yaws = yaw_start + step * np.arange(count)

    rows = []
    detected_grid = np.zeros((count, len(scene.holes)), dtype=bool)
    for i, yaw in enumerate(yaws):
        turned = scene.yawed(float(yaw))
        for j in range(len(scene.holes)):
            sub_seed = seed * 1000003 + i * len(scene.holes) + j
            try:
                est = locate_hole(turned, cam, j, noise_sigma, dropout, sub_seed)
            except NotDetectable:
                center_err = radius_err = math.nan
                detected = False
            else:
                center_err, _, radius_err = hole_errors(est, turned, j)
                detected = center_err <= tolerance
            detected_grid[i, j] = detected
            rows.append((float(yaw), j, detected, center_err, radius_err))

    # +1 where a hole's run of detected yaws starts, -1 one past where it ends
    edges = np.diff(detected_grid.astype(np.int8), axis=0, prepend=0, append=0)
    intervals = {
        j: tuple((float(yaws[a]), float(yaws[b - 1]))
                 for a, b in zip(np.flatnonzero(edges[:, j] > 0), np.flatnonzero(edges[:, j] < 0)))
        for j in range(len(scene.holes))
    }
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
