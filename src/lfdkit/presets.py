"""Factories for synthetic worlds and demonstrations used by tests, scripts,
and the CLI, which builds its scene and trial scenario from a config here."""

from __future__ import annotations

import math
from dataclasses import asdict

import numpy as np

from .assembly import AssemblyScenario
from .config import RunConfig, TrialSection
from .dmp import fit_pose_dmp, grid_steps
from .ktc import AdmittanceGains, NativeDrive, VirtualHuman, native_drive, proposed_gains
from .se3 import Pose, from_rotation_vector, from_rotation_vector_rows, quat_mul_rows
from .se3 import relative_rotation_vector_rows
from .trajectory import Trajectory
from .vision import BarScene, CameraModel, HoleSpec, scene_from_dict

__all__ = [
    "make_smooth_demo",
    "demo_pose_waypoints",
    "default_bar_scene",
    "default_camera",
    "default_scenario",
    "scene_from_config",
    "scenario_from_config",
    "default_teach_setup",
]


def _clamped_spline(knots: np.ndarray, values: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The cubic spline through ``values`` (k, d) at ``knots`` (k,) with zero
    end slopes, evaluated at ``at``.

    The knot slopes m solve the k x k system of second-derivative continuity
    (de Boor, *A Practical Guide to Splines*, ch. IV); each piece is then the
    cubic Hermite interpolant of its end values and slopes, summed as a power
    series about its left knot.
    """
    k = len(knots)
    dx = np.diff(knots)
    slope = np.diff(values, axis=0) / dx[:, None]
    system = np.eye(k)
    rhs = np.zeros_like(values)
    for i in range(1, k - 1):
        system[i, i - 1: i + 2] = dx[i], 2.0 * (dx[i - 1] + dx[i]), dx[i - 1]
        rhs[i] = 3.0 * (dx[i] * slope[i - 1] + dx[i - 1] * slope[i])
    m = np.linalg.solve(system, rhs)
    cubic = (m[:-1] + m[1:] - 2.0 * slope) / dx[:, None]
    c3 = cubic / dx[:, None]
    c2 = (slope - m[:-1]) / dx[:, None] - cubic
    i = np.clip(np.searchsorted(knots, at, side="right") - 1, 0, k - 2)
    d = (at - knots[i])[:, None]
    return values[i] + m[i] * d + c2[i] * (d * d) + c3[i] * (d * d * d)


def make_smooth_demo(
    waypoints: np.ndarray,
    duration: float,
    dt: float = 1e-3,
    orientations: list[tuple[float, float, float, float]] | None = None,
) -> Trajectory:
    """Clamped cubic spline through the waypoints, traversed under a smooth
    step time warp so the path starts and ends fully at rest (zero velocity
    and zero acceleration), as a hand-guided demonstration does.

    Orientation waypoints (optional) are splined in the tangent space of the
    first one, so they must stay within a half-turn of it.
    """
    wp = np.asarray(waypoints, dtype=float).reshape(-1, 3)
    k = len(wp)
    if k < 2:
        raise ValueError("need at least 2 waypoints")
    if duration <= 0 or dt <= 0:
        raise ValueError("duration and dt must be positive")
    knots = np.linspace(0.0, duration, k)
    steps = max(grid_steps(duration, dt, f"a {duration:.6g} s demonstration at dt = {dt:.6g}"), 1)
    times = np.arange(steps + 1) * (duration / steps)
    u = times / duration
    warped = duration * (10.0 - (15.0 - 6.0 * u) * u) * u**3
    pos = _clamped_spline(knots, wp, warped)

    if orientations is None:
        quats = np.tile([1.0, 0.0, 0.0, 0.0], (len(times), 1))
    else:
        if len(orientations) != k:
            raise ValueError("orientation waypoints must match position waypoints")
        wq = np.array(orientations, dtype=float)
        rotvecs = _clamped_spline(knots, relative_rotation_vector_rows(wq, wq[:1]), warped)
        quats = quat_mul_rows(from_rotation_vector_rows(rotvecs), wq[0])
    return Trajectory(times, pos, quats)


def demo_pose_waypoints(seed: int = 0, scale: float = 0.12):
    """A reproducible, gently curved 5-waypoint 6-DoF path for tests/scripts.

    Single lateral sway, no direction reversals: a 50-basis fit tracks it to
    about 1% of the span, so the default span keeps round-trip error near 1 mm.
    """
    rng = np.random.default_rng(seed)
    base = np.array(
        [
            [0.00, 0.000, 0.00],
            [0.07, 0.020, 0.04],
            [0.13, 0.032, 0.06],
            [0.19, 0.020, 0.04],
            [0.25, 0.000, 0.00],
        ]
    )
    f = scale / 0.25
    wp = base * f + rng.normal(scale=0.0015 * f, size=(5, 3))
    tilts = rng.normal(scale=0.10, size=(5, 3))
    tilts[0] = 0.0
    quats = [from_rotation_vector(t) for t in tilts]
    return wp, quats


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


def default_teach_setup(
    controller: str, seed: int = 0, scale: float = 0.12
) -> tuple[VirtualHuman, AdmittanceGains | NativeDrive]:
    """Guided-hand operator plus the matching controller for a teaching run.

    The same waypoint path is used for both controllers; the operator pushes
    harder against the native drive (it takes real force to backdrive) and
    gently against the proposed admittance.
    """
    wp, quats = demo_pose_waypoints(seed=seed, scale=scale)
    poses = tuple(Pose(p, q) for p, q in zip(wp, quats))
    if controller == "proposed":
        human = VirtualHuman(waypoints=poses, force_saturation=12.0, torque_saturation=1.0)
        return human, proposed_gains()
    if controller == "native":
        human = VirtualHuman(waypoints=poses, force_saturation=60.0, torque_saturation=6.0)
        return human, native_drive()
    raise ValueError(f"controller must be 'proposed' or 'native', got {controller!r}")


def scene_from_config(cfg: RunConfig, path: str = "<config>") -> tuple[BarScene, CameraModel]:
    """The config's inline scene and camera, or the default desk scene;
    ``path`` names the config file in a ParseError."""
    if cfg.scene is None:
        return default_bar_scene(), default_camera()
    return scene_from_dict(cfg.scene, path)


def scenario_from_config(cfg: RunConfig) -> AssemblyScenario:
    """Runnable trial setup: the primitive is fit from the smooth preset
    demonstration with the config's dmp section, and the arm starts beside
    the bar.

    The default yaw range stays inside +-60 deg, where every hole of the
    default scene is fully visible with margin (the outer ones leave the
    frustum near +-70 deg).
    """
    scene, cam = scene_from_config(cfg)
    wp, quats = demo_pose_waypoints(seed=0)
    t = cfg.trial
    demo = make_smooth_demo(wp, duration=t.demo_duration, orientations=quats)
    limit = math.radians(t.yaw_limit_deg)
    return AssemblyScenario(
        scene=scene,
        cam=cam,
        dmp=fit_pose_dmp(demo, **asdict(cfg.dmp)),
        initial_pose=Pose([-0.06, -0.10, 0.25]),
        hole_id=t.hole_id,
        yaw=None if t.yaw_deg is None else math.radians(t.yaw_deg),
        yaw_range=(-limit, limit),
        clearance=t.clearance,
        tilt_tol=math.radians(t.tilt_tol_deg),
        required_depth=t.required_depth,
        standoff=t.standoff,
        plan_overtravel=t.plan_overtravel,
        noise_sigma=t.noise_sigma,
        dropout=t.dropout,
        mask_points=t.mask_points,
        seed=cfg.seed,
    )


def default_scenario(noise_sigma: float = 5e-4, seed: int = 0) -> AssemblyScenario:
    """:func:`scenario_from_config` on the default config at this vision
    noise and seed."""
    return scenario_from_config(RunConfig(seed=seed, trial=TrialSection(noise_sigma=noise_sigma)))
