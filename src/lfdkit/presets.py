"""Factories for synthetic worlds and demonstrations used by tests, scripts,
and the CLI, which builds its trial scenario from a config here."""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from .assembly import AssemblyScenario, TrialSection, parse_events
from .config import RunConfig
from .dmp import fit_pose_dmp
from .se3 import Pose, chart_rows, from_rotation_vector, unchart_rows
from .trajectory import Trajectory, _positive, grid_steps, read_text
from .vision import BarScene, CameraModel, HoleSpec

__all__ = [
    "make_smooth_demo",
    "demo_pose_waypoints",
    "default_bar_scene",
    "default_camera",
    "default_scenario",
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
    _positive("duration", duration)
    _positive("dt", dt)
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
        quats = unchart_rows(_clamped_spline(knots, chart_rows(wq, wq[:1]), warped), wq[0])
    return Trajectory(times, pos, quats)


# the preset path spans 0.12 m end to end: the 0.25 m base path of
# demo_pose_waypoints, scaled
_PATH_SCALE = 0.12 / 0.25


def demo_pose_waypoints(seed: int = 0):
    """A reproducible, gently curved 5-waypoint 6-DoF path for tests/scripts,
    0.12 m from end to end.

    Single lateral sway, no direction reversals: a 50-basis fit tracks it to
    about 1% of the span, which keeps round-trip error near 1 mm.
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
    wp = base * _PATH_SCALE + rng.normal(scale=0.0015 * _PATH_SCALE, size=(5, 3))
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


def default_teach_setup(controller: str, seed: int = 0) -> tuple[tuple[Pose, ...], str]:
    """The waypoint poses and controller of a teaching run, as
    :func:`ktc.simulate_demonstration` takes them.

    The same waypoint path is used for both controllers; the operator pushes
    harder against the native drive (it takes real force to backdrive) and
    gently against the proposed admittance (``ktc.CONTROLLERS``).
    """
    wp, quats = demo_pose_waypoints(seed=seed)
    return tuple(Pose(p, q) for p, q in zip(wp, quats)), controller


def scenario_from_config(cfg: RunConfig) -> AssemblyScenario:
    """Runnable trial setup: the primitive is fit from the smooth preset
    demonstration with the config's dmp section, and the arm starts beside
    the bar. A trial walks the scenario's ``events``, parsed here from the
    script that ``trial.events`` names; that field is only the document's
    path to it.

    The default yaw range stays inside +-60 deg, where every hole of the
    default scene is fully visible with margin (the outer ones leave the
    frustum near +-70 deg).
    """
    wp, quats = demo_pose_waypoints(seed=0)
    demo = make_smooth_demo(wp, duration=cfg.trial.demo_duration, orientations=quats)
    dmp = fit_pose_dmp(demo, **asdict(cfg.dmp))
    path = cfg.trial.events
    events = None if path is None else parse_events(read_text(path), path)
    return AssemblyScenario(*cfg.scene_and_camera, dmp, Pose([-0.06, -0.10, 0.25]), cfg.trial, cfg.seed, events)


def default_scenario(noise_sigma: float = 5e-4, seed: int = 0) -> AssemblyScenario:
    """:func:`scenario_from_config` on the default config at this vision
    noise and seed."""
    return scenario_from_config(RunConfig(seed=seed, trial=TrialSection(noise_sigma=noise_sigma)))
