"""Admittance-style kinesthetic teaching in simulation: a wrench-to-motion
controller, a position-tracking plant with first-order lag, and a virtual
human guiding the tool along waypoints through a saturating spring-damper
grip.

The controller law per tick is

    x_c = x_r + (K_s^-1 + K_a) * (f - deadband * sign(f))

applied per enabled axis once |f| clears the deadband; rotational axes act
through the quaternion exponential.

The native-drive baseline back-drives an unpowered stiff transmission:
no motion until the force norm clears a 40 N static breakaway, then a weak
response above a lower kinetic level. The static-to-kinetic jump makes the
tool lurch at every breakaway and arrest, which is what the comparison
metrics pick up.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .se3 import Pose, quat_conj_wxyz, quat_exp_wxyz, quat_mul_wxyz, rotation_vector_wxyz, slerp_wxyz
from .trajectory import Trajectory

__all__ = [
    "AdmittanceGains",
    "NativeDrive",
    "VirtualHuman",
    "TeachTimeout",
    "ktc_step",
    "native_drive_step",
    "plant_step",
    "simulate_demonstration",
    "proposed_gains",
    "native_drive",
]


def _vec6(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float).reshape(-1)
    if arr.shape != (6,):
        raise ValueError(f"{name} must have 6 entries")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class AdmittanceGains:
    """Diagonal admittance: k_s_inv in m/N (rad/(N*m) rotationally), k_a in
    m/(N*tick), deadband in N (N*m), and a per-axis enable mask. Axis order
    is (x, y, z, rx, ry, rz)."""

    k_s_inv: np.ndarray
    k_a: np.ndarray
    deadband: np.ndarray
    axis_mask: tuple[bool, bool, bool, bool, bool, bool] = (True,) * 6

    def __post_init__(self) -> None:
        for name in ("k_s_inv", "k_a", "deadband"):
            arr = _vec6(getattr(self, name), name)
            if np.any(arr < 0):
                raise ValueError(f"{name} entries must be >= 0")
            object.__setattr__(self, name, arr)
        mask = tuple(bool(m) for m in self.axis_mask)
        if len(mask) != 6:
            raise ValueError("axis_mask must have 6 entries")
        if not any(mask):
            raise ValueError("at least one axis must be enabled")
        object.__setattr__(self, "axis_mask", mask)

    @cached_property
    def _law(self) -> tuple[tuple[bool, float, float], ...]:
        """Per axis (enabled, total gain, deadband) as plain floats."""
        return tuple(zip(self.axis_mask, (self.k_s_inv + self.k_a).tolist(), self.deadband.tolist()))


def proposed_gains() -> AdmittanceGains:
    """Compliant teaching configuration: light touch, small deadband."""
    return AdmittanceGains(
        k_s_inv=[1.4e-4] * 3 + [1.4e-3] * 3,
        k_a=[0.6e-4] * 3 + [0.6e-3] * 3,
        deadband=[0.5] * 3 + [0.05] * 3,
    )


@dataclass(frozen=True)
class NativeDrive:
    """Back-driven unpowered transmission: isotropic friction on the wrench
    norm with a static breakaway above the kinetic sustaining level, and a
    weak response once moving."""

    gain: float = 3.0e-5
    rot_gain: float = 3.0e-4
    breakaway_force: float = 40.0
    kinetic_force: float = 20.0
    breakaway_torque: float = 4.0
    kinetic_torque: float = 2.0

    def __post_init__(self) -> None:
        if self.gain <= 0 or self.rot_gain <= 0:
            raise ValueError("gains must be positive")
        if not (self.breakaway_force > self.kinetic_force >= 0):
            raise ValueError("need breakaway_force > kinetic_force >= 0")
        if not (self.breakaway_torque > self.kinetic_torque >= 0):
            raise ValueError("need breakaway_torque > kinetic_torque >= 0")


def native_drive() -> NativeDrive:
    return NativeDrive()


def native_drive_step(
    x_r: tuple[float, ...],
    f: tuple[float, ...],
    drive: NativeDrive,
    sliding: bool = False,
    spinning: bool = False,
) -> tuple[tuple[float, ...], bool, bool]:
    """One tick of back-driving the native transmission: the commanded pose
    tuple (as :func:`plant_step` takes) for the reached pose tuple ``x_r`` and
    the measured wrench ``f = (fx, fy, fz, tx, ty, tz)``.

    The friction state (sliding, spinning) is carried by the caller; motion
    starts only above the static threshold but persists down to the kinetic
    one, so velocity jumps at both transitions.
    """
    px, py, pz, *q = x_r
    fx, fy, fz, tx, ty, tz = f
    fn = math.sqrt(fx * fx + fy * fy + fz * fz)
    sliding = fn > (drive.kinetic_force if sliding else drive.breakaway_force)
    if sliding:
        c = drive.gain * (fn - drive.kinetic_force)
        px, py, pz = px + c * (fx / fn), py + c * (fy / fn), pz + c * (fz / fn)
    tn = math.sqrt(tx * tx + ty * ty + tz * tz)
    spinning = tn > (drive.kinetic_torque if spinning else drive.breakaway_torque)
    if spinning:
        c = drive.rot_gain * (tn - drive.kinetic_torque)
        half = (0.5 * (c * (tx / tn)), 0.5 * (c * (ty / tn)), 0.5 * (c * (tz / tn)))
        q = quat_mul_wxyz(quat_exp_wxyz(half), q)
    return (px, py, pz, *q), sliding, spinning


def ktc_step(x_r: tuple[float, ...], f: tuple[float, ...], gains: AdmittanceGains) -> tuple[float, ...]:
    """One tick of the admittance law: the commanded pose tuple (as
    :func:`plant_step` takes) for the reached pose tuple ``x_r`` and the
    measured wrench ``f = (fx, fy, fz, tx, ty, tz)``. Zero (or sub-deadband,
    or masked) wrench commands x_r exactly."""
    d = [
        g * (w - db if w > 0.0 else w + db) if on and abs(w) > db else 0.0
        for w, (on, g, db) in zip(f, gains._law)
    ]
    q = x_r[3:]
    if d[3] != 0.0 or d[4] != 0.0 or d[5] != 0.0:
        q = quat_mul_wxyz(quat_exp_wxyz((0.5 * d[3], 0.5 * d[4], 0.5 * d[5])), q)
    return (x_r[0] + d[0], x_r[1] + d[1], x_r[2] + d[2], *q)


def plant_step(
    x_r: tuple[float, ...], x_c: tuple[float, ...], dt: float, time_constant: float = 0.05
) -> tuple[float, ...]:
    """One tick of the position-controlled robot, a first-order lag from the
    reached state x_r toward the commanded state x_c: the position closes the
    gap by the exact factor 1 - exp(-dt/T), and the orientation moves along
    the geodesic by the same fraction.

    States are float tuples ``(px, py, pz, qw, qx, qy, qz)`` holding a unit
    quaternion as ``Pose.orientation`` holds it; the result is one too."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if time_constant <= 0:
        raise ValueError("time_constant must be positive")
    a = 1.0 - math.exp(-dt / time_constant)
    rx, ry, rz, rw, rqx, rqy, rqz = x_r
    cx, cy, cz, cw, cqx, cqy, cqz = x_c
    if cw == rw and cqx == rqx and cqy == rqy and cqz == rqz:
        # equal command, no motion; skips slerp's renormalization wobble
        q = (rw, rqx, rqy, rqz)
    else:
        q = slerp_wxyz((rw, rqx, rqy, rqz), (cw, cqx, cqy, cqz), a)
    return (rx + a * (cx - rx), ry + a * (cy - ry), rz + a * (cz - rz), *q)


@dataclass(frozen=True)
class VirtualHuman:
    """Reproducible stand-in for the guiding worker.

    A hand point moves along the waypoint sequence with bounded speed and
    acceleration; the tool is coupled to it through a stiff saturating
    spring-damper grip. The hand waits whenever the grip stretch exceeds
    what the saturated force could ever resolve (nobody drags a tool that
    is not following). Waypoints advance on tool position capture;
    orientation follows through the grip torque.
    """

    waypoints: tuple[Pose, ...]
    hand_speed: float = 0.03
    hand_accel: float = 0.08
    hand_rot_speed: float = 0.2
    grip_stiffness: float = 10000.0
    grip_damping: float = 80.0
    force_saturation: float = 12.0
    rot_stiffness: float = 50.0
    rot_damping: float = 1.0
    torque_saturation: float = 1.0
    capture_radius: float = 0.006

    def __post_init__(self) -> None:
        wp = tuple(self.waypoints)
        if not wp:
            raise ValueError("need at least one waypoint")
        object.__setattr__(self, "waypoints", wp)
        for name in ("grip_damping", "rot_damping"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in (
            "hand_speed",
            "hand_accel",
            "hand_rot_speed",
            "grip_stiffness",
            "rot_stiffness",
            "force_saturation",
            "torque_saturation",
            "capture_radius",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @property
    def stretch_limit(self) -> float:
        return 1.5 * self.force_saturation / self.grip_stiffness

    @property
    def rot_stretch_limit(self) -> float:
        return 1.5 * self.torque_saturation / self.rot_stiffness


class TeachTimeout(RuntimeError):
    """Simulation hit max_duration before the final waypoint; carries the
    partial log."""

    def __init__(self, reached: int, total: int, partial: Trajectory) -> None:
        self.reached = reached
        self.total = total
        self.partial = partial
        super().__init__(f"timeout after reaching {reached} of {total} waypoints")


def _log(rows: array) -> Trajectory:
    """The demonstration from its ``t, p, q, wrench`` rows."""
    table = np.frombuffer(rows, dtype=float).reshape(-1, 14)
    return Trajectory(table[:, 0], table[:, 1:4], table[:, 4:8], table[:, 8:])


def simulate_demonstration(
    human: VirtualHuman,
    gains: AdmittanceGains | NativeDrive,
    rate: float = 100.0,
    max_duration: float = 60.0,
    plant_time_constant: float = 0.05,
    force_noise_std: float = 0.0,
    torque_noise_std: float = 0.0,
    seed: int = 0,
) -> Trajectory:
    """Run the teach loop at the control rate and return the logged
    demonstration (poses plus the wrench the human actually applied).

    ``gains`` selects the robot side: an AdmittanceGains runs the proposed
    controller, a NativeDrive back-drives the unpowered transmission.
    Sensor noise, when enabled, perturbs only what the controller sees; the
    log keeps the true applied wrench, so the saturation bound holds on the
    log unconditionally.

    Poses are float tuples ``(px, py, pz, qw, qx, qy, qz)`` as
    :func:`plant_step` takes; orientations use the ``se3`` ``*_wxyz`` kernels.
    """
    if not (rate > 0 and plant_time_constant > 0):
        raise ValueError("rate and plant_time_constant must be positive")
    if not math.isfinite(max_duration * rate):
        raise ValueError("max_duration and rate must be finite")
    h = 1.0 / rate
    rng = np.random.default_rng(seed)
    noisy = force_noise_std > 0 or torque_noise_std > 0
    admittance = isinstance(gains, AdmittanceGains)
    waypoints = [(*p.position.tolist(), *p.orientation) for p in human.waypoints]
    capture = human.capture_radius
    stretch_limit, rot_stretch_limit = human.stretch_limit, human.rot_stretch_limit
    speed, accel_2, accel_h = human.hand_speed, 2.0 * human.hand_accel, human.hand_accel * h
    rot_step = human.hand_rot_speed * h
    k_grip, d_grip, f_sat = human.grip_stiffness, human.grip_damping, human.force_saturation
    k_rot, d_rot, t_sat = human.rot_stiffness, human.rot_damping, human.torque_saturation

    x_r = prev = waypoints[0]
    hx, hy, hz, *hand_q = x_r
    conj_prev = quat_conj_wxyz(hand_q)
    hvx = hvy = hvz = 0.0
    sliding = False
    spinning = False

    rows = array("d")
    target = 0
    k = 0
    n_steps = int(math.ceil(max_duration * rate))

    while True:
        t = k * h
        px, py, pz, *q_r = x_r
        while target < len(waypoints):
            wx, wy, wz = px - waypoints[target][0], py - waypoints[target][1], pz - waypoints[target][2]
            if not math.sqrt(wx * wx + wy * wy + wz * wz) <= capture:
                break
            target += 1
        if target == len(waypoints):
            rows.extend((t, *x_r, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
            break
        if k >= n_steps:
            raise TeachTimeout(target, len(waypoints), _log(rows))

        wx, wy, wz, *goal_q = waypoints[target]
        # hand kinematics: acceleration-bounded velocity toward the goal,
        # trapezoidal approach, full stop while the tool lags too far
        gx, gy, gz = wx - hx, wy - hy, wz - hz
        dist = math.sqrt(gx * gx + gy * gy + gz * gz)
        lx, ly, lz = hx - px, hy - py, hz - pz
        if dist > 0.0 and math.sqrt(lx * lx + ly * ly + lz * lz) < stretch_limit:
            c = min(speed, math.sqrt(accel_2 * dist)) / dist
            dx, dy, dz = gx * c - hvx, gy * c - hvy, gz * c - hvz
        else:  # 0.0 - v, not -v: a zero component stays +0.0
            dx, dy, dz = 0.0 - hvx, 0.0 - hvy, 0.0 - hvz
        dvn = math.sqrt(dx * dx + dy * dy + dz * dz)
        if dvn > 0.0:
            c = min(1.0, accel_h / dvn)
            hvx, hvy, hvz = hvx + dx * c, hvy + dy * c, hvz + dz * c
        hx, hy, hz = hx + hvx * h, hy + hvy * h, hz + hvz * h
        # rotation vectors of a * conj(b), with each conjugate computed once
        conj_r = quat_conj_wxyz(q_r)
        ax, ay, az = rotation_vector_wxyz(quat_mul_wxyz(goal_q, quat_conj_wxyz(hand_q)))
        gap = math.sqrt(ax * ax + ay * ay + az * az)
        ex, ey, ez = rotation_vector_wxyz(quat_mul_wxyz(hand_q, conj_r))
        if gap > 0.0 and math.sqrt(ex * ex + ey * ey + ez * ez) < rot_stretch_limit:
            c = min(rot_step, gap) / gap
            hand_q = quat_mul_wxyz(quat_exp_wxyz((0.5 * (ax * c), 0.5 * (ay * c), 0.5 * (az * c))), hand_q)
            ex, ey, ez = rotation_vector_wxyz(quat_mul_wxyz(hand_q, conj_r))

        # grip: spring-damper from the tool to the hand, saturated in norm
        fx = k_grip * (hx - px) - d_grip * ((px - prev[0]) / h)
        fy = k_grip * (hy - py) - d_grip * ((py - prev[1]) / h)
        fz = k_grip * (hz - pz) - d_grip * ((pz - prev[2]) / h)
        n = math.sqrt(fx * fx + fy * fy + fz * fz)
        if n > f_sat:
            c = f_sat / n
            fx, fy, fz = fx * c, fy * c, fz * c
        ox, oy, oz = rotation_vector_wxyz(quat_mul_wxyz(q_r, conj_prev))
        tx = k_rot * ex - d_rot * (ox / h)
        ty = k_rot * ey - d_rot * (oy / h)
        tz = k_rot * ez - d_rot * (oz / h)
        n = math.sqrt(tx * tx + ty * ty + tz * tz)
        if n > t_sat:
            c = t_sat / n
            tx, ty, tz = tx * c, ty * c, tz * c
        applied = (fx, fy, fz, tx, ty, tz)
        rows.extend((t, *x_r, *applied))

        sensed = applied
        if noisy:
            noise = (
                *rng.normal(scale=force_noise_std, size=3).tolist(),
                *rng.normal(scale=torque_noise_std, size=3).tolist(),
            )
            sensed = tuple(a + b for a, b in zip(applied, noise))
        if admittance:
            x_c = ktc_step(x_r, sensed, gains)
        else:
            x_c, sliding, spinning = native_drive_step(x_r, sensed, gains, sliding, spinning)
        prev, conj_prev = x_r, conj_r
        x_r = plant_step(x_r, x_c, h, plant_time_constant)
        k += 1

    return _log(rows)
