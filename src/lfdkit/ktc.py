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
from dataclasses import dataclass

import numpy as np

from .se3 import (
    Pose,
    UnitQuaternion,
    Wrench,
    from_rotation_vector,
    quat_conj,
    quat_mul,
    rotation_vector,
    slerp_wxyz,
)
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

    @property
    def total_gain(self) -> np.ndarray:
        return self.k_s_inv + self.k_a


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
    x_r: Pose,
    f: Wrench,
    drive: NativeDrive,
    sliding: bool = False,
    spinning: bool = False,
) -> tuple[Pose, bool, bool]:
    """One tick of back-driving the native transmission.

    The friction state (sliding, spinning) is carried by the caller; motion
    starts only above the static threshold but persists down to the kinetic
    one, so velocity jumps at both transitions.
    """
    fn = float(np.linalg.norm(f.force))
    if fn > (drive.kinetic_force if sliding else drive.breakaway_force):
        position = x_r.position + drive.gain * (fn - drive.kinetic_force) * (f.force / fn)
        sliding = True
    else:
        position = x_r.position
        sliding = False
    tn = float(np.linalg.norm(f.torque))
    if tn > (drive.kinetic_torque if spinning else drive.breakaway_torque):
        delta = drive.rot_gain * (tn - drive.kinetic_torque) * (f.torque / tn)
        orientation = quat_mul(from_rotation_vector(delta), x_r.orientation)
        spinning = True
    else:
        orientation = x_r.orientation
        spinning = False
    return Pose(position, orientation), sliding, spinning


def _displacements(wrench6: np.ndarray, gains: AdmittanceGains) -> np.ndarray:
    mask = np.array(gains.axis_mask)
    over = np.abs(wrench6) > gains.deadband
    active = mask & over
    out = np.zeros(6)
    if np.any(active):
        shifted = wrench6 - np.sign(wrench6) * gains.deadband
        out[active] = gains.total_gain[active] * shifted[active]
    return out


def ktc_step(x_r: Pose, f: Wrench, gains: AdmittanceGains) -> Pose:
    """One tick of the admittance law: the commanded pose for the measured
    wrench. Zero (or sub-deadband, or masked) wrench commands x_r exactly."""
    d = _displacements(np.concatenate([f.force, f.torque]), gains)
    position = x_r.position + d[:3]
    if d[3] == 0.0 and d[4] == 0.0 and d[5] == 0.0:
        orientation = x_r.orientation
    else:
        orientation = quat_mul(from_rotation_vector(d[3:]), x_r.orientation)
    return Pose(position, orientation)


def plant_step(
    x_r: tuple[float, ...], x_c: tuple[float, ...], dt: float, time_constant: float = 0.05
) -> tuple[float, ...]:
    """One tick of the position-controlled robot, a first-order lag from the
    reached state x_r toward the commanded state x_c: the position closes the
    gap by the exact factor 1 - exp(-dt/T), and the orientation moves along
    the geodesic by the same fraction.

    States are float tuples ``(px, py, pz, qw, qx, qy, qz)`` holding a unit
    quaternion as ``UnitQuaternion`` stores it; the result is one too."""
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


def _state(pose: Pose) -> tuple[float, ...]:
    q = pose.orientation
    return (*pose.position.tolist(), q.w, q.x, q.y, q.z)


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


def _clip_norm(v: np.ndarray, limit: float) -> np.ndarray:
    n = float(np.linalg.norm(v))
    if n > limit:
        return v * (limit / n)
    return v


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
    """
    if rate <= 0 or plant_time_constant <= 0:
        raise ValueError("rate and plant_time_constant must be positive")
    h = 1.0 / rate
    rng = np.random.default_rng(seed)
    noisy = force_noise_std > 0 or torque_noise_std > 0
    admittance = isinstance(gains, AdmittanceGains)

    x_r = human.waypoints[0]
    prev_pos = hand_pos = x_r.position
    prev_q = hand_q = x_r.orientation
    hand_vel = np.zeros(3)
    sliding = False
    spinning = False

    times: list[float] = []
    poses: list[Pose] = []
    wrenches: list[Wrench] = []
    target = 0
    k = 0
    n_steps = int(math.ceil(max_duration * rate))

    while True:
        t = k * h
        while target < len(human.waypoints) and (
            np.linalg.norm(x_r.position - human.waypoints[target].position) <= human.capture_radius
        ):
            target += 1
        if target == len(human.waypoints):
            times.append(t)
            poses.append(x_r)
            wrenches.append(Wrench.zero())
            break
        if k >= n_steps:
            partial = Trajectory.from_poses(times, poses, wrenches)
            raise TeachTimeout(target, len(human.waypoints), partial)

        goal = human.waypoints[target]
        # hand kinematics: acceleration-bounded velocity toward the goal,
        # trapezoidal approach, full stop while the tool lags too far
        to_goal = goal.position - hand_pos
        dist = float(np.linalg.norm(to_goal))
        if dist > 0.0 and np.linalg.norm(hand_pos - x_r.position) < human.stretch_limit:
            speed = min(human.hand_speed, math.sqrt(2.0 * human.hand_accel * dist))
            desired = to_goal * (speed / dist)
        else:
            desired = np.zeros(3)
        dv = desired - hand_vel
        dvn = float(np.linalg.norm(dv))
        if dvn > 0.0:
            hand_vel = hand_vel + dv * min(1.0, human.hand_accel * h / dvn)
        hand_pos = hand_pos + hand_vel * h
        rot_gap = rotation_vector(quat_mul(goal.orientation, quat_conj(hand_q)))
        gap = float(np.linalg.norm(rot_gap))
        rot_lag = rotation_vector(quat_mul(hand_q, quat_conj(x_r.orientation)))
        if gap > 0.0 and np.linalg.norm(rot_lag) < human.rot_stretch_limit:
            step = min(human.hand_rot_speed * h, gap)
            hand_q = quat_mul(from_rotation_vector(rot_gap * (step / gap)), hand_q)

        v = (x_r.position - prev_pos) / h
        omega = rotation_vector(quat_mul(x_r.orientation, quat_conj(prev_q))) / h
        force = human.grip_stiffness * (hand_pos - x_r.position) - human.grip_damping * v
        rot_err = rotation_vector(quat_mul(hand_q, quat_conj(x_r.orientation)))
        torque = human.rot_stiffness * rot_err - human.rot_damping * omega
        applied = Wrench(
            _clip_norm(force, human.force_saturation),
            _clip_norm(torque, human.torque_saturation),
        )
        times.append(t)
        poses.append(x_r)
        wrenches.append(applied)

        if noisy:
            sensed = Wrench(
                applied.force + rng.normal(scale=force_noise_std, size=3),
                applied.torque + rng.normal(scale=torque_noise_std, size=3),
            )
        else:
            sensed = applied
        if admittance:
            x_c = ktc_step(x_r, sensed, gains)
        else:
            x_c, sliding, spinning = native_drive_step(x_r, sensed, gains, sliding, spinning)
        prev_pos = x_r.position
        prev_q = x_r.orientation
        nxt = plant_step(_state(x_r), _state(x_c), h, plant_time_constant)
        x_r = Pose(nxt[:3], UnitQuaternion.from_unit(*nxt[3:]))
        k += 1

    return Trajectory.from_poses(times, poses, wrenches)
