"""Admittance-style kinesthetic teaching in simulation: a wrench-to-motion
controller, a position-tracking plant with first-order lag, and a virtual
human guiding the tool along waypoints through a saturating spring-damper
grip.

The controller law per tick is

    x_c = x_r + (K_s^-1 + K_a) * (f - deadband * sign(f))

applied per axis once |f| clears the deadband; rotational axes act
through the quaternion exponential.

The native-drive baseline back-drives an unpowered stiff transmission:
no motion until the force norm clears a 40 N static breakaway, then a weak
response above a lower kinetic level. The static-to-kinetic jump makes the
tool lurch at every breakaway and arrest, which is what the comparison
metrics pick up.

Every parameter is a module constant, the robot's tick (:data:`TEACH_RATE`)
and lag (:data:`PLANT_TIME_CONSTANT`) among them; the controller name is the
one switch, and :data:`CONTROLLERS` maps it to how hard the human grips.
"""

from __future__ import annotations

import math
import struct
from array import array
from typing import Sequence

import numpy as np

from .se3 import Pose, from_rotation_vector, quat_conj_wxyz, quat_mul_wxyz, rotation_vector_wxyz
from .trajectory import Trajectory, _at_least, _positive

__all__ = [
    "CONTROLLERS",
    "MAX_FORCE_NOISE_STD",
    "MAX_TEACH_STEPS",
    "MAX_TORQUE_NOISE_STD",
    "PLANT_TIME_CONSTANT",
    "TEACH_RATE",
    "TeachTimeout",
    "ktc_step",
    "native_drive_step",
    "plant_lag",
    "plant_step",
    "simulate_demonstration",
]

# controller -> the human's (force, torque) grip saturation in N and N*m:
# gentle against the proposed admittance, hard enough to break the native
# drive away
CONTROLLERS = {"proposed": (12.0, 1.0), "native": (60.0, 6.0)}

# proposed admittance per axis (x, y, z, rx, ry, rz): total gain K_s^-1 + K_a
# in m/N (rad/(N*m) rotationally) and deadband in N (N*m)
_GAIN = (1.4e-4 + 0.6e-4,) * 3 + (1.4e-3 + 0.6e-3,) * 3
_DEADBAND = (0.5,) * 3 + (0.05,) * 3

# native drive: isotropic friction on the wrench norm, a static breakaway
# above the kinetic sustaining level, and a weak response once moving
_NATIVE_GAIN = 3.0e-5
_NATIVE_ROT_GAIN = 3.0e-4
_BREAKAWAY_FORCE = 40.0
_KINETIC_FORCE = 20.0
_BREAKAWAY_TORQUE = 4.0
_KINETIC_TORQUE = 2.0

# virtual human: hand speed (m/s), acceleration (m/s^2) and turn rate
# (rad/s); grip spring (N/m, N*m/rad) and damper (N*s/m, N*m*s/rad); a
# waypoint counts as reached when the tool is within the capture radius (m)
_HAND_SPEED = 0.03
_HAND_ACCEL = 0.08
_HAND_ROT_SPEED = 0.2
_GRIP_STIFFNESS = 10000.0
_GRIP_DAMPING = 80.0
_ROT_STIFFNESS = 50.0
_ROT_DAMPING = 1.0
_CAPTURE_RADIUS = 0.006

# the one robot that is taught and that executes: its controller rate (Hz),
# fixed since the gains above act once per tick and would rescale with it,
# and the time constant (s) of its position lag, discretized by plant_lag
TEACH_RATE = 100.0
PLANT_TIME_CONSTANT = 0.05

MAX_TEACH_STEPS = 360_000  # teach ticks one demonstration logs, a row each: an hour at TEACH_RATE

# spreads of the sensor noise, in N and N*m. The plant turns by exp(a*v),
# a = 1 - exp(-0.2), v = 2e-3 rad/(N*m) times the sensed torque, and the
# turn must stay under 2 pi: a sensed torque norm under about 17,000 N*m, 17
# spreads at the torque cap. The force cap is as many times the native
# grip's 60 N as the torque cap is its 6 N*m; at it the longest teach the
# timing rule allows wanders the tool up to 290 m (seeds 0-2), where
# 1.7e308 N made the positions overflow
MAX_FORCE_NOISE_STD = 10_000.0
MAX_TORQUE_NOISE_STD = 1_000.0


def _check_controller(controller: str) -> None:
    """Raise a one-line ValueError unless ``controller`` names an entry of
    :data:`CONTROLLERS`."""
    if controller not in CONTROLLERS:
        names = " or ".join(repr(name) for name in CONTROLLERS)
        raise ValueError(f"controller must be {names}, got {controller!r}")


def _check_teach_timing(max_duration: float) -> None:
    """The teach timing rule: a positive duration of at most MAX_TEACH_STEPS
    ticks, ``max_duration * TEACH_RATE``."""
    _positive("max_duration", max_duration)
    steps = max_duration * TEACH_RATE
    if not steps <= MAX_TEACH_STEPS:
        raise ValueError(f"max_duration * TEACH_RATE = {steps:.6g} teach steps exceeds {MAX_TEACH_STEPS}")


def _check_teach_noise(force_noise_std: float, torque_noise_std: float) -> None:
    """The sensor noise rule: each standard deviation at least 0 and at most
    its cap, MAX_FORCE_NOISE_STD or MAX_TORQUE_NOISE_STD."""
    for name, std, cap in (("force_noise_std", force_noise_std, MAX_FORCE_NOISE_STD),
                           ("torque_noise_std", torque_noise_std, MAX_TORQUE_NOISE_STD)):
        _at_least(name, std, 0)
        if not std <= cap:
            raise ValueError(f"{name} must be at most {cap}, got {std!r}")


def native_drive_step(
    x_r: tuple[float, ...], f: tuple[float, ...], sliding: bool = False, spinning: bool = False
) -> tuple[tuple[float, ...], bool, bool]:
    """One tick of back-driving the native transmission: the command (as
    :func:`plant_step` takes) for the reached pose tuple ``x_r`` and the
    measured wrench ``f = (fx, fy, fz, tx, ty, tz)``.

    The friction state (sliding, spinning) is carried by the caller; motion
    starts only above the static threshold but persists down to the kinetic
    one, so velocity jumps at both transitions.
    """
    px, py, pz = x_r[0], x_r[1], x_r[2]
    fx, fy, fz, tx, ty, tz = f
    fn = math.sqrt(fx * fx + fy * fy + fz * fz)
    sliding = fn > (_KINETIC_FORCE if sliding else _BREAKAWAY_FORCE)
    if sliding:
        c = _NATIVE_GAIN * (fn - _KINETIC_FORCE)
        px, py, pz = px + c * (fx / fn), py + c * (fy / fn), pz + c * (fz / fn)
    tn = math.sqrt(tx * tx + ty * ty + tz * tz)
    spinning = tn > (_KINETIC_TORQUE if spinning else _BREAKAWAY_TORQUE)
    if spinning:
        c = _NATIVE_ROT_GAIN * (tn - _KINETIC_TORQUE)
        return (px, py, pz, c * (tx / tn), c * (ty / tn), c * (tz / tn)), sliding, spinning
    return (px, py, pz, 0.0, 0.0, 0.0), sliding, spinning


def _admit(w: float, gain: float, deadband: float) -> float:
    """The admittance law on one axis: gain times the wrench past the deadband."""
    return gain * (w - deadband if w > 0.0 else w + deadband) if abs(w) > deadband else 0.0


def ktc_step(x_r: tuple[float, ...], f: tuple[float, ...]) -> tuple[float, ...]:
    """One tick of the admittance law: the command (as :func:`plant_step`
    takes) for the reached pose tuple ``x_r`` and the measured wrench
    ``f = (fx, fy, fz, tx, ty, tz)``. Zero (or sub-deadband) wrench commands
    the position of x_r and no rotation, exactly."""
    fx, fy, fz, tx, ty, tz = f
    gx, gy, gz, grx, gry, grz = _GAIN
    bx, by, bz, brx, bry, brz = _DEADBAND
    return (
        x_r[0] + _admit(fx, gx, bx),
        x_r[1] + _admit(fy, gy, by),
        x_r[2] + _admit(fz, gz, bz),
        _admit(tx, grx, brx),
        _admit(ty, gry, bry),
        _admit(tz, grz, brz),
    )


def plant_lag(dt: float) -> tuple[float, float]:
    """The robot's first-order lag over one tick of ``dt`` s (positive and
    finite): its log rate lam = -dt/T and the share a = 1 - exp(lam) of the
    gap to the command that the tick closes, T = PLANT_TIME_CONSTANT."""
    _positive("dt", dt)
    lam = -dt / PLANT_TIME_CONSTANT
    return lam, -math.expm1(lam)


def plant_step(x_r: tuple[float, ...], u: tuple[float, ...], dt: float) -> tuple[float, ...]:
    """One tick of the position-controlled robot, a first-order lag from the
    reached state x_r toward the command u: with a from :func:`plant_lag`,
    the position closes the gap to the commanded one by a, and the attitude
    turns by exp(a*v) * q_r, in exact arithmetic the slerp toward
    exp(v) * q_r. A zero increment v leaves q_r as it is.

    The state is a float tuple ``(px, py, pz, qw, qx, qy, qz)`` holding a unit
    quaternion as ``Pose.orientation`` holds it, and so is the result; the
    command ``(cx, cy, cz, vx, vy, vz)`` holds the position and the full-angle
    rotation increment v, |v| below pi."""
    a = plant_lag(dt)[1]
    px, py, pz, qw, qx, qy, qz = x_r
    cx, cy, cz, vx, vy, vz = u
    if vx != 0.0 or vy != 0.0 or vz != 0.0:
        qw, qx, qy, qz = quat_mul_wxyz(from_rotation_vector((a * vx, a * vy, a * vz)), (qw, qx, qy, qz))
    return (px + a * (cx - px), py + a * (cy - py), pz + a * (cz - pz), qw, qx, qy, qz)


class TeachTimeout(RuntimeError):
    """Simulation hit max_duration before the final waypoint; carries the
    partial log."""

    def __init__(self, reached: int, total: int, partial: Trajectory) -> None:
        self.reached = reached
        self.total = total
        self.partial = partial
        super().__init__(f"timeout after reaching {reached} of {total} waypoints")


_quat_bytes = struct.Struct("4d").pack  # equal floats may differ in a zero's sign; their bytes do not


def _log(rows: array) -> Trajectory:
    """The demonstration from its ``t, p, q, wrench`` rows."""
    table = np.frombuffer(rows, dtype=float).reshape(-1, 14)
    return Trajectory(table[:, 0], table[:, 1:4], table[:, 4:8], table[:, 8:])


def simulate_demonstration(
    waypoints: Sequence[Pose],
    controller: str,
    max_duration: float = 60.0,
    force_noise_std: float = 0.0,
    torque_noise_std: float = 0.0,
    seed: int = 0,
) -> Trajectory:
    """Run the teach loop at TEACH_RATE and return the logged
    demonstration (poses plus the wrench the human actually applied).

    A hand point moves along the waypoints with bounded speed and
    acceleration; the tool is coupled to it through a stiff spring-damper
    grip saturated in norm at the controller's :data:`CONTROLLERS` entry.
    The hand waits whenever the grip stretch exceeds what the saturated
    force could ever resolve (nobody drags a tool that is not following).
    Waypoints advance on tool position capture; orientation follows through
    the grip torque.

    ``controller`` selects the robot side: ``"proposed"`` runs the
    admittance law, ``"native"`` back-drives the unpowered transmission.
    Sensor noise, when enabled, perturbs only what the controller sees; the
    log keeps the true applied wrench, so the saturation bound holds on the
    log unconditionally.

    Poses are float tuples ``(px, py, pz, qw, qx, qy, qz)`` as
    :func:`plant_step` takes; orientations use the ``se3`` ``*_wxyz`` kernels.
    """
    _check_controller(controller)
    _check_teach_timing(max_duration)
    _check_teach_noise(force_noise_std, torque_noise_std)
    # each waypoint's position and attitude, split once
    goals = [(p.position.tolist(), p.orientation) for p in waypoints]
    if not goals:
        raise ValueError("need at least one waypoint")
    n_goals = len(goals)
    h = 1.0 / TEACH_RATE
    rng = np.random.default_rng(seed)
    noisy = force_noise_std > 0 or torque_noise_std > 0
    admittance = controller == "proposed"
    f_sat, t_sat = CONTROLLERS[controller]
    # locals, not module globals, for the loop to read every tick
    capture = _CAPTURE_RADIUS
    stretch_limit, rot_stretch_limit = 1.5 * f_sat / _GRIP_STIFFNESS, 1.5 * t_sat / _ROT_STIFFNESS
    speed, accel_2, accel_h = _HAND_SPEED, 2.0 * _HAND_ACCEL, _HAND_ACCEL * h
    rot_step = _HAND_ROT_SPEED * h
    k_grip, d_grip = _GRIP_STIFFNESS, _GRIP_DAMPING
    k_rot, d_rot = _ROT_STIFFNESS, _ROT_DAMPING
    turn = plant_lag(h)[1]  # plant_step turns by turn * v

    (hx, hy, hz), hand_q = goals[0]
    x_r = (hx, hy, hz, *hand_q)
    prev_x, prev_y, prev_z = hx, hy, hz  # last tick's reached position
    hvx = hvy = hvz = 0.0
    ox = oy = oz = 0.0  # the rotation vector the plant applied last tick
    gap = None  # the hand's rotation gap to the goal, None once it is stale
    conj_r = None  # the inverse of the reached attitude, None once the plant turned
    sliding = False
    spinning = False

    rows = array("d")
    target = 0
    k = 0
    n_steps = int(math.ceil(max_duration * TEACH_RATE))

    while True:
        t = k * h
        px, py, pz, qw, qx, qy, qz = x_r
        while target < n_goals:
            (wx, wy, wz), goal_q = goals[target]
            dx, dy, dz = px - wx, py - wy, pz - wz
            if not math.sqrt(dx * dx + dy * dy + dz * dz) <= capture:
                break
            target += 1
            gap = None
        if target == n_goals:
            rows.extend((t, *x_r, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
            break
        if k >= n_steps:
            raise TeachTimeout(target, n_goals, _log(rows))

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
        # rotation vectors of a * conj(b); the gap moves only with the target or the hand
        if gap is None:
            ax, ay, az = rotation_vector_wxyz(quat_mul_wxyz(goal_q, quat_conj_wxyz(hand_q)))
            gap = math.sqrt(ax * ax + ay * ay + az * az)
        if conj_r is None:
            conj_r = quat_conj_wxyz((qw, qx, qy, qz))
        ex, ey, ez = rotation_vector_wxyz(quat_mul_wxyz(hand_q, conj_r))
        if gap > 0.0 and math.sqrt(ex * ex + ey * ey + ez * ez) < rot_stretch_limit:
            c = min(rot_step, gap) / gap
            turned = quat_mul_wxyz(from_rotation_vector((ax * c, ay * c, az * c)), hand_q)
            # a turn below rounding leaves the gap and the error as they are
            if turned != hand_q or _quat_bytes(*turned) != _quat_bytes(*hand_q):
                hand_q = turned
                gap = None
                ex, ey, ez = rotation_vector_wxyz(quat_mul_wxyz(hand_q, conj_r))

        # grip: spring-damper from the tool to the hand, saturated in norm
        fx = k_grip * (hx - px) - d_grip * ((px - prev_x) / h)
        fy = k_grip * (hy - py) - d_grip * ((py - prev_y) / h)
        fz = k_grip * (hz - pz) - d_grip * ((pz - prev_z) / h)
        n = math.sqrt(fx * fx + fy * fy + fz * fz)
        if n > f_sat:
            c = f_sat / n
            fx, fy, fz = fx * c, fy * c, fz * c
        tx = k_rot * ex - d_rot * (ox / h)
        ty = k_rot * ey - d_rot * (oy / h)
        tz = k_rot * ez - d_rot * (oz / h)
        n = math.sqrt(tx * tx + ty * ty + tz * tz)
        if n > t_sat:
            c = t_sat / n
            tx, ty, tz = tx * c, ty * c, tz * c
        rows.extend((t, px, py, pz, qw, qx, qy, qz, fx, fy, fz, tx, ty, tz))

        if noisy:
            nfx, nfy, nfz = rng.normal(scale=force_noise_std, size=3).tolist()
            ntx, nty, ntz = rng.normal(scale=torque_noise_std, size=3).tolist()
            sensed = (fx + nfx, fy + nfy, fz + nfz, tx + ntx, ty + nty, tz + ntz)
        else:
            sensed = (fx, fy, fz, tx, ty, tz)
        if admittance:
            u = ktc_step(x_r, sensed)
        else:
            u, sliding, spinning = native_drive_step(x_r, sensed, sliding, spinning)
        prev_x, prev_y, prev_z = px, py, pz
        x_r = plant_step(x_r, u, h)
        vx, vy, vz = u[3], u[4], u[5]
        if vx != 0.0 or vy != 0.0 or vz != 0.0:  # else plant_step kept the attitude
            conj_r = None
        ox, oy, oz = turn * vx, turn * vy, turn * vz
        k += 1

    return _log(rows)
