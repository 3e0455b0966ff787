"""Discrete 6-DoF movement primitives: a phase-driven second-order attractor
per translation axis plus a quaternion-manifold attractor for orientation,
each modulated by a learned radial-basis forcing term.

Dynamics (time constant tau, phase s in (0, 1]):

* phase          tau * ds/dt = -alpha_s * s, stepped in closed form
* translation    tau * dz/dt = alpha_z * (beta_z * (g - y) - z) + f(s)
                 tau * dy/dt = z
* orientation    the same structure on eta = tau * omega with the attractor
                 error 2 * quat_log(g_q * conj(q)), integrated with
                 q <- quat_exp(omega * dt / 2) * q

The forcing term is a normalized Gaussian mixture; in ``phase-gated`` mode it
is multiplied by s (vanishes at convergence, giving exact goal attraction),
in ``literal`` mode it is used as-is (then a non-vanishing f(0) shifts the
equilibrium by f(0) / (alpha_z * beta_z)). On the default insertion that
shift leaves the approach 1.38 mm off its standoff pose, beyond the 1 mm
that planning accepts, so trials planned from a literal primitive end
FAILED.

Weights are fitted by per-basis locally weighted regression on targets
obtained by inverting the transformation system along a demonstration:

    f_target = tau^2 * acc - alpha_z * (beta_z * (goal - y) - tau * vel)

Rollout integrates with explicit Euler. The phase and hence the forcing of
all six axes are known in advance; translation under explicit Euler is a
fixed second-order linear filter over that forcing and runs as one banded
triangular solve. Only the nonlinear orientation attractor steps
through a scalar Python loop.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy.linalg.lapack import dtbtrs

from .se3 import Pose, UnitQuaternion, quat_conj_rows, quat_mul_rows, relative_rotation_vector_rows
from .trajectory import Trajectory, finite_difference, resample_trajectory

__all__ = [
    "GATE_MODES",
    "ForcingTerm",
    "TransformParams",
    "DemonstrationData",
    "PoseDmp",
    "DegenerateDemo",
    "RolloutDiverged",
    "ForcingUnderflow",
    "basis_layout",
    "eval_forcing",
    "prepare_demonstration",
    "compute_forcing_targets",
    "fit_lwr",
    "fit_pose_dmp",
    "rollout",
    "save_dmp",
    "load_dmp",
]

GATE_MODES = ("phase-gated", "literal")

_SUPPORT_FLOOR = 1e-12   # per-basis regression denominator guard
_DENOM_FLOOR = 1e-300    # mixture normalization underflow guard


class DegenerateDemo(ValueError):
    """Demonstration carries no information to fit (start = goal, no motion)."""


class RolloutDiverged(RuntimeError):
    """Integration state left the finite range; carries the first bad step."""

    def __init__(self, step: int, t: float) -> None:
        self.step = step
        self.t = t
        super().__init__(f"non-finite rollout state at step {step} (t = {t:.6g} s)")


class ForcingUnderflow(RuntimeWarning):
    """Every basis underflowed at the queried phase; forcing evaluated as 0."""


def _check_gate_mode(gate_mode: str) -> None:
    if gate_mode not in GATE_MODES:
        raise ValueError(f"gate_mode must be one of {GATE_MODES}, got {gate_mode!r}")


def basis_layout(n_basis: int, alpha_s: float) -> tuple[np.ndarray, np.ndarray]:
    """Centers equally spaced in time (hence exponentially in phase) and the
    matching widths: c_i = exp(-alpha_s * i/(n-1)), h_i = 1/(2*(c_{i+1}-c_i)^2)
    with the last width repeated."""
    if n_basis < 2:
        raise ValueError("need at least 2 basis functions")
    if alpha_s <= 0:
        raise ValueError("alpha_s must be positive")
    centers = np.exp(-alpha_s * np.arange(n_basis) / (n_basis - 1))
    gaps = np.diff(centers)
    widths = np.empty(n_basis)
    widths[:-1] = 1.0 / (2.0 * gaps**2)
    widths[-1] = widths[-2]
    return centers, widths


@dataclass(frozen=True)
class ForcingTerm:
    """Normalized radial-basis mixture over the phase variable."""

    weights: np.ndarray
    centers: np.ndarray
    widths: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        c = np.asarray(self.centers, dtype=float).reshape(-1)
        h = np.asarray(self.widths, dtype=float).reshape(-1)
        if not (len(w) == len(c) == len(h)):
            raise ValueError("weights, centers, widths must have equal length")
        if np.any(h <= 0):
            raise ValueError("widths must be positive")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "widths", h)


def _activations(s: np.ndarray, centers: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Basis activations exp(-h_i (s_k - c_i)^2), shape (len(s), N); built
    in place, as the matrix of a long rollout is large."""
    psi = np.subtract.outer(s, centers)
    psi *= psi
    psi *= -widths
    np.exp(psi, out=psi)
    return psi


def eval_forcing(ft: ForcingTerm, s: float, gate_mode: str = "phase-gated") -> float:
    """Evaluate the mixture at phase s (times the gate in phase-gated mode)."""
    _check_gate_mode(gate_mode)
    profile = _forcing_profile(ft.weights[None, :], ft.centers, ft.widths, np.array([float(s)]), gate_mode)
    return float(profile[0, 0])


def _forcing_profile(
    weights: np.ndarray, centers: np.ndarray, widths: np.ndarray, s: np.ndarray, gate_mode: str
) -> np.ndarray:
    """The normalized mixture of several axes sharing one basis layout.

    weights: (n_axes, N); returns (len(s), n_axes).
    """
    psi = _activations(s, centers, widths)
    denom = psi.sum(axis=1)
    # einsum's own loop, not matmul: a product this thin gains nothing from a
    # threaded BLAS, whose idle workers then spin against the caller's loop
    mix = np.einsum("kn,an->ka", psi, weights)
    bad = denom < _DENOM_FLOOR
    if np.any(bad):
        warnings.warn(
            f"all bases underflowed at {int(bad.sum())} of {len(s)} phase samples",
            ForcingUnderflow,
            stacklevel=2,
        )
        denom = np.where(bad, 1.0, denom)
        mix[bad] = 0.0
    out = mix / denom[:, None]
    if gate_mode == "phase-gated":
        out *= s[:, None]
    return out


@dataclass(frozen=True)
class TransformParams:
    """Gains of the goal attractor; beta_z defaults to alpha_z/4 (critical
    damping)."""

    alpha_z: float = 25.0
    beta_z: float | None = None

    def __post_init__(self) -> None:
        if self.beta_z is None:
            object.__setattr__(self, "beta_z", self.alpha_z / 4.0)
        if self.alpha_z <= 0 or self.beta_z <= 0:
            raise ValueError("alpha_z and beta_z must be positive")


def _moving_average(v: np.ndarray, window: int = 5) -> np.ndarray:
    """Centered moving average with a shrinking window at the edges."""
    if len(v) < 2 or window <= 1:
        return v.copy()
    kernel = np.ones(window)
    counts = np.convolve(np.ones(len(v)), kernel, mode="same")
    out = np.empty_like(v)
    for col in range(v.shape[1]):
        out[:, col] = np.convolve(v[:, col], kernel, mode="same") / counts
    return out


@dataclass(frozen=True)
class DemonstrationData:
    """A demonstration regridded to uniform dt with smoothed derivatives."""

    times: np.ndarray
    dt: float
    tau: float
    positions: np.ndarray
    quats: np.ndarray
    velocities: np.ndarray
    accelerations: np.ndarray
    omegas: np.ndarray
    domegas: np.ndarray

    @property
    def start(self) -> Pose:
        return Pose(self.positions[0], UnitQuaternion.from_array(self.quats[0]))

    @property
    def goal(self) -> Pose:
        return Pose(self.positions[-1], UnitQuaternion.from_array(self.quats[-1]))


def prepare_demonstration(traj: Trajectory, dt: float = 1e-3, smooth_window: int = 5) -> DemonstrationData:
    """Regrid to uniform dt (snapped so the span is an integer number of
    steps, endpoints exact) and differentiate.

    Angular velocity comes from relative-quaternion logs (central over 2*dt in
    the interior); all derivative series get a centered moving average, since
    recorded demonstrations are noisy by nature.
    """
    if len(traj) < 2 or traj.duration <= 0:
        raise ValueError("demonstration needs at least 2 samples spanning a positive duration")
    if dt <= 0:
        raise ValueError("dt must be positive")
    steps = max(int(round(traj.duration / dt)), 1)
    grid_dt = traj.duration / steps
    res = resample_trajectory(traj, grid_dt)
    t = res.times - res.times[0]
    pos = res.positions
    quats = res.orientations

    vel = finite_difference(t, pos, 1)
    acc = finite_difference(t, pos, 2)

    omega = np.empty((len(t), 3))
    one_step = relative_rotation_vector_rows(quats[1:], quats[:-1]) / grid_dt
    omega[0], omega[-1] = one_step[0], one_step[-1]
    omega[1:-1] = relative_rotation_vector_rows(quats[2:], quats[:-2]) / (2.0 * grid_dt)
    domega = finite_difference(t, omega, 1)

    return DemonstrationData(
        times=t,
        dt=grid_dt,
        tau=float(t[-1]),
        positions=pos,
        quats=quats,
        velocities=_moving_average(vel, smooth_window),
        accelerations=_moving_average(acc, smooth_window),
        omegas=_moving_average(omega, smooth_window),
        domegas=_moving_average(domega, smooth_window),
    )


def compute_forcing_targets(
    demo: DemonstrationData,
    params: TransformParams,
    alpha_s: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Invert the transformation system along the demonstration.

    Returns (s_k, targets) with targets of shape (n, 6): three translation
    axes then three orientation axes. The targets are the raw inversion,
    gate included; :func:`fit_lwr` fits them against the gate of its mode.
    """
    span = float(np.max(np.linalg.norm(demo.positions - demo.positions[0], axis=1)))
    rot_span = float(np.max(np.linalg.norm(relative_rotation_vector_rows(demo.quats, demo.quats[:1]), axis=1)))
    speed = float(np.max(np.abs(demo.velocities))) + float(np.max(np.abs(demo.omegas)))
    if span < 1e-9 and rot_span < 1e-9 and speed < 1e-9:
        raise DegenerateDemo("no information to fit: start equals goal and the demo never moves")

    az, bz = params.alpha_z, params.beta_z
    tau = demo.tau
    s = np.exp(-alpha_s * demo.times / tau)

    g = demo.positions[-1]
    f_pos = tau**2 * demo.accelerations - az * (bz * (g - demo.positions) - tau * demo.velocities)

    err = relative_rotation_vector_rows(demo.quats[-1:], demo.quats)
    f_rot = tau**2 * demo.domegas - az * (bz * err - tau * demo.omegas)
    return s, np.hstack([f_pos, f_rot])


def fit_lwr(
    s: np.ndarray,
    targets: np.ndarray,
    centers: np.ndarray,
    widths: np.ndarray,
    gate_mode: str = "phase-gated",
) -> tuple[np.ndarray, list[int]]:
    """Per-basis weighted least squares, for one axis or several at once.

    w_i = sum_k psi_i(s_k) x(s_k) f_k / sum_k psi_i(s_k) x(s_k)^2 with
    x(s) = s in phase-gated mode and x(s) = 1 in literal mode. ``targets``
    of shape (n,) give weights of shape (N,); of shape (n, k), weights of
    shape (k, N) from one activation matrix. Bases whose denominator
    underflows the 1e-12 guard get weight 0 and are reported in the second
    return value.
    """
    _check_gate_mode(gate_mode)
    s = np.asarray(s, dtype=float).reshape(-1)
    f = np.asarray(targets, dtype=float)
    if len(s) != len(f):
        raise ValueError("phase and target sample counts differ")
    if len(s) == 0:
        raise ValueError("cannot fit with zero samples")
    psi = _activations(s, centers, widths)
    x = s if gate_mode == "phase-gated" else np.ones_like(s)
    # einsum, not matmul: see _forcing_profile
    num = np.einsum("kn,k,k...->...n", psi, x, f)
    den = np.einsum("kn,k->n", psi, x * x)
    supported = den > _SUPPORT_FLOOR
    weights = np.where(supported, num / np.where(supported, den, 1.0), 0.0)
    return weights, [int(i) for i in np.flatnonzero(~supported)]


@dataclass(frozen=True)
class PoseDmp:
    """A fitted 6-DoF movement primitive plus everything needed to replay it."""

    alpha_s: float
    alpha_z: float
    beta_z: float
    tau: float
    gate_mode: str
    centers: np.ndarray
    widths: np.ndarray
    weights_pos: np.ndarray  # (3, N)
    weights_rot: np.ndarray  # (3, N)
    demo_start: Pose
    demo_goal: Pose

    def __post_init__(self) -> None:
        _check_gate_mode(self.gate_mode)
        for name in ("centers", "widths"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float).reshape(-1))
        n = len(self.centers)
        for name in ("weights_pos", "weights_rot"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float).reshape(3, n))

    @property
    def n_basis(self) -> int:
        return len(self.centers)


def fit_pose_dmp(
    traj: Trajectory,
    n_basis: int = 50,
    alpha_z: float = 25.0,
    beta_z: float | None = None,
    alpha_s: float = 25.0 / 3.0,
    gate_mode: str = "phase-gated",
    dt: float = 1e-3,
) -> PoseDmp:
    """Fit all six axes of a demonstration.

    A degenerate (stay-at-pose) demonstration fits to all-zero weights, which
    replays as staying at the pose; the underlying target computation still
    raises at its own interface.
    """
    _check_gate_mode(gate_mode)
    params = TransformParams(alpha_z, beta_z)
    demo = prepare_demonstration(traj, dt=dt)
    centers, widths = basis_layout(n_basis, alpha_s)
    try:
        s, targets = compute_forcing_targets(demo, params, alpha_s)
        weights, dead = fit_lwr(s, targets, centers, widths, gate_mode)
        if dead:
            warnings.warn(f"{len(dead)} basis functions had no sample support", RuntimeWarning, stacklevel=2)
    except DegenerateDemo:
        weights = np.zeros((6, n_basis))
    return PoseDmp(
        alpha_s=alpha_s,
        alpha_z=params.alpha_z,
        beta_z=params.beta_z,
        tau=demo.tau,
        gate_mode=gate_mode,
        centers=centers,
        widths=widths,
        weights_pos=weights[:3],
        weights_rot=weights[3:],
        demo_start=demo.start,
        demo_goal=demo.goal,
    )


def rollout(
    dmp: PoseDmp,
    start: Pose | None = None,
    goal: Pose | None = None,
    tau: float | None = None,
    dt: float = 1e-3,
    horizon: float = 1.5,
) -> Trajectory:
    """Integrate the primitive from rest at ``start`` toward ``goal``.

    Explicit Euler at fixed dt out to ``horizon * tau`` (the extra half tau
    lets the attractor settle). The phase follows its closed form, so the
    forcing of all six axes is precomputed from one activation matrix.
    Translation is linear and time-invariant: eliminating z from the Euler
    step leaves, per axis, the error e = y - g obeying

        e[k+2] = (2 - a) e[k+1] - (1 - a + b) e[k] + (dt/tau)^2 f[k],
        a = alpha_z dt/tau, b = alpha_z beta_z (dt/tau)^2, e[1] = e[0],

    a second-order linear filter, evaluated as one banded lower-triangular
    solve (LAPACK ``dtbtrs``; forward substitution is the recurrence). This
    is what ``scipy.signal.lfilter`` would compute, without importing
    ``scipy.signal``, which loads ``scipy.stats`` and slows every ``lfdkit``
    start. Only the orientation attractor runs in a scalar loop, on the
    error quaternion d = g * conj(q) as its state
    (q <- exp(omega dt/2) q is d <- d * conj(exp(omega dt/2))); q = conj(d) g
    is recovered row-wise at the end. The loop also checks divergence, on the
    sum of all nine |state| components per step, translational ones included.
    """
    start = dmp.demo_start if start is None else start
    goal = dmp.demo_goal if goal is None else goal
    tau = dmp.tau if tau is None else float(tau)
    if tau <= 0:
        raise ValueError("tau must be positive")
    if dt <= 0 or dt > tau / 100.0:
        raise ValueError(f"dt must lie in (0, tau/100]; got dt = {dt:.6g} for tau = {tau:.6g}")
    if not horizon >= 0:
        raise ValueError(f"horizon must be non-negative; got {horizon!r}")

    n_steps = int(round(horizon * tau / dt))
    times = np.arange(n_steps + 1) * dt
    s_profile = np.exp(-dmp.alpha_s * times / tau)
    az, bz = dmp.alpha_z, dmp.beta_z
    adt = dt / tau
    weights = np.vstack([dmp.weights_pos, dmp.weights_rot])
    forcing = adt * _forcing_profile(weights, dmp.centers, dmp.widths, s_profile, dmp.gate_mode)

    # rows 0 and 1 pin e[0] and e[1] = e[0]; row k >= 2 is the recurrence,
    # so forward substitution through the band runs the filter
    band = np.empty((3, n_steps + 2))
    band[0] = 1.0
    band[1] = az * adt - 2.0
    band[2] = 1.0 - az * adt + az * bz * adt * adt
    band[1, 0] = -1.0
    rhs = np.empty((n_steps + 2, 3))
    rhs[0] = np.asarray(start.position, dtype=float) - goal.position
    rhs[1] = 0.0
    rhs[2:] = adt * forcing[:n_steps, :3]
    err = dtbtrs(band, rhs, uplo="L", diag="U")[0]
    positions = err[:-1] + goal.position
    with np.errstate(over="ignore", invalid="ignore"):
        # per-step translational part of the divergence test: |z| + |y|
        trans_size = (np.abs(np.diff(err, axis=0)) / adt).sum(axis=1) + np.abs(positions).sum(axis=1)

    gq, q0 = goal.orientation, start.orientation
    gw, gvx, gvy, gvz = gq.w, gq.x, gq.y, gq.z
    dw = gw * q0.w + gvx * q0.x + gvy * q0.y + gvz * q0.z
    dx = q0.w * gvx - gw * q0.x - (gvy * q0.z - gvz * q0.y)
    dy = q0.w * gvy - gw * q0.y - (gvz * q0.x - gvx * q0.z)
    dz = q0.w * gvz - gw * q0.z - (gvx * q0.y - gvy * q0.x)
    ex = ey = ez = 0.0   # scaled angular velocity tau * omega
    decay, pull2, turn = 1.0 - az * adt, 2.0 * az * bz * adt, 0.5 * adt   # turn: (dt/2) / tau

    sqrt, atan2, sin, cos = math.sqrt, math.atan2, math.sin, math.cos
    out_d: list[tuple[float, float, float, float]] = [(dw, dx, dy, dz)]
    append = out_d.append
    f_rot = forcing[:n_steps, 3:]
    for fx, fy, fz, size in zip(
        f_rot[:, 0].tolist(), f_rot[:, 1].tolist(), f_rot[:, 2].tolist(), trans_size[1:].tolist()
    ):
        # attractor pull alpha_z*beta_z*dt/tau times the error 2*log(d), shortest arc
        vn2 = dx * dx + dy * dy + dz * dz
        if vn2 > 1e-24:
            vn = sqrt(vn2)
            kk = pull2 * atan2(vn, dw) / vn if dw >= 0.0 else -pull2 * atan2(vn, -dw) / vn
        else:
            kk = pull2 / dw

        ax, ay, avz = ex * turn, ey * turn, ez * turn
        ex = decay * ex + kk * dx + fx
        ey = decay * ey + kk * dy + fy
        ez = decay * ez + kk * dz + fz

        # d <- d * conj(exp(omega * dt / 2))
        an2 = ax * ax + ay * ay + avz * avz
        an = sqrt(an2)
        sc = 1.0 - an2 / 6.0 if an < 1e-8 else sin(an) / an
        cw = cos(an)
        sx, sy, sz = sc * ax, sc * ay, sc * avz
        nw = cw * dw + sx * dx + sy * dy + sz * dz
        nx = cw * dx - sx * dw - (dy * sz - dz * sy)
        ny = cw * dy - sy * dw - (dz * sx - dx * sz)
        nz = cw * dz - sz * dw - (dx * sy - dy * sx)
        inv = 1.0 / sqrt(nw * nw + nx * nx + ny * ny + nz * nz)
        dw, dx, dy, dz = nw * inv, nx * inv, ny * inv, nz * inv
        append((dw, dx, dy, dz))

        if not (abs(ex) + abs(ey) + abs(ez) + size < 1e15):
            step = len(out_d) - 1
            raise RolloutDiverged(step, step * dt)

    d = np.fromiter(chain.from_iterable(out_d), float, 4 * len(out_d)).reshape(-1, 4)
    quats = quat_mul_rows(quat_conj_rows(d), gq.as_array())
    return Trajectory(times, positions, quats)


# ---------------------------------------------------------------------------
# serialization: floats go through json's repr round trip, so save -> load is
# bit-exact

_DMP_KEYS = {
    "alpha_s", "alpha_z", "beta_z", "tau", "N", "gate_mode",
    "centers", "widths", "weights_pos", "weights_rot", "demo_start", "demo_goal",
}


def _pose_to_dict(p: Pose) -> dict:
    return {
        "position": [float(v) for v in p.position],
        "orientation": [p.orientation.w, p.orientation.x, p.orientation.y, p.orientation.z],
    }


def _pose_from_dict(d: dict, where: str) -> Pose:
    extra = set(d) - {"position", "orientation"}
    if extra:
        raise ValueError(f"unknown key(s) {sorted(extra)} in {where}")
    return Pose(np.asarray(d["position"], dtype=float), UnitQuaternion.from_array(d["orientation"]))


def dmp_to_dict(dmp: PoseDmp) -> dict:
    return {
        "alpha_s": dmp.alpha_s,
        "alpha_z": dmp.alpha_z,
        "beta_z": dmp.beta_z,
        "tau": dmp.tau,
        "N": dmp.n_basis,
        "gate_mode": dmp.gate_mode,
        "centers": dmp.centers.tolist(),
        "widths": dmp.widths.tolist(),
        "weights_pos": dmp.weights_pos.tolist(),
        "weights_rot": dmp.weights_rot.tolist(),
        "demo_start": _pose_to_dict(dmp.demo_start),
        "demo_goal": _pose_to_dict(dmp.demo_goal),
    }


def dmp_from_dict(d: dict) -> PoseDmp:
    extra = set(d) - _DMP_KEYS
    if extra:
        raise ValueError(f"unknown key(s) {sorted(extra)} in primitive file")
    missing = _DMP_KEYS - set(d)
    if missing:
        raise ValueError(f"missing key(s) {sorted(missing)} in primitive file")
    dmp = PoseDmp(
        alpha_s=float(d["alpha_s"]),
        alpha_z=float(d["alpha_z"]),
        beta_z=float(d["beta_z"]),
        tau=float(d["tau"]),
        gate_mode=str(d["gate_mode"]),
        centers=np.asarray(d["centers"], dtype=float),
        widths=np.asarray(d["widths"], dtype=float),
        weights_pos=np.asarray(d["weights_pos"], dtype=float),
        weights_rot=np.asarray(d["weights_rot"], dtype=float),
        demo_start=_pose_from_dict(d["demo_start"], "demo_start"),
        demo_goal=_pose_from_dict(d["demo_goal"], "demo_goal"),
    )
    if dmp.n_basis != int(d["N"]):
        raise ValueError(f"N = {d['N']} does not match {dmp.n_basis} centers")
    return dmp


def save_dmp(dmp: PoseDmp, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(dmp_to_dict(dmp), fh, indent=2)
        fh.write("\n")


def load_dmp(path) -> PoseDmp:
    with open(path, "r", encoding="ascii") as fh:
        return dmp_from_dict(json.load(fh))
