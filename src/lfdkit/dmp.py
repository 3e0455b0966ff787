"""Discrete 6-DoF movement primitives: one phase-driven second-order
attractor per coordinate, modulated by a learned radial-basis forcing term.

The six coordinates x are the position p and the orientation q charted at
the goal orientation g: the full-angle rotation vector e = log(q * conj(g)),
which is 0 at the goal. In that chart the orientation error obeys the same
linear system as a position (Koutras & Doulgeri, CoRL 2019, "A correct
formulation for the orientation dynamic movement primitives for robot
control in the Cartesian space"), so one law serves all six axes.

Dynamics (time constant tau, phase s in (0, 1], goal x_g: g_p for p, 0 for e):

* phase           tau * ds/dt = -alpha_s * s, stepped in closed form
* transformation  tau * dz/dt = alpha_z * (beta_z * (x_g - x) - z) + f(s)
                  tau * dx/dt = z

The forcing term is a normalized Gaussian mixture multiplied by the phase s,
so it vanishes at convergence and the attractor reaches exactly the goal it
is given (Ijspeert et al. 2013).

Weights are fitted by per-basis locally weighted regression on targets
obtained by inverting the transformation system along a demonstration:

    f_target = tau^2 * acc - alpha_z * (beta_z * (x_g - x) - tau * vel)

Rollout integrates with explicit Euler. The phase and hence the forcing of
all six axes are known in advance, and under explicit Euler each axis is a
fixed second-order linear filter over that forcing. It factors into two
first-order linear scans, each a scaled prefix sum (Blelloch 1990), run
for all six axes at once; q = exp(e) * g maps the orientation back.

The forcing is not scaled by the start or the goal, so a rollout is the
superposition e[k] = h[k] e[0] + F[k] of the filter's unit response h and
its forced response F (the DMP's linearity in start and goal, Ijspeert et
al. 2013). Both depend only on the primitive, tau, dt and the step count;
the module keeps them for the last such key, one entry, so replaying one
primitive toward many goals scans once. A primitive's arrays are read-only
copies, so it cannot change under that entry. Superposed rows differ from a
single scan from e[0] in the last few bits only.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .se3 import Pose, chart_rows, quat_normalize, unchart_rows
from .trajectory import ParseError, Trajectory, finite_difference, json_floats, json_pose, pose_json
from .trajectory import _at_least, _positive, read_json, require_keys, resample_trajectory, write_json

__all__ = [
    "DemonstrationData",
    "PoseDmp",
    "DegenerateDemo",
    "RolloutDiverged",
    "ForcingUnderflow",
    "MAX_ROWS",
    "MAX_BASIS",
    "check_basis_layout",
    "basis_layout",
    "grid_steps",
    "demo_steps",
    "rollout_steps",
    "prepare_demonstration",
    "compute_forcing_targets",
    "fit_lwr",
    "fit_pose_dmp",
    "rollout",
    "save_dmp",
    "load_dmp",
]

_SUPPORT_FLOOR = 1e-12   # per-basis regression denominator guard
_DENOM_FLOOR = 1e-300    # mixture normalization underflow guard
_SMOOTH_WINDOW = 5       # samples in the moving average over demo derivatives
_SCAN_RANGE = 200.0      # |log| of the largest power of a root one scan block forms
MAX_ROWS = 1_000_000     # samples one demonstration grid or rollout may hold: 1000 s at 1 ms
# basis functions one primitive may hold: an activation matrix, samples x
# bases, then holds at most MAX_ROWS * MAX_BASIS = 2e8 floats (1.6 GB)
MAX_BASIS = 200


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


def check_basis_layout(n_basis: int, alpha_s: float) -> None:
    """Reject a layout of fewer than 2 or more than MAX_BASIS bases, an
    alpha_s that is not positive and finite, or a layout whose smallest
    center is not > 0 or whose narrowest gap, the last one, squares to an
    infinite width; scalar arithmetic on the last two centers, so nothing of
    size n_basis is allocated."""
    _at_least("n_basis", n_basis, 2, MAX_BASIS)
    _positive("alpha_s", alpha_s)
    # the last two centers and the last width's denominator, op for op as
    # basis_layout computes them
    last = math.exp(-alpha_s * (n_basis - 1) / (n_basis - 1))
    gap = last - math.exp(-alpha_s * (n_basis - 2) / (n_basis - 1))
    twice_sq = 2.0 * (gap * gap)
    if not (last > 0.0 and twice_sq > 0.0 and 1.0 / twice_sq < math.inf):
        raise ValueError(
            f"alpha_s must keep every basis center above 0 and width finite, got {alpha_s!r} at n_basis {n_basis}"
        )


def basis_layout(n_basis: int, alpha_s: float) -> tuple[np.ndarray, np.ndarray]:
    """Centers equally spaced in time (hence exponentially in phase) and the
    matching widths: c_i = exp(-alpha_s * i/(n-1)), h_i = 1/(2*(c_{i+1}-c_i)^2)
    with the last width repeated; :func:`check_basis_layout` first."""
    check_basis_layout(n_basis, alpha_s)
    centers = np.exp(-alpha_s * np.arange(n_basis) / (n_basis - 1))
    gaps = np.diff(centers)
    widths = np.empty(n_basis)
    widths[:-1] = 1.0 / (2.0 * gaps**2)
    widths[-1] = widths[-2]
    return centers, widths


def grid_steps(span: float, dt: float, what: str) -> int:
    """round(span / dt), rejected in float arithmetic, before anything is
    allocated, when the grid would hold more than MAX_ROWS samples."""
    steps = span / dt
    if not steps + 1 <= MAX_ROWS:
        raise ValueError(f"{what} needs {steps + 1:.10g} samples, more than the cap of {MAX_ROWS}")
    return int(round(steps))


def demo_steps(duration: float, dt: float) -> int:
    """Steps of the grid :func:`prepare_demonstration` fits on, enough for
    one window of the moving average over its derivatives."""
    _positive("dt", dt)
    what = f"a {duration:.6g} s demonstration at dt = {dt:.6g}"
    steps = grid_steps(duration, dt, what)
    if steps + 1 < _SMOOTH_WINDOW:
        raise ValueError(f"{what} gives {steps + 1} of the {_SMOOTH_WINDOW} samples fitting needs")
    return steps


def rollout_steps(tau: float, dt: float, horizon: float = 1.5) -> int:
    """Euler steps of :func:`rollout` over ``horizon * tau`` at dt <= tau/100."""
    _positive("tau", tau)
    if dt <= 0 or dt > tau / 100.0:
        raise ValueError(f"dt must lie in (0, tau/100]; got dt = {dt:.6g} for tau = {tau:.6g}")
    _at_least("horizon", horizon, 0)
    return grid_steps(horizon * tau, dt, f"a rollout of horizon {horizon:.6g} * tau {tau:.6g} s at dt = {dt:.6g}")


def _activations(s: np.ndarray, centers: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Basis activations exp(-h_i (s_k - c_i)^2), shape (len(s), N); built
    in place, as the matrix of a long rollout is large."""
    psi = np.subtract.outer(s, centers)
    psi *= psi
    psi *= -widths
    np.exp(psi, out=psi)
    return psi


def _forcing_profile(
    weights: np.ndarray, centers: np.ndarray, widths: np.ndarray, s: np.ndarray
) -> tuple[np.ndarray, int]:
    """The normalized mixture of several axes sharing one basis layout, times
    s, and the number of phase samples at which every basis underflowed
    (their forcing is 0).

    weights: (n_axes, N); returns (len(s), n_axes).
    """
    psi = _activations(s, centers, widths)
    denom = psi.sum(axis=1)
    # einsum's own loop, not matmul: a product this thin gains nothing from a
    # threaded BLAS, whose idle workers then spin against the caller's loop
    mix = np.einsum("kn,an->ka", psi, weights)
    bad = denom < _DENOM_FLOOR
    underflows = int(bad.sum())
    if underflows:
        denom = np.where(bad, 1.0, denom)
        mix[bad] = 0.0
    out = mix / denom[:, None]
    out *= s[:, None]
    return out, underflows


def _moving_average(v: np.ndarray) -> np.ndarray:
    """Centered moving average with a shrinking window at the edges, over at
    least one window of samples."""
    kernel = np.ones(_SMOOTH_WINDOW)
    counts = np.convolve(np.ones(len(v)), kernel, mode="same")
    out = np.empty_like(v)
    for col in range(v.shape[1]):
        out[:, col] = np.convolve(v[:, col], kernel, mode="same") / counts
    return out


@dataclass(frozen=True)
class DemonstrationData:
    """A demonstration regridded to uniform dt: its six coordinates
    [p, log(q * conj(g))] with smoothed derivatives, and its end poses."""

    times: np.ndarray
    dt: float
    tau: float
    coords: np.ndarray  # (n, 6)
    velocities: np.ndarray
    accelerations: np.ndarray
    start: Pose
    goal: Pose


def prepare_demonstration(traj: Trajectory, dt: float = 1e-3) -> DemonstrationData:
    """Regrid to uniform dt (snapped so the span is an integer number of
    steps, endpoints exact), chart the orientation at the goal and
    differentiate.

    The chart takes the shortest arc, so it jumps where the rotation from the
    goal passes a half turn; such a demonstration is rejected. All derivative
    series get a centered moving average, since recorded demonstrations are
    noisy by nature.
    """
    if len(traj) < 2 or traj.duration <= 0:
        raise ValueError("demonstration needs at least 2 samples spanning a positive duration")
    steps = demo_steps(traj.duration, dt)
    grid_dt = traj.duration / steps
    res = resample_trajectory(traj, grid_dt)
    t = res.times - res.times[0]
    quats = res.orientations
    e = chart_rows(quats, quats[-1:])
    # neighbouring samples lie a grid step apart; only the chart's jump moves e by more than pi
    jump = np.flatnonzero(np.linalg.norm(np.diff(e, axis=0), axis=1) > math.pi)
    if len(jump):
        raise ValueError(
            f"demonstration passes a half turn from its goal orientation at t = {t[jump[0]]:.6g} s;"
            " a primitive cannot chart it"
        )
    coords = np.hstack([res.positions, e])
    return DemonstrationData(
        times=t,
        dt=grid_dt,
        tau=float(t[-1]),
        coords=coords,
        velocities=_moving_average(finite_difference(t, coords, 1)),
        accelerations=_moving_average(finite_difference(t, coords, 2)),
        start=Pose(res.positions[0], quat_normalize(*quats[0].tolist())),
        goal=Pose(res.positions[-1], quat_normalize(*quats[-1].tolist())),
    )


def compute_forcing_targets(
    demo: DemonstrationData,
    alpha_z: float,
    beta_z: float,
    alpha_s: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Invert the transformation system along the demonstration, one formula
    for all six coordinates, whose goal is their last sample.

    Returns (s_k, targets) with targets of shape (n, 6): three translation
    axes then three orientation axes. The targets are the raw inversion,
    gate included; :func:`fit_lwr` fits them against the gate s.
    """
    x = demo.coords
    if np.max(np.abs(x - x[0])) < 1e-9 and np.max(np.abs(demo.velocities)) < 1e-9:
        raise DegenerateDemo("no information to fit: start equals goal and the demo never moves")
    tau = demo.tau
    s = np.exp(-alpha_s * demo.times / tau)
    return s, tau**2 * demo.accelerations - alpha_z * (beta_z * (x[-1] - x) - tau * demo.velocities)


def fit_lwr(
    s: np.ndarray,
    targets: np.ndarray,
    centers: np.ndarray,
    widths: np.ndarray,
) -> tuple[np.ndarray, list[int]]:
    """Per-basis weighted least squares, for one axis or several at once.

    w_i = sum_k psi_i(s_k) s_k f_k / sum_k psi_i(s_k) s_k^2. ``targets`` of
    shape (n,) give weights of shape (N,); of shape (n, k), weights of shape
    (k, N) from one activation matrix. Bases whose denominator
    underflows the 1e-12 guard get weight 0 and are reported in the second
    return value.
    """
    s = np.asarray(s, dtype=float).reshape(-1)
    f = np.asarray(targets, dtype=float)
    if len(s) != len(f):
        raise ValueError("phase and target sample counts differ")
    if len(s) == 0:
        raise ValueError("cannot fit with zero samples")
    psi = _activations(s, centers, widths)
    # einsum, not matmul: see _forcing_profile
    num = np.einsum("kn,k,k...->...n", psi, s, f)
    den = np.einsum("kn,k->n", psi, s * s)
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
    centers: np.ndarray
    widths: np.ndarray
    weights: np.ndarray  # (6, N): three translation axes, then three of e
    demo_start: Pose
    demo_goal: Pose

    def __post_init__(self) -> None:
        for name in ("alpha_s", "alpha_z", "beta_z", "tau"):
            _positive(name, getattr(self, name))
        # own read-only copies, so the primitive cannot change under the
        # responses rollout keeps for it
        for name in ("centers", "widths"):
            object.__setattr__(self, name, np.array(getattr(self, name), dtype=float).reshape(-1))
        if self.n_basis > MAX_BASIS:  # each rollout builds a samples x n_basis matrix
            raise ValueError(f"a primitive holds at most {MAX_BASIS} basis functions, got {self.n_basis}")
        if not np.all(self.widths > 0):
            raise ValueError("widths must be positive")
        if not np.all((self.centers > 0) & (self.centers <= 1)):
            raise ValueError("centers must lie in (0, 1]")
        object.__setattr__(self, "weights", np.array(self.weights, dtype=float).reshape(6, len(self.centers)))
        for name in ("centers", "widths", "weights"):
            getattr(self, name).flags.writeable = False

    @property
    def n_basis(self) -> int:
        return len(self.centers)


def fit_pose_dmp(
    traj: Trajectory,
    n_basis: int = 50,
    alpha_z: float = 25.0,
    beta_z: float | None = None,
    alpha_s: float = 25.0 / 3.0,
    dt: float = 1e-3,
) -> PoseDmp:
    """Fit all six axes of a demonstration; beta_z defaults to alpha_z/4
    (critical damping).

    A degenerate (stay-at-pose) demonstration fits to all-zero weights, which
    replays as staying at the pose; the underlying target computation still
    raises at its own interface.
    """
    beta_z = alpha_z / 4.0 if beta_z is None else beta_z
    centers, widths = basis_layout(n_basis, alpha_s)
    demo = prepare_demonstration(traj, dt=dt)
    try:
        s, targets = compute_forcing_targets(demo, alpha_z, beta_z, alpha_s)
        weights, dead = fit_lwr(s, targets, centers, widths)
        if dead:
            warnings.warn(f"{len(dead)} basis functions had no sample support", RuntimeWarning, stacklevel=2)
    except DegenerateDemo:
        weights = np.zeros((6, n_basis))
    return PoseDmp(
        alpha_s=alpha_s,
        alpha_z=alpha_z,
        beta_z=beta_z,
        tau=demo.tau,
        centers=centers,
        widths=widths,
        weights=weights,
        demo_start=demo.start,
        demo_goal=demo.goal,
    )


def linear_scan(y: np.ndarray, lam: float | complex, carry: np.ndarray) -> None:
    """In place along the last axis: y[..., k] += r * y[..., k-1], r = exp(lam),
    where y[..., -1] is ``carry``.

    The recurrence is a scaled prefix sum: within a block, y[k] is r^k times
    the running sum of r^-j x[j]. The block is anchored at its first sample
    when |r| > 1 and at its last when |r| <= 1, so every power that scales a
    term has modulus at most 1 and every power that unscales a sum at least
    1. No partial sum then exceeds the output it becomes, nothing overflows
    before the output does, and the scan stays causal. Blocks are short
    enough that the powers within one stay inside exp(+-_SCAN_RANGE).
    """
    if lam.real == -math.inf:  # r = 0 carries nothing
        return
    n = y.shape[-1]
    rate = abs(lam.real)
    block = max(1, n if rate * n <= _SCAN_RANGE else int(_SCAN_RANGE / rate))
    for k0 in range(0, n, block):
        part = y[..., k0:k0 + block]
        m = part.shape[-1]
        anchor = 0 if lam.real > 0 else m - 1
        unscale = np.exp(np.arange(-anchor, m - anchor) * lam)
        part /= unscale
        np.cumsum(part, axis=-1, out=part)
        part += (np.exp((anchor + 1) * lam) * carry)[..., None]
        part *= unscale
        carry = part[..., -1]


def _log_one_minus(mu: float) -> float | complex:
    """log(1 - mu) for real mu: complex for a negative root, -inf for a zero one."""
    if mu < 1.0:
        return math.log1p(-mu)
    if mu == 1.0:
        return -math.inf
    return complex(math.log(mu - 1.0), math.pi)


def _second_order_scan(e0: np.ndarray, u: np.ndarray, c1: float, c0: float) -> np.ndarray:
    """Rows e[0..n+1] of e[k+2] = c1 e[k+1] - c0 e[k] + u[k], e[1] = e[0],
    for u of shape (n, len(e0)) and c1 < 2.

    With r1, r2 the roots of z^2 - c1 z + c0, w[k] = e[k] - r2 e[k-1] obeys
    w[k+1] = r1 w[k] + u[k-1] from w[1] = (1 - r2) e[0], and then
    e[k+1] = r2 e[k] + w[k+1] from e[1] = e[0]: two first-order scans. The
    roots are solved for as mu = 1 - r, from mu^2 - a mu + b with a = 2 - c1
    and b = 1 - c1 + c0, both exact in floating point: a slow attractor's
    response hinges on (1 - r1)(1 - r2) = b, which so keeps full relative
    precision. Underdamped gains give a complex pair, scanned in complex
    arithmetic.
    """
    lam1, lam2, mu2 = _scan_rates(c1, c0)
    buf = np.empty((len(e0), len(u) + 2), dtype=np.result_type(lam1, lam2))
    buf[:, :2] = e0[:, None]
    buf[:, 2:] = u.T
    linear_scan(buf[:, 2:], lam1, mu2 * e0)
    linear_scan(buf[:, 2:], lam2, e0)
    return buf.real.T.copy()


def _scan_rates(c1: float, c0: float) -> tuple[float | complex, float | complex, float | complex]:
    """The roots of z^2 - c1 z + c0 as :func:`_second_order_scan` scans
    them: lam1 = log(r1), lam2 = log(r2) and mu2 = 1 - r2."""
    a = 2.0 - c1
    b = (1.0 - c1) + c0
    h = 0.5 * a
    disc = h * h - b
    if disc < 0.0:
        # mu = h -+ i t; |1 - mu|^2 = 1 - a + b
        t = math.sqrt(-disc)
        lam1 = complex(0.5 * math.log1p(b - a), -math.atan2(t, 1.0 - h))
        lam2, mu2 = lam1.conjugate(), complex(h, -t)
    else:
        mu1 = h + math.sqrt(disc)
        mu2 = b / mu1 if mu1 else 0.0  # c1 rounded to 2: a double root at 1
        lam1, lam2 = _log_one_minus(mu1), _log_one_minus(mu2)
    return lam1, lam2, mu2


# the responses of the last primitive rolled out, matched on the instance
# itself: (dmp, tau, dt, n_steps, unit, forced, underflows)
_last_responses: tuple | None = None


def _responses(dmp: PoseDmp, tau: float, dt: float, times: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """The Euler filter's unit response h, shape (n + 2,), its forced
    response F, shape (n + 2, 6), for the n = len(times) - 1 steps of a
    rollout, and the phase samples at which the forcing underflowed.

    h starts at 1 without forcing and serves all six axes, which share one
    filter; F starts at 0 under the primitive's forcing. Both are read-only
    and kept for the last (primitive, tau, dt, n) asked for, as a batch
    replays one primitive at one tau and dt toward every goal. A filter
    with a coefficient or root that is not finite diverges at step 1.
    """
    global _last_responses
    n_steps = len(times) - 1
    last = _last_responses
    if last is not None and last[0] is dmp and last[1:4] == (tau, dt, n_steps):
        return last[4:]
    s_profile = np.exp(-dmp.alpha_s * times / tau)
    az, bz = dmp.alpha_z, dmp.beta_z
    adt = dt / tau
    forcing, underflows = _forcing_profile(dmp.weights, dmp.centers, dmp.widths, s_profile)
    c1, c0 = 2.0 - az * adt, 1.0 - az * adt + az * bz * adt * adt
    # a root of 0 scans at rate -inf, which linear_scan carries
    if not (math.isfinite(c1) and math.isfinite(c0)
            and all(x == x and x.real < math.inf for x in _scan_rates(c1, c0))):
        raise RolloutDiverged(1, dt)
    # one scan: F on six axes from 0, and h on a seventh from 1 without forcing
    u = np.zeros((n_steps, 7))
    np.multiply(adt, adt * forcing[:n_steps], out=u[:, :6])
    with np.errstate(over="ignore", invalid="ignore"):  # an unstable h overflows; only a moved axis uses it
        both = _second_order_scan(np.eye(7)[6], u, c1, c0)
    both.flags.writeable = False
    unit, forced = both[:, 6], both[:, :6]
    _last_responses = (dmp, tau, dt, n_steps, unit, forced, underflows)
    return unit, forced, underflows


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
    forcing of all six axes is precomputed from one activation matrix. Every
    axis is linear and time-invariant in the goal's log chart (Koutras &
    Doulgeri 2019): eliminating z from the Euler step leaves the error
    e = x - x_g (p - g for a position; log(q * conj(g)) for the orientation)
    obeying

        e[k+2] = (2 - a) e[k+1] - (1 - a + b) e[k] + (dt/tau)^2 f[k],
        a = alpha_z dt/tau, b = alpha_z beta_z (dt/tau)^2, e[1] = e[0],

    a second-order linear filter (see ``_second_order_scan``). The forcing
    does not depend on the start or the goal, so by superposition
    e[k] = h[k] e[0] + F[k], with h the filter's unit response and F its
    response to the forcing from e = 0 (Ijspeert et al. 2013). Both are
    scanned once and kept for the last primitive, tau, dt and step count
    rolled out; a rollout toward a new goal only forms h e[0] + F. An axis
    that starts on its goal gets F alone, so an overflowing h cannot turn it
    into 0 * inf. Superposed rows match one scan from e[0] to within a few
    units in the last place.

    Divergence is found row-wise: the first step whose |z| over six axes
    plus |p| and |e| sum to 1e15 or more, or to NaN, raises RolloutDiverged.
    Every call whose forcing underflowed warns ForcingUnderflow, a call
    served from the kept responses included. The orientation comes back
    through ``se3.unchart_rows`` as q = exp(e) * g row by row, which is
    defined for every e.
    """
    times, positions, e, g = _replay(dmp, start, goal, tau, dt, horizon)
    return Trajectory(times, positions, unchart_rows(e, g))


def _replay(
    dmp: PoseDmp,
    start: Pose | None = None,
    goal: Pose | None = None,
    tau: float | None = None,
    dt: float = 1e-3,
    horizon: float = 1.5,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The rows of :func:`rollout` before the map back, with its checks and
    warning: the times, the positions, the orientation in the goal's log
    chart e = log(q * conj(g)), and the chart's reference g, the goal
    orientation as one (1, 4) row."""
    start = dmp.demo_start if start is None else start
    goal = dmp.demo_goal if goal is None else goal
    tau = dmp.tau if tau is None else float(tau)
    n_steps = rollout_steps(tau, dt, horizon)
    times = np.arange(n_steps + 1) * dt
    unit, forced, underflows = _responses(dmp, tau, dt, times)
    if underflows:
        warnings.warn(
            f"all bases underflowed at {underflows} of {n_steps + 1} phase samples", ForcingUnderflow, stacklevel=3
        )
    adt = dt / tau

    gq = np.array([goal.orientation])
    e0 = np.concatenate([start.position - goal.position, chart_rows(np.array([start.orientation]), gq)[0]])
    err = forced.copy()
    for axis in np.flatnonzero(e0):
        err[:, axis] += unit * e0[axis]
    positions = err[:-1, :3] + goal.position
    rot = err[:-1, 3:]
    # the largest |e| bounds every row's sum and angle; the row-wise checks
    # run only when that bound does not clear them (NaN never does)
    bound = float(np.abs(err).max())
    if not bound * (12.0 / adt + 6.0) + 3.0 * float(np.abs(goal.position).max()) < 1e14:
        with np.errstate(over="ignore", invalid="ignore"):
            size = (np.abs(np.diff(err, axis=0)) / adt).sum(axis=1) + np.abs(positions).sum(axis=1)
            size += np.abs(rot).sum(axis=1)
        bad = np.flatnonzero(~(size[1:] < 1e15))
        if len(bad):
            raise RolloutDiverged(int(bad[0]) + 1, (int(bad[0]) + 1) * dt)
    return times, positions, rot, gq


# ---------------------------------------------------------------------------
# serialization: floats go through json's repr round trip, so save -> load is
# bit-exact

_DMP_KEYS = (
    "alpha_s", "alpha_z", "beta_z", "tau", "N",
    "centers", "widths", "weights", "demo_start", "demo_goal",
)


def _pose_from_dict(d: dict, where: str) -> Pose:
    return json_pose(require_keys(d, ("position", "orientation"), where), where)


def dmp_to_dict(dmp: PoseDmp) -> dict:
    return {
        "alpha_s": dmp.alpha_s,
        "alpha_z": dmp.alpha_z,
        "beta_z": dmp.beta_z,
        "tau": dmp.tau,
        "N": dmp.n_basis,
        "centers": dmp.centers.tolist(),
        "widths": dmp.widths.tolist(),
        "weights": dmp.weights.tolist(),
        "demo_start": pose_json(dmp.demo_start),
        "demo_goal": pose_json(dmp.demo_goal),
    }


def dmp_from_dict(d: dict, path: str = "<primitive>") -> PoseDmp:
    """The primitive a parsed JSON document describes; a malformed one is a
    ParseError naming the offending key."""
    try:
        require_keys(d, _DMP_KEYS, "primitive")
        centers = json_floats(d, "centers", (None,), "primitive")
        n = len(centers)
        if isinstance(d["N"], bool) or d["N"] != n:
            raise ValueError(f"N = {d['N']!r} does not match {n} centers")
        return PoseDmp(
            **{key: json_floats(d, key, (), "primitive") for key in ("alpha_s", "alpha_z", "beta_z", "tau")},
            centers=centers,
            widths=json_floats(d, "widths", (n,), "primitive"),
            weights=json_floats(d, "weights", (6, n), "primitive"),
            demo_start=_pose_from_dict(d["demo_start"], "primitive.demo_start"),
            demo_goal=_pose_from_dict(d["demo_goal"], "primitive.demo_goal"),
        )
    except ValueError as exc:
        raise ParseError(path, 0, "primitive", str(exc)) from None


def save_dmp(dmp: PoseDmp, path) -> None:
    write_json(path, dmp_to_dict(dmp))


def load_dmp(path) -> PoseDmp:
    return dmp_from_dict(read_json(path), str(path))
