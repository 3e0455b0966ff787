"""Timestamped pose trajectories: storage, CSV round-trips, resampling,
and finite differences.

The CSV layout is the package's on-disk interchange format::

    t,px,py,pz,qw,qx,qy,qz[,fx,fy,fz,tx,ty,tz]

with the wrench block present iff the trajectory carries wrenches. Floats are
written with 9 significant digits, which keeps files deterministic and is far
below the tolerances of anything consuming them.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .se3 import Pose, UnitQuaternion, Wrench, quat_canonicalize_rows, quat_mul_rows
from .se3 import from_rotation_vector_rows, relative_rotation_vector_rows

__all__ = [
    "Trajectory",
    "ParseError",
    "finite_difference",
    "resample_trajectory",
    "load_trajectory_csv",
    "fmt_float",
]

_BASE_COLUMNS = ["t", "px", "py", "pz", "qw", "qx", "qy", "qz"]
_WRENCH_COLUMNS = ["fx", "fy", "fz", "tx", "ty", "tz"]


def fmt_float(x: float) -> str:
    """Fixed 9-significant-digit rendering used by every CSV emitter."""
    return format(float(x), ".9g")


class ParseError(ValueError):
    """Malformed file content; carries file, line, and field for CLI reporting."""

    def __init__(self, path: str, line: int, field: str, message: str) -> None:
        self.path = str(path)
        self.line = line
        self.field = field
        self.message = message
        super().__init__(f"{self.path}:{line}: field '{field}': {message}")


class Trajectory:
    """Pose (optionally wrench) series on strictly increasing timestamps.

    Backed by plain numpy arrays; rows are copied in and frozen.
    """

    def __init__(
        self,
        times: np.ndarray,
        positions: np.ndarray,
        orientations: np.ndarray,
        wrenches: np.ndarray | None = None,
    ) -> None:
        t = np.array(times, dtype=float).reshape(-1)
        p = np.array(positions, dtype=float).reshape(len(t), 3)
        q = np.array(orientations, dtype=float).reshape(len(t), 4)
        if not np.all(np.isfinite(t)):
            raise ValueError("timestamps must be finite")
        if len(t) > 1 and not np.all(np.diff(t) > 0):
            raise ValueError("timestamps must be strictly increasing")
        if not np.all(np.isfinite(p)):
            raise ValueError("positions must be finite")
        q = quat_canonicalize_rows(q)
        w = None
        if wrenches is not None:
            w = np.array(wrenches, dtype=float).reshape(len(t), 6)
            if not np.all(np.isfinite(w)):
                raise ValueError("wrenches must be finite")
            w.flags.writeable = False
        for arr in (t, p, q):
            arr.flags.writeable = False
        self.times = t
        self.positions = p
        self.orientations = q
        self.wrenches = w

    def __len__(self) -> int:
        return len(self.times)

    @property
    def duration(self) -> float:
        if len(self.times) == 0:
            return 0.0
        return float(self.times[-1] - self.times[0])

    @property
    def has_wrenches(self) -> bool:
        return self.wrenches is not None

    def pose(self, i: int) -> Pose:
        return Pose(self.positions[i], UnitQuaternion.from_array(self.orientations[i]))

    def is_uniform(self, rtol: float = 1e-6) -> bool:
        if len(self.times) < 2:
            return True
        dt = np.diff(self.times)
        return bool(np.all(np.abs(dt - dt.mean()) <= rtol * dt.mean() + 1e-12))

    @property
    def median_dt(self) -> float:
        if len(self.times) < 2:
            raise ValueError("need at least 2 samples for a time step")
        return float(np.median(np.diff(self.times)))

    @classmethod
    def from_poses(
        cls,
        times: Sequence[float],
        poses: Iterable[Pose],
        wrenches: Iterable[Wrench] | None = None,
    ) -> "Trajectory":
        ps = list(poses)
        pos = np.array([p.position for p in ps])
        ori = np.array([p.orientation.as_array() for p in ps])
        wr = None
        if wrenches is not None:
            wr = np.array([w.as_array() for w in wrenches])
        return cls(np.asarray(times, dtype=float), pos, ori, wr)

    def save_csv(self, path) -> None:
        cols = _BASE_COLUMNS + (_WRENCH_COLUMNS if self.has_wrenches else [])
        lines = [",".join(cols)]
        for i in range(len(self)):
            row = [self.times[i], *self.positions[i], *self.orientations[i]]
            if self.wrenches is not None:
                row.extend(self.wrenches[i])
            lines.append(",".join(fmt_float(v) for v in row))
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")


def load_trajectory_csv(path) -> Trajectory:
    with open(path, "r", encoding="ascii") as fh:
        raw = fh.read().splitlines()
    if not raw:
        raise ParseError(path, 1, "header", "empty file")
    header = [c.strip() for c in raw[0].split(",")]
    if header == _BASE_COLUMNS:
        with_wrench = False
    elif header == _BASE_COLUMNS + _WRENCH_COLUMNS:
        with_wrench = True
    else:
        raise ParseError(path, 1, "header", f"expected '{','.join(_BASE_COLUMNS)}[,fx,...]', got '{raw[0]}'")
    ncol = len(header)
    rows = []
    for lineno, line in enumerate(raw[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != ncol:
            raise ParseError(path, lineno, header[min(len(parts), ncol) - 1], f"expected {ncol} columns, got {len(parts)}")
        vals = []
        for col, part in zip(header, parts):
            try:
                v = float(part)
            except ValueError:
                raise ParseError(path, lineno, col, f"not a number: '{part.strip()}'") from None
            if not math.isfinite(v):
                raise ParseError(path, lineno, col, f"not finite: '{part.strip()}'")
            vals.append(v)
        rows.append(vals)
    if not rows:
        raise ParseError(path, 2, "t", "no samples")
    data = np.array(rows)
    times = data[:, 0]
    if np.any(np.diff(times) <= 0):
        bad = int(np.argmax(np.diff(times) <= 0)) + 1
        raise ParseError(path, bad + 2, "t", "timestamps must be strictly increasing")
    wr = data[:, 8:14] if with_wrench else None
    try:
        return Trajectory(times, data[:, 1:4], data[:, 4:8], wr)
    except ValueError as e:
        raise ParseError(path, 2, "qw", str(e)) from None


def _three_point_weights(a, b, c, te):
    """Derivative weights of the quadratic through (a, b, c) evaluated at te.

    Exact for quadratics on arbitrary (non-uniform) spacing; reduces to the
    classic central / one-sided second-order stencils on uniform grids.
    """
    wa = (2 * te - b - c) / ((a - b) * (a - c))
    wb = (2 * te - a - c) / ((b - a) * (b - c))
    wc = (2 * te - a - b) / ((c - a) * (c - b))
    return wa, wb, wc


def finite_difference(times: np.ndarray, values: np.ndarray, order: int = 1) -> np.ndarray:
    """Differentiate a sampled series, returning values on the same timestamps.

    Central differences in the interior, one-sided second-order stencils at
    the ends. ``order=k`` is defined as k repeated first-order passes, so the
    composition property holds by construction.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    t = np.asarray(times, dtype=float).reshape(-1)
    v = np.asarray(values, dtype=float)
    if v.shape[0] != t.shape[0]:
        raise ValueError("times and values disagree on sample count")
    if len(t) < order + 1:
        raise ValueError(f"order-{order} difference needs at least {order + 1} samples, got {len(t)}")
    squeeze = v.ndim == 1
    if squeeze:
        v = v[:, None]
    for _ in range(order):
        v = _first_difference(t, v)
    return v[:, 0] if squeeze else v


def _first_difference(t: np.ndarray, v: np.ndarray) -> np.ndarray:
    n = len(t)
    out = np.empty_like(v)
    if n == 2:
        slope = (v[1] - v[0]) / (t[1] - t[0])
        out[0] = slope
        out[1] = slope
        return out
    a, b, c = t[:-2], t[1:-1], t[2:]
    wa, wb, wc = _three_point_weights(a, b, c, b)
    out[1:-1] = wa[:, None] * v[:-2] + wb[:, None] * v[1:-1] + wc[:, None] * v[2:]
    wa, wb, wc = _three_point_weights(t[0], t[1], t[2], t[0])
    out[0] = wa * v[0] + wb * v[1] + wc * v[2]
    wa, wb, wc = _three_point_weights(t[-3], t[-2], t[-1], t[-1])
    out[-1] = wa * v[-3] + wb * v[-2] + wc * v[-1]
    return out


def resample_trajectory(traj: Trajectory, dt: float) -> Trajectory:
    """Resample onto a dt grid: linear in position (and wrench), slerp in
    orientation, endpoints preserved exactly.

    When the span is not an integer multiple of dt, the final sample is pinned
    to the exact end time, so the last interval may be shorter than dt.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if len(traj) == 0:
        raise ValueError("cannot resample an empty trajectory")
    span = traj.duration
    if span < dt:
        raise ValueError(f"trajectory span {span:.6g} is shorter than dt {dt:.6g}")
    t0 = float(traj.times[0])
    tend = float(traj.times[-1])
    steps = int(math.floor(span / dt + 1e-9))
    grid = t0 + dt * np.arange(steps + 1)
    if tend - grid[-1] > 1e-9 * dt:
        grid = np.append(grid, tend)
    else:
        grid[-1] = tend

    src_t = traj.times
    idx = np.clip(np.searchsorted(src_t, grid, side="right") - 1, 0, len(src_t) - 2)
    seg = src_t[idx + 1] - src_t[idx]
    u = np.clip((grid - src_t[idx]) / seg, 0.0, 1.0)

    pos = traj.positions[idx] + u[:, None] * (traj.positions[idx + 1] - traj.positions[idx])
    wr = None
    if traj.wrenches is not None:
        wr = traj.wrenches[idx] + u[:, None] * (traj.wrenches[idx + 1] - traj.wrenches[idx])

    qa = traj.orientations[idx]
    rel = relative_rotation_vector_rows(traj.orientations[idx + 1], qa)  # the short way round
    quats = quat_mul_rows(from_rotation_vector_rows(u[:, None] * rel), qa)

    # endpoints are the original samples, bit for bit
    pos[0] = traj.positions[0]
    pos[-1] = traj.positions[-1]
    quats[0] = traj.orientations[0]
    quats[-1] = traj.orientations[-1]
    if wr is not None:
        wr[0] = traj.wrenches[0]
        wr[-1] = traj.wrenches[-1]
    return Trajectory(grid, pos, quats, wr)
