"""Timestamped pose trajectories: storage, CSV round-trips, resampling,
and finite differences.

The CSV layout is the package's on-disk interchange format::

    t,px,py,pz,qw,qx,qy,qz[,fx,fy,fz,tx,ty,tz]

with the wrench block present iff the trajectory carries wrenches. Floats are
written with 9 significant digits, which keeps files deterministic and is far
below the tolerances of anything consuming them.

Every file the package reads or writes goes through the ASCII-only
:func:`read_text`/:func:`write_text`, or :func:`read_json`/:func:`write_json`.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .se3 import Pose, chart_rows, quat_canonicalize_rows, quat_normalize, unchart_rows

__all__ = [
    "Trajectory",
    "ParseError",
    "finite_difference",
    "resample_trajectory",
    "load_trajectory_csv",
    "fmt_float",
    "read_text",
    "write_text",
    "read_json",
    "write_json",
]

_BASE_COLUMNS = ["t", "px", "py", "pz", "qw", "qx", "qy", "qz"]
_WRENCH_COLUMNS = ["fx", "fy", "fz", "tx", "ty", "tz"]


_FLOAT_FORMAT = "%.9g"


def fmt_float(x: float) -> str:
    """Fixed 9-significant-digit rendering used by every CSV emitter."""
    return _FLOAT_FORMAT % float(x)


def _brief_repr(value: object) -> str:
    """``repr(value)`` for an error message, except that an integer past 64
    bits shows its first and last digits and its digit count, so a range
    error on a huge value stays one short line."""
    if not isinstance(value, int) or value.bit_length() <= 64:
        return repr(value)
    text = str(value)
    return f"{text[:8]}...{text[-4:]} ({len(text.lstrip('-'))} digits)"


# the range rules every module and the config state in one phrasing,
# "<name> must be <rule>, got <value>"; each also rejects NaN and infinity
def _positive(name: str, value: float) -> None:
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {_brief_repr(value)}")
    _finite(name, value)


def _at_least(name: str, value: float, low: int, high: int | None = None) -> None:
    """``value >= low``, and ``value <= high`` when a high bound is given."""
    if not value >= low:
        raise ValueError(f"{name} must be at least {low}, got {_brief_repr(value)}")
    if high is not None and not value <= high:
        raise ValueError(f"{name} must be at most {high}, got {_brief_repr(value)}")
    _finite(name, value)


def _finite(name: str, value: object) -> None:
    """Reject a non-finite float, or a tuple holding one."""
    items = value if isinstance(value, tuple) else (value,)
    if any(isinstance(v, float) and not math.isfinite(v) for v in items):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _check_seed(seed: int) -> None:
    """The seed rule: numpy seeds only nonnegative integers."""
    _at_least("seed", seed, 0)


class ParseError(ValueError):
    """Malformed file content; carries file, line, and field for CLI reporting."""

    def __init__(self, path: str, line: int, field: str, message: str) -> None:
        self.path = str(path)
        self.line = line
        self.field = field
        self.message = message
        super().__init__(f"{self.path}:{line}: field '{field}': {message}")


def read_text(path) -> str:
    """A whole input file as text; a byte outside ASCII is a ParseError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("ascii")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ParseError(path, line, "text", f"non-ASCII byte 0x{raw[exc.start]:02x}") from None


def write_text(path, text: str) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)


def read_json(path) -> Any:
    text = read_text(path)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad syntax, an int past the digit limit, deep nesting
        raise ParseError(path, getattr(exc, "lineno", 0), "json", getattr(exc, "msg", str(exc))) from None


def write_json(path, doc: Any) -> None:
    """Indented ASCII JSON; a NaN or infinity, which strict parsers reject,
    raises ValueError instead of being written."""
    write_text(path, json.dumps(doc, indent=2, allow_nan=False) + "\n")


def require_keys(obj: Any, keys: tuple[str, ...], where: str) -> dict:
    """``obj`` as a JSON object with exactly ``keys``. This and the other
    readers of parsed documents raise ValueError naming the offending field;
    each document loader reports it as one ParseError."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be an object, got {type(obj).__name__}")
    for key in obj:
        if key not in keys:
            raise ValueError(f"unknown key '{key}' in {where}")
    for key in keys:
        if key not in obj:
            raise ValueError(f"missing key '{key}' in {where}")
    return obj


def _numbers(value: Any) -> bool:
    if isinstance(value, list):
        return all(_numbers(v) for v in value)
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def json_floats(obj: dict, key: str, shape: tuple[int | None, ...], where: str) -> Any:
    """``obj[key]`` as a finite number (``shape`` ``()``; returned as a float)
    or nested number lists as a float array of ``shape``, where None is any
    length above 0."""
    value, where = obj[key], f"{where}.{key}"
    try:
        arr = np.array(value, dtype=float) if _numbers(value) else None
    except (ValueError, OverflowError):  # ragged lists; ints past the float range
        arr = None
    fits = arr is not None and arr.ndim == len(shape)
    if not (fits and all(m > 0 if n is None else m == n for n, m in zip(shape, arr.shape))):
        raise ValueError(f"{where} must be {f'numbers of shape {shape}' if shape else 'a number'}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{where} must be finite")
    return arr if shape else float(arr)


def json_pose(obj: dict, where: str) -> Pose:
    """The ``position`` and ``orientation`` (w, x, y, z) entries of a JSON object."""
    q = quat_normalize(*json_floats(obj, "orientation", (4,), where).tolist())
    return Pose(json_floats(obj, "position", (3,), where), q)


def pose_json(p: Pose) -> dict:
    return {"position": p.position.tolist(), "orientation": list(p.orientation)}


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

    def is_uniform(self) -> bool:
        """Every time step within a relative 1e-6 of their mean."""
        if len(self.times) < 2:
            return True
        dt = np.diff(self.times)
        return bool(np.all(np.abs(dt - dt.mean()) <= 1e-6 * dt.mean() + 1e-12))

    @property
    def median_dt(self) -> float:
        if len(self.times) < 2:
            raise ValueError("need at least 2 samples for a time step")
        return float(np.median(np.diff(self.times)))

    def save_csv(self, path) -> None:
        cols = _BASE_COLUMNS + (_WRENCH_COLUMNS if self.wrenches is not None else [])
        blocks = [self.times[:, None], self.positions, self.orientations]
        if self.wrenches is not None:
            blocks.append(self.wrenches)
        row = ",".join([_FLOAT_FORMAT] * len(cols))
        lines = [",".join(cols)] + [row % tuple(r) for r in np.hstack(blocks).tolist()]
        write_text(path, "\n".join(lines) + "\n")


def load_trajectory_csv(path) -> Trajectory:
    raw = read_text(path).splitlines()
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
    if len(t) == 2:  # order 1: one slope serves both samples
        slope = (v[1] - v[0]) / (t[1] - t[0])
        v = np.stack([slope, slope])
    else:
        # the weights depend on the times only, so every pass shares them
        a, b, c = t[:-2], t[1:-1], t[2:]
        wa, wb, wc = (w[:, None] for w in _three_point_weights(a, b, c, b))
        first = _three_point_weights(t[0], t[1], t[2], t[0])
        last = _three_point_weights(t[-3], t[-2], t[-1], t[-1])
        for _ in range(order):
            out = np.empty_like(v)
            out[1:-1] = wa * v[:-2] + wb * v[1:-1] + wc * v[2:]
            out[0] = first[0] * v[0] + first[1] * v[1] + first[2] * v[2]
            out[-1] = last[0] * v[-3] + last[1] * v[-2] + last[2] * v[-1]
            v = out
    return v[:, 0] if squeeze else v


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
    quats = unchart_rows(u[:, None] * chart_rows(traj.orientations[idx + 1], qa), qa)  # the short way round

    # endpoints are the original samples, bit for bit
    pos[0] = traj.positions[0]
    pos[-1] = traj.positions[-1]
    quats[0] = traj.orientations[0]
    quats[-1] = traj.orientations[-1]
    if wr is not None:
        wr[0] = traj.wrenches[0]
        wr[-1] = traj.wrenches[-1]
    return Trajectory(grid, pos, quats, wr)
