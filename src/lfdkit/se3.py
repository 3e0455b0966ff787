"""Rigid-body primitives shared by every stage of the pipeline.

Conventions, fixed once and used everywhere:

* a rotation is a unit quaternion, a scalar-first ``(w, x, y, z)`` tuple of
  floats, composed with the Hamilton product; :attr:`Pose.orientation` holds
  one as given, checked for unit norm but never renormalized
* :func:`quat_normalize`, and every kernel that returns through it,
  canonicalizes to the ``w >= 0`` hemisphere so each rotation has exactly
  one representation; :func:`from_rotation_vector` past a half turn is the
  one path that leaves it
* a rotation vector is full-angle, ``theta * u`` for the rotation of
  ``theta`` about the unit axis ``u``: :func:`from_rotation_vector` is the
  exp map and :func:`rotation_vector_wxyz` the log map
* per-tick loops go through the ``*_wxyz`` float-tuple kernels; whole
  trajectories go through one log chart at a reference orientation:
  :func:`chart_rows` maps ``(n, 4)`` quaternions to ``(n, 3)`` full-angle
  rotation vectors from the reference, and :func:`unchart_rows` maps them
  back, row by row
* units are meters, seconds, newtons, and radians throughout
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Pose",
    "from_rotation_vector",
    "rotation_between",
    "quat_normalize",
    "quat_mul_wxyz",
    "quat_conj_wxyz",
    "quat_rotate_wxyz",
    "quat_matrix_wxyz",
    "rotation_vector_wxyz",
    "quat_canonicalize_rows",
    "BadOrientationRow",
    "chart_rows",
    "unchart_rows",
]

_ZERO_NORM_TOL = 1e-12


class BadOrientationRow(ValueError):
    """An orientation row that is not finite or has no norm; carries the
    index of the first such row."""

    def __init__(self, row: int) -> None:
        self.row = row
        super().__init__("orientation rows must be finite and nonzero")


def quat_normalize(
    w: float, x: float, y: float, z: float, raw: bool = False
) -> tuple[float, float, float, float]:
    """Divide by the norm and, unless ``raw``, flip onto the canonical
    hemisphere: w >= 0, and on a tie the first nonzero of x, y, z positive.
    The rule of :func:`quat_canonicalize_rows`: finite entries whose squares
    overflow are first divided by the power of two of the largest, so every
    finite quaternion of norm 1e-12 or more normalizes."""
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if not _ZERO_NORM_TOL <= n < math.inf:
        big = max(abs(w), abs(x), abs(y), abs(z))
        if not (n == math.inf and big < math.inf):  # n is nan when an entry is
            raise ValueError(f"quaternion norm {n:.6g} is zero or not finite")
        e = -math.frexp(big)[1]  # exact, and it leaves every entry below 1 in magnitude
        w, x, y, z = math.ldexp(w, e), math.ldexp(x, e), math.ldexp(y, e), math.ldexp(z, e)
        n = math.sqrt(w * w + x * x + y * y + z * z)
    w, x, y, z = w / n, x / n, y / n, z / n
    if not raw and (w < 0.0 or (w == 0.0 and (x < 0.0 or (x == 0.0 and (y < 0.0 or (y == 0.0 and z < 0.0)))))):
        return -w, -x, -y, -z
    return w, x, y, z


def from_rotation_vector(r) -> tuple[float, float, float, float]:
    """The exp map: the rotation of full-angle vector r, angle below 2*pi,
    the inverse of :func:`rotation_vector_wxyz` there.

    The result is deliberately NOT canonicalized: past a half turn the
    scalar part is negative, and flipping it would break the round trip
    rotation_vector(exp(r)) = r. Anything composed from it through
    :func:`quat_mul_wxyz` lands back on the canonical hemisphere. A tuple
    is read as it is; any other sequence becomes Python floats first.
    """
    x, y, z = r if type(r) is tuple else np.asarray(r, dtype=float).tolist()
    x, y, z = 0.5 * x, 0.5 * y, 0.5 * z
    n = math.sqrt(x * x + y * y + z * z)  # half the angle
    if not n < math.pi:
        raise ValueError(f"rotation-vector norm {2.0 * n:.6g} is outside the domain [0, 2 pi)")
    s = 1.0 - n * n / 6.0 if n < 1e-8 else math.sin(n) / n
    return quat_normalize(math.cos(n), s * x, s * y, s * z, raw=True)


def rotation_between(u, v) -> tuple[float, float, float, float]:
    """Minimal rotation taking unit vector u onto unit vector v."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    un = np.linalg.norm(u)
    vn = np.linalg.norm(v)
    if un < _ZERO_NORM_TOL or vn < _ZERO_NORM_TOL:
        raise ValueError("cannot align a zero-length vector")
    u = u / un
    v = v / vn
    ut = u.tolist()
    cross = np.array(_cross(ut, v.tolist()))
    c = float(cross @ cross) ** 0.5
    d = float(u @ v)
    if c < 1e-12:
        if d > 0.0:
            return 1.0, 0.0, 0.0, 0.0
        # antiparallel: rotate pi about any axis orthogonal to u
        axis = np.array(_cross(ut, (1.0, 0.0, 0.0)))
        if np.linalg.norm(axis) < 1e-6:
            axis = np.array(_cross(ut, (0.0, 1.0, 0.0)))
        axis = axis / np.linalg.norm(axis)
        return quat_normalize(0.0, *axis.tolist())
    angle = math.atan2(c, d)
    return from_rotation_vector(tuple(angle * (k / c) for k in cross.tolist()))


# ---------------------------------------------------------------------------
# float-tuple kernels: the scalar quaternion maps on (w, x, y, z) tuples of
# floats, and the cross product of 3-vectors


def _cross(a, b) -> tuple[float, float, float]:
    """a x b for two sequences of three floats, in the order of operations
    of numpy's cross product, so with its bits."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0


def quat_mul_wxyz(
    a: tuple[float, float, float, float], b: tuple[float, float, float, float]
) -> tuple[float, float, float, float]:
    """Hamilton product a*b, renormalized and canonicalized."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return quat_normalize(
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by + ay * bw + az * bx - ax * bz,
        aw * bz + az * bw + ax * by - ay * bx,
    )


def quat_conj_wxyz(q: tuple[float, float, float, float]) -> tuple[float, float, float, float]:
    """The inverse rotation, canonicalized."""
    w, x, y, z = q
    return quat_normalize(w, -x, -y, -z)


def quat_rotate_wxyz(q: tuple[float, float, float, float], v) -> np.ndarray:
    """Rotate a 3-vector: q * (0, v) * conj(q)."""
    if type(v) is np.ndarray and v.dtype == np.float64 and v.ndim == 1:
        vx, vy, vz = v.tolist()
    else:
        vx, vy, vz = (float(c) for c in v)
    w, x, y, z = q
    # t = 2 * (q_vec x v); v' = v + w*t + q_vec x t
    tx = 2.0 * (y * vz - z * vy)
    ty = 2.0 * (z * vx - x * vz)
    tz = 2.0 * (x * vy - y * vx)
    return np.array(
        [
            vx + w * tx + (y * tz - z * ty),
            vy + w * ty + (z * tx - x * tz),
            vz + w * tz + (x * ty - y * tx),
        ]
    )


def quat_matrix_wxyz(q: tuple[float, float, float, float]) -> np.ndarray:
    """3x3 rotation matrix: ``quat_matrix_wxyz(q) @ v`` rotates v like
    :func:`quat_rotate_wxyz`."""
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def rotation_vector_wxyz(q: tuple[float, float, float, float]) -> tuple[float, float, float]:
    """The log map: full-angle rotation vector theta*u as a 3-tuple.

    Accepts any unit quaternion (w < 0 included, as
    :func:`from_rotation_vector` returns past a half turn); the identity
    maps to the zero vector.
    """
    w, x, y, z = q
    vn = math.sqrt(x * x + y * y + z * z)
    if vn < 1e-12:
        if w < 0.0:
            # -identity: same rotation as identity but the angle would be 2 pi
            # with an undefined axis; canonical inputs never reach this.
            return 0.0, 0.0, 0.0
        return 2.0 * (x / w), 2.0 * (y / w), 2.0 * (z / w)
    k = math.atan2(vn, w) / vn
    return 2.0 * (k * x), 2.0 * (k * y), 2.0 * (k * z)


# ---------------------------------------------------------------------------
# row kernels: arrays with one quaternion (w, x, y, z) or one vector per row;
# a single reference row stands for all

_CONJ = np.array([1.0, -1.0, -1.0, -1.0])


def quat_canonicalize_rows(quats: np.ndarray) -> np.ndarray:
    """Renormalize each row and flip it onto the w >= 0 hemisphere, with the
    tie-break of :func:`quat_normalize`. Rows already unit within 1e-12 keep
    their values bit for bit. A row whose squares overflow is first divided
    by the power of two of its largest entry, so every finite row of norm
    1e-12 or more normalizes; any other raises :class:`BadOrientationRow`."""
    with np.errstate(over="ignore"):  # a finite row it would warn about is scaled; an infinite one is refused
        norms = np.linalg.norm(quats, axis=1)
        q = quats.copy()
        big = norms == math.inf
        if big.any():
            # exact, and it leaves every finite entry below 1 in magnitude
            q[big] = np.ldexp(q[big], -np.frexp(np.abs(q[big]).max(axis=1, keepdims=True))[1])
            norms[big] = np.linalg.norm(q[big], axis=1)
    bad = ~((norms >= _ZERO_NORM_TOL) & (norms < math.inf))
    if bad.any():
        raise BadOrientationRow(int(np.argmax(bad)))
    off = np.abs(norms - 1.0) > 1e-12
    q[off] /= norms[off, None]
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    flip = (w < 0) | ((w == 0) & ((x < 0) | ((x == 0) & ((y < 0) | ((y == 0) & (z < 0))))))
    q[flip] *= -1.0
    return q


def _mul_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a*b per row, neither renormalized nor canonicalized."""
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by + ay * bw + az * bx - ax * bz,
            aw * bz + az * bw + ax * by - ay * bx,
        ],
        axis=-1,
    )


def chart_rows(q: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """The log chart at ``ref``: per row, the full-angle, shortest-arc
    rotation vector taking ``ref`` onto ``q``, i.e.
    ``rotation_vector_wxyz(quat_mul_wxyz(q, quat_conj_wxyz(ref)))``. Every
    angle lies in [0, pi]."""
    d = quat_canonicalize_rows(_mul_rows(q, ref * _CONJ))
    v = d[:, 1:]
    vn = np.linalg.norm(v, axis=1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        k = np.where(vn < 1e-12, 1.0 / d[:, 0], np.arctan2(vn, d[:, 0]) / vn)
    return (2.0 * k)[:, None] * v


def unchart_rows(e: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """The map back from the chart at ``ref``: per row, the rotation of
    full-angle vector ``e`` composed onto ``ref``, as
    ``quat_mul_wxyz(from_rotation_vector(e), ref)`` but neither renormalized
    nor canonicalized. The map is defined for every vector; one of 2 pi or
    more is the same rotation as the vector wrapped along its axis."""
    e = np.asarray(e, dtype=float)
    n = 0.5 * np.linalg.norm(e, axis=1)  # the half-angle norm, exact
    x = np.column_stack([np.cos(n), np.sinc(n / math.pi)[:, None] * (0.5 * e)])  # sinc(n/pi) = sin(n)/n
    return _mul_rows(x / np.linalg.norm(x, axis=1)[:, None], ref)


@dataclass(frozen=True)
class Pose:
    """Position plus orientation; the universal configuration value."""

    position: np.ndarray
    orientation: tuple[float, float, float, float] = (1.0, 0.0, 0.0, 0.0)

    def __post_init__(self) -> None:
        p = np.array(self.position, dtype=float).reshape(3)
        if not np.all(np.isfinite(p)):
            raise ValueError("pose position must be finite")
        p.flags.writeable = False
        object.__setattr__(self, "position", p)
        # kept as given: renormalizing a kernel's unit result would move
        # about a third of them by an ulp
        q = tuple(float(c) for c in self.orientation)
        unit = len(q) == 4 and abs(math.sqrt(sum(c * c for c in q)) - 1.0) <= 1e-9  # False for nan and inf
        if not unit:
            raise ValueError("pose orientation must be 4 finite numbers (w, x, y, z) of unit norm")
        object.__setattr__(self, "orientation", q)

    def transform_point(self, p) -> np.ndarray:
        return self.position + quat_rotate_wxyz(self.orientation, p)

    def transform_direction(self, d) -> np.ndarray:
        return quat_rotate_wxyz(self.orientation, d)

    def inverse(self) -> "Pose":
        qi = quat_conj_wxyz(self.orientation)
        return Pose(quat_rotate_wxyz(qi, -self.position), qi)
