"""Rigid-body primitives shared by every stage of the pipeline.

Conventions, fixed once and used everywhere:

* a rotation is a unit quaternion, a scalar-first ``(w, x, y, z)`` tuple of
  floats, composed with the Hamilton product; :attr:`Pose.orientation` holds
  one as given, checked for unit norm but never renormalized
* :func:`quat_normalize`, and every kernel that returns through it,
  canonicalizes to the ``w >= 0`` hemisphere so each rotation has exactly
  one representation; :func:`from_rotation_vector` past a half turn is the
  one path that leaves it (see :func:`quat_exp_wxyz`)
* ``quat_log_wxyz``/``quat_exp_wxyz`` use the half-angle convention
  ``log(q) = (theta/2) * u`` for ``q = (cos(theta/2), u*sin(theta/2))``,
  so a full-angle rotation vector is ``2 * log(q)``
* per-tick loops go through the ``*_wxyz`` float-tuple kernels; whole
  trajectories go through the ``*_rows`` kernels, which apply the same maps
  to ``(n, 4)`` quaternion and ``(n, 3)`` vector arrays row by row
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
    "quat_log_wxyz",
    "quat_exp_wxyz",
    "rotation_vector_wxyz",
    "slerp_wxyz",
    "quat_mul_rows",
    "quat_conj_rows",
    "quat_canonicalize_rows",
    "rotation_vector_rows",
    "from_rotation_vector_rows",
    "relative_rotation_vector_rows",
]

_ZERO_NORM_TOL = 1e-12


def _needs_flip(w: float, x: float, y: float, z: float) -> bool:
    if w != 0.0:
        return w < 0.0
    for c in (x, y, z):
        if c != 0.0:
            return c < 0.0
    return False


def quat_normalize(
    w: float, x: float, y: float, z: float, raw: bool = False
) -> tuple[float, float, float, float]:
    """Divide by the norm and, unless ``raw``, flip onto the canonical
    hemisphere."""
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if not _ZERO_NORM_TOL <= n < math.inf:  # as quat_canonicalize_rows: squares past 1e308 overflow
        raise ValueError(f"quaternion norm {n:.6g} is zero or not finite")
    w, x, y, z = w / n, x / n, y / n, z / n
    if not raw and (w < 0.0 or (w == 0.0 and _needs_flip(w, x, y, z))):
        return -w, -x, -y, -z
    return w, x, y, z


def from_rotation_vector(r) -> tuple[float, float, float, float]:
    """The rotation of full-angle vector r (angle below 2*pi), through
    :func:`quat_exp_wxyz`: past a half turn it keeps w < 0."""
    return quat_exp_wxyz(tuple((0.5 * np.asarray(r, dtype=float)).tolist()))


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
    c = float(np.cross(u, v) @ np.cross(u, v)) ** 0.5
    d = float(u @ v)
    if c < 1e-12:
        if d > 0.0:
            return 1.0, 0.0, 0.0, 0.0
        # antiparallel: rotate pi about any axis orthogonal to u
        axis = np.cross(u, [1.0, 0.0, 0.0])
        if np.linalg.norm(axis) < 1e-6:
            axis = np.cross(u, [0.0, 1.0, 0.0])
        axis = axis / np.linalg.norm(axis)
        return quat_normalize(0.0, *axis.tolist())
    axis = np.cross(u, v) / c
    angle = math.atan2(c, d)
    return from_rotation_vector(angle * axis)


# ---------------------------------------------------------------------------
# float-tuple kernels: the scalar quaternion maps on (w, x, y, z) tuples of
# floats


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


def quat_log_wxyz(q: tuple[float, float, float, float]) -> tuple[float, float, float]:
    """Half-angle log map: (theta/2) * u as a 3-tuple.

    Accepts any unit quaternion (w < 0 included, as :func:`quat_exp_wxyz`
    returns past a half turn); the identity maps to the zero vector.
    """
    w, x, y, z = q
    vn = math.sqrt(x * x + y * y + z * z)
    if vn < 1e-12:
        if w < 0.0:
            # -identity: same rotation as identity but log would sit at theta/2 = pi
            # with an undefined axis; canonical inputs never reach this.
            return 0.0, 0.0, 0.0
        return x / w, y / w, z / w
    k = math.atan2(vn, w) / vn
    return k * x, k * y, k * z


def quat_exp_wxyz(v: tuple[float, float, float]) -> tuple[float, float, float, float]:
    """Half-angle exp map, the exact inverse of :func:`quat_log_wxyz` for
    ||v|| < pi.

    The result is deliberately NOT canonicalized: for ||v|| in (pi/2, pi) the
    scalar part is negative, and flipping it would break the round trip
    log(exp(v)) = v. Anything composed from it through :func:`quat_mul_wxyz`
    lands back on the canonical hemisphere.
    """
    vx, vy, vz = v
    n = math.sqrt(vx * vx + vy * vy + vz * vz)
    if n >= math.pi:
        raise ValueError(f"rotation-vector norm {n:.6g} is outside the domain [0, pi)")
    s = 1.0 - n * n / 6.0 if n < 1e-8 else math.sin(n) / n
    return quat_normalize(math.cos(n), s * vx, s * vy, s * vz, raw=True)


def rotation_vector_wxyz(q: tuple[float, float, float, float]) -> tuple[float, float, float]:
    """Full-angle rotation vector theta*u (twice the log)."""
    lx, ly, lz = quat_log_wxyz(q)
    return 2.0 * lx, 2.0 * ly, 2.0 * lz


def slerp_wxyz(
    a: tuple[float, float, float, float], b: tuple[float, float, float, float], u: float
) -> tuple[float, float, float, float]:
    """Spherical-linear interpolation along the shorter arc, u in [0, 1]."""
    # b * conj(a) is canonical, so always the short way round
    lx, ly, lz = quat_log_wxyz(quat_mul_wxyz(b, quat_conj_wxyz(a)))
    return quat_mul_wxyz(quat_exp_wxyz((u * lx, u * ly, u * lz)), a)


# ---------------------------------------------------------------------------
# row kernels: the maps above over arrays with one quaternion (w, x, y, z) or
# one vector per row; products broadcast, so a single row may stand for all

_CONJ = np.array([1.0, -1.0, -1.0, -1.0])


def quat_mul_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a*b per row, neither renormalized nor canonicalized
    (follow with :func:`quat_canonicalize_rows` for what :func:`quat_mul_wxyz`
    returns)."""
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


def quat_conj_rows(q: np.ndarray) -> np.ndarray:
    return q * _CONJ


def quat_canonicalize_rows(quats: np.ndarray) -> np.ndarray:
    """Renormalize each row and flip it onto the w >= 0 hemisphere, with the
    tie-break of :func:`quat_normalize`. Rows already unit within 1e-12 keep
    their values bit for bit."""
    norms = np.linalg.norm(quats, axis=1)
    if not np.all(np.isfinite(norms)) or np.any(norms < _ZERO_NORM_TOL):
        raise ValueError("orientation rows must be finite and nonzero")
    q = quats.copy()
    off = np.abs(norms - 1.0) > 1e-12
    q[off] /= norms[off, None]
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    flip = (w < 0) | ((w == 0) & ((x < 0) | ((x == 0) & ((y < 0) | ((y == 0) & (z < 0))))))
    q[flip] *= -1.0
    return q


def rotation_vector_rows(q: np.ndarray) -> np.ndarray:
    """:func:`rotation_vector_wxyz` per row; like it, no hemisphere flip, so
    rows with w < 0 map to angles above pi."""
    v = q[:, 1:]
    vn = np.linalg.norm(v, axis=1)
    w = q[:, 0]
    near = vn < 1e-12
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        k = np.where(near, np.where(w < 0.0, 0.0, 1.0 / w), np.arctan2(vn, w) / vn)
    return (2.0 * k)[:, None] * v


def from_rotation_vector_rows(r: np.ndarray) -> np.ndarray:
    """:func:`from_rotation_vector` per row, on the same domain (full angle
    below 2*pi) and equally left off the canonical hemisphere."""
    h = 0.5 * np.asarray(r, dtype=float)
    n = np.linalg.norm(h, axis=1)
    if not np.all(n < math.pi):
        raise ValueError(f"rotation-vector norm {np.max(n):.6g} is outside the domain [0, pi)")
    q = np.column_stack([np.cos(n), np.sinc(n / math.pi)[:, None] * h])  # sinc(n/pi) = sin(n)/n
    return q / np.linalg.norm(q, axis=1)[:, None]


def relative_rotation_vector_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``rotation_vector_wxyz(quat_mul_wxyz(a, quat_conj_wxyz(b)))`` per row:
    the shortest-arc rotation vector taking b onto a."""
    return rotation_vector_rows(quat_canonicalize_rows(quat_mul_rows(a, quat_conj_rows(b))))


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
