"""Rigid-body primitives shared by every stage of the pipeline.

Conventions, fixed once and used everywhere:

* quaternions are stored scalar-first ``(w, x, y, z)`` and composed with the
  Hamilton product
* constructors canonicalize to the ``w >= 0`` hemisphere so each rotation has
  exactly one representation; :func:`quat_exp` is the single documented
  exception (see its docstring)
* ``quat_log``/``quat_exp`` use the half-angle convention
  ``log(q) = (theta/2) * u`` for ``q = (cos(theta/2), u*sin(theta/2))``,
  so a full-angle rotation vector is ``2 * quat_log(q)``
* whole trajectories go through the ``*_rows`` kernels, which apply the same
  maps to ``(n, 4)`` quaternion and ``(n, 3)`` vector arrays row by row
* units are meters, seconds, newtons, and radians throughout
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

__all__ = [
    "UnitQuaternion",
    "Pose",
    "Wrench",
    "quat_mul",
    "quat_conj",
    "quat_log",
    "quat_exp",
    "rotation_vector",
    "from_rotation_vector",
    "slerp",
    "rotation_between",
    "quat_mul_rows",
    "quat_conj_rows",
    "quat_canonicalize_rows",
    "rotation_vector_rows",
    "from_rotation_vector_rows",
    "relative_rotation_vector_rows",
]

_ZERO_NORM_TOL = 1e-12


@dataclass(frozen=True)
class UnitQuaternion:
    """Rotation as a unit quaternion on the canonical (w >= 0) hemisphere.

    Inputs are renormalized on construction, so the unit-norm invariant holds
    within float rounding for every operation that returns one of these.
    ``raw=True`` skips only the hemisphere flip (needed by quat_exp so that
    log/exp round-trip beyond rotation angle pi); the norm is still fixed up.
    """

    w: float
    x: float
    y: float
    z: float
    raw: InitVar[bool] = False

    def __post_init__(self, raw: bool) -> None:
        n = math.sqrt(self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z)
        if n < _ZERO_NORM_TOL:
            raise ValueError("quaternion norm is zero")
        w, x, y, z = self.w / n, self.x / n, self.y / n, self.z / n
        if not raw and _needs_flip(w, x, y, z):
            w, x, y, z = -w, -x, -y, -z
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)

    @classmethod
    def identity(cls) -> "UnitQuaternion":
        return cls(1.0, 0.0, 0.0, 0.0)

    @classmethod
    def from_array(cls, wxyz, raw: bool = False) -> "UnitQuaternion":
        w, x, y, z = (float(v) for v in wxyz)
        return cls(w, x, y, z, raw=raw)

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z])

    def as_matrix(self) -> np.ndarray:
        """3x3 rotation matrix: ``as_matrix() @ v`` rotates v like :meth:`rotate`."""
        w, x, y, z = self.w, self.x, self.y, self.z
        return np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
            ]
        )

    @property
    def angle(self) -> float:
        """Rotation angle in [0, 2*pi); [0, pi] for canonical quaternions."""
        vn = math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)
        return 2.0 * math.atan2(vn, self.w)

    def conjugate(self) -> "UnitQuaternion":
        return UnitQuaternion(self.w, -self.x, -self.y, -self.z)

    def rotate(self, v) -> np.ndarray:
        """Rotate a 3-vector: q * (0, v) * conj(q)."""
        vx, vy, vz = (float(c) for c in v)
        w, x, y, z = self.w, self.x, self.y, self.z
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

    def angle_to(self, other: "UnitQuaternion") -> float:
        """Geodesic rotation angle between two orientations, in [0, pi]."""
        return quat_mul(other, self.conjugate()).angle


def _needs_flip(w: float, x: float, y: float, z: float) -> bool:
    if w != 0.0:
        return w < 0.0
    for c in (x, y, z):
        if c != 0.0:
            return c < 0.0
    return False


def quat_mul(a: UnitQuaternion, b: UnitQuaternion) -> UnitQuaternion:
    """Hamilton product a*b, renormalized and canonicalized."""
    return UnitQuaternion(
        a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
        a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
        a.w * b.y + a.y * b.w + a.z * b.x - a.x * b.z,
        a.w * b.z + a.z * b.w + a.x * b.y - a.y * b.x,
    )


def quat_conj(q: UnitQuaternion) -> UnitQuaternion:
    return q.conjugate()


def quat_log(q: UnitQuaternion) -> np.ndarray:
    """Half-angle log map: returns (theta/2) * u as a 3-vector.

    Accepts any unit quaternion (w < 0 included, for raw quat_exp outputs);
    the identity maps to the zero vector.
    """
    vn = math.sqrt(q.x * q.x + q.y * q.y + q.z * q.z)
    if vn < 1e-12:
        if q.w < 0.0:
            # -identity: same rotation as identity but log would sit at theta/2 = pi
            # with an undefined axis; canonical inputs never reach this.
            return np.zeros(3)
        return np.array([q.x / q.w, q.y / q.w, q.z / q.w])
    half = math.atan2(vn, q.w)
    k = half / vn
    return np.array([k * q.x, k * q.y, k * q.z])


def quat_exp(v) -> UnitQuaternion:
    """Half-angle exp map, the exact inverse of quat_log for ||v|| < pi.

    The result is deliberately NOT canonicalized: for ||v|| in (pi/2, pi) the
    scalar part is negative, and flipping it would break the documented
    round trip quat_log(quat_exp(v)) = v. Everything built from the result
    through quat_mul/Pose/etc. lands back on the canonical hemisphere.
    """
    vx, vy, vz = (float(c) for c in v)
    n = math.sqrt(vx * vx + vy * vy + vz * vz)
    if n >= math.pi:
        raise ValueError(f"rotation-vector norm {n:.6g} is outside the domain [0, pi)")
    if n < 1e-8:
        s = 1.0 - n * n / 6.0
    else:
        s = math.sin(n) / n
    return UnitQuaternion(math.cos(n), s * vx, s * vy, s * vz, raw=True)


def rotation_vector(q: UnitQuaternion) -> np.ndarray:
    """Full-angle rotation vector theta*u (just 2*quat_log)."""
    return 2.0 * quat_log(q)


def from_rotation_vector(r) -> UnitQuaternion:
    """Inverse of rotation_vector; full angle must be below 2*pi."""
    return quat_exp(0.5 * np.asarray(r, dtype=float))


def slerp(a: UnitQuaternion, b: UnitQuaternion, u: float) -> UnitQuaternion:
    """Spherical-linear interpolation along the shorter arc, u in [0, 1]."""
    rel = quat_mul(b, a.conjugate())  # canonical, so always the short way round
    step = quat_exp(u * quat_log(rel))
    return quat_mul(step, a)


def rotation_between(u, v) -> UnitQuaternion:
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
            return UnitQuaternion.identity()
        # antiparallel: rotate pi about any axis orthogonal to u
        axis = np.cross(u, [1.0, 0.0, 0.0])
        if np.linalg.norm(axis) < 1e-6:
            axis = np.cross(u, [0.0, 1.0, 0.0])
        axis = axis / np.linalg.norm(axis)
        return UnitQuaternion(0.0, *axis)
    axis = np.cross(u, v) / c
    angle = math.atan2(c, d)
    return quat_exp(0.5 * angle * axis)


# ---------------------------------------------------------------------------
# row kernels: the maps above over arrays with one quaternion (w, x, y, z) or
# one vector per row; products broadcast, so a single row may stand for all

_CONJ = np.array([1.0, -1.0, -1.0, -1.0])


def quat_mul_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a*b per row, neither renormalized nor canonicalized
    (follow with :func:`quat_canonicalize_rows` for what :func:`quat_mul`
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
    tie-break of the scalar constructor. Rows already unit within 1e-12 keep
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
    """:func:`rotation_vector` per row; like it, no hemisphere flip, so rows
    with w < 0 map to angles above pi."""
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
    """``rotation_vector(quat_mul(a, quat_conj(b)))`` per row: the
    shortest-arc rotation vector taking b onto a."""
    return rotation_vector_rows(quat_canonicalize_rows(quat_mul_rows(a, quat_conj_rows(b))))


@dataclass(frozen=True)
class Pose:
    """Position plus orientation; the universal configuration value."""

    position: np.ndarray
    orientation: UnitQuaternion = field(default_factory=UnitQuaternion.identity)

    def __post_init__(self) -> None:
        p = np.array(self.position, dtype=float).reshape(3)
        if not np.all(np.isfinite(p)):
            raise ValueError("pose position must be finite")
        p.flags.writeable = False
        object.__setattr__(self, "position", p)

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.zeros(3), UnitQuaternion.identity())

    def transform_point(self, p) -> np.ndarray:
        return self.position + self.orientation.rotate(p)

    def transform_direction(self, d) -> np.ndarray:
        return self.orientation.rotate(d)

    def compose(self, other: "Pose") -> "Pose":
        """self * other, both read as frame-to-parent transforms."""
        return Pose(self.transform_point(other.position), quat_mul(self.orientation, other.orientation))

    def inverse(self) -> "Pose":
        qi = self.orientation.conjugate()
        return Pose(qi.rotate(-self.position), qi)

    def almost_equal(self, other: "Pose", pos_tol: float = 1e-9, ang_tol: float = 1e-9) -> bool:
        return (
            float(np.max(np.abs(self.position - other.position))) <= pos_tol
            and self.orientation.angle_to(other.orientation) <= ang_tol
        )


@dataclass(frozen=True)
class Wrench:
    """Force/torque pair, newtons and newton-meters."""

    force: np.ndarray
    torque: np.ndarray

    def __post_init__(self) -> None:
        f = np.array(self.force, dtype=float).reshape(3)
        t = np.array(self.torque, dtype=float).reshape(3)
        if not (np.all(np.isfinite(f)) and np.all(np.isfinite(t))):
            raise ValueError("wrench components must be finite")
        f.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "force", f)
        object.__setattr__(self, "torque", t)

    @classmethod
    def zero(cls) -> "Wrench":
        return cls(np.zeros(3), np.zeros(3))

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.force, self.torque])
