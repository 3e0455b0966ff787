import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lfdkit.se3 import (
    BadOrientationRow,
    Pose,
    chart_rows,
    from_rotation_vector,
    quat_canonicalize_rows,
    quat_conj_wxyz,
    quat_matrix_wxyz,
    quat_mul_wxyz,
    quat_normalize,
    quat_rotate_wxyz,
    rotation_between,
    rotation_vector_wxyz,
    unchart_rows,
)

IDENTITY = (1.0, 0.0, 0.0, 0.0)


def random_unit_quats(n, seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n, 4))
    raw /= np.linalg.norm(raw, axis=1)[:, None]
    return [quat_normalize(*row) for row in raw.tolist()]


def angle_between(a, b):
    """Geodesic angle from orientation tuple a to b, in [0, pi]."""
    return math.hypot(*rotation_vector_wxyz(quat_mul_wxyz(b, quat_conj_wxyz(a))))


unit_vec = st.tuples(
    st.floats(-1, 1, allow_nan=False), st.floats(-1, 1, allow_nan=False), st.floats(-1, 1, allow_nan=False)
).filter(lambda v: 1e-3 < math.sqrt(v[0] ** 2 + v[1] ** 2 + v[2] ** 2))

quat_st = st.tuples(
    st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)
).filter(lambda q: math.sqrt(sum(c * c for c in q)) > 1e-3).map(lambda q: quat_normalize(*q))


class TestCanonicalization:
    def test_negative_w_flips(self):
        w, x, y, z = quat_normalize(-1.0, 0.0, 0.0, 0.0)
        assert w == 1.0 and x == y == z == 0.0

    def test_antipodal_pairs_collapse(self):
        for q in random_unit_quats(100, seed=3):
            qn = quat_normalize(*(-c for c in q))
            assert np.allclose(q, qn)

    def test_w_zero_tiebreak_deterministic(self):
        a = quat_normalize(0.0, -1.0, 0.0, 0.0)
        b = quat_normalize(0.0, 1.0, 0.0, 0.0)
        assert np.allclose(a, b)
        assert a[1] > 0

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            quat_normalize(0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("w", [float("inf"), float("nan")])
    def test_non_finite_norm_rejected(self, w):
        with pytest.raises(ValueError, match="not finite"):
            quat_normalize(w, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="not finite"):
            quat_normalize(w, 1e300, 0.0, 0.0)

    @pytest.mark.parametrize("q", [(1e200, 0.0, 0.0, 0.0), (1.7e308, 1.7e308, 1.7e308, 1.7e308),
                                   (1.0, 0.0, 0.0, -1e300), (0.0, -1e300, 0.0, 1e300), (-0.0, 0.0, 0.0, -1e155)])
    def test_overflowing_squares_normalize_as_rows_do(self, q):
        # 1e200 squared overflows; the norm once read inf and the quaternion
        # was refused, while quat_canonicalize_rows normalized the same row
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = quat_normalize(*q)
            assert got == tuple(quat_canonicalize_rows(np.array([q]))[0].tolist())
        assert abs(math.hypot(*got) - 1.0) < 1e-15

    @given(quat_st)
    def test_unit_norm_invariant(self, q):
        assert abs(np.linalg.norm(q) - 1.0) < 1e-9
        assert q[0] >= 0.0


class TestAsMatrix:
    @given(quat_st, st.tuples(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2)))
    def test_matrix_rotates_like_rotate(self, q, v):
        r = quat_matrix_wxyz(q)
        np.testing.assert_allclose(r @ np.array(v), quat_rotate_wxyz(q, v), atol=1e-12)
        np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)

    def test_composition_is_matrix_product(self):
        a, b = random_unit_quats(2, seed=21)
        np.testing.assert_allclose(
            quat_matrix_wxyz(quat_mul_wxyz(a, b)), quat_matrix_wxyz(a) @ quat_matrix_wxyz(b), atol=1e-12
        )


class TestMulConj:
    def test_identity(self):
        q = (0.5, 0.5, 0.5, 0.5)
        assert np.allclose(quat_mul_wxyz(q, IDENTITY), q)

    def test_conjugate_inverts(self):
        for q in random_unit_quats(50, seed=10):
            r = quat_mul_wxyz(q, quat_conj_wxyz(q))
            assert np.allclose(r, [1, 0, 0, 0], atol=1e-12)

    def test_composition_of_axis_rotations(self):
        # 90 deg about x then 90 deg about yields 120 deg about (1,1,1)/sqrt(3)
        qx = from_rotation_vector((math.pi / 2, 0.0, 0.0))
        qz = from_rotation_vector((0.0, 0.0, math.pi / 2))
        v = rotation_vector_wxyz(quat_mul_wxyz(qz, qx))
        assert math.isclose(np.linalg.norm(v), 2 * math.pi / 3, rel_tol=1e-12)

    @given(quat_st, quat_st, quat_st)
    def test_associative(self, a, b, c):
        # same rotation either way; near w = 0 the canonical flip can land on
        # opposite representatives, so compare up to sign
        lhs = np.array(quat_mul_wxyz(quat_mul_wxyz(a, b), c))
        rhs = np.array(quat_mul_wxyz(a, quat_mul_wxyz(b, c)))
        assert min(np.max(np.abs(lhs - rhs)), np.max(np.abs(lhs + rhs))) < 1e-9

    @given(quat_st, unit_vec)
    def test_rotation_preserves_length(self, q, v):
        v = np.array(v)
        assert math.isclose(np.linalg.norm(quat_rotate_wxyz(q, v)), np.linalg.norm(v), rel_tol=1e-9, abs_tol=1e-12)


class TestLogExp:
    def test_log_full_angle_convention(self):
        # rotation of pi about x: q = (cos(pi/2), sin(pi/2), 0, 0)
        assert np.allclose(rotation_vector_wxyz((0.0, 1.0, 0.0, 0.0)), [math.pi, 0, 0], atol=1e-12)

    def test_exp_full_angle_convention(self):
        # (0, 0, pi/2) is a rotation of pi/2 about z
        q = from_rotation_vector((0.0, 0.0, math.pi / 2))
        expected = [math.cos(math.pi / 4), 0.0, 0.0, math.sin(math.pi / 4)]
        assert np.allclose(q, expected, atol=1e-12)

    def test_identity_maps_to_zero(self):
        assert rotation_vector_wxyz(IDENTITY) == (0.0, 0.0, 0.0)
        assert from_rotation_vector((0.0, 0.0, 0.0)) == IDENTITY

    def test_exp_log_round_trip_canonical(self):
        # oracle: round trip must be the identity map on the w >= 0 hemisphere
        for q in random_unit_quats(1000, seed=7):
            back = from_rotation_vector(rotation_vector_wxyz(q))
            assert np.allclose(back, q, atol=1e-9)

    def test_log_exp_round_trip_large_angles(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            v = rng.normal(size=3)
            v *= rng.uniform(0, 6.0) / np.linalg.norm(v)
            assert np.allclose(rotation_vector_wxyz(from_rotation_vector(tuple(v.tolist()))), v, atol=1e-9)

    def test_exp_domain_error(self):
        with pytest.raises(ValueError):
            from_rotation_vector((2 * math.pi, 0.0, 0.0))
        with pytest.raises(ValueError):
            from_rotation_vector((4.5, 4.5, 0.0))

    def test_rotation_vector_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            r = rng.normal(size=3)
            r *= rng.uniform(0, 2 * math.pi - 1e-6) / np.linalg.norm(r)
            assert np.allclose(rotation_vector_wxyz(from_rotation_vector(r)), r, atol=1e-9)

    def test_from_rotation_vector_past_a_half_turn_keeps_w_negative(self):
        # the one path off the canonical hemisphere, so the round trip holds
        # up to a full angle of 2*pi
        r = np.array([0.0, 0.0, 1.5 * math.pi])
        q = from_rotation_vector(r)
        assert q[0] < 0.0
        assert np.allclose(rotation_vector_wxyz(q), r, atol=1e-12)
        # -q is the same rotation, logged the short way round
        assert np.allclose(rotation_vector_wxyz(tuple(-c for c in q)), [0.0, 0.0, -0.5 * math.pi], atol=1e-12)

    def test_domain_errors_name_the_callers_norm(self):
        # a 400 degree yaw: the full angle 6.98132 is named, not its half
        with pytest.raises(ValueError, match=r"^rotation-vector norm 6\.98132 is outside the domain \[0, 2 pi\)$"):
            from_rotation_vector((0.0, 0.0, math.radians(400.0)))
        with pytest.raises(ValueError, match=r"^rotation-vector norm nan is outside the domain \[0, 2 pi\)$"):
            from_rotation_vector((math.nan, 0.0, 0.0))

    @pytest.mark.parametrize("kind", [list, np.array])
    def test_sequences_give_the_tuples_floats(self, kind):
        # a tuple is read as it is, any other sequence through numpy first
        for q in random_unit_quats(100, seed=8):
            r = rotation_vector_wxyz(q)
            got = from_rotation_vector(kind(r))
            assert got == from_rotation_vector(r) and all(type(c) is float for c in got)


def slerp(a, b, u):
    """Spherical-linear interpolation along the shorter arc, spelled from
    the exp/log pair: exp(u * log(b * conj(a))) * a."""
    vx, vy, vz = rotation_vector_wxyz(quat_mul_wxyz(b, quat_conj_wxyz(a)))
    return quat_mul_wxyz(from_rotation_vector((u * vx, u * vy, u * vz)), a)


class TestSlerp:
    """The exp/log pair interpolates along the geodesic."""

    def test_endpoints(self):
        a, b = random_unit_quats(2, seed=21)
        assert np.allclose(slerp(a, b, 0.0), a, atol=1e-12)
        assert np.allclose(slerp(a, b, 1.0), b, atol=1e-12)

    def test_midpoint_halves_angle(self):
        for a, b in zip(random_unit_quats(50, seed=30), random_unit_quats(50, seed=31)):
            mid = slerp(a, b, 0.5)
            assert math.isclose(angle_between(a, mid), angle_between(mid, b), rel_tol=1e-9, abs_tol=1e-12)

    def test_constant_speed(self):
        a, b = random_unit_quats(2, seed=40)
        total = angle_between(a, b)
        for u in (0.25, 0.5, 0.75):
            assert math.isclose(angle_between(a, slerp(a, b, u)), u * total, rel_tol=1e-9)

    def test_pose_keeps_a_slerp_tuple_bit_for_bit(self):
        qs = random_unit_quats(41, seed=41)
        slerped = [slerp(a, b, 0.3) for a, b in zip(qs, qs[1:])]
        for q in slerped:
            assert Pose(np.zeros(3), q).orientation == q
        # renormalizing again would have moved some of them by an ulp
        assert any(quat_normalize(*q) != q for q in slerped)


class TestQuatNormalize:
    def test_flips_onto_the_canonical_hemisphere(self):
        assert quat_normalize(-2.0, 0.0, 0.0, 0.0) == (1.0, -0.0, -0.0, -0.0)
        assert quat_normalize(0.0, 0.0, -3.0, 0.0)[2] == 1.0
        assert quat_normalize(-2.0, 0.0, 0.0, 0.0, raw=True) == (-1.0, 0.0, 0.0, 0.0)


class TestRotationBetween:
    def test_maps_u_onto_v(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            u = rng.normal(size=3)
            v = rng.normal(size=3)
            u /= np.linalg.norm(u)
            v /= np.linalg.norm(v)
            q = rotation_between(u, v)
            assert np.allclose(quat_rotate_wxyz(q, u), v, atol=1e-9)

    def test_antiparallel(self):
        u = np.array([0.0, 0.0, 1.0])
        q = rotation_between(u, -u)
        assert np.allclose(quat_rotate_wxyz(q, u), -u, atol=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            rotation_between([0, 0, 0], [1, 0, 0])


class TestPose:
    def test_inverse_round_trip(self):
        rng = np.random.default_rng(2)
        for q in random_unit_quats(50, seed=2):
            p = Pose(rng.normal(size=3), q)
            inv = p.inverse()
            v = rng.normal(size=3)
            np.testing.assert_allclose(inv.transform_point(p.transform_point(v)), v, atol=1e-12)
            np.testing.assert_allclose(p.transform_point(inv.transform_point(v)), v, atol=1e-12)
            assert inv.orientation == quat_conj_wxyz(q)

    def test_default_orientation_is_identity(self):
        assert Pose(np.zeros(3)).orientation == IDENTITY

    def test_orientation_becomes_python_floats_as_given(self):
        # within the unit tolerance, but not renormalized
        q = Pose(np.zeros(3), np.array([1.0 + 5e-10, 0.0, 0.0, 0.0])).orientation
        assert q == (1.0 + 5e-10, 0.0, 0.0, 0.0) and all(type(c) is float for c in q)
        assert Pose(np.zeros(3), (-1.0, 0.0, 0.0, 0.0)).orientation == (-1.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize(
        "q",
        [
            (1.0, 0.0, 0.0),
            (1.0, 0.0, 0.0, 0.0, 0.0),
            (float("nan"), 0.0, 0.0, 0.0),
            (1.0, float("inf"), 0.0, 0.0),
            (2.0, 0.0, 0.0, 0.0),
            (1.0 + 2e-9, 0.0, 0.0, 0.0),
            (0.0, 0.0, 0.0, 0.0),
        ],
    )
    def test_bad_orientation_rejected(self, q):
        with pytest.raises(ValueError, match=r"^pose orientation must be 4 finite numbers \(w, x, y, z\) of unit norm$"):
            Pose(np.zeros(3), q)

    def test_transform_point_matches_manual(self):
        p = Pose(np.array([1.0, 2.0, 3.0]), from_rotation_vector([0, 0, math.pi / 2]))
        # 90 deg about z sends +x to +y
        assert np.allclose(p.transform_point([1, 0, 0]), [1, 3, 3], atol=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Pose(np.array([np.nan, 0, 0]))

    def test_positions_frozen(self):
        p = Pose(np.zeros(3))
        with pytest.raises(ValueError):
            p.position[0] = 1.0


# unit tuples with w < 0 are kept as given (normalized with raw=True), so the
# kernels see both hemispheres; near-identity rows and rotations near pi are
# mixed in
_EDGE_ROWS = [
    (1.0, 1e-9, -2e-10, 3e-13),
    (1.0, 0.0, 0.0, 0.0),
    (-1.0, 4e-13, 0.0, 1e-10),
    (1e-9, 0.6, 0.8, 0.0),
    (-3e-8, 0.0, -0.28, 0.96),
    (math.cos(1.5), math.sin(1.5), 0.0, 0.0),
]
raw_quat_st = st.one_of(
    st.sampled_from(_EDGE_ROWS),
    st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)).filter(
        lambda q: math.sqrt(sum(c * c for c in q)) > 1e-3
    ),
).map(lambda q: quat_normalize(*q, raw=True))
raw_quat_lists = st.lists(raw_quat_st, min_size=1, max_size=8)


# the scalar maps spelled out on quat_normalize and numpy:
# each kernel must equal its reference bit for bit
def reference_mul(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return quat_normalize(
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by + ay * bw + az * bx - ax * bz,
        aw * bz + az * bw + ax * by - ay * bx,
    )


def reference_log(q):
    """The full-angle log map: twice the quaternion log (theta/2) * u."""
    w, x, y, z = q
    vn = math.sqrt(x * x + y * y + z * z)
    if vn < 1e-12:
        return np.zeros(3) if w < 0.0 else 2.0 * np.array([x / w, y / w, z / w])
    k = math.atan2(vn, w) / vn
    return 2.0 * np.array([k * x, k * y, k * z])


def reference_exp(v):
    """The full-angle exp map: the quaternion exp of half the vector."""
    vx, vy, vz = (0.5 * float(c) for c in v)
    n = math.sqrt(vx * vx + vy * vy + vz * vz)
    if n >= math.pi:
        raise ValueError("outside the domain")
    s = 1.0 - n * n / 6.0 if n < 1e-8 else math.sin(n) / n
    return quat_normalize(math.cos(n), s * vx, s * vy, s * vz, raw=True)


# full-angle vectors: below the series cutoff, generic, and just short of 2 pi
rot_vec_st = st.builds(
    lambda u, n: tuple(c * n / math.sqrt(sum(x * x for x in u)) for c in u),
    unit_vec,
    st.one_of(
        st.floats(0.0, 2e-8),
        st.floats(2e-8, 2.0 * math.pi, exclude_max=True),
        st.integers(3, 15).map(lambda k: 2.0 * math.pi - 10.0**-k),
    ),
).filter(lambda v: math.sqrt(sum(c * c for c in v)) < 2.0 * math.pi)  # rescaling can round up onto 2 pi


class TestTupleKernels:
    """Each *_wxyz kernel and the exp map against its reference map, on both
    hemispheres, near the identity and near a half turn."""

    @settings(deadline=None)
    @given(raw_quat_st, raw_quat_st)
    def test_mul(self, a, b):
        assert quat_mul_wxyz(a, b) == reference_mul(a, b)

    @settings(deadline=None)
    @given(raw_quat_st)
    def test_conj(self, q):
        w, x, y, z = q
        assert quat_conj_wxyz(q) == quat_normalize(w, -x, -y, -z)

    @settings(deadline=None)
    @given(raw_quat_st)
    def test_log_and_rotation_vector(self, q):
        # the log map is the full-angle rotation vector
        assert rotation_vector_wxyz(q) == tuple(reference_log(q).tolist())

    @settings(deadline=None)
    @given(rot_vec_st)
    def test_exp(self, v):
        assert from_rotation_vector(v) == reference_exp(v)
        assert from_rotation_vector(np.array(v)) == reference_exp(v)

    def test_exp_domain_error(self):
        with pytest.raises(ValueError, match="outside the domain"):
            from_rotation_vector((0.0, 2.0 * math.pi, 0.0))


def rows(quats):
    return np.array(quats, dtype=float)


def assert_same_rotations(got, want):
    """Row by row the same rotation within 1e-12, q and -q alike."""
    got = got * np.sign(np.sum(got * want, axis=1))[:, None]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestRowKernels:
    """The canonicalization and the log chart pair against the float-tuple
    kernels, row by row."""

    @settings(deadline=None)
    @given(raw_quat_lists, st.floats(0.5, 2.0))
    def test_canonicalize(self, qs, scale):
        raw = scale * rows(qs)
        got = quat_canonicalize_rows(raw)
        np.testing.assert_allclose(got, rows([quat_normalize(*r) for r in raw]), rtol=0, atol=1e-12)
        assert np.all(got[:, 0] >= 0.0)

    def test_canonicalize_keeps_unit_rows_and_rejects_bad_rows(self):
        unit = rows(random_unit_quats(20, seed=4))
        assert np.array_equal(quat_canonicalize_rows(unit), unit)
        for bad in ([0.0, 0.0, 0.0, 0.0], [1e-13, 0.0, 0.0, 0.0], [np.inf, 0.0, 0.0, 0.0], [np.nan, 1.0, 0.0, 0.0]):
            # the error names the first bad row
            with pytest.raises(BadOrientationRow, match="^orientation rows must be finite and nonzero$") as err:
                quat_canonicalize_rows(np.array([[1.0, 0.0, 0.0, 0.0], bad, bad]))
            assert err.value.row == 1

    def test_canonicalize_takes_a_huge_row_scale_out_before_its_norm(self):
        # the squares of these entries overflow; the rows themselves are fine
        huge = np.array([[1.7e308, 1.7e308, 1.7e308, 1.7e308], [1.0, 0.0, 0.0, -1e300]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = quat_canonicalize_rows(huge)
        assert np.array_equal(got, [[0.5, 0.5, 0.5, 0.5], [1e-300, 0.0, 0.0, -1.0]])

    @settings(deadline=None)
    @given(raw_quat_lists, raw_quat_lists)
    def test_relative(self, qa, qb):
        # chart_rows is the shortest-arc rotation vector of q * conj(ref)
        n = min(len(qa), len(qb))
        got = chart_rows(rows(qa[:n]), rows(qb[:n]))
        want = [rotation_vector_wxyz(quat_mul_wxyz(a, quat_conj_wxyz(b))) for a, b in zip(qa, qb)]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert np.all(np.linalg.norm(got, axis=1) <= math.pi + 1e-12)

    @settings(deadline=None)
    @given(raw_quat_lists, raw_quat_st)
    def test_exp(self, qs, ref):
        # full angles up to just below 2*pi, from both hemispheres; one
        # reference row stands for all
        e = np.array([rotation_vector_wxyz(q) for q in qs])
        got = quat_canonicalize_rows(unchart_rows(e, rows([ref])))
        want = rows([quat_mul_wxyz(from_rotation_vector(v), ref) for v in e])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @settings(deadline=None)
    @given(raw_quat_lists, raw_quat_lists)
    def test_round_trip(self, qs, refs):
        n = min(len(qs), len(refs))
        q, ref = rows(qs[:n]), rows(refs[:n])
        got = quat_canonicalize_rows(unchart_rows(chart_rows(q, ref), ref))
        want = quat_canonicalize_rows(q)
        # a half turn has w = 0 up to rounding, which then picks the hemisphere
        assert np.all((np.sum(got * want, axis=1) > 0.0) | (np.abs(want[:, 0]) <= 1e-12))
        assert_same_rotations(got, want)

    @settings(deadline=None)
    @given(st.lists(st.tuples(unit_vec, st.floats(2.0 * math.pi, 20.0 * math.pi)), min_size=1, max_size=8),
           raw_quat_st)
    def test_exp_past_a_full_turn_is_the_wrapped_rotation(self, vectors, ref):
        e = np.array([np.array(u) * (angle / np.linalg.norm(u)) for u, angle in vectors])
        angle = np.linalg.norm(e, axis=1)
        wrapped = e * ((np.remainder(angle + math.pi, 2.0 * math.pi) - math.pi) / angle)[:, None]
        assert_same_rotations(unchart_rows(e, rows([ref])), unchart_rows(wrapped, rows([ref])))
