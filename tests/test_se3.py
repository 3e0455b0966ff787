import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lfdkit.se3 import (
    Pose,
    UnitQuaternion,
    Wrench,
    from_rotation_vector,
    from_rotation_vector_rows,
    quat_canonicalize_rows,
    quat_conj,
    quat_conj_rows,
    quat_exp,
    quat_log,
    quat_mul,
    quat_mul_rows,
    relative_rotation_vector_rows,
    rotation_between,
    rotation_vector,
    rotation_vector_rows,
    slerp,
)


def random_unit_quats(n, seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n, 4))
    raw /= np.linalg.norm(raw, axis=1)[:, None]
    return [UnitQuaternion.from_array(row) for row in raw]


unit_vec = st.tuples(
    st.floats(-1, 1, allow_nan=False), st.floats(-1, 1, allow_nan=False), st.floats(-1, 1, allow_nan=False)
).filter(lambda v: 1e-3 < math.sqrt(v[0] ** 2 + v[1] ** 2 + v[2] ** 2))

quat_st = st.tuples(
    st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)
).filter(lambda q: math.sqrt(sum(c * c for c in q)) > 1e-3).map(lambda q: UnitQuaternion(*q))


class TestCanonicalization:
    def test_negative_w_flips(self):
        q = UnitQuaternion(-1.0, 0.0, 0.0, 0.0)
        assert q.w == 1.0 and q.x == q.y == q.z == 0.0

    def test_antipodal_pairs_collapse(self):
        for q in random_unit_quats(100, seed=3):
            qn = UnitQuaternion(-q.w, -q.x, -q.y, -q.z)
            assert np.allclose(q.as_array(), qn.as_array())

    def test_w_zero_tiebreak_deterministic(self):
        a = UnitQuaternion(0.0, -1.0, 0.0, 0.0)
        b = UnitQuaternion(0.0, 1.0, 0.0, 0.0)
        assert np.allclose(a.as_array(), b.as_array())
        assert a.x > 0

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            UnitQuaternion(0.0, 0.0, 0.0, 0.0)

    @given(quat_st)
    def test_unit_norm_invariant(self, q):
        assert abs(np.linalg.norm(q.as_array()) - 1.0) < 1e-9
        assert q.w >= 0.0


class TestAsMatrix:
    @given(quat_st, st.tuples(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2)))
    def test_matrix_rotates_like_rotate(self, q, v):
        r = q.as_matrix()
        np.testing.assert_allclose(r @ np.array(v), q.rotate(v), atol=1e-12)
        np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)

    def test_composition_is_matrix_product(self):
        a, b = random_unit_quats(2, seed=21)
        np.testing.assert_allclose(quat_mul(a, b).as_matrix(), a.as_matrix() @ b.as_matrix(), atol=1e-12)


class TestMulConj:
    def test_identity(self):
        q = UnitQuaternion(0.5, 0.5, 0.5, 0.5)
        assert np.allclose(quat_mul(q, UnitQuaternion.identity()).as_array(), q.as_array())

    def test_conjugate_inverts(self):
        for q in random_unit_quats(50, seed=10):
            r = quat_mul(q, quat_conj(q))
            assert np.allclose(r.as_array(), [1, 0, 0, 0], atol=1e-12)

    def test_composition_of_axis_rotations(self):
        # 90 deg about x then 90 deg about yields 120 deg about (1,1,1)/sqrt(3)
        qx = quat_exp(np.array([math.pi / 4, 0, 0]))
        qz = quat_exp(np.array([0, 0, math.pi / 4]))
        composed = quat_mul(qz, qx)
        v = rotation_vector(composed)
        assert math.isclose(np.linalg.norm(v), 2 * math.pi / 3, rel_tol=1e-12)

    @given(quat_st, quat_st, quat_st)
    def test_associative(self, a, b, c):
        # same rotation either way; near w = 0 the canonical flip can land on
        # opposite representatives, so compare up to sign
        lhs = quat_mul(quat_mul(a, b), c).as_array()
        rhs = quat_mul(a, quat_mul(b, c)).as_array()
        assert min(np.max(np.abs(lhs - rhs)), np.max(np.abs(lhs + rhs))) < 1e-9

    @given(quat_st, unit_vec)
    def test_rotation_preserves_length(self, q, v):
        v = np.array(v)
        assert math.isclose(np.linalg.norm(q.rotate(v)), np.linalg.norm(v), rel_tol=1e-9, abs_tol=1e-12)


class TestLogExp:
    def test_log_half_angle_convention(self):
        # rotation of pi about x: q = (cos(pi/2), sin(pi/2), 0, 0)
        q = UnitQuaternion(0.0, 1.0, 0.0, 0.0)
        assert np.allclose(quat_log(q), [math.pi / 2, 0, 0], atol=1e-12)

    def test_exp_half_angle_convention(self):
        # (0, 0, pi/4) is a rotation of pi/2 about z
        q = quat_exp(np.array([0.0, 0.0, math.pi / 4]))
        expected = [math.cos(math.pi / 4), 0.0, 0.0, math.sin(math.pi / 4)]
        assert np.allclose(q.as_array(), expected, atol=1e-12)

    def test_identity_maps_to_zero(self):
        assert np.allclose(quat_log(UnitQuaternion.identity()), 0.0)
        assert np.allclose(quat_exp(np.zeros(3)).as_array(), [1, 0, 0, 0])

    def test_exp_log_round_trip_canonical(self):
        # oracle: round trip must be the identity map on the w >= 0 hemisphere
        for q in random_unit_quats(1000, seed=7):
            back = quat_exp(quat_log(q))
            assert np.allclose(back.as_array(), q.as_array(), atol=1e-9)

    def test_log_exp_round_trip_large_angles(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            v = rng.normal(size=3)
            v *= rng.uniform(0, 3.0) / np.linalg.norm(v)
            assert np.allclose(quat_log(quat_exp(v)), v, atol=1e-9)

    def test_exp_domain_error(self):
        with pytest.raises(ValueError):
            quat_exp(np.array([math.pi, 0.0, 0.0]))
        with pytest.raises(ValueError):
            quat_exp(np.array([3.0, 3.0, 0.0]))

    def test_rotation_vector_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            r = rng.normal(size=3)
            r *= rng.uniform(0, 2 * math.pi - 1e-6) / np.linalg.norm(r) / 2
            assert np.allclose(rotation_vector(from_rotation_vector(r)), r, atol=1e-9)


class TestSlerp:
    def test_endpoints(self):
        a, b = random_unit_quats(2, seed=21)
        assert np.allclose(slerp(a, b, 0.0).as_array(), a.as_array(), atol=1e-12)
        assert np.allclose(slerp(a, b, 1.0).as_array(), b.as_array(), atol=1e-12)

    def test_midpoint_halves_angle(self):
        for a, b in zip(random_unit_quats(50, seed=30), random_unit_quats(50, seed=31)):
            mid = slerp(a, b, 0.5)
            assert math.isclose(a.angle_to(mid), mid.angle_to(b), rel_tol=1e-9, abs_tol=1e-12)

    def test_constant_speed(self):
        a, b = random_unit_quats(2, seed=40)
        total = a.angle_to(b)
        for u in (0.25, 0.5, 0.75):
            assert math.isclose(a.angle_to(slerp(a, b, u)), u * total, rel_tol=1e-9)


class TestRotationBetween:
    def test_maps_u_onto_v(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            u = rng.normal(size=3)
            v = rng.normal(size=3)
            u /= np.linalg.norm(u)
            v /= np.linalg.norm(v)
            q = rotation_between(u, v)
            assert np.allclose(q.rotate(u), v, atol=1e-9)

    def test_antiparallel(self):
        u = np.array([0.0, 0.0, 1.0])
        q = rotation_between(u, -u)
        assert np.allclose(q.rotate(u), -u, atol=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            rotation_between([0, 0, 0], [1, 0, 0])


class TestPose:
    def test_compose_inverse_round_trip(self):
        rng = np.random.default_rng(2)
        for q in random_unit_quats(50, seed=2):
            p = Pose(rng.normal(size=3), q)
            assert p.compose(p.inverse()).almost_equal(Pose.identity())

    def test_transform_point_matches_manual(self):
        p = Pose(np.array([1.0, 2.0, 3.0]), quat_exp(np.array([0, 0, math.pi / 4])))
        # 90 deg about z sends +x to +y
        assert np.allclose(p.transform_point([1, 0, 0]), [1, 3, 3], atol=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Pose(np.array([np.nan, 0, 0]))

    def test_positions_frozen(self):
        p = Pose(np.zeros(3))
        with pytest.raises(ValueError):
            p.position[0] = 1.0


class TestWrench:
    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Wrench(np.array([np.inf, 0, 0]), np.zeros(3))

    def test_as_array_layout(self):
        w = Wrench([1, 2, 3], [4, 5, 6])
        assert np.allclose(w.as_array(), [1, 2, 3, 4, 5, 6])


# rows with w < 0 are kept as given (raw=True), so the kernels see both
# hemispheres; near-identity rows and rotations near pi are mixed in
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
).map(lambda q: UnitQuaternion(*q, raw=True))
raw_quat_lists = st.lists(raw_quat_st, min_size=1, max_size=8)


def rows(quats):
    return np.array([q.as_array() for q in quats])


class TestRowKernels:
    """Each row kernel against the scalar function, row by row."""

    @settings(deadline=None)
    @given(raw_quat_lists, raw_quat_lists)
    def test_mul(self, qa, qb):
        n = min(len(qa), len(qb))
        got = quat_canonicalize_rows(quat_mul_rows(rows(qa[:n]), rows(qb[:n])))
        want = rows([quat_mul(a, b) for a, b in zip(qa, qb)])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @settings(deadline=None)
    @given(raw_quat_lists)
    def test_conj(self, qs):
        got = quat_canonicalize_rows(quat_conj_rows(rows(qs)))
        np.testing.assert_allclose(got, rows([quat_conj(q) for q in qs]), rtol=0, atol=1e-12)

    @settings(deadline=None)
    @given(raw_quat_lists, st.floats(0.5, 2.0))
    def test_canonicalize(self, qs, scale):
        raw = scale * rows(qs)
        got = quat_canonicalize_rows(raw)
        np.testing.assert_allclose(got, rows([UnitQuaternion(*r) for r in raw]), rtol=0, atol=1e-12)
        assert np.all(got[:, 0] >= 0.0)

    def test_canonicalize_keeps_unit_rows_and_rejects_bad_rows(self):
        unit = rows(random_unit_quats(20, seed=4))
        assert np.array_equal(quat_canonicalize_rows(unit), unit)
        for bad in ([0.0, 0.0, 0.0, 0.0], [np.nan, 1.0, 0.0, 0.0]):
            with pytest.raises(ValueError):
                quat_canonicalize_rows(np.array([[1.0, 0.0, 0.0, 0.0], bad]))

    @settings(deadline=None)
    @given(raw_quat_lists)
    def test_log(self, qs):
        got = rotation_vector_rows(rows(qs))
        np.testing.assert_allclose(got, [rotation_vector(q) for q in qs], rtol=0, atol=1e-12)

    @settings(deadline=None)
    @given(raw_quat_lists)
    def test_exp(self, qs):
        # full angles up to just below 2*pi, from both hemispheres
        r = np.array([rotation_vector(q) for q in qs])
        got = from_rotation_vector_rows(r)
        np.testing.assert_allclose(got, rows([from_rotation_vector(v) for v in r]), rtol=0, atol=1e-12)

    def test_exp_domain_error(self):
        for bad in ([2.0 * math.pi, 0.0, 0.0], [5.0, 5.0, 0.0], [np.nan, 0.0, 0.0]):
            with pytest.raises(ValueError, match="outside the domain"):
                from_rotation_vector_rows(np.array([[0.1, 0.0, 0.0], bad]))

    @settings(deadline=None)
    @given(raw_quat_lists, raw_quat_lists)
    def test_relative(self, qa, qb):
        n = min(len(qa), len(qb))
        got = relative_rotation_vector_rows(rows(qa[:n]), rows(qb[:n]))
        want = [rotation_vector(quat_mul(a, quat_conj(b))) for a, b in zip(qa, qb)]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
