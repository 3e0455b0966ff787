"""Hole localization tests.

Oracles: noiseless rim samples are exact fits (construction), Monte-Carlo
error distributions come from the generating scene, and the sweep is
cross-checked against an independent re-run with reversed iteration order.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lfdkit import vision
from lfdkit.se3 import Pose, from_rotation_vector, quat_matrix_wxyz, quat_mul_wxyz, quat_normalize, quat_rotate_wxyz
from lfdkit.trajectory import read_json, write_json
from lfdkit.vision import (
    MAX_MASK_POINTS,
    MAX_SWEEP_YAWS,
    BarScene,
    CameraModel,
    HoleEstimate,
    HoleSpec,
    MaskSample,
    NotDetectable,
    check_visible,
    default_bar_scene,
    default_camera,
    detection_range_sweep,
    fit_circle3d,
    hole_errors,
    locate_hole,
    scene_from_dict,
    scene_to_dict,
    sweep_yaw_count,
    synthesize_mask,
)
from lfdkit.vision import _orthobasis

RIM_CENTER = np.array([0.02, -0.01, 0.24])
RIM_U = np.array([1.0, 0.0, 0.0])
RIM_V = np.array([0.0, 1.0, 0.0])


def compose(a: Pose, b: Pose) -> Pose:
    """a * b, both read as frame-to-parent transforms."""
    return Pose(a.transform_point(b.position), quat_mul_wxyz(a.orientation, b.orientation))


def arc_points(span: float, n: int, sigma: float = 0.0, seed: int = 0, radius: float = 0.004) -> np.ndarray:
    ang = span * np.arange(n) / n
    pts = RIM_CENTER + radius * (np.outer(np.cos(ang), RIM_U) + np.outer(np.sin(ang), RIM_V))
    if sigma > 0:
        pts = pts + np.random.default_rng(seed).normal(scale=sigma, size=pts.shape)
    return pts


def world_center_error(cam: CameraModel, scene: BarScene, hole_id: int, est: HoleEstimate) -> float:
    center_world = cam.pose.transform_point(est.center)
    return float(np.linalg.norm(center_world - scene.hole_center_world(hole_id)))


class TestSceneTypes:
    def test_hole_must_sit_on_top_face(self):
        with pytest.raises(ValueError, match="top face"):
            BarScene(
                bar=Pose([0, 0, 0.05]),
                dims=[0.3, 0.05, 0.02],
                holes=(HoleSpec([0.0, 0.0, 0.0], 0.004, [0, 0, 1]),),
            )

    def test_hole_must_fit_footprint(self):
        with pytest.raises(ValueError, match="footprint"):
            BarScene(
                bar=Pose([0, 0, 0.05]),
                dims=[0.3, 0.05, 0.02],
                holes=(HoleSpec([0.2, 0.0, 0.01], 0.004, [0, 0, 1]),),
            )

    def test_hole_radius_and_axis(self):
        with pytest.raises(ValueError, match="radius"):
            HoleSpec([0, 0, 0.01], 0.0, [0, 0, 1])
        h = HoleSpec([0, 0, 0.01], 0.004, [0, 0, 2.0])
        assert np.linalg.norm(h.axis) == pytest.approx(1.0, abs=1e-15)

    def test_camera_validation(self):
        with pytest.raises(ValueError, match="focal"):
            CameraModel(pose=Pose(np.zeros(3)), fx=0.0)

    @pytest.mark.parametrize(
        "make, text",
        [
            (lambda: CameraModel(Pose(np.zeros(3)), fx=math.nan), "focal length fx must be positive, got nan"),
            (lambda: CameraModel(Pose(np.zeros(3)), fy=math.inf), "focal length fy must be finite, got inf"),
            (lambda: CameraModel(Pose(np.zeros(3)), cy=math.nan), "cy must be finite, got nan"),
            (lambda: CameraModel(Pose(np.zeros(3)), height=math.nan), "height must be positive, got nan"),
            (lambda: HoleSpec([0, 0, 0.01], math.nan, [0, 0, 1]), "hole radius must be positive, got nan"),
            (lambda: HoleSpec([0, math.nan, 0.01], 0.004, [0, 0, 1]), "hole offset must be finite, got (0.0, nan, 0.01)"),
            (lambda: HoleSpec([0, 0, 0.01], 0.004, [math.nan, 0, 1]), "hole axis must be finite, got (nan, 0.0, 1.0)"),
            (lambda: HoleEstimate([0, 0, 0], [0, 0, 1], math.nan, 0.0), "radius must be positive, got nan"),
            (lambda: HoleEstimate([0, 0, math.inf], [0, 0, 1], 0.004, 0.0), "center must be finite, got (0.0, 0.0, inf)"),
            (lambda: HoleEstimate([0, 0, 0], [0, 0, math.nan], 0.004, 0.0), "axis must be unit-norm"),
            (lambda: HoleEstimate([0, 0, 0], [0, 0, 1], 0.004, math.nan), "rms must be at least 0, got nan"),
        ],
    )
    def test_non_finite_values_are_refused(self, make, text):
        # each of these was once accepted and carried NaN into the pipeline
        with pytest.raises(ValueError) as err:
            make()
        assert str(err.value) == text

    def test_default_scene_geometry(self):
        scene = default_bar_scene()
        assert len(scene.holes) == 3
        assert np.allclose(scene.hole_center_world(1), [0.0, 0.0, 0.06])
        assert np.allclose(scene.hole_axis_world(0), [0.0, 0.0, 1.0])


def same_bits(a, b):
    return np.array_equal(np.asarray(a, dtype=float).view(np.int64), np.asarray(b, dtype=float).view(np.int64))


def reference_orthobasis(n):
    """_orthobasis spelled out on np.cross."""
    e = np.zeros(3)
    e[int(np.argmin(np.abs(n)))] = 1.0
    u = np.cross(n, e)
    u = u / np.linalg.norm(u)
    return u, np.cross(n, u)


def rim_in_camera(scene, cam, hole_id, n_points):
    """The noiseless rim synthesize_mask samples, every point kept, in the
    camera frame."""
    u, v = _orthobasis(scene.hole_axis_world(hole_id))
    ang = 2.0 * math.pi * np.arange(n_points) / n_points
    rim = scene.hole_center_world(hole_id) + scene.holes[hole_id].radius * (
        np.outer(np.cos(ang), u) + np.outer(np.sin(ang), v)
    )
    return cam.world_to_camera(rim)


_component = st.floats(-1, 1, allow_nan=False)
_unit = st.tuples(_component, _component, _component).filter(lambda v: math.hypot(*v) > 1e-3).map(
    lambda v: np.array(v) / math.hypot(*v)
)
# unit normals: generic, on an axis (signed zeros included), and on a
# diagonal, where |n| ties and argmin takes the first
normal_st = st.one_of(
    _unit,
    st.sampled_from([(0.0, 0.0, 1.0), (-0.0, 0.0, -1.0), (1.0, -0.0, 0.0), (0.0, 1.0, 0.0)]).map(np.array),
    st.sampled_from([(1, 1, 1), (-1, 1, -1), (1, -1, 0), (0, 1, -1)]).map(lambda v: np.array(v) / math.hypot(*v)),
)
pose_st = st.tuples(
    st.tuples(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2)),
    st.tuples(_component, _component, _component, _component).filter(lambda q: math.hypot(*q) > 1e-3),
).map(lambda pq: Pose(pq[0], quat_normalize(*pq[1])))


# camera-frame coordinates: ordinary, on the image edges of the default
# lens (u = 0 at x = -cx z / fx), zero of either sign, tiny, huge, infinite
# and NaN
_coordinate = st.one_of(
    st.floats(-1.0, 1.0),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300, math.inf, -math.inf, math.nan]),
    st.sampled_from([-320.0 / 615.0, 320.0 / 615.0, -240.0 / 615.0, 240.0 / 615.0, 1.0]),
)
# lens values (fx, fy, cx, cy, width, height) as floats, as ints and as
# numpy scalars, which numpy converts to float64 before it compares them
_LENSES = [
    (615.0, 615.0, 320.0, 240.0, 640, 480),
    (615, 600, 320, 240, 640, 480),
    (np.float32(615.1), np.float64(615.0), np.float32(320.3), 240.0, np.int64(640), 480),
    (1e-300, 1e300, 0.0, -5.0, 1, 2**53 + 1),
]


class TestCameraTransform:
    """The camera's transform, built once, against the inverse pose's
    matrix bit for bit; its one-point visibility check against
    ``visible``; and the rim basis against np.cross."""

    @settings(deadline=None)
    @given(normal_st)
    def test_orthobasis_is_the_np_cross_version(self, n):
        for got, want in zip(_orthobasis(n), reference_orthobasis(n)):
            assert same_bits(got, want)

    @settings(deadline=None, max_examples=50)
    @given(pose_st, st.integers(0, 2**32 - 1))
    def test_world_to_camera_is_the_inverse_pose_map(self, pose, seed):
        cam = CameraModel(pose)
        inv = pose.inverse()
        pts = np.random.default_rng(seed).normal(size=(600, 3))
        for x in (pts[:1], pts, pts[0]):
            want = np.asarray(x).reshape(-1, 3) @ quat_matrix_wxyz(inv.orientation).T + inv.position
            assert same_bits(cam.world_to_camera(x), want)

    def test_replaced_pose_moves_the_transform(self):
        cam = default_camera()
        other = Pose([0.05, -0.02, 0.4], from_rotation_vector([math.pi - 0.3, 0.2, 0.1]))
        moved = dataclasses.replace(cam, pose=other)
        pts = np.random.default_rng(4).normal(size=(20, 3))
        assert same_bits(moved.world_to_camera(pts), CameraModel(other).world_to_camera(pts))
        assert not np.allclose(moved.world_to_camera(pts), cam.world_to_camera(pts))
        assert same_bits(cam.world_to_camera(pts), CameraModel(cam.pose).world_to_camera(pts))

    def test_equal_cameras_compare_equal(self):
        cam = default_camera()
        assert cam == CameraModel(cam.pose)
        assert cam == dataclasses.replace(cam)
        assert cam != dataclasses.replace(cam, fx=600.0)
        assert "_to_camera" not in repr(cam)

    def test_pose_whose_inverse_overflows_is_refused_when_made(self):
        # once made without a transform, each world_to_camera then raising
        # the inverse pose's error
        with pytest.raises(ValueError, match="^camera pose has no finite inverse: pose position must be finite$"):
            CameraModel(Pose([1.5e308, 0.0, 0.3], (0.0, 0.6, 0.8, 0.0)))

    @settings(deadline=None, max_examples=300)
    @given(st.tuples(_coordinate, _coordinate, _coordinate), st.sampled_from(_LENSES))
    def test_one_point_check_is_visible(self, point, lens):
        cam = CameraModel(default_camera().pose, *lens)
        assert cam._sees(*point) is bool(cam.visible(np.array([point]))[0])

    def test_one_point_check_on_the_image_edges(self):
        # fx = width and fy = height put x = +-0.5 and y = +-0.5 at z = 1
        # exactly on the edges: u, v = 0 are in the image, u = 640 and
        # v = 480 are not
        cam = CameraModel(default_camera().pose, 640.0, 480.0, 320.0, 240.0, 640, 480)
        for x in (-0.5, 0.0, 0.5):
            for y in (-0.5, 0.0, 0.5):
                for z in (1.0, 0.0, -0.0, -1.0):
                    want = z > 0 and x < 0.5 and y < 0.5
                    assert cam._sees(x, y, z) is want is bool(cam.visible(np.array([[x, y, z]]))[0])


class TestSynthesizeMask:
    def test_noiseless_points_lie_on_rim(self):
        scene, cam = default_bar_scene(), default_camera()
        mask = synthesize_mask(scene, cam, 1)
        assert len(mask.points) == 200
        center = cam.world_to_camera(scene.hole_center_world(1))[0]
        rel = mask.points - center
        axis = cam.world_to_camera(scene.hole_center_world(1) + scene.hole_axis_world(1))[0] - center
        out_of_plane = rel @ axis
        radial = np.linalg.norm(rel - np.outer(out_of_plane, axis), axis=1)
        assert np.max(np.abs(out_of_plane)) < 1e-12
        assert np.max(np.abs(radial - 0.004)) < 1e-12

    def test_partly_hidden_rim_keeps_exactly_the_visible_points(self):
        # at this yaw hole 0's center is in view, near the image edge, and
        # part of its rim is not
        scene, cam = default_bar_scene().yawed(math.radians(-116.0)), default_camera()
        pts = rim_in_camera(scene, cam, 0, 600)
        seen = cam.visible(pts)
        assert 0 < seen.sum() < 600
        assert same_bits(synthesize_mask(scene, cam, 0, n_points=600).points, pts[seen])

    def test_fully_visible_rim_keeps_every_point(self):
        scene, cam = default_bar_scene(), default_camera()
        pts = rim_in_camera(scene, cam, 1, 600)
        assert cam.visible(pts).all()
        assert same_bits(synthesize_mask(scene, cam, 1, n_points=600).points, pts)

    def test_dropout_point_count(self):
        scene, cam = default_bar_scene(), default_camera()
        assert len(synthesize_mask(scene, cam, 1, dropout=0.9).points) == 20
        assert len(synthesize_mask(scene, cam, 1, dropout=0.5).points) == 100

    def test_seed_determinism(self):
        scene, cam = default_bar_scene(), default_camera()
        a = synthesize_mask(scene, cam, 0, noise_sigma=5e-4, dropout=0.3, seed=7)
        b = synthesize_mask(scene, cam, 0, noise_sigma=5e-4, dropout=0.3, seed=7)
        c = synthesize_mask(scene, cam, 0, noise_sigma=5e-4, dropout=0.3, seed=8)
        assert np.array_equal(a.points, b.points)
        assert not np.array_equal(a.points, c.points)

    def test_yawed_out_of_frustum(self):
        scene, cam = default_bar_scene(), default_camera()
        for check in (synthesize_mask, check_visible):
            with pytest.raises(NotDetectable, match="center outside frustum"):
                check(scene.yawed(math.radians(85)), cam, 0)
        check_visible(scene.yawed(math.radians(60)), cam, 0)

    def test_back_facing_hole(self):
        scene, cam = default_bar_scene(), default_camera()
        flipped = BarScene(
            Pose(scene.bar.position, from_rotation_vector([math.pi - 1e-9, 0, 0])),
            scene.dims,
            scene.holes,
        )
        for check in (synthesize_mask, check_visible):
            with pytest.raises(NotDetectable, match="back-facing"):
                check(flipped, cam, 1)

    def test_parameter_validation(self):
        scene, cam = default_bar_scene(), default_camera()
        with pytest.raises(ValueError, match=r"^hole id 5 outside the scene's holes 0\.\.2$"):
            synthesize_mask(scene, cam, 5)
        # at the config's cap, not only its floor: the rim is sampled before visibility
        with pytest.raises(ValueError, match="^n_points must be at least 3, got 2$"):
            synthesize_mask(scene, cam, 0, n_points=2)
        with pytest.raises(ValueError, match=f"^n_points must be at most {MAX_MASK_POINTS}, got 100001$"):
            synthesize_mask(scene, cam, 0, n_points=MAX_MASK_POINTS + 1)
        with pytest.raises(ValueError, match="sigma"):
            synthesize_mask(scene, cam, 0, noise_sigma=-1.0)
        with pytest.raises(ValueError, match="dropout"):
            synthesize_mask(scene, cam, 0, dropout=1.0)
        # nan compares False both ways, so a `< 0` check lets it through as no noise
        with pytest.raises(ValueError, match="sigma"):
            synthesize_mask(scene, cam, 0, noise_sigma=math.nan)
        with pytest.raises(ValueError, match="dropout"):
            synthesize_mask(scene, cam, 0, dropout=math.nan)


class TestFitPlane:
    """The plane step of fit_circle3d: its normal is the fitted axis,
    oriented toward the camera at the origin."""

    def test_exact_horizontal_plane(self):
        pts = arc_points(2 * math.pi, 24, radius=0.1) + [0.0, 0.0, 0.5 - RIM_CENTER[2]]
        est = fit_circle3d(MaskSample(pts))
        assert np.allclose(est.axis, [0, 0, -1.0], atol=1e-12)
        assert est.center[2] == pytest.approx(0.5, abs=1e-12)
        assert est.rms < 1e-15

    def test_three_points_fit_exactly(self):
        pts = np.array([[0.1, 0.0, 0.3], [0.0, 0.2, 0.35], [-0.1, -0.1, 0.28]])
        est = fit_circle3d(MaskSample(pts))
        assert est.rms < 1e-12
        assert float(est.axis @ pts.mean(axis=0)) < 0  # toward the camera
        np.testing.assert_allclose(np.linalg.norm(pts - est.center, axis=1), est.radius, rtol=1e-9)

    def test_collinear_points_rejected(self):
        t = np.linspace(0, 1, 10)
        pts = np.outer(t, [1.0, 2.0, 3.0]) + [0.0, 0.0, 0.5]
        with pytest.raises(ValueError, match="collinear"):
            fit_circle3d(MaskSample(pts))

    def test_too_few_points(self):
        # a plane needs three points: one point or none is refused before the fit
        for n in (0, 1):
            with pytest.raises(ValueError, match="at least 3"):
                fit_circle3d(MaskSample(np.zeros((n, 3))))

    def test_noisy_plane_recovery(self):
        # a 40 mm rim with 0.5 mm of noise across its plane
        pts = arc_points(2 * math.pi, 200, radius=0.04)
        pts[:, 2] += np.random.default_rng(11).normal(scale=5e-4, size=200)
        est = fit_circle3d(MaskSample(pts))
        assert 3e-4 < est.rms < 7e-4
        angle = math.acos(min(1.0, abs(float(est.axis @ [0, 0, 1]))))
        assert math.degrees(angle) < 1.0


class TestFitCircle3d:
    def test_exact_rim_recovery(self):
        scene, cam = default_bar_scene(), default_camera()
        for hole_id in range(3):
            est = fit_circle3d(synthesize_mask(scene, cam, hole_id))
            assert world_center_error(cam, scene, hole_id, est) < 1e-9
            assert abs(est.radius - 0.004) < 1e-9
            axis_world = quat_rotate_wxyz(cam.pose.orientation, est.axis)
            assert np.linalg.norm(axis_world - scene.hole_axis_world(hole_id)) < 1e-9
            assert est.rms < 1e-12

    def test_monte_carlo_center_error(self):
        # sigma 0.5 mm, dropout 0.5: 95th percentile center error < 1 mm
        scene, cam = default_bar_scene(), default_camera()
        errs = []
        for seed in range(100):
            mask = synthesize_mask(scene, cam, 1, noise_sigma=5e-4, dropout=0.5, seed=seed)
            errs.append(world_center_error(cam, scene, 1, fit_circle3d(mask)))
        assert float(np.percentile(errs, 95)) < 1e-3

    def test_monotone_noise_degradation(self):
        scene, cam = default_bar_scene(), default_camera()
        medians = []
        for sigma in (0.0, 2.5e-4, 5e-4, 1e-3):
            errs = [
                world_center_error(
                    cam, scene, 1, fit_circle3d(synthesize_mask(scene, cam, 1, noise_sigma=sigma, seed=s))
                )
                for s in range(100)
            ]
            medians.append(float(np.median(errs)))
        assert all(a <= b for a, b in zip(medians, medians[1:]))

    def test_half_arc_bias_bounded(self):
        # 180 deg of rim: the systematic center offset stays below twice the
        # full-circle error at the same noise level
        sigma = 5e-4
        full = np.array(
            [fit_circle3d(MaskSample(arc_points(2 * math.pi, 200, sigma, s))).center for s in range(150)]
        )
        half = np.array(
            [fit_circle3d(MaskSample(arc_points(math.pi, 100, sigma, s))).center for s in range(150)]
        )
        full_err = float(np.median(np.linalg.norm(full - RIM_CENTER, axis=1)))
        half_bias = float(np.linalg.norm(half.mean(axis=0) - RIM_CENTER))
        assert half_bias < 2.0 * full_err

    def test_insufficient_arc_rejected(self):
        pts = arc_points(math.radians(60), 50)
        with pytest.raises(ValueError, match="arc coverage"):
            fit_circle3d(MaskSample(pts))

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="at least 3"):
            fit_circle3d(MaskSample(np.zeros((2, 3))))

    def test_rigid_transform_equivariance(self):
        scene, cam = default_bar_scene(), default_camera()
        g = Pose(np.array([0.4, -0.2, 0.1]), from_rotation_vector([0.3, -0.2, 0.5]))
        moved_scene = BarScene(compose(g, scene.bar), scene.dims, scene.holes)
        moved_cam = CameraModel(
            compose(g, cam.pose), cam.fx, cam.fy, cam.cx, cam.cy, cam.width, cam.height
        )
        for hole_id in (0, 1, 2):
            a = fit_circle3d(synthesize_mask(scene, cam, hole_id))
            b = fit_circle3d(synthesize_mask(moved_scene, moved_cam, hole_id))
            a_world = g.transform_point(cam.pose.transform_point(a.center))
            b_world = moved_cam.pose.transform_point(b.center)
            assert np.linalg.norm(a_world - b_world) < 1e-9
            assert abs(a.radius - b.radius) < 1e-12


class TestLocateHole:
    """The one mask -> fit -> world chain, and its errors against the true hole."""

    @staticmethod
    def corner_camera():
        """The default camera with hole 1's center 0.1 px inside the image's
        last column and row, so the image shows a quarter of its rim."""
        cam = default_camera()
        return CameraModel(cam.pose, cx=320.9, cy=240.9, width=321, height=241)

    def test_exact_rim_errors_vanish(self):
        scene, cam = default_bar_scene(), default_camera()
        for hole_id in range(3):
            est = locate_hole(scene, cam, hole_id)
            assert all(err < 1e-9 for err in hole_errors(est, scene, hole_id))

    def test_rejected_arc_is_not_detectable_with_the_fit_message(self):
        scene, cam = default_bar_scene(), self.corner_camera()
        with pytest.raises(ValueError, match="arc coverage 72.0 deg") as fit_err:
            fit_circle3d(synthesize_mask(scene, cam, 1, n_points=10))
        with pytest.raises(NotDetectable) as err:
            locate_hole(scene, cam, 1, n_points=10)
        assert str(err.value) == str(fit_err.value)

    def test_argument_errors_stay_value_errors(self):
        scene, cam = default_bar_scene(), default_camera()
        for kwargs in ({"hole_id": 5}, {"hole_id": 0, "n_points": 2}, {"hole_id": 0, "dropout": 1.0}):
            with pytest.raises(ValueError) as err:
                locate_hole(scene, cam, **kwargs)
            assert not isinstance(err.value, NotDetectable)

    def test_tilt_is_the_angle_between_the_axes(self):
        scene = default_bar_scene()
        assert np.array_equal(scene.hole_axis_world(0), [0.0, 0.0, 1.0])
        est = HoleEstimate(scene.hole_center_world(0) + [0.0, 0.003, 0.004], [0.0, -math.sin(0.3), math.cos(0.3)],
                           scene.holes[0].radius + 1e-3, 0.0)
        center_err, tilt, radius_err = hole_errors(est, scene, 0)
        assert center_err == pytest.approx(0.005, abs=1e-15)
        assert tilt == pytest.approx(0.3, abs=1e-12)
        assert radius_err == pytest.approx(1e-3, abs=1e-15)

    def test_calls_go_through_the_module_functions(self, monkeypatch):
        # a tracer that replaces vision's synthesize_mask and fit_circle3d sees every call
        import lfdkit.vision as vision

        calls = []
        for name in ("synthesize_mask", "fit_circle3d"):
            inner = getattr(vision, name)
            monkeypatch.setattr(vision, name, lambda *a, _f=inner, _n=name, **k: calls.append(_n) or _f(*a, **k))
        locate_hole(default_bar_scene(), default_camera(), 1)
        assert calls == ["synthesize_mask", "fit_circle3d"]

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_errors_match_the_sweep_rows(self, seed):
        scene, cam = default_bar_scene(), default_camera()
        rows, _ = detection_range_sweep(scene, cam, math.radians(-60), math.radians(60), math.radians(20),
                                        noise_sigma=5e-4, seed=seed)
        fitted = 0
        for k, (yaw, hole_id, _, center_err, radius_err) in enumerate(rows):
            turned = scene.yawed(yaw)
            try:
                est = locate_hole(turned, cam, hole_id, 5e-4, 0.0, seed * 1000003 + k)
            except NotDetectable:
                assert math.isnan(center_err) and math.isnan(radius_err)
                continue
            got = hole_errors(est, turned, hole_id)
            assert (got[0], got[2]) == (center_err, radius_err)
            fitted += 1
        assert fitted >= 15


class TestDetectionRangeSweep:
    @pytest.mark.parametrize("tolerance, shown", [(math.nan, "nan"), (-1.0, "-1.0"), (0.0, "0.0")])
    def test_rejects_a_tolerance_that_is_not_positive(self, tolerance, shown):
        # no center error is at most such a tolerance, so every hole would read undetected
        scene, cam = default_bar_scene(), default_camera()
        with pytest.raises(ValueError) as err:
            detection_range_sweep(scene, cam, 0.0, 0.1, 0.1, tolerance=tolerance)
        assert str(err.value) == f"tolerance must be positive, got {shown}"

    def test_centered_hole_fully_detectable(self):
        scene, cam = default_bar_scene(), default_camera()
        deg5 = math.radians(5)
        _, intervals = detection_range_sweep(scene, cam, -deg5, deg5, math.radians(1))
        assert len(intervals[1]) == 1
        lo, hi = intervals[1][0]
        assert lo == pytest.approx(-deg5, abs=1e-12)
        assert hi == pytest.approx(deg5, abs=1e-12)

    def test_outer_holes_leave_view(self):
        scene, cam = default_bar_scene(), default_camera()
        rows, intervals = detection_range_sweep(
            scene, cam, math.radians(-80), math.radians(80), math.radians(5)
        )
        for hole_id in (0, 2):
            assert len(intervals[hole_id]) == 1
            lo, hi = intervals[hole_id][0]
            assert math.degrees(lo) > -80 and math.degrees(hi) < 80
        assert len(intervals[1]) == 1

    def test_matches_reversed_order_rerun(self):
        # per-cell seeding makes the sweep independent of iteration order
        scene, cam = default_bar_scene(), default_camera()
        lo, hi, step = math.radians(-30), math.radians(30), math.radians(5)
        rows, _ = detection_range_sweep(scene, cam, lo, hi, step, noise_sigma=2.5e-4, seed=3)
        count = int(math.floor((hi - lo) / step + 1e-9)) + 1
        yaw_values = [lo + step * i for i in range(count)]
        by_key = {(round(yaw, 12), hole_id): (detected, center_err) for yaw, hole_id, detected, center_err, _ in rows}
        from lfdkit.vision import synthesize_mask as mask_fn, fit_circle3d as fit_fn

        for i in reversed(range(count)):
            turned = scene.yawed(yaw_values[i])
            for j in reversed(range(3)):
                detected, center_err = by_key[(round(yaw_values[i], 12), j)]
                try:
                    est = fit_fn(mask_fn(turned, cam, j, 2.5e-4, 0.0, 3 * 1000003 + i * 3 + j))
                except (NotDetectable, ValueError):
                    assert not detected and math.isnan(center_err)
                else:
                    err = world_center_error(cam, turned, j, est)
                    assert center_err == err
                    assert detected == (err <= 1e-3)

    @staticmethod
    def patterned_sweep(pattern, start=-1.0, step=0.1):
        """The intervals of a sweep over len(pattern) yaws in which hole j is
        detected at yaw i exactly where pattern[i][j], and those of the
        per-yaw run-tracking scan on the same grid."""
        hits = iter([hit for row in pattern for hit in row])

        def locate(turned, cam, j, *args):
            if not next(hits):
                raise NotDetectable("hidden")
            return HoleEstimate(turned.hole_center_world(j), turned.hole_axis_world(j), turned.holes[j].radius, 0.0)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(vision, "locate_hole", locate)
            stop = start + step * (len(pattern) - 0.5)  # half a step past the last yaw, whatever the rounding
            _, intervals = detection_range_sweep(default_bar_scene(), default_camera(), start, stop, step)
        yaws = start + step * np.arange(len(pattern))
        scanned = {}
        for j in range(3):
            spans, run_start = [], None
            for i, row in enumerate(pattern):
                if row[j] and run_start is None:
                    run_start = yaws[i]
                elif not row[j] and run_start is not None:
                    spans.append((float(run_start), float(yaws[i - 1])))
                    run_start = None
            if run_start is not None:
                spans.append((float(run_start), float(yaws[-1])))
            scanned[j] = tuple(spans)
        return intervals, scanned

    @pytest.mark.parametrize("pattern", [
        pytest.param([(True,) * 3] * 5, id="all-detected"),
        pytest.param([(False,) * 3] * 5, id="none-detected"),
        pytest.param([(True, False, True)], id="one-yaw"),
        pytest.param([(True, False, False), (True, True, False), (False, True, True), (False, False, True)],
                     id="runs-at-either-end"),
        pytest.param([(True, True, False), (False, True, True), (True, False, True), (False, True, False),
                      (True, True, True)], id="alternating"),
    ])
    def test_intervals_are_the_runs_of_detected_yaws(self, pattern):
        intervals, scanned = self.patterned_sweep(pattern)
        assert repr(intervals) == repr(scanned)

    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.tuples(st.booleans(), st.booleans(), st.booleans()), min_size=1, max_size=12),
           st.floats(-2.0, 2.0), st.floats(1e-3, 0.3))
    def test_random_patterns_keep_the_run_scan(self, pattern, start, step):
        intervals, scanned = self.patterned_sweep(pattern, start, step)
        assert repr(intervals) == repr(scanned)

    def test_validation(self):
        scene, cam = default_bar_scene(), default_camera()
        with pytest.raises(ValueError, match="step"):
            detection_range_sweep(scene, cam, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="^yaw_stop must be at least yaw_start$"):
            detection_range_sweep(scene, cam, 1.0, 0.0, 0.1)
        # numpy rejects a negative seed; unchecked, every fit read as undetected
        with pytest.raises(ValueError, match="seed must be at least 0, got -1"):
            detection_range_sweep(scene, cam, 0.0, 1.0, 0.1, seed=-1)

    @pytest.mark.parametrize(
        "start, stop, step",
        [(-math.inf, 0.0, 0.1), (0.0, math.inf, 0.1), (0.0, math.nan, 0.1), (math.nan, 0.0, 0.1),
         (0.0, 1.0, math.inf), (0.0, 1.0, math.nan)],
    )
    def test_non_finite_range_is_named(self, start, stop, step):
        # unchecked, the grid size raised OverflowError or a NaN-to-int error
        with pytest.raises(ValueError, match="yaw range must be finite"):
            detection_range_sweep(default_bar_scene(), default_camera(), start, stop, step)

    def test_grid_past_the_cap_rejected_before_it_exists(self):
        # unchecked, a grid of 1e600 yaws raised OverflowError sizing np.arange
        with pytest.raises(ValueError, match=f"sweep grid of inf yaws exceeds {MAX_SWEEP_YAWS}; raise step"):
            detection_range_sweep(default_bar_scene(), default_camera(), 0.0, 1e300, 1e-300)
        with pytest.raises(ValueError, match=f"10001 yaws exceeds {MAX_SWEEP_YAWS}"):
            detection_range_sweep(default_bar_scene(), default_camera(), 0.0, 1e4, 1.0)

    def test_yaw_count_at_the_cap(self):
        assert sweep_yaw_count(0.0, MAX_SWEEP_YAWS - 1.0, 1.0) == MAX_SWEEP_YAWS
        assert sweep_yaw_count(-0.1, 0.1, 0.1) == 3
        assert sweep_yaw_count(0.5, 0.5, 1e-300) == 1
        with pytest.raises(ValueError, match="raise step_deg"):
            sweep_yaw_count(0.0, float(MAX_SWEEP_YAWS), 1.0, "step_deg")
        with pytest.raises(ValueError, match="step_deg must be positive"):
            sweep_yaw_count(0.0, 1.0, 0.0, "step_deg")

    def test_corruption_arguments_rejected_before_the_loop(self):
        # caught inside the loop, these read as every hole undetected
        scene, cam = default_bar_scene(), default_camera()
        with pytest.raises(ValueError, match="^noise_sigma must be at least 0, got -1.0$"):
            detection_range_sweep(scene, cam, -0.1, 0.1, 0.1, noise_sigma=-1.0)
        with pytest.raises(ValueError, match="^dropout must be below 1, got 1.5$"):
            detection_range_sweep(scene, cam, -0.1, 0.1, 0.1, dropout=1.5)


class TestSceneSerialization:
    def test_round_trip_bytes(self, tmp_path):
        scene, cam = default_bar_scene(), default_camera()
        p1 = tmp_path / "scene.json"
        p2 = tmp_path / "scene2.json"
        write_json(p1, scene_to_dict(scene, cam))
        scene2, cam2 = scene_from_dict(read_json(p1), str(p1))
        write_json(p2, scene_to_dict(scene2, cam2))
        assert p1.read_bytes() == p2.read_bytes()
        assert np.array_equal(scene2.dims, scene.dims)
        assert np.array_equal(scene2.holes[2].offset, scene.holes[2].offset)
        assert cam2.fx == cam.fx and cam2.height == cam.height

    def test_unknown_key_rejected(self):
        scene, cam = default_bar_scene(), default_camera()
        data = scene_to_dict(scene, cam)
        data["bar"]["color"] = "red"
        with pytest.raises(ValueError, match="unknown key 'color' in scene.bar"):
            scene_from_dict(data)

    def test_missing_key_rejected(self):
        scene, cam = default_bar_scene(), default_camera()
        data = scene_to_dict(scene, cam)
        del data["camera"]["fx"]
        with pytest.raises(ValueError, match="missing key 'fx' in scene.camera"):
            scene_from_dict(data)
