"""Hole localization tests.

Oracles: noiseless rim samples are exact fits (construction), Monte-Carlo
error distributions come from the generating scene, and the sweep is
cross-checked against an independent re-run with reversed iteration order.
"""

import math

import numpy as np
import pytest

from lfdkit.presets import default_bar_scene, default_camera
from lfdkit.se3 import Pose, from_rotation_vector, quat_mul_wxyz, quat_rotate_wxyz
from lfdkit.trajectory import read_json, write_json
from lfdkit.vision import (
    BarScene,
    CameraModel,
    HoleEstimate,
    HoleSpec,
    MaskSample,
    NotDetectable,
    check_visible,
    detection_range_sweep,
    fit_circle3d,
    fit_plane,
    scene_from_dict,
    scene_to_dict,
    synthesize_mask,
)

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

    def test_default_scene_geometry(self):
        scene = default_bar_scene()
        assert len(scene.holes) == 3
        assert np.allclose(scene.hole_center_world(1), [0.0, 0.0, 0.06])
        assert np.allclose(scene.hole_axis_world(0), [0.0, 0.0, 1.0])


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
        with pytest.raises(ValueError, match="hole id"):
            synthesize_mask(scene, cam, 5)
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
    def test_exact_horizontal_plane(self):
        g = np.linspace(-0.1, 0.1, 7)
        xx, yy = np.meshgrid(g, g)
        pts = np.column_stack([xx.ravel(), yy.ravel(), np.full(xx.size, 0.5)])
        normal, d, rms = fit_plane(pts)
        assert np.allclose(normal, [0, 0, -1.0], atol=1e-12)
        assert d == pytest.approx(0.5, abs=1e-12)
        assert rms < 1e-15

    def test_three_points_fit_exactly(self):
        pts = np.array([[0.1, 0.0, 0.3], [0.0, 0.2, 0.35], [-0.1, -0.1, 0.28]])
        _, _, rms = fit_plane(pts)
        assert rms < 1e-12

    def test_collinear_points_rejected(self):
        t = np.linspace(0, 1, 10)
        pts = np.outer(t, [1.0, 2.0, 3.0]) + [0.0, 0.0, 0.5]
        with pytest.raises(ValueError, match="collinear"):
            fit_plane(pts)

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="at least 3"):
            fit_plane(np.zeros((2, 3)))

    def test_noisy_plane_recovery(self):
        rng = np.random.default_rng(11)
        pts = np.column_stack(
            [rng.uniform(-0.05, 0.05, 200), rng.uniform(-0.05, 0.05, 200), np.full(200, 0.24)]
        )
        pts[:, 2] += rng.normal(scale=5e-4, size=200)
        normal, d, rms = fit_plane(pts)
        assert 3e-4 < rms < 7e-4
        angle = math.acos(min(1.0, abs(float(normal @ [0, 0, 1]))))
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


class TestDetectionRangeSweep:
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

    def test_validation(self):
        scene, cam = default_bar_scene(), default_camera()
        with pytest.raises(ValueError, match="step"):
            detection_range_sweep(scene, cam, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="empty yaw range"):
            detection_range_sweep(scene, cam, 1.0, 0.0, 0.1)
        # numpy rejects a negative seed; unchecked, every fit read as undetected
        with pytest.raises(ValueError, match="seed must be at least 0, got -1"):
            detection_range_sweep(scene, cam, 0.0, 1.0, 0.1, seed=-1)

    def test_corruption_arguments_rejected_before_the_loop(self):
        # caught inside the loop, these read as every hole undetected
        scene, cam = default_bar_scene(), default_camera()
        with pytest.raises(ValueError, match="noise sigma must be >= 0"):
            detection_range_sweep(scene, cam, -0.1, 0.1, 0.1, noise_sigma=-1.0)
        with pytest.raises(ValueError, match=r"dropout must be in \[0, 1\)"):
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
