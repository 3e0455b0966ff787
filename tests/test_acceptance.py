"""End-to-end acceptance gates, one test per criterion (a1 through a8).

Each test prints one summary line, so `pytest -sv tests/test_acceptance.py`
reads as a checklist. Tolerances and time budgets are pinned here and must
not be loosened to make a failing gate pass.
"""

import json
import math
import time

import numpy as np

from lfdkit.cli import main
from lfdkit.dmp import _forcing_profile, fit_pose_dmp, rollout
from lfdkit import ktc
from lfdkit.ktc import simulate_demonstration
from lfdkit.metrics import jerk_metrics
from lfdkit.presets import (
    default_bar_scene,
    default_camera,
    default_teach_setup,
    demo_pose_waypoints,
    make_smooth_demo,
)
from lfdkit.se3 import Pose, from_rotation_vector, quat_conj_wxyz, quat_mul_wxyz, quat_normalize
from lfdkit.se3 import quat_rotate_wxyz, rotation_vector_wxyz
from lfdkit.trajectory import Trajectory, finite_difference
from lfdkit.vision import detection_range_sweep, fit_circle3d, synthesize_mask


def _ten_second_demo():
    wp, quats = demo_pose_waypoints(seed=0)
    return make_smooth_demo(wp, duration=10.0, orientations=quats)


def _angle_between(qa, qb) -> float:
    rel = quat_mul_wxyz(quat_normalize(*qb), quat_conj_wxyz(quat_normalize(*qa)))
    return float(np.linalg.norm(rotation_vector_wxyz(rel)))


def test_a1_imitation_accuracy():
    # fit a 10 s smooth 5-waypoint 6-DoF demo, replay with demo start/goal:
    # position RMSE <= 2 mm, orientation RMSE <= 1 deg, under 1 s
    demo = _ten_second_demo()
    t0 = time.perf_counter()
    dmp = fit_pose_dmp(demo)
    replay = rollout(dmp)
    elapsed = time.perf_counter() - t0

    n = demo.times.size
    pos_rmse = float(
        np.sqrt(np.mean(np.sum((replay.positions[:n] - demo.positions) ** 2, axis=1)))
    )
    angles = [
        _angle_between(demo.orientations[i], replay.orientations[i]) for i in range(n)
    ]
    rot_rmse = float(np.sqrt(np.mean(np.square(angles))))

    assert pos_rmse <= 2e-3
    assert rot_rmse <= math.radians(1.0)
    assert elapsed < 1.0
    print(
        f"a1 PASS: pos RMSE {pos_rmse * 1e3:.3f} mm, "
        f"rot RMSE {math.degrees(rot_rmse):.3f} deg, {elapsed:.2f} s"
    )


def test_a2_goal_generalization():
    # 100 random goal shifts up to twice the demo amplitude, phase-gated:
    # every endpoint within 1 mm of the new goal, under 10 s
    demo = _ten_second_demo()
    dmp = fit_pose_dmp(demo)
    amplitude = float(np.linalg.norm(np.ptp(demo.positions, axis=0)))
    rng = np.random.default_rng(0)

    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        shift = direction * 2.0 * amplitude * rng.uniform() ** (1 / 3)
        goal = Pose(dmp.demo_goal.position + shift, dmp.demo_goal.orientation)
        traj = rollout(dmp, goal=goal)
        worst = max(worst, float(np.linalg.norm(traj.positions[-1] - goal.position)))
    elapsed = time.perf_counter() - t0

    assert worst <= 1e-3
    assert elapsed < 10.0
    print(f"a2 PASS: worst endpoint error {worst * 1e3:.4f} mm over 100 shifts, {elapsed:.1f} s")


def test_a3_batch_all_trials_succeed(tmp_path, capsys):
    # CLI `batch --n 20 --seed 7`, default config (0.5 mm vision noise,
    # 0.5 mm clearance, random hole, random detectable yaw): rate 1.0, < 30 s
    out = tmp_path / "batch.json"
    t0 = time.perf_counter()
    code = main(["batch", "--n", "20", "--seed", "7", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    stdout = capsys.readouterr().out

    assert code == 0
    assert "success_rate=1.0" in stdout
    report = json.loads(out.read_text())
    assert report["n"] == 20
    assert report["success_rate"] == 1.0
    assert elapsed < 30.0
    print(f"a3 PASS: 20/20 trials succeeded, {elapsed:.1f} s")


def test_a4_detection_range_stability():
    # 3-hole sweep at 0.5 mm noise: per-hole detectable yaws form one
    # contiguous interval, endpoints within one step across two seeds, < 30 s
    scene, cam = default_bar_scene(), default_camera()
    step = math.radians(2.0)
    t0 = time.perf_counter()
    by_seed = {}
    for seed in (0, 1):
        _, intervals = detection_range_sweep(
            scene,
            cam,
            math.radians(-80.0),
            math.radians(80.0),
            step,
            noise_sigma=5e-4,
            seed=seed,
        )
        by_seed[seed] = intervals
    elapsed = time.perf_counter() - t0

    spans = []
    for hole_id in range(3):
        a = by_seed[0][hole_id]
        b = by_seed[1][hole_id]
        assert len(a) == 1 and len(b) == 1
        (lo_a, hi_a), (lo_b, hi_b) = a[0], b[0]
        assert abs(lo_a - lo_b) <= step + 1e-9
        assert abs(hi_a - hi_b) <= step + 1e-9
        spans.append((math.degrees(lo_a), math.degrees(hi_a)))
    assert elapsed < 30.0
    described = ", ".join(f"hole {i}: [{lo:.0f}, {hi:.0f}] deg" for i, (lo, hi) in enumerate(spans))
    print(f"a4 PASS: {described}, stable across seeds, {elapsed:.1f} s")


def test_a5_teaching_orderings():
    # paired proposed vs native teaching on the same waypoints: proposed wins
    # duration, mean jerk, and max jerk in at least 19 of 20 seeded runs, < 20 s
    t0 = time.perf_counter()
    wins = 0
    for seed in range(20):
        proposed = simulate_demonstration(*default_teach_setup("proposed", seed=seed), seed=seed)
        native = simulate_demonstration(*default_teach_setup("native", seed=seed), seed=seed)
        jp, jn = jerk_metrics(proposed), jerk_metrics(native)
        if proposed.duration < native.duration and jp["mean"] < jn["mean"] and jp["max"] < jn["max"]:
            wins += 1
    elapsed = time.perf_counter() - t0

    assert wins >= 19
    assert elapsed < 20.0
    print(f"a5 PASS: proposed wins duration and jerk in {wins}/20 runs, {elapsed:.1f} s")


def test_a6_force_scale():
    # proposed teaching never logs force above the 12 N hand saturation;
    # the native transmission needs more than 40 N to break away, and the
    # guided hand actually crosses that threshold in the log
    proposed_peak = 0.0
    for seed in range(20):
        demo = simulate_demonstration(*default_teach_setup("proposed", seed=seed), seed=seed)
        proposed_peak = max(
            proposed_peak, float(np.max(np.linalg.norm(demo.wrenches[:, :3], axis=1)))
        )
    assert proposed_peak <= 12.0 + 1e-9

    assert ktc._BREAKAWAY_FORCE >= 40.0
    native_log = simulate_demonstration(*default_teach_setup("native", seed=0), seed=0)
    native_peak = float(np.max(np.linalg.norm(native_log.wrenches[:, :3], axis=1)))
    assert native_peak > 40.0
    print(
        f"a6 PASS: proposed peak {proposed_peak:.2f} N <= 12 N, "
        f"native breakaway {ktc._BREAKAWAY_FORCE:.0f} N, logged peak {native_peak:.1f} N"
    )


def test_a7_numeric_oracles():
    # five independent numeric checks, under 5 s total
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)

    # forcing mixture vs direct summation
    n = 30
    centers = np.exp(-(25.0 / 3.0) * np.arange(n) / (n - 1))
    weights, widths = rng.normal(size=n), 1.0 / np.diff(centers, append=1e-3) ** 2
    for s in np.linspace(1e-3, 1.0, 50):
        psi = np.exp(-widths * (s - centers) ** 2)
        direct = float(psi @ weights) / float(psi.sum())
        assert abs(_forcing_profile(weights[None, :], centers, widths, np.array([s]))[0][0, 0] - s * direct) < 1e-12

    # exp/log round trip on 10^4 rotation vectors
    vecs = rng.normal(size=(10_000, 3))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    vecs *= rng.uniform(0.0, 2.0 * math.pi - 2e-6, size=(10_000, 1))
    for v in vecs:
        assert np.linalg.norm(rotation_vector_wxyz(from_rotation_vector(tuple(v.tolist()))) - v) < 1e-9

    # exact rim points recover center, axis, and radius
    scene, cam = default_bar_scene(), default_camera()
    for hole_id in range(3):
        est = fit_circle3d(synthesize_mask(scene, cam, hole_id))
        center_world = cam.pose.transform_point(est.center)
        axis_world = quat_rotate_wxyz(cam.pose.orientation, est.axis)
        assert np.linalg.norm(center_world - scene.hole_center_world(hole_id)) < 1e-9
        assert np.linalg.norm(axis_world - scene.hole_axis_world(hole_id)) < 1e-9
        assert abs(est.radius - scene.holes[hole_id].radius) < 1e-9

    # jerk statistics of the minimum-jerk quintic: mean 40/sqrt(3)*D/T^3,
    # peak 60*D/T^3, both within 1%
    D, T = 0.3, 3.0
    times = np.arange(0, T + 1e-12, 1e-3)
    u = times / T
    pos = np.zeros((times.size, 3))
    pos[:, 0] = D * (10 * u**3 - 15 * u**4 + 6 * u**5)
    quats = np.tile([1.0, 0.0, 0.0, 0.0], (times.size, 1))
    report = jerk_metrics(Trajectory(times, pos, quats))
    assert abs(report["mean"] - 40.0 / math.sqrt(3.0) * D / T**3) < 0.01 * report["mean"]
    assert abs(report["max"] - 60.0 * D / T**3) < 0.01 * report["max"]

    # third finite difference reproduces the constant third derivative of
    # random cubics away from the stencil boundary
    for _ in range(5):
        a3, a2, a1, a0 = rng.normal(size=4)
        t = np.linspace(0.0, 1.5, 40)
        series = a3 * t**3 + a2 * t**2 + a1 * t + a0
        d3 = finite_difference(t, series, order=3)
        assert np.allclose(d3[3:-3], 6.0 * a3, rtol=1e-6, atol=1e-9)

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"a7 PASS: forcing, exp/log, rim fit, quintic jerk, cubic d3 oracles, {elapsed:.1f} s")


def test_a8_cli_reruns_byte_identical(tmp_path, capsys):
    # every subcommand, re-run from its emitted resolved config with no other
    # flags, reproduces its outputs byte for byte
    def run_ok(*argv):
        code = main([str(a) for a in argv])
        err = capsys.readouterr().err
        assert code == 0, err

    def rerun_matches(command, out_path, *siblings):
        twin = out_path.parent / f"twin_{out_path.name}"
        run_ok(command, "--config", f"{out_path}.config.json", "--out", twin)
        assert out_path.read_bytes() == twin.read_bytes()
        for suffix in siblings:
            a = out_path.parent / (out_path.stem + suffix)
            b = twin.parent / (twin.stem + suffix)
            assert a.read_bytes() == b.read_bytes()

    demo = tmp_path / "demo.csv"
    run_ok("teach-sim", "--seed", 0, "--out", demo)
    rerun_matches("teach-sim", demo)

    prim = tmp_path / "prim.json"
    run_ok("fit", "--demo", demo, "--out", prim)
    rerun_matches("fit", prim)

    replay = tmp_path / "replay.csv"
    run_ok("rollout", "--dmp", prim, "--out", replay)
    rerun_matches("rollout", replay)

    holes = tmp_path / "holes.csv"
    run_ok("localize", "--seed", 1, "--out", holes)
    rerun_matches("localize", holes)

    sweep = tmp_path / "sweep.csv"
    run_ok("sweep", "--start-deg", -10, "--stop-deg", 10, "--step-deg", 5, "--out", sweep)
    rerun_matches("sweep", sweep)

    trial = tmp_path / "trial.json"
    run_ok("trial", "--seed", 3, "--out", trial)
    rerun_matches("trial", trial)

    batch = tmp_path / "batch.json"
    run_ok("batch", "--n", 2, "--seed", 7, "--out", batch)
    rerun_matches("batch", batch, ".csv")

    report = tmp_path / "metrics.json"
    run_ok("metrics", "--traj", demo, "--out", report)
    rerun_matches("metrics", report)

    print("a8 PASS: all 8 subcommands byte-identical when re-run from their resolved configs")
