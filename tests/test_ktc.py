"""Admittance teaching simulator tests.

Analytic anchors: the admittance law is pure arithmetic (gain times
deadband-shifted force), the plant is an exact discrete first-order lag
(gap shrinks by e^(-dt/T) per step), and the guided-hand sims are checked
against behavioral orderings rather than trajectories.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfdkit.ktc import (
    AdmittanceGains,
    NativeDrive,
    TeachTimeout,
    VirtualHuman,
    ktc_step,
    native_drive,
    native_drive_step,
    plant_step,
    proposed_gains,
    simulate_demonstration,
)
from lfdkit.metrics import jerk_metrics
from lfdkit.presets import demo_pose_waypoints
from lfdkit.se3 import Pose, UnitQuaternion, Wrench, from_rotation_vector, quat_conj, quat_mul, rotation_vector


def uniform_gains(per_axis: float, deadband: float = 0.0, mask=(True,) * 6) -> AdmittanceGains:
    return AdmittanceGains(
        k_s_inv=[per_axis] * 6,
        k_a=[0.0] * 6,
        deadband=[deadband] * 6,
        axis_mask=mask,
    )


def wrench6(values) -> Wrench:
    v = np.asarray(values, dtype=float)
    return Wrench(v[:3], v[3:])


class TestAdmittanceGains:
    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="6 entries"):
            AdmittanceGains(k_s_inv=[1e-4] * 5, k_a=[0.0] * 6, deadband=[0.0] * 6)

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match=">= 0"):
            AdmittanceGains(k_s_inv=[-1e-4] * 6, k_a=[0.0] * 6, deadband=[0.0] * 6)

    def test_rejects_all_axes_disabled(self):
        with pytest.raises(ValueError, match="at least one axis"):
            uniform_gains(1e-4, mask=(False,) * 6)

    def test_total_gain(self):
        g = AdmittanceGains(k_s_inv=[1e-3] * 6, k_a=[5e-4] * 6, deadband=[0.0] * 6)
        assert np.allclose(g.total_gain, 1.5e-3)


class TestKtcStep:
    def test_zero_wrench_is_exactly_identity(self):
        x_r = Pose(np.array([0.3, -0.2, 0.7]), from_rotation_vector([0.1, 0.2, -0.3]))
        out = ktc_step(x_r, Wrench.zero(), proposed_gains())
        assert np.array_equal(out.position, x_r.position)
        assert out.orientation is x_r.orientation

    def test_unit_force_worked_example(self):
        # 1 N on x with k_s_inv 0.001 and k_a 0.0005, no deadband: 1.5 mm
        g = AdmittanceGains(k_s_inv=[1e-3] * 6, k_a=[5e-4] * 6, deadband=[0.0] * 6)
        out = ktc_step(Pose.identity(), wrench6([1, 0, 0, 0, 0, 0]), g)
        assert out.position[0] == pytest.approx(1.5e-3, abs=0.0)
        assert out.position[1] == 0.0 and out.position[2] == 0.0

    def test_deadband_blocks_and_shifts(self):
        g = uniform_gains(1e-3, deadband=0.5)
        below = ktc_step(Pose.identity(), wrench6([0.5, -0.4, 0, 0, 0, 0]), g)
        assert np.array_equal(below.position, np.zeros(3))
        above = ktc_step(Pose.identity(), wrench6([2.0, -2.0, 0, 0, 0, 0]), g)
        assert above.position[0] == pytest.approx(1e-3 * 1.5, rel=1e-12)
        assert above.position[1] == pytest.approx(-1e-3 * 1.5, rel=1e-12)

    def test_masked_axis_ignores_force(self):
        g = uniform_gains(1e-3, mask=(True, True, False, True, True, True))
        out = ktc_step(Pose.identity(), wrench6([0, 0, 500.0, 0, 0, 0]), g)
        assert np.array_equal(out.position, np.zeros(3))

    def test_torque_rotates_by_gain_angle(self):
        g = uniform_gains(2e-3)
        out = ktc_step(Pose.identity(), wrench6([0, 0, 0, 0, 0, 3.0]), g)
        rv = rotation_vector(out.orientation)
        assert np.allclose(rv, [0, 0, 6e-3], atol=1e-15)

    @settings(max_examples=80, deadline=None)
    @given(
        f=st.lists(st.floats(-80, 80), min_size=6, max_size=6),
        base=st.lists(st.floats(0, 1e-3), min_size=6, max_size=6),
        extra=st.lists(st.floats(0, 1e-3), min_size=6, max_size=6),
        db=st.floats(0, 2),
    )
    def test_monotone_in_gain(self, f, base, extra, db):
        g_small = AdmittanceGains(k_s_inv=base, k_a=[0.0] * 6, deadband=[db] * 6)
        g_big = AdmittanceGains(
            k_s_inv=base, k_a=extra, deadband=[db] * 6
        )
        w = wrench6(f)
        small = ktc_step(Pose.identity(), w, g_small)
        big = ktc_step(Pose.identity(), w, g_big)
        assert np.all(np.abs(big.position) + 1e-18 >= np.abs(small.position))
        assert big.orientation.angle + 1e-12 >= small.orientation.angle


class TestNativeDrive:
    def test_below_breakaway_is_exactly_stuck(self):
        x_r = Pose(np.array([0.1, 0.2, 0.3]))
        out, sliding, spinning = native_drive_step(x_r, wrench6([39.9, 0, 0, 0, 0, 0]), native_drive())
        assert np.array_equal(out.position, x_r.position)
        assert not sliding and not spinning

    def test_above_breakaway_moves_along_force(self):
        d = native_drive()
        f = np.array([30.0, 0.0, 40.0])
        out, sliding, _ = native_drive_step(Pose.identity(), Wrench(f, np.zeros(3)), d)
        n = np.linalg.norm(f)
        expect = d.gain * (n - d.kinetic_force) * f / n
        assert np.allclose(out.position, expect, rtol=1e-12)
        assert sliding

    def test_kinetic_hysteresis(self):
        d = native_drive()
        mid = wrench6([30.0, 0, 0, 0, 0, 0])  # between kinetic (20) and breakaway (40)
        stuck, sliding, _ = native_drive_step(Pose.identity(), mid, d, sliding=False)
        assert np.array_equal(stuck.position, np.zeros(3)) and not sliding
        moving, sliding, _ = native_drive_step(Pose.identity(), mid, d, sliding=True)
        assert moving.position[0] == pytest.approx(d.gain * 10.0, rel=1e-12)
        assert sliding
        _, sliding, _ = native_drive_step(Pose.identity(), wrench6([19.0, 0, 0, 0, 0, 0]), d, sliding=True)
        assert not sliding

    def test_requires_static_above_kinetic(self):
        with pytest.raises(ValueError, match="breakaway_force > kinetic_force"):
            NativeDrive(breakaway_force=10.0, kinetic_force=10.0)


class TestPlantStep:
    def test_five_time_constants(self):
        T = 0.05
        dt = 1e-3
        x_r, x_c = Pose.identity(), Pose(np.array([1.0, 0.0, 0.0]))
        for _ in range(int(round(5 * T / dt))):
            x_r = plant_step(x_r, x_c, dt, T)
        gap = 1.0 - x_r.position[0]
        assert gap == pytest.approx(math.exp(-5.0), rel=1e-9)

    def test_ramp_lag_is_time_constant_times_rate(self):
        T = 0.05
        dt = 1e-3
        rate = 0.2
        x_r = Pose.identity()
        lag = None
        for k in range(3000):
            cmd = Pose(np.array([rate * k * dt, 0.0, 0.0]))
            x_r = plant_step(x_r, cmd, dt, T)
            lag = cmd.position[0] - x_r.position[0]
        assert lag == pytest.approx(T * rate, rel=0.02)

    def test_orientation_moves_along_geodesic(self):
        T = 0.1
        q_goal = from_rotation_vector([0.0, 0.0, 1.2])
        x_r, x_c = Pose.identity(), Pose(np.zeros(3), q_goal)
        stepped = plant_step(x_r, x_c, 0.05, T)
        a = 1.0 - math.exp(-0.05 / T)
        assert stepped.orientation.angle == pytest.approx(a * 1.2, rel=1e-9)
        rv = rotation_vector(stepped.orientation)
        assert np.allclose(rv / np.linalg.norm(rv), [0, 0, 1], atol=1e-12)
        for _ in range(200):
            x_r = plant_step(x_r, x_c, 0.05, T)
        assert x_r.orientation.angle_to(q_goal) < 1e-6

    def test_validation(self):
        with pytest.raises(ValueError, match="time_constant"):
            plant_step(Pose.identity(), Pose.identity(), 1e-3, 0.0)
        with pytest.raises(ValueError, match="dt"):
            plant_step(Pose.identity(), Pose.identity(), 0.0)
        with pytest.raises(ValueError, match="time_constant"):
            simulate_demonstration(
                VirtualHuman(waypoints=line_waypoints()), proposed_gains(), plant_time_constant=0.0
            )


def line_waypoints(length: float = 0.05) -> list[Pose]:
    return [Pose(np.zeros(3)), Pose(np.array([length, 0.0, 0.0]))]


def preset_humans(seed: int) -> tuple[VirtualHuman, VirtualHuman]:
    wp, quats = demo_pose_waypoints(seed=seed)
    poses = [Pose(p, q) for p, q in zip(wp, quats)]
    proposed = VirtualHuman(waypoints=poses, force_saturation=12.0, torque_saturation=1.0)
    native = VirtualHuman(waypoints=poses, force_saturation=60.0, torque_saturation=6.0)
    return proposed, native


class TestVirtualHuman:
    def test_rejects_empty_waypoints(self):
        with pytest.raises(ValueError, match="at least one waypoint"):
            VirtualHuman(waypoints=())

    def test_rejects_nonpositive_params(self):
        with pytest.raises(ValueError, match="hand_speed"):
            VirtualHuman(waypoints=(Pose.identity(),), hand_speed=0.0)
        with pytest.raises(ValueError, match="capture_radius"):
            VirtualHuman(waypoints=(Pose.identity(),), capture_radius=-1.0)


class TestSimulateDemonstration:
    def test_single_waypoint_terminates_immediately(self):
        human = VirtualHuman(waypoints=(Pose(np.array([0.1, 0.0, 0.0])),))
        traj = simulate_demonstration(human, proposed_gains())
        assert len(traj) == 1
        assert traj.duration == 0.0
        assert np.array_equal(traj.wrenches, np.zeros((1, 6)))

    def test_reaches_final_waypoint(self):
        human = VirtualHuman(waypoints=line_waypoints())
        traj = simulate_demonstration(human, proposed_gains())
        assert np.linalg.norm(traj.positions[-1] - [0.05, 0, 0]) <= human.capture_radius
        assert traj.is_uniform()
        assert traj.median_dt == pytest.approx(0.01, rel=1e-9)

    def test_logged_wrench_respects_saturation(self):
        proposed, native_h = preset_humans(seed=0)
        for human, gains in ((proposed, proposed_gains()), (native_h, native_drive())):
            traj = simulate_demonstration(human, gains)
            fn = np.linalg.norm(traj.wrenches[:, :3], axis=1)
            tn = np.linalg.norm(traj.wrenches[:, 3:], axis=1)
            assert fn.max() <= human.force_saturation + 1e-12
            assert tn.max() <= human.torque_saturation + 1e-12

    def test_deterministic_with_noise(self):
        human = VirtualHuman(waypoints=line_waypoints())
        kw = dict(force_noise_std=0.2, torque_noise_std=0.02, seed=42)
        a = simulate_demonstration(human, proposed_gains(), **kw)
        b = simulate_demonstration(human, proposed_gains(), **kw)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.orientations, b.orientations)
        assert np.array_equal(a.wrenches, b.wrenches)
        c = simulate_demonstration(human, proposed_gains(), force_noise_std=0.2, torque_noise_std=0.02, seed=43)
        assert not np.array_equal(a.positions, c.positions)

    def test_masked_axis_never_moves(self):
        # z disabled: a path confined to the xy plane still completes while
        # the z coordinate stays bit-identical to the start
        waypoints = [
            Pose(np.array([0.0, 0.0, 0.02])),
            Pose(np.array([0.04, 0.01, 0.02])),
            Pose(np.array([0.08, -0.01, 0.02])),
        ]
        base = proposed_gains()
        gains = AdmittanceGains(
            k_s_inv=base.k_s_inv,
            k_a=base.k_a,
            deadband=base.deadband,
            axis_mask=(True, True, False, True, True, True),
        )
        human = VirtualHuman(waypoints=waypoints)
        traj = simulate_demonstration(human, gains)
        assert np.all(traj.positions[:, 2] == 0.02)

    def test_timeout_carries_partial_log(self):
        human = VirtualHuman(waypoints=line_waypoints(0.5))
        with pytest.raises(TeachTimeout, match="timeout after reaching 1 of 2") as exc:
            simulate_demonstration(human, proposed_gains(), max_duration=0.5)
        partial = exc.value.partial
        assert len(partial) == 50
        assert exc.value.reached == 1 and exc.value.total == 2

    def test_stiffer_gains_teach_slower(self):
        human = VirtualHuman(waypoints=line_waypoints())
        base = proposed_gains()
        stiff = AdmittanceGains(
            k_s_inv=base.k_s_inv / 10.0,
            k_a=base.k_a / 10.0,
            deadband=base.deadband,
        )
        fast = simulate_demonstration(human, base)
        slow = simulate_demonstration(human, stiff)
        assert slow.duration > fast.duration

    def test_weak_human_cannot_backdrive_native(self):
        # below the 40 N breakaway nothing moves at all
        human = VirtualHuman(waypoints=line_waypoints(), force_saturation=12.0)
        with pytest.raises(TeachTimeout) as exc:
            simulate_demonstration(human, native_drive(), max_duration=2.0)
        partial = exc.value.partial
        assert np.all(partial.positions == 0.0)
        assert np.linalg.norm(partial.wrenches[:, :3], axis=1).max() <= 12.0 + 1e-12

    def test_proposed_beats_native_on_preset_path(self):
        proposed, native_h = preset_humans(seed=3)
        tp = simulate_demonstration(proposed, proposed_gains(), seed=3)
        tn = simulate_demonstration(native_h, native_drive(), seed=3)
        jp, jn = jerk_metrics(tp), jerk_metrics(tn)
        assert tp.duration < tn.duration
        assert jp.mean < jn.mean
        assert jp.max < jn.max
        # the native run is only possible because the human exceeds 40 N
        assert np.linalg.norm(tn.wrenches[:, :3], axis=1).max() > 40.0
        assert np.linalg.norm(tp.wrenches[:, :3], axis=1).max() <= 12.0 + 1e-12
