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
from lfdkit.presets import default_teach_setup, demo_pose_waypoints
from lfdkit.se3 import (
    Pose,
    UnitQuaternion,
    from_rotation_vector,
    quat_conj_wxyz,
    quat_exp_wxyz,
    quat_log_wxyz,
    quat_mul,
    quat_mul_wxyz,
    quat_normalize,
    rotation_vector_wxyz,
)
from lfdkit.trajectory import Trajectory


def uniform_gains(per_axis: float, deadband: float = 0.0, mask=(True,) * 6) -> AdmittanceGains:
    return AdmittanceGains(
        k_s_inv=[per_axis] * 6,
        k_a=[0.0] * 6,
        deadband=[deadband] * 6,
        axis_mask=mask,
    )


REST = (0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0)
ZERO_WRENCH = (0.0,) * 6


def state(position, q: UnitQuaternion = UnitQuaternion.identity()) -> tuple:
    return (*(float(c) for c in position), q.w, q.x, q.y, q.z)


def relative_rotation_vector(a: UnitQuaternion, b: UnitQuaternion) -> np.ndarray:
    """The rotation vector of a * conj(b)."""
    return np.array(rotation_vector_wxyz(quat_mul_wxyz(a.wxyz, quat_conj_wxyz(b.wxyz))))


def angle(q: tuple) -> float:
    """Rotation angle of a canonical (w, x, y, z) tuple, in [0, pi]."""
    return math.hypot(*rotation_vector_wxyz(q))


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
        assert [gain for _, gain, _ in g._law] == pytest.approx([1.5e-3] * 6)


class TestKtcStep:
    def test_zero_wrench_is_exactly_identity(self):
        x_r = state([0.3, -0.2, 0.7], from_rotation_vector([0.1, 0.2, -0.3]))
        assert ktc_step(x_r, ZERO_WRENCH, proposed_gains()) == x_r

    def test_unit_force_worked_example(self):
        # 1 N on x with k_s_inv 0.001 and k_a 0.0005, no deadband: 1.5 mm
        g = AdmittanceGains(k_s_inv=[1e-3] * 6, k_a=[5e-4] * 6, deadband=[0.0] * 6)
        out = ktc_step(REST, (1.0, 0.0, 0.0, 0.0, 0.0, 0.0), g)
        assert out[0] == pytest.approx(1.5e-3, abs=0.0)
        assert out[1] == 0.0 and out[2] == 0.0

    def test_deadband_blocks_and_shifts(self):
        g = uniform_gains(1e-3, deadband=0.5)
        below = ktc_step(REST, (0.5, -0.4, 0.0, 0.0, 0.0, 0.0), g)
        assert below[:3] == (0.0, 0.0, 0.0)
        above = ktc_step(REST, (2.0, -2.0, 0.0, 0.0, 0.0, 0.0), g)
        assert above[0] == pytest.approx(1e-3 * 1.5, rel=1e-12)
        assert above[1] == pytest.approx(-1e-3 * 1.5, rel=1e-12)

    def test_masked_axis_ignores_force(self):
        g = uniform_gains(1e-3, mask=(True, True, False, True, True, True))
        out = ktc_step(REST, (0.0, 0.0, 500.0, 0.0, 0.0, 0.0), g)
        assert out[:3] == (0.0, 0.0, 0.0)

    def test_torque_rotates_by_gain_angle(self):
        g = uniform_gains(2e-3)
        out = ktc_step(REST, (0.0, 0.0, 0.0, 0.0, 0.0, 3.0), g)
        assert np.allclose(rotation_vector_wxyz(out[3:]), [0, 0, 6e-3], atol=1e-15)

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
        small = ktc_step(REST, tuple(f), g_small)
        big = ktc_step(REST, tuple(f), g_big)
        assert np.all(np.abs(big[:3]) + 1e-18 >= np.abs(small[:3]))
        assert angle(big[3:]) + 1e-12 >= angle(small[3:])


class TestNativeDrive:
    def test_below_breakaway_is_exactly_stuck(self):
        x_r = state([0.1, 0.2, 0.3])
        out, sliding, spinning = native_drive_step(x_r, (39.9, 0.0, 0.0, 0.0, 0.0, 0.0), native_drive())
        assert out == x_r
        assert not sliding and not spinning

    def test_above_breakaway_moves_along_force(self):
        d = native_drive()
        f = np.array([30.0, 0.0, 40.0])
        out, sliding, _ = native_drive_step(REST, (*f.tolist(), 0.0, 0.0, 0.0), d)
        n = np.linalg.norm(f)
        expect = d.gain * (n - d.kinetic_force) * f / n
        assert np.allclose(out[:3], expect, rtol=1e-12)
        assert sliding

    def test_kinetic_hysteresis(self):
        d = native_drive()
        mid = (30.0, 0.0, 0.0, 0.0, 0.0, 0.0)  # between kinetic (20) and breakaway (40)
        stuck, sliding, _ = native_drive_step(REST, mid, d, sliding=False)
        assert stuck[:3] == (0.0, 0.0, 0.0) and not sliding
        moving, sliding, _ = native_drive_step(REST, mid, d, sliding=True)
        assert moving[0] == pytest.approx(d.gain * 10.0, rel=1e-12)
        assert sliding
        _, sliding, _ = native_drive_step(REST, (19.0, 0.0, 0.0, 0.0, 0.0, 0.0), d, sliding=True)
        assert not sliding

    def test_requires_static_above_kinetic(self):
        with pytest.raises(ValueError, match="breakaway_force > kinetic_force"):
            NativeDrive(breakaway_force=10.0, kinetic_force=10.0)


def reference_plant_step(x_r: Pose, x_c: Pose, dt: float, time_constant: float) -> Pose:
    """The plant as a function of two poses, with slerp spelled out through
    the float-tuple quaternion kernels."""
    a = 1.0 - math.exp(-dt / time_constant)
    pos = x_r.position + a * (x_c.position - x_r.position)
    qr, qc = x_r.orientation, x_c.orientation
    if qc.w == qr.w and qc.x == qr.x and qc.y == qr.y and qc.z == qr.z:
        orient = qr
    else:
        lx, ly, lz = quat_log_wxyz(quat_mul_wxyz(qc.wxyz, quat_conj_wxyz(qr.wxyz)))
        orient = UnitQuaternion.from_unit(*quat_mul_wxyz(quat_exp_wxyz((a * lx, a * ly, a * lz)), qr.wxyz))
    return Pose(pos, orient)


coords = st.floats(-1.0, 1.0)
raw_quats = st.tuples(coords, coords, coords, coords).filter(lambda q: math.hypot(*q) > 1e-3)
# command relative to the reached attitude: equal, near identity, generic, near pi
rel_rotations = st.one_of(
    st.just(None),
    st.builds(
        lambda u, n: [c * n for c in u],
        st.tuples(coords, coords, coords).filter(lambda u: math.hypot(*u) > 1e-3).map(
            lambda u: [c / math.hypot(*u) for c in u]
        ),
        st.one_of(
            st.floats(1e-15, 1e-6),
            st.floats(1e-6, math.pi),
            st.integers(3, 15).map(lambda k: math.pi - 10.0**-k),
        ),
    ),
)


class TestPlantStep:
    def test_five_time_constants(self):
        T = 0.05
        dt = 1e-3
        x_r, x_c = REST, state([1.0, 0.0, 0.0])
        for _ in range(int(round(5 * T / dt))):
            x_r = plant_step(x_r, x_c, dt, T)
        gap = 1.0 - x_r[0]
        assert gap == pytest.approx(math.exp(-5.0), rel=1e-9)

    def test_ramp_lag_is_time_constant_times_rate(self):
        T = 0.05
        dt = 1e-3
        rate = 0.2
        x_r = REST
        lag = None
        for k in range(3000):
            cmd = state([rate * k * dt, 0.0, 0.0])
            x_r = plant_step(x_r, cmd, dt, T)
            lag = cmd[0] - x_r[0]
        assert lag == pytest.approx(T * rate, rel=0.02)

    def test_orientation_moves_along_geodesic(self):
        T = 0.1
        q_goal = from_rotation_vector([0.0, 0.0, 1.2])
        x_r, x_c = REST, state(np.zeros(3), q_goal)
        stepped = plant_step(x_r, x_c, 0.05, T)[3:]
        a = 1.0 - math.exp(-0.05 / T)
        assert angle(stepped) == pytest.approx(a * 1.2, rel=1e-9)
        rv = np.array(rotation_vector_wxyz(stepped))
        assert np.allclose(rv / np.linalg.norm(rv), [0, 0, 1], atol=1e-12)
        for _ in range(200):
            x_r = plant_step(x_r, x_c, 0.05, T)
        assert np.linalg.norm(relative_rotation_vector(q_goal, UnitQuaternion.from_unit(*x_r[3:]))) < 1e-6

    def test_validation(self):
        with pytest.raises(ValueError, match="time_constant"):
            plant_step(REST, REST, 1e-3, 0.0)
        with pytest.raises(ValueError, match="dt"):
            plant_step(REST, REST, 0.0)
        with pytest.raises(ValueError, match="time_constant"):
            simulate_demonstration(
                VirtualHuman(waypoints=line_waypoints()), proposed_gains(), plant_time_constant=0.0
            )
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="max_duration and rate must be finite"):
                simulate_demonstration(VirtualHuman(waypoints=line_waypoints()), proposed_gains(), max_duration=bad)

    @settings(max_examples=300, deadline=None)
    @given(
        p_r=st.tuples(coords, coords, coords),
        p_c=st.tuples(coords, coords, coords),
        q=raw_quats,
        keep_sign=st.booleans(),
        rel=rel_rotations,
        dt=st.floats(1e-4, 0.05),
        time_constant=st.floats(1e-3, 1.0),
    )
    def test_equals_the_pose_path_bit_for_bit(self, p_r, p_c, q, keep_sign, rel, dt, time_constant):
        # keep_sign leaves w < 0 in place, as quat_exp_wxyz's outputs past a half turn do
        q_r = UnitQuaternion.from_unit(*quat_normalize(*q, raw=keep_sign))
        q_c = q_r if rel is None else quat_mul(from_rotation_vector(rel), q_r)
        x_r, x_c = Pose(p_r, q_r), Pose(p_c, q_c)
        want = reference_plant_step(x_r, x_c, dt, time_constant)
        got = plant_step(state(p_r, q_r), state(p_c, q_c), dt, time_constant)
        assert got == state(want.position, want.orientation)


def line_waypoints(length: float = 0.05) -> list[Pose]:
    return [Pose(np.zeros(3)), Pose(np.array([length, 0.0, 0.0]))]


def preset_humans(seed: int) -> tuple[VirtualHuman, VirtualHuman]:
    wp, quats = demo_pose_waypoints(seed=seed)
    poses = [Pose(p, q) for p, q in zip(wp, quats)]
    proposed = VirtualHuman(waypoints=poses, force_saturation=12.0, torque_saturation=1.0)
    native = VirtualHuman(waypoints=poses, force_saturation=60.0, torque_saturation=6.0)
    return proposed, native


def reference_demonstration(human, gains, force_noise_std=0.0, torque_noise_std=0.0, seed=0, rate=100.0):
    """The teach loop as it read with per-tick Pose objects and numpy
    wrenches, over the object maps and np.linalg.norm (no timeout)."""
    h = 1.0 / rate
    rng = np.random.default_rng(seed)
    noisy = force_noise_std > 0 or torque_noise_std > 0

    def clip_norm(v, limit):
        n = float(np.linalg.norm(v))
        return v * (limit / n) if n > limit else v

    def admittance_step(x_r, f):
        active = np.array(gains.axis_mask) & (np.abs(f) > gains.deadband)
        d = np.zeros(6)
        d[active] = (gains.k_s_inv + gains.k_a)[active] * (f - np.sign(f) * gains.deadband)[active]
        if not d[3:].any():
            return Pose(x_r.position + d[:3], x_r.orientation)
        return Pose(x_r.position + d[:3], quat_mul(from_rotation_vector(d[3:]), x_r.orientation))

    def native_step(x_r, f, sliding, spinning):
        position, orientation = x_r.position, x_r.orientation
        fn = float(np.linalg.norm(f[:3]))
        sliding = fn > (gains.kinetic_force if sliding else gains.breakaway_force)
        if sliding:
            position = position + gains.gain * (fn - gains.kinetic_force) * (f[:3] / fn)
        tn = float(np.linalg.norm(f[3:]))
        spinning = tn > (gains.kinetic_torque if spinning else gains.breakaway_torque)
        if spinning:
            delta = gains.rot_gain * (tn - gains.kinetic_torque) * (f[3:] / tn)
            orientation = quat_mul(from_rotation_vector(delta), orientation)
        return Pose(position, orientation), sliding, spinning

    x_r = human.waypoints[0]
    prev_pos = hand_pos = x_r.position
    prev_q = hand_q = x_r.orientation
    hand_vel = np.zeros(3)
    sliding = spinning = False
    times, poses, wrenches = [], [], []
    target = 0
    k = 0
    while True:
        while target < len(human.waypoints) and (
            np.linalg.norm(x_r.position - human.waypoints[target].position) <= human.capture_radius
        ):
            target += 1
        times.append(k * h)
        poses.append(x_r)
        if target == len(human.waypoints):
            wrenches.append(np.zeros(6))
            break
        goal = human.waypoints[target]
        to_goal = goal.position - hand_pos
        dist = float(np.linalg.norm(to_goal))
        desired = np.zeros(3)
        if dist > 0.0 and np.linalg.norm(hand_pos - x_r.position) < human.stretch_limit:
            desired = to_goal * (min(human.hand_speed, math.sqrt(2.0 * human.hand_accel * dist)) / dist)
        dv = desired - hand_vel
        dvn = float(np.linalg.norm(dv))
        if dvn > 0.0:
            hand_vel = hand_vel + dv * min(1.0, human.hand_accel * h / dvn)
        hand_pos = hand_pos + hand_vel * h
        rot_gap = relative_rotation_vector(goal.orientation, hand_q)
        gap = float(np.linalg.norm(rot_gap))
        rot_lag = relative_rotation_vector(hand_q, x_r.orientation)
        if gap > 0.0 and np.linalg.norm(rot_lag) < human.rot_stretch_limit:
            step = min(human.hand_rot_speed * h, gap)
            hand_q = quat_mul(from_rotation_vector(rot_gap * (step / gap)), hand_q)

        v = (x_r.position - prev_pos) / h
        omega = relative_rotation_vector(x_r.orientation, prev_q) / h
        force = human.grip_stiffness * (hand_pos - x_r.position) - human.grip_damping * v
        rot_err = relative_rotation_vector(hand_q, x_r.orientation)
        torque = human.rot_stiffness * rot_err - human.rot_damping * omega
        applied = np.concatenate(
            [clip_norm(force, human.force_saturation), clip_norm(torque, human.torque_saturation)]
        )
        wrenches.append(applied)
        sensed = applied
        if noisy:
            sensed = applied + np.concatenate(
                [rng.normal(scale=force_noise_std, size=3), rng.normal(scale=torque_noise_std, size=3)]
            )
        if isinstance(gains, AdmittanceGains):
            x_c = admittance_step(x_r, sensed)
        else:
            x_c, sliding, spinning = native_step(x_r, sensed, sliding, spinning)
        prev_pos, prev_q = x_r.position, x_r.orientation
        nxt = plant_step(state(x_r.position, x_r.orientation), state(x_c.position, x_c.orientation), h)
        x_r = Pose(nxt[:3], UnitQuaternion.from_unit(*nxt[3:]))
        k += 1
    return Trajectory(
        times, [p.position for p in poses], [p.orientation.as_array() for p in poses], wrenches
    )


class TestVirtualHuman:
    def test_rejects_empty_waypoints(self):
        with pytest.raises(ValueError, match="at least one waypoint"):
            VirtualHuman(waypoints=())

    def test_rejects_nonpositive_params(self):
        with pytest.raises(ValueError, match="hand_speed"):
            VirtualHuman(waypoints=(Pose(np.zeros(3)),), hand_speed=0.0)
        with pytest.raises(ValueError, match="capture_radius"):
            VirtualHuman(waypoints=(Pose(np.zeros(3)),), capture_radius=-1.0)


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

    @pytest.mark.parametrize("noise", [{}, {"force_noise_std": 0.3, "torque_noise_std": 0.03}])
    @pytest.mark.parametrize("controller", ["proposed", "native"])
    def test_matches_the_object_loop(self, tmp_path, controller, noise):
        for seed in range(4):
            setup = default_teach_setup(controller, seed=seed)
            got = simulate_demonstration(*setup, seed=seed, **noise)
            want = reference_demonstration(*setup, seed=seed, **noise)
            assert len(got) == len(want)
            got.save_csv(tmp_path / "got.csv")
            want.save_csv(tmp_path / "want.csv")
            assert (tmp_path / "got.csv").read_text() == (tmp_path / "want.csv").read_text()
            # np.linalg.norm of a 3-vector is a BLAS dot, which may run as a
            # chain of fused multiply-adds; the loop's math.sqrt of a plain sum
            # of squares can differ from it in the last bit, and that rounding
            # is all the floats may move by
            assert np.array_equal(got.times, want.times)
            assert np.max(np.abs(got.positions - want.positions)) <= 1e-12
            assert np.max(np.abs(got.orientations - want.orientations)) <= 1e-12
            assert np.max(np.abs(got.wrenches - want.wrenches)) <= 1e-9

    def test_proposed_beats_native_on_preset_path(self):
        proposed, native_h = preset_humans(seed=3)
        tp = simulate_demonstration(proposed, proposed_gains(), seed=3)
        tn = simulate_demonstration(native_h, native_drive(), seed=3)
        jp, jn = jerk_metrics(tp), jerk_metrics(tn)
        assert tp.duration < tn.duration
        assert jp["mean"] < jn["mean"]
        assert jp["max"] < jn["max"]
        # the native run is only possible because the human exceeds 40 N
        assert np.linalg.norm(tn.wrenches[:, :3], axis=1).max() > 40.0
        assert np.linalg.norm(tp.wrenches[:, :3], axis=1).max() <= 12.0 + 1e-12
