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

from lfdkit import ktc
from lfdkit.ktc import CONTROLLERS, TeachTimeout, ktc_step, native_drive_step, plant_step, simulate_demonstration
from lfdkit.metrics import jerk_metrics
from lfdkit.presets import default_teach_setup
from lfdkit.se3 import (
    Pose,
    from_rotation_vector,
    quat_conj_wxyz,
    quat_mul_wxyz,
    quat_normalize,
    rotation_vector_wxyz,
)
from lfdkit.trajectory import Trajectory


REST = (0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0)
ZERO_WRENCH = (0.0,) * 6
HOLD = (0.0,) * 6  # the command at REST: its position, no rotation


def state(position, q: tuple = (1.0, 0.0, 0.0, 0.0)) -> tuple:
    return (*(float(c) for c in position), *q)


def plant_command(position, r: tuple = (0.0, 0.0, 0.0)) -> tuple:
    """A plant command: position and full-angle rotation increment."""
    return (*(float(c) for c in position), *r)


def relative_rotation_vector(a: tuple, b: tuple) -> np.ndarray:
    """The rotation vector of a * conj(b)."""
    return np.array(rotation_vector_wxyz(quat_mul_wxyz(a, quat_conj_wxyz(b))))


def angle(q: tuple) -> float:
    """Rotation angle of a canonical (w, x, y, z) tuple, in [0, pi]."""
    return math.hypot(*rotation_vector_wxyz(q))


# the proposed law's translational and rotational gains, K_s^-1 + K_a
GAIN = 1.4e-4 + 0.6e-4
ROT_GAIN = 1.4e-3 + 0.6e-3


class TestKtcStep:
    def test_zero_wrench_is_exactly_identity(self):
        x_r = state([0.3, -0.2, 0.7], from_rotation_vector([0.1, 0.2, -0.3]))
        assert ktc_step(x_r, ZERO_WRENCH) == plant_command(x_r[:3])

    def test_unit_force_worked_example(self):
        # 1 N on x, 0.5 N past the deadband, at 1.4e-4 + 0.6e-4 m/N: the sum
        # is 0.00019999999999999998, one ulp below 2e-4, and the law keeps it
        assert GAIN == 0.00019999999999999998 and ROT_GAIN == 2e-3
        out = ktc_step(REST, (1.0, 0.0, 0.0, 0.0, 0.0, 0.0))
        assert out[0] == 0.5 * GAIN
        assert out[0] != 1e-4
        assert out[1:] == HOLD[1:]

    def test_deadband_blocks_and_shifts(self):
        x_r = state([0.3, -0.2, 0.7], from_rotation_vector([0.1, 0.2, -0.3]))
        assert ktc_step(x_r, (0.4, 0.0, 0.0, 0.0, 0.0, 0.0)) == plant_command(x_r[:3])
        below = ktc_step(REST, (0.5, -0.4, 0.0, 0.04, -0.05, 0.0))
        assert below == HOLD
        above = ktc_step(REST, (2.0, -2.0, 0.0, 0.0, 0.0, 0.0))
        assert above[:3] == ((2.0 - 0.5) * GAIN, (-2.0 + 0.5) * GAIN, 0.0)
        assert above[3:] == HOLD[3:]

    def test_torque_rotates_by_gain_angle(self):
        # the increment is the full-angle rotation vector, from_rotation_vector's convention
        out = ktc_step(REST, (0.0, 0.0, 0.0, 0.0, 0.0, 3.0))
        assert out == (0.0, 0.0, 0.0, 0.0, 0.0, ROT_GAIN * (3.0 - 0.05))
        assert np.allclose(rotation_vector_wxyz(from_rotation_vector(out[3:])), [0, 0, (3.0 - 0.05) * ROT_GAIN],
                           atol=1e-15)

    @settings(max_examples=80, deadline=None)
    @given(
        axis=st.integers(0, 5),
        magnitudes=st.lists(st.floats(0, 80), min_size=2, max_size=2),
        sign=st.sampled_from([-1.0, 1.0]),
    )
    def test_monotone_in_force(self, axis, magnitudes, sign):
        # each axis commands a motion that never shrinks as |f| grows on it
        def command(magnitude: float) -> float:
            f = [0.0] * 6
            f[axis] = sign * magnitude
            out = ktc_step(REST, tuple(f))
            return abs(out[axis]) if axis < 3 else math.hypot(*out[3:])

        lo, hi = sorted(magnitudes)
        assert command(hi) + 1e-15 >= command(lo)


class TestNativeDrive:
    def test_below_breakaway_is_exactly_stuck(self):
        x_r = state([0.1, 0.2, 0.3])
        out, sliding, spinning = native_drive_step(x_r, (39.9, 0.0, 0.0, 0.0, 0.0, 0.0))
        assert out == plant_command(x_r[:3])
        assert not sliding and not spinning

    def test_above_breakaway_moves_along_force(self):
        f = np.array([30.0, 0.0, 40.0])
        out, sliding, _ = native_drive_step(REST, (*f.tolist(), 0.0, 0.0, 0.0))
        n = np.linalg.norm(f)
        expect = ktc._NATIVE_GAIN * (n - ktc._KINETIC_FORCE) * f / n
        assert np.allclose(out[:3], expect, rtol=1e-12)
        assert sliding

    def test_kinetic_hysteresis(self):
        mid = (30.0, 0.0, 0.0, 0.0, 0.0, 0.0)  # between kinetic (20) and breakaway (40)
        stuck, sliding, _ = native_drive_step(REST, mid, sliding=False)
        assert stuck[:3] == (0.0, 0.0, 0.0) and not sliding
        moving, sliding, _ = native_drive_step(REST, mid, sliding=True)
        assert moving[0] == pytest.approx(ktc._NATIVE_GAIN * 10.0, rel=1e-12)
        assert sliding
        _, sliding, _ = native_drive_step(REST, (19.0, 0.0, 0.0, 0.0, 0.0, 0.0), sliding=True)
        assert not sliding


def reference_plant_step(x_r: Pose, x_c: Pose, dt: float, time_constant: float) -> Pose:
    """The plant as a function of two poses, with slerp spelled out through
    the float-tuple quaternion kernels."""
    a = 1.0 - math.exp(-dt / time_constant)
    pos = x_r.position + a * (x_c.position - x_r.position)
    qr, qc = x_r.orientation, x_c.orientation
    if qc == qr:
        orient = qr
    else:
        vx, vy, vz = rotation_vector_wxyz(quat_mul_wxyz(qc, quat_conj_wxyz(qr)))
        orient = quat_mul_wxyz(from_rotation_vector((a * vx, a * vy, a * vz)), qr)
    return Pose(pos, orient)


coords = st.floats(-1.0, 1.0)
raw_quats = st.tuples(coords, coords, coords, coords).filter(lambda q: math.hypot(*q) > 1e-3)
# full-angle increments: none, near identity, generic, just below a half turn
increments = st.one_of(
    st.just((0.0, 0.0, 0.0)),
    st.builds(
        lambda u, n: tuple(c * n for c in u),
        st.tuples(coords, coords, coords).filter(lambda u: math.hypot(*u) > 1e-3).map(
            lambda u: [c / math.hypot(*u) for c in u]
        ),
        st.one_of(
            st.floats(2e-15, 2e-6),
            st.floats(2e-6, math.pi - 2e-15),
            st.integers(3, 15).map(lambda k: math.pi - 2.0 * 10.0**-k),
        ),
    # rescaling can round up onto pi, where the slerp may take the other arc
    ).filter(lambda r: math.hypot(*r) < math.pi - 1e-15),
)


class TestPlantStep:
    def test_five_time_constants(self):
        T = 0.05
        dt = 1e-3
        x_r, u = REST, plant_command([1.0, 0.0, 0.0])
        for _ in range(int(round(5 * T / dt))):
            x_r = plant_step(x_r, u, dt, T)
        gap = 1.0 - x_r[0]
        assert gap == pytest.approx(math.exp(-5.0), rel=1e-9)

    def test_ramp_lag_is_time_constant_times_rate(self):
        T = 0.05
        dt = 1e-3
        rate = 0.2
        x_r = REST
        lag = None
        for k in range(3000):
            cmd = plant_command([rate * k * dt, 0.0, 0.0])
            x_r = plant_step(x_r, cmd, dt, T)
            lag = cmd[0] - x_r[0]
        assert lag == pytest.approx(T * rate, rel=0.02)

    def test_orientation_moves_along_geodesic(self):
        T = 0.1
        q_goal = from_rotation_vector([0.0, 0.0, 1.2])
        stepped = plant_step(REST, plant_command(np.zeros(3), (0.0, 0.0, 1.2)), 0.05, T)[3:]
        a = 1.0 - math.exp(-0.05 / T)
        assert angle(stepped) == pytest.approx(a * 1.2, rel=1e-9)
        rv = np.array(rotation_vector_wxyz(stepped))
        assert np.allclose(rv / np.linalg.norm(rv), [0, 0, 1], atol=1e-12)
        # commanding the remaining increment each tick converges on the goal
        x_r = REST
        for _ in range(200):
            r = rotation_vector_wxyz(quat_mul_wxyz(q_goal, quat_conj_wxyz(x_r[3:])))
            x_r = plant_step(x_r, plant_command(np.zeros(3), r), 0.05, T)
        assert np.linalg.norm(relative_rotation_vector(q_goal, x_r[3:])) < 1e-6

    def test_validation(self):
        with pytest.raises(ValueError, match="^time_constant must be positive, got 0.0$"):
            plant_step(REST, HOLD, 1e-3, 0.0)
        with pytest.raises(ValueError, match="^dt must be positive, got 0.0$"):
            plant_step(REST, HOLD, 0.0)
        with pytest.raises(ValueError, match="^dt must be finite, got inf$"):
            plant_step(REST, HOLD, math.inf)
        with pytest.raises(ValueError, match="time_constant"):
            simulate_demonstration(line_waypoints(), "proposed", plant_time_constant=0.0)
        for bad, rule in ((math.inf, "finite"), (math.nan, "positive"), (-math.inf, "positive")):
            with pytest.raises(ValueError, match=f"^max_duration must be {rule}, got {bad}$"):
                simulate_demonstration(line_waypoints(), "proposed", max_duration=bad)

    @pytest.mark.parametrize("rate, max_duration", [(1e6, 60.0), (100.0, 3600.01)])
    def test_teach_steps_capped_before_the_loop(self, monkeypatch, rate, max_duration):
        # the config's cap: one logged row per tick, up to max_duration * rate
        def no_tick(*args):
            raise AssertionError("stepped")

        monkeypatch.setattr(ktc, "plant_step", no_tick)
        with pytest.raises(ValueError, match=f"teach steps exceeds {ktc.MAX_TEACH_STEPS}$"):
            simulate_demonstration(line_waypoints(), "proposed", rate=rate, max_duration=max_duration)

    def test_a_teach_run_steps_the_plant_once_a_tick(self, monkeypatch):
        # the trace site ktc.plant_step.calls counts teach ticks through this
        calls = []

        def counted(*args):
            calls.append(args)
            return plant_step(*args)

        monkeypatch.setattr(ktc, "plant_step", counted)
        for controller in CONTROLLERS:
            calls.clear()
            demo = simulate_demonstration(*default_teach_setup(controller, seed=1), seed=1)
            assert len(calls) == len(demo) - 1

    @settings(max_examples=300, deadline=None)
    @given(
        p_r=st.tuples(coords, coords, coords),
        p_c=st.tuples(coords, coords, coords),
        q=raw_quats,
        keep_sign=st.booleans(),
        r=increments,
        dt=st.floats(1e-4, 0.05),
        time_constant=st.floats(1e-3, 1.0),
    )
    def test_turns_by_the_scaled_increment_bit_for_bit(self, p_r, p_c, q, keep_sign, r, dt, time_constant):
        # keep_sign leaves w < 0 in place, as from_rotation_vector's outputs past a half turn do
        q_r = quat_normalize(*q, raw=keep_sign)
        got = plant_step(state(p_r, q_r), plant_command(p_c, r), dt, time_constant)
        a = 1.0 - math.exp(-dt / time_constant)
        assert got[:3] == tuple(p + a * (c - p) for p, c in zip(p_r, p_c))
        if r == (0.0, 0.0, 0.0):
            assert got[3:] == q_r
        else:
            assert got[3:] == quat_mul_wxyz(from_rotation_vector(tuple(a * c for c in r)), q_r)

    @settings(max_examples=300, deadline=None)
    @given(
        p_r=st.tuples(coords, coords, coords),
        p_c=st.tuples(coords, coords, coords),
        q=raw_quats,
        keep_sign=st.booleans(),
        r=increments,
        dt=st.floats(1e-4, 0.05),
        time_constant=st.floats(1e-3, 1.0),
    )
    def test_agrees_with_the_slerp_plant(self, p_r, p_c, q, keep_sign, r, dt, time_constant):
        # the slerp toward exp(r) * q_r, with the command composed first
        q_r = quat_normalize(*q, raw=keep_sign)
        q_c = q_r if r == (0.0, 0.0, 0.0) else quat_mul_wxyz(from_rotation_vector(r), q_r)
        want = reference_plant_step(Pose(p_r, q_r), Pose(p_c, q_c), dt, time_constant)
        got = plant_step(state(p_r, q_r), plant_command(p_c, r), dt, time_constant)
        assert got[:3] == tuple(want.position.tolist())
        w, g = np.array(want.orientation), np.array(got[3:])
        assert min(np.max(np.abs(g - w)), np.max(np.abs(g + w))) <= 1e-12


def line_waypoints(length: float = 0.05) -> list[Pose]:
    return [Pose(np.zeros(3)), Pose(np.array([length, 0.0, 0.0]))]


def norm3(v) -> float:
    """The norm of a 3-vector as the teach loop takes it: np.linalg.norm is a
    BLAS dot, which may round differently, and a 9-digit CSV cell can sit on
    that rounding (native seed 16, tick 367)."""
    return math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])


def reference_demonstration(waypoints, controller, force_noise_std=0.0, torque_noise_std=0.0, seed=0, rate=100.0):
    """The teach loop as it read with per-tick Pose objects and numpy
    wrenches, over the object maps (no timeout), with the parameters read
    from the ``ktc`` constants: each tick composes the commanded attitude,
    slerps toward it, and recomputes every rotation."""
    h = 1.0 / rate
    gain, deadband = np.array(ktc._GAIN), np.array(ktc._DEADBAND)
    force_saturation, torque_saturation = CONTROLLERS[controller]
    stretch_limit = 1.5 * force_saturation / ktc._GRIP_STIFFNESS
    rot_stretch_limit = 1.5 * torque_saturation / ktc._ROT_STIFFNESS
    rng = np.random.default_rng(seed)
    noisy = force_noise_std > 0 or torque_noise_std > 0

    def clip_norm(v, limit):
        n = norm3(v)
        return v * (limit / n) if n > limit else v

    def admittance_step(x_r, f):
        active = np.abs(f) > deadband
        d = np.zeros(6)
        d[active] = gain[active] * (f - np.sign(f) * deadband)[active]
        if not d[3:].any():
            return Pose(x_r.position + d[:3], x_r.orientation)
        return Pose(x_r.position + d[:3], quat_mul_wxyz(from_rotation_vector(d[3:]), x_r.orientation))

    def native_step(x_r, f, sliding, spinning):
        position, orientation = x_r.position, x_r.orientation
        fn = norm3(f[:3])
        sliding = fn > (ktc._KINETIC_FORCE if sliding else ktc._BREAKAWAY_FORCE)
        if sliding:
            position = position + ktc._NATIVE_GAIN * (fn - ktc._KINETIC_FORCE) * (f[:3] / fn)
        tn = norm3(f[3:])
        spinning = tn > (ktc._KINETIC_TORQUE if spinning else ktc._BREAKAWAY_TORQUE)
        if spinning:
            delta = ktc._NATIVE_ROT_GAIN * (tn - ktc._KINETIC_TORQUE) * (f[3:] / tn)
            orientation = quat_mul_wxyz(from_rotation_vector(delta), orientation)
        return Pose(position, orientation), sliding, spinning

    x_r = waypoints[0]
    prev_pos = hand_pos = x_r.position
    prev_q = hand_q = x_r.orientation
    hand_vel = np.zeros(3)
    sliding = spinning = False
    times, poses, wrenches = [], [], []
    target = 0
    k = 0
    while True:
        while target < len(waypoints) and (
            norm3(x_r.position - waypoints[target].position) <= ktc._CAPTURE_RADIUS
        ):
            target += 1
        times.append(k * h)
        poses.append(x_r)
        if target == len(waypoints):
            wrenches.append(np.zeros(6))
            break
        goal = waypoints[target]
        to_goal = goal.position - hand_pos
        dist = norm3(to_goal)
        desired = np.zeros(3)
        if dist > 0.0 and norm3(hand_pos - x_r.position) < stretch_limit:
            desired = to_goal * (min(ktc._HAND_SPEED, math.sqrt(2.0 * ktc._HAND_ACCEL * dist)) / dist)
        dv = desired - hand_vel
        dvn = norm3(dv)
        if dvn > 0.0:
            hand_vel = hand_vel + dv * min(1.0, ktc._HAND_ACCEL * h / dvn)
        hand_pos = hand_pos + hand_vel * h
        rot_gap = relative_rotation_vector(goal.orientation, hand_q)
        gap = norm3(rot_gap)
        rot_lag = relative_rotation_vector(hand_q, x_r.orientation)
        if gap > 0.0 and norm3(rot_lag) < rot_stretch_limit:
            step = min(ktc._HAND_ROT_SPEED * h, gap)
            hand_q = quat_mul_wxyz(from_rotation_vector(rot_gap * (step / gap)), hand_q)

        v = (x_r.position - prev_pos) / h
        omega = relative_rotation_vector(x_r.orientation, prev_q) / h
        force = ktc._GRIP_STIFFNESS * (hand_pos - x_r.position) - ktc._GRIP_DAMPING * v
        rot_err = relative_rotation_vector(hand_q, x_r.orientation)
        torque = ktc._ROT_STIFFNESS * rot_err - ktc._ROT_DAMPING * omega
        applied = np.concatenate([clip_norm(force, force_saturation), clip_norm(torque, torque_saturation)])
        wrenches.append(applied)
        sensed = applied
        if noisy:
            sensed = applied + np.concatenate(
                [rng.normal(scale=force_noise_std, size=3), rng.normal(scale=torque_noise_std, size=3)]
            )
        if controller == "proposed":
            x_c = admittance_step(x_r, sensed)
        else:
            x_c, sliding, spinning = native_step(x_r, sensed, sliding, spinning)
        prev_pos, prev_q = x_r.position, x_r.orientation
        x_r = reference_plant_step(x_r, x_c, h, ktc.PLANT_TIME_CONSTANT)
        k += 1
    return Trajectory(
        times, [p.position for p in poses], [p.orientation for p in poses], wrenches
    )


class TestVirtualHuman:
    def test_rejects_empty_waypoints(self):
        with pytest.raises(ValueError, match="at least one waypoint"):
            simulate_demonstration((), "proposed")


class TestSimulateDemonstration:
    @pytest.mark.parametrize("controller", ["foo", "Proposed", ""])
    def test_rejects_unknown_controller(self, controller):
        with pytest.raises(ValueError, match=f"controller must be 'proposed' or 'native', got {controller!r}$"):
            simulate_demonstration(line_waypoints(), controller)

    def test_single_waypoint_terminates_immediately(self):
        traj = simulate_demonstration((Pose(np.array([0.1, 0.0, 0.0])),), "proposed")
        assert len(traj) == 1
        assert traj.duration == 0.0
        assert np.array_equal(traj.wrenches, np.zeros((1, 6)))

    def test_reaches_final_waypoint(self):
        traj = simulate_demonstration(line_waypoints(), "proposed")
        assert np.linalg.norm(traj.positions[-1] - [0.05, 0, 0]) <= ktc._CAPTURE_RADIUS
        assert traj.is_uniform()
        assert traj.median_dt == pytest.approx(0.01, rel=1e-9)

    def test_logged_wrench_respects_saturation(self):
        for controller, (force_saturation, torque_saturation) in CONTROLLERS.items():
            traj = simulate_demonstration(*default_teach_setup(controller, seed=0))
            fn = np.linalg.norm(traj.wrenches[:, :3], axis=1)
            tn = np.linalg.norm(traj.wrenches[:, 3:], axis=1)
            assert fn.max() <= force_saturation + 1e-12
            assert tn.max() <= torque_saturation + 1e-12

    def test_deterministic_with_noise(self):
        waypoints = line_waypoints()
        kw = dict(force_noise_std=0.2, torque_noise_std=0.02, seed=42)
        a = simulate_demonstration(waypoints, "proposed", **kw)
        b = simulate_demonstration(waypoints, "proposed", **kw)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.orientations, b.orientations)
        assert np.array_equal(a.wrenches, b.wrenches)
        c = simulate_demonstration(waypoints, "proposed", force_noise_std=0.2, torque_noise_std=0.02, seed=43)
        assert not np.array_equal(a.positions, c.positions)

    def test_timeout_carries_partial_log(self):
        with pytest.raises(TeachTimeout, match="timeout after reaching 1 of 2") as exc:
            simulate_demonstration(line_waypoints(0.5), "proposed", max_duration=0.5)
        partial = exc.value.partial
        assert len(partial) == 50
        assert exc.value.reached == 1 and exc.value.total == 2

    def test_stiffer_gains_teach_slower(self, monkeypatch):
        fast = simulate_demonstration(line_waypoints(), "proposed")
        monkeypatch.setattr(ktc, "_GAIN", tuple(g / 10.0 for g in ktc._GAIN))
        slow = simulate_demonstration(line_waypoints(), "proposed")
        assert slow.duration > fast.duration

    def test_weak_human_cannot_backdrive_native(self, monkeypatch):
        # gripping as gently as against the proposed controller stays below
        # the 40 N breakaway, so nothing moves at all
        monkeypatch.setitem(ktc.CONTROLLERS, "native", (12.0, 1.0))
        with pytest.raises(TeachTimeout) as exc:
            simulate_demonstration(line_waypoints(), "native", max_duration=2.0)
        partial = exc.value.partial
        assert np.all(partial.positions == 0.0)
        assert np.linalg.norm(partial.wrenches[:, :3], axis=1).max() <= 12.0 + 1e-12

    @pytest.mark.parametrize("noise", [{}, {"force_noise_std": 0.3, "torque_noise_std": 0.03}])
    @pytest.mark.parametrize("controller", ["proposed", "native"])
    def test_matches_the_object_loop(self, tmp_path, controller, noise):
        # seeds 16 and 1000003 diverge from this loop at tick 40 when the
        # rounding of the logged torque moves: a threshold of the hand or the
        # native drive flips
        for seed in (0, 1, 2, 3, 16, 1000003):
            setup = default_teach_setup(controller, seed=seed)
            got = simulate_demonstration(*setup, seed=seed, **noise)
            want = reference_demonstration(*setup, seed=seed, **noise)
            assert len(got) == len(want)
            got.save_csv(tmp_path / "got.csv")
            want.save_csv(tmp_path / "want.csv")
            # compared as line lists, which pytest diffs in moments where two
            # whole differing files take it minutes
            assert (tmp_path / "got.csv").read_text().splitlines() == (tmp_path / "want.csv").read_text().splitlines()
            # the loop turns by exp(a*r) where this one slerps toward exp(r),
            # and reads the damper's rotation from the increment; the two
            # agree to rounding, and that rounding is all the floats may move by
            assert np.array_equal(got.times, want.times)
            assert np.max(np.abs(got.positions - want.positions)) <= 1e-12
            assert np.max(np.abs(got.orientations - want.orientations)) <= 1e-12
            assert np.max(np.abs(got.wrenches - want.wrenches)) <= 1e-9

    def test_proposed_beats_native_on_preset_path(self):
        tp = simulate_demonstration(*default_teach_setup("proposed", seed=3), seed=3)
        tn = simulate_demonstration(*default_teach_setup("native", seed=3), seed=3)
        jp, jn = jerk_metrics(tp), jerk_metrics(tn)
        assert tp.duration < tn.duration
        assert jp["mean"] < jn["mean"]
        assert jp["max"] < jn["max"]
        # the native run is only possible because the human exceeds 40 N
        assert np.linalg.norm(tn.wrenches[:, :3], axis=1).max() > 40.0
        assert np.linalg.norm(tp.wrenches[:, :3], axis=1).max() <= 12.0 + 1e-12
