"""Orchestrator tests: state machine totality, insertion-goal geometry,
end-to-end trials against the true scene, and batch determinism."""

import math
from dataclasses import dataclass, replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lfdkit.assembly
from lfdkit.assembly import (
    MAX_TRIALS,
    _contact_project,
    _run_plan,
    _score,
    AssemblyScenario,
    EventKind,
    Phase,
    StepEvent,
    TaskState,
    advance,
    batch_csv_text,
    batch_to_dict,
    execute_trial,
    insertion_goal,
    meets_tolerances,
    nominal_events,
    PlanningFailed,
    parse_events,
    plan_insertion,
    run_batch,
    trial_to_dict,
)
from lfdkit.config import config_from_dict
from lfdkit.presets import default_scenario, scenario_from_config
from lfdkit.se3 import Pose, from_rotation_vector, quat_normalize, quat_rotate_wxyz, slerp_wxyz
from lfdkit.trajectory import ParseError, Trajectory
from lfdkit.vision import CameraModel, HoleEstimate, fit_circle3d, synthesize_mask

TOOL_AXIS = np.array([0.0, 0.0, -1.0])


@pytest.fixture(scope="module")
def scenario():
    return default_scenario(noise_sigma=0.0, seed=0)


@pytest.fixture(scope="module")
def noisy_scenario():
    return default_scenario(noise_sigma=5e-4, seed=0)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


class TestStateMachine:
    def test_nominal_sequence_reaches_done(self):
        want = [
            Phase.BAR_PLACED,
            Phase.PEG_GRASPED,
            Phase.INSERTION_PLANNED,
            Phase.INSERTING,
            Phase.AWAITING_HUMAN,
            Phase.DONE,
        ]
        state = TaskState()
        assert state.phase is Phase.AWAITING_BAR
        for ev, phase in zip(nominal_events(), want):
            state = advance(state, ev)
            assert state.phase is phase
        assert state.reason is None

    def test_first_pedal_places_bar(self):
        out = advance(TaskState(), StepEvent(EventKind.PEDAL_PRESS))
        assert out.phase is Phase.BAR_PLACED

    def test_premature_pedal_during_insertion_fails(self):
        out = advance(TaskState(Phase.INSERTING), StepEvent(EventKind.PEDAL_PRESS))
        assert out.phase is Phase.FAILED
        assert "unexpected event" in out.reason
        assert "pedal_press" in out.reason and "inserting" in out.reason

    def test_abort_fails_from_every_live_phase(self):
        for phase in Phase:
            if phase is Phase.FAILED:
                continue
            out = advance(TaskState(phase), StepEvent(EventKind.ABORT))
            assert out == TaskState(Phase.FAILED, "aborted")

    def test_failed_absorbs_everything(self):
        failed = TaskState(Phase.FAILED, "aborted")
        for kind in EventKind:
            assert advance(failed, StepEvent(kind)) == failed

    def test_total_and_deterministic(self):
        # every (state, event) pair maps to exactly one state, twice over
        for phase, kind in product(Phase, EventKind):
            state = TaskState(phase, "x" if phase is Phase.FAILED else None)
            a = advance(state, StepEvent(kind, 1.0))
            b = advance(state, StepEvent(kind, 2.0))
            assert isinstance(a, TaskState)
            assert (a.phase, a.reason) == (b.phase, b.reason)
            if a.phase is Phase.FAILED:
                assert a.reason

    def test_off_graph_events_never_drop_silently(self):
        nominal = set(
            [
                (Phase.AWAITING_BAR, EventKind.PEDAL_PRESS),
                (Phase.BAR_PLACED, EventKind.MOTION_DONE),
                (Phase.PEG_GRASPED, EventKind.VISION_READY),
                (Phase.INSERTION_PLANNED, EventKind.PEDAL_PRESS),
                (Phase.INSERTING, EventKind.MOTION_DONE),
                (Phase.AWAITING_HUMAN, EventKind.PEDAL_PRESS),
            ]
        )
        for phase, kind in product(Phase, EventKind):
            if phase is Phase.FAILED or kind is EventKind.ABORT:
                continue
            out = advance(TaskState(phase), StepEvent(kind))
            if (phase, kind) in nominal:
                assert out.phase is not Phase.FAILED
            else:
                assert out.phase is Phase.FAILED
                assert "unexpected event" in out.reason

    @given(
        kinds=st.lists(st.sampled_from(list(EventKind)), min_size=0, max_size=12)
    )
    @settings(max_examples=60, deadline=None)
    def test_failure_is_permanent_along_any_stream(self, kinds):
        state = TaskState()
        seen_failed = False
        for i, kind in enumerate(kinds):
            state = advance(state, StepEvent(kind, float(i)))
            if seen_failed:
                assert state.phase is Phase.FAILED
            seen_failed = seen_failed or state.phase is Phase.FAILED

    def test_taskstate_reason_discipline(self):
        with pytest.raises(ValueError):
            TaskState(Phase.DONE, "reason on a live phase")
        with pytest.raises(ValueError):
            TaskState(Phase.FAILED)


class TestEvents:
    def test_nominal_events_shape(self):
        evs = nominal_events()
        assert len(evs) == 6
        assert [e.t for e in evs] == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        assert evs[0].kind is EventKind.PEDAL_PRESS
        assert evs[-1].kind is EventKind.PEDAL_PRESS

    def test_parse_skips_comments_and_blanks(self):
        text = "0 pedal_press\n# a comment\n\n1.5 motion_done\n2 vision_ready\n"
        evs = parse_events(text, path="steps.txt")
        assert [e.kind for e in evs] == [
            EventKind.PEDAL_PRESS,
            EventKind.MOTION_DONE,
            EventKind.VISION_READY,
        ]
        assert [e.t for e in evs] == [0.0, 1.5, 2.0]

    def test_parse_unknown_kind_names_file_and_line(self):
        with pytest.raises(ParseError) as err:
            parse_events("0 pedal_press\n1 knee_press\n", path="steps.txt")
        assert "steps.txt:2" in str(err.value)
        assert err.value.field == "kind"

    def test_parse_bad_time(self):
        with pytest.raises(ParseError) as err:
            parse_events("zero pedal_press\n")
        assert err.value.field == "time"
        assert err.value.line == 1

    def test_parse_wrong_field_count(self):
        with pytest.raises(ParseError):
            parse_events("0 pedal_press extra\n")

    def test_parse_rejects_decreasing_times(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            parse_events("1 pedal_press\n0.5 motion_done\n")

    def test_event_time_must_be_finite_nonnegative(self):
        with pytest.raises(ValueError):
            StepEvent(EventKind.ABORT, -1.0)
        with pytest.raises(ValueError):
            StepEvent(EventKind.ABORT, math.nan)


class TestInsertionGoal:
    def test_vertical_hole_keeps_tool_down(self):
        hole = HoleEstimate(
            center=[0.0, 0.0, 0.06], axis=[0.0, 0.0, 1.0], radius=0.004, rms=0.0
        )
        goal = insertion_goal(hole, 0.012, (1.0, 0.0, 0.0, 0.0))
        np.testing.assert_allclose(goal.position, [0.0, 0.0, 0.048], atol=1e-15)
        np.testing.assert_allclose(goal.orientation, [1, 0, 0, 0], atol=1e-12)

    def test_pointing_matches_axis_for_random_holes(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            axis = unit(rng.normal(size=3))
            ref = from_rotation_vector(rng.normal(scale=0.4, size=3))
            hole = HoleEstimate(
                center=rng.normal(scale=0.2, size=3), axis=axis, radius=0.004, rms=0.0
            )
            goal = insertion_goal(hole, 0.01, ref)
            np.testing.assert_allclose(quat_rotate_wxyz(goal.orientation, TOOL_AXIS), -axis, atol=1e-9)
            np.testing.assert_allclose(
                goal.position, np.asarray(hole.center) - 0.01 * axis, atol=1e-15
            )

    def test_depth_must_be_positive(self):
        hole = HoleEstimate(center=[0, 0, 0], axis=[0, 0, 1], radius=0.004, rms=0.0)
        with pytest.raises(ValueError, match="depth"):
            insertion_goal(hole, 0.0, (1.0, 0.0, 0.0, 0.0))


class TestPlanInsertion:
    def true_estimate(self, scenario, hole_id=1):
        scene = scenario.scene
        return HoleEstimate(
            center=scene.hole_center_world(hole_id),
            axis=scene.hole_axis_world(hole_id),
            radius=scene.holes[hole_id].radius,
            rms=0.0,
        )

    @staticmethod
    def goal(hole, dmp, depth=0.012):
        """The goal plan_insertion descends to, at its default depth."""
        return insertion_goal(hole, depth, dmp.demo_goal.orientation)

    def test_trajectory_ends_exactly_at_goal(self, scenario):
        hole = self.true_estimate(scenario)
        traj = plan_insertion(scenario.initial_pose, hole, scenario.dmp)
        goal = self.goal(hole, scenario.dmp)
        assert np.array_equal(traj.positions[-1], goal.position)
        np.testing.assert_allclose(
            traj.orientations[-1], goal.orientation, atol=1e-12
        )
        assert np.all(np.diff(traj.times) > 0)

    def test_rollout_segment_converges_to_standoff(self, scenario):
        hole = self.true_estimate(scenario)
        traj = plan_insertion(scenario.initial_pose, hole, scenario.dmp)
        # the standoff lies the default 30 mm above the hole center along its
        # axis; the descent is a straight vertical drop, so the approach
        # endpoint is the last sample at standoff height
        standoff = np.asarray(hole.center) + 0.030 * np.asarray(hole.axis)
        above = traj.positions[:, 2] >= standoff[2] - 1e-12
        idx = int(np.where(above)[0][-1])
        err = np.linalg.norm(traj.positions[idx] - standoff)
        assert err < 1e-3

    def test_endpoint_tracks_goal_for_random_estimates(self, scenario):
        rng = np.random.default_rng(11)
        for _ in range(8):
            est = HoleEstimate(
                center=[rng.uniform(-0.10, 0.10), rng.uniform(-0.02, 0.02), 0.06],
                axis=unit([rng.normal(scale=0.05), rng.normal(scale=0.05), 1.0]),
                radius=0.004,
                rms=0.0,
            )
            traj = plan_insertion(scenario.initial_pose, est, scenario.dmp)
            goal = self.goal(est, scenario.dmp)
            assert np.array_equal(traj.positions[-1], goal.position)
            np.testing.assert_allclose(
                goal.position,
                np.asarray(est.center) - 0.012 * np.asarray(est.axis),
                atol=1e-15,
            )

    def test_perturbation_shifts_endpoint_by_goal_map(self, scenario):
        base = self.true_estimate(scenario)
        moved = HoleEstimate(
            center=np.asarray(base.center) + [0.005, 0.0, 0.0],
            axis=base.axis,
            radius=base.radius,
            rms=0.0,
        )
        p0 = plan_insertion(scenario.initial_pose, base, scenario.dmp)
        p1 = plan_insertion(scenario.initial_pose, moved, scenario.dmp)
        end_shift = p1.positions[-1] - p0.positions[-1]
        goal_shift = self.goal(moved, scenario.dmp).position - self.goal(base, scenario.dmp).position
        assert np.array_equal(end_shift, goal_shift)
        np.testing.assert_allclose(end_shift, [0.005, 0.0, 0.0], atol=1e-12)

    def test_missed_standoff_raises_planning_failed(self):
        # gains this soft leave the attractor short of the goal when the run ends
        sc = scenario_from_config(config_from_dict({"seed": 3, "dmp": {"alpha_z": 4.0}}))
        with pytest.raises(PlanningFailed, match="missed the standoff pose"):
            plan_insertion(sc.initial_pose, self.true_estimate(sc), sc.dmp)

    def test_standoff_must_be_positive(self, scenario):
        with pytest.raises(ValueError, match="standoff"):
            plan_insertion(
                scenario.initial_pose, self.true_estimate(scenario), scenario.dmp, standoff=0.0
            )


class TestExecuteTrial:
    def test_noiseless_nominal_succeeds(self, scenario):
        r = execute_trial(scenario)
        assert r.state.phase is Phase.DONE
        assert r.success
        assert r.lateral_err_m < 0.2e-3
        assert r.tilt_rad < math.radians(0.1)
        assert r.depth_m >= scenario.required_depth
        assert r.duration_s > 0
        assert r.jerk is not None and r.jerk["max"] > 0
        assert r.events == nominal_events()

    def test_success_predicate_is_pure_over_the_record(self, noisy_scenario):
        for s in (0, 1, 2, 3):
            r = execute_trial(replace(noisy_scenario, seed=s))
            assert r.success == meets_tolerances(
                r.lateral_err_m, r.tilt_rad, r.depth_m, noisy_scenario
            )

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        noise=st.floats(0.0, 1e-3),
        dropout=st.one_of(st.just(0.0), st.floats(0.0, 0.999)),
        yaw_deg=st.one_of(st.none(), st.floats(-90.0, 90.0)),
        hole_id=st.one_of(st.none(), st.integers(0, 2)),
    )
    def test_valid_scenarios_end_in_a_record_never_an_exception(
        self, scenario, seed, noise, dropout, yaw_deg, hole_id
    ):
        yaw = None if yaw_deg is None else math.radians(yaw_deg)
        s = replace(scenario, seed=seed, noise_sigma=noise, dropout=dropout, yaw=yaw, hole_id=hole_id)
        r = execute_trial(s)
        if r.state.phase is Phase.FAILED:
            assert r.state.reason and not r.success
            assert math.isnan(r.lateral_err_m) and math.isnan(r.depth_m)
        else:
            # ran to the end: success is exactly the tolerance check on finite errors
            assert r.state.phase is Phase.DONE
            assert all(math.isfinite(v) for v in (r.lateral_err_m, r.tilt_rad, r.depth_m))
            assert r.success == meets_tolerances(r.lateral_err_m, r.tilt_rad, r.depth_m, s)

    def test_bar_outside_frustum_fails_with_reason(self, scenario):
        r = execute_trial(replace(scenario, hole_id=2, yaw=math.radians(80.0)))
        assert r.state.phase is Phase.FAILED
        assert r.state.reason.startswith("hole not detectable")
        assert not r.success
        assert math.isnan(r.lateral_err_m) and math.isnan(r.depth_m)
        assert r.jerk is None

    def test_premature_pedal_fails_trial(self, scenario):
        evs = list(nominal_events())
        evs.insert(4, StepEvent(EventKind.PEDAL_PRESS, evs[3].t))
        r = execute_trial(scenario, evs)
        assert r.state.phase is Phase.FAILED
        assert "unexpected event" in r.state.reason
        assert not r.success and math.isnan(r.lateral_err_m)

    def test_abort_stream_fails(self, scenario):
        r = execute_trial(scenario, [StepEvent(EventKind.ABORT, 0.0)])
        assert r.state == TaskState(Phase.FAILED, "aborted")

    def test_abort_after_the_insertion_executes_nothing(self, scenario, monkeypatch):
        ticks = []
        real = lfdkit.assembly.plant_step

        def counted(*args, **kwargs):
            ticks.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(lfdkit.assembly, "plant_step", counted)
        assert execute_trial(scenario).state.phase is Phase.DONE and ticks
        ticks.clear()
        evs = (*nominal_events()[:5], StepEvent(EventKind.ABORT, 5.0))
        r = execute_trial(scenario, evs)
        assert r.state == TaskState(Phase.FAILED, "aborted")
        assert all(math.isnan(v) for v in (r.lateral_err_m, r.tilt_rad, r.depth_m))
        assert r.jerk is None and r.duration_s == 0.0
        assert ticks == []

    def test_planning_failure_wins_over_a_later_abort(self):
        # gains this soft leave the approach short of the standoff pose
        sc = scenario_from_config(config_from_dict({"seed": 3, "dmp": {"alpha_z": 4.0}}))
        r = execute_trial(sc, (*nominal_events()[:3], StepEvent(EventKind.ABORT, 3.0)))
        assert r.state.phase is Phase.FAILED
        assert r.state.reason.startswith("approach endpoint missed the standoff pose")

    def test_no_visible_hole_fails_with_reason(self, scenario):
        # identity attitude: the camera looks up, away from the bar below it
        up = CameraModel(Pose(scenario.cam.pose.position))
        r = execute_trial(replace(scenario, cam=up))
        assert r.state == TaskState(Phase.FAILED, "hole not detectable: no hole is visible from the camera")
        assert r.hole_id is None and r.jerk is None

    def test_event_times_must_be_monotone(self, scenario):
        evs = [StepEvent(EventKind.PEDAL_PRESS, 1.0), StepEvent(EventKind.MOTION_DONE, 0.5)]
        with pytest.raises(ValueError, match="non-decreasing"):
            execute_trial(scenario, evs)

    def test_seeded_hole_choice_is_deterministic(self, scenario):
        a = execute_trial(replace(scenario, seed=5))
        b = execute_trial(replace(scenario, seed=5))
        assert a == b
        assert a.hole_id in (0, 1, 2)

    def test_trial_dict_is_json_clean(self, scenario):
        import json

        r = execute_trial(replace(scenario, hole_id=2, yaw=math.radians(80.0)))
        d = trial_to_dict(r)
        text = json.dumps(d, allow_nan=False)
        assert "hole not detectable" in text


class TestRunBatch:
    def test_twenty_noisy_trials_all_succeed(self, noisy_scenario):
        b = run_batch(noisy_scenario, n=20, seed=7)
        d = batch_to_dict(b)
        assert d["success_rate"] == 1.0
        assert d["failure_reasons"] == {}
        assert all(r.state.phase is Phase.DONE for r in b)
        assert all(r.lateral_err_m <= noisy_scenario.clearance for r in b)
        assert len({r.hole_id for r in b}) == 3
        assert len({round(r.yaw, 6) for r in b}) == 20

    def test_same_seed_is_bit_identical(self, noisy_scenario):
        a = run_batch(noisy_scenario, n=6, seed=3)
        b = run_batch(noisy_scenario, n=6, seed=3)
        assert a == b
        assert batch_csv_text(a) == batch_csv_text(b)

    def test_prefix_of_a_batch_reproduces(self, noisy_scenario):
        big = run_batch(noisy_scenario, n=6, seed=3)
        small = run_batch(noisy_scenario, n=3, seed=3)
        assert small == big[:3]

    def test_trial_seeds_are_derived_from_batch_seed(self, noisy_scenario):
        b = run_batch(noisy_scenario, n=3, seed=9)
        assert [r.seed for r in b] == [9 * 1000003 + i for i in range(3)]

    def test_single_trial_batch_equals_that_trial(self, scenario):
        b = run_batch(scenario, n=1, seed=2)
        assert b == (execute_trial(replace(scenario, seed=2 * 1000003)),)
        assert batch_to_dict(b)["success_rate"] == float(b[0].success)

    def test_n_must_be_positive(self, scenario):
        with pytest.raises(ValueError, match="n must lie in 1..10000"):
            run_batch(scenario, n=0, seed=0)

    def test_n_past_the_cap_runs_nothing(self, scenario):
        with pytest.raises(ValueError, match="n must lie in 1..10000, got 10001"):
            run_batch(scenario, n=MAX_TRIALS + 1, seed=0)

    def test_failures_are_counted_by_reason(self, scenario):
        sc = replace(scenario, hole_id=2, yaw=math.radians(80.0))
        d = batch_to_dict(run_batch(sc, n=3, seed=0))
        assert d["success_rate"] == 0.0
        assert len(d["failure_reasons"]) == 1
        [(reason, count)] = d["failure_reasons"].items()
        assert reason.startswith("hole not detectable")
        assert count == 3

    def test_planning_failures_keep_every_record(self):
        template = scenario_from_config(config_from_dict({"dmp": {"alpha_z": 4.0}}))
        b = run_batch(template, n=3, seed=0)
        assert len(b) == 3
        for r in b:
            assert r.state.phase is Phase.FAILED
            assert r.state.reason.startswith("approach endpoint missed the standoff pose")
            assert math.isnan(r.lateral_err_m) and r.jerk is None

    def test_csv_shape(self, scenario):
        b = run_batch(scenario, n=2, seed=1)
        text = batch_csv_text(b)
        lines = text.splitlines()
        assert lines[0] == "trial,seed,hole_id,success,lat_err_m,tilt_rad,depth_m"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "0" and first[3] == "1"
        d = batch_to_dict(b)
        assert d["n"] == 2 and d["success_rate"] == 1.0


class TestScenarioValidation:
    def test_bad_hole_id(self, scenario):
        with pytest.raises(ValueError, match="hole_id"):
            replace(scenario, hole_id=7)

    def test_negative_seed(self, scenario):
        with pytest.raises(ValueError, match="seed must be at least 0, got -1"):
            replace(scenario, seed=-1)

    def test_bad_tolerances(self, scenario):
        with pytest.raises(ValueError):
            replace(scenario, clearance=0.0)
        with pytest.raises(ValueError):
            replace(scenario, standoff=-0.01)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("noise_sigma", -1.0, "noise sigma must be >= 0"),
            ("noise_sigma", math.nan, "noise sigma must be >= 0"),
            ("dropout", 1.0, "dropout must be in"),
            ("dropout", math.nan, "dropout must be in"),
        ],
    )
    def test_bad_corruption(self, scenario, field, value, message):
        # caught only at the localize stage, a negative sigma reads as an
        # undetectable hole, and nan as no noise
        with pytest.raises(ValueError, match=message):
            replace(scenario, **{field: value})

    def test_bad_yaw_range(self, scenario):
        with pytest.raises(ValueError, match="yaw_range"):
            replace(scenario, yaw_range=(1.0, -1.0))

    def test_nan_errors_never_pass(self, scenario):
        assert not meets_tolerances(math.nan, math.nan, math.nan, scenario)


@dataclass(frozen=True)
class _LagState:
    x_r: Pose
    x_c: Pose
    time_constant: float = 0.05


def _lag_step(state: _LagState, dt: float) -> _LagState:
    a = 1.0 - math.exp(-dt / state.time_constant)
    pos = state.x_r.position + a * (state.x_c.position - state.x_r.position)
    qr, qc = state.x_r.orientation, state.x_c.orientation
    orient = qr if qc == qr else slerp_wxyz(qr, qc, a)
    return replace(state, x_r=Pose(pos, orient))


def _reference_run_plan(plan, scenario, scene, hole_id, settle_time=0.5):
    """The execution loop as it was written before the plant became a plain
    function: a state object rebuilt with ``replace`` every tick, a nested
    step closure, and a separate settle loop."""
    center = scene.hole_center_world(hole_id)
    axis = scene.hole_axis_world(hole_id)
    bar_inv = scene.bar.inverse()
    half_dims = np.asarray(scene.dims, dtype=float) / 2.0
    cmd_t = plan.times
    cmd_p = plan.positions
    cmd_q = plan.orientations

    start = Pose(cmd_p[0], quat_normalize(*cmd_q[0]))
    state = _LagState(start, start)
    times = [float(cmd_t[0])]
    out_p = [np.array(cmd_p[0])]
    out_q = [np.array(cmd_q[0])]

    def step(cmd, dt, t):
        nonlocal state
        state = _lag_step(replace(state, x_c=cmd), dt)
        proj = _contact_project(state.x_r.position, center, axis, bar_inv, half_dims, scenario.clearance)
        if proj is not state.x_r.position:
            state = replace(state, x_r=Pose(proj, state.x_r.orientation))
        times.append(t)
        out_p.append(np.array(state.x_r.position))
        out_q.append(np.array(state.x_r.orientation))

    for i in range(1, cmd_t.size):
        cmd = Pose(cmd_p[i], quat_normalize(*cmd_q[i]))
        step(cmd, float(cmd_t[i] - cmd_t[i - 1]), float(cmd_t[i]))
    dt = float(cmd_t[-1] - cmd_t[-2])
    last = Pose(cmd_p[-1], quat_normalize(*cmd_q[-1]))
    for j in range(int(round(settle_time / dt))):
        step(last, dt, float(cmd_t[-1]) + (j + 1) * dt)

    return Trajectory(np.array(times), np.vstack(out_p), np.vstack(out_q))


class TestRunPlan:
    HOLE = 1
    YAW = 0.2

    def plan(self, scenario, offset=0.0):
        """Plan for hole 1 of the yawed bar: the true hole when noiseless,
        the seeded vision fit otherwise, moved ``offset`` m off the axis."""
        scene = scenario.scene.yawed(self.YAW)
        if scenario.noise_sigma == 0.0:
            center = scene.hole_center_world(self.HOLE)
            axis = scene.hole_axis_world(self.HOLE)
        else:
            mask = synthesize_mask(
                scene, scenario.cam, self.HOLE, scenario.noise_sigma, 0.0,
                seed=scenario.seed, n_points=scenario.mask_points,
            )
            est = fit_circle3d(mask)
            center = scenario.cam.pose.transform_point(est.center)
            axis = scenario.cam.pose.transform_direction(est.axis)
        side = unit(np.cross(axis, [1.0, 0.0, 0.0]))
        radius = scene.holes[self.HOLE].radius
        est = HoleEstimate(center=center + offset * side, axis=axis, radius=radius, rms=0.0)
        plan = plan_insertion(
            scenario.initial_pose, est, scenario.dmp,
            standoff=scenario.standoff,
            depth=scenario.required_depth + scenario.plan_overtravel,
        )
        return plan, scene

    def assert_same_as_reference(self, scenario, offset=0.0):
        plan, scene = self.plan(scenario, offset)
        got = _run_plan(plan, scenario, scene, self.HOLE)
        want = _reference_run_plan(plan, scenario, scene, self.HOLE)
        assert np.array_equal(got.times, want.times)
        assert np.array_equal(got.positions, want.positions)
        assert np.array_equal(got.orientations, want.orientations)
        return _score(got, scene, self.HOLE)

    def test_noiseless_plan_matches_reference(self, scenario):
        lateral, _, depth = self.assert_same_as_reference(scenario)
        assert lateral < 1e-6 and depth >= scenario.required_depth

    @pytest.mark.parametrize("seed", [1, 2])
    def test_noisy_plans_match_reference(self, noisy_scenario, seed):
        self.assert_same_as_reference(replace(noisy_scenario, seed=seed))

    def test_chamfer_snap_matches_reference(self, scenario):
        # 0.8 mm off: inside the chamfer band, so the peg funnels into the hole
        lateral, _, depth = self.assert_same_as_reference(scenario, offset=8e-4)
        assert lateral <= scenario.clearance and depth >= scenario.required_depth

    def test_face_block_matches_reference(self, scenario):
        # 2 mm off: beyond the chamfer, so the top face stops the descent
        lateral, _, depth = self.assert_same_as_reference(scenario, offset=2e-3)
        assert lateral > 1.5e-3 and abs(depth) < 1e-9
