"""Orchestrator tests: state machine totality, insertion-goal geometry,
end-to-end trials against the true scene, and batch determinism."""

import math
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lfdkit.assembly
import lfdkit.dmp
import lfdkit.metrics
from lfdkit.assembly import (
    MAX_TRIALS,
    _DESCENT_SPEED,
    _PLAN_DT,
    _SNAP_BAND,
    _TABLE,
    _contact_model,
    _contact_project,
    _first_binding_tick,
    _plan,
    _run_plan,
    _score,
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
from lfdkit.ktc import PLANT_TIME_CONSTANT
from lfdkit.metrics import jerk_metrics
from lfdkit.se3 import Pose, from_rotation_vector, quat_conj_wxyz, quat_mul_wxyz, quat_normalize, quat_rotate_wxyz
from lfdkit.se3 import chart_rows, rotation_vector_wxyz, unchart_rows
from lfdkit.trajectory import MAX_ROWS, ParseError, Trajectory
from lfdkit.vision import MAX_MASK_POINTS, CameraModel, HoleEstimate, locate_hole

TOOL_AXIS = np.array([0.0, 0.0, -1.0])


@pytest.fixture(scope="module")
def scenario():
    return default_scenario(noise_sigma=0.0, seed=0)


@pytest.fixture(scope="module")
def noisy_scenario():
    return default_scenario(noise_sigma=5e-4, seed=0)


def with_trial(scenario, **settings):
    """``scenario`` with these trial settings replaced."""
    return replace(scenario, trial=replace(scenario.trial, **settings))


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def count_calls(monkeypatch, name):
    """Patch ``lfdkit.assembly.<name>``; the returned list grows one entry per call."""
    calls = []
    real = getattr(lfdkit.assembly, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(lfdkit.assembly, name, counted)
    return calls


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
        assert [e.kind for e in evs] == [kind for _, kind in _TABLE]

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
        with pytest.raises(ParseError, match="non-decreasing; got 0.5 after 1$") as err:
            parse_events("1 pedal_press\n0.5 motion_done\n")
        assert (err.value.line, err.value.field) == (2, "time")

    def test_event_time_must_be_finite_nonnegative(self):
        for t, message in [(-1.0, "at least 0, got -1.0"), (math.nan, "at least 0, got nan"),
                           (math.inf, "finite, got inf")]:
            with pytest.raises(ValueError) as err:
                StepEvent(EventKind.ABORT, t)
            assert str(err.value) == f"event time must be {message}"


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

    # the default depth, and a descent a few rows short of the row cap
    @pytest.mark.parametrize("depth", [0.012, MAX_ROWS * _DESCENT_SPEED * _PLAN_DT - 0.031])
    @pytest.mark.parametrize("yaw_deg", [-60.0, 60.0])
    @pytest.mark.parametrize("hole_id", [0, 1, 2])
    def test_plan_rows_are_evenly_spaced(self, scenario, hole_id, yaw_deg, depth):
        # row k of a plan is at k * _PLAN_DT, the one clock its execution and
        # the trial's score run on, to the bit
        yawed = replace(scenario, scene=scenario.scene.yawed(math.radians(yaw_deg)))
        times = plan_insertion(scenario.initial_pose, self.true_estimate(yawed, hole_id), scenario.dmp, 0.030, depth).times
        assert np.array_equal(times.view(np.int64), (np.arange(len(times)) * _PLAN_DT).view(np.int64))


class TestExecuteTrial:
    def test_noiseless_nominal_succeeds(self, scenario):
        r = execute_trial(scenario)
        assert r.state.phase is Phase.DONE
        assert r.success
        assert r.lateral_err_m < 0.2e-3
        assert r.tilt_rad < math.radians(0.1)
        assert r.depth_m >= scenario.trial.required_depth
        assert r.duration_s > 0
        assert r.jerk is not None and r.jerk["max"] > 0
        assert r.events == nominal_events()

    def test_non_finite_filter_ends_the_trial_failed(self, scenario):
        # alpha_z * beta_z overflows; the replay's filter once raised a bare
        # ValueError out of execute_trial, which ended the whole batch. The
        # stability rule refuses it, and a finite but unstable step, before
        # step 1, and the trial records the rule's line as its reason
        for alpha_z, beta_z in ((1e160, 2.5e159), (17000.0, 4250.0)):
            dmp = replace(scenario.dmp, alpha_z=alpha_z, beta_z=beta_z)
            r = execute_trial(replace(scenario, dmp=dmp))
            assert r.state.phase is Phase.FAILED and not r.success
            assert r.state.reason == (
                f"alpha_z must leave the Euler step at dt = 0.001 s, tau = {dmp.tau:.6g} s stable (both roots of"
                f" its filter inside the unit circle), got {alpha_z!r} with beta_z = {beta_z!r}"
            )

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
        s = with_trial(replace(scenario, seed=seed), noise_sigma=noise, dropout=dropout, yaw_deg=yaw_deg,
                       hole_id=hole_id)
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
        r = execute_trial(with_trial(scenario, hole_id=2, yaw_deg=80.0))
        assert r.state.phase is Phase.FAILED
        assert r.state.reason.startswith("hole not detectable")
        assert not r.success
        assert math.isnan(r.lateral_err_m) and math.isnan(r.depth_m)
        assert r.jerk is None

    def test_premature_pedal_fails_trial(self, scenario):
        evs = list(nominal_events())
        evs.insert(4, StepEvent(EventKind.PEDAL_PRESS, evs[3].t))
        r = execute_trial(replace(scenario, events=evs))
        assert r.state.phase is Phase.FAILED
        assert "unexpected event" in r.state.reason
        assert not r.success and math.isnan(r.lateral_err_m)

    def test_default_trial_lasts_its_plan_and_settle_exactly(self):
        # 8,101 plan rows and 500 settle ticks, the last one at 8600 * _PLAN_DT
        assert execute_trial(default_scenario(seed=3)).duration_s == 8.6

    def test_abort_stream_fails(self, scenario):
        r = execute_trial(replace(scenario, events=[StepEvent(EventKind.ABORT, 0.0)]))
        assert r.state == TaskState(Phase.FAILED, "aborted")

    def test_abort_after_the_insertion_executes_nothing(self, scenario, monkeypatch):
        # the execute stage runs once per executed plan, so it counts executions
        executed = count_calls(monkeypatch, "_run_plan")
        assert execute_trial(scenario).state.phase is Phase.DONE and executed
        executed.clear()
        evs = (*nominal_events()[:5], StepEvent(EventKind.ABORT, 5.0))
        r = execute_trial(replace(scenario, events=evs))
        assert r.state == TaskState(Phase.FAILED, "aborted")
        assert all(math.isnan(v) for v in (r.lateral_err_m, r.tilt_rad, r.depth_m))
        assert r.jerk is None and r.duration_s == 0.0
        assert executed == []

    def test_trial_stays_in_the_chart(self, scenario, monkeypatch):
        # the replay charts only its start attitude, and the trial maps back
        # only the final executed one
        rows = {"chart_rows": [], "unchart_rows": []}

        def counted(real, seen):
            def wrapper(q, ref):
                seen.append(len(q))
                return real(q, ref)
            return wrapper

        for module in (lfdkit.assembly, lfdkit.dmp, lfdkit.metrics):
            for name, seen in rows.items():
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(getattr(module, name), seen))
        assert execute_trial(scenario).success
        assert rows == {"chart_rows": [1], "unchart_rows": [1]}

    def test_planning_failure_wins_over_a_later_abort(self):
        # gains this soft leave the approach short of the standoff pose
        sc = scenario_from_config(config_from_dict({"seed": 3, "dmp": {"alpha_z": 4.0}}))
        r = execute_trial(replace(sc, events=(*nominal_events()[:3], StepEvent(EventKind.ABORT, 3.0))))
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
            replace(scenario, events=evs)

    def test_seeded_hole_choice_is_deterministic(self, scenario):
        a = execute_trial(replace(scenario, seed=5))
        b = execute_trial(replace(scenario, seed=5))
        assert a == b
        assert a.hole_id in (0, 1, 2)

    def test_trial_dict_is_json_clean(self, scenario):
        import json

        r = execute_trial(with_trial(scenario, hole_id=2, yaw_deg=80.0))
        d = trial_to_dict(r)
        text = json.dumps(d, allow_nan=False)
        assert "hole not detectable" in text


class TestRunBatch:
    def test_twenty_noisy_trials_all_succeed(self, noisy_scenario):
        b = run_batch(with_trial(replace(noisy_scenario, seed=7), n=20))
        d = batch_to_dict(b)
        assert d["success_rate"] == 1.0
        assert d["failure_reasons"] == {}
        assert all(r.state.phase is Phase.DONE for r in b)
        assert all(r.lateral_err_m <= noisy_scenario.trial.clearance for r in b)
        assert len({r.hole_id for r in b}) == 3
        assert len({round(r.yaw, 6) for r in b}) == 20

    def test_same_seed_is_bit_identical(self, noisy_scenario):
        a = run_batch(with_trial(replace(noisy_scenario, seed=3), n=6))
        b = run_batch(with_trial(replace(noisy_scenario, seed=3), n=6))
        assert a == b
        assert batch_csv_text(a) == batch_csv_text(b)

    def test_prefix_of_a_batch_reproduces(self, noisy_scenario):
        big = run_batch(with_trial(replace(noisy_scenario, seed=3), n=6))
        small = run_batch(with_trial(replace(noisy_scenario, seed=3), n=3))
        assert small == big[:3]

    def test_trial_seeds_are_derived_from_batch_seed(self, noisy_scenario):
        b = run_batch(with_trial(replace(noisy_scenario, seed=9), n=3))
        assert [r.seed for r in b] == [9 * 1000003 + i for i in range(3)]

    def test_single_trial_batch_equals_that_trial(self, scenario):
        b = run_batch(with_trial(replace(scenario, seed=2), n=1))
        assert b == (execute_trial(replace(scenario, seed=2 * 1000003)),)
        assert batch_to_dict(b)["success_rate"] == float(b[0].success)

    def test_yaw_limit_of_minus_zero_runs_as_zero(self, scenario):
        # -0.0 meets the limit's rule; drawn as uniform(0.0, -0.0), it raised
        # numpy's "high - low < 0" in every trial
        zero, minus_zero = (run_batch(with_trial(scenario, yaw_limit_deg=limit, n=3))
                            for limit in (0.0, -0.0))
        assert batch_to_dict(minus_zero) == batch_to_dict(zero)
        assert batch_csv_text(minus_zero) == batch_csv_text(zero)
        assert [r.yaw for r in minus_zero] == [0.0] * 3

    def test_n_must_be_positive(self, scenario):
        with pytest.raises(ValueError, match="n must be at least 1, got 0"):
            with_trial(scenario, n=0)

    def test_n_past_the_cap_runs_nothing(self, scenario):
        with pytest.raises(ValueError, match="n must be at most 10000, got 10001"):
            with_trial(scenario, n=MAX_TRIALS + 1)

    def test_failures_are_counted_by_reason(self, scenario):
        sc = with_trial(scenario, hole_id=2, yaw_deg=80.0)
        d = batch_to_dict(run_batch(with_trial(sc, n=3)))
        assert d["success_rate"] == 0.0
        assert len(d["failure_reasons"]) == 1
        [(reason, count)] = d["failure_reasons"].items()
        assert reason.startswith("hole not detectable")
        assert count == 3

    def test_planning_failures_keep_every_record(self):
        template = scenario_from_config(config_from_dict({"dmp": {"alpha_z": 4.0}}))
        b = run_batch(with_trial(template, n=3))
        assert len(b) == 3
        for r in b:
            assert r.state.phase is Phase.FAILED
            assert r.state.reason.startswith("approach endpoint missed the standoff pose")
            assert math.isnan(r.lateral_err_m) and r.jerk is None

    def test_config_sets_the_batch_size_seed_and_events(self, tmp_path, monkeypatch):
        # the batch size, the seed and the event script all come from the
        # config through the scenario; run_batch once ran 20 nominal trials
        # seeded 0-19 here and never read the script
        monkeypatch.chdir(tmp_path)
        (tmp_path / "abort.events").write_text("0 pedal_press\n1 motion_done\n2 vision_ready\n3 pedal_press\n"
                                               "4 motion_done\n5 abort\n")
        cfg = config_from_dict({"seed": 5, "trial": {"n": 3, "events": "abort.events"}})
        b = run_batch(scenario_from_config(cfg))
        assert [r.seed for r in b] == [5000015, 5000016, 5000017]
        assert all(r.state == TaskState(Phase.FAILED, "aborted") for r in b)

    def test_csv_shape(self, scenario):
        b = run_batch(with_trial(replace(scenario, seed=1), n=2))
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
        with pytest.raises(ValueError, match=r"^hole id 7 outside the scene's holes 0\.\.2$"):
            with_trial(scenario, hole_id=7)

    def test_negative_seed(self, scenario):
        with pytest.raises(ValueError, match="seed must be at least 0, got -1"):
            replace(scenario, seed=-1)

    def test_bad_tolerances(self, scenario):
        with pytest.raises(ValueError):
            with_trial(scenario, clearance=0.0)
        with pytest.raises(ValueError):
            with_trial(scenario, standoff=-0.01)
        # the config's limits: every trial of a batch from such a template
        # would sample 10**9 rim points, or never fail on lateral error or tilt
        for field, value, message in [
            ("mask_points", MAX_MASK_POINTS + 1, f"mask_points must be at most {MAX_MASK_POINTS}, got {MAX_MASK_POINTS + 1}"),
            ("mask_points", 10**9, f"mask_points must be at most {MAX_MASK_POINTS}, got 1000000000"),
            ("clearance", math.inf, "clearance must be finite, got inf"),
            ("tilt_tol_deg", math.inf, "tilt_tol_deg must be finite, got inf"),
            # 1e300 m of descent once asked numpy for 5e304 plan rows
            # mid-trial, and 1000 m for 5e7, several GB
            ("required_depth", 1e300, "a descent of standoff 0.03 + depth 1e+300 m needs 5e+304 plan rows, "
                                      "more than the cap of 1000000"),
            ("plan_overtravel", 1e300, "a descent of standoff 0.03 + depth 1e+300 m needs 5e+304 plan rows, "
                                       "more than the cap of 1000000"),
            ("standoff", 1e300, "a descent of standoff 1e+300 + depth 0.012 m needs 5e+304 plan rows, "
                                "more than the cap of 1000000"),
            ("required_depth", 1000.0, "a descent of standoff 0.03 + depth 1000 m needs 50001600 plan rows, "
                                       "more than the cap of 1000000"),
        ]:
            with pytest.raises(ValueError) as err:
                with_trial(scenario, **{field: value})
            assert str(err.value) == message

    # each case keeps the id it had before the text became the config's
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("noise_sigma", -1.0, "noise_sigma must be at least 0, got -1.0"),
            ("noise_sigma", math.nan, "noise_sigma must be at least 0, got nan"),
            ("dropout", 1.0, "dropout must be below 1, got 1.0"),
            ("dropout", math.nan, "dropout must be at least 0, got nan"),
        ],
        ids=["noise_sigma--1.0-noise sigma must be >= 0", "noise_sigma-nan-noise sigma must be >= 0",
             "dropout-1.0-dropout must be in", "dropout-nan-dropout must be in"],
    )
    def test_bad_corruption(self, scenario, field, value, message):
        # caught only at the localize stage, a negative sigma reads as an
        # undetectable hole, and nan as no noise
        with pytest.raises(ValueError, match=message):
            with_trial(scenario, **{field: value})

    @pytest.mark.parametrize(
        "field, value, message",
        [
            # these keep the ids they had before the text became the config's
            pytest.param("clearance", math.nan, "clearance must be positive, got nan",
                         id="clearance-nan-clearance and tilt_tol must be positive"),
            pytest.param("tilt_tol_deg", math.nan, "tilt_tol_deg must be positive, got nan",
                         id="tilt_tol-nan-clearance and tilt_tol must be positive"),
            pytest.param("required_depth", math.nan, "required_depth must be positive, got nan",
                         id="required_depth-nan-required_depth and standoff must be positive and finite"),
            pytest.param("required_depth", math.inf, "required_depth must be finite, got inf",
                         id="required_depth-inf-required_depth and standoff must be positive and finite"),
            pytest.param("standoff", math.nan, "standoff must be positive, got nan",
                         id="standoff-nan-required_depth and standoff must be positive and finite"),
            pytest.param("standoff", math.inf, "standoff must be finite, got inf",
                         id="standoff-inf-required_depth and standoff must be positive and finite"),
            pytest.param("plan_overtravel", math.nan, "plan_overtravel must be at least 0, got nan",
                         id="plan_overtravel-nan-plan_overtravel must be nonnegative and finite"),
            pytest.param("plan_overtravel", math.inf, "plan_overtravel must be finite, got inf",
                         id="plan_overtravel-inf-plan_overtravel must be nonnegative and finite"),
            pytest.param("yaw_deg", math.nan, "yaw_deg must be finite, got nan",
                         id="yaw-nan-yaw must be finite, got nan"),
            pytest.param("yaw_deg", math.inf, "yaw_deg must be finite, got inf",
                         id="yaw-inf-yaw must be finite, got inf"),
            pytest.param("yaw_deg", -math.inf, "yaw_deg must be finite, got -inf",
                         id="yaw--inf-yaw must be finite, got -inf"),
            pytest.param("yaw_limit_deg", math.nan, "yaw_limit_deg must be at least 0, got nan", id="yaw_limit-nan"),
            pytest.param("yaw_limit_deg", math.inf, "yaw_limit_deg must be finite, got inf", id="yaw_limit-inf"),
        ],
    )
    def test_rejects_nan_and_infinity(self, scenario, field, value, message):
        # left to execute_trial, a nan tolerance ends a trial done but
        # unsuccessful with no reason, and the rest raise mid-trial, which
        # would take down a whole batch
        with pytest.raises(ValueError, match=message):
            with_trial(scenario, **{field: value})

    def test_bad_yaw_limit(self, scenario):
        with pytest.raises(ValueError, match=r"yaw_limit_deg must be at least 0, got -1\.0"):
            with_trial(scenario, yaw_limit_deg=-1.0)

    def test_nan_errors_never_pass(self, scenario):
        assert not meets_tolerances(math.nan, math.nan, math.nan, scenario)

    def test_descent_rule_is_the_plans(self, scenario, monkeypatch):
        # 10 m of descent, 5e5 rows, passes; _plan refuses 20 m, 1e6 rows
        # plus the standoff's, before its replay allocates anything
        with_trial(scenario, required_depth=10.0)

        def no_replay(*args, **kwargs):
            raise AssertionError("replayed")

        monkeypatch.setattr(lfdkit.assembly, "_replay", no_replay)
        hole = HoleEstimate(center=np.zeros(3), axis=np.array([0.0, 0.0, 1.0]), radius=1e-3, rms=0.0)
        with pytest.raises(ValueError, match=rf"more than the cap of {MAX_ROWS}$"):
            _plan(scenario.initial_pose, hole, scenario.dmp, scenario.trial.standoff,
                  MAX_ROWS * _DESCENT_SPEED * _PLAN_DT)


def _reference_run_plan(plan, scenario, scene, hole_id, settle_time=0.5):
    """The execution law tick by tick on scalars: the position and the
    attitude error in the last command's log chart each close the gap to
    the command by a = 1 - exp(-dt/T), and the contact rule then projects
    the position. Returns the trajectory, its attitude errors in that chart
    and, alongside them, the attitudes of a slerp lag toward each commanded
    attitude, the slerp spelled from the exp/log pair."""
    model = _contact_model(scene, hole_id, scenario.trial.clearance)
    g = tuple(plan.orientations[-1].tolist())
    conj_g = quat_conj_wxyz(g)
    cmd_t = plan.times.tolist()
    cmd_p = plan.positions.tolist()
    cmd_q = [quat_normalize(*q) for q in plan.orientations.tolist()]
    dt = cmd_t[-1] - cmd_t[-2]
    n_hold = int(round(settle_time / dt))
    ticks = list(zip(cmd_t, cmd_p, cmd_q))
    ticks += [(cmd_t[-1] + (j + 1) * dt, cmd_p[-1], cmd_q[-1]) for j in range(n_hold)]

    p, e, q_slerp = cmd_p[0], rotation_vector_wxyz(quat_mul_wxyz(cmd_q[0], conj_g)), cmd_q[0]
    out_p, out_e, out_slerp = [p], [e], [q_slerp]
    for (t0, _, _), (t1, c, q_c) in zip(ticks, ticks[1:]):
        a = 1.0 - math.exp(-(t1 - t0) / PLANT_TIME_CONSTANT)
        e_c = rotation_vector_wxyz(quat_mul_wxyz(q_c, conj_g))
        p = _contact_project(tuple(pi + a * (ci - pi) for pi, ci in zip(p, c)), model)
        e = tuple(ei + a * (ci - ei) for ei, ci in zip(e, e_c))
        if q_c != q_slerp:
            vx, vy, vz = rotation_vector_wxyz(quat_mul_wxyz(q_c, quat_conj_wxyz(q_slerp)))
            q_slerp = quat_mul_wxyz(from_rotation_vector((a * vx, a * vy, a * vz)), q_slerp)
        out_p.append(p)
        out_e.append(e)
        out_slerp.append(q_slerp)
    out_q = [quat_mul_wxyz(from_rotation_vector(e), g) for e in out_e]
    want = Trajectory(np.array([t for t, _, _ in ticks]), np.array(out_p), np.array(out_q))
    return want, np.array(out_e), np.array(out_slerp)


class TestRunPlan:
    HOLE = 1
    YAW = 0.2

    def plan(self, scenario, offset=0.0):
        """Plan for hole 1 of the yawed bar: the true hole when noiseless,
        the seeded vision fit otherwise, moved ``offset`` m off the axis. The
        command trajectory for the reference, the plan rows for
        ``_run_plan``, and the scene."""
        scene = scenario.scene.yawed(self.YAW)
        if scenario.trial.noise_sigma == 0.0:
            center = scene.hole_center_world(self.HOLE)
            axis = scene.hole_axis_world(self.HOLE)
        else:
            est = locate_hole(scene, scenario.cam, self.HOLE, scenario.trial.noise_sigma, 0.0,
                              seed=scenario.seed, n_points=scenario.trial.mask_points)
            center, axis = est.center, est.axis
        side = unit(np.cross(axis, [1.0, 0.0, 0.0]))
        radius = scene.holes[self.HOLE].radius
        est = HoleEstimate(center=center + offset * side, axis=axis, radius=radius, rms=0.0)
        args = (scenario.initial_pose, est, scenario.dmp, scenario.trial.standoff,
                scenario.trial.required_depth + scenario.trial.plan_overtravel)
        return plan_insertion(*args), _plan(*args), scene

    def score(self, positions, e, g, scene):
        """The errors of an executed run, its final attitude mapped back."""
        return _score(positions[-1], unchart_rows(e[-1:], g)[0], scene, self.HOLE)

    def assert_same_as_reference(self, scenario, offset=0.0):
        plan, rows, scene = self.plan(scenario, offset)
        lag = _run_plan(rows, scenario, scene, self.HOLE)
        positions, e = lag[:3].T, lag[3:].T
        want, want_e, slerp = _reference_run_plan(plan, scenario, scene, self.HOLE)
        # the execution's row k is at k * _PLAN_DT, the reference's tick k
        np.testing.assert_allclose(np.arange(len(lag[0])) * _PLAN_DT, want.times, rtol=0, atol=1e-12)
        # the scan and the tick loop round differently
        np.testing.assert_allclose(positions, want.positions, rtol=0, atol=1e-12)
        np.testing.assert_allclose(e, want_e, rtol=0, atol=1e-12)
        # the chart lag stays within 1e-5 rad of the slerp lag, tick by tick
        apart = np.linalg.norm(chart_rows(unchart_rows(e, rows[1]), slerp), axis=1)
        assert apart.max() <= 1e-5
        return self.score(positions, e, rows[1], scene)

    def test_noiseless_plan_matches_reference(self, scenario):
        lateral, _, depth = self.assert_same_as_reference(scenario)
        assert lateral < 1e-6 and depth >= scenario.trial.required_depth

    @pytest.mark.parametrize("seed", [1, 2])
    def test_noisy_plans_match_reference(self, noisy_scenario, seed):
        self.assert_same_as_reference(replace(noisy_scenario, seed=seed))

    def test_chamfer_snap_matches_reference(self, scenario):
        # 0.8 mm off: inside the chamfer band, so the peg funnels into the hole
        lateral, _, depth = self.assert_same_as_reference(scenario, offset=8e-4)
        assert lateral <= scenario.trial.clearance and depth >= scenario.trial.required_depth

    def test_face_block_matches_reference(self, scenario):
        # 2 mm off: beyond the chamfer, so the top face stops the descent
        lateral, _, depth = self.assert_same_as_reference(scenario, offset=2e-3)
        assert lateral > 1.5e-3 and abs(depth) < 1e-9

    # either side of the clearance (0.5 mm) and of the chamfer band's outer edge (1.5 mm)
    @pytest.mark.parametrize("offset_mm", [0.45, 0.5, 0.55, 1.45, 1.55])
    def test_offsets_across_the_contact_edges_match_reference(self, scenario, offset_mm):
        self.assert_same_as_reference(scenario, offset=offset_mm * 1e-3)

    def test_offset_on_the_band_edge_takes_either_branch(self, scenario):
        # 1.5 mm off: the peg reaches the face within 1e-17 m of the band's
        # outer edge, where the rule jumps from funnelling in to blocking. The
        # scan lands a hair inside the edge and the tick loop a hair outside,
        # so each rounding takes its own branch of the same law.
        plan, rows, scene = self.plan(scenario, offset=1.5e-3)
        lag = _run_plan(rows, scenario, scene, self.HOLE)
        positions, e = lag[:3].T, lag[3:].T
        want, _, _ = _reference_run_plan(plan, scenario, scene, self.HOLE)
        model = _contact_model(scene, self.HOLE, scenario.trial.clearance)
        k = _first_binding_tick(want.positions.T, model)
        np.testing.assert_allclose(positions[:k], want.positions[:k], rtol=0, atol=1e-12)
        scores = (
            self.score(positions, e, rows[1], scene),
            _score(want.positions[-1], want.orientations[-1], scene, self.HOLE),
        )
        for lateral, _, depth in scores:
            entered = lateral <= scenario.trial.clearance and depth >= scenario.trial.required_depth
            blocked = abs(lateral - 1.5e-3) < 1e-12 and abs(depth) < 1e-9
            assert entered or blocked

    def test_face_block_steps_from_the_first_binding_tick(self, scenario, monkeypatch):
        plan, rows, scene = self.plan(scenario, offset=2e-3)
        want, _, _ = _reference_run_plan(plan, scenario, scene, self.HOLE)
        model = _contact_model(scene, self.HOLE, scenario.trial.clearance)
        # the first tick where the tick-by-tick law's contact rule moves the peg
        a = 1.0 - math.exp(-(plan.times[1] - plan.times[0]) / PLANT_TIME_CONSTANT)
        commands = np.vstack([plan.positions, np.repeat(plan.positions[-1:], len(want) - len(plan), axis=0)])
        free = want.positions[:-1] + a * (commands[1:] - want.positions[:-1])
        moved = [k + 1 for k, p in enumerate(free.tolist()) if _contact_project(tuple(p), model) != tuple(p)]
        assert moved
        calls = count_calls(monkeypatch, "_contact_project")
        lag = _run_plan(rows, scenario, scene, self.HOLE)
        # one projection per tick from the first one stepped to the end
        assert len(lag[0]) - len(calls) == moved[0]


def test_trial_jerk_is_the_public_jerk_of_the_executed_motion(monkeypatch):
    # the trial scores its executed rows in place; the public path builds a
    # Trajectory of them first, and both must agree to the bit
    captured = {}

    def keep(name):
        real = getattr(lfdkit.assembly, name)

        def kept(*args):
            captured[name] = real(*args)
            return captured[name]

        monkeypatch.setattr(lfdkit.assembly, name, kept)

    keep("_plan")
    keep("_run_plan")
    projected = count_calls(monkeypatch, "_contact_project")
    r = execute_trial(default_scenario(noise_sigma=2e-3, seed=2))
    assert projected  # a 2 mm trial whose peg meets the chamfer steps the contact loop
    lag, (_, g) = captured["_run_plan"], captured["_plan"]
    executed = Trajectory(np.arange(len(lag[0])) * _PLAN_DT, lag[:3].T, unchart_rows(lag[3:].T, g))
    assert r.jerk == jerk_metrics(executed)


class TestContactGate:
    """The scalar contact loop runs only from the first tick where contact
    can bind; before it, the executed positions are the scan's."""

    def test_noiseless_trial_steps_no_tick(self, scenario, monkeypatch):
        # the contact loop projects once per tick it steps
        calls = count_calls(monkeypatch, "_contact_project")
        r = execute_trial(scenario)
        assert r.state.phase is Phase.DONE and r.success
        assert calls == []

    HEIGHTS = [-2e-3, -1e-6, -2e-9, -1e-9, -1e-12, 0.0, 1e-12, 1e-9, 2e-9, 1e-6]
    NUDGES = [-1e-6, -2e-9, -1e-9, -1e-12, 0.0, 1e-12, 1e-9, 2e-9, 1e-6]

    @settings(max_examples=400, deadline=None)
    @given(
        hole_id=st.integers(0, 2),
        yaw=st.floats(-1.0, 1.0),
        height=st.one_of(st.sampled_from(HEIGHTS), st.floats(-3e-3, 1e-3)),
        nudge=st.one_of(st.sampled_from(NUDGES), st.floats(-1e-4, 1e-4)),
        edge=st.sampled_from(["clearance", "snap band", "footprint x", "footprint y"]),
        angle=st.floats(-math.pi, math.pi),
        along=st.floats(-1.0, 1.0),
    )
    def test_gate_flags_every_point_the_rule_moves(self, scenario, hole_id, yaw, height, nudge, edge, angle, along):
        scene = scenario.scene.yawed(yaw)
        model = _contact_model(scene, hole_id, scenario.trial.clearance)
        center, axis, origin = (np.array(model[i : i + 3]) for i in (0, 3, 6))
        u, v = np.array(model[9:12]), np.array(model[12:15])
        half_x, half_y, clearance = model[15:]
        hole = (center - origin) @ u, (center - origin) @ v
        if edge in ("clearance", "snap band"):
            r = (clearance if edge == "clearance" else clearance + _SNAP_BAND) + nudge
            x, y = r * math.cos(angle), r * math.sin(angle)
        elif edge == "footprint x":  # across the bar's end, anywhere along its width
            x, y = math.copysign(half_x, angle) - hole[0] + nudge, along * half_y - hole[1]
        else:  # across the bar's long side, anywhere along its length
            x, y = along * half_x - hole[0], math.copysign(half_y, angle) - hole[1] + nudge
        p = tuple((center + height * axis + x * u + y * v).tolist())
        # the first tick goes below the face on the axis, where nothing binds,
        # so the row test sees p whether it is above the face or below
        inside = center - 1e-3 * axis
        first = _first_binding_tick(np.array([p, inside, p]).T, model)
        assert first in (None, 2)
        flagged = first == 2
        if _contact_project(p, model) != p:
            assert flagged
        if flagged:  # and only near a point the rule moves
            rel = np.array(p) - center
            h = float(rel @ axis)
            bar = np.array(p) - origin
            assert h <= 2e-9
            assert abs(bar @ u) <= half_x + 2e-9 and abs(bar @ v) <= half_y + 2e-9
            assert np.linalg.norm(rel - h * axis) > clearance - 2e-9
