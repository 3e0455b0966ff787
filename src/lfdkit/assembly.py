"""Pedal-stepped assembly orchestration.

One trial is a short story: the operator places the bar and presses the
pedal, the robot fetches the peg, vision fixes the chosen hole, a second
pedal press releases the insertion move, and a final press closes the task.
A total, deterministic state machine arbitrates that story; planning turns
the fitted hole into a standoff-then-descend trajectory; execution plays it
on the lagged plant against the true bar geometry with a chamfer-style
contact model; batches rerun the whole pipeline under independent seeds.

Tool convention: the peg points along the tool frame -z axis, so an
identity attitude is straight down.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .dmp import PoseDmp, RolloutDiverged, rollout
from .ktc import plant_step
from .metrics import jerk_metrics
from .se3 import Pose, quat_mul_wxyz, quat_normalize, quat_rotate_wxyz, rotation_between
from .trajectory import ParseError, Trajectory, _brief_repr, fmt_float
from .vision import (
    BarScene,
    CameraModel,
    HoleEstimate,
    NotDetectable,
    _check_corruption,
    check_visible,
    fit_circle3d,
    hole_in_world,
    synthesize_mask,
)

__all__ = [
    "MAX_TRIALS",
    "Phase",
    "EventKind",
    "TaskState",
    "StepEvent",
    "AssemblyScenario",
    "PlanningFailed",
    "TrialResult",
    "advance",
    "nominal_events",
    "parse_events",
    "insertion_goal",
    "plan_insertion",
    "execute_trial",
    "run_batch",
    "meets_tolerances",
    "trial_to_dict",
    "batch_to_dict",
    "batch_csv_text",
]

_TOOL_AXIS = np.array([0.0, 0.0, -1.0])
_CONVERGENCE_TOL = 1e-3
_DESCENT_SPEED = 0.02  # m/s along the hole axis, standoff to goal
_PLAN_DT = 1e-3  # s between plan samples
_SNAP_BAND = 1e-3  # m of chamfer beyond the clearance that funnels the peg in
_SETTLE_TIME = 0.5  # s the last command is held after the plan ends
MAX_TRIALS = 10_000  # trials one batch may run: about 15 min at ~80 ms a trial


class Phase(Enum):
    AWAITING_BAR = "awaiting-bar"
    BAR_PLACED = "bar-placed"
    PEG_GRASPED = "peg-grasped"
    INSERTION_PLANNED = "insertion-planned"
    INSERTING = "inserting"
    AWAITING_HUMAN = "awaiting-human"
    DONE = "done"
    FAILED = "failed"


class EventKind(Enum):
    PEDAL_PRESS = "pedal_press"
    VISION_READY = "vision_ready"
    MOTION_DONE = "motion_done"
    ABORT = "abort"


@dataclass(frozen=True)
class TaskState:
    """Current phase; ``reason`` is set exactly when the phase is FAILED."""

    phase: Phase = Phase.AWAITING_BAR
    reason: str | None = None

    def __post_init__(self) -> None:
        if (self.phase is Phase.FAILED) != (self.reason is not None):
            raise ValueError("reason must be given iff the phase is FAILED")


@dataclass(frozen=True)
class StepEvent:
    """One confirmation signal with its wall-clock time."""

    kind: EventKind
    t: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.t) or self.t < 0.0:
            raise ValueError("event time must be finite and nonnegative")


_TABLE = {
    (Phase.AWAITING_BAR, EventKind.PEDAL_PRESS): Phase.BAR_PLACED,
    (Phase.BAR_PLACED, EventKind.MOTION_DONE): Phase.PEG_GRASPED,
    (Phase.PEG_GRASPED, EventKind.VISION_READY): Phase.INSERTION_PLANNED,
    (Phase.INSERTION_PLANNED, EventKind.PEDAL_PRESS): Phase.INSERTING,
    (Phase.INSERTING, EventKind.MOTION_DONE): Phase.AWAITING_HUMAN,
    (Phase.AWAITING_HUMAN, EventKind.PEDAL_PRESS): Phase.DONE,
}


def advance(state: TaskState, event: StepEvent) -> TaskState:
    """One transition, defined for every state/event pair.

    FAILED absorbs everything; an off-graph event fails the task with a
    reason naming the event and the phase, never a silent drop.
    """
    if state.phase is Phase.FAILED:
        return state
    if event.kind is EventKind.ABORT:
        return TaskState(Phase.FAILED, "aborted")
    nxt = _TABLE.get((state.phase, event.kind))
    if nxt is None:
        return TaskState(
            Phase.FAILED,
            f"unexpected event {event.kind.value} in {state.phase.value}",
        )
    return TaskState(nxt)


def nominal_events() -> tuple[StepEvent, ...]:
    """The six-signal happy path that drives a fresh task to DONE, one
    second apart."""
    kinds = (
        EventKind.PEDAL_PRESS,
        EventKind.MOTION_DONE,
        EventKind.VISION_READY,
        EventKind.PEDAL_PRESS,
        EventKind.MOTION_DONE,
        EventKind.PEDAL_PRESS,
    )
    return tuple(StepEvent(k, float(i)) for i, k in enumerate(kinds))


_KINDS = {k.value: k for k in EventKind}


def _check_monotone(events: Sequence[StepEvent], where: str) -> None:
    for prev, cur in zip(events, events[1:]):
        if cur.t < prev.t:
            raise ValueError(
                f"{where}: event times must be non-decreasing; "
                f"got {cur.t:.6g} after {prev.t:.6g}"
            )


def parse_events(text: str, path: str = "<events>") -> tuple[StepEvent, ...]:
    """Parse an event script: one ``time kind`` pair per line, ``#`` comments
    and blank lines skipped."""
    events: list[StepEvent] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(path, lineno, "event", f"expected 'time kind', got {len(parts)} fields")
        try:
            t = float(parts[0])
        except ValueError:
            raise ParseError(path, lineno, "time", f"not a number: {parts[0]!r}") from None
        kind = _KINDS.get(parts[1])
        if kind is None:
            raise ParseError(
                path, lineno, "kind", f"unknown kind {parts[1]!r}; expected one of {sorted(_KINDS)}"
            )
        try:
            events.append(StepEvent(kind, t))
        except ValueError as exc:
            raise ParseError(path, lineno, "time", str(exc)) from None
    _check_monotone(events, path)
    return tuple(events)


def insertion_goal(hole: HoleEstimate, depth: float, reference: tuple[float, float, float, float]) -> Pose:
    """Goal pose for a square insertion: ``depth`` below the hole center
    along the axis, tool axis exactly anti-parallel to the hole axis, and
    the attitude otherwise moved as little as possible from ``reference``."""
    if depth <= 0:
        raise ValueError("depth must be positive")
    axis = np.asarray(hole.axis, dtype=float)
    position = np.asarray(hole.center, dtype=float) - depth * axis
    pointing = quat_rotate_wxyz(reference, _TOOL_AXIS)
    align = rotation_between(pointing, -axis)
    return Pose(position, quat_mul_wxyz(align, reference))


class PlanningFailed(RuntimeError):
    """The insertion move cannot be planned for the fitted hole."""


def plan_insertion(
    current: Pose,
    hole: HoleEstimate,
    dmp: PoseDmp,
    standoff: float = 0.030,
    depth: float = 0.012,
) -> Trajectory:
    """The command trajectory of the approach-and-insert move for one
    fitted hole: primitive replay out to the standoff pose, then a
    constant-speed straight descent along the hole axis to the goal.

    The replayed primitive carries the demonstrated style from ``current``
    out to the standoff point above the hole; the last segment is a straight
    line along the axis so the peg enters square.  ``standoff`` and ``depth``
    are measured along the axis from the hole center, above and below; the
    goal is :func:`insertion_goal` at ``depth``.
    """
    if standoff <= 0:
        raise ValueError("standoff must be positive")
    goal = insertion_goal(hole, depth, dmp.demo_goal.orientation)
    axis = np.asarray(hole.axis, dtype=float)
    standoff_pose = Pose(np.asarray(hole.center, dtype=float) + standoff * axis, goal.orientation)

    approach = rollout(dmp, start=current, goal=standoff_pose, dt=_PLAN_DT)
    miss = float(np.linalg.norm(approach.positions[-1] - standoff_pose.position))
    if miss > _CONVERGENCE_TOL:
        raise PlanningFailed(f"approach endpoint missed the standoff pose by {miss:.3g} m")

    n = max(2, int(math.ceil((standoff + depth) / (_DESCENT_SPEED * _PLAN_DT))))
    times = approach.times[-1] + np.arange(1, n + 1) * _PLAN_DT
    u = (np.arange(1, n + 1) / n)[:, None]
    positions = standoff_pose.position + u * (goal.position - standoff_pose.position)
    positions[-1] = goal.position
    orientations = np.tile(goal.orientation, (n, 1))

    return Trajectory(
        np.concatenate([approach.times, times]),
        np.vstack([approach.positions, positions]),
        np.vstack([approach.orientations, orientations]),
    )


@dataclass(frozen=True)
class AssemblyScenario:
    """Everything one trial needs; ``hole_id`` and ``yaw`` left as None are
    drawn from the trial seed (uniform detectable hole, uniform yaw)."""

    scene: BarScene
    cam: CameraModel
    dmp: PoseDmp
    initial_pose: Pose
    hole_id: int | None = None
    yaw: float | None = None
    yaw_range: tuple[float, float] = (-math.pi / 3.0, math.pi / 3.0)
    clearance: float = 5e-4
    tilt_tol: float = math.radians(2.0)
    required_depth: float = 0.010
    standoff: float = 0.030
    plan_overtravel: float = 2e-3
    noise_sigma: float = 0.0
    dropout: float = 0.0
    mask_points: int = 600
    seed: int = 0

    def __post_init__(self) -> None:
        if self.seed < 0:  # numpy seeds only nonnegative integers
            raise ValueError(f"seed must be at least 0, got {_brief_repr(self.seed)}")
        if self.mask_points < 3:
            raise ValueError("mask_points must be at least 3")
        _check_corruption(self.noise_sigma, self.dropout)
        if self.clearance <= 0 or self.tilt_tol <= 0 or self.required_depth <= 0:
            raise ValueError("clearance, tilt_tol, and required_depth must be positive")
        if self.standoff <= 0 or self.plan_overtravel < 0:
            raise ValueError("standoff must be positive and plan_overtravel nonnegative")
        if self.hole_id is not None and not 0 <= self.hole_id < len(self.scene.holes):
            raise ValueError(f"hole_id {_brief_repr(self.hole_id)} outside 0..{len(self.scene.holes) - 1}")
        lo, hi = self.yaw_range
        if not lo <= hi:
            raise ValueError("yaw_range must be ordered")


def meets_tolerances(lateral: float, tilt: float, depth: float, scenario: AssemblyScenario) -> bool:
    """Success is exactly these three inequalities over the logged errors;
    a trial that never inserted carries nan and compares False."""
    return bool(
        lateral <= scenario.clearance
        and tilt <= scenario.tilt_tol
        and depth >= scenario.required_depth
    )


@dataclass(frozen=True)
class TrialResult:
    success: bool
    lateral_err_m: float
    tilt_rad: float
    depth_m: float
    hole_id: int | None
    yaw: float
    seed: int
    state: TaskState
    events: tuple[StepEvent, ...]
    duration_s: float
    jerk: dict | None  # jerk_metrics of the executed motion


def _detectable(scene: BarScene, cam: CameraModel, hole_id: int) -> bool:
    try:
        check_visible(scene, cam, hole_id)
    except NotDetectable:
        return False
    return True


def _contact_project(
    p: np.ndarray,
    center: np.ndarray,
    axis: np.ndarray,
    bar_inv: Pose,
    half_dims: np.ndarray,
    clearance: float,
) -> np.ndarray:
    """Chamfer-style contact with the true bar.

    Above the top face (or off the bar footprint) motion is free; inside the
    hole the wall caps the lateral offset; within the chamfer band the peg
    funnels in; farther out the face blocks descent.  Attitude is untouched:
    the peg is short enough that wall torque is negligible at these tilts.
    """
    rel = p - center
    h = float(rel @ axis)
    if h >= 0.0:
        return p
    local = bar_inv.transform_point(p)
    if abs(local[0]) > half_dims[0] or abs(local[1]) > half_dims[1]:
        return p
    lat = rel - h * axis
    r = float(np.linalg.norm(lat))
    if r <= clearance:
        return p
    if r <= clearance + _SNAP_BAND:
        # land a hair inside the wall so the boundary comparison stays robust
        return center + h * axis + lat * (clearance * (1.0 - 1e-9) / r)
    return p - h * axis


def _run_plan(cmd: Trajectory, scenario: AssemblyScenario, scene: BarScene, hole_id: int) -> Trajectory:
    """Track the plan on the lagged plant, contact-projected against the
    true hole each step, then hold the last command until the lag dies.

    Plant states are float tuples ``(px, py, pz, qw, qx, qy, qz)``; the
    numpy contact model runs only on ticks not clearly above the top face."""
    center = scene.hole_center_world(hole_id)
    axis = scene.hole_axis_world(hole_id)
    bar_inv = scene.bar.inverse()
    half_dims = np.asarray(scene.dims, dtype=float) / 2.0
    cx, cy, cz = center.tolist()
    ax, ay, az = axis.tolist()
    n_cmd = len(cmd)
    dts = np.diff(cmd.times)
    n_hold = int(round(_SETTLE_TIME / dts[-1]))
    times = np.concatenate([cmd.times, cmd.times[-1] + np.arange(1, n_hold + 1) * dts[-1]])
    dts = np.concatenate([dts, np.full(n_hold, dts[-1])])

    cmd_rows = array("d", np.hstack([cmd.positions, cmd.orientations]).tobytes())
    rows = cmd_rows[:7]  # row 0 is the raw command row
    x_r = x_c = (*rows[:3], *quat_normalize(*rows[3:]))
    for i, dt in enumerate(dts.tolist(), start=1):
        if i < n_cmd:
            px, py, pz, qw, qx, qy, qz = cmd_rows[7 * i : 7 * i + 7]
            x_c = (px, py, pz, *quat_normalize(qw, qx, qy, qz))
        x_r = plant_step(x_r, x_c, dt)
        # free motion when clearly above the top face; the margin dwarfs the
        # rounding by which _contact_project's numpy dot may differ
        if (x_r[0] - cx) * ax + (x_r[1] - cy) * ay + (x_r[2] - cz) * az <= 1e-9:
            p = np.array(x_r[:3])
            proj = _contact_project(p, center, axis, bar_inv, half_dims, scenario.clearance)
            if proj is not p:
                x_r = (*proj.tolist(), *x_r[3:])
        rows.extend(x_r)

    del cmd_rows  # freed before Trajectory copies the rows, to keep the peak memory down
    table = np.frombuffer(rows, dtype=float).reshape(-1, 7)
    return Trajectory(times, table[:, :3], table[:, 3:])


def _score(executed: Trajectory, scene: BarScene, hole_id: int) -> tuple[float, float, float]:
    """Lateral offset from the true hole axis, tool tilt from square, and
    depth below the top face, all at the final executed sample."""
    center = scene.hole_center_world(hole_id)
    axis = scene.hole_axis_world(hole_id)
    p = executed.positions[-1]
    q = quat_normalize(*executed.orientations[-1])
    rel = p - center
    h = float(rel @ axis)
    lateral = float(np.linalg.norm(rel - h * axis))
    pointing = quat_rotate_wxyz(q, _TOOL_AXIS)
    tilt = math.acos(float(np.clip(-(pointing @ axis), -1.0, 1.0)))
    return lateral, tilt, -h


def _resolve(scenario: AssemblyScenario) -> tuple[float, BarScene, int | None, int]:
    """The seeded choices, drawn from one generator in a fixed order: the
    yaw, the hole (None when no hole is visible), then the vision seed."""
    rng = np.random.default_rng(scenario.seed)
    yaw = scenario.yaw if scenario.yaw is not None else float(rng.uniform(*scenario.yaw_range))
    scene = scenario.scene.yawed(yaw)
    hole_id = scenario.hole_id
    if hole_id is None:
        candidates = [i for i in range(len(scene.holes)) if _detectable(scene, scenario.cam, i)]
        if candidates:
            hole_id = int(rng.choice(np.asarray(candidates)))
    return yaw, scene, hole_id, int(rng.integers(0, 2**31 - 1))


def _localize(scenario: AssemblyScenario, scene: BarScene, hole_id: int | None, seed: int) -> HoleEstimate:
    """The world-frame fit of the chosen hole's seeded mask."""
    if hole_id is None:
        raise NotDetectable("no hole is visible from the camera")
    # denser than the oracle default: the tilt of the fitted plane is the
    # noise floor of the whole trial, and the rim annulus of a real mask
    # yields several hundred pixels
    mask = synthesize_mask(
        scene, scenario.cam, hole_id,
        scenario.noise_sigma, scenario.dropout, seed=seed,
        n_points=scenario.mask_points,
    )
    return hole_in_world(fit_circle3d(mask), scenario.cam)


def execute_trial(
    scenario: AssemblyScenario, events: Sequence[StepEvent] | None = None
) -> TrialResult:
    """Run one trial: walk the state machine over the whole event stream,
    then resolve the seeded choices, localize, plan, execute and score.

    Localize and plan run when the walk entered INSERTION_PLANNED; either
    one's failure ends the trial FAILED with its reason, which wins over
    any later event. The plan executes only when no stage failed, the walk
    entered INSERTING and did not end FAILED; otherwise the errors stay nan.
    """
    evs = nominal_events() if events is None else tuple(events)
    _check_monotone(evs, "events")
    state = TaskState()
    entered: set[Phase] = set()
    for ev in evs:
        state = advance(state, ev)
        entered.add(state.phase)

    yaw, scene, hole_id, vision_seed = _resolve(scenario)
    if Phase.INSERTION_PLANNED in entered:
        try:
            hole = _localize(scenario, scene, hole_id, vision_seed)
        except (NotDetectable, ValueError) as exc:
            state = TaskState(Phase.FAILED, f"hole not detectable: {exc}")
        else:
            try:
                plan = plan_insertion(
                    scenario.initial_pose, hole, scenario.dmp,
                    standoff=scenario.standoff,
                    depth=scenario.required_depth + scenario.plan_overtravel,
                )
            except (PlanningFailed, RolloutDiverged) as exc:
                state = TaskState(Phase.FAILED, str(exc))

    lateral = tilt = depth = math.nan
    duration = 0.0
    jerk: dict | None = None
    # INSERTING is entered only through INSERTION_PLANNED, so a walk that
    # got there with no stage failure holds a plan
    if Phase.INSERTING in entered and state.phase is not Phase.FAILED:
        executed = _run_plan(plan, scenario, scene, hole_id)
        lateral, tilt, depth = _score(executed, scene, hole_id)
        duration = executed.duration
        jerk = jerk_metrics(executed)

    return TrialResult(
        success=meets_tolerances(lateral, tilt, depth, scenario),
        lateral_err_m=lateral,
        tilt_rad=tilt,
        depth_m=depth,
        hole_id=hole_id,
        yaw=yaw,
        seed=scenario.seed,
        state=state,
        events=evs,
        duration_s=duration,
        jerk=jerk,
    )


def run_batch(template: AssemblyScenario, n: int = 20, seed: int = 0) -> tuple[TrialResult, ...]:
    """Independent seeded reruns of one scenario template.

    Trial i runs with seed ``seed * 1000003 + i``, so any prefix of a batch
    reproduces on its own; the reduction is a plain ordered loop.
    """
    if not 1 <= n <= MAX_TRIALS:
        raise ValueError(f"n must lie in 1..{MAX_TRIALS}, got {_brief_repr(n)}")
    return tuple(execute_trial(replace(template, seed=seed * 1000003 + i)) for i in range(n))


def _num(x: float) -> float | None:
    return float(x) if math.isfinite(x) else None


def trial_to_dict(r: TrialResult) -> dict:
    return {
        "success": bool(r.success),
        "lateral_err_m": _num(r.lateral_err_m),
        "tilt_rad": _num(r.tilt_rad),
        "depth_m": _num(r.depth_m),
        "hole_id": r.hole_id,
        "yaw": float(r.yaw),
        "seed": r.seed,
        "phase": r.state.phase.value,
        "reason": r.state.reason,
        "duration_s": float(r.duration_s),
        "jerk": r.jerk,
        "events": [[e.t, e.kind.value] for e in r.events],
    }


def batch_to_dict(records: Sequence[TrialResult]) -> dict:
    """The batch document: trial count, success rate, failed trials counted
    per reason (sorted by reason), then every trial."""
    reasons = Counter(r.state.reason for r in records if r.state.phase is Phase.FAILED)
    return {
        "n": len(records),
        "success_rate": sum(r.success for r in records) / len(records),
        "failure_reasons": dict(sorted(reasons.items())),
        "trials": [trial_to_dict(r) for r in records],
    }


def batch_csv_text(records: Sequence[TrialResult]) -> str:
    """One row per trial: ``trial,seed,hole_id,success,lat_err_m,tilt_rad,depth_m``."""
    lines = ["trial,seed,hole_id,success,lat_err_m,tilt_rad,depth_m"]
    for i, r in enumerate(records):
        hole = "" if r.hole_id is None else str(r.hole_id)
        lines.append(
            f"{i},{r.seed},{hole},{int(r.success)},"
            f"{fmt_float(r.lateral_err_m)},{fmt_float(r.tilt_rad)},{fmt_float(r.depth_m)}"
        )
    return "\n".join(lines) + "\n"
