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
from collections import Counter
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .dmp import PoseDmp, RolloutDiverged, _replay, linear_scan, rollout_steps
from .ktc import plant_lag
from .metrics import _position_jerk
from .se3 import Pose, quat_mul_wxyz, quat_normalize, quat_rotate_wxyz, rotation_between, unchart_rows
from .trajectory import MAX_ROWS, ParseError, Trajectory, _at_least, _check_seed, _finite_fields, _positive, fmt_float
from .vision import BarScene, CameraModel, HoleEstimate, NotDetectable, _check_corruption, _check_hole_id
from .vision import _check_mask_points, check_visible, locate_hole
# not called here, but perfbench/spans.py wraps these by their names in this module
from .dmp import rollout
from .ktc import plant_step
from .metrics import jerk_metrics
from .vision import fit_circle3d, synthesize_mask

__all__ = [
    "MAX_TRIALS",
    "Phase",
    "EventKind",
    "TaskState",
    "StepEvent",
    "TrialSection",
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
_PLAN_DT = 1e-3  # s between plan samples: row k of a plan and of its execution is at k * _PLAN_DT
_PLAN_LAG = plant_lag(_PLAN_DT)  # the plant's lag over one plan tick
_SNAP_BAND = 1e-3  # m of chamfer beyond the clearance that funnels the peg in
_SETTLE_TICKS = 500  # plan ticks (0.5 s) the last command is held after the plan ends
MAX_TRIALS = 10_000  # trials one batch may run: 20-55 s at 2-5.5 ms a trial (0.5-6 mm vision noise, shared 2-vCPU host)


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
        _at_least("event time", self.t, 0)


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
    """The happy path that drives a fresh task to DONE: the events of
    ``_TABLE`` in its order, one second apart."""
    return tuple(StepEvent(kind, float(i)) for i, (_, kind) in enumerate(_TABLE))


_NOMINAL = nominal_events()  # the stream of a scenario whose events are None

_KINDS = {k.value: k for k in EventKind}


def _check_monotone(events: Sequence[StepEvent]) -> None:
    for prev, cur in zip(events, events[1:]):
        if cur.t < prev.t:
            raise ValueError(f"event times must be non-decreasing; got {cur.t:.6g} after {prev.t:.6g}")


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
            _check_monotone(events[-2:])
        except ValueError as exc:
            raise ParseError(path, lineno, "time", str(exc)) from None
    return tuple(events)


def insertion_goal(hole: HoleEstimate, depth: float, reference: tuple[float, float, float, float]) -> Pose:
    """Goal pose for a square insertion: ``depth`` below the hole center
    along the axis, tool axis exactly anti-parallel to the hole axis, and
    the attitude otherwise moved as little as possible from ``reference``."""
    _positive("depth", depth)
    axis = np.asarray(hole.axis, dtype=float)
    position = np.asarray(hole.center, dtype=float) - depth * axis
    pointing = quat_rotate_wxyz(reference, _TOOL_AXIS)
    align = rotation_between(pointing, -axis)
    return Pose(position, quat_mul_wxyz(align, reference))


class PlanningFailed(RuntimeError):
    """The insertion move cannot be planned for the fitted hole."""


# a trial passes its plan along as the motion, one row per component, shape
# (6, n), row k at k * _PLAN_DT: the positions x, y, z, then the attitude in
# the goal's log chart e = log(q * conj(g)); and the chart's reference g as
# one (1, 4) row
PlanRows = tuple[np.ndarray, np.ndarray]


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
    rows, g = _plan(current, hole, dmp, standoff, depth)
    return Trajectory(np.arange(rows.shape[1]) * _PLAN_DT, rows[:3].T, unchart_rows(rows[3:].T, g))


def _plan(current: Pose, hole: HoleEstimate, dmp: PoseDmp, standoff: float, depth: float) -> PlanRows:
    """The rows of :func:`plan_insertion` before the map back, with its
    checks. The standoff and the goal share one attitude, so the replay's
    chart is the goal's, and the descent's attitude is 0 in it."""
    _positive("standoff", standoff)
    goal = insertion_goal(hole, depth, dmp.demo_goal.orientation)
    n = max(2, int(math.ceil(_descent_rows(standoff, depth))))
    axis = np.asarray(hole.axis, dtype=float)
    standoff_pose = Pose(np.asarray(hole.center, dtype=float) + standoff * axis, goal.orientation)

    replay, g = _replay(dmp, start=current, goal=standoff_pose, dt=_PLAN_DT)
    miss = float(np.linalg.norm(replay[:3, -1] - standoff_pose.position))
    if miss > _CONVERGENCE_TOL:
        raise PlanningFailed(f"approach endpoint missed the standoff pose by {miss:.3g} m")

    m = replay.shape[1]
    rows = np.empty((6, m + n))
    rows[:, :m] = replay
    descent = rows[:3, m:]
    np.multiply(np.arange(1, n + 1) / n, (goal.position - standoff_pose.position)[:, None], out=descent)
    descent += standoff_pose.position[:, None]
    descent[:, -1] = goal.position
    rows[3:, m:] = 0.0
    return rows, g


def _descent_rows(standoff: float, depth: float) -> float:
    """The descent's plan rows before rounding up, refused past MAX_ROWS in
    float arithmetic, before anything is allocated."""
    rows = (standoff + depth) / (_DESCENT_SPEED * _PLAN_DT)
    if not rows <= MAX_ROWS:
        raise ValueError(f"a descent of standoff {standoff:.6g} + depth {depth:.6g} m needs {rows:.10g} plan rows, "
                         f"more than the cap of {MAX_ROWS}")
    return rows


@dataclass(frozen=True)
class TrialSection:
    """A trial's settings, the config's ``trial`` section: angles in degrees,
    lengths in m. ``hole_id`` and ``yaw_deg`` left as None are drawn from the
    trial seed (uniform detectable hole, yaw uniform within ``yaw_limit_deg``
    of 0). ``n`` is the batch size, ``events`` the path of an event script
    (the scenario carries the parsed stream), and the trial's primitive is
    fit from a ``demo_duration`` s demonstration."""

    n: int = 20
    hole_id: int | None = None
    yaw_deg: float | None = None
    yaw_limit_deg: float = 60.0
    clearance: float = 5e-4
    tilt_tol_deg: float = 2.0
    required_depth: float = 0.010
    standoff: float = 0.030
    plan_overtravel: float = 0.002
    noise_sigma: float = 5e-4
    dropout: float = 0.0
    mask_points: int = 600
    demo_duration: float = 4.0
    events: str | None = None

    def __post_init__(self) -> None:
        _at_least("n", self.n, 1, MAX_TRIALS)
        _check_mask_points(self.mask_points, name="mask_points")
        _positive("demo_duration", self.demo_duration)
        for name in ("clearance", "tilt_tol_deg", "required_depth", "standoff"):
            _positive(name, getattr(self, name))
        _at_least("plan_overtravel", self.plan_overtravel, 0)
        _descent_rows(self.standoff, self.required_depth + self.plan_overtravel)
        if not math.radians(self.tilt_tol_deg) > 0:  # the tilt is compared in radians, where 5e-324 degrees is 0
            raise ValueError(f"tilt_tol_deg must be positive in radians, got {self.tilt_tol_deg!r}")
        _at_least("yaw_limit_deg", self.yaw_limit_deg, 0)
        _check_corruption(self.noise_sigma, self.dropout)
        _finite_fields(self)
        try:  # the plan replays the primitive, whose tau is the demo's duration
            rollout_steps(self.demo_duration, _PLAN_DT)
        except ValueError as exc:
            raise ValueError(f"demo_duration is the plan rollout's tau: {exc}") from None


@dataclass(frozen=True)
class AssemblyScenario:
    """Everything one trial needs: the true scene and camera, the fitted
    primitive, the arm's start pose, the trial's settings, its seed, and the
    operator's event stream, which the trial walks (the nominal stream when
    None)."""

    scene: BarScene
    cam: CameraModel
    dmp: PoseDmp
    initial_pose: Pose
    trial: TrialSection = field(default_factory=TrialSection)
    seed: int = 0
    events: tuple[StepEvent, ...] | None = None

    def __post_init__(self) -> None:
        _check_seed(self.seed)
        if self.trial.hole_id is not None:
            _check_hole_id(self.scene, self.trial.hole_id)
        if self.events is not None:
            object.__setattr__(self, "events", tuple(self.events))
            _check_monotone(self.events)


def meets_tolerances(lateral: float, tilt: float, depth: float, scenario: AssemblyScenario) -> bool:
    """Success is exactly these three inequalities over the logged errors;
    a trial that never inserted carries nan and compares False."""
    t = scenario.trial
    return bool(
        lateral <= t.clearance
        and tilt <= math.radians(t.tilt_tol_deg)
        and depth >= t.required_depth
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


def _contact_model(scene: BarScene, hole_id: int, clearance: float) -> tuple[float, ...]:
    """The floats :func:`_contact_project` reads, in the world frame: the
    hole center and axis, the bar origin, the bar's x and y axes and its half
    extents along them, then the clearance."""
    return (
        *scene.hole_center_world(hole_id).tolist(),
        *scene.hole_axis_world(hole_id).tolist(),
        *scene.bar.position.tolist(),
        *scene.bar.transform_direction((1.0, 0.0, 0.0)).tolist(),
        *scene.bar.transform_direction((0.0, 1.0, 0.0)).tolist(),
        float(scene.dims[0]) / 2.0,
        float(scene.dims[1]) / 2.0,
        float(clearance),
    )


def _contact_project(p: tuple[float, float, float], model: tuple[float, ...]) -> tuple[float, float, float]:
    """Chamfer-style contact with the true bar, for the position ``p`` and a
    :func:`_contact_model`; ``p`` itself when motion is free.

    Above the top face (or off the bar footprint) motion is free; inside the
    hole the wall caps the lateral offset; within the chamfer band the peg
    funnels in; farther out the face blocks descent.  Attitude is untouched:
    the peg is short enough that wall torque is negligible at these tilts.
    """
    cx, cy, cz, ax, ay, az, ox, oy, oz, ux, uy, uz, vx, vy, vz, half_x, half_y, clearance = model
    px, py, pz = p
    rx, ry, rz = px - cx, py - cy, pz - cz
    h = rx * ax + ry * ay + rz * az
    if h >= 0.0:
        return p
    bx, by, bz = px - ox, py - oy, pz - oz
    if abs(bx * ux + by * uy + bz * uz) > half_x or abs(bx * vx + by * vy + bz * vz) > half_y:
        return p
    lx, ly, lz = rx - h * ax, ry - h * ay, rz - h * az
    r = math.sqrt(lx * lx + ly * ly + lz * lz)
    if r <= clearance:
        return p
    if r <= clearance + _SNAP_BAND:
        # land a hair inside the wall so the boundary comparison stays robust
        s = clearance * (1.0 - 1e-9) / r
        return cx + h * ax + lx * s, cy + h * ay + ly * s, cz + h * az + lz * s
    return px - h * ax, py - h * ay, pz - h * az


def _first_binding_tick(lag: np.ndarray, model: tuple[float, ...]) -> int | None:
    """The first tick after the start whose scanned position the contact
    rule of :func:`_contact_project` may move, or None when none can.

    A tick binds when it is at or below the top face, on the bar footprint
    and outside the clearance, each test widened by 1e-9 m. The margins
    dwarf the scan's rounding, so they only ever move the answer earlier:
    no contact is missed, and a false alarm costs a few scalar ticks. Only
    the rows from the first tick at or below the face are tested.
    """
    cx, cy, cz, ax, ay, az, ox, oy, oz, ux, uy, uz, vx, vy, vz, half_x, half_y, clearance = model
    height = (lag[0] - cx) * ax + (lag[1] - cy) * ay + (lag[2] - cz) * az
    below = np.flatnonzero(height[1:] <= 1e-9)
    if not len(below):
        return None
    k0 = int(below[0]) + 1
    px, py, pz, h = lag[0, k0:], lag[1, k0:], lag[2, k0:], height[k0:]
    bx, by, bz = px - ox, py - oy, pz - oz
    lx, ly, lz = px - cx - h * ax, py - cy - h * ay, pz - cz - h * az
    binds = (
        (h <= 1e-9)
        & (np.abs(bx * ux + by * uy + bz * uz) <= half_x + 1e-9)
        & (np.abs(bx * vx + by * vy + bz * vz) <= half_y + 1e-9)
        & (np.sqrt(lx * lx + ly * ly + lz * lz) > clearance - 1e-9)
    )
    hits = np.flatnonzero(binds)
    return k0 + int(hits[0]) if len(hits) else None


def _run_plan(plan: PlanRows, scenario: AssemblyScenario, scene: BarScene, hole_id: int) -> np.ndarray:
    """Track the plan on the lagged plant, contact-projected against the
    true hole each tick, then hold the last command for ``_SETTLE_TICKS``
    ticks while the lag dies. Returns the executed motion in the plan's
    layout and clock: one row per component, the positions, then the
    attitudes in the plan's chart, row k at k * _PLAN_DT.

    The plant is the robot's first-order lag. Each tick, the position
    closes the gap to the command by a = 1 - exp(lam), both from
    ``ktc.plant_lag(_PLAN_DT)``, and so does the attitude in the plan's log chart
    e = log(q * conj(g)), the chart ``dmp.rollout`` replays in:
    e_r[k] = (1 - a) e_r[k-1] + a e_c[k]. Free motion of all six axes is
    then one linear scan over every tick. Contact never moves the attitude,
    so its scan is final. The scanned position holds up to the first tick
    where contact binds (:func:`_first_binding_tick`); from there, starting
    at the scanned state of the tick before it, a float loop lags the
    position by the same a and applies :func:`_contact_project`. A peg that
    enters within the clearance never binds, and its positions are the
    scan's.
    """
    cmd, _ = plan
    n_cmd = cmd.shape[1]
    n = n_cmd + _SETTLE_TICKS

    # column k holds tick k's command (position, attitude error), the last one
    # held through the settle; the scan overwrites it with the reached state
    lag = np.empty((6, n))
    lag[:, :n_cmd] = cmd
    lag[:, n_cmd:] = cmd[:, -1:]
    lam, a = _PLAN_LAG
    lag[:, 1:] *= a
    linear_scan(lag[:, 1:], lam, lag[:, 0])

    model = _contact_model(scene, hole_id, scenario.trial.clearance)
    k0 = _first_binding_tick(lag, model)
    if k0 is not None:
        commands = [*zip(*cmd[:3, k0:].tolist())] + [tuple(cmd[:3, -1].tolist())] * (n - max(k0, n_cmd))
        px, py, pz = lag[:3, k0 - 1].tolist()
        reached = []
        for cx, cy, cz in commands:
            px, py, pz = _contact_project((px + a * (cx - px), py + a * (cy - py), pz + a * (cz - pz)), model)
            reached.append((px, py, pz))
        lag[:3, k0:].T[:] = reached
    return lag


def _score(p: np.ndarray, q: np.ndarray, scene: BarScene, hole_id: int) -> tuple[float, float, float]:
    """Lateral offset from the true hole axis, tool tilt from square, and
    depth below the top face, all at the final executed position ``p`` and
    attitude ``q``."""
    center = scene.hole_center_world(hole_id)
    axis = scene.hole_axis_world(hole_id)
    q = quat_normalize(*q.tolist())
    rel = p - center
    h = float(rel @ axis)
    lateral = float(np.linalg.norm(rel - h * axis))
    pointing = quat_rotate_wxyz(q, _TOOL_AXIS)
    tilt = math.acos(float(np.clip(-(pointing @ axis), -1.0, 1.0)))
    return lateral, tilt, -h


def _resolve(scenario: AssemblyScenario) -> tuple[float, BarScene, int | None, int]:
    """The seeded choices, drawn from one generator in a fixed order: the
    yaw, the hole (None when no hole is visible), then the vision seed."""
    t = scenario.trial
    rng = np.random.default_rng(scenario.seed)
    # abs: a limit of -0.0 passes the section's rule, and uniform(0.0, -0.0) raises
    limit = abs(math.radians(t.yaw_limit_deg))
    yaw = math.radians(t.yaw_deg) if t.yaw_deg is not None else float(rng.uniform(-limit, limit))
    scene = scenario.scene.yawed(yaw)
    hole_id = t.hole_id
    if hole_id is None:
        candidates = [i for i in range(len(scene.holes)) if _detectable(scene, scenario.cam, i)]
        if candidates:
            hole_id = int(rng.choice(np.asarray(candidates)))
    return yaw, scene, hole_id, int(rng.integers(0, 2**31 - 1))


def _localize(scenario: AssemblyScenario, scene: BarScene, hole_id: int | None, seed: int) -> HoleEstimate:
    """The world-frame fit of the chosen hole's seeded mask."""
    if hole_id is None:
        raise NotDetectable("no hole is visible from the camera")
    t = scenario.trial
    # denser than the oracle default: the tilt of the fitted plane is the
    # noise floor of the whole trial, and the rim annulus of a real mask
    # yields several hundred pixels
    return locate_hole(scene, scenario.cam, hole_id, t.noise_sigma, t.dropout, seed, t.mask_points)


def execute_trial(scenario: AssemblyScenario) -> TrialResult:
    """Run one trial: walk the state machine over the scenario's whole event
    stream, then resolve the seeded choices, localize, plan, execute and score.

    Localize and plan run when the walk entered INSERTION_PLANNED; either
    one's failure ends the trial FAILED with its reason, which wins over
    any later event. The plan executes only when no stage failed, the walk
    entered INSERTING and did not end FAILED; otherwise the errors stay nan.
    """
    evs = _NOMINAL if scenario.events is None else scenario.events
    state = TaskState()
    entered: set[Phase] = set()
    for ev in evs:
        state = advance(state, ev)
        entered.add(state.phase)

    yaw, scene, hole_id, vision_seed = _resolve(scenario)
    if Phase.INSERTION_PLANNED in entered:
        try:
            hole = _localize(scenario, scene, hole_id, vision_seed)
        except NotDetectable as exc:
            state = TaskState(Phase.FAILED, f"hole not detectable: {exc}")
        else:
            t = scenario.trial
            try:
                plan = _plan(scenario.initial_pose, hole, scenario.dmp, t.standoff,
                             t.required_depth + t.plan_overtravel)
            except (PlanningFailed, RolloutDiverged, ValueError) as exc:  # ValueError: a primitive the replay refuses
                state = TaskState(Phase.FAILED, str(exc))

    lateral = tilt = depth = math.nan
    duration = 0.0
    jerk: dict | None = None
    # INSERTING is entered only through INSERTION_PLANNED, so a walk that
    # got there with no stage failure holds a plan
    if Phase.INSERTING in entered and state.phase is not Phase.FAILED:
        # the motion stays in the plan's rows and chart; only its final attitude maps back
        lag = _run_plan(plan, scenario, scene, hole_id)
        lateral, tilt, depth = _score(lag[:3, -1], unchart_rows(lag[3:, -1][None], plan[1])[0], scene, hole_id)
        del plan  # not read again; freed here, its rows stay out of the jerk's memory peak
        times = np.arange(lag.shape[1]) * _PLAN_DT
        duration = float(times[-1])
        jerk = _position_jerk(times, lag[:3], keep_weights=True)  # every trial of a batch executes on one grid

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


def run_batch(template: AssemblyScenario) -> tuple[TrialResult, ...]:
    """``template.trial.n`` independent seeded reruns of one scenario
    template, each run by :func:`execute_trial`.

    Trial i runs with seed ``template.seed * 1000003 + i``, so any prefix of
    a batch reproduces on its own; the reduction is a plain ordered loop.
    """
    return tuple(execute_trial(replace(template, seed=template.seed * 1000003 + i)) for i in range(template.trial.n))


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
