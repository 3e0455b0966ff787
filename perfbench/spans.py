"""In-memory spans for the traced benchmark run.

The traced run wraps public lfdkit names at the module attribute each caller
looks them up through (``assembly.execute_trial`` calls ``plant_step`` through
``lfdkit.assembly.plant_step``, a teach run through ``lfdkit.ktc.plant_step``),
so no file under ``src/`` changes. Each wrapper records one span (name, start,
end, parent, op id) and, through a per-site hook, the counts that only the
call's arguments, result or exception show. Spans stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict

SETUP = -1  # op id of spans recorded while the workload is being set up


class Tracer:
    """Span stack plus counters, keyed by phase ("setup" or "op")."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.op_id = SETUP
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @property
    def phase(self) -> str:
        return "setup" if self.op_id == SETUP else "op"

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[(self.phase, name)] += value

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.op_id))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        name, start, _, parent, op_id = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter(), parent, op_id)
        self._stack.pop()

    def wrap(self, name: str, fn, hook=None):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.count(f"{name}.raised.{type(exc).__name__}")
                raise
            finally:
                tracer.close(idx)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, sites) -> None:
        """Replace every (span name, module, attribute path, hook) site.

        A site whose attribute is missing stops the run: a renamed function
        must update this table, never silently report zero.
        """
        for name, module_name, attr_path, hook in sites:
            owner = importlib.import_module(module_name)
            *outer, attr = attr_path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            if owner is None or not hasattr(owner, attr):
                raise SystemExit(
                    f"perfbench: {module_name}.{attr_path} is missing; "
                    f"update the trace sites for span {name!r}"
                )
            original = getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, hook))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its direct children cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps([name, start, end, parent, op_id]) + "\n")


# ---------------------------------------------------------------------------
# per-site hooks: counts that the call's arguments or result carry


def _trial_result(tracer, args, kwargs, result):
    if not result.success:
        tracer.count("assembly.execute_trial.failed")


def _plant_steps(tracer, args, kwargs, result):
    # execute_trial hands the executed plant trajectory to jerk_metrics
    tracer.count("assembly.plant_steps", len(args[0]) - 1)


def _teach_steps(tracer, args, kwargs, result):
    tracer.count("ktc.teach_steps", len(result) - 1)


def _rollout_steps(tracer, args, kwargs, result):
    tracer.count("dmp.rollout_steps", len(result) - 1)


def _mask_points(tracer, args, kwargs, result):
    tracer.count("vision.mask_points", len(result.points))


def _csv_bytes(tracer, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.count("trajectory.csv_bytes", os.path.getsize(path))


SITES = (
    ("assembly.execute_trial", "lfdkit.assembly", "execute_trial", _trial_result),
    ("assembly.plan_insertion", "lfdkit.assembly", "plan_insertion", None),
    ("ktc.plant_step", "lfdkit.assembly", "plant_step", None),
    ("ktc.plant_step", "lfdkit.ktc", "plant_step", None),
    ("ktc.simulate_demonstration", "lfdkit.ktc", "simulate_demonstration", _teach_steps),
    ("dmp.rollout", "lfdkit.dmp", "rollout", _rollout_steps),
    ("dmp.rollout", "lfdkit.assembly", "rollout", _rollout_steps),
    ("dmp.fit_pose_dmp", "lfdkit.dmp", "fit_pose_dmp", None),
    ("dmp.fit_pose_dmp", "lfdkit.presets", "fit_pose_dmp", None),
    ("presets.make_smooth_demo", "lfdkit.presets", "make_smooth_demo", None),
    ("vision.synthesize_mask", "lfdkit.vision", "synthesize_mask", _mask_points),
    ("vision.synthesize_mask", "lfdkit.assembly", "synthesize_mask", _mask_points),
    ("vision.fit_circle3d", "lfdkit.vision", "fit_circle3d", None),
    ("vision.fit_circle3d", "lfdkit.assembly", "fit_circle3d", None),
    ("metrics.jerk_metrics", "lfdkit.metrics", "jerk_metrics", None),
    ("metrics.jerk_metrics", "lfdkit.assembly", "jerk_metrics", _plant_steps),
    ("metrics.rotation_jerk_metrics", "lfdkit.metrics", "rotation_jerk_metrics", None),
    ("trajectory.save_csv", "lfdkit.trajectory", "Trajectory.save_csv", _csv_bytes),
    ("trajectory.load_trajectory_csv", "lfdkit.trajectory", "load_trajectory_csv", None),
    ("trajectory.resample_trajectory", "lfdkit.metrics", "resample_trajectory", None),
    ("trajectory.resample_trajectory", "lfdkit.dmp", "resample_trajectory", None),
)

# spans of these names run while the workload is set up, so their metrics
# are totals of one set-up rather than means per op
SETUP_SPANS = ("dmp.fit_pose_dmp", "presets.make_smooth_demo")

# (metric, span, stat); stat is "calls", "self_s" or "raised.<exception class>"
_SPAN_METRICS = (
    ("assembly.execute_trial.calls", "assembly.execute_trial", "calls"),
    ("assembly.execute_trial.self_s", "assembly.execute_trial", "self_s"),
    ("assembly.plan_insertion.calls", "assembly.plan_insertion", "calls"),
    ("assembly.plan_insertion.self_s", "assembly.plan_insertion", "self_s"),
    ("ktc.plant_step.calls", "ktc.plant_step", "calls"),
    ("ktc.plant_step.self_s", "ktc.plant_step", "self_s"),
    ("ktc.simulate_demonstration.calls", "ktc.simulate_demonstration", "calls"),
    ("ktc.simulate_demonstration.self_s", "ktc.simulate_demonstration", "self_s"),
    ("ktc.timeouts", "ktc.simulate_demonstration", "raised.TeachTimeout"),
    ("dmp.rollout.calls", "dmp.rollout", "calls"),
    ("dmp.rollout.self_s", "dmp.rollout", "self_s"),
    ("dmp.rollout.diverged", "dmp.rollout", "raised.RolloutDiverged"),
    ("dmp.fit_pose_dmp.calls", "dmp.fit_pose_dmp", "calls"),
    ("dmp.fit_pose_dmp.self_s", "dmp.fit_pose_dmp", "self_s"),
    ("presets.make_smooth_demo.self_s", "presets.make_smooth_demo", "self_s"),
    ("vision.synthesize_mask.calls", "vision.synthesize_mask", "calls"),
    ("vision.synthesize_mask.self_s", "vision.synthesize_mask", "self_s"),
    ("vision.synthesize_mask.not_detectable", "vision.synthesize_mask", "raised.NotDetectable"),
    ("vision.fit_circle3d.calls", "vision.fit_circle3d", "calls"),
    ("vision.fit_circle3d.self_s", "vision.fit_circle3d", "self_s"),
    ("vision.fit_circle3d.rejected", "vision.fit_circle3d", "raised.ValueError"),
    ("metrics.jerk_metrics.calls", "metrics.jerk_metrics", "calls"),
    ("metrics.jerk_metrics.self_s", "metrics.jerk_metrics", "self_s"),
    ("metrics.rotation_jerk_metrics.calls", "metrics.rotation_jerk_metrics", "calls"),
    ("metrics.rotation_jerk_metrics.self_s", "metrics.rotation_jerk_metrics", "self_s"),
    ("trajectory.save_csv.self_s", "trajectory.save_csv", "self_s"),
    ("trajectory.load_trajectory_csv.self_s", "trajectory.load_trajectory_csv", "self_s"),
    ("trajectory.resample_trajectory.calls", "trajectory.resample_trajectory", "calls"),
    ("trajectory.resample_trajectory.self_s", "trajectory.resample_trajectory", "self_s"),
    ("op.self_s", "op", "self_s"),
)

_COUNTERS = (
    "assembly.execute_trial.failed",
    "assembly.plant_steps",
    "ktc.teach_steps",
    "dmp.rollout_steps",
    "vision.mask_points",
    "trajectory.csv_bytes",
)


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as {name: (value, unit)}; op-phase figures are
    means per traced op, set-up figures totals of the one set-up."""
    calls: dict[tuple[str, str], int] = defaultdict(int)
    self_s: dict[tuple[str, str], float] = defaultdict(float)
    under_trial = 0.0  # plant_step self time inside execute_trial
    selfs = tracer.self_times()
    for (name, _, _, parent, op_id), own in zip(tracer.spans, selfs):
        phase = "setup" if op_id == SETUP else "op"
        calls[(phase, name)] += 1
        self_s[(phase, name)] += own
        if name == "ktc.plant_step" and parent >= 0 and tracer.spans[parent][0] == "assembly.execute_trial":
            under_trial += own

    out: dict[str, tuple[float, str]] = {}
    for metric, span, stat in _SPAN_METRICS:
        if span in SETUP_SPANS:
            phase, per, suffix = "setup", 1, ""
        else:
            phase, per, suffix = "op", n_ops, "/op"
        if stat == "calls":
            out[metric] = (calls[(phase, span)] / per, "count" + suffix)
        elif stat == "self_s":
            out[metric] = (self_s[(phase, span)] / per, "s" + suffix)
        else:
            out[metric] = (tracer.counts[(phase, f"{span}.{stat}")] / per, "count" + suffix)
    for name in _COUNTERS:
        unit = "B/op" if name == "trajectory.csv_bytes" else "count/op"
        out[name] = (tracer.counts[("op", name)] / n_ops, unit)

    steps = tracer.counts[("op", "assembly.plant_steps")]
    trial_self = self_s[("op", "assembly.execute_trial")] + under_trial
    out["assembly.us_per_plant_step"] = (1e6 * trial_self / steps if steps else 0.0, "us")
    steps = tracer.counts[("op", "dmp.rollout_steps")]
    out["dmp.us_per_rollout_step"] = (1e6 * self_s[("op", "dmp.rollout")] / steps if steps else 0.0, "us")
    masks = calls[("op", "vision.synthesize_mask")] - tracer.counts[("op", "vision.synthesize_mask.raised.NotDetectable")]
    out["vision.useful_ratio"] = (calls[("op", "vision.fit_circle3d")] / masks if masks else 0.0, "ratio")
    op_time = sum(end - start for name, start, end, _, _ in tracer.spans if name == "op")
    covered = op_time - self_s[("op", "op")]
    out["trace.span_coverage"] = (covered / op_time if op_time else 0.0, "ratio")
    return out
