"""The benchmark workloads, each a closed loop of one op at a time.

A workload is built from the workload seed alone. ``inputs(i)`` makes input
i (untimed), ``op(inp)`` is the timed call into lfdkit's public functions,
and ``check(inp, out)`` returns the output's digest plus a failure reason, or
None when the output is correct. The untimed run cycles through inputs
0..``pool``-1 in rounds; ``pool`` is sized so that a round takes several
seconds and a run holds several rounds. Every lfdkit function is looked up through
its module at call time, so the traced run's wrappers see the calls.

Why these four: ``batch`` is what users run and is ~90% plant loop;
``goal_shift`` is ``dmp.rollout`` alone (no plant, no vision), so a plant
change must leave it unchanged; ``teach_compare`` drives the plant at 100 Hz
through the admittance/human loop plus trajectory I/O and jerk metrics;
``detect_sweep`` is the only workload where vision is more than 1% of the op.

BENCHMARK.json gates ``batch`` and ``teach_compare`` only. Together they reach
every layer, and on a host whose speed swings within minutes only runs of
about a minute are steady, which the run budget allows for two workloads.
``goal_shift`` and ``detect_sweep`` stay runnable, to measure a rollout or
vision change where it is most of the op.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import replace


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _arrays_digest(traj) -> str:
    parts = [traj.times.tobytes(), traj.positions.tobytes(), traj.orientations.tobytes()]
    if traj.wrenches is not None:
        parts.append(traj.wrenches.tobytes())
    return _digest(*parts)


class Batch:
    """One ``execute_trial`` per op on the default scenario at 0.5 mm vision
    noise, trial i seeded ``seed * 1000003 + i`` as ``run_batch`` does."""

    unit = "trials"
    pool = 12

    def __init__(self, lf, seed: int, workdir: str) -> None:
        self.lf = lf
        self.scenario = lf.presets.default_scenario(noise_sigma=5e-4)
        self.base = seed * 1000003

    def inputs(self, i: int):
        return replace(self.scenario, seed=self.base + i)

    def op(self, scenario):
        return self.lf.assembly.execute_trial(scenario)

    def check(self, scenario, result):
        lf = self.lf
        digest = _digest(sorted(lf.assembly.trial_to_dict(result).items()))
        if not lf.assembly.meets_tolerances(result.lateral_err_m, result.tilt_rad, result.depth_m, scenario):
            return digest, f"trial seed {scenario.seed} unsuccessful: {result.state.phase.name} {result.state.reason}"
        return digest, None


class GoalShift:
    """One ``dmp.rollout`` per op of the 10 s preset demo's primitive toward a
    seeded random goal at most twice the demo amplitude away (gate a2)."""

    unit = "rollouts"
    pool = 48

    def __init__(self, lf, seed: int, workdir: str) -> None:
        self.lf = lf
        self.seed = seed
        wp, quats = lf.presets.demo_pose_waypoints(seed=0)
        demo = lf.presets.make_smooth_demo(wp, duration=10.0, orientations=quats)
        self.dmp = lf.dmp.fit_pose_dmp(demo)
        self.amplitude = float(lf.np.linalg.norm(lf.np.ptp(demo.positions, axis=0)))

    def inputs(self, i: int):
        np = self.lf.np
        rng = np.random.default_rng((self.seed, i))
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        shift = direction * 2.0 * self.amplitude * rng.uniform() ** (1 / 3)
        goal = self.dmp.demo_goal
        return self.lf.se3.Pose(goal.position + shift, goal.orientation)

    def op(self, goal):
        return self.lf.dmp.rollout(self.dmp, goal=goal)

    def check(self, goal, traj):
        miss = float(self.lf.np.linalg.norm(traj.positions[-1] - goal.position))
        if not miss <= 1e-3:
            return _arrays_digest(traj), f"rollout endpoint {miss:.3g} m from the goal"
        return _arrays_digest(traj), None


class TeachCompare:
    """One seed's paired teaching runs per op: proposed and native, each
    written with ``save_csv``, read back and scored for jerk, as the
    ``teach-sim`` then ``metrics`` commands do."""

    unit = "teach pairs"
    pool = 24
    controllers = ("proposed", "native")

    def __init__(self, lf, seed: int, workdir: str) -> None:
        self.lf = lf
        self.base = seed * 1000003
        self.paths = {c: os.path.join(workdir, f"teach-{c}.csv") for c in self.controllers}

    def inputs(self, i: int):
        return self.base + i

    def op(self, seed: int):
        lf = self.lf
        out = {}
        for c in self.controllers:
            demo = lf.ktc.simulate_demonstration(*lf.presets.default_teach_setup(c, seed=seed), seed=seed)
            demo.save_csv(self.paths[c])
            back = lf.trajectory.load_trajectory_csv(self.paths[c])
            out[c] = (demo, back, lf.metrics.jerk_metrics(back), lf.metrics.rotation_jerk_metrics(back))
        return out

    def check(self, seed: int, out):
        np = self.lf.np
        digest = _digest(*((_arrays_digest(back), jerk, rot) for _, back, jerk, rot in out.values()))
        for c, (demo, back, _, _) in out.items():
            if len(back) != len(demo):
                return digest, f"{c} seed {seed}: CSV read back {len(back)} of {len(demo)} samples"
        peak = float(np.max(np.linalg.norm(out["proposed"][0].wrenches[:, :3], axis=1)))
        if not peak <= 12.0 + 1e-9:
            return digest, f"proposed seed {seed}: logged force {peak:.3f} N above 12 N"
        return digest, None


class DetectSweep:
    """One ``detection_range_sweep`` per op at -80..80 deg in 2 deg steps over
    the three-hole default scene at 0.5 mm noise, seeded seed + i."""

    unit = "sweeps"
    pool = 24

    def __init__(self, lf, seed: int, workdir: str) -> None:
        self.lf = lf
        self.seed = seed
        self.scene = lf.presets.default_bar_scene()
        self.cam = lf.presets.default_camera()

    def inputs(self, i: int):
        return self.seed + i

    def op(self, seed: int):
        return self.lf.vision.detection_range_sweep(
            self.scene, self.cam, math.radians(-80.0), math.radians(80.0), math.radians(2.0),
            noise_sigma=5e-4, seed=seed,
        )

    def check(self, seed: int, out):
        rows, intervals = out
        digest = _digest(rows, sorted(intervals.items()))
        for hole_id, spans in sorted(intervals.items()):
            if len(spans) != 1:
                return digest, f"sweep seed {seed}: hole {hole_id} detectable over {len(spans)} intervals"
        return digest, None


WORKLOADS = {
    "batch": Batch,
    "goal_shift": GoalShift,
    "teach_compare": TeachCompare,
    "detect_sweep": DetectSweep,
}
