"""Wall time of whole lfdkit processes, interpreter start included, for two
checkouts side by side, and whether the two write the same bytes.

    python3 scripts/bench_cli_wall.py --base PARENT_DIR --change CHANGE_DIR \
        --repeats 5 --out BENCH_startup.json

Each command of the roadmap's end-to-end list runs as a fresh process with
``PYTHONPATH`` set to one checkout's ``src/``: ``import lfdkit.cli``,
``teach-sim --seed 0``, ``trial --seed 3``, ``batch --n 20 --seed 7``,
``sweep`` on its defaults, and the 100-rollout loop of acceptance gate a2
(fit the 10 s preset demo, roll it out toward 100 shifted goals). Then the
rest of the CLI and the teaching comparison script, on short settings:
``teach-sim`` against the native drive, and against the proposed
controller with sensor noise (its config is written into each output
directory); a batch at 2 mm vision noise whose trials reach the wall, so
the scalar contact loop is compared too (its config is written alongside);
``localize --seed 1``; ``fit`` and ``rollout`` of the taught
demo, scored against it by ``metrics``; two trials that end FAILED, one aborted after
the insertion (its event script is written into each output directory)
and one on a hole the camera cannot see; a batch of three trials that
each walk that abort script, set as ``trial.events`` in its config
(written alongside); a sweep with a ``--scene`` that lacks the hole its
config's ``localize.hole_id`` names, then a rerun from its resolved config
if it wrote one; a batch of three trials at a yaw limit of -0.0 (its config
written alongside), run in process so that its exit status is printed; and
``scripts/run_teaching_comparison.py --runs 2``. The two checkouts alternate
command by command, the first of each pair switching every round, so a
host that slows down for a while slows both. BLAS and OpenMP pools are
pinned to one thread, as in ``perfbench``.

Each checkout writes into its own directory. After the last round every
command's stdout and output files are compared byte for byte across the
two checkouts, a file that neither wrote counting as the same; ``identical`` in the JSON records the result per command
and file, any difference is printed, and the script exits 1 if there is
one. Then each command of ``INVALID`` (a bad flag value of the CLI or of
the teaching comparison, a config or primitive file with one value out
of range or a key the config no longer has, a teach config whose
``teach-sim`` fails, a trajectory whose resampling grid is past the row
cap, one with a zero quaternion on its line 301, one whose px of 1e300
on line 301 overflows its jerk and its fit's replay, through ``metrics``
and ``fit``, or a batch of 200 trials whose ``--out`` lies in a missing
directory or names an existing one) runs once per checkout, untimed; it must exit non-zero, and its exit status
and stderr must match across the two checkouts byte for byte. ``invalid`` in the JSON records both, and any
difference or zero exit is printed and exits 1. The JSON also holds min and median wall time per command and
checkout, every sample, both git shas, the Python and numpy versions and
the core count. Five repeats take under two minutes on a 2-vCPU host.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

A2_LOOP = """
import numpy as np
from lfdkit.dmp import fit_pose_dmp, rollout
from lfdkit.presets import demo_pose_waypoints, make_smooth_demo
from lfdkit.se3 import Pose
wp, quats = demo_pose_waypoints(seed=0)
demo = make_smooth_demo(wp, duration=10.0, orientations=quats)
dmp = fit_pose_dmp(demo)
amplitude = float(np.linalg.norm(np.ptp(demo.positions, axis=0)))
rng = np.random.default_rng(0)
for _ in range(100):
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    shift = direction * 2.0 * amplitude * rng.uniform() ** (1 / 3)
    rollout(dmp, goal=Pose(dmp.demo_goal.position + shift, dmp.demo_goal.orientation))
"""

# a sweep whose config sets localize.hole_id 2 on a --scene of the default
# scene without hole 2, then its rerun from the resolved config, if the sweep
# wrote one; prints each exit status
SCENE_RERUN = """
import json, os
from lfdkit.cli import main
from lfdkit.presets import default_bar_scene, default_camera
from lfdkit.vision import scene_to_dict
scene = scene_to_dict(default_bar_scene(), default_camera())
del scene["bar"]["holes"][2]
with open("two.json", "w") as fh:
    json.dump(scene, fh)
with open("c.json", "w") as fh:
    json.dump({"localize": {"hole_id": 2}}, fh)
print(main(["sweep", "--config", "c.json", "--scene", "two.json", "--out", "scene_sweep.csv"]))
if os.path.exists("scene_sweep.csv.config.json"):
    print(main(["sweep", "--config", "scene_sweep.csv.config.json", "--out", "scene_rerun.csv"]))
"""

CLI = [sys.executable, "-m", "lfdkit.cli"]
# the CLI in process, printing its exit status: for a command that one
# checkout may fail and the other run
STATUS = "import sys\nfrom lfdkit.cli import main\nprint(main(sys.argv[1:]))"


# the nominal stream with its last pedal press replaced by an abort
ABORT_EVENTS = "0 pedal_press\n1 motion_done\n2 vision_ready\n3 pedal_press\n4 motion_done\n5 abort\n"
# force and torque noise on what the proposed controller senses
TEACH_NOISE = json.dumps({"teach": {"force_noise_std": 0.3, "torque_noise_std": 0.03}}) + "\n"
# vision noise at which most trials of the batch bind on the hole wall or the chamfer
CONTACT_BATCH = json.dumps({"seed": 0, "trial": {"n": 6, "noise_sigma": 0.002}}) + "\n"
# a batch whose every trial walks the abort script
ABORT_BATCH = json.dumps({"trial": {"n": 3, "events": "abort.events"}}) + "\n"
# a yaw limit that meets the rule at -0.0
YAW_ZERO = json.dumps({"trial": {"yaw_limit_deg": -0.0}}) + "\n"
# config files with one value out of range, written into each output directory
BAD_CONFIGS = {
    "bad_trial_noise.json": {"trial": {"noise_sigma": -1}},
    "bad_localize_dropout.json": {"localize": {"dropout": 1.0}},
    "bad_trial_few_points.json": {"trial": {"mask_points": 2}},
    "bad_trial_many_points.json": {"trial": {"mask_points": 100001}},
    "bad_trial_clearance.json": {"trial": {"clearance": 0}},
    "bad_trial_tilt.json": {"trial": {"tilt_tol_deg": 5e-324}},
    "bad_trial_hole.json": {"trial": {"hole_id": 7}},
    "bad_trial_depth.json": {"trial": {"required_depth": 1e300}},
    "bad_dmp_basis.json": {"dmp": {"n_basis": 1}},
    "bad_dmp_alpha_s.json": {"dmp": {"alpha_s": float("inf")}},
    "bad_dmp_alpha_z.json": {"dmp": {"alpha_z": 1e160}},  # an unstable Euler step; its forcing targets overflow too
    "bad_dmp_alpha_z_unstable.json": {"dmp": {"alpha_z": 17000}},  # an unstable Euler step at the trial's tau
    "bad_trial_noise_cap.json": {"trial": {"noise_sigma": 1e300}},  # the vision fit overflows
    # the robot's tick and lag are ktc constants, no longer config keys
    "bad_teach_rate.json": {"teach": {"rate": 100.0}},
    "bad_teach_plant_time_constant.json": {"teach": {"plant_time_constant": 0.05}},
    # the taught path is the preset's; this span was past its range while it was a key
    "bad_teach_waypoint_scale.json": {"teach": {"waypoint_scale": 1.7e308}},
}
# teach configs whose teach-sim fails, written into each output directory: a
# torque noise spread past its cap, and a max_duration shorter than the teach
BAD_TEACH = {
    "bad_teach_torque_noise.json": {"teach": {"torque_noise_std": 1e9}},
    "short_teach.json": {"teach": {"max_duration": 3}},
}
# a sweep config with the dropout out of range, written into each output directory
BAD_SWEEP = {"sweep": {"dropout": 1.5}}
# a trajectory whose median dt of 1 ns resamples its 1e6 s into 1e15 samples,
# written into each output directory
NON_UNIFORM_CSV = "t,px,py,pz,qw,qx,qy,qz\n" + "".join(
    f"{t},0,0,0,1,0,0,0\n" for t in ("0", "1e-9", "2e-9", "3e-9", "1e6"))
# 400 samples of a still pose, the one on line 301 a zero quaternion,
# written into each output directory
ZERO_QUATERNION_CSV = "t,px,py,pz,qw,qx,qy,qz\n" + "".join(
    f"{k / 100},0,0,0,{0 if k == 299 else 1},0,0,0\n" for k in range(400))
# the same still pose with px 1e300 on line 301, written into each output directory
HUGE_POSITION_CSV = "t,px,py,pz,qw,qx,qy,qz\n" + "".join(
    f"{k / 100},{'1e300' if k == 299 else 0},0,0,1,0,0,0\n" for k in range(400))
# two-basis primitive files with one gain out of range, written into each output directory
_REST = {"position": [0.0, 0.0, 0.0], "orientation": [1.0, 0.0, 0.0, 0.0]}
_PRIMITIVE = {"alpha_s": 8.0, "alpha_z": 25.0, "beta_z": 6.25, "tau": 1.0, "N": 2, "centers": [1.0, 0.5],
              "widths": [1.0, 1.0], "weights": [[0.0, 0.0]] * 6, "demo_start": _REST, "demo_goal": _REST}
BAD_PRIMITIVES = {
    "bad_prim_alpha_z.json": {**_PRIMITIVE, "alpha_z": 0},
    "bad_prim_alpha_s.json": {**_PRIMITIVE, "alpha_s": 1.7e308},  # past the config's basis layout rule
}


def cli(*args: str, out: str, also: tuple[str, ...] = ()) -> tuple[list[str], tuple[str, ...]]:
    """An lfdkit command writing ``out``, the files ``also`` and its resolved config."""
    return CLI + [*args, "--out", out], (out, *also, f"{out}.config.json")


def script(name: str, *args: str, writes: tuple[str, ...]) -> tuple[list[str], tuple[str, ...]]:
    """One of the checkout's own scripts, writing the files ``writes``."""
    return [sys.executable, f"{{checkout}}/scripts/{name}", *args], writes


# name -> (argv, files it writes into the output directory); a command may
# read what an earlier one wrote there
COMMANDS = {
    "import lfdkit.cli": ([sys.executable, "-c", "import lfdkit.cli"], ()),
    "teach-sim --seed 0": cli("teach-sim", "--seed", "0", out="demo.csv"),
    "trial --seed 3": cli("trial", "--seed", "3", out="trial.json"),
    "batch --n 20 --seed 7": cli("batch", "--n", "20", "--seed", "7", out="batch.json", also=("batch.csv",)),
    "sweep": cli("sweep", out="sweep.csv"),
    "a2 loop": ([sys.executable, "-c", A2_LOOP], ()),
    "teach-sim --controller native --seed 1": cli(
        "teach-sim", "--controller", "native", "--seed", "1", out="demo_native.csv"),
    "teach-sim --config teach_noise.json": cli("teach-sim", "--config", "teach_noise.json", out="demo_noisy.csv"),
    "batch --config contact_batch.json": cli(
        "batch", "--config", "contact_batch.json", out="batch_contact.json", also=("batch_contact.csv",)),
    "localize --seed 1": cli("localize", "--seed", "1", out="localize.csv"),
    "fit --demo demo.csv": cli("fit", "--demo", "demo.csv", out="prim.json"),
    "rollout --dmp prim.json": cli("rollout", "--dmp", "prim.json", out="replay.csv"),
    "metrics --traj demo.csv --baseline replay.csv": cli(
        "metrics", "--traj", "demo.csv", "--baseline", "replay.csv", out="metrics.json"),
    "trial --seed 3 --events abort.events": cli(
        "trial", "--seed", "3", "--events", "abort.events", out="trial_abort.json"),
    "trial --hole 2 --yaw-deg 80": cli("trial", "--hole", "2", "--yaw-deg", "80", out="trial_hidden.json"),
    "batch --config abort_batch.json": cli(
        "batch", "--config", "abort_batch.json", out="batch_abort.json", also=("batch_abort.csv",)),
    "sweep --config c.json --scene two.json, rerun": ([sys.executable, "-c", SCENE_RERUN],
                                                      ("scene_sweep.csv", "scene_sweep.csv.config.json")),
    "batch --n 3 --config yaw_zero.json": (
        [sys.executable, "-c", STATUS, "batch", "--n", "3", "--config", "yaw_zero.json", "--out", "batch_yaw.json"],
        ("batch_yaw.json", "batch_yaw.csv", "batch_yaw.json.config.json")),
    "run_teaching_comparison.py --runs 2": script(
        "run_teaching_comparison.py", "--runs", "2", "--out", "teach_cmp.json", writes=("teach_cmp.json",)),
}
# name -> argv of a command that must fail: exit status and stderr are compared
INVALID = {
    "trial --hole 7": cli("trial", "--hole", "7", out="bad.json")[0],
    "localize --hole 7": cli("localize", "--hole", "7", out="bad.csv")[0],
    "batch --n 0": cli("batch", "--n", "0", out="bad.json")[0],
    "batch --n 200 --out nodir/bad.json": cli("batch", "--n", "200", out="nodir/bad.json")[0],
    "batch --n 200 --out isdir": cli("batch", "--n", "200", out="isdir")[0],
    "trial --seed -1": cli("trial", "--seed", "-1", out="bad.json")[0],
    "sweep --start-deg 10 --stop-deg -10": cli("sweep", "--start-deg", "10", "--stop-deg", "-10", out="bad.csv")[0],
    "sweep --start-deg nan": cli("sweep", "--start-deg", "nan", out="bad.csv")[0],
    "sweep --step-deg 1e-9": cli("sweep", "--step-deg", "1e-9", out="bad.csv")[0],
    "sweep --config bad_sweep_dropout.json": cli("sweep", "--config", "bad_sweep_dropout.json", out="bad.csv")[0],
    **{f"trial --config {name}": cli("trial", "--config", name, out="bad.json")[0] for name in BAD_CONFIGS},
    **{f"teach-sim --config {name}": cli("teach-sim", "--config", name, out="bad.csv")[0] for name in BAD_TEACH},
    **{f"rollout --dmp {name}": cli("rollout", "--dmp", name, out="bad.csv")[0] for name in BAD_PRIMITIVES},
    "metrics --traj non_uniform.csv": cli("metrics", "--traj", "non_uniform.csv", out="bad.json")[0],
    "metrics --traj zero_quaternion.csv": cli("metrics", "--traj", "zero_quaternion.csv", out="bad.json")[0],
    "metrics --traj huge_position.csv": cli("metrics", "--traj", "huge_position.csv", out="bad.json")[0],
    "fit --demo huge_position.csv": cli("fit", "--demo", "huge_position.csv", out="bad_prim.json")[0],
    "run_teaching_comparison.py --first-seed -1": script(
        "run_teaching_comparison.py", "--first-seed", "-1", writes=())[0],
    "run_teaching_comparison.py --runs 0": script("run_teaching_comparison.py", "--runs", "0", writes=())[0],
}
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def git_sha(checkout: Path) -> str:
    """HEAD of ``checkout``, marked with whichever of ``src/`` and
    ``scripts/`` hold uncommitted changes."""
    done = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"], capture_output=True, text=True)
    dirty = [f"{d}/" for d in ("src", "scripts")
             if subprocess.run(["git", "-C", str(checkout), "status", "--porcelain", "--", d],
                               capture_output=True, text=True).stdout.strip()]
    return done.stdout.strip() + (f" + uncommitted {' and '.join(dirty)} changes" if dirty else "")


def run(argv: list[str], checkout: Path, out: Path) -> subprocess.CompletedProcess:
    """One run of ``argv`` on ``checkout`` in the output directory ``out``."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), **{var: "1" for var in PINNED}}
    return subprocess.run([a.replace("{checkout}", str(checkout)) for a in argv], env=env, cwd=out,
                          capture_output=True, timeout=600)


def timed(argv: list[str], checkout: Path, out: Path) -> tuple[float, bytes]:
    """Wall time and stdout of one run in the output directory ``out``."""
    t0 = time.perf_counter()
    done = run(argv, checkout, out)
    wall = time.perf_counter() - t0
    if done.returncode != 0:
        raise SystemExit(f"{argv} failed under {checkout}:\n{done.stderr.decode(errors='replace')}")
    return wall, done.stdout


def same_bytes(a: Path, b: Path) -> bool:
    """Whether two outputs hold the same bytes, or neither checkout wrote one."""
    if not (a.exists() or b.exists()):
        return True
    return a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout measured as the baseline")
    parser.add_argument("--change", type=Path, required=True, help="checkout measured against it")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    import numpy

    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    samples = {name: {side: [] for side in sides} for name in COMMANDS}
    stdout = {name: {} for name in COMMANDS}
    identical = {}
    with tempfile.TemporaryDirectory() as tmp:
        outs = {side: Path(tmp) / side for side in sides}
        for out in outs.values():
            out.mkdir()
            (out / "isdir").mkdir()
            (out / "abort.events").write_text(ABORT_EVENTS)
            (out / "teach_noise.json").write_text(TEACH_NOISE)
            (out / "contact_batch.json").write_text(CONTACT_BATCH)
            (out / "abort_batch.json").write_text(ABORT_BATCH)
            (out / "yaw_zero.json").write_text(YAW_ZERO)
            for name, doc in {**BAD_CONFIGS, **BAD_TEACH}.items():
                (out / name).write_text(json.dumps(doc) + "\n")
            for name, doc in BAD_PRIMITIVES.items():
                (out / name).write_text(json.dumps(doc) + "\n")
            (out / "bad_sweep_dropout.json").write_text(json.dumps(BAD_SWEEP) + "\n")
            (out / "non_uniform.csv").write_text(NON_UNIFORM_CSV)
            (out / "zero_quaternion.csv").write_text(ZERO_QUATERNION_CSV)
            (out / "huge_position.csv").write_text(HUGE_POSITION_CSV)
        for r in range(args.repeats):
            order = list(sides) if r % 2 == 0 else list(sides)[::-1]
            for name, (command, _) in COMMANDS.items():
                for side in order:
                    wall, stdout[name][side] = timed(command, sides[side], outs[side])
                    samples[name][side].append(wall)
            print(f"round {r + 1}/{args.repeats} done", file=sys.stderr)
        for name, (_, files) in COMMANDS.items():
            identical[name] = {
                "stdout": stdout[name]["base"] == stdout[name]["change"],
                "files": {f: same_bytes(outs["base"] / f, outs["change"] / f) for f in files},
            }
        invalid = {}
        for name, argv in INVALID.items():
            done = {side: run(argv, sides[side], outs[side]) for side in sides}
            invalid[name] = {side: {"status": d.returncode, "stderr": d.stderr.decode(errors="replace")}
                             for side, d in done.items()}

    def summary(values):
        return {"min": round(min(values), 3), "median": round(statistics.median(values), 3),
                "samples": [round(v, 3) for v in values]}

    record = {
        "topic": "wall time of whole lfdkit processes, interpreter start included",
        "harness": "python3 scripts/bench_cli_wall.py --base <dir> --change <dir> "
                   f"--repeats {args.repeats} --out <file>",
        "method": "fresh process per sample; base and change alternate command by command, "
                  "the first of each pair switching every round; BLAS/OpenMP pinned to 1 thread",
        "base_sha": git_sha(sides["base"]),
        "change_sha": git_sha(sides["change"]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cores": os.cpu_count(),
        "seconds": {name: {side: summary(v) for side, v in per.items()} for name, per in samples.items()},
        "identical": identical,
        "invalid": invalid,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    status = 0
    for name, per in record["seconds"].items():
        differ = [what for what, same in [("stdout", identical[name]["stdout"]), *identical[name]["files"].items()]
                  if not same]
        if differ:
            status = 1
        print(f"{name:46s} base min {per['base']['min']:.3f} median {per['base']['median']:.3f}   "
              f"change min {per['change']['min']:.3f} median {per['change']['median']:.3f}   "
              f"{'DIFFERENT: ' + ', '.join(differ) if differ else 'byte-identical'}")
    for name, per in invalid.items():
        base, change = per["base"], per["change"]
        if base != change or 0 in (base["status"], change["status"]):
            status = 1
            print(f"{name:46s} DIFFERENT or exit 0:\n  base   {base['status']} {base['stderr']!r}\n"
                  f"  change {change['status']} {change['stderr']!r}")
        else:
            print(f"{name:46s} exit {base['status']}, stderr byte-identical")
    return status


if __name__ == "__main__":
    sys.exit(main())
