"""Wall time of whole lfdkit processes, interpreter start included, for two
checkouts side by side.

    python3 scripts/bench_cli_wall.py --base PARENT_DIR --change CHANGE_DIR \
        --repeats 5 --out BENCH_startup.json

Each command of the roadmap's end-to-end list runs as a fresh process with
``PYTHONPATH`` set to one checkout's ``src/``: ``import lfdkit.cli``,
``teach-sim --seed 0``, ``trial --seed 3``, ``batch --n 20 --seed 7``,
``sweep`` on its defaults, and the 100-rollout loop of acceptance gate a2
(fit the 10 s preset demo, roll it out toward 100 shifted goals). The two
checkouts alternate command by command, the first of each pair switching
every round, so a host that slows down for a while slows both. BLAS and
OpenMP pools are pinned to one thread, as in ``perfbench``. The JSON
written holds min and median per command and checkout, every sample, both
git shas, the Python and numpy versions and the core count. Five repeats
take about two minutes on a 2-vCPU host.
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

CLI = [sys.executable, "-m", "lfdkit.cli"]
COMMANDS = {
    "import lfdkit.cli": [sys.executable, "-c", "import lfdkit.cli"],
    "teach-sim --seed 0": CLI + ["teach-sim", "--seed", "0", "--out", "{out}/demo.csv"],
    "trial --seed 3": CLI + ["trial", "--seed", "3", "--out", "{out}/trial.json"],
    "batch --n 20 --seed 7": CLI + ["batch", "--n", "20", "--seed", "7", "--out", "{out}/batch.json"],
    "sweep": CLI + ["sweep", "--out", "{out}/sweep.csv"],
    "a2 loop": [sys.executable, "-c", A2_LOOP],
}
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def git_sha(checkout: Path) -> str:
    done = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"], capture_output=True, text=True)
    dirty = subprocess.run(["git", "-C", str(checkout), "status", "--porcelain", "--", "src"],
                           capture_output=True, text=True).stdout.strip()
    return done.stdout.strip() + (" + uncommitted src/ changes" if dirty else "")


def timed(argv: list[str], checkout: Path, out: str) -> float:
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), **{var: "1" for var in PINNED}}
    t0 = time.perf_counter()
    done = subprocess.run([a.replace("{out}", out) for a in argv], env=env, cwd=out,
                          capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if done.returncode != 0:
        raise SystemExit(f"{argv} failed under {checkout}:\n{done.stderr}")
    return wall


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
    with tempfile.TemporaryDirectory() as out:
        for r in range(args.repeats):
            order = list(sides) if r % 2 == 0 else list(sides)[::-1]
            for name, command in COMMANDS.items():
                for side in order:
                    samples[name][side].append(timed(command, sides[side], out))
            print(f"round {r + 1}/{args.repeats} done", file=sys.stderr)

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
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for name, per in record["seconds"].items():
        print(f"{name:24s} base min {per['base']['min']:.3f} median {per['base']['median']:.3f}   "
              f"change min {per['change']['min']:.3f} median {per['change']['median']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
