#!/usr/bin/env python3
"""Hole-detectability sweep over bar yaw on the default desk scene.

For each seed, reports the maximal contiguous yaw intervals in which each
hole is localized within tolerance, and optionally writes the per-(yaw,
hole) rows of the last seed as plot-ready CSV.
"""

import argparse
import math
import sys

from lfdkit.presets import default_bar_scene, default_camera
from lfdkit.trajectory import write_text
from lfdkit.vision import detection_range_sweep


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--start-deg", type=float, default=-80.0)
    ap.add_argument("--stop-deg", type=float, default=80.0)
    ap.add_argument("--step-deg", type=float, default=2.0)
    ap.add_argument("--noise-sigma", type=float, default=5e-4, help="vision noise in meters")
    ap.add_argument("--dropout", type=float, default=0.0)
    ap.add_argument("--seeds", type=int, default=2, help="independent repeats (default 2)")
    ap.add_argument("--out", help="optional CSV path for the last seed's rows")
    args = ap.parse_args(argv)
    if args.step_deg <= 0 or args.seeds < 1:
        print("error: --step-deg must be positive and --seeds at least 1", file=sys.stderr)
        return 1

    scene, cam = default_bar_scene(), default_camera()
    rows = None
    for seed in range(args.seeds):
        rows, intervals = detection_range_sweep(
            scene,
            cam,
            math.radians(args.start_deg),
            math.radians(args.stop_deg),
            math.radians(args.step_deg),
            noise_sigma=args.noise_sigma,
            dropout=args.dropout,
            seed=seed,
        )
        for hole_id in sorted(intervals):
            spans = ", ".join(
                f"[{math.degrees(lo):.1f}, {math.degrees(hi):.1f}]" for lo, hi in intervals[hole_id]
            )
            print(f"seed {seed} hole {hole_id}: {spans or 'never detected'} deg")

    if args.out and rows is not None:
        lines = ["yaw_deg,hole_id,detected,center_err_m,radius_err_m"]
        for yaw, hole_id, detected, center_err, radius_err in rows:
            lines.append(f"{math.degrees(yaw):.9g},{hole_id},{int(detected)},{center_err:.9g},{radius_err:.9g}")
        write_text(args.out, "\n".join(lines) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
