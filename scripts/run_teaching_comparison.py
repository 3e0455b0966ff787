#!/usr/bin/env python3
"""Paired guided-teaching comparison: proposed admittance gains vs the
back-driven native transmission on the same waypoint path.

Prints per-seed metrics, aggregate timing, and a comparison table with the
externally reported hardware values attached as reference rows (context
only; this simulation makes ordering claims, not magnitude claims).
"""

import argparse
import sys

from lfdkit.ktc import simulate_demonstration
from lfdkit.metrics import compare_demonstrations, jerk_metrics, render_comparison_table, timing_stats
from lfdkit.presets import default_teach_setup
from lfdkit.trajectory import write_json

REPORTED_ROWS = [
    ("native avg teach time (s)", "24.66 ± 3.25"),
    ("proposed avg teach time (s)", "17.17 ± 0.756"),
    ("native mean jerk norm", "10.55 ± 1.11"),
    ("proposed mean jerk norm", "6.71 ± 0.157"),
    ("native max jerk", "10.84 ± 0.73"),
    ("proposed max jerk", "6.99 ± 0.00"),
]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=5, help="number of seeded pairs (default 5)")
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--out", help="optional JSON report path")
    args = ap.parse_args(argv)
    if args.runs < 1:
        print("error: --runs must be at least 1", file=sys.stderr)
        return 1

    pairs = []
    print("seed  dur_prop  dur_native  meanj_prop  meanj_native  maxj_prop  maxj_native")
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proposed = simulate_demonstration(*default_teach_setup("proposed", seed=seed), seed=seed)
        native = simulate_demonstration(*default_teach_setup("native", seed=seed), seed=seed)
        jp, jn = jerk_metrics(proposed), jerk_metrics(native)
        pairs.append((seed, proposed, native, jp, jn))
        print(
            f"{seed:4d}  {proposed.duration:8.2f}  {native.duration:10.2f}  "
            f"{jp['mean']:10.3f}  {jn['mean']:12.3f}  {jp['max']:9.2f}  {jn['max']:11.2f}"
        )

    t_prop = timing_stats([p.duration for _, p, _, _, _ in pairs])
    t_nat = timing_stats([n.duration for _, _, n, _, _ in pairs])
    wins = sum(
        p.duration < n.duration and jp["mean"] < jn["mean"] and jp["max"] < jn["max"]
        for _, p, n, jp, jn in pairs
    )
    print()
    print(f"proposed teach time: {t_prop['mean']:.2f} ± {t_prop['std']:.2f} s over {args.runs} runs")
    print(f"native teach time:   {t_nat['mean']:.2f} ± {t_nat['std']:.2f} s over {args.runs} runs")
    print(f"proposed wins duration, mean jerk, and max jerk in {wins}/{args.runs} runs")
    print()

    seed0, proposed0, native0, _, _ = pairs[0]
    report = compare_demonstrations(proposed0, native0, "proposed", "native")
    print(f"first pair (seed {seed0}):")
    print(render_comparison_table(report, reference_rows=REPORTED_ROWS))

    if args.out:
        doc = {
            "runs": args.runs,
            "first_seed": args.first_seed,
            "wins": wins,
            "proposed_duration": t_prop,
            "native_duration": t_nat,
            "first_pair": report,
        }
        write_json(args.out, doc)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
