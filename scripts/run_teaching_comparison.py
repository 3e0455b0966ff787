#!/usr/bin/env python3
"""Paired guided-teaching comparison: proposed admittance gains vs the
back-driven native transmission on the same waypoint path.

Prints per-seed metrics, aggregate timing, and a comparison table with the
externally reported hardware values attached as reference rows (context
only; this simulation makes ordering claims, not magnitude claims).
"""

import argparse

from lfdkit.assembly import MAX_TRIALS
from lfdkit.cli import check_out_dir, report_errors
from lfdkit.ktc import simulate_demonstration
from lfdkit.metrics import compare_demonstrations, jerk_metrics, render_comparison_table, timing_stats
from lfdkit.presets import default_teach_setup
from lfdkit.trajectory import _at_least, _check_seed, write_json

REPORTED_ROWS = [
    ("native avg teach time (s)", "24.66 ± 3.25"),
    ("proposed avg teach time (s)", "17.17 ± 0.756"),
    ("native mean jerk norm", "10.55 ± 1.11"),
    ("proposed mean jerk norm", "6.71 ± 0.157"),
    ("native max jerk", "10.84 ± 0.73"),
    ("proposed max jerk", "6.99 ± 0.00"),
]


def compare(runs: int, first_seed: int, out: str | None) -> int:
    """Teach ``runs`` seeded pairs from ``first_seed`` on, print the report
    and write it to ``out`` if given."""
    _check_seed(first_seed)
    _at_least("runs", runs, 1, MAX_TRIALS)  # a run is a seeded pair, as a batch trial is
    if out:
        check_out_dir(out)
    proposed_durations, native_durations = [], []
    wins = 0
    first_pair = None
    print("seed  dur_prop  dur_native  meanj_prop  meanj_native  maxj_prop  maxj_native")
    for seed in range(first_seed, first_seed + runs):
        proposed = simulate_demonstration(*default_teach_setup("proposed", seed=seed), seed=seed)
        native = simulate_demonstration(*default_teach_setup("native", seed=seed), seed=seed)
        jp, jn = jerk_metrics(proposed), jerk_metrics(native)
        if first_pair is None:
            first_pair = ({"duration_s": proposed.duration, "jerk": jp}, {"duration_s": native.duration, "jerk": jn})
        proposed_durations.append(proposed.duration)
        native_durations.append(native.duration)
        wins += proposed.duration < native.duration and jp["mean"] < jn["mean"] and jp["max"] < jn["max"]
        print(
            f"{seed:4d}  {proposed.duration:8.2f}  {native.duration:10.2f}  "
            f"{jp['mean']:10.3f}  {jn['mean']:12.3f}  {jp['max']:9.2f}  {jn['max']:11.2f}"
        )

    t_prop = timing_stats(proposed_durations)
    t_nat = timing_stats(native_durations)
    print()
    print(f"proposed teach time: {t_prop['mean']:.2f} ± {t_prop['std']:.2f} s over {runs} runs")
    print(f"native teach time:   {t_nat['mean']:.2f} ± {t_nat['std']:.2f} s over {runs} runs")
    print(f"proposed wins duration, mean jerk, and max jerk in {wins}/{runs} runs")
    print()

    report = compare_demonstrations(*first_pair, "proposed", "native")
    print(f"first pair (seed {first_seed}):")
    print(render_comparison_table(report, reference_rows=REPORTED_ROWS))

    if out:
        doc = {
            "runs": runs,
            "first_seed": first_seed,
            "wins": wins,
            "proposed_duration": t_prop,
            "native_duration": t_nat,
            "first_pair": report,
        }
        write_json(out, doc)
        print(f"wrote {out}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=5, help=f"number of seeded pairs, 1 to {MAX_TRIALS} (default 5)")
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--out", help="optional JSON report path")
    args = ap.parse_args(argv)
    return report_errors(lambda: compare(args.runs, args.first_seed, args.out))


if __name__ == "__main__":
    raise SystemExit(main())
