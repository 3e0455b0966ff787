#!/usr/bin/env python3
"""Repeated peg-in-hole trial batches on the default desk scene.

Each batch draws a fresh hole choice and bar yaw per trial under the given
vision noise; the per-batch seed makes every run reproducible. Prints one
line per batch plus an aggregate, and optionally writes the last batch's
JSON and CSV records.
"""

import argparse
import sys

from lfdkit.assembly import MAX_TRIALS, batch_csv_text, batch_to_dict, run_batch
from lfdkit.presets import default_scenario
from lfdkit.trajectory import write_json, write_text


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=20, help="trials per batch (default 20)")
    ap.add_argument("--batches", type=int, default=3, help="number of batches (default 3)")
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--noise-sigma", type=float, default=5e-4, help="vision noise in meters")
    ap.add_argument("--out", help="optional output prefix; writes <out>.json and <out>.csv")
    args = ap.parse_args(argv)
    if not 1 <= args.n <= MAX_TRIALS or args.batches < 1:
        print(f"error: --n must lie in 1..{MAX_TRIALS} and --batches be at least 1", file=sys.stderr)
        return 1

    template = default_scenario(noise_sigma=args.noise_sigma)
    total_ok = 0
    last = None
    for seed in range(args.first_seed, args.first_seed + args.batches):
        last = run_batch(template, n=args.n, seed=seed)
        doc = batch_to_dict(last)
        ok = sum(r.success for r in last)
        total_ok += ok
        reasons = "" if not doc["failure_reasons"] else f"  failures: {doc['failure_reasons']}"
        print(f"batch seed {seed}: {ok}/{args.n} succeeded, rate {doc['success_rate']:.3f}{reasons}")

    total = args.n * args.batches
    print(f"aggregate: {total_ok}/{total} ({total_ok / total:.3f}) at sigma {args.noise_sigma} m")

    if args.out and last is not None:
        write_json(f"{args.out}.json", doc)
        write_text(f"{args.out}.csv", batch_csv_text(last))
        print(f"wrote {args.out}.json and {args.out}.csv (last batch)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
