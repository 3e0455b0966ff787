"""lfdkit pipeline benchmark: one workload per process, closed loop, one thread.

    python3 perfbench/run.py --workload batch --seed 1 --seconds 20 --trace 0

Run from the repository root; lfdkit is imported from ``src/`` beside this
directory, never from an installed copy. ``--trace 0`` times the workload
untraced and prints the end-to-end metrics; ``--trace 1`` runs each input
twice, untraced then traced, and prints the per-layer metrics derived from
the spans plus the tracing overhead. Either way the last stdout line is one
JSON object {correct, attempted, failed, metrics}; the run's environment and
details go to ``.perfbench_out/`` under the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

# pin every BLAS/OpenMP pool before numpy can load: one op, one thread
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in PINNED:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 6  # extra fresh processes timed for setup_s, beside this one

sys.path.insert(0, str(Path(__file__).resolve().parent))
from spans import SITES, SETUP, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def load_lfdkit() -> SimpleNamespace:
    """Import lfdkit from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import lfdkit
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import lfdkit from {src}: {exc}")
    if Path(lfdkit.__file__).resolve().parent.parent != src:
        raise SystemExit(f"perfbench: lfdkit imported from {lfdkit.__file__}, not from {src}")
    import numpy

    from lfdkit import assembly, dmp, ktc, metrics, presets, se3, trajectory, vision

    return SimpleNamespace(np=numpy, assembly=assembly, dmp=dmp, ktc=ktc, metrics=metrics,
                           presets=presets, se3=se3, trajectory=trajectory, vision=vision)


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_file = ROOT / ".git" / ref[5:]
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(lf, args, loadavg) -> dict:
    import scipy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": lf.np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "loadavg_start": loadavg,
        "blas_threads": {var: os.environ[var] for var in PINNED},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def host_ref_ms() -> float:
    """Median time of a fixed pure-Python loop. Taken at both ends of a run,
    it tells a slower host apart from a slower program."""
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        x = 0.0
        for k in range(100_000):
            x += k * 0.5
        samples.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(samples)


class Loop:
    """Runs ops one at a time; keeps each input's first digest and the failures."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.digests: dict[int, str] = {}
        self.failed: dict[int, str] = {}  # first failure reason per input
        self.kinds: Counter = Counter()

    def run(self, i: int, inp, times: list | None = None, tracer: Tracer | None = None) -> bool:
        """Run input i once; True when the op failed. Appends (wall s, CPU s)
        to ``times`` when given and records the op under ``tracer``'s spans
        when given."""
        if tracer is not None:
            tracer.op_id = i
            span = tracer.open("op")
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            out = self.wl.op(inp)
        except Exception as exc:  # a failing op is counted, the run goes on
            out = None
            reason = f"raised {type(exc).__name__}"
        t1 = time.perf_counter()
        c1 = time.process_time()
        if tracer is not None:
            tracer.close(span)
            tracer.op_id = SETUP
        if times is not None:
            times.append((t1 - t0, c1 - c0))
        if out is not None:
            digest, error = self.wl.check(inp, out)
            reason = None if error is None else f"check: {error}"
            # keep input i's first digest; a different one on a repeat fails it
            if self.digests.setdefault(i, digest) != digest:
                reason = "nondeterministic: digest differs across repeats"
        if reason is None:
            return False
        self.kinds[reason.split(":")[0]] += 1
        self.failed.setdefault(i, reason)
        return True


def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it; the max
    when there are too few ops for that percentile to lie above the median."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return ordered[-1], f"max of {n} ops (fewer than 21)"
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n} ops (10 slower)"


def probe_setup(args) -> float:
    """Time, in a fresh process, from before ``import lfdkit`` to the first op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def run_untraced(wl, args) -> tuple[Loop, dict, dict]:
    """Cycle through the workload's ``pool`` inputs in rounds until the time
    is up; the repeats of an input are what the determinism check compares.

    On a shared host the CPU's own speed swings by up to 2x for seconds at a
    time, so the median and the tail op move with the host, not the program.
    The gated op time is therefore the fastest op of the run, the op on an
    undisturbed CPU; the median, the tail, the throughput and the CPU time
    are printed and kept in the record beside it."""
    loop = Loop(wl)
    failed = loop.run(0, wl.inputs(0))  # untimed warm-up of the first input
    samples: list[tuple[float, float]] = []
    # the set-up probes run between ops, spread over the run, so that their
    # median sees the host's usual speed and not one moment of it; the time
    # they take does not count against the run's seconds
    setups: list[float] = []
    paused = 0.0
    start = time.perf_counter()
    n = 0
    while n == 0 or time.perf_counter() - start - paused < args.seconds:
        failed += loop.run(n % wl.pool, wl.inputs(n % wl.pool), samples)
        n += 1
        due = args.seconds * (len(setups) + 0.5) / SETUP_PROBES
        if len(setups) < SETUP_PROBES and time.perf_counter() - start - paused >= due:
            t0 = time.perf_counter()
            setups.append(probe_setup(args))
            paused += time.perf_counter() - t0
    setups += [probe_setup(args) for _ in range(SETUP_PROBES - len(setups))]
    wall = [w for w, _ in samples]
    cpu = [c for _, c in samples]
    wall_tail, tail_label = tail(wall)
    attempted = n + 1
    metrics = {
        "op_best_ms": (1e3 * min(wall), "ms"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    ungated = {
        "ops_per_s": (n / sum(wall), "op/s"),
        "op_p50_ms": (1e3 * statistics.median(wall), "ms"),
        "op_tail_ms": (1e3 * wall_tail, "ms"),
        "op_cpu_ms": (1e3 * statistics.median(cpu), "ms"),
    }
    details = {"op_unit": wl.unit, "op_tail": tail_label, "attempted": attempted, "failed": failed,
               "inputs": min(n, wl.pool), "rounds": n / wl.pool, "ungated": ungated, "setup_probes_s": setups,
               "op_wall_s": wall, "op_cpu_s": cpu}
    return loop, metrics, details


def run_traced(wl, args, tracer: Tracer) -> tuple[Loop, dict, dict]:
    """Each input runs untraced, then traced; the pair's digests must match."""
    loop = Loop(wl)
    plain: list[tuple[float, float]] = []
    traced: list[tuple[float, float]] = []
    failed = 0
    start = time.perf_counter()
    n = 0
    while n == 0 or time.perf_counter() - start < args.seconds:
        inp = wl.inputs(n)
        failed += loop.run(n, inp, plain)
        tracer.install(SITES)
        failed += loop.run(n, inp, traced, tracer)
        tracer.uninstall()
        n += 1

    plain_s = sum(w for w, _ in plain)
    traced_s = sum(w for w, _ in traced)
    metrics = layer_metrics(tracer, n)
    metrics["trace.overhead_pct"] = (100.0 * (1.0 - plain_s / traced_s), "%")
    details = {"op_unit": wl.unit, "attempted": 2 * n, "failed": failed, "inputs": n,
               "untraced_ops_per_s": n / plain_s, "traced_ops_per_s": n / traced_s}
    return loop, metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    loadavg = os.getloadavg()
    workdir = OUT / f"work-{os.getpid()}"
    t0 = time.perf_counter()
    lf = load_lfdkit()
    tracer = Tracer()
    if args.trace:
        tracer.install(SITES)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](lf, args.seed, str(workdir))
        setup = time.perf_counter() - t0
        tracer.uninstall()
        if args.setup_probe:
            print(repr(setup))
            return 0

        env = environment(lf, args, loadavg)
        host_start = host_ref_ms()
        if args.trace:
            loop, metrics, details = run_traced(wl, args, tracer)
        else:
            loop, metrics, details = run_untraced(wl, args)
            samples = [setup] + details.pop("setup_probes_s")
            metrics["setup_s"] = (statistics.median(samples), "s")
            details["setup_samples_s"] = samples
        details["host_ref_ms"] = [host_start, host_ref_ms()]
    finally:
        for name in os.listdir(workdir):
            os.remove(workdir / name)
        workdir.rmdir()

    attempted, failed = details["attempted"], details["failed"]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {
        "env": env,
        "details": details,
        "failures": dict(loop.kinds),
        "failed_inputs": {str(k): v for k, v in sorted(loop.failed.items())},
        "metrics": reported,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tracer.write(str(OUT / f"{stem}.spans.jsonl"))

    print(f"env {json.dumps(env)}")
    print(f"{args.workload}: {attempted} ops ({details['op_unit']}) on {details['inputs']} inputs, "
          f"{failed} failed {dict(loop.kinds)}")
    print("host reference loop ms at start, end: {:.3f}, {:.3f}".format(*details["host_ref_ms"]))
    if not args.trace:
        print(f"note: ops are {details['op_unit']}, {details['rounds']:.1f} rounds over the inputs; "
              f"op_tail_ms is the {details['op_tail']}")
        for name, (value, unit) in details["ungated"].items():
            print(f"shown, not gated: {name} {value:.6g} {unit} (moves with the host's speed)")
        print(f"fail_ratio {failed / attempted:.6g} (ok_ratio is its complement)")
    for k, reason in list(sorted(loop.failed.items()))[:5]:
        print(f"failed input {k}: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name:40s} {value:14.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
