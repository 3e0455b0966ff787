"""Smoke check of the benchmark itself; kept out of the test suite because it
times things.

    python3 perfbench/smoke.py

Runs every workload briefly, untraced and traced, and asserts that the last
line carries every metric BENCHMARK.json names, with its unit, that the run
is correct, and that the traced figures put the time where the layers say:
spans cover most of a batch op, the trial and plant dominate ``batch`` and
the rollout dominates ``goal_shift``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run(workload: str, trace: int) -> tuple[str, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.5", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return done.stdout, json.loads(done.stdout.strip().splitlines()[-1])


def dominates(metrics: dict, *spans: str) -> bool:
    """The spans' summed self time per op beats every other span's."""
    own = {n[:-len(".self_s")]: m["value"] for n, m in metrics.items()
           if n.endswith(".self_s") and m["unit"] == "s/op"}
    return sum(own[s] for s in spans) > max(v for s, v in own.items() if s not in spans)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            stdout, result = run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected, (workload, trace, set(got) ^ set(expected))
            for name, unit in expected.items():
                line = next(ln for ln in stdout.splitlines() if ln.split()[:2] == ["metric", name])
                assert line.split()[-1] == unit, line
            m = result["metrics"]
            if trace and workload == "batch":
                assert m["trace.span_coverage"]["value"] > 0.9, m["trace.span_coverage"]
                assert dominates(m, "assembly.execute_trial", "ktc.plant_step"), m
            if trace and workload == "goal_shift":
                assert dominates(m, "dmp.rollout"), m
            print(f"ok {workload} trace={trace}: {len(got)} metrics, {result['attempted']} ops")

    # a wrapped name that is gone stops the run instead of reading as zero
    try:
        Tracer().install((("gone", "json", "no_such_function", None),))
    except SystemExit as exc:
        assert "json.no_such_function is missing" in str(exc)
    else:
        raise AssertionError("a missing trace site was not reported")
    print("ok missing trace site is fatal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
