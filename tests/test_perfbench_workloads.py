"""Every benchmark workload runs one op on this checkout and passes its own check.

``perfbench/workloads.py`` drives lfdkit through its public functions and
values (``GoalShift`` builds a ``Pose`` from ``demo_goal.orientation``, for
one). Running each workload's first input here makes a change to those
names or value types fail inside the test suite instead of at the
benchmark run.
"""

import runpy
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from lfdkit import assembly, dmp, ktc, metrics, presets, se3, trajectory, vision

# run_path compiles the file without writing a bytecode cache beside it
WORKLOADS = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"))["WORKLOADS"]

# the namespace perfbench/run.py hands each workload
LF = SimpleNamespace(
    np=np, assembly=assembly, dmp=dmp, ktc=ktc, metrics=metrics,
    presets=presets, se3=se3, trajectory=trajectory, vision=vision,
)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_first_op_passes_its_check(name, tmp_path):
    wl = WORKLOADS[name](LF, 1, str(tmp_path))
    inp = wl.inputs(0)
    digest, failure = wl.check(inp, wl.op(inp))
    assert failure is None, failure
    assert len(digest) == 64
