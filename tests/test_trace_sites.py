"""Every public name the traced benchmark wraps must exist.

``perfbench/spans.py`` lists the module attributes a traced run replaces,
and a missing one stops that run. Resolving the same table here makes a
rename fail inside the test suite instead.
"""

import importlib
import runpy
from pathlib import Path

import pytest

# run_path compiles the file without writing a bytecode cache beside it
SITES = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"))["SITES"]


@pytest.mark.parametrize(
    "module_name, attr_path",
    sorted({(module_name, attr_path) for _, module_name, attr_path, _ in SITES}),
)
def test_trace_site_resolves(module_name, attr_path):
    owner = importlib.import_module(module_name)
    *outer, attr = attr_path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    assert owner is not None and callable(getattr(owner, attr, None)), f"{module_name}.{attr_path}"
