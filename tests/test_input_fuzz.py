"""Extreme values in the files the commands read, through ``cli.main``.

A demonstration CSV (a 1 s preset demo) has one cell of its line 2 or 502
set to one of the config fuzzer's values, ``inf``, ``nan``, ``x`` or an
empty cell, and goes through ``fit`` and ``metrics``; a primitive that
``fit`` writes goes through ``rollout``. A primitive file (the one fitted
from that demo) has one scalar, or the first or last entry of one list, set
to one of the same values, and goes through ``rollout``. Every run keeps
the config fuzzer's error contract: exit 0, 1 or 2, at most one ``error:``
line on stderr, and no warning but ``ForcingUnderflow``. A primitive that
``fit`` writes must also roll out: ``rollout`` exits 0 on it.
"""

import json
import math

import pytest

from lfdkit.cli import main
from lfdkit.dmp import dmp_to_dict, fit_pose_dmp
from lfdkit.presets import demo_pose_waypoints, make_smooth_demo
from test_config_fuzz import VALUES, run

CELLS = tuple(dict.fromkeys([str(v) for v in VALUES] + ["inf", "nan", "x", ""]))
LINES = (2, 502)
COLUMNS = ("t", "px", "py", "pz", "qw", "qx", "qy", "qz")
FIELD_VALUES = VALUES + (math.inf, math.nan, "")

_WAYPOINTS, _ORIENTATIONS = demo_pose_waypoints(seed=0)
DEMO = make_smooth_demo(_WAYPOINTS, duration=1.0, orientations=_ORIENTATIONS)
PRIMITIVE = dmp_to_dict(fit_pose_dmp(DEMO))


def primitive_paths(doc, path=()):
    """Each scalar of the primitive and the first and last entry of each of
    its lists, a list entry of a list and the poses' lists included."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from primitive_paths(value, path + (key,))
    elif isinstance(doc, list):
        for i in (0, len(doc) - 1):
            if isinstance(doc[i], list):
                yield path + (i,)
            yield from primitive_paths(doc[i], path + (i,))
    else:
        yield path


@pytest.fixture(scope="module")
def demo_text(tmp_path_factory):
    path = tmp_path_factory.mktemp("demo") / "demo.csv"
    DEMO.save_csv(path)
    return path.read_text()


@pytest.mark.parametrize("column", COLUMNS)
def test_demo_cells_keep_the_error_contract(column, demo_text, tmp_path, capsys, monkeypatch):
    lines = demo_text.splitlines()
    assert lines[0].split(",")[:8] == list(COLUMNS)
    col = COLUMNS.index(column)
    demo, prim = tmp_path / "demo.csv", tmp_path / "prim.json"
    found = []
    for lineno in LINES:
        for cell in CELLS:
            edited = list(lines)
            cells = edited[lineno - 1].split(",")
            cells[col] = cell
            edited[lineno - 1] = ",".join(cells)
            demo.write_text("\n".join(edited) + "\n")
            case = f"line {lineno} {column} = {cell!r}"
            prim.unlink(missing_ok=True)
            code, out = run(["fit", "--demo", demo, "--out", prim], capsys, monkeypatch)
            found += [f"fit with {case}: {line}" for line in out]
            if code == 0:
                code, out = run(["rollout", "--dmp", prim, "--out", tmp_path / "replay.csv"], capsys, monkeypatch)
                found += [f"rollout after fit with {case}: {line}" for line in out + [f"exit {code}"] * (code != 0)]
            _, out = run(["metrics", "--traj", demo, "--out", tmp_path / "m.json"], capsys, monkeypatch)
            found += [f"metrics with {case}: {line}" for line in out]
    assert found == []


def test_a_demo_value_past_the_float_range_names_the_demonstration(demo_text, tmp_path, capsys):
    # px 1.7e308 at t = 0 differences to an infinite velocity; fit once
    # blamed the default gains for the overflowing targets
    lines = demo_text.splitlines()
    cells = lines[1].split(",")
    cells[COLUMNS.index("px")] = "1.7e308"
    lines[1] = ",".join(cells)
    demo = tmp_path / "demo.csv"
    demo.write_text("\n".join(lines) + "\n")
    assert main(["fit", "--demo", str(demo), "--out", str(tmp_path / "prim.json")]) == 1
    assert capsys.readouterr().err == (
        "error: demonstration velocity is not finite at t = 0 s: a sample is too large for its time step to difference\n"
    )
    assert not (tmp_path / "prim.json").exists()


@pytest.mark.parametrize("path", list(primitive_paths(PRIMITIVE)), ids=lambda path: ".".join(map(str, path)))
def test_primitive_fields_keep_the_error_contract(path, tmp_path, capsys, monkeypatch):
    prim = tmp_path / "prim.json"
    found = []
    for value in FIELD_VALUES:
        doc = json.loads(json.dumps(PRIMITIVE))
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        prim.write_text(json.dumps(doc))
        _, out = run(["rollout", "--dmp", prim, "--out", tmp_path / "replay.csv"], capsys, monkeypatch)
        found += [f"rollout with {'.'.join(map(str, path))} = {value!r}: {line}" for line in out]
    assert found == []
