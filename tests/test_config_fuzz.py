"""Extreme config values through ``cli.main``, one field at a time.

Each case starts from a small runnable config, sets one field (a config
section's field or a key it once had, the seed, or a leaf of the inline
scene) to one of the values below, and runs the command that field feeds,
in process. Whatever the value, the run must keep the error contract:
exit 0, 1 or 2, at most one
``error:`` line on stderr, and no warning but ``ForcingUnderflow`` (matched
exactly, as it is a ``RuntimeWarning`` subclass, like numpy's floating-point
warnings).
"""

import copy
import json
import typing
import warnings

import pytest

from lfdkit import cli
from lfdkit.config import RunConfig
from lfdkit.dmp import ForcingUnderflow, fit_pose_dmp, save_dmp
from lfdkit.presets import default_bar_scene, default_camera, demo_pose_waypoints, make_smooth_demo
from lfdkit.vision import scene_to_dict

VALUES = (0, -0.0, -1, 5e-324, 1e-300, 1e-9, 0.5, 3, 1e9, 1e300, 1.7e308, 2**63, 2**70, True, "x", [], None)

# the command each part of the document feeds, and the rest of its config:
# a 1 s demonstration, one trial per batch and a coarse sweep keep the whole
# fuzz near 10 s
SHORT = {"trial": {"demo_duration": 1.0}}
COMMANDS = {
    "seed": ("trial", SHORT),
    "scene": ("trial", SHORT),
    "fit": ("fit", {"fit": {"demo": "{demo}"}}),
    "dmp": ("trial", SHORT),
    "rollout": ("rollout", {"rollout": {"dmp": "{prim}"}}),
    "teach": ("teach-sim", {}),
    "localize": ("localize", {}),
    "sweep": ("sweep", {"sweep": {"start_deg": -20.0, "stop_deg": 20.0, "step_deg": 20.0}}),
    "trial": ("batch", {"trial": {"n": 1, "demo_duration": 1.0}}),
    "metrics": ("metrics", {"metrics": {"trajectory": "{demo}"}}),
}

SCENE = scene_to_dict(default_bar_scene(), default_camera())


def scene_paths(doc, path=("scene",)):
    """The inline scene's fields: every key, each number list whole and its
    first element, and the first hole's fields (the other holes are alike)."""
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from scene_paths(value, path + (key,))
    elif isinstance(doc, list) and isinstance(doc[0], dict):
        yield from scene_paths(doc[0], path + (0,))
    elif isinstance(doc, list):
        yield path + (0,)


# the keys resolved configs carried while the robot's tick and lag and the
# taught path's span were teach settings
RETIRED = [("teach", "rate"), ("teach", "plant_time_constant"), ("teach", "waypoint_scale")]

FIELDS = [("seed",)] + [
    (section, key)
    for section, cls in typing.get_type_hints(RunConfig).items() if section not in ("seed", "scene")
    for key in typing.get_type_hints(cls)
] + RETIRED + list(scene_paths(SCENE))




@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A directory the cases share, as one per case would double the fuzz's
    time, holding a demonstration CSV and the primitive fitted from it."""
    root = tmp_path_factory.mktemp("fuzz")
    wp, quats = demo_pose_waypoints(seed=0)
    demo = make_smooth_demo(wp, duration=1.0, orientations=quats)
    demo.save_csv(root / "demo.csv")
    save_dmp(fit_pose_dmp(demo), root / "prim.json")
    return {"root": root, "demo": str(root / "demo.csv"), "prim": str(root / "prim.json")}


def document(path, value, inputs):
    command, base = COMMANDS[path[0]]
    doc = json.loads(json.dumps(base).replace('"{demo}"', json.dumps(inputs["demo"]))
                     .replace('"{prim}"', json.dumps(inputs["prim"])))
    if path[0] == "scene":
        doc["scene"] = copy.deepcopy(SCENE)
    node = doc
    for key in path[:-1]:
        node = node.setdefault(key, {}) if isinstance(node, dict) else node[key]
    node[path[-1]] = value
    return command, doc


def run(argv, capsys, monkeypatch):
    """Run ``cli.main`` on ``argv``: its exit status, and how it broke the
    error contract, as a list of lines."""
    seen = []
    monkeypatch.setattr(cli, "_warn_line", lambda message, category, *args, **kwargs: seen.append((category, message)))
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        code = cli.main([str(a) for a in argv])
    err = capsys.readouterr().err
    out = [] if code in (0, 1, 2) else [f"exit {code}"]
    if sum(line.startswith("error:") for line in err.splitlines()) > 1:
        out.append(f"stderr {err!r}")
    return code, out + [f"{c.__name__}: {m}" for c, m in seen if c is not ForcingUnderflow]


def breaches(path, value, inputs, capsys, monkeypatch):
    """How one case breaks the error contract, as a list of lines."""
    command, doc = document(path, value, inputs)
    cfg = inputs["root"] / "cfg.json"
    cfg.write_text(json.dumps(doc))
    _, out = run([command, "--config", cfg, "--out", inputs["root"] / "out.json"], capsys, monkeypatch)
    return [f"{command} with {'.'.join(map(str, path))} = {value!r}: {line}" for line in out]


# one test per field, each trying every value, as a test per case would add
# a third to the fuzz's time
@pytest.mark.parametrize("path", FIELDS, ids=lambda path: ".".join(map(str, path)))
def test_extreme_values_keep_the_error_contract(path, inputs, capsys, monkeypatch):
    assert [line for value in VALUES for line in breaches(path, value, inputs, capsys, monkeypatch)] == []
