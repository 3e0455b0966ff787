"""Malformed input files through ``cli.main``.

Each example starts from a valid primitive, scene (as a ``--scene`` file and
inline in a config), config, demonstration CSV or event script and breaks
it once: a value replaced by one of another JSON type, a key deleted or
added, the file truncated, a non-ASCII byte inserted. The command must exit
1 or 2 with exactly one line on stderr, never a traceback, and write
nothing.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lfdkit.cli import main
from lfdkit.dmp import fit_pose_dmp, save_dmp
from lfdkit.presets import default_bar_scene, default_camera, demo_pose_waypoints, make_smooth_demo
from lfdkit.vision import scene_to_dict

# one value of each JSON type; null is left out because a config may set an
# optional field to null
OTHER_VALUES = (True, 2.5, "x", [], [1, 2], {}, {"k": 1})

# every value in it is required and typed, so no replacement can be valid;
# a config may leave any key out, so config keys are never deleted
CONFIG = {
    "seed": 3,
    "dmp": {"n_basis": 20, "alpha_z": 25.0},
    "rollout": {"goal": [0.2, 0.1, 0.05, 1.0, 0.0, 0.0, 0.0], "horizon": 1.5},
    "teach": {"controller": "native", "max_duration": 60.0},
    "trial": {"n": 2, "clearance": 5e-4},
}

EVENTS = "0 pedal_press\n1 motion_done\n2 vision_ready\n3 pedal_press\n4 motion_done\n5 pedal_press\n"

EXAMPLES = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def json_type(value):
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    return type(value).__name__


def entries(doc, path=()):
    """(path, value) of every value below the root, depth first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from entries(value, path + (key,))


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def json_edits(doc, may_delete):
    """Edits of a parsed document, each a function returning its new text."""
    found = list(entries(doc))

    def replace(item, value):
        new = copy.deepcopy(doc)
        at(new, item[0][:-1])[item[0][-1]] = value
        return json.dumps(new)

    def delete(path):
        new = copy.deepcopy(doc)
        del at(new, path[:-1])[path[-1]]
        return json.dumps(new)

    def add(path):
        new = copy.deepcopy(doc)
        at(new, path)["bogus"] = 1
        return json.dumps(new)

    replacements = st.tuples(st.sampled_from(found), st.sampled_from(OTHER_VALUES)).filter(
        lambda e: json_type(e[0][1]) != json_type(e[1])
    )
    objects = [()] + [p for p, v in found if isinstance(v, dict)]
    edits = [replacements.map(lambda e: replace(*e)), st.sampled_from(objects).map(add)]
    if may_delete:
        edits.append(st.sampled_from([p for p in (p for p, _ in found) if isinstance(p[-1], str)]).map(delete))
    return st.one_of(edits)


def byte_edits(text, cuts):
    """A truncation at one of ``cuts``, or a non-ASCII byte anywhere."""
    data = text.encode("ascii")
    return st.one_of(
        st.sampled_from(cuts).map(lambda p: data[:p]),
        st.tuples(st.integers(0, len(data)), st.integers(0x80, 0xFF)).map(
            lambda e: data[: e[0]] + bytes([e[1]]) + data[e[0]:]
        ),
    )


def inside_lines(text):
    """Cuts that leave the last line incomplete."""
    return [p for p in range(1, len(text)) if text[p - 1] != "\n" and text[p] != "\n"]


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    root = tmp_path_factory.mktemp("valid")
    positions, quats = demo_pose_waypoints(seed=0)
    demo = make_smooth_demo(positions, 1.0, dt=0.05, orientations=quats)
    demo.save_csv(root / "demo.csv")
    save_dmp(fit_pose_dmp(demo, n_basis=10), root / "prim.json")
    return {
        "root": root,
        "prim": json.loads((root / "prim.json").read_text()),
        "demo": (root / "demo.csv").read_text(),
        "scene": scene_to_dict(default_bar_scene(), default_camera()),
    }


def run(root, name, data, *argv):
    """Write ``data`` to ``root/name`` and run the command on it; returns the
    exit code and stderr."""
    path = root / name
    path.write_bytes(data if isinstance(data, bytes) else data.encode("ascii"))
    out = root / "out"
    for stale in (out, root / "out.config.json"):
        stale.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([a.replace("{}", str(path)) for a in argv] + ["--out", str(out)])
    return code, err.getvalue()


COMMANDS = {
    "prim": ("prim.json", "rollout", "--dmp", "{}"),
    "scene": ("scene.json", "localize", "--scene", "{}"),
    "inline": ("config.json", "localize", "--config", "{}"),
    "config": ("config.json", "trial", "--config", "{}"),
    "demo": ("demo.csv", "fit", "--demo", "{}"),
    "events": ("events.txt", "trial", "--events", "{}"),
}


def check(valid, kind, data):
    """Run the command on ``data`` and return its exit code."""
    name, *argv = COMMANDS[kind]
    code, err = run(valid["root"], name, data, *argv)
    assert code in (1, 2) and err.count("\n") == 1 and "Traceback" not in err, (code, err)
    assert not (valid["root"] / "out.config.json").exists()
    return code


class TestValidFilesRun:
    """The starting points are valid, so every failure below is the edit's."""

    @pytest.mark.parametrize("kind", ["prim", "scene", "inline", "config", "demo"])
    def test_exits_0(self, valid, kind):
        data = {
            "prim": json.dumps(valid["prim"]),
            "scene": json.dumps(valid["scene"]),
            "inline": json.dumps({"scene": valid["scene"]}),
            "config": json.dumps({**CONFIG, "trial": {**CONFIG["trial"], "n": 1}}),
            "demo": valid["demo"],
        }[kind]
        name, *argv = COMMANDS[kind]
        if kind == "config":
            argv[0] = "localize"  # a trial would run; loading is what is checked
        assert run(valid["root"], name, data, *argv)[0] == 0

    def test_events_exit_0(self, valid):
        assert run(valid["root"], "events.txt", EVENTS, *COMMANDS["events"][1:])[0] == 0


class TestMalformedFiles:
    @EXAMPLES
    @given(data=st.data())
    def test_primitive(self, valid, data):
        doc = valid["prim"]
        text = json.dumps(doc)
        check(valid, "prim", data.draw(st.one_of(json_edits(doc, True), byte_edits(text, list(range(len(text)))))))

    @EXAMPLES
    @given(data=st.data())
    def test_scene_file(self, valid, data):
        doc = valid["scene"]
        text = json.dumps(doc)
        check(valid, "scene", data.draw(st.one_of(json_edits(doc, True), byte_edits(text, list(range(len(text)))))))

    @EXAMPLES
    @given(data=st.data())
    def test_inline_scene(self, valid, data):
        edited = json.loads(data.draw(json_edits(valid["scene"], True)))
        check(valid, "inline", json.dumps({"scene": edited}))

    @EXAMPLES
    @given(data=st.data())
    def test_config(self, valid, data):
        text = json.dumps(CONFIG)
        check(valid, "config", data.draw(st.one_of(json_edits(CONFIG, False), byte_edits(text, list(range(len(text)))))))

    @EXAMPLES
    @given(data=st.data())
    def test_demo_csv(self, valid, data):
        text = valid["demo"]
        lines = text.splitlines()
        # a row field replaced by a non-number, or the file cut just after a comma
        row = data.draw(st.integers(1, len(lines) - 1))
        col = data.draw(st.integers(0, 7))
        token = data.draw(st.sampled_from(["x", "", "nan", "1e999", "--1"]))
        fields = lines[row].split(",")
        fields[col] = token
        replaced = "\n".join(lines[:row] + [",".join(fields)] + lines[row + 1:]) + "\n"
        commas = [p + 1 for p, c in enumerate(text) if c == ","]
        check(valid, "demo", data.draw(st.one_of(st.just(replaced), byte_edits(text, commas))))

    @EXAMPLES
    @given(data=st.data())
    def test_event_script(self, valid, data):
        lines = EVENTS.splitlines()
        row = data.draw(st.integers(0, len(lines) - 1))
        time, kind = lines[row].split()
        # the last replacement comes before the line above it, or before 0
        field = data.draw(st.sampled_from([f"x {kind}", f"nan {kind}", f"-1 {kind}", f"{time} jump", time,
                                           f"{row - 1.5} {kind}"]))
        replaced = "\n".join(lines[:row] + [field] + lines[row + 1:]) + "\n"
        # every edit leaves a malformed script, never a trial that fails
        assert check(valid, "events", data.draw(st.one_of(st.just(replaced), byte_edits(EVENTS, inside_lines(EVENTS))))) == 2
