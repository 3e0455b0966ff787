"""Config document tests: defaults, recursive unknown-key rejection, typed
values, and resolved-document idempotence."""

import json
import math
import re
import types
import typing
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfdkit.assembly import _PLAN_DT, MAX_TRIALS
from lfdkit.cli import main
from lfdkit.config import RunConfig, TeachSection, config_from_dict, config_to_dict, load_config, save_config
from lfdkit.dmp import MAX_BASIS, basis_layout, rollout_steps
from lfdkit.ktc import MAX_FORCE_NOISE_STD, MAX_TEACH_STEPS, MAX_TORQUE_NOISE_STD, TEACH_RATE, simulate_demonstration
from lfdkit.presets import default_scenario, default_teach_setup
from lfdkit.se3 import quat_normalize
from lfdkit.trajectory import MAX_ROWS, ParseError
from lfdkit.vision import MAX_MASK_POINTS, MAX_NOISE_SIGMA, MAX_SWEEP_YAWS, detection_range_sweep, sweep_yaw_count
from lfdkit.vision import default_bar_scene, default_camera, locate_hole, scene_to_dict, synthesize_mask


class TestDefaults:
    def test_empty_document_is_runnable(self):
        cfg = config_from_dict({})
        assert cfg.seed == 0
        assert cfg.scene == scene_to_dict(default_bar_scene(), default_camera())
        assert cfg.dmp.n_basis == 50
        assert cfg.dmp.alpha_z == 25.0
        assert cfg.trial.n == 20
        assert cfg.trial.clearance == 5e-4
        assert cfg.teach.controller == "proposed"

    def test_resolved_document_is_idempotent(self):
        d1 = config_to_dict(config_from_dict({}))
        d2 = config_to_dict(config_from_dict(d1))
        assert d1 == d2
        # the default scene is materialized into the resolved document
        assert set(d1["scene"]) == {"bar", "camera"}

    def test_partial_section_keeps_other_defaults(self):
        cfg = config_from_dict({"trial": {"n": 5}})
        assert cfg.trial.n == 5
        assert cfg.trial.clearance == 5e-4


class TestRejection:
    def test_unknown_top_level_key(self):
        with pytest.raises(ParseError) as err:
            config_from_dict({"trail": {}})
        assert err.value.field == "trail"

    def test_unknown_nested_key(self):
        with pytest.raises(ParseError) as err:
            config_from_dict({"trial": {"bogus": 1}})
        assert err.value.field == "trial.bogus"
        assert "unknown key" in str(err.value)

    def test_section_must_be_an_object(self):
        with pytest.raises(ParseError) as err:
            config_from_dict({"dmp": 5})
        assert err.value.field == "dmp"

    def test_seed_must_be_an_integer(self):
        for bad in ("seven", 1.5, True):
            with pytest.raises(ParseError):
                config_from_dict({"seed": bad})

    def test_seed_must_be_nonnegative(self):
        with pytest.raises(ParseError, match="seed must be at least 0, got -1") as err:
            config_from_dict({"seed": -1})
        assert err.value.field == "seed"
        with pytest.raises(ValueError, match="seed"):
            RunConfig(seed=-1)

    def test_typed_section_values(self):
        with pytest.raises(ParseError) as err:
            config_from_dict({"trial": {"n": "twenty"}})
        assert err.value.field == "trial.n"
        with pytest.raises(ParseError) as err:
            config_from_dict({"dmp": {"alpha_z": "fast"}})
        assert err.value.field == "dmp.alpha_z"
        # a value of another kind than an optional field's is named against its type
        with pytest.raises(ParseError, match=r"field 'rollout.start': expected a list, got str"):
            config_from_dict({"rollout": {"start": "0,0,0"}})

    def test_optional_fields_accept_null_and_values(self):
        cfg = config_from_dict(
            {"dmp": {"beta_z": None}, "trial": {"hole_id": 2, "yaw_deg": -10.0}}
        )
        assert cfg.dmp.beta_z is None
        assert cfg.trial.hole_id == 2
        assert cfg.trial.yaw_deg == -10.0

    def test_int_accepted_where_float_expected(self):
        cfg = config_from_dict({"dmp": {"alpha_z": 20}})
        assert cfg.dmp.alpha_z == 20.0
        assert isinstance(cfg.dmp.alpha_z, float)

    def test_bad_scene_named(self):
        with pytest.raises(ParseError) as err:
            config_from_dict({"scene": {"bar": {}}})
        assert err.value.field == "scene"

    def test_null_scene_refused(self):
        # omitting the key is the one way to ask for the default scene
        with pytest.raises(ParseError) as err:
            config_from_dict({"scene": None})
        assert (err.value.field, err.value.message) == ("scene", "scene must be an object, got NoneType")

    def test_document_must_be_an_object(self):
        with pytest.raises(ParseError):
            config_from_dict([1, 2])

    def test_gate_mode_is_an_unknown_key(self):
        # configs written while a second forcing law existed carry it
        with pytest.raises(ParseError, match="unknown key") as err:
            config_from_dict({"dmp": {"gate_mode": "phase-gated"}})
        assert err.value.field == "dmp.gate_mode"

    @pytest.mark.parametrize("key, value", [("rate", 100.0), ("plant_time_constant", 0.05), ("waypoint_scale", 0.12)])
    def test_retired_teach_key_is_unknown(self, capsys, tmp_path, key, value):
        # the robot's tick and lag are ktc constants and the taught path is
        # the preset's; every resolved config written while they were
        # settable carries these keys
        with pytest.raises(ParseError, match="unknown key") as err:
            config_from_dict({"teach": {key: value}})
        assert err.value.field == f"teach.{key}"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"teach": {key: value}}))
        code = main(["teach-sim", "--config", str(cfg), "--out", str(tmp_path / "out.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: {cfg}:0: field 'teach.{key}': unknown key\n"
        assert list(tmp_path.iterdir()) == [cfg]

    def test_teach_section_holds_no_robot_constant(self):
        assert [f.name for f in fields(TeachSection)] == [
            "controller", "max_duration", "force_noise_std", "torque_noise_std"
        ]

    def test_integer_past_the_float_range(self):
        # a plain, an optional and a tuple float field report the same rule
        for section, key, value in [
            ("dmp", "alpha_z", 10**400),
            ("trial", "yaw_deg", 10**400),
            ("rollout", "start", [10**400, 0, 0, 1, 0, 0, 0]),
        ]:
            with pytest.raises(ParseError, match="out of the float range") as err:
                config_from_dict({section: {key: value}})
            assert err.value.field == f"{section}.{key}"


# (section, key, out-of-range value, the rule the error states)
OUT_OF_RANGE = [
    ("teach", "max_duration", -1.0, "must be positive"),
    ("teach", "force_noise_std", -0.1, "must be at least 0"),
    ("teach", "torque_noise_std", -0.1, "must be at least 0"),
    ("trial", "n", 0, "must be at least 1"),
    ("trial", "mask_points", 2, "must be at least 3"),
    ("trial", "demo_duration", 0, "must be positive"),
    # the trial replays its primitive (tau = demo_duration) at 1 ms steps
    ("trial", "demo_duration", 0.05, "is the plan rollout's tau: dt must lie in (0, tau/100]"),
    ("rollout", "dt", 0, "must be positive"),
    ("rollout", "tau", 0, "must be positive"),
    ("rollout", "horizon", -1, "must be at least 0"),
    ("localize", "n_points", 2, "must be at least 3"),
    ("dmp", "n_basis", 1, "must be at least 2"),
    ("dmp", "dt", 0, "must be positive"),
    ("sweep", "step_deg", 0, "must be positive"),
    ("trial", "noise_sigma", -1e-3, "must be at least 0"),
    ("trial", "dropout", 1.5, "must be below 1"),
    ("localize", "noise_sigma", -1, "must be at least 0"),
    ("localize", "dropout", 1.0, "must be below 1"),
    ("sweep", "noise_sigma", -1e-3, "must be at least 0"),
    ("sweep", "dropout", -0.1, "must be at least 0"),
    ("rollout", "start", [1, 2], "must have 7 values"),
    ("rollout", "goal", [0, 0, 0, 0, 0, 0, 0], "must have 7 values (px,py,pz,qw,qx,qy,qz) with a nonzero quaternion"),
    ("teach", "controller", "foo", "must be 'proposed' or 'native'"),
    ("dmp", "alpha_z", -1, "must be positive"),
    ("dmp", "beta_z", -1, "must be positive"),
    ("dmp", "alpha_s", 0, "must be positive"),
    ("trial", "clearance", -1, "must be positive"),
    ("trial", "tilt_tol_deg", 0, "must be positive"),
    ("trial", "tilt_tol_deg", 5e-324, "must be positive in radians"),
    ("trial", "required_depth", 0, "must be positive"),
    ("trial", "standoff", 0, "must be positive"),
    ("trial", "plan_overtravel", -1e-3, "must be at least 0"),
    ("trial", "yaw_limit_deg", -1, "must be at least 0"),
    ("sweep", "tolerance", -1, "must be positive"),
    # at the default n_basis 50: the last basis gap squared underflows (400),
    # or the last center itself does (1000)
    ("dmp", "alpha_s", 400, "must keep every basis center above 0 and width finite"),
    ("dmp", "alpha_s", 1000, "must keep every basis center above 0 and width finite"),
    # or two neighbouring centers round onto one float: the fit and the
    # trial warned and failed, the fit writing no primitive
    ("dmp", "alpha_s", 3e-15, "must keep every basis center above 0 and width finite"),
    # teaching ended at run time: the positions overflowed, or a turn left se3's domain
    ("teach", "force_noise_std", 1.7e308, f"must be at most {MAX_FORCE_NOISE_STD}"),
    ("teach", "torque_noise_std", 1e9, f"must be at most {MAX_TORQUE_NOISE_STD}"),
    # the vision fit overflowed with numpy warnings and failed on numpy's own text
    ("trial", "noise_sigma", 1e300, f"must be at most {MAX_NOISE_SIGMA}"),
    ("localize", "noise_sigma", 1.5, f"must be at most {MAX_NOISE_SIGMA}"),
]


def _row_ids(rows):
    """section.key, with the value appended for a key already listed."""
    seen, ids = set(), []
    for section, key, value, _ in rows:
        ids.append(f"{section}.{key}" if (section, key) not in seen else f"{section}.{key}={value}")
        seen.add((section, key))
    return ids


out_of_range = pytest.mark.parametrize("section, key, value, rule", OUT_OF_RANGE, ids=_row_ids(OUT_OF_RANGE))


class TestRanges:
    @out_of_range
    def test_out_of_range_value_rejected_on_load(self, section, key, value, rule):
        with pytest.raises(ParseError) as err:
            config_from_dict({section: {key: value}})
        assert err.value.field == section
        assert f"{key} {rule}" in str(err.value)

    def test_overflowing_quaternion_normalizes(self):
        # its squares overflow; se3 once refused it, while a trajectory row of
        # the same scale normalized
        cfg = config_from_dict({"rollout": {"start": [0, 0, 0, 1e200, 0, 0, 0]}})
        assert quat_normalize(*cfg.rollout.start[3:]) == (1.0, 0.0, 0.0, 0.0)
        with pytest.raises(ParseError, match="start must have 7 values"):
            config_from_dict({"rollout": {"start": [0, 0, 0, 0, 0, 0, 0]}})

    def test_nan_is_out_of_range(self):
        with pytest.raises(ParseError, match="max_duration must be positive"):
            config_from_dict({"teach": {"max_duration": float("nan")}})

    def test_boundary_values_accepted(self):
        cfg = config_from_dict(
            {
                "trial": {"n": 1, "mask_points": 3, "plan_overtravel": 0, "yaw_limit_deg": 0,
                          "noise_sigma": MAX_NOISE_SIGMA},
                "rollout": {"horizon": 0, "tau": None},
                "localize": {"n_points": 3},
                "dmp": {"n_basis": 2},
                "teach": {"force_noise_std": 0, "torque_noise_std": 0, "controller": "native"},
            }
        )
        assert cfg.trial.n == 1 and cfg.rollout.horizon == 0.0

    def test_n_basis_past_float_range_is_a_parse_error(self):
        # the cap is an integer comparison, made before any float arithmetic on n_basis
        with pytest.raises(ParseError, match=f"n_basis must be at most {MAX_BASIS}"):
            config_from_dict({"dmp": {"n_basis": 10**400}})

    @pytest.mark.parametrize("n_basis, alpha_s", [(50, 350.0), (10, 399.6), (2, 745.0)])
    def test_finite_basis_layout_accepted(self, n_basis, alpha_s):
        cfg = config_from_dict({"dmp": {"n_basis": n_basis, "alpha_s": alpha_s}})
        assert cfg.dmp.alpha_s == alpha_s

    @pytest.mark.parametrize("command", ["trial", "teach-sim"])
    @out_of_range
    def test_cli_exits_2_before_writing(self, capsys, tmp_path, command, section, key, value, rule):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({section: {key: value}}))
        code = main([command, "--seed", "3", "--config", str(cfg), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and f"{key} {rule}" in err and "Traceback" not in err
        assert not (tmp_path / "out.config.json").exists()


# allocation caps; every value here is rejected before anything is allocated
OVER_CAP = [
    ("trial", "mask_points", MAX_MASK_POINTS + 1, f"must be at most {MAX_MASK_POINTS}"),
    ("localize", "n_points", 10**12, f"must be at most {MAX_MASK_POINTS}"),
    ("dmp", "n_basis", 10**9, f"must be at most {MAX_BASIS}"),
    ("trial", "n", 10**12, f"must be at most {MAX_TRIALS}"),
]


class TestBounds:
    @pytest.mark.parametrize("section, key, value, rule", OVER_CAP, ids=[f"{s}.{k}" for s, k, _, _ in OVER_CAP])
    def test_point_counts_are_capped(self, section, key, value, rule):
        with pytest.raises(ParseError, match=f"{key} {rule}"):
            config_from_dict({section: {key: value}})

    @pytest.mark.parametrize(
        "sweep",
        [
            {"step_deg": 1e-9},  # would be 1.6e11 yaws
            {"start_deg": -80.0, "stop_deg": 80.0, "step_deg": 160.0 / MAX_SWEEP_YAWS},
            {"stop_deg": float("inf")},
            {"start_deg": float("nan")},
            {"start_deg": 0.0, "stop_deg": 0.0, "step_deg": 5e-324},  # 0 rad: refused on load, not at run time
        ],
        ids=["tiny-step", "one-over", "infinite-stop", "nan-start", "step-zero-in-radians"],
    )
    def test_sweep_grid_is_capped(self, sweep):
        with pytest.raises(ParseError) as err:
            config_from_dict({"sweep": sweep})
        assert err.value.field == "sweep"

    def test_sweep_stop_below_start_rejected(self):
        with pytest.raises(ParseError, match="stop_deg must be at least start_deg"):
            config_from_dict({"sweep": {"start_deg": 10.0, "stop_deg": -10.0}})

    def test_values_at_the_caps_accepted(self):
        cfg = config_from_dict(
            {
                "trial": {"mask_points": MAX_MASK_POINTS, "dropout": 0.999, "noise_sigma": 0},
                "localize": {"n_points": MAX_MASK_POINTS, "dropout": 0},
                "sweep": {"start_deg": 0.0, "stop_deg": float(MAX_SWEEP_YAWS - 1), "step_deg": 1.0},
            }
        )
        assert cfg.trial.mask_points == MAX_MASK_POINTS and cfg.sweep.stop_deg == MAX_SWEEP_YAWS - 1


    # each would allocate more rows than dmp.MAX_ROWS: the rollout at call
    # time (tau set here), the trial's fit at dmp.dt, the trial's plan
    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"rollout": {"tau": 1e9}}, "rollout"),
            ({"rollout": {"tau": 1.0, "dt": 1e-9}}, "rollout"),
            ({"rollout": {"tau": 1.0, "horizon": 1e300}}, "rollout"),
            ({"dmp": {"dt": 1e-9}}, "dmp.dt"),
            ({"trial": {"demo_duration": 1e9}}, "trial"),
        ],
        ids=["rollout-tau", "rollout-dt", "rollout-horizon", "dmp-dt", "trial-demo-duration"],
    )
    def test_dmp_rows_are_capped(self, doc, field):
        with pytest.raises(ParseError, match=f"more than the cap of {MAX_ROWS}") as err:
            config_from_dict(doc)
        assert err.value.field == field

    def test_basis_and_trial_counts_at_the_caps(self):
        cfg = config_from_dict({"dmp": {"n_basis": MAX_BASIS}, "trial": {"n": MAX_TRIALS}})
        assert (cfg.dmp.n_basis, cfg.trial.n) == (MAX_BASIS, MAX_TRIALS)
        for section, key, cap in (("dmp", "n_basis", MAX_BASIS), ("trial", "n", MAX_TRIALS)):
            with pytest.raises(ParseError, match=f"{key} must be at most {cap}, got {cap + 1}") as err:
                config_from_dict({section: {key: cap + 1}})
            assert err.value.field == section

    @pytest.mark.parametrize("section, key", [("dmp", "n_basis"), ("trial", "n")])
    def test_cli_config_past_a_cap_exits_2(self, capsys, tmp_path, section, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({section: {key: 10**12}}))
        code = main(["batch", "--config", str(cfg), "--out", str(tmp_path / "out.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and f"{key} must be at most" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_cli_n_past_the_cap_exits_1(self, capsys, tmp_path):
        code = main(["batch", "--n", str(MAX_TRIALS + 1), "--out", str(tmp_path / "out.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: n must be at most {MAX_TRIALS}, got {MAX_TRIALS + 1}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"dmp": {"n_basis": 10**400}}, "n_basis"),
            ({"trial": {"n": 10**400}}, "n"),
            ({"trial": {"n": -(10**400)}}, "n"),
            ({"trial": {"hole_id": 10**400}}, "hole_id"),
            ({"localize": {"n_points": 10**400}}, "n_points"),
            ({"trial": {"mask_points": 10**400}}, "mask_points"),
            ({"seed": -(10**400)}, "seed"),
        ],
        ids=["n_basis", "trial.n", "trial.n-negative", "trial.hole_id", "localize.n_points",
             "trial.mask_points", "seed-negative"],
    )
    def test_huge_integer_is_named_in_one_short_line(self, capsys, tmp_path, doc, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code = main(["batch", "--config", str(cfg), "--out", str(tmp_path / "out.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and len(err) < 200 and key in err
        assert "(401 digits)" in err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_teach_steps_are_capped(self):
        at_cap = MAX_TEACH_STEPS / TEACH_RATE
        assert at_cap == 3600.0
        assert config_from_dict({"teach": {"max_duration": at_cap}}).teach.max_duration == at_cap
        with pytest.raises(ParseError, match=f"teach steps exceeds {MAX_TEACH_STEPS}") as err:
            config_from_dict({"teach": {"max_duration": 3600.01}})
        assert err.value.field == "teach"


# every value here passes the field's range rule, if it has one, and is
# rejected only for not being finite
NON_FINITE = [
    ({"teach": {"max_duration": float("inf")}}, "max_duration"),
    ({"rollout": {"horizon": float("inf")}}, "horizon"),
    ({"rollout": {"goal": [0.0, 0.0, float("nan"), 1.0, 0.0, 0.0, 0.0]}}, "goal"),
    ({"trial": {"yaw_deg": float("-inf")}}, "yaw_deg"),
    ({"sweep": {"tolerance": float("inf")}}, "tolerance"),
    ({"dmp": {"alpha_z": float("inf")}}, "alpha_z"),
    ({"localize": {"noise_sigma": float("inf")}}, "noise_sigma"),
]


class TestNonFinite:
    @pytest.mark.parametrize("doc, key", NON_FINITE, ids=[k for _, k in NON_FINITE])
    def test_rejected_on_load(self, doc, key):
        with pytest.raises(ParseError, match=f"{key} must be finite") as err:
            config_from_dict(doc)
        assert err.value.field == next(iter(doc))

    @pytest.mark.parametrize("command", ["trial", "teach-sim"])
    @pytest.mark.parametrize(
        "doc, rule",
        [
            ({"teach": {"max_duration": float("inf")}}, "max_duration must be finite"),
            ({"rollout": {"horizon": float("inf")}}, "horizon must be finite"),
            ({"trial": {"yaw_deg": float("nan")}}, "yaw_deg must be finite"),
            ({"teach": {"max_duration": 1e9}}, f"teach steps exceeds {MAX_TEACH_STEPS}"),
        ],
        ids=["infinite-teach", "infinite-horizon", "nan-yaw", "teach-over-cap"],
    )
    def test_cli_exits_2_before_writing(self, capsys, tmp_path, command, doc, rule):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))  # writes Infinity / NaN, which json.load accepts
        code = main([command, "--seed", "3", "--config", str(cfg), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and rule in err and "Traceback" not in err
        assert not (tmp_path / "out.config.json").exists()


# loaded once, each of these failed in the command that used it: the
# trial's fit smooths demo derivatives over 5 samples, and a rollout steps
# at most tau/100
UNRUNNABLE = [
    ({"dmp": {"dt": 10}}, "dmp.dt", "a 4 s demonstration at dt = 10 gives 1 of the 5 samples fitting needs"),
    ({"dmp": {"dt": 1.5}}, "dmp.dt", "gives 4 of the 5 samples fitting needs"),
    ({"rollout": {"tau": 1.0, "dt": 0.5}}, "rollout", "dt must lie in (0, tau/100]"),
]


class TestRunnable:
    @pytest.mark.parametrize("doc, field, rule", UNRUNNABLE, ids=["coarse-fit", "4-samples", "rollout-dt"])
    def test_rejected_on_load(self, doc, field, rule):
        with pytest.raises(ParseError, match=re.escape(rule)) as err:
            config_from_dict(doc)
        assert err.value.field == field

    @pytest.mark.parametrize("doc, field, rule", UNRUNNABLE[:2], ids=["coarse-fit", "4-samples"])
    def test_cli_exits_2_before_writing(self, capsys, tmp_path, doc, field, rule):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code = main(["batch", "--n", "1", "--config", str(cfg), "--out", str(tmp_path / "out.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and rule in err and f"field '{field}'" in err and "Traceback" not in err
        assert not (tmp_path / "out.json.config.json").exists()

    @pytest.mark.parametrize("doc", [{"trial": {"demo_duration": 0.1}}, {"dmp": {"dt": 1.0}}], ids=["tau-0.1", "5-samples"])
    def test_edge_configs_run(self, tmp_path, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["trial", "--seed", "3", "--config", str(cfg), "--out", str(tmp_path / "t.json")]) == 0


class TestHoleIds:
    @pytest.mark.parametrize("section", ["localize", "trial"])
    @pytest.mark.parametrize("hole_id", [3, 7, -1])
    def test_outside_the_default_scene_rejected(self, section, hole_id):
        with pytest.raises(ParseError) as err:
            config_from_dict({section: {"hole_id": hole_id}})
        assert err.value.field == f"{section}.hole_id"
        assert "0..2" in str(err.value)

    def test_checked_against_the_inline_scene(self):
        doc = config_to_dict(RunConfig())
        doc["scene"]["bar"]["holes"] = doc["scene"]["bar"]["holes"][:1]
        doc["localize"]["hole_id"] = 1
        with pytest.raises(ParseError, match="0..0"):
            config_from_dict(doc)
        doc["localize"]["hole_id"] = 0
        assert config_from_dict(doc).localize.hole_id == 0


def _teach(**kwargs):
    return simulate_demonstration(*default_teach_setup("proposed"), **kwargs)


def _trial(scenario, **settings):
    return replace(scenario, trial=replace(scenario.trial, **settings))


HOLE_7 = "hole id 7 outside the scene's holes 0..2"
# one row per rule that the config shares with the library: the config
# document, the library call on the default scenario that owns the rule, and
# the one text both give
ONE_RULE = [
    pytest.param({"localize": {"hole_id": 7}}, lambda sc: synthesize_mask(sc.scene, sc.cam, 7), HOLE_7,
                 id="hole_id-synthesize_mask"),
    pytest.param({"trial": {"hole_id": 7}}, lambda sc: _trial(sc, hole_id=7), HOLE_7, id="hole_id-scenario"),
    pytest.param({"trial": {"noise_sigma": -1}}, lambda sc: _trial(sc, noise_sigma=-1.0),
                 "noise_sigma must be at least 0, got -1.0", id="noise_sigma-scenario"),
    pytest.param({"localize": {"noise_sigma": math.inf}},
                 lambda sc: synthesize_mask(sc.scene, sc.cam, 0, noise_sigma=math.inf),
                 "noise_sigma must be finite, got inf", id="noise_sigma-synthesize_mask"),
    pytest.param({"trial": {"noise_sigma": 1e300}}, lambda sc: synthesize_mask(sc.scene, sc.cam, 0, noise_sigma=1e300),
                 f"noise_sigma must be at most {MAX_NOISE_SIGMA}, got 1e+300", id="noise_sigma-cap"),
    pytest.param({"localize": {"dropout": 1.0}}, lambda sc: synthesize_mask(sc.scene, sc.cam, 0, dropout=1.0),
                 "dropout must be below 1, got 1.0", id="dropout-synthesize_mask"),
    pytest.param({"sweep": {"dropout": -0.1}},
                 lambda sc: detection_range_sweep(sc.scene, sc.cam, 0.0, 0.1, 0.1, dropout=-0.1),
                 "dropout must be at least 0, got -0.1", id="dropout-detection_range_sweep"),
    pytest.param({"trial": {"mask_points": 2}}, lambda sc: _trial(sc, mask_points=2),
                 "mask_points must be at least 3, got 2", id="mask_points-scenario"),
    pytest.param({"trial": {"mask_points": MAX_MASK_POINTS + 1}},
                 lambda sc: _trial(sc, mask_points=MAX_MASK_POINTS + 1),
                 f"mask_points must be at most {MAX_MASK_POINTS}, got {MAX_MASK_POINTS + 1}", id="mask_points-cap"),
    pytest.param({"localize": {"n_points": MAX_MASK_POINTS + 1}},
                 lambda sc: synthesize_mask(sc.scene, sc.cam, 0, n_points=MAX_MASK_POINTS + 1),
                 f"n_points must be at most {MAX_MASK_POINTS}, got {MAX_MASK_POINTS + 1}", id="n_points-cap"),
    pytest.param({"seed": -1}, lambda sc: replace(sc, seed=-1), "seed must be at least 0, got -1", id="seed-scenario"),
    pytest.param({"seed": -1}, lambda sc: detection_range_sweep(sc.scene, sc.cam, 0.0, 0.1, 0.1, seed=-1),
                 "seed must be at least 0, got -1", id="seed-detection_range_sweep"),
    # numpy's own text ("expected non-negative integer") once came from these draws
    pytest.param({"seed": -1}, lambda sc: synthesize_mask(sc.scene, sc.cam, 1, seed=-1),
                 "seed must be at least 0, got -1", id="seed-synthesize_mask"),
    pytest.param({"seed": -1}, lambda sc: locate_hole(sc.scene, sc.cam, 1, seed=-1),
                 "seed must be at least 0, got -1", id="seed-locate_hole"),
    pytest.param({"seed": -1}, lambda sc: _teach(seed=-1), "seed must be at least 0, got -1",
                 id="seed-simulate_demonstration"),
    pytest.param({"trial": {"n": 0}}, lambda sc: _trial(sc, n=0), "n must be at least 1, got 0", id="n-scenario"),
    pytest.param({"trial": {"n": MAX_TRIALS + 1}}, lambda sc: _trial(sc, n=MAX_TRIALS + 1),
                 f"n must be at most {MAX_TRIALS}, got {MAX_TRIALS + 1}", id="n-cap"),
    pytest.param({"trial": {"clearance": 0}}, lambda sc: _trial(sc, clearance=0.0),
                 "clearance must be positive, got 0.0", id="clearance"),
    pytest.param({"trial": {"required_depth": math.nan}}, lambda sc: _trial(sc, required_depth=math.nan),
                 "required_depth must be positive, got nan", id="required_depth"),
    pytest.param({"trial": {"standoff": math.inf}}, lambda sc: _trial(sc, standoff=math.inf),
                 "standoff must be finite, got inf", id="standoff"),
    pytest.param({"trial": {"plan_overtravel": -1e-3}}, lambda sc: _trial(sc, plan_overtravel=-1e-3),
                 "plan_overtravel must be at least 0, got -0.001", id="plan_overtravel"),
    pytest.param({"trial": {"tilt_tol_deg": 0}}, lambda sc: _trial(sc, tilt_tol_deg=0.0),
                 "tilt_tol_deg must be positive, got 0.0", id="tilt_tol_deg"),
    pytest.param({"dmp": {"n_basis": 1}}, lambda sc: basis_layout(1, 25.0 / 3.0),
                 "n_basis must be at least 2, got 1", id="n_basis"),
    pytest.param({"dmp": {"alpha_s": math.nan}}, lambda sc: basis_layout(50, math.nan),
                 "alpha_s must be positive, got nan", id="alpha_s"),
    pytest.param({"dmp": {"alpha_s": math.inf}}, lambda sc: basis_layout(50, math.inf),
                 "alpha_s must be finite, got inf", id="alpha_s-inf"),
    pytest.param({"rollout": {"tau": 0}}, lambda sc: rollout_steps(0.0, 1e-3), "tau must be positive, got 0.0",
                 id="rollout-tau"),
    pytest.param({"rollout": {"horizon": -1}}, lambda sc: rollout_steps(1.0, 1e-3, -1.0),
                 "horizon must be at least 0, got -1.0", id="rollout-horizon"),
    # a nan or negative spread would otherwise teach noise-free without a word
    pytest.param({"teach": {"force_noise_std": math.nan}}, lambda sc: _teach(force_noise_std=math.nan),
                 "force_noise_std must be at least 0, got nan", id="force_noise_std-nan"),
    pytest.param({"teach": {"torque_noise_std": -1.0}}, lambda sc: _teach(torque_noise_std=-1.0),
                 "torque_noise_std must be at least 0, got -1.0", id="torque_noise_std-negative"),
    pytest.param({"teach": {"force_noise_std": math.inf}}, lambda sc: _teach(force_noise_std=math.inf),
                 "force_noise_std must be finite, got inf", id="force_noise_std-inf"),
    pytest.param({"sweep": {"tolerance": 0}},
                 lambda sc: detection_range_sweep(sc.scene, sc.cam, 0.0, 0.1, 0.1, tolerance=0.0),
                 "tolerance must be positive, got 0.0", id="tolerance-detection_range_sweep"),
    pytest.param({"teach": {"max_duration": 3600.01}}, lambda sc: _teach(max_duration=3600.01),
                 f"max_duration * TEACH_RATE = 360001 teach steps exceeds {MAX_TEACH_STEPS}", id="teach-steps"),
    pytest.param({"sweep": {"start_deg": 10.0, "stop_deg": -10.0}},
                 lambda sc: sweep_yaw_count(0.1, -0.1, 0.01, "step_deg", start_name="start_deg", stop_name="stop_deg"),
                 "stop_deg must be at least start_deg", id="sweep-order"),
]


@pytest.fixture(scope="module")
def scenario():
    return default_scenario(noise_sigma=0.0)


class TestOneRule:
    @pytest.mark.parametrize("doc, call, text", ONE_RULE)
    def test_config_and_library_give_one_text(self, scenario, doc, call, text):
        with pytest.raises(ParseError) as err:
            config_from_dict(doc)
        assert err.value.message == text
        with pytest.raises(ValueError) as err:
            call(scenario)
        assert str(err.value) == text

    def test_tilt_that_is_zero_in_radians_is_refused_on_load(self):
        # positive in degrees, 0 in the radians a trial compares its tilt in
        with pytest.raises(ParseError) as err:
            config_from_dict({"trial": {"tilt_tol_deg": 5e-324}})
        assert err.value.message == "tilt_tol_deg must be positive in radians, got 5e-324"


class TestFiles:
    def test_save_load_round_trip(self, tmp_path):
        cfg = config_from_dict({"seed": 3, "trial": {"n": 4}, "rollout": {"start": [0, 0, 0, 1, 0, 0, 0]}})
        path = tmp_path / "run.json"
        save_config(cfg, path)
        again = load_config(path)
        assert config_to_dict(again) == config_to_dict(cfg)
        assert again.rollout.start == (0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0)

    def test_malformed_json_names_file_and_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "seed": 1,\n}\n')
        with pytest.raises(ParseError) as err:
            load_config(path)
        assert str(path) in str(err.value)
        assert err.value.line == 3

    def test_default_config_object_matches_empty_document(self):
        assert config_to_dict(RunConfig()) == config_to_dict(config_from_dict({}))
        # the resolved document is valid JSON and ascii
        text = json.dumps(config_to_dict(RunConfig()))
        text.encode("ascii")


# a document sets up to four fields, each to a value on either side of its
# rules and caps: mostly of the field's own type (small ints, moderate
# floats, the caps and one past them), one in eight anything JSON can carry,
# huge, non-finite or of the wrong type
_COUNTS = st.one_of(
    st.integers(0, 300),
    st.sampled_from([MAX_BASIS, MAX_BASIS + 1, MAX_TRIALS, MAX_TRIALS + 1, MAX_MASK_POINTS, MAX_MASK_POINTS + 1]),
)
_WILD = st.one_of(
    st.integers(-(10**15), 10**15),
    st.just(10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.lists(st.floats(), max_size=8),
)


def _of_type(hint):
    """Values of the kind a field of this type annotation reads."""
    arms = typing.get_args(hint) if isinstance(hint, types.UnionType) else (hint,)
    kinds = {
        type(None): st.none(),
        int: _COUNTS,
        float: st.one_of(_COUNTS, st.floats(1e-4, 1e4)),
        str: st.sampled_from(["proposed", "native", "x"]),
    }
    return st.one_of([kinds.get(arm, st.lists(st.floats(-2.0, 2.0), min_size=7, max_size=7)) for arm in arms])


def _setting(section, key, hint):
    value = st.integers(0, 7).flatmap(lambda k: _WILD if k == 0 else _of_type(hint))
    return value.map(lambda v: (section, key, v))


def _document(entries):
    doc = {}
    for section, key, value in entries:
        if key is None:
            doc[section] = value
        else:
            doc.setdefault(section, {})[key] = value
    return doc


_FIELDS = [("seed", None, int)] + [
    (name, key, hint)
    for name, cls in typing.get_type_hints(RunConfig).items() if name not in ("seed", "scene")
    for key, hint in typing.get_type_hints(cls).items()
]
_DOCUMENT = st.lists(st.sampled_from(_FIELDS).flatmap(lambda f: _setting(*f)), max_size=4).map(_document)


def _derived_sizes(cfg: RunConfig) -> dict:
    """(size, cap) of everything a run of this config allocates in
    proportion to a config value, computed as the consumer computes it."""
    r, t, sw = cfg.rollout, cfg.trial, cfg.sweep
    span = math.radians(sw.stop_deg) - math.radians(sw.start_deg)
    fit_rows = t.demo_duration / cfg.dmp.dt + 1
    plan_rows = 1.5 * t.demo_duration / _PLAN_DT + 1
    sizes = {
        "dmp.n_basis": (cfg.dmp.n_basis, MAX_BASIS),
        "trial.n": (t.n, MAX_TRIALS),
        "trial.mask_points": (t.mask_points, MAX_MASK_POINTS),
        "localize.n_points": (cfg.localize.n_points, MAX_MASK_POINTS),
        "trial demo grid": (fit_rows, MAX_ROWS),
        "trial preset demo": (t.demo_duration / 1e-3 + 1, MAX_ROWS),
        "trial plan rollout": (plan_rows, MAX_ROWS),
        # samples x bases, in the fit's regression and in the plan's rollout
        "trial fit activations": (fit_rows * cfg.dmp.n_basis, MAX_ROWS * MAX_BASIS),
        "trial plan activations": (plan_rows * cfg.dmp.n_basis, MAX_ROWS * MAX_BASIS),
        "teach ticks": (math.ceil(cfg.teach.max_duration * TEACH_RATE), MAX_TEACH_STEPS),
        "sweep yaws": (math.floor(span / math.radians(sw.step_deg) + 1e-9) + 1, MAX_SWEEP_YAWS),
    }
    if r.tau is not None:
        sizes["rollout rows"] = (r.horizon * r.tau / r.dt + 1, MAX_ROWS)
    return sizes


class TestLoadProperty:
    @settings(max_examples=400, deadline=None)
    @given(_DOCUMENT)
    def test_accepted_documents_stay_under_every_cap(self, doc):
        # a rejected document raises ParseError and nothing else
        try:
            cfg = config_from_dict(doc)
        except ParseError:
            return
        for name, (size, cap) in _derived_sizes(cfg).items():
            assert size <= cap, (name, size, cap)
