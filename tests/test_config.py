"""Config document tests: defaults, recursive unknown-key rejection, typed
values, and resolved-document idempotence."""

import json

import pytest

from lfdkit.cli import main
from lfdkit.config import (
    RunConfig,
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
)
from lfdkit.trajectory import ParseError


class TestDefaults:
    def test_empty_document_is_runnable(self):
        cfg = config_from_dict({})
        assert cfg.seed == 0
        assert cfg.scene is None
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

    def test_typed_section_values(self):
        with pytest.raises(ParseError) as err:
            config_from_dict({"trial": {"n": "twenty"}})
        assert err.value.field == "trial.n"
        with pytest.raises(ParseError) as err:
            config_from_dict({"dmp": {"alpha_z": "fast"}})
        assert err.value.field == "dmp.alpha_z"
        with pytest.raises(ParseError):
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

    def test_document_must_be_an_object(self):
        with pytest.raises(ParseError):
            config_from_dict([1, 2])


# (section, key, out-of-range value, the rule the error states)
OUT_OF_RANGE = [
    ("teach", "plant_time_constant", 0, "must be positive"),
    ("teach", "rate", 0, "must be positive"),
    ("teach", "max_duration", -1.0, "must be positive"),
    ("teach", "force_noise_std", -0.1, "must be at least 0"),
    ("teach", "torque_noise_std", -0.1, "must be at least 0"),
    ("trial", "n", 0, "must be at least 1"),
    ("trial", "mask_points", 2, "must be at least 3"),
    ("trial", "demo_duration", 0, "must be positive"),
    ("rollout", "dt", 0, "must be positive"),
    ("rollout", "tau", 0, "must be positive"),
    ("rollout", "horizon", -1, "must be at least 0"),
    ("localize", "n_points", 2, "must be at least 3"),
    ("dmp", "n_basis", 1, "must be at least 2"),
    ("dmp", "dt", 0, "must be positive"),
    ("sweep", "step_deg", 0, "must be positive"),
]
out_of_range = pytest.mark.parametrize(
    "section, key, value, rule", OUT_OF_RANGE, ids=[f"{s}.{k}" for s, k, _, _ in OUT_OF_RANGE]
)


class TestRanges:
    @out_of_range
    def test_out_of_range_value_rejected_on_load(self, section, key, value, rule):
        with pytest.raises(ParseError) as err:
            config_from_dict({section: {key: value}})
        assert err.value.field == section
        assert f"{key} {rule}" in str(err.value)

    def test_nan_is_out_of_range(self):
        with pytest.raises(ParseError, match="rate must be positive"):
            config_from_dict({"teach": {"rate": float("nan")}})

    def test_boundary_values_accepted(self):
        cfg = config_from_dict(
            {
                "trial": {"n": 1, "mask_points": 3},
                "rollout": {"horizon": 0, "tau": None},
                "localize": {"n_points": 3},
                "dmp": {"n_basis": 2},
                "teach": {"force_noise_std": 0, "torque_noise_std": 0},
            }
        )
        assert cfg.trial.n == 1 and cfg.rollout.horizon == 0.0

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
