"""CLI tests: exit codes, file artifacts, the resolved-config reproduction
guarantee, and single-line machine-parsable errors."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lfdkit
from lfdkit.cli import main
from lfdkit.dmp import load_dmp
from lfdkit.trajectory import load_trajectory_csv


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rerun_is_byte_identical(capsys, out_path, command, *extra):
    """Re-run a command from its emitted resolved config into a new path."""
    twin = out_path.parent / f"twin_{out_path.name}"
    code, _, err = run(
        capsys, command, "--config", f"{out_path}.config.json", "--out", twin, *extra
    )
    assert code == 0, err
    return out_path.read_bytes() == twin.read_bytes()


@pytest.fixture(scope="module")
def demo_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "demo.csv"
    assert main(["teach-sim", "--seed", "0", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def smooth_prim(tmp_path_factory):
    """Primitive fitted (via the CLI) from an at-rest smooth demo, the family
    the replay round-trip bound is stated for."""
    from lfdkit.presets import demo_pose_waypoints, make_smooth_demo

    root = tmp_path_factory.mktemp("prim")
    wp, quats = demo_pose_waypoints(seed=0)
    demo = make_smooth_demo(wp, duration=4.0, orientations=quats)
    demo_path = root / "smooth.csv"
    demo.save_csv(demo_path)
    prim = root / "prim.json"
    assert main(["fit", "--demo", str(demo_path), "--out", str(prim)]) == 0
    return demo_path, prim


class TestTeachSim:
    def test_writes_demo_and_resolved_config(self, demo_csv, capsys, tmp_path):
        traj = load_trajectory_csv(demo_csv)
        assert traj.wrenches is not None
        assert traj.duration > 1.0
        cfg = json.loads((demo_csv.parent / "demo.csv.config.json").read_text())
        assert cfg["seed"] == 0
        assert cfg["teach"]["controller"] == "proposed"

    def test_rerun_from_config_reproduces_bytes(self, demo_csv, capsys):
        assert rerun_is_byte_identical(capsys, demo_csv, "teach-sim")

    def test_seed_changes_output(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run(capsys, "teach-sim", "--seed", 0, "--out", a)[0] == 0
        assert run(capsys, "teach-sim", "--seed", 1, "--out", b)[0] == 0
        assert a.read_bytes() != b.read_bytes()

    def test_native_controller_takes_longer(self, demo_csv, capsys, tmp_path):
        out = tmp_path / "native.csv"
        code, _, _ = run(capsys, "teach-sim", "--controller", "native", "--seed", 0, "--out", out)
        assert code == 0
        native = load_trajectory_csv(out)
        proposed = load_trajectory_csv(demo_csv)
        assert native.duration > proposed.duration


class TestFitRollout:
    def test_fit_then_rollout_reproduces_demo(self, smooth_prim, capsys, tmp_path):
        demo_path, prim = smooth_prim
        demo = load_trajectory_csv(demo_path)
        dmp = load_dmp(prim)
        assert abs(dmp.tau - demo.duration) < 1e-9

        replay_path = tmp_path / "replay.csv"
        code, _, err = run(capsys, "rollout", "--dmp", prim, "--out", replay_path)
        assert code == 0, err
        replay = load_trajectory_csv(replay_path)
        n = demo.times.size
        rmse = np.sqrt(np.mean(np.sum((replay.positions[:n] - demo.positions) ** 2, axis=1)))
        assert rmse < 2e-3
        assert np.linalg.norm(replay.positions[-1] - demo.positions[-1]) < 1e-3

    def test_fit_reports_basis(self, smooth_prim, capsys, tmp_path):
        demo_path, _ = smooth_prim
        prim = tmp_path / "prim.json"
        code, out, err = run(capsys, "fit", "--demo", demo_path, "--out", prim)
        assert code == 0, err
        assert "basis" in out

    def test_fit_and_rollout_rerun_byte_identical(self, demo_csv, capsys, tmp_path):
        prim = tmp_path / "prim.json"
        assert run(capsys, "fit", "--demo", demo_csv, "--out", prim)[0] == 0
        assert rerun_is_byte_identical(capsys, prim, "fit")
        replay = tmp_path / "replay.csv"
        assert run(capsys, "rollout", "--dmp", prim, "--out", replay)[0] == 0
        assert rerun_is_byte_identical(capsys, replay, "rollout")

    def test_rollout_goal_override(self, smooth_prim, capsys, tmp_path):
        _, prim = smooth_prim
        replay = tmp_path / "shifted.csv"
        code, _, err = run(
            capsys, "rollout", "--dmp", prim, "--goal", "0.2,0.1,0.05,1,0,0,0", "--out", replay
        )
        assert code == 0, err
        traj = load_trajectory_csv(replay)
        assert np.linalg.norm(traj.positions[-1] - [0.2, 0.1, 0.05]) < 1e-3

    def test_fit_without_demo_errors(self, capsys, tmp_path):
        code, _, err = run(capsys, "fit", "--out", tmp_path / "x.json")
        assert code == 1
        assert "demo" in err and err.strip().count("\n") == 0

    def test_bad_start_vector(self, demo_csv, capsys, tmp_path):
        prim = tmp_path / "prim.json"
        assert run(capsys, "fit", "--demo", demo_csv, "--out", prim)[0] == 0
        code, _, err = run(
            capsys, "rollout", "--dmp", prim, "--start", "1,2,3", "--out", tmp_path / "y.csv"
        )
        assert code == 1
        assert "7 values" in err


class TestLocalizeSweep:
    def test_localize_default_scene(self, capsys, tmp_path):
        out = tmp_path / "holes.csv"
        code, text, err = run(capsys, "localize", "--seed", 1, "--out", out)
        assert code == 0, err
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "hole_id,detected,center_x_m,center_y_m,center_z_m,"
            "axis_x,axis_y,axis_z,radius_m,rms_m"
        )
        assert len(lines) == 4
        assert all(row.split(",")[1] == "1" for row in lines[1:])
        assert rerun_is_byte_identical(capsys, out, "localize")

    def test_localize_single_hole(self, capsys, tmp_path):
        out = tmp_path / "one.csv"
        code, _, err = run(capsys, "localize", "--hole", 2, "--out", out)
        assert code == 0, err
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("2,1,")

    @pytest.mark.parametrize(
        "localize",
        [{"hole_id": 7}, {"noise_sigma": -1}, {"dropout": 1.5}],
        ids=["hole_id", "noise_sigma", "dropout"],
    )
    def test_localize_bad_config_exits_2_before_writing(self, capsys, tmp_path, localize):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"localize": localize}))
        out = tmp_path / "holes.csv"
        code, _, err = run(capsys, "localize", "--config", cfg, "--out", out)
        assert code == 2
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists() and not (tmp_path / "holes.csv.config.json").exists()

    def test_localize_hole_flag_outside_scene_exits_1(self, capsys, tmp_path):
        out = tmp_path / "holes.csv"
        code, _, err = run(capsys, "localize", "--hole", 7, "--out", out)
        assert code == 1
        assert err.count("\n") == 1 and "hole id 7 outside" in err
        assert not out.exists()

    def test_trial_and_localize_print_one_hole_id_error(self, capsys, tmp_path):
        for command in ("localize", "trial"):
            code, _, err = run(capsys, command, "--hole", 7, "--out", tmp_path / "out")
            assert (code, err) == (1, "error: hole id 7 outside the scene's holes 0..2\n")
        assert list(tmp_path.iterdir()) == []

    def test_sweep_flags_are_checked_as_one_grid(self, capsys, tmp_path):
        # folded one at a time, --start-deg and --stop-deg would meet the
        # config's 0.01 deg step as a 16,001-yaw grid before --step-deg applies
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sweep": {"start_deg": -1.0, "stop_deg": 1.0, "step_deg": 0.01}}))
        out = tmp_path / "sweep.csv"
        code, _, err = run(
            capsys, "sweep", "--config", cfg, "--start-deg", -80, "--stop-deg", 80, "--step-deg", 40, "--out", out
        )
        assert code == 0, err
        assert len(out.read_text().splitlines()) == 1 + 5 * 3

    @pytest.mark.parametrize(
        "flag, value, text",
        [
            ("--step-deg", 1e-9, "sweep grid of 1.6e+11 yaws exceeds 10000; raise step_deg"),
            ("--start-deg", "nan", "start_deg must be finite, got nan"),
        ],
        ids=["tiny-step", "nan-start"],
    )
    def test_bad_sweep_flag_exits_1_before_writing(self, capsys, tmp_path, flag, value, text):
        code, _, err = run(capsys, "sweep", flag, value, "--out", tmp_path / "sweep.csv")
        assert (code, err) == (1, f"error: {text}\n")
        assert list(tmp_path.iterdir()) == []

    def test_sweep_csv_and_intervals(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code, text, err = run(
            capsys, "sweep", "--start-deg", -6, "--stop-deg", 6, "--step-deg", 2, "--out", out
        )
        assert code == 0, err
        lines = out.read_text().splitlines()
        assert lines[0] == "yaw,hole_id,detected,center_err_m,radius_err_m"
        assert len(lines) == 1 + 7 * 3
        assert "hole 0: [-6.0, 6.0] deg" in text
        assert rerun_is_byte_identical(capsys, out, "sweep")


class TestTrialBatch:
    def test_trial_success_line_and_json(self, capsys, tmp_path):
        out = tmp_path / "trial.json"
        code, text, err = run(capsys, "trial", "--seed", 3, "--out", out)
        assert code == 0, err
        assert "success=True" in text
        doc = json.loads(out.read_text())
        assert doc["phase"] == "done"
        assert doc["lateral_err_m"] < 5e-4
        assert rerun_is_byte_identical(capsys, out, "trial")

    def test_trial_event_file_matches_default_stream(self, capsys, tmp_path):
        steps = tmp_path / "steps.txt"
        steps.write_text(
            "0 pedal_press\n1 motion_done\n2 vision_ready\n"
            "3 pedal_press\n4 motion_done\n5 pedal_press\n"
        )
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert run(capsys, "trial", "--seed", 3, "--out", a)[0] == 0
        assert run(capsys, "trial", "--seed", 3, "--events", steps, "--out", b)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_trial_bad_event_kind_names_file_line_field(self, capsys, tmp_path):
        steps = tmp_path / "steps.txt"
        steps.write_text("0 pedal_press\n1 knee_press\n")
        code, _, err = run(capsys, "trial", "--events", steps, "--out", tmp_path / "x.json")
        assert code == 2
        line = err.strip()
        assert "\n" not in line
        assert f"{steps}:2" in line and "kind" in line

    def test_small_batch_artifacts_and_rerun(self, capsys, tmp_path):
        out = tmp_path / "results.json"
        code, text, err = run(capsys, "batch", "--n", 2, "--seed", 7, "--out", out)
        assert code == 0, err
        assert "success_rate=1.0" in text
        doc = json.loads(out.read_text())
        assert doc["n"] == 2 and doc["success_rate"] == 1.0
        csv_lines = (tmp_path / "results.csv").read_text().splitlines()
        assert csv_lines[0] == "trial,seed,hole_id,success,lat_err_m,tilt_rad,depth_m"
        assert len(csv_lines) == 3
        assert rerun_is_byte_identical(capsys, out, "batch")
        twin_csv = tmp_path / "twin_results.csv"
        assert twin_csv.read_bytes() == (tmp_path / "results.csv").read_bytes()

    @pytest.mark.parametrize(
        "dmp", [{"alpha_z": 4.0}, {"alpha_z": 2.0}], ids=["az4", "az2"]
    )
    def test_missed_standoff_ends_trial_failed(self, capsys, tmp_path, dmp):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dmp": dmp}))
        out = tmp_path / "trial.json"
        code, text, err = run(capsys, "trial", "--seed", 3, "--config", cfg, "--out", out)
        assert code == 0 and err == ""
        assert "success=False" in text and "reason=approach endpoint missed" in text
        doc = json.loads(out.read_text())
        assert doc["phase"] == "failed"
        assert doc["reason"].startswith("approach endpoint missed the standoff pose by")

    def test_yaws_past_a_full_turn_run(self, capsys, tmp_path):
        # from_rotation_vector ends at a full turn; the bar's yaw is reduced first
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trial": {"yaw_limit_deg": 400}}))
        out = tmp_path / "batch.json"
        code, _, err = run(capsys, "batch", "--n", 30, "--config", cfg, "--out", out)
        assert code == 0, err
        assert len((tmp_path / "batch.csv").read_text().splitlines()) == 1 + 30
        docs = {}
        for yaw in (400, 40):
            out = tmp_path / f"trial{yaw}.json"
            code, _, err = run(capsys, "trial", "--seed", 3, "--yaw-deg", yaw, "--out", out)
            assert code == 0, err
            docs[yaw] = json.loads(out.read_text())
        assert docs[400]["yaw"] == pytest.approx(math.radians(400.0), abs=1e-12)
        assert (docs[400]["hole_id"], docs[400]["success"]) == (docs[40]["hole_id"], docs[40]["success"])
        out = tmp_path / "sweep.csv"
        code, _, err = run(capsys, "sweep", "--start-deg", -400, "--stop-deg", 400, "--step-deg", 50, "--out", out)
        assert code == 0, err
        assert len(out.read_text().splitlines()) == 1 + 17 * 3

    def test_batch_rejects_n_zero(self, capsys, tmp_path):
        code, _, err = run(capsys, "batch", "--n", 0, "--out", tmp_path / "x.json")
        assert code == 1
        assert "n must be" in err


class TestMetricsCommand:
    def test_metrics_report_and_comparison(self, demo_csv, capsys, tmp_path):
        out = tmp_path / "reports.json"
        code, text, err = run(
            capsys, "metrics", "--traj", demo_csv, "--baseline", demo_csv, "--out", out
        )
        assert code == 0, err
        doc = json.loads(out.read_text())
        assert doc["jerk"]["mean"] > 0
        assert doc["comparison"]["rows"]
        assert "ratio" in text
        assert rerun_is_byte_identical(capsys, out, "metrics")

    def test_zero_jerk_baseline_writes_strict_json(self, demo_csv, capsys, tmp_path):
        still = tmp_path / "still.csv"
        still.write_text("t,px,py,pz,qw,qx,qy,qz\n" + "".join(f"{0.01 * k},0,0,0,1,0,0,0\n" for k in range(50)))
        out = tmp_path / "reports.json"
        code, _, err = run(capsys, "metrics", "--traj", demo_csv, "--baseline", still, "--out", out)
        assert code == 0, err

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        rows = json.loads(out.read_text(), parse_constant=reject)["comparison"]["rows"]
        assert any(r["ratio_a_over_b"] is None for r in rows)

    def test_metrics_missing_input(self, capsys, tmp_path):
        code, _, err = run(capsys, "metrics", "--out", tmp_path / "x.json")
        assert code == 1
        assert "trajectory" in err


class TestErrorDiscipline:
    def test_unknown_subcommand_exits_nonzero_with_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "--out", "x"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_config_key_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"trial": {"bogus": 1}}')
        code, _, err = run(capsys, "trial", "--config", bad, "--out", tmp_path / "x.json")
        assert code == 2
        line = err.strip()
        assert "\n" not in line
        assert str(bad) in line and "trial.bogus" in line

    def test_unbounded_descent_is_refused_when_loaded(self, capsys, tmp_path):
        # 1e300 m of descent once ended a batch with "Maximum allowed size
        # exceeded" from numpy and no trial recorded
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trial": {"required_depth": 1e300}}))
        code, out, err = run(capsys, "batch", "--n", 2, "--config", cfg, "--out", tmp_path / "b.json")
        assert code == 2 and out == "" and err.count("\n") == 1
        assert str(cfg) in err and "field 'trial'" in err and err.endswith("more than the cap of 1000000\n")

    def test_non_finite_filter_rollout_is_one_line(self, smooth_prim, capsys, tmp_path):
        _, prim = smooth_prim
        doc = json.loads(prim.read_text())
        doc["alpha_z"] = 1e160
        bad = tmp_path / "prim.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "rollout", "--dmp", bad, "--out", tmp_path / "r.csv")
        assert code == 1 and out == ""
        assert err == "error: non-finite rollout state at step 1 (t = 0.001 s)\n"

    def test_non_finite_filter_fails_each_trial(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dmp": {"alpha_z": 1e160}}))
        out = tmp_path / "b.json"
        code, _, _ = run(capsys, "batch", "--n", 2, "--config", cfg, "--out", out)
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["failure_reasons"] == {"non-finite rollout state at step 1 (t = 0.001 s)": 2}

    def test_missing_trajectory_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "metrics", "--traj", tmp_path / "nope.csv", "--out", tmp_path / "x.json")
        assert code == 1
        assert "nope.csv" in err


COMMANDS = ["fit", "rollout", "teach-sim", "localize", "sweep", "trial", "batch", "metrics"]


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("command", COMMANDS)
def test_negative_seed_is_rejected_before_any_output(capsys, tmp_path, command, via):
    # numpy seeds only nonnegative integers; a sweep once read the seed error
    # as "never detected" and exited 0
    if via == "flag":
        argv, want = ["--seed", "-1"], 1
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": -1}')
        argv, want = ["--config", cfg], 2
    code, out, err = run(capsys, command, *argv, "--out", tmp_path / "out")
    assert code == want and out == ""
    assert err.count("\n") == 1 and "seed must be at least 0, got -1" in err
    assert [p.name for p in tmp_path.iterdir()] == ([] if via == "flag" else ["cfg.json"])


def _scene_doc():
    from lfdkit.presets import default_bar_scene, default_camera
    from lfdkit.vision import scene_to_dict

    return scene_to_dict(default_bar_scene(), default_camera())


def _set(doc, path, value):
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


SCENE_FAULTS = {
    "bar-not-an-object": (("bar",), 5),
    "radius-a-string": (("bar", "holes", 0, "radius"), "x"),
    "width-a-string": (("camera", "width"), "x"),
    "fx-nan": (("camera", "fx"), float("nan")),
    "holes-a-number": (("bar", "holes"), 3),
}


class TestInputFiles:
    """Scene and primitive files follow the config contract: a malformed one
    exits 2 with one line naming the file and never a traceback."""

    @staticmethod
    def one_line_error(capsys, *argv):
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.count("\n") == 1 and "Traceback" not in err, err
        return err

    @pytest.mark.parametrize("fault", SCENE_FAULTS, ids=list(SCENE_FAULTS))
    @pytest.mark.parametrize("via", ["scene-file", "inline"])
    def test_malformed_scene(self, capsys, tmp_path, fault, via):
        doc = _set(_scene_doc(), *SCENE_FAULTS[fault])
        path = tmp_path / "scene.json"
        if via == "inline":
            path.write_text(json.dumps({"scene": doc}))
            err = self.one_line_error(capsys, "localize", "--config", path, "--out", tmp_path / "h.csv")
        else:
            path.write_text(json.dumps(doc))
            err = self.one_line_error(capsys, "localize", "--scene", path, "--out", tmp_path / "h.csv")
        assert str(path) in err and "field 'scene'" in err
        assert not (tmp_path / "h.csv.config.json").exists()

    @pytest.mark.parametrize(
        "path, value, named",
        [
            (("demo_start",), [], "primitive.demo_start"),
            (("demo_start",), 5, "primitive.demo_start"),
            (("demo_goal", "orientation"), [1, 0, 0], "primitive.demo_goal.orientation"),
            (("demo_goal", "orientation"), [1e200, 0, 0, 0], "not finite"),
            (("N",), "50", "does not match"),
            (("tau",), None, "primitive.tau"),
            (("weights", 4), {}, "primitive.weights"),
            (("gate_mode",), "phase-gated", "unknown key 'gate_mode'"),
            # well-formed but out of range
            (("widths", 0), -1.0, "widths must be positive"),
            (("widths", 7), 0.0, "widths must be positive"),
            (("alpha_s",), -5.0, "alpha_s must be positive"),
            (("alpha_z",), 0.0, "alpha_z must be positive"),
            (("beta_z",), -1.0, "beta_z must be positive"),
            (("tau",), -2.0, "tau must be positive"),
            (("centers", 0), 1.5, "centers must lie in (0, 1]"),
            (("centers", 49), 0.0, "centers must lie in (0, 1]"),
            (("alpha_z",), 0, "field 'primitive': alpha_z must be positive, got 0.0\n"),
        ],
    )
    def test_malformed_primitive(self, smooth_prim, capsys, tmp_path, path, value, named):
        _, prim = smooth_prim
        bad = tmp_path / "prim.json"
        bad.write_text(json.dumps(_set(json.loads(prim.read_text()), path, value)))
        err = self.one_line_error(capsys, "rollout", "--dmp", bad, "--out", tmp_path / "r.csv")
        assert str(bad) in err and named in err

    def test_primitive_syntax_error_names_the_file(self, smooth_prim, capsys, tmp_path):
        _, prim = smooth_prim
        bad = tmp_path / "prim.json"
        bad.write_text(prim.read_text()[:200])
        err = self.one_line_error(capsys, "rollout", "--dmp", bad, "--out", tmp_path / "r.csv")
        assert str(bad) in err and "field 'json'" in err

    def test_pre_change_config_names_gate_mode(self, capsys, tmp_path):
        cfg = tmp_path / "old.config.json"
        cfg.write_text(json.dumps({"dmp": {"n_basis": 50, "gate_mode": "phase-gated"}}))
        err = self.one_line_error(capsys, "trial", "--config", cfg, "--out", tmp_path / "t.json")
        assert "dmp.gate_mode" in err and "unknown key" in err

    @pytest.mark.parametrize("kind", ["config", "demo", "events"])
    def test_non_ascii_byte(self, demo_csv, capsys, tmp_path, kind):
        bad = tmp_path / f"{kind}.txt"
        if kind == "config":
            bad.write_bytes(b'{"seed": 3, "trial": {"n": 2}}\n\xe9\n')
            argv = ("trial", "--config", bad)
        elif kind == "demo":
            bad.write_bytes(demo_csv.read_bytes().replace(b"\n0.", b"\n\xb00.", 1))
            argv = ("fit", "--demo", bad)
        else:
            bad.write_bytes(b"0 pedal_press\n1 motion\xc2\xa0done\n")
            argv = ("trial", "--events", bad)
        err = self.one_line_error(capsys, *argv, "--out", tmp_path / "out")
        assert str(bad) in err and "non-ASCII byte" in err


def test_warning_is_one_line_and_keeps_exit_code(smooth_prim, capsys, tmp_path):
    # widths this large underflow every basis away from its center
    _, prim = smooth_prim
    doc = json.loads(prim.read_text())
    doc["widths"] = [1e9] * doc["N"]
    narrow = tmp_path / "narrow.json"
    narrow.write_text(json.dumps(doc))
    code, _, err = run(capsys, "rollout", "--dmp", narrow, "--out", tmp_path / "r.csv")
    assert code == 0
    assert err.count("\n") == 1 and err.startswith("lfdkit: warning: all bases underflowed at "), err
    assert (tmp_path / "r.csv").exists()


def test_import_loads_no_scipy():
    src = str(Path(lfdkit.__file__).resolve().parent.parent)
    probe = "import sys, lfdkit, lfdkit.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
