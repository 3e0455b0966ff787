"""CLI tests: exit codes, file artifacts, the resolved-config reproduction
guarantee, and single-line machine-parsable errors."""

import argparse
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import lfdkit
from lfdkit import cli
from lfdkit.cli import main
from lfdkit.config import RunConfig
from lfdkit.dmp import load_dmp
from lfdkit.trajectory import load_trajectory_csv
from lfdkit.vision import MAX_NOISE_SIGMA


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
            "axis_x,axis_y,axis_z,radius_m,rms_m,center_err_m,tilt_rad,radius_err_m"
        )
        assert len(lines) == 4
        assert all(row.split(",")[1] == "1" for row in lines[1:])
        # noiseless masks are exact fits
        assert all(float(v) < 1e-9 for row in lines[1:] for v in row.split(",")[10:])
        assert rerun_is_byte_identical(capsys, out, "localize")

    def test_localize_reports_how_far_a_noisy_fit_misses(self, capsys, tmp_path):
        # at 1 m of noise every mask still fits, so every hole reads fitted,
        # and only the error column shows the fits are nowhere near the holes
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"localize": {"noise_sigma": 1.0}}))
        out = tmp_path / "holes.csv"
        code, text, err = run(capsys, "localize", "--config", cfg, "--seed", 1, "--out", out)
        assert (code, text, err) == (0, f"localize: 3 of 3 holes fitted -> {out}\n", "")
        rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
        assert [row[1] for row in rows] == ["1", "1", "1"]
        assert all(float(row[10]) > 0.05 for row in rows)

    def test_localize_single_hole(self, capsys, tmp_path):
        out = tmp_path / "one.csv"
        code, _, err = run(capsys, "localize", "--hole", 2, "--out", out)
        assert code == 0, err
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("2,1,")

    def test_localize_reports_a_hole_out_of_view(self, capsys, tmp_path):
        # at x = 0.14 m hole 2 leaves the camera's frustum
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(_set(_scene_doc(), ("bar", "holes", 2, "offset", 0), 0.14)))
        out = tmp_path / "holes.csv"
        code, text, err = run(capsys, "localize", "--scene", scene, "--out", out)
        assert (code, text, err) == (0, f"localize: 2 of 3 holes fitted -> {out}\n", "")
        assert out.read_text().splitlines()[3] == "2,0," + ",".join(["nan"] * 11)

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

    def test_trial_decreasing_event_time_names_file_line_field(self, capsys, tmp_path):
        steps = tmp_path / "steps.txt"
        steps.write_text("0 pedal_press\n2 motion_done\n1 vision_ready\n")
        code, _, err = run(capsys, "trial", "--events", steps, "--out", tmp_path / "x.json")
        assert code == 2
        assert err == f"error: {steps}:3: field 'time': event times must be non-decreasing; got 1 after 2\n"
        assert list(tmp_path.iterdir()) == [steps]

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

    @pytest.mark.parametrize("command, flags", [("trial", ("--seed", 3)), ("batch", ("--n", 3))],
                             ids=["trial", "batch"])
    def test_yaw_limit_of_minus_zero_runs_as_zero(self, capsys, tmp_path, command, flags):
        # both exited 1 with numpy's "high - low < 0" and wrote nothing
        runs = []
        for name, limit in (("zero", 0.0), ("minus_zero", -0.0)):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps({"trial": {"yaw_limit_deg": limit}}))
            out = tmp_path / f"{name}_{command}.json"
            code, text, err = run(capsys, command, *flags, "--config", cfg, "--out", out)
            assert code == 0, err
            runs.append([text] + [p.read_bytes() for p in (out, out.with_suffix(".csv")) if p.exists()])
        assert runs[1] == runs[0]
        assert len(runs[0]) == (3 if command == "batch" else 2)

    def test_batch_walks_the_event_script(self, capsys, tmp_path):
        # the nominal stream with its last pedal press replaced by an abort
        steps = tmp_path / "abort.events"
        steps.write_text("0 pedal_press\n1 motion_done\n2 vision_ready\n3 pedal_press\n4 motion_done\n5 abort\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trial": {"n": 3, "events": str(steps)}}))
        out = tmp_path / "batch.json"
        code, text, err = run(capsys, "batch", "--seed", 3, "--config", cfg, "--out", out)
        assert code == 0, err
        assert text == "success_rate=0.0\n"
        doc = json.loads(out.read_text())
        assert doc["failure_reasons"] == {"aborted": 3}
        assert [t["events"][-1] for t in doc["trials"]] == [[5.0, "abort"]] * 3
        code, text, err = run(capsys, "trial", "--seed", 3, "--config", cfg, "--out", tmp_path / "trial.json")
        assert code == 0, err
        assert text == "success=False\nreason=aborted\n"

    @pytest.mark.parametrize("script, status", [(None, 1), ("0 pedal_press\n1 knee_press\n", 2)],
                             ids=["missing", "malformed"])
    def test_batch_refuses_an_event_script_as_trial_does(self, capsys, tmp_path, script, status):
        steps = tmp_path / "steps.events"
        if script is not None:
            steps.write_text(script)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trial": {"n": 2, "events": str(steps)}}))
        out = tmp_path / "out"
        out.mkdir()
        errs = []
        for command in ("trial", "batch"):
            code, text, err = run(capsys, command, "--config", cfg, "--out", out / "run.json")
            assert (code, text) == (status, "")
            errs.append(err)
        assert errs[0] == errs[1] and errs[0].count("\n") == 1 and str(steps) in errs[0]
        assert list(out.iterdir()) == []

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

    def test_grid_past_the_cap_is_one_line(self, capsys, tmp_path):
        # resampled at its median dt of 1 ns, this 1e6 s file would need 1e15
        # samples; numpy once failed to allocate 7.11 PiB with a traceback
        traj = tmp_path / "uneven.csv"
        traj.write_text(NON_UNIFORM_CSV)
        code, out, err = run(capsys, "metrics", "--traj", traj, "--out", tmp_path / "m.json")
        assert (code, out) == (1, "")
        assert err == "error: resampling a 1e+06 s trajectory at dt = 1e-09 needs 1e+15 samples, more than the cap of 1000000\n"
        assert list(tmp_path.iterdir()) == [traj]

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
        assert code == 1 and out == "" and err.count("\n") == 1
        # the stability rule refuses the Euler step before step 1
        assert err == ("error: alpha_z must leave the Euler step at dt = 0.001 s, tau = 4 s stable (both roots of its"
                       " filter inside the unit circle), got 1e+160 with beta_z = 6.25\n")
        assert not (tmp_path / "r.csv").exists()

    def test_overflowing_gain_is_refused_before_any_trial(self, capsys, tmp_path):
        # the fit once overflowed with a numpy warning into an all-NaN
        # primitive, and every trial then ended FAILED at its filter; the
        # stability rule now refuses the gain when the config loads
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dmp": {"alpha_z": 1e160}}))
        out = tmp_path / "b.json"
        code, stdout, err = run(capsys, "batch", "--n", 2, "--config", cfg, "--out", out)
        assert code == 2 and stdout == "" and not out.exists()
        assert err == (f"error: {cfg}:0: field 'dmp.alpha_z': alpha_z must leave the Euler step at dt = 0.001 s,"
                       " tau = 4 s stable (both roots of its filter inside the unit circle), got 1e+160 with"
                       " beta_z = 2.5e+159\n")

    @pytest.mark.parametrize("alpha_z, code", [(15000, 0), (17000, 2)])
    def test_unstable_euler_step_is_refused_on_load(self, capsys, tmp_path, alpha_z, code):
        # at dt/tau = 1/4000 the critically damped Euler step is unstable from
        # alpha_z = 16000; 17000 once loaded, warned "invalid value encountered
        # in add" and ended every trial "non-finite rollout state at step 174"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dmp": {"alpha_z": alpha_z}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, stdout, err = run(capsys, "batch", "--n", 2, "--config", cfg, "--out", tmp_path / "b.json")
        assert got == code
        if code:
            assert stdout == "" and err.count("\n") == 1
            assert "field 'dmp.alpha_z': alpha_z must leave the Euler step" in err
            assert err.endswith("got 17000.0 with beta_z = 4250.0\n")
        else:
            assert err == "" and "success_rate=" in stdout

    def test_missing_trajectory_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "metrics", "--traj", tmp_path / "nope.csv", "--out", tmp_path / "x.json")
        assert code == 1
        assert "nope.csv" in err

    @pytest.mark.parametrize("command, extra", [("trial", {}), ("localize", {}), ("sweep", {"step_deg": 40.0})])
    def test_noise_at_its_cap_runs_without_a_warning(self, capsys, tmp_path, command, extra):
        # past 1e150 m the fit once overflowed with numpy warnings
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({command: {"noise_sigma": MAX_NOISE_SIGMA, **extra}}))
        code, _, err = run(capsys, command, "--config", cfg, "--out", tmp_path / "out")
        assert code == 0 and err == ""


def test_every_flag_folds_into_a_field_of_its_section():
    # each flag but the document's own sets the field its dest names, so a
    # renamed field fails here instead of dropping its flag
    parser = cli._build_parser()
    [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(commands.choices) == set(cli._COMMANDS)
    for command, sub in commands.choices.items():
        section = getattr(RunConfig(), cli._COMMANDS[command][0])
        dests = {a.dest for a in sub._actions if not isinstance(a, argparse._HelpAction)}
        assert dests - {"config", "seed", "out", "scene"} <= {f.name for f in fields(section)}, command


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


def run_to_bad_out(capsys, monkeypatch, demo_csv, smooth_prim, command, out):
    """``command`` with its inputs, writing ``out``; a batch fails if it
    runs its trials."""
    def no_trial(scenario):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(cli, "run_batch", no_trial)
    demo, prim = smooth_prim
    inputs = {"fit": ["--demo", demo], "rollout": ["--dmp", prim], "metrics": ["--traj", demo_csv, "--baseline", demo]}
    return run(capsys, command, *inputs.get(command, []), "--out", out)


@pytest.mark.parametrize("command", COMMANDS)
def test_missing_output_directory_fails_before_the_command_runs(capsys, tmp_path, monkeypatch, demo_csv, smooth_prim,
                                                                 command):
    # a batch once ran every trial and metrics printed its table before the
    # write found the directory missing
    out = tmp_path / "missing" / "x"
    code, stdout, err = run_to_bad_out(capsys, monkeypatch, demo_csv, smooth_prim, command, out)
    assert (code, stdout) == (1, "")
    assert err == f"error: [Errno 2] No such file or directory: '{out}'\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind", ["directory", "directory/", "nothing"])
@pytest.mark.parametrize("command", COMMANDS)
def test_an_output_naming_a_directory_or_nothing_fails_before_the_command_runs(
        capsys, tmp_path, monkeypatch, demo_csv, smooth_prim, command, kind):
    # a batch once ran every trial before the write found that --out named
    # an existing directory, or no file at all
    directory = tmp_path / "isdir"
    directory.mkdir()
    out, error = {
        "directory": (str(directory), "[Errno 21] Is a directory"),
        "directory/": (f"{directory}/", "[Errno 21] Is a directory"),
        "nothing": ("", "[Errno 2] No such file or directory"),
    }[kind]
    code, stdout, err = run_to_bad_out(capsys, monkeypatch, demo_csv, smooth_prim, command, out)
    assert (code, stdout) == (1, "")
    assert err == f"error: {error}: '{out}'\n"
    assert list(tmp_path.iterdir()) == [directory] and list(directory.iterdir()) == []


@pytest.mark.parametrize("command, out, taken", [("batch", "b.json", "b.csv"), ("trial", "t.json", "t.json.config.json")])
def test_a_directory_at_another_output_path_fails_before_the_command_runs(
        capsys, tmp_path, monkeypatch, demo_csv, smooth_prim, command, out, taken):
    # a batch once wrote its JSON, then found its CSV path taken by a directory
    (tmp_path / taken).mkdir()
    code, stdout, err = run_to_bad_out(capsys, monkeypatch, demo_csv, smooth_prim, command, tmp_path / out)
    assert (code, stdout) == (1, "")
    assert err == f"error: [Errno 21] Is a directory: '{tmp_path / taken}'\n"
    assert list(tmp_path.iterdir()) == [tmp_path / taken] and list((tmp_path / taken).iterdir()) == []


HEADER = "t,px,py,pz,qw,qx,qy,qz\n"
NON_UNIFORM_CSV = HEADER + "".join(f"{t},0,0,0,1,0,0,0\n" for t in ("0", "1e-9", "2e-9", "3e-9", "1e6"))
# 400 samples of a still pose, px 1e300 on line 301
HUGE_POSITION_CSV = HEADER + "".join(f"{k / 100},{'1e300' if k == 299 else 0},0,0,1,0,0,0\n" for k in range(400))
# one malformed input each: the command line, with {} for the file holding
# the text (None: no file), the exit status and the one stderr line
MALFORMED = {
    "goal-not-numbers": (["rollout", "--goal", "a,b"], None, 1, "error: --goal must be 7 comma-separated numbers\n"),
    "empty-csv": (["metrics", "--traj", "{}"], "", 2, "error: {}:1: field 'header': empty file\n"),
    "header-only-csv": (["metrics", "--traj", "{}"], HEADER, 2, "error: {}:2: field 't': no samples\n"),
    "zero-quaternion-csv": (["metrics", "--traj", "{}"], HEADER + "0,0,0,0,0,0,0,0\n0.1,0,0,0,0,0,0,0\n", 2,
                            "error: {}:2: field 'qw': orientation rows must be finite and nonzero\n"),
    "zero-quaternion-on-line-301-csv": (
        ["metrics", "--traj", "{}"],
        HEADER + "".join(f"{k / 100},0,0,0,{0 if k == 299 else 1},0,0,0\n" for k in range(400)), 2,
        "error: {}:301: field 'qw': orientation rows must be finite and nonzero\n"),
    # metrics once printed two numpy warnings, then broke an internal
    # invariant; fit exited 0 and wrote a primitive that rollout refused
    **{f"huge-position-on-line-301-csv-{command}": (
        [command, flag, "{}"], HUGE_POSITION_CSV, 1, line) for command, flag, line in (
        ("metrics", "--traj", "error: jerk is not finite (m/s^3): a sample is too large for its time step to difference"
                              " thrice\n"),
        ("fit", "--demo", "error: the fitted primitive does not replay its demonstration: non-finite rollout state at"
                          " step 1 (t = 0.001 s)\n"))},
}


@pytest.mark.parametrize("argv, text, status, line", MALFORMED.values(), ids=list(MALFORMED))
def test_malformed_input_is_one_line(capsys, tmp_path, argv, text, status, line):
    path = tmp_path / "input"
    if text is not None:
        path.write_text(text)
    code, out, err = run(capsys, *(a.replace("{}", str(path)) for a in argv), "--out", tmp_path / "out")
    assert (code, out, err) == (status, "", line.replace("{}", str(path)))
    assert list(tmp_path.iterdir()) == ([] if text is None else [path])


@pytest.mark.parametrize("command", [["metrics", "--traj"], ["fit", "--demo"]], ids=["metrics", "fit"])
def test_huge_quaternion_cell_reads_without_a_warning(capsys, tmp_path, demo_csv, command):
    # a qz of 1e300 on line 301 once leaked numpy's overflow warning and was
    # refused on line 2; the row normalizes, as a row of any finite scale does
    lines = demo_csv.read_text().splitlines()
    cells = lines[300].split(",")
    cells[7] = "1e300"
    lines[300] = ",".join(cells)
    path = tmp_path / "edited.csv"
    path.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, *command, path, "--out", tmp_path / "out")
    assert (code, err) == (0, "")


def test_goal_with_a_huge_quaternion_normalizes(capsys, tmp_path, smooth_prim):
    # the goal's squares overflow; it once exited 1 as a zero quaternion,
    # while a trajectory row of the same scale normalized
    _, prim = smooth_prim
    outs = [tmp_path / "huge.csv", tmp_path / "unit.csv"]
    for out, qw in zip(outs, ("1e300", "1")):
        code, _, err = run(capsys, "rollout", "--dmp", prim, "--goal", f"0.1,0,0,{qw},0,0,0", "--out", out)
        assert (code, err) == (0, "")
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_scene_with_a_huge_bar_orientation_normalizes(capsys, tmp_path):
    # it once exited 2 with "quaternion norm inf is zero or not finite"
    scene = _scene_doc()
    scene["bar"]["orientation"] = [1e300, 0, 0, 0]
    (tmp_path / "huge.json").write_text(json.dumps(scene))
    code, _, err = run(capsys, "localize", "--scene", tmp_path / "huge.json", "--out", tmp_path / "huge.csv")
    assert (code, err) == (0, "")
    assert run(capsys, "localize", "--out", tmp_path / "unit.csv")[0] == 0
    assert (tmp_path / "huge.csv").read_bytes() == (tmp_path / "unit.csv").read_bytes()


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


class TestSceneFlag:
    """A --scene file meets both sections' hole ids, as an inline scene does,
    so a run with one writes a config its own rerun loads."""

    @staticmethod
    def files(tmp_path, doc):
        scene = _scene_doc()
        del scene["bar"]["holes"][2]
        (tmp_path / "two.json").write_text(json.dumps(scene))
        (tmp_path / "c.json").write_text(json.dumps(doc))
        return tmp_path / "c.json", tmp_path / "two.json"

    @pytest.mark.parametrize("command", ["sweep", "trial"])
    def test_hole_id_outside_the_scene_exits_1(self, capsys, tmp_path, command):
        # each once exited 0 and wrote a config whose rerun exited 2 on this id
        cfg, scene = self.files(tmp_path, {"localize": {"hole_id": 2}})
        code, out, err = run(capsys, command, "--config", cfg, "--scene", scene, "--out", tmp_path / "out")
        assert (code, out, err) == (1, "", "error: hole id 2 outside the scene's holes 0..1\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "two.json"]

    def test_flags_fold_in_one_replace(self, capsys, tmp_path):
        # hole 2 of the config is outside the flag's scene, and the flag's hole 1 replaces it
        cfg, scene = self.files(tmp_path, {"trial": {"hole_id": 2}})
        out = tmp_path / "trial.json"
        code, _, err = run(capsys, "trial", "--config", cfg, "--scene", scene, "--hole", 1, "--out", out)
        assert code == 0, err
        assert json.loads(out.read_text())["hole_id"] == 1
        assert rerun_is_byte_identical(capsys, out, "trial")


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

    @pytest.mark.parametrize("command", ["localize", "sweep", "trial", "batch"])
    @pytest.mark.parametrize("via", ["scene-file", "inline"])
    def test_camera_pose_without_a_finite_inverse_refused_on_load(self, capsys, tmp_path, command, via):
        # once loaded, and every run then exited 1 with the inverse pose's error, naming no file
        doc = _scene_doc()
        doc["camera"].update(position=[1.5e308, 0, 0.3], orientation=[0, 0.6, 0.8, 0])
        path = tmp_path / "far.json"
        path.write_text(json.dumps({"scene": doc} if via == "inline" else doc))
        flag = "--config" if via == "inline" else "--scene"
        code, out, err = run(capsys, command, flag, path, "--out", tmp_path / "out")
        message = "camera pose has no finite inverse: pose position must be finite"
        assert (code, out, err) == (2, "", f"error: {path}:0: field 'scene': {message}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["far.json"]

    @pytest.mark.parametrize(
        "path, value, named",
        [
            (("demo_start",), [], "primitive.demo_start"),
            (("demo_start",), 5, "primitive.demo_start"),
            (("demo_goal", "orientation"), [1, 0, 0], "primitive.demo_goal.orientation"),
            (("demo_goal", "orientation"), [0, 0, 0, 0], "not finite"),
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
