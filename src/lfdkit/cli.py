"""Command-line front end: each pipeline stage as a subcommand.

``main`` runs every command alike: it folds the flags into one config
document, checks every output path, runs the command's handler, which
writes its outputs from that document alone and returns its summary, writes
the document fully resolved to ``<out>.config.json``, then prints the
summary. Re-running with ``--config <out>.config.json`` and no other flags
reproduces the outputs byte for byte.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import sys
import warnings
from dataclasses import asdict, replace
from typing import Callable, Sequence

from .assembly import batch_csv_text, batch_to_dict, execute_trial, run_batch, trial_to_dict
from .config import RunConfig, load_config, save_config
from .dmp import ForcingUnderflow, RolloutDiverged, _replay, fit_pose_dmp, load_dmp, rollout, save_dmp
from .ktc import CONTROLLERS, simulate_demonstration
from .metrics import compare_demonstrations, jerk_metrics, render_comparison_table, rotation_jerk_metrics
from .presets import default_teach_setup, scenario_from_config
from .se3 import Pose, quat_normalize
from .trajectory import ParseError, fmt_float, load_trajectory_csv, read_json, write_json, write_text
from .vision import NotDetectable, detection_range_sweep, hole_errors, locate_hole

__all__ = ["check_out_dir", "main", "report_errors"]


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config document (defaults apply if omitted)")
    common.add_argument("--seed", type=int, help="override the config seed")
    common.add_argument(
        "--out", required=True, help="output path; the resolved config lands at OUT.config.json"
    )
    scene = argparse.ArgumentParser(add_help=False)
    scene.add_argument("--scene", help="scene JSON (default desk scene if omitted)")

    p = argparse.ArgumentParser(prog="lfdkit", description="kinesthetic-teaching pipeline tools")
    sub = p.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", parents=[common], help="fit a primitive from a demonstration CSV")
    fit.add_argument("--demo", help="demonstration trajectory CSV")

    ro = sub.add_parser("rollout", parents=[common], help="replay a fitted primitive to CSV")
    ro.add_argument("--dmp", help="fitted primitive JSON")
    ro.add_argument("--start", help="start pose: px,py,pz,qw,qx,qy,qz")
    ro.add_argument("--goal", help="goal pose: px,py,pz,qw,qx,qy,qz")
    ro.add_argument("--tau", type=float, help="time scale override")

    teach = sub.add_parser("teach-sim", parents=[common], help="simulate a guided demonstration")
    teach.add_argument("--controller", choices=list(CONTROLLERS), help="which drive to teach against")

    loc = sub.add_parser("localize", parents=[common, scene], help="fit hole estimates from a scene")
    loc.add_argument("--hole", type=int, dest="hole_id", help="single hole id (all holes if omitted)")

    sw = sub.add_parser("sweep", parents=[common, scene], help="yaw detection-range sweep over a scene")
    sw.add_argument("--start-deg", type=float, help="sweep start, degrees")
    sw.add_argument("--stop-deg", type=float, help="sweep stop, degrees")
    sw.add_argument("--step-deg", type=float, help="sweep step, degrees")

    tr = sub.add_parser("trial", parents=[common, scene], help="run one scripted assembly trial")
    tr.add_argument("--hole", type=int, dest="hole_id", help="fixed hole id (random detectable if omitted)")
    tr.add_argument("--yaw-deg", type=float, help="fixed bar yaw (random in range if omitted)")
    tr.add_argument("--events", help="event script: one 'time kind' per line")

    ba = sub.add_parser("batch", parents=[common, scene], help="run n independent seeded trials")
    ba.add_argument("--n", type=int, help="number of trials")

    me = sub.add_parser("metrics", parents=[common], help="jerk and timing reports for a trajectory CSV")
    me.add_argument("--traj", dest="trajectory", help="trajectory CSV to score")
    me.add_argument("--baseline", help="optional second CSV to compare against")
    return p


def _seven(text: str, what: str) -> tuple[float, ...]:
    """Flag text as numbers; the rollout section checks that they form a pose."""
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"{what} must be 7 comma-separated numbers") from None


def _pose_from_seven(vals: Sequence[float]) -> Pose:
    return Pose(list(vals[:3]), quat_normalize(*vals[3:]))


# the parsed values that are no field of the command's section: the
# subcommand, and the flags that read, write or set the document itself
_DOCUMENT_FLAGS = ("command", "config", "seed", "out", "scene")


def _fold(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    """``cfg`` with every flag given: ``--seed`` and ``--scene`` set the
    document, and each other flag sets the field of the command's section
    that its dest names, all in one replace so the config's rules see the
    final values."""
    flags = {k: v for k, v in vars(args).items() if k not in _DOCUMENT_FLAGS and v is not None}
    for name in ("start", "goal"):
        if name in flags:
            flags[name] = _seven(flags[name], f"--{name}")
    section = _COMMANDS[args.command][0]
    changes = {section: replace(getattr(cfg, section), **flags)} if flags else {}
    if args.seed is not None:
        changes["seed"] = args.seed
    scene = getattr(args, "scene", None)
    if scene is not None:
        changes["scene"] = read_json(scene)
    try:
        return replace(cfg, **changes) if changes else cfg
    except ParseError as exc:  # only the --scene file can be malformed
        raise ParseError(scene, 0, exc.field, exc.message) from None


def _cmd_fit(cfg: RunConfig, out: str) -> str:
    if cfg.fit.demo is None:
        raise ValueError("no demonstration given: pass --demo or set fit.demo in the config")
    demo = load_trajectory_csv(cfg.fit.demo)
    dmp = fit_pose_dmp(demo, **asdict(cfg.dmp))
    with warnings.catch_warnings():  # only whether the primitive replays matters here
        warnings.simplefilter("ignore", ForcingUnderflow)
        try:
            _replay(dmp)
        except RolloutDiverged as exc:
            raise RuntimeError(f"the fitted primitive does not replay its demonstration: {exc}") from None
    save_dmp(dmp, out)
    return f"fit {dmp.n_basis} basis functions, tau={dmp.tau:.6g}s -> {out}"


def _cmd_rollout(cfg: RunConfig, out: str) -> str:
    ro = cfg.rollout
    if ro.dmp is None:
        raise ValueError("no primitive given: pass --dmp or set rollout.dmp in the config")
    dmp = load_dmp(ro.dmp)
    traj = rollout(
        dmp,
        start=None if ro.start is None else _pose_from_seven(ro.start),
        goal=None if ro.goal is None else _pose_from_seven(ro.goal),
        tau=ro.tau,
        dt=ro.dt,
        horizon=ro.horizon,
    )
    traj.save_csv(out)
    return f"rollout {traj.times.size} samples over {traj.duration:.6g}s -> {out}"


def _cmd_teach_sim(cfg: RunConfig, out: str) -> str:
    t = cfg.teach
    traj = simulate_demonstration(
        *default_teach_setup(t.controller, seed=cfg.seed),
        max_duration=t.max_duration,
        force_noise_std=t.force_noise_std,
        torque_noise_std=t.torque_noise_std,
        seed=cfg.seed,
    )
    traj.save_csv(out)
    return f"teach-sim ({t.controller}) {traj.times.size} samples over {traj.duration:.6g}s -> {out}"


def _cmd_localize(cfg: RunConfig, out: str) -> str:
    scene, cam = cfg.scene_and_camera
    lo = cfg.localize
    ids = range(len(scene.holes)) if lo.hole_id is None else [lo.hole_id]
    lines = ["hole_id,detected,center_x_m,center_y_m,center_z_m,axis_x,axis_y,axis_z,radius_m,rms_m,"
             "center_err_m,tilt_rad,radius_err_m"]
    n_found = 0
    for i in ids:
        try:
            est = locate_hole(scene, cam, i, lo.noise_sigma, lo.dropout, cfg.seed * 1000003 + i, lo.n_points)
        except NotDetectable:
            lines.append(f"{i},0," + ",".join(["nan"] * 11))
            continue
        n_found += 1
        vals = [*est.center, *est.axis, est.radius, est.rms, *hole_errors(est, scene, i)]
        lines.append(f"{i},1," + ",".join(fmt_float(v) for v in vals))
    write_text(out, "\n".join(lines) + "\n")
    return f"localize: {n_found} of {len(list(ids))} holes fitted -> {out}"


def _cmd_sweep(cfg: RunConfig, out: str) -> str:
    sw = cfg.sweep
    scene, cam = cfg.scene_and_camera
    rows, intervals = detection_range_sweep(
        scene,
        cam,
        math.radians(sw.start_deg),
        math.radians(sw.stop_deg),
        math.radians(sw.step_deg),
        tolerance=sw.tolerance,
        noise_sigma=sw.noise_sigma,
        dropout=sw.dropout,
        seed=cfg.seed,
    )
    lines = ["yaw,hole_id,detected,center_err_m,radius_err_m"]
    for yaw, hole_id, detected, center_err, radius_err in rows:
        lines.append(
            f"{fmt_float(yaw)},{hole_id},{int(detected)},{fmt_float(center_err)},{fmt_float(radius_err)}"
        )
    write_text(out, "\n".join(lines) + "\n")
    summary = []
    for hole_id in sorted(intervals):
        spans = ", ".join(
            f"[{math.degrees(lo):.1f}, {math.degrees(hi):.1f}]" for lo, hi in intervals[hole_id]
        )
        summary.append(f"hole {hole_id}: {spans or 'never detected'} deg")
    return "\n".join(summary)


def _cmd_trial(cfg: RunConfig, out: str) -> str:
    result = execute_trial(scenario_from_config(cfg))
    write_json(out, trial_to_dict(result))
    reason = "" if result.state.reason is None else f"\nreason={result.state.reason}"
    return f"success={result.success!r}{reason}"


def _batch_csv_path(out: str) -> str:
    """Where a batch writing ``out`` puts its CSV: ``out`` with a ``.json``
    suffix swapped for ``.csv``, or with ``.csv`` appended."""
    return f"{out.removesuffix('.json')}.csv"


def _cmd_batch(cfg: RunConfig, out: str) -> str:
    records = run_batch(scenario_from_config(cfg))
    doc = batch_to_dict(records)
    write_json(out, doc)
    write_text(_batch_csv_path(out), batch_csv_text(records))
    return f"success_rate={doc['success_rate']!r}"


def _report(path: str) -> dict:
    """The scores of the trajectory CSV at ``path``."""
    traj = load_trajectory_csv(path)
    return {
        "trajectory": path,
        "duration_s": traj.duration,
        "jerk": jerk_metrics(traj),
        "rotation_jerk": rotation_jerk_metrics(traj),
    }


def _cmd_metrics(cfg: RunConfig, out: str) -> str:
    m = cfg.metrics
    if m.trajectory is None:
        raise ValueError("no trajectory given: pass --traj or set metrics.trajectory in the config")
    report = _report(m.trajectory)
    table = ""
    if m.baseline is not None:
        report["baseline"] = _report(m.baseline)
        report["comparison"] = compare_demonstrations(report, report["baseline"], "trajectory", "baseline")
        table = render_comparison_table(report["comparison"]) + "\n"
    write_json(out, report)
    return f"{table}metrics -> {out}"


# command -> the config section its flags set, and its handler
_COMMANDS: dict[str, tuple[str, Callable[[RunConfig, str], str]]] = {
    "fit": ("fit", _cmd_fit),
    "rollout": ("rollout", _cmd_rollout),
    "teach-sim": ("teach", _cmd_teach_sim),
    "localize": ("localize", _cmd_localize),
    "sweep": ("sweep", _cmd_sweep),
    "trial": ("trial", _cmd_trial),
    "batch": ("trial", _cmd_batch),
    "metrics": ("metrics", _cmd_metrics),
}


def _warn_line(message, category, filename, lineno, file=None, line=None) -> None:
    """A warning as one stderr line, without Python's source location."""
    print("lfdkit: warning: " + " ".join(str(message).splitlines()), file=sys.stderr)


def report_errors(command: Callable[[], int]) -> int:
    """Run ``command`` under the one-line error contract: a malformed file
    exits 2, any other ``ValueError``, ``OSError`` or ``RuntimeError`` exits
    1, each as one ``error:`` line on stderr, and each warning is one line."""
    with warnings.catch_warnings():
        warnings.showwarning = _warn_line
        try:
            return command()
        except ParseError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except (ValueError, OSError, RuntimeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


def check_out_dir(out: str) -> None:
    """Refuse an ``out`` that names a directory, nothing, or a file in a
    missing directory, with the error that writing it would raise, so a run
    fails before its work, not after."""
    if os.path.isdir(out):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), out)
    if not out or not os.path.isdir(os.path.dirname(out) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), out)


def _out_paths(command: str, out: str) -> tuple[str, ...]:
    """Every path ``command`` writes: ``out``, the resolved config beside
    it, and a batch's CSV."""
    return (out, f"{out}.config.json", *([_batch_csv_path(out)] if command == "batch" else []))


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    def command() -> int:
        cfg = _fold(load_config(args.config) if args.config else RunConfig(), args)
        for path in _out_paths(args.command, args.out):
            check_out_dir(path)
        summary = _COMMANDS[args.command][1](cfg, args.out)
        save_config(cfg, f"{args.out}.config.json")
        print(summary)
        return 0

    return report_errors(command)


if __name__ == "__main__":
    sys.exit(main())
