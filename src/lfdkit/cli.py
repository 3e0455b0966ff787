"""Command-line front end: each pipeline stage as a subcommand.

Every run folds its flags into one config document, executes from that
document alone, and writes it fully resolved to ``<out>.config.json``;
re-running with ``--config <out>.config.json`` and no other flags
reproduces the outputs byte for byte.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from dataclasses import asdict, replace
from typing import Callable, Sequence

from .assembly import batch_csv_text, batch_to_dict, execute_trial, parse_events, run_batch, trial_to_dict
from .config import RunConfig, load_config, save_config
from .dmp import fit_pose_dmp, load_dmp, rollout, save_dmp
from .ktc import simulate_demonstration
from .metrics import compare_demonstrations, jerk_metrics, render_comparison_table, rotation_jerk_metrics
from .presets import default_teach_setup, scenario_from_config, scene_from_config
from .se3 import Pose, quat_normalize
from .trajectory import ParseError, _brief_repr, fmt_float, load_trajectory_csv, read_json, read_text
from .trajectory import write_json, write_text
from .vision import NotDetectable, detection_range_sweep, fit_circle3d, hole_in_world, scene_from_dict
from .vision import synthesize_mask

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config document (defaults apply if omitted)")
    common.add_argument("--seed", type=int, help="override the config seed")
    common.add_argument(
        "--out", required=True, help="output path; the resolved config lands at OUT.config.json"
    )

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
    teach.add_argument("--controller", choices=["proposed", "native"], help="which drive to teach against")

    loc = sub.add_parser("localize", parents=[common], help="fit hole estimates from a scene")
    loc.add_argument("--scene", help="scene JSON (default desk scene if omitted)")
    loc.add_argument("--hole", type=int, help="single hole id (all holes if omitted)")

    sw = sub.add_parser("sweep", parents=[common], help="yaw detection-range sweep over a scene")
    sw.add_argument("--scene", help="scene JSON (default desk scene if omitted)")
    sw.add_argument("--start-deg", type=float, help="sweep start, degrees")
    sw.add_argument("--stop-deg", type=float, help="sweep stop, degrees")
    sw.add_argument("--step-deg", type=float, help="sweep step, degrees")

    tr = sub.add_parser("trial", parents=[common], help="run one scripted assembly trial")
    tr.add_argument("--scene", help="scene JSON (default desk scene if omitted)")
    tr.add_argument("--hole", type=int, help="fixed hole id (random detectable if omitted)")
    tr.add_argument("--yaw-deg", type=float, help="fixed bar yaw (random in range if omitted)")
    tr.add_argument("--events", help="event script: one 'time kind' per line")

    ba = sub.add_parser("batch", parents=[common], help="run n independent seeded trials")
    ba.add_argument("--scene", help="scene JSON (default desk scene if omitted)")
    ba.add_argument("--n", type=int, help="number of trials")

    me = sub.add_parser("metrics", parents=[common], help="jerk and timing reports for a trajectory CSV")
    me.add_argument("--traj", help="trajectory CSV to score")
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


def _fold_common(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "scene", None) is not None:
        scene = read_json(args.scene)
        scene_from_dict(scene, args.scene)
        cfg = replace(cfg, scene=scene)
    return cfg


def _finish(cfg: RunConfig, out: str) -> None:
    save_config(cfg, f"{out}.config.json")


def _cmd_fit(cfg: RunConfig, args: argparse.Namespace) -> int:
    if args.demo is not None:
        cfg = replace(cfg, fit=replace(cfg.fit, demo=args.demo))
    if cfg.fit.demo is None:
        raise ValueError("no demonstration given: pass --demo or set fit.demo in the config")
    demo = load_trajectory_csv(cfg.fit.demo)
    dmp = fit_pose_dmp(demo, **asdict(cfg.dmp))
    save_dmp(dmp, args.out)
    _finish(cfg, args.out)
    print(f"fit {dmp.n_basis} basis functions, tau={dmp.tau:.6g}s -> {args.out}")
    return 0


def _cmd_rollout(cfg: RunConfig, args: argparse.Namespace) -> int:
    ro = cfg.rollout
    if args.dmp is not None:
        ro = replace(ro, dmp=args.dmp)
    if args.start is not None:
        ro = replace(ro, start=_seven(args.start, "--start"))
    if args.goal is not None:
        ro = replace(ro, goal=_seven(args.goal, "--goal"))
    if args.tau is not None:
        ro = replace(ro, tau=args.tau)
    cfg = replace(cfg, rollout=ro)
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
    traj.save_csv(args.out)
    _finish(cfg, args.out)
    print(f"rollout {traj.times.size} samples over {traj.duration:.6g}s -> {args.out}")
    return 0


def _cmd_teach_sim(cfg: RunConfig, args: argparse.Namespace) -> int:
    if args.controller is not None:
        cfg = replace(cfg, teach=replace(cfg.teach, controller=args.controller))
    t = cfg.teach
    human, controller = default_teach_setup(t.controller, seed=cfg.seed, scale=t.waypoint_scale)
    traj = simulate_demonstration(
        human,
        controller,
        rate=t.rate,
        max_duration=t.max_duration,
        plant_time_constant=t.plant_time_constant,
        force_noise_std=t.force_noise_std,
        torque_noise_std=t.torque_noise_std,
        seed=cfg.seed,
    )
    traj.save_csv(args.out)
    _finish(cfg, args.out)
    print(
        f"teach-sim ({t.controller}) {traj.times.size} samples over {traj.duration:.6g}s -> {args.out}"
    )
    return 0


def _cmd_localize(cfg: RunConfig, args: argparse.Namespace) -> int:
    if args.hole is not None:
        cfg = replace(cfg, localize=replace(cfg.localize, hole_id=args.hole))
    scene, cam = scene_from_config(cfg)
    lo = cfg.localize
    if lo.hole_id is not None and not 0 <= lo.hole_id < len(scene.holes):
        raise ValueError(
            f"hole id {_brief_repr(lo.hole_id)} outside the scene's holes 0..{len(scene.holes) - 1}"
        )
    ids = range(len(scene.holes)) if lo.hole_id is None else [lo.hole_id]
    lines = ["hole_id,detected,center_x_m,center_y_m,center_z_m,axis_x,axis_y,axis_z,radius_m,rms_m"]
    n_found = 0
    for i in ids:
        try:
            mask = synthesize_mask(
                scene, cam, i, lo.noise_sigma, lo.dropout,
                seed=cfg.seed * 1000003 + i, n_points=lo.n_points,
            )
            est = hole_in_world(fit_circle3d(mask), cam)  # a rejected fit raises ValueError: not fitted
        except (NotDetectable, ValueError):
            lines.append(f"{i},0," + ",".join(["nan"] * 8))
            continue
        n_found += 1
        vals = [*est.center, *est.axis, est.radius, est.rms]
        lines.append(f"{i},1," + ",".join(fmt_float(v) for v in vals))
    write_text(args.out, "\n".join(lines) + "\n")
    _finish(cfg, args.out)
    print(f"localize: {n_found} of {len(list(ids))} holes fitted -> {args.out}")
    return 0


def _cmd_sweep(cfg: RunConfig, args: argparse.Namespace) -> int:
    # one replace, so the range checks see the final grid, not a half-folded one
    flags = {"start_deg": args.start_deg, "stop_deg": args.stop_deg, "step_deg": args.step_deg}
    sw = replace(cfg.sweep, **{k: v for k, v in flags.items() if v is not None})
    cfg = replace(cfg, sweep=sw)
    scene, cam = scene_from_config(cfg)
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
    write_text(args.out, "\n".join(lines) + "\n")
    _finish(cfg, args.out)
    for hole_id in sorted(intervals):
        spans = ", ".join(
            f"[{math.degrees(lo):.1f}, {math.degrees(hi):.1f}]" for lo, hi in intervals[hole_id]
        )
        print(f"hole {hole_id}: {spans or 'never detected'} deg")
    return 0


def _fold_trial(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    t = cfg.trial
    if getattr(args, "hole", None) is not None:
        t = replace(t, hole_id=args.hole)
    if getattr(args, "yaw_deg", None) is not None:
        t = replace(t, yaw_deg=args.yaw_deg)
    if getattr(args, "events", None) is not None:
        t = replace(t, events=args.events)
    if getattr(args, "n", None) is not None:
        t = replace(t, n=args.n)
    return replace(cfg, trial=t)


def _cmd_trial(cfg: RunConfig, args: argparse.Namespace) -> int:
    cfg = _fold_trial(cfg, args)
    events = None if cfg.trial.events is None else parse_events(read_text(cfg.trial.events), cfg.trial.events)
    result = execute_trial(scenario_from_config(cfg), events)
    write_json(args.out, trial_to_dict(result))
    _finish(cfg, args.out)
    print(f"success={result.success!r}")
    if result.state.reason is not None:
        print(f"reason={result.state.reason}")
    return 0


def _cmd_batch(cfg: RunConfig, args: argparse.Namespace) -> int:
    cfg = _fold_trial(cfg, args)
    template = scenario_from_config(cfg)
    records = run_batch(template, n=cfg.trial.n, seed=cfg.seed)
    doc = batch_to_dict(records)
    write_json(args.out, doc)
    csv_path = f"{args.out.removesuffix('.json')}.csv" if args.out.endswith(".json") else f"{args.out}.csv"
    write_text(csv_path, batch_csv_text(records))
    _finish(cfg, args.out)
    print(f"success_rate={doc['success_rate']!r}")
    return 0


def _cmd_metrics(cfg: RunConfig, args: argparse.Namespace) -> int:
    m = cfg.metrics
    if args.traj is not None:
        m = replace(m, trajectory=args.traj)
    if args.baseline is not None:
        m = replace(m, baseline=args.baseline)
    cfg = replace(cfg, metrics=m)
    if m.trajectory is None:
        raise ValueError("no trajectory given: pass --traj or set metrics.trajectory in the config")
    traj = load_trajectory_csv(m.trajectory)
    report = {
        "trajectory": m.trajectory,
        "duration_s": float(traj.duration),
        "jerk": jerk_metrics(traj),
        "rotation_jerk": rotation_jerk_metrics(traj),
    }
    if m.baseline is not None:
        base = load_trajectory_csv(m.baseline)
        comp = compare_demonstrations(traj, base, label_a="trajectory", label_b="baseline")
        report["baseline"] = {
            "trajectory": m.baseline,
            "duration_s": float(base.duration),
            "jerk": jerk_metrics(base),
            "rotation_jerk": rotation_jerk_metrics(base),
        }
        report["comparison"] = comp
        print(render_comparison_table(comp))
    write_json(args.out, report)
    _finish(cfg, args.out)
    print(f"metrics -> {args.out}")
    return 0


_HANDLERS: dict[str, Callable[[RunConfig, argparse.Namespace], int]] = {
    "fit": _cmd_fit,
    "rollout": _cmd_rollout,
    "teach-sim": _cmd_teach_sim,
    "localize": _cmd_localize,
    "sweep": _cmd_sweep,
    "trial": _cmd_trial,
    "batch": _cmd_batch,
    "metrics": _cmd_metrics,
}


def _warn_line(message, category, filename, lineno, file=None, line=None) -> None:
    """A warning as one stderr line, without Python's source location."""
    print("lfdkit: warning: " + " ".join(str(message).splitlines()), file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _warn_line
        try:
            cfg = load_config(args.config) if args.config else RunConfig()
            cfg = _fold_common(cfg, args)
            return _HANDLERS[args.command](cfg, args)
        except ParseError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except (ValueError, OSError, RuntimeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
