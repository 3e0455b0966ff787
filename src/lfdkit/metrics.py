"""Trajectory-quality metrics: jerk statistics from triple finite
differencing, duration summaries, and paired smoothness comparisons.

Jerk norms mix units if translation and rotation are pooled, so the headline
report is translation-only (m/s^3) and rotational jerk (rad/s^3) is reported
separately.
"""

from __future__ import annotations

import math

import numpy as np

from .se3 import chart_rows
from .trajectory import Trajectory, finite_difference, resample_trajectory

__all__ = [
    "jerk_metrics",
    "rotation_jerk_metrics",
    "timing_stats",
    "compare_demonstrations",
    "render_comparison_table",
]

_EDGE_TRIM = 3  # one-sided stencils contaminate 3 samples per end after 3 passes


def _clipped_mean(values: np.ndarray) -> float:
    """The mean, clipped into [min, max] of the values, where the true mean
    lies: the rounded sum of n equal values can put it an ulp above them."""
    return float(np.clip(np.mean(values), np.min(values), np.max(values)))


def _interior_stats(norms: np.ndarray, trim: int, unit: str) -> dict:
    """``{"mean", "std", "max", "n_interior", "unit"}`` of the per-sample
    norms over the interior samples."""
    n = len(norms)
    trim = min(trim, max((n - 2) // 2, 0))
    interior = norms[trim:n - trim]
    mean = _clipped_mean(interior)
    std = float(np.std(interior, ddof=1)) if len(interior) > 1 else 0.0
    peak = float(np.max(interior))
    if not (peak >= mean >= 0.0 and std >= 0.0):
        raise ValueError("jerk statistics must satisfy max >= mean >= 0 and std >= 0")
    return {"mean": mean, "std": std, "max": peak, "n_interior": len(interior), "unit": unit}


def _uniform(traj: Trajectory) -> Trajectory:
    if len(traj) < 4:
        raise ValueError("need at least 4 samples to differentiate thrice")
    return traj if traj.is_uniform() else resample_trajectory(traj, traj.median_dt)


def jerk_metrics(traj: Trajectory) -> dict:
    """Third finite difference of position, Euclidean norm per sample, then
    mean/std/max over the interior (edges trimmed; the trim shrinks for very
    short inputs so at least two samples remain).

    Non-uniform input is resampled to its median dt first.
    """
    traj = _uniform(traj)
    return _position_jerk(traj.times, traj.positions)


def _position_jerk(times: np.ndarray, positions: np.ndarray) -> dict:
    """:func:`jerk_metrics` of positions on uniform times, at least 4 of them."""
    jerk = finite_difference(times, positions, 3)
    return _interior_stats(np.linalg.norm(jerk, axis=1), _EDGE_TRIM, "m/s^3")


def rotation_jerk_metrics(traj: Trajectory) -> dict:
    """Same statistic on orientation, differentiating rotation vectors taken
    relative to the first sample. Assumes the motion stays within a half-turn
    of its starting orientation (true of hand-guided demonstrations)."""
    traj = _uniform(traj)
    rvs = chart_rows(traj.orientations, traj.orientations[:1])
    jerk = finite_difference(traj.times, rvs, 3)
    return _interior_stats(np.linalg.norm(jerk, axis=1), _EDGE_TRIM, "rad/s^3")


def timing_stats(durations) -> dict:
    """``{"mean", "std"}``: the arithmetic mean and the sample (n-1)
    standard deviation; a singleton has std 0 by convention."""
    vals = [float(v) for v in durations]
    if not vals:
        raise ValueError("need at least one duration")
    if any(not math.isfinite(v) or v < 0 for v in vals):
        raise ValueError("durations must be finite and non-negative")
    arr = np.asarray(vals)
    std = float(np.std(arr, ddof=1)) if len(arr) > 1 else 0.0
    return {"mean": _clipped_mean(arr), "std": std}


def _comparison_row(metric: str, a: float, b: float) -> dict:
    """One metric of two trajectories; lower is better for every metric
    reported here. The ratio a / b is null, not Infinity, when b is 0:
    strict JSON has no infinity."""
    if a == b:
        winner, ratio = "tie", 1.0
    else:
        winner = "a" if a < b else "b"
        ratio = math.inf if b == 0.0 else a / b
    return {"metric": metric, "a": a, "b": b, "winner": winner,
            "ratio_a_over_b": ratio if math.isfinite(ratio) else None}


def compare_demonstrations(a: Trajectory, b: Trajectory, label_a: str = "a", label_b: str = "b") -> dict:
    """Per-metric winners and ratios for duration and jerk:
    ``{"label_a", "label_b", "rows"}``, one row per metric.

    Two single trajectories support an ordering claim only; no statistical
    test is implied at n = 1.
    """
    ja, jb = jerk_metrics(a), jerk_metrics(b)
    return {
        "label_a": label_a,
        "label_b": label_b,
        "rows": [
            _comparison_row("duration_s", a.duration, b.duration),
            _comparison_row("mean_jerk_m_s3", ja["mean"], jb["mean"]),
            _comparison_row("max_jerk_m_s3", ja["max"], jb["max"]),
        ],
    }


def render_comparison_table(report: dict, reference_rows=None) -> str:
    """Fixed-width text table of a :func:`compare_demonstrations` report.
    ``reference_rows`` are (label, text) pairs reproduced verbatim in a
    trailing section, for published numbers that are context rather than
    anything this code computed."""
    label_a, label_b = report["label_a"], report["label_b"]
    head = ["metric", label_a, label_b, "winner", "ratio"]
    body = []
    for r in report["rows"]:
        winner = {"a": label_a, "b": label_b, "tie": "tie"}[r["winner"]]
        ratio = "inf" if r["ratio_a_over_b"] is None else f"{r['ratio_a_over_b']:.3f}"
        body.append([r["metric"], f"{r['a']:.6g}", f"{r['b']:.6g}", winner, ratio])
    widths = [max(len(row[i]) for row in [head] + body) for i in range(5)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(row, widths)).rstrip() for row in [head] + body]
    if reference_rows:
        lines.append("")
        lines.append("reference values (reported, not computed here):")
        for label, text in reference_rows:
            lines.append(f"  {label}: {text}")
    return "\n".join(lines) + "\n"
