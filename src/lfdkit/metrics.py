"""Trajectory-quality metrics: jerk statistics from triple finite
differencing, duration summaries, and paired smoothness comparisons.

Jerk norms mix units if translation and rotation are pooled, so the headline
report is translation-only (m/s^3) and rotational jerk (rad/s^3) is reported
separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .se3 import relative_rotation_vector_rows
from .trajectory import Trajectory, finite_difference, resample_trajectory

__all__ = [
    "JerkReport",
    "TimingReport",
    "ComparisonRow",
    "ComparisonReport",
    "jerk_metrics",
    "rotation_jerk_metrics",
    "timing_stats",
    "compare_demonstrations",
    "render_comparison_table",
    "jerk_report_to_dict",
    "comparison_to_dict",
]

_EDGE_TRIM = 3  # one-sided stencils contaminate 3 samples per end after 3 passes


@dataclass(frozen=True)
class JerkReport:
    """Statistics of the per-sample jerk norm over the interior samples."""

    mean: float
    std: float
    max: float
    n_interior: int
    unit: str = "m/s^3"

    def __post_init__(self) -> None:
        if not (self.max >= self.mean >= 0.0 and self.std >= 0.0):
            raise ValueError("jerk statistics must satisfy max >= mean >= 0 and std >= 0")


@dataclass(frozen=True)
class TimingReport:
    """Mean and sample standard deviation of a set of durations."""

    durations: tuple[float, ...]
    mean: float
    std: float

    def __post_init__(self) -> None:
        if not (min(self.durations) <= self.mean <= max(self.durations)):
            raise ValueError("mean must lie within [min, max] of the durations")


def _clipped_mean(values: np.ndarray) -> float:
    """The mean, clipped into [min, max] of the values, where the true mean
    lies: the rounded sum of n equal values can put it an ulp above them."""
    return float(np.clip(np.mean(values), np.min(values), np.max(values)))


def _interior_stats(norms: np.ndarray, trim: int, unit: str) -> JerkReport:
    n = len(norms)
    trim = min(trim, max((n - 2) // 2, 0))
    interior = norms[trim:n - trim]
    std = float(np.std(interior, ddof=1)) if len(interior) > 1 else 0.0
    return JerkReport(
        mean=_clipped_mean(interior),
        std=std,
        max=float(np.max(interior)),
        n_interior=len(interior),
        unit=unit,
    )


def _uniform(traj: Trajectory) -> Trajectory:
    if len(traj) < 4:
        raise ValueError("need at least 4 samples to differentiate thrice")
    return traj if traj.is_uniform() else resample_trajectory(traj, traj.median_dt)


def jerk_metrics(traj: Trajectory) -> JerkReport:
    """Third finite difference of position, Euclidean norm per sample, then
    mean/std/max over the interior (edges trimmed; the trim shrinks for very
    short inputs so at least two samples remain).

    Non-uniform input is resampled to its median dt first.
    """
    traj = _uniform(traj)
    jerk = finite_difference(traj.times, traj.positions, 3)
    return _interior_stats(np.linalg.norm(jerk, axis=1), _EDGE_TRIM, "m/s^3")


def rotation_jerk_metrics(traj: Trajectory) -> JerkReport:
    """Same statistic on orientation, differentiating rotation vectors taken
    relative to the first sample. Assumes the motion stays within a half-turn
    of its starting orientation (true of hand-guided demonstrations)."""
    traj = _uniform(traj)
    rvs = relative_rotation_vector_rows(traj.orientations, traj.orientations[:1])
    jerk = finite_difference(traj.times, rvs, 3)
    return _interior_stats(np.linalg.norm(jerk, axis=1), _EDGE_TRIM, "rad/s^3")


def timing_stats(durations) -> TimingReport:
    """Arithmetic mean and sample (n-1) standard deviation; a singleton has
    std 0 by convention."""
    vals = [float(v) for v in durations]
    if not vals:
        raise ValueError("need at least one duration")
    if any(not math.isfinite(v) or v < 0 for v in vals):
        raise ValueError("durations must be finite and non-negative")
    arr = np.asarray(vals)
    std = float(np.std(arr, ddof=1)) if len(arr) > 1 else 0.0
    return TimingReport(durations=tuple(vals), mean=_clipped_mean(arr), std=std)


@dataclass(frozen=True)
class ComparisonRow:
    """One metric compared across two trajectories; lower is better for
    every metric reported here."""

    metric: str
    value_a: float
    value_b: float

    @property
    def winner(self) -> str:
        if self.value_a == self.value_b:
            return "tie"
        return "a" if self.value_a < self.value_b else "b"

    @property
    def ratio_a_over_b(self) -> float:
        if self.value_a == self.value_b:
            return 1.0
        if self.value_b == 0.0:
            return math.inf
        return self.value_a / self.value_b


@dataclass(frozen=True)
class ComparisonReport:
    label_a: str
    label_b: str
    rows: tuple[ComparisonRow, ...]


def compare_demonstrations(a: Trajectory, b: Trajectory, label_a: str = "a", label_b: str = "b") -> ComparisonReport:
    """Per-metric winners and ratios for duration and jerk.

    Two single trajectories support an ordering claim only; no statistical
    test is implied at n = 1.
    """
    ja, jb = jerk_metrics(a), jerk_metrics(b)
    rows = (
        ComparisonRow("duration_s", a.duration, b.duration),
        ComparisonRow("mean_jerk_m_s3", ja.mean, jb.mean),
        ComparisonRow("max_jerk_m_s3", ja.max, jb.max),
    )
    return ComparisonReport(label_a=label_a, label_b=label_b, rows=rows)


def render_comparison_table(report: ComparisonReport, reference_rows=None) -> str:
    """Fixed-width text table. ``reference_rows`` are (label, text) pairs
    reproduced verbatim in a trailing section, for published numbers that are
    context rather than anything this code computed."""
    head = ["metric", report.label_a, report.label_b, "winner", "ratio"]
    body = []
    for r in report.rows:
        winner = {"a": report.label_a, "b": report.label_b, "tie": "tie"}[r.winner]
        ratio = "inf" if math.isinf(r.ratio_a_over_b) else f"{r.ratio_a_over_b:.3f}"
        body.append([r.metric, f"{r.value_a:.6g}", f"{r.value_b:.6g}", winner, ratio])
    widths = [max(len(row[i]) for row in [head] + body) for i in range(5)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(row, widths)).rstrip() for row in [head] + body]
    if reference_rows:
        lines.append("")
        lines.append("reference values (reported, not computed here):")
        for label, text in reference_rows:
            lines.append(f"  {label}: {text}")
    return "\n".join(lines) + "\n"


def jerk_report_to_dict(r: JerkReport) -> dict:
    return {"mean": r.mean, "std": r.std, "max": r.max, "n_interior": r.n_interior, "unit": r.unit}


def comparison_to_dict(r: ComparisonReport) -> dict:
    return {
        "label_a": r.label_a,
        "label_b": r.label_b,
        "rows": [
            {
                "metric": row.metric,
                "a": row.value_a,
                "b": row.value_b,
                "winner": row.winner,
                # null, not Infinity, when b is 0: strict JSON has no infinity
                "ratio_a_over_b": row.ratio_a_over_b if math.isfinite(row.ratio_a_over_b) else None,
            }
            for row in r.rows
        ],
    }
