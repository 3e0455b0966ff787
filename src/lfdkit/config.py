"""One JSON document configures every command.

Each section mirrors one stage's knobs and carries its defaults, so a bare
``{}`` is a complete, runnable configuration.  Loading rejects unknown keys
recursively (a typo must fail loudly, not fall back to a default), and every
command writes the fully resolved document next to its outputs so the run
can be reproduced from that file alone.
"""

from __future__ import annotations

import json
import types
import typing
from dataclasses import asdict, dataclass, field, fields
from typing import Any

from .trajectory import ParseError

__all__ = [
    "DmpSection",
    "RolloutSection",
    "TeachSection",
    "LocalizeSection",
    "SweepSection",
    "TrialSection",
    "MetricsSection",
    "FitSection",
    "RunConfig",
    "config_from_dict",
    "config_to_dict",
    "load_config",
    "save_config",
]


def _positive(section: Any, *names: str) -> None:
    """Reject a set field that is not > 0 (NaN included); None means unset."""
    for name in names:
        value = getattr(section, name)
        if value is not None and not value > 0:
            raise ValueError(f"{name} must be positive, got {value!r}")


def _at_least(section: Any, bound: int, *names: str) -> None:
    for name in names:
        value = getattr(section, name)
        if not value >= bound:
            raise ValueError(f"{name} must be at least {bound}, got {value!r}")


@dataclass(frozen=True)
class FitSection:
    """Inputs for fitting a primitive from a demonstration CSV."""

    demo: str | None = None


@dataclass(frozen=True)
class DmpSection:
    """Fit parameters shared by ``fit`` and the trial pipeline; the field
    names are :func:`lfdkit.dmp.fit_pose_dmp`'s keyword arguments."""

    n_basis: int = 50
    alpha_z: float = 25.0
    beta_z: float | None = None
    alpha_s: float = 25.0 / 3.0
    gate_mode: str = "phase-gated"
    dt: float = 1e-3

    def __post_init__(self) -> None:
        _at_least(self, 2, "n_basis")
        _positive(self, "dt")


@dataclass(frozen=True)
class RolloutSection:
    """Replay inputs: primitive file plus optional start/goal overrides
    (7 numbers each: px py pz qw qx qy qz)."""

    dmp: str | None = None
    start: tuple[float, ...] | None = None
    goal: tuple[float, ...] | None = None
    tau: float | None = None
    dt: float = 1e-3
    horizon: float = 1.5

    def __post_init__(self) -> None:
        _positive(self, "tau", "dt")
        _at_least(self, 0, "horizon")


@dataclass(frozen=True)
class TeachSection:
    controller: str = "proposed"
    rate: float = 100.0
    max_duration: float = 60.0
    plant_time_constant: float = 0.05
    force_noise_std: float = 0.0
    torque_noise_std: float = 0.0
    waypoint_scale: float = 0.12

    def __post_init__(self) -> None:
        _positive(self, "rate", "max_duration", "plant_time_constant")
        _at_least(self, 0, "force_noise_std", "torque_noise_std")


@dataclass(frozen=True)
class LocalizeSection:
    hole_id: int | None = None
    noise_sigma: float = 0.0
    dropout: float = 0.0
    n_points: int = 200

    def __post_init__(self) -> None:
        _at_least(self, 3, "n_points")


@dataclass(frozen=True)
class SweepSection:
    start_deg: float = -80.0
    stop_deg: float = 80.0
    step_deg: float = 2.0
    noise_sigma: float = 0.0
    dropout: float = 0.0
    tolerance: float = 1e-3

    def __post_init__(self) -> None:
        _positive(self, "step_deg")


@dataclass(frozen=True)
class TrialSection:
    n: int = 20
    hole_id: int | None = None
    yaw_deg: float | None = None
    yaw_limit_deg: float = 60.0
    clearance: float = 5e-4
    tilt_tol_deg: float = 2.0
    required_depth: float = 0.010
    standoff: float = 0.030
    plan_overtravel: float = 0.002
    noise_sigma: float = 5e-4
    dropout: float = 0.0
    mask_points: int = 600
    demo_duration: float = 4.0
    events: str | None = None

    def __post_init__(self) -> None:
        _at_least(self, 1, "n")
        _at_least(self, 3, "mask_points")
        _positive(self, "demo_duration")


@dataclass(frozen=True)
class MetricsSection:
    trajectory: str | None = None
    baseline: str | None = None


@dataclass(frozen=True)
class RunConfig:
    """The whole run in one document; ``scene`` is the inline scene/camera
    description (None means the default desk scene)."""

    seed: int = 0
    scene: dict | None = None
    fit: FitSection = field(default_factory=FitSection)
    dmp: DmpSection = field(default_factory=DmpSection)
    rollout: RolloutSection = field(default_factory=RolloutSection)
    teach: TeachSection = field(default_factory=TeachSection)
    localize: LocalizeSection = field(default_factory=LocalizeSection)
    sweep: SweepSection = field(default_factory=SweepSection)
    trial: TrialSection = field(default_factory=TrialSection)
    metrics: MetricsSection = field(default_factory=MetricsSection)


_SECTIONS = {
    "fit": FitSection,
    "dmp": DmpSection,
    "rollout": RolloutSection,
    "teach": TeachSection,
    "localize": LocalizeSection,
    "sweep": SweepSection,
    "trial": TrialSection,
    "metrics": MetricsSection,
}


def _check_value(value: Any, hint: Any, where: str, path: str) -> Any:
    """Coerce a JSON value to the annotated type or reject it by field name.

    Handles exactly the shapes the sections use: scalars, optionals, and
    number tuples; ints are accepted for floats, bools never stand for
    numbers.
    """
    if isinstance(hint, types.UnionType):
        arms = typing.get_args(hint)
        if value is None and type(None) in arms:
            return None
        for arm in arms:
            if arm is type(None):
                continue
            try:
                return _check_value(value, arm, where, path)
            except ParseError:
                continue
        raise ParseError(path, 0, where, f"expected {hint}, got {type(value).__name__}")
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ParseError(path, 0, where, f"expected a list, got {type(value).__name__}")
        item = typing.get_args(hint)[0]
        return tuple(_check_value(v, item, where, path) for v in value)
    if hint is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ParseError(path, 0, where, f"expected a number, got {type(value).__name__}")
        return float(value)
    if hint is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ParseError(path, 0, where, f"expected an integer, got {type(value).__name__}")
        return value
    if hint is str:
        if not isinstance(value, str):
            raise ParseError(path, 0, where, f"expected a string, got {type(value).__name__}")
        return value
    return value


def _build_section(cls: type, data: Any, where: str, path: str) -> Any:
    if not isinstance(data, dict):
        raise ParseError(path, 0, where, f"expected an object, got {type(data).__name__}")
    hints = typing.get_type_hints(cls)
    allowed = {f.name for f in fields(cls)}
    for key in data:
        if key not in allowed:
            raise ParseError(path, 0, f"{where}.{key}", "unknown key")
    kwargs = {}
    for f in fields(cls):
        if f.name not in data:
            continue
        kwargs[f.name] = _check_value(data[f.name], hints[f.name], f"{where}.{f.name}", path)
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ParseError(path, 0, where, str(exc)) from None


def config_from_dict(data: dict, path: str = "<config>") -> RunConfig:
    """Build a config from a parsed JSON document, rejecting unknown keys
    at every level (section contents are checked recursively)."""
    if not isinstance(data, dict):
        raise ParseError(path, 0, "config", f"expected an object, got {type(data).__name__}")
    allowed = {"seed", "scene"} | set(_SECTIONS)
    for key in data:
        if key not in allowed:
            raise ParseError(path, 0, key, "unknown key")
    kwargs: dict[str, Any] = {}
    if "seed" in data:
        if not isinstance(data["seed"], int) or isinstance(data["seed"], bool):
            raise ParseError(path, 0, "seed", "must be an integer")
        kwargs["seed"] = data["seed"]
    if "scene" in data and data["scene"] is not None:
        from .vision import scene_from_dict

        try:
            scene_from_dict(data["scene"])
        except ValueError as exc:
            raise ParseError(path, 0, "scene", str(exc)) from None
        kwargs["scene"] = data["scene"]
    for name, cls in _SECTIONS.items():
        if name in data:
            kwargs[name] = _build_section(cls, data[name], name, path)
    return RunConfig(**kwargs)


def config_to_dict(cfg: RunConfig) -> dict:
    """Fully resolved document: the scene is materialized and section order
    is fixed so emitted files diff cleanly."""
    if cfg.scene is None:
        from .presets import default_bar_scene, default_camera
        from .vision import scene_to_dict

        scene = scene_to_dict(default_bar_scene(), default_camera())
    else:
        scene = cfg.scene
    out: dict[str, Any] = {"seed": cfg.seed, "scene": scene}
    for name in _SECTIONS:
        section = asdict(getattr(cfg, name))
        out[name] = {
            k: list(v) if isinstance(v, tuple) else v for k, v in section.items()
        }
    return out


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="ascii") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(str(path), exc.lineno, "json", exc.msg) from None
    return config_from_dict(data, path=str(path))


def save_config(cfg: RunConfig, path: str) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2)
        fh.write("\n")
