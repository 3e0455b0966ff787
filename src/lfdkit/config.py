"""One JSON document configures every command.

Each section mirrors one stage's knobs and carries its defaults, so a bare
``{}`` is a complete, runnable configuration.  Loading rejects unknown keys
recursively (a typo must fail loudly, not fall back to a default), and every
command writes the fully resolved document next to its outputs so the run
can be reproduced from that file alone.
"""

from __future__ import annotations

import math
import types
import typing
from dataclasses import asdict, dataclass, field, is_dataclass
from functools import cached_property
from typing import Any, Callable

from .assembly import _PLAN_DT, TrialSection
from .dmp import _check_stable, basis_layout, demo_steps, rollout_steps
from .ktc import _check_controller, _check_teach_noise, _check_teach_timing
from .se3 import quat_normalize
from .trajectory import ParseError, _at_least, _check_seed, _finite_fields, _positive, read_json, write_json
from .vision import BarScene, CameraModel, _check_corruption, _check_hole_id, _check_mask_points, default_bar_scene
from .vision import default_camera, scene_from_dict, scene_to_dict, sweep_yaw_count

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
    dt: float = 1e-3

    def __post_init__(self) -> None:
        _positive("alpha_z", self.alpha_z)
        if self.beta_z is not None:
            _positive("beta_z", self.beta_z)
        _positive("dt", self.dt)
        basis_layout(self.n_basis, self.alpha_s)


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
        _positive("dt", self.dt)
        _at_least("horizon", self.horizon, 0)
        if self.tau is not None:
            rollout_steps(self.tau, self.dt, self.horizon)
        _finite_fields(self)
        for name in ("start", "goal"):
            pose = getattr(self, name)
            if pose is None:
                continue
            try:
                if len(pose) != 7:
                    raise ValueError
                quat_normalize(*pose[3:])
            except ValueError:
                raise ValueError(
                    f"{name} must have 7 values (px,py,pz,qw,qx,qy,qz) with a nonzero quaternion, got {list(pose)}"
                ) from None


@dataclass(frozen=True)
class TeachSection:
    controller: str = "proposed"
    max_duration: float = 60.0
    force_noise_std: float = 0.0
    torque_noise_std: float = 0.0

    def __post_init__(self) -> None:
        _check_controller(self.controller)
        _check_teach_timing(self.max_duration)
        _check_teach_noise(self.force_noise_std, self.torque_noise_std)
        _finite_fields(self)


@dataclass(frozen=True)
class LocalizeSection:
    hole_id: int | None = None
    noise_sigma: float = 0.0
    dropout: float = 0.0
    n_points: int = 200

    def __post_init__(self) -> None:
        _check_mask_points(self.n_points)
        _check_corruption(self.noise_sigma, self.dropout)


@dataclass(frozen=True)
class SweepSection:
    start_deg: float = -80.0
    stop_deg: float = 80.0
    step_deg: float = 2.0
    noise_sigma: float = 0.0
    dropout: float = 0.0
    tolerance: float = 1e-3

    def __post_init__(self) -> None:
        _positive("step_deg", self.step_deg)
        _positive("tolerance", self.tolerance)
        _check_corruption(self.noise_sigma, self.dropout)
        _finite_fields(self)
        # the grid detection_range_sweep builds from the cli's radians
        sweep_yaw_count(*map(math.radians, (self.start_deg, self.stop_deg, self.step_deg)), "step_deg",
                        start_name="start_deg", stop_name="stop_deg")


@dataclass(frozen=True)
class MetricsSection:
    trajectory: str | None = None
    baseline: str | None = None


@dataclass(frozen=True)
class RunConfig:
    """The whole run in one document; ``scene`` is the scene/camera
    document, by default :func:`vision.default_bar_scene` seen by
    :func:`vision.default_camera`.

    Its rules are the ones that span sections, so every config meets them,
    loaded, built in code or folded from flags alike. A broken one raises a
    ValueError whose ``field`` names the value a file is refused on."""

    seed: int = 0
    scene: dict = field(default_factory=lambda: scene_to_dict(default_bar_scene(), default_camera()))
    fit: FitSection = field(default_factory=FitSection)
    dmp: DmpSection = field(default_factory=DmpSection)
    rollout: RolloutSection = field(default_factory=RolloutSection)
    teach: TeachSection = field(default_factory=TeachSection)
    localize: LocalizeSection = field(default_factory=LocalizeSection)
    sweep: SweepSection = field(default_factory=SweepSection)
    trial: TrialSection = field(default_factory=TrialSection)
    metrics: MetricsSection = field(default_factory=MetricsSection)

    def __post_init__(self) -> None:
        _rule("seed", _check_seed, self.seed)
        scene, _ = self.scene_and_camera  # a malformed scene is a ParseError on field 'scene'
        # the trial fits its demo at dmp.dt, and the plan replays it at _PLAN_DT, its tau the demo's duration
        _rule("dmp.dt", demo_steps, self.trial.demo_duration, self.dmp.dt)
        _rule("dmp.alpha_z", _check_stable, self.dmp.alpha_z, self.dmp.beta_z, self.trial.demo_duration, _PLAN_DT)
        for name in ("localize", "trial"):
            hole_id = getattr(self, name).hole_id
            if hole_id is not None:
                _rule(f"{name}.hole_id", _check_hole_id, scene, hole_id)

    @cached_property
    def scene_and_camera(self) -> tuple[BarScene, CameraModel]:
        """The scene document parsed."""
        return scene_from_dict(self.scene)


def _rule(name: str, check: Callable[..., object], *args: Any) -> None:
    """``check(*args)``, a ValueError it raises naming the field ``name``."""
    try:
        check(*args)
    except ValueError as exc:
        exc.field = name
        raise


def _check_value(value: Any, hint: Any, where: str, path: str) -> Any:
    """Coerce a JSON value to the annotated type or reject it by field name.

    Handles exactly the shapes the document uses: scalars, optionals,
    number tuples and sections; ints are accepted for floats, bools never
    stand for numbers.
    """
    if isinstance(hint, types.UnionType):  # every union of the document is T | None
        if value is None:
            return None
        (hint,) = [arm for arm in typing.get_args(hint) if arm is not type(None)]
    if is_dataclass(hint):
        return _build_section(hint, value, where, path)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ParseError(path, 0, where, f"expected a list, got {type(value).__name__}")
        item = typing.get_args(hint)[0]
        return tuple(_check_value(v, item, where, path) for v in value)
    if hint is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ParseError(path, 0, where, f"expected a number, got {type(value).__name__}")
        try:
            return float(value)
        except OverflowError:  # an integer literal past the float range
            raise ParseError(path, 0, where, "integer out of the float range") from None
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
    """The dataclass ``cls`` from the JSON object ``data``, named ``where``
    ('' for the whole document)."""
    if not isinstance(data, dict):
        raise ParseError(path, 0, where or "config", f"expected an object, got {type(data).__name__}")
    hints = typing.get_type_hints(cls)
    prefix = f"{where}." if where else ""
    for key in data:
        if key not in hints:
            raise ParseError(path, 0, prefix + key, "unknown key")
    kwargs = {key: _check_value(value, hints[key], prefix + key, path) for key, value in data.items()}
    try:
        return cls(**kwargs)
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an int past float range
        # a rule of RunConfig names its field, a section's own rule the section
        raise ParseError(path, 0, getattr(exc, "field", where), getattr(exc, "message", str(exc))) from None


def config_from_dict(data: dict, path: str = "<config>") -> RunConfig:
    """Build a config from a parsed JSON document, rejecting unknown keys
    at every level (section contents are checked recursively)."""
    return _build_section(RunConfig, data, "", path)


def config_to_dict(cfg: RunConfig) -> dict:
    """Fully resolved document: sections keep their field order, so emitted
    files diff cleanly."""
    return asdict(cfg)


def load_config(path: str) -> RunConfig:
    return config_from_dict(read_json(path), path=str(path))


def save_config(cfg: RunConfig, path: str) -> None:
    write_json(path, config_to_dict(cfg))
