"""Scenario builder tests: the preset scenario, the config-built scenario
the CLI runs, and the build the preset used to spell out must agree. The
demonstration spline is checked against scipy's clamped ``CubicSpline``
(scipy is a test-only dependency)."""

import math
from dataclasses import fields

import numpy as np
import pytest

from lfdkit.assembly import AssemblyScenario
from lfdkit.config import config_from_dict
from lfdkit.dmp import fit_pose_dmp
from lfdkit.presets import (
    _clamped_spline,
    default_bar_scene,
    default_camera,
    default_scenario,
    demo_pose_waypoints,
    make_smooth_demo,
    scenario_from_config,
)
from lfdkit.se3 import Pose, from_rotation_vector, relative_rotation_vector_rows
from lfdkit.vision import scene_to_dict


def assert_same_scenario(a: AssemblyScenario, b: AssemblyScenario) -> None:
    for f in fields(AssemblyScenario):
        if f.name in ("scene", "cam"):
            continue  # compared through their file form below
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name == "dmp":
            assert np.array_equal(x.weights, y.weights)
            for g in ("alpha_s", "alpha_z", "beta_z", "tau", "centers", "widths"):
                assert np.array_equal(getattr(x, g), getattr(y, g)), g
            for g in ("demo_start", "demo_goal"):
                assert np.array_equal(getattr(x, g).position, getattr(y, g).position)
                assert getattr(x, g).orientation == getattr(y, g).orientation
        elif f.name == "initial_pose":
            assert np.array_equal(x.position, y.position)
            assert x.orientation == y.orientation
        else:
            assert x == y, f.name
    assert scene_to_dict(a.scene, a.cam) == scene_to_dict(b.scene, b.cam)


@pytest.mark.parametrize("noise_sigma, seed", [(0.0, 0), (5e-4, 11)])
def test_default_scenario_is_the_config_build(noise_sigma, seed):
    cfg = config_from_dict({"seed": seed, "trial": {"noise_sigma": noise_sigma}})
    assert_same_scenario(default_scenario(noise_sigma, seed), scenario_from_config(cfg))


def test_default_scenario_matches_spelled_out_build():
    wp, quats = demo_pose_waypoints(seed=0)
    want = AssemblyScenario(
        scene=default_bar_scene(),
        cam=default_camera(),
        dmp=fit_pose_dmp(make_smooth_demo(wp, duration=4.0, orientations=quats)),
        initial_pose=Pose([-0.06, -0.10, 0.25]),
        noise_sigma=5e-4,
        seed=4,
    )
    got = default_scenario(5e-4, 4)
    assert got.yaw_range == (-math.pi / 3.0, math.pi / 3.0)
    assert_same_scenario(got, want)


@pytest.mark.parametrize("k", [2, 5, 10])
@pytest.mark.parametrize("spacing", ["uniform", "uneven"])
def test_clamped_spline_matches_scipy(k, spacing):
    interpolate = pytest.importorskip("scipy.interpolate")
    rng = np.random.default_rng(k)
    knots = np.linspace(0.0, 4.0, k)
    if spacing == "uneven":
        knots[1:-1] = np.sort(rng.uniform(0.0, 4.0, k - 2))
    at = np.linspace(0.0, 4.0, 4001)
    positions = rng.normal(scale=0.1, size=(k, 3))
    quats = np.array([from_rotation_vector(v) for v in rng.normal(scale=0.3, size=(k, 3))])
    rotvecs = relative_rotation_vector_rows(quats, quats[:1])
    for values in (positions, rotvecs):
        want = interpolate.CubicSpline(knots, values, bc_type="clamped")(at)
        assert np.max(np.abs(_clamped_spline(knots, values, at) - want)) <= 1e-12
