"""Jerk/timing metric tests. The quintic point-to-point profile is the
analytic oracle: its jerk is (60 d / T^3) * (1 - 6u + 6u^2) with u = t/T,
whose |.| integrates to 4*F(u1), F(u) = u - 3u^2 + 2u^3, u1 = (3 - sqrt(3))/6.
"""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfdkit.metrics import (
    _EDGE_TRIM,
    _interior_stats,
    compare_demonstrations,
    jerk_metrics,
    render_comparison_table,
    rotation_jerk_metrics,
    timing_stats,
)
from lfdkit.se3 import from_rotation_vector, quat_rotate_wxyz
from lfdkit.trajectory import Trajectory, write_json


def identity_quats(n):
    return np.tile([1.0, 0.0, 0.0, 0.0], (n, 1))


def quintic_profile(d=0.3, T=3.0, dt=1e-3):
    t = np.arange(0.0, T + dt / 2, dt)
    u = t / T
    x = d * (10.0 - (15.0 - 6.0 * u) * u) * u**3
    pos = np.zeros((len(t), 3))
    pos[:, 0] = x
    return Trajectory(t, pos, identity_quats(len(t)))


def quintic_jerk_stats(d=0.3, T=3.0):
    peak = 60.0 * d / T**3
    u1 = (3.0 - math.sqrt(3.0)) / 6.0
    f_u1 = u1 - 3.0 * u1**2 + 2.0 * u1**3
    return peak * 4.0 * f_u1, peak  # (mean of |jerk|, max |jerk|)


class TestJerkMetrics:
    def test_constant_velocity_is_exactly_zero(self):
        # dyadic grid and velocities so every difference cancels bit-exactly
        t = np.arange(41) * 0.25
        pos = np.outer(t, [0.125, -0.5, 0.25])
        r = jerk_metrics(Trajectory(t, pos, identity_quats(len(t))))
        assert r["mean"] == 0.0
        assert r["max"] == 0.0
        assert r["std"] == 0.0

    def test_quintic_matches_analytic(self):
        r = jerk_metrics(quintic_profile())
        mean, peak = quintic_jerk_stats()
        assert r["mean"] == pytest.approx(mean, rel=0.01)
        assert r["max"] == pytest.approx(peak, rel=0.01)
        assert r["unit"] == "m/s^3"

    def test_noise_strictly_increases_mean_jerk(self):
        clean = quintic_profile()
        rng = np.random.default_rng(5)
        noisy = Trajectory(
            clean.times,
            clean.positions + rng.normal(scale=1e-4, size=clean.positions.shape),
            identity_quats(len(clean)),
        )
        assert jerk_metrics(noisy)["mean"] > jerk_metrics(clean)["mean"]

    def test_rigid_transform_invariance(self):
        traj = quintic_profile(T=1.0, dt=2e-3)
        q = from_rotation_vector(np.array([0.3, -0.5, 0.8]))
        moved = Trajectory(
            traj.times,
            np.array([quat_rotate_wxyz(q, p) for p in traj.positions]) + np.array([1.0, -2.0, 0.5]),
            identity_quats(len(traj)),
        )
        a, b = jerk_metrics(traj), jerk_metrics(moved)
        assert b["mean"] == pytest.approx(a["mean"], abs=1e-9)
        assert b["max"] == pytest.approx(a["max"], abs=1e-9)
        assert b["std"] == pytest.approx(a["std"], abs=1e-9)

    def test_time_reversal_invariance(self):
        traj = quintic_profile(T=1.0, dt=2e-3)
        reversed_traj = Trajectory(
            traj.times, traj.positions[::-1], traj.orientations[::-1]
        )
        a, b = jerk_metrics(traj), jerk_metrics(reversed_traj)
        assert b["mean"] == pytest.approx(a["mean"], abs=1e-9)
        assert b["max"] == pytest.approx(a["max"], abs=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=-5.0, max_value=5.0).filter(lambda c: abs(c) > 0.01))
    def test_stats_scale_with_amplitude(self, c):
        traj = quintic_profile(T=1.0, dt=5e-3)
        scaled = Trajectory(traj.times, c * traj.positions, identity_quats(len(traj)))
        a, b = jerk_metrics(traj), jerk_metrics(scaled)
        assert b["mean"] == pytest.approx(abs(c) * a["mean"], rel=1e-9)
        assert b["max"] == pytest.approx(abs(c) * a["max"], rel=1e-9)

    def test_nonuniform_input_is_resampled(self):
        rng = np.random.default_rng(0)
        t = np.linspace(0.0, 1.0, 400)
        t[1:-1] += rng.uniform(-2e-4, 2e-4, size=398)
        pos = np.zeros((400, 3))
        pos[:, 0] = 0.25 * t**3
        r = jerk_metrics(Trajectory(t, pos, identity_quats(400)))
        assert math.isfinite(r["mean"])
        assert r["max"] >= r["mean"] >= 0.0

    def test_too_few_samples(self):
        t = np.array([0.0, 0.1, 0.2])
        with pytest.raises(ValueError, match="at least 4"):
            jerk_metrics(Trajectory(t, np.zeros((3, 3)), identity_quats(3)))

    @pytest.mark.parametrize("x", [1e300, 1.7e308])
    def test_jerk_past_the_float_range_is_refused_without_a_warning(self, x):
        # one huge sample once leaked numpy's overflow and invalid-value
        # warnings, then broke the report's internal invariant
        pos = np.zeros((400, 3))
        pos[299, 0] = x
        traj = Trajectory(np.arange(400) / 100, pos, identity_quats(400))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^jerk is not finite \(m/s\^3\): a sample is too large"):
                jerk_metrics(traj)

    def test_report_invariant_enforced(self):
        # a negative norm is the one input that breaks max >= mean >= 0
        with pytest.raises(ValueError, match="max >= mean >= 0"):
            _interior_stats(np.array([-2.0, -1.0]), _EDGE_TRIM, "m/s^3")
        with pytest.raises(ValueError, match="jerk is not finite"):
            _interior_stats(np.array([1.0, np.nan]), _EDGE_TRIM, "m/s^3")

    def test_report_is_plain_data(self):
        r = jerk_metrics(quintic_profile(T=1.0, dt=2e-3))
        assert list(r) == ["mean", "std", "max", "n_interior", "unit"]
        assert json.loads(json.dumps(r, allow_nan=False)) == r


class TestRotationJerk:
    def test_translation_only_motion_has_zero_rotation_jerk(self):
        r = rotation_jerk_metrics(quintic_profile(T=1.0, dt=2e-3))
        assert r["mean"] == 0.0
        assert r["max"] == 0.0
        assert r["unit"] == "rad/s^3"

    def test_constant_spin_has_zero_rotation_jerk(self):
        t = np.linspace(0.0, 1.0, 300)
        quats = np.array([from_rotation_vector(np.array([0.0, 0.0, 0.7 * ti])) for ti in t])
        r = rotation_jerk_metrics(Trajectory(t, np.zeros((300, 3)), quats))
        assert r["max"] < 1e-6

    def test_quintic_spin_matches_analytic(self):
        # same quintic shape, applied to a rotation angle about one axis
        T, angle = 2.0, 0.8
        t = np.arange(0.0, T + 5e-4, 1e-3)
        u = t / T
        theta = angle * (10.0 - (15.0 - 6.0 * u) * u) * u**3
        quats = np.array([from_rotation_vector(np.array([0.0, th, 0.0])) for th in theta])
        r = rotation_jerk_metrics(Trajectory(t, np.zeros((len(t), 3)), quats))
        mean, peak = quintic_jerk_stats(d=angle, T=T)
        assert r["mean"] == pytest.approx(mean, rel=0.01)
        assert r["max"] == pytest.approx(peak, rel=0.01)


class TestTimingStats:
    def test_exact_cases(self):
        r = timing_stats([10.0, 10.0, 10.0])
        assert (r["mean"], r["std"]) == (10.0, 0.0)
        r = timing_stats([1.0, 2.0, 3.0])
        assert (r["mean"], r["std"]) == (2.0, 1.0)

    def test_singleton_std_zero(self):
        r = timing_stats([7.5])
        assert r["std"] == 0.0
        assert r["mean"] == 7.5

    def test_mean_within_range(self):
        r = timing_stats([4.0, 9.0, 6.5])
        assert 4.0 <= r["mean"] <= 9.0
        assert list(r) == ["mean", "std"]

    def test_validation(self):
        with pytest.raises(ValueError):
            timing_stats([])
        with pytest.raises(ValueError):
            timing_stats([1.0, float("nan")])
        with pytest.raises(ValueError):
            timing_stats([-1.0])


# equal or nearly equal samples: the mean of n equal doubles can round an ulp
# above them, and must be clipped back into [min, max]
near_constant = st.builds(
    lambda base, steps: [base + k * math.ulp(base) for k in steps],
    st.one_of(st.floats(1e-300, 1e6), st.integers(1, 10_000).map(lambda k: k * 0.01)),
    st.lists(st.sampled_from([0, 0, 0, -2, -1, 1, 2]), min_size=1, max_size=40),
)


class TestMeanInRange:
    def test_equal_durations(self):
        r = timing_stats([0.05] * 3)
        assert r["mean"] == 0.05

    @settings(max_examples=300)
    @given(near_constant)
    def test_timing_stats(self, values):
        r = timing_stats(values)
        assert min(values) <= r["mean"] <= max(values)

    @settings(max_examples=300)
    @given(near_constant)
    def test_interior_stats(self, values):
        norms = np.array(values)
        r = _interior_stats(norms, _EDGE_TRIM, "m/s^3")
        n = len(norms)
        trim = min(_EDGE_TRIM, max((n - 2) // 2, 0))
        assert norms[trim:n - trim].min() <= r["mean"] <= r["max"]


def report(traj):
    """The part of a trajectory's ``metrics`` report that the comparison reads."""
    return {"duration_s": traj.duration, "jerk": jerk_metrics(traj)}


class TestComparison:
    def test_identical_inputs_all_tie(self):
        traj = quintic_profile(T=1.0, dt=2e-3)
        rep = compare_demonstrations(report(traj), report(traj))
        for row in rep["rows"]:
            assert row["winner"] == "tie"
            assert row["ratio_a_over_b"] == 1.0

    def test_clean_beats_noisy(self):
        clean = quintic_profile()
        rng = np.random.default_rng(9)
        noisy = Trajectory(
            clean.times,
            clean.positions + rng.normal(scale=1e-4, size=clean.positions.shape),
            identity_quats(len(clean)),
        )
        rep = compare_demonstrations(report(clean), report(noisy), "clean", "noisy")
        rows = {r["metric"]: r for r in rep["rows"]}
        assert rows["mean_jerk_m_s3"]["winner"] == "a"
        assert rows["max_jerk_m_s3"]["winner"] == "a"
        assert rows["mean_jerk_m_s3"]["ratio_a_over_b"] < 1.0

    def test_zero_denominator_ratio(self):
        # b never moves, so its jerk is exactly 0 and a's is not
        a = quintic_profile(T=1.0, dt=2e-3)
        b = Trajectory(a.times, np.zeros_like(a.positions), identity_quats(len(a)))
        rows = {r["metric"]: r for r in compare_demonstrations(report(a), report(b))["rows"]}
        for metric in ("mean_jerk_m_s3", "max_jerk_m_s3"):
            assert rows[metric]["b"] == 0.0 and rows[metric]["a"] > 0.0
            assert rows[metric]["ratio_a_over_b"] is None  # a / 0 is infinite
            assert rows[metric]["winner"] == "b"

    def test_infinite_ratio_emitted_as_null(self, tmp_path):
        # strict JSON has no Infinity; the file must load with a strict parser
        a = quintic_profile(T=1.0, dt=2e-3)
        b = Trajectory(a.times * 2.0, np.zeros_like(a.positions), identity_quats(len(a)))
        d = compare_demonstrations(report(a), report(b))
        assert [r["ratio_a_over_b"] for r in d["rows"]] == [0.5, None, None]
        path = tmp_path / "report.json"
        write_json(path, d)

        def reject(token):
            raise ValueError(token)

        assert json.loads(path.read_text(), parse_constant=reject) == d
        assert render_comparison_table(d).splitlines()[2].split()[-2:] == ["b", "inf"]

    def test_render_includes_reference_rows_verbatim(self):
        traj = quintic_profile(T=1.0, dt=2e-3)
        rep = compare_demonstrations(report(traj), report(traj), "proposed", "native")
        text = render_comparison_table(
            rep,
            reference_rows=[
                ("native duration_s", "24.66 ± 3.25"),
                ("proposed duration_s", "17.17 ± 0.756"),
            ],
        )
        assert "24.66 ± 3.25" in text
        assert "17.17 ± 0.756" in text
        assert "proposed" in text.splitlines()[0]

    def test_dict_emission(self):
        traj = quintic_profile(T=1.0, dt=2e-3)
        d = compare_demonstrations(report(traj), report(traj))
        assert [r["metric"] for r in d["rows"]] == ["duration_s", "mean_jerk_m_s3", "max_jerk_m_s3"]
        assert all(r["winner"] == "tie" for r in d["rows"])
