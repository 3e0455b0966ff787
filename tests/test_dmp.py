"""Movement-primitive tests.

The load-bearing checks are driven by independent oracles:

* the forcing profile against a plain double-loop mixture sum
* forcing-target inversion against a hand-rolled Euler forward simulation
  driven by a known closed-form forcing function; fit_pose_dmp runs its
  whole fit in one call, so its intermediates are read from the private
  array helpers it calls, and its regression is fed set targets through a
  stubbed smoother
* zero-forcing rollouts against the critically damped closed-form solution
  y(t) = g + (y0 - g) * (1 - lam*t) * exp(lam*t), lam = -alpha_z / (2*tau)
* first-order convergence of the integrator under dt refinement
* rollout against a plain per-step explicit-Euler reference loop over the
  six coordinates [p, log(q * conj(g))]
* the six-axis Euler scan against LAPACK's banded triangular solve (scipy,
  a test-only dependency), which runs the same recurrence by forward
  substitution
"""

import gc
import json
import math
import time
import tracemalloc
import warnings
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from lfdkit import dmp as dmp_module
from lfdkit.cli import main
from lfdkit.dmp import (
    MAX_BASIS,
    ForcingUnderflow,
    PoseDmp,
    RolloutDiverged,
    _activations,
    _forcing_profile,
    _moving_average,
    _second_order_scan,
    _scan_rates,
    basis_layout,
    dmp_from_dict,
    dmp_to_dict,
    fit_pose_dmp,
    load_dmp,
    rollout,
    rollout_steps,
    save_dmp,
)
from lfdkit.presets import demo_pose_waypoints, make_smooth_demo
from lfdkit.se3 import (
    Pose,
    from_rotation_vector,
    quat_conj_wxyz,
    quat_mul_wxyz,
    rotation_vector_wxyz,
)
from lfdkit.trajectory import MAX_ROWS, ParseError, Trajectory, finite_difference

ALPHA_S = 25.0 / 3.0
ORIGIN = Pose(np.zeros(3))  # identity orientation


def angle_between(a, b):
    """Geodesic angle between two (w, x, y, z) orientations, in [0, pi]."""
    rel = quat_mul_wxyz(tuple(map(float, b)), quat_conj_wxyz(tuple(map(float, a))))
    return math.hypot(*rotation_vector_wxyz(rel))


def forcing_at(weights, centers, widths, s):
    """One axis of the forcing profile at phase s: the mixture times s."""
    w = np.asarray(weights, dtype=float)[None, :]
    profile, _ = _forcing_profile(w, np.asarray(centers, dtype=float), np.asarray(widths, dtype=float), np.array([s]))
    return float(profile[0, 0])


def underflowing_dmp():
    """Two narrow bases at the start of the phase: every basis underflows at
    the late phase samples of a rollout."""
    return PoseDmp(
        alpha_s=ALPHA_S, alpha_z=25.0, beta_z=6.25, tau=1.0, centers=[1.0, 0.9], widths=[1e7, 1e7],
        weights=np.full((6, 2), 5.0), demo_start=ORIGIN, demo_goal=ORIGIN,
    )


def smooth_demo(duration=3.0, seed=0, dt=1e-3):
    positions, quats = demo_pose_waypoints(seed=seed)
    return make_smooth_demo(positions, duration, dt=dt, orientations=quats)


def zero_weight_dmp(n_basis=50, tau=1.0, goal=None):
    centers, widths = basis_layout(n_basis, ALPHA_S)
    return PoseDmp(
        alpha_s=ALPHA_S,
        alpha_z=25.0,
        beta_z=6.25,
        tau=tau,
        centers=centers,
        widths=widths,
        weights=np.zeros((6, n_basis)),
        demo_start=ORIGIN,
        demo_goal=goal if goal is not None else ORIGIN,
    )


class TestBasisLayout:
    def test_layout_formulas(self):
        centers, widths = basis_layout(50, ALPHA_S)
        assert centers[0] == 1.0
        assert centers[-1] == pytest.approx(math.exp(-ALPHA_S), rel=1e-14)
        for i in range(49):
            assert centers[i] == pytest.approx(math.exp(-ALPHA_S * i / 49.0), rel=1e-14)
        for i in range(48):
            gap = centers[i + 1] - centers[i]
            assert widths[i] == pytest.approx(1.0 / (2.0 * gap * gap), rel=1e-14)
        assert widths[-1] == widths[-2]
        assert np.all(np.diff(centers) < 0)
        assert np.all(widths > 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            basis_layout(1, ALPHA_S)
        with pytest.raises(ValueError):
            basis_layout(10, 0.0)

    # (n_basis, last alpha_s whose layout is finite): past it the last gap
    # squared underflows, or at n_basis 2 the last center itself reaches 0
    @pytest.mark.parametrize("n_basis, edge", [(2, 745.13), (10, 399.64), (50, 362.63)])
    def test_underflowing_layout_rejected(self, n_basis, edge):
        centers, widths = basis_layout(n_basis, edge)
        assert centers[-1] > 0 and np.all(np.isfinite(widths))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the layout's own underflow and overflow stay silent
            for alpha_s in (edge + 0.01, 1000.0, 1e300):
                with pytest.raises(ValueError, match="alpha_s must keep every basis center above 0 and width finite"):
                    basis_layout(n_basis, alpha_s)
        # the config's text for it
        with pytest.raises(ValueError, match="^alpha_s must be finite, got inf$"):
            basis_layout(n_basis, math.inf)

    def test_check_allocates_nothing_of_size_n_basis(self):
        # the count is refused before the layout, of at most MAX_BASIS entries, is built
        basis_layout(MAX_BASIS, ALPHA_S)
        with pytest.raises(ValueError, match="width finite"):
            basis_layout(MAX_BASIS, 400.0)
        for n_basis in (MAX_BASIS + 1, 10**15):
            with pytest.raises(ValueError, match=f"n_basis must be at most {MAX_BASIS}"):
                basis_layout(n_basis, ALPHA_S)

    # all but the last were accepted while only the last gap was checked
    @pytest.mark.parametrize("n_basis, alpha_s", [(5, 3e-16), (10, 3e-16), (10, 5e-16), (3, 1e-300)])
    def test_gap_that_rounds_to_zero_rejected(self, n_basis, alpha_s):
        # exp rounds two neighbouring centers of a tiny alpha_s onto one
        # float, and that basis width is infinite
        assert np.any(np.diff(np.exp(-alpha_s * np.arange(n_basis) / (n_basis - 1))) == 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="alpha_s must keep every basis center above 0 and width finite"):
                basis_layout(n_basis, alpha_s)


class TestEvalForcing:
    def test_matches_double_loop(self):
        rng = np.random.default_rng(3)
        centers, widths = basis_layout(12, ALPHA_S)
        weights = rng.normal(size=12) * 40.0
        for s in rng.uniform(1e-4, 1.0, size=30):
            num = 0.0
            den = 0.0
            for i in range(12):
                psi = math.exp(-widths[i] * (s - centers[i]) ** 2)
                num += psi * weights[i]
                den += psi
            assert forcing_at(weights, centers, widths, s) == pytest.approx(s * num / den, rel=1e-12)

    def test_constant_weights_give_constant_mixture(self):
        centers, widths = basis_layout(30, ALPHA_S)
        for s in (1.0, 0.3, 0.01, 2.4e-4):
            assert forcing_at(np.full(30, 7.25), centers, widths, s) == pytest.approx(7.25 * s, rel=1e-12)

    def test_underflow_warns_and_returns_zero(self):
        dmp = underflowing_dmp()
        profile, underflows = _forcing_profile(dmp.weights[:1], dmp.centers, dmp.widths, np.array([0.01]))
        assert profile[0, 0] == 0.0 and underflows == 1
        # a rollout reaches phases where these narrow bases all underflow
        with pytest.warns(ForcingUnderflow, match=r"all bases underflowed at \d+ of 1501 phase samples"):
            rollout(dmp)

    def test_validation(self):
        # a primitive checks its basis: weights per basis, positive widths
        dmp = zero_weight_dmp(n_basis=5)
        with pytest.raises(ValueError):
            PoseDmp(**{**vars(dmp), "weights": np.zeros((6, 2))})
        with pytest.raises(ValueError, match="widths must be positive"):
            PoseDmp(**{**vars(dmp), "widths": -dmp.widths})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_weights_must_be_finite(self, bad):
        dmp = zero_weight_dmp(n_basis=5)
        weights = np.zeros((6, 5))
        weights[4, 2] = bad
        with pytest.raises(ValueError, match="^weights must be finite$"):
            PoseDmp(**{**vars(dmp), "weights": weights})

    @pytest.mark.parametrize("name", ["alpha_s", "alpha_z", "beta_z", "tau"])
    @pytest.mark.parametrize("value, text", [(0.0, "must be positive, got 0.0"), (math.nan, "must be positive, got nan"),
                                             (math.inf, "must be finite, got inf")])
    def test_gains_share_the_config_phrasing(self, name, value, text):
        dmp = zero_weight_dmp(n_basis=5)
        with pytest.raises(ValueError) as err:
            PoseDmp(**{**vars(dmp), name: value})
        assert str(err.value) == f"{name} {text}"

    @pytest.mark.parametrize("alpha_s", [1.7e308, 1000.0, 3e-16])
    def test_alpha_s_meets_the_basis_layout_rule(self, alpha_s):
        # the rule a config's alpha_s meets; 1.7e308 once overflowed the phase of every rollout
        dmp = zero_weight_dmp(n_basis=5)
        with pytest.raises(ValueError, match="^alpha_s must keep every basis center above 0 and width finite"):
            PoseDmp(**{**vars(dmp), "alpha_s": alpha_s})

    def test_primitive_file_with_a_huge_alpha_s_exits_2(self, tmp_path, capsys):
        path = tmp_path / "prim.json"
        path.write_text(json.dumps({**dmp_to_dict(zero_weight_dmp(n_basis=5)), "alpha_s": 1.7e308}))
        code = main(["rollout", "--dmp", str(path), "--out", str(tmp_path / "r.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert err == (f"error: {path}:0: field 'primitive': alpha_s must keep every basis center above 0 "
                       "and width finite, got 1.7e+308 at n_basis 5\n")
        assert not (tmp_path / "r.csv").exists()

    def test_one_basis_is_refused_as_a_config_refuses_it(self):
        dmp = zero_weight_dmp(n_basis=5)
        with pytest.raises(ValueError, match="^n_basis must be at least 2, got 1$"):
            PoseDmp(**{**vars(dmp), "centers": [1.0], "widths": [1.0], "weights": np.zeros((6, 1))})


def fit_steps(monkeypatch, traj, **kwargs):
    """fit_pose_dmp(traj, **kwargs) with the arrays it hands the private
    array helpers it calls: the grid times t and six coordinates x it
    differentiates, and the smoothed velocity and acceleration (None for a
    demonstration that never moves, whose acceleration is not needed)."""
    seen, smoothed = [], []

    def differentiate(t, x, order):
        seen.append((t, x))
        return finite_difference(t, x, order)

    def smooth(v):
        smoothed.append(_moving_average(v))
        return smoothed[-1]

    monkeypatch.setattr(dmp_module, "finite_difference", differentiate)
    monkeypatch.setattr(dmp_module, "_moving_average", smooth)
    dmp = fit_pose_dmp(traj, **kwargs)
    (t, x), *_ = seen
    return dmp, SimpleNamespace(t=t, x=x, vel=smoothed[0], acc=smoothed[1] if len(smoothed) > 1 else None)


def regression(s, targets, centers, widths):
    """Per-basis weighted least squares of (n, 6) targets against the gate s,
    the formula fit_pose_dmp documents, in plain matrix products."""
    psi = _activations(s, centers, widths)
    return (psi.T @ (s[:, None] * targets)).T / (psi.T @ (s * s))


def forcing_targets(dmp, steps):
    """The phase s and the inverted transformation system along a fit's
    intermediates; checks that the fitted weights regress exactly these."""
    tau = dmp.tau
    s = np.exp(-dmp.alpha_s * steps.t / tau)
    targets = tau**2 * steps.acc - dmp.alpha_z * (dmp.beta_z * (steps.x[-1] - steps.x) - tau * steps.vel)
    want = regression(s, targets, dmp.centers, dmp.widths)
    np.testing.assert_allclose(dmp.weights, want, rtol=1e-9, atol=1e-12 * np.max(np.abs(want)))
    return s, targets


def fit_to_targets(monkeypatch, forcing, n_basis=20, duration=1.0):
    """fit_pose_dmp's weights for the targets forcing(s), an (n, 6) array of
    the phase samples s, and s. The smoother is stubbed to hand the inversion
    a zero velocity and the acceleration whose targets those are, over a
    demonstration that creeps 1 um along x, so the weights show the
    per-basis regression alone."""
    grid, calls = {}, []

    def differentiate(t, x, order):
        grid["t"], grid["x"] = t, x
        return finite_difference(t, x, order)

    def smooth(v):
        calls.append(v)
        if len(calls) == 1:
            return np.zeros_like(v)
        t, x = grid["t"], grid["x"]
        tau = float(t[-1])
        grid["s"] = np.exp(-ALPHA_S * t / tau)
        return (forcing(grid["s"]) + 25.0 * (6.25 * (x[-1] - x))) / tau**2  # the default gains

    monkeypatch.setattr(dmp_module, "finite_difference", differentiate)
    monkeypatch.setattr(dmp_module, "_moving_average", smooth)
    t = np.arange(int(round(duration * 1000)) + 1) * 1e-3
    pos = np.zeros((len(t), 3))
    pos[:, 0] = 1e-6 * t / duration
    dmp = fit_pose_dmp(Trajectory(t, pos, np.tile([1.0, 0.0, 0.0, 0.0], (len(t), 1))), n_basis=n_basis)
    return dmp.weights, grid["s"]


class TestFitLwr:
    """The per-basis regression, with the targets set through a stubbed smoother."""

    def test_recovers_constant(self, monkeypatch):
        # gated targets s * c come from the constant mixture c
        weights, _ = fit_to_targets(monkeypatch, lambda s: np.outer(s, np.full(6, -3.75)))
        assert np.allclose(weights, -3.75, rtol=1e-9)

    # per-basis regression is a kernel smoother: it does not interpolate a
    # rough weight vector, it reproduces the emitted FUNCTION for targets
    # that vary smoothly over time (centers are uniform in time)

    def test_function_match_round_trip(self, monkeypatch):
        # targets sampled from a known mixture; the refit must reproduce the
        # emitted function to 1% RMS on s in [0.01, 1] even though individual
        # weights may differ. Double kernel smoothing biases rough profiles
        # (a full-period sine across the bases re-emits at only ~5%), so the
        # 1% contract is pinned with a gently varying profile.
        n = 20
        centers, widths = basis_layout(n, ALPHA_S)
        truth = np.tile(15.0 + 0.2 * np.arange(n), (6, 1))

        def emitted(weights, s):
            return _forcing_profile(weights, centers, widths, s)[0]

        weights, s = fit_to_targets(monkeypatch, lambda s: emitted(truth, s), n_basis=n)
        keep = s >= 0.01
        want = emitted(truth, s[keep])
        got = emitted(weights, s[keep])
        rms = np.sqrt(np.mean((got - want) ** 2))
        assert rms < 0.01 * np.sqrt(np.mean(want**2))

    def test_several_axes_match_one_axis_fits(self, monkeypatch):
        # the six axes share one activation matrix, and each axis's weights
        # depend on its own targets alone
        rng = np.random.default_rng(5)
        columns = rng.normal(size=(6, 3)) * 30.0

        def targets(s, only=None):
            f = np.outer(s, columns[:, 0]) + np.outer(np.sin(9.0 * s), columns[:, 1]) + columns[:, 2]
            if only is not None:
                f[:, np.arange(6) != only] = 0.0
            return f

        weights, _ = fit_to_targets(monkeypatch, targets, n_basis=30)
        assert weights.shape == (6, 30)
        for axis in range(6):
            one, _ = fit_to_targets(monkeypatch, lambda s: targets(s, axis), n_basis=30)
            np.testing.assert_allclose(weights[axis], one[axis], rtol=1e-13, atol=0.0)

    def test_unsupported_bases_reported_and_zeroed(self, monkeypatch):
        # eleven samples over 10 ms leave most of 200 narrow bases without support
        demo = smooth_demo(duration=0.01)
        with pytest.warns(RuntimeWarning, match=r"^(\d+) basis functions had no sample support$") as record:
            dmp, steps = fit_steps(monkeypatch, demo, n_basis=200)
        s = np.exp(-ALPHA_S * steps.t / dmp.tau)
        unsupported = _activations(s, dmp.centers, dmp.widths).T @ (s * s) <= 1e-12
        assert str(record[0].message) == f"{int(unsupported.sum())} basis functions had no sample support"
        assert 0 < unsupported.sum() < 200
        assert np.all(dmp.weights[:, unsupported] == 0.0)
        assert np.all(dmp.weights[:, ~unsupported] != 0.0)


class TestPrepareDemonstration:
    """The regrid, the chart and the smoothed derivatives fit_pose_dmp fits
    on, read from the private helpers it hands them to."""

    def test_uniform_grid_and_exact_endpoints(self, monkeypatch):
        traj = smooth_demo(duration=2.0)
        dmp, steps = fit_steps(monkeypatch, traj)
        assert dmp.tau == steps.t[-1] == pytest.approx(2.0, rel=1e-12)
        assert steps.t[0] == 0.0
        np.testing.assert_allclose(np.diff(steps.t), 1e-3, rtol=1e-9)
        np.testing.assert_array_equal(steps.x[0, :3], traj.positions[0])
        np.testing.assert_array_equal(steps.x[-1, :3], traj.positions[-1])
        np.testing.assert_array_equal(dmp.demo_start.position, traj.positions[0])
        np.testing.assert_array_equal(dmp.demo_goal.position, traj.positions[-1])

    def test_velocity_exact_on_quadratic(self, monkeypatch):
        # source already on the 1 kHz grid, so regridding is the identity
        t = np.linspace(0.0, 1.0, 1001)
        pos = np.stack([0.3 * t**2, -0.1 * t**2 + 0.2 * t, np.zeros_like(t)], axis=1)
        quats = np.tile([1.0, 0.0, 0.0, 0.0], (1001, 1))
        _, steps = fit_steps(monkeypatch, Trajectory(t, pos, quats))
        inner = slice(5, -5)  # edge smoothing is asymmetric by design
        expect = np.stack([0.6 * steps.t, -0.2 * steps.t + 0.2, np.zeros_like(steps.t)], axis=1)
        np.testing.assert_allclose(steps.vel[inner, :3], expect[inner], atol=1e-9)
        np.testing.assert_allclose(steps.acc[inner, 0], 0.6, atol=1e-6)

    def test_omega_constant_spin(self, monkeypatch):
        # a spin at w about z is e = (0, 0, w (t - T)) in the goal's log chart
        w = 0.8
        t = np.linspace(0.0, 1.0, 201)
        quats = np.array([from_rotation_vector(np.array([0.0, 0.0, w * ti])) for ti in t])
        pos = np.zeros((201, 3))
        _, steps = fit_steps(monkeypatch, Trajectory(t, pos, quats))
        np.testing.assert_allclose(steps.x[:, 5], w * (steps.t - 1.0), atol=1e-12)
        np.testing.assert_array_equal(steps.x[-1, 3:], 0.0)
        inner = slice(5, -5)
        np.testing.assert_allclose(steps.vel[inner, 5], w, atol=1e-6)
        np.testing.assert_allclose(steps.vel[inner, 3:5], 0.0, atol=1e-9)
        np.testing.assert_allclose(steps.acc[inner, 3:], 0.0, atol=1e-4)

    @staticmethod
    def spin_demo(degrees):
        t = np.linspace(0.0, 1.0, 201)
        quats = np.array([from_rotation_vector(np.array([0.0, 0.0, math.radians(degrees) * ti])) for ti in t])
        return Trajectory(t, np.zeros((201, 3)), quats)

    def test_half_turn_from_goal_rejected(self, tmp_path, capsys, monkeypatch):
        # spun 200 deg about z, the demo starts 160 deg from its goal and
        # passes 180 deg at t = 0.1 s, where the shortest-arc chart jumps
        with pytest.raises(ValueError, match=r"passes a half turn from its goal orientation at t = 0\.(099|1)\d* s"):
            fit_pose_dmp(self.spin_demo(200.0))
        self.spin_demo(200.0).save_csv(tmp_path / "demo.csv")
        assert main(["fit", "--demo", str(tmp_path / "demo.csv"), "--out", str(tmp_path / "prim.json")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "passes a half turn" in err and "Traceback" not in err
        # 170 deg never leaves the chart
        _, steps = fit_steps(monkeypatch, self.spin_demo(170.0))
        assert steps.x[0, 5] == pytest.approx(-math.radians(170.0))

    def test_too_few_samples_rejected(self, monkeypatch):
        traj = Trajectory([0.0, 1.0], np.zeros((2, 3)), np.tile([1.0, 0.0, 0.0, 0.0], (2, 1)))
        # the moving average over the derivatives needs one 5-sample window
        _, steps = fit_steps(monkeypatch, traj, dt=0.25)
        assert len(steps.t) == 5
        for dt in (0.3, 0.6, 1.0):
            with pytest.raises(ValueError, match="of the 5 samples fitting needs"):
                fit_pose_dmp(traj, dt=dt)

    def test_rejects_too_short(self):
        with pytest.raises(ValueError, match="at least 2 samples"):
            fit_pose_dmp(Trajectory([0.0], np.zeros((1, 3)), [[1.0, 0.0, 0.0, 0.0]]))


class TestForcingTargets:
    """The inversion of the transformation system along a demonstration, on
    the intermediates fit_pose_dmp hands its private helpers; each test also
    checks that the fitted weights regress exactly those targets."""

    def test_zero_on_critically_damped_relaxation(self, monkeypatch):
        # the unforced transform system solves exactly to
        # y = g + (y0 - g)(1 - lam t) e^(lam t); inverting it must give ~0
        az, tau = 25.0, 1.0
        lam = -az / (2.0 * tau)
        y0 = np.array([0.1, -0.2, 0.3])
        g = np.array([0.4, 0.1, -0.1])
        t = np.arange(0.0, 1.0 + 1e-9, 1e-3)
        shape = (1.0 - lam * t) * np.exp(lam * t)
        pos = g[None, :] + (y0 - g)[None, :] * shape[:, None]
        quats = np.tile([1.0, 0.0, 0.0, 0.0], (len(t), 1))
        dmp, steps = fit_steps(monkeypatch, Trajectory(t, pos, quats), alpha_z=az)
        _, targets = forcing_targets(dmp, steps)
        scale = az * (az / 4.0) * float(np.max(np.abs(g - y0)))
        inner = slice(5, -5)
        assert np.max(np.abs(targets[inner])) < 1e-3 * scale

    def test_inversion_recovers_injected_forcing(self, monkeypatch):
        # independent forward Euler simulation with a known forcing law,
        # then invert the recorded motion and compare
        az, bz, tau = 25.0, 6.25, 1.5

        def injected(s):
            return 80.0 * math.sin(6.0 * s) * s

        dt_sim = 2e-5
        keep = 50  # record at 1 kHz
        y = 0.0
        z = 0.0
        s = 1.0
        decay = math.exp(-ALPHA_S * dt_sim / tau)
        n_sim = int(round(tau / dt_sim))
        ys = [y]
        for k in range(n_sim):
            f = injected(s)
            z_new = z + dt_sim / tau * (az * (bz * (0.25 - y) - z) + f)
            y += dt_sim / tau * z
            z = z_new
            s *= decay
            if (k + 1) % keep == 0:
                ys.append(y)
        t = np.arange(len(ys)) * (dt_sim * keep)
        pos = np.zeros((len(ys), 3))
        pos[:, 0] = ys
        quats = np.tile([1.0, 0.0, 0.0, 0.0], (len(ys), 1))
        dmp, steps = fit_steps(monkeypatch, Trajectory(t, pos, quats), alpha_z=az, beta_z=bz)
        s_k, targets = forcing_targets(dmp, steps)
        inner = slice(5, -5)
        raw = targets[inner, 0]
        expect = np.array([injected(v) for v in s_k[inner]])
        rms = np.sqrt(np.mean((raw - expect) ** 2))
        assert rms < 0.02 * np.sqrt(np.mean(expect**2))
        # axes with no motion and no rotation invert to ~0
        assert np.max(np.abs(targets[inner, 1:])) < 1e-6 * np.max(np.abs(expect))

    @pytest.mark.parametrize("alpha_z, text", [
        (1e160, "forcing targets overflow at alpha_z = 1e+160, beta_z = 2.5e+159"),  # in the targets
        (1e154, "weights must be finite"),  # finite targets, in the weights' division
    ])
    def test_overflowing_gains_are_refused_without_a_warning(self, alpha_z, text):
        # such a fit once returned all-NaN weights behind a numpy overflow warning
        wp, quats = demo_pose_waypoints(seed=0)
        demo = make_smooth_demo(wp, duration=2.0, orientations=quats)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as err:
                fit_pose_dmp(demo, alpha_z=alpha_z)
        assert str(err.value) == text


class TestRollout:
    def test_zero_forcing_matches_closed_form(self):
        goal = Pose(np.array([1.0, -0.5, 0.25]), (1.0, 0.0, 0.0, 0.0))
        dmp = zero_weight_dmp(tau=1.0, goal=goal)
        traj = rollout(dmp, start=ORIGIN, goal=goal, dt=1e-4)
        lam = -25.0 / 2.0
        shape = (1.0 - lam * traj.times) * np.exp(lam * traj.times)
        expect = goal.position[None, :] * (1.0 - shape[:, None])
        assert np.max(np.abs(traj.positions - expect)) < 5e-3

    def test_euler_error_shrinks_first_order(self):
        goal = Pose(np.array([1.0, 0.0, 0.0]), (1.0, 0.0, 0.0, 0.0))
        dmp = zero_weight_dmp(tau=1.0, goal=goal)
        lam = -25.0 / 2.0

        def max_err(dt):
            traj = rollout(dmp, start=ORIGIN, goal=goal, dt=dt)
            shape = (1.0 - lam * traj.times) * np.exp(lam * traj.times)
            return np.max(np.abs(traj.positions[:, 0] - (1.0 - shape)))

        ratio = max_err(1e-4) / max_err(2e-5)
        assert 3.0 < ratio < 8.0  # first order in dt

    def test_zero_forcing_monotone_approach(self):
        goal = Pose(np.array([0.3, -0.3, 0.1]), (1.0, 0.0, 0.0, 0.0))
        dmp = zero_weight_dmp(tau=1.0, goal=goal)
        traj = rollout(dmp, start=ORIGIN, goal=goal)
        for axis in range(3):
            d = np.diff(traj.positions[:, axis]) * np.sign(goal.position[axis])
            assert np.all(d > -1e-12)

    def test_orientation_converges_to_goal(self):
        gq = from_rotation_vector(np.array([0.4, -0.3, 0.2]))
        goal = Pose(np.zeros(3), gq)
        dmp = zero_weight_dmp(tau=1.0, goal=goal)
        traj = rollout(dmp, start=ORIGIN, goal=goal)
        assert angle_between(traj.orientations[-1], gq) < 1e-4

    def test_gated_same_weights_still_reach_goal(self):
        n = 50
        centers, widths = basis_layout(n, ALPHA_S)
        goal = Pose(np.array([0.1, 0.0, 0.0]), (1.0, 0.0, 0.0, 0.0))
        dmp = PoseDmp(
            alpha_s=ALPHA_S, alpha_z=25.0, beta_z=6.25, tau=1.0,
            centers=centers, widths=widths,
            weights=np.vstack([np.full(n, 31.25), np.zeros((5, n))]),
            demo_start=ORIGIN, demo_goal=goal,
        )
        traj = rollout(dmp)
        assert np.linalg.norm(traj.positions[-1] - goal.position) < 1e-3

    def test_times_are_the_step_grid_bit_for_bit(self):
        dmp = fit_pose_dmp(smooth_demo(duration=3.0))
        for tau, dt, horizon in ((None, 1e-3, 1.5), (2.0, 7e-3, 1.0), (3.3, 1e-4, 1.25)):
            for _ in range(2):  # a scan, then the kept responses
                times = rollout(dmp, tau=tau, dt=dt, horizon=horizon).times
                want = np.arange(len(times)) * dt
                assert len(times) == rollout_steps(dmp.tau if tau is None else tau, dt, horizon) + 1
                assert np.array_equal(times.view(np.int64), want.view(np.int64))

    def test_time_scaling_halves_indices(self):
        traj_demo = smooth_demo(duration=3.0)
        dmp = fit_pose_dmp(traj_demo)
        a = rollout(dmp, tau=3.0)
        b = rollout(dmp, tau=6.0)
        idx = np.arange(len(a))
        pos_diff = np.max(np.linalg.norm(b.positions[2 * idx] - a.positions, axis=1))
        assert pos_diff < 1e-3
        worst = 0.0
        for k in range(0, len(a), 97):
            worst = max(worst, angle_between(a.orientations[k], b.orientations[2 * k]))
        assert worst < math.radians(0.1)

    @staticmethod
    def blowup_dmp(w_pos, w_rot):
        n = 50
        centers, widths = basis_layout(n, ALPHA_S)
        return PoseDmp(
            alpha_s=ALPHA_S, alpha_z=25.0, beta_z=6.25, tau=1.0,
            centers=centers, widths=widths,
            weights=np.vstack([np.full((3, n), w_pos), np.full((3, n), w_rot)]),
            demo_start=ORIGIN, demo_goal=ORIGIN,
        )

    def test_divergence_raises_with_step(self):
        with pytest.raises(RolloutDiverged) as exc:
            rollout(self.blowup_dmp(1e20, 0.0))
        assert exc.value.step == 1
        assert "step" in str(exc.value)

    # the first bad step is the first row whose |z| over six axes plus |p|
    # and |e| sum to 1e15 or more; the per-step explicit-Euler loop of
    # reference_rollout checks that sum each step and must agree
    @pytest.mark.parametrize(
        "w_pos, w_rot, step",
        [
            (0.0, 1e20, 1),  # rotation only, at once
            (0.0, 5e16, 8),  # rotation only, later (1e16 decays with s before it diverges)
            (1e16, 1e16, 25),  # both
            (0.0, 1e300, 1),
            (1e300, 0.0, 1),
        ],
    )
    def test_divergence_first_bad_step(self, w_pos, w_rot, step):
        dmp = self.blowup_dmp(w_pos, w_rot)
        with pytest.raises(RolloutDiverged) as exc:
            rollout(dmp)
        assert exc.value.step == step
        assert exc.value.t == pytest.approx(step * 1e-3)
        with pytest.raises(RolloutDiverged) as ref:
            reference_rollout(dmp, dmp.demo_start, dmp.demo_goal)
        assert ref.value.step == step

    @pytest.mark.parametrize(
        "alpha_z, beta_z, dt",
        [
            (1e160, 2.5e159, 1e-3),  # alpha_z * beta_z overflows: c0 is inf
            (1e160, 1e-300, 1e-3),  # finite coefficients, but h^2 overflows: a root at inf
            (4000.0, 1000.0, 1e-3),  # alpha_z dt/tau = 4 at critical damping: a double root at -1
            (500.0, 125.0, 1e-2),  # alpha_z dt/tau = 5: a double root at -1.5
        ],
        ids=["c0-overflows", "root-overflows", "a-is-4", "a-is-5"],
    )
    def test_unstable_filter_is_refused_before_step_one(self, alpha_z, beta_z, dt):
        # such a filter once diverged at step 1 or later, or, from a start on
        # its goal (as here), held the goal while its unit response overflowed
        dmp = replace(self.blowup_dmp(0.0, 0.0), alpha_z=alpha_z, beta_z=beta_z)
        text = (f"alpha_z must leave the Euler step at dt = {dt:.6g} s, tau = 1 s stable (both roots of its filter"
                f" inside the unit circle), got {alpha_z!r} with beta_z = {beta_z!r}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as err:
                rollout(dmp, dt=dt)
        assert str(err.value) == text
        assert dmp_module._last_responses is None or dmp_module._last_responses[0] is not dmp

    def test_stability_rule_edge(self):
        # just inside a = 4 at critical damping the roots sit at -0.9995
        dmp = replace(self.blowup_dmp(0.0, 0.0), alpha_z=3998.0, beta_z=999.5)
        traj = rollout(dmp, goal=Pose(np.array([1e-3, 0.0, 0.0])))
        assert np.all(np.isfinite(traj.positions))
        with pytest.raises(ValueError, match="must leave the Euler step"):
            rollout(replace(dmp, alpha_z=4000.0, beta_z=1000.0))

    def test_gain_below_rounding_holds_the_start(self):
        # alpha_z dt/tau under half an ulp of 2 rounds c1 to 2: a double root
        # at 1, once a ZeroDivisionError that reached the user as a traceback
        dmp = replace(self.blowup_dmp(0.0, 0.0), alpha_z=1e-20, beta_z=1e-20)
        traj = rollout(dmp, goal=Pose(np.array([0.1, -0.2, 0.3])))
        assert np.array_equal(traj.positions, np.zeros_like(traj.positions))

    def test_large_bounded_forcing_does_not_diverge(self):
        # the gated forcing decays with s before the state reaches the bound
        traj = rollout(self.blowup_dmp(1e16, 0.0))
        assert np.all(np.isfinite(traj.positions))

    def test_dt_validation(self):
        dmp = zero_weight_dmp(tau=1.0)
        with pytest.raises(ValueError):
            rollout(dmp, dt=0.0)
        with pytest.raises(ValueError):
            rollout(dmp, dt=0.5)
        with pytest.raises(ValueError):
            rollout(dmp, tau=-1.0)
        with pytest.raises(ValueError):
            rollout(dmp, horizon=-1.0)
        assert len(rollout(dmp, horizon=0.0)) == 1

    def test_orientation_past_a_full_turn_wraps(self):
        # a strong forcing on e's z axis drives it past two full turns; exp(e) g
        # is the same rotation whichever way round e is counted
        n = 50
        centers, widths = basis_layout(n, ALPHA_S)
        weights = np.zeros((6, n))
        weights[5] = 6000.0
        dmp = PoseDmp(
            alpha_s=ALPHA_S, alpha_z=25.0, beta_z=6.25, tau=1.0, centers=centers, widths=widths,
            weights=weights, demo_start=ORIGIN, demo_goal=ORIGIN,
        )
        theta = reference_coords(dmp, ORIGIN, ORIGIN)[1][:, 5]
        assert theta.max() > 4.0 * math.pi
        want = np.column_stack([np.cos(theta / 2), np.zeros((len(theta), 2)), np.sin(theta / 2)])
        got = rollout(dmp).orientations
        # up to sign: Trajectory puts both on w >= 0, which is a tie near w = 0
        gap = np.minimum(np.linalg.norm(got - want, axis=1), np.linalg.norm(got + want, axis=1))
        assert np.max(gap) < 1e-9


class TestRowCap:
    """Every case is rejected in float arithmetic before any array of its
    size exists; tracemalloc checks that nothing near it was allocated."""

    @staticmethod
    def peak_bytes(call):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"more than the cap of {MAX_ROWS}"):
                call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("kwargs", [{"tau": 1e9}, {"dt": 1e-12}, {"horizon": 1e12}, {"tau": 1e300, "dt": 1e-300}])
    def test_rollout(self, kwargs):
        assert self.peak_bytes(lambda: rollout(zero_weight_dmp(), **kwargs)) < 100_000

    def test_demonstration(self):
        traj = Trajectory([0.0, 1e4], np.zeros((2, 3)), np.tile([1.0, 0.0, 0.0, 0.0], (2, 1)))
        assert self.peak_bytes(lambda: fit_pose_dmp(traj)) < 100_000
        assert self.peak_bytes(lambda: fit_pose_dmp(smooth_demo(duration=1.0), dt=1e-9)) < 1_000_000

    def test_smooth_demo(self):
        wp, _ = demo_pose_waypoints()
        assert self.peak_bytes(lambda: make_smooth_demo(wp, duration=1e4)) < 100_000
        assert self.peak_bytes(lambda: make_smooth_demo(wp, duration=1.0, dt=1e-9)) < 100_000

    def test_at_the_cap(self):
        assert rollout_steps(MAX_ROWS - 1.0, 1.0, 1.0) == MAX_ROWS - 1
        with pytest.raises(ValueError, match="needs 1000001 samples"):
            rollout_steps(float(MAX_ROWS), 1.0, 1.0)


class TestBasisCap:
    """A primitive holds at most MAX_BASIS bases, so a rollout's activation
    matrix stays under MAX_ROWS x MAX_BASIS; refused before any rollout."""

    @staticmethod
    def oversized_doc():
        n = MAX_BASIS + 1
        doc = dmp_to_dict(zero_weight_dmp(n_basis=5))
        doc.update(N=n, centers=np.linspace(1.0, 0.01, n).tolist(), widths=[1.0] * n, weights=[[0.0] * n] * 6)
        return doc

    def test_primitive_file_past_the_cap_rejected(self):
        with pytest.raises(ParseError, match=f"at most {MAX_BASIS} basis functions, got {MAX_BASIS + 1}"):
            dmp_from_dict(self.oversized_doc())

    def test_cli_rollout_exits_2(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(self.oversized_doc()))
        code = main(["rollout", "--dmp", str(path), "--out", str(tmp_path / "r.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and f"at most {MAX_BASIS} basis functions" in err
        assert not (tmp_path / "r.csv").exists()

    def test_fit_past_the_cap_rejected(self):
        with pytest.raises(ValueError, match=f"n_basis must be at most {MAX_BASIS}"):
            fit_pose_dmp(smooth_demo(duration=1.0), n_basis=10**9)


def reference_coords(dmp, start, goal, dt=1e-3, horizon=1.5):
    """Plain per-step explicit Euler of the six coordinates [p, e], one state
    at a time, with e = log(q * conj(g)) the full-angle rotation vector on
    the shortest arc and goal [g, 0]; returns (times, coords).

    Raises RolloutDiverged at the first step whose |z| over six axes plus |p|
    and |e| sum to 1e15 or more, or to NaN.
    """
    tau = dmp.tau
    n_steps = int(round(horizon * tau / dt))
    times = np.arange(n_steps + 1) * dt
    s_profile = np.exp(-dmp.alpha_s * times / tau)
    psi = np.exp(-dmp.widths[None, :] * (s_profile[:, None] - dmp.centers[None, :]) ** 2)
    forcing = ((psi @ dmp.weights.T) / psi.sum(axis=1)[:, None] * s_profile[:, None]).tolist()

    az, bz = dmp.alpha_z, dmp.beta_z
    adt = dt / tau
    e0 = rotation_vector_wxyz(quat_mul_wxyz(start.orientation, quat_conj_wxyz(goal.orientation)))
    x = [*(float(v) for v in start.position), *e0]
    x_goal = [*(float(v) for v in goal.position), 0.0, 0.0, 0.0]
    z = [0.0] * 6
    out = [list(x)]
    for k in range(n_steps):
        z_new = [z[i] + adt * (az * (bz * (x_goal[i] - x[i]) - z[i]) + forcing[k][i]) for i in range(6)]
        x = [x[i] + adt * z[i] for i in range(6)]
        z = z_new
        out.append(list(x))
        if not sum(abs(v) for v in z) + sum(abs(v) for v in x) < 1e15:
            raise RolloutDiverged(k + 1, (k + 1) * dt)
    return times, np.array(out)


def reference_rollout(dmp, start, goal, dt=1e-3, horizon=1.5):
    """:func:`reference_coords` mapped back per row: q = exp(e) * g."""
    times, x = reference_coords(dmp, start, goal, dt, horizon)
    g = goal.orientation
    quats = [quat_mul_wxyz(from_rotation_vector(tuple(e)), g) for e in x[:, 3:].tolist()]
    return Trajectory(times, x[:, :3], np.array(quats))


def banded_reference(e0, u, c1, c0):
    """e[0] = e[1] = e0, e[k+2] = c1 e[k+1] - c0 e[k] + u[k] by forward
    substitution through a lower-triangular band (LAPACK dtbtrs)."""
    lapack = pytest.importorskip("scipy.linalg.lapack")
    band = np.empty((3, len(u) + 2))
    band[0] = 1.0
    band[1] = -c1
    band[2] = c0
    band[1, 0] = -1.0
    rhs = np.vstack([e0, np.zeros(3), u])
    return lapack.dtbtrs(band, rhs, uplo="L", diag="U")[0]


def euler_coefficients(alpha_z, beta_z, adt):
    """(c1, c0) of the six-axis Euler filter, formed as rollout forms them."""
    return 2.0 - alpha_z * adt, 1.0 - alpha_z * adt + alpha_z * beta_z * adt * adt


class TestEulerTranslationScan:
    E0 = np.array([0.1, -0.3, 0.02])

    @staticmethod
    def forcing(n, adt, scale=100.0):
        k = np.arange(n)
        s = np.exp(-ALPHA_S * k / max(n, 1))
        return adt * adt * np.outer(s * np.sin(7.0 * k / max(n, 1)), [scale, -scale / 2, scale / 3])

    @pytest.mark.parametrize(
        "alpha_z, beta_z, adt, n",
        [
            (25.0, 6.25, 1e-3, 1500),  # critically damped, a double root
            (25.0, 6.25, 1e-4, 15000),  # the same, slow: tau = 10 s at dt = 1 ms
            (25.0, 2.0, 1e-3, 1500),  # over-damped: two real roots
            (25.0, 20.0, 1e-3, 1500),  # under-damped: a complex pair
            (250.0, 62.5, 1e-2, 150),  # a negative double root, -0.25
            (180.0, 10.0, 1e-2, 150),  # one negative and one positive root
            (400.0, 100.0, 1e-3, 15000),  # a stiff attractor: the scans run in blocks
        ],
    )
    def test_matches_banded_solve(self, alpha_z, beta_z, adt, n):
        c1, c0 = euler_coefficients(alpha_z, beta_z, adt)
        u = self.forcing(n, adt)
        want = banded_reference(self.E0, u, c1, c0)
        got = _second_order_scan(self.E0, u, c1, c0).T
        assert got.shape == want.shape
        assert np.array_equal(got[:2], want[:2])  # e[1] = e[0] exactly
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))

    def test_same_first_non_finite_row(self):
        # alpha_z dt/tau = 5: a double root at -1.5, so |e| overflows
        c1, c0 = euler_coefficients(500.0, 125.0, 1e-2)
        u = self.forcing(3000, 1e-2)
        with np.errstate(over="ignore", invalid="ignore"):
            want = banded_reference(self.E0, u, c1, c0)
            got = _second_order_scan(self.E0, u, c1, c0).T
        first = int(np.argmin(np.all(np.isfinite(want), axis=1)))
        assert 0 < first < len(want) - 1
        assert np.all(np.isfinite(got[:first]))
        assert not np.all(np.isfinite(got[first]))
        finite = np.max(np.abs(want[:first]))
        assert np.max(np.abs(got[:first] - want[:first])) <= 1e-11 * finite

    def test_growing_root_of_a_stable_filter(self):
        # a slow, barely damped filter passes _check_stable, but its b (about
        # 1e-29) is lost when c0 is rounded, so one scanned root lies just
        # outside the unit circle and linear_scan anchors its blocks at the
        # first sample; the rollout still follows the per-step recurrence
        alpha_z, beta_z = 0.001, 1e-20
        lam2 = _scan_rates(*euler_coefficients(alpha_z, beta_z, 1e-3))[1]
        assert lam2.real > 0.0
        centers, widths = basis_layout(50, ALPHA_S)
        dmp = PoseDmp(alpha_s=ALPHA_S, alpha_z=alpha_z, beta_z=beta_z, tau=1.0, centers=centers, widths=widths,
                      weights=np.full((6, 50), 50.0), demo_start=ORIGIN, demo_goal=ORIGIN)
        goal = Pose(np.array([0.1, -0.2, 0.05]))
        traj = rollout(dmp, start=ORIGIN, goal=goal)
        _, want = reference_coords(dmp, ORIGIN, goal)
        assert np.max(np.abs(want[:, :3])) > 8.0
        assert np.max(np.abs(traj.positions - want[:, :3])) <= 1e-9

    def test_huge_forcing_overflows_no_sooner_than_the_recurrence(self):
        # decaying roots (0.8, double) over blocks of hundreds of steps: no
        # partial sum of a block may exceed the output it becomes
        c1, c0 = euler_coefficients(400.0, 100.0, 1e-3)
        u = self.forcing(15000, 1e-3, scale=1e256)
        want = banded_reference(self.E0, u, c1, c0)
        assert np.all(np.isfinite(want)) and np.max(np.abs(want)) > 1e240
        got = _second_order_scan(self.E0, u, c1, c0).T
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))

    def test_zero_root_passes_forcing_through(self):
        # alpha_z dt/tau = 2 at critical damping: both roots 0, e[k+2] = u[k]
        c1, c0 = euler_coefficients(200.0, 50.0, 1e-2)
        u = self.forcing(150, 1e-2)
        got = _second_order_scan(self.E0, u, c1, c0).T
        np.testing.assert_array_equal(got[2:], u)
        np.testing.assert_array_equal(got[:2], [self.E0, self.E0])

    def test_zero_steps(self):
        c1, c0 = euler_coefficients(25.0, 6.25, 1e-3)
        got = _second_order_scan(self.E0, np.empty((0, 3)), c1, c0).T
        np.testing.assert_array_equal(got, [self.E0, self.E0])


class TestResponseMemo:
    """A rollout forms h e[0] + F from the responses kept for the last
    primitive, tau, dt and step count; these pin what that memo may not
    change."""

    @staticmethod
    def goal(dmp, shift):
        return Pose(dmp.demo_goal.position + np.asarray(shift), dmp.demo_goal.orientation)

    def test_memo_hit_equals_cold_rollout(self):
        dmp = fit_pose_dmp(smooth_demo(duration=1.0, seed=3))
        near, far = self.goal(dmp, [0.02, -0.01, 0.03]), self.goal(dmp, [-0.05, 0.04, 0.0])
        dmp_module._last_responses = None
        cold = rollout(dmp, goal=near)
        rollout(dmp, goal=far)
        assert dmp_module._last_responses[0] is dmp
        hit = rollout(dmp, goal=near)
        for got, want in ((hit.times, cold.times), (hit.positions, cold.positions),
                          (hit.orientations, cold.orientations)):
            assert np.array_equal(got, want)

    def test_memo_keys_on_tau_dt_and_steps(self):
        dmp = fit_pose_dmp(smooth_demo(duration=1.0, seed=3))
        # tau 1 s: each entry but the last two keeps 1,500 steps and changes tau or dt
        assert dmp.tau == pytest.approx(1.0)
        for kwargs in ({}, {"tau": 2.0, "horizon": 0.75}, {}, {"dt": 5e-4, "horizon": 0.75}, {"horizon": 1.0}, {}):
            got = rollout(dmp, **kwargs)
            dmp_module._last_responses = None
            assert np.array_equal(got.positions, rollout(dmp, **kwargs).positions)

    def test_memo_holds_only_the_last_primitive(self):
        dmps = [zero_weight_dmp(tau=tau) for tau in (1.0, 1.5, 2.0)]
        for dmp in dmps:
            rollout(dmp)
        last = dmps[-1]
        refs = [weakref.ref(dmp) for dmp in dmps[:2]]
        del dmps, dmp
        gc.collect()
        assert all(ref() is None for ref in refs)
        assert dmp_module._last_responses[0] is last

    def test_primitive_arrays_are_read_only_copies(self):
        centers, widths = basis_layout(5, ALPHA_S)
        weights = np.ones((6, 5))
        dmp = PoseDmp(alpha_s=ALPHA_S, alpha_z=25.0, beta_z=6.25, tau=1.0, centers=centers, widths=widths,
                      weights=weights, demo_start=ORIGIN, demo_goal=ORIGIN)
        weights[0, 0] = 2.0
        assert dmp.weights[0, 0] == 1.0 and weights.flags.writeable
        for name in ("centers", "widths", "weights"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(dmp, name)[0] = 0.5
        again = PoseDmp(**vars(dmp))
        assert np.array_equal(again.weights, dmp.weights) and again.weights is not dmp.weights

    def test_underflow_warns_on_a_cached_call(self):
        dmp = underflowing_dmp()
        dmp_module._last_responses = None
        for _ in range(2):
            with pytest.warns(ForcingUnderflow, match="of 1501 phase samples"):
                rollout(dmp)
        assert dmp_module._last_responses[0] is dmp

    def test_superposed_rows_match_one_scan(self):
        dmp = fit_pose_dmp(smooth_demo(duration=1.0, seed=5))
        goal = self.goal(dmp, [0.04, -0.07, 0.03])
        n = rollout_steps(dmp.tau, 1e-3)
        adt = 1e-3 / dmp.tau
        s = np.exp(-dmp.alpha_s * (np.arange(n + 1) * 1e-3) / dmp.tau)
        u = adt * (adt * _forcing_profile(dmp.weights, dmp.centers, dmp.widths, s)[0][:n])
        rel = quat_mul_wxyz(dmp.demo_start.orientation, quat_conj_wxyz(goal.orientation))
        e0 = np.concatenate([dmp.demo_start.position - goal.position, rotation_vector_wxyz(rel)])
        want = _second_order_scan(e0, u, *euler_coefficients(dmp.alpha_z, dmp.beta_z, adt)).T
        got = rollout(dmp, goal=goal)
        assert np.max(np.abs(got.positions - (want[:-1, :3] + goal.position))) <= 1e-15


class TestRolloutEquivalence:
    @pytest.mark.parametrize("case", ["shifted", "far-hemisphere"])
    def test_matches_per_step_euler(self, case):
        dmp = fit_pose_dmp(smooth_demo(duration=1.0, seed=5))
        turn = from_rotation_vector(np.array([0.2, -0.4, 0.5]))
        if case == "shifted":
            start = dmp.demo_start
            goal = Pose(dmp.demo_goal.position + np.array([0.04, -0.07, 0.03]),
                        quat_mul_wxyz(turn, dmp.demo_goal.orientation))
        else:
            # start and goal quaternions 300 deg apart about z: the error
            # quaternion starts with w < 0, so the shortest-arc flip runs
            start = Pose(dmp.demo_start.position, from_rotation_vector(np.array([0.0, 0.0, 2.6])))
            goal = Pose(dmp.demo_goal.position - np.array([0.05, 0.0, 0.02]),
                        from_rotation_vector(np.array([0.0, 0.0, -2.6])))
            assert float(np.dot(start.orientation, goal.orientation)) < 0.0
        got = rollout(dmp, start=start, goal=goal)
        want = reference_rollout(dmp, start, goal)
        np.testing.assert_array_equal(got.times, want.times)
        assert np.max(np.abs(got.positions - want.positions)) <= 1e-9
        # both pass through Trajectory's w >= 0 canonicalization; compared
        # component-wise, so a sign flip between them would fail
        assert np.max(np.abs(got.orientations - want.orientations)) <= 1e-12
        assert np.linalg.norm(got.positions[-1] - goal.position) < 1e-3


class TestFitRollout:
    def test_imitation_position_and_orientation(self):
        traj_demo = smooth_demo(duration=3.0)
        dmp = fit_pose_dmp(traj_demo)
        replay = rollout(dmp)
        n = len(traj_demo)
        np.testing.assert_allclose(replay.times[:n], traj_demo.times, atol=1e-9)
        rmse = np.sqrt(np.mean(np.sum((replay.positions[:n] - traj_demo.positions) ** 2, axis=1)))
        assert rmse < 2e-3
        angles = []
        for k in range(0, n, 31):
            angles.append(angle_between(replay.orientations[k], traj_demo.orientations[k]))
        assert np.sqrt(np.mean(np.square(angles))) < math.radians(1.0)

    def test_settles_on_demo_goal(self):
        traj_demo = smooth_demo(duration=3.0, seed=4)
        dmp = fit_pose_dmp(traj_demo)
        replay = rollout(dmp)
        assert np.linalg.norm(replay.positions[-1] - traj_demo.positions[-1]) < 5e-4
        assert angle_between(replay.orientations[-1], traj_demo.orientations[-1]) < math.radians(0.2)

    def test_goal_shift_reaches_new_goal(self):
        traj_demo = smooth_demo(duration=3.0)
        dmp = fit_pose_dmp(traj_demo)
        shifted = Pose(
            dmp.demo_goal.position + np.array([0.05, -0.03, 0.04]),
            quat_mul_wxyz(from_rotation_vector(np.array([0.0, 0.0, 0.3])), dmp.demo_goal.orientation),
        )
        replay = rollout(dmp, goal=shifted)
        assert np.linalg.norm(replay.positions[-1] - shifted.position) < 1e-3
        assert angle_between(replay.orientations[-1], shifted.orientation) < math.radians(0.5)

    def test_fit_is_deterministic(self):
        traj_demo = smooth_demo(duration=2.0, seed=7)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            a = fit_pose_dmp(traj_demo)
            b = fit_pose_dmp(traj_demo)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.centers, b.centers)
        assert a.tau == b.tau

    def test_stay_at_pose_demo_fits_to_zero_weights(self):
        t = np.linspace(0.0, 1.0, 200)
        pos = np.tile([0.1, -0.2, 0.35], (200, 1))
        quats = np.tile(from_rotation_vector(np.array([0.2, 0.1, 0.0])), (200, 1))
        dmp = fit_pose_dmp(Trajectory(t, pos, quats))
        assert np.all(dmp.weights == 0.0)
        replay = rollout(dmp)
        assert np.max(np.linalg.norm(replay.positions - pos[0], axis=1)) < 1e-9
        assert angle_between(replay.orientations[-1], dmp.demo_goal.orientation) < 1e-9

    def test_rollout_speed(self):
        traj_demo = smooth_demo(duration=3.0)
        dmp = fit_pose_dmp(traj_demo)
        rollout(dmp)  # warm up
        t0 = time.perf_counter()
        for _ in range(10):
            rollout(dmp)
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        dmp = fit_pose_dmp(smooth_demo(duration=2.0, seed=2))
        path = tmp_path / "prim.json"
        save_dmp(dmp, path)
        back = load_dmp(path)
        assert np.array_equal(back.weights, dmp.weights)
        assert np.array_equal(back.centers, dmp.centers)
        assert np.array_equal(back.widths, dmp.widths)
        assert back.tau == dmp.tau
        assert back.alpha_s == dmp.alpha_s
        assert np.array_equal(back.demo_start.position, dmp.demo_start.position)
        assert back.demo_goal.orientation == dmp.demo_goal.orientation
        save_dmp(back, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_expected_keys(self):
        d = dmp_to_dict(zero_weight_dmp())
        assert set(d) == {
            "alpha_s", "alpha_z", "beta_z", "tau", "N",
            "centers", "widths", "weights", "demo_start", "demo_goal",
        }
        assert d["N"] == 50
        assert np.shape(d["weights"]) == (6, 50)

    def test_rejects_unknown_and_missing_keys(self, tmp_path):
        d = dmp_to_dict(zero_weight_dmp())
        d["extra"] = 1
        with pytest.raises(ValueError, match="unknown key"):
            dmp_from_dict(d)
        del d["extra"]
        del d["tau"]
        with pytest.raises(ValueError, match="missing key"):
            dmp_from_dict(d)

    def test_rejects_basis_count_mismatch(self):
        d = dmp_to_dict(zero_weight_dmp())
        d["N"] = 49
        with pytest.raises(ValueError, match="does not match"):
            dmp_from_dict(d)

    def test_rejects_gate_mode_key(self):
        # files written while a second forcing law existed carry this key
        d = dmp_to_dict(zero_weight_dmp())
        d["gate_mode"] = "phase-gated"
        with pytest.raises(ParseError, match="unknown key 'gate_mode' in primitive"):
            dmp_from_dict(d)

    def test_rejects_the_unit_quaternion_law_format(self, tmp_path, capsys):
        # files fitted before the log-chart law split the weights in two; they
        # have the same shapes but would replay with other dynamics
        d = dmp_to_dict(zero_weight_dmp())
        weights = d.pop("weights")
        d["weights_pos"], d["weights_rot"] = weights[:3], weights[3:]
        with pytest.raises(ParseError, match="unknown key 'weights_pos' in primitive"):
            dmp_from_dict(d)
        path = tmp_path / "old.json"
        path.write_text(json.dumps(d))
        code = main(["rollout", "--dmp", str(path), "--out", str(tmp_path / "r.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and "weights_pos" in err and "Traceback" not in err
