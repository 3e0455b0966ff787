import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lfdkit.ktc import simulate_demonstration
from lfdkit.presets import default_teach_setup
from lfdkit.se3 import from_rotation_vector, quat_conj_wxyz, quat_mul_wxyz, rotation_vector_wxyz
from lfdkit.trajectory import (
    ParseError,
    Trajectory,
    finite_difference,
    fmt_float,
    load_trajectory_csv,
    read_text,
    resample_trajectory,
    write_json,
)


def make_traj(times, positions, quats=None, wrenches=None):
    times = np.asarray(times, dtype=float)
    positions = np.asarray(positions, dtype=float)
    if quats is None:
        quats = np.tile([1.0, 0, 0, 0], (len(times), 1))
    return Trajectory(times, positions, quats, wrenches)


def random_traj(rng, n=12, with_wrench=False):
    t = np.cumsum(rng.uniform(0.05, 0.3, size=n))
    pos = rng.normal(size=(n, 3))
    q = rng.normal(size=(n, 4))
    wr = rng.normal(size=(n, 6)) if with_wrench else None
    return Trajectory(t, pos, q, wr)


class TestTrajectoryType:
    def test_strictly_increasing_enforced(self):
        with pytest.raises(ValueError):
            make_traj([0.0, 0.0], np.zeros((2, 3)))
        with pytest.raises(ValueError):
            make_traj([0.0, -1.0], np.zeros((2, 3)))

    def test_orientations_canonicalized(self):
        tr = Trajectory([0.0], np.zeros((1, 3)), [[-2.0, 0, 0, 0]])
        assert np.allclose(tr.orientations[0], [1, 0, 0, 0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            make_traj([0.0], [[np.nan, 0, 0]])
        with pytest.raises(ValueError):
            Trajectory([0.0], np.zeros((1, 3)), [[1, 0, 0, 0]], [[np.inf, 0, 0, 0, 0, 0]])

    def test_uniformity_probe(self):
        assert make_traj([0, 0.1, 0.2, 0.3], np.zeros((4, 3))).is_uniform()
        assert not make_traj([0, 0.1, 0.25, 0.3], np.zeros((4, 3))).is_uniform()


class TestFiniteDifference:
    def test_linear_ramp_exact(self):
        t = np.linspace(0, 1, 11)
        v = 3.0 * t + 1.0
        d = finite_difference(t, v, order=1)
        assert np.allclose(d, 3.0, atol=1e-12)

    def test_two_samples_order_one(self):
        d = finite_difference(np.array([0.0, 2.0]), np.array([1.0, 5.0]), order=1)
        assert np.allclose(d, 2.0)

    def test_quadratic_order_two(self):
        t = np.linspace(0, 2, 201)
        d = finite_difference(t, t**2, order=2)
        assert np.allclose(d[2:-2], 2.0, atol=1e-6)

    def test_cubic_order_three_exact_interior(self):
        # oracle: third derivative of a*t^3 + ... is the constant 6a; the
        # interior of three chained first-order passes reproduces it exactly
        # because each pass's O(h^2) error on the running polynomial is
        # itself a lower-order polynomial that differentiates away.
        rng = np.random.default_rng(11)
        for _ in range(5):
            a3, a2, a1, a0 = rng.normal(size=4)
            t = np.linspace(0, 1.5, 40)
            v = a3 * t**3 + a2 * t**2 + a1 * t + a0
            d = finite_difference(t, v, order=3)
            assert np.allclose(d[3:-3], 6 * a3, rtol=1e-6, atol=1e-9)

    def test_quintic_jerk_within_one_percent(self):
        # analytic jerk of the minimum-jerk polynomial, dt = 1 ms
        d, T = 0.3, 3.0
        t = np.arange(0, T + 1e-12, 1e-3)
        u = t / T
        pos = d * (10 * u**3 - 15 * u**4 + 6 * u**5)
        jerk = finite_difference(t, pos, order=3)
        analytic = d / T**3 * (60 - 360 * u + 360 * u**2)
        inner = slice(3, -3)
        scale = np.max(np.abs(analytic))
        assert np.max(np.abs(jerk[inner] - analytic[inner])) < 0.01 * scale

    def test_vector_values(self):
        t = np.linspace(0, 1, 20)
        v = np.stack([2 * t, -t, 0 * t], axis=1)
        d = finite_difference(t, v, order=1)
        assert np.allclose(d, [2, -1, 0], atol=1e-12)

    def test_nonuniform_grid_quadratic_exact(self):
        rng = np.random.default_rng(4)
        t = np.cumsum(rng.uniform(0.01, 0.1, size=30))
        v = 1.5 * t**2 - 0.3 * t
        d = finite_difference(t, v, order=1)
        assert np.allclose(d, 3.0 * t - 0.3, atol=1e-9)

    def test_order_composition(self):
        rng = np.random.default_rng(8)
        t = np.linspace(0, 1, 25)
        v = rng.normal(size=25)
        twice = finite_difference(t, finite_difference(t, v, 1), 1)
        assert np.allclose(finite_difference(t, v, 2), twice)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            finite_difference(np.array([0.0, 1.0]), np.array([0.0, 1.0]), order=2)
        with pytest.raises(ValueError):
            finite_difference(np.array([0.0]), np.array([0.0]), order=1)


class TestResample:
    def test_two_sample_line_quarters(self):
        tr = make_traj([0.0, 2.0], [[0, 0, 0], [1, 2, 0]])
        out = resample_trajectory(tr, 0.5)
        assert len(out) == 5
        assert np.allclose(np.diff(out.times), 0.5)
        expect = np.linspace([0, 0, 0], [1, 2, 0], 5)
        assert np.allclose(out.positions, expect, atol=1e-12)

    def test_identity_on_matching_grid(self):
        t = np.arange(6) * 0.25
        rng = np.random.default_rng(0)
        tr = Trajectory(t, rng.normal(size=(6, 3)), rng.normal(size=(6, 4)))
        out = resample_trajectory(tr, 0.25)
        assert np.array_equal(out.times, tr.times)
        assert np.allclose(out.positions, tr.positions, atol=1e-12)
        assert np.allclose(out.orientations, tr.orientations, atol=1e-12)

    def test_positions_match_linear_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            tr = random_traj(rng, n=rng.integers(4, 15))
            dt = tr.duration / rng.integers(5, 40)
            out = resample_trajectory(tr, dt)
            for axis in range(3):
                oracle = np.interp(out.times, tr.times, tr.positions[:, axis])
                assert np.allclose(out.positions[:, axis], oracle, atol=1e-12)

    def test_orientation_matches_slerp_oracle(self):
        # single segment, so interpolation must be a constant-rate rotation
        q0 = (1.0, 0.0, 0.0, 0.0)
        axis = np.array([1.0, 2.0, -0.5])
        axis /= np.linalg.norm(axis)
        total = 1.8
        q1 = from_rotation_vector(axis * total)
        tr = Trajectory([0.0, 1.0], np.zeros((2, 3)), [q0, q1])
        out = resample_trajectory(tr, 0.125)
        for k, t in enumerate(out.times):
            expected = from_rotation_vector(axis * total * t)
            assert np.allclose(out.orientations[k], expected, atol=1e-12)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 2**32 - 1), st.integers(3, 40))
    def test_orientations_match_per_sample_slerp(self, seed, divisions):
        # reference: slerp written out per sample with the float-tuple kernels
        tr = random_traj(np.random.default_rng(seed), n=8)
        out = resample_trajectory(tr, tr.duration / divisions)
        idx = np.clip(np.searchsorted(tr.times, out.times, side="right") - 1, 0, len(tr) - 2)
        for k, (i, t) in enumerate(zip(idx, out.times)):
            qa, qb = tuple(tr.orientations[i].tolist()), tuple(tr.orientations[i + 1].tolist())
            u = min(max((t - tr.times[i]) / (tr.times[i + 1] - tr.times[i]), 0.0), 1.0)
            if u <= 0.0:
                want = qa
            elif u >= 1.0:
                want = qb
            else:
                vx, vy, vz = rotation_vector_wxyz(quat_mul_wxyz(qb, quat_conj_wxyz(qa)))
                want = quat_mul_wxyz(from_rotation_vector((u * vx, u * vy, u * vz)), qa)
            np.testing.assert_allclose(out.orientations[k], want, rtol=0, atol=1e-12)
        assert np.array_equal(out.orientations[0], tr.orientations[0])
        assert np.array_equal(out.orientations[-1], tr.orientations[-1])

    def test_endpoints_exact_on_ragged_span(self):
        tr = make_traj([0.0, 0.7, 1.0], [[0, 0, 0], [1, 0, 0], [2, 0, 0]])
        out = resample_trajectory(tr, 0.3)
        assert out.times[-1] == 1.0
        assert np.array_equal(out.positions[0], tr.positions[0])
        assert np.array_equal(out.positions[-1], tr.positions[-1])

    def test_wrench_interpolated(self):
        wr = np.array([[0, 0, 0, 0, 0, 0], [2, 4, 6, 8, 10, 12]], dtype=float)
        tr = Trajectory([0.0, 1.0], np.zeros((2, 3)), np.tile([1.0, 0, 0, 0], (2, 1)), wr)
        out = resample_trajectory(tr, 0.5)
        assert np.allclose(out.wrenches[1], [1, 2, 3, 4, 5, 6])

    def test_errors(self):
        with pytest.raises(ValueError):
            resample_trajectory(Trajectory(np.empty(0), np.empty((0, 3)), np.empty((0, 4))), 0.1)
        tr = make_traj([0.0, 0.05], np.zeros((2, 3)))
        with pytest.raises(ValueError):
            resample_trajectory(tr, 0.1)
        with pytest.raises(ValueError):
            resample_trajectory(tr, -0.1)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 2**32 - 1), st.integers(3, 20))
    def test_endpoint_preservation_property(self, seed, divisions):
        tr = random_traj(np.random.default_rng(seed), n=6)
        out = resample_trajectory(tr, tr.duration / divisions)
        assert out.times[0] == tr.times[0] and out.times[-1] == tr.times[-1]
        assert np.array_equal(out.positions[0], tr.positions[0])
        assert np.array_equal(out.positions[-1], tr.positions[-1])
        assert np.array_equal(out.orientations[-1], tr.orientations[-1])


def per_field_csv(traj):
    """save_csv's text as one format(v, ".9g") call per numpy scalar."""
    cols = ["t", "px", "py", "pz", "qw", "qx", "qy", "qz"]
    if traj.wrenches is not None:
        cols += ["fx", "fy", "fz", "tx", "ty", "tz"]
    lines = [",".join(cols)]
    for i in range(len(traj)):
        row = [traj.times[i], *traj.positions[i], *traj.orientations[i]]
        if traj.wrenches is not None:
            row.extend(traj.wrenches[i])
        lines.append(",".join(format(float(v), ".9g") for v in row))
    return "\n".join(lines) + "\n"


# any finite double: signed zeros, subnormals and the largest double included
finite = st.floats(allow_nan=False, allow_infinity=False)
unit_ish = st.tuples(*[st.floats(-1, 1)] * 4).filter(lambda q: math.sqrt(sum(c * c for c in q)) > 1e-3)


@st.composite
def csv_trajectories(draw):
    times = sorted(draw(st.lists(finite, min_size=1, max_size=6, unique=True)))
    n = len(times)
    positions = draw(st.lists(st.tuples(finite, finite, finite), min_size=n, max_size=n))
    quats = draw(st.lists(unit_ish, min_size=n, max_size=n))
    wrenches = draw(st.none() | st.lists(st.tuples(*[finite] * 6), min_size=n, max_size=n))
    return Trajectory(times, positions, quats, wrenches)


class TestCsv:
    @settings(deadline=None)
    @given(csv_trajectories())
    def test_text_equals_the_per_field_join(self, tmp_path_factory, traj):
        path = tmp_path_factory.mktemp("csv") / "traj.csv"
        traj.save_csv(path)
        assert path.read_text() == per_field_csv(traj)

    def test_round_trip_plain(self, tmp_path):
        rng = np.random.default_rng(1)
        tr = random_traj(rng, n=9)
        path = tmp_path / "traj.csv"
        tr.save_csv(path)
        back = load_trajectory_csv(path)
        assert np.allclose(back.times, tr.times, rtol=1e-8)
        assert np.allclose(back.positions, tr.positions, rtol=1e-8, atol=1e-12)
        assert np.allclose(back.orientations, tr.orientations, rtol=1e-7, atol=1e-8)
        assert back.wrenches is None

    def test_round_trip_wrench(self, tmp_path):
        rng = np.random.default_rng(2)
        tr = random_traj(rng, n=5, with_wrench=True)
        path = tmp_path / "traj.csv"
        tr.save_csv(path)
        back = load_trajectory_csv(path)
        assert back.wrenches is not None
        assert np.allclose(back.wrenches, tr.wrenches, rtol=1e-8, atol=1e-12)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,x,y,z\n0,0,0,0\n")
        with pytest.raises(ParseError) as exc:
            load_trajectory_csv(path)
        assert exc.value.line == 1 and exc.value.field == "header"

    def test_bad_float_names_line_and_field(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,px,py,pz,qw,qx,qy,qz\n0,0,0,0,1,0,0,0\n0.1,0,oops,0,1,0,0,0\n")
        with pytest.raises(ParseError) as exc:
            load_trajectory_csv(path)
        assert exc.value.line == 3 and exc.value.field == "py"
        assert str(path) in str(exc.value)

    def test_column_count_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,px,py,pz,qw,qx,qy,qz\n0,0,0,0,1,0,0\n")
        with pytest.raises(ParseError) as exc:
            load_trajectory_csv(path)
        assert exc.value.line == 2

    def test_cell_count_checked_per_line(self, tmp_path):
        # 7 + 9 cells are 2 x 8 in all: each line's count must match, not the total
        path = tmp_path / "bad.csv"
        path.write_text("t,px,py,pz,qw,qx,qy,qz\n0,0,0,0,1,0,0\n0.1,0,0,0,1,0,0,0,0\n")
        with pytest.raises(ParseError, match=r"bad\.csv:2: field 'qy': expected 8 columns, got 7$"):
            load_trajectory_csv(path)

    @pytest.mark.parametrize("controller", ["proposed", "native"])
    def test_teach_demo_reads_back_as_the_per_cell_parse(self, tmp_path, controller):
        path = tmp_path / "demo.csv"
        simulate_demonstration(*default_teach_setup(controller, seed=1), seed=1).save_csv(path)
        cells = np.array([[float(c) for c in line.split(",")] for line in path.read_text().splitlines()[1:]])
        want = Trajectory(cells[:, 0], cells[:, 1:4], cells[:, 4:8], cells[:, 8:])
        back = load_trajectory_csv(path)
        for name in ("times", "positions", "orientations", "wrenches"):
            assert np.array_equal(getattr(back, name), getattr(want, name))

    def test_decreasing_time_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "t,px,py,pz,qw,qx,qy,qz\n0,0,0,0,1,0,0,0\n0.5,0,0,0,1,0,0,0\n0.2,0,0,0,1,0,0,0\n"
        )
        with pytest.raises(ParseError) as exc:
            load_trajectory_csv(path)
        assert exc.value.field == "t"

    def test_fmt_is_nine_significant_digits(self):
        assert fmt_float(0.123456789123) == "0.123456789"
        assert fmt_float(15.0) == "15"


class TestFiles:
    def test_non_ascii_byte_names_its_line(self, tmp_path):
        path = tmp_path / "demo.csv"
        path.write_bytes(b"t,px,py,pz,qw,qx,qy,qz\n0,0,0,0,1,0,0,0\n0.1,0,\xc3\xa9,0,1,0,0,0\n")
        for read in (read_text, load_trajectory_csv):
            with pytest.raises(ParseError, match="non-ASCII byte 0xc3") as exc:
                read(path)
            assert exc.value.line == 3 and str(path) in str(exc.value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_write_json_refuses_non_finite_numbers(self, tmp_path, value):
        path = tmp_path / "out.json"
        with pytest.raises(ValueError):
            write_json(path, {"ratio": [1.0, value]})
        assert not path.exists()

    def test_write_json_layout(self, tmp_path):
        path = tmp_path / "out.json"
        write_json(path, {"a": [1.5, None], "b": "x"})
        assert path.read_bytes() == b'{\n  "a": [\n    1.5,\n    null\n  ],\n  "b": "x"\n}\n'
