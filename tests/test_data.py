"""Dataset generation from the observation model and the empirical risk."""

import io
import math

import numpy as np
import pytest

from ngdbench.data import (
    Dataset,
    empirical_risk,
    generate_dataset,
    save_dataset,
)
from ngdbench.model import ScheduleConfig, TeacherSpec, sample_teacher
from ngdbench.textio import parse_text


def make_teacher(d=2, seed=0):
    cfg = ScheduleConfig(d=d)
    return sample_teacher(cfg, width=4, radius=0.9, seed=seed)


class TestGenerate:
    """Covariates uniform on the cube, noise bounded and centered."""

    def test_shapes_and_support(self):
        t = make_teacher(d=3)
        data = generate_dataset(t, n=200, noise_bound=0.2, seed=1)
        assert data.X.shape == (200, 3)
        assert data.y.shape == (200,)
        assert np.all(data.X >= 0.0) and np.all(data.X <= 1.0)

    def test_noise_bounded_pointwise(self):
        t = make_teacher()
        for kind in ("uniform", "scaled-rademacher"):
            data = generate_dataset(t, n=500, noise_bound=0.3,
                                    noise_kind=kind, seed=2)
            eps = data.y - t(data.X)
            assert np.all(np.abs(eps) <= 0.3 + 1e-12), kind

    def test_noiseless_mode_reproduces_teacher(self):
        t = make_teacher()
        data = generate_dataset(t, n=50, noise_bound=0.0, noise_kind="none",
                                seed=3)
        np.testing.assert_array_equal(data.y, t(data.X))

    def test_rademacher_noise_is_two_valued(self):
        t = make_teacher()
        data = generate_dataset(t, n=400, noise_bound=0.25,
                                noise_kind="scaled-rademacher", seed=4)
        eps = data.y - t(data.X)
        np.testing.assert_allclose(np.abs(eps), 0.25, rtol=1e-12)

    def test_uniform_noise_mean_is_centered(self):
        # CLT check: the mean of 10^6 uniform draws on [-U, U] should sit
        # within 4 standard errors of zero, stderr = (U/sqrt(3))/10^3
        t = make_teacher(d=1)
        U = 0.1
        data = generate_dataset(t, n=1_000_000, noise_bound=U, seed=5)
        eps = data.y - t(data.X)
        assert abs(eps.mean()) <= 4.0 * (U / math.sqrt(3.0)) / 1000.0

    def test_same_seed_bit_identical(self):
        t = make_teacher()
        a = generate_dataset(t, n=64, noise_bound=0.2, seed=11)
        b = generate_dataset(t, n=64, noise_bound=0.2, seed=11)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)

    def test_validation(self):
        t = make_teacher()
        with pytest.raises(ValueError):
            generate_dataset(t, n=0, noise_bound=0.1)
        with pytest.raises(ValueError):
            generate_dataset(t, n=8, noise_bound=-0.5)
        # "none" draws no noise, so only Dataset's own check sees the bound
        for bound in (math.nan, math.inf):
            with pytest.raises(ValueError, match="noise bound"):
                generate_dataset(t, n=8, noise_bound=bound, noise_kind="none")
        with pytest.raises(ValueError):
            generate_dataset(t, n=8, noise_bound=0.1, noise_kind="cauchy")


class TestEmpiricalRisk:
    """Mean squared residual on a dataset."""

    def test_teacher_interpolates_own_noiseless_data(self):
        t = make_teacher()
        data = generate_dataset(t, n=40, noise_bound=0.0, noise_kind="none",
                                seed=0)
        assert empirical_risk(t.config, t.weights, data) <= 1e-30

    def test_zero_network_on_constant_targets(self):
        cfg = ScheduleConfig(d=1)
        X = np.linspace(0, 1, 9)[:, None]
        y = np.full(9, 0.7)
        data = Dataset(X=X, y=y, noise_bound=0.0, noise_kind="none", seed=None)
        W = np.zeros((2, 3))
        assert math.isclose(empirical_risk(cfg, W, data), 0.49, rel_tol=1e-15)

    def test_two_point_hand_oracle(self):
        # single block, w1 = (1, 0), w2 = 0.5: prediction is
        # tanh(0.5) * sigmoid(x); residuals squared then averaged by hand
        cfg = ScheduleConfig(d=1)
        W = np.array([[1.0, 0.0, 0.5]])
        X = np.array([[0.0], [1.0]])
        y = np.array([0.1, 0.9])
        data = Dataset(X=X, y=y, noise_bound=1.0, noise_kind="uniform",
                       seed=None)
        pred0 = math.tanh(0.5) * 0.5
        pred1 = math.tanh(0.5) / (1.0 + math.exp(-1.0))
        want = ((pred0 - 0.1) ** 2 + (pred1 - 0.9) ** 2) / 2.0
        assert math.isclose(empirical_risk(cfg, W, data), want, rel_tol=1e-14)

    def test_risk_nonnegative_on_random_instances(self):
        rng = np.random.default_rng(8)
        t = make_teacher()
        data = generate_dataset(t, n=30, noise_bound=0.2, seed=1)
        for _ in range(10):
            W = rng.normal(size=(5, 4))
            assert empirical_risk(t.config, W, data) >= 0.0


class TestArrayOwnership:
    """Frozen records copy their arrays instead of freezing the caller's."""

    def test_caller_arrays_stay_writeable(self):
        t = make_teacher(d=2)
        X = np.random.default_rng(0).random((5, 2))
        y = np.linspace(0.0, 1.0, 5)
        W = np.array(t.weights)
        data = Dataset(X=X, y=y, noise_bound=0.0)
        teacher = TeacherSpec(config=t.config, weights=W, radius=t.radius)
        assert X.flags.writeable and y.flags.writeable and W.flags.writeable
        assert not (data.X.flags.writeable or data.y.flags.writeable
                    or teacher.weights.flags.writeable)
        X_was, y_was, W_was = X.copy(), y.copy(), W.copy()
        X[:] = 7.0
        y[:] = 7.0
        W[:] = 7.0
        np.testing.assert_array_equal(data.X, X_was)
        np.testing.assert_array_equal(data.y, y_was)
        np.testing.assert_array_equal(teacher.weights, W_was)


class TestSerialization:
    """The written dataset file: exact text, every field at full precision."""

    def test_round_trip(self, tmp_path):
        t = make_teacher(d=2)
        data = generate_dataset(t, n=25, noise_bound=0.15,
                                noise_kind="scaled-rademacher", seed=21)
        path = tmp_path / "data.txt"
        save_dataset(path, data)
        head, _, body = path.read_text().partition("train:\n")
        header, _ = parse_text(head, str(path))
        train = np.loadtxt(io.StringIO(body))
        np.testing.assert_array_equal(train[:, :-1], data.X)
        np.testing.assert_array_equal(train[:, -1], data.y)
        assert float(header["noise_bound"]) == data.noise_bound
        assert header["noise_kind"] == data.noise_kind
        assert int(header["seed"]) == data.seed

    def test_file_bytes(self, tmp_path):
        data = Dataset(X=[[0.25, 0.5], [0.75, 1.0]], y=[0.5, -1.0],
                       noise_bound=0.1, noise_kind="uniform", seed=None)
        path = tmp_path / "data.txt"
        save_dataset(path, data)
        assert path.read_text() == (
            "# ngdbench dataset\nnoise_bound = 0.10000000000000001\n"
            "noise_kind = uniform\nseed = none\ntrain:\n0.25 0.5 0.5\n"
            "0.75 1 -1\n")
