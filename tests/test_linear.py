"""Baseline estimators: kernels, ridge solves, local averaging, tuning."""

import io
import math
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from ngdbench import linear
from ngdbench.data import Dataset, generate_dataset, save_dataset
from ngdbench.linear import (
    ESTIMATOR_KINDS,
    KrrEstimator,
    NtkKernel,
    RandomFeatureKernel,
    RbfKernel,
    check_grid,
    default_grid,
    fit_estimator,
    knn_predict,
    make_kernel,
    nw_predict,
    save_estimator,
    tune,
)
from ngdbench.config import ConfigError, load_config, parse_config
from ngdbench.model import (ScheduleConfig, active_width, eval_network,
                            sample_teacher)
from oracles import (block_activation, cv_table, feature_oracle, kernel_eval,
                     knn_reference, krr_fit, traced_peak)


def dataset(X, y):
    return Dataset(X=np.asarray(X, dtype=float), y=np.asarray(y, dtype=float),
                   noise_bound=0.0, noise_kind="none", seed=None)


def schedule(d=2, alpha2=1.0):
    return ScheduleConfig(d=d, R=1.0, gamma=1.0, alpha1=1.0, alpha2=alpha2,
                          s=3.0)


def lattice_dataset(n, d, seed):
    """n draws from the 4^d sites of a dyadic lattice: every site repeats,
    and squared distances are exact, so many rows tie at the k-th distance."""
    rng = np.random.default_rng(seed)
    return dataset(rng.integers(0, 4, size=(n, d)) / 4.0, rng.normal(size=n))


# Kernel-ridge CV scores against the per-fold solves of oracles.cv_table,
# relative, stated before measuring: two decades above the largest
# difference a prototype of the recursion showed on the committed krr-rbf
# cells (8.0e-9), and four below the smallest gap between the best and
# second-best score there (1.9e-2), so no choice can move within it
CV_RTOL = 1e-6


def assert_tables_close(got, want):
    """Same combinations in the same order, scores within CV_RTOL."""
    assert [combo for combo, _ in got] == [combo for combo, _ in want]
    np.testing.assert_allclose([score for _, score in got],
                               [score for _, score in want], rtol=CV_RTOL,
                               atol=0)


def counting(monkeypatch, owner, name):
    """Replace owner.name by a pass-through that records each call's
    positional arguments; returns the list of recorded calls."""
    calls = []
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


class TestKernels:
    """Gram matrices and their feature maps."""

    def test_rbf_hand_value(self):
        kern = RbfKernel(bandwidth=0.5)
        x = np.array([[0.0, 0.0]])
        z = np.array([[0.3, 0.4]])  # squared distance 0.25
        got = kern.gram(x, z)[0, 0]
        assert math.isclose(got, math.exp(-0.25 / (2 * 0.25)), rel_tol=1e-15)

    def test_rbf_diag_and_symmetry(self):
        X = np.random.default_rng(0).random((6, 3))
        G = RbfKernel(bandwidth=1.3).gram(X, X)
        np.testing.assert_allclose(np.diag(G), 1.0, rtol=1e-12)
        np.testing.assert_allclose(G, G.T, rtol=0, atol=1e-15)

    def test_tangent_features_match_weight_gradient(self):
        """The tangent feature map is the network's gradient in its weights."""
        cfg = schedule(d=2)
        kern = NtkKernel(config=cfg, width=3, seed=4)
        W0 = sample_teacher(cfg, 3, radius=1.0, seed=4).weights
        X = np.random.default_rng(1).random((4, 2))
        feats = kern.features(X)
        h = 1e-6
        for p in range(X.shape[0]):
            num = np.empty(W0.size)
            for flat in range(W0.size):
                Wp, Wm = W0.copy().ravel(), W0.copy().ravel()
                Wp[flat] += h
                Wm[flat] -= h
                fp = eval_network(cfg, Wp.reshape(W0.shape), X[p])
                fm = eval_network(cfg, Wm.reshape(W0.shape), X[p])
                num[flat] = (fp - fm) / (2 * h)
            np.testing.assert_allclose(feats[p], num, rtol=1e-5, atol=1e-8)

    def test_random_feature_map_is_scaled_activation(self):
        cfg = schedule(d=1)
        kern = RandomFeatureKernel(config=cfg, width=4, seed=9)
        W0 = sample_teacher(cfg, 4, radius=1.0, seed=9).weights
        X = np.array([[0.2], [0.8]])
        m = np.arange(1, 5)
        z = np.hstack([X, np.ones((2, 1))]) @ W0[:, :-1].T
        want = cfg.amp(m) * block_activation(cfg, m, z)
        np.testing.assert_allclose(kern.features(X), want, rtol=1e-14)

    @pytest.mark.parametrize("kind, per_block", [("krr-ntk", 12),
                                                 ("krr-rf", 1)])
    def test_features_cover_live_blocks_on_committed_schedule(self, kind,
                                                              per_block):
        """At width 512 the features span the a live blocks only, and the
        gram matches the every-block oracle's.  Bound, stated before
        measuring: 1e-12 times the largest oracle entry.  Each dead block's
        tangent entries are below eps times block 1's, so its share of an
        entry is below 1e-31 relative; the rest is the rounding of a few
        ulp per feature in a sum of 12 terms."""
        repo = Path(__file__).resolve().parents[1]
        cfg = load_config(repo / "configs" / "comparison.cfg").schedule
        kern = make_kernel(kind, config=cfg, width=512, seed=3)
        X = np.random.default_rng(6).random((64, cfg.d))
        a = active_width(cfg, 512)
        assert kern.features(X).shape == (64, a * per_block)
        F = feature_oracle(kind, cfg, kern.frozen_weights, X)
        want = F @ F.T
        bound = 1e-12 * np.abs(want).max()
        np.testing.assert_allclose(kern.gram(X, X), want, rtol=0, atol=bound)

    def test_feature_kernels_psd(self):
        cfg = schedule(d=2)
        X = np.random.default_rng(3).random((10, 2))
        for kind in ("krr-ntk", "krr-rf"):
            G = kernel_eval(kind, X, X, config=cfg, width=5, seed=0)
            eigs = np.linalg.eigvalsh(G)
            assert eigs.min() >= -1e-10 * max(1.0, eigs.max()), kind

    def test_same_seed_same_kernel(self):
        cfg = schedule(d=1)
        X = np.random.default_rng(5).random((5, 1))
        a = kernel_eval("krr-ntk", X, X, config=cfg, width=4, seed=11)
        b = kernel_eval("krr-ntk", X, X, config=cfg, width=4, seed=11)
        c = kernel_eval("krr-ntk", X, X, config=cfg, width=4, seed=12)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_factory_validation(self):
        for bandwidth in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                make_kernel("krr-rbf", bandwidth=bandwidth)
        with pytest.raises(ValueError):
            make_kernel("krr-ntk", config=None, width=4)
        with pytest.raises(ValueError):
            make_kernel("spline")


class TestKrr:
    """Ridge regression in the dual."""

    def test_matches_dense_solve_oracle(self):
        """50 random small instances against an independent naive solve."""
        rng = np.random.default_rng(2024)
        cfg = schedule(d=2)
        for trial in range(50):
            n = int(rng.integers(2, 6))
            d = 2
            X = rng.random((n, d))
            y = rng.normal(size=n)
            ridge = float(10.0 ** rng.uniform(-6, -1))
            kind = ("krr-rbf", "krr-ntk", "krr-rf")[trial % 3]
            data = dataset(X, y)
            if kind == "krr-rbf":
                bw = float(rng.uniform(0.3, 2.0))
                est = krr_fit(kind, data, ridge, bandwidth=bw)
                kern = RbfKernel(bandwidth=bw)
            else:
                est = krr_fit(kind, data, ridge, config=cfg, width=4, seed=trial)
                kern = make_kernel(kind, config=cfg, width=4, seed=trial)
            xq = rng.random((7, d))
            K = kern.gram(X, X)
            coef = np.linalg.solve(K + ridge * np.eye(n), y)
            want = kern.gram(xq, X) @ coef
            np.testing.assert_allclose(est(xq), want, rtol=0, atol=1e-10)

    def test_interpolates_as_ridge_vanishes(self):
        rng = np.random.default_rng(7)
        X = rng.random((8, 2))
        y = rng.normal(size=8)
        est = krr_fit("krr-rbf", dataset(X, y), 1e-12, bandwidth=1.0)
        np.testing.assert_allclose(est(X), y, atol=1e-6)

    def test_ridge_must_be_positive(self):
        # check_grid's rule: an infinite or NaN ridge would solve to NaN
        # coefficients
        data = dataset(np.zeros((2, 1)), [0.0, 1.0])
        for ridge in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="finite and > 0"):
                krr_fit("krr-rbf", data, ridge, bandwidth=1.0)
            with pytest.raises(ValueError, match="finite and > 0"):
                krr_fit("krr-ntk", data, ridge, config=schedule(d=1), width=4)

    @staticmethod
    def assert_nonfinite_raises(data, bandwidth):
        # building such a gram warns; the error is what is checked
        with np.errstate(invalid="ignore", divide="ignore"):
            with pytest.raises(ValueError, match="infs or NaNs"):
                krr_fit("krr-rbf", data, 0.1, bandwidth=bandwidth)
            with pytest.raises(ValueError, match="infs or NaNs"):
                tune("krr-rbf", data,
                     grid={"bandwidth": [bandwidth], "ridge": [0.1]}, folds=3)

    @pytest.mark.parametrize("bad", ["X", "y"])
    def test_nonfinite_input_raises_in_fit_and_tune(self, bad):
        # the solves skip scipy's finiteness check, so each gram and y are
        # checked once with the same error
        rng = np.random.default_rng(3)
        for value in (np.nan, np.inf, -np.inf):
            X, y = rng.random((12, 2)), rng.normal(size=12)
            (X if bad == "X" else y)[4] = value
            self.assert_nonfinite_raises(dataset(X, y), bandwidth=1.0)

    def test_underflowing_bandwidth_raises_in_fit_and_tune(self):
        # finite X and y, but 1e-200 squared underflows to 0, so each gram's
        # diagonal is 0/0: only the gram check catches it
        rng = np.random.default_rng(3)
        data = dataset(rng.random((12, 2)), rng.normal(size=12))
        self.assert_nonfinite_raises(data, bandwidth=1e-200)


class TestLocalAverages:
    """Nearest-neighbor and kernel-weighted means."""

    def test_knn_hand_case(self):
        data = dataset([[0.0], [0.5], [1.0]], [1.0, 3.0, 10.0])
        got = knn_predict(data, 2, np.array([[0.1]]))
        assert got[0] == 2.0  # neighbors at 0.0 and 0.5

    def test_knn_full_average_at_k_equals_n(self):
        rng = np.random.default_rng(8)
        data = dataset(rng.random((9, 2)), rng.normal(size=9))
        got = knn_predict(data, 9, rng.random((3, 2)))
        np.testing.assert_allclose(got, data.y.mean(), rtol=1e-14)

    def test_knn_tie_goes_to_lowest_index(self):
        # query at 0.5: both neighbors at distance 0.5; k = 1 must take index 0
        data = dataset([[0.0], [1.0]], [-5.0, 7.0])
        assert knn_predict(data, 1, np.array([[0.5]]))[0] == -5.0

    def test_knn_tie_across_partition_boundary(self):
        # four equidistant points; k = 2 must average the two lowest indices
        data = dataset([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
                       [1.0, 2.0, 4.0, 8.0])
        got = knn_predict(data, 2, np.array([[0.0, 0.0]]))
        assert got[0] == 1.5

    def test_knn_k_validation(self):
        data = dataset([[0.0]], [1.0])
        for bad in (0, 2):
            with pytest.raises(ValueError):
                knn_predict(data, bad, np.array([[0.0]]))

    @pytest.mark.parametrize("n,d,k", [(50, 1, 1), (200, 3, 5), (300, 10, 16),
                                       (64, 2, 64), (1030, 4, 8)])
    def test_knn_matches_reference_without_the_exact_path(self, monkeypatch,
                                                          n, d, k):
        # random points leave every k-th and (k+1)-th key far outside the
        # margin, so no row takes the exact path; the sets are the
        # reference's and both sum y in index order
        rng = np.random.default_rng(n + d)
        data = dataset(rng.normal(scale=3.0, size=(n, d)) + 1.0,
                       rng.normal(size=n))
        x = rng.normal(scale=3.0, size=(700, d))
        calls = counting(monkeypatch, linear, "_k_smallest_sets")
        got = knn_predict(data, k, x)
        assert calls == []
        np.testing.assert_array_equal(got, knn_reference(data, k, x))

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_knn_near_tie_takes_the_exact_path(self, monkeypatch, k):
        # integer coordinates times 2^-26, so every key and distance is
        # exact.  From the origin, k - 1 points lie at squared distances
        # c^2 2^-52 and two at N 2^-52 and (N + 1) 2^-52, N = a^2 + b^2 near
        # 2^49: the k-th and (k+1)-th are 2^-52 apart, inside the margin
        # 2 delta = 2 * 9 eps (|x| + max |z|)^2, over 13 * 2^-52 here since
        # max |z| > 0.86.  The other points and the other queries lie in
        # [0.5, 1]^3, far from every boundary
        a, b = 2**24 - 3, 2**24 + 5
        near = [(c, 0, 0) for c in range(1, k)] + [(a, b, 0), (a, b, 1)]
        rng = np.random.default_rng(k)
        X = np.vstack([np.array(near) * 2.0**-26,
                       rng.uniform(0.5, 1.0, size=(40, 3))])
        data = dataset(X, rng.normal(size=len(X)))
        x = rng.uniform(0.5, 1.0, size=(30, 3))
        x[[4, 19]] = 0.0
        calls = counting(monkeypatch, linear, "_sq_dists")
        got = knn_predict(data, k, x)
        assert [c[0].tolist() for c in calls] == [[[0.0] * 3] * 2]
        np.testing.assert_array_equal(got, knn_reference(data, k, x))
        # N + 1 is the (k+1)-th: the set holds N's point, never N + 1's
        assert got[4] == data.y[:k].mean()

    def test_knn_lattice_ties_take_the_exact_path(self, monkeypatch):
        # exact squared distances on a dyadic lattice: a row takes the exact
        # path exactly when its k-th and (k+1)-th distances tie
        data = lattice_dataset(60, 2, seed=3)
        x = np.random.default_rng(4).integers(0, 4, size=(50, 2)) / 4.0
        D = np.sort(linear._sq_dists(x, data.X), axis=1)
        for k in (1, 4, 16):
            tied = D[:, k - 1] == D[:, k]
            calls = counting(monkeypatch, linear, "_sq_dists")
            got = knn_predict(data, k, x)
            assert tied.any()
            assert [c[0].tolist() for c in calls] == [x[tied].tolist()]
            np.testing.assert_array_equal(got, knn_reference(data, k, x))
            monkeypatch.undo()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_query_rows_predict_nan(self, value):
        # the other rows keep their bits.  x_far holds far points where
        # x_bad holds non-finite ones; nw's weights underflow at both, so
        # the two calls weight the same rows.  Bandwidth 1e-3 sends most
        # rows to nw's nearest-neighbour fallback
        rng = np.random.default_rng(12)
        data = dataset(rng.random((40, 2)), rng.normal(size=40))
        x = rng.random((25, 2))
        bad = np.zeros(25, dtype=bool)
        bad[[3, 17]] = True
        x_bad, x_far = x.copy(), x.copy()
        x_bad[3, 0] = x_bad[17, 1] = value
        x_far[bad] = 1e3
        for predict in (partial(knn_predict, data, 1),
                        partial(knn_predict, data, 6),
                        partial(knn_predict, data, 40),
                        partial(nw_predict, data, 0.3),
                        partial(nw_predict, data, 1e-3)):
            with np.errstate(invalid="ignore"):  # nw's distances warn
                got = predict(x_bad)
            assert np.isnan(got[bad]).all()
            np.testing.assert_array_equal(got[~bad], predict(x_far)[~bad])

    @pytest.mark.parametrize("kind,params", [("knn", {"k": 2}),
                                             ("nw", {"bandwidth": 0.4})])
    @pytest.mark.parametrize("bad", ["X", "y"])
    def test_nonfinite_training_set_raises(self, kind, params, bad):
        rng = np.random.default_rng(13)
        for value in (np.nan, np.inf, -np.inf):
            X, y = rng.random((12, 2)), rng.normal(size=12)
            (X if bad == "X" else y)[4] = value
            data = dataset(X, y)
            with pytest.raises(ValueError, match="infs or NaNs"):
                fit_estimator(kind, data, params)
            with pytest.raises(ValueError, match="infs or NaNs"):
                tune(kind, data, folds=3)

    def test_nw_hand_case(self):
        data = dataset([[0.0], [1.0]], [0.0, 1.0])
        bw = 0.5
        w0 = math.exp(-0.04 / (2 * bw**2))
        w1 = math.exp(-0.64 / (2 * bw**2))
        want = w1 / (w0 + w1)
        got = nw_predict(data, bw, np.array([[0.2]]))[0]
        assert math.isclose(got, want, rel_tol=1e-14)

    def test_nw_wide_bandwidth_approaches_global_mean(self):
        rng = np.random.default_rng(10)
        data = dataset(rng.random((12, 2)), rng.normal(size=12))
        got = nw_predict(data, 1e4, rng.random((4, 2)))
        np.testing.assert_allclose(got, data.y.mean(), rtol=1e-6)

    def test_nw_underflow_falls_back_to_nearest_neighbor(self):
        data = dataset([[0.0], [1.0]], [3.5, -2.0])
        got = nw_predict(data, 1e-3, np.array([[0.4], [0.9]]))
        np.testing.assert_array_equal(got, [3.5, -2.0])

    def test_nw_bandwidth_validation(self):
        data = dataset([[0.0]], [1.0])
        with pytest.raises(ValueError):
            nw_predict(data, 0.0, np.array([[0.0]]))


class TestLinearityInY:
    """Predictions at fixed inputs are linear maps of the training labels."""

    def test_all_kinds(self):
        rng = np.random.default_rng(42)
        cfg = schedule(d=2)
        n = 12
        X = rng.random((n, 2))
        y1 = rng.normal(size=n)
        y2 = rng.normal(size=n)
        xq = rng.random((5, 2))
        cases = {
            "krr-rbf": {"bandwidth": 0.7, "ridge": 1e-3},
            "krr-ntk": {"ridge": 1e-5},
            "krr-rf": {"ridge": 1e-5},
            "knn": {"k": 3},
            "nw": {"bandwidth": 0.3},
        }
        for kind in ESTIMATOR_KINDS:
            params = cases[kind]

            def predict(y):
                est = fit_estimator(kind, dataset(X, y), params, config=cfg,
                                    kernel_seed=1)
                return est(xq)

            combo = predict(2.0 * y1 - 0.5 * y2)
            parts = 2.0 * predict(y1) - 0.5 * predict(y2)
            np.testing.assert_allclose(combo, parts, rtol=1e-9, atol=1e-11,
                                       err_msg=kind)


class TestTuning:
    """Deterministic cross validation."""

    def test_fold_partition(self):
        from ngdbench.linear import _fold_indices
        folds = _fold_indices(23, 5, seed=3)
        assert len(folds) == 5
        merged = np.sort(np.concatenate(folds))
        np.testing.assert_array_equal(merged, np.arange(23))

    def test_deterministic(self):
        teacher = sample_teacher(schedule(d=2), 3, radius=0.9, seed=0)
        data = generate_dataset(teacher, n=40, noise_bound=0.2, seed=1)
        a = tune("nw", data, folds=4, seed=9)
        b = tune("nw", data, folds=4, seed=9)
        assert a == b

    def test_table_covers_grid_in_order(self):
        teacher = sample_teacher(schedule(d=1), 2, radius=0.9, seed=0)
        data = generate_dataset(teacher, n=20, noise_bound=0.1, seed=2)
        grid = {"bandwidth": [0.5, 0.25], "ridge": [1e-3, 1e-1]}
        res = tune("krr-rbf", data, grid=grid, folds=4, seed=0)
        combos = [params for params, _ in res.table]
        assert combos == [
            {"bandwidth": 0.25, "ridge": 1e-3},
            {"bandwidth": 0.25, "ridge": 1e-1},
            {"bandwidth": 0.5, "ridge": 1e-3},
            {"bandwidth": 0.5, "ridge": 1e-1},
        ]
        assert res.params in combos
        assert res.score == min(score for _, score in res.table)

    def test_tie_breaks_to_smallest_combo(self):
        # constant labels: every k scores zero, so the smallest k wins
        data = dataset(np.linspace(0, 1, 12)[:, None], np.full(12, 2.5))
        res = tune("knn", data, grid={"k": [4, 1, 2]}, folds=3, seed=0)
        assert res.params == {"k": 1}
        assert res.score == 0.0

    def test_selects_sane_knn_k_on_pure_noise(self):
        # i.i.d. noise around a constant: cross validation should prefer
        # heavy averaging over 1-nearest-neighbor interpolation
        rng = np.random.default_rng(0)
        data = dataset(rng.random((60, 1)), rng.normal(size=60))
        res = tune("knn", data, grid={"k": [1, 16]}, folds=5, seed=1)
        assert res.params == {"k": 16}

    def test_tuned_score_matches_refit_by_hand(self):
        from ngdbench.linear import _fold_indices
        teacher = sample_teacher(schedule(d=1), 2, radius=0.9, seed=3)
        data = generate_dataset(teacher, n=16, noise_bound=0.1, seed=4)
        grid = {"bandwidth": [0.4]}
        res = tune("nw", data, grid=grid, folds=4, seed=5)
        total = 0.0
        for va in _fold_indices(16, 4, seed=5):
            tr = np.setdiff1d(np.arange(16), va)
            sub = dataset(data.X[tr], data.y[tr])
            resid = nw_predict(sub, 0.4, data.X[va]) - data.y[va]
            total += float(resid @ resid)
        assert math.isclose(res.score, total / 16, rel_tol=1e-13)

    def test_validation(self):
        data = dataset(np.zeros((3, 1)), np.zeros(3))
        with pytest.raises(ValueError):
            tune("spline", data)
        with pytest.raises(ValueError):
            tune("knn", data, folds=1)
        with pytest.raises(ValueError):
            tune("knn", data, folds=4)  # n < folds

    @pytest.mark.parametrize("kind, grid, key", [
        ("krr-rbf", {"bandwidth": [1.0], "ridge": [-1e-3, 1e-3]},
         "grid.krr-rbf.ridge"),
        ("knn", {"k": [0, 2]}, "grid.knn.k"),
        ("knn", {"k": [-3, 2]}, "grid.knn.k"),
        ("krr-rbf", {"bandwidth": [1.0, np.nan], "ridge": [1e-3]},
         "grid.krr-rbf.bandwidth"),
        ("nw", {"bandwidth": [np.nan]}, "grid.nw.bandwidth"),
        ("knn", {"k": [1, 2.0]}, "grid.knn.k"),
        ("krr-rbf", {"ridge": [1e-3, np.inf]}, "grid.krr-rbf.ridge")],
        ids=["negative-ridge", "k-zero", "k-negative", "nan-bandwidth",
             "nw-nan-bandwidth", "k-float", "infinite-ridge"])
    def test_untunable_grid_raises_before_any_work(self, monkeypatch, kind,
                                                   grid, key):
        rng = np.random.default_rng(5)
        data = dataset(rng.random((20, 2)), rng.normal(size=20))
        calls = [counting(monkeypatch, linear, name)
                 for name in ("_sq_dists", "_solve_regularized")]
        with pytest.raises(ValueError, match=rf"^{key} values must be "):
            tune(kind, data, grid=grid, folds=4, seed=1)
        assert calls == [[], []]

    def test_grid_naming_some_parameters_tunes_the_rest_on_defaults(self):
        rng = np.random.default_rng(6)
        data = dataset(rng.random((20, 2)), rng.normal(size=20))
        full = {"bandwidth": [1.0], "ridge": default_grid("krr-rbf")["ridge"]}
        part = tune("krr-rbf", data, grid={"bandwidth": [1.0]}, folds=4, seed=1)
        assert part == tune("krr-rbf", data, grid=full, folds=4, seed=1)

    @pytest.mark.parametrize("k", [2.0, 2.5])
    def test_knn_k_is_an_integer_on_every_path(self, k):
        # tune, fit_estimator and config load each refuse a float k by a
        # ValueError naming k: none truncates it, none fails in the search
        rng = np.random.default_rng(6)
        data = dataset(rng.random((20, 2)), rng.normal(size=20))
        with pytest.raises(ValueError,
                           match=r"^grid.knn.k values must be integers >= 1$"):
            tune("knn", data, grid={"k": [k]}, folds=4)
        with pytest.raises(ValueError,
                           match=r"^k must lie in \{1, \.\.\., n\}$"):
            fit_estimator("knn", data, {"k": k})
        with pytest.raises(ConfigError, match=r"bad value for 'grid.knn.k'"):
            parse_config(f"grid.knn.k = {k}\n")
        # an integer k of any integer type fits the same estimator
        want = fit_estimator("knn", data, {"k": 2})(data.X)
        np.testing.assert_array_equal(
            fit_estimator("knn", data, {"k": np.int64(2)})(data.X), want)

    def test_grid_names_a_nonempty_parameter_list(self):
        with pytest.raises(ValueError, match=(
                r"^grid.knn.bandwidth is not a tuning parameter of knn$")):
            check_grid("knn", {"bandwidth": [0.5]})
        with pytest.raises(ValueError,
                           match=r"^grid.nw.bandwidth must be non-empty$"):
            tune("nw", dataset(np.zeros((8, 1)), np.zeros(8)),
                 grid={"bandwidth": np.array([])}, folds=4)

    def test_k_bound_is_the_splits_smallest_training_fold(self):
        # check_grid's bound and tune's agree with _fold_indices itself at
        # every (n, folds), folds capped at n as the sweep caps them
        from ngdbench.linear import _fold_indices
        for n in range(4, 61):
            data = dataset(np.linspace(0.0, 1.0, n)[:, None],
                           np.cos(np.arange(n)))
            for folds in range(2, 11):
                f = min(folds, n)
                bound = min(n - va.size for va in _fold_indices(n, f, seed=n))
                check_grid("knn", {"k": [1, bound]}, n, folds)
                tune("knn", data, grid={"k": [1, bound]}, folds=f, seed=n)
                past = (rf"^grid.knn.k value {bound + 1} exceeds the smallest"
                        rf" training fold: {bound} points at n = {n} ")
                with pytest.raises(ValueError, match=past):
                    check_grid("knn", {"k": [bound + 1]}, n, folds)
                with pytest.raises(ValueError, match=past):
                    tune("knn", data, grid={"k": [bound + 1]}, folds=f, seed=n)

    def test_default_grids(self):
        assert default_grid("knn", dataset(np.zeros((10, 1)), np.zeros(10))) \
            == {"k": [1, 2, 4]}
        assert default_grid("knn")["k"][-1] == 64
        assert set(default_grid("krr-rbf")) == {"bandwidth", "ridge"}
        with pytest.raises(ValueError):
            default_grid("spline")


class TestSinglePass:
    """Each dense pass of tuning and prediction runs once, and gives what the
    longer passes gave."""

    def test_knn_tune_selects_once_per_fold(self, monkeypatch):
        data = lattice_dataset(60, 2, seed=1)
        calls = counting(monkeypatch, linear, "_k_smallest_sets")
        tune("knn", data, folds=4, seed=0)
        assert len(calls) == 4

    def test_rbf_tune_forms_one_gram_per_bandwidth(self, monkeypatch):
        # 4 bandwidths x 4 ridges: each bandwidth's gram is formed once, by
        # RbfKernel.gram, and every ridge is scored on it
        rng = np.random.default_rng(2)
        data = dataset(rng.random((40, 3)), rng.normal(size=40))
        assert len(default_grid("krr-rbf")["bandwidth"]) == 4
        dists = counting(monkeypatch, linear, "_sq_dists")
        exps = counting(monkeypatch, RbfKernel, "from_sq_dists")
        tune("krr-rbf", data, folds=5, seed=0)
        assert len(dists) == 4
        assert len(exps) == 4

    def test_cholesky_sees_fortran_arrays_only(self, monkeypatch):
        # every LAPACK/BLAS operand of the CV recursion is Fortran-contiguous,
        # so f2py hands it over without a copy and the result is written
        # into one of the operands
        from scipy.linalg import blas, lapack
        rng = np.random.default_rng(3)
        data = dataset(rng.random((30, 2)), rng.normal(size=30))
        calls = []

        def recording(owner, name):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                arrays = [a for a in (*args, *kwargs.values())
                          if isinstance(a, np.ndarray)]
                out = real(*args, **kwargs)
                written = out[0] if name == "dpotrf" else out
                calls.append((name, arrays, written))
                return out

            monkeypatch.setattr(owner, name, wrapper)

        for owner, name in ((lapack, "dpotrf"), (blas, "dtrsm"),
                            (blas, "dsyrk")):
            recording(owner, name)
        # the fit imports cho_factor from scipy.linalg on each call
        fit = counting(monkeypatch, scipy.linalg, "cho_factor")
        tune("krr-rbf", data, folds=3, seed=0)
        krr_fit("krr-rbf", data, 1e-3, bandwidth=0.5)
        tune("krr-ntk", data, folds=7, seed=0, config=schedule(d=2))
        # 16 krr-rbf combinations x 2 (3 - 1), 5 krr-ntk ridges x 2 (7 - 1)
        potrf = [c for c in calls if c[0] == "dpotrf"]
        assert len(potrf) == 16 * 4 + 5 * 12
        assert len(fit) == 1 and fit[0][0].flags.f_contiguous
        for name, arrays, written in calls:
            assert all(a.flags.f_contiguous for a in arrays), name
            assert any(np.shares_memory(written, a) for a in arrays), name

    def test_primal_prediction_forms_training_features_once(self, monkeypatch):
        cfg = schedule(d=2)
        rng = np.random.default_rng(4)
        fit = krr_fit("krr-ntk", dataset(rng.random((24, 2)),
                                         rng.normal(size=24)),
                      1e-4, config=cfg, width=6, seed=1)
        calls = counting(monkeypatch, NtkKernel, "features")
        est = KrrEstimator(kind=fit.kind, kernel=fit.kernel, ridge=fit.ridge,
                           X=fit.X, dual_coef=fit.dual_coef)
        features = 6 * (2 + 2)
        monkeypatch.setattr(linear, "_CHUNK_DOUBLES", 10 * features)
        est(rng.random((35, 2)))  # blocks of 10 rows: 3 full, one of 5
        on_train = [c for c in calls if c[1] is fit.X]
        assert len(on_train) == 1
        assert len(calls) == 1 + 4

    @pytest.mark.parametrize("kind", ["krr-ntk", "krr-rf"])
    def test_frozen_layer_drawn_once(self, monkeypatch, kind):
        cfg = schedule(d=2)
        rng = np.random.default_rng(10)
        data = dataset(rng.random((24, 2)), rng.normal(size=24))
        calls = counting(monkeypatch, linear, "sample_teacher")
        est = krr_fit(kind, data, 1e-4, config=cfg, width=6, seed=1)
        monkeypatch.setattr(linear, "_CHUNK_DOUBLES", 10 * est._coef.size)
        est(rng.random((35, 2)))  # blocks of 10 rows: 3 full, one of 5
        assert len(calls) == 1

    @pytest.mark.parametrize("kind", ["krr-ntk", "krr-rf"])
    def test_fit_forms_training_features_once(self, monkeypatch, kind):
        rng = np.random.default_rng(11)
        data = dataset(rng.random((24, 2)), rng.normal(size=24))
        cls = NtkKernel if kind == "krr-ntk" else RandomFeatureKernel
        calls = counting(monkeypatch, cls, "features")
        krr_fit(kind, data, 1e-4, config=schedule(d=2), width=6, seed=1)
        assert len(calls) == 1 and calls[0][1] is data.X

    def test_prediction_memory_is_bounded(self):
        # bound, stated before measuring: 8 MiB.  A block of about 1 MiB and
        # the few temporaries built from it fit several times over; one
        # 20000 x 1024 block (160 MB) or one 4e6-double block (32 MB) does not
        bound = 8 * 2**20
        rng = np.random.default_rng(5)
        data = dataset(rng.random((1024, 10)), rng.normal(size=1024))
        est = krr_fit("krr-rbf", data, 1e-3, bandwidth=1.0)
        x = rng.random((20000, 10))
        for predict in (lambda: knn_predict(data, 16, x), lambda: est(x)):
            assert traced_peak(predict) < bound

    @pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
    def test_cv_table_matches_reference_bitwise(self, kind):
        # bitwise for knn and nw; kernel ridge eliminates the folds from one
        # another instead of solving each fold, so its scores agree with the
        # per-fold solves to CV_RTOL
        teacher = sample_teacher(schedule(d=3), 3, radius=0.9, seed=0)
        data = generate_dataset(teacher, n=128, noise_bound=0.1, seed=6)
        ties = lattice_dataset(128, 2, seed=7)
        D = np.sort(linear._sq_dists(ties.X, ties.X), axis=1)
        for k in default_grid("knn", ties)["k"]:
            assert np.any(D[:, k - 1] == D[:, k])  # ties at the k-th distance
        for d in (data, ties):
            grid = default_grid(kind, d)
            cfg = schedule(d=d.d)
            res = tune(kind, d, grid=grid, folds=5, seed=8, config=cfg,
                       kernel_seed=3)
            want = cv_table(kind, d, grid, folds=5, seed=8, config=cfg,
                            kernel_seed=3)
            if kind in ("knn", "nw"):
                assert res.table == want
            else:
                assert_tables_close(res.table, want)

    @pytest.mark.parametrize("kind", ["krr-rbf", "krr-ntk", "krr-rf"])
    @pytest.mark.parametrize("n", [11, 37])
    def test_krr_cv_matches_per_fold_solves(self, kind, n):
        # n = 37 leaves every fold count but 37 uneven folds (19/18,
        # 13/12/12, 8/8/7/7/7, 6/6/5/5/5/5/5); folds = n is leave-one-out
        teacher = sample_teacher(schedule(d=3), 3, radius=0.9, seed=0)
        data = generate_dataset(teacher, n=n, noise_bound=0.1, seed=12)
        cfg, grid = schedule(d=3), default_grid(kind)
        for folds in (2, 3, 5, 7, n):
            res = tune(kind, data, grid=grid, folds=folds, seed=4,
                       config=cfg, kernel_seed=5)
            assert_tables_close(res.table, cv_table(
                kind, data, grid, folds=folds, seed=4, config=cfg,
                kernel_seed=5))

    @pytest.mark.filterwarnings("ignore:An ill-conditioned matrix")
    def test_failed_node_factorization_scores_per_fold(self, monkeypatch):
        # 30 distinct points of a 1/64 grid on [0, 1]: exact squared
        # distances, and at bandwidth 1 a gram whose numerical rank is far
        # below 30, so ridge 1e-30 leaves a non-positive pivot in the
        # recursion.  That combination is scored by 3 per-fold solves, the
        # oracle's own path; ridge 1e-3 runs the recursion
        rng = np.random.default_rng(0)
        data = dataset(rng.choice(64, size=(30, 1), replace=False) / 64.0,
                       rng.normal(size=30))
        grid = {"bandwidth": [1.0], "ridge": [1e-30, 1e-3]}
        calls = counting(monkeypatch, linear, "_solve_regularized")
        res = tune("krr-rbf", data, grid=grid, folds=3, seed=1)
        assert len(calls) == 3
        assert_tables_close(res.table,
                            cv_table("krr-rbf", data, grid, folds=3, seed=1))

    @pytest.mark.parametrize("kind", ["krr-rbf", "krr-ntk", "krr-rf"])
    def test_forced_fallback_refits_every_fold(self, monkeypatch, kind):
        # every node factorization reports a non-positive pivot (info = 1),
        # so each combination is refit on every training fold by _krr_fit.
        # cho_factor does not reach lapack.dpotrf by that name, so the fits
        # factor for real.  Well-conditioned data and ridges >= 1e-3 hold
        # the refits to CV_RTOL of the per-fold solves; the oracle's feature
        # kernel has width max(8, 37 // 4) = 9, and a width derived from a
        # training fold's n (8) would fit another model
        from scipy.linalg import lapack
        monkeypatch.setattr(lapack, "dpotrf", lambda a, **kwargs: (a, 1))
        teacher = sample_teacher(schedule(d=3), 3, radius=0.9, seed=0)
        data = generate_dataset(teacher, n=37, noise_bound=0.1, seed=12)
        cfg, grid = schedule(d=3), {"ridge": [1e-3, 1e-1]}
        if kind == "krr-rbf":
            grid["bandwidth"] = [0.5, 1.0]
        fits = counting(monkeypatch, linear, "_krr_fit")
        res = tune(kind, data, grid=grid, folds=5, seed=4, config=cfg,
                   kernel_seed=5)
        assert len(fits) == 5 * len(res.table)
        assert_tables_close(res.table, cv_table(
            kind, data, grid, folds=5, seed=4, config=cfg, kernel_seed=5))

    def test_blocks_match_one_block(self, monkeypatch):
        rng = np.random.default_rng(9)
        n = 200
        data = dataset(rng.random((n, 3)), rng.normal(size=n))
        est = krr_fit("krr-rbf", data, 1e-5, bandwidth=0.7)
        x = rng.random((301, 3))

        def predictions():
            return (knn_predict(data, 5, x), nw_predict(data, 0.3, x), est(x))

        monkeypatch.setattr(linear, "_CHUNK_DOUBLES", 10**9)
        one = predictions()
        # 40 rows per block: 7 full blocks and one of 21 rows
        monkeypatch.setattr(linear, "_CHUNK_DOUBLES", 40 * n)
        knn, nw, krr = predictions()
        np.testing.assert_array_equal(knn, one[0])
        np.testing.assert_array_equal(nw, one[1])
        np.testing.assert_allclose(krr, one[2], rtol=1e-14, atol=0)

    @pytest.mark.parametrize("kind", ["krr-rbf", "krr-ntk", "krr-rf"])
    def test_training_gram_exactly_symmetric(self, kind):
        # the Cholesky factorization reads the triangle opposite the one a
        # C-ordered gram was written in
        X = np.random.default_rng(10).random((150, 4))
        params = ({"bandwidth": 0.8} if kind == "krr-rbf"
                  else {"width": 12, "seed": 1})
        G = kernel_eval(kind, X, X, config=schedule(d=4), **params)
        np.testing.assert_array_equal(G, G.T)

    def test_primal_prediction_is_the_exact_product(self):
        # tolerance, stated before measuring: the dense-solve oracle's 1e-10
        # absolute, over ridges >= 1e-6.  The reference is the product both
        # prediction forms round, features(x) features(X)^T c, evaluated in
        # exact rational arithmetic from the same doubles
        from fractions import Fraction
        cfg = schedule(d=3)
        rng = np.random.default_rng(11)
        data = dataset(rng.random((64, 3)), rng.normal(size=64))
        xq = rng.random((40, 3))
        for kind in ("krr-ntk", "krr-rf"):
            for ridge in (1e-6, 1e-4, 1e-2):
                est = krr_fit(kind, data, ridge, config=cfg, width=16, seed=5)
                FX = est.kernel.features(est.X).tolist()
                c = [Fraction(v) for v in est.dual_coef.tolist()]
                w = [sum(Fraction(row[j]) * ci for row, ci in zip(FX, c))
                     for j in range(len(FX[0]))]
                exact = [float(sum(Fraction(f) * wj for f, wj in zip(row, w)))
                         for row in est.kernel.features(xq).tolist()]
                np.testing.assert_allclose(est(xq), exact, rtol=0, atol=1e-10,
                                           err_msg=f"{kind} {ridge:g}")


class TestKrrMemory:
    """Kernel ridge holds a fixed set of dense arrays: tuning keeps one
    n x n gram in fold order and, beside it, the arrays of the Schur nodes
    on one recursion path, each freed after its last use; a combination
    refit fold by fold holds none of them, only one training-fold gram and
    its factor buffer; a fit keeps the gram and one factor buffer.  Each
    solve shifts the gram's diagonal in place and restores it."""

    n = 1000
    # bound slack, stated before measuring: the vectors of n or m entries
    # (the masks, the fold-ordered X and y, a solve's diagonal and
    # right-hand sides, under 0.2 MiB here) and scipy's small wrappers,
    # 0.5 MiB in all.  The 1 MiB row block of a distance pass is never
    # live with the largest set of arrays.  One more validation block
    # (m x (n - m), 1.2 MiB) does not fit
    slack = 2**19
    # the largest live set of Schur arrays at n = 1000 and five folds of
    # 200: the top node's factor of the 600 eliminated points and its
    # coupling block with the 400 kept ones and y, 600^2 + 600 * 401
    schur = 600_600

    def data(self, seed):
        rng = np.random.default_rng(seed)
        return dataset(rng.random((self.n, 3)), rng.normal(size=self.n))

    def tune_bound(self, refit=False):
        # 8 (n^2 + schur) bytes, 1.6 n^2 doubles; a refit holds 2 m^2, m
        # the training fold, in place of the Schur arrays
        n, m = self.n, self.n - self.n // 5
        return 8 * (n * n + (2 * m * m if refit else self.schur)) \
            + self.slack

    def test_rbf_tune_memory_is_bounded(self):
        data = self.data(12)
        grid = {"bandwidth": [0.5, 1.0], "ridge": [1e-3, 1e-1]}
        peak = traced_peak(lambda: tune("krr-rbf", data, grid=grid, folds=5))
        assert peak < self.tune_bound()

    def test_feature_tune_memory_is_bounded(self):
        data = self.data(13)
        peak = traced_peak(lambda: tune("krr-rf", data, grid={"ridge": [1e-3]},
                                        folds=5, config=schedule(d=3)))
        assert peak < self.tune_bound()

    def test_refit_tune_memory_is_bounded(self, monkeypatch):
        # every node factorization reports a non-positive pivot, so the
        # combination is refit on each training fold
        from scipy.linalg import lapack
        monkeypatch.setattr(lapack, "dpotrf", lambda a, **kwargs: (a, 1))
        data = self.data(16)
        fits = counting(monkeypatch, linear, "_krr_fit")
        grid = {"bandwidth": [1.0], "ridge": [1e-3]}
        peak = traced_peak(lambda: tune("krr-rbf", data, grid=grid, folds=5))
        assert len(fits) == 5
        assert peak < self.tune_bound(refit=True)

    def test_fit_memory_is_bounded(self):
        # 16 n^2 bytes: the gram and one factor buffer
        data = self.data(14)
        peak = traced_peak(lambda: krr_fit("krr-rbf", data, 1e-3,
                                           bandwidth=1.0))
        assert peak < 16 * self.n**2 + self.slack

    def gram(self, rank=60):
        rng = np.random.default_rng(15)
        F = rng.normal(size=(40, rank))
        # one point near the origin: its diagonal entry (~1e-40) is one the
        # ridge moves, whatever the ridge
        F[0] *= 1e-20
        return F @ F.T, rng.normal(size=40)

    def test_solve_leaves_gram_unchanged(self):
        K, y = self.gram()
        before = K.copy()
        coef = linear._solve_regularized(K, 1e-3, y)
        np.testing.assert_array_equal(K, before)
        np.testing.assert_allclose(
            (before + 1e-3 * np.eye(40)) @ coef, y, rtol=0, atol=1e-10)

    @pytest.mark.filterwarnings("ignore:An ill-conditioned matrix")
    def test_indefinite_fallback_leaves_gram_unchanged(self, monkeypatch):
        # rank 3 plus a tiny ridge: roundoff leaves Cholesky a non-positive
        # pivot, and the symmetric-indefinite solver takes over
        K, y = self.gram(rank=3)
        before = K.copy()
        calls = counting(monkeypatch, scipy.linalg, "solve")
        linear._solve_regularized(K, 1e-30, y)
        assert len(calls) == 1
        np.testing.assert_array_equal(K, before)

    def test_failed_solve_leaves_gram_unchanged(self, monkeypatch):
        K, y = self.gram()
        before = K.copy()

        def broken(*args, **kwargs):
            raise RuntimeError("solve failed")

        monkeypatch.setattr(scipy.linalg, "cho_solve", broken)
        with pytest.raises(RuntimeError, match="solve failed"):
            linear._solve_regularized(K, 1e-3, y)
        np.testing.assert_array_equal(K, before)


class TestSerialization:
    """The written estimator files: exact text, every value at full
    precision."""

    @staticmethod
    def rows(path, section, end=None):
        """The float rows after a file's `section:` line, up to the `end`
        line if given."""
        body = path.read_text().split(f"{section}:\n")[1]
        return np.loadtxt(io.StringIO(body.split(end)[0] if end else body),
                          ndmin=2)

    def test_krr_rbf_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.random((6, 2))
        est = krr_fit("krr-rbf", dataset(X, rng.normal(size=6)), 1e-3,
                      bandwidth=0.8)
        path = tmp_path / "est.txt"
        save_estimator(path, est)
        assert self.rows(path, "inputs", "dual_coef:").tobytes() == X.tobytes()
        assert self.rows(path, "dual_coef").ravel().tobytes() == (
            est.dual_coef.tobytes())

    def test_krr_ntk_roundtrip(self, tmp_path):
        cfg = schedule(d=1)
        rng = np.random.default_rng(1)
        X = rng.random((5, 1))
        est = krr_fit("krr-ntk", dataset(X, rng.normal(size=5)), 1e-4,
                      config=cfg, width=3, seed=2)
        path = tmp_path / "est.txt"
        save_estimator(path, est)
        assert path.read_text().startswith(
            "# ngdbench estimator\nkind = krr-ntk\nridge = 0.0001\n"
            "width = 3\nkernel_seed = 2\n")
        assert self.rows(path, "inputs", "dual_coef:").tobytes() == X.tobytes()
        assert self.rows(path, "dual_coef").ravel().tobytes() == (
            est.dual_coef.tobytes())

    def test_params_roundtrip_every_kind(self, tmp_path):
        # the header names the hyperparameters each kind was fitted with,
        # kernel width and seed included
        cfg = schedule(d=2)
        rng = np.random.default_rng(4)
        data = dataset(rng.random((40, 2)), rng.normal(size=40))
        feature = ({"ridge": 1e-4},
                   "ridge = 0.0001\nwidth = 10\nkernel_seed = 3\n")
        cases = {"krr-rbf": ({"bandwidth": 0.7, "ridge": 1e-3},
                             "ridge = 0.001\nbandwidth = 0.69999999999999996\n"),
                 "krr-ntk": feature, "krr-rf": feature,
                 "knn": ({"k": 3}, "k = 3\n"),
                 "nw": ({"bandwidth": 0.3}, "bandwidth = 0.29999999999999999\n")}
        for kind in ESTIMATOR_KINDS:
            params, header = cases[kind]
            est = fit_estimator(kind, data, params, config=cfg,
                                kernel_seed=3)
            path = tmp_path / f"{kind}.txt"
            save_estimator(path, est)
            assert path.read_text().startswith(
                f"# ngdbench estimator\nkind = {kind}\n{header}"), kind
        assert est.params == {"bandwidth": 0.3}

    def test_local_roundtrips(self, tmp_path):
        rng = np.random.default_rng(2)
        X = rng.random((7, 2))
        y = rng.normal(size=7)
        for kind, params in (("knn", {"k": 2}), ("nw", {"bandwidth": 0.4})):
            est = fit_estimator(kind, dataset(X, y), params)
            path = tmp_path / f"{kind}.txt"
            save_estimator(path, est)
            train = self.rows(path, "train")
            assert train.tobytes() == np.column_stack([X, y]).tobytes()
            assert est.params == params

    def test_local_saves_the_k_it_predicts_with(self, tmp_path):
        rng = np.random.default_rng(5)
        data = dataset(rng.random((9, 2)), rng.normal(size=9))
        xq = rng.random((4, 2))
        path = tmp_path / "knn.txt"
        est = linear.LocalEstimator("knn", data, {"k": 3})
        save_estimator(path, est)
        assert "\nk = 3\n" in path.read_text()
        np.testing.assert_array_equal(est(xq), knn_predict(data, 3, xq))
        # fit_estimator keeps the one hyperparameter, coerced
        assert fit_estimator("nw", data, {"bandwidth": 1, "k": 2}).params == {
            "bandwidth": 1.0}

    def test_file_bytes(self, tmp_path):
        # exact text of one file per header layout: rbf, schedule, local
        cfg = ScheduleConfig(d=1, R=2.0, gamma=1.5, alpha1=1.0, alpha2=4.0,
                             s=3.0, c_mu=0.5)
        X2 = np.array([[0.25, 0.5], [0.75, 1.0]])
        X1 = np.array([[0.25], [0.75]])
        cases = [
            (KrrEstimator(kind="krr-rbf", kernel=RbfKernel(bandwidth=0.5),
                          ridge=0.001, X=X2, dual_coef=np.array([1.5, -0.5])),
             "kind = krr-rbf\nridge = 0.001\nbandwidth = 0.5\nn = 2\n"
             "inputs:\n0.25 0.5\n0.75 1\ndual_coef:\n1.5\n-0.5\n"),
            (KrrEstimator(kind="krr-ntk",
                          kernel=NtkKernel(config=cfg, width=3, seed=2),
                          ridge=1e-4, X=X1, dual_coef=np.array([2.0, 0.1])),
             "kind = krr-ntk\nridge = 0.0001\nwidth = 3\nkernel_seed = 2\n"
             "d = 1\nR = 2\ngamma = 1.5\nalpha1 = 1\nalpha2 = 4\ns = 3\n"
             "c_mu = 0.5\nn = 2\ninputs:\n0.25\n0.75\ndual_coef:\n2\n"
             "0.10000000000000001\n"),
            (fit_estimator("knn", dataset(X2, [0.5, -1.0]), {"k": 2}),
             "kind = knn\nk = 2\nn = 2\ntrain:\n0.25 0.5 0.5\n"
             "0.75 1 -1\n"),
        ]
        for est, body in cases:
            path = tmp_path / f"{est.kind}.txt"
            save_estimator(path, est)
            assert path.read_text() == "# ngdbench estimator\n" + body

    @pytest.mark.parametrize("kind, key, value, message", [
        ("knn", "k", 0, "k must lie in"),
        ("knn", "k", 5, "k must lie in"),
        ("nw", "bandwidth", 0, "bandwidth must be finite and > 0"),
        ("nw", "bandwidth", math.inf, "bandwidth must be finite and > 0")])
    def test_local_estimator_rejects_bad_params_before_predicting(
            self, kind, key, value, message):
        # on two training points
        data = dataset(np.array([[0.25], [0.75]]), [0.5, -1.0])
        with pytest.raises(ValueError, match=message):
            fit_estimator(kind, data, {key: value})

    def test_knn_train_section_is_the_dataset_file(self, tmp_path):
        teacher = sample_teacher(schedule(d=2), 3, radius=0.9, seed=0)
        data = generate_dataset(teacher, n=12, noise_bound=0.2, seed=1)
        save_dataset(tmp_path / "data.txt", data)
        save_estimator(tmp_path / "knn.txt",
                       fit_estimator("knn", data, {"k": 2}))
        data_text, knn_text = ((tmp_path / name).read_text()
                               for name in ("data.txt", "knn.txt"))
        section = data_text[data_text.index("train:\n"):]
        assert knn_text[knn_text.index("train:\n"):] == section
        assert section.count("\n") == 13
