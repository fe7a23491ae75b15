"""Noisy gradient descent: operator algebra, gradients, chain, diagnostics."""

import math
import warnings
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest

import ngdbench.ngd as ngd_module
from ngdbench.config import load_config
from ngdbench.data import Dataset, empirical_risk, generate_dataset
from ngdbench.model import (ScheduleConfig, _neg_logistic, active_width,
                            bump_teacher, eval_network, h_norm, hgamma_norm,
                            sample_teacher, sigmoid)
from ngdbench.ngd import (
    _NOISE_STEPS,
    ChainDivergence,
    MeanPredictor,
    NgdConfig,
    loss_grad,
    mixing_diagnostic,
    ou_block_variance,
    prior_block_variance,
    run_chain,
    save_trace,
    shrink_factors,
    step,
)
from ngdbench.textio import FLOAT_FMT
from ngdbench.sweep import cell_inputs, resolve_teacher
from oracles import (apply_shrink, loss_grad_blocks, loss_grad_bound,
                     ridge_grad, snapshot_mean_oracle, step_explicit,
                     step_reference)


def small_config(**kw):
    base = dict(d=1, R=1.0, gamma=1.0, alpha1=1.0, alpha2=1.0, s=3.0, c_mu=1.0)
    base.update(kw)
    return ScheduleConfig(**base)


def small_ngd(**kw):
    base = dict(eta=0.1, beta=8.0, lam=0.5, k_max=100, width=2, seed=0)
    base.update(kw)
    return NgdConfig(**base)


def count_gradients(monkeypatch):
    """A list that gains one entry per call of ngd._gradient."""
    calls, gradient = [], ngd_module._gradient

    def counting(*args):
        calls.append(args)
        return gradient(*args)

    monkeypatch.setattr(ngd_module, "_gradient", counting)
    return calls


def committed_config():
    """The config of the committed comparison sweep."""
    return load_config(Path(__file__).resolve().parents[1] / "configs"
                       / "comparison.cfg")


def committed_schedule():
    """The schedule of the committed comparison sweep (blocks m >= 2 dead)."""
    return committed_config().schedule


def chain_schedule(name):
    """A schedule and a teacher for 3-block chain tests: "small" keeps
    several blocks live, "committed" (the committed sweep's) only block 1,
    so the two run the two bodies of the chain's gradient closure, 1-D and
    (a, n)-block, each followed by the same update."""
    if name == "committed":
        cfg = committed_schedule()
        assert active_width(cfg, 3) == 1
        return cfg, bump_teacher(cfg, 6, radius=0.6)
    cfg = small_config(d=2, alpha2=4.0)
    assert active_width(cfg, 3) > 1
    return cfg, sample_teacher(cfg, width=3, radius=0.9, seed=1)


# (schedule, eta) of the chain-versus-step() tests; the small-schedule ids
# are the eta alone
CHAIN_CASES = [pytest.param("small", 0.5, id="0.5"),
               pytest.param("small", 0.3, id="0.3"),
               pytest.param("committed", 0.5, id="committed-0.5"),
               pytest.param("committed", 0.3, id="committed-0.3")]


class TestAutoHyperparameters:
    """Sample-size-driven defaults for temperature, ridge, width, budget."""

    def test_beta_is_min_of_the_two_rules(self):
        cfg = small_config()
        assert NgdConfig.auto(cfg, 100, noise_bound=1.0).beta == 50.0
        assert NgdConfig.auto(cfg, 100, noise_bound=0.5).beta == 100.0
        assert NgdConfig.auto(cfg, 100, noise_bound=0.0).beta == 100.0

    def test_lam_is_inverse_beta(self):
        cfg = small_config()
        auto = NgdConfig.auto(cfg, 64, noise_bound=0.25)
        assert auto.lam == 1.0 / auto.beta

    def test_width_rule(self):
        cfg = small_config(alpha1=1.0)  # exponent 1/4
        assert NgdConfig.auto(cfg, 16, noise_bound=0.1).width == 2
        assert NgdConfig.auto(cfg, 17, noise_bound=0.1).width == 3
        assert NgdConfig.auto(cfg, 2048, noise_bound=0.1).width == 7

    def test_budget_rule(self):
        cfg = small_config()
        auto = NgdConfig.auto(cfg, 128, noise_bound=0.5, eta=0.5, budget=50.0)
        assert auto.eta * auto.k_max >= 50.0 / auto.lam - 1e-9
        # and not wastefully larger than one extra step
        assert auto.eta * (auto.k_max - 1) < 50.0 / auto.lam

    def test_validation(self):
        with pytest.raises(ValueError):
            small_ngd(beta=0.05)  # beta must exceed eta
        with pytest.raises(ValueError):
            small_ngd(lam=0.0)
        with pytest.raises(ValueError):
            small_ngd(burn_in=100)  # not below k_max
        with pytest.raises(ValueError):
            small_ngd(burn_in=96, thinning=5)  # keeps no snapshot

    @pytest.mark.parametrize("field, value, message", [
        ("eta", math.nan, "eta must be finite"),
        ("eta", math.inf, "eta must be finite"),
        ("beta", math.nan, "beta must exceed eta"),
        ("lam", math.nan, "lam must be finite"),
        ("lam", math.inf, "lam must be finite")])
    def test_non_finite_values_fail(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            small_ngd(**{field: value})


class TestRidgeOperator:
    """The weighted ridge gradient and its semi-implicit inverse."""

    def test_zero_maps_to_zero(self):
        cfg = small_config()
        np.testing.assert_array_equal(ridge_grad(cfg, 1.0, np.zeros((3, 3))),
                                      0.0)

    def test_block_two_scales_by_four(self):
        cfg = small_config()
        W = np.zeros((2, 3))
        W[1] = [1.0, 2.0, 3.0]
        out = ridge_grad(cfg, 1.0, W)
        np.testing.assert_allclose(out[1], [4.0, 8.0, 12.0], rtol=1e-15)
        np.testing.assert_array_equal(out[0], 0.0)

    def test_linearity(self):
        cfg = small_config()
        rng = np.random.default_rng(0)
        W1 = rng.normal(size=(4, 3))
        W2 = rng.normal(size=(4, 3))
        lhs = ridge_grad(cfg, 0.7, 2.0 * W1 - 3.0 * W2)
        rhs = 2.0 * ridge_grad(cfg, 0.7, W1) - 3.0 * ridge_grad(cfg, 0.7, W2)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-14)

    def test_shrink_is_identity_at_zero_eta_or_ridge(self):
        cfg = small_config()
        np.testing.assert_array_equal(shrink_factors(cfg, 0.0, 1.0, 4), 1.0)
        np.testing.assert_array_equal(shrink_factors(cfg, 0.3, 0.0, 4), 1.0)

    def test_shrink_block_one_at_unit_eta_lam(self):
        cfg = small_config()
        assert shrink_factors(cfg, 1.0, 1.0, 1)[0] == 0.5

    def test_shrink_inverts_one_plus_eta_ridge(self):
        cfg = small_config()
        rng = np.random.default_rng(1)
        W = rng.normal(size=(5, 3))
        eta, lam = 0.2, 0.9
        shrunk = apply_shrink(cfg, eta, lam, W)
        recovered = shrunk + eta * ridge_grad(cfg, lam, shrunk)
        np.testing.assert_allclose(recovered, W, rtol=0, atol=1e-14)


class TestLossGradient:
    """Analytic empirical-risk gradient."""

    def test_zero_residuals_give_zero_gradient(self):
        cfg = small_config(d=2, alpha2=4.0)
        teacher = sample_teacher(cfg, width=3, radius=0.9, seed=5)
        data = generate_dataset(teacher, n=20, noise_bound=0.0,
                                noise_kind="none", seed=6)
        G = loss_grad(cfg, teacher.weights, data)
        np.testing.assert_allclose(G, 0.0, atol=1e-18)

    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(123)
        h = 1e-5
        for trial in range(10):
            d = int(rng.integers(1, 4))
            M = int(rng.integers(1, 9))
            n = int(rng.integers(2, 17))
            cfg = ScheduleConfig(d=d, gamma=1.0, alpha1=1.0,
                                 alpha2=float(rng.uniform(0.6, 1.5)), s=3.0)
            W = rng.normal(scale=0.8, size=(M, d + 2))
            X = rng.random((n, d))
            y = rng.normal(size=n)
            data = Dataset(X=X, y=y, noise_bound=10.0, noise_kind="uniform",
                           seed=None)
            G = loss_grad(cfg, W, data)

            def risk(Wf):
                resid = eval_network(cfg, Wf, X) - y
                return float(np.mean(resid * resid))

            for _ in range(6):  # spot-check random coordinates
                i = int(rng.integers(M))
                j = int(rng.integers(d + 2))
                Wp, Wm = W.copy(), W.copy()
                Wp[i, j] += h
                Wm[i, j] -= h
                fd = (risk(Wp) - risk(Wm)) / (2 * h)
                # mixed absolute/relative error: guards coordinates whose
                # finite-difference value is dominated by cancellation noise
                denom = max(1.0, abs(fd))
                assert abs(G[i, j] - fd) / denom <= 1e-5, (trial, i, j)

    def test_linear_in_residuals(self):
        cfg = small_config(d=1)
        rng = np.random.default_rng(9)
        W = rng.normal(size=(2, 3))
        X = rng.random((12, 1))
        pred = eval_network(cfg, W, X)
        y1 = pred - rng.normal(size=12)  # residual r
        r = pred - y1
        y2 = pred - 3.0 * r              # residual 3r
        d1 = Dataset(X=X, y=y1, noise_bound=100.0, noise_kind="uniform",
                     seed=None)
        d2 = Dataset(X=X, y=y2, noise_bound=100.0, noise_kind="uniform",
                     seed=None)
        np.testing.assert_allclose(loss_grad(cfg, W, d2),
                                   3.0 * loss_grad(cfg, W, d1),
                                   rtol=1e-12, atol=1e-15)

    def test_gradient_norm_bound(self):
        cfg = small_config(d=2, alpha1=1.0, alpha2=1.0)
        bound = loss_grad_bound(cfg, noise_bound=0.5)
        teacher = sample_teacher(cfg, width=4, radius=1.0, seed=0)
        data = generate_dataset(teacher, n=25, noise_bound=0.5, seed=1)
        rng = np.random.default_rng(2)
        for _ in range(25):
            W = rng.normal(scale=rng.uniform(0.1, 30.0), size=(6, 4))
            assert h_norm(loss_grad(cfg, W, data)) <= bound

    @pytest.mark.parametrize("schedule", ["committed", "small"])
    def test_matches_the_block_oracle_bitwise(self, schedule):
        # with one live block (committed) loss_grad runs the 1-D body, which
        # must round as the (a, n)-block form does; with several (small) it
        # runs the block body itself.  The committed cells' 2/n is a power
        # of two, so each point is also taken on an n = 12 training set,
        # where a regrouped product would round differently
        cfg, teacher = chain_schedule(schedule)
        if schedule == "committed":
            full = committed_config()
            cell = cell_inputs(full, resolve_teacher(full), 64, 0)
            ngd, data = cell.ngd, cell.data
        else:
            ngd = small_ngd(width=3, k_max=1000, seed=7)
            data = generate_dataset(teacher, n=40, noise_bound=0.2, seed=2)
        assert (active_width(cfg, ngd.width) == 1) == (schedule == "committed")
        shape = (ngd.width, cfg.d + 2)
        rng = np.random.default_rng(17)
        saturated = rng.standard_normal(shape)
        saturated[:, :-1] = 1e4 * np.sign(saturated[:, :-1])
        points = ([np.zeros(shape)]
                  + [10.0 ** rng.uniform(-3.0, 4.0) * rng.standard_normal(shape)
                     for _ in range(200)]
                  + [rng.standard_normal(shape)
                     * np.sqrt(prior_block_variance(cfg, ngd))[:, None],
                     saturated, run_chain(cfg, ngd, data).kept[-1]])
        twelve = generate_dataset(teacher, n=12, noise_bound=0.2, seed=2)
        for i, W in enumerate(points):
            for train in (data, twelve):
                np.testing.assert_array_equal(
                    loss_grad(cfg, W, train), loss_grad_blocks(cfg, W, train),
                    err_msg=f"point {i}, n = {train.n}")

    def test_builds_one_gradient_per_call(self, monkeypatch):
        cfg, teacher = chain_schedule("committed")
        data = generate_dataset(teacher, n=12, noise_bound=0.2, seed=2)
        calls = count_gradients(monkeypatch)
        for k in range(1, 4):
            loss_grad(cfg, np.ones((3, cfg.d + 2)), data)
            assert len(calls) == k

    def test_bound_requires_unit_widths(self):
        with pytest.raises(ValueError):
            loss_grad_bound(small_config(c_mu=1.0).__class__(
                d=1, R=1.0, gamma=1.0, alpha1=1.0, alpha2=1.0, s=3.0,
                c_mu=2.0), 0.1)


class TestStep:
    """Single semi-implicit update."""

    def test_pure_contraction_without_gradient_and_noise(self):
        cfg = small_config()
        ngd = small_ngd(eta=0.25, lam=0.8)
        W = np.random.default_rng(3).normal(size=(2, 3))
        out = step(cfg, ngd, W)
        fac = shrink_factors(cfg, 0.25, 0.8, 2)
        np.testing.assert_allclose(out, fac[:, None] * W, rtol=1e-15)

    def test_fixed_point_without_ridge(self):
        # the ridge weight enters only through the shrink; with lam -> 0 the
        # no-gradient no-noise step is the identity
        cfg = small_config()
        W = np.random.default_rng(4).normal(size=(3, 3))
        np.testing.assert_array_equal(apply_shrink(cfg, 0.5, 0.0, W), W)

    def test_semi_implicit_equals_explicit_rewrite(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            d = int(rng.integers(1, 4))
            M = int(rng.integers(1, 6))
            cfg = ScheduleConfig(d=d, gamma=1.0, alpha1=1.0,
                                 alpha2=float(rng.uniform(0.6, 2.0)), s=3.0)
            ngd = NgdConfig(eta=float(rng.uniform(0.01, 0.9)), beta=10.0,
                            lam=float(rng.uniform(0.05, 2.0)), k_max=10,
                            width=M)
            W = rng.normal(size=(M, d + 2))
            X = rng.random((8, d))
            y = rng.normal(size=8)
            data = Dataset(X=X, y=y, noise_bound=10.0, noise_kind="uniform",
                           seed=None)
            noise = 0.05 * rng.normal(size=(M, d + 2))
            a = step(cfg, ngd, W, data, noise)
            b = step_explicit(cfg, ngd, W, data, noise)
            assert np.max(np.abs(a - b)) <= 1e-13 * max(1.0, np.max(np.abs(a)))

    def test_one_step_matches_high_precision_recomputation(self):
        """Recompute a 2-block step with 50-digit arithmetic."""
        cfg = small_config(d=1, alpha2=1.0)
        ngd = NgdConfig(eta=0.3, beta=5.0, lam=0.7, k_max=10, width=2)
        W = np.array([[0.4, -0.2, 0.6], [-0.5, 0.3, -0.1]])
        X = np.array([[0.25], [0.75]])
        y = np.array([0.2, -0.1])
        noise = np.array([[0.01, -0.02, 0.03], [-0.04, 0.05, -0.06]])
        data = Dataset(X=X, y=y, noise_bound=10.0, noise_kind="uniform",
                       seed=None)
        got = step(cfg, ngd, W, data, noise)

        mpmath.mp.dps = 50
        mpf = mpmath.mpf

        def msig(u):
            return 1 / (1 + mpmath.e**(-u))

        mu = [mpf(1), mpf(1) / 4]
        amp = [m**mpf(1) for m in mu]
        bw = [m**mpf(1) for m in mu]
        s_pow = 3

        def f_of(x, Wm):
            tot = mpf(0)
            for m in range(2):
                z = Wm[m][0] * x + Wm[m][1]
                act = bw[m]**s_pow * msig(z / bw[m])
                tot += amp[m] * mpmath.tanh(Wm[m][2]) * act
            return tot

        Wm = [[mpf(v) for v in row] for row in W]
        xs = [mpf(1) / 4, mpf(3) / 4]
        ys = [mpf("0.2"), mpf("-0.1")]
        r = [f_of(xs[i], Wm) - ys[i] for i in range(2)]
        grad = [[mpf(0)] * 3 for _ in range(2)]
        for m in range(2):
            for i in range(2):
                z = Wm[m][0] * xs[i] + Wm[m][1]
                sg = msig(z / bw[m])
                actd = bw[m] ** (s_pow - 1) * sg * (1 - sg)
                act = bw[m]**s_pow * sg
                c = amp[m] * mpmath.tanh(Wm[m][2])
                grad[m][0] += r[i] * c * actd * xs[i]
                grad[m][1] += r[i] * c * actd
                grad[m][2] += r[i] * amp[m] * (1 - mpmath.tanh(Wm[m][2])**2) * act
        eta, lam = mpf("0.3"), mpf("0.7")
        out = np.zeros((2, 3))
        for m in range(2):
            for j in range(3):
                g = grad[m][j] * 2 / 2  # (2/n) with n = 2
                v = Wm[m][j] - eta * g + mpf(float(noise[m, j]))
                out[m, j] = float(v / (1 + eta * lam / mu[m]))
        np.testing.assert_allclose(got, out, rtol=1e-12, atol=1e-15)

    def test_builds_one_gradient_per_step_with_data(self, monkeypatch):
        cfg, teacher = chain_schedule("small")
        data = generate_dataset(teacher, n=12, noise_bound=0.2, seed=2)
        ngd = small_ngd(width=3)
        W = np.ones((3, cfg.d + 2))
        calls = count_gradients(monkeypatch)
        step(cfg, ngd, W)
        step(cfg, ngd, W, noise=np.ones_like(W))
        assert calls == []
        step(cfg, ngd, W, data)
        step(cfg, ngd, W, data, np.ones_like(W))
        assert len(calls) == 2

    def test_nonfinite_weights_raise(self):
        cfg = small_config()
        ngd = small_ngd()
        W = np.full((2, 3), np.inf)
        with pytest.raises(ChainDivergence):
            step(cfg, ngd, W)

    @pytest.mark.parametrize("with_noise", [True, False],
                             ids=["noise", "no-noise"])
    @pytest.mark.parametrize("with_data", [True, False],
                             ids=["data", "no-data"])
    @pytest.mark.parametrize("schedule", ["small", "committed"])
    def test_step_is_the_reference_update_bitwise(self, schedule, with_data,
                                                  with_noise):
        # three chained steps from weights holding -0.0 agree bit for bit,
        # signed zeros included, with the allocating expression; absent
        # noise fed as +0.0 would turn the -0.0 weights of a step without
        # data or noise into +0.0
        cfg, teacher = chain_schedule(schedule)
        data = (generate_dataset(teacher, n=12, noise_bound=0.2, seed=2)
                if with_data else None)
        ngd = small_ngd(eta=0.5, width=3)
        rng = np.random.default_rng(11)
        W = rng.normal(size=(3, cfg.d + 2))
        W.flat[::3] = -0.0
        got = want = W
        noise_sd = math.sqrt(2.0 * ngd.eta / ngd.beta)
        for k in range(3):
            noise = (noise_sd * rng.standard_normal(W.shape) if with_noise
                     else None)
            got = step(cfg, ngd, got, data, noise)
            want = step_reference(cfg, ngd, want, data, noise)
            np.testing.assert_array_equal(got.view(np.uint64),
                                          want.view(np.uint64),
                                          err_msg=f"step {k + 1}")
        if not (with_data or with_noise):
            assert np.all(np.signbit(got.flat[::3]))

    def test_step_and_chain_share_one_update(self, monkeypatch):
        # the update's in-place calls are written once, in _update's
        # advance; step() and run_chain each build it once per call, and
        # the blockwise shrink lives only in the test oracles
        source = Path(ngd_module.__file__).read_text()
        assert source.count("def advance") == 1
        assert "apply_shrink" not in ngd_module.__all__
        assert not hasattr(ngd_module, "apply_shrink")
        cfg, teacher = chain_schedule("small")
        data = generate_dataset(teacher, n=12, noise_bound=0.2, seed=2)
        ngd = small_ngd(width=3)
        calls, update = [], ngd_module._update

        def counting(*args):
            calls.append(args)
            return update(*args)

        monkeypatch.setattr(ngd_module, "_update", counting)
        step(cfg, ngd, np.ones((3, cfg.d + 2)), data)
        assert len(calls) == 1
        run_chain(cfg, ngd, data)
        assert len(calls) == 2


class TestChain:
    """Full sampler runs and their gradient-free closed forms."""

    def test_same_seed_identical_traces(self):
        cfg = small_config(d=2, alpha2=4.0)
        teacher = sample_teacher(cfg, width=3, radius=0.9, seed=1)
        data = generate_dataset(teacher, n=16, noise_bound=0.2, seed=2)
        ngd = small_ngd(width=3, k_max=200, seed=7)
        a = run_chain(cfg, ngd, data)
        b = run_chain(cfg, ngd, data)
        np.testing.assert_array_equal(a.risk_trace, b.risk_trace)
        np.testing.assert_array_equal(a.weights, b.weights)

    @staticmethod
    def assert_chain_is_repeated_step(schedule, eta, with_data=True,
                                      init="random"):
        # the chain's update is step() fed the chain's own noise stream, which
        # it draws _NOISE_STEPS steps at a time: k_max spans two whole noise
        # blocks and a partial one, and the kept steps straddle both seams
        cfg, teacher = chain_schedule(schedule)
        data = (generate_dataset(teacher, n=12, noise_bound=0.2, seed=2)
                if with_data else None)
        k_max = 2 * _NOISE_STEPS + 37
        ngd = small_ngd(eta=eta, width=3, k_max=k_max, burn_in=500,
                        thinning=7, seed=7)
        rng = np.random.default_rng(7)
        shape = (3, cfg.d + 2)
        if init == "prior":
            sd = np.sqrt(prior_block_variance(cfg, ngd))
            W = rng.standard_normal(shape) * sd[:, None]
        elif init == "zero":
            init, W = None, np.zeros(shape)
        else:
            init = W = np.random.default_rng(5).normal(size=shape)
        res = run_chain(cfg, ngd, data, init=init)
        noise_sd = math.sqrt(2.0 * eta / ngd.beta)
        path = []
        for _ in range(ngd.k_max):
            W = step(cfg, ngd, W, data, noise_sd * rng.standard_normal(W.shape))
            path.append(W)
        kept = np.array(path)[res.kept_steps - 1]
        assert len(kept) == 80
        np.testing.assert_array_equal(res.weights, W)
        np.testing.assert_array_equal(res.kept, kept)
        np.testing.assert_array_equal(res.hnorm_trace,
                                      [h_norm(Wk) for Wk in kept])

    @pytest.mark.parametrize("schedule, eta", CHAIN_CASES)
    def test_chain_is_repeated_step_bitwise(self, schedule, eta):
        self.assert_chain_is_repeated_step(schedule, eta)

    @pytest.mark.parametrize("schedule, eta", CHAIN_CASES)
    def test_chain_without_data_is_repeated_step_bitwise(self, schedule, eta):
        self.assert_chain_is_repeated_step(schedule, eta, with_data=False)

    @pytest.mark.parametrize("schedule, eta", CHAIN_CASES)
    def test_chain_from_prior_is_repeated_step_bitwise(self, schedule, eta):
        self.assert_chain_is_repeated_step(schedule, eta, init="prior")

    @pytest.mark.parametrize("schedule, eta", CHAIN_CASES)
    def test_chain_from_zero_is_repeated_step_bitwise(self, schedule, eta):
        self.assert_chain_is_repeated_step(schedule, eta, init="zero")

    @pytest.mark.parametrize("schedule", ["small", "committed"])
    def test_nonfinite_weights_in_burn_in_stop_the_chain(self, schedule):
        # the chain checks W at the end of every noise block, not only at
        # kept snapshots: a NaN from the start stops it at the first seam
        cfg, teacher = chain_schedule(schedule)
        data = generate_dataset(teacher, n=12, noise_bound=0.2, seed=2)
        k_max = 4 * _NOISE_STEPS
        ngd = small_ngd(width=3, k_max=k_max, burn_in=k_max - 1, seed=7)
        init = np.zeros((3, cfg.d + 2))
        init[0, 1] = np.nan
        with pytest.raises(ChainDivergence, match=f"at step {_NOISE_STEPS}$"):
            run_chain(cfg, ngd, data, init=init)

    def test_finite_runaway_in_burn_in_stops_the_chain(self):
        # the block-end guard checks h_norm too, so a finite runaway stops
        # at the first seam rather than at the first kept snapshot
        cfg = small_config()
        k_max = 4 * _NOISE_STEPS
        ngd = NgdConfig(eta=0.1, beta=8.0, lam=1e-9, k_max=k_max, width=2,
                        burn_in=k_max - 1, seed=0)
        with pytest.raises(ChainDivergence,
                           match=f"^h_norm .* at step {_NOISE_STEPS}$"):
            run_chain(cfg, ngd, init=np.full((2, 3), 1e7))

    @pytest.mark.parametrize("init, message", [
        pytest.param(math.nan, "non-finite weights", id="nan"),
        pytest.param(1e7, "h_norm 2.45e\\+07", id="runaway")])
    def test_divergence_names_the_first_failing_kept_snapshot(self, init,
                                                                message):
        # the block end sees the divergence too, but the message names the
        # first kept step at which it shows
        cfg = small_config()
        ngd = NgdConfig(eta=0.1, beta=8.0, lam=1e-9, k_max=2 * _NOISE_STEPS,
                        width=2, burn_in=0, thinning=1, seed=0)
        with pytest.raises(ChainDivergence, match=f"^{message} at step 1$"):
            run_chain(cfg, ngd, init=np.full((2, 3), init))

    def test_runaway_between_block_ends_is_caught_at_its_kept_step(self):
        # a shrink of 1/11 per step brings 1e9 weights below the bound long
        # before the first block end, whose check therefore passes; the
        # pass over the kept stack still names the kept step past the bound
        cfg = small_config()
        ngd = NgdConfig(eta=0.1, beta=8.0, lam=100.0, k_max=2 * _NOISE_STEPS,
                        width=2, burn_in=0, thinning=1, seed=0)
        init = np.full((2, 3), 1e9)
        with pytest.raises(ChainDivergence, match=r"^h_norm \S+ at step 1$"):
            run_chain(cfg, ngd, init=init)
        late = replace(ngd, burn_in=_NOISE_STEPS)
        assert run_chain(cfg, late, init=init).hnorm_trace.max() < 1.0

    @pytest.mark.parametrize("with_data", [True, False])
    def test_step_loop_does_no_per_snapshot_work(self, with_data,
                                                 monkeypatch):
        # keeping every step, the guard's calls still grow with the number
        # of noise blocks, not with the number of kept snapshots
        cfg, teacher = chain_schedule("small")
        data = (generate_dataset(teacher, n=12, noise_bound=0.2, seed=2)
                if with_data else None)
        calls = {"h_norm": 0, "_check_finite": 0}
        for name in calls:
            def counting(*args, _name=name, _f=getattr(ngd_module, name)):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(ngd_module, name, counting)
        for k_max in (600, 1200):
            calls.update(dict.fromkeys(calls, 0))
            res = run_chain(cfg, small_ngd(width=3, k_max=k_max, thinning=1),
                            data)
            assert len(res.kept) == k_max - k_max // 2
            blocks = -(-k_max // _NOISE_STEPS)
            assert max(calls.values()) <= blocks + 1, (k_max, calls)

    def test_chain_sets_its_error_state_once(self, monkeypatch):
        # per-step set-up such as an overflow guard entered on every step
        # would make the count grow with k_max; one kept snapshot each
        cfg = small_config(d=2, alpha2=4.0)
        teacher = sample_teacher(cfg, width=3, radius=0.9, seed=1)
        data = generate_dataset(teacher, n=12, noise_bound=0.2, seed=2)
        entries = []

        class CountingErrstate(np.errstate):
            def __enter__(self):
                entries.append(1)
                return super().__enter__()

        monkeypatch.setattr(np, "errstate", CountingErrstate)
        counts = []
        for k_max in (600, 1200):
            entries.clear()
            run_chain(cfg, small_ngd(width=3, k_max=k_max, burn_in=k_max - 1),
                      data)
            counts.append(len(entries))
        assert counts[0] >= 1
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("schedule", ["small", "committed"])
    def test_chain_builds_one_gradient(self, schedule, monkeypatch):
        # the gradient closure is bound once per chain, whatever k_max is,
        # and not at all without data
        cfg, teacher = chain_schedule(schedule)
        data = generate_dataset(teacher, n=12, noise_bound=0.2, seed=2)
        calls = count_gradients(monkeypatch)
        for k_max in (600, 1200):
            ngd = small_ngd(width=3, k_max=k_max, burn_in=k_max - 1)
            calls.clear()
            run_chain(cfg, ngd, data)
            assert len(calls) == 1
            calls.clear()
            run_chain(cfg, ngd)
            assert calls == []

    def test_saturated_chain_is_repeated_step_bitwise(self):
        # active first-layer weights of +-1e4 put preactivations past exp's
        # overflow point on one side; neither the chain nor step() may warn
        # or leave the floating-point error state changed
        for schedule in ("small", "committed"):
            cfg, teacher = chain_schedule(schedule)
            data = generate_dataset(teacher, n=12, noise_bound=0.2, seed=2)
            ngd = small_ngd(eta=0.5, width=3, k_max=300, burn_in=299, seed=7)
            a = active_width(cfg, 3)
            init = np.random.default_rng(5).normal(size=(3, cfg.d + 2))
            init[:a, :-1] = 1e4 * np.sign(init[:a, :-1])
            X1 = np.concatenate([data.X, np.ones((data.n, 1))], axis=1)
            b = cfg.width(np.arange(1, a + 1))
            u = X1 @ (init[:a, :-1] / b[:, None]).T
            assert np.any(-u > np.log(np.finfo(float).max))
            before = np.geterr()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                G = loss_grad(cfg, init, data)
                assert np.geterr() == before
                res = run_chain(cfg, ngd, data, init=init)
                assert np.geterr() == before
                rng = np.random.default_rng(7)
                noise_sd = math.sqrt(2.0 * ngd.eta / ngd.beta)
                W = init
                for _ in range(ngd.k_max):
                    W = step(cfg, ngd, W, data,
                             noise_sd * rng.standard_normal(W.shape))
            assert np.all(np.isfinite(G)), schedule
            np.testing.assert_array_equal(res.weights, W, err_msg=schedule)
            np.testing.assert_array_equal(res.kept[-1], W, err_msg=schedule)

    def test_gradient_free_stationary_variance(self):
        cfg = small_config()
        ngd = NgdConfig(eta=0.1, beta=8.0, lam=0.5, k_max=30000, width=3,
                        burn_in=5000, thinning=1, seed=42)
        res = run_chain(cfg, ngd)  # no data: pure ridge Gaussian sampling
        want = ou_block_variance(cfg, ngd)
        kept = res.kept  # (S, M, d+2)
        for m in range(3):
            got = kept[:, m, :].var()
            assert abs(got - want[m]) / want[m] <= 0.10, m

    def test_ou_variance_approaches_prior_as_eta_vanishes(self):
        cfg = small_config()
        for width in (1, 4):
            tiny = NgdConfig(eta=1e-3, beta=8.0, lam=0.5, k_max=10,
                             width=width)
            v = ou_block_variance(cfg, tiny)
            prior = prior_block_variance(cfg, tiny)
            np.testing.assert_allclose(v, prior, rtol=0.01)

    def test_mean_decay_error_halves_with_step_size(self):
        # zero-noise deterministic chain: after k steps block m holds
        # s_m^k * w0; compare with exp(-lam*T/mu_m) at fixed horizon T
        cfg = small_config()
        lam, T, m = 0.5, 2.0, 1
        errors = []
        for eta in (0.04, 0.02, 0.01):
            k = int(round(T / eta))
            s = float(shrink_factors(cfg, eta, lam, 1)[0])
            errors.append(abs(s**k - math.exp(-lam * T)))
        assert 1.5 <= errors[0] / errors[1] <= 2.5
        assert 1.5 <= errors[1] / errors[2] <= 2.5

    def test_prior_init_runs_and_kept_shapes(self):
        cfg = small_config(d=2)
        ngd = NgdConfig(eta=0.1, beta=8.0, lam=0.5, k_max=40, width=3,
                        burn_in=10, thinning=3, seed=0)
        res = run_chain(cfg, ngd, init="prior")
        assert res.kept.shape == (10, 3, 4)
        np.testing.assert_array_equal(res.kept_steps,
                                      np.arange(13, 41, 3))

    def test_bad_init_shape_rejected(self):
        cfg = small_config()
        with pytest.raises(ValueError):
            run_chain(cfg, small_ngd(), init=np.zeros((1, 1)))

    def test_divergence_guard_trips_on_runaway_weights(self):
        cfg = small_config()
        ngd = NgdConfig(eta=0.1, beta=8.0, lam=1e-9, k_max=5, width=2,
                        burn_in=0, thinning=1, seed=0)
        big = np.full((2, 3), 1e7)
        with pytest.raises(ChainDivergence):
            run_chain(cfg, ngd, init=big)

    def test_dead_rows_follow_the_data_free_chain_bitwise(self):
        # the kernel gives dead blocks an exactly zero gradient while the
        # noise is still drawn for every block, so with or without data
        # their rows are the same noise-and-shrink recursion
        cfg = committed_schedule()
        ngd = NgdConfig(eta=0.5, beta=32.0, lam=1.0 / 32.0, k_max=300,
                        width=3, burn_in=0, thinning=1, seed=11)
        a = active_width(cfg, ngd.width)
        assert a == 1
        teacher = bump_teacher(cfg, 6, radius=0.6)
        data = generate_dataset(teacher, n=32, noise_bound=0.02, seed=4)
        trained = run_chain(cfg, ngd, data)
        free = run_chain(cfg, ngd)
        np.testing.assert_array_equal(trained.kept[:, a:], free.kept[:, a:])
        assert not np.array_equal(trained.kept[:, :a], free.kept[:, :a])

    def test_averaged_predictor_is_snapshot_mean(self):
        cfg = small_config(d=1)
        ngd = NgdConfig(eta=0.1, beta=8.0, lam=0.5, k_max=30, width=2,
                        burn_in=0, thinning=1, seed=3)
        res = run_chain(cfg, ngd)
        x = np.linspace(0, 1, 7)[:, None]
        np.testing.assert_allclose(res.averaged_predictor()(x),
                                   snapshot_mean_oracle(cfg, res.kept, x),
                                   rtol=1e-12)

    def test_trace_csv(self, tmp_path):
        cfg = small_config(d=1)
        teacher = sample_teacher(cfg, width=2, radius=0.5, seed=0)
        data = generate_dataset(teacher, n=8, noise_bound=0.1, seed=0)
        res = run_chain(cfg, small_ngd(k_max=20, burn_in=0, thinning=5), data)
        path = tmp_path / "trace.csv"
        save_trace(path, res)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,empirical_risk,h_norm,h1_norm"
        assert len(lines) == 1 + len(res.kept_steps)

    def test_trace_csv_values(self, tmp_path):
        # thinning 5 does not divide k_max - burn_in = 19: steps 9, 14, 19
        # are kept and the last four steps are not
        cfg = small_config(d=2, alpha2=4.0)
        teacher = sample_teacher(cfg, width=3, radius=0.9, seed=1)
        data = generate_dataset(teacher, n=12, noise_bound=0.2, seed=2)
        ngd = small_ngd(width=3, k_max=23, burn_in=4, thinning=5, seed=7)
        res = run_chain(cfg, ngd, data)
        np.testing.assert_array_equal(res.kept_steps, [9, 14, 19])
        rng = np.random.default_rng(7)
        noise_sd = math.sqrt(2.0 * ngd.eta / ngd.beta)
        W, want = np.zeros((3, 4)), ["k,empirical_risk,h_norm,h1_norm"]
        for k in range(1, ngd.k_max + 1):
            W = step(cfg, ngd, W, data, noise_sd * rng.standard_normal(W.shape))
            if k in (9, 14, 19):
                vals = (empirical_risk(cfg, W, data), h_norm(W),
                        hgamma_norm(cfg, W, 1.0))
                want.append(",".join([str(k)] + [FLOAT_FMT % v for v in vals]))
        path = tmp_path / "trace.csv"
        save_trace(path, res)
        assert path.read_text().splitlines() == want

    def test_chain_never_evaluates_the_network(self, monkeypatch):
        # a kept step copies the weights; h_norm is taken on the kept stack
        # after the loop, and the risk and h1 traces are derived from it
        # when read
        cfg = small_config(d=2, alpha2=4.0)
        teacher = sample_teacher(cfg, width=3, radius=0.9, seed=1)
        data = generate_dataset(teacher, n=12, noise_bound=0.2, seed=2)
        ngd = small_ngd(width=3, k_max=60, burn_in=10, thinning=3, seed=7)

        def forbidden(*args, **kwargs):
            raise AssertionError("trace evaluated inside the chain")

        with monkeypatch.context() as patch:
            for name in ("eval_network", "empirical_risk", "hgamma_norm"):
                patch.setattr(ngd_module, name, forbidden)
            res = run_chain(cfg, ngd, data)
        assert res.kept.shape == (16, 3, 4)
        risks = [float(np.mean((eval_network(cfg, W, data.X) - data.y) ** 2))
                 for W in res.kept]
        h1 = [math.sqrt(sum(float(np.sum(W[m] ** 2)) * cfg.mu(m + 1) ** -1.0
                            for m in range(3))) for W in res.kept]
        np.testing.assert_array_equal(res.risk_trace, risks)
        np.testing.assert_array_equal(res.hnorm_trace,
                                      [h_norm(W) for W in res.kept])
        np.testing.assert_allclose(res.h1norm_trace, h1, rtol=1e-15)
        free = run_chain(cfg, ngd)
        np.testing.assert_array_equal(free.risk_trace, np.zeros(16))


class TestLogistic:
    """The in-place logistic of the chain kernel and the snapshot average."""

    def test_matches_expit(self):
        # the chain's logistic is the teacher's: model.sigmoid, bitwise
        u = np.concatenate([np.linspace(-800.0, 800.0, 160001),
                            [-1e300, 1e300, -np.inf, np.inf]])
        with warnings.catch_warnings(), np.errstate(over="ignore"):
            warnings.simplefilter("error")
            got = _neg_logistic(-u)
            want = sigmoid(u)
        np.testing.assert_array_equal(got, want)
        assert got[-4:].tolist() == [0.0, 1.0, 0.0, 1.0]

    def test_snapshot_average_with_saturated_columns_warns_nothing(self):
        cfg = small_config(d=1, alpha2=4.0)
        rng = np.random.default_rng(2)
        stack = rng.normal(size=(5, 2, 3))
        # preactivations of +-1e4 / width(1): exp overflows on one side
        stack[1, 0, :2] = 1e4
        stack[3, 0, :2] = -1e4
        x = np.linspace(0.0, 1.0, 9)[:, None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = MeanPredictor(cfg, stack)(x)
        np.testing.assert_allclose(got, snapshot_mean_oracle(cfg, stack, x),
                                   rtol=1e-12)


class TestMixing:
    """Between/within variance diagnostic."""

    def test_identical_traces_give_exactly_one(self):
        trace = np.random.default_rng(0).random(100)
        rep = mixing_diagnostic([trace, trace.copy()])
        assert rep.ratio == 1.0
        assert rep.mixed

    def test_independent_stationary_chains_mix(self):
        cfg = small_config()
        traces = []
        for seed in (1, 2, 3):
            ngd = NgdConfig(eta=0.1, beta=8.0, lam=0.5, k_max=8000, width=2,
                            burn_in=2000, thinning=1, seed=seed)
            res = run_chain(cfg, ngd, init="prior")
            traces.append(res.hnorm_trace)
        rep = mixing_diagnostic(traces, threshold=1.1)
        assert rep.mixed, rep

    def test_frozen_chain_flagged(self):
        live = np.random.default_rng(5).normal(size=400) + 1.0
        frozen = np.zeros(400)
        rep = mixing_diagnostic([live, frozen])
        assert not rep.mixed

    def test_input_validation(self):
        with pytest.raises(ValueError):
            mixing_diagnostic([np.arange(4.0)])
        with pytest.raises(ValueError):
            mixing_diagnostic([np.arange(4.0), np.arange(5.0)])
