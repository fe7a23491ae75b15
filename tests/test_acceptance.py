"""Release acceptance gate: ten binding criteria, one test per criterion.

Each criterion is verified at the stated tolerance and prints a single
`[criterion N] PASS` line through the terminal reporter on success; a failing
criterion fails its own test, so the pytest summary carries the FAIL line.
Randomized checks run on fixed seeds.  Criterion 8 verifies the committed
comparison sweep under results/comparison; its cells resume instantly when
present and are recomputed from configs/comparison.cfg when deleted.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from ngdbench.config import load_config, parse_config
from ngdbench.data import Dataset
from ngdbench.linear import make_kernel
from ngdbench.lowerbound import BumpApproxConfig, build_bump_approx
from ngdbench.model import ScheduleConfig, eval_network, sample_teacher
from ngdbench.ngd import (
    NgdConfig,
    loss_grad,
    ou_block_variance,
    prior_block_variance,
    run_chain,
    step,
)
from ngdbench.risk import (
    dominance_condition,
    excess_risk_mc,
    linear_lower_exponents,
    nn_upper_exponent,
    rate_fit,
)
from ngdbench.sweep import RiskRecord, report, run_sweep
from oracles import krr_fit

REPO = Path(__file__).resolve().parents[1]

SMALL_SWEEP_TEXT = """\
schedule.d = 1
schedule.gamma = 1
schedule.alpha1 = 1
schedule.alpha2 = 1
schedule.s = 3
teacher.kind = bump
noise.bound = 0.1
ngd.eta = 0.25
ngd.budget = 2
baselines = knn, nw
sweep.n_values = 8, 16, 32
sweep.replicates = 2
risk.n_test = 400
"""


@pytest.fixture(scope="session")
def criterion(request):
    """Emit one visible `[criterion N] PASS` line per satisfied criterion."""
    tr = request.config.pluginmanager.get_plugin("terminalreporter")

    def emit(num, text):
        line = f"[criterion {num:2d}] PASS: {text}"
        if tr is not None:
            tr.write_line(line)
        else:
            print(line)

    return emit


class TestAcceptance:
    """The ten release criteria, in order."""

    def test_criterion_01_gradient_matches_finite_differences(self, criterion):
        """Analytic loss gradient vs central differences (step 1e-5) on 10
        random configurations with d <= 3, M <= 8, n <= 16: every coordinate
        within 1e-5 in the mixed metric |G - fd| / max(1, |fd|)."""
        t0 = time.time()
        rng = np.random.default_rng(2024)
        h = 1e-5
        worst = 0.0
        for _ in range(10):
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

            def loss(Wf):
                resid = eval_network(cfg, Wf, X) - y
                return float(np.mean(resid * resid))

            for i in range(M):
                for j in range(d + 2):
                    Wp, Wm = W.copy(), W.copy()
                    Wp[i, j] += h
                    Wm[i, j] -= h
                    fd = (loss(Wp) - loss(Wm)) / (2.0 * h)
                    err = abs(G[i, j] - fd) / max(1.0, abs(fd))
                    worst = max(worst, err)
        elapsed = time.time() - t0
        assert worst <= 1e-5
        assert elapsed < 1.0
        criterion(1, f"gradient vs central differences, max mixed error "
                     f"{worst:.2e} <= 1e-5 over 10 configurations "
                     f"({elapsed:.2f}s)")

    def test_criterion_02_ou_stationary_variance(self, criterion):
        """Gradient-free chain: per-block variance of 1e5 kept iterates
        matches (2 eta / beta) s^2 / (1 - s^2) within 5% for blocks 1-3, and
        the eta -> 0 closed form lands within 1% of the prior variance."""
        t0 = time.time()
        cfg = ScheduleConfig(d=2, gamma=1.0, alpha1=1.0, alpha2=1.0, s=3.0)
        ngd = NgdConfig(eta=0.05, beta=10.0, lam=1.0, k_max=120000, width=3,
                        burn_in=20000, thinning=1, seed=42)
        res = run_chain(cfg, ngd)
        assert res.kept.shape[0] == 100000
        v = ou_block_variance(cfg, ngd)
        devs = []
        for m in range(3):
            emp = float(res.kept[:, m, :].var())
            devs.append(abs(emp - v[m]) / v[m])
            assert devs[-1] <= 0.05, (m + 1, emp, v[m])
        small = NgdConfig(eta=1e-3, beta=10.0, lam=1.0, k_max=10, width=3,
                          burn_in=0, thinning=1, seed=0)
        gap = np.abs(ou_block_variance(cfg, small)
                     - prior_block_variance(cfg, small))
        assert np.all(gap <= 0.01 * prior_block_variance(cfg, small))
        elapsed = time.time() - t0
        assert elapsed < 30.0
        criterion(2, f"stationary variance within 5% (worst block "
                     f"{max(devs):.1%}); eta=1e-3 form within 1% of the "
                     f"prior ({elapsed:.1f}s)")

    def test_criterion_03_discretization_first_order(self, criterion):
        """Gradient-free mean decay at fixed horizon T = 2: the gap to the
        exact exponential halves (ratio in [1.5, 2.5]) when eta is halved
        across eta in {0.04, 0.02, 0.01}.  The zero-noise trajectory below
        is exactly the chain mean, because the gradient-free update is
        linear in the state and the injected noise is mean-zero."""
        t0 = time.time()
        cfg = ScheduleConfig(d=1, gamma=1.0, alpha1=1.0, alpha2=1.0, s=3.0)
        lam, horizon = 0.5, 2.0
        errors = []
        for eta in (0.04, 0.02, 0.01):
            ngd = NgdConfig(eta=eta, beta=8.0, lam=lam, k_max=1000, width=3,
                            burn_in=0, thinning=1, seed=0)
            W = np.ones((3, 3))
            zero = np.zeros_like(W)
            for _ in range(int(round(horizon / eta))):
                W = step(cfg, ngd, W, data=None, noise=zero)
            m = np.arange(1, 4)
            exact = np.exp(-lam * horizon / cfg.mu(m))
            errors.append(float(np.abs(W[:, 0] - exact).max()))
        r1 = errors[0] / errors[1]
        r2 = errors[1] / errors[2]
        assert 1.5 <= r1 <= 2.5
        assert 1.5 <= r2 <= 2.5
        elapsed = time.time() - t0
        assert elapsed < 30.0
        criterion(3, f"mean-decay error ratios {r1:.3f}, {r2:.3f} in "
                     f"[1.5, 2.5] across eta = 0.04 / 0.02 / 0.01 "
                     f"({elapsed:.2f}s)")

    def test_criterion_04_krr_matches_dense_solve(self, criterion):
        """50 random instances with n <= 5: the kernel ridge path agrees
        with an independent naive dense solve to 1e-10 absolute.  Ridges are
        drawn from 10^[-4, -1], where both solvers carry enough digits for
        the comparison to be well-posed (any formula error still shows up
        as an O(1) mismatch)."""
        t0 = time.time()
        rng = np.random.default_rng(7)
        cfg = ScheduleConfig(d=2, gamma=1.0, alpha1=1.0, alpha2=1.0, s=3.0)
        worst = 0.0
        for trial in range(50):
            n = int(rng.integers(2, 6))
            X = rng.random((n, 2))
            y = rng.normal(size=n)
            ridge = float(10.0 ** rng.uniform(-4, -1))
            kind = ("krr-rbf", "krr-ntk", "krr-rf")[trial % 3]
            data = Dataset(X=X, y=y, noise_bound=10.0, noise_kind="uniform",
                           seed=None)
            if kind == "krr-rbf":
                bw = float(rng.uniform(0.3, 2.0))
                est = krr_fit(kind, data, ridge, bandwidth=bw)
                kern = make_kernel(kind, bandwidth=bw)
            else:
                est = krr_fit(kind, data, ridge, config=cfg, width=4,
                              seed=trial)
                kern = make_kernel(kind, config=cfg, width=4, seed=trial)
            xq = rng.random((7, 2))
            coef = np.linalg.solve(kern.gram(X, X) + ridge * np.eye(n), y)
            want = kern.gram(xq, X) @ coef
            worst = max(worst, float(np.abs(est(xq) - want).max()))
        elapsed = time.time() - t0
        assert worst <= 1e-10
        assert elapsed < 1.0
        criterion(4, f"kernel ridge vs dense solve, max deviation "
                     f"{worst:.1e} <= 1e-10 over 50 instances ({elapsed:.2f}s)")

    def test_criterion_05_excess_risk_monte_carlo(self, criterion):
        """A predictor differing from the teacher by exactly x_1 has excess
        risk 1/3; the estimate must land within 3 reported stderr at
        n_test = 1e5."""
        t0 = time.time()
        cfg = ScheduleConfig(d=3, gamma=1.0, alpha1=1.0, alpha2=1.0, s=3.0)
        teacher = sample_teacher(cfg, width=2, radius=0.8, seed=3)
        risk = excess_risk_mc(teacher, lambda x: teacher(x) + x[:, 0],
                              n_test=100_000, seed=11)
        elapsed = time.time() - t0
        assert abs(risk.value - 1.0 / 3.0) <= 3.0 * risk.stderr
        assert elapsed < 1.0
        criterion(5, f"risk {risk.value:.6f} within 3 stderr "
                     f"({risk.stderr:.1e}) of 1/3 ({elapsed:.2f}s)")

    def test_criterion_06_rate_fit_exact(self, criterion):
        """An exact power law is recovered to 1e-12, and scaling every risk
        by a constant leaves the fitted slope bitwise unchanged."""
        n_values = (32, 64, 128, 256, 512)
        records = [RiskRecord(estimator="ngd", n=n, seed=rep,
                              excess_risk=3.2 * float(n) ** -0.75,
                              stderr=0.0)
                   for n in n_values for rep in range(3)]
        fit = rate_fit(records)
        assert abs(fit.exponent - 0.75) <= 1e-12
        scaled = [RiskRecord(estimator=r.estimator, n=r.n, seed=r.seed,
                             excess_risk=4.0 * r.excess_risk, stderr=0.0)
                  for r in records]
        fit2 = rate_fit(scaled)
        assert fit2.slope == fit.slope
        assert fit2.slope_stderr == fit.slope_stderr
        criterion(6, f"exponent error {abs(fit.exponent - 0.75):.1e} <= "
                     f"1e-12; slope bitwise invariant under risk scaling")

    def test_criterion_07_exponent_calculators(self, criterion):
        """Closed-form exponents at the reference parameters: sampler upper
        exponent 0.75, dominance threshold satisfied at d = 10, and the
        linear lower bound reporting both its formula and quoted variants
        with the discrepancy flagged."""
        up = nn_upper_exponent(alpha1=3.0, alpha2=12.0, gamma=3.0, q=0.0,
                               s=3.0)
        assert up == 0.75
        assert dominance_condition(alpha1=3.0, d=10) is True
        low = linear_lower_exponents(3.0, 12.0, 3.0, 3.0, d=10)
        assert abs(low.beta_tilde - 34.0 / 7.0) <= 1e-12
        assert abs(low.exponent - 69.0 / 104.0) <= 1e-12
        assert abs(low.beta_tilde_quoted - 17.0 / 3.0) <= 1e-12
        assert abs(low.exponent_quoted - 32.0 / 47.0) <= 1e-12
        assert low.discrepant is True
        criterion(7, "upper exponent 0.75, dominance at d=10, lower-bound "
                     "variants 69/104 and 32/47 reported with discrepancy "
                     "flag")

    def test_criterion_08_comparison_sweep(self, criterion):
        """The committed comparison sweep (steep schedule, six sample sizes,
        ten replicates, auto hyperparameters): sampler and best-tuned kernel
        ridge medians strictly decrease in n, and the fitted sampler slope
        beats the best baseline slope by at least 0.02."""
        t0 = time.time()
        cfg = load_config(REPO / "configs" / "comparison.cfg")
        s = cfg.schedule
        assert 8 <= s.d <= 10 and s.s == 3.0
        assert s.alpha1 == 3.0 and s.gamma == 3.0 and s.alpha2 == 12.0
        assert tuple(cfg.sweep_n_values) == (64, 128, 256, 512, 1024, 2048)
        assert cfg.sweep_replicates == 10
        assert cfg.ngd_budget >= 50.0  # eta * k_max >= budget / lam
        assert "krr-rbf" in cfg.baselines

        records = run_sweep(cfg, out_dir=REPO / "results" / "comparison")
        by = {}
        for rec in records:
            by.setdefault((rec.estimator, rec.n), []).append(rec.excess_risk)
        for est in ("ngd", "krr-rbf"):
            meds = [float(np.median(by[(est, n)]))
                    for n in cfg.sweep_n_values]
            assert all(a > b for a, b in zip(meds, meds[1:])), (est, meds)

        rep = report(records, cfg)
        fits = dict(rep.fits)
        ngd_slope = fits["ngd"].slope
        best_baseline = min(fit.slope for name, fit in fits.items()
                            if name != "ngd")
        assert ngd_slope <= best_baseline - 0.02
        elapsed = time.time() - t0
        criterion(8, f"medians strictly decreasing; sampler slope "
                     f"{ngd_slope:.3f} <= best baseline "
                     f"{best_baseline:.3f} - 0.02 ({elapsed:.1f}s)")

    def test_criterion_09_bump_ridge_convergence(self, criterion):
        """One-dimensional bump, h = 0.25, converged quadrature: the sup
        error relative to the scaled bump amplitude is non-increasing over
        direction radius 2 -> 4 -> 6 and <= 1e-2 at radius 6, and every
        sigmoid atom satisfies the preactivation-scale and coefficient-
        budget constraints."""
        t0 = time.time()
        rels = []
        for dw in (2.0, 4.0, 6.0):
            cfg = BumpApproxConfig(d=1, h=0.25, center=(0.5,),
                                   direction_radius=dw, quad_a=192,
                                   quad_b=384, grid=512)
            approx = build_bump_approx(cfg)
            approx.check_atoms()
            assert float(np.abs(approx.coefs).max()) <= approx.coef_budget
            rels.append(approx.reported_sup_error / approx.scale)
        assert rels[0] >= rels[1] >= rels[2]
        assert rels[2] <= 1e-2
        elapsed = time.time() - t0
        assert elapsed < 60.0
        criterion(9, f"relative sup errors {rels[0]:.2e} >= {rels[1]:.2e} "
                     f">= {rels[2]:.2e} <= 1e-2; atom constraints hold "
                     f"({elapsed:.1f}s)")

    def test_criterion_10_worker_count_determinism(self, criterion,
                                                   tmp_path):
        """The same sweep run serially and with a worker pool produces
        byte-identical sorted result files."""
        t0 = time.time()
        cfg = parse_config(SMALL_SWEEP_TEXT)
        serial = tmp_path / "serial"
        pooled = tmp_path / "pooled"
        run_sweep(cfg, out_dir=serial, workers=1)
        run_sweep(cfg, out_dir=pooled, workers=3)
        names = sorted(p.name for p in (serial / "cells").iterdir())
        assert names == sorted(p.name for p in (pooled / "cells").iterdir())
        for name in names:
            assert ((serial / "cells" / name).read_bytes()
                    == (pooled / "cells" / name).read_bytes()), name
        assert ((serial / "results.csv").read_bytes()
                == (pooled / "results.csv").read_bytes())
        elapsed = time.time() - t0
        criterion(10, f"serial and 3-worker sweeps byte-identical over "
                      f"{len(names)} cells ({elapsed:.1f}s)")
