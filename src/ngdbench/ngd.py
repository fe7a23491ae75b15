"""Preconditioned noisy gradient descent over scheduled two-layer networks.

One update reads

    W_{k+1} = S_eta( W_k - eta * grad Lhat(W_k) + sqrt(2 eta / beta) * xi_k )

with xi_k iid standard normal on the first `width` blocks, Lhat the empirical
squared-error risk, and S_eta the per-block shrink (I + eta*A)^{-1} of the
weighted ridge operator A W = lam * mu(m)^{-1} w_m.  The shrink step treats
the stiff ridge flow exactly (semi-implicit Euler), so deep blocks with tiny
mu(m) stay stable at any step size.

With no data the chain samples its stationary Gaussian law exactly in the
wide-time limit; closed forms for that law are exposed for diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import empirical_risk
from .model import (_neg_logistic, eval_network, h_norm, hgamma_norm,
                    live_blocks, with_ones)
from .textio import FLOAT_FMT

__all__ = [
    "NgdConfig",
    "ChainResult",
    "ChainDivergence",
    "MeanPredictor",
    "shrink_factors",
    "loss_grad",
    "step",
    "run_chain",
    "ou_block_variance",
    "prior_block_variance",
    "mixing_diagnostic",
    "save_trace",
]

# h_norm bound of run_chain's divergence guard (W at block ends, kept stack)
DIVERGENCE_NORM = 1e6


class ChainDivergence(RuntimeError):
    """Raised when a chain produces non-finite or runaway weights."""


@dataclass(frozen=True)
class NgdConfig:
    """Chain hyperparameters.

    beta is the inverse temperature (must exceed eta), lam the ridge weight,
    width the number of optimized blocks M.  burn_in defaults to k_max // 2
    and thinning to max(1, k_max // 2000), so about one thousand snapshots
    are kept regardless of chain length: (k_max - burn_in) // thinning lies
    in [1000, 2000] for k_max >= 2000 and in [1000, 1500] from k_max = 4000.
    """

    eta: float
    beta: float
    lam: float
    k_max: int
    width: int
    burn_in: int | None = None
    thinning: int | None = None
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.eta < math.inf:
            raise ValueError("eta must be finite and > 0")
        if not self.beta > self.eta:
            raise ValueError("beta must exceed eta")
        if not 0 < self.lam < math.inf:
            raise ValueError("lam must be finite and > 0")
        if self.k_max < 1 or self.width < 1:
            raise ValueError("k_max and width must be >= 1")
        if self.burn_in is None:
            object.__setattr__(self, "burn_in", self.k_max // 2)
        if self.thinning is None:
            object.__setattr__(self, "thinning", max(1, self.k_max // 2000))
        if not 0 <= self.burn_in < self.k_max:
            raise ValueError("burn_in must lie in [0, k_max)")
        if not 1 <= self.thinning <= self.k_max - self.burn_in:
            raise ValueError("thinning must lie in [1, k_max - burn_in]")

    @classmethod
    def auto(cls, config, n, noise_bound, eta=0.5, budget=50.0, seed=0):
        """Hyperparameters from the excess-risk theory, given sample size n.

        beta = min(n / (2 U^2), n), lam = 1/beta, width = ceil of
        n^(1 / (2 (alpha1 + 1))), and k_max chosen so eta * k_max >= budget
        / lam (a fixed multiple of the slowest ridge relaxation time).
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        U = float(noise_bound)
        beta = float(n) if U == 0.0 else min(n / (2.0 * U * U), float(n))
        lam = 1.0 / beta
        expo = 1.0 / (2.0 * (config.alpha1 + 1.0))
        width = max(1, math.ceil(n**expo - 1e-9))
        k_max = max(1, math.ceil(budget / (lam * eta) - 1e-9))
        return cls(eta=eta, beta=beta, lam=lam, k_max=k_max, width=width,
                   seed=seed)


def shrink_factors(config, eta, lam, width):
    """Per-block factors of (I + eta*A)^{-1}: 1 / (1 + eta*lam/mu(m))."""
    m = np.arange(1, width + 1)
    return 1.0 / (1.0 + eta * lam / config.mu(m))


def _gradient(config, W, X, y):
    """The empirical-risk gradient at the current contents of W as a
    zero-argument closure, the one gradient of loss_grad and _update.

    W is the weight buffer the caller updates in place; per-block constants
    are folded and every temporary preallocated once.  Only the
    a = model.active_width live blocks (model.live_blocks) are computed;
    rows of the gradient past them stay exactly 0.  Each call returns the
    closure's own gradient buffer, which the next call overwrites.  The
    caller holds np.errstate(over="ignore") around every call.

    One body per live-width regime: with one live block, as on the committed
    schedule at every n, 14 numpy calls on 1-D rows, none on a broadcast
    view; otherwise the same operations on (a, n) blocks.
    """
    amp, b = live_blocks(config, W.shape[0])
    with np.errstate(under="ignore"):
        bs = b**config.s
        bs1 = b ** (config.s - 1.0)
    X1, _ = with_ones(X, config.d)
    X1T = np.ascontiguousarray(X1.T)
    R = config.R
    two_n = 2.0 / y.shape[0]
    a, (n, dp1) = amp.size, X1.shape
    neg_inv_b = (-1.0 / b)[:, None]
    out_scale = amp * R * bs
    w1_scale = two_n * amp * R * bs1
    w2_scale = two_n * amp * bs
    sig, dsig, r = np.empty((a, n)), np.empty((a, n)), np.empty(n)
    V, VT = np.empty((a, dp1)), np.empty((dp1, a))
    G = np.zeros((W.shape[0], dp1 + 1))
    dot, multiply, subtract, tanh = np.dot, np.multiply, np.subtract, np.tanh

    if a == 1:
        # the (1, k) operands of the block body become 1-D rows and its
        # (1,) constants Python floats, which round as numpy does; the
        # (1,) @ (1, n) residual product, a single term, is one multiply
        w, g, sig, dsig, v, vt = W[0], G[0], sig[0], dsig[0], V[0], VT[:, 0]
        w1, g1 = w[:-1], g[:-1]
        neg_inv_b, out_scale, w1_scale, w2_scale = map(float, (
            neg_inv_b[0, 0], out_scale[0], w1_scale[0], w2_scale[0]))

        def grad():
            multiply(w1, neg_inv_b, v)
            _neg_logistic(dot(v, X1T, sig))
            t = float(tanh(w[-1] / R))
            multiply(sig, out_scale * t, r)
            subtract(r, y, r)
            g[-1] = float(dot(sig, r)) * (w2_scale * (1.0 - t * t))
            subtract(1.0, sig, dsig)
            multiply(dsig, sig, dsig)
            multiply(dsig, r, dsig)
            dot(X1T, dsig, vt)
            multiply(vt, w1_scale * t, g1)
            return G

        return grad

    W1, w2, G1, g2 = W[:a, :-1], W[:a, -1], G[:a, :-1], G[:a, -1]
    dsigT, VTT = dsig.T, VT.T

    def grad():
        multiply(W1, neg_inv_b, V)
        _neg_logistic(dot(V, X1T, sig))
        t2 = tanh(w2 / R)
        dot(out_scale * t2, sig, r)
        subtract(r, y, r)
        multiply(sig @ r, w2_scale * (1.0 - t2 * t2), g2)
        subtract(1.0, sig, dsig)
        multiply(dsig, sig, dsig)
        multiply(dsig, r, dsig)
        dot(X1T, dsigT, VT)
        multiply(VTT, (w1_scale * t2)[:, None], G1)
        return G

    return grad


def loss_grad(config, W, data):
    """Analytic gradient of the empirical squared-error risk at W.

    Block m of the first-layer gradient is
        (2/n) sum_i r_i * amp(m) * soft_clip(w2_m, R) * act_m'(z_im) * [x_i; 1]
    and the second-layer gradient is
        (2/n) sum_i r_i * amp(m) * soft_clip'(w2_m, R) * act_m(z_im),
    with residuals r_i = f_W(x_i) - y_i.

    Blocks past a = model.active_width(config, M) get an exactly zero
    gradient and are left out of the residuals.  For inputs in [0, 1]^d
    each dropped entry is at most 2 R max_i |r_i| amp(m) width(m)^(s-1),
    below eps relative to block 1's scale.

    The logistic is model._neg_logistic, the kernel of model.sigmoid, so the
    two agree bitwise.  This is one call of the chain's _gradient closure.
    """
    W = np.asarray(W, dtype=float)
    grad = _gradient(config, W, data.X, data.y)
    with np.errstate(over="ignore"):
        return grad()


def _check_finite(W, where, norm=0.0):
    """Raise ChainDivergence unless W is finite and norm <= DIVERGENCE_NORM."""
    if not np.all(np.isfinite(W)):
        raise ChainDivergence(f"non-finite weights {where}")
    if norm > DIVERGENCE_NORM:
        raise ChainDivergence(f"h_norm {norm:.3g} {where}")


def _update(config, ngd, W, data):
    """advance(xi): the one update of step and run_chain, on the buffer W.

    G = grad(), then W <- s_fac * (W - eta * G + xi) in four in-place calls,
    grad being the _gradient closure or without data a zero buffer (w - 0.0
    is w); xi is the scaled noise.  Callers hold np.errstate(over="ignore").
    """
    fac = shrink_factors(config, ngd.eta, ngd.lam, len(W))[:, None]
    s_fac, zero = np.repeat(fac, W.shape[1], axis=1), np.zeros(W.shape)
    grad = ((lambda: zero) if data is None
            else _gradient(config, W, data.X, data.y))
    eta, add, multiply, subtract = ngd.eta, np.add, np.multiply, np.subtract

    def advance(xi):
        G = grad()
        multiply(G, eta, G)
        subtract(W, G, W)
        add(W, xi, W)
        multiply(W, s_fac, W)
    return advance


def step(config, ngd, W, data=None, noise=None):
    """One semi-implicit update: one advance of _update on a copy of W.

    noise is the already-scaled injected term; None feeds -0.0, which keeps
    every weight bitwise (+0.0 would turn a -0.0 weight into +0.0).  With no
    data the gradient is zero (pure sampling of the ridge Gaussian).  Raises
    ChainDivergence on non-finite output.
    """
    W = np.array(W, dtype=float)
    with np.errstate(over="ignore"):
        _update(config, ngd, W, data)(-0.0 if noise is None else noise)
    _check_finite(W, "after step")
    return W


# chain steps per block of drawn noise: 144 KiB at M = 3, d = 10
_NOISE_STEPS = 512


@dataclass
class MeanPredictor:
    """Average of the networks at the kept snapshots: eval_network on the
    stack.  Returns a float for a single point, an (n,) array for a batch."""

    config: object
    stack: np.ndarray  # (S, M, d+2)

    def __call__(self, x):
        return eval_network(self.config, self.stack, x)


@dataclass
class ChainResult:
    """Final weights, kept snapshots and norm traces of one chain.

    hnorm_trace is h_norm of each kept snapshot (run_chain's guard pass);
    kept_steps, the hgamma_norm (g = 1) trace and the empirical-risk trace
    (on `data`, 0 without data) are derived from `kept` on first access.
    """

    config: object
    ngd: NgdConfig
    data: object            # the training Dataset, or None
    weights: np.ndarray
    kept: np.ndarray        # (S, M, d+2)
    hnorm_trace: np.ndarray  # (S,)

    @property
    def kept_steps(self):
        """Chain step of each snapshot: burn_in + thinning * (1..S)."""
        ngd = self.ngd
        return ngd.burn_in + ngd.thinning * np.arange(1, len(self.kept) + 1)

    @cached_property
    def h1norm_trace(self):
        return np.array([hgamma_norm(self.config, W, 1.0) for W in self.kept])

    @cached_property
    def risk_trace(self):
        if self.data is None:
            return np.zeros(len(self.kept))
        return np.array([empirical_risk(self.config, W, self.data)
                         for W in self.kept])

    def averaged_predictor(self):
        return MeanPredictor(self.config, self.kept)


def run_chain(config, ngd, data=None, init=None):
    """Run the chain for k_max steps; returns snapshots past burn-in.

    init: None starts from zero weights, "prior" draws from the gradient-free
    stationary Gaussian (per-coordinate variance mu(m) / (beta * lam)), or
    pass an explicit (width, d+2) array.

    Each step is one advance of the _update built once per chain, so the
    gradient closure is bound once.  Noise is drawn _NOISE_STEPS steps at a
    time; Generator fills sequentially, so the chain is bitwise k_max step()
    calls each fed noise_sd * rng.standard_normal((M, d+2)).

    A kept step only copies W.  The divergence guard (non-finite weights, or
    h_norm above DIVERGENCE_NORM) runs on W at each noise block's end, so a
    chain that breaks, in burn-in too, stops within _NOISE_STEPS steps, and
    on the kept stack after the loop, in one vectorized pass that fills
    hnorm_trace (rows a divergence leaves unfilled stay 0).  ChainDivergence
    names the first failing kept snapshot, else the block end: "non-finite
    weights at step k", else "h_norm x at step k".
    """
    M, dp2 = ngd.width, config.d + 2
    rng = np.random.default_rng(ngd.seed)
    if init is None:
        W = np.zeros((M, dp2))
    elif isinstance(init, str) and init == "prior":
        sd = np.sqrt(prior_block_variance(config, ngd))
        W = rng.standard_normal((M, dp2)) * sd[:, None]
    else:
        W = np.array(init, dtype=float)
        if W.shape != (M, dp2):
            raise ValueError(f"init must have shape {(M, dp2)}")

    advance = _update(config, ngd, W, data)
    noise_sd = math.sqrt(2.0 * ngd.eta / ngd.beta)
    noise = np.empty((min(_NOISE_STEPS, ngd.k_max), M, dp2))
    burn_in, thinning = ngd.burn_in, ngd.thinning
    kept = np.zeros(((ngd.k_max - burn_in) // thinning, M, dp2))

    k = 0
    with np.errstate(over="ignore"):
        for start in range(0, ngd.k_max, _NOISE_STEPS):
            block = noise[:ngd.k_max - start]
            rng.standard_normal(out=block)
            block *= noise_sd
            for xi in block:
                k += 1
                advance(xi)
                if k > burn_in and (k - burn_in) % thinning == 0:
                    kept[(k - burn_in) // thinning - 1] = W
            if not h_norm(W) <= DIVERGENCE_NORM:
                break
        hn = np.sqrt(np.sum(np.square(kept), axis=(1, 2)))
        for j in np.flatnonzero(~(hn <= DIVERGENCE_NORM))[:1]:
            at = burn_in + thinning * (j + 1)
            _check_finite(kept[j], f"at step {at}", hn[j])
        _check_finite(W, f"at step {k}", h_norm(W))

    return ChainResult(config=config, ngd=ngd, data=data, weights=W, kept=kept,
                       hnorm_trace=hn)


def ou_block_variance(config, ngd):
    """Exact per-coordinate stationary variance of the gradient-free chain.

    Each coordinate of block m is an AR(1) recursion w' = s*(w + noise) with
    s the shrink factor, so the stationary variance is
    (2 eta / beta) * s^2 / (1 - s^2).
    """
    s = shrink_factors(config, ngd.eta, ngd.lam, ngd.width)
    return (2.0 * ngd.eta / ngd.beta) * s * s / (1.0 - s * s)


def prior_block_variance(config, ngd):
    """Per-coordinate variance mu(m)/(beta*lam) of the continuous-time
    gradient-free stationary law (the eta -> 0 limit of ou_block_variance)."""
    m = np.arange(1, ngd.width + 1)
    return config.mu(m) / (ngd.beta * ngd.lam)


@dataclass(frozen=True)
class MixingReport:
    ratio: float
    mixed: bool
    threshold: float
    chain_means: tuple
    within_variance: float

    def __str__(self):
        tag = "mixed" if self.mixed else "NOT MIXED"
        return f"between/within ratio {self.ratio:.4f} (threshold {self.threshold}): {tag}"


def mixing_diagnostic(traces, threshold=1.1):
    """Between/within variance ratio of risk traces from independent chains.

    ratio = 1 + B/(N*W) with B = N * var(chain means), W the mean within-chain
    variance, N the common trace length.  Identical traces give exactly 1;
    independent stationary chains approach 1 as N grows; a frozen chain next
    to a live one inflates B and trips the threshold.
    """
    traces = [np.asarray(t, dtype=float) for t in traces]
    if len(traces) < 2:
        raise ValueError("need at least two chains")
    N = traces[0].size
    if N < 2 or any(t.size != N for t in traces):
        raise ValueError("traces must share a common length >= 2")
    means = np.array([t.mean() for t in traces])
    within = float(np.mean([t.var(ddof=1) for t in traces]))
    B = N * float(means.var(ddof=1))
    if within == 0.0:
        ratio = 1.0 if B == 0.0 else math.inf
    else:
        ratio = 1.0 + B / (N * within)
    return MixingReport(ratio=float(ratio), mixed=ratio <= threshold,
                        threshold=threshold, chain_means=tuple(means),
                        within_variance=within)


def save_trace(path, result):
    """Write kept-iterate traces as CSV: k,empirical_risk,h_norm,h1_norm."""
    with open(path, "w") as fh:
        fh.write("k,empirical_risk,h_norm,h1_norm\n")
        for k, r, a, b in zip(result.kept_steps, result.risk_trace,
                              result.hnorm_trace, result.h1norm_trace):
            fh.write(f"{k},{FLOAT_FMT % r},{FLOAT_FMT % a},{FLOAT_FMT % b}\n")
