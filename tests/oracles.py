"""Independent reference paths that only the tests use.

Each restates a piece of the program another way (the update as one
allocating expression through a blockwise shrink, an explicit update
scheme, a closed-form gradient bound, the gradient on (a, n) blocks, a
one-call kernel gram, the network and its tangent and random features
summed block by block over every block, the zero combination, a
zero-padded weight matrix, cross validation by full sorts and
per-bandwidth grams, the two-sigmoid window and a ridge combination summed
atom by atom through it), so the tests can check the program against it.
`traced_peak` is the memory measurement the tests share, and `krr_fit` the
kernel ridge fit they name by make_kernel's arguments.
"""

import tracemalloc

import numpy as np
import scipy.linalg
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.special import expit, zeta

from ngdbench.linear import (RbfKernel, _combo_iter, _fold_indices,
                             _krr_fit, _sq_dists, make_kernel)
from ngdbench.lowerbound import RidgeApprox
from ngdbench.model import _neg_logistic, live_blocks, sigmoid, with_ones
from ngdbench.ngd import _check_finite, loss_grad, shrink_factors


def ridge_grad(config, lam, W):
    """Gradient of the weighted ridge penalty: lam * mu(m)^{-1} * w_m per block."""
    W = np.asarray(W, dtype=float)
    m = np.arange(1, W.shape[0] + 1)
    return (lam / config.mu(m))[:, None] * W


def apply_shrink(config, eta, lam, W):
    """Apply the semi-implicit shrink blockwise."""
    W = np.asarray(W, dtype=float)
    return shrink_factors(config, eta, lam, W.shape[0])[:, None] * W


def step_reference(config, ngd, W, data=None, noise=None):
    """ngd.step as one allocating expression: s_fac * (W - eta * G + noise),
    the gradient from loss_grad and the shrink from apply_shrink.

    Rounds as the chain's in-place update does, so step() must match it
    bitwise, signed zeros included.
    """
    W = np.asarray(W, dtype=float)
    V = W if data is None else W - ngd.eta * loss_grad(config, W, data)
    if noise is not None:
        V = V + noise
    out = apply_shrink(config, ngd.eta, ngd.lam, V)
    _check_finite(out, "after step")
    return out


def step_explicit(config, ngd, W, data=None, noise=None):
    """ngd.step written as an explicit scheme.

    Algebraically (I + eta*A)^{-1} v = v - eta * A (I + eta*A)^{-1} v, so the
    ridge gradient is evaluated at the post-shrink point.  Agrees with step()
    to floating-point roundoff.
    """
    W = np.asarray(W, dtype=float)
    V = W if data is None else W - ngd.eta * loss_grad(config, W, data)
    if noise is not None:
        V = V + noise
    out = V - ngd.eta * ridge_grad(config, ngd.lam,
                                   apply_shrink(config, ngd.eta, ngd.lam, V))
    _check_finite(out, "after step")
    return out


def loss_grad_bound(config, noise_bound):
    """Width-free bound on h_norm(loss_grad): holds for every W and dataset.

    Residuals are bounded by 2*R*sum_m amp(m) + U, activations by 1, their
    slopes by C = 1/4 after width scaling (s >= 3, width <= 1), giving

        |grad|^2 <= 4 * rbar * (R^2 C^2 (d+1) + 1) * sum_m amp(m)^2

    with rbar the squared residual bound.  Amplitude sums are evaluated in
    closed form: sum amp = c_mu^alpha1 * zeta(2 alpha1).
    """
    if config.width(1) > 1.0:
        raise ValueError("bound assumes width(1) = c_mu^alpha2 <= 1")
    amp_sum = config.c_mu**config.alpha1 * zeta(2.0 * config.alpha1)
    amp_sq_sum = config.c_mu ** (2.0 * config.alpha1) * zeta(4.0 * config.alpha1)
    rbar = (2.0 * config.R * amp_sum + noise_bound) ** 2
    c_slope = 0.25
    return float(np.sqrt(
        4.0 * rbar * (config.R**2 * c_slope**2 * (config.d + 1) + 1.0) * amp_sq_sum
    ))


def loss_grad_blocks(config, W, data):
    """ngd.loss_grad worked on (a, n) blocks with (a, 1) constants whatever
    the live width a, one live block included, as a plain function.

    Every operation rounds as in ngd._gradient's block body, so the 1-D
    body it runs with one live block must match this bitwise.
    """
    W = np.asarray(W, dtype=float)
    amp, b = live_blocks(config, W.shape[0])
    a, R = amp.size, config.R
    with np.errstate(under="ignore"):
        bs = b**config.s
        bs1 = b ** (config.s - 1.0)
    X1T = np.ascontiguousarray(with_ones(data.X, config.d)[0].T)
    two_n = 2.0 / data.y.shape[0]
    G = np.zeros(W.shape)
    with np.errstate(over="ignore"):
        sig = _neg_logistic(np.dot(W[:a, :-1] * (-1.0 / b)[:, None], X1T))
        t2 = np.tanh(W[:a, -1] / R)
        r = np.dot(amp * R * bs * t2, sig) - data.y
        G[:a, -1] = (sig @ r) * (two_n * amp * bs * (1.0 - t2 * t2))
        dsig = (1.0 - sig) * sig * r
        G[:a, :-1] = (np.dot(X1T, dsig.T).T
                      * (two_n * amp * R * bs1 * t2)[:, None])
    return G


def krr_fit(kind, data, ridge, config=None, **params):
    """Kernel ridge fit of ridge on the kernel make_kernel(kind, config,
    **params)."""
    return _krr_fit(kind, make_kernel(kind, config=config, **params), data,
                    ridge)


def kernel_eval(kind, x, z, config=None, **params):
    """Evaluate the named kernel on two point batches."""
    return make_kernel(kind, config=config, **params).gram(x, z)


def _block_logistic(config, m, u):
    """width(m) and sigmoid(u / width(m)) per block; a block whose width
    underflows to 0 reads sigmoid(+inf) = 1, so its scaled activation and
    derivative are exactly 0."""
    b = np.asarray(config.width(m), dtype=float)
    u = np.asarray(u, dtype=float)
    with np.errstate(over="ignore", divide="ignore", under="ignore"):
        scaled = np.where(b > 0.0, u / np.where(b > 0.0, b, 1.0), np.inf)
        return b, expit(scaled)


def block_activation(config, m, u):
    """Scaled sigmoid of block m: width^s * sigmoid(u / width)."""
    b, sig = _block_logistic(config, m, u)
    with np.errstate(under="ignore"):
        return b**config.s * sig


def network_oracle(config, W, x):
    """f_W at the (n, d) points x, summed over every block of W (M, d+2),
    dead ones included."""
    W = np.asarray(W, dtype=float)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    X1 = np.hstack([x, np.ones((x.shape[0], 1))])
    m = np.arange(1, W.shape[0] + 1)
    out_weight = config.R * np.tanh(W[:, -1] / config.R)
    return block_activation(config, m, X1 @ W[:, :-1].T) @ (config.amp(m)
                                                            * out_weight)


def snapshot_mean_oracle(config, stack, x):
    """Snapshot average: network_oracle per snapshot, then the mean."""
    return np.mean([network_oracle(config, W, x) for W in stack], axis=0)


def feature_oracle(kind, config, W0, x):
    """Tangent (krr-ntk) or random (krr-rf) features of the network W0 at
    the (n, d) points x, over every block of W0, dead ones included."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    X1 = np.hstack([x, np.ones((x.shape[0], 1))])
    m = np.arange(1, W0.shape[0] + 1)
    b, sig = _block_logistic(config, m, X1 @ W0[:, :-1].T)
    with np.errstate(under="ignore"):
        act = b**config.s * sig
        dact = b ** (config.s - 1.0) * sig * (1.0 - sig)
    amp = config.amp(m)
    if kind == "krr-rf":
        return amp * act
    t = np.tanh(W0[:, -1] / config.R)
    first = (amp * config.R * t * dact)[:, :, None] * X1[:, None, :]
    second = (amp * (1.0 - t * t) * act)[:, :, None]
    return np.concatenate([first, second], axis=2).reshape(X1.shape[0], -1)


def sigmoid_window(t):
    """Even smooth window (sigmoid(t+1) - sigmoid(t-1)) / 2, peak ~0.231:
    the lemma's psi by its definition."""
    arr = np.asarray(t, dtype=float)
    out = np.asarray(0.5 * (sigmoid(arr + 1.0) - sigmoid(arr - 1.0)))
    return float(out) if out.ndim == 0 else out


def empty_approx(cfg):
    """The zero combination (no atoms) with the same bookkeeping."""
    return RidgeApprox(cfg=cfg, directions=np.zeros((0, cfg.d)),
                       offsets=np.zeros(0), coefs=np.zeros(0))


def ridge_eval_sigmoid(approx, x):
    """approx(x) for (n, d) points, summed over every atom of the full
    quadrature list through sigmoid_window, in blocks of 4e6 doubles: no
    merged atoms and no closed-form window."""
    pts = np.asarray(x, dtype=float)
    shifted = pts - np.asarray(approx.cfg.center)[None, :]
    out = np.zeros(pts.shape[0])
    chunk = max(1, 4_000_000 // pts.shape[0])
    for lo in range(0, approx.n_atoms, chunk):
        sl = slice(lo, lo + chunk)
        t = shifted @ approx.directions[sl].T + approx.offsets[None, sl]
        out += sigmoid_window(t / approx.cfg.h) @ approx.coefs[sl]
    return out


def pad_weights(W, width):
    """Zero-pad a weight matrix to a larger block count (same function)."""
    W = np.asarray(W, dtype=float)
    if width < W.shape[0]:
        raise ValueError("pad_weights cannot shrink a weight matrix")
    out = np.zeros((width, W.shape[1]))
    out[: W.shape[0]] = W
    return out


def _solve_c_order(K, ridge, y):
    """(K + ridge I)^{-1} y with the shifted gram factored in C order."""
    A = K.copy()
    A.flat[::A.shape[0] + 1] += ridge
    try:
        factor = cho_factor(A, lower=True, check_finite=False)
        coef = cho_solve(factor, y, check_finite=False)
        return coef + cho_solve(factor, y - A @ coef, check_finite=False)
    except LinAlgError:
        return scipy.linalg.solve(A, y, assume_a="sym")


def cv_table(kind, data, grid, folds, seed, config=None, kernel_seed=0):
    """The (params, score) table of linear.tune, by passes that do more
    work: a full stable argsort of every validation row for knn, one
    unblocked weight matrix per bandwidth and fold for nw, and for kernel
    ridge a fresh gram of all n points for every combination (krr-rbf's
    bandwidth, or the feature kernel of width max(8, n // 4) at
    kernel_seed), np.ix_ fold blocks and a C-ordered Cholesky
    factorization."""
    combos = list(_combo_iter(grid))
    sq_err = [0.0] * len(combos)
    for va in _fold_indices(data.n, folds, seed):
        tr = np.setdiff1d(np.arange(data.n), va)
        D = _sq_dists(data.X[va], data.X[tr])
        if kind == "knn":
            order = np.argsort(D, axis=1, kind="stable")
            csum = np.cumsum(data.y[tr][order], axis=1)
        for i, combo in enumerate(combos):
            if kind == "knn":
                pred = csum[:, combo["k"] - 1] / combo["k"]
            elif kind == "nw":
                w = RbfKernel(bandwidth=combo["bandwidth"]).from_sq_dists(D)
                # every weight row has a positive sum on these data
                pred = (w @ data.y[tr]) / w.sum(axis=1)
            else:
                params = ({"bandwidth": combo["bandwidth"]}
                          if kind == "krr-rbf" else
                          {"width": max(8, data.n // 4), "seed": kernel_seed})
                G = kernel_eval(kind, data.X, data.X, config=config, **params)
                coef = _solve_c_order(G[np.ix_(tr, tr)], combo["ridge"],
                                      data.y[tr])
                pred = G[np.ix_(va, tr)] @ coef
            resid = pred - data.y[va]
            sq_err[i] += float(resid @ resid)
    return tuple((combo, err / data.n) for combo, err in zip(combos, sq_err))


def traced_peak(fn):
    """Peak bytes tracemalloc traces while fn() runs, counted from its
    start; numpy reports its array buffers to tracemalloc."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
