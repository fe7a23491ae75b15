"""Independent reference paths that only the tests use.

Each restates a piece of the program another way (an explicit update
scheme, a closed-form gradient bound, a one-call kernel gram, the zero
combination, a zero-padded weight matrix), so the tests can check the
program against it.
"""

import numpy as np
from scipy.special import zeta

from ngdbench.linear import make_kernel
from ngdbench.lowerbound import RidgeApprox
from ngdbench.ngd import _check_finite, apply_shrink, loss_grad


def ridge_grad(config, lam, W):
    """Gradient of the weighted ridge penalty: lam * mu(m)^{-1} * w_m per block."""
    W = np.asarray(W, dtype=float)
    m = np.arange(1, W.shape[0] + 1)
    return (lam / config.mu(m))[:, None] * W


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


def kernel_eval(kind, x, z, config=None, **params):
    """Evaluate the named kernel on two point batches."""
    return make_kernel(kind, config=config, **params).gram(x, z)


def empty_approx(cfg):
    """The zero combination (no atoms) with the same bookkeeping."""
    return RidgeApprox(cfg=cfg, directions=np.zeros((0, cfg.d)),
                       offsets=np.zeros(0), coefs=np.zeros(0))


def pad_weights(W, width):
    """Zero-pad a weight matrix to a larger block count (same function)."""
    W = np.asarray(W, dtype=float)
    if width < W.shape[0]:
        raise ValueError("pad_weights cannot shrink a weight matrix")
    out = np.zeros((width, W.shape[1]))
    out[: W.shape[0]] = W
    return out
