"""Excess-risk measurement, empirical rate fits, and theoretical exponents.

Excess risk of a predictor fhat against a teacher fo under the uniform
design is E[(fhat(X) - fo(X))^2], estimated by plain Monte Carlo.  Risk
decay exponents come from ordinary least squares on (log n, log median
risk).  The theoretical calculators return the convergence exponent the
noisy-gradient estimator attains and the exponent no linear estimator can
beat, including the two published variants of the latter's smoothness
index (they disagree; both are reported, flagged).  rate_fit takes the
sweep's records (sweep.RiskRecord); the sweep owns their files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MonteCarloRisk",
    "excess_risk_mc",
    "RateFit",
    "rate_fit",
    "beta_tilde",
    "beta_tilde_quoted",
    "LowerBoundExponents",
    "linear_lower_exponents",
    "nn_upper_exponent",
    "dominance_condition",
    "QUOTED_BETA_TILDE",
]

# the published smoothness index for the reference parameter family
# (s=3, alpha1 = gamma = alpha2/4); the formula variant below reproduces it
QUOTED_BETA_TILDE = 17.0 / 3.0


@dataclass(frozen=True)
class MonteCarloRisk:
    value: float
    stderr: float
    n_test: int
    seed: int


def excess_risk_mc(teacher, predictor, n_test=100_000, seed=0):
    """Monte Carlo excess risk over fresh uniform test points.

    Returns the mean of (predictor - teacher)^2 and its standard error.
    Deterministic given the seed.
    """
    if n_test < 2:
        raise ValueError("n_test must be >= 2")
    rng = np.random.default_rng(seed)
    X = rng.random((n_test, teacher.config.d))
    diff = np.asarray(predictor(X), dtype=float) - teacher(X)
    sq = diff * diff
    value = float(sq.mean())
    stderr = float(sq.std(ddof=1) / math.sqrt(n_test))
    return MonteCarloRisk(value=value, stderr=stderr, n_test=n_test, seed=seed)


@dataclass(frozen=True)
class RateFit:
    """OLS fit of log median risk against log n."""

    slope: float
    intercept: float
    slope_stderr: float
    n_values: tuple
    medians: tuple

    @property
    def exponent(self):
        """Decay exponent rho in risk ~ n^-rho (sign-flipped slope)."""
        return -self.slope

    @property
    def interval(self):
        """(low, high) = exponent -+ 2 slope_stderr."""
        half = 2.0 * self.slope_stderr
        return self.exponent - half, self.exponent + half


def rate_fit(records):
    """Per-n medians across replicates, then OLS on the log-log points.

    Requires at least three distinct n values and positive finite medians.
    The slope is invariant to multiplying every risk by a constant.
    """
    by_n = {}
    for rec in records:
        by_n.setdefault(rec.n, []).append(rec.excess_risk)
    if len(by_n) < 3:
        raise ValueError("rate_fit needs at least 3 distinct n values")
    ns = sorted(by_n)
    medians = [float(np.median(by_n[n])) for n in ns]
    if not all(math.isfinite(m) and m > 0 for m in medians):
        raise ValueError("rate_fit needs positive finite median risks")
    x = np.log(np.asarray(ns, dtype=float))
    # fit on median ratios: the slope is then exactly invariant to scaling
    # every risk by a constant (the common factor cancels before the log)
    mref = max(medians)
    yv = np.log(np.asarray(medians) / mref)
    xbar = x.mean()
    sxx = float(((x - xbar) ** 2).sum())
    slope = float(((x - xbar) @ (yv - yv.mean())) / sxx)
    intercept = float(yv.mean() - slope * xbar) + math.log(mref)
    resid = yv - ((intercept - math.log(mref)) + slope * x)
    s2 = float(resid @ resid) / (len(ns) - 2)  # >= 3 distinct n
    stderr = math.sqrt(s2 / sxx)
    return RateFit(slope=slope, intercept=intercept, slope_stderr=stderr,
                   n_values=tuple(ns), medians=tuple(medians))


# -- theoretical exponents ---------------------------------------------------

def beta_tilde(alpha1, alpha2, gamma, s):
    """Smoothness index (alpha1 + (s+1) alpha2) / (alpha2 - gamma/2)."""
    denom = alpha2 - gamma / 2.0
    if denom <= 0:
        raise ValueError("needs alpha2 > gamma/2")
    return (alpha1 + (s + 1.0) * alpha2) / denom


def beta_tilde_quoted(alpha1, alpha2, gamma, s):
    """Variant with denominator (alpha2 - gamma); matches the published
    17/3 value for the reference family, unlike beta_tilde."""
    denom = alpha2 - gamma
    if denom <= 0:
        raise ValueError("quoted variant needs alpha2 > gamma")
    return (alpha1 + (s + 1.0) * alpha2) / denom


def _lower_exponent_from_beta(bt, d):
    # degenerate endpoint d=0 gives exactly 1; public API enforces d >= 1
    return (2.0 * bt + d) / (2.0 * bt + 2.0 * d)


@dataclass(frozen=True)
class LowerBoundExponents:
    """Both variants of the linear lower-bound exponent, discrepancy flagged."""

    beta_tilde: float
    exponent: float
    beta_tilde_quoted: float
    exponent_quoted: float
    discrepant: bool

    def __str__(self):
        lines = [
            f"beta_tilde (formula)  = {self.beta_tilde:.12g}"
            f" -> exponent {self.exponent:.12g}",
        ]
        if math.isnan(self.beta_tilde_quoted):
            lines.append("beta_tilde (quoted)   = undefined"
                         " (needs alpha2 > gamma)")
        else:
            lines.append(f"beta_tilde (quoted)   = {self.beta_tilde_quoted:.12g}"
                         f" -> exponent {self.exponent_quoted:.12g}")
        if self.discrepant:
            lines.append("NOTE: formula and quoted beta_tilde disagree; "
                         "both reported")
        return "\n".join(lines)


def linear_lower_exponents(alpha1, alpha2, gamma, s, d):
    """Report the formula value and the published variant side by side.

    The published variant only exists for alpha2 > gamma; outside that range
    it is reported as NaN rather than aborting the comparison."""
    if d < 1:
        raise ValueError("d must be >= 1")
    bt = beta_tilde(alpha1, alpha2, gamma, s)
    try:
        btq = beta_tilde_quoted(alpha1, alpha2, gamma, s)
        exp_q = _lower_exponent_from_beta(btq, d)
        discrepant = not math.isclose(bt, btq, rel_tol=1e-12)
    except ValueError:
        btq, exp_q, discrepant = math.nan, math.nan, True
    return LowerBoundExponents(
        beta_tilde=bt,
        exponent=_lower_exponent_from_beta(bt, d),
        beta_tilde_quoted=btq,
        exponent_quoted=exp_q,
        discrepant=discrepant,
    )


def nn_upper_exponent(alpha1, alpha2, gamma, q=0.0, s=None):
    """Exponent gamma / (alpha1 + q*alpha2 + 1) the noisy-gradient estimator
    attains; q >= 0 trades clip growth for rate (q <= s-3 when s is given).

    Requires gamma < 1/2 + alpha1 + q*alpha2.
    """
    if q < 0:
        raise ValueError("q must be >= 0")
    if s is not None and q > s - 3.0:
        raise ValueError("q must be <= s - 3")
    if not gamma < 0.5 + alpha1 + q * alpha2:
        raise ValueError("needs gamma < 1/2 + alpha1 + q*alpha2")
    return gamma / (alpha1 + q * alpha2 + 1.0)


def dominance_condition(alpha1, d, beta_tilde=QUOTED_BETA_TILDE):
    """True when alpha1 > 2*beta_tilde/d + 1, i.e. the regime where the
    noisy-gradient rate provably beats every linear estimator's floor.

    Defaults to the published smoothness index 17/3, reproducing the quoted
    11.3/d + 1 threshold; pass beta_tilde explicitly for other settings.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    return bool(alpha1 > 2.0 * beta_tilde / d + 1.0)
