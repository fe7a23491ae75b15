"""Finite ridge combinations that approximate a Gaussian bump.

A Gaussian bump exp(-|x-c|^2/(2 h^2)) equals an integral over ridge
directions a and offsets b of the window

    psi(t) = (sigmoid(t+1) - sigmoid(t-1)) / 2 = sinh(1) / (2 (cosh t + cosh 1))

evaluated at (a.(x-c) + b)/h, weighted by cos(b/h) / (2 pi h psi_hat(1))
and the standard Gaussian density of a.  Truncating to |b| <= D_b and
|a| <= D_w and applying tensor Gauss-Legendre quadrature yields a finite
combination whose sup error, after the 1/(2 D_b N1) mass normalization the
bookkeeping uses, is controlled by the Gaussian tail outside |a| <= D_w.
Each psi node splits into two bounded-offset sigmoid atoms, so the builder
also certifies the atom-level constraints (unit directions, offsets within
[-2, 2], coefficient mass within budget) that make the combination a valid
member of the scheduled network class at the appropriate width.

The combination is evaluated in an equivalent, smaller form: psi is even,
so the atoms (a, b) and (-a, -b) are one function of x and are merged, and
psi is computed in its one-cosh closed form.  The quadrature nodes are
symmetric (every direction's negation is a direction, bitwise), so the
merge halves the atom count.  The certified atom list stays the full
quadrature.

Dimensions 1 to 3 are supported; atom counts grow geometrically with d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .textio import FLOAT_FMT

__all__ = [
    "window_fourier_at_one",
    "gauss_bump",
    "gaussian_ball_mass",
    "BumpApproxConfig",
    "RidgeApprox",
    "build_bump_approx",
    "sup_error",
    "save_approx_csv",
]

# window values in one evaluation block (2 MiB), so the block stays in cache
_EVAL_CHUNK_DOUBLES = 1 << 18

# psi(t) = _HALF_SINH1 / (cosh t + _COSH1)
_COSH1 = math.cosh(1.0)
_HALF_SINH1 = math.sinh(1.0) / 2.0


def window_fourier_at_one():
    """Fourier coefficient (2 pi)^-1 integral of psi(t) e^{-it} dt at
    frequency 1, in closed form.

    sigmoid' transforms to pi w / sinh(pi w), and the window is a unit-width
    moving average of sigmoid', so the window transforms to
    sin(w) / (2 sinh(pi w)); it is real because the window is even.
    """
    return math.sin(1.0) / (2.0 * math.sinh(math.pi))


def gauss_bump(center, h, x):
    """Gaussian bump exp(-|x - center|^2 / (2 h^2)); x is (d,) or (n, d)."""
    c = np.atleast_1d(np.asarray(center, dtype=float))
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    sq = ((pts - c[None, :]) ** 2).sum(axis=1)
    out = np.exp(-sq / (2.0 * h * h))
    return float(out[0]) if single else out


def gaussian_ball_mass(d, radius):
    """Standard-Gaussian mass of the centered ball of given radius in R^d:
    the chi-square CDF P(chi2_d <= radius^2), the regularized lower
    incomplete gamma function P(a, x) at a = d/2, x = radius^2/2.

    From x = a on, P = 1 - Q with Q's terminating sum for integer and
    half-integer a:

        Q(k, x)       = e^-x sum_{j<k} x^j / j!
        Q(k + 1/2, x) = erfc(sqrt x) + e^-x sum_{j=1..k} x^(j-1/2) / Gamma(j+1/2)

    Below it P is small and 1 - Q would cancel, so P is summed from its
    power series x^a e^-x / Gamma(a+1) * sum_k x^k / ((a+1)...(a+k)), whose
    terms are all positive.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if radius <= 0:
        return 0.0
    a, x = d / 2.0, radius * radius / 2.0
    if x < a:
        term = total = x**a * math.exp(-x) / math.gamma(a + 1.0)
        k = a + 1.0
        while term > total * 1e-17:
            term *= x / k
            total += term
            k += 1.0
        return total
    if x == math.inf:
        return 1.0
    # Q's terms e^-x x^(j-1) / Gamma(j), from j = 1 or j = 3/2
    upper, j = (math.erfc(math.sqrt(x)), 1.5) if d % 2 else (0.0, 1.0)
    term = x ** (j - 1.0) * math.exp(-x) / math.gamma(j)
    for _ in range(d // 2):
        upper += term
        term *= x / j
        j += 1.0
    return 1.0 - upper


@dataclass(frozen=True)
class BumpApproxConfig:
    """Geometry and quadrature resolution of one bump approximation.

    d: dimension (1..3).  h: bump width.  center: bump location in [0,1]^d.
    direction_radius: truncation radius D_w of the ridge-direction ball.
    quad_a: per-dimension direction-quadrature size (radial nodes for d >= 2,
    with 2*quad_a azimuthal and quad_a polar nodes).  quad_b: offset nodes.
    grid: per-axis evaluation grid size on [0,1]^d.  offset_factor scales the
    offset truncation D_b = offset_factor * D_w; the default sqrt(2d)+1
    covers every |a.(x-c)| plus the window support with room to spare.
    """

    d: int
    h: float
    center: tuple
    direction_radius: float = 6.0
    quad_a: int = 192
    quad_b: int = 384
    grid: int = 512
    offset_factor: float | None = None

    def __post_init__(self):
        if not 1 <= self.d <= 3:
            raise ValueError("d must be 1, 2 or 3")
        if not 0 < self.h < math.inf:
            raise ValueError("h must be finite and > 0")
        c = tuple(float(v) for v in np.atleast_1d(self.center))
        if len(c) != self.d or not all(map(math.isfinite, c)):
            raise ValueError("center must be a finite d-vector")
        object.__setattr__(self, "center", c)
        if not 0 < self.direction_radius < math.inf:
            raise ValueError("direction_radius must be finite and > 0")
        if self.quad_a < 2 or self.quad_b < 2 or self.grid < 2:
            raise ValueError("quadrature and grid sizes must be >= 2")
        if self.offset_factor is None:
            object.__setattr__(self, "offset_factor",
                               math.sqrt(2.0 * self.d) + 1.0)
        if not 0 < self.offset_factor < math.inf:
            raise ValueError("offset_factor must be finite and > 0")

    @property
    def offset_radius(self):
        """Offset truncation D_b."""
        return self.offset_factor * self.direction_radius

    @property
    def ball_mass(self):
        """Standard-Gaussian mass N1 of the direction ball |a| <= D_w."""
        return gaussian_ball_mass(self.d, self.direction_radius)

    @property
    def scale(self):
        """Mass normalization 1/(2 D_b N1): combinations built for this
        config approximate scale * bump."""
        return 1.0 / (2.0 * self.offset_radius * self.ball_mass)

    def eval_grid(self):
        """Tensor grid over [0,1]^d, (grid^d, d)."""
        axis = np.linspace(0.0, 1.0, self.grid)
        if self.d == 1:
            return axis[:, None]
        mesh = np.meshgrid(*([axis] * self.d), indexing="ij")
        return np.stack([g.ravel() for g in mesh], axis=1)


def _direction_nodes(cfg):
    """Quadrature nodes and weights for the truncated Gaussian a-integral,
    weights already multiplied by the standard normal density.  Every node's
    negation is a node with a bitwise-equal weight."""
    D = cfg.direction_radius
    if cfg.d == 1:
        xa, wa = np.polynomial.legendre.leggauss(cfg.quad_a)
        nodes = (xa * D)[:, None]
        jac = wa * D
    else:
        # spherical coordinates: Gauss-Legendre radii, midpoint azimuths and,
        # for d = 3, Gauss-Legendre polar cosines (d = 2 is the equator).
        # The second half of the azimuths negates the first's cosines and
        # sines exactly, so every node's negation is a node
        xr, wr = np.polynomial.legendre.leggauss(cfg.quad_a)
        r = (xr + 1.0) * D / 2.0
        wr = wr * D / 2.0
        nth = 2 * cfg.quad_a
        th = (np.arange(cfg.quad_a) + 0.5) * 2.0 * math.pi / nth
        cos_t, sin_t = np.cos(th), np.sin(th)
        wth = np.full(nth, 2.0 * math.pi / nth)
        cph, wph = (np.polynomial.legendre.leggauss(cfg.quad_a) if cfg.d == 3
                    else (np.zeros(1), np.ones(1)))
        R, CP, CT = np.meshgrid(r, cph, np.concatenate([cos_t, -cos_t]),
                                indexing="ij")
        ST = np.meshgrid(r, cph, np.concatenate([sin_t, -sin_t]),
                         indexing="ij")[2]
        WR, WP, WT = np.meshgrid(wr, wph, wth, indexing="ij")
        SP = np.sqrt(np.maximum(1.0 - CP * CP, 0.0))
        nodes = np.stack([(R * SP * CT).ravel(),
                          (R * SP * ST).ravel(),
                          (R * CP).ravel()], 1)[:, :cfg.d]
        jac = (WR * WP * WT * R ** (cfg.d - 1)).ravel()
    dens = (2.0 * math.pi) ** (-cfg.d / 2.0) * np.exp(-(nodes**2).sum(1) / 2.0)
    return nodes, jac * dens


@dataclass
class RidgeApprox:
    """Finite combination f(x) = sum_k coef_k * window((a_k.(x-c) + b_k)/h),
    approximating scale * gauss_bump.

    The atoms are fixed once built: on_grid, _eval_form and the atom bounds
    are cached at first access.  The atom list (n_atoms, sigma_atoms,
    check_atoms) is the full quadrature.
    """

    cfg: BumpApproxConfig
    directions: np.ndarray  # (N, d) ridge directions a_k
    offsets: np.ndarray     # (N,)   offsets b_k
    coefs: np.ndarray       # (N,)   quadrature coefficients (scale included)

    @property
    def scale(self):
        """cfg.scale = 1/(2 D_b N1): the combination approximates scale * bump."""
        return self.cfg.scale

    @property
    def ball_mass(self):
        """Direction-ball mass N1 = cfg.ball_mass."""
        return self.cfg.ball_mass

    @property
    def n_atoms(self):
        return self.coefs.size

    @property
    def tau(self):
        """Preactivation scale D_b / h of the sigmoid-atom representation."""
        return self.cfg.offset_radius / self.cfg.h

    @property
    def coef_budget(self):
        """Atom coefficient budget 2C with C = D_b / (pi h |psi_hat(1)|)."""
        return 2.0 * self.cfg.offset_radius / (
            math.pi * self.cfg.h * abs(window_fourier_at_one()))

    @cached_property
    def on_grid(self):
        """(points, scale * bump, combination, absolute error) on
        cfg.eval_grid(), evaluated once: build_bump_approx takes the sup
        error from it and save_approx_csv writes it."""
        cfg = self.cfg
        pts = cfg.eval_grid()
        bump = cfg.scale * gauss_bump(cfg.center, cfg.h, pts)
        vals = self(pts)
        return pts, bump, vals, np.abs(vals - bump)

    @cached_property
    def reported_sup_error(self):
        """Sup error on the config grid, from on_grid with the arithmetic of
        sup_error(), so it equals sup_error(self) exactly."""
        return float(self.on_grid[3].max())

    @cached_property
    def _eval_form(self):
        """The combination as __call__ sums it, with fewer atoms.

        The window is even, so atoms (a, b) and (-a, -b) are one function of
        x: each is flipped so the first nonzero entry of (a, b) is positive,
        and exact duplicates are merged.  Returns directions / h, offsets / h
        and the coefficients times the window's constant factor."""
        ab = np.column_stack([self.directions, self.offsets])
        lead = ab[np.arange(ab.shape[0]), (ab != 0.0).argmax(axis=1)]
        ab[lead < 0.0] *= -1.0
        # sort the rows lexicographically; equal rows are then neighbours
        order = np.lexsort(ab.T[::-1])
        ab = ab[order]
        first = np.ones(ab.shape[0], dtype=bool)
        first[1:] = (ab[1:] != ab[:-1]).any(axis=1)
        coefs = np.bincount(np.cumsum(first) - 1, weights=self.coefs[order])
        merged = ab[first] / self.cfg.h
        return merged[:, :-1], merged[:, -1], coefs * _HALF_SINH1

    def __call__(self, x):
        """The combination at x, (d,) or (n, d).  Where cosh overflows the
        window is exactly 0."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = x[None, :] if single else x
        if pts.shape[1] != self.cfg.d:
            raise ValueError(f"points must lie in R^{self.cfg.d}")
        n = pts.shape[0]
        out = np.zeros(n)
        if self.n_atoms and n:
            dirs, offs, coefs = self._eval_form
            shifted = pts - np.asarray(self.cfg.center)[None, :]
            chunk = max(1, _EVAL_CHUNK_DOUBLES // n)
            buf = np.empty(n * min(chunk, coefs.size))
            with np.errstate(over="ignore"):
                for lo in range(0, coefs.size, chunk):
                    sl = slice(lo, lo + chunk)
                    u = buf[:n * coefs[sl].size].reshape(n, -1)
                    np.dot(shifted, dirs[sl].T, out=u)
                    u += offs[sl]
                    np.cosh(u, out=u)
                    u += _COSH1
                    np.reciprocal(u, out=u)
                    out += u @ coefs[sl]
        return float(out[0]) if single else out

    def sigma_atoms(self):
        """Split each window node into its two sigmoid atoms.

        Returns (coef, direction, offset) arrays for atoms of the form
        coef * sigmoid(tau * (direction . x + offset)) with |direction| <= 1
        and |offset| <= 2; coefficient halves carry opposite signs.
        """
        Db = self.cfg.offset_radius
        c = np.asarray(self.cfg.center)
        dirs = self.directions / Db
        base = (self.offsets - self.directions @ c) / Db
        shift = self.cfg.h / Db
        coef = np.concatenate([self.coefs / 2.0, -self.coefs / 2.0])
        out_dirs = np.concatenate([dirs, dirs], axis=0)
        out_offs = np.concatenate([base + shift, base - shift])
        return coef, out_dirs, out_offs

    @cached_property
    def _atom_bounds(self):
        """(max direction norm, max |offset|, coefficient mass) of the
        sigma atoms."""
        coef, dirs, offs = self.sigma_atoms()
        dir_norm = float(np.sqrt((dirs**2).sum(1)).max()) if len(dirs) else 0.0
        off_max = float(np.abs(offs).max()) if len(offs) else 0.0
        return dir_norm, off_max, float(np.abs(coef).sum())

    def check_atoms(self, tol=1e-9):
        """Assert the sigma-atom constraints; returns the checked values."""
        dir_norm, off_max, mass = self._atom_bounds
        # each test is written to fail on NaN
        if not dir_norm <= 1.0 + tol:
            raise AssertionError(f"atom direction norm {dir_norm} > 1")
        if not off_max <= 2.0 + tol:
            raise AssertionError(f"atom offset {off_max} > 2")
        if not mass <= self.coef_budget * (1.0 + tol):
            raise AssertionError(f"atom mass {mass} > budget {self.coef_budget}")
        return dir_norm, off_max, mass


def build_bump_approx(cfg):
    """Assemble the quadrature combination, certify its atom constraints and
    evaluate its sup error on the config grid (approx.reported_sup_error)."""
    Db = cfg.offset_radius
    a_nodes, a_w = _direction_nodes(cfg)           # (Na, d), (Na,)
    xb, wb = np.polynomial.legendre.leggauss(cfg.quad_b)
    b_nodes = xb * Db
    b_w = wb * Db * np.cos(b_nodes / cfg.h) / (
        2.0 * math.pi * cfg.h * window_fourier_at_one())
    approx = RidgeApprox(cfg=cfg,
                         directions=np.repeat(a_nodes, b_w.size, axis=0),
                         offsets=np.tile(b_nodes, a_w.size),
                         coefs=(a_w[:, None] * b_w[None, :]).ravel() * cfg.scale)
    approx.check_atoms()
    approx.reported_sup_error  # the grid evaluation belongs to the build
    return approx


def sup_error(approx, cfg=None, grid_points=None):
    """Max absolute deviation from cfg.scale * bump over the evaluation grid.

    `approx` is any callable on point batches; cfg defaults to approx.cfg.
    """
    if cfg is None:
        cfg = approx.cfg
    pts = cfg.eval_grid() if grid_points is None else np.atleast_2d(grid_points)
    target = cfg.scale * gauss_bump(cfg.center, cfg.h, pts)
    return float(np.abs(np.asarray(approx(pts)) - target).max())


def save_approx_csv(path, approx):
    """CSV of grid point, scaled bump, combination value, pointwise error,
    preceded by a commented summary block.  After build_bump_approx nothing
    is evaluated or certified again."""
    cfg = approx.cfg
    pts, bump, vals, err = approx.on_grid
    mass = approx.check_atoms()[2]
    with open(path, "w") as fh:
        fh.write("# bump ridge approximation\n")
        fh.write(f"# d = {cfg.d}\n")
        fh.write(f"# h = {FLOAT_FMT % cfg.h}\n")
        fh.write(f"# center = {' '.join(FLOAT_FMT % v for v in cfg.center)}\n")
        fh.write(f"# direction_radius = {FLOAT_FMT % cfg.direction_radius}\n")
        fh.write(f"# offset_radius = {FLOAT_FMT % cfg.offset_radius}\n")
        fh.write(f"# quad_a = {cfg.quad_a}\n")
        fh.write(f"# quad_b = {cfg.quad_b}\n")
        fh.write(f"# atoms = {approx.n_atoms}\n")
        fh.write(f"# tau = {FLOAT_FMT % approx.tau}\n")
        fh.write(f"# scale = {FLOAT_FMT % approx.scale}\n")
        fh.write(f"# ball_mass = {FLOAT_FMT % approx.ball_mass}\n")
        fh.write(f"# window_ft = {FLOAT_FMT % window_fourier_at_one()}\n")
        fh.write(f"# atom_mass = {FLOAT_FMT % mass}\n")
        fh.write(f"# coef_budget = {FLOAT_FMT % approx.coef_budget}\n")
        fh.write(f"# sup_error = {FLOAT_FMT % approx.reported_sup_error}\n")
        cols = [f"x{j+1}" for j in range(cfg.d)] + ["bump", "approx", "error"]
        fh.write(",".join(cols) + "\n")
        for p, bv, av, ev in zip(pts, bump, vals, err):
            row = [FLOAT_FMT % v for v in p] + [FLOAT_FMT % bv, FLOAT_FMT % av,
                                                FLOAT_FMT % ev]
            fh.write(",".join(row) + "\n")
