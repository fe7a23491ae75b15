"""Linear-in-y baseline estimators: kernel ridge, k-NN, Nadaraya-Watson.

Every estimator here maps y linearly to predictions for fixed inputs; that
linearity is the defining property of the class the lower-bound theory
covers, and the test suite pins it.  Kernel ridge supports a Gaussian RBF
kernel, the empirical tangent kernel of a scheduled network at a frozen
random initialization, and the random-feature kernel with a frozen first
layer.  Hyperparameters are tuned by deterministic k-fold cross validation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import InitVar, asdict, dataclass, field, replace
from functools import cached_property, partial

import numpy as np

from .model import (
    ScheduleConfig,
    hidden_layer,
    live_columns,
    sample_teacher,
    soft_clip,
    soft_clip_deriv,
    with_ones,
)
from .textio import write_text

__all__ = [
    "ESTIMATOR_KINDS",
    "RbfKernel",
    "NtkKernel",
    "RandomFeatureKernel",
    "make_kernel",
    "knn_predict",
    "nw_predict",
    "tune",
    "TuneResult",
    "fit_estimator",
    "save_estimator",
]

ESTIMATOR_KINDS = ("krr-rbf", "krr-ntk", "krr-rf", "knn", "nw")

# doubles in one prediction block (1 MiB), so the block stays in cache
_CHUNK_DOUBLES = 1 << 17


def _block_rows(row_doubles):
    """Rows in one block of about _CHUNK_DOUBLES doubles, one row costing
    row_doubles."""
    return max(1, _CHUNK_DOUBLES // max(1, row_doubles))


def _row_blocks(n_rows, row_doubles):
    """Slices of consecutive rows, _block_rows(row_doubles) per block.
    Block shape moves gemm's rounding, so the block sizes are part of every
    prediction's bits."""
    step = _block_rows(row_doubles)
    return (slice(lo, lo + step) for lo in range(0, n_rows, step))


def _sq_dists(X, Z, out=None, z_sq=None):
    """Pairwise squared euclidean distances, clamped at 0.  When X and Z are
    one float array the result is exactly symmetric (a rank-k update).

    The distances are written into the array the gemm fills (out, when
    given), one row block at a time as (|x|^2 + |z|^2) - 2 x.z, so the only
    other temporary is one block.  z_sq passes Z's squared norms when the
    caller already has them.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    x_sq = (X * X).sum(1)
    if z_sq is None:
        z_sq = (Z * Z).sum(1)
    sq = np.matmul(X, Z.T, out=out)
    for sl in _row_blocks(sq.shape[0], sq.shape[1]):
        block = sq[sl]
        block *= 2.0
        np.subtract(x_sq[sl, None] + z_sq, block, out=block)
    np.maximum(sq, 0.0, out=sq)
    return sq


def _dist_blocks(x, Z):
    """(rows, squared distances from x[rows] to Z) for each prediction
    block of x.  Every block is written into one buffer, so a block is valid
    only until the next is yielded; Z's squared norms are computed once."""
    z_sq = (Z * Z).sum(1)
    buf = np.empty((min(x.shape[0], _block_rows(Z.shape[0])), Z.shape[0]))
    for sl in _row_blocks(x.shape[0], Z.shape[0]):
        rows = x[sl]
        yield sl, _sq_dists(rows, Z, out=buf[:rows.shape[0]], z_sq=z_sq)


@dataclass(frozen=True)
class RbfKernel:
    """Gaussian kernel exp(-|x-z|^2 / (2 h^2))."""

    bandwidth: float

    def from_sq_dists(self, sq, out=None):
        """Gram entries from squared distances; out=sq works in place."""
        out = np.divide(sq, -2.0 * self.bandwidth**2, out=out)
        return np.exp(out, out=out)

    def gram(self, X, Z):
        sq = _sq_dists(X, Z)
        return self.from_sq_dists(sq, out=sq)


@dataclass(frozen=True)
class _FrozenLayerKernel:
    """Feature kernel of a scheduled network's first layer, frozen at the
    reference initialization of the given seed.  The layer is drawn at the
    full width; the features cover its live blocks (model.live_blocks)."""

    config: ScheduleConfig
    width: int
    seed: int = 0

    @cached_property
    def frozen_weights(self):
        """The frozen first layer, drawn once per kernel by the same law
        teachers use."""
        return sample_teacher(self.config, self.width, radius=1.0,
                              seed=self.seed).weights

    def gram(self, X, Z):
        """features(X) features(Z)^T, exactly symmetric when Z is X."""
        FX = self.features(X)
        return FX @ (FX if Z is X else self.features(Z)).T


class NtkKernel(_FrozenLayerKernel):
    """Empirical tangent kernel of a scheduled network at a frozen init.

    k(x, z) = <grad_W f_{W0}(x), grad_W f_{W0}(z)> over the weight
    coordinates of the live blocks; computed through the explicit
    finite-dimensional feature map, so the gram is positive semidefinite by
    construction.
    """

    def features(self, X):
        cfg = self.config
        X1, _ = with_ones(X, cfg.d)
        VT, w2, amp, b = live_columns(cfg, self.frozen_weights[None])
        sig = hidden_layer(X1, VT)                        # (n, a)
        c1 = amp * soft_clip(w2, cfg.R) * b ** (cfg.s - 1.0)
        c2 = amp * soft_clip_deriv(w2, cfg.R) * b**cfg.s
        first = (c1 * (sig * (1.0 - sig)))[:, :, None] * X1[:, None, :]
        second = (c2 * sig)[:, :, None]                   # (n, a, 1)
        return np.concatenate([first, second], axis=2).reshape(X1.shape[0], -1)


class RandomFeatureKernel(_FrozenLayerKernel):
    """Inner product of amp(m) * act_m at a frozen random first layer."""

    def features(self, X):
        cfg = self.config
        X1, _ = with_ones(X, cfg.d)
        VT, _, amp, b = live_columns(cfg, self.frozen_weights[None])
        return amp * b**cfg.s * hidden_layer(X1, VT)


_FEATURE_KERNELS = {"krr-ntk": NtkKernel, "krr-rf": RandomFeatureKernel}


def make_kernel(kind, config=None, bandwidth=None, width=None, seed=0):
    """Kernel factory for the three krr variants."""
    if kind == "krr-rbf":
        if bandwidth is None or not 0 < bandwidth < math.inf:
            raise ValueError("krr-rbf needs a finite positive bandwidth")
        return RbfKernel(bandwidth=float(bandwidth))
    if kind in _FEATURE_KERNELS:
        if config is None or width is None:
            raise ValueError(f"{kind} needs a ScheduleConfig and a width")
        if width < 1:
            raise ValueError(f"{kind} needs a width >= 1")
        return _FEATURE_KERNELS[kind](config=config, width=int(width),
                                      seed=int(seed))
    raise ValueError(f"unknown kernel kind {kind!r}")


def _kernel(kind, params, data, config, kernel_seed):
    """The kernel krr `kind` fits at params on data (tune, fit_estimator)."""
    if kind == "krr-rbf":
        return make_kernel(kind, bandwidth=params["bandwidth"])
    return make_kernel(kind, config=config, width=max(8, data.n // 4),
                       seed=kernel_seed)


def _check_finite(*arrays):
    """The ValueError scipy.linalg raises, checked once per gram so the
    solves below can skip it."""
    for a in arrays:
        # NaN propagates through both reductions and an inf is an extreme,
        # so no bool mask of a's size is needed
        if a.size and not (math.isfinite(a.min()) and math.isfinite(a.max())):
            raise ValueError("array must not contain infs or NaNs")


def _solve_regularized(K, ridge, y):
    """(K + ridge I)^{-1} y; K and y must already be checked finite.

    K's diagonal is shifted by the ridge in place and restored on return,
    so K comes back bitwise unchanged, also when the solve raises.  The
    shifted K is copied into one C-ordered factor buffer and factored
    there: K must be exactly symmetric, as every gram here is, since
    Cholesky reads the upper triangle through the buffer's Fortran-ordered
    transpose.  When the factorization fails (a semi-definite gram plus a
    tiny ridge can lose positivity to roundoff) the solve falls back to
    scipy's symmetric-indefinite solver.

    scipy.linalg is imported on first use, here and in _schur_sq_err, so a
    process that solves no kernel system never loads scipy.
    """
    from scipy.linalg import cho_factor, cho_solve, solve

    diagonal = K.diagonal().copy()
    K.flat[::K.shape[0] + 1] += ridge
    try:
        work = K.copy()
        try:
            factor = cho_factor(work.T, lower=True, overwrite_a=True,
                                check_finite=False)
            coef = cho_solve(factor, y, check_finite=False)
            # one step of iterative refinement: tiny ridges leave K + ridge I
            # with a large condition number, and the refreshed residual
            # solve buys back the digits the factorization loses there
            return coef + cho_solve(factor, y - K @ coef, check_finite=False)
        except np.linalg.LinAlgError:
            return solve(K, y, assume_a="sym")
    finally:
        K.flat[::K.shape[0] + 1] = diagonal


@dataclass
class KrrEstimator:
    """Kernel ridge fit with dual coefficients c on the training inputs X.

    The RBF kernel predicts in the dual, gram(x, X) @ c; a feature kernel in
    the primal, features(x) @ features(X)^T c, the same function.
    `train_features` passes features(X) when the caller already has it.
    The kernel and the ridge are the hyperparameters; save_estimator writes
    them with X and c, and nothing reads such a file back.
    """

    kind: str
    kernel: object
    ridge: float
    X: np.ndarray
    dual_coef: np.ndarray
    train_features: InitVar[np.ndarray | None] = None
    # the coefficients each block of _blocks is multiplied by
    _coef: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self, train_features):
        if isinstance(self.kernel, RbfKernel):
            self._coef = self.dual_coef
        else:
            if train_features is None:
                train_features = self.kernel.features(self.X)
            # |c| grows like 1/ridge while F^T c stays O(1): accumulating in
            # extended precision keeps that cancellation out of the
            # prediction's digits (the plain product where long double is
            # double)
            self._coef = np.einsum("ij,i->j", train_features, self.dual_coef,
                                   dtype=np.longdouble).astype(float)

    def _blocks(self, x):
        """(rows, gram(x[rows], X) or features(x[rows])) per block of x."""
        if isinstance(self.kernel, RbfKernel):
            for sl, sq in _dist_blocks(x, self.X):
                yield sl, self.kernel.from_sq_dists(sq, out=sq)
        else:
            for sl in _row_blocks(x.shape[0], self._coef.shape[0]):
                yield sl, self.kernel.features(x[sl])

    def __call__(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.empty(x.shape[0])
        for sl, block in self._blocks(x):
            out[sl] = block @ self._coef
        return out


def _krr_fit(kind, kernel, data, ridge):
    """Solve (K + ridge I) c = y on kernel's training gram."""
    if not 0 < ridge < math.inf:
        raise ValueError("ridge must be finite and > 0")
    X = np.asarray(data.X, dtype=float)
    if isinstance(kernel, RbfKernel):
        F, G = None, kernel.gram(X, X)
    else:
        # one feature matrix for the gram and the primal weights
        F = kernel.features(X)
        G = F @ F.T
    _check_finite(G, data.y)
    coef = _solve_regularized(G, ridge, data.y)
    return KrrEstimator(kind=kind, kernel=kernel, ridge=float(ridge),
                        X=X, dual_coef=coef, train_features=F)


def _k_smallest_sets(D, k):
    """Per-row index sets of the k smallest entries, ties by lowest index.

    Fast path uses argpartition; rows whose k-th distance value also occurs
    outside the candidate set are resolved by a stable argsort.
    """
    n_rows, n_cols = D.shape
    if k >= n_cols:
        return np.tile(np.arange(n_cols), (n_rows, 1))
    part = np.argpartition(D, k - 1, axis=1)[:, :k]
    rows = np.arange(n_rows)[:, None]
    vals = D[rows, part]
    kth = vals.max(axis=1)
    cand_at = (vals == kth[:, None]).sum(axis=1)
    all_at = (D == kth[:, None]).sum(axis=1)
    exact = np.flatnonzero(all_at > cand_at)
    for r in exact:
        part[r] = np.argsort(D[r], kind="stable")[:k]
    return part


def knn_predict(data, k, x):
    """k nearest neighbor mean; distance ties resolved by lowest index."""
    if not (isinstance(k, (int, np.integer)) and 1 <= k <= data.n):
        raise ValueError("k must lie in {1, ..., n}")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    out = np.empty(x.shape[0])
    for sl, sq in _dist_blocks(x, data.X):
        # `sets` lives into the next block, so malloc keeps the heap top
        # instead of returning it to the OS and faulting it back each block
        sets = _k_smallest_sets(sq, k)
        out[sl] = data.y[sets].mean(axis=1)
    return out


def nw_predict(data, bandwidth, x):
    """Gaussian-kernel local average; rows whose weights all underflow fall
    back to the 1-nearest-neighbor value."""
    if not 0 < bandwidth < math.inf:
        raise ValueError("bandwidth must be finite and > 0")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    out = np.empty(x.shape[0])
    tiny = np.finfo(float).tiny
    kern = RbfKernel(bandwidth=bandwidth)
    for sl, sq in _dist_blocks(x, data.X):
        w = kern.from_sq_dists(sq)
        denom = w.sum(axis=1)
        ok = denom > tiny
        vals = np.zeros(sq.shape[0])
        vals[ok] = (w[ok] @ data.y) / denom[ok]
        if not np.all(ok):
            bad = np.flatnonzero(~ok)
            vals[bad] = data.y[_k_smallest_sets(sq[bad], 1)[:, 0]]
        out[sl] = vals
    return out


@dataclass
class LocalEstimator:
    """k-NN mean (params {"k": k}) or Nadaraya-Watson average (params
    {"bandwidth": h}) over the training set; params is the only copy."""

    kind: str
    data: object
    params: dict

    def __post_init__(self):
        # the predictor checks k or the bandwidth: run it on no points
        self(self.data.X[:0])

    def __call__(self, x):
        if self.kind == "knn":
            return knn_predict(self.data, self.params["k"], x)
        return nw_predict(self.data, self.params["bandwidth"], x)


def default_grid(kind, data=None):
    """Log-spaced hyperparameter grids, each kept by tune unless replaced."""
    if kind == "krr-rbf":
        return {"bandwidth": [0.25, 0.5, 1.0, 2.0], "ridge": [1e-7, 1e-5, 1e-3, 1e-1]}
    if kind in _FEATURE_KERNELS:
        return {"ridge": [1e-9, 1e-7, 1e-5, 1e-3, 1e-1]}
    if kind == "knn":
        top = 64 if data is None else max(1, data.n // 2)
        ks = [k for k in (1, 2, 4, 8, 16, 32, 64) if k <= top]
        return {"k": ks or [1]}
    if kind == "nw":
        return {"bandwidth": [0.05, 0.1, 0.2, 0.4, 0.8, 1.6]}
    raise ValueError(f"unknown estimator kind {kind!r}")


def check_grid(kind, grid, n=None, folds=None):
    """Raise ValueError naming grid.<kind>.<param> unless tune can score
    every value: kind's parameters, each non-empty, k an integer >= 1 (not
    2.0: knn_predict and config load agree), all else finite and > 0, and,
    given n and folds (capped at n), no k above the smallest training fold
    that _fold_indices leaves."""
    fold = None if n is None else n - -(-n // min(folds, n))
    for param, values in grid.items():
        key, is_k = f"grid.{kind}.{param}", param == "k"
        if param not in default_grid(kind):
            raise ValueError(f"{key} is not a tuning parameter of {kind}")
        if not len(values):
            raise ValueError(f"{key} must be non-empty")
        if not all(isinstance(v, (int, np.integer)) and v >= 1 if is_k
                   else 0 < v < math.inf for v in values):
            rule = "integers >= 1" if is_k else "finite and > 0"
            raise ValueError(f"{key} values must be {rule}")
        if is_k and fold is not None and max(values) > fold:
            raise ValueError(
                f"{key} value {max(values)} exceeds the smallest training"
                f" fold: {fold} points at n = {n} with tune.folds = {folds}")


@dataclass(frozen=True)
class TuneResult:
    kind: str
    params: dict
    score: float
    table: tuple  # ((params, score), ...) in grid order
    folds: int
    seed: int


def _fold_indices(n, folds, seed):
    perm = np.random.default_rng(seed).permutation(n)
    return [np.sort(chunk) for chunk in np.array_split(perm, folds)]


def _combo_iter(grid):
    # keys sorted, values ascending: ties resolve to the smallest combination
    keys = sorted(grid)
    val_lists = [sorted(grid[k]) for k in keys]
    for combo in itertools.product(*val_lists):
        yield dict(zip(keys, combo))


def _halves(lo, hi):
    """The two (kept, eliminated) splits of folds lo..hi-1 at their middle."""
    mid = (lo + hi) // 2
    return ((lo, mid), (mid, hi)), ((mid, hi), (lo, mid))


def _schur_buffers(offsets):
    """Flat buffers for each recursion depth of _schur_sq_err, sized once
    for the largest node at that depth: the square buffer (each factor,
    then the kept half's Schur complement), the coupling block (eliminated
    points x kept points and y) and the kept half's y."""
    sizes = []

    def walk(lo, hi, depth):
        if hi - lo < 2:
            return
        if len(sizes) == depth:
            sizes.append([0, 0, 0])
        for (k0, k1), (x0, x1) in _halves(lo, hi):
            kept, gone = offsets[k1] - offsets[k0], offsets[x1] - offsets[x0]
            need = (max(gone, kept) ** 2, gone * (kept + 1), kept)
            sizes[depth] = [max(pair) for pair in zip(sizes[depth], need)]
            walk(k0, k1, depth + 1)

    walk(0, len(offsets) - 1, 0)
    return [[np.empty(size) for size in depth] for depth in sizes]


def _fortran(buf, rows, cols):
    """The leading rows * cols doubles of buf as a Fortran-ordered array."""
    return buf[:rows * cols].reshape((rows, cols), order="F")


def _schur_sq_err(A, y, offsets, lo, hi, buffers, depth=0):
    """Summed squared held-out residuals of folds lo..hi-1 of one node.

    A node is a symmetric positive definite system over its folds' points
    in fold order: A is a Fortran-ordered array whose lower triangle holds
    it, and y is its right-hand side.  Each half of the folds is eliminated
    from the other in turn: dpotrf on the eliminated half's block, dtrsm on
    the coupling block with y as one more column, dsyrk on the kept half's
    block and the same update of its y.  A coupling block above the
    diagonal is read as the transpose of the one below.  The kept half
    recurses on the Schur complement, whose upper triangle dsyrk leaves
    stale.  When one fold V is left, its y is
    y_V - K_VT (K_TT + ridge I)^{-1} y_T for the other points T, V's
    held-out residual, so 2 (folds - 1) factorizations score all folds.
    Every operand is Fortran-contiguous, so the f2py wrappers copy none.
    Raises LinAlgError when a factorization meets a non-positive pivot.
    """
    if hi - lo == 1:
        return float(y @ y)
    from scipy.linalg.blas import dsyrk, dtrsm
    from scipy.linalg.lapack import dpotrf

    square, coupling, kept_y = buffers[depth]
    err = 0.0
    for (k_lo, k_hi), (x_lo, x_hi) in _halves(lo, hi):
        k0, k1, x0, x1 = (offsets[f] - offsets[lo]
                          for f in (k_lo, k_hi, x_lo, x_hi))
        kept, gone = k1 - k0, x1 - x0
        L = _fortran(square, gone, gone)
        L[...] = A[x0:x1, x0:x1]
        if dpotrf(L, lower=1, clean=0, overwrite_a=1)[1]:
            raise np.linalg.LinAlgError("non-positive pivot in a CV node")
        # [W | z] = L^-1 [A_XK | y_X], so W^T W = A_KX A_XX^-1 A_XK and
        # W^T z = A_KX A_XX^-1 y_X
        C = _fortran(coupling, gone, kept + 1)
        # 64 rows at a time, so a read above the diagonal (a transpose)
        # spans few enough pages of A to stay in the TLB
        for i in range(0, gone, 64):
            r = slice(x0 + i, min(x1, x0 + i + 64))
            C[i:i + 64, :kept] = A[r, k0:k1] if x0 > k0 else A[k0:k1, r].T
        C[:, kept] = y[x0:x1]
        dtrsm(1.0, L, C, lower=1, overwrite_b=1)
        W, S = C[:, :kept], _fortran(square, kept, kept)
        S[...] = A[k0:k1, k0:k1]
        dsyrk(-1.0, W, beta=1.0, c=S, trans=1, lower=1, overwrite_c=1)
        y_kept = kept_y[:kept]
        np.subtract(y[k0:k1], W.T @ C[:, kept], out=y_kept)
        err += _schur_sq_err(S, y_kept, offsets, k_lo, k_hi, buffers,
                             depth + 1)
    return err


def _refit_sq_err(fit, data, masks):
    """Summed squared held-out residuals of one combination, folds in mask
    order: fit(training points) returns the predictor of the validation
    points of each (training, validation) mask."""
    sq_err = 0.0
    for tr, va in masks:
        train = replace(data, X=data.X[tr], y=data.y[tr], seed=None)
        resid = fit(train)(data.X[va]) - data.y[va]
        sq_err += float(resid @ resid)
    return sq_err


def _krr_cv_sq_err(kind, data, masks, combos, config, kernel_seed):
    """Summed squared held-out residuals of kernel ridge per combination.

    Each kernel's gram over all points in fold order is formed once by its
    gram method: one per krr-rbf bandwidth, as _combo_iter groups the
    combinations by bandwidth, and one for a feature kernel.  Each ridge
    is written onto the gram's diagonal and scored by one _schur_sq_err.
    A combination whose recursion meets a non-positive pivot is refit per
    fold by _refit_sq_err through _krr_fit, on the combination's kernel:
    a feature kernel keeps the width drawn for all n points."""
    _check_finite(data.y)
    order = np.concatenate([va for _, va in masks])
    offsets = np.cumsum([0] + [va.size for _, va in masks])
    X, y = data.X[order], data.y[order]
    sq_err = []
    # kernels compare by their parameters, so each group shares one kernel
    for kern, group in itertools.groupby(
            combos, lambda c: _kernel(kind, c, data, config, kernel_seed)):
        # the last gram and buffers are freed first: one of each is held
        K = buffers = None
        K = kern.gram(X, X)
        _check_finite(K)
        buffers = _schur_buffers(offsets)
        diagonal = K.diagonal().copy()
        for combo in group:
            K.flat[::K.shape[0] + 1] = diagonal + combo["ridge"]
            try:
                # K is exactly symmetric, so K.T is it in Fortran order
                sq_err.append(_schur_sq_err(K.T, y, offsets, 0, len(masks),
                                            buffers))
            except np.linalg.LinAlgError:
                sq_err.append(_refit_sq_err(
                    partial(_krr_fit, kind, kern, ridge=combo["ridge"]),
                    data, masks))
    return sq_err


def tune(kind, data, grid=None, folds=5, seed=0, config=None, kernel_seed=0):
    """Pick hyperparameters by k-fold cross validation (pooled squared error).

    The caller's grid overlays default_grid(kind, data), so a parameter it
    leaves out keeps its default list, and check_grid(kind, grid, n, folds)
    runs on the result first.  Folds are a seeded permutation split, so the
    selection is a deterministic function of (data, grid, folds, seed).
    Score ties go to the smallest parameter combination in sorted key order.

    Kernel ridge orders the points fold by fold and forms each kernel's
    gram in that order once, through the kernel's gram: one per krr-rbf
    bandwidth, one for a feature kernel.  Each combination writes its
    ridge onto the gram's diagonal and runs one recursive Schur
    elimination (_schur_sq_err): the folds split in two halves, each half
    is eliminated from the other, and the kept half recurses until one
    fold is left, whose carried y is its held-out residual.  That is
    2 (folds - 1) Cholesky factorizations, none over more than
    ceil(folds / 2) folds' points, and no solve.  Each recursion depth has
    one square buffer (each factor, then the kept half's Schur complement)
    and one coupling buffer, sized once for its largest node: at five
    folds 0.6 n^2 doubles at the top depth and 0.92 n^2 over all depths.
    The last gram and buffers are freed before the next gram is formed, so
    tuning holds about 8 * 1.92 n^2 bytes (62 MiB under tracemalloc at
    n = 2048).  A combination whose recursion meets a non-positive pivot
    is refit on each training fold by _krr_fit, the fit fit_estimator
    runs, which adds one training-fold gram and its factor buffer.

    Nadaraya-Watson takes the same refit path, _refit_sq_err: each
    training fold is fit by fit_estimator and predicts its validation
    points.

    k-NN scores every k from one list per validation point, ordered by
    (distance, index), whose first k are the neighbours `knn_predict`
    would average.
    """
    grid = {**default_grid(kind, data), **(grid or {})}
    if data.n < folds or folds < 2:
        raise ValueError("need folds >= 2 and n >= folds")
    check_grid(kind, grid, data.n, folds)
    masks = [(np.setdiff1d(np.arange(data.n), va), va)
             for va in _fold_indices(data.n, folds, seed)]
    combos = list(_combo_iter(grid))

    if kind in ("krr-rbf", "krr-ntk", "krr-rf"):
        sq_err = _krr_cv_sq_err(kind, data, masks, combos, config,
                                kernel_seed)
    elif kind == "knn":
        kmax = max(c["k"] for c in combos)
        sq_err = [0.0] * len(combos)
        for tr, va in masks:
            D = _sq_dists(data.X[va], data.X[tr])
            # the kmax nearest by the prediction tie rule, then ordered by
            # (distance, index): the head of a stable argsort of each row
            near = _k_smallest_sets(D, kmax)
            near.sort(axis=1)
            by_dist = np.argsort(np.take_along_axis(D, near, axis=1), axis=1,
                                 kind="stable")
            order = np.take_along_axis(near, by_dist, axis=1)
            csum = np.cumsum(data.y[tr][order], axis=1)
            for i, combo in enumerate(combos):
                k = combo["k"]
                resid = csum[:, k - 1] / k - data.y[va]
                sq_err[i] += float(resid @ resid)
    else:  # nw
        sq_err = [_refit_sq_err(partial(fit_estimator, kind, params=combo),
                                data, masks) for combo in combos]

    table = tuple((combo, err / data.n) for combo, err in zip(combos, sq_err))
    best, score = min(table, key=lambda row: row[1])  # first of equal scores
    return TuneResult(kind=kind, params=dict(best), score=score, table=table,
                      folds=folds, seed=seed)


def fit_estimator(kind, data, params, config=None, kernel_seed=0):
    """Fit one baseline with explicit hyperparameters; returns a predictor."""
    if kind == "knn":
        return LocalEstimator(kind, data, {"k": params["k"]})
    if kind == "nw":
        return LocalEstimator(kind, data,
                              {"bandwidth": float(params["bandwidth"])})
    return _krr_fit(kind, _kernel(kind, params, data, config, kernel_seed),
                    data, params["ridge"])


# -- serialization -----------------------------------------------------------

def save_estimator(path, est):
    """Structured-text dump: kind, hyperparameters, training set, dual coefs."""
    header = {"kind": est.kind}
    if isinstance(est, KrrEstimator):
        kern = est.kernel
        header["ridge"] = est.ridge
        if isinstance(kern, RbfKernel):
            header["bandwidth"] = kern.bandwidth
        else:
            header.update(width=kern.width, kernel_seed=kern.seed,
                          **asdict(kern.config))
        sections = [("inputs", est.X), ("dual_coef", est.dual_coef[:, None])]
    elif isinstance(est, LocalEstimator):
        header.update(sorted(est.params.items()))
        sections = [("train", np.column_stack([est.data.X, est.data.y]))]
    else:
        raise TypeError(f"cannot serialize {type(est).__name__}")
    header["n"] = len(sections[0][1])  # training points
    write_text(path, "ngdbench estimator", header, sections)

