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
from dataclasses import InitVar, asdict, dataclass, field
from functools import cached_property

import numpy as np

from .data import Dataset
from .model import (
    ScheduleConfig,
    hidden_layer,
    live_columns,
    sample_teacher,
    schedule_from_header,
    soft_clip,
    soft_clip_deriv,
    with_ones,
)
from .textio import read_text, write_text

__all__ = [
    "ESTIMATOR_KINDS",
    "RbfKernel",
    "NtkKernel",
    "RandomFeatureKernel",
    "make_kernel",
    "krr_fit",
    "knn_predict",
    "nw_predict",
    "tune",
    "TuneResult",
    "fit_estimator",
    "save_estimator",
    "load_estimator",
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


def make_kernel(kind, config=None, bandwidth=None, width=None, seed=0):
    """Kernel factory for the three krr variants."""
    if kind == "krr-rbf":
        if bandwidth is None or bandwidth <= 0:
            raise ValueError("krr-rbf needs a positive bandwidth")
        return RbfKernel(bandwidth=float(bandwidth))
    if kind in ("krr-ntk", "krr-rf"):
        if config is None or width is None:
            raise ValueError(f"{kind} needs a ScheduleConfig and a width")
        if width < 1:
            raise ValueError(f"{kind} needs a width >= 1")
        cls = NtkKernel if kind == "krr-ntk" else RandomFeatureKernel
        return cls(config=config, width=int(width), seed=int(seed))
    raise ValueError(f"unknown kernel kind {kind!r}")


def _check_finite(*arrays):
    """The ValueError scipy.linalg raises, checked once per gram (per fold
    block in tuning) so the solves below can skip it."""
    for a in arrays:
        if not np.isfinite(a).all():
            raise ValueError("array must not contain infs or NaNs")


def _solve_regularized(K, ridge, y, work):
    """(K + ridge I)^{-1} y; K and y must already be checked finite.

    K's diagonal is shifted by the ridge in place and restored on return,
    so K comes back bitwise unchanged, also when the solve raises.  The
    shifted K is copied into `work`, a C-ordered array of K's shape that the
    caller owns, and factored there: K must be exactly symmetric, as every
    gram here is, since Cholesky reads the upper triangle through work's
    Fortran-ordered transpose.  When the factorization fails (a
    semi-definite gram plus a tiny ridge can lose positivity to roundoff)
    the solve falls back to scipy's symmetric-indefinite solver.

    scipy.linalg is imported here, its only use in the package, so a
    process that solves no kernel system never loads scipy.
    """
    from scipy.linalg import cho_factor, cho_solve, solve

    diagonal = K.diagonal().copy()
    K.flat[::K.shape[0] + 1] += ridge
    try:
        np.copyto(work, K)
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

    @property
    def params(self):
        """Hyperparameters that rebuild the kernel, and the ridge."""
        if isinstance(self.kernel, RbfKernel):
            return {"bandwidth": self.kernel.bandwidth, "ridge": self.ridge}
        return {"width": self.kernel.width, "seed": self.kernel.seed,
                "ridge": self.ridge}

    def __call__(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.empty(x.shape[0])
        for sl, block in self._blocks(x):
            out[sl] = block @ self._coef
        return out


def krr_fit(kind, data, ridge, config=None, **params):
    """Solve (K + ridge I) c = y on the training gram."""
    if ridge <= 0:
        raise ValueError("ridge must be > 0")
    kernel = make_kernel(kind, config=config, **params)
    X = np.asarray(data.X, dtype=float)
    if isinstance(kernel, RbfKernel):
        F, G = None, kernel.gram(X, X)
    else:
        # one feature matrix for the gram and the primal weights
        F = kernel.features(X)
        G = F @ F.T
    _check_finite(G, data.y)
    coef = _solve_regularized(G, ridge, data.y, np.empty_like(G))
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
    if not 1 <= k <= data.n:
        raise ValueError("k must lie in [1, n]")
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
    if not bandwidth > 0:
        raise ValueError("bandwidth must be > 0")
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
    """Log-spaced hyperparameter grids used when the caller gives none."""
    if kind == "krr-rbf":
        return {"bandwidth": [0.25, 0.5, 1.0, 2.0], "ridge": [1e-7, 1e-5, 1e-3, 1e-1]}
    if kind in ("krr-ntk", "krr-rf"):
        return {"ridge": [1e-9, 1e-7, 1e-5, 1e-3, 1e-1]}
    if kind == "knn":
        top = 64 if data is None else max(1, data.n // 2)
        ks = [k for k in (1, 2, 4, 8, 16, 32, 64) if k <= top]
        return {"k": ks or [1]}
    if kind == "nw":
        return {"bandwidth": [0.05, 0.1, 0.2, 0.4, 0.8, 1.6]}
    raise ValueError(f"unknown estimator kind {kind!r}")


@dataclass(frozen=True)
class TuneResult:
    kind: str
    params: dict
    score: float
    table: tuple  # ((params, score), ...) in grid order
    folds: int
    seed: int


def _gather(D, rows, cols, out):
    """D[np.ix_(rows, cols)] written into out, through one row block of D
    at a time."""
    for sl in _row_blocks(rows.size, D.shape[1]):
        np.take(D[rows[sl]], cols, axis=1, out=out[sl], mode="clip")


def _fold_indices(n, folds, seed):
    perm = np.random.default_rng(seed).permutation(n)
    return [np.sort(chunk) for chunk in np.array_split(perm, folds)]


def _combo_iter(grid):
    # keys sorted, values ascending: ties resolve to the smallest combination
    keys = sorted(grid)
    val_lists = [sorted(grid[k]) for k in keys]
    for combo in itertools.product(*val_lists):
        yield dict(zip(keys, combo))


def _kernel_width(data):
    """Network width of the tangent and random-feature kernels at n points."""
    return max(8, data.n // 4)


def tune(kind, data, grid=None, folds=5, seed=0, config=None, kernel_seed=0):
    """Pick hyperparameters by k-fold cross validation (pooled squared error).

    Folds are a seeded permutation split, so the selection is a deterministic
    function of (data, grid, folds, seed).  Score ties go to the smallest
    parameter combination in sorted key order.

    Kernel ridge keeps one n x n array, the squared distances (krr-rbf) or
    the gram (feature kernels).  Each fold's training gram and validation
    block are gathered from it into buffers sized once for the largest
    fold, krr-rbf applying each bandwidth's exp to them in place, and every
    solve factors in one more buffer of the fold gram's size: about
    8 (n^2 + 2 m^2 + m (n - m)) bytes for a largest training fold of m.

    k-NN scores every k from one list per validation point, ordered by
    (distance, index), whose first k are the neighbours `knn_predict`
    would average.
    """
    if kind not in ESTIMATOR_KINDS:
        raise ValueError(f"unknown estimator kind {kind!r}")
    if data.n < folds or folds < 2:
        raise ValueError("need folds >= 2 and n >= folds")
    grid = grid if grid else default_grid(kind, data)
    masks = [(np.setdiff1d(np.arange(data.n), va), va)
             for va in _fold_indices(data.n, folds, seed)]
    combos = list(_combo_iter(grid))
    sq_err = [0.0] * len(combos)

    if kind in ("krr-rbf", "krr-ntk", "krr-rf"):
        bandwidths = sorted(set(c.get("bandwidth", None) for c in combos))
        _check_finite(data.y)
        # squared distances (krr-rbf) or the gram (feature kernels), from
        # which each fold's blocks are gathered
        if kind == "krr-rbf":
            kernels = [make_kernel(kind, bandwidth=bw) for bw in bandwidths]
            D = _sq_dists(data.X, data.X)
        else:
            kernels = [None] * len(bandwidths)
            D = make_kernel(kind, config=config, width=_kernel_width(data),
                            seed=kernel_seed).gram(data.X, data.X)
        # one fold gram, validation block and factor buffer for every fold
        m_max = max(tr.size for tr, _ in masks)
        gram_buf, work_buf = np.empty(m_max**2), np.empty(m_max**2)
        val_buf = np.empty(max(tr.size * va.size for tr, va in masks))
        for tr, va in masks:
            m = tr.size
            Ktr, work = (b[:m * m].reshape(m, m) for b in (gram_buf, work_buf))
            Kva = val_buf[:va.size * m].reshape(va.size, m)
            for bw, kern in zip(bandwidths, kernels):
                _gather(D, tr, tr, out=Ktr)
                _gather(D, va, tr, out=Kva)
                if kern is not None:
                    kern.from_sq_dists(Ktr, out=Ktr)
                    kern.from_sq_dists(Kva, out=Kva)
                _check_finite(Ktr, Kva)
                for i, combo in enumerate(combos):
                    if combo.get("bandwidth", None) != bw:
                        continue
                    coef = _solve_regularized(Ktr, combo["ridge"], data.y[tr],
                                              work)
                    resid = Kva @ coef - data.y[va]
                    sq_err[i] += float(resid @ resid)
    elif kind == "knn":
        kmax = max(c["k"] for c in combos)
        for tr, va in masks:
            if kmax > tr.size:
                raise ValueError("k grid exceeds training fold size")
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
        for tr, va in masks:
            sub = Dataset(X=data.X[tr], y=data.y[tr],
                          noise_bound=data.noise_bound,
                          noise_kind=data.noise_kind, seed=None)
            for i, combo in enumerate(combos):
                resid = nw_predict(sub, combo["bandwidth"], data.X[va]) - data.y[va]
                sq_err[i] += float(resid @ resid)

    table = tuple((combo, err / data.n) for combo, err in zip(combos, sq_err))
    best, score = min(table, key=lambda row: row[1])  # first of equal scores
    return TuneResult(kind=kind, params=dict(best), score=score, table=table,
                      folds=folds, seed=seed)


def fit_estimator(kind, data, params, config=None, kernel_seed=0):
    """Fit one baseline with explicit hyperparameters; returns a predictor."""
    if kind == "krr-rbf":
        return krr_fit(kind, data, params["ridge"], bandwidth=params["bandwidth"])
    if kind in ("krr-ntk", "krr-rf"):
        return krr_fit(kind, data, params["ridge"], config=config,
                       width=_kernel_width(data), seed=kernel_seed)
    if kind == "knn":
        return LocalEstimator(kind, data, {"k": int(params["k"])})
    if kind == "nw":
        return LocalEstimator(kind, data,
                              {"bandwidth": float(params["bandwidth"])})
    raise ValueError(f"unknown estimator kind {kind!r}")


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


def load_estimator(path):
    """Inverse of save_estimator; krr round trips exactly.  The header's n
    must count the training rows, at least one, and a krr file must hold one
    dual coefficient per input row.  A knn or nw training set is read back
    noise-free and unseeded, as estimator files record neither."""
    header, _, rows = read_text(path, ("inputs", "dual_coef", "train"))
    kind = header["kind"]
    section = "inputs" if kind.startswith("krr") else "train"
    n = len(rows[section])
    if int(header["n"]) != n:
        raise ValueError(f"{path}: header n = {header['n']} but {n} rows in"
                         f" {section}:")
    if not n:
        raise ValueError(f"{path}: no {section}: rows")
    if section == "train":
        train = np.asarray(rows["train"], dtype=float)
        return fit_estimator(kind, Dataset(train[:, :-1], train[:, -1],
                                           noise_bound=0.0), header)
    ridge = float(header["ridge"])
    if ridge <= 0:
        raise ValueError("ridge must be > 0")
    if kind == "krr-rbf":
        kern = make_kernel(kind, bandwidth=float(header["bandwidth"]))
    else:
        kern = make_kernel(kind, config=schedule_from_header(header),
                           width=int(header["width"]),
                           seed=int(header["kernel_seed"]))
    coef = np.asarray(rows["dual_coef"], dtype=float)
    if coef.shape != (n, 1):
        raise ValueError(f"{path}: dual_coef: has shape {coef.shape},"
                         f" expected ({n}, 1), one value per inputs: row")
    return KrrEstimator(kind=kind, kernel=kern, ridge=ridge,
                        X=np.asarray(rows["inputs"], dtype=float),
                        dual_coef=coef.ravel())
