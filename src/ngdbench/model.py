"""Clipped two-layer networks with polynomially scheduled per-node scales.

The function class is

    f_W(x) = sum_m  amp(m) * soft_clip(w2_m, R) * act_m(w1_m . [x; 1])

where block m carries a first-layer vector w1_m in R^(d+1) (last coordinate
multiplies the appended constant 1) and a scalar second-layer weight w2_m.
Per-block scales follow power schedules of mu(m) = c_mu * m^-2: the output
amplitude amp(m) = mu^alpha1 and the activation width width(m) = mu^alpha2,
with act_m(u) = width^s * sigmoid(u / width).

Weights are stored as float arrays of shape (M, d+2); rows are blocks, the
last column is w2.  A narrower weight vector is identified with any wider one
by zero padding, which changes neither the function nor any norm.

Only live blocks are evaluated.  Block m is live when its gradient scale
amp(m) * width(m)^(s-1) exceeds float64 eps times block 1's; the scale
falls strictly with m, so the live blocks are a prefix 1..a with
a = active_width(config, M).  eval_network, the chain's gradient kernel and
the tangent and random-feature maps all read the live blocks through
live_blocks, and leaving out the others moves f_W(x) by at most
R * sum_{m > a} amp(m) * width(m)^s.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .textio import write_text

__all__ = [
    "ScheduleConfig",
    "TeacherSpec",
    "sigmoid",
    "soft_clip",
    "soft_clip_deriv",
    "active_width",
    "live_blocks",
    "live_columns",
    "hidden_layer",
    "eval_network",
    "h_norm",
    "hgamma_norm",
    "sample_teacher",
    "bump_teacher",
    "save_teacher",
    "save_weights",
]


def _neg_logistic(v):
    """In place: v <- 1 / (1 + exp(v)), the logistic of -v; returns v.

    Where exp(v) overflows the result is exactly 0, and NaN stays NaN.  The
    caller holds np.errstate(over="ignore")."""
    np.exp(v, v)
    v += 1.0
    return np.reciprocal(v, v)


def sigmoid(u):
    """The logistic function 1/(1+exp(-u)): _neg_logistic on a negated float
    copy of u, so it is the chain's logistic bitwise.  Exactly 0 and 1 where
    it saturates; a float64 scalar for scalar input."""
    v = np.array(u, dtype=float)
    np.negative(v, out=v)
    with np.errstate(over="ignore"):
        return _neg_logistic(v)[()]


def soft_clip(w, R):
    """Smooth clip R*tanh(w/R): identity near 0, bounded by R, 1-Lipschitz."""
    return R * np.tanh(np.asarray(w, dtype=float) / R)


def soft_clip_deriv(w, R):
    """d/dw of soft_clip: 1 - tanh(w/R)^2, in (0, 1]."""
    t = np.tanh(np.asarray(w, dtype=float) / R)
    return 1.0 - t * t


# admissibility clauses a ScheduleConfig must satisfy, checked on construction
_ASSUMPTION_CLAUSES = (
    # an infinite R passes R >= 1 and overflows the chain; an infinite s or
    # alpha2 makes every block scale b_m^s 0, so every network is 0
    ("all parameters finite",
     lambda c: all(math.isfinite(getattr(c, f.name)) for f in fields(c))),
    ("d >= 1", lambda c: c.d >= 1),
    ("R >= 1", lambda c: c.R >= 1.0),
    ("gamma > 0", lambda c: c.gamma > 0.0),
    ("alpha1 > 1/2", lambda c: c.alpha1 > 0.5),
    ("alpha2 > gamma/2", lambda c: c.alpha2 > c.gamma / 2.0),
    ("s >= 3", lambda c: c.s >= 3.0),
    ("c_mu > 0", lambda c: c.c_mu > 0.0),
    # widths must not exceed 1 or the scaled activations (sup b_m^s) leave
    # the unit ball; b_m = (c_mu m^-2)^alpha2 peaks at m = 1
    ("b_m <= 1 (needs c_mu <= 1)", lambda c: c.c_mu <= 1.0),
)


@dataclass(frozen=True)
class ScheduleConfig:
    """Input dimension, clip level, and the power-schedule exponents.

    Parameters
    ----------
    d : int
        Input dimension; covariates live in [0, 1]^d.
    R : float
        Soft-clip level for second-layer weights, >= 1.
    gamma : float
        Norm-weighting exponent of the target class (source smoothness).
    alpha1 : float
        Amplitude schedule exponent, > 1/2 so total amplitude is summable.
    alpha2 : float
        Activation width schedule exponent, > gamma/2.
    s : float
        Activation output power, >= 3 (keeps scaled sigmoids and their first
        two derivatives uniformly bounded).
    c_mu : float
        Leading constant of mu(m) = c_mu * m^-2.

    Construction rejects parameter sets violating any admissibility clause,
    naming every clause that fails.
    """

    d: int
    R: float = 1.0
    gamma: float = 1.0
    alpha1: float = 1.0
    alpha2: float = 4.0
    s: float = 3.0
    c_mu: float = 1.0

    def __post_init__(self):
        failures = [clause for clause, ok in _ASSUMPTION_CLAUSES if not ok(self)]
        if failures:
            raise ValueError("inadmissible schedule: " + "; ".join(failures))

    @property
    def sigma_bound(self):
        """Sup over u and the first 8 blocks of the scaled activation's first
        three derivatives.

        The scaled activation is b^s sigmoid(u/b), so derivative j has sup
        b^(s-j) sup_z |sigmoid^(j)(z)|.  Those sups are exact: with
        p = sigmoid(z), |p(1-p)| peaks at p = 1/2 (1/4), |p(1-p)(1-2p)| at
        p = 1/2 +- sqrt(3)/6 (sqrt(3)/18) and |p(1-p)(1-6p+6p^2)| at p = 1/2
        (1/8).
        """
        d1, d2, d3 = 0.25, math.sqrt(3.0) / 18.0, 0.125
        bound = 0.0
        for m in range(1, 9):
            b = (self.c_mu * m ** -2.0) ** self.alpha2
            bound = max(bound, b ** (self.s - 1) * d1, b ** (self.s - 2) * d2,
                        b ** (self.s - 3) * d3)
        return float(bound)

    # -- schedules (m is 1-based, scalar or array) --

    def mu(self, m):
        """Block scale mu(m) = c_mu * m^-2."""
        return self.c_mu * np.asarray(m, dtype=float) ** -2.0

    def amp(self, m):
        """Output amplitude schedule mu(m)^alpha1."""
        return self.mu(m) ** self.alpha1

    def width(self, m):
        """Activation width schedule mu(m)^alpha2."""
        return self.mu(m) ** self.alpha2


def _as_weight_matrix(config, W):
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[1] != config.d + 2:
        raise ValueError(f"weights must have shape (M, {config.d + 2}), got {W.shape}")
    return W


def with_ones(x, d):
    """Append the constant-1 coordinate: [x; 1].  x is (d,) or (n, d)."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != d:
        raise ValueError(f"expected points in R^{d}, got shape {x.shape}")
    X1 = np.concatenate([x, np.ones((x.shape[0], 1))], axis=1)
    return X1, single


def active_width(config, M):
    """Number of live blocks of an M-block network (see the module
    docstring): those whose gradient scale amp(m) * width(m)^(s-1) exceeds
    float64 eps times block 1's."""
    m = np.arange(1, M + 1)
    with np.errstate(under="ignore"):
        scale = config.amp(m) * config.width(m) ** (config.s - 1.0)
    return int(np.count_nonzero(scale > np.finfo(float).eps * scale[:1]))


def live_blocks(config, M):
    """amp(m) and width(m) of the live blocks m = 1..active_width(config, M)."""
    m = np.arange(1, active_width(config, M) + 1)
    return config.amp(m), config.width(m)


def live_columns(config, stack):
    """The live blocks of a stack (S, M, d+2) as S*a columns, snapshot-major.

    Returns (VT, w2, amp, width): VT (d+1, S*a) is the first layer divided
    by -width(m), the operand of hidden_layer; w2, amp and width hold each
    column's output weight and schedule values.
    """
    S, M, dp2 = stack.shape
    amp, b = live_blocks(config, M)
    W = stack[:, :amp.size].reshape(-1, dp2)
    b = np.tile(b, S)
    VT = np.ascontiguousarray((W[:, :-1] * (-1.0 / b)[:, None]).T)
    return VT, W[:, -1], np.tile(amp, S), b


def hidden_layer(X1, VT, out=None):
    """sigmoid(w1 . [x; 1] / width) at each row of X1 = [x; 1] and each
    column of VT from live_columns, written to `out` when given."""
    with np.errstate(over="ignore"):
        return _neg_logistic(np.dot(X1, VT, out=out))


# element cap of one (points x columns) temporary of eval_network: 2**18
# doubles = 2 MB
_AVERAGE_CHUNK = 1 << 18


def eval_network(config, W, x):
    """Evaluate f_W at x; x is a point (d,) or a batch (n, d).

    W is one weight matrix (M, d+2) or a stack (S, M, d+2), whose networks
    are averaged.  Every (snapshot, live block) pair is one column, so a
    chunk of points costs one matmul; chunks hold at most _AVERAGE_CHUNK
    doubles.  Returns a float for a single point, an (n,) array for a batch.
    """
    W = np.asarray(W, dtype=float)
    if W.ndim not in (2, 3) or W.shape[-1] != config.d + 2:
        raise ValueError(f"weights must have shape (M, {config.d + 2}) or"
                         f" (S, M, {config.d + 2}), got {W.shape}")
    stack = W[None] if W.ndim == 2 else W
    X1, single = with_ones(x, config.d)
    VT, w2, amp, b = live_columns(config, stack)
    coef = amp * b**config.s * soft_clip(w2, config.R)
    rows = max(1, _AVERAGE_CHUNK // max(1, coef.size))
    buf = np.empty((min(rows, X1.shape[0]), coef.size))
    out = np.empty(X1.shape[0])
    for i in range(0, X1.shape[0], rows):
        Xi = X1[i:i + rows]
        np.dot(hidden_layer(Xi, VT, buf[:Xi.shape[0]]), coef,
               out=out[i:i + rows])
    out /= stack.shape[0]
    return float(out[0]) if single else out


def h_norm(W):
    """Euclidean norm over all weight coordinates."""
    return float(np.sqrt(np.sum(np.asarray(W, dtype=float) ** 2)))


def hgamma_norm(config, W, g=None):
    """Weighted norm with per-block weights mu(m)^-g; g defaults to gamma.

    g = 0 recovers h_norm.  Wider zero-padded copies have identical norms.
    """
    if g is None:
        g = config.gamma
    if g < 0:
        raise ValueError("norm exponent g must be >= 0")
    W = _as_weight_matrix(config, W)
    if W.shape[0] == 0:
        return 0.0
    m = np.arange(1, W.shape[0] + 1)
    block_sq = np.sum(W * W, axis=1)
    return float(np.sqrt(np.sum(block_sq * config.mu(m) ** -g)))


@dataclass(frozen=True)
class TeacherSpec:
    """A fixed target network with recorded norm-ball radius.

    The radius is the weighted norm hgamma_norm(config, weights); membership
    in the unit ball (radius <= 1) is what the estimation theory assumes.
    """

    config: ScheduleConfig
    weights: np.ndarray
    radius: float
    seed: int | None = None
    kind: str = "gaussian"

    def __post_init__(self):
        # own copy, so the caller's array stays writeable and apart
        W = _as_weight_matrix(self.config, self.weights).copy()
        W.setflags(write=False)
        object.__setattr__(self, "weights", W)
        if not 0.0 < self.radius <= 1.0:
            raise ValueError("teacher radius must lie in (0, 1]")

    @property
    def width(self):
        return self.weights.shape[0]

    def __call__(self, x):
        return eval_network(self.config, self.weights, x)

    def tail_amplitude(self, student_width):
        """Bound on the teacher mass a student of given width cannot express:
        R * sum_{m > student_width} amp(m)."""
        m = np.arange(student_width + 1, self.width + 1)
        if m.size == 0:
            return 0.0
        return float(self.config.R * np.sum(self.config.amp(m)))


def _gaussian_hg_draw(config, width, rng):
    """Standard normal draw in the mu^(gamma/2)-scaled block geometry."""
    raw = rng.standard_normal((width, config.d + 2))
    m = np.arange(1, width + 1)
    scaled = raw * (config.mu(m) ** (config.gamma / 2.0))[:, None]
    return raw, scaled


def sample_teacher(config, width, radius=1.0, seed=0):
    """Draw a teacher uniformly-directionally in the weighted-norm ball shell.

    Per-coordinate Gaussians are scaled by mu(m)^(gamma/2) and then the whole
    vector is renormalized so hgamma_norm equals `radius` exactly.
    TeacherSpec rejects radii outside (0, 1].
    """
    rng = np.random.default_rng(seed)
    raw, scaled = _gaussian_hg_draw(config, width, rng)
    norm = np.sqrt(np.sum(raw * raw))
    if norm == 0.0:
        raise RuntimeError("degenerate zero draw")
    W = scaled * (radius / norm)
    return TeacherSpec(config=config, weights=W, radius=radius, seed=seed,
                       kind="gaussian")


def bump_teacher(config, width, radius=1.0):
    """Deterministic one-active-node teacher: a single scheduled ridge bump.

    Block 1 gets w1 proportional to [u; -u.c] (a ridge along the diagonal
    u = 1/sqrt(d) through the cube's center c = 0.5) and w2 topped up so the
    weighted norm is exactly `radius`; every other block is zero.
    Worst-case-style target for experiments probing the resolution of a
    single node.
    """
    d = config.d
    c = np.full(d, 0.5)
    u = np.ones(d)
    u /= np.linalg.norm(u)
    v = np.concatenate([u, [-float(u @ c)]])
    mu_1 = float(config.mu(1))
    rt = mu_1 ** (config.gamma / 2.0)
    W = np.zeros((width, d + 2))
    # half the norm budget in the ridge direction, half in the output weight
    W[0, :-1] = rt * radius * v / (np.linalg.norm(v) * np.sqrt(2.0))
    block_sq = float(np.sum(W[0, :-1] ** 2))
    W[0, -1] = np.sqrt(max(mu_1**config.gamma * radius**2 - block_sq, 0.0))
    return TeacherSpec(config=config, weights=W, radius=radius, seed=None,
                       kind="bump")


# -- structured-text serialization ------------------------------------------

# ScheduleConfig's fields with their text parsers, in declaration order (the
# annotations are strings here).  Configs read the schedule through this
# table, and every text format writes it with dataclasses.asdict.
SCHEDULE_FIELDS = {f.name: int if f.type == "int" else float
                   for f in fields(ScheduleConfig)}


def save_teacher(path, teacher):
    """Write a teacher to a self-describing text file (17 sig digits)."""
    header = dict(asdict(teacher.config), M=teacher.width,
                  seed="none" if teacher.seed is None else teacher.seed,
                  radius=teacher.radius, kind=teacher.kind)
    write_text(path, "ngdbench teacher", header, [("blocks", teacher.weights)])


def save_weights(path, config, weights, extra=None):
    """Write one weight matrix (or a stack of snapshots) as structured text.

    `weights` is (M, d+2) or (S, M, d+2).  `extra` is an optional dict of
    additional header lines (ints, floats or strings).
    """
    W = np.asarray(weights, dtype=float)
    stack = W[None, ...] if W.ndim == 2 else W
    if stack.ndim != 3 or stack.shape[2] != config.d + 2:
        raise ValueError(f"bad weight shape {W.shape}")
    header = dict(asdict(config), M=stack.shape[1], snapshots=stack.shape[0])
    header.update(extra or {})
    write_text(path, "ngdbench weights", header,
               [("blocks", stack.reshape(-1, config.d + 2))])
