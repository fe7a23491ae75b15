"""Synthetic regression samples: uniform covariates, bounded mean-zero noise."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import eval_network
from .textio import write_text

__all__ = ["Dataset", "generate_dataset", "empirical_risk", "save_dataset",
           "NOISE_KINDS"]

NOISE_KINDS = ("uniform", "scaled-rademacher", "none")


@dataclass(frozen=True)
class Dataset:
    """n labeled points: X in [0,1]^(n x d), y = teacher(X) + noise.

    noise_bound is the almost-sure bound U on |noise|; the estimation theory
    needs boundedness, not a particular law.
    """

    X: np.ndarray
    y: np.ndarray
    noise_bound: float
    noise_kind: str = "none"
    seed: int | None = None

    def __post_init__(self):
        # own copies: freezing the caller's arrays in place would make them
        # read-only, and a later write to them would change the dataset
        X = np.array(self.X, dtype=float)
        y = np.array(self.y, dtype=float)
        if X.ndim != 2 or y.shape != (X.shape[0],):
            raise ValueError(f"inconsistent shapes X {X.shape}, y {y.shape}")
        if self.noise_kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.noise_kind!r}")
        if not 0 <= self.noise_bound < math.inf:
            raise ValueError("noise bound must be finite and >= 0")
        X.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def d(self):
        return self.X.shape[1]


def generate_dataset(teacher, n, noise_bound, noise_kind="uniform", seed=0):
    """Draw n iid samples from the teacher model.

    Covariates are uniform on [0,1]^d.  Noise is mean-zero and bounded by
    noise_bound: "uniform" on [-U, U], "scaled-rademacher" puts +-U with
    probability 1/2 each, "none" returns exact teacher values.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if noise_kind not in NOISE_KINDS:
        raise ValueError(f"unknown noise kind {noise_kind!r}")
    rng = np.random.default_rng(seed)
    X = rng.random((n, teacher.config.d))
    y = teacher(X)
    if noise_kind == "uniform":
        y = y + rng.uniform(-noise_bound, noise_bound, size=n)
    elif noise_kind == "scaled-rademacher":
        y = y + noise_bound * rng.choice([-1.0, 1.0], size=n)
    return Dataset(X=X, y=y, noise_bound=float(noise_bound),
                   noise_kind=noise_kind, seed=seed)


def empirical_risk(config, W, data):
    """Mean squared training error of f_W on the dataset."""
    resid = eval_network(config, W, data.X) - data.y
    return float(np.mean(resid * resid))


def save_dataset(path, data):
    """Write the sample in the shared text format: noise and seed in the
    header, one `x1 .. xd y` row per point in the `train:` section."""
    write_text(path, "ngdbench dataset",
               {"noise_bound": data.noise_bound, "noise_kind": data.noise_kind,
                "seed": "none" if data.seed is None else data.seed},
               [("train", np.column_stack([data.X, data.y]))])
