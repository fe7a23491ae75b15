"""Synthetic regression samples: uniform covariates, bounded mean-zero noise."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import eval_network
from .textio import FLOAT_FMT

__all__ = ["Dataset", "generate_dataset", "empirical_risk", "save_dataset",
           "load_dataset", "NOISE_KINDS"]

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
        if self.noise_bound < 0:
            raise ValueError("noise bound must be >= 0")
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
    """Write the sample as CSV: header x1..xd,y then one row per point."""
    cols = [f"x{j + 1}" for j in range(data.d)] + ["y"]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        fh.write(f"# noise_bound = {FLOAT_FMT % data.noise_bound}\n")
        fh.write(f"# noise_kind = {data.noise_kind}\n")
        fh.write(f"# seed = {'none' if data.seed is None else data.seed}\n")
        for xi, yi in zip(data.X, data.y):
            row = [FLOAT_FMT % v for v in xi] + [FLOAT_FMT % yi]
            fh.write(",".join(row) + "\n")


def load_dataset(path):
    """Read a CSV written by save_dataset; round trip is exact."""
    meta = {"noise_bound": "0", "noise_kind": "none", "seed": "none"}
    rows = []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header[-1] != "y":
            raise ValueError(f"{path}: expected trailing y column")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, val = line[1:].partition("=")
                meta[key.strip()] = val.strip()
                continue
            rows.append([float(tok) for tok in line.split(",")])
    arr = np.asarray(rows, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != len(header):
        raise ValueError(f"{path}: ragged or empty data")
    seed = None if meta["seed"] == "none" else int(meta["seed"])
    return Dataset(X=arr[:, :-1], y=arr[:, -1],
                   noise_bound=float(meta["noise_bound"]),
                   noise_kind=meta["noise_kind"], seed=seed)
