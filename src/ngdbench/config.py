"""Experiment configuration: a line-oriented `key = value` text format.

Dotted keys group related settings (schedule.*, teacher.*, noise.*, ngd.*,
tune.*, sweep.*, risk.*, output.*, lemma.*, grid.<estimator>.<param>).
Full-line `#` comments and blank lines are ignored.  Unknown keys, duplicate
keys and malformed values are reported with their line numbers.  to_text()
emits a canonical form that parses back to an identical configuration, which
is what makes sweep outputs reproducible from the config file alone.  One
key table (_KEYS) drives parsing, defaults and to_text().
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .data import NOISE_KINDS
from .linear import ESTIMATOR_KINDS, check_grid, default_grid
from .lowerbound import BumpApproxConfig
from .model import SCHEDULE_FIELDS, ScheduleConfig
from .textio import format_text, parse_text

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "load_config"]

TEACHER_KINDS = ("gaussian", "bump")


class ConfigError(ValueError):
    """Raised for unknown keys, duplicates, or values that fail to parse."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a sweep, a single training run, or the lemma demo needs."""

    schedule: ScheduleConfig = field(default_factory=lambda: ScheduleConfig(d=2))
    teacher_radius: float = 1.0
    teacher_seed: int = 0
    teacher_kind: str = "gaussian"
    teacher_width: int | None = None  # None: 2x the widest student network
    noise_bound: float = 0.1
    noise_kind: str = "uniform"
    ngd_eta: float = 0.5
    ngd_budget: float = 50.0
    baselines: tuple = ("krr-rbf", "knn")
    grids: tuple = ()  # ((kind, param, (values...)), ...) overriding defaults
    tune_folds: int = 5
    sweep_n_values: tuple = (64, 128, 256)
    sweep_replicates: int = 3
    sweep_base_seed: int = 0
    risk_n_test: int = 100_000
    output_dir: str = "results"
    lemma: BumpApproxConfig = field(
        default_factory=lambda: BumpApproxConfig(d=1, h=0.25, center=(0.5,)))

    def __post_init__(self):
        if not 0.0 < self.teacher_radius <= 1.0:
            raise ConfigError("teacher.radius must lie in (0, 1]")
        if self.teacher_kind not in TEACHER_KINDS:
            raise ConfigError(f"teacher.kind must be one of {TEACHER_KINDS}")
        if self.teacher_width is not None and self.teacher_width < 1:
            raise ConfigError("teacher.width must be >= 1 or auto")
        if not 0 <= self.noise_bound < math.inf:
            raise ConfigError("noise.bound must be finite and >= 0")
        if self.noise_kind not in NOISE_KINDS:
            raise ConfigError(f"noise.kind must be one of {NOISE_KINDS}")
        for key, value in (("ngd.eta", self.ngd_eta),
                           ("ngd.budget", self.ngd_budget)):
            if not 0 < value < math.inf:
                raise ConfigError(f"{key} must be finite and > 0")
        for kind in self.baselines:
            if kind not in ESTIMATOR_KINDS:
                raise ConfigError(f"unknown baseline {kind!r}")
        if len(set(self.baselines)) != len(self.baselines):
            raise ConfigError("baselines repeats an estimator")
        if self.tune_folds < 2:
            raise ConfigError("tune.folds must be >= 2")
        if not self.sweep_n_values:
            raise ConfigError("sweep.n_values must be non-empty")
        if any(n < 4 for n in self.sweep_n_values):
            raise ConfigError("sweep.n_values entries must be >= 4")
        if len(set(self.sweep_n_values)) != len(self.sweep_n_values):
            raise ConfigError("sweep.n_values repeats a sample size")
        # the sweep tunes only its baselines, on as few as min(n) points
        at_n = (min(self.sweep_n_values), self.tune_folds)
        for kind, param, values in self.grids:
            try:
                check_grid(kind, {param: values},
                           *(at_n if kind in self.baselines else ()))
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
        if self.sweep_replicates < 1:
            raise ConfigError("sweep.replicates must be >= 1")
        if self.risk_n_test < 2:
            raise ConfigError("risk.n_test must be >= 2")
        object.__setattr__(self, "sweep_n_values",
                           tuple(sorted(self.sweep_n_values)))

    def to_text(self):
        """Canonical text form; parse_config(to_text()) round-trips."""
        header = {}
        for key in _KEYS:
            group, _, name = key.partition(".")
            if group in _NESTED:
                value = getattr(getattr(self, group), name)
            else:
                value = getattr(self, key.replace(".", "_"))
            header[key] = "auto" if value is None else value
            if key == "baselines":
                header.update((f"grid.{kind}.{param}", values)
                              for kind, param, values in sorted(self.grids))
        return format_text("experiment configuration", header)


def _parse_int_list(text):
    return tuple(int(part.strip()) for part in text.split(","))


def _parse_float_list(text):
    return tuple(float(part.strip()) for part in text.split(","))


def _parse_str_list(text):
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _parse_width(text):
    return None if text.lower() == "auto" else int(text)


# schedule.* and lemma.* keys set fields of these nested configs
_NESTED = ("schedule", "lemma")

# Every key with its parser, in canonical to_text() order.  A key outside
# _NESTED sets the ExperimentConfig attribute key.replace(".", "_"); a key
# left out of the text keeps that attribute's default.  grid.<kind>.<param>
# keys name a parameter of the estimator's default_grid instead.
_KEYS = {
    **{f"schedule.{name}": parse for name, parse in SCHEDULE_FIELDS.items()},
    "teacher.radius": float,
    "teacher.seed": int,
    "teacher.kind": str,
    "teacher.width": _parse_width,
    "noise.bound": float,
    "noise.kind": str,
    "ngd.eta": float,
    "ngd.budget": float,
    "baselines": _parse_str_list,
    "tune.folds": int,
    "sweep.n_values": _parse_int_list,
    "sweep.replicates": int,
    "sweep.base_seed": int,
    "risk.n_test": int,
    "output.dir": str,
    "lemma.d": int,
    "lemma.h": float,
    "lemma.center": _parse_float_list,
    "lemma.direction_radius": float,
    "lemma.quad_a": int,
    "lemma.quad_b": int,
    "lemma.grid": int,
    "lemma.offset_factor": float,
}


def _parser(key):
    """The value parser for a key, None for an unknown key."""
    parts = key.split(".")
    if len(parts) == 3 and parts[0] == "grid":
        if parts[1] not in ESTIMATOR_KINDS or parts[2] not in default_grid(parts[1]):
            return None
        return _parse_int_list if parts[2] == "k" else _parse_float_list
    return _KEYS.get(key)


def parse_config(text, source="<config>"):
    """Parse configuration text into an ExperimentConfig.

    Raises ConfigError naming the offending line for unknown or duplicate
    keys and unparseable values, and for semantically invalid combinations.
    """
    try:
        header, lines = parse_text(text, source)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    top, grids = {}, []
    nested = {group: {} for group in _NESTED}
    for key, val in header.items():
        parse = _parser(key)
        if parse is None:
            raise ConfigError(f"{source}:{lines[key]}: unknown key {key!r}")
        try:
            value = parse(val)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lines[key]}: bad value for"
                              f" {key!r}: {exc}") from None
        group, _, name = key.partition(".")
        if group == "grid":
            grids.append((*name.split("."), value))
        elif group in nested:
            nested[group][name] = value
        else:
            top[key.replace(".", "_")] = value

    base = ExperimentConfig()
    lemma = nested["lemma"]
    lemma.setdefault("center", (0.5,) * lemma.get("d", base.lemma.d))
    lemma.setdefault("offset_factor", None)  # derived from lemma.d
    for group in _NESTED:
        try:
            top[group] = replace(getattr(base, group), **nested[group])
        except ValueError as exc:
            raise ConfigError(f"{source}: {group}.*: {exc}") from None
    try:
        return ExperimentConfig(grids=tuple(sorted(grids)), **top)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def load_config(path):
    """Read and parse a configuration file."""
    with open(path) as fh:
        return parse_config(fh.read(), source=str(path))
