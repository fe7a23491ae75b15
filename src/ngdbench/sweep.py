"""Deterministic excess-risk sweeps over sample size and estimator.

A sweep is a grid of independent cells (estimator, n, replicate).  Every
random stream is seeded by a fixed hash of (base seed, n, replicate, tag),
so the complete output is a pure function of the configuration text: cells
may be computed in any order, by any number of workers, and the final
results.csv is rebuilt sorted from the per-cell files each time.  Existing
cell files are never recomputed, which makes interrupted sweeps resumable
at cell granularity.

Per cell, the training set is drawn fresh (tag "data") and every estimator
for the same (n, replicate) is scored on a shared test stream (tag "test")
so estimator comparisons are paired.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

from .config import ConfigError
from .data import Dataset, generate_dataset
from .linear import ESTIMATOR_KINDS, fit_estimator, tune
from .model import TeacherSpec, bump_teacher, sample_teacher
from .ngd import ChainDivergence, NgdConfig, run_chain
from .risk import (RiskRecord, dominance_condition, excess_risk_mc,
                   linear_lower_exponents, load_records, nn_upper_exponent,
                   rate_fit, records_csv, save_records)
from .textio import FLOAT_FMT

__all__ = ["derive_seed", "CellInputs", "cell_inputs", "fit_cell",
           "resolve_teacher", "run_cell", "run_sweep", "SweepReport",
           "report", "save_report"]

RESULTS_NAME = "results.csv"
_FAILED_PREFIX = "# failed: "


def derive_seed(base_seed, n, replicate, tag):
    """Deterministic 64-bit seed for one random stream of one sweep cell.

    The encoding "base|n|replicate|tag" is injective because the first three
    parts are integers and tags never contain '|'; the hash is SHA-256, so
    distinct cells cannot collide in practice.
    """
    text = f"{base_seed}|{n}|{replicate}|{tag}"
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class CellInputs:
    """What one (n, replicate) cell draws from the config.

    teacher is the network every estimator of the cell is scored against;
    data is the training set, whose seed field is the cell's data seed; ngd
    holds the sampler's auto hyperparameters and chain seed; baseline_seeds
    maps every estimator kind to its (cv, kernel) seeds.
    """

    teacher: TeacherSpec
    data: Dataset
    test_seed: int
    ngd: NgdConfig
    baseline_seeds: dict


def cell_inputs(cfg, teacher, n, replicate):
    """Teacher, training set, seeds and sampler settings of one cell.

    The only place cell seeds are derived, so sweep cells and the single-run
    CLI commands draw identical streams.
    """
    def seed(tag):
        return derive_seed(cfg.sweep_base_seed, n, replicate, tag)

    data = generate_dataset(teacher, n, noise_bound=cfg.noise_bound,
                            noise_kind=cfg.noise_kind, seed=seed("data"))
    ngd = NgdConfig.auto(cfg.schedule, n, cfg.noise_bound, eta=cfg.ngd_eta,
                         budget=cfg.ngd_budget, seed=seed("ngd"))
    baseline_seeds = {kind: (seed(f"cv-{kind}"), seed(f"kernel-{kind}"))
                      for kind in ESTIMATOR_KINDS}
    return CellInputs(teacher=teacher, data=data, test_seed=seed("test"),
                      ngd=ngd, baseline_seeds=baseline_seeds)


def student_width(cfg, n):
    """Network width the auto rule assigns at sample size n."""
    # the width ignores eta; passing it keeps the cell's beta > eta check
    return NgdConfig.auto(cfg.schedule, n, cfg.noise_bound,
                          eta=cfg.ngd_eta).width


def fit_cell(cfg, cell, estimator):
    """Fit one estimator on the cell's training set and score it against
    cell.teacher on the cell's test stream; returns (fitted, predictor,
    risk), fitted being the ChainResult (ngd) or the TuneResult."""
    if estimator == "ngd":
        fitted = run_chain(cfg.schedule, cell.ngd, cell.data)
        predictor = fitted.averaged_predictor()
    else:
        grid = cfg.grid_for(estimator, cell.data)  # rejects unknown kinds
        cv_seed, kernel_seed = cell.baseline_seeds[estimator]
        fitted = tune(estimator, cell.data, grid=grid,
                      folds=min(cfg.tune_folds, cell.data.n), seed=cv_seed,
                      config=cfg.schedule, kernel_seed=kernel_seed)
        predictor = fit_estimator(estimator, cell.data, fitted.params,
                                  config=cfg.schedule, kernel_seed=kernel_seed)
    risk = excess_risk_mc(cell.teacher, predictor, n_test=cfg.risk_n_test,
                          seed=cell.test_seed)
    return fitted, predictor, risk


def resolve_teacher(cfg):
    """Teacher network for a sweep: explicit width, or twice the widest
    student so truncation bias stays far below the measured risks."""
    width = cfg.teacher_width
    if width is None:
        width = 2 * student_width(cfg, max(cfg.sweep_n_values))
    if cfg.teacher_kind == "bump":
        return bump_teacher(cfg.schedule, width, radius=cfg.teacher_radius)
    return sample_teacher(cfg.schedule, width, radius=cfg.teacher_radius,
                          seed=cfg.teacher_seed)


def cell_name(estimator, n, replicate):
    return f"{estimator}-n{n:06d}-r{replicate:04d}.csv"


def _write_cell(path, records=None, failed=None):
    tmp = Path(str(path) + ".tmp")
    with open(tmp, "w") as fh:
        if failed is not None:
            fh.write(_FAILED_PREFIX + failed.replace("\n", " ") + "\n")
        fh.write(records_csv(records or []))
    tmp.replace(path)


def load_cell(path):
    """Returns (records, failure message or None) for one cell file."""
    with open(path) as fh:
        first = fh.readline()
    if first.startswith(_FAILED_PREFIX):
        return [], first[len(_FAILED_PREFIX):].strip()
    return load_records(path), None


def run_cell(cfg, teacher, estimator, n, replicate):
    """Compute one sweep cell; returns (records, failure message or None).

    The cell is fit and scored by fit_cell.  A diverged chain becomes a
    failed cell rather than an exception.
    """
    cell = cell_inputs(cfg, teacher, n, replicate)
    try:
        risk = fit_cell(cfg, cell, estimator)[2]
    except ChainDivergence as exc:
        return [], f"{estimator} n={n} replicate={replicate}: {exc}"
    return [RiskRecord(estimator=estimator, n=n, seed=cell.data.seed,
                       excess_risk=risk.value, stderr=risk.stderr)], None


def _compute_cell(cfg, teacher, estimator, n, replicate, path):
    """Compute one cell and persist it; returns (file name, failure or None).

    The one cell path: the serial loop calls it directly and the worker
    pool pickles its arguments (frozen dataclasses) into each task.
    """
    records, failed = run_cell(cfg, teacher, estimator, n, replicate)
    _write_cell(path, records, failed)
    return path.name, failed


def _computed(jobs, workers):
    """Run _compute_cell on every job, serially or on a pool of workers;
    yields its results in completion order."""
    if workers <= 1:
        yield from (_compute_cell(*job) for job in jobs)
        return
    # imported here: a serial sweep never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor, as_completed

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_compute_cell, *job) for job in jobs]
        yield from (fut.result() for fut in as_completed(futures))


def run_sweep(cfg, out_dir=None, workers=1, progress=None):
    """Run (or resume) the sweep; returns the full sorted record list.

    Writes out_dir/cells/<cell>.csv per cell, the canonical sorted
    results.csv, and a copy of the canonical config text.  Already-present
    cell files (including failed ones) are kept as-is, so a completed sweep
    reruns with zero new computation and byte-identical results.  A resume
    into a directory whose config.txt differs from cfg.to_text() raises
    ConfigError and leaves the directory untouched.
    """
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    cells = out / "cells"
    cfg_text = cfg.to_text()
    config_path = out / "config.txt"
    if config_path.exists() and config_path.read_text() != cfg_text:
        raise ConfigError(f"{config_path} holds a different configuration;"
                          " its cells were computed under it, so refusing"
                          " to resume (use a fresh output directory)")
    cells.mkdir(parents=True, exist_ok=True)
    config_path.write_text(cfg_text)

    tasks = [(est, n, rep)
             for n in cfg.sweep_n_values
             for rep in range(cfg.sweep_replicates)
             for est in ("ngd",) + tuple(cfg.baselines)]
    pending = [(est, n, rep) for est, n, rep in tasks
               if not (cells / cell_name(est, n, rep)).exists()]

    if pending:
        teacher = resolve_teacher(cfg)
        jobs = [(cfg, teacher, est, n, rep, cells / cell_name(est, n, rep))
                for est, n, rep in pending]
        for name, failed in _computed(jobs, workers):
            if progress is not None:
                progress(name, failed)

    all_records = []
    failures = []
    for est, n, rep in tasks:
        records, failed = load_cell(cells / cell_name(est, n, rep))
        all_records.extend(records)
        if failed is not None:
            failures.append((cell_name(est, n, rep), failed))
    save_records(out / RESULTS_NAME, all_records)
    failed_path = out / "failed.txt"
    if failures:
        with open(failed_path, "w") as fh:
            for name, msg in sorted(failures):
                fh.write(f"{name}: {msg}\n")
    elif failed_path.exists():
        failed_path.unlink()
    return all_records


@dataclass(frozen=True)
class SweepReport:
    """Rate table plus the theoretical exponents for the configured class."""

    fits: tuple            # ((estimator, RateFit), ...) sorted by estimator
    nn_exponent: float
    lower_exponents: object   # LowerBoundExponents
    dominance: bool        # smoothness threshold for provable dominance
    verdict: str | None    # None when only one estimator is present

    def table_lines(self):
        lines = ["estimator        exponent   stderr     n-range"]
        for name, fit in self.fits:
            lines.append(f"{name:<16} {fit.exponent:>8.4f}  "
                         f"{fit.slope_stderr:>8.4f}   "
                         f"{fit.n_values[0]}..{fit.n_values[-1]}")
        return lines

    def __str__(self):
        lines = self.table_lines()
        lines.append(f"theoretical sampler exponent (q=0): "
                     f"{self.nn_exponent:.6g}")
        lines.append(str(self.lower_exponents))
        lines.append("smoothness threshold for provable dominance: "
                     + ("satisfied" if self.dominance else "not satisfied"))
        if self.verdict is not None:
            lines.append(self.verdict)
        return "\n".join(lines)


def report(records, cfg):
    """Build the rate-comparison report from sweep records.

    Every estimator present must cover at least three sample sizes.  The
    verdict compares the sampler's fitted decay exponent with each baseline
    (larger exponent = faster decay); it is omitted when the records hold a
    single estimator.
    """
    if isinstance(records, (str, Path)):
        records = load_records(records)
    if not records:
        raise ValueError("no records to report on")
    by_est = {}
    for rec in records:
        by_est.setdefault(rec.estimator, []).append(rec)
    fits = []
    for name in sorted(by_est):
        try:
            fits.append((name, rate_fit(by_est[name])))
        except ValueError as exc:
            raise ValueError(f"estimator {name!r}: {exc}") from None
    s = cfg.schedule
    nn_exp = nn_upper_exponent(s.alpha1, s.alpha2, s.gamma, q=0.0, s=s.s)
    lower = linear_lower_exponents(s.alpha1, s.alpha2, s.gamma, s.s, s.d)
    dom = dominance_condition(s.alpha1, s.d)
    verdict = None
    if len(fits) > 1:
        named = dict(fits)
        ngd_fit = named.get("ngd")
        if ngd_fit is None:
            verdict = "no sampler records: no dominance verdict"
        else:
            worse = [name for name, fit in fits
                     if name != "ngd" and ngd_fit.exponent <= fit.exponent]
            if worse:
                verdict = ("sampler does NOT dominate: slower or equal decay"
                           f" vs {', '.join(sorted(worse))}")
            else:
                verdict = "sampler dominates every baseline (faster decay)"
    return SweepReport(fits=tuple(fits), nn_exponent=nn_exp,
                       lower_exponents=lower, dominance=dom, verdict=verdict)


def save_report(out_dir, rep):
    """Write report.txt and one two-column log-log plot file per estimator."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.txt").write_text(str(rep) + "\n")
    for name, fit in rep.fits:
        with open(out / f"rate-{name}.dat", "w") as fh:
            fh.write("# log_n log_median_excess_risk\n")
            for n, med in zip(fit.n_values, fit.medians):
                fh.write(f"{FLOAT_FMT % math.log(n)} "
                         f"{FLOAT_FMT % math.log(med)}\n")
