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

Cell files and results.csv share one record format: only write_records
writes it and only read_records reads it.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ConfigError
from .data import Dataset, generate_dataset
from .linear import ESTIMATOR_KINDS, fit_estimator, tune
from .model import TeacherSpec, bump_teacher, sample_teacher
from .ngd import ChainDivergence, NgdConfig, run_chain
from .risk import (dominance_condition, excess_risk_mc,
                   linear_lower_exponents, nn_upper_exponent, rate_fit)
from .textio import FLOAT_FMT

__all__ = ["derive_seed", "CellInputs", "cell_inputs", "fit_cell",
           "resolve_teacher", "RiskRecord", "write_records", "read_records",
           "run_cell", "run_sweep", "PairedLevel", "SweepReport", "report",
           "save_report"]

RESULTS_NAME = "results.csv"
# the last column is a reserved 0, kept for readers of the 6-column files
_HEADER = "estimator,n,seed,excess_risk,stderr,wall_ms"
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
        grid = {p: v for kind, p, v in cfg.grids if kind == estimator}
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


@dataclass(frozen=True)
class RiskRecord:
    """One sweep cell: estimator tag, training size, replicate seed, result."""

    estimator: str
    n: int
    seed: int
    excess_risk: float
    stderr: float


def write_records(path, records, failed=None):
    """Write a record file: a `# failed: ` line when failed is given, the
    header, then one row per record sorted by (estimator, n, seed) with
    floats at 17 significant digits, so every value reads back exactly.

    The text is formatted in full, written to path.tmp and renamed over
    path, so a write that fails (on a record that is not a number, say)
    leaves path as it was.
    """
    lines = [] if failed is None else [
        _FAILED_PREFIX + failed.replace("\n", " ")]
    lines.append(_HEADER)
    lines += [f"{r.estimator},{r.n},{r.seed},{FLOAT_FMT % r.excess_risk},"
              f"{FLOAT_FMT % r.stderr},0" for r in
              sorted(records, key=lambda r: (r.estimator, r.n, r.seed))]
    _replace_text(path, "\n".join(lines) + "\n")


def _replace_text(path, text):
    """Write text to path.tmp and rename it over path, so a write that is
    interrupted or fails leaves path as it was."""
    tmp = Path(str(path) + ".tmp")
    tmp.write_text(text)
    tmp.replace(path)


def read_records(path):
    """Returns (records, failure message or None) for one record file, read
    in one pass.  A failed cell's file yields no records.  A header other
    than write_records' and a row that does not parse raise ValueError, the
    latter naming path and line."""
    with open(path) as fh:
        header = fh.readline()
        if header.startswith(_FAILED_PREFIX):
            return [], header[len(_FAILED_PREFIX):].strip()
        header = header.strip()
        if header != _HEADER:
            raise ValueError(f"{path}: unexpected header {header!r}")
        records = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                est, n, seed, risk, err, _ = line.split(",")
                records.append(RiskRecord(
                    estimator=est, n=int(n), seed=int(seed),
                    excess_risk=float(risk), stderr=float(err)))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return records, None


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
    write_records(path, records, failed)
    return path.name, failed


def _computed(jobs, workers):
    """Run _compute_cell on every job, serially or on a pool of at most one
    worker per job; yields its results in completion order.

    A raising cell stops either way: the pool cancels its queued cells and
    waits only for those already running."""
    # a fork pool starts all its workers at the first submit
    workers = min(workers, len(jobs))
    if workers <= 1:
        yield from (_compute_cell(*job) for job in jobs)
        return
    # imported here: a serial sweep never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor, as_completed

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_compute_cell, *job) for job in jobs]
        try:
            yield from (fut.result() for fut in as_completed(futures))
        finally:
            pool.shutdown(cancel_futures=True)


def run_sweep(cfg, out_dir=None, workers=1, progress=None):
    """Run (or resume) the sweep; returns the full sorted record list.

    Writes out_dir/cells/<cell>.csv per cell, the canonical sorted
    results.csv, and, when absent, config.txt: the canonical config text,
    which every later resume checks and leaves alone.  Already-present
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
    if not config_path.exists():
        _replace_text(config_path, cfg_text)

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
        records, failed = read_records(cells / cell_name(est, n, rep))
        all_records.extend(records)
        if failed is not None:
            failures.append((cell_name(est, n, rep), failed))
    write_records(out / RESULTS_NAME, all_records)
    failed_path = out / "failed.txt"
    if failures:
        _replace_text(failed_path, "".join(
            f"{name}: {msg}\n" for name, msg in sorted(failures)))
    elif failed_path.exists():
        failed_path.unlink()
    return all_records


@dataclass(frozen=True)
class PairedLevel:
    """ngd against one baseline on the records paired by (n, seed), the
    cell's data seed, at the largest n with pairs (None if there are none).
    """

    baseline: str
    n: int | None
    wins: int              # pairs in which ngd's risk is the lower
    pairs: int
    median_ratio: float    # median over the pairs of ngd / baseline risk

    @property
    def won(self):
        """ngd wins a strict majority of the pairs."""
        return 2 * self.wins > self.pairs

    def __str__(self):
        if self.n is None:
            return f"level vs {self.baseline}: no paired records"
        return (f"level vs {self.baseline} at n = {self.n}: ngd wins "
                f"{self.wins}/{self.pairs} pairs, median paired ratio "
                f"ngd/{self.baseline} {self.median_ratio:.3g}")


def _paired_level(ngd_records, baseline, records):
    """The PairedLevel of ngd's records against one baseline's."""
    ngd_risk = {(r.n, r.seed): r.excess_risk for r in ngd_records}
    by_n = {}
    for r in records:
        if (r.n, r.seed) in ngd_risk:
            by_n.setdefault(r.n, []).append((ngd_risk[r.n, r.seed],
                                             r.excess_risk))
    if not by_n:
        return PairedLevel(baseline, None, 0, 0, math.nan)
    n = max(by_n)
    pairs = by_n[n]
    ratio = float(np.median([a / b for a, b in pairs]))
    return PairedLevel(baseline, n, wins=sum(a < b for a, b in pairs),
                       pairs=len(pairs), median_ratio=ratio)


@dataclass(frozen=True)
class SweepReport:
    """Rate table plus the theoretical exponents for the configured class."""

    fits: tuple            # ((estimator, RateFit), ...) sorted by estimator
    nn_exponent: float
    lower_exponents: object   # LowerBoundExponents
    dominance: bool        # smoothness threshold for provable dominance
    levels: tuple          # PairedLevel per baseline; () without a verdict
    verdict: str | None    # None when only one estimator is present

    def table_lines(self):
        lines = ["estimator        exponent   stderr     n-range"
                 "      exponent -+ 2 stderr"]
        for name, fit in self.fits:
            n_range = f"{fit.n_values[0]}..{fit.n_values[-1]}"
            lines.append(f"{name:<16} {fit.exponent:>8.4f}  "
                         f"{fit.slope_stderr:>8.4f}   {n_range:<12} "
                         "[{:.4f}, {:.4f}]".format(*fit.interval))
        return lines

    def __str__(self):
        lines = self.table_lines() + [str(lv) for lv in self.levels]
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
    verdict, omitted when the records hold a single estimator, has two
    parts.  "rate" compares the sampler's fitted decay exponent with each
    baseline's (larger exponent = faster decay) through their exponent
    -+ 2 stderr intervals: faster or slower only when the intervals are
    disjoint, "not resolved" when they overlap.  "level" pairs the sampler
    with each baseline by (n, seed) at the largest paired n and counts a win
    when the sampler's risk is lower in a strict majority of the pairs.  The
    sampler dominates only when it wins both parts against every baseline.
    """
    if isinstance(records, (str, Path)):
        records = read_records(records)[0]
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
    verdict, levels = None, ()
    if len(fits) > 1:
        named = dict(fits)
        ngd_fit = named.get("ngd")
        if ngd_fit is None:
            verdict = "no sampler records: no dominance verdict"
        else:
            low, high = ngd_fit.interval
            bases = [(name, *fit.interval) for name, fit in fits
                     if name != "ngd"]
            slower = [name for name, b_low, _ in bases if high < b_low]
            unresolved = [name for name, b_low, b_high in bases
                          if not (low > b_high or high < b_low)]
            levels = tuple(_paired_level(by_est["ngd"], name, by_est[name])
                           for name in named if name != "ngd")
            lost = [lv.baseline for lv in levels if not lv.won]
            parts = [f"{what} vs {', '.join(names)}" for what, names
                     in (("slower decay", slower),
                         ("not resolved", unresolved)) if names]
            rate = "rate: " + (" and ".join(parts) if parts
                               else "faster decay than every baseline")
            level = ("level: wins most pairs vs every baseline" if not lost
                     else "level: wins at most half the pairs vs "
                     + ", ".join(lost))
            head = ("sampler dominates every baseline"
                    if not slower + unresolved + lost
                    else "sampler does NOT dominate")
            verdict = f"{head} ({rate}; {level})"
    return SweepReport(fits=tuple(fits), nn_exponent=nn_exp,
                       lower_exponents=lower, dominance=dom, levels=levels,
                       verdict=verdict)


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
