"""Deterministic sweep runner: seeding, cells, resume, report."""

import hashlib
import multiprocessing
import time
from dataclasses import replace
from pathlib import Path

import pytest

import ngdbench.sweep as sweep_module
from ngdbench.config import (ConfigError, ExperimentConfig, load_config,
                             parse_config)
from ngdbench.model import ScheduleConfig
from ngdbench.ngd import ChainDivergence, NgdConfig
from ngdbench.sweep import (
    RESULTS_NAME,
    RiskRecord,
    cell_name,
    derive_seed,
    read_records,
    report,
    resolve_teacher,
    run_cell,
    run_sweep,
    save_report,
    student_width,
    write_records,
)

TINY_TEXT = """\
schedule.d = 1
schedule.alpha2 = 1
noise.bound = 0.1
ngd.eta = 0.25
ngd.budget = 2
baselines = knn
grid.knn.k = 1, 2
tune.folds = 4
sweep.n_values = 8, 16, 32
sweep.replicates = 2
risk.n_test = 400
"""


def tiny_config(**overrides):
    lines = [ln for ln in TINY_TEXT.splitlines()
             if ln.split("=")[0].strip() not in overrides]
    lines += [f"{key} = {val}" for key, val in overrides.items()]
    return parse_config("\n".join(lines) + "\n")


class TestSeeding:
    """The documented cell-seed hash."""

    def test_matches_documented_encoding(self):
        digest = hashlib.sha256(b"3|128|2|data").digest()
        want = int.from_bytes(digest[:8], "big")
        assert derive_seed(3, 128, 2, "data") == want

    def test_distinct_streams(self):
        seeds = {derive_seed(0, n, rep, tag)
                 for n in (64, 128) for rep in (0, 1)
                 for tag in ("data", "test", "ngd", "cv-knn")}
        assert len(seeds) == 16

    def test_base_seed_shifts_everything(self):
        assert derive_seed(0, 64, 0, "data") != derive_seed(1, 64, 0, "data")


class TestTeacherResolution:
    """Teacher width defaults to twice the widest student."""

    def test_auto_width(self):
        cfg = tiny_config()
        expected = 2 * student_width(cfg, 32)
        assert resolve_teacher(cfg).width == expected

    def test_explicit_width(self):
        cfg = tiny_config(**{"teacher.width": 7})
        assert resolve_teacher(cfg).width == 7

    def test_bump_kind(self):
        cfg = tiny_config(**{"teacher.kind": "bump", "teacher.width": 3})
        assert resolve_teacher(cfg).kind == "bump"

    def test_student_width_matches_auto_rule(self):
        cfg = tiny_config()
        auto = NgdConfig.auto(cfg.schedule, 32, cfg.noise_bound,
                              eta=cfg.ngd_eta, budget=cfg.ngd_budget)
        assert student_width(cfg, 32) == auto.width


class TestRunCell:
    """One (estimator, n, replicate) unit of work."""

    def test_ngd_cell_single_record(self):
        cfg = tiny_config()
        teacher = resolve_teacher(cfg)
        records, failed = run_cell(cfg, teacher, "ngd", 8, 0)
        assert failed is None
        assert [r.estimator for r in records] == ["ngd"]
        rec = records[0]
        assert rec.n == 8
        assert rec.seed == derive_seed(0, 8, 0, "data")
        assert rec.excess_risk >= 0.0

    def test_baseline_cell_deterministic(self):
        cfg = tiny_config()
        teacher = resolve_teacher(cfg)
        a, _ = run_cell(cfg, teacher, "knn", 16, 1)
        b, _ = run_cell(cfg, teacher, "knn", 16, 1)
        assert a == b

    def test_estimators_share_data_and_test_streams(self):
        cfg = tiny_config()
        teacher = resolve_teacher(cfg)
        ngd_rec, _ = run_cell(cfg, teacher, "ngd", 8, 0)
        knn_rec, _ = run_cell(cfg, teacher, "knn", 8, 0)
        assert ngd_rec[0].seed == knn_rec[0].seed  # same training draw

    def test_diverged_chain_becomes_failed_cell(self, monkeypatch):
        import ngdbench.sweep as sweep_mod
        def boom(*args, **kwargs):
            raise ChainDivergence("weights exploded")
        monkeypatch.setattr(sweep_mod, "run_chain", boom)
        cfg = tiny_config()
        teacher = resolve_teacher(cfg)
        records, failed = run_cell(cfg, teacher, "ngd", 8, 0)
        assert records == []
        assert "weights exploded" in failed


class TestCommittedDrift:
    """Recomputed committed cells reproduce results/comparison/results.csv."""

    @staticmethod
    def assert_cell_matches_committed_row(est, n, replicate):
        repo = Path(__file__).resolve().parents[1]
        cfg = load_config(repo / "configs" / "comparison.cfg")
        records, failed = run_cell(cfg, resolve_teacher(cfg), est, n, replicate)
        assert failed is None
        (got,) = records
        committed, _ = read_records(
            repo / "results" / "comparison" / RESULTS_NAME)
        (want,) = [r for r in committed
                   if (r.estimator, r.n, r.seed) == (est, n, got.seed)]
        assert got.excess_risk == pytest.approx(want.excess_risk, rel=1e-9)
        assert got.stderr == pytest.approx(want.stderr, rel=1e-9)

    def test_ngd_n64_replicate0_matches_committed_row(self):
        self.assert_cell_matches_committed_row("ngd", 64, 0)

    # the first two cells differed from their committed rows in the last
    # digits across numpy/BLAS builds; krr-rbf at n = 1024 tunes through
    # the CV recursion's large blocks
    @pytest.mark.parametrize("est, n, replicate",
                             [("ngd", 128, 3), ("krr-rbf", 64, 0),
                              ("krr-rbf", 1024, 0)])
    def test_cell_matches_committed_row(self, est, n, replicate):
        self.assert_cell_matches_committed_row(est, n, replicate)


class TestRunSweep:
    """Whole-grid execution, resumability, and worker invariance."""

    def test_layout_and_results(self, tmp_path):
        cfg = tiny_config()
        out = tmp_path / "run"
        records = run_sweep(cfg, out_dir=out)
        # 3 sample sizes x 2 replicates x (ngd + knn), one record each
        assert len(records) == 12
        assert (out / "config.txt").read_text() == cfg.to_text()
        assert sorted(p.name for p in (out / "cells").iterdir()) == sorted(
            cell_name(est, n, rep)
            for est in ("ngd", "knn") for n in (8, 16, 32) for rep in (0, 1))
        on_disk, _ = read_records(out / RESULTS_NAME)
        assert on_disk == sorted(records,
                                 key=lambda r: (r.estimator, r.n, r.seed))
        assert not (out / "failed.txt").exists()

    def test_resume_recomputes_nothing(self, tmp_path):
        cfg = tiny_config()
        out = tmp_path / "run"
        run_sweep(cfg, out_dir=out)
        before = (out / RESULTS_NAME).read_bytes()
        stamps = {p.name: p.stat().st_mtime_ns
                  for p in (out / "cells").iterdir()}
        # config.txt is written once: a resume interrupted in a rewrite
        # would leave the guard truncated and refuse every later resume
        config = out / "config.txt"
        config_before = (config.read_bytes(), config.stat().st_mtime_ns)
        names = []
        run_sweep(cfg, out_dir=out, progress=lambda name, failed:
                  names.append(name))
        assert names == []  # nothing pending
        assert (out / RESULTS_NAME).read_bytes() == before
        after = {p.name: p.stat().st_mtime_ns
                 for p in (out / "cells").iterdir()}
        assert after == stamps
        assert (config.read_bytes(), config.stat().st_mtime_ns) == \
            config_before

    def test_resume_refuses_changed_config(self, tmp_path):
        out = tmp_path / "run"
        run_sweep(tiny_config(), out_dir=out)
        config_text = (out / "config.txt").read_text()
        results = (out / RESULTS_NAME).read_bytes()
        stamps = {p.name: p.stat().st_mtime_ns
                  for p in (out / "cells").iterdir()}
        changed = tiny_config(**{"noise.bound": 0.2, "risk.n_test": 300})
        with pytest.raises(ConfigError, match="config.txt"):
            run_sweep(changed, out_dir=out)
        assert (out / "config.txt").read_text() == config_text
        assert (out / RESULTS_NAME).read_bytes() == results
        assert {p.name: p.stat().st_mtime_ns
                for p in (out / "cells").iterdir()} == stamps

    def test_resume_without_config_file(self, tmp_path):
        cfg = tiny_config()
        out = tmp_path / "run"
        run_sweep(cfg, out_dir=out)
        before = (out / RESULTS_NAME).read_bytes()
        (out / "config.txt").unlink()
        names = []
        run_sweep(cfg, out_dir=out, progress=lambda name, failed:
                  names.append(name))
        assert names == []
        assert (out / "config.txt").read_text() == cfg.to_text()
        assert (out / RESULTS_NAME).read_bytes() == before

    def test_worker_pool_matches_serial(self, tmp_path):
        cfg = tiny_config()
        serial = tmp_path / "serial"
        pooled = tmp_path / "pooled"
        run_sweep(cfg, out_dir=serial, workers=1)
        run_sweep(cfg, out_dir=pooled, workers=2)
        assert (pooled / RESULTS_NAME).read_bytes() == \
            (serial / RESULTS_NAME).read_bytes()

    def test_worker_pool_reports_each_pending_cell_once(self, tmp_path):
        cfg = tiny_config()
        serial, pooled = [], []
        run_sweep(cfg, out_dir=tmp_path / "serial", workers=1,
                  progress=lambda name, failed: serial.append(name))
        run_sweep(cfg, out_dir=tmp_path / "pooled", workers=2,
                  progress=lambda name, failed: pooled.append(name))
        assert len(serial) == 12  # 3 n values x 2 replicates x (ngd, knn)
        assert sorted(pooled) == sorted(serial)
        assert len(set(pooled)) == len(pooled)
        # a pooled resume reports only the cells it computes
        victims = [cell_name("ngd", 8, 1), cell_name("knn", 32, 0)]
        for name in victims:
            (tmp_path / "pooled" / "cells" / name).unlink()
        resumed = []
        run_sweep(cfg, out_dir=tmp_path / "pooled", workers=2,
                  progress=lambda name, failed: resumed.append(name))
        assert sorted(resumed) == sorted(victims)

    def test_worker_pool_is_capped_at_pending_cells(self, tmp_path,
                                                    monkeypatch):
        # a fork pool starts all max_workers processes at its first submit,
        # so a resume of 2 cells with workers=8 forked 8 processes.  The
        # fake pool runs each task in-process: no process is started
        import concurrent.futures
        pools = []

        class FakePool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                fut = concurrent.futures.Future()
                fut.set_result(fn(*args))
                return fut

            def shutdown(self, cancel_futures=False):
                pass

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            FakePool)
        cfg = tiny_config()
        out = tmp_path / "run"
        run_sweep(cfg, out_dir=out)
        victims = [cell_name("ngd", 8, 1), cell_name("knn", 32, 0)]
        for name in victims:
            (out / "cells" / name).unlink()
        done = []
        run_sweep(cfg, out_dir=out, workers=8,
                  progress=lambda name, failed: done.append(name))
        assert pools == [2]
        assert sorted(done) == sorted(victims)
        # one pending cell runs serially: no pool is built
        (out / "cells" / victims[0]).unlink()
        run_sweep(cfg, out_dir=out, workers=8)
        assert pools == [2]
        assert (out / "cells" / victims[0]).exists()

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="workers see the patched run_cell by fork")
    def test_raising_cell_stops_a_pooled_sweep(self, tmp_path, monkeypatch):
        # as a serial sweep stops at its first error, the pool cancels its
        # queued cells once one raises; without that it still wrote 47 of
        # these 48 cells before raising
        cfg = tiny_config(**{"sweep.n_values": "8, 16, 32, 64",
                             "sweep.replicates": 6})

        def run_cell(cfg, teacher, estimator, n, replicate):
            if (estimator, n, replicate) == ("ngd", 8, 0):
                raise RuntimeError("cell went sideways")
            time.sleep(0.02)
            return [], None

        monkeypatch.setattr(sweep_module, "run_cell", run_cell)
        out = tmp_path / "run"
        with pytest.raises(RuntimeError, match="cell went sideways"):
            run_sweep(cfg, out_dir=out, workers=2)
        assert len(list((out / "cells").iterdir())) <= 24

    def test_partial_resume_fills_missing_cells(self, tmp_path):
        cfg = tiny_config()
        full = tmp_path / "full"
        partial = tmp_path / "partial"
        run_sweep(cfg, out_dir=full)
        run_sweep(cfg, out_dir=partial)
        victim = partial / "cells" / cell_name("knn", 16, 0)
        victim.unlink()
        done = []
        run_sweep(cfg, out_dir=partial,
                  progress=lambda name, failed: done.append(name))
        assert done == [cell_name("knn", 16, 0)]
        assert (partial / RESULTS_NAME).read_bytes() == \
            (full / RESULTS_NAME).read_bytes()

    def test_failed_cells_listed_and_cleared(self, tmp_path, monkeypatch):
        import ngdbench.sweep as sweep_mod
        cfg = tiny_config()
        out = tmp_path / "run"

        def boom(*args, **kwargs):
            raise ChainDivergence("kaput")
        monkeypatch.setattr(sweep_mod, "run_chain", boom)
        records = run_sweep(cfg, out_dir=out)
        assert {r.estimator for r in records} == {"knn"}
        failed_lines = (out / "failed.txt").read_text().splitlines()
        assert len(failed_lines) == 6  # every ngd cell
        assert all("kaput" in line for line in failed_lines)
        # failed cells are sticky across a resume without the patch
        monkeypatch.undo()
        records = run_sweep(cfg, out_dir=out)
        assert {r.estimator for r in records} == {"knn"}
        # clearing the failed cells lets the resume complete the grid
        for line in failed_lines:
            (out / "cells" / line.split(":")[0]).unlink()
        records = run_sweep(cfg, out_dir=out)
        assert {r.estimator for r in records} == {"knn", "ngd"}
        assert not (out / "failed.txt").exists()


class TestCellFiles:
    """Per-cell persistence."""

    def test_cell_name_padding(self):
        assert cell_name("krr-rbf", 64, 3) == "krr-rbf-n000064-r0003.csv"

    def test_failed_cell_roundtrip(self, tmp_path):
        path = tmp_path / "cell.csv"
        write_records(path, records=[], failed="went sideways")
        records, failed = read_records(path)
        assert records == []
        assert failed == "went sideways"

    def test_record_cell_roundtrip(self, tmp_path):
        rec = RiskRecord(estimator="ngd", n=8, seed=5, excess_risk=0.25,
                         stderr=0.01)
        path = tmp_path / "cell.csv"
        write_records(path, records=[rec])
        records, failed = read_records(path)
        assert failed is None
        assert records == [rec]


def power_law_records(rho_by_est, n_values=(64, 128, 256, 512), reps=3):
    records = []
    for est, rho in rho_by_est.items():
        for n in n_values:
            for rep in range(reps):
                records.append(RiskRecord(
                    estimator=est, n=n, seed=rep,
                    excess_risk=(1.0 + 0.05 * rep) * float(n) ** -rho,
                    stderr=0.0))
    return records


class TestReport:
    """Rate table, theoretical exponents, dominance verdict."""

    def comparison_config(self):
        return ExperimentConfig(schedule=ScheduleConfig(
            d=10, R=1.0, gamma=3.0, alpha1=3.0, alpha2=12.0, s=3.0))

    def test_planted_exponents_recovered(self):
        rep = report(power_law_records({"ngd": 0.8, "knn": 0.4}),
                     self.comparison_config())
        fits = dict(rep.fits)
        assert abs(fits["ngd"].exponent - 0.8) < 1e-10
        assert abs(fits["knn"].exponent - 0.4) < 1e-10
        assert rep.verdict == (
            "sampler dominates every baseline (rate: faster decay than every"
            " baseline; level: wins most pairs vs every baseline)")
        assert [str(lv) for lv in rep.levels] == [
            "level vs knn at n = 512: ngd wins 3/3 pairs, median paired"
            f" ratio ngd/knn {512.0 ** -0.4:.3g}"]

    def test_theory_numbers_attached(self):
        rep = report(power_law_records({"ngd": 0.8}),
                     self.comparison_config())
        assert rep.nn_exponent == 0.75
        assert rep.lower_exponents.discrepant
        assert rep.dominance is True
        assert rep.verdict is None  # single estimator

    def test_non_dominant_verdict(self):
        rep = report(power_law_records({"ngd": 0.4, "knn": 0.6}),
                     self.comparison_config())
        assert rep.verdict == (
            "sampler does NOT dominate (rate: slower decay vs knn;"
            " level: wins at most half the pairs vs knn)")

    def test_overlapping_exponent_intervals_leave_the_rate_unresolved(self):
        # jitter at n = 128 and 256 lifts ngd's exponent above knn's but
        # widens its -+ 2 stderr interval over knn's: not a faster rate,
        # though ngd wins every pair at n = 512; krr-rbf's interval lies
        # wholly above ngd's
        jitter = {128: 1.3, 256: 0.8}
        records = [replace(r, excess_risk=jitter.get(r.n, 1.0) * r.excess_risk)
                   if r.estimator == "ngd" else r
                   for r in power_law_records({"ngd": 0.8, "knn": 0.7})]
        rep = report(records, self.comparison_config())
        fits = dict(rep.fits)
        assert fits["ngd"].exponent > fits["knn"].exponent
        low, high = fits["ngd"].interval
        assert low < 0.7 < high
        assert rep.verdict == (
            "sampler does NOT dominate (rate: not resolved vs knn;"
            " level: wins most pairs vs every baseline)")
        rep = report(records + power_law_records({"krr-rbf": 1.5}),
                     self.comparison_config())
        assert high < dict(rep.fits)["krr-rbf"].interval[0]
        assert rep.verdict == (
            "sampler does NOT dominate (rate: slower decay vs krr-rbf and not"
            " resolved vs knn; level: wins at most half the pairs vs krr-rbf)")

    def test_rate_table_rows_end_with_the_interval(self):
        # the first three tokens of a row stay name, exponent and stderr
        rep = report(power_law_records({"ngd": 0.8, "knn": 0.4}),
                     self.comparison_config())
        rows = rep.table_lines()[1:]
        assert [row.split()[:3] for row in rows] == [
            ["knn", "0.4000", "0.0000"], ["ngd", "0.8000", "0.0000"]]
        assert [row.split()[3:] for row in rows] == [
            ["64..512", "[0.4000,", "0.4000]"],
            ["64..512", "[0.8000,", "0.8000]"]]

    def test_faster_rate_at_a_losing_level_does_not_dominate(self):
        # scaling ngd's risks leaves its exponent as it is, but at n = 512
        # it now loses every pair: the rate part holds, the level part not
        records = [replace(r, excess_risk=100.0 * r.excess_risk)
                   if r.estimator == "ngd" else r
                   for r in power_law_records({"ngd": 0.8, "knn": 0.4})]
        rep = report(records, self.comparison_config())
        assert abs(dict(rep.fits)["ngd"].exponent - 0.8) < 1e-10
        assert rep.verdict == (
            "sampler does NOT dominate (rate: faster decay than every"
            " baseline; level: wins at most half the pairs vs knn)")
        assert str(rep.levels[0]) == (
            "level vs knn at n = 512: ngd wins 0/3 pairs, median paired"
            f" ratio ngd/knn {100.0 * 512.0 ** -0.4:.3g}")
        assert "dominates" not in str(rep)

    @pytest.mark.parametrize("lost, won", [(1, True), (2, False)])
    def test_level_is_a_strict_majority_of_the_largest_n_pairs(self, lost,
                                                              won):
        # records pair by (n, seed); only the largest n counts, where ngd
        # here loses `lost` of its four pairs, so a tie is not a win
        records = [replace(r, excess_risk=1.0)
                   if r.estimator == "ngd" and r.n == 512 and r.seed < lost
                   else r for r in power_law_records({"ngd": 0.8, "knn": 0.4},
                                                     reps=4)]
        level = report(records, self.comparison_config()).levels[0]
        assert (level.n, level.wins, level.pairs) == (512, 4 - lost, 4)
        assert level.won is won

    def test_unpaired_records_lose_the_level(self):
        records = [replace(r, seed=r.seed + 10) if r.estimator == "knn"
                   else r for r in power_law_records({"ngd": 0.8, "knn": 0.4})]
        rep = report(records, self.comparison_config())
        assert [str(lv) for lv in rep.levels] == [
            "level vs knn: no paired records"]
        assert "does NOT dominate" in rep.verdict

    def test_missing_sampler_verdict(self):
        rep = report(power_law_records({"nw": 0.4, "knn": 0.6}),
                     self.comparison_config())
        assert rep.verdict == "no sampler records: no dominance verdict"

    def test_too_few_sizes_names_estimator(self):
        records = power_law_records({"ngd": 0.5}, n_values=(64, 128))
        with pytest.raises(ValueError, match="'ngd'"):
            report(records, self.comparison_config())

    def test_report_from_path(self, tmp_path):
        records = power_law_records({"ngd": 0.7})
        path = tmp_path / "records.csv"
        write_records(path, records)
        rep = report(path, self.comparison_config())
        assert abs(dict(rep.fits)["ngd"].exponent - 0.7) < 1e-10

    def test_str_sections(self):
        rep = report(power_law_records({"ngd": 0.8, "knn": 0.4}),
                     self.comparison_config())
        text = str(rep)
        assert "estimator" in text.splitlines()[0]
        assert "theoretical sampler exponent" in text
        assert "smoothness threshold for provable dominance: satisfied" in text

    def test_save_report_files(self, tmp_path):
        rep = report(power_law_records({"ngd": 0.8, "knn": 0.4}),
                     self.comparison_config())
        save_report(tmp_path, rep)
        assert (tmp_path / "report.txt").read_text() == str(rep) + "\n"
        for name in ("ngd", "knn"):
            lines = (tmp_path / f"rate-{name}.dat").read_text().splitlines()
            assert lines[0] == "# log_n log_median_excess_risk"
            assert len(lines) == 5

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError, match="no records"):
            report([], self.comparison_config())
