"""Command-line driver: subcommands, exit codes, file outputs."""

from pathlib import Path

import pytest

import ngdbench.ngd as ngd_module
import ngdbench.sweep as sweep_module
from ngdbench.cli import main
from ngdbench.config import load_config
from ngdbench.data import empirical_risk, save_dataset
from ngdbench.linear import save_estimator
from ngdbench.model import save_teacher, save_weights
from ngdbench.sweep import (cell_inputs, derive_seed, fit_cell, read_records,
                            resolve_teacher, run_cell)

CFG_TEXT = """\
schedule.d = 1
schedule.alpha2 = 1
noise.bound = 0.1
ngd.eta = 0.25
ngd.budget = 2
baselines = knn
grid.knn.k = 1, 2
tune.folds = 4
sweep.n_values = 8, 16, 32
sweep.replicates = 1
risk.n_test = 200
lemma.h = 0.25
lemma.direction_radius = 4
lemma.quad_a = 16
lemma.quad_b = 32
lemma.grid = 21
"""


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(CFG_TEXT)
    return path


class TestCheck:
    def test_valid_config(self, cfg_file, capsys):
        assert main(["check", str(cfg_file)]) == 0
        out = capsys.readouterr().out
        assert "schedule.d = 1" in out
        assert "assumptions: pass" in out

    def test_block_scales_mark_elided_blocks(self, cfg_file, capsys):
        committed = Path(__file__).resolve().parents[1] / "configs" / "comparison.cfg"
        assert main(["check", str(committed)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "widest student (n = 2048): 3 blocks, 1 active" in lines[-5]
        blocks = lines[-3:]
        assert [ln.split()[0] for ln in blocks] == ["1", "2", "3"]
        assert [ln.endswith("elided") for ln in blocks] == [False, True, True]
        assert float(blocks[1].split()[1]) == pytest.approx(3.309e-24, rel=1e-3)
        assert main(["check", str(cfg_file)]) == 0
        assert "elided\n" not in capsys.readouterr().out

    def test_failing_assumption_clause(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(CFG_TEXT + "schedule.c_mu = 2\n")
        assert main(["check", str(path)]) == 1

    @pytest.mark.parametrize("key", ["R", "s", "alpha1", "alpha2"])
    def test_infinite_schedule_value(self, tmp_path, capsys, key):
        path = tmp_path / "inf.cfg"
        path.write_text(f"schedule.{key} = inf\n")
        assert main(["check", str(path)]) == 1
        assert "all parameters finite" in capsys.readouterr().err

    def test_knn_grid_past_the_training_fold(self, tmp_path, capsys):
        # n = 8 with 4 folds leaves 6 training points: the sweep could
        # not tune k = 7, so check fails before any cell runs
        path = tmp_path / "knn.cfg"
        path.write_text(CFG_TEXT.replace("grid.knn.k = 1, 2",
                                         "grid.knn.k = 1, 7"))
        assert main(["check", str(path)]) == 1
        err = capsys.readouterr().err
        assert "grid.knn.k value 7" in err and "n = 8" in err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "nope.cfg")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_broken_config(self, tmp_path, capsys):
        path = tmp_path / "broken.cfg"
        path.write_text("schedule.alpha1 = 0.1\n")
        assert main(["check", str(path)]) == 1
        assert "schedule" in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_subcommand(self, cfg_file):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate", str(cfg_file)])
        assert err.value.code == 1

    def test_missing_required_option(self, cfg_file):
        with pytest.raises(SystemExit) as err:
            main(["teacher", str(cfg_file)])  # --out is required
        assert err.value.code == 1

    # counts that start no worker process: a sweep is refused before it runs
    @pytest.mark.parametrize("argv", [
        ["data", "--n", "8", "--replicate", "-1"],
        ["train", "--n", "8", "--replicate", "-1"],
        ["fit", "--estimator", "knn", "--n", "8", "--replicate", "-1"],
        ["sweep", "--workers", "0"],
        ["sweep", "--workers", "-1"]],
        ids=["data-replicate", "train-replicate", "fit-replicate",
             "sweep-workers-0", "sweep-workers-negative"])
    def test_count_below_its_minimum(self, cfg_file, tmp_path, capsys, argv):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            main([argv[0], str(cfg_file), "--out", str(out)] + argv[1:])
        assert err.value.code == 1
        flag = argv[-2]
        assert f"argument {flag}: must be >= " in capsys.readouterr().err
        assert not out.exists()


class TestArtifacts:
    """Each command writes the bytes of the package's writer for its cell."""

    def test_teacher(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "teacher.txt"
        assert main(["teacher", str(cfg_file), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "tail amplitude" in stdout
        want = tmp_path / "want.txt"
        save_teacher(want, resolve_teacher(load_config(cfg_file)))
        assert out.read_bytes() == want.read_bytes()
        assert "\nd = 1\n" in out.read_text()

    def test_data(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "train.txt"
        assert main(["data", str(cfg_file), "--out", str(out),
                     "--n", "16"]) == 0
        cfg = load_config(cfg_file)
        data = cell_inputs(cfg, resolve_teacher(cfg), 16, 0).data
        assert data.n == 16
        want = tmp_path / "want.txt"
        save_dataset(want, data)
        assert out.read_bytes() == want.read_bytes()
        seed = derive_seed(0, 16, 0, "data")
        assert f"seed={seed}" in capsys.readouterr().out

    def test_train_writes_weights_and_trace(self, cfg_file, tmp_path, capsys):
        wout = tmp_path / "kept.txt"
        tout = tmp_path / "trace.csv"
        assert main(["train", str(cfg_file), "--out", str(wout),
                     "--trace", str(tout), "--n", "8"]) == 0
        stdout = capsys.readouterr().out
        assert "chain: width=" in stdout
        assert "excess risk" in stdout
        cfg = load_config(cfg_file)
        cell = cell_inputs(cfg, resolve_teacher(cfg), 8, 0)
        result, _, _ = fit_cell(cfg, cell, "ngd")
        assert result.kept.ndim == 3 and len(result.kept) > 1  # kept iterates
        want = tmp_path / "want.txt"
        save_weights(want, cfg.schedule, result.kept,
                     extra={"kind": "kept-iterates",
                            "burn_in": cell.ngd.burn_in,
                            "thinning": cell.ngd.thinning})
        assert wout.read_bytes() == want.read_bytes()
        assert tout.read_text().startswith("k,empirical_risk")

    def test_train_diverged_chain_is_a_runtime_failure(self, cfg_file,
                                                       tmp_path, capsys,
                                                       monkeypatch):
        def diverging(*args, **kwargs):
            raise ngd_module.ChainDivergence("h_norm 2e+06 at step 512")
        monkeypatch.setattr(sweep_module, "run_chain", diverging)
        assert main(["train", str(cfg_file), "--out",
                     str(tmp_path / "kept.txt"), "--n", "8"]) == 2
        err = capsys.readouterr().err
        assert err == "runtime failure: h_norm 2e+06 at step 512\n"
        assert not (tmp_path / "kept.txt").exists()

    def test_train_without_trace_derives_no_risk_trace(self, cfg_file, tmp_path,
                                                       capsys, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return empirical_risk(*args)
        # the chain's risk trace evaluates the network through this name
        monkeypatch.setattr(ngd_module, "empirical_risk", counting)

        def risk_line(argv):
            assert main(["train", str(cfg_file), "--out",
                         str(tmp_path / "kept.txt"), "--n", "8"] + argv) == 0
            return next(ln for ln in capsys.readouterr().out.splitlines()
                        if ln.startswith("empirical risk"))

        plain = risk_line([])
        assert calls == []
        traced = risk_line(["--trace", str(tmp_path / "trace.csv")])
        assert calls  # the trace file does derive it, one call per snapshot
        assert traced == plain

    def test_fit_baseline(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "est.txt"
        assert main(["fit", str(cfg_file), "--out", str(out),
                     "--estimator", "knn", "--n", "16"]) == 0
        stdout = capsys.readouterr().out
        assert "knn: chose k=" in stdout
        cfg = load_config(cfg_file)
        _, est, _ = fit_cell(cfg, cell_inputs(cfg, resolve_teacher(cfg), 16, 0),
                             "knn")
        want = tmp_path / "want.txt"
        save_estimator(want, est)
        assert out.read_bytes() == want.read_bytes()

    def test_fit_below_the_sweep_names_the_knn_fold(self, tmp_path, capsys):
        # the config is checked at the sweep's smallest n (64), but fit runs
        # at any n: at n = 16 with 5 folds the smallest training fold has 12
        path = tmp_path / "knn.cfg"
        path.write_text(CFG_TEXT.replace("grid.knn.k = 1, 2", "grid.knn.k = 1, 40")
                        .replace("tune.folds = 4\n", "")
                        .replace("8, 16, 32", "64, 128, 256"))
        assert main(["check", str(path)]) == 0
        capsys.readouterr()
        out = tmp_path / "e.txt"
        assert main(["fit", str(path), "--out", str(out), "--estimator", "knn",
                     "--n", "16"]) == 1
        assert capsys.readouterr().err == (
            "error: grid.knn.k value 40 exceeds the smallest training fold:"
            " 12 points at n = 16 with tune.folds = 5\n")
        assert not out.exists()

    def test_fit_unknown_estimator(self, cfg_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["fit", str(cfg_file), "--out", str(tmp_path / "e.txt"),
                  "--estimator", "spline", "--n", "16"])
        assert err.value.code == 1
        assert "invalid choice: 'spline'" in capsys.readouterr().err

    def test_lemma(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "bump.csv"
        assert main(["lemma", str(cfg_file), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "atoms:" in stdout
        assert "sup error" in stdout
        assert out.read_text().startswith("# bump ridge approximation")


class TestCellParity:
    """train and fit print the figure that the sweep records for their cell."""

    @pytest.mark.parametrize("argv, estimator, n, label", [
        (["train", "--replicate", "0"], "ngd", 8,
         "averaged-predictor excess risk"),
        (["fit", "--estimator", "knn"], "knn", 16, "excess risk")],
        ids=["train", "fit"])
    def test_prints_the_recorded_risk(self, cfg_file, tmp_path, capsys, argv,
                                      estimator, n, label):
        cfg = load_config(cfg_file)
        (rec,), failed = run_cell(cfg, resolve_teacher(cfg), estimator, n, 0)
        assert failed is None
        assert main([argv[0], str(cfg_file), "--out", str(tmp_path / "out"),
                     "--n", str(n)] + argv[1:]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert (f"{label}: {rec.excess_risk:.6g} (stderr {rec.stderr:.2g})"
                in lines)


class TestSweepAndReport:
    def test_end_to_end(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "results"
        assert main(["sweep", str(cfg_file), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "records ->" in stdout
        records, _ = read_records(out / "results.csv")
        assert len(records) == 6  # (ngd + knn) x 3 sizes x 1 replicate

        assert main(["report", str(cfg_file), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "estimator" in stdout
        assert (out / "report.txt").exists()
        assert (out / "rate-ngd.dat").exists()
        assert (out / "rate-knn.dat").exists()

    def test_report_missing_records(self, cfg_file, tmp_path, capsys):
        assert main(["report", str(cfg_file),
                     "--out", str(tmp_path / "empty")]) == 2
        assert "runtime failure" in capsys.readouterr().err

    def test_report_too_few_sizes(self, cfg_file, tmp_path, capsys):
        from ngdbench.sweep import RiskRecord, write_records
        out = tmp_path / "short"
        out.mkdir()
        records = [RiskRecord(estimator="ngd", n=n, seed=0, excess_risk=0.1,
                              stderr=0.0) for n in (8, 16)]
        write_records(out / "results.csv", records)
        assert main(["report", str(cfg_file), "--out", str(out)]) == 1
        assert "'ngd'" in capsys.readouterr().err
