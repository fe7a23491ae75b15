"""Experiment configuration text format: round trips and diagnostics."""

import pytest

from ngdbench.config import (
    ConfigError,
    ExperimentConfig,
    load_config,
    parse_config,
)
from ngdbench.linear import check_grid
from ngdbench.lowerbound import BumpApproxConfig
from ngdbench.model import ScheduleConfig
from ngdbench.sweep import cell_inputs, fit_cell, resolve_teacher

FULL_TEXT = """\
# sweep setup
schedule.d = 3
schedule.R = 2
schedule.gamma = 2.5
schedule.alpha1 = 2
schedule.alpha2 = 7.5
schedule.s = 4
schedule.c_mu = 0.5
teacher.radius = 0.75
teacher.seed = 11
teacher.kind = bump
teacher.width = 20
noise.bound = 0.25
noise.kind = scaled-rademacher
ngd.eta = 0.25
ngd.budget = 10
baselines = krr-rbf, nw
grid.krr-rbf.bandwidth = 0.5, 1
grid.nw.bandwidth = 0.1, 0.2, 0.4
tune.folds = 4
sweep.n_values = 64, 32, 128
sweep.replicates = 2
sweep.base_seed = 17
risk.n_test = 5000
output.dir = out
lemma.d = 2
lemma.h = 0.5
lemma.center = 0.4, 0.6
lemma.direction_radius = 3
lemma.quad_a = 16
lemma.quad_b = 32
lemma.grid = 9
lemma.offset_factor = 3
"""


class TestParsing:
    """Text to configuration."""

    def test_defaults_from_empty_text(self):
        cfg = parse_config("")
        assert cfg == ExperimentConfig()

    def test_full_example(self):
        cfg = parse_config(FULL_TEXT)
        assert cfg.schedule == ScheduleConfig(d=3, R=2.0, gamma=2.5,
                                              alpha1=2.0, alpha2=7.5, s=4.0,
                                              c_mu=0.5)
        assert cfg.teacher_kind == "bump"
        assert cfg.teacher_width == 20
        assert cfg.baselines == ("krr-rbf", "nw")
        assert cfg.grids == (("krr-rbf", "bandwidth", (0.5, 1.0)),
                             ("nw", "bandwidth", (0.1, 0.2, 0.4)))
        assert cfg.sweep_n_values == (32, 64, 128)  # sorted canonically
        assert cfg.lemma == BumpApproxConfig(d=2, h=0.5, center=(0.4, 0.6),
                                             direction_radius=3.0, quad_a=16,
                                             quad_b=32, grid=9,
                                             offset_factor=3.0)

    def test_comments_blanks_and_spacing(self):
        cfg = parse_config("\n# note\n   \nschedule.d=3\n")
        assert cfg.schedule.d == 3

    def test_teacher_width_auto(self):
        assert parse_config("teacher.width = auto").teacher_width is None

    def test_lemma_center_defaults_follow_lemma_d(self):
        cfg = parse_config("lemma.d = 2")
        assert cfg.lemma.center == (0.5, 0.5)

    def test_roundtrip_defaults(self):
        cfg = ExperimentConfig()
        assert parse_config(cfg.to_text()) == cfg

    def test_roundtrip_full(self):
        cfg = parse_config(FULL_TEXT)
        again = parse_config(cfg.to_text())
        assert again == cfg
        assert again.to_text() == cfg.to_text()

    def test_load_config(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(FULL_TEXT)
        assert load_config(path) == parse_config(FULL_TEXT)


class TestDiagnostics:
    """Errors carry the source name and line number."""

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match=r"<config>:2: unknown key"):
            parse_config("schedule.d = 2\nschedule.dd = 3\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match=r":3: duplicate key.*line 1"):
            parse_config("tune.folds = 3\n\ntune.folds = 4\n")

    def test_missing_equals(self):
        # a section line is no exception: configs have none
        for text in ("just words\n", "blocks:\n"):
            with pytest.raises(ConfigError,
                               match=r":1: expected 'key = value'"):
                parse_config(text)

    def test_bad_int(self):
        with pytest.raises(ConfigError, match=r":1: bad value for 'tune.folds'"):
            parse_config("tune.folds = soon\n")

    def test_grid_key_must_match_estimator_param(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("grid.knn.bandwidth = 0.5\n")

    def test_bad_grid_value(self):
        with pytest.raises(ConfigError, match=r"bad value for 'grid.knn.k'"):
            parse_config("grid.knn.k = 1, two\n")

    def test_schedule_errors_are_wrapped(self):
        with pytest.raises(ConfigError, match=r"schedule\.\*"):
            parse_config("schedule.alpha1 = 0.25\n")

    def test_lemma_errors_are_wrapped(self):
        with pytest.raises(ConfigError, match=r"lemma\.\*"):
            parse_config("lemma.d = 5\n")

    def test_source_name_used(self, tmp_path):
        path = tmp_path / "broken.cfg"
        path.write_text("nonsense = 1\n")
        with pytest.raises(ConfigError, match="broken.cfg:1"):
            load_config(path)


class TestValidation:
    """Semantic checks on the assembled configuration."""

    def test_radius_range(self):
        with pytest.raises(ConfigError, match="teacher.radius"):
            parse_config("teacher.radius = 1.5\n")

    def test_unknown_baseline(self):
        with pytest.raises(ConfigError, match="unknown baseline"):
            parse_config("baselines = krr-rbf, ols\n")

    def test_repeated_baseline(self):
        with pytest.raises(ConfigError, match="repeats"):
            parse_config("baselines = knn, knn\n")

    def test_small_n_rejected(self):
        with pytest.raises(ConfigError, match="n_values"):
            parse_config("sweep.n_values = 2, 64\n")

    def test_duplicate_n_rejected(self):
        with pytest.raises(ConfigError, match="repeats"):
            parse_config("sweep.n_values = 64, 64\n")

    def test_knn_grid_must_fit_the_smallest_training_fold(self):
        # at n = 16 with 5 folds np.array_split holds out up to 4 points,
        # so the sweep's smallest knn training fold has 12
        text = "baselines = knn\nsweep.n_values = 32, 16, 64\n"
        with pytest.raises(ConfigError, match=(
                r"grid.knn.k value 40 exceeds the smallest training fold:"
                r" 12 points at n = 16 with tune.folds = 5$")):
            parse_config(text + "grid.knn.k = 1, 4, 40\n")
        with pytest.raises(ConfigError, match="grid.knn.k value 13 "):
            parse_config(text + "grid.knn.k = 13\n")
        assert parse_config(text + "grid.knn.k = 1, 12\n").grids == (
            ("knn", "k", (1, 12)),)
        # folds are capped at n: at n = 4 with 5 folds one point is held out
        assert parse_config("baselines = knn\nsweep.n_values = 4\n"
                            "grid.knn.k = 3\n").sweep_n_values == (4,)
        # a grid of an estimator the sweep does not run is never tuned
        assert parse_config("baselines = krr-rbf\nsweep.n_values = 16\n"
                            "grid.knn.k = 40\n").baselines == ("krr-rbf",)

    def test_removed_keys_unknown(self):
        for line in ("output.timing = none", "sweep.include_last = false"):
            with pytest.raises(ConfigError, match=r"<config>:1: unknown key"):
                parse_config(line + "\n")

    def test_noise_kind(self):
        with pytest.raises(ConfigError, match="noise.kind"):
            parse_config("noise.kind = gaussian\n")

    @pytest.mark.parametrize("line", [
        "grid.krr-rbf.ridge = -1e-3, 0",
        "grid.krr-rbf.bandwidth = 0.5, nan",
        "grid.krr-ntk.ridge = 0",
        "grid.krr-rf.ridge = -1",
        "grid.knn.k = 0, 2",
        "grid.nw.bandwidth = 0.1, -0.2"],
        ids=lambda line: line.partition(" =")[0])
    def test_grid_values_in_range(self, line):
        key = line.partition(" =")[0]
        with pytest.raises(ConfigError, match=rf"<config>: {key} values"):
            parse_config(line + "\n")

    @pytest.mark.parametrize("base, line", [
        *(("", line) for line in (
            "grid.krr-rbf.ridge = -1e-3, 0",
            "grid.krr-rbf.bandwidth = 0.5, nan",
            "grid.krr-ntk.ridge = 0",
            "grid.krr-rf.ridge = -1",
            "grid.knn.k = 0, 2",
            "grid.nw.bandwidth = 0.1, -0.2")),
        *(("baselines = knn\nsweep.n_values = 32, 16, 64\n", line)
          for line in ("grid.knn.k = 1, 4, 40", "grid.knn.k = 13",
                       "grid.knn.k = 1, 12")),
        ("baselines = knn\nsweep.n_values = 4\n", "grid.knn.k = 3"),
        ("baselines = krr-rbf\nsweep.n_values = 16\n", "grid.knn.k = 40")])
    def test_grid_errors_are_check_grid_errors(self, base, line):
        # config load runs linear.check_grid, the rule tune runs: a
        # baseline's grid at the smallest sweep n and tune.folds, any other
        # grid on its values alone
        key, _, text = line.partition(" = ")
        _, kind, param = key.split(".")
        values = tuple((int if param == "k" else float)(v)
                       for v in text.split(","))
        cfg = parse_config(base)
        at_n = (min(cfg.sweep_n_values), cfg.tune_folds)
        try:
            check_grid(kind, {param: values},
                       *(at_n if kind in cfg.baselines else ()))
        except ValueError as exc:
            with pytest.raises(ConfigError) as info:
                parse_config(base + line + "\n")
            assert str(info.value) == f"<config>: {exc}"
        else:
            assert parse_config(base + line + "\n").grids == (
                (kind, param, values),)

    @pytest.mark.parametrize("line, message", [
        ("noise.bound = nan", "noise.bound must be finite and >= 0"),
        ("noise.bound = inf", "noise.bound must be finite and >= 0"),
        ("ngd.eta = nan", "ngd.eta must be finite and > 0"),
        ("ngd.budget = nan", "ngd.budget must be finite and > 0"),
        ("ngd.budget = inf", "ngd.budget must be finite and > 0"),
        ("teacher.radius = nan", "teacher.radius must lie in (0, 1]"),
        ("lemma.h = nan", "lemma.*: h must be finite and > 0"),
        ("lemma.center = nan", "lemma.*: center must be a finite d-vector"),
        ("lemma.direction_radius = nan",
         "lemma.*: direction_radius must be finite and > 0"),
        ("lemma.offset_factor = inf",
         "lemma.*: offset_factor must be finite and > 0"),
        *((f"schedule.{key} = inf", "schedule.*: inadmissible schedule:"
           " all parameters finite") for key in ("R", "s", "alpha1", "alpha2"))])
    def test_non_finite_values_fail_naming_the_key(self, line, message):
        with pytest.raises(ConfigError) as info:
            parse_config(line + "\n")
        assert str(info.value) == f"<config>: {message}"

    def test_n_test_needs_two_points(self):
        # the Monte Carlo standard error needs two test points
        with pytest.raises(ConfigError, match="risk.n_test"):
            parse_config("risk.n_test = 1\n")
        assert parse_config("risk.n_test = 2\n").risk_n_test == 2


class TestGridFor:
    """The grid a sweep cell tunes for an estimator: tune's defaults, each
    parameter overridden by the config's grid.<estimator>.<param> key."""

    @staticmethod
    def tuned(text, kind):
        """The parameter combinations sweep.fit_cell scores for kind on the
        n = 16 cell of a config with the given extra lines."""
        cfg = parse_config(text + "sweep.n_values = 16, 32, 64\n"
                           "risk.n_test = 2\n")
        cell = cell_inputs(cfg, resolve_teacher(cfg), 16, 0)
        return [params for params, _ in fit_cell(cfg, cell, kind)[0].table]

    def test_defaults_without_overrides(self):
        assert self.tuned("", "nw") == [
            {"bandwidth": h} for h in (0.05, 0.1, 0.2, 0.4, 0.8, 1.6)]

    def test_override_replaces_only_named_param(self):
        combos = self.tuned("grid.krr-rbf.bandwidth = 0.3, 0.6\n", "krr-rbf")
        assert combos == [{"bandwidth": h, "ridge": r} for h in (0.3, 0.6)
                          for r in (1e-7, 1e-5, 1e-3, 1e-1)]

    def test_other_estimators_untouched(self):
        text = "grid.knn.k = 1, 2\n"
        assert self.tuned(text, "nw") == self.tuned("", "nw")
        assert self.tuned(text, "knn") == [{"k": 1}, {"k": 2}]
