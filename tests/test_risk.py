"""Excess-risk Monte Carlo, rate fitting, and exponent calculators."""

import math
from pathlib import Path

import numpy as np
import pytest

from ngdbench.model import ScheduleConfig, sample_teacher
from ngdbench.risk import (
    QUOTED_BETA_TILDE,
    beta_tilde,
    beta_tilde_quoted,
    dominance_condition,
    excess_risk_mc,
    linear_lower_exponents,
    nn_upper_exponent,
    rate_fit,
)
from ngdbench.sweep import RiskRecord, read_records, write_records

REPO = Path(__file__).resolve().parents[1]


def small_teacher(d=2, seed=0):
    cfg = ScheduleConfig(d=d, R=1.0, gamma=1.0, alpha1=1.0, alpha2=1.0, s=3.0)
    return sample_teacher(cfg, width=3, radius=0.9, seed=seed)


def record(est="ngd", n=64, seed=0, risk=1.0):
    return RiskRecord(estimator=est, n=n, seed=seed, excess_risk=risk,
                      stderr=0.0)


class TestMonteCarloRisk:
    """Plain MC of the squared prediction gap."""

    def test_teacher_vs_itself_is_zero(self):
        teacher = small_teacher()
        mc = excess_risk_mc(teacher, teacher, n_test=1000, seed=1)
        assert mc.value == 0.0
        assert mc.stderr == 0.0

    def test_constant_offset_gives_square(self):
        teacher = small_teacher()
        mc = excess_risk_mc(teacher, lambda x: teacher(x) + 0.5,
                            n_test=1000, seed=2)
        assert mc.value == 0.25
        # the gap (teacher + 1/2) - teacher carries ulp-level rounding jitter
        assert mc.stderr <= 1e-15

    def test_first_coordinate_gap_integrates_to_one_third(self):
        teacher = small_teacher(d=3)
        mc = excess_risk_mc(teacher, lambda x: teacher(x) + x[:, 0],
                            n_test=100_000, seed=3)
        assert abs(mc.value - 1.0 / 3.0) <= 3.0 * mc.stderr
        # analytic variance of x^2 under U[0,1] is 4/45
        want_se = math.sqrt(4.0 / 45.0 / mc.n_test)
        assert abs(mc.stderr - want_se) / want_se <= 0.05

    def test_deterministic_and_seed_sensitive(self):
        teacher = small_teacher()
        pred = lambda x: teacher(x) + x[:, 0] * x[:, 1]
        a = excess_risk_mc(teacher, pred, n_test=500, seed=7)
        b = excess_risk_mc(teacher, pred, n_test=500, seed=7)
        c = excess_risk_mc(teacher, pred, n_test=500, seed=8)
        assert a == b
        assert a.value != c.value

    def test_grand_mean_unbiased(self):
        """Means over many test seeds agree with one large reference draw."""
        teacher = small_teacher()
        pred = lambda x: teacher(x) + np.sin(3 * x[:, 0])
        runs = [excess_risk_mc(teacher, pred, n_test=4000, seed=s)
                for s in range(50)]
        grand = np.mean([r.value for r in runs])
        big = excess_risk_mc(teacher, pred, n_test=1_000_000, seed=999)
        combined = math.sqrt(np.mean([r.stderr for r in runs]) ** 2 / 50
                             + big.stderr**2)
        assert abs(grand - big.value) <= 4.0 * combined

    def test_validation(self):
        teacher = small_teacher()
        with pytest.raises(ValueError):
            excess_risk_mc(teacher, teacher, n_test=1)


class TestRateFit:
    """Log-log OLS on per-n medians."""

    def test_exact_power_law_recovered(self):
        rho, c = 0.8, 3.7
        records = [record(n=n, seed=r, risk=c * n**-rho)
                   for n in (16, 32, 64, 128, 256) for r in range(3)]
        fit = rate_fit(records)
        assert abs(fit.exponent - rho) <= 1e-12
        assert abs(fit.intercept - math.log(c)) <= 1e-12

    def test_constant_risks_give_zero_slope(self):
        records = [record(n=n, risk=0.5) for n in (8, 16, 32)]
        assert rate_fit(records).slope == 0.0

    def test_median_absorbs_outliers(self):
        rho = 1.0
        records = []
        for n in (16, 32, 64):
            records += [record(n=n, seed=r, risk=n**-rho) for r in range(2)]
            records.append(record(n=n, seed=2, risk=1e6))  # corrupted run
        assert abs(rate_fit(records).exponent - rho) <= 1e-12

    def test_scale_invariance_power_of_two_exact(self):
        rng = np.random.default_rng(0)
        risks = {n: rng.uniform(0.5, 1.5) * n**-0.6
                 for n in (16, 32, 64, 128)}
        base = [record(n=n, seed=r, risk=risks[n] * (1 + 0.01 * r))
                for n in risks for r in range(4)]
        scaled = [record(n=r.n, seed=r.seed, risk=4.0 * r.excess_risk)
                  for r in base]
        a, b = rate_fit(base), rate_fit(scaled)
        assert a.slope == b.slope
        assert a.slope_stderr == b.slope_stderr
        assert math.isclose(b.intercept - a.intercept, math.log(4.0),
                            rel_tol=1e-12)

    def test_scale_invariance_generic_constant(self):
        base = [record(n=n, seed=r, risk=(1 + 0.1 * r) * n**-1.2)
                for n in (8, 16, 32, 64) for r in range(3)]
        scaled = [record(n=r.n, seed=r.seed, risk=7.3 * r.excess_risk)
                  for r in base]
        assert math.isclose(rate_fit(base).slope, rate_fit(scaled).slope,
                            rel_tol=1e-12)

    def test_noisy_power_law_covered_by_stderr(self):
        rho = 0.7
        rng = np.random.default_rng(11)
        records = []
        for n in (2**j for j in range(4, 12)):
            for r in range(20):
                noise = math.exp(rng.normal(scale=0.05))
                records.append(record(n=n, seed=r, risk=noise * n**-rho))
        fit = rate_fit(records)
        assert abs(fit.slope - (-rho)) <= 3.0 * fit.slope_stderr

    def test_validation(self):
        with pytest.raises(ValueError):
            rate_fit([record(n=8), record(n=16)])
        with pytest.raises(ValueError):
            rate_fit([record(n=8, risk=0.0), record(n=16), record(n=32)])
        # a NaN or infinite median would give a NaN exponent, which every
        # comparison in the report's verdict reads as a win
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="positive finite median"):
                rate_fit([record(n=8), record(n=16), record(n=256, risk=bad)])


class TestRecordsIo:
    """CSV round trips in canonical order."""

    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        records = [RiskRecord(estimator=est, n=n, seed=s,
                              excess_risk=float(rng.random()),
                              stderr=float(rng.random() * 1e-3))
                   for est in ("ngd", "knn") for n in (8, 16) for s in (0, 1)]
        path = tmp_path / "records.csv"
        write_records(path, records[::-1])  # scrambled input order
        back, failed = read_records(path)
        assert failed is None
        assert back == sorted(records, key=lambda r: (r.estimator, r.n, r.seed))

    def test_header_line(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records(path, [record()])
        first = path.read_text().splitlines()[0]
        assert first == "estimator,n,seed,excess_risk,stderr,wall_ms"

    def test_reserved_last_column_is_zero(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records(path, [record(risk=0.5)])
        assert path.read_text().splitlines()[-1].split(",")[-1] == "0"

    def test_committed_results_roundtrip(self, tmp_path):
        path = REPO / "results" / "comparison" / "results.csv"
        records, failed = read_records(path)
        assert failed is None
        assert len(records) == 180
        write_records(tmp_path / "results.csv", records)
        assert (tmp_path / "results.csv").read_text() == path.read_text()

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        # every row is formatted before the file is touched
        path = tmp_path / "results.csv"
        write_records(path, [record(n=8), record(n=16)])
        before = path.read_bytes()
        with pytest.raises(TypeError):
            write_records(path, [record(n=8), record(n=16, risk="lost")])
        assert path.read_bytes() == before
        assert sorted(tmp_path.iterdir()) == [path]

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(ValueError):
            read_records(path)

    @pytest.mark.parametrize("row, message", [
        ("ngd,8,0,0.5", r"not enough values to unpack"),
        ("ngd,8.5,0,0.5,0.01,0", r"invalid literal for int\(\)")],
        ids=["short-row", "non-integer-n"])
    def test_malformed_row_names_file_and_line(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_text("estimator,n,seed,excess_risk,stderr,wall_ms\n"
                        "ngd,4,0,0.5,0.01,0\n\n" + row + "\n")
        with pytest.raises(ValueError, match=rf"bad\.csv:4: {message}"):
            read_records(path)


class TestExponentCalculators:
    """Closed-form rate exponents for the comparison setting."""

    def test_smoothness_index_reference_family(self):
        assert math.isclose(beta_tilde(3.0, 12.0, 3.0, 3.0), 34.0 / 7.0,
                            rel_tol=1e-15)
        assert math.isclose(beta_tilde_quoted(3.0, 12.0, 3.0, 3.0),
                            17.0 / 3.0, rel_tol=1e-15)
        assert QUOTED_BETA_TILDE == 17.0 / 3.0

    def test_smoothness_index_validation(self):
        with pytest.raises(ValueError):
            beta_tilde(1.0, 0.5, 1.0, 3.0)
        with pytest.raises(ValueError):
            beta_tilde_quoted(1.0, 1.0, 1.0, 3.0)

    def test_lower_exponent_values(self):
        got = linear_lower_exponents(3.0, 12.0, 3.0, 3.0, d=10)
        assert math.isclose(got.exponent, 69.0 / 104.0, rel_tol=1e-14)
        assert math.isclose(got.exponent_quoted, 32.0 / 47.0, rel_tol=1e-14)
        assert got.discrepant
        text = str(got)
        assert "disagree" in text

    def test_quoted_variant_undefined_reported_not_raised(self):
        # the published index needs alpha2 > gamma; the side-by-side report
        # degrades to NaN there, while the direct calculator still raises
        got = linear_lower_exponents(1.0, 1.0, 1.0, 3.0, d=1)
        assert math.isnan(got.beta_tilde_quoted)
        assert math.isnan(got.exponent_quoted)
        assert got.discrepant
        assert "undefined" in str(got)
        # beta_tilde = (1 + 4)/(1 - 1/2) = 10, so (2*10+1)/(2*10+2)
        assert math.isclose(got.exponent, 21.0 / 22.0, rel_tol=1e-14)

    def test_lower_exponent_decreasing_in_d(self):
        vals = [linear_lower_exponents(3.0, 12.0, 3.0, 3.0, d=d).exponent
                for d in (1, 2, 5, 10, 50)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(v > 0.5 for v in vals)

    def test_lower_exponent_validation(self):
        with pytest.raises(ValueError):
            linear_lower_exponents(3.0, 12.0, 3.0, 3.0, d=0)

    def test_upper_exponent_reference_value(self):
        assert nn_upper_exponent(3.0, 12.0, 3.0, q=0.0) == 0.75

    def test_upper_exponent_q_tradeoff(self):
        got = nn_upper_exponent(3.0, 12.0, 3.0, q=1.0, s=4.0)
        assert math.isclose(got, 3.0 / 16.0, rel_tol=1e-15)

    def test_upper_exponent_validation(self):
        with pytest.raises(ValueError):
            nn_upper_exponent(3.0, 12.0, 3.0, q=-0.1)
        with pytest.raises(ValueError):
            nn_upper_exponent(3.0, 12.0, 3.0, q=1.0, s=3.0)
        with pytest.raises(ValueError):
            nn_upper_exponent(0.1, 1.0, 5.0, q=0.0)

    def test_dominance_threshold(self):
        assert dominance_condition(3.0, 10)
        assert not dominance_condition(3.0, 3)
        # threshold is 2*(17/3)/d + 1: at d = 10 that is 34/30 + 1
        edge = 34.0 / 30.0 + 1.0
        assert not dominance_condition(edge, 10)  # strict inequality
        assert dominance_condition(edge + 1e-12, 10)
        assert dominance_condition(2.0, 10, beta_tilde=34.0 / 7.0)
        with pytest.raises(ValueError):
            dominance_condition(3.0, 0)
