"""Network definition, schedules, norms, and teacher sampling."""

import io
import math
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from mpmath.libmp import (fone, from_float, mpf_add, mpf_div, mpf_exp,
                           to_float)
from scipy.special import expit

from ngdbench.config import load_config
from ngdbench.model import (
    ScheduleConfig,
    TeacherSpec,
    active_width,
    bump_teacher,
    eval_network,
    h_norm,
    hgamma_norm,
    sample_teacher,
    save_teacher,
    save_weights,
    sigmoid,
    soft_clip,
    soft_clip_deriv,
    with_ones,
)
from ngdbench import model
from ngdbench.textio import parse_text
from oracles import network_oracle, pad_weights


def default_config(**kw):
    base = dict(d=1, R=1.0, gamma=1.0, alpha1=1.0, alpha2=4.0, s=3.0, c_mu=1.0)
    base.update(kw)
    return ScheduleConfig(**base)


def correctly_rounded_logistic(u):
    """1/(1+exp(-u)) in 113-bit arithmetic, rounded once to nearest float64."""
    return np.array([
        to_float(mpf_div(fone, mpf_add(fone, mpf_exp(from_float(-x), 113),
                                       113), 113), rnd="n")
        for x in u.tolist()])


class TestSigmoid:
    """The logistic function 1/(1+exp(-u)), saturating to exactly 0 and 1.

    numpy's exp, then a rounded add and a rounded reciprocal: within 2 ulp
    of the correctly rounded value wherever that is a normal float64, the
    worst case measured over 1.5 million points of [-800, 800].  Below
    u = -709.78 exp(-u) overflows and the result flushes to 0, as in
    scipy's expit; the cutoff test pins where."""

    def test_matches_reference_on_dense_grid(self):
        u = np.linspace(-800.0, 800.0, 80001)
        want = correctly_rounded_logistic(u)
        normal = want >= np.finfo(float).tiny
        np.testing.assert_array_max_ulp(sigmoid(u[normal]), want[normal],
                                        maxulp=2)

    def test_saturated_values_are_exact(self):
        assert sigmoid(38.0) == 1.0
        assert sigmoid(-746.0) == 0.0
        assert sigmoid(1e9) == 1.0
        assert sigmoid(-1e9) == 0.0

    def test_cutoffs_agree_with_reference_bitwise(self):
        # exactly 0 and 1 must come out only where the reference already
        # rounds to exactly 0 or 1
        near_hi = np.linspace(37.0, 39.0, 20001)
        near_lo = np.linspace(-747.0, -745.0, 20001)
        np.testing.assert_array_equal(sigmoid(near_hi), expit(near_hi))
        np.testing.assert_array_equal(sigmoid(near_lo), expit(near_lo))

    def test_scalar_input_gives_a_float64(self):
        for u in (2, 0.5, np.float32(0.5), np.array(0.5)):
            assert type(sigmoid(u)) is np.float64
        assert np.isnan(sigmoid(np.nan))

    def test_overflow_warns_nothing(self):
        u = np.array([-np.inf, -1e300, -800.0, np.nan, 800.0, np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sigmoid(u)
            assert sigmoid(-1e300) == 0.0
        np.testing.assert_array_equal(got, [0.0, 0.0, 0.0, np.nan, 1.0, 1.0])

    def test_scalar_and_array_paths_agree(self):
        for u in (-5.0, -0.3, 0.0, 2.2, 40.0, -800.0):
            assert sigmoid(u) == sigmoid(np.array([u]))[0]


class TestSoftClip:
    """R*tanh(w/R): bounded, 1-Lipschitz, identity-like near zero."""

    def test_zero_fixed_point(self):
        assert soft_clip(0.0, 2.0) == 0.0

    def test_bounded_by_clip_level(self):
        # mathematically |R tanh(w/R)| < R strictly; in floats the extreme
        # tail rounds onto the boundary, so strictness is checked at
        # moderate arguments and the closed bound at the extremes
        w = np.array([-1e6, -3.0, 0.5, 7.0, 1e6])
        moderate = np.array([-8.0, -3.0, 0.5, 7.0])
        for R in (1.0, 2.5):
            assert np.all(np.abs(soft_clip(w, R)) <= R)
            assert np.all(np.abs(soft_clip(moderate, R)) < R)

    def test_one_lipschitz_on_random_pairs(self):
        rng = np.random.default_rng(7)
        w = rng.normal(scale=4.0, size=500)
        v = rng.normal(scale=4.0, size=500)
        for R in (1.0, 3.0):
            lhs = np.abs(soft_clip(w, R) - soft_clip(v, R))
            assert np.all(lhs <= np.abs(w - v) + 1e-15)

    def test_derivative_matches_finite_differences(self):
        w = np.linspace(-4, 4, 41)
        h = 1e-6
        fd = (soft_clip(w + h, 1.5) - soft_clip(w - h, 1.5)) / (2 * h)
        np.testing.assert_allclose(soft_clip_deriv(w, 1.5), fd, atol=1e-9)


class TestScheduleConfig:
    """Power schedules mu, amplitude, width, and the scaled activation."""

    def test_schedule_values(self):
        cfg = default_config(alpha1=1.5, alpha2=2.0, c_mu=1.0)
        assert cfg.mu(1) == 1.0
        assert cfg.mu(2) == 0.25
        assert cfg.amp(2) == 0.25 ** 1.5
        assert cfg.width(2) == 0.25 ** 2.0

    def test_admissibility_enforced(self):
        with pytest.raises(ValueError):
            default_config(s=2.0)
        with pytest.raises(ValueError):
            default_config(alpha1=0.5)
        with pytest.raises(ValueError):
            default_config(alpha2=0.5, gamma=1.0)
        with pytest.raises(ValueError):
            default_config(R=0.5)

    # the scaled activation of block m, read through eval_network: at x = 0
    # the preactivation of block m is its bias u, and only block m has a
    # nonzero output weight, so f = amp(m) * tanh(0.5) * act_m(u)
    @staticmethod
    def block_network(cfg, m, u):
        W = np.zeros((m, cfg.d + 2))
        W[m - 1, -2:] = u, 0.5
        return eval_network(cfg, W, np.zeros(cfg.d))

    def test_activation_block_one_at_zero(self):
        cfg = default_config()
        assert self.block_network(cfg, 1, 0.0) == 0.5 * math.tanh(0.5)

    def test_activation_block_two_oracle(self):
        # b_2 = 0.25 at alpha2=1, so the value is 0.25^3 * sigmoid(0.4)
        cfg = default_config(alpha2=1.0, gamma=1.0)
        got = self.block_network(cfg, 2, 0.1)
        want = cfg.amp(2) * math.tanh(0.5) * 0.25 ** 3 / (1.0 + math.exp(-0.4))
        assert math.isclose(got, want, rel_tol=1e-15)

    def test_activation_saturates_at_width_power(self):
        cfg = default_config(alpha2=2.0)
        for m in (1, 2, 5):
            sup = cfg.amp(m) * math.tanh(0.5) * cfg.width(m) ** cfg.s
            assert math.isclose(self.block_network(cfg, m, 1e4), sup,
                                rel_tol=1e-12)
            assert self.block_network(cfg, m, -1e4) == 0.0

    def test_activation_deriv_matches_finite_differences(self):
        # d f / d u = amp(m) tanh(0.5) width^(s-1) sigmoid'(u / width)
        cfg = default_config(alpha2=1.5)
        h = 1e-6
        for m in (1, 2, 3):
            b = cfg.width(m)
            for u in (-0.7, 0.0, 0.4):
                fd = (self.block_network(cfg, m, u + h)
                      - self.block_network(cfg, m, u - h)) / (2 * h)
                p = expit(u / b)
                want = cfg.amp(m) * math.tanh(0.5) * b ** (cfg.s - 1) * p * (1 - p)
                assert math.isclose(fd, want, rel_tol=1e-7, abs_tol=1e-12)


class TestEvalNetwork:
    """Clipped two-layer forward pass."""

    def test_zero_weights_give_zero_everywhere(self):
        cfg = default_config(d=3)
        W = np.zeros((4, cfg.d + 2))
        x = np.random.default_rng(0).random((20, 3))
        np.testing.assert_array_equal(eval_network(cfg, W, x), 0.0)
        # no blocks at all, as one matrix and as a stack of two
        for empty in (W[:0], np.zeros((2, 0, cfg.d + 2))):
            np.testing.assert_array_equal(eval_network(cfg, empty, x), 0.0)

    def test_single_block_oracle(self):
        # one unit-schedule block: value is tanh(0.5) * sigmoid(0.5)
        cfg = default_config(d=1)
        W = np.array([[1.0, 0.0, 0.5]])  # w1 = (1, 0), w2 = 0.5
        got = eval_network(cfg, W, np.array([0.5]))
        want = math.tanh(0.5) / (1.0 + math.exp(-0.5))
        assert math.isclose(got, want, rel_tol=1e-15)
        assert math.isclose(got, 0.28764913664496792, rel_tol=1e-15)

    def test_uniform_bound(self):
        cfg = default_config(d=2, alpha1=1.0)
        rng = np.random.default_rng(3)
        W = rng.normal(scale=5.0, size=(6, 4))
        x = rng.random((50, 2))
        total_amp = sum(cfg.amp(m) for m in range(1, 7))
        assert np.all(np.abs(eval_network(cfg, W, x)) <= cfg.R * total_amp)

    def test_dimension_mismatch_rejected(self):
        cfg = default_config(d=2)
        W = np.zeros((1, 4))
        with pytest.raises(ValueError):
            eval_network(cfg, W, np.array([0.1, 0.2, 0.3]))

    def test_batch_matches_scalar_loop(self):
        cfg = default_config(d=2, alpha2=2.0)
        rng = np.random.default_rng(11)
        W = rng.normal(size=(3, 4))
        X = rng.random((7, 2))
        batch = eval_network(cfg, W, X)
        singles = [eval_network(cfg, W, xi) for xi in X]
        np.testing.assert_allclose(batch, singles, rtol=1e-15)

    @pytest.mark.parametrize("S", [None, 37], ids=["matrix", "stack"])
    def test_matches_every_block_oracle_on_committed_schedule(self,
                                                              monkeypatch, S):
        """eval_network reads the live blocks only; the every-block oracle
        differs by at most the dead blocks' R * sum amp(m) width(m)^s."""
        cfg = load_config(Path(__file__).resolve().parents[1]
                          / "configs" / "comparison.cfg").schedule
        rng = np.random.default_rng(8)
        M = 3
        W = rng.normal(scale=0.7, size=(S or 1, M, cfg.d + 2))
        # same-sign terms keep the relative tolerance free of cancellation
        W[..., -1] = np.abs(W[..., -1])
        a = active_width(cfg, M)
        m = np.arange(a + 1, M + 1)
        tail = cfg.R * float(np.sum(cfg.amp(m) * cfg.width(m) ** cfg.s))
        monkeypatch.setattr(model, "_AVERAGE_CHUNK", 256)
        rows = 256 // (len(W) * a)
        x = rng.random((2 * rows + 5, cfg.d))  # two whole chunks, a partial
        want = np.mean([network_oracle(cfg, Ws, x) for Ws in W], axis=0)
        got = eval_network(cfg, W if S else W[0], x)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=tail)
        one = eval_network(cfg, W if S else W[0], x[3])
        assert isinstance(one, float)
        assert one == pytest.approx(want[3], rel=1e-12, abs=tail)


class TestActiveWidth:
    """Blocks whose gradient scale is above float64 eps relative to block 1."""

    def test_committed_schedule_keeps_block_one_only(self):
        cfg = load_config(Path(__file__).resolve().parents[1]
                          / "configs" / "comparison.cfg").schedule
        assert active_width(cfg, 2) == 1
        assert active_width(cfg, 3) == 1

    def test_default_schedule_keeps_every_block(self):
        cfg = default_config(d=2)
        for M in range(1, 8):  # the auto width rule gives 7 at n = 2048
            assert active_width(cfg, M) == M

    def test_threshold_is_eps_relative_to_block_one(self):
        # gradient scale mu(m)^(alpha1 + alpha2 (s-1)) = m^-18 here, which
        # crosses eps = 2.2e-16 between m = 7 (6.1e-16) and m = 8 (5.6e-17)
        cfg = default_config(d=2)
        assert active_width(cfg, 8) == 7
        assert active_width(cfg, 20) == 7


class TestNorms:
    """Plain and schedule-weighted parameter norms."""

    def test_zero_vector(self):
        cfg = default_config(d=2)
        W = np.zeros((3, 4))
        assert h_norm(W) == 0.0
        assert hgamma_norm(cfg, W) == 0.0

    def test_single_block_equals_euclidean_for_any_weighting(self):
        cfg = default_config(d=2)
        W = np.zeros((3, 4))
        W[0] = [0.3, -0.4, 1.2, 0.0]
        target = math.sqrt(0.3 ** 2 + 0.4 ** 2 + 1.2 ** 2)
        for g in (0.0, 0.5, 1.0, 3.7):
            assert math.isclose(hgamma_norm(cfg, W, g), target, rel_tol=1e-15)

    def test_two_block_weighted_oracle(self):
        cfg = default_config(d=1)
        W = np.array([[1.0, 2.0, 2.0], [0.5, 0.0, 0.5]])
        b1 = 1.0 + 4.0 + 4.0
        b2 = 0.25 + 0.25
        want = math.sqrt(b1 + 4.0 * b2)  # second block weighted by 1/mu(2)=4
        assert math.isclose(hgamma_norm(cfg, W, 1.0), want, rel_tol=1e-15)

    def test_zero_padding_leaves_norms_unchanged(self):
        cfg = default_config(d=2)
        rng = np.random.default_rng(5)
        W = rng.normal(size=(3, 4))
        Wp = pad_weights(W, 9)
        assert Wp.shape == (9, 4)
        assert math.isclose(h_norm(W), h_norm(Wp), rel_tol=1e-15)
        for g in (0.5, 1.0, 2.0):
            assert math.isclose(hgamma_norm(cfg, W, g), hgamma_norm(cfg, Wp, g),
                                rel_tol=1e-15)
        x = rng.random((4, 2))
        np.testing.assert_allclose(eval_network(cfg, W, x),
                                   eval_network(cfg, Wp, x), rtol=1e-15)

    def test_negative_weighting_rejected(self):
        cfg = default_config()
        with pytest.raises(ValueError):
            hgamma_norm(cfg, np.zeros((1, 3)), -1.0)

    def test_with_ones_appends_constant_coordinate(self):
        X = np.array([[0.1, 0.2], [0.3, 0.4]])
        X1, single = with_ones(X, 2)
        assert not single
        np.testing.assert_array_equal(X1[:, -1], 1.0)
        np.testing.assert_array_equal(X1[:, :2], X)
        with pytest.raises(ValueError):
            with_ones(X, 3)


class TestCheckAssumptions:
    """ScheduleConfig rejects inadmissible schedules, naming each failed
    clause, and carries the exact activation-derivative bound."""

    def test_reference_setting_passes(self):
        cfg = ScheduleConfig(d=10, gamma=1.0, alpha1=1.0, alpha2=4.0, s=3.0)
        assert math.isfinite(cfg.sigma_bound)

    def test_s_clause(self):
        with pytest.raises(ValueError, match=r"^inadmissible schedule: s >= 3$"):
            default_config(s=2.0)

    def test_alpha2_boundary_clause(self):
        with pytest.raises(ValueError, match=r": alpha2 > gamma/2$"):
            default_config(gamma=2.0, alpha2=1.0)

    def test_width_constant_clause(self):
        with pytest.raises(ValueError, match=r": b_m <= 1 \(needs c_mu <= 1\)$"):
            default_config(c_mu=2.0)

    @pytest.mark.parametrize("field, value, clause", [
        ("d", 0, "d >= 1"),
        ("R", 0.5, "R >= 1"),
        ("gamma", 0.0, "gamma > 0"),
        ("alpha1", 0.5, "alpha1 > 1/2"),
        ("c_mu", 0.0, "c_mu > 0"),
    ])
    def test_remaining_clauses(self, field, value, clause):
        with pytest.raises(ValueError) as err:
            default_config(**{field: value})
        assert str(err.value) == f"inadmissible schedule: {clause}"

    def test_failing_clauses_named_together(self):
        with pytest.raises(ValueError) as err:
            default_config(alpha1=0.25, s=2.0)
        assert str(err.value) == "inadmissible schedule: alpha1 > 1/2; s >= 3"

    def test_derivative_bound_first_derivative(self):
        # with b_1 = 1 the first derivative peaks at exactly 1/4
        assert math.isclose(default_config().sigma_bound, 0.25, rel_tol=1e-6)

    def test_derivative_bound_third_derivative(self):
        # b_1 = 0.5^2 = 1/4 and s = 5 give the terms b^4 / 4, b^3 sqrt(3) / 18
        # and b^2 / 8; the third-derivative sup 1/8 decides
        cfg = default_config(alpha2=2.0, s=5.0, c_mu=0.5)
        assert cfg.sigma_bound == 0.0078125


class TestTeachers:
    """Random and bump teachers inside the unit weighted-norm ball."""

    def test_sampled_radius_is_exact(self):
        cfg = default_config(d=3, gamma=2.0)
        for radius in (0.25, 1.0):
            t = sample_teacher(cfg, width=6, radius=radius, seed=42)
            assert math.isclose(hgamma_norm(cfg, t.weights), radius,
                                rel_tol=1e-12)

    def test_same_seed_bit_identical(self):
        cfg = default_config(d=2)
        a = sample_teacher(cfg, width=5, radius=0.8, seed=9)
        b = sample_teacher(cfg, width=5, radius=0.8, seed=9)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_different_seeds_differ(self):
        cfg = default_config(d=2)
        a = sample_teacher(cfg, width=5, radius=0.8, seed=1)
        b = sample_teacher(cfg, width=5, radius=0.8, seed=2)
        assert not np.array_equal(a.weights, b.weights)

    def test_radius_above_one_rejected(self):
        cfg = default_config()
        with pytest.raises(ValueError):
            sample_teacher(cfg, width=3, radius=1.2, seed=0)

    def test_teacher_is_evaluable(self):
        cfg = default_config(d=2)
        t = sample_teacher(cfg, width=4, radius=0.9, seed=0)
        x = np.random.default_rng(1).random((10, 2))
        np.testing.assert_allclose(t(x), eval_network(cfg, t.weights, x),
                                   rtol=1e-15)

    def test_bump_teacher_radius_and_shape(self):
        cfg = default_config(d=2, gamma=1.5)
        t = bump_teacher(cfg, width=4, radius=0.7)
        assert math.isclose(hgamma_norm(cfg, t.weights), 0.7, rel_tol=1e-12)
        assert t.kind == "bump"

    def test_tail_amplitude_decreasing_in_width(self):
        cfg = default_config(d=1, alpha1=1.0)
        t = sample_teacher(cfg, width=8, radius=1.0, seed=0)
        tails = [t.tail_amplitude(m) for m in (1, 2, 4, 8)]
        assert all(a > b for a, b in zip(tails, tails[1:]))
        assert t.tail_amplitude(8) == 0.0


class TestSerialization:
    """The written teacher and weight files: exact text, full precision."""

    @staticmethod
    def read_blocks(path):
        """The header and the `blocks:` rows of a written file."""
        head, _, body = path.read_text().partition("blocks:\n")
        return (parse_text(head, str(path))[0],
                np.loadtxt(io.StringIO(body), ndmin=2))

    def test_teacher_round_trip(self, tmp_path):
        cfg = default_config(d=2, gamma=2.0, alpha2=3.0)
        t = sample_teacher(cfg, width=5, radius=0.6, seed=77)
        path = tmp_path / "teacher.txt"
        save_teacher(path, t)
        header, blocks = self.read_blocks(path)
        assert {k: float(header[k]) for k in asdict(cfg)} == asdict(cfg)
        assert float(header["radius"]) == t.radius
        assert int(header["seed"]) == t.seed
        assert int(header["M"]) == t.width
        np.testing.assert_array_equal(blocks, t.weights)

    def test_weights_round_trip_single(self, tmp_path):
        cfg = default_config(d=1)
        W = np.random.default_rng(0).normal(size=(3, 3))
        path = tmp_path / "w.txt"
        save_weights(path, cfg, W, extra={"note": "unit"})
        header, blocks = self.read_blocks(path)
        assert {k: float(header[k]) for k in asdict(cfg)} == asdict(cfg)
        assert (header["M"], header["snapshots"], header["note"]) == (
            "3", "1", "unit")
        np.testing.assert_array_equal(blocks, W)

    GOLDEN_CFG = dict(d=1, R=2.0, gamma=1.5, alpha1=1.0, alpha2=4.0, s=3.0,
                      c_mu=0.5)
    GOLDEN_HEADER = ("d = 1\nR = 2\ngamma = 1.5\nalpha1 = 1\nalpha2 = 4\n"
                     "s = 3\nc_mu = 0.5\n")

    def test_teacher_file_bytes(self, tmp_path):
        cfg = default_config(**self.GOLDEN_CFG)
        t = TeacherSpec(config=cfg, radius=0.5, seed=3,
                        weights=np.array([[0.5, -0.25, 0.125],
                                          [0.0, 1.0, -2.0]]))
        path = tmp_path / "teacher.txt"
        save_teacher(path, t)
        want = ("# ngdbench teacher\n" + self.GOLDEN_HEADER
                + "M = 2\nseed = 3\nradius = 0.5\nkind = gaussian\n"
                "blocks:\n0.5 -0.25 0.125\n0 1 -2\n")
        assert path.read_text() == want

    def test_weights_file_bytes_with_extra(self, tmp_path):
        cfg = default_config(**self.GOLDEN_CFG)
        stack = np.array([[[0.5, -0.25, 0.125]], [[0.1, 0.2, 0.3]]])
        path = tmp_path / "w.txt"
        save_weights(path, cfg, stack,
                     extra={"kind": "kept-iterates", "burn_in": 4, "eta": 0.25})
        want = ("# ngdbench weights\n" + self.GOLDEN_HEADER
                + "M = 1\nsnapshots = 2\nkind = kept-iterates\nburn_in = 4\n"
                "eta = 0.25\nblocks:\n0.5 -0.25 0.125\n0.10000000000000001 "
                "0.20000000000000001 0.29999999999999999\n")
        assert path.read_text() == want

    def test_weights_round_trip_stack(self, tmp_path):
        cfg = default_config(d=2)
        stack = np.random.default_rng(1).normal(size=(4, 2, 4))
        path = tmp_path / "stack.txt"
        save_weights(path, cfg, stack)
        header, blocks = self.read_blocks(path)
        assert (header["M"], header["snapshots"]) == ("2", "4")
        np.testing.assert_array_equal(blocks.reshape(stack.shape), stack)
