"""Ridge-combination approximation of Gaussian bumps."""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from scipy.integrate import quad

from ngdbench import lowerbound, model
from ngdbench.config import load_config
from ngdbench.lowerbound import (
    BumpApproxConfig,
    RidgeApprox,
    _direction_nodes,
    build_bump_approx,
    gauss_bump,
    gaussian_ball_mass,
    save_approx_csv,
    sup_error,
    window_fourier_at_one,
)
from ngdbench.model import sigmoid
from oracles import empty_approx, ridge_eval_sigmoid, sigmoid_window


def quick_cfg(**kw):
    base = dict(d=1, h=0.25, center=(0.5,), direction_radius=4.0,
                quad_a=64, quad_b=128, grid=257)
    base.update(kw)
    return BumpApproxConfig(**base)


class TestWindow:
    """The even sigmoid-difference window and its unit-frequency transform."""

    def test_peak_value(self):
        assert sigmoid_window(0.0) == sigmoid(1.0) - 0.5

    def test_even_positive_decaying(self):
        t = np.linspace(0.0, 30.0, 300)
        vals = sigmoid_window(t)
        np.testing.assert_allclose(sigmoid_window(-t), vals, rtol=0,
                                   atol=1e-15)
        assert np.all(vals > 0.0)
        assert np.all(np.diff(vals) < 0.0)
        # far tail underflows cleanly to zero rather than going negative
        assert sigmoid_window(60.0) == 0.0

    def test_scalar_and_array_forms(self):
        assert isinstance(sigmoid_window(1.5), float)
        out = sigmoid_window(np.array([0.0, 1.5]))
        assert out.shape == (2,)
        assert out[1] == sigmoid_window(1.5)

    def test_unit_integral(self):
        val, _ = quad(sigmoid_window, -60, 60, epsabs=1e-13)
        assert math.isclose(val, 1.0, rel_tol=1e-10)

    def test_transform_matches_closed_form(self):
        # (2 pi)^-1 integral of the even window against cos(t), by adaptive
        # Fourier quadrature over [0, inf)
        val, err = quad(sigmoid_window, 0, np.inf, weight="cos", wvar=1.0,
                        epsabs=1e-12, limlst=200)
        assert err < 1e-10
        assert math.isclose(window_fourier_at_one(), val / math.pi,
                            rel_tol=1e-12)

    def test_transform_frozen_value(self):
        assert math.isclose(window_fourier_at_one(),
                            0.036431291709734457, rel_tol=1e-13)


class TestGaussians:
    """Bump evaluation and standard-normal ball masses."""

    def test_bump_center_value_and_shape(self):
        assert gauss_bump((0.3, 0.7), 0.2, np.array([0.3, 0.7])) == 1.0
        out = gauss_bump((0.0,), 1.0, np.array([[0.0], [1.0]]))
        assert out.shape == (2,)
        assert math.isclose(out[1], math.exp(-0.5), rel_tol=1e-15)

    def test_ball_mass_matches_chi_square_cdf(self):
        forms = {
            1: lambda r: math.erf(r / math.sqrt(2.0)),
            2: lambda r: 1.0 - math.exp(-r * r / 2.0),
            3: lambda r: (math.erf(r / math.sqrt(2.0)) - math.sqrt(2.0 / math.pi)
                          * r * math.exp(-r * r / 2.0)),
        }
        for d, want in forms.items():
            for r in (0.5, 1.0, 2.5, 6.0):
                got = gaussian_ball_mass(d, r)
                assert math.isclose(got, want(r), rel_tol=1e-13), (d, r)

    def test_ball_mass_matches_gammainc(self):
        # scipy's regularized lower incomplete gamma as the oracle, over the
        # whole range where the mass is at least 1e-6
        for d in range(1, 13):
            for r in np.geomspace(1e-3, 60.0, 1201):
                want = scipy.special.gammainc(d / 2.0, r * r / 2.0)
                if want >= 1e-6:
                    got = gaussian_ball_mass(d, r)
                    assert math.isclose(got, want, rel_tol=1e-12), (d, r)

    def test_ball_mass_edges(self):
        assert gaussian_ball_mass(2, 0.0) == 0.0
        assert gaussian_ball_mass(1, 40.0) == pytest.approx(1.0, rel=1e-12)
        assert gaussian_ball_mass(3, math.inf) == 1.0
        with pytest.raises(ValueError):
            gaussian_ball_mass(0, 1.0)


class TestConfig:
    """Geometry bookkeeping and validation."""

    def test_default_offset_factor(self):
        for d in (1, 2, 3):
            cfg = BumpApproxConfig(d=d, h=0.25, center=(0.5,) * d,
                                   direction_radius=4.0)
            assert cfg.offset_factor == math.sqrt(2.0 * d) + 1.0
            assert cfg.offset_radius == cfg.offset_factor * 4.0

    def test_explicit_offset_factor_kept(self):
        cfg = quick_cfg(offset_factor=2.0 + 1.0)
        assert cfg.offset_radius == 12.0

    def test_eval_grid_shapes(self):
        assert quick_cfg(grid=5).eval_grid().shape == (5, 1)
        g2 = BumpApproxConfig(d=2, h=0.3, center=(0.5, 0.5), grid=4).eval_grid()
        assert g2.shape == (16, 2)
        assert g2.min() == 0.0 and g2.max() == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            BumpApproxConfig(d=4, h=0.25, center=(0.5,) * 4)
        with pytest.raises(ValueError):
            BumpApproxConfig(d=2, h=0.25, center=(0.5,))
        with pytest.raises(ValueError):
            quick_cfg(h=0.0)
        with pytest.raises(ValueError):
            quick_cfg(quad_a=1)
        with pytest.raises(ValueError):
            quick_cfg(direction_radius=-1.0)
        with pytest.raises(ValueError):
            quick_cfg(offset_factor=0.0)

    @pytest.mark.parametrize("field, value", [
        ("h", math.nan), ("h", math.inf), ("center", (math.nan,)),
        ("direction_radius", math.nan), ("direction_radius", math.inf),
        ("offset_factor", math.nan), ("offset_factor", math.inf)])
    def test_non_finite_values_fail(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be a? ?finite"):
            quick_cfg(**{field: value})


class TestBuild:
    """Quadrature assembly, accuracy, and the sigma-atom certificate."""

    def test_accuracy_improves_with_direction_radius(self):
        rels = []
        for D in (2.0, 4.0):
            ap = build_bump_approx(quick_cfg(direction_radius=D))
            rels.append(ap.reported_sup_error / ap.scale)
        assert rels[1] < rels[0]
        assert math.isclose(rels[0], 4.550e-2, rel_tol=0.01)
        assert rels[1] <= 1e-4

    def test_scale_bookkeeping(self):
        cfg = quick_cfg()
        ap = build_bump_approx(cfg)
        n1 = gaussian_ball_mass(1, 4.0)
        assert math.isclose(ap.scale,
                            1.0 / (2.0 * cfg.offset_radius * n1),
                            rel_tol=1e-14)
        assert ap.ball_mass == n1
        assert ap.tau == cfg.offset_radius / cfg.h

    def test_builder_and_generic_sup_agree(self):
        ap = build_bump_approx(quick_cfg(grid=101))
        assert ap.reported_sup_error == sup_error(ap)

    def test_atom_constraints_certified(self):
        ap = build_bump_approx(quick_cfg())
        dir_norm, off_max, mass = ap.check_atoms()
        assert dir_norm <= 1.0
        assert off_max <= 2.0
        assert mass <= ap.coef_budget
        # budget is 2 D_b / (pi h |psi_hat(1)|)
        want = 2.0 * ap.cfg.offset_radius / (
            math.pi * 0.25 * window_fourier_at_one())
        assert math.isclose(ap.coef_budget, want, rel_tol=1e-14)

    def test_sigma_atom_reconstruction(self):
        """Atoms coef * sigmoid(tau (a.x + b)) resum to the combination."""
        ap = build_bump_approx(quick_cfg(quad_a=32, quad_b=64, grid=33))
        coef, dirs, offs = ap.sigma_atoms()
        assert coef.size == 2 * ap.n_atoms
        x = np.random.default_rng(0).random((6, 1))
        manual = sigmoid(ap.tau * (x @ dirs.T + offs[None, :])) @ coef
        np.testing.assert_allclose(manual, ap(x), rtol=0,
                                   atol=1e-11 * ap.scale)

    @pytest.mark.parametrize("atom", [
        ([math.nan], 0.0, 1.0), ([0.5], math.nan, 1.0), ([0.5], 0.0, math.nan)],
        ids=["direction", "offset", "coefficient"])
    def test_nan_atom_is_not_certified(self, atom):
        # NaN compares False against every bound, so each check must be
        # written to fail on it rather than to pass
        direction, offset, coef = atom
        ap = hand_built([[0.25], direction], [0.0, offset], [1.0, coef])
        with pytest.raises(AssertionError, match="nan"):
            ap.check_atoms()

    def test_empty_combination(self):
        ap = empty_approx(quick_cfg())
        assert ap.n_atoms == 0
        assert ap(np.array([[0.5]])) == 0.0
        ap.check_atoms()
        # the zero function misses the bump peak by exactly scale
        assert math.isclose(sup_error(ap), ap.scale, rel_tol=1e-12)

    def test_hand_built_reports_its_sup_error(self):
        ap = empty_approx(quick_cfg(grid=64))
        assert ap.reported_sup_error == sup_error(ap) > 0.0

    def test_point_dimension_validated(self):
        ap = empty_approx(quick_cfg())
        with pytest.raises(ValueError):
            ap(np.zeros((2, 3)))

    def test_two_dimensional_build(self):
        cfg = BumpApproxConfig(d=2, h=0.5, center=(0.4, 0.6),
                               direction_radius=3.0, quad_a=32, quad_b=64,
                               grid=9)
        ap = build_bump_approx(cfg)
        rel = ap.reported_sup_error / ap.scale
        assert 1e-4 <= rel <= 2e-2
        ap.check_atoms()

    def test_three_dimensional_structure(self):
        cfg = BumpApproxConfig(d=3, h=0.6, center=(0.5, 0.5, 0.5),
                               direction_radius=2.5, quad_a=8, quad_b=32,
                               grid=5)
        ap = build_bump_approx(cfg)
        assert ap.directions.shape == (8 * 8 * 16 * 32, 3)
        assert np.isfinite(ap.reported_sup_error)
        coef, dirs, offs = ap.sigma_atoms()
        x = np.random.default_rng(1).random((3, 3))
        manual = sigmoid(ap.tau * (x @ dirs.T + offs[None, :])) @ coef
        np.testing.assert_allclose(manual, ap(x), rtol=0,
                                   atol=1e-11 * ap.scale)

    def test_sup_error_accepts_plain_callables(self):
        cfg = quick_cfg(grid=51)
        scale = 1.0 / (2.0 * cfg.offset_radius * gaussian_ball_mass(1, 4.0))
        exact = lambda x: scale * gauss_bump(cfg.center, cfg.h, x)
        assert sup_error(exact, cfg=cfg) == 0.0
        zero = lambda x: np.zeros(np.atleast_2d(x).shape[0])
        assert math.isclose(sup_error(zero, cfg=cfg), scale, rel_tol=1e-12)


# small builds in each dimension, even quadrature sizes (no self-antipodal
# direction or offset node)
SMALL_CFGS = {
    1: quick_cfg(),
    2: BumpApproxConfig(d=2, h=0.5, center=(0.4, 0.6), direction_radius=3.0,
                        quad_a=16, quad_b=48, grid=17),
    3: BumpApproxConfig(d=3, h=0.6, center=(0.5, 0.4, 0.6),
                        direction_radius=2.5, quad_a=6, quad_b=24, grid=5),
}


def hand_built(directions, offsets, coefs, h=1.0):
    d = len(directions[0])
    cfg = BumpApproxConfig(d=d, h=h, center=(0.0,) * d)
    return RidgeApprox(cfg=cfg, directions=np.array(directions, dtype=float),
                       offsets=np.array(offsets, dtype=float),
                       coefs=np.array(coefs, dtype=float))


class TestEvaluator:
    """The evaluator: one-cosh window, merged antipodal atoms, bounded
    blocks."""

    def test_closed_form_window(self):
        # bound, stated before measuring: 4.4e-16 absolute (two ulps of the
        # window's peak).  One atom with unit direction, zero offset and
        # h = 1 evaluates sinh(1) / (2 (cosh t + cosh 1)) at t itself
        ap = hand_built([[1.0]], [0.0], [1.0])
        t = np.linspace(-60.0, 60.0, 120001)
        np.testing.assert_allclose(ap(t[:, None]), sigmoid_window(t), rtol=0,
                                   atol=4.4e-16)

    def test_window_overflow_gives_zero(self):
        ap = hand_built([[1.0]], [0.0], [1.0])
        with np.errstate(all="raise"):
            vals = ap(np.array([[800.0], [-1e300]]))
        assert vals.tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_atom_by_atom_sum(self, d):
        # bound, stated before measuring: 1e-14 * scale
        ap = build_bump_approx(SMALL_CFGS[d])
        pts = np.concatenate([ap.cfg.eval_grid(),
                              np.random.default_rng(d).random((50, d))])
        np.testing.assert_allclose(ap(pts), ridge_eval_sigmoid(ap, pts),
                                   rtol=0, atol=1e-14 * ap.scale)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_direction_nodes_are_antipodal(self, d):
        for quad_a in (5, 6):
            cfg = BumpApproxConfig(d=d, h=0.5, center=(0.5,) * d,
                                   direction_radius=3.0, quad_a=quad_a)
            nodes, weights = _direction_nodes(cfg)
            weight_at = {tuple(a): w for a, w in zip(nodes.tolist(),
                                                     weights.tolist())}
            assert len(weight_at) == len(nodes)
            for a, w in zip((-nodes).tolist(), weights.tolist()):
                assert weight_at[tuple(a)] == w

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_build_merges_to_half(self, d):
        ap = build_bump_approx(SMALL_CFGS[d])
        dirs, offs, coefs = ap._eval_form
        assert coefs.size == ap.n_atoms // 2 and ap.n_atoms % 2 == 0
        assert dirs.shape == (ap.n_atoms // 2, d) and offs.shape == coefs.shape

    def test_unpaired_atoms_all_kept(self):
        ap = hand_built([[1.0, 0.0], [0.0, -1.0], [-1.0, 0.0], [2.0, 1.0]],
                        [0.5, 0.3, 0.5, 0.0], [0.1, 0.2, 0.3, 0.4])
        assert ap._eval_form[2].size == 4

    def test_antipodal_pair_merges_into_sum(self):
        pair = hand_built([[0.0, 1.5], [0.0, -1.5]], [-0.25, 0.25],
                          [0.25, 0.5])
        one = hand_built([[0.0, 1.5]], [-0.25], [0.75])
        dirs, offs, coefs = pair._eval_form
        assert dirs.tolist() == [[0.0, 1.5]] and offs.tolist() == [-0.25]
        assert coefs.tolist() == [0.75 * math.sinh(1.0) / 2.0]
        x = np.random.default_rng(0).random((7, 2))
        np.testing.assert_array_equal(pair(x), one(x))
        assert pair.n_atoms == 2

    def test_no_sigmoid_during_evaluation(self, monkeypatch):
        ap = build_bump_approx(SMALL_CFGS[2])
        fresh = RidgeApprox(cfg=ap.cfg, directions=ap.directions,
                            offsets=ap.offsets, coefs=ap.coefs)

        def forbidden(*args, **kwargs):
            raise AssertionError("sigmoid called during evaluation")

        assert not hasattr(lowerbound, "sigmoid")
        monkeypatch.setattr(model, "sigmoid", forbidden)
        monkeypatch.setattr(scipy.special, "expit", forbidden)
        vals = fresh(ap.cfg.eval_grid())
        np.testing.assert_array_equal(vals, ap.on_grid[2])

    def test_committed_grid_memory_is_bounded(self):
        # bound, stated before measuring: 8 MiB.  One 2 MiB block buffer, the
        # merged atoms and the merge's temporaries fit; one 4e6-double block
        # (32 MB) does not
        cfg = load_config(Path(__file__).resolve().parents[1] / "configs"
                          / "comparison.cfg").lemma
        ap = build_bump_approx(cfg)
        fresh = RidgeApprox(cfg=cfg, directions=ap.directions,
                            offsets=ap.offsets, coefs=ap.coefs)
        pts = cfg.eval_grid()
        tracemalloc.start()
        try:
            vals = fresh(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        np.testing.assert_array_equal(vals, ap.on_grid[2])

    def test_empty_batch(self):
        for ap in (build_bump_approx(SMALL_CFGS[2]),
                   empty_approx(SMALL_CFGS[2])):
            out = ap(np.zeros((0, 2)))
            assert isinstance(out, np.ndarray) and out.shape == (0,)


class TestApproxCsv:
    """Plot-ready dump of one approximation."""

    def test_file_layout(self, tmp_path):
        cfg = quick_cfg(quad_a=16, quad_b=32, grid=21)
        ap = build_bump_approx(cfg)
        path = tmp_path / "bump.csv"
        save_approx_csv(path, ap)
        lines = path.read_text().splitlines()
        header = [ln for ln in lines if ln.startswith("#")]
        fields = dict(ln[2:].split(" = ") for ln in header if " = " in ln)
        assert fields["d"] == "1"
        assert float(fields["tau"]) == ap.tau
        assert float(fields["sup_error"]) == ap.reported_sup_error
        col_line = lines[len(header)]
        assert col_line == "x1,bump,approx,error"
        assert len(lines) == len(header) + 1 + 21
        first = lines[len(header) + 1].split(",")
        assert float(first[0]) == 0.0
        assert math.isclose(float(first[3]),
                            abs(float(first[1]) - float(first[2])),
                            rel_tol=1e-12, abs_tol=1e-300)

    def test_grid_is_evaluated_once(self, tmp_path, monkeypatch):
        calls = []
        evaluate = RidgeApprox.__call__

        def counted(self, x):
            calls.append(np.shape(x))
            return evaluate(self, x)

        monkeypatch.setattr(RidgeApprox, "__call__", counted)
        cfg = quick_cfg(quad_a=16, quad_b=32, grid=21)
        ap = build_bump_approx(cfg)
        path = tmp_path / "bump.csv"
        save_approx_csv(path, ap)
        assert calls == [(21, 1)]
        monkeypatch.undo()
        rows = [ln.split(",") for ln in path.read_text().splitlines()
                if not ln.startswith("#")][1:]
        np.testing.assert_array_equal([float(r[2]) for r in rows],
                                      ap(cfg.eval_grid()))
        assert ap.reported_sup_error == sup_error(ap)

    def test_atoms_are_certified_once(self, tmp_path, monkeypatch):
        calls = []
        split = RidgeApprox.sigma_atoms

        def counted(self):
            calls.append(self.n_atoms)
            return split(self)

        monkeypatch.setattr(RidgeApprox, "sigma_atoms", counted)
        cfg = quick_cfg(quad_a=16, quad_b=32, grid=21)
        ap = build_bump_approx(cfg)
        assert calls == [16 * 32]
        save_approx_csv(tmp_path / "bump.csv", ap)
        assert calls == [16 * 32]
        coef = split(ap)[0]
        mass = [ln for ln in (tmp_path / "bump.csv").read_text().splitlines()
                if ln.startswith("# atom_mass = ")]
        assert mass == [f"# atom_mass = {float(np.abs(coef).sum()):.17g}"]
