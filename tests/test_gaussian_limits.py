"""Limit covariance structures: pairing expansion, MC backend, limit paths."""

import math
import time

import numpy as np
import pytest
from scipy.special import hyp2f1

from shevar.gaussian_limits import (
    AbsMultipower,
    AbsPower,
    Custom,
    EvaluationFunction,
    MonteCarlo,
    SignedMonomial,
    _abs_power_rho,
    _pairing_series,
    _safe_cholesky,
    build_joint_cov,
    build_within_cov,
    limit_covariance,
    limit_lln,
    mu_f,
    rho,
)
from shevar.kernels import abs_moment, gamma_r, sum_gamma_sq
from shevar.wick import gaussian_moment, monomial_moment, pair_moment_coeffs

QUICK_MC = MonteCarlo(n_pairs=60_000)


def _custom_abs_power(p):
    """|z|^p as a Custom component, so that only the MC backend can serve it."""
    return Custom(fn=lambda w: np.abs(w[..., 0, 0]) ** p, even=True, degree=p,
                  homogeneous=True)


def _unit_series(f, alpha, **kwargs):
    """C(1) at unit variance: the series coefficient with its law."""
    law = limit_covariance(f, np.array([0.0, 1.0]), np.ones((2, 1)),
                           np.array([1.0]), alpha=alpha, **kwargs)
    return law.c_path[0, 0, 0], law


def _nabeya_direct(alpha, p, r_max):
    """rho(0) + 2 sum_{r=1}^{r_max} rho(Gamma_r) for |z|^p with scipy's 2F1."""
    m2 = abs_moment(p) ** 2
    g = np.asarray(gamma_r(alpha, np.arange(1, r_max + 1)))
    lags = m2 * (hyp2f1(-p / 2, -p / 2, 0.5, g * g) - 1.0)
    return m2 * (hyp2f1(-p / 2, -p / 2, 0.5, 1.0) - 1.0) + 2.0 * math.fsum(lags.tolist())


class TestWick:
    def test_univariate_moments(self):
        cov = np.array([[1.0]])
        assert gaussian_moment(cov, [0, 0]) == pytest.approx(1.0)
        assert gaussian_moment(cov, [0] * 4) == pytest.approx(3.0)
        assert gaussian_moment(cov, [0] * 6) == pytest.approx(15.0)
        assert gaussian_moment(cov, [0] * 3) == 0.0

    def test_pair_fourth_moment(self):
        for c in (-0.7, 0.0, 0.3, 1.0):
            cov = np.array([[1.0, c], [c, 1.0]])
            assert gaussian_moment(cov, [0, 0, 1, 1]) == pytest.approx(1 + 2 * c * c)
            assert monomial_moment(cov, (4, 4)) == pytest.approx(
                9 + 72 * c ** 2 + 24 * c ** 4)

    def test_scaling(self):
        cov = np.array([[2.0, 0.5], [0.5, 3.0]])
        assert monomial_moment(cov, (2, 2)) == pytest.approx(
            2.0 * 3.0 + 2 * 0.5 ** 2)

    @pytest.mark.parametrize("p,q", [(2, 2), (4, 4), (2, 4), (3, 3), (1, 3), (6, 2)])
    def test_pair_coeffs_match_wick(self, p, q):
        coeffs = pair_moment_coeffs(p, q)
        for c in (-0.8, -0.2, 0.4, 0.9):
            cov = np.array([[1.0, c], [c, 1.0]])
            direct = monomial_moment(cov, (p, q))
            poly = float(np.polynomial.polynomial.polyval(c, coeffs))
            assert poly == pytest.approx(direct, rel=1e-12, abs=1e-12)

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            gaussian_moment(np.eye(1), [0] * 22)


class TestEvaluationFunction:
    def test_shapes_and_rows(self):
        f = EvaluationFunction(
            [AbsPower(2.0, k=0), SignedMonomial((1, 1), k=1)],
            n_points=2, n_lags=2)
        assert f.n_outputs == 2
        z = np.random.default_rng(0).standard_normal((5, 2, 2))
        out = f.evaluate(z)
        assert out.shape == (5, 2)
        assert np.allclose(out[:, 0], z[:, 0, 0] ** 2)
        assert np.allclose(out[:, 1], z[:, 1, 0] * z[:, 1, 1])

    def test_evenness(self):
        assert EvaluationFunction.abs_power(3.0).is_even
        assert not EvaluationFunction(
            [SignedMonomial((1,), k=0)], n_points=1).is_even
        assert EvaluationFunction(
            [SignedMonomial((1, 1), k=0)], n_points=1, n_lags=2).is_even

    def test_check_even_probes(self):
        odd = EvaluationFunction(
            [Custom(fn=lambda w: w[..., 0, 0] ** 3, k=0, even=False)],
            n_points=1)
        assert not odd.check_even()
        ev = EvaluationFunction(
            [Custom(fn=lambda w: np.cos(w[..., 0, 0]), k=0, even=True)],
            n_points=1)
        assert ev.check_even()

    def test_validation(self):
        with pytest.raises(ValueError):
            EvaluationFunction([AbsPower(2.0, k=3)], n_points=2)
        with pytest.raises(ValueError):
            EvaluationFunction([], n_points=1)
        with pytest.raises(ValueError):
            AbsPower(0.0)
        with pytest.raises(ValueError):
            SignedMonomial((1.5,))


class TestCovarianceBlocks:
    def test_within_single(self):
        f = EvaluationFunction.abs_power(2.0)
        cov = build_within_cov(f, [4.0], alpha=0.5)
        assert np.allclose(cov, [[4.0]])

    def test_within_two_lags(self):
        f = EvaluationFunction([AbsPower(2.0)], n_points=1, n_lags=2)
        cov = build_within_cov(f, [1.0], alpha=1.0)
        g1 = float(gamma_r(1.0, 1))
        assert np.allclose(cov, [[1.0, g1], [g1, 1.0]])

    def test_within_zero_variance(self):
        f = EvaluationFunction([AbsPower(2.0)], n_points=1, n_lags=2)
        cov = build_within_cov(f, [0.0], alpha=0.5)
        assert np.all(cov == 0.0)
        assert np.all(_safe_cholesky(cov) == 0.0)

    def test_negative_w_rejected(self):
        f = EvaluationFunction.abs_power(2.0)
        with pytest.raises(ValueError):
            build_within_cov(f, [-1.0], alpha=0.5)

    def test_joint_single(self):
        f = EvaluationFunction.abs_power(2.0)
        cov = build_joint_cov(f, [1.0], r=1, alpha=0.5)
        g1 = float(gamma_r(0.5, 1))
        assert np.allclose(cov, [[1.0, g1], [g1, 1.0]])

    def test_joint_offsets_by_hand(self):
        # L = 2, r = 2: cross entries are Gamma_{|l1 - l2 + 2|}
        f = EvaluationFunction([AbsPower(2.0)], n_points=1, n_lags=2)
        alpha = 0.5
        cov = build_joint_cov(f, [1.0], r=2, alpha=alpha)
        g = {i: float(gamma_r(alpha, i)) for i in range(4)}
        cross = cov[:2, 2:]
        # (l1, l2) -> |l1 - l2 + 2|: (0,0)->2 (0,1)->1 (1,0)->3 (1,1)->2
        assert cross[0, 0] == pytest.approx(g[2])
        assert cross[0, 1] == pytest.approx(g[1])
        assert cross[1, 0] == pytest.approx(g[3])
        assert cross[1, 1] == pytest.approx(g[2])

    def test_joint_decay(self):
        f = EvaluationFunction([AbsPower(2.0)], n_points=1, n_lags=2)
        far = build_joint_cov(f, [1.0], r=4000, alpha=0.5)
        assert np.max(np.abs(far[:2, 2:])) < 1e-4

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.9])
    @pytest.mark.parametrize("r", [1, 2, 7])
    def test_joint_psd(self, alpha, r):
        f = EvaluationFunction([AbsPower(2.0)], n_points=2, n_lags=3)
        w = [1.0, 2.5]
        cov = build_joint_cov(f, w, r=r, alpha=alpha)
        # entry ((i, k, l1), (j, k, l2)) is w_k Gamma_|(j - i) r + l1 - l2|
        for a in range(12):
            for b in range(12):
                i, k1, l1 = np.unravel_index(a, (2, 2, 3))
                j, k2, l2 = np.unravel_index(b, (2, 2, 3))
                want = w[k1] * float(gamma_r(alpha, abs((j - i) * r + l1 - l2)))
                assert cov[a, b] == (want if k1 == k2 else 0.0)
        assert np.linalg.eigvalsh(cov)[0] >= -1e-10
        _safe_cholesky(cov, joint=True)  # must not raise


class TestMuF:
    def test_quadratic_is_variance(self):
        f = EvaluationFunction.abs_power(2.0)
        assert mu_f(f, [1.7])[0] == pytest.approx(1.7)

    def test_quartic(self):
        f = EvaluationFunction.abs_power(4.0)
        assert mu_f(f, [2.0])[0] == pytest.approx(12.0)

    def test_cross_lag_monomial(self):
        f = EvaluationFunction([SignedMonomial((1, 1))], n_points=1, n_lags=2)
        assert mu_f(f, [1.0], alpha=1.0)[0] == pytest.approx(
            float(gamma_r(1.0, 1)), rel=1e-12)

    def test_odd_monomial_vanishes(self):
        f = EvaluationFunction([SignedMonomial((1, 2))], n_points=1, n_lags=2)
        assert mu_f(f, [3.0], alpha=0.5)[0] == 0.0

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 4.0])
    def test_abs_power_homogeneity_exact(self, p):
        f = EvaluationFunction.abs_power(p)
        for c in (0.25, 2.0, 9.0):
            assert mu_f(f, [c])[0] == pytest.approx(
                c ** (p / 2.0) * mu_f(f, [1.0])[0], rel=1e-14)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 4.0])
    def test_mc_agrees_with_closed_form(self, p):
        f = EvaluationFunction.abs_power(p)
        est, se = mu_f(f, [1.0], method="mc", mc=QUICK_MC, return_se=True)
        assert abs(est[0] - abs_moment(p)) < 4.0 * se[0]

    def test_abs_multipower_mc(self):
        f = EvaluationFunction([AbsMultipower((1.0, 1.0))], n_points=1, n_lags=2)
        est, se = mu_f(f, [1.0], alpha=0.5, mc=QUICK_MC, return_se=True)
        # oracle: E|XY| for correlated pair via 2-d quadrature identity
        c = float(gamma_r(0.5, 1))
        oracle = 2.0 / math.pi * (math.sqrt(1 - c * c) + c * math.asin(c))
        assert abs(est[0] - oracle) < 4.0 * se[0]

    def test_degenerate_w(self):
        f = EvaluationFunction([AbsMultipower((1.0, 1.0))], n_points=1, n_lags=2)
        assert mu_f(f, [0.0], alpha=0.5)[0] == 0.0


class TestRho:
    @pytest.mark.parametrize("r", [0, 1, 2, 5])
    def test_quadratic_closed_form(self, r):
        f = EvaluationFunction.abs_power(2.0)
        w = 1.3
        expect = 2.0 * float(gamma_r(0.5, r)) ** 2 * w ** 2
        assert rho(f, 0, 0, r, [w], alpha=0.5) == pytest.approx(expect, rel=1e-12)

    def test_chi2_variance(self):
        f = EvaluationFunction.abs_power(2.0)
        assert rho(f, 0, 0, 0, [1.0], alpha=0.5) == pytest.approx(2.0)

    def test_different_rows_vanish(self):
        f = EvaluationFunction(
            [AbsPower(2.0, k=0), AbsPower(2.0, k=1)], n_points=2)
        assert rho(f, 0, 1, 3, [1.0, 1.0], alpha=0.5) == 0.0

    def test_quartic_closed_form(self):
        # Cov(Z1^4, Z2^4) = 72 c^2 + 24 c^4 at unit variance
        f = EvaluationFunction.abs_power(4.0)
        c = float(gamma_r(0.5, 2))
        expect = 72 * c ** 2 + 24 * c ** 4
        assert rho(f, 0, 0, 2, [1.0], alpha=0.5) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_mc_agrees_with_isserlis(self, alpha):
        f = EvaluationFunction.abs_power(2.0)
        for r in range(0, 11, 2):
            closed = rho(f, 0, 0, r, [1.0], alpha=alpha)
            est, se = rho(f, 0, 0, r, [1.0], alpha=alpha, method="mc",
                          mc=QUICK_MC, return_se=True)
            assert abs(est - closed) < 4.0 * se + 1e-12

    def test_quadratic_decay_in_gamma(self):
        # even functions have Hermite rank >= 2: |rho(r)| ~ Gamma_r^2
        f = EvaluationFunction.abs_power(4.0)
        rs = np.arange(10, 101, 10)
        vals = np.array([abs(rho(f, 0, 0, int(r), [1.0], alpha=0.5)) for r in rs])
        gams = np.abs(gamma_r(0.5, rs))
        slope = np.polyfit(np.log(gams), np.log(vals), 1)[0]
        assert abs(slope - 2.0) < 0.1

    def test_degenerate_w(self):
        f = EvaluationFunction.abs_power(2.0)
        assert rho(f, 0, 0, 1, [0.0], alpha=0.5) == 0.0

    @pytest.mark.parametrize("p,q", [(2, 2), (4, 4), (2, 4)])
    def test_nabeya_matches_pairing_for_even_powers(self, p, q):
        coeffs = pair_moment_coeffs(p, q)
        for c in (-0.9, -0.3, 1e-6, 0.25, 0.7, 1.0):
            pairing = float(np.polynomial.polynomial.polyval(c, coeffs)) - coeffs[0]
            assert _abs_power_rho(p, q, c) == pytest.approx(pairing, rel=1e-13)

    @pytest.mark.parametrize("r", [0, 1, 5])
    def test_abs_power_auto_agrees_with_mc(self, r):
        f = EvaluationFunction.abs_power(1.0)
        exact = rho(f, 0, 0, r, [1.0], alpha=0.5)
        est, se = rho(f, 0, 0, r, [1.0], alpha=0.5, method="mc", mc=QUICK_MC,
                      return_se=True)
        assert abs(est - exact) < 4.0 * se

    @pytest.mark.parametrize("method", ["closed", "MC", "exact"])
    def test_unknown_method_rejected(self, method):
        f = EvaluationFunction.abs_power(2.0)
        with pytest.raises(ValueError, match="method"):
            rho(f, 0, 0, 1, [1.0], 0.5, method)
        with pytest.raises(ValueError, match="method"):
            mu_f(f, [1.0], method=method)


class TestLimitPaths:
    def test_lln_constant_w(self):
        f = EvaluationFunction.abs_power(3.0)
        s = np.linspace(0.0, 2.0, 401)
        w = np.full((401, 1), 2.25)
        t = np.array([0.0, 0.5, 1.0, 2.0])
        path = limit_lln(f, s, w, t)
        expect = abs_moment(3.0) * 2.25 ** 1.5 * t
        assert np.allclose(path[:, 0], expect, rtol=1e-12)
        assert path[0, 0] == 0.0

    def test_lln_riemann_refinement(self):
        # halving the grid roughly halves the left-rule error for Lipschitz w
        f = EvaluationFunction.abs_power(2.0)
        t = np.array([1.0])
        exact = 1.5  # w(s) = 1 + s: int_0^1 (1 + s) ds
        errs = []
        for m in (200, 400):
            s = np.linspace(0.0, 1.0, m + 1)
            w = (1.0 + s)[:, None]
            errs.append(abs(limit_lln(f, s, w, t)[0, 0] - exact))
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.15)

    @pytest.mark.parametrize("n, horizon", [(1000, 1.0), (1500, 1.0), (4096, 0.01)])
    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_lln_is_one_pairwise_sum(self, n, horizon, p):
        # V_f is summed like V^n_f: delta times one np.sum over the left nodes
        delta = horizon / n
        w = np.random.default_rng(n).uniform(0.5, 2.0, (n + 1, 1))
        f = EvaluationFunction.abs_power(p)
        path = limit_lln(f, delta * np.arange(n + 1), w, [n // 2 * delta, horizon])
        dens = abs_moment(p) * w[:, 0] ** (p / 2.0)
        assert path[0, 0] == delta * np.sum(dens[:n // 2])
        assert path[1, 0] == delta * np.sum(dens[:n])

    def test_limit_covariance_replicate_stack(self):
        f = EvaluationFunction(
            [AbsPower(1.0), AbsPower(2.0, k=1), AbsPower(3.0)], n_points=2)
        n = 200
        s = np.arange(n + 1) / n
        w = np.random.default_rng(5).uniform(0.5, 2.0, (3, n + 1, 2))
        t = [0.3, 1.0]
        law = limit_covariance(f, s, w, t, alpha=0.5)
        assert law.v_path.shape == (3, 2, 3) and law.c_path.shape == (3, 2, 3, 3)
        for i in range(3):
            one = limit_covariance(f, s, w[i], t, alpha=0.5)
            assert np.array_equal(law.v_path[i], one.v_path)
            assert np.array_equal(law.c_path[i], one.c_path)
        unit = limit_covariance(f, np.array([0.0, 1.0]), np.ones((2, 2)),
                                np.array([1.0]), alpha=0.5)
        assert np.array_equal(law.series, unit.c_path[0])
        law.validate()

    def test_non_uniform_grid_rejected(self):
        f = EvaluationFunction.abs_power(2.0)
        s = np.array([0.0, 0.1, 0.3, 1.0])
        with pytest.raises(ValueError, match="uniform"):
            limit_lln(f, s, np.ones((4, 1)), [1.0])
        with pytest.raises(ValueError, match="uniform"):
            limit_covariance(f, s, np.ones((4, 1)), [1.0], alpha=0.5)

    def test_limit_covariance_closed_form(self):
        f = EvaluationFunction.abs_power(2.0)
        s = np.linspace(0.0, 1.0, 201)
        w = np.ones((201, 1))
        law = limit_covariance(f, s, w, np.array([1.0]), alpha=0.5, r_max=20_000)
        expect = 2.0 * (1.0 + 2.0 * sum_gamma_sq(0.5))
        assert law.c_path[0, 0, 0] == pytest.approx(expect, abs=1e-8)
        assert law.tail_bound[0, 0] < 1e-7
        law.validate()

    def test_limit_covariance_zero_w(self):
        f = EvaluationFunction.abs_power(2.0)
        s = np.linspace(0.0, 1.0, 11)
        w = np.zeros((11, 1))
        law = limit_covariance(f, s, w, np.array([0.5, 1.0]), alpha=0.5)
        assert np.all(law.c_path == 0.0)

    def test_identical_components_rank_one(self):
        f = EvaluationFunction(
            [AbsPower(2.0), AbsPower(2.0)], n_points=1, n_lags=1)
        s = np.linspace(0.0, 1.0, 51)
        w = np.ones((51, 1))
        law = limit_covariance(f, s, w, np.array([1.0]), alpha=0.5)
        c = law.c_path[0]
        assert np.allclose(c, c[0, 0])
        assert np.linalg.matrix_rank(c, tol=1e-10) == 1

    def test_cross_row_entries_zero(self):
        f = EvaluationFunction(
            [AbsPower(2.0, k=0), AbsPower(2.0, k=1)], n_points=2)
        s = np.linspace(0.0, 1.0, 51)
        w = np.ones((51, 2))
        law = limit_covariance(f, s, w, np.array([1.0]), alpha=0.5)
        assert law.c_path[0][0, 1] == 0.0

    def test_monotone_diagonal(self):
        f = EvaluationFunction.abs_power(2.0)
        s = np.linspace(0.0, 1.0, 101)
        w = (1.0 + np.sin(6 * s) ** 2)[:, None]
        law = limit_covariance(f, s, w, np.linspace(0.1, 1.0, 7), alpha=0.5)
        law.validate()
        diag = law.c_path[:, 0, 0]
        assert np.all(np.diff(diag) > 0)

    def test_series_tail_bound_dominates(self):
        # the reported tail bound exceeds the series continuation
        f = EvaluationFunction.abs_power(2.0)
        s = np.array([0.0, 1.0])
        w = np.ones((2, 1))
        law = limit_covariance(f, s, w, np.array([1.0]), alpha=0.5, r_max=50)
        cont = sum(2.0 * 2.0 * float(gamma_r(0.5, r)) ** 2 for r in range(51, 4000))
        assert cont <= law.tail_bound[0, 0]

    def test_mc_series_path(self):
        # a Custom component has no closed form: CRN Monte Carlo series
        f = EvaluationFunction([_custom_abs_power(1.5)])
        s = np.array([0.0, 1.0])
        w = np.ones((2, 1))
        mc = MonteCarlo(n_pairs=30_000, r_max_series=16)
        law = limit_covariance(f, s, w, np.array([1.0]), alpha=0.5, mc=mc)
        assert law.c_path[0, 0, 0] > 0
        assert law.mc_se[0, 0] > 0
        assert law.r_max == 16


class TestAbsPowerSeries:
    """Nabeya closed-form lag series for |z|^p with p not an even integer."""

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
    def test_matches_direct_hyp2f1_sum(self, p, alpha):
        f = EvaluationFunction.abs_power(p)
        direct = _nabeya_direct(alpha, p, 10 ** 6)
        long, law = _unit_series(f, alpha, r_max=10 ** 6)
        assert long == pytest.approx(direct, rel=1e-8)
        assert law.mc_se[0, 0] == 0.0
        default, law = _unit_series(f, alpha)
        assert abs(default - direct) <= law.tail_bound[0, 0]
        assert law.mc_se[0, 0] == 0.0

    def test_pinned_value(self):
        value, _ = _unit_series(EvaluationFunction.abs_power(1.0), 0.5)
        assert value == pytest.approx(0.3816059, abs=1e-7)

    def test_cross_lag_pair(self):
        # |z_0|^1.5 against |z_1|^3: rho follows the joint-window correlation
        # (checked by MC), and the series sums rho12(r) + rho21(r) over r
        f = EvaluationFunction([AbsPower(1.5, l=0), AbsPower(3.0, l=1)], n_lags=2)
        for r in (0, 1, 2):
            exact = rho(f, 0, 1, r, [1.0], alpha=0.5)
            est, se = rho(f, 0, 1, r, [1.0], alpha=0.5, method="mc", mc=QUICK_MC,
                          return_se=True)
            assert abs(est - exact) < 4.0 * se
        r_max = 50
        by_lag = rho(f, 0, 1, 0, [1.0], alpha=0.5) + sum(
            rho(f, 0, 1, r, [1.0], alpha=0.5) + rho(f, 1, 0, r, [1.0], alpha=0.5)
            for r in range(1, r_max + 1))
        _, law = _unit_series(f, 0.5, r_max=r_max)
        assert law.c_path[0, 0, 1] == pytest.approx(by_lag, rel=1e-13)
        assert law.mc_se[0, 1] == 0.0

    def test_single_lag_multipower_is_closed_form(self):
        single, _ = _unit_series(EvaluationFunction.abs_power(1.5), 0.5)
        multi, law = _unit_series(
            EvaluationFunction([AbsMultipower((0.0, 1.5))], n_lags=2), 0.5)
        assert multi == pytest.approx(single, rel=1e-14)
        assert law.mc_se[0, 0] == 0.0

    def test_multi_lag_abs_power_is_closed_form(self):
        # |z_1|^2 on a two-lag window has the single-lag series; the pairing
        # loop over 2L-dimensional windows took seconds for the same value
        single = _pairing_series(2, 2, 0.5, 10_000)[0]
        t0 = time.perf_counter()
        multi, law = _unit_series(
            EvaluationFunction([AbsPower(2.0, l=1)], n_lags=2), 0.5)
        assert time.perf_counter() - t0 < 1.0
        assert multi == pytest.approx(single, rel=1e-12)
        assert law.mc_se[0, 0] == 0.0

    def test_mc_standard_error_matches_spread(self):
        # the CRN lag sum is formed draw by draw, so its reported SE must
        # describe the scatter of the coefficient across seeds
        f = EvaluationFunction([_custom_abs_power(1.5)])
        values, ses = [], []
        for seed in range(20):
            mc = MonteCarlo(n_pairs=20_000, r_max_series=16, seed=seed)
            value, law = _unit_series(f, 0.5, mc=mc)
            values.append(value)
            ses.append(law.mc_se[0, 0])
        ratio = np.std(values, ddof=1) / np.mean(ses)
        assert 1.0 / 1.5 <= ratio <= 1.5
