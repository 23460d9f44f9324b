"""Increment extraction and variation functionals."""

import math

import numpy as np
import pytest

from shevar.gaussian_limits import AbsPower, EvaluationFunction
from shevar.kernels import NoiseParams, abs_moment, clt_constant, tau_n
from shevar.simulate import RngStream, simulate_stationary_increments_batch
from shevar.variations import (
    IncrementPanel,
    SamplingDesign,
    clt_statistic,
    extract_increments,
    power_variation,
    variation_functional,
)


def toy_panel(values, delta=0.01):
    return IncrementPanel(values=np.asarray(values, dtype=float), delta_n=delta)


class TestSamplingDesign:
    def test_basic(self):
        d = SamplingDesign(delta_n=0.01, horizon=1.0, points=(0.0, 0.5))
        assert d.n_steps == 100
        assert d.n_points == 2
        assert len(d.times()) == 101

    def test_invariants(self):
        with pytest.raises(ValueError):
            SamplingDesign(delta_n=0.0, horizon=1.0)
        with pytest.raises(ValueError):
            SamplingDesign(delta_n=0.5, horizon=0.6)  # fewer than two steps
        with pytest.raises(ValueError):
            SamplingDesign(delta_n=0.01, horizon=1.0, points=(0.1, 0.1))
        with pytest.raises(ValueError):
            SamplingDesign(delta_n=0.01, horizon=1.0, spatial_modes=1000)

    def test_default_burn_in(self):
        d = SamplingDesign(delta_n=1e-4, horizon=0.1)
        assert d.default_burn_in(0.5) == max(64, math.ceil(1e-4 ** (-0.4)))
        d2 = SamplingDesign(delta_n=1e-4, horizon=0.1, burn_in=7)
        assert d2.default_burn_in(0.5) == 7


class TestExtractIncrements:
    def test_constant_path(self):
        d = SamplingDesign(delta_n=0.1, horizon=1.0)
        panel = extract_increments(np.full(11, 3.0), d, alpha=0.5)
        assert np.all(panel.values == 0.0)

    def test_linear_path_alpha1(self):
        d = SamplingDesign(delta_n=1.0, horizon=10.0)
        u = np.arange(11, dtype=float)
        panel = extract_increments(u, d, alpha=1.0)
        expect = 1.0 / math.sqrt(clt_constant(NoiseParams(1.0, 1)))
        assert np.allclose(panel.values, expect)

    def test_roundtrip_with_cumsum(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal(200)
        d = SamplingDesign(delta_n=0.005, horizon=1.0)
        scale = tau_n(NoiseParams(0.5, 1), d.delta_n)
        u = np.concatenate([[0.0], np.cumsum(scale * z)])
        panel = extract_increments(u, d, alpha=0.5)
        assert np.allclose(panel.values[:, 0], z, atol=1e-10)

    def test_grid_mismatch(self):
        d = SamplingDesign(delta_n=0.1, horizon=1.0)
        with pytest.raises(ValueError):
            extract_increments(np.zeros(7), d, alpha=0.5)

    def test_custom_tau(self):
        d = SamplingDesign(delta_n=0.1, horizon=1.0)
        panel = extract_increments(np.arange(11.0), d, alpha=0.5, tau=2.0)
        assert np.allclose(panel.values, 0.5)

    def test_replicate_stack(self):
        rng = np.random.default_rng(4)
        d = SamplingDesign(delta_n=0.1, horizon=1.0, points=(0.0, 0.5))
        u = rng.standard_normal((3, 11, 2))
        panel = extract_increments(u, d, alpha=0.5, tau=2.0)
        assert panel.values.shape == (3, 10, 2)
        assert (panel.n_steps, panel.n_points) == (10, 2)
        for i in range(3):
            row = extract_increments(u[i], d, alpha=0.5, tau=2.0)
            assert np.array_equal(panel.values[i], row.values)
        with pytest.raises(ValueError):
            extract_increments(u[:, :7], d, alpha=0.5)


class TestVariationFunctional:
    def test_riemann_of_ones(self):
        d = SamplingDesign(delta_n=0.01, horizon=1.0)
        panel = toy_panel(np.ones(100), delta=0.01)
        f = EvaluationFunction.abs_power(2.0)
        out = variation_functional(f, panel, d, [1.0])
        assert out[0, 0] == pytest.approx(1.0, rel=1e-14)

    def test_matches_power_variation(self):
        rng = np.random.default_rng(11)
        d = SamplingDesign(delta_n=0.01, horizon=1.0)
        panel = toy_panel(rng.standard_normal(100), delta=0.01)
        t = np.linspace(0.05, 1.0, 20)
        for p in (1.0, 2.0, 3.5):
            f = EvaluationFunction.abs_power(p)
            a = variation_functional(f, panel, d, t)[:, 0]
            b = power_variation(p, panel, d, t)
            assert np.array_equal(a, b)

    def test_window_count_convention(self):
        # t(n) = floor(t / delta), zero when no increment fits
        d = SamplingDesign(delta_n=0.1, horizon=1.0)
        panel = toy_panel(np.ones(10), delta=0.1)
        f = EvaluationFunction.abs_power(2.0)
        out = variation_functional(f, panel, d, [0.05, 0.15, 0.3, 1.0])
        assert out[0, 0] == 0.0            # floor(0.5) = 0 increments
        assert out[1, 0] == pytest.approx(0.1)   # 1 increment
        assert out[2, 0] == pytest.approx(0.3)   # 3 increments
        assert out[3, 0] == pytest.approx(1.0)   # 10 increments

    def test_even_function_sign_invariance(self):
        rng = np.random.default_rng(5)
        vals = rng.standard_normal((64, 1))
        d = SamplingDesign(delta_n=1 / 64, horizon=1.0)
        f = EvaluationFunction.abs_power(4.0)
        t = np.linspace(0.1, 1.0, 7)
        a = variation_functional(f, toy_panel(vals, delta=1 / 64), d, t)
        b = variation_functional(f, toy_panel(-vals, delta=1 / 64), d, t)
        assert np.array_equal(a, b)

    def test_additivity_telescopes(self):
        rng = np.random.default_rng(9)
        vals = rng.standard_normal(50)
        delta = 0.02
        d = SamplingDesign(delta_n=delta, horizon=1.0)
        panel = toy_panel(vals, delta=delta)
        f = EvaluationFunction.abs_power(2.0)
        grid = delta * np.arange(1, 51)
        path = variation_functional(f, panel, d, grid)[:, 0]
        increments = np.diff(np.concatenate([[0.0], path]))
        assert np.allclose(increments, delta * vals ** 2, rtol=1e-12, atol=1e-15)

    def test_too_large_t_rejected(self):
        d = SamplingDesign(delta_n=0.1, horizon=1.0)
        panel = toy_panel(np.ones(10), delta=0.1)
        f = EvaluationFunction.abs_power(2.0)
        with pytest.raises(ValueError):
            variation_functional(f, panel, d, [1.5])

    def test_delta_mismatch_rejected(self):
        d = SamplingDesign(delta_n=0.1, horizon=1.0)
        panel = toy_panel(np.ones(10), delta=0.05)
        f = EvaluationFunction.abs_power(2.0)
        with pytest.raises(ValueError):
            variation_functional(f, panel, d, [1.0])

    def test_zero_series_power_variation(self):
        d = SamplingDesign(delta_n=0.1, horizon=1.0)
        panel = toy_panel(np.zeros(10), delta=0.1)
        assert power_variation(2.0, panel, d, [1.0])[0] == 0.0

    def test_replicate_stack_matches_rows(self):
        rng = np.random.default_rng(12)
        d = SamplingDesign(delta_n=0.01, horizon=1.0, points=(0.0, 0.5))
        vals = rng.standard_normal((5, 100, 2))
        f = EvaluationFunction(
            [AbsPower(1.5, k=0), AbsPower(1.0, k=1), AbsPower(2.0, k=1)], n_points=2)
        t = [0.005, 0.37, 0.5, 1.0]
        stack = variation_functional(f, toy_panel(vals, delta=0.01), d, t)
        assert stack.shape == (5, 4, 3)
        for i in range(5):
            row = variation_functional(f, toy_panel(vals[i], delta=0.01), d, t)
            assert np.array_equal(stack[i], row)
        assert np.all(stack[:, 0] == 0.0)  # no increment fits before t = delta

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_equals_one_pairwise_sum(self, p):
        # V^n_f(t) is delta * np.sum of f over the first t(n) increments, to the
        # bit: the harness and the estimators have always summed that way
        n, horizon = 1000, 1.7
        delta = horizon / n
        d = SamplingDesign(delta_n=delta, horizon=horizon)
        z = np.random.default_rng(13).standard_normal(n)
        got = power_variation(p, toy_panel(z, delta=delta), d, [horizon, 0.37 * horizon])
        vals = np.abs(z) ** p
        count = int(np.floor(0.37 * horizon / delta + 1e-9))
        assert got[0] == delta * np.sum(vals)
        assert got[1] == delta * np.sum(vals[:count])


class TestLlnConvergence:
    def test_quadratic_variation_concentrates(self):
        # exact sampler, sigma == 1: V^n_2(1) near 1, V^n_4(1) near 3
        n = 2 ** 12
        z = simulate_stationary_increments_batch(
            0.5, n, [RngStream(21, i) for i in range(64)])
        v2 = np.mean(np.abs(z) ** 2, axis=1)
        v4 = np.mean(np.abs(z) ** 4, axis=1)
        assert abs(v2.mean() - 1.0) < 4.0 * v2.std(ddof=1) / 8.0
        assert abs(v4.mean() - 3.0) < 4.0 * v4.std(ddof=1) / 8.0

    def test_error_decays_at_root_n(self):
        errs = []
        rungs = (2 ** 10, 2 ** 12, 2 ** 14)
        for j, n in enumerate(rungs):
            z = simulate_stationary_increments_batch(
                0.5, n, [RngStream(77, 100 * j + i) for i in range(200)])
            v = np.mean(z ** 2, axis=1)
            errs.append(np.mean(np.abs(v - 1.0)))
        slope = np.polyfit(np.log2(rungs), np.log2(errs), 1)[0]
        assert errs[0] > errs[1] > errs[2]
        assert abs(slope + 0.5) < 0.1


class TestCltStatistic:
    def test_zero_when_centered_exactly(self):
        grid = np.linspace(0, 1, 5)
        assert np.all(clt_statistic(grid, grid, 0.01) == 0.0)

    def test_scaling(self):
        v = np.array([1.0, 2.0])
        c = np.array([0.5, 1.0])
        out = clt_statistic(v, c, 0.25)
        assert np.allclose(out, [1.0, 2.0])

    def test_grid_mismatch(self):
        with pytest.raises(ValueError):
            clt_statistic(np.zeros(3), np.zeros(4), 0.1)
