"""Volatility and noise-exponent estimators."""

import math
from statistics import NormalDist

import numpy as np
import pytest

from shevar.gaussian_limits import EvaluationFunction, _pairing_series, limit_lln
from shevar.inference import (
    DegeneratePath,
    EstimateReport,
    InconsistentScaling,
    confidence_interval,
    estimate_alpha,
    estimate_sigma0,
    integrated_variance_interval,
    spot_variance,
)
from shevar.kernels import NoiseParams, tau_n
from shevar.simulate import RngStream, simulate_stationary_increments_batch
from shevar.variations import SamplingDesign, extract_increments, power_variation


def additive_path(alpha, n, sigma0=1.0, stream=0, horizon=1.0):
    delta = horizon / n
    scale = tau_n(NoiseParams(alpha, 1), delta)
    z = simulate_stationary_increments_batch(alpha, n, [RngStream(900, stream)])[0]
    u = np.concatenate([[0.0], np.cumsum(sigma0 * scale * z)])
    return u, SamplingDesign(delta_n=delta, horizon=horizon)


class TestEstimateSigma0:
    def test_scale_equivariance_exact(self):
        u, design = additive_path(0.5, 512)
        u = u + 2.0  # keep the denominator well away from zero
        a = estimate_sigma0(2.0, u, design, alpha=0.5)
        b = estimate_sigma0(2.0, 3.0 * u, design, alpha=0.5)
        assert b.estimate == pytest.approx(a.estimate, rel=1e-12)
        assert b.diagnostics["estimate_pth_power"] == pytest.approx(
            a.diagnostics["estimate_pth_power"], rel=1e-12)

    def test_denominator_sums_left_nodes(self):
        # the denominator is V_f(T) of sigma(u) = u, summed over the left
        # nodes u_0..u_{n-1} as limit_lln sums it; a drifting path has
        # |u_n| != |u_0|, so summing u_1..u_n instead moves it
        u, design = additive_path(0.5, 512)
        u = u + 2.0 + 3.0 * design.times()
        for p in (1.0, 2.0):
            rep = estimate_sigma0(p, u, design, alpha=0.5)
            incr = extract_increments(u, design, 0.5)
            v_np = power_variation(p, incr, design, [design.horizon])[0]
            v_f = limit_lln(EvaluationFunction.abs_power(p), design.times(),
                            u[:, None] ** 2, [design.horizon])[0, 0]
            assert rep.diagnostics["estimate_pth_power"] == pytest.approx(
                v_np / v_f, rel=1e-12)

    def test_forced_denominator_recovers_sigma0(self):
        sigma0 = 0.7
        ests = []
        for i in range(20):
            u, design = additive_path(0.5, 2 ** 12, sigma0=sigma0, stream=i)
            rep = estimate_sigma0(2.0, u, design, alpha=0.5,
                                  force_unit_denominator=True)
            ests.append(rep.estimate)
        assert abs(np.mean(ests) - sigma0) < 0.02

    def test_degenerate_path(self):
        design = SamplingDesign(delta_n=0.1, horizon=1.0)
        with pytest.raises(DegeneratePath):
            estimate_sigma0(2.0, np.zeros(11), design, alpha=0.5)

    def test_report_fields_and_json(self):
        u, design = additive_path(0.5, 1024)
        rep = estimate_sigma0(2.0, u, design, alpha=0.5,
                              force_unit_denominator=True)
        assert rep.n == 1024
        assert rep.level == 0.95
        assert rep.delta_n == design.delta_n
        assert rep.ci_low <= rep.estimate <= rep.ci_high
        assert "estimate_pth_power" in rep.diagnostics

    def test_se_positive_and_sane(self):
        u, design = additive_path(0.5, 2 ** 12)
        rep = estimate_sigma0(2.0, u, design, alpha=0.5,
                              force_unit_denominator=True)
        assert 0 < rep.se < 0.2

    def test_consistency_trend(self):
        """Bias and spread both shrink as the sample grows."""
        sds = []
        biases = []
        for j, n in enumerate((2 ** 9, 2 ** 11, 2 ** 13)):
            ests = []
            for i in range(40):
                u, design = additive_path(0.5, n, sigma0=1.0,
                                          stream=1000 * j + i)
                rep = estimate_sigma0(2.0, u, design, alpha=0.5,
                                      force_unit_denominator=True)
                ests.append(rep.estimate)
            sds.append(float(np.std(ests, ddof=1)))
            biases.append(abs(float(np.mean(ests)) - 1.0))
        assert sds[0] > sds[1] > sds[2]
        assert biases[2] < biases[0] + 2.0 * sds[0] / math.sqrt(40)


class TestEstimateAlpha:
    def test_exact_fgn_alpha_half(self):
        ests = []
        for i in range(50):
            u, design = additive_path(0.5, 2 ** 13, stream=i)
            ests.append(estimate_alpha(u, design).estimate)
        assert abs(np.mean(ests) - 0.5) < 0.05

    def test_alpha_one_white_scaling(self):
        ests = []
        for i in range(50):
            u, design = additive_path(1.0, 2 ** 13, stream=100 + i)
            ests.append(estimate_alpha(u, design).estimate)
        assert np.mean(ests) > 0.93

    def test_deterministic_path_rejected(self):
        design = SamplingDesign(delta_n=0.01, horizon=1.0)
        with pytest.raises(InconsistentScaling):
            estimate_alpha(np.linspace(0.0, 1.0, 101), design)

    def test_scale_invariance_exact(self):
        u, design = additive_path(0.5, 2 ** 10)
        a = estimate_alpha(u, design).estimate
        b = estimate_alpha(5.0 * u, design).estimate
        assert a == pytest.approx(b, rel=1e-12)

    def test_constant_path_degenerate(self):
        design = SamplingDesign(delta_n=0.01, horizon=1.0)
        with pytest.raises(DegeneratePath):
            estimate_alpha(np.ones(101), design)

    def test_diagnostics(self):
        u, design = additive_path(0.5, 2 ** 12)
        rep = estimate_alpha(u, design)
        assert 1.0 < rep.diagnostics["two_scale_ratio"] < 2.0
        assert not rep.diagnostics["clamped"]


class TestConfidenceInterval:
    def test_degenerate_variance(self):
        lo, hi = confidence_interval(1.0, 0.0, 0.01, 0.95)
        assert lo == hi == 1.0

    def test_nested_levels(self):
        inner = confidence_interval(1.0, 2.0, 0.01, 0.90)
        outer = confidence_interval(1.0, 2.0, 0.01, 0.99)
        assert outer[0] < inner[0] < inner[1] < outer[1]

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            confidence_interval(1.0, float("nan"), 0.01, 0.95)
        with pytest.raises(ValueError):
            confidence_interval(1.0, 1.0, 0.01, 1.5)

    def test_delta_method_width(self):
        lo, hi = confidence_interval(1.0, 4.0, 0.01, 0.95)
        half_width = NormalDist().inv_cdf(0.975) * math.sqrt(0.01 * 4.0)
        assert hi - 1.0 == pytest.approx(half_width, rel=1e-12)
        assert 1.0 - lo == pytest.approx(half_width, rel=1e-12)


class TestSpotVariance:
    def test_constant_squares(self):
        z = np.full(100, 3.0)
        w = spot_variance(z, delta_n=1 / 100)  # a window of 10
        assert np.allclose(w, 9.0)

    def test_default_window(self):
        z = np.ones(100)
        w = spot_variance(z, delta_n=1e-4)
        assert len(w) == 100 and np.allclose(w, 1.0)

    def test_tracks_changing_variance(self):
        rng = np.random.default_rng(0)
        z = np.concatenate([rng.standard_normal(2000),
                            3.0 * rng.standard_normal(2000)])
        w = spot_variance(z, delta_n=1 / 40000)  # a window of 200
        assert abs(np.mean(w[:1500]) - 1.0) < 0.2
        assert abs(np.mean(w[2200:3500]) - 9.0) < 1.2


class TestIntegratedVarianceInterval:
    def test_point_estimate_near_truth(self):
        u, design = additive_path(0.5, 2 ** 12)
        rep = integrated_variance_interval(u, design, alpha=0.5)
        assert abs(rep.estimate - 1.0) < 0.1
        assert rep.ci_low < rep.estimate < rep.ci_high

    def test_coverage_smoke(self):
        hits = 0
        n_rep = 60
        for i in range(n_rep):
            u, design = additive_path(0.5, 2 ** 11, stream=300 + i)
            rep = integrated_variance_interval(u, design, alpha=0.5)
            hits += int(rep.ci_low <= 1.0 <= rep.ci_high)
        assert hits / n_rep > 0.85

    def test_unit_series_computed_once(self):
        # the path-free series coefficient is shared by every replicate
        u, design = additive_path(0.5, 2 ** 10, stream=400)
        integrated_variance_interval(u, design, alpha=0.5)
        before = _pairing_series.cache_info()
        for stream in (401, 402):
            u, design = additive_path(0.5, 2 ** 10, stream=stream)
            integrated_variance_interval(u, design, alpha=0.5)
        after = _pairing_series.cache_info()
        assert after.misses == before.misses
        assert after.hits == before.hits + 2


def test_report_rejects_inconsistent_interval():
    with pytest.raises(ValueError):
        EstimateReport(estimate=1.0, se=0.1, ci_low=2.0, ci_high=3.0,
                       level=0.95, n=10, delta_n=0.1)
