"""Exact increment sampler and the spectral SPDE scheme."""

import math

import numpy as np
import pytest
from scipy import integrate

from shevar.kernels import NoiseParams, gamma_r, riesz_constant, tau_n
from shevar.simulate import (
    ModelSpec,
    NumericalBlowup,
    PathPanel,
    RngStream,
    SigmaConstant,
    SigmaLinear,
    U0Constant,
    U0SmoothPeriodic,
    _observation_weights,
    circulant_embedding,
    embedding_autocovariance,
    moment_scaling_check,
    sample_noise_increments,
    scheme_increment_autocov,
    scheme_increment_variance,
    simulate_spde,
    simulate_spde_batch,
    simulate_stationary_increments,
    simulate_stationary_increments_batch,
    spatial_scaling_check,
    spectral_cell_masses,
)
from shevar.variations import SamplingDesign

ALPHAS = [0.1, 0.5, 0.9, 1.0]


def bartlett_se(gamma_vals, lag, n):
    """Large-sample standard error of a sample autocovariance at ``lag``."""
    g = np.asarray(gamma_vals)
    s = np.arange(-len(g) + 1, len(g))
    gs = np.concatenate([g[:0:-1], g])
    total = np.sum(gs ** 2)
    shifted = 0.0
    if lag < len(g):
        lo = -len(g) + 1 + lag
        for si in range(max(lo, -len(g) + 1), len(g) - lag):
            gp = gs[si + len(g) - 1]
            gq = g[abs(si + lag)] if abs(si + lag) < len(g) else 0.0
            gm = g[abs(si - lag)] if abs(si - lag) < len(g) else 0.0
            shifted += gq * gm
    return math.sqrt((total + shifted) / n)


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(7, 3).generator().standard_normal(8)
        b = RngStream(7, 3).generator().standard_normal(8)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(7, 0).generator().standard_normal(10_000)
        b = RngStream(7, 1).generator().standard_normal(10_000)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.05


class TestCirculantEmbedding:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_reconstructed_covariance_exact(self, alpha):
        emb = embedding_autocovariance(alpha, 256)
        g = np.asarray(gamma_r(alpha, np.arange(257)))
        assert np.max(np.abs(emb - g)) <= 1e-12

    def test_cached_and_read_only(self):
        lam, m = circulant_embedding(0.5, 300)
        again, m_again = circulant_embedding(0.5, 300)
        assert again is lam and m_again == m
        assert not lam.flags.writeable
        with pytest.raises(ValueError):
            lam[0] = 0.0
        emb = embedding_autocovariance(0.5, 300)
        g = np.asarray(gamma_r(0.5, np.arange(301)))
        assert np.max(np.abs(emb - g)) <= 1e-12

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_eigenvalues_nonnegative(self, alpha):
        lam, m = circulant_embedding(alpha, 4096)
        assert lam.min() >= 0.0
        assert m >= 8192 and (m & (m - 1)) == 0


class TestExactSampler:
    def test_unit_variance(self):
        z = simulate_stationary_increments(0.5, 10 ** 6, RngStream(100))
        assert abs(float(np.var(z)) - 1.0) < 0.01

    def test_alpha1_lag1_autocorr(self):
        n = 10 ** 6
        z = simulate_stationary_increments(1.0, n, RngStream(101))
        g = np.asarray(gamma_r(1.0, np.arange(64)))
        est = float(np.mean(z[1:] * z[:-1]))
        se = bartlett_se(g, 1, n)
        assert abs(est - g[1]) < 3.0 * se

    def test_lag_structure_alpha_half(self):
        n = 2 * 10 ** 5
        z = simulate_stationary_increments(0.5, n, RngStream(102))
        g = np.asarray(gamma_r(0.5, np.arange(64)))
        for lag in range(1, 21):
            est = float(np.mean(z[lag:] * z[:-lag]))
            se = bartlett_se(g, lag, n - lag)
            assert abs(est - g[lag]) < 4.0 * se, lag

    def test_batch_rows_match_single(self):
        single = simulate_stationary_increments(0.5, 512, RngStream(5, 2))
        batch = simulate_stationary_increments_batch(
            0.5, 512, [RngStream(5, i) for i in (0, 2, 4)])
        assert np.array_equal(batch[1], single)


class TestSpectralCells:
    def test_white_noise_flat(self):
        q = spectral_cell_masses(1.0, 64)
        assert np.allclose(q, 1.0)

    def test_cell_masses_integrate_spectrum(self):
        q = spectral_cell_masses(0.5, 64)
        for k in (1, 5, 32):
            val, _ = integrate.quad(lambda x: abs(x) ** -0.5, k - 0.5, k + 0.5)
            assert q[k] == pytest.approx(val, rel=1e-10)
        val0, _ = integrate.quad(lambda x: abs(x) ** -0.5, -0.5, 0.5,
                                 points=[0.0])
        assert q[0] == pytest.approx(val0, rel=1e-8)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.9])
    def test_scheme_variance_converges_to_continuum(self, alpha):
        delta = 1e-5
        target = tau_n(NoiseParams(alpha, 1), delta) ** 2
        ratios = [scheme_increment_variance(alpha, delta, n) / target
                  for n in (2 ** 10, 2 ** 12, 2 ** 14, 2 ** 16)]
        assert ratios == sorted(ratios)
        assert abs(ratios[-1] - 1.0) < 1e-3

    def test_scheme_autocov_matches_gamma(self):
        delta = 1e-5
        t2 = tau_n(NoiseParams(0.5, 1), delta) ** 2
        c1 = scheme_increment_autocov(0.5, delta, 2 ** 16, 1)
        assert c1 / t2 == pytest.approx(float(gamma_r(0.5, 1)), abs=2e-3)


class TestNoiseField:
    def test_spatial_covariance_matches_spectral_measure(self):
        """Smoothed noise covariance against the continuum spectral integral."""
        alpha, n, delta = 0.5, 512, 1e-4
        n_fields = 4000
        fields = sample_noise_increments(alpha, n, delta, n_fields, RngStream(55))
        x = np.arange(n) / n
        # Gaussian bump test functions centred at 0.3 and 0.45 (width 0.02)
        def bump(c):
            d = np.minimum(np.abs(x - c), 1.0 - np.abs(x - c))
            return np.exp(-d ** 2 / (2 * 0.02 ** 2))

        phi1, phi2 = bump(0.3), bump(0.45)
        a = fields @ phi1 / n
        b = fields @ phi2 / n
        prods = a * b / delta
        est = float(np.mean(prods))
        se = float(np.std(prods, ddof=1) / math.sqrt(n_fields))

        # continuum reference: int F phi1(xi) conj(F phi2)(xi) |xi|^(a-1) dxi
        # for periodic bumps, F phi(k) = sum over grid / n with e^{-2 pi i k x}
        k = np.arange(n // 2 + 1)
        f1 = np.fft.rfft(phi1) / n
        f2 = np.fft.rfft(phi2) / n
        def spectral_density(xi):
            return np.abs(xi) ** (alpha - 1.0)
        # quadrature over each unit cell against the exact spectral measure
        ref = 0.0
        for kk in range(0, 40):
            weight = 2.0 if 0 < kk < n // 2 else 1.0
            cell, _ = integrate.quad(spectral_density, max(kk - 0.5, 0.0) if kk else -0.5,
                                     kk + 0.5, points=[0.0] if kk == 0 else None)
            if kk == 0:
                cell, _ = integrate.quad(spectral_density, -0.5, 0.5, points=[0.0])
            ref += weight * cell * float((f1[kk] * np.conj(f2[kk])).real)
        assert abs(est - ref) < 4.0 * se

    def test_field_variance(self):
        alpha, n, delta = 0.5, 256, 1e-3
        fields = sample_noise_increments(alpha, n, delta, 6000, RngStream(56))
        q = spectral_cell_masses(alpha, n)
        wts = np.full(len(q), 2.0)
        wts[0] = 1.0
        wts[-1] = 1.0
        target = delta * float(np.dot(wts, q))
        est = float(np.mean(fields ** 2))
        se = float(np.std(np.mean(fields ** 2, axis=1), ddof=1) / math.sqrt(6000))
        assert abs(est - target) < 4.0 * se


class TestSpdeScheme:
    def design(self, **kw):
        base = dict(delta_n=0.01 / 128, horizon=0.01, points=(0.25,),
                    spatial_modes=256, oversampling=2, burn_in=0)
        base.update(kw)
        return SamplingDesign(**base)

    def test_zero_sigma_constant_u0(self):
        model = ModelSpec(noise=NoiseParams(0.5, 1), sigma=SigmaConstant(0.0),
                          u0=U0Constant(1.0))
        panel = simulate_spde(model, self.design(), RngStream(1))
        assert np.max(np.abs(panel.values - 1.0)) == 0.0

    def test_zero_sigma_heat_semigroup_exact(self):
        model = ModelSpec(noise=NoiseParams(0.5, 1), sigma=SigmaConstant(0.0),
                          u0=U0SmoothPeriodic(c0=1.0, cos_coeffs=(0.5,),
                                              sin_coeffs=(0.25,)))
        des = self.design(points=(0.0, 0.3125), spatial_modes=256)
        panel = simulate_spde(model, des, RngStream(2))
        t = panel.times[:, None]
        x = np.asarray(des.points)[None, :]
        decay = np.exp(-2.0 * math.pi ** 2 * t)
        exact = (1.0 + 0.5 * decay * np.cos(2 * math.pi * x)
                 + 0.25 * decay * np.sin(2 * math.pi * x))
        assert np.max(np.abs(panel.values - exact)) < 1e-5

    def test_additive_increment_variance_continuum(self):
        """Normalised additive increments have mean square 1 past burn-in."""
        n_rep = 600
        des = SamplingDesign(delta_n=0.01 / 256, horizon=0.01 * 80 / 256,
                             points=(0.0,), spatial_modes=2048,
                             oversampling=8, burn_in=64)
        model = ModelSpec(noise=NoiseParams(0.5, 1), sigma=SigmaConstant(1.0),
                          u0=U0Constant(0.0))
        batch = simulate_spde_batch(
            model, des, [RngStream(3, i) for i in range(n_rep)]).drop_burn_in()
        scale = tau_n(NoiseParams(0.5, 1), des.delta_n)
        z = np.diff(batch.values[:, :, 0], axis=1) / scale
        sq = z ** 2
        est = float(np.mean(sq))
        se = float(np.std(np.mean(sq, axis=1), ddof=1) / math.sqrt(n_rep))
        assert abs(est - 1.0) < 3.0 * se

    def test_additive_increments_match_scheme_formula(self):
        n_rep = 400
        des = SamplingDesign(delta_n=0.01 / 256, horizon=0.01 * 96 / 256,
                             points=(0.0,), spatial_modes=512,
                             oversampling=2, burn_in=64)
        model = ModelSpec(noise=NoiseParams(0.5, 1), sigma=SigmaConstant(1.0),
                          u0=U0Constant(0.0))
        batch = simulate_spde_batch(
            model, des, [RngStream(4, i) for i in range(n_rep)]).drop_burn_in()
        inc = np.diff(batch.values[:, :, 0], axis=1)
        v_scheme = scheme_increment_variance(0.5, des.delta_n, 512)
        est = float(np.mean(inc ** 2))
        se = float(np.std(np.mean(inc ** 2, axis=1), ddof=1) / math.sqrt(n_rep))
        assert abs(est - v_scheme) < 3.0 * se
        # lag-1 autocovariance against the exact scheme value
        c1 = float(np.mean(inc[:, 1:] * inc[:, :-1]))
        c1_scheme = scheme_increment_autocov(0.5, des.delta_n, 512, 1)
        pooled = inc[:, 1:] * inc[:, :-1]
        se1 = float(np.std(np.mean(pooled, axis=1), ddof=1) / math.sqrt(n_rep))
        assert abs(c1 - c1_scheme) < 4.0 * se1

    def test_multiplicative_martingale_mean(self):
        """E[u(t, x)] stays at u0 for the linear coefficient."""
        n_rep = 400
        des = self.design(spatial_modes=512, oversampling=4)
        model = ModelSpec(noise=NoiseParams(0.5, 1), sigma=SigmaLinear(0.5),
                          u0=U0Constant(1.0))
        batch = simulate_spde_batch(model, des,
                                    [RngStream(5, i) for i in range(n_rep)])
        final = batch.values[:, -1, 0]
        se = float(np.std(final, ddof=1) / math.sqrt(n_rep))
        assert abs(float(np.mean(final)) - 1.0) < 4.0 * se

    def test_determinism_and_batch_independence(self):
        model = ModelSpec(noise=NoiseParams(0.5, 1), sigma=SigmaLinear(0.5),
                          u0=U0Constant(1.0))
        des = self.design()
        one = simulate_spde(model, des, RngStream(11, 3))
        two = simulate_spde(model, des, RngStream(11, 3))
        assert np.array_equal(one.values, two.values)
        batch = simulate_spde_batch(model, des,
                                    [RngStream(11, i) for i in (1, 3, 9)])
        assert np.array_equal(batch.values[1], one.values)

    def test_workers_do_not_change_results(self):
        model = ModelSpec(noise=NoiseParams(0.5, 1), sigma=SigmaLinear(0.5),
                          u0=U0Constant(1.0))
        des = self.design()
        a = simulate_spde(model, des, RngStream(12), workers=1)
        b = simulate_spde(model, des, RngStream(12), workers=2)
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("sigma", [SigmaLinear(0.5), SigmaConstant(1.0)])
    def test_threads_do_not_change_batch(self, sigma):
        # the draws of a batch are split over threads by blocks of streams
        model = ModelSpec(noise=NoiseParams(0.5, 1), sigma=sigma,
                          u0=U0Constant(1.0))
        des = self.design(horizon=0.01 / 8)
        streams = [RngStream(13, i) for i in range(7)]
        one = simulate_spde_batch(model, des, streams, workers=1).values
        for workers in (2, 3, 8, None):
            many = simulate_spde_batch(model, des, streams, workers=workers).values
            assert np.array_equal(one, many)
        # a subset of the streams run alone reproduces its rows of the batch
        subset = simulate_spde_batch(model, des, [streams[2], streams[5]]).values
        assert np.array_equal(subset, one[[2, 5]])

    def test_constant_sigma_ignores_oversampling(self):
        # one exact OU transition per observation step, whatever oversampling says
        model = ModelSpec(noise=NoiseParams(0.5, 1), sigma=SigmaConstant(1.3),
                          u0=U0SmoothPeriodic(c0=0.5, cos_coeffs=(0.3,)))
        streams = [RngStream(14, i) for i in range(3)]
        batches = [simulate_spde_batch(
            model, self.design(points=(0.25, 1.0 / 3.0), oversampling=over), streams)
            for over in (1, 4, 16)]
        for batch in batches[1:]:
            assert np.array_equal(batch.values, batches[0].values)
        for batch in batches:
            assert batch.meta["oversampling"] == 1
            assert batch.meta["micro_steps"] == len(batch.times) - 1

    @pytest.mark.parametrize("dtype, rtol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_off_grid_weights_agree_on_grid(self, dtype, rtol):
        # an off-grid point makes every point go through the band-limited
        # weights; at a grid point they must reproduce the grid value
        model = ModelSpec(noise=NoiseParams(0.5, 1), sigma=SigmaLinear(0.5),
                          u0=U0SmoothPeriodic(c0=1.0, cos_coeffs=(0.3,)))
        streams = [RngStream(17, i) for i in range(4)]
        mixed = (0.25, 1.0 / 3.0)
        assert _observation_weights(mixed, 128)[0] is None
        on, off = (simulate_spde_batch(
            model, self.design(points=pts, spatial_modes=128, oversampling=4),
            streams, dtype=dtype).values for pts in ((0.25,), mixed))
        err = np.max(np.abs(off[..., 0] - on[..., 0])) / np.max(np.abs(on[..., 0]))
        assert err < rtol

    def test_meta_counts_micro_steps(self):
        model = ModelSpec(noise=NoiseParams(0.5, 1), sigma=SigmaLinear(0.5),
                          u0=U0Constant(1.0))
        des = self.design(oversampling=4, burn_in=8)
        batch = simulate_spde_batch(model, des, [RngStream(15)])
        assert batch.meta["oversampling"] == 4
        assert batch.meta["micro_steps"] == (des.n_steps + 8) * 4

    def test_constant_sigma_law_is_exact(self):
        """From u0 = 0 the field's second moments are those of the exact OU modes.

        ``E u(t)^2 = sum_k w_k q_k (1 - exp(-2 lambda_k t)) / (2 lambda_k)``
        (``q_0 t`` for mode 0), with weights 1, 2, ..., 2, 1 over the
        half-spectrum.  At N = 64 the high modes have ``lambda_k delta_n``
        up to 2, so a step that got the damping wrong misses by far more
        than the 4 SE allowed here.
        """
        alpha, n_modes, dn, n_rep = 0.5, 64, 1e-4, 4000
        des = SamplingDesign(delta_n=dn, horizon=128 * dn,
                             points=tuple(np.arange(8) / 8.0),
                             spatial_modes=n_modes, oversampling=4, burn_in=0)
        model = ModelSpec(noise=NoiseParams(alpha, 1), sigma=SigmaConstant(1.0),
                          u0=U0Constant(0.0))
        batch = simulate_spde_batch(model, des,
                                    [RngStream(16, i) for i in range(n_rep)],
                                    dtype=np.float64)
        q = spectral_cell_masses(alpha, n_modes)
        lam = 2.0 * math.pi ** 2 * np.arange(1, len(q)) ** 2
        wts = np.full(len(q), 2.0)
        wts[0] = 1.0
        wts[-1] = 1.0

        def check(per_stream, target):
            # points share a field, so the SE comes from per-stream means
            est = float(np.mean(per_stream))
            se = float(np.std(per_stream, ddof=1) / math.sqrt(n_rep))
            assert abs(est - target) < 4.0 * se, (est, target, se)

        for i in (1, 4, 16, 64, 128):
            t = batch.times[i]
            v = np.concatenate([[q[0] * t],
                                q[1:] * -np.expm1(-2.0 * lam * t) / (2.0 * lam)])
            check(np.mean(batch.values[:, i] ** 2, axis=-1), float(np.dot(wts, v)))
        # increments past step 64, where the start-up transient moves the
        # stationary moments by at most 0.35% (about 0.25 SE)
        inc = np.diff(batch.values, axis=1)[:, 64:]
        check(np.mean(inc ** 2, axis=(1, 2)),
              scheme_increment_variance(alpha, dn, n_modes))
        for r in (1, 2):
            check(np.mean(inc[:, r:] * inc[:, :-r], axis=(1, 2)),
                  scheme_increment_autocov(alpha, dn, n_modes, r))

    def test_self_convergence_in_oversampling(self):
        """Halving the micro-step moves V^n_2 by less than the MC error."""
        n_rep = 160
        model = ModelSpec(noise=NoiseParams(0.5, 1), sigma=SigmaLinear(0.5),
                          u0=U0Constant(1.0))
        means = []
        ses = []
        for over in (4, 8):
            des = self.design(spatial_modes=512, oversampling=over, burn_in=32)
            batch = simulate_spde_batch(
                model, des, [RngStream(6, i) for i in range(n_rep)]).drop_burn_in()
            scale2 = scheme_increment_variance(0.5, des.delta_n, 512)
            z2 = np.diff(batch.values[:, :, 0], axis=1) ** 2 / scale2
            v = des.delta_n * np.sum(z2, axis=1)
            means.append(float(np.mean(v)))
            ses.append(float(np.std(v, ddof=1) / math.sqrt(n_rep)))
        assert abs(means[0] - means[1]) < 2.0 * math.hypot(*ses)

    def test_blowup_detection(self):
        model = ModelSpec(noise=NoiseParams(0.5, 1), sigma=SigmaConstant(1.0),
                          u0=U0Constant(1.0))
        with pytest.raises(NumericalBlowup) as err:
            simulate_spde(model, self.design(), RngStream(7), blowup_cap=0.5)
        assert err.value.step == 0

    def test_dim_restriction(self):
        model = ModelSpec(noise=NoiseParams(0.5, 2), sigma=SigmaConstant(1.0),
                          u0=U0Constant(0.0))
        with pytest.raises(ValueError):
            simulate_spde(model, self.design(), RngStream(9))

    def test_off_grid_observation(self):
        model = ModelSpec(noise=NoiseParams(0.5, 1), sigma=SigmaConstant(0.0),
                          u0=U0SmoothPeriodic(c0=0.0, cos_coeffs=(1.0,)))
        x_off = 1.0 / 3.0
        des = self.design(points=(x_off,), spatial_modes=256)
        panel = simulate_spde(model, des, RngStream(10))
        exact = np.exp(-2 * math.pi ** 2 * panel.times) * math.cos(2 * math.pi * x_off)
        assert np.max(np.abs(panel.values[:, 0] - exact)) < 1e-5


class TestScalingChecks:
    def test_exact_sampler_slopes(self):
        for alpha, target in ((0.5, 0.375), (1.0, 0.25)):
            n = 2 ** 14
            delta = 1.0 / n
            scale = tau_n(NoiseParams(alpha, 1), delta)
            z = simulate_stationary_increments_batch(
                alpha, n, [RngStream(20, i) for i in range(12)])
            u = np.concatenate([np.zeros((12, 1)),
                                np.cumsum(scale * z, axis=1)], axis=1)
            paths = PathPanel(times=delta * np.arange(n + 1), points=(0.0,),
                              values=u[:, :, None])
            fit = moment_scaling_check(paths, [1, 2, 4, 8, 16, 32])
            assert abs(fit.slope - target) < 0.02

    def test_smooth_path_slope_one(self):
        t = np.linspace(0.0, 1.0, 513)
        fit = moment_scaling_check(PathPanel(times=t, points=(0.0,), values=t), [1, 2, 4, 8])
        assert fit.slope > 0.99

    def test_lag_validation(self):
        paths = PathPanel(times=0.1 * np.arange(10), points=(0.0,), values=np.zeros(10))
        with pytest.raises(ValueError):
            moment_scaling_check(paths, [1, 2])
        with pytest.raises(ValueError):
            moment_scaling_check(paths, [1, 2, 20])

    def test_spatial_slope_on_additive_field(self):
        # shifts must sit well inside the field's correlation length sqrt(t),
        # so observe a near-stationary field at spacings of 1/512
        alpha = 0.5
        pts = tuple(np.arange(32) / 512.0)
        des = SamplingDesign(delta_n=5e-4, horizon=0.15, points=pts,
                             spatial_modes=2048, oversampling=1, burn_in=100)
        model = ModelSpec(noise=NoiseParams(alpha, 1), sigma=SigmaConstant(1.0),
                          u0=U0Constant(0.0))
        batch = simulate_spde_batch(
            model, des, [RngStream(44, i) for i in range(32)]).drop_burn_in()
        fit = spatial_scaling_check(batch, [1, 2, 4, 8])
        assert abs(fit.slope - (1.0 - alpha / 2.0)) < 0.05


class TestPathPanelIO:
    def panel(self):
        times = 0.1 * np.arange(4)
        values = np.arange(8.0).reshape(4, 2)
        return PathPanel(times=times, points=(0.0, 0.5), values=values,
                         meta={"burn_in": 2})

    def test_csv_roundtrip(self, tmp_path):
        p = self.panel()
        f = tmp_path / "p.csv"
        p.to_csv(f)
        lines = f.read_text().strip().splitlines()
        assert lines[0] == "time,x_1,x_2"
        assert len(lines) == 5

    def test_binary_roundtrip(self, tmp_path):
        p = self.panel()
        f = tmp_path / "p.bin"
        p.to_binary(f)
        q = PathPanel.from_binary(f)
        assert np.array_equal(q.times, p.times)
        assert np.array_equal(q.values, p.values)

    def test_drop_burn_in(self):
        p = self.panel()
        q = p.drop_burn_in()
        assert len(q.times) == 2
        assert q.times[0] == 0.0
        assert np.array_equal(q.values, p.values[2:])
        assert q.meta["burn_in"] == 0

    def stack(self):
        times = 0.1 * np.arange(4)
        values = np.arange(24.0).reshape(3, 4, 2)
        return PathPanel(times=times, points=(0.0, 0.5), values=values,
                         meta={"burn_in": 2})

    def test_stack_shape_checked(self):
        with pytest.raises(ValueError):
            PathPanel(times=0.1 * np.arange(4), points=(0.0, 0.5),
                      values=np.zeros((3, 5, 2)))
        with pytest.raises(ValueError):
            PathPanel(times=0.1 * np.arange(4), points=(0.0, 0.5),
                      values=np.zeros((2, 3, 4, 2)))

    def test_stack_replicates(self):
        s = self.stack()
        assert s.n_replicates == 3
        assert self.panel().n_replicates == 1
        one = s.panel(1)
        assert one.values.shape == (4, 2)
        assert np.array_equal(one.values, s.values[1])
        assert one.meta["replicate"] == 1
        assert np.array_equal(one.times, s.times)

    def test_stack_written_one_path_at_a_time(self, tmp_path):
        s = self.stack()
        with pytest.raises(ValueError):
            s.to_csv(tmp_path / "s.csv")
        with pytest.raises(ValueError):
            s.to_binary(tmp_path / "s.bin")
        with pytest.raises(ValueError):
            self.panel().panel(0)
        s.panel(2).to_csv(tmp_path / "s2.csv")

    def test_stack_drop_burn_in(self):
        s = self.stack()
        q = s.drop_burn_in()
        assert q.values.shape == (3, 2, 2)
        assert np.array_equal(q.values, s.values[:, 2:, :])
        assert np.array_equal(q.times, s.times[2:] - s.times[2])
        assert q.meta["burn_in"] == 0 and q.meta["dropped_steps"] == 2
        assert q.drop_burn_in() is q
