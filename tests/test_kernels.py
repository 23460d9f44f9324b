"""Constants, autocovariance algebra and the quadrature mass identity."""

import json
import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shevar
from shevar.kernels import (
    NoiseParams,
    WhiteNoiseCase,
    abs_moment,
    clt_constant,
    gamma_partial_sum_identity,
    gamma_r,
    gamma_series_tail,
    gamma_sq_tail_bound,
    pi_mass,
    riesz_constant,
    sum_gamma_sq,
    tau_n,
)

ALPHA_GRID = [0.1, 0.25, 0.5, 0.75, 0.9]

# High-precision reference values (40-digit Gamma evaluations, frozen).
RIESZ_HALF_DIM2 = 5.244115108584240
CLT_CONST_1_1 = 0.7978845608028654     # sqrt(2/pi)
CLT_CONST_HALF_1 = 2.293439966198719
TAU_1_1_1E4 = 0.08932438417380023
GAMMA1_ALPHA1 = -0.2928932188134525    # (sqrt(2) - 2)/2
M1 = 0.7978845608028654
M3 = 1.5957691216057308


class TestNoiseParams:
    def test_valid(self):
        p = NoiseParams(0.5, 1)
        assert not p.white_noise and p.clt_in_scope

    def test_white_noise_flag(self):
        p = NoiseParams(1.0, 1)
        assert p.white_noise and not p.clt_in_scope

    @pytest.mark.parametrize("alpha,dim", [(0.0, 1), (1.5, 1), (1.2, 2), (0.5, 0)])
    def test_invalid(self, alpha, dim):
        with pytest.raises(ValueError):
            NoiseParams(alpha, dim)


class TestRieszConstant:
    def test_half_dim1_is_one(self):
        # pi exponent vanishes and the two Gamma arguments coincide
        assert riesz_constant(NoiseParams(0.5, 1)) == pytest.approx(1.0, abs=1e-15)

    def test_half_dim2(self):
        assert riesz_constant(NoiseParams(0.5, 2)) == pytest.approx(
            RIESZ_HALF_DIM2, rel=1e-12)

    def test_white_noise_pole(self):
        with pytest.raises(WhiteNoiseCase):
            riesz_constant(NoiseParams(1.0, 1))

    def test_positive_on_grid(self):
        for a in ALPHA_GRID:
            assert riesz_constant(NoiseParams(a, 1)) > 0


class TestCltConstant:
    def test_alpha1(self):
        assert clt_constant(NoiseParams(1.0, 1)) == pytest.approx(
            CLT_CONST_1_1, rel=1e-12)

    def test_alpha_half(self):
        assert clt_constant(NoiseParams(0.5, 1)) == pytest.approx(
            CLT_CONST_HALF_1, rel=1e-12)

    def test_finite_on_grid(self):
        vals = [clt_constant(NoiseParams(a, 1)) for a in ALPHA_GRID]
        assert all(math.isfinite(v) and v > 0 for v in vals)


class TestTau:
    def test_unit_step(self):
        p = NoiseParams(0.5, 1)
        assert tau_n(p, 1.0) == pytest.approx(math.sqrt(clt_constant(p)), rel=1e-15)

    def test_frozen_value(self):
        assert tau_n(NoiseParams(1.0, 1), 1e-4) == pytest.approx(
            TAU_1_1_1E4, rel=1e-12)

    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_scaling_law(self, alpha):
        p = NoiseParams(alpha, 1)
        ratio = tau_n(p, 4e-3) / tau_n(p, 1e-3)
        assert ratio == pytest.approx(4.0 ** (0.5 - alpha / 4.0), rel=1e-14)

    def test_nonpositive_step(self):
        with pytest.raises(ValueError):
            tau_n(NoiseParams(0.5, 1), 0.0)


class TestAbsMoment:
    def test_known_values(self):
        assert abs_moment(2.0) == pytest.approx(1.0, rel=1e-15)
        assert abs_moment(4.0) == pytest.approx(3.0, rel=1e-14)
        assert abs_moment(1.0) == pytest.approx(M1, rel=1e-12)
        assert abs_moment(3.0) == pytest.approx(M3, rel=1e-12)
        assert abs_moment(6.0) == pytest.approx(15.0, rel=1e-13)

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(10 ** 6)
        for p in (1.0, 2.0, 3.0, 4.0, 6.0):
            vals = np.abs(x) ** p
            se = vals.std(ddof=1) / math.sqrt(len(vals))
            assert abs(vals.mean() - abs_moment(p)) < 3.0 * se


class TestGammaR:
    def test_lag_zero(self):
        assert gamma_r(0.5, 0) == 1.0

    def test_alpha1_lag1(self):
        assert gamma_r(1.0, 1) == pytest.approx(GAMMA1_ALPHA1, rel=1e-14)

    @pytest.mark.parametrize("alpha", ALPHA_GRID + [1.0])
    def test_negative_beyond_zero(self, alpha):
        g = gamma_r(alpha, np.arange(1, 2000))
        assert np.all(g < 0)
        assert np.all(np.diff(np.abs(g)) < 0)  # |Gamma_r| strictly decreasing

    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_partial_sum_identity_1e6(self, alpha):
        big_r = 10 ** 6
        total = math.fsum(np.asarray(gamma_r(alpha, np.arange(big_r + 1))).tolist())
        target = gamma_partial_sum_identity(alpha, big_r)
        assert abs(total - target) <= 1e-12 * abs(target)

    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_series_sums_to_half(self, alpha):
        big_r = 10 ** 6
        total = math.fsum(np.asarray(gamma_r(alpha, np.arange(big_r + 1))).tolist())
        assert abs(total + gamma_series_tail(alpha, big_r) - 0.5) < 1e-5

    def test_branch_consistency_at_switch(self):
        # the direct and double-integral branches must agree where they meet
        for alpha in (0.1, 0.5, 0.9):
            b = 1.0 - alpha / 2.0
            for r in (999, 1000, 1001, 1500, 5000):
                direct = 0.5 * ((r + 1.0) ** b - 2.0 * r ** b + (r - 1.0) ** b)
                assert gamma_r(alpha, r) == pytest.approx(direct, rel=5e-11)

    @settings(max_examples=60, deadline=None)
    @given(alpha=st.floats(min_value=1e-3, max_value=1.0))
    def test_switch_at_lag_1000(self, alpha):
        g = gamma_r(alpha, np.arange(990, 1011))
        assert np.all(g < 0)
        assert np.all(np.diff(np.abs(g)) < 0)
        # the direct form in 40 digits: in doubles its cancellation costs up
        # to about 1e-8 relative at this lag when alpha is small
        b, r = 1 - mpmath.mpf(alpha) / 2, mpmath.mpf(1001)
        with mpmath.workdps(40):
            direct = float(((r + 1) ** b - 2 * r ** b + (r - 1) ** b) / 2)
        assert gamma_r(alpha, 1001) == pytest.approx(direct, rel=1e-9)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_decay_exponent(self, alpha):
        # |Gamma_r| ~ r^-(1 + alpha/2): log-log slope within 0.05
        rs = np.unique(np.geomspace(100, 10 ** 5, 40).astype(int))
        g = np.abs(gamma_r(alpha, rs))
        slope = np.polyfit(np.log(rs), np.log(g), 1)[0]
        assert abs(slope + (1.0 + alpha / 2.0)) < 0.05

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            gamma_r(0.0, 1)
        with pytest.raises(ValueError):
            gamma_r(0.5, -1)

    def test_sum_gamma_sq_against_direct(self):
        # direct summation oracle at moderate cutoff
        direct = float(np.sum(np.asarray(gamma_r(0.5, np.arange(1, 200_001))) ** 2))
        assert sum_gamma_sq(0.5) == pytest.approx(direct, abs=2e-8)

    def test_tail_bounds_dominate(self):
        for alpha in (0.25, 0.75):
            g = np.abs(gamma_r(alpha, np.arange(101, 4000)))
            assert (g ** 2).sum() <= gamma_sq_tail_bound(alpha, 100)


def _toeplitz(values, order):
    idx = np.abs(np.arange(order)[:, None] - np.arange(order)[None, :])
    return values[idx]


class TestAutocovarianceTable:
    """Structural invariants of the table Gamma_0..Gamma_R."""

    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_validate(self, alpha):
        v = gamma_r(alpha, np.arange(513))
        assert v[0] == 1.0
        assert np.all(v[1:] < 0.0)
        target = gamma_partial_sum_identity(alpha, 512)
        assert abs(math.fsum(v.tolist()) - target) <= 1e-12 * abs(target)
        assert np.linalg.eigvalsh(_toeplitz(v, 256))[0] >= -1e-10

    def test_toeplitz_psd_256(self):
        for alpha in ALPHA_GRID:
            eig = np.linalg.eigvalsh(_toeplitz(gamma_r(alpha, np.arange(256)), 256))
            assert eig[0] >= -1e-10


class TestPiMass:
    """The quadrature route must reproduce the closed form exactly."""

    def test_lag_zero_is_one(self):
        for alpha in (0.1, 0.5, 0.9):
            assert pi_mass(alpha, 0) == pytest.approx(1.0, abs=1e-6)

    def test_known_lags(self):
        assert pi_mass(0.5, 1) == pytest.approx(float(gamma_r(0.5, 1)), abs=1e-6)
        assert pi_mass(0.9, 5) == pytest.approx(float(gamma_r(0.9, 5)), abs=1e-6)

    @pytest.mark.parametrize("alpha", [0.25, 0.75])
    def test_grid_subset(self, alpha):
        for r in range(13):
            assert abs(pi_mass(alpha, r) - float(gamma_r(alpha, r))) <= 1e-6

    def test_import_leaves_quadrature_unloaded(self):
        # scipy.integrate pulls in optimize, sparse and linalg: about 25 MB
        # and 0.2 s of every process that imports shevar
        heavy = ["scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.linalg",
                 "scipy.stats", "scipy.spatial", "scipy.interpolate"]
        script = (
            "import json, sys\n"
            "import shevar, shevar.cli\n"
            f"heavy = {heavy!r}\n"
            "def loaded():\n"
            "    return [h for h in heavy\n"
            "            if any(m == h or m.startswith(h + '.') for m in sys.modules)]\n"
            "before = loaded()\n"
            "value = shevar.kernels.pi_mass(0.5, 2)\n"
            "print(json.dumps({'before': before, 'after': loaded(), 'value': value,\n"
            "                  'gamma': float(shevar.kernels.gamma_r(0.5, 2))}))\n"
        )
        src = os.path.dirname(os.path.dirname(shevar.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = json.loads(subprocess.run([sys.executable, "-c", script], env=env,
                                        check=True, capture_output=True,
                                        text=True).stdout)
        assert out["before"] == []
        assert "scipy.integrate" in out["after"]
        # pi_mass accepts a summed error estimate of up to 10 * tol = 1e-8
        assert out["value"] == pytest.approx(out["gamma"], abs=1e-8)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            pi_mass(1.0, 0)
        with pytest.raises(ValueError):
            pi_mass(0.5, -2)
