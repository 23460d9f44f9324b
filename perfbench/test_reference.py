"""Tests of the benchmark's own reference values and of its refusal to run
without sources.  Run with ``python3 -m pytest perfbench -q``."""

import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import hyp2f1

import reference

HERE = Path(__file__).resolve().parent


def test_pinned_series_coefficients():
    assert reference.series_coefficient(0.5, 1.0) == pytest.approx(0.3816059, abs=5e-8)
    assert reference.series_coefficient(0.5, 2.0) == pytest.approx(2.1142986, abs=5e-8)


def test_series_converged_in_lag_count():
    for alpha in (0.25, 0.5, 0.75):
        for p in (1.0, 1.5, 3.0):
            short = reference.series_coefficient(alpha, p, n_lags=2 ** 12)
            long = reference.series_coefficient(alpha, p, n_lags=2 ** 18)
            assert short == pytest.approx(long, rel=1e-9)


def test_gauss_series_matches_scipy_hyp2f1():
    z = np.array([1e-12, 1e-6, 1e-3, 0.02, 0.09])
    for p in (1.0, 1.5, 2.0, 3.0, 4.0):
        expected = hyp2f1(-p / 2, -p / 2, 0.5, z) - 1.0
        got = reference._f_minus_one(p, z)
        np.testing.assert_allclose(got[2:], expected[2:], rtol=1e-12)
        # tiny arguments: the leading term p^2 z / 2, where hyp2f1 - 1 cancels
        np.testing.assert_allclose(got[:2], p * p / 2 * z[:2], rtol=1e-5)


def test_gamma_matches_high_precision_direct_formula():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    for alpha in (0.1, 0.5, 0.9):
        b = mpmath.mpf(1) - mpmath.mpf(alpha) / 2
        for r in (1, 2, 63, 64, 65, 1000, 123456):
            exact = ((r + 1) ** b - 2 * mpmath.mpf(r) ** b + (r - 1) ** b) / 2
            got = reference.gamma_fgn(alpha, r)[0]
            assert got == pytest.approx(float(exact), rel=1e-12)


def test_gamma_telescoping_sum():
    alpha, big_r = 0.5, 10 ** 5
    b = 1.0 - alpha / 2.0
    g = reference.gamma_fgn(alpha, np.arange(1, big_r + 1))
    total = 1.0 + math.fsum(g.tolist())
    closed = 0.5 * (1.0 + big_r ** b * math.expm1(b * math.log1p(1.0 / big_r)))
    assert total == pytest.approx(closed, rel=1e-11)


def test_p2_hypergeometric_sum_equals_twice_gamma_square_sum():
    """C(alpha, 2) = 2 sum_{r in Z} Gamma_r^2, the right side summed in
    40-digit arithmetic from the direct formula up to a different cut, with a
    three-term Hurwitz-zeta tail."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    for alpha in (0.25, 0.5, 0.75):
        b = mpmath.mpf(1) - mpmath.mpf(alpha) / 2
        big_r = 3000

        def gamma(r):
            return ((r + 1) ** b - 2 * mpmath.mpf(r) ** b + (r - 1) ** b) / 2

        head = mpmath.fsum(gamma(r) ** 2 for r in range(1, big_r + 1))
        c1, c2, c3 = (mpmath.binomial(b, 2 * k) for k in (1, 2, 3))
        q = big_r + 1
        tail = (c1 ** 2 * mpmath.zeta(4 - 2 * b, q)
                + 2 * c1 * c2 * mpmath.zeta(6 - 2 * b, q)
                + (c2 ** 2 + 2 * c1 * c3) * mpmath.zeta(8 - 2 * b, q))
        expected = 2 * (1 + 2 * (head + tail))
        assert reference.series_coefficient(alpha, 2.0) == pytest.approx(
            float(expected), rel=1e-10)


def test_p4_matches_isserlis_polynomial():
    # Cov(X^4, Y^4) = 72 c^2 + 24 c^4 for standard normals with correlation c
    alpha = 0.5
    g = reference.gamma_fgn(alpha, np.arange(1, 2 ** 18 + 1))
    direct = 96.0 + 2.0 * math.fsum((72 * g ** 2 + 24 * g ** 4).tolist())
    assert reference.series_coefficient(alpha, 4.0) == pytest.approx(direct, rel=1e-9)


def test_scheme_variance_two_modes():
    alpha, delta = 0.5, 1e-3
    q0 = 2 * 0.5 ** alpha / alpha
    q1 = (1.5 ** alpha - 0.5 ** alpha) / alpha
    lam = 2 * math.pi ** 2
    expected = q0 * delta + q1 * (1 - math.exp(-lam * delta)) / lam
    got = reference.scheme_increment_variance(alpha, delta, 2)
    assert got == pytest.approx(expected, rel=1e-13)


def test_scheme_variance_brownian_regime():
    # for lam_k delta << 1 every mode contributes q_k delta
    alpha, n_modes, delta = 0.5, 16, 1e-9
    q = reference.spectral_cell_masses(alpha, n_modes)
    weights = np.full(len(q), 2.0)
    weights[0] = weights[-1] = 1.0
    expected = delta * float(np.dot(weights, q))
    got = reference.scheme_increment_variance(alpha, delta, n_modes)
    assert got == pytest.approx(expected, rel=1e-6)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "spde-additive",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
