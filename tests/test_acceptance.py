"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion with its runtime.  The heavy Monte Carlo criteria (6, 7, 8) take
several minutes each on one core; the whole suite is sized for roughly half
an hour.  Criteria 7 and 8 carry the ``slow`` marker, so
``pytest -m "not slow"`` gives a quick loop without them.  Every run is fully
deterministic given the seeds fixed here.
"""

import math
import time

import numpy as np
import pytest

from shevar.gaussian_limits import EvaluationFunction, MonteCarlo, mu_f, rho
from shevar.harness import default_config, run_experiment
from shevar.kernels import (
    abs_moment,
    gamma_partial_sum_identity,
    gamma_r,
    gamma_series_tail,
    pi_mass,
)
from shevar.simulate import RngStream, embedding_autocovariance, simulate_stationary_increments

ALPHA_GRID = (0.1, 0.25, 0.5, 0.75, 0.9)


def _report(number, name, passed, started, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number:2d} [{name}] {status} "
          f"({time.time() - started:.1f}s) {detail}")
    assert passed, f"criterion {number} ({name}) failed: {detail}"


def test_01_pi_mass_identity():
    """Quadrature mass equals the closed-form autocovariance, |err| <= 1e-6."""
    t0 = time.time()
    worst = 0.0
    for alpha in ALPHA_GRID:
        gams = np.asarray(gamma_r(alpha, np.arange(51)))
        for r in range(51):
            worst = max(worst, abs(pi_mass(alpha, r) - gams[r]))
    _report(1, "pi-mass identity", worst <= 1e-6, t0, f"max error {worst:.2e}")


def test_02_gamma_algebra():
    """Partial-sum identity to 1e-12 at R = 1e6; series value 1/2 within
    1e-5; order-256 Toeplitz matrix positive semidefinite."""
    t0 = time.time()
    big_r = 10 ** 6
    worst_rel, worst_half, worst_eig = 0.0, 0.0, 0.0
    for alpha in ALPHA_GRID:
        g = np.asarray(gamma_r(alpha, np.arange(big_r + 1)))
        total = math.fsum(g.tolist())
        target = gamma_partial_sum_identity(alpha, big_r)
        worst_rel = max(worst_rel, abs(total - target) / abs(target))
        worst_half = max(worst_half,
                         abs(total + gamma_series_tail(alpha, big_r) - 0.5))
        idx = np.abs(np.arange(256)[:, None] - np.arange(256)[None, :])
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(g[idx])[0]))
    ok = worst_rel <= 1e-12 and worst_half <= 1e-5 and worst_eig >= -1e-10
    _report(2, "gamma algebra", ok, t0,
            f"rel {worst_rel:.2e}, half {worst_half:.2e}, eig {worst_eig:.2e}")


def test_03_gaussian_limit_oracles():
    """Pairing-expansion values reproduced by the MC backend within 4 SE."""
    t0 = time.time()
    mc = MonteCarlo(n_pairs=200_000)
    f = EvaluationFunction.abs_power(2.0)
    ok = True
    worst_dev = 0.0
    for alpha in (0.25, 0.5, 0.75):
        for r in range(11):
            closed = 2.0 * float(gamma_r(alpha, r)) ** 2
            assert rho(f, 0, 0, r, [1.0], alpha=alpha) == pytest.approx(
                closed, rel=1e-12)
            est, se = rho(f, 0, 0, r, [1.0], alpha=alpha, method="mc",
                          mc=mc, return_se=True)
            dev = abs(est - closed) / (4.0 * se)
            worst_dev = max(worst_dev, dev)
            ok = ok and dev <= 1.0
    for p in (1.0, 2.0, 3.0, 4.0):
        fp = EvaluationFunction.abs_power(p)
        est, se = mu_f(fp, [1.0], method="mc", mc=mc, return_se=True)
        dev = abs(est[0] - abs_moment(p)) / (4.0 * se[0])
        worst_dev = max(worst_dev, dev)
        ok = ok and dev <= 1.0
    _report(3, "limit oracles vs MC", ok, t0, f"worst |dev|/4SE {worst_dev:.2f}")


def test_04_exact_sampler_fidelity():
    """Embedding covariance exact to 1e-12; sample autocovariances to 4 SE."""
    t0 = time.time()
    worst_emb = 0.0
    for alpha in ALPHA_GRID:
        emb = embedding_autocovariance(alpha, 256)
        worst_emb = max(worst_emb, float(np.max(np.abs(
            emb - np.asarray(gamma_r(alpha, np.arange(257)))))))
    n = 10 ** 6
    worst_dev = 0.0
    for alpha, seed in ((0.5, 41), (1.0, 42)):
        z = simulate_stationary_increments(alpha, n, RngStream(seed))
        g = np.asarray(gamma_r(alpha, np.arange(64)))
        # Bartlett-type standard error with the known autocovariance
        tail = np.concatenate([g[:0:-1], g])
        for lag in range(21):
            est = float(np.mean(z[lag:] * z[: n - lag])) if lag else float(np.mean(z * z))
            var = np.sum(tail ** 2)
            for s in range(-62, 63):
                gp = g[abs(s + lag)] if abs(s + lag) < 64 else 0.0
                gm = g[abs(s - lag)] if abs(s - lag) < 64 else 0.0
                var += gp * gm
            se = math.sqrt(var / (n - lag))
            worst_dev = max(worst_dev, abs(est - g[lag]) / (4.0 * se))
    ok = worst_emb <= 1e-12 and worst_dev <= 1.0
    _report(4, "exact sampler fidelity", ok, t0,
            f"embedding {worst_emb:.1e}, worst |dev|/4SE {worst_dev:.2f}")


def test_05_law_of_large_numbers():
    """E|V^n_p(1) - m_p| decays at rate n^(-1/2) for p = 2 and 4."""
    t0 = time.time()
    cfg = default_config("lln").replace(**{
        "model.alpha": 0.5,
        "functional.powers": [2.0, 4.0],
        "lln.ladder": [10, 11, 12, 13, 14, 15, 16],
        "replicates": 500,
        "seed": 52_001,
    })
    rep = run_experiment(cfg)
    slopes = rep.summary["slopes"]
    detail = (f"slopes {slopes['2.0']:.3f}/{slopes['4.0']:.3f}, "
              f"err@2^16 {rep.summary['final_error_first_power']:.4f}")
    _report(5, "law of large numbers", rep.passed, t0, detail)


def test_06_clt_additive():
    """Studentized statistic vs N(0,1): KS, variance ratio, independence."""
    t0 = time.time()
    cfg = default_config("clt").replace(**{
        "driver": "exact",
        "model.alpha": 0.5,
        "functional.p": 2.0,
        "design.n": 2 ** 14,
        "design.horizon": 1.0,
        "replicates": 1000,
        "seed": 52_006,
    })
    rep = run_experiment(cfg)
    s = rep.summary
    detail = (f"KS p {s['ks_pvalue']:.3f}, var ratio {s['variance_ratio']:.3f}, "
              f"corr {s['increment_correlation']:.3f}")
    _report(6, "CLT additive", rep.passed, t0, detail)


@pytest.mark.slow
def test_07_clt_multiplicative():
    """No asymptotic bias for the linear coefficient: centered statistic is
    mixed Gaussian already at the simulated scale."""
    t0 = time.time()
    cfg = default_config("clt").replace(**{
        "driver": "spde",
        "model.alpha": 0.5,
        "model.sigma.kind": "linear",
        "model.sigma.sigma0": 0.5,
        "model.u0.kind": "constant",
        "model.u0.value": 1.0,
        "functional.p": 2.0,
        "design.n": 2 ** 12,
        "design.horizon": 0.01,
        "design.spatial_modes": 1024,
        "design.oversampling": 16,
        "design.burn_in": -1,
        "clt.normalization": "scheme",
        "replicates": 300,
        "seed": 52_007,
    })
    rep = run_experiment(cfg)
    s = rep.summary
    detail = (f"mean {s['mean_studentized']:.4f} (se {s['mean_se']:.4f}), "
              f"KS p {s['ks_pvalue']:.3f}, var ratio {s['variance_ratio']:.3f}")
    ok = s["mean_pass"] and s["ks_pass"]
    _report(7, "CLT multiplicative", ok, t0, detail)


@pytest.mark.slow
def test_08_estimator():
    """Volatility estimator: mean within 5% on the linear model; 95% CI
    coverage inside [0.91, 0.99] in the additive calibration case."""
    t0 = time.time()
    pam = default_config("estimate").replace(**{
        "estimate.estimator": "sigma0",
        "driver": "spde",
        "model.alpha": 0.5,
        "model.sigma.kind": "linear",
        "model.sigma.sigma0": 0.5,
        "design.n": 2 ** 12,
        "design.horizon": 0.01,
        "design.spatial_modes": 2048,
        "design.oversampling": 4,
        "design.burn_in": -1,
        "replicates": 200,
        "seed": 52_008,
    })
    rep1 = run_experiment(pam)
    cov = default_config("estimate").replace(**{
        "estimate.estimator": "coverage",
        "driver": "exact",
        "model.alpha": 0.5,
        "model.sigma.value": 1.0,
        "design.n": 2 ** 12,
        "design.horizon": 1.0,
        "replicates": 500,
        "seed": 52_108,
    })
    rep2 = run_experiment(cov)
    detail = (f"bias {rep1.summary['bias_rel'] * 100:.2f}%, "
              f"coverage {rep2.summary['coverage']:.3f}")
    _report(8, "sigma0 estimator", rep1.passed and rep2.passed, t0, detail)


def test_09_hoelder_scaling():
    """Temporal regularity exponent 1/2 - alpha/4: within 0.02 on the exact
    sampler, within 0.05 on the torus scheme (plus the spatial exponent)."""
    t0 = time.time()
    exact = default_config("scaling").replace(**{
        "scaling.alphas": [0.5, 0.9],
        "scaling.exact": True,
        "scaling.spde": False,
        "scaling.spatial": False,
        "scaling.lags": [1, 2, 4, 8, 16, 32],
        "design.n": 2 ** 14,
        "replicates": 30,
        "seed": 52_009,
    })
    rep1 = run_experiment(exact)
    spde = default_config("scaling").replace(**{
        "scaling.alphas": [0.5, 0.9],
        "scaling.exact": False,
        "scaling.spde": True,
        "scaling.spatial": True,
        "scaling.lags": [1, 2, 4, 8, 16, 32],
        "scaling.spatial_shifts": [1, 2, 4, 8],
        "design.n": 2 ** 11,
        "design.horizon": 0.01,
        "design.spatial_modes": 4096,
        "design.oversampling": 8,
        "design.burn_in": 64,
        "replicates": 30,
        "seed": 52_109,
    })
    rep2 = run_experiment(spde)
    slopes = {**rep1.summary["slopes"], **rep2.summary["slopes"]}
    detail = ", ".join(f"{k}={v:.3f}" for k, v in sorted(slopes.items()))
    _report(9, "Hoelder scaling", rep1.passed and rep2.passed, t0, detail)


def test_10_reproducibility(tmp_path):
    """Same config and seed on different thread counts: byte-identical CSV."""
    t0 = time.time()
    cfg = default_config("clt").replace(**{
        "design.n": 2 ** 10,
        "replicates": 50,
        "seed": 52_010,
    })
    run_experiment(cfg, workers=1, out_dir=str(tmp_path / "one"))
    run_experiment(cfg, workers=2, out_dir=str(tmp_path / "two"))
    a = (tmp_path / "one" / "replicates.csv").read_bytes()
    b = (tmp_path / "two" / "replicates.csv").read_bytes()
    _report(10, "reproducibility", a == b, t0,
            f"{len(a)} bytes, identical={a == b}")
