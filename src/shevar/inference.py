"""Feasible estimators and confidence intervals from high-frequency data.

The volatility estimator divides the normalised p-th power variation by a
Riemann sum of |u|^p, which for the linear (parabolic Anderson) coefficient
is weakly consistent for sigma0^p.  Its standard error comes from a plug-in
of the limit covariance with the conditional variance path replaced by a
windowed realized-variance ("spot variance") estimate.  The noise exponent
estimator uses the two-scale ratio of mean squared increments, which
concentrates at ``2^(1 - alpha/2)``.

The confidence-interval construction is asymptotically heuristic: the limit
theory covers the variation functional itself, not the ratio estimator, so
interval validity is established empirically by the coverage experiments in
the harness.  Reports carry that caveat in their diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .gaussian_limits import EvaluationFunction, limit_covariance
from .kernels import abs_moment
from .variations import (
    SamplingDesign,
    extract_increments,
    power_variation,
)


class DegeneratePath(RuntimeError):
    """The estimator's denominator vanished (e.g. the observed path is 0)."""


class InconsistentScaling(RuntimeError):
    """Two-scale increment ratio incompatible with any alpha in (0, 1]."""


# the two-scale ratio may leave (1, 2) by this much before it is rejected
_RATIO_TOLERANCE = 0.05
# blocks of the blockwise standard error of the alpha estimator
_N_BLOCKS = 8


@dataclass
class EstimateReport:
    """Point estimate with its asymptotic standard error and interval."""

    estimate: float
    se: float
    ci_low: float
    ci_high: float
    level: float
    n: int
    delta_n: float
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.se < 0:
            raise ValueError("standard error must be nonnegative")
        if not (self.ci_low <= self.estimate <= self.ci_high):
            raise ValueError("confidence interval must contain the estimate")


def normal_quantile(q: float) -> float:
    return NormalDist().inv_cdf(q)


def confidence_interval(point: float, c_hat: float, delta_n: float,
                        level: float) -> tuple:
    """Normal interval ``point +- z * sqrt(delta_n * c_hat)``.

    ``c_hat`` is the plug-in limit variance of the rescaled statistic.
    ``c_hat = 0`` collapses the interval to the point.
    """
    if not (0.0 < level < 1.0):
        raise ValueError("level must lie in (0, 1)")
    if not math.isfinite(c_hat) or c_hat < 0:
        raise ValueError(f"invalid plug-in variance {c_hat!r}")
    z = normal_quantile(0.5 * (1.0 + level))
    hw = z * math.sqrt(delta_n * c_hat)
    return point - hw, point + hw


def spot_variance(z: np.ndarray, delta_n: float) -> np.ndarray:
    """Windowed realized variance of normalised increments.

    ``z`` is a 1-d array of normalised increments; entry i averages ``z^2``
    over the forward window ``[i, i + ceil(delta_n^(-1/2)))``, truncated at
    the end of the sample.
    """
    z = np.asarray(z, dtype=float)
    n = len(z)
    window = max(1, min(int(math.ceil(delta_n ** -0.5)), n))
    sq = z ** 2
    csum = np.concatenate([[0.0], np.cumsum(sq)])
    hi = np.minimum(np.arange(n) + window, n)
    lo = np.arange(n)
    return (csum[hi] - csum[lo]) / (hi - lo)


def _plugin_limit_variance(z: np.ndarray, p: float, alpha: float,
                           delta_n: float, horizon: float):
    """Plug-in C(T) for f = |z|^p from the observed normalised increments."""
    w_hat = spot_variance(z, delta_n)
    s_grid = delta_n * np.arange(len(w_hat) + 1)
    w_path = np.concatenate([w_hat, w_hat[-1:]])[:, None]
    f = EvaluationFunction.abs_power(p)
    law = limit_covariance(f, s_grid, w_path, np.array([horizon]), alpha)
    return float(law.c_path[0, 0, 0]), law


def estimate_sigma0(p: float, series, design: SamplingDesign, alpha: float,
                    level: float = 0.95, force_unit_denominator: bool = False,
                    tau: float | None = None) -> EstimateReport:
    """Volatility estimator ``(V^n_p / (m_p delta_n sum_i |u(i delta)|^p))^(1/p)``.

    ``series`` holds the observations ``u(i delta_n, x)``, i = 0..n; the
    denominator sums the left nodes i = 0..n-1, as ``limit_lln`` does.  For the
    linear coefficient the p-th power of the estimate is weakly consistent
    for ``sigma0^p``; for a constant coefficient pass
    ``force_unit_denominator=True`` to replace the denominator by
    ``m_p * T``.  ``tau`` overrides the increment normalisation ``tau_n``,
    e.g. with the spectral scheme's own increment scale.  The
    standard error studentises the numerator by the plug-in limit variance
    and maps through the p-th root by the delta method.
    """
    u = np.asarray(series, dtype=float)
    if u.ndim != 1:
        raise ValueError("series must be one observed scalar path")
    n = design.n_steps
    if len(u) != n + 1:
        raise ValueError(f"series length {len(u)} != n_steps + 1 = {n + 1}")
    horizon = n * design.delta_n
    panel = extract_increments(u, design, alpha, tau=tau)
    m_p = abs_moment(p)
    v_np = float(power_variation(p, panel, design, [horizon])[0])
    if force_unit_denominator:
        denom = m_p * horizon
    else:
        denom = m_p * design.delta_n * float(np.sum(np.abs(u[:-1]) ** p))
    if denom <= 0 or not math.isfinite(denom):
        raise DegeneratePath(f"denominator {denom!r} is not positive")

    est_p = v_np / denom
    sigma0 = est_p ** (1.0 / p)
    c_hat, law = _plugin_limit_variance(
        panel.values[:, 0], p, alpha, design.delta_n, horizon)
    se_p = math.sqrt(design.delta_n * c_hat) / denom
    guard = max(sigma0 ** (p - 1.0), 1e-12)
    se = se_p / (p * guard)
    z_lvl = normal_quantile(0.5 * (1.0 + level))
    report = EstimateReport(
        estimate=sigma0,
        se=se,
        ci_low=sigma0 - z_lvl * se,
        ci_high=sigma0 + z_lvl * se,
        level=level,
        n=n,
        delta_n=design.delta_n,
        diagnostics={
            "estimate_pth_power": est_p,
            "se_pth_power": se_p,
            "p": p,
            "plugin_variance": c_hat,
            "series_r_max": law.r_max,
            "series_tail_bound": float(law.tail_bound[0, 0]),
            "spot_window": int(math.ceil(design.delta_n ** -0.5)),
            "ci_construction": "heuristic plug-in (validated empirically)",
        },
    )
    return report


def estimate_alpha(series, design: SamplingDesign, level: float = 0.95) -> EstimateReport:
    """Noise-exponent estimator from the two-scale squared-increment ratio.

    The mean squared increment over steps ``2 delta`` and ``delta`` has ratio
    ``2^(1 - alpha/2)``, so ``alpha_hat = 2 (1 - log2 ratio)``.  The ratio
    must fall inside ``(1, 2)`` up to a tolerance of 0.05 (a deterministic
    C^1 path gives 4, pure white noise gives 1); estimates leaking slightly
    outside ``(0, 1]`` are clamped and flagged.  Standard errors come from
    blockwise subestimates.
    """
    u = np.asarray(series, dtype=float)
    if u.ndim != 1 or len(u) < 4:
        raise ValueError("series must be a scalar path with at least 4 samples")
    d1 = np.diff(u)
    d2 = u[2:] - u[:-2]
    msq1 = float(np.mean(d1 ** 2))
    msq2 = float(np.mean(d2 ** 2))
    if msq1 <= 0:
        raise DegeneratePath("constant path: squared increments vanish")
    ratio = msq2 / msq1
    if not (1.0 - _RATIO_TOLERANCE < ratio < 2.0 + _RATIO_TOLERANCE):
        raise InconsistentScaling(
            f"two-scale ratio {ratio:.4f} outside (1, 2); the path does not "
            "scale like any alpha in (0, 1]"
        )
    alpha_hat = 2.0 * (1.0 - math.log2(ratio))
    clamped = not (0.0 < alpha_hat <= 1.0)
    alpha_est = float(np.clip(alpha_hat, 0.01, 1.0))

    # blockwise ratios for a simple standard error
    blocks = np.array_split(np.arange(len(d1)), _N_BLOCKS)
    sub = []
    for idx in blocks:
        if len(idx) < 3:
            continue
        b1 = float(np.mean(d1[idx] ** 2))
        seg = u[idx[0]: idx[-1] + 3]
        b2 = float(np.mean((seg[2:] - seg[:-2]) ** 2))
        if b1 > 0 and b2 > 0 and 0.5 < b2 / b1 < 4.0:
            sub.append(2.0 * (1.0 - math.log2(b2 / b1)))
    se = float(np.std(sub, ddof=1) / math.sqrt(len(sub))) if len(sub) > 1 else float("inf")
    z_lvl = normal_quantile(0.5 * (1.0 + level))
    lo, hi = alpha_est - z_lvl * se, alpha_est + z_lvl * se
    return EstimateReport(
        estimate=alpha_est,
        se=se,
        ci_low=lo,
        ci_high=hi,
        level=level,
        n=len(u) - 1,
        delta_n=design.delta_n,
        diagnostics={
            "two_scale_ratio": ratio,
            "alpha_unclamped": alpha_hat,
            "clamped": clamped,
            "n_blocks_used": len(sub),
        },
    )


def integrated_variance_interval(series, design: SamplingDesign, alpha: float,
                                 level: float = 0.95):
    """CI for the integrated conditional variance ``int_0^T sigma^2(u(s, x)) ds``.

    ``series`` holds the observations ``u(i delta_n, x)``, i = 0..n.  Uses
    the quadratic variation functional centered by nothing (it is the point
    estimate) and the plug-in limit variance for its width.  Returns an
    :class:`EstimateReport`.
    """
    panel = extract_increments(series, design, alpha)
    z = panel.values[:, 0]
    delta = design.delta_n
    horizon = len(z) * delta
    v = float(power_variation(2.0, panel, design, [horizon])[0])
    c_hat, law = _plugin_limit_variance(z, 2.0, alpha, delta, horizon)
    lo, hi = confidence_interval(v, c_hat, delta, level)
    return EstimateReport(
        estimate=v, se=math.sqrt(delta * c_hat), ci_low=lo, ci_high=hi,
        level=level, n=len(z), delta_n=delta,
        diagnostics={
            "plugin_variance": c_hat,
            "series_tail_bound": float(law.tail_bound[0, 0]),
            "ci_construction": "heuristic plug-in (validated empirically)",
        },
    )
