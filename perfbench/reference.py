"""Reference values computed without shevar, from numpy and scipy only.

* ``gamma_fgn``: lag autocovariance of unit-variance fractional Gaussian
  noise with ``2H = 1 - alpha/2`` (the normalised increments of the additive
  solution at a fixed point).
* ``series_coefficient``: the CLT series coefficient
  ``C(alpha, p) = rho(1) + 2 sum_{r>=1} rho(Gamma_r)`` for ``f = |z|^p``,
  where ``rho(c) = Cov(|X|^p, |Y|^p)`` for standard normals with
  correlation c is given by Nabeya (1951):
  ``E|X|^p |Y|^p = m_p^2 2F1(-p/2, -p/2; 1/2; c^2)``.  The lag sum is taken
  directly up to ``n_lags`` and the rest is added as an asymptotic tail.
* ``scheme_increment_variance``: the stationary increment variance of the
  spectral torus scheme, summed mode by mode from the spectral-cell masses
  of ``|xi|^(alpha - 1) dxi``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import zeta

# direct three-term formula below this lag, asymptotic series above it
_SERIES_FROM = 64


def abs_moment(p: float) -> float:
    """``m_p = E|Z|^p`` for a standard normal Z."""
    return 2.0 ** (p / 2.0) * math.gamma((p + 1.0) / 2.0) / math.sqrt(math.pi)


def _binom(b: float, k: int) -> float:
    out = 1.0
    for j in range(k):
        out *= (b - j) / (j + 1)
    return out


def gamma_fgn(alpha: float, r) -> np.ndarray:
    """fGn autocovariance ``((r+1)^b - 2 r^b + |r-1|^b) / 2`` with ``b = 2H``.

    Large lags use ``Gamma_r = sum_{k>=1} binom(b, 2k) r^(b - 2k)``, which
    avoids the cancellation of the three-term difference.
    """
    b = 1.0 - alpha / 2.0
    r = np.atleast_1d(np.asarray(r, dtype=float))
    out = np.empty_like(r)
    near = r < _SERIES_FROM
    rn = r[near]
    out[near] = 0.5 * ((rn + 1.0) ** b - 2.0 * rn ** b + np.abs(rn - 1.0) ** b)
    rf = r[~near]
    acc = np.zeros_like(rf)
    for k in range(10, 0, -1):
        acc += _binom(b, 2 * k) * rf ** (b - 2.0 * k)
    out[~near] = acc
    return out


def _f_minus_one(p: float, z: np.ndarray) -> np.ndarray:
    """``2F1(-p/2, -p/2; 1/2; z) - 1`` by its Gauss series (needs 0 <= z < 1).

    Summing the series from its first term keeps full relative precision for
    the tiny arguments of far lags, where ``hyp2f1(...) - 1`` would cancel.
    """
    a = -p / 2.0
    term = np.ones_like(z)
    total = np.zeros_like(z)
    for j in range(60):
        term = term * (a + j) ** 2 / ((0.5 + j) * (j + 1.0)) * z
        total += term
        if not np.any(np.abs(term) > 1e-18 * np.abs(total)):
            break
    return total


def series_coefficient(alpha: float, p: float, n_lags: int = 2 ** 16) -> float:
    """``C(alpha, p)`` for ``f = |z|^p`` at unit variance (see module doc)."""
    m_p = abs_moment(p)
    g = gamma_fgn(alpha, np.arange(1, n_lags + 1))
    rho = m_p ** 2 * _f_minus_one(p, g * g)
    # tail: rho(c) = m_p^2 (p^2/2) c^2 + O(c^4) and
    # Gamma_r = c1 r^(b-2) + c2 r^(b-4) + ..., summed with Hurwitz zeta
    b = 1.0 - alpha / 2.0
    c1, c2 = _binom(b, 2), _binom(b, 4)
    q = float(n_lags + 1)
    tail_sq = c1 * c1 * zeta(4.0 - 2.0 * b, q) + 2.0 * c1 * c2 * zeta(6.0 - 2.0 * b, q)
    tail = m_p ** 2 * (p * p / 2.0) * tail_sq
    rho0 = abs_moment(2.0 * p) - m_p ** 2
    return rho0 + 2.0 * (math.fsum(rho.tolist()) + tail)


def spectral_cell_masses(alpha: float, n_modes: int) -> np.ndarray:
    """Mass of ``|xi|^(alpha-1) dxi`` on the unit cell around each mode 0..N/2."""
    k = np.arange(n_modes // 2 + 1, dtype=float)
    q = ((k + 0.5) ** alpha - np.abs(k - 0.5) ** alpha) / alpha
    q[0] = 2.0 * 0.5 ** alpha / alpha
    return q


def scheme_increment_variance(alpha: float, delta: float, n_modes: int) -> float:
    """Stationary ``Var(u(t + delta, x) - u(t, x))`` of the torus scheme.

    Mode k is an Ornstein-Uhlenbeck process with rate ``2 pi^2 k^2`` and
    noise intensity ``q_k``; its stationary increment variance over delta is
    ``q_k (1 - exp(-lam delta)) / lam`` (``q_0 delta`` for the constant
    mode).  Modes +-k both contribute for ``0 < k < N/2``.
    """
    q = spectral_cell_masses(alpha, n_modes)
    total = q[0] * delta
    for k in range(1, len(q)):
        lam = 2.0 * math.pi ** 2 * k * k
        weight = 1.0 if k == len(q) - 1 else 2.0
        total += weight * q[k] * -math.expm1(-lam * delta) / lam
    return total
