"""Closed-form constants, kernels and increment autocovariances.

Everything in this module is deterministic special-function algebra for the
heat equation driven by noise that is white in time and has spatial spectral
density ``|xi|^(alpha - d)`` (Riesz covariance kernel).  The central objects
are

* ``c_alpha``  -- the Riesz kernel constant,
* ``C_alpha``  -- the constant entering the increment normalisation ``tau_n``,
* ``tau_n``    -- the scale of a time increment over a step ``delta_n``,
* ``Gamma_r``  -- the lag-r autocovariance of consecutive normalised
  increments, identical to fractional Gaussian noise with ``2H = 1 - alpha/2``,
* ``pi_mass``  -- an independent quadrature evaluation of the increment
  correlation measure's total mass, which must reproduce ``Gamma_r`` exactly.

``pi_mass`` deliberately shares no code with ``gamma_r``: one is adaptive
quadrature of a frequency-domain integral, the other a closed-form second
difference.  Their agreement is one of the package's core identity checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate


class WhiteNoiseCase(ValueError):
    """alpha == dim: the Riesz kernel degenerates to delta-correlated noise."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature did not reach the requested tolerance."""

    def __init__(self, message, achieved_error=None):
        super().__init__(message)
        self.achieved_error = achieved_error


@dataclass(frozen=True)
class NoiseParams:
    """Noise exponent alpha and spatial dimension of the driving field.

    Valid combinations: ``0 < alpha <= 1`` with ``alpha < dim``, or the
    delta-correlated case ``alpha == dim == 1`` (flagged ``white_noise``).
    ``alpha == 1`` is accepted for law-of-large-numbers work but lies outside
    the scope of the central limit theorem, which requires ``alpha < 1``.
    """

    alpha: float
    dim: int = 1

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.dim < 1 or self.dim != int(self.dim):
            raise ValueError(f"dim must be a positive integer, got {self.dim}")
        if self.alpha > self.dim:
            raise ValueError("alpha may not exceed the spatial dimension")

    @property
    def white_noise(self) -> bool:
        return self.alpha == 1.0 and self.dim == 1

    @property
    def clt_in_scope(self) -> bool:
        """The CLT is established for alpha in (0, 1) only."""
        return self.alpha < 1.0


def riesz_constant(params: NoiseParams) -> float:
    """Constant c of the spatial covariance kernel ``c * |y|^(-alpha)``.

    ``c = pi^(d/2 - alpha) * Gamma(alpha/2) / Gamma((d - alpha)/2)``.
    Undefined for ``alpha == dim`` (Gamma pole); that case is delta-correlated
    noise and must be handled by the caller through the white-noise branch.
    """
    a, d = params.alpha, params.dim
    if a == d:
        raise WhiteNoiseCase(
            "alpha == dim has no Riesz kernel constant; use the "
            "delta-correlation branch"
        )
    return math.pi ** (d / 2.0 - a) * math.gamma(a / 2.0) / math.gamma((d - a) / 2.0)


def clt_constant(params: NoiseParams) -> float:
    """Constant C entering the increment normalisation.

    ``C = pi^(d/2 - alpha) * Gamma(alpha/2) / (2^(alpha/2) (1 - alpha/2) Gamma(d/2))``.
    """
    a, d = params.alpha, params.dim
    num = math.pi ** (d / 2.0 - a) * math.gamma(a / 2.0)
    den = 2.0 ** (a / 2.0) * (1.0 - a / 2.0) * math.gamma(d / 2.0)
    return num / den


def tau_n(params: NoiseParams, delta_n: float) -> float:
    """Scale of one time increment: ``sqrt(C_alpha) * delta_n^(1/2 - alpha/4)``."""
    if delta_n <= 0:
        raise ValueError("delta_n must be positive")
    return math.sqrt(clt_constant(params)) * delta_n ** (0.5 - params.alpha / 4.0)


def abs_moment(p: float) -> float:
    """p-th absolute moment of the standard normal: ``2^(p/2) Gamma((p+1)/2) / sqrt(pi)``."""
    if p <= 0:
        raise ValueError("p must be positive")
    return 2.0 ** (p / 2.0) * math.gamma((p + 1.0) / 2.0) / math.sqrt(math.pi)


# -- increment autocovariance -------------------------------------------------

# Above this lag the three-term second difference loses too many digits to
# cancellation, so Gamma_r switches to an equivalent double-integral form
# evaluated by a 2-point tensor Gauss rule (relative error ~0.03 * r^-4).
_GAMMA_SWITCH = 1000

_GAUSS2_NODES = np.array([0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0)])


def gamma_r(alpha: float, r) -> float | np.ndarray:
    """Lag-r autocovariance of consecutive normalised increments.

    ``Gamma_0 = 1`` and for r >= 1
    ``Gamma_r = ((r+1)^b - 2 r^b + (r-1)^b) / 2`` with ``b = 1 - alpha/2``.
    Scalar or array ``r``; 0 <= alpha <= 1 with alpha > 0.
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    r_arr = np.asarray(r)
    if np.any(r_arr < 0) or not np.issubdtype(r_arr.dtype, np.number):
        raise ValueError("lags must be nonnegative")
    scalar = r_arr.ndim == 0
    r_arr = np.atleast_1d(r_arr).astype(float)
    b = 1.0 - alpha / 2.0
    out = np.empty_like(r_arr)

    zero = r_arr == 0
    out[zero] = 1.0

    direct = (~zero) & (r_arr <= _GAMMA_SWITCH)
    if np.any(direct):
        rd = r_arr[direct]
        out[direct] = 0.5 * ((rd + 1.0) ** b - 2.0 * rd ** b + (rd - 1.0) ** b)

    far = r_arr > _GAMMA_SWITCH
    if np.any(far):
        # Gamma_r = (b(b-1)/2) * int_0^1 int_0^1 (r - 1 + u + v)^(b-2) du dv,
        # which is cancellation-free; 2-point Gauss per axis is ample here.
        rf = r_arr[far][:, None, None]
        base = rf - 1.0 + _GAUSS2_NODES[:, None] + _GAUSS2_NODES[None, :]
        out[far] = 0.125 * b * (b - 1.0) * np.sum(base ** (b - 2.0), axis=(-2, -1))

    return float(out[0]) if scalar else out


def gamma_partial_sum_identity(alpha: float, big_r: int) -> float:
    """Closed form of ``sum_{r=0}^{R} Gamma_r`` evaluated without cancellation.

    The telescoping sum equals ``(1 + (R+1)^b - R^b) / 2``; the difference of
    the two large powers is computed via expm1/log1p so the identity can be
    checked to 1e-12 relative even at R = 10^6.
    """
    b = 1.0 - alpha / 2.0
    if big_r == 0:
        return 1.0
    diff = big_r ** b * math.expm1(b * math.log1p(1.0 / big_r))
    return 0.5 * (1.0 + diff)


def sum_gamma_sq(alpha: float, r_max: int = 10 ** 6) -> float:
    """``sum_{r>=1} Gamma_r^2`` by direct summation up to ``r_max`` plus tail bound.

    The tail beyond ``r_max`` is added via the integral comparison of
    :func:`gamma_sq_tail_bound`; with the default cutoff the result is
    accurate to well below 1e-10 for alpha in (0, 1].
    """
    chunk = 2 ** 20
    total = 0.0
    r = 1
    while r <= r_max:
        hi = min(r_max, r + chunk - 1)
        g = gamma_r(alpha, np.arange(r, hi + 1))
        total += float(np.dot(g, g))
        r = hi + 1
    return total + 0.5 * gamma_sq_tail_bound(alpha, r_max)


def gamma_sq_tail_bound(alpha: float, r_min: int) -> float:
    """Upper bound on ``sum_{r > r_min} Gamma_r^2`` via integral comparison.

    Uses ``|Gamma_r| <= (b(1-b)/2) (r-1)^(b-2)`` for r >= 2 and integrates the
    square; valid for r_min >= 2.
    """
    if r_min < 2:
        raise ValueError("tail bound requires r_min >= 2")
    b = 1.0 - alpha / 2.0
    c = 0.5 * b * (1.0 - b)
    # sum_{r>r_min} (r-1)^(2b-4) <= int_{r_min-1}^inf x^(2b-4) dx
    return c * c * (r_min - 1.0) ** (2.0 * b - 3.0) / (3.0 - 2.0 * b)


def gamma_abs_tail_bound(alpha: float, r_min: int) -> float:
    """Upper bound on ``sum_{r > r_min} |Gamma_r|`` via integral comparison."""
    if r_min < 2:
        raise ValueError("tail bound requires r_min >= 2")
    b = 1.0 - alpha / 2.0
    c = 0.5 * b * (1.0 - b)
    return c * (r_min - 1.0) ** (b - 1.0) / (1.0 - b)


def gamma_series_tail(alpha: float, r_min: int) -> float:
    """Exact ``sum_{r > r_min} Gamma_r`` (telescoping limit), evaluated stably.

    The tail equals ``-((R+1)^b - R^b) / 2`` and decays only like
    ``R^(-alpha/2)``, so raw partial sums approach the series value 1/2 very
    slowly; adding this correction recovers the limit to machine precision.
    """
    b = 1.0 - alpha / 2.0
    return -0.5 * r_min ** b * math.expm1(b * math.log1p(1.0 / r_min))


# -- quadrature verification of the increment correlation measure -------------


def _z5_integrand(t, alpha, r):
    e = -alpha / 2.0
    if r == 0:
        return (2.0 * t) ** e
    return (2.0 * t + r) ** e - (2.0 * t + r - 1.0) ** e


def _z6_integrand(t, alpha, r):
    e = -alpha / 2.0
    return ((2.0 * t + r + 2.0) ** e
            - 2.0 * (2.0 * t + r + 1.0) ** e
            + (2.0 * t + r) ** e)


def pi_mass(alpha: float, r: int, tol: float = 1e-9) -> float:
    """Total mass of the lag-r increment correlation measure, by quadrature.

    After reduction to the frequency domain and rescaling of time by the step
    size, the mass becomes a step-free 1-D integral split into a near part on
    [0, 1] and a far part on [1, inf); the far part is mapped onto (0, 1] by
    ``t -> 1/t``.  Adaptive Gauss-Kronrod quadrature with absolute tolerance
    ``tol`` on each piece.  The result must equal ``gamma_r(alpha, r)``; this
    function intentionally never calls :func:`gamma_r`.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1) for the quadrature check, got {alpha}")
    if r < 0 or r != int(r):
        raise ValueError("r must be a nonnegative integer")
    r = int(r)
    scale = 1.0 - alpha / 2.0

    pieces = [
        integrate.quad(_z5_integrand, 0.0, 1.0, args=(alpha, r),
                       epsabs=tol, epsrel=0.0, full_output=1),
        integrate.quad(_z6_integrand, 0.0, 1.0, args=(alpha, r),
                       epsabs=tol, epsrel=0.0, full_output=1),
        integrate.quad(lambda s: _z6_integrand(1.0 / s, alpha, r) / (s * s),
                       0.0, 1.0, epsabs=tol, epsrel=0.0, full_output=1),
    ]
    total = 0.0
    err = 0.0
    for out in pieces:
        if len(out) > 3:
            raise QuadratureError(
                f"pi_mass quadrature did not converge: {out[3]}",
                achieved_error=out[1],
            )
        total += out[0]
        err += out[1]
    if err > 10.0 * tol:
        raise QuadratureError(
            f"pi_mass error estimate {err:.3e} exceeds tolerance", achieved_error=err
        )
    return scale * total
