"""Gaussian limit objects for power variations.

A power variation is driven by an evaluation function ``f`` whose M
components are absolute powers ``|z_k|^p`` of the normalised increment at
one of K observed spatial points.  This module builds the Gaussian
structures that govern its limits:

* the covariance of one increment vector, ``Cov(Z_k, Z_k) = w_k`` (distinct
  points are independent),
* the joint covariance of two increment vectors ``r`` steps apart, with cross
  terms ``Gamma_r w_k``,
* the mean map ``mu_f(w) = E[f(Z)]`` (law-of-large-numbers limit density),
* lagged covariances ``rho(r; w) = Cov(f_m1(Z^(1)), f_m2(Z^(2)))``,
* the conditional variance process ``C(t)`` of the central limit theorem,
  a series over all lags of the ``rho``'s integrated against the conditional
  variance path.

Every limit constant is closed form: the absolute normal moments ``m_p`` and
Nabeya's absolute moments of a correlated normal pair, ``E|X|^p |Y|^q = m_p
m_q 2F1(-p/2, -q/2; 1/2; c^2)``, at every real p; the lag series of even
powers is summed by the pairing expansion.  An antithetic common-random-number
Monte Carlo backend (``method="mc"``), whose draws are a deterministic
function of a master seed and the operation's arguments, serves as an
independent check of the closed forms.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .kernels import abs_moment, gamma_r, gamma_sq_tail_bound

DEFAULT_MC_SEED = 202_406_181


class InvalidShift(RuntimeError):
    """Joint two-window covariance failed to factor; indicates a bug upstream."""


# ---------------------------------------------------------------------------
# evaluation functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AbsPower:
    """|z_k|^p -- absolute power of the normalised increment at point k."""

    p: float
    k: int = 0

    def __post_init__(self):
        if self.p <= 0:
            raise ValueError("power must be positive")

    def evaluate(self, z):
        return np.abs(z[..., self.k]) ** self.p


class EvaluationFunction:
    """f: R^K -> R^M, one absolute power per output."""

    def __init__(self, components, n_points: int = 1):
        self.components = list(components)
        self.n_points = int(n_points)
        if self.n_points < 1:
            raise ValueError("need at least one point")
        for c in self.components:
            if not isinstance(c, AbsPower):
                raise TypeError(f"components must be AbsPower, got {type(c).__name__}")
            if not (0 <= c.k < self.n_points):
                raise ValueError(f"component row {c.k} outside 0..{self.n_points - 1}")
        if not self.components:
            raise ValueError("need at least one component")

    @classmethod
    def abs_power(cls, p: float, n_points: int = 1) -> "EvaluationFunction":
        """``|z|^p`` of the first point's increment."""
        return cls([AbsPower(p)], n_points=n_points)

    @property
    def n_outputs(self) -> int:
        return len(self.components)

    def evaluate(self, z) -> np.ndarray:
        """Apply every component; increments (..., K) -> values (..., M)."""
        z = np.asarray(z, dtype=float)
        if z.shape[-1:] != (self.n_points,):
            raise ValueError(f"increment shape {z.shape[-1:]} != (K,) = "
                             f"({self.n_points},)")
        return np.stack([c.evaluate(z) for c in self.components], axis=-1)


# ---------------------------------------------------------------------------
# covariance blocks
# ---------------------------------------------------------------------------


def _check_w(w, n_points) -> np.ndarray:
    w = np.atleast_1d(np.asarray(w, dtype=float))
    if w.shape != (n_points,):
        raise ValueError(f"w must have length K = {n_points}")
    if np.any(w < 0):
        raise ValueError("conditional variances w must be nonnegative")
    return w


def build_within_cov(f: EvaluationFunction, w) -> np.ndarray:
    """K x K covariance of one increment vector: ``diag(w)``."""
    return np.diag(_check_w(w, f.n_points))


def build_joint_cov(f: EvaluationFunction, w, r: int, alpha: float) -> np.ndarray:
    """2K x 2K joint covariance of two increment vectors r >= 1 steps apart.

    The second vector occupies indices K..2K-1.
    """
    if r < 1:
        raise ValueError("shift r must be >= 1; use build_within_cov for r = 0")
    a = build_within_cov(f, w)
    b = float(gamma_r(alpha, r)) * a
    return np.block([[a, b], [b, a]])


def _safe_cholesky(cov: np.ndarray, joint: bool = False):
    """Lower Cholesky factor, tolerating exactly-degenerate (zero) rows.

    A jitter of ``1e-12 * trace / dim`` is added to the diagonal of the
    non-degenerate submatrix only.
    """
    diag = np.diag(cov)
    active = diag > 0
    out = np.zeros_like(cov)
    if not np.any(active):
        return out
    sub = cov[np.ix_(active, active)]
    eps = 1e-12 * float(np.trace(sub)) / sub.shape[0]
    try:
        chol = np.linalg.cholesky(sub + eps * np.eye(sub.shape[0]))
    except np.linalg.LinAlgError as exc:
        if joint:
            raise InvalidShift(
                "joint window covariance is not PSD after jitter; "
                "this indicates an implementation bug"
            ) from exc
        raise
    out[np.ix_(active, active)] = chol
    return out


# ---------------------------------------------------------------------------
# Monte Carlo backend
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonteCarlo:
    """Settings for the antithetic, common-random-number Gaussian MC backend.

    ``seed`` is a master seed; each evaluation derives its stream
    deterministically from the seed and a tag describing the operation, so
    repeated calls are reproducible and lag sweeps share draws.
    """

    n_pairs: int = 200_000
    seed: int = DEFAULT_MC_SEED


def _derived_generator(seed: int, tag: str) -> np.random.Generator:
    digest = hashlib.blake2b(tag.encode(), digest_size=8).digest()
    key = int.from_bytes(digest, "little")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(key,))
    return np.random.Generator(np.random.SFC64(ss))


def _mc_base_draws(mc: MonteCarlo, tag: str, dim: int) -> np.ndarray:
    gen = _derived_generator(mc.seed, tag)
    return gen.standard_normal((mc.n_pairs, dim))


def _check_method(method: str) -> None:
    if method not in ("auto", "mc"):
        raise ValueError(f"method must be 'auto' or 'mc', got {method!r}")


def _mc_mean(values: np.ndarray):
    n = values.shape[0]
    mean = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(n))
    return mean, se


# ---------------------------------------------------------------------------
# mu_f
# ---------------------------------------------------------------------------


def mu_f(f: EvaluationFunction, w, method: str = "auto",
         mc: MonteCarlo | None = None, return_se: bool = False):
    """LLN limit density ``mu_f(w) = E[f(Z)] = m_p w_k^(p/2)`` as a length-M vector.

    ``method`` is "auto" (closed form) or "mc" (Monte Carlo).  With
    ``return_se`` the Monte Carlo standard errors are returned alongside
    (zero for closed-form entries).
    """
    _check_method(method)
    w = _check_w(w, f.n_points)
    ses = np.zeros(f.n_outputs)
    if method == "auto":
        values = np.array([abs_moment(c.p) * w[c.k] ** (c.p / 2.0)
                           for c in f.components])
    else:
        mc = mc or MonteCarlo()
        values = np.zeros(f.n_outputs)
        # the tag's "x1" (one lag) is part of the stream key: dropping it
        # would change every draw, and with them stored identities reports
        base = _mc_base_draws(mc, f"mu:{f.n_points}x1:{mc.n_pairs}", f.n_points)
        z = base @ _safe_cholesky(build_within_cov(f, w)).T
        for m, comp in enumerate(f.components):
            vals = 0.5 * (comp.evaluate(z) + comp.evaluate(-z))
            values[m], ses[m] = _mc_mean(vals)
    if return_se:
        return values, ses
    return values


# ---------------------------------------------------------------------------
# rho
# ---------------------------------------------------------------------------


# far-lag correlations satisfy |c| = |Gamma_r| <= 0.3, where the Gauss series
# below needs about 15 terms; the cap only guards against |c| close to 1
_NABEYA_MAX_TERMS = 1000


def _nabeya_series(p: float, q: float, z, absolute: bool = False):
    """``sum_{j>=1} a_j z^(j-1)`` for ``0 <= z < 1``, where ``sum_{j>=1} a_j z^j
    = m_p m_q (2F1(-p/2, -q/2; 1/2; z) - 1)`` is the Gauss series without its
    leading 1.  With ``absolute`` the coefficients enter as ``|a_j|``.

    The series terminates when p or q is an even integer.
    """
    z = np.asarray(z, dtype=float)
    a, b = -p / 2.0, -q / 2.0
    coef = abs_moment(p) * abs_moment(q)
    power = np.ones(z.shape)
    total = np.zeros(z.shape)
    for j in range(_NABEYA_MAX_TERMS):
        coef *= (a + j) * (b + j) / ((0.5 + j) * (j + 1.0))
        term = (abs(coef) if absolute else coef) * power
        total += term
        if not np.any(np.abs(term) > 1e-17 * np.abs(total)):
            return total
        power = power * z
    raise ArithmeticError(f"Nabeya series did not converge at z = {np.max(z):.6g}")


def _abs_power_rho(p: float, q: float, c):
    """``Cov(|X|^p, |Y|^q)`` for standard normals X, Y with correlation c.

    Nabeya (1951): ``E|X|^p |Y|^q = m_p m_q 2F1(-p/2, -q/2; 1/2; c^2)``.  The
    covariance is summed as the Gauss series from its first term, so the
    tiny ``c^2`` of far lags keeps full relative precision instead of
    cancelling against the leading 1.  ``|c| = 1`` gives
    ``m_(p+q) - m_p m_q`` (Gauss's summation theorem).  Vectorised over c.
    """
    z = np.square(np.asarray(c, dtype=float))
    unit = z >= 1.0
    out = z * _nabeya_series(p, q, np.where(unit, 0.0, z))
    out = np.where(unit, abs_moment(p + q) - abs_moment(p) * abs_moment(q), out)
    return float(out) if out.ndim == 0 else out


def _rho_mc_draws(f: EvaluationFunction, mc: MonteCarlo) -> np.ndarray:
    """Base draws of the rho backend, of the joint dimension 2K.

    The tag excludes r and w: common random numbers across lag and variance
    sweeps.  Its "x1" (one lag) is part of the stream key, as in ``mu_f``.
    """
    return _mc_base_draws(mc, f"rho:{f.n_points}x1:{mc.n_pairs}", 2 * f.n_points)


def _rho_mc_products(f, m1, m2, r, w, alpha, base) -> np.ndarray:
    """Per-draw centred products; their sum over ``n - 1`` estimates rho(r)."""
    k = f.n_points
    if r == 0:
        z1 = z2 = base[:, :k] @ _safe_cholesky(build_within_cov(f, w)).T
    else:
        chol = _safe_cholesky(build_joint_cov(f, w, r, alpha), joint=True)
        z = base @ chol.T
        z1, z2 = z[:, :k], z[:, k:]
    c1, c2 = f.components[m1], f.components[m2]
    # antithetic at the pair level: (-Z1, -Z2) has the same joint law, so the
    # averaged product is unbiased for any f, even or not
    a_pos, a_neg = c1.evaluate(z1), c1.evaluate(-z1)
    b_pos, b_neg = c2.evaluate(z2), c2.evaluate(-z2)
    mean_a = 0.5 * float(np.mean(a_pos) + np.mean(a_neg))
    mean_b = 0.5 * float(np.mean(b_pos) + np.mean(b_neg))
    return 0.5 * ((a_pos - mean_a) * (b_pos - mean_b)
                  + (a_neg - mean_a) * (b_neg - mean_b))


def rho(f: EvaluationFunction, m1: int, m2: int, r: int, w,
        alpha: float, method: str = "auto", mc: MonteCarlo | None = None,
        return_se: bool = False):
    """Lag-r covariance ``Cov(f_m1(Z^(1)), f_m2(Z^(2)))``.

    Identically zero when the two components live on different spatial rows.
    ``r = 0`` is the covariance within one increment vector.  "auto" takes
    Nabeya's closed form, ``w_k^((p+q)/2) Cov(|X|^p, |Y|^q)`` at correlation
    ``Gamma_r``; "mc" takes antithetic CRN Monte Carlo.
    """
    _check_method(method)
    w = _check_w(w, f.n_points)
    if r < 0 or r != int(r):
        raise ValueError("lag r must be a nonnegative integer")
    r = int(r)
    c1, c2 = f.components[m1], f.components[m2]
    if c1.k != c2.k:
        return (0.0, 0.0) if return_se else 0.0

    if method == "auto":
        wk = w[c1.k]
        value = 0.0 if wk == 0.0 else (
            wk ** ((c1.p + c2.p) / 2.0)
            * _abs_power_rho(c1.p, c2.p, float(gamma_r(alpha, r))))
        return (value, 0.0) if return_se else value

    prod = _rho_mc_products(f, m1, m2, r, w, alpha, _rho_mc_draws(f, mc or MonteCarlo()))
    n = prod.shape[0]
    value = float(np.sum(prod) / (n - 1))
    se = float(np.std(prod, ddof=1) / math.sqrt(n))
    return (value, se) if return_se else value


# ---------------------------------------------------------------------------
# limit paths
# ---------------------------------------------------------------------------


@dataclass
class LimitLaw:
    """Limit objects along a time grid.

    ``v_path[..., i, :]`` is ``int_0^{t_i} mu_f(w(s)) ds`` and
    ``c_path[..., i, :, :]`` the conditional CLT covariance matrix at
    ``t_i``; leading axes are those of a replicate stack of variance paths.
    ``series`` holds the unit-variance series coefficients behind
    ``c_path``, truncated at ``r_max``; ``tail_bound`` is a per-entry bound
    on their truncation error.
    """

    t_grid: np.ndarray
    v_path: np.ndarray
    c_path: np.ndarray
    r_max: int
    series: np.ndarray
    tail_bound: np.ndarray

    def validate(self, tol: float = 1e-10) -> None:
        m = self.c_path.shape[-1]
        for c in self.c_path.reshape(-1, m, m):
            assert np.allclose(c, c.T, atol=tol), "C(t) must be symmetric"
            if c.size:
                eig = np.linalg.eigvalsh(c)[0]
                scale = max(1.0, float(np.trace(c)))
                assert eig >= -tol * scale, "C(t) must be PSD"
        diag = np.einsum("...tmm->...tm", self.c_path)
        assert np.all(np.diff(diag, axis=-2) >= -tol), "diagonal of C must be nondecreasing"


def _left_riemann_profile(s_grid, values, t_grid):
    """``int_{s_0}^t values(s) ds`` by left Riemann sums on a uniform grid.

    Time is the last axis of ``values``; it is replaced by ``t_grid``.  The
    integral up to t is ``ds * np.sum`` over the first
    ``floor((t - s_0) / ds)`` left nodes: the pairwise sum that
    ``variation_functional`` takes over its increments, so a limit and the
    functional it centres are summed alike.
    """
    s_grid = np.asarray(s_grid, dtype=float)
    if s_grid.ndim != 1 or len(s_grid) < 2:
        raise ValueError("s_grid must be a 1-d grid with at least two nodes")
    ds = s_grid[1] - s_grid[0]
    if not (ds > 0 and np.all(np.abs(np.diff(s_grid) - ds) <= 1e-9 * ds)):
        raise ValueError("s_grid must be uniform and increasing")
    counts = np.floor((np.asarray(t_grid, dtype=float) - s_grid[0]) / ds + 1e-9)
    counts = np.clip(counts.astype(int), 0, len(s_grid) - 1)
    return np.stack([ds * np.sum(values[..., :c], axis=-1) for c in counts], axis=-1)


def _w_path_array(w_path, n_points, n_nodes) -> np.ndarray:
    w = np.asarray(w_path, dtype=float)
    if w.ndim == 1:
        w = w[:, None]
    if w.shape[-2:] != (n_nodes, n_points):
        raise ValueError(f"w_path must have shape (..., {n_nodes}, K = {n_points})")
    if np.any(w < 0):
        raise ValueError("variance path must be nonnegative")
    return w


def limit_lln(f: EvaluationFunction, s_grid, w_path, t_grid) -> np.ndarray:
    """LLN limit path ``V_f(t) = int_0^t mu_f(w(s)) ds``; shape (..., len(t_grid), M).

    ``w_path`` holds the conditional variances on the uniform ``s_grid``,
    shape ``(len(s_grid), K)`` or a replicate stack ``(..., len(s_grid), K)``;
    integration is by left Riemann sums (see ``_left_riemann_profile``) of
    the density ``m_p w_k^(p/2)``.
    """
    w = _w_path_array(w_path, f.n_points, np.size(s_grid))
    return np.stack([
        _left_riemann_profile(s_grid, abs_moment(c.p) * w[..., c.k] ** (c.p / 2.0),
                              t_grid)
        for c in f.components], axis=-1)


def limit_covariance(f: EvaluationFunction, s_grid, w_path, t_grid, alpha: float,
                     r_max: int = 10_000) -> LimitLaw:
    """Conditional CLT covariance ``C(t)`` and LLN path on ``t_grid``.

    ``C_{m1 m2}(t) = int_0^t rho(0; w(s)) ds + sum_{r>=1} int_0^t
    [rho_{m1 m2}(r; w(s)) + rho_{m2 m1}(r; w(s))] ds``, truncated at
    ``r_max``.  ``rho`` is homogeneous of degree ``(p1 + p2) / 2`` in w, so
    each series coefficient is computed once at unit variance and the time
    dependence enters through ``int w^q ds``.  ``w_path`` may be a
    replicate stack, as in :func:`limit_lln`; the coefficients are computed
    once for the whole stack.
    """
    w = _w_path_array(w_path, f.n_points, np.size(s_grid))
    t_grid = np.asarray(t_grid, dtype=float)
    m_dim = f.n_outputs
    comps = f.components

    series = np.zeros((m_dim, m_dim))
    tail = np.zeros((m_dim, m_dim))
    for m1 in range(m_dim):
        for m2 in range(m1, m_dim):
            if comps[m1].k == comps[m2].k:
                s_val, s_tail = _series_coefficient(comps[m1].p, comps[m2].p,
                                                    alpha, r_max)
                series[m1, m2] = series[m2, m1] = s_val
                tail[m1, m2] = tail[m2, m1] = s_tail

    # time profiles int_0^t w_k(s)^q ds for every needed (k, q)
    c_path = np.zeros(w.shape[:-2] + (len(t_grid), m_dim, m_dim))
    prof_cache = {}
    for m1 in range(m_dim):
        for m2 in range(m_dim):
            c1, c2 = comps[m1], comps[m2]
            if c1.k != c2.k or series[m1, m2] == 0.0:
                continue
            key = (c1.k, (c1.p + c2.p) / 2.0)
            if key not in prof_cache:
                prof_cache[key] = _left_riemann_profile(s_grid, w[..., c1.k] ** key[1],
                                                        t_grid)
            c_path[..., m1, m2] = series[m1, m2] * prof_cache[key]

    return LimitLaw(t_grid=t_grid, v_path=limit_lln(f, s_grid, w, t_grid),
                    c_path=c_path, r_max=int(r_max), series=series, tail_bound=tail)


def _series_coefficient(p: float, q: float, alpha: float, r_max: int):
    """rho(0) + 2 sum_{r=1}^{r_max} rho(r) at unit variance, with its tail bound."""
    if p == int(p) and q == int(q) and int(p) % 2 == 0 and int(q) % 2 == 0:
        return _pairing_series(int(p), int(q), alpha, r_max)
    return _abs_power_series(p, q, alpha, r_max)


def pair_moment_coeffs(p: int, q: int) -> np.ndarray:
    """Coefficients ``a_j`` with ``E[X^p Y^q] = sum_j a_j c^j`` for standard
    normal (X, Y) with correlation c (Isserlis' pairing expansion).

    ``a_j = p! q! / (j! ((p-j)/2)! ((q-j)/2)! 2^((p+q-2j)/2))`` when ``p - j``
    and ``q - j`` are both even and nonnegative, else 0.
    """
    coeffs = np.zeros(min(p, q) + 1)
    for j in range(min(p, q) + 1):
        if (p - j) % 2 or (q - j) % 2:
            continue
        coeffs[j] = (
            math.factorial(p) * math.factorial(q)
            / (math.factorial(j)
               * math.factorial((p - j) // 2)
               * math.factorial((q - j) // 2)
               * 2.0 ** ((p + q - 2 * j) / 2))
        )
    return coeffs


# The plug-in interval of the integrated variance asks for the same p = 2
# coefficient once per replicate, so the pairing branch is memoised.


@functools.lru_cache(maxsize=64)
def _pairing_series(p1: int, p2: int, alpha: float, r_max: int):
    """Series coefficient of ``z^p1`` against ``z^p2`` for even p1, p2."""
    coeffs = pair_moment_coeffs(p1, p2)
    gam = np.atleast_1d(gamma_r(alpha, np.arange(1, r_max + 1)))
    # rho(c) = sum_{j>=1} a_j c^j (the j = 0 term is the product of means)
    powers = np.vstack([gam ** j for j in range(len(coeffs))])
    rho_r = coeffs[1:] @ powers[1:]
    rho0 = float(np.polynomial.polynomial.polyval(1.0, coeffs) - coeffs[0])
    total = rho0 + 2.0 * float(np.sum(rho_r))
    gam_last = abs(float(gamma_r(alpha, r_max)))
    # |rho(c)| <= (|a_2| + |a_3||c| + ...) c^2; a_1 = 0 for even pairs
    bound_sq = sum(abs(coeffs[j]) * gam_last ** (j - 2)
                   for j in range(2, len(coeffs)))
    return total, 2.0 * bound_sq * gamma_sq_tail_bound(alpha, r_max)


def _abs_power_series(p: float, q: float, alpha: float, r_max: int):
    """Series coefficient of ``|z|^p`` against ``|z|^q`` (Nabeya closed form).

    Lag r correlates the two increments by ``Gamma_r``.  Beyond ``r_max``
    every correlation is at most ``|Gamma_r_max|``, and
    ``|rho(c)| <= c^2 sum_j |a_j| c^(2j-2)``, so the tail is bounded through
    ``gamma_sq_tail_bound``.
    """
    gam = np.atleast_1d(gamma_r(alpha, np.arange(r_max + 1)))
    lag_sum = float(np.sum(_abs_power_rho(p, q, gam[1:])))
    total = _abs_power_rho(p, q, gam[0]) + (lag_sum + lag_sum)
    bound_sq = float(_nabeya_series(p, q, gam[r_max] ** 2, absolute=True))
    return total, 2.0 * bound_sq * gamma_sq_tail_bound(alpha, r_max)
