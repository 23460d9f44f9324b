"""Gaussian limit objects for variation functionals.

A variation functional is driven by an evaluation function ``f`` mapping a
K x L window of normalised increments (K spatial points, L consecutive lags)
to M outputs, each output depending on a single spatial row.  This module
builds the Gaussian structures that govern its limits:

* within-window covariance ``Cov(Z_{k l1}, Z_{k l2}) = Gamma_{|l1-l2|} w_k``,
* joint covariance of two windows ``r`` steps apart, with cross terms
  ``Gamma_{|l1-l2+r|} w_k``,
* the mean map ``mu_f(w) = E[f(Z)]`` (law-of-large-numbers limit density),
* lagged covariances ``rho(r; w) = Cov(f_m1(Z^(1)), f_m2(Z^(2)))``,
* the conditional variance process ``C(t)`` of the central limit theorem,
  a series over all lags of the ``rho``'s integrated against the conditional
  variance path.

Closed forms are used wherever the components are polynomial (pairing
expansion) or absolute powers ``|z|^p`` at any real p (Nabeya's absolute
moments of a correlated normal pair, ``E|X|^p |Y|^q = m_p m_q
2F1(-p/2, -q/2; 1/2; c^2)``).  Only the rest -- ``Custom`` components and
non-polynomial multi-lag ones such as ``AbsMultipower((1, 1))`` -- falls back
to an antithetic common-random-number Monte Carlo backend whose draws are a
deterministic function of a master seed and the operation's arguments.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import abs_moment, gamma_abs_tail_bound, gamma_r, gamma_sq_tail_bound
from .wick import monomial_moment, pair_moment_coeffs

DEFAULT_MC_SEED = 202_406_181


class InvalidShift(RuntimeError):
    """Joint two-window covariance failed to factor; indicates a bug upstream."""


# ---------------------------------------------------------------------------
# evaluation functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AbsPower:
    """|z_{k,l}|^p -- absolute power of a single normalised increment."""

    p: float
    k: int = 0
    l: int = 0

    def __post_init__(self):
        if self.p <= 0:
            raise ValueError("power must be positive")

    even = True
    homogeneous = True

    @property
    def degree(self) -> float:
        return self.p

    def monomial(self, n_lags):
        if self.p == int(self.p) and int(self.p) % 2 == 0:
            exps = [0] * n_lags
            exps[self.l] = int(self.p)
            return tuple(exps)
        return None

    def evaluate(self, window):
        return np.abs(window[..., self.k, self.l]) ** self.p


@dataclass(frozen=True)
class SignedMonomial:
    """prod_l z_{k,l}^{p_l} with integer exponents, over one spatial row."""

    exponents: tuple
    k: int = 0

    def __post_init__(self):
        exps = tuple(int(e) for e in self.exponents)
        if any(e < 0 for e in exps) or exps != tuple(self.exponents):
            raise ValueError("exponents must be nonnegative integers")
        object.__setattr__(self, "exponents", exps)

    homogeneous = True

    @property
    def even(self) -> bool:
        return sum(self.exponents) % 2 == 0

    @property
    def degree(self) -> float:
        return float(sum(self.exponents))

    def monomial(self, n_lags):
        exps = list(self.exponents) + [0] * (n_lags - len(self.exponents))
        return tuple(exps)

    def evaluate(self, window):
        out = np.ones(window.shape[:-2])
        for l, e in enumerate(self.exponents):
            if e:
                out = out * window[..., self.k, l] ** e
        return out


@dataclass(frozen=True)
class AbsMultipower:
    """prod_l |z_{k,l}|^{p_l} with real exponents >= 0, over one spatial row."""

    exponents: tuple
    k: int = 0

    def __post_init__(self):
        if any(e < 0 for e in self.exponents):
            raise ValueError("exponents must be nonnegative")
        object.__setattr__(self, "exponents", tuple(float(e) for e in self.exponents))

    even = True
    homogeneous = True

    @property
    def degree(self) -> float:
        return float(sum(self.exponents))

    def monomial(self, n_lags):
        if all(e == int(e) and int(e) % 2 == 0 for e in self.exponents):
            exps = [int(e) for e in self.exponents] + [0] * (n_lags - len(self.exponents))
            return tuple(exps)
        return None

    def evaluate(self, window):
        out = np.ones(window.shape[:-2])
        for l, e in enumerate(self.exponents):
            if e:
                out = out * np.abs(window[..., self.k, l]) ** e
        return out


@dataclass(frozen=True)
class Custom:
    """User-supplied component; ``fn`` maps (..., K, L) windows to (...,).

    ``even`` and ``degree`` (polynomial growth bound) are declared, not
    derived.  Set ``homogeneous`` only if ``fn(c z) == c^degree fn(z)``.
    """

    fn: object
    k: int = 0
    even: bool = False
    degree: float = 2.0
    homogeneous: bool = False

    def monomial(self, n_lags):
        return None

    def evaluate(self, window):
        return np.asarray(self.fn(window))


class EvaluationFunction:
    """f: R^{K x L} -> R^M built from single-row components."""

    def __init__(self, components, n_points: int = 1, n_lags: int = 1):
        self.components = list(components)
        self.n_points = int(n_points)
        self.n_lags = int(n_lags)
        if self.n_points < 1 or self.n_lags < 1:
            raise ValueError("need at least one point and one lag")
        for c in self.components:
            if not (0 <= c.k < self.n_points):
                raise ValueError(f"component row {c.k} outside 0..{self.n_points - 1}")
            lags = getattr(c, "exponents", None)
            if lags is not None and len(lags) > self.n_lags:
                raise ValueError("component uses more lags than the function declares")
            if isinstance(c, AbsPower) and not (0 <= c.l < self.n_lags):
                raise ValueError(f"component lag {c.l} outside 0..{self.n_lags - 1}")
        if not self.components:
            raise ValueError("need at least one component")

    @classmethod
    def abs_power(cls, p: float, n_points: int = 1) -> "EvaluationFunction":
        """``|z|^p`` of the first point's increment, on one-lag windows."""
        return cls([AbsPower(p)], n_points=n_points)

    @property
    def n_outputs(self) -> int:
        return len(self.components)

    @property
    def is_even(self) -> bool:
        return all(c.even for c in self.components)

    def check_even(self, rng=None, n_probes: int = 128, tol: float = 1e-9) -> bool:
        """Spot-check f(z) == f(-z) on random windows; exact for built-ins."""
        rng = np.random.default_rng(0) if rng is None else rng
        z = rng.standard_normal((n_probes, self.n_points, self.n_lags))
        return bool(np.allclose(self.evaluate(z), self.evaluate(-z),
                                rtol=tol, atol=tol))

    def evaluate(self, windows) -> np.ndarray:
        """Apply every component; windows (..., K, L) -> values (..., M)."""
        windows = np.asarray(windows, dtype=float)
        if windows.shape[-2:] != (self.n_points, self.n_lags):
            raise ValueError(
                f"window shape {windows.shape[-2:]} != (K, L) = "
                f"({self.n_points}, {self.n_lags})"
            )
        cols = [np.asarray(c.evaluate(windows), dtype=float) for c in self.components]
        return np.stack(cols, axis=-1)

    def _row_monomial(self, m: int):
        """Exponent tuple over the lags of row k(m), or None if not polynomial."""
        return self.components[m].monomial(self.n_lags)


# ---------------------------------------------------------------------------
# covariance blocks
# ---------------------------------------------------------------------------


def _row_blocks(alpha: float, n_lags: int, r: int = 0):
    """One row's window covariance blocks at unit variance, ``(within, cross)``.

    ``within[l1, l2] = Gamma_|l1 - l2|`` and, for two windows r steps apart,
    ``cross[l1, l2] = Gamma_|r + l1 - l2|`` (``cross`` is ``within`` at
    r = 0).  Each block is Toeplitz in the 2L - 1 offsets ``l1 - l2``, and
    only those lags are evaluated.
    """
    span = np.arange(1 - n_lags, n_lags)
    offsets = np.arange(n_lags)[:, None] - np.arange(n_lags)[None, :] + n_lags - 1
    within = gamma_r(alpha, np.abs(span))[offsets]
    cross = within if r == 0 else gamma_r(alpha, np.abs(r + span))[offsets]
    return within, cross


def _check_w(w, n_points) -> np.ndarray:
    w = np.atleast_1d(np.asarray(w, dtype=float))
    if w.shape != (n_points,):
        raise ValueError(f"w must have length K = {n_points}")
    if np.any(w < 0):
        raise ValueError("conditional variances w must be nonnegative")
    return w


def build_within_cov(f: EvaluationFunction, w, alpha: float) -> np.ndarray:
    """KL x KL covariance of one window: block diagonal over spatial points.

    Flattening convention: index (k, l) -> k * L + l.
    """
    w = _check_w(w, f.n_points)
    within, _ = _row_blocks(alpha, f.n_lags)
    return np.kron(np.diag(w), within)


def build_joint_cov(f: EvaluationFunction, w, r: int, alpha: float) -> np.ndarray:
    """2KL x 2KL joint covariance of two windows separated by r >= 1 steps.

    The second window occupies indices KL..2KL-1.
    """
    if r < 1:
        raise ValueError("shift r must be >= 1; use build_within_cov for r = 0")
    w = _check_w(w, f.n_points)
    within, cross = _row_blocks(alpha, f.n_lags, r)
    a = np.kron(np.diag(w), within)
    b = np.kron(np.diag(w), cross)
    return np.block([[a, b], [b.T, a]])


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
    ``r_max_series`` caps the number of lag terms evaluated by MC inside
    ``limit_covariance``.  It applies only to what has no closed form
    (``Custom`` and multi-lag non-polynomial components): polynomial
    components and absolute powers ``|z|^p`` at any real p sum their lag
    series exactly up to ``r_max``.
    """

    n_pairs: int = 200_000
    seed: int = DEFAULT_MC_SEED
    r_max_series: int = 128


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


def _mu_component_closed(comp, f, w, alpha):
    """Closed-form E[component(Z)] or None."""
    wk = w[comp.k]
    if isinstance(comp, AbsPower):
        return abs_moment(comp.p) * wk ** (comp.p / 2.0)
    mono = comp.monomial(f.n_lags)
    if mono is not None:
        if sum(mono) % 2 == 1:
            return 0.0
        if sum(mono) == 0:
            return 1.0
        if wk == 0.0:
            return 0.0
        used = [l for l, e in enumerate(mono) if e]
        if len(used) == 1:
            e = mono[used[0]]
            return abs_moment(e) * wk ** (e / 2.0)  # E[Z^e] = (e-1)!! for even e
        if alpha is None:
            return None
        return monomial_moment(_row_blocks(alpha, f.n_lags)[0] * wk, mono)
    # single-lag absolute multipower reduces to an absolute moment
    if isinstance(comp, AbsMultipower):
        nz = [e for e in comp.exponents if e]
        if len(nz) == 0:
            return 1.0
        if len(nz) == 1:
            return abs_moment(nz[0]) * wk ** (nz[0] / 2.0)
    return None


def mu_f(f: EvaluationFunction, w, alpha: float | None = None,
         method: str = "auto", mc: MonteCarlo | None = None,
         return_se: bool = False):
    """LLN limit density ``mu_f(w) = E[f(Z)]`` as a length-M vector.

    ``alpha`` is only needed when a polynomial component couples several lags
    (the within-window correlation then matters).  ``method`` is "auto"
    (closed form when available, else MC) or "mc".  With ``return_se`` the
    Monte Carlo standard errors are returned alongside (zero for closed-form
    entries).
    """
    _check_method(method)
    mc = mc or MonteCarlo()
    w = _check_w(w, f.n_points)
    values = np.zeros(f.n_outputs)
    ses = np.zeros(f.n_outputs)
    mc_idx = []
    for m, comp in enumerate(f.components):
        closed = None if method == "mc" else _mu_component_closed(comp, f, w, alpha)
        if closed is not None:
            values[m] = closed
        else:
            mc_idx.append(m)
    if mc_idx:
        if alpha is None and f.n_lags > 1:
            raise ValueError("alpha is required for MC over multi-lag windows")
        chol = _safe_cholesky(build_within_cov(f, w, alpha if alpha is not None else 1.0))
        tag = f"mu:{f.n_points}x{f.n_lags}:{mc.n_pairs}"
        base = _mc_base_draws(mc, tag, f.n_points * f.n_lags)
        z = (base @ chol.T).reshape(mc.n_pairs, f.n_points, f.n_lags)
        for m in mc_idx:
            comp = f.components[m]
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


def _abs_power_lag(comp):
    """(p, l) when the component is ``|z_l|^p`` for a single lag l, else None."""
    if isinstance(comp, AbsPower):
        return comp.p, comp.l
    if isinstance(comp, AbsMultipower):
        used = [(e, l) for l, e in enumerate(comp.exponents) if e]
        if len(used) == 1:
            return used[0]
    return None


def _rho_closed(f, m1, m2, r, w, alpha):
    """Exact Cov(f_m1(Z1), f_m2(Z2)) for polynomial components and for
    absolute powers, else None."""
    c1 = f.components[m1]
    mono1, mono2 = f._row_monomial(m1), f._row_monomial(m2)
    polynomial = mono1 is not None and mono2 is not None
    pl1, pl2 = _abs_power_lag(c1), _abs_power_lag(f.components[m2])
    if not polynomial and (pl1 is None or pl2 is None):
        return None
    wk = w[c1.k]
    if wk == 0.0:
        return 0.0
    if not polynomial:
        (p, l1), (q, l2) = pl1, pl2
        c = float(gamma_r(alpha, abs(r + l1 - l2)))
        return wk ** ((p + q) / 2.0) * _abs_power_rho(p, q, c)
    within, cross = _row_blocks(alpha, f.n_lags, r)
    within, cross = within * wk, cross * wk
    if r == 0:
        merged = tuple(a + b for a, b in zip(mono1, mono2))
        joint = monomial_moment(within, merged)
    else:
        cov = np.block([[within, cross], [cross.T, within]])
        joint = monomial_moment(cov, tuple(mono1) + tuple(mono2))
    return joint - monomial_moment(within, mono1) * monomial_moment(within, mono2)


def _rho_mc_draws(f: EvaluationFunction, mc: MonteCarlo) -> np.ndarray:
    """Base draws of the rho backend, padded to the joint-window dimension.

    The tag excludes r and w: common random numbers across lag and variance
    sweeps.
    """
    tag = f"rho:{f.n_points}x{f.n_lags}:{mc.n_pairs}"
    return _mc_base_draws(mc, tag, 2 * f.n_points * f.n_lags)


def _rho_mc_products(f, m1, m2, r, w, alpha, base) -> np.ndarray:
    """Per-draw centred products; their sum over ``n - 1`` estimates rho(r)."""
    if r == 0:
        chol = _safe_cholesky(build_within_cov(f, w, alpha))
    else:
        chol = _safe_cholesky(build_joint_cov(f, w, r, alpha), joint=True)
    kl = f.n_points * f.n_lags
    if r == 0:
        z = base[:, :kl] @ chol.T
        z1 = z.reshape(-1, f.n_points, f.n_lags)
        z2 = z1
    else:
        z = base @ chol.T
        z1 = z[:, :kl].reshape(-1, f.n_points, f.n_lags)
        z2 = z[:, kl:].reshape(-1, f.n_points, f.n_lags)
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
    ``r = 0`` is the single-window covariance.  Exact for polynomial
    components (pairing expansion) and for absolute powers ``|z|^p`` at any
    real p (Nabeya's closed form); antithetic CRN Monte Carlo covers only
    the rest (``Custom`` and multi-lag non-polynomial components).
    ``method`` is "auto" or "mc" (Monte Carlo even where a closed form
    exists).
    """
    _check_method(method)
    mc = mc or MonteCarlo()
    w = _check_w(w, f.n_points)
    if r < 0 or r != int(r):
        raise ValueError("lag r must be a nonnegative integer")
    r = int(r)
    if f.components[m1].k != f.components[m2].k:
        return (0.0, 0.0) if return_se else 0.0

    if method == "auto":
        closed = _rho_closed(f, m1, m2, r, w, alpha)
        if closed is not None:
            return (closed, 0.0) if return_se else closed

    prod = _rho_mc_products(f, m1, m2, r, w, alpha, _rho_mc_draws(f, mc))
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
    on their truncation error and ``mc_se`` carries Monte Carlo standard
    errors where the backend was stochastic.
    """

    t_grid: np.ndarray
    v_path: np.ndarray
    c_path: np.ndarray
    r_max: int
    series: np.ndarray
    tail_bound: np.ndarray
    mc_se: np.ndarray
    diagnostics: dict = field(default_factory=dict)

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
    ``variation_functional`` takes over its windows, so a limit and the
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


def limit_lln(f: EvaluationFunction, s_grid, w_path, t_grid,
              alpha: float | None = None, mc: MonteCarlo | None = None) -> np.ndarray:
    """LLN limit path ``V_f(t) = int_0^t mu_f(w(s)) ds``; shape (..., len(t_grid), M).

    ``w_path`` holds the conditional variances on the uniform ``s_grid``,
    shape ``(len(s_grid), K)`` or a replicate stack ``(..., len(s_grid), K)``;
    integration is by left Riemann sums (see ``_left_riemann_profile``).
    Homogeneous components integrate ``w^(degree/2)`` against a single base
    constant; non-homogeneous customs are evaluated pointwise (slow).
    """
    w = _w_path_array(w_path, f.n_points, np.size(s_grid))
    cols = []
    for m, comp in enumerate(f.components):
        if getattr(comp, "homogeneous", False):
            unit = np.zeros(f.n_points)
            unit[comp.k] = 1.0
            base = mu_f(f, unit, alpha=alpha, mc=mc)[m]
            dens = base * w[..., comp.k] ** (comp.degree / 2.0)
        else:
            dens = np.array([mu_f(f, wi, alpha=alpha, mc=mc)[m]
                             for wi in w.reshape(-1, f.n_points)]).reshape(w.shape[:-1])
        cols.append(_left_riemann_profile(s_grid, dens, t_grid))
    return np.stack(cols, axis=-1)


def limit_covariance(f: EvaluationFunction, s_grid, w_path, t_grid, alpha: float,
                     r_max: int = 10_000, mc: MonteCarlo | None = None) -> LimitLaw:
    """Conditional CLT covariance ``C(t)`` and LLN path on ``t_grid``.

    ``C_{m1 m2}(t) = int_0^t rho(0; w(s)) ds + sum_{r>=1} int_0^t
    [rho_{m1 m2}(r; w(s)) + rho_{m2 m1}(r; w(s))] ds``, truncated at
    ``r_max``.  All built-in components are homogeneous, so each series
    coefficient is computed once at unit variance and the time dependence
    enters through ``int w^q ds``.  Requires every component pair to be
    homogeneous (Custom components must declare homogeneity).  ``w_path``
    may be a replicate stack, as in :func:`limit_lln`; the coefficients are
    computed once for the whole stack.
    """
    mc = mc or MonteCarlo()
    w = _w_path_array(w_path, f.n_points, np.size(s_grid))
    t_grid = np.asarray(t_grid, dtype=float)
    m_dim = f.n_outputs
    if not all(getattr(c, "homogeneous", False) for c in f.components):
        raise ValueError("limit_covariance requires homogeneous components")

    series = np.zeros((m_dim, m_dim))
    tail = np.zeros((m_dim, m_dim))
    mc_se = np.zeros((m_dim, m_dim))
    r_used = np.full((m_dim, m_dim), r_max, dtype=int)

    for m1 in range(m_dim):
        for m2 in range(m1, m_dim):
            c1, c2 = f.components[m1], f.components[m2]
            if c1.k != c2.k:
                continue
            unit = np.zeros(f.n_points)
            unit[c1.k] = 1.0
            s_val, s_tail, s_se, s_r = _series_coefficient(
                f, m1, m2, unit, alpha, r_max, mc)
            series[m1, m2] = series[m2, m1] = s_val
            tail[m1, m2] = tail[m2, m1] = s_tail
            mc_se[m1, m2] = mc_se[m2, m1] = s_se
            r_used[m1, m2] = r_used[m2, m1] = s_r

    # time profiles int_0^t w_k(s)^q ds for every needed (k, q)
    degrees = [c.degree for c in f.components]
    c_path = np.zeros(w.shape[:-2] + (len(t_grid), m_dim, m_dim))
    prof_cache = {}
    for m1 in range(m_dim):
        for m2 in range(m_dim):
            c1, c2 = f.components[m1], f.components[m2]
            if c1.k != c2.k or series[m1, m2] == 0.0:
                continue
            q = (degrees[m1] + degrees[m2]) / 2.0
            key = (c1.k, q)
            if key not in prof_cache:
                prof_cache[key] = _left_riemann_profile(s_grid, w[..., c1.k] ** q, t_grid)
            c_path[..., m1, m2] = series[m1, m2] * prof_cache[key]

    v_path = limit_lln(f, s_grid, w, t_grid, alpha=alpha, mc=mc)
    return LimitLaw(
        t_grid=t_grid, v_path=v_path, c_path=c_path, r_max=int(np.max(r_used)),
        series=series, tail_bound=tail, mc_se=mc_se, diagnostics={"r_used": r_used},
    )


def _series_coefficient(f, m1, m2, unit_w, alpha, r_max, mc):
    """rho(0) + sum_{r=1}^{r_max} [rho12(r) + rho21(r)] at unit variance.

    Returns (value, tail bound, MC standard error, lags used).
    """
    mono1, mono2 = f._row_monomial(m1), f._row_monomial(m2)
    polynomial = mono1 is not None and mono2 is not None

    if polynomial and f.n_lags == 1:
        return _pairing_series(sum(mono1), sum(mono2), alpha, r_max)

    # single-lag absolute powers take the closed form on any window length;
    # signed multi-lag monomials fall through to the lag loop
    pl1, pl2 = _abs_power_lag(f.components[m1]), _abs_power_lag(f.components[m2])
    if pl1 is not None and pl2 is not None:
        return _abs_power_series(*pl1, *pl2, alpha, r_max)

    if polynomial:
        total = rho(f, m1, m2, 0, unit_w, alpha)
        last_ratio = 0.0
        for r in range(1, r_max + 1):
            v12 = rho(f, m1, m2, r, unit_w, alpha)
            v21 = v12 if m1 == m2 else rho(f, m2, m1, r, unit_w, alpha)
            total += v12 + v21
            g2 = float(gamma_r(alpha, r)) ** 2
            if g2 > 0 and r > r_max - 16:
                last_ratio = max(last_ratio, abs(v12 + v21) / g2)
        return total, last_ratio * gamma_sq_tail_bound(alpha, r_max), 0.0, r_max

    # Monte Carlo pair: truncate the lag series early.  The lag sum is formed
    # draw by draw, so its standard error includes the correlation that the
    # common random numbers induce between lags.
    r_stop = min(r_max, mc.r_max_series)
    base = _rho_mc_draws(f, mc)
    n = base.shape[0]
    acc = _rho_mc_products(f, m1, m2, 0, unit_w, alpha, base)
    ratio = 0.0
    for r in range(1, r_stop + 1):
        prod = _rho_mc_products(f, m1, m2, r, unit_w, alpha, base)
        if m1 == m2:
            prod = 2.0 * prod
        else:
            prod = prod + _rho_mc_products(f, m2, m1, r, unit_w, alpha, base)
        acc += prod
        g2 = float(gamma_r(alpha, r)) ** 2
        if g2 > 0 and r > r_stop - 16:
            ratio = max(ratio, abs(float(np.sum(prod)) / (n - 1)) / g2)
    total = float(np.sum(acc) / (n - 1))
    se = float(np.std(acc, ddof=1) / math.sqrt(n))
    return total, ratio * gamma_sq_tail_bound(alpha, r_stop), se, r_stop


# The plug-in interval of the integrated variance asks for the same p = 2
# coefficient once per replicate, so the pairing branch is memoised.


@functools.lru_cache(maxsize=64)
def _pairing_series(p1: int, p2: int, alpha: float, r_max: int):
    """Series coefficient of single-lag monomials of degrees p1, p2."""
    coeffs = pair_moment_coeffs(p1, p2)
    gam = np.atleast_1d(gamma_r(alpha, np.arange(1, r_max + 1)))
    # rho(c) = sum_{j>=1} a_j c^j (the j = 0 term is the product of means)
    powers = np.vstack([gam ** j for j in range(len(coeffs))])
    rho_r = coeffs[1:] @ powers[1:]
    rho0 = float(np.polynomial.polynomial.polyval(1.0, coeffs) - coeffs[0])
    total = rho0 + 2.0 * float(np.sum(rho_r))
    gam_last = abs(float(gamma_r(alpha, r_max)))
    # |rho(c)| <= |a_1||c| + (|a_2| + |a_3||c| + ...) c^2; a_1 = 0 for even pairs
    bound_sq = sum(abs(coeffs[j]) * gam_last ** (j - 2)
                   for j in range(2, len(coeffs)))
    tail_val = 2.0 * bound_sq * gamma_sq_tail_bound(alpha, r_max)
    if len(coeffs) > 1 and coeffs[1]:
        tail_val += 2.0 * abs(coeffs[1]) * gamma_abs_tail_bound(alpha, r_max)
    return total, tail_val, 0.0, r_max


def _abs_power_series(p: float, l1: int, q: float, l2: int, alpha: float, r_max: int):
    """Series coefficient of ``|z_l1|^p`` against ``|z_l2|^q`` (Nabeya closed form).

    Window shift r correlates the two increments by ``Gamma_|r + l1 - l2|``
    (and ``Gamma_|r + l2 - l1|`` for the swapped pair).  Beyond ``r_max``
    every correlation is at most ``|Gamma_(r_max - d)|`` with
    ``d = |l1 - l2|``, and ``|rho(c)| <= c^2 sum_j |a_j| c^(2j-2)``, so the
    tail is bounded through ``gamma_sq_tail_bound``.
    """
    d = abs(l1 - l2)
    gam = np.atleast_1d(gamma_r(alpha, np.arange(r_max + d + 1)))
    r = np.arange(1, r_max + 1)
    rho_minus = _abs_power_rho(p, q, gam[np.abs(r - d)])
    rho_plus = rho_minus if d == 0 else _abs_power_rho(p, q, gam[r + d])
    total = _abs_power_rho(p, q, gam[d]) + float(np.sum(rho_minus) + np.sum(rho_plus))
    r_tail = r_max - d
    bound_sq = float(_nabeya_series(p, q, gam[r_tail] ** 2, absolute=True))
    return total, 2.0 * bound_sq * gamma_sq_tail_bound(alpha, r_tail), 0.0, r_max
