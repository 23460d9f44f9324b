"""Increment panels and normalised variation functionals.

Given observations ``u(i delta_n, x_k)`` on a regular time grid, this module
forms the panel of normalised increments ``(u(i delta) - u((i-1) delta)) / tau_n``
and the cumulative variation functionals

    ``V^n_f(t)_m = delta_n * sum_{i=1}^{t(n)} f_m(window_i)``

where a window stacks L consecutive increments at K spatial points and
``t(n) = floor(t / delta_n) - L + 1``.  Panels and functionals also take a
replicate stack: a leading axis of independent paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .gaussian_limits import EvaluationFunction
from .kernels import NoiseParams, tau_n


@dataclass(frozen=True)
class SamplingDesign:
    """Observation scheme: step, horizon, spatial points, lags, scheme knobs.

    ``delta_n`` and ``horizon`` fix the time grid ``i * delta_n`` for
    ``i = 0..floor(T/delta_n)``; ``points`` are the observed spatial
    locations on the unit torus; ``n_lags`` is the window length L of the
    variation functional.  ``spatial_modes`` and ``oversampling`` control the
    spectral simulation scheme (constant sigma ignores ``oversampling``: it
    takes one exact step per observation); ``burn_in`` (observation steps
    discarded before statistics) defaults to
    ``max(64, ceil(delta_n^(-1/(2+alpha))))`` when left as None.
    """

    delta_n: float
    horizon: float
    points: tuple = (0.0,)
    n_lags: int = 1
    spatial_modes: int = 2 ** 14
    oversampling: int = 16
    burn_in: int | None = None

    def __post_init__(self):
        if self.delta_n <= 0:
            raise ValueError("delta_n must be positive")
        if self.horizon < self.delta_n * (self.n_lags + 1):
            raise ValueError("horizon too short for the requested lag count")
        if self.n_lags < 1:
            raise ValueError("need at least one lag")
        pts = tuple(float(x) for x in self.points)
        if len(set(pts)) != len(pts) or not pts:
            raise ValueError("observation points must be distinct and nonempty")
        object.__setattr__(self, "points", pts)
        if self.spatial_modes & (self.spatial_modes - 1):
            raise ValueError("spatial_modes must be a power of two")
        if self.oversampling < 1:
            raise ValueError("oversampling must be >= 1")

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def n_steps(self) -> int:
        """Number of observation increments, floor(T / delta_n)."""
        return int(np.floor(self.horizon / self.delta_n + 1e-9))

    def times(self) -> np.ndarray:
        return self.delta_n * np.arange(self.n_steps + 1)

    def default_burn_in(self, alpha: float) -> int:
        if self.burn_in is not None:
            return int(self.burn_in)
        return max(64, int(np.ceil(self.delta_n ** (-1.0 / (2.0 + alpha)))))


@dataclass(frozen=True)
class IncrementPanel:
    """Normalised increments, row i = time step, column k = spatial point.

    ``values`` is one panel (n, K) (a 1-d array is K = 1) or a replicate
    stack (R, n, K).
    """

    values: np.ndarray
    delta_n: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        object.__setattr__(self, "values", v)
        if not np.all(np.isfinite(v)):
            raise ValueError("increment panel contains non-finite values")

    @property
    def n_steps(self) -> int:
        return self.values.shape[-2]

    @property
    def n_points(self) -> int:
        return self.values.shape[-1]

    def windows(self, n_lags: int) -> np.ndarray:
        """Sliding windows of L consecutive increments, shape (..., n_win, K, L)."""
        if n_lags > self.n_steps:
            raise ValueError("panel too short for the requested lag count")
        # window i holds increments i..i+L-1 for every spatial point; the
        # window axis is appended last, giving (..., n_win, K, L) directly
        return sliding_window_view(self.values, n_lags, axis=-2)


def extract_increments(values, design: SamplingDesign, alpha: float,
                       tau: float | None = None) -> IncrementPanel:
    """Difference an observed path panel and rescale by the increment norm.

    ``values`` holds ``u(i delta_n, x_k)`` with shape (n_steps + 1, K) (a 1-d
    array is treated as K = 1), or a replicate stack (R, n_steps + 1, K).
    ``tau`` overrides the normalisation, e.g. with a scheme-calibrated value;
    default is ``tau_n`` for ``alpha`` in one space dimension.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim == 1:
        v = v[:, None]
    if v.shape[-2] != design.n_steps + 1:
        raise ValueError(
            f"path has {v.shape[-2]} rows; design expects {design.n_steps + 1}"
        )
    if v.shape[-1] != design.n_points:
        raise ValueError("path column count does not match design points")
    scale = tau_n(NoiseParams(alpha, 1), design.delta_n) if tau is None else float(tau)
    return IncrementPanel(values=np.diff(v, axis=-2) / scale, delta_n=design.delta_n)


def variation_functional(f: EvaluationFunction, incr: IncrementPanel,
                         design: SamplingDesign, t_grid) -> np.ndarray:
    """Cumulative variation functional on ``t_grid``; shape (..., len(t_grid), M).

    The leading axes are those of a replicate stack (none for one panel).
    Entries with ``t(n) < 1`` (grid times too small to fit one window) are 0.
    Each grid time is one pairwise ``np.sum`` over its windows, so the cost
    is O(n_win * len(t_grid)); callers pass a handful of grid times.
    """
    if incr.n_points != f.n_points:
        raise ValueError("increment panel and evaluation function disagree on K")
    if not math.isclose(incr.delta_n, design.delta_n, rel_tol=1e-9):
        raise ValueError("increment panel and design disagree on delta_n")
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if np.any(t_grid > design.horizon + 1e-12):
        raise ValueError("t_grid exceeds the design horizon")
    wins = incr.windows(f.n_lags)
    n_win = wins.shape[-3]
    counts = np.floor(t_grid / incr.delta_n + 1e-9).astype(int) - f.n_lags + 1
    counts = np.clip(counts, 0, n_win)
    out = np.zeros(wins.shape[:-3] + (len(t_grid), f.n_outputs))
    # one component at a time: stacking the M columns would copy the panel
    for m, comp in enumerate(f.components):
        vals = np.asarray(comp.evaluate(wins), dtype=float)  # (..., n_win)
        for g, count in enumerate(counts):
            if count > 0:
                out[..., g, m] = incr.delta_n * np.sum(vals[..., :count], axis=-1)
        del vals  # else two components' values are alive at the peak
    return out


def power_variation(p: float, incr: IncrementPanel, design: SamplingDesign,
                    t_grid) -> np.ndarray:
    """Normalised p-th power variation at the first point; shape (..., len(t_grid))."""
    f = EvaluationFunction.abs_power(p, n_points=incr.n_points)
    return variation_functional(f, incr, design, t_grid)[..., 0]


def clt_statistic(v_n: np.ndarray, v_limit: np.ndarray, delta_n: float) -> np.ndarray:
    """Rescaled fluctuation ``(V^n - V) / sqrt(delta_n)``, elementwise."""
    v_n = np.asarray(v_n, dtype=float)
    v_limit = np.asarray(v_limit, dtype=float)
    if v_n.shape != v_limit.shape:
        raise ValueError("V^n and its centering live on different grids")
    return (v_n - v_limit) / np.sqrt(delta_n)
