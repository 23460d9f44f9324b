"""Sample-path generation.

Two generators live here:

* :func:`simulate_stationary_increments` -- exact sampling of the stationary
  normalised increment sequence of the additive-noise solution at a fixed
  spatial point.  The sequence is centered Gaussian with autocovariance
  ``Gamma_r`` (fractional Gaussian noise with ``2H = 1 - alpha/2``) and is
  produced by circulant embedding, so its law is exact, not approximate.

* :func:`simulate_spde` -- a spectral exponential-Euler scheme for the full
  multiplicative equation on the unit torus in one space dimension.  States
  advance in Fourier space by the exact heat semigroup; the noise increment
  of each micro-step is sampled in Fourier space with mode variances equal
  to the spectral-cell masses of ``|xi|^(alpha-1) dxi``, multiplied by
  ``sigma(u)`` pointwise in physical space, and convolved with the semigroup
  over the micro-step (per-mode damping).  For constant sigma each mode is
  then an exact Ornstein-Uhlenbeck transition, so the scheme takes one step
  per observation and ignores ``oversampling``.

Paths live in one container, :class:`PathPanel`: one path ``(n_times, K)``
or a replicate stack ``(R, n_times, K)``, as :func:`simulate_spde_batch`
returns it, with a single ``drop_burn_in``.

Torus truncation leaves a computable deficit in the increment variance;
:func:`scheme_increment_variance` returns the scheme's own exact stationary
increment variance so experiments can normalise against the simulated system
rather than the continuum constant when the mode count is finite.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np
import scipy.fft as sfft

from .kernels import NoiseParams, gamma_r
from .variations import SamplingDesign


class EmbeddingFailure(RuntimeError):
    """Circulant embedding produced a significantly negative eigenvalue."""


class NumericalBlowup(RuntimeError):
    """Simulated field exceeded the configured cap."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


@dataclass(frozen=True)
class RngStream:
    """Deterministic random stream: (master seed, replicate index).

    Distinct stream ids give statistically independent streams; the same
    pair reproduces bit-identical draws regardless of how many replicates
    run alongside.
    """

    master_seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.master_seed,
                                    spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.SFC64(ss))


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return RngStream(int(rng)).generator()
    raise TypeError("rng must be an RngStream, Generator or integer seed")


# ---------------------------------------------------------------------------
# coefficient and initial-condition families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SigmaConstant:
    value: float = 1.0
    is_constant = True

    def __call__(self, u):
        return self.value


@dataclass(frozen=True)
class SigmaLinear:
    """sigma(x) = sigma0 * x  (parabolic Anderson coefficient)."""

    sigma0: float = 1.0
    is_constant = False

    def __call__(self, u):
        return self.sigma0 * u


@dataclass(frozen=True)
class SigmaAffinePlus:
    """sigma(x) = a + b * tanh(x): affine plus a bounded smooth part."""

    a: float = 1.0
    b: float = 0.5
    is_constant = False

    def __call__(self, u):
        return self.a + self.b * np.tanh(u)


@dataclass(frozen=True)
class U0Constant:
    value: float = 1.0

    def on_grid(self, n: int) -> np.ndarray:
        return np.full(n, self.value)

    c1 = True


@dataclass(frozen=True)
class U0SmoothPeriodic:
    """u0(x) = c0 + sum_j (a_j cos(2 pi j x) + b_j sin(2 pi j x))."""

    c0: float = 0.0
    cos_coeffs: tuple = ()
    sin_coeffs: tuple = ()

    def on_grid(self, n: int) -> np.ndarray:
        x = np.arange(n) / n
        out = np.full(n, float(self.c0))
        for j, a in enumerate(self.cos_coeffs, start=1):
            out += a * np.cos(2.0 * math.pi * j * x)
        for j, b in enumerate(self.sin_coeffs, start=1):
            out += b * np.sin(2.0 * math.pi * j * x)
        return out

    c1 = True


@dataclass(frozen=True)
class ModelSpec:
    """Equation data: noise parameters, coefficient family, initial condition."""

    noise: NoiseParams
    sigma: object = SigmaConstant(1.0)
    u0: object = U0Constant(1.0)

    def validate(self) -> None:
        """Raise ValueError unless the CLT covers this model."""
        if not self.noise.clt_in_scope:
            raise ValueError(
                "the central limit theorem holds for alpha in (0, 1); "
                "alpha = 1 (space-time white noise) is excluded")
        if not getattr(self.u0, "c1", False):
            raise ValueError("CLT experiments need a C^1 initial condition")


# ---------------------------------------------------------------------------
# exact stationary increments (circulant embedding)
# ---------------------------------------------------------------------------


# negative circulant eigenvalues down to this fraction of max(1, largest) are
# rounding error and are clipped to zero; larger ones fail the embedding
_EMBEDDING_TOL = 1e-10


@lru_cache(maxsize=16)
def circulant_embedding(alpha: float, n_steps: int, pad_factor: int = 1):
    """Eigenvalues of the circulant extension of the Gamma Toeplitz matrix.

    Returns ``(lam, m)`` with ``lam`` the (real) eigenvalue half-spectrum of
    the length-m circulant whose first row embeds ``Gamma_0..Gamma_{m/2}``;
    ``m`` is the padded length (power of two >= 2 * n_steps).  Raises
    :class:`EmbeddingFailure` when an eigenvalue is more negative than
    ``-1e-10 * max(1, largest)``; tiny negatives are clipped to zero.

    Results are cached, since a run draws its replicates in blocks that
    share one embedding; ``lam`` is therefore read-only.
    """
    if n_steps < 1:
        raise ValueError("need at least one step")
    m = 1 << max(1, int(math.ceil(math.log2(2 * n_steps))))
    m *= max(1, int(pad_factor))
    g = np.atleast_1d(gamma_r(alpha, np.arange(m // 2 + 1)))
    row = np.concatenate([g, g[-2:0:-1]])
    lam = np.fft.rfft(row).real
    if lam.min() < -_EMBEDDING_TOL * max(1.0, lam.max()):
        raise EmbeddingFailure(
            f"negative circulant eigenvalue {lam.min():.3e} at m={m}"
        )
    lam = np.clip(lam, 0.0, None)
    lam.flags.writeable = False
    return lam, m


def embedding_autocovariance(alpha: float, n_steps: int) -> np.ndarray:
    """Autocovariance realised by the embedding, reconstructed from its
    eigenvalues; exact-sampler fidelity means this equals ``Gamma_r``."""
    lam, m = circulant_embedding(alpha, n_steps)
    row = np.fft.irfft(lam, n=m)
    return row[: n_steps + 1]


def _draw_increments(scale: np.ndarray, m: int, gen: np.random.Generator,
                     n_steps: int) -> np.ndarray:
    """One exact draw; ``scale`` is ``sqrt(lam / m)`` of the embedding."""
    mh = m // 2
    # xi then eta from one call: the same stream order as two draws
    xi, eta = np.split(gen.standard_normal(2 * (mh + 1)), 2)
    half = np.empty(mh + 1, dtype=complex)
    np.multiply(scale, xi, out=half.real)
    np.multiply(scale, eta, out=half.imag)
    half *= 1.0 / math.sqrt(2.0)
    half[0] = scale[0] * xi[0]
    half[mh] = scale[mh] * xi[mh]
    # the unscaled inverse is m * irfft to the bit, since m is a power of two
    return sfft.irfft(half, n=m, norm="forward")[:n_steps]


def simulate_stationary_increments(alpha: float, n_steps: int, rng) -> np.ndarray:
    """Exact sample of the normalised increment sequence (unit variance,
    autocovariance ``Gamma_r``) of length ``n_steps``.

    It is row 0 of :func:`simulate_stationary_increments_batch` on ``[rng]``.
    """
    return simulate_stationary_increments_batch(alpha, n_steps, [rng])[0]


def simulate_stationary_increments_batch(alpha: float, n_steps: int,
                                         streams) -> np.ndarray:
    """Stack of exact increment sequences, one independent stream per row.

    Falls back once to doubled padding if the embedding has a negative
    eigenvalue (does not happen for this covariance family in practice).
    """
    try:
        lam, m = circulant_embedding(alpha, n_steps)
    except EmbeddingFailure:
        lam, m = circulant_embedding(alpha, n_steps, pad_factor=2)
    # one array per stream, stacked once.  At the harness's blocks of about
    # 2^19 increments a preallocated output peaks no lower; at a whole
    # (500, 2^14) stack it kept more heap alive over repeated runs
    scale = np.sqrt(lam / m)
    rows = [_draw_increments(scale, m, _as_generator(s), n_steps) for s in streams]
    return np.vstack(rows)


# ---------------------------------------------------------------------------
# spectral quantities of the torus scheme
# ---------------------------------------------------------------------------


def spectral_cell_masses(alpha: float, n_modes: int) -> np.ndarray:
    """Noise variance per Fourier mode on the unit torus, modes 0..N/2.

    Mode k carries the mass of ``|xi|^(alpha-1) dxi`` over the unit cell
    centred at k: ``((k+1/2)^alpha - (k-1/2)^alpha)/alpha`` for k >= 1 and
    ``2 (1/2)^alpha / alpha`` for k = 0, so the integrable singularity at the
    origin is captured exactly.  At alpha = 1 this reduces to the flat
    spectrum of space-time white noise.
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")
    k = np.arange(n_modes // 2 + 1, dtype=float)
    q = np.empty_like(k)
    q[0] = 2.0 * 0.5 ** alpha / alpha
    q[1:] = ((k[1:] + 0.5) ** alpha - (k[1:] - 0.5) ** alpha) / alpha
    return q


def scheme_increment_variance(alpha: float, delta_n: float, n_modes: int,
                              lag: int = 1) -> float:
    """Exact stationary increment variance of the torus scheme over ``lag`` steps.

    For constant sigma the spectral scheme is an exact Ornstein-Uhlenbeck
    transition per mode, so its additive stationary increment variance is
    available in closed form.  As ``n_modes`` grows this converges to
    ``tau_n^2 * lag^(1 - alpha/2)``; at finite resolution it is the correct
    normalisation of the simulated system.
    """
    q = spectral_cell_masses(alpha, n_modes)
    k = np.arange(len(q), dtype=float)
    lam = 2.0 * math.pi ** 2 * k ** 2
    s = lag * delta_n
    v = np.empty_like(q)
    v[0] = q[0] * s
    v[1:] = q[1:] * (1.0 - np.exp(-lam[1:] * s)) / lam[1:]
    weights = np.full(len(q), 2.0)
    weights[0] = 1.0
    weights[-1] = 1.0
    return float(np.dot(weights, v))


def scheme_increment_autocov(alpha: float, delta_n: float, n_modes: int,
                             r: int) -> float:
    """Lag-r autocovariance of consecutive scheme increments (exact, additive).

    Uses the stationary identity ``cov_r = (V_{r+1} - 2 V_r + V_{r-1}) / 2``
    with ``V_j`` the lag-j increment variance.
    """
    if r == 0:
        return scheme_increment_variance(alpha, delta_n, n_modes)
    v = [scheme_increment_variance(alpha, delta_n, n_modes, lag=j) if j > 0 else 0.0
         for j in (r - 1, r, r + 1)]
    return 0.5 * (v[2] - 2.0 * v[1] + v[0])


def _spectral_noise_scale(alpha: float, n_modes: int, delta: float, cplx):
    """Half-spectrum scale for one micro-step noise field increment.

    Interior modes receive ``N sqrt(delta q_k / 2)`` per real component,
    DC and Nyquist ``N sqrt(delta q_k)``; the resulting inverse rFFT field
    has covariance ``delta * sum_k q_k exp(2 pi i k (x - x'))``.
    """
    q = spectral_cell_masses(alpha, n_modes)
    base = n_modes * np.sqrt(delta * q)
    scale = (base / math.sqrt(2.0)).astype(cplx)
    scale[0] = base[0]
    scale[-1] = base[-1]
    return scale


def sample_noise_increments(alpha: float, n_modes: int, delta: float,
                            n_fields: int, rng, dtype=np.float64) -> np.ndarray:
    """Independent spatial noise-increment fields over time steps of ``delta``.

    Returns ``(n_fields, n_modes)`` grid samples of the Gaussian field whose
    spatial covariance is the spectral-cell approximation of the Riesz
    covariance, scaled by ``delta`` (white in time).  For non-constant sigma
    it is exactly the field that :func:`simulate_spde_batch` draws per
    micro-step (``delta = delta_n / oversampling``) and multiplies by
    ``sigma(u)``.  Constant sigma instead takes one Ornstein-Uhlenbeck step
    of ``delta = delta_n`` per observation step, and injects sigma times
    this noise in Fourier space with mode k damped by
    ``sqrt((1 - exp(-2 lambda_k delta)) / (2 lambda_k delta))``.
    """
    gen = _as_generator(rng)
    kk = n_modes // 2
    cplx = np.complex64 if dtype == np.float32 else np.complex128
    scale = _spectral_noise_scale(alpha, n_modes, delta, cplx)
    raw = gen.standard_normal((n_fields, 2 * (kk + 1)), dtype=dtype)
    spec = raw.view(cplx) * scale
    spec[:, 0] = spec[:, 0].real
    spec[:, kk] = spec[:, kk].real
    return sfft.irfft(spec, n=n_modes, axis=-1)


# ---------------------------------------------------------------------------
# path container
# ---------------------------------------------------------------------------


@dataclass
class PathPanel:
    """Observed paths: times, spatial points, values and metadata.

    ``values`` is one path ``(n_times, K)`` or a replicate stack
    ``(R, n_times, K)``; :meth:`panel` gives replicate i of a stack.
    """

    times: np.ndarray
    points: tuple
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim == 1:
            self.values = self.values[:, None]
        if (self.values.ndim not in (2, 3)
                or self.values.shape[-2:] != (len(self.times), len(self.points))):
            raise ValueError("values must have shape ([R,] n_times, n_points)")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("path panel contains non-finite values")

    @property
    def delta_n(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def n_replicates(self) -> int:
        """Number of stacked replicates (1 for a single path)."""
        return self.values.shape[0] if self.values.ndim == 3 else 1

    def panel(self, i: int) -> "PathPanel":
        """Replicate i of a stack as a single-path panel."""
        if self.values.ndim != 3:
            raise ValueError("panel(i) needs a replicate stack")
        meta = dict(self.meta)
        meta["replicate"] = i
        return PathPanel(times=self.times, points=self.points,
                         values=self.values[i], meta=meta)

    def drop_burn_in(self) -> "PathPanel":
        """Discard the leading ``meta["burn_in"]`` steps and rebase time at 0."""
        b = self.meta.get("burn_in", 0)
        if b == 0:
            return self
        meta = dict(self.meta)
        meta["burn_in"] = 0
        meta["dropped_steps"] = b
        return PathPanel(times=self.times[b:] - self.times[b],
                         points=self.points, values=self.values[..., b:, :], meta=meta)

    def to_csv(self, path) -> None:
        if self.values.ndim != 2:
            raise ValueError("to_csv writes one path; take panel(i) of a stack")
        header = "time," + ",".join(f"x_{i + 1}" for i in range(len(self.points)))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            for i, t in enumerate(self.times):
                row = ",".join(f"{v:.17g}" for v in self.values[i])
                fh.write(f"{t:.17g},{row}\n")

    def to_binary(self, path) -> None:
        """Columnar little-endian float64: time column then one column per point.

        Layout: a one-line UTF-8 JSON header (column names, row count)
        terminated by a newline, followed by the columns back to back.
        """
        import json

        if self.values.ndim != 2:
            raise ValueError("to_binary writes one path; take panel(i) of a stack")
        cols = ["time"] + [f"x_{i + 1}" for i in range(len(self.points))]
        head = json.dumps({"columns": cols, "rows": len(self.times),
                           "dtype": "<f8"}).encode() + b"\n"
        with open(path, "wb") as fh:
            fh.write(head)
            fh.write(self.times.astype("<f8").tobytes())
            for j in range(len(self.points)):
                fh.write(self.values[:, j].astype("<f8").tobytes())

    @classmethod
    def from_binary(cls, path) -> "PathPanel":
        import json

        with open(path, "rb") as fh:
            head = json.loads(fh.readline().decode())
            n = head["rows"]
            data = np.frombuffer(fh.read(), dtype="<f8")
        cols = head["columns"]
        data = data.reshape(len(cols), n)
        return cls(times=data[0], points=tuple(range(len(cols) - 1)),
                   values=data[1:].T)


# ---------------------------------------------------------------------------
# the spectral exponential-Euler scheme
# ---------------------------------------------------------------------------

_NOISE_CHUNK = 32


def _observation_weights(points, n_modes):
    """On-grid indices where possible, else band-limited evaluation weights."""
    n = n_modes
    idx = []
    exact = True
    for x in points:
        j = round((x % 1.0) * n)
        if abs((x % 1.0) * n - j) > 1e-9:
            exact = False
            break
        idx.append(int(j) % n)
    if exact:
        return np.asarray(idx, dtype=int), None
    k = np.arange(n // 2 + 1)
    fac = np.full(n // 2 + 1, 2.0)
    fac[0] = 1.0
    fac[-1] = 1.0
    xs = np.asarray([x % 1.0 for x in points])
    wmat = (fac[:, None] * np.exp(2j * math.pi * np.outer(k, xs))) / n
    return None, wmat


def _thread_count(workers) -> int:
    """``workers`` when positive, else every core this process may run on."""
    if workers is not None and workers > 0:
        return int(workers)
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def simulate_spde_batch(model: ModelSpec, design: SamplingDesign, streams,
                        dtype=np.float32, blowup_cap: float = 1e6,
                        workers: int | None = None) -> PathPanel:
    """Simulate independent replicates of the SPDE in vectorised lockstep.

    Each replicate's noise comes from its own stream, so any subset of
    streams reproduces exactly the same paths as the full batch.  The state
    is advanced in Fourier space: semigroup multiplication, then injection of
    the damped, sigma-modulated spectral noise increment (transform, multiply,
    transform).  Values are recorded at observation times in float64 and
    returned as a replicate stack ``(R, n_times, K)``, burn-in included.

    For constant sigma the step is the whole observation step ``delta_n``
    (``design.oversampling`` is ignored): mode k advances by the exact
    Ornstein-Uhlenbeck transition, mean factor ``exp(-lambda_k delta_n)`` and
    noise variance ``q_k (1 - exp(-2 lambda_k delta_n)) / (2 lambda_k)``
    (``q_0 delta_n`` for the Brownian mode 0), the law of any number of
    composed micro-steps.  ``meta`` records the ``oversampling`` used and
    the ``micro_steps`` taken.

    ``workers`` threads run the FFT batches and the random draws (each
    thread fills its own block of streams); None uses every core this
    process may run on.  The thread count never changes the values.
    """
    if model.noise.dim != 1:
        raise ValueError("the spectral scheme is implemented for dim = 1 only")
    alpha = model.noise.alpha
    n = design.spatial_modes
    kk = n // 2
    sigma_fn = model.sigma
    sigma_const = getattr(sigma_fn, "is_constant", False)
    # constant sigma: one exact OU transition per observation step has the
    # law of any number of composed micro-steps, so oversampling is moot
    over = 1 if sigma_const else design.oversampling
    delta = design.delta_n / over
    burn = design.default_burn_in(alpha)
    n_obs = design.n_steps + burn
    n_micro = n_obs * over
    gens = [_as_generator(s) for s in streams]
    n_rep = len(gens)
    workers = _thread_count(workers)

    lam = 2.0 * math.pi ** 2 * np.arange(kk + 1, dtype=float) ** 2
    semigroup = np.exp(-lam * delta).astype(dtype)
    damp = np.ones(kk + 1)
    damp[1:] = np.sqrt(-np.expm1(-2.0 * lam[1:] * delta) / (2.0 * lam[1:] * delta))
    damp = damp.astype(dtype)
    cplx = np.complex64 if dtype == np.float32 else np.complex128
    spec_scale = _spectral_noise_scale(alpha, n, delta, cplx)

    u0_grid = np.asarray(model.u0.on_grid(n), dtype=dtype)
    uhat = np.repeat(sfft.rfft(u0_grid)[None, :].astype(cplx), n_rep, axis=0)
    u_phys = sfft.irfft(uhat, n=n, axis=-1, workers=workers)

    obs_idx, obs_w = _observation_weights(design.points, n)
    out = np.empty((n_rep, n_obs + 1, len(design.points)))

    def record(i_obs, u_now, uh):
        if obs_idx is not None:
            out[:, i_obs] = u_now[:, obs_idx].astype(np.float64)
        else:
            out[:, i_obs] = (uh @ obs_w).real.astype(np.float64)
        peak = float(np.max(np.abs(u_now)))
        if not math.isfinite(peak) or peak > blowup_cap:
            raise NumericalBlowup(
                f"|u| reached {peak:.3e} at observation step {i_obs}", step=i_obs
            )

    record(0, u_phys, uhat)

    # chunked noise pre-generation: cap the spectral scratch at ~50 MB
    chunk = max(1, min(_NOISE_CHUNK, int(6e6 / max(1, n_rep * (kk + 1)))))
    blocks = np.array_split(np.arange(n_rep), min(workers, max(1, n_rep)))

    def draw(raw, block):
        for b in block:
            gens[b].standard_normal(raw[b].shape, dtype=dtype, out=raw[b])

    step = 0
    with ThreadPoolExecutor(len(blocks)) as pool:
        while step < n_micro:
            cl = min(chunk, n_micro - step)
            spec = np.empty((n_rep, cl, kk + 1), dtype=cplx)
            list(pool.map(partial(draw, spec.view(dtype)), blocks))
            spec *= spec_scale
            spec[..., 0] = spec[..., 0].real
            spec[..., kk] = spec[..., kk].real
            for j in range(cl):
                if sigma_const:
                    # sigma(u) is a scalar: inject the noise directly in Fourier
                    what = sigma_fn(None) * spec[:, j]
                else:
                    # one micro-step's field at a time stays in cache; a
                    # whole chunk's would round-trip through memory
                    noise = sfft.irfft(spec[:, j], n=n, axis=-1, workers=workers)
                    w = sigma_fn(u_phys) * noise
                    what = sfft.rfft(w, axis=-1, workers=workers)
                np.multiply(uhat, semigroup, out=uhat)
                what *= damp
                uhat += what
                # constant sigma records every step, so only a non-constant
                # sigma reads the field between observations
                u_phys = sfft.irfft(uhat, n=n, axis=-1, workers=workers)
                g = step + j + 1
                if g % over == 0:
                    record(g // over, u_phys, uhat)
            step += cl

    meta = {
        "scheme": "spectral exponential Euler",
        "alpha": alpha,
        "sigma": repr(model.sigma),
        "u0": repr(model.u0),
        "spatial_modes": n,
        "oversampling": over,
        "micro_steps": n_micro,
        "burn_in": burn,
        "dtype": np.dtype(dtype).name,
        "n_replicates": n_rep,
        "streams": [(s.master_seed, s.stream_id) if isinstance(s, RngStream) else None
                    for s in streams],
        "tau_scheme_sq": scheme_increment_variance(alpha, design.delta_n, n),
    }
    times = design.delta_n * np.arange(n_obs + 1)
    return PathPanel(times=times, points=design.points, values=out, meta=meta)


def simulate_spde(model: ModelSpec, design: SamplingDesign, rng,
                  dtype=np.float32, blowup_cap: float = 1e6,
                  workers: int | None = None) -> PathPanel:
    """Single SPDE path; see :func:`simulate_spde_batch` for the scheme."""
    stream = rng if isinstance(rng, RngStream) else RngStream(int(rng))
    batch = simulate_spde_batch(model, design, [stream], dtype=dtype,
                                blowup_cap=blowup_cap, workers=workers)
    panel = batch.panel(0)
    panel.meta["seed"] = (stream.master_seed, stream.stream_id)
    return panel


# ---------------------------------------------------------------------------
# moment scaling diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalingFit:
    """Log-log regression of root mean square increments against lag."""

    slope: float
    intercept: float
    lags: tuple
    rms: tuple

    def __repr__(self):
        return f"ScalingFit(slope={self.slope:.4f}, lags={self.lags})"


def moment_scaling_check(panel: PathPanel, lags) -> ScalingFit:
    """Fit ``log E[|u(t + l*delta) - u(t)|^2]^(1/2) ~ slope * log(l*delta)``.

    ``panel`` is a :class:`PathPanel`, one path or a replicate stack.  The
    fitted slope estimates the temporal regularity exponent
    ``1/2 - alpha/4``.
    """
    if not isinstance(panel, PathPanel):
        raise TypeError("moment_scaling_check needs a PathPanel")
    values, dt = panel.values, panel.delta_n
    lags = sorted(int(l) for l in set(lags))
    if len(lags) < 3:
        raise ValueError("need at least 3 distinct lags for a slope fit")
    n_t = values.shape[-2]
    if lags[-1] >= n_t:
        raise ValueError("panel too short for the largest lag")
    rms = []
    for l in lags:
        d = np.moveaxis(values, -2, 0)
        inc = d[l:] - d[:-l]
        rms.append(float(np.sqrt(np.mean(inc ** 2))))
    x = np.log([l * dt for l in lags])
    y = np.log(rms)
    slope, intercept = np.polyfit(x, y, 1)
    return ScalingFit(slope=float(slope), intercept=float(intercept),
                      lags=tuple(lags), rms=tuple(rms))


def spatial_scaling_check(panel, shifts) -> ScalingFit:
    """Same regression across space: observation points must form a regular grid.

    ``shifts`` are integer multiples of the point spacing; the fitted slope
    estimates the spatial regularity exponent ``1 - alpha/2``.
    """
    if not isinstance(panel, PathPanel):
        raise TypeError("spatial_scaling_check needs a PathPanel")
    values, points = panel.values, np.asarray(panel.points, dtype=float)
    spacing = np.diff(points)
    if len(points) < 4 or not np.allclose(spacing, spacing[0], rtol=1e-9):
        raise ValueError("need >= 4 equally spaced observation points")
    h0 = float(spacing[0])
    shifts = sorted(int(s) for s in set(shifts))
    if len(shifts) < 3:
        raise ValueError("need at least 3 distinct shifts for a slope fit")
    if shifts[-1] >= len(points):
        raise ValueError("shift exceeds the point grid")
    rms = []
    for s in shifts:
        inc = values[..., s:] - values[..., :-s]
        rms.append(float(np.sqrt(np.mean(inc ** 2))))
    x = np.log([s * h0 for s in shifts])
    y = np.log(rms)
    slope, intercept = np.polyfit(x, y, 1)
    return ScalingFit(slope=float(slope), intercept=float(intercept),
                      lags=tuple(shifts), rms=tuple(rms))
