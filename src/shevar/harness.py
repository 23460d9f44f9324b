"""Reproducible Monte Carlo experiments with tolerance gates.

Experiments are configured by a flat ``key = value`` text format with dotted
nesting (see :func:`parse_config`); unknown keys are errors so that a typo
cannot silently weaken a study.  Each runner returns an
:class:`ExperimentReport` whose summary is a pure function of the
per-replicate rows, embeds the canonical config text and its hash, and can
be re-verified by re-running the embedded config.

Replicate r of a run with master seed s always draws from the stream
``(s, r)``, so reports are independent of batch sizes, thread counts and
scheduling.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field
import numpy as np
from scipy.special import kolmogorov, ndtr

from . import __version__
from .gaussian_limits import AbsPower, EvaluationFunction, MonteCarlo, limit_covariance
from .inference import (
    DegeneratePath,
    estimate_alpha,
    estimate_sigma0,
    integrated_variance_interval,
)
from .kernels import (
    NoiseParams,
    abs_moment,
    gamma_partial_sum_identity,
    gamma_r,
    gamma_series_tail,
    pi_mass,
    tau_n,
)
from .gaussian_limits import mu_f, rho
from .simulate import (
    ModelSpec,
    PathPanel,
    RngStream,
    SigmaAffinePlus,
    SigmaConstant,
    SigmaLinear,
    U0Constant,
    U0SmoothPeriodic,
    moment_scaling_check,
    scheme_increment_variance,
    simulate_spde_batch,
    simulate_stationary_increments_batch,
    spatial_scaling_check,
)
from .variations import (
    IncrementPanel,
    SamplingDesign,
    clt_statistic,
    extract_increments,
    variation_functional,
)

EXPERIMENTS = ("identities", "lln", "clt", "estimate", "scaling", "simulate")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_ALLOWED_KEYS = {
    "experiment": str,
    "seed": int,
    "replicates": int,
    "threads": int,
    "driver": str,              # "exact" or "spde"
    "model.alpha": float,
    "model.dim": int,
    "model.sigma.kind": str,    # constant | linear | affine
    "model.sigma.value": float,
    "model.sigma.sigma0": float,
    "model.sigma.a": float,
    "model.sigma.b": float,
    "model.u0.kind": str,       # constant | smooth
    "model.u0.value": float,
    "model.u0.cos": list,
    "model.u0.sin": list,
    "design.n": int,
    "design.horizon": float,
    "design.points": list,
    "design.lags": int,
    "design.spatial_modes": int,
    "design.oversampling": int,
    "design.burn_in": int,      # -1 means automatic
    "functional.p": float,
    "functional.powers": list,
    "lln.ladder": list,         # log2 observation counts
    "clt.normalization": str,   # scheme | continuum
    "estimate.estimator": str,  # sigma0 | coverage | alpha
    "estimate.level": float,
    "scaling.alphas": list,
    "scaling.lags": list,
    "scaling.spatial_shifts": list,
    "scaling.exact": bool,
    "scaling.spde": bool,
    "scaling.spatial": bool,
    "identities.alphas": list,
    "identities.pi_r_max": int,
    "identities.partial_sum_r": int,
    "identities.rho_r_max": int,
    "identities.mc_pairs": int,
    "tolerances.lln_slope": float,
    "tolerances.lln_err_max": float,
    "tolerances.ks_p_min": float,
    "tolerances.var_ratio": float,
    "tolerances.mean_se_mult": float,
    "tolerances.corr_se_mult": float,
    "tolerances.pi_mass": float,
    "tolerances.partial_sum_rel": float,
    "tolerances.half_sum": float,
    "tolerances.psd_min": float,
    "tolerances.rho_se_mult": float,
    "tolerances.moment_se_mult": float,
    "tolerances.bias_rel": float,
    "tolerances.coverage_low": float,
    "tolerances.coverage_high": float,
    "tolerances.alpha_bias": float,
    "tolerances.slope_exact": float,
    "tolerances.slope_spde": float,
    "tolerances.slope_spatial": float,
}

_COMMON_DEFAULTS = {
    "seed": 20240617,
    "replicates": 100,
    "threads": 1,
    "driver": "exact",
    "model.alpha": 0.5,
    "model.dim": 1,
    "model.sigma.kind": "constant",
    "model.sigma.value": 1.0,
    "model.sigma.sigma0": 0.5,
    "model.sigma.a": 1.0,
    "model.sigma.b": 0.5,
    "model.u0.kind": "constant",
    "model.u0.value": 1.0,
    "design.n": 1024,
    "design.horizon": 1.0,
    "design.points": [0.0],
    "design.lags": 1,
    "design.spatial_modes": 1024,
    "design.oversampling": 4,
    "design.burn_in": -1,
    "functional.p": 2.0,
    "estimate.level": 0.95,
    "tolerances.ks_p_min": 0.01,
    "tolerances.var_ratio": 0.15,
    "tolerances.mean_se_mult": 4.0,
    "tolerances.corr_se_mult": 4.0,
    "tolerances.lln_slope": 0.1,
    "tolerances.lln_err_max": 0.02,
    "tolerances.pi_mass": 1e-6,
    "tolerances.partial_sum_rel": 1e-12,
    "tolerances.half_sum": 1e-5,
    "tolerances.psd_min": -1e-10,
    "tolerances.rho_se_mult": 4.0,
    "tolerances.moment_se_mult": 4.0,
    "tolerances.bias_rel": 0.05,
    "tolerances.coverage_low": 0.91,
    "tolerances.coverage_high": 0.99,
    "tolerances.alpha_bias": 0.05,
    "tolerances.slope_exact": 0.02,
    "tolerances.slope_spde": 0.05,
    "tolerances.slope_spatial": 0.05,
}

_KIND_DEFAULTS = {
    "identities": {
        "identities.alphas": [0.1, 0.25, 0.5, 0.75, 0.9],
        "identities.pi_r_max": 50,
        "identities.partial_sum_r": 10 ** 6,
        "identities.rho_r_max": 10,
        "identities.mc_pairs": 200_000,
    },
    "lln": {
        "functional.powers": [2.0, 4.0],
        "lln.ladder": [9, 10, 11, 12, 13],
        "replicates": 300,
    },
    "clt": {
        "design.n": 4096,
        "clt.normalization": "scheme",
        "replicates": 200,
    },
    "estimate": {
        "estimate.estimator": "sigma0",
        "replicates": 100,
    },
    "scaling": {
        "scaling.alphas": [0.5, 0.9],
        "scaling.lags": [1, 2, 4, 8, 16, 32],
        "scaling.spatial_shifts": [1, 2, 4, 8],
        "scaling.exact": True,
        "scaling.spde": False,
        "scaling.spatial": False,
        "design.n": 2 ** 14,
        "replicates": 20,
    },
    "simulate": {
        "replicates": 1,
        "design.n": 256,
    },
}


class ConfigError(ValueError):
    """Unknown key, malformed line or invalid value in an experiment config."""


@dataclass(frozen=True)
class Config:
    """Flat dotted-key configuration with canonical text form."""

    data: dict

    def __getitem__(self, key):
        return self.data[key]

    def get(self, key, default=None):
        return self.data.get(key, default)

    @property
    def kind(self) -> str:
        return self.data["experiment"]

    def text(self) -> str:
        lines = []
        for key in sorted(self.data):
            lines.append(f"{key} = {_format_value(self.data[key])}")
        return "\n".join(lines) + "\n"

    def hash(self) -> str:
        return hashlib.sha256(self.text().encode()).hexdigest()

    def replace(self, **flat) -> "Config":
        data = dict(self.data)
        for key, value in flat.items():
            data[key] = value
        return Config(_validate(data))


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return ", ".join(_format_value(v) for v in value)
    return str(value)


def _parse_scalar(token: str):
    token = token.strip()
    low = token.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token


def _parse_value(raw: str):
    if "," in raw:
        return [_parse_scalar(tok) for tok in raw.split(",") if tok.strip()]
    return _parse_scalar(raw)


def _coerce(key: str, value):
    want = _ALLOWED_KEYS[key]
    if want is list:
        value = value if isinstance(value, list) else [value]
        return [float(v) if isinstance(v, (int, float)) and not isinstance(v, bool)
                else v for v in value]
    if want is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if want is int:
        if isinstance(value, bool) or (isinstance(value, float) and value != int(value)):
            raise ConfigError(f"{key} must be an integer, got {value!r}")
        if isinstance(value, (int, float)):
            return int(value)
    if want is bool and isinstance(value, bool):
        return value
    if want is str and isinstance(value, str):
        return value
    if isinstance(value, want):
        return value
    raise ConfigError(f"{key} expects {want.__name__}, got {value!r}")


_CHOICES = {
    "driver": ("exact", "spde"),
    "clt.normalization": ("scheme", "continuum"),
    "estimate.estimator": ("sigma0", "coverage", "alpha"),
}


def _validate(data: dict) -> dict:
    out = {}
    for key, value in data.items():
        if key not in _ALLOWED_KEYS:
            raise ConfigError(f"unknown configuration key: {key!r}")
        out[key] = _coerce(key, value)
    kind = out.get("experiment")
    if kind not in EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {kind!r}")
    for key, allowed in _CHOICES.items():
        if key in out and out[key] not in allowed:
            raise ConfigError(f"{key} must be one of {allowed}, got {out[key]!r}")
    driver = out.get("driver")
    if driver == "spde" and (kind == "lln" or (
            kind == "estimate" and out.get("estimate.estimator") != "sigma0")):
        raise ConfigError("lln and the coverage and alpha estimators run on "
                          "driver = exact only")
    if (driver == "exact" and kind in ("lln", "clt", "estimate", "simulate")
            and out.get("model.sigma.kind", "constant") != "constant"):
        raise ConfigError("driver = exact samples additive noise: it needs "
                          "model.sigma.kind = constant")
    exact_sampler = ((driver == "exact" and kind in ("clt", "estimate", "simulate"))
                     or (kind == "scaling" and out.get("scaling.exact")))
    if exact_sampler and len(out.get("design.points", [0.0])) > 1:
        raise ConfigError("the exact sampler draws one point: it needs a single "
                          "design.points entry")
    if driver == "exact" and out.get("clt.normalization") == "continuum":
        raise ConfigError("clt.normalization = continuum applies to driver = spde "
                          "only; the exact sampler is normalised by tau_n")
    if out.get("design.lags", 1) != 1:
        raise ConfigError("design.lags must be 1: every runner uses one-lag windows")
    if out.get("model.dim", 1) != 1:
        raise ConfigError("model.dim must be 1: both drivers simulate one space "
                          "dimension")
    return out


def default_config(kind: str) -> Config:
    if kind not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    data = {"experiment": kind}
    data.update(_COMMON_DEFAULTS)
    data.update(_KIND_DEFAULTS.get(kind, {}))
    return Config(_validate(data))


def parse_config(text: str, base: Config | None = None) -> Config:
    """Parse ``key = value`` lines; '#' starts a comment; unknown keys error."""
    data = dict(base.data) if base is not None else {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, rhs = line.partition("=")
        key = key.strip()
        value = _parse_value(rhs)
        if key == "experiment" and base is not None and value != base.kind:
            raise ConfigError(
                f"config file is for experiment {value!r}, not {base.kind!r}"
            )
        data[key] = value
    return Config(_validate(data))


def load_config(path, base: Config | None = None) -> Config:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), base=base)


# ---------------------------------------------------------------------------
# goodness of fit
# ---------------------------------------------------------------------------


def ks_statistic(sample) -> float:
    """One-sample Kolmogorov-Smirnov statistic against N(0, 1)."""
    x = np.sort(np.asarray(sample, dtype=float))
    n = len(x)
    if n == 0:
        raise ValueError("empty sample")
    u = ndtr(x)
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - u)
    d_minus = np.max(u - (i - 1) / n)
    return float(max(d_plus, d_minus))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class ExperimentReport:
    kind: str
    config_text: str
    config_hash: str
    seed: int
    rows: list
    summary: dict
    passed: bool
    provenance: dict = field(default_factory=dict)

    def write(self, out_dir) -> None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
            json.dump({
                "kind": self.kind,
                "config_text": self.config_text,
                "config_hash": self.config_hash,
                "seed": self.seed,
                "summary": self.summary,
                "passed": self.passed,
                "provenance": self.provenance,
                "rows": self.rows,
            }, fh, indent=2, sort_keys=True)
            fh.write("\n")
        write_rows_csv(os.path.join(out_dir, "replicates.csv"), self.rows)

    @classmethod
    def read(cls, path) -> "ExperimentReport":
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        return cls(kind=payload["kind"], config_text=payload["config_text"],
                   config_hash=payload["config_hash"], seed=payload["seed"],
                   rows=payload["rows"], summary=payload["summary"],
                   passed=payload["passed"], provenance=payload.get("provenance", {}))


def write_rows_csv(path, rows) -> None:
    keys = sorted({k for row in rows for k in row}) if rows else []
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(keys) + "\n")
        for row in rows:
            cells = []
            for k in keys:
                v = row.get(k, "")
                if isinstance(v, float):
                    cells.append(f"{v:.17g}")
                else:
                    cells.append(str(v))
            fh.write(",".join(cells) + "\n")


def _provenance(cfg: Config) -> dict:
    import scipy

    return {
        "package_version": __version__,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "config_hash": cfg.hash(),
    }


def _report(cfg: Config, rows, summary, passed) -> ExperimentReport:
    return ExperimentReport(
        kind=cfg.kind, config_text=cfg.text(), config_hash=cfg.hash(),
        seed=cfg["seed"], rows=rows, summary=summary, passed=bool(passed),
        provenance=_provenance(cfg),
    )


# ---------------------------------------------------------------------------
# shared model/design assembly
# ---------------------------------------------------------------------------


def _sigma_from(cfg: Config):
    kind = cfg["model.sigma.kind"]
    if kind == "constant":
        return SigmaConstant(cfg["model.sigma.value"])
    if kind == "linear":
        return SigmaLinear(cfg["model.sigma.sigma0"])
    if kind == "affine":
        return SigmaAffinePlus(cfg["model.sigma.a"], cfg["model.sigma.b"])
    raise ConfigError(f"unknown sigma kind {kind!r}")


def _u0_from(cfg: Config):
    kind = cfg["model.u0.kind"]
    if kind == "constant":
        return U0Constant(cfg["model.u0.value"])
    if kind == "smooth":
        return U0SmoothPeriodic(
            c0=cfg["model.u0.value"],
            cos_coeffs=tuple(cfg.get("model.u0.cos", []) or []),
            sin_coeffs=tuple(cfg.get("model.u0.sin", []) or []),
        )
    raise ConfigError(f"unknown u0 kind {kind!r}")


def _model_from(cfg: Config) -> ModelSpec:
    return ModelSpec(
        noise=NoiseParams(cfg["model.alpha"], cfg["model.dim"]),
        sigma=_sigma_from(cfg),
        u0=_u0_from(cfg),
    )


def _design_from(cfg: Config) -> SamplingDesign:
    n = cfg["design.n"]
    horizon = cfg["design.horizon"]
    burn = cfg["design.burn_in"]
    return SamplingDesign(
        delta_n=horizon / n,
        horizon=horizon,
        points=tuple(cfg["design.points"]),
        n_lags=cfg["design.lags"],
        spatial_modes=cfg["design.spatial_modes"],
        oversampling=cfg["design.oversampling"],
        burn_in=None if burn < 0 else burn,
    )


def _streams(cfg: Config, count: int | None = None, salt: int = 0):
    n = cfg["replicates"] if count is None else count
    return [RngStream(cfg["seed"], salt * 1_000_000 + i) for i in range(n)]


def _increment_scale(alpha: float, design: SamplingDesign, normalization: str) -> float:
    """Scale of the spectral scheme's increments on ``design``.

    ``scheme`` is the scheme's own increment standard deviation, which falls
    short of the continuum ``tau_n`` at finite resolution; ``continuum`` is
    ``tau_n``.
    """
    if normalization == "continuum":
        return tau_n(NoiseParams(alpha, 1), design.delta_n)
    return math.sqrt(scheme_increment_variance(alpha, design.delta_n,
                                               design.spatial_modes))


# increments the exact driver draws and reduces at a time (4 MB of float64):
# one block's draws and their statistic are the only stacks alive at once
_EXACT_BLOCK = 2 ** 19


def _exact_variation(f: EvaluationFunction, alpha: float, design: SamplingDesign,
                     streams, t_grid) -> np.ndarray:
    """:func:`variation_functional` of exact increments, one row per stream.

    Streams are drawn and reduced in consecutive blocks of about
    ``_EXACT_BLOCK`` increments, so memory does not grow with their number.
    Each row depends on its own stream alone, so the rows are those of one
    call on the whole stack.
    """
    n = design.n_steps
    per_block = max(1, _EXACT_BLOCK // n)
    blocks = []
    for i in range(0, len(streams), per_block):
        z = simulate_stationary_increments_batch(alpha, n, streams[i:i + per_block])
        panel = IncrementPanel(z[..., None], design.delta_n)
        blocks.append(variation_functional(f, panel, design, t_grid))
    return np.concatenate(blocks)


def _sample_paths(model: ModelSpec, design: SamplingDesign, driver: str, streams,
                  workers: int | None = None) -> PathPanel:
    """Replicate stack of paths on ``design``, one per stream, burn-in still in.

    ``spde`` runs the torus scheme.  ``exact`` cumulates exact stationary
    increments from u = 0 at one point, scaled by the constant coefficient
    times ``tau_n``; it has no burn-in.
    """
    if driver == "spde":
        return simulate_spde_batch(model, design, streams, workers=workers)
    alpha = model.noise.alpha
    scale = model.sigma(None) * tau_n(NoiseParams(alpha, 1), design.delta_n)
    z = simulate_stationary_increments_batch(alpha, design.n_steps, streams)
    z *= scale
    u = np.zeros((len(z), design.n_steps + 1, 1))
    np.cumsum(z, axis=1, out=u[:, 1:, 0])
    return PathPanel(times=design.times(), points=design.points[:1],
                     values=u, meta={"driver": "exact", "alpha": alpha})


# ---------------------------------------------------------------------------
# experiment: identities
# ---------------------------------------------------------------------------


def run_identities(cfg: Config, workers: int | None = None) -> ExperimentReport:
    """Exact-identity sweep: quadrature mass vs closed form, partial sums,
    Toeplitz positivity, pairing expansion vs Monte Carlo, normal moments."""
    alphas = [float(a) for a in cfg["identities.alphas"]]
    rows = []

    def add(name, alpha, err, tol, extra=None):
        rows.append({
            "check": name, "alpha": alpha, "error": float(err),
            "tolerance": float(tol), "pass": bool(err <= tol),
            **(extra or {}),
        })

    tol_pi = cfg["tolerances.pi_mass"]
    r_pi = cfg["identities.pi_r_max"]
    for a in alphas:
        errs = [abs(pi_mass(a, r) - float(gamma_r(a, r))) for r in range(r_pi + 1)]
        add("pi_mass_vs_gamma", a, max(errs), tol_pi, {"r_max": r_pi})

    big_r = cfg["identities.partial_sum_r"]
    tol_ps = cfg["tolerances.partial_sum_rel"]
    tol_half = cfg["tolerances.half_sum"]
    for a in alphas:
        g = np.atleast_1d(gamma_r(a, np.arange(big_r + 1)))
        total = math.fsum(g.tolist())
        target = gamma_partial_sum_identity(a, big_r)
        add("partial_sum_identity", a, abs(total - target) / abs(target), tol_ps,
            {"r_max": big_r})
        # raw partial sums approach 1/2 only like R^(-alpha/2); the series
        # value is recovered by adding the exact telescoped tail
        add("half_sum", a, abs(total + gamma_series_tail(a, big_r) - 0.5),
            tol_half, {"r_max": big_r})
        idx = np.abs(np.arange(256)[:, None] - np.arange(256)[None, :])
        eig_min = float(np.linalg.eigvalsh(g[idx])[0])
        add("toeplitz_psd", a, max(0.0, -eig_min), -cfg["tolerances.psd_min"],
            {"min_eigenvalue": eig_min})

    # pairing expansion against the MC backend for the quadratic component
    mc = MonteCarlo(n_pairs=cfg["identities.mc_pairs"])
    f = EvaluationFunction.abs_power(2.0)
    mult = cfg["tolerances.rho_se_mult"]
    for a in (0.25, 0.5, 0.75):
        worst = 0.0
        for r in range(cfg["identities.rho_r_max"] + 1):
            closed = rho(f, 0, 0, r, [1.0], alpha=a)
            est, se = rho(f, 0, 0, r, [1.0], alpha=a, method="mc", mc=mc,
                          return_se=True)
            worst = max(worst, abs(est - closed) / (mult * se))
        add("rho_isserlis_vs_mc", a, worst, 1.0, {"r_max": cfg["identities.rho_r_max"]})

    mult_m = cfg["tolerances.moment_se_mult"]
    worst = 0.0
    for p in (1.0, 2.0, 3.0, 4.0, 6.0):
        est, se = mu_f(EvaluationFunction.abs_power(p), [1.0], method="mc",
                       mc=mc, return_se=True)
        worst = max(worst, abs(est[0] - abs_moment(p)) / (mult_m * se[0]))
    add("abs_moment_vs_mc", float("nan"), worst, 1.0, {"powers": "1,2,3,4,6"})

    passed = all(row["pass"] for row in rows)
    summary = {
        "n_checks": len(rows),
        "n_failed": sum(not row["pass"] for row in rows),
        "max_pi_mass_error": max(r_["error"] for r_ in rows
                                 if r_["check"] == "pi_mass_vs_gamma"),
        "max_partial_sum_rel_error": max(r_["error"] for r_ in rows
                                         if r_["check"] == "partial_sum_identity"),
    }
    return _report(cfg, rows, summary, passed)


# ---------------------------------------------------------------------------
# experiment: law of large numbers
# ---------------------------------------------------------------------------


def run_lln(cfg: Config, workers: int | None = None) -> ExperimentReport:
    """Convergence ladder for E|V^n_p(1) - m_p| on the exact additive sampler."""
    alpha = cfg["model.alpha"]
    powers = [float(p) for p in cfg["functional.powers"]]
    ladder = [int(e) for e in cfg["lln.ladder"]]
    n_rep = cfg["replicates"]
    f = EvaluationFunction([AbsPower(p) for p in powers])
    rows = []
    err_table = {p: [] for p in powers}
    for rung, log2n in enumerate(ladder):
        n = 2 ** log2n
        design = SamplingDesign(delta_n=1.0 / n, horizon=1.0)
        v_n = _exact_variation(f, alpha, design, _streams(cfg, n_rep, salt=rung),
                               [1.0])[:, 0]
        for m, p in enumerate(powers):
            v = v_n[:, m]
            target = abs_moment(p)
            err = np.abs(v - target)
            err_table[p].append(float(np.mean(err)))
            for i in range(n_rep):
                rows.append({"log2_n": log2n, "replicate": i, "p": p,
                             "v_n": float(v[i]), "abs_error": float(err[i])})
    slopes = {}
    for p in powers:
        x = np.asarray(ladder, dtype=float)
        y = np.log2(err_table[p])
        slopes[p] = float(np.polyfit(x, y, 1)[0])
    tol_slope = cfg["tolerances.lln_slope"]
    err_final = err_table[powers[0]][-1]
    passed = all(abs(s + 0.5) <= tol_slope for s in slopes.values())
    passed = passed and err_final <= cfg["tolerances.lln_err_max"]
    summary = {
        "alpha": alpha,
        "slopes": {str(p): slopes[p] for p in powers},
        "mean_abs_error": {str(p): err_table[p] for p in powers},
        "final_error_first_power": err_final,
        "ladder_log2": ladder,
    }
    return _report(cfg, rows, summary, passed)


# ---------------------------------------------------------------------------
# experiment: central limit theorem
# ---------------------------------------------------------------------------


def run_clt(cfg: Config, workers: int | None = None) -> ExperimentReport:
    """Distributional check of the rescaled fluctuation of V^n_p.

    Exact driver: stationary increments with unit conditional variance.
    SPDE driver: paths of the scheme with conditional variance
    ``sigma(u)^2`` along each simulated path.  Either way the centre
    ``V_f`` and the studentising ``C(T)`` come from one
    :func:`limit_covariance` call.  Refuses alpha = 1, which is outside the
    theorem's scope.
    """
    alpha = cfg["model.alpha"]
    p = cfg["functional.p"]
    n_rep = cfg["replicates"]
    driver = cfg["driver"]
    model = _model_from(cfg)
    model.validate()
    design = _design_from(cfg)
    delta, n = design.delta_n, design.n_steps
    half = n // 2

    f = EvaluationFunction.abs_power(p, n_points=design.n_points)
    t_grid = [half * delta, design.horizon]
    if driver == "exact":
        v_n = _exact_variation(f, alpha, design, _streams(cfg, n_rep), t_grid)
        w = np.ones((n + 1, 1))
    else:
        paths = _sample_paths(model, design, driver, _streams(cfg, n_rep),
                              workers).drop_burn_in()
        tau = _increment_scale(alpha, design, cfg["clt.normalization"])
        panel = extract_increments(paths.values, design, alpha, tau=tau)
        v_n = variation_functional(f, panel, design, t_grid)
        w = np.square(np.broadcast_to(model.sigma(paths.values), paths.values.shape))
    v_n = v_n[..., 0]
    law = limit_covariance(f, design.times(), w, t_grid, alpha)
    stat = clt_statistic(v_n, np.broadcast_to(law.v_path[..., 0], v_n.shape), delta)
    v_full, stat_half, stat_full = v_n[:, 1], stat[:, 0], stat[:, 1]
    c_plug = np.broadcast_to(law.c_path[..., -1, 0, 0], stat_full.shape)
    stud = stat_full / np.sqrt(c_plug)
    rows = [{
        "replicate": i, "v_n": float(v_full[i]),
        "stat": float(stat_full[i]), "studentized": float(stud[i]),
        "stat_first_half": float(stat_half[i]),
        "stat_second_half": float(stat_full[i] - stat_half[i]),
        "c_plug": float(c_plug[i]),
    } for i in range(n_rep)]
    var_ratio = float(np.var(stud, ddof=1))
    d = ks_statistic(stud)
    pval = float(kolmogorov(math.sqrt(n_rep) * d))
    mean = float(np.mean(stud))
    mean_se = float(np.std(stud, ddof=1) / math.sqrt(n_rep))
    corr = float(np.corrcoef(stat_half, stat_full - stat_half)[0, 1])
    corr_se = 1.0 / math.sqrt(n_rep)

    checks = {
        "ks_pass": pval > cfg["tolerances.ks_p_min"],
        "variance_pass": abs(var_ratio - 1.0) <= cfg["tolerances.var_ratio"],
        "mean_pass": abs(mean) <= cfg["tolerances.mean_se_mult"] * mean_se,
        "independence_pass": abs(corr) <= cfg["tolerances.corr_se_mult"] * corr_se,
    }
    summary = {
        "driver": driver, "alpha": alpha, "p": p, "n": int(cfg["design.n"]),
        "replicates": n_rep,
        "ks_statistic": d, "ks_pvalue": pval,
        "mean_studentized": mean, "mean_se": mean_se,
        "variance_ratio": var_ratio,
        "increment_correlation": corr, "correlation_se": corr_se,
        "series_factor": float(law.series[0, 0]),
        **checks,
    }
    return _report(cfg, rows, summary, all(checks.values()))


# ---------------------------------------------------------------------------
# experiment: estimation
# ---------------------------------------------------------------------------


def run_estimation(cfg: Config, workers: int | None = None) -> ExperimentReport:
    """Bias / coverage study for the volatility and exponent estimators."""
    estimator = cfg["estimate.estimator"]
    alpha = cfg["model.alpha"]
    n_rep = cfg["replicates"]
    level = cfg["estimate.level"]
    exact = cfg["driver"] == "exact"
    model = _model_from(cfg)
    design = _design_from(cfg)
    paths = _sample_paths(model, design, cfg["driver"], _streams(cfg, n_rep),
                          workers).drop_burn_in()
    series = paths.values[:, :, 0]
    rows = []

    if estimator == "sigma0":
        p = cfg["functional.p"]
        truth = cfg["model.sigma.value"] if exact else getattr(model.sigma, "sigma0", None)
        # the scheme's increments are normalised by its own variance, as in
        # run_clt's default
        tau = None if exact else _increment_scale(alpha, design, "scheme")
        for i in range(n_rep):
            try:
                rep = estimate_sigma0(p, series[i], design, alpha, level=level,
                                      force_unit_denominator=exact, tau=tau)
                rows.append({"replicate": i, "estimate": rep.estimate,
                             "se": rep.se, "ci_low": rep.ci_low,
                             "ci_high": rep.ci_high, "error": ""})
            except DegeneratePath as exc:
                rows.append({"replicate": i, "estimate": float("nan"),
                             "se": float("nan"), "ci_low": float("nan"),
                             "ci_high": float("nan"), "error": str(exc)})
        good = [row for row in rows if not row["error"]]
        ests = np.array([row["estimate"] for row in good])
        n_bad = len(rows) - len(good)
        if len(good) and truth:
            bias_rel = float((np.mean(ests) - truth) / truth)
            rmse = float(np.sqrt(np.mean((ests - truth) ** 2)))
            mean_se = float(np.std(ests, ddof=1) / math.sqrt(len(ests)))
            passed = abs(bias_rel) <= cfg["tolerances.bias_rel"]
        else:
            bias_rel, rmse, mean_se = float("nan"), float("nan"), float("nan")
            passed = False
        summary = {
            "estimator": "sigma0", "truth": truth, "replicates": n_rep,
            "n_degenerate": n_bad,
            "mean_estimate": float(np.mean(ests)) if len(good) else float("nan"),
            "bias_rel": bias_rel, "rmse": rmse, "mean_se": mean_se,
        }
        return _report(cfg, rows, summary, passed)

    if estimator == "coverage":
        target = cfg["model.sigma.value"] ** 2 * design.horizon
        for i in range(n_rep):
            rep = integrated_variance_interval(series[i], design, alpha, level=level)
            covered = rep.ci_low <= target <= rep.ci_high
            rows.append({"replicate": i, "estimate": rep.estimate,
                         "ci_low": rep.ci_low, "ci_high": rep.ci_high,
                         "covered": int(covered)})
        coverage = float(np.mean([row["covered"] for row in rows]))
        passed = (cfg["tolerances.coverage_low"] <= coverage
                  <= cfg["tolerances.coverage_high"])
        summary = {"estimator": "coverage", "target": target, "level": level,
                   "replicates": n_rep, "coverage": coverage}
        return _report(cfg, rows, summary, passed)

    for i in range(n_rep):
        rep = estimate_alpha(series[i], design, level=level)
        rows.append({"replicate": i, "estimate": rep.estimate,
                     "se": rep.se, "ratio": rep.diagnostics["two_scale_ratio"]})
    ests = np.array([row["estimate"] for row in rows])
    bias = float(np.mean(ests) - alpha)
    passed = abs(bias) <= cfg["tolerances.alpha_bias"]
    summary = {"estimator": "alpha", "truth": alpha, "replicates": n_rep,
               "mean_estimate": float(np.mean(ests)), "bias": bias,
               "sd": float(np.std(ests, ddof=1))}
    return _report(cfg, rows, summary, passed)


# ---------------------------------------------------------------------------
# experiment: scaling
# ---------------------------------------------------------------------------


def run_scaling(cfg: Config, workers: int | None = None) -> ExperimentReport:
    """Temporal (and optionally spatial) regularity exponents by regression."""
    alphas = [float(a) for a in cfg["scaling.alphas"]]
    lags = [int(l) for l in cfg["scaling.lags"]]
    n_rep = cfg["replicates"]
    design = _design_from(cfg)
    rows = []

    def add(a, kind, slope, target, tol):
        rows.append({"alpha": a, "kind": kind, "slope": slope, "target": target,
                     "abs_dev": abs(slope - target), "tolerance": tol,
                     "pass": abs(slope - target) <= tol})

    for idx, a in enumerate(alphas):
        model = ModelSpec(noise=NoiseParams(a, 1), sigma=SigmaConstant(1.0),
                          u0=U0Constant(0.0))
        for driver, salt in (("exact", 0), ("spde", 100)):
            if cfg[f"scaling.{driver}"]:
                paths = _sample_paths(model, design, driver,
                                      _streams(cfg, n_rep, salt=salt + idx),
                                      workers).drop_burn_in()
                add(a, f"temporal_{driver}", moment_scaling_check(paths, lags).slope,
                    0.5 - a / 4.0, cfg[f"tolerances.slope_{driver}"])
        if cfg["scaling.spatial"]:
            # near-stationary additive field: spatial structure function obeys
            # the regularity law for shifts well inside the correlation length
            shifts = [int(s) for s in cfg["scaling.spatial_shifts"]]
            spacing = 1.0 / (64 * max(shifts))
            pts = tuple(np.arange(4 * max(shifts)) * spacing)
            spatial = SamplingDesign(
                delta_n=5e-4, horizon=0.15, points=pts, n_lags=1,
                spatial_modes=max(2048, cfg["design.spatial_modes"]),
                oversampling=1, burn_in=100)
            paths = _sample_paths(model, spatial, "spde",
                                  _streams(cfg, n_rep, salt=200 + idx),
                                  workers).drop_burn_in()
            add(a, "spatial_spde", spatial_scaling_check(paths, shifts).slope,
                1.0 - a / 2.0, cfg["tolerances.slope_spatial"])

    passed = all(row["pass"] for row in rows)
    summary = {
        "alphas": alphas,
        "slopes": {f'{row["kind"]}@{row["alpha"]}': row["slope"] for row in rows},
        "max_abs_dev": max(row["abs_dev"] for row in rows),
    }
    return _report(cfg, rows, summary, passed)


# ---------------------------------------------------------------------------
# experiment: simulate (path dump)
# ---------------------------------------------------------------------------


def run_simulate(cfg: Config, workers: int | None = None,
                 out_dir=None) -> ExperimentReport:
    """Generate and (optionally) dump sample paths."""
    n_rep = cfg["replicates"]
    # the dump keeps the burn-in: it shows every simulated observation
    paths = _sample_paths(_model_from(cfg), _design_from(cfg), cfg["driver"],
                          _streams(cfg, n_rep), workers)
    rows = [{"replicate": i, "n_times": len(paths.times),
             "final_value_x1": float(paths.values[i, -1, 0]),
             "max_abs": float(np.max(np.abs(paths.values[i])))}
            for i in range(n_rep)]
    files = []
    if out_dir is not None:
        pdir = os.path.join(out_dir, "paths")
        os.makedirs(pdir, exist_ok=True)
        for i in range(n_rep):
            files.append(f"path_{i:04d}.csv")
            paths.panel(i).to_csv(os.path.join(pdir, files[-1]))
    summary = {"n_paths": n_rep, "files": files, "driver": cfg["driver"]}
    return _report(cfg, rows, summary, True)


# ---------------------------------------------------------------------------
# dispatch and verification
# ---------------------------------------------------------------------------

_RUNNERS = {
    "identities": run_identities,
    "lln": run_lln,
    "clt": run_clt,
    "estimate": run_estimation,
    "scaling": run_scaling,
    "simulate": run_simulate,
}


def run_experiment(cfg: Config, workers: int | None = None,
                   out_dir=None) -> ExperimentReport:
    if cfg.kind == "simulate":
        report = run_simulate(cfg, workers=workers, out_dir=out_dir)
    else:
        report = _RUNNERS[cfg.kind](cfg, workers=workers)
    if out_dir is not None:
        report.write(out_dir)
    return report


def verify_report(path) -> bool:
    """Re-run the embedded config of a stored report and compare payloads.

    Timestamps and library versions are excluded; rows and summary must match
    exactly (every runner is deterministic given its config and seed).
    """
    stored = ExperimentReport.read(path)
    cfg = parse_config(stored.config_text)
    if cfg.hash() != stored.config_hash:
        return False
    fresh = _RUNNERS[cfg.kind](cfg)
    stored_summary = {k: v for k, v in stored.summary.items() if k != "files"}
    fresh_summary = {k: v for k, v in fresh.summary.items() if k != "files"}
    stored_payload = json.loads(json.dumps({"rows": stored.rows,
                                            "summary": stored_summary}))
    fresh_payload = json.loads(json.dumps({"rows": fresh.rows,
                                           "summary": fresh_summary}))
    return stored_payload == fresh_payload
