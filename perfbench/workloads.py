"""The four benchmark workloads: their inputs, one round of work, and checks.

A round is a fixed list of operations.  ``spde-*`` and ``exact-additive``
run experiments through ``run_experiment`` with an output directory, as the
command line does; ``limit-series`` calls the public ``limit_covariance``.
Every check reads the written ``replicates.csv`` (or the returned
coefficient) and compares it with values from :mod:`reference`, never with
the program's own summary.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass

import numpy as np

import reference

import shevar.gaussian_limits as gl
from shevar.harness import default_config, run_experiment
from shevar.simulate import scheme_increment_variance

# smallest p-value a statistical check accepts: with a handful of checks per
# run, a correct program fails a run about once in 10^5 runs
P_MIN = 1e-6
ALPHA = 0.5
# acceptance-7 observation step, on a shorter horizon
SPDE_STEP = 0.01 / 4096
SPDE_N = 128
SPDE_MODES = 1024
SPDE_REPLICATES = 24
LIMIT_ALPHAS = (0.25, 0.5, 0.75)
LIMIT_POWERS = (1.0, 1.5, 2.0, 3.0, 4.0)
# coefficient tolerance: far tighter than the CLT variance gate of 0.15
LIMIT_REL_TOL = 1e-2
LLN_SLOPE_TOL = 0.1
COVERAGE_SLACK = 0.02
ALPHA_BIAS_TOL = 0.05


@dataclass
class Op:
    """One operation of a round: a name, whether it raised, and its output."""

    name: str
    error: str = ""
    output: object = None


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""

    def __post_init__(self):
        self.passed = bool(self.passed)


class Workload:
    """Experiments run through ``run_experiment``; round r has its own seed."""

    def __init__(self, seed: int, make_configs):
        self.seed = seed
        self._make_configs = make_configs

    def configs(self, r: int) -> dict:
        """Configs of round r: seeds ``(seed * 1000 + r) * 8 + k``."""
        return self._make_configs((self.seed * 1000 + r) * 8)

    def run_round(self, configs: dict, out_dir) -> list:
        ops = []
        for key, cfg in configs.items():
            target = os.path.join(out_dir, key)
            try:
                run_experiment(cfg, workers=cfg["threads"], out_dir=target)
                with open(os.path.join(target, "replicates.csv"), "rb") as fh:
                    ops.append(Op(key, output=fh.read()))
            except Exception as exc:  # an operation that fails is counted, not fatal
                ops.append(Op(key, error=f"{type(exc).__name__}: {exc}"))
        return ops

    def check(self, rounds) -> tuple:
        """(checks, failed operation count) over the rows of all rounds."""
        checks = []
        cfgs = self.configs(0)
        for key, cfg in cfgs.items():
            tables = [_columns(op.output) for ops in rounds for op in ops
                      if op.name == key and not op.error]
            if tables:
                cols = {c: np.concatenate([t[c] for t in tables]) for c in tables[0]}
                checks.extend(CHECKS[key](cfg, cols, len(tables)))
        return checks, sum(1 for ops in rounds for op in ops if op.error)


class LimitSeries:
    """Series coefficients C(alpha, p) of f = |z|^p on a fixed grid.

    The grid does not depend on the seed: a coefficient that misses its
    reference misses it in every round, so it counts as a failed operation.
    """

    def configs(self, r: int) -> dict:
        return {f"C({a},{p})": (a, p) for a in LIMIT_ALPHAS for p in LIMIT_POWERS}

    def run_round(self, configs: dict, out_dir) -> list:
        ops = []
        for name, (alpha, p) in configs.items():
            try:
                law = gl.limit_covariance(
                    gl.EvaluationFunction.abs_power(p), np.array([0.0, 1.0]),
                    np.ones((2, 1)), np.array([1.0]), alpha)
                ops.append(Op(name, output=(alpha, p, float(law.c_path[0, 0, 0]))))
            except Exception as exc:
                ops.append(Op(name, error=f"{type(exc).__name__}: {exc}"))
        return ops

    def check(self, rounds) -> tuple:
        refs = {}
        failed = 0
        for ops in rounds:
            for op in ops:
                if op.error:
                    failed += 1
                    continue
                alpha, p, value = op.output
                if (alpha, p) not in refs:
                    refs[alpha, p] = reference.series_coefficient(alpha, p)
                if not abs(value - refs[alpha, p]) <= LIMIT_REL_TOL * abs(refs[alpha, p]):
                    failed += 1
        return [], failed


def build(name: str, seed: int):
    """The workload ``name`` with its inputs drawn from ``seed``."""
    if name == "spde-multiplicative":
        return Workload(seed, lambda s: {"clt": _spde_config(s, "linear")})
    if name == "spde-additive":
        return Workload(seed, lambda s: {"clt": _spde_config(s, "constant")})
    if name == "exact-additive":
        return Workload(seed, _exact_configs)
    if name == "limit-series":
        return LimitSeries()
    raise KeyError(name)


NAMES = ("spde-multiplicative", "spde-additive", "exact-additive", "limit-series")


def _spde_config(seed, sigma_kind):
    return default_config("clt").replace(**{
        "driver": "spde",
        "model.alpha": ALPHA,
        "model.sigma.kind": sigma_kind,
        "model.sigma.sigma0": 0.5,
        "model.sigma.value": 1.0,
        "model.u0.kind": "constant",
        "model.u0.value": 1.0,
        "functional.p": 2.0,
        "design.n": SPDE_N,
        "design.horizon": SPDE_N * SPDE_STEP,
        "design.spatial_modes": SPDE_MODES,
        "design.oversampling": 16,
        "design.burn_in": -1,
        "clt.normalization": "scheme",
        "replicates": SPDE_REPLICATES,
        "seed": seed,
        "threads": 1,
    })


def _exact_configs(seed):
    common = {"driver": "exact", "model.alpha": ALPHA, "threads": 1}
    return {
        "clt": default_config("clt").replace(**common, **{
            "functional.p": 2.0, "design.n": 2 ** 14, "design.horizon": 1.0,
            "replicates": 500, "seed": seed}),
        "lln": default_config("lln").replace(**common, **{
            "functional.powers": [2.0, 4.0], "lln.ladder": [10, 11, 12, 13, 14, 15, 16],
            "replicates": 100, "seed": seed + 1}),
        "coverage": default_config("estimate").replace(**common, **{
            "estimate.estimator": "coverage", "model.sigma.value": 1.0,
            "design.n": 2 ** 12, "design.horizon": 1.0, "replicates": 250,
            "seed": seed + 2}),
        "alpha": default_config("estimate").replace(**common, **{
            "estimate.estimator": "alpha", "design.n": 2 ** 12, "design.horizon": 1.0,
            "replicates": 250, "seed": seed + 3}),
    }


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _columns(csv_bytes) -> dict:
    rows = list(csv.DictReader(io.StringIO(csv_bytes.decode())))
    return {key: np.array([float(row[key]) for row in rows]) for key in rows[0]}


def _rel(a, b) -> float:
    return abs(a - b) / abs(b)


# scipy.stats is imported by the checks only, after the timed rounds, so
# that its import does not count as the program's set-up


def _mean_p(x, mu=0.0) -> float:
    """Two-sided t-test p-value of ``mean(x) == mu``."""
    from scipy import stats

    return float(stats.ttest_1samp(x, mu).pvalue)


def _variance_p(x, var) -> float:
    """Two-sided chi-square p-value of ``Var(x) == var``."""
    from scipy import stats

    dof = len(x) - 1
    q = dof * float(np.var(x, ddof=1)) / var
    return float(2.0 * min(stats.chi2.cdf(q, dof), stats.chi2.sf(q, dof)))


def _gaussian_checks(prefix, x, var) -> list:
    """Mean 0, variance ``var`` and KS normality of ``x / sqrt(var)``."""
    from scipy import stats

    p_mean = _mean_p(x)
    p_var = _variance_p(x, var)
    p_ks = float(stats.kstest(x / math.sqrt(var), "norm").pvalue)
    ratio = float(np.var(x, ddof=1)) / var
    return [
        Check(f"{prefix}.mean", p_mean >= P_MIN,
              f"mean {np.mean(x):.4g}, t-test p {p_mean:.3g}"),
        Check(f"{prefix}.variance_ratio", p_var >= P_MIN,
              f"ratio {ratio:.4f}, chi-square p {p_var:.3g}"),
        Check(f"{prefix}.ks", p_ks >= P_MIN, f"KS p {p_ks:.3g}"),
    ]


def _clt_rows_checks(cfg, cols, n_rounds) -> list:
    """Row count, finiteness and the algebra linking the written columns."""
    stat, stud, c_plug = cols["stat"], cols["studentized"], cols["c_plug"]
    halves = cols["stat_first_half"] + cols["stat_second_half"]
    finite = all(np.all(np.isfinite(v)) for v in cols.values())
    return [
        Check("clt.rows", len(stat) == cfg["replicates"] * n_rounds and finite,
              f"{len(stat)} rows, finite {finite}"),
        Check("clt.studentized_algebra",
              bool(np.allclose(stud * np.sqrt(c_plug), stat, rtol=1e-9, atol=1e-12)
                   and np.allclose(halves, stat, rtol=1e-9, atol=1e-9))),
    ]


def check_spde(cfg, cols, n_rounds) -> list:
    """Studentized statistic of the SPDE run: no bias, unit variance, normal."""
    alpha, n = cfg["model.alpha"], cfg["design.n"]
    delta = cfg["design.horizon"] / n
    modes = cfg["design.spatial_modes"]
    out = _clt_rows_checks(cfg, cols, n_rounds)
    tau_ref = reference.scheme_increment_variance(alpha, delta, modes)
    tau_prog = scheme_increment_variance(alpha, delta, modes)
    out.append(Check("scheme_variance", _rel(tau_prog, tau_ref) <= 1e-10,
                     f"program {tau_prog!r}, reference {tau_ref!r}"))
    out.extend(_gaussian_checks("clt.studentized", cols["studentized"], 1.0))
    if cfg["model.sigma.kind"] == "constant":
        # sigma = 1: the plug-in variance is C(alpha, 2) T and, with increments
        # normalised by the scheme variance, E V^n_2(T) = T
        horizon = n * delta
        c_ref = reference.series_coefficient(alpha, 2.0)
        c_prog = float(np.mean(cols["c_plug"])) / horizon
        out.append(Check("series_factor", _rel(c_prog, c_ref) <= 1e-6,
                         f"program {c_prog!r}, reference {c_ref!r}"))
        p_level = _mean_p(cols["v_n"] / horizon, 1.0)
        out.append(Check("increment_variance", p_level >= P_MIN,
                         f"mean V/T {np.mean(cols['v_n']) / horizon:.5f}, p {p_level:.3g}"))
    return out


def check_exact_clt(cfg, cols, n_rounds) -> list:
    alpha, horizon = cfg["model.alpha"], cfg["design.horizon"]
    c_ref = reference.series_coefficient(alpha, 2.0)
    out = _clt_rows_checks(cfg, cols, n_rounds)
    c_prog = float(np.mean(cols["c_plug"])) / horizon
    out.append(Check("clt.series_factor", _rel(c_prog, c_ref) <= 1e-6,
                     f"program {c_prog!r}, reference {c_ref!r}"))
    out.extend(_gaussian_checks("clt.stat", cols["stat"], c_ref * horizon))
    return out


def check_lln(cfg, cols, n_rounds) -> list:
    """Error recomputed from V^n_p, its n^(-1/2) slope, and the rung means."""
    ladder = [int(e) for e in cfg["lln.ladder"]]
    out = []
    n_tests = len(ladder) * len(cfg["functional.powers"])
    for p in cfg["functional.powers"]:
        m_p = reference.abs_moment(p)
        sel = cols["p"] == p
        v, err = cols["v_n"][sel], cols["abs_error"][sel]
        log2n = cols["log2_n"][sel]
        recomputed = bool(np.allclose(err, np.abs(v - m_p), rtol=1e-9, atol=1e-15))
        means, worst = [], 1.0
        for e in ladder:
            rung = v[log2n == e]
            means.append(float(np.mean(np.abs(rung - m_p))))
            worst = min(worst, _mean_p(rung, m_p))
        slope = float(np.polyfit(ladder, np.log2(means), 1)[0])
        out.append(Check(f"lln.p{p:g}.error_column", recomputed))
        out.append(Check(f"lln.p{p:g}.slope", abs(slope + 0.5) <= LLN_SLOPE_TOL,
                         f"slope {slope:.4f}"))
        out.append(Check(f"lln.p{p:g}.unbiased", worst >= P_MIN / n_tests,
                         f"smallest rung p {worst:.3g}"))
    return out


def check_coverage(cfg, cols, n_rounds) -> list:
    """Recomputed coverage of sigma^2 T inside a binomial band at the level.

    The band is the binomial half-width at P_MIN plus COVERAGE_SLACK, since
    the plug-in interval is asymptotic and need not cover at exactly the
    level.
    """
    from scipy import stats

    level = cfg["estimate.level"]
    target = cfg["model.sigma.value"] ** 2 * cfg["design.horizon"]
    covered = (cols["ci_low"] <= target) & (target <= cols["ci_high"])
    n = len(covered)
    coverage = float(np.mean(covered))
    half = COVERAGE_SLACK + stats.norm.isf(P_MIN / 2) * math.sqrt(level * (1 - level) / n)
    return [
        Check("coverage.column", bool(np.array_equal(covered, cols["covered"] == 1))),
        Check("coverage.band", abs(coverage - level) <= half,
              f"coverage {coverage:.4f} of {n}, band {level} +- {half:.4f}"),
    ]


def check_alpha(cfg, cols, n_rounds) -> list:
    mean = float(np.mean(cols["estimate"]))
    return [Check("alpha.bias", abs(mean - cfg["model.alpha"]) <= ALPHA_BIAS_TOL,
                  f"mean estimate {mean:.4f}")]


def check_clt(cfg, cols, n_rounds) -> list:
    if cfg["driver"] == "spde":
        return check_spde(cfg, cols, n_rounds)
    return check_exact_clt(cfg, cols, n_rounds)


CHECKS = {"clt": check_clt, "lln": check_lln, "coverage": check_coverage,
          "alpha": check_alpha}
