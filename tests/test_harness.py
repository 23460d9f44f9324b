"""Experiment harness: configs, goodness of fit, runners, reports, CLI."""

import inspect
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.special import kolmogorov, ndtr

import shevar
import shevar.harness as harness
from shevar.cli import main as cli_main
from shevar.gaussian_limits import EvaluationFunction, limit_covariance, rho
from shevar.harness import (
    Config,
    ConfigError,
    ExperimentReport,
    default_config,
    ks_statistic,
    load_config,
    parse_config,
    run_experiment,
    verify_report,
)
from shevar.inference import estimate_sigma0, spot_variance
from shevar.kernels import NoiseParams, tau_n
from shevar.simulate import (
    ModelSpec,
    RngStream,
    SigmaLinear,
    U0Constant,
    scheme_increment_variance,
    simulate_spde_batch,
    simulate_stationary_increments_batch,
)
from shevar.variations import SamplingDesign, extract_increments, variation_functional


class TestConfig:
    def test_defaults_valid(self):
        for kind in ("identities", "lln", "clt", "estimate", "scaling", "simulate"):
            cfg = default_config(kind)
            assert cfg.kind == kind
            assert cfg["seed"] == 20240617

    def test_round_trip_lossless(self):
        cfg = default_config("clt").replace(**{
            "driver": "spde", "model.alpha": 0.75, "design.points": [0.0, 0.25],
            "clt.normalization": "continuum"})
        again = parse_config(cfg.text())
        assert again.data == cfg.data
        assert again.hash() == cfg.hash()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("experiment = clt\nmodel.alpa = 0.5\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("experiment = clt\nreplicates = 3.7\n")

    def test_comments_and_lists(self):
        cfg = parse_config(
            "experiment = lln  # kind\n"
            "lln.ladder = 8, 9, 10\n"
            "functional.powers = 2.0, 4.0\n",
            base=default_config("lln"))
        assert [int(v) for v in cfg["lln.ladder"]] == [8, 9, 10]

    def test_malformed_line(self):
        with pytest.raises(ConfigError):
            parse_config("experiment clt\n")

    def test_file_loading(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text("experiment = clt\nreplicates = 12\n")
        cfg = load_config(p, base=default_config("clt"))
        assert cfg["replicates"] == 12

    def test_wrong_experiment_in_file(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text("experiment = lln\n")
        with pytest.raises(ConfigError):
            load_config(p, base=default_config("clt"))

    def test_unknown_driver_rejected(self):
        with pytest.raises(ConfigError, match="driver"):
            default_config("clt").replace(driver="spd")

    def test_unknown_normalization_rejected(self):
        with pytest.raises(ConfigError, match="clt.normalization"):
            default_config("clt").replace(**{"clt.normalization": "scheem"})

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ConfigError, match="estimate.estimator"):
            default_config("estimate").replace(**{"estimate.estimator": "sigma"})

    def test_lln_on_spde_rejected(self):
        with pytest.raises(ConfigError, match="exact"):
            default_config("lln").replace(driver="spde")

    @pytest.mark.parametrize("estimator", ["coverage", "alpha"])
    def test_exact_only_estimators_on_spde_rejected(self, estimator):
        with pytest.raises(ConfigError, match="exact"):
            default_config("estimate").replace(**{
                "estimate.estimator": estimator, "driver": "spde"})

    @pytest.mark.parametrize("kind", ["linear", "affine"])
    def test_exact_driver_with_nonconstant_sigma_rejected(self, kind):
        with pytest.raises(ConfigError, match="model.sigma.kind"):
            default_config("simulate").replace(**{"model.sigma.kind": kind})

    @pytest.mark.parametrize("kind,extra", [
        ("clt", {}),
        ("estimate", {}),
        ("simulate", {}),
        ("scaling", {"scaling.exact": True}),
    ])
    def test_exact_sampler_with_several_points_rejected(self, kind, extra):
        # the exact sampler draws one point, so a second one would be dropped
        with pytest.raises(ConfigError, match="design.points"):
            default_config(kind).replace(**{"driver": "exact",
                                            "design.points": [0.0, 0.5], **extra})

    def test_continuum_normalization_on_exact_rejected(self):
        # the exact sampler is normalised by tau_n whatever the key says
        with pytest.raises(ConfigError, match="clt.normalization"):
            default_config("clt").replace(**{"clt.normalization": "continuum"})

    def test_several_lags_rejected(self):
        # every runner builds a one-lag f, so design.lags = 2 would be ignored
        with pytest.raises(ConfigError, match="design.lags"):
            default_config("clt").replace(**{"design.lags": 2})

    def test_other_dimension_rejected(self):
        with pytest.raises(ConfigError, match="model.dim"):
            default_config("clt").replace(**{"driver": "spde", "model.dim": 2})

    def test_no_replicates_rejected(self):
        with pytest.raises(ConfigError, match="replicates"):
            default_config("clt").replace(replicates=0)

    def test_negative_threads_rejected(self):
        with pytest.raises(ConfigError, match="threads"):
            default_config("clt").replace(threads=-1)


class TestKolmogorovSmirnov:
    """Statistic validated against brute force over the empirical CDF."""

    @staticmethod
    def brute_force(sample):
        x = np.sort(np.asarray(sample, float))
        n = len(x)
        best = 0.0
        for i, xi in enumerate(x):
            f = ndtr(xi)
            best = max(best, abs((i + 1) / n - f), abs(i / n - f))
        return best

    def test_hand_checked_single_zero(self):
        assert ks_statistic([0.0]) == pytest.approx(0.5, abs=1e-15)

    def test_hand_checked_pair(self):
        # F(-0.5) = 0.30854, F(0.5) = 0.69146: D = 0.30854 at the edges
        assert ks_statistic([-0.5, 0.5]) == pytest.approx(0.3085375387259869,
                                                          abs=1e-12)

    def test_hand_checked_triple(self):
        assert ks_statistic([-1.0, 0.0, 1.0]) == pytest.approx(
            self.brute_force([-1.0, 0.0, 1.0]), abs=1e-15)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_brute_force_random(self, seed):
        x = np.random.default_rng(seed).standard_normal(50)
        assert ks_statistic(x) == pytest.approx(self.brute_force(x), abs=1e-14)

    def test_normal_sample_not_rejected(self):
        x = np.random.default_rng(11).standard_normal(500)
        d = ks_statistic(x)
        assert kolmogorov(math.sqrt(500) * d) > 0.01

    def test_shifted_sample_rejected(self):
        x = np.random.default_rng(12).standard_normal(500) + 1.0
        assert kolmogorov(math.sqrt(500) * ks_statistic(x)) < 1e-6


class TestRunners:
    def test_identities_small(self):
        cfg = default_config("identities").replace(**{
            "identities.alphas": [0.25, 0.75],
            "identities.partial_sum_r": 10 ** 5,
            "identities.pi_r_max": 8,
            "identities.rho_r_max": 3,
            "identities.mc_pairs": 40_000,
        })
        rep = run_experiment(cfg)
        assert rep.passed
        assert rep.summary["max_pi_mass_error"] <= 1e-6

    def test_lln_smoke(self):
        cfg = default_config("lln").replace(**{
            "lln.ladder": [9, 10, 11, 12], "replicates": 200})
        rep = run_experiment(cfg)
        assert rep.passed
        for slope in rep.summary["slopes"].values():
            assert abs(slope + 0.5) <= 0.1

    def test_clt_exact_smoke(self):
        cfg = default_config("clt").replace(**{
            "design.n": 2048, "replicates": 300})
        rep = run_experiment(cfg)
        assert rep.passed
        assert rep.summary["ks_pvalue"] > 0.01

    def test_clt_exact_abs_power_one(self):
        # p = 1 is studentised by the Nabeya series; the gates are the defaults
        cfg = default_config("clt").replace(**{
            "driver": "exact", "model.alpha": 0.5, "functional.p": 1.0,
            "design.n": 2 ** 12, "replicates": 400})
        rep = run_experiment(cfg)
        assert rep.passed, rep.summary

    def test_estimate_sigma0_abs_power_one(self):
        alpha, n = 0.5, 2 ** 12
        design = SamplingDesign(delta_n=1.0 / n, horizon=1.0)
        scale = tau_n(NoiseParams(alpha, 1), design.delta_n)
        z = simulate_stationary_increments_batch(alpha, n, [RngStream(31, 0)])[0]
        u = np.concatenate([[0.0], np.cumsum(scale * z)])
        t0 = time.perf_counter()
        rep = estimate_sigma0(1.0, u, design, alpha, force_unit_denominator=True)
        assert time.perf_counter() - t0 < 1.0
        unit = limit_covariance(EvaluationFunction.abs_power(1.0), np.array([0.0, 1.0]),
                                np.ones((2, 1)), np.array([1.0]), alpha)
        w_hat = spot_variance(np.diff(u) / scale, delta_n=design.delta_n)
        expected = unit.c_path[0, 0, 0] * design.delta_n * float(np.sum(w_hat))
        assert rep.diagnostics["plugin_variance"] == pytest.approx(expected, rel=1e-12)

    def test_estimate_sigma0_spde_uses_scheme_variance(self):
        # the scheme's increments are normalised by its own variance, as in
        # run_clt, not by the continuum tau_n
        cfg = default_config("estimate").replace(**{
            "driver": "spde", "model.sigma.kind": "linear",
            "model.sigma.sigma0": 0.5, "design.n": 256, "design.horizon": 0.01,
            "design.spatial_modes": 256, "design.oversampling": 2,
            "replicates": 3, "seed": 41})
        rep = run_experiment(cfg)
        alpha = cfg["model.alpha"]
        design = SamplingDesign(delta_n=0.01 / 256, horizon=0.01,
                                spatial_modes=256, oversampling=2)
        model = ModelSpec(noise=NoiseParams(alpha, 1), sigma=SigmaLinear(0.5),
                          u0=U0Constant(1.0))
        paths = simulate_spde_batch(model, design, [RngStream(41, i) for i in range(3)],
                                    workers=1).drop_burn_in()
        tau = math.sqrt(scheme_increment_variance(alpha, design.delta_n, 256))
        for i, row in enumerate(rep.rows):
            want = estimate_sigma0(2.0, paths.values[i, :, 0], design, alpha, tau=tau)
            assert row["estimate"] == want.estimate
            assert row["se"] == want.se

    def test_clt_spde_rows_follow_the_limit_law(self):
        # each row is centred and studentised by limit_covariance on the
        # replicate stack of sigma(u)^2 paths
        cfg = default_config("clt").replace(**{
            "driver": "spde", "model.sigma.kind": "linear",
            "model.sigma.sigma0": 0.5, "design.n": 256, "design.horizon": 0.01,
            "design.spatial_modes": 256, "design.oversampling": 2,
            "replicates": 3, "seed": 43})
        rep = run_experiment(cfg)
        alpha = cfg["model.alpha"]
        design = SamplingDesign(delta_n=0.01 / 256, horizon=0.01,
                                spatial_modes=256, oversampling=2)
        model = ModelSpec(noise=NoiseParams(alpha, 1), sigma=SigmaLinear(0.5),
                          u0=U0Constant(1.0))
        paths = simulate_spde_batch(model, design, [RngStream(43, i) for i in range(3)],
                                    workers=1).drop_burn_in()
        tau = math.sqrt(scheme_increment_variance(alpha, design.delta_n, 256))
        panel = extract_increments(paths.values, design, alpha, tau=tau)
        f = EvaluationFunction.abs_power(2.0)
        t_grid = [128 * design.delta_n, design.horizon]
        v_n = variation_functional(f, panel, design, t_grid)[..., 1, 0]
        law = limit_covariance(f, design.times(), np.square(0.5 * paths.values),
                               t_grid, alpha)
        stat = (v_n - law.v_path[:, 1, 0]) / math.sqrt(design.delta_n)
        for i, row in enumerate(rep.rows):
            assert row["stat"] == stat[i]
            assert row["c_plug"] == law.c_path[i, 1, 0, 0]

    def test_clt_rejects_alpha_one(self):
        cfg = default_config("clt").replace(**{"model.alpha": 1.0})
        with pytest.raises(ValueError, match="alpha in \\(0, 1\\)"):
            run_experiment(cfg)

    def test_clt_spde_smoke(self):
        cfg = default_config("clt").replace(**{
            "driver": "spde", "model.sigma.kind": "linear",
            "model.sigma.sigma0": 0.5, "design.n": 256,
            "design.horizon": 0.01, "design.spatial_modes": 512,
            "design.oversampling": 4, "design.burn_in": 32,
            "replicates": 80})
        rep = run_experiment(cfg)
        assert rep.summary["ks_pvalue"] > 0.001
        assert abs(rep.summary["mean_studentized"]) < 0.5

    def test_estimate_coverage_smoke(self):
        cfg = default_config("estimate").replace(**{
            "estimate.estimator": "coverage", "design.n": 4096,
            "replicates": 120})
        rep = run_experiment(cfg)
        assert rep.passed
        assert 0.85 <= rep.summary["coverage"] <= 1.0

    def test_estimate_alpha_smoke(self):
        cfg = default_config("estimate").replace(**{
            "estimate.estimator": "alpha", "design.n": 2 ** 13,
            "replicates": 40})
        rep = run_experiment(cfg)
        assert rep.passed

    def test_estimate_degenerate_completes(self):
        # linear coefficient with u0 = 0 pins the path at zero, so every
        # replicate's denominator vanishes; the run must still complete
        cfg = default_config("estimate").replace(**{
            "estimate.estimator": "sigma0", "driver": "spde",
            "model.sigma.kind": "linear", "model.sigma.sigma0": 0.5,
            "model.u0.value": 0.0, "design.n": 64, "design.horizon": 0.01,
            "design.spatial_modes": 256, "design.oversampling": 1,
            "design.burn_in": 0, "replicates": 5})
        rep = run_experiment(cfg)
        assert not rep.passed
        assert rep.summary["n_degenerate"] == 5
        assert all(row["error"] for row in rep.rows)

    def test_scaling_smoke(self):
        cfg = default_config("scaling").replace(**{
            "replicates": 8, "design.n": 2 ** 13})
        rep = run_experiment(cfg)
        assert rep.passed

    def test_simulate_exact_paths_are_cumulated_increments(self, tmp_path):
        cfg = default_config("simulate").replace(**{
            "replicates": 3, "design.n": 128, "model.sigma.value": 1.5,
            "seed": 77})
        run_experiment(cfg, out_dir=str(tmp_path))
        delta = cfg["design.horizon"] / cfg["design.n"]
        scale = 1.5 * tau_n(NoiseParams(cfg["model.alpha"], 1), delta)
        z = simulate_stationary_increments_batch(
            cfg["model.alpha"], 128, [RngStream(77, i) for i in range(3)])
        for i in range(3):
            dumped = np.loadtxt(tmp_path / "paths" / f"path_{i:04d}.csv",
                                delimiter=",", skiprows=1)
            assert np.array_equal(dumped[:, 0], delta * np.arange(129))
            assert np.array_equal(dumped[:, 1],
                                  np.concatenate([[0.0], np.cumsum(scale * z[i])]))

    def test_simulate_writes_paths(self, tmp_path):
        cfg = default_config("simulate").replace(**{"replicates": 2})
        rep = run_experiment(cfg, out_dir=str(tmp_path))
        assert rep.passed
        assert (tmp_path / "paths" / "path_0000.csv").exists()
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "replicates.csv").exists()


class TestExactBlocks:
    """The exact driver draws and reduces its replicates block by block."""

    REPLICATES = 7
    CONFIGS = {
        "clt_p1": ("clt", {"functional.p": 1.0, "design.n": 256}),
        "clt_p2": ("clt", {"functional.p": 2.0, "design.n": 256}),
        "lln": ("lln", {"functional.powers": [2.0, 1.5], "lln.ladder": [6, 7, 8]}),
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_rows_do_not_depend_on_block_size(self, name, monkeypatch):
        kind, over = self.CONFIGS[name]
        r = self.REPLICATES
        cfg = default_config(kind).replace(**over, replicates=r)
        sizes = ([2 ** e for e in over["lln.ladder"]] if kind == "lln"
                 else [over["design.n"]])
        sampler = harness.simulate_stationary_increments_batch
        calls = []

        def counted(alpha, n_steps, streams):
            calls.append(len(streams))
            return sampler(alpha, n_steps, streams)

        monkeypatch.setattr(harness, "simulate_stationary_increments_batch", counted)
        reports = []
        # one replicate per block, a ragged last block, one block per run
        for block in (min(sizes), 3 * max(sizes), r * max(sizes)):
            monkeypatch.setattr(harness, "_EXACT_BLOCK", block)
            calls.clear()
            reports.append(run_experiment(cfg))
            per_block = [max(1, block // n) for n in sizes]
            assert calls == [min(k, r - i) for k in per_block for i in range(0, r, k)]
        for rep in reports[1:]:
            assert rep.rows == reports[0].rows
            assert rep.summary == reports[0].summary

    def test_clt_memory_does_not_grow_with_replicates(self):
        # a (500, 2^14) stack of increments alone is 64 MB
        script = (
            "import resource\n"
            "from shevar.harness import default_config, run_experiment\n"
            "cfg = default_config('clt').replace(**{'design.n': 2 ** 14,\n"
            "    'replicates': 500, 'functional.p': 2.0})\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "run_experiment(cfg, workers=1)\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print((after - before) / 1024.0)\n"
        )
        src = os.path.dirname(os.path.dirname(shevar.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert float(out) < 64.0


class TestReports:
    def small_cfg(self):
        return default_config("clt").replace(**{
            "design.n": 512, "replicates": 40})

    def test_summary_recomputable_and_verify(self, tmp_path):
        rep = run_experiment(self.small_cfg(), out_dir=str(tmp_path))
        assert verify_report(tmp_path / "report.json")

    def test_tampered_report_detected(self, tmp_path):
        run_experiment(self.small_cfg(), out_dir=str(tmp_path))
        path = tmp_path / "report.json"
        payload = json.loads(path.read_text())
        payload["summary"]["ks_pvalue"] = 0.123456
        path.write_text(json.dumps(payload))
        assert not verify_report(path)

    def test_report_embeds_config_hash(self, tmp_path):
        cfg = self.small_cfg()
        rep = run_experiment(cfg, out_dir=str(tmp_path))
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["config_hash"] == cfg.hash()
        assert payload["provenance"]["config_hash"] == cfg.hash()

    def test_reproducible_across_runs_and_threads(self, tmp_path):
        cfg = self.small_cfg()
        a = run_experiment(cfg, workers=1, out_dir=str(tmp_path / "a"))
        b = run_experiment(cfg, workers=2, out_dir=str(tmp_path / "b"))
        assert a.rows == b.rows
        csv_a = (tmp_path / "a" / "replicates.csv").read_bytes()
        csv_b = (tmp_path / "b" / "replicates.csv").read_bytes()
        assert csv_a == csv_b

    def test_spde_reproducible_across_threads(self, tmp_path):
        cfg = default_config("clt").replace(**{
            "driver": "spde", "model.sigma.kind": "linear",
            "model.sigma.sigma0": 0.5, "design.n": 32, "design.horizon": 0.0025,
            "design.spatial_modes": 128, "design.oversampling": 2,
            "design.burn_in": 8, "replicates": 7})
        run_experiment(cfg, workers=1, out_dir=str(tmp_path / "a"))
        run_experiment(cfg, workers=2, out_dir=str(tmp_path / "b"))
        csv_a = (tmp_path / "a" / "replicates.csv").read_bytes()
        csv_b = (tmp_path / "b" / "replicates.csv").read_bytes()
        assert csv_a == csv_b

    def test_read_round_trip(self, tmp_path):
        rep = run_experiment(self.small_cfg(), out_dir=str(tmp_path))
        again = ExperimentReport.read(tmp_path / "report.json")
        assert again.rows == rep.rows
        assert again.summary == rep.summary
        assert again.passed == rep.passed


class TestBenchmarkTracer:
    """The benchmark's tracer patches names in the package from outside."""

    def test_patched_names_exist(self, monkeypatch):
        monkeypatch.syspath_prepend(
            os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
        import tracing

        with tracing.instrumented(tracing.Tracer()):
            pass

    def test_rho_method_position(self):
        # the tracer reads rho's method from its seventh positional argument
        assert list(inspect.signature(rho).parameters)[6] == "method"


class TestCli:
    def test_pass_run(self, tmp_path, capsys):
        code = cli_main(["clt", "--seed", "4242", "--replicates", "300",
                         "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "result: PASS" in out
        assert (tmp_path / "report.json").exists()

    def test_config_file(self, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_text("design.n = 512\nreplicates = 60\n")
        code = cli_main(["clt", "--config", str(p), "--out", str(tmp_path / "o")])
        assert code in (0, 1)  # tolerances may fail at this tiny scale
        assert (tmp_path / "o" / "replicates.csv").exists()

    def test_bad_config_exit_code(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("no_such_key = 1\n")
        assert cli_main(["clt", "--config", str(p)]) == 2

    def test_bad_flag_value_exit_code(self, capsys):
        assert cli_main(["clt", "--replicates", "0"]) == 2
        assert cli_main(["clt", "--threads", "-2"]) == 2
        err = capsys.readouterr().err
        assert "replicates" in err and "threads" in err

    def test_unverifiable_report_exit_code(self, tmp_path, capsys):
        # a missing report, or one whose config no longer parses, is neither
        # MATCH (0) nor MISMATCH (1)
        missing = tmp_path / "missing.json"
        assert cli_main(["clt", "--verify-report", str(missing)]) == 2
        stale = tmp_path / "stale.json"
        stale.write_text(json.dumps({
            "kind": "clt", "config_text": "experiment = clt\nno_such_key = 1\n",
            "config_hash": "", "seed": 1, "rows": [], "summary": {}, "passed": True}))
        assert cli_main(["clt", "--verify-report", str(stale)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 2
        assert "missing.json" in lines[0] and "no_such_key" in lines[1]

    def test_verify_flow(self, tmp_path, capsys):
        cli_main(["clt", "--seed", "99", "--replicates", "40",
                  "--out", str(tmp_path)])
        code = cli_main(["clt", "--verify-report",
                         str(tmp_path / "report.json")])
        assert code == 0
        assert "MATCH" in capsys.readouterr().out
