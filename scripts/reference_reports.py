"""Write the reference experiment reports, or compare two sets of them.

    PYTHONPATH=src python scripts/reference_reports.py OUT
    python scripts/reference_reports.py --compare A B

The first form runs every reference config at its fixed seed with one
worker and writes its report (``report.json``, ``replicates.csv`` and, for
``simulate``, ``paths/*.csv``) into ``OUT/<name>/``.  It uses whichever
``shevar`` is importable, so pointing ``PYTHONPATH`` at another checkout's
``src/`` writes that checkout's reports.

The second form reports, for each config, whether ``replicates.csv`` and
``paths/*.csv`` are byte-identical in A and B, and the largest relative
difference of every row key and every summary key whose values differ.
Floats are compared by relative difference; any other value (pass flags,
integers, strings) must be equal, and a mismatch is listed as ``!=``.  The
exit status is 0 when every config is byte-identical and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

# benchmark workload inputs (perfbench/workloads.py) at seed 777, round 0
BENCH_SEED = (777 * 1000 + 0) * 8
SPDE_STEP = 0.01 / 4096


def _bench_spde(sigma_kind):
    return "clt", {
        "driver": "spde", "model.alpha": 0.5, "model.sigma.kind": sigma_kind,
        "model.sigma.sigma0": 0.5, "model.sigma.value": 1.0,
        "functional.p": 2.0, "design.n": 128, "design.horizon": 128 * SPDE_STEP,
        "design.spatial_modes": 1024, "design.oversampling": 16,
        "replicates": 24, "seed": BENCH_SEED,
    }


_SMALL_SPDE = {"driver": "spde", "design.n": 256, "design.horizon": 0.01,
               "design.spatial_modes": 512, "design.oversampling": 4,
               "design.burn_in": 32}

# name -> (experiment, overrides of its default config)
CONFIGS = {
    "bench_spde_multiplicative": _bench_spde("linear"),
    "bench_spde_additive": _bench_spde("constant"),
    "bench_exact_clt": ("clt", {
        "functional.p": 2.0, "design.n": 2 ** 14, "replicates": 500,
        "seed": BENCH_SEED}),
    "bench_exact_lln": ("lln", {
        "functional.powers": [2.0, 4.0], "lln.ladder": [10, 11, 12, 13, 14, 15, 16],
        "replicates": 100, "seed": BENCH_SEED + 1}),
    "bench_exact_coverage": ("estimate", {
        "estimate.estimator": "coverage", "design.n": 2 ** 12, "replicates": 250,
        "seed": BENCH_SEED + 2}),
    "bench_exact_alpha": ("estimate", {
        "estimate.estimator": "alpha", "design.n": 2 ** 12, "replicates": 250,
        "seed": BENCH_SEED + 3}),
    "clt_exact_p1": ("clt", {
        "functional.p": 1.0, "design.n": 2 ** 12, "replicates": 400, "seed": 101}),
    "clt_exact_p2": ("clt", {"design.n": 1000, "replicates": 200, "seed": 102}),
    "clt_spde_linear": ("clt", {
        **_SMALL_SPDE, "model.sigma.kind": "linear", "model.sigma.sigma0": 0.5,
        "replicates": 40, "seed": 103}),
    "clt_spde_constant_continuum": ("clt", {
        **_SMALL_SPDE, "clt.normalization": "continuum", "replicates": 40,
        "seed": 104}),
    "clt_spde_affine_offgrid": ("clt", {
        **_SMALL_SPDE, "model.sigma.kind": "affine", "design.n": 128,
        "design.horizon": 0.005, "design.spatial_modes": 256,
        "design.points": [1.0 / 3.0, 0.7], "replicates": 20, "seed": 105}),
    "lln_three_powers": ("lln", {
        "functional.powers": [2.0, 4.0, 1.5], "lln.ladder": [8, 9, 10, 11],
        "replicates": 50, "seed": 106}),
    "sigma0_exact_p2": ("estimate", {
        "model.sigma.value": 0.7, "design.n": 1024, "replicates": 30, "seed": 107}),
    "sigma0_exact_p1": ("estimate", {
        "functional.p": 1.0, "design.n": 1024, "replicates": 30, "seed": 108}),
    "sigma0_spde": ("estimate", {
        "driver": "spde", "model.sigma.kind": "linear", "model.sigma.sigma0": 0.5,
        "design.n": 256, "design.horizon": 0.01, "design.spatial_modes": 256,
        "design.oversampling": 2, "replicates": 5, "seed": 109}),
    "sigma0_degenerate": ("estimate", {
        "driver": "spde", "model.sigma.kind": "linear", "model.sigma.sigma0": 0.5,
        "model.u0.value": 0.0, "design.n": 64, "design.horizon": 0.01,
        "design.spatial_modes": 256, "design.oversampling": 1,
        "design.burn_in": 0, "replicates": 5, "seed": 110}),
    "coverage": ("estimate", {
        "estimate.estimator": "coverage", "model.sigma.value": 1.3,
        "design.n": 1500, "replicates": 60, "seed": 111}),
    "alpha": ("estimate", {
        "estimate.estimator": "alpha", "design.n": 2 ** 12, "replicates": 40,
        "seed": 112}),
    "scaling_all": ("scaling", {
        "scaling.spde": True, "scaling.spatial": True, "design.n": 2 ** 11,
        "replicates": 4, "seed": 113}),
    "simulate_exact": ("simulate", {"replicates": 2, "seed": 114}),
    "simulate_spde": ("simulate", {
        "driver": "spde", "design.n": 64, "design.horizon": 0.01,
        "design.spatial_modes": 256, "design.oversampling": 2,
        "replicates": 2, "seed": 115}),
    "identities": ("identities", {}),
}


def write_reports(out_dir) -> None:
    import shevar
    from shevar.harness import default_config, run_experiment

    print(f"shevar from {os.path.dirname(shevar.__file__)}")
    for name, (kind, overrides) in CONFIGS.items():
        cfg = default_config(kind).replace(**overrides)
        t0 = time.perf_counter()
        rep = run_experiment(cfg, workers=1, out_dir=os.path.join(out_dir, name))
        print(f"{name:30s} passed={rep.passed!s:5s} {time.perf_counter() - t0:7.2f} s")


def _flatten(value, key=""):
    """Leaves of nested dicts and lists as ``{dotted.key: value}``."""
    if isinstance(value, dict):
        out = {}
        for k, v in value.items():
            out.update(_flatten(v, f"{key}.{k}" if key else str(k)))
        return out
    if isinstance(value, list):
        out = {}
        for i, v in enumerate(value):
            out.update(_flatten(v, f"{key}[{i}]"))
        return out
    return {key: value}


def _difference(a, b):
    """0.0 for equal values, the relative difference of two floats, else None."""
    if a == b or (isinstance(a, float) and isinstance(b, float)
                  and math.isnan(a) and math.isnan(b)):
        return 0.0
    if isinstance(a, float) and isinstance(b, float):
        return abs(a - b) / max(abs(a), abs(b))
    return None


def _key_differences(pairs):
    """Largest difference per key over ``(key, a, b)``; None marks ``!=``."""
    worst = {}
    for key, a, b in pairs:
        d = _difference(a, b)
        if d != 0.0 and worst.get(key, 0.0) is not None:
            worst[key] = None if d is None else max(d, worst.get(key, 0.0))
    return worst


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _format(diffs) -> str:
    return ", ".join(f"{k} !=" if d is None else f"{k} {d:.2g}"
                     for k, d in sorted(diffs.items())) or "-"


def compare(dir_a, dir_b) -> bool:
    identical = True
    print(f"{'config':30s} {'csv':5s} {'paths':5s} rows | summary")
    for name in CONFIGS:
        a, b = os.path.join(dir_a, name), os.path.join(dir_b, name)
        csv_same = _read(os.path.join(a, "replicates.csv")) == _read(
            os.path.join(b, "replicates.csv"))
        pdir_a, pdir_b = os.path.join(a, "paths"), os.path.join(b, "paths")
        paths = "-"
        if os.path.isdir(pdir_a) or os.path.isdir(pdir_b):
            files = sorted(set(os.listdir(pdir_a)) | set(os.listdir(pdir_b)))
            same = all(os.path.exists(os.path.join(pdir_a, f))
                       and os.path.exists(os.path.join(pdir_b, f))
                       and _read(os.path.join(pdir_a, f)) == _read(os.path.join(pdir_b, f))
                       for f in files)
            paths = "same" if same else "DIFF"
            identical = identical and same
        rep_a = json.loads(_read(os.path.join(a, "report.json")))
        rep_b = json.loads(_read(os.path.join(b, "report.json")))
        rows = _key_differences(
            (k, ra.get(k), rb.get(k))
            for ra, rb in zip(rep_a["rows"], rep_b["rows"]) for k in ra.keys() | rb.keys())
        if len(rep_a["rows"]) != len(rep_b["rows"]):
            rows["row count"] = None
        sum_a, sum_b = _flatten(rep_a["summary"]), _flatten(rep_b["summary"])
        summary = _key_differences((k, sum_a.get(k), sum_b.get(k))
                                   for k in sum_a.keys() | sum_b.keys())
        if rep_a["passed"] != rep_b["passed"]:
            summary["passed"] = None
        identical = identical and csv_same and not rows and not summary
        print(f"{name:30s} {'same' if csv_same else 'DIFF':5s} {paths:5s} "
              f"{_format(rows)} | {_format(summary)}")
    return identical


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", nargs="?", help="directory to write the reports into")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two directories of reports")
    args = parser.parse_args(argv)
    if args.compare:
        return 0 if compare(*args.compare) else 1
    if not args.out:
        parser.error("give OUT or --compare A B")
    write_reports(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
