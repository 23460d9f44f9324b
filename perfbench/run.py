"""Benchmark driver: one workload per process, timed in whole rounds.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; shevar is imported from ``src/``
there and nothing is installed.  The process uses one FFT worker and pins
BLAS to one thread.  Rounds repeat while another round still fits in
``--seconds`` (at least one round always runs).

``--trace 0`` prints the end-to-end metrics: ``run_s`` (mean seconds of a
round: the timed seconds over the rounds run), ``setup_s`` (process start
until the workload is ready) and ``peak_rss_mb``.  ``--trace 1`` alternates an untraced and a traced round
and prints the per-layer metrics of the traced rounds, together with the
tracing overhead.  Outputs go to ``.bench_out/<workload>/`` in the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
not 0 only when the benchmark cannot run at all (for instance when ``src/``
is missing).
"""

import os
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"


def _process_age() -> float:
    """Seconds since this process started (0 where /proc is unavailable)."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    age_at_start = _process_age()
    t_age = time.perf_counter()
    args = _parse(argv)
    if not (ROOT / "src" / "shevar" / "__init__.py").is_file():
        print(f"no shevar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    t_import = time.perf_counter()
    import numpy as np
    import scipy.fft

    import shevar
    import shevar.harness  # noqa: F401  (every layer the workloads reach)
    import_s = time.perf_counter() - t_import
    if Path(shevar.__file__).resolve().parent != ROOT / "src" / "shevar":
        print(f"shevar imported from {shevar.__file__}, not from the checkout",
              file=sys.stderr)
        return 2

    import tracing
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"unknown workload {args.workload!r}; one of {workloads.NAMES}",
              file=sys.stderr)
        return 2
    work = workloads.build(args.workload, args.seed)
    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    # warm-up FFTs at the scheme's size, on both entry points the layers use
    warm = np.ones(workloads.SPDE_MODES)
    scipy.fft.irfft(scipy.fft.rfft(warm, workers=1), n=len(warm), workers=1)
    np.fft.irfft(np.fft.rfft(warm), n=len(warm))
    setup_s = age_at_start + (time.perf_counter() - t_age)

    tracer = tracing.Tracer() if args.trace else None
    plain_s, traced_s, plain, traced = [], [], [], []
    t0 = time.perf_counter()
    while True:
        configs = work.configs(len(plain))
        # a traced twin runs the same inputs; the two alternate in going first
        order = (False, True) if len(plain) % 2 == 0 else (True, False)
        for traced_round in order if tracer is not None else (False,):
            if traced_round:
                tracer.round = len(traced)
                with tracing.instrumented(tracer):
                    t = time.perf_counter()
                    traced.append(work.run_round(configs, str(out_dir)))
                    traced_s.append(time.perf_counter() - t)
            else:
                t = time.perf_counter()
                plain.append(work.run_round(configs, str(out_dir)))
                plain_s.append(time.perf_counter() - t)
        step = max(plain_s) + (max(traced_s) if traced_s else 0.0)
        if time.perf_counter() - t0 + step > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks, n_failed = work.check(plain)
    if tracer is not None:
        same = plain == traced
        checks.append(workloads.Check("traced_outputs_identical", same,
                                      f"{len(traced)} traced rounds"))
        n_failed += work.check(traced)[1]
    correct = all(c.passed for c in checks)
    for c in checks:
        if not c.passed:
            print(f"check failed: {c.name} {c.detail}", file=sys.stderr)

    # Round times swing by up to half from one round to the next on a shared
    # host; the mean over the whole run (seconds per round at the run's
    # throughput) averages that out, where the median of a few rounds does not.
    if tracer is None:
        metrics = {
            "run_s": {"value": statistics.fmean(plain_s), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        per_round = [tracing.layer_metrics(tracer, r) for r in range(len(traced_s))]
        metrics = {name: {"value": statistics.median(m[name] for m in per_round),
                          "unit": unit}
                   for name, unit in tracing.PER_LAYER}
        metrics["setup.import_s"] = {"value": import_s, "unit": "s"}
        metrics["trace.run_s"] = {"value": statistics.fmean(traced_s), "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": statistics.fmean(traced_s) - statistics.fmean(plain_s), "unit": "s"}
        with open(out_dir / "spans.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.spans(), fh)
    with open(out_dir / "checks.json", "w", encoding="utf-8") as fh:
        json.dump([c.__dict__ for c in checks], fh, indent=1)
    with open(out_dir / "rounds.json", "w", encoding="utf-8") as fh:
        json.dump({"untraced_s": plain_s, "traced_s": traced_s}, fh)

    n_ops = sum(len(ops) for ops in plain + traced)
    result = {"correct": correct, "attempted": n_ops,
              "failed": n_failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
