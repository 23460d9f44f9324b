"""Spans around calls into shevar's layers, recorded from outside the package.

:func:`instrumented` swaps the public names that the harness and the limit
code look up at call time for wrappers that record a span per call: its
name, duration, the span that was open when it started, the round it
belongs to and a few counts.  The FFT entry points of ``scipy.fft`` and
``numpy.fft`` are wrapped the same way, random draws are timed by handing
the samplers a :class:`numpy.random.Generator` subclass on the same bit
generator (so the draws are bit for bit those of an untraced run), and the
SPDE coefficient is wrapped to time ``sigma(u)``.  Everything is restored on
exit.  Nothing in ``src/`` changes.

:func:`layer_metrics` folds the spans of one round into the per-layer
metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from contextlib import contextmanager

import numpy as np

# span names
SPDE, EXACT, EMBEDDING = "simulate.spde", "simulate.exact", "simulate.exact.embedding"
RNG, FFT, SIGMA = "rng", "fft", "sigma"
RUNNER, WRITE = "harness.runner", "harness.write"
SERIES, RHO, GAMMA, ESTIMATE = ("gaussian_limits.series", "gaussian_limits.rho",
                                "kernels.gamma", "inference.estimate")


class Tracer:
    """In-memory span store; spans carry a parent index and a round id."""

    def __init__(self):
        self.round = 0
        self.names: list[str] = []
        self.parents: list[int] = []
        self.rounds: list[int] = []
        self.durations: list[float] = []
        self.counts: list[dict | None] = []
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs, counts=None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.rounds.append(self.round)
        self.durations.append(0.0)
        self.counts.append(counts)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.durations[idx] = time.perf_counter() - t0
            self._stack.pop()

    def wrap(self, name, fn, count=None):
        """``fn`` with every call recorded; ``count(args, kwargs)`` gives counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = count(args, kwargs) if count is not None else None
            return self.call(name, fn, args, kwargs, counts)

        return wrapper

    def spans(self) -> dict:
        """Column-wise dump of every span, for writing out as JSON."""
        return {"name": self.names, "parent": self.parents, "round": self.rounds,
                "seconds": self.durations,
                "counts": [c or {} for c in self.counts]}


class TimedGenerator(np.random.Generator):
    """Generator whose ``standard_normal`` calls are recorded as spans."""

    def __init__(self, bit_generator, tracer: Tracer):
        super().__init__(bit_generator)
        self._tracer = tracer

    def standard_normal(self, size=None, dtype=np.float64, out=None):
        n = int(np.prod(size)) if size is not None else 1
        return self._tracer.call(RNG, super().standard_normal, (size,),
                                 {"dtype": dtype, "out": out}, {"normals": n})


class TimedSigma:
    """SPDE coefficient whose evaluations are recorded as spans."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, attr):
        return getattr(self._inner, attr)

    def __call__(self, u):
        return self._tracer.call(SIGMA, self._inner, (u,), {})


def _timed_streams(streams, tracer):
    """Timed generators on the identical bit streams of the harness's
    ``RngStream`` list."""
    return [TimedGenerator(s.generator().bit_generator, tracer) for s in streams]


def _lags(args, kwargs):
    r = args[1] if len(args) > 1 else kwargs["r"]
    return {"lags": int(np.size(r))}


def _is_mc(args, kwargs):
    method = args[6] if len(args) > 6 else kwargs.get("method", "auto")
    return {"mc": int(method == "mc")}


@contextmanager
def instrumented(tracer: Tracer):
    """Patch shevar's layer entry points with span-recording wrappers."""
    import numpy.fft
    import scipy.fft

    import shevar.gaussian_limits as gl
    import shevar.harness as harness
    import shevar.inference as inference
    import shevar.kernels as kernels
    import shevar.simulate as simulate

    saved = []

    def patch(obj, attr, new):
        saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    spde_batch = harness.simulate_spde_batch
    exact_batch = harness.simulate_stationary_increments_batch

    def traced_spde(model, design, streams, *args, **kwargs):
        model = dataclasses.replace(model, sigma=TimedSigma(model.sigma, tracer))
        return spde_batch(model, design, _timed_streams(streams, tracer), *args, **kwargs)

    def micro_steps(args, kwargs):
        model, design = args[0], args[1]
        burn = design.default_burn_in(model.noise.alpha)
        return {"micro_steps": (design.n_steps + burn) * design.oversampling}

    def traced_exact(alpha, n_steps, streams):
        return exact_batch(alpha, n_steps, _timed_streams(streams, tracer))

    try:
        patch(harness, "simulate_spde_batch",
              tracer.wrap(SPDE, traced_spde, count=micro_steps))
        patch(harness, "simulate_stationary_increments_batch",
              tracer.wrap(EXACT, traced_exact))
        patch(simulate, "circulant_embedding",
              tracer.wrap(EMBEDDING, simulate.circulant_embedding))
        for mod in (scipy.fft, numpy.fft):
            for attr in ("rfft", "irfft"):
                patch(mod, attr, tracer.wrap(FFT, getattr(mod, attr)))
        patch(harness, "_RUNNERS", {kind: tracer.wrap(RUNNER, fn)
                                    for kind, fn in harness._RUNNERS.items()})
        patch(harness.ExperimentReport, "write",
              tracer.wrap(WRITE, harness.ExperimentReport.write))
        series = tracer.wrap(SERIES, gl.limit_covariance)
        for mod in (gl, harness, inference):
            patch(mod, "limit_covariance", series)
        rho = tracer.wrap(RHO, gl.rho, count=_is_mc)
        for mod in (gl, harness):
            patch(mod, "rho", rho)
        gamma = tracer.wrap(GAMMA, kernels.gamma_r, count=_lags)
        for mod in (kernels, gl, simulate, harness):
            patch(mod, "gamma_r", gamma)
        for attr in ("estimate_sigma0", "estimate_alpha", "integrated_variance_interval"):
            patch(harness, attr, tracer.wrap(ESTIMATE, getattr(harness, attr)))
        yield tracer
    finally:
        for obj, attr, old in reversed(saved):
            setattr(obj, attr, old)


PER_LAYER = (
    ("simulate.spde.total_s", "s"), ("simulate.spde.rng_s", "s"),
    ("simulate.spde.normals", "count"), ("simulate.spde.fft_s", "s"),
    ("simulate.spde.fft_calls", "count"), ("simulate.spde.sigma_s", "s"),
    ("simulate.spde.other_s", "s"), ("simulate.spde.micro_steps", "count"),
    ("simulate.exact.embedding_s", "s"), ("simulate.exact.draw_s", "s"),
    ("simulate.exact.fft_calls", "count"), ("simulate.exact.normals", "count"),
    ("harness.statistic_s", "s"), ("harness.write_s", "s"),
    ("gaussian_limits.series_s", "s"), ("gaussian_limits.series_calls", "count"),
    ("gaussian_limits.rho_calls", "count"), ("gaussian_limits.mc_s", "s"),
    ("kernels.gamma_s", "s"), ("kernels.gamma_calls", "count"),
    ("kernels.gamma_lags", "count"),
    ("inference.estimate_s", "s"), ("inference.estimate_calls", "count"),
)


def layer_metrics(tracer: Tracer, round_id: int) -> dict:
    """Per-layer totals over the spans of one round.

    ``*_s`` are inclusive span times, except ``harness.statistic_s`` (the
    runners' self time) and ``simulate.spde.other_s`` (the scheme's self
    time: elementwise work, recording and the loop).  RNG and FFT spans are
    charged to the nearest enclosing sampler span.
    """
    names, parents, durs = tracer.names, tracer.parents, tracer.durations
    m = {name: 0 for name, _ in PER_LAYER}
    child_time = [0.0] * len(names)
    for i, par in enumerate(parents):
        if par >= 0:
            child_time[par] += durs[i]

    def sampler(i):
        j = parents[i]
        while j >= 0 and names[j] not in (SPDE, EXACT):
            j = parents[j]
        return names[j] if j >= 0 else None

    for i, name in enumerate(names):
        if tracer.rounds[i] != round_id:
            continue
        counts = tracer.counts[i] or {}
        dur = durs[i]
        if name == SPDE:
            m["simulate.spde.total_s"] += dur
            m["simulate.spde.other_s"] += dur - child_time[i]
            m["simulate.spde.micro_steps"] += counts["micro_steps"]
        elif name == EXACT:
            m["simulate.exact.draw_s"] += dur
        elif name == EMBEDDING:
            m["simulate.exact.embedding_s"] += dur
            if sampler(i) == EXACT:
                m["simulate.exact.draw_s"] -= dur
        elif name in (RNG, FFT, SIGMA):
            owner = sampler(i)
            if owner == SPDE:
                if name == RNG:
                    m["simulate.spde.rng_s"] += dur
                    m["simulate.spde.normals"] += counts["normals"]
                elif name == FFT:
                    m["simulate.spde.fft_s"] += dur
                    m["simulate.spde.fft_calls"] += 1
                else:
                    m["simulate.spde.sigma_s"] += dur
            elif owner == EXACT:
                if name == RNG:
                    m["simulate.exact.normals"] += counts["normals"]
                elif name == FFT:
                    m["simulate.exact.fft_calls"] += 1
        elif name == RUNNER:
            m["harness.statistic_s"] += dur - child_time[i]
        elif name == WRITE:
            m["harness.write_s"] += dur
        elif name == SERIES:
            m["gaussian_limits.series_s"] += dur
            m["gaussian_limits.series_calls"] += 1
        elif name == RHO:
            m["gaussian_limits.rho_calls"] += 1
            if counts["mc"]:
                m["gaussian_limits.mc_s"] += dur
        elif name == GAMMA:
            m["kernels.gamma_s"] += dur
            m["kernels.gamma_calls"] += 1
            m["kernels.gamma_lags"] += counts["lags"]
        elif name == ESTIMATE:
            m["inference.estimate_s"] += dur
            m["inference.estimate_calls"] += 1
    return m
