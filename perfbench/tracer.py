"""Span tracer that wraps dlamf's public functions from outside the package.

Nothing under src/ knows about it: `Tracer.install()` replaces module
attributes with timing wrappers and `uninstall()` puts the originals back.
Spans are kept in memory as (name, start, end, parent, op) and reduced to
per-layer self times after the run; a span's self time is its duration minus
the durations of its direct children (calls are single-threaded, so children
never overlap).
"""

from __future__ import annotations

import contextlib
import functools
import math
from collections import Counter
from time import perf_counter

import numpy as np

from dlamf import (cli, detectors, estimators, harness, optimizer, rmt,
                   scenario, theory)

# The root span of every op; its self time is the benchmark's own code.
OP_SPAN = "bench.op"
# Batched factorizations are recorded only when a harness span is the
# caller: those are the per-trial factorizations of the trial engine.
# Elsewhere they stay in the caller's self time.
FACTORIZE_SPAN = "harness.factorize"


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _count_opt(counts, prefix, result):
    counts["optimizer.evaluations"] += int(result.evaluations)
    counts["optimizer.flat"] += int(not result.converged)
    if prefix:
        counts[prefix] += 1


def _count_matrices(counts, args, kwargs, result):
    shape = np.shape(args[0])
    counts["harness.factorize_matrices"] += int(math.prod(shape[:-2]))


# (owner, attribute, span name, counter). The counter receives
# (counts, args, kwargs, result) after a call returns. Names imported by
# value into another module are listed once per importing module.
def _targets():
    def calls(key):
        return lambda c, a, k, r: c.update({key: 1})

    return [
        (harness, "h0_statistics", "harness.h0",
         lambda c, a, k, r: c.update(
             {"harness.h0_trials": int(_arg(a, k, 2, "trials"))})),
        (harness, "pd_evaluator", "harness.h1",
         lambda c, a, k, r: c.update(
             {"harness.h1_trials": int(_arg(a, k, 0, "cfg").trials)})),
        (harness, "threshold_from_stats", "harness.threshold", None),
        (harness, "calibrate_threshold", "harness.calibrate", None),
        (harness, "pd_vs_scnr_sweep", "harness.sweep", None),
        (harness.PdEvaluator, "pd", "harness.pd", calls("harness.pd_calls")),
        (harness, "lambda_opt", "optimizer.lambda_opt",
         lambda c, a, k, r: _count_opt(c, None, r)),
        (rmt, "deterministic_equivalents", "rmt.equivalents",
         calls("rmt.equivalents_calls")),
        (rmt, "solve_delta", "rmt.solve_delta",
         calls("rmt.solve_delta_calls")),
        (optimizer, "lambda_opt", "optimizer.lambda_opt",
         lambda c, a, k, r: _count_opt(c, None, r)),
        (optimizer, "lambda_opt_hat", "optimizer.lambda_opt_hat",
         lambda c, a, k, r: _count_opt(c, "optimizer.lambda_opt_hat_calls",
                                       r)),
        (optimizer, "kappa_lambda_curve", "optimizer.curve", None),
        (optimizer, "kappa_crossing", "optimizer.crossing", None),
        (estimators, "estimated_equivalents", "estimators.equivalents",
         calls("estimators.equivalents_calls")),
        (estimators, "el_lambda", "estimators.el_lambda",
         calls("estimators.el_lambda_calls")),
        (theory, "roc_swerling0", "theory.roc",
         lambda c, a, k, r: c.update({"theory.roc_points": int(np.size(r))})),
        (theory, "roc_swerling1", "theory.roc",
         lambda c, a, k, r: c.update({"theory.roc_points": int(np.size(r))})),
        (detectors, "evaluate_statistic", "detectors.evaluate",
         calls("detectors.evaluate_calls")),
        (scenario, "sample_dataset", "scenario.sample",
         calls("scenario.sample_calls")),
        (scenario, "scm", "scenario.scm", calls("scenario.scm_calls")),
        (scenario.HermitianSpectrum, "from_matrix", "scenario.spectrum",
         calls("scenario.spectrum_calls")),
        (cli, "main", "cli.main", None),
        (np.linalg, "eigh", FACTORIZE_SPAN, _count_matrices),
        (np.linalg, "cholesky", FACTORIZE_SPAN, _count_matrices),
    ]


class Tracer:
    """In-memory span recorder plus exact counters, keyed by op id."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index, op id]
        self.stack = []
        self.counts = Counter()
        self.op = None
        self.last_op_seconds = None
        self._saved = []

    def _wrap(self, fn, name, counter):
        spans, stack, counts = self.spans, self.stack, self.counts
        factorize = name == FACTORIZE_SPAN

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if factorize and not (stack and
                                  spans[stack[-1]][0].startswith("harness.")):
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, perf_counter(), None,
                          stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result
        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, counter in _targets():
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name, counter))
            else:
                new = self._wrap(raw, name, counter)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, new)

    def uninstall(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    @contextlib.contextmanager
    def trace_op(self, op_id):
        """Install the wrappers and record the root span of one op."""
        self.install()
        self.op = op_id
        idx = len(self.spans)
        self.spans.append([OP_SPAN, perf_counter(), None, -1, op_id])
        self.stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = perf_counter()
            del self.stack[:]
            self.op = None
            self.uninstall()
            self.last_op_seconds = self.spans[idx][2] - self.spans[idx][1]

    def self_times(self):
        """Self time of every span, in span order."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def span_rows(self):
        """Spans as JSON-ready rows with their self times."""
        return [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                 "op": s[4], "self": st}
                for s, st in zip(self.spans, self.self_times())]


# Self-time metrics: span name -> metric name. Every harness span also adds
# to harness.self_s except the factorizations, which have their own metric.
SELF_METRICS = {
    "harness.factorize": "harness.factorize_s",
    "harness.h0": "harness.h0_s",
    "harness.h1": "harness.h1_s",
    "harness.threshold": "harness.threshold_s",
    "harness.pd": "harness.pd_s",
    "harness.calibrate": None,
    "harness.sweep": None,
    "rmt.equivalents": "rmt.equivalents_s",
    "rmt.solve_delta": "rmt.solve_delta_s",
    "optimizer.lambda_opt": "optimizer.lambda_opt_s",
    "optimizer.lambda_opt_hat": "optimizer.lambda_opt_hat_s",
    "optimizer.curve": "optimizer.curve_s",
    "optimizer.crossing": "optimizer.crossing_s",
    "estimators.equivalents": "estimators.equivalents_s",
    "estimators.el_lambda": "estimators.el_lambda_s",
    "theory.roc": "theory.roc_s",
    "detectors.evaluate": "detectors.evaluate_s",
    "scenario.sample": "scenario.sample_s",
    "scenario.scm": "scenario.scm_s",
    "scenario.spectrum": "scenario.spectrum_s",
    "cli.main": "cli.self_s",
    OP_SPAN: "bench.self_s",
}

COUNT_METRICS = (
    "harness.factorize_matrices", "harness.h0_trials", "harness.h1_trials",
    "harness.pd_calls", "rmt.equivalents_calls", "rmt.solve_delta_calls",
    "optimizer.lambda_opt_hat_calls", "optimizer.evaluations",
    "optimizer.flat", "estimators.equivalents_calls",
    "estimators.el_lambda_calls", "theory.roc_points",
    "detectors.evaluate_calls", "scenario.sample_calls",
    "scenario.scm_calls", "scenario.spectrum_calls", "scenario.eig_clamps",
    "cli.bytes_written",
)


def layer_seconds(tracer):
    """{metric: self seconds} summed over every recorded span."""
    out = dict.fromkeys((m for m in SELF_METRICS.values() if m), 0.0)
    out["harness.self_s"] = 0.0
    for span, st in zip(tracer.spans, tracer.self_times()):
        name = span[0]
        metric = SELF_METRICS[name]
        if metric:
            out[metric] += st
        if name.startswith("harness.") and name != FACTORIZE_SPAN:
            out["harness.self_s"] += st
    return out
