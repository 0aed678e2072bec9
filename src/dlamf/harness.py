"""Monte Carlo harness: batched trials, threshold calibration, ROC curves.

Trials are evaluated in fixed-size chunks. Each trial owns a Philox counter
block derived from (master_seed, stream, trial index), so every number here
is a pure function of the configuration and seed no matter how chunks are
scheduled or how many workers run; a unit test pins the batched generator
against the documented scalar construction bit for bit.

A target of amplitude b enters every statistic through the filter output
s^H M^{-1} (y0 + b s) = alpha + b * beta, with alpha, beta and the
normalizer depending only on the noise draw and the SCM (per-trial loading
factors included, since they are functions of the SCM alone). So a chunk
runs one pass for h0 and h1 alike: it returns these coefficients and a
frozen unit amplitude per trial, and detectors.statistic forms the
statistic at any b, the h0 one from alpha alone. One pass serves every
SCNR on a sweep and both Swerling 0 and Swerling I targets, and
SCNR-at-Pd bisection re-thresholds cached coefficients instead of
re-simulating.

Within a chunk, trials are drawn, colored, reduced and turned into
coefficients a block at a time: at most _BLOCK trials, and fewer when
their snapshots would pass _BLOCK_BYTES. The chunk allocates one
_Workspace of block buffers, which every block reuses. S goes straight
into the corner of its bordered buffer, and one detectors.Plan.coefficients
call takes the block to every kind's (alpha, beta, norm), or raises. Only
these and the amplitudes outlive a block, so a chunk of B trials holds one
block's buffers plus O(B) numbers at any array size. evaluate_statistic
makes the same call on a block of one trial.

An Engine is the one place that schedules a run: chunks of
min(DEFAULT_CHUNK, ceil(trials / workers)) trials, in process or on the one
pool of workers it holds for its with block. A public function that runs
trials takes one as its last keyword, engine, or else runs in process.

Reproducibility: for a given (seed, stream, trial, detector set) every
statistic is bit-identical for every worker count, chunk cut and block
size. Two detector sets that take different routes may differ in the last
bits of a fixed-loading kind's statistic.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import blas, detectors
from .detectors import NP, DetectorSpec
from .errors import ConfigError, NumericalError, require_finite
from .optimizer import OptConfig, lambda_opt
from .results import Curve, Histogram
from .scenario import philox_key

DEFAULT_CHUNK = 4096
# trials drawn, colored and reduced at a time within a chunk: at most
# _BLOCK, and fewer when their snapshots (16 N (K+1) bytes each) would
# exceed _BLOCK_BYTES (111 trials at N=24, K=48; 42 at N=48, K=64)
_BLOCK = 256
_BLOCK_BYTES = 2 ** 21
_SQRT2 = np.sqrt(2)
# NumPy divides a complex array by a real x as a multiplication by 1 / x
_INV_SQRT2 = 1.0 / _SQRT2


def db_to_linear(db):
    return 10.0 ** (np.asarray(db, dtype=float) / 10.0)


def linear_to_db(x):
    return 10.0 * np.log10(np.asarray(x, dtype=float))


def wilson_ci(k, n, z=1.96):
    """Wilson score interval for a binomial proportion."""
    if n < 1 or not 0 <= k <= n:
        raise ConfigError(f"wilson_ci needs 0 <= k <= n, got k={k} n={n}")
    p = k / n
    den = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / den
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / den
    return max(0.0, center - half), min(1.0, center + half)


def ks_distance(samples, cdf):
    """Kolmogorov-Smirnov distance between samples and a CDF callable."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.shape[0]
    if n < 1:
        raise ConfigError("ks_distance needs at least one sample")
    F = np.asarray(cdf(x), dtype=float)
    up = np.arange(1, n + 1) / n - F
    dn = F - np.arange(0, n) / n
    return float(max(up.max(), dn.max()))


@dataclass
class TrialConfig:
    """One Monte Carlo run: scenario, detector(s), budget and seed; an
    Engine schedules it. A run of one DetectorSpec takes and returns bare
    values, a run of several {label: value} (by_label, unwrap)."""

    scenario: object
    detector: object  # DetectorSpec or sequence of them
    trials: int
    master_seed: int = 0
    pfa_pre: float = 1e-3
    opt_config: OptConfig | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not 0.0 < self.pfa_pre < 1.0:
            raise ConfigError(f"pfa must lie in (0, 1), got {self.pfa_pre}")
        philox_key(self.master_seed, 0)  # a bad seed fails before any plan

    @property
    def single(self):
        return isinstance(self.detector, DetectorSpec)

    def spec_list(self):
        if self.single:
            return [self.detector]
        specs = list(self.detector)
        if not specs:
            raise ConfigError("at least one detector is required")
        return specs

    def by_label(self, value):
        """value as {label: value}; a run of one spec gives it bare."""
        return {self.detector.label: value} if self.single else dict(value)

    def unwrap(self, by_label):
        """by_label's one value for a run of one spec, else by_label."""
        return by_label[self.detector.label] if self.single else by_label


# --- batched evaluation ----------------------------------------------------

class _BatchPlan(detectors.Plan):
    """A detectors.Plan of the scenario's true covariance, plus what
    drawing a chunk needs; built once per run."""

    def __init__(self, scenario, specs, opt_config=None):
        R = scenario.covariance()
        super().__init__(specs, scenario.steering, scenario.K, R, opt_config,
                         design=lambda_opt)
        self.sqrtR = R.sqrt_matrix()
        self.block = max(1, min(_BLOCK, _BLOCK_BYTES
                                // (16 * self.N * (self.K + 1))))


def _reset_state(bitgen, ctr, key, buf, trial):
    ctr[1] = trial  # counter = trial * 2**64
    bitgen.state = {"bit_generator": "Philox",
                    "state": {"counter": ctr, "key": key},
                    "buffer": buf, "buffer_pos": 4,
                    "has_uint32": 0, "uinteger": 0}


class _Workspace:
    """Block buffers of one chunk, allocated once and reused by each of its
    blocks of at most B trials; a partial block takes leading views. A is
    the bordered buffer of a block's SCMs, and F the factor buffer, that
    Plan.coefficients works in (each None where the plan needs none). They
    belong to the chunk, not the plan, which worker processes receive
    pickled."""

    def __init__(self, plan, B):
        N, M = plan.N, plan.K + 1
        # each trial's snapshot normals, then its two amplitude normals
        self.raw = np.empty((B, 2 * N * M + 2))
        self.Z = np.empty((B, N, M), dtype=complex)
        self.colored = np.empty((B, N, M), dtype=complex)
        self.y0 = np.empty((B, N), dtype=complex)
        self.A = (np.zeros((B, N + 2, N + 2), dtype=complex)
                  if plan.need_scm else None)
        self.F = plan.factor_buffer(B) if plan.need_factor else None


def _generate(plan, master_seed, stream, lo, hi, ws):
    """Raw colored snapshots for trials [lo, hi) plus unit amplitudes,
    drawn after each trial's snapshot normals in its Philox block.

    y0 and the secondaries are views of the _Workspace ws's buffers, valid
    until its next block is drawn.
    """
    B = hi - lo
    N, K = plan.N, plan.K
    M = K + 1
    nm = N * M
    key = philox_key(master_seed, stream)
    bitgen = np.random.Philox(key=key)
    gen = np.random.Generator(bitgen)
    ctr = np.zeros(4, np.uint64)
    buf = np.zeros(4, np.uint64)
    raw = ws.raw[:B]
    for i in range(B):
        _reset_state(bitgen, ctr, key, buf, lo + i)
        gen.standard_normal(out=raw[i])
    # reals then imaginaries per trial; equal bit for bit to
    # (re + 1j * im) / sqrt(2), without the complex temporaries
    Z = ws.Z[:B]
    np.multiply(raw[:, :nm].reshape(B, N, M), _INV_SQRT2, out=Z.real)
    np.multiply(raw[:, nm:2 * nm].reshape(B, N, M), _INV_SQRT2, out=Z.imag)
    colored = np.matmul(plan.sqrtR, Z, out=ws.colored[:B])
    # y0 contiguous, so np's alpha = y0 @ t_conj keeps its BLAS layout
    y0 = ws.y0[:B]
    y0[...] = colored[:, :, 0]
    return y0, colored[:, :, 1:], (raw[:, -2] + 1j * raw[:, -1]) / _SQRT2


def _eval_chunk(plan, master_seed, stream, lo, hi):
    """Evaluate all planned detectors on trials [lo, hi) in one pass.

    Returns ({label: (alpha, beta, norm)}, amp), amp the frozen unit
    amplitudes; detectors.statistic forms the statistic at any amplitude,
    so the same pass serves h0 and h1. Each block of trials is drawn, its
    SCMs formed in the bordered buffer of the chunk's one workspace and
    taken through one plan.coefficients call.
    """
    ws = _Workspace(plan, min(plan.block, hi - lo))
    N, K = plan.N, plan.K
    parts = []
    for b in range(lo, hi, plan.block):
        B = min(plan.block, hi - b)
        y0, Y, amp = _generate(plan, master_seed, stream, b, b + B, ws)
        A = None
        if plan.need_scm:
            A = ws.A[:B]
            S = A[:, :N, :N]
            # conj(Y) in Z's storage, free once the snapshots are colored
            Yc = ws.Z[:B].reshape(B, -1)[:, :N * K].reshape(B, N, K)
            np.matmul(Y, np.conjugate(Y, out=Yc).transpose(0, 2, 1), out=S)
            # S / K bit for bit, on the real view
            np.multiply(S.view(float), 1.0 / K, out=S.view(float))
        parts.append((plan.coefficients(A, y0, ws.F), amp))
    return _merge(parts)


def _merge(parts):
    """Join per-range ({label: (alpha, beta, norm)}, amp) results in order."""
    coeffs = {label: tuple(np.concatenate(x)
                           for x in zip(*(c[label] for c, _ in parts)))
              for label in parts[0][0]}
    return coeffs, np.concatenate([amp for _, amp in parts])


class Engine:
    """Schedules trial runs, in process or on one pool of workers that it
    starts on its first run of several chunks. Calls in one with block
    share the pool, which shuts down when the outermost block ends, also
    when it raises; a run outside any enters the engine for itself."""

    def __init__(self, workers=1):
        if workers < 1:
            raise ConfigError("workers must be >= 1")
        self.workers, self.pool, self.depth = workers, None, 0

    def __enter__(self):
        self.depth += 1
        return self

    def __exit__(self, *exc):
        self.depth -= 1
        if not self.depth and self.pool:
            self.pool.shutdown()
            self.pool = None

    def run(self, plan, master_seed, stream, trials):
        """_eval_chunk over trials [0, trials) merged in order, in chunks of
        min(DEFAULT_CHUNK, ceil(trials / workers)): one or more per worker."""
        chunk = min(DEFAULT_CHUNK, -(-trials // self.workers))
        cuts = [(plan, master_seed, stream, lo, min(lo + chunk, trials))
                for lo in range(0, trials, chunk)]
        with self:
            if self.workers == 1 or len(cuts) == 1:
                return _merge([_eval_chunk(*c) for c in cuts])
            # one BLAS thread per worker: the workers already fill the CPUs
            self.pool = self.pool or ProcessPoolExecutor(
                self.workers, initializer=blas.pin_one_thread)
            return _merge(list(self.pool.map(_eval_chunk, *zip(*cuts))))


def h0_statistics(scenario, specs, trials, master_seed, stream=0, workers=1,
                  opt_config=None, engine=None):
    """Null-hypothesis statistics for each detector, {label: array}; workers
    is shorthand for engine=Engine(workers)."""
    cfg = TrialConfig(scenario, list(specs), trials, master_seed,
                      opt_config=opt_config)
    plan = _BatchPlan(scenario, cfg.spec_list(), opt_config)
    coeffs, _ = (engine or Engine(workers)).run(plan, master_seed, stream,
                                                 trials)
    return {label: detectors.statistic(c) for label, c in coeffs.items()}


@dataclass(frozen=True)
class ThresholdResult:
    tau: float
    achieved_pfa: float
    pfa_ci: tuple
    tau_ci: tuple
    trials: int


def threshold_from_stats(stats, pfa):
    """Order-statistic threshold at rank ceil(trials * (1 - pfa)).

    No interpolation: the threshold is an actual simulated value. Also
    reports the achieved exceedance rate with a Wilson interval and an
    order-statistic confidence interval on tau itself.

    achieved_pfa and pfa_ci are in-sample: they count exceedances of tau
    on the statistics it was taken from, so without ties achieved_pfa is
    (n - rank) / n, about pfa, by construction. They are no independent
    check of tau's false-alarm rate; that needs held-out h0 trials.
    """
    stats = np.asarray(stats, dtype=float)
    n = stats.shape[0]
    if not 0.0 < pfa < 1.0:
        raise ConfigError(f"pfa must lie in (0, 1), got {pfa}")
    require_finite(stats, "statistics",
                   "a threshold set on them would shift the achieved Pfa")
    rank = math.ceil(n * (1.0 - pfa))
    if rank < 1 or rank > n:
        raise ConfigError(
            f"quantile rank {rank} out of range for {n} trials at pfa={pfa}")
    if n * pfa < 50:
        warnings.warn(
            f"only {n * pfa:.0f} expected exceedances at pfa={pfa} with "
            f"{n} trials; threshold estimate will be noisy",
            RuntimeWarning, stacklevel=2)
    xs = np.sort(stats)
    tau = float(xs[rank - 1])
    half = 1.96 * math.sqrt(n * pfa * (1.0 - pfa))
    k_lo = max(1, int(math.floor(rank - half)))
    k_hi = min(n, int(math.ceil(rank + half)))
    exceed = int(np.sum(stats > tau))
    return ThresholdResult(tau=tau, achieved_pfa=exceed / n,
                           pfa_ci=wilson_ci(exceed, n),
                           tau_ci=(float(xs[k_lo - 1]), float(xs[k_hi - 1])),
                           trials=n)


def calibrate_threshold(cfg, stream=0, engine=None):
    """Per-detector thresholds at cfg.pfa_pre from one h0 run.

    Returns {label: ThresholdResult} for multi-detector configs, a single
    ThresholdResult when cfg.detector is one spec.
    """
    stats = h0_statistics(cfg.scenario, cfg.spec_list(), cfg.trials,
                          cfg.master_seed, stream=stream,
                          opt_config=cfg.opt_config, engine=engine)
    return cfg.unwrap({label: threshold_from_stats(x, cfg.pfa_pre)
                       for label, x in stats.items()})


class PdEvaluator:
    """Frozen coefficients of one simulation pass, reusable across SCNR.

    pd(label, tau, scnr, target_model) thresholds the statistic at scnr's
    amplitude without touching the simulator again.
    """

    def __init__(self, coeffs, amp, q, trials):
        self.coeffs = coeffs
        self.amp = amp
        self.q = q
        self.trials = trials

    def statistics(self, label, scnr, target_model):
        if target_model == "swerling0":
            b = math.sqrt(scnr / self.q)
        elif target_model == "swerling1":
            b = math.sqrt(scnr / self.q) * self.amp
        else:
            raise ConfigError(f"unknown target model {target_model!r}")
        return detectors.statistic(self.coeffs[label], b)

    def pd(self, label, tau, scnr, target_model):
        stats = self.statistics(label, scnr, target_model)
        require_finite(stats, "statistics",
                       "Pd would count them as detections or misses")
        k = int(np.sum(stats > tau))
        return k / self.trials, wilson_ci(k, self.trials)


def pd_evaluator(cfg, stream=1, plan=None, engine=None):
    """Frozen coefficients of one pass of cfg on stream.

    plan, a _BatchPlan of cfg's scenario and detectors, skips the set-up
    when a caller reuses it across passes.
    """
    if plan is None:
        plan = _BatchPlan(cfg.scenario, cfg.spec_list(), cfg.opt_config)
    coeffs, amp = (engine or Engine()).run(plan, cfg.master_seed, stream,
                                           cfg.trials)
    return PdEvaluator(coeffs, amp, plan.q, cfg.trials)


def estimate_pd(cfg, tau, scnr, target_model, stream=1, engine=None):
    """Detection probability at linear SCNR scnr; returns (pd, (lo, hi)).

    Multi-detector configs take tau as {label: tau} and return dicts.
    """
    ev = pd_evaluator(cfg, stream=stream, engine=engine)
    taus = cfg.by_label(tau)
    return cfg.unwrap({sp.label: ev.pd(sp.label, taus[sp.label], scnr,
                                       target_model)
                       for sp in cfg.spec_list()})


def pd_vs_scnr_sweep(cfg, tau, scnr_db_grid, target_model, stream_base=1,
                     engine=None):
    """Detection curves over an SCNR grid, fresh trials per grid point.

    tau is a scalar (single detector) or {label: tau}. Returns a Curve for a
    single detector, else {label: Curve}. target_model may also be a tuple
    of models: every model reads the same coefficient pass per grid point,
    and the result is {model: what one model would return}.
    """
    specs = cfg.spec_list()
    taus = cfg.by_label(tau)
    models = target_model if isinstance(target_model, tuple) \
        else (target_model,)
    grid = np.asarray(scnr_db_grid, dtype=float)
    # (pd, ci_lo, ci_hi) per model and label
    pds = {(t, sp.label): np.empty((3, grid.shape[0]))
           for t in models for sp in specs}
    plan = _BatchPlan(cfg.scenario, specs, cfg.opt_config)
    for i, db in enumerate(grid):
        ev = pd_evaluator(cfg, stream_base + i, plan, engine)
        for (t, lbl), out in pds.items():
            p, ci = ev.pd(lbl, taus[lbl], float(db_to_linear(db)), t)
            out[:, i] = p, *ci
    curves = {t: {} for t in models}
    for (t, lbl), (y, lo, hi) in pds.items():
        curves[t][lbl] = Curve(x=grid, y=y, ci_lo=lo, ci_hi=hi, label=lbl,
                               meta={"target": t, "tau": taus[lbl]})
    curves = {t: cfg.unwrap(c) for t, c in curves.items()}
    return curves if isinstance(target_model, tuple) \
        else curves[target_model]


def scnr_at_pd(cfg, tau, pd_target, target_model, stream=1,
               bracket_db=(-20.0, 40.0), db_tol=0.005, evaluator=None):
    """SCNR (dB) at which pd reaches pd_target, by bisection on cached
    coefficients. Pass evaluator to reuse a previous simulation pass."""
    if not 0.0 < pd_target < 1.0:
        raise ConfigError("pd_target must lie in (0, 1)")
    specs = cfg.spec_list()
    if len(specs) != 1:
        raise ConfigError("scnr_at_pd works on a single detector config")
    label = specs[0].label
    ev = evaluator if evaluator is not None else pd_evaluator(cfg, stream)

    def pd_at(db):
        return ev.pd(label, tau, float(db_to_linear(db)), target_model)[0]

    lo, hi = float(bracket_db[0]), float(bracket_db[1])
    for _ in range(12):
        if pd_at(lo) < pd_target:
            break
        lo -= 10.0
    else:
        raise NumericalError(
            f"pd never falls below {pd_target} for {label} (min scnr "
            f"{lo + 10.0} dB); is the target below the false-alarm rate?")
    for _ in range(12):
        if pd_at(hi) >= pd_target:
            break
        hi += 10.0
    else:
        raise NumericalError(
            f"pd never reaches {pd_target} for {label} (max scnr {hi} dB)")
    while hi - lo > db_tol:
        mid = 0.5 * (lo + hi)
        if pd_at(mid) < pd_target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def detection_loss_table(scenario, specs, pfa_pre, threshold_trials,
                         pd_trials, master_seed, pd_target=0.5,
                         target_models=("swerling0", "swerling1"),
                         opt_config=None, engine=None):
    """SCNR loss of each detector against the clairvoyant filter.

    One h0 pass calibrates every threshold, one coefficient pass serves all
    SCNR bisections (common random numbers across detectors and targets).
    Rows: {detector, kind, target, tau, scnr_db, loss_db, threshold}, with
    the detector's ThresholdResult as threshold.
    """
    specs = list(specs)
    if not any(sp.kind == NP for sp in specs):
        specs = [DetectorSpec(NP)] + specs
    cal_cfg = TrialConfig(scenario, specs, threshold_trials, master_seed,
                          pfa_pre, opt_config)
    pd_cfg = replace(cal_cfg, trials=pd_trials)
    taus = calibrate_threshold(cal_cfg, engine=engine)
    ev = pd_evaluator(pd_cfg, stream=1, engine=engine)
    rows = []
    for target in target_models:
        ref_db = None
        for sp in specs:
            db = scnr_at_pd(replace(pd_cfg, detector=sp), taus[sp.label].tau,
                            pd_target, target, evaluator=ev)
            if sp.kind == NP:
                ref_db = db
            rows.append({"detector": sp.label, "kind": sp.kind,
                         "target": target, "tau": taus[sp.label].tau,
                         "scnr_db": db, "threshold": taus[sp.label]})
        for row in rows:
            if row["target"] == target:
                row["loss_db"] = row["scnr_db"] - ref_db
    return rows


def empirical_pdf(cfg, bins=80, value_range=None, stream=0, engine=None):
    """Histogram of each detector's h0 statistic, {label: Histogram}."""
    stats = h0_statistics(cfg.scenario, cfg.spec_list(), cfg.trials,
                          cfg.master_seed, stream=stream,
                          opt_config=cfg.opt_config, engine=engine)
    out = {}
    for label, x in stats.items():
        dens, edges = np.histogram(x, bins=bins, range=value_range,
                                   density=True)
        out[label] = Histogram(bin_edges=edges, density=dens,
                               n_samples=cfg.trials, label=label)
    return cfg.unwrap(out)
