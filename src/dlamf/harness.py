"""Monte Carlo harness: batched trials, threshold calibration, ROC curves.

Trials are evaluated in fixed-size chunks. Each trial owns a Philox counter
block derived from (master_seed, stream, trial index), so every number here
is a pure function of the configuration and seed no matter how chunks are
scheduled or how many workers run; a unit test pins the batched generator
against the documented scalar construction bit for bit.

Detection probabilities use a frozen-coefficient trick: the target amplitude
b enters every statistic through s^H M^{-1} (y0 + b s) = alpha + b * beta
with alpha, beta, and the normalizer depending only on the noise draw and
the SCM (per-trial loading factors included, since they are functions of the
SCM alone). One simulation pass therefore serves every SCNR on the sweep,
and SCNR-at-Pd bisection re-thresholds cached coefficients instead of
re-simulating. Swerling 0 and Swerling I share the same draws through a
frozen unit amplitude per trial.

Within a chunk, trials are drawn, colored, reduced to their sample
covariances S and factored a block at a time: at most _BLOCK trials, and
fewer when their snapshots would pass _BLOCK_BYTES. A block keeps only y0
and a few numbers per trial, so a chunk of B trials holds O(N K + B N)
memory at any array size.

The statistics themselves are detectors.Plan's: its spectral_forms give
(alpha, beta, mu0_hat) at each loading the set needs, the per-trial EL and
opt searches included, and its assemble turns them into each kind's
(alpha, beta, norm). evaluate_statistic is the same code on one trial.
Each run factors S one of two ways, chosen from the detector set alone:

- spectral route, when the set holds a kind that picks its loading per
  trial (el-amf, cfar-el-amf, opt-cfar-dl-amf): LAPACK zhetrd reduces each
  S to a real tridiagonal matrix and dstev gives its eigenvalues and real
  eigenvectors, so no complex eigenvectors are formed (_spectral_rows).
  The eigenvalues are clamped at EIG_FLOOR_REL of the largest as the
  scalar path clamps them. A block keeps the rows l, |V^H s|^2 and
  conj(V^H s) (V^H y0), and spectral_forms runs once over the chunk's rows;
- Cholesky route, for every other set: one bordered Cholesky factorization
  of S + lam I per distinct fixed loading (lam = 0 for scm-amf and the
  dl-scm-beta normalizer), shared by all kinds at that loading. A block
  allocates one bordered buffer; S is formed straight into its top-left
  corner and each loading only rewrites the diagonal. cfar-dl-amf's mu0_hat
  comes from a triangular inverse of the same factor, one matrix at a time.

persym-amf factors the persymmetrized SCM by Cholesky in both routes, in a
bordered buffer of its own written from S before any loading is factored
or S is reduced. Unloaded forms raise NumericalError on a numerically
singular SCM on both routes, as evaluate_statistic does.

Reproducibility: for a given (seed, stream, trial, detector set) every
statistic is bit-identical for every worker count and chunk size. Two
detector sets that take different routes may differ in the last bits of a
fixed-loading kind's statistic. Complex products of per-trial arrays are
explicit np.multiply calls: the `*` operator lets NumPy reuse a temporary
of 256 KiB or more as its output with the operands swapped, and the
swapped product rounds differently, which would tie the bits to the
number of trials sharing an array.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dstev, zhetrd, zhetrd_lwork, ztrtri

from . import detectors
from .detectors import NP, DetectorSpec
from .errors import ConfigError, NumericalError
from .optimizer import OptConfig, lambda_opt
from .results import Curve, Histogram
from .scenario import EIG_FLOOR_REL, philox_key

DEFAULT_CHUNK = 4096
# stands in for +inf on the border diagonal of _bordered
_BORDER = 1e200
# trials drawn, colored and reduced at a time within a chunk: at most
# _BLOCK, and fewer when their snapshots (16 N (K+1) bytes each) would
# exceed _BLOCK_BYTES
_BLOCK = 256
_BLOCK_BYTES = 2 ** 24
_SQRT2 = np.sqrt(2)


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
    """One Monte Carlo run: scenario, detector(s), budget, seed."""

    scenario: object
    detector: object  # DetectorSpec or sequence of them
    trials: int
    master_seed: int = 0
    pfa_pre: float = 1e-3
    workers: int = 1
    chunk: int = DEFAULT_CHUNK
    opt_config: OptConfig | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not 0.0 < self.pfa_pre < 1.0:
            raise ConfigError(f"pfa must lie in (0, 1), got {self.pfa_pre}")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.chunk < 1:
            raise ConfigError("chunk must be >= 1")

    def spec_list(self):
        if isinstance(self.detector, DetectorSpec):
            return [self.detector]
        specs = list(self.detector)
        if not specs:
            raise ConfigError("at least one detector is required")
        return specs


# --- batched evaluation ----------------------------------------------------

class _BatchPlan(detectors.Plan):
    """A detectors.Plan of the scenario's true covariance, plus what
    drawing and factoring a chunk needs; built once per run."""

    def __init__(self, scenario, specs, opt_config=None):
        labels = [sp.label for sp in specs]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"duplicate detector labels in {labels}")
        R = scenario.covariance()
        super().__init__(specs, scenario.steering, scenario.K, R, opt_config,
                         design=lambda_opt)
        self.base = 1.0 - self.N / self.K
        self.sqrtR = R.sqrt_matrix()
        self.block = max(1, min(_BLOCK, _BLOCK_BYTES
                                // (16 * self.N * (self.K + 1))))
        # factorization route: a spectrum only when a loading is chosen per
        # trial
        self.spectral = self.need_el or self.need_opt
        if self.spectral:
            self.lwork = int(zhetrd_lwork(self.N, lower=1)[0].real)


def _reset_state(bitgen, ctr, key, buf, trial):
    ctr[1] = trial  # counter = trial * 2**64
    bitgen.state = {"bit_generator": "Philox",
                    "state": {"counter": ctr, "key": key},
                    "buffer": buf, "buffer_pos": 4,
                    "has_uint32": 0, "uinteger": 0}


def _generate(plan, master_seed, stream, lo, hi, want_amp):
    """Raw colored snapshots for trials [lo, hi) plus unit amplitudes."""
    B = hi - lo
    N, K = plan.N, plan.K
    M = K + 1
    nm = N * M
    key = philox_key(master_seed, stream)
    bitgen = np.random.Philox(key=key)
    gen = np.random.Generator(bitgen)
    ctr = np.zeros(4, np.uint64)
    buf = np.zeros(4, np.uint64)
    raw = np.empty((B, 2 * nm))
    amp = np.empty((B, 2)) if want_amp else None
    for i in range(B):
        _reset_state(bitgen, ctr, key, buf, lo + i)
        gen.standard_normal(out=raw[i])
        if want_amp:
            gen.standard_normal(out=amp[i])
    # reals then imaginaries per trial; equal bit for bit to
    # (re + 1j * im) / sqrt(2), without the complex temporaries
    Z = np.empty((B, N, M), dtype=complex)
    Z.real = raw[:, :nm].reshape(B, N, M)
    Z.imag = raw[:, nm:].reshape(B, N, M)
    del raw
    Z /= _SQRT2
    colored = np.matmul(plan.sqrtR, Z)
    amp_c = (amp[:, 0] + 1j * amp[:, 1]) / _SQRT2 if want_amp else None
    # y0 is a copy, so dropping the secondaries frees the snapshot array
    return colored[:, :, 0].copy(), colored[:, :, 1:], amp_c


def _bordered(plan, y0):
    """Zeroed (B, N+2, N+2) buffer with the border of [[M, X], [X^H, D]].

    X = [s, y0] and D = _BORDER I. The border is written below the diagonal
    only; Cholesky reads no more. The caller writes M + lam I into the
    top-left N x N block.
    """
    B, N = y0.shape
    A = np.zeros((B, N + 2, N + 2), dtype=complex)
    A[:, N, :N] = np.conj(plan.s)
    A[:, N + 1, :N] = np.conj(y0)
    A[:, N, N] = A[:, N + 1, N + 1] = _BORDER
    return A


def _cholesky_forms(A, lam, plan, with_mu0):
    """(alpha, beta, mu0h) at loading lam from one Cholesky factorization.

    A is a _bordered buffer whose top-left block holds M + lam I. Its factor
    is [[L, 0], [W, *]] with L L^H = M + lam I and W^H = L^{-1} X, so the
    forward substitutions u = L^{-1} s and v = L^{-1} y0 come out of the
    same LAPACK call. Only the lower triangle is read, so M need not be
    symmetrized. D = _BORDER keeps the trailing 2x2 Schur complement
    positive; it does not touch L or W. mu0h needs
    tr((M + lam I)^{-1}) = ||L^{-1}||_F^2 and
    s^H (M + lam I)^{-1} M (M + lam I)^{-1} s = beta - lam ||u^H L^{-1}||^2.
    """
    N = plan.N
    try:
        F = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"Cholesky factorization failed at loading {lam:g}: "
            "sample covariance is not positive definite") from exc
    L = F[:, :N, :N]
    if lam == 0.0:
        # lambda_min <= min L_ii^2 and lambda_max >= max M_ii
        detectors.guard_invertible(
            np.diagonal(L, axis1=1, axis2=2).real.min(1) ** 2,
            np.diagonal(A, axis1=1, axis2=2)[:, :N].real.max(1))
    uh = F[:, N, :N]
    # np.multiply, not `*`: see Reproducibility in the module docstring
    alpha = np.multiply(uh, np.conj(F[:, N + 1, :N])).sum(1)
    beta = (np.abs(uh) ** 2).sum(1)
    mu0h = None
    if with_mu0:
        tr, xn = _inverse_norms(L, uh)
        d1 = plan.base + lam * tr / plan.K
        mu0h = (beta - lam * xn) / d1 ** 2
    return alpha, beta, mu0h


def _inverse_norms(L, uh):
    """Rows ||L^{-1}||_F^2 and ||uh L^{-1}||^2 of lower-triangular L.

    One LAPACK triangular inverse per matrix (a sixth of the flops of a
    general inverse); no (B, N, N) inverse is kept.
    """
    B = L.shape[0]
    tr = np.empty(B)
    xn = np.empty(B)
    for b in range(B):
        Linv, info = ztrtri(L[b], lower=1)
        if info:
            raise NumericalError(
                "triangular inverse of the Cholesky factor failed "
                f"(info={info})")
        x = uh[b] @ Linv
        tr[b] = np.vdot(Linv, Linv).real
        xn[b] = np.vdot(x, x).real
    return tr, xn


def _persym_forms(S, y0, plan):
    """persym-amf's (alpha, beta, None) from the persymmetrized SCM
    0.5 (S + J S^T J), written into a bordered buffer of its own.

    J S^T J reads the lower triangle of S where J conj(S) J reads the upper
    one; the two agree on a Hermitian S.
    """
    N = plan.N
    A = _bordered(plan, y0)
    blk = A[:, :N, :N]
    np.add(S, S.transpose(0, 2, 1)[:, ::-1, ::-1], out=blk)
    blk *= 0.5
    return _cholesky_forms(A, 0.0, plan, False)


def _spectral_rows(S, y0, plan):
    """The rows l, w2 = |V^H s|^2 and wz = conj(V^H s) (V^H y0) of a block.

    S holds the block's SCMs and is overwritten. Each S^T = conj(S), a
    Fortran-ordered view, goes through zhetrd, which reduces it to a real
    tridiagonal T = Q^H conj(S) Q, and dstev, which gives T = U diag(l) U^T.
    The eigenvectors of S are then V = conj(Q) U, so V^H x is the conjugate
    of U^T Q^H conj(x): the stored reflectors of Q act on conj(s) and
    conj(y0) of every trial at once, and U^T on both.
    """
    B, N = y0.shape
    l = np.empty((B, N))
    Ut = np.empty((B, N, N))
    tau = np.empty((B, N - 1), dtype=complex)
    for b in range(B):
        # the reflectors H(i) = I - tau_i v_i v_i^H stay in S[b]'s upper
        # triangle: v_i is 0 before entry i+1, 1 there, then S[b, i, i+2:]
        _, d, e, tau[b], info = zhetrd(S[b].T, lower=1, lwork=plan.lwork,
                                       overwrite_a=1)
        if not info:
            # dstev wants one off-diagonal entry even when N = 1
            l[b], U, info = dstev(d, e if N > 1 else np.zeros(1),
                                  overwrite_d=1, overwrite_e=1)
        if info:
            raise NumericalError(
                f"tridiagonal eigensolver failed (info={info})")
        Ut[b] = U.T
    # x = Q^H conj([s, y0]) = H(N-2)^H ... H(0)^H conj([s, y0])
    x = np.empty((B, 2, N), dtype=complex)
    x[:, 0] = np.conj(plan.s)
    x[:, 1] = np.conj(y0)
    for i in range(N - 1):
        v = S[:, i, i + 1:].copy()
        v[:, 0] = 1.0
        # np.multiply, not `*`: see Reproducibility in the module docstring
        c = np.multiply(np.conj(tau[:, i, None]),
                        np.multiply(np.conj(v)[:, None, :],
                                    x[:, :, i + 1:]).sum(-1))
        x[:, :, i + 1:] -= np.multiply(c[:, :, None], v[:, None, :])
    # U^T x on the real and imaginary parts as four real columns
    x = np.matmul(Ut, x.transpose(0, 2, 1).copy().view(float)).view(complex)
    w2 = np.abs(x[:, :, 0]) ** 2
    # the floor HermitianSpectrum.from_matrix sets in the scalar path
    return {"l": np.maximum(l, EIG_FLOOR_REL * l[:, -1:]), "w2": w2,
            "wz": np.multiply(x[:, :, 0], np.conj(x[:, :, 1]))}


def _reduce_block(plan, master_seed, stream, lo, hi, want_amp):
    """Draw trials [lo, hi) and reduce them to what the statistics need.

    Returns y0, the unit amplitudes when asked, persym-amf's forms when
    planned, and per route either the spectral rows l, w2 = |V^H s|^2 and
    wz = conj(V^H s) (V^H y0), or the Cholesky forms of each fixed loading
    (keyed by the loading). Nothing of size N x K outlives the block.
    """
    y0, Y, amp = _generate(plan, master_seed, stream, lo, hi, want_amp)
    N, K = plan.N, plan.K
    out = {"y0": y0}
    if want_amp:
        out["amp"] = amp
    if plan.spectral:
        S = np.matmul(Y, Y.conj().transpose(0, 2, 1))
        del Y
        S /= K
        if plan.need_persym:
            # first, since the spectral rows overwrite S
            out["persym"] = _persym_forms(S, y0, plan)
        out.update(_spectral_rows(S, y0, plan))
    elif plan.need_scm:
        # one bordered buffer serves every loading: its block holds S, and
        # only the diagonal changes between factorizations
        A = _bordered(plan, y0)
        blk = A[:, :N, :N]
        np.matmul(Y, Y.conj().transpose(0, 2, 1), out=blk)
        del Y
        blk /= K
        if plan.need_persym:
            out["persym"] = _persym_forms(blk, y0, plan)
        diag = np.arange(N)
        diag_S = blk[:, diag, diag]
        for lam in plan.fixed_lams:
            blk[:, diag, diag] = diag_S + lam
            out[lam] = _cholesky_forms(A, lam, plan, lam in plan.mu0_lams)
    return out


def _eval_chunk(plan, master_seed, stream, lo, hi, mode):
    """Evaluate all planned detectors on trials [lo, hi).

    mode 'h0' returns {label: statistics}; mode 'coeff' returns
    {label: (alpha, beta, norm)} plus the frozen unit amplitudes under
    '__amp__'. alpha, beta are the affine pieces of the filter output in the
    target amplitude; norm is the per-trial normalizer.

    Trials are drawn and reduced a block at a time; the loading searches
    and the spectral forms then run once over the chunk's rows.
    """
    want_amp = mode == "coeff"
    red = _merge([_reduce_block(plan, master_seed, stream, b,
                                min(b + plan.block, hi), want_amp)
                  for b in range(lo, hi, plan.block)])
    forms = red
    if plan.spectral:
        forms = {**red, **plan.spectral_forms(red["l"], red["w2"],
                                               red["wz"])}
    out = {}
    for sp in plan.specs:
        alpha, beta, norm = plan.assemble(sp, forms, red["y0"])
        if mode == "h0":
            out[sp.label] = np.abs(alpha) ** 2 / norm
        else:
            out[sp.label] = (alpha, beta, norm)
    if want_amp:
        out["__amp__"] = red["amp"]
    return out


def _chunk_call(args):
    return _eval_chunk(*args)


def _merge(parts):
    """Concatenate per-range results in order; tuples element by element."""
    merged = {}
    for key, first in parts[0].items():
        if isinstance(first, tuple):
            merged[key] = tuple(
                None if x is None
                else np.concatenate([p[key][j] for p in parts])
                for j, x in enumerate(first))
        else:
            merged[key] = np.concatenate([p[key] for p in parts])
    return merged


def _run_batches(plan, trials, master_seed, stream, workers, chunk, mode):
    ranges = [(lo, min(lo + chunk, trials)) for lo in range(0, trials, chunk)]
    args = [(plan, master_seed, stream, lo, hi, mode) for lo, hi in ranges]
    if workers <= 1 or len(args) == 1:
        parts = [_chunk_call(a) for a in args]
    else:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            parts = list(ex.map(_chunk_call, args))
    return _merge(parts)


def h0_statistics(scenario, specs, trials, master_seed, stream=0, workers=1,
                  chunk=DEFAULT_CHUNK, opt_config=None):
    """Null-hypothesis statistics for each detector, {label: array}."""
    plan = _BatchPlan(scenario, list(specs), opt_config)
    return _run_batches(plan, trials, master_seed, stream, workers, chunk,
                        "h0")


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
    """
    stats = np.asarray(stats, dtype=float)
    n = stats.shape[0]
    if not 0.0 < pfa < 1.0:
        raise ConfigError(f"pfa must lie in (0, 1), got {pfa}")
    bad = int(np.count_nonzero(~np.isfinite(stats)))
    if bad:
        raise NumericalError(
            f"{bad} of {n} statistics are NaN or infinite; a threshold "
            "set on them would shift the achieved Pfa")
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


def calibrate_threshold(cfg, stream=0):
    """Per-detector thresholds at cfg.pfa_pre from one h0 run.

    Returns {label: ThresholdResult} for multi-detector configs, a single
    ThresholdResult when cfg.detector is one spec.
    """
    specs = cfg.spec_list()
    stats = h0_statistics(cfg.scenario, specs, cfg.trials, cfg.master_seed,
                          stream=stream, workers=cfg.workers, chunk=cfg.chunk,
                          opt_config=cfg.opt_config)
    res = {sp.label: threshold_from_stats(stats[sp.label], cfg.pfa_pre)
           for sp in specs}
    if isinstance(cfg.detector, DetectorSpec):
        return res[cfg.detector.label]
    return res


class PdEvaluator:
    """Frozen coefficients of one simulation pass, reusable across SCNR.

    pd(label, tau, scnr, target_model) thresholds |alpha + b(scnr) beta|^2
    / norm without touching the simulator again.
    """

    def __init__(self, coeffs, q, trials):
        self.amp = coeffs.pop("__amp__")
        self.coeffs = coeffs
        self.q = q
        self.trials = trials

    def statistics(self, label, scnr, target_model):
        alpha, beta, norm = self.coeffs[label]
        if target_model == "swerling0":
            b = math.sqrt(scnr / self.q)
        elif target_model == "swerling1":
            b = math.sqrt(scnr / self.q) * self.amp
        else:
            raise ConfigError(f"unknown target model {target_model!r}")
        return np.abs(alpha + b * beta) ** 2 / norm

    def pd(self, label, tau, scnr, target_model):
        stats = self.statistics(label, scnr, target_model)
        k = int(np.sum(stats > tau))
        return k / self.trials, wilson_ci(k, self.trials)


def pd_evaluator(cfg, stream=1, plan=None):
    """Frozen coefficients of one pass of cfg on stream.

    plan, a _BatchPlan of cfg's scenario and detectors, skips the set-up
    when a caller reuses it across passes.
    """
    if plan is None:
        plan = _BatchPlan(cfg.scenario, cfg.spec_list(), cfg.opt_config)
    coeffs = _run_batches(plan, cfg.trials, cfg.master_seed, stream,
                          cfg.workers, cfg.chunk, "coeff")
    return PdEvaluator(coeffs, plan.q, cfg.trials)


def estimate_pd(cfg, tau, scnr, target_model, stream=1):
    """Detection probability at linear SCNR scnr; returns (pd, (lo, hi)).

    Multi-detector configs take tau as {label: tau} and return dicts.
    """
    ev = pd_evaluator(cfg, stream=stream)
    if isinstance(cfg.detector, DetectorSpec):
        return ev.pd(cfg.detector.label, tau, scnr, target_model)
    return {lbl: ev.pd(lbl, tau[lbl], scnr, target_model)
            for lbl in (sp.label for sp in cfg.spec_list())}


def pd_vs_scnr_sweep(cfg, tau, scnr_db_grid, target_model, stream_base=1):
    """Detection curves over an SCNR grid, fresh trials per grid point.

    tau is a scalar (single detector) or {label: tau}. Returns a Curve for a
    single detector, else {label: Curve}. target_model may also be a tuple
    of models: every model reads the same coefficient pass per grid point,
    and the result is {model: what one model would return}.
    """
    specs = cfg.spec_list()
    single = isinstance(cfg.detector, DetectorSpec)
    taus = {specs[0].label: tau} if single else dict(tau)
    models = target_model if isinstance(target_model, tuple) \
        else (target_model,)
    grid = np.asarray(scnr_db_grid, dtype=float)
    # (pd, ci_lo, ci_hi) per model and label
    pds = {(t, sp.label): np.empty((3, grid.shape[0]))
           for t in models for sp in specs}
    plan = _BatchPlan(cfg.scenario, specs, cfg.opt_config)
    for i, db in enumerate(grid):
        ev = pd_evaluator(cfg, stream=stream_base + i, plan=plan)
        for (t, lbl), out in pds.items():
            p, (lo, hi) = ev.pd(lbl, taus[lbl], float(db_to_linear(db)), t)
            out[:, i] = p, lo, hi
    curves = {t: {} for t in models}
    for (t, lbl), (y, lo, hi) in pds.items():
        curves[t][lbl] = Curve(x=grid, y=y, ci_lo=lo, ci_hi=hi, label=lbl,
                               meta={"target": t, "tau": taus[lbl]})
    if single:
        curves = {t: c[specs[0].label] for t, c in curves.items()}
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
                         target_models=("swerling0", "swerling1"), workers=1,
                         chunk=DEFAULT_CHUNK, opt_config=None):
    """SCNR loss of each detector against the clairvoyant filter.

    One h0 pass calibrates every threshold, one coefficient pass serves all
    SCNR bisections (common random numbers across detectors and targets).
    Rows: {detector, target, tau, scnr_db, loss_db}.
    """
    specs = list(specs)
    if not any(sp.kind == NP for sp in specs):
        specs = [DetectorSpec(NP)] + specs
    cal_cfg = TrialConfig(scenario=scenario, detector=specs,
                          trials=threshold_trials, master_seed=master_seed,
                          pfa_pre=pfa_pre, workers=workers, chunk=chunk,
                          opt_config=opt_config)
    taus = calibrate_threshold(cal_cfg)
    pd_cfg = replace(cal_cfg, trials=pd_trials)
    ev = pd_evaluator(pd_cfg, stream=1)
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
                         "scnr_db": db})
        for row in rows:
            if row["target"] == target:
                row["loss_db"] = row["scnr_db"] - ref_db
    return rows


def empirical_pdf(cfg, bins=80, value_range=None, stream=0):
    """Histogram of each detector's h0 statistic, {label: Histogram}."""
    specs = cfg.spec_list()
    stats = h0_statistics(cfg.scenario, specs, cfg.trials, cfg.master_seed,
                          stream=stream, workers=cfg.workers, chunk=cfg.chunk,
                          opt_config=cfg.opt_config)
    out = {}
    for sp in specs:
        dens, edges = np.histogram(stats[sp.label], bins=bins,
                                   range=value_range, density=True)
        out[sp.label] = Histogram(bin_edges=edges, density=dens,
                                  n_samples=cfg.trials, label=sp.label)
    return out[specs[0].label] if isinstance(cfg.detector, DetectorSpec) \
        else out
