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

Each run factors the sample covariance S one of two ways, chosen from the
detector set alone:

- spectral route, when the set holds a kind that picks its loading per
  trial (el-amf, cfar-el-amf, opt-cfar-dl-amf): one batched eigh of S, and
  every fixed loading in the set is read off that spectrum too;
- Cholesky route, for every other set: one bordered Cholesky factorization
  of S + lam I per distinct fixed loading (lam = 0 for scm-amf and the
  dl-scm-beta normalizer), shared by all kinds at that loading, with
  cfar-dl-amf's mu0_hat taken from the same factor.

persym-amf factors the persymmetrized SCM by Cholesky in both routes.
Unloaded forms raise NumericalError on a numerically singular SCM, as the
scalar detectors do.

Reproducibility: for a given (seed, stream, trial, detector set) every
statistic is bit-identical for every worker count and chunk size. Two
detector sets that take different routes may differ in the last bits of a
fixed-loading kind's statistic.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import detectors, estimators, rmt
from .detectors import (CFAR_DL_AMF, CFAR_DL_SCMF, CFAR_EL_AMF, DL_AMF,
                        DL_RAW, DL_SCM_BETA, EL_AMF, NP, OPT_CFAR_DL_AMF,
                        OPT_CFAR_DL_SCMF, PERSYM_AMF, SCM_AMF, DetectorSpec)
from .errors import ConfigError, NumericalError
from .optimizer import _GOLDEN, OptConfig, lambda_opt
from .results import Curve, Histogram
from .scenario import philox_key

DEFAULT_CHUNK = 4096
# stands in for +inf on the border diagonal of _bordered
_BORDER = 1e200
_SQRT2 = np.sqrt(2)
_EL_FTOL = estimators._EL_FTOL


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

class _BatchPlan:
    """Everything chunk evaluation needs, precomputed once per run."""

    def __init__(self, scenario, specs, opt_config=None):
        labels = [sp.label for sp in specs]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"duplicate detector labels in {labels}")
        self.specs = list(specs)
        self.N = scenario.N
        self.K = scenario.K
        self.base = 1.0 - self.N / self.K
        R = scenario.covariance()
        self.sqrtR = R.sqrt_matrix()
        self.s = scenario.steering.entries
        self.q = R.inv_quad(self.s)
        self.t_conj = np.conj(R.apply_inv(self.s))

        kinds = {sp.kind for sp in specs}
        self.need_scm = bool(kinds - {NP})
        self.need_el = bool(kinds & {EL_AMF, CFAR_EL_AMF})
        self.need_opt = OPT_CFAR_DL_AMF in kinds
        self.need_persym = PERSYM_AMF in kinds
        # factorization route: eigh only when a loading is chosen per trial
        self.spectral = self.need_el or self.need_opt
        # fixed loadings whose mu0_hat normalizer is needed
        self.mu0_lams = {sp.lam for sp in specs if sp.kind == CFAR_DL_AMF}
        self.log_zeta = (estimators.log_zeta_median(self.N, self.K)
                         if self.need_el else None)

        cfg = opt_config or OptConfig()
        self.grid_points = cfg.grid_points
        self.tol = cfg.tol
        self.flat_rtol = cfg.flat_rtol
        self.lambda_max = cfg.lambda_max

        # oracle-side constants
        self.oracle_mu0 = {}
        self.opt_lambda_star = None
        for sp in specs:
            if sp.kind == CFAR_DL_SCMF:
                self.oracle_mu0[sp.lam] = rmt.deterministic_equivalents(
                    R, self.s, sp.lam, self.K).mu0
            elif sp.kind == OPT_CFAR_DL_SCMF:
                self.opt_lambda_star = lambda_opt(R, self.s, self.K,
                                                  cfg).lambda_star
                self.oracle_mu0[self.opt_lambda_star] = \
                    rmt.deterministic_equivalents(
                        R, self.s, self.opt_lambda_star, self.K).mu0


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
    key = philox_key(master_seed, stream)
    bitgen = np.random.Philox(key=key)
    gen = np.random.Generator(bitgen)
    ctr = np.zeros(4, np.uint64)
    buf = np.zeros(4, np.uint64)
    Z = np.empty((B, N, M), dtype=complex)
    amp = np.empty((B, 2)) if want_amp else None
    nm = N * M
    for i in range(B):
        _reset_state(bitgen, ctr, key, buf, lo + i)
        z = gen.standard_normal(2 * nm)
        Z[i] = (z[:nm].reshape(N, M) + 1j * z[nm:].reshape(N, M)) / _SQRT2
        if want_amp:
            amp[i] = gen.standard_normal(2)
    colored = np.matmul(plan.sqrtR, Z)
    amp_c = (amp[:, 0] + 1j * amp[:, 1]) / _SQRT2 if want_amp else None
    return colored[:, :, 0], colored[:, :, 1:], amp_c


def _el_lambda_rows(l, log_zeta):
    """Vector form of the EL bisection; mirrors estimators._el_root."""
    B, N = l.shape

    def logg(lam):
        r = l / (l + lam[:, None])
        return np.log(r).sum(1) + N - r.sum(1)

    hi = l[:, -1].copy()
    for _ in range(200):
        m = logg(hi) - log_zeta > 0.0
        if not m.any():
            break
        hi[m] *= 2.0
    else:
        raise NumericalError("EL bracket expansion failed")
    lo = np.zeros(B)
    out = np.empty(B)
    done = np.zeros(B, dtype=bool)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = logg(mid) - log_zeta
        newly = (np.abs(val) <= _EL_FTOL) & ~done
        out[newly] = mid[newly]
        done |= newly
        if done.all():
            return out
        act = ~done
        gt = val > 0.0
        lo = np.where(act & gt, mid, lo)
        hi = np.where(act & ~gt, mid, hi)
    raise NumericalError("EL bisection stalled in batch path")


def _opt_lambda_rows(l, w2, plan):
    """Vector form of optimizer.maximize_over_lambda on kappa_lower_hat.

    Mirrors the scalar grid construction and golden-section iteration so
    batch and scalar paths agree to rounding.
    """
    B, N = l.shape
    K = plan.K
    base = plan.base
    P = plan.grid_points

    def obj(lam):
        den = l + lam[:, None]
        d1 = base + lam * (1.0 / den).sum(1) / K
        psi = (w2 / den).sum(1)
        num = (w2 * l / den ** 2).sum(1)
        return d1 ** 2 * psi ** 2 / num

    v0 = obj(np.zeros(B))
    if plan.lambda_max is None:
        lam_max = 100.0 * l.mean(1)
    else:
        lam_max = np.full(B, float(plan.lambda_max))
    stop = np.log10(lam_max)
    step = (stop + 3.0) / (P - 1)

    grid = np.empty((B, P + 1))
    grid[:, 0] = 0.0
    best_v = v0.copy()
    best_j = np.zeros(B, dtype=int)
    for j in range(P):
        e = stop if j == P - 1 else -3.0 + j * step
        lam_j = 10.0 ** e
        grid[:, j + 1] = lam_j
        v = obj(lam_j)
        upd = v > best_v  # strict: ties keep the smaller loading
        best_v = np.where(upd, v, best_v)
        best_j = np.where(upd, j + 1, best_j)

    flat = best_v - v0 <= plan.flat_rtol * np.maximum(1.0, np.abs(v0))

    idx_lo = np.maximum(best_j - 1, 0)
    idx_hi = np.minimum(best_j + 1, P)
    a = np.take_along_axis(grid, idx_lo[:, None], 1)[:, 0]
    b = np.take_along_axis(grid, idx_hi[:, None], 1)[:, 0]
    lam_best = np.take_along_axis(grid, best_j[:, None], 1)[:, 0]

    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1 = obj(x1)
    f2 = obj(x2)
    for _ in range(200):
        conv = (b - a) <= plan.tol * np.maximum(np.maximum(np.abs(a),
                                                           np.abs(b)), 1e-30)
        act = ~conv & ~flat
        if not act.any():
            break
        m1 = act & (f1 < f2)
        m2 = act & ~m1
        a = np.where(m1, x1, a)
        x1 = np.where(m1, x2, x1)
        f1 = np.where(m1, f2, f1)
        nx2 = a + _GOLDEN * (b - a)
        b = np.where(m2, x2, b)
        x2 = np.where(m2, x1, x2)
        f2 = np.where(m2, f1, f2)
        nx1 = b - _GOLDEN * (b - a)
        xq = np.where(m1, nx2, nx1)
        fq = obj(xq)
        x2 = np.where(m1, xq, x2)
        f2 = np.where(m1, fq, f2)
        x1 = np.where(m2, xq, x1)
        f1 = np.where(m2, fq, f1)

    xs = np.where(f1 >= f2, x1, x2)
    fs = np.where(f1 >= f2, f1, f2)
    xs = np.where(best_v >= fs, lam_best, xs)  # grid point still best
    return np.where(flat, 0.0, xs)


def _bordered(M, lam, s, y0):
    """[[M + lam I, X], [X^H, D]] with X = [s, y0] and D = _BORDER I.

    The border is written below the diagonal only; Cholesky reads no more.
    """
    B, N, _ = M.shape
    A = np.zeros((B, N + 2, N + 2), dtype=complex)
    A[:, :N, :N] = M
    diag = np.arange(N)
    A[:, diag, diag] += lam
    A[:, N, :N] = np.conj(s)
    A[:, N + 1, :N] = np.conj(y0)
    A[:, N, N] = A[:, N + 1, N + 1] = _BORDER
    return A


def _cholesky_forms(M, lam, plan, y0, with_mu0):
    """(alpha, beta, mu0h) at loading lam from one Cholesky factorization.

    Factors the bordered matrix of _bordered: its factor is [[L, 0], [W, *]]
    with L L^H = M + lam I and W^H = L^{-1} X, so the forward substitutions
    u = L^{-1} s and v = L^{-1} y0 come out of the same LAPACK call. Only
    the lower triangle is read, so M need not be symmetrized. D = _BORDER
    keeps the trailing 2x2 Schur complement positive; it does not touch L
    or W. mu0h needs tr((M + lam I)^{-1}) = ||L^{-1}||_F^2 and
    s^H (M + lam I)^{-1} M (M + lam I)^{-1} s = beta - lam ||u^H L^{-1}||^2.
    """
    N = M.shape[1]
    try:
        F = np.linalg.cholesky(_bordered(M, lam, plan.s, y0))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"Cholesky factorization failed at loading {lam:g}: "
            "sample covariance is not positive definite") from exc
    L = F[:, :N, :N]
    if lam == 0.0:
        # lambda_min <= min L_ii^2 and lambda_max >= max M_ii
        detectors.guard_invertible(
            np.diagonal(L, axis1=1, axis2=2).real.min(1) ** 2,
            np.diagonal(M, axis1=1, axis2=2).real.max(1))
    uh = F[:, N, :N]
    alpha = (uh * np.conj(F[:, N + 1, :N])).sum(1)
    beta = (np.abs(uh) ** 2).sum(1)
    mu0h = None
    if with_mu0:
        Linv = np.linalg.inv(L)
        xh = np.matmul(uh[:, None, :], Linv)[:, 0]
        num = beta - lam * (np.abs(xh) ** 2).sum(1)
        tr = (np.einsum("bij,bij->b", Linv.real, Linv.real)
              + np.einsum("bij,bij->b", Linv.imag, Linv.imag))
        d1 = plan.base + lam * tr / plan.K
        mu0h = num / d1 ** 2
    return alpha, beta, mu0h


def _eval_chunk(plan, master_seed, stream, lo, hi, mode):
    """Evaluate all planned detectors on trials [lo, hi).

    mode 'h0' returns {label: statistics}; mode 'coeff' returns
    {label: (alpha, beta, norm)} plus the frozen unit amplitudes under
    '__amp__'. alpha, beta are the affine pieces of the filter output in the
    target amplitude; norm is the per-trial normalizer.
    """
    want_amp = mode == "coeff"
    y0, Ysec, amp_c = _generate(plan, master_seed, stream, lo, hi, want_amp)
    B = y0.shape[0]
    K = plan.K

    if plan.need_scm:
        S = np.matmul(Ysec, Ysec.conj().transpose(0, 2, 1)) / K

    if plan.spectral:
        S = 0.5 * (S + S.conj().transpose(0, 2, 1))
        l, V = np.linalg.eigh(S)
        Vh = V.conj().transpose(0, 2, 1)
        w = np.matmul(Vh, plan.s)
        z0 = np.matmul(Vh, y0[..., None])[..., 0]
        w2 = np.abs(w) ** 2
        wz = np.conj(w) * z0

        def row_forms(lam_rows, with_mu0):
            unloaded = lam_rows == 0.0
            if unloaded.any():
                detectors.guard_invertible(l[unloaded, 0], l[unloaded, -1])
            den = l + lam_rows[:, None]
            alpha = (wz / den).sum(1)
            beta = (w2 / den).sum(1)
            mu0h = None
            if with_mu0:
                num = (w2 * l / den ** 2).sum(1)
                d1 = plan.base + lam_rows * (1.0 / den).sum(1) / K
                mu0h = num / d1 ** 2
            return alpha, beta, mu0h

    fixed_cache = {}

    def fixed_forms(lam):
        got = fixed_cache.get(lam)
        if got is None:
            with_mu0 = lam in plan.mu0_lams
            if plan.spectral:
                got = row_forms(np.full(B, lam), with_mu0)
            else:
                got = _cholesky_forms(S, lam, plan, y0, with_mu0)
            fixed_cache[lam] = got
        return got

    el_forms = None
    if plan.need_el:
        lam_el = _el_lambda_rows(l, plan.log_zeta)
        el_forms = row_forms(
            lam_el, with_mu0=any(sp.kind == CFAR_EL_AMF for sp in plan.specs))
    opt_forms = None
    if plan.need_opt:
        lam_star = _opt_lambda_rows(l, w2, plan)
        opt_forms = row_forms(lam_star, with_mu0=True)
    if plan.need_persym:
        # J S^T J reads the lower triangle of S where J conj(S) J reads the
        # upper one; the two agree on a Hermitian S
        Sp = 0.5 * (S + S.transpose(0, 2, 1)[:, ::-1, ::-1])
        persym_forms = _cholesky_forms(Sp, 0.0, plan, y0, False)

    out = {}
    for sp in plan.specs:
        kind = sp.kind
        if kind == NP:
            alpha = y0 @ plan.t_conj
            beta = np.full(B, plan.q)
            norm = np.full(B, plan.q)
        elif kind == SCM_AMF:
            alpha, beta, _ = fixed_forms(0.0)
            norm = beta
        elif kind == DL_AMF:
            alpha, beta, _ = fixed_forms(sp.lam)
            norm = beta
        elif kind == DL_SCM_BETA:
            alpha, beta, _ = fixed_forms(sp.lam)
            norm = fixed_forms(0.0)[1]
        elif kind == DL_RAW:
            alpha, beta, _ = fixed_forms(sp.lam)
            norm = np.ones(B)
        elif kind == CFAR_DL_SCMF:
            alpha, beta, _ = fixed_forms(sp.lam)
            norm = np.full(B, plan.oracle_mu0[sp.lam])
        elif kind == CFAR_DL_AMF:
            alpha, beta, norm = fixed_forms(sp.lam)
        elif kind == EL_AMF:
            alpha, beta, _ = el_forms
            norm = beta
        elif kind == CFAR_EL_AMF:
            alpha, beta, norm = el_forms
        elif kind == PERSYM_AMF:
            alpha, beta, _ = persym_forms
            norm = beta
        elif kind == OPT_CFAR_DL_SCMF:
            alpha, beta, _ = fixed_forms(plan.opt_lambda_star)
            norm = np.full(B, plan.oracle_mu0[plan.opt_lambda_star])
        elif kind == OPT_CFAR_DL_AMF:
            alpha, beta, norm = opt_forms
        else:
            raise ConfigError(f"unknown detector kind {kind!r}")
        if mode == "h0":
            out[sp.label] = np.abs(alpha) ** 2 / norm
        else:
            out[sp.label] = (alpha, beta, norm)
    if want_amp:
        out["__amp__"] = amp_c
    return out


def _chunk_call(args):
    return _eval_chunk(*args)


def _run_batches(plan, trials, master_seed, stream, workers, chunk, mode):
    ranges = [(lo, min(lo + chunk, trials)) for lo in range(0, trials, chunk)]
    args = [(plan, master_seed, stream, lo, hi, mode) for lo, hi in ranges]
    if workers <= 1 or len(args) == 1:
        parts = [_chunk_call(a) for a in args]
    else:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            parts = list(ex.map(_chunk_call, args))
    merged = {}
    for key in parts[0]:
        if isinstance(parts[0][key], tuple):
            merged[key] = tuple(
                np.concatenate([p[key][j] for p in parts])
                for j in range(len(parts[0][key])))
        else:
            merged[key] = np.concatenate([p[key] for p in parts])
    return merged


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


def pd_evaluator(cfg, stream=1):
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
    single detector, else {label: Curve}.
    """
    specs = cfg.spec_list()
    single = isinstance(cfg.detector, DetectorSpec)
    taus = {specs[0].label: tau} if single else dict(tau)
    grid = np.asarray(scnr_db_grid, dtype=float)
    ys = {sp.label: np.empty(grid.shape[0]) for sp in specs}
    los = {sp.label: np.empty(grid.shape[0]) for sp in specs}
    his = {sp.label: np.empty(grid.shape[0]) for sp in specs}
    for i, db in enumerate(grid):
        ev = pd_evaluator(cfg, stream=stream_base + i)
        for sp in specs:
            p, (lo, hi) = ev.pd(sp.label, taus[sp.label],
                                float(db_to_linear(db)), target_model)
            ys[sp.label][i] = p
            los[sp.label][i] = lo
            his[sp.label][i] = hi
    curves = {lbl: Curve(x=grid, y=ys[lbl], ci_lo=los[lbl], ci_hi=his[lbl],
                         label=lbl,
                         meta={"target": target_model, "tau": taus[lbl]})
              for lbl in ys}
    return curves[specs[0].label] if single else curves


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
    pd_cfg = TrialConfig(scenario=scenario, detector=specs, trials=pd_trials,
                         master_seed=master_seed, pfa_pre=pfa_pre,
                         workers=workers, chunk=chunk, opt_config=opt_config)
    ev = pd_evaluator(pd_cfg, stream=1)
    rows = []
    for target in target_models:
        ref_db = None
        for sp in specs:
            one = TrialConfig(scenario=scenario, detector=sp,
                              trials=pd_trials, master_seed=master_seed,
                              pfa_pre=pfa_pre, workers=workers, chunk=chunk,
                              opt_config=opt_config)
            db = scnr_at_pd(one, taus[sp.label].tau, pd_target, target,
                            evaluator=ev)
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
