"""Consistent plug-in estimators of the loaded-filter equivalents, and the
one reduction of sample covariances that they and the trial engine share.

Everything here sees only the sample covariance, never the true R. With SCM
eigenvalues l_i and steering weights w_i in the SCM eigenbasis, define

    D1 = 1 - N/K + (lam/K)   sum_i 1/(l_i + lam)
    D2 = 1 - N/K + (lam^2/K) sum_i 1/(l_i + lam)^2
    num = sum_i |w_i|^2 l_i / (l_i + lam)^2

Then mu0_hat = num / D1^2, gamma_hat = 1 - D1^2/D2, xi_hat = num / D2 and
kappa_lower_hat = D1^2 psi_hat^2 / num are strongly consistent for the
corresponding deterministic equivalents as N, K grow proportionally.

l and w come from _spectral_rows, the package's one SCM reduction (one
silent clamp at EIG_FLOOR_REL), and every sum from one row kernel,
_loaded_rows, over B spectra with m loadings each. The trial engine and the
adaptive loading search pass many rows; the scalar API (d_factors,
estimated_equivalents and its accessors, el_lambda, lambda_opt_hat) reduces
its SCM as a block of one trial and passes one row, so the two agree bit
for bit and refuse a singular SCM at lam = 0 alike. The EL loading is one
row of _el_rows in the same way; it and the theta transform solve their
monotone equations with rmt's safeguarded Newton row solver.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dstev, zhetrd, zhetrd_lwork, zunmqr

from . import blas
from .errors import ConfigError, NumericalError
from .rmt import _loadings, _newton_rows, _shaped
from .scenario import EIG_FLOOR_REL, steering_entries

_EL_FTOL = 1e-10


def guard_invertible(l_min, l_max):
    """Raise NumericalError where l_min <= 1e-10 * l_max in any row: the
    extreme eigenvalues of unloaded SCMs, or an upper bound on the smallest
    and a lower bound on the largest. The threshold sits above the clamp
    floor EIG_FLOOR_REL, so a clamped rank-deficient SCM still trips it."""
    if np.any(np.asarray(l_min) <= 1e-10 * np.asarray(l_max)):
        raise NumericalError("sample covariance is numerically singular; "
                             "need K >= N secondary snapshots")


def _check_scm(scm, N):
    """scm as an N x N array, or ConfigError."""
    S = np.asarray(scm)
    if S.shape != (N, N):
        raise ConfigError(f"sample covariance must be {N} x {N}, "
                          f"got shape {S.shape}")
    return S


@blas.one_scipy_thread()
def _spectral_rows(S, s, y0):
    """The rows l, w2 = |V^H s|^2 and wz = conj(V^H s) (V^H y0) of a block
    of SCMs S (B, N, N) with primary vectors y0 (B, N).

    zhetrd reduces each S^T = conj(S) (a Fortran-ordered view, not written)
    to a real tridiagonal T = Q^H conj(S) Q and dstev gives T = U diag(l)
    U^T, so S has eigenvectors V = conj(Q) U and V^H x is the conjugate of
    U^T Q^H conj(x). zunmqr applies Q^H to conj(s) and conj(y0), as LAPACK's
    zunmtr would, and one batched product applies U^T. SciPy's BLAS pool is
    held at one thread throughout (see the blas module).
    """
    B, N = S.shape[:2]
    lwork = int(zhetrd_lwork(N, lower=1)[0].real)
    l = np.empty((B, N))
    Ut = np.empty((B, N, N))
    x = np.empty((B, N, 2), dtype=complex)
    x[:, :, 0] = np.conj(s)
    x[:, :, 1] = np.conj(y0)
    for b in range(B):
        a, d, e, tau, info = zhetrd(S[b].T, lower=1, lwork=lwork)
        if not info:
            # dstev wants one off-diagonal entry even when N = 1
            l[b], U, info = dstev(d, e if N > 1 else np.zeros(1),
                                  overwrite_d=1, overwrite_e=1)
        if not info and N > 1:
            # Q's reflectors are a QR factorization's in a[1:, :N-1]; lwork
            # 2, the least for two columns, keeps zunmqr unblocked at any N
            x[b, 1:], _, info = zunmqr("L", "C", a[1:, :-1], tau, x[b, 1:],
                                       2)
        if info:
            raise NumericalError(
                f"tridiagonal eigensolver failed (info={info})")
        Ut[b] = U.T
    # U^T x on the real and imaginary parts as four real columns
    x = np.matmul(Ut, x.view(float)).view(complex)
    w2 = np.abs(x[:, :, 0]) ** 2
    # the one eigenvalue clamp of sample covariances
    return {"l": np.maximum(l, EIG_FLOOR_REL * l[:, -1:]), "w2": w2,
            "wz": np.multiply(x[:, :, 0], np.conj(x[:, :, 1]))}


def _scm_rows(scm, s, K):
    """Rows (1, N) of l and w2 of one SCM: _spectral_rows on a block of one
    trial."""
    s = steering_entries(s)
    N = s.shape[0]
    S = _check_scm(scm, N)
    if K < N:
        raise ConfigError(f"estimators need K >= N, got N={N} K={K}")
    red = _spectral_rows(S[None], s, np.zeros((1, N)))
    return red["l"], red["w2"]


def _loaded_rows(l, w2, lams, K, wz=None):
    """The loaded sums of B spectra, each at its own m loadings.

    l (eigenvalues) and w2 = |V^H s|^2 are (B, N) rows and lams is (B, m).
    Returns D1, psi = sum_i w2_i / (l_i + lam) and
    num = sum_i w2_i l_i / (l_i + lam)^2, each (B, m), and with the rows
    wz = conj(V^H s) (V^H y0) also alpha = sum_i wz_i / (l_i + lam). Each
    element takes one reciprocal 1/(l_i + lam): D1 sums the reciprocals,
    psi and alpha (its real and imaginary parts apart) are their products
    with the rows, and num the product of their squares with w2 l. Each
    sum over i is one dot product per (row, loading) (np.vecdot, and
    np.einsum for the plain sum), whose bits do not depend on B or m, so a
    loading's value does not depend on its neighbours; a batched matmul
    would not keep that. Only the scalar API needs D2, which _d2_rows gives.
    """
    loaded = l[:, None, :] + lams[:, :, None]
    inv = np.divide(1.0, loaded, out=loaded)
    d1 = (1.0 - l.shape[1] / K) + lams * np.einsum("bmn->bm", inv) / K
    psi = np.vecdot(inv, w2[:, None, :])
    if wz is not None:
        alpha = np.empty(psi.shape, dtype=complex)
        alpha.real = np.vecdot(inv, wz.real[:, None, :])
        alpha.imag = np.vecdot(inv, wz.imag[:, None, :])
    inv *= inv
    num = np.vecdot(inv, (w2 * l)[:, None, :])
    if wz is None:
        return d1, psi, num
    return d1, psi, num, alpha


def _d2_rows(l, lams, K):
    loaded = l[:, None, :] + lams[:, :, None]
    return ((1.0 - l.shape[1] / K)
            + lams * lams * (1.0 / loaded ** 2).sum(-1) / K)


def d_factors(eigenvalues, lam, K):
    """Trace corrections (D1, D2) built from the SCM spectrum; floats for a
    scalar lam, arrays shaped like lam for an array."""
    l = np.asarray(eigenvalues, dtype=float)[None]
    lams = _loadings(lam)[None]
    d1 = _loaded_rows(l, np.zeros_like(l), lams, K)[0]
    return _shaped(d1[0], lam), _shaped(_d2_rows(l, lams, K)[0], lam)


def _kappa_lower(d1, psi, num):
    return (d1 * d1) * (psi * psi) / num


@dataclass(frozen=True)
class EstimatedEquivalents:
    """Plug-in values at one loading factor, mirroring AsymptoticParams
    (arrays like lam when lam is an array)."""

    lam: float
    psi_hat: float
    xi_hat: float
    gamma_hat: float
    mu0_hat: float
    kappa_lower_hat: float
    d1: float
    d2: float


def estimated_equivalents(scm, s, lam, K):
    """Every plug-in value at lam, a scalar or an array of loading factors;
    the SCM is reduced once for the whole array. A loading of 0 on a
    numerically singular SCM raises NumericalError."""
    lams = _loadings(lam)
    l, w2 = _scm_rows(scm, s, K)
    if (lams == 0.0).any():
        guard_invertible(l[:, 0], l[:, -1])
    d1, psi, num = (x[0] for x in _loaded_rows(l, w2, lams[None], K))
    d2 = _d2_rows(l, lams[None], K)[0]
    d1sq = d1 * d1
    return EstimatedEquivalents(
        lam=_shaped(lams, lam), psi_hat=_shaped(psi, lam),
        xi_hat=_shaped(num / d2, lam),
        gamma_hat=_shaped(1.0 - d1sq / d2, lam),
        mu0_hat=_shaped(num / d1sq, lam),
        kappa_lower_hat=_shaped(_kappa_lower(d1, psi, num), lam),
        d1=_shaped(d1, lam), d2=_shaped(d2, lam))


def psi_hat(scm, s, lam, K):
    """Loaded quadratic form s^H (Rhat + lam I)^{-1} s (no correction)."""
    return estimated_equivalents(scm, s, lam, K).psi_hat


def xi_psi_hat(scm, s, lam, K):
    """(xi_hat, psi_hat) pair."""
    e = estimated_equivalents(scm, s, lam, K)
    return e.xi_hat, e.psi_hat


def gamma_hat(scm, s, lam, K):
    return estimated_equivalents(scm, s, lam, K).gamma_hat


def mu0_hat(scm, s, lam, K):
    """Consistent estimate of the h0 output-power normalizer mu0."""
    return estimated_equivalents(scm, s, lam, K).mu0_hat


def kappa_lower_hat(scm, s, lam, K):
    """Consistent estimate of q * kappa(lam); maximize this over lam to
    select the loading factor from data alone. lam may be an array."""
    return estimated_equivalents(scm, s, lam, K).kappa_lower_hat


# --- expected-likelihood loading ------------------------------------------

def _log_g_rows(l, lams):
    # log g at one loading per row of eigenvalues l (B, N)
    r = l / (l + lams[:, None])
    return np.log(r).sum(1) + l.shape[1] - r.sum(1)


def el_log_g(eigenvalues, lam):
    """log of the EL sphericity ratio of the loaded SCM.

    log g(lam) = sum_i log(l_i/(l_i+lam)) + N - sum_i l_i/(l_i+lam);
    g(0) = 1 exactly and g decreases strictly in lam.
    """
    if lam < 0:
        raise ConfigError("loading factor must be >= 0")
    l = np.asarray(eigenvalues, dtype=float)
    return float(_log_g_rows(l[None], np.array([lam], dtype=float))[0])


def log_zeta_median(N, K):
    """Median of the log EL statistic of an unloaded, well-specified model:
    -N - (K-N) log(1 - N/K)."""
    if K <= N:
        raise ConfigError(f"need K > N, got N={N} K={K}")
    return -N - (K - N) * math.log(1.0 - N / K)


def log_el_statistic(scm, reference):
    """log of det(B) e^N / e^{tr B} with B the reference-whitened SCM.

    Measures how plausible the (possibly loaded) sample covariance is as an
    estimate of the reference; the EL loading rule matches its median.
    """
    iroot = (reference.eigenvectors / np.sqrt(reference.eigenvalues)) \
        @ reference.eigenvectors.conj().T
    W = iroot @ np.asarray(scm) @ iroot
    sign, logdet = np.linalg.slogdet(W)
    if sign.real <= 0:
        raise NumericalError("whitened sample covariance is not positive")
    return float(logdet.real + W.shape[0] - np.trace(W).real)


def _el_rows(l, log_zeta):
    """EL loading of each row of eigenvalues l (B, N): the root of
    log g(lam) = log_zeta, g strictly decreasing with g(0) = 1.

    If the median were ever >= g(0) (log_zeta >= 0, one check for all rows)
    the rule is vacuous: every row gets 0, with a warning. Otherwise each
    row's bracket [0, hi] doubles hi from max l until log g(hi) is at most
    log_zeta, and safeguarded Newton steps find the root from
    sqrt(-2 log_zeta / sum_i l_i^-2), which lies below it because each
    term of log g is at least -(lam/l_i)^2 / 2.
    """
    B = l.shape[0]
    if log_zeta >= 0.0:
        warnings.warn("EL median >= g(0); no positive root, using lam = 0",
                      RuntimeWarning, stacklevel=3)
        return np.zeros(B)
    hi = l.max(1)
    for _ in range(200):
        up = _log_g_rows(l, hi) - log_zeta > 0.0
        if not up.any():
            break
        hi[up] *= 2.0
    else:
        raise NumericalError("EL bracket expansion failed")

    def excess(lam, l):
        # log_zeta - log g, increasing in lam with slope
        # sum_i lam / (l_i + lam)^2
        slope = (lam[:, None] / (l + lam[:, None]) ** 2).sum(1)
        return log_zeta - _log_g_rows(l, lam), slope

    start = np.sqrt(-2.0 * log_zeta / (1.0 / (l * l)).sum(1))
    return _newton_rows(excess, start, np.zeros(B), hi, _EL_FTOL,
                        lambda j, r: f"EL solve stalled at defect {r:.3e}",
                        l)


def el_lambda(scm, K):
    """Loading factor matching the EL statistic to its median: _el_rows on
    the SCM reduced as one trial (g(0) = 1 > zeta_0.5: a root for K > N).
    """
    l, _ = _scm_rows(scm, np.zeros(len(scm)), K)
    return float(_el_rows(l, log_zeta_median(l.shape[1], K))[0])


# --- sample <-> population resolvent link ----------------------------------

def solve_theta(eigenvalues, x, K):
    """Solve theta * (1 - c + (c/N) sum_i 1/(1 + theta l_i)) = x for x > 0.

    The left side is strictly increasing in theta, so the root is unique.
    Exactly, theta(D1(lam)/lam) = 1/lam with D1 from the same spectrum; this
    is how the trace corrections invert the loading, since D1 of the sample
    spectrum converges to delta of the population one.
    """
    l = np.asarray(eigenvalues, dtype=float)
    N = l.shape[0]
    if K <= N:
        raise ConfigError(f"need K > N, got N={N} K={K}")
    if x <= 0 or not np.isfinite(x):
        raise ConfigError(f"solve_theta needs finite x > 0, got {x}")
    c = N / K

    def h(theta):
        a = 1.0 / (1.0 + theta[:, None] * l)
        return (theta * (1.0 - c + c * a.mean(1)) - x,
                1.0 - c + c * (a * a).mean(1))

    root = _newton_rows(
        h, np.array([float(x)]), np.zeros(1),
        np.array([x / (1.0 - c) + 1.0]), 1e-10 * max(1.0, x),
        lambda j, r: f"theta solve left residual {r:.3e}")
    return float(root[0])
