"""Consistent plug-in estimators of the loaded-filter equivalents.

Everything here sees only the sample covariance, never the true R. With SCM
eigenvalues l_i and steering weights w_i in the SCM eigenbasis, define

    D1 = 1 - N/K + (lam/K)   sum_i 1/(l_i + lam)
    D2 = 1 - N/K + (lam^2/K) sum_i 1/(l_i + lam)^2
    num = sum_i |w_i|^2 l_i / (l_i + lam)^2

Then mu0_hat = num / D1^2, gamma_hat = 1 - D1^2/D2, xi_hat = num / D2 and
kappa_lower_hat = D1^2 psi_hat^2 / num are strongly consistent for the
corresponding deterministic equivalents as N, K grow proportionally.

All of these sums come from one row kernel, _loaded_rows, which takes B
spectra with m loadings each: the scalar API (d_factors,
estimated_equivalents and its accessors, which take lam as a scalar or an
array) is one row of it, and the trial engine and the adaptive loading
search pass many. The expected-likelihood (EL) loading factor is one row of
_el_rows in the same way. _el_rows and the theta transform that links
sample and population resolvents solve their monotone equations with the
safeguarded Newton row solver of rmt, the one that solves for delta.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .rmt import _loadings, _newton_rows, _shaped
from .scenario import HermitianSpectrum, as_spectrum, steering_entries

_EL_FTOL = 1e-10


def _check(scm, lam, K):
    scm = as_spectrum(scm, "sample covariance")
    lams = _loadings(lam)
    if K < scm.dim:
        raise ConfigError(f"estimators need K >= N, got N={scm.dim} K={K}")
    return scm, lams


def _loaded_rows(l, w2, lams, K, wz=None):
    """The loaded sums of B spectra, each at its own m loadings.

    l (eigenvalues) and w2 = |V^H s|^2 are (B, N) rows and lams is (B, m).
    Returns D1, psi = sum_i w2_i / (l_i + lam) and
    num = sum_i w2_i l_i / (l_i + lam)^2, each (B, m), and with the rows
    wz = conj(V^H s) (V^H y0) also alpha = sum_i wz_i / (l_i + lam). One row
    is the scalar API; the trial engine and the adaptive loading search pass
    many. Only the scalar API needs D2, which _d2_rows gives.
    """
    loaded = l[:, None, :] + lams[:, :, None]
    d1 = (1.0 - l.shape[1] / K) + lams * (1.0 / loaded).sum(-1) / K
    psi = (w2[:, None, :] / loaded).sum(-1)
    num = (w2[:, None, :] * l[:, None, :] / loaded ** 2).sum(-1)
    if wz is None:
        return d1, psi, num
    return d1, psi, num, (wz[:, None, :] / loaded).sum(-1)


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
    the SCM weights are computed once for the whole array."""
    scm, lams = _check(scm, lam, K)
    w2 = np.abs(scm.weights(steering_entries(s))) ** 2
    l = scm.eigenvalues[None]
    d1, psi, num = (x[0] for x in _loaded_rows(l, w2[None], lams[None], K))
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
    B = scm.matrix if isinstance(scm, HermitianSpectrum) else np.asarray(scm)
    iroot = (reference.eigenvectors / np.sqrt(reference.eigenvalues)) \
        @ reference.eigenvectors.conj().T
    W = iroot @ B @ iroot
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
    """Loading factor matching the EL statistic to its median.

    Solves log g(lam) = log zeta_0.5 by Newton steps (g strictly decreasing,
    g(0) = 1 > zeta_0.5 so a root exists for K > N). If the median were ever
    >= g(0) the rule is vacuous: returns 0 with a warning.
    """
    scm = as_spectrum(scm, "sample covariance")
    log_zeta = log_zeta_median(scm.dim, K)
    return float(_el_rows(scm.eigenvalues[None], log_zeta)[0])


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
