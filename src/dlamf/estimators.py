"""Consistent plug-in estimators of the loaded-filter equivalents.

Everything here sees only the sample covariance, never the true R. With SCM
eigenvalues l_i and steering weights w_i in the SCM eigenbasis, define

    D1 = 1 - N/K + (lam/K)   sum_i 1/(l_i + lam)
    D2 = 1 - N/K + (lam^2/K) sum_i 1/(l_i + lam)^2
    num = sum_i |w_i|^2 l_i / (l_i + lam)^2

Then mu0_hat = num / D1^2, gamma_hat = 1 - D1^2/D2, xi_hat = num / D2 and
kappa_lower_hat = D1^2 psi_hat^2 / num are strongly consistent for the
corresponding deterministic equivalents as N, K grow proportionally.

Like their rmt counterparts, d_factors, estimated_equivalents and its
accessors take lam as a scalar or an array; one array call evaluates a whole
loading grid from one set of SCM weights. The expected-likelihood (EL)
loading factor and the theta transform that links sample and population
resolvents live here too.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import ConfigError, NumericalError
from .rmt import _loadings, _shaped, _square
from .scenario import HermitianSpectrum, SteeringVector

_EL_FTOL = 1e-10


def _as_entries(s):
    return s.entries if isinstance(s, SteeringVector) else np.asarray(s)


def _check(scm, lam, K):
    if not isinstance(scm, HermitianSpectrum):
        scm = HermitianSpectrum.from_matrix(scm, label="sample covariance")
    lams = _loadings(lam)
    if K < scm.dim:
        raise ConfigError(f"estimators need K >= N, got N={scm.dim} K={K}")
    return scm, lams


def _d_factors(loaded, lams, K):
    # loaded[j, i] = l_i + lams[j]
    base = 1.0 - loaded.shape[1] / K
    d1 = base + lams * np.sum(1.0 / loaded, axis=1) / K
    d2 = base + _square(lams) * np.sum(1.0 / loaded ** 2, axis=1) / K
    return d1, d2


def d_factors(eigenvalues, lam, K):
    """Trace corrections (D1, D2) built from the SCM spectrum; floats for a
    scalar lam, arrays shaped like lam for an array."""
    lams = _loadings(lam)
    l = np.asarray(eigenvalues, dtype=float)
    d1, d2 = _d_factors(l + lams[:, None], lams, K)
    return _shaped(d1, lam), _shaped(d2, lam)


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
    w2 = np.abs(scm.weights(_as_entries(s))) ** 2
    l = scm.eigenvalues
    loaded = l + lams[:, None]
    d1, d2 = _d_factors(loaded, lams, K)
    psi = np.sum(w2 / loaded, axis=1)
    num = np.sum(w2 * l / loaded ** 2, axis=1)
    d1sq = _square(d1)
    return EstimatedEquivalents(
        lam=_shaped(lams, lam), psi_hat=_shaped(psi, lam),
        xi_hat=_shaped(num / d2, lam),
        gamma_hat=_shaped(1.0 - d1sq / d2, lam),
        mu0_hat=_shaped(num / d1sq, lam),
        kappa_lower_hat=_shaped(d1sq * _square(psi) / num, lam),
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

def el_log_g(eigenvalues, lam):
    """log of the EL sphericity ratio of the loaded SCM.

    log g(lam) = sum_i log(l_i/(l_i+lam)) + N - sum_i l_i/(l_i+lam);
    g(0) = 1 exactly and g decreases strictly in lam.
    """
    l = np.asarray(eigenvalues, dtype=float)
    if lam < 0:
        raise ConfigError("loading factor must be >= 0")
    r = l / (l + lam)
    return float(np.sum(np.log(r)) + l.shape[0] - np.sum(r))


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


def _el_root(eigenvalues, log_zeta):
    """Bisection for el_log_g(lam) = log_zeta; None if log_zeta >= 0."""
    if log_zeta >= 0.0:
        return None
    hi = float(np.max(eigenvalues))
    for _ in range(200):
        if el_log_g(eigenvalues, hi) - log_zeta <= 0.0:
            break
        hi *= 2.0
    else:
        raise NumericalError("EL bracket expansion failed")
    lo = 0.0
    val = None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = el_log_g(eigenvalues, mid) - log_zeta
        if abs(val) <= _EL_FTOL:
            return mid
        if val > 0.0:
            lo = mid
        else:
            hi = mid
    raise NumericalError(f"EL bisection stalled, defect {val:.3e}")


def el_lambda(scm, K):
    """Loading factor matching the EL statistic to its median.

    Solves log g(lam) = log zeta_0.5 by bisection (g strictly decreasing,
    g(0) = 1 > zeta_0.5 so a root exists for K > N). If the median were ever
    >= g(0) the rule is vacuous: returns 0 with a warning.
    """
    if not isinstance(scm, HermitianSpectrum):
        scm = HermitianSpectrum.from_matrix(scm, label="sample covariance")
    N = scm.dim
    root = _el_root(scm.eigenvalues, log_zeta_median(N, K))
    if root is None:
        warnings.warn("EL median >= g(0); no positive root, using lam = 0",
                      RuntimeWarning, stacklevel=2)
        return 0.0
    return root


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
        return theta * (1.0 - c + c * np.mean(1.0 / (1.0 + theta * l))) - x

    hi = x / (1.0 - c) + 1.0
    root = brentq(h, 0.0, hi, xtol=1e-14, rtol=8.9e-16, maxiter=200)
    if abs(h(root)) > 1e-10 * max(1.0, x):
        raise NumericalError(f"theta solve left residual {h(root):.3e}")
    return float(root)
