"""Closed-form detection curves: Marcum Q, noncentral chi-square, ROCs.

The Marcum Q function and the noncentral chi-square CDF come from SciPy's
noncentral chi-square CDF (scipy.special.chndtr), each arranged so that no
small value is one minus a number near one; tests check both against an
mpmath quadrature oracle. scipy.stats is not imported: it would add more
than half to the package's import time. Every detection probability, of
either target model, is cfar_dl_pd at its threshold; the ROCs use
-ln(pfa).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sp

from .detectors import KINDS
from .errors import ConfigError


def bessel_i0(x):
    """Modified Bessel I0. Overflows to inf past x ~ 713; see bessel_i0e."""
    return sp.i0(x)


def bessel_i0e(x):
    """Exp-scaled I0(x) * exp(-|x|), finite for all real x."""
    return sp.i0e(x)


def marcum_q(a, b):
    """First-order Marcum Q function Q_1(a, b), scalar or array.

    Q_1(a, b) is the survival function at b^2 of a noncentral chi-square
    with two degrees of freedom, unit component variance and noncentrality
    a^2: exactly the h1 exceedance probability of a square-law detector.
    That is 1 - chndtr(b^2, 2, a^2), which cancels where Q_1 is small. For
    b > a the identity Q_1(a, b) + Q_1(b, a) = 1 + exp(-(a^2+b^2)/2) I_0(ab)
    gives Q_1(a, b) = exp(-(b-a)^2/2) i0e(ab) + chndtr(a^2, 2, b^2) instead,
    a sum of two nonnegative terms.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not np.all(np.isfinite(a) & np.isfinite(b) & (a >= 0) & (b >= 0)):
        raise ConfigError(f"marcum_q needs finite a, b >= 0, got a={a} b={b}")
    gap = b - a
    tail = (np.exp(-0.5 * gap * gap) * sp.i0e(a * b)
            + sp.chndtr(a * a, 2.0, b * b))
    q = np.where(b > a, tail, 1.0 - sp.chndtr(b * b, 2.0, a * a))
    return float(q) if q.ndim == 0 else q


def ncx2_cdf(x, nu, sigma2):
    """CDF of |z1|^2 + |z2|^2 with z_i Gaussian, variance sigma2 each and
    squared mean offsets summing to nu: F(x) = 1 - Q_1(sqrt(nu)/sigma,
    sqrt(x)/sigma), taken as chndtr(x/sigma2, 2, nu/sigma2) itself."""
    if sigma2 <= 0:
        raise ConfigError("sigma2 must be > 0")
    if nu < 0 or x < 0:
        raise ConfigError("ncx2_cdf needs x >= 0 and nu >= 0")
    return float(sp.chndtr(x / sigma2, 2.0, nu / sigma2))


def ncx2_pdf(x, nu, sigma2):
    """Density matching ncx2_cdf, evaluated in scaled form for stability."""
    if sigma2 <= 0:
        raise ConfigError("sigma2 must be > 0")
    if nu < 0 or x < 0:
        raise ConfigError("ncx2_pdf needs x >= 0 and nu >= 0")
    z = math.sqrt(nu * x) / sigma2
    expo = -0.5 * (math.sqrt(x) - math.sqrt(nu)) ** 2 / sigma2
    return float(sp.ive(0, z) * math.exp(expo) / (2.0 * sigma2))


def cfar_threshold(pfa):
    """Threshold -ln(pfa) of a unit-exponential CFAR statistic."""
    if not 0.0 < pfa < 1.0:
        raise ConfigError(f"pfa must lie in (0, 1), got {pfa}")
    return -math.log(pfa)


def detection_loss_db(kappa_value):
    """SCNR loss -10 log10(kappa) in dB relative to the clairvoyant filter."""
    if kappa_value <= 0:
        raise ConfigError(f"kappa must be > 0, got {kappa_value}")
    return -10.0 * math.log10(kappa_value)


def roc_swerling0(scnr, kappa_value, pfa):
    """Nonfluctuating-target detection probability at output SCNR scnr*kappa.

    scnr may be scalar or array (linear scale, scnr = |b|^2 s^H R^{-1} s).
    """
    return cfar_dl_pd(scnr, kappa_value, cfar_threshold(pfa), "swerling0")


def roc_swerling1(scnr, kappa_value, pfa):
    """Rayleigh-target detection probability pfa^(1 / (1 + scnr*kappa))."""
    return cfar_dl_pd(scnr, kappa_value, cfar_threshold(pfa), "swerling1")


def cfar_dl_pd(scnr, kappa_value, tau, target_model):
    """Detection probability of a CFAR-normalized loaded filter at
    threshold tau.

    Swerling 0: Q_1(sqrt(2 scnr kappa), sqrt(2 tau)); Swerling I:
    exp(-tau / (1 + scnr kappa)).
    """
    if not (math.isfinite(tau) and tau >= 0):
        raise ConfigError(f"threshold must be finite and >= 0, got {tau}")
    s = np.asarray(scnr, dtype=float)
    eff = s * kappa_value
    if np.any(s < 0) or not np.all(np.isfinite(eff) & (eff >= 0)):
        raise ConfigError("scnr and scnr * kappa must be finite and >= 0, "
                          f"got kappa={kappa_value}")
    if target_model == "swerling0":
        out = marcum_q(np.sqrt(2.0 * eff), math.sqrt(2.0 * tau))
    elif target_model == "swerling1":
        out = np.exp(-tau / (1.0 + eff))
    else:
        raise ConfigError(f"unknown target model {target_model!r}")
    return float(out) if np.isscalar(scnr) else out


# Scale of the exponential large-system h0 law of |alpha|^2 / norm, keyed
# by Kind.norm, from rmt's deterministic equivalents p at the loading and
# c = N/K: beta tends to psi and beta0 to q/(1-c), and a CFAR normalizer
# makes the law unit-exponential.
H0_SCALE = {
    "beta": lambda p, c: p.mu0 / p.psi,
    "beta0": lambda p, c: p.mu0 * (1.0 - c) / p.quad_inv,
    "one": lambda p, c: p.mu0,
    **dict.fromkeys(("q", "mu0", "mu0_hat"), lambda p, c: 1.0),
}

_PFA_FAMILIES = ("dl-amf", "dl-scm-beta", "dl-raw", "cfar")


def asymptotic_pfa(family, params, tau, c=None):
    """Large-system false-alarm probability exp(-tau / H0_SCALE) of a
    loaded-filter variant: the kinds 'dl-amf', 'dl-scm-beta' (c required)
    and 'dl-raw', or 'cfar' for any CFAR normalizer. params is an
    AsymptoticParams at the matching loading factor.
    """
    fam = family.replace("_", "-").lower()
    if fam not in _PFA_FAMILIES:
        raise ConfigError(f"unknown pfa family {family!r}; "
                          f"expected one of {_PFA_FAMILIES}")
    if tau < 0:
        raise ConfigError("threshold must be >= 0")
    norm = "mu0" if fam == "cfar" else KINDS[fam].norm
    if norm == "beta0" and c is None:
        raise ConfigError("family 'dl-scm-beta' needs the ratio c = N/K")
    return math.exp(-tau / H0_SCALE[norm](params, c))
