"""Closed-form detection curves: Marcum Q, noncentral chi-square, ROCs.

The Marcum Q function is implemented in-house because the whole theory layer
leans on it and we want its accuracy pinned independently of any one library:
a Poisson-mixture series below the a*b = 30 switch point, an exp-scaled
Bessel series above it. Both branches target 1e-10 absolute error; tests
check them against an mpmath quadrature oracle and against scipy's
noncentral chi-square CDF through the survival identity.

The Poisson series stops when the summed Poisson(a^2/2) mass reaches
1 - 1e-16, or earlier, once n is past both Poisson means and adding the
next term leaves every running sum unchanged in floating point: the terms
only shrink from there, so the result is the one the full series gives.
The rounded mass often settles just below 1 - 1e-16, so without the second
rule the loop would run to its 100 000-term cap.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sp

from .errors import ConfigError, NumericalError

_SERIES_SWITCH = 30.0


def bessel_i0(x):
    """Modified Bessel I0. Overflows to inf past x ~ 713; see bessel_i0e."""
    return sp.i0(x)


def bessel_i0e(x):
    """Exp-scaled I0(x) * exp(-|x|), finite for all real x."""
    return sp.i0e(x)


def _marcum_series(a, b):
    # Poisson-mixture form: Q = P[Poisson(b^2/2) <= Poisson(a^2/2)] with the
    # two counts independent. Valid anywhere, used when a*b <= 30 so the two
    # means cannot both be large (x*y <= 225).
    x = 0.5 * a * a
    y = 0.5 * b * b
    if x >= 500.0:
        # y <= 0.45 here; complement bounded by e^{-x/8} + Poisson tail ~ 0
        return 1.0
    if y >= 500.0:
        return 0.0
    p = math.exp(-x)       # Poisson(x) pmf at n
    t = math.exp(-y)       # Poisson(y) pmf at n
    g = t                  # Poisson(y) cdf at n
    acc = p * g
    cum = p
    n = 0
    while cum < 1.0 - 1e-16 and n < 100_000:
        n += 1
        p *= x / n
        t *= y / n
        if (n > x and n > y and g + t == g and acc + p * g == acc
                and cum + p == cum):
            break  # p and t only shrink from here: no later term registers
        g += t
        acc += p * g
        cum += p
    acc += (1.0 - cum) * g  # remaining mixture mass, cdf factor within 1e-16
    return min(max(acc, 0.0), 1.0)


def _marcum_bessel(a, b):
    # Scaled Bessel series; terms r^k * ive(k, ab) decrease monotonically.
    z = a * b
    if b >= a:
        if 0.5 * (b - a) ** 2 > 745.0:
            return 0.0
        r, k0, pref, from_one = a / b, 0, math.exp(-0.5 * (b - a) ** 2), False
    else:
        if 0.5 * (a - b) ** 2 > 745.0:
            return 1.0
        r, k0, pref, from_one = b / a, 1, math.exp(-0.5 * (a - b) ** 2), True
    total = 0.0
    block = 256
    k = k0
    while k < 10_000_000:
        ks = np.arange(k, k + block)
        terms = r ** ks * sp.ive(ks, z)
        total += float(terms.sum())
        if terms[-1] < 1e-18:
            break
        k += block
    else:
        raise NumericalError(f"Marcum Q series did not converge (a={a}, b={b})")
    q = 1.0 - pref * total if from_one else pref * total
    return min(max(q, 0.0), 1.0)


def marcum_q(a, b):
    """First-order Marcum Q function Q_1(a, b), absolute error <= 1e-10.

    Q_1(a, b) is the survival function at b^2 of a noncentral chi-square
    with two degrees of freedom, unit component variance and noncentrality
    a^2: exactly the h1 exceedance probability of a square-law detector.
    """
    a = float(a)
    b = float(b)
    if a < 0 or b < 0 or not (math.isfinite(a) and math.isfinite(b)):
        raise ConfigError(f"marcum_q needs finite a, b >= 0, got a={a} b={b}")
    if b == 0.0:
        return 1.0
    if a == 0.0:
        return math.exp(-0.5 * b * b)
    if a * b <= _SERIES_SWITCH:
        return _marcum_series(a, b)
    return _marcum_bessel(a, b)


def ncx2_cdf(x, nu, sigma2):
    """CDF of |z1|^2 + |z2|^2 with z_i Gaussian, variance sigma2 each and
    squared mean offsets summing to nu: F(x) = 1 - Q_1(sqrt(nu)/sigma,
    sqrt(x)/sigma)."""
    if sigma2 <= 0:
        raise ConfigError("sigma2 must be > 0")
    if nu < 0 or x < 0:
        raise ConfigError("ncx2_cdf needs x >= 0 and nu >= 0")
    s = math.sqrt(sigma2)
    return 1.0 - marcum_q(math.sqrt(nu) / s, math.sqrt(x) / s)


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
    tau = cfar_threshold(pfa)
    return cfar_dl_pd(scnr, kappa_value, tau, "swerling0")


def roc_swerling1(scnr, kappa_value, pfa):
    """Rayleigh-target detection probability pfa^(1 / (1 + scnr*kappa))."""
    if not 0.0 < pfa < 1.0:
        raise ConfigError(f"pfa must lie in (0, 1), got {pfa}")
    s = np.asarray(scnr, dtype=float)
    if np.any(s < 0):
        raise ConfigError("scnr must be >= 0")
    out = pfa ** (1.0 / (1.0 + s * kappa_value))
    return float(out) if np.isscalar(scnr) else out


def cfar_dl_pd(scnr, kappa_value, tau, target_model):
    """Detection probability of a CFAR-normalized loaded filter at
    threshold tau.

    Swerling 0: Q_1(sqrt(2 scnr kappa), sqrt(2 tau)); Swerling I:
    exp(-tau / (1 + scnr kappa)).
    """
    if tau < 0:
        raise ConfigError("threshold must be >= 0")
    s = np.asarray(scnr, dtype=float)
    if np.any(s < 0):
        raise ConfigError("scnr must be >= 0")
    eff = s * kappa_value
    if target_model == "swerling0":
        flat = [marcum_q(math.sqrt(2.0 * e), math.sqrt(2.0 * tau))
                for e in np.atleast_1d(eff)]
        out = np.array(flat).reshape(np.shape(eff))
    elif target_model == "swerling1":
        out = np.exp(-tau / (1.0 + eff))
    else:
        raise ConfigError(f"unknown target model {target_model!r}")
    return float(out) if np.isscalar(scnr) else out


_PFA_FAMILIES = ("dl-amf", "dl-scm-beta", "dl-raw", "cfar")


def asymptotic_pfa(family, params, tau, c=None):
    """Large-system false-alarm probability of a loaded-filter variant.

    family selects the normalization of |s^H (Rhat + lam I)^{-1} y0|^2:
    'dl-amf' divides by the loaded quadratic form (limit psi), 'dl-scm-beta'
    by the unloaded SCM quadratic form (limit q/(1-c), so c is required),
    'dl-raw' not at all, 'cfar' by mu0 so the statistic is unit-exponential.
    params is an AsymptoticParams at the matching loading factor.
    """
    fam = family.replace("_", "-").lower()
    if fam not in _PFA_FAMILIES:
        raise ConfigError(f"unknown pfa family {family!r}; "
                          f"expected one of {_PFA_FAMILIES}")
    if tau < 0:
        raise ConfigError("threshold must be >= 0")
    if fam == "cfar":
        return math.exp(-tau)
    if fam == "dl-raw":
        return math.exp(-tau / params.mu0)
    if fam == "dl-amf":
        return math.exp(-tau * params.psi / params.mu0)
    if c is None:
        raise ConfigError("family 'dl-scm-beta' needs the ratio c = N/K")
    beta_unloaded = params.quad_inv / (1.0 - c)
    return math.exp(-tau * beta_unloaded / params.mu0)
