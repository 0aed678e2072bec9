"""Independent reference implementations used only by the tests.

Everything here is deliberately written through a different route than the
package code: arbitrary-precision quadrature instead of series, dense
matrix algebra instead of eigenvalue shortcuts. Slow is fine.
"""

import math

import mpmath as mp
import numpy as np
from scipy.optimize import brentq

from dlamf import optimizer
from dlamf.errors import ConfigError, NumericalError
from dlamf.scenario import HermitianSpectrum, SteeringVector


def marcum_q_quadrature(a, b, dps=30):
    """Q_1(a, b) as an mpmath integral of the Rician density.

    Q_1(a,b) = int_b^inf x exp(-(x^2+a^2)/2) I_0(a x) dx. The integrand
    peaks near x = a; split the range at the peak so quadrature converges.
    """
    with mp.workdps(dps):
        a = mp.mpf(a)
        b = mp.mpf(b)
        f = lambda x: x * mp.exp(-(x * x + a * a) / 2) * mp.besseli(0, a * x)
        points = sorted({b, max(a, b), max(a, b) + 40})
        return float(mp.quad(f, points))


def bessel_i0_series(x, dps=40):
    """I_0 by its power series in arbitrary precision."""
    with mp.workdps(dps):
        x = mp.mpf(x)
        term = mp.mpf(1)
        total = mp.mpf(1)
        k = 0
        while True:
            k += 1
            term *= (x / 2) ** 2 / k ** 2
            total += term
            if term < mp.mpf(10) ** (-dps) * total:
                return float(total)


def sqrtm_psd(A):
    w, V = np.linalg.eigh(A)
    return (V * np.sqrt(np.maximum(w, 0.0))) @ V.conj().T


def dense_delta(R, lam, K):
    """Fixed point of the sample-resolvent equation via scalar root finding
    on dense matrices."""
    N = R.shape[0]
    if lam == 0.0:
        return 1.0 - N / K
    Rinv = np.linalg.inv(R)

    def g(d):
        E = np.linalg.inv(d * np.eye(N) + lam * Rinv)
        return d * (1.0 + np.trace(E).real / K) - 1.0

    return brentq(g, 1e-14, 1.0, xtol=1e-15)


def dense_equivalents(R, s, lam, K):
    """psi, xi, gamma, mu0 via explicit matrix inverses (no eigen shortcuts)."""
    N = R.shape[0]
    R = np.asarray(R, dtype=complex)
    s = np.asarray(s, dtype=complex)
    Rinv = np.linalg.inv(R)
    q = float(np.real(s.conj() @ Rinv @ s))
    if lam == 0.0:
        c = N / K
        psi = q / (1.0 - c)
        return {"delta": 1.0 - c, "psi": psi, "xi": q / (1.0 - c) ** 2,
                "gamma": c, "mu0": q / (1.0 - c) ** 3, "q": q}
    d = dense_delta(R, lam, K)
    E = np.linalg.inv(d * np.eye(N) + lam * Rinv)
    u = np.linalg.inv(sqrtm_psd(R)) @ s
    psi = float(np.real(u.conj() @ E @ u))
    xi = float(np.real(u.conj() @ E @ E @ u))
    gamma = (d * d / K) * float(np.trace(E @ E).real)
    return {"delta": d, "psi": psi, "xi": xi, "gamma": gamma,
            "mu0": xi / (1.0 - gamma), "q": q}


def dense_kappa(R, s, lam, K):
    e = dense_equivalents(R, s, lam, K)
    return (1.0 - e["gamma"]) * e["psi"] ** 2 / (e["q"] * e["xi"])


def kappa_crossing(R, s, K, level, lo, hi):
    """The loading in [lo, hi] where dense_kappa meets level, by brentq at
    its tightest relative tolerance."""
    return brentq(lambda lam: dense_kappa(R, s, lam, K) - level, lo, hi,
                  xtol=1e-300, rtol=1e-15)


def dense_estimated(scm, s, lam, K):
    """Plug-in consistent estimators from a dense sample covariance."""
    scm = np.asarray(scm, dtype=complex)
    s = np.asarray(s, dtype=complex)
    N = scm.shape[0]
    M = np.linalg.inv(scm + lam * np.eye(N))
    num = float(np.real(s.conj() @ M @ scm @ M @ s))
    psi_hat = float(np.real(s.conj() @ M @ s))
    d1 = 1.0 - N / K + (lam / K) * float(np.trace(M).real)
    d2 = 1.0 - N / K + (lam * lam / K) * float(np.trace(M @ M).real)
    return {"psi_hat": psi_hat, "mu0_hat": num / d1 ** 2,
            "gamma_hat": 1.0 - d1 ** 2 / d2, "xi_hat": num / d2,
            "kappa_lower_hat": d1 ** 2 * psi_hat ** 2 / num,
            "d1": d1, "d2": d2}


# --- scalar detector statistics --------------------------------------------
#
# One trial at a time through the SCM eigendecomposition (with its clamped
# spectrum), one formula per kind. The package computes every kind through
# one row kernel and a table; these are what it is checked against.

def _entries(s):
    return s.entries if isinstance(s, SteeringVector) else np.asarray(s)


def _spectrum(M, label):
    if isinstance(M, HermitianSpectrum):
        return M
    return HermitianSpectrum.from_matrix(M, label=label)


def loaded_forms(scm, s, y0, lam):
    """(alpha, beta) of the loaded filter: s^H (Rhat+lam)^{-1} y0 and
    s^H (Rhat+lam)^{-1} s; unloaded forms refuse a singular SCM."""
    scm = _spectrum(scm, "sample covariance")
    if lam < 0:
        raise ConfigError("loading factor must be >= 0")
    if lam == 0.0 and scm.eigenvalues[0] <= 1e-10 * scm.eigenvalues[-1]:
        raise NumericalError("sample covariance is numerically singular")
    w = scm.weights(_entries(s))
    z = scm.weights(np.asarray(y0))
    den = scm.eigenvalues + lam
    alpha = complex(np.sum(w.conj() * z / den))
    beta = float(np.sum(np.abs(w) ** 2 / den))
    return alpha, beta


def mu0_hat(scm, s, lam, K):
    """Plug-in mu0: s^H M Rhat M s / D1^2 with M = (Rhat + lam I)^{-1}."""
    scm = _spectrum(scm, "sample covariance")
    l = scm.eigenvalues
    w2 = np.abs(scm.weights(_entries(s))) ** 2
    d1 = 1.0 - l.shape[0] / K + lam * np.sum(1.0 / (l + lam)) / K
    return float(np.sum(w2 * l / (l + lam) ** 2) / d1 ** 2)


def el_lambda(scm, K):
    """EL loading by Brent's method on log g(lam) = log zeta_0.5."""
    l = _spectrum(scm, "sample covariance").eigenvalues
    N = l.shape[0]
    target = -N - (K - N) * math.log(1.0 - N / K)

    def defect(lam):
        r = l / (l + lam)
        return float(np.sum(np.log(r)) + N - np.sum(r)) - target

    hi = float(l[-1])
    while defect(hi) > 0.0:
        hi *= 2.0
    return brentq(defect, 0.0, hi, xtol=1e-300, rtol=1e-15)


def stat_np(R, s, y0):
    """Clairvoyant matched filter |s^H R^{-1} y0|^2 / s^H R^{-1} s."""
    R = _spectrum(R, "covariance")
    t = R.apply_inv(_entries(s))
    return float(np.abs(t.conj() @ np.asarray(y0)) ** 2
                 / R.inv_quad(_entries(s)))


def stat_dl_family(scm, s, y0, lam, variant="dl-amf"):
    """Loaded filter divided by the loaded quadratic form ('dl-amf'), the
    unloaded one ('dl-scm-beta') or nothing ('dl-raw')."""
    alpha, beta_l = loaded_forms(scm, s, y0, lam)
    norm = {"dl-amf": lambda: beta_l, "dl-raw": lambda: 1.0,
            "dl-scm-beta": lambda: loaded_forms(scm, s, y0, 0.0)[1]}
    return float(np.abs(alpha) ** 2 / norm[variant]())


def stat_amf(scm, s, y0):
    """Unloaded adaptive matched filter."""
    return stat_dl_family(scm, s, y0, 0.0)


def stat_cfar_dl_scmf(scm, R, s, y0, lam, K):
    """Loaded filter normalized by the oracle mu0(R, s, lam)."""
    alpha, _ = loaded_forms(scm, s, y0, lam)
    mu0 = dense_equivalents(R.matrix, _entries(s), lam, K)["mu0"]
    return float(np.abs(alpha) ** 2 / mu0)


def stat_cfar_dl_amf(scm, s, y0, lam, K):
    """Loaded filter normalized by the plug-in mu0_hat."""
    alpha, _ = loaded_forms(scm, s, y0, lam)
    return float(np.abs(alpha) ** 2 / mu0_hat(scm, s, lam, K))


def persymmetrize(A):
    """Average A with its flip-conjugate J conj(A) J (J the exchange
    matrix): the projection onto persymmetric matrices."""
    return 0.5 * (A + np.conj(A)[::-1, ::-1])


def stat_persymmetric_amf(scm, s, y0):
    """AMF built on the persymmetrized SCM."""
    A = scm.matrix if isinstance(scm, HermitianSpectrum) else np.asarray(scm)
    return stat_amf(HermitianSpectrum.from_matrix(persymmetrize(A)), s, y0)


def statistic(spec, y0, s, K, scm=None, R=None, opt_config=None):
    """Reference statistic of a DetectorSpec on one trial. The el kinds
    find their loading by their own root finder; the opt kinds take theirs
    from the package's optimizer, which test_optimizer checks."""
    kind, lam = spec.kind, spec.lam
    if kind == "np":
        return stat_np(R, s, y0)
    if kind == "scm-amf":
        return stat_amf(scm, s, y0)
    if kind in ("dl-amf", "dl-scm-beta", "dl-raw"):
        return stat_dl_family(scm, s, y0, lam, kind)
    if kind == "persym-amf":
        return stat_persymmetric_amf(scm, s, y0)
    if kind in ("el-amf", "cfar-el-amf"):
        lam = el_lambda(scm, K)
    elif kind == "opt-cfar-dl-scmf":
        lam = optimizer.lambda_opt(R, s, K, opt_config).lambda_star
    elif kind == "opt-cfar-dl-amf":
        lam = optimizer.lambda_opt_hat(scm, s, K, opt_config).lambda_star
    if kind == "el-amf":
        return stat_dl_family(scm, s, y0, lam)
    if kind in ("cfar-dl-scmf", "opt-cfar-dl-scmf"):
        return stat_cfar_dl_scmf(scm, R, s, y0, lam, K)
    return stat_cfar_dl_amf(scm, s, y0, lam, K)
