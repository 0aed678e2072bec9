"""Independent reference implementations used only by the tests.

Everything here is deliberately written through a different route than the
package code: arbitrary-precision quadrature instead of series, dense
matrix algebra instead of eigenvalue shortcuts. Slow is fine.
"""

import math

import mpmath as mp
import numpy as np
from scipy.optimize import brentq


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


def marcum_series_capped(a, b):
    """Poisson-mixture Marcum Q summed until the Poisson(a^2/2) mass reaches
    1 - 1e-16 or 100 000 terms, whichever comes first; returns (Q, terms).

    The rounded mass can settle just below 1 - 1e-16, and then every term up
    to the cap is added. Kept as the reference for the early stop of
    theory._marcum_series, which must return the same bits.
    """
    x = 0.5 * a * a
    y = 0.5 * b * b
    if x >= 500.0:
        return 1.0, 0
    if y >= 500.0:
        return 0.0, 0
    p = math.exp(-x)
    t = math.exp(-y)
    g = t
    acc = p * g
    cum = p
    n = 0
    while cum < 1.0 - 1e-16 and n < 100_000:
        n += 1
        p *= x / n
        t *= y / n
        g += t
        acc += p * g
        cum += p
    acc += (1.0 - cum) * g
    return min(max(acc, 0.0), 1.0), n
