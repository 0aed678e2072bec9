"""Deterministic equivalents of diagonally loaded SCM functionals.

In the proportional regime (N, K large, c = N/K fixed in (0, 1)) the
quadratic forms that drive loaded-filter performance concentrate around
deterministic limits that depend only on the true covariance spectrum, the
steering vector and the loading factor. This module evaluates those limits.
Everything is computed in the eigenbasis of R: with eigenvalues rho_i and
steering weights w_i = v_i^H s,

    delta solves   delta * (1 + (1/K) sum_i rho_i / (delta rho_i + lam)) = 1
    psi   = sum_i |w_i|^2 / (delta rho_i + lam)
    xi    = sum_i |w_i|^2 rho_i / (delta rho_i + lam)^2
    gamma = (delta^2 / K) sum_i rho_i^2 / (delta rho_i + lam)^2
    mu0   = xi / (1 - gamma)

psi is the limit of the loaded quadratic form s^H (Rhat + lam I)^{-1} s and
mu0 normalizes the loaded filter output power under h0. The SCNR-preservation
factor kappa = (1 - gamma) psi^2 / (q xi) with q = s^H R^{-1} s measures the
fraction of optimal output SCNR the loaded filter retains; kappa(0) = 1 - c
recovers the unloaded SCM filter and kappa is bounded above by 1 - gamma < 1.

solve_delta, deterministic_equivalents, kappa and kappa_lower take lam as a
scalar or as an array. An array solves the delta equation for every element
at once, so a whole loading grid costs one NumPy pass per Newton step; a
scalar is the one-element case of the same code, and each element of an
array call equals the scalar call bit for bit. The solver, _newton_rows, is
a safeguarded Newton iteration on many increasing scalar equations at once;
estimators solves the EL loading rule and the theta transform with it too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError, require_finite
from .scenario import as_spectrum, steering_entries

_RESIDUAL_TOL = 1e-12
_NEWTON_STEPS = 100


def _check_regime(N, K):
    if K <= N:
        raise ConfigError(
            f"asymptotic formulas need c = N/K < 1, got N={N} K={K}")


def _loadings(lam):
    """lam as a 1-D float array, checked to be finite and >= 0."""
    lams = np.asarray(lam, dtype=float).reshape(-1)
    bad = lams[~(lams >= 0.0) | ~np.isfinite(lams)]
    if bad.size:
        raise ConfigError(
            f"loading factor must be finite and >= 0, got {bad[0]}")
    return lams


def _shaped(values, lam):
    """A float for a scalar lam, else values shaped like lam."""
    if np.ndim(lam) == 0:
        return float(values[0])
    return values.reshape(np.shape(lam))


def _delta_terms(d, rho, lam, K):
    # residual of the delta equation and its slope in delta,
    # 1 + (lam/K) sum_i rho_i / (delta rho_i + lam)^2; d and lam broadcast
    den = d[..., None] * rho + lam[..., None]
    q = rho / den
    return d * (1.0 + q.sum(-1) / K) - 1.0, 1.0 + lam * (q / den).sum(-1) / K


def delta_residual(delta, eigenvalues, lam, K):
    """Fixed-point defect delta * (1 + (1/K) tr(R (delta R + lam)^-1)) - 1.

    delta and lam broadcast against each other; the trace runs over the
    eigenvalues.
    """
    res = _delta_terms(np.asarray(delta, dtype=float),
                       np.asarray(eigenvalues, dtype=float),
                       np.asarray(lam, dtype=float), K)[0]
    return float(res) if res.ndim == 0 else res


def _newton_rows(fn, x, lo, hi, ftol, stalled, *data):
    """Roots of B increasing scalar functions at once, one per row, by a
    safeguarded Newton iteration.

    fn(x, *data) returns the values f and slopes f' of the rows at x; data
    are (B, ...) arrays of row parameters. Row i has its root in
    [lo_i, hi_i] and starts at x_i there. Each step narrows every live
    bracket by the sign of f and takes the Newton step where it stays in
    the bracket, else bisects; a Newton step below rounding stays at x
    rather than bisecting away from the root. A row leaves with its x once
    two iterates in a row have |f| <= ftol: its last step started within
    ftol of the root, and its own residual is checked. Every
    operation is row-local, so a row's result does not depend on the other
    rows. After _NEWTON_STEPS steps NumericalError(stalled(i, f_i)) names
    the first row still live.
    """
    out = np.empty(x.shape)
    rows = np.arange(x.shape[0])
    near = np.zeros(x.shape, dtype=bool)
    for _ in range(_NEWTON_STEPS):
        f, slope = fn(x, *data)
        ok = np.abs(f) <= ftol
        done = ok & near
        out[rows[done]] = x[done]
        if done.all():
            return out
        if done.any():
            keep = ~done
            rows, x, f, slope, lo, hi, ok = (
                a[keep] for a in (rows, x, f, slope, lo, hi, ok))
            data = [a[keep] for a in data]
        near = ok
        below = f < 0.0
        lo = np.where(below, x, lo)
        hi = np.where(below, hi, x)
        nxt = x - f / slope
        x = np.where((lo <= nxt) & (nxt <= hi), nxt, 0.5 * (lo + hi))
    raise NumericalError(stalled(rows[0], f[0]))


def solve_delta(eigenvalues, lam, K):
    """Solve the delta equation for each loading factor in lam >= 0.

    lam may be a scalar (returns a float) or an array (returns an array of
    its shape); a scalar is the one-element case of the same computation,
    so each element of an array call equals the scalar call bit for bit.
    lam = 0 gives the exact value 1 - N/K. Otherwise the residual, which
    is increasing and concave in delta on (0, 1], is solved by safeguarded
    Newton steps from 1 - N/K. Every result satisfies |residual| <= 1e-12
    or a NumericalError reports the first defect.
    """
    rho = np.asarray(eigenvalues, dtype=float)
    N = rho.shape[0]
    _check_regime(N, K)
    # written so that NaN fails it: a NaN compares False both ways
    if not np.all(np.isfinite(rho) & (rho > 0)):
        raise ConfigError("eigenvalues must be finite and positive")
    lams = _loadings(lam)
    delta = np.full(lams.shape, 1.0 - N / K)
    idx = np.nonzero(lams != 0.0)[0]
    if idx.size:
        sub = lams[idx]
        delta[idx] = _newton_rows(
            lambda d, lm: _delta_terms(d, rho, lm, K), delta[idx],
            np.zeros(idx.size), np.ones(idx.size), _RESIDUAL_TOL,
            lambda j, r: (f"delta solve stalled at residual {r:.3e} "
                          f"(lam={sub[j]}, N={N}, K={K})"), sub)
    return _shaped(delta, lam)


@dataclass(frozen=True)
class AsymptoticParams:
    """Deterministic equivalents at one loading factor, or at each of an
    array of them (then every field but quad_inv is an array like lam)."""

    lam: float
    delta: float
    psi: float
    xi: float
    gamma: float
    mu0: float
    quad_inv: float  # q = s^H R^{-1} s

    @property
    def beta_dl(self):
        """Limit of the loaded quadratic form s^H (Rhat + lam I)^{-1} s."""
        return self.psi


def deterministic_equivalents(R, s, lam, K):
    """All deterministic equivalents of the loaded filter at lam.

    R is a HermitianSpectrum, s a SteeringVector or array, lam a scalar or
    an array of loading factors (one delta solve covers the whole array).
    lam = 0 uses the exact closed forms psi = q/(1-c), xi = q/(1-c)^2,
    gamma = c, mu0 = q/(1-c)^3.
    """
    R = as_spectrum(R)
    sv = steering_entries(s)
    rho = R.eigenvalues
    N = rho.shape[0]
    _check_regime(N, K)
    q = R.inv_quad(sv)
    lams = _loadings(lam)
    delta = solve_delta(rho, lams, K)
    w2 = np.abs(R.weights(sv)) ** 2
    den = delta[:, None] * rho + lams[:, None]
    with np.errstate(over="ignore"):  # require_finite raises below
        psi = np.sum(w2 / den, axis=1)
        xi = np.sum(w2 * rho / den ** 2, axis=1)
        gamma = delta * delta * np.sum(rho ** 2 / den ** 2, axis=1) / K
        mu0 = xi / (1.0 - gamma)
    zero = lams == 0.0
    if zero.any():
        omc = 1.0 - N / K
        psi[zero], xi[zero] = q / omc, q / omc ** 2
        gamma[zero], mu0[zero] = N / K, q / omc ** 3
    require_finite(mu0, "mu0", "the loading or the powers are out of "
                   "floating-point range", nonzero=True)
    return AsymptoticParams(
        lam=_shaped(lams, lam), delta=_shaped(delta, lam),
        psi=_shaped(psi, lam), xi=_shaped(xi, lam),
        gamma=_shaped(gamma, lam), mu0=_shaped(mu0, lam), quad_inv=q)


def mu1(params, sigma_t2):
    """h1 mean-power equivalent: sigma_t^2 psi^2 + mu0.

    sigma_t2 is the Swerling I target power; a nonfluctuating target of
    amplitude b uses sigma_t2 = |b|^2 with the same formula for the mean.
    """
    if sigma_t2 < 0:
        raise ConfigError("target power must be >= 0")
    return float(sigma_t2) * params.psi ** 2 + params.mu0


def kappa(R, s, lam, K):
    """SCNR-preservation factor kappa(lam) = (1 - gamma) psi^2 / (q xi);
    lam may be a scalar or an array."""
    p = deterministic_equivalents(R, s, lam, K)
    k = (1.0 - p.gamma) * (p.psi * p.psi) / (p.quad_inv * p.xi)
    return float(k) if np.ndim(lam) == 0 else k


def kappa_lower(R, s, lam, K):
    """Estimable surrogate (1 - gamma) psi^2 / xi = q * kappa(lam); lam may
    be a scalar or an array.

    Shares its maximizer with kappa, so loading-factor selection can work
    from data without knowing q.
    """
    p = deterministic_equivalents(R, s, lam, K)
    k = (1.0 - p.gamma) * (p.psi * p.psi) / p.xi
    return float(k) if np.ndim(lam) == 0 else k


def kappa_derivative_at_zero(R, K):
    """d kappa / d lam at lam = 0: 2 tr(R^{-1}) / (K (1 - c)).

    Strictly positive, so a little loading always beats none.
    """
    R = as_spectrum(R)
    N = R.dim
    _check_regime(N, K)
    return 2.0 * R.inv_trace() / (K * (1.0 - N / K))


def kappa_limit_inf(R, s):
    """lam -> infinity limit 1 / (q * s^H R s): the unadapted matched filter."""
    R = as_spectrum(R)
    sv = steering_entries(s)
    return 1.0 / (R.inv_quad(sv) * R.quad(sv))
