"""Loading-factor selection by maximizing the SCNR-preservation factor.

The oracle rule maximizes kappa(lam) computed from the true covariance; the
data-driven rule maximizes its consistent surrogate kappa_lower_hat computed
from one SCM draw. Both share the same search: an analytic evaluation at
lam = 0, a 200-point log grid up to 100x the mean eigenvalue, then
golden-section refinement inside the best grid bracket. Ties break toward
the smallest loading. The whole grid, lam = 0 included, is evaluated in one
array call of the objective (rmt and estimators take array loadings), and so
are the kappa curve and the crossing scan; only the golden steps and the
crossing's root finder evaluate one loading at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from . import estimators, rmt
from .errors import ConfigError
from .results import Curve
from .scenario import HermitianSpectrum

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class OptConfig:
    lambda_max: float | None = None   # default 100 * mean eigenvalue
    grid_points: int = 200
    tol: float = 1e-4                 # relative, on the bracket width
    flat_rtol: float = 1e-12

    def resolved_max(self, eigenvalues):
        if self.lambda_max is not None:
            if self.lambda_max <= 0:
                raise ConfigError("lambda_max must be > 0")
            return float(self.lambda_max)
        return 100.0 * float(np.mean(eigenvalues))


@dataclass(frozen=True)
class OptResult:
    lambda_star: float
    objective_value: float
    evaluations: int
    bracket: tuple
    converged: bool


def golden_refine(objective, lo, hi, tol):
    """Golden-section maximization on [lo, hi]; returns (x, f(x), evals)."""
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = objective(x1), objective(x2)
    evals = 2
    for _ in range(200):
        if b - a <= tol * max(abs(a), abs(b), 1e-30):
            break
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = objective(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = objective(x1)
        evals += 1
    # prefer the smaller abscissa on exact ties
    if f1 >= f2:
        return x1, f1, evals
    return x2, f2, evals


def maximize_over_lambda(objective, eigenvalues, config=None):
    """Grid-then-golden maximization of objective(lam) over [0, lambda_max].

    objective is called first with the whole grid as one float array and
    must return its values there (an array of the grid's shape, or one
    value broadcast to it); golden refinement then calls it with scalars.
    evaluations counts grid points plus golden steps. A flat objective (no
    grid point improves on lam = 0 beyond rounding) returns lambda_star = 0
    with converged = False.
    """
    cfg = config or OptConfig()
    if cfg.grid_points < 2:
        raise ConfigError("grid needs at least 2 points")
    lam_max = cfg.resolved_max(eigenvalues)
    grid = np.concatenate((
        [0.0], np.logspace(-3.0, math.log10(lam_max), cfg.grid_points)))
    vals = np.broadcast_to(np.asarray(objective(grid), dtype=float),
                           grid.shape)
    evals = grid.shape[0]
    best = int(np.argmax(vals))  # first max = smallest lam on ties

    if vals[best] - vals[0] <= cfg.flat_rtol * max(1.0, abs(vals[0])):
        return OptResult(lambda_star=0.0, objective_value=float(vals[0]),
                         evaluations=evals, bracket=(0.0, float(grid[1])),
                         converged=False)

    lo = grid[best - 1] if best > 0 else 0.0
    hi = grid[best + 1] if best + 1 < grid.shape[0] else grid[-1]
    x, fx, used = golden_refine(objective, float(lo), float(hi), cfg.tol)
    evals += used
    if vals[best] >= fx:  # grid point still the best seen; keep it
        x, fx = float(grid[best]), float(vals[best])
    return OptResult(lambda_star=x, objective_value=float(fx),
                     evaluations=evals, bracket=(float(lo), float(hi)),
                     converged=True)


def lambda_opt(R, s, K, config=None):
    """Oracle loading factor: maximize kappa(lam) from the true covariance."""
    if not isinstance(R, HermitianSpectrum):
        R = HermitianSpectrum.from_matrix(R)
    return maximize_over_lambda(lambda lam: rmt.kappa(R, s, lam, K),
                                R.eigenvalues, config)


def lambda_opt_hat(scm, s, K, config=None):
    """Adaptive loading factor: maximize kappa_lower_hat from one SCM."""
    if not isinstance(scm, HermitianSpectrum):
        scm = HermitianSpectrum.from_matrix(scm, label="sample covariance")
    return maximize_over_lambda(
        lambda lam: estimators.kappa_lower_hat(scm, s, lam, K),
        scm.eigenvalues, config)


def kappa_lambda_curve(R, s, K, lambda_grid=None, config=None):
    """Diagnostic sweep of kappa over a loading grid (Curve).

    meta carries the kappa_lower values and the 1 - c reference level.
    """
    if not isinstance(R, HermitianSpectrum):
        R = HermitianSpectrum.from_matrix(R)
    if lambda_grid is None:
        cfg = config or OptConfig()
        lambda_grid = np.concatenate((
            [0.0], np.logspace(-3.0, math.log10(cfg.resolved_max(R.eigenvalues)),
                               cfg.grid_points)))
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    kap = rmt.kappa(R, s, lambda_grid, K)
    klo = rmt.kappa_lower(R, s, lambda_grid, K)
    N = R.dim
    return Curve(x=lambda_grid, y=kap, label="kappa",
                 meta={"kappa_lower": klo, "one_minus_c": 1.0 - N / K})


def kappa_crossing(R, s, K, level=None, config=None):
    """Largest-lambda return of kappa to a reference level (default 1 - c).

    kappa starts at 1 - c, rises, and for scenarios whose matched-filter
    limit is poor falls back through it; the crossing marks where loading
    stops paying. Returns None when kappa stays above the level on the grid.
    """
    if not isinstance(R, HermitianSpectrum):
        R = HermitianSpectrum.from_matrix(R)
    N = R.dim
    if level is None:
        level = 1.0 - N / K
    cfg = config or OptConfig()
    grid = np.logspace(-3.0, math.log10(cfg.resolved_max(R.eigenvalues)),
                       cfg.grid_points)
    vals = rmt.kappa(R, s, grid, K) - level
    best = int(np.argmax(vals))
    below = np.nonzero(vals[best:] < 0.0)[0]
    if best == 0 or below.shape[0] == 0:
        return None
    j = best + below[0]
    return float(brentq(lambda lam: rmt.kappa(R, s, lam, K) - level,
                        grid[j - 1], grid[j], xtol=1e-12, rtol=1e-12))
