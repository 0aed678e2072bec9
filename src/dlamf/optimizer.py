"""Loading-factor selection by maximizing the SCNR-preservation factor.

The oracle rule maximizes kappa(lam) computed from the true covariance; the
data-driven rule maximizes its consistent surrogate kappa_lower_hat computed
from one SCM draw. Both share one search, written for B rows at once: an
analytic evaluation at lam = 0, a 200-point log grid up to 100x the row's
mean eigenvalue, then golden-section refinement inside the row's best grid
bracket. Ties break toward the smallest loading. The scalar API is the
search on one row; the trial engine runs it on every trial of a chunk. The
objective takes a (B, m) array of loadings: the grid goes in column groups
(one call for one row), each golden step in one column. The kappa curve
and the crossing scan are one array call each; only the crossing's root
finder evaluates one loading at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from . import estimators, rmt
from .errors import ConfigError
from .results import Curve
from .scenario import as_spectrum

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_STEPS = 200
# loadings per objective call while a grid is evaluated: B rows take
# _GRID_CELLS // B columns at a time, so a call's temporaries stay a few MiB
_GRID_CELLS = 4096
# a search is flat (lambda* = 0) when no grid point beats lam = 0 by more than
# this, relative to max(1, |objective at 0|)
_FLAT_RTOL = 1e-12


@dataclass(frozen=True)
class OptConfig:
    lambda_max: float | None = None   # default 100 * mean eigenvalue
    grid_points: int = 200
    tol: float = 1e-4                 # relative, on the bracket width

    def __post_init__(self):
        if self.lambda_max is not None and not (
                math.isfinite(self.lambda_max) and self.lambda_max > 0):
            raise ConfigError(
                f"lambda_max must be finite and > 0, got {self.lambda_max}")
        if self.grid_points < 2:
            raise ConfigError("grid needs at least 2 points")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ConfigError(f"tol must be finite and > 0, got {self.tol}")

    def resolved_max(self, eigenvalues):
        """lambda_max, by default 100x the mean eigenvalue (of each row of a
        2-D array)."""
        if self.lambda_max is not None:
            return float(self.lambda_max)
        return 100.0 * np.mean(eigenvalues, axis=-1)


@dataclass(frozen=True)
class OptResult:
    lambda_star: float
    objective_value: float
    evaluations: int
    bracket: tuple
    converged: bool


def _log_grid(cfg, eigenvalues):
    """np.logspace(-3, log10(lambda_max), grid_points) for one spectrum, or
    one such row per row of a 2-D array of spectra."""
    tops = np.broadcast_to(cfg.resolved_max(eigenvalues),
                           np.shape(eigenvalues)[:-1])
    grid = np.logspace(-3.0, [math.log10(t) for t in tops.flat],
                       cfg.grid_points, axis=-1)
    return grid.reshape(tops.shape + (cfg.grid_points,))


def search_rows(objective, eigenvalues, config=None):
    """Grid-then-golden maximization on every row of eigenvalues (B, N).

    Row b searches [0, lambda_max_b] on the grid 0 followed by
    np.logspace(-3, log10(lambda_max_b), grid_points). objective(lams)
    takes a (B, m) array of loadings and returns their values (that shape,
    or one value broadcast to it). Returns the rows lambda_star, objective
    value, evaluations (grid points plus golden steps), bracket ends and
    converged. A flat row (no grid point improves on lam = 0 beyond
    rounding) gets lambda_star = 0 with converged = False, and so does a
    row whose bracket is still wider than tol after _GOLDEN_STEPS steps.
    """
    cfg = config or OptConfig()

    def f(lams):
        v = np.asarray(objective(lams), dtype=float)
        return v if v.shape == lams.shape else np.broadcast_to(v, lams.shape)

    B, P = eigenvalues.shape[0], cfg.grid_points
    grid = np.zeros((B, P + 1))
    grid[:, 1:] = _log_grid(cfg, eigenvalues)
    rows = np.arange(B)
    # the first maximum over the grid: the smallest loading on ties
    cols = max(1, _GRID_CELLS // B)
    for j in range(0, P + 1, cols):
        vals = f(grid[:, j:j + cols])
        k = np.argmax(vals, axis=1)
        if j == 0:
            v0, best, best_v = vals[:, 0], k, vals[rows, k]
        else:
            up = vals[rows, k] > best_v
            best = np.where(up, j + k, best)
            best_v = np.where(up, vals[rows, k], best_v)
    flat = best_v - v0 <= _FLAT_RTOL * np.maximum(1.0, np.abs(v0))
    lo = np.where(flat, 0.0, grid[rows, np.maximum(best - 1, 0)])
    hi = np.where(flat, grid[:, 1], grid[rows, np.minimum(best + 1, P)])
    x = np.where(flat, 0.0, grid[rows, best])
    fx = np.where(flat, v0, best_v)
    evals = np.full(B, P + 1)
    act = ~flat
    if not act.any():
        return x, fx, evals, lo, hi, act

    # golden section on [a, b] with interior points x1 < x2; a row stops
    # once b - a <= tol * b (0 <= a < b) and keeps its values from then on
    a, b = lo.copy(), hi.copy()
    width = b - a
    pts = np.empty((4, B))
    x1, f1, x2, f2 = pts  # views
    x1[:], x2[:] = b - _GOLDEN * width, a + _GOLDEN * width
    f1[:], f2[:] = f(np.stack((x1, x2), axis=1)).T
    evals += 2 * act
    for _ in range(_GOLDEN_STEPS):
        act &= width > cfg.tol * np.maximum(b, 1e-30)
        if not act.any():
            break
        up = f1 < f2
        right = act & up        # the peak is right of x1: a moves to x1
        left = act ^ right      # else b moves to x2
        np.copyto(a, x1, where=right)
        np.copyto(b, x2, where=left)
        # the surviving interior point takes the other slot, and the new
        # one a + g (b - a) or b - g (b - a) the freed one
        np.copyto(pts, pts[[2, 3, 0, 1]], where=act)
        width = b - a
        step = _GOLDEN * width
        xq = np.where(up, a + step, b - step)
        new = np.stack((xq, f(xq[:, None])[:, 0]))
        np.copyto(pts[2:], new, where=right)
        np.copyto(pts[:2], new, where=left)
        evals += act
    act &= width > cfg.tol * np.maximum(b, 1e-30)   # stopped at the cap
    # the smaller loading on exact ties; the grid point if still the best
    first = f1 >= f2
    xg, fg = np.where(first, x1, x2), np.where(first, f1, f2)
    golden = ~flat & ~(best_v >= fg)
    return (np.where(golden, xg, x), np.where(golden, fg, fx), evals, lo, hi,
            ~flat & ~act)


def _one_row(found):
    x, fx, evals, lo, hi, converged = (v[0] for v in found)
    return OptResult(lambda_star=float(x), objective_value=float(fx),
                     evaluations=int(evals), bracket=(float(lo), float(hi)),
                     converged=bool(converged))


def maximize_over_lambda(objective, eigenvalues, config=None):
    """search_rows on one row: maximize objective(lam) over
    [0, lambda_max], with objective called on (1, m) arrays of loadings."""
    return _one_row(search_rows(
        objective, np.asarray(eigenvalues, dtype=float)[None], config))


def lambda_opt(R, s, K, config=None):
    """Oracle loading factor: maximize kappa(lam) from the true covariance."""
    R = as_spectrum(R)
    return maximize_over_lambda(lambda lam: rmt.kappa(R, s, lam, K),
                                R.eigenvalues, config)


def lambda_opt_rows(l, w2, K, config=None):
    """Adaptive search on B rows of SCM eigenvalues l and weights
    w2 = |V^H s|^2: maximize kappa_lower_hat on each row."""

    def objective(lams):
        d1, psi, num = estimators._loaded_rows(l, w2, lams, K)
        return estimators._kappa_lower(d1, psi, num)

    return search_rows(objective, l, config)


def lambda_opt_hat(scm, s, K, config=None):
    """Adaptive loading factor: maximize kappa_lower_hat from one SCM,
    reduced as the trial engine reduces a block of one trial."""
    return _one_row(lambda_opt_rows(*estimators._scm_rows(scm, s, K), K,
                                    config))


def kappa_lambda_curve(R, s, K, lambda_grid=None, config=None):
    """Diagnostic sweep of kappa over a loading grid (Curve).

    meta carries the kappa_lower values and the 1 - c reference level.
    """
    R = as_spectrum(R)
    if lambda_grid is None:
        lambda_grid = np.concatenate(
            ([0.0], _log_grid(config or OptConfig(), R.eigenvalues)))
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
    R = as_spectrum(R)
    N = R.dim
    if level is None:
        level = 1.0 - N / K
    grid = _log_grid(config or OptConfig(), R.eigenvalues)
    vals = rmt.kappa(R, s, grid, K) - level
    best = int(np.argmax(vals))
    below = np.nonzero(vals[best:] < 0.0)[0]
    if best == 0 or below.shape[0] == 0:
        return None
    j = best + below[0]
    return float(brentq(lambda lam: rmt.kappa(R, s, lam, K) - level,
                        grid[j - 1], grid[j], xtol=1e-12, rtol=1e-12))
