"""Loading-factor selection by maximizing the SCNR-preservation factor.

The oracle rule maximizes kappa(lam) computed from the true covariance; the
data-driven rule maximizes its consistent surrogate kappa_lower_hat computed
from one SCM draw. Both share one search, written for B rows at once: an
analytic evaluation at lam = 0, a 200-point log grid up to 100x the row's
mean eigenvalue, then a few passes over an even subgrid of the row's best
grid bracket, each keeping the two subcells around the best new point.
Ties break toward the smallest loading. The scalar API is the search on
one row; the trial engine runs it on every trial of a chunk. The
objective takes a (B, m) array of loadings: the grid goes in column groups
(one call for one row), each pass in one call of _SEARCH_POINTS columns.
The kappa curve is one array call; the crossing is one array call on the
grid, then one per pass that narrows its bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import estimators, rmt
from .errors import ConfigError, require_finite
from .results import Curve
from .scenario import as_spectrum

# a search bracket is cut into _SEARCH_POINTS + 1 equal parts per pass and
# shrinks to two of them, at most _SEARCH_PASSES times: (2 / 13)^20 < 2^-52,
# so a bracket still open at the cap is narrower than the float resolution
# of its grid bracket
_SEARCH_POINTS = 12
_SEARCH_PASSES = 20
# loadings per objective call while a grid is evaluated: B rows take
# _GRID_CELLS // B columns at a time, so a call's temporaries stay a few MiB
_GRID_CELLS = 4096
# a search is flat (lambda* = 0) when no grid point beats lam = 0 by more than
# this, relative to max(1, |objective at 0|)
_FLAT_RTOL = 1e-12
# a crossing bracket [lo, hi] is cut into _CROSSING_POINTS + 1 equal parts
# per pass until hi - lo <= _CROSSING_TOL * (1 + hi), the xtol = rtol test
# of a brentq call
_CROSSING_POINTS = 64
_CROSSING_TOL = 1e-12
_UNRANKED = "the loading search cannot rank them"


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
    """Grid-then-subgrid maximization on every row of eigenvalues (B, N).

    Row b searches [0, lambda_max_b] on the grid 0 followed by
    np.logspace(-3, log10(lambda_max_b), grid_points), then refines the
    bracket of its first grid maximum: each pass evaluates the
    _SEARCH_POINTS evenly spaced interior points of every row's bracket
    and shrinks it to the two subcells around the row's best new point
    (the first on ties), until b - a <= tol * b. objective(lams) takes a
    (B, m) array of loadings and returns their values (that shape, or one
    value broadcast to it). Each row's result depends on its own values
    alone. Returns the rows lambda_star (the best loading evaluated, the
    earlier one on ties), objective value, evaluations (grid points plus
    _SEARCH_POINTS per pass), final bracket ends and converged, or raises
    NumericalError when a grid value or a pass's best value is NaN or
    infinite. A flat row (no grid point improves on lam = 0 beyond
    rounding) gets lambda_star = 0 with converged = False; a row whose
    bracket is still wider than tol after _SEARCH_PASSES passes gets
    converged = False.
    """
    cfg = config or OptConfig()

    def f(lams):
        v = np.asarray(objective(lams), dtype=float)
        return v if v.shape == lams.shape else np.broadcast_to(v, lams.shape)

    B, P = eigenvalues.shape[0], cfg.grid_points
    grid = np.zeros((B, P + 1))
    grid[:, 1:] = _log_grid(cfg, eigenvalues)
    rows = np.arange(B)
    cols = max(1, _GRID_CELLS // B)
    vals = np.concatenate([f(grid[:, j:j + cols])
                           for j in range(0, P + 1, cols)], axis=1)
    require_finite(vals, "objective values on the grid", _UNRANKED)
    # the first maximum over the grid: the smallest loading on ties
    best = np.argmax(vals, axis=1)
    v0, best_v = vals[:, 0], vals[rows, best]
    flat = best_v - v0 <= _FLAT_RTOL * np.maximum(1.0, np.abs(v0))
    a = np.where(flat, 0.0, grid[rows, np.maximum(best - 1, 0)])
    b = np.where(flat, grid[:, 1], grid[rows, np.minimum(best + 1, P)])
    x = np.where(flat, 0.0, grid[rows, best])
    fx = np.where(flat, v0, best_v)
    evals = np.full(B, P + 1)
    act = ~flat

    # every active row has 0 <= a < b; a stopped row keeps its values
    cuts = np.arange(_SEARCH_POINTS + 2) / (_SEARCH_POINTS + 1)
    for _ in range(_SEARCH_PASSES):
        act &= b - a > cfg.tol * b
        if not act.any():
            break
        xs = a[:, None] + (b - a)[:, None] * cuts
        vs = f(xs[:, 1:-1])
        k = np.argmax(vs, axis=1)
        fk = vs[rows, k]
        require_finite(fk, "objective values at the pass maxima", _UNRANKED)
        a = np.where(act, xs[rows, k], a)
        b = np.where(act, xs[rows, k + 2], b)
        # the earlier point on ties: the grid point if still the best
        up = act & (fk > fx)
        x, fx = np.where(up, xs[rows, k + 1], x), np.where(up, fk, fx)
        evals += _SEARCH_POINTS * act
    act &= b - a > cfg.tol * b   # stopped at the cap
    return x, fx, evals, a, b, ~flat & ~act


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

    with np.errstate(all="ignore"):  # search_rows checks every value
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
    kap, klo = rmt._kappas(R, s, lambda_grid, K)
    N = R.dim
    return Curve(x=lambda_grid, y=kap, label="kappa",
                 meta={"kappa_lower": klo, "one_minus_c": 1.0 - N / K})


def kappa_crossing(R, s, K, level=None, config=None):
    """Largest-lambda return of kappa to a reference level (default 1 - c).

    kappa starts at 1 - c, rises, and for scenarios whose matched-filter
    limit is poor falls back through it; the crossing marks where loading
    stops paying. The first grid bracket past the peak where kappa drops
    below the level is narrowed by kappa on an even subgrid per pass, and
    a secant step across the last bracket gives the root. Returns None when
    kappa never reaches the level, or stays above it, on the grid.
    """
    R = as_spectrum(R)
    if level is None:
        level = 1.0 - R.dim / K
    elif not math.isfinite(level):
        raise ConfigError(f"crossing level must be finite, got {level}")
    grid = _log_grid(config or OptConfig(), R.eigenvalues)
    vals = rmt.kappa(R, s, grid, K) - level
    best = int(np.argmax(vals))
    below = np.nonzero(vals[best:] < 0.0)[0]
    if best == 0 or vals[best] < 0.0 or below.shape[0] == 0:
        return None
    j = best + below[0]
    # x[0] < x[1] with v[0] >= 0 > v[1]
    x, v = grid[j - 1:j + 1], vals[j - 1:j + 1]
    while x[1] - x[0] > _CROSSING_TOL * (1.0 + x[1]):
        xs = np.linspace(x[0], x[1], _CROSSING_POINTS + 2)
        vs = np.concatenate(
            (v[:1], rmt.kappa(R, s, xs[1:-1], K) - level, v[1:]))
        k = int(np.argmax(vs < 0.0))
        x, v = xs[k - 1:k + 1], vs[k - 1:k + 1]
    return float(x[0] + v[0] * (x[1] - x[0]) / (v[0] - v[1]))
