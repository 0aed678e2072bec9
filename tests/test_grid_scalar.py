"""A loading grid evaluated in one array call equals the scalar calls.

rmt and estimators take lam as a scalar or an array, and the scalar is the
one-element case of the same code; every element of an array call must
equal the scalar call at that loading bit for bit. The delta, EL and theta
equations share one safeguarded Newton row solver, rmt._newton_rows, whose
operations are row-local: a row's root is the same bits alone or among
others, on Newton steps, through its bisection safeguard and when the
solve fails.
"""

import numpy as np
import pytest

from dlamf import estimators, rmt
from dlamf.errors import NumericalError
from dlamf.optimizer import OptConfig
from dlamf.scenario import sample_dataset, scm, trial_rng

from conftest import lowrank_scenario, toeplitz_scenario

SCENARIOS = {"toeplitz": toeplitz_scenario(24, 48),
             "lowrank": lowrank_scenario(24, 48)}


def _grid(eigenvalues):
    # the optimizer's grid: lam = 0 and 200 log-spaced points
    top = OptConfig().resolved_max(eigenvalues)
    return np.concatenate(([0.0], np.logspace(-3.0, np.log10(top), 200)))


def _assert_elementwise(fn, grid):
    # fn(grid) in one array call against fn at each grid point
    got = fn(grid)
    assert got.shape == grid.shape
    want = np.array([fn(g) for g in grid.tolist()])
    np.testing.assert_array_equal(got, want)


@pytest.fixture(params=sorted(SCENARIOS))
def design(request):
    scen = SCENARIOS[request.param]
    R = scen.covariance()
    return scen, R, _grid(R.eigenvalues)


class TestRmtGrid:
    def test_solve_delta(self, design):
        scen, R, grid = design
        rho = R.eigenvalues
        _assert_elementwise(lambda g: rmt.solve_delta(rho, g, scen.K), grid)

    @pytest.mark.parametrize("fn", [rmt.kappa, rmt.kappa_lower])
    def test_kappa(self, design, fn):
        scen, R, grid = design
        s = scen.steering
        _assert_elementwise(lambda g: fn(R, s, g, scen.K), grid)

    def test_equivalents_keep_shape(self, design):
        scen, R, grid = design
        lam = grid[1:].reshape(20, 10)
        p = rmt.deterministic_equivalents(R, scen.steering, lam, scen.K)
        assert p.mu0.shape == lam.shape
        one = rmt.deterministic_equivalents(R, scen.steering,
                                            float(lam[3, 7]), scen.K)
        assert isinstance(one.mu0, float)
        assert p.mu0[3, 7] == one.mu0 and p.gamma[3, 7] == one.gamma

    def test_bisection_fallback(self, design, monkeypatch):
        # a slope a thousand times too small sends every Newton step out of
        # its bracket, so all loaded elements finish by the bisection
        # safeguard; the residual itself is unchanged
        scen, R, grid = design
        grid = grid[::8]
        rho = R.eigenvalues
        direct = rmt.solve_delta(rho, grid, scen.K)
        terms = rmt._delta_terms

        def flat_slope(d, rho, lam, K):
            res, slope = terms(d, rho, lam, K)
            return res, 1e-3 * slope

        monkeypatch.setattr(rmt, "_delta_terms", flat_slope)
        _assert_elementwise(lambda g: rmt.solve_delta(rho, g, scen.K), grid)
        bisected = rmt.solve_delta(rho, grid, scen.K)
        assert np.any(bisected[1:] != direct[1:])
        assert np.all(np.abs(rmt.delta_residual(bisected, rho, grid,
                                                scen.K)) <= 1e-12)
        _assert_elementwise(
            lambda g: rmt.kappa(R, scen.steering, g, scen.K), grid)

    def test_stalled_residual_raises_on_both_paths(self, design,
                                                   monkeypatch):
        # a tolerance no residual can meet: every loaded element stalls
        scen, R, grid = design
        rho = R.eigenvalues
        monkeypatch.setattr(rmt, "_RESIDUAL_TOL", -1.0)
        with pytest.raises(NumericalError) as grid_err:
            rmt.solve_delta(rho, grid, scen.K)
        with pytest.raises(NumericalError) as first_err:
            rmt.solve_delta(rho, grid[1], scen.K)
        # the array call reports its first stalled loading, as the scalar
        # call at that loading does
        assert str(grid_err.value) == str(first_err.value)
        assert rmt.solve_delta(rho, 0.0, scen.K) == 0.5  # closed form
        with pytest.raises(NumericalError):
            rmt.kappa(R, scen.steering, grid, scen.K)


class TestNewtonRows:
    def test_bisection_safeguard(self):
        # EL rows started at the top of a wide bracket, outside the Newton
        # basin of a spectrum spread over 1e12: from there the Newton step
        # overshoots below zero, so the rows pass through bisection steps
        rng = np.random.default_rng(3)
        N, K = 24, 25
        l = np.logspace(-12.0, 0.0, N) * rng.uniform(0.5, 2.0, (6, N))
        log_zeta = estimators.log_zeta_median(N, K)
        hi = 1e3 * l.max(1)
        seen = []

        def excess(lam, l):
            slope = (lam[:, None] / (l + lam[:, None]) ** 2).sum(1)
            seen.append((lam, log_zeta - estimators._log_g_rows(l, lam),
                         slope))
            return seen[-1][1:]

        def solve(rows):
            seen.clear()
            return rmt._newton_rows(excess, hi[rows], np.zeros(len(rows)),
                                    hi[rows], estimators._EL_FTOL,
                                    lambda j, r: "EL stalled", l[rows])

        got = solve(np.arange(6))
        for i in range(6):
            one = solve(np.array([i]))
            assert one[0] == got[i]
            # an iterate that is not the Newton step from the one before
            # it is a bisection midpoint
            newton = [x - f / slope for x, f, slope in seen[:-1]]
            assert any(x[0] != n[0] for (x, _, _), n in zip(seen[1:], newton))
        log_g = estimators._log_g_rows(l, got)
        assert np.all(np.abs(log_g - log_zeta) <= estimators._EL_FTOL)
        np.testing.assert_allclose(got, estimators._el_rows(l, log_zeta),
                                   rtol=1e-12)


class TestEstimatorGrid:
    def test_kappa_lower_hat(self, design):
        scen, _, _ = design
        S = scm(sample_dataset(scen, None, "h0", trial_rng(11, 0, 0)))
        s = scen.steering
        grid = _grid(np.linalg.eigvalsh(S))
        _assert_elementwise(
            lambda g: estimators.kappa_lower_hat(S, s, g, scen.K), grid)

    def test_d_factors(self, design):
        scen, R, grid = design
        d1, d2 = estimators.d_factors(R.eigenvalues, grid, scen.K)
        for j, g in enumerate(grid.tolist()):
            assert (d1[j], d2[j]) == estimators.d_factors(R.eigenvalues, g,
                                                          scen.K)
