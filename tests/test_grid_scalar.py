"""A loading grid evaluated in one array call equals the scalar calls.

rmt and estimators take lam as a scalar or an array, and the scalar is the
one-element case of the same code; every element of an array call must
equal the scalar call at that loading bit for bit, on the fixed-point path,
on the bisection fallback and when the solve fails.
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
        # one fixed-point step leaves every loaded element above the
        # residual tolerance, so all of them finish by bisection
        scen, R, grid = design
        grid = grid[::8]
        rho = R.eigenvalues
        direct = rmt.solve_delta(rho, grid, scen.K)
        monkeypatch.setattr(rmt, "_FP_MAX_ITER", 1)
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


class TestEstimatorGrid:
    def test_kappa_lower_hat(self, design):
        scen, _, _ = design
        S = scm(sample_dataset(scen, None, "h0", trial_rng(11, 0, 0)))
        s = scen.steering
        grid = _grid(S.eigenvalues)
        _assert_elementwise(
            lambda g: estimators.kappa_lower_hat(S, s, g, scen.K), grid)

    def test_d_factors(self, design):
        scen, R, grid = design
        d1, d2 = estimators.d_factors(R.eigenvalues, grid, scen.K)
        for j, g in enumerate(grid.tolist()):
            assert (d1[j], d2[j]) == estimators.d_factors(R.eigenvalues, g,
                                                          scen.K)
