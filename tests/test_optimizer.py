import math

import numpy as np
import pytest

from dlamf import optimizer, rmt
from dlamf.detectors import DetectorSpec, evaluate_statistic
from dlamf.errors import ConfigError, NumericalError
from dlamf.harness import h0_statistics
from dlamf.optimizer import OptConfig
from dlamf.scenario import Swerling0, sample_dataset, scm, trial_rng

import oracles
from conftest import lowrank_scenario, toeplitz_scenario


class TestGoldenRefine:
    # the golden refinement of the row search: each row of a batch is
    # refined inside its own best grid bracket
    def test_analytic_parabola(self):
        peaks = np.array([2.7, 6.1])
        x, fx, evals, lo, hi, converged = optimizer.search_rows(
            lambda t: -(t - peaks[:, None]) ** 2, np.ones((2, 4)),
            OptConfig(lambda_max=10.0, tol=1e-10))
        np.testing.assert_allclose(x, peaks, atol=1e-8)
        np.testing.assert_allclose(fx, 0.0, atol=1e-15)
        assert np.all(converged) and np.all((lo < peaks) & (peaks < hi))
        assert np.all(evals - 201 < 80)

    def test_skewed_peak(self):
        def f(t):
            return np.exp(-np.abs(t - 0.3) * np.where(t > 0.3, 3.0, 0.5))

        x, _, _, _, _, _ = optimizer.search_rows(
            f, np.ones((1, 4)), OptConfig(lambda_max=5.0, tol=1e-9))
        assert x[0] == pytest.approx(0.3, abs=1e-7)

    def test_first_maximum_over_column_groups(self):
        # 64 rows take the grid in column groups of 64; on a plateau the
        # search keeps the first grid point that reaches it
        l = np.linspace(1.0, 3.0, 64)[:, None] * np.ones((64, 4))
        x, fx, _, _, _, _ = optimizer.search_rows(
            lambda t: np.minimum(t, 1.0), l)
        grid = optimizer._log_grid(OptConfig(), l)
        first = grid[np.arange(64), np.argmax(grid >= 1.0, axis=1)]
        np.testing.assert_array_equal(x, first)
        np.testing.assert_array_equal(fx, 1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("on_grid", [True, False])
    def test_non_finite_objective_raises(self, value, on_grid):
        # two rows take the grid in one call; a value at lam = 0 on the
        # grid, or every golden value, is non-finite
        calls = []

        def f(t):
            calls.append(t.shape)
            v = -(t - 0.5) ** 2
            if on_grid:
                return np.where(t == 0.0, value, v)
            return v if len(calls) == 1 else np.full_like(v, value)

        with pytest.raises(NumericalError):
            optimizer.search_rows(f, np.ones((2, 4)),
                                  OptConfig(lambda_max=1.0))
        assert (len(calls) == 1) == on_grid


class TestOptConfig:
    def test_resolved_max_default(self):
        l = np.array([1.0, 2.0, 3.0])
        assert OptConfig().resolved_max(l) == pytest.approx(200.0)

    def test_resolved_max_explicit(self):
        assert OptConfig(lambda_max=7.0).resolved_max(np.ones(3)) == 7.0
        with pytest.raises(ConfigError):
            OptConfig(lambda_max=-1.0).resolved_max(np.ones(3))

    def test_grid_validation(self):
        with pytest.raises(ConfigError):
            optimizer.maximize_over_lambda(lambda t: t, np.ones(3),
                                           OptConfig(grid_points=1))


class TestMaximize:
    def test_flat_objective(self):
        res = optimizer.maximize_over_lambda(lambda t: 1.0, np.ones(4))
        assert res.lambda_star == 0.0
        assert not res.converged

    def test_decreasing_objective(self):
        res = optimizer.maximize_over_lambda(lambda t: -t, np.ones(4))
        assert res.lambda_star == 0.0
        assert not res.converged

    def test_grid_in_one_call_then_scalars(self):
        # one row: the grid in one call, then the golden steps, one
        # loading each after the first pair
        calls = []

        def objective(t):
            calls.append(t)
            return -(t - 5.0) ** 2

        res = optimizer.maximize_over_lambda(objective, np.ones(4))
        grid = calls[0]
        assert isinstance(grid, np.ndarray) and grid.shape == (1, 201)
        assert grid[0, 0] == 0.0 and grid[0, -1] == pytest.approx(100.0)
        assert calls[1].shape == (1, 2)
        assert all(t.shape == (1, 1) for t in calls[2:])
        assert res.converged
        assert res.evaluations == sum(t.size for t in calls)

    def test_interior_peak(self):
        res = optimizer.maximize_over_lambda(
            lambda t: -(t - 5.0) ** 2, np.ones(4), OptConfig(tol=1e-8))
        assert res.converged
        assert res.lambda_star == pytest.approx(5.0, abs=1e-5)
        assert res.bracket[0] < 5.0 < res.bracket[1]
        assert res.evaluations > 200

    def test_golden_cap_is_not_converged(self):
        # a tolerance no bracket reaches in 200 golden steps: the search
        # stops at the cap (201 grid points, the first pair, 200 steps)
        # and says so
        res = optimizer.maximize_over_lambda(
            lambda t: -(t - 5.0) ** 2, np.ones(4), OptConfig(tol=1e-300))
        assert res.evaluations == 201 + 2 + 200
        assert not res.converged
        assert res.lambda_star == pytest.approx(5.0, abs=1e-5)


class TestLambdaOpt:
    # reference optima recomputed with a dense-inverse route during
    # development; the curve is flat near the top so lambda gets a loose
    # band while kappa is tight
    @pytest.mark.parametrize("scen_args,lam_ref,kap_ref", [
        ((12, 48, 0.95, 20.0), 4.2754, 0.9243),
        ((12, 48, 0.95, 5.0), 3.1218, 0.9110),
        ((12, 13, 0.95, 5.0), 6.4686, 0.8064),
    ])
    def test_toeplitz_optima(self, scen_args, lam_ref, kap_ref):
        N, K, rho, theta = scen_args
        scen = toeplitz_scenario(N, K, rho=rho, theta=theta)
        res = optimizer.lambda_opt(scen.covariance(), scen.steering, K)
        assert res.converged
        assert res.lambda_star == pytest.approx(lam_ref, abs=5e-3)
        assert res.objective_value == pytest.approx(kap_ref, abs=5e-4)

    def test_full_rank_scenarios(self):
        for K, lam_ref in ((48, 11.9211), (28, 18.1353)):
            scen = toeplitz_scenario(24, K)
            res = optimizer.lambda_opt(scen.covariance(), scen.steering, K)
            assert res.lambda_star == pytest.approx(lam_ref, abs=5e-3)

    def test_low_rank_scenarios(self):
        for K, lam_ref in ((48, 18.7483), (28, 31.5063)):
            scen = lowrank_scenario(24, K)
            res = optimizer.lambda_opt(scen.covariance(), scen.steering, K)
            assert res.lambda_star == pytest.approx(lam_ref, abs=5e-3)

    def test_objective_matches_kappa(self):
        scen = toeplitz_scenario(12, 48)
        R = scen.covariance()
        res = optimizer.lambda_opt(R, scen.steering, 48)
        assert res.objective_value == pytest.approx(
            rmt.kappa(R, scen.steering, res.lambda_star, 48), rel=1e-12)

    def test_white_clutter_rides_to_max(self):
        # identity covariance: the matched filter is already optimal, so
        # kappa climbs monotonically toward 1 and the search stops at the
        # grid ceiling
        from dlamf.scenario import HermitianSpectrum, make_steering
        R = HermitianSpectrum.from_matrix(np.eye(16) + 0j)
        res = optimizer.lambda_opt(R, make_steering(16, 0.0), 32)
        assert res.converged
        assert res.lambda_star == pytest.approx(100.0)  # 100 * mean eig
        assert res.objective_value == pytest.approx(1.0, abs=1e-3)


class TestLambdaOptHat:
    def test_tracks_oracle(self):
        scen = toeplitz_scenario(24, 48)
        rng = trial_rng(3, 0, 0)
        ds = sample_dataset(scen, Swerling0(), "h0", rng)
        res = optimizer.lambda_opt_hat(scm(ds), scen.steering, scen.K)
        oracle = optimizer.lambda_opt(scen.covariance(), scen.steering,
                                      scen.K)
        assert res.converged
        # one SCM draw lands in the oracle's flat neighborhood
        assert rmt.kappa(scen.covariance(), scen.steering, res.lambda_star,
                         scen.K) > 0.97 * oracle.objective_value

    def test_never_reads_truth(self):
        # signature level: only the SCM goes in
        scen = toeplitz_scenario(12, 48)
        rng = trial_rng(5, 0, 0)
        ds = sample_dataset(scen, Swerling0(), "h0", rng)
        res = optimizer.lambda_opt_hat(scm(ds), scen.steering, 48)
        assert res.lambda_star > 0.0


class TestNonFinite:
    # every power scaled by c: the objective is NaN on the whole grid at
    # 1e200, and on 98 of its 201 points at 1e-300, where a search over
    # the rest would report a wrong optimum (kappa 0.8019, not 0.9217) as
    # converged
    @pytest.mark.parametrize("c", [1e200, 1e-300])
    def test_searches_raise(self, c):
        scen = toeplitz_scenario(24, 48, clutter_power=10.0 * c, noise=c)
        s, K = scen.steering, scen.K
        with pytest.raises(NumericalError):
            optimizer.lambda_opt(scen.covariance(), s, K)
        ds = sample_dataset(scen, Swerling0(), "h0", trial_rng(0, 0, 0))
        spec = DetectorSpec("opt-cfar-dl-amf")
        for fn in (lambda: optimizer.lambda_opt_hat(scm(ds), s, K),
                   lambda: evaluate_statistic(spec, ds.y0, s, K, scm=scm(ds)),
                   lambda: h0_statistics(scen, [spec], 64, master_seed=0)):
            with pytest.raises(NumericalError):
                fn()


class TestKappaCrossing:
    def test_fig_style_crossing(self):
        # theta 5 deg scenario: kappa falls back through 1 - c; the
        # crossing was checked against a dense-inverse bisection
        scen = toeplitz_scenario(12, 48, theta=5.0)
        x = optimizer.kappa_crossing(scen.covariance(), scen.steering, 48)
        assert x == pytest.approx(30.1267, abs=5e-3)
        R = scen.covariance()
        assert rmt.kappa(R, scen.steering, x, 48) == pytest.approx(0.75,
                                                                   abs=1e-9)

    def test_no_crossing_returns_none(self):
        # theta 20 deg: kappa stays above 1 - c out to the matched limit
        scen = toeplitz_scenario(12, 48, theta=20.0)
        assert optimizer.kappa_crossing(scen.covariance(), scen.steering,
                                        48) is None

    def test_custom_level(self):
        scen = toeplitz_scenario(12, 48, theta=5.0)
        R = scen.covariance()
        x = optimizer.kappa_crossing(R, scen.steering, 48, level=0.8)
        assert rmt.kappa(R, scen.steering, x, 48) == pytest.approx(0.8,
                                                                   abs=1e-9)

    @pytest.mark.parametrize("level", [None, 0.8], ids=["one-minus-c", "0.8"])
    def test_matches_brentq(self, level):
        # design B: the root to brentq's xtol = rtol = 1e-12, against a
        # dense-inverse kappa solved between the peak and lambda_max
        scen = toeplitz_scenario(12, 48, theta=5.0)
        R, s = scen.covariance(), scen.steering
        x = optimizer.kappa_crossing(R, s, 48, level=level)
        ref = oracles.kappa_crossing(
            R.matrix, s.entries, 48, 0.75 if level is None else level,
            optimizer.lambda_opt(R, s, 48).lambda_star,
            100.0 * np.mean(R.eigenvalues))
        assert x == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_level_above_peak_returns_none(self):
        # kappa < 1 everywhere, so it never reaches 2
        scen = toeplitz_scenario(12, 48, theta=5.0)
        assert optimizer.kappa_crossing(scen.covariance(), scen.steering,
                                        48, level=2.0) is None

    @pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf])
    def test_non_finite_level(self, level):
        scen = toeplitz_scenario(12, 48, theta=5.0)
        with pytest.raises(ConfigError, match="level"):
            optimizer.kappa_crossing(scen.covariance(), scen.steering, 48,
                                     level=level)


class TestKappaCurve:
    def test_curve_contents(self):
        scen = toeplitz_scenario(12, 48)
        R = scen.covariance()
        grid = np.array([0.0, 1.0, 4.2754, 20.0])
        curve = optimizer.kappa_lambda_curve(R, scen.steering, 48,
                                             lambda_grid=grid)
        assert curve.x.shape == (4,)
        assert curve.y[0] == pytest.approx(0.75, rel=1e-12)
        assert curve.meta["one_minus_c"] == 0.75
        q = R.inv_quad(scen.steering.entries)
        np.testing.assert_allclose(curve.meta["kappa_lower"], q * curve.y,
                                   rtol=1e-10)

    def test_one_delta_solve(self, monkeypatch):
        # kappa and kappa_lower come from one solve of the whole grid, with
        # the bits of the two functions
        scen = toeplitz_scenario(24, 48)
        R, s = scen.covariance(), scen.steering
        grid = np.concatenate(([0.0], np.logspace(-3, 3, 200)))
        calls = []
        solve = rmt.solve_delta
        monkeypatch.setattr(rmt, "solve_delta",
                            lambda *a: calls.append(1) or solve(*a))
        curve = optimizer.kappa_lambda_curve(R, s, 48, lambda_grid=grid)
        assert len(calls) == 1
        np.testing.assert_array_equal(curve.y, rmt.kappa(R, s, grid, 48))
        np.testing.assert_array_equal(curve.meta["kappa_lower"],
                                      rmt.kappa_lower(R, s, grid, 48))

    def test_default_grid(self):
        scen = toeplitz_scenario(12, 48)
        curve = optimizer.kappa_lambda_curve(scen.covariance(), scen.steering,
                                             48)
        assert curve.x[0] == 0.0
        assert curve.x.shape[0] == 201
