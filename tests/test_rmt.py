import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlamf import rmt
from dlamf.errors import ConfigError
from dlamf.scenario import HermitianSpectrum

import oracles
from conftest import random_spd, random_steering, toeplitz_scenario

LAMBDA_GRID = (0.0, 1e-4, 0.05, 0.5, 1.5, 5.0, 20.0, 200.0, 1e4)


def _residual(delta, eig, lam, K):
    return delta * (1.0 + np.sum(eig / (delta * eig + lam)) / K) - 1.0


class TestDelta:
    def test_zero_loading_closed_form(self):
        rng = np.random.default_rng(0)
        for N, K in ((4, 8), (24, 48), (24, 28), (12, 13)):
            eig = np.exp(rng.uniform(-2, 4, N))
            assert rmt.solve_delta(eig, 0.0, K) == 1.0 - N / K

    def test_residual_over_random_scenarios(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            N = int(rng.integers(4, 40))
            K = N + int(rng.integers(1, 60))
            eig = np.exp(rng.uniform(-3, 5, N))
            for lam in LAMBDA_GRID[1:]:
                d = rmt.solve_delta(eig, lam, K)
                assert abs(_residual(d, eig, lam, K)) < 1e-12
                assert 0.0 < d <= 1.0

    def test_matches_dense_root(self, scen_n24_k48):
        spec = scen_n24_k48.covariance()
        for lam in (0.3, 1.5, 12.0, 300.0):
            d = rmt.solve_delta(spec.eigenvalues, lam, 48)
            d_ref = oracles.dense_delta(spec.matrix, lam, 48)
            assert d == pytest.approx(d_ref, abs=1e-11)

    def test_monotone_in_lambda(self, scen_n24_k48):
        # heavier loading damps the sample resolvent less: delta grows
        eig = scen_n24_k48.covariance().eigenvalues
        ds = [rmt.solve_delta(eig, lam, 48) for lam in LAMBDA_GRID]
        assert all(b >= a - 1e-13 for a, b in zip(ds, ds[1:]))
        assert ds[0] == 0.5

    def test_large_lambda_limit(self, scen_n24_k48):
        # lambda -> inf: the loaded matrix is dominated by lambda I, delta -> 1
        eig = scen_n24_k48.covariance().eigenvalues
        assert rmt.solve_delta(eig, 1e12, 48) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("lam", [1e-12, 1e12])
    def test_edge_loadings(self, lam):
        # K = N + 1 and a spectrum spread over 1e12: the root stays in
        # [1 - N/K, 1] and meets the residual bound
        N, K = 12, 13
        eig = np.logspace(-6.0, 6.0, N)
        d = rmt.solve_delta(eig, lam, K)
        assert 1.0 - N / K <= d <= 1.0
        assert abs(rmt.delta_residual(d, eig, lam, K)) <= 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    @pytest.mark.parametrize("lam", [1.5, np.array([0.0, 1.5, 10.0])],
                             ids=["scalar", "array"])
    def test_rejects_bad_eigenvalues(self, bad, lam):
        with pytest.raises(ConfigError, match="finite and positive"):
            rmt.solve_delta(np.array([1.0, bad, 2.0]), lam, 8)


class TestEquivalents:
    @pytest.mark.parametrize("lam", LAMBDA_GRID)
    def test_against_dense_oracle(self, scen_n24_k48, lam):
        spec = scen_n24_k48.covariance()
        s = scen_n24_k48.steering.entries
        p = rmt.deterministic_equivalents(spec, s, lam, 48)
        ref = oracles.dense_equivalents(spec.matrix, s, lam, 48)
        assert p.delta == pytest.approx(ref["delta"], rel=1e-10)
        assert p.psi == pytest.approx(ref["psi"], rel=1e-9)
        assert p.xi == pytest.approx(ref["xi"], rel=1e-9)
        assert p.gamma == pytest.approx(ref["gamma"], rel=1e-9)
        assert p.mu0 == pytest.approx(ref["mu0"], rel=1e-9)
        assert p.quad_inv == pytest.approx(ref["q"], rel=1e-10)

    def test_random_matrices_against_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            N = int(rng.integers(3, 20))
            K = N + int(rng.integers(1, 30))
            R = random_spd(N, rng)
            s = random_steering(N, rng)
            lam = float(np.exp(rng.uniform(-3, 4)))
            p = rmt.deterministic_equivalents(R, s, lam, K)
            ref = oracles.dense_equivalents(R, s, lam, K)
            for mine, theirs in ((p.psi, ref["psi"]), (p.xi, ref["xi"]),
                                 (p.gamma, ref["gamma"]), (p.mu0, ref["mu0"])):
                assert mine == pytest.approx(theirs, rel=1e-8)

    def test_zero_loading_closed_forms(self, scen_n24_k48):
        spec = scen_n24_k48.covariance()
        s = scen_n24_k48.steering
        q = spec.inv_quad(s.entries)
        p = rmt.deterministic_equivalents(spec, s, 0.0, 48)
        c = 0.5
        assert p.psi == pytest.approx(q / (1 - c), rel=1e-12)
        assert p.xi == pytest.approx(q / (1 - c) ** 2, rel=1e-12)
        assert p.gamma == pytest.approx(c, rel=1e-12)
        assert p.mu0 == pytest.approx(q / (1 - c) ** 3, rel=1e-12)
        assert p.beta_dl == p.psi

    def test_mu1_adds_fluctuating_part(self, scen_n24_k48):
        p = rmt.deterministic_equivalents(scen_n24_k48.covariance(),
                                          scen_n24_k48.steering, 1.5, 48)
        sigma_t2 = 2.5
        assert rmt.mu1(p, sigma_t2) == pytest.approx(
            sigma_t2 * p.psi ** 2 + p.mu0, rel=1e-13)
        assert rmt.mu1(p, 0.0) == p.mu0


class TestKappa:
    def test_zero_is_one_minus_c(self, scen_n24_k48):
        R = scen_n24_k48.covariance()
        s = scen_n24_k48.steering
        assert rmt.kappa(R, s, 0.0, 48) == 0.5

    def test_infinite_limit(self, scen_n12_k48_t5):
        R = scen_n12_k48_t5.covariance()
        s = scen_n12_k48_t5.steering
        lim = rmt.kappa_limit_inf(R, s)
        assert rmt.kappa(R, s, 1e9, 48) == pytest.approx(lim, abs=1e-4)
        q = R.inv_quad(s.entries)
        assert lim == pytest.approx(1.0 / (q * R.quad(s.entries)), rel=1e-12)

    def test_slope_at_zero(self, scen_n24_k48):
        R = scen_n24_k48.covariance()
        s = scen_n24_k48.steering
        formula = rmt.kappa_derivative_at_zero(R, 48)
        assert formula == pytest.approx(
            2.0 * R.inv_trace() / (48 * 0.5), rel=1e-12)
        h = 1e-6
        fd = (4.0 * rmt.kappa(R, s, h, 48) - 3.0 * rmt.kappa(R, s, 0.0, 48)
              - rmt.kappa(R, s, 2 * h, 48)) / (2 * h)
        assert fd == pytest.approx(formula, rel=1e-3)

    def test_kappa_lower_is_q_scaled(self, scen_n24_k48):
        R = scen_n24_k48.covariance()
        s = scen_n24_k48.steering
        q = R.inv_quad(s.entries)
        for lam in (0.0, 1.5, 30.0):
            assert rmt.kappa_lower(R, s, lam, 48) == pytest.approx(
                q * rmt.kappa(R, s, lam, 48), rel=1e-12)

    def test_bounded_by_one_minus_gamma(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            N = int(rng.integers(3, 24))
            K = N + int(rng.integers(1, 40))
            R = random_spd(N, rng)
            s = random_steering(N, rng)
            lam = float(np.exp(rng.uniform(-4, 5)))
            p = rmt.deterministic_equivalents(R, s, lam, K)
            k = rmt.kappa(R, s, lam, K)
            assert 0.0 < k <= 1.0 - p.gamma + 1e-12
            assert k < 1.0

    def test_accepts_spectrum_or_matrix(self, scen_n24_k48):
        spec = scen_n24_k48.covariance()
        s = scen_n24_k48.steering
        a = rmt.kappa(spec, s, 2.0, 48)
        b = rmt.kappa(spec.matrix, s.entries, 2.0, 48)
        assert a == pytest.approx(b, rel=1e-12)


@given(loglam=st.floats(-4.0, 5.0), seed=st.integers(0, 2 ** 16))
@settings(max_examples=40, deadline=None)
def test_delta_residual_property(loglam, seed):
    rng = np.random.default_rng(seed)
    N = int(rng.integers(2, 32))
    K = N + int(rng.integers(1, 48))
    eig = np.exp(rng.uniform(-3, 5, N))
    lam = 10.0 ** loglam
    d = rmt.solve_delta(eig, lam, K)
    assert abs(_residual(d, eig, lam, K)) < 1e-12
    assert 1.0 - N / K <= d <= 1.0 + 1e-15
