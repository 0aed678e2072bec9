import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlamf import estimators, rmt
from dlamf.errors import ConfigError
from dlamf.scenario import HermitianSpectrum

import oracles
from conftest import random_spd, random_steering


def _sample_scm(scen, seed, trials=1):
    rng = np.random.default_rng(seed)
    root = oracles.sqrtm_psd(scen.covariance().matrix)
    Z = (rng.standard_normal((scen.N, scen.K))
         + 1j * rng.standard_normal((scen.N, scen.K))) / math.sqrt(2)
    X = root @ Z
    return X @ X.conj().T / scen.K


class TestPlugIn:
    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.5, 5.0, 20.0])
    def test_against_dense_oracle(self, scen_n24_k48, lam):
        scm = _sample_scm(scen_n24_k48, seed=11)
        s = scen_n24_k48.steering.entries
        ref = oracles.dense_estimated(scm, s, lam, scen_n24_k48.K)
        got = estimators.estimated_equivalents(scm, s, lam, scen_n24_k48.K)
        assert got.psi_hat == pytest.approx(ref["psi_hat"], rel=1e-10)
        assert got.mu0_hat == pytest.approx(ref["mu0_hat"], rel=1e-10)
        assert got.gamma_hat == pytest.approx(ref["gamma_hat"], rel=1e-10)
        assert got.xi_hat == pytest.approx(ref["xi_hat"], rel=1e-10)
        assert got.kappa_lower_hat == pytest.approx(ref["kappa_lower_hat"],
                                                    rel=1e-10)
        assert got.d1 == pytest.approx(ref["d1"], rel=1e-12)
        assert got.d2 == pytest.approx(ref["d2"], rel=1e-12)

    def test_internal_identities(self, scen_n24_k48):
        scm = _sample_scm(scen_n24_k48, seed=7)
        s = scen_n24_k48.steering.entries
        e = estimators.estimated_equivalents(scm, s, 3.0, scen_n24_k48.K)
        assert e.mu0_hat == pytest.approx(e.xi_hat / (1.0 - e.gamma_hat),
                                          rel=1e-12)
        assert e.kappa_lower_hat == pytest.approx(
            (1.0 - e.gamma_hat) * e.psi_hat ** 2 / e.xi_hat, rel=1e-12)

    def test_zero_loading_closed_form(self, scen_n24_k48):
        # at lam = 0 both trace corrections collapse to 1 - c and the
        # objective becomes (1-c)^2 psi_hat
        scm = _sample_scm(scen_n24_k48, seed=19)
        s = scen_n24_k48.steering.entries
        K = scen_n24_k48.K
        c = scen_n24_k48.N / K
        e = estimators.estimated_equivalents(scm, s, 0.0, K)
        assert e.d1 == pytest.approx(1.0 - c, rel=1e-13)
        assert e.d2 == pytest.approx(1.0 - c, rel=1e-13)
        assert e.kappa_lower_hat == pytest.approx((1.0 - c) ** 2 * e.psi_hat,
                                                  rel=1e-12)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(23)
        N, K = 16, 40
        A = random_spd(N, rng)
        s = random_steering(N, rng)
        U = np.linalg.qr(rng.standard_normal((N, N))
                         + 1j * rng.standard_normal((N, N)))[0]
        base = estimators.estimated_equivalents(A, s, 2.0, K)
        rot = estimators.estimated_equivalents(U @ A @ U.conj().T, U @ s,
                                               2.0, K)
        assert rot.mu0_hat == pytest.approx(base.mu0_hat, rel=1e-10)
        assert rot.kappa_lower_hat == pytest.approx(base.kappa_lower_hat,
                                                    rel=1e-10)

    def test_scalar_helpers_agree(self, scen_n12_k48_t20):
        scm = _sample_scm(scen_n12_k48_t20, seed=3)
        s = scen_n12_k48_t20.steering
        K = scen_n12_k48_t20.K
        e = estimators.estimated_equivalents(scm, s, 1.5, K)
        assert estimators.psi_hat(scm, s, 1.5, K) == e.psi_hat
        assert estimators.mu0_hat(scm, s, 1.5, K) == e.mu0_hat
        assert estimators.gamma_hat(scm, s, 1.5, K) == e.gamma_hat
        assert estimators.kappa_lower_hat(scm, s, 1.5, K) == e.kappa_lower_hat
        assert estimators.xi_psi_hat(scm, s, 1.5, K) == (e.xi_hat, e.psi_hat)

    def test_validation(self, scen_n24_k48):
        scm = _sample_scm(scen_n24_k48, seed=1)
        s = scen_n24_k48.steering.entries
        with pytest.raises(ConfigError):
            estimators.estimated_equivalents(scm, s, -1.0, 48)
        with pytest.raises(ConfigError):
            estimators.estimated_equivalents(scm, s, 1.0, 12)

    def test_consistency_smoke(self):
        # plug-in values from one large draw should sit near the population
        # equivalents; generous band, the sharp rate check is the
        # acceptance suite's job
        from conftest import toeplitz_scenario
        scen = toeplitz_scenario(64, 128)
        truth = rmt.deterministic_equivalents(scen.covariance(),
                                              scen.steering, 2.0, scen.K)
        vals = []
        for seed in range(8):
            scm = _sample_scm(scen, seed=100 + seed)
            e = estimators.estimated_equivalents(scm, scen.steering.entries,
                                                 2.0, scen.K)
            vals.append(e.mu0_hat)
        assert np.median(vals) == pytest.approx(truth.mu0, rel=0.1)


class TestExpectedLikelihood:
    def test_log_g_zero(self):
        rng = np.random.default_rng(4)
        l = rng.uniform(0.2, 9.0, 24)
        assert estimators.el_log_g(l, 0.0) == 0.0

    def test_log_g_strictly_decreasing(self):
        rng = np.random.default_rng(8)
        l = rng.uniform(0.2, 9.0, 24)
        grid = np.linspace(0.0, 40.0, 60)
        vals = [estimators.el_log_g(l, lam) for lam in grid]
        assert np.all(np.diff(vals) < 0)

    def test_log_g_validation(self):
        with pytest.raises(ConfigError):
            estimators.el_log_g(np.ones(4), -0.5)

    def test_median_formula(self):
        got = estimators.log_zeta_median(24, 48)
        assert got == pytest.approx(-24.0 - 24.0 * math.log(0.5), rel=1e-14)
        with pytest.raises(ConfigError):
            estimators.log_zeta_median(24, 24)

    def test_statistic_zero_at_reference(self, scen_n24_k48):
        R = scen_n24_k48.covariance()
        assert estimators.log_el_statistic(R.matrix, R) == pytest.approx(
            0.0, abs=1e-10)

    def test_statistic_penalizes_loading(self, scen_n24_k48):
        # loading a perfect estimate moves the statistic below zero, and
        # further loading moves it further down
        R = scen_n24_k48.covariance()
        I = np.eye(scen_n24_k48.N)
        v1 = estimators.log_el_statistic(R.matrix + 1.0 * I, R)
        v2 = estimators.log_el_statistic(R.matrix + 5.0 * I, R)
        assert v1 < 0.0
        assert v2 < v1

    def test_el_lambda_hits_median(self, scen_n24_k48):
        scm = _sample_scm(scen_n24_k48, seed=2)
        K = scen_n24_k48.K
        lam = estimators.el_lambda(scm, K)
        assert lam > 0.0
        spec = HermitianSpectrum.from_matrix(scm)
        target = estimators.log_zeta_median(scen_n24_k48.N, K)
        assert estimators.el_log_g(spec.eigenvalues, lam) == pytest.approx(
            target, abs=1e-9)

    def test_el_root_vacuous(self):
        # a median at or above g(0) = 1 leaves no positive root: every row
        # of the bisection gets lam = 0, with a warning
        with pytest.warns(RuntimeWarning, match="EL median"):
            lam = estimators._el_rows(np.ones((3, 8)), 0.1)
        np.testing.assert_array_equal(lam, np.zeros(3))


class TestTheta:
    def test_inverts_loading_exactly(self):
        rng = np.random.default_rng(31)
        l = rng.uniform(0.3, 10.0, 24)
        K = 48
        for lam in (0.5, 2.5, 12.0):
            d1, _ = estimators.d_factors(l, lam, K)
            assert estimators.solve_theta(l, d1 / lam, K) == pytest.approx(
                1.0 / lam, rel=1e-12)

    def test_residual_small(self):
        rng = np.random.default_rng(37)
        l = rng.uniform(0.3, 10.0, 16)
        N, K = 16, 40
        c = N / K
        for x in (0.2, 1.0, 7.0):
            th = estimators.solve_theta(l, x, K)
            res = th * (1.0 - c + c * np.mean(1.0 / (1.0 + th * l))) - x
            assert abs(res) < 1e-10 * max(1.0, x)

    def test_monotone_in_x(self):
        rng = np.random.default_rng(41)
        l = rng.uniform(0.3, 10.0, 16)
        xs = np.linspace(0.05, 9.0, 25)
        ths = [estimators.solve_theta(l, x, 40) for x in xs]
        assert np.all(np.diff(ths) > 0)

    def test_validation(self):
        l = np.ones(8)
        with pytest.raises(ConfigError):
            estimators.solve_theta(l, 0.0, 16)
        with pytest.raises(ConfigError):
            estimators.solve_theta(l, 1.0, 8)

    @given(x=st.floats(0.01, 20.0), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=40, deadline=None)
    def test_root_bounded(self, x, seed):
        rng = np.random.default_rng(seed)
        l = rng.uniform(0.1, 12.0, 12)
        K = 30
        th = estimators.solve_theta(l, x, K)
        assert 0.0 < th <= x / (1.0 - 12 / K) + 1.0


class TestDFactors:
    def test_limits(self):
        rng = np.random.default_rng(2)
        l = rng.uniform(0.5, 5.0, 24)
        K = 48
        d1_0, d2_0 = estimators.d_factors(l, 0.0, K)
        assert d1_0 == pytest.approx(0.5) and d2_0 == pytest.approx(0.5)
        d1_inf, d2_inf = estimators.d_factors(l, 1e12, K)
        assert d1_inf == pytest.approx(1.0, abs=1e-10)
        assert d2_inf == pytest.approx(1.0, abs=1e-10)

    def test_ordering(self):
        # D2 <= D1 <= 1 for lam in (0, inf): Cauchy-Schwarz on the traces
        rng = np.random.default_rng(6)
        l = rng.uniform(0.5, 5.0, 24)
        for lam in (0.3, 1.0, 4.0, 30.0):
            d1, d2 = estimators.d_factors(l, lam, 48)
            assert d2 <= d1 <= 1.0
