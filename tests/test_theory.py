import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from dlamf import rmt, theory
from dlamf.errors import ConfigError

import oracles


class TestMarcum:
    def test_against_quadrature_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            a = float(rng.uniform(0.01, 12.0))
            b = float(rng.uniform(0.01, 14.0))
            ref = oracles.marcum_q_quadrature(a, b)
            assert theory.marcum_q(a, b) == pytest.approx(ref, abs=1e-9)

    def test_against_scipy_tail(self):
        # second independent route: scipy's noncentral chi-square survival
        rng = np.random.default_rng(3)
        for _ in range(200):
            a = float(rng.uniform(0.0, 20.0))
            b = float(rng.uniform(0.0, 25.0))
            ref = stats.ncx2.sf(b * b, 2, a * a) if a > 0 else math.exp(-b * b / 2)
            assert theory.marcum_q(a, b) == pytest.approx(ref, abs=5e-13)

    def test_small_tail_against_quadrature_oracle(self):
        # Q_1 near 4e-12, where one minus a CDF keeps only four digits
        ref = oracles.marcum_q_quadrature(1.0, 8.0)
        # abs=0: approx would otherwise accept anything within 1e-12
        assert theory.marcum_q(1.0, 8.0) == pytest.approx(ref, rel=1e-9,
                                                          abs=0)
        assert theory.marcum_q(0.0, 10.0) == pytest.approx(math.exp(-50.0),
                                                           rel=1e-12, abs=0)

    @pytest.mark.parametrize("pfa", [1e-6, 1e-9, 1e-12])
    def test_zero_scnr_gives_pfa(self, pfa):
        pd = theory.cfar_dl_pd(0.0, 1.0, -math.log(pfa), "swerling0")
        assert pd == pytest.approx(pfa, rel=1e-12, abs=0)

    def test_edge_cases(self):
        assert theory.marcum_q(3.0, 0.0) == 1.0
        assert theory.marcum_q(0.0, 2.0) == pytest.approx(math.exp(-2.0),
                                                          rel=1e-13)
        assert theory.marcum_q(0.0, 0.0) == 1.0

    def test_extreme_separation(self):
        assert theory.marcum_q(60.0, 1.0) == 1.0
        assert theory.marcum_q(1.0, 60.0) == 0.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            theory.marcum_q(-1.0, 2.0)
        with pytest.raises(ConfigError):
            theory.marcum_q(1.0, -2.0)

    @given(a=st.floats(0.0, 15.0), b=st.floats(0.01, 15.0),
           bump=st.floats(0.01, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_monotone(self, a, b, bump):
        q = theory.marcum_q(a, b)
        assert theory.marcum_q(a + bump, b) >= q - 1e-12
        assert theory.marcum_q(a, b + bump) <= q + 1e-12


class TestBessel:
    def test_i0_against_series_oracle(self):
        for x in (0.0, 0.3, 1.0, 4.7, 11.0, 30.0):
            assert theory.bessel_i0(x) == pytest.approx(
                oracles.bessel_i0_series(x), rel=1e-12)

    def test_i0e_scaling(self):
        for x in (0.1, 2.0, 50.0, 700.0):
            assert theory.bessel_i0e(x) == pytest.approx(
                theory.bessel_i0(x) * math.exp(-x) if x < 600
                else theory.bessel_i0e(x), rel=1e-10)


class TestNcx2:
    def test_cdf_is_marcum_complement(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            nu = float(rng.uniform(0.0, 30.0))
            s2 = float(rng.uniform(0.1, 4.0))
            x = float(rng.uniform(0.0, 40.0))
            lhs = theory.ncx2_cdf(x, nu, s2)
            rhs = 1.0 - theory.marcum_q(math.sqrt(nu) / math.sqrt(s2),
                                        math.sqrt(x) / math.sqrt(s2))
            assert lhs == pytest.approx(rhs, abs=1e-14)

    def test_against_quadrature_oracle(self):
        # stats.ncx2.cdf calls the chndtr that ncx2_cdf calls, so the
        # independent check is the mpmath quadrature
        rng = np.random.default_rng(6)
        for _ in range(12):
            nu = float(rng.uniform(0.0, 30.0))
            s2 = float(rng.uniform(0.1, 4.0))
            x = float(rng.uniform(0.01, 40.0))
            s = math.sqrt(s2)
            ref = 1.0 - oracles.marcum_q_quadrature(math.sqrt(nu) / s,
                                                    math.sqrt(x) / s)
            assert theory.ncx2_cdf(x, nu, s2) == pytest.approx(ref, abs=1e-9)

    def test_against_scipy(self):
        # |z|^2 with complex z: 2 sigma^2 * ncx2(df=2, nc=nu/sigma^2) / 2
        for nu, s2, x in ((4.0, 1.0, 6.0), (0.5, 0.25, 1.0), (9.0, 2.0, 14.0)):
            ref = stats.ncx2.cdf(x / s2, 2, nu / s2)
            assert theory.ncx2_cdf(x, nu, s2) == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("x", [1e-20, 1e-10, 1e-3])
    def test_small_x_relative(self, x):
        # central chi-square with two degrees of freedom: 1 - exp(-x/2)
        assert theory.ncx2_cdf(x, 0.0, 1.0) == pytest.approx(
            -math.expm1(-x / 2.0), rel=1e-12, abs=0)

    def test_pdf_integrates_to_cdf(self):
        from scipy.integrate import quad
        nu, s2 = 3.0, 0.8
        val, err = quad(lambda t: theory.ncx2_pdf(t, nu, s2), 0.0, 7.0,
                        limit=200)
        assert val == pytest.approx(theory.ncx2_cdf(7.0, nu, s2), abs=1e-8)

    def test_validation(self):
        with pytest.raises(ConfigError):
            theory.ncx2_cdf(1.0, -1.0, 1.0)
        with pytest.raises(ConfigError):
            theory.ncx2_cdf(1.0, 1.0, 0.0)


class TestRoc:
    def test_cfar_threshold(self):
        assert theory.cfar_threshold(1e-3) == pytest.approx(6.907755278982137)
        with pytest.raises(ConfigError):
            theory.cfar_threshold(0.0)

    def test_swerling1_closed_form(self):
        for scnr, kv, pfa in ((10.0, 0.9, 1e-3), (2.0, 0.5, 1e-2)):
            assert theory.roc_swerling1(scnr, kv, pfa) == pytest.approx(
                pfa ** (1.0 / (1.0 + scnr * kv)), rel=1e-13)

    def test_swerling0_reduces_to_marcum(self):
        scnr, kv, pfa = 8.0, 0.85, 1e-3
        expected = theory.marcum_q(math.sqrt(2 * scnr * kv),
                                   math.sqrt(-2 * math.log(pfa)))
        assert theory.roc_swerling0(scnr, kv, pfa) == pytest.approx(expected)

    def test_zero_scnr_gives_pfa(self):
        for model in ("swerling0", "swerling1"):
            pd = theory.cfar_dl_pd(0.0, 0.7, theory.cfar_threshold(1e-3),
                                   model)
            assert pd == pytest.approx(1e-3, rel=1e-9)

    @pytest.mark.parametrize("model", ["swerling0", "swerling1"])
    @pytest.mark.parametrize("scnr, kv, tau", [
        (math.nan, 0.9, 3.0), (2.0, math.nan, 3.0), (2.0, 0.9, math.nan),
        (2.0, -0.5, 3.0), (-1.0, 0.9, 3.0), (2.0, 0.9, -1.0),
        (math.inf, 0.9, 3.0), (2.0, 0.9, math.inf),
        (np.array([1.0, math.nan]), 0.9, 3.0)])
    def test_rejects_bad_inputs(self, model, scnr, kv, tau):
        with pytest.raises(ConfigError):
            theory.cfar_dl_pd(scnr, kv, tau, model)

    def test_roc_rejects_nan(self):
        for roc in (theory.roc_swerling0, theory.roc_swerling1):
            with pytest.raises(ConfigError):
                roc(math.nan, 0.9, 1e-3)

    def test_array_broadcast(self):
        scnr = np.array([0.5, 2.0, 8.0, 32.0])
        pd = theory.roc_swerling0(scnr, 0.9, 1e-3)
        assert pd.shape == scnr.shape
        assert np.all(np.diff(pd) > 0)

    def test_kappa_orders_detectors(self):
        # larger kappa beats smaller kappa at any scnr, both targets
        for scnr in (2.0, 10.0):
            assert theory.roc_swerling0(scnr, 0.9, 1e-3) > \
                theory.roc_swerling0(scnr, 0.5, 1e-3)
            assert theory.roc_swerling1(scnr, 0.9, 1e-3) > \
                theory.roc_swerling1(scnr, 0.5, 1e-3)

    def test_detection_loss_db(self):
        assert theory.detection_loss_db(1.0) == 0.0
        assert theory.detection_loss_db(0.5) == pytest.approx(3.0103, abs=1e-4)
        assert theory.detection_loss_db(0.9243) == pytest.approx(0.3419,
                                                                 abs=5e-4)

    @given(scnr=st.floats(0.01, 100.0), kv=st.floats(0.05, 0.999),
           bump=st.floats(0.01, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_pd_monotone_in_scnr(self, scnr, kv, bump):
        pfa = 1e-3
        assert theory.roc_swerling0(scnr + bump, kv, pfa) >= \
            theory.roc_swerling0(scnr, kv, pfa) - 1e-12
        assert theory.roc_swerling1(scnr + bump, kv, pfa) >= \
            theory.roc_swerling1(scnr, kv, pfa) - 1e-12


def test_import_leaves_scipy_stats_unloaded():
    # importing scipy.stats would add more than half to `import dlamf`
    code = ("import sys, dlamf; "
            "sys.exit('scipy.stats' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize would add about 17 MiB and 0.1-0.3 s to every process
    code = ("import sys, dlamf; "
            "sys.exit('scipy.optimize' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


class TestAsymptoticPfa:
    def _params(self, scen):
        return rmt.deterministic_equivalents(scen.covariance(),
                                             scen.steering, 1.5, scen.K)

    def test_families(self, scen_n24_k48):
        p = self._params(scen_n24_k48)
        tau = 5.0
        q = p.quad_inv
        assert theory.asymptotic_pfa("dl-amf", p, tau) == pytest.approx(
            math.exp(-tau * p.psi / p.mu0), rel=1e-12)
        assert theory.asymptotic_pfa("dl-scm-beta", p, tau, c=0.5) == \
            pytest.approx(math.exp(-tau * (q / 0.5) / p.mu0), rel=1e-12)
        assert theory.asymptotic_pfa("dl-raw", p, tau) == pytest.approx(
            math.exp(-tau / p.mu0), rel=1e-12)
        assert theory.asymptotic_pfa("cfar", p, tau) == pytest.approx(
            math.exp(-tau), rel=1e-12)

    def test_underscores_accepted(self, scen_n24_k48):
        p = self._params(scen_n24_k48)
        assert theory.asymptotic_pfa("dl_amf", p, 3.0) == \
            theory.asymptotic_pfa("dl-amf", p, 3.0)

    def test_beta_variant_needs_c(self, scen_n24_k48):
        with pytest.raises(ConfigError):
            theory.asymptotic_pfa("dl-scm-beta", self._params(scen_n24_k48),
                                  3.0)

    def test_unknown_family(self, scen_n24_k48):
        with pytest.raises(ConfigError):
            theory.asymptotic_pfa("nope", self._params(scen_n24_k48), 3.0)
