import math

import numpy as np
import pytest
from scipy import stats as sp_stats
from scipy.linalg.lapack import dstev, zpotrf, ztrtri

from dlamf import blas, detectors, estimators, optimizer, rmt
from dlamf.detectors import DetectorSpec
from dlamf.errors import ConfigError, NumericalError
from dlamf.scenario import (HermitianSpectrum, Swerling0, sample_dataset,
                            scm, trial_rng)

import oracles


def _draw(scen, seed, hypothesis="h0"):
    rng = trial_rng(seed, 0, 0)
    ds = sample_dataset(scen, Swerling0(), hypothesis, rng)
    return ds.y0, scm(ds)


class TestSpec:
    def test_fixed_lambda_required(self):
        for kind in detectors.FIXED_LAMBDA_TAGS:
            with pytest.raises(ConfigError):
                DetectorSpec(kind)
            DetectorSpec(kind, lam=1.5)

    def test_lambda_rejected_elsewhere(self):
        for kind in ("np", "scm-amf", "el-amf", "cfar-el-amf", "persym-amf",
                     "opt-cfar-dl-scmf", "opt-cfar-dl-amf"):
            DetectorSpec(kind)
            with pytest.raises(ConfigError):
                DetectorSpec(kind, lam=1.0)

    def test_negative_lambda(self):
        with pytest.raises(ConfigError):
            DetectorSpec("dl-amf", lam=-0.5)

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_non_finite_lambda(self, lam):
        # both pass a plain `lam < 0` check and make every statistic NaN
        with pytest.raises(ConfigError, match="finite"):
            DetectorSpec("dl-amf", lam=lam)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            DetectorSpec("mystery")

    def test_label(self):
        assert DetectorSpec("np").label == "np"
        assert DetectorSpec("dl-amf", lam=1.5).label == "dl-amf(lam=1.5)"

    def test_flags(self):
        assert not DetectorSpec("np").is_adaptive
        assert DetectorSpec("scm-amf").is_adaptive
        assert DetectorSpec("np").is_cfar
        assert DetectorSpec("cfar-dl-amf", lam=2.0).is_cfar
        assert not DetectorSpec("dl-amf", lam=2.0).is_cfar

    def test_make_opt_detector(self):
        assert detectors.make_opt_detector("oracle").kind == "opt-cfar-dl-scmf"
        assert detectors.make_opt_detector("adaptive").kind == "opt-cfar-dl-amf"
        with pytest.raises(ConfigError):
            detectors.make_opt_detector("both")


def _stat(kind, y0, scen, S, lam=None, R=None):
    return detectors.evaluate_statistic(DetectorSpec(kind, lam=lam), y0,
                                        scen.steering, scen.K, scm=S, R=R)


class TestLoadedForms:
    def test_against_dense_solve(self, scen_n24_k48):
        y0, S = _draw(scen_n24_k48, seed=5)
        s = scen_n24_k48.steering.entries
        lam = 2.5
        A = S + lam * np.eye(scen_n24_k48.N)
        alpha_ref = s.conj() @ np.linalg.solve(A, y0)
        beta_ref = (s.conj() @ np.linalg.solve(A, s)).real
        alpha, beta = oracles.loaded_forms(S, s, y0, lam)
        assert alpha == pytest.approx(alpha_ref, rel=1e-10)
        assert beta == pytest.approx(beta_ref, rel=1e-10)
        a2 = abs(alpha_ref) ** 2
        assert _stat("dl-raw", y0, scen_n24_k48, S, lam) == pytest.approx(
            a2, rel=1e-10)
        assert _stat("dl-amf", y0, scen_n24_k48, S, lam) == pytest.approx(
            a2 / beta_ref, rel=1e-10)

    def test_zero_loading_singular_guard(self, scen_n24_k48):
        # K < N secondaries make the SCM rank-deficient; unloaded forms
        # must refuse rather than divide by a zero eigenvalue
        rng = trial_rng(9, 0, 0)
        ds = sample_dataset(scen_n24_k48, Swerling0(), "h0", rng)
        S = scm(ds.Y[:, :10])
        for kind, lam in (("scm-amf", None), ("dl-scm-beta", 1.0),
                          ("persym-amf", None)):
            with pytest.raises(NumericalError):
                _stat(kind, ds.y0, scen_n24_k48, S, lam)
        with pytest.raises(NumericalError):
            oracles.loaded_forms(S, scen_n24_k48.steering.entries, ds.y0,
                                 0.0)
        # loading rescues the same data
        assert np.isfinite(_stat("dl-amf", ds.y0, scen_n24_k48, S, 1.0))

    def test_negative_lambda(self, scen_n24_k48):
        y0, S = _draw(scen_n24_k48, seed=5)
        s = scen_n24_k48.steering.entries
        for kind in detectors.FIXED_LAMBDA_TAGS:
            with pytest.raises(ConfigError):
                DetectorSpec(kind, lam=-1.0)
        with pytest.raises(ConfigError):
            estimators.estimated_equivalents(S, s, -1.0, scen_n24_k48.K)
        with pytest.raises(ConfigError):
            oracles.loaded_forms(S, s, y0, -1.0)


class TestStatistics:
    def test_np_unit_exponential(self, scen_n24_k48):
        R = scen_n24_k48.covariance()
        vals = []
        for t in range(4000):
            rng = trial_rng(17, 0, t)
            ds = sample_dataset(scen_n24_k48, Swerling0(), "h0", rng)
            vals.append(_stat("np", ds.y0, scen_n24_k48, None, R=R))
        d, _ = sp_stats.kstest(vals, "expon")
        assert d < 0.03

    def test_np_h1_mean_shift(self, scen_n24_k48):
        R = scen_n24_k48.covariance()
        s = scen_n24_k48.steering.entries
        q = R.inv_quad(s)
        target = Swerling0(amplitude=2.0)
        vals = []
        for t in range(2000):
            rng = trial_rng(21, 0, t)
            ds = sample_dataset(scen_n24_k48, target, "h1", rng)
            vals.append(_stat("np", ds.y0, scen_n24_k48, None, R=R))
        # mean of |CN(b sqrt(q), 1)|^2-style stat is 1 + |b|^2 q
        assert np.mean(vals) == pytest.approx(1.0 + 4.0 * q, rel=0.1)

    def test_amf_is_zero_loaded(self, scen_n24_k48):
        y0, S = _draw(scen_n24_k48, seed=31)
        assert _stat("scm-amf", y0, scen_n24_k48, S) == pytest.approx(
            _stat("dl-amf", y0, scen_n24_k48, S, 0.0), rel=1e-12)

    def test_dl_variants(self, scen_n24_k48):
        y0, S = _draw(scen_n24_k48, seed=37)
        s = scen_n24_k48.steering.entries
        lam = 1.5
        alpha, beta_l = oracles.loaded_forms(S, s, y0, lam)
        _, beta_0 = oracles.loaded_forms(S, s, y0, 0.0)
        a2 = abs(alpha) ** 2
        for kind, norm in (("dl-amf", beta_l), ("dl-scm-beta", beta_0),
                           ("dl-raw", 1.0)):
            assert _stat(kind, y0, scen_n24_k48, S, lam) == pytest.approx(
                a2 / norm, rel=1e-12)
            assert oracles.stat_dl_family(S, s, y0, lam, kind) == \
                pytest.approx(a2 / norm, rel=1e-12)

    def test_cfar_normalizers(self, scen_n24_k48):
        y0, S = _draw(scen_n24_k48, seed=41)
        s = scen_n24_k48.steering.entries
        R = scen_n24_k48.covariance()
        K = scen_n24_k48.K
        lam = 1.5
        alpha, _ = oracles.loaded_forms(S, s, y0, lam)
        a2 = abs(alpha) ** 2
        mu0 = rmt.deterministic_equivalents(R, s, lam, K).mu0
        assert _stat("cfar-dl-scmf", y0, scen_n24_k48, S, lam, R) == \
            pytest.approx(a2 / mu0, rel=1e-12)
        assert _stat("cfar-dl-amf", y0, scen_n24_k48, S, lam) == \
            pytest.approx(a2 / estimators.mu0_hat(S, s, lam, K), rel=1e-12)
        assert oracles.mu0_hat(S, s, lam, K) == pytest.approx(
            estimators.mu0_hat(S, s, lam, K), rel=1e-12)

    def test_el_uses_el_lambda(self, scen_n24_k48):
        y0, S = _draw(scen_n24_k48, seed=43)
        s = scen_n24_k48.steering.entries
        K = scen_n24_k48.K
        lam = estimators.el_lambda(S, K)
        assert lam == pytest.approx(oracles.el_lambda(S, K), rel=1e-9)
        assert _stat("cfar-el-amf", y0, scen_n24_k48, S) == pytest.approx(
            oracles.stat_cfar_dl_amf(S, s, y0, lam, K), rel=1e-10)
        assert _stat("el-amf", y0, scen_n24_k48, S) == pytest.approx(
            oracles.stat_dl_family(S, s, y0, lam, "dl-amf"), rel=1e-10)

    def test_opt_modes(self, scen_n24_k48):
        y0, S = _draw(scen_n24_k48, seed=47)
        s = scen_n24_k48.steering
        R = scen_n24_k48.covariance()
        K = scen_n24_k48.K
        lam_or = optimizer.lambda_opt(R, s, K).lambda_star
        assert _stat("opt-cfar-dl-scmf", y0, scen_n24_k48, S, R=R) == \
            pytest.approx(oracles.stat_cfar_dl_scmf(S, R, s, y0, lam_or, K),
                          rel=1e-10)
        lam_ad = optimizer.lambda_opt_hat(S, s, K).lambda_star
        assert _stat("opt-cfar-dl-amf", y0, scen_n24_k48, S) == \
            pytest.approx(oracles.stat_cfar_dl_amf(S, s, y0, lam_ad, K),
                          rel=1e-10)

    def test_all_kinds_finite_positive(self, scen_n24_k48):
        y0, S = _draw(scen_n24_k48, seed=53)
        s = scen_n24_k48.steering
        R = scen_n24_k48.covariance()
        K = scen_n24_k48.K
        for kind in detectors.ALL_TAGS:
            lam = 1.5 if kind in detectors.FIXED_LAMBDA_TAGS else None
            spec = DetectorSpec(kind, lam=lam)
            R_arg = R if kind in detectors.ORACLE_TAGS or kind == "np" \
                else None
            v = detectors.evaluate_statistic(
                spec, y0, s, K, scm=None if kind == "np" else S, R=R_arg)
            assert np.isfinite(v) and v > 0.0, kind


def _bordered_block(N, B, seed, lam=1.5):
    """A cfar-dl-amf Plan at K = 2N and a bordered block of B random SCMs
    whose diagonal carries the loading lam."""
    K = 2 * N
    rng = np.random.default_rng(seed)
    Y = rng.standard_normal((B, N, K)) + 1j * rng.standard_normal((B, N, K))
    y0 = rng.standard_normal((B, N)) + 1j * rng.standard_normal((B, N))
    s = np.exp(1j * np.pi * np.sin(0.3) * np.arange(N))
    plan = detectors.Plan([DetectorSpec(detectors.CFAR_DL_AMF, lam)], s, K)
    A = plan.bordered(y0)
    A[:, :N, :N] = Y @ Y.conj().transpose(0, 2, 1) / K
    A[:, range(N), range(N)] += lam
    return plan, A


def _factor_buffer(plan, B):
    # stale entries must not reach the forms
    F = plan.factor_buffer(B)
    F[...] = np.nan
    return F


class TestCholeskyForms:
    @pytest.mark.parametrize("lam", [0.0, 1.5])
    @pytest.mark.parametrize("N", [1, 8, 48])
    def test_matches_numpy_cholesky(self, N, lam):
        # the in-place zpotrf is the call np.linalg.cholesky makes
        B = 9
        plan, A = _bordered_block(N, B, seed=N, lam=lam)
        ref = oracles.cholesky_forms(A.copy(), lam, N, plan.K)
        got = detectors._cholesky_forms(A, lam, plan, True,
                                        _factor_buffer(plan, B))
        for g, r in zip(got, ref):
            np.testing.assert_array_equal(g, r)

    def test_not_positive_definite(self):
        plan, A = _bordered_block(8, 3, seed=1)
        A[1, 4, 4] = -1.0
        with pytest.raises(NumericalError, match="not positive definite"):
            detectors._cholesky_forms(A, 1.5, plan, True,
                                      plan.factor_buffer(3))


class TestOneBlasThread:
    """The per-matrix LAPACK loops run with SciPy's pool at one thread and
    give it back its count afterwards, also when they raise."""

    @pytest.fixture
    def scipy_threads(self):
        if "scipy" not in blas.pools():
            pytest.skip("SciPy's OpenBLAS thread-count symbols not found")
        get, set_threads = blas.pools()["scipy"]
        before = get()
        set_threads(2)
        yield get
        set_threads(before)

    @staticmethod
    def _spy(fn, get, seen, info=None):
        def call(*args, **kwargs):
            seen.append(get())
            out = fn(*args, **kwargs)
            return out if info is None else out[:-1] + (info,)
        return call

    def test_cholesky_loop(self, scipy_threads, monkeypatch):
        assert scipy_threads() == 2
        seen = []
        for name, fn in (("zpotrf", zpotrf), ("ztrtri", ztrtri)):
            monkeypatch.setattr(detectors, name,
                                self._spy(fn, scipy_threads, seen))
        plan, A = _bordered_block(8, 3, seed=2)
        detectors._cholesky_forms(A, 1.5, plan, True, plan.factor_buffer(3))
        assert seen == [1] * 6
        assert scipy_threads() == 2
        A[1, 4, 4] = -1.0
        with pytest.raises(NumericalError):
            detectors._cholesky_forms(A, 1.5, plan, True,
                                      plan.factor_buffer(3))
        assert seen[6:] == [1, 1]
        assert scipy_threads() == 2

    def test_spectral_loop(self, scipy_threads, monkeypatch):
        seen = []
        _, A = _bordered_block(8, 3, seed=3)
        S, y0, s = A[:, :8, :8], np.conj(A[:, 9, :8]), np.conj(A[0, 8, :8])
        monkeypatch.setattr(estimators, "dstev",
                            self._spy(dstev, scipy_threads, seen))
        estimators._spectral_rows(S, s, y0)
        assert seen == [1] * 3
        assert scipy_threads() == 2
        monkeypatch.setattr(estimators, "dstev",
                            self._spy(dstev, scipy_threads, seen, info=1))
        with pytest.raises(NumericalError):
            estimators._spectral_rows(S, s, y0)
        assert seen[3:] == [1]
        assert scipy_threads() == 2


class TestPersymmetry:
    # properties of the reference persymmetrization the engine is checked
    # against
    def test_projection_properties(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        A = A + A.conj().T
        P = oracles.persymmetrize(A)
        J = np.eye(8)[::-1]
        assert np.allclose(P, P.conj().T)
        assert np.allclose(J @ P.conj() @ J, P)
        assert np.allclose(oracles.persymmetrize(P), P)

    def test_true_covariance_is_fixed_point(self, scen_n24_k48):
        R = scen_n24_k48.covariance().matrix
        assert np.allclose(oracles.persymmetrize(R), R, atol=1e-12)

    def test_stat_matches_manual(self, scen_n24_k48):
        y0, S = _draw(scen_n24_k48, seed=59)
        P = HermitianSpectrum.from_matrix(oracles.persymmetrize(S))
        assert _stat("persym-amf", y0, scen_n24_k48, S) == pytest.approx(
            oracles.stat_amf(P, scen_n24_k48.steering, y0), rel=1e-12)


class TestAccessControl:
    def test_oracle_kinds_need_truth(self, scen_n24_k48):
        y0, S = _draw(scen_n24_k48, seed=61)
        s = scen_n24_k48.steering
        with pytest.raises(ConfigError):
            detectors.evaluate_statistic(DetectorSpec("cfar-dl-scmf", lam=1.5),
                                         y0, s, 48, scm=S)
        with pytest.raises(ConfigError):
            detectors.evaluate_statistic(DetectorSpec("opt-cfar-dl-scmf"),
                                         y0, s, 48, scm=S)

    def test_adaptive_kinds_reject_truth(self, scen_n24_k48):
        y0, S = _draw(scen_n24_k48, seed=61)
        s = scen_n24_k48.steering
        R = scen_n24_k48.covariance()
        for kind, lam in (("scm-amf", None), ("dl-amf", 1.5),
                          ("cfar-dl-amf", 1.5), ("cfar-el-amf", None),
                          ("opt-cfar-dl-amf", None)):
            with pytest.raises(ConfigError):
                detectors.evaluate_statistic(DetectorSpec(kind, lam=lam),
                                             y0, s, 48, scm=S, R=R)

    @pytest.mark.parametrize("cut", [
        (slice(None), slice(23)), (slice(23), slice(23)), 0],
        ids=["non-square", "wrong-n", "vector"])
    def test_scm_shape_checked(self, scen_n24_k48, cut):
        y0, S = _draw(scen_n24_k48, seed=61)
        bad = S[cut]
        with pytest.raises(ConfigError, match="sample covariance"):
            detectors.evaluate_statistic(DetectorSpec("scm-amf"), y0,
                                         scen_n24_k48.steering, 48, scm=bad)

    def test_scm_required(self, scen_n24_k48):
        y0, _ = _draw(scen_n24_k48, seed=61)
        s = scen_n24_k48.steering
        with pytest.raises(ConfigError):
            detectors.evaluate_statistic(DetectorSpec("scm-amf"), y0, s, 48)
