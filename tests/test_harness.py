import json
import math
import multiprocessing
import os
import tracemalloc
import typing
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlamf import (blas, cli, detectors, estimators, harness, optimizer,
                   rmt, theory)
from dlamf.detectors import DetectorSpec
from dlamf.errors import ConfigError, NumericalError
from dlamf.estimators import _loaded_rows, _spectral_rows
from dlamf.optimizer import lambda_opt
from dlamf.harness import (TrialConfig, _BatchPlan, _eval_chunk, _generate,
                           _Workspace, calibrate_threshold,
                           detection_loss_table, empirical_pdf, estimate_pd,
                           h0_statistics, pd_evaluator, pd_vs_scnr_sweep,
                           scnr_at_pd, threshold_from_stats, wilson_ci)
from dlamf.scenario import (EIG_FLOOR_REL, LowRankClutter, Scenario,
                            Swerling0, Swerling1, ToeplitzClutter,
                            sample_dataset, scm, trial_rng)

import oracles
from conftest import toeplitz_scenario


def _all_specs(lam=1.5):
    out = []
    for kind in detectors.ALL_TAGS:
        out.append(DetectorSpec(
            kind, lam=lam if kind in detectors.FIXED_LAMBDA_TAGS else None))
    return out


def _draw(plan, master_seed, stream, lo, hi):
    """_generate's (y0, Y, amp) for trials [lo, hi) in a workspace of
    their own."""
    return _generate(plan, master_seed, stream, lo, hi,
                     _Workspace(plan, hi - lo))


class TestSmallHelpers:
    def test_db_round_trip(self):
        x = np.array([0.1, 1.0, 25.0])
        np.testing.assert_allclose(
            harness.db_to_linear(harness.linear_to_db(x)), x, rtol=1e-13)

    def test_wilson_ci(self):
        lo, hi = wilson_ci(50, 100)
        assert lo < 0.5 < hi
        assert 0.40 < lo < 0.45 and 0.55 < hi < 0.60
        assert wilson_ci(0, 10)[0] == 0.0
        assert wilson_ci(10, 10)[1] == 1.0
        with pytest.raises(ConfigError):
            wilson_ci(5, 0)
        with pytest.raises(ConfigError):
            wilson_ci(11, 10)

    def test_ks_distance(self):
        u = (np.arange(1000) + 0.5) / 1000
        assert harness.ks_distance(u, lambda x: x) < 1e-3
        assert harness.ks_distance(u + 0.2, lambda x: x) > 0.19
        with pytest.raises(ConfigError):
            harness.ks_distance([], lambda x: x)


class TestTrialConfig:
    def test_validation(self, scen_n24_k48):
        spec = DetectorSpec("np")
        with pytest.raises(ConfigError):
            TrialConfig(scen_n24_k48, spec, trials=0)
        with pytest.raises(ConfigError):
            TrialConfig(scen_n24_k48, spec, trials=10, pfa_pre=1.5)
        with pytest.raises(ConfigError):
            TrialConfig(scen_n24_k48, [], trials=10).spec_list()

    @pytest.mark.parametrize("trials,workers", [(0, 4), (8, 0)])
    def test_h0_statistics_validates(self, scen_n24_k48, trials, workers):
        # TrialConfig's and Engine's checks, before any trial is drawn
        with pytest.raises(ConfigError):
            h0_statistics(scen_n24_k48, [DetectorSpec("np")], trials,
                          master_seed=0, workers=workers)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_seed_must_be_whole_and_non_negative(self, scen_n24_k48, seed):
        # -1 reached NumPy's ValueError, 1.5 was truncated to seed 1
        with pytest.raises(ConfigError, match="seed"):
            TrialConfig(scen_n24_k48, DetectorSpec("np"), trials=8,
                        master_seed=seed)
        with pytest.raises(ConfigError, match="seed"):
            h0_statistics(scen_n24_k48, [DetectorSpec("np")], 8,
                          master_seed=seed)

    def test_type_hints_resolve(self):
        assert typing.get_type_hints(TrialConfig) == {
            "scenario": object, "detector": object, "trials": int,
            "master_seed": int, "pfa_pre": float}

    def test_spec_list_forms(self, scen_n24_k48):
        one = DetectorSpec("np")
        assert TrialConfig(scen_n24_k48, one, trials=5).spec_list() == [one]
        two = [one, DetectorSpec("scm-amf")]
        assert TrialConfig(scen_n24_k48, two, trials=5).spec_list() == two

    def test_duplicate_labels_rejected(self, scen_n24_k48):
        specs = [DetectorSpec("dl-amf", lam=1.5),
                 DetectorSpec("dl-amf", lam=1.5)]
        with pytest.raises(ConfigError):
            h0_statistics(scen_n24_k48, specs, 8, master_seed=0)


class TestGeneratorLayout:
    def test_matches_scalar_draws_exactly(self, scen_n24_k48):
        # the batched sampler must reproduce the documented per-trial
        # construction bit for bit, or chunking would change results
        plan = _BatchPlan(scen_n24_k48, [DetectorSpec("np")])
        y0b, Yb, _ = _draw(plan, master_seed=7, stream=3, lo=0, hi=5)
        for t in range(5):
            ds = sample_dataset(scen_n24_k48, Swerling0(), "h0",
                                trial_rng(7, 3, t))
            np.testing.assert_array_equal(y0b[t], ds.y0)
            np.testing.assert_array_equal(Yb[t], ds.Y)

    def test_amplitudes_match_swerling1(self, scen_n24_k48):
        plan = _BatchPlan(scen_n24_k48, [DetectorSpec("np")])
        _, _, amp = _draw(plan, master_seed=7, stream=3, lo=0, hi=5)
        for t in range(5):
            rng = trial_rng(7, 3, t)
            sample_dataset(scen_n24_k48, Swerling0(), "h0", rng)
            b = Swerling1(power=1.0).draw_amplitude(rng)
            assert amp[t] == pytest.approx(b, rel=1e-15, abs=0)

    def test_block_edge_through_eval_chunk(self, scen_n24_k48):
        # a chunk of trials [0, edge + 6) is drawn in two blocks, and trials
        # [edge - 6, edge + 6) straddle the edge (105 to 117 for the plan's
        # blocks of 111). np's statistic depends on y0 alone.
        plan = _BatchPlan(scen_n24_k48, [DetectorSpec("np")])
        edge = plan.block
        trials = range(edge - 6, edge + 6)
        coeffs, amp = _eval_chunk(plan, 7, 3, 0, edge + 6)
        y0 = np.empty((12, 24), dtype=complex)
        for i, t in enumerate(trials):
            rng = trial_rng(7, 3, t)
            y0[i] = sample_dataset(scen_n24_k48, Swerling0(), "h0", rng).y0
            b = Swerling1(power=1.0).draw_amplitude(rng)
            assert amp[t] == pytest.approx(b, rel=1e-15, abs=0)
        np.testing.assert_array_equal(coeffs["np"][0][trials],
                                      y0 @ plan.t_conj)
        stats = detectors.statistic(coeffs["np"], 0.0)
        np.testing.assert_array_equal(
            stats[trials], np.abs(y0 @ plan.t_conj) ** 2 / plan.q)

    def test_trials_are_disjoint(self, scen_n24_k48):
        plan = _BatchPlan(scen_n24_k48, [DetectorSpec("np")])
        y0a, _, _ = _draw(plan, 7, 0, 0, 3)
        y0c, _, _ = _draw(plan, 7, 0, 2, 5)
        np.testing.assert_array_equal(y0a[2], y0c[0])
        assert not np.allclose(y0a[0], y0a[1])


def _fixed_specs():
    """Fixed-loading kinds only: the set takes the Cholesky route."""
    return ([DetectorSpec(k) for k in ("np", "scm-amf", "persym-amf",
                                       "opt-cfar-dl-scmf")]
            + [DetectorSpec(k, lam=lam) for lam in (1.5, 10.0)
               for k in ("dl-amf", "dl-scm-beta", "dl-raw", "cfar-dl-scmf",
                         "cfar-dl-amf")])


def _singular_scenario():
    # rank-3 clutter over noise 1e-14: the SCM's eigenvalue spread is ~1e15
    return Scenario(N=24, K=48,
                    clutter=LowRankClutter((0.0, 10.0, 40.0), (1.0, 1.0, 1.0)),
                    noise_power=1e-14, steering_deg=20.0)


class TestBatchScalarAgreement:
    def test_all_kinds(self, scen_n24_k48):
        self._agree(scen_n24_k48, _all_specs(), spectral=True)

    def test_fixed_kinds(self, scen_n24_k48):
        self._agree(scen_n24_k48, _fixed_specs(), spectral=False)

    def test_cholesky_route_n48(self):
        # the triangular-inverse mu0_hat and the in-place persymmetrization
        # at the size the pd-sweep benchmark runs
        specs = [DetectorSpec("scm-amf"), DetectorSpec("persym-amf"),
                 DetectorSpec("cfar-dl-amf", lam=1.5),
                 DetectorSpec("dl-scm-beta", lam=1.5)]
        self._agree(toeplitz_scenario(48, 64), specs, spectral=False, B=24)

    @pytest.mark.parametrize("scen", [
        toeplitz_scenario(24, 48), toeplitz_scenario(1, 4),
        toeplitz_scenario(8, 9), _singular_scenario()],
        ids=["criterion4", "n1", "k-n-plus-1", "singular"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_scalar_is_engine_on_one_trial(self, scen):
        # evaluate_statistic is the engine's reduction on a block of one:
        # every kind alone, on the route its set takes, gives the engine's
        # statistic bit for bit, or both paths raise the same error class
        R = scen.covariance()
        draws = [sample_dataset(scen, Swerling0(), "h0", trial_rng(11, 0, t))
                 for t in range(8)]
        for sp in _all_specs():
            batch = _outcome(lambda: h0_statistics(scen, [sp], len(draws),
                                                   master_seed=11))
            one = [_outcome(lambda: detectors.evaluate_statistic(
                sp, ds.y0, scen.steering, scen.K,
                scm=None if sp.kind == "np" else scm(ds),
                R=R if sp.kind in detectors.ORACLE_TAGS else None))
                for ds in draws]
            if isinstance(batch, type):
                assert batch in one, (sp.label, batch, one)
            else:
                np.testing.assert_array_equal(batch[sp.label], one,
                                              err_msg=sp.label)

    @staticmethod
    def _agree(scen, specs, spectral, B=40):
        plan = _BatchPlan(scen, specs)
        assert plan.spectral == spectral
        coeffs, _ = _eval_chunk(plan, master_seed=11, stream=0, lo=0, hi=B)
        batch = {lbl: detectors.statistic(c, 0.0)
                 for lbl, c in coeffs.items()}
        R = scen.covariance()
        s = scen.steering
        K = scen.K
        for t in range(B):
            ds = sample_dataset(scen, Swerling0(), "h0",
                                trial_rng(11, 0, t))
            S = scm(ds)
            for sp in specs:
                R_arg = R if sp.kind in detectors.ORACLE_TAGS else None
                S_arg = None if sp.kind == "np" else S
                ref = oracles.statistic(sp, ds.y0, s, K, scm=S_arg, R=R_arg)
                one = detectors.evaluate_statistic(sp, ds.y0, s, K,
                                                   scm=S_arg, R=R_arg)
                rtol = 1e-6 if "opt" in sp.kind else 1e-7
                assert batch[sp.label][t] == pytest.approx(ref, rel=rtol), \
                    (sp.label, t)
                assert one == pytest.approx(ref, rel=rtol), (sp.label, t)

    @pytest.mark.parametrize("view", ["h0", "coeff"])
    def test_routes_agree(self, scen_n24_k48, view):
        # adding el-amf moves every fixed kind from Cholesky solves to the
        # spectrum; only the last bits of the coefficients (view "coeff") and
        # of the h0 statistics formed from them (view "h0") may change, and
        # the amplitudes not at all
        specs = _fixed_specs()
        chol, amp = _eval_chunk(_BatchPlan(scen_n24_k48, specs), 11, 0, 0,
                                64)
        spec, amp_spec = _eval_chunk(
            _BatchPlan(scen_n24_k48, specs + [DetectorSpec("el-amf")]),
            11, 0, 0, 64)
        np.testing.assert_array_equal(amp, amp_spec)
        for sp in specs:
            a, b = chol[sp.label], spec[sp.label]
            if view == "h0":
                pairs = [("h0", detectors.statistic(a, 0.0),
                          detectors.statistic(b, 0.0))]
            else:
                pairs = zip(("alpha", "beta", "norm"), a, b)
            for name, x, y in pairs:
                np.testing.assert_allclose(x, y, rtol=1e-10, atol=0,
                                           err_msg=f"{sp.label} {name}")

    def test_set_composition_invariant(self, scen_n24_k48):
        # no kind may see its neighbours. persym-amf overwrites S once the
        # route is done with it: on the Cholesky route after S's diagonal
        # is restored, on the spectral route (el-amf's) after a reduction
        # that must leave S intact; alone, persym-amf takes the Cholesky
        # route
        spectral = [DetectorSpec("persym-amf"), DetectorSpec("el-amf"),
                    DetectorSpec("dl-amf", lam=1.5),
                    DetectorSpec("cfar-dl-amf", lam=1.5)]
        for specs, compared in ((_fixed_specs(), _fixed_specs()),
                                (spectral, spectral[:1])):
            together, _ = _eval_chunk(_BatchPlan(scen_n24_k48, specs), 11, 0,
                                      0, 64)
            for sp in compared:
                alone, _ = _eval_chunk(_BatchPlan(scen_n24_k48, [sp]), 11,
                                       0, 0, 64)
                for a, b in zip(together[sp.label], alone[sp.label]):
                    np.testing.assert_array_equal(a, b, err_msg=sp.label)


# the true covariance is clamped, with a warning
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestSingularScm:
    # the last kind of each set is one the scalar path rejects
    @pytest.mark.parametrize("tags", [
        ("scm-amf",), ("persym-amf",), ("np", "dl-scm-beta"),
        ("el-amf", "scm-amf"), ("el-amf", "persym-amf"),
        ("opt-cfar-dl-amf",)])
    def test_batch_fails_like_scalar(self, tags):
        scen = _singular_scenario()
        specs = [DetectorSpec(k, lam=1.0 if k == "dl-scm-beta" else None)
                 for k in tags]
        with pytest.raises(NumericalError):
            h0_statistics(scen, specs, 16, master_seed=0)
        ds = sample_dataset(scen, Swerling0(), "h0", trial_rng(0, 0, 0))
        for path in (detectors.evaluate_statistic, oracles.statistic):
            with pytest.raises(NumericalError):
                path(specs[-1], ds.y0, scen.steering, scen.K, scm=scm(ds))

    def test_el_kinds_match_scalar(self):
        # the batch EL search clamps the spectrum as the scalar path does
        scen = _singular_scenario()
        specs = [DetectorSpec("el-amf"), DetectorSpec("cfar-el-amf")]
        batch = h0_statistics(scen, specs, 8, master_seed=0)
        for t in range(8):
            ds = sample_dataset(scen, Swerling0(), "h0", trial_rng(0, 0, t))
            S = scm(ds)
            for sp in specs:
                ref = oracles.statistic(sp, ds.y0, scen.steering, scen.K,
                                        scm=S)
                one = detectors.evaluate_statistic(sp, ds.y0, scen.steering,
                                                   scen.K, scm=S)
                assert batch[sp.label][t] == pytest.approx(ref, rel=1e-7), \
                    (sp.label, t)
                assert one == pytest.approx(ref, rel=1e-7), (sp.label, t)

    def test_loaded_kinds_still_run(self):
        # the guard covers unloaded forms only, as in the scalar path
        scen = _singular_scenario()
        dl = DetectorSpec("dl-amf", lam=1.0)
        for specs in ([dl], [dl, DetectorSpec("el-amf")]):
            stats = h0_statistics(scen, specs, 16, master_seed=0)
            assert np.all(np.isfinite(stats[dl.label]))

    @pytest.mark.parametrize("lam", [0.0, np.array([1.0, 0.0])],
                             ids=["zero", "array-holding-zero"])
    def test_estimators_refuse_unloaded(self, lam):
        # the plug-in estimators guard lam = 0 as the unloaded kinds do
        scen = _singular_scenario()
        ds = sample_dataset(scen, Swerling0(), "h0", trial_rng(0, 0, 0))
        S, s = scm(ds), scen.steering
        for fn in (estimators.estimated_equivalents, estimators.mu0_hat,
                   estimators.gamma_hat, estimators.kappa_lower_hat):
            with pytest.raises(NumericalError):
                fn(S, s, lam, scen.K)
        assert np.isfinite(estimators.mu0_hat(S, s, 1.0, scen.K))

    def test_loadings_still_found(self):
        # the engine runs the el and opt kinds on this scenario, so the
        # scalar loading rules return finite loadings too
        scen = _singular_scenario()
        for t in range(4):
            ds = sample_dataset(scen, Swerling0(), "h0", trial_rng(0, 0, t))
            S = scm(ds)
            for lam in (estimators.el_lambda(S, scen.K),
                        optimizer.lambda_opt_hat(S, scen.steering,
                                                 scen.K).lambda_star):
                assert math.isfinite(lam) and lam >= 0.0


class TestOutOfRangePowers:
    # every power x1e-300: the SCM is positive definite, but the Cholesky
    # border and the EL sums leave the double range; both paths say so
    @pytest.mark.parametrize("kind", ["scm-amf", "persym-amf", "el-amf",
                                      "cfar-el-amf"])
    def test_names_the_cause(self, kind):
        scen = toeplitz_scenario(24, 48, clutter_power=1e-299, noise=1e-300)
        spec = DetectorSpec(kind)
        ds = sample_dataset(scen, Swerling0(), "h0", trial_rng(0, 0, 0))
        with pytest.raises(NumericalError) as batch:
            h0_statistics(scen, [spec], 16, master_seed=0)
        with pytest.raises(NumericalError) as one:
            detectors.evaluate_statistic(spec, ds.y0, scen.steering, scen.K,
                                         scm=scm(ds))
        assert str(batch.value) == str(one.value)
        assert str(one.value).endswith(
            ": the powers are out of floating-point range")


class TestOneReduction:
    """The scalar estimators reduce an SCM as the trial engine does."""

    def test_no_eigh_on_sample_covariances(self, scen_n24_k48, monkeypatch):
        scen, s, K = scen_n24_k48, scen_n24_k48.steering, scen_n24_k48.K
        ds = sample_dataset(scen, Swerling0(), "h0", trial_rng(3, 0, 0))
        scen.covariance()   # the true covariance is decomposed once, here
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda *a, **k: calls.append(1) or eigh(*a, **k))
        S = scm(ds)
        estimators.estimated_equivalents(S, s, np.array([0.0, 1.5]), K)
        estimators.el_lambda(S, K)
        optimizer.lambda_opt_hat(S, s, K)
        for sp in _all_specs():
            if sp.kind not in detectors.ORACLE_TAGS:
                detectors.evaluate_statistic(sp, ds.y0, s, K, scm=S)
        assert not calls

    def test_scalar_estimators_are_engine(self, scen_n24_k48, monkeypatch):
        # el_lambda and lambda_opt_hat give the loadings the engine uses,
        # and mu0_hat at them the engine's normalizer, bit for bit
        scen, s, K = scen_n24_k48, scen_n24_k48.steering, scen_n24_k48.K
        plan = _BatchPlan(scen, [DetectorSpec("cfar-el-amf"),
                                 DetectorSpec("opt-cfar-dl-amf")])
        used = {}

        def record(key, fn):
            def wrapped(*args):
                used[key] = fn(*args)
                return used[key]
            return wrapped

        monkeypatch.setattr(estimators, "_el_rows",
                            record("el", estimators._el_rows))
        monkeypatch.setattr(optimizer, "lambda_opt_rows",
                            record("adaptive-opt", optimizer.lambda_opt_rows))
        coeffs, _ = _eval_chunk(plan, 11, 0, 0, 8)
        monkeypatch.undo()
        # each kind's norm is mu0_hat at its loading
        forms = {"el": coeffs["cfar-el-amf"],
                 "adaptive-opt": coeffs["opt-cfar-dl-amf"]}
        used["adaptive-opt"] = used["adaptive-opt"][0]
        for t in range(8):
            S = scm(sample_dataset(scen, Swerling0(), "h0",
                                   trial_rng(11, 0, t)))
            lams = {"el": estimators.el_lambda(S, K),
                    "adaptive-opt": optimizer.lambda_opt_hat(
                        S, s, K).lambda_star}
            for key, lam in lams.items():
                assert lam == used[key][t], (key, t)
                assert estimators.mu0_hat(S, s, lam, K) == forms[key][2][t], \
                    (key, t)

    def test_one_kernel_call_per_block(self, scen_n24_k48, monkeypatch):
        # the spectral route forms the fixed and EL loadings of a block in
        # one row kernel call, and a chunk makes one Plan.coefficients call
        # per block
        plan = _BatchPlan(scen_n24_k48, [DetectorSpec("el-amf"),
                                         DetectorSpec("cfar-el-amf"),
                                         DetectorSpec("dl-amf", lam=1.5)])
        calls = []
        for owner, name in ((estimators, "_loaded_rows"),
                            (detectors.Plan, "coefficients")):
            def counted(*args, fn=getattr(owner, name), name=name):
                calls.append(name)
                return fn(*args)
            monkeypatch.setattr(owner, name, counted)
        _eval_chunk(plan, 11, 0, 0, 2 * plan.block + 1)
        assert calls == ["coefficients", "_loaded_rows"] * 3


def _eigh_rows(S, y0, s):
    """l, w2 and wz of a block of SCMs from a batched complex eigh."""
    l, V = np.linalg.eigh(S)
    Vh = V.conj().transpose(0, 2, 1)
    w = Vh @ s
    z = (Vh @ y0[..., None])[..., 0]
    return (np.maximum(l, EIG_FLOOR_REL * l[:, -1:]), np.abs(w) ** 2,
            np.conj(w) * z)


class TestSpectralRows:
    """The tridiagonal rows against the rows of a complex eigh, through the
    loaded sums they feed: D1, psi, num and alpha at loadings 1e-3, 1 and
    1e3 times each row's mean eigenvalue. A cluster of equal eigenvalues
    leaves w2 free within it, so only sums are compared."""

    @staticmethod
    def _compare(S, y0, plan):
        ref = _eigh_rows(S, y0, plan.s)
        got = _spectral_rows(S.copy(), plan.s, y0)
        top = ref[0][:, -1:]
        assert np.all(np.abs(got["l"] - ref[0]) <= 1e-12 * top)
        lams = np.mean(ref[0], axis=1)[:, None] * np.array([1e-3, 1.0, 1e3])
        want = _loaded_rows(*ref[:2], lams, plan.K, ref[2])
        have = _loaded_rows(got["l"], got["w2"], lams, plan.K, got["wz"])
        for name, a, b in zip(("d1", "psi", "num", "alpha"), have, want):
            np.testing.assert_allclose(a, b, rtol=1e-10, atol=0,
                                       err_msg=name)

    @staticmethod
    def _drawn(scen, trials=64):
        plan = _BatchPlan(scen, [DetectorSpec("el-amf")])
        y0, Y, _ = _draw(plan, 3, 0, 0, trials)
        return np.matmul(Y, Y.conj().transpose(0, 2, 1)) / scen.K, y0, plan

    @pytest.mark.parametrize("scen", [
        toeplitz_scenario(24, 48), toeplitz_scenario(1, 4),
        toeplitz_scenario(2, 4), toeplitz_scenario(8, 9),
        _singular_scenario()],
        ids=["criterion4", "n1", "n2", "k-n-plus-1", "singular"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_match_eigh(self, scen):
        self._compare(*self._drawn(scen))

    def test_repeated_eigenvalues(self):
        # S = I + u u^H: eigenvalue 1 with multiplicity N - 1
        N, B = 6, 16
        rng = np.random.default_rng(5)
        u = rng.standard_normal((B, N)) + 1j * rng.standard_normal((B, N))
        S = np.eye(N) + u[:, :, None] * np.conj(u[:, None, :])
        y0 = rng.standard_normal((B, N)) + 1j * rng.standard_normal((B, N))
        plan = _BatchPlan(toeplitz_scenario(N, 2 * N),
                          [DetectorSpec("el-amf")])
        self._compare(S, y0, plan)


def _outcome(fn):
    """fn's value, or the class of the ConfigError/NumericalError it raised."""
    try:
        return fn()
    except (ConfigError, NumericalError) as exc:
        return type(exc)


_EDGE_CLUTTER = st.one_of(
    st.builds(ToeplitzClutter, clutter_power=st.sampled_from([10.0, 1e6]),
              one_lag=st.sampled_from([0.5, 0.99, 0.9999])),
    st.builds(LowRankClutter, patch_angles_deg=st.just((0.0, 30.0)),
              patch_powers=st.sampled_from([(10.0, 10.0), (1e6, 1e3)])))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestEdgeProperties:
    """Both routes against the references at the edges of the regime:
    K = N + 1, clutter 60 dB over the noise, one-lag correlation near 1 and
    low-rank clutter. Each set either agrees trial by trial or fails with
    an error class the references raise on one of its trials."""

    @given(N=st.integers(2, 8), extra=st.sampled_from([1, 2, 8]),
           clutter=_EDGE_CLUTTER, theta=st.floats(-60.0, 60.0),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=15, deadline=None)
    def test_routes_match_references(self, N, extra, clutter, theta, seed):
        scen = Scenario(N=N, K=N + extra, clutter=clutter, noise_power=1.0,
                        steering_deg=theta)
        R = scen.covariance()
        trials = 4
        draws = [sample_dataset(scen, Swerling0(), "h0",
                                trial_rng(seed, 0, t)) for t in range(trials)]
        fixed = [DetectorSpec(k) for k in ("np", "scm-amf", "persym-amf",
                                           "opt-cfar-dl-scmf")]
        fixed += [DetectorSpec(k, lam=1.5)
                  for k in ("dl-amf", "dl-scm-beta", "dl-raw",
                            "cfar-dl-scmf", "cfar-dl-amf")]
        searched = [DetectorSpec(k) for k in ("el-amf", "cfar-el-amf",
                                              "opt-cfar-dl-amf")]
        for sp in fixed + searched:
            # alone on the Cholesky route (the searched kinds go spectral),
            # and with el-amf on the spectral route
            for specs in ([sp], [sp, searched[0]]):
                if len(specs) == 2 and sp == searched[0]:
                    continue
                self._check(scen, R, specs, draws, seed)

    @staticmethod
    def _check(scen, R, specs, draws, seed):
        batch = _outcome(lambda: h0_statistics(scen, specs, len(draws),
                                               master_seed=seed))
        refs = {sp.label: [_outcome(lambda: oracles.statistic(
            sp, ds.y0, scen.steering, scen.K,
            scm=None if sp.kind == "np" else scm(ds),
            R=R if sp.kind in detectors.ORACLE_TAGS else None))
            for ds in draws] for sp in specs}
        if isinstance(batch, type):
            assert any(r is batch for rs in refs.values() for r in rs), \
                (specs, batch, refs)
            return
        for sp in specs:
            rtol = 1e-6 if "opt" in sp.kind else 1e-7
            for t, ref in enumerate(refs[sp.label]):
                assert not isinstance(ref, type), (sp.label, t, ref)
                assert batch[sp.label][t] == pytest.approx(ref, rel=rtol), \
                    (sp.label, t)


class TestDeterminism:
    def test_worker_count_invariant(self, scen_n24_k48, monkeypatch):
        self._workers_agree(monkeypatch, scen_n24_k48,
                            [DetectorSpec("np"), DetectorSpec("scm-amf")])

    def test_worker_count_invariant_cholesky_route(self, scen_n24_k48,
                                                   monkeypatch):
        self._workers_agree(monkeypatch, scen_n24_k48, _fixed_specs())

    def test_chunk_size_invariant(self, scen_n24_k48, monkeypatch):
        self._chunks_agree(monkeypatch, scen_n24_k48,
                           [DetectorSpec("dl-amf", lam=1.5)])

    def test_chunk_size_invariant_cholesky_route(self, scen_n24_k48,
                                                 monkeypatch):
        self._chunks_agree(monkeypatch, scen_n24_k48, _fixed_specs())

    @pytest.mark.parametrize("specs", [_all_specs, _fixed_specs],
                             ids=["spectral", "cholesky"])
    def test_chunk_size_invariant_at_scale(self, scen_n24_k48, specs,
                                           monkeypatch):
        # full chunks of 1000 and 4096 trials hold complex temporaries
        # above NumPy's 256 KiB elision threshold; the last partial chunk
        # does not, and neither does a partial block
        self._chunks_agree(monkeypatch, scen_n24_k48, specs(), trials=4096,
                           chunks=(4096, 1000, 777))

    @pytest.mark.parametrize("specs", [_all_specs, _fixed_specs],
                             ids=["spectral", "cholesky"])
    def test_chunk_size_invariant_n64(self, specs, monkeypatch):
        # at N = 64 a full block of per-trial rows is itself 256 KiB
        self._chunks_agree(monkeypatch, toeplitz_scenario(64, 96), specs(),
                           trials=300, chunks=(300, 257))

    @pytest.mark.parametrize("specs", [_all_specs, _fixed_specs],
                             ids=["spectral", "cholesky"])
    def test_block_size_invariant(self, scen_n24_k48, specs):
        # every block runs its own loading searches and forms in the
        # chunk's reused buffers; blocks of 1 and 7 trials and the default
        # 111 give the same coefficients and amplitudes bit for bit
        plan = _BatchPlan(scen_n24_k48, specs())
        assert plan.block == 111
        want = _eval_chunk(plan, 5, 2, 3, 253)
        for block in (1, 7):
            plan.block = block
            coeffs, amp = _eval_chunk(plan, 5, 2, 3, 253)
            np.testing.assert_array_equal(amp, want[1])
            for lbl, c in want[0].items():
                for name, a, b in zip(("alpha", "beta", "norm"), c,
                                      coeffs[lbl]):
                    np.testing.assert_array_equal(
                        a, b, err_msg=f"{lbl} {name} block {block}")

    @staticmethod
    def _workers_agree(monkeypatch, scen, specs):
        monkeypatch.setattr(harness, "DEFAULT_CHUNK", 128)
        a = h0_statistics(scen, specs, 600, master_seed=5,
                          engine=harness.Engine(1))
        b = h0_statistics(scen, specs, 600, master_seed=5,
                          engine=harness.Engine(3))
        for lbl in a:
            np.testing.assert_array_equal(a[lbl], b[lbl])

    @staticmethod
    def _chunks_agree(monkeypatch, scen, specs, trials=300, chunks=(64, 300)):
        monkeypatch.setattr(harness, "DEFAULT_CHUNK", chunks[0])
        a = h0_statistics(scen, specs, trials, master_seed=5)
        for chunk in chunks[1:]:
            monkeypatch.setattr(harness, "DEFAULT_CHUNK", chunk)
            b = h0_statistics(scen, specs, trials, master_seed=5)
            for lbl in a:
                np.testing.assert_array_equal(a[lbl], b[lbl])

    @pytest.mark.parametrize("specs", [_all_specs, _fixed_specs],
                             ids=["spectral", "cholesky"])
    @pytest.mark.parametrize("trials, workers", [(3, 5), (301, 2), (7, 3)])
    def test_engine_split_invariant(self, scen_n24_k48, specs, trials,
                                    workers):
        # an engine of several workers cuts chunks of ceil(trials /
        # workers) trials: fewer trials than workers, and trials that the
        # workers do not divide, keep the bits of one in-process chunk
        cfg = TrialConfig(scen_n24_k48, specs(), trials, 5)
        want = h0_statistics(scen_n24_k48, specs(), trials, master_seed=5)
        ev = pd_evaluator(cfg)
        with harness.Engine(workers) as engine:
            got = h0_statistics(scen_n24_k48, specs(), trials,
                                master_seed=5, engine=engine)
            ev_got = pd_evaluator(cfg, engine=engine)
        np.testing.assert_array_equal(ev_got.amp, ev.amp)
        for lbl in want:
            np.testing.assert_array_equal(got[lbl], want[lbl])
            for a, b in zip(ev_got.coeffs[lbl], ev.coeffs[lbl]):
                np.testing.assert_array_equal(a, b)

    def test_engine_keeps_one_pool(self, scen_n24_k48):
        spec = [DetectorSpec("scm-amf")]
        with harness.Engine(2) as engine:
            h0_statistics(scen_n24_k48, spec, 10, 5, engine=engine)
            pool = engine.pool
            pd_vs_scnr_sweep(TrialConfig(scen_n24_k48, spec, 10, 5),
                             {"scm-amf": 1.0}, [0.0, 5.0], "swerling0",
                             engine=engine)
            assert pool is not None and engine.pool is pool
        assert engine.pool is None
        assert multiprocessing.active_children() == []
        with harness.Engine(1) as engine:
            h0_statistics(scen_n24_k48, spec, 10, 5, engine=engine)
            assert engine.pool is None

    def test_engine_needs_a_worker(self):
        with pytest.raises(ConfigError, match="workers"):
            harness.Engine(0)

    def test_streams_differ(self, scen_n24_k48):
        spec = [DetectorSpec("np")]
        a = h0_statistics(scen_n24_k48, spec, 50, master_seed=5, stream=0)
        b = h0_statistics(scen_n24_k48, spec, 50, master_seed=5, stream=1)
        assert not np.allclose(a["np"], b["np"])


_eval_chunk_in_parent = harness._eval_chunk


def _thread_counts():
    return {name: get() for name, (get, _) in blas.pools().items()}


def _eval_chunk_reporting(*args):
    """_eval_chunk that first writes its process's BLAS thread counts to a
    file named by its pid in $DLAMF_TEST_POOL_DIR."""
    path = os.path.join(os.environ["DLAMF_TEST_POOL_DIR"], str(os.getpid()))
    with open(path, "w") as f:
        json.dump(_thread_counts(), f)
    return _eval_chunk_in_parent(*args)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers see the patched _eval_chunk only when "
                    "forked")
def test_workers_run_one_blas_thread(scen_n24_k48, tmp_path, monkeypatch):
    if set(blas.pools()) != {"scipy", "numpy"}:
        pytest.skip("OpenBLAS thread-count symbols not found")
    before = _thread_counts()
    monkeypatch.setenv("DLAMF_TEST_POOL_DIR", str(tmp_path))
    monkeypatch.setattr(harness, "_eval_chunk", _eval_chunk_reporting)
    monkeypatch.setattr(harness, "DEFAULT_CHUNK", 50)
    h0_statistics(scen_n24_k48, _fixed_specs(), 400, master_seed=5,
                  engine=harness.Engine(2))
    reports = [json.loads(p.read_text()) for p in tmp_path.iterdir()]
    assert reports
    for counts in reports:
        assert counts == {"scipy": 1, "numpy": 1}
    assert _thread_counts() == before


class _RecordingPool:
    """ProcessPoolExecutor stand-in that runs its map in process and
    records each pool it starts by its worker count."""

    started = []

    def __init__(self, workers, initializer=None):
        self.started.append(workers)

    def map(self, fn, *args):
        return map(fn, *args)

    def shutdown(self):
        pass


class TestEngineCut:
    """The chunk cut that the benchmark workloads run does not change."""

    @pytest.fixture
    def cuts(self, monkeypatch):
        # chunks record their (lo, hi) and return zeros in no time
        cuts = []

        def chunk(plan, master_seed, stream, lo, hi):
            cuts.append((lo, hi))
            zero = np.zeros(hi - lo, dtype=complex)
            return {sp.label: (zero, zero, np.ones(hi - lo))
                    for sp in plan.specs}, zero

        monkeypatch.setattr(harness, "_eval_chunk", chunk)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", _RecordingPool)
        monkeypatch.setattr(_RecordingPool, "started", [])
        return cuts

    def test_h0_cfar8(self, scen_n24_k48, cuts):
        # 16384 trials at one worker: four chunks of DEFAULT_CHUNK in process
        specs = ([DetectorSpec("cfar-dl-scmf", lam) for lam in (1.5, 5.0)]
                 + [DetectorSpec("cfar-dl-amf", 1.5)])
        h0_statistics(scen_n24_k48, specs, 16384, master_seed=0)
        assert cuts == [(lo, lo + 4096) for lo in range(0, 16384, 4096)]
        assert _RecordingPool.started == []

    def test_default_chunk_read_at_call_time(self, scen_n24_k48, cuts,
                                             monkeypatch):
        # the chunk-invariance tests set their cuts through the constant
        monkeypatch.setattr(harness, "DEFAULT_CHUNK", 300)
        h0_statistics(scen_n24_k48, [DetectorSpec("np")], 700, master_seed=0)
        assert cuts == [(0, 300), (300, 600), (600, 700)]

    def test_pd_sweep_n48(self, tmp_path, cuts):
        # dlamf pd-sweep at two workers: 2560 threshold trials in two
        # chunks of 1280, then 256 trials per SCNR in two of 128, on one pool
        config = (Path(__file__).resolve().parents[1] / "perfbench"
                  / "scenarios" / "pd-sweep-n48.json")
        assert cli.main([
            "pd-sweep", "--config", str(config), "--detector",
            "np,scm-amf,dl-amf,cfar-dl-amf,cfar-dl-scmf,persym-amf",
            "--lambda", "1.5", "--pfa", "0.02", "--threshold-trials", "2560",
            "--trials", "256", "--scnr-db", "0:5:20", "--seed", "1",
            "--workers", "2", "--out", str(tmp_path)]) == 0
        assert cuts == [(0, 1280), (1280, 2560)] + [(0, 128), (128, 256)] * 5
        assert _RecordingPool.started == [2]


class TestDesignConstants:
    """A design constant out of floating-point range raises on the batch
    and the scalar path alike, instead of making every statistic NaN."""

    @staticmethod
    def _both_paths(scen, spec):
        R = scen.covariance()
        with pytest.raises(NumericalError) as batch:
            h0_statistics(scen, [spec], 64, master_seed=1)
        ds = sample_dataset(scen, Swerling0(), "h0", trial_rng(1, 0, 0))
        with pytest.raises(NumericalError) as scalar:
            detectors.evaluate_statistic(
                spec, ds.y0, scen.steering, scen.K, scm=scm(ds),
                R=R if spec.kind in detectors.ORACLE_TAGS else None)
        assert str(batch.value) == str(scalar.value)
        return str(batch.value)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_oracle_mu0_underflow(self, scen_n24_k48):
        # at lam = 1e200 xi and gamma underflow and mu0 comes out 0
        scen = scen_n24_k48
        with pytest.raises(NumericalError, match="mu0"):
            rmt.deterministic_equivalents(scen.covariance(), scen.steering,
                                          [1.5, 1e200], scen.K)
        msg = self._both_paths(scen, DetectorSpec("cfar-dl-scmf", lam=1e200))
        assert "mu0" in msg

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_q_overflow(self):
        # subnormal powers: s^H R^-1 s overflows
        scen = toeplitz_scenario(24, 48, clutter_power=1e-309, noise=1e-310)
        assert "q = s^H R^-1 s" in self._both_paths(scen, DetectorSpec("np"))

    @pytest.mark.parametrize("lam", [1e20, 1e100, 1e150])
    def test_plug_in_mu0_cancellation(self, scen_n24_k48, lam):
        # alone, cfar-dl-amf takes the Cholesky route, where mu0_hat's
        # numerator beta - lam ||u^H L^-1||^2 cancels; unchecked, these
        # loadings gave inf, 1.3e-84 and negative statistics
        scen, spec = scen_n24_k48, DetectorSpec("cfar-dl-amf", lam=lam)
        with pytest.raises(NumericalError, match="cancellation"):
            h0_statistics(scen, [spec], 64, master_seed=1)
        ds = sample_dataset(scen, Swerling0(), "h0", trial_rng(1, 0, 0))
        with pytest.raises(NumericalError, match="cancellation"):
            detectors.evaluate_statistic(spec, ds.y0, scen.steering, scen.K,
                                         scm=scm(ds))

    @pytest.mark.parametrize("kind", sorted(detectors.FIXED_LAMBDA_TAGS
                                            - {"cfar-dl-scmf"}))
    @pytest.mark.parametrize("lam", [1e200, 1e300])
    def test_underflowing_statistics(self, scen_n24_k48, kind, lam):
        # the filter output underflows; every statistic came out 0.0
        msg = self._both_paths(scen_n24_k48, DetectorSpec(kind, lam=lam))
        assert f"{kind} at loading {lam}" in msg and "subnormal" in msg

    @pytest.mark.parametrize("kind", ["dl-amf", "dl-scm-beta", "dl-raw"])
    def test_large_loading_still_runs(self, scen_n24_k48, kind):
        # at lam = 1e160 dl-raw's statistics were subnormal (3.1e-320)
        stats = h0_statistics(scen_n24_k48, [DetectorSpec(kind, lam=1e150)],
                              64, master_seed=1)[f"{kind}(lam=1e+150)"]
        assert np.all(np.isfinite(stats) & (stats >= np.finfo(float).tiny))
        if kind == "dl-raw":
            assert 1e-300 < stats.mean() < 1e-299

    @pytest.mark.parametrize("lam", [1e155, 1e160])
    def test_equivalents_overflow_warns_not(self, scen_n24_k48, lam):
        # den ** 2 overflows; the NumericalError, not a RuntimeWarning,
        # ends the call
        scen = scen_n24_k48
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="mu0"):
                rmt.deterministic_equivalents(scen.covariance(),
                                              scen.steering, lam, scen.K)


def _extreme_cases():
    """(powers scale, spec): every kind with every power scaled, fixed
    loadings scaled alike, and the fixed-loading kinds at huge loadings on
    unit powers."""
    cases = [(c, DetectorSpec(k, lam=1.5 * c if k in
                              detectors.FIXED_LAMBDA_TAGS else None))
             for c in (1e200, 1e-200, 1e-300) for k in detectors.ALL_TAGS]
    return cases + [(1.0, DetectorSpec(k, lam=lam))
                    for lam in (1e160, 1e200, 1e300)
                    for k in sorted(detectors.FIXED_LAMBDA_TAGS)]


# the true covariance of the scaled scenarios may be clamped, with a warning
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("scale,spec", _extreme_cases(),
                         ids=lambda v: v.label if isinstance(v, DetectorSpec)
                         else f"{v:g}")
def test_statistics_normal_or_raise(scale, spec):
    # h0_statistics, pd_evaluator and evaluate_statistic each give finite
    # statistics no smaller than the smallest normal float, or raise
    scen = toeplitz_scenario(24, 48, clutter_power=10.0 * scale,
                             noise=scale)
    tiny = np.finfo(float).tiny
    cfg = TrialConfig(scen, spec, trials=64, master_seed=0)
    ds = sample_dataset(scen, Swerling0(), "h0", trial_rng(0, 0, 0))
    oracle = spec.kind in detectors.ORACLE_TAGS
    runs = [
        lambda: h0_statistics(scen, [spec], 64, master_seed=0)[spec.label],
        lambda: pd_evaluator(cfg).statistics(spec.label, 0.0, "swerling0"),
        lambda: detectors.evaluate_statistic(
            spec, ds.y0, scen.steering, scen.K,
            scm=None if spec.kind == "np" else scm(ds),
            R=scen.covariance() if oracle else None)]
    for run in runs:
        try:
            stats = np.asarray(run())
        except NumericalError:
            continue
        assert np.all(np.isfinite(stats) & (stats >= tiny)), stats


class TestChunkMemory:
    """A chunk's traced peak is set by its one block workspace, not by
    trials x N x K."""

    @staticmethod
    def _peak_mib(plan, trials):
        tracemalloc.start()
        try:
            _eval_chunk(plan, 1, 0, 0, trials)
            return tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()

    def test_pd_sweep_set_n48(self):
        # the pd-sweep-n48 benchmark's set and chunk; holding the chunk's
        # snapshots whole peaked at 245.7 MiB, three snapshot copies of a
        # 256-trial block at 36.2 MiB, the 42-trial workspace at 11.4 MiB
        specs = ([DetectorSpec(k) for k in ("np", "scm-amf", "persym-amf")]
                 + [DetectorSpec(k, lam=1.5)
                    for k in ("dl-amf", "cfar-dl-amf", "cfar-dl-scmf")])
        plan = _BatchPlan(toeplitz_scenario(48, 64), specs)
        assert self._peak_mib(plan, 2560) < 16

    def test_large_array_blocks_sized_in_bytes(self):
        # at N = 128, K = 256 a block of 256 trials held 134 MB per copy of
        # its snapshots, and the chunk peaked at 323 MiB; its 3-trial
        # blocks of 2 MiB peak at 7.8 MiB
        specs = ([DetectorSpec(k) for k in ("np", "scm-amf", "persym-amf")]
                 + [DetectorSpec(k, lam=1.5)
                    for k in ("dl-amf", "cfar-dl-amf", "cfar-dl-scmf")])
        plan = _BatchPlan(toeplitz_scenario(128, 256), specs)
        assert plan.block < harness._BLOCK
        assert self._peak_mib(plan, 256) < 16

    def test_criterion4_set(self, scen_n24_k48):
        # criterion 4's CFAR set in one 4096-trial chunk; 198.8 MiB whole,
        # 23.6 MiB with the loading searches run over the chunk at once and
        # 9.3 MiB with them run per block
        specs = ([DetectorSpec(k, lam=lam)
                  for k in ("cfar-dl-scmf", "cfar-dl-amf")
                  for lam in (1.5, 5.0, 10.0)]
                 + [DetectorSpec("cfar-el-amf"),
                    DetectorSpec("opt-cfar-dl-amf")])
        plan = _BatchPlan(scen_n24_k48, specs)
        assert self._peak_mib(plan, 4096) < 16


class TestThreshold:
    def test_order_statistic_rank(self):
        stats = np.arange(1, 1001) / 1000.0
        np.random.default_rng(0).shuffle(stats)
        res = threshold_from_stats(stats, pfa=0.1)
        assert res.tau == pytest.approx(0.9)
        assert res.achieved_pfa == pytest.approx(0.1)
        assert res.pfa_ci[0] < 0.1 < res.pfa_ci[1]
        assert res.tau_ci[0] < res.tau < res.tau_ci[1]
        assert res.trials == 1000

    def test_validation_and_noise_warning(self):
        with pytest.raises(ConfigError):
            threshold_from_stats(np.ones(10), pfa=0.0)
        with pytest.warns(RuntimeWarning):
            threshold_from_stats(np.arange(100.0), pfa=0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("count", [20, 200])
    def test_non_finite_statistics_rejected(self, bad, count):
        # 20 NaNs in 1e4 used to shift the achieved Pfa, 200 made tau NaN
        stats = np.random.default_rng(0).exponential(size=10_000)
        stats[:count] = bad
        with pytest.raises(NumericalError, match=f"{count} of 10000"):
            threshold_from_stats(stats, pfa=1e-2)

    def test_calibrate_single_vs_dict(self, scen_n24_k48):
        one = TrialConfig(scen_n24_k48, DetectorSpec("np"), trials=4000,
                          master_seed=1, pfa_pre=1e-1)
        res = calibrate_threshold(one)
        assert res.tau == pytest.approx(-math.log(1e-1), abs=0.15)
        many = TrialConfig(
            scen_n24_k48, [DetectorSpec("np"), DetectorSpec("scm-amf")],
            trials=4000, master_seed=1, pfa_pre=1e-1)
        res2 = calibrate_threshold(many)
        assert set(res2) == {"np", "scm-amf"}
        assert res2["np"].tau == res.tau

    def test_cfar_tau_insensitive_to_clutter(self):
        # same detector, very different clutter correlation: thresholds
        # must land within each other's order-statistic intervals
        spec = DetectorSpec("cfar-dl-amf", lam=1.5)
        taus = {}
        for rho in (0.1, 0.95):
            scen = toeplitz_scenario(24, 48, rho=rho)
            cfg = TrialConfig(scen, spec, trials=20000, master_seed=3,
                              pfa_pre=1e-2)
            taus[rho] = calibrate_threshold(cfg)
        lo = max(taus[0.1].tau_ci[0], taus[0.95].tau_ci[0])
        hi = min(taus[0.1].tau_ci[1], taus[0.95].tau_ci[1])
        assert lo <= hi, (taus[0.1], taus[0.95])


class TestPdEvaluator:
    def test_matches_direct_h1_simulation(self, scen_n24_k48):
        spec = DetectorSpec("dl-amf", lam=1.5)
        cfg = TrialConfig(scen_n24_k48, spec, trials=30, master_seed=13)
        ev = pd_evaluator(cfg, stream=1)
        R = scen_n24_k48.covariance()
        q = R.inv_quad(scen_n24_k48.steering.entries)
        scnr = 12.0
        got = ev.statistics(spec.label, scnr, "swerling0")
        b = math.sqrt(scnr / q)
        for t in range(30):
            ds = sample_dataset(scen_n24_k48, Swerling0(amplitude=b), "h1",
                                trial_rng(13, 1, t))
            ref = detectors.evaluate_statistic(
                spec, ds.y0, scen_n24_k48.steering, scen_n24_k48.K,
                scm=scm(ds))
            assert got[t] == pytest.approx(ref, rel=1e-9)

    def test_matches_direct_h1_swerling1(self, scen_n24_k48):
        spec = DetectorSpec("cfar-el-amf")
        cfg = TrialConfig(scen_n24_k48, spec, trials=20, master_seed=17)
        ev = pd_evaluator(cfg, stream=1)
        q = scen_n24_k48.covariance().inv_quad(scen_n24_k48.steering.entries)
        scnr = 8.0
        got = ev.statistics(spec.label, scnr, "swerling1")
        for t in range(20):
            ds = sample_dataset(scen_n24_k48, Swerling1(power=scnr / q), "h1",
                                trial_rng(17, 1, t))
            ref = detectors.evaluate_statistic(
                spec, ds.y0, scen_n24_k48.steering, scen_n24_k48.K,
                scm=scm(ds))
            assert got[t] == pytest.approx(ref, rel=1e-7)

    # the oracle mu0 underflows to 0 at these loadings, which made every
    # statistic inf or NaN; the plan now refuses it before any statistic
    # is formed. Statistics at an infinite SCNR are still NaN, and Pd must
    # not count them as detections or misses
    @pytest.mark.parametrize("lam", [1e160, 1e200])
    def test_non_finite_statistics_rejected(self, scen_n24_k48, lam):
        cfg = TrialConfig(scen_n24_k48, DetectorSpec("cfar-dl-scmf", lam),
                          trials=200, master_seed=0)
        with pytest.raises(NumericalError, match="mu0"):
            calibrate_threshold(cfg)
        with pytest.raises(NumericalError, match="mu0"):
            pd_evaluator(cfg)
        spec = DetectorSpec("cfar-dl-scmf", 1.5)
        ev = pd_evaluator(replace(cfg, detector=spec))
        with pytest.raises(NumericalError, match="200 of 200"):
            ev.pd(spec.label, 1.0, math.inf, "swerling0")

    def test_unknown_target_model(self, scen_n24_k48):
        cfg = TrialConfig(scen_n24_k48, DetectorSpec("np"), trials=10,
                          master_seed=1)
        ev = pd_evaluator(cfg)
        with pytest.raises(ConfigError):
            ev.statistics("np", 1.0, "swerling9")

    def test_estimate_pd_forms(self, scen_n24_k48):
        tau = theory.cfar_threshold(1e-2)
        one = TrialConfig(scen_n24_k48, DetectorSpec("np"), trials=2000,
                          master_seed=2, pfa_pre=1e-2)
        p, (lo, hi) = estimate_pd(one, tau, 10.0, "swerling0")
        assert lo < p < hi
        expect = theory.roc_swerling0(10.0, 1.0, 1e-2)
        assert p == pytest.approx(expect, abs=0.05)
        many = TrialConfig(
            scen_n24_k48, [DetectorSpec("np"), DetectorSpec("scm-amf")],
            trials=500, master_seed=2, pfa_pre=1e-2)
        out = estimate_pd(many, {"np": tau, "scm-amf": tau}, 10.0,
                          "swerling0")
        assert set(out) == {"np", "scm-amf"}


class TestSweepAndBisection:
    def test_pd_curve_shape_and_trend(self, scen_n24_k48):
        tau = theory.cfar_threshold(1e-2)
        cfg = TrialConfig(scen_n24_k48, DetectorSpec("np"), trials=2000,
                          master_seed=4, pfa_pre=1e-2)
        grid = np.array([-5.0, 0.0, 5.0, 10.0, 15.0])
        curve = pd_vs_scnr_sweep(cfg, tau, grid, "swerling0")
        assert curve.x.shape == curve.y.shape == (5,)
        assert np.all(np.diff(curve.y) > -0.03)
        assert curve.meta["tau"] == tau
        assert np.all((curve.ci_lo <= curve.y) & (curve.y <= curve.ci_hi))

    def test_sweep_builds_plan_once(self, scen_n24_k48, monkeypatch):
        # the oracle loading of opt-cfar-dl-scmf is designed once per curve,
        # and every point matches a pass that builds its own plan
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return lambda_opt(*args, **kwargs)

        monkeypatch.setattr(harness, "lambda_opt", counted)
        specs = [DetectorSpec("np"), DetectorSpec("opt-cfar-dl-scmf")]
        cfg = TrialConfig(scen_n24_k48, specs, trials=64, master_seed=4)
        taus = {"np": 4.0, "opt-cfar-dl-scmf": 4.0}
        grid = np.array([0.0, 5.0, 10.0])
        curves = pd_vs_scnr_sweep(cfg, taus, grid, "swerling1")
        assert len(calls) == 1
        for i, db in enumerate(grid):
            ev = pd_evaluator(cfg, stream=1 + i)
            for lbl, tau in taus.items():
                p, _ = ev.pd(lbl, tau, float(harness.db_to_linear(db)),
                             "swerling1")
                assert curves[lbl].y[i] == p

    def test_sweep_multi_returns_dict(self, scen_n24_k48):
        tau = theory.cfar_threshold(1e-2)
        cfg = TrialConfig(
            scen_n24_k48, [DetectorSpec("np"), DetectorSpec("scm-amf")],
            trials=400, master_seed=4, pfa_pre=1e-2)
        out = pd_vs_scnr_sweep(cfg, {"np": tau, "scm-amf": 8.0},
                               np.array([0.0, 10.0]), "swerling0")
        assert set(out) == {"np", "scm-amf"}

    def test_scnr_at_pd_hits_target(self, scen_n24_k48):
        tau = theory.cfar_threshold(1e-2)
        cfg = TrialConfig(scen_n24_k48, DetectorSpec("np"), trials=4000,
                          master_seed=6, pfa_pre=1e-2)
        ev = pd_evaluator(cfg, stream=1)
        db = scnr_at_pd(cfg, tau, 0.5, "swerling0", evaluator=ev)
        p, _ = ev.pd("np", tau, float(harness.db_to_linear(db)), "swerling0")
        assert p == pytest.approx(0.5, abs=0.02)
        # theory: scnr with Q1(sqrt(2 scnr), sqrt(2 tau)) = 0.5
        expect = harness.linear_to_db(
            next(x for x in np.linspace(1.0, 20.0, 2000)
                 if theory.roc_swerling0(x, 1.0, 1e-2) >= 0.5))
        assert db == pytest.approx(float(expect), abs=0.4)

    def test_scnr_at_pd_validation(self, scen_n24_k48):
        cfg = TrialConfig(scen_n24_k48, DetectorSpec("np"), trials=100,
                          master_seed=6)
        with pytest.raises(ConfigError):
            scnr_at_pd(cfg, 5.0, 1.5, "swerling0")
        many = TrialConfig(
            scen_n24_k48, [DetectorSpec("np"), DetectorSpec("scm-amf")],
            trials=100, master_seed=6)
        with pytest.raises(ConfigError):
            scnr_at_pd(many, 5.0, 0.5, "swerling0")

    def test_scnr_at_pd_unreachable(self, scen_n24_k48):
        cfg = TrialConfig(scen_n24_k48, DetectorSpec("np"), trials=200,
                          master_seed=6)
        with pytest.raises(NumericalError):
            scnr_at_pd(cfg, 1e30, 0.5, "swerling0")

    def test_scnr_at_pd_below_pfa(self, scen_n24_k48):
        # pd never falls below the false-alarm rate, whatever the SCNR
        cfg = TrialConfig(scen_n24_k48, DetectorSpec("np"), trials=400,
                          master_seed=6)
        with pytest.raises(NumericalError):
            scnr_at_pd(cfg, theory.cfar_threshold(0.05), 0.01, "swerling0")


class TestLossTable:
    def test_np_reference_and_expected_loss(self, scen_n24_k48):
        rows = detection_loss_table(
            scen_n24_k48, [DetectorSpec("scm-amf")], pfa_pre=1e-2,
            threshold_trials=20000, pd_trials=4000, master_seed=8,
            target_models=("swerling0",))
        assert [r["kind"] for r in rows] == ["np", "scm-amf"]
        np_row, amf_row = rows
        assert np_row["loss_db"] == 0.0
        # c = 0.5 costs the unloaded filter about 3 dB at pd 0.5
        assert amf_row["loss_db"] == pytest.approx(3.0, abs=0.8)
        assert amf_row["scnr_db"] > np_row["scnr_db"]
        assert amf_row["tau"] > np_row["tau"]


class TestHistogram:
    def test_density_normalized(self, scen_n24_k48):
        cfg = TrialConfig(scen_n24_k48, DetectorSpec("np"), trials=4000,
                          master_seed=9)
        h = empirical_pdf(cfg, bins=40, value_range=(0.0, 10.0))
        widths = np.diff(h.bin_edges)
        mass = float(np.sum(h.density * widths))
        assert mass == pytest.approx(1.0, abs=0.01)
        assert h.n_samples == 4000

    def test_multi_returns_dict(self, scen_n24_k48):
        cfg = TrialConfig(
            scen_n24_k48, [DetectorSpec("np"), DetectorSpec("scm-amf")],
            trials=500, master_seed=9)
        out = empirical_pdf(cfg, bins=10)
        assert set(out) == {"np", "scm-amf"}
