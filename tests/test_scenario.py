import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlamf.errors import ConfigError
from dlamf.scenario import (HermitianSpectrum, LowRankClutter, SampleSet,
                            Scenario, Swerling0, Swerling1, ToeplitzClutter,
                            build_covariance, make_steering, philox_key,
                            sample_dataset, scenario_from_json,
                            scenario_to_json, scm, trial_rng)

from conftest import toeplitz_scenario, lowrank_scenario


class TestSteering:
    def test_unit_norm(self):
        for N in (1, 4, 24, 64):
            s = make_steering(N, 20.0)
            assert np.linalg.norm(s.entries) == pytest.approx(1.0, abs=1e-13)

    def test_entries_formula(self):
        N, theta = 8, 35.0
        s = make_steering(N, theta)
        k = np.arange(N)
        expected = np.exp(1j * np.pi * k * np.sin(np.deg2rad(theta))) / np.sqrt(N)
        np.testing.assert_allclose(s.entries, expected, atol=1e-14)

    def test_zero_angle_is_real(self):
        s = make_steering(6, 0.0)
        np.testing.assert_allclose(s.entries, np.full(6, 1 / np.sqrt(6)))

    def test_bad_dim(self):
        with pytest.raises(ConfigError):
            make_steering(0, 10.0)


class TestCovariance:
    def test_toeplitz_entries(self):
        scen = toeplitz_scenario(5, 10, rho=0.5, clutter_power=2.0, noise=3.0)
        R = scen.clutter.matrix(5)
        R[np.diag_indices(5)] += 3.0
        assert R[0, 0] == pytest.approx(5.0)
        assert R[0, 1] == pytest.approx(1.0)
        assert R[0, 4] == pytest.approx(2.0 * 0.5 ** 4)
        assert np.allclose(R, R.conj().T)

    def test_lowrank_structure(self):
        scen = lowrank_scenario(24, 48)
        spec = scen.covariance()
        # nine unit-rank patches on white noise: eigenvalues split into a
        # clutter group and a flat noise floor at 1
        eig = np.sort(spec.eigenvalues)
        assert eig[:24 - 9] == pytest.approx(np.ones(15), rel=1e-10)
        assert eig[-1] > 10.0

    def test_duplicate_patches_add_power(self):
        one = LowRankClutter((5.0,), (20.0,)).matrix(8)
        two = LowRankClutter((5.0, 5.0), (10.0, 10.0)).matrix(8)
        np.testing.assert_allclose(one, two, atol=1e-12)

    def test_k_must_exceed_n(self):
        with pytest.raises(ConfigError):
            toeplitz_scenario(24, 24)
        with pytest.raises(ConfigError):
            toeplitz_scenario(24, 12)

    def test_noise_power_positive(self):
        with pytest.raises(ConfigError):
            toeplitz_scenario(8, 16, noise=0.0)

    def test_clamp_warns_on_near_singular(self):
        v = make_steering(6, 10.0).entries
        R = 1e6 * np.outer(v, v.conj())  # rank one, zero eigenvalues below
        with pytest.warns(RuntimeWarning):
            spec = HermitianSpectrum.from_matrix(R)
        assert spec.eigenvalues.min() > 0

    def test_clamp_warns_once(self):
        # rank-3 clutter plus white noise far below the floor: one clamp
        # warning and no other, since a clamped spectrum's condition number
        # is 1 / EIG_FLOOR_REL up to rounding (above it for 19 of these 82)
        for p in np.linspace(1.0, 3.0, 41):
            for noise in (1e-13, 1e-15):
                scen = Scenario(N=24, K=48, steering_deg=0.0,
                                clutter=LowRankClutter((0, 10, 40), (p,) * 3),
                                noise_power=noise)
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    scen.covariance()
                assert len(caught) == 1, (p, noise)
                assert "clamped 21 eigenvalue(s)" in str(caught[0].message)


class TestSpectrum:
    def test_inverse_quadratic_matches_dense(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        R = A @ A.conj().T + 6 * np.eye(6)
        spec = HermitianSpectrum.from_matrix(R)
        v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        assert spec.inv_quad(v) == pytest.approx(
            np.real(v.conj() @ np.linalg.inv(R) @ v), rel=1e-11)
        assert spec.quad(v) == pytest.approx(
            np.real(v.conj() @ R @ v), rel=1e-11)
        np.testing.assert_allclose(spec.apply_inv(v),
                                   np.linalg.solve(R, v), rtol=1e-10)
        assert spec.inv_trace() == pytest.approx(
            np.trace(np.linalg.inv(R)).real, rel=1e-11)

    def test_sqrt_matrix(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        R = A @ A.conj().T + np.eye(5)
        spec = HermitianSpectrum.from_matrix(R)
        S = spec.sqrt_matrix()
        np.testing.assert_allclose(S @ S.conj().T, R, atol=1e-10)


class TestJson:
    def test_round_trip_toeplitz(self):
        scen = toeplitz_scenario(12, 24, rho=0.7)
        doc = scenario_to_json(scen, target_model="swerling1")
        back, model = scenario_from_json(json.dumps(doc))
        assert model == "swerling1"
        assert back == scen

    def test_round_trip_lowrank(self):
        scen = lowrank_scenario(24, 48)
        back, model = scenario_from_json(scenario_to_json(scen))
        assert model == "swerling0"
        assert back == scen

    def test_missing_field(self):
        with pytest.raises(ConfigError, match="missing field"):
            scenario_from_json({"N": 8, "K": 16})

    def test_bad_json_text(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            scenario_from_json("{nope")

    def test_unknown_clutter(self):
        doc = scenario_to_json(toeplitz_scenario(8, 16))
        doc["clutter"] = {"type": "fancy"}
        with pytest.raises(ConfigError, match="unknown clutter"):
            scenario_from_json(doc)

    def test_unknown_target(self):
        doc = scenario_to_json(toeplitz_scenario(8, 16))
        doc["target"] = {"model": "swerling9"}
        with pytest.raises(ConfigError, match="target model"):
            scenario_from_json(doc)


class TestNonFiniteInputs:
    """NaN and infinite scenario inputs raise ConfigError before any
    matrix is built or decomposed."""

    @pytest.mark.parametrize("field,value", [
        ("noise_power", math.nan), ("noise_power", math.inf),
        ("steering_deg", math.nan), ("steering_deg", math.inf)])
    def test_scenario(self, field, value):
        kw = dict(N=8, K=16, clutter=ToeplitzClutter(10.0, 0.9),
                  noise_power=1.0, steering_deg=20.0)
        kw[field] = value
        with pytest.raises(ConfigError, match=field):
            Scenario(**kw)

    @pytest.mark.parametrize("power", [math.nan, math.inf])
    def test_toeplitz_power(self, power):
        with pytest.raises(ConfigError, match="clutter_power"):
            ToeplitzClutter(power, 0.9)

    @pytest.mark.parametrize("angles,powers", [
        ((0.0, math.nan), (1.0, 1.0)), ((math.inf,), (1.0,)),
        ((0.0, 10.0), (1.0, math.nan)), ((0.0,), (math.inf,))],
        ids=["nan-angle", "inf-angle", "nan-power", "inf-power"])
    def test_lowrank(self, angles, powers):
        with pytest.raises(ConfigError, match="patch"):
            LowRankClutter(angles, powers)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_spectrum_from_matrix(self, value):
        A = np.eye(4, dtype=complex)
        A[1, 2] = value
        with pytest.raises(ConfigError, match="non-finite"):
            HermitianSpectrum.from_matrix(A)

    @pytest.mark.parametrize("field", ["N", "K"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 8.7,
                                       "8", None])
    def test_dimension_dict(self, field, value):
        doc = scenario_to_json(toeplitz_scenario(8, 16))
        doc[field] = value
        with pytest.raises(ConfigError, match=f"{field} must be a whole"):
            scenario_from_json(doc)

    @pytest.mark.parametrize("field,value", [("N", 8.7), ("K", 16.5)])
    def test_dimension_json_text(self, field, value):
        doc = scenario_to_json(toeplitz_scenario(8, 16))
        doc[field] = value
        with pytest.raises(ConfigError, match=f"{field} must be a whole"):
            scenario_from_json(json.dumps(doc))

    def test_whole_float_dimensions_accepted(self):
        doc = scenario_to_json(toeplitz_scenario(8, 16))
        doc.update(N=8.0, K=16.0)
        scen, _ = scenario_from_json(doc)
        assert (scen.N, scen.K) == (8, 16)
        assert type(scen.N) is int and type(scen.K) is int

    @pytest.mark.parametrize("field", ["noise_power", "steering_deg"])
    def test_json_text(self, field):
        doc = scenario_to_json(toeplitz_scenario(8, 16))
        doc[field] = math.nan
        with pytest.raises(ConfigError, match="NaN"):
            scenario_from_json(json.dumps(doc))


class TestRng:
    def test_trial_rng_reproducible(self):
        a = trial_rng(42, 0, 7).standard_normal(8)
        b = trial_rng(42, 0, 7).standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_trials_distinct(self):
        a = trial_rng(42, 0, 1).standard_normal(8)
        b = trial_rng(42, 0, 2).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_streams_distinct(self):
        a = trial_rng(42, 0, 1).standard_normal(8)
        b = trial_rng(42, 1, 1).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_key_shape(self):
        k = philox_key(9, 3)
        assert k.dtype == np.uint64 and k.shape == (2,)

    @pytest.mark.parametrize("seed,stream", [(-1, 0), (0, -1), (1.5, 0),
                                             (0, 0.5), (math.nan, 0)])
    def test_seed_and_stream_are_whole_and_non_negative(self, seed, stream):
        # a negative one reached NumPy's ValueError, a fraction was truncated
        with pytest.raises(ConfigError):
            philox_key(seed, stream)
        with pytest.raises(ConfigError):
            trial_rng(seed, stream, 0)


class TestSampling:
    def test_shapes_and_hypothesis(self):
        scen = toeplitz_scenario(8, 20)
        ds = sample_dataset(scen, Swerling0(), "h0", trial_rng(0, 0, 0))
        assert ds.y0.shape == (8,)
        assert ds.Y.shape == (8, 20)
        assert ds.hypothesis == "h0"

    def test_primary_is_first_column_of_draw(self):
        # the draw layout puts the primary snapshot before the secondaries;
        # the secondary block must be identical between h0 and h1 datasets
        scen = toeplitz_scenario(8, 20)
        d0 = sample_dataset(scen, Swerling0(), "h0", trial_rng(3, 0, 5))
        d1 = sample_dataset(scen, Swerling0(), "h1", trial_rng(3, 0, 5))
        np.testing.assert_array_equal(d0.Y, d1.Y)

    def test_h1_adds_scaled_steering(self):
        scen = toeplitz_scenario(8, 20)
        d0 = sample_dataset(scen, Swerling0(amplitude=2.0), "h0",
                            trial_rng(3, 0, 5))
        d1 = sample_dataset(scen, Swerling0(amplitude=2.0), "h1",
                            trial_rng(3, 0, 5))
        np.testing.assert_allclose(d1.y0 - d0.y0,
                                   2.0 * scen.steering.entries, atol=1e-12)

    def test_swerling1_amplitude_distribution(self):
        rng = np.random.default_rng(11)
        draws = np.array([Swerling1(power=4.0).draw_amplitude(rng)
                          for _ in range(4000)])
        assert np.mean(np.abs(draws) ** 2) == pytest.approx(4.0, rel=0.1)
        assert abs(np.mean(draws)) < 0.15

    def test_secondary_covariance_consistent(self):
        # SCM over many snapshots approaches the scenario covariance
        scen = toeplitz_scenario(4, 4000, rho=0.6)
        ds = sample_dataset(scen, Swerling0(), "h0", trial_rng(1, 0, 0))
        R_hat = scm(ds)
        R = scen.clutter.matrix(4)
        R[np.diag_indices(4)] += scen.noise_power
        assert np.linalg.norm(R_hat - R) / np.linalg.norm(R) < 0.1


@given(n=st.integers(2, 40), k_extra=st.integers(1, 40),
       theta=st.floats(-90.0, 90.0))
@settings(max_examples=30, deadline=None)
def test_scenario_properties(n, k_extra, theta):
    scen = toeplitz_scenario(n, n + k_extra, theta=theta)
    assert 0.0 < scen.c < 1.0
    spec = scen.covariance()
    assert spec.eigenvalues.min() >= scen.noise_power * (1 - 1e-9)
    assert np.linalg.norm(scen.steering.entries) == pytest.approx(1.0,
                                                                  abs=1e-12)
