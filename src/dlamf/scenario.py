"""Covariance models, steering vectors and synthetic snapshot generation.

Angles are degrees at the API boundary and radians internally. The true
covariance is carried around with its eigendecomposition (HermitianSpectrum,
once per scenario), since coloring, resolvents and deterministic
equivalents work in its eigenbasis. A sample covariance is a plain matrix
(scm); estimators holds its one reduction.

Randomness is counter-based: a 64-bit master seed plus a stream id key a
Philox generator, and trial i owns the counter range [i * 2**64, (i+1) *
2**64). The draw for trial i is therefore a pure function of (master_seed,
stream, trial) no matter how trials are chunked across workers.
"""

from __future__ import annotations

import functools
import json
import warnings
from dataclasses import asdict, dataclass, fields
from typing import ClassVar

import numpy as np

from .errors import ConfigError

# Relative floor for eigenvalue clamping and the conditioning diagnostic.
EIG_FLOOR_REL = 1e-12
COND_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class SteeringVector:
    """Unit-norm array response, entries exp(i*pi*k*sin(theta))/sqrt(N)."""

    entries: np.ndarray
    theta_deg: float

    @property
    def dim(self):
        return self.entries.shape[0]


def make_steering(N, theta_deg):
    """Steering vector of an N-element half-wavelength linear array."""
    if int(N) < 1:
        raise ConfigError(f"steering vector needs N >= 1, got N={N}")
    N = int(N)
    phase = np.pi * np.sin(np.deg2rad(float(theta_deg)))
    entries = np.exp(1j * phase * np.arange(N)) / np.sqrt(N)
    return SteeringVector(entries=entries, theta_deg=float(theta_deg))


class HermitianSpectrum:
    """A Hermitian positive definite matrix with its eigendecomposition.

    Eigenvalues below EIG_FLOOR_REL times the largest are clamped to that
    floor (with a warning); a condition number beyond COND_LIMIT raises a
    diagnostic warning but does not fail, since downstream quadratic forms
    are still well defined after clamping.
    """

    def __init__(self, matrix, eigenvalues, eigenvectors):
        self.matrix = matrix
        self.eigenvalues = eigenvalues
        self.eigenvectors = eigenvectors
        self._sqrt = None

    @classmethod
    def from_matrix(cls, A, label="covariance"):
        A = np.asarray(A)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ConfigError(f"{label} must be square, got shape {A.shape}")
        if not np.isfinite(A).all():
            raise ConfigError(f"{label} has non-finite entries")
        A = 0.5 * (A + A.conj().T)
        vals, vecs = np.linalg.eigh(A)
        top = float(vals[-1])
        if top <= 0:
            raise ConfigError(f"{label} is not positive definite")
        floor = EIG_FLOOR_REL * top
        if vals[0] < floor:
            warnings.warn(
                f"{label}: clamped {int(np.sum(vals < floor))} eigenvalue(s) "
                f"below {floor:.3e}", RuntimeWarning, stacklevel=2)
            vals = np.maximum(vals, floor)
        if top / vals[0] > COND_LIMIT:
            warnings.warn(
                f"{label}: condition number {top / vals[0]:.3e} exceeds "
                f"{COND_LIMIT:.0e}; results may be dominated by rounding",
                RuntimeWarning, stacklevel=2)
        return cls(A, vals, vecs)

    @property
    def dim(self):
        return self.eigenvalues.shape[0]

    def weights(self, v):
        """Eigenbasis coordinates V^H v of a vector."""
        return self.eigenvectors.conj().T @ np.asarray(v)

    def inv_quad(self, v):
        """v^H R^{-1} v, always real nonnegative."""
        w = self.weights(v)
        return float(np.sum(np.abs(w) ** 2 / self.eigenvalues))

    def quad(self, v):
        """v^H R v."""
        w = self.weights(v)
        return float(np.sum(np.abs(w) ** 2 * self.eigenvalues))

    def apply_inv(self, v):
        """R^{-1} v."""
        w = self.weights(v)
        return self.eigenvectors @ (w / self.eigenvalues)

    def sqrt_matrix(self):
        """Hermitian square root V diag(sqrt(rho)) V^H, cached."""
        if self._sqrt is None:
            self._sqrt = (self.eigenvectors * np.sqrt(self.eigenvalues)) \
                @ self.eigenvectors.conj().T
        return self._sqrt

    def inv_trace(self):
        return float(np.sum(1.0 / self.eigenvalues))


def as_spectrum(M):
    """A covariance M as a HermitianSpectrum; a matrix is decomposed."""
    if isinstance(M, HermitianSpectrum):
        return M
    return HermitianSpectrum.from_matrix(M)


def steering_entries(s):
    """The entries of a SteeringVector, or s itself as an array."""
    return s.entries if isinstance(s, SteeringVector) else np.asarray(s)


@dataclass(frozen=True)
class ToeplitzClutter:
    """Exponentially correlated clutter: power * one_lag**|i-j|."""

    clutter_power: float
    one_lag: float
    kind: ClassVar[str] = "toeplitz"

    def __post_init__(self):
        object.__setattr__(self, "clutter_power", float(self.clutter_power))
        object.__setattr__(self, "one_lag", float(self.one_lag))
        if not 0.0 <= self.clutter_power < np.inf:  # nan fails too
            raise ConfigError("clutter_power must be finite and >= 0")
        if not 0.0 <= self.one_lag < 1.0:
            raise ConfigError(
                f"one-lag correlation must lie in [0, 1), got {self.one_lag}")

    def matrix(self, N):
        idx = np.arange(N)
        return (self.clutter_power
                * self.one_lag ** np.abs(idx[:, None] - idx[None, :])
                ).astype(complex)


@dataclass(frozen=True)
class LowRankClutter:
    """Sum of discrete scatterer patches: sum_i p_i s(theta_i) s(theta_i)^H."""

    patch_angles_deg: tuple
    patch_powers: tuple
    kind: ClassVar[str] = "lowrank"

    def __post_init__(self):
        object.__setattr__(self, "patch_angles_deg",
                           tuple(float(a) for a in self.patch_angles_deg))
        object.__setattr__(self, "patch_powers",
                           tuple(float(p) for p in self.patch_powers))
        if len(self.patch_angles_deg) != len(self.patch_powers):
            raise ConfigError("patch angles and powers must align")
        if len(self.patch_angles_deg) == 0:
            raise ConfigError("low-rank clutter needs at least one patch")
        if not (np.isfinite(self.patch_angles_deg + self.patch_powers).all()
                and min(self.patch_powers) >= 0):
            raise ConfigError("finite patch angles and powers >= 0 required")

    @property
    def rank(self):
        return len(self.patch_angles_deg)

    def matrix(self, N):
        out = np.zeros((N, N), dtype=complex)
        for ang, pw in zip(self.patch_angles_deg, self.patch_powers):
            s = make_steering(N, ang).entries
            out += pw * np.outer(s, s.conj())
        return out


def _whole(name, value):
    """value as an int; ConfigError unless it is a whole number (a NaN,
    an infinity, a fraction or a string is not)."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value:
        raise ConfigError(f"{name} must be a whole number, got {value!r}")
    return n


@dataclass(frozen=True)
class Scenario:
    """Problem instance: dimensions, clutter model, noise floor, look angle.

    K > N is required throughout (c = N/K in (0, 1)); the adaptive filters
    and every asymptotic formula here are undefined otherwise.
    """

    N: int
    K: int
    clutter: ToeplitzClutter | LowRankClutter
    noise_power: float
    steering_deg: float

    def __post_init__(self):
        for name in ("N", "K"):
            object.__setattr__(self, name, _whole(name, getattr(self, name)))
        if self.N < 1 or self.K < 1:
            raise ConfigError(f"N and K must be >= 1, got N={self.N} K={self.K}")
        if self.K <= self.N:
            raise ConfigError(
                f"K must exceed N (adaptive detection and the asymptotic "
                f"regime both need c = N/K < 1), got N={self.N} K={self.K}")
        if not (0.0 < self.noise_power < np.inf
                and np.isfinite(self.steering_deg)):
            raise ConfigError(
                f"noise_power must be finite and > 0 and steering_deg finite, "
                f"got {self.noise_power} and {self.steering_deg}")

    @property
    def c(self):
        return self.N / self.K

    @property
    def steering(self):
        return make_steering(self.N, self.steering_deg)

    def covariance(self):
        return build_covariance(self)


@functools.lru_cache(maxsize=64)
def build_covariance(scenario):
    """Clutter-plus-noise covariance as a HermitianSpectrum, decomposed once
    per (frozen) scenario; callers share it, so its arrays are read-only."""
    R = scenario.clutter.matrix(scenario.N)
    R[np.diag_indices(scenario.N)] += scenario.noise_power
    spec = HermitianSpectrum.from_matrix(R, label="scenario covariance")
    for a in (spec.matrix, spec.eigenvalues, spec.eigenvectors):
        a.flags.writeable = False
    return spec


@dataclass(frozen=True)
class Swerling0:
    """Nonfluctuating target with fixed complex amplitude."""

    amplitude: complex = 1.0
    model: ClassVar[str] = "swerling0"

    def draw_amplitude(self, rng):
        # Deterministic; rng untouched so the draw layout stays fixed.
        return complex(self.amplitude)


@dataclass(frozen=True)
class Swerling1:
    """Rayleigh-fluctuating target, amplitude CN(0, power)."""

    power: float = 1.0
    model: ClassVar[str] = "swerling1"

    def __post_init__(self):
        if self.power < 0:
            raise ConfigError("Swerling I power must be >= 0")

    def draw_amplitude(self, rng):
        x = rng.standard_normal(2)
        return np.sqrt(self.power / 2) * (x[0] + 1j * x[1])


TARGET_MODELS = {"swerling0": Swerling0, "swerling1": Swerling1}


@dataclass(frozen=True, eq=False)
class SampleSet:
    """One trial: primary vector y0 and N x K secondary matrix Y."""

    y0: np.ndarray
    Y: np.ndarray
    hypothesis: str


def philox_key(master_seed, stream):
    """2x64-bit Philox key derived from (master_seed, stream), each a whole
    number >= 0 (else ConfigError)."""
    entropy = (_whole("seed", master_seed), _whole("stream", stream))
    if min(entropy) < 0:
        raise ConfigError(f"seed and stream must be >= 0, got seed "
                          f"{entropy[0]} and stream {entropy[1]}")
    return np.random.SeedSequence(entropy=entropy).generate_state(2, np.uint64)


def trial_rng(master_seed, stream, trial):
    """Generator owning the counter block of one trial.

    Philox keyed by (master_seed, stream) with the 256-bit counter advanced
    to trial * 2**64: disjoint counter ranges per trial, so results never
    depend on chunking or worker count.
    """
    if trial < 0:
        raise ConfigError("trial index must be >= 0")
    bitgen = np.random.Philox(counter=int(trial) << 64,
                              key=philox_key(master_seed, stream))
    return np.random.Generator(bitgen)


def _standard_complex_block(rng, N, M):
    # One flat draw, reals then imaginaries, reshaped N x M. The batched
    # sampler in the harness reproduces this layout bit for bit.
    z = rng.standard_normal(2 * N * M)
    return (z[:N * M].reshape(N, M) + 1j * z[N * M:].reshape(N, M)) / np.sqrt(2)


def sample_dataset(scenario, target, hypothesis, rng):
    """Draw one primary vector and K secondary vectors.

    The per-trial draw order is fixed: one block of 2*N*(K+1) standard
    normals (primary clutter in column 0, secondary columns after), then the
    target amplitude when the model fluctuates. Under h0 the target model is
    ignored entirely.
    """
    if hypothesis not in ("h0", "h1"):
        raise ConfigError(f"hypothesis must be 'h0' or 'h1', got {hypothesis!r}")
    N, K = scenario.N, scenario.K
    R = scenario.covariance()
    block = R.sqrt_matrix() @ _standard_complex_block(rng, N, K + 1)
    y0 = block[:, 0].copy()
    Y = block[:, 1:]
    if hypothesis == "h1":
        if target is None:
            raise ConfigError("h1 sampling needs a target model")
        b = target.draw_amplitude(rng)
        y0 = y0 + b * scenario.steering.entries
    return SampleSet(y0=y0, Y=Y, hypothesis=hypothesis)


def scm(samples):
    """Sample covariance (1/K) Y Y^H of the secondary data, as the (N, N)
    matrix the trial engine forms; nothing is decomposed here."""
    Y = samples.Y if isinstance(samples, SampleSet) else np.asarray(samples)
    if Y.ndim != 2 or Y.shape[1] < 1:
        raise ConfigError("secondary data must be a nonempty N x K matrix")
    return (Y @ Y.conj().T) / Y.shape[1]


# --- scenario (de)serialization ------------------------------------------

CLUTTER_MODELS = {c.kind: c for c in (ToeplitzClutter, LowRankClutter)}


def _clutter_from_json(doc):
    model = CLUTTER_MODELS.get(doc.get("type"))
    if model is None:
        raise ConfigError(f"unknown clutter type {doc.get('type')!r}")
    return model(*(doc[f.name] for f in fields(model)))


def _clutter_to_json(clutter):
    return {"type": clutter.kind, **{k: list(v) if isinstance(v, tuple) else v
                                     for k, v in asdict(clutter).items()}}


def parse_document(text):
    """Scenario JSON text as a dict; NaN and Infinity raise ConfigError."""
    def reject(name):
        raise ConfigError(f"scenario file holds {name}, not a finite number")
    try:
        return json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as e:
        raise ConfigError(f"scenario file is not valid JSON: {e}") from e


def scenario_from_json(doc):
    """Parse a scenario document (dict or JSON text).

    Returns (Scenario, target_model_name). The target block carries only the
    model choice; amplitudes are set by the harness from the SCNR under test.
    """
    if isinstance(doc, (str, bytes)):
        doc = parse_document(doc)
    try:
        scen = Scenario(N=doc["N"], K=doc["K"],
                        clutter=_clutter_from_json(doc["clutter"]),
                        noise_power=float(doc["noise_power"]),
                        steering_deg=float(doc["steering_deg"]))
    except KeyError as e:
        raise ConfigError(f"scenario document missing field {e.args[0]!r}") from e
    target = doc.get("target", {"model": "swerling0"})
    model = target.get("model", "swerling0")
    if model not in TARGET_MODELS:
        raise ConfigError(f"unknown target model {model!r}")
    return scen, model


def scenario_to_json(scenario, target_model="swerling0"):
    return {"N": scenario.N, "K": scenario.K,
            "clutter": _clutter_to_json(scenario.clutter),
            "noise_power": scenario.noise_power,
            "steering_deg": scenario.steering_deg,
            "target": {"model": target_model}}
