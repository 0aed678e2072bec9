"""Detector statistics: clairvoyant, SCM, loaded, CFAR-normalized, adaptive.

Scalar reference implementations, one trial at a time. The Monte Carlo
harness has a batched path that must agree with these to rounding; a test
pins that. Statistics are grouped by what they may read: oracle kinds see
the true covariance (clairvoyant filter, oracle CFAR normalizations),
adaptive kinds see only the sample covariance and are structurally barred
from the truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import estimators, optimizer, rmt
from .errors import ConfigError, NumericalError
from .scenario import HermitianSpectrum, SteeringVector

NP = "np"
SCM_AMF = "scm-amf"
DL_AMF = "dl-amf"
DL_SCM_BETA = "dl-scm-beta"
DL_RAW = "dl-raw"
CFAR_DL_SCMF = "cfar-dl-scmf"
CFAR_DL_AMF = "cfar-dl-amf"
EL_AMF = "el-amf"
CFAR_EL_AMF = "cfar-el-amf"
PERSYM_AMF = "persym-amf"
OPT_CFAR_DL_SCMF = "opt-cfar-dl-scmf"
OPT_CFAR_DL_AMF = "opt-cfar-dl-amf"

ALL_TAGS = (NP, SCM_AMF, DL_AMF, DL_SCM_BETA, DL_RAW, CFAR_DL_SCMF,
            CFAR_DL_AMF, EL_AMF, CFAR_EL_AMF, PERSYM_AMF, OPT_CFAR_DL_SCMF,
            OPT_CFAR_DL_AMF)

# kinds that read the true covariance at evaluation time
ORACLE_TAGS = frozenset({NP, CFAR_DL_SCMF, OPT_CFAR_DL_SCMF})
# kinds that require a fixed loading factor
FIXED_LAMBDA_TAGS = frozenset({DL_AMF, DL_SCM_BETA, DL_RAW, CFAR_DL_SCMF,
                               CFAR_DL_AMF})
# kinds whose statistic is unit-exponential under h0 by construction
CFAR_TAGS = frozenset({NP, CFAR_DL_SCMF, CFAR_DL_AMF, CFAR_EL_AMF,
                       OPT_CFAR_DL_SCMF, OPT_CFAR_DL_AMF})


@dataclass(frozen=True)
class DetectorSpec:
    """A detector kind plus its loading factor, if it takes one."""

    kind: str
    lam: float | None = None

    def __post_init__(self):
        if self.kind not in ALL_TAGS:
            raise ConfigError(f"unknown detector kind {self.kind!r}; "
                              f"expected one of {ALL_TAGS}")
        if self.kind in FIXED_LAMBDA_TAGS:
            if self.lam is None or self.lam < 0:
                raise ConfigError(
                    f"detector {self.kind!r} needs a loading factor >= 0")
        elif self.lam is not None:
            raise ConfigError(
                f"detector {self.kind!r} does not take a loading factor")

    @property
    def label(self):
        if self.lam is None:
            return self.kind
        return f"{self.kind}(lam={self.lam:g})"

    @property
    def is_adaptive(self):
        return self.kind != NP

    @property
    def is_cfar(self):
        return self.kind in CFAR_TAGS


def make_opt_detector(mode):
    """Loading-optimized CFAR detector: 'oracle' normalizes and selects the
    loading from the true covariance, 'adaptive' does both from the SCM."""
    if mode == "oracle":
        return DetectorSpec(OPT_CFAR_DL_SCMF)
    if mode == "adaptive":
        return DetectorSpec(OPT_CFAR_DL_AMF)
    raise ConfigError(f"mode must be 'oracle' or 'adaptive', got {mode!r}")


def _entries(s):
    return s.entries if isinstance(s, SteeringVector) else np.asarray(s)


def _as_spectrum(M, label):
    if isinstance(M, HermitianSpectrum):
        return M
    return HermitianSpectrum.from_matrix(M, label=label)


def guard_invertible(l_min, l_max):
    """Raise NumericalError where l_min <= 1e-10 * l_max.

    l_min and l_max are the extreme eigenvalues of an unloaded sample
    covariance, or an upper bound on the smallest and a lower bound on the
    largest; arrays are checked row by row, and one singular row fails all.
    The threshold sits above the eigenvalue clamp floor (1e-12 relative),
    so a rank-deficient SCM that was clamped on construction still trips it.
    """
    if np.any(np.asarray(l_min) <= 1e-10 * np.asarray(l_max)):
        raise NumericalError("sample covariance is numerically singular; "
                             "need K >= N secondary snapshots")


def loaded_forms(scm, s, y0, lam):
    """(alpha, beta) of the loaded filter: s^H (Rhat+lam)^{-1} y0 and
    s^H (Rhat+lam)^{-1} s."""
    scm = _as_spectrum(scm, "sample covariance")
    if lam < 0:
        raise ConfigError("loading factor must be >= 0")
    if lam == 0.0:
        guard_invertible(scm.eigenvalues[0], scm.eigenvalues[-1])
    w = scm.weights(_entries(s))
    z = scm.weights(np.asarray(y0))
    den = scm.eigenvalues + lam
    alpha = complex(np.sum(w.conj() * z / den))
    beta = float(np.sum(np.abs(w) ** 2 / den))
    return alpha, beta


def stat_np(R, s, y0):
    """Clairvoyant matched filter |s^H R^{-1} y0|^2 / s^H R^{-1} s.

    Unit-exponential under h0; the SCNR reference every loss is quoted
    against.
    """
    R = _as_spectrum(R, "covariance")
    t = R.apply_inv(_entries(s))
    q = R.inv_quad(_entries(s))
    return float(np.abs(t.conj() @ np.asarray(y0)) ** 2 / q)


def stat_amf(scm, s, y0):
    """Unloaded adaptive matched filter |s^H Rhat^{-1} y0|^2 / s^H Rhat^{-1} s."""
    alpha, beta = loaded_forms(scm, s, y0, 0.0)
    return float(np.abs(alpha) ** 2 / beta)


def stat_dl_family(scm, s, y0, lam, variant=DL_AMF):
    """Loaded filter with one of three normalizations.

    'dl-amf' divides by the loaded quadratic form, 'dl-scm-beta' by the
    unloaded one, 'dl-raw' not at all. Only the first is asymptotically
    scale-stable across scenarios; the others exist to quantify that.
    """
    scm = _as_spectrum(scm, "sample covariance")
    alpha, beta_l = loaded_forms(scm, s, y0, lam)
    if variant == DL_AMF:
        return float(np.abs(alpha) ** 2 / beta_l)
    if variant == DL_SCM_BETA:
        _, beta0 = loaded_forms(scm, s, y0, 0.0)
        return float(np.abs(alpha) ** 2 / beta0)
    if variant == DL_RAW:
        return float(np.abs(alpha) ** 2)
    raise ConfigError(f"unknown loaded-filter variant {variant!r}")


def stat_cfar_dl_scmf(scm, R, s, y0, lam, K):
    """Loaded filter normalized by the oracle mu0(R, s, lam): exactly
    asymptotically unit-exponential under h0, but needs the true R."""
    alpha, _ = loaded_forms(scm, s, y0, lam)
    mu0 = rmt.deterministic_equivalents(R, s, lam, K).mu0
    return float(np.abs(alpha) ** 2 / mu0)


def stat_cfar_dl_amf(scm, s, y0, lam, K):
    """Loaded filter normalized by the plug-in mu0_hat: the practical CFAR
    detector, true covariance never touched."""
    scm = _as_spectrum(scm, "sample covariance")
    alpha, _ = loaded_forms(scm, s, y0, lam)
    return float(np.abs(alpha) ** 2 / estimators.mu0_hat(scm, s, lam, K))


def stat_el(scm, s, y0, K, cfar=True):
    """Loaded filter at the expected-likelihood loading factor.

    cfar=True normalizes by mu0_hat at the selected loading (CFAR version);
    cfar=False keeps the plain loaded-AMF normalization.
    """
    scm = _as_spectrum(scm, "sample covariance")
    lam = estimators.el_lambda(scm, K)
    if cfar:
        return stat_cfar_dl_amf(scm, s, y0, lam, K)
    return stat_dl_family(scm, s, y0, lam, DL_AMF)


def stat_opt_cfar_dl(scm, s, y0, K, R=None, opt_config=None):
    """Loading-optimized CFAR detector.

    With R given (oracle mode) the loading maximizes kappa and mu0 comes
    from the true covariance; without it (adaptive mode) both come from the
    SCM via kappa_lower_hat and mu0_hat.
    """
    scm = _as_spectrum(scm, "sample covariance")
    if R is not None:
        lam = optimizer.lambda_opt(R, s, K, opt_config).lambda_star
        return stat_cfar_dl_scmf(scm, R, s, y0, lam, K)
    lam = optimizer.lambda_opt_hat(scm, s, K, opt_config).lambda_star
    return stat_cfar_dl_amf(scm, s, y0, lam, K)


def persymmetrize(A):
    """Average A with its flip-conjugate J conj(A) J (J the exchange matrix).

    Centro-Hermitian structure holds for the clutter models here, so this is
    the classical sample-doubling trick; included as the structured
    competitor, not part of the loaded-filter family.
    """
    return 0.5 * (A + np.conj(A)[::-1, ::-1])


def stat_persymmetric_amf(scm, s, y0):
    """AMF built on the persymmetrized SCM."""
    A = scm.matrix if isinstance(scm, HermitianSpectrum) else np.asarray(scm)
    spec = HermitianSpectrum.from_matrix(persymmetrize(A),
                                         label="persymmetrized SCM")
    return stat_amf(spec, s, y0)


def evaluate_statistic(spec, y0, s, K, scm=None, R=None, opt_config=None):
    """Dispatch a DetectorSpec to its scalar statistic.

    R is required for oracle kinds and must be omitted for adaptive ones;
    scm is required for everything except the clairvoyant filter.
    """
    kind = spec.kind
    if kind in ORACLE_TAGS:
        if R is None:
            raise ConfigError(f"detector {kind!r} needs the true covariance")
    elif R is not None and kind != NP:
        raise ConfigError(f"adaptive detector {kind!r} must not read the "
                          f"true covariance")
    if kind != NP and scm is None:
        raise ConfigError(f"detector {kind!r} needs a sample covariance")

    if kind == NP:
        return stat_np(R, s, y0)
    if kind == SCM_AMF:
        return stat_amf(scm, s, y0)
    if kind in (DL_AMF, DL_SCM_BETA, DL_RAW):
        return stat_dl_family(scm, s, y0, spec.lam, kind)
    if kind == CFAR_DL_SCMF:
        return stat_cfar_dl_scmf(scm, R, s, y0, spec.lam, K)
    if kind == CFAR_DL_AMF:
        return stat_cfar_dl_amf(scm, s, y0, spec.lam, K)
    if kind == EL_AMF:
        return stat_el(scm, s, y0, K, cfar=False)
    if kind == CFAR_EL_AMF:
        return stat_el(scm, s, y0, K, cfar=True)
    if kind == PERSYM_AMF:
        return stat_persymmetric_amf(scm, s, y0)
    if kind == OPT_CFAR_DL_SCMF:
        return stat_opt_cfar_dl(scm, s, y0, K, R=R, opt_config=opt_config)
    if kind == OPT_CFAR_DL_AMF:
        return stat_opt_cfar_dl(scm, s, y0, K, R=None, opt_config=opt_config)
    raise ConfigError(f"unknown detector kind {kind!r}")
