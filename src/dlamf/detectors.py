"""Detector kinds: one loaded-filter statistic and a table.

Every detector here squares a filter output alpha = s^H M^{-1} y0 and
divides it by a normalizer. For all but the clairvoyant filter, M is the
loaded sample covariance Rhat + lam I, so a kind is two facts, kept in
KINDS: where its loading lam comes from and what divides |alpha|^2. The
loading is none (np filters with the true R), zero, the spec's fixed lam,
the expected-likelihood rule (el), the oracle optimum lambda_opt of R
(oracle-opt), the per-trial optimum of kappa_lower_hat (adaptive-opt), or
zero on the persymmetrized SCM (persym). The normalizer is
beta = s^H (Rhat + lam I)^{-1} s, beta0 (beta at lam = 0), one, the oracle
mu0 of rmt, the plug-in mu0_hat, or q = s^H R^{-1} s for np.

A Plan reads the table for a set of detectors: the loadings fixed for the
whole run, the per-trial searches it needs and the oracle constants. Its
spectral_forms compute (alpha, beta, mu0_hat) at every such loading from
rows of SCM spectra, and assemble picks each kind's pieces from those
forms. The Monte Carlo harness runs them on a chunk of trials at a time
(or takes the forms at fixed loadings from Cholesky factors instead);
evaluate_statistic runs the same code on one trial. Oracle kinds see the
true covariance; adaptive kinds see only the sample covariance and are
structurally barred from the truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import estimators, optimizer, rmt
from .errors import ConfigError, NumericalError
from .rmt import _square
from .scenario import HermitianSpectrum, as_spectrum, steering_entries

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


@dataclass(frozen=True)
class Kind:
    loading: str   # none, zero, fixed, el, oracle-opt, adaptive-opt, persym
    norm: str      # beta, beta0, one, mu0, mu0_hat, q
    oracle: bool = False   # reads the true covariance at evaluation time


KINDS = {
    NP: Kind("none", "q", oracle=True),
    SCM_AMF: Kind("zero", "beta"),
    DL_AMF: Kind("fixed", "beta"),
    DL_SCM_BETA: Kind("fixed", "beta0"),
    DL_RAW: Kind("fixed", "one"),
    CFAR_DL_SCMF: Kind("fixed", "mu0", oracle=True),
    CFAR_DL_AMF: Kind("fixed", "mu0_hat"),
    EL_AMF: Kind("el", "beta"),
    CFAR_EL_AMF: Kind("el", "mu0_hat"),
    PERSYM_AMF: Kind("persym", "beta"),
    OPT_CFAR_DL_SCMF: Kind("oracle-opt", "mu0", oracle=True),
    OPT_CFAR_DL_AMF: Kind("adaptive-opt", "mu0_hat"),
}

ALL_TAGS = tuple(KINDS)
ORACLE_TAGS = frozenset(t for t, k in KINDS.items() if k.oracle)
# kinds that require a fixed loading factor
FIXED_LAMBDA_TAGS = frozenset(t for t, k in KINDS.items()
                              if k.loading == "fixed")
# kinds whose statistic is unit-exponential under h0 by construction
CFAR_TAGS = frozenset(t for t, k in KINDS.items()
                      if k.norm in ("q", "mu0", "mu0_hat"))


@dataclass(frozen=True)
class DetectorSpec:
    """A detector kind plus its loading factor, if it takes one."""

    kind: str
    lam: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
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
        return KINDS[self.kind].loading != "none"

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


class Plan:
    """What a set of detectors needs per trial, read from KINDS.

    fixed_lams holds the loadings fixed for the whole run in order of first
    use (0 for scm-amf and the beta0 normalizer, a spec's lam, the oracle
    optimum); mu0_lams the loadings (or per-trial sources) whose mu0_hat is
    needed. R, required by the oracle kinds, gives q, R^{-1} s and the
    oracle mu0 and optimum; design finds that optimum (optimizer.lambda_opt
    when None).
    """

    def __init__(self, specs, s, K, R=None, opt_config=None, design=None):
        self.specs = list(specs)
        self.s = steering_entries(s)
        self.N = self.s.shape[0]
        self.K = K
        self.opt_config = opt_config
        kinds = [KINDS[sp.kind] for sp in self.specs]
        sources = {k.loading for k in kinds}
        self.need_scm = sources != {"none"}
        self.need_el = "el" in sources
        self.need_opt = "adaptive-opt" in sources
        self.need_persym = "persym" in sources
        self.log_zeta = (estimators.log_zeta_median(self.N, K)
                         if self.need_el else None)

        self.q = self.t_conj = self.opt_lambda = None
        if R is not None:
            self.q = R.inv_quad(self.s)
            self.t_conj = np.conj(R.apply_inv(self.s))
            if "oracle-opt" in sources:
                design = design or optimizer.lambda_opt
                self.opt_lambda = design(R, self.s, K,
                                         opt_config).lambda_star
        lams, self.mu0_lams, self.oracle_mu0 = [], set(), {}
        for sp, kind in zip(self.specs, kinds):
            key = self.key(sp)
            if not isinstance(key, str):
                lams.append(key)
            if kind.norm == "beta0":
                lams.append(0.0)
            elif kind.norm == "mu0":
                self.oracle_mu0[key] = rmt.deterministic_equivalents(
                    R, self.s, key, K).mu0
            elif kind.norm == "mu0_hat":
                self.mu0_lams.add(key)
        self.fixed_lams = list(dict.fromkeys(lams))
        if self.mu0_lams and K < self.N:
            raise ConfigError(
                f"estimators need K >= N, got N={self.N} K={K}")

    def key(self, spec):
        """spec's loading: a number when fixed for the run, else its source."""
        source = KINDS[spec.kind].loading
        return {"zero": 0.0, "fixed": spec.lam,
                "oracle-opt": self.opt_lambda}.get(source, source)

    def row_forms(self, l, w2, wz, lam, with_mu0):
        """(alpha, beta, mu0_hat or None) rows at one loading per row.

        l, w2 = |V^H s|^2 and wz = conj(V^H s) (V^H y0) are (B, N) rows of
        SCM spectra and lam is (B,). Unloaded rows must be invertible.
        """
        unloaded = lam == 0.0
        if unloaded.any():
            guard_invertible(l[unloaded, 0], l[unloaded, -1])
        d1, beta, num, alpha = estimators._loaded_rows(
            l, w2, lam[:, None], self.K, wz)
        mu0h = num[:, 0] / _square(d1[:, 0]) if with_mu0 else None
        return alpha[:, 0], beta[:, 0], mu0h

    def spectral_forms(self, l, w2, wz):
        """row_forms at every loading of the set but persym's, keyed by
        fixed loading, 'el' and 'adaptive-opt'; the searches run here."""
        lams = {lam: np.full(l.shape[0], lam) for lam in self.fixed_lams}
        if self.need_el:
            lams["el"] = estimators._el_rows(l, self.log_zeta)
        if self.need_opt:
            lams["adaptive-opt"] = optimizer.lambda_opt_rows(
                l, w2, self.K, self.opt_config)[0]
        return {key: self.row_forms(l, w2, wz, lam, key in self.mu0_lams)
                for key, lam in lams.items()}

    def assemble(self, spec, forms, y0):
        """spec's (alpha, beta, norm) rows from the forms of its loading.

        |alpha|^2 / norm is the statistic, and alpha + b beta the filter
        output when a target of amplitude b adds b s to y0 (B, N).
        """
        kind = KINDS[spec.kind]
        key = self.key(spec)
        if kind.loading == "none":
            B = y0.shape[0]
            alpha, beta, mu0h = y0 @ self.t_conj, np.full(B, self.q), None
        else:
            alpha, beta, mu0h = forms[key]
            B = alpha.shape[0]
        if kind.norm == "beta0":
            return alpha, beta, forms[0.0][1]
        if kind.norm == "one":
            return alpha, beta, np.ones(B)
        if kind.norm == "mu0":
            return alpha, beta, np.full(B, self.oracle_mu0[key])
        if kind.norm == "mu0_hat":
            return alpha, beta, mu0h
        return alpha, beta, beta  # beta, or q for np


def evaluate_statistic(spec, y0, s, K, scm=None, R=None, opt_config=None):
    """One trial's statistic for a DetectorSpec: the trial engine's
    Plan.spectral_forms and Plan.assemble on one row, the SCM spectrum's.

    R is required for oracle kinds and must be omitted for adaptive ones;
    scm is required for everything except the clairvoyant filter.
    """
    kind = KINDS[spec.kind]
    if kind.oracle:
        if R is None:
            raise ConfigError(f"detector {spec.kind!r} needs the true "
                              f"covariance")
    elif R is not None:
        raise ConfigError(f"adaptive detector {spec.kind!r} must not read "
                          f"the true covariance")
    if kind.loading != "none" and scm is None:
        raise ConfigError(f"detector {spec.kind!r} needs a sample covariance")

    if R is not None:
        R = as_spectrum(R, "covariance")
    plan = Plan([spec], s, K, R, opt_config)
    y0 = np.asarray(y0)
    forms = {}
    if plan.need_scm:
        scm = as_spectrum(scm, "sample covariance")
        if plan.need_persym:
            A = scm.matrix
            scm = HermitianSpectrum.from_matrix(
                0.5 * (A + np.conj(A)[::-1, ::-1]),
                label="persymmetrized SCM")
        w = scm.weights(plan.s)
        row = (scm.eigenvalues[None], (np.abs(w) ** 2)[None],
               (np.conj(w) * scm.weights(y0))[None])
        forms = plan.spectral_forms(*row)
        if plan.need_persym:
            forms["persym"] = plan.row_forms(*row, np.zeros(1), False)
    alpha, _, norm = plan.assemble(spec, forms, y0[None])
    return float(np.abs(alpha[0]) ** 2 / norm[0])
