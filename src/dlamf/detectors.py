"""Detector kinds: one loaded-filter statistic, a table, and the plan that
takes a block of sample covariances to every kind's statistic.

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
run, the per-trial searches, the oracle constants and the route by which
sample covariances S are reduced. Its one exit, Plan.coefficients, takes
a block of trials' S, in the corner of a bordered buffer, to every kind's
(alpha, beta, norm) in one pass and refuses out-of-range statistics;
statistic forms |alpha + b beta|^2 / norm. The trial engine (harness)
calls it on blocks it draws, evaluate_statistic on a block of one trial,
so the two agree bit for bit and fail alike. Oracle kinds see the true
covariance, adaptive kinds only S.

The route follows from the detector set alone:

- spectral, when a kind picks its loading per trial (el-amf, cfar-el-amf,
  opt-cfar-dl-amf): the rows l, |V^H s|^2 and conj(V^H s) (V^H y0) of
  estimators._spectral_rows (zhetrd, dstev and zunmqr; the package's one
  decomposition of a sample covariance, which the scalar estimators run
  too) feed the EL and opt searches, and one estimators._loaded_rows call
  forms every loading of the set as a column of a (B, m) array;
- Cholesky, for every other set: one bordered Cholesky factorization of
  S + lam I per distinct fixed loading (0 for scm-amf and the dl-scm-beta
  normalizer), shared by all kinds at that loading. Each loading rewrites
  only S's diagonal, restored after the last. LAPACK zpotrf factors a
  copy of the block in place, one matrix at a time, in a buffer of
  Fortran-ordered matrices (Plan.factor_buffer) that every factorization
  overwrites: the call of np.linalg.cholesky, so the same bits, without
  its copies in and out. cfar-dl-amf's mu0_hat comes from a triangular
  inverse of the factor.

persym-amf comes last on both routes: the persymmetrized SCM overwrites S
in the bordered buffer and is factored there by Cholesky. The per-matrix
LAPACK loops of both routes hold SciPy's BLAS pool at one thread
(blas.one_scipy_thread), so it does not fight NumPy's pool. Unloaded
forms raise NumericalError on a numerically singular SCM. Complex
products of per-trial arrays are explicit np.multiply calls: with `*`,
NumPy may reuse a temporary of 256 KiB or more as the output with the
operands swapped, which rounds differently and would tie the bits to the
number of trials in an array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import zpotrf, ztrtri

from . import blas, estimators, optimizer, rmt
from .errors import ConfigError, NumericalError, require_finite
from .scenario import as_spectrum, steering_entries

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
            # nan and inf fail the comparison too, as in rmt._loadings
            if self.lam is None or not 0.0 <= self.lam < math.inf:
                raise ConfigError(f"detector {self.kind!r} needs a finite "
                                  f"loading factor >= 0, got {self.lam}")
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


# stands in for +inf on the border diagonal of Plan._border
_BORDER = 1e200
_TINY = np.finfo(float).tiny  # the smallest h0 statistic coefficients passes


def statistic(coeffs, b=None):
    """|alpha + b beta|^2 / norm of one kind's (alpha, beta, norm) at
    target amplitude b, or without b the h0 statistic |alpha|^2 / norm."""
    alpha, beta, norm = coeffs
    if b is not None:
        alpha = alpha + b * beta
    return np.abs(alpha) ** 2 / norm


class Plan:
    """What a set of detectors needs per trial, read from KINDS.

    fixed_lams holds the loadings fixed for the whole run in order of first
    use (0 for scm-amf and the beta0 normalizer, a spec's lam, the oracle
    optimum); mu0_lams the loadings (or per-trial sources) whose mu0_hat is
    needed. R, required by the oracle kinds, gives q, R^{-1} s and the
    oracle mu0 and optimum; design finds that optimum (optimizer.lambda_opt
    when None). spectral names the route (see the module docstring).
    """

    def __init__(self, specs, s, K, R=None, opt_config=None, design=None):
        self.specs = list(specs)
        self.labels = [sp.label for sp in self.specs]
        if len(set(self.labels)) != len(self.labels):
            raise ConfigError(f"duplicate detector labels in {self.labels}")
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
        self.spectral = self.need_el or self.need_opt
        self.need_factor = self.need_persym or (self.need_scm
                                                and not self.spectral)
        self.log_zeta = (estimators.log_zeta_median(self.N, K)
                         if self.need_el else None)

        self.q = self.t_conj = self.opt_lambda = None
        if R is not None:
            R = as_spectrum(R)
            self.q = R.inv_quad(self.s)
            require_finite(self.q, "q = s^H R^-1 s", "the powers are out of "
                           "floating-point range", nonzero=True)
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

    def _border(self, A, y0):
        """Write the border of [[M, X], [X^H, D]], X = [s, y0] and
        D = _BORDER I, into A below the diagonal (all Cholesky reads)."""
        N = self.N
        A[:, N, :N] = np.conj(self.s)
        np.conjugate(y0, out=A[:, N + 1, :N])
        A[:, N, N] = A[:, N + 1, N + 1] = _BORDER

    def factor_buffer(self, B):
        """(B, N+2, N+2) buffer of Fortran-ordered matrices, in which
        _cholesky_forms factors a bordered buffer in place."""
        n = self.N + 2
        return np.empty((B, n, n), dtype=complex).transpose(0, 2, 1)

    def coefficients(self, A, y0, F=None):
        """{label: (alpha, beta, norm)} of every kind on a block of trials
        y0 (B, N), whose SCMs fill the top-left N x N block of A, a
        (B, N+2, N+2) buffer zero elsewhere (None when no kind needs an
        SCM); F, a factor_buffer of at least B trials, is reused when
        given. A kind whose h0 statistics are not all finite and normal
        raises NumericalError.
        """
        out, forms = {}, {}
        # NumPy's warnings are off: each value formed reaches the check
        with np.errstate(all="ignore"):
            if self.need_scm:
                self._border(A, y0)
                forms = self._forms(A, y0, F)
            for label, sp in zip(self.labels, self.specs):
                out[label] = coeffs = self._assemble(sp, forms, y0)
                h0 = statistic(coeffs)
                # ufunc reductions: a block of one trial pays no dispatch
                if not (np.minimum.reduce(h0) >= _TINY
                        and np.maximum.reduce(h0) < math.inf):
                    raise NumericalError(
                        f"{sp.kind} at loading {self.key(sp)} gives zero, "
                        "subnormal or non-finite statistics; the loading or "
                        "the powers are out of floating-point range")
        return out

    def _forms(self, A, y0, F):
        """(alpha, beta, mu0_hat or None) of the block in A at every
        loading, keyed by its fixed value, "el", "adaptive-opt" or "persym".
        The spectral route runs the EL and opt searches row by row, then
        forms every loading as a column of one (B, m) row kernel call.
        Either route leaves S as it found it, and persym-amf then writes
        the persymmetrized SCM into S's place and factors it there.
        """
        N, B = self.N, A.shape[0]
        S = A[:, :N, :N]
        if self.need_factor:
            F = self.factor_buffer(B) if F is None else F[:B]
        if self.spectral:
            rows = estimators._spectral_rows(S, self.s, y0)
            l, w2 = rows["l"], rows["w2"]
            cols = {lam: np.full(B, lam) for lam in self.fixed_lams}
            if self.need_el:
                cols["el"] = estimators._el_rows(l, self.log_zeta)
            if self.need_opt:
                cols["adaptive-opt"] = optimizer.lambda_opt_rows(
                    l, w2, self.K, self.opt_config)[0]
            lams = np.stack(list(cols.values()), axis=1)
            unloaded = (lams == 0.0).any(1)
            if unloaded.any():
                estimators.guard_invertible(l[unloaded, 0], l[unloaded, -1])
            d1, beta, num, alpha = estimators._loaded_rows(
                l, w2, lams, self.K, rows["wz"])
            out = {key: (alpha[:, j], beta[:, j],
                         num[:, j] / (d1[:, j] * d1[:, j])
                         if key in self.mu0_lams else None)
                   for j, key in enumerate(cols)}
        else:
            out = {}
            diag = np.arange(N)
            diag_S = S[:, diag, diag]
            for lam in self.fixed_lams:
                S[:, diag, diag] = diag_S + lam
                out[lam] = _cholesky_forms(A, lam, self,
                                           lam in self.mu0_lams, F)
            S[:, diag, diag] = diag_S
        if self.need_persym:
            # 0.5 (S + J S^T J): J S^T J reads the lower triangle of S where
            # J conj(S) J reads the upper one; the two agree on a Hermitian S
            np.add(S, S.transpose(0, 2, 1)[:, ::-1, ::-1], out=S)
            S *= 0.5
            out["persym"] = _cholesky_forms(A, 0.0, self, False, F)
        return out

    def _assemble(self, spec, forms, y0):
        """spec's (alpha, beta, norm) rows from the forms of its loading."""
        kind = KINDS[spec.kind]
        key = self.key(spec)
        if kind.loading == "none":
            B = y0.shape[0]
            # NumPy sends one row to BLAS dot and more rows to gemv, which
            # rounds differently; a lone trial goes through gemv twice
            alpha = (y0 if B > 1 else np.repeat(y0, 2, axis=0)) @ self.t_conj
            alpha, beta, mu0h = alpha[:B], np.full(B, self.q), None
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


@blas.one_scipy_thread()
def _cholesky_forms(A, lam, plan, with_mu0, F):
    """(alpha, beta, mu0h) at loading lam from one Cholesky factorization.

    A is a bordered buffer whose top-left block holds M + lam I. Its factor
    is [[L, 0], [W, *]] with L L^H = M + lam I and W^H = L^{-1} X, so the
    forward substitutions u = L^{-1} s and v = L^{-1} y0 come out of the
    same LAPACK call. Only the lower triangle is read, so M need not be
    symmetrized. D = _BORDER keeps the trailing 2x2 Schur complement
    positive; it does not touch L or W. mu0h needs
    tr((M + lam I)^{-1}) = ||L^{-1}||_F^2 and
    s^H (M + lam I)^{-1} M (M + lam I)^{-1} s = beta - lam ||u^H L^{-1}||^2.

    zpotrf factors a copy of A in F (a Plan.factor_buffer of A's trials)
    in place: the call np.linalg.cholesky makes, without its copies in
    and out. clean=1 zeroes the upper triangle, which
    _inverse_norms sums over, as NumPy does; the border rows are read
    through a C-ordered copy, contiguous as in NumPy's C-ordered factor.
    SciPy's BLAS pool is held at one thread throughout (see the blas
    module).
    """
    N = plan.N
    np.copyto(F, A)
    for b in range(F.shape[0]):
        # lower=1, clean=1, overwrite_a=1, positional: f2py's keyword
        # parsing takes up to 1 us a call, a whole factorization at N=4
        if zpotrf(F[b], 1, 1, 1)[1]:
            raise NumericalError(
                f"Cholesky factorization failed at loading {lam:g}: "
                "sample covariance is not positive definite")
    L = F[:, :N, :N]
    if lam == 0.0:
        # lambda_min <= min L_ii^2 and lambda_max >= max M_ii
        estimators.guard_invertible(
            np.diagonal(L, axis1=1, axis2=2).real.min(1) ** 2,
            np.diagonal(A, axis1=1, axis2=2)[:, :N].real.max(1))
    uh, vh = np.ascontiguousarray(F[:, N:, :N]).transpose(1, 0, 2)
    # np.multiply, not `*`: see the module docstring
    alpha = np.multiply(uh, np.conj(vh)).sum(1)
    beta = (np.abs(uh) ** 2).sum(1)
    mu0h = None
    if with_mu0:
        tr, xn = _inverse_norms(L, uh)
        d1 = 1.0 - N / plan.K + lam * tr / plan.K
        num = beta - lam * xn
        # num keeps about 16 + log10(num / beta) of beta's digits
        if not (num > 1e-8 * beta).all():
            raise NumericalError(
                f"plug-in mu0 at loading {lam:g} keeps under 8 digits after "
                "cancellation; the loading is too large for this SCM")
        mu0h = num / d1 ** 2
    return alpha, beta, mu0h


def _inverse_norms(L, uh):
    """Rows ||L^{-1}||_F^2 and ||uh L^{-1}||^2 of lower-triangular L.

    One LAPACK triangular inverse per matrix (a sixth of the flops of a
    general inverse); no (B, N, N) inverse is kept.
    """
    B = L.shape[0]
    tr = np.empty(B)
    xn = np.empty(B)
    for b in range(B):
        Linv, info = ztrtri(L[b], lower=1)
        if info:
            raise NumericalError(
                "triangular inverse of the Cholesky factor failed "
                f"(info={info})")
        x = uh[b] @ Linv
        tr[b] = np.vdot(Linv, Linv).real
        xn[b] = np.vdot(x, x).real
    return tr, xn


def evaluate_statistic(spec, y0, s, K, scm=None, R=None, opt_config=None):
    """One trial's statistic for a DetectorSpec: the trial engine's
    Plan.coefficients on a block of one trial.

    scm, the N x N sample covariance (scenario.scm), is required for all
    kinds but np; R is required for oracle kinds and must be omitted for
    adaptive ones.
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

    plan = Plan([spec], s, K, R, opt_config)
    N = plan.N
    y0 = np.asarray(y0)[None]
    if y0.shape != (1, N):
        raise ConfigError(f"y0 must have {N} entries, got {y0.shape[1:]}")
    A = None
    if plan.need_scm:
        A = np.zeros((1, N + 2, N + 2), dtype=complex)
        A[0, :N, :N] = estimators._check_scm(scm, N)
    (coeffs,) = plan.coefficients(A, y0).values()
    # on the trial's scalars, quicker than on rows of one
    return float(statistic([c[0] for c in coeffs]))
