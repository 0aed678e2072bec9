"""Detector kinds: one loaded-filter statistic, a table, and the reduction
of sample covariances that every statistic starts from.

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
sample covariances S are reduced. Plan.reduce takes a block of trials' S
to what the statistics need, Plan.forms turns that (of a block or a
chunk) into (alpha, beta, mu0_hat) at every loading, and Plan.assemble
picks each kind's pieces. The trial engine (harness) runs these on blocks
it draws, evaluate_statistic on a block of one trial, so the two agree bit
for bit. Oracle kinds see the true covariance, adaptive kinds only S.

The route follows from the detector set alone:

- spectral, when a kind picks its loading per trial (el-amf, cfar-el-amf,
  opt-cfar-dl-amf): LAPACK zhetrd reduces each S to a real tridiagonal
  matrix, dstev gives its eigenvalues (clamped at EIG_FLOOR_REL of the
  largest) and real eigenvectors, and zunmqr applies zhetrd's reflectors
  to s and y0, so no complex eigenvectors are formed (_spectral_rows).
  reduce keeps the rows l, |V^H s|^2 and conj(V^H s) (V^H y0), and forms
  runs the EL and opt searches on them;
- Cholesky, for every other set: one bordered Cholesky factorization of
  S + lam I per distinct fixed loading (0 for scm-amf and the dl-scm-beta
  normalizer), shared by all kinds at that loading. S sits in the corner
  of the bordered buffer, and each loading rewrites only its diagonal.
  cfar-dl-amf's mu0_hat comes from a triangular inverse of the factor.

persym-amf factors the persymmetrized SCM by Cholesky on both routes, in
a bordered buffer of its own. Unloaded forms raise NumericalError on a
numerically singular SCM. Complex products of per-trial arrays are
explicit np.multiply calls: with `*`, NumPy may reuse a temporary of 256
KiB or more as the output with the operands swapped, which rounds
differently and would tie the bits to the number of trials in an array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dstev, zhetrd, zhetrd_lwork, ztrtri, zunmqr

from . import estimators, optimizer, rmt
from .errors import ConfigError, NumericalError
from .scenario import (EIG_FLOOR_REL, HermitianSpectrum, as_spectrum,
                       steering_entries)

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


def guard_invertible(l_min, l_max):
    """Raise NumericalError where l_min <= 1e-10 * l_max.

    l_min and l_max are the extreme eigenvalues of an unloaded sample
    covariance, or an upper bound on the smallest and a lower bound on the
    largest; arrays are checked row by row, and one singular row fails all.
    The threshold sits above the eigenvalue clamp floor (1e-12 relative),
    so a rank-deficient SCM whose spectrum was clamped still trips it.
    """
    if np.any(np.asarray(l_min) <= 1e-10 * np.asarray(l_max)):
        raise NumericalError("sample covariance is numerically singular; "
                             "need K >= N secondary snapshots")


# stands in for +inf on the border diagonal of Plan.bordered
_BORDER = 1e200


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
        if self.spectral:
            self.lwork = int(zhetrd_lwork(self.N, lower=1)[0].real)
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

    def bordered(self, y0):
        """Zeroed (B, N+2, N+2) buffer with the border of [[M, X], [X^H, D]],
        X = [s, y0] and D = _BORDER I, written below the diagonal only (all
        Cholesky reads). The caller writes M into the top-left N x N block.
        """
        B, N = y0.shape
        A = np.zeros((B, N + 2, N + 2), dtype=complex)
        A[:, N, :N] = np.conj(self.s)
        A[:, N + 1, :N] = np.conj(y0)
        A[:, N, N] = A[:, N + 1, N + 1] = _BORDER
        return A

    def reduce(self, A, y0):
        """What the statistics need from a block of trials.

        A is a bordered buffer of y0 (B, N) holding the trials' SCMs S in
        its corner; the Cholesky route rewrites their diagonal. Returns
        persym-amf's forms under "persym" when planned and, per route, the
        spectral rows l, w2 = |V^H s|^2 and wz = conj(V^H s) (V^H y0) or
        the forms of each fixed loading, keyed by the loading.
        """
        N = self.N
        S = A[:, :N, :N]
        out = {}
        if self.need_persym:
            # first, since the loadings below rewrite the diagonal of S
            out["persym"] = _persym_forms(S, y0, self)
        if self.spectral:
            out.update(_spectral_rows(S, y0, self))
            return out
        diag = np.arange(N)
        diag_S = S[:, diag, diag]
        for lam in self.fixed_lams:
            S[:, diag, diag] = diag_S + lam
            out[lam] = _cholesky_forms(A, lam, self, lam in self.mu0_lams)
        return out

    def forms(self, red):
        """(alpha, beta, mu0_hat or None) at every loading of the set, from
        reduce's output for one block or merged over several. On the
        spectral route the EL and opt searches run here, once over all rows,
        and every loading but persym's is added under its fixed value, "el"
        or "adaptive-opt"; unloaded rows must be invertible.
        """
        if not self.spectral:
            return red
        l, w2, wz = red["l"], red["w2"], red["wz"]
        lams = {lam: np.full(l.shape[0], lam) for lam in self.fixed_lams}
        if self.need_el:
            lams["el"] = estimators._el_rows(l, self.log_zeta)
        if self.need_opt:
            lams["adaptive-opt"] = optimizer.lambda_opt_rows(
                l, w2, self.K, self.opt_config)[0]
        out = dict(red)
        for key, lam in lams.items():
            unloaded = lam == 0.0
            if unloaded.any():
                guard_invertible(l[unloaded, 0], l[unloaded, -1])
            d1, beta, num, alpha = estimators._loaded_rows(
                l, w2, lam[:, None], self.K, wz)
            mu0h = (num[:, 0] / (d1[:, 0] * d1[:, 0])
                    if key in self.mu0_lams else None)
            out[key] = alpha[:, 0], beta[:, 0], mu0h
        return out

    def assemble(self, spec, forms, y0):
        """spec's (alpha, beta, norm) rows from the forms of its loading.

        |alpha|^2 / norm is the statistic, and alpha + b beta the filter
        output when a target of amplitude b adds b s to y0 (B, N).
        """
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


def _cholesky_forms(A, lam, plan, with_mu0):
    """(alpha, beta, mu0h) at loading lam from one Cholesky factorization.

    A is a bordered buffer whose top-left block holds M + lam I. Its factor
    is [[L, 0], [W, *]] with L L^H = M + lam I and W^H = L^{-1} X, so the
    forward substitutions u = L^{-1} s and v = L^{-1} y0 come out of the
    same LAPACK call. Only the lower triangle is read, so M need not be
    symmetrized. D = _BORDER keeps the trailing 2x2 Schur complement
    positive; it does not touch L or W. mu0h needs
    tr((M + lam I)^{-1}) = ||L^{-1}||_F^2 and
    s^H (M + lam I)^{-1} M (M + lam I)^{-1} s = beta - lam ||u^H L^{-1}||^2.
    """
    N = plan.N
    try:
        F = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"Cholesky factorization failed at loading {lam:g}: "
            "sample covariance is not positive definite") from exc
    L = F[:, :N, :N]
    if lam == 0.0:
        # lambda_min <= min L_ii^2 and lambda_max >= max M_ii
        guard_invertible(
            np.diagonal(L, axis1=1, axis2=2).real.min(1) ** 2,
            np.diagonal(A, axis1=1, axis2=2)[:, :N].real.max(1))
    uh = F[:, N, :N]
    # np.multiply, not `*`: see the module docstring
    alpha = np.multiply(uh, np.conj(F[:, N + 1, :N])).sum(1)
    beta = (np.abs(uh) ** 2).sum(1)
    mu0h = None
    if with_mu0:
        tr, xn = _inverse_norms(L, uh)
        d1 = 1.0 - N / plan.K + lam * tr / plan.K
        mu0h = (beta - lam * xn) / d1 ** 2
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


def _persym_forms(S, y0, plan):
    """persym-amf's (alpha, beta, None) from the persymmetrized SCM
    0.5 (S + J S^T J), written into a bordered buffer of its own.

    J S^T J reads the lower triangle of S where J conj(S) J reads the upper
    one; the two agree on a Hermitian S.
    """
    N = plan.N
    A = plan.bordered(y0)
    blk = A[:, :N, :N]
    np.add(S, S.transpose(0, 2, 1)[:, ::-1, ::-1], out=blk)
    blk *= 0.5
    return _cholesky_forms(A, 0.0, plan, False)


def _spectral_rows(S, y0, plan):
    """The rows l, w2 = |V^H s|^2 and wz = conj(V^H s) (V^H y0) of a block.

    zhetrd reduces each S^T = conj(S) (a Fortran-ordered view, not written)
    to a real tridiagonal T = Q^H conj(S) Q and dstev gives T = U diag(l)
    U^T, so S has eigenvectors V = conj(Q) U and V^H x is the conjugate of
    U^T Q^H conj(x). zunmqr applies Q^H to conj(s) and conj(y0), as LAPACK's
    zunmtr would, and one batched product applies U^T.
    """
    B, N = y0.shape
    l = np.empty((B, N))
    Ut = np.empty((B, N, N))
    x = np.empty((B, N, 2), dtype=complex)
    x[:, :, 0] = np.conj(plan.s)
    x[:, :, 1] = np.conj(y0)
    for b in range(B):
        a, d, e, tau, info = zhetrd(S[b].T, lower=1, lwork=plan.lwork)
        if not info:
            # dstev wants one off-diagonal entry even when N = 1
            l[b], U, info = dstev(d, e if N > 1 else np.zeros(1),
                                  overwrite_d=1, overwrite_e=1)
        if not info and N > 1:
            # Q's reflectors are a QR factorization's in a[1:, :N-1]; lwork
            # 2, the least for two columns, keeps zunmqr unblocked at any N
            x[b, 1:], _, info = zunmqr("L", "C", a[1:, :-1], tau, x[b, 1:],
                                       2)
        if info:
            raise NumericalError(
                f"tridiagonal eigensolver failed (info={info})")
        Ut[b] = U.T
    # U^T x on the real and imaginary parts as four real columns
    x = np.matmul(Ut, x.view(float)).view(complex)
    w2 = np.abs(x[:, :, 0]) ** 2
    # the one eigenvalue clamp of the statistics
    return {"l": np.maximum(l, EIG_FLOOR_REL * l[:, -1:]), "w2": w2,
            "wz": np.multiply(x[:, :, 0], np.conj(x[:, :, 1]))}


def evaluate_statistic(spec, y0, s, K, scm=None, R=None, opt_config=None):
    """One trial's statistic for a DetectorSpec: the trial engine's
    Plan.reduce, forms and assemble on a block of one trial.

    scm (a matrix or a HermitianSpectrum, read as the engine reads its SCMs)
    is required for all kinds but np; R is required for oracle kinds and
    must be omitted for adaptive ones.
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
    N = plan.N
    y0 = np.asarray(y0)[None]
    if y0.shape != (1, N):
        raise ConfigError(f"y0 must have {N} entries, got {y0.shape[1:]}")
    forms = {}
    if plan.need_scm:
        S = scm.matrix if isinstance(scm, HermitianSpectrum) \
            else np.asarray(scm)
        if S.shape != (N, N):
            raise ConfigError(f"sample covariance must be {N} x {N}, "
                              f"got shape {S.shape}")
        A = plan.bordered(y0)
        A[0, :N, :N] = S
        forms = plan.forms(plan.reduce(A, y0))
    alpha, _, norm = plan.assemble(spec, forms, y0)
    return float(np.abs(alpha[0]) ** 2 / norm[0])
