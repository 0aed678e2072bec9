"""The three benchmark workloads and their correctness gates.

Each workload drives dlamf's public API the way a user would and exposes:

    setup(root)        build scenarios and files (timed as setup_s)
    warmup()           one small untimed op so lazy imports and caches fill
    op(index, seed)    one timed operation; returns its raw output
    check(out, seed)   untimed gates -> Checked(problems, digest, counts)
    trials             trials one op runs (h0 plus h1 draws)

Why these three (see README.md for the measured split):
  h0-cfar8      the trial engine on the criterion-4 CFAR set; the harness
                does almost all the work, including per-trial loading search.
  pd-sweep-n48  `dlamf pd-sweep` at N=48: fixed-loading kinds only, so
                factorization and memory dominate and the search is absent.
  scalar-design the scalar design API over configs/*.json; the harness does
                no work and time splits over rmt, theory and estimators.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dlamf import (cli, detectors, harness, optimizer, rmt, scenario,
                   theory)
from dlamf.detectors import DetectorSpec
from dlamf.harness import TrialConfig

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"


@dataclass
class Checked:
    """Outcome of the gates on one op."""

    problems: list = field(default_factory=list)
    digest: str = ""
    counts: dict = field(default_factory=dict)


class OpFailed(Exception):
    """An op whose program call reported failure without raising."""

    def __init__(self, message, kind):
        super().__init__(message)
        self.kind = kind


def _finite_positive(name, x, problems):
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        problems.append(f"{name}: non-finite statistic")
    elif not np.all(x > 0):
        problems.append(f"{name}: statistic <= 0")


def _sha(parts):
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()


def _unit_exp_cdf(x):
    return -np.expm1(-x)


# --- h0-cfar8 ---------------------------------------------------------------

class H0Cfar8:
    """Calibrate the criterion-4 set of eight CFAR specs from one h0 run."""

    name = "h0-cfar8"
    trials = 16384
    pfa = 1e-2
    ks_limit = 0.03
    pfa_z = 5.0  # z of the Pfa gate: 6e-7 false alarms per check
    recompute_rtol = 1e-7
    trace_ops = 2

    def setup(self, root):
        self.scen = scenario.Scenario(
            N=24, K=48, clutter=scenario.ToeplitzClutter(10.0, 0.95),
            noise_power=1.0, steering_deg=20.0)
        self.specs = ([DetectorSpec("cfar-dl-scmf", lam)
                       for lam in (1.5, 5.0, 10.0)]
                      + [DetectorSpec("cfar-dl-amf", lam)
                         for lam in (1.5, 5.0, 10.0)]
                      + [DetectorSpec("cfar-el-amf"),
                         DetectorSpec("opt-cfar-dl-amf")])
        self.R = self.scen.covariance()
        self.steer = self.scen.steering

    def warmup(self):
        # one full chunk, so the first timed op reuses warm allocations
        harness.h0_statistics(self.scen, self.specs, harness.DEFAULT_CHUNK, 0)

    def _run(self, seed, trials, workers=1):
        stats = harness.h0_statistics(self.scen, self.specs, trials, seed,
                                      workers=workers)
        taus = {sp.label: harness.threshold_from_stats(stats[sp.label],
                                                       self.pfa)
                for sp in self.specs}
        return stats, taus

    def op(self, index, seed):
        return self._run(seed, self.trials)

    def _digest(self, out):
        stats, taus = out
        parts = []
        for sp in self.specs:
            parts += [sp.label, stats[sp.label].astype("<f8").tobytes(),
                      taus[sp.label].tau]
        return _sha(parts)

    def check(self, out, seed):
        stats, taus = out
        problems = []
        for sp in self.specs:
            x = stats[sp.label]
            _finite_positive(sp.label, x, problems)
            if x.shape != (self.trials,):
                problems.append(f"{sp.label}: {x.shape[0]} statistics")
                continue
            ks = harness.ks_distance(x, _unit_exp_cdf)
            if not ks < self.ks_limit:
                problems.append(f"{sp.label}: KS {ks:.4f} to Exp(1)")
            _finite_positive(f"{sp.label} tau", taus[sp.label].tau, problems)
            # a threshold set on the first half of the trials, applied to the
            # independent second half, must achieve the nominal Pfa; sqrt(2)
            # widens the Wilson interval for the threshold's own error
            m = self.trials // 2
            tau = harness.threshold_from_stats(x[:m], self.pfa).tau
            k = int(np.sum(x[m:] > tau))
            lo, hi = harness.wilson_ci(k, m, z=self.pfa_z * math.sqrt(2.0))
            if not lo <= self.pfa <= hi:
                problems.append(f"{sp.label}: held-out pfa {k / m:.5f}, "
                                f"nominal {self.pfa} outside "
                                f"[{lo:.5f}, {hi:.5f}]")
        # three fixed trials through the scalar reference path
        for t in (0, self.trials // 2, self.trials - 1):
            smp = scenario.sample_dataset(self.scen, None, "h0",
                                          scenario.trial_rng(seed, 0, t))
            S = scenario.scm(smp)
            for sp in self.specs:
                R = self.R if sp.kind in detectors.ORACLE_TAGS else None
                ref = detectors.evaluate_statistic(sp, smp.y0, self.steer,
                                                   self.scen.K, scm=S, R=R)
                got = stats[sp.label][t]
                if not abs(got - ref) <= self.recompute_rtol * abs(ref):
                    problems.append(f"{sp.label}: trial {t} batch {got!r} vs "
                                    f"scalar {ref!r}")
        return Checked(problems, self._digest(out))

    def run_check(self, first_seed, first_digest):
        """Rerun the first op at workers=2; results must be bit-identical."""
        if self.trials <= harness.DEFAULT_CHUNK:
            return ["workers=2 rerun needs at least two chunks"]
        got = self._digest(self._run(first_seed, self.trials, workers=2))
        if got != first_digest:
            return [f"workers=2 digest {got[:12]} != workers=1 "
                    f"{first_digest[:12]}"]
        return []


# --- pd-sweep-n48 ----------------------------------------------------------

class PdSweepN48:
    """`dlamf pd-sweep` in-process on the benchmark's N=48 scenario."""

    name = "pd-sweep-n48"
    config = BENCH_DIR / "scenarios" / "pd-sweep-n48.json"
    detector_tags = "np,scm-amf,dl-amf,cfar-dl-amf,cfar-dl-scmf,persym-amf"
    lam = 1.5
    pfa = 2e-2
    threshold_trials = 2560
    pd_trials = 256
    scnr_db = "0:5:20"
    wilson_z = 4.0
    trace_ops = 2

    def setup(self, root):
        self.scen, self.target = scenario.scenario_from_json(
            self.config.read_text())
        lo, step, hi = (float(v) for v in self.scnr_db.split(":"))
        self.grid = np.arange(lo, hi + 0.5 * step, step)
        self.out_root = OUT_DIR / self.name
        shutil.rmtree(self.out_root, ignore_errors=True)
        self.out_root.mkdir(parents=True)

    @property
    def trials(self):
        return self.threshold_trials + self.pd_trials * self.grid.shape[0]

    def _argv(self, out, seed, thr, pd, grid):
        return ["pd-sweep", "--config", str(self.config),
                "--detector", self.detector_tags, "--lambda", str(self.lam),
                "--pfa", repr(self.pfa), "--threshold-trials", str(thr),
                "--trials", str(pd), "--scnr-db", grid,
                "--seed", str(seed), "--out", str(out)]

    def _main(self, argv):
        rc = cli.main(argv)
        if rc != 0:
            kind = {2: "ConfigError", 3: "NumericalError"}.get(rc, "exit")
            raise OpFailed(f"dlamf pd-sweep exited {rc}", kind)

    def warmup(self):
        out = self.out_root / "warmup"
        self._main(self._argv(out, 0, 256, 64, "0:10:10"))
        shutil.rmtree(out)

    def op(self, index, seed):
        out = self.out_root / f"op{index}"
        self._main(self._argv(out, seed, self.threshold_trials,
                              self.pd_trials, self.scnr_db))
        return out

    def check(self, out, seed):
        problems = []
        manifest = json.loads((out / "manifest.json").read_text())
        want = sorted(manifest["outputs"])
        # the CSVs only: the manifest's size varies with its time stamps
        written = sum((out / name).stat().st_size for name in want
                      if (out / name).is_file())
        n_det = len(self.detector_tags.split(","))
        if len(want) != n_det or "pd_np.csv" not in want:
            problems.append(f"manifest outputs {want}")
        bodies = []
        tau_np = harness.calibrate_threshold(TrialConfig(
            scenario=self.scen, detector=DetectorSpec("np"),
            trials=self.threshold_trials, master_seed=seed,
            pfa_pre=self.pfa)).tau
        for name in want:
            path = out / name
            if not path.is_file():
                problems.append(f"{name}: missing")
                continue
            body = path.read_bytes()
            bodies += [name, body]
            rows = list(csv.reader(io.StringIO(body.decode())))
            if rows[0] != ["x", "y", "ci_lo", "ci_hi"]:
                problems.append(f"{name}: header {rows[0]}")
                continue
            table = np.array(rows[1:], dtype=float)
            if table.shape != (self.grid.shape[0], 4) or \
                    not np.array_equal(table[:, 0], self.grid):
                problems.append(f"{name}: grid {table[:, 0]}")
                continue
            pd = table[:, 1]
            if not (np.all(pd >= 0.0) and np.all(pd <= 1.0)):
                problems.append(f"{name}: pd outside [0, 1]")
            if name == "pd_np.csv":
                exact = theory.cfar_dl_pd(harness.db_to_linear(self.grid),
                                          1.0, tau_np, self.target)
                for x, p, e in zip(self.grid, pd, exact):
                    k = int(round(p * self.pd_trials))
                    lo, hi = harness.wilson_ci(k, self.pd_trials,
                                               z=self.wilson_z)
                    if not lo <= e <= hi:
                        problems.append(
                            f"np pd {p} at {x} dB outside [{lo:.4f}, "
                            f"{hi:.4f}] of exact {e:.4f}")
        shutil.rmtree(out)
        return Checked(problems, _sha(bodies), {"cli.bytes_written": written})


# --- scalar-design ---------------------------------------------------------

class ScalarDesign:
    """Oracle design, theory ROC and adaptive scalar statistics per config."""

    name = "scalar-design"
    # pinned so that adding a config file does not change the workload
    configs = ("lowrank-n24-k28.json", "lowrank-n24-k48.json",
               "toeplitz-n12-k13-theta5.json", "toeplitz-n12-k48-theta20.json",
               "toeplitz-n12-k48-theta5.json", "toeplitz-n24-k28.json",
               "toeplitz-n24-k48.json")
    pfa = 1e-3
    roc_db = np.arange(0.0, 26.25, 0.5)
    training_sets = 16
    # adaptive kinds only: the oracle kinds recompute lambda_opt per call
    kinds = ("scm-amf", "dl-amf", "dl-scm-beta", "dl-raw", "cfar-dl-amf",
             "el-amf", "cfar-el-amf", "persym-amf", "opt-cfar-dl-amf")
    trials = training_sets
    trace_ops = 14

    def setup(self, root):
        self.scens = []
        for name in self.configs:
            scen, _ = scenario.scenario_from_json(
                (Path(root) / "configs" / name).read_text())
            self.scens.append(scen)
        self.roc_lin = harness.db_to_linear(self.roc_db)

    def warmup(self):
        self._design(self.scens[0], 0, sets=1)

    def _design(self, scen, seed, sets):
        R = scen.covariance()
        s = scen.steering
        K = scen.K
        opt = optimizer.lambda_opt(R, s, K)
        curve = optimizer.kappa_lambda_curve(R, s, K)
        crossing = optimizer.kappa_crossing(R, s, K)
        kv = rmt.kappa(R, s, opt.lambda_star, K)
        roc0 = theory.roc_swerling0(self.roc_lin, kv, self.pfa)
        roc1 = theory.roc_swerling1(self.roc_lin, kv, self.pfa)
        specs = [DetectorSpec(k, opt.lambda_star
                              if k in detectors.FIXED_LAMBDA_TAGS else None)
                 for k in self.kinds]
        stats = np.empty((sets, len(specs)))
        for t in range(sets):
            smp = scenario.sample_dataset(scen, None, "h0",
                                          scenario.trial_rng(seed, 0, t))
            S = scenario.scm(smp)
            for j, sp in enumerate(specs):
                stats[t, j] = detectors.evaluate_statistic(sp, smp.y0, s, K,
                                                           scm=S)
        return {"scen": scen, "opt": opt, "curve": curve,
                "crossing": crossing, "kappa": kv, "roc0": roc0,
                "roc1": roc1, "stats": stats}

    def op(self, index, seed):
        scen = self.scens[index % len(self.scens)]
        return self._design(scen, seed, self.training_sets)

    def check(self, out, seed):
        problems = []
        scen, opt, curve = out["scen"], out["opt"], out["curve"]
        one_minus_c = 1.0 - scen.N / scen.K
        if curve.x[0] != 0.0 or not abs(curve.y[0] - one_minus_c) <= 1e-12:
            problems.append(f"kappa(0) = {curve.y[0]!r}, 1 - c = "
                            f"{one_minus_c!r}")
        lam = opt.lambda_star
        if not (math.isfinite(lam) and lam >= 0.0):
            problems.append(f"lambda* = {lam!r}")
        _finite_positive("stats", out["stats"], problems)
        for key in ("roc0", "roc1"):
            r = out[key]
            if not (np.all(np.isfinite(r)) and np.all((r >= 0) & (r <= 1))):
                problems.append(f"{key} outside [0, 1]")
        digest = _sha([lam, opt.objective_value, opt.evaluations,
                       curve.y.tobytes(), curve.meta["kappa_lower"].tobytes(),
                       out["crossing"], out["kappa"], out["roc0"].tobytes(),
                       out["roc1"].tobytes(), out["stats"].tobytes()])
        counts = {"lambda_opt.evaluations": int(opt.evaluations),
                  "lambda_opt.flat": int(not opt.converged)}
        return Checked(problems, digest, counts)


WORKLOADS = {w.name: w for w in (H0Cfar8, PdSweepN48, ScalarDesign)}
