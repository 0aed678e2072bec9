"""Command line front end: scenario JSON in, CSV curves and tables out.

Every command writes its data files plus a manifest.json into --out; the
manifest records the command line, config digest, seed and every output
file, so a run is reproducible from the manifest alone. Figures ship as
data series (x, y, ci_lo, ci_hi), not images; scripts/plot_results.py can
render them.

Exit codes: 0 success, 2 usage/config error, 3 numerical failure. Errors go
to stderr as one JSON object.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, harness, optimizer, rmt, theory
from .detectors import (CFAR_EL_AMF, EL_AMF, FIXED_LAMBDA_TAGS, NP,
                        OPT_CFAR_DL_AMF, OPT_CFAR_DL_SCMF, PERSYM_AMF,
                        SCM_AMF, DetectorSpec)
from .errors import ConfigError, NumericalError
from .harness import TrialConfig
from .optimizer import OptConfig
from .scenario import (LowRankClutter, Scenario, ToeplitzClutter,
                       scenario_from_json)

FULL_BUDGETS = {"threshold": 100_000, "pd": 10_000, "hist": 100_000}
FAST_BUDGETS = {"threshold": 10_000, "pd": 1_000, "hist": 10_000}

# low-rank clutter: nine unit-power patches at these bearings, 10 dB each
LOWRANK_ANGLES = (0.0, 5.0, 5.0, 10.0, 25.0, 25.0, 30.0, 30.0, 60.0)
LOWRANK_POWER = 10.0


def _emit_error(kind, message):
    print(json.dumps({"error": str(message), "kind": kind}),
          file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _emit_error("usage", message)
        raise SystemExit(2)


def _slug(text):
    out = "".join(ch if ch.isalnum() or ch in "-._" else "_"
                  for ch in str(text))
    while "__" in out:
        out = out.replace("__", "_")
    return out.strip("_")


def _fmt(v):
    if v is None or (isinstance(v, str) and not v):
        return ""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh, lineterminator="\r\n")
        wr.writerow(header)
        for row in rows:
            wr.writerow([_fmt(v) for v in row])


def _write_curve(path, curve):
    _write_csv(path, ("x", "y", "ci_lo", "ci_hi"), curve.rows())


def _write_hist(path, hist):
    _write_csv(path, ("x", "y"),
               zip(hist.bin_centers, hist.density))


def _digest(doc):
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _git_describe():
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).resolve().parent, capture_output=True,
            text=True, timeout=5)
        return out.stdout.strip() or None
    except Exception:
        return None


class _Run:
    """Collects output paths and writes the manifest at the end."""

    def __init__(self, args, out_dir, scenario_doc=None, notes=None):
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.t0 = time.monotonic()
        self.args = args
        self.doc = scenario_doc
        self.notes = notes or {}
        self.files = []

    def path(self, name):
        self.files.append(name)
        return self.out / name

    def finish(self, extra=None):
        manifest = {
            "tool": "dlamf",
            "version": __version__,
            "build": _git_describe(),
            "command": [sys.argv[0].rsplit("/", 1)[-1]] + list(self.args),
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "elapsed_s": round(time.monotonic() - self.t0, 3),
            "config_digest": _digest(self.doc) if self.doc else None,
            "scenario": self.doc,
            "notes": self.notes,
            "outputs": list(self.files),
        }
        if extra:
            manifest.update(extra)
        with open(self.out / "manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return manifest


# --- parsing helpers -------------------------------------------------------

def _load_scenario(path):
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    scen, target = scenario_from_json(text)
    return scen, target, json.loads(text)


def _parse_detectors(tag_text, lam):
    specs = []
    for tag in tag_text.split(","):
        tag = tag.strip()
        if not tag:
            continue
        if tag in FIXED_LAMBDA_TAGS:
            if lam is None:
                raise ConfigError(
                    f"detector {tag!r} needs --lambda")
            specs.append(DetectorSpec(tag, lam))
        else:
            specs.append(DetectorSpec(tag))
    if not specs:
        raise ConfigError("no detector tags given")
    return specs


def _parse_scnr_grid(spec):
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--scnr-db wants LO:STEP:HI, got {spec!r}")
    try:
        lo, step, hi = (float(p) for p in parts)
    except ValueError as e:
        raise ConfigError(f"bad --scnr-db {spec!r}: {e}") from e
    if step <= 0 or hi < lo:
        raise ConfigError(f"--scnr-db needs STEP > 0 and HI >= LO, got {spec!r}")
    return np.arange(lo, hi + 0.5 * step, step)


def _parse_lambda_grid(spec):
    parts = spec.split(":")
    if len(parts) != 4:
        raise ConfigError(f"--lambda-grid wants LO:log|lin:HI:N, got {spec!r}")
    lo_s, mode, hi_s, n_s = parts
    try:
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError as e:
        raise ConfigError(f"bad --lambda-grid {spec!r}: {e}") from e
    if n < 2 or hi <= lo:
        raise ConfigError(f"--lambda-grid needs N >= 2 and HI > LO, got {spec!r}")
    if mode == "log":
        if lo <= 0:
            raise ConfigError("--lambda-grid log spacing needs LO > 0")
        return np.logspace(math.log10(lo), math.log10(hi), n)
    if mode == "lin":
        if lo < 0:
            raise ConfigError("--lambda-grid needs LO >= 0")
        return np.linspace(lo, hi, n)
    raise ConfigError(f"--lambda-grid spacing must be 'log' or 'lin', got {mode!r}")


def _opt_config(args):
    return OptConfig(lambda_max=args.lambda_max, grid_points=args.grid_points,
                     tol=args.tol)


# --- subcommands -----------------------------------------------------------

def cmd_kappa(args, argv):
    scen, _, doc = _load_scenario(args.config)
    grid = _parse_lambda_grid(args.lambda_grid)
    if grid[0] != 0.0:
        grid = np.concatenate(([0.0], grid))
    run = _Run(argv, args.out, doc)
    curve = optimizer.kappa_lambda_curve(scen.covariance(), scen.steering,
                                         scen.K, lambda_grid=grid)
    one_minus_c = curve.meta["one_minus_c"]
    _write_csv(run.path("kappa.csv"),
               ("lambda", "kappa", "kappa_lower", "one_minus_c"),
               ((lam, k, klo, one_minus_c) for lam, k, klo in
                zip(curve.x, curve.y, curve.meta["kappa_lower"])))
    run.finish({"seed": None, "detectors": []})
    return 0


def _threshold_rows(taus, specs):
    rows = []
    for sp in specs:
        t = taus[sp.label]
        rows.append((sp.label, sp.kind, "" if sp.lam is None else sp.lam,
                     t.tau, t.achieved_pfa, t.pfa_ci[0], t.pfa_ci[1],
                     t.tau_ci[0], t.tau_ci[1], t.trials))
    return rows


def cmd_threshold(args, argv):
    scen, _, doc = _load_scenario(args.config)
    specs = _parse_detectors(args.detector, args.lam)
    cfg = TrialConfig(scenario=scen, detector=specs, trials=args.trials,
                      master_seed=args.seed, pfa_pre=args.pfa,
                      workers=args.workers, opt_config=_opt_config(args))
    run = _Run(argv, args.out, doc)
    taus = harness.calibrate_threshold(cfg)
    _write_csv(run.path("thresholds.csv"),
               ("detector", "kind", "lambda", "tau", "achieved_pfa",
                "pfa_ci_lo", "pfa_ci_hi", "tau_ci_lo", "tau_ci_hi", "trials"),
               _threshold_rows(taus, specs))
    run.finish({"seed": args.seed, "pfa": args.pfa, "trials": args.trials,
                "detectors": [sp.label for sp in specs]})
    return 0


def cmd_pd_sweep(args, argv):
    scen, target, doc = _load_scenario(args.config)
    specs = _parse_detectors(args.detector, args.lam)
    grid = _parse_scnr_grid(args.scnr_db)
    ocfg = _opt_config(args)
    cal = TrialConfig(scenario=scen, detector=specs,
                      trials=args.threshold_trials, master_seed=args.seed,
                      pfa_pre=args.pfa, workers=args.workers, opt_config=ocfg)
    pd_cfg = TrialConfig(scenario=scen, detector=specs, trials=args.trials,
                         master_seed=args.seed, pfa_pre=args.pfa,
                         workers=args.workers, opt_config=ocfg)
    run = _Run(argv, args.out, doc, notes={"target": target})
    taus = harness.calibrate_threshold(cal)
    curves = harness.pd_vs_scnr_sweep(
        pd_cfg, {sp.label: taus[sp.label].tau for sp in specs}, grid, target)
    for sp in specs:
        _write_curve(run.path(f"pd_{_slug(sp.label)}.csv"), curves[sp.label])
    run.finish({"seed": args.seed, "pfa": args.pfa, "trials": args.trials,
                "threshold_trials": args.threshold_trials,
                "detectors": [sp.label for sp in specs]})
    return 0


def cmd_loss_table(args, argv):
    scen, _, doc = _load_scenario(args.config)
    specs = _parse_detectors(args.detector, args.lam)
    run = _Run(argv, args.out, doc, notes={"pd_target": args.pd})
    rows = harness.detection_loss_table(
        scen, specs, pfa_pre=args.pfa, threshold_trials=args.threshold_trials,
        pd_trials=args.trials, master_seed=args.seed, pd_target=args.pd,
        workers=args.workers, opt_config=_opt_config(args))
    _write_csv(run.path("loss_table.csv"),
               ("detector", "kind", "target", "tau", "scnr_db", "loss_db"),
               [(r["detector"], r["kind"], r["target"], r["tau"],
                 r["scnr_db"], r["loss_db"]) for r in rows])
    run.finish({"seed": args.seed, "pfa": args.pfa, "trials": args.trials,
                "threshold_trials": args.threshold_trials,
                "detectors": sorted({r["detector"] for r in rows})})
    return 0


# --- reproduction presets --------------------------------------------------

def _scen_toeplitz(N, K, rho=0.95, theta=20.0, clutter_power=10.0):
    return Scenario(N=N, K=K, clutter=ToeplitzClutter(clutter_power, rho),
                    noise_power=1.0, steering_deg=theta)


def _scen_lowrank(N, K, theta=20.0):
    return Scenario(N=N, K=K,
                    clutter=LowRankClutter(LOWRANK_ANGLES,
                                           (LOWRANK_POWER,) * len(LOWRANK_ANGLES)),
                    noise_power=1.0, steering_deg=theta)


def _exp_density_curve(scale, x_hi, n=201):
    xs = np.linspace(0.0, x_hi, n)
    from .results import Curve
    return Curve(x=xs, y=np.exp(-xs / scale) / scale, label="theory")


def _hist_series(run, name, scenario, specs, trials, seed, workers,
                 theory_scales):
    """One h0 histogram per spec plus exponential overlays."""
    cfg = TrialConfig(scenario=scenario, detector=specs, trials=trials,
                      master_seed=seed, workers=workers)
    hists = harness.empirical_pdf(cfg, bins=60)
    if isinstance(cfg.detector, DetectorSpec):
        hists = {cfg.detector.label: hists}
    for sp in specs:
        h = hists[sp.label]
        tag = f"{name}_{_slug(sp.label)}"
        _write_hist(run.path(f"{tag}.csv"), h)
        scale = theory_scales.get(sp.label)
        if scale is not None:
            _write_curve(run.path(f"{tag}_theory.csv"),
                         _exp_density_curve(scale, float(h.bin_edges[-1])))


def _mc_pd_curves(run, name, scenario, specs, grid_db, budgets, seed, workers,
                  pfa, targets=("swerling0", "swerling1")):
    """Calibrate all specs, then sweep SCNR once per point for all targets."""
    cal = TrialConfig(scenario=scenario, detector=specs,
                      trials=budgets["threshold"], master_seed=seed,
                      pfa_pre=pfa, workers=workers)
    taus = harness.calibrate_threshold(cal)
    pd_cfg = TrialConfig(scenario=scenario, detector=specs,
                         trials=budgets["pd"], master_seed=seed, pfa_pre=pfa,
                         workers=workers)
    acc = {t: {sp.label: ([], [], []) for sp in specs} for t in targets}
    plan = harness._BatchPlan(scenario, specs)
    for i, db in enumerate(grid_db):
        ev = harness.pd_evaluator(pd_cfg, stream=1 + i, plan=plan)
        scnr = float(harness.db_to_linear(db))
        for t in targets:
            for sp in specs:
                p, (lo, hi) = ev.pd(sp.label, taus[sp.label].tau, scnr, t)
                ys, los, his = acc[t][sp.label]
                ys.append(p)
                los.append(lo)
                his.append(hi)
    from .results import Curve
    for t in targets:
        for sp in specs:
            ys, los, his = acc[t][sp.label]
            _write_curve(run.path(f"{name}_{t}_mc_{_slug(sp.label)}.csv"),
                         Curve(x=grid_db, y=ys, ci_lo=los, ci_hi=his))
    return taus


def _theory_roc_files(run, name, grid_db, pfa, kappa_by_label,
                      targets=("swerling0", "swerling1")):
    lin = harness.db_to_linear(grid_db)
    for label, kv in kappa_by_label.items():
        for t in targets:
            if t == "swerling0":
                y = theory.roc_swerling0(lin, kv, pfa)
            else:
                y = theory.roc_swerling1(lin, kv, pfa)
            from .results import Curve
            _write_curve(run.path(f"{name}_{t}_theory_{_slug(label)}.csv"),
                         Curve(x=grid_db, y=y))


def _repro_fig1(run, budgets, seed, workers, pfa):
    # h0 densities of the plain loaded filter: scale drifts with the scenario
    combos = ([("a", {"rho": r}) for r in (0.1, 0.5, 0.95)]
              + [("b", {"theta": t}) for t in (0.0, 5.0, 20.0)]
              + [("c", {"lam": v}) for v in (1.5, 5.0, 10.0)])
    for panel, over in combos:
        rho = over.get("rho", 0.95)
        theta = over.get("theta", 20.0)
        lam = over.get("lam", 1.5)
        scen = _scen_toeplitz(24, 48, rho=rho, theta=theta)
        spec = DetectorSpec("dl-amf", lam)
        p = rmt.deterministic_equivalents(scen.covariance(), scen.steering,
                                          lam, scen.K)
        key, val = next(iter(over.items()))
        name = f"fig1{panel}_{key}{val:g}"
        _hist_series(run, name, scen, [spec], budgets["hist"], seed, workers,
                     {spec.label: p.mu0 / p.psi})


def _repro_fig2(run, budgets, seed, workers, pfa):
    grid = np.arange(0.0, 20.5, 1.0)
    for panel, (N, K) in (("a", (12, 24)), ("b", (24, 48))):
        scen = _scen_toeplitz(N, K)
        specs = [DetectorSpec("dl-amf", 1.5), DetectorSpec("dl-scm-beta", 1.5),
                 DetectorSpec("dl-raw", 1.5), DetectorSpec(NP)]
        _mc_pd_curves(run, f"fig2{panel}", scen, specs, grid, budgets, seed,
                      workers, pfa)
        kv = rmt.kappa(scen.covariance(), scen.steering, 1.5, K)
        _theory_roc_files(run, f"fig2{panel}", grid, pfa,
                          {"dl-family": kv, NP: 1.0})


def _kappa_profile(run, name, scen, lam_list, grid_db, budgets, seed,
                   workers, pfa):
    """kappa sweep + detection curves at selected loadings; returns summary."""
    R = scen.covariance()
    s = scen.steering
    curve = optimizer.kappa_lambda_curve(R, s, scen.K)
    _write_csv(run.path(f"{name}_kappa.csv"),
               ("lambda", "kappa", "kappa_lower", "one_minus_c"),
               [(x, y, kl, curve.meta["one_minus_c"]) for x, y, kl in
                zip(curve.x, curve.y, curve.meta["kappa_lower"])])
    opt = optimizer.lambda_opt(R, s, scen.K)
    crossing = optimizer.kappa_crossing(R, s, scen.K)
    summary = {"lambda_0": opt.lambda_star,
               "kappa_at_lambda_0": opt.objective_value,
               "kappa_inf": rmt.kappa_limit_inf(R, s),
               "one_minus_c": 1.0 - scen.c,
               "crossing": crossing}
    specs = [DetectorSpec("dl-amf", lam) for lam in lam_list] \
        + [DetectorSpec(SCM_AMF), DetectorSpec(NP)]
    _mc_pd_curves(run, name, scen, specs, grid_db, budgets, seed, workers,
                  pfa)
    kmap = {sp.label: rmt.kappa(R, s, sp.lam, scen.K)
            for sp in specs if sp.kind == "dl-amf"}
    kmap[SCM_AMF] = 1.0 - scen.c
    kmap[NP] = 1.0
    _theory_roc_files(run, name, grid_db, pfa, kmap)
    return summary


def _repro_fig5(run, budgets, seed, workers, pfa):
    scen = _scen_toeplitz(12, 48, theta=20.0)
    opt = optimizer.lambda_opt(scen.covariance(), scen.steering, scen.K)
    lam_list = [0.5, round(opt.lambda_star, 2), 20.0, 100.0]
    s = _kappa_profile(run, "fig5", scen, lam_list,
                       np.arange(0.0, 24.5, 1.0), budgets, seed, workers, pfa)
    run.notes["fig5"] = s


def _repro_fig6(run, budgets, seed, workers, pfa):
    scen = _scen_toeplitz(12, 48, theta=5.0)
    opt = optimizer.lambda_opt(scen.covariance(), scen.steering, scen.K)
    lam_list = [0.5, round(opt.lambda_star, 2), 20.0, 200.0]
    s = _kappa_profile(run, "fig6", scen, lam_list,
                       np.arange(0.0, 30.5, 1.0), budgets, seed, workers, pfa)
    run.notes["fig6"] = s


def _repro_fig7(run, budgets, seed, workers, pfa):
    scen = _scen_toeplitz(12, 13, theta=5.0)
    opt = optimizer.lambda_opt(scen.covariance(), scen.steering, scen.K)
    lam_list = [0.5, round(opt.lambda_star, 2), 20.0, 200.0]
    s = _kappa_profile(run, "fig7", scen, lam_list,
                       np.arange(0.0, 30.5, 1.0), budgets, seed, workers, pfa)
    run.notes["fig7"] = s


def _cfar_hist_panels(run, name, tag, lam_fixed, budgets, seed, workers):
    """rho / theta / loading sweeps of a CFAR statistic vs exp(-x)."""
    combos = ([("a", {"rho": r}) for r in (0.1, 0.5, 0.95)]
              + [("b", {"theta": t}) for t in (0.0, 5.0, 20.0)]
              + [("c", {"lam": v}) for v in (1.5, 5.0, 10.0)])
    for panel, over in combos:
        scen = _scen_toeplitz(24, 48, rho=over.get("rho", 0.95),
                              theta=over.get("theta", 20.0))
        spec = DetectorSpec(tag, over.get("lam", lam_fixed))
        key, val = next(iter(over.items()))
        _hist_series(run, f"{name}{panel}_{key}{val:g}", scen, [spec],
                     budgets["hist"], seed, workers, {spec.label: 1.0})


def _repro_fig8(run, budgets, seed, workers, pfa):
    _cfar_hist_panels(run, "fig8", "cfar-dl-scmf", 1.5, budgets, seed,
                      workers)


def _repro_fig9(run, budgets, seed, workers, pfa):
    _cfar_hist_panels(run, "fig9", "cfar-dl-amf", 1.5, budgets, seed, workers)


def _repro_fig10(run, budgets, seed, workers, pfa):
    scen = _scen_toeplitz(24, 48)
    specs = [DetectorSpec("cfar-dl-scmf", 1.5), DetectorSpec("cfar-dl-amf", 1.5),
             DetectorSpec(NP)]
    grid = np.arange(0.0, 20.5, 1.0)
    _mc_pd_curves(run, "fig10", scen, specs, grid, budgets, seed, workers,
                  pfa)
    kv = rmt.kappa(scen.covariance(), scen.steering, 1.5, scen.K)
    tau = theory.cfar_threshold(pfa)
    from .results import Curve
    lin = harness.db_to_linear(grid)
    for t in ("swerling0", "swerling1"):
        _write_curve(run.path(f"fig10_{t}_theory_cfar-dl.csv"),
                     Curve(x=grid, y=theory.cfar_dl_pd(lin, kv, tau, t)))
        _write_curve(run.path(f"fig10_{t}_theory_np.csv"),
                     Curve(x=grid, y=theory.cfar_dl_pd(lin, 1.0, tau, t)))


def _repro_fig11(run, budgets, seed, workers, pfa):
    # sigma_c^2 sweep values are a preset choice, recorded in the manifest
    combos = ([("ab", {"rho": r}) for r in (0.1, 0.5, 0.95)]
              + [("cd", {"clutter_power": p}) for p in (1.0, 10.0, 100.0)])
    run.notes["clutter_power_sweep"] = [1.0, 10.0, 100.0]
    for panel, over in combos:
        scen = _scen_toeplitz(24, 48, rho=over.get("rho", 0.95),
                              clutter_power=over.get("clutter_power", 10.0))
        key, val = next(iter(over.items()))
        specs = [DetectorSpec(EL_AMF), DetectorSpec(CFAR_EL_AMF)]
        _hist_series(run, f"fig11{panel}_{key}{val:g}", scen, specs,
                     budgets["hist"], seed, workers,
                     {specs[1].label: 1.0})


def _repro_fig12(run, budgets, seed, workers, pfa):
    scen = _scen_toeplitz(24, 48)
    specs = [DetectorSpec(EL_AMF), DetectorSpec(CFAR_EL_AMF),
             DetectorSpec(NP)]
    grid = np.arange(0.0, 20.5, 1.0)
    _mc_pd_curves(run, "fig12", scen, specs, grid, budgets, seed, workers,
                  pfa)
    _theory_roc_files(run, "fig12", grid, pfa, {NP: 1.0})


def _repro_fig13(run, budgets, seed, workers, pfa):
    for rho in (0.1, 0.5, 0.95):
        scen = _scen_toeplitz(24, 48, rho=rho)
        specs = [DetectorSpec(OPT_CFAR_DL_SCMF), DetectorSpec(OPT_CFAR_DL_AMF)]
        _hist_series(run, f"fig13_rho{rho:g}", scen, specs, budgets["hist"],
                     seed, workers,
                     {sp.label: 1.0 for sp in specs})


def _repro_fig14(run, budgets, seed, workers, pfa):
    scen = _scen_toeplitz(24, 48)
    specs = [DetectorSpec(OPT_CFAR_DL_SCMF), DetectorSpec(OPT_CFAR_DL_AMF),
             DetectorSpec(NP)]
    grid = np.arange(0.0, 20.5, 1.0)
    _mc_pd_curves(run, "fig14", scen, specs, grid, budgets, seed, workers,
                  pfa)
    R = scen.covariance()
    opt = optimizer.lambda_opt(R, scen.steering, scen.K)
    run.notes["lambda_opt"] = opt.lambda_star
    _theory_roc_files(run, "fig14", grid, pfa,
                      {"opt-dl": opt.objective_value, NP: 1.0})


def _loss_table_preset(run, name, scen_fn, budgets, seed, workers, pfa):
    specs = [DetectorSpec(SCM_AMF), DetectorSpec(PERSYM_AMF),
             DetectorSpec(CFAR_EL_AMF), DetectorSpec(OPT_CFAR_DL_SCMF),
             DetectorSpec(OPT_CFAR_DL_AMF)]
    rows = []
    for K in (48, 28):
        scen = scen_fn(24, K)
        part = harness.detection_loss_table(
            scen, specs, pfa_pre=pfa, threshold_trials=budgets["threshold"],
            pd_trials=budgets["pd"], master_seed=seed, workers=workers)
        for r in part:
            r["K"] = K
            rows.append(r)
    _write_csv(run.path(f"{name}.csv"),
               ("K", "detector", "kind", "target", "tau", "scnr_db",
                "loss_db"),
               [(r["K"], r["detector"], r["kind"], r["target"], r["tau"],
                 r["scnr_db"], r["loss_db"]) for r in rows])


def _repro_table2(run, budgets, seed, workers, pfa):
    _loss_table_preset(run, "table2", _scen_toeplitz, budgets, seed, workers,
                       pfa)


def _repro_table3(run, budgets, seed, workers, pfa):
    _loss_table_preset(run, "table3", _scen_lowrank, budgets, seed, workers,
                       pfa)


REPRODUCE_ITEMS = {
    "fig1": _repro_fig1, "fig2": _repro_fig2, "fig5": _repro_fig5,
    "fig6": _repro_fig6, "fig7": _repro_fig7, "fig8": _repro_fig8,
    "fig9": _repro_fig9, "fig10": _repro_fig10, "fig11": _repro_fig11,
    "fig12": _repro_fig12, "fig13": _repro_fig13, "fig14": _repro_fig14,
    "table2": _repro_table2, "table3": _repro_table3,
}


def cmd_reproduce(args, argv):
    if args.item not in REPRODUCE_ITEMS:
        raise ConfigError(f"unknown reproduce item {args.item!r}; "
                          f"expected one of {sorted(REPRODUCE_ITEMS)}")
    budgets = FAST_BUDGETS if args.fast else FULL_BUDGETS
    run = _Run(argv, args.out,
               notes={"item": args.item, "fast": bool(args.fast),
                      "budgets": budgets})
    REPRODUCE_ITEMS[args.item](run, budgets, args.seed, args.workers,
                               args.pfa)
    run.finish({"seed": args.seed, "pfa": args.pfa,
                "detectors": None})
    return 0


# --- parser ----------------------------------------------------------------

def _add_common(p, trials_default):
    p.add_argument("--pfa", type=float, default=1e-3)
    p.add_argument("--trials", type=int, default=trials_default)
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="loading factor for fixed-loading detectors")
    p.add_argument("--lambda-max", type=float, default=None)
    p.add_argument("--grid-points", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-4)


def build_parser():
    ap = _Parser(prog="dlamf",
                 description="Diagonally loaded adaptive matched filters: "
                             "design curves, thresholds, detection tables.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kappa", parents=[], help="kappa(lambda) sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--lambda-grid", default="1e-3:log:1e3:200",
                   help="LO:log|lin:HI:N")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_kappa)

    p = sub.add_parser("threshold", help="calibrate detection thresholds")
    p.add_argument("--config", required=True)
    p.add_argument("--detector", "--detectors", required=True,
                   help="comma-separated detector tags")
    _add_common(p, 100_000)
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("pd-sweep", help="detection probability vs SCNR")
    p.add_argument("--config", required=True)
    p.add_argument("--detector", "--detectors", required=True)
    p.add_argument("--scnr-db", default="0:1:20", help="LO:STEP:HI in dB")
    p.add_argument("--threshold-trials", type=int, default=100_000)
    _add_common(p, 10_000)
    p.set_defaults(func=cmd_pd_sweep)

    p = sub.add_parser("loss-table", help="SCNR loss vs the clairvoyant "
                                          "filter at a target pd")
    p.add_argument("--config", required=True)
    p.add_argument("--detector", "--detectors", required=True)
    p.add_argument("--pd", type=float, default=0.5)
    p.add_argument("--threshold-trials", type=int, default=100_000)
    _add_common(p, 10_000)
    p.set_defaults(func=cmd_loss_table)

    p = sub.add_parser("reproduce", help="emit a canned study as CSV data")
    p.add_argument("item", help=f"one of {sorted(REPRODUCE_ITEMS)}")
    p.add_argument("--fast", action="store_true",
                   help="reduced trial budgets for smoke runs")
    p.add_argument("--pfa", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reproduce)
    return ap


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args, argv) or 0
    except ConfigError as e:
        _emit_error("config", e)
        return 2
    except NumericalError as e:
        _emit_error("numerical", e)
        return 3


if __name__ == "__main__":
    sys.exit(main())
