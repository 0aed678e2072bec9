"""Command line front end: scenario JSON in, CSV curves and tables out.

Every command writes its data files plus a manifest.json into --out; the
manifest records the command line, config digest, seed and every output
file, so a run is reproducible from the manifest alone. Its "thresholds"
hold each calibrated detector's tau and achieved Pfa with its Wilson
interval, by detector label (reproduce: by panel, then label); as in
thresholds.csv, the achieved Pfa is in-sample (see
harness.threshold_from_stats), not an independent check. Figures
ship as data series (x, y, ci_lo, ci_hi), not images;
scripts/plot_results.py can render them.

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
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__, harness, optimizer, rmt, theory
from .detectors import (CFAR_DL_AMF, CFAR_DL_SCMF, CFAR_EL_AMF, CFAR_TAGS,
                        DL_AMF, DL_RAW, DL_SCM_BETA, EL_AMF,
                        FIXED_LAMBDA_TAGS, KINDS, NP, OPT_CFAR_DL_AMF,
                        OPT_CFAR_DL_SCMF, PERSYM_AMF, SCM_AMF, DetectorSpec)
from .errors import ConfigError, NumericalError
from .harness import TrialConfig
from .optimizer import OptConfig
from .results import Curve
from .scenario import (LowRankClutter, Scenario, ToeplitzClutter,
                       parse_document, scenario_from_json)

FULL_BUDGETS = {"threshold": 100_000, "pd": 10_000, "hist": 100_000}
FAST_BUDGETS = {"threshold": 10_000, "pd": 1_000, "hist": 10_000}
LOSS_COLUMNS = ("detector", "kind", "target", "tau", "scnr_db", "loss_db")

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


def _write_kappa(path, curve):
    """The kappa table of an optimizer.kappa_lambda_curve."""
    one_minus_c = curve.meta["one_minus_c"]
    _write_csv(path, ("lambda", "kappa", "kappa_lower", "one_minus_c"),
               ((lam, k, klo, one_minus_c) for lam, k, klo in
                zip(curve.x, curve.y, curve.meta["kappa_lower"])))


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
        self.thresholds = {}
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
            "thresholds": self.thresholds,
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
    doc = parse_document(text)
    return (*scenario_from_json(doc), doc)


def _parse_detectors(tag_text, lam):
    tags = [tag for tag in map(str.strip, tag_text.split(",")) if tag]
    # the first tag that _specs would refuse names the error
    bad = next((tag for tag in tags if tag not in KINDS or
                (lam is None and tag in FIXED_LAMBDA_TAGS)), None)
    if bad in FIXED_LAMBDA_TAGS:
        raise ConfigError(f"detector {bad!r} needs --lambda")
    if not tags:
        raise ConfigError("no detector tags given")
    return _specs(tags, lam)


def _parse_scnr_grid(spec):
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--scnr-db wants LO:STEP:HI, got {spec!r}")
    try:
        lo, step, hi = (float(p) for p in parts)
    except ValueError as e:
        raise ConfigError(f"bad --scnr-db {spec!r}: {e}") from e
    if not all(map(math.isfinite, (lo, step, hi))) or step <= 0 or hi < lo:
        raise ConfigError("--scnr-db needs finite LO, STEP, HI with STEP > 0 "
                          f"and HI >= LO, got {spec!r}")
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
    _write_kappa(run.path("kappa.csv"), optimizer.kappa_lambda_curve(
        scen.covariance(), scen.steering, scen.K, lambda_grid=grid))
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


def _pfa_record(taus):
    """{label: {tau, achieved_pfa, pfa_ci}} of {label: ThresholdResult}."""
    return {label: {"tau": t.tau, "achieved_pfa": t.achieved_pfa,
                    "pfa_ci": list(t.pfa_ci)} for label, t in taus.items()}


def cmd_threshold(args, argv):
    scen, _, doc = _load_scenario(args.config)
    specs = _parse_detectors(args.detector, args.lam)
    cfg = TrialConfig(scenario=scen, detector=specs, trials=args.trials,
                      master_seed=args.seed, pfa_pre=args.pfa,
                      workers=args.workers, opt_config=_opt_config(args))
    run = _Run(argv, args.out, doc)
    taus = harness.calibrate_threshold(cfg)
    run.thresholds.update(_pfa_record(taus))
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
    cal = TrialConfig(scenario=scen, detector=specs,
                      trials=args.threshold_trials, master_seed=args.seed,
                      pfa_pre=args.pfa, workers=args.workers,
                      opt_config=_opt_config(args))
    run = _Run(argv, args.out, doc, notes={"target": target})
    taus = harness.calibrate_threshold(cal)
    run.thresholds.update(_pfa_record(taus))
    curves = harness.pd_vs_scnr_sweep(
        replace(cal, trials=args.trials),
        {sp.label: taus[sp.label].tau for sp in specs}, grid, target)
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
    run.thresholds.update(_pfa_record(
        {r["detector"]: r["threshold"] for r in rows}))
    _write_csv(run.path("loss_table.csv"), LOSS_COLUMNS,
               ([r[c] for c in LOSS_COLUMNS] for r in rows))
    run.finish({"seed": args.seed, "pfa": args.pfa, "trials": args.trials,
                "threshold_trials": args.threshold_trials,
                "detectors": sorted({r["detector"] for r in rows})})
    return 0


# --- reproduction presets --------------------------------------------------
#
# Each reproduce item is one row of a table, and each table has one
# interpreter: HIST_ITEMS (h0 histograms against an exponential density),
# CURVE_ITEMS (Pd against SCNR for both target models, against the
# asymptotic Pd) and LOSS_ITEMS (SCNR-loss tables). Scenarios are Toeplitz
# (rho 0.95, theta 20 deg, clutter power 10) unless a row says otherwise,
# and fixed-loading detectors load with LAM.

LAM = 1.5
TARGETS = ("swerling0", "swerling1")
RHOS = (0.1, 0.5, 0.95)
# sigma_c^2 sweep values are a preset choice, recorded in the manifest
CLUTTER_POWERS = (1.0, 10.0, 100.0)
RHO_THETA_LAM = (("a", "rho", RHOS), ("b", "theta", (0.0, 5.0, 20.0)),
                 ("c", "lam", (1.5, 5.0, 10.0)))


class Histograms(NamedTuple):
    """h0 histograms of tags at N=24, K=48: a panel (letter, parameter,
    values) sweeps rho, theta, clutter_power or lam, one run per value."""
    panels: tuple
    tags: tuple
    notes: tuple = ()   # (key, value) pairs for the manifest


class Curves(NamedTuple):
    """Pd on the 0:1:top_db dB SCNR grid, one scenario per panel (letter,
    N, K, theta). A theory curve is (file label, the loading its kappa comes
    from): None for the clairvoyant filter (kappa 1), 0 for the SCM
    (1 - c), "opt" for lambda_opt, else kappa at that loading; its Pd is
    theory.cfar_dl_pd at that kappa and the threshold -ln(pfa).
    A kappa profile replaces tags and theory by dl-amf at its loadings
    ("opt": lambda_opt to 2 decimals), scm-amf and np, and adds the kappa
    table and a design summary."""
    panels: tuple
    top_db: float
    tags: tuple = ()
    theory: tuple = ()
    profile: tuple = ()


HIST_ITEMS = {
    "fig1": Histograms(RHO_THETA_LAM, (DL_AMF,)),
    "fig8": Histograms(RHO_THETA_LAM, (CFAR_DL_SCMF,)),
    "fig9": Histograms(RHO_THETA_LAM, (CFAR_DL_AMF,)),
    "fig11": Histograms(
        (("ab", "rho", RHOS), ("cd", "clutter_power", CLUTTER_POWERS)),
        (EL_AMF, CFAR_EL_AMF),
        (("clutter_power_sweep", CLUTTER_POWERS),)),
    "fig13": Histograms((("", "rho", RHOS),),
                        (OPT_CFAR_DL_SCMF, OPT_CFAR_DL_AMF)),
}

CURVE_ITEMS = {
    "fig2": Curves((("a", 12, 24, 20.0), ("b", 24, 48, 20.0)), 20.0,
                   (DL_AMF, DL_SCM_BETA, DL_RAW, NP),
                   (("dl-family", LAM), (NP, None))),
    "fig5": Curves((("", 12, 48, 20.0),), 24.0,
                   profile=(0.5, "opt", 20.0, 100.0)),
    "fig6": Curves((("", 12, 48, 5.0),), 30.0,
                   profile=(0.5, "opt", 20.0, 200.0)),
    "fig7": Curves((("", 12, 13, 5.0),), 30.0,
                   profile=(0.5, "opt", 20.0, 200.0)),
    "fig10": Curves((("", 24, 48, 20.0),), 20.0,
                    (CFAR_DL_SCMF, CFAR_DL_AMF, NP),
                    (("cfar-dl", LAM), (NP, None))),
    "fig12": Curves((("", 24, 48, 20.0),), 20.0, (EL_AMF, CFAR_EL_AMF, NP),
                    ((NP, None),)),
    "fig14": Curves((("", 24, 48, 20.0),), 20.0,
                    (OPT_CFAR_DL_SCMF, OPT_CFAR_DL_AMF, NP),
                    (("opt-dl", "opt"), (NP, None))),
}

# SCNR-loss tables at N=24 and K=48, 28, item -> scenario builder
LOSS_TAGS = (SCM_AMF, PERSYM_AMF, CFAR_EL_AMF, OPT_CFAR_DL_SCMF,
             OPT_CFAR_DL_AMF)


def _scen_toeplitz(N, K, rho=0.95, theta=20.0, clutter_power=10.0):
    return Scenario(N=N, K=K, clutter=ToeplitzClutter(clutter_power, rho),
                    noise_power=1.0, steering_deg=theta)


def _scen_lowrank(N, K, theta=20.0):
    return Scenario(N=N, K=K,
                    clutter=LowRankClutter(LOWRANK_ANGLES,
                                           (LOWRANK_POWER,) * len(LOWRANK_ANGLES)),
                    noise_power=1.0, steering_deg=theta)


LOSS_ITEMS = {"table2": _scen_toeplitz, "table3": _scen_lowrank}


def _specs(tags, lam=LAM):
    return [DetectorSpec(t, lam) if t in FIXED_LAMBDA_TAGS else DetectorSpec(t)
            for t in tags]


def _histograms(run, item, row, budgets, seed, workers, pfa):
    run.notes.update(row.notes)
    for panel, key, values in row.panels:
        for val in values:
            over = {key: val}
            specs = _specs(row.tags, over.pop("lam", LAM))
            scen = _scen_toeplitz(24, 48, **over)
            cfg = TrialConfig(scenario=scen, detector=specs,
                              trials=budgets["hist"], master_seed=seed,
                              workers=workers)
            hists = harness.empirical_pdf(cfg, bins=60)
            for sp in specs:
                h = hists[sp.label]
                name = f"{item}{panel}_{key}{val:g}_{_slug(sp.label)}"
                _write_hist(run.path(f"{name}.csv"), h)
                # the exponential h0 density, where the loading is fixed
                # for the run or the normalizer is CFAR
                if sp.lam is None and sp.kind not in CFAR_TAGS:
                    continue
                p = None if sp.lam is None else rmt.deterministic_equivalents(
                    scen.covariance(), scen.steering, sp.lam, scen.K)
                scale = theory.H0_SCALE[KINDS[sp.kind].norm](p, scen.c)
                xs = np.linspace(0.0, float(h.bin_edges[-1]), 201)
                _write_curve(run.path(f"{name}_theory.csv"),
                             Curve(x=xs, y=np.exp(-xs / scale) / scale))


def _curves(run, item, row, budgets, seed, workers, pfa):
    grid = np.arange(0.0, row.top_db + 0.5, 1.0)
    lin = harness.db_to_linear(grid)
    tau = theory.cfar_threshold(pfa)
    for panel, N, K, theta in row.panels:
        name = item + panel
        scen = _scen_toeplitz(N, K, theta=theta)
        R, s = scen.covariance(), scen.steering
        opt = None
        specs, curves = _specs(row.tags), row.theory
        if row.profile:
            opt = optimizer.lambda_opt(R, s, K)
            _write_kappa(run.path(f"{name}_kappa.csv"),
                         optimizer.kappa_lambda_curve(R, s, K))
            run.notes[name] = {
                "lambda_0": opt.lambda_star,
                "kappa_at_lambda_0": opt.objective_value,
                "kappa_inf": rmt.kappa_limit_inf(R, s),
                "one_minus_c": 1.0 - scen.c,
                "crossing": optimizer.kappa_crossing(R, s, K)}
            specs = [DetectorSpec(DL_AMF, round(opt.lambda_star, 2)
                                  if lam == "opt" else lam)
                     for lam in row.profile] + _specs((SCM_AMF, NP))
            curves = [(sp.label, sp.lam) for sp in specs[:-2]] \
                + [(SCM_AMF, 0.0), (NP, None)]
        cal = TrialConfig(scenario=scen, detector=specs,
                          trials=budgets["threshold"], master_seed=seed,
                          pfa_pre=pfa, workers=workers)
        taus = harness.calibrate_threshold(cal)
        run.thresholds[name] = _pfa_record(taus)
        mc = harness.pd_vs_scnr_sweep(
            replace(cal, trials=budgets["pd"]),
            {sp.label: taus[sp.label].tau for sp in specs}, grid, TARGETS)
        for t in TARGETS:
            for sp in specs:
                _write_curve(run.path(f"{name}_{t}_mc_{_slug(sp.label)}.csv"),
                             mc[t][sp.label])
        for label, lam in curves:
            if lam == "opt":
                if opt is None:
                    opt = optimizer.lambda_opt(R, s, K)
                run.notes["lambda_opt"] = opt.lambda_star
                kv = opt.objective_value
            elif lam is None:
                kv = 1.0
            elif lam == 0.0:
                kv = 1.0 - scen.c
            else:
                kv = rmt.kappa(R, s, lam, K)
            for t in TARGETS:
                y = theory.cfar_dl_pd(lin, kv, tau, t)
                _write_curve(run.path(f"{name}_{t}_theory_{_slug(label)}.csv"),
                             Curve(x=grid, y=y))


def _loss_table(run, item, scen_fn, budgets, seed, workers, pfa):
    rows = []
    for K in (48, 28):
        table = harness.detection_loss_table(
            scen_fn(24, K), _specs(LOSS_TAGS), pfa_pre=pfa,
            threshold_trials=budgets["threshold"], pd_trials=budgets["pd"],
            master_seed=seed, workers=workers)
        run.thresholds[f"{item}_K{K}"] = _pfa_record(
            {r["detector"]: r["threshold"] for r in table})
        rows += ([K] + [r[c] for c in LOSS_COLUMNS] for r in table)
    _write_csv(run.path(f"{item}.csv"), ("K",) + LOSS_COLUMNS, rows)


# item -> (interpreter, table row)
REPRODUCE_ITEMS = {item: (interpret, row)
                   for table, interpret in ((HIST_ITEMS, _histograms),
                                            (CURVE_ITEMS, _curves),
                                            (LOSS_ITEMS, _loss_table))
                   for item, row in table.items()}


def cmd_reproduce(args, argv):
    if args.item not in REPRODUCE_ITEMS:
        raise ConfigError(f"unknown reproduce item {args.item!r}; "
                          f"expected one of {sorted(REPRODUCE_ITEMS)}")
    budgets = FAST_BUDGETS if args.fast else FULL_BUDGETS
    run = _Run(argv, args.out,
               notes={"item": args.item, "fast": bool(args.fast),
                      "budgets": budgets})
    interpret, row = REPRODUCE_ITEMS[args.item]
    interpret(run, args.item, row, budgets, args.seed, args.workers, args.pfa)
    run.finish({"seed": args.seed, "pfa": args.pfa,
                "detectors": None})
    return 0


# --- parser ----------------------------------------------------------------

def _flags(*args, **kwargs):
    """A parent parser of one flag, for add_parser's parents."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(*args, **kwargs)
    return p


def build_parser():
    ap = _Parser(prog="dlamf",
                 description="Diagonally loaded adaptive matched filters: "
                             "design curves, thresholds, detection tables.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    config = _flags("--config", required=True)
    out = _flags("--out", required=True, help="output directory")
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--pfa", type=float, default=1e-3)
    run.add_argument("--seed", type=int, default=1234)
    run.add_argument("--workers", type=int, default=1)
    # the Monte Carlo commands: detectors, loadings and the opt search
    mc = argparse.ArgumentParser(add_help=False, parents=[config, run, out])
    mc.add_argument("--detector", "--detectors", required=True,
                    help="comma-separated detector tags")
    mc.add_argument("--lambda", dest="lam", type=float, default=None,
                    help="loading factor for fixed-loading detectors")
    mc.add_argument("--lambda-max", type=float, default=None)
    mc.add_argument("--grid-points", type=int, default=200)
    mc.add_argument("--tol", type=float, default=1e-4)
    trials = {n: _flags("--trials", type=int, default=n)
              for n in (10_000, 100_000)}
    pd = [mc, trials[10_000],
          _flags("--threshold-trials", type=int, default=100_000)]

    p = sub.add_parser("kappa", parents=[config, out],
                       help="kappa(lambda) sweep")
    p.add_argument("--lambda-grid", default="1e-3:log:1e3:200",
                   help="LO:log|lin:HI:N")
    p.set_defaults(func=cmd_kappa)

    p = sub.add_parser("threshold", parents=[mc, trials[100_000]],
                       help="calibrate detection thresholds")
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("pd-sweep", parents=pd,
                       help="detection probability vs SCNR")
    p.add_argument("--scnr-db", default="0:1:20", help="LO:STEP:HI in dB")
    p.set_defaults(func=cmd_pd_sweep)

    p = sub.add_parser("loss-table", parents=pd,
                       help="SCNR loss vs the clairvoyant filter at a "
                            "target pd")
    p.add_argument("--pd", type=float, default=0.5)
    p.set_defaults(func=cmd_loss_table)

    p = sub.add_parser("reproduce", parents=[run, out],
                       help="emit a canned study as CSV data")
    p.add_argument("item", help=f"one of {sorted(REPRODUCE_ITEMS)}")
    p.add_argument("--fast", action="store_true",
                   help="reduced trial budgets for smoke runs")
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
