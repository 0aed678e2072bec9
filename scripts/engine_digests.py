#!/usr/bin/env python3
"""Print sha256 digests of the trial engine's outputs, one line per
(detector set, engine), to check that a change leaves its bits alone.

Usage: PYTHONPATH=src python3 scripts/engine_digests.py [--trials 512]

Each set runs on three engines, of 1, 2 and 3 workers, each shared by every
set. An engine cuts a run into chunks of min(DEFAULT_CHUNK, ceil(trials /
workers)) trials, so the default 512 trials run as one chunk in process,
two chunks on a pool and three chunks on a pool. A digest covers the h0
statistics of h0_statistics and the (alpha, beta, norm) coefficients and
amplitudes of one pd_evaluator pass, for every detector of the set. One
more line digests evaluate_statistic for every kind on five trials, and
the last one the loading searches: lambda_opt on every set's scenario and
lambda_opt_hat on five trials of each (lambda, value, evaluations,
converged), so a change to the search shows apart from the statistics.

Run it with PYTHONPATH at two source trees: equal lines mean equal bits.
The script reaches the engine only through harness.Engine and the engine
keyword of the trial functions. Exits 1 when the lines of one set
disagree, since the reproducibility contract makes the statistics
independent of the worker count and the chunk cut.
"""

import argparse
import contextlib
import hashlib
import sys

import numpy as np

from dlamf import detectors, harness, optimizer
from dlamf.detectors import DetectorSpec
from dlamf.harness import TrialConfig
from dlamf.scenario import (LowRankClutter, Scenario, Swerling0,
                            ToeplitzClutter, sample_dataset, scm, trial_rng)

SEED = 11
LAM = 1.5
WORKERS = (1, 2, 3)


def _toeplitz(N, K):
    return Scenario(N=N, K=K, clutter=ToeplitzClutter(10.0, 0.95),
                    noise_power=1.0, steering_deg=20.0)


def _lowrank(N, K):
    angles = (0.0, 5.0, 5.0, 10.0, 25.0, 25.0, 30.0, 30.0, 60.0)
    return Scenario(N=N, K=K,
                    clutter=LowRankClutter(angles, (10.0,) * len(angles)),
                    noise_power=1.0, steering_deg=20.0)


def _specs(tags, lam=LAM):
    return [DetectorSpec(k, lam if k in detectors.FIXED_LAMBDA_TAGS
                         else None) for k in tags]


CRITERION4 = ([DetectorSpec("cfar-dl-scmf", lam) for lam in (1.5, 5.0, 10.0)]
              + [DetectorSpec("cfar-dl-amf", lam) for lam in (1.5, 5.0, 10.0)]
              + _specs(("cfar-el-amf", "opt-cfar-dl-amf")))

SETS = {
    "criterion4": (_toeplitz(24, 48), CRITERION4),
    "pd-sweep-n48": (_toeplitz(48, 64), _specs(
        ("np", "scm-amf", "dl-amf", "cfar-dl-amf", "cfar-dl-scmf",
         "persym-amf"))),
    "all-kinds-toeplitz-n24": (_toeplitz(24, 48), _specs(detectors.ALL_TAGS)),
    "all-kinds-lowrank-n8": (_lowrank(8, 16), _specs(detectors.ALL_TAGS)),
    "el-persym": (_toeplitz(24, 48), _specs(("el-amf", "persym-amf"))),
}


def engine_digest(scen, specs, trials, engine):
    stats = harness.h0_statistics(scen, specs, trials, SEED, engine=engine)
    ev = harness.pd_evaluator(TrialConfig(scen, specs, trials, SEED),
                              engine=engine)
    h = hashlib.sha256()
    for sp in specs:
        h.update(sp.label.encode())
        h.update(stats[sp.label].astype("<f8").tobytes())
        for x in ev.coeffs[sp.label]:
            h.update(np.ascontiguousarray(x).tobytes())
    h.update(ev.amp.tobytes())
    return h.hexdigest()


def scalar_digest(scen, specs, trials=5):
    R = scen.covariance()
    vals = []
    for t in range(trials):
        ds = sample_dataset(scen, Swerling0(), "h0", trial_rng(SEED, 0, t))
        S = scm(ds)
        for sp in specs:
            vals.append(detectors.evaluate_statistic(
                sp, ds.y0, scen.steering, scen.K,
                scm=None if sp.kind == "np" else S,
                R=R if sp.kind in detectors.ORACLE_TAGS else None))
    return hashlib.sha256(np.array(vals).tobytes()).hexdigest()


def search_digest(trials=5):
    found = []
    for scen, _ in SETS.values():
        s, K = scen.steering, scen.K
        found.append(optimizer.lambda_opt(scen.covariance(), s, K))
        for t in range(trials):
            ds = sample_dataset(scen, Swerling0(), "h0", trial_rng(SEED, 0, t))
            found.append(optimizer.lambda_opt_hat(scm(ds), s, K))
    return hashlib.sha256(np.array(
        [(r.lambda_star, r.objective_value, r.evaluations, r.converged)
         for r in found]).tobytes()).hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--trials", type=int, default=512)
    args = ap.parse_args(argv)
    status = 0
    with contextlib.ExitStack() as stack:
        engines = [stack.enter_context(harness.Engine(w)) for w in WORKERS]
        for name, (scen, specs) in SETS.items():
            digests = set()
            for engine in engines:
                d = engine_digest(scen, specs, args.trials, engine)
                digests.add(d)
                print(f"{name} engine={engine.workers} {d}", flush=True)
            if len(digests) > 1:
                print(f"{name}: digests differ across engines",
                      file=sys.stderr)
                status = 1
    scen, specs = SETS["all-kinds-toeplitz-n24"]
    print(f"evaluate_statistic all-kinds-toeplitz-n24 "
          f"{scalar_digest(scen, specs)}")
    print(f"lambda_opt/lambda_opt_hat all-sets {search_digest()}")
    return status


if __name__ == "__main__":
    sys.exit(main())
