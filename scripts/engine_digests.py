#!/usr/bin/env python3
"""Print sha256 digests of the trial engine's outputs, one line per
(detector set, workers, chunk), to check that a change leaves its bits alone.

Usage: PYTHONPATH=src python3 scripts/engine_digests.py [--trials 512]

Each set runs at workers=1 with the default chunk, and at workers=2 with a
chunk that splits the trials into at least three chunks. Where the tree has
harness.Engine, each set runs a third time on one engine of two workers
shared by every set, with the default chunk, which the engine cuts to
ceil(trials / 2) (the "engine=2" lines). A digest covers the h0 statistics
of h0_statistics and the (alpha, beta, norm) coefficients and amplitudes of
one pd_evaluator pass, for every detector of the set. A last line digests
evaluate_statistic for every kind on five trials.

Run it with PYTHONPATH at two source trees: equal lines mean equal bits.
The script reads only names that the engine has had since the one-pass
coefficients, and the engine lines where it exists, so an older tree prints
its own baseline. Exits 1 when the lines of one set disagree, since the
reproducibility contract makes the statistics independent of the worker
count, the chunk size and the engine.
"""

import argparse
import contextlib
import hashlib
import sys

import numpy as np

from dlamf import detectors, harness
from dlamf.detectors import DetectorSpec
from dlamf.harness import TrialConfig
from dlamf.scenario import (LowRankClutter, Scenario, Swerling0,
                            ToeplitzClutter, sample_dataset, scm, trial_rng)

SEED = 11
LAM = 1.5


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


def engine_digest(scen, specs, trials, workers, chunk, engine=None):
    on = {} if engine is None else {"engine": engine}
    stats = harness.h0_statistics(scen, specs, trials, SEED, workers=workers,
                                  chunk=chunk, **on)
    ev = harness.pd_evaluator(TrialConfig(scen, specs, trials, SEED,
                                          workers=workers, chunk=chunk), **on)
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


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--trials", type=int, default=512)
    args = ap.parse_args(argv)
    runs = [(1, harness.DEFAULT_CHUNK), (2, max(1, args.trials // 3))]
    status = 0
    shared = getattr(harness, "Engine", None)
    with shared(2) if shared else contextlib.nullcontext() as engine:
        for name, (scen, specs) in SETS.items():
            digests = set()
            for workers, chunk in runs:
                d = engine_digest(scen, specs, args.trials, workers, chunk)
                digests.add(d)
                print(f"{name} workers={workers} chunk={chunk} {d}",
                      flush=True)
            if engine is not None:
                d = engine_digest(scen, specs, args.trials, 1,
                                  harness.DEFAULT_CHUNK, engine=engine)
                digests.add(d)
                print(f"{name} engine=2 chunk={harness.DEFAULT_CHUNK} {d}",
                      flush=True)
            if len(digests) > 1:
                print(f"{name}: digests differ across workers, chunks and "
                      f"engines", file=sys.stderr)
                status = 1
    scen, specs = SETS["all-kinds-toeplitz-n24"]
    print(f"evaluate_statistic all-kinds-toeplitz-n24 "
          f"{scalar_digest(scen, specs)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
