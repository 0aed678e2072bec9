"""dlamf benchmark: closed-loop workloads timed from outside the package.

    python3 perfbench/run.py --workload h0-cfar8 --seed 1 --seconds 16 \
        --trace 0

One client, one op at a time (closed loop, workers=1): op i runs with a seed
derived from (--seed, i), its output is gated and digested untimed, and the
next op starts. The loop stops once the ops have been busy for --seconds.
--trace 0 prints the end-to-end metrics; --trace 1 runs a fixed list of ops,
each once untraced and once traced, and prints the per-layer metrics.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it name every metric with its unit and
sample count. A record of the run (environment, per-op times, digests and
counts, spans when traced) goes to perfbench/out/, named by a hash of the
source files. A rerun of the same workload and seed on the same sources is
checked against that record: digests and exact counts must repeat.
"""

from __future__ import annotations

import os

# One BLAS thread: the benchmark is one client on one core. On a shared
# two-core host the default thread pool made an N=48 pd-sweep op run 20x
# slower whenever another process was busy, which no bound could absorb.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

import numpy as np  # noqa: E402

import calibration  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# Set-up probes run half before and half after the timed loop: this host's
# speed drifts over tens of seconds, and one burst of probes samples one
# moment of it.
SETUP_PROBES = 16
MIN_COVERAGE = 0.9  # share of traced op time the wrapped layers must hold
REF_EVERY_S = 2.0  # busy seconds between two bursts of reference samples
REF_BURST = 3  # one reference sample varies by +-20% on a busy host


def _parse(argv, workload_names):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workload_names)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not args.seconds > 0:
        ap.error("--seconds must be > 0")
    return args


def _import_program():
    """Import dlamf from this checkout's src/, never from elsewhere."""
    if not (SRC / "dlamf" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no dlamf package under {SRC}")
    sys.path.insert(0, str(SRC))
    import dlamf
    if Path(dlamf.__file__).resolve().parent != SRC / "dlamf":
        raise SystemExit(f"run.py: imported dlamf from {dlamf.__file__}")
    import workloads
    return workloads


def _setup_seconds(workload, probes, ref):
    """Wall times of fresh processes that only set the workload up.

    A host-speed reference sample is appended to `ref` before each probe.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload]
    times = []
    for _ in range(probes):
        ref.append(calibration.reference_seconds())
        t0 = perf_counter()
        # wait() without a timeout blocks in waitpid; with one, it polls in
        # steps of up to 50 ms, which quantized the samples
        with subprocess.Popen(cmd, stdout=subprocess.DEVNULL) as proc:
            rc = proc.wait()
        times.append(perf_counter() - t0)
        if rc != 0:
            raise SystemExit(f"run.py: set-up probe exited {rc}")
    return times


def op_seed(seed, index):
    ss = np.random.SeedSequence((seed, index))
    return int(ss.generate_state(1, np.uint64)[0])


def _environment(seed):
    import scipy
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    git = None
    if (ROOT / ".git").exists():  # a checkout without .git has no describe
        try:
            git = subprocess.run(["git", "describe", "--always", "--dirty"],
                                 cwd=ROOT, capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except OSError:
            pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu,
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "git_describe": git, "workload_seed": seed}


def code_fingerprint():
    """sha256 over the paths and bytes of the sources a run depends on.

    Records are kept per fingerprint, so that a rerun is compared only with
    runs of the same code: a faster program may lower the exact counts.
    """
    files = [*SRC.rglob("*"), *(ROOT / "configs").rglob("*"),
             *BENCH_DIR.glob("*.py"), *(BENCH_DIR / "scenarios").rglob("*")]
    h = hashlib.sha256()
    for p in sorted(files):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(ROOT)).encode() + b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()


class Runner:
    """Runs, gates and records ops; owns the per-op records of one run."""

    def __init__(self, wl, seed):
        self.wl = wl
        self.seed = seed
        self.records = []
        self.errors = {"numerical": 0, "config": 0}

    def run_op(self, index, tracer=None):
        """One op: time it, then gate it untimed. Returns its record."""
        seed = op_seed(self.seed, index)
        rec = {"op": index, "seed": seed, "traced": tracer is not None,
               "problems": []}
        before = Counter(tracer.counts) if tracer else Counter()
        out = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = perf_counter()
            c0 = process_time()
            try:
                if tracer is None:
                    out = self.wl.op(index, seed)
                else:
                    with tracer.trace_op(len(self.records)):
                        out = self.wl.op(index, seed)
            except Exception as e:  # op boundary: record, count, go on
                kind = getattr(e, "kind", type(e).__name__)
                key = {"NumericalError": "numerical",
                       "ConfigError": "config"}.get(kind)
                if key:
                    self.errors[key] += 1
                rec["problems"].append(f"op raised {type(e).__name__}: {e}")
                rec["traceback"] = traceback.format_exc()
                print(rec["traceback"], file=sys.stderr)
            rec["s"] = perf_counter() - t0 if tracer is None \
                else tracer.last_op_seconds
            rec["cpu_s"] = process_time() - c0
        msgs = [str(w.message) for w in caught]
        counts = dict(tracer.counts - before) if tracer else {}
        counts["scenario.eig_clamps"] = sum("clamped" in m for m in msgs)
        counts["warnings"] = len(msgs)
        g0 = perf_counter()
        if out is not None:
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    chk = self.wl.check(out, seed)
            except Exception as e:  # a gate that cannot run is a failed op
                rec["problems"].append(f"gate raised {type(e).__name__}: {e}")
                print(traceback.format_exc(), file=sys.stderr)
            else:
                rec["problems"] += chk.problems
                rec["digest"] = chk.digest
                counts.update(chk.counts)
        rec["counts"] = counts
        rec["gate_s"] = perf_counter() - g0
        rec["trials"] = self.wl.trials if out is not None else 0
        for p in rec["problems"]:
            print(f"{self.wl.name} op {index}: {p}", file=sys.stderr)
        self.records.append(rec)
        return rec


def _quantile(xs, q):
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1] \
        if len(xs) > 1 else xs[0]


def measure(runner, seconds, ref):
    """Closed loop until the ops have been busy for `seconds`.

    Between ops run bursts of REF_BURST host-speed reference samples: one
    before the first op, one every REF_EVERY_S busy seconds and one after
    the last op. Their samples are appended to `ref`, and each op record
    gets `ref_s`, the median of the two bursts around it: the host's speed
    swings within seconds, and a run-wide median tracked the ops poorly.
    """
    bursts = []  # (index of the op that follows, samples)
    busy = next_ref = 0.0
    wall0 = perf_counter()
    index = 0
    while index == 0 or (busy < seconds and
                         perf_counter() - wall0 < 3 * seconds):
        if busy >= next_ref:
            bursts.append((index, _ref_burst()))
            next_ref = busy + REF_EVERY_S
        busy += runner.run_op(index)["s"]
        index += 1
    bursts.append((index, _ref_burst()))
    for i, rec in enumerate(runner.records):
        before = [b for j, b in bursts if j <= i][-1]
        after = next(b for j, b in bursts if j > i)
        rec["ref_s"] = statistics.median(before + after)
    for _, b in bursts:
        ref += b


def _ref_burst():
    return [calibration.reference_seconds() for _ in range(REF_BURST)]


def measure_traced(runner, tracer):
    """Fixed op list, each op untraced then traced with the same seed."""
    for index in range(runner.wl.trace_ops):
        plain = runner.run_op(index)
        traced = runner.run_op(index, tracer)
        if plain.get("digest") != traced.get("digest"):
            traced["problems"].append("traced digest differs from untraced")
            print(f"op {index}: traced digest differs from untraced",
                  file=sys.stderr)


def _compare_with_previous(path_for, records, trace):
    """Digests (any mode) and counts (same mode) must repeat per op.

    `path_for` names only records of the same code fingerprint.
    """
    problems = []
    mine = {(r["op"], r["traced"]): r for r in records}
    for t in (0, 1):
        path = path_for(t)
        if not path.is_file():
            continue
        try:
            old = json.loads(path.read_text())["ops"]
        except (ValueError, KeyError) as e:
            print(f"ignoring unreadable record {path}: {e}", file=sys.stderr)
            continue
        for o in old:
            for r in (mine.get((o["op"], False)), mine.get((o["op"], True))):
                if r is None or "digest" not in r or "digest" not in o:
                    continue
                if r["digest"] != o["digest"]:
                    problems.append(f"op {o['op']}: digest differs from "
                                    f"{path.name}")
                if t == trace and r["traced"] == o["traced"] and \
                        r["counts"] != o["counts"]:
                    problems.append(f"op {o['op']}: counts differ from "
                                    f"{path.name}")
    return problems


def _print_metric(workload, name, value, unit, n, what):
    print(f"{workload:14s} {name:34s} {value:14.6g} {unit:6s} n={n} {what}")


def end_to_end_rows(recs, setup_samples, ref):
    """(name, value, unit, samples, meaning) of the untraced metrics, and
    the host speeds NOMINAL_S / median(samples) of the two phases.

    Set-up times are scaled by the speed of the set-up phase, each op time
    by NOMINAL_S / its own `ref_s`. The meaning column carries each
    unscaled value.
    """
    speed = {phase: calibration.NOMINAL_S / statistics.median(samples)
             for phase, samples in ref.items()}
    op_times = [r["s"] for r in recs]
    scaled = [r["s"] * calibration.NOMINAL_S / r["ref_s"] for r in recs]
    busy = sum(op_times)
    trials = sum(r["trials"] for r in recs)
    setup = statistics.median(setup_samples)
    op_p50 = statistics.median(op_times)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return [
        ("setup_s", setup * speed["setup"], "s", len(setup_samples),
         f"median fresh-process set-up (raw {setup:.4g} s)"),
        ("op_s_p50", statistics.median(scaled), "s", len(op_times),
         f"median op time (raw {op_p50:.4g} s)"),
        ("trials_per_s", trials / sum(scaled), "1/s", len(op_times),
         f"{trials} trials / busy time (raw {trials / busy:.4g}/s)"),
        ("peak_rss_mb", peak, "MiB", 1, "max resident set of the run"),
    ], speed


def layer_rows(recs, tracer, tracer_mod, errors):
    """Per-layer rows of a traced run, plus problems with the trace."""
    plain = [r["s"] for r in recs if not r["traced"]]
    traced = [r for r in recs if r["traced"]]
    traced_s = [r["s"] for r in traced]
    total = sum(traced_s)
    n = len(traced)
    rows = [(k, v, "s", n, "self time summed over traced ops")
            for k, v in tracer_mod.layer_seconds(tracer).items()]
    for k in tracer_mod.COUNT_METRICS:
        rows.append((k, sum(r["counts"].get(k, 0) for r in traced),
                     "B" if k == "cli.bytes_written" else "count", n,
                     "exact count over traced ops"))
    coverage = 1.0 - dict((r[0], r[1]) for r in rows)["bench.self_s"] / total
    rows += [
        ("errors.numerical", errors["numerical"], "count", len(recs),
         "ops that raised NumericalError"),
        ("errors.config", errors["config"], "count", len(recs),
         "ops that raised ConfigError"),
        ("trace.op_s", total, "s", n, "traced op time, summed"),
        ("trace.coverage", coverage, "ratio", n,
         "share of traced op time inside wrapped layers"),
        ("trace.overhead_ratio",
         statistics.median(traced_s) / statistics.median(plain), "ratio", n,
         "traced op_s_p50 / untraced op_s_p50, same ops"),
    ]
    problems = []
    if coverage < MIN_COVERAGE:
        problems.append(f"wrapped layers cover {coverage:.3f} of traced op "
                        f"time, below {MIN_COVERAGE}")
    return rows, problems


def main(argv=None):
    wall0 = perf_counter()
    workloads = _import_program()
    args = _parse(sys.argv[1:] if argv is None else argv,
                  sorted(workloads.WORKLOADS))
    wl = workloads.WORKLOADS[args.workload]()
    if args.setup_probe:
        wl.setup(ROOT)
        return 0

    calibration.reference_seconds()  # warm the reference before sampling it
    probes = 0 if args.trace else SETUP_PROBES // 2
    ref = {"setup": [], "ops": []}
    setup_samples = _setup_seconds(args.workload, probes, ref["setup"])
    wl.setup(ROOT)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        wl.warmup()
    runner = Runner(wl, args.seed)
    if args.trace:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()
        measure_traced(runner, tracer)
    else:
        measure(runner, args.seconds, ref["ops"])
    recs = runner.records
    setup_samples += _setup_seconds(args.workload, probes, ref["setup"])
    if args.trace:
        rows, run_problems = layer_rows(recs, tracer, tracer_mod,
                                        runner.errors)
    else:
        rows, speed = end_to_end_rows(recs, setup_samples, ref)
        run_problems = []

    if hasattr(wl, "run_check") and "digest" in recs[0]:
        run_problems += wl.run_check(recs[0]["seed"], recs[0]["digest"])
    out_dir = workloads.OUT_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    code = code_fingerprint()

    def path_for(trace):
        return out_dir / (f"{args.workload}-seed{args.seed}-trace{trace}"
                          f"-{code[:12]}.json")

    run_problems += _compare_with_previous(path_for, recs, args.trace)
    for p in run_problems:
        print(f"{args.workload}: {p}", file=sys.stderr)
    failed = sum(1 for r in recs if r["problems"])
    correct = failed == 0 and not run_problems
    metrics = {name: {"value": value, "unit": unit}
               for name, value, unit, _, _ in rows}
    op_times = [r["s"] for r in recs if not r["traced"]]
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": _environment(args.seed),
              "code_sha256": code,
              "setup_samples": setup_samples,
              "reference_samples": ref,
              "host_speed": None if args.trace else speed,
              "op_s_p90": _quantile(op_times, 90),
              "fail_ratio": failed / len(recs),
              "run_problems": run_problems,
              "wall_s": perf_counter() - wall0,
              "metrics": metrics, "ops": recs}
    path = path_for(args.trace)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=1))
    tmp.replace(path)
    if args.trace:
        (out_dir / f"spans-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(tracer.span_rows()))

    for name, value, unit, n, what in rows:
        _print_metric(args.workload, name, value, unit, n, what)
    _print_metric(args.workload, "fail_ratio", failed / len(recs), "ratio",
                  len(recs), "failed ops / attempted ops")
    if not args.trace:
        for phase, v in speed.items():
            _print_metric(args.workload, f"host_speed.{phase}", v, "ratio",
                          len(ref[phase]),
                          f"median reference-kernel speed, {phase} phase")
    print(json.dumps({"correct": correct, "attempted": len(recs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
