"""Repeat the benchmark over seeds and report each metric's spread.

    python3 perfbench/repeat.py --workload h0-cfar8 --seeds 1-10 \
        [--seconds 16] [--trace 0] [--save perfbench/out/set1.json]

For every metric: median, first and third quartile (statistics.quantiles,
n=4) and the spread (Q3 - Q1) / median. Runs are sequential, one process at
a time. --save writes the per-run results and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent


def _seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def summarize(results):
    """{metric: {median, q1, q3, spread, unit, values}} over runs."""
    out = {}
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 \
            else (vals[0],) * 3
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0,
                     "unit": results[0]["metrics"][name]["unit"],
                     "values": vals}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", type=Path)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = []
    for seed in _seeds(args.seeds):
        cmd = [sys.executable, str(RUN), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"seed {seed}: exit {proc.returncode}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        res["seed"] = seed
        results.append(res)
        vals = " ".join(f"{k}={v['value']:.6g}"
                        for k, v in res["metrics"].items()
                        if k in bounds or args.trace)
        print(f"seed {seed}: correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']} {vals}",
              flush=True)

    summary = summarize(results)
    for name, s in summary.items():
        bound = bounds.get(name)
        line = (f"{args.workload:14s} {name:32s} median {s['median']:.6g} "
                f"{s['unit']} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                f"spread {s['spread']:.4f}")
        if bound is not None:
            line += f" (bound {bound}, bound/3 {bound / 3:.4f})"
        print(line)
    ok = all(r["correct"] and r["failed"] == 0 for r in results)
    print(f"{args.workload}: all runs correct: {ok}")
    if args.save:
        args.save.parent.mkdir(parents=True, exist_ok=True)
        args.save.write_text(json.dumps(
            {"workload": args.workload, "seconds": seconds,
             "trace": args.trace, "runs": results, "summary": summary},
            indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
