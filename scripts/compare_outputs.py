#!/usr/bin/env python3
"""Compare the CSV files of two dlamf output directories value by value.

Usage: compare_outputs.py DIR_A DIR_B

Matches CSV files by their path relative to each directory (searched
recursively, so a directory holding several runs works too) and prints, for
every numeric column of every matched file, the largest absolute and the
largest relative difference; a relative difference is |a - b| / max(|a|, |b|)
and is 0 where both cells are 0. Cells that do not parse as numbers are
compared as text and counted when they differ. Exits with status 1 when the
two file sets, the headers or the row counts of a matched file differ.
"""

import argparse
import csv
import math
import sys
from pathlib import Path


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def column_diffs(head, rows_a, rows_b):
    """{column: (max abs diff, max rel diff, differing text cells)}."""
    out = {}
    for j, name in enumerate(head):
        d_abs = d_rel = 0.0
        text = 0
        for ra, rb in zip(rows_a, rows_b):
            a, b = number(ra[j]), number(rb[j])
            if a is None or b is None:
                text += ra[j] != rb[j]
                continue
            if a == b or (math.isnan(a) and math.isnan(b)):
                continue
            gap = abs(a - b)
            if math.isfinite(gap):
                rel = gap / max(abs(a), abs(b))
            else:  # a NaN or an infinity against a number
                gap = rel = math.inf
            d_abs, d_rel = max(d_abs, gap), max(d_rel, rel)
        out[name] = (d_abs, d_rel, text)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dir_a", type=Path)
    ap.add_argument("dir_b", type=Path)
    args = ap.parse_args()
    files_a = {p.relative_to(args.dir_a) for p in args.dir_a.rglob("*.csv")}
    files_b = {p.relative_to(args.dir_b) for p in args.dir_b.rglob("*.csv")}
    failed = False
    for name in sorted(files_a ^ files_b):
        side = "A" if name in files_a else "B"
        print(f"{name}: only in {side}")
        failed = True
    for name in sorted(files_a & files_b):
        head_a, rows_a = read_csv(args.dir_a / name)
        head_b, rows_b = read_csv(args.dir_b / name)
        if head_a != head_b or len(rows_a) != len(rows_b):
            print(f"{name}: header or row count differs "
                  f"({len(rows_a)} against {len(rows_b)} rows)")
            failed = True
            continue
        for col, (d_abs, d_rel, text) in column_diffs(
                head_a, rows_a, rows_b).items():
            extra = f" text_cells={text}" if text else ""
            print(f"{name} {col}: max_abs={d_abs:.3e} "
                  f"max_rel={d_rel:.3e}{extra}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
