#!/usr/bin/env python3
"""Compare the CSV files of two dlamf output directories value by value.

Usage: compare_outputs.py DIR_A DIR_B

Matches CSV files by their path relative to each directory (searched
recursively, so a directory holding several runs works too) and prints, for
every numeric column of every matched file, the largest absolute and the
largest relative difference; a relative difference is |a - b| / max(|a|, |b|)
and is 0 where both cells are 0. Cells that do not parse as numbers are
compared as text and counted when they differ.

Every manifest.json found in both directories has its "notes" and
"thresholds" compared the same way: each numeric leaf (design values such
as lambda_0, the kappa at it and the crossing; each detector's tau and
achieved Pfa) gets its absolute and relative difference, and other leaves
are compared as text. Exits with status 1 when the two file sets, the
headers or the row counts of a matched file, or the leaves of matched
manifests differ.
"""

import argparse
import csv
import json
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


def difference(a, b):
    """(absolute, relative) difference of two numbers."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0, 0.0
    gap = abs(a - b)
    if not math.isfinite(gap):  # a NaN or an infinity against a number
        return math.inf, math.inf
    return gap, gap / max(abs(a), abs(b))


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
            gap, rel = difference(a, b)
            d_abs, d_rel = max(d_abs, gap), max(d_rel, rel)
        out[name] = (d_abs, d_rel, text)
    return out


def leaves(node, path):
    """{dotted path: value} of the leaves of a JSON tree."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return {path: node}
    out = {}
    for key, child in items:
        out.update(leaves(child, f"{path}.{key}"))
    return out


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def manifest_leaves(path):
    """{dotted path: value} of a manifest's compared sections."""
    doc = json.loads(path.read_text())
    out = {}
    for section in ("notes", "thresholds"):
        out.update(leaves(doc.get(section, {}), section))
    return out


def compare_notes(name, path_a, path_b):
    """Print the differences of two manifests' notes and thresholds; True
    if their leaves are not the same set."""
    notes = [manifest_leaves(p) for p in (path_a, path_b)]
    failed = False
    for key in sorted(notes[0].keys() ^ notes[1].keys()):
        print(f"{name} {key}: only in {'A' if key in notes[0] else 'B'}")
        failed = True
    for key in sorted(notes[0].keys() & notes[1].keys()):
        a, b = notes[0][key], notes[1][key]
        if is_number(a) and is_number(b):
            d_abs, d_rel = difference(float(a), float(b))
            print(f"{name} {key}: max_abs={d_abs:.3e} max_rel={d_rel:.3e}")
        elif a != b:
            print(f"{name} {key}: text differs ({a!r} against {b!r})")
    return failed


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
    manifests = ({p.relative_to(args.dir_a)
                  for p in args.dir_a.rglob("manifest.json")}
                 & {p.relative_to(args.dir_b)
                    for p in args.dir_b.rglob("manifest.json")})
    for name in sorted(manifests):
        failed |= compare_notes(name, args.dir_a / name, args.dir_b / name)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
