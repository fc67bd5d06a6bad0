"""Compare two output trees of ``tools/bench_outputs.py``, file by file.

    python3 tools/compare_outputs.py <tree-a> <tree-b> [--each]

Prints one line for each file that differs, or that only one tree has.
For a JSON file the line gives how many numbers moved and the largest
relative change, |a - b| / max(|a|, |b|), with the key where it occurs;
every other change (a string, a flag, a list's length) is printed below
it as ``key: a -> b``.  A CSV file is compared value by value, each
change relative to the largest magnitude in its column of either tree,
so that a field's values near 0 do not swamp the measure; its header
and its non-numeric cells are compared exactly.  Any other file is only
reported as differing.  ``--each`` also prints every moved number.
Exits 0 when the trees are identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path


def _number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _leaves(value, key=""):
    """(key, leaf) for every leaf of a JSON value, keys in the form results.cases[2].margin."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _leaves(v, f"{key}.{k}" if key else str(k))
    elif isinstance(value, list):
        yield f"{key}#len", len(value)
        for i, v in enumerate(value):
            yield from _leaves(v, f"{key}[{i}]")
    else:
        yield key, value


def _rel(a, b, scale):
    if a == b or (isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) / scale if scale > 0 else math.inf


def compare_json(text_a, text_b):
    """(moved, other): moved lists (key, a, b, rel) of numbers, other (key, a, b) of the rest."""
    a, b = dict(_leaves(json.loads(text_a))), dict(_leaves(json.loads(text_b)))
    moved, other = [], []
    for key in list(a) + [k for k in b if k not in a]:
        va, vb = a.get(key), b.get(key)
        if _number(va) and _number(vb):
            rel = _rel(va, vb, max(abs(va), abs(vb)))
            if rel:
                moved.append((key, va, vb, rel))
        elif va != vb or key not in a or key not in b:
            other.append((key, va, vb))
    return moved, other


def _cell(text):
    try:
        return float(text)
    except ValueError:
        return text


def compare_csv(text_a, text_b):
    """As compare_json, for two CSV tables; keys read row:column, counted from the header."""
    rows_a, rows_b = list(csv.reader(text_a.splitlines())), list(csv.reader(text_b.splitlines()))
    moved, other = [], []
    if not rows_a or not rows_b or rows_a[0] != rows_b[0] or len(rows_a) != len(rows_b):
        return moved, [("shape", f"{len(rows_a)} rows", f"{len(rows_b)} rows")]
    header = rows_a[0]
    cells_a = [[_cell(c) for c in row] for row in rows_a[1:]]
    cells_b = [[_cell(c) for c in row] for row in rows_b[1:]]
    scale = [max((abs(row[j]) for rows in (cells_a, cells_b) for row in rows
                  if j < len(row) and _number(row[j]) and math.isfinite(row[j])), default=0.0)
             for j in range(len(header))]
    for i, (ra, rb) in enumerate(zip(cells_a, cells_b), start=1):
        if len(ra) != len(rb):
            other.append((f"{i}", f"{len(ra)} cells", f"{len(rb)} cells"))
            continue
        for j, (va, vb) in enumerate(zip(ra, rb)):
            key = f"{i}:{header[j] if j < len(header) else j}"
            if _number(va) and _number(vb):
                rel = _rel(va, vb, scale[j])
                if rel:
                    moved.append((key, va, vb, rel))
            elif va != vb:
                other.append((key, va, vb))
    return moved, other


def compare_trees(tree_a, tree_b, each=False):
    """Print the differences of two trees; the number of files that differ."""
    files_a = {p.relative_to(tree_a) for p in tree_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(tree_b) for p in tree_b.rglob("*") if p.is_file()}
    differing = 0
    for rel in sorted(files_a | files_b):
        if rel not in files_b or rel not in files_a:
            print(f"{rel}: only in {tree_a if rel in files_a else tree_b}")
            differing += 1
            continue
        data_a, data_b = (tree_a / rel).read_bytes(), (tree_b / rel).read_bytes()
        if data_a == data_b:
            continue
        differing += 1
        compare = {".json": compare_json, ".csv": compare_csv}.get(rel.suffix)
        if compare is None:
            print(f"{rel}: differs")
            continue
        moved, other = compare(data_a.decode(), data_b.decode())
        line = f"{rel}: {len(moved)} numbers moved"
        if moved:
            key, _, _, rel_max = max(moved, key=lambda m: m[3])
            line += f", largest relative change {rel_max:.3g} at {key}"
        print(line + f", {len(other)} other changes")
        for key, va, vb, r in moved if each else ():
            print(f"    {key}: {va!r} -> {vb!r} ({r:.3g})")
        for key, va, vb in other:
            print(f"    {key}: {va!r} -> {vb!r}")
    return differing


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("--each", action="store_true", help="print every moved number")
    args = parser.parse_args(argv)
    for tree in (args.tree_a, args.tree_b):
        if not tree.is_dir():
            parser.error(f"{tree} is not a directory")
    return 1 if compare_trees(args.tree_a, args.tree_b, args.each) else 0


if __name__ == "__main__":
    sys.exit(main())
