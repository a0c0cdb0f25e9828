#!/usr/bin/env python3
"""Fail if a crate's non-test line count rose above its committed baseline,
or if one of its files is over the per-file cap.

    python3 ci/check_loc.py [--baseline ci/loc_baseline.json] [--write]

A file's non-test lines are its lines up to its first `#[cfg(test)]` line
(all of them if it has none).  For every crate in the baseline this prints
that count for each `.rs` file under `crates/<crate>/src` and the crate's
total, and compares the total with the baseline.  A total that rose fails;
one that fell is reported but passes.  A file with more non-test lines than
the baseline's `file_cap` fails too.  `--write` stores the current totals
as the new baseline (the cap stays): commit it with a change that moves a
count, and quote the diff in CHANGES.md when a count rose.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TEST_MARKER = "#[cfg(test)]"


def non_test_lines(path):
    """Lines of `path` before its first `#[cfg(test)]` line."""
    count = 0
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip() == TEST_MARKER:
                break
            count += 1
    return count


def crate_counts(crate):
    """Non-test lines of every `.rs` file of `crate`, by path relative to the repo."""
    src = os.path.join(ROOT, "crates", crate, "src")
    if not os.path.isdir(src):
        sys.exit(f"{crate}: no directory {src}")
    counts = {}
    for directory, _, files in os.walk(src):
        for name in files:
            if name.endswith(".rs"):
                path = os.path.join(directory, name)
                counts[os.path.relpath(path, ROOT)] = non_test_lines(path)
    return dict(sorted(counts.items()))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default=os.path.join(ROOT, "ci", "loc_baseline.json"))
    parser.add_argument("--write", action="store_true", help="store the current totals as the baseline")
    args = parser.parse_args()
    with open(args.baseline) as f:
        baseline = json.load(f)
    file_cap = baseline["file_cap"]
    totals = {}
    risen = []
    for crate, limit in baseline["crates"].items():
        counts = crate_counts(crate)
        for path, count in counts.items():
            over = count > file_cap
            print(f"{count:6d}  {path}" + (f"  OVER THE CAP OF {file_cap}" if over else ""))
            if over:
                risen.append(f"{path}: {count} > file cap {file_cap}")
        total = totals[crate] = sum(counts.values())
        verdict = "ok"
        if total > limit:
            verdict = "ROSE"
            risen.append(f"{crate}: {limit} -> {total}")
        elif total < limit:
            verdict = "fell (update the baseline)"
        print(f"[{crate}] {total} non-test lines (baseline {limit}) {verdict}\n")
    print(f"[all] {sum(totals.values())} non-test lines (baseline {sum(baseline['crates'].values())})")
    if args.write:
        with open(args.baseline, "w") as f:
            json.dump({"file_cap": file_cap, "crates": totals}, f, indent=2)
            f.write("\n")
        print(f"wrote {args.baseline}")
        return 0
    if risen:
        print("non-test lines over their limit:\n  " + "\n  ".join(risen), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
