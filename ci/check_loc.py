#!/usr/bin/env python3
"""Fail if a crate's non-test line count rose above its committed baseline,
or if one of its files is over the per-file cap.

    python3 ci/check_loc.py [--baseline ci/loc_baseline.json] [--write]

A file's non-test lines are its lines outside `#[cfg(test)]` items: a
`#[cfg(test)]` line and the item after it, up to the item's closing brace
(or its `;`), are skipped wherever they are in the file.  For every crate in the baseline this prints
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


class BraceScanner:
    """Tracks `{`/`}` nesting through a Rust file line by line, ignoring
    braces inside comments, string, raw-string and char literals."""

    def __init__(self):
        self.depth = 0
        self.block_comments = 0  # nesting depth of `/* */`
        self.raw_hashes = None  # `#` count of the open raw string, if any
        self.in_string = False

    def in_code(self):
        return not (self.block_comments or self.in_string or self.raw_hashes is not None)

    def tokens(self, line):
        """Yield each `{`, `}` and `;` of `line` that is code."""
        i, n = 0, len(line)
        while i < n:
            c = line[i]
            if self.block_comments:
                if line.startswith("/*", i):
                    self.block_comments += 1
                    i += 2
                elif line.startswith("*/", i):
                    self.block_comments -= 1
                    i += 2
                else:
                    i += 1
            elif self.raw_hashes is not None:
                close = '"' + "#" * self.raw_hashes
                if line.startswith(close, i):
                    self.raw_hashes = None
                    i += len(close)
                else:
                    i += 1
            elif self.in_string:
                if c == "\\":
                    i += 2
                else:
                    self.in_string = c != '"'
                    i += 1
            elif line.startswith("//", i):
                return
            elif line.startswith("/*", i):
                self.block_comments = 1
                i += 2
            elif c == "r" and (line.startswith('r"', i) or line.startswith("r#", i)):
                j = i + 1
                while j < n and line[j] == "#":
                    j += 1
                if j < n and line[j] == '"':
                    self.raw_hashes = j - i - 1
                    i = j + 1
                else:
                    i += 1
            elif c == '"':
                self.in_string = True
                i += 1
            elif c == "'" and i + 2 < n and (line[i + 2] == "'" or line[i + 1] == "\\"):
                # A char literal ('{', '\n'); a lifetime has no closing quote.
                end = line.find("'", i + 2 if line[i + 1] == "\\" else i + 1)
                i = end + 1 if end > 0 else i + 1
            else:
                if c in "{};":
                    yield c
                i += 1


def non_test_lines(path):
    """Lines of `path` outside its `#[cfg(test)]` items."""
    count = 0
    scanner = BraceScanner()
    skip = None  # while inside a test item: (depth it started at, body opened)
    with open(path, encoding="utf-8") as f:
        for line in f:
            if skip is None and scanner.in_code() and line.strip() == TEST_MARKER:
                skip = (scanner.depth, False)
                continue
            if skip is None:
                count += 1
            for token in scanner.tokens(line):
                if token == "{":
                    scanner.depth += 1
                    if skip is not None:
                        skip = (skip[0], True)
                elif token == "}":
                    scanner.depth -= 1
                if skip is not None and scanner.depth == skip[0] and (skip[1] or token == ";"):
                    skip = None
                    break
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
