#!/usr/bin/env python3
"""Build the benchmark and run it.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release, offline) against the repository's
crates, then runs it from the repository root with the same arguments.
Set-up and the measured loop happen inside the binary; this script only
builds, records which source tree was built, and pins the run to one CPU
(see pin_to_one_cpu).  The binary's exit code is passed through;
a failed build exits non-zero without printing a result.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def pin_to_one_cpu():
    """Pin the benchmark (client, daemons, kernel VM) to the lowest CPU this
    process may use.  Unpinned, latency-bound operations were bimodal from
    run to run and amplified host contention, since every wake-up across
    CPUs waits on the other CPU too; see README.md, "Run context"."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def source_digest():
    """A digest of every source file the benchmark builds from: the commit
    stand-in when the checkout is not a git repository."""
    digest = hashlib.sha256()
    roots = [os.path.join(ROOT, d) for d in ("crates", "shims", "perfbench")]
    files = [os.path.join(ROOT, f) for f in ("Cargo.toml", "Cargo.lock")]
    for top in roots:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in files:
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-" + digest.hexdigest()[:16]


def build():
    """Build the binary; return its path, or None when the build failed."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--message-format=json-render-diagnostics",
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if proc.returncode != 0:
        return None
    for line in proc.stdout.splitlines():
        msg = json.loads(line)
        if msg.get("reason") == "compiler-artifact" and msg.get("executable"):
            if msg["target"]["name"] == "perfbench":
                return msg["executable"]
    return None


def main():
    args = sys.argv[1:]
    exe = build()
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env = dict(os.environ, PERFBENCH_COMMIT=source_digest())
    return subprocess.run([exe] + args, cwd=ROOT, env=env, preexec_fn=pin_to_one_cpu).returncode


if __name__ == "__main__":
    sys.exit(main())
