#!/usr/bin/env python3
"""Build and run the rpav benchmark.

    python3 rpavbench/run.py --workload flight-single --seed 1 --seconds 30 --trace 0

Run from the repository root. Builds the benchmark crate (and the
`rpavd` binary it drives) in release mode into $CARGO_TARGET_DIR
(default `.bench_build`), then runs one workload. Build output goes to
stderr; the benchmark's result is the last line of stdout. Exits non-zero
if the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")


def main():
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("rpavbench: build failed", file=sys.stderr)
        return build.returncode or 1
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "rpavbench"),
        *sys.argv[1:],
        "--work-dir",
        os.path.join(target, "rpavbench-work"),
        "--rpavd",
        os.path.join(release, "rpavd"),
    ]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
