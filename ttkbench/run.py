#!/usr/bin/env python3
"""Builds the `ttk` binary and the benchmark, then runs one benchmark workload.

Run from the repository root:

    python3 ttkbench/run.py --workload dp-paper --seed 1 --seconds 12 --trace 0

Every argument is passed on to the benchmark binary (see `SPEC.md`). Build
output goes to `$CARGO_TARGET_DIR`, or `.bench_build` when it is unset.
Cargo's own output goes to stderr, so the benchmark's JSON result line stays
the last line of stdout. Exits non-zero, without a result line, when either
build fails.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path


def main() -> int:
    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = Path.cwd() / target
    env["CARGO_TARGET_DIR"] = str(target)

    for manifest, binary in ((root / "Cargo.toml", "ttk"), (bench_dir / "Cargo.toml", "ttkbench")):
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", str(manifest), "--bin", binary],
            env=env, stdout=sys.stderr,
        )
        if build.returncode != 0:
            print(f"error: building {binary} from {manifest} failed", file=sys.stderr)
            return 2

    release = target / "release"
    child = subprocess.Popen(
        [str(release / "ttkbench"), "--ttk", str(release / "ttk"), *sys.argv[1:]],
        env=env, cwd=root,
    )

    def forward(signum, _frame):
        child.send_signal(signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    return child.wait()


if __name__ == "__main__":
    sys.exit(main())
