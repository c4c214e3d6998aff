#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default: perfbench/target) and its
output to stderr, so the last line of stdout is the benchmark's result.
A failed build exits nonzero without printing a result.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def source_revision():
    """The git revision, or a digest of the crate sources outside git."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        if rev:
            return rev
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "crates").rglob("*")):
        if path.is_file() and path.suffix in (".rs", ".toml"):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:12]


def main():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", BENCH_DIR / "target"))
    if not target.is_absolute():
        target = pathlib.Path.cwd() / target
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            str(BENCH_DIR / "Cargo.toml"),
        ],
        env={**os.environ, "CARGO_TARGET_DIR": str(target)},
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = target / "release" / "perfbench"
    env = {**os.environ, "PERFBENCH_REV": source_revision()}
    run = subprocess.run(
        [str(binary), *sys.argv[1:], "--out-dir", str(target / "perfbench-spans")],
        env=env,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
