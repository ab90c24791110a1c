#!/usr/bin/env python3
"""Builds the benchmark from source, then runs it with the given arguments.

    python3 perfbench/run.py --workload rl-tia --seed 1 --seconds 20 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default `.bench_build`) with the repository's own `[profile.release]`
settings, so the crates are measured as the repository builds them;
journals, checkpoints and span logs go to `.bench_out`. Build output goes
to standard error, so the benchmark's result line stays the last line of
standard output. The exit code is the build's when it fails, else the
benchmark's.
"""

import json
import os
import subprocess
import sys
import tomllib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT_MANIFEST = os.path.join(HERE, "..", "Cargo.toml")


def profile_overrides() -> list:
    """`--config` flags reproducing the root manifest's release profile."""
    try:
        with open(ROOT_MANIFEST, "rb") as f:
            profile = tomllib.load(f).get("profile", {}).get("release", {})
    except FileNotFoundError:
        return []
    flags = []

    def flatten(prefix, value):
        if isinstance(value, dict):
            for key, inner in value.items():
                flatten(f"{prefix}.{json.dumps(key)}", inner)
        else:
            flags.extend(["--config", f"{prefix}={json.dumps(value)}"])

    flatten("profile.release", profile)
    return flags


def main() -> int:
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.abspath(env["CARGO_TARGET_DIR"])
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet"]
        + profile_overrides()
        + ["--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
