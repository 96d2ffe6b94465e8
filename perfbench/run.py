#!/usr/bin/env python3
"""Run one benchmark workload: build from source, measure, print the result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the `arls` daemon and the
`perfbench` package in release mode into $CARGO_TARGET_DIR (default
`.bench_build`), runs the workload, and passes on the benchmark's output:
`#` lines with the run's stamp, sample counts and metrics, then one JSON
result line. It exits non-zero when the build fails, an output check fails,
or the run does not finish in time. See perfbench/README.md.
"""

import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper-adaptive", "paper-baselines", "scale-sharded", "serve-open")

# A run measures for --seconds, plus set-up and output checks; one far past
# that has hung.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(repo, env):
    """Builds `arls` and the benchmark. Cargo reports on stderr, which keeps
    stdout for the result."""
    for manifest, extra in (
        (repo / "Cargo.toml", ["-p", "arl-cli", "--bin", "arls"]),
        (repo / "perfbench" / "Cargo.toml", []),
    ):
        cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", str(manifest), *extra]
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")
    if not 0 < args.seconds <= 3600:
        fail("--seconds must be in (0, 3600]")

    repo = Path(__file__).resolve().parent.parent
    if not (repo / "Cargo.toml").is_file() or not (repo / "crates").is_dir():
        fail(f"no cargo workspace at {repo}: the benchmark builds the repository from source")
    target = Path(os.environ.get("CARGO_TARGET_DIR") or repo / ".bench_build").resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build(repo, env)

    run_dir = target / "perfbench-run"
    run_dir.mkdir(parents=True, exist_ok=True)
    cmd = [
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--run-dir", str(run_dir),
        "--arls", str(target / "release" / "arls"),
    ]
    # A session of its own, so that a timeout stops the benchmark together
    # with any daemon it started.
    proc = subprocess.Popen(
        cmd, cwd=repo, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"the run did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(out)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
