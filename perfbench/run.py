#!/usr/bin/env python3
"""Build and run one jsdetect benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `perfbench` binary (a cargo
package of its own in this directory, built against the repository's
crates) in release mode into $CARGO_TARGET_DIR (default `.bench_build`),
trains the deployed model with that binary unless this build has already
trained it, runs one workload and relays its output: the last line of
standard output is the JSON result. Exits non-zero without a result when
the build, the training or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold_scan", "rescan", "serve", "train")
# Workloads that classify with the deployed model.
MODEL_WORKLOADS = ("cold_scan", "rescan", "serve")
BUILD_TIMEOUT_S = 560
TRAIN_TIMEOUT_S = 150
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 1


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        return fail(f"build failed: {e}")
    if built.returncode != 0:
        return fail(f"build failed with exit code {built.returncode}")
    binary = os.path.join(target, "release", "perfbench")

    # The deployed model is an artifact of the build, like the binary: it
    # is trained once per binary (keyed by the binary's digest) and reused
    # by every later run, so set-up only loads it.
    model = os.path.join(target, f"perfbench-model-{file_digest(binary)}.json")
    if not os.path.exists(model):
        try:
            trained = subprocess.run([binary, "train-model", model], cwd=ROOT, env=env,
                                     stdout=sys.stderr, timeout=TRAIN_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            return fail(f"model training failed: {e}")
        if trained.returncode != 0:
            return fail(f"model training failed with exit code {trained.returncode}")

    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", os.path.join(ROOT, ".bench_work", str(os.getpid())),
    ]
    if args.workload in MODEL_WORKLOADS:
        cmd += ["--model", model]
    try:
        ran = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        return fail(f"run failed: {e}")
    lines = ran.stdout.strip().splitlines()
    if ran.returncode != 0 or not lines:
        return fail(f"run failed with exit code {ran.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError as e:
        return fail(f"unreadable result line: {e}")
    if set(result) != RESULT_KEYS:
        return fail(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
