#!/usr/bin/env python3
"""Builds the benchmark and the reqiscd daemon from source, then runs one
workload of the benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload suite_cold|serve_mixed|calibrate \
        --seed N --seconds S --trace 0|1

Build output goes to $CARGO_TARGET_DIR (default: .bench_build). Sockets,
shared-memory segments and span files go to .perfbench/. The last line of
standard output is the run's JSON result; see perfbench/NOTES.md.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(env):
    """Builds reqiscd (from the workspace) and the benchmark package."""
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "reqisc-service", "--bin", "reqiscd"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        # Cargo's own output goes to stderr so stdout stays the result line.
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def check_result(line, trace):
    """Returns why the result line breaks the manifest's contract, or None.

    The line must hold exactly the keys correct, attempted, failed and
    metrics, and the metrics must be exactly the manifest's end-to-end
    metrics (per-layer with --trace 1), each in its unit.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    try:
        result = json.loads(line)
    except ValueError as e:
        return f"last line is not JSON: {e}"
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys differ from correct, attempted, failed, metrics"
    want = {m["name"]: m["unit"] for m in manifest["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        return f"metrics differ from the manifest: missing {missing}, extra {extra}, unit {units}"
    return None


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.exit("perfbench: run from a checkout of the repository (no Cargo.toml found)")
    build(env)
    release = os.path.join(target, "release")
    # The work directory stays relative to ROOT: a Unix socket path must be
    # short, and the checkout's absolute path may not be.
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--reqiscd", os.path.join(release, "reqiscd"), "--work-dir", ".perfbench"]
    run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.exit(f"perfbench: run failed (exit {run.returncode})")
    trace = "--trace" in sys.argv and sys.argv[sys.argv.index("--trace") + 1:][:1] != ["0"]
    problem = check_result(lines[-1], trace)
    if problem:
        sys.exit(f"perfbench: {problem}")
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
