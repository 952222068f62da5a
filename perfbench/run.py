#!/usr/bin/env python3
"""The repository benchmark: build `perfbench` from source and run one
workload (or all four, each in its own process).

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The program is built in release mode into
$CARGO_TARGET_DIR (default `.bench_build`). Scratch files (artifact
directories, written traces) go to `.bench_run`. The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
metrics with `--trace 1`. Every workload runs in a process of its own,
because the DPF and ASH artifact tiers attach once per process.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ["demux_steady", "demux_churn", "jit_compile", "warm_restart"]
PKG = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def source_hash(root):
    """A hash of the sources the benchmark builds: tells apart any two
    trees that build different programs, committed or not."""
    h = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", os.path.relpath(PKG, root)]:
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f)
            for d, _, fs in os.walk(path)
            if "target" not in os.path.relpath(d, root).split(os.sep)
            for f in fs
            if f.endswith((".rs", ".toml", ".lock"))
        )
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git(root, *args):
    try:
        out = subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def commit(root):
    """HEAD, marked `+dirty` when the working tree differs from it;
    None outside a git repository."""
    head = git(root, "rev-parse", "HEAD")
    if head and git(root, "status", "--porcelain", "--untracked-files=no"):
        head += "+dirty"
    return head


def host_line(root, seed):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        rustc = subprocess.run(
            ["rustc", "--version"], capture_output=True, text=True, timeout=30
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rustc = "unknown"
    host = {
        "cores": os.cpu_count(),
        "cpu": model,
        "rustc": rustc,
        "sources": source_hash(root),
        "commit": commit(root),
        "seed": seed,
    }
    return "# host " + json.dumps(host)


def build(root, target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(PKG, "Cargo.toml"),
    ]
    done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
    return done.returncode == 0


def run_one(binary, root, workload, args):
    cmd = [
        binary,
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", os.path.join(root, ".bench_run"),
    ]
    try:
        done = subprocess.run(
            cmd, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return None
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        print("\n".join(lines))
        log(f"{workload}: exited with {done.returncode} and no result")
        return None
    print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = os.getcwd()
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target_dir = os.path.join(root, target_dir)
    if not os.path.isfile(os.path.join(root, "crates", "core", "Cargo.toml")):
        log("run from the repository root: the sources to benchmark are missing")
        return 2
    if not build(root, target_dir):
        log("build failed")
        return 2
    binary = os.path.join(target_dir, "release", "perfbench")
    print(host_line(root, args.seed), flush=True)

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for w in workloads:
        r = run_one(binary, root, w, args)
        if r is None:
            return 1
        results[w] = r
        if len(workloads) > 1:
            print(f"# {w}: correct={r['correct']} failed {r['failed']} of {r['attempted']}")
    if len(workloads) == 1:
        result = results[workloads[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()
            },
        }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
