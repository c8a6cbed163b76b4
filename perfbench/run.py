#!/usr/bin/env python3
"""The repository's benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload ingest|serve|degraded --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (default
.bench_build) and the stores, inputs and span files to .bench_work; both stay
inside the checkout. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. See perfbench/NOTES.md for the
workloads, the metrics and the layer each metric should move.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the harness; returns the binary path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    binary = os.path.join(build_dir, "perfbench")
    return binary if os.path.exists(binary) else None


def clean_env(work):
    """The program's knobs are left at their defaults: drop every STAIR_*
    override, and point the autotune cache nowhere, so each process pays
    the probe (counted in setup_s) and nothing is written outside the
    checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("STAIR_")}
    env["STAIR_TUNE_FILE"] = ""
    env["TMPDIR"] = work
    return env


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    os.chdir(ROOT)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(os.path.abspath(os.path.join(target, "perfbench-cmake")))
    if binary is None:
        log("perfbench: build failed")
        return 2

    work_root = os.path.abspath(".bench_work")
    work = os.path.join(work_root, "%s-%d" % (args.workload or "selftest", os.getpid()))
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--work", work]
    if args.selftest:
        cmd.append("--selftest")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(float(args.seconds)), "--trace", str(args.trace)]
        if args.trace:
            traces = os.path.join(work_root, "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--spans", os.path.join(
                traces, "%s-seed%d.csv" % (args.workload, args.seed))]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=clean_env(work),
                            text=True)

    def stop_child(signum, _frame):
        proc.kill()
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop_child)
    signal.signal(signal.SIGINT, stop_child)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(work_root)  # only when no traces were kept
        except OSError:
            pass

    lines = out.rstrip("\n").split("\n") if out else []
    if args.selftest:
        print("\n".join(lines))
        return proc.returncode

    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if result is None:
        print("\n".join(lines))
        log("perfbench: no result line (exit %d)" % proc.returncode)
        return proc.returncode or 4
    body = lines[:-1]
    if args.trace:
        with open(os.path.join(HERE, "NOTES.md")) as f:
            body += ["", "notes (perfbench/NOTES.md):"] + f.read().rstrip("\n").split("\n")
    print("\n".join(body))
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
