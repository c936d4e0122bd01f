#!/usr/bin/env python3
"""Whole-run benchmark of grist-sw: simulated days per wall-clock day and
its per-layer breakdown on three closed-loop workloads.

    python3 perfbench/run.py --workload solo-typhoon-g5 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. Builds perfbench_driver (Release) under
.bench_build/perfbench, runs one workload, and prints as the last line of
stdout one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The line before it carries the host/build context, sample counts and any
problems found. See perfbench/README.md.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("solo-typhoon-g5", "ensemble-ml-g4-m8", "fleet-shm-g5-r4")
DRIVER_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure and build the driver; returns its path."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR / "perfbench-build.log"
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD_DIR), "--target", "perfbench_driver",
         "-j", str(os.cpu_count() or 1)],
    ]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed: {' '.join(cmd)} (log: {log_path})")
    cache = (BUILD_DIR / "CMakeCache.txt").read_text()
    if "CMAKE_BUILD_TYPE:STRING=Release" not in cache:
        fail("the build tree is not a Release build; refusing to record")
    return BUILD_DIR / "perfbench_driver"


def run_driver(args):
    """Runs the driver in its own process group; returns (rc, stdout)."""
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The driver's rank workers share its process group.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s")
    return proc.returncode, out


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true",
                   help="check that the output checks reject an injected NaN "
                        "and a diverging traced loop")
    a = p.parse_args()
    if not a.self_test and a.workload is None:
        p.error("--workload is required")
    if a.seed < 0 or a.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")

    driver = build()
    if a.self_test:
        rc, _ = run_driver([str(driver), "--self-test", "--root", str(ROOT)])
        sys.exit(rc)

    rc, out = run_driver([str(driver), "--workload", a.workload, "--seed", str(a.seed),
                          "--seconds", str(a.seconds), "--trace", str(a.trace),
                          "--root", str(ROOT)])
    if rc != 0:
        fail(f"driver exited with code {rc}")
    lines = out.strip().splitlines()
    if not lines:
        fail("driver printed no result")
    full = json.loads(lines[-1])
    print(json.dumps({"workload": a.workload, "seed": a.seed, "trace": a.trace,
                      "context": full["context"], "samples": full["samples"],
                      "problems": full["problems"]}))
    print(json.dumps({k: full[k] for k in ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
