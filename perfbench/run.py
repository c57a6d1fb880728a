#!/usr/bin/env python3
"""Runs one workload of the mc3 benchmark and prints its metrics.

    python3 perfbench/run.py --workload plan_private --seed 1 --seconds 30 \\
        --trace 0

Builds the program and the benchmark harness from source (CMake, Release)
into $CARGO_TARGET_DIR (default .bench_build), makes the workload's inputs
from --seed, measures for --seconds, checks the outputs, and prints as its
last line one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(see perfbench/README.md). The line before it carries each metric's base
count. Exit status: 0 when every check passed, 1 when a check failed or a
step broke, 2 on a usage error or when the sources are missing.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("plan_private", "plan_synthetic", "serve_churn")

# serve_churn's server layout (the client reads it back from `stats`; its
# offered load and mix are constants of perfbench/serve_client.cc).
SERVE_SHARDS = 2
# Set-up is repeated and its median reported, so one slow start does not
# move setup_s. For serve_churn each repeat is a full server launch, timed
# between two runs of the host-speed kernel (`mc3_perfbench calibrate`).
SERVE_SETUP_LAUNCHES = 5
CALIBRATE_SAMPLES = 7


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configures and builds mc3 and mc3_perfbench; returns the bin dir."""
    cmake_dir = os.path.join(out, "cmake")
    log_path = os.path.join(out, "build.log")
    os.makedirs(out, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", cmake_dir, "-j", jobs, "--target", "mc3",
         "mc3_perfbench"],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed; full log in " + log_path)
    return cmake_dir


def harness_timeout(opts):
    """Seconds a harness run may take: the measured window, the last
    operation that overruns it, and a fixed margin for loading, the serve
    warm-up, stragglers and the final checks."""
    return 60 + 2 * opts.seconds


def run_harness(args, opts):
    """Runs mc3_perfbench; returns (exit code, parsed report or None)."""
    try:
        proc = subprocess.run(args, stdout=subprocess.PIPE, text=True,
                              timeout=harness_timeout(opts))
    except subprocess.TimeoutExpired:
        fail("the harness did not finish within %.0f s"
             % harness_timeout(opts))
    lines = proc.stdout.strip().splitlines()
    report = None
    if lines:
        try:
            report = json.loads(lines[-1])
        except ValueError:
            report = None
    return proc.returncode, report


def generate(bin_dir, work, opts):
    """Writes the workload's input CSVs; returns their directory."""
    inputs = os.path.join(work, "inputs")
    os.makedirs(inputs)
    gen = [os.path.join(bin_dir, "mc3_perfbench"), "gen", "--workload",
           opts.workload, "--seed", str(opts.seed), "--out", inputs]
    if subprocess.call(gen + (["--small"] if opts.small else [])) != 0:
        fail("input generation failed")
    return inputs


def harness_flags(opts):
    return [flag for flag, on in (("--trace", opts.trace),
                                  ("--corrupt", opts.corrupt),
                                  ("--drift", opts.drift)) if on]


def run_plan(bin_dir, work, opts):
    inputs = generate(bin_dir, work, opts)
    return run_harness([os.path.join(bin_dir, "mc3_perfbench"), "plan",
                       "--dir", inputs, "--seconds", str(opts.seconds)] +
                      harness_flags(opts), opts)


def peak_rss_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for pid %d" % pid)


def stop(proc):
    """Graceful drain (SIGTERM), then kill; always waits for the exit."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def launch_server(bin_dir, base_csv, work, index, log):
    """Starts `mc3 serve` on a fresh data dir; returns (process, port,
    seconds from launch until the port is ready)."""
    port_file = os.path.join(work, "port.%d" % index)
    cmd = [os.path.join(bin_dir, "mc3"), "serve", base_csv, "--listen", "0",
           "--port-file", port_file, "--shards", str(SERVE_SHARDS),
           "--data-dir", os.path.join(work, "data.%d" % index)]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=log, stderr=log)
    while True:
        if os.path.exists(port_file):
            with open(port_file) as f:
                text = f.read()
            if text.endswith("\n"):
                return proc, int(text), time.monotonic() - start
        if proc.poll() is not None:
            fail("mc3 serve exited with %d before listening" % proc.returncode)
        if time.monotonic() - start > 60:
            stop(proc)
            fail("mc3 serve did not start within 60 s")
        time.sleep(0.001)


def host_speed(bin_dir):
    """The host's speed relative to the reference host, from a few runs of
    the host-speed kernel (see HostSpeed in perfbench/common.h)."""
    out = subprocess.run([os.path.join(bin_dir, "mc3_perfbench"), "calibrate",
                          "--samples", str(CALIBRATE_SAMPLES)],
                         stdout=subprocess.PIPE, text=True, timeout=60)
    if out.returncode != 0:
        fail("the host-speed kernel failed")
    return float(out.stdout)


def run_serve(bin_dir, work, opts):
    base_csv = os.path.join(generate(bin_dir, work, opts), "instance_00.csv")
    setups, scaled_setups = [], []
    server = None
    with open(os.path.join(work, "server.log"), "w") as log:
        try:
            before = host_speed(bin_dir)
            for i in range(SERVE_SETUP_LAUNCHES):
                if server is not None:
                    stop(server)
                server, port, seconds = launch_server(bin_dir, base_csv, work,
                                                      i, log)
                after = host_speed(bin_dir)
                setups.append(seconds)
                # As HostSpeed::Scale: by the mean kernel time around it.
                scaled_setups.append(seconds * 2 / (1 / before + 1 / after))
                before = after
            code, report = run_harness(
                [os.path.join(bin_dir, "mc3_perfbench"), "serve-client",
                 "--port", str(port), "--base", base_csv, "--seed",
                 str(opts.seed), "--seconds", str(opts.seconds)] +
                harness_flags(opts), opts)
            rss = peak_rss_mb(server.pid)
        finally:
            if server is not None:
                stop(server)
    if report is not None and not opts.trace:
        report["metrics"]["setup_s"] = {
            "value": statistics.median(scaled_setups), "unit": "s",
            "count": float(len(setups)), "raw": statistics.median(setups)}
        report["metrics"]["peak_rss_mb"] = {
            "value": rss, "unit": "MB", "count": 1.0}
    return code, report


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test switches (perfbench/test_run.py): tiny plan inputs, and
    # deliberately wrong outputs that the correctness checks must catch (a
    # plan or served cost off by one; serve_churn latencies that drift
    # between the window's halves).
    parser.add_argument("--small", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--corrupt", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--drift", action="store_true", help=argparse.SUPPRESS)
    opts = parser.parse_args()
    if opts.seed < 0 or opts.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)
    for needed in ("src/CMakeLists.txt", "tools/mc3_cli.cc"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("missing %s: run from a full checkout of the repository"
                 % needed, 2)

    out = build_dir()
    bin_dir = build(out)
    work = os.path.join(out, "work", "%s-%d-%d" % (opts.workload, opts.seed,
                                                   os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        if opts.workload == "serve_churn":
            code, report = run_serve(bin_dir, work, opts)
        else:
            code, report = run_plan(bin_dir, work, opts)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if report is None:
        fail("the harness printed no report (exit %d)" % code)

    metrics = report["metrics"]
    print("perfbench counts: " + json.dumps(
        {name: m["count"] for name, m in metrics.items()}))
    print("perfbench raw (host speed %.4f): " % report["host_speed"] +
          json.dumps({name: m["raw"] for name, m in metrics.items()
                      if "raw" in m}))
    print(json.dumps({
        "correct": bool(report["correct"]) and code == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }))
    sys.exit(0 if code == 0 and report["correct"] else 1)


if __name__ == "__main__":
    main()
