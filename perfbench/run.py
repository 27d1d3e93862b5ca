#!/usr/bin/env python3
"""Served-path benchmark of the SPP key-value store.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload b-hot --seed 1 --seconds 45 --trace 0

Builds perfbench/wirebench.exe with dune, then measures in fresh
processes. `--trace 0` reports the end-to-end metrics of BENCHMARK.json:
`setup_s` is the median of several fresh set-ups, each timed from
process start until the store is preloaded, serving and connected; the
rest are medians over half-second rounds of open-loop load (see
wirebench.ml). Latency and CPU per op are given in host round trips: a
one-byte pipe round trip between the pacer's CPU and the program's,
measured before every round of the same run, so that the drift of a
shared host's speed cancels out. `--trace 1` reports the per-layer
metrics, among them the round trip in microseconds and the raw p50
latency. The last line
of standard output is one JSON object; the exit code is 0 only when
every reply and every reopened write checked out.

On a host with two or more CPUs the program's domains share one CPU and
the pacer, the process's main thread, has another to itself.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./perfbench/wirebench.exe"
SETUPS = 7            # fresh-process set-ups per untraced run
CHILD_SECONDS = 150   # hard limit on one measuring process
SETUP_SECONDS = 30    # hard limit on one set-up-only process


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("no source tree here to build the store from")
    dune = shutil.which("dune")
    if dune is None:
        die("dune is not on PATH")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, DUNE_CACHE="disabled")
    done = subprocess.run(
        [dune, "build", "--root", ".", "--build-dir", build_dir, TARGET],
        env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        die("build failed")
    return os.path.join(build_dir, "default", "perfbench", "wirebench.exe")


def placement():
    """(program CPU, pacer CPU), or None on a single-CPU host.

    Left to the scheduler, the process's domains now share one CPU and
    now spread over two, and latency and CPU per op jump between those
    regimes. Pinned, the program's domains share one CPU and the pacer,
    the process's main thread, spins on another."""
    cpus = sorted(os.sched_getaffinity(0))
    return (cpus[-1], cpus[0]) if len(cpus) >= 2 else None


def launch(exe, mode, args, sock, limit):
    """Start one process; return (setup seconds, the rest of its stdout
    lines, its exit code).

    Set-up time runs from just before the spawn until the process prints
    READY, i.e. until its store is preloaded, serving and connected."""
    if os.path.exists(sock):
        os.unlink(sock)
    cpus = placement()
    pin = (lambda: os.sched_setaffinity(0, {cpus[0]})) if cpus else None
    t0 = time.monotonic()
    proc = subprocess.Popen([exe, mode, "--sock", sock] + args,
                            stdout=subprocess.PIPE, text=True, preexec_fn=pin)
    timer = threading.Timer(limit, proc.kill)
    timer.start()
    try:
        setup = None
        for line in proc.stdout:
            if line.strip() == "READY":
                setup = time.monotonic() - t0
                if cpus and mode == "run":
                    # the main thread's id is the process id
                    os.sched_setaffinity(proc.pid, {cpus[1]})
                break
        rest = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        if os.path.exists(sock):
            os.unlink(sock)
    if setup is None:
        die("%s process exited (code %d) before it was ready" % (mode, code))
    return setup, rest, code


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    os.chdir(ROOT)
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload %r" % a.workload)
    wanted = spec["per_layer" if a.trace else "end_to_end"]
    exe = build()
    args = ["--workload", a.workload, "--seed", str(a.seed)]
    sock = ".perfbench-%d.sock" % os.getpid()

    setups = []
    if not a.trace:
        for _ in range(SETUPS - 1):
            setup, _, code = launch(exe, "setup", args, sock, SETUP_SECONDS)
            if code != 0:
                die("set-up process failed with code %d" % code)
            setups.append(setup)
    setup, lines, code = launch(
        exe, "run",
        args + ["--seconds", str(a.seconds), "--trace", str(a.trace)],
        sock, CHILD_SECONDS)
    setups.append(setup)
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        die("run process (code %d) printed no result" % code)
    measured = result["metrics"]
    measured["setup_s"] = statistics.median(setups)
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        die("run printed no value for " + ", ".join(missing))
    print("set-ups: " + " ".join("%.4f s" % s for s in setups))
    out = {
        "correct": bool(result["correct"]) and code == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(out))
    sys.exit(0 if out["correct"] else 1)


if __name__ == "__main__":
    main()
