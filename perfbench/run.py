"""Repository benchmark: one command, one workload, one JSON result.

Usage, from the repository root::

    python3 perfbench/run.py --workload campaign-uniform --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics: the set-up time is the
median of several cold starts, each in a fresh process, and the rest
come from one fresh process that measures a closed loop of jobs for
``--seconds``. On campaign workloads the timings are scaled to a
reference host speed (``calibrate.py``). ``--trace 1`` runs the traced
form instead and prints the per-layer metrics. The last line of standard
output is the result: ``{"correct", "attempted", "failed", "metrics"}``;
a provenance line (kernel tier, backend, default layout, ``REPRO_*``
environment, host, versions, git revision) precedes it. The command exits 1 when a
correctness check fails and 2 when the program's sources are missing.
See ``perfbench/README.md`` for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate
from workload import (HERE, RESULT_FILE, ROOT, RUNS_DIR, SRC, WORKLOADS,
                      child_env)

#: Set-up-only cold starts before and after the measured run; with the
#: measured run's own cold start, their median is ``setup_s``. Taking
#: them on both sides spreads them over the whole run, so a host phase
#: that lasts part of it moves the median less.
SETUP_SAMPLES_EACH_SIDE = 3
#: Whole-command budget, inside the 180 s every run must end within.
BUDGET_S = 170.0

#: The benchmark manifest: which metrics to print, with their units.
MANIFEST = ROOT / "BENCHMARK.json"


def metric_units(trace: int) -> dict:
    with open(MANIFEST, encoding="utf-8") as fh:
        manifest = json.load(fh)
    return {m["name"]: m["unit"]
            for m in manifest["per_layer" if trace else "end_to_end"]}


def median_kernel_s(calls: int = 5) -> float:
    """Median wall time of a few calibration kernel calls, here."""
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        calibrate.kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_child(args, mode: str, deadline: float) -> dict:
    """One fresh workload process; its result dict."""
    RUNS_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=RUNS_DIR))
    cmd = [sys.executable, str(HERE / "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode,
           "--spawn-ts", repr(time.time()), "--run-dir", str(run_dir)]
    # A session of its own: whatever happens, the whole group goes,
    # pool processes and fleet workers included.
    proc = subprocess.Popen(cmd, env=child_env(), cwd=str(ROOT),
                            stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        if code != 0:
            raise RuntimeError(f"{mode} process exited with {code}")
        with open(run_dir / RESULT_FILE, encoding="utf-8") as fh:
            return json.load(fh)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{mode} process ran out of time") from None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(run_dir, ignore_errors=True)


def _terminated(signum, frame):
    # Unwind through run_child's cleanup, which kills the workload
    # process group, instead of dying with it still running.
    sys.exit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminated)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    # Byte-compile once up front, so no timed cold start pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    str(SRC), str(HERE)], check=True, cwd=str(ROOT),
                   stdout=subprocess.DEVNULL, timeout=120)

    if args.trace:
        res = run_child(args, "trace", deadline)
        values = res["metrics"]
        extra = {"unwrapped": res["unwrapped"]}
    else:
        # In-process cold starts are scaled to the reference host speed
        # by the calibration kernel timed here just before each spawn.
        scale = WORKLOADS[args.workload][0] == "campaign"
        if scale:
            calibrate.kernel()  # untimed warm-up
        raw_setups, setups = [], []

        def cold_start(mode: str) -> dict:
            kernel_s = median_kernel_s() if scale else calibrate.REFERENCE_S
            res = run_child(args, mode, deadline)
            raw_setups.append(res["setup_s"])
            setups.append(res["setup_s"] * calibrate.REFERENCE_S / kernel_s)
            return res

        for _ in range(SETUP_SAMPLES_EACH_SIDE):
            cold_start("setup")
        res = cold_start("measure")
        for _ in range(SETUP_SAMPLES_EACH_SIDE):
            cold_start("setup")
        values = dict(res, setup_s=statistics.median(setups))
        extra = {"samples": dict(res["samples"], setup=setups)}
        if scale:
            raw = dict(res["raw"], setup_s=statistics.median(raw_setups))
            extra.update(raw=raw, host_factor=res["host_factor"],
                         raw_setup=raw_setups)
    units = metric_units(args.trace)
    if set(units) - set(values):
        raise RuntimeError(f"no value for {sorted(set(units) - set(values))}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    for problem in res["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"provenance": res["provenance"], **extra}))
    print(json.dumps({"correct": res["correct"],
                      "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
