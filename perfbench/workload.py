"""One workload in one fresh process.

``run.py`` starts this file once per set-up sample and once for the
measured (or traced) run, so every sample pays the cold start a user
pays: interpreter start, imports, construction, pool or worker spawn,
and the first result. Usage (normally only through ``run.py``)::

    python3 perfbench/workload.py --workload W --seed N --seconds S
        --mode setup|measure|trace --spawn-ts T --run-dir DIR

Every workload runs at library defaults: no packing, batch size,
backend, kernel tier, shard size, worker count or poll interval is
passed. Job specs carry only the geometry, the injector, the trial
count and the per-job seed, which the load generator derives from
``--seed``.
"""
from __future__ import annotations

import argparse
import asyncio
import functools
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space: one directory per workload process (store, worker
#: logs, span files, result), removed by ``run.py`` when it ends.
RUNS_DIR = ROOT / ".perfbench_runs"
RESULT_FILE = "result.json"
#: Where a traced run leaves its spans for inspection.
OUT_DIR = ROOT / ".perfbench_out"

N, M, TRIALS = 129, 3, 256
UNIFORM = {"kind": "uniform", "params": {"probability": 1e-4}}
BURST = {"kind": "burst", "params": {"strikes": 1, "radius": 1,
                                     "neighbor_probability": 0.5}}
#: name -> (execution path, injector config, closed-loop clients).
WORKLOADS = {
    "campaign-uniform": ("campaign", UNIFORM, 1),
    "campaign-burst": ("campaign", BURST, 1),
    "service-mixed": ("service", UNIFORM, 2),
    "fleet-mixed": ("fleet", UNIFORM, 2),
}
#: Every REPEAT_EVERY-th submission of a client repeats that client's
#: own submission from REPEAT_LAG submissions earlier (a cache hit on
#: the service paths; the in-process runner has no cache and re-runs
#: it).
REPEAT_EVERY, REPEAT_LAG = 4, 3
#: Traced runs do a fixed amount of work so their counts repeat
#: exactly: submissions per client per pass, per second of --seconds.
TRACE_JOBS_PER_S = {"campaign": 3.0, "service": 2.5, "fleet": 1.2}
FLEET_WORKERS = 2
JOB_TIMEOUT_S = 60.0


def submission(workload: str, seed: int, client, k: int):
    """``(entropy, is_repeat)`` of submission ``k`` of ``client``."""
    repeat = k % REPEAT_EVERY == REPEAT_LAG
    base = k - REPEAT_LAG if repeat else k
    fresh = base - base // REPEAT_EVERY
    digest = hashlib.sha256(
        f"{workload}:{seed}:{client}:{fresh}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1, repeat


def job_spec(injector: dict, entropy: int) -> dict:
    return {"kind": "campaign", "n": N, "m": M, "injector": injector,
            "trials": TRIALS, "seed": entropy}


def campaign_runner(injector: dict, entropy: int):
    """The in-process ``CampaignRunner`` of one job."""
    from repro.core.blocks import BlockGrid
    from repro.faults.batch import CampaignRunner
    from repro.faults.serialize import build_injector
    return CampaignRunner(BlockGrid(N, M), build_injector(injector),
                          seed=entropy, seeding="per-trial")


def in_process_result(injector: dict, entropy: int) -> dict:
    """The in-process result of one job, in the service's result form."""
    from repro.service.spec import result_to_dict
    return result_to_dict(campaign_runner(injector, entropy).run(TRIALS))


# ---------------------------------------------------------------------- #
# Execution paths
# ---------------------------------------------------------------------- #

class InProcess:
    """``CampaignRunner(...).run(...)`` in this process."""

    def __init__(self, injector: dict) -> None:
        self.injector = injector

    async def start(self) -> None:
        pass

    async def run_job(self, entropy: int) -> dict:
        result = in_process_result(self.injector, entropy)
        return {"executed": True, "cached": False, "state": "done",
                "result": result}

    async def close(self) -> None:
        pass


class Service:
    """``CampaignService`` at defaults, local or distributed.

    The distributed form uses the shared-store topology: stock
    ``repro worker --store`` processes (or, traced, the launcher in
    ``fleet_worker.py``) started here and stopped in :meth:`close`.
    """

    def __init__(self, injector: dict, run_dir: Path, distributed: bool,
                 span_dir: Optional[Path] = None) -> None:
        self.injector = injector
        self.store = run_dir / "store"
        self.run_dir = run_dir
        self.distributed = distributed
        self.span_dir = span_dir
        self.service = None
        self.workers: List[subprocess.Popen] = []
        self.logs: List = []

    async def start(self) -> None:
        from repro.service.scheduler import CampaignService
        kwargs = {"execution": "distributed"} if self.distributed else {}
        self.service = CampaignService(store=str(self.store), **kwargs)
        await self.service.start()
        if self.distributed:
            for i in range(FLEET_WORKERS):
                self.workers.append(self._spawn_worker(i))

    def _spawn_worker(self, index: int) -> subprocess.Popen:
        args = ["worker", "--store", str(self.store)]
        if self.span_dir is None:
            cmd = [sys.executable, "-m", "repro"] + args
        else:
            cmd = [sys.executable, str(HERE / "fleet_worker.py"),
                   "--spans", str(self.span_dir), "--"] + args
        log = open(self.run_dir / f"worker-{index}.log", "wb")
        self.logs.append(log)
        return subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=str(ROOT))

    async def run_job(self, entropy: int) -> dict:
        svc = self.service
        job = await svc.submit(job_spec(self.injector, entropy))
        try:
            job = await svc.wait(job.id, timeout=JOB_TIMEOUT_S)
        except asyncio.TimeoutError:
            return {"executed": False, "cached": False,
                    "state": "timeout", "result": None}
        return {"executed": not job.cached, "cached": job.cached,
                "state": job.state,
                "result": job.result,
                "record": {"submitted_at": job.submitted_at,
                           "started_at": job.started_at,
                           "finished_at": job.finished_at,
                           "phases": job.phases}}

    async def close(self) -> None:
        try:
            if self.service is not None:
                await self.service.close()
        finally:
            stop_processes(self.workers)
            for log in self.logs:
                log.close()
            # The pool's processes: wait for them so none outlives the
            # run, and so their peak RSS reaches RUSAGE_CHILDREN.
            for proc in multiprocessing.active_children():
                proc.join(10)
                if proc.is_alive():
                    proc.kill()
                    proc.join(5)


def stop_processes(procs: List[subprocess.Popen]) -> None:
    """SIGTERM, wait, then SIGKILL whatever is left; reap all."""
    for proc in procs:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
    for proc in procs:
        try:
            proc.wait(15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(5)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    return env


def make_path(workload: str, run_dir: Path,
              span_dir: Optional[Path] = None):
    path, injector, _ = WORKLOADS[workload]
    if path == "campaign":
        return InProcess(injector)
    return Service(injector, run_dir, distributed=path == "fleet",
                   span_dir=span_dir)


# ---------------------------------------------------------------------- #
# Load generator
# ---------------------------------------------------------------------- #

async def closed_loop(target, workload: str, seed: int, clients: int,
                      stop: Callable[[int, int], bool],
                      calibrate_between: bool = False):
    """Run ``clients`` closed-loop clients until ``stop(client, k)``.

    Returns ``(outcomes, window_s)``: one outcome per submission and
    the wall time from the first submission to the last result. With
    ``calibrate_between`` (one client only), one call of the calibration
    kernel is timed right after each job, stored with its outcome as
    ``calibration_s`` and left out of ``window_s``.
    """
    from spans import TRACE_ID
    if calibrate_between and clients != 1:
        raise ValueError("calibrating between jobs needs a single client")
    outcomes: List[dict] = []
    paused = 0.0

    async def client(c: int) -> None:
        nonlocal paused
        k = 0
        while not stop(c, k):
            entropy, repeat = submission(workload, seed, c, k)
            TRACE_ID.set(f"{workload}/c{c}/s{k}")
            t0 = perf_counter()
            out = await target.run_job(entropy)
            out.update(client=c, k=k, entropy=entropy, repeat=repeat,
                       latency=perf_counter() - t0)
            if calibrate_between:
                t1 = perf_counter()
                calibrate.kernel()
                out["calibration_s"] = perf_counter() - t1
                paused += out["calibration_s"]
            outcomes.append(out)
            k += 1

    t0 = perf_counter()
    await asyncio.gather(*(client(c) for c in range(clients)))
    return outcomes, perf_counter() - t0 - paused


async def first_result(target, workload: str, seed: int) -> None:
    """Set-up ends with the first result of a job outside the stream."""
    entropy, _ = submission(workload, seed, "setup", 0)
    out = await target.run_job(entropy)
    if out["state"] != "done":
        raise RuntimeError(f"set-up job ended {out['state']}")


# ---------------------------------------------------------------------- #
# Metrics and checks
# ---------------------------------------------------------------------- #

def peak_rss_mb() -> float:
    """Largest peak RSS of this process and its reaped children."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def summarize(outcomes: List[dict], window_s: float) -> dict:
    executed = [o for o in outcomes if o["executed"]
                and o["state"] == "done"]
    repeats = [o for o in outcomes if o["repeat"] and o["state"] == "done"]
    job_lat = [o["latency"] for o in executed]
    hit_lat = [o["latency"] for o in repeats]
    if len(job_lat) < 2 or not hit_lat:
        raise RuntimeError(f"too few samples: {len(job_lat)} executed "
                           f"jobs, {len(hit_lat)} resubmissions")
    return {
        "trials_per_s": sum(o["result"]["trials"] for o in executed)
        / window_s,
        "job_latency_p50_s": statistics.median(job_lat),
        "job_latency_p90_s": statistics.quantiles(
            job_lat, n=10, method="inclusive")[8],
        "cache_hit_latency_p50_s": statistics.median(hit_lat),
        "samples": {"job_latency": len(job_lat),
                    "cache_hit_latency": len(hit_lat)},
    }


def host_corrected(outcomes: List[dict]) -> dict:
    """``trials_per_s`` and ``job_latency_p50_s`` at the reference speed.

    Each executed job's time is scaled by ``REFERENCE_S`` over the time
    of the calibration call that followed it (see ``calibrate.py``).
    """
    executed = [o for o in outcomes if o["executed"]
                and o["state"] == "done"]
    scaled = [o["latency"] * calibrate.REFERENCE_S / o["calibration_s"]
              for o in executed]
    return {
        "trials_per_s": sum(o["result"]["trials"] for o in executed)
        / sum(scaled),
        "job_latency_p50_s": statistics.median(scaled),
        "host_factor": statistics.median(
            o["calibration_s"] for o in outcomes) / calibrate.REFERENCE_S,
    }


def check(workload: str, outcomes: List[dict]) -> List[str]:
    """Correctness checks of one pass, run after its timed window.

    Marks each wrong outcome ``wrong`` and returns the problems found.
    """
    path, injector, clients = WORKLOADS[workload]
    problems = []

    def wrong(o: dict, why: str) -> None:
        o["wrong"] = True
        problems.append(f"client {o['client']} submission {o['k']}: {why}")

    originals = {(o["client"], o["k"]): o for o in outcomes}
    for o in outcomes:
        if o["state"] != "done":
            continue
        r = o["result"]
        if r["trials"] != TRIALS or r["clean"] + r["corrected"] \
                + r["detected"] + r["silent"] != r["trials"]:
            wrong(o, f"tallies do not sum to {TRIALS} trials: {r}")
        if o["repeat"]:
            first = originals.get((o["client"], o["k"] - REPEAT_LAG))
            if first and first["state"] == "done" and \
                    first["result"] != r:
                wrong(o, "resubmission differs from the original job")
            if path != "campaign" and not o["cached"]:
                wrong(o, "resubmission was not served from the store")
    fresh = [o for o in outcomes if o["executed"] and not o["repeat"]
             and o["state"] == "done"]
    if path == "campaign":
        # The scalar oracle: every trial of the first measured job,
        # replayed one trial at a time, must give its recorded tallies.
        if fresh:
            oracle = oracle_result(workload, fresh[0]["entropy"])
            if oracle != fresh[0]["result"]:
                wrong(fresh[0], f"engine {fresh[0]['result']} != "
                                f"oracle {oracle}")
    else:
        for c in range(clients):
            mine = [o for o in fresh if o["client"] == c]
            for o in {id(x): x for x in mine[:1] + mine[-1:]}.values():
                if in_process_result(injector, o["entropy"]) != o["result"]:
                    wrong(o, "service result differs from the in-process "
                             "CampaignRunner")
    return problems


@functools.lru_cache(maxsize=None)
def oracle_result(workload: str, entropy: int) -> dict:
    """One job replayed through ``run_reference``, in result form.

    About 70 ms a trial on the numpy tier; cached because both passes
    of a traced run start with the same job.
    """
    from repro.service.spec import result_to_dict
    runner = campaign_runner(WORKLOADS[workload][1], entropy)
    return result_to_dict(runner.run_reference(TRIALS))


def provenance() -> dict:
    """What produced the numbers: engine defaults, host, source rev."""
    import inspect

    import numpy
    from repro.faults.batch import CampaignRunner
    from repro.obs.perf import cached_git_revision, host_fingerprint
    from repro.utils.backend import get_backend
    from repro.utils.kernels import get_kernels
    packing = inspect.signature(CampaignRunner).parameters.get("packing")
    return {
        "kernel_tier": get_kernels(None).name,
        "backend": get_backend(None).name,
        "default_layout": packing.default if packing else None,
        "repro_env": {k: v for k, v in sorted(os.environ.items())
                      if k.startswith("REPRO_")},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": cached_git_revision(),
        "host": host_fingerprint(),
    }


# ---------------------------------------------------------------------- #
# Modes
# ---------------------------------------------------------------------- #

async def mode_setup(args, run_dir: Path) -> dict:
    target = make_path(args.workload, run_dir)
    try:
        await target.start()
        await first_result(target, args.workload, args.seed)
        setup_s = time.time() - args.spawn_ts
    finally:
        await target.close()
    return {"setup_s": setup_s}


async def mode_measure(args, run_dir: Path) -> dict:
    path, _, clients = WORKLOADS[args.workload]
    # Only the in-process campaign can time the calibration kernel next
    # to its jobs without sharing a core with them.
    calibrate_between = path == "campaign"
    target = make_path(args.workload, run_dir)
    try:
        await target.start()
        await first_result(target, args.workload, args.seed)
        setup_s = time.time() - args.spawn_ts
        deadline = perf_counter() + args.seconds
        outcomes, window_s = await closed_loop(
            target, args.workload, args.seed, clients,
            lambda c, k: perf_counter() >= deadline, calibrate_between)
    finally:
        await target.close()
    out = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb()}
    out.update(summarize(outcomes, window_s))
    if calibrate_between:
        corrected = host_corrected(outcomes)
        out["raw"] = {name: out[name] for name in corrected
                      if name in out}
        out.update(corrected)
    out.update(finish(args.workload, outcomes))
    return out


def finish(workload: str, *passes: List[dict]) -> dict:
    problems = [p for outcomes in passes for p in check(workload, outcomes)]
    outcomes = [o for outcomes in passes for o in outcomes]
    failed = sum(1 for o in outcomes
                 if o["state"] != "done" or o.get("wrong"))
    return {"attempted": len(outcomes), "failed": failed,
            "correct": not any(o.get("wrong") for o in outcomes),
            "problems": problems}


async def mode_trace(args, run_dir: Path) -> dict:
    import spans
    path, _, clients = WORKLOADS[args.workload]
    per_client = max(REPEAT_EVERY * 2,
                     round(args.seconds * TRACE_JOBS_PER_S[path]))

    def stop(c: int, k: int) -> bool:
        return k >= per_client

    async def one_pass(sub: str, span_dir: Optional[Path]):
        target = make_path(args.workload, run_dir / sub, span_dir)
        (run_dir / sub).mkdir()
        try:
            await target.start()
            await first_result(target, args.workload, args.seed)
            return await closed_loop(target, args.workload, args.seed,
                                     clients, stop)
        finally:
            await target.close()

    plain, plain_s = await one_pass("untraced", None)
    span_dir = run_dir / "spans"
    rec = spans.SpanRecorder(span_dir, proc="main")
    missing = spans.install(rec)
    traced, traced_s = await one_pass("traced", span_dir)
    rec.active = False
    all_spans = rec.spans + spans.read_spans(span_dir)
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl",
              "w", encoding="utf-8") as fh:
        fh.write("".join(json.dumps(s) + "\n" for s in all_spans))

    metrics = spans.layer_metrics(all_spans, traced, service_proc="main")
    plain_sum, traced_sum = summarize(plain, plain_s), \
        summarize(traced, traced_s)
    metrics.update({
        "tracing.untraced_trials_per_s": plain_sum["trials_per_s"],
        "tracing.traced_trials_per_s": traced_sum["trials_per_s"],
        "tracing.overhead_ratio": traced_sum["trials_per_s"]
        / plain_sum["trials_per_s"],
        "latency.job_p50_s": plain_sum["job_latency_p50_s"],
        "latency.job_p90_s": plain_sum["job_latency_p90_s"],
        "latency.job_samples": plain_sum["samples"]["job_latency"],
        "latency.cache_hit_p50_s": plain_sum["cache_hit_latency_p50_s"],
        "latency.cache_hit_samples":
            plain_sum["samples"]["cache_hit_latency"],
    })
    out = {"metrics": metrics, "unwrapped": missing}
    out.update(finish(args.workload, plain, traced))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "measure", "trace"))
    parser.add_argument("--spawn-ts", type=float, required=True)
    parser.add_argument("--run-dir", required=True, type=Path)
    args = parser.parse_args(argv)
    modes = {"setup": mode_setup, "measure": mode_measure,
             "trace": mode_trace}
    out = asyncio.run(modes[args.mode](args, args.run_dir))
    if args.mode != "setup":
        out["provenance"] = provenance()
    with open(args.run_dir / RESULT_FILE, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
