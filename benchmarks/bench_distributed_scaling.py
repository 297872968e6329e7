"""Scaling bench: trials/s of a sharded campaign across a worker fleet.

The distributed layer exists to scale past one host's pool, so the
claim to pin is throughput scaling with worker count. The bench runs
one sharded campaign through the distributed path at 1, 2, and 4
worker *processes* (real ``repro worker`` subprocesses over the
shared-store topology — subprocess startup excluded by launching the
fleet before the clock starts) against the in-process
``CampaignRunner`` baseline, and gates:

* **scaling**: 2-worker throughput >= 1.5x 1-worker on a multi-core
  host (the gate is skipped — and recorded as unenforced — on
  single-core machines, where CPU-bound numpy spans cannot scale);
* **correctness while the clock runs**: the distributed tallies stay
  bit-identical to the in-process runner.

Committed evidence: ``BENCH_distributed_scaling.json`` +
``distributed_scaling.txt`` twins in ``benchmarks/results/``.

Run:  pytest benchmarks/bench_distributed_scaling.py -o python_files="bench_*.py"
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
import time

from repro.service import (
    CampaignJobSpec,
    CampaignService,
    InjectorSpec,
    result_from_dict,
)

#: Closest valid geometry to the n=128 target (as in the other benches).
N, M = 129, 3
PROBABILITY = 2e-4
TRIALS = 8192
SHARD_TRIALS = 512           # -> 16 work units
WORKER_COUNTS = (1, 2, 4)
REQUIRED_2W_SPEEDUP = 1.5

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _spec(seed: int) -> CampaignJobSpec:
    return CampaignJobSpec(
        n=N, m=M, trials=TRIALS, seed=seed,
        injector=InjectorSpec("uniform", {"probability": PROBABILITY}))


def _spawn_workers(store: str, count: int) -> list:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(_REPO_ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return [
        subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", "--store", store,
             "--poll-interval", "0.02", "--lease-ttl", "30"],
            env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        for _ in range(count)]


async def _run_distributed(store: str, spec: CampaignJobSpec) -> tuple:
    async with CampaignService(
            store, executor="thread", shard_trials=SHARD_TRIALS,
            execution="distributed", dispatch_poll_s=0.02) as service:
        t0 = time.perf_counter()
        job = await service.submit(spec)
        await service.wait(job.id, timeout=900)
        elapsed = time.perf_counter() - t0
        assert job.state == "done", job.error
        return job, elapsed


def _measure(store: str, workers: int, seed: int) -> dict:
    procs = _spawn_workers(store, workers)
    try:
        # let worker processes finish importing before the clock starts
        time.sleep(2.0)
        job, elapsed = asyncio.run(_run_distributed(store, _spec(seed)))
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.wait(timeout=30)
    return {"workers": workers, "elapsed_s": elapsed,
            "trials_per_s": TRIALS / elapsed,
            "result": result_from_dict(job.result).as_dict()}


def test_distributed_scaling(tmp_path, save_artifact, save_json):
    # -- in-process baseline (same per-trial seeding contract) ---------- #
    baseline_spec = _spec(100)
    t0 = time.perf_counter()
    expected = baseline_spec.build_runner().run(TRIALS)
    in_process_s = time.perf_counter() - t0

    # -- fleet sweep (distinct seeds: no cross-run cache hits) ---------- #
    points = []
    for i, workers in enumerate(WORKER_COUNTS):
        store = str(tmp_path / f"store-{workers}")
        points.append(_measure(store, workers, seed=100 + i))

    # differential gate while the clock runs: the 1-worker fleet run
    # used the baseline's seed and must match it bit-for-bit
    assert points[0]["result"] == expected.as_dict()

    by_workers = {p["workers"]: p for p in points}
    speedup_2w = by_workers[2]["trials_per_s"] / \
        by_workers[1]["trials_per_s"]
    cores = os.cpu_count() or 1
    gate_enforced = cores >= 2
    if gate_enforced:
        assert speedup_2w >= REQUIRED_2W_SPEEDUP, (
            f"2-worker fleet only {speedup_2w:.2f}x the 1-worker "
            f"throughput (gate >= {REQUIRED_2W_SPEEDUP}x on "
            f"{cores} cores)")

    save_json("distributed_scaling", {
        "bench": "distributed_scaling",
        "n": N, "m": M, "trials": TRIALS,
        "shard_trials": SHARD_TRIALS,
        "backend": "numpy",
        "topology": "shared-store (sqlite broker)",
        "in_process_trials_per_s": TRIALS / in_process_s,
        "points": [{k: p[k] for k in
                    ("workers", "elapsed_s", "trials_per_s")}
                   for p in points],
        "speedup_2w_over_1w": speedup_2w,
        "required_2w_speedup": REQUIRED_2W_SPEEDUP,
        "gate_enforced": gate_enforced,
        "cpu_count": cores,
    })
    lines = [
        f"geometry: n={N}, m={M}; {TRIALS} trials in "
        f"{SHARD_TRIALS}-trial units, shared-store topology",
        f"in-process baseline: {TRIALS / in_process_s:.0f} trials/s",
    ]
    for p in points:
        lines.append(f"{p['workers']} worker(s): "
                     f"{p['trials_per_s']:.0f} trials/s "
                     f"({p['elapsed_s']:.2f} s)")
    lines.append(
        f"2-worker speedup: {speedup_2w:.2f}x (gate >= "
        f"{REQUIRED_2W_SPEEDUP}x, "
        f"{'enforced' if gate_enforced else f'skipped on {cores} core'})")
    save_artifact("distributed_scaling.txt", "\n".join(lines))
