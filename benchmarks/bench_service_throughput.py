"""Throughput bench: the campaign service's scheduling + caching overhead.

The service layer must add orchestration, not drag: jobs flow through
spec validation, content hashing, the async queue, shard planning, the
worker pool, per-span checkpoints, and the persistent store. This bench
pins three claims with committed evidence (``BENCH_*.json`` twins for
the cross-PR trajectory):

* **jobs/sec** — a burst of distinct small campaigns sustains a useful
  completion rate end to end (every trial really executes);
* **cache-hit latency** — resubmitting an identical ``(spec, entropy)``
  is served from the content-addressed store orders of magnitude faster
  than executing it (gate: >= 20x);
* **overhead** — a service-executed campaign costs <= 3x the wall time
  of the same trials through the in-process ``CampaignRunner`` at the
  bench geometry (scheduling amortizes over the shards), while the
  differential gate re-asserts the tallies stay bit-identical.

Run:  pytest benchmarks/bench_service_throughput.py
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.service import (
    CampaignJobSpec,
    CampaignService,
    InjectorSpec,
    result_from_dict,
)

#: Closest valid geometry to the n=128 target (as in the other benches).
N, M = 129, 3
PROBABILITY = 2e-4
JOB_TRIALS = 256
JOB_COUNT = 12
CACHE_PROBES = 25
REQUIRED_CACHE_SPEEDUP = 20.0
MAX_SERVICE_OVERHEAD = 3.0


def _spec(seed: int) -> CampaignJobSpec:
    return CampaignJobSpec(
        n=N, m=M, trials=JOB_TRIALS, seed=seed,
        injector=InjectorSpec("uniform", {"probability": PROBABILITY}))


async def _run_burst(store, specs, **kwargs):
    async with CampaignService(store, **kwargs) as service:
        jobs = [await service.submit(spec) for spec in specs]
        for job in jobs:
            await service.wait(job.id, timeout=600)
        return jobs


async def _probe_cache(store, spec, probes, **kwargs):
    async with CampaignService(store, **kwargs) as service:
        latencies = []
        for _ in range(probes):
            t0 = time.perf_counter()
            job = await service.submit(spec)
            await service.wait(job.id, timeout=600)
            latencies.append(time.perf_counter() - t0)
            assert job.cached, "cache probe unexpectedly executed"
        return latencies


def test_service_throughput_and_cache_latency(tmp_path, save_artifact,
                                              save_json):
    kwargs = dict(workers=2, shard_trials=64, max_concurrent_jobs=4,
                  executor="thread")

    # -- baseline: the same trials in process --------------------------- #
    baseline = _spec(0)
    t0 = time.perf_counter()
    expected = baseline.build_runner().run(baseline.trials)
    in_process_s = time.perf_counter() - t0

    # -- burst of distinct jobs ----------------------------------------- #
    specs = [_spec(seed) for seed in range(JOB_COUNT)]
    t0 = time.perf_counter()
    jobs = asyncio.run(_run_burst(tmp_path, specs, **kwargs))
    burst_s = time.perf_counter() - t0
    jobs_per_s = JOB_COUNT / burst_s
    assert all(j.state == "done" and not j.cached for j in jobs)
    # differential gate while the clock runs: seed 0 matches in-process
    assert result_from_dict(jobs[0].result).as_dict() == \
        expected.as_dict()
    service_overhead = (burst_s / JOB_COUNT) / in_process_s

    # -- cache-hit latency ---------------------------------------------- #
    latencies = asyncio.run(_probe_cache(tmp_path, specs[0], CACHE_PROBES,
                                         **kwargs))
    cache_mean_s = sum(latencies) / len(latencies)
    execute_mean_s = burst_s / JOB_COUNT
    cache_speedup = execute_mean_s / cache_mean_s

    assert cache_speedup >= REQUIRED_CACHE_SPEEDUP, (
        f"cache hit only {cache_speedup:.1f}x faster than execution "
        f"(needs >= {REQUIRED_CACHE_SPEEDUP}x)")
    assert service_overhead <= MAX_SERVICE_OVERHEAD, (
        f"service run cost {service_overhead:.2f}x the in-process "
        f"runner (budget {MAX_SERVICE_OVERHEAD}x)")

    save_json("service_throughput", {
        "bench": "service_throughput",
        "n": N, "m": M, "trials_per_job": JOB_TRIALS,
        "jobs": JOB_COUNT, "shard_trials": 64, "workers": 2,
        "backend": "numpy",
        "jobs_per_s": jobs_per_s,
        "trials_per_s": JOB_COUNT * JOB_TRIALS / burst_s,
        "in_process_job_s": in_process_s,
        "service_job_s": execute_mean_s,
        "service_overhead_x": service_overhead,
        "cache_hit_mean_s": cache_mean_s,
        "cache_hit_speedup": cache_speedup,
        "required_cache_speedup": REQUIRED_CACHE_SPEEDUP,
        "max_service_overhead": MAX_SERVICE_OVERHEAD,
    })
    save_artifact("service_throughput.txt", "\n".join([
        f"geometry: n={N}, m={M}; {JOB_COUNT} jobs x {JOB_TRIALS} trials, "
        f"2 workers, 64-trial shards",
        f"burst completion   : {jobs_per_s:.2f} jobs/s "
        f"({JOB_COUNT * JOB_TRIALS / burst_s:.0f} trials/s end to end)",
        f"in-process runner  : {in_process_s * 1e3:.1f} ms/job",
        f"service execution  : {execute_mean_s * 1e3:.1f} ms/job "
        f"({service_overhead:.2f}x overhead, budget "
        f"{MAX_SERVICE_OVERHEAD}x)",
        f"cache-hit latency  : {cache_mean_s * 1e3:.2f} ms "
        f"({cache_speedup:.0f}x faster than execution, "
        f"gate >= {REQUIRED_CACHE_SPEEDUP}x)",
    ]))


@pytest.mark.slow
def test_sustained_mixed_load(tmp_path, save_json):
    """Slow lane: a larger mixed burst keeps the scheduler honest."""
    specs = [_spec(seed) for seed in range(32)]
    t0 = time.perf_counter()
    jobs = asyncio.run(_run_burst(
        tmp_path, specs, workers=4, shard_trials=64,
        max_concurrent_jobs=8, executor="thread"))
    elapsed = time.perf_counter() - t0
    assert all(j.state == "done" for j in jobs)
    save_json("service_sustained_load", {
        "bench": "service_sustained_load",
        "n": N, "m": M, "jobs": len(specs),
        "trials_per_job": JOB_TRIALS,
        "jobs_per_s": len(specs) / elapsed,
        "trials_per_s": len(specs) * JOB_TRIALS / elapsed,
    })
