"""Throughput bench: scalar ``FaultCampaign`` vs the batched engine.

The batched campaign engine exists for one reason — trials/sec on the
Monte-Carlo hot path. This bench pins the claim: at the target geometry
(the issue's n=128 has no odd block divisor, so the closest valid
geometry n=129, m=3 is used) the batched engine must clear at least a
5x speedup over ``FaultCampaign.run``. Smaller differential checks
re-assert that the engines agree bit-for-bit on the tallies while the
clock runs, and every claim is persisted both human-readable (``.txt``)
and machine-readable (``BENCH_*.json``). The end-to-end tier gate
checks that the compiled kernel tier, when built, is not slower than
the numpy tier on a whole campaign. The packed-kernel pack-tax gates
(per kernel tier) live in
``bench_kernels.py::test_packed_kernel_pack_tax``.

Run:  pytest benchmarks/bench_campaign_batch.py
"""

from __future__ import annotations

import statistics
import time

from repro.core.blocks import BlockGrid
from repro.faults import BatchCampaign, FaultCampaign, UniformInjector
from repro.utils.kernels import get_kernels, native_available

#: Closest valid geometry to the n=128 target (128 = 2^7 has no odd
#: divisor except 1; 129 = 3 * 43 keeps blocks realistic).
GRID = BlockGrid(129, 3)
PROBABILITY = 2e-4
BATCH_TRIALS = 256
SCALAR_TRIALS = 4
REQUIRED_SPEEDUP = 5.0
#: End-to-end campaign: trials per sample, interleaved warmed samples
#: per tier, and the native-over-numpy floor. The tiers share the
#: host-side draws that dominate a campaign, so the compiled tier only
#: has to be no slower end to end; the floor leaves room for shared-host
#: noise (~10% between samples here).
END_TO_END_TRIALS = 1024
END_TO_END_SAMPLES = 5
REQUIRED_NATIVE_OVER_NUMPY = 0.9


def _trials_per_second(run, trials: int) -> float:
    t0 = time.perf_counter()
    run(trials)
    return trials / (time.perf_counter() - t0)


def test_batched_engine_speedup(benchmark, save_artifact, save_json):
    """Batched engine beats the scalar reference by >= 5x trials/sec."""
    scalar = FaultCampaign(GRID, UniformInjector(PROBABILITY, seed=1), seed=2)
    scalar_rate = _trials_per_second(scalar.run, SCALAR_TRIALS)

    engine = BatchCampaign(GRID, UniformInjector(PROBABILITY, seed=1), seed=2,
                           batch_size=64)
    batch_rate = BATCH_TRIALS / benchmark.pedantic(
        lambda: _measure(engine), rounds=1, iterations=1)

    speedup = batch_rate / scalar_rate
    save_artifact("campaign_batch_throughput.txt", "\n".join([
        f"geometry: n={GRID.n}, m={GRID.m} "
        f"({GRID.blocks_per_side}x{GRID.blocks_per_side} blocks)",
        f"scalar FaultCampaign : {scalar_rate:10.1f} trials/s",
        f"batched engine (B={BATCH_TRIALS}): {batch_rate:10.1f} trials/s",
        f"speedup: {speedup:.1f}x (required >= {REQUIRED_SPEEDUP:.0f}x)",
    ]))
    save_json("campaign_batch_throughput", {
        "bench": "campaign_batch_throughput",
        "n": GRID.n, "m": GRID.m, "B": BATCH_TRIALS,
        "backend": "numpy",
        "scalar_trials_per_s": scalar_rate,
        "batched_trials_per_s": batch_rate,
        "speedup": speedup,
        "required_speedup": REQUIRED_SPEEDUP,
    })
    assert speedup >= REQUIRED_SPEEDUP, (
        f"batched engine only {speedup:.1f}x over scalar "
        f"(required {REQUIRED_SPEEDUP}x)")


def test_packed_campaign_end_to_end(save_json):
    """Full packed campaign per kernel tier: tallies identical, rates
    recorded, native-over-numpy gated when the extension is built.

    End-to-end trials/sec includes the per-trial host RNG draws (shared
    by every tier per the seeding contract), so the tier gap here is
    narrower than the kernel gate — the JSON keeps the trajectory
    honest across PRs. Each tier is warmed up once, then the tiers take
    turns for ``END_TO_END_SAMPLES`` rounds and each is timed as the
    median of its runs.
    """
    def run(tier):
        engine = BatchCampaign(GRID, UniformInjector(PROBABILITY, seed=1),
                               seed=2, batch_size=256,
                               kernels=get_kernels(tier))
        return engine.run(END_TO_END_TRIALS)

    tiers = ["numpy"] + (["native"] if native_available() else [])
    results = {tier: run(tier) for tier in tiers}  # warm-up + differential
    times = {tier: [] for tier in tiers}
    for i in range(END_TO_END_SAMPLES):
        for tier in (tiers if i % 2 == 0 else tiers[::-1]):
            t0 = time.perf_counter()
            run(tier)
            times[tier].append(time.perf_counter() - t0)
    rates = {tier: END_TO_END_TRIALS / statistics.median(times[tier])
             for tier in tiers}
    assert all(r.as_dict() == results["numpy"].as_dict()
               for r in results.values())
    native_over_numpy = rates["native"] / rates["numpy"] \
        if "native" in rates else None
    active = get_kernels(None).name
    save_json("packed_campaign_end_to_end", {
        "bench": "packed_campaign_end_to_end",
        "n": GRID.n, "m": GRID.m, "B": END_TO_END_TRIALS,
        "batch_size": 256, "samples": END_TO_END_SAMPLES,
        "backend": "numpy",
        "tiers": {tier: {"trials_per_s": rate}
                  for tier, rate in rates.items()},
        "u64_trials_per_s": rates[active if active in rates else "numpy"],
        "native_over_numpy": native_over_numpy,
        "required_native_over_numpy": REQUIRED_NATIVE_OVER_NUMPY,
    })
    if native_over_numpy is not None:
        assert native_over_numpy >= REQUIRED_NATIVE_OVER_NUMPY, (
            f"native tier {native_over_numpy:.2f}x the numpy tier end to "
            f"end (required >= {REQUIRED_NATIVE_OVER_NUMPY}x)")


def _measure(engine: BatchCampaign) -> float:
    t0 = time.perf_counter()
    engine.run(BATCH_TRIALS)
    return time.perf_counter() - t0


def test_engines_agree_while_benched(benchmark):
    """Speed means nothing if the tallies drift: quick differential gate."""
    trials = 8

    def both():
        s = FaultCampaign(GRID, UniformInjector(5e-4, seed=3),
                          seed=4).run(trials)
        b = BatchCampaign(GRID, UniformInjector(5e-4, seed=3),
                          seed=4, batch_size=3).run(trials)
        return s, b

    s, b = benchmark.pedantic(both, rounds=1, iterations=1)
    assert s.as_dict() == b.as_dict()
