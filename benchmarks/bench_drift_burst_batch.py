"""Throughput bench: batched drift and burst simulation vs their scalar
references.

The drift-window and burst-survival Monte-Carlo paths ride the unified
packed campaign engine; this bench pins the speedup claim at the target
geometry (n=129, m=3 — the closest odd-block
geometry to the n=128 target, as in ``bench_campaign_batch``) with
``B = 1024`` batched trials:

* drift: ``CampaignRunner`` + ``DriftInjector`` batched vs the scalar
  ``FaultCampaign`` reference (per-block Python check sweep);
* burst: ``simulate_burst_survival(engine="batched")`` vs
  ``engine="scalar"``.

Both must clear 20x; in practice the vectorized check sweep lands around
two orders of magnitude ahead, like the uniform-SER campaigns. A small
differential gate re-asserts bit-identical tallies while the clock runs,
and the packed engine's end-to-end drift and burst rates are recorded
for the active kernel tier — machine-readable twins land in
``BENCH_*.json``.

Run:  pytest -m slow benchmarks/bench_drift_burst_batch.py
"""

from __future__ import annotations

import time

import pytest

from repro.core.blocks import BlockGrid
from repro.faults import DriftModel
from repro.reliability.burst import simulate_burst_survival
from repro.reliability.drift_analysis import simulate_drift_survival

GRID = BlockGrid(129, 3)
#: Hot drift model so the campaigns exercise the correction paths.
MODEL = DriftModel(tau_hours=2e5, beta=2.0, abrupt_fit_per_bit=1e4)
WINDOW_HOURS = 24.0
REFRESH_HOURS = 6.0
BURST_LENGTH = 2
BATCH_TRIALS = 1024
SCALAR_TRIALS = 4
REQUIRED_SPEEDUP = 20.0


def _rate(fn, trials: int) -> float:
    t0 = time.perf_counter()
    fn(trials)
    return trials / (time.perf_counter() - t0)


@pytest.mark.slow
def test_batched_drift_speedup(save_artifact, save_json):
    """Batched drift campaign >= 20x the scalar reference trials/sec."""
    scalar_rate = _rate(
        lambda t: simulate_drift_survival(
            GRID, MODEL, WINDOW_HOURS, REFRESH_HOURS, trials=t, seed=1,
            engine="scalar"),
        SCALAR_TRIALS)
    batch_rate = _rate(
        lambda t: simulate_drift_survival(
            GRID, MODEL, WINDOW_HOURS, REFRESH_HOURS, trials=t, seed=1,
            engine="batched", batch_size=64),
        BATCH_TRIALS)
    speedup = batch_rate / scalar_rate
    save_json("drift_batch_throughput", {
        "bench": "drift_batch_throughput",
        "n": GRID.n, "m": GRID.m, "B": BATCH_TRIALS,
        "backend": "numpy",
        "window_hours": WINDOW_HOURS, "refresh_hours": REFRESH_HOURS,
        "scalar_trials_per_s": scalar_rate,
        "batched_trials_per_s": batch_rate,
        "speedup": speedup,
        "required_speedup": REQUIRED_SPEEDUP,
    })
    save_artifact("drift_batch_throughput.txt", "\n".join([
        f"geometry: n={GRID.n}, m={GRID.m} "
        f"({GRID.blocks_per_side}x{GRID.blocks_per_side} blocks), "
        f"window={WINDOW_HOURS}h refresh={REFRESH_HOURS}h",
        f"scalar drift campaign : {scalar_rate:10.2f} trials/s",
        f"batched drift campaign (B={BATCH_TRIALS}): "
        f"{batch_rate:10.2f} trials/s",
        f"speedup: {speedup:.1f}x (required >= {REQUIRED_SPEEDUP:.0f}x)",
    ]))
    assert speedup >= REQUIRED_SPEEDUP, (
        f"batched drift only {speedup:.1f}x over scalar "
        f"(required {REQUIRED_SPEEDUP}x)")


@pytest.mark.slow
def test_batched_burst_speedup(save_artifact, save_json):
    """Batched burst survival >= 20x the scalar reference trials/sec."""
    scalar_rate = _rate(
        lambda t: simulate_burst_survival(
            GRID, BURST_LENGTH, t, seed=2, engine="scalar"),
        SCALAR_TRIALS)
    batch_rate = _rate(
        lambda t: simulate_burst_survival(
            GRID, BURST_LENGTH, t, seed=2, engine="batched",
            batch_size=64),
        BATCH_TRIALS)
    speedup = batch_rate / scalar_rate
    save_json("burst_batch_throughput", {
        "bench": "burst_batch_throughput",
        "n": GRID.n, "m": GRID.m, "B": BATCH_TRIALS,
        "backend": "numpy",
        "burst_length": BURST_LENGTH,
        "scalar_trials_per_s": scalar_rate,
        "batched_trials_per_s": batch_rate,
        "speedup": speedup,
        "required_speedup": REQUIRED_SPEEDUP,
    })
    save_artifact("burst_batch_throughput.txt", "\n".join([
        f"geometry: n={GRID.n}, m={GRID.m} "
        f"({GRID.blocks_per_side}x{GRID.blocks_per_side} blocks), "
        f"burst length {BURST_LENGTH}",
        f"scalar burst survival : {scalar_rate:10.2f} trials/s",
        f"batched burst survival (B={BATCH_TRIALS}): "
        f"{batch_rate:10.2f} trials/s",
        f"speedup: {speedup:.1f}x (required >= {REQUIRED_SPEEDUP:.0f}x)",
    ]))
    assert speedup >= REQUIRED_SPEEDUP, (
        f"batched burst only {speedup:.1f}x over scalar "
        f"(required {REQUIRED_SPEEDUP}x)")


@pytest.mark.slow
def test_packed_drift_burst_throughput(save_artifact, save_json):
    """Packed drift/burst campaigns end to end: throughput recorded for
    the cross-PR trajectory (bit-identity with the scalar engines is
    gated by ``test_engines_agree_while_benched``).

    End-to-end rates include the per-trial host RNG draws (drift draws
    several random fields per trial, so they dominate its runtime); the
    check-sweep kernel itself is gated in ``bench_kernels.py``.
    """
    drift_rate = _rate(
        lambda t: simulate_drift_survival(
            GRID, MODEL, WINDOW_HOURS, REFRESH_HOURS, trials=t, seed=1,
            engine="batched", batch_size=64),
        BATCH_TRIALS)
    burst_rate = _rate(
        lambda t: simulate_burst_survival(
            GRID, BURST_LENGTH, t, seed=2, engine="batched",
            batch_size=64),
        BATCH_TRIALS)
    save_json("packed_drift_burst_throughput", {
        "bench": "packed_drift_burst_throughput",
        "n": GRID.n, "m": GRID.m, "B": BATCH_TRIALS, "backend": "numpy",
        "drift_u64_trials_per_s": drift_rate,
        "burst_u64_trials_per_s": burst_rate,
    })
    save_artifact("packed_drift_burst_throughput.txt", "\n".join([
        f"geometry: n={GRID.n}, m={GRID.m}, B={BATCH_TRIALS}",
        f"drift: {drift_rate:10.2f} trials/s   "
        f"burst: {burst_rate:10.2f} trials/s",
    ]))


@pytest.mark.slow
def test_engines_agree_while_benched():
    """Speed means nothing if the tallies drift: differential gates."""
    trials = 8
    drift_kwargs = dict(model=MODEL, window_hours=WINDOW_HOURS,
                        refresh_period_hours=REFRESH_HOURS, trials=trials,
                        seed=3)
    s = simulate_drift_survival(GRID, engine="scalar", **drift_kwargs)
    b = simulate_drift_survival(GRID, engine="batched", batch_size=3,
                                **drift_kwargs)
    assert s.as_dict() == b.as_dict()

    sb = simulate_burst_survival(GRID, BURST_LENGTH, trials, seed=4,
                                 engine="scalar")
    bb = simulate_burst_survival(GRID, BURST_LENGTH, trials, seed=4,
                                 engine="batched", batch_size=3)
    assert sb == bb
