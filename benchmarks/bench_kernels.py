"""Micro-benchmarks of the core simulation kernels.

These track the wall-clock performance of the library's hot paths (full
encode, continuous update, block check, SIMD MAGIC issue, XOR3 hardware
microprogram, SIMPLER synthesis) so regressions in the simulator itself
are visible — they correspond to no paper artifact but keep the tool
usable at the paper's n=1020 scale.

``test_packed_kernel_pack_tax`` is the kernel-tier gate: the bit-packed
uint64 campaign kernel at B=4096/n=129 against the scalar per-block
checker, with the one-off pack timed separately *per kernel tier* (pure
numpy and, when built, the compiled ``repro._native._kernels``
extension). The pack used to eat most of the packed path's win — the
"pack tax" — so the gates are stated pack-inclusive: the numpy tier
must clear 100x over the scalar kernel, and the native tier 1.5x over the
numpy tier, differentials asserted while the clock runs.

``test_pack_fast_path_not_slower`` keeps the numpy pack's aligned
uint8 fast path honest against the generic path it bypasses: its peak
allocation is gated at the engine's default batch and at B=4096, its
time at B=4096 as the median of warmed, interleaved pairs.
"""

from __future__ import annotations

import os
import statistics
import time
import tracemalloc

import numpy as np
import pytest

from repro.arch.processing import ProcessingCrossbar
from repro.core.blocks import BlockGrid
from repro.core.checker import BlockChecker, check_all_batched_packed
from repro.core.code import DiagonalParityCode
from repro.core.updater import ContinuousUpdater
from repro.faults.batch import DEFAULT_BATCH_SIZE
from repro.utils import bitops
from repro.utils.bitpack import pack_batch, unpack_batch
from repro.utils.kernels import get_kernels, native_available
from repro.xbar.crossbar import CrossbarArray
from repro.xbar.magic import MagicEngine
from repro.xbar.ops import Axis

#: CI quick mode (``REPRO_BENCH_QUICK=1``): smaller batch and the hard
#: x-factor gates downgraded to recorded-but-not-asserted. A quick run
#: exists to feed the perf ledger on shared CI hosts, where fixed
#: overheads dominate at small B; the differential bit-identity checks
#: still run at full strength.
QUICK = os.environ.get("REPRO_BENCH_QUICK", "").lower() \
    not in ("", "0", "false")

#: Pack-tax gate geometry (closest odd-divisor geometry to n=128).
PACKED_GRID = BlockGrid(129, 3)
PACKED_TRIALS = 1024 if QUICK else 4096
PACKED_PROBABILITY = 2e-4
#: Scalar reference trials per sample: the per-block Python sweep costs
#: tens of milliseconds a trial at n=129, so a few give its rate.
SCALAR_TRIALS = 2 if QUICK else 4
#: Timed samples per layout after one warm-up; gates use the medians.
SAMPLES = 3 if QUICK else 5
#: Pack-inclusive gates: the numpy tier over the scalar checker, and
#: the compiled tier over the numpy tier.
REQUIRED_SPEEDUP_OVER_SCALAR = 100.0
REQUIRED_NATIVE_OVER_NUMPY = 1.5
#: Interleaved (fast, generic) pack pairs at ``PACK_TIMED_BATCH``, and
#: the floor on their median generic/fast ratio: the fast path may not
#: be the slower one (measured 1.11-1.27x).
PACK_PAIRS = 10 if QUICK else 16
PACK_RATIO_FLOOR = 1.0
PACK_TIMED_BATCH = 4096
#: Ceiling on the fast path's peak traced allocation over the generic
#: path's, at each of ``PACK_PEAK_BATCHES``. The generic path holds a
#: ``!= 0`` bool tensor beside the transposed copy, so the fast path
#: needs about half (measured 0.53). At the default batch this is the
#: fast path's whole win: its time there is a wash (median generic/fast
#: 0.92-1.08x inside campaign jobs), but campaign-uniform's peak RSS is
#: ~1.4 MB lower with it.
PACK_PEAK_CEILING = 0.6
PACK_PEAK_BATCHES = (DEFAULT_BATCH_SIZE, PACK_TIMED_BATCH)


@pytest.fixture(scope="module")
def paper_scale():
    grid = BlockGrid(1020, 15)
    code = DiagonalParityCode(grid)
    rng = np.random.default_rng(0)
    mem = CrossbarArray(1020, 1020)
    mem.write_region(0, 0, rng.integers(0, 2, (1020, 1020), dtype=np.uint8))
    store = code.encode(mem.snapshot())
    return grid, code, mem, store


def test_kernel_full_encode(benchmark, paper_scale):
    """From-scratch encode of a full 1020x1020 crossbar."""
    grid, code, mem, _ = paper_scale
    snapshot = mem.snapshot()
    store = benchmark(code.encode, snapshot)
    assert store.total_bits == 2 * 15 * 68 * 68


def test_kernel_continuous_row_update(benchmark, paper_scale):
    """Parity maintenance for one full-row write."""
    grid, code, mem, store = paper_scale
    updater = ContinuousUpdater(grid, store.copy())
    rows = np.full(1020, 7)
    cols = np.arange(1020)
    old = mem.read_row(7).astype(bool)
    new = ~old

    benchmark(updater.on_write, rows, cols, old, new)


def test_kernel_block_check(benchmark, paper_scale):
    """Single 15x15 block check (syndrome + decode), clean block."""
    grid, code, mem, store = paper_scale
    checker = BlockChecker(grid, code, store.copy())
    report = benchmark(checker.check_block, mem, 10, 10)
    assert report.status.value == "no_error"


def test_kernel_full_sweep(benchmark, paper_scale):
    """Full-memory periodic check: 68x68 = 4624 blocks."""
    grid, code, mem, store = paper_scale
    checker = BlockChecker(grid, code, store.copy())
    sweep = benchmark.pedantic(checker.check_all, args=(mem,),
                               rounds=1, iterations=1)
    assert sweep.blocks_checked == 4624


def test_kernel_simd_magic_nor(benchmark, paper_scale):
    """One MAGIC NOR across all 1020 rows (Fig. 1(a) SIMD issue)."""
    _, _, mem, _ = paper_scale
    engine = MagicEngine(mem, strict=False)
    lanes = tuple(range(1020))

    def issue():
        engine.init(Axis.ROW, (1019,), lanes)
        engine.nor(Axis.ROW, (0, 1), 1019, lanes)

    benchmark(issue)


def test_kernel_pc_xor3(benchmark):
    """XOR3 microprogram across 1020 lanes in a processing crossbar."""
    pc = ProcessingCrossbar(1020)
    rng = np.random.default_rng(1)
    a, b, c = (rng.integers(0, 2, 1020).astype(bool) for _ in range(3))
    result = benchmark(pc.xor3, a, b, c)
    assert (result.astype(bool) == (a ^ b ^ c)).all()


def test_kernel_simpler_synthesis(benchmark):
    """SIMPLER mapping of the adder benchmark (2.3k gates)."""
    from repro.circuits.registry import BENCHMARKS
    from repro.logic.nor_mapping import map_to_nor
    from repro.synth.simpler import SimplerConfig, synthesize

    nor = map_to_nor(BENCHMARKS["adder"].build())
    prog = benchmark.pedantic(synthesize, args=(nor,),
                              kwargs={"config": SimplerConfig()},
                              rounds=2, iterations=1)
    assert prog.gate_ops == nor.num_gates


def _median_seconds(run, samples: int = SAMPLES) -> float:
    """Median wall time of ``run()`` over ``samples`` after a warm-up."""
    run()
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        run()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def test_packed_kernel_pack_tax(save_artifact, save_json):
    """Packed campaign kernel vs the scalar checker, pack tax per tier.

    The timed kernel is the per-block campaign work on *staged* state:
    encode the golden check planes, then the full syndrome/decode/
    correct sweep — the ops a campaign repeats per block once its state
    tensors exist. The scalar side runs the same ops trial by trial
    (``DiagonalParityCode.encode`` + ``BlockChecker.check_all``) on the
    first ``SCALAR_TRIALS`` trials. The one-off layout conversion (pack)
    is timed separately for every available kernel tier, and the gates
    are **pack-inclusive** ratios: numpy >= 100x over scalar, native >=
    1.5x over numpy. Each tier's corrected state is differentially
    checked against the scalar checker's on the same trials, so a
    fast-but-wrong kernel cannot pass.
    """
    grid, code = PACKED_GRID, DiagonalParityCode(PACKED_GRID)
    rng = np.random.default_rng(0)
    golden = rng.integers(0, 2, size=(PACKED_TRIALS, grid.n, grid.n),
                          dtype=np.uint8)
    # Check planes are encoded from the *golden* data, then the upsets
    # land, then the sweep decodes and corrects — the real campaign
    # order, so the differentials below exercise live corrections.
    flips = (rng.random(golden.shape) < PACKED_PROBABILITY).astype(np.uint8)
    flip_words = pack_batch(flips, kernels="numpy")

    def scalar_kernel():
        repaired = []
        for t in range(SCALAR_TRIALS):
            store = code.encode(golden[t])
            mem = CrossbarArray(grid.n, grid.n)
            mem.write_region(0, 0, golden[t] ^ flips[t])
            BlockChecker(grid, code, store).check_all(mem)
            repaired.append((mem.snapshot(), store.lead, store.ctr))
        return repaired

    t_scalar = _median_seconds(scalar_kernel) / SCALAR_TRIALS
    scalar_state = scalar_kernel()
    assert any((flips[t] != 0).any() for t in range(SCALAR_TRIALS))

    tiers = ["numpy"] + (["native"] if native_available() else [])
    per_tier = {}
    for tier_name in tiers:
        kern = get_kernels(tier_name)
        state = {}

        def kernel():
            words = pack_batch(golden, kernels=kern)
            t0 = time.perf_counter()
            lead, ctr = code.encode_batch_packed(words)
            words ^= flip_words
            check_all_batched_packed(grid, code, words, lead, ctr,
                                     PACKED_TRIALS, correct=True,
                                     kernels=kern)
            state["kernel_s"] = time.perf_counter() - t0
            state["out"] = (words, lead, ctr)

        t_pack = _median_seconds(lambda: pack_batch(golden, kernels=kern))
        kernel_times = []
        kernel()
        for _ in range(SAMPLES):
            kernel()
            kernel_times.append(state["kernel_s"])
        t_kernel = statistics.median(kernel_times)
        # Bit-identity with the scalar checker on the shared trials.
        words, lead, ctr = (unpack_batch(w, SCALAR_TRIALS, kernels=kern)
                            for w in state["out"])
        for t, (mem_t, lead_t, ctr_t) in enumerate(scalar_state):
            assert np.array_equal(words[t], mem_t)
            assert np.array_equal(lead[t], lead_t)
            assert np.array_equal(ctr[t], ctr_t)
        per_tier[tier_name] = {
            "pack_seconds": t_pack,
            "kernel_seconds": t_kernel,
            "trials_per_s": PACKED_TRIALS / (t_kernel + t_pack),
            "speedup_over_scalar":
                t_scalar * PACKED_TRIALS / t_kernel,
            "speedup_over_scalar_including_pack":
                t_scalar * PACKED_TRIALS / (t_kernel + t_pack),
        }
    native_over_numpy = (per_tier["native"]["trials_per_s"]
                         / per_tier["numpy"]["trials_per_s"]
                         if "native" in per_tier else None)

    active = get_kernels(None).name
    lines = [
        f"geometry: n={grid.n}, m={grid.m} "
        f"({grid.blocks_per_side}x{grid.blocks_per_side} blocks), "
        f"B={PACKED_TRIALS}, median of {SAMPLES} warmed samples",
        "kernel = encode check planes + full check sweep",
        f"scalar checker : {t_scalar * 1e3:8.2f} ms/trial  "
        f"({1.0 / t_scalar:10.1f} trials/s)",
    ]
    for tier_name, row in per_tier.items():
        lines += [
            f"[{tier_name}] uint64 kernel: {row['kernel_seconds']:8.3f}s"
            f"  pack: {row['pack_seconds']:8.3f}s",
            f"[{tier_name}] over scalar: "
            f"{row['speedup_over_scalar']:.0f}x kernel-only, "
            f"{row['speedup_over_scalar_including_pack']:.0f}x "
            f"including pack",
        ]
    lines += [
        f"numpy tier gate: >= {REQUIRED_SPEEDUP_OVER_SCALAR:.0f}x over "
        f"scalar, including pack",
        (f"native over numpy: {native_over_numpy:.1f}x including pack "
         f"(required >= {REQUIRED_NATIVE_OVER_NUMPY:g}x)"
         if native_over_numpy is not None
         else "native extension not built: native-vs-numpy not measured"),
        f"active tier: {active}",
    ]
    save_artifact("packed_kernel_throughput.txt", "\n".join(lines))

    active_row = per_tier[active if active in per_tier else "numpy"]
    save_json("packed_kernel_throughput", {
        "bench": "packed_kernel_throughput",
        "kernel": "encode_batch_packed + check_all_batched_packed",
        "n": grid.n, "m": grid.m, "B": PACKED_TRIALS,
        "samples": SAMPLES, "scalar_trials": SCALAR_TRIALS,
        "backend": "numpy",
        "native_available": native_available(),
        "scalar_seconds_per_trial": t_scalar,
        "scalar_trials_per_s": 1.0 / t_scalar,
        "tiers": per_tier,
        "native_over_numpy": native_over_numpy,
        "required_speedup_over_scalar": REQUIRED_SPEEDUP_OVER_SCALAR,
        "required_native_over_numpy": REQUIRED_NATIVE_OVER_NUMPY,
        # Trajectory-compatible top-level numbers = the active tier.
        "u64_seconds": active_row["kernel_seconds"],
        "u64_trials_per_s":
            PACKED_TRIALS / active_row["kernel_seconds"],
        "u64_pack_seconds": active_row["pack_seconds"],
    })

    gates = [("numpy over scalar",
              per_tier["numpy"]["speedup_over_scalar_including_pack"],
              REQUIRED_SPEEDUP_OVER_SCALAR)]
    if native_over_numpy is not None:
        gates.append(("native over numpy", native_over_numpy,
                      REQUIRED_NATIVE_OVER_NUMPY))
    for name, got, need in gates:
        if QUICK:
            print(f"[quick] {name}: {got:.1f}x inclusive "
                  f"(gate {need}x not asserted)")
            continue
        assert got >= need, (
            f"{name}: only {got:.1f}x including the pack "
            f"(required {need}x)")


def _peak_bytes(run) -> int:
    """Peak traced allocation of one ``run()`` call."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pack_fast_path_not_slower(save_artifact, save_json):
    """The numpy pack's aligned uint8 fast path beats the generic path.

    The fast path skips the ``!= 0`` bool tensor and the zero-pad copy
    when B % 64 == 0. Its peak allocation against the generic path's is
    deterministic, so it is gated at the default batch every campaign
    packs and at B=4096. Time is gated at B=4096 only: at the default
    batch its ratio follows the process's allocator state (standalone
    loops read 0.9x to 2x, campaign jobs 0.92-1.08x). The time gate is
    the median of per-pair generic/fast ratios over warmed pairs whose
    order alternates, so drift on a shared host hits both sides alike.
    """
    rng = np.random.default_rng(1)
    n = PACKED_GRID.n
    paths = {"fast": bitops.pack_words_axis0_numpy,
             "generic": bitops._pack_words_axis0_generic}
    rows, stacks = {}, {}
    for batch in PACK_PEAK_BATCHES:
        bits = stacks[batch] = rng.integers(0, 2, size=(batch, n, n),
                                            dtype=np.uint8)
        assert np.array_equal(paths["fast"](bits), paths["generic"](bits))
        peak = {name: _peak_bytes(lambda: run(bits))
                for name, run in paths.items()}
        rows[str(batch)] = {
            "fast_peak_bytes": peak["fast"],
            "generic_peak_bytes": peak["generic"],
            "peak_ratio": peak["fast"] / peak["generic"],
        }

    bits = stacks[PACK_TIMED_BATCH]
    for run in paths.values():
        run(bits)  # warm-up
    samples = {"fast": [], "generic": []}
    for i in range(PACK_PAIRS):
        order = ("fast", "generic") if i % 2 == 0 else ("generic", "fast")
        for name in order:
            t0 = time.perf_counter()
            paths[name](bits)
            samples[name].append(time.perf_counter() - t0)
    ratios = [g / f for f, g in zip(samples["fast"], samples["generic"])]
    rows[str(PACK_TIMED_BATCH)].update({
        "fast_seconds": statistics.median(samples["fast"]),
        "generic_seconds": statistics.median(samples["generic"]),
        "median_ratio": statistics.median(ratios),
        "fast_wins": sum(r > 1.0 for r in ratios),
        "pairs": PACK_PAIRS,
    })

    lines = [f"B={batch}: peak fast/generic {row['peak_ratio']:.2f} "
             f"({row['fast_peak_bytes'] / 2**20:.2f} vs "
             f"{row['generic_peak_bytes'] / 2**20:.2f} MiB)"
             for batch, row in rows.items()]
    timed = rows[str(PACK_TIMED_BATCH)]
    lines.append(
        f"B={PACK_TIMED_BATCH}: fast {timed['fast_seconds'] * 1e3:.3f} ms, "
        f"generic {timed['generic_seconds'] * 1e3:.3f} ms, median "
        f"generic/fast {timed['median_ratio']:.2f}x, fast won "
        f"{timed['fast_wins']}/{PACK_PAIRS} pairs")
    save_artifact("pack_fast_path.txt", "\n".join(lines))
    save_json("pack_fast_path", {
        "bench": "pack_fast_path",
        "n": n, "pairs": PACK_PAIRS,
        "required_median_ratio": PACK_RATIO_FLOOR,
        "required_peak_ratio": PACK_PEAK_CEILING,
        "batches": rows,
    })

    for batch, row in rows.items():
        assert row["peak_ratio"] <= PACK_PEAK_CEILING, (
            f"B={batch}: the pack fast path allocates "
            f"{row['peak_ratio']:.2f}x the generic path's peak")
    if QUICK:
        print(f"[quick] B={PACK_TIMED_BATCH}: median generic/fast "
              f"{timed['median_ratio']:.2f}x (gate {PACK_RATIO_FLOOR}x "
              f"not asserted)")
        return
    assert timed["median_ratio"] >= PACK_RATIO_FLOOR, (
        f"B={PACK_TIMED_BATCH}: the pack fast path is slower than the "
        f"generic path (median generic/fast {timed['median_ratio']:.2f}x)")
