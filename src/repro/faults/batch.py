"""Batched Monte-Carlo campaign engine.

The scalar :class:`repro.faults.campaign.FaultCampaign` runs one trial at
a time: fresh crossbar, encode, inject, full Python-loop check sweep.
That loop is the slowest path in the repo (the Sec. V-A binomial-model
validation and the MTTF benches all sit on it). This module runs ``B``
trials as bit-sliced word tensors instead (see "Packed bit-slice
layout" below):

* data fill        — per-trial ``(n, n)`` draws staged host-side, then
  packed 64 trials per ``uint64`` word into a ``(W, n, n)`` stack;
* check planes     — ``(W, rk, b, b)`` word stacks, one per code plane
  (:meth:`repro.core.registry.BlockCode.encode_batch_packed`; the
  default diagonal code stores the leading/counter pair);
* injection        — :meth:`repro.faults.injector.FaultInjector
  .inject_batch_planes_packed`, flat ground-truth event arrays;
* check sweep      — :meth:`repro.core.registry.BlockCode
  .check_batched_packed`, one bit-parallel syndrome/decode/correct pass
  over every block of every trial;
* classification   — golden compare + word popcounts into the same
  :class:`repro.faults.campaign.CampaignResult` tallies the scalar
  campaign produces.

Seeding + sharding contract
===========================

The engine has two seeding modes, selected by ``seeding=``:

``"sequential"`` (default for single-process runs)
    The campaign seed feeds one data-fill stream and the injector keeps
    its own stream, both consumed trial by trial in scalar order. A
    sequential batched run is **bit-for-bit identical** to
    ``FaultCampaign(grid, injector, seed).run(trials)`` with the same
    seeds, for any ``batch_size`` — the per-trial draws are issued as
    separate generator calls precisely so chunking can never change the
    stream. This mode cannot be sharded (shard ``k`` would need shard
    ``k-1``'s stream position).

``"per-trial"`` (default and required for multi-process runs)
    Trial ``i`` derives its own :class:`numpy.random.SeedSequence` child
    ``SeedSequence(entropy, spawn_key=(i,))`` from the campaign's root
    entropy and splits it into a data-fill stream and an injection
    stream. Because the mapping depends only on ``(entropy, i)``, the
    tallies are invariant under the shard layout: any ``workers`` count,
    any ``batch_size``, and any contiguous partition of the trial range
    produce identical results. The scalar replay of the same contract is
    :func:`run_reference`, which drives ``FaultCampaign.run_trial`` with
    the same per-trial streams — the differential harness in
    ``tests/faults/test_batch_equivalence.py`` pins both equivalences.

Sharding uses a ``concurrent.futures`` process pool: trials are split
into contiguous ranges (:func:`repro.utils.rng.shard_bounds`), each
worker rebuilds the engine from a picklable :class:`ShardTask` (grid
geometry, injector, entropy, backend name) and runs its range in
``batch_size`` chunks. Peak memory per worker is dominated by the
host-side ``uint8`` staging of the draws, about ``batch_size * n**2``
bytes (the packed data and golden words add an eighth of that each), so
large-``n`` sweeps should lower ``batch_size`` rather than trials.

Service-sharded execution
-------------------------

The campaign service (:mod:`repro.service`) executes submitted jobs by
materializing the *same* :class:`ShardTask` spans a sharded
:class:`CampaignRunner` builds — there is no third execution path.
Both contracts therefore extend verbatim to service execution:

* a service job always runs under **per-trial seeding** (sequential
  streams cannot be split into relocatable spans), so its merged
  tallies are a pure function of ``(spec, entropy)`` — independent of
  the service's shard size, worker count, scheduling order,
  interruptions, and checkpoint/resume boundaries;
* because :func:`run_shard_task` tallies depend only on
  ``(entropy, lo, hi)`` and the engine configuration, a shard span
  completed before a crash can be persisted and *reused* after a
  restart: merging checkpointed spans with freshly executed ones (in
  ``lo`` order, via :func:`merge_results`) is bit-identical to an
  uninterrupted run, which is in turn bit-identical to an in-process
  ``CampaignRunner.run`` with the same entropy — for any registered
  backend and kernel tier. The differential suite
  ``tests/service/`` pins service-executed == in-process results.

The same purity is what makes spans *relocatable across hosts*: the
distributed layer (:mod:`repro.distributed`) serializes a
:class:`ShardTask` to versioned, hash-stamped JSON (:meth:`to_dict` /
:meth:`from_dict`, injector configs via
:mod:`repro.faults.serialize`), ships it through a lease broker to any
``repro worker`` process, and merges the returned tallies through the
identical checkpoint path — so distributed results are bit-identical
too, including after worker deaths and lease re-enqueues
(``tests/distributed/`` pins this).

Array backends
==============

All tensor arithmetic dispatches through an
:class:`repro.utils.backend.ArrayBackend` handle (``backend=`` on
:class:`BatchCampaign` / :class:`CampaignRunner`, default numpy or
``$REPRO_BACKEND``). Random draws are *always* host-side numpy and cross
onto the backend via staging, so both seeding contracts above are
backend-independent: a sequential run under any backend produces the
same tallies as the numpy run, bit for bit, as long as the backend's
arithmetic is exact (integer/boolean ops are, on every supported
backend).

Orthogonally, ``kernels=`` selects the host-side kernel tier
(:mod:`repro.utils.kernels`: pure numpy, or the optional compiled
extension) for the word-level hot loops. Tiers are
bit-identical by contract, engage only when the resolved backend's
arrays are plain numpy, and — like the backend — cross process
boundaries by resolved *name* on every :class:`ShardTask`, so sharded,
service, and distributed executions record exactly which tier computed
each span and fail loudly on a worker that cannot provide it.

Packed bit-slice layout
=======================

The engine's only tensor layout is the bit slice of
:mod:`repro.utils.bitpack`: the batch dimension is packed 64 trials per
``uint64`` word, so ``B`` trials of ``(n, n)`` cells become a
``(ceil(B/64), n, n)`` word stack and every XOR/AND/OR kernel op
processes 64 trials at once. The scalar engine stays the oracle.

* **Word layout:** trial ``i`` occupies bit ``i % 64`` (little-endian:
  bit ``j`` of a word is ``(word >> j) & 1``) of word ``i // 64``.
* **Tail padding:** when ``B % 64 != 0`` the surplus bits of the last
  word are zero in every state tensor (data words, check planes) and
  are never written by injection or correction (all flip masks are ANDs
  of zero-padded state); derived masks built with complements may carry
  garbage there, so every unpacking consumer trims to the true ``B``.
* **Seeding is layout-free:** random fields are drawn host-side per
  trial *before* packing, and injector draws are converted to flip
  events before they touch the words. Both seeding contracts above
  therefore hold for the packed engine: a sequential run is
  bit-identical to the scalar ``FaultCampaign`` and a per-trial run is
  shard-layout invariant, for any ``B % 64`` remainder. The
  differential suite ``tests/faults/test_packed_equivalence.py`` pins
  packed == scalar across the injector family.

Every simulator in the library rides this engine: uniform/burst/check-bit
SER campaigns, the drift-window campaigns of
:class:`repro.faults.drift.DriftInjector`, and the linear-burst survival
analysis of :mod:`repro.reliability.burst` all dispatch through
:class:`CampaignRunner`, inheriting batching, sharding, adaptive
sampling (:meth:`CampaignRunner.run_adaptive`), backend and kernel-tier
selection.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.blocks import BlockGrid
from repro.core.code import BATCH_UNCORRECTABLE
from repro.core.registry import build_code, check_stack, code_names, \
    encode_stack
from repro.utils.bitpack import (
    or_reduce_words,
    pack_batch,
    popcount_words,
)
from repro.faults.campaign import CampaignResult, FaultCampaign
from repro.faults.injector import FaultInjector
from repro.obs import metrics as obs_metrics
from repro.obs.trace import PhaseProfile
from repro.utils.backend import (
    ArrayBackend,
    BackendLike,
    available_backends,
    get_backend,
)
from repro.utils.kernels import KernelsLike, get_kernels
from repro.utils.rng import (
    SeedLike,
    make_rng,
    resolve_entropy,
    shard_bounds,
    spawn_rngs,
    trial_rngs,
)
from repro.utils.stats import wilson_interval

#: Default trials per vectorized block (one packed word of trials).
DEFAULT_BATCH_SIZE = 64

#: The campaign phases the engine's profiler times per block (the
#: worker/scheduler add ``checkpoint_write`` at the persistence layer).
PROFILE_PHASES = ("fill", "pack", "encode", "inject", "decode_sweep",
                  "tally")

_SHARD_RUNS = obs_metrics.counter(
    "repro_shard_tasks_total",
    "Shard-task executions, by kernel tier / code.",
    ("kernels", "code"))
_SHARD_SECONDS = obs_metrics.histogram(
    "repro_shard_seconds",
    "Wall seconds per shard-task execution.", ("kernels",))
_PHASE_SECONDS = obs_metrics.counter(
    "repro_shard_phase_seconds_total",
    "Cumulative seconds spent per campaign phase (profiled shards).",
    ("phase",))


def derive_campaign_seeds(seed: SeedLike, seeding: Optional[str],
                          workers: int) -> tuple:
    """Split one user seed into ``(campaign_seed, injector_seed)``.

    The helper for simulator entry points that wrap a single ``seed``
    around a :class:`CampaignRunner` (burst survival, drift survival):

    * per-trial mode (``seeding="per-trial"`` or ``workers > 1``): the
      engine derives both streams per trial from the root entropy, so
      the seed passes through as the campaign seed and the injector's
      own stream is never consumed (``None``);
    * sequential mode: the seed is split into independent data-fill and
      injection generators by ``SeedSequence`` spawning
      (:func:`repro.utils.rng.spawn_rngs`) — deterministic for any
      integral seed, loud for a live ``Generator``.
    """
    if seeding == "per-trial" or workers > 1:
        return seed, None
    campaign_rng, injector_rng = spawn_rngs(seed, 2)
    return campaign_rng, injector_rng


def merge_results(results: Sequence[CampaignResult]) -> CampaignResult:
    """Sum campaign tallies (shards of one run, or repeated runs)."""
    out = CampaignResult()
    for r in results:
        out.trials += r.trials
        out.clean += r.clean
        out.corrected += r.corrected
        out.detected += r.detected
        out.silent += r.silent
        out.injected_faults += r.injected_faults
        out.blocks_with_multi_faults += r.blocks_with_multi_faults
    return out


class BatchCampaign:
    """Vectorized inject-check-verify engine over stacked trials.

    Produces the same :class:`CampaignResult` tallies as the scalar
    :class:`FaultCampaign` (see the module docstring for the exact
    equivalence contract per seeding mode).
    """

    def __init__(self, grid: BlockGrid, injector: FaultInjector,
                 seed: SeedLike = None, include_check_bits: bool = True,
                 batch_size: int = DEFAULT_BATCH_SIZE,
                 backend: BackendLike = None,
                 code: str = "diagonal", kernels: KernelsLike = None,
                 profile: Optional[PhaseProfile] = None):
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.grid = grid
        self.injector = injector
        self.rng = make_rng(seed)
        self.include_check_bits = include_check_bits
        self.batch_size = batch_size
        self.backend = get_backend(backend)
        self.code_name = code
        self.code = build_code(code, grid)
        self.kernels = get_kernels(kernels)
        #: Optional per-phase nanosecond accumulator (observability).
        #: Timestamps are read unconditionally in the block path — two
        #: ``perf_counter_ns`` calls per phase — but only stored when a
        #: profile is attached, so the None case stays branch-cheap and
        #: the tallies are identical either way.
        self.profile = profile

    # ------------------------------------------------------------------ #
    # Public entry points
    # ------------------------------------------------------------------ #

    def run(self, trials: int) -> CampaignResult:
        """Sequential-seeding run: bit-identical to ``FaultCampaign.run``.

        The campaign stream fills trial data in order and the injector
        consumes its own stream in order, so the result does not depend
        on ``batch_size``.
        """
        chunks = []
        done = 0
        while done < trials:
            batch = min(self.batch_size, trials - done)
            chunks.append(self._run_block(batch, data_rngs=None,
                                          inject_rngs=None))
            done += batch
        return merge_results(chunks)

    def run_range_seeded(self, entropy: int, lo: int, hi: int) -> CampaignResult:
        """Per-trial-seeded run of trials ``[lo, hi)`` under ``entropy``.

        The building block of sharded campaigns: results depend only on
        ``(entropy, lo, hi)``, never on how ranges are grouped into
        shards or chunked into batches.
        """
        chunks = []
        start = lo
        while start < hi:
            batch = min(self.batch_size, hi - start)
            pairs = [trial_rngs(entropy, i) for i in range(start, start + batch)]
            chunks.append(self._run_block(
                batch,
                data_rngs=[p[0] for p in pairs],
                inject_rngs=[p[1] for p in pairs]))
            start += batch
        return merge_results(chunks)

    # ------------------------------------------------------------------ #
    # Vectorized core
    # ------------------------------------------------------------------ #

    def _run_block(self, batch: int,
                   data_rngs: Optional[Sequence[np.random.Generator]],
                   inject_rngs: Optional[Sequence[np.random.Generator]],
                   ) -> CampaignResult:
        """One stacked block of ``batch`` trials.

        ``data_rngs``/``inject_rngs`` of ``None`` select sequential mode
        (campaign stream + injector's own stream). Random fields are
        drawn per trial — never as one ``(B, ...)`` draw — because
        numpy's bounded-integer generation buffers bits within a call;
        only per-trial calls keep the stream identical to the scalar
        engine for every chunking.

        The staged draws are then packed 64 trials per word and run
        through the packed encode / inject / check kernels — every
        per-trial tensor op becomes a word op over 64 trials.
        Classification stays in the packed domain end to end: the golden
        compare OR-reduces difference words, the faulty-trial flags are
        the packed ``totals != 0`` mask, and the four tallies fall out of
        word popcounts — no state tensor is ever unpacked.
        """
        n = self.grid.n
        be = self.backend
        kern = self.kernels
        t_fill = perf_counter_ns()
        stage = np.empty((batch, n, n), dtype=np.uint8)
        if data_rngs is None:
            for i in range(batch):
                stage[i] = self.rng.integers(0, 2, size=(n, n),
                                             dtype=np.uint8)
        else:
            for i, rng in enumerate(data_rngs):
                stage[i] = rng.integers(0, 2, size=(n, n), dtype=np.uint8)
        t0 = perf_counter_ns()
        words = pack_batch(stage, backend=be, kernels=kern)
        t1 = perf_counter_ns()

        planes = self.code.encode_batch_packed(words, backend=be)
        golden = words.copy()
        golden_planes = tuple(p.copy() for p in planes)
        t2 = perf_counter_ns()

        injection = self.injector.inject_batch_planes_packed(
            batch, words, planes if self.include_check_bits else (),
            rngs=inject_rngs, backend=be)
        t3 = perf_counter_ns()

        sweep = self.code.check_batched_packed(words, planes, batch,
                                               correct=True, backend=be,
                                               kernels=kern)
        t4 = perf_counter_ns()

        damaged = or_reduce_words(words ^ golden, axis=(1, 2), backend=be)
        for p, g in zip(planes, golden_planes):
            damaged = damaged | or_reduce_words(p ^ g, axis=(1, 2, 3),
                                                backend=be)
        # Word-level tallies. ``faulty`` packs the host-side ground-truth
        # totals (zero-padded tail), so ANDing with it also clears any
        # tail garbage the complements below would otherwise admit;
        # ``uncorrectable`` is built from zero-padded syndromes and needs
        # no extra masking beyond that same AND.
        totals = injection.totals
        faulty = pack_batch(totals != 0, backend=be, kernels=kern)
        uncorrectable = or_reduce_words(sweep.decode.uncorrectable,
                                        axis=(1, 2), backend=be)
        corrected = faulty & ~damaged
        detected = faulty & damaged & uncorrectable
        silent = faulty & damaged & ~uncorrectable

        def count(mask_words) -> int:
            return int(be.to_numpy(popcount_words(
                mask_words, backend=be, kernels=kern)).sum())

        n_faulty = count(faulty)
        result = CampaignResult(
            trials=batch,
            clean=batch - n_faulty,
            corrected=count(corrected),
            detected=count(detected),
            silent=count(silent),
            injected_faults=int(totals.sum()),
            blocks_with_multi_faults=int(
                injection.multi_fault_blocks(self.grid).sum()),
        )
        if self.profile is not None:
            profile = self.profile
            profile.add("fill", t0 - t_fill)
            profile.add("pack", t1 - t0)
            profile.add("encode", t2 - t1)
            profile.add("inject", t3 - t2)
            profile.add("decode_sweep", t4 - t3)
            profile.add("tally", perf_counter_ns() - t4)
        return result


# ---------------------------------------------------------------------- #
# Work-unit shard layer
# ---------------------------------------------------------------------- #

@dataclass(frozen=True)
class ShardTask:
    """Picklable description of one per-trial-seeded trial span.

    The unit of sharded campaign execution: everything a worker process
    needs to rebuild the engine and run trials ``[lo, hi)`` under the
    per-trial seeding contract. Because the contract makes the tallies a
    pure function of ``(entropy, lo, hi)`` and the engine configuration,
    a ``ShardTask`` can run anywhere — this process, a local pool
    worker, or a remote service worker — and :func:`merge_results` over
    any contiguous partition of a trial range reproduces the unsharded
    run exactly. The backend crosses process boundaries by registered
    *name* (module handles do not pickle) and is re-resolved where the
    task runs.
    """

    n: int
    m: int
    injector: FaultInjector
    entropy: int
    lo: int
    hi: int
    include_check_bits: bool = True
    batch_size: int = DEFAULT_BATCH_SIZE
    backend_name: str = "numpy"
    code: str = "diagonal"
    kernels_name: str = "numpy"

    @property
    def trials(self) -> int:
        """Trial count of this span."""
        return self.hi - self.lo

    @property
    def span(self) -> tuple[int, int]:
        """The half-open trial range ``(lo, hi)``."""
        return (self.lo, self.hi)

    # -- serialization hooks (the distributed wire format builds on
    # these; see repro.distributed.wire for the versioned envelope) ---- #

    def to_dict(self) -> dict:
        """Plain-JSON form of this task.

        Requires an injector with a declarative config
        (:meth:`FaultInjector.to_config`); the config — not the live
        object — crosses the wire, so a worker rebuilds an injector
        that is behaviourally identical under per-trial seeding.
        """
        return {
            "n": self.n, "m": self.m,
            "injector": self.injector.to_config(),
            "entropy": self.entropy, "lo": self.lo, "hi": self.hi,
            "include_check_bits": self.include_check_bits,
            "batch_size": self.batch_size,
            "backend_name": self.backend_name,
            "code": self.code,
            "kernels_name": self.kernels_name,
        }

    @staticmethod
    def from_dict(data: dict) -> "ShardTask":
        """Rebuild a task from :meth:`to_dict` output (inverse)."""
        from repro.faults.serialize import build_injector
        expected = {"n", "m", "injector", "entropy", "lo", "hi",
                    "include_check_bits", "batch_size", "backend_name",
                    "code", "kernels_name"}
        missing = sorted(expected - set(data))
        unknown = sorted(set(data) - expected)
        if missing or unknown:
            raise ValueError(f"malformed shard task: missing fields "
                             f"{missing}, unknown fields {unknown}")
        return ShardTask(
            n=int(data["n"]), m=int(data["m"]),
            injector=build_injector(data["injector"]),
            entropy=int(data["entropy"]),
            lo=int(data["lo"]), hi=int(data["hi"]),
            include_check_bits=bool(data["include_check_bits"]),
            batch_size=int(data["batch_size"]),
            backend_name=str(data["backend_name"]),
            code=str(data["code"]),
            kernels_name=str(data["kernels_name"]))


def run_shard_task(task: ShardTask) -> CampaignResult:
    """Execute one :class:`ShardTask`: rebuild the engine, run its span.

    The worker entry point of both the process-pool shard layer and the
    campaign service (:mod:`repro.service`).
    """
    return run_shard_task_profiled(task)[0]


def run_shard_task_profiled(task: ShardTask
                            ) -> Tuple[CampaignResult, Dict[str, int]]:
    """:func:`run_shard_task` plus the per-phase timing profile.

    Returns ``(result, {phase: ns})``. The profile covers the engine
    phases in :data:`PROFILE_PHASES`; it is empty when observability is
    disabled (:func:`repro.obs.set_enabled`). The tallies are the same
    object either way — profiling reads clocks around the existing
    statements, never reorders them — so the bit-identity differential
    suites hold for both entry points. Picklable at module level like
    :func:`run_shard_task`, so process pools can return the pair.
    """
    try:
        backend = get_backend(task.backend_name)
    except ValueError as exc:
        raise ValueError(
            f"backend {task.backend_name!r} is not registered inside this "
            f"worker process; with a spawn-based pool start method the "
            f"register_backend() call must run at import time of a "
            f"module the worker imports (e.g. next to the injector "
            f"definition), not interactively in the parent") from exc
    try:
        kernels = get_kernels(task.kernels_name)
    except ValueError as exc:
        raise ValueError(
            f"kernel tier {task.kernels_name!r} is not registered inside "
            f"this worker process; with a spawn-based pool start method "
            f"the register_kernels() call must run at import time of a "
            f"module the worker imports, not interactively in the "
            f"parent") from exc
    profile = PhaseProfile() if obs_metrics.is_enabled() else None
    engine = BatchCampaign(BlockGrid(task.n, task.m), task.injector,
                           include_check_bits=task.include_check_bits,
                           batch_size=task.batch_size,
                           backend=backend, code=task.code,
                           kernels=kernels,
                           profile=profile)
    t0 = perf_counter_ns()
    result = engine.run_range_seeded(task.entropy, task.lo, task.hi)
    elapsed_ns = perf_counter_ns() - t0
    phases = profile.as_dict() if profile is not None else {}
    _SHARD_RUNS.inc(kernels=kernels.name, code=task.code)
    _SHARD_SECONDS.observe(elapsed_ns / 1e9, kernels=kernels.name)
    for phase, ns in phases.items():
        _PHASE_SECONDS.inc(ns / 1e9, phase=phase)
    return result, phases


def run_reference(grid: BlockGrid, injector: FaultInjector, entropy: int,
                  trials: int, include_check_bits: bool = True,
                  code: str = "diagonal") -> CampaignResult:
    """Scalar replay of a per-trial-seeded batched run.

    For the diagonal code this drives :meth:`FaultCampaign.run_trial`
    with exactly the per-trial streams the batched engine derives from
    ``entropy``; other registered codes replay the same streams through
    the code's per-block ``encode_block``/``decode_block`` pair. Either
    way this is the reference side of the differential harness. Slow by
    construction; use for verification, not production sweeps.
    """
    if code == "diagonal":
        campaign = FaultCampaign(grid, injector,
                                 include_check_bits=include_check_bits)
        out = CampaignResult()
        for i in range(trials):
            data_rng, inject_rng = trial_rngs(entropy, i)
            kind, faults, multi = campaign.run_trial(data_rng=data_rng,
                                                     inject_rng=inject_rng)
            out.trials += 1
            out.injected_faults += faults
            out.blocks_with_multi_faults += multi
            setattr(out, kind, getattr(out, kind) + 1)
        return out
    return _run_reference_code(grid, injector, entropy, trials,
                               include_check_bits, code)


def _run_reference_code(grid: BlockGrid, injector: FaultInjector,
                        entropy: int, trials: int, include_check_bits: bool,
                        code: str) -> CampaignResult:
    """Per-block Python replay for non-diagonal registry codes.

    Consumes exactly the per-trial streams of the batched engine — data
    fill first, then the injector's :meth:`FaultInjector._draw_batch`
    with the code's plane shapes — and decodes block by block through
    :meth:`repro.core.registry.BlockCode.decode_block`
    (:func:`repro.core.registry.check_stack`).
    """
    blockcode = build_code(code, grid)
    n = grid.n
    shapes = blockcode.plane_shapes if include_check_bits else None
    out = CampaignResult()
    for i in range(trials):
        data_rng, inject_rng = trial_rngs(entropy, i)
        # One-trial stacks: the stack reference's leading axis.
        data = data_rng.integers(0, 2, size=(1, n, n), dtype=np.uint8)
        planes = encode_stack(blockcode, data)
        golden = data.copy()
        golden_planes = [p.copy() for p in planes]

        injection = injector._draw_batch(1, (n, n), shapes, [inject_rng])
        if injection.trial.size:
            np.bitwise_xor.at(data[0], (injection.rows, injection.cols), 1)
        for p in range(len(planes)):
            sel = injection.check_plane == p
            if sel.any():
                np.bitwise_xor.at(
                    planes[p][0], (injection.check_d[sel],
                                   injection.check_br[sel],
                                   injection.check_bc[sel]), 1)

        status = check_stack(blockcode, data, planes, correct=True)
        uncorrectable = bool((status == BATCH_UNCORRECTABLE).any())

        restored = bool(np.array_equal(data, golden)) and all(
            np.array_equal(p, g) for p, g in zip(planes, golden_planes))
        faults = int(injection.totals[0])
        multi = int(injection.multi_fault_blocks(grid)[0])
        if faults == 0:
            kind = "clean"
        elif restored:
            kind = "corrected"
        elif uncorrectable:
            kind = "detected"
        else:
            kind = "silent"
        out.trials += 1
        out.injected_faults += faults
        out.blocks_with_multi_faults += multi
        setattr(out, kind, getattr(out, kind) + 1)
    return out


@dataclass(frozen=True)
class AdaptiveRunResult:
    """Outcome of an adaptive (CI-early-stopped) campaign run.

    ``result`` holds the merged tallies of every round actually run;
    ``ci_low``/``ci_high`` bracket the failure rate at ``confidence`` via
    the Wilson score interval, and ``converged`` reports whether the
    half-width reached ``tolerance`` before ``max_trials``.
    """

    result: CampaignResult
    tolerance: float
    confidence: float
    halfwidth: float
    ci_low: float
    ci_high: float
    rounds: int
    converged: bool

    @property
    def trials(self) -> int:
        return self.result.trials

    @property
    def failure_rate(self) -> float:
        return self.result.failure_rate


class CampaignRunner:
    """Facade over the scalar reference and the batched/sharded engines.

    Parameters
    ----------
    grid, injector, seed, include_check_bits:
        As for :class:`FaultCampaign`.
    engine:
        ``"batched"`` (default) or ``"scalar"`` (the reference
        implementation, unchanged).
    batch_size:
        Trials per vectorized block (memory/speed trade-off).
    workers:
        Process count for sharded runs. ``workers > 1`` requires (and
        ``seeding="per-trial"`` provides) shard-invariant per-trial
        seeding; the seed must then be an integer or ``None``.
    seeding:
        ``"sequential"`` | ``"per-trial"`` | ``None`` (auto: sequential
        for one worker, per-trial otherwise). See the module docstring
        for the exact reproducibility contract of each mode.
    backend:
        Array backend for the vectorized engine — an
        :class:`repro.utils.backend.ArrayBackend`, a registered name, or
        ``None`` (``$REPRO_BACKEND`` / numpy). Sharded runs rebuild the
        backend in each worker from its registered name, so unregistered
        ad-hoc instances are limited to ``workers == 1`` — and with a
        spawn-based pool start method (macOS/Windows default) a custom
        name must be registered at import time of a module workers
        import; built-in names always resolve.
    code:
        Registered block-code name (:func:`repro.core.registry
        .code_names`); default ``"diagonal"``. The scalar engine is the
        diagonal reference implementation, so ``engine="scalar"``
        requires the default.
    kernels:
        Host-side kernel tier for the word-level hot loops — a
        :class:`repro.utils.kernels.KernelTier`, a registered name, or
        ``None`` (``$REPRO_KERNELS`` / auto). Resolved eagerly to a
        concrete tier; sharded runs ship the **resolved name** to each
        worker (like the backend name), so a worker without the compiled
        extension fails loudly instead of silently switching code paths.
        Tiers are bit-identical — this only affects throughput.
    """

    def __init__(self, grid: BlockGrid, injector: FaultInjector,
                 seed: SeedLike = None, include_check_bits: bool = True,
                 engine: str = "batched",
                 batch_size: int = DEFAULT_BATCH_SIZE,
                 workers: int = 1, seeding: Optional[str] = None,
                 backend: BackendLike = None,
                 code: str = "diagonal", kernels: KernelsLike = None):
        if engine not in ("batched", "scalar"):
            raise ValueError(f"engine must be 'batched' or 'scalar', "
                             f"got {engine!r}")
        if code not in code_names():
            raise ValueError(f"unknown code {code!r}; registered codes: "
                             f"{code_names()}")
        if engine == "scalar" and code != "diagonal":
            raise ValueError("the scalar engine is the diagonal reference "
                             "implementation; non-diagonal codes require "
                             "engine='batched' (run_reference replays them "
                             "in scalar form)")
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        if seeding is None:
            seeding = "sequential" if workers == 1 else "per-trial"
        if seeding not in ("sequential", "per-trial"):
            raise ValueError(f"seeding must be 'sequential' or 'per-trial', "
                             f"got {seeding!r}")
        if seeding == "sequential" and workers > 1:
            raise ValueError("sequential seeding cannot be sharded; use "
                             "seeding='per-trial' for workers > 1")
        if engine == "scalar" and (workers > 1 or seeding == "per-trial"):
            raise ValueError("the scalar engine only supports sequential "
                             "single-process runs; use run_reference() to "
                             "replay a per-trial-seeded run")
        self.grid = grid
        self.injector = injector
        self.include_check_bits = include_check_bits
        self.engine = engine
        self.batch_size = batch_size
        self.workers = workers
        self.seeding = seeding
        self.backend = get_backend(backend)
        self.code = code
        self.kernels = get_kernels(kernels)
        if workers > 1:
            if self.backend.name not in available_backends():
                raise ValueError(
                    f"backend {self.backend.name!r} is not registered; "
                    f"sharded runs rebuild the backend by name in each "
                    f"worker — register_backend() it or run with workers=1")
            if isinstance(backend, ArrayBackend) \
                    and get_backend(backend.name) is not backend:
                # An ad-hoc instance shadowing a registered name would
                # silently mix backends: workers re-resolve the name to
                # the registered one while in-process spans use the
                # instance.
                raise ValueError(
                    f"backend instance {backend.name!r} is not the "
                    f"registered instance of that name; sharded runs "
                    f"re-resolve backends by name in each worker, so "
                    f"pass the name (backend={backend.name!r}) or run "
                    f"with workers=1")
        if seeding == "per-trial":
            self.entropy: Optional[int] = resolve_entropy(seed)
            self._seed: SeedLike = None
        else:
            self.entropy = None
            self._seed = seed

    def _make_engine(self):
        """Fresh engine honouring this runner's configuration."""
        if self.engine == "scalar":
            return FaultCampaign(
                self.grid, self.injector, seed=self._seed,
                include_check_bits=self.include_check_bits)
        return BatchCampaign(
            self.grid, self.injector, seed=self._seed,
            include_check_bits=self.include_check_bits,
            batch_size=self.batch_size, backend=self.backend,
            code=self.code, kernels=self.kernels)

    def _run_span(self, lo: int, hi: int,
                  pool: Optional[ProcessPoolExecutor] = None
                  ) -> CampaignResult:
        """Per-trial-seeded trials ``[lo, hi)``, sharded across workers.

        ``pool`` reuses a caller-managed executor (the adaptive loop runs
        many spans and should not respawn workers per round); ``None``
        creates one for this span when sharding is needed.
        """
        bounds = [(lo + a, lo + b)
                  for a, b in shard_bounds(hi - lo, self.workers)]
        if self.workers == 1 or len(bounds) <= 1:
            engine = BatchCampaign(self.grid, self.injector,
                                   include_check_bits=self.include_check_bits,
                                   batch_size=self.batch_size,
                                   backend=self.backend, code=self.code,
                                   kernels=self.kernels)
            return merge_results([engine.run_range_seeded(self.entropy, a, b)
                                  for a, b in bounds])
        tasks = [self.shard_task(a, b) for a, b in bounds]
        if pool is not None:
            return merge_results(list(pool.map(run_shard_task, tasks)))
        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            shards = list(pool.map(run_shard_task, tasks))
        return merge_results(shards)

    def shard_task(self, lo: int, hi: int) -> ShardTask:
        """The :class:`ShardTask` for trials ``[lo, hi)`` of this runner.

        Requires per-trial seeding (the only mode whose spans are
        relocatable); the campaign service uses this to turn one
        submitted job into independently executable work units.
        """
        if self.seeding != "per-trial":
            raise ValueError("shard tasks require seeding='per-trial'; "
                             "sequential streams cannot be split into "
                             "independent spans")
        return ShardTask(self.grid.n, self.grid.m, self.injector,
                         self.entropy, lo, hi,
                         include_check_bits=self.include_check_bits,
                         batch_size=self.batch_size,
                         backend_name=self.backend.name, code=self.code,
                         kernels_name=self.kernels.name)

    def run(self, trials: int) -> CampaignResult:
        """Run ``trials`` trials on the configured engine."""
        if self.seeding == "sequential":
            return self._make_engine().run(trials)
        return self._run_span(0, trials)

    def run_adaptive(self, tolerance: float, confidence: float = 0.95,
                     max_trials: int = 1_000_000,
                     initial_trials: int = 256,
                     growth: float = 2.0) -> AdaptiveRunResult:
        """Run until the failure-rate CI is tight enough (or the cap).

        Trials are issued in rounds of deterministic size — the schedule
        ``initial_trials, initial_trials * growth, ...`` (truncated at
        ``max_trials``) depends only on the arguments, never on observed
        tallies — and after each round the Wilson score interval of the
        failure rate (``detected + silent`` over trials) is evaluated at
        ``confidence``; the run stops once its half-width is at most
        ``tolerance``.

        Reproducibility: because the schedule is deterministic and each
        round extends the same trial sequence (sequential modes continue
        one engine's streams; per-trial mode runs trial ranges under the
        root entropy), the merged tallies equal a plain ``run`` of the
        same total — and therefore depend only on the seed and the
        stopping point, not on how rounds were grouped. In per-trial
        mode the result is additionally invariant under ``workers`` and
        ``batch_size``, like every other per-trial-seeded run.
        """
        if tolerance <= 0:
            raise ValueError(f"tolerance must be positive, got {tolerance}")
        if not 0.0 < confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), "
                             f"got {confidence}")
        if max_trials <= 0:
            raise ValueError(f"max_trials must be positive, got {max_trials}")
        if initial_trials <= 0:
            raise ValueError(f"initial_trials must be positive, "
                             f"got {initial_trials}")
        if growth < 1.0:
            raise ValueError(f"growth must be >= 1, got {growth}")

        pool: Optional[ProcessPoolExecutor] = None
        if self.seeding == "sequential":
            engine = self._make_engine()

            def run_span(lo: int, hi: int) -> CampaignResult:
                return engine.run(hi - lo)
        else:
            if self.workers > 1:
                # One executor across every round — adaptive sweeps run
                # many spans and must not respawn workers per round.
                pool = ProcessPoolExecutor(max_workers=self.workers)

            def run_span(lo: int, hi: int) -> CampaignResult:
                return self._run_span(lo, hi, pool=pool)

        try:
            total = CampaignResult()
            done = 0
            rounds = 0
            step = initial_trials
            while True:
                take = min(step, max_trials - done)
                total = merge_results([total, run_span(done, done + take)])
                done += take
                rounds += 1
                failures = total.detected + total.silent
                low, high = wilson_interval(failures, total.trials,
                                            confidence)
                halfwidth = (high - low) / 2.0
                converged = halfwidth <= tolerance
                if converged or done >= max_trials:
                    return AdaptiveRunResult(
                        result=total, tolerance=tolerance,
                        confidence=confidence, halfwidth=halfwidth,
                        ci_low=low, ci_high=high, rounds=rounds,
                        converged=converged)
                step = max(1, int(step * growth))
        finally:
            if pool is not None:
                pool.shutdown()

    def run_reference(self, trials: int) -> CampaignResult:
        """Scalar replay of this runner's per-trial-seeded contract."""
        if self.seeding != "per-trial":
            raise ValueError("run_reference replays per-trial seeding; "
                             "sequential runs are already bit-identical to "
                             "FaultCampaign.run")
        return run_reference(self.grid, self.injector, self.entropy, trials,
                             self.include_check_bits, code=self.code)
