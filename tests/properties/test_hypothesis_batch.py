"""Property-based tests (hypothesis) for the batched campaign engine.

Invariants pinned here:

* packed batch encode agrees with the scalar per-block encoder, and a
  packed syndrome of uncorrupted data decodes to all-NO_ERROR
  (encode∘decode round-trip);
* single-bit corruption anywhere in a stacked codeword is located and
  repaired by the packed sweep;
* campaign classification is a partition: clean + corrected + detected +
  silent == trials, always, and a sequential packed campaign equals the
  scalar ``FaultCampaign`` tally for tally;
* per-trial seeding is deterministic and invariant under shard layout
  and batch size — for the uniform-SER, drift-window, and linear-burst
  injectors alike (the whole simulator family rides one engine);
* every batched kernel produces identical tallies under a non-default
  array backend (draws are host-side, so backends cannot perturb them).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import BlockGrid
from repro.core.checker import check_all_batched_packed
from repro.core.code import BATCH_NO_ERROR, DiagonalParityCode
from repro.faults import (
    BatchCampaign,
    DriftInjector,
    DriftModel,
    FaultCampaign,
    LinearBurstInjector,
    UniformInjector,
    merge_results,
)
from repro.utils.backend import TracingBackend
from repro.utils.bitpack import pack_batch, unpack_batch
from repro.utils.rng import shard_bounds, trial_rngs

#: Small geometries: (n, m) with n a multiple of odd m.
geometries = st.sampled_from([(9, 3), (15, 3), (15, 5), (25, 5)])


@st.composite
def stacked_data(draw, max_batch=70):
    n, m = draw(geometries)
    batch = draw(st.integers(1, max_batch))
    seed = draw(st.integers(0, 2 ** 31 - 1))
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 2, (batch, n, n)).astype(np.uint8)
    return BlockGrid(n, m), data


class TestBatchedCode:
    @given(stacked_data())
    @settings(max_examples=40, deadline=None)
    def test_encode_batch_matches_scalar_encode(self, gd):
        grid, data = gd
        batch = data.shape[0]
        code = DiagonalParityCode(grid)
        lead, ctr = (unpack_batch(p, batch)
                     for p in code.encode_batch_packed(pack_batch(data)))
        for i in range(batch):
            store = code.encode(data[i])
            assert (lead[i] == store.lead).all()
            assert (ctr[i] == store.ctr).all()

    @given(stacked_data())
    @settings(max_examples=40, deadline=None)
    def test_clean_syndrome_roundtrip(self, gd):
        """encode∘decode round-trip: uncorrupted stacks decode clean."""
        grid, data = gd
        batch = data.shape[0]
        code = DiagonalParityCode(grid)
        words = pack_batch(data)
        lead, ctr = code.encode_batch_packed(words)
        sweep = check_all_batched_packed(grid, code, words, lead, ctr, batch)
        assert (sweep.status_codes() == BATCH_NO_ERROR).all()
        assert sweep.clean.all()

    @given(stacked_data(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_single_flip_always_repaired(self, gd, payload):
        """One upset per stacked trial is located and reversed exactly."""
        grid, data = gd
        batch, n = data.shape[0], grid.n
        code = DiagonalParityCode(grid)
        lead, ctr = code.encode_batch_packed(pack_batch(data))
        golden = data.copy()
        for i in range(batch):
            r = payload.draw(st.integers(0, n - 1))
            c = payload.draw(st.integers(0, n - 1))
            data[i, r, c] ^= 1
        words = pack_batch(data)
        sweep = check_all_batched_packed(grid, code, words, lead, ctr, batch)
        assert (unpack_batch(words, batch) == golden).all()
        assert not sweep.uncorrectable_any.any()

    @given(stacked_data(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_single_check_bit_flip_always_repaired(self, gd, payload):
        grid, data = gd
        batch = data.shape[0]
        code = DiagonalParityCode(grid)
        words = pack_batch(data)
        lead, ctr = code.encode_batch_packed(words)
        golden_lead, golden_ctr = lead.copy(), ctr.copy()
        b = grid.blocks_per_side
        for i in range(batch):
            plane = lead if payload.draw(st.booleans()) else ctr
            d = payload.draw(st.integers(0, grid.m - 1))
            br = payload.draw(st.integers(0, b - 1))
            bc = payload.draw(st.integers(0, b - 1))
            plane[i // 64, d, br, bc] ^= np.uint64(1) << np.uint64(i % 64)
        check_all_batched_packed(grid, code, words, lead, ctr, batch)
        assert (lead == golden_lead).all()
        assert (ctr == golden_ctr).all()


class TestCampaignProperties:
    @given(geometries,
           st.floats(0.0, 0.2),
           st.integers(0, 2 ** 31 - 1),
           st.integers(1, 30),
           st.integers(1, 8))
    @settings(max_examples=25, deadline=None)
    def test_classification_partitions_trials(self, nm, p, seed, trials,
                                              batch_size):
        n, m = nm
        result = BatchCampaign(BlockGrid(n, m),
                               UniformInjector(p, seed=seed),
                               seed=seed + 1,
                               batch_size=batch_size).run(trials)
        assert result.trials == trials
        assert (result.clean + result.corrected + result.detected
                + result.silent) == trials
        assert result.clean >= 0 and result.corrected >= 0
        assert result.detected >= 0 and result.silent >= 0
        assert result.injected_faults >= 0

    @given(geometries,
           st.floats(0.0, 0.2),
           st.integers(0, 2 ** 31 - 1),
           st.integers(1, 70),
           st.integers(1, 70))
    @settings(max_examples=15, deadline=None)
    def test_packed_matches_scalar_campaign(self, nm, p, seed, trials,
                                            batch_size):
        """Sequential seeding: the packed engine is the scalar campaign."""
        grid = BlockGrid(*nm)
        scalar = FaultCampaign(grid, UniformInjector(p, seed=seed),
                               seed=seed + 1).run(trials)
        packed = BatchCampaign(grid, UniformInjector(p, seed=seed),
                               seed=seed + 1,
                               batch_size=batch_size).run(trials)
        assert packed.as_dict() == scalar.as_dict()

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 20),
           st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_shard_count_determinism(self, entropy, trials, shards,
                                     batch_size):
        """Per-trial seeding: any shard layout, same tallies."""
        grid = BlockGrid(9, 3)

        def engine(bs):
            return BatchCampaign(grid, UniformInjector(0.05, seed=0),
                                 batch_size=bs)
        whole = engine(batch_size).run_range_seeded(entropy, 0, trials)
        sharded = merge_results([
            engine(2).run_range_seeded(entropy, lo, hi)
            for lo, hi in shard_bounds(trials, shards)])
        assert whole.as_dict() == sharded.as_dict()

    @given(st.integers(0, 2 ** 31 - 1), st.integers(0, 50))
    @settings(max_examples=25)
    def test_trial_streams_reproducible(self, entropy, trial):
        a_data, a_inj = trial_rngs(entropy, trial)
        b_data, b_inj = trial_rngs(entropy, trial)
        assert (a_data.integers(0, 1000, 8) == b_data.integers(0, 1000, 8)).all()
        assert (a_inj.random(8) == b_inj.random(8)).all()


#: Injector factories spanning the whole simulator family; each takes a
#: seed so sequential campaigns are reconstructible.
INJECTOR_FAMILY = [
    lambda seed: UniformInjector(0.05, seed=seed),
    lambda seed: DriftInjector(
        DriftModel(tau_hours=150.0, beta=2.0, abrupt_fit_per_bit=5e5),
        window_hours=24.0, refresh_period_hours=6.0, seed=seed),
    lambda seed: LinearBurstInjector(2, "row", seed=seed),
]


class TestUnifiedEngineProperties:
    """The drift and burst paths obey the same engine invariants as the
    uniform-SER campaigns — one vectorized engine, one contract."""

    @given(st.integers(0, len(INJECTOR_FAMILY) - 1),
           st.integers(0, 2 ** 31 - 1), st.integers(1, 16),
           st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_shard_layout_invariance_across_family(self, which, entropy,
                                                   trials, shards,
                                                   batch_size):
        grid = BlockGrid(9, 3)
        make = INJECTOR_FAMILY[which]

        def engine(bs):
            return BatchCampaign(grid, make(0), batch_size=bs)
        whole = engine(batch_size).run_range_seeded(entropy, 0, trials)
        sharded = merge_results([
            engine(2).run_range_seeded(entropy, lo, hi)
            for lo, hi in shard_bounds(trials, shards)])
        assert whole.as_dict() == sharded.as_dict()

    @given(st.integers(0, len(INJECTOR_FAMILY) - 1),
           st.integers(0, 2 ** 31 - 1), st.integers(1, 12),
           st.integers(1, 6))
    @settings(max_examples=15, deadline=None)
    def test_backend_invariance_across_family(self, which, seed, trials,
                                              batch_size):
        grid = BlockGrid(9, 3)
        make = INJECTOR_FAMILY[which]
        default = BatchCampaign(grid, make(seed), seed=seed + 1,
                                batch_size=batch_size).run(trials)
        traced = BatchCampaign(grid, make(seed), seed=seed + 1,
                               batch_size=batch_size,
                               backend=TracingBackend()).run(trials)
        assert default.as_dict() == traced.as_dict()

    @given(st.integers(0, len(INJECTOR_FAMILY) - 1),
           st.integers(0, 2 ** 31 - 1), st.integers(1, 20),
           st.integers(1, 8))
    @settings(max_examples=15, deadline=None)
    def test_classification_partitions_across_family(self, which, seed,
                                                     trials, batch_size):
        grid = BlockGrid(9, 3)
        result = BatchCampaign(grid, INJECTOR_FAMILY[which](seed),
                               seed=seed + 1,
                               batch_size=batch_size).run(trials)
        assert result.trials == trials
        assert (result.clean + result.corrected + result.detected
                + result.silent) == trials
