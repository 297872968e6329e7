"""Differential harness: the packed (u64) campaign engine vs the scalar.

The batched engine packs 64 trials per uint64 word; with identical
seeds it must be bit-for-bit identical to the scalar reference under
both seeding contracts, for the whole injector family, and for batch
sizes that leave a ``B % 64`` tail. ``u8`` in test names is the scalar
engine, which holds each trial as a uint8 crossbar.
"""

import numpy as np
import pytest

from repro.core.blocks import BlockGrid
from repro.core.checkstore import CheckStore
from repro.faults import (
    BatchCampaign,
    BurstInjector,
    CampaignRunner,
    CheckBitInjector,
    DeterministicInjector,
    DriftInjector,
    DriftModel,
    FaultCampaign,
    LinearBurstInjector,
    UniformInjector,
    merge_results,
)
from repro.xbar.crossbar import CrossbarArray

#: Hot drift model: plenty of flips, so corrections actually happen.
DRIFT_MODEL = DriftModel(tau_hours=2e5, beta=2.0, abrupt_fit_per_bit=1e4)

INJECTOR_FAMILY = [
    pytest.param(lambda: UniformInjector(0.03, seed=13), id="uniform"),
    pytest.param(lambda: BurstInjector(strikes=2, radius=1,
                                       neighbor_probability=0.5, seed=13),
                 id="burst"),
    pytest.param(lambda: LinearBurstInjector(2, seed=13), id="linear-burst"),
    pytest.param(lambda: CheckBitInjector(0.04, seed=13), id="check-bit"),
    pytest.param(lambda: DriftInjector(DRIFT_MODEL, 24.0, 6.0, seed=13),
                 id="drift"),
    pytest.param(lambda: DeterministicInjector(
        [(1, 1), (1, 1), (4, 2)], check_flips=[("leading", 0, 1, 1)]),
        id="deterministic"),
]


def _pair(injector_factory, grid, trials, batch_size, seed=42,
          include_check_bits=True):
    """(scalar, packed) tallies for identically-seeded campaigns."""
    scalar = FaultCampaign(grid, injector_factory(), seed=seed,
                           include_check_bits=include_check_bits).run(trials)
    packed = BatchCampaign(grid, injector_factory(), seed=seed,
                           include_check_bits=include_check_bits,
                           batch_size=batch_size).run(trials)
    return scalar.as_dict(), packed.as_dict()


class TestSequentialPackingEquivalence:
    @pytest.mark.parametrize("make_injector", INJECTOR_FAMILY)
    def test_injector_family_u64_matches_u8(self, small_grid, make_injector):
        scalar, packed = _pair(make_injector, small_grid, trials=24,
                               batch_size=7)
        assert scalar == packed

    @pytest.mark.parametrize("n,m", [(9, 3), (15, 5)])
    @pytest.mark.parametrize("p", [0.0, 0.02, 0.1])
    def test_uniform_across_geometries(self, n, m, p):
        scalar, packed = _pair(lambda: UniformInjector(p, seed=7),
                               BlockGrid(n, m), trials=30, batch_size=9)
        assert scalar == packed

    @pytest.mark.parametrize("trials", [1, 63, 64, 65, 70, 130])
    def test_word_tail_batches(self, small_grid, trials):
        """B % 64 != 0 must not change a single tally (padding rule)."""
        scalar, packed = _pair(lambda: UniformInjector(0.05, seed=3),
                               small_grid, trials=trials,
                               batch_size=trials)
        assert scalar == packed

    @pytest.mark.parametrize("batch_size", [1, 3, 64, 100])
    def test_batch_size_never_changes_packed_tallies(self, small_grid,
                                                     batch_size):
        reference = BatchCampaign(small_grid, UniformInjector(0.02, seed=1),
                                  seed=2, batch_size=5).run(30).as_dict()
        other = BatchCampaign(small_grid, UniformInjector(0.02, seed=1),
                              seed=2, batch_size=batch_size).run(30).as_dict()
        assert reference == other

    def test_packed_matches_scalar_reference(self, small_grid):
        """Packed == FaultCampaign with chunks that split the 64-bit word."""
        scalar = FaultCampaign(small_grid, UniformInjector(0.05, seed=9),
                               seed=5).run(40).as_dict()
        packed = BatchCampaign(small_grid, UniformInjector(0.05, seed=9),
                               seed=5, batch_size=13).run(40).as_dict()
        assert scalar == packed

    def test_exclude_check_bits(self, small_grid):
        scalar, packed = _pair(lambda: UniformInjector(0.05, seed=11),
                               small_grid, trials=20, batch_size=8,
                               include_check_bits=False)
        assert scalar == packed

    def test_duplicate_flips_cancel_in_packed_layout(self, small_grid):
        """A cell listed twice flips twice (net zero) in the word layout."""
        scalar, packed = _pair(
            lambda: DeterministicInjector([(4, 4), (4, 4), (1, 2)]),
            small_grid, trials=4, batch_size=3)
        assert scalar == packed


class TestPerTrialPackingEquivalence:
    def test_matches_scalar_replay(self, small_grid):
        runner = CampaignRunner(small_grid, UniformInjector(0.02, seed=0),
                                seed=123, seeding="per-trial", batch_size=7)
        assert runner.run(30).as_dict() == runner.run_reference(30).as_dict()

    @pytest.mark.parametrize("splits", [[(0, 70)], [(0, 13), (13, 70)],
                                        [(0, 1), (1, 64), (64, 70)]])
    def test_shard_layout_invariant(self, small_grid, splits):
        def engine():
            return BatchCampaign(small_grid, UniformInjector(0.03, seed=0),
                                 batch_size=4)
        whole = engine().run_range_seeded(entropy=99, lo=0, hi=70)
        sharded = merge_results([engine().run_range_seeded(99, lo, hi)
                                 for lo, hi in splits])
        assert whole.as_dict() == sharded.as_dict()

    def test_packing_invariant_per_trial(self, small_grid):
        """Same entropy, trials packed into words differently: identical
        tallies, equal to the scalar replay."""
        tallies = [
            CampaignRunner(small_grid, UniformInjector(0.02, seed=0),
                           seed=55, seeding="per-trial",
                           batch_size=batch_size).run(70).as_dict()
            for batch_size in (6, 64, 70)]
        reference = CampaignRunner(
            small_grid, UniformInjector(0.02, seed=0), seed=55,
            seeding="per-trial").run_reference(70).as_dict()
        assert tallies == [reference] * 3

    def test_worker_count_invariant(self, small_grid):
        results = [
            CampaignRunner(small_grid, UniformInjector(0.02, seed=0),
                           seed=55, seeding="per-trial", workers=w,
                           batch_size=6).run(24).as_dict()
            for w in (1, 2)]  # workers=2 ships the task through the pool
        assert results[0] == results[1]


class TestPackedSimulators:
    def test_drift_survival_packed(self, small_grid):
        from repro.reliability.drift_analysis import simulate_drift_survival
        kwargs = dict(model=DRIFT_MODEL, window_hours=24.0,
                      refresh_period_hours=6.0, trials=20, seed=3,
                      batch_size=7)
        scalar = simulate_drift_survival(small_grid, engine="scalar",
                                         **kwargs)
        packed = simulate_drift_survival(small_grid, **kwargs)
        assert scalar.as_dict() == packed.as_dict()

    def test_burst_survival_packed(self, small_grid):
        from repro.reliability.burst import simulate_burst_survival
        scalar = simulate_burst_survival(small_grid, 2, 40, seed=4,
                                         engine="scalar")
        packed = simulate_burst_survival(small_grid, 2, 40, seed=4)
        assert scalar == packed

    def test_adaptive_packed_matches_u8(self, small_grid):
        def run(engine):
            return CampaignRunner(
                small_grid, UniformInjector(0.05, seed=1), seed=7,
                batch_size=16, engine=engine).run_adaptive(
                    tolerance=0.2, initial_trials=32,
                    max_trials=128).result.as_dict()
        assert run("scalar") == run("batched")


class TestPackingValidation:
    """The packed layout is the only one: no ``packing`` option exists."""

    def test_bad_packing_rejected(self, small_grid):
        for packing in ("u8", "u64", "u32"):
            with pytest.raises(TypeError):
                BatchCampaign(small_grid, UniformInjector(0.01),
                              packing=packing)
            with pytest.raises(TypeError):
                CampaignRunner(small_grid, UniformInjector(0.01),
                               packing=packing)

    def test_scalar_engine_rejects_packed(self, small_grid):
        with pytest.raises(TypeError):
            CampaignRunner(small_grid, UniformInjector(0.01),
                           engine="scalar", packing="u64")


class TestPackedInjectorGroundTruth:
    """inject_batch_packed must produce the same event stream and the
    same tensor effect as one scalar inject() per trial — word layout
    only changes how the flips land, never what they are."""

    @pytest.mark.parametrize("make_injector", INJECTOR_FAMILY)
    def test_events_and_tensors_match(self, small_grid, make_injector):
        import repro.utils.bitpack as bitpack
        n, m = small_grid.n, small_grid.m
        b = small_grid.blocks_per_side
        trials = 70  # straddles the word boundary

        inj8 = make_injector()
        data8 = np.zeros((trials, n, n), dtype=np.uint8)
        lead8 = np.zeros((trials, m, b, b), dtype=np.uint8)
        ctr8 = np.zeros((trials, m, b, b), dtype=np.uint8)
        res8 = []
        for i in range(trials):
            mem = CrossbarArray(n, n)
            store = CheckStore(small_grid)
            res8.append(inj8.inject(mem, store))
            data8[i], lead8[i], ctr8[i] = mem.snapshot(), store.lead, \
                store.ctr

        inj64 = make_injector()
        nwords = bitpack.words_for(trials)
        data64 = np.zeros((nwords, n, n), dtype=np.uint64)
        lead64 = np.zeros((nwords, m, b, b), dtype=np.uint64)
        ctr64 = np.zeros((nwords, m, b, b), dtype=np.uint64)
        res64 = inj64.inject_batch_packed(trials, data64, lead64, ctr64)

        for i in range(trials):
            a, c = res8[i], res64.result_of(i)
            assert a.data_flips == c.data_flips
            assert a.check_flips == c.check_flips
        assert np.array_equal(bitpack.unpack_batch(data64, trials), data8)
        assert np.array_equal(bitpack.unpack_batch(lead64, trials), lead8)
        assert np.array_equal(bitpack.unpack_batch(ctr64, trials), ctr8)
