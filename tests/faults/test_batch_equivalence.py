"""Differential harness: batched campaign engine vs the scalar reference.

Two equivalence contracts are pinned here (see the ``repro.faults.batch``
module docstring):

* **sequential seeding** — ``BatchCampaign.run`` is bit-for-bit identical
  to ``FaultCampaign.run`` for the same (campaign seed, injector seed),
  for every injector model, geometry and batch size;
* **per-trial seeding** — sharded runs are invariant under batch size,
  shard layout and worker count, and identical to the scalar replay
  (``run_reference``) of the same per-trial streams.
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
    FaultCampaign,
    UniformInjector,
    merge_results,
)
from repro.xbar.crossbar import CrossbarArray

GEOMETRIES = [(9, 3), (15, 5), (45, 15)]


def _pair(injector_factory, grid, trials, batch_size, seed=42,
          include_check_bits=True):
    """(scalar, batched) tallies for identically-seeded campaigns."""
    scalar = FaultCampaign(grid, injector_factory(), seed=seed,
                           include_check_bits=include_check_bits).run(trials)
    batched = BatchCampaign(grid, injector_factory(), seed=seed,
                            include_check_bits=include_check_bits,
                            batch_size=batch_size).run(trials)
    return scalar.as_dict(), batched.as_dict()


class TestSequentialEquivalence:
    @pytest.mark.parametrize("n,m", GEOMETRIES)
    @pytest.mark.parametrize("p", [0.0, 0.002, 0.02, 0.1])
    def test_uniform_matches_scalar(self, n, m, p):
        s, b = _pair(lambda: UniformInjector(p, seed=7), BlockGrid(n, m),
                     trials=24, batch_size=7)
        assert s == b

    @pytest.mark.parametrize("n,m", GEOMETRIES)
    def test_burst_matches_scalar(self, n, m):
        s, b = _pair(lambda: BurstInjector(strikes=2, radius=1,
                                           neighbor_probability=0.6, seed=3),
                     BlockGrid(n, m), trials=20, batch_size=6)
        assert s == b

    @pytest.mark.parametrize("n,m", GEOMETRIES)
    def test_check_bit_matches_scalar(self, n, m):
        s, b = _pair(lambda: CheckBitInjector(0.03, seed=5), BlockGrid(n, m),
                     trials=20, batch_size=9)
        assert s == b

    def test_deterministic_matches_scalar(self, small_grid):
        s, b = _pair(lambda: DeterministicInjector(
            [(0, 0), (2, 3), (7, 7)],
            check_flips=[("counter", 2, 1, 1), ("leading", 0, 0, 0)]),
            small_grid, trials=5, batch_size=2)
        assert s == b

    def test_duplicate_flips_match_scalar(self, small_grid):
        """A cell listed twice flips twice (net zero) on both engines."""
        s, b = _pair(lambda: DeterministicInjector([(4, 4), (4, 4), (1, 2)]),
                     small_grid, trials=4, batch_size=3)
        assert s == b

    def test_exclude_check_bits_matches_scalar(self, small_grid):
        s, b = _pair(lambda: UniformInjector(0.05, seed=11), small_grid,
                     trials=20, batch_size=8, include_check_bits=False)
        assert s == b

    @pytest.mark.parametrize("batch_size", [1, 3, 16, 64])
    def test_batch_size_never_changes_tallies(self, small_grid, batch_size):
        """Per-trial draws make chunking invisible to the stream."""
        reference = BatchCampaign(small_grid, UniformInjector(0.02, seed=1),
                                  seed=2, batch_size=5).run(30).as_dict()
        other = BatchCampaign(small_grid, UniformInjector(0.02, seed=1),
                              seed=2, batch_size=batch_size).run(30).as_dict()
        assert reference == other

    def test_runner_scalar_engine_is_reference(self, small_grid):
        runner = CampaignRunner(small_grid, UniformInjector(0.02, seed=9),
                                seed=3, engine="scalar")
        direct = FaultCampaign(small_grid, UniformInjector(0.02, seed=9),
                               seed=3).run(15)
        assert runner.run(15).as_dict() == direct.as_dict()


class TestPerTrialSeeding:
    def test_matches_scalar_replay(self, small_grid):
        runner = CampaignRunner(small_grid, UniformInjector(0.02, seed=0),
                                seed=123, seeding="per-trial", batch_size=7)
        assert runner.run(30).as_dict() == \
            runner.run_reference(30).as_dict()

    @pytest.mark.parametrize("splits", [[(0, 30)], [(0, 13), (13, 30)],
                                        [(0, 1), (1, 2), (2, 30)]])
    def test_shard_layout_invariant(self, small_grid, splits):
        def engine():
            return BatchCampaign(small_grid, UniformInjector(0.03, seed=0),
                                 batch_size=4)
        whole = engine().run_range_seeded(entropy=99, lo=0, hi=30)
        sharded = merge_results([engine().run_range_seeded(99, lo, hi)
                                 for lo, hi in splits])
        assert whole.as_dict() == sharded.as_dict()

    def test_worker_count_invariant_inline(self, small_grid):
        results = [
            CampaignRunner(small_grid, UniformInjector(0.02, seed=0),
                           seed=55, seeding="per-trial", workers=1,
                           batch_size=6).run(24).as_dict()
        ]
        # workers > 1 exercises the process pool end to end.
        results.append(
            CampaignRunner(small_grid, UniformInjector(0.02, seed=0),
                           seed=55, workers=2, batch_size=6)
            .run(24).as_dict())
        assert results[0] == results[1]

    def test_burst_per_trial_matches_replay(self, tiny_grid):
        runner = CampaignRunner(
            tiny_grid, BurstInjector(1, 1, 0.5, seed=0), seed=8,
            seeding="per-trial")
        assert runner.run(20).as_dict() == \
            runner.run_reference(20).as_dict()

    def test_generator_seed_rejected(self, small_grid):
        import numpy as np
        with pytest.raises(ValueError):
            CampaignRunner(small_grid, UniformInjector(0.01, seed=0),
                           seed=np.random.default_rng(0),
                           seeding="per-trial")


class TestInjectorGroundTruth:
    """Event-level equivalence: ``inject_batch_packed`` ground truth,
    viewed per trial through ``result_of``, must equal ``B`` scalar
    ``inject`` calls on the same stream — flip for flip, in order."""

    @pytest.mark.parametrize("make_injector", [
        lambda: UniformInjector(0.03, seed=13),
        lambda: BurstInjector(strikes=2, radius=1,
                              neighbor_probability=0.5, seed=13),
        lambda: CheckBitInjector(0.04, seed=13),
        lambda: DeterministicInjector([(1, 1), (1, 1), (4, 2)],
                                      check_flips=[("leading", 0, 1, 1)]),
    ])
    def test_batched_events_match_scalar_events(self, small_grid,
                                                make_injector):
        n, m = small_grid.n, small_grid.m
        b = small_grid.blocks_per_side
        trials = 6

        scalar_injector = make_injector()
        scalar_results = []
        for _ in range(trials):
            mem = CrossbarArray(n, n)
            store = CheckStore(small_grid)
            scalar_results.append(scalar_injector.inject(mem, store))

        batch_injector = make_injector()
        data = np.zeros((1, n, n), dtype=np.uint64)
        lead = np.zeros((1, m, b, b), dtype=np.uint64)
        ctr = np.zeros((1, m, b, b), dtype=np.uint64)
        batched = batch_injector.inject_batch_packed(trials, data, lead, ctr)

        for i, expected in enumerate(scalar_results):
            got = batched.result_of(i)
            assert got.data_flips == expected.data_flips
            assert got.check_flips == expected.check_flips


@pytest.mark.slow
class TestLargeScaleDifferential:
    """Heavy sweeps excluded from tier-1 (select with ``-m slow``)."""

    def test_long_campaign_matches_scalar(self):
        grid = BlockGrid(45, 15)
        s, b = _pair(lambda: UniformInjector(5e-3, seed=1), grid,
                     trials=300, batch_size=64)
        assert s == b

    def test_process_pool_at_scale(self):
        grid = BlockGrid(45, 15)
        tallies = [
            CampaignRunner(grid, UniformInjector(5e-3, seed=0), seed=77,
                           workers=w, seeding="per-trial",
                           batch_size=50).run(600).as_dict()
            for w in (1, 4)]
        assert tallies[0] == tallies[1]


class TestRunnerValidation:
    def test_bad_engine(self, small_grid):
        with pytest.raises(ValueError):
            CampaignRunner(small_grid, UniformInjector(0.01), engine="gpu")

    def test_sequential_cannot_shard(self, small_grid):
        with pytest.raises(ValueError):
            CampaignRunner(small_grid, UniformInjector(0.01),
                           seeding="sequential", workers=2)

    def test_scalar_engine_cannot_shard(self, small_grid):
        with pytest.raises(ValueError):
            CampaignRunner(small_grid, UniformInjector(0.01),
                           engine="scalar", workers=2)

    def test_reference_requires_per_trial(self, small_grid):
        runner = CampaignRunner(small_grid, UniformInjector(0.01), seed=0)
        with pytest.raises(ValueError):
            runner.run_reference(5)
