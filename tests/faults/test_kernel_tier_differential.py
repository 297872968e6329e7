"""Differential suite: kernel tiers are invisible in campaign tallies.

The compiled tier only changes throughput — every registered code's
packed campaign must produce bit-identical tallies under ``numpy`` and
``native`` kernels, through every execution surface: in-process
engines, shard tasks (which carry the resolved tier name on the wire,
like the backend name), and sharded worker execution. Native halves
skip cleanly when the extension is not built; the tier-plumbing tests
run everywhere.
"""

import pytest

from repro.core.blocks import BlockGrid
from repro.distributed.wire import decode_task, encode_task
from repro.faults.batch import (
    BatchCampaign,
    CampaignRunner,
    ShardTask,
    run_reference,
    run_shard_task,
)
from repro.faults.injector import UniformInjector
from repro.utils.kernels import get_kernels, native_available

ALL_CODES = ("diagonal", "rowcol", "hsiao", "hamming_ext")

needs_native = pytest.mark.skipif(
    not native_available(),
    reason="compiled repro._native._kernels extension not built")


def _runner(code, kernels, seed=4321, **kwargs):
    kwargs.setdefault("seeding", "per-trial")
    return CampaignRunner(BlockGrid(15, 5), UniformInjector(0.02),
                          seed=seed, code=code, kernels=kernels, **kwargs)


@needs_native
class TestNativeTallies:
    @pytest.mark.parametrize("code", ALL_CODES)
    def test_packed_campaign_matches_numpy_tier(self, code):
        ref = _runner(code, kernels="numpy").run(96)
        got = _runner(code, kernels="native").run(96)
        assert got.as_dict() == ref.as_dict()

    @pytest.mark.parametrize("code", ALL_CODES)
    def test_ragged_tail_trials(self, code):
        """70 trials: the last word's tail lanes are padding."""
        ref = _runner(code, kernels="numpy").run(70)
        got = _runner(code, kernels="native").run(70)
        assert got.as_dict() == ref.as_dict()

    def test_native_matches_scalar_reference(self):
        """The tier is invisible against the scalar oracle too."""
        grid = BlockGrid(15, 5)
        injector = UniformInjector(0.02)
        expected = run_reference(grid, injector, entropy=4321, trials=96)
        got = _runner("diagonal", kernels="native").run(96)
        assert got.as_dict() == expected.as_dict()

    def test_sequential_engine_matches(self):
        """BatchCampaign's sequential mode under an explicit handle.

        The injector is seeded: sequential mode gives it its own
        stream, so an unseeded injector would differ between any two
        engines regardless of tier.
        """
        def tallies(tier):
            engine = BatchCampaign(BlockGrid(15, 3),
                                   UniformInjector(0.02, seed=7),
                                   seed=9, kernels=get_kernels(tier))
            return engine.run(128).as_dict()

        assert tallies("native") == tallies("numpy")

    def test_shard_task_executes_identically(self):
        numpy_task = _runner("hsiao", kernels="numpy").shard_task(0, 96)
        native_task = _runner("hsiao", kernels="native").shard_task(0, 96)
        assert numpy_task.kernels_name == "numpy"
        assert native_task.kernels_name == "native"
        assert run_shard_task(native_task).as_dict() == \
            run_shard_task(numpy_task).as_dict()

    def test_wire_round_trip_preserves_tier(self):
        task = _runner("rowcol", kernels="native").shard_task(0, 64)
        revived = decode_task(encode_task(task))
        assert revived.kernels_name == "native"
        assert run_shard_task(revived).as_dict() == \
            run_shard_task(task).as_dict()


class TestTierPlumbing:
    def test_runner_resolves_concrete_tier(self):
        """Shard payloads must carry a concrete name, never 'auto'."""
        runner = _runner("diagonal", kernels=None)
        assert runner.kernels.name in ("numpy", "native")
        task = runner.shard_task(0, 32)
        assert task.kernels_name == runner.kernels.name

    def test_task_dict_round_trip(self):
        task = _runner("diagonal", kernels="numpy").shard_task(0, 32)
        data = task.to_dict()
        assert data["kernels_name"] == "numpy"
        assert ShardTask.from_dict(data).kernels_name == "numpy"

    def test_missing_kernels_field_is_malformed(self):
        data = _runner("diagonal", kernels="numpy").shard_task(0, 8).to_dict()
        del data["kernels_name"]
        with pytest.raises(ValueError, match="malformed shard task"):
            ShardTask.from_dict(data)

    def test_unknown_tier_on_task_fails_loudly(self):
        task = _runner("diagonal", kernels="numpy").shard_task(0, 8)
        data = task.to_dict()
        data["kernels_name"] = "fpga"
        with pytest.raises(ValueError, match="not registered inside this "
                                             "worker"):
            run_shard_task(ShardTask.from_dict(data))

    def test_sharded_run_ships_tier_and_merges(self):
        """Two worker processes, numpy tier pinned: same tallies as one."""
        solo = _runner("diagonal", kernels="numpy").run(128)
        sharded = _runner("diagonal", kernels="numpy", workers=2).run(128)
        assert sharded.as_dict() == solo.as_dict()
