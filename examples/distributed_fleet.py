"""Distributed worker fleet walkthrough: one service, N workers.

The distributed layer (:mod:`repro.distributed`) lets any number of
worker processes execute one service's campaigns: the scheduler
publishes shard spans to a durable SQLite broker as hash-stamped wire
payloads, workers claim them under TTL leases, and tallies come back
through the same atomic checkpoint path local execution uses — so the
results are bit-identical no matter who ran what. This example walks
the failure modes that make the design interesting, all in one
process (workers on threads; `repro worker` runs the same loop as a
daemon):

1. a 2-worker fleet executing a campaign, verified against the
   in-process ``CampaignRunner``;
2. a worker killed mid-campaign — its abandoned lease expires,
   re-enqueues, and the fleet finishes without it;
3. wire-format protection — a tampered payload is refused terminally
   instead of mis-executing.

Run:  python examples/distributed_fleet.py
"""

import asyncio
import tempfile
import threading

from repro.distributed import (
    BrokerWorkSource,
    ShardWorker,
    SqliteBroker,
    WireFormatError,
    decode_task,
    encode_task,
)
from repro.service import (
    CampaignJobSpec,
    CampaignService,
    InjectorSpec,
    ResultStore,
    result_from_dict,
)

SPEC = CampaignJobSpec(
    n=45, m=15,
    injector=InjectorSpec("uniform", {"probability": 5e-3}),
    trials=2000, seed=7)


def start_worker(store_dir, broker_path, name, stop, lease_ttl_s=10.0):
    worker = ShardWorker(
        BrokerWorkSource(SqliteBroker(broker_path),
                         ResultStore(store_dir)),
        worker_id=name, lease_ttl_s=lease_ttl_s, poll_interval_s=0.05)
    thread = threading.Thread(target=worker.run, kwargs={"stop": stop},
                              daemon=True)
    thread.start()
    return worker, thread


async def fleet_run(store_dir: str) -> None:
    print("== 2-worker fleet vs in-process runner ==")
    async with CampaignService(store_dir, executor="thread",
                               shard_trials=256,
                               execution="distributed") as service:
        stop = threading.Event()
        workers = [start_worker(store_dir, service.broker_path,
                                f"worker-{i}", stop) for i in range(2)]
        job = await service.submit(SPEC)
        await service.wait(job.id, timeout=300)
        stop.set()
        print(f"  job {job.id}: {job.state}, "
              f"{job.shards_total} spans executed by "
              f"{[w.units_done for w, _ in workers]} (per worker)")
        got = result_from_dict(job.result)
        expected = SPEC.build_runner().run(SPEC.trials)
        assert got.as_dict() == expected.as_dict()
        print(f"  bit-identical to in-process CampaignRunner: "
              f"failure_rate={got.failure_rate:.4g}")


async def killed_worker(store_dir: str) -> None:
    print("== worker killed mid-campaign ==")
    spec = CampaignJobSpec(
        n=45, m=15, injector=InjectorSpec("uniform",
                                          {"probability": 5e-3}),
        trials=2000, seed=13)
    async with CampaignService(store_dir, executor="thread",
                               shard_trials=256,
                               execution="distributed",
                               dispatch_poll_s=0.05) as service:
        broker = SqliteBroker(service.broker_path)
        job = await service.submit(spec)

        # A doomed worker claims the first span with a 0.2 s lease and
        # is never heard from again (as if SIGKILLed mid-execution).
        doomed = None
        while doomed is None:
            doomed = await asyncio.to_thread(broker.claim, "doomed", 0.2)
            await asyncio.sleep(0.02)
        print(f"  'doomed' claimed {doomed.unit_id} and died")
        await asyncio.sleep(0.3)  # the lease expires

        stop = threading.Event()
        start_worker(store_dir, service.broker_path, "survivor", stop)
        await service.wait(job.id, timeout=300)
        stop.set()
        unit = await asyncio.to_thread(broker.unit, doomed.unit_id)
        print(f"  lease expired -> re-enqueued -> finished "
              f"(attempts={unit.attempts if unit else 'cleared'})")
        got = result_from_dict(job.result)
        assert got.as_dict() == spec.build_runner().run(spec.trials) \
            .as_dict()
        print("  tallies still bit-identical to the uninterrupted run")


def wire_protection() -> None:
    print("== wire-format protection ==")
    task = SPEC.build_runner().shard_task(0, 256)
    text = encode_task(task)
    print(f"  span {task.span} encodes to {len(text)} canonical bytes")
    tampered = text.replace('"hi":256', '"hi":512')
    try:
        decode_task(tampered)
    except WireFormatError as exc:
        print(f"  tampered payload refused: {str(exc)[:60]}...")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        asyncio.run(fleet_run(f"{tmp}/fleet"))
        asyncio.run(killed_worker(f"{tmp}/killed"))
        wire_protection()


if __name__ == "__main__":
    main()
