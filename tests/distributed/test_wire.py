"""Wire format: lossless round-trip, strict refusal of everything else.

The distributed layer's correctness rests on a worker executing
*exactly* the task the dispatcher described — so the encoding must
round-trip to behaviourally identical engines, and any payload from a
different revision (or damaged in transit) must be refused, never
guessed at.
"""

import json

import pytest

from repro.distributed.wire import (
    WIRE_VERSION,
    WireFormatError,
    decode_task,
    encode_task,
    task_from_wire_dict,
    task_wire_dict,
)
from repro.core.blocks import BlockGrid
from repro.faults.batch import ShardTask, run_reference, run_shard_task
from repro.faults.drift import DriftInjector, DriftModel
from repro.faults.injector import (
    BurstInjector,
    CheckBitInjector,
    DeterministicInjector,
    LinearBurstInjector,
    UniformInjector,
)
from repro.faults.serialize import build_injector, injector_kinds
from repro.utils.canonical import content_hash

INJECTORS = {
    "uniform": UniformInjector(2e-3, include_check_bits=False),
    "burst": BurstInjector(strikes=2, radius=1, neighbor_probability=0.25),
    "linear_burst": LinearBurstInjector(3, orientation="col"),
    "check_bit": CheckBitInjector(1e-3),
    "drift": DriftInjector(
        DriftModel(tau_hours=200.0, beta=2.0, abrupt_fit_per_bit=1e5),
        24.0, refresh_period_hours=6.0),
}


def make_task(injector, **overrides) -> ShardTask:
    fields = dict(n=15, m=3, injector=injector, entropy=11, lo=32, hi=96,
                  batch_size=64)
    fields.update(overrides)
    return ShardTask(**fields)


class TestInjectorConfigs:
    def test_every_registered_kind_has_a_round_trip(self):
        assert set(INJECTORS) == set(injector_kinds())
        for kind, injector in INJECTORS.items():
            config = injector.to_config()
            assert config["kind"] == kind
            rebuilt = build_injector(config)
            assert rebuilt.to_config() == config

    def test_deterministic_injector_refuses_serialization(self):
        with pytest.raises(TypeError, match="no declarative config"):
            DeterministicInjector([(0, 0)]).to_config()

    def test_unknown_kind_and_params_rejected(self):
        with pytest.raises(ValueError, match="unknown injector kind"):
            build_injector({"kind": "cosmic_ray", "params": {}})
        with pytest.raises(ValueError, match="does not accept"):
            build_injector({"kind": "uniform",
                            "params": {"probability": 1e-3, "zap": 1}})
        with pytest.raises(ValueError, match="requires parameter"):
            build_injector({"kind": "uniform", "params": {}})


class TestRoundTrip:
    @pytest.mark.parametrize("kind", sorted(INJECTORS))
    def test_decoded_task_executes_identically(self, kind):
        task = make_task(INJECTORS[kind])
        rebuilt = decode_task(encode_task(task))
        assert rebuilt.span == task.span
        assert run_shard_task(rebuilt).as_dict() == \
            run_shard_task(task).as_dict()

    def test_encoding_is_canonical(self):
        """Byte-identical text regardless of construction order."""
        a = make_task(UniformInjector(2e-3))
        b = make_task(UniformInjector(2e-3))
        assert encode_task(a) == encode_task(b)

    def test_packed_layout_survives(self):
        """A decoded task runs the packed engine to the scalar replay's
        tallies, ragged last word included (70 trials)."""
        injector = INJECTORS["burst"]
        task = make_task(injector, lo=0, hi=70)
        rebuilt = decode_task(encode_task(task))
        assert "packing" not in task_wire_dict(rebuilt)["task"]
        assert run_shard_task(rebuilt).as_dict() == run_reference(
            BlockGrid(15, 3), injector, entropy=11, trials=70).as_dict()


class TestRefusals:
    def test_version_four_envelope_refused(self):
        """A well-formed v4 envelope (it carried ``packing``) is refused
        on its version, before the body is read."""
        body = make_task(INJECTORS["uniform"]).to_dict()
        body["packing"] = "u64"
        env = {"format": "repro/shard-task", "version": 4, "task": body,
               "digest": content_hash({"format": "repro/shard-task",
                                       "version": 4, "task": body})}
        with pytest.raises(WireFormatError, match="wire version 4"):
            task_from_wire_dict(env)
        # Restamping it as the current version still cannot smuggle the
        # dropped field through.
        env["version"] = WIRE_VERSION
        env["digest"] = content_hash({"format": "repro/shard-task",
                                      "version": WIRE_VERSION,
                                      "task": body})
        with pytest.raises(WireFormatError, match="packing"):
            task_from_wire_dict(env)

    def test_version_mismatch(self):
        env = task_wire_dict(make_task(INJECTORS["uniform"]))
        env["version"] = WIRE_VERSION + 1
        with pytest.raises(WireFormatError, match="wire version"):
            task_from_wire_dict(env)

    def test_digest_mismatch_on_tampered_body(self):
        env = task_wire_dict(make_task(INJECTORS["uniform"]))
        env["task"]["hi"] += 64  # silently widening the span
        with pytest.raises(WireFormatError, match="digest mismatch"):
            task_from_wire_dict(env)

    def test_wrong_format_name(self):
        with pytest.raises(WireFormatError, match="not a shard-task"):
            task_from_wire_dict({"format": "repro/other", "version": 1})

    def test_not_json(self):
        with pytest.raises(WireFormatError, match="not JSON"):
            decode_task("{torn...")

    def test_missing_and_unknown_fields(self):
        env = task_wire_dict(make_task(INJECTORS["uniform"]))
        body = dict(env["task"])
        del body["entropy"]
        body["extra"] = 1
        env["task"] = body
        env["digest"] = json.loads(encode_task(
            make_task(INJECTORS["uniform"])))["digest"]
        # digest no longer matches the altered body -> refused before
        # field validation even runs
        with pytest.raises(WireFormatError):
            task_from_wire_dict(env)

    def test_non_dict_payload(self):
        with pytest.raises(WireFormatError, match="must be an object"):
            task_from_wire_dict([1, 2, 3])
