"""Differential tests: bit-sliced logic evaluation vs the boolean path."""

import numpy as np
import pytest

from repro.circuits.registry import BENCHMARKS, build
from repro.errors import NetlistError
from repro.logic.eval import evaluate, evaluate_packed, evaluate_vectors_packed
from repro.logic.netlist import LogicNetwork
from repro.logic.verify import exhaustive_check, random_check, random_vectors
from repro.utils.bitops import pack_words, unpack_words, words_for
from repro.utils.rng import make_rng


def _ops_net():
    """One gate of every op, so the packed evaluator covers the op set."""
    net = LogicNetwork()
    a, b, s = net.input("a"), net.input("b"), net.input("s")
    net.output("and", net.and_(a, b))
    net.output("or", net.or_(a, b))
    net.output("xor", net.xor(a, b))
    net.output("xnor", net.xnor(a, b))
    net.output("nand", net.nand(a, b))
    net.output("nor", net.nor(a, b))
    net.output("not", net.not_(a))
    net.output("mux", net.mux(s, a, b))
    net.output("zero", net.const0())
    net.output("one", net.const1())
    return net


def _random_vectors(net, batch, seed=0):
    rng = make_rng(seed)
    return {name: rng.integers(0, 2, size=batch).astype(bool)
            for name in net.input_names}


class TestEvaluatePacked:
    @pytest.mark.parametrize("batch", [1, 63, 64, 65, 130])
    def test_every_op_matches_boolean_eval(self, batch):
        net = _ops_net()
        vectors = _random_vectors(net, batch, seed=batch)
        expected = evaluate(net, vectors)
        got = evaluate_vectors_packed(net, vectors)
        for name in expected:
            assert np.array_equal(got[name], expected[name]), name

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_benchmark_circuits_match(self, name):
        """Every benchmark netlist evaluates identically bit-sliced."""
        net = build(name)
        vectors = _random_vectors(net, 130, seed=17)
        expected = evaluate(net, vectors)
        got = evaluate_vectors_packed(net, vectors)
        for out in expected:
            assert np.array_equal(got[out], expected[out]), (name, out)

    def test_scalar_inputs_broadcast(self):
        net = _ops_net()
        batch = 70
        a = np.random.default_rng(0).integers(0, 2, size=batch).astype(bool)
        expected = evaluate(net, {"a": a,
                                  "b": np.ones(batch, dtype=bool),
                                  "s": np.zeros(batch, dtype=bool)})
        got = evaluate_vectors_packed(net, {"a": a, "b": True, "s": 0})
        for name in expected:
            assert np.array_equal(got[name], expected[name]), name

    def test_word_level_api_direct(self):
        """Word arrays in, word arrays out — no boolean staging."""
        net = _ops_net()
        batch = 70
        bools = _random_vectors(net, batch, seed=3)
        words = {name: pack_words(arr) for name, arr in bools.items()}
        out_words = evaluate_packed(net, words, batch)
        expected = evaluate(net, bools)
        for name, w in out_words.items():
            assert w.dtype == np.uint64
            assert w.shape == (words_for(batch),)
            assert np.array_equal(unpack_words(w, batch).astype(bool),
                                  expected[name])

    def test_shape_mismatch_rejected(self):
        net = _ops_net()
        bad = {name: np.zeros(2, dtype=np.uint64)
               for name in net.input_names}
        with pytest.raises(NetlistError):
            evaluate_packed(net, bad, batch=64)  # 64 needs 1 word, not 2

    def test_missing_input_rejected(self):
        with pytest.raises(NetlistError):
            evaluate_packed(_ops_net(), {}, batch=8)

    def test_non_uint64_arrays_rejected(self):
        """Mistyped word arrays must not silently broadcast via bool()."""
        net = _ops_net()
        for bad_value in (np.array([5]),                      # int64
                          np.ones(64, dtype=bool)):           # bool batch
            bad = {name: bad_value for name in net.input_names}
            with pytest.raises(NetlistError):
                evaluate_packed(net, bad, batch=64)

    def test_zero_d_array_broadcasts_as_scalar(self):
        net = _ops_net()
        got = evaluate_packed(
            net, {"a": np.asarray(True), "b": np.asarray(False),
                  "s": np.asarray(1)}, batch=70)
        assert unpack_words(got["and"], 70).tolist() == [0] * 70
        assert unpack_words(got["or"], 70).tolist() == [1] * 70

    def test_non_1d_batch_rejected(self):
        net = _ops_net()
        bad = {name: np.zeros((4, 2), dtype=bool)
               for name in net.input_names}
        with pytest.raises(NetlistError):
            evaluate_vectors_packed(net, bad)


class TestVerifyRouting:
    def test_random_check_packings_agree(self):
        """The bit-sliced verifier agrees with the boolean reference
        evaluator on the vectors random_check draws."""
        spec = BENCHMARKS["int2float"]
        net = build("int2float")
        assert random_check(net, spec.golden, trials=96, seed=5) is None
        vectors = random_vectors(net.input_names, 96, seed=5)
        reference = evaluate(net, vectors)
        packed = evaluate_vectors_packed(net, vectors)
        assert set(packed) == set(reference)
        for name, bits in reference.items():
            assert np.array_equal(np.asarray(packed[name], dtype=bool),
                                  np.asarray(bits, dtype=bool)), name

    def test_exhaustive_check_packed(self):
        spec = BENCHMARKS["ctrl"]
        net = build("ctrl")
        assert exhaustive_check(net, spec.golden) is None

    def test_packed_check_catches_mismatch(self):
        """The packed path must still *fail* on a wrong golden model."""
        net = _ops_net()

        def wrong_golden(bits):
            return {"and": 1 - (bits["a"] & bits["b"])}

        message = random_check(net, wrong_golden, trials=64, seed=1)
        assert message is not None and "mismatch" in message

    def test_bad_packing_rejected(self):
        """There is no layout option: any ``packing`` is refused."""
        for value in ("u8", "u64", "u16"):
            with pytest.raises(TypeError):
                random_check(_ops_net(), lambda bits: {}, packing=value)
