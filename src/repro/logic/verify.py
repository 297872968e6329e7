"""Equivalence checking of logic networks against golden models.

Golden models are plain Python callables mapping an input-bit dict to an
output-bit dict (the :mod:`repro.circuits.golden` functions). Verification
is randomized (batched numpy evaluation) with an exhaustive mode for small
input counts; both are used by the circuit unit tests and by
:func:`equivalence_check` to validate NOR mapping and SIMPLER execution.

``LogicNetwork`` vectors are evaluated bit-sliced: assignment batches
are packed 64 per ``uint64`` word and each gate evaluates with one word
op per 64 assignments (:func:`repro.logic.eval.evaluate_packed`), with
results bit-identical to the boolean reference
:func:`repro.logic.eval.evaluate`. ``NorNetlist`` evaluation keeps its
own boolean implementation.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional

import numpy as np

from repro.logic.eval import evaluate_vectors_packed
from repro.logic.netlist import LogicNetwork
from repro.logic.norlist import NorNetlist
from repro.utils.rng import SeedLike, make_rng

GoldenFn = Callable[[Dict[str, int]], Dict[str, int]]


def _evaluate_vectors(net: LogicNetwork | NorNetlist,
                      vectors: Mapping[str, np.ndarray]
                      ) -> Mapping[str, np.ndarray]:
    """Evaluate a boolean vector batch (bit-sliced for networks)."""
    if isinstance(net, NorNetlist):
        return net.evaluate(vectors)
    return evaluate_vectors_packed(net, vectors)


def random_vectors(input_names, trials: int, seed: SeedLike = None) -> Dict[str, np.ndarray]:
    """Uniform random boolean assignment batch for the named inputs."""
    rng = make_rng(seed)
    return {name: rng.integers(0, 2, size=trials).astype(bool)
            for name in input_names}


def _compare_batches(result: Mapping[str, np.ndarray],
                     golden_fn: GoldenFn,
                     vectors: Mapping[str, np.ndarray],
                     trials: int) -> Optional[str]:
    input_names = list(vectors.keys())
    for t in range(trials):
        assignment = {name: int(vectors[name][t]) for name in input_names}
        expected = golden_fn(assignment)
        for out_name, exp in expected.items():
            got = int(result[out_name][t])
            if got != int(exp):
                return (f"mismatch at trial {t}: output {out_name!r} "
                        f"got {got}, expected {int(exp)} "
                        f"(inputs {assignment})")
    return None


def random_check(net: LogicNetwork | NorNetlist, golden_fn: GoldenFn,
                 trials: int = 64, seed: SeedLike = 0) -> Optional[str]:
    """Random equivalence check; returns None or a mismatch description."""
    names = net.input_names
    vectors = random_vectors(names, trials, seed)
    result = _evaluate_vectors(net, vectors)
    return _compare_batches(result, golden_fn, vectors, trials)


def exhaustive_check(net: LogicNetwork | NorNetlist, golden_fn: GoldenFn,
                     max_inputs: int = 16) -> Optional[str]:
    """Exhaustive equivalence check for networks with few inputs."""
    names = net.input_names
    k = len(names)
    if k > max_inputs:
        raise ValueError(f"{k} inputs is too many for exhaustive checking")
    total = 1 << k
    vectors = {name: np.zeros(total, dtype=bool) for name in names}
    for v in range(total):
        for i, name in enumerate(names):
            vectors[name][v] = bool((v >> i) & 1)
    result = _evaluate_vectors(net, vectors)
    return _compare_batches(result, golden_fn, vectors, total)


def equivalence_check(net: LogicNetwork | NorNetlist, golden_fn: GoldenFn,
                      trials: int = 64, seed: SeedLike = 0,
                      exhaustive_threshold: int = 10) -> None:
    """Assert-style check: raises AssertionError with diagnostics on failure.

    Uses exhaustive enumeration when the input count is at most
    ``exhaustive_threshold``, randomized vectors otherwise.
    """
    if len(net.input_names) <= exhaustive_threshold:
        message = exhaustive_check(net, golden_fn)
    else:
        message = random_check(net, golden_fn, trials, seed)
    if message is not None:
        raise AssertionError(f"{getattr(net, 'name', 'network')}: {message}")
