"""Host-speed calibration: a fixed kernel timed next to the program.

The benchmark runs on small shared hosts whose CPU speed moves by a
quarter or more within minutes and by a tenth or more from one second
to the next (on the 2-core KVM guest it was tuned on, process CPU time
moves with wall time, so the slowdown is the core itself, not steal).
A wall-clock number from one run then says as much about the host's
phase as about the program.

So the in-process campaign times one call of this kernel right after
every job, and reports each job's time scaled by ``REFERENCE_S`` over
that call's time: the job's time at the reference host speed.
``trials_per_s`` and ``job_latency_p50_s`` come from the scaled times.
``run.py`` likewise times a few calls just before it spawns each
in-process cold start and scales that ``setup_s`` sample. The raw
numbers and the run's median factor are printed on the line before the
result. The kernel does the kind of work the program does
(per-trial seeded numpy draws over ``(n, n)`` planes, XOR and diagonal
parity sweeps, JSON records and a SHA-256 digest) but none of the
program's code, so a change to the program cannot move it.
"""
from __future__ import annotations

import hashlib
import json

import numpy as np

#: The reference host speed: one kernel call, right after a campaign
#: job, takes this long (about its median on the 2-core KVM guest).
#: It sets only the scale of the scaled numbers; at this speed they
#: equal the raw ones.
REFERENCE_S = 0.010

N, TRIALS = 129, 32
_DIAGONAL = ((np.arange(N)[:, None] + np.arange(N)[None, :]) % N).ravel()


def kernel() -> int:
    """One fixed unit of work; returns a checksum so nothing is skipped."""
    data = np.empty((TRIALS, N, N), dtype=np.uint8)
    for t in range(TRIALS):
        fill, draw = (np.random.default_rng(s) for s in
                      np.random.SeedSequence([20211205, t]).spawn(2))
        data[t] = fill.integers(0, 2, (N, N), dtype=np.uint8)
        data[t] ^= draw.random((N, N)) < 1e-4
    rows = np.bitwise_xor.reduce(data, axis=2)
    cols = np.bitwise_xor.reduce(data, axis=1)
    diagonals = [np.bincount(_DIAGONAL, weights=plane.ravel(), minlength=N)
                 for plane in data]
    record = {"rows": rows[0].tolist(), "cols": cols[0].tolist(),
              "diagonals": [int(d) & 1 for d in diagonals[0]]}
    text = ""
    for t in range(TRIALS):
        record["trial"] = t
        text = json.dumps(record, sort_keys=True)
        json.loads(text)
    digest = hashlib.sha256(text.encode()).digest()
    return int(rows.sum()) + int(cols.sum()) + digest[0]

