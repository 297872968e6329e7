"""Traced fleet worker: the stock ``repro worker`` with span wrappers.

Usage::

    python3 perfbench/fleet_worker.py --spans DIR -- worker --store STORE

Installs the wrappers of ``spans.py`` (claim, wire decode, execute,
checkpoint, and the engine layers below them), then hands the arguments
after ``--`` to ``repro.cli.main`` unchanged. Spans are appended to
``DIR/spans-<pid>.jsonl`` as each root span closes and once more on
exit; SIGTERM ends the worker the way Ctrl-C does, so that last flush
runs.
"""
from __future__ import annotations

import argparse
import os
import signal
import sys

import spans


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True)
    parser.add_argument("worker_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    worker_args = args.worker_args
    if worker_args[:1] == ["--"]:
        worker_args = worker_args[1:]
    signal.signal(signal.SIGTERM, _interrupt)
    rec = spans.SpanRecorder(args.spans, proc=f"worker-{os.getpid()}",
                             flush_roots=True)
    try:
        spans.install(rec)
        from repro.cli import main as repro_main
        return repro_main(worker_args)
    except KeyboardInterrupt:
        return 0
    finally:
        rec.flush()


if __name__ == "__main__":
    sys.exit(main())
