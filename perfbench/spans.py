"""In-memory span recording around the public functions of each layer.

The traced run installs wrappers from this file around the calls into
each layer of ``repro`` (nothing inside the program changes). A span
is ``(trace, id, parent, name, proc, start, end, attrs)``: ``start`` is
``time.time()`` so spans from different processes share one clock, and
the duration comes from ``perf_counter``. Spans stay in memory and are
written out as JSON lines at the end; a process that has no clean end
of its own (a forked pool process, a fleet worker) appends its spans to
``spans-<pid>.jsonl`` in the span directory whenever a root span closes.

A layer's busy time sums its outermost spans; its self time subtracts
the part of each span that its child spans cover.
"""
from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import statistics
import threading
import time
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

#: Innermost open span of the current context: ``(trace, span_id)``.
#: A context variable, so ``asyncio.to_thread`` calls attach to the
#: span of the task that made them.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None)
#: Trace id for spans opened outside any other span (set by the load
#: generator around each job it submits).
TRACE_ID: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_trace", default=None)


class SpanRecorder:
    """Collects spans of one process (see the module docstring)."""

    def __init__(self, out_dir: Path, proc: str,
                 flush_roots: bool = False) -> None:
        self.out_dir = Path(out_dir)
        self.proc = proc
        self.flush_roots = flush_roots
        #: Cleared to stop recording (the correctness checks after a
        #: traced pass run untraced).
        self.active = True
        self.spans: List[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        # A forked pool process inherits the parent's spans; it keeps
        # only its own and writes them out as each root span closes.
        self.spans = []
        self.proc = f"pool-{os.getpid()}"
        self.flush_roots = True
        self._lock = threading.Lock()

    def _open(self, trace: Optional[str]):
        parent = _CURRENT.get()
        span_id = f"{os.getpid()}-{next(self._ids)}"
        if trace is None:
            trace = parent[0] if parent else TRACE_ID.get()
        token = _CURRENT.set((trace, span_id))
        return trace, span_id, (parent[1] if parent else None), token

    def _close(self, name: str, trace, span_id, parent, token,
               start: float, t0: float, attrs: dict) -> None:
        dur = perf_counter() - t0
        _CURRENT.reset(token)
        record = {"trace": trace, "id": span_id, "parent": parent,
                  "name": name, "proc": self.proc, "start": start,
                  "end": start + dur, "attrs": attrs}
        with self._lock:
            self.spans.append(record)
        if self.flush_roots and parent is None:
            self.flush()

    def wrap(self, name: str, fn: Callable,
             attrs: Optional[Callable] = None,
             trace: Optional[Callable] = None) -> Callable:
        """``fn`` recording one ``name`` span per call.

        ``attrs(args, kwargs, result)`` adds attributes after a call
        returns; ``trace(args, kwargs)`` names the trace from the call's
        own arguments (a job key), else the span inherits its parent's.
        """
        def begin(args, kwargs):
            return self._open(trace(args, kwargs) if trace else None)

        def finish(state, start, t0, args, kwargs, result, error):
            extra = {}
            if error is not None:
                extra["error"] = type(error).__name__
            elif attrs is not None:
                try:
                    extra = attrs(args, kwargs, result)
                except Exception as exc:  # noqa: BLE001 - never fail the call
                    # A changed signature loses the attributes, not
                    # the program's result.
                    extra = {"attrs_error": f"{type(exc).__name__}: {exc}"}
            self._close(name, *state, start, t0, extra)

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                if not self.active:
                    return await fn(*args, **kwargs)
                state = begin(args, kwargs)
                start, t0 = time.time(), perf_counter()
                try:
                    result = await fn(*args, **kwargs)
                except BaseException as exc:
                    finish(state, start, t0, args, kwargs, None, exc)
                    raise
                finish(state, start, t0, args, kwargs, result, None)
                return result
            async_wrapper.__perfbench__ = True
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            state = begin(args, kwargs)
            start, t0 = time.time(), perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                finish(state, start, t0, args, kwargs, None, exc)
                raise
            finish(state, start, t0, args, kwargs, result, None)
            return result
        wrapper.__perfbench__ = True
        return wrapper

    def flush(self) -> None:
        """Append the spans held so far to this process's JSONL file."""
        with self._lock:
            spans, self.spans = self.spans, []
        if not spans:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("".join(json.dumps(s) + "\n" for s in spans))


def read_spans(out_dir: Path) -> List[dict]:
    """Every span flushed into ``out_dir`` by any process."""
    spans = []
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    spans.append(json.loads(line))
    return spans


# ---------------------------------------------------------------------- #
# Wrapper installation
# ---------------------------------------------------------------------- #

def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _result_attrs(args, kwargs, result) -> dict:
    return {"entropy": int(_arg(args, kwargs, 1, "entropy")),
            "lo": int(_arg(args, kwargs, 2, "lo")),
            "trials": int(result.trials),
            "faults": int(result.injected_faults),
            "failed": int(result.detected + result.silent)}


def _key_trace(args, kwargs):
    return str(_arg(args, kwargs, 1, "key"))


def _shard_attrs(op: str):
    def attrs(args, kwargs, result) -> dict:
        out = {"op": op}
        if op != "append_perf":
            out["key"] = _key_trace(args, kwargs)
        if op in ("put_shard", "get_shard"):
            out["lo"] = int(_arg(args, kwargs, 2, "lo"))
            out["hi"] = int(_arg(args, kwargs, 3, "hi"))
        if op == "get_shard":
            out["hit"] = result is not None
        return out
    return attrs


def _patch(owner, attr: str, wrap: Callable, missing: List[str]) -> None:
    fn = getattr(owner, attr, None)
    if fn is None:
        missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return
    if getattr(fn, "__perfbench__", False):
        return
    setattr(owner, attr, wrap(fn))


def install(rec: SpanRecorder) -> List[str]:
    """Wrap every layer boundary the traced run measures.

    Returns the targets that no longer exist in the program; their
    metrics then read 0 and the run's provenance lists them.
    """
    import repro.distributed.wire as wire
    import repro.distributed.worker as worker
    import repro.faults.batch as batch
    from repro.distributed.broker import SqliteBroker
    from repro.faults.injector import FaultInjector
    from repro.service.scheduler import CampaignService
    from repro.service.store import ResultStore

    missing: List[str] = []

    # Engine layers, as called from faults.batch.
    _patch(batch, "trial_rngs", lambda f: rec.wrap("rng", f), missing)
    _patch(batch, "pack_batch", lambda f: rec.wrap("bitpack.pack", f),
           missing)
    for attr in ("inject_batch_planes", "inject_batch_planes_packed"):
        _patch(FaultInjector, attr, lambda f: rec.wrap("injector", f),
               missing)
    _patch(batch.BatchCampaign, "run_range_seeded",
           lambda f: rec.wrap("engine", f, attrs=_result_attrs), missing)

    def wrap_build_code(build):
        @functools.wraps(build)
        def build_traced(*args, **kwargs):
            code = build(*args, **kwargs)
            for attr, layer in (("encode_batch", "code.encode"),
                                ("encode_batch_packed", "code.encode"),
                                ("check_batched", "code.decode"),
                                ("check_batched_packed", "code.decode")):
                fn = getattr(code, attr, None)
                if fn is not None and \
                        not getattr(fn, "__perfbench__", False):
                    setattr(code, attr, rec.wrap(layer, fn))
            return code
        build_traced.__perfbench__ = True
        return build_traced
    _patch(batch, "build_code", wrap_build_code, missing)

    # Service layers.
    _patch(CampaignService, "submit",
           lambda f: rec.wrap("service.admit", f), missing)
    for op in ("put_shard", "put_job", "put", "clear_shards",
               "append_perf"):
        trace = _key_trace if op in ("put_shard", "put",
                                     "clear_shards") else None
        _patch(ResultStore, op,
               lambda f, op=op, trace=trace: rec.wrap(
                   "store.write", f, attrs=_shard_attrs(op), trace=trace),
               missing)
    for op in ("get", "get_shard", "shard_spans", "shard_phases"):
        _patch(ResultStore, op,
               lambda f, op=op: rec.wrap("store.read", f,
                                         attrs=_shard_attrs(op),
                                         trace=_key_trace),
               missing)

    # Distributed dispatch (service process) and workers.
    def unit_attrs(args, kwargs, result):
        return {"unit": str(_arg(args, kwargs, 1, "unit_id"))}
    _patch(SqliteBroker, "publish",
           lambda f: rec.wrap("broker.publish", f, attrs=unit_attrs),
           missing)
    _patch(SqliteBroker, "requeue_unit",
           lambda f: rec.wrap("broker.requeue", f, attrs=unit_attrs),
           missing)
    _patch(wire, "unit_envelope", lambda f: rec.wrap("wire.encode", f),
           missing)

    def claim_attrs(args, kwargs, result):
        return {"unit": getattr(result, "unit_id", None)}
    _patch(SqliteBroker, "claim",
           lambda f: rec.wrap("worker.claim", f, attrs=claim_attrs),
           missing)
    _patch(worker, "decode_unit_envelope",
           lambda f: rec.wrap("worker.decode", f), missing)
    _patch(worker, "run_shard_task_profiled",
           lambda f: rec.wrap("worker.execute", f), missing)

    def checkpoint_attrs(args, kwargs, result):
        return {"key": str(_arg(args, kwargs, 3, "job_key")),
                "lo": int(_arg(args, kwargs, 4, "lo")),
                "hi": int(_arg(args, kwargs, 5, "hi"))}
    _patch(worker.BrokerWorkSource, "complete",
           lambda f: rec.wrap("worker.checkpoint", f,
                              attrs=checkpoint_attrs), missing)
    return missing


# ---------------------------------------------------------------------- #
# Per-layer metrics
# ---------------------------------------------------------------------- #

def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def self_time(span: dict, children: List[dict]) -> float:
    """``span``'s duration minus the part its children cover."""
    lo, hi = span["start"], span["end"]
    covered, cursor = 0.0, lo
    for child in sorted(children, key=lambda c: c["start"]):
        a, b = max(child["start"], cursor), min(child["end"], hi)
        if b > a:
            covered += b - a
            cursor = b
    return (hi - lo) - covered


def layer_metrics(spans: List[dict], jobs: List[dict],
                  service_proc: str) -> Dict[str, float]:
    """The per-layer metrics of one traced pass.

    ``jobs`` are the pass's job outcomes (see ``workload.py``);
    ``service_proc`` names the process that ran the scheduler, whose
    store reads are the dispatcher's polls.
    """
    by_id = {s["id"]: s for s in spans}
    children: Dict[str, List[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def named(name: str, proc: Optional[str] = None) -> List[dict]:
        return [s for s in spans if s["name"] == name
                and (proc is None or s["proc"] == proc)]

    def busy(group: List[dict]) -> float:
        # Outermost spans only: a store read nested in another store
        # call must not count twice.
        return sum(s["end"] - s["start"] for s in group
                   if by_id.get(s["parent"], {}).get("name") != s["name"])

    engine = named("engine")
    out: Dict[str, float] = {
        "rng.calls": len(named("rng")),
        "rng.busy_s": busy(named("rng")),
        "injector.calls": len(named("injector")),
        "injector.busy_s": busy(named("injector")),
        "code.encode.busy_s": busy(named("code.encode")),
        "code.decode.calls": len(named("code.decode")),
        "code.decode.busy_s": busy(named("code.decode")),
        "bitpack.pack.busy_s": busy(named("bitpack.pack")),
        "engine.busy_s": busy(engine),
        "engine.self_s": sum(self_time(s, children.get(s["id"], []))
                             for s in engine),
        "engine.trials": sum(s["attrs"].get("trials", 0) for s in engine),
        "engine.faults_injected": sum(s["attrs"].get("faults", 0)
                                      for s in engine),
        "engine.failed_trials": sum(s["attrs"].get("failed", 0)
                                    for s in engine),
    }

    admit = named("service.admit")
    executed = [j for j in jobs if j["executed"] and j.get("record")]
    engine_by_entropy: Dict[int, float] = {}
    for s in engine:
        entropy = s["attrs"].get("entropy")
        engine_by_entropy[entropy] = engine_by_entropy.get(entropy, 0.0) \
            + (s["end"] - s["start"])

    def engine_s(job: dict) -> float:
        if job["entropy"] in engine_by_entropy:
            return engine_by_entropy[job["entropy"]]
        return sum((job["record"].get("phases") or {}).values()) / 1e9

    def rec_span(job: dict, a: str, b: str) -> float:
        return job["record"][b] - job["record"][a]
    out.update({
        "service.admit.calls": len(admit),
        "service.admit.busy_s": busy(admit),
        "service.queue_wait_s": _median(
            rec_span(j, "submitted_at", "started_at") for j in executed),
        "service.execute_s": _median(
            rec_span(j, "started_at", "finished_at") for j in executed),
        "service.overhead_s": _median(
            rec_span(j, "started_at", "finished_at") - engine_s(j)
            for j in executed),
        "service.cache_hits": sum(1 for j in jobs if j.get("cached")),
    })

    writes, reads = named("store.write"), named("store.read")
    out.update({
        "store.write.calls": len(writes),
        "store.write.busy_s": busy(writes),
        "store.read.calls": len(reads),
        "store.read.busy_s": busy(reads),
    })

    publish = named("broker.publish")
    polls = [s for s in reads if s["proc"] == service_proc
             and s["attrs"].get("op") == "get_shard"]
    landed = {}
    for s in writes:
        if s["proc"] != service_proc and \
                s["attrs"].get("op") == "put_shard":
            key = (s["attrs"]["key"], s["attrs"]["lo"], s["attrs"]["hi"])
            landed.setdefault(key, s["end"])
    seen = {}
    for s in polls:
        if s["attrs"].get("hit"):
            key = (s["attrs"]["key"], s["attrs"]["lo"], s["attrs"]["hi"])
            seen.setdefault(key, s["end"])
    fleet_jobs = len(executed) if publish else 0
    out.update({
        "broker.publish.calls": len(publish),
        "broker.publish.busy_s": busy(publish),
        "wire.encode.busy_s": busy(named("wire.encode")),
        "dispatch.polls": len(polls) if publish else 0,
        "dispatch.polls_per_job": (len(polls) / fleet_jobs
                                   if fleet_jobs else 0.0),
        "dispatch.notice_lag_s": _median(
            seen[k] - landed[k] for k in seen if k in landed),
        "broker.requeues": len(named("broker.requeue")),
    })

    claims = named("worker.claim")
    granted = [s for s in claims if s["attrs"].get("unit")]
    published_at = {s["attrs"]["unit"]: s["end"] for s in publish}
    executes = named("worker.execute")
    out.update({
        "worker.claims": len(granted),
        "worker.claims_empty": len(claims) - len(granted),
        "worker.claim_lag_s": _median(
            s["end"] - published_at[s["attrs"]["unit"]]
            for s in granted if s["attrs"]["unit"] in published_at),
        "worker.decode.busy_s": busy(named("worker.decode")),
        "worker.execute.busy_s": busy(executes),
        "worker.checkpoint.busy_s": busy(named("worker.checkpoint")),
        "broker.useful_ratio": (len(executes) / len(granted)
                                if granted else 0.0),
    })
    return out
