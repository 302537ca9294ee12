"""Span recorder and layer instrumentation for traced benchmark runs.

The profiler itself records no time, so a traced run wraps each layer's
public entry points from out here: :func:`install` replaces the listed
functions and methods with wrappers that record one span per call
(name, start, end, parent) into a :class:`Recorder`, plus a few call
counters.  Spans stay in memory and are written out when the iteration
ends.  Only the traced iteration process installs the wrappers; untraced
iterations run the unmodified program.

Shard workers of the parallel report are forked after :func:`install`,
so they inherit the wrappers.  The wrapper around the worker entry
point gives each shard a fresh recorder and dumps its spans to a file
the parent merges after the pool has finished, so no span is lost at
fork.

A span's *self time* is its duration minus the time its child spans in
the same process cover.  Self times of the iteration process partition
its three root spans (setup, collect, report) exactly, so their sum is
the traced end-to-end time; shard-worker spans run concurrently and are
reported as busy time of their layers, outside that sum.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from array import array
from pathlib import Path

now_ns = time.monotonic_ns

#: resolver stages found in the chains of the three workloads
STAGES = ("kernel", "jit-epoch", "boot-image", "task-vma", "hypervisor",
          "domain-dispatch")

#: span name -> the repository module (layer) the wrapped code lives in
LAYER_OF = {
    "bench.setup": "benchmark",
    "bench.collect": "benchmark",
    "bench.report": "benchmark",
    "system.build": "system",
    "system.simulate": "system",
    "daemon.drain": "oprofile.daemon",
    "codec.write": "profiling.record_codec",
    "codec.decode": "profiling.record_codec",
    "codemap.emit": "viprof.vm_agent",
    "arena.build": "viprof.arena",
    "metrics.collection_summary": "metrics.build",
    "codemap.load": "viprof.codemap",
    **{f"stage.{name}": "pipeline.stages" for name in STAGES},
    "columnar.chunk": "pipeline.columnar",
    "aggregate.report": "pipeline.aggregate",
    "parallel.run": "pipeline.parallel",
    "parallel.plan": "pipeline.parallel",
    "parallel.merge": "pipeline.parallel",
    "parallel.shard": "pipeline.parallel",
    "render.table": "profiling.report",
    "metrics.report_doc": "metrics.build",
    "xen.save_fleet": "xen",
}

#: (module, owner class or None, attribute, span name); methods wrapped on
#: the class that defines them, module functions where their callers look
#: them up at call time.
SPAN_POINTS = [
    ("repro.system.engine", "SystemEngine", "__init__", "system.build"),
    ("repro.system.engine", "SystemEngine", "run", "system.simulate"),
    ("repro.xen.engine", "MultiStackEngine", "__init__", "system.build"),
    ("repro.xen.engine", "MultiStackEngine", "run", "system.simulate"),
    ("repro.oprofile.daemon", "OprofileDaemon", "wakeup", "daemon.drain"),
    ("repro.oprofile.daemon", "OprofileDaemon", "stop", "daemon.drain"),
    ("repro.profiling.record_codec", "RecordFileWriter", "write_batch", "codec.write"),
    ("repro.profiling.record_codec", "RecordFileWriter", "write_packed", "codec.write"),
    ("repro.profiling.record_codec", "RecordFileWriter", "flush", "codec.write"),
    ("repro.profiling.record_codec", "RecordFileWriter", "close", "codec.write"),
    ("repro.viprof.vm_agent", "ViprofVmAgent", "pre_gc", "codemap.emit"),
    ("repro.viprof.vm_agent", "ViprofVmAgent", "on_exit", "codemap.emit"),
    ("repro.viprof.codemap", "CodeMapWriter", "write", "codemap.emit"),
    ("repro.viprof.arena", None, "build_arena", "arena.build"),
    ("repro.metrics.build", None, "collection_summary", "metrics.collection_summary"),
    ("repro.pipeline.stages", "KernelSymbolStage", "resolve", "stage.kernel"),
    ("repro.pipeline.stages", "JitEpochStage", "resolve", "stage.jit-epoch"),
    ("repro.pipeline.stages", "JitEpochStage", "resolve_group", "stage.jit-epoch"),
    ("repro.pipeline.stages", "BootImageStage", "resolve", "stage.boot-image"),
    ("repro.pipeline.stages", "TaskVmaStage", "resolve", "stage.task-vma"),
    ("repro.pipeline.stages", "HypervisorStage", "resolve", "stage.hypervisor"),
    ("repro.pipeline.stages", "DomainDispatchStage", "resolve", "stage.domain-dispatch"),
    ("repro.profiling.report", "StreamingAggregator", "report", "aggregate.report"),
    ("repro.pipeline.parallel", None, "run_parallel_pipeline", "parallel.run"),
    ("repro.pipeline.parallel", None, "plan_shards", "parallel.plan"),
    ("repro.pipeline.parallel", None, "_absorb_shard_payload", "parallel.merge"),
    ("repro.xen.engine", "MultiStackResult", "save_fleet_session", "xen.save_fleet"),
]

#: batched per-epoch code-map probes: counted, not timed.  Single-address
#: probes of the scalar walk are far too frequent to wrap; their number
#: comes from the code-map index's own counters (:func:`walk_probes`).
PROBE_POINTS = [
    ("repro.viprof.codemap", "CodeMap", "lookup_run"),
    ("repro.viprof.arena", "ArenaCodeMap", "lookup_run"),
]


class Recorder:
    """In-memory spans of one process: ``(name_id, start_ns, end_ns,
    parent_index)`` tuples, parent ``-1`` for a root span.  A shard
    worker's roots carry ``parent_index`` ``-1`` and the recorder keeps
    the forking process's open span in :attr:`external_parent`."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple | None] = []
        self.stack: list[int] = [-1]
        self.counters: dict[str, int] = {}
        self.external_parent: int | None = None
        self.shard_dumps: list[dict] = []
        #: JIT stages a shard worker resolved with (see _shard_wrapper)
        self.jit_stages: list = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add_span(self, name: str, start: int, end: int) -> int:
        """Record an already-measured span under the current open span."""
        idx = len(self.spans)
        self.spans.append((self.name_id(name), start, end, self.stack[-1]))
        return idx

    def span(self, name: str):
        return _SpanContext(self, self.name_id(name))

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def reset_for_fork(self, run_id: str) -> None:
        """Start a forked shard worker's recording from empty."""
        self.external_parent = self.stack[-1]
        self.run_id = run_id
        self.spans.clear()
        self.stack[:] = [-1]
        self.counters.clear()
        self.shard_dumps.clear()
        self.jit_stages.clear()

    def dump(self) -> dict:
        return {
            "run_id": self.run_id,
            "pid": os.getpid(),
            "names": list(self.names),
            "layers": [LAYER_OF.get(n, "benchmark") for n in self.names],
            "spans": list(self.spans),
            "external_parent": self.external_parent,
            "counters": dict(self.counters),
        }

    def save(self, path: Path) -> None:
        """Write the dump: a JSON header line, then the spans as packed
        int64 quadruples (cheap enough to run inside a shard worker)."""
        dump = self.dump()
        flat = array("q", [x for span in self.spans for x in span])
        dump["spans"] = len(self.spans)
        with open(path, "wb") as fh:
            fh.write(json.dumps(dump).encode() + b"\n")
            fh.write(flat.tobytes())


def load_dump(path: Path) -> dict:
    """Read a dump written by :meth:`Recorder.save`."""
    data = path.read_bytes()
    cut = data.index(b"\n")
    dump = json.loads(data[:cut])
    flat = array("q")
    flat.frombytes(data[cut + 1:])
    dump["spans"] = [tuple(flat[i:i + 4]) for i in range(0, len(flat), 4)]
    return dump


class _SpanContext:
    __slots__ = ("rec", "nid", "idx", "start")

    def __init__(self, rec: Recorder, nid: int) -> None:
        self.rec = rec
        self.nid = nid

    def __enter__(self) -> "_SpanContext":
        rec = self.rec
        self.idx = len(rec.spans)
        rec.spans.append(None)
        rec.stack.append(self.idx)
        self.start = now_ns()
        return self

    def __exit__(self, *exc) -> None:
        end = now_ns()
        rec = self.rec
        rec.stack.pop()
        rec.spans[self.idx] = (self.nid, self.start, end, rec.stack[-1])


def _span_wrapper(rec: Recorder, name: str, fn):
    nid = rec.name_id(name)
    spans = rec.spans
    stack = rec.stack

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = len(spans)
        spans.append(None)
        parent = stack[-1]
        stack.append(idx)
        start = now_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = now_ns()
            stack.pop()
            spans[idx] = (nid, start, end, parent)

    return wrapper


def _decode_wrapper(rec: Recorder, fn):
    """Decode is a generator: one span per chunk pulled from it, so the
    consumer's work between chunks is not charged to the codec."""
    nid = rec.name_id("codec.decode")
    spans = rec.spans
    stack = rec.stack
    counters = rec.counters

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = now_ns()
            try:
                chunk = next(it)
            except StopIteration:
                return
            finally:
                end = now_ns()
                stack.pop()
                spans[idx] = (nid, start, end, parent)
            counters["codec.records_decoded"] = (
                counters.get("codec.records_decoded", 0) + len(chunk)
            )
            yield chunk

    return wrapper


def _count_wrapper(rec: Recorder, name: str, fn):
    counters = rec.counters

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counters[name] = counters.get(name, 0) + 1
        return fn(*args, **kwargs)

    return wrapper


def _spill_wrapper(rec: Recorder, fn):
    counters = rec.counters

    @functools.wraps(fn)
    def wrapper(self):
        if self._pending:
            counters["codec.spills"] = counters.get("codec.spills", 0) + 1
        return fn(self)

    return wrapper


def _columnar_wrapper(rec: Recorder, fn):
    """Span per decode chunk plus the layer's key counts.  The distinct
    keys are counted after the span closes (tracing overhead, not layer
    time)."""
    timed = _span_wrapper(rec, "columnar.chunk", fn)
    counters = rec.counters

    @functools.wraps(fn)
    def wrapper(fields_chunk, has_domain, *rest):
        timed(fields_chunk, has_domain, *rest)
        if has_domain:
            keys = {(f[0], f[4], f[2], f[1], f[5]) for f in fields_chunk}
        else:
            keys = {(f[0], f[4], f[2], f[1]) for f in fields_chunk}
        counters["columnar.samples"] = (
            counters.get("columnar.samples", 0) + len(fields_chunk)
        )
        counters["columnar.distinct_keys"] = (
            counters.get("columnar.distinct_keys", 0) + len(keys)
        )

    return wrapper


def _shard_wrapper(rec: Recorder, fn, out_dir: Path):
    """Shard-worker entry: record the shard on a fresh recorder in the
    forked worker and leave its spans in ``out_dir`` for the parent."""

    @functools.wraps(fn)
    def wrapper(payload):
        rec.reset_for_fork(f"shard-{os.getpid()}-{now_ns()}")
        try:
            with rec.span("parallel.shard"):
                return fn(payload)
        finally:
            rec.count("jit.map_probes", walk_probes(rec.jit_stages))
            rec.save(out_dir / f"{rec.run_id}.trace")

    return wrapper


def _patch(module_name: str, owner: str | None, attr: str, make) -> None:
    module = importlib.import_module(module_name)
    target = getattr(module, owner) if owner else module
    raw = target.__dict__[attr] if owner else getattr(module, attr)
    if isinstance(raw, classmethod):
        setattr(target, attr, classmethod(make(raw.__func__)))
    else:
        setattr(target, attr, make(raw))


def _remember_wrapper(seen: list, fn):
    @functools.wraps(fn)
    def wrapper(self):
        seen.append(self)
        return fn(self)

    return wrapper


def walk_probes(jit_stages) -> int:
    """Epoch-map probes made by the backward walks of these JIT stages,
    from each code-map index's counters: every map a walk visited without
    a hit (``fallback_steps``) plus the probe that ended each walk the
    memo did not answer (``lookups - memo_hits``)."""
    return sum(
        st.codemaps.fallback_steps + st.codemaps.lookups - st.codemaps.memo_hits
        for st in jit_stages
    )


def _fallback_wrapper(rec: Recorder, fn):
    """Count code-map loads that could not use the compiled arena."""
    from repro.viprof.arena import ArenaError

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ArenaError:
            rec.count("arena.fallbacks")
            raise

    return wrapper


def install(rec: Recorder, shard_dir: Path) -> None:
    """Wrap every span and counter point.  Call once per process, before
    the engine is built."""
    for module, owner, attr, name in SPAN_POINTS:
        _patch(module, owner, attr, lambda fn, n=name: _span_wrapper(rec, n, fn))
    _patch(
        "repro.viprof.codemap", "CodeMapIndex", "load_dir",
        lambda fn: _span_wrapper(rec, "codemap.load", fn),
    )
    _patch(
        "repro.viprof.arena", "CodeMapArena", "open_fresh",
        lambda fn: _fallback_wrapper(rec, fn),
    )
    _patch(
        "repro.profiling.record_codec", "RecordFileReader",
        "iter_field_chunks", lambda fn: _decode_wrapper(rec, fn),
    )
    _patch(
        "repro.profiling.record_codec", "RecordFileWriter", "_spill",
        lambda fn: _spill_wrapper(rec, fn),
    )
    _patch(
        "repro.pipeline.parallel", None, "resolve_column_chunk",
        lambda fn: _columnar_wrapper(rec, fn),
    )
    _patch(
        "repro.pipeline.resolver", "ResolverChain", "resolve_key_run",
        lambda fn: _count_wrapper(rec, "columnar.key_runs", fn),
    )
    for module, owner, attr in PROBE_POINTS:
        _patch(module, owner, attr, lambda fn: _count_wrapper(rec, "jit.lookup_runs", fn))
    # A shard worker resets its chain copy's stages before resolving:
    # remember its JIT stages so their walk counters can be read at the end.
    _patch(
        "repro.pipeline.stages", "JitEpochStage", "reset_state",
        lambda fn: _remember_wrapper(rec.jit_stages, fn),
    )
    shard_dir.mkdir(parents=True, exist_ok=True)
    _patch(
        "repro.pipeline.parallel", None, "_resolve_shard_worker",
        lambda fn: _shard_wrapper(rec, fn, shard_dir),
    )


def collect_shards(rec: Recorder, shard_dir: Path) -> None:
    """Read the shard workers' span dumps into ``rec`` (parent side)."""
    for path in sorted(shard_dir.glob("shard-*.trace")):
        rec.shard_dumps.append(load_dump(path))


def self_times(dump: dict) -> dict[str, float]:
    """Seconds of self time per span name within one process's dump.
    Parents are indices into the same dump, so a shard worker's spans
    never subtract from the forking process's spans."""
    spans = dump["spans"]
    names = dump["names"]
    child = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    for i, (nid, start, end, _) in enumerate(spans):
        name = names[nid]
        out[name] = out.get(name, 0.0) + (end - start - child[i]) / 1e9
    return out
