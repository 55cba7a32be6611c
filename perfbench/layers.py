"""The traced run: layer timers, worker-side spans, and the per-layer budget.

The program already records spans (``compile/*``, ``batch/encode|execute|
decode``, ``serve/queued|batch|request``) into a :class:`repro.obs.Trace`.
:func:`instrument` adds the benchmark's own timers around calls into layer
entry points — ``from_python``, ``compile_nsc``, ``Backend.plan``,
``CompileCache.get``/``put`` and ``ShardExecutor.run_batch`` — as spans on
the same trace, and removes them afterwards.  Only the traced run installs
them; the untraced run that yields the end-to-end metrics runs the program
unmodified.

**Self time.**  :func:`attribute` cuts the measured wall into instants and
credits each instant to the deepest layer span open at that instant, across
every thread of the benchmark process (a layer deeper in the call chain
wins; see ``SELF_TIME``).  Instants no layer span covers are
``bench.unattributed``.  The self times and that remainder therefore add up
to the traced wall exactly.  The event-loop side of the front door (client
coroutines, ``submit``, future resolution) records no span of its own: it
lands in ``serving.scheduler.batch_self`` while some lane's ``serve/batch``
is open, and in the remainder otherwise.

**Shard workers** are forked while the trace is active, so they inherit it.
:class:`LayerTrace` keeps their ``batch/execute`` spans as shared totals
(seconds, ``T'``, ``W'``) the parent reads; their time runs in other
processes and is reported beside the parent's wall, not inside it.
"""

from __future__ import annotations

import functools
import multiprocessing as mp
import os
from contextlib import contextmanager

from repro import compiler
from repro.backends import available_backends, get_backend
from repro.cache import CompileCache
from repro.compiler import batch as compiler_batch
from repro.obs import Trace, span
from repro.serving import ShardExecutor
from repro.serving import shard as serving_shard

#: per-layer metrics, in report order: (name, unit).  A layer's self time is
#: reported as its share of the traced wall (``*_pct``), so a layer that does
#: not run in a workload reads 0 %; the layer table also prints the seconds.
PER_LAYER = (
    ("nsc.from_python_pct", "%"),
    ("nsc.from_python_calls", "count"),
    ("compiler.nsa_pct", "%"),
    ("compiler.optimize_pct", "%"),
    ("compiler.flatten_pct", "%"),
    ("compiler.codegen_pct", "%"),
    ("compiler.other_pct", "%"),
    ("compiler.pipeline_runs", "count"),
    ("compiler.instructions", "count"),
    ("compiler.encode_pct", "%"),
    ("compiler.decode_pct", "%"),
    ("compiler.twin_compiles", "count"),
    ("backends.plan_build_pct", "%"),
    ("backends.plans_built", "count"),
    ("bvram.execute_pct", "%"),
    ("bvram.worker_execute_pct", "%"),
    ("bvram.T_prime", "count"),
    ("bvram.W_prime", "count"),
    ("cache.get_pct", "%"),
    ("cache.put_pct", "%"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.disk_bytes", "B"),
    ("serving.scheduler.queue_wait_pct", "%"),
    ("serving.scheduler.batch_self_pct", "%"),
    ("serving.scheduler.batches", "count"),
    ("serving.scheduler.batch_size_mean", "count"),
    ("serving.shard.run_batch_pct", "%"),
    ("serving.shard.worker_busy_pct", "%"),
    ("serving.shard.spans", "count"),
    ("serving.shard.fallback_spans", "count"),
    ("serving.shard.respawns", "count"),
    ("serving.shard.worker_peak_rss_mb", "MB"),
    ("serving.transport.bytes_shipped", "B"),
    ("serving.transport.segments_created", "count"),
    ("bench.latency_p99_ms", "ms"),
    ("bench.latency_samples", "count"),
    ("obs.trace_overhead_pct", "%"),
    ("bench.unattributed_pct", "%"),
    ("bench.traced_wall_s", "s"),
)

#: span name -> (layer, depth); the deepest open span owns an instant
SELF_TIME = {
    "serve/batch": ("serving.scheduler.batch_self", 1),
    "bench/shard_run_batch": ("serving.shard.run_batch", 2),
    "bench/compile_nsc": ("compiler.other", 2),
    "compile/nsa": ("compiler.nsa", 3),
    "compile/optimize": ("compiler.optimize", 3),
    "compile/flatten": ("compiler.flatten", 3),
    "compile/codegen": ("compiler.codegen", 3),
    "batch/encode": ("compiler.encode", 3),
    "batch/decode": ("compiler.decode", 3),
    "batch/execute": ("bvram.execute", 3),
    "batch/fallback": ("bvram.execute", 3),
    "compile/cache": ("cache.get", 4),
    "bench/cache_get": ("cache.get", 4),
    "bench/cache_put": ("cache.put", 4),
    "nsc/from_python": ("nsc.from_python", 5),
    "bench/plan": ("backends.plan_build", 5),
}
UNATTRIBUTED = "bench.unattributed"

#: the span that marks the measured window on the trace
WINDOW = "bench/measured"


class LayerTrace(Trace):
    """A :class:`Trace` whose forked shard workers report execute totals back.

    In the process that made it, it records like any trace.  In a forked
    worker it records nothing but adds each ``batch/execute`` span's
    seconds, ``T'`` and ``W'`` to a shared array.
    """

    def __init__(self) -> None:
        super().__init__()
        self._owner = os.getpid()
        self._workers = mp.get_context().Array("d", 3)

    def add_complete(self, name, t_start, dur_s, cat="repro", args=None):
        if os.getpid() == self._owner:
            return super().add_complete(name, t_start, dur_s, cat, args)
        if name == "batch/execute":
            args = args or {}
            with self._workers.get_lock():
                self._workers[0] += dur_s
                self._workers[1] += args.get("time", 0)
                self._workers[2] += args.get("work", 0)
        return None

    def reset_workers(self) -> None:
        with self._workers.get_lock():
            self._workers[:] = [0.0, 0.0, 0.0]

    def worker_totals(self) -> tuple[float, float, float]:
        with self._workers.get_lock():
            return tuple(self._workers[:])


def _timed(name: str, fn, note=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with span(name, "bench", **(note(args, kwargs) if note else {})):
            return fn(*args, **kwargs)

    return wrapper


def _plan_first(backend):
    """``backend.execute`` that first builds a missing plan through ``Backend.plan``."""
    execute = backend.execute

    def wrapper(machine, program, max_steps):
        if getattr(program, backend.cache_attr, None) is None:
            with span("bench/plan", "bench", backend=backend.name):
                backend.plan(program)
        return execute(machine, program, max_steps)

    return wrapper


@contextmanager
def instrument():
    """Install the layer timers for the duration of the block."""
    saved = []

    def patch(owner, attr, value):
        saved.append((owner, attr, owner.__dict__.get(attr), attr in owner.__dict__))
        setattr(owner, attr, value)

    for module in (compiler, compiler_batch, serving_shard):
        if hasattr(module, "from_python"):
            patch(module, "from_python", _timed("nsc/from_python", module.from_python))
    patch(
        compiler, "compile_nsc",
        _timed("bench/compile_nsc", compiler.compile_nsc,
               lambda a, k: {"batch_axis": bool(k.get("batch_axis"))}),
    )
    patch(CompileCache, "get", _timed("bench/cache_get", CompileCache.get))
    patch(CompileCache, "put", _timed("bench/cache_put", CompileCache.put))
    patch(ShardExecutor, "run_batch", _timed("bench/shard_run_batch", ShardExecutor.run_batch))
    for name in available_backends():
        backend = get_backend(name)
        patch(backend, "execute", _plan_first(backend))
    try:
        yield
    finally:
        for owner, attr, old, had in reversed(saved):
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)


def attribute(events: list, t0: float, t1: float) -> dict:
    """Self time (µs) of each layer over ``[t0, t1)``, plus ``UNATTRIBUTED``."""
    points = []
    for e in events:
        layer = SELF_TIME.get(e["name"])
        if layer is None or e.get("ph") != "X":
            continue
        s, f = max(e["ts"], t0), min(e["ts"] + e["dur"], t1)
        if f > s:
            points.append((s, 1, layer))
            points.append((f, -1, layer))
    points.sort(key=lambda p: (p[0], p[1]))
    open_layers: dict = {}
    self_us = {layer: 0.0 for layer, _ in SELF_TIME.values()}
    self_us[UNATTRIBUTED] = 0.0
    prev = t0
    for t, step, (layer, depth) in points:
        if t > prev:
            top = max(open_layers)[1] if open_layers else UNATTRIBUTED
            self_us[top] += t - prev
            prev = t
        key = (depth, layer)
        open_layers[key] = open_layers.get(key, 0) + step
        if not open_layers[key]:
            del open_layers[key]
    self_us[UNATTRIBUTED] += t1 - prev
    return self_us


def layer_metrics(tr: LayerTrace, traced, plain) -> tuple[dict, dict]:
    """Every per-layer metric of one traced run, and each layer's self seconds.

    ``traced`` and ``plain`` are the traced and untraced measured phases of
    the same run.
    """
    events = tr.events()
    win = next(e for e in events if e["name"] == WINDOW)
    t0, t1 = win["ts"], win["ts"] + win["dur"]
    inside = [e for e in events if e.get("ph") == "X" and t0 <= e["ts"] < t1]

    def spans(name):
        return [e for e in inside if e["name"] == name]

    wall_s = (t1 - t0) / 1e6
    seconds = {layer: us / 1e6 for layer, us in attribute(events, t0, t1).items()}
    m = {name: 0.0 for name, _ in PER_LAYER}
    for layer, s in seconds.items():
        m[f"{layer}_pct"] = 100.0 * s / wall_s
    m["bench.traced_wall_s"] = wall_s

    m["nsc.from_python_calls"] = len(spans("nsc/from_python"))
    m["compiler.pipeline_runs"] = len(spans("compile/nsa"))
    m["compiler.instructions"] = sum(e["args"].get("instructions", 0) for e in spans("compile/codegen"))
    m["compiler.twin_compiles"] = sum(1 for e in spans("bench/compile_nsc") if e["args"].get("batch_axis"))
    m["backends.plans_built"] = len(spans("bench/plan"))
    execs = spans("batch/execute")
    worker_s, worker_t, worker_w = traced.facts["workers"]
    m["bvram.T_prime"] = sum(e["args"].get("time", 0) for e in execs) + worker_t
    m["bvram.W_prime"] = sum(e["args"].get("work", 0) for e in execs) + worker_w

    stores = traced.facts.get("stores")
    if stores:
        m["cache.hits"] = sum(s["hits"] for s in stores)
        m["cache.misses"] = sum(s["misses"] for s in stores)
        m["cache.disk_bytes"] = stores[-1]["disk_bytes"]

    server = traced.facts.get("server")
    if server is not None:
        queued = sum(e["dur"] for e in spans("serve/queued"))
        answered = sum(e["dur"] for e in spans("serve/request"))
        m["serving.scheduler.queue_wait_pct"] = 100.0 * queued / answered
        m["serving.scheduler.batches"] = server["batches"]
        m["serving.scheduler.batch_size_mean"] = server["mean_batch_size"]
    shard = traced.facts.get("shard")
    if shard is not None:
        capacity_s = traced.facts["shard_workers"] * wall_s
        m["bvram.worker_execute_pct"] = 100.0 * worker_s / capacity_s
        m["serving.shard.worker_busy_pct"] = 100.0 * shard["busy_s"] / capacity_s
        for key in ("spans", "fallback_spans", "respawns"):
            m[f"serving.shard.{key}"] = shard[key]
        m["serving.shard.worker_peak_rss_mb"] = traced.facts["worker_peak_rss_mb"]
        m["serving.transport.bytes_shipped"] = shard["bytes_shipped"]
        m["serving.transport.segments_created"] = shard["segments_created"]

    m["bench.latency_p99_ms"] = plain.p99_s() * 1e3
    m["bench.latency_samples"] = plain.completed
    rate_plain = plain.completed / plain.wall_s
    rate_traced = traced.completed / traced.wall_s
    m["obs.trace_overhead_pct"] = (
        100.0 * (rate_plain - rate_traced) / rate_plain if rate_plain else 100.0)
    return m, seconds


def table(workload: str, m: dict, seconds: dict) -> str:
    """The layer budget: self time and share of the traced wall, then the rest."""
    wall = m["bench.traced_wall_s"]
    lines = [f"layer budget: {workload} (traced wall {wall:.4f} s)",
             f"  {'self time':<34}{'s':>10}{'share':>9}"]
    for layer in sorted(seconds, key=lambda k: (k == UNATTRIBUTED, k)):
        lines.append(f"  {layer:<34}{seconds[layer]:>10.4f}{m[f'{layer}_pct']:>8.1f}%")
    total = sum(seconds.values())
    lines.append(f"  {'sum':<34}{total:>10.4f}{100 * total / wall:>8.1f}%")
    lines.append(f"  {'other per-layer figures':<34}{'value':>10}  unit")
    shown = {f"{layer}_pct" for layer in seconds}
    for name, unit in PER_LAYER:
        if name not in shown:
            lines.append(f"  {name:<34}{m[name]:>10.6g}  {unit}")
    return "\n".join(lines)
