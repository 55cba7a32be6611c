"""The repo benchmark: one workload, one fresh process, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve_small --seed 1 --seconds 25 --trace 0

``--trace 0`` sets the workload up several times (``setup_s`` is the
median), measures it for ``--seconds`` and prints the end-to-end metrics.
``--trace 1`` measures half the time untraced and half traced, prints the
layer budget table, writes the Chrome trace to ``perfbench/out/`` and
prints the per-layer metrics.  The last line of standard output is always
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

#: the program's own knobs; the benchmark runs the shipped defaults
PINNING_ENV = ("REPRO_BACKEND", "REPRO_CACHE_DIR", "REPRO_CACHE_MAX_MB", "REPRO_SHARD_TRANSPORT")

#: an untraced run sets up at least ``SETUP_MIN`` times and until set-up has
#: taken ``SETUP_BUDGET_S`` in all (at most ``SETUP_MAX``); ``setup_s`` is
#: the median, so a cheap set-up is sampled more often
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 15, 1.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}


async def _call(fn, *args, **kwargs):
    out = fn(*args, **kwargs)
    return await out if asyncio.iscoroutine(out) else out


async def _setup_measure(w, seed, scratch, seconds, tracer=None):
    """Set up, measure and tear down once; returns (setup seconds, phase)."""
    import layers

    t0 = time.perf_counter()
    state = await _call(w.setup, seed, scratch, tracer)
    setup_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.reset_workers()
    phase = await _call(w.measure, state, seconds)
    if tracer is not None:
        tracer.add_complete(layers.WINDOW, phase.t_start, phase.wall_s, "bench")
        phase.facts["workers"] = tracer.worker_totals()
    phase.failed += await _call(w.teardown, state)
    return setup_s, phase


async def end_to_end(w, seed, seconds, scratch) -> dict:
    setups, leaked = [], 0
    while len(setups) < SETUP_MIN - 1 or (
        sum(setups) < SETUP_BUDGET_S and len(setups) < SETUP_MAX - 1
    ):
        t0 = time.perf_counter()
        state = await _call(w.setup, seed, scratch)
        setups.append(time.perf_counter() - t0)
        leaked += await _call(w.teardown, state)
    setup_s, phase = await _setup_measure(w, seed, scratch, seconds)
    setups.append(setup_s)
    done = phase.completed  # failed operations count in no rate or latency
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": done / phase.wall_s,
        "latency_p50_ms": phase.p50_s() * 1e3,
        "cpu_ms_per_op": phase.cpu_s * 1e3 / max(done, 1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return _result(phase.attempted, phase.failed + leaked, metrics, END_TO_END_UNITS)


async def traced(w, seed, seconds, scratch) -> dict:
    import layers

    _, plain = await _setup_measure(w, seed, scratch, seconds / 2)
    tr = layers.LayerTrace()
    with tr, layers.instrument():
        _, phase = await _setup_measure(w, seed, scratch, seconds / 2, tracer=tr)
    m, seconds = layers.layer_metrics(tr, phase, plain)
    os.makedirs(OUT, exist_ok=True)
    path = tr.export_chrome(os.path.join(OUT, f"{w.name}.trace.json"))
    report = layers.table(w.name, m, seconds)
    with open(os.path.join(OUT, f"{w.name}.layers.txt"), "w", encoding="utf-8") as fh:
        fh.write(report + "\n")
    print(report)
    print(f"# chrome trace: {os.path.relpath(path, ROOT)}")
    ops = plain.attempted + phase.attempted
    return _result(ops, plain.failed + phase.failed, m, dict(layers.PER_LAYER))


def _result(attempted, failed, metrics, units) -> dict:
    """The result line; any failed operation (raised, wrong, leaked) makes it incorrect."""
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def _environment(workload) -> str:
    import numpy

    from repro.backends import HAVE_NUMBA, resolve_backend
    from repro.serving.transport import resolve_transport

    return (
        f"# env: workload={workload} nproc={os.cpu_count()} "
        f"python={platform.python_version()} numpy={numpy.__version__} "
        f"numba={'present' if HAVE_NUMBA else 'absent'} "
        f"backend={resolve_backend().name} transport={resolve_transport()}"
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for var in PINNING_ENV:
        os.environ.pop(var, None)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no program source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    tempfile.tempdir = scratch  # every store and temporary file stays in the checkout
    try:
        print(_environment(w.name), flush=True)
        run = traced if args.trace else end_to_end
        result = asyncio.run(run(w, args.seed, args.seconds, scratch))
    finally:
        tempfile.tempdir = None
        shutil.rmtree(scratch, ignore_errors=True)
        _stop_resource_tracker()
    print(json.dumps(result))
    return 0


def _stop_resource_tracker() -> None:
    """End the shared-memory resource tracker the shard executor started."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    sys.exit(main())
