"""The four benchmark workloads: inputs, set-up, measured loops, output checks.

Every workload drives public entry points only (``compile_nsc``,
``CompiledProgram.run_batch``, ``Server``, ``ShardExecutor``,
``CompileCache``) with the shipped defaults: no backend, transport or cache
is pinned.  Inputs come from ``random.Random(f"{workload}:{seed}")``, so one
seed always gives the same inputs.  Every output is checked against a value
computed apart from the compiler; a mismatch, an exception or a leaked
shared-memory segment counts as a failed operation and never stops the run.
"""

from __future__ import annotations

import asyncio
import os
import random
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Optional

from repro import compiler
from repro.cache import CompileCache
from repro.compiler.difftest import suite
from repro.nsc.eval import apply_function
from repro.nsc.values import Value, from_python, to_python
from repro.serving import Server, ShardExecutor

#: serve_small: closed-loop clients, requests each client repeats per pass
SMALL_PROGRAMS = ("map_affine", "filter_lt", "reduce_add")
SMALL_CLIENTS = 128
SMALL_PER_CLIENT = 8

#: shard_compute: one full 512-request batch per program per round, so
#: every batch reaches the shard executor (its default threshold is
#: ``max_batch``)
SHARD_PROGRAMS = ("collatz_steps", "quicksort_t", "mergesort_t")
SHARD_MAX_BATCH = 512
SHARD_PER_CLIENT = 2


def _py(out: object) -> object:
    """A result as plain Python data, whether it comes back as an S-object or not."""
    return to_python(out) if isinstance(out, Value) else out


def _suite_programs() -> dict:
    """Fresh ``name -> (fn, inputs)`` objects from the differential suite."""
    return {name: (fn, inputs) for name, fn, inputs in suite()}


@dataclass
class Phase:
    """What one measured phase saw."""

    attempted: int = 0
    #: operations that raised, answered wrongly, or leaked a segment
    failed: int = 0
    #: latencies of the operations that answered correctly, and only those
    latencies: list = field(default_factory=list)
    wall_s: float = 0.0
    t_start: float = 0.0
    cpu_s: float = 0.0
    #: program name -> its operations' latencies (compile workloads)
    by_program: dict = field(default_factory=dict)
    #: extra facts the traced run reads (metrics snapshots, stores, ...)
    facts: dict = field(default_factory=dict)

    @property
    def completed(self) -> int:
        """Operations that answered correctly."""
        return len(self.latencies)

    def p50_s(self) -> float:
        """The median latency of the operations that answered correctly.

        Where operations are tagged by program (the compile workloads), it
        is the median over programs of each program's median: the 20 suite
        programs' costs span two orders of magnitude with gaps between
        them, so a plain median over all operations jumps between the two
        programs that straddle it.  With no correct answer at all it is the
        measured wall, the least time an answer would have taken.
        """
        if not self.latencies:
            return self.wall_s
        if not self.by_program:
            return statistics.median(self.latencies)
        return statistics.median(statistics.median(v) for v in self.by_program.values())

    def p99_s(self) -> float:
        """The 99th-percentile latency of the correct answers, over all programs."""
        if len(self.latencies) < 2:
            return self.wall_s
        return statistics.quantiles(self.latencies, n=100)[98]

    def record(self, latency_s: float, out: object, wants: tuple, program: str = "") -> None:
        """One operation.  A failed one (raised or wrong) adds no latency sample,
        so a program that fails fast cannot read as faster."""
        self.attempted += 1
        if out is FAILED or any(_py(out) != want for want in wants):
            self.failed += 1
            return
        self.latencies.append(latency_s)
        if program:
            self.by_program.setdefault(program, []).append(latency_s)


#: stands for the answer of an operation that raised
FAILED = object()


# -- CPU time of this process and its worker processes -------------------------

_TICK = os.sysconf("SC_CLK_TCK")


def _children_cpu_s() -> dict:
    """``pid -> user+system seconds`` of every live child of this process."""
    me = os.getpid()
    out = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        rest = stat[stat.rfind(")") + 2 :].split()
        if int(rest[1]) == me:  # ppid
            out[int(entry)] = (int(rest[11]) + int(rest[12])) / _TICK
    return out


def children_peak_rss_mb() -> float:
    """The largest peak resident set among this process's children (MB)."""
    peak = 0
    for pid in _children_cpu_s():
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]))
        except OSError:
            continue
    return peak / 1024.0


class CpuClock:
    """CPU seconds spent by this process and its children between two reads."""

    def __init__(self) -> None:
        self._self0 = time.process_time()
        self._kids0 = _children_cpu_s()

    def elapsed(self) -> float:
        kids = _children_cpu_s()
        spent = sum(t - self._kids0.get(pid, 0.0) for pid, t in kids.items())
        return time.process_time() - self._self0 + spent


# -- serving workloads ---------------------------------------------------------


@dataclass
class ServeState:
    server: Server
    executor: Optional[ShardExecutor]
    clients: list  # per client: [(prog, value, expected python), ...]


def _small_requests(rng: random.Random, progs: dict) -> list:
    clients = []
    for _ in range(SMALL_CLIENTS):
        reqs = []
        for _ in range(SMALL_PER_CLIENT):
            name = rng.choice(SMALL_PROGRAMS)
            hi = 20 if name == "filter_lt" else 1000
            xs = [rng.randrange(hi) for _ in range(rng.randint(8, 16))]
            if name == "map_affine":
                want = [(7 * x + 3) % 101 for x in xs]
            elif name == "filter_lt":
                want = [x for x in xs if x < 10]
            else:
                want = sum(xs)
            reqs.append((progs[name], xs, want))
        clients.append(reqs)
    return clients


def _shard_requests(rng: random.Random, progs: dict) -> list:
    clients = []
    for name in SHARD_PROGRAMS:
        for _ in range(SHARD_MAX_BATCH):
            reqs = []
            for _ in range(SHARD_PER_CLIENT):
                n = rng.randint(16, 48)
                if name == "collatz_steps":
                    # the Collatz loop ends at 1 from every start in
                    # [1, 2000), so the answer is constant by construction
                    xs = [rng.randrange(1, 2000) for _ in range(n)]
                    want = [1] * n
                else:
                    xs = [rng.randrange(1000) for _ in range(n)]
                    want = sorted(xs)
                reqs.append((progs[name], xs, want))
            clients.append(reqs)
    return clients


def _compile_serving(names) -> dict:
    """Compile and warm each program: its batched twin and plan exist after this."""
    fns = _suite_programs()
    progs = {}
    for name in names:
        prog = compiler.compile_nsc(fns[name][0])
        prog.run_batch([fns[name][1][0]])
        progs[name] = prog
    return progs


async def setup_serve_small(seed: int, scratch: str, tracer=None) -> ServeState:
    rng = random.Random(f"serve_small:{seed}")
    progs = _compile_serving(SMALL_PROGRAMS)
    clients = _small_requests(rng, progs)
    return ServeState(Server(tracer=tracer), None, clients)


async def setup_shard_compute(seed: int, scratch: str, tracer=None) -> ServeState:
    rng = random.Random(f"shard_compute:{seed}")
    progs = _compile_serving(SHARD_PROGRAMS)
    clients = _shard_requests(rng, progs)
    executor = ShardExecutor()
    # ship every program to every worker and build its plans there
    for c in range(0, len(clients), SHARD_MAX_BATCH):
        group = clients[c : c + SHARD_MAX_BATCH]
        executor.run_batch(group[0][0][0], [reqs[0][1] for reqs in group])
    server = Server(max_batch=SHARD_MAX_BATCH, executor=executor, tracer=tracer)
    return ServeState(server, executor, clients)


async def measure_serving(state: ServeState, seconds: float) -> Phase:
    """Closed loop: each client waits for its reply before sending the next.

    A client stops only at the end of a whole pass over its requests, so
    every run attempts whole passes of the same operations.
    """
    phase = Phase()
    srv = state.server

    async def client(reqs, deadline):
        while True:
            for prog, value, want in reqs:
                t0 = time.perf_counter()
                try:
                    out = await srv.submit(prog, value)
                except Exception:
                    out = FAILED
                phase.record(time.perf_counter() - t0, out, (want,))
            if time.perf_counter() >= deadline:
                return

    ex = state.executor
    shard0 = _shard_counters(ex) if ex is not None else None
    cpu = CpuClock()
    phase.t_start = time.perf_counter()
    deadline = phase.t_start + seconds
    await asyncio.gather(*(client(reqs, deadline) for reqs in state.clients))
    phase.wall_s = time.perf_counter() - phase.t_start
    phase.cpu_s = cpu.elapsed()
    phase.facts["server"] = srv.metrics.snapshot()
    if ex is not None:
        shard1 = _shard_counters(ex)
        phase.facts["shard"] = {k: shard1[k] - shard0[k] for k in shard1}
        phase.facts["shard_workers"] = ex.n_workers
        phase.facts["worker_peak_rss_mb"] = children_peak_rss_mb()
    return phase


def _shard_counters(ex: ShardExecutor) -> dict:
    """The executor's cumulative counters the traced run reports as deltas."""
    snap = ex.metrics_snapshot()
    agg = snap["aggregate"]
    return {
        "busy_s": agg["busy_s"],
        "spans": agg["spans"],
        "fallback_spans": agg["fallback_spans"],
        "respawns": agg["respawns"],
        "bytes_shipped": snap["segments"]["bytes_shipped"],
        "segments_created": snap["segments"]["created"],
    }


async def teardown_serving(state: ServeState) -> int:
    """Close the server and its workers; returns the number of leaked segments."""
    await state.server.close()
    if state.executor is None:
        return 0
    state.executor.close()
    return len(state.executor.leaked_segments or [])


# -- compile workloads ---------------------------------------------------------


@dataclass
class CompileState:
    seed: int
    root: str  # temporary directory holding every store of the run
    #: name -> (first input, interpreter answer as python, cold answer or None)
    answers: dict
    warm_dir: Optional[str] = None


def _reference_answers(programs: dict) -> dict:
    """Each suite program's first answer from the NSC reference interpreter."""
    answers = {}
    for name, (fn, inputs) in programs.items():
        ref = apply_function(fn, from_python(inputs[0])).value
        answers[name] = (inputs[0], to_python(ref), None)
    return answers


def _first_answer(fn, x, store):
    """One operation: source to first answer, through ``store``."""
    prog = compiler.compile_nsc(fn, cache=store)
    return prog.run_batch([x])[0]


def setup_compile_cold(seed: int, scratch: str, tracer=None) -> CompileState:
    root = tempfile.mkdtemp(prefix="cold-", dir=scratch)
    return CompileState(seed, root, _reference_answers(_suite_programs()))


def setup_compile_warm(seed: int, scratch: str, tracer=None) -> CompileState:
    root = tempfile.mkdtemp(prefix="warm-", dir=scratch)
    programs = _suite_programs()
    answers = _reference_answers(programs)
    warm_dir = os.path.join(root, "store")
    store = CompileCache(warm_dir)
    for name, (fn, _) in programs.items():
        x, ref, _ = answers[name]
        answers[name] = (x, ref, _py(_first_answer(fn, x, store)))
    return CompileState(seed, root, answers, warm_dir)


def measure_compile(state: CompileState, seconds: float) -> Phase:
    """Whole rounds of the 20 suite programs, each a fresh object, in seeded order.

    ``compile_cold`` opens an empty store per round; ``compile_warm``
    reopens the populated store with an empty in-process memo, as a
    restarted server sees it.
    """
    phase = Phase()
    rng = random.Random(f"compile:{state.seed}")
    stores = []
    cpu = CpuClock()
    phase.t_start = time.perf_counter()
    rnd = 0
    while time.perf_counter() - phase.t_start < seconds:
        programs = _suite_programs()
        order = sorted(programs)
        rng.shuffle(order)
        if state.warm_dir is None:
            store = CompileCache(os.path.join(state.root, f"round{rnd}"))
        else:
            store = CompileCache(state.warm_dir)
        for name in order:
            x, ref, cold = state.answers[name]
            t0 = time.perf_counter()
            try:
                out = _first_answer(programs[name][0], x, store)
            except Exception:
                out = FAILED
            wants = (ref,) if cold is None else (ref, cold)
            phase.record(time.perf_counter() - t0, out, wants, name)
        stores.append(store.snapshot())
        if state.warm_dir is None:
            shutil.rmtree(store.path, ignore_errors=True)
        rnd += 1
    phase.wall_s = time.perf_counter() - phase.t_start
    phase.cpu_s = cpu.elapsed()
    phase.facts["stores"] = stores
    return phase


def teardown_compile(state: CompileState) -> int:
    shutil.rmtree(state.root, ignore_errors=True)
    return 0


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object
    measure: object
    teardown: object


WORKLOADS = {
    w.name: w
    for w in (
        Workload("serve_small", setup_serve_small, measure_serving, teardown_serving),
        Workload("shard_compute", setup_shard_compute, measure_serving, teardown_serving),
        Workload("compile_cold", setup_compile_cold, measure_compile, teardown_compile),
        Workload("compile_warm", setup_compile_warm, measure_compile, teardown_compile),
    )
}
