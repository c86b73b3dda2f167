"""One workload run: set-up, timed passes, gates, traced pass, metrics.

A run is a closed loop with one client: the next pass starts when the
previous one returns.  The inputs are made first.  Passes then run
untimed for ``WARMUP_S`` and timed until ``seconds`` have passed (at
least ``MIN_PASSES``); the only instrumentation in them is the
per-operation timer the latency percentiles need.  Between the timed
passes set-up is timed ``SETUPS`` times, each in a process forked from
one that never ran the workload, so every set-up pays the lazy
initialisation a newly started program pays (:class:`ColdSetups`); the
median is reported.  With ``trace`` set, one more pass
runs with every layer wrapped (see :mod:`benchmarks.e2e.tracing`), and
the per-layer metrics come from it alone.

Every pass does the same operations on the same input, in one process,
so the times of one operation differ from pass to pass only by what
the host did to them; :func:`_pass_times` folds them.
"""

from __future__ import annotations

import multiprocessing
import os
import resource
import statistics
import threading
import time

import numpy as np

from benchmarks.e2e.tracing import StageTracer
from benchmarks.e2e.workloads import LINE_RATE, StreamWorkload, SweepWorkload
from repro.hw.tx_controller import INIT_LATENCY_SAMPLES
from repro.runtime.cache import DEFAULT_CACHE
from repro.runtime.jobs import last_sweep_health

SETUPS = 11
MIN_PASSES = 3
#: Untimed passes first: the first pass of a process pays page faults
#: and lazy imports, and the first second runs measurably slower.
WARMUP_S = 1.0

#: End-to-end metrics: name -> unit.  Directions and regression bounds
#: live in BENCHMARK.json at the repository root.
E2E_METRICS = {
    "rtf": "x",
    "chunk_p50_us": "us",
    "chunk_p90_us": "us",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics: name -> unit.  Every workload reports every one;
#: a layer the workload never enters reads 0.
PER_LAYER_METRICS = {
    "hw.ddc.busy_frac": "frac",
    "dsp.quantize_iq16.busy_frac": "frac",
    "hw.cross_correlator.busy_frac": "frac",
    "kernels.sign_plane.busy_frac": "frac",
    "kernels.xcorr_detect.busy_frac": "frac",
    "hw.banked_correlator.busy_frac": "frac",
    "hw.uhd.busy_frac": "frac",
    "hw.uhd.writes_per_swap": "writes/swap",
    "hw.energy_differentiator.busy_frac": "frac",
    "hw.dsp_core.self_frac": "frac",
    "hw.trigger.busy_frac": "frac",
    "hw.tx_controller.busy_frac": "frac",
    "hw.watchdog.busy_frac": "frac",
    "hw.duc.busy_frac": "frac",
    "hw.usrp.self_frac": "frac",
    "core.jammer.self_frac": "frac",
    "core.jammer.chunks": "count",
    "core.jammer.detections": "count",
    "core.jammer.jams": "count",
    "hw.trigger.fires": "count",
    "hw.tx_controller.schedule_ratio": "ratio",
    "hw.watchdog.admit_ratio": "ratio",
    "runtime.cache.hit_ratio": "ratio",
    "runtime.jobs.effective_speedup": "x",
    "runtime.jobs.worker_utilization": "frac",
    "runtime.jobs.shards": "count",
    "runtime.jobs.retries": "count",
    "runtime.jobs.crashes": "count",
    "runtime.jobs.straggler_ratio": "ratio",
    "kernels.xcorr_detect_batch.busy_frac": "frac",
    "channel.awgn.busy_frac": "frac",
    "stage_coverage_frac": "frac",
    "trace_overhead_frac": "frac",
}

#: A stream workload's traced stages must own this much of the pass.
MIN_STAGE_COVERAGE = 0.95


def sweep_workers() -> int:
    """Pool size for the sweep workloads: two where two cores exist."""
    return min(2, len(os.sched_getaffinity(0)))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tally:
    """Operations attempted and failed, plus the gate verdicts."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.gates: dict[str, str] = {}

    def gate(self, name: str, problems: list[str]) -> bool:
        self.gates[name] = "; ".join(problems) if problems else "ok"
        return not problems

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(v == "ok" for v in self.gates.values())


class OpLatency:
    """Per-operation latencies, kept pass by pass."""

    def __init__(self, pending: list[int]) -> None:
        #: Durations (ns) of the current pass, filled by a timer.
        self.pending = pending
        #: Durations (ns) of each timed pass's operations.
        self.passes: list[np.ndarray] = []

    def end_pass(self, keep: bool) -> None:
        """Keep the pass just run if ``keep``; either way start afresh."""
        if keep:
            self.passes.append(np.array(self.pending, dtype=np.int64))
        self.pending.clear()


def _metric(value: float, unit: str, n: int | None = None) -> dict:
    entry = {"value": float(value), "unit": unit}
    if n is not None:
        entry["n"] = int(n)
    return entry


def _pass_times(pass_ns: list[int],
                latency: OpLatency) -> tuple[float, np.ndarray]:
    """Pass seconds and per-operation microseconds.

    Each operation (a chunk, or a sweep task) counts with its fastest
    time over the timed passes, and the time between operations (the
    chunk loop, report assembly, hot swaps, shard bookkeeping) with its
    fastest pass; the pass time is their sum.  Other tenants of a
    shared host slow whole stretches of a run by a third or more, but
    between those stretches every operation gets a quiet moment: on a
    shared 2-core host the ten-seed spread of ``rtf`` fell from 12-19%
    (median of the fastest quarter of passes) to 4-8%.  Work the
    program does on every pass shows in full.
    """
    ops = np.vstack(latency.passes)
    between = np.asarray(pass_ns) - ops.sum(axis=1)
    fastest = ops.min(axis=0)
    return (fastest.sum() + between.min()) / 1e9, fastest / 1e3


def _e2e(air_s: float, pass_s: float, passes: int, ops_us: np.ndarray,
         setup_s: list[float]) -> dict:
    """End-to-end metrics from a pass time and per-operation times."""
    p50, p90 = np.percentile(ops_us, [50, 90])
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = {
        "rtf": (air_s / pass_s, passes),
        "chunk_p50_us": (p50, ops_us.size),
        "chunk_p90_us": (p90, ops_us.size),
        "setup_s": (statistics.median(setup_s), len(setup_s)),
        "peak_rss_mb": (peak_mib, 1),
    }
    return {name: _metric(value, E2E_METRICS[name], n)
            for name, (value, n) in values.items()}


def _send_result(fn, sender) -> None:
    sender.send(fn())
    for child in multiprocessing.active_children():
        child.join()  # a sweep set-up leaves its pool winding down


def _in_fork(fn):
    """``fn()`` run in a forked child process; returns its result."""
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(target=_send_result, args=(fn, sender))
    child.start()
    sender.close()
    try:
        return receiver.recv()
    except EOFError:
        raise RuntimeError("forked child died before reporting") from None
    finally:
        receiver.close()
        child.join()


def _generate_inputs(wl: StreamWorkload, seed: int):
    """The workload's inputs, made in a child process.

    Made here, the generator's frees left this process's heap in a
    seed-dependent state (glibc's mmap threshold, for one, moves as
    large blocks are freed): passes for some seeds ran 10-20% slower
    than for others, run after run.  Received here, the capture is one
    allocation of a fixed size whatever the seed.
    """
    return _in_fork(lambda: wl.inputs(seed))


def _serve_setups(set_up, conn) -> None:
    """Time one cold set-up per request, each in a fresh fork."""
    def timed() -> float:
        DEFAULT_CACHE.clear()
        start = time.perf_counter()
        set_up()
        return time.perf_counter() - start

    while conn.recv() is not None:
        conn.send(_in_fork(timed))


def _running_threads() -> int:
    """Threads of this process other than the caller that are running."""
    task_dir = f"/proc/{os.getpid()}/task"
    running = 0
    for tid in os.listdir(task_dir):
        if int(tid) == threading.get_native_id():
            continue
        try:
            with open(f"{task_dir}/{tid}/stat", encoding="ascii") as stat:
                state = stat.read().rsplit(")", 1)[1].split()[0]
        except (OSError, IndexError):
            continue  # the thread ended meanwhile
        running += state == "R"
    return running


def _wait_for_idle_threads(limit_s: float = 1.0) -> None:
    """Wait, at most ``limit_s``, until no other thread here runs.

    After a BLAS call its helper threads spin for about 0.1 s before
    they sleep.  A set-up forked meanwhile shares the cores with them:
    on a 2-core host the ``fig6_sweep`` set-up took 48-134 ms right
    after a pass and 40-59 ms once they slept, and a run's median fell
    into one mode or the other.
    """
    if not os.path.isdir("/proc/self/task"):
        return
    deadline = time.perf_counter() + limit_s
    while _running_threads() and time.perf_counter() < deadline:
        time.sleep(0.005)


class ColdSetups:
    """Seconds to first result, each in a freshly forked process.

    The set-ups fork from a server process forked before this one runs
    the workload, so work a change moves into set-up shows on every
    sample, even work memoised per process.  Imports are not counted.
    The timed passes ask for the samples spread over their run: the
    host's speed drifts over seconds, and set-ups taken back to back
    all saw one moment of it (``energy_storm``'s median set-up moved
    by half from run to run).
    """

    def __init__(self, set_up) -> None:
        context = multiprocessing.get_context("fork")
        self._conn, server_conn = context.Pipe()
        self._server = context.Process(target=_serve_setups,
                                       args=(set_up, server_conn))
        self._server.start()
        server_conn.close()
        self.samples: list[float] = []

    def take(self) -> None:
        """Time one more set-up, once this process has gone quiet."""
        _wait_for_idle_threads()
        self._conn.send(True)
        try:
            self.samples.append(self._conn.recv())
        except EOFError:
            raise RuntimeError("a cold set-up failed") from None

    def close(self) -> None:
        """Stop the server and wait for it."""
        try:
            self._conn.send(None)
        except OSError:
            pass  # the server is already gone
        self._conn.close()
        self._server.join()


def _timed_passes(seconds: float, one_pass, after_pass,
                  setups: ColdSetups) -> list[int]:
    """Wall ns of each timed pass.

    Passes run untimed for WARMUP_S, then timed until ``seconds`` have
    passed and MIN_PASSES have run.  ``after_pass(out, timed)`` gets
    each pass's output outside the timed region, so hashing and
    bookkeeping never count as pass time.  Between timed passes the
    SETUPS cold set-ups are taken, evenly over ``seconds``.
    """
    warm_until = time.perf_counter() + WARMUP_S
    while True:
        after_pass(one_pass(), False)
        if time.perf_counter() >= warm_until:
            break
    elapsed: list[int] = []
    begin = time.perf_counter()
    deadline = begin + seconds
    while len(elapsed) < MIN_PASSES or time.perf_counter() < deadline:
        start = time.perf_counter_ns()
        out = one_pass()
        elapsed.append(time.perf_counter_ns() - start)
        after_pass(out, True)
        del out  # free this pass's output before the next pass runs
        due = len(setups.samples) * seconds / SETUPS
        if len(setups.samples) < SETUPS and time.perf_counter() - begin >= due:
            setups.take()
    while len(setups.samples) < SETUPS:
        setups.take()
    return elapsed


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return its full record."""
    if isinstance(workload, StreamWorkload):
        return _measure_stream(workload, seed, seconds, trace)
    if isinstance(workload, SweepWorkload):
        try:
            return _measure_sweep(workload, seed, seconds, trace,
                                  sweep_workers())
        finally:
            for child in multiprocessing.active_children():
                child.join()
    raise TypeError(f"not a workload: {workload!r}")


# ---------------------------------------------------------------------------
# Streams


def _measure_stream(wl: StreamWorkload, seed: int, seconds: float,
                    trace: bool) -> dict:
    inputs = _generate_inputs(wl, seed)
    setups = ColdSetups(lambda: wl.first_result(wl.build(), inputs))
    timer = StageTracer()
    try:
        jammer = wl.build()
        timer.wrap(jammer.device, "process", "chunk", keep_durations=True)
    except BaseException:
        setups.close()
        raise
    latency = OpLatency(timer.stages["chunk"].durations_ns)

    tally = Tally()
    digests: list[tuple[str, int]] = []
    first: list = []  # pass 0's output, the reference the gates inspect
    errors: list[str] = []

    def one_pass(chunk: int = wl.chunk):
        try:
            return wl.run_pass(jammer, inputs, chunk)
        except Exception as exc:  # a failed pass is counted, not fatal
            errors.append(f"{type(exc).__name__}: {exc}")
            ops = wl.chunk_count(inputs, chunk)
            tally.attempted += ops
            tally.failed += ops
            return None

    def after_pass(out, timed: bool) -> None:
        latency.end_pass(keep=timed)
        if out is None:
            return
        tally.attempted += out.chunks
        tally.failed += out.skipped
        digests.append((out.digest(), out.chunks))
        if not first:
            first.append(out)

    try:
        pass_ns = _timed_passes(seconds, one_pass, after_pass, setups)
    finally:
        timer.close()
        setups.close()
    if not first:
        raise RuntimeError(f"{wl.name}: every pass failed: {errors[0]}")
    reference = first[0]
    digest = reference.digest()
    mismatched = [chunks for d, chunks in digests if d != digest]
    tally.failed += sum(mismatched)
    tally.gate("passes_identical",
               [f"{len(mismatched)} passes differ from pass 0"]
               if mismatched else [])

    del digests[:]
    after_pass(one_pass(wl.alt_chunk), False)
    alt_ok = bool(digests) and digests[0][0] == digest
    if not tally.gate("chunk_invariant", [] if alt_ok else [
            f"chunk {wl.alt_chunk} output differs from chunk {wl.chunk}"]):
        tally.failed += sum(chunks for _d, chunks in digests)
    tally.gate("no_errors", errors[:3])

    budget = INIT_LATENCY_SAMPLES + wl.personality.delay_samples
    late = [jam for jam in reference.jams
            if jam.start - jam.trigger_time != budget]
    output_ok = tally.gate(
        "fig5_latency",
        [f"{len(late)} jams do not start {budget} samples after their "
         "trigger"] if late else [])
    output_ok &= tally.gate(f"{wl.name}_outputs", wl.check(inputs, reference))
    if not output_ok:
        tally.failed = tally.attempted

    median_ns = statistics.median(pass_ns)
    pass_s, chunks_us = _pass_times(pass_ns, latency)
    record = {
        "e2e": _e2e(inputs.rx.size / LINE_RATE, pass_s, len(pass_ns),
                    chunks_us, setups.samples),
        "digest": digest,
        "detail": {"samples": inputs.rx.size, "passes": len(pass_ns),
                   "pass_ms_median": median_ns / 1e6,
                   "chunks_per_pass": reference.chunks,
                   "detections": len(reference.detections),
                   "jams": len(reference.jams)},
    }
    if trace:
        record.update(_trace_stream(wl, jammer, inputs, digest, median_ns,
                                    tally))
    record.update(correct=tally.correct, attempted=tally.attempted,
                  failed=tally.failed, gates=tally.gates)
    return record


def _trace_stream(wl: StreamWorkload, jammer, inputs, digest: str,
                  untraced_ns: float, tally: Tally) -> dict:
    tracer = StageTracer()
    wl.trace_layers(tracer, jammer)
    hits, misses = DEFAULT_CACHE.hits, DEFAULT_CACHE.misses
    writes = jammer.driver.register_writes()
    start = time.perf_counter_ns()
    try:
        out = wl.run_pass(jammer, inputs, wl.chunk)
    finally:
        wall = time.perf_counter_ns() - start
        tracer.close()
    writes = jammer.driver.register_writes() - writes
    lookups = DEFAULT_CACHE.hits - hits + DEFAULT_CACHE.misses - misses
    tally.attempted += out.chunks
    if not tally.gate("traced_pass_identical",
                      [] if out.digest() == digest else
                      ["the traced pass changed the output"]):
        tally.failed += out.chunks

    stages = tracer.stages
    counts = tracer.counts

    def busy(stage: str) -> float:
        stats = stages.get(stage)
        return _ratio(stats.total_ns, wall) if stats else 0.0

    def own(stage: str) -> float:
        stats = stages.get(stage)
        return _ratio(stats.self_ns, wall) if stats else 0.0

    fires = counts.get("hw.trigger.fires", 0)
    scheduled = counts.get("hw.tx_controller.scheduled", 0)
    # Without a watchdog nothing vetoes a burst.
    admitted = counts.get("hw.watchdog.admitted", scheduled)
    layers = {name: 0.0 for name in PER_LAYER_METRICS}
    layers.update({
        f"{stage}.busy_frac": busy(stage) for stage in (
            "hw.ddc", "dsp.quantize_iq16", "hw.cross_correlator",
            "kernels.sign_plane", "kernels.xcorr_detect",
            "hw.banked_correlator", "hw.uhd", "hw.energy_differentiator",
            "hw.trigger", "hw.tx_controller", "hw.watchdog", "hw.duc")})
    layers.update({
        f"{stage}.self_frac": own(stage)
        for stage in ("hw.dsp_core", "hw.usrp", "core.jammer")})
    layers.update({
        name: counts.get(name, 0) for name in (
            "core.jammer.chunks", "core.jammer.detections",
            "core.jammer.jams", "hw.trigger.fires")})
    layers.update({
        "hw.uhd.writes_per_swap": _ratio(writes, counts.get("hw.uhd.swaps",
                                                            0)),
        "hw.tx_controller.schedule_ratio": _ratio(scheduled, fires),
        "hw.watchdog.admit_ratio": _ratio(admitted, scheduled),
        "runtime.cache.hit_ratio": _ratio(DEFAULT_CACHE.hits - hits, lookups),
        "stage_coverage_frac": _ratio(tracer.covered_ns(), wall),
        "trace_overhead_frac": wall / untraced_ns - 1.0,
    })
    coverage = layers["stage_coverage_frac"]
    tally.gate("stage_coverage",
               [] if coverage >= MIN_STAGE_COVERAGE else
               [f"stages own {coverage:.1%} of the traced pass, "
                f"under {MIN_STAGE_COVERAGE:.0%}"])
    return {"per_layer": {name: _metric(value, PER_LAYER_METRICS[name])
                          for name, value in layers.items()},
            "stages": tracer.table(wall), "traced_wall_ns": wall}


# ---------------------------------------------------------------------------
# Sweeps


def _sweep_health(tally: Tally) -> dict:
    """Fold the last sweep's shard outcomes into the tally."""
    health = last_sweep_health()
    tally.attempted += health.total_shards
    tally.failed += health.crashes + health.hangs + len(health.quarantined)
    return health.to_dict()


def _measure_sweep(wl: SweepWorkload, seed: int, seconds: float,
                   trace: bool, workers: int) -> dict:
    """Timed sweeps run serially; one more sweep runs on the pool.

    At ``workers=2`` on two cores each worker's BLAS threads contend
    with the other's, and a task then takes about 3, 7, 16, 20 or
    24 ms: its own 3 ms plus whole 4 ms scheduler ticks.  Some sweeps
    took 0.8-1.0 s and others 1.4-1.6 s, with no pattern a run could
    average out; that measures the host's scheduler.  So the
    end-to-end metrics time the sweep in one process, and the pool's
    speed-up against it is a per-layer metric.
    """
    setups = ColdSetups(lambda: wl.setup(seed))
    tally = Tally()
    digests: list[str] = []
    first: list = []
    timer = StageTracer()
    latency = OpLatency([])

    def after_pass(result: list, timed: bool) -> None:
        latency.end_pass(keep=timed)
        _sweep_health(tally)
        digests.append(wl.digest(result))
        if not first:
            first.append(result)

    try:
        wl.time_tasks(timer, latency.pending)
        pass_ns = _timed_passes(seconds, lambda: wl.run(seed, 1),
                                after_pass, setups)
    finally:
        timer.close()
        setups.close()
    reference = first[0]
    digest = digests[0]
    mismatched = sum(d != digest for d in digests)
    tally.gate("passes_identical",
               [f"{mismatched} sweeps differ from sweep 0"]
               if mismatched else [])
    output_ok = tally.gate(f"{wl.name}_outputs", wl.check(reference))

    pool = StageTracer()
    if trace:
        wl.trace_layers(pool)
    start = time.perf_counter_ns()
    try:
        pool_result = wl.run(seed, workers)
    finally:
        pool_ns = time.perf_counter_ns() - start
        pool.close()
    health = _sweep_health(tally)
    output_ok &= tally.gate(
        "workers_equal_serial",
        [] if wl.digest(pool_result) == digest else
        [f"workers={workers} curve differs from workers=1"])
    if mismatched or not output_ok:
        tally.failed = tally.attempted

    median_ns = statistics.median(pass_ns)
    sweep_s, tasks_us = _pass_times(pass_ns, latency)
    record = {
        "e2e": _e2e(wl.air_seconds(), sweep_s, len(pass_ns), tasks_us,
                    setups.samples),
        "digest": digest,
        "detail": {"workers": workers, "sweeps": len(pass_ns),
                   "serial_s_median": median_ns / 1e9,
                   "pool_s": pool_ns / 1e9,
                   "summary": [list(row) for row in wl.summary(reference)]},
    }
    if trace:
        record.update(_trace_sweep(wl, seed, median_ns, digest, tally,
                                   workers, pool_ns, health))
    record.update(correct=tally.correct, attempted=tally.attempted,
                  failed=tally.failed, gates=tally.gates)
    return record


def _trace_sweep(wl: SweepWorkload, seed: int, untraced_ns: float,
                 digest: str, tally: Tally, workers: int, pool_ns: int,
                 health: dict) -> dict:
    """Stage fractions from one traced serial sweep, pool numbers too.

    The pool sweep before it ran traced as well, so its time against
    this one's is the pool's speed-up with both paying the same
    wrappers.
    """
    serial = StageTracer()
    serial_tasks: list[int] = []
    wl.time_tasks(serial, serial_tasks)
    wl.trace_layers(serial)
    hits, misses = DEFAULT_CACHE.hits, DEFAULT_CACHE.misses
    start = time.perf_counter_ns()
    try:
        result = wl.run(seed, 1)
    finally:
        wall = time.perf_counter_ns() - start
        serial.close()
    _sweep_health(tally)
    if not tally.gate("traced_pass_identical",
                      [] if wl.digest(result) == digest else
                      ["the traced sweep changed the curve"]):
        tally.failed = tally.attempted
    lookups = DEFAULT_CACHE.hits - hits + DEFAULT_CACHE.misses - misses
    layers = {name: 0.0 for name in PER_LAYER_METRICS}
    layers.update({
        "runtime.cache.hit_ratio": _ratio(DEFAULT_CACHE.hits - hits,
                                          lookups),
        "runtime.jobs.straggler_ratio":
            max(serial_tasks) / statistics.mean(serial_tasks),
        "stage_coverage_frac": _ratio(serial.covered_ns(), wall),
        "trace_overhead_frac": wall / untraced_ns - 1.0,
        "runtime.jobs.effective_speedup": wall / pool_ns,
        "runtime.jobs.worker_utilization": wall / (workers * pool_ns),
        "runtime.jobs.shards": health["total_shards"],
        "runtime.jobs.retries": health["retries"],
        "runtime.jobs.crashes": health["crashes"],
    })
    for stage in ("kernels.xcorr_detect_batch", "channel.awgn"):
        layers[f"{stage}.busy_frac"] = _ratio(serial.stages[stage].total_ns,
                                              wall)
    return {"per_layer": {name: _metric(value, PER_LAYER_METRICS[name])
                          for name, value in layers.items()},
            "stages": serial.table(wall), "traced_wall_ns": wall}
