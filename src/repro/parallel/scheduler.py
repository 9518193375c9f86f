"""The batch scheduler: bounded in-flight fan-out, in-order merge,
fault-tolerant execution.

Execution model (tentpole of the parallel layer):

* the parent packs reads into :class:`~repro.parallel.batch.ReadBatch`
  units and submits them to a ``ProcessPoolExecutor`` whose workers were
  initialized once with an *engine spec* -- either a shared-memory index
  attachment (``("shm", name, size, gather_limit)``, zero-copy) or a
  pickled engine (``("pickle", engine)``, for index types without a flat
  buffer form);
* at most ``max_inflight`` batches are outstanding; results are consumed
  strictly in submission order, so concatenating per-batch payloads
  reproduces the serial output **byte for byte** regardless of worker
  finishing order;
* every batch returns ``(payload, stats delta, telemetry snapshot)``;
  the parent folds stats into one :class:`~repro.seeding.engine.
  EngineStats` and merges worker telemetry into the live registry, so
  ``--profile`` / ``--metrics-out`` see the same counters as a serial
  run;
* ``workers <= 1`` short-circuits to an in-process loop over the same
  batches -- no pool, no pickling, live telemetry -- which still gains
  the per-batch pre-encoding and the engine's ``begin_batch`` hoists
  (the serial fast path).

Fault model (see :mod:`repro.parallel.faults` and docs/performance.md):

* failures are classified into typed errors -- a dead worker or expired
  per-batch timeout is *retryable* (batches are pure functions), an
  exception raised by the task itself or a pickling failure is
  deterministic and propagates immediately;
* on a retryable failure the scheduler kills the pool, backs off
  exponentially, respawns, and resubmits every unconsumed batch in
  submission order -- the merge point never moves, so output stays
  byte-identical to serial across any number of recoveries;
* every freshly (re)spawned pool is probed with a no-op task before
  batches flow, so "the pool cannot be built" (e.g. its initializer
  always dies) is detected deterministically; in that case the remaining
  batches degrade to the in-process serial path with a
  ``RuntimeWarning`` and a ``parallel.fallback_serial`` telemetry
  counter rather than failing the run.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import warnings
from collections import deque
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, field
from pickle import PicklingError
from typing import Any, Callable, Iterable, Iterator, Sequence, Tuple

from repro import telemetry
from repro.logging import get_logger
from repro.core.engine import ErtSeedingEngine
from repro.core.index import ErtIndex
from repro.extend.paired import PairedAligner
from repro.extend.pipeline import ReadAligner
from repro.extend.sam import SamRecord
from repro.kernels import (
    KernelBatchStats,
    batched_sw_traceback,
    resolve_kernels,
    seed_batch,
    vector_decline_reason,
)
from repro.memsim.trace import MemoryTracer
from repro.parallel.batch import ReadBatch, iter_chunks, pack_batch
from repro.parallel.faults import (
    BatchSerializationError,
    BatchTaskError,
    BatchTimeoutError,
    ParallelExecutionError,
    PoolUnavailableError,
    RetryPolicy,
    WorkerCrashError,
    default_retries,
)
from repro.parallel.shm import SharedIndexBuffer, attach_index
from repro.seeding.algorithm import SeedingParams, SeedingResult, seed_read
from repro.seeding.engine import EngineStats, SeedingEngine
from repro.telemetry.progress import ProgressReporter

#: One batch's wire result: payload, engine-stats delta, telemetry
#: snapshot delta (None in serial mode, where telemetry records live).
BatchResult = Tuple[Any, "dict[str, int]", "dict[str, Any] | None"]

EngineSpec = Tuple[Any, ...]

#: Structured operational events (pool lifecycle, faults, degradation);
#: a no-op unless the run configured `repro.logging` (--log-jsonl).
_log = get_logger("parallel.scheduler")


@dataclass(frozen=True)
class ParallelConfig:
    """Knobs of the batch execution layer.

    ``workers=None`` defers to :func:`default_workers` (the
    ``REPRO_WORKERS`` environment variable, else 1), which is how the CI
    matrix drives the whole test suite through the pool without touching
    every call site.  ``retries=None`` likewise defers to
    ``$REPRO_RETRIES`` (else :data:`~repro.parallel.faults.
    DEFAULT_RETRIES`); ``batch_timeout`` is in seconds, ``None`` waits
    forever.
    """

    workers: "int | None" = None
    batch_size: int = 64
    max_inflight: "int | None" = None
    retries: "int | None" = None
    batch_timeout: "float | None" = None
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    #: Multiprocessing start method for the pool ("fork"/"spawn"/
    #: "forkserver"); None defers to the platform default.  Output and
    #: merged telemetry are identical either way -- spawn just pays a
    #: slower worker boot, which the fault/exemplar tests exercise.
    start_method: "str | None" = None
    #: Kernel selection ("scalar"/"vector"); None defers to
    #: ``$REPRO_KERNELS`` (else scalar).  "vector" routes seeding through
    #: the batched kernels (:mod:`repro.kernels`) wherever the engine is
    #: eligible -- output stays byte-identical at any worker count.
    kernels: "str | None" = None

    def resolved_workers(self) -> int:
        if self.workers is not None:
            return max(1, self.workers)
        return default_workers()

    def resolved_kernels(self) -> str:
        return resolve_kernels(self.kernels)

    def resolved_inflight(self, workers: int) -> int:
        if self.max_inflight is not None:
            return max(1, self.max_inflight)
        return 2 * workers

    def resolved_policy(self) -> RetryPolicy:
        retries = (self.retries if self.retries is not None
                   else default_retries())
        return RetryPolicy(retries=max(0, retries),
                           backoff_s=self.backoff_s,
                           backoff_factor=self.backoff_factor,
                           batch_timeout=self.batch_timeout)


def default_workers() -> int:
    """Worker count when unspecified: ``$REPRO_WORKERS``, else 1."""
    value = os.environ.get("REPRO_WORKERS", "")
    try:
        return max(1, int(value))
    except ValueError:
        if value:
            warnings.warn(
                f"ignoring unparsable REPRO_WORKERS={value!r}; "
                f"running with 1 worker", RuntimeWarning, stacklevel=2)
        return 1


# ----------------------------------------------------------------------
# The seed stage
# ----------------------------------------------------------------------
#
# Every runner seeds its batch through this one stage; scalar and vector
# are its two implementations.  Exemplar capture lives in the runners,
# the one place that knows the read *names* and runs identically on the
# serial fast path and inside pool workers; with telemetry disabled it
# costs a flag check and never touches the payload.


def _no_counters(i: int) -> "dict[str, int]":
    return {}


@dataclass(frozen=True)
class SeededBatch:
    """One batch through the seed stage: the decoded ``reads`` and one
    :class:`~repro.seeding.algorithm.SeedingResult` per read, in input
    order.  Under an open read probe (``probe`` not ``None``) also each
    read's exemplar counters (``counters(i)``, built lazily on the vector
    path), its seed wall time (``seed_ms[i]``) and the records' backend
    tag (``kernels``: ``"vector"``, or ``None`` for scalar)."""

    reads: "list[Any]"
    results: "list[SeedingResult]"
    probe: "int | None" = None
    seed_ms: "list[float]" = field(default_factory=list)
    counters: "Callable[[int], dict[str, int]]" = _no_counters
    kernels: "str | None" = None


def seed_stage(engine: SeedingEngine, batch: ReadBatch,
               params: SeedingParams,
               kernels: "str | None" = None) -> SeededBatch:
    """Seed a whole batch, through the batched kernels exactly when
    ``kernels == "vector"`` and :func:`~repro.kernels.seeding.
    vector_decline_reason` accepts the engine; a decline is counted once
    per batch as ``kernels.fallback_scalar.<reason>``."""
    reads = batch.reads()
    engine.begin_batch(reads)
    if kernels == "vector":
        reason = vector_decline_reason(engine)
        if reason is None:
            return _seed_vector(engine, reads, params)
        telemetry.count("kernels.fallback_scalar." + reason)
    return _seed_scalar(engine, reads, params)


def _seed_vector(engine: SeedingEngine, reads: "list[Any]",
                 params: SeedingParams) -> SeededBatch:
    """One ``seed_batch`` sweep.  Its hot loops are telemetry-free by
    construction, so one probe brackets the batch: a read's counters are
    its :class:`~repro.kernels.stats.KernelBatchStats` column and its
    wall time is its work-weighted share of the batch."""
    probe = telemetry.read_probe()
    if probe is None:
        return SeededBatch(reads, seed_batch(engine, reads, params))
    stats = KernelBatchStats(len(reads))
    results = seed_batch(engine, reads, params, stats=stats)
    shares = stats.wall_shares(telemetry.probe_ms(probe)).tolist()
    return SeededBatch(reads, results, probe, shares, stats.read_counters,
                       "vector")


def _seed_scalar(engine: SeedingEngine, reads: "list[Any]",
                 params: SeedingParams) -> SeededBatch:
    """A ``seed_read`` loop.  Under a probe each read gets its engine
    counter deltas, memsim bytes when a memory tracer is attached to the
    engine's index, and its measured wall time."""
    probe = telemetry.read_probe()
    if probe is None:
        return SeededBatch(reads, [seed_read(engine, read, params)
                                   for read in reads])
    tracer = getattr(getattr(engine, "index", None), "tracer", None)
    results: "list[SeedingResult]" = []
    seed_ms: "list[float]" = []
    counters: "list[dict[str, int]]" = []
    for read in reads:
        before = engine.stats.as_dict()
        bytes_before = tracer.total_bytes if tracer is not None else 0
        started = telemetry.read_probe()
        results.append(seed_read(engine, read, params))
        seed_ms.append(telemetry.probe_ms(started))
        delta = {name: value - before.get(name, 0)
                 for name, value in engine.stats.as_dict().items()}
        if tracer is not None:
            delta["memsim_bytes"] = tracer.total_bytes - bytes_before
        counters.append(delta)
    return SeededBatch(reads, results, probe, seed_ms, counters.__getitem__)


# ----------------------------------------------------------------------
# Per-batch task runners (constructed inside each worker)
# ----------------------------------------------------------------------

#: The extension stage's vector implementation: the batched wavefront
#: traceback (scalar is the aligner's per-chain kernel).
_TRACEBACK_KERNELS = {"vector": batched_sw_traceback}


def _make_aligner(engine: SeedingEngine,
                  options: "dict[str, Any]") -> ReadAligner:
    return ReadAligner(
        engine.index.reference,  # type: ignore[attr-defined]
        engine, params=options.get("params"),
        tb_batch=_TRACEBACK_KERNELS.get(options.get("kernels", "")))


class _SeedRunner:
    """Three-round seeding; emits the CLI's TSV lines verbatim."""

    def __init__(self, engine: SeedingEngine,
                 options: "dict[str, Any]") -> None:
        self.engine = engine
        self.params: SeedingParams = options["params"]
        self.kernels: "str | None" = options.get("kernels")

    def __call__(self, batch: ReadBatch) -> "list[str]":
        seeded = seed_stage(self.engine, batch, self.params, self.kernels)
        lines: "list[str]" = []
        for name, result in zip(batch.names, seeded.results):
            for seed in result.all_seeds:
                hits = ",".join(str(h) for h in seed.hits)
                lines.append(f"{name}\t{seed.read_start}\t{seed.length}"
                             f"\t{seed.hit_count}\t{hits}\n")

        def counters(i: int) -> "dict[str, int]":
            all_seeds = seeded.results[i].all_seeds
            return dict(seeded.counters(i), seeds=len(all_seeds),
                        seed_hits=sum(s.hit_count for s in all_seeds))

        telemetry.record_reads(seeded.probe, list(batch.names),
                               seeded.seed_ms, counters, task="seed",
                               kernels=seeded.kernels)
        return lines


class _AlignRunner:
    """Single-end alignment to SAM records: the seed stage, then
    per-read extension with the seeding injected."""

    def __init__(self, engine: SeedingEngine,
                 options: "dict[str, Any]") -> None:
        self.kernels: "str | None" = options.get("kernels")
        self.aligner = _make_aligner(engine, options)

    def __call__(self, batch: ReadBatch) -> "list[SamRecord]":
        aligner = self.aligner
        seeded = seed_stage(aligner.engine, batch, aligner.params,
                            self.kernels)
        records: "list[SamRecord]" = []
        extend_ms: "list[float]" = []
        read_stats: "list[dict[str, int]]" = []
        for name, quality, read, seeding in zip(
                batch.names, batch.qualities, seeded.reads,
                seeded.results):
            probe = telemetry.read_probe()
            records.append(aligner.align_sam(read, name, quality,
                                             seeding=seeding))
            extend_ms.append(telemetry.probe_ms(probe))
            read_stats.append(aligner.read_stats)
        telemetry.record_reads(
            seeded.probe, list(batch.names),
            [s + e for s, e in zip(seeded.seed_ms, extend_ms)],
            lambda i: {**seeded.counters(i), **read_stats[i]},
            task="align", kernels=seeded.kernels)
        return records


class _AlignPairsRunner:
    """Paired-end alignment over interleaved (mate1, mate2) batches; one
    exemplar per *pair*, the scheduling unit of the paired path."""

    def __init__(self, engine: SeedingEngine,
                 options: "dict[str, Any]") -> None:
        self.kernels: "str | None" = options.get("kernels")
        self.paired = PairedAligner(_make_aligner(engine, options),
                                    insert_mean=options["insert_mean"],
                                    insert_sd=options["insert_sd"])

    def __call__(self, batch: ReadBatch) -> "list[SamRecord]":
        aligner = self.paired.aligner
        seeded = seed_stage(aligner.engine, batch, aligner.params,
                            self.kernels)
        reads, results = seeded.reads, seeded.results
        records: "list[SamRecord]" = []
        extend_ms: "list[float]" = []
        names = [name.split("/")[0] for name in batch.names[0::2]]
        for i in range(0, len(reads), 2):
            probe = telemetry.read_probe()
            records.extend(self.paired.align_pair(
                reads[i], reads[i + 1], names[i // 2],
                batch.qualities[i], batch.qualities[i + 1],
                seeding1=results[i], seeding2=results[i + 1]))
            extend_ms.append(telemetry.probe_ms(probe))

        def counters(pair: int) -> "dict[str, int]":
            first = seeded.counters(2 * pair)
            second = seeded.counters(2 * pair + 1)
            return {name: first.get(name, 0) + second.get(name, 0)
                    for name in first.keys() | second.keys()}

        telemetry.record_reads(
            seeded.probe, names,
            [a + b + e for a, b, e in zip(seeded.seed_ms[0::2],
                                          seeded.seed_ms[1::2], extend_ms)],
            counters, task="align-pe", kernels=seeded.kernels)
        return records


class _TrafficRunner:
    """Seeding under a fresh per-batch memory tracer; totals are exactly
    additive across batches (per-read accounting, no cross-read state)."""

    def __init__(self, engine: SeedingEngine,
                 options: "dict[str, Any]") -> None:
        self.engine = engine
        self.params: SeedingParams = options["params"]

    def __call__(self, batch: ReadBatch) \
            -> "tuple[int, int, dict[str, tuple[int, int]]]":
        index = self.engine.index  # type: ignore[attr-defined]
        tracer = MemoryTracer()
        index.attach_tracer(tracer)
        try:
            reads = batch.reads()
            self.engine.begin_batch(reads)
            for read in reads:
                seed_read(self.engine, read, self.params)
        finally:
            index.attach_tracer(None)
        by_phase = {phase: (stats.requests, stats.bytes)
                    for phase, stats in tracer.by_phase.items()}
        return tracer.total_requests, tracer.total_bytes, by_phase


_RUNNERS: "dict[str, Callable[[SeedingEngine, dict[str, Any]], Any]]" = {
    "seed": _SeedRunner,
    "align": _AlignRunner,
    "align-pe": _AlignPairsRunner,
    "traffic": _TrafficRunner,
}


# ----------------------------------------------------------------------
# Worker lifecycle
# ----------------------------------------------------------------------

#: Per-process worker state, populated once by the pool initializer.
_WORKER: "dict[str, Any]" = {}


def _make_engine(spec: EngineSpec) -> SeedingEngine:
    kind = spec[0]
    if kind == "local":
        return spec[1]
    if kind == "shm":
        _, name, size, gather_limit = spec
        recorder = telemetry.recorder()
        recorder.begin("shm.attach", {"segment": name, "bytes": size})
        try:
            index = attach_index(name, size)
        finally:
            recorder.end("shm.attach")
        return ErtSeedingEngine(index, gather_limit=gather_limit)
    if kind == "pickle":
        return spec[1]
    raise ValueError(f"unknown engine spec kind {kind!r}")


def _worker_init(spec: EngineSpec, task: str, options: "dict[str, Any]",
                 telemetry_on: bool,
                 events_epoch: "int | None" = None) -> None:
    fault = options.get("fault")
    if fault is not None and fault.get("kind") == "init-raise":
        raise RuntimeError("injected pool-init fault")
    # fork_reset, not reset: under fork this process may have inherited
    # an open parent span (the recovery span during a respawn); a plain
    # reset would refuse and kill the worker in its initializer.  It runs
    # *before* engine construction so timeline capture (restarted on the
    # parent's epoch just below) can see the shm attach.
    telemetry.fork_reset()
    if telemetry_on:
        telemetry.enable()
    else:
        telemetry.disable()
    if events_epoch is not None:
        telemetry.start_recording(events_epoch)
    with telemetry.recorder().scope("worker.init"):
        engine = _make_engine(spec)
        _WORKER["runner"] = _RUNNERS[task](engine, options)
    _WORKER["engine"] = engine
    _WORKER["telemetry"] = telemetry_on
    _WORKER["events"] = events_epoch is not None
    _WORKER["fault"] = fault


def _trip_injected_fault(fault: "dict[str, Any] | None") -> None:
    """Fault-injection hook for the test battery
    (``tests/test_parallel_faults.py``): trip at most once per ``token``
    file (``O_EXCL`` creation is the cross-process turnstile), so a
    retried batch runs clean on a respawned pool."""
    if fault is None:
        return
    token = fault.get("token")
    if token is not None:
        try:
            os.close(os.open(token, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            return
    kind = fault["kind"]
    if kind == "sigkill":
        import signal

        os.kill(os.getpid(), signal.SIGKILL)
    elif kind == "hang":
        time.sleep(float(fault.get("seconds", 30.0)))
    elif kind == "raise":
        raise RuntimeError("injected batch fault")


def _run_batch(batch: ReadBatch, batch_index: int) -> BatchResult:
    _trip_injected_fault(_WORKER.get("fault"))
    engine: SeedingEngine = _WORKER["engine"]
    engine.reset_stats()
    if _WORKER["telemetry"]:
        telemetry.reset()
    recorder = telemetry.recorder()
    with recorder.scope("batch", {"index": batch_index,
                                  "reads": len(batch.names)}):
        payload = _WORKER["runner"](batch)
    snap: "dict[str, Any] | None" = (telemetry.snapshot()
                                     if _WORKER["telemetry"] else None)
    if _WORKER.get("events"):
        # The drained worker track rides back inside the snapshot slot of
        # the existing wire tuple; merge_snapshot absorbs it in the
        # parent even when metrics are disabled.
        track = telemetry.drain_timeline()
        if track is not None:
            snap = {"timeline": track} if snap is None \
                else dict(snap, timeline=track)
    return payload, engine.stats.as_dict(), snap


# ----------------------------------------------------------------------
# Pool lifecycle (crash recovery)
# ----------------------------------------------------------------------


def _worker_ready() -> bool:
    """No-op probe task: completing it proves the pool's workers came up
    (their initializer ran) and the result channel works."""
    return True


class _PoolManager:
    """Owns the executor across respawns.

    One instance spans the whole run: it builds the initial pool and
    kills/rebuilds it after a retryable failure.  Every (re)spawn is
    probed with a no-op task before batches flow -- a pool whose
    initializer always dies is indistinguishable from one that cannot
    be constructed, and the probe converts both into a deterministic
    :class:`PoolUnavailableError` instead of letting init failures
    masquerade as mid-batch worker crashes.
    """

    def __init__(self, workers: int, spec: EngineSpec, task: str,
                 options: "dict[str, Any]", telemetry_on: bool,
                 events_epoch: "int | None" = None,
                 start_method: "str | None" = None) -> None:
        self._workers = workers
        self._task = task
        self._initargs = (spec, task, options, telemetry_on, events_epoch)
        self._start_method = start_method
        self._pool: "ProcessPoolExecutor | None" = None

    def spawn(self) -> None:
        try:
            mp_context = (multiprocessing.get_context(self._start_method)
                          if self._start_method is not None else None)
            self._pool = ProcessPoolExecutor(
                max_workers=self._workers, mp_context=mp_context,
                initializer=_worker_init, initargs=self._initargs)
            self._pool.submit(_worker_ready).result()
        except Exception as exc:
            self.kill()
            _log.error("pool.unavailable", workers=self._workers,
                       task=self._task, error=str(exc))
            raise PoolUnavailableError(
                f"cannot build a working {self._workers}-worker pool: "
                f"{exc}") from exc
        _log.info("pool.spawn", workers=self._workers, task=self._task,
                  start_method=(self._start_method
                                or multiprocessing.get_start_method()))

    def submit(self, batch: ReadBatch,
               batch_index: int) -> "Future[BatchResult]":
        """Submit one batch; a submission-time pool failure comes back
        as a failed future so the merge loop owns all classification."""
        assert self._pool is not None
        try:
            return self._pool.submit(_run_batch, batch, batch_index)
        except (BrokenExecutor, RuntimeError) as exc:
            failed: "Future[BatchResult]" = Future()
            failed.set_exception(exc)
            return failed

    def kill(self) -> None:
        """Tear the pool down without waiting: cancel queued work and
        terminate worker processes outright, so a wedged batch cannot
        stall recovery (or leak a worker holding the index mapping)."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        processes = list((getattr(pool, "_processes", None) or {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for proc in processes:
            try:
                proc.kill()
            except (OSError, ValueError, AttributeError):
                pass  # already dead or reaped
        for proc in processes:
            try:
                proc.join(timeout=1.0)
            except (OSError, ValueError, AssertionError):
                pass

    def respawn(self) -> None:
        self.kill()
        self.spawn()

    def shutdown(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)


class _PendingBatch:
    """Submission-order bookkeeping for one in-flight batch."""

    __slots__ = ("index", "batch", "failures", "future")

    def __init__(self, index: int, batch: ReadBatch,
                 future: "Future[BatchResult]") -> None:
        self.index = index
        self.batch = batch
        self.failures = 0
        self.future = future


def _classify_failure(exc: BaseException,
                      batch_index: int) -> ParallelExecutionError:
    """Map a raw executor exception to the typed taxonomy."""
    if isinstance(exc, FuturesTimeoutError):
        return BatchTimeoutError(
            f"batch {batch_index} timed out", batch_index)
    if isinstance(exc, BrokenExecutor):
        return WorkerCrashError(
            f"worker pool broke while running batch {batch_index}: {exc}",
            batch_index)
    if isinstance(exc, PicklingError):
        return BatchSerializationError(
            f"batch {batch_index} failed to cross the process boundary: "
            f"{exc}", batch_index)
    return BatchTaskError(
        f"task raised inside the worker on batch {batch_index}: "
        f"{exc!r}", batch_index)


def _fallback_engine(spec: EngineSpec) -> SeedingEngine:
    """In-process engine for the degraded path: attach the (still live)
    parent-owned segment for shm specs, reuse the engine otherwise."""
    if spec[0] == "shm":
        _, name, size, gather_limit = spec
        return ErtSeedingEngine(attach_index(name, size),
                                gather_limit=gather_limit)
    return spec[1]


def _serial_batches(engine: SeedingEngine, task: str,
                    options: "dict[str, Any]",
                    batches: "Iterable[ReadBatch]") \
        -> "Iterator[BatchResult]":
    """The in-process loop shared by the serial fast path and the
    degraded-mode fallback."""
    runner = _RUNNERS[task](engine, options)
    recorder = telemetry.recorder()
    for index, batch in enumerate(batches):
        engine.reset_stats()
        with recorder.scope("batch", {"index": index,
                                      "reads": len(batch.names)}):
            payload = runner(batch)
        yield payload, engine.stats.as_dict(), None


def _degrade_to_serial(spec: EngineSpec, task: str,
                       options: "dict[str, Any]",
                       batches: "Sequence[ReadBatch]",
                       cause: ParallelExecutionError) \
        -> "Iterator[BatchResult]":
    """Graceful degradation: finish the remaining batches in-process.

    Output is unaffected -- the serial loop runs the same batch units
    through the same runners -- only throughput degrades, which is worth
    a warning and a counter but never a failed run.
    """
    warnings.warn(
        f"worker pool unavailable ({cause}); degrading to in-process "
        f"serial execution for {len(batches)} remaining batch(es)",
        RuntimeWarning, stacklevel=3)
    telemetry.count("parallel.fallback_serial")
    _log.error("pool.degrade_serial", task=task, reason=str(cause),
               remaining_batches=len(batches))
    return _serial_batches(_fallback_engine(spec), task, options, batches)


def _pool_map(spec: EngineSpec, task: str, options: "dict[str, Any]",
              batches: "Sequence[ReadBatch]",
              config: ParallelConfig, workers: int,
              reporter: "ProgressReporter | None" = None) \
        -> "Iterator[BatchResult]":
    """The fault-tolerant pool path behind :func:`map_batches`."""
    policy = config.resolved_policy()
    recorder = telemetry.recorder()
    # Ship the parent's trace epoch through the pool initializer so
    # worker events land on the same timeline (the monotonic clock is
    # system-wide on the platforms we run on).
    events_epoch = recorder.epoch_ns if recorder.recording else None
    manager = _PoolManager(workers, spec, task, options,
                           telemetry.enabled(), events_epoch,
                           start_method=config.start_method)
    try:
        manager.spawn()
    except PoolUnavailableError as exc:
        yield from _degrade_to_serial(spec, task, options, batches, exc)
        return
    max_inflight = config.resolved_inflight(workers)
    pending: "deque[_PendingBatch]" = deque()
    next_index = 0
    try:
        while next_index < len(batches) or pending:
            while next_index < len(batches) and len(pending) < max_inflight:
                batch = batches[next_index]
                recorder.instant("parallel.submit", {"batch": next_index})
                pending.append(_PendingBatch(
                    next_index, batch, manager.submit(batch, next_index)))
                next_index += 1
                recorder.counter("parallel.inflight", len(pending))
            if reporter is not None:
                reporter.set_inflight(len(pending))
            head = pending[0]
            try:
                result = head.future.result(timeout=policy.batch_timeout)
            except (FuturesTimeoutError, BrokenExecutor,
                    PicklingError) as exc:
                failure = _classify_failure(exc, head.index)
            except ParallelExecutionError:
                raise
            except Exception as exc:
                raise _classify_failure(exc, head.index) from exc
            else:
                pending.popleft()
                recorder.instant("parallel.merge", {"batch": head.index})
                recorder.counter("parallel.inflight", len(pending))
                yield result
                continue
            # -- recovery: failure surfaced at the merge point ---------
            head.failures += 1
            recorder.instant("parallel.fault",
                             {"batch": head.index,
                              "kind": type(failure).__name__})
            _log.warn("batch.fault", batch=head.index,
                      kind=type(failure).__name__, attempt=head.failures,
                      retryable=failure.retryable, error=str(failure))
            if isinstance(failure, BatchTimeoutError):
                telemetry.count("parallel.batch_timeouts")
            elif isinstance(failure, WorkerCrashError):
                telemetry.count("parallel.worker_crashes")
                if reporter is not None:
                    reporter.crash()
            if not failure.retryable or head.failures >= policy.max_attempts:
                raise failure
            with telemetry.span("parallel.recovery"):
                telemetry.count("parallel.retries")
                telemetry.count("parallel.pool_respawns")
                time.sleep(policy.delay(head.failures))
                recorder.instant("parallel.respawn", {"workers": workers})
                _log.info("pool.respawn", workers=workers,
                          after_batch=head.index,
                          backoff_s=policy.delay(head.failures))
                try:
                    manager.respawn()
                except PoolUnavailableError as exc:
                    remaining = [entry.batch for entry in pending] \
                        + list(batches[next_index:])
                    yield from _degrade_to_serial(spec, task, options,
                                                  remaining, exc)
                    return
                for entry in pending:
                    entry.future = manager.submit(entry.batch, entry.index)
    finally:
        manager.kill()


# ----------------------------------------------------------------------
# The scheduler
# ----------------------------------------------------------------------


def map_batches(spec: EngineSpec, task: str, options: "dict[str, Any]",
                batches: "Iterable[ReadBatch]",
                config: ParallelConfig,
                reporter: "ProgressReporter | None" = None) \
        -> "Iterator[BatchResult]":
    """Run ``batches`` through the worker pool, yielding results in
    submission order with at most ``max_inflight`` outstanding.

    With one worker (or a ``local`` spec) everything runs in-process over
    the same batch units -- the serial fast path.  Pool failures are
    classified, retried and degraded per the module docstring; when a
    typed error escapes this generator, every consumed prefix result was
    already byte-exact and no partial batch has been yielded.  An
    optional :class:`~repro.telemetry.progress.ProgressReporter` gets
    in-flight depth and crash notifications (completed-read counts are
    the consumer's job -- see :func:`_aggregate`).
    """
    workers = config.resolved_workers()
    if workers <= 1 or spec[0] == "local":
        yield from _serial_batches(_make_engine(spec), task, options,
                                   batches)
        return
    yield from _pool_map(spec, task, options, list(batches), config,
                         workers, reporter)


def _aggregate(results: "Iterable[BatchResult]",
               batches: "Sequence[ReadBatch] | None" = None,
               reporter: "ProgressReporter | None" = None) \
        -> "tuple[list[Any], EngineStats]":
    """Collect payloads in order; fold stats and worker telemetry.

    Worker snapshots merge keyed by submission order, so gauges resolve
    to the highest batch index deterministically -- the same value a
    serial run would leave behind -- at any worker count.  When the
    submitted ``batches`` are provided alongside a ``reporter``, each
    merged batch advances the heartbeat by its read count.
    """
    payloads: "list[Any]" = []
    stats = EngineStats()
    for order, (payload, stat_delta, snap) in enumerate(results):
        payloads.append(payload)
        stats.add_dict(stat_delta)
        if snap is not None:
            telemetry.merge_snapshot(snap, order=order)
        if reporter is not None and batches is not None:
            reporter.advance(len(batches[order].names))
    return payloads, stats


def _execute_over_index(index: ErtIndex, task: str,
                        options: "dict[str, Any]",
                        batches: "list[ReadBatch]", config: ParallelConfig,
                        gather_limit: int = 500,
                        reporter: "ProgressReporter | None" = None) \
        -> "tuple[list[Any], EngineStats]":
    workers = config.resolved_workers()
    if workers <= 1:
        engine = ErtSeedingEngine(index, gather_limit=gather_limit)
        return _aggregate(map_batches(("local", engine), task, options,
                                      batches, config, reporter),
                          batches, reporter)
    with SharedIndexBuffer(index) as shared:
        spec: EngineSpec = ("shm", shared.name, shared.size, gather_limit)
        return _aggregate(map_batches(spec, task, options, batches, config,
                                      reporter),
                          batches, reporter)


# ----------------------------------------------------------------------
# High-level entry points (what the CLI calls)
# ----------------------------------------------------------------------


def seed_reads(index: ErtIndex, reads: "Sequence[object]",
               params: "SeedingParams | None" = None,
               config: "ParallelConfig | None" = None,
               gather_limit: int = 500,
               reporter: "ProgressReporter | None" = None) \
        -> "tuple[list[str], EngineStats]":
    """Seed ``reads`` in batches; returns the CLI's TSV lines (one per
    seed, newline-terminated, in input order) plus aggregated stats."""
    config = config or ParallelConfig()
    options: "dict[str, Any]" = {"params": params or SeedingParams(),
                                 "kernels": config.resolved_kernels()}
    batches = [pack_batch(chunk)
               for chunk in iter_chunks(reads, config.batch_size)]
    per_batch, stats = _execute_over_index(index, "seed", options, batches,
                                           config, gather_limit,
                                           reporter=reporter)
    return [line for lines in per_batch for line in lines], stats


def align_reads(index: ErtIndex, reads: "Sequence[object]",
                params: "SeedingParams | None" = None,
                config: "ParallelConfig | None" = None,
                reporter: "ProgressReporter | None" = None) \
        -> "tuple[list[SamRecord], EngineStats]":
    """Align ``reads`` to SAM records, byte-identical to the serial
    per-read loop, in input order."""
    config = config or ParallelConfig()
    options: "dict[str, Any]" = {"params": params or SeedingParams(),
                                 "kernels": config.resolved_kernels()}
    batches = [pack_batch(chunk)
               for chunk in iter_chunks(reads, config.batch_size)]
    per_batch, stats = _execute_over_index(index, "align", options,
                                           batches, config,
                                           reporter=reporter)
    return [rec for recs in per_batch for rec in recs], stats


def align_pairs(index: ErtIndex, reads: "Sequence[object]",
                params: "SeedingParams | None" = None,
                insert_mean: int = 350, insert_sd: int = 50,
                config: "ParallelConfig | None" = None,
                reporter: "ProgressReporter | None" = None) \
        -> "tuple[list[SamRecord], EngineStats]":
    """Align interleaved paired-end ``reads`` (mate1, mate2, ...).

    Batching happens at pair granularity (``batch_size`` pairs per
    batch) so mates never split across workers.
    """
    if len(reads) % 2:
        raise ValueError("interleaved read set must hold an even count")
    config = config or ParallelConfig()
    options: "dict[str, Any]" = {"params": params or SeedingParams(),
                                 "kernels": config.resolved_kernels(),
                                 "insert_mean": insert_mean,
                                 "insert_sd": insert_sd}
    batches = [pack_batch(chunk)
               for chunk in iter_chunks(reads, 2 * config.batch_size)]
    per_batch, stats = _execute_over_index(index, "align-pe", options,
                                           batches, config,
                                           reporter=reporter)
    return [rec for recs in per_batch for rec in recs], stats


def traffic_totals(engine: SeedingEngine, reads: "Sequence[object]",
                   params: "SeedingParams | None" = None,
                   config: "ParallelConfig | None" = None) \
        -> "tuple[int, int, dict[str, tuple[int, int]]]":
    """Aggregate per-batch memory-traffic totals over the pool.

    ERT engines ship their index through shared memory; other engine
    types fall back to pickling the engine once per worker (still one
    copy per worker, never one per batch).
    """
    config = config or ParallelConfig()
    options: "dict[str, Any]" = {"params": params or SeedingParams()}
    batches = [pack_batch(chunk)
               for chunk in iter_chunks(reads, config.batch_size)]
    workers = config.resolved_workers()
    if workers <= 1:
        results, _ = _aggregate(map_batches(("local", engine), "traffic",
                                            options, batches, config))
    elif isinstance(engine, ErtSeedingEngine):
        with SharedIndexBuffer(engine.index) as shared:
            spec: EngineSpec = ("shm", shared.name, shared.size,
                                engine.gather_limit)
            results, _ = _aggregate(map_batches(spec, "traffic", options,
                                                batches, config))
    else:
        results, _ = _aggregate(map_batches(("pickle", engine), "traffic",
                                            options, batches, config))
    requests = sum(r[0] for r in results)
    nbytes = sum(r[1] for r in results)
    by_phase: "dict[str, tuple[int, int]]" = {}
    for _, _, phases in results:
        for phase, (preq, pbytes) in phases.items():
            prev = by_phase.get(phase, (0, 0))
            by_phase[phase] = (prev[0] + preq, prev[1] + pbytes)
    return requests, nbytes, by_phase
