"""One benchmark job, in a fresh interpreter: what one CLI invocation of
``seed`` / ``align`` / ``align-pe`` does, through the same public calls.

    python3 perfbench/job.py SPEC.json

``SPEC.json`` (written by ``run.py``) names the task, kernels and
workers, the input files, the output file and where to write the job's
record.  The record holds raw timestamps (``time.monotonic``, the clock
``run.py`` read just before spawning this process), so ``run.py``
derives every metric from one consistent timeline.

Two modes:

* untraced -- the job itself: ``load_ert`` (or ``build_ert`` +
  ``save_ert`` + ``load_ert`` when cold), ``read_fastq``, then
  ``seed_reads`` / ``align_reads`` / ``align_pairs`` with a duck-typed
  reporter that timestamps every merged batch, then the TSV/SAM write;
* traced -- the same job replayed batch by batch, in the scheduler's
  order, with a span around every call into a layer's public
  functions.  It must write the same bytes as the untraced job.
"""

from __future__ import annotations

import json
import multiprocessing
import resource
import sys
import time
from contextlib import contextmanager

import benchlib as lib

now = time.monotonic

TSV_HEADER = "read\tstart\tlength\thit_count\thits\n"


def _status_kb(pid: "int | str", field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class MergeClock:
    """Progress reporter for the scheduler's ``reporter=`` hook.

    Timestamps every merged batch (``advance``), every in-flight depth
    report (``set_inflight``) and counts worker crashes.  On the last
    merge, while the pool is still up, it reads each worker's peak
    resident set.
    """

    def __init__(self, total: int) -> None:
        self.total = total
        self.done = 0
        self.merges: "list[tuple[float, int]]" = []
        self.inflight: "list[tuple[float, int]]" = []
        self.crashes = 0
        self.worker_peak_kb = 0

    def advance(self, n: int = 1) -> None:
        self.merges.append((now(), n))
        self.done += n
        if self.done >= self.total:
            self.worker_peak_kb = sum(
                _status_kb(proc.pid, "VmHWM")
                for proc in multiprocessing.active_children())

    def set_inflight(self, n: int) -> None:
        self.inflight.append((now(), n))

    def crash(self) -> None:
        self.crashes += 1

    def record(self) -> dict:
        return {"merges": self.merges, "inflight": self.inflight,
                "crashes": self.crashes,
                "worker_peak_kb": self.worker_peak_kb}


class Tracer:
    """In-memory spans: name, start, end and the enclosing span."""

    def __init__(self) -> None:
        self.spans: "list[dict]" = []
        self._stack: "list[int]" = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": now(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = now()


def _parent_peak_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _tsv_lines(names, results) -> "list[str]":
    """The ``seed`` runner's TSV lines for one batch, verbatim."""
    lines = []
    for name, result in zip(names, results):
        for seed in result.all_seeds:
            hits = ",".join(str(h) for h in seed.hits)
            lines.append(f"{name}\t{seed.read_start}\t{seed.length}"
                         f"\t{seed.hit_count}\t{hits}\n")
    return lines


def _write_tsv(path: str, lines: "list[str]") -> None:
    """The ``seed`` command's output file."""
    with open(path, "w") as out:
        out.write(TSV_HEADER)
        for line in lines:
            out.write(line)


def run_job(spec: dict) -> dict:
    """The untraced job: exactly the CLI's sequence of library calls."""
    from repro.core import ErtConfig, build_ert, load_ert, save_ert
    from repro.extend import write_sam
    from repro.parallel import (
        ParallelConfig,
        align_pairs,
        align_reads,
        seed_reads,
    )
    from repro.seeding import SeedingParams
    from repro.sequence import read_fasta, read_fastq

    t_import = now()
    if spec["cold"]:
        reference = read_fasta(spec["fasta"])[0]
        built = build_ert(reference, ErtConfig(
            k=lib.K, max_seed_len=lib.MAX_SEED_LEN))
        save_ert(built, spec["index"])
        del built
    index = load_ert(spec["index"])
    reads = read_fastq(spec["fastq"])
    clock = MergeClock(len(reads))
    config = ParallelConfig(workers=spec["workers"],
                            batch_size=lib.BATCH_SIZE,
                            kernels=spec["kernels"])
    task = spec["task"]
    if task == "seed":
        lines, _ = seed_reads(index, reads, SeedingParams(
            min_seed_len=lib.MIN_SEED_LEN,
            max_hits_per_seed=lib.MAX_HITS),
            config=config, reporter=clock)
        _write_tsv(spec["out"], lines)
    elif task == "align":
        records, _ = align_reads(index, reads, SeedingParams(
            min_seed_len=lib.MIN_SEED_LEN),
            config=config, reporter=clock)
        write_sam(spec["out"], index.reference, records)
    else:
        records, _ = align_pairs(index, reads, SeedingParams(
            min_seed_len=lib.MIN_SEED_LEN),
            insert_mean=lib.INSERT_MEAN,
            insert_sd=lib.INSERT_SD, config=config, reporter=clock)
        write_sam(spec["out"], index.reference, records)
    t_end = now()
    return {"t0": spec["t0"], "t_import": t_import, "t_end": t_end,
            "reads": len(reads), "parent_peak_kb": _parent_peak_kb(),
            **clock.record()}


def run_traced(spec: dict) -> dict:
    """The same job replayed call by call under spans."""
    tracer = Tracer()
    span = tracer.span
    with span("repro.import"):
        import numpy as np

        from repro.core import (
            ErtConfig,
            ErtSeedingEngine,
            build_ert,
            load_ert,
            save_ert,
        )
        from repro.extend import write_sam
        from repro.extend.chaining import chain_seeds
        from repro.extend.paired import PairedAligner
        from repro.extend.pipeline import ReadAligner
        from repro.kernels import (
            KernelBatchStats,
            batched_banded_sw,
            batched_sw_traceback,
            seed_batch,
            vector_decline_reason,
        )
        from repro.kernels.flat import flat_trees
        from repro.kernels.traceback import MIN_WAVEFRONT_LANES
        from repro.parallel import (
            ParallelConfig,
            SharedIndexBuffer,
            align_pairs,
            attach_index,
            iter_chunks,
            pack_batch,
        )
        from repro.seeding import SeedingParams, seed_read
        from repro.sequence import read_fasta, read_fastq

    counters: "dict[str, float]" = {}
    task = spec["task"]
    vector = spec["kernels"] == "vector"
    if spec["cold"]:
        with span("sequence.read_fasta"):
            reference = read_fasta(spec["fasta"])[0]
        with span("core.build_ert"):
            built = build_ert(reference, ErtConfig(
                k=lib.K, max_seed_len=lib.MAX_SEED_LEN))
        with span("core.save_ert"):
            save_ert(built, spec["index"])
        del built
    with span("core.load_ert"):
        index = load_ert(spec["index"])
    with span("sequence.read_fastq"):
        reads = read_fastq(spec["fastq"])
    counters["core.trees"] = len(index.tree_base)
    with open(spec["index"], "rb") as handle:
        handle.seek(0, 2)
        counters["core.index_file_bytes"] = handle.tell()

    if task == "seed":
        params = SeedingParams(min_seed_len=lib.MIN_SEED_LEN,
                               max_hits_per_seed=lib.MAX_HITS)
    else:
        params = SeedingParams(min_seed_len=lib.MIN_SEED_LEN)

    pool = None
    if spec["workers"] > 1:
        # The 2-worker leg: the publish and attach timed on their own,
        # then the real align_pairs (which publishes again) for its
        # merge timestamps.
        with span("parallel.shm_publish"):
            shared = SharedIndexBuffer(index)
        with shared:
            counters["parallel.shm_bytes"] = shared.size
            with span("parallel.attach"):
                attached = attach_index(shared.name, shared.size)
            del attached
        clock = MergeClock(len(reads))
        with span("parallel.align_pairs"):
            pool_records, _ = align_pairs(
                index, reads, params, insert_mean=lib.INSERT_MEAN,
                insert_sd=lib.INSERT_SD,
                config=ParallelConfig(workers=spec["workers"],
                                      batch_size=lib.BATCH_SIZE,
                                      kernels=spec["kernels"]),
                reporter=clock)
        pool = clock.record()

    engine = ErtSeedingEngine(index, gather_limit=500)
    if vector:
        reason = vector_decline_reason(engine)
        if reason is not None:
            raise RuntimeError(f"vector kernels declined the engine: "
                               f"{reason}")
        with span("kernels.flat_trees"):
            flat = flat_trees(index)
        counters["kernels.arena_bytes"] = sum(
            getattr(flat, slot).nbytes for slot in type(flat).__slots__
            if isinstance(getattr(flat, slot), np.ndarray))

    lanes: "list[int]" = []

    def traced_traceback(query, targets, scheme=None, band=41,
                         workspace=None, min_lanes=None):
        lanes.append(len(targets))
        with span("kernels.traceback"):
            return batched_sw_traceback(query, targets, scheme, band,
                                        workspace=workspace,
                                        min_lanes=min_lanes)

    aligner = ReadAligner(index.reference, engine, params=params,
                          sw_batch=batched_banded_sw if vector else None,
                          tb_batch=traced_traceback if vector else None)
    paired = PairedAligner(aligner, insert_mean=lib.INSERT_MEAN,
                           insert_sd=lib.INSERT_SD)
    engine_totals: "dict[str, int]" = {}
    kernel = {"walk_steps": 0, "gather_bytes": 0, "occ_live": 0,
              "occ_slots": 0}
    lines: "list[str]" = []
    records = []
    chunk = lib.BATCH_SIZE * (2 if task == "align-pe" else 1)
    for batch in (pack_batch(c) for c in iter_chunks(reads, chunk)):
        batch_reads = batch.reads()
        engine.reset_stats()
        with span("core.begin_batch"):
            engine.begin_batch(batch_reads)
        if vector:
            stats = KernelBatchStats(len(batch_reads))
            with span("kernels.seed_batch"):
                seeded = seed_batch(engine, batch_reads, params,
                                    stats=stats)
            kernel["walk_steps"] += int(stats.walk_steps.sum())
            kernel["gather_bytes"] += int(stats.gather_bytes.sum())
            kernel["occ_live"] += stats.occ_live
            kernel["occ_slots"] += stats.occ_slots
        if task == "seed":
            lines.extend(_tsv_lines(batch.names, seeded))
        elif task == "align":
            for i, read in enumerate(batch_reads):
                with span("extend.align_sam") as rec:
                    records.append(aligner.align_sam(
                        read, batch.names[i], batch.qualities[i],
                        seeding=seeded[i]))
                # Chaining runs inside align_sam; time it again on the
                # same seeds and bill it out of align_sam's self time.
                with span("extend.chain_seeds") as chained:
                    chain_seeds(seeded[i].all_seeds)
                rec["deduct"] = chained["end"] - chained["start"]
        else:
            for i in range(0, len(batch_reads), 2):
                first, second = batch_reads[i], batch_reads[i + 1]
                with span("seeding.seed_read"):
                    seeding1 = seed_read(engine, first, params)
                with span("seeding.seed_read"):
                    seeding2 = seed_read(engine, second, params)
                with span("extend.align_pair") as rec:
                    records.extend(paired.align_pair(
                        first, second, batch.names[i].split("/")[0],
                        batch.qualities[i], batch.qualities[i + 1],
                        seeding1=seeding1, seeding2=seeding2))
                with span("extend.chain_seeds") as chained:
                    chain_seeds(seeding1.all_seeds)
                    chain_seeds(seeding2.all_seeds)
                rec["deduct"] = chained["end"] - chained["start"]
        for name, value in engine.stats.as_dict().items():
            engine_totals[name] = engine_totals.get(name, 0) + value

    if task == "seed":
        _write_tsv(spec["out"], lines)
    else:
        with span("extend.write_sam"):
            write_sam(spec["out"], index.reference, records)
    t_end = now()
    pool_matches = None
    if pool is not None:
        pool_matches = [r.to_line() for r in pool_records] \
            == [r.to_line() for r in records]
    return {"t0": spec["t0"], "t_end": t_end, "reads": len(reads),
            "spans": tracer.spans, "counters": counters,
            "engine": engine_totals, "kernel": kernel,
            "traceback_lanes": lanes,
            "min_wavefront_lanes": MIN_WAVEFRONT_LANES,
            "pool": pool, "pool_matches_replay": pool_matches}


def main(argv: "list[str]") -> int:
    with open(argv[1]) as handle:
        spec = json.load(handle)
    sys.path.insert(0, spec["src"])
    result = run_traced(spec) if spec["traced"] else run_job(spec)
    with open(spec["result"], "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
