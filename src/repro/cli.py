"""Command-line interface: the workflows a downstream user actually runs.

``ert-repro`` mirrors the shape of real aligner tooling (index once,
align many times):

* ``simulate-genome`` / ``simulate-reads`` -- produce FASTA/FASTQ inputs;
* ``build-index``  -- construct an ERT and persist it (.npz);
* ``index-stats``  -- census of a persisted index (Fig 8 / §III-A3 data);
* ``seed``         -- three-round seeding, one TSV line per seed;
* ``align``        -- full pipeline to SAM;
* ``report``       -- render a saved telemetry snapshot as a profile
  (or re-export it as OpenMetrics text with ``--format openmetrics``);
* ``explain``      -- replay one read through the serial engine with
  full instrumentation and print its cost attribution;
* ``check``        -- run the repository's static-analysis rules
  (:mod:`repro.checks`, see docs/static_analysis.md);
* ``ledger``       -- record benchmark runs and gate on throughput
  regressions (:mod:`repro.ledger`, see docs/observability.md).

``seed``, ``align``, ``align-pe`` and ``compare`` take ``--profile``
(print a per-stage wall-clock/counter report), ``--metrics-out FILE``
(write the full telemetry snapshot; ``--metrics-format openmetrics``
switches the file from JSON to Prometheus-scrapable OpenMetrics text),
``--slowlog FILE`` (append the per-read exemplar sample -- reservoir
plus top-K slowest -- as JSONL), ``--log-jsonl FILE`` /
``--log-level`` (structured operational logs: scheduler, fault
recovery, shared-memory lifecycle) and ``--trace-out FILE`` (record a
timeline and write Chrome/Perfetto ``trace_event`` JSON -- open it at
https://ui.perfetto.dev).  The read-driven commands also take
``--progress`` (a rate-limited stderr heartbeat: reads/s, batches in
flight, crashes survived, ETA).

``seed``, ``align``, ``align-pe`` and ``compare`` take ``--workers N``
and ``--batch-size M``: reads stream through the :mod:`repro.parallel`
batch scheduler (shared-memory index, order-preserving merge), so the
output is byte-identical to a serial run at any worker count.  The
default worker count comes from ``$REPRO_WORKERS`` (else 1).  With
workers > 1 they also take ``--retries R`` (per-batch retry budget
after a worker crash or batch timeout; default ``$REPRO_RETRIES``,
else 2) and ``--batch-timeout SEC``; see the failure model in
``docs/performance.md``.  ``--kernels vector`` (default
``$REPRO_KERNELS``, else scalar) routes seeding through the batched
numpy kernels (:mod:`repro.kernels`) with byte-identical output.

Every subcommand is a thin shell over the library API, so everything it
does is equally available programmatically.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import zlib

from repro import logging as repro_logging
from repro import telemetry
from repro.checks import cli as checks_cli
from repro.ledger import cli as ledger_cli
from repro.core import (
    ErtConfig,
    ErtSeedingEngine,
    build_ert,
    hit_distribution,
    index_census,
    load_ert,
    save_ert,
)
from repro.extend import write_sam
from repro.kernels import KERNEL_CHOICES, resolve_kernels
from repro.parallel import (
    ParallelConfig,
    align_pairs,
    align_reads,
    map_batches,
    pack_batch,
    seed_reads,
)
from repro.seeding import SeedingParams
from repro.sequence import (
    GenomeSimulator,
    ReadSimulator,
    read_fasta,
    read_fastq,
    write_fasta,
    write_fastq,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ert-repro",
        description="Enumerated Radix Tree seeding (ISCA 2021 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    sim_g = sub.add_parser("simulate-genome",
                           help="generate a repeat-rich synthetic genome")
    sim_g.add_argument("--length", type=int, required=True)
    sim_g.add_argument("--seed", type=int, default=0)
    sim_g.add_argument("--name", default="synthetic")
    sim_g.add_argument("--out", required=True)

    sim_r = sub.add_parser("simulate-reads",
                           help="sample Illumina-like reads from a FASTA")
    sim_r.add_argument("--reference", required=True)
    sim_r.add_argument("--count", type=int, required=True)
    sim_r.add_argument("--read-length", type=int, default=101)
    sim_r.add_argument("--error-fraction", type=float, default=0.2)
    sim_r.add_argument("--seed", type=int, default=0)
    sim_r.add_argument("--out", required=True)

    build = sub.add_parser("build-index", help="build and persist an ERT")
    build.add_argument("--reference", required=True)
    build.add_argument("--k", type=int, default=8)
    build.add_argument("--max-seed-len", type=int, default=151)
    build.add_argument("--table-threshold", type=int, default=256)
    build.add_argument("--table-x", type=int, default=4)
    build.add_argument("--prefix-merging", action="store_true")
    build.add_argument("--out", required=True)

    stats = sub.add_parser("index-stats", help="census of a persisted ERT")
    stats.add_argument("--index", required=True)

    seed = sub.add_parser("seed", help="seed reads, one TSV line per seed")
    seed.add_argument("--index", required=True)
    seed.add_argument("--reads", required=True)
    seed.add_argument("--min-seed-len", type=int, default=19)
    seed.add_argument("--max-hits", type=int, default=500)
    seed.add_argument("--out", default="-")
    _add_telemetry_args(seed)
    _add_progress_arg(seed)
    _add_parallel_args(seed)

    align = sub.add_parser("align", help="align reads to SAM")
    align.add_argument("--index", required=True)
    align.add_argument("--reads", required=True)
    align.add_argument("--min-seed-len", type=int, default=19)
    align.add_argument("--out", required=True)
    _add_telemetry_args(align)
    _add_progress_arg(align)
    _add_parallel_args(align)

    align_pe = sub.add_parser(
        "align-pe", help="align interleaved paired-end reads to SAM")
    align_pe.add_argument("--index", required=True)
    align_pe.add_argument("--reads", required=True,
                          help="interleaved FASTQ (mate1, mate2, ...)")
    align_pe.add_argument("--min-seed-len", type=int, default=19)
    align_pe.add_argument("--insert-mean", type=int, default=350)
    align_pe.add_argument("--insert-sd", type=int, default=50)
    align_pe.add_argument("--out", required=True)
    _add_telemetry_args(align_pe)
    _add_progress_arg(align_pe)
    _add_parallel_args(align_pe)

    report = sub.add_parser(
        "report", help="render a saved telemetry snapshot (--metrics-out "
                       "file) as a per-stage profile")
    report.add_argument("--metrics", required=True,
                        help="JSON file written by --metrics-out")
    report.add_argument("--format", choices=("profile", "openmetrics"),
                        default="profile",
                        help="profile (default, human-readable tables) or "
                             "openmetrics (Prometheus exposition text)")

    explain = sub.add_parser(
        "explain",
        help="replay one read from a FASTQ through the serial engine "
             "with full instrumentation and print where its time went")
    explain.add_argument("--index", required=True)
    explain.add_argument("--reads", required=True,
                         help="FASTQ holding the read to replay")
    explain.add_argument("--read-id", required=True,
                         help="read name as shown in the slowlog / "
                              "exemplar tables")
    explain.add_argument("--task", choices=("seed", "align"),
                         default="seed")
    explain.add_argument("--kernels", choices=("scalar", "vector"),
                         default=None,
                         help="replay through the scalar engine or the "
                              "batched vector kernels; defaults to "
                              "whatever the slowlog record says the run "
                              "used (else $REPRO_KERNELS, else scalar)")
    explain.add_argument("--min-seed-len", type=int, default=19)
    explain.add_argument("--max-hits", type=int, default=500)
    explain.add_argument(
        "--slowlog", default=None, metavar="FILE",
        help="cross-check the replayed counters against this slowlog's "
             "recorded entry for the read (non-zero exit on mismatch)")
    explain.add_argument("--json", action="store_true", dest="as_json",
                         help="emit the replayed record as JSON instead "
                              "of tables")

    compare = sub.add_parser(
        "compare",
        help="measure FMD vs ERT memory traffic on a read set (Fig 12)")
    compare.add_argument("--reference", required=True)
    compare.add_argument("--reads", required=True)
    compare.add_argument("--k", type=int, default=8)
    compare.add_argument("--min-seed-len", type=int, default=19)
    _add_telemetry_args(compare)
    _add_parallel_args(compare)

    check = sub.add_parser(
        "check", help="run the repo's static-analysis rules "
                      "(non-zero exit on violations)")
    checks_cli.configure_parser(check)

    ledger = sub.add_parser(
        "ledger", help="record benchmark runs and gate on throughput "
                       "regressions (non-zero exit on a regression)")
    ledger_cli.configure_parser(ledger)
    return parser


def _add_telemetry_args(parser) -> None:
    parser.add_argument(
        "--profile", action="store_true",
        help="collect telemetry and print a per-stage profile")
    parser.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="collect telemetry and write the snapshot as JSON")
    parser.add_argument(
        "--metrics-format", choices=("json", "openmetrics"),
        default="json",
        help="--metrics-out format: json (default, consumable by "
             "'report') or openmetrics (Prometheus exposition text "
             "with per-bucket exemplars)")
    parser.add_argument(
        "--slowlog", default=None, metavar="FILE",
        help="sample per-read exemplars and append them (reservoir + "
             "top-K slowest) to FILE as JSONL; feed any read id shown "
             "there to 'ert-repro explain'")
    parser.add_argument(
        "--log-jsonl", default=None, metavar="FILE",
        help="append structured operational logs (scheduler, fault "
             "recovery, shared-memory lifecycle) to FILE as JSONL")
    parser.add_argument(
        "--log-level", choices=repro_logging.LEVELS, default="info",
        help="minimum level for --log-jsonl (default info)")
    parser.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="record a timeline and write Chrome/Perfetto trace_event "
             "JSON (open at https://ui.perfetto.dev); includes "
             "per-worker tracks at --workers > 1")


def _add_progress_arg(parser) -> None:
    parser.add_argument(
        "--progress", action="store_true",
        help="print a rate-limited stderr heartbeat (reads/s, batches "
             "in flight, worker crashes, ETA)")


def _positive_int(label):
    """Argparse type factory: an int that must be >= 1, with an error
    message naming the option (rejected at parse time rather than
    silently clamped deep inside ``ParallelConfig``)."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{label} must be an integer, got {text!r}")
        if value < 1:
            raise argparse.ArgumentTypeError(
                f"{label} must be >= 1, got {value}")
        return value
    return parse


def _nonnegative_int(label):
    """Argparse type for an int >= 0 (retry budgets: 0 = fail fast)."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{label} must be an integer, got {text!r}")
        if value < 0:
            raise argparse.ArgumentTypeError(
                f"{label} must be >= 0, got {value}")
        return value
    return parse


def _positive_float(label):
    """Argparse type for a float that must be > 0 (timeouts)."""
    def parse(text):
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{label} must be a number, got {text!r}")
        if value <= 0:
            raise argparse.ArgumentTypeError(
                f"{label} must be > 0, got {value}")
        return value
    return parse


def _add_parallel_args(parser) -> None:
    parser.add_argument(
        "--workers", type=_positive_int("--workers"), default=None,
        metavar="N",
        help="worker processes for the batch scheduler (default: "
             "$REPRO_WORKERS, else 1 = in-process); output is "
             "byte-identical at any count")
    parser.add_argument(
        "--batch-size", type=_positive_int("--batch-size"), default=64,
        metavar="M",
        help="reads per scheduler batch (default 64)")
    parser.add_argument(
        "--retries", type=_nonnegative_int("--retries"), default=None,
        metavar="R",
        help="per-batch retry budget after a worker crash or batch "
             "timeout (default: $REPRO_RETRIES, else 2; 0 = fail on "
             "first fault)")
    parser.add_argument(
        "--batch-timeout", type=_positive_float("--batch-timeout"),
        default=None, metavar="SEC",
        help="seconds to wait for one batch before killing and "
             "respawning the pool (default: wait forever)")
    parser.add_argument(
        "--kernels", choices=KERNEL_CHOICES, default=None,
        help="seeding/extension kernels: scalar (the per-read oracle) "
             "or vector (batched numpy walks + wavefront SW; "
             "byte-identical output).  Default: $REPRO_KERNELS, else "
             "scalar")


def _parallel_config(args) -> ParallelConfig:
    return ParallelConfig(workers=args.workers, batch_size=args.batch_size,
                          retries=args.retries,
                          batch_timeout=args.batch_timeout,
                          kernels=getattr(args, "kernels", None))


def _telemetry_begin(args) -> bool:
    """Enable telemetry for this command iff the user asked for output.
    Returns whether a metrics session is active (the default stays a
    true no-op).  ``--trace-out`` additionally starts timeline
    recording, and ``--log-jsonl`` opens the structured-log sink; both
    are independent of the metrics flag."""
    active = bool(args.profile or args.metrics_out or args.slowlog)
    if active:
        telemetry.reset()
        telemetry.enable()
    if args.log_jsonl:
        repro_logging.configure(path=args.log_jsonl,
                                level=args.log_level)
    if args.trace_out:
        telemetry.start_recording()
    return active


def _write_slowlog(path, exemplars: dict) -> None:
    """Append the sampled exemplar records as JSONL, slowlog entries
    first (they are what ``explain`` cross-checks against)."""
    seen = set()
    with open(path, "a") as handle:
        for source in ("slowest", "reservoir"):
            for rec in exemplars.get(source, []):
                key = (rec["read_id"], rec.get("task"), rec["wall_ms"])
                if key in seen:
                    continue
                seen.add(key)
                record = {"source": source}
                record.update(rec)
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def _telemetry_finish(args, active: bool, title: str,
                      profile_stream=None) -> None:
    if args.trace_out:
        telemetry.stop_recording()
        telemetry.write_trace(args.trace_out, telemetry.current_trace())
        print(f"wrote timeline trace to {args.trace_out} "
              f"(open at https://ui.perfetto.dev)", file=sys.stderr)
    if args.log_jsonl:
        repro_logging.shutdown()
    if not active:
        return
    telemetry.disable()
    snap = telemetry.snapshot()
    if args.metrics_out:
        if args.metrics_format == "openmetrics":
            with open(args.metrics_out, "w") as handle:
                handle.write(telemetry.render_openmetrics(snap))
            print(f"wrote OpenMetrics exposition to {args.metrics_out}",
                  file=sys.stderr)
        else:
            telemetry.write_json(args.metrics_out, snap)
            print(f"wrote telemetry snapshot to {args.metrics_out}",
                  file=sys.stderr)
    if args.slowlog:
        exemplars = snap.get("exemplars", {})
        _write_slowlog(args.slowlog, exemplars)
        print(f"wrote {len(exemplars.get('slowest', []))} slowlog + "
              f"{len(exemplars.get('reservoir', []))} reservoir "
              f"exemplars to {args.slowlog}", file=sys.stderr)
    if args.profile:
        print(telemetry.render_profile(snap, title=title),
              file=profile_stream or sys.stdout)


def _make_reporter(args, total: int) -> "telemetry.ProgressReporter | None":
    """A live heartbeat when ``--progress`` was given (forced on even
    without a TTY -- asking for it means wanting the lines in a log)."""
    if not getattr(args, "progress", False):
        return None
    return telemetry.ProgressReporter(total=total, force=True)


def _cmd_simulate_genome(args) -> int:
    reference = GenomeSimulator(seed=args.seed).generate(args.length,
                                                         name=args.name)
    write_fasta(args.out, [reference])
    print(f"wrote {len(reference):,} bp to {args.out}")
    return 0


def _cmd_simulate_reads(args) -> int:
    reference = read_fasta(args.reference)[0]
    sim = ReadSimulator(reference, read_length=args.read_length,
                        error_read_fraction=args.error_fraction,
                        seed=args.seed)
    reads = sim.simulate(args.count)
    write_fastq(args.out, reads)
    print(f"wrote {len(reads)} reads to {args.out}")
    return 0


def _cmd_build_index(args) -> int:
    reference = read_fasta(args.reference)[0]
    config = ErtConfig(k=args.k, max_seed_len=args.max_seed_len,
                       table_threshold=args.table_threshold,
                       table_x=args.table_x,
                       prefix_merging=args.prefix_merging)
    index = build_ert(reference, config)
    save_ert(index, args.out)
    sizes = index.index_bytes()
    print(f"built ERT (k={args.k}) over {len(reference):,} bp: "
          f"{sizes['total'] / 1024:.0f} KiB "
          f"(table {sizes['index_table'] / 1024:.0f}, "
          f"trees {sizes['trees'] / 1024:.0f}); saved to {args.out}")
    return 0


def _cmd_index_stats(args) -> int:
    index = load_index_cached(args.index)
    census = index_census(index)
    print(f"reference      : {index.reference.name} "
          f"({len(index.reference):,} bp)")
    print(f"k              : {index.config.k} "
          f"({census.n_entries:,} entries)")
    print(f"entry kinds    : EMPTY {census.empty:,} "
          f"({census.empty_fraction * 100:.1f}%), LEAF {census.leaf:,}, "
          f"TREE {census.tree:,}, TABLE {census.table:,}")
    for key, value in census.index_bytes.items():
        print(f"bytes[{key:13s}]: {value:,}")
    print("hit distribution (k-mers with > X hits):")
    for threshold, count in hit_distribution(index):
        print(f"  > {threshold:5d}: {count:,}")
    return 0


def _open_out(path):
    return sys.stdout if path == "-" else open(path, "w")


#: One-entry index cache keyed by (abspath, inode, mtime_ns, size,
#: content fingerprint): repeated subcommand invocations in one process
#: (tests, notebooks, compare sweeps) reload only when the file actually
#: changed.
_INDEX_CACHE: "dict[tuple, object]" = {}

_FINGERPRINT_PAGE = 4096


def _index_fingerprint(path, size):
    """CRC of the file's first and last page.

    Stat alone is not enough for the cache key: on filesystems with
    coarse mtime granularity a same-size rewrite within one tick is
    invisible to ``(mtime_ns, size)``, and the cache would serve the
    stale index.  Hashing two pages is O(1) in file size and catches any
    rewrite that touches the header or the trailing payload.
    """
    with open(path, "rb") as fh:
        crc = zlib.crc32(fh.read(_FINGERPRINT_PAGE))
        if size > _FINGERPRINT_PAGE:
            fh.seek(max(_FINGERPRINT_PAGE, size - _FINGERPRINT_PAGE))
            crc = zlib.crc32(fh.read(_FINGERPRINT_PAGE), crc)
    return crc


class _UsageError(Exception):
    """Bad user input: :func:`main` reports it as one stderr line and
    exits 2, like an argparse error."""


def load_index_cached(path):
    """Load a persisted ERT, reusing the in-process copy while the file
    is unchanged (same resolved path, inode, size, mtime and first/last
    page content).  A missing file raises :class:`_UsageError`."""
    if not os.path.isfile(path):
        raise _UsageError(f"index file not found: {path}")
    stat = os.stat(path)
    key = (os.path.abspath(path), stat.st_ino, stat.st_mtime_ns,
           stat.st_size, _index_fingerprint(path, stat.st_size))
    index = _INDEX_CACHE.get(key)
    if index is None:
        _INDEX_CACHE.clear()
        index = _INDEX_CACHE.setdefault(key, load_ert(path))
    return index


def _cmd_seed(args) -> int:
    index = load_index_cached(args.index)
    reads = read_fastq(args.reads)
    params = SeedingParams(min_seed_len=args.min_seed_len,
                           max_hits_per_seed=args.max_hits)
    active = _telemetry_begin(args)
    reporter = _make_reporter(args, len(reads))
    lines, stats = seed_reads(index, reads, params,
                              config=_parallel_config(args),
                              reporter=reporter)
    if reporter is not None:
        reporter.finish()
    out = _open_out(args.out)
    try:
        out.write("read\tstart\tlength\thit_count\thits\n")
        for line in lines:
            out.write(line)
    finally:
        if out is not sys.stdout:
            out.close()
    n_seeds = len(lines)
    truncated = stats.truncated_hit_lists
    clipped = (f" ({truncated} hit lists truncated by "
               f"--max-hits {args.max_hits})" if truncated else "")
    print(f"seeded {len(reads)} reads -> {n_seeds} seeds{clipped}",
          file=sys.stderr)
    # With TSV on stdout the profile must not corrupt it.
    _telemetry_finish(args, active, title=f"seed profile ({args.reads})",
                      profile_stream=sys.stderr if args.out == "-"
                      else sys.stdout)
    return 0


def _cmd_align(args) -> int:
    index = load_index_cached(args.index)
    reference = index.reference
    reads = read_fastq(args.reads)
    active = _telemetry_begin(args)
    reporter = _make_reporter(args, len(reads))
    records, _stats = align_reads(
        index, reads, SeedingParams(min_seed_len=args.min_seed_len),
        config=_parallel_config(args), reporter=reporter)
    if reporter is not None:
        reporter.finish()
    write_sam(args.out, reference, records)
    mapped = sum(1 for rec in records if not rec.flag & 0x4)
    print(f"aligned {len(reads)} reads ({mapped} mapped) -> {args.out}",
          file=sys.stderr)
    _telemetry_finish(args, active, title=f"align profile ({args.reads})")
    return 0


def _cmd_align_pe(args) -> int:
    index = load_index_cached(args.index)
    reference = index.reference
    reads = read_fastq(args.reads)
    if len(reads) % 2:
        raise SystemExit("interleaved FASTQ must hold an even read count")
    active = _telemetry_begin(args)
    reporter = _make_reporter(args, len(reads))
    records, _stats = align_pairs(
        index, reads, SeedingParams(min_seed_len=args.min_seed_len),
        insert_mean=args.insert_mean, insert_sd=args.insert_sd,
        config=_parallel_config(args), reporter=reporter)
    if reporter is not None:
        reporter.finish()
    write_sam(args.out, reference, records)
    proper = sum(1 for rec in records if rec.flag & 0x2) // 2
    print(f"aligned {len(reads) // 2} pairs ({proper} proper) -> "
          f"{args.out}", file=sys.stderr)
    _telemetry_finish(args, active,
                      title=f"align-pe profile ({args.reads})")
    return 0


def _cmd_report(args) -> int:
    snap = telemetry.load_snapshot(args.metrics)
    if args.format == "openmetrics":
        sys.stdout.write(telemetry.render_openmetrics(snap))
        return 0
    print(telemetry.render_profile(snap, title=f"telemetry report "
                                               f"({args.metrics})"))
    return 0


def _explain_replay(args, read, kernels: str = "scalar") -> "dict | None":
    """Replay ``read`` through the batch scheduler's own runner as a
    one-read batch and return the captured exemplar record.

    The per-read counters on both backends are batch-composition
    invariant, so the record matches what the original run recorded for
    this read field for field (``wall_ms`` aside).
    """
    # Mirror the CLI seeding path: the scheduler builds the engine with
    # gather_limit=500 and the per-seed hit cap rides in SeedingParams.
    engine = ErtSeedingEngine(load_index_cached(args.index),
                              gather_limit=500)
    params = (SeedingParams(min_seed_len=args.min_seed_len,
                            max_hits_per_seed=args.max_hits)
              if args.task == "seed"
              else SeedingParams(min_seed_len=args.min_seed_len))
    telemetry.reset()
    telemetry.enable()
    try:
        list(map_batches(("local", engine), args.task,
                         {"params": params, "kernels": kernels},
                         [pack_batch([read])], ParallelConfig(workers=1)))
        snap = telemetry.snapshot()
    finally:
        telemetry.disable()
    slowest = snap.get("exemplars", {}).get("slowest", [])
    return slowest[0] if slowest else None


def _load_slowlog_entry(path, read_id: str, task: str) -> "dict | None":
    entry = None
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("read_id") == read_id and \
                    record.get("task") == task:
                entry = record
    return entry


def _cmd_explain(args) -> int:
    reads = [r for r in read_fastq(args.reads) if r.name == args.read_id]
    if not reads:
        print(f"read {args.read_id!r} not found in {args.reads}",
              file=sys.stderr)
        return 2
    # Peek at the slowlog record first: it names the backend the run
    # used (scalar records omit the tag), and the replay must go through
    # the same path for the counters to be comparable.  Without a
    # record to consult, fall back to the usual $REPRO_KERNELS
    # resolution so an explain run in a vector environment replays
    # vector.
    recorded = (_load_slowlog_entry(args.slowlog, args.read_id,
                                    args.task)
                if args.slowlog else None)
    kernels = args.kernels or (resolve_kernels() if recorded is None
                               else recorded.get("kernels", "scalar"))
    rec = _explain_replay(args, reads[0], kernels=kernels)
    if rec is None:
        print("replay recorded no exemplar (telemetry disabled?)",
              file=sys.stderr)
        return 2
    if args.as_json:
        print(json.dumps(rec, sort_keys=True))
    else:
        counters = rec.get("counters", {})
        mode = rec.get("kernels", "scalar")
        print(f"read {rec['read_id']} ({rec['task']}, {mode} kernels): "
              f"{rec['wall_ms']:.3f} ms replayed wall time")
        width = max([len(k) for k in counters] or [7])
        for name, value in sorted(counters.items(),
                                  key=lambda kv: (-kv[1], kv[0])):
            print(f"  {name.ljust(width)}  {value:,}")
    if not args.slowlog:
        return 0
    if recorded is None:
        print(f"no {rec['task']} entry for {args.read_id!r} in "
              f"{args.slowlog}", file=sys.stderr)
        return 2
    mismatches = []
    replayed = rec.get("counters", {})
    for name in sorted(set(replayed) | set(recorded.get("counters", {}))):
        want = recorded.get("counters", {}).get(name, 0)
        got = replayed.get(name, 0)
        if want != got:
            mismatches.append(f"  {name}: recorded {want:,} != "
                              f"replayed {got:,}")
    if mismatches:
        print(f"counter mismatch against {args.slowlog}:",
              file=sys.stderr)
        print("\n".join(mismatches), file=sys.stderr)
        return 1
    print(f"replay matches the slowlog record exactly "
          f"({len(replayed)} counters; recorded wall "
          f"{recorded['wall_ms']:.3f} ms)", file=sys.stderr)
    return 0


def _cmd_compare(args) -> int:
    from repro.analysis import format_table, measure_traffic

    reference = read_fasta(args.reference)[0]
    reads = [r.codes for r in read_fastq(args.reads)]
    params = SeedingParams(min_seed_len=args.min_seed_len)
    active = _telemetry_begin(args)
    rows = []
    profiles = {}
    for name, engine, size in _comparison_engines(reference, args.k):
        profile = measure_traffic(engine, reads, params, name=name,
                                  workers=args.workers,
                                  batch_size=args.batch_size)
        profiles[name] = profile
        rows.append([name, profile.requests_per_read, profile.kb_per_read,
                     size / 1024])
    print(format_table(
        ["config", "mem requests/read", "KB/read", "index KiB"], rows,
        title=f"FMD vs ERT memory traffic over {len(reads)} reads "
              f"(paper Fig 12)"))
    ratio = (profiles["BWA-MEM2 (FMD)"].bytes_per_read
             / profiles["ERT"].bytes_per_read)
    print(f"\nERT data-efficiency gain: {ratio:.1f}x "
          f"(paper: 4.5x at human scale)")
    _telemetry_finish(args, active,
                      title=f"compare profile ({args.reads})",
                      profile_stream=sys.stderr)
    return 0


#: Built comparison indexes keyed by (reference identity, k): one FMD
#: and one ERT build per configuration, however many times ``compare``
#: (or a sweep over it) runs in this process.  Engines are constructed
#: fresh per call -- they carry mutable stats -- but share the cached
#: indexes, and both indexes share the one loaded reference object.
_COMPARE_INDEX_CACHE: "dict[tuple, tuple]" = {}


def _comparison_engines(reference, k):
    import zlib

    from repro.fmindex import FmdConfig, FmdIndex, FmdSeedingEngine

    key = (reference.name, len(reference),
           zlib.crc32(reference.codes.tobytes()), k)
    cached = _COMPARE_INDEX_CACHE.get(key)
    if cached is None:
        _COMPARE_INDEX_CACHE.clear()
        fmd_index = FmdIndex(reference, FmdConfig.bwa_mem2())
        ert_index = build_ert(reference, ErtConfig(k=k, max_seed_len=151))
        cached = _COMPARE_INDEX_CACHE.setdefault(
            key, (reference, fmd_index, ert_index))
    _reference, fmd_index, ert_index = cached
    return [
        ("BWA-MEM2 (FMD)", FmdSeedingEngine(fmd_index),
         fmd_index.index_bytes()["total"]),
        ("ERT", ErtSeedingEngine(ert_index),
         ert_index.index_bytes()["total"]),
    ]


_COMMANDS = {
    "simulate-genome": _cmd_simulate_genome,
    "simulate-reads": _cmd_simulate_reads,
    "build-index": _cmd_build_index,
    "index-stats": _cmd_index_stats,
    "seed": _cmd_seed,
    "align": _cmd_align,
    "align-pe": _cmd_align_pe,
    "report": _cmd_report,
    "explain": _cmd_explain,
    "compare": _cmd_compare,
    "check": checks_cli.run,
    "ledger": ledger_cli.run,
}


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"ert-repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
