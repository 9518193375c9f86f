"""Shared definitions for the end-to-end benchmark: workloads, input
layout, output checks and the metric arithmetic.

Nothing here imports ``repro``: the runner (``run.py``) and the job
process (``job.py``) import the program themselves, and the self-tests
exercise these helpers without it.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
from dataclasses import dataclass
from pathlib import Path

#: The benchmark's directory and the checkout root above it.
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Committed digests of the inputs and oracle outputs (see README.md).
DIGESTS = HERE / "digests.json"
#: Generated inputs, prebuilt indexes, oracles and per-run records.
WORK = ROOT / ".perfbench_work"

# -- the shared inputs -------------------------------------------------
#: The repo's standard synthetic genome generator and seed
#: (``benchmarks/conftest.py``), at 15 kbp: see README.md for why not 30.
GENOME_SEED = 2021
GENOME_LEN = 15_000
K = 8
MAX_SEED_LEN = 151
READ_LEN = 101
#: The paper's 80/20 mix of perfect and erroneous reads (§V).
ERROR_READ_FRACTION = 0.2
MIN_SEED_LEN = 19
MAX_HITS = 500
BATCH_SIZE = 64
INSERT_MEAN = 350
INSERT_SD = 50
#: A primary record is placed correctly when its leftmost forward
#: coordinate lies within this many bases of the simulator's origin and
#: its strand matches.
PLACEMENT_TOLERANCE_BP = 10


@dataclass(frozen=True)
class Workload:
    name: str
    #: "seed" (TSV), "align" (single-end SAM) or "align-pe" (paired SAM).
    task: str
    kernels: str
    workers: int
    #: Cold: the job builds, saves and reloads the index from the FASTA.
    #: Warm: the job loads the prebuilt index.
    cold: bool
    #: Reads per job; mates count separately on the paired workload.
    reads: int
    #: Fewest jobs per timed run, whatever ``--seconds`` says.
    min_jobs: int
    job: str
    why: str


WORKLOADS = {w.name: w for w in (
    Workload(
        name="align-vector", task="align", kernels="vector", workers=1,
        cold=False, reads=400, min_jobs=4,
        job="Warm start: load the prebuilt index, single-end align to SAM, "
            "--kernels vector, 1 worker.",
        why="Production configuration: traceback dominates and seeding is "
            "small, so an extension change shows and a seeding change "
            "barely moves it."),
    Workload(
        name="seed-vector", task="seed", kernels="vector", workers=1,
        cold=False, reads=2000, min_jobs=4,
        job="Warm start: load the prebuilt index, seed reads to TSV, "
            "--kernels vector, 1 worker.",
        why="Extension never runs: the batched walk and index load "
            "dominate, so walk or load changes show and a traceback "
            "change must not."),
    Workload(
        name="pe-scalar-cold", task="align-pe", kernels="scalar",
        workers=2, cold=True, reads=1024, min_jobs=1,
        job="Cold start: build_ert and save_ert from the FASTA, load_ert, "
            "then align-pe on interleaved pairs, --kernels scalar, "
            "2 workers.",
        why="Only workload paying index build, archive write, shm publish, "
            "pool spawn/merge and paired rescue, all on the scalar oracle, "
            "so a vector-only change must leave it flat."),
)}


# -- files and fingerprints ---------------------------------------------

def source_digest(src: Path = SRC) -> str:
    """Hash of the program's and the benchmark's sources: cached inputs,
    indexes and oracles are keyed by it, so a changed program or read
    generator never reuses stale files."""
    digest = hashlib.sha256()
    for base in (src, HERE):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(base.parent)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def load_digests(path: "Path | None" = None) -> "dict[str, str]":
    """The committed SHA-256 of every generated input and oracle output,
    keyed by the file's path under the work directory's source-digest
    level (``genome15000/genome.fa``, ``genome15000/<set>/oracle.sam``)."""
    path = DIGESTS if path is None else path
    if not path.is_file():
        return {}
    return json.loads(path.read_text())


def ensure_program(root: Path = ROOT) -> None:
    """Refuse to run without the program's sources next to us."""
    if not (root / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {root}/src; "
                         f"run from a checkout of the repository")


def environment(workload: Workload) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"nproc": usable_cpus(), "cpu_model": cpu,
            "python": platform.python_version(),
            "numpy": numpy_version, "workers": workload.workers,
            "kernels": workload.kernels}


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# -- output checks -----------------------------------------------------

def job_failed_reads(output: bytes, oracle: bytes, reads: int,
                     error: "str | None" = None) -> int:
    """Reads without a correct output record in one job.  A job that
    raised, or whose output differs from the oracle's in any byte,
    fails every read it attempted."""
    if error is not None or output != oracle:
        return reads
    return 0


def sam_placement(sam_text: str, truth: "dict[str, tuple[int, str]]",
                  tolerance: int = PLACEMENT_TOLERANCE_BP) -> float:
    """Fraction of primary SAM records placed within ``tolerance`` of
    the simulator's ground truth.

    ``truth`` maps a read key to ``(origin, strand)`` with strand "+" or
    "-"; the key is the QNAME, plus ``/1`` or ``/2`` for paired records
    (from the 0x40/0x80 flags).  Unmapped primaries count as misplaced.
    """
    placed = total = 0
    for line in sam_text.splitlines():
        if not line or line.startswith("@"):
            continue
        fields = line.split("\t")
        flag = int(fields[1])
        if flag & 0x900:  # secondary or supplementary
            continue
        key = fields[0]
        if flag & 0x40:
            key += "/1"
        elif flag & 0x80:
            key += "/2"
        total += 1
        if flag & 0x4 or key not in truth:
            continue
        origin, strand = truth[key]
        got_strand = "-" if flag & 0x10 else "+"
        if got_strand == strand and abs(int(fields[3]) - 1 - origin) \
                <= tolerance:
            placed += 1
    return placed / total if total else 0.0


def tsv_placement(tsv_text: str, truth: "dict[str, tuple[int, str]]",
                  genome_len: int, read_len: int,
                  tolerance: int = PLACEMENT_TOLERANCE_BP) -> float:
    """Seed-level placement: the fraction of reads with at least one
    seed hit that puts the read within ``tolerance`` of its origin on
    the right strand.  Hits are positions in the double-strand text
    (forward genome, then its reverse complement)."""
    n = genome_len
    placed: "set[str]" = set()
    for line in tsv_text.splitlines()[1:]:
        name, start, length, _count, hits = line.split("\t")
        if name in placed or name not in truth or not hits:
            continue
        origin, strand = truth[name]
        s, l = int(start), int(length)
        for hit in map(int, hits.split(",")):
            if hit + l <= n:
                got, est = "+", hit - s
            elif hit >= n:
                got, est = "-", (2 * n - hit - l) + s + l - read_len
            else:
                continue
            if got == strand and abs(est - origin) <= tolerance:
                placed.add(name)
                break
    return len(placed) / len(truth) if truth else 0.0


# -- timing arithmetic -------------------------------------------------

def steady_window(merges: "list[tuple[float, int]]",
                  workers: int = 1) -> "tuple[int, float]":
    """The steady-state part of one job, from the reporter's merge
    timestamps: ``(reads, seconds)`` after the first merged batch.

    ``merges`` holds one ``(timestamp, reads)`` per merged batch in
    merge order, as the reporter's ``advance`` saw them.  The first
    batch carries the warm-up (lazy arena build, pool spawn), so it only
    opens the window.  With N workers the first N batches run side by
    side, so the window opens at the N-th merge and counts the batches
    merged after it.  ``(0, 0.0)`` when none did.
    """
    if len(merges) <= workers:
        return 0, 0.0
    return (sum(n for _, n in merges[workers:]),
            merges[-1][0] - merges[workers - 1][0])


def steady_rate(windows: "list[tuple[int, float]]") -> "float | None":
    """Reads per second over the steady windows of one or more jobs."""
    seconds = sum(s for _, s in windows)
    return sum(n for n, _ in windows) / seconds if seconds > 0 else None


def merge_wait(merges: "list[tuple[float, int]]",
               inflight: "list[tuple[float, int]]") -> float:
    """Time the parent spent blocked at the merge point: from each
    ``set_inflight`` (issued right before waiting on the head batch) to
    the next merge."""
    total = 0.0
    for t_wait, _depth in inflight:
        later = [t for t, _ in merges if t >= t_wait]
        if later:
            total += later[0] - t_wait
    return total


def self_times(spans: "list[dict]") -> "dict[int, float]":
    """Self time of every span: its duration minus the part its direct
    children cover (children never overlap their siblings here)."""
    child_total: "dict[int, float]" = {}
    for span in spans:
        parent = span["parent"]
        if parent is not None:
            child_total[parent] = child_total.get(parent, 0.0) \
                + span["end"] - span["start"]
    return {span["id"]: span["end"] - span["start"]
            - child_total.get(span["id"], 0.0) for span in spans}


def layer_totals(spans: "list[dict]") -> "dict[str, float]":
    """Summed self time per span name, less any ``deduct`` a span
    carries (duplicate work timed separately, e.g. chaining)."""
    selfs = self_times(spans)
    totals: "dict[str, float]" = {}
    for span in spans:
        value = selfs[span["id"]] - span.get("deduct", 0.0)
        totals[span["name"]] = totals.get(span["name"], 0.0) + value
    return totals


def unattributed(spans: "list[dict]", wall: float) -> float:
    """Traced wall time outside every span: wall minus the sum of all
    self times (= wall minus the root spans)."""
    return wall - sum(self_times(spans).values())


def root_time(spans: "list[dict]", prefix: str) -> float:
    """Summed duration of the top-level spans whose name starts with
    ``prefix``."""
    return sum(span["end"] - span["start"] for span in spans
               if span["parent"] is None and span["name"].startswith(prefix))
