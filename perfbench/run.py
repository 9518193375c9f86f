"""End-to-end, layer-by-layer benchmark of the ERT seeding/alignment CLI
path.  See README.md in this directory for the workloads, metrics and
what each one is expected to move.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S \
        --trace 0|1

Run from the repository root.  Each timed job is a fresh interpreter
(``job.py``) doing what one CLI job does; its output is compared byte
for byte with the scalar 1-worker oracle for the same seed.  With
``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics (medians over the run's jobs); with ``--trace 1`` it holds the
per-layer metrics of traced replays.  Inputs, prebuilt indexes, oracles
and full per-run records go to ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import benchlib as lib
from benchlib import WORKLOADS, Workload

JOB = Path(__file__).resolve().parent / "job.py"
#: Every run must end well inside three minutes.
RUN_BUDGET_S = 165.0
JOB_TIMEOUT_S = 150.0
#: Untraced/traced job pairs in a warm workload's traced run.
TRACE_PAIRS = 3

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "reads_per_s": "reads/s",
             "peak_rss_mb": "MB", "placement_accuracy": "frac"}

LAYER_UNITS = {
    "repro.import_s": "s",
    "sequence.read_fasta_s": "s",
    "sequence.read_fastq_s": "s",
    "core.build_ert_s": "s",
    "core.save_ert_s": "s",
    "core.load_ert_s": "s",
    "core.begin_batch_s": "s",
    "core.trees": "count",
    "core.index_file_bytes": "B",
    "kernels.flat_trees_s": "s",
    "kernels.arena_bytes": "B",
    "kernels.seed_batch_s": "s",
    "kernels.walk_steps": "count/read",
    "kernels.gather_bytes": "B/read",
    "kernels.lane_occupancy": "frac",
    "kernels.traceback_s": "s",
    "kernels.traceback_calls": "count",
    "kernels.traceback_lanes_mean": "count",
    "kernels.traceback_below_min_lanes_frac": "frac",
    "seeding.seed_read_s": "s",
    "seeding.backward_searches": "count/read",
    "seeding.pruned_backward_searches": "count/read",
    "seeding.pruned_frac": "frac",
    "seeding.index_lookups": "count/read",
    "extend.chain_seeds_s": "s",
    "extend.align_sam_s": "s",
    "extend.align_pair_s": "s",
    "extend.write_sam_s": "s",
    "parallel.shm_publish_s": "s",
    "parallel.shm_bytes": "B",
    "parallel.attach_s": "s",
    "parallel.align_pairs_s": "s",
    "parallel.merge_wait_s": "s",
    "parallel.inflight_mean": "count",
    "parallel.crashes": "count",
    "parallel.scaling_efficiency": "frac",
    "trace.overhead_frac": "frac",
    "trace.unattributed_s": "s",
}


# ----------------------------------------------------------------------
# Inputs and oracle (outside every timed job)
# ----------------------------------------------------------------------

class Inputs:
    """Generated inputs for one workload and seed, under a work
    directory keyed by the program's source digest."""

    def __init__(self, workload: Workload, seed: int, work: Path,
                 genome_len: int = lib.GENOME_LEN) -> None:
        self.workload = workload
        self.seed = seed
        self.genome_len = genome_len
        self.shared = work / lib.source_digest() / f"genome{genome_len}"
        self.fasta = self.shared / "genome.fa"
        self.warm_index = self.shared / "warm.npz"
        tag = f"{workload.task}-{workload.reads}-seed{seed}"
        self.dir = self.shared / tag
        self.fastq = self.dir / "reads.fq"
        self.truth_path = self.dir / "truth.json"
        ext = "tsv" if workload.task == "seed" else "sam"
        self.oracle = self.dir / f"oracle.{ext}"

    def prepare(self) -> None:
        if not self.warm_index.is_file():
            self._build_shared()
        if not self.truth_path.is_file():
            self._simulate_reads()

    def _build_shared(self) -> None:
        sys.path.insert(0, str(lib.SRC))
        from repro.core import ErtConfig, build_ert, save_ert
        from repro.sequence import GenomeSimulator, write_fasta

        self.shared.mkdir(parents=True, exist_ok=True)
        # The repo's standard generator and seed (benchmarks/conftest.py).
        reference = GenomeSimulator(seed=lib.GENOME_SEED).generate(
            self.genome_len)
        write_fasta(self.fasta, [reference])
        index = build_ert(reference, ErtConfig(k=lib.K,
                                               max_seed_len=lib.MAX_SEED_LEN))
        tmp = self.shared / "warm.tmp.npz"
        save_ert(index, tmp)
        tmp.replace(self.warm_index)

    def _simulate_reads(self) -> None:
        sys.path.insert(0, str(lib.SRC))
        from repro.sequence import read_fasta, write_fastq

        from reads import stratified_pairs, stratified_reads

        self.dir.mkdir(parents=True, exist_ok=True)
        reference = read_fasta(self.fasta)[0]
        if self.workload.task == "align-pe":
            reads = stratified_pairs(
                reference, self.workload.reads // 2, self.seed,
                read_length=lib.READ_LEN, insert_mean=lib.INSERT_MEAN,
                insert_sd=lib.INSERT_SD,
                error_fraction=lib.ERROR_READ_FRACTION)
        else:
            reads = stratified_reads(
                reference, self.workload.reads, self.seed,
                read_length=lib.READ_LEN,
                error_fraction=lib.ERROR_READ_FRACTION)
        write_fastq(self.fastq, reads)
        truth = {r.name: (r.origin, r.strand.value) for r in reads}
        _write_atomic(self.truth_path, json.dumps(truth))

    def truth(self) -> "dict[str, tuple[int, str]]":
        return {k: tuple(v) for k, v in
                json.loads(self.truth_path.read_text()).items()}

    def digested(self) -> "dict[str, Path]":
        """The files ``digests.json`` pins, by their key there: the path
        below the source-digest level, the same on every checkout."""
        return {str(path.relative_to(self.shared.parent)): path
                for path in (self.fasta, self.fastq, self.oracle)}


def digest_errors(inputs: Inputs, digests: "dict[str, str]") \
        -> "tuple[list[str], list[str]]":
    """Files of this seed whose SHA-256 differs from the committed one,
    and the keys of those with no committed digest."""
    errors = []
    unrecorded = []
    for key, path in inputs.digested().items():
        want = digests.get(key)
        if want is None:
            unrecorded.append(key)
            continue
        if lib.file_sha256(path) != want:
            errors.append(f"{key} differs from its digest in "
                          f"perfbench/{lib.DIGESTS.name}: the inputs or "
                          f"the oracle output changed")
    return errors, unrecorded


class Runner:
    """Spawns job processes and keeps their files in one run directory."""

    def __init__(self, inputs: Inputs, run_dir: Path) -> None:
        self.inputs = inputs
        self.run_dir = run_dir
        run_dir.mkdir(parents=True, exist_ok=True)
        self.count = 0

    def spec(self, *, kernels: str, workers: int, cold: bool,
             traced: bool) -> dict:
        self.count += 1
        job_dir = self.run_dir / f"job{self.count}"
        job_dir.mkdir()
        w = self.inputs.workload
        ext = "tsv" if w.task == "seed" else "sam"
        return {
            "src": str(lib.SRC), "task": w.task, "kernels": kernels,
            "workers": workers, "cold": cold, "traced": traced,
            "fasta": str(self.inputs.fasta), "fastq": str(self.inputs.fastq),
            "index": str(job_dir / "index.npz" if cold
                         else self.inputs.warm_index),
            "out": str(job_dir / f"out.{ext}"),
            "result": str(job_dir / "result.json"),
            "log": str(job_dir / "log.txt"),
        }

    def run(self, spec: dict) -> "tuple[dict | None, str | None]":
        """Run one job; returns (record, error)."""
        spec_path = Path(spec["result"]).with_name("spec.json")
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        with open(spec["log"], "w") as log:
            spec["t0"] = time.monotonic()
            spec_path.write_text(json.dumps(spec))
            proc = subprocess.Popen(
                [sys.executable, str(JOB), str(spec_path)],
                stdout=log, stderr=subprocess.STDOUT, env=env,
                cwd=str(lib.ROOT), start_new_session=True)
            try:
                code = proc.wait(timeout=JOB_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                code = None
            finally:
                _kill_group(proc)
        if code != 0:
            tail = Path(spec["log"]).read_text()[-2000:]
            return None, f"job exited with {code}: {tail}"
        return json.loads(Path(spec["result"]).read_text()), None


def _kill_group(proc: subprocess.Popen) -> None:
    """Stop the job and anything it started (pool workers, the shared
    memory resource tracker), then wait until the whole group is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    proc.wait()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except (ProcessLookupError, PermissionError):
            return
        time.sleep(0.01)


def ensure_oracle(inputs: Inputs, runner: Runner) -> None:
    """The scalar 1-worker output for this seed, computed once by an
    untraced warm job."""
    if inputs.oracle.is_file():
        return
    spec = runner.spec(kernels="scalar", workers=1, cold=False,
                       traced=False)
    _record, error = runner.run(spec)
    if error is not None:
        raise RuntimeError(f"oracle job failed: {error}")
    tmp = inputs.oracle.with_name(inputs.oracle.name + ".tmp")
    shutil.copyfile(spec["out"], tmp)
    tmp.replace(inputs.oracle)


def _write_atomic(path: Path, text: str) -> None:
    """Cache files are written last and whole, so a run killed midway
    leaves a cache entry either complete or absent."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    tmp.replace(path)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def job_metrics(record: dict, workers: int) -> dict:
    """End-to-end metrics of one untraced job."""
    merges = record["merges"]
    t0 = record["t0"]
    return {
        "wall_s": record["t_end"] - t0,
        "setup_s": merges[0][0] - t0,
        "window": lib.steady_window(merges, workers),
        "peak_rss_mb": (record["parent_peak_kb"]
                        + record["worker_peak_kb"]) / 1024.0,
    }


def run_metrics(jobs: "list[dict]") -> "dict[str, float]":
    """A run's end-to-end metrics: medians over its jobs, except
    ``reads_per_s``, the throughput over all of its jobs' steady
    windows together."""
    if not jobs:
        return {}
    out = {name: statistics.median([job[name] for job in jobs])
           for name in E2E_UNITS if name != "reads_per_s"}
    out["reads_per_s"] = lib.steady_rate([job["window"] for job in jobs])
    return {name: out[name] for name in E2E_UNITS
            if out[name] is not None}


def placement(inputs: Inputs, output: bytes) -> float:
    text = output.decode()
    if inputs.workload.task == "seed":
        return lib.tsv_placement(text, inputs.truth(), inputs.genome_len,
                                 lib.READ_LEN)
    return lib.sam_placement(text, inputs.truth())


def layer_metrics(traced: dict, untraced: dict, workers: int) -> dict:
    """Per-layer metrics of one traced replay (0 where the layer did no
    work on this workload).  ``untraced`` is the end-to-end metrics of
    the 1-worker untraced job run right before it."""
    totals = lib.layer_totals(traced["spans"])
    wall = traced["t_end"] - traced["t0"]
    reads = traced["reads"]
    out = {name: 0.0 for name in LAYER_UNITS}
    for name, seconds in totals.items():
        key = name + "_s"
        if key in out:
            out[key] = seconds
    out.update(traced["counters"])
    kernel = traced["kernel"]
    out["kernels.walk_steps"] = kernel["walk_steps"] / reads
    out["kernels.gather_bytes"] = kernel["gather_bytes"] / reads
    if kernel["occ_slots"]:
        out["kernels.lane_occupancy"] = \
            kernel["occ_live"] / kernel["occ_slots"]
    lanes = traced["traceback_lanes"]
    if lanes:
        out["kernels.traceback_calls"] = len(lanes)
        out["kernels.traceback_lanes_mean"] = sum(lanes) / len(lanes)
        out["kernels.traceback_below_min_lanes_frac"] = sum(
            1 for n in lanes if n < traced["min_wavefront_lanes"]) \
            / len(lanes)
    engine = traced["engine"]
    backward = engine.get("backward_searches", 0)
    pruned = engine.get("pruned_backward_searches", 0)
    out["seeding.backward_searches"] = backward / reads
    out["seeding.pruned_backward_searches"] = pruned / reads
    out["seeding.index_lookups"] = engine.get("index_lookups", 0) / reads
    if backward:
        out["seeding.pruned_frac"] = pruned / backward
    pool = traced["pool"]
    if pool is not None:
        out["parallel.merge_wait_s"] = lib.merge_wait(pool["merges"],
                                                      pool["inflight"])
        depths = [n for _, n in pool["inflight"]]
        out["parallel.inflight_mean"] = (sum(depths) / len(depths)
                                         if depths else 0.0)
        out["parallel.crashes"] = pool["crashes"]
        rate_n = lib.steady_rate([lib.steady_window(pool["merges"],
                                                    workers)])
        rate_1 = lib.steady_rate([untraced["window"]])
        if rate_n and rate_1:
            out["parallel.scaling_efficiency"] = rate_n / (workers * rate_1)
    # The replay is serial: its overhead excludes the N-worker leg.
    replay_wall = wall - lib.root_time(traced["spans"], "parallel.")
    out["trace.overhead_frac"] = replay_wall / untraced["wall_s"] - 1.0
    out["trace.unattributed_s"] = lib.unattributed(traced["spans"], wall)
    return out


# ----------------------------------------------------------------------
# One workload run
# ----------------------------------------------------------------------

def run_workload(workload: Workload, seed: int, seconds: float,
                 trace: bool, work: Path = lib.WORK,
                 genome_len: int = lib.GENOME_LEN,
                 digests: "dict[str, str] | None" = None) -> dict:
    """One run of one workload; returns the contract record plus the
    details kept in the work directory.  ``digests`` defaults to the
    committed ``digests.json``."""
    started = time.monotonic()
    inputs = Inputs(workload, seed, work, genome_len)
    inputs.prepare()
    run_dir = work / "runs" / f"{workload.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    runner = Runner(inputs, run_dir)
    ensure_oracle(inputs, runner)
    oracle = inputs.oracle.read_bytes()
    digest_errs, unrecorded = digest_errors(
        inputs, lib.load_digests() if digests is None else digests)

    attempted = failed = 0
    jobs: "list[dict]" = []
    errors: "list[str]" = []

    def timed_job(workers: int = workload.workers) -> "dict | None":
        nonlocal attempted, failed
        spec = runner.spec(kernels=workload.kernels, workers=workers,
                           cold=workload.cold, traced=False)
        record, error = runner.run(spec)
        output = Path(spec["out"]).read_bytes() \
            if error is None else b""
        attempted += workload.reads
        bad = lib.job_failed_reads(output, oracle, workload.reads, error)
        failed += bad
        if error is not None or bad:
            errors.append(error or "output differs from the oracle")
            return None
        metrics = job_metrics(record, workers)
        metrics["placement_accuracy"] = placement(inputs, output)
        jobs.append(metrics)
        return metrics

    def traced_job() -> "dict | None":
        nonlocal attempted, failed
        spec = runner.spec(kernels=workload.kernels,
                           workers=workload.workers, cold=workload.cold,
                           traced=True)
        traced, error = runner.run(spec)
        replay = Path(spec["out"]).read_bytes() if error is None else b""
        attempted += workload.reads
        bad = lib.job_failed_reads(replay, oracle, workload.reads, error)
        if error is None and bad:
            error = "traced replay differs from the oracle"
        if traced is not None and traced["pool_matches_replay"] is False:
            bad = workload.reads
            error = "2-worker leg differs from the traced replay"
        failed += bad
        if error is not None:
            errors.append(error)
            return None
        return traced

    result: dict = {"workload": dataclasses.asdict(workload), "seed": seed,
                    "trace": int(trace),
                    "environment": lib.environment(workload),
                    "genome_len": genome_len,
                    "digests_unrecorded": unrecorded}
    if not trace:
        while True:
            t_job = time.monotonic()
            timed_job()
            last = time.monotonic() - t_job
            elapsed = time.monotonic() - started
            measured = sum(j["wall_s"] for j in jobs)
            enough = len(jobs) >= workload.min_jobs and measured >= seconds
            if enough or elapsed + 1.2 * last > RUN_BUDGET_S \
                    or (errors and not jobs):
                break
        metrics = {name: {"value": value, "unit": E2E_UNITS[name]}
                   for name, value in run_metrics(jobs).items()}
        result["jobs"] = jobs
    else:
        # Untraced and traced jobs alternate.  The untraced job runs at
        # 1 worker, like the traced replay; on the cold workload it also
        # gives the 1-worker rate next to the traced job's N-worker leg.
        # Warm workloads repeat the pair and report medians, because one
        # job's wall moves with the host by more than the tracing costs;
        # a cold pair takes well over a minute, so it runs once.
        samples = []
        for _ in range(1 if workload.cold else TRACE_PAIRS):
            untraced = timed_job(workers=1)
            traced = traced_job()
            if untraced is None or traced is None:
                break
            samples.append(layer_metrics(traced, untraced,
                                         workload.workers))
            result["spans"] = traced["spans"]
        metrics = {}
        if samples and not errors:
            metrics = {name: {"value": statistics.median(
                           sample[name] for sample in samples),
                              "unit": unit}
                       for name, unit in LAYER_UNITS.items()}
    if digest_errs:
        # A changed input or oracle voids every comparison of the run.
        failed = attempted
        errors.extend(digest_errs)
    result.update({"correct": failed == 0 and not errors,
                   "attempted": attempted, "failed": failed,
                   "metrics": metrics, "errors": errors})
    (work / "results").mkdir(parents=True, exist_ok=True)
    (work / "results" / f"{run_dir.name}.json").write_text(
        json.dumps(result, indent=1))
    shutil.rmtree(run_dir, ignore_errors=True)
    return result


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    lib.ensure_program()
    names = sorted(WORKLOADS) if args.workload == "all" \
        else [args.workload]
    for name in names:
        workload = WORKLOADS[name]
        if lib.usable_cpus() < workload.workers:
            print(f"perfbench: {name} needs {workload.workers} cores and "
                  f"this host has {lib.usable_cpus()}; not a valid "
                  f"measurement here", file=sys.stderr)
            return 3
    results = {name: run_workload(WORKLOADS[name], args.seed, args.seconds,
                                  bool(args.trace)) for name in names}
    for name, result in results.items():
        for error in result["errors"]:
            print(f"perfbench: {name}: {error}", file=sys.stderr)
        if result["digests_unrecorded"]:
            print(f"perfbench: {name}: no digest in perfbench/"
                  f"{lib.DIGESTS.name} for "
                  f"{', '.join(result['digests_unrecorded'])}; output "
                  f"checked against this checkout's oracle only",
                  file=sys.stderr)
        for metric, entry in result["metrics"].items():
            print(f"{name:15s} {metric:42s} {entry['value']:14.6g} "
                  f"{entry['unit']}")
    if any(not r["metrics"] for r in results.values()):
        print("perfbench: no metrics (every job failed)", file=sys.stderr)
        return 1
    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {(f"{name}.{metric}" if prefix else metric): entry
                    for name, r in results.items()
                    for metric, entry in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
