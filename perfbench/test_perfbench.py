"""Self-tests for the benchmark on a tiny genome (seconds, not minutes).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import sys

import pytest

import benchlib as lib
import job
import run

sys.path.insert(0, str(lib.SRC))

TINY_GENOME = 3_000


def tiny(name: str, reads: int) -> lib.Workload:
    return dataclasses.replace(lib.WORKLOADS[name], reads=reads)


# -- steady reads/s from reporter timestamps ----------------------------

def test_steady_window_skips_the_first_batch():
    merges = [(10.0, 64), (11.0, 64), (12.0, 32), (12.5, 36)]
    assert lib.steady_window(merges) == (132, 2.5)
    assert lib.steady_window(merges[:1]) == (0, 0.0)


def test_steady_window_opens_after_one_batch_per_worker():
    # Two workers merge batches pairwise; the first pair is warm-up.
    merges = [(10.0, 128), (10.1, 128), (11.1, 128), (11.2, 128),
              (12.2, 128), (12.3, 64)]
    reads, seconds = lib.steady_window(merges, workers=2)
    assert reads == 448 and seconds == pytest.approx(2.2)


def test_steady_rate_pools_windows():
    assert lib.steady_rate([(100, 1.0), (300, 1.0)]) == 200.0
    assert lib.steady_rate([(0, 0.0)]) is None


def test_merge_clock_timestamps_every_merged_batch():
    from repro.core import ErtConfig, build_ert
    from repro.parallel import ParallelConfig, seed_reads
    from repro.sequence import GenomeSimulator, ReadSimulator

    reference = GenomeSimulator(seed=lib.GENOME_SEED).generate(TINY_GENOME)
    index = build_ert(reference, ErtConfig(k=5, max_seed_len=120))
    reads = ReadSimulator(reference, seed=3).simulate(40)
    clock = job.MergeClock(len(reads))
    seed_reads(index, reads, config=ParallelConfig(workers=1, batch_size=16),
               reporter=clock)
    assert [n for _, n in clock.merges] == [16, 16, 8]
    times = [t for t, _ in clock.merges]
    assert times == sorted(times)
    reads, seconds = lib.steady_window(clock.merges)
    assert reads == 24 and seconds == pytest.approx(times[2] - times[0])


# -- span arithmetic ------------------------------------------------------

def test_layer_self_times_subtract_children_and_duplicates():
    spans = [
        {"id": 0, "name": "extend.align_sam", "parent": None,
         "start": 0.0, "end": 10.0, "deduct": 1.0},
        {"id": 1, "name": "kernels.traceback", "parent": 0,
         "start": 2.0, "end": 6.0},
        {"id": 2, "name": "extend.chain_seeds", "parent": None,
         "start": 10.0, "end": 11.0},
    ]
    totals = lib.layer_totals(spans)
    assert totals == {"extend.align_sam": 5.0, "kernels.traceback": 4.0,
                      "extend.chain_seeds": 1.0}
    # Unattributed time ignores the deduction: only gaps between roots.
    assert lib.unattributed(spans, wall=12.5) == pytest.approx(1.5)


def test_root_time_sums_top_level_spans_by_prefix():
    spans = [
        {"id": 0, "name": "parallel.shm_publish", "parent": None,
         "start": 0.0, "end": 2.0},
        {"id": 1, "name": "parallel.align_pairs", "parent": None,
         "start": 2.0, "end": 7.0},
        {"id": 2, "name": "parallel.attach", "parent": 1,
         "start": 3.0, "end": 4.0},
        {"id": 3, "name": "core.load_ert", "parent": None,
         "start": 7.0, "end": 8.0},
    ]
    assert lib.root_time(spans, "parallel.") == 7.0


def test_merge_wait_runs_from_each_wait_to_the_next_merge():
    inflight = [(1.0, 4), (3.0, 4), (3.5, 3)]
    merges = [(2.0, 128), (4.0, 128), (4.5, 128)]
    assert lib.merge_wait(merges, inflight) == pytest.approx(1.0 + 1.0
                                                             + 0.5)


# -- failed_frac accounting ----------------------------------------------

def test_failed_reads_count_whole_jobs():
    assert lib.job_failed_reads(b"abc", b"abc", 10) == 0
    assert lib.job_failed_reads(b"abd", b"abc", 10) == 10
    assert lib.job_failed_reads(b"abc", b"abc", 10, error="boom") == 10


def test_injected_oracle_mismatch_fails_every_read(tmp_path):
    workload = tiny("seed-vector", 48)
    inputs = run.Inputs(workload, 7, tmp_path, TINY_GENOME)
    inputs.prepare()
    run.ensure_oracle(inputs, run.Runner(inputs, tmp_path / "oracle-run"))
    good = inputs.oracle.read_bytes()
    inputs.oracle.write_bytes(good.replace(b"\t", b" ", 1))
    result = run.run_workload(workload, 7, 0.0, False, tmp_path,
                              TINY_GENOME)
    assert not result["correct"]
    assert result["attempted"] > 0
    assert result["failed"] == result["attempted"]
    assert result["metrics"] == {}


def test_digest_mismatch_fails_every_read(tmp_path):
    workload = tiny("seed-vector", 48)
    inputs = run.Inputs(workload, 7, tmp_path, TINY_GENOME)
    inputs.prepare()
    run.ensure_oracle(inputs, run.Runner(inputs, tmp_path / "oracle-run"))
    digests = {key: lib.file_sha256(path)
               for key, path in inputs.digested().items()}
    assert run.digest_errors(inputs, {}) == ([], list(digests))
    result = run.run_workload(workload, 7, 0.0, False, tmp_path,
                              TINY_GENOME, digests=digests)
    assert result["correct"] and result["failed"] == 0
    assert result["digests_unrecorded"] == []
    oracle_key = str(inputs.oracle.relative_to(inputs.shared.parent))
    digests[oracle_key] = "0" * 64
    result = run.run_workload(workload, 7, 0.0, False, tmp_path,
                              TINY_GENOME, digests=digests)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert any(oracle_key in error and "digests.json" in error
               for error in result["errors"])


# -- seeded inputs ----------------------------------------------------------

def _reference():
    from repro.sequence import GenomeSimulator

    return GenomeSimulator(seed=lib.GENOME_SEED).generate(TINY_GENOME)


def _truth_matches(reference, read) -> int:
    """Mismatches between a read and the reference at its ground truth."""
    import numpy as np

    from repro.sequence.alphabet import COMPLEMENT

    span = reference.codes[read.origin:read.origin + len(read)]
    if read.strand.value == "-":
        span = COMPLEMENT[span][::-1]
    return int(np.count_nonzero(span != read.codes))


def test_stratified_reads_are_seeded_and_true_to_their_origin():
    import reads

    reference = _reference()
    first = reads.stratified_reads(reference, 60, seed=5)
    again = reads.stratified_reads(reference, 60, seed=5)
    assert [r.sequence for r in first] == [r.sequence for r in again]
    assert [r.sequence for r in first] != \
        [r.sequence for r in reads.stratified_reads(reference, 60, seed=6)]
    assert sorted(r.name for r in first) == \
        sorted(f"read_{i}" for i in range(60))
    # One read per stratum of the genome.
    span = TINY_GENOME - 101 + 1
    for i, origin in enumerate(sorted(r.origin for r in first)):
        assert origin * 60 // span == i
    mismatches = [_truth_matches(reference, r) for r in first]
    assert max(mismatches) <= 10
    assert 0.5 < sum(1 for m in mismatches if m == 0) / 60 < 1.0


def test_stratified_reads_are_simulator_draws():
    """Kept reads are the simulator's own, only renamed."""
    import reads
    from repro.sequence import ReadSimulator

    reference = _reference()
    drawn = {(r.origin, r.sequence)
             for r in ReadSimulator(reference, seed=5).simulate(2000)}
    for read in reads.stratified_reads(reference, 30, seed=5):
        assert (read.origin, read.sequence) in drawn


def test_stratified_pairs_face_each_other():
    import reads

    reference = _reference()
    mates = reads.stratified_pairs(reference, 30, seed=5)
    assert len(mates) == 60
    span = TINY_GENOME - (350 + 4 * 50) + 1
    starts = []
    for first, second in zip(mates[::2], mates[1::2]):
        assert first.name.endswith("/1") and second.name.endswith("/2")
        assert first.name[:-2] == second.name[:-2]
        assert {first.strand.value, second.strand.value} == {"+", "-"}
        fwd, rev = (first, second) if first.strand.value == "+" \
            else (second, first)
        assert 0 <= rev.origin - fwd.origin <= 550 - 101
        starts.append(fwd.origin)
        assert _truth_matches(reference, first) <= 10
        assert _truth_matches(reference, second) <= 10
    assert sorted(start * 30 // span for start in starts) == list(range(30))


# -- placement tolerance --------------------------------------------------

def _sam(name, flag, pos):
    return "\t".join([name, str(flag), "chr", str(pos), "60", "101M", "*",
                      "0", "0", "A", "I"])


def test_sam_placement_tolerance_and_strand():
    tol = lib.PLACEMENT_TOLERANCE_BP
    truth = {"a": (100, "+"), "b": (100, "+"), "c": (100, "-"),
             "d": (100, "+"), "e": (100, "+")}
    sam = "\n".join(["@HD\tVN:1.6",
                     _sam("a", 0, 101 + tol),        # at the tolerance
                     _sam("b", 0, 101 + tol + 1),    # one past it
                     _sam("c", 0, 101),              # wrong strand
                     _sam("d", 4, 0),                # unmapped
                     _sam("e", 0x100, 101),          # secondary: skipped
                     _sam("e", 0, 101 - tol)])
    assert lib.sam_placement(sam, truth) == pytest.approx(2 / 5)


def test_sam_placement_keys_mates_by_flag():
    truth = {"p/1": (50, "+"), "p/2": (300, "-")}
    sam = "\n".join([_sam("p", 0x1 | 0x40, 51),
                     _sam("p", 0x1 | 0x80 | 0x10, 301)])
    assert lib.sam_placement(sam, truth) == 1.0


def test_tsv_placement_maps_both_strands():
    n, length = 1000, 101
    # Forward read at 200: a seed at read offset 5 hits X at 205.
    # Reverse read at 400: its read offset 10 covers forward position
    # 400 + 101 - 10 - 20 = 471, i.e. X position 2n - 471 - 20.
    truth = {"f": (200, "+"), "r": (400, "-"), "x": (600, "+")}
    tsv = "\n".join(["read\tstart\tlength\thit_count\thits",
                     "f\t5\t20\t2\t3,205",
                     f"r\t10\t20\t1\t{2 * n - 471 - 20}",
                     "x\t0\t20\t1\t900"])
    assert lib.tsv_placement(tsv, truth, n, length) == pytest.approx(2 / 3)


# -- traced replay == untraced job ----------------------------------------

@pytest.mark.parametrize("name,reads", [("seed-vector", 96),
                                        ("align-vector", 48),
                                        ("pe-scalar-cold", 320)])
def test_traced_replay_is_byte_identical(tmp_path, name, reads):
    workload = tiny(name, reads)
    result = run.run_workload(workload, 11, 0.0, True, tmp_path,
                              TINY_GENOME)
    assert result["errors"] == []
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == set(run.LAYER_UNITS)
    assert metrics["core.load_ert_s"]["value"] > 0
    if workload.kernels == "vector":
        assert metrics["kernels.seed_batch_s"]["value"] > 0
        assert metrics["kernels.flat_trees_s"]["value"] > 0
    if workload.task == "align":
        assert metrics["kernels.traceback_calls"]["value"] > 0
    if workload.cold:
        assert metrics["core.save_ert_s"]["value"] > 0
        assert metrics["parallel.shm_bytes"]["value"] > 0
        assert metrics["seeding.seed_read_s"]["value"] > 0
        assert metrics["parallel.scaling_efficiency"]["value"] > 0


# -- BENCHMARK.json agrees with the code ----------------------------------

def test_benchmark_json_matches_the_code():
    import json

    spec = json.loads((lib.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} \
        == {w.name: w.why for w in lib.WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.LAYER_UNITS
