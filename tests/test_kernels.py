"""Scalar-vs-vector kernel equivalence (the oracle contract).

The batched kernels (:mod:`repro.kernels`) promise byte-identical output
to the scalar paths at every level: seeds from :func:`seed_batch`, SAM
records through the scheduler with ``kernels="vector"`` at any worker
count, and scores/coordinates from the wavefront Smith-Waterman.  These
tests fuzz that promise over adversarial reads (short, homopolymer,
error-heavy, reverse-complement) and band-edge SW geometries.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.core import ErtSeedingEngine
from repro.extend.pipeline import ReadAligner
from repro.extend.paired import PairedAligner
from repro.extend.smith_waterman import (
    DEFAULT_SCHEME,
    ScoringScheme,
    SwWorkspace,
    banded_smith_waterman,
)
from repro.extend.traceback import banded_sw_traceback
from repro.kernels import (
    batched_banded_sw,
    batched_sw_traceback,
    resolve_kernels,
    seed_batch,
    vector_decline_reason,
    vector_ready,
)
from repro.memsim.trace import MemoryTracer
from repro.parallel import ParallelConfig, align_pairs, align_reads, seed_reads
from repro.seeding.algorithm import seed_read


def _seed_key(result):
    return [(s.read_start, s.length, s.hit_count, tuple(s.hits))
            for s in result.all_seeds]


def _assert_batch_matches_scalar(ert_index, read_list, params):
    scalar_engine = ErtSeedingEngine(ert_index)
    vector_engine = ErtSeedingEngine(ert_index)
    scalar = [seed_read(scalar_engine, r, params) for r in read_list]
    vector = seed_batch(vector_engine, read_list, params)
    assert len(scalar) == len(vector)
    for i, (a, b) in enumerate(zip(scalar, vector)):
        assert _seed_key(a) == _seed_key(b), f"read {i} diverged"
    assert (scalar_engine.stats.truncated_hit_lists
            == vector_engine.stats.truncated_hit_lists)


def test_seed_batch_matches_scalar_on_fixture_reads(ert_index, read_codes,
                                                    params):
    _assert_batch_matches_scalar(ert_index, read_codes, params)


def _fuzz_reads(reference, rng, count):
    """Adversarial read set: reference slices with errors, pure random
    sequence, homopolymers, and lengths straddling k / min_seed_len."""
    n = len(reference)
    out = []
    for i in range(count):
        kind = i % 5
        if kind == 0:  # clean reference slice
            length = int(rng.integers(20, 90))
            start = int(rng.integers(0, n - length))
            read = reference.codes[start:start + length].copy()
        elif kind == 1:  # error-heavy slice (forces early LEP splits)
            length = int(rng.integers(20, 90))
            start = int(rng.integers(0, n - length))
            read = reference.codes[start:start + length].copy()
            for _ in range(int(rng.integers(1, 6))):
                read[int(rng.integers(0, length))] = int(rng.integers(0, 4))
        elif kind == 2:  # pure random (mostly dead-end walks)
            read = rng.integers(0, 4, size=int(rng.integers(1, 60)))
        elif kind == 3:  # homopolymer (deep-repeat LAST scans)
            read = np.full(int(rng.integers(5, 70)),
                           int(rng.integers(0, 4)))
        else:  # short reads around the k / min_seed_len boundaries
            read = rng.integers(0, 4, size=int(rng.integers(1, 14)))
        out.append(np.asarray(read, dtype=np.uint8))
    return out


def test_seed_batch_matches_scalar_on_fuzzed_reads(ert_index, reference,
                                                   params):
    rng = np.random.default_rng(2024)
    reads = _fuzz_reads(reference, rng, 60)
    _assert_batch_matches_scalar(ert_index, reads, params)


def test_seed_batch_matches_scalar_under_tight_hit_cap(ert_index, reference,
                                                       params):
    """A small gather limit exercises the truncated-hit-list branch in
    both the cache-preseed and walk-fallback paths."""
    from repro.seeding import SeedingParams

    rng = np.random.default_rng(7)
    reads = _fuzz_reads(reference, rng, 30)
    tight = SeedingParams(min_seed_len=params.min_seed_len,
                          max_hits_per_seed=2)
    scalar_engine = ErtSeedingEngine(ert_index, gather_limit=2)
    vector_engine = ErtSeedingEngine(ert_index, gather_limit=2)
    scalar = [seed_read(scalar_engine, r, tight) for r in reads]
    vector = seed_batch(vector_engine, reads, tight)
    for a, b in zip(scalar, vector):
        assert _seed_key(a) == _seed_key(b)
    assert scalar_engine.stats.truncated_hit_lists \
        == vector_engine.stats.truncated_hit_lists
    assert vector_engine.stats.truncated_hit_lists > 0


def test_vector_ready_gates(ert_index, ert, fmd):
    engine = ErtSeedingEngine(ert_index)
    assert vector_ready(engine)
    assert vector_decline_reason(engine) is None
    # Telemetry is deliberately NOT a decline reason any more: the
    # vector path runs fully observed through batch-flushed
    # accumulators, so the old telemetry.enabled() escape hatch is gone.
    telemetry.reset()
    telemetry.enable()
    try:
        assert vector_ready(engine)
        assert vector_decline_reason(engine) is None
    finally:
        telemetry.disable()
        telemetry.reset()
    # The remaining gates (per-access instrumentation that needs the
    # scalar cursor) still decline, each with its fallback-counter label.
    tracer = MemoryTracer()
    ert_index.attach_tracer(tracer)
    try:
        assert not vector_ready(engine)
        assert vector_decline_reason(engine) == "tracer"
    finally:
        ert_index.attach_tracer(None)
    assert vector_ready(engine)
    assert vector_decline_reason(fmd) == "engine"
    assert not vector_ready(fmd)


def test_seed_batch_falls_back_when_ineligible(ert_index, read_codes,
                                               params):
    """An ineligible engine (memsim tracer attached) silently takes the
    per-read scalar loop and counts the decline; the batch entry point
    still returns the scalar results."""
    engine = ErtSeedingEngine(ert_index)
    oracle = [seed_read(ErtSeedingEngine(ert_index), r, params)
              for r in read_codes]
    tracer = MemoryTracer()
    ert_index.attach_tracer(tracer)
    telemetry.reset()
    telemetry.enable()
    try:
        results = seed_batch(engine, read_codes, params)
        counters = telemetry.snapshot()["counters"]
    finally:
        ert_index.attach_tracer(None)
        telemetry.disable()
        telemetry.reset()
    for a, b in zip(oracle, results):
        assert _seed_key(a) == _seed_key(b)
    assert counters["kernels.fallback_scalar.tracer"] == 1
    assert "kernels.batches" not in counters


def test_seed_batch_runs_vector_with_telemetry_live(ert_index, read_codes,
                                                    params):
    """With telemetry live the batch entry point takes the *vector*
    path (one kernels.batch flush), and the results still match the
    scalar oracle -- the byte-identity contract holds observed."""
    engine = ErtSeedingEngine(ert_index)
    oracle = [seed_read(ErtSeedingEngine(ert_index), r, params)
              for r in read_codes]
    telemetry.reset()
    telemetry.enable()
    try:
        results = seed_batch(engine, read_codes, params)
        counters = telemetry.snapshot()["counters"]
    finally:
        telemetry.disable()
        telemetry.reset()
    for a, b in zip(oracle, results):
        assert _seed_key(a) == _seed_key(b)
    assert counters["kernels.batches"] == 1
    assert counters["kernels.reads"] == len(read_codes)
    assert counters["kernels.walk_steps"] > 0
    assert counters["seeding.reads"] == len(read_codes)
    assert "kernels.fallback_scalar.tracer" not in counters


def test_resolve_kernels(monkeypatch):
    monkeypatch.delenv("REPRO_KERNELS", raising=False)
    assert resolve_kernels() == "scalar"
    assert resolve_kernels("vector") == "vector"
    monkeypatch.setenv("REPRO_KERNELS", "vector")
    assert resolve_kernels() == "vector"
    assert resolve_kernels("scalar") == "scalar"
    monkeypatch.setenv("REPRO_KERNELS", "simd")
    with pytest.raises(ValueError):
        resolve_kernels()


# ----------------------------------------------------------------------
# End-to-end byte identity through the scheduler
# ----------------------------------------------------------------------


def test_seed_tsv_identical_vector_three_workers(ert_index, reads, params):
    base_lines, base_stats = seed_reads(
        ert_index, reads, params, config=ParallelConfig(workers=1))
    for config in (ParallelConfig(workers=1, kernels="vector"),
                   ParallelConfig(workers=3, batch_size=7,
                                  kernels="vector")):
        lines, stats = seed_reads(ert_index, reads, params, config=config)
        assert lines == base_lines
        assert stats.truncated_hit_lists == base_stats.truncated_hit_lists


def test_align_sam_identical_vector_three_workers(ert_index, reads, params):
    base, _ = align_reads(ert_index, reads, params,
                          config=ParallelConfig(workers=1))
    vec, _ = align_reads(ert_index, reads, params,
                         config=ParallelConfig(workers=3, batch_size=7,
                                               kernels="vector"))
    assert vec == base


def test_align_pairs_identical_vector_three_workers(ert_index, reads,
                                                    params):
    paired = reads[:len(reads) - len(reads) % 2]
    base, _ = align_pairs(ert_index, paired, params,
                          config=ParallelConfig(workers=1))
    vec, _ = align_pairs(ert_index, paired, params,
                         config=ParallelConfig(workers=3, batch_size=4,
                                               kernels="vector"))
    assert vec == base


# ----------------------------------------------------------------------
# Observed-vector equivalence: identity and counters with telemetry on
# ----------------------------------------------------------------------


@pytest.mark.parametrize("start_method", [None, "spawn"])
def test_observed_vector_seed_identity_any_start_method(
        ert_index, reads, params, start_method):
    """Seeds stay byte-identical to scalar when the vector run is fully
    observed (metrics + exemplars) at three workers, under both start
    methods, and every captured exemplar carries the vector tag."""
    base_lines, _ = seed_reads(ert_index, reads, params,
                               config=ParallelConfig(workers=1))
    telemetry.reset()
    telemetry.enable()
    try:
        lines, _ = seed_reads(
            ert_index, reads, params,
            config=ParallelConfig(workers=3, batch_size=7,
                                  kernels="vector",
                                  start_method=start_method))
        snap = telemetry.snapshot()
    finally:
        telemetry.disable()
        telemetry.reset()
    assert lines == base_lines
    exemplars = snap["exemplars"]
    assert exemplars["count"] == len(reads)
    assert exemplars["slowest"], "slowlog empty under vector kernels"
    for rec in exemplars["reservoir"] + exemplars["slowest"]:
        assert rec.get("kernels") == "vector"
        assert rec["wall_ms"] >= 0.0
    assert snap["counters"]["kernels.reads"] == len(reads)
    assert snap["counters"]["kernels.walk_steps"] > 0
    assert snap["histograms"]["read.wall_ms"]["count"] == len(reads)


def test_observed_vector_align_identity_three_workers(ert_index, reads,
                                                      params):
    base, _ = align_reads(ert_index, reads, params,
                          config=ParallelConfig(workers=1))
    telemetry.reset()
    telemetry.enable()
    try:
        vec, _ = align_reads(ert_index, reads, params,
                             config=ParallelConfig(workers=3, batch_size=7,
                                                   kernels="vector"))
        snap = telemetry.snapshot()
    finally:
        telemetry.disable()
        telemetry.reset()
    assert vec == base
    exemplars = snap["exemplars"]
    assert exemplars["count"] == len(reads)
    assert all(rec.get("kernels") == "vector"
               for rec in exemplars["reservoir"])
    # Align exemplars fold the seed-stage counters in alongside the
    # alignment counters.
    assert any("kernels.walk_steps" in rec["counters"]
               for rec in exemplars["reservoir"])
    assert any("sw_cells" in rec["counters"]
               for rec in exemplars["reservoir"])


def test_observed_vector_pairs_identity_three_workers(ert_index, reads,
                                                      params):
    paired = reads[:len(reads) - len(reads) % 2]
    base, _ = align_pairs(ert_index, paired, params,
                          config=ParallelConfig(workers=1))
    telemetry.reset()
    telemetry.enable()
    try:
        vec, _ = align_pairs(ert_index, paired, params,
                             config=ParallelConfig(workers=3, batch_size=4,
                                                   kernels="vector"))
        snap = telemetry.snapshot()
    finally:
        telemetry.disable()
        telemetry.reset()
    assert vec == base
    exemplars = snap["exemplars"]
    assert exemplars["count"] == len(paired) // 2
    assert all(rec.get("kernels") == "vector"
               for rec in exemplars["reservoir"])


def _observed_vector_batch(engine, names, reads, params):
    """One batch through the scheduler's seed stage on the vector
    kernels, its per-read exemplars captured as the seed runner does."""
    from repro.parallel import pack_batch
    from repro.parallel.scheduler import seed_stage

    seeded = seed_stage(engine, pack_batch(reads), params, "vector")
    assert seeded.kernels == "vector"
    telemetry.record_reads(seeded.probe, list(names), seeded.seed_ms,
                           seeded.counters, task="seed",
                           kernels=seeded.kernels)


def test_vector_counter_totals_match_exemplar_columns(ert_index, reference,
                                                      params):
    """Registry totals equal the sum of the per-read exemplar counters.

    ``PER_READ_COUNTERS`` makes this hold by construction -- the flush
    sums the same arrays the exemplar rows are sliced from -- and this
    test pins it on a fuzzed corpus small enough (48 < the reservoir's
    64) that every read's exemplar is retained.  Zero-valued counters
    are stripped from exemplar records, hence the ``.get(..., 0)``.
    """
    from repro.kernels.stats import PER_READ_COUNTERS

    rng = np.random.default_rng(99)
    fuzz = _fuzz_reads(reference, rng, 48)
    names = [f"f{i}" for i in range(len(fuzz))]
    engine = ErtSeedingEngine(ert_index)
    telemetry.reset()
    telemetry.enable()
    try:
        _observed_vector_batch(engine, names, fuzz, params)
        snap = telemetry.snapshot()
    finally:
        telemetry.disable()
        telemetry.reset()
    recs = {rec["read_id"]: rec
            for rec in snap["exemplars"]["reservoir"]}
    assert len(recs) == len(fuzz)
    for name, _ in PER_READ_COUNTERS:
        total = sum(rec["counters"].get(name, 0) for rec in recs.values())
        assert snap["counters"].get(name, 0) == total, name
    assert snap["counters"]["kernels.walk_steps"] > 0

    # Batch-composition invariance: replaying a read alone (B=1, what
    # `ert-repro explain` does) reproduces its counter column exactly.
    for i in (0, 7, 23, 41):
        single = ErtSeedingEngine(ert_index)
        telemetry.reset()
        telemetry.enable()
        try:
            _observed_vector_batch(single, [names[i]], [fuzz[i]], params)
            alone = telemetry.snapshot()["exemplars"]["reservoir"][0]
        finally:
            telemetry.disable()
            telemetry.reset()
        kernel_cols = {name for name, _ in PER_READ_COUNTERS}
        want = {k: v for k, v in recs[names[i]]["counters"].items()
                if k in kernel_cols}
        got = {k: v for k, v in alone["counters"].items()
               if k in kernel_cols}
        assert got == want, names[i]


# ----------------------------------------------------------------------
# Wavefront Smith-Waterman vs the scalar kernel
# ----------------------------------------------------------------------


def _assert_sw_batch_matches(query, targets, scheme, band):
    workspace = SwWorkspace()
    batched = batched_banded_sw(query, targets, scheme, band,
                                workspace=workspace)
    for target, got in zip(targets, batched):
        want = banded_smith_waterman(query, target, scheme, band)
        assert (got.score, got.query_end, got.target_end, got.cells) \
            == (want.score, want.query_end, want.target_end, want.cells)


def test_batched_sw_fuzzed_geometries():
    rng = np.random.default_rng(5150)
    for band in (1, 3, 8, 41):
        for m in (1, 7, 40):
            query = rng.integers(0, 4, size=m)
            targets = [
                rng.integers(0, 4, size=1),
                rng.integers(0, 4, size=max(1, m // 2)),
                rng.integers(0, 4, size=m),
                rng.integers(0, 4, size=m + band),  # band falls off end
                query.copy(),                       # perfect diagonal
            ]
            _assert_sw_batch_matches(query, targets, DEFAULT_SCHEME, band)


def test_batched_sw_tie_breaking_on_homopolymers():
    """All-A query vs all-A targets: every diagonal cell ties at the
    maximum, so any tie-break drift from the scalar first-occurrence
    rule shows up immediately."""
    query = np.zeros(12, dtype=np.uint8)
    targets = [np.zeros(n, dtype=np.uint8) for n in (3, 12, 20, 40)]
    _assert_sw_batch_matches(query, targets, DEFAULT_SCHEME, 5)


def test_batched_sw_negative_scheme_and_mismatch_only():
    scheme = ScoringScheme(match=2, mismatch=-3, gap_open=-5,
                           gap_extend=-1)
    rng = np.random.default_rng(77)
    query = rng.integers(0, 4, size=25)
    mismatch_only = (query[::-1] + 1) % 4  # no exact run anywhere
    targets = [mismatch_only, rng.integers(0, 4, size=30)]
    _assert_sw_batch_matches(query, targets, scheme, 9)


def test_batched_sw_empty_batch_and_reused_workspace():
    assert batched_banded_sw(np.zeros(5, dtype=np.uint8), []) == []
    # A shared workspace across differently-shaped batches must not
    # leak state between calls.
    workspace = SwWorkspace()
    rng = np.random.default_rng(13)
    query = rng.integers(0, 4, size=18)
    for _ in range(3):
        targets = [rng.integers(0, 4, size=int(rng.integers(1, 30)))
                   for _ in range(4)]
        batched = batched_banded_sw(query, targets, DEFAULT_SCHEME, 7,
                                    workspace=workspace)
        for target, got in zip(targets, batched):
            want = banded_smith_waterman(query, target, DEFAULT_SCHEME, 7)
            assert (got.score, got.query_end, got.target_end) \
                == (want.score, want.query_end, want.target_end)


def test_batched_sw_rejects_bad_band():
    with pytest.raises(ValueError):
        batched_banded_sw(np.zeros(4, dtype=np.uint8),
                          [np.zeros(4, dtype=np.uint8)], band=0)


def test_batched_sw_equal_score_tie_positions():
    """Periodic sequences make the maximum recur at the same score --
    same end row, different end columns (and vice versa).  The scalar
    rule is strict-improvement row-major first occurrence; the batched
    cross-diagonal replacement must land on the same cell."""
    rng = np.random.default_rng(4096)
    period4 = np.tile(np.array([0, 1, 2, 3], dtype=np.uint8), 10)
    for band in (3, 9, 41):
        for m in (4, 8, 16):
            queries = [period4[:m], np.zeros(m, dtype=np.uint8)]
            targets = [period4[:4 * m], np.zeros(30, dtype=np.uint8),
                       np.tile(period4[:m], 3),
                       rng.integers(0, 4, size=2 * m + band)]
            for query in queries:
                _assert_sw_batch_matches(query, targets, DEFAULT_SCHEME,
                                         band)


# ----------------------------------------------------------------------
# Batched wavefront traceback vs the scalar kernel
# ----------------------------------------------------------------------


def _assert_tb_batch_matches(query, targets, scheme, band, workspace=None):
    # min_lanes=1 forces the wavefront path even for tiny batches, so
    # these cases never silently test the scalar fallback against
    # itself.  TracedAlignment equality covers score, all four
    # coordinates, and the CIGAR tuple; the string is checked on top
    # because it is what reaches the SAM records.
    batched = batched_sw_traceback(query, targets, scheme, band,
                                   workspace=workspace, min_lanes=1)
    for target, got in zip(targets, batched):
        want = banded_sw_traceback(query, target, scheme, band)
        assert got == want
        assert got.cigar_string() == want.cigar_string()


def test_batched_traceback_fuzzed_geometries():
    rng = np.random.default_rng(31337)
    for band in (1, 3, 8, 41):
        for m in (1, 7, 40, 101):
            query = rng.integers(0, 4, size=m).astype(np.uint8)
            planted = np.concatenate([
                rng.integers(0, 4, size=11), query,
                rng.integers(0, 4, size=11)]).astype(np.uint8)
            noisy = planted.copy()
            noisy[rng.integers(0, noisy.size, size=max(1, m // 8))] = \
                rng.integers(0, 4, size=max(1, m // 8))
            targets = [
                rng.integers(0, 4, size=1).astype(np.uint8),
                rng.integers(0, 4, size=max(1, band // 2)),  # n < band
                rng.integers(0, 4, size=max(1, m // 2)),
                rng.integers(0, 4, size=m + band),  # band off the end
                planted,                            # perfect embedded
                noisy,                              # band-edge errors
            ]
            _assert_tb_batch_matches(query, targets, DEFAULT_SCHEME, band)


def test_batched_traceback_gap_heavy_and_unaligned():
    """Indel-riddled targets (gap states dominate the walk-back) plus
    all-mismatch lanes (the cached unaligned shape) in one batch."""
    rng = np.random.default_rng(2718)
    scheme = ScoringScheme(match=2, mismatch=-3, gap_open=-5,
                           gap_extend=-2)
    base = rng.integers(0, 4, size=60).astype(np.uint8)
    with_del = np.concatenate([base[:20], base[32:]])  # 12-base deletion
    with_ins = np.concatenate([base[:30],
                               rng.integers(0, 4, size=9), base[30:]])
    choppy = np.concatenate(
        [base[:10], base[14:30], rng.integers(0, 4, size=4), base[30:50]])
    all_mismatch = ((base + 1) % 4).astype(np.uint8)[::-1].copy()
    targets = [with_del, with_ins, choppy, all_mismatch.astype(np.uint8)]
    for band in (9, 31, 41):
        for sch in (DEFAULT_SCHEME, scheme):
            _assert_tb_batch_matches(base, targets, sch, band)


def test_batched_traceback_homopolymer_ties():
    """All-A vs all-A: every cell of every diagonal ties, so the
    post-sweep argmax tie-break and the walk-back pointer priorities
    are both pinned against the scalar oracle."""
    query = np.zeros(12, dtype=np.uint8)
    targets = [np.zeros(n, dtype=np.uint8) for n in (3, 12, 20, 40)]
    for band in (1, 5, 41):
        _assert_tb_batch_matches(query, targets, DEFAULT_SCHEME, band)


def test_batched_traceback_empty_inputs_and_fallback():
    empty_q = np.array([], dtype=np.uint8)
    targets = [np.zeros(6, dtype=np.uint8), np.array([], dtype=np.uint8)]
    assert batched_sw_traceback(empty_q, []) == []
    # Empty query / all-empty targets take the scalar dispatch and must
    # still match the oracle shape-for-shape.
    for q in (empty_q, np.zeros(4, dtype=np.uint8)):
        got = batched_sw_traceback(q, targets, min_lanes=1)
        want = [banded_sw_traceback(q, t) for t in targets]
        assert got == want
    # Below the crossover the entry point dispatches scalar; results
    # are identical either way.
    q = np.zeros(4, dtype=np.uint8)
    assert batched_sw_traceback(q, targets[:1]) \
        == [banded_sw_traceback(q, targets[0])]


def test_batched_traceback_reused_workspace():
    """One workspace across batches of different shapes and bands: the
    carved planes shrink, grow, and must never leak stale pointers."""
    workspace = SwWorkspace()
    rng = np.random.default_rng(55)
    for band in (41, 3, 17):
        m = int(rng.integers(5, 90))
        query = rng.integers(0, 4, size=m).astype(np.uint8)
        targets = [rng.integers(0, 4, size=int(rng.integers(1, 120)))
                   .astype(np.uint8) for _ in range(5)]
        targets.append(np.concatenate(
            [targets[0][:3], query]).astype(np.uint8))
        _assert_tb_batch_matches(query, targets, DEFAULT_SCHEME, band,
                                 workspace=workspace)


def test_batched_traceback_rejects_bad_band():
    with pytest.raises(ValueError):
        batched_sw_traceback(np.zeros(4, dtype=np.uint8),
                             [np.zeros(4, dtype=np.uint8)], band=0)


def test_read_aligner_tb_batch_matches_scalar(ert_index, reads, params):
    """align_sam / align_sam_multi with the batched traceback injected
    must emit the scalar records byte for byte."""
    reference = ert_index.reference
    scalar = ReadAligner(reference, ErtSeedingEngine(ert_index),
                         params=params)
    batched = ReadAligner(reference, ErtSeedingEngine(ert_index),
                          params=params, tb_batch=batched_sw_traceback)
    for read in reads:
        assert batched.align_sam(read.codes, read.name, read.quality) \
            == scalar.align_sam(read.codes, read.name, read.quality)
        assert batched.align_sam_multi(read.codes, read.name,
                                       read.quality) \
            == scalar.align_sam_multi(read.codes, read.name, read.quality)


def test_paired_aligner_tb_batch_matches_scalar(ert_index, reads, params):
    reference = ert_index.reference
    scalar = PairedAligner(ReadAligner(
        reference, ErtSeedingEngine(ert_index), params=params))
    batched = PairedAligner(ReadAligner(
        reference, ErtSeedingEngine(ert_index), params=params,
        tb_batch=batched_sw_traceback))
    codes = [r.codes for r in reads[:8]]
    for i in range(0, 8, 2):
        assert batched.align_pair(codes[i], codes[i + 1], f"pair{i}") \
            == scalar.align_pair(codes[i], codes[i + 1], f"pair{i}")


# ----------------------------------------------------------------------
# Pipeline integration: injected seeding + batched extension
# ----------------------------------------------------------------------


def _outcome_key(outcome):
    aln = outcome.alignment
    return (None if aln is None else
            (aln.strand, aln.position, aln.score, aln.chain_score),
            outcome.n_seeds, outcome.n_chains,
            outcome.workload.sw_extensions, outcome.workload.sw_rows_total,
            outcome.workload.edit_checks, outcome.workload.edit_rows_total)


def test_read_aligner_sw_batch_matches_scalar(ert_index, read_codes,
                                              params):
    reference = ert_index.reference
    scalar = ReadAligner(reference, ErtSeedingEngine(ert_index),
                         params=params)
    batched = ReadAligner(reference, ErtSeedingEngine(ert_index),
                          params=params, sw_batch=batched_banded_sw)
    for read in read_codes:
        assert _outcome_key(batched.align(read)) \
            == _outcome_key(scalar.align(read))


def test_read_aligner_sw_batch_without_edit_shortcut(ert_index, read_codes,
                                                     params):
    """edit_check_first=False forces every chain through the wavefront
    kernel, covering the all-SW batch shape."""
    reference = ert_index.reference
    scalar = ReadAligner(reference, ErtSeedingEngine(ert_index),
                         params=params, edit_check_first=False)
    batched = ReadAligner(reference, ErtSeedingEngine(ert_index),
                          params=params, edit_check_first=False,
                          sw_batch=batched_banded_sw)
    for read in read_codes:
        assert _outcome_key(batched.align(read)) \
            == _outcome_key(scalar.align(read))


def test_align_sam_with_injected_seeding(ert_index, reads, params):
    reference = ert_index.reference
    engine = ErtSeedingEngine(ert_index)
    aligner = ReadAligner(reference, engine, params=params)
    codes = [r.codes for r in reads]
    seeded = seed_batch(engine, codes, params)
    for read, seeding in zip(reads, seeded):
        plain = aligner.align_sam(read.codes, read.name, read.quality)
        injected = aligner.align_sam(read.codes, read.name, read.quality,
                                     seeding=seeding)
        assert injected == plain


def test_align_pair_with_injected_seeding(ert_index, reads, params):
    reference = ert_index.reference
    engine = ErtSeedingEngine(ert_index)
    paired = PairedAligner(ReadAligner(reference, engine, params=params))
    codes = [r.codes for r in reads[:6]]
    seeded = seed_batch(engine, codes, params)
    for i in range(0, 6, 2):
        plain = paired.align_pair(codes[i], codes[i + 1], f"pair{i}")
        injected = paired.align_pair(codes[i], codes[i + 1], f"pair{i}",
                                     seeding1=seeded[i],
                                     seeding2=seeded[i + 1])
        assert injected == plain
