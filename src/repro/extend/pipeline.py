"""The complete read-alignment pipeline: seed -> chain -> extend.

:class:`ReadAligner` runs the paper's whole flow over any seeding engine:
three-round seeding (:mod:`repro.seeding.algorithm`), colinear chaining,
then banded extension of the best chains to pick the final alignment
position.  Besides producing alignments, it records the per-read extension
workload that the SeedEx model (Table VI) consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro import telemetry
from repro.extend.chaining import Chain, chain_seeds
from repro.extend.sam import (
    SamRecord,
    mapped_record,
    mapq_from_scores,
    unmapped_record,
)
from repro.extend.seedex import ExtensionWorkload
from repro.extend.smith_waterman import (
    DEFAULT_SCHEME,
    ScoringScheme,
    SwWorkspace,
    banded_edit_distance,
    banded_smith_waterman,
)
from repro.extend.traceback import banded_sw_traceback
from repro.seeding.algorithm import SeedingParams, SeedingResult, seed_read
from repro.seeding.engine import SeedingEngine
from repro.sequence.alphabet import decode
from repro.sequence.reference import Reference, Strand


@dataclass(frozen=True)
class Alignment:
    """A read's final alignment (forward-strand coordinates)."""

    read_name: str
    strand: Strand
    position: int
    score: int
    chain_score: int

    @property
    def is_mapped(self) -> bool:
        return self.score > 0


@dataclass
class AlignmentOutcome:
    """Alignment plus the measured extension workload for one read."""

    alignment: "Alignment | None"
    n_seeds: int
    n_chains: int
    workload: ExtensionWorkload


class ReadAligner:
    """Seed-and-extend aligner over any :class:`SeedingEngine`."""

    def __init__(self, reference: Reference, engine: SeedingEngine,
                 params: "SeedingParams | None" = None,
                 scheme: "ScoringScheme | None" = None,
                 band: int = 41, max_chains_extended: int = 8,
                 edit_check_first: bool = True,
                 sw_batch: "Callable | None" = None,
                 tb_batch: "Callable | None" = None) -> None:
        self.reference = reference
        self.engine = engine
        self.params = params or SeedingParams()
        self.scheme = scheme or DEFAULT_SCHEME
        self.band = band
        self.max_chains_extended = max_chains_extended
        self.edit_check_first = edit_check_first
        #: Optional batched extension kernel with the calling convention
        #: of :func:`repro.kernels.sw.batched_banded_sw`.  When set,
        #: :meth:`align` extends all of a read's SW-bound chains in one
        #: wavefront call instead of one row-wise SW per chain -- same
        #: scores, same coordinates.  Injected by callers because the
        #: extend layer sits below ``repro.kernels`` in the import DAG.
        self.sw_batch = sw_batch
        #: Optional batched *traceback* kernel with the calling
        #: convention of :func:`repro.kernels.traceback.
        #: batched_sw_traceback`.  When set, the SAM paths
        #: (:meth:`align_sam`, :meth:`align_sam_multi`, and the paired
        #: candidate sweep) trace all of a read's surviving chains in
        #: one wavefront call instead of one scalar traceback per chain
        #: -- same records byte for byte.  Injected by the batch runners
        #: for the same layering reason.
        self.tb_batch = tb_batch
        self._text = reference.both_strands
        # One workspace per aligner: the SW kernel's row buffers are
        # reused across every extension instead of allocated per call.
        self._sw_workspace = SwWorkspace()
        #: Per-read counters for the most recent SAM alignment, populated
        #: only while telemetry is enabled.  The parallel scheduler folds
        #: these into the read's exemplar record.
        self.read_stats: "dict[str, int]" = {}

    def align(self, read: np.ndarray, name: str = "read",
              seeding: "SeedingResult | None" = None) -> AlignmentOutcome:
        """Align one read; returns the best-scoring chain extension.

        ``seeding`` short-circuits the three seeding rounds with a
        precomputed result (how the batched kernel path feeds a whole
        batch of reads seeded at once); output is identical either way.
        """
        with telemetry.span("align"):
            result = seeding if seeding is not None \
                else seed_read(self.engine, read, self.params)
            seeds = result.all_seeds
            with telemetry.span("chain"):
                chains = chain_seeds(seeds)
            workload = ExtensionWorkload()
            best: "Alignment | None" = None
            with telemetry.span("extend"):
                if self.sw_batch is not None:
                    best = self._extend_chains_batched(
                        read, chains[:self.max_chains_extended], name,
                        workload)
                else:
                    for chain in chains[:self.max_chains_extended]:
                        candidate = self._extend_chain(read, chain, name,
                                                       workload)
                        if candidate is None:
                            continue
                        if best is None or candidate.score > best.score:
                            best = candidate
            self._record_read_metrics(len(seeds), len(chains),
                                      mapped=best is not None)
        return AlignmentOutcome(alignment=best, n_seeds=len(seeds),
                                n_chains=len(chains), workload=workload)

    def _begin_read_stats(self, seeds, chains) -> None:
        if not telemetry.enabled():
            return
        self.read_stats = {
            "seeds": len(seeds),
            "seed_hits": sum(s.hit_count for s in seeds),
            "chains": len(chains),
            "sw_extensions": 0,
            "sw_cells": 0,
        }

    def _record_read_metrics(self, n_seeds: int, n_chains: int,
                             mapped: bool) -> None:
        if not telemetry.enabled():
            return
        telemetry.count("align.reads")
        telemetry.count("align.reads_mapped", int(mapped))
        telemetry.count("align.chains", n_chains)
        telemetry.count("align.chains_extended",
                        min(n_chains, self.max_chains_extended))
        telemetry.observe("align.seeds_per_read", n_seeds)
        telemetry.observe("align.chains_per_read", n_chains)

    def _extend_chain(self, read: np.ndarray, chain: Chain, name: str,
                      workload: ExtensionWorkload) -> "Alignment | None":
        n = int(read.size)
        # Window of the double-strand text the whole read would occupy if
        # the chain's diagonal is right, padded by half a band.
        ref_begin = chain.ref_start - chain.read_start - self.band // 2
        ref_begin = max(0, ref_begin)
        window_len = n + self.band
        window = self._text[ref_begin:ref_begin + window_len]
        if window.size < n // 2:
            return None
        if telemetry.enabled():
            telemetry.observe("align.band_bp", self.band)
            telemetry.observe("align.window_bp", int(window.size))

        score = None
        if self.edit_check_first:
            # The edit-distance unit clears near-perfect candidates fast.
            workload.add_edit(n)
            telemetry.count("align.edit_checks")
            dist = banded_edit_distance(read, window[:n], band=self.band)
            if dist is not None and dist <= 2:
                score = (n - dist) * self.scheme.match + dist * \
                    self.scheme.mismatch
                end_pos = ref_begin
        if score is None:
            workload.add_sw(n)
            telemetry.count("align.sw_extensions")
            sw = banded_smith_waterman(read, window, self.scheme, self.band,
                                       workspace=self._sw_workspace)
            if not sw.is_aligned:
                return None
            score = sw.score
            end_pos = ref_begin + sw.target_end - sw.query_end
        hit = self.reference.to_forward(max(0, end_pos), min(
            n, 2 * len(self.reference) - max(0, end_pos)))
        if hit is None:
            return None
        return Alignment(read_name=name, strand=hit.strand,
                         position=hit.start, score=int(score),
                         chain_score=chain.score)

    def _extend_chains_batched(self, read: np.ndarray,
                               chains: "list[Chain]", name: str,
                               workload: ExtensionWorkload) \
            -> "Alignment | None":
        """All chains of one read through the injected wavefront kernel.

        Two passes keep this score-identical to the serial loop: the
        first runs each chain's window setup and edit-distance shortcut
        in chain order (so workload/telemetry accounting interleaves the
        same way), queueing the windows that need full SW; one batched
        call resolves those; the second pass finalizes candidates in
        chain order, preserving the strict-improvement tie-break.
        """
        n = int(read.size)
        entries: "list[list]" = []  # [chain, ref_begin, score, end_pos]
        pending: "list[int]" = []
        windows: "list[np.ndarray]" = []
        for chain in chains:
            ref_begin = max(0, chain.ref_start - chain.read_start
                            - self.band // 2)
            window = self._text[ref_begin:ref_begin + n + self.band]
            if window.size < n // 2:
                continue
            if telemetry.enabled():
                telemetry.observe("align.band_bp", self.band)
                telemetry.observe("align.window_bp", int(window.size))
            score = None
            end_pos = None
            if self.edit_check_first:
                workload.add_edit(n)
                telemetry.count("align.edit_checks")
                dist = banded_edit_distance(read, window[:n],
                                            band=self.band)
                if dist is not None and dist <= 2:
                    score = (n - dist) * self.scheme.match + dist * \
                        self.scheme.mismatch
                    end_pos = ref_begin
            if score is None:
                workload.add_sw(n)
                telemetry.count("align.sw_extensions")
                pending.append(len(entries))
                windows.append(window)
            entries.append([chain, ref_begin, score, end_pos])
        if windows:
            results = self.sw_batch(read, windows, self.scheme, self.band,
                                    workspace=self._sw_workspace)
            for slot, sw in zip(pending, results):
                if sw.is_aligned:
                    entries[slot][2] = sw.score
                    entries[slot][3] = (entries[slot][1] + sw.target_end
                                        - sw.query_end)
        best: "Alignment | None" = None
        for chain, _ref_begin, score, end_pos in entries:
            if score is None:
                continue
            hit = self.reference.to_forward(max(0, end_pos), min(
                n, 2 * len(self.reference) - max(0, end_pos)))
            if hit is None:
                continue
            candidate = Alignment(read_name=name, strand=hit.strand,
                                  position=hit.start, score=int(score),
                                  chain_score=chain.score)
            if best is None or candidate.score > best.score:
                best = candidate
        return best

    # ------------------------------------------------------------------
    # SAM emission (traceback path)
    # ------------------------------------------------------------------

    def align_sam(self, read: np.ndarray, name: str = "read",
                  quality: str = "",
                  seeding: "SeedingResult | None" = None) -> SamRecord:
        """Align one read and emit its primary SAM record (a real CIGAR;
        mapping quality from the best and runner-up chain extensions).
        ``seeding`` injects a precomputed seeding result (how the batch
        runners feed the seed stage's output); the record is identical
        either way."""
        return self.align_sam_multi(read, name, quality, max_secondary=0,
                                    seeding=seeding)[0]

    def align_sam_multi(self, read: np.ndarray, name: str = "read",
                        quality: str = "", max_secondary: int = 3,
                        seeding: "SeedingResult | None" = None
                        ) -> "list[SamRecord]":
        """The primary record followed by up to ``max_secondary``
        secondary records (FLAG 0x100) for distinct runner-up
        placements, as read aligners do for multi-mapping reads in
        repeats.  The best and runner-up chains are both extended with
        the traceback kernel so mapping quality can reflect
        uniqueness."""
        with telemetry.span("align"):
            result = seeding if seeding is not None \
                else seed_read(self.engine, read, self.params)
            with telemetry.span("chain"):
                chains = chain_seeds(result.all_seeds)
            self._begin_read_stats(result.all_seeds, chains)
            quality = quality or "I" * int(read.size)
            with telemetry.span("extend"):
                candidates = self._trace_chains(
                    read, chains[:self.max_chains_extended])
            self._record_read_metrics(len(result.all_seeds), len(chains),
                                      mapped=bool(candidates))
        if not candidates:
            return [unmapped_record(name, decode(read), quality)]
        candidates.sort(key=lambda c: -c[0])
        best_score = candidates[0][0]
        runner_up = candidates[1][0] if len(candidates) > 1 else 0
        records = []
        seen_positions = set()
        for rank, (score, strand, position, cigar) in enumerate(candidates):
            if (strand, position) in seen_positions:
                continue
            seen_positions.add((strand, position))
            if rank == 0:
                mapq = mapq_from_scores(best_score, runner_up,
                                        int(read.size))
                records.append(mapped_record(name, decode(read), quality,
                                             self.reference, strand,
                                             position, cigar, score, mapq))
            elif len(records) <= max_secondary:
                rec = mapped_record(name, decode(read), quality,
                                    self.reference, strand, position,
                                    cigar, score, 0)
                records.append(replace(rec, flag=rec.flag | 0x100))
        return records

    def _prepare_trace(self, read: np.ndarray, chain: Chain):
        """Window setup + telemetry for one chain's traceback, or
        ``None`` when the window is too short to bother extending."""
        n = int(read.size)
        ref_begin = max(0, chain.ref_start - chain.read_start
                        - self.band // 2)
        window = self._text[ref_begin:ref_begin + n + self.band]
        if window.size < n // 2:
            return None
        if telemetry.enabled():
            telemetry.observe("align.band_bp", self.band)
            telemetry.observe("align.window_bp", int(window.size))
            telemetry.count("align.sw_extensions")
            stats = self.read_stats
            stats["sw_extensions"] = stats.get("sw_extensions", 0) + 1
            stats["sw_cells"] = (stats.get("sw_cells", 0)
                                 + int(window.size) * self.band)
        return ref_begin, window

    def _finalize_trace(self, traced, ref_begin: int):
        """Map one traced window alignment back to forward-strand SAM
        coordinates; ``None`` for unaligned or off-reference hits."""
        if not traced.is_aligned:
            return None
        ref_len = traced.target_end - traced.target_start
        hit = self.reference.to_forward(ref_begin + traced.target_start,
                                        ref_len)
        if hit is None:
            return None
        cigar = traced.cigar
        if hit.strand is Strand.REVERSE:
            # Forward-strand coordinates run opposite to the walk over
            # the reverse-complement half of X: flip the CIGAR.
            cigar = tuple(reversed(cigar))
        cigar_str = "".join(f"{length}{op}" for op, length in cigar)
        return traced.score, hit.strand, hit.start, cigar_str

    def _trace_chain(self, read: np.ndarray, chain: Chain):
        prepared = self._prepare_trace(read, chain)
        if prepared is None:
            return None
        ref_begin, window = prepared
        traced = banded_sw_traceback(read, window, self.scheme, self.band,
                                     workspace=self._sw_workspace)
        return self._finalize_trace(traced, ref_begin)

    def _trace_chains(self, read: np.ndarray, chains: "list[Chain]"):
        """Traceback candidates for a read's chains, in chain order.

        With :attr:`tb_batch` set, every surviving window goes through
        one batched wavefront call; otherwise one scalar traceback per
        chain.  Window setup and telemetry run in chain order either
        way, so the candidate list -- and every counter -- is identical.
        """
        if self.tb_batch is None:
            return [c for c in (self._trace_chain(read, chain)
                                for chain in chains) if c is not None]
        begins: "list[int]" = []
        windows: "list[np.ndarray]" = []
        for chain in chains:
            prepared = self._prepare_trace(read, chain)
            if prepared is None:
                continue
            begins.append(prepared[0])
            windows.append(prepared[1])
        if not windows:
            return []
        traced = self.tb_batch(read, windows, self.scheme, self.band,
                               workspace=self._sw_workspace)
        return [c for c in (self._finalize_trace(tr, ref_begin)
                            for tr, ref_begin in zip(traced, begins))
                if c is not None]
