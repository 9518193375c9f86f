"""The built ERT index: enumerated table, trees, regions, traffic hooks.

An :class:`ErtIndex` owns:

* the **first-level index table** -- for *every* possible k-mer (4^k
  entries): entry kind (EMPTY / LEAF / TREE / TABLE), the k-1 LEP bits,
  the longest existing prefix length and the occurrence count (Fig 4);
* the **radix trees** (one per non-unique existing k-mer) serialized into a
  byte-accurate region so walks can be charged per cache line;
* the **second-level jump tables** (§III-E) for k-mers above the density
  threshold: precomputed x-character walk states with fan-out 4^x;
* the **auxiliary prefix-count tables** (counts of every 1..k-1-mer),
  consulted only when a search carries a minimum-hit threshold
  (reseeding) and the index entry's change bits are not enough;
* an optional :class:`~repro.memsim.cache.CacheModel` standing in for the
  accelerator's k-mer reuse cache -- accesses that hit it cost no traffic.

All memory traffic funnels through :meth:`ErtIndex.trace` with the phase
tags of Fig 13: ``index_lookup``, ``table_lookup``, ``tree_root``,
``tree_traversal``, ``leaf_gather``, ``ref_fetch``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.core.config import ErtConfig
from repro.core.layout import LayoutStats
from repro.core.nodes import Node
from repro.memsim.cache import CacheModel
from repro.memsim.trace import AddressSpace, MemoryTracer
from repro.sequence.reference import Reference

PHASE_INDEX = "index_lookup"
PHASE_TABLE = "table_lookup"
PHASE_ROOT = "tree_root"
PHASE_TRAVERSAL = "tree_traversal"
PHASE_GATHER = "leaf_gather"
PHASE_REF = "ref_fetch"
PHASE_PREFIX = "prefix_count"


class EntryKind(enum.IntEnum):
    """First-level index-table entry kinds (Fig 4)."""

    EMPTY = 0
    LEAF = 1
    TREE = 2
    TABLE = 3


@dataclass
class JumpEntry:
    """Second-level table entry: the outcome of walking ``x`` suffix
    characters from the tree root, precomputed at build time.

    ``matched``: characters of the suffix that exist (0..x).
    ``lep_bits``: bit ``j`` set iff extending from ``j`` to ``j+1``
    matched characters changes the hit count (same convention as the
    first-level LEP bits).
    ``state``: the walk state after all ``x`` characters, or ``None`` when
    the suffix dies inside the window.
    """

    matched: int
    lep_bits: int
    state: "object | None"
    count: int


class ErtIndex:
    """Container for a built ERT (see :func:`repro.core.builder.build_ert`)."""

    def __init__(self, reference: Reference, config: ErtConfig,
                 entry_kind: np.ndarray, lep_bits: np.ndarray,
                 prefix_len: np.ndarray, kmer_count: np.ndarray,
                 roots: "dict[int, Node]", tree_base: "dict[int, int]",
                 tables: "dict[int, list[JumpEntry]]",
                 prefix_counts: "list[np.ndarray]",
                 trees_bytes: int, layout_stats: LayoutStats,
                 space: "AddressSpace | None" = None) -> None:
        self.reference = reference
        self.config = config
        self.text = reference.both_strands
        self.entry_kind = entry_kind
        self.lep_bits = lep_bits
        self.prefix_len = prefix_len
        self.kmer_count = kmer_count
        self.roots = roots
        self.tree_base = tree_base
        self.tables = tables
        self.prefix_counts = prefix_counts
        self.layout_stats = layout_stats
        self.tracer: "MemoryTracer | None" = None
        self.reuse_cache: "CacheModel | None" = None
        #: The ``ERTBUF01`` frame this index was opened from (set by
        #: :func:`repro.core.io.index_from_buffer`); republished as-is.
        self.frame: "bytes | memoryview | None" = None

        self.space = space or AddressSpace()
        cfg = config
        self.index_region = self.space.allocate(
            "ert.index_table", cfg.n_entries * cfg.index_entry_bytes)
        self.trees_region = self.space.allocate("ert.trees", trees_bytes)
        table_bytes = len(tables) * (4 ** cfg.table_x) * cfg.table_entry_bytes
        self.tables_region = self.space.allocate("ert.tables", table_bytes)
        aux_bytes = sum(4 ** l * 4 for l in range(1, cfg.k))
        self.aux_region = self.space.allocate("ert.prefix_counts", aux_bytes)
        self.ref_region = self.space.allocate(
            "ref.packed", (self.text.size + 3) // 4)
        # Second-level tables are laid out densely in registration order.
        self._table_slot = {code: i for i, code in enumerate(sorted(tables))}

    # ------------------------------------------------------------------
    # Traffic
    # ------------------------------------------------------------------

    def trace(self, base: int, offset: int, size: int, phase: str,
              region_name: str = "") -> None:
        """Report an access, filtered through the k-mer reuse cache.

        The cache operates at line granularity: lines already resident
        cost no DRAM traffic (the accelerator's "skipping two otherwise
        mandatory DRAM accesses", §III-C).
        """
        if self.tracer is None and self.reuse_cache is None:
            return
        addr = base + offset
        if self.reuse_cache is not None:
            line = 64
            first = addr // line
            last = (addr + size - 1) // line
            for ln in range(first, last + 1):
                if self.reuse_cache.lookup(ln * line):
                    continue
                if self.tracer is not None:
                    self.tracer.access(ln * line, line, phase, region_name)
            return
        self.tracer.access(addr, size, phase, region_name)

    def trace_index_entry(self, code: int) -> None:
        self.trace(self.index_region.base,
                   code * self.config.index_entry_bytes,
                   self.config.index_entry_bytes, PHASE_INDEX,
                   self.index_region.name)

    def trace_table_entry(self, code: int, subcode: int) -> None:
        slot = self._table_slot[code]
        entry_bytes = self.config.table_entry_bytes
        offset = (slot * (4 ** self.config.table_x) + subcode) * entry_bytes
        self.trace(self.tables_region.base, offset, entry_bytes,
                   PHASE_TABLE, self.tables_region.name)

    def trace_node(self, code: int, node: Node, phase: str) -> None:
        self.trace(self.trees_region.base,
                   self.tree_base[code] + node.offset,
                   max(node.nbytes, 1), phase, self.trees_region.name)

    def trace_ref_line(self, text_pos: int, phase: str = PHASE_REF) -> None:
        """One cache line of the 2-bit-packed reference around ``text_pos``."""
        byte = text_pos // 4
        line = byte & ~63
        self.trace(self.ref_region.base, line, 64, phase,
                   self.ref_region.name)

    def trace_prefix_count(self, length: int, code: int) -> None:
        offset = sum(4 ** l * 4 for l in range(1, length)) + code * 4
        self.trace(self.aux_region.base, offset, 4, PHASE_PREFIX,
                   self.aux_region.name)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def kmer_code(self, codes: np.ndarray) -> int:
        """Big-endian 2-bit pack of ``k`` base codes (shorter inputs are
        padded with ``A``, i.e. zero bits, on the right)."""
        value = 0
        for c in codes:
            value = (value << 2) | int(c)
        value <<= 2 * (self.config.k - len(codes))
        return value

    def prefix_count(self, codes: np.ndarray, traced: bool = True) -> int:
        """Occurrences of a pattern of length 1..k (aux-table query)."""
        length = len(codes)
        if not 1 <= length <= self.config.k:
            raise ValueError("prefix_count handles lengths 1..k only")
        value = 0
        for c in codes:
            value = (value << 2) | int(c)
        if length == self.config.k:
            if traced:
                self.trace_index_entry(value)
            return int(self.kmer_count[value])
        if traced:
            self.trace_prefix_count(length, value)
        return int(self.prefix_counts[length - 1][value])

    def index_bytes(self) -> "dict[str, int]":
        """Byte footprint per component (paper reports table + trees)."""
        return {
            "index_table": self.index_region.size,
            "trees": self.trees_region.size,
            "tables": self.tables_region.size,
            "prefix_counts": self.aux_region.size,
            "total": (self.index_region.size + self.trees_region.size
                      + self.tables_region.size + self.aux_region.size),
        }

    def attach_tracer(self, tracer: "MemoryTracer | None") -> None:
        self.tracer = tracer
