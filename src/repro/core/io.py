"""The ERT index format: build once, reuse everywhere.

The paper stresses that ERT construction (~1 h for GRCh38) happens once
per reference and is amortized over many runs (§III-A3); that only works
with a persistent format.  There is exactly one, the ``ERTBUF01`` frame
(:func:`index_to_buffer` / :func:`index_from_buffer`): magic, a JSON
directory, then every array 64-byte aligned -- the reference codes, the
entry-metadata arrays, the 1..k prefix-count tables, and every radix
tree as its *serialized blob* (:mod:`repro.core.serialize`) at the
offset the trees region lays it out.  :func:`save_ert` writes the frame
to a file; :mod:`repro.parallel` copies it into one shared-memory
segment for N workers.  Opening a frame makes read-only numpy *views*
into it (zero copy) and decodes the blobs into node objects plus jump
tables (cheap next to construction).  An opened index keeps its frame,
so republishing it never re-encodes a tree.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os

import numpy as np

from repro import telemetry
from repro.core.builder import _build_jump_table
from repro.core.config import ErtConfig, LayoutPolicy
from repro.core.index import EntryKind, ErtIndex
from repro.core.layout import LayoutStats, layout_tree
from repro.core.nodes import Node
from repro.core.serialize import (
    BlobLike,
    decode_tree,
    encode_tree,
    tree_blob_view,
)
from repro.sequence.reference import Reference

FORMAT_VERSION = 1

#: Frame marker of the index format (8 bytes, versioned).
BUFFER_MAGIC = b"ERTBUF01"

#: Every array payload in the frame starts on this alignment so
#: zero-copy views keep natural numpy alignment (and cache-line tiling).
BUFFER_ALIGN = 64

#: Magic plus the little-endian ``uint64`` directory length.
_HEADER_BASE = len(BUFFER_MAGIC) + 8

#: Arrays of every frame, in frame order, before ``prefix_counts_1 .. _k``.
_ARRAYS = ("reference", "entry_kind", "lep_bits", "prefix_len",
           "kmer_count", "tree_codes", "tree_bases", "tree_sizes",
           "tree_blobs")


class IndexFormatError(ValueError):
    """Raised when an index file or buffer cannot be understood."""


def save_ert(index: ErtIndex, path: "str | os.PathLike[str]") -> None:
    """Write ``index`` as one ``ERTBUF01`` frame to exactly ``path``."""
    with open(path, "wb") as handle:
        handle.write(index_to_buffer(index))


def load_ert(path: "str | os.PathLike[str]") -> ErtIndex:
    """Open an index file written by :func:`save_ert`.

    The file is read once; the returned index's arrays are read-only
    views into those bytes, exactly as in a pool worker's attach.
    """
    with telemetry.span("index.load"):
        with open(path, "rb") as handle:
            return index_from_buffer(handle.read())


def _blob_sizes(index: ErtIndex) -> "dict[int, int]":
    """Every tree's blob size: the distance from its base to the next
    larger base (or the region end), from one pass over the sorted
    distinct bases."""
    starts = sorted(set(index.tree_base.values()))
    ends = dict(zip(starts, starts[1:] + [index.trees_region.size]))
    return {code: ends[base] - base
            for code, base in index.tree_base.items()}


def _encode_trees(
    index: ErtIndex,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, bytes]":
    """Serialize every tree into the concatenated blobs region.

    Returns ``(codes, bases, sizes, blobs)`` with the trees encoded at
    exactly the offsets the layout assigned.
    """
    codes = sorted(index.roots)
    blobs = bytearray(index.trees_region.size)
    bases = np.empty(len(codes), dtype=np.int64)
    sizes = np.empty(len(codes), dtype=np.int64)
    blob_sizes = _blob_sizes(index)
    for i, code in enumerate(codes):
        root = index.roots[code]
        base = index.tree_base[code]
        blob_size = blob_sizes[code]
        encoded = encode_tree(root, blob_size,
                              index.config.prefix_merging)
        blobs[base:base + blob_size] = encoded
        bases[i] = base
        sizes[i] = blob_size
    return (np.array(codes, dtype=np.int64), bases, sizes, bytes(blobs))


def _align_up(offset: int, align: int = BUFFER_ALIGN) -> int:
    return (offset + align - 1) // align * align


def index_to_buffer(index: ErtIndex) -> "bytes | memoryview":
    """The index's ``ERTBUF01`` frame: the one it was opened from, else
    a fresh encode.

    Layout: ``BUFFER_MAGIC``, a little-endian ``uint64`` directory
    length, the UTF-8 JSON directory (format version, reference name,
    config, and per-array name, dtype, shape, offset), then each array
    payload aligned to :data:`BUFFER_ALIGN`.  The frame is
    position-independent: a file or a shared-memory segment holding it
    re-opens with :func:`index_from_buffer` as pure views.
    """
    if index.frame is not None:
        return index.frame
    codes, bases, sizes, blobs = _encode_trees(index)
    arrays: "dict[str, np.ndarray]" = dict(zip(_ARRAYS, (
        index.reference.codes, index.entry_kind, index.lep_bits,
        index.prefix_len, index.kmer_count, codes, bases, sizes,
        np.frombuffer(blobs, dtype=np.uint8))))
    for length, counts in enumerate(index.prefix_counts, start=1):
        arrays[f"prefix_counts_{length}"] = counts

    config = dataclasses.asdict(index.config)
    config["layout"] = index.config.layout.value
    directory: "dict[str, object]" = {
        "format_version": FORMAT_VERSION,
        "reference_name": index.reference.name, "config": config}
    specs: "list[dict[str, object]]" = []
    # Directory size depends on the offsets, which depend on the
    # directory size; reserve the directory with placeholder offsets
    # first, then fill real offsets into the same-sized rendering.
    placeholder = [{"name": name, "dtype": arr.dtype.str,
                    "shape": list(arr.shape), "offset": 2 ** 60}
                   for name, arr in arrays.items()]
    directory["arrays"] = placeholder
    header_len = len(json.dumps(directory).encode())
    payload_base = _align_up(_HEADER_BASE + header_len)

    cursor = payload_base
    for name, arr in arrays.items():
        cursor = _align_up(cursor)
        specs.append({"name": name, "dtype": arr.dtype.str,
                      "shape": list(arr.shape), "offset": cursor})
        cursor += arr.nbytes
    directory["arrays"] = specs
    header = json.dumps(directory).encode()
    # Offsets render at fixed width (the placeholder is wider than any
    # real offset), so the directory can only have shrunk; pad it back.
    if len(header) > header_len:
        raise IndexFormatError("frame directory grew past its reservation")
    header = header + b" " * (header_len - len(header))

    out = bytearray(cursor)
    out[:_HEADER_BASE + len(header)] = (
        BUFFER_MAGIC + len(header).to_bytes(8, "little") + header)
    for spec, arr in zip(specs, arrays.values()):
        offset = spec["offset"]
        assert isinstance(offset, int)
        out[offset:offset + arr.nbytes] = arr.tobytes()
    return bytes(out)


def _read_directory(view: memoryview) -> "tuple[str, ErtConfig, dict]":
    """Validate the frame's header as outside input and return the
    reference name, the config and ``{name: (dtype, shape, offset)}``
    for every array, each checked to lie inside the frame."""
    if bytes(view[:len(BUFFER_MAGIC)]) != BUFFER_MAGIC:
        raise IndexFormatError("bad magic; not an ERT index frame")
    if view.nbytes < _HEADER_BASE:
        raise IndexFormatError("frame truncated inside its header")
    header_len = int.from_bytes(view[len(BUFFER_MAGIC):_HEADER_BASE],
                                "little")
    if _HEADER_BASE + header_len > view.nbytes:
        raise IndexFormatError("frame truncated inside its directory")
    try:
        meta = json.loads(bytes(view[_HEADER_BASE:_HEADER_BASE + header_len]))
        version = meta["format_version"]
        if version != FORMAT_VERSION:
            raise IndexFormatError(f"unsupported index format {version!r}")
        cfg = meta["config"]
        config = ErtConfig(**{**cfg, "layout": LayoutPolicy(cfg["layout"])})
        reference_name = str(meta["reference_name"])
        specs = {str(spec["name"]): (np.dtype(spec["dtype"]),
                                     tuple(int(dim) for dim in spec["shape"]),
                                     int(spec["offset"]))
                 for spec in meta["arrays"]}
    except IndexFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise IndexFormatError(f"malformed index directory: {exc}") from exc
    required = _ARRAYS + tuple(
        f"prefix_counts_{length}" for length in range(1, config.k + 1))
    missing = [name for name in required if name not in specs]
    if missing:
        raise IndexFormatError(f"index frame lacks arrays {missing}")
    for name, (dtype, shape, offset) in specs.items():
        nbytes = dtype.itemsize * math.prod(shape)
        if dtype.kind not in "iu" or min(shape, default=0) < 0 \
                or offset < 0 or offset + nbytes > view.nbytes:
            raise IndexFormatError(
                f"array {name!r} does not fit in the {view.nbytes}-byte "
                f"frame")
    return reference_name, config, specs


def index_from_buffer(buffer: BlobLike) -> ErtIndex:
    """Open an ``ERTBUF01`` frame (from :func:`index_to_buffer`, a file
    or a shared-memory segment) as an index.

    The header and every array's bounds are validated before any view
    is made (:class:`IndexFormatError`).  Every array becomes a
    **read-only zero-copy view** into ``buffer`` (``np.frombuffer``);
    only the tree node objects and jump tables are materialized per
    process.  The returned index keeps the frame (``index.frame``), so
    the caller must not modify ``buffer`` and owns its lifetime -- for
    a shared-memory segment, keep the segment open for as long as the
    index is in use (:func:`repro.parallel.attach_index` pins it for
    you).
    """
    view = memoryview(buffer)
    if view.format != "B":
        view = view.cast("B")
    reference_name, config, specs = _read_directory(view)

    arrays: "dict[str, np.ndarray]" = {}
    for name, (dtype, shape, offset) in specs.items():
        arr = np.frombuffer(view, dtype=dtype,
                            count=math.prod(shape),
                            offset=offset).reshape(shape)
        # The frame may be shared across processes: views stay read-only
        # so no worker can scribble on another worker's index.
        arr.flags.writeable = False
        arrays[name] = arr

    reference = Reference(name=reference_name, codes=arrays["reference"])
    entry_kind = arrays["entry_kind"]
    blobs = arrays["tree_blobs"]
    roots: "dict[int, Node]" = {}
    tree_base: "dict[int, int]" = {}
    layout_stats = LayoutStats()
    trees_bytes = 0
    for code, base, size in zip(arrays["tree_codes"].tolist(),
                                arrays["tree_bases"].tolist(),
                                arrays["tree_sizes"].tolist()):
        root = decode_tree(tree_blob_view(blobs, base, size))
        # Re-lay-out to rebuild layout statistics; offsets are identical
        # because the layout is a pure function of the tree shape.
        layout_tree(root, config, layout_stats)
        roots[code] = root
        tree_base[code] = base
        trees_bytes = max(trees_bytes, base + size)

    tables = {code: None for code in arrays["tree_codes"].tolist()
              if entry_kind[code] == EntryKind.TABLE}
    index = ErtIndex(
        reference=reference, config=config, entry_kind=entry_kind,
        lep_bits=arrays["lep_bits"], prefix_len=arrays["prefix_len"],
        kmer_count=arrays["kmer_count"], roots=roots, tree_base=tree_base,
        tables=tables,
        prefix_counts=[arrays[f"prefix_counts_{length}"]
                       for length in range(1, config.k + 1)],
        trees_bytes=trees_bytes, layout_stats=layout_stats)
    for code in tables:
        index.tables[code] = _build_jump_table(index, code)
    index.frame = view
    return index
