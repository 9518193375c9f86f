"""Seeded read sets for the benchmark: stratified subsamples of the
repo's own simulators.

``ReadSimulator`` draws every read's position uniformly at random.  On
the repeat-rich genome one read can cost many times the median to
align, so two seeds' read sets of a few hundred reads differ in total
cost by ~20% (inter-quartile range over eight seeds), which would swamp
any change the benchmark is meant to resolve.  Here the genome is cut
into one stratum per read (per pair), the simulator draws reads until
every stratum has one, and the first read (pair) to land in a stratum
is kept.  Every seed then samples every region once.  The reads,
their errors and the pair layout all come from
``repro.sequence.simulate``; only the choice of which draws to keep is
made here.  The output order is shuffled so batches mix regions.

Callers put the program's ``src`` on ``sys.path`` first.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.sequence.reference import Reference
from repro.sequence.simulate import (
    PairedReadSimulator,
    Read,
    ReadSimulator,
)


def _stratified(draw, count: int, span: int, key) -> list:
    """The first item of ``draw()``'s batches whose ``key`` lands in each
    of ``count`` equal strata of ``[0, span)``; keys past ``span`` are
    skipped."""
    picked: list = [None] * count
    missing = count
    while missing:
        for item in draw():
            k = key(item)
            if k >= span:
                continue
            stratum = k * count // span
            if picked[stratum] is None:
                picked[stratum] = item
                missing -= 1
    return picked


def stratified_reads(reference: Reference, count: int, seed: int,
                     read_length: int = 101,
                     error_fraction: float = 0.2) -> "list[Read]":
    """``count`` single-end reads, one per stratum of read origins."""
    simulator = ReadSimulator(reference, read_length=read_length,
                              error_read_fraction=error_fraction,
                              seed=seed)
    picked = _stratified(lambda: simulator.simulate(count), count,
                         len(reference) - read_length + 1,
                         lambda read: read.origin)
    order = np.random.default_rng(seed).permutation(count)
    return [dataclasses.replace(picked[j], name=f"read_{i}")
            for i, j in enumerate(order.tolist())]


def stratified_pairs(reference: Reference, pairs: int, seed: int,
                     read_length: int = 101, insert_mean: int = 350,
                     insert_sd: int = 50,
                     error_fraction: float = 0.2) -> "list[Read]":
    """Interleaved mates (first, second, ...) of ``pairs`` pairs, one per
    stratum of fragment starts.  Fragments starting within the longest
    likely insert (mean + 4 sd) of the genome's end are not kept, so
    every stratum is equally easy to fill."""
    simulator = PairedReadSimulator(
        reference, read_length=read_length, insert_mean=insert_mean,
        insert_sd=insert_sd, error_read_fraction=error_fraction,
        seed=seed)
    picked = _stratified(lambda: simulator.simulate(pairs), pairs,
                         len(reference) - (insert_mean + 4 * insert_sd) + 1,
                         lambda pair: pair.fragment_start)
    order = np.random.default_rng(seed).permutation(pairs)
    out = []
    for i, j in enumerate(order.tolist()):
        pair = picked[j]
        out.append(dataclasses.replace(pair.first, name=f"pair_{i}/1"))
        out.append(dataclasses.replace(pair.second, name=f"pair_{i}/2"))
    return out
