"""End-to-end CLI tests (the index-once / align-many workflow)."""

import pytest

from repro import telemetry
from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Run the whole CLI workflow once; individual tests inspect it."""
    root = tmp_path_factory.mktemp("cli")
    ref = root / "ref.fa"
    reads = root / "reads.fq"
    index = root / "index.npz"
    assert main(["simulate-genome", "--length", "3000", "--seed", "5",
                 "--out", str(ref)]) == 0
    assert main(["simulate-reads", "--reference", str(ref), "--count", "12",
                 "--read-length", "60", "--seed", "6",
                 "--out", str(reads)]) == 0
    assert main(["build-index", "--reference", str(ref), "--k", "5",
                 "--max-seed-len", "100", "--out", str(index)]) == 0
    return root, ref, reads, index


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_simulated_files_exist(workspace):
    _root, ref, reads, index = workspace
    assert ref.read_text().startswith(">")
    assert reads.read_text().startswith("@")
    assert index.stat().st_size > 0


def test_index_stats(workspace, capsys):
    _root, _ref, _reads, index = workspace
    assert main(["index-stats", "--index", str(index)]) == 0
    out = capsys.readouterr().out
    assert "entry kinds" in out
    assert "hit distribution" in out


def test_build_index_writes_exactly_the_given_path(workspace, tmp_path,
                                                  capsys):
    _root, ref, reads, _index = workspace
    index = tmp_path / "g.ert"
    assert main(["build-index", "--reference", str(ref), "--k", "5",
                 "--max-seed-len", "100", "--out", str(index)]) == 0
    assert f"saved to {index}" in capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.ert"]
    assert main(["align", "--index", str(index), "--reads", str(reads),
                 "--min-seed-len", "12",
                 "--out", str(tmp_path / "out.sam")]) == 0


@pytest.mark.parametrize("bad", ["missing", "fasta", "truncated"])
@pytest.mark.parametrize("command", ["seed", "align", "index-stats"])
def test_missing_index_exits_2_with_one_line(workspace, tmp_path, capsys,
                                             command, bad):
    _root, ref, reads, index = workspace
    path = {"missing": tmp_path / "nope.ert", "fasta": ref,
            "truncated": tmp_path / "cut.ert"}[bad]
    if bad == "truncated":
        path.write_bytes(index.read_bytes()[:1000])
    argv = [command, "--index", str(path)]
    if command != "index-stats":
        argv += ["--reads", str(reads), "--out", str(tmp_path / "o"),
                 "--profile"]
    assert main(argv) == 2
    assert not telemetry.enabled()
    err = capsys.readouterr().err
    if bad == "missing":
        assert err == f"ert-repro: error: index file not found: {path}\n"
    else:
        assert err.startswith(
            f"ert-repro: error: {path} is not a readable ERT index (")
        assert err.endswith("; rebuild it with build-index\n")
        assert err.count("\n") == 1


def test_seed_tsv(workspace, capsys):
    root, _ref, reads, index = workspace
    out_path = root / "seeds.tsv"
    assert main(["seed", "--index", str(index), "--reads", str(reads),
                 "--min-seed-len", "12", "--out", str(out_path)]) == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "read\tstart\tlength\thit_count\thits"
    assert len(lines) > 12  # at least one seed per read on average
    for line in lines[1:]:
        name, start, length, count, _hits = line.split("\t")
        assert int(length) >= 12
        assert int(count) >= 1


def test_seed_to_stdout(workspace, capsys):
    _root, _ref, reads, index = workspace
    assert main(["seed", "--index", str(index), "--reads", str(reads),
                 "--min-seed-len", "12", "--out", "-"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("read\t")


def test_align_sam(workspace):
    root, _ref, reads, index = workspace
    sam = root / "out.sam"
    assert main(["align", "--index", str(index), "--reads", str(reads),
                 "--min-seed-len", "12", "--out", str(sam)]) == 0
    lines = sam.read_text().splitlines()
    assert lines[0].startswith("@HD")
    body = [line for line in lines if not line.startswith("@")]
    assert len(body) == 12
    mapped = [line for line in body
              if not int(line.split("\t")[1]) & 0x4]
    assert len(mapped) >= 10


def test_align_pe(workspace, tmp_path):
    """Interleaved paired-end alignment through the CLI."""
    from repro.sequence import GenomeSimulator, write_fastq
    from repro.sequence.simulate import PairedReadSimulator
    from repro.sequence.io import read_fasta

    root, ref_path, _reads, index = workspace
    ref = read_fasta(ref_path)[0]
    pairs = PairedReadSimulator(ref, read_length=60, insert_mean=250,
                                insert_sd=20, seed=7).simulate(6)
    interleaved = []
    for pair in pairs:
        interleaved.extend([pair.first, pair.second])
    fq = tmp_path / "pairs.fq"
    write_fastq(fq, interleaved)
    sam = tmp_path / "pe.sam"
    assert main(["align-pe", "--index", str(index), "--reads", str(fq),
                 "--min-seed-len", "12", "--insert-mean", "250",
                 "--insert-sd", "20", "--out", str(sam)]) == 0
    body = [line for line in sam.read_text().splitlines()
            if not line.startswith("@")]
    assert len(body) == 12
    flags = [int(line.split("\t")[1]) for line in body]
    assert all(flag & 0x1 for flag in flags)  # paired
    assert any(flag & 0x2 for flag in flags)  # some proper pairs


def test_align_pe_rejects_odd_count(workspace, tmp_path):
    root, _ref, _reads, index = workspace
    fq = tmp_path / "odd.fq"
    fq.write_text("@r1\nACGTACGTACGT\n+\nIIIIIIIIIIII\n")
    with pytest.raises(SystemExit):
        main(["align-pe", "--index", str(index), "--reads", str(fq),
              "--out", str(tmp_path / "x.sam")])


def test_compare(workspace, capsys):
    _root, ref, reads, _index = workspace
    assert main(["compare", "--reference", str(ref), "--reads", str(reads),
                 "--k", "5", "--min-seed-len", "12"]) == 0
    out = capsys.readouterr().out
    assert "KB/read" in out
    assert "data-efficiency gain" in out


def test_workers_flag_rejects_zero_and_negative(workspace, capsys):
    _root, _ref, reads, index = workspace
    for bad in ("0", "-2", "abc"):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["seed", "--index", str(index), "--reads", str(reads),
                 "--out", "-", "--workers", bad])
        assert "--workers" in capsys.readouterr().err


def test_batch_size_flag_rejects_nonpositive(workspace, capsys):
    _root, _ref, reads, index = workspace
    for bad in ("0", "-64", "x"):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["seed", "--index", str(index), "--reads", str(reads),
                 "--out", "-", "--batch-size", bad])
        assert "--batch-size" in capsys.readouterr().err


def test_retry_flags_validate(workspace, capsys):
    _root, _ref, reads, index = workspace
    args = build_parser().parse_args(
        ["seed", "--index", str(index), "--reads", str(reads),
         "--out", "-", "--retries", "0", "--batch-timeout", "1.5"])
    assert args.retries == 0
    assert args.batch_timeout == 1.5
    for flag, bad in (("--retries", "-1"), ("--retries", "two"),
                      ("--batch-timeout", "0"), ("--batch-timeout", "-3")):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["seed", "--index", str(index), "--reads", str(reads),
                 "--out", "-", flag, bad])
        assert flag in capsys.readouterr().err


def test_repro_workers_garbage_values(workspace, monkeypatch, capsys):
    """Garbage in $REPRO_WORKERS must not break a run: "abc" warns and
    runs serial; "-3" clamps to 1 worker."""
    _root, _ref, reads, index = workspace
    monkeypatch.setenv("REPRO_WORKERS", "abc")
    with pytest.warns(RuntimeWarning, match="REPRO_WORKERS"):
        assert main(["seed", "--index", str(index), "--reads", str(reads),
                     "--min-seed-len", "12", "--out", "-"]) == 0
    assert capsys.readouterr().out.startswith("read\t")
    monkeypatch.setenv("REPRO_WORKERS", "-3")
    assert main(["seed", "--index", str(index), "--reads", str(reads),
                 "--min-seed-len", "12", "--out", "-"]) == 0
    assert capsys.readouterr().out.startswith("read\t")


def test_index_cache_detects_same_size_rewrite(tmp_path, monkeypatch):
    """The PR-3 cache key was (abspath, mtime_ns, size): a same-size
    in-place rewrite within one mtime tick served the stale index.  The
    content fingerprint in the key must detect the rewrite even with
    identical size, inode and mtime."""
    import os

    import repro.cli as cli_mod

    target = tmp_path / "index.npz"
    page = cli_mod._FINGERPRINT_PAGE
    target.write_bytes(b"A" * (3 * page))
    stat = os.stat(target)

    loads = []
    monkeypatch.setattr(cli_mod, "load_ert",
                        lambda path: loads.append(str(path)) or object())
    cli_mod._INDEX_CACHE.clear()
    first = cli_mod.load_index_cached(str(target))
    assert len(loads) == 1
    # Cache hit while the file is untouched.
    assert cli_mod.load_index_cached(str(target)) is first
    assert len(loads) == 1

    def rewrite_in_place(data):
        # Same size, same inode (no truncate-and-replace), and the
        # original mtime pinned back -- only the bytes differ.
        with open(target, "r+b") as fh:
            fh.write(data)
        os.utime(target, ns=(stat.st_atime_ns, stat.st_mtime_ns))

    # A change in the first page misses the cache...
    rewrite_in_place(b"B" * page + b"A" * (2 * page))
    second = cli_mod.load_index_cached(str(target))
    assert len(loads) == 2, "stale index served after first-page rewrite"
    assert second is not first
    # ... and so does a change confined to the last page.
    rewrite_in_place(b"B" * (2 * page) + b"C" * page)
    third = cli_mod.load_index_cached(str(target))
    assert len(loads) == 3, "stale index served after last-page rewrite"
    assert third is not second


def test_seed_output_matches_library(workspace):
    """The CLI must produce exactly what the library produces."""
    from repro.core import ErtSeedingEngine, load_ert
    from repro.seeding import SeedingParams, seed_read
    from repro.sequence import read_fastq

    root, _ref, reads_path, index_path = workspace
    out_path = root / "seeds2.tsv"
    main(["seed", "--index", str(index_path), "--reads", str(reads_path),
          "--min-seed-len", "12", "--out", str(out_path)])

    engine = ErtSeedingEngine(load_ert(index_path))
    params = SeedingParams(min_seed_len=12)
    expected = []
    for read in read_fastq(reads_path):
        for seed in seed_read(engine, read.codes, params).all_seeds:
            expected.append((read.name, seed.read_start, seed.length,
                             seed.hit_count))
    got = []
    for line in out_path.read_text().splitlines()[1:]:
        name, start, length, count, _ = line.split("\t")
        got.append((name, int(start), int(length), int(count)))
    assert got == expected
